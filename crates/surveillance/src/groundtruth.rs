//! Synthetic ground-truth generator.
//!
//! Stands in for the confirmed-case feeds (NYT, JHU, UVA dashboard) the
//! paper calibrates against. Each county runs a hidden-parameter discrete
//! renewal epidemic; an observation model then produces the reported
//! series with the pathologies the paper highlights in Fig. 14
//! ("incidence curves are highly noisy and often time-delayed"):
//!
//! * under-ascertainment (only a fraction of infections are confirmed),
//! * a discrete reporting delay kernel,
//! * multiplicative weekday effects (weekend dips),
//! * negative-binomial-style overdispersed count noise.
//!
//! Because the generator's parameters are known, calibration code can be
//! validated against recoverable truth.

use crate::casedata::{CaseSeries, CountySeries, RegionCases};
use crate::regions::{RegionId, RegionRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Gamma};
use serde::{Deserialize, Serialize};

/// Basic reproduction number before any intervention.
const R0: f64 = 2.5;
/// Day the stay-at-home-like suppression begins.
const INTERVENTION_DAY: usize = 60;
/// Fraction of infections that are eventually confirmed.
const ASCERTAINMENT: f64 = 0.25;
/// Mean reporting delay in days.
const REPORT_DELAY_MEAN: f64 = 5.0;
/// Negative-binomial-like dispersion: variance = mean·(1 + mean/k).
/// Larger k ⇒ closer to Poisson.
const DISPERSION_K: f64 = 10.0;

/// Hidden epidemic + observation parameters. The reproduction number,
/// intervention day, ascertainment, reporting delay and dispersion are
/// fixed constants of this module.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroundTruthConfig {
    /// Multiplier on transmission after `INTERVENTION_DAY` (e.g. 0.4).
    pub intervention_effect: f64,
    /// Weekend reporting multiplier (< 1 ⇒ weekend dip).
    pub weekend_factor: f64,
    /// Number of days to generate.
    pub days: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        GroundTruthConfig {
            intervention_effect: 0.45,
            weekend_factor: 0.7,
            days: 200,
            seed: 20200121,
        }
    }
}

/// Ground truth for the whole country: true infections plus the observed
/// (noisy) confirmed-case series per county.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    pub config: GroundTruthConfig,
    /// Per-region observed case data.
    pub observed: Vec<RegionCases>,
    /// Per-region true (latent) daily infection counts, state level.
    pub true_infections: Vec<CaseSeries>,
}

/// Discretized generation-interval kernel (mean ≈ 6.5 d, COVID-like),
/// normalized to sum to 1.
fn generation_kernel() -> Vec<f64> {
    // Gamma(shape=2.8, scale=2.3) discretized on days 1..=14.
    let shape = 2.8;
    let scale = 2.3;
    let pdf = |x: f64| {
        // Unnormalized gamma pdf; constant cancels on normalization.
        x.powf(shape - 1.0) * (-x / scale).exp()
    };
    let mut k: Vec<f64> = (1..=14).map(|d| pdf(d as f64)).collect();
    let s: f64 = k.iter().sum();
    for v in &mut k {
        *v /= s;
    }
    k
}

/// Discretized reporting-delay kernel with the given mean, on days 0..=13.
fn delay_kernel(mean: f64) -> Vec<f64> {
    // Geometric-ish decay matched to the mean: p(d) ∝ q^d with mean
    // q/(1-q) = mean ⇒ q = mean/(1+mean).
    let q = mean / (1.0 + mean);
    let mut k: Vec<f64> = (0..14).map(|d| q.powi(d)).collect();
    let s: f64 = k.iter().sum();
    for v in &mut k {
        *v /= s;
    }
    k
}

impl GroundTruth {
    /// Generate ground truth for every region in the registry.
    pub fn generate(registry: &RegionRegistry, config: &GroundTruthConfig) -> Self {
        let gen_kernel = generation_kernel();
        let del_kernel = delay_kernel(REPORT_DELAY_MEAN);
        let mut observed = Vec::with_capacity(registry.len());
        let mut true_infections = Vec::with_capacity(registry.len());

        for region in registry.regions() {
            let mut rng = StdRng::seed_from_u64(
                config.seed ^ (region.id as u64).wrapping_mul(0x9E3779B97F4A7C15),
            );
            let mut counties = Vec::with_capacity(region.n_counties);
            let mut state_true = CaseSeries::default();

            for county in registry.counties(region.id) {
                let (truth, obs) =
                    simulate_county(county.population, config, &gen_kernel, &del_kernel, &mut rng);
                state_true = state_true.add(&truth);
                counties.push(CountySeries { fips: county.fips, series: obs });
            }
            observed.push(RegionCases { region: region.id, counties });
            true_infections.push(state_true);
        }

        GroundTruth { config: config.clone(), observed, true_infections }
    }

    /// Observed cases for one region.
    pub fn region(&self, id: RegionId) -> &RegionCases {
        &self.observed[id]
    }

    /// State-level observed cumulative curve for one region.
    pub fn state_cumulative(&self, id: RegionId) -> Vec<f64> {
        self.observed[id].state_series().cumulative()
    }

    /// Count of counties nationwide with ≥ 1 reported case (the paper
    /// reports 2772 of 3000+ as of 2020-04-22).
    pub fn counties_with_cases(&self) -> usize {
        self.observed.iter().map(|r| r.counties_with_cases()).sum()
    }
}

/// Simulate one county: renewal epidemic + observation model.
fn simulate_county(
    population: u64,
    config: &GroundTruthConfig,
    gen_kernel: &[f64],
    del_kernel: &[f64],
    rng: &mut StdRng,
) -> (CaseSeries, CaseSeries) {
    let n = population as f64;
    let days = config.days;
    let mut infections = vec![0.0f64; days];

    // Seeding: bigger counties are hit earlier and harder, mirroring the
    // real metro-first spread. Import day ~ inversely related to log pop.
    let import_day = (60.0 - 3.5 * n.max(10.0).ln()).clamp(5.0, 80.0) as usize;
    let import_size = (n / 100_000.0).clamp(0.2, 10.0);

    let mut susceptible = n;
    for t in 0..days {
        // Importation pulse over three days.
        let mut force = 0.0;
        if t >= import_day && t < import_day + 3 {
            force += import_size * rng.random_range(0.5..1.5);
        }
        // Renewal: force = R_t Σ g_s I_{t-s}.
        let rt = if t >= INTERVENTION_DAY { R0 * config.intervention_effect } else { R0 };
        let mut conv = 0.0;
        for (s, g) in gen_kernel.iter().enumerate() {
            let lag = s + 1;
            if lag <= t {
                conv += g * infections[t - lag];
            }
        }
        force += rt * conv;
        // Susceptible depletion + mild stochasticity via gamma multiplier.
        let depletion = (susceptible / n).max(0.0);
        let noise = Gamma::new(20.0f64, 1.0 / 20.0).expect("valid gamma").sample(rng);
        let new_inf = (force * depletion * noise).min(susceptible);
        infections[t] = new_inf;
        susceptible -= new_inf;
    }

    // Observation model.
    let mut expected = vec![0.0f64; days];
    for t in 0..days {
        let inf = infections[t] * ASCERTAINMENT;
        if inf <= 0.0 {
            continue;
        }
        for (d, w) in del_kernel.iter().enumerate() {
            if t + d < days {
                expected[t + d] += inf * w;
            }
        }
    }
    let mut reported = vec![0.0f64; days];
    for t in 0..days {
        let weekday = t % 7;
        let wk = if weekday == 5 || weekday == 6 { config.weekend_factor } else { 1.0 };
        let mu = expected[t] * wk;
        reported[t] = negbin_like(mu, DISPERSION_K, rng);
    }

    (CaseSeries::from_daily(infections), CaseSeries::from_daily(reported))
}

/// Overdispersed count draw with mean `mu` and variance `mu(1 + mu/k)`,
/// via the gamma-Poisson mixture (Poisson approximated by a rounded
/// normal above 30 for speed — indistinguishable at those counts).
fn negbin_like(mu: f64, k: f64, rng: &mut StdRng) -> f64 {
    if mu <= 0.0 {
        return 0.0;
    }
    let lambda = mu * Gamma::new(k, 1.0 / k).expect("valid gamma").sample(rng);
    if lambda < 30.0 {
        // Knuth Poisson.
        let l = (-lambda).exp();
        let mut kk = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.random_range(0.0..1.0);
            if p <= l {
                break;
            }
            kk += 1;
            if kk > 10_000 {
                break;
            }
        }
        kk as f64
    } else {
        let z: f64 = rand_distr::StandardNormal.sample(rng);
        (lambda + lambda.sqrt() * z).round().max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_registry_truth(days: usize) -> GroundTruth {
        let reg = RegionRegistry::new();
        let cfg = GroundTruthConfig { days, ..Default::default() };
        GroundTruth::generate(&reg, &cfg)
    }

    #[test]
    fn generates_all_regions_and_counties() {
        let gt = small_registry_truth(120);
        assert_eq!(gt.observed.len(), 51);
        let total: usize = gt.observed.iter().map(|r| r.counties.len()).sum();
        assert_eq!(total, 3140);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let reg = RegionRegistry::new();
        let cfg = GroundTruthConfig { days: 90, ..Default::default() };
        let a = GroundTruth::generate(&reg, &cfg);
        let b = GroundTruth::generate(&reg, &cfg);
        assert_eq!(a.state_cumulative(0), b.state_cumulative(0));
    }

    #[test]
    fn epidemic_actually_happens() {
        let gt = small_registry_truth(150);
        let reg = RegionRegistry::new();
        let ca = reg.by_abbrev("CA").unwrap().id;
        let total = gt.observed[ca].state_series().total();
        assert!(total > 1000.0, "CA should have a real outbreak, got {total}");
    }

    #[test]
    fn most_counties_report_cases() {
        let gt = small_registry_truth(200);
        let with = gt.counties_with_cases();
        // Paper: 2772 / 3000+ by late April. We expect the same order.
        assert!(with > 2200, "counties with cases: {with}");
    }

    #[test]
    fn intervention_bends_the_curve() {
        let reg = RegionRegistry::new();
        let strong =
            GroundTruthConfig { days: 160, intervention_effect: 0.3, ..Default::default() };
        let none = GroundTruthConfig { days: 160, intervention_effect: 1.0, ..Default::default() };
        let a = GroundTruth::generate(&reg, &strong);
        let b = GroundTruth::generate(&reg, &none);
        let ny = reg.by_abbrev("NY").unwrap().id;
        let ta = a.true_infections[ny].total();
        let tb = b.true_infections[ny].total();
        assert!(tb > ta * 1.5, "no-intervention {tb} vs intervention {ta}");
    }

    #[test]
    fn bigger_counties_seed_earlier() {
        let gt = small_registry_truth(200);
        let reg = RegionRegistry::new();
        let tx = reg.by_abbrev("TX").unwrap().id;
        let cases = &gt.observed[tx];
        let first_day = |s: &CaseSeries| s.daily.iter().position(|&x| x > 0.0);
        let big = first_day(&cases.counties[0].series);
        let small = first_day(&cases.counties[cases.counties.len() - 1].series);
        match (big, small) {
            (Some(b), Some(s)) => assert!(b <= s, "metro county first case {b} vs rural {s}"),
            (Some(_), None) => {} // rural county never reported: fine
            _ => panic!("largest county must report cases"),
        }
    }

    #[test]
    fn weekend_dip_visible_in_expected_counts() {
        // With strong weekend factor and high counts, the weekday mean
        // should exceed the weekend mean.
        let reg = RegionRegistry::new();
        let cfg = GroundTruthConfig { days: 200, weekend_factor: 0.4, ..Default::default() };
        let gt = GroundTruth::generate(&reg, &cfg);
        let ca = reg.by_abbrev("CA").unwrap().id;
        let s = gt.observed[ca].state_series();
        let mut weekday_sum = 0.0;
        let mut weekday_n = 0.0;
        let mut weekend_sum = 0.0;
        let mut weekend_n = 0.0;
        for (t, &v) in s.daily.iter().enumerate().skip(60) {
            if t % 7 == 5 || t % 7 == 6 {
                weekend_sum += v;
                weekend_n += 1.0;
            } else {
                weekday_sum += v;
                weekday_n += 1.0;
            }
        }
        assert!(weekday_sum / weekday_n > weekend_sum / weekend_n);
    }

    #[test]
    fn negbin_mean_tracks_mu() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 3000;
        let mu = 50.0;
        let mean: f64 = (0..n).map(|_| negbin_like(mu, 10.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - mu).abs() < 3.0, "sample mean {mean}");
    }

    #[test]
    fn kernels_normalized() {
        let g = generation_kernel();
        assert!((g.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let d = delay_kernel(5.0);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Generation interval mean in a plausible range (4–9 days).
        let mean: f64 = g.iter().enumerate().map(|(i, w)| (i + 1) as f64 * w).sum();
        assert!((4.0..9.0).contains(&mean), "gen interval mean {mean}");
    }
}

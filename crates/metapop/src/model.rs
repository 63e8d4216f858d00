//! The metapopulation SEIR(+P, Iₐ, H, D) model and its integrators.

use crate::mixing::Mixing;
use crate::params::{
    Scenario, SeirParams, ASYMPTOMATIC_FRACTION, DELTA, ETA, HOSPITALIZATION_FRACTION,
    HOSPITAL_FATALITY, REL_ASYMPTOMATIC, REL_PRESYMPTOMATIC, SIGMA,
};

/// Compartment indices within one county's state vector.
const S: usize = 0;
const E: usize = 1;
const P: usize = 2;
const IA: usize = 3;
const IS: usize = 4;
const H: usize = 5;
const R: usize = 6;
const D: usize = 7;
/// Compartments per county.
const NC: usize = 8;

/// The configured model.
#[derive(Clone, Debug)]
pub struct MetapopModel {
    pub params: SeirParams,
    pub mixing: Mixing,
    /// County populations.
    pub populations: Vec<f64>,
}

/// Time series output: `series[day][county][compartment]` plus daily new
/// symptomatic cases (the calibration observable).
#[derive(Clone, Debug)]
pub struct MetapopOutput {
    pub series: Vec<Vec<[f64; NC]>>,
    /// New symptomatic cases per day per county (P → Iₛ flux).
    pub new_cases: Vec<Vec<f64>>,
}

impl MetapopOutput {
    /// Number of days.
    pub fn days(&self) -> usize {
        self.series.len()
    }

    /// Cumulative symptomatic cases per county at the end.
    pub fn final_cumulative_cases(&self) -> Vec<f64> {
        let n = self.new_cases.first().map_or(0, |r| r.len());
        let mut acc = vec![0.0; n];
        for day in &self.new_cases {
            for (a, &x) in acc.iter_mut().zip(day) {
                *a += x;
            }
        }
        acc
    }

    /// Daily new cases summed over counties.
    pub fn state_new_cases(&self) -> Vec<f64> {
        self.new_cases.iter().map(|day| day.iter().sum()).collect()
    }

    /// County time series of one compartment (by index constant).
    fn county_series(&self, county: usize, comp: usize) -> Vec<f64> {
        self.series.iter().map(|day| day[county][comp]).collect()
    }

    /// Hospital occupancy per day, summed over counties.
    pub fn hospital_occupancy(&self) -> Vec<f64> {
        self.series.iter().map(|day| day.iter().map(|c| c[H]).sum()).collect()
    }

    /// Cumulative deaths per day, summed over counties.
    pub fn deaths(&self) -> Vec<f64> {
        self.series.iter().map(|day| day.iter().map(|c| c[D]).sum()).collect()
    }

    /// Susceptible series for a county (mostly for tests).
    pub fn susceptible(&self, county: usize) -> Vec<f64> {
        self.county_series(county, S)
    }
}

impl MetapopModel {
    /// Build a model; `populations` and the mixing matrix must agree on
    /// the county count.
    pub fn new(params: SeirParams, mixing: Mixing, populations: Vec<f64>) -> Self {
        assert_eq!(mixing.len(), populations.len(), "mixing size must match county count");
        assert!(populations.iter().all(|&p| p > 0.0), "county populations must be positive");
        MetapopModel { params, mixing, populations }
    }

    /// Force of infection per county given the current state.
    ///
    /// Effective prevalence is computed at the *destination*: residents
    /// of `i` meet, in county `j`, the weighted infectious visitors from
    /// every county.
    fn force_of_infection(&self, state: &[[f64; NC]], beta: f64) -> Vec<f64> {
        let n = self.populations.len();
        // Infectious pressure present in each destination county.
        let mut pressure = vec![0.0; n];
        let mut n_eff = vec![0.0; n];
        for (k, sk) in state.iter().enumerate().take(n) {
            let infectious = sk[IS] + REL_PRESYMPTOMATIC * sk[P] + REL_ASYMPTOMATIC * sk[IA];
            let row = self.mixing.row(k);
            for j in 0..n {
                pressure[j] += row[j] * infectious;
                n_eff[j] += row[j] * self.populations[k];
            }
        }
        (0..n)
            .map(|i| {
                let row = self.mixing.row(i);
                beta * (0..n)
                    .map(|j| if n_eff[j] > 0.0 { row[j] * pressure[j] / n_eff[j] } else { 0.0 })
                    .sum::<f64>()
            })
            .collect()
    }

    /// Time derivative of the full state. Returns (d_state, new_case_rate).
    fn derivative(&self, state: &[[f64; NC]], beta: f64) -> (Vec<[f64; NC]>, Vec<f64>) {
        let p = &self.params;
        let lambda = self.force_of_infection(state, beta);
        let n = self.populations.len();
        let mut d = vec![[0.0; NC]; n];
        let mut new_cases = vec![0.0; n];
        for i in 0..n {
            let s = state[i];
            let infection = lambda[i] * s[S];
            let e_out = SIGMA * s[E];
            let to_asym = e_out * ASYMPTOMATIC_FRACTION;
            let to_pre = e_out * (1.0 - ASYMPTOMATIC_FRACTION);
            let p_out = DELTA * s[P];
            let ia_out = p.gamma * s[IA];
            let is_out = p.gamma * s[IS];
            let to_hosp = is_out * HOSPITALIZATION_FRACTION;
            let to_recover_direct = is_out - to_hosp;
            let h_out = ETA * s[H];
            let to_death = h_out * HOSPITAL_FATALITY;

            d[i][S] = -infection;
            d[i][E] = infection - e_out;
            d[i][P] = to_pre - p_out;
            d[i][IA] = to_asym - ia_out;
            d[i][IS] = p_out - is_out;
            d[i][H] = to_hosp - h_out;
            d[i][R] = ia_out + to_recover_direct + (h_out - to_death);
            d[i][D] = to_death;
            new_cases[i] = p_out;
        }
        (d, new_cases)
    }

    /// Initial state: everyone susceptible except `seeds[i]` initial
    /// exposed per county.
    fn initial_state(&self, seeds: &[f64]) -> Vec<[f64; NC]> {
        assert_eq!(seeds.len(), self.populations.len(), "seed per county");
        self.populations
            .iter()
            .zip(seeds)
            .map(|(&n, &e0)| {
                let e0 = e0.min(n);
                let mut c = [0.0; NC];
                c[S] = n - e0;
                c[E] = e0;
                c
            })
            .collect()
    }

    /// Deterministic RK4 run for `days` days with `steps_per_day`
    /// substeps, under `scenario`'s time-varying β.
    pub fn run_deterministic(
        &self,
        days: u32,
        seeds: &[f64],
        scenario: &Scenario,
        steps_per_day: usize,
    ) -> MetapopOutput {
        assert!(steps_per_day > 0);
        let mut state = self.initial_state(seeds);
        let n = self.populations.len();
        let h = 1.0 / steps_per_day as f64;
        let mut series = Vec::with_capacity(days as usize);
        let mut new_cases = Vec::with_capacity(days as usize);

        for day in 0..days {
            let beta = self.params.beta * scenario.multiplier(day);
            let mut day_cases = vec![0.0; n];
            for _ in 0..steps_per_day {
                // RK4 on the state; case flux integrated with the k-average.
                let (k1, c1) = self.derivative(&state, beta);
                let s2 = add_scaled(&state, &k1, h / 2.0);
                let (k2, c2) = self.derivative(&s2, beta);
                let s3 = add_scaled(&state, &k2, h / 2.0);
                let (k3, c3) = self.derivative(&s3, beta);
                let s4 = add_scaled(&state, &k3, h);
                let (k4, c4) = self.derivative(&s4, beta);
                for i in 0..n {
                    for c in 0..NC {
                        state[i][c] +=
                            h / 6.0 * (k1[i][c] + 2.0 * k2[i][c] + 2.0 * k3[i][c] + k4[i][c]);
                        state[i][c] = state[i][c].max(0.0);
                    }
                    day_cases[i] += h / 6.0 * (c1[i] + 2.0 * c2[i] + 2.0 * c3[i] + c4[i]);
                }
            }
            series.push(state.clone());
            new_cases.push(day_cases);
        }
        MetapopOutput { series, new_cases }
    }
}

fn add_scaled(state: &[[f64; NC]], k: &[[f64; NC]], h: f64) -> Vec<[f64; NC]> {
    state
        .iter()
        .zip(k)
        .map(|(s, d)| {
            let mut out = [0.0; NC];
            for c in 0..NC {
                out[c] = s[c] + h * d[c];
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_distancing() -> Scenario {
        Scenario {
            name: "none".into(),
            distancing_start: None,
            distancing_end: 0,
            beta_multiplier: 1.0,
        }
    }

    fn two_county_model() -> MetapopModel {
        MetapopModel::new(
            SeirParams::default().with_r0(2.5),
            Mixing::gravity(&[100_000, 50_000], 0.85),
            vec![100_000.0, 50_000.0],
        )
    }

    #[test]
    fn population_is_conserved() {
        let m = two_county_model();
        let out = m.run_deterministic(120, &[10.0, 0.0], &no_distancing(), 4);
        for day in &out.series {
            let total: f64 = day.iter().flat_map(|c| c.iter()).sum();
            assert!((total - 150_000.0).abs() < 1e-4, "total {total}");
        }
    }

    #[test]
    fn epidemic_peaks_and_declines() {
        let m = two_county_model();
        let out = m.run_deterministic(250, &[10.0, 0.0], &no_distancing(), 4);
        let cases = out.state_new_cases();
        let peak_day =
            cases.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert!(peak_day > 10 && peak_day < 240, "peak at {peak_day}");
        assert!(cases[249] < cases[peak_day] / 5.0, "epidemic must wane");
    }

    #[test]
    fn r0_controls_final_size() {
        let mk = |r0: f64| {
            let m = MetapopModel::new(
                SeirParams::default().with_r0(r0),
                Mixing::isolated(1),
                vec![100_000.0],
            );
            let out = m.run_deterministic(400, &[10.0], &no_distancing(), 4);
            out.final_cumulative_cases()[0]
        };
        let low = mk(1.3);
        let high = mk(3.0);
        assert!(high > low * 1.5, "R0 3.0 ({high}) ≫ R0 1.3 ({low})");
    }

    #[test]
    fn subcritical_epidemic_dies() {
        let m = MetapopModel::new(
            SeirParams::default().with_r0(0.7),
            Mixing::isolated(1),
            vec![100_000.0],
        );
        let out = m.run_deterministic(300, &[50.0], &no_distancing(), 4);
        let total = out.final_cumulative_cases()[0];
        assert!(total < 500.0, "subcritical total {total}");
    }

    #[test]
    fn infection_spreads_between_coupled_counties() {
        let m = two_county_model();
        let out = m.run_deterministic(200, &[10.0, 0.0], &no_distancing(), 4);
        let cum = out.final_cumulative_cases();
        assert!(cum[1] > 100.0, "coupled county must catch it, got {}", cum[1]);
    }

    #[test]
    fn isolated_counties_do_not_infect_each_other() {
        let m = MetapopModel::new(
            SeirParams::default().with_r0(2.5),
            Mixing::isolated(2),
            vec![100_000.0, 50_000.0],
        );
        let out = m.run_deterministic(200, &[10.0, 0.0], &no_distancing(), 4);
        let cum = out.final_cumulative_cases();
        assert!(cum[1] < 1e-9, "isolated county infected: {}", cum[1]);
    }

    #[test]
    fn distancing_scenario_reduces_attack() {
        let m = two_county_model();
        let worst = m.run_deterministic(200, &[10.0, 5.0], &no_distancing(), 4);
        let sd = Scenario {
            name: "sd".into(),
            distancing_start: Some(20),
            distancing_end: 200,
            beta_multiplier: 0.4,
        };
        let mitigated = m.run_deterministic(200, &[10.0, 5.0], &sd, 4);
        let w: f64 = worst.final_cumulative_cases().iter().sum();
        let s: f64 = mitigated.final_cumulative_cases().iter().sum();
        assert!(s < w * 0.6, "mitigated {s} vs worst {w}");
    }

    #[test]
    fn deaths_monotone_and_bounded() {
        let m = two_county_model();
        let out = m.run_deterministic(250, &[10.0, 0.0], &no_distancing(), 4);
        let deaths = out.deaths();
        assert!(deaths.windows(2).all(|w| w[1] >= w[0] - 1e-9), "deaths must not decrease");
        let cases: f64 = out.final_cumulative_cases().iter().sum();
        assert!(*deaths.last().unwrap() < cases, "fewer deaths than cases");
        assert!(*deaths.last().unwrap() > 0.0);
    }

    #[test]
    fn hospital_occupancy_lags_cases() {
        let m = two_county_model();
        let out = m.run_deterministic(250, &[10.0, 0.0], &no_distancing(), 4);
        let cases = out.state_new_cases();
        let hosp = out.hospital_occupancy();
        let case_peak =
            cases.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let hosp_peak =
            hosp.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert!(hosp_peak >= case_peak, "hospital peak {hosp_peak} lags case peak {case_peak}");
    }

    #[test]
    fn seeds_capped_at_population() {
        let m = MetapopModel::new(SeirParams::default(), Mixing::isolated(1), vec![100.0]);
        let out = m.run_deterministic(10, &[1e9], &no_distancing(), 2);
        let total: f64 = out.series[0].iter().flat_map(|c| c.iter()).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }
}

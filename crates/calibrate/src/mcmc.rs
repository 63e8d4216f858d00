//! Metropolis MCMC utilities shared by both calibration paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, StandardNormal};

/// Keep every `THIN`-th post-burn-in sample.
const THIN: usize = 2;
/// Initial per-dimension proposal standard deviation (in the unit
/// cube). The step adapts toward ~30% acceptance during burn-in.
const INITIAL_STEP: f64 = 0.08;

/// Random-walk Metropolis configuration.
#[derive(Clone, Debug)]
pub struct MetropolisConfig {
    /// Total iterations.
    pub iterations: usize,
    /// Burn-in iterations discarded from the chain.
    pub burn_in: usize,
    pub seed: u64,
}

impl Default for MetropolisConfig {
    fn default() -> Self {
        MetropolisConfig { iterations: 4000, burn_in: 1000, seed: 1 }
    }
}

/// A finished chain.
#[derive(Clone, Debug)]
pub struct Chain {
    /// Kept samples (post burn-in, thinned).
    pub samples: Vec<Vec<f64>>,
    /// Log-posterior value of each kept sample.
    pub log_posts: Vec<f64>,
    /// Overall acceptance rate.
    pub acceptance: f64,
    /// Final adapted step size.
    pub final_step: f64,
}

impl Chain {
    /// Posterior mean per dimension.
    pub fn mean(&self) -> Vec<f64> {
        let d = self.samples.first().map_or(0, |s| s.len());
        let mut m = vec![0.0; d];
        for s in &self.samples {
            for (mi, &x) in m.iter_mut().zip(s) {
                *mi += x;
            }
        }
        for mi in &mut m {
            *mi /= self.samples.len().max(1) as f64;
        }
        m
    }

    /// Posterior standard deviation per dimension.
    pub fn std_dev(&self) -> Vec<f64> {
        let mean = self.mean();
        let d = mean.len();
        let n = self.samples.len().max(2);
        let mut v = vec![0.0; d];
        for s in &self.samples {
            for k in 0..d {
                let e = s[k] - mean[k];
                v[k] += e * e;
            }
        }
        v.iter().map(|x| (x / (n - 1) as f64).sqrt()).collect()
    }

    /// Pearson correlation between two dimensions of the chain.
    pub fn correlation(&self, a: usize, b: usize) -> f64 {
        let mean = self.mean();
        let sd = self.std_dev();
        if sd[a] == 0.0 || sd[b] == 0.0 {
            return 0.0;
        }
        let cov: f64 =
            self.samples.iter().map(|s| (s[a] - mean[a]) * (s[b] - mean[b])).sum::<f64>()
                / (self.samples.len().max(2) - 1) as f64;
        cov / (sd[a] * sd[b])
    }

    /// The maximum-a-posteriori sample of the kept chain.
    pub fn map_sample(&self) -> Option<&Vec<f64>> {
        self.log_posts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN log posterior"))
            .map(|(i, _)| &self.samples[i])
    }

    /// Draw `n` samples (with replacement) from the kept chain — the
    /// "posterior configurations" handed to the prediction workflow.
    pub fn resample(&self, n: usize, seed: u64) -> Vec<Vec<f64>> {
        assert!(!self.samples.is_empty(), "resample from empty chain");
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.samples[rng.random_range(0..self.samples.len())].clone()).collect()
    }
}

/// Random-walk Metropolis on `[0,1]^d` with reflecting boundaries.
///
/// `log_post` evaluates the (unnormalized) log posterior at a unit-cube
/// point; return `f64::NEG_INFINITY` for invalid states.
pub fn metropolis<F>(d: usize, log_post: F, config: &MetropolisConfig) -> Chain
where
    F: Fn(&[f64]) -> f64,
{
    assert!(d > 0, "need at least one dimension");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut current: Vec<f64> = (0..d).map(|_| rng.random_range(0.25..0.75)).collect();
    let mut current_lp = log_post(&current);
    // If the start is invalid, scan for a valid one.
    let mut tries = 0;
    while !current_lp.is_finite() && tries < 200 {
        current = (0..d).map(|_| rng.random_range(0.0..1.0)).collect();
        current_lp = log_post(&current);
        tries += 1;
    }
    assert!(current_lp.is_finite(), "could not find a valid starting point");

    let mut step = INITIAL_STEP;
    let mut accepted = 0usize;
    let mut window_accepted = 0usize;
    let mut samples = Vec::new();
    let mut log_posts = Vec::new();

    for it in 0..config.iterations {
        let mut proposal = current.clone();
        for p in proposal.iter_mut() {
            let z: f64 = StandardNormal.sample(&mut rng);
            let mut x = *p + step * z;
            // Reflect into [0, 1].
            while !(0.0..=1.0).contains(&x) {
                if x < 0.0 {
                    x = -x;
                }
                if x > 1.0 {
                    x = 2.0 - x;
                }
            }
            *p = x;
        }
        let lp = log_post(&proposal);
        let accept = lp.is_finite()
            && (lp >= current_lp || rng.random_range(0.0..1.0f64).ln() < lp - current_lp);
        if accept {
            current = proposal;
            current_lp = lp;
            accepted += 1;
            window_accepted += 1;
        }
        // Step adaptation during burn-in (Robbins–Monro-flavored).
        if it < config.burn_in && (it + 1) % 50 == 0 {
            let rate = window_accepted as f64 / 50.0;
            if rate < 0.2 {
                step *= 0.8;
            } else if rate > 0.45 {
                step *= 1.25;
            }
            step = step.clamp(1e-4, 0.5);
            window_accepted = 0;
        }
        if it >= config.burn_in && (it - config.burn_in).is_multiple_of(THIN) {
            samples.push(current.clone());
            log_posts.push(current_lp);
        }
    }

    Chain {
        samples,
        log_posts,
        acceptance: accepted as f64 / config.iterations as f64,
        final_step: step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gaussian target centered at (0.6, 0.4) with sd 0.05.
    fn gaussian_target(x: &[f64]) -> f64 {
        let c = [0.6, 0.4];
        -x.iter().zip(&c).map(|(xi, ci)| (xi - ci) * (xi - ci)).sum::<f64>()
            / (2.0 * 0.05f64.powi(2))
    }

    #[test]
    fn recovers_gaussian_mean() {
        let chain = metropolis(
            2,
            gaussian_target,
            &MetropolisConfig { iterations: 8000, burn_in: 2000, ..Default::default() },
        );
        let mean = chain.mean();
        assert!((mean[0] - 0.6).abs() < 0.02, "mean {mean:?}");
        assert!((mean[1] - 0.4).abs() < 0.02, "mean {mean:?}");
        let sd = chain.std_dev();
        assert!((sd[0] - 0.05).abs() < 0.02, "sd {sd:?}");
    }

    #[test]
    fn acceptance_reasonable_after_adaptation() {
        let chain = metropolis(2, gaussian_target, &MetropolisConfig::default());
        assert!((0.1..0.7).contains(&chain.acceptance), "acceptance {}", chain.acceptance);
    }

    #[test]
    fn correlated_target_detected() {
        // Strong negative correlation along x + y = 1.
        let target = |x: &[f64]| {
            let s = x[0] + x[1] - 1.0;
            let d = x[0] - x[1];
            -s * s / (2.0 * 0.02f64.powi(2)) - d * d / (2.0 * 0.3f64.powi(2))
        };
        let chain =
            metropolis(2, target, &MetropolisConfig { iterations: 12_000, burn_in: 3000, seed: 4 });
        let corr = chain.correlation(0, 1);
        assert!(corr < -0.6, "correlation {corr}");
    }

    #[test]
    fn map_sample_has_highest_density_in_chain() {
        let chain = metropolis(2, gaussian_target, &MetropolisConfig::default());
        let map = chain.map_sample().unwrap();
        let map_lp = gaussian_target(map);
        for s in &chain.samples {
            assert!(map_lp >= gaussian_target(s) - 1e-9);
        }
        // And it should sit close to the true mode.
        assert!((map[0] - 0.6).abs() < 0.05 && (map[1] - 0.4).abs() < 0.05);
    }

    #[test]
    fn resample_draws_from_chain() {
        let chain = metropolis(1, |x| gaussian_target(&[x[0], 0.4]), &MetropolisConfig::default());
        let draws = chain.resample(50, 3);
        assert_eq!(draws.len(), 50);
        for d in &draws {
            assert!(chain.samples.contains(d));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = MetropolisConfig { seed: 8, ..Default::default() };
        let a = metropolis(2, gaussian_target, &cfg);
        let b = metropolis(2, gaussian_target, &cfg);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn respects_bounds() {
        let chain = metropolis(2, gaussian_target, &MetropolisConfig::default());
        for s in &chain.samples {
            assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn rejects_infeasible_region() {
        // Posterior only finite in the left half.
        let target = |x: &[f64]| if x[0] < 0.5 { 0.0 } else { f64::NEG_INFINITY };
        let chain = metropolis(1, target, &MetropolisConfig::default());
        assert!(chain.samples.iter().all(|s| s[0] < 0.5));
    }
}

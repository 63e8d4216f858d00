//! Direct (simulation-in-the-loop) calibration for the metapopulation
//! model (Appendix E, Eq. 6).
//!
//! "Unlike Agent-Based Models, the metapopulation model is cheap to run,
//! hence, calibration is carried out by directly simulating from the
//! model in the MCMC loop." The likelihood treats each county's observed
//! series as a noisy realization of the model with additive Gaussian
//! noise whose standard deviation is 20% of the daily case counts;
//! counties are independent, so the joint likelihood is the product of
//! per-county Gaussians. Priors on θ are uniform over their ranges;
//! updates are Metropolis.

use crate::lhs::ParamSpace;
use crate::mcmc::{metropolis, Chain, MetropolisConfig};

/// Posterior from a direct calibration.
#[derive(Clone, Debug)]
pub struct DirectPosterior {
    /// θ chain in real coordinates.
    pub theta: Chain,
    /// Number of likelihood evaluations (simulator calls).
    pub n_sim_calls: usize,
}

/// Eq.-(6) log-likelihood of one county series: Gaussian with
/// sd = `noise_frac` × observed (floored at 1 to avoid zero variance on
/// zero-count days).
pub fn county_log_lik(observed: &[f64], simulated: &[f64], noise_frac: f64) -> f64 {
    let n = observed.len().min(simulated.len());
    let mut ll = 0.0;
    for i in 0..n {
        let sd = (noise_frac * observed[i]).max(1.0);
        let z = (observed[i] - simulated[i]) / sd;
        ll += -0.5 * z * z - sd.ln();
    }
    ll
}

/// Calibrate a simulator against per-county observations.
///
/// `simulate(θ)` must return one series per county, aligned with
/// `observed`. Uses the 20%-of-count noise model unless overridden.
pub fn calibrate_direct<F>(
    space: &ParamSpace,
    simulate: F,
    observed: &[Vec<f64>],
    noise_frac: f64,
    config: &MetropolisConfig,
) -> DirectPosterior
where
    F: Fn(&[f64]) -> Vec<Vec<f64>>,
{
    assert!(!observed.is_empty(), "need at least one observed county");
    let calls = std::cell::Cell::new(0usize);
    let chain = metropolis(
        space.dim(),
        |unit| {
            calls.set(calls.get() + 1);
            let theta = space.to_real(unit);
            let sim = simulate(&theta);
            assert_eq!(sim.len(), observed.len(), "simulator must return one series per county");
            observed.iter().zip(&sim).map(|(o, s)| county_log_lik(o, s, noise_frac)).sum()
        },
        config,
    );
    let real_samples: Vec<Vec<f64>> = chain.samples.iter().map(|u| space.to_real(u)).collect();
    DirectPosterior {
        theta: Chain {
            samples: real_samples,
            log_posts: chain.log_posts,
            acceptance: chain.acceptance,
            final_step: chain.final_step,
        },
        n_sim_calls: calls.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-county toy simulator: exponential-growth curves whose rate is
    /// θ[0] and whose county-2 scale is θ[1].
    fn toy_sim(theta: &[f64]) -> Vec<Vec<f64>> {
        let rate = theta[0];
        let scale2 = theta[1];
        let series = |s: f64| (0..40).map(|t| s * (rate * t as f64).exp()).collect::<Vec<f64>>();
        vec![series(1.0), series(scale2)]
    }

    #[test]
    fn county_log_lik_prefers_match() {
        let obs = vec![10.0, 20.0, 40.0];
        let exact = county_log_lik(&obs, &obs, 0.2);
        let off = county_log_lik(&obs, &[12.0, 25.0, 55.0], 0.2);
        assert!(exact > off);
    }

    #[test]
    fn zero_days_do_not_blow_up() {
        let ll = county_log_lik(&[0.0, 0.0], &[0.5, 1.0], 0.2);
        assert!(ll.is_finite());
    }

    #[test]
    fn recovers_growth_rate() {
        let space = ParamSpace::new(&[("rate", 0.02, 0.2), ("scale2", 0.2, 3.0)]);
        let truth = [0.09, 1.4];
        let observed = toy_sim(&truth);
        let post = calibrate_direct(
            &space,
            toy_sim,
            &observed,
            0.2,
            &MetropolisConfig { iterations: 4000, burn_in: 1000, seed: 31 },
        );
        let mean = post.theta.mean();
        assert!((mean[0] - truth[0]).abs() < 0.01, "rate {} vs {}", mean[0], truth[0]);
        assert!((mean[1] - truth[1]).abs() < 0.3, "scale {} vs {}", mean[1], truth[1]);
        assert!(post.n_sim_calls >= 4000, "one simulator call per iteration");
    }

    #[test]
    fn posterior_concentrates_vs_prior() {
        let space = ParamSpace::new(&[("rate", 0.02, 0.2), ("scale2", 0.2, 3.0)]);
        let observed = toy_sim(&[0.09, 1.4]);
        let post = calibrate_direct(
            &space,
            toy_sim,
            &observed,
            0.2,
            &MetropolisConfig { iterations: 3000, burn_in: 800, seed: 13 },
        );
        let sd = post.theta.std_dev();
        // Uniform prior sd on [0.02, 0.2] is 0.052; the posterior should
        // be dramatically tighter.
        assert!(sd[0] < 0.01, "posterior rate sd {}", sd[0]);
    }

    #[test]
    #[should_panic(expected = "one series per county")]
    fn rejects_wrong_county_count() {
        let space = ParamSpace::new(&[("rate", 0.02, 0.2)]);
        let observed = vec![vec![1.0; 10]; 3];
        calibrate_direct(
            &space,
            |_| vec![vec![1.0; 10]; 2],
            &observed,
            0.2,
            &MetropolisConfig { iterations: 10, burn_in: 0, ..Default::default() },
        );
    }
}

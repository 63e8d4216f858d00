//! GPMSA-style Bayesian calibration of the agent-based model (Eq. 2):
//!
//! ```text
//! y = η(θ) + δ + ε
//! ```
//!
//! `η` is the emulated simulator at the best θ, `δ` a systematic
//! discrepancy expanded in 1-d normal kernels (sd 15 days, spaced 10
//! days apart, Eq. 5) with precision λ_δ, and `ε` i.i.d. observation
//! error with precision λ_ε. θ gets a uniform prior on its ranges;
//! precisions get gamma priors.
//!
//! Sampling is Metropolis-within-Gibbs: θ moves by random-walk
//! Metropolis with the discrepancy weights *marginalized analytically*
//! (δ enters linearly with a Gaussian prior, so the marginal likelihood
//! is Gaussian with covariance Σ(θ) + λ_δ⁻¹ D Dᵀ), and λ_ε, λ_δ are
//! drawn from their conditional gammas between θ sweeps.
//!
//! That covariance is diagonal plus rank p_δ (D is T × p_δ with
//! p_δ = ⌈T/10⌉ at the paper's spacing: 7 kernels for 70 days), the
//! low-rank structure of GPMSA's own formulation (Higdon et al., 2008).
//! Each Metropolis step therefore evaluates the likelihood through the
//! Woodbury identity and the matrix determinant lemma in O(T·p_δ²),
//! factoring only a p_δ × p_δ matrix; no T × T matrix is ever built
//! (see `log_lik`).

use crate::emulator::Emulator;
use crate::mcmc::{metropolis, Chain, MetropolisConfig};
use epiflow_linalg::{cholesky_jitter, ensemble_band, EnsembleBand, Mat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Gamma};

/// Configuration of the calibration run.
#[derive(Clone, Debug)]
pub struct GpmsaConfig {
    /// MCMC settings for the θ chain.
    pub mcmc: MetropolisConfig,
    /// Gibbs sweeps for the precision parameters.
    pub gibbs_sweeps: usize,
}

impl Default for GpmsaConfig {
    fn default() -> Self {
        GpmsaConfig { mcmc: MetropolisConfig::default(), gibbs_sweeps: 4 }
    }
}

/// The calibration posterior.
#[derive(Clone, Debug)]
pub struct Posterior {
    /// θ samples in real coordinates.
    pub theta: Chain,
    /// Posterior draw of the observation-error precision.
    pub lambda_eps: f64,
    /// Posterior draw of the discrepancy precision.
    pub lambda_delta: f64,
}

/// A calibration problem: an emulator plus an observed series.
pub struct GpmsaCalibration<'a> {
    pub emulator: &'a Emulator,
    pub observed: &'a [f64],
    pub config: GpmsaConfig,
    /// Discrepancy basis D (T × p_δ).
    basis: Mat,
}

/// Discrepancy kernel standard deviation in days (paper: 15).
const KERNEL_SD: f64 = 15.0;
/// Kernel spacing in days (paper: 10).
const KERNEL_SPACING: f64 = 10.0;

/// Build the discrepancy basis: normal kernels over the time axis.
fn discrepancy_basis(t_len: usize) -> Mat {
    let p_delta = ((t_len as f64 / KERNEL_SPACING).ceil() as usize).max(1);
    let mut d = Mat::zeros(t_len, p_delta);
    for k in 0..p_delta {
        let center = k as f64 * KERNEL_SPACING;
        for t in 0..t_len {
            let z = (t as f64 - center) / KERNEL_SD;
            d[(t, k)] = (-0.5 * z * z).exp();
        }
    }
    d
}

impl<'a> GpmsaCalibration<'a> {
    /// Set up a calibration of `emulator` against `observed` (same
    /// length as the emulator's output).
    pub fn new(emulator: &'a Emulator, observed: &'a [f64], config: GpmsaConfig) -> Self {
        assert_eq!(
            observed.len(),
            emulator.t_len,
            "observed series must match emulator output length"
        );
        let basis = discrepancy_basis(emulator.t_len);
        GpmsaCalibration { emulator, observed, config, basis }
    }

    /// Number of discrepancy basis functions p_δ.
    pub fn p_delta(&self) -> usize {
        self.basis.ncols()
    }

    /// Marginal log-likelihood of θ (unit cube) given the precisions:
    /// `r = y − η(θ) ~ N(0, Σ)` with `Σ = A + c·D Dᵀ`,
    /// `A = diag(em_var + 1/λ_ε)` and `c = 1/λ_δ`.
    ///
    /// Σ is diagonal plus rank p_δ, so it is never formed. With
    /// `M = I + c·DᵀA⁻¹D` (p_δ × p_δ, SPD) and `u = DᵀA⁻¹r`, the matrix
    /// determinant lemma and the Woodbury identity give
    ///
    /// ```text
    /// log det Σ = Σᵢ log aᵢ + log det M
    /// rᵀΣ⁻¹r    = Σᵢ rᵢ²/aᵢ − c·uᵀM⁻¹u
    /// ```
    ///
    /// One pass over the T days accumulates both sums, `u` and `M`, in
    /// O(T·p_δ²); only the p_δ × p_δ matrix M is factored. A non-finite
    /// or non-positive `aᵢ`, or a factorization failure, gives
    /// `f64::NEG_INFINITY`, which the Metropolis step rejects.
    fn log_lik(&self, unit_theta: &[f64], lambda_eps: f64, lambda_delta: f64) -> f64 {
        let theta = self.emulator.space.to_real(unit_theta);
        let (mean, var) = self.emulator.predict(&theta);
        let p = self.basis.ncols();
        let c = 1.0 / lambda_delta;

        let (mut log_det_a, mut quad_a) = (0.0, 0.0);
        let mut u = vec![0.0; p];
        // Lower triangle of DᵀA⁻¹D; `cholesky` reads nothing else.
        let mut m = Mat::zeros(p, p);
        for (i, ((y, mu), v)) in self.observed.iter().zip(&mean).zip(&var).enumerate() {
            let a = v + 1.0 / lambda_eps;
            if !(a > 0.0 && a.is_finite()) {
                return f64::NEG_INFINITY;
            }
            let r = y - mu;
            log_det_a += a.ln();
            quad_a += r * r / a;
            let row = self.basis.row(i);
            for j in 0..p {
                let dj = row[j] / a;
                u[j] += dj * r;
                for k in 0..=j {
                    m[(j, k)] += dj * row[k];
                }
            }
        }
        for j in 0..p {
            for k in 0..=j {
                m[(j, k)] *= c;
            }
            m[(j, j)] += 1.0;
        }
        let Ok((chol, _)) = cholesky_jitter(&m, 1e-10, 8) else {
            return f64::NEG_INFINITY;
        };
        let ll = -0.5 * (log_det_a + chol.log_det() + quad_a - c * chol.quad_form(&u));
        if ll.is_nan() {
            f64::NEG_INFINITY
        } else {
            ll
        }
    }

    /// Conditional gamma draw for λ_ε given θ: with prior Γ(a, b), the
    /// posterior ignoring emulator/discrepancy variance is
    /// Γ(a + T/2, b + RSS/2) — a standard conjugate approximation.
    fn draw_lambda_eps(&self, unit_theta: &[f64], rng: &mut StdRng) -> f64 {
        let theta = self.emulator.space.to_real(unit_theta);
        let (mean, _) = self.emulator.predict(&theta);
        let rss: f64 = self.observed.iter().zip(&mean).map(|(y, m)| (y - m) * (y - m)).sum();
        let a = 2.0 + self.observed.len() as f64 / 2.0;
        let b = 0.1 + rss / 2.0;
        Gamma::new(a, 1.0 / b).expect("valid gamma").sample(rng)
    }

    /// Run the calibration.
    pub fn run(&self) -> Posterior {
        let d = self.emulator.space.dim();
        let mut rng = StdRng::seed_from_u64(self.config.mcmc.seed ^ 0xDE17A);

        // Initialize precisions from their priors' means.
        let mut lambda_eps = 5.0f64;
        let mut lambda_delta = 10.0f64;
        let mut theta_chain = None;

        for sweep in 0..self.config.gibbs_sweeps.max(1) {
            // θ | precisions.
            let mut cfg = self.config.mcmc.clone();
            cfg.seed = self.config.mcmc.seed.wrapping_add(sweep as u64);
            if sweep + 1 < self.config.gibbs_sweeps.max(1) {
                // Intermediate sweeps can be short; the final sweep
                // produces the reported chain.
                cfg.iterations = (cfg.iterations / 4).max(200);
                cfg.burn_in = (cfg.burn_in / 4).max(50);
            }
            let chain = metropolis(d, |u| self.log_lik(u, lambda_eps, lambda_delta), &cfg);
            // Precisions | θ (at the current MAP).
            if let Some(map) = chain.map_sample() {
                lambda_eps = self.draw_lambda_eps(map, &mut rng).max(1e-3);
                // λ_δ | d-weights integrated out: keep a weakly-updated
                // draw around its prior (discrepancy mass is small when
                // the emulator fits; gamma(3, 0.3) prior).
                let draw: f64 = Gamma::new(3.0, 1.0 / 0.3).expect("valid gamma").sample(&mut rng);
                lambda_delta = draw.max(1e-2);
            }
            theta_chain = Some(chain);
        }

        let chain = theta_chain.expect("at least one sweep");
        // Convert unit-cube samples to real coordinates.
        let real_samples: Vec<Vec<f64>> =
            chain.samples.iter().map(|u| self.emulator.space.to_real(u)).collect();
        Posterior {
            theta: Chain {
                samples: real_samples,
                log_posts: chain.log_posts,
                acceptance: chain.acceptance,
                final_step: chain.final_step,
            },
            lambda_eps,
            lambda_delta,
        }
    }

    /// Posterior-predictive quantile band at each time point, from
    /// emulator predictions at posterior θ draws plus observation noise
    /// (the Fig. 16/17 plot data).
    pub fn predictive_band(
        &self,
        posterior: &Posterior,
        n_draws: usize,
        lo_q: f64,
        hi_q: f64,
        seed: u64,
    ) -> EnsembleBand {
        let draws = posterior.theta.resample(n_draws, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD5EED);
        let t = self.emulator.t_len;
        let mut trajectories: Vec<Vec<f64>> = Vec::with_capacity(n_draws);
        let obs_var = 1.0 / posterior.lambda_eps;
        for theta in &draws {
            let (mean, var) = self.emulator.predict(theta);
            let traj: Vec<f64> = (0..t)
                .map(|i| {
                    let z: f64 = rand_distr::StandardNormal.sample(&mut rng);
                    mean[i] + (var[i] + obs_var).sqrt() * z
                })
                .collect();
            trajectories.push(traj);
        }
        ensemble_band(&trajectories, lo_q, hi_q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lhs::ParamSpace;
    use rand::Rng;

    /// Dense oracle for [`GpmsaCalibration::log_lik`]: builds the T × T
    /// covariance Σ = diag(var + 1/λ_ε) + (1/λ_δ) D Dᵀ and factors it.
    fn log_lik_dense(
        cal: &GpmsaCalibration,
        unit_theta: &[f64],
        lambda_eps: f64,
        lambda_delta: f64,
    ) -> f64 {
        let theta = cal.emulator.space.to_real(unit_theta);
        let (mean, var) = cal.emulator.predict(&theta);
        let t = cal.emulator.t_len;
        let resid: Vec<f64> = cal.observed.iter().zip(&mean).map(|(y, m)| y - m).collect();

        let mut sigma = Mat::zeros(t, t);
        for i in 0..t {
            sigma[(i, i)] = var[i] + 1.0 / lambda_eps;
        }
        let p = cal.basis.ncols();
        for i in 0..t {
            for j in i..t {
                let mut s = 0.0;
                for k in 0..p {
                    s += cal.basis[(i, k)] * cal.basis[(j, k)];
                }
                let add = s / lambda_delta;
                sigma[(i, j)] += add;
                if i != j {
                    sigma[(j, i)] += add;
                }
            }
        }
        match cholesky_jitter(&sigma, 1e-10, 8) {
            Ok((chol, _)) => -0.5 * (chol.log_det() + chol.quad_form(&resid)),
            Err(_) => f64::NEG_INFINITY,
        }
    }

    fn toy_sim(theta: &[f64], t_len: usize) -> Vec<f64> {
        let rate = theta[0];
        let plateau = theta[1];
        (0..t_len).map(|t| plateau / (1.0 + (-rate * (t as f64 - 25.0)).exp())).collect()
    }

    fn setup(t_len: usize) -> (Emulator, Vec<f64>, Vec<f64>) {
        let space = ParamSpace::new(&[("rate", 0.05, 0.4), ("plateau", 4.0, 16.0)]);
        let designs = space.sample_lhs(50, 21);
        let outputs: Vec<Vec<f64>> = designs.iter().map(|d| toy_sim(d, t_len)).collect();
        let em = Emulator::fit(space, &designs, &outputs, 5, 3);
        let truth = vec![0.22, 9.5];
        let observed = toy_sim(&truth, t_len);
        (em, observed, truth)
    }

    #[test]
    fn basis_shape_matches_paper() {
        // 70 days / spacing 10 → 7 kernels, the paper's p_δ = 7.
        let d = discrepancy_basis(70);
        assert_eq!(d.ncols(), 7);
        assert_eq!(d.nrows(), 70);
        // Kernel 0 peaks at t = 0.
        assert!(d[(0, 0)] > d[(30, 0)]);
    }

    #[test]
    fn recovers_known_parameters() {
        let (em, observed, truth) = setup(50);
        let cal = GpmsaCalibration::new(
            &em,
            &observed,
            GpmsaConfig {
                mcmc: MetropolisConfig { iterations: 3000, burn_in: 800, seed: 17 },
                gibbs_sweeps: 2,
            },
        );
        let post = cal.run();
        let mean = post.theta.mean();
        assert!(
            (mean[0] - truth[0]).abs() < 0.06,
            "rate: posterior {} vs truth {}",
            mean[0],
            truth[0]
        );
        assert!(
            (mean[1] - truth[1]).abs() < 1.2,
            "plateau: posterior {} vs truth {}",
            mean[1],
            truth[1]
        );
    }

    #[test]
    fn posterior_tighter_than_prior() {
        let (em, observed, _) = setup(50);
        let cal = GpmsaCalibration::new(
            &em,
            &observed,
            GpmsaConfig {
                mcmc: MetropolisConfig { iterations: 2500, burn_in: 600, seed: 5 },
                gibbs_sweeps: 2,
            },
        );
        let post = cal.run();
        let sd = post.theta.std_dev();
        // Prior sd of uniform on [0.05, 0.4] is 0.101; posterior must
        // shrink substantially (the Fig.-15 tightening).
        assert!(sd[0] < 0.05, "rate posterior sd {}", sd[0]);
    }

    #[test]
    fn predictive_band_covers_truth() {
        let (em, observed, _) = setup(50);
        let cal = GpmsaCalibration::new(
            &em,
            &observed,
            GpmsaConfig {
                mcmc: MetropolisConfig { iterations: 2000, burn_in: 500, seed: 9 },
                gibbs_sweeps: 2,
            },
        );
        let post = cal.run();
        let band = cal.predictive_band(&post, 200, 0.025, 0.975, 11);
        let cov = band.coverage(&observed);
        assert!(cov > 0.8, "coverage {cov}");
        // Band is ordered.
        for i in 0..band.lo.len() {
            assert!(band.lo[i] <= band.median[i] + 1e-9);
            assert!(band.median[i] <= band.hi[i] + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "match emulator output length")]
    fn rejects_wrong_length_observation() {
        let (em, observed, _) = setup(50);
        GpmsaCalibration::new(&em, &observed[..30], GpmsaConfig::default());
    }

    #[test]
    fn precisions_positive() {
        let (em, observed, _) = setup(40);
        let cal = GpmsaCalibration::new(
            &em,
            &observed,
            GpmsaConfig {
                mcmc: MetropolisConfig { iterations: 800, burn_in: 200, seed: 2 },
                gibbs_sweeps: 2,
            },
        );
        let post = cal.run();
        assert!(post.lambda_eps > 0.0);
        assert!(post.lambda_delta > 0.0);
    }

    /// Log-uniform draw in [1e-2, 1e3].
    fn precision(rng: &mut StdRng) -> f64 {
        10f64.powf(rng.random_range(-2.0..3.0))
    }

    /// Compares the Woodbury form with the dense oracle at random θ and
    /// precisions; returns the largest relative difference.
    fn max_rel_err(cal: &GpmsaCalibration, draws: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut worst = 0.0f64;
        for _ in 0..draws {
            let u: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            let (le, ld) = (precision(&mut rng), precision(&mut rng));
            let fast = cal.log_lik(&u, le, ld);
            let dense = log_lik_dense(cal, &u, le, ld);
            assert!(fast.is_finite() && dense.is_finite(), "θ {u:?} λ_ε {le} λ_δ {ld}");
            worst = worst.max((fast - dense).abs() / dense.abs());
        }
        worst
    }

    #[test]
    fn woodbury_log_lik_matches_dense_oracle() {
        for t_len in [1, 7, 50, 70] {
            let (em, observed, _) = setup(t_len);
            let cal = GpmsaCalibration::new(&em, &observed, GpmsaConfig::default());
            assert_eq!(cal.p_delta(), t_len.div_ceil(10));
            let err = max_rel_err(&cal, 60, t_len as u64);
            assert!(err < 1e-9, "t = {t_len}: relative error {err:e}");
        }
    }

    #[test]
    fn woodbury_log_lik_matches_dense_at_near_zero_emulator_variance() {
        // A simulator that ignores θ: every GP sees a constant response
        // and the basis explains everything, so the predicted variance
        // is ≈ 0 and aᵢ ≈ 1/λ_ε.
        let t_len = 70;
        let space = ParamSpace::new(&[("rate", 0.05, 0.4), ("plateau", 4.0, 16.0)]);
        let designs = space.sample_lhs(20, 4);
        let outputs = vec![toy_sim(&[0.2, 8.0], t_len); designs.len()];
        let em = Emulator::fit(space, &designs, &outputs, 5, 3);
        assert!(em.truncation_var < 1e-20, "truncation {}", em.truncation_var);
        let (_, var) = em.predict(&[0.3, 10.0]);
        assert!(var.iter().all(|&v| (0.0..1e-12).contains(&v)), "variance {var:?}");
        let observed = toy_sim(&[0.22, 9.5], t_len);
        let cal = GpmsaCalibration::new(&em, &observed, GpmsaConfig::default());
        let err = max_rel_err(&cal, 60, 99);
        assert!(err < 1e-9, "relative error {err:e}");
    }

    #[test]
    fn invalid_covariance_gives_neg_infinity_not_nan() {
        let (em, observed, _) = setup(70);
        let cal = GpmsaCalibration::new(&em, &observed, GpmsaConfig::default());
        let u = [0.4, 0.6];
        // aᵢ = var + 1/λ_ε: infinite, negative, −∞ and NaN.
        for lambda_eps in [0.0, -1e-6, -0.0, f64::NAN] {
            let ll = cal.log_lik(&u, lambda_eps, 10.0);
            assert_eq!(ll, f64::NEG_INFINITY, "λ_ε {lambda_eps}: {ll}");
        }
        // c = 1/λ_δ infinite or NaN.
        for lambda_delta in [0.0, f64::NAN] {
            let ll = cal.log_lik(&u, 5.0, lambda_delta);
            assert_eq!(ll, f64::NEG_INFINITY, "λ_δ {lambda_delta}: {ll}");
        }
        assert!(cal.log_lik(&u, 5.0, 10.0).is_finite());
    }
}

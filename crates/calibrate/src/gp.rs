//! Scalar-output Gaussian-process regression with the GPMSA correlation
//! function.
//!
//! Each basis coefficient `w_k(θ)` of the emulator gets a zero-mean GP
//! prior with the paper's covariance (Eq. 4):
//!
//! ```text
//! Cov(θ, θ′) = λ_w⁻¹ · ∏_k ρ_k^{4 (θ_k − θ′_k)²}  +  λ_n⁻¹ · 1{θ = θ′}
//! ```
//!
//! where λ_w is the marginal precision, ρ_k ∈ (0, 1) the per-dimension
//! correlation, and λ_n the nugget precision "so that interpolation is
//! not necessarily enforced". Hyperparameters are fitted by MAP under
//! the GPMSA prior families (gamma on precisions, beta on ρ) using a
//! seeded random search + coordinate polish — derivative-free, robust,
//! and cheap at design sizes ≤ a few hundred.

use epiflow_linalg::{cholesky_jitter, Cholesky, Mat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters of one GP.
#[derive(Clone, Debug, PartialEq)]
pub struct GpHyper {
    /// Per-dimension correlation ρ_k ∈ (0, 1).
    pub rho: Vec<f64>,
    /// Marginal precision λ_w.
    pub lambda_w: f64,
    /// Nugget precision λ_n.
    pub lambda_n: f64,
}

/// A fitted GP.
#[derive(Clone, Debug)]
pub struct GpModel {
    /// Design points in the unit cube, n × d.
    x: Mat,
    /// Centered/normalized responses.
    y: Vec<f64>,
    pub hyper: GpHyper,
    chol: Cholesky,
    /// K⁻¹ y, precomputed for prediction.
    alpha: Vec<f64>,
    y_mean: f64,
    y_scale: f64,
}

/// GPMSA correlation: ∏_k ρ_k^{4 (a_k − b_k)²}.
fn correlation(a: &[f64], b: &[f64], rho: &[f64]) -> f64 {
    let mut c = 1.0;
    for ((x, y), r) in a.iter().zip(b).zip(rho) {
        let d = x - y;
        c *= r.powf(4.0 * d * d);
    }
    c
}

fn build_cov(x: &Mat, h: &GpHyper) -> Mat {
    let n = x.nrows();
    let mut k = Mat::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let c = correlation(x.row(i), x.row(j), &h.rho) / h.lambda_w;
            k[(i, j)] = c;
            k[(j, i)] = c;
        }
        k[(i, i)] += 1.0 / h.lambda_n;
    }
    k
}

/// Log posterior (up to constants): Gaussian marginal likelihood plus
/// the GPMSA priors — λ_w ~ Γ(5, 5), λ_n ~ Γ(3, 0.3), ρ_k ~ Beta(1, 0.1)
/// (favoring ρ near 1, i.e. smooth response surfaces).
fn log_posterior(x: &Mat, y: &[f64], h: &GpHyper) -> f64 {
    let k = build_cov(x, h);
    let Ok((chol, _)) = cholesky_jitter(&k, 1e-10, 8) else {
        return f64::NEG_INFINITY;
    };
    let loglik = -0.5 * (chol.log_det() + chol.quad_form(y));
    let lp_lw = 4.0 * h.lambda_w.ln() - 5.0 * h.lambda_w;
    let lp_ln = 2.0 * h.lambda_n.ln() - 0.3 * h.lambda_n;
    let lp_rho: f64 = h
        .rho
        .iter()
        .map(|r| {
            if *r <= 0.0 || *r >= 1.0 {
                f64::NEG_INFINITY
            } else {
                // Beta(1, 0.1): density ∝ (1-r)^{-0.9}.
                -0.9 * (1.0 - r).ln()
            }
        })
        .sum();
    loglik + lp_lw + lp_ln + lp_rho
}

impl GpModel {
    /// Fit on design points `x_unit` (each in the unit cube) and
    /// responses `y`. Responses are standardized internally.
    ///
    /// # Panics
    /// Panics on empty or mismatched input.
    pub fn fit(x_unit: &[Vec<f64>], y: &[f64], seed: u64) -> GpModel {
        assert!(!x_unit.is_empty(), "gp fit: empty design");
        assert_eq!(x_unit.len(), y.len(), "gp fit: x/y length mismatch");
        let d = x_unit[0].len();
        let x = Mat::from_rows(x_unit);

        // Standardize y (zero-mean GP assumption).
        let y_mean = epiflow_linalg::mean(y);
        let y_scale = epiflow_linalg::std_dev(y).max(1e-9);
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_scale).collect();

        // MAP search: random restarts then coordinate polish.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best = GpHyper { rho: vec![0.5; d], lambda_w: 1.0, lambda_n: 1000.0 };
        let mut best_lp = log_posterior(&x, &ys, &best);
        for _ in 0..60 {
            let cand = GpHyper {
                rho: (0..d).map(|_| rng.random_range(0.05..0.999)).collect(),
                lambda_w: rng.random_range(0.2..5.0),
                lambda_n: 10f64.powf(rng.random_range(1.0..5.0)),
            };
            let lp = log_posterior(&x, &ys, &cand);
            if lp > best_lp {
                best_lp = lp;
                best = cand;
            }
        }
        // Coordinate polish: shrink step multiplicatively.
        let mut step = 0.5;
        for _ in 0..20 {
            let mut improved = false;
            for k in 0..d {
                for dir in [-1.0, 1.0] {
                    let mut cand = best.clone();
                    cand.rho[k] = (cand.rho[k] + dir * step * 0.5).clamp(0.01, 0.999);
                    let lp = log_posterior(&x, &ys, &cand);
                    if lp > best_lp {
                        best_lp = lp;
                        best = cand;
                        improved = true;
                    }
                }
            }
            for (field, factor) in [
                (0usize, 1.0 + step),
                (0, 1.0 / (1.0 + step)),
                (1, 1.0 + step),
                (1, 1.0 / (1.0 + step)),
            ] {
                let mut cand = best.clone();
                if field == 0 {
                    cand.lambda_w = (cand.lambda_w * factor).clamp(1e-3, 1e4);
                } else {
                    cand.lambda_n = (cand.lambda_n * factor).clamp(1.0, 1e8);
                }
                let lp = log_posterior(&x, &ys, &cand);
                if lp > best_lp {
                    best_lp = lp;
                    best = cand;
                    improved = true;
                }
            }
            if !improved {
                step *= 0.5;
                if step < 1e-3 {
                    break;
                }
            }
        }

        let k = build_cov(&x, &best);
        let (chol, _) = cholesky_jitter(&k, 1e-10, 10).expect("covariance factorizes");
        let alpha = chol.solve(&ys);
        GpModel { x, y: ys, hyper: best, chol, alpha, y_mean, y_scale }
    }

    /// Number of design points.
    pub fn n_design(&self) -> usize {
        self.x.nrows()
    }

    /// Predictive mean and variance at a unit-cube point.
    pub fn predict(&self, x_star: &[f64]) -> (f64, f64) {
        assert_eq!(x_star.len(), self.x.ncols(), "predict: dimension mismatch");
        let n = self.x.nrows();
        let mut kstar = vec![0.0; n];
        for (i, ks) in kstar.iter_mut().enumerate() {
            *ks = correlation(self.x.row(i), x_star, &self.hyper.rho) / self.hyper.lambda_w;
        }
        let mean_std = epiflow_linalg::dot(&kstar, &self.alpha);
        // var = k(x*,x*) + nugget − k*ᵀ K⁻¹ k*, with k*ᵀ K⁻¹ k* = ‖L⁻¹k*‖²
        // (one triangular solve).
        let prior_var = 1.0 / self.hyper.lambda_w + 1.0 / self.hyper.lambda_n;
        let var_std = (prior_var - self.chol.quad_form(&kstar)).max(1e-12);
        (self.y_mean + self.y_scale * mean_std, self.y_scale * self.y_scale * var_std)
    }

    /// Standardized training residual RMS (in-sample fit quality;
    /// nonzero because of the nugget).
    pub fn training_rmse(&self) -> f64 {
        let n = self.x.nrows();
        let mut sq = 0.0;
        for i in 0..n {
            let (m, _) = self.predict(self.x.row(i));
            let truth = self.y_mean + self.y_scale * self.y[i];
            sq += (m - truth) * (m - truth);
        }
        (sq / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn correlation_properties() {
        let rho = vec![0.5, 0.8];
        assert_eq!(correlation(&[0.1, 0.2], &[0.1, 0.2], &rho), 1.0);
        let near = correlation(&[0.1, 0.2], &[0.15, 0.2], &rho);
        let far = correlation(&[0.1, 0.2], &[0.9, 0.2], &rho);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn interpolates_smooth_function() {
        let x = grid_1d(15);
        let y: Vec<f64> = x.iter().map(|p| (2.0 * std::f64::consts::PI * p[0]).sin()).collect();
        let gp = GpModel::fit(&x, &y, 1);
        // Predict off-grid.
        for &t in &[0.12, 0.37, 0.61, 0.88] {
            let (m, _) = gp.predict(&[t]);
            let truth = (2.0 * std::f64::consts::PI * t).sin();
            assert!((m - truth).abs() < 0.12, "at {t}: {m} vs {truth}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = grid_1d(8); // covers [0,1]
        let y: Vec<f64> = x.iter().map(|p| p[0] * 2.0).collect();
        let gp = GpModel::fit(&x, &y, 2);
        let (_, v_near) = gp.predict(&[0.5]);
        // A 2-d trick isn't available; extrapolate outside the cube.
        let (_, v_far) = gp.predict(&[3.0]);
        assert!(v_far > v_near, "far var {v_far} <= near var {v_near}");
    }

    #[test]
    fn predicts_training_points_closely() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|p| 3.0 * p[0] * p[0] - 1.0).collect();
        let gp = GpModel::fit(&x, &y, 3);
        assert!(gp.training_rmse() < 0.1, "rmse {}", gp.training_rmse());
    }

    #[test]
    fn handles_constant_response() {
        let x = grid_1d(6);
        let y = vec![5.0; 6];
        let gp = GpModel::fit(&x, &y, 4);
        let (m, _) = gp.predict(&[0.3]);
        assert!((m - 5.0).abs() < 1e-6);
    }

    #[test]
    fn two_dimensional_anisotropy() {
        // Response depends only on dim 0; after fitting, predictions
        // should vary much more along dim 0 than dim 1.
        let mut x = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                x.push(vec![i as f64 / 6.0, j as f64 / 6.0]);
            }
        }
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).exp() / 10.0).collect();
        let gp = GpModel::fit(&x, &y, 5);
        let (m00, _) = gp.predict(&[0.2, 0.5]);
        let (m10, _) = gp.predict(&[0.8, 0.5]);
        let (m01, _) = gp.predict(&[0.2, 0.9]);
        assert!((m10 - m00).abs() > 5.0 * (m01 - m00).abs());
    }

    #[test]
    fn deterministic_fit_per_seed() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|p| p[0].cos()).collect();
        let a = GpModel::fit(&x, &y, 9);
        let b = GpModel::fit(&x, &y, 9);
        assert_eq!(a.hyper, b.hyper);
    }

    #[test]
    fn variance_matches_full_solve() {
        let mut x = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                x.push(vec![i as f64 / 5.0, (j as f64 + 0.3 * i as f64) / 6.5]);
            }
        }
        let y: Vec<f64> = x.iter().map(|p| (2.0 * p[0]).sin() + p[1] * p[1]).collect();
        let gp = GpModel::fit(&x, &y, 6);
        let mut rng = StdRng::seed_from_u64(8);
        let random = (0..40).map(|_| vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)]);
        for p in random.chain(x.iter().cloned()) {
            let (_, var) = gp.predict(&p);
            let kstar: Vec<f64> = (0..gp.n_design())
                .map(|i| correlation(gp.x.row(i), &p, &gp.hyper.rho) / gp.hyper.lambda_w)
                .collect();
            let prior_var = 1.0 / gp.hyper.lambda_w + 1.0 / gp.hyper.lambda_n;
            let full = epiflow_linalg::dot(&kstar, &gp.chol.solve(&kstar));
            let expected = gp.y_scale * gp.y_scale * (prior_var - full).max(1e-12);
            assert!((var - expected).abs() <= 1e-12 * expected, "at {p:?}: {var} vs {expected}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_input() {
        GpModel::fit(&[vec![0.0], vec![1.0]], &[1.0], 0);
    }
}

//! Small dense linear algebra for the epiflow calibration stack.
//!
//! The Gaussian-process emulator and Bayesian calibration machinery
//! (see `epiflow-calibrate`) need covariance factorizations, triangular
//! solves, and eigen-bases for principal-component output representations.
//! No linear-algebra crate is in the approved offline dependency set, so
//! this crate implements exactly the operations required:
//!
//! * [`Mat`] — a dense row-major `f64` matrix with the usual arithmetic.
//! * [`cholesky`](mod@cholesky) — Cholesky factorization with optional jitter for
//!   near-singular covariance matrices.
//! * [`eigen`] — symmetric eigendecomposition via the cyclic Jacobi method.
//! * [`pca`](mod@pca) — principal component analysis built on the eigen module,
//!   used to construct the `pη = 5` eigenvector output basis of the
//!   paper's Eq. (3).
//! * [`quantile`] and [`band`] — type-7 empirical quantiles and the
//!   quantile band over an ensemble of time series ([`EnsembleBand`]),
//!   the statistic behind the calibration's predictive band (Fig. 16)
//!   and the prediction workflow's 95% band (Fig. 17).
//!
//! Everything is deterministic and allocation-conscious; the matrices in
//! the calibration loop are at most a few hundred rows, so cache-friendly
//! row-major storage with straightforward triple loops is both simpler and
//! faster than blocked algorithms at this scale.

pub mod band;
pub mod cholesky;
pub mod eigen;
pub mod mat;
pub mod pca;

pub use band::{ensemble_band, EnsembleBand};
pub use cholesky::{cholesky, cholesky_jitter, Cholesky};
pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use mat::Mat;
pub use pca::{pca, Pca};

/// Machine-epsilon-scale tolerance used across the crate for
/// "is this effectively zero" decisions.
pub const EPS: f64 = 1e-12;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Mean of a slice. Returns 0.0 for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Sample variance (denominator `n - 1`). Returns 0.0 for slices of
/// length < 2.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Linearly spaced grid of `n` points from `lo` to `hi` inclusive.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![lo],
        _ => {
            let step = (hi - lo) / (n - 1) as f64;
            (0..n).map(|i| lo + step * i as f64).collect()
        }
    }
}

/// Empirical quantile of a sample using linear interpolation between
/// order statistics (type-7, the numpy default). `q` must lie in `[0, 1]`.
///
/// # Panics
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        s[lo]
    } else {
        let w = pos - lo as f64;
        s[lo] * (1.0 - w) + s[hi] * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm_of_unit_axes() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < EPS);
    }

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < EPS);
        // Sample variance with n-1 denominator: 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-10);
    }

    #[test]
    fn empty_and_singleton_stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn linspace_endpoints_and_count() {
        let g = linspace(0.0, 1.0, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 0.0).abs() < EPS);
        assert!((g[4] - 1.0).abs() < EPS);
        assert!((g[2] - 0.5).abs() < EPS);
        assert!(linspace(1.0, 2.0, 0).is_empty());
        assert_eq!(linspace(1.0, 2.0, 1), vec![1.0]);
    }

    #[test]
    fn quantile_median_and_extremes() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert!((quantile(&xs, 0.5) - 3.0).abs() < EPS);
        assert!((quantile(&xs, 0.0) - 1.0).abs() < EPS);
        assert!((quantile(&xs, 1.0) - 5.0).abs() < EPS);
        // Interpolated quartile.
        assert!((quantile(&xs, 0.25) - 2.0).abs() < EPS);
    }
}

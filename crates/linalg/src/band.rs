//! Quantile bands over ensembles of time series: the uncertainty
//! quantification behind Figs. 16–17.
//!
//! "The ensemble of the model configurations and the simulation output
//! provides uncertainty quantification on the predictions." Both the
//! calibration's posterior-predictive band and the prediction workflow's
//! replicate band are an [`EnsembleBand`], with [`quantile`] at each time
//! point.

use crate::quantile;

/// Quantile band over an ensemble of time series (Fig. 17's blue
/// median + yellow 95% band).
#[derive(Clone, Debug, PartialEq)]
pub struct EnsembleBand {
    pub median: Vec<f64>,
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
    pub mean: Vec<f64>,
}

/// Compute a quantile band over replicate series. Series may differ in
/// length; the band spans the longest, with shorter series simply
/// absent from later time points.
///
/// # Panics
/// Panics if the ensemble is empty or quantiles are out of order.
pub fn ensemble_band(series: &[Vec<f64>], lo_q: f64, hi_q: f64) -> EnsembleBand {
    assert!(!series.is_empty(), "empty ensemble");
    assert!((0.0..=1.0).contains(&lo_q) && (0.0..=1.0).contains(&hi_q) && lo_q <= hi_q);
    let t_max = series.iter().map(|s| s.len()).max().expect("non-empty");
    let mut median = Vec::with_capacity(t_max);
    let mut lo = Vec::with_capacity(t_max);
    let mut hi = Vec::with_capacity(t_max);
    let mut mean = Vec::with_capacity(t_max);
    let mut col = Vec::with_capacity(series.len());
    for t in 0..t_max {
        col.clear();
        for s in series {
            if let Some(&v) = s.get(t) {
                col.push(v);
            }
        }
        median.push(quantile(&col, 0.5));
        lo.push(quantile(&col, lo_q));
        hi.push(quantile(&col, hi_q));
        mean.push(col.iter().sum::<f64>() / col.len() as f64);
    }
    EnsembleBand { median, lo, hi, mean }
}

impl EnsembleBand {
    /// Fraction of `observed` inside [lo, hi].
    pub fn coverage(&self, observed: &[f64]) -> f64 {
        let n = observed.len().min(self.lo.len());
        if n == 0 {
            return 0.0;
        }
        (0..n).filter(|&i| observed[i] >= self.lo[i] && observed[i] <= self.hi[i]).count() as f64
            / n as f64
    }

    /// Band width at each time point.
    pub fn width(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ensemble_collapses() {
        let series = vec![vec![3.0; 5]; 10];
        let b = ensemble_band(&series, 0.025, 0.975);
        assert!(b.median.iter().all(|&m| (m - 3.0).abs() < 1e-12));
        assert!(b.width().iter().all(|&w| w < 1e-12));
        assert_eq!(b.mean, vec![3.0; 5]);
    }

    #[test]
    fn band_ordering_holds() {
        let series: Vec<Vec<f64>> =
            (0..30).map(|i| (0..8).map(|t| (i * t) as f64 * 0.1).collect()).collect();
        let b = ensemble_band(&series, 0.1, 0.9);
        for t in 0..8 {
            assert!(b.lo[t] <= b.median[t] && b.median[t] <= b.hi[t]);
        }
    }

    #[test]
    fn wider_quantiles_wider_band() {
        let series: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let narrow = ensemble_band(&series, 0.25, 0.75);
        let wide = ensemble_band(&series, 0.025, 0.975);
        assert!(wide.width()[0] > narrow.width()[0]);
    }

    #[test]
    fn coverage_metric() {
        let series: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64; 4]).collect();
        let b = ensemble_band(&series, 0.05, 0.95);
        // A series inside the band everywhere.
        assert_eq!(b.coverage(&[50.0, 50.0, 50.0, 50.0]), 1.0);
        // Entirely outside.
        assert_eq!(b.coverage(&[1000.0; 4]), 0.0);
        // Half in.
        assert_eq!(b.coverage(&[50.0, 1000.0, 50.0, 1000.0]), 0.5);
    }

    #[test]
    fn ragged_series_tolerated() {
        let series = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0]];
        let b = ensemble_band(&series, 0.0, 1.0);
        assert_eq!(b.median.len(), 3);
        assert_eq!(b.median[2], 3.0);
    }

    #[test]
    #[should_panic(expected = "empty ensemble")]
    fn rejects_empty() {
        ensemble_band(&[], 0.1, 0.9);
    }
}

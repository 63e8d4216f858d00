//! Parameter spaces and Latin hypercube sampling (McKay et al. \[35\]).
//!
//! The paper's case study 3: "We created a design of 100 configurations
//! (prior) with the Latin hypercube sampling method."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A box-constrained parameter space with named dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamSpace {
    names: Vec<String>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl ParamSpace {
    /// Build from `(name, lo, hi)` triples.
    ///
    /// # Panics
    /// Panics on empty input or inverted bounds.
    pub fn new(dims: &[(&str, f64, f64)]) -> Self {
        assert!(!dims.is_empty(), "parameter space needs at least one dimension");
        for (name, lo, hi) in dims {
            assert!(lo < hi, "dimension {name}: lo {lo} must be < hi {hi}");
        }
        ParamSpace {
            names: dims.iter().map(|d| d.0.to_string()).collect(),
            lo: dims.iter().map(|d| d.1).collect(),
            hi: dims.iter().map(|d| d.2).collect(),
        }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.names.len()
    }

    /// Dimension names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a named dimension.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Map a unit-cube point into the real box.
    pub fn to_real(&self, unit: &[f64]) -> Vec<f64> {
        assert_eq!(unit.len(), self.dim(), "to_real: dimension mismatch");
        unit.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(u, (lo, hi))| lo + u.clamp(0.0, 1.0) * (hi - lo))
            .collect()
    }

    /// Map a real point into the unit cube (clamped).
    pub fn to_unit(&self, real: &[f64]) -> Vec<f64> {
        assert_eq!(real.len(), self.dim(), "to_unit: dimension mismatch");
        real.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(x, (lo, hi))| ((x - lo) / (hi - lo)).clamp(0.0, 1.0))
            .collect()
    }

    /// True when the real point lies inside the box.
    pub fn contains(&self, real: &[f64]) -> bool {
        real.len() == self.dim()
            && real.iter().zip(self.lo.iter().zip(&self.hi)).all(|(x, (lo, hi))| x >= lo && x <= hi)
    }

    /// Latin hypercube sample of `n` points, returned in real
    /// coordinates. Each dimension's range is divided into `n` strata;
    /// each stratum is hit exactly once, with a uniform jitter inside.
    pub fn sample_lhs(&self, n: usize, seed: u64) -> Vec<Vec<f64>> {
        assert!(n > 0, "need at least one sample");
        let d = self.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        // Per-dimension stratified permutations.
        let strata: Vec<Vec<usize>> = (0..d)
            .map(|_| {
                let mut idx: Vec<usize> = (0..n).collect();
                // Fisher–Yates.
                for i in (1..n).rev() {
                    let j = rng.random_range(0..=i);
                    idx.swap(i, j);
                }
                idx
            })
            .collect();
        (0..n)
            .map(|i| {
                let unit: Vec<f64> = (0..d)
                    .map(|k| {
                        let stratum = strata[k][i];
                        (stratum as f64 + rng.random_range(0.0..1.0)) / n as f64
                    })
                    .collect();
                self.to_real(&unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space2() -> ParamSpace {
        ParamSpace::new(&[("tau", 0.1, 0.5), ("symp", 0.3, 0.9)])
    }

    #[test]
    fn round_trip_unit_real() {
        let s = space2();
        let real = vec![0.3, 0.6];
        let unit = s.to_unit(&real);
        let back = s.to_real(&unit);
        for (a, b) in real.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((unit[0] - 0.5).abs() < 1e-12);
        assert!((unit[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lhs_is_stratified_in_every_dimension() {
        let s = space2();
        let n = 50;
        let pts = s.sample_lhs(n, 7);
        assert_eq!(pts.len(), n);
        for k in 0..s.dim() {
            // Each of the n strata must contain exactly one point.
            let mut hits = vec![0usize; n];
            for p in &pts {
                let u = s.to_unit(p)[k];
                let stratum = ((u * n as f64).floor() as usize).min(n - 1);
                hits[stratum] += 1;
            }
            assert!(hits.iter().all(|&h| h == 1), "dim {k}: {hits:?}");
        }
    }

    #[test]
    fn lhs_within_bounds() {
        let s = space2();
        for p in s.sample_lhs(100, 3) {
            assert!(s.contains(&p), "{p:?} out of bounds");
        }
    }

    #[test]
    fn lhs_deterministic_per_seed() {
        let s = space2();
        assert_eq!(s.sample_lhs(20, 5), s.sample_lhs(20, 5));
        assert_ne!(s.sample_lhs(20, 5), s.sample_lhs(20, 6));
    }

    #[test]
    fn lhs_beats_uniform_on_1d_coverage() {
        // Max gap between sorted projections: LHS ≤ 2/n, uniform usually
        // worse.
        let s = ParamSpace::new(&[("x", 0.0, 1.0)]);
        let n = 40;
        let gap = |pts: Vec<Vec<f64>>| {
            let mut xs: Vec<f64> = pts.into_iter().map(|p| p[0]).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max)
        };
        let lhs_gap = gap(s.sample_lhs(n, 11));
        assert!(lhs_gap <= 2.0 / n as f64 + 1e-9, "LHS gap {lhs_gap}");
    }

    #[test]
    fn index_lookup() {
        let s = space2();
        assert_eq!(s.index_of("symp"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn rejects_inverted_bounds() {
        ParamSpace::new(&[("bad", 1.0, 0.0)]);
    }

    #[test]
    fn contains_checks_bounds_and_dim() {
        let s = space2();
        assert!(s.contains(&[0.1, 0.3]));
        assert!(!s.contains(&[0.0, 0.3]));
        assert!(!s.contains(&[0.1]));
    }
}

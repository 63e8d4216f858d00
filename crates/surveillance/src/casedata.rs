//! Confirmed-case time series containers and transforms.
//!
//! Mirrors the shape of the feeds the paper ingests: county-level daily
//! confirmed case counts, rolled up to state level for calibration
//! (Figs. 13–14).

use crate::regions::RegionId;

/// A daily case-count time series. Day 0 is the epoch of the study
/// (2020-01-21 in the paper).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaseSeries {
    /// New confirmed cases per day.
    pub daily: Vec<f64>,
}

impl CaseSeries {
    /// Construct from daily incidence.
    pub fn from_daily(daily: Vec<f64>) -> Self {
        CaseSeries { daily }
    }

    /// Construct from a cumulative series (differences, clamped at 0 to
    /// absorb the negative revisions real feeds contain).
    pub fn from_cumulative(cum: &[f64]) -> Self {
        let mut daily = Vec::with_capacity(cum.len());
        let mut prev = 0.0;
        for &c in cum {
            daily.push((c - prev).max(0.0));
            prev = c;
        }
        CaseSeries { daily }
    }

    /// Length in days.
    pub fn len(&self) -> usize {
        self.daily.len()
    }

    /// True when no days are recorded.
    pub fn is_empty(&self) -> bool {
        self.daily.is_empty()
    }

    /// Cumulative counts.
    pub fn cumulative(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.daily.len());
        let mut acc = 0.0;
        for &d in &self.daily {
            acc += d;
            out.push(acc);
        }
        out
    }

    /// Total cases over the whole series.
    pub fn total(&self) -> f64 {
        self.daily.iter().sum()
    }

    /// Centered 7-day moving average (window shrinks at the edges), the
    /// standard smoothing for weekday reporting artifacts.
    pub fn smooth7(&self) -> CaseSeries {
        let n = self.daily.len();
        let mut out = vec![0.0; n];
        for (i, o) in out.iter_mut().enumerate() {
            let lo = i.saturating_sub(3);
            let hi = (i + 3).min(n.saturating_sub(1));
            let w = &self.daily[lo..=hi];
            *o = w.iter().sum::<f64>() / w.len() as f64;
        }
        CaseSeries { daily: out }
    }

    /// Element-wise sum of two series; the shorter one is zero-extended.
    pub fn add(&self, other: &CaseSeries) -> CaseSeries {
        let n = self.daily.len().max(other.daily.len());
        let mut out = vec![0.0; n];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.daily.get(i).copied().unwrap_or(0.0)
                + other.daily.get(i).copied().unwrap_or(0.0);
        }
        CaseSeries { daily: out }
    }

    /// Truncate to the first `days` days (no-op if already shorter).
    pub fn truncate(&self, days: usize) -> CaseSeries {
        CaseSeries { daily: self.daily.iter().take(days).copied().collect() }
    }

    /// Natural log of (cumulative + 1), the transform the paper's
    /// calibration applies ("logged reported case counts").
    pub fn log_cumulative(&self) -> Vec<f64> {
        self.cumulative().iter().map(|c| (c + 1.0).ln()).collect()
    }
}

/// Case series for one county.
#[derive(Clone, Debug)]
pub struct CountySeries {
    pub fips: u32,
    pub series: CaseSeries,
}

/// All county series of one region, with a state-level rollup.
#[derive(Clone, Debug)]
pub struct RegionCases {
    pub region: RegionId,
    pub counties: Vec<CountySeries>,
}

impl RegionCases {
    /// State-level rollup: sum of county curves (as in Fig. 13: "each
    /// state-level cumulative curve is obtained by summing its underlying
    /// county curves").
    pub fn state_series(&self) -> CaseSeries {
        let mut acc = CaseSeries::default();
        for c in &self.counties {
            acc = acc.add(&c.series);
        }
        acc
    }

    /// Number of counties with at least one recorded case.
    pub fn counties_with_cases(&self) -> usize {
        self.counties.iter().filter(|c| c.series.total() > 0.0).count()
    }

    /// Longest series length across counties.
    pub fn days(&self) -> usize {
        self.counties.iter().map(|c| c.series.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_round_trip() {
        let s = CaseSeries::from_daily(vec![1.0, 2.0, 0.0, 3.0]);
        let cum = s.cumulative();
        assert_eq!(cum, vec![1.0, 3.0, 3.0, 6.0]);
        let back = CaseSeries::from_cumulative(&cum);
        assert_eq!(back, s);
    }

    #[test]
    fn from_cumulative_clamps_revisions() {
        // A downward revision (8 -> 6) must not create negative incidence.
        let s = CaseSeries::from_cumulative(&[5.0, 8.0, 6.0, 9.0]);
        assert_eq!(s.daily, vec![5.0, 3.0, 0.0, 3.0]);
    }

    #[test]
    fn smooth7_preserves_constant_series() {
        let s = CaseSeries::from_daily(vec![4.0; 20]);
        let sm = s.smooth7();
        assert!(sm.daily.iter().all(|&x| (x - 4.0).abs() < 1e-12));
    }

    #[test]
    fn smooth7_damps_weekday_sawtooth() {
        // Period-7 sawtooth: raw variance is large, smoothed is ~0.
        let daily: Vec<f64> = (0..28).map(|i| if i % 7 == 0 { 70.0 } else { 0.0 }).collect();
        let s = CaseSeries::from_daily(daily);
        let sm = s.smooth7();
        let mid = &sm.daily[3..25];
        let spread = mid.iter().cloned().fold(f64::MIN, f64::max)
            - mid.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.0, "smoothed spread {spread}");
    }

    #[test]
    fn add_zero_extends() {
        let a = CaseSeries::from_daily(vec![1.0, 1.0]);
        let b = CaseSeries::from_daily(vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(a.add(&b).daily, vec![2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn region_rollup_sums_counties() {
        let rc = RegionCases {
            region: 0,
            counties: vec![
                CountySeries { fips: 1, series: CaseSeries::from_daily(vec![1.0, 2.0]) },
                CountySeries { fips: 2, series: CaseSeries::from_daily(vec![0.0, 5.0, 1.0]) },
                CountySeries { fips: 3, series: CaseSeries::from_daily(vec![]) },
            ],
        };
        assert_eq!(rc.state_series().daily, vec![1.0, 7.0, 1.0]);
        assert_eq!(rc.counties_with_cases(), 2);
        assert_eq!(rc.days(), 3);
    }

    #[test]
    fn log_cumulative_monotone() {
        let s = CaseSeries::from_daily(vec![2.0, 3.0, 0.0, 10.0]);
        let lc = s.log_cumulative();
        assert!(lc.windows(2).all(|w| w[1] >= w[0]));
        assert!((lc[0] - 3.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn truncate_behaviour() {
        let s = CaseSeries::from_daily(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.truncate(2).daily, vec![1.0, 2.0]);
        assert_eq!(s.truncate(10).daily, vec![1.0, 2.0, 3.0]);
    }
}

//! The benchmark's arithmetic: medians, quartiles, the tail percentile
//! it reports, and the two ratios that combine separate measurements.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones an external checker derives
/// from the same samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest whole percentile `p` whose nearest-rank value still has
/// at least ten samples above it, with that value: `None` when there
/// are ten samples or fewer, since then no tail percentile is backed by
/// enough samples to report.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(xs);
    let n = s.len();
    (1..100u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// Share of the available worker time a design kept busy: the summed
/// tick-loop seconds of its jobs over `wall_secs × workers`.
pub fn busy_share(job_secs_sum: f64, wall_secs: f64, workers: usize) -> f64 {
    job_secs_sum / (wall_secs * workers as f64)
}

/// Ratio of two series measured in pairs (back to back, or in the same
/// iteration): the median over pairs of `num[i] / den[i]`. Pairing
/// cancels the slow drifts of a shared host that a ratio of two separate
/// medians would pick up.
/// `core_scaling` is one-CPU over all-CPU seconds (above 1 means the
/// extra CPUs help); the tracing overhead is traced over untraced.
pub fn paired_ratio(num: &[f64], den: &[f64]) -> f64 {
    assert_eq!(num.len(), den.len(), "paired samples");
    median(&num.iter().zip(den).map(|(a, b)| a / b).collect::<Vec<_>>())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // Two points: j clamps to 1 on both sides.
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten), None);
        // 20 samples: p50 is rank 10, leaving exactly ten above it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50, 10.0)));
        // 100 samples: p90 is rank 90, ten above.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90, 90.0)));
        // 11 samples: only the lowest rank leaves ten above.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&eleven), Some((9, 1.0)));
    }

    #[test]
    fn ratios() {
        // Two workers busy 3 s of a 2 s design: 75 % of 4 worker-seconds.
        assert_eq!(busy_share(3.0, 2.0, 2), 0.75);
        // core_scaling: one-CPU over all-CPU seconds, pair by pair. A
        // slow spell that hits both sides of one pair cancels out.
        let one_cpu = [1.5, 3.0, 1.6];
        let all_cpu = [1.0, 2.0, 1.0];
        assert_eq!(paired_ratio(&one_cpu, &all_cpu), 1.5);
        // A second CPU that only adds overhead shows as a ratio below 1.
        assert!(paired_ratio(&[1.0], &[1.25]) < 1.0);
    }
}

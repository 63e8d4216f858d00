//! Shared helpers for the `repro_*` binaries (one per table/figure of
//! the paper; see DESIGN.md §5 and EXPERIMENTS.md) and the two
//! `BENCH_*.json` writers.

use epiflow_core::EnsembleRunner;
use epiflow_epihiper::covid::covid19_model;
use epiflow_epihiper::{DiseaseModel, InterventionSet, SimConfig, SimResult, Simulation};
use epiflow_surveillance::{RegionRegistry, Scale};
use epiflow_synthpop::builder::RegionData;
use epiflow_synthpop::{build_region, BuildConfig};

/// Build one region at `1/per` scale with a fixed seed.
pub fn region(registry: &RegionRegistry, abbrev: &str, per: f64) -> RegionData {
    let id = registry.by_abbrev(abbrev).unwrap_or_else(|| panic!("unknown region {abbrev}")).id;
    build_region(registry, id, &BuildConfig { scale: Scale::one_per(per), seed: 0x5EED })
}

/// Run a COVID-19 simulation on a region with the given interventions
/// and tick/partition settings. Transmissibility is raised to 0.35 so
/// scaled-down networks still produce brisk epidemics (sparser networks
/// need a higher per-contact rate for the same R).
pub fn run_covid(
    data: &RegionData,
    interventions: InterventionSet,
    ticks: u32,
    n_partitions: usize,
    seed: u64,
) -> SimResult {
    let ctx = EnsembleRunner::new(data, n_partitions).context().clone();
    let config = SimConfig {
        ticks,
        seed,
        n_partitions: ctx.n_partitions,
        epsilon: ctx.epsilon,
        initial_infections: (data.population.len() / 400).max(5),
        record_transitions: false,
        ..Default::default()
    };
    let model = DiseaseModel { transmissibility: 0.35, ..covid19_model() };
    Simulation::new_with_context(ctx, model, interventions, config).run()
}

/// The commit being measured: `git rev-parse HEAD`, else `GIT_COMMIT`
/// from the environment, else "unknown".
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .or_else(|| std::env::var("GIT_COMMIT").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(min, median)` of timing samples; an even count takes the mean of
/// the middle two.
///
/// # Panics
/// Panics on an empty slice.
pub fn min_median(secs: &[f64]) -> (f64, f64) {
    assert!(!secs.is_empty(), "min_median: no samples");
    let mut v = secs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    let median = if v.len().is_multiple_of(2) { (v[m - 1] + v[m]) / 2.0 } else { v[m] };
    (v[0], median)
}

/// Format a byte count human-readably.
pub fn fmt_bytes(b: u64) -> String {
    let f = b as f64;
    if f >= 1e12 {
        format!("{:.1} TB", f / 1e12)
    } else if f >= 1e9 {
        format!("{:.1} GB", f / 1e9)
    } else if f >= 1e6 {
        format!("{:.1} MB", f / 1e6)
    } else if f >= 1e3 {
        format!("{:.1} KB", f / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Simple fixed-width right-aligned table printer.
pub fn print_row(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// An ASCII sparkline for quick curve shapes in terminal output.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values.iter().map(|v| BARS[(((v - min) / span) * 7.0).round() as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(500), "500 B");
        assert_eq!(fmt_bytes(2_500_000), "2.5 MB");
        assert_eq!(fmt_bytes(3_000_000_000_000), "3.0 TB");
    }

    #[test]
    fn region_helper_builds() {
        let reg = RegionRegistry::new();
        let de = region(&reg, "DE", 20_000.0);
        assert!(de.population.len() > 10);
    }

    #[test]
    fn sparkline_monotone() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }
}

//! Ensemble-context benchmark — fresh-build vs shared-context nightly
//! design, machine-readable.
//!
//! The nightly production shape is *many runs, one model*: a study
//! design fans cells × replicates against a single immutable contact
//! network. The pre-ensemble runner paid the network build — CSR
//! arrays, partitioning, attribute derivation — once per *replicate*;
//! the [`EnsembleRunner`] pays it once per ⟨region, partition count⟩
//! and shares an `Arc<SimContext>` across the whole grid; each run
//! still owns its own buffers.
//!
//! This bench runs the same design both ways at several replicate
//! counts and emits `BENCH_ensemble.json`. Every compared pair is first
//! asserted byte-identical (same seeds ⇒ same `SimOutput`) — the
//! speedup is only meaningful if the fast path is exact. Then the two
//! paths are timed over interleaved repetitions (so machine-load noise
//! lands on both alike), and the report gives each path's min and
//! median wall time, runs/sec and setup fraction, the median speedup,
//! and the host's core count, the threads used and the git commit. The
//! JSON is validated by re-parsing before it is written.
//!
//! `--smoke` shrinks the region and the replicate ladder and skips the
//! performance assertion so CI can verify the harness end-to-end in
//! seconds.

use epiflow_bench::{git_commit, min_median, region};
use epiflow_core::runner::run_cell;
use epiflow_core::{CellConfig, CellRunSummary, EnsembleRunner, StudyDesign};
use epiflow_epihiper::covid::covid19_model;
use epiflow_epihiper::{InterventionSet, SimConfig, Simulation};
use epiflow_surveillance::RegionRegistry;
use rayon::prelude::*;
use serde::{Number, Value};
use std::time::Instant;

const N_PARTITIONS: usize = 4;
const BASE_SEED: u64 = 0x2026_0807;

/// Wall time of one fresh simulation build, context included — the
/// per-replicate setup cost the shared context amortizes away (CSR
/// build + partitioning + attribute derivation, no tick loop).
fn fresh_setup_secs(data: &epiflow_synthpop::builder::RegionData, days: u32) -> f64 {
    let t0 = Instant::now();
    let ctx = EnsembleRunner::new(data, N_PARTITIONS).context().clone();
    let config = SimConfig {
        ticks: days,
        n_partitions: ctx.n_partitions,
        epsilon: ctx.epsilon,
        record_transitions: false,
        ..Default::default()
    };
    let sim =
        Simulation::new_with_context(ctx, covid19_model(), InterventionSet::default(), config);
    let secs = t0.elapsed().as_secs_f64();
    drop(sim);
    secs
}

/// The pre-ensemble path: every ⟨cell, replicate⟩ job builds the
/// network from scratch inside `run_cell`, fanned over rayon exactly
/// like the shared path so the comparison isolates setup cost.
fn run_design_fresh(
    data: &epiflow_synthpop::builder::RegionData,
    design: &StudyDesign,
    base_seed: u64,
) -> Vec<CellRunSummary> {
    let jobs: Vec<(usize, u32)> = design
        .cells
        .iter()
        .enumerate()
        .flat_map(|(i, _)| (0..design.replicates).map(move |r| (i, r)))
        .collect();
    jobs.par_iter()
        .map(|&(ci, rep)| run_cell(data, &design.cells[ci], rep, N_PARTITIONS, false, base_seed))
        .collect()
}

/// Byte-level equality of two design runs: per-day aggregate outputs
/// and the calibration observable, job by job.
fn identical(a: &[CellRunSummary], b: &[CellRunSummary]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.cell == y.cell
                && x.replicate == y.replicate
                && x.output == y.output
                && x.log_cum_symptomatic == y.log_cum_symptomatic
        })
}

/// One path's timings at one replicate count; `setup_secs` is the
/// setup it pays per design run.
fn path_value(secs: &[f64], runs: usize, setup_secs: f64) -> Value {
    let (min, median) = min_median(secs);
    let median = median.max(1e-9);
    Value::Map(vec![
        ("min_secs".into(), Value::Num(Number::F(min))),
        ("median_secs".into(), Value::Num(Number::F(median))),
        ("runs_per_sec".into(), Value::Num(Number::F(runs as f64 / median))),
        ("setup_fraction".into(), Value::Num(Number::F((setup_secs / median).min(1.0)))),
    ])
}

/// Wall time of `f` and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (per, days, n_cells, rep_ladder, reps): (f64, u32, usize, &[u32], usize) =
        if smoke { (20_000.0, 10, 2, &[1, 2], 1) } else { (50.0, 20, 4, &[1, 4, 16], 11) };
    // The rayon shim's pool: `available_parallelism() − 1` workers plus
    // the calling thread.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("=== Ensemble-context benchmark (fresh vs shared) ===");
    println!(
        "mode: {}  cores: {cores}  threads used: {cores}\n",
        if smoke { "smoke" } else { "full" }
    );

    let registry = RegionRegistry::new();
    let data = region(&registry, "DE", per);
    let stats = data.network.stats();
    println!("region DE @ 1/{per}: {} persons, {} edges", data.population.len(), stats.edges);

    let base = CellConfig {
        days,
        initial_infections: (data.population.len() / 100).max(3),
        ..CellConfig::default()
    };
    let mut design = StudyDesign::lhs_prior(n_cells, &base, 0xD5);

    // Per-replicate setup cost of the fresh path.
    let setups: Vec<f64> = (0..reps.max(3)).map(|_| fresh_setup_secs(&data, days)).collect();
    let per_run_setup = min_median(&setups).1;

    // One-time cost of the shared path.
    let (ctx_secs, runner) = timed(|| EnsembleRunner::new(&data, N_PARTITIONS));
    println!(
        "setup: fresh {:.1} ms per run, shared context {:.1} ms once\n",
        per_run_setup * 1e3,
        ctx_secs * 1e3
    );

    let mut rows = Vec::new();
    let mut max_speedup = 0.0f64;
    for &replicates in rep_ladder {
        design.replicates = replicates;
        let runs = design.cells.len() * replicates as usize;

        let same = identical(
            &run_design_fresh(&data, &design, BASE_SEED),
            &runner.run_design(&design, BASE_SEED),
        );
        assert!(same, "shared-context outputs diverge from fresh-build at {replicates} replicates");

        let (mut fresh, mut shared) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            fresh.push(timed(|| run_design_fresh(&data, &design, BASE_SEED)).0);
            shared.push(timed(|| runner.run_design(&design, BASE_SEED)).0);
        }
        let ((fresh_min, fresh_med), (shared_min, shared_med)) =
            (min_median(&fresh), min_median(&shared));
        let speedup = fresh_med / shared_med.max(1e-9);
        max_speedup = max_speedup.max(speedup);
        println!(
            "{runs:>3} runs ({} cells x {replicates} reps), median (min) of {reps}: \
             fresh {fresh_med:.3}s ({fresh_min:.3}s)  shared {shared_med:.3}s ({shared_min:.3}s)  \
             speedup {speedup:.2}x  (fresh setup share {:.0}%)",
            design.cells.len(),
            (runs as f64 * per_run_setup / fresh_med).min(1.0) * 100.0
        );

        rows.push(Value::Map(vec![
            ("replicates".into(), Value::Num(Number::U(replicates as u64))),
            ("runs".into(), Value::Num(Number::U(runs as u64))),
            ("fresh".into(), path_value(&fresh, runs, runs as f64 * per_run_setup)),
            ("shared".into(), path_value(&shared, runs, ctx_secs)),
            ("median_speedup".into(), Value::Num(Number::F(speedup))),
            ("outputs_identical".into(), Value::Bool(same)),
        ]));
    }

    let doc = Value::Map(vec![
        ("benchmark".into(), Value::Str("ensemble_context".into())),
        ("smoke".into(), Value::Bool(smoke)),
        ("git_commit".into(), Value::Str(git_commit())),
        ("cores".into(), Value::Num(Number::U(cores as u64))),
        ("threads_used".into(), Value::Num(Number::U(cores as u64))),
        ("repetitions".into(), Value::Num(Number::U(reps as u64))),
        ("region".into(), Value::Str("DE".into())),
        ("persons".into(), Value::Num(Number::U(data.population.len() as u64))),
        ("edges".into(), Value::Num(Number::U(stats.edges as u64))),
        ("n_partitions".into(), Value::Num(Number::U(N_PARTITIONS as u64))),
        ("cells".into(), Value::Num(Number::U(design.cells.len() as u64))),
        ("days".into(), Value::Num(Number::U(days as u64))),
        ("fresh_setup_secs_per_run".into(), Value::Num(Number::F(per_run_setup))),
        ("context_build_secs".into(), Value::Num(Number::F(ctx_secs))),
        ("by_replicates".into(), Value::Seq(rows)),
        ("max_median_speedup".into(), Value::Num(Number::F(max_speedup))),
    ]);

    let json = serde_json::to_string_pretty(&doc).expect("serialize benchmark report");
    // Round-trip before writing: the artifact must stay machine-readable.
    let parsed = serde_json::parse_value(&json).expect("re-parse benchmark JSON");
    for key in ["benchmark", "git_commit", "by_replicates", "max_median_speedup"] {
        assert!(
            matches!(&parsed, Value::Map(m) if m.iter().any(|(k, _)| k == key)),
            "benchmark JSON missing key `{key}`"
        );
    }
    std::fs::write("BENCH_ensemble.json", &json).expect("write BENCH_ensemble.json");
    println!("\nwrote BENCH_ensemble.json ({} bytes)", json.len());

    if !smoke {
        assert!(
            max_speedup >= 1.1,
            "shared-context median speedup {max_speedup:.2}x below the 1.1x target"
        );
        println!(
            "target met: shared context {max_speedup:.2}x >= 1.1x (median) at best replicate count"
        );
    }
}

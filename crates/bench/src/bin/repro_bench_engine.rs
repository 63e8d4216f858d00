//! Engine scan benchmark — frontier switch vs full sweep,
//! machine-readable.
//!
//! Runs the EpiHiper core on two synthetic networks that bracket the
//! frontier scan's operating envelope and emits `BENCH_engine.json`.
//! Each case runs at two saturation thresholds: the default θ = 0.75
//! (`frontier`: a partition merges its due list with its frontier
//! slice, and sweeps its whole range only once ¾ of it is on the
//! frontier) and θ = 0 (`full_sweep`: every partition sweeps its whole
//! range every tick, paying the λ pass for every susceptible node).
//!
//! * **sparse** — a large ring-with-chords network where the epidemic
//!   is a travelling wave, so the active frontier is a sliver of the
//!   node set. This is the case the frontier scan exists for; the
//!   acceptance target is a ≥3× median speedup over the full sweep.
//! * **dense** — a heavily-seeded random graph with a long infectious
//!   period, holding nearly every susceptible node on the frontier for
//!   the whole run. This is the worst case for the frontier
//!   bookkeeping; the acceptance target is a median within 5% of the
//!   full sweep.
//!
//! Both cases first run with transition recording on at both
//! thresholds and assert the outputs are byte-identical (the engine's
//! headline invariant), then time the two thresholds over interleaved
//! repetitions (so machine-load noise lands on both alike) and report
//! the min and median wall time, nodes/s, edges/s, per-tick frontier
//! occupancy, and the median speedup, together with the host's core
//! count, the threads used and the git commit. The JSON is validated
//! by re-parsing before it is written.
//!
//! `--smoke` shrinks both networks and skips the performance
//! assertions so CI can verify the harness end-to-end in seconds.

use epiflow_bench::{git_commit, min_median};
use epiflow_epihiper::disease::sir_model;
use epiflow_epihiper::{
    EngineStats, InterventionSet, SimConfig, SimContext, SimResult, Simulation,
};
use epiflow_synthpop::network::ContactEdge;
use epiflow_synthpop::{ActivityType, ContactNetwork};
use serde::{Number, Value};
use std::sync::Arc;

/// Deterministic splitmix64 for network synthesis (no RNG dependency;
/// the engine's own draws come from its counter-based streams).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn edge(u: u32, v: u32) -> ContactEdge {
    let (u, v) = if u < v { (u, v) } else { (v, u) };
    ContactEdge {
        u,
        v,
        start: 480,
        duration: 480,
        ctx_u: ActivityType::Work,
        ctx_v: ActivityType::Work,
        weight: 1.0,
    }
}

/// Ring of `n` nodes, each linked to its next 4 neighbors, plus a
/// sprinkle of long-range chords (~0.5% of nodes). An epidemic seeded
/// at a few points travels as a narrow wave: frontier occupancy stays
/// tiny while the full sweep keeps paying for the whole ring.
fn sparse_ring(n: u32) -> ContactNetwork {
    let mut edges = Vec::with_capacity(n as usize * 4 + n as usize / 200);
    for u in 0..n {
        for k in 1..=4u32 {
            edges.push(edge(u, (u + k) % n));
        }
    }
    let mut st = 0xC0FFEE_u64;
    for _ in 0..(n / 200) {
        let a = (splitmix64(&mut st) % n as u64) as u32;
        let b = (splitmix64(&mut st) % n as u64) as u32;
        if a != b {
            edges.push(edge(a, b));
        }
    }
    ContactNetwork { n_nodes: n as usize, edges }
}

/// Random graph with mean degree ~20. Combined with heavy seeding and
/// a long infectious period this keeps the frontier near-full, so the
/// default threshold sweeps nearly every partition every tick, exactly
/// as θ = 0 does.
fn dense_random(n: u32) -> ContactNetwork {
    let mut st = 0xD15EA5E_u64;
    let mut edges = Vec::with_capacity(n as usize * 10);
    for u in 0..n {
        for _ in 0..10 {
            let v = (splitmix64(&mut st) % n as u64) as u32;
            if v != u {
                edges.push(edge(u, v));
            }
        }
    }
    ContactNetwork { n_nodes: n as usize, edges }
}

/// The two thresholds compared: `(JSON key, θ)`.
const FRONTIER: (&str, f64) = ("frontier", 0.75);
const FULL_SWEEP: (&str, f64) = ("full_sweep", 0.0);
const N_PARTITIONS: usize = 4;

struct Case {
    name: &'static str,
    net: ContactNetwork,
    beta: f64,
    infectious_days: f64,
    ticks: u32,
    initial_infections: usize,
}

fn simulate(case: &Case, saturation_threshold: f64, record_transitions: bool) -> SimResult {
    let config = SimConfig {
        ticks: case.ticks,
        seed: 7,
        n_partitions: N_PARTITIONS,
        initial_infections: case.initial_infections,
        record_transitions,
        saturation_threshold,
        ..Default::default()
    };
    let n = case.net.n_nodes;
    let ctx =
        SimContext::build(&case.net, vec![2; n], vec![0; n], config.n_partitions, config.epsilon);
    let model = sir_model(case.beta, case.infectious_days);
    Simulation::new_with_context(Arc::new(ctx), model, InterventionSet::default(), config).run()
}

/// Wall times of one threshold over the repetitions, plus the
/// telemetry of the last run (identical across repetitions).
#[derive(Default)]
struct Timings {
    secs: Vec<f64>,
    stats: EngineStats,
    ticks_run: u32,
}

impl Timings {
    fn record(&mut self, r: SimResult) {
        self.secs.push(r.elapsed.as_secs_f64());
        self.stats = r.stats;
        self.ticks_run = r.ticks_run;
    }

    fn min(&self) -> f64 {
        min_median(&self.secs).0
    }

    fn median(&self) -> f64 {
        min_median(&self.secs).1
    }
}

/// `reps` runs of each threshold, interleaved. Returns `(frontier,
/// full_sweep)`.
fn time_modes(case: &Case, reps: usize) -> (Timings, Timings) {
    let (mut fr, mut sw) = (Timings::default(), Timings::default());
    for _ in 0..reps {
        fr.record(simulate(case, FRONTIER.1, false));
        sw.record(simulate(case, FULL_SWEEP.1, false));
    }
    (fr, sw)
}

fn mode_value(case: &Case, theta: f64, t: &Timings) -> Value {
    let median = t.median().max(1e-9);
    let node_ticks = case.net.n_nodes as u64 * t.ticks_run as u64;
    let edges = t.stats.total_edges_scanned();
    Value::Map(vec![
        ("theta".into(), Value::Num(Number::F(theta))),
        ("min_secs".into(), Value::Num(Number::F(t.min()))),
        ("median_secs".into(), Value::Num(Number::F(median))),
        ("nodes_per_sec".into(), Value::Num(Number::F(node_ticks as f64 / median))),
        ("edges_scanned".into(), Value::Num(Number::U(edges))),
        ("edges_per_sec".into(), Value::Num(Number::F(edges as f64 / median))),
    ])
}

fn run_case(case: &Case, reps: usize) -> (Value, f64) {
    println!(
        "--- {} : {} nodes, {} edges, {} ticks ---",
        case.name,
        case.net.n_nodes,
        case.net.edges.len(),
        case.ticks
    );

    // Equivalence check: both thresholds with the full transition log.
    let fr_chk = simulate(case, FRONTIER.1, true);
    let sw_chk = simulate(case, FULL_SWEEP.1, true);
    let identical = fr_chk.output == sw_chk.output;
    assert!(identical, "{}: frontier and full-sweep outputs diverge", case.name);
    println!(
        "  outputs identical across thresholds ({} transitions)",
        fr_chk.output.transitions.len()
    );

    let (frontier, sweep) = time_modes(case, reps);
    let speedup = sweep.median() / frontier.median().max(1e-9);
    let occupancy = frontier.stats.mean_frontier_occupancy(case.net.n_nodes);
    println!(
        "  median (min) of {reps}: frontier {:.4}s ({:.4}s)  full sweep {:.4}s ({:.4}s)  \
         speedup {:.2}x  mean occupancy {:.1}%",
        frontier.median(),
        frontier.min(),
        sweep.median(),
        sweep.min(),
        speedup,
        occupancy * 100.0
    );

    let occ_by_tick: Vec<Value> = frontier
        .stats
        .frontier_nodes
        .iter()
        .map(|&f| Value::Num(Number::F(f as f64 / case.net.n_nodes.max(1) as f64)))
        .collect();

    let v = Value::Map(vec![
        ("nodes".into(), Value::Num(Number::U(case.net.n_nodes as u64))),
        ("edges".into(), Value::Num(Number::U(case.net.edges.len() as u64))),
        ("ticks".into(), Value::Num(Number::U(case.ticks as u64))),
        ("outputs_identical".into(), Value::Bool(identical)),
        ("total_infected".into(), Value::Num(Number::U(fr_chk.output.total_infections() as u64))),
        (FRONTIER.0.into(), mode_value(case, FRONTIER.1, &frontier)),
        (FULL_SWEEP.0.into(), mode_value(case, FULL_SWEEP.1, &sweep)),
        ("median_speedup".into(), Value::Num(Number::F(speedup))),
        ("mean_frontier_occupancy".into(), Value::Num(Number::F(occupancy))),
        ("frontier_occupancy_by_tick".into(), Value::Seq(occ_by_tick)),
    ]);
    (v, speedup)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sparse_n, dense_n, reps) = if smoke { (2_000, 1_000, 1) } else { (120_000, 20_000, 11) };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("=== Engine scan benchmark (θ = 0.75 vs θ = 0 full sweep) ===");
    println!(
        "mode: {}  cores: {cores}  threads used: {}\n",
        if smoke { "smoke" } else { "full" },
        cores.min(N_PARTITIONS)
    );

    let sparse = Case {
        name: "sparse_wave",
        net: sparse_ring(sparse_n),
        beta: 0.8,
        infectious_days: 5.0,
        ticks: if smoke { 30 } else { 120 },
        initial_infections: 3,
    };
    let dense = Case {
        name: "dense_saturated",
        net: dense_random(dense_n),
        beta: 0.05,
        infectious_days: 90.0,
        ticks: if smoke { 20 } else { 60 },
        initial_infections: dense_n as usize / 10,
    };

    let (sparse_v, sparse_speedup) = run_case(&sparse, reps);
    let (dense_v, dense_speedup) = run_case(&dense, reps);

    let doc = Value::Map(vec![
        ("benchmark".into(), Value::Str("engine_scan_threshold".into())),
        ("smoke".into(), Value::Bool(smoke)),
        ("git_commit".into(), Value::Str(git_commit())),
        ("cores".into(), Value::Num(Number::U(cores as u64))),
        ("threads_used".into(), Value::Num(Number::U(cores.min(N_PARTITIONS) as u64))),
        ("n_partitions".into(), Value::Num(Number::U(N_PARTITIONS as u64))),
        ("repetitions".into(), Value::Num(Number::U(reps as u64))),
        ("sparse".into(), sparse_v),
        ("dense".into(), dense_v),
    ]);

    let json = serde_json::to_string_pretty(&doc).expect("serialize benchmark report");
    // Round-trip before writing: the artifact must stay machine-readable.
    let parsed = serde_json::parse_value(&json).expect("re-parse benchmark JSON");
    for key in ["benchmark", "git_commit", "sparse", "dense"] {
        assert!(
            matches!(&parsed, Value::Map(m) if m.iter().any(|(k, _)| k == key)),
            "benchmark JSON missing key `{key}`"
        );
    }
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json ({} bytes)", json.len());

    if !smoke {
        assert!(
            sparse_speedup >= 3.0,
            "sparse median speedup {sparse_speedup:.2}x below the 3x target"
        );
        assert!(
            dense_speedup >= 0.95,
            "dense worst case regressed {:.1}% in the median (>5% budget)",
            (1.0 / dense_speedup - 1.0) * 100.0
        );
        println!("targets met: sparse {sparse_speedup:.2}x >= 3x, dense within 5% budget");
    }
}

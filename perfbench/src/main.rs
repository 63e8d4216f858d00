//! Benchmark of the epiflow nightly cycle.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nightly_region|region_run|nightly_plan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one main thread runs iterations
//! back to back, while the program sizes its own workers by
//! `available_parallelism()`. A run sets up several times (`setup_s` is
//! the median) and discards one warm-up. With `--trace 0` it then
//! measures for `--seconds`, alternating its own iterations with those
//! of a copy of itself confined to one CPU (`core_scaling`). With
//! `--trace 1` it alternates untraced and traced iterations instead and
//! reports the per-layer numbers from the spans, plus the tracing
//! overhead.
//!
//! Every line but the last is for people; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The full
//! record (host, commit, seed, every raw sample) goes to `.bench_out/`.

mod host;
mod nightly_plan;
mod nightly_region;
mod region_run;
mod stats;
mod trace;
mod workload;

use serde::{Number, Value};
use stats::{median, quartiles, tail_percentile};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Tracer, SETUP, WARM_UP};
use workload::{Checks, Derive, Workload};

/// End-to-end metrics, printed by an untraced run, with their units.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("cycle_s", "s"), ("core_scaling", "ratio"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by a traced run. Every workload prints all
/// of them; a layer the workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("synthpop.build_s", "s"),
    ("synthpop.persons", "count"),
    ("synthpop.edges", "count"),
    ("epihiper.context_s", "s"),
    ("epihiper.tick_loop_s", "s"),
    ("epihiper.us_per_tick", "us"),
    ("epihiper.agent_days_per_s", "1/s"),
    ("epihiper.edges_scanned", "count"),
    ("epihiper.edges_per_s", "1/s"),
    ("epihiper.frontier_occupancy", "ratio"),
    ("epihiper.events", "count"),
    ("epihiper.snapshot_s", "s"),
    ("epihiper.snapshot_bytes", "bytes"),
    ("epihiper.resume_s", "s"),
    ("runner.design_s.calibration", "s"),
    ("runner.design_s.prediction", "s"),
    ("runner.design_s.counterfactual", "s"),
    ("runner.jobs", "count"),
    ("runner.busy_share", "ratio"),
    ("runner.job_s_p50", "s"),
    ("runner.job_s_max", "s"),
    ("calibrate.emulator_fit_s", "s"),
    ("calibrate.gpmsa_s", "s"),
    ("calibrate.mcmc_acceptance", "ratio"),
    ("calibrate.tau_abs_err", "ratio"),
    ("analytics.s", "s"),
    ("hpcsim.pack_s", "s"),
    ("hpcsim.slurm_s", "s"),
    ("hpcsim.tasks", "count"),
    ("hpcsim.levels", "count"),
    ("orchestrator.night_s_p50", "s"),
    ("orchestrator.night_s_max", "s"),
    ("orchestrator.retries", "count"),
    ("orchestrator.failovers", "count"),
    ("orchestrator.hedges", "count"),
    ("orchestrator.reroutes", "count"),
    ("orchestrator.shed_cells", "count"),
    ("orchestrator.preemptions", "count"),
    ("orchestrator.journal_bytes", "bytes"),
    ("plan_makespan_h", "h"),
    ("plan_utilization", "ratio"),
    ("plan_success_rate", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-ups per run: at least this many, and more while they add up to
/// under a second.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
/// Measured pairs of iterations per run, however long one takes.
const MIN_PAIRS: usize = 3;
const WARM_UP_POLICY: &str = "one discarded warm-up per process (it also builds the reference \
                              outputs); setup_s is measured before it and reported on its own";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run as the one-CPU copy that `core_scaling` pairs with.
    one_cpu: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, one_cpu: false };
    while let Some(flag) = it.next() {
        if flag == "--one-cpu" {
            args.one_cpu = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.one_cpu {
        if let Err(e) = host::pin_to_one_cpu() {
            eprintln!("perfbench: cannot confine to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match args.workload.as_str() {
        "nightly_region" => run::<nightly_region::NightlyRegion>(&args),
        "region_run" => run::<region_run::RegionRun>(&args),
        "nightly_plan" => run::<nightly_plan::NightlyPlan>(&args),
        w => Err(format!("unknown workload `{w}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    if args.one_cpu {
        one_cpu_partner::<W>(args)
    } else if args.trace {
        traced_run::<W>(args)
    } else {
        untraced_run::<W>(args)
    }
}

/// Set up `MIN_SETUPS` times and, while the set-ups add up to under a
/// second, more (so a fast set-up is still a median of many). Each
/// instance is dropped before the next is built. Returns the last one
/// and the times.
fn set_up<W: Workload>(seed: u64, t: &Tracer) -> (W, Vec<f64>) {
    let mut times = Vec::new();
    let mut last: Option<W> = None;
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < 1.0)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(W::setup(seed, t));
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), times)
}

fn warm_up<W: Workload>(w: &mut W, t: &Tracer, checks: &mut Checks) -> u64 {
    t.set_enabled(false);
    t.set_iteration(WARM_UP);
    w.warm_up(t, checks);
    w.digest()
}

/// One measured iteration, traced or not: the program seconds. Its
/// outputs must match the warm-up's (`reference`).
fn step<W: Workload>(
    w: &mut W,
    t: &Tracer,
    checks: &mut Checks,
    reference: u64,
    id: u32,
    traced: bool,
) -> f64 {
    t.set_enabled(traced);
    t.set_iteration(id);
    let secs = t.span("iteration", || w.iterate(t, checks));
    t.set_enabled(false);
    checks.check(w.digest() == reference, || {
        format!("iteration {id}: outputs differ from the warm-up's")
    });
    secs
}

/// Whether a phase that started at `start` and ran `done` pairs is over.
fn phase_over(start: Instant, seconds: f64, done: usize) -> bool {
    done >= MIN_PAIRS && start.elapsed().as_secs_f64() >= seconds
}

/// The confined copy: pinned to one CPU before any thread starts, it
/// sets up once, warms up, prints `ready`, then runs one iteration per
/// `step` line on stdin and answers with its seconds. At end of input it
/// prints one JSON line of its checks and outputs, and exits.
fn one_cpu_partner<W: Workload>(args: &Args) -> Result<(), String> {
    let t = Tracer::new(false);
    let mut checks = Checks::default();
    let mut w = W::setup(args.seed, &t);
    let reference = warm_up(&mut w, &t, &mut checks);
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready").and_then(|_| out.flush()).map_err(|e| e.to_string())?;
    let mut id = WARM_UP;
    for line in std::io::stdin().lines() {
        let line = line.map_err(|e| format!("read step request: {e}"))?;
        if line.trim() != "step" {
            return Err(format!("unexpected request `{line}`"));
        }
        id += 1;
        let secs = step(&mut w, &t, &mut checks, reference, id, false);
        writeln!(out, "{secs}").and_then(|_| out.flush()).map_err(|e| e.to_string())?;
    }
    let summary = map(vec![
        ("digest", Value::Str(format!("{:016x}", w.digest()))),
        ("available_parallelism", Value::Num(Number::U(host::available_parallelism() as u64))),
        ("attempted", Value::Num(Number::U(checks.attempted))),
        ("failed", Value::Num(Number::U(checks.failed))),
        ("failures", Value::Seq(checks.failures.into_iter().map(Value::Str).collect())),
    ]);
    writeln!(out, "{}", serde_json::to_string(&summary).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())
}

/// The benchmark re-run as a child process confined to one CPU, stepped
/// one iteration at a time so that its iterations alternate with the
/// parent's. Dropping it kills and reaps the child.
struct OneCpu {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl OneCpu {
    fn start(args: &Args) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string(), "--one-cpu"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start the one-CPU copy: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(OneCpu { child, stdin, stdout })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("the one-CPU copy exited early".into()),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(format!("read from the one-CPU copy: {e}")),
        }
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        match self.read_line()?.as_str() {
            "ready" => Ok(()),
            other => Err(format!("the one-CPU copy said `{other}`, not `ready`")),
        }
    }

    fn step(&mut self) -> Result<f64, String> {
        let stdin = self.stdin.as_mut().expect("stepped after finish");
        writeln!(stdin, "step")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("step the one-CPU copy: {e}"))?;
        let line = self.read_line()?;
        line.parse().map_err(|_| format!("the one-CPU copy answered `{line}`"))
    }

    /// Close its input, read its summary and wait for it to exit.
    fn finish(&mut self) -> Result<Value, String> {
        drop(self.stdin.take());
        let line = self.read_line()?;
        let status = self.child.wait().map_err(|e| format!("wait for the one-CPU copy: {e}"))?;
        if !status.success() {
            return Err(format!("the one-CPU copy exited with {status}"));
        }
        serde_json::parse_value(&line).map_err(|e| format!("one-CPU summary: {e}"))
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn untraced_run<W: Workload>(args: &Args) -> Result<(), String> {
    let t = Tracer::new(false);
    let mut checks = Checks::default();
    let (mut w, setups) = set_up::<W>(args.seed, &t);
    // The copy sets up and warms up while this process warms up; only
    // the iterations after that are timed, one at a time.
    let mut partner = OneCpu::start(args)?;
    let reference = warm_up(&mut w, &t, &mut checks);
    partner.wait_ready()?;
    let (mut cycles, mut one_cpu) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while !phase_over(start, args.seconds, cycles.len()) {
        let id = WARM_UP + 1 + cycles.len() as u32;
        cycles.push(step(&mut w, &t, &mut checks, reference, id, false));
        one_cpu.push(partner.step()?);
    }
    let peak_rss_mb = host::peak_rss_bytes() as f64 / 1e6;

    let summary = partner.finish()?;
    let field = |k: &str| summary.as_map().and_then(|m| serde::map_get(m, k)).cloned();
    let count = |k: &str| field(k).and_then(|v| v.as_num()).and_then(Number::as_u64).unwrap_or(0);
    checks.attempted += count("attempted");
    checks.failed += count("failed");
    if let Some(Value::Seq(fs)) = field("failures") {
        checks
            .failures
            .extend(fs.iter().filter_map(|f| f.as_str().map(|s| format!("one CPU: {s}"))));
    }
    let digest = format!("{:016x}", w.digest());
    checks.check(field("digest").as_ref().and_then(Value::as_str) == Some(digest.as_str()), || {
        "outputs on one CPU differ from outputs on all CPUs".to_string()
    });
    checks.check(count("available_parallelism") == 1, || {
        format!("the confined copy saw {} CPUs", count("available_parallelism"))
    });

    let metrics =
        [median(&setups), median(&cycles), stats::paired_ratio(&one_cpu, &cycles), peak_rss_mb];
    println!(
        "workload {} seed {} on {} CPUs, {} iteration pairs",
        args.workload,
        args.seed,
        host::available_parallelism(),
        cycles.len()
    );
    let samples = [("setup_s", &setups), ("cycle_s", &cycles), ("one_cpu_cycle_s", &one_cpu)];
    for (name, xs) in samples {
        println!("  {name:<16} {}", describe(xs));
    }
    let summary: Vec<(&str, Value)> = samples.iter().map(|(n, xs)| (*n, summarize(xs))).collect();
    let metrics: Vec<(&str, &str, f64)> =
        END_TO_END.iter().zip(metrics).map(|(&(n, u), v)| (n, u, v)).collect();
    finish(args, &checks, &metrics, map(summary))
}

fn traced_run<W: Workload>(args: &Args) -> Result<(), String> {
    let t = Tracer::new(true);
    let mut checks = Checks::default();
    t.set_iteration(SETUP);
    let mut w = W::setup(args.seed, &t);
    let reference = warm_up(&mut w, &t, &mut checks);
    let (mut untraced, mut traced, mut iterations) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while !phase_over(start, args.seconds, traced.len()) {
        let id = WARM_UP + 1 + 2 * traced.len() as u32;
        untraced.push(step(&mut w, &t, &mut checks, reference, id, false));
        traced.push(step(&mut w, &t, &mut checks, reference, id + 1, true));
        iterations.push(id + 1);
    }
    w.traced_checks(&mut checks);

    let overhead = stats::paired_ratio(&traced, &untraced);
    let derived = w.layer_metrics(&Derive {
        trace: &t,
        iterations: &iterations,
        workers: host::available_parallelism(),
    });
    if let Some((n, _)) = derived.iter().find(|(n, _)| !PER_LAYER.iter().any(|(p, _)| p == n)) {
        return Err(format!("workload derives `{n}`, which is not a listed per-layer metric"));
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "trace.overhead" {
                overhead
            } else {
                derived.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
            };
            (name, unit, v)
        })
        .collect();

    let spans = t.spans();
    let path = format!("{OUT_DIR}/{}-seed{}.spans.jsonl", args.workload, args.seed);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    std::fs::write(&path, trace::spans_jsonl(&spans)).map_err(|e| format!("write {path}: {e}"))?;
    println!("workload {} seed {}: {} spans in {path}", args.workload, args.seed, spans.len());
    println!("  traced cycle_s   {}", describe(&traced));
    println!("  untraced cycle_s {}", describe(&untraced));
    let extra = map(vec![
        ("traced_cycle_s", summarize(&traced)),
        ("untraced_cycle_s", summarize(&untraced)),
        ("spans", Value::Str(path)),
    ]);
    finish(args, &checks, &metrics, extra)
}

const OUT_DIR: &str = ".bench_out";

/// Print each metric, write the full record, and print the result line.
fn finish(
    args: &Args,
    checks: &Checks,
    metrics: &[(&str, &str, f64)],
    samples: Value,
) -> Result<(), String> {
    if let Some((n, _, v)) = metrics.iter().find(|m| !m.2.is_finite()) {
        return Err(format!("metric {n} is not a finite number ({v})"));
    }
    for (name, unit, value) in metrics {
        println!("  {name:<32} {value:.6} {unit}");
    }
    let frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!("  failed_ops_frac {frac} ({} of {} operations)", checks.failed, checks.attempted);
    for f in &checks.failures {
        println!("  FAILED: {f}");
    }

    let metric_map = map(metrics
        .iter()
        .map(|&(n, u, v)| (n, map(vec![("value", num(v)), ("unit", Value::Str(u.into()))])))
        .collect());
    let record = map(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(Number::U(args.seed))),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("git_commit", Value::Str(host::git_commit())),
        ("nproc", Value::Num(Number::U(host::allowed_cpus().len() as u64))),
        ("available_parallelism", Value::Num(Number::U(host::available_parallelism() as u64))),
        ("warm_up", Value::Str(WARM_UP_POLICY.into())),
        ("samples", samples),
        ("metrics", metric_map.clone()),
        ("attempted", Value::Num(Number::U(checks.attempted))),
        ("failed", Value::Num(Number::U(checks.failed))),
        ("failed_ops_frac", num(frac)),
        ("failures", Value::Seq(checks.failures.iter().cloned().map(Value::Str).collect())),
    ]);
    let path =
        format!("{OUT_DIR}/{}-seed{}-trace{}.json", args.workload, args.seed, args.trace as u8);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
    println!("  full record in {path}");

    let result = map(vec![
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::Num(Number::U(checks.attempted))),
        ("failed", Value::Num(Number::U(checks.failed))),
        ("metrics", metric_map.clone()),
    ]);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(())
}

/// Median, quartiles, tail percentile and count of a sample set.
fn summarize(xs: &[f64]) -> Value {
    let (q1, q3) = quartiles(xs);
    let tail = tail_percentile(xs).map_or(Value::Null, |(p, v)| {
        map(vec![("percentile", Value::Num(Number::U(p as u64))), ("value", num(v))])
    });
    map(vec![
        ("median", num(median(xs))),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("tail", tail),
        ("n", Value::Num(Number::U(xs.len() as u64))),
        ("repeats_exactly", Value::Bool(xs.windows(2).all(|w| w[0] == w[1]))),
        ("raw", Value::Seq(xs.iter().copied().map(num).collect())),
    ])
}

fn describe(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    let tail = tail_percentile(xs)
        .map_or("no percentile has ten samples beyond it".to_string(), |(p, v)| {
            format!("p{p} {v:.6}")
        });
    let exact =
        if xs.len() > 1 && xs.windows(2).all(|w| w[0] == w[1]) { ", repeats exactly" } else { "" };
    format!("median {:.6} (q1 {q1:.6}, q3 {q3:.6}; {tail}; n={}{exact})", median(xs), xs.len())
}

fn num(x: f64) -> Value {
    Value::Num(Number::F(x))
}

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

//! Golden digests: pinned FNV-1a hashes of engine and orchestrator
//! output on fixed inputs.
//!
//! The A/B tests elsewhere compare two configurations of the same code
//! against each other, so a change that moves both sides at once slips
//! past them. These digests pin the bytes themselves:
//!
//! * **Engine** — `SimOutput` and `EngineStats` (transitions recorded)
//!   for a sparse ring, a dense saturated random graph, and a network
//!   driven by `SetHealth` interventions, each at 1, 4 and 13
//!   partitions and at saturation thresholds θ ∈ {0, 0.75, 2.0}. The
//!   output digest is one value per case (results never depend on the
//!   partitioning or θ); the stats digest is pinned per configuration
//!   because `edges_scanned` measures how much of the network the scan
//!   visited.
//! * **Resume** — the `set_health` case interrupted at ticks 0, 1 and
//!   20, at 1 and 4 partitions, carried through `encode` → `decode` →
//!   `resume_with_context`. The digest covers the resumed `SimOutput`
//!   and `EngineStats`, not the snapshot bytes, so it pins what a
//!   restart produces under any wire format.
//! * **Orchestrator** — `events_jsonl()` and the journal for six
//!   nights. Four cover every branch of the execute step: classic with
//!   shedding, failover where the remote window fits, failover where
//!   the remote cluster is lost and the home cluster sheds, and a night
//!   whose second execute step meets an open remote-cluster breaker.
//!   Two cover the transfer and restore attempts under link drops,
//!   slow links, database exhaustion and stragglers: one classic, one
//!   with failover hedging and re-routing around hair-trigger breakers.
//! * **Synthetic population** — `build_region` at DE 1/100 (three
//!   counties, the largest holding half the state) and VA 1/500 (133
//!   counties): every person field, every household's member list,
//!   every location and every `ContactEdge` field, floats as bit
//!   patterns. This pins the sampling and dedup order of the builder,
//!   not just its counts.
//! * **Calibration** — the GPMSA posterior (θ samples, acceptance,
//!   final step, λ_ε and λ_δ) of two Metropolis-within-Gibbs runs
//!   against a toy emulator with t = 70 days, so p_δ = 7. The chain's
//!   `log_posts` are left out: their last bits depend on how the
//!   marginal likelihood is evaluated, while every accept decision and
//!   sample is pinned.
//!
//! On a mismatch the failure message lists every actual digest, so an
//! intended output change is re-pinned from one run.

use epiflow::calibrate::{
    Emulator, GpmsaCalibration, GpmsaConfig, MetropolisConfig, ParamSpace, Posterior,
};
use epiflow::core::CombinedWorkflow;
use epiflow::epihiper::checkpoint::{fnv1a, SimSnapshot};
use epiflow::epihiper::disease::sir_model;
use epiflow::epihiper::engine::{SimConfig, SimContext, Simulation};
use epiflow::epihiper::interventions::{
    GenericIntervention, InterventionSet, Operation, Target, Trigger,
};
use epiflow::hpcsim::cluster::Site;
use epiflow::hpcsim::slurm::NodeFailure;
use epiflow::hpcsim::task::WorkloadSpec;
use epiflow::orchestrator::{
    BreakerConfig, DeadlinePolicy, EngineEvent, FailoverPolicy, FaultPlan, LinkFaults, RetryPolicy,
    RunResult, StepEffect, StepKind, StepSpec,
};
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::builder::RegionData;
use epiflow::synthpop::network::ContactEdge;
use epiflow::synthpop::{build_region, ActivityType, BuildConfig, ContactNetwork, Gender};
use std::sync::Arc;

const PARTITIONS: [usize; 3] = [1, 4, 13];
const THRESHOLDS: [f64; 3] = [0.0, 0.75, 2.0];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn edge(u: u32, v: u32, ctx: ActivityType, duration: u16, weight: f32) -> ContactEdge {
    let (u, v) = if u < v { (u, v) } else { (v, u) };
    ContactEdge { u, v, start: 0, duration, ctx_u: ctx, ctx_v: ctx, weight }
}

/// Ring with long chords: a travelling wave over a mostly idle network.
fn sparse_ring() -> ContactNetwork {
    let n = 400u32;
    let mut edges: Vec<ContactEdge> =
        (0..n).map(|i| edge(i, (i + 1) % n, ActivityType::Home, 600, 1.0)).collect();
    for i in (0..n).step_by(17) {
        edges.push(edge(i, (i + n / 2) % n, ActivityType::Work, 300, 0.7));
    }
    ContactNetwork { n_nodes: n as usize, edges }
}

/// Random graph of mean degree ~`2 * per_node`.
fn random_graph(n: u32, per_node: u32, seed: u64) -> ContactNetwork {
    let mut st = seed;
    let mut edges = Vec::new();
    for u in 0..n {
        for _ in 0..per_node {
            let v = (splitmix64(&mut st) % n as u64) as u32;
            if v != u {
                edges.push(edge(u, v, ActivityType::Work, 480, 1.0));
            }
        }
    }
    ContactNetwork { n_nodes: n as usize, edges }
}

struct EngineCase {
    name: &'static str,
    net: ContactNetwork,
    beta: f64,
    infectious_days: f64,
    ticks: u32,
    seed: u64,
    initial_infections: usize,
    interventions: fn() -> InterventionSet,
    /// Digest of the serialized `SimOutput`, the same for every config.
    output: u64,
    /// Digests of the serialized `EngineStats`, `[partitions][θ]`.
    stats: [[u64; 3]; 3],
}

/// The context of `net` at `parts` partitions and the default ε (age
/// group 2, county 0 everywhere).
fn context(net: &ContactNetwork, parts: usize) -> Arc<SimContext> {
    let n = net.n_nodes;
    Arc::new(SimContext::build(net, vec![2; n], vec![0; n], parts, SimConfig::default().epsilon))
}

fn no_interventions() -> InterventionSet {
    InterventionSet::default()
}

/// Case importations at tick 5, then a quarter of the susceptibles
/// moved straight to recovered at tick 12 (a vaccination what-if).
/// Both go through `SetHealth`, forcing frontier rebuilds mid-run.
fn set_health_interventions() -> InterventionSet {
    let import = GenericIntervention::new(
        "import",
        Trigger::AtTick { tick: 5 },
        Target::Node { node: 117 },
        vec![Operation::SetHealth { to: 1 }],
    );
    let mut vaccinate = GenericIntervention::new(
        "vaccinate",
        Trigger::AtTick { tick: 12 },
        Target::NodesInState { state: 0 },
        vec![Operation::SetHealth { to: 2 }],
    );
    vaccinate.sample = 0.25;
    InterventionSet::new().with(Box::new(import)).with(Box::new(vaccinate))
}

fn engine_cases() -> Vec<EngineCase> {
    vec![
        EngineCase {
            name: "sparse_ring",
            net: sparse_ring(),
            beta: 2.5,
            infectious_days: 5.0,
            ticks: 80,
            seed: 7,
            initial_infections: 2,
            interventions: no_interventions,
            output: 0x8368c758b01405dc,
            stats: [
                [0xc055d8f1101aeab5, 0x40b3af7c076807c6, 0x40b3af7c076807c6],
                [0xc055d8f1101aeab5, 0x40b3af7c076807c6, 0x40b3af7c076807c6],
                [0xc055d8f1101aeab5, 0x40b3af7c076807c6, 0x40b3af7c076807c6],
            ],
        },
        EngineCase {
            name: "dense_saturated",
            net: random_graph(600, 10, 0xD15EA5E),
            beta: 0.05,
            infectious_days: 90.0,
            ticks: 40,
            seed: 7,
            initial_infections: 60,
            interventions: no_interventions,
            output: 0xe4ee764cda08d32b,
            stats: [
                [0x4e22df59faa4cfde, 0x4e22df59faa4cfde, 0x10f64f9a291b1dab],
                [0x4e22df59faa4cfde, 0x4e22df59faa4cfde, 0x10f64f9a291b1dab],
                [0x4e22df59faa4cfde, 0x4e22df59faa4cfde, 0x10f64f9a291b1dab],
            ],
        },
        EngineCase {
            name: "set_health",
            net: random_graph(300, 4, 0x5E7),
            beta: 0.6,
            infectious_days: 6.0,
            ticks: 50,
            seed: 11,
            initial_infections: 1,
            interventions: set_health_interventions,
            output: 0x1e6376f15e8526a7,
            stats: [
                [0x1d8a94faaaa2af6b, 0xf46500bf9775e8e3, 0x5549f04a58bf4dfa],
                [0x1d8a94faaaa2af6b, 0xf46500bf9775e8e3, 0x5549f04a58bf4dfa],
                [0x1d8a94faaaa2af6b, 0xf46500bf9775e8e3, 0x5549f04a58bf4dfa],
            ],
        },
    ]
}

#[test]
fn engine_digests_are_pinned() {
    let mut report = String::new();
    let mut ok = true;
    for case in engine_cases() {
        let mut stats = [[0u64; 3]; 3];
        let mut outputs = Vec::new();
        for (pi, &parts) in PARTITIONS.iter().enumerate() {
            let ctx = context(&case.net, parts);
            for (ti, &theta) in THRESHOLDS.iter().enumerate() {
                let mut sim = Simulation::new_with_context(
                    ctx.clone(),
                    sir_model(case.beta, case.infectious_days),
                    (case.interventions)(),
                    SimConfig {
                        ticks: case.ticks,
                        seed: case.seed,
                        n_partitions: parts,
                        initial_infections: case.initial_infections,
                        record_transitions: true,
                        saturation_threshold: theta,
                        ..Default::default()
                    },
                );
                let res = sim.run();
                assert!(res.output.total_infections() > 0, "{}: no epidemic", case.name);
                outputs.push(fnv1a(serde_json::to_string(&res.output).unwrap().as_bytes()));
                stats[pi][ti] = fnv1a(serde_json::to_string(&res.stats).unwrap().as_bytes());
            }
        }
        assert!(
            outputs.iter().all(|&d| d == outputs[0]),
            "{}: output depends on partitions or θ: {outputs:x?}",
            case.name
        );
        ok &= outputs[0] == case.output && stats == case.stats;
        let rows: Vec<String> = stats
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        report.push_str(&format!(
            "{}: output: 0x{:016x}, stats: [{}]\n",
            case.name,
            outputs[0],
            rows.join(", ")
        ));
    }
    assert!(ok, "engine digests changed; actual:\n{report}");
}

/// Ticks the resume case interrupts at: before the first tick, after
/// the seeding tick, and after both `SetHealth` interventions fired.
const RESUME_TICKS: [u32; 3] = [0, 1, 20];

#[test]
fn resume_digests_are_pinned() {
    // The uninterrupted run's output digest and its θ = 0.75 stats
    // digest: a restart is byte-identical to never stopping.
    const EXPECTED: (u64, u64) = (0x1e6376f15e8526a7, 0xf46500bf9775e8e3);
    let case = engine_cases().into_iter().find(|c| c.name == "set_health").expect("case exists");
    let config = |ticks: u32, parts: usize| SimConfig {
        ticks,
        seed: case.seed,
        n_partitions: parts,
        initial_infections: case.initial_infections,
        record_transitions: true,
        ..Default::default()
    };
    let mut report = String::new();
    let mut ok = true;
    for parts in [1, 4] {
        let ctx = context(&case.net, parts);
        for k in RESUME_TICKS {
            let mut interrupted = Simulation::new_with_context(
                ctx.clone(),
                sir_model(case.beta, case.infectious_days),
                (case.interventions)(),
                config(k, parts),
            );
            interrupted.run();
            let snap = SimSnapshot::decode(&interrupted.snapshot().encode())
                .expect("snapshot survives encode/decode");
            let mut resumed = Simulation::resume_with_context(
                ctx.clone(),
                sir_model(case.beta, case.infectious_days),
                (case.interventions)(),
                config(case.ticks, parts),
                &snap,
            )
            .expect("snapshot matches the simulation it came from");
            let res = resumed.run();
            let actual = (
                fnv1a(serde_json::to_string(&res.output).unwrap().as_bytes()),
                fnv1a(serde_json::to_string(&res.stats).unwrap().as_bytes()),
            );
            ok &= actual == EXPECTED;
            report.push_str(&format!(
                "{parts} partitions, interrupt at {k}: (0x{:016x}, 0x{:016x})\n",
                actual.0, actual.1
            ));
        }
    }
    assert!(ok, "resume digests changed; actual (output, stats):\n{report}");
}

fn remote_kill(workload: WorkloadSpec, failover: bool) -> CombinedWorkflow {
    CombinedWorkflow {
        workload,
        faults: FaultPlan {
            seed: 42,
            node_failures: vec![NodeFailure { at_secs: 60.0, nodes: 720 }],
            straggler_prob: 0.05,
            straggler_factor: 3.0,
            ..FaultPlan::default()
        },
        deadline: DeadlinePolicy { shed_cells: true },
        failover: if failover { FailoverPolicy::on() } else { FailoverPolicy::default() },
        ..Default::default()
    }
}

fn small() -> WorkloadSpec {
    WorkloadSpec { cells: 2, replicates: 2, ..WorkloadSpec::prediction() }
}

fn large() -> WorkloadSpec {
    WorkloadSpec { cells: 16, replicates: 8, ..WorkloadSpec::prediction() }
}

fn failed_over(run: &RunResult) -> usize {
    run.events.iter().filter(|e| matches!(e, EngineEvent::FailedOver { .. })).count()
}

/// Classic engine (no failover): a large night on a fifth of the
/// remote machine must shed cells.
fn classic_shed() -> RunResult {
    let reg = RegionRegistry::new();
    let mut wf = remote_kill(large(), false);
    wf.faults.node_failures = vec![NodeFailure { at_secs: 60.0, nodes: 576 }];
    let run = wf.engine(&reg, Scale::default()).run();
    assert!(!run.report.dropped_cells.is_empty(), "classic night must shed");
    run
}

/// Failover engine, a survivable node crash: the remote window fits
/// and nothing moves home.
fn failover_remote_fits() -> RunResult {
    let reg = RegionRegistry::new();
    let mut wf = remote_kill(small(), true);
    wf.faults.node_failures = vec![NodeFailure { at_secs: 600.0, nodes: 100 }];
    let run = wf.engine(&reg, Scale::default()).run();
    assert_eq!(failed_over(&run), 0, "remote fits, no failover");
    assert!(run.report.dropped_cells.is_empty());
    run
}

/// Failover engine, total remote loss on a night too large for the
/// home cluster: fail over, then shed at home.
fn failover_home_sheds() -> RunResult {
    let reg = RegionRegistry::new();
    let run = remote_kill(large(), true).engine(&reg, Scale::default()).run();
    assert_eq!(failed_over(&run), 1, "remote lost, failover to home");
    assert!(!run.report.dropped_cells.is_empty(), "home cannot fit the whole night");
    run
}

/// Failover engine with a hair-trigger remote breaker and a second
/// execute step: the first execute loses the remote cluster and trips
/// the breaker, so the second goes straight home without trying it.
fn breaker_open() -> RunResult {
    let reg = RegionRegistry::new();
    let mut wf = remote_kill(small(), true);
    wf.breaker = BreakerConfig { min_calls: 1, cooldown_secs: 1.0e9, ..Default::default() };
    let mut engine = wf.engine(&reg, Scale::default());
    let exec = engine
        .dag
        .steps
        .iter()
        .position(|s| s.kind == StepKind::SlurmExecute)
        .expect("nightly DAG has an execute step");
    engine.dag.add(StepSpec {
        name: "Slurm re-run".into(),
        site: Site::Remote,
        automated: true,
        kind: StepKind::SlurmExecute,
        deps: vec![exec],
        retry: RetryPolicy::none(),
    });
    let run = engine.run();
    assert_eq!(failed_over(&run), 2, "both execute steps run at home");
    run
}

/// A small night under link drops, slow links, database exhaustion and
/// task stragglers (seed 7: the config transfer straggles, the summary
/// transfer's first attempt drops, some regions' databases exhaust).
/// With failover on, restores also straggle and every breaker trips on
/// its first failure.
fn link_db_faults(failover: bool) -> CombinedWorkflow {
    let seed = 7;
    let mut wf = CombinedWorkflow {
        workload: small(),
        faults: FaultPlan {
            seed,
            link: LinkFaults { fail_prob: 0.4, seed, slow_prob: 0.5, slow_factor: 5.0 },
            db_exhaust_prob: 0.3,
            db_keep_fraction: 0.25,
            straggler_prob: 0.05,
            straggler_factor: 3.0,
            ..FaultPlan::default()
        },
        ..Default::default()
    };
    if failover {
        wf.failover = FailoverPolicy::on();
        wf.faults.db_slow_prob = 0.3;
        wf.faults.db_slow_factor = 6.0;
        wf.breaker = BreakerConfig { min_calls: 1, cooldown_secs: 1.0e9, ..Default::default() };
    }
    wf
}

/// Smallest per-region task bound the night's restore left.
fn min_db_bound(run: &RunResult) -> usize {
    run.journal
        .entries
        .iter()
        .find_map(|e| match &e.effect {
            StepEffect::DbRestore { bounds, .. } => bounds.iter().map(|&(_, b)| b).min(),
            _ => None,
        })
        .expect("nightly DAG restores databases")
}

/// Classic engine under link and database faults: a transfer is
/// retried and exhaustion shrinks a region's task bound.
fn classic_link_db_faults() -> RunResult {
    let reg = RegionRegistry::new();
    let wf = link_db_faults(false);
    let engine = wf.engine(&reg, Scale::default());
    let quiet_bound = engine.env.db_max_connections / engine.env.conns_per_task;
    let run = engine.run();
    let transfer_failures = run
        .events
        .iter()
        .filter(|e| {
            matches!(e, EngineEvent::AttemptFailed { step, .. }
            if matches!(engine.dag.steps[*step].kind, StepKind::Transfer { .. }))
        })
        .count();
    assert!(transfer_failures > 0, "a transfer must be retried");
    assert!(min_db_bound(&run) < quiet_bound, "exhaustion must shrink a bound");
    assert!(run.report.failed_steps.is_empty());
    run
}

/// Failover engine under the same faults plus straggling restores,
/// with hair-trigger breakers: slow attempts are hedged and calls
/// against tripped breakers are re-routed.
fn failover_hedge_reroute() -> RunResult {
    let reg = RegionRegistry::new();
    let run = link_db_faults(true).engine(&reg, Scale::default()).run();
    assert!(run.report.hedges > 0, "a straggling attempt must be hedged");
    assert!(run.report.reroutes > 0, "a tripped breaker must re-route");
    run
}

/// A named night and its pinned `(events, journal)` digests.
type Night = (&'static str, fn() -> RunResult, (u64, u64));

#[test]
fn orchestrator_digests_are_pinned() {
    let nights: [Night; 6] = [
        ("classic_shed", classic_shed, (0x6d95257759062d2f, 0xc112b445892cfbcb)),
        ("failover_remote_fits", failover_remote_fits, (0xbfa77b9fcb8fbe88, 0xd2d653bf251de5f4)),
        ("failover_home_sheds", failover_home_sheds, (0x349d4d018f89acd0, 0x6c3763b9b15dfa3d)),
        ("breaker_open", breaker_open, (0xe1e96d7d2415a1c6, 0xfdd01077f60830bc)),
        (
            "classic_link_db_faults",
            classic_link_db_faults,
            (0xb75cfe2a26395c8d, 0x7f5433c7557a0db9),
        ),
        (
            "failover_hedge_reroute",
            failover_hedge_reroute,
            (0x92692b4bfaf42fca, 0x270cbcb008e0f710),
        ),
    ];
    let mut report = String::new();
    let mut ok = true;
    for (name, night, expected) in nights {
        let run = night();
        let actual =
            (fnv1a(run.events_jsonl().as_bytes()), fnv1a(run.journal.to_jsonl().as_bytes()));
        ok &= actual == expected;
        report.push_str(&format!("{name}: (0x{:016x}, 0x{:016x})\n", actual.0, actual.1));
    }
    assert!(ok, "orchestrator digests changed; actual (events, journal):\n{report}");
}

/// Logistic "simulator" with a rate and a plateau parameter.
fn toy_sim(theta: &[f64], t_len: usize) -> Vec<f64> {
    let (rate, plateau) = (theta[0], theta[1]);
    (0..t_len).map(|t| plateau / (1.0 + (-rate * (t as f64 - 25.0)).exp())).collect()
}

/// FNV-1a over the bit patterns of every pinned posterior field.
fn posterior_digest(post: &Posterior) -> u64 {
    let mut bytes = Vec::new();
    let mut push = |x: f64| bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    for sample in &post.theta.samples {
        sample.iter().for_each(|&x| push(x));
    }
    push(post.theta.acceptance);
    push(post.theta.final_step);
    push(post.lambda_eps);
    push(post.lambda_delta);
    fnv1a(&bytes)
}

#[test]
fn calibration_digests_are_pinned() {
    const T_LEN: usize = 70;
    let space = ParamSpace::new(&[("rate", 0.05, 0.4), ("plateau", 4.0, 16.0)]);
    let designs = space.sample_lhs(50, 21);
    let outputs: Vec<Vec<f64>> = designs.iter().map(|d| toy_sim(d, T_LEN)).collect();
    let em = Emulator::fit(space, &designs, &outputs, 5, 3);
    let truth = toy_sim(&[0.22, 9.5], T_LEN);
    // A smooth bump the emulator cannot produce, so the discrepancy
    // term carries real mass.
    let bumped: Vec<f64> = truth
        .iter()
        .enumerate()
        .map(|(t, y)| y + 0.4 * (-0.5 * ((t as f64 - 45.0) / 8.0).powi(2)).exp())
        .collect();
    let cases: [(&str, &[f64], u64, u64); 2] = [
        ("exact_truth", &truth, 17, 0xaa03ee09a49bcd65),
        ("with_discrepancy", &bumped, 5, 0x19fe0de414223f64),
    ];
    let mut report = String::new();
    let mut ok = true;
    for (name, observed, seed, expected) in cases {
        let cal = GpmsaCalibration::new(
            &em,
            observed,
            GpmsaConfig {
                mcmc: MetropolisConfig { iterations: 400, burn_in: 100, seed },
                gibbs_sweeps: 2,
            },
        );
        assert_eq!(cal.p_delta(), 7, "t = 70 days gives the paper's p_δ = 7");
        let post = cal.run();
        assert_eq!(post.theta.samples.len(), 150, "{name}: kept samples");
        let actual = posterior_digest(&post);
        ok &= actual == expected;
        report.push_str(&format!(
            "{name}: 0x{actual:016x} (acceptance {}, final_step {}, λ_ε {}, λ_δ {})\n",
            post.theta.acceptance, post.theta.final_step, post.lambda_eps, post.lambda_delta
        ));
    }
    assert!(ok, "calibration digests changed; actual:\n{report}");
}

/// FNV-1a over every person, household, location and edge field of a
/// built region, floats as bit patterns.
fn region_digest(data: &RegionData) -> u64 {
    let mut bytes = Vec::new();
    for p in &data.population.persons {
        bytes.extend_from_slice(&p.id.to_le_bytes());
        bytes.extend_from_slice(&p.household.to_le_bytes());
        bytes.push(p.age);
        bytes.push(match p.gender {
            Gender::Female => 0,
            Gender::Male => 1,
        });
        bytes.extend_from_slice(&p.county.to_le_bytes());
        bytes.extend_from_slice(&p.home_x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.home_y.to_bits().to_le_bytes());
    }
    for members in &data.population.households {
        bytes.extend_from_slice(&(members.len() as u32).to_le_bytes());
        members.iter().for_each(|m| bytes.extend_from_slice(&m.to_le_bytes()));
    }
    for l in &data.locations.locations {
        bytes.extend_from_slice(&l.id.to_le_bytes());
        bytes.push(l.kind.serves().code());
        bytes.extend_from_slice(&l.county.to_le_bytes());
        for x in [l.x, l.y, l.weight] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    for e in &data.network.edges {
        bytes.extend_from_slice(&e.u.to_le_bytes());
        bytes.extend_from_slice(&e.v.to_le_bytes());
        bytes.extend_from_slice(&e.start.to_le_bytes());
        bytes.extend_from_slice(&e.duration.to_le_bytes());
        bytes.push(e.ctx_u.code());
        bytes.push(e.ctx_v.code());
        bytes.extend_from_slice(&e.weight.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn synthpop_digests_are_pinned() {
    let registry = RegionRegistry::new();
    let cases: [(&str, f64, u64, u64); 2] =
        [("DE", 100.0, 7, 0x501bb7288b9ad093), ("VA", 500.0, 11, 0xd45aaf6aabbc2c9e)];
    let mut report = String::new();
    let mut ok = true;
    for (abbrev, per, seed, expected) in cases {
        let region = registry.by_abbrev(abbrev).unwrap().id;
        let config = BuildConfig { scale: Scale::one_per(per), seed };
        let data = build_region(&registry, region, &config);
        let actual = region_digest(&data);
        ok &= actual == expected;
        report.push_str(&format!(
            "{abbrev} 1/{per}: 0x{actual:016x} ({} persons, {} households, {} locations, {} edges)\n",
            data.population.len(),
            data.population.households.len(),
            data.locations.len(),
            data.network.n_edges()
        ));
    }
    assert!(ok, "synthpop digests changed; actual:\n{report}");
}

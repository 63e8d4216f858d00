//! The deterministic discrete-event workflow engine.
//!
//! Steps execute in dependency order on a simulated wall clock: a step
//! starts at the latest end time of its dependencies, runs one or more
//! attempts under its retry policy (failed attempts cost their wasted
//! time plus an exponential backoff wait), and on completion appends a
//! write-ahead [`Journal`] entry and applies its [`StepEffect`] to the
//! cycle state. Everything is a pure function of the DAG, environment,
//! and fault plan, so two runs — or a run and its journal-resumed
//! continuation — produce identical reports.

use crate::breaker::{BreakerConfig, BreakerSet, BreakerState, Resource, ResourceCall};
use crate::faults::{fault_unit, FaultPlan};
use crate::journal::{Journal, JournalEntry, StepEffect};
use crate::nightly::NightlySpec;
use crate::step::{BytesSpec, Dag, StepId, StepKind, StepSpec};
use epiflow_hpcsim::cluster::{ClusterSpec, Site};
use epiflow_hpcsim::globus::{GlobusLink, Transfer};
use epiflow_hpcsim::schedule::{pack, PackAlgo};
use epiflow_hpcsim::slurm::{CheckpointPolicy, NodeFailure, SlurmSim, SlurmStats};
use epiflow_hpcsim::task::Task;
use epiflow_hpcsim::PopulationDb;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One timeline entry (Fig. 2's boxes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    pub label: String,
    pub site: Site,
    /// Seconds on the workflow clock (0 = cycle start).
    pub start_secs: f64,
    pub duration_secs: f64,
    /// Whether the step is automated (orange boxes in Fig. 2) or needs
    /// a human in the loop.
    pub automated: bool,
}

/// Render a Fig.-2-style timeline as text.
pub fn timeline_text(events: &[TimelineEvent]) -> String {
    let mut s = String::new();
    for e in events {
        let site = match e.site {
            Site::Home => "HOME  ",
            Site::Remote => "REMOTE",
        };
        let kind = if e.automated { "auto  " } else { "manual" };
        s.push_str(&format!(
            "[{site}] [{kind}] t+{:>7.0}s  ({:>7.0}s)  {}\n",
            e.start_secs, e.duration_secs, e.label
        ));
    }
    s
}

/// A cell shed by deadline-aware degradation, with exactly what was
/// dropped.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DroppedCell {
    pub cell: u32,
    /// Simulation tasks dropped with the cell.
    pub tasks: usize,
}

/// Deadline policy for the execute step. When shedding is on and the
/// packed workload cannot finish inside the remote window (counting
/// database startup and the projected aggregation time), the engine
/// sheds whole cells — highest cell index first, i.e. lowest priority —
/// until the remainder fits, and reports every shed cell by name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeadlinePolicy {
    pub shed_cells: bool,
}

/// Multiple of an attempt's quiet-path duration at which a hedge fires:
/// a transfer or restore still running past it gets a speculative
/// duplicate on the alternate resource (the fallback link, a standby
/// replica), and the step completes at whichever finishes first. A
/// cheap stand-in for the p99-latency triggers of production
/// hedged-request schemes.
const HEDGE_LATENCY_FACTOR: f64 = 3.0;

/// Cross-cluster failover policy. Disabled (the default) is the classic
/// engine: transfers and restores run the same attempt bodies, but no
/// breaker call is recorded and no hedge fires, so every breaker stays
/// closed, nothing is re-routed, and the journal's `calls` stay empty.
///
/// Enabled, the engine degrades by *relocating* instead of shedding:
/// - an execute step that cannot finish inside the remote window (node
///   failures, or the remote breaker already open) is re-planned onto
///   the home cluster at [`ClusterSpec::failover_slowdown`] × task
///   runtimes, and its downstream collect/transfer steps follow it
///   there;
/// - transfer and restore calls against a resource whose breaker is
///   open are re-routed to the fallback link / standby replicas;
/// - attempts running past 3× their quiet-path duration are hedged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FailoverPolicy {
    pub enabled: bool,
}

impl FailoverPolicy {
    /// Failover on: breakers, re-routing, hedging and relocation.
    pub fn on() -> Self {
        FailoverPolicy { enabled: true }
    }
}

/// Execution environment the typed steps run against.
#[derive(Clone, Debug)]
pub struct CycleEnv {
    pub link: GlobusLink,
    pub remote: ClusterSpec,
    /// The home cluster — failover target for execute steps.
    pub home: ClusterSpec,
    /// Slower secondary path between the sites (a commodity route used
    /// when the primary link's breaker is open, and as the hedge
    /// target). Assumed fault-free: the injected link faults model the
    /// primary research-network path.
    pub fallback_link: GlobusLink,
    pub algo: PackAlgo,
    /// Per-region database connection bound B(r).
    pub db_max_connections: usize,
    /// Database connections each running job holds.
    pub conns_per_task: usize,
    /// The night's task list.
    pub tasks: Vec<Task>,
    /// `(region, person-trait rows)` for every region in `tasks`.
    pub region_rows: Vec<(usize, u64)>,
}

/// Database connections each running job holds.
const CONNS_PER_TASK: usize = 4;

impl CycleEnv {
    /// The paper's deployment (Table II) for one night: Bridges as the
    /// remote cluster, Rivanna as home, the Globus research link and a
    /// slow commodity fallback, and per-region database snapshots.
    pub fn new(spec: &NightlySpec, tasks: Vec<Task>, region_rows: Vec<(usize, u64)>) -> Self {
        CycleEnv {
            link: GlobusLink::default(),
            remote: ClusterSpec::bridges(),
            home: ClusterSpec::rivanna(),
            fallback_link: GlobusLink { bandwidth_bps: 50e6, overhead_secs: 60.0 },
            algo: spec.algo,
            // One PostgreSQL server per region on its own node; with
            // `CONNS_PER_TASK` = 4 this allows 16 concurrent jobs per
            // region, enough that the machine (not the databases) is
            // the binding constraint on all-state nights.
            db_max_connections: 64,
            conns_per_task: CONNS_PER_TASK,
            tasks,
            region_rows,
        }
    }

    /// An environment for synthetic DAGs (tests, benches) that use no
    /// nightly-specific steps.
    pub fn synthetic() -> Self {
        CycleEnv::new(&NightlySpec::default(), Vec::new(), Vec::new())
    }
}

/// Observability stream: everything the engine does, in order. The
/// timeline and journal are both derived from these. Serializes to one
/// JSON object per event (see [`RunResult::events_jsonl`]).
#[derive(Clone, Debug, PartialEq, Serialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum EngineEvent {
    StepStarted {
        step: StepId,
        name: String,
        at_secs: f64,
    },
    AttemptFailed {
        step: StepId,
        attempt: u32,
        wasted_secs: f64,
        backoff_secs: f64,
    },
    StepCompleted {
        step: StepId,
        attempts: u32,
        start_secs: f64,
        end_secs: f64,
    },
    StepFailed {
        step: StepId,
        attempts: u32,
        at_secs: f64,
    },
    /// Step restored from the journal without re-execution.
    StepReplayed {
        step: StepId,
        end_secs: f64,
    },
    CellsShed {
        step: StepId,
        dropped: Vec<DroppedCell>,
    },
    /// A resource's circuit breaker changed state.
    BreakerTransition {
        resource: Resource,
        at_secs: f64,
        from: BreakerState,
        to: BreakerState,
    },
    /// A step was re-planned onto the other cluster.
    FailedOver {
        step: StepId,
        from: Site,
        to: Site,
        at_secs: f64,
    },
    /// A call was sent to the alternate resource because the primary's
    /// breaker was open.
    Rerouted {
        step: StepId,
        resource: Resource,
        at_secs: f64,
    },
    /// A speculative duplicate attempt was launched on the alternate
    /// resource; `won` is whether it beat the primary.
    HedgeFired {
        step: StepId,
        resource: Resource,
        at_secs: f64,
        won: bool,
    },
}

/// Final report of one cycle.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CycleReport {
    pub timeline: Vec<TimelineEvent>,
    /// Transfers in completion order (the Table-II ledger rows).
    pub transfers: Vec<Transfer>,
    pub slurm: Option<SlurmStats>,
    /// Tasks in the night's workload before any shedding.
    pub n_tasks: usize,
    pub raw_output_bytes: u64,
    pub summary_bytes: u64,
    /// Cells shed by deadline degradation, in shed order.
    pub dropped_cells: Vec<DroppedCell>,
    /// Steps that exhausted their retry policy.
    pub failed_steps: Vec<String>,
    /// Steps never run because an upstream step failed.
    pub blocked_steps: Vec<String>,
    /// Failed attempts across all steps (replayed ones included).
    pub total_retries: u32,
    /// Steps the failover policy re-planned onto the other cluster, in
    /// completion order (derived from the journal, so resumed runs
    /// report identically).
    pub failover_steps: Vec<String>,
    /// Speculative duplicate attempts launched by the hedge policy.
    pub hedges: u32,
    /// Calls re-routed to alternate resources by open breakers.
    pub reroutes: u32,
    /// Whether the remote-side work fit the nightly window (and no
    /// step failed outright).
    pub within_window: bool,
    /// End-to-end cycle duration in seconds.
    pub cycle_secs: f64,
}

impl CycleReport {
    pub fn timeline_text(&self) -> String {
        timeline_text(&self.timeline)
    }

    /// Resilience/robustness counters for the cycle, all derived from
    /// journaled state (identical for a run and any of its resumes).
    pub fn counters(&self) -> EventCounters {
        EventCounters {
            retries: self.total_retries,
            preemptions: self.slurm.as_ref().map(|s| s.preempted).unwrap_or(0),
            failovers: self.failover_steps.len() as u32,
            hedges: self.hedges,
            reroutes: self.reroutes,
            shed_cells: self.dropped_cells.len() as u32,
            failed_steps: self.failed_steps.len() as u32,
            node_seconds_lost: self.slurm.as_ref().map(|s| s.lost_node_secs).unwrap_or(0.0),
            node_seconds_recovered: self
                .slurm
                .as_ref()
                .map(|s| s.recovered_node_secs)
                .unwrap_or(0.0),
        }
    }
}

/// Summary counters appended to the JSONL event export.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct EventCounters {
    pub retries: u32,
    pub preemptions: usize,
    pub failovers: u32,
    pub hedges: u32,
    pub reroutes: u32,
    pub shed_cells: u32,
    pub failed_steps: u32,
    /// Node-seconds destroyed by preemption (recomputed work plus any
    /// final checkpoint-write overhead).
    pub node_seconds_lost: f64,
    /// Node-seconds preserved across preemptions by tick-level
    /// checkpoints (0 with checkpointing disabled).
    pub node_seconds_recovered: f64,
}

/// Outcome of [`Engine::run`] / [`Engine::resume`].
#[derive(Clone, Debug)]
pub struct RunResult {
    pub report: CycleReport,
    /// Write-ahead journal of the full run (replayed prefix included),
    /// ready to persist.
    pub journal: Journal,
    pub events: Vec<EngineEvent>,
    /// Steps executed live this run — journal replays are excluded,
    /// which is how tests prove resume does not redo finished work.
    pub live_steps: Vec<StepId>,
}

impl RunResult {
    /// The event stream as JSON lines — one object per [`EngineEvent`]
    /// tagged by `type`, closed by a `type: "counters"` summary record
    /// (retries, preemptions, failovers, hedges, re-routes, shed
    /// cells). This is the machine-readable observability feed a
    /// monitoring stack would tail.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde_json::to_string(e).expect("event serializes infallibly"));
            out.push('\n');
        }
        let counters =
            serde_json::to_string(&self.report.counters()).expect("counters serialize infallibly");
        // Splice the tag into the counters object so every line in the
        // stream is dispatchable on "type".
        out.push_str(&format!("{{\"type\":\"counters\",{}\n", &counters[1..]));
        out
    }
}

/// Mutable cycle state the step effects build up.
#[derive(Default)]
struct CycleState {
    transfers: Vec<Transfer>,
    db_secs: f64,
    db_bounds: HashMap<usize, usize>,
    slurm: Option<SlurmStats>,
    agg_secs: f64,
    raw_output_bytes: u64,
    summary_bytes: u64,
    dropped: Vec<DroppedCell>,
    /// Site the execute step actually ran on; downstream collect and
    /// transfer steps re-plan from this after a failover.
    exec_site: Option<Site>,
}

/// What one pack → Slurm → shed loop delivered
/// ([`Engine::execute_on`]).
struct Execution {
    stats: SlurmStats,
    /// The tasks that were submitted (the input minus shed cells).
    kept: Vec<Task>,
    dropped: Vec<DroppedCell>,
    /// Whether the last run fit the window.
    fits: bool,
}

/// One successful attempt.
struct AttemptOk {
    duration_secs: f64,
    effect: StepEffect,
    /// Completion-time label override (e.g. the execute step reports
    /// its completed-task count).
    label: Option<String>,
}

/// Per-step accumulator for the resilience layer: resource calls (for
/// the journal and breaker replay), failover/hedge/reroute outcomes,
/// and the events they raised — carried across the step's attempts.
struct StepCtx {
    step: StepId,
    /// Whether the failover policy guards this step's resources. The
    /// one gate for transfers and restores: unguarded, no breaker call
    /// is recorded and no hedge fires.
    guarded: bool,
    calls: Vec<ResourceCall>,
    failover: Option<Site>,
    hedges: u32,
    reroutes: u32,
    events: Vec<EngineEvent>,
}

impl StepCtx {
    fn new(step: StepId, guarded: bool) -> Self {
        StepCtx {
            step,
            guarded,
            calls: Vec::new(),
            failover: None,
            hedges: 0,
            reroutes: 0,
            events: Vec::new(),
        }
    }

    /// Record a call against a guarded resource: journal it, feed the
    /// breaker, and surface any breaker transition as an event. Does
    /// nothing on an unguarded step, so its breakers stay closed.
    fn record_call(
        &mut self,
        breakers: &mut BreakerSet,
        resource: Resource,
        at_secs: f64,
        success: bool,
    ) {
        if !self.guarded {
            return;
        }
        self.calls.push(ResourceCall { resource, at_secs, success });
        if let Some((from, to)) = breakers.get_mut(resource).record(at_secs, success) {
            self.events.push(EngineEvent::BreakerTransition { resource, at_secs, from, to });
        }
    }

    /// Seconds into an attempt whose quiet-path duration is `nominal`
    /// at which a straggling attempt is hedged; `None` on an unguarded
    /// step, which never hedges.
    fn hedge_trigger(&self, nominal: f64) -> Option<f64> {
        self.guarded.then_some(HEDGE_LATENCY_FACTOR * nominal)
    }
}

/// The workflow engine: DAG + environment + fault plan + deadline and
/// failover policies.
#[derive(Clone, Debug)]
pub struct Engine {
    pub dag: Dag,
    pub env: CycleEnv,
    pub faults: FaultPlan,
    pub deadline: DeadlinePolicy,
    pub failover: FailoverPolicy,
    pub breaker: BreakerConfig,
    /// Tick-level checkpoint/restart policy applied to every Slurm
    /// execution (disabled by default — preempted tasks restart from
    /// scratch, the classic behaviour).
    pub checkpoint: CheckpointPolicy,
}

impl Engine {
    /// A quiet engine (no faults, no shedding, no failover) over a DAG.
    pub fn new(dag: Dag, env: CycleEnv) -> Self {
        Engine {
            dag,
            env,
            faults: FaultPlan::default(),
            deadline: DeadlinePolicy::default(),
            failover: FailoverPolicy::default(),
            breaker: BreakerConfig::default(),
            checkpoint: CheckpointPolicy::default(),
        }
    }

    /// A Slurm simulator on `cluster` carrying this engine's checkpoint
    /// policy.
    fn slurm_sim(&self, cluster: ClusterSpec) -> SlurmSim {
        let mut sim = SlurmSim::new(cluster);
        sim.checkpoint = self.checkpoint;
        sim
    }

    /// Run the cycle from scratch.
    pub fn run(&self) -> RunResult {
        self.resume(&Journal::default())
    }

    /// Run the cycle, replaying completed steps from `journal` instead
    /// of re-executing them, then continuing live.
    pub fn resume(&self, journal: &Journal) -> RunResult {
        let replayed: HashMap<StepId, &JournalEntry> =
            journal.entries.iter().map(|e| (e.step, e)).collect();
        let mut state = CycleState::default();
        let mut breakers = BreakerSet::new(self.breaker);
        let mut events: Vec<EngineEvent> = Vec::new();
        let mut out = Journal::default();
        let mut live_steps: Vec<StepId> = Vec::new();
        let mut timeline: Vec<TimelineEvent> = Vec::new();
        let mut end_times: Vec<Option<f64>> = vec![None; self.dag.len()];
        let mut failed_steps: Vec<String> = Vec::new();
        let mut blocked_steps: Vec<String> = Vec::new();
        let mut total_retries = 0u32;

        for (id, spec) in self.dag.steps.iter().enumerate() {
            if spec.deps.iter().any(|&d| end_times[d].is_none()) {
                blocked_steps.push(spec.name.clone());
                continue;
            }
            let start =
                spec.deps.iter().map(|&d| end_times[d].expect("dep end")).fold(0.0, f64::max);

            if let Some(entry) = replayed.get(&id) {
                // Checkpoint replay: apply the recorded effect and feed
                // the recorded resource calls to the breakers (so
                // breaker state at the first live step matches the
                // uninterrupted run), skipping execution entirely.
                apply_effect(&entry.effect, &mut state);
                breakers.replay(&entry.calls);
                let end = entry.event.start_secs + entry.event.duration_secs;
                end_times[id] = Some(end);
                // Saturating: the count comes from bytes on disk.
                total_retries = total_retries.saturating_add(entry.attempts.saturating_sub(1));
                timeline.push(entry.event.clone());
                out.entries.push((*entry).clone());
                events.push(EngineEvent::StepReplayed { step: id, end_secs: end });
                continue;
            }

            events.push(EngineEvent::StepStarted {
                step: id,
                name: spec.name.clone(),
                at_secs: start,
            });
            let mut ctx = StepCtx::new(id, self.failover.enabled);
            let mut attempt = 0u32;
            let mut elapsed = 0.0f64;
            let mut wasted_total = 0.0f64;
            let outcome = loop {
                let res = self.exec_attempt(
                    spec,
                    attempt,
                    start + elapsed,
                    &state,
                    &mut breakers,
                    &mut ctx,
                );
                events.append(&mut ctx.events);
                match res {
                    Ok(ok) => break Some((ok, attempt + 1)),
                    Err(wasted) => {
                        wasted_total += wasted;
                        elapsed += wasted;
                        total_retries = total_retries.saturating_add(1);
                        let last = attempt + 1 >= spec.retry.max_attempts();
                        let backoff = if last { 0.0 } else { spec.retry.backoff_secs(attempt) };
                        events.push(EngineEvent::AttemptFailed {
                            step: id,
                            attempt,
                            wasted_secs: wasted,
                            backoff_secs: backoff,
                        });
                        if last {
                            break None;
                        }
                        elapsed += backoff;
                        attempt += 1;
                    }
                }
            };

            match outcome {
                None => {
                    failed_steps.push(spec.name.clone());
                    events.push(EngineEvent::StepFailed {
                        step: id,
                        attempts: spec.retry.max_attempts(),
                        at_secs: start + elapsed,
                    });
                }
                Some((ok, attempts)) => {
                    apply_effect(&ok.effect, &mut state);
                    if let StepEffect::Execution { dropped, .. } = &ok.effect {
                        if !dropped.is_empty() {
                            events.push(EngineEvent::CellsShed {
                                step: id,
                                dropped: dropped.clone(),
                            });
                        }
                    }
                    let duration = elapsed + ok.duration_secs;
                    let event = TimelineEvent {
                        label: ok.label.unwrap_or_else(|| spec.name.clone()),
                        site: ctx.failover.unwrap_or(spec.site),
                        start_secs: start,
                        duration_secs: duration,
                        automated: spec.automated,
                    };
                    end_times[id] = Some(start + duration);
                    timeline.push(event.clone());
                    // Snapshot lineage for the step attempt: which
                    // tasks were preempted and the tick each resumes
                    // from (empty unless checkpointing recovered work).
                    let snapshots = match &ok.effect {
                        StepEffect::Execution { slurm, .. } => slurm.resume_log.clone(),
                        _ => Vec::new(),
                    };
                    out.entries.push(JournalEntry {
                        step: id,
                        attempts,
                        wasted_secs: wasted_total,
                        event,
                        effect: ok.effect,
                        calls: ctx.calls,
                        failover: ctx.failover,
                        hedges: ctx.hedges,
                        reroutes: ctx.reroutes,
                        snapshots,
                    });
                    events.push(EngineEvent::StepCompleted {
                        step: id,
                        attempts,
                        start_secs: start,
                        end_secs: start + duration,
                    });
                    live_steps.push(id);
                }
            }
        }

        // Stable sort: ties keep step-id order, so a pure chain matches
        // the hand-rolled sequence exactly.
        timeline.sort_by(|a, b| a.start_secs.partial_cmp(&b.start_secs).expect("NaN start"));
        let cycle_secs = end_times.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        let window = self.env.remote.window_secs() as f64;
        let within_window = failed_steps.is_empty()
            && blocked_steps.is_empty()
            && match &state.slurm {
                Some(s) => fits_window(state.db_secs, s, state.agg_secs, window),
                None => true,
            };
        // Resilience tallies come from the journal, not the event
        // stream, so a resumed run (whose replayed steps emit no
        // failover/hedge events) reports identically to the full run.
        let failover_steps: Vec<String> = out
            .entries
            .iter()
            .filter(|e| e.failover.is_some())
            .map(|e| self.dag.steps[e.step].name.clone())
            .collect();
        let hedges = out.entries.iter().fold(0u32, |n, e| n.saturating_add(e.hedges));
        let reroutes = out.entries.iter().fold(0u32, |n, e| n.saturating_add(e.reroutes));
        RunResult {
            report: CycleReport {
                timeline,
                transfers: state.transfers,
                slurm: state.slurm,
                n_tasks: self.env.tasks.len(),
                raw_output_bytes: state.raw_output_bytes,
                summary_bytes: state.summary_bytes,
                dropped_cells: state.dropped,
                failed_steps,
                blocked_steps,
                total_retries,
                failover_steps,
                hedges,
                reroutes,
                within_window,
                cycle_secs,
            },
            journal: out,
            events,
            live_steps,
        }
    }

    /// Execute one attempt of a step. `Ok` carries the attempt duration
    /// and effect; `Err` carries the wasted seconds. Each kind has one
    /// attempt body for both modes: transfers and restores consult the
    /// failover policy only through the [`StepCtx`] gate, and the
    /// execute step branches on it because shedding on the remote versus
    /// relocating home is the policy itself.
    fn exec_attempt(
        &self,
        spec: &StepSpec,
        attempt: u32,
        attempt_start: f64,
        state: &CycleState,
        breakers: &mut BreakerSet,
        ctx: &mut StepCtx,
    ) -> Result<AttemptOk, f64> {
        match &spec.kind {
            StepKind::Fixed { secs } => {
                Ok(AttemptOk { duration_secs: *secs, effect: StepEffect::None, label: None })
            }
            StepKind::Flaky { secs, fail_attempts, wasted_secs } => {
                if attempt < *fail_attempts {
                    Err(*wasted_secs)
                } else {
                    Ok(AttemptOk { duration_secs: *secs, effect: StepEffect::None, label: None })
                }
            }
            StepKind::Transfer { from, to, bytes, label } => {
                let n = match bytes {
                    BytesSpec::Const { bytes } => *bytes,
                    BytesSpec::Summaries => state.summary_bytes,
                };
                self.exec_transfer(
                    (*from, *to, n, label),
                    attempt,
                    attempt_start,
                    state,
                    breakers,
                    ctx,
                )
            }
            StepKind::DbRestore => Ok(self.exec_db_restore(attempt_start, breakers, ctx)),
            StepKind::SlurmExecute => Ok(self.exec_slurm(attempt_start, state, breakers, ctx)),
            StepKind::Collect => {
                // Aggregation runs where the outputs are; after an
                // execute failover that is the home cluster (classic
                // runs always see Remote here, so nothing changes).
                let nodes = match state.exec_site {
                    Some(Site::Home) => {
                        if spec.site == Site::Remote {
                            ctx.failover = Some(Site::Home);
                        }
                        self.env.home.nodes
                    }
                    _ => self.env.remote.nodes,
                };
                let busy = state.slurm.as_ref().map(|s| s.busy_node_secs).unwrap_or(0.0);
                let agg = aggregation_secs(busy, nodes);
                Ok(AttemptOk {
                    duration_secs: agg,
                    effect: StepEffect::Collect { agg_secs: agg },
                    label: None,
                })
            }
        }
    }

    /// One transfer attempt over the primary link, with localization
    /// after an execute failover, re-routing around an open link
    /// breaker, and hedging of straggling attempts.
    fn exec_transfer(
        &self,
        (from, to, n, label): (Site, Site, u64, &str),
        attempt: u32,
        attempt_start: f64,
        state: &CycleState,
        breakers: &mut BreakerSet,
        ctx: &mut StepCtx,
    ) -> Result<AttemptOk, f64> {
        let done = |from, to, label, duration_secs| AttemptOk {
            duration_secs,
            effect: StepEffect::Transfer {
                transfer: Transfer {
                    from,
                    to,
                    bytes: n,
                    label,
                    start_secs: attempt_start,
                    duration_secs,
                },
            },
            label: None,
        };
        // Localization: after an execute failover the outputs are
        // already on the home cluster, so the return transfer collapses
        // to a local staging copy (disk-to-disk, no WAN, no WAN
        // faults).
        if from == Site::Remote && state.exec_site == Some(Site::Home) {
            let local = GlobusLink { bandwidth_bps: 1.0e9, overhead_secs: 5.0 };
            ctx.failover = Some(Site::Home);
            let label = format!("{label} (local staging)");
            return Ok(done(Site::Home, Site::Home, label, local.duration_secs(n)));
        }

        if !breakers.get(Resource::GlobusLink).admits(attempt_start) {
            // Primary path's breaker open: take the slow-but-reliable
            // fallback route. No breaker call is recorded — the
            // fallback says nothing about the primary's health.
            ctx.reroutes += 1;
            ctx.events.push(EngineEvent::Rerouted {
                step: ctx.step,
                resource: Resource::GlobusLink,
                at_secs: attempt_start,
            });
            let label = format!("{label} (fallback route)");
            return Ok(done(from, to, label, self.env.fallback_link.duration_secs(n)));
        }

        match self.env.link.attempt(&self.faults.link, label, attempt, n) {
            Ok(duration) => {
                ctx.record_call(breakers, Resource::GlobusLink, attempt_start + duration, true);
                let nominal = self.env.link.duration_secs(n);
                let Some(trigger) = ctx.hedge_trigger(nominal).filter(|&t| duration > t) else {
                    return Ok(done(from, to, label.to_string(), duration));
                };
                // The attempt is straggling: duplicate it on the fallback
                // route and take the earlier finisher.
                ctx.hedges += 1;
                let hedged = trigger + self.env.fallback_link.duration_secs(n);
                let won = hedged < duration;
                ctx.events.push(EngineEvent::HedgeFired {
                    step: ctx.step,
                    resource: Resource::GlobusLink,
                    at_secs: attempt_start + trigger,
                    won,
                });
                Ok(if won {
                    done(from, to, format!("{label} (hedged)"), hedged)
                } else {
                    done(from, to, label.to_string(), duration)
                })
            }
            Err(wasted) => {
                ctx.record_call(breakers, Resource::GlobusLink, attempt_start + wasted, false);
                Err(wasted)
            }
        }
    }

    /// Snapshot restore across the regions: exhaustion and straggler
    /// faults per region, per-region health calls, standby replicas
    /// when the database breaker is open, hedged restores for
    /// stragglers.
    fn exec_db_restore(
        &self,
        attempt_start: f64,
        breakers: &mut BreakerSet,
        ctx: &mut StepCtx,
    ) -> AttemptOk {
        let conns = self.env.conns_per_task;
        let mut bounds = Vec::with_capacity(self.env.region_rows.len());
        let mut secs = 0.0f64;
        for &(region, rows) in &self.env.region_rows {
            let standby = PopulationDb::standby(region, rows, self.env.db_max_connections);
            if !breakers.get(Resource::PopulationDb).admits(attempt_start) {
                // Fleet breaker open: restore this region on its cold
                // standby from the start. The standby has a clean
                // connection bound and is off the faulted nodes.
                ctx.reroutes += 1;
                ctx.events.push(EngineEvent::Rerouted {
                    step: ctx.step,
                    resource: Resource::PopulationDb,
                    at_secs: attempt_start,
                });
                secs = secs.max(standby.startup_secs(true));
                bounds.push((region, standby.task_bound(conns)));
                continue;
            }
            let mut db = PopulationDb::new(region, rows, self.env.db_max_connections);
            let exhausted = self.faults.db_exhaust_prob > 0.0
                && fault_unit(self.faults.seed, "db-exhaust", region as u64)
                    < self.faults.db_exhaust_prob;
            if exhausted {
                db.exhaust(self.faults.db_keep_fraction);
            }
            ctx.record_call(breakers, Resource::PopulationDb, attempt_start, !exhausted);
            let nominal = db.startup_secs(true);
            let mut restore = nominal;
            if self.faults.db_slow_prob > 0.0
                && fault_unit(self.faults.seed, "db-slow", region as u64) < self.faults.db_slow_prob
            {
                restore *= self.faults.db_slow_factor;
            }
            let mut bound = db.task_bound(conns);
            if let Some(trigger) = ctx.hedge_trigger(nominal).filter(|&t| restore > t) {
                // Straggling restore: race a standby restore started at
                // the trigger point.
                ctx.hedges += 1;
                let hedged = trigger + standby.startup_secs(true);
                let won = hedged < restore;
                ctx.events.push(EngineEvent::HedgeFired {
                    step: ctx.step,
                    resource: Resource::PopulationDb,
                    at_secs: attempt_start + trigger,
                    won,
                });
                if won {
                    restore = hedged;
                    bound = standby.task_bound(conns);
                }
            }
            secs = secs.max(restore);
            bounds.push((region, bound));
        }
        AttemptOk {
            duration_secs: secs,
            effect: StepEffect::DbRestore { startup_secs: secs, bounds },
            label: None,
        }
    }

    /// The night's tasks with straggler faults applied.
    fn night_tasks(&self) -> Vec<Task> {
        let mut tasks: Vec<Task> = self.env.tasks.clone();
        if self.faults.straggler_prob > 0.0 {
            for t in &mut tasks {
                if fault_unit(self.faults.seed, "straggler", t.id as u64)
                    < self.faults.straggler_prob
                {
                    t.actual_secs *= self.faults.straggler_factor;
                }
            }
        }
        tasks
    }

    /// One pack → Slurm → shed loop on `cluster`: pack `tasks`, run
    /// them under Slurm with `node_failures`, and test whether the night
    /// fits the remote window after `spent_secs` of earlier work plus
    /// the projected aggregation. A miss with `shed` set drops the
    /// lowest-priority (highest-index) remaining cell and tries again;
    /// without it the first run is final.
    fn execute_on(
        &self,
        cluster: &ClusterSpec,
        tasks: Vec<Task>,
        node_failures: &[NodeFailure],
        spent_secs: f64,
        shed: bool,
        db_bounds: &HashMap<usize, usize>,
    ) -> Execution {
        let default_bound = self.env.db_max_connections / self.env.conns_per_task.max(1);
        let bound_of = |r: usize| db_bounds.get(&r).copied().unwrap_or(default_bound).max(1);
        let window = self.env.remote.window_secs() as f64;
        let mut kept = tasks;
        let mut dropped: Vec<DroppedCell> = Vec::new();
        loop {
            let plan = pack(&kept, cluster.nodes, bound_of, self.env.algo);
            let order: Vec<usize> =
                plan.levels.iter().flat_map(|l| l.tasks.iter().copied()).collect();
            let stats = self.slurm_sim(cluster.clone()).run_with_faults(
                &kept,
                &order,
                bound_of,
                node_failures,
            );
            let agg = aggregation_secs(stats.busy_node_secs, cluster.nodes);
            let fits = fits_window(spent_secs, &stats, agg, window);
            let next_shed = kept.iter().map(|t| t.cell).max().filter(|_| shed && !fits);
            let Some(cell) = next_shed else {
                return Execution { stats, kept, dropped, fits };
            };
            let n_before = kept.len();
            kept.retain(|t| t.cell != cell);
            dropped.push(DroppedCell { cell, tasks: n_before - kept.len() });
        }
    }

    /// The execute step. Classic mode runs the night on the remote
    /// cluster, shedding cells on a window miss. With failover on it
    /// tries the remote window first (when its breaker admits), and
    /// instead of shedding on a miss, re-plans the whole night onto the
    /// home cluster at failover slowdown — shedding there only as a
    /// last resort.
    fn exec_slurm(
        &self,
        step_start: f64,
        state: &CycleState,
        breakers: &mut BreakerSet,
        ctx: &mut StepCtx,
    ) -> AttemptOk {
        let remote = &self.env.remote;
        let failures = &self.faults.node_failures;
        let shed = self.deadline.shed_cells;
        let mut tasks = self.night_tasks();
        if !self.failover.enabled {
            let run =
                self.execute_on(remote, tasks, failures, state.db_secs, shed, &state.db_bounds);
            return self.finish_slurm(run, Site::Remote, 0.0);
        }

        // Detection latency charged to a failover after a mid-window
        // loss: the operator notices at the first node failure.
        let mut wasted = 0.0f64;
        if breakers.get(Resource::RemoteCluster).admits(step_start) {
            let run =
                self.execute_on(remote, tasks, failures, state.db_secs, false, &state.db_bounds);
            let window = remote.window_secs() as f64;
            ctx.record_call(
                breakers,
                Resource::RemoteCluster,
                step_start + run.stats.makespan_secs.min(window),
                run.fits && run.stats.preempted == 0,
            );
            if run.fits {
                return self.finish_slurm(run, Site::Remote, 0.0);
            }
            if run.stats.preempted > 0 {
                wasted = failures
                    .iter()
                    .map(|f| f.at_secs)
                    .fold(f64::INFINITY, f64::min)
                    .clamp(0.0, run.stats.makespan_secs);
            }
            // Unshed, so these are the night's tasks unchanged.
            tasks = run.kept;
        }
        // Otherwise (breaker already open, or the remote night is
        // lost): re-plan on home. Node failures are not carried over —
        // they modeled the remote cluster's hardware.
        ctx.failover = Some(Site::Home);
        ctx.events.push(EngineEvent::FailedOver {
            step: ctx.step,
            from: Site::Remote,
            to: Site::Home,
            at_secs: step_start + wasted,
        });
        let slowdown = self.env.home.failover_slowdown(remote);
        for t in &mut tasks {
            t.actual_secs *= slowdown;
        }
        let spent = state.db_secs + wasted;
        let run = self.execute_on(&self.env.home, tasks, &[], spent, shed, &state.db_bounds);
        self.finish_slurm(run, Site::Home, wasted)
    }

    /// Shared execute-step epilogue: output volumes over the tasks that
    /// ran, the timeline label, and the journalable effect. `wasted` is
    /// folded into the reported makespan so the window check and the
    /// timeline agree on the night's true span.
    fn finish_slurm(&self, run: Execution, site: Site, wasted: f64) -> AttemptOk {
        let Execution { mut stats, kept, dropped, .. } = run;
        stats.makespan_secs += wasted;

        // Output volumes over tasks that ran (per completed simulation:
        // ~25% attack over the population, ~6 transitions/case, 24 B per
        // line; summaries per Table I shape).
        let region_pop: HashMap<usize, u64> = self.env.region_rows.iter().copied().collect();
        let mut raw_output_bytes = 0u64;
        let mut summary_bytes = 0u64;
        for (ti, t) in kept.iter().enumerate() {
            if stats.start_times[ti].is_none() {
                continue;
            }
            let pop = region_pop.get(&t.region).copied().unwrap_or(0);
            raw_output_bytes += (pop as f64 * 0.25 * 6.0 * 24.0) as u64;
            summary_bytes += 365 * 90 * 3 * 4;
        }

        let label =
            format!("Slurm job arrays: {} simulations ({} completed)", kept.len(), stats.completed);
        AttemptOk {
            duration_secs: stats.makespan_secs,
            effect: StepEffect::Execution {
                slurm: stats,
                raw_output_bytes,
                summary_bytes,
                dropped,
                site,
            },
            label: Some(label),
        }
    }
}

/// Post-simulation aggregation time for `busy_node_secs` of Slurm work
/// collected on a cluster of `nodes` nodes (at least a minute).
fn aggregation_secs(busy_node_secs: f64, nodes: usize) -> f64 {
    (busy_node_secs * 0.02 / nodes as f64).max(60.0)
}

/// Does a Slurm run fit the window: every task started, and `spent`
/// seconds of earlier work plus the makespan plus `agg_secs` of
/// aggregation end inside it? Evaluated as `spent + makespan + agg`
/// left to right, the order the journals were recorded with.
fn fits_window(spent: f64, stats: &SlurmStats, agg_secs: f64, window: f64) -> bool {
    stats.finished_all() && spent + stats.makespan_secs + agg_secs <= window
}

fn apply_effect(effect: &StepEffect, state: &mut CycleState) {
    match effect {
        StepEffect::None => {}
        StepEffect::Transfer { transfer } => state.transfers.push(transfer.clone()),
        StepEffect::DbRestore { startup_secs, bounds } => {
            state.db_secs = *startup_secs;
            state.db_bounds = bounds.iter().copied().collect();
        }
        StepEffect::Execution { slurm, raw_output_bytes, summary_bytes, dropped, site } => {
            state.slurm = Some(slurm.clone());
            state.raw_output_bytes = *raw_output_bytes;
            state.summary_bytes = *summary_bytes;
            state.dropped = dropped.clone();
            state.exec_site = Some(*site);
        }
        StepEffect::Collect { agg_secs } => state.agg_secs = *agg_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::RetryPolicy;

    fn fixed(name: &str, secs: f64, deps: Vec<StepId>) -> StepSpec {
        StepSpec {
            name: name.into(),
            site: Site::Home,
            automated: true,
            kind: StepKind::Fixed { secs },
            deps,
            retry: RetryPolicy::none(),
        }
    }

    #[test]
    fn chain_runs_sequentially() {
        let mut dag = Dag::default();
        let a = dag.add(fixed("a", 10.0, vec![]));
        let b = dag.add(fixed("b", 5.0, vec![a]));
        dag.add(fixed("c", 1.0, vec![b]));
        let result = Engine::new(dag, CycleEnv::synthetic()).run();
        assert_eq!(result.report.cycle_secs, 16.0);
        assert_eq!(result.report.timeline.len(), 3);
        assert_eq!(result.journal.entries.len(), 3);
        assert!(result.report.within_window);
    }

    #[test]
    fn diamond_starts_join_at_slowest_branch() {
        let mut dag = Dag::default();
        let a = dag.add(fixed("a", 10.0, vec![]));
        let fast = dag.add(fixed("fast", 1.0, vec![a]));
        let slow = dag.add(fixed("slow", 100.0, vec![a]));
        dag.add(fixed("join", 1.0, vec![fast, slow]));
        let result = Engine::new(dag, CycleEnv::synthetic()).run();
        let join = result.journal.entries.iter().find(|e| e.event.label == "join").unwrap();
        assert_eq!(join.event.start_secs, 110.0);
        assert_eq!(result.report.cycle_secs, 111.0);
    }

    #[test]
    fn flaky_step_retries_with_backoff() {
        let mut dag = Dag::default();
        dag.add(StepSpec {
            name: "flaky".into(),
            site: Site::Remote,
            automated: true,
            kind: StepKind::Flaky { secs: 10.0, fail_attempts: 2, wasted_secs: 3.0 },
            deps: vec![],
            retry: RetryPolicy::retries(3, 4.0),
        });
        let result = Engine::new(dag, CycleEnv::synthetic()).run();
        let entry = &result.journal.entries[0];
        assert_eq!(entry.attempts, 3);
        assert_eq!(entry.wasted_secs, 6.0);
        // elapsed = 3 + 4 (backoff) + 3 + 8 (backoff) + 10
        assert_eq!(result.report.cycle_secs, 28.0);
        assert_eq!(result.report.total_retries, 2);
    }

    #[test]
    fn exhausted_retries_fail_and_block_dependents() {
        let mut dag = Dag::default();
        let f = dag.add(StepSpec {
            name: "doomed".into(),
            site: Site::Remote,
            automated: true,
            kind: StepKind::Flaky { secs: 10.0, fail_attempts: 99, wasted_secs: 1.0 },
            deps: vec![],
            retry: RetryPolicy::retries(2, 1.0),
        });
        dag.add(fixed("downstream", 1.0, vec![f]));
        let result = Engine::new(dag, CycleEnv::synthetic()).run();
        assert_eq!(result.report.failed_steps, vec!["doomed".to_string()]);
        assert_eq!(result.report.blocked_steps, vec!["downstream".to_string()]);
        assert_eq!(result.report.total_retries, 3);
        assert!(!result.report.within_window);
        assert!(result.journal.entries.is_empty());
    }

    #[test]
    fn resume_skips_completed_steps() {
        let mut dag = Dag::default();
        let a = dag.add(fixed("a", 10.0, vec![]));
        let b = dag.add(fixed("b", 5.0, vec![a]));
        dag.add(fixed("c", 1.0, vec![b]));
        let engine = Engine::new(dag, CycleEnv::synthetic());
        let full = engine.run();
        for k in 0..=full.journal.entries.len() {
            let resumed = engine.resume(&full.journal.prefix(k));
            assert_eq!(resumed.report, full.report, "prefix {k}");
            assert_eq!(resumed.journal, full.journal, "prefix {k}");
            assert_eq!(resumed.live_steps.len(), 3 - k, "prefix {k} must not redo work");
        }
    }

    #[test]
    fn resume_saturates_a_hostile_retry_tally() {
        // A journal that parses but claims u32::MAX attempts per step:
        // replaying two such entries must not overflow the retry tally.
        let mut dag = Dag::default();
        let a = dag.add(fixed("a", 10.0, vec![]));
        dag.add(fixed("b", 5.0, vec![a]));
        let engine = Engine::new(dag, CycleEnv::synthetic());
        let jsonl = engine.run().journal.to_jsonl();
        assert_eq!(jsonl.matches("\"attempts\":1,").count(), 2);
        let hostile = jsonl.replace("\"attempts\":1,", "\"attempts\":4294967295,");
        let journal = Journal::from_jsonl(&hostile).expect("hostile journal still parses");
        let resumed = engine.resume(&journal);
        assert_eq!(resumed.report.total_retries, u32::MAX);
        assert!(resumed.live_steps.is_empty());
    }
}

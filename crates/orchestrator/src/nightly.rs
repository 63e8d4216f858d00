//! Builder for the paper's nightly combined-workflow DAG (Fig. 2).
//!
//! The cycle is config-gen → Globus transfer → DB snapshot-restore →
//! pack + Slurm execute → collect → return transfer → analytics. The
//! dependency edges form the same chain the hand-rolled
//! `CombinedWorkflow` sequence encoded implicitly; expressing them as a
//! DAG is what lets the engine retry, journal, and degrade each step
//! independently.

use crate::breaker::BreakerConfig;
use crate::engine::{CycleEnv, DeadlinePolicy, Engine, FailoverPolicy};
use crate::faults::FaultPlan;
use crate::step::{BytesSpec, Dag, RetryPolicy, StepKind, StepSpec};
use epiflow_hpcsim::cluster::Site;
use epiflow_hpcsim::schedule::PackAlgo;
use epiflow_hpcsim::slurm::CheckpointPolicy;
use epiflow_hpcsim::task::Task;

/// What a caller varies about the nightly cycle. The clusters, links,
/// database bound and connections per job are the paper's fixed
/// deployment ([`CycleEnv::new`]); the step durations and transfer
/// retries are the constants below.
#[derive(Clone, Debug)]
pub struct NightlySpec {
    pub algo: PackAlgo,
    /// Cross-cluster failover + hedging (off by default — the classic
    /// engine).
    pub failover: FailoverPolicy,
    /// Circuit-breaker tuning for the guarded resources.
    pub breaker: BreakerConfig,
    /// Tick-level checkpoint/restart for the Slurm execution (off by
    /// default — preempted tasks restart from scratch).
    pub checkpoint: CheckpointPolicy,
}

impl Default for NightlySpec {
    fn default() -> Self {
        NightlySpec {
            algo: PackAlgo::FfdtDc,
            failover: FailoverPolicy::default(),
            breaker: BreakerConfig::default(),
            checkpoint: CheckpointPolicy::default(),
        }
    }
}

/// Seconds of analyst + tooling time to generate configurations.
const CONFIG_GEN_SECS: f64 = 2.0 * 3600.0;
/// Seconds of analytics time on the home cluster after return.
const ANALYSIS_SECS: f64 = 3.0 * 3600.0;
/// Retry policy for the two Globus transfers (the other steps run
/// in-cluster and are not retried at this level). The operations team
/// re-submitted dropped transfers; five tries with two-minute
/// exponential backoff comfortably covers the observed drop rates
/// without breaking the window.
const TRANSFER_RETRY: RetryPolicy = RetryPolicy::retries(4, 120.0);

/// Build the nightly DAG and wrap it in an engine.
///
/// `region_rows` maps each region appearing in `tasks` to its
/// person-trait row count (drives snapshot-restore time and output
/// volumes).
pub fn nightly_engine(
    spec: &NightlySpec,
    tasks: Vec<Task>,
    region_rows: Vec<(usize, u64)>,
    faults: FaultPlan,
    deadline: DeadlinePolicy,
) -> Engine {
    let config_bytes = tasks.len() as u64 * 500_000; // ~0.5 MB per simulation config
    let mut dag = Dag::default();
    let gen = dag.add(StepSpec {
        name: "generate simulation configurations".into(),
        site: Site::Home,
        automated: false,
        kind: StepKind::Fixed { secs: CONFIG_GEN_SECS },
        deps: vec![],
        retry: RetryPolicy::none(),
    });
    let xfer = dag.add(StepSpec {
        name: "Globus: configs home → remote".into(),
        site: Site::Home,
        automated: false, // "started manually using the Globus platform"
        kind: StepKind::Transfer {
            from: Site::Home,
            to: Site::Remote,
            bytes: BytesSpec::Const { bytes: config_bytes },
            label: "daily configs".into(),
        },
        deps: vec![gen],
        retry: TRANSFER_RETRY,
    });
    let db = dag.add(StepSpec {
        name: "instantiate population database snapshots".into(),
        site: Site::Remote,
        automated: true,
        kind: StepKind::DbRestore,
        deps: vec![xfer],
        retry: RetryPolicy::none(),
    });
    let slurm = dag.add(StepSpec {
        name: "Slurm job arrays".into(), // label rewritten with counts at completion
        site: Site::Remote,
        automated: true,
        kind: StepKind::SlurmExecute,
        deps: vec![db],
        retry: RetryPolicy::none(),
    });
    let collect = dag.add(StepSpec {
        name: "post-simulation aggregation".into(),
        site: Site::Remote,
        automated: true,
        kind: StepKind::Collect,
        deps: vec![slurm],
        retry: RetryPolicy::none(),
    });
    let back = dag.add(StepSpec {
        name: "Globus: summaries remote → home".into(),
        site: Site::Remote,
        automated: true,
        kind: StepKind::Transfer {
            from: Site::Remote,
            to: Site::Home,
            bytes: BytesSpec::Summaries,
            label: "summaries".into(),
        },
        deps: vec![collect],
        retry: TRANSFER_RETRY,
    });
    dag.add(StepSpec {
        name: "analytics, projections, briefing products".into(),
        site: Site::Home,
        automated: false,
        kind: StepKind::Fixed { secs: ANALYSIS_SECS },
        deps: vec![back],
        retry: RetryPolicy::none(),
    });

    Engine {
        dag,
        env: CycleEnv::new(spec, tasks, region_rows),
        faults,
        deadline,
        failover: spec.failover,
        breaker: spec.breaker,
        checkpoint: spec.checkpoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_tasks() -> (Vec<Task>, Vec<(usize, u64)>) {
        let tasks: Vec<Task> = (0..6)
            .map(|i| Task {
                id: i,
                region: (i as usize) % 2,
                cell: i / 2,
                replicate: i % 2,
                nodes: 2,
                est_secs: 1800.0,
                actual_secs: 1800.0,
            })
            .collect();
        (tasks, vec![(0, 5_000_000), (1, 8_000_000)])
    }

    #[test]
    fn nightly_dag_has_the_seven_fig2_steps() {
        let (tasks, rows) = tiny_tasks();
        let engine = nightly_engine(
            &NightlySpec::default(),
            tasks,
            rows,
            FaultPlan::default(),
            DeadlinePolicy::default(),
        );
        assert_eq!(engine.dag.len(), 7);
        let result = engine.run();
        assert_eq!(result.report.timeline.len(), 7);
        assert!(result.report.within_window);
        assert_eq!(result.report.transfers.len(), 2);
        assert!(result.report.timeline_text().contains("Slurm job arrays: 6 simulations"));
    }

    #[test]
    fn quiet_run_is_reproducible() {
        let (tasks, rows) = tiny_tasks();
        let spec = NightlySpec::default();
        let a = nightly_engine(
            &spec,
            tasks.clone(),
            rows.clone(),
            FaultPlan::default(),
            DeadlinePolicy::default(),
        )
        .run();
        let b = nightly_engine(&spec, tasks, rows, FaultPlan::default(), DeadlinePolicy::default())
            .run();
        assert_eq!(a.report, b.report);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }
}

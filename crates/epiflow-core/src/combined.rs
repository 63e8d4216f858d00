//! The combined nightly workflow across both clusters (Figs. 1–2,
//! Table II).
//!
//! This is a *planning-level* discrete-event simulation of one nightly
//! cycle: configuration generation on the home cluster during the day,
//! Globus transfer of configurations, per-region database startup from
//! snapshots, level-packed Slurm execution inside the remote cluster's
//! 10 pm–8 am window, post-simulation aggregation, and the return
//! transfer of summaries. It produces the Fig.-2-style event timeline,
//! the Table-II data-volume ledger, and the Fig.-9 utilization numbers.
//!
//! Since the orchestrator landed, the cycle runs on the
//! [`epiflow_orchestrator`] DAG engine: `CombinedWorkflow` builds the
//! nightly DAG and translates the engine's report back into the
//! original [`CombinedReport`] shape. With the default (quiet) fault
//! plan the engine reproduces the hand-rolled sequence exactly; setting
//! [`CombinedWorkflow::faults`] and [`CombinedWorkflow::deadline`]
//! turns on seeded fault injection, per-step retries, and
//! deadline-aware cell shedding.

use epiflow_hpcsim::globus::TransferLedger;
use epiflow_hpcsim::schedule::PackAlgo;
use epiflow_hpcsim::slurm::SlurmStats;
use epiflow_hpcsim::task::{Task, WorkloadSpec};
use epiflow_orchestrator::{
    nightly_engine, BreakerConfig, DeadlinePolicy, DroppedCell, Engine, FailoverPolicy, FaultPlan,
    NightlySpec, RunResult,
};
use epiflow_surveillance::{RegionRegistry, Scale};

pub use epiflow_orchestrator::TimelineEvent;

/// The nightly combined workflow. The clusters, links, database bound
/// and step durations are the paper's fixed deployment (see
/// [`epiflow_orchestrator::CycleEnv::new`]); these fields are what a
/// night varies.
#[derive(Clone, Debug)]
pub struct CombinedWorkflow {
    pub workload: WorkloadSpec,
    pub algo: PackAlgo,
    /// Fault injection for the cycle (default: quiet).
    pub faults: FaultPlan,
    /// Deadline-aware degradation policy (default: off).
    pub deadline: DeadlinePolicy,
    /// Cross-cluster failover, re-routing, and hedging (default: off —
    /// the classic engine).
    pub failover: FailoverPolicy,
    /// Circuit-breaker tuning for the link / remote-cluster / database
    /// breakers (only consulted when `failover.enabled`).
    pub breaker: BreakerConfig,
}

impl Default for CombinedWorkflow {
    fn default() -> Self {
        let spec = NightlySpec::default();
        CombinedWorkflow {
            workload: WorkloadSpec::prediction(),
            algo: spec.algo,
            faults: FaultPlan::default(),
            deadline: DeadlinePolicy::default(),
            failover: spec.failover,
            breaker: spec.breaker,
        }
    }
}

/// Result of one nightly cycle.
#[derive(Clone, Debug)]
pub struct CombinedReport {
    pub timeline: Vec<TimelineEvent>,
    pub transfers: TransferLedger,
    pub slurm: SlurmStats,
    /// Tasks generated.
    pub n_tasks: usize,
    /// Bytes of raw output produced on the remote cluster (not
    /// transferred; summaries only come home).
    pub raw_output_bytes: u64,
    pub summary_bytes: u64,
    /// Whether everything finished inside the nightly window.
    pub within_window: bool,
    /// End-to-end cycle duration in seconds.
    pub cycle_secs: f64,
    /// Cells shed by deadline degradation (empty unless the deadline
    /// policy fired).
    pub dropped_cells: Vec<DroppedCell>,
    /// Failed attempts across all steps.
    pub total_retries: u32,
    /// Steps that exhausted their retry policy (empty on a good night).
    pub failed_steps: Vec<String>,
    /// Steps re-planned onto the other cluster by the failover policy.
    pub failover_steps: Vec<String>,
    /// Speculative duplicate attempts the hedge policy launched.
    pub hedges: u32,
    /// Calls re-routed to alternate resources by open breakers.
    pub reroutes: u32,
}

impl CombinedWorkflow {
    /// Build the nightly DAG engine for this configuration — the
    /// general entry point; [`CombinedWorkflow::run`] is `engine().run()`
    /// plus report translation.
    pub fn engine(&self, registry: &RegionRegistry, scale: Scale) -> Engine {
        let tasks: Vec<Task> = self.workload.generate(registry, scale);
        // Database rows and output volumes use *real* populations: the
        // combined workflow models the paper's deployment (the task
        // runtimes are likewise calibrated to the real system's), while
        // `scale` only shrinks the in-process simulations.
        let regions: Vec<usize> = {
            let mut r: Vec<usize> = tasks.iter().map(|t| t.region).collect();
            r.sort_unstable();
            r.dedup();
            r
        };
        let region_rows: Vec<(usize, u64)> =
            regions.iter().map(|&r| (r, registry.region(r).population)).collect();
        let spec = NightlySpec {
            algo: self.algo,
            failover: self.failover,
            breaker: self.breaker,
            ..NightlySpec::default()
        };
        nightly_engine(&spec, tasks, region_rows, self.faults.clone(), self.deadline)
    }

    /// Simulate one nightly cycle.
    pub fn run(&self, registry: &RegionRegistry, scale: Scale) -> CombinedReport {
        CombinedReport::from_engine(self.engine(registry, scale).run())
    }
}

impl CombinedReport {
    /// Translate an engine run into the report shape the analytics and
    /// repro binaries consume.
    pub fn from_engine(run: RunResult) -> CombinedReport {
        let report = run.report;
        let n_tasks = report.n_tasks;
        CombinedReport {
            timeline: report.timeline,
            transfers: TransferLedger { transfers: report.transfers },
            slurm: report.slurm.unwrap_or(SlurmStats {
                completed: 0,
                unstarted: n_tasks,
                makespan_secs: 0.0,
                busy_node_secs: 0.0,
                peak_nodes: 0,
                utilization: 1.0,
                start_times: Vec::new(),
                preempted: 0,
                lost_node_secs: 0.0,
                recovered_node_secs: 0.0,
                resumes: 0,
                resume_log: Vec::new(),
            }),
            n_tasks,
            raw_output_bytes: report.raw_output_bytes,
            summary_bytes: report.summary_bytes,
            within_window: report.within_window,
            cycle_secs: report.cycle_secs,
            dropped_cells: report.dropped_cells,
            total_retries: report.total_retries,
            failed_steps: report.failed_steps,
            failover_steps: report.failover_steps,
            hedges: report.hedges,
            reroutes: report.reroutes,
        }
    }

    /// Render the Fig.-2-style timeline as text.
    pub fn timeline_text(&self) -> String {
        epiflow_orchestrator::timeline_text(&self.timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epiflow_hpcsim::cluster::Site;
    use epiflow_hpcsim::slurm::NodeFailure;
    use epiflow_orchestrator::LinkFaults;

    fn small_workload() -> WorkloadSpec {
        WorkloadSpec { cells: 2, replicates: 2, ..WorkloadSpec::prediction() }
    }

    #[test]
    fn nightly_cycle_completes_within_window() {
        let reg = RegionRegistry::new();
        let wf = CombinedWorkflow { workload: small_workload(), ..Default::default() };
        let report = wf.run(&reg, Scale::default());
        assert_eq!(report.n_tasks, 2 * 51 * 2);
        assert_eq!(report.slurm.completed, report.n_tasks);
        assert!(report.within_window, "small workload must fit the 10h window");
        assert!(report.cycle_secs > 0.0);
        assert!(report.dropped_cells.is_empty());
        assert_eq!(report.total_retries, 0);
    }

    #[test]
    fn paper_scale_prediction_workload_fits() {
        // The real system ran 9180-simulation prediction workloads
        // nightly; our model must agree that this fits 720 nodes × 10 h.
        let reg = RegionRegistry::new();
        let wf = CombinedWorkflow::default();
        let report = wf.run(&reg, Scale::default());
        assert_eq!(report.n_tasks, 9180);
        assert!(
            report.slurm.completed > 9180 * 9 / 10,
            "most of the nightly workload must complete: {}",
            report.slurm.completed
        );
    }

    #[test]
    fn ffdt_utilization_beats_nfdt() {
        let reg = RegionRegistry::new();
        let ff = CombinedWorkflow::default().run(&reg, Scale::default());
        let nf = CombinedWorkflow { algo: PackAlgo::NfdtDc, ..Default::default() }
            .run(&reg, Scale::default());
        assert!(
            ff.slurm.utilization > nf.slurm.utilization,
            "FFDT {} vs NFDT {}",
            ff.slurm.utilization,
            nf.slurm.utilization
        );
    }

    #[test]
    fn timeline_covers_both_sites_and_is_ordered() {
        let reg = RegionRegistry::new();
        let wf = CombinedWorkflow { workload: small_workload(), ..Default::default() };
        let report = wf.run(&reg, Scale::default());
        assert!(report.timeline.iter().any(|e| e.site == Site::Home));
        assert!(report.timeline.iter().any(|e| e.site == Site::Remote));
        for w in report.timeline.windows(2) {
            assert!(w[1].start_secs >= w[0].start_secs);
        }
        let text = report.timeline_text();
        assert!(text.contains("Globus"));
        assert!(text.contains("Slurm"));
    }

    #[test]
    fn volumes_are_plausible() {
        let reg = RegionRegistry::new();
        let report = CombinedWorkflow::default().run(&reg, Scale::default());
        // Summaries come home, raw stays.
        assert!(report.summary_bytes > 0);
        assert!(report.raw_output_bytes > report.summary_bytes);
        assert_eq!(report.transfers.bytes_moved(Site::Remote, Site::Home), report.summary_bytes);
    }

    #[test]
    fn transfer_faults_are_retried_and_cycle_still_completes() {
        let reg = RegionRegistry::new();
        // A seed whose first "daily configs" attempt drops but whose
        // retries get through well inside the policy bound.
        let seed = (0u64..)
            .find(|&s| {
                let f = LinkFaults::new(0.5, s);
                f.attempt_fails("daily configs", 0)
                    && !f.attempt_fails("daily configs", 1)
                    && !f.attempt_fails("summaries", 0)
            })
            .unwrap();
        let wf = CombinedWorkflow {
            workload: small_workload(),
            faults: FaultPlan { link: LinkFaults::new(0.5, seed), ..FaultPlan::default() },
            ..Default::default()
        };
        let report = wf.run(&reg, Scale::default());
        assert_eq!(report.total_retries, 1, "exactly the injected drop");
        assert!(report.failed_steps.is_empty());
        assert_eq!(report.slurm.completed, report.n_tasks);
        assert!(report.within_window);
        // The retry cost wall-clock relative to a quiet night.
        let quiet = CombinedWorkflow { workload: small_workload(), ..Default::default() }
            .run(&reg, Scale::default());
        assert!(report.cycle_secs > quiet.cycle_secs);
    }

    #[test]
    fn node_crash_mid_level_is_absorbed_by_requeue() {
        let reg = RegionRegistry::new();
        let wf = CombinedWorkflow {
            workload: small_workload(),
            faults: FaultPlan {
                // Early enough that the machine is still packed, big
                // enough that idle nodes cannot absorb it.
                node_failures: vec![NodeFailure { at_secs: 60.0, nodes: 600 }],
                ..FaultPlan::default()
            },
            ..Default::default()
        };
        let report = wf.run(&reg, Scale::default());
        assert!(report.slurm.preempted > 0, "the crash must kill running jobs");
        assert_eq!(report.slurm.completed, report.n_tasks, "requeue recovers all of them");
    }
}

//! Seeded fault-injection acceptance scenario for the orchestrator.
//!
//! One nightly cycle is hit with a Globus transfer drop, a mid-level
//! node crash, stragglers, and DB connection exhaustion. The engine
//! must retry the transfer per policy, absorb the crash via Slurm
//! requeue, and either finish inside the 10-hour window or degrade by
//! shedding named cells. Killing the cycle at any completed step and
//! resuming from the persisted journal must yield a byte-identical
//! final report to the uninterrupted run.

use epiflow::core::CombinedWorkflow;
use epiflow::hpcsim::slurm::NodeFailure;
use epiflow::hpcsim::task::WorkloadSpec;
use epiflow::orchestrator::{
    DeadlinePolicy, EngineEvent, FaultPlan, Journal, LinkFaults, RunResult, StepEffect,
};
use epiflow::surveillance::{RegionRegistry, Scale};

/// A 204-task night with every fault source active. The link seed is
/// searched (deterministically) so the config transfer drops on its
/// first attempt but recovers inside the retry budget.
fn faulty_workflow() -> CombinedWorkflow {
    let link_seed = (0u64..)
        .find(|&s| {
            let f = LinkFaults::new(0.5, s);
            f.attempt_fails("daily configs", 0)
                && !f.attempt_fails("daily configs", 1)
                && !f.attempt_fails("summaries", 0)
        })
        .expect("such a seed exists");
    CombinedWorkflow {
        workload: WorkloadSpec { cells: 2, replicates: 2, ..WorkloadSpec::prediction() },
        faults: FaultPlan {
            seed: 42,
            link: LinkFaults::new(0.5, link_seed),
            // Early and large: the packed machine cannot absorb it from
            // the idle pool, so running jobs die and requeue.
            node_failures: vec![NodeFailure { at_secs: 60.0, nodes: 600 }],
            db_exhaust_prob: 0.2,
            db_keep_fraction: 0.5,
            straggler_prob: 0.05,
            straggler_factor: 3.0,
            ..FaultPlan::default()
        },
        deadline: DeadlinePolicy { shed_cells: true },
        ..Default::default()
    }
}

#[test]
fn faulty_cycle_retries_and_completes_or_sheds() {
    let reg = RegionRegistry::new();
    let run = faulty_workflow().engine(&reg, Scale::default()).run();

    // The Globus drop was retried per policy (exactly one failed
    // attempt for this seed), not fatal.
    let failed_attempts =
        run.events.iter().filter(|e| matches!(e, EngineEvent::AttemptFailed { .. })).count();
    assert_eq!(failed_attempts, 1, "the injected transfer drop, retried");
    assert!(run.report.failed_steps.is_empty());
    assert!(run.report.blocked_steps.is_empty());

    // The mid-level node crash killed running jobs, which were
    // requeued and redone.
    let slurm = run.report.slurm.as_ref().expect("execute step ran");
    assert!(slurm.preempted > 0, "crash must preempt running jobs");
    assert!(slurm.lost_node_secs > 0.0);

    // The cycle finishes inside the window, or names what it shed.
    assert!(
        run.report.within_window || !run.report.dropped_cells.is_empty(),
        "no silent overrun: within_window={} dropped={:?}",
        run.report.within_window,
        run.report.dropped_cells
    );
}

#[test]
fn kill_and_resume_from_journal_is_byte_identical() {
    let reg = RegionRegistry::new();
    let engine = faulty_workflow().engine(&reg, Scale::default());
    let full = engine.run();
    let full_json = serde_json::to_string(&full.report).unwrap();
    assert_eq!(full.journal.entries.len(), 7, "all seven Fig.-2 steps completed");

    for k in 0..=full.journal.entries.len() {
        // "Kill" the cycle after k completions: only the write-ahead
        // journal prefix survives, as persisted JSON lines.
        let persisted = full.journal.prefix(k).to_jsonl();
        let (recovered, torn) = Journal::recover_jsonl(&persisted).expect("journal parses back");
        assert!(!torn, "a journal cut at a commit boundary has no torn record");
        let resumed = engine.resume(&recovered);
        assert_eq!(
            serde_json::to_string(&resumed.report).unwrap(),
            full_json,
            "resume after {k} completions must be byte-identical"
        );
        assert_eq!(
            resumed.live_steps.len(),
            full.journal.entries.len() - k,
            "resume after {k} completions must not redo finished steps"
        );
    }
}

#[test]
fn degradation_sheds_lowest_priority_cells_first() {
    let reg = RegionRegistry::new();
    // A deliberately impossible night: a double-size cell sweep on a
    // fifth of the machine. Shedding must kick in and drop cells from
    // the highest index (lowest priority) downward.
    let mut wf = faulty_workflow();
    wf.workload = WorkloadSpec { cells: 16, replicates: 8, ..WorkloadSpec::prediction() };
    wf.faults.node_failures = vec![NodeFailure { at_secs: 60.0, nodes: 576 }];
    let run = wf.engine(&reg, Scale::default()).run();
    assert!(!run.report.dropped_cells.is_empty(), "this night cannot fit without shedding");
    let cells: Vec<u32> = run.report.dropped_cells.iter().map(|d| d.cell).collect();
    let mut sorted = cells.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(cells, sorted, "shed highest cell index first: {cells:?}");
    assert!(run.report.dropped_cells.iter().all(|d| d.tasks > 0), "each shed names its tasks");
    // What was kept ran to completion.
    let slurm = run.report.slurm.as_ref().unwrap();
    assert_eq!(slurm.unstarted, 0, "after shedding, the kept workload fits");
}

/// The snapshot-restore startup time a night's journal recorded.
fn db_startup_secs(run: &RunResult) -> f64 {
    run.journal
        .entries
        .iter()
        .find_map(|e| match e.effect {
            StepEffect::DbRestore { startup_secs, .. } => Some(startup_secs),
            _ => None,
        })
        .expect("nightly DAG restores databases")
}

#[test]
fn classic_night_applies_db_slow_faults() {
    // Straggling restores are a fault of the database nodes, not of the
    // failover policy: a classic night must pay for them too.
    let reg = RegionRegistry::new();
    let quiet = CombinedWorkflow {
        workload: WorkloadSpec { cells: 2, replicates: 2, ..WorkloadSpec::prediction() },
        ..Default::default()
    };
    let mut slow = quiet.clone();
    slow.faults.db_slow_prob = 1.0;
    slow.faults.db_slow_factor = 4.0;
    let quiet_secs = db_startup_secs(&quiet.engine(&reg, Scale::default()).run());
    let slow_secs = db_startup_secs(&slow.engine(&reg, Scale::default()).run());
    assert_eq!(slow_secs, 4.0 * quiet_secs, "every restore straggles at 4×");
}

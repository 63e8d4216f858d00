//! An event-driven Slurm-like executor (§IV).
//!
//! The mapping heuristic hands Slurm an *ordering and chunking* of
//! tasks; "Slurm further does a certain amount of real-time
//! optimization". We model that as work-conserving in-order dispatch
//! with limited lookahead: the job array is scanned in order each time
//! nodes free up, and a task starts as soon as enough whole nodes are
//! free and its region's database has connection headroom. The nightly
//! availability window bounds how much of a workload completes.

use crate::cluster::ClusterSpec;
use crate::task::Task;
use epiflow_surveillance::RegionId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Tick-level checkpoint/restart policy for simulation tasks (the
/// epihiper engine's snapshot/resume, seen from the scheduler's side).
///
/// With checkpointing off, a preempted task restarts from scratch and
/// every node-second since its start is destroyed. With it on, the task
/// writes a snapshot every `interval_ticks` ticks, and on the
/// preemption signal gets `grace_secs` to write one final snapshot
/// (cost `write_cost_secs`): if the grace window covers the write, work
/// up to the signal survives; otherwise the task falls back to its last
/// periodic snapshot and loses at most one interval. A requeued task
/// resumes from its saved tick, so its next attempt only runs the
/// remaining ticks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointPolicy {
    /// Master switch; `false` reproduces classic restart-from-scratch
    /// behaviour byte-for-byte.
    pub enabled: bool,
    /// Ticks between periodic snapshot writes.
    pub interval_ticks: u32,
    /// Simulated ticks per task (converts wall-clock to tick progress).
    pub ticks_per_task: u32,
    /// Wall-clock cost of writing one snapshot, in seconds.
    pub write_cost_secs: f64,
    /// Seconds between the preemption signal and the kill (Slurm
    /// `GraceTime`): the budget for the final snapshot write.
    pub grace_secs: f64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            enabled: false,
            interval_ticks: 16,
            ticks_per_task: 256,
            write_cost_secs: 15.0,
            grace_secs: 30.0,
        }
    }
}

impl CheckpointPolicy {
    /// Checkpointing enabled with the given snapshot interval.
    pub fn every(interval_ticks: u32) -> Self {
        CheckpointPolicy { enabled: true, interval_ticks: interval_ticks.max(1), ..Self::default() }
    }
}

/// One resume event: a preempted task retained a snapshot and will
/// restart from `tick` instead of from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResumePoint {
    /// Index of the task in the submitted array.
    pub task: u32,
    /// Tick the retained snapshot resumes from.
    pub tick: u32,
}

/// Result of a Slurm execution run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlurmStats {
    /// Tasks that finished inside the window.
    pub completed: usize,
    /// Tasks that never started (window exhausted).
    pub unstarted: usize,
    /// Wall-clock seconds from window open to last completion.
    pub makespan_secs: f64,
    /// Node-seconds of useful work done.
    pub busy_node_secs: f64,
    /// Peak concurrently-busy nodes (the effective reservation size).
    pub peak_nodes: usize,
    /// EC = busy / (peak_nodes × makespan): utilization of the CPU
    /// hours actually allocated, matching Fig. 9's metric.
    pub utilization: f64,
    /// Per-task start times (s since window open), `None` if unstarted.
    pub start_times: Vec<Option<f64>>,
    /// Task executions killed by node failures and re-queued (one task
    /// preempted twice counts twice).
    pub preempted: usize,
    /// Node-seconds of work destroyed by preemption (restarts redo the
    /// full task).
    pub lost_node_secs: f64,
    /// Node-seconds of preempted work preserved by checkpoints (would
    /// have been lost without them). Always 0 with checkpointing off.
    #[serde(default)]
    pub recovered_node_secs: f64,
    /// Task dispatches that resumed from a snapshot rather than
    /// starting from tick 0.
    #[serde(default)]
    pub resumes: usize,
    /// Snapshot lineage: each preemption that retained a checkpoint,
    /// with the tick its next attempt resumes from.
    #[serde(default)]
    pub resume_log: Vec<ResumePoint>,
}

impl SlurmStats {
    /// Did every submitted task finish inside the window?
    pub fn finished_all(&self) -> bool {
        self.unstarted == 0
    }
}

/// A fault-injection event: `nodes` compute nodes drop out of the
/// machine at `at_secs` (counted from window open) and never return
/// during the window — the paper's mid-level node-loss scenario. Jobs
/// running on lost nodes are killed and re-queued at the head of the
/// job array (Slurm requeue-on-node-fail behaviour).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeFailure {
    pub at_secs: f64,
    pub nodes: usize,
}

/// The executor.
pub struct SlurmSim {
    pub cluster: ClusterSpec,
    /// Lookahead depth: how many queued jobs may be scanned past a
    /// blocked head-of-line job (Slurm backfill-ish). 0 = strict FIFO.
    pub lookahead: usize,
    /// Checkpoint/restart policy applied to every task (disabled by
    /// default — classic restart-from-scratch).
    pub checkpoint: CheckpointPolicy,
}

impl SlurmSim {
    /// A simulator on the given cluster with moderate backfill.
    pub fn new(cluster: ClusterSpec) -> Self {
        SlurmSim { cluster, lookahead: 1024, checkpoint: CheckpointPolicy::default() }
    }

    /// Execute `order` (indices into `tasks`) within one nightly window.
    /// `db_bound(region)` caps concurrently running tasks per region.
    pub fn run<F>(&self, tasks: &[Task], order: &[usize], db_bound: F) -> SlurmStats
    where
        F: Fn(RegionId) -> usize,
    {
        self.run_with_faults(tasks, order, db_bound, &[])
    }

    /// Like [`SlurmSim::run`], with node-failure events injected. When a
    /// failure fires, the lost nodes are taken from the idle pool first;
    /// if that is not enough, the most recently started jobs are killed
    /// (they lose the least work), their surviving nodes return to the
    /// pool, and the killed jobs are re-queued at the head of the job
    /// array to restart from scratch. With an empty `failures` slice the
    /// schedule is identical to `run`.
    ///
    /// When [`SlurmSim::checkpoint`] is enabled, a killed job keeps the
    /// work covered by its last snapshot (see [`CheckpointPolicy`]) and
    /// its requeued attempt only runs the remaining ticks; the preserved
    /// node-seconds are reported in
    /// [`SlurmStats::recovered_node_secs`] and the per-task resume
    /// ticks in [`SlurmStats::resume_log`].
    pub fn run_with_faults<F>(
        &self,
        tasks: &[Task],
        order: &[usize],
        db_bound: F,
        failures: &[NodeFailure],
    ) -> SlurmStats
    where
        F: Fn(RegionId) -> usize,
    {
        let window = self.cluster.window_secs() as f64;
        let ckpt = self.checkpoint;
        let ticks_per_task = ckpt.ticks_per_task.max(1);
        let mut total_nodes = self.cluster.nodes;
        let mut free_nodes = total_nodes;
        // (end_time, start_time, task index, planned duration)
        let mut running: Vec<(f64, f64, usize, f64)> = Vec::new();
        let mut region_running: HashMap<RegionId, usize> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = order.iter().copied().collect();
        let mut start_times: Vec<Option<f64>> = vec![None; tasks.len()];
        let mut now = 0.0f64;
        let mut busy = 0.0f64;
        let mut completed = 0usize;
        let mut last_completion = 0.0f64;
        let mut peak_nodes = 0usize;
        let mut preempted = 0usize;
        let mut lost_node_secs = 0.0f64;
        let mut recovered_node_secs = 0.0f64;
        let mut resumes = 0usize;
        let mut resume_log: Vec<ResumePoint> = Vec::new();
        // Ticks of each task already covered by a retained snapshot.
        let mut done_ticks: Vec<u32> = vec![0; tasks.len()];
        let mut pending_failures: Vec<NodeFailure> = failures.to_vec();
        pending_failures.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("NaN failure"));
        let mut next_failure = 0usize;

        loop {
            // Dispatch: scan up to `lookahead` queued jobs for ones that
            // can start now.
            let mut dispatched = true;
            while dispatched {
                dispatched = false;
                let scan = queue.len().min(self.lookahead + 1);
                for qi in 0..scan {
                    let ti = queue[qi];
                    let t = &tasks[ti];
                    let bound = db_bound(t.region).max(1);
                    let region_ok = region_running.get(&t.region).copied().unwrap_or(0) < bound;
                    // A resumed task only runs its remaining ticks.
                    // done_ticks == 0 takes the exact actual_secs path
                    // so classic behaviour is bit-identical.
                    let dur = if done_ticks[ti] == 0 {
                        t.actual_secs
                    } else {
                        t.actual_secs * (ticks_per_task - done_ticks[ti]) as f64
                            / ticks_per_task as f64
                    };
                    // A job must also be able to finish before the
                    // window closes (Slurm would not start a job whose
                    // time limit exceeds the reservation).
                    let fits_window = now + dur <= window;
                    if t.nodes <= free_nodes && region_ok && fits_window {
                        free_nodes -= t.nodes;
                        *region_running.entry(t.region).or_insert(0) += 1;
                        running.push((now + dur, now, ti, dur));
                        peak_nodes = peak_nodes.max(total_nodes - free_nodes);
                        start_times[ti] = Some(now);
                        if done_ticks[ti] > 0 {
                            resumes += 1;
                        }
                        queue.remove(qi);
                        dispatched = true;
                        break;
                    }
                }
            }

            if running.is_empty() {
                break; // nothing running and nothing dispatchable
            }
            // Next event: earliest completion, unless a node failure
            // fires first.
            let (idx, &(end, _start, _ti, _dur)) = running
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("NaN end time"))
                .expect("non-empty running set");
            if next_failure < pending_failures.len()
                && pending_failures[next_failure].at_secs <= end
            {
                let fail = pending_failures[next_failure];
                next_failure += 1;
                now = now.max(fail.at_secs);
                let dead = fail.nodes.min(total_nodes);
                total_nodes -= dead;
                let from_idle = dead.min(free_nodes);
                free_nodes -= from_idle;
                let mut to_reclaim = dead - from_idle;
                let mut requeue: Vec<usize> = Vec::new();
                while to_reclaim > 0 {
                    // Kill the most recently started job (ties broken by
                    // task index, for determinism).
                    let (vi, _) = running
                        .iter()
                        .enumerate()
                        .max_by(|a, b| {
                            (a.1 .1, a.1 .2).partial_cmp(&(b.1 .1, b.1 .2)).expect("NaN start time")
                        })
                        .expect("reclaim exceeds running nodes");
                    let (_end, start, ti, _dur) = running.swap_remove(vi);
                    let t = &tasks[ti];
                    let killed_here = t.nodes.min(to_reclaim);
                    to_reclaim -= killed_here;
                    free_nodes += t.nodes - killed_here;
                    *region_running.get_mut(&t.region).expect("running region") -= 1;
                    start_times[ti] = None;
                    let elapsed = now - start;
                    let mut recovered_here = 0.0f64;
                    let mut write_charge = 0.0f64;
                    if ckpt.enabled {
                        // Tick progress this attempt, at the task's
                        // full-run rate.
                        let secs_per_tick = t.actual_secs / ticks_per_task as f64;
                        let remaining = ticks_per_task - done_ticks[ti];
                        let ran = ((elapsed / secs_per_tick) as u32).min(remaining);
                        let total = done_ticks[ti] + ran;
                        // A grace window long enough to cover the final
                        // snapshot write preserves everything up to the
                        // signal; otherwise fall back to the last
                        // periodic snapshot (floor to the interval).
                        let saved = if ckpt.grace_secs >= ckpt.write_cost_secs {
                            write_charge = ckpt.write_cost_secs;
                            total
                        } else {
                            done_ticks[ti].max(
                                total / ckpt.interval_ticks.max(1) * ckpt.interval_ticks.max(1),
                            )
                        };
                        recovered_here =
                            (saved - done_ticks[ti]) as f64 * secs_per_tick * t.nodes as f64;
                        if saved > 0 {
                            resume_log.push(ResumePoint { task: ti as u32, tick: saved });
                        }
                        done_ticks[ti] = saved;
                    }
                    // Preserved work is useful work: it will not be
                    // redone, so it counts toward busy node-seconds.
                    busy += recovered_here;
                    recovered_node_secs += recovered_here;
                    lost_node_secs +=
                        elapsed * t.nodes as f64 - recovered_here + write_charge * t.nodes as f64;
                    preempted += 1;
                    requeue.push(ti);
                }
                // Requeue preserving original relative order.
                requeue.sort_unstable();
                for ti in requeue.into_iter().rev() {
                    queue.push_front(ti);
                }
                continue;
            }
            let (end, _start, ti, dur) = running.swap_remove(idx);
            now = end;
            let t = &tasks[ti];
            free_nodes += t.nodes;
            *region_running.get_mut(&t.region).expect("running region") -= 1;
            // `dur` (not end − start) keeps the arithmetic identical to
            // the classic path for never-preempted tasks.
            busy += dur * t.nodes as f64;
            completed += 1;
            last_completion = now;
        }

        let makespan = last_completion;
        SlurmStats {
            completed,
            unstarted: queue.len(),
            makespan_secs: makespan,
            busy_node_secs: busy,
            peak_nodes,
            utilization: if makespan > 0.0 && peak_nodes > 0 {
                busy / (peak_nodes as f64 * makespan)
            } else {
                1.0
            },
            start_times,
            preempted,
            lost_node_secs,
            recovered_node_secs,
            resumes,
            resume_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(nodes: usize, window_hours: u32) -> ClusterSpec {
        ClusterSpec { nodes, window: Some((0, window_hours * 3600)), ..ClusterSpec::rivanna() }
    }

    fn task(id: u32, region: RegionId, nodes: usize, secs: f64) -> Task {
        Task { id, region, cell: 0, replicate: 0, nodes, est_secs: secs, actual_secs: secs }
    }

    #[test]
    fn completes_everything_that_fits() {
        let tasks: Vec<Task> = (0..10).map(|i| task(i, i as usize % 3, 2, 600.0)).collect();
        let sim = SlurmSim::new(small_cluster(10, 10));
        let order: Vec<usize> = (0..10).collect();
        let stats = sim.run(&tasks, &order, |_| 100);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.unstarted, 0);
        // 10 tasks × 2 nodes on 10 nodes = 2 waves of 600 s.
        assert!((stats.makespan_secs - 1200.0).abs() < 1e-9);
        assert!((stats.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn window_cuts_off_excess_work() {
        // 1-hour window, each task takes 45 min on the full machine:
        // only one completes.
        let tasks: Vec<Task> = (0..5).map(|i| task(i, 0, 4, 2700.0)).collect();
        let sim = SlurmSim::new(small_cluster(4, 1));
        let order: Vec<usize> = (0..5).collect();
        let stats = sim.run(&tasks, &order, |_| 100);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.unstarted, 4);
    }

    #[test]
    fn db_bound_serializes_same_region() {
        // 4 one-node tasks of one region, bound 1: they run one at a
        // time even though the machine has room.
        let tasks: Vec<Task> = (0..4).map(|i| task(i, 7, 1, 100.0)).collect();
        let sim = SlurmSim::new(small_cluster(8, 10));
        let order: Vec<usize> = (0..4).collect();
        let stats = sim.run(&tasks, &order, |_| 1);
        assert_eq!(stats.completed, 4);
        assert!((stats.makespan_secs - 400.0).abs() < 1e-9);
    }

    #[test]
    fn backfill_lets_small_jobs_jump_blocked_head() {
        // Head job needs 8 nodes (busy machine); with lookahead the
        // 1-node jobs behind it run meanwhile.
        let mut tasks = vec![task(0, 0, 6, 1000.0)];
        tasks.push(task(1, 1, 8, 500.0)); // blocked until task 0 done
        tasks.extend((2..6).map(|i| task(i, 2, 1, 100.0)));
        let sim = SlurmSim::new(small_cluster(8, 10));
        let order: Vec<usize> = (0..6).collect();
        let stats = sim.run(&tasks, &order, |_| 100);
        assert_eq!(stats.completed, 6);
        // The small jobs started before task 1.
        let t1_start = stats.start_times[1].unwrap();
        for i in 2..6 {
            assert!(stats.start_times[i].unwrap() < t1_start);
        }
    }

    #[test]
    fn strict_fifo_blocks_behind_head() {
        let mut tasks = vec![task(0, 0, 6, 1000.0)];
        tasks.push(task(1, 1, 8, 500.0));
        tasks.extend((2..6).map(|i| task(i, 2, 1, 100.0)));
        let mut sim = SlurmSim::new(small_cluster(8, 10));
        sim.lookahead = 0;
        let order: Vec<usize> = (0..6).collect();
        let stats = sim.run(&tasks, &order, |_| 100);
        let t1_start = stats.start_times[1].unwrap();
        for i in 2..6 {
            assert!(stats.start_times[i].unwrap() >= t1_start);
        }
    }

    #[test]
    fn utilization_reflects_stragglers() {
        // One long task at the end leaves the machine mostly idle.
        let mut tasks: Vec<Task> = (0..8).map(|i| task(i, i as usize, 1, 100.0)).collect();
        tasks.push(task(8, 8, 1, 2000.0));
        let sim = SlurmSim::new(small_cluster(8, 10));
        let order: Vec<usize> = (0..9).collect();
        let stats = sim.run(&tasks, &order, |_| 100);
        assert!(stats.utilization < 0.3, "utilization {}", stats.utilization);
    }

    #[test]
    fn no_failures_matches_plain_run() {
        let tasks: Vec<Task> = (0..10).map(|i| task(i, i as usize % 3, 2, 600.0)).collect();
        let sim = SlurmSim::new(small_cluster(10, 10));
        let order: Vec<usize> = (0..10).collect();
        let a = sim.run(&tasks, &order, |_| 100);
        let b = sim.run_with_faults(&tasks, &order, |_| 100, &[]);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.start_times, b.start_times);
        assert_eq!(b.preempted, 0);
        assert_eq!(b.lost_node_secs, 0.0);
    }

    #[test]
    fn node_failure_preempts_and_requeues() {
        // 4 nodes, two 2-node 1000 s jobs running side by side. At
        // t=500 two nodes die: the later job (index tie → higher id)
        // is killed and restarts on the surviving pair once job 0
        // finishes.
        let tasks: Vec<Task> = (0..2).map(|i| task(i, i as usize, 2, 1000.0)).collect();
        let sim = SlurmSim::new(small_cluster(4, 10));
        let stats = sim.run_with_faults(
            &tasks,
            &[0, 1],
            |_| 100,
            &[NodeFailure { at_secs: 500.0, nodes: 2 }],
        );
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.preempted, 1);
        assert!((stats.lost_node_secs - 1000.0).abs() < 1e-9); // 500 s × 2 nodes
        assert!((stats.makespan_secs - 2000.0).abs() < 1e-9);
        assert_eq!(stats.start_times[1], Some(1000.0));
    }

    #[test]
    fn failure_can_kill_the_whole_machine() {
        let tasks: Vec<Task> = (0..3).map(|i| task(i, 0, 2, 1000.0)).collect();
        let sim = SlurmSim::new(small_cluster(4, 10));
        let stats = sim.run_with_faults(
            &tasks,
            &[0, 1, 2],
            |_| 100,
            &[NodeFailure { at_secs: 100.0, nodes: 4 }],
        );
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.unstarted, 3);
        assert_eq!(stats.preempted, 2);
    }

    #[test]
    fn empty_order() {
        let sim = SlurmSim::new(small_cluster(4, 10));
        let stats = sim.run(&[], &[], |_| 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.makespan_secs, 0.0);
    }

    /// The preemption scenario the module's classic tests exercise,
    /// with 100-tick tasks so tick arithmetic is round.
    fn preempt_scenario(
        checkpoint: CheckpointPolicy,
        fail_at: f64,
    ) -> (Vec<Task>, SlurmSim, SlurmStats) {
        let tasks: Vec<Task> = (0..2).map(|i| task(i, i as usize, 2, 1000.0)).collect();
        let mut sim = SlurmSim::new(small_cluster(4, 10));
        sim.checkpoint = checkpoint;
        let stats = sim.run_with_faults(
            &tasks,
            &[0, 1],
            |_| 100,
            &[NodeFailure { at_secs: fail_at, nodes: 2 }],
        );
        (tasks, sim, stats)
    }

    #[test]
    fn ckpt_enabled_without_faults_is_byte_identical_to_classic() {
        let tasks: Vec<Task> = (0..10).map(|i| task(i, i as usize % 3, 2, 600.0)).collect();
        let order: Vec<usize> = (0..10).collect();
        let classic = SlurmSim::new(small_cluster(10, 10));
        let mut with_ckpt = SlurmSim::new(small_cluster(10, 10));
        with_ckpt.checkpoint = CheckpointPolicy::every(16);
        let a = classic.run(&tasks, &order, |_| 100);
        let b = with_ckpt.run(&tasks, &order, |_| 100);
        assert_eq!(a, b, "checkpointing must be free when nothing is preempted");
        assert_eq!(b.recovered_node_secs, 0.0);
        assert_eq!(b.resumes, 0);
        assert!(b.resume_log.is_empty());
    }

    #[test]
    fn ckpt_disabled_policy_matches_classic_under_preemption() {
        // The disabled policy is the default, so this doubles as a
        // regression guard on the classic numbers.
        let (_, _, stats) = preempt_scenario(CheckpointPolicy::default(), 500.0);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.preempted, 1);
        assert!((stats.lost_node_secs - 1000.0).abs() < 1e-9);
        assert!((stats.makespan_secs - 2000.0).abs() < 1e-9);
        assert_eq!(stats.recovered_node_secs, 0.0);
        assert_eq!(stats.resumes, 0);
    }

    #[test]
    fn ckpt_preemption_resumes_from_snapshot() {
        // 100-tick tasks at 10 s/tick; generous grace covers the final
        // write, so the kill at t=500 retains all 50 ticks run.
        let policy = CheckpointPolicy {
            enabled: true,
            interval_ticks: 1,
            ticks_per_task: 100,
            write_cost_secs: 15.0,
            grace_secs: 30.0,
        };
        let (_, _, stats) = preempt_scenario(policy, 500.0);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.preempted, 1);
        assert_eq!(stats.resumes, 1);
        assert_eq!(stats.resume_log, vec![ResumePoint { task: 1, tick: 50 }]);
        // 50 ticks × 10 s × 2 nodes survive; only the final snapshot
        // write (15 s × 2 nodes) is wasted.
        assert!((stats.recovered_node_secs - 1000.0).abs() < 1e-9);
        assert!((stats.lost_node_secs - 30.0).abs() < 1e-9);
        // The resumed attempt runs 50 remaining ticks = 500 s starting
        // when task 0 finishes: makespan 1500 s, not the classic 2000.
        assert_eq!(stats.start_times[1], Some(1000.0));
        assert!((stats.makespan_secs - 1500.0).abs() < 1e-9);
        // Total useful work matches the no-fault run.
        assert!((stats.busy_node_secs - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn ckpt_short_grace_falls_back_to_periodic_interval() {
        // Grace too short for the final write: the 50 ticks run round
        // down to the last periodic snapshot at tick 48.
        let policy = CheckpointPolicy {
            enabled: true,
            interval_ticks: 16,
            ticks_per_task: 100,
            write_cost_secs: 15.0,
            grace_secs: 5.0,
        };
        let (_, _, stats) = preempt_scenario(policy, 500.0);
        assert_eq!(stats.resume_log, vec![ResumePoint { task: 1, tick: 48 }]);
        assert!((stats.recovered_node_secs - 960.0).abs() < 1e-9);
        // 1000 lost − 960 recovered; no write charge (it never ran).
        assert!((stats.lost_node_secs - 40.0).abs() < 1e-9);
        // Remaining 52 ticks = 520 s after task 0's 1000 s.
        assert!((stats.makespan_secs - 1520.0).abs() < 1e-9);
    }

    #[test]
    fn ckpt_stats_serde_round_trip() {
        let policy = CheckpointPolicy::every(4);
        let (_, _, stats) =
            preempt_scenario(CheckpointPolicy { ticks_per_task: 100, ..policy }, 500.0);
        let json = serde_json::to_string(&stats).unwrap();
        let back: SlurmStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}

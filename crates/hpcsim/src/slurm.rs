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
use crate::task::{region_bounds, Task};
use epiflow_surveillance::RegionId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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

/// Seconds one attempt of `t` runs when a snapshot already covers
/// `done_ticks` of its ticks: a resumed task only runs the rest.
/// `done_ticks == 0` takes the exact `actual_secs` path, so classic
/// behaviour is bit-identical.
fn attempt_secs(t: &Task, done_ticks: u32, ticks_per_task: u32) -> f64 {
    if done_ticks == 0 {
        t.actual_secs
    } else {
        t.actual_secs * (ticks_per_task - done_ticks) as f64 / ticks_per_task as f64
    }
}

/// The job queue, indexed by node demand. Every queued job carries a
/// `u32` key that rises with its queue position: `keys` holds the keys
/// in queue order, and each distinct node demand keeps a FIFO of
/// `(key, task index)` in key order. A dispatch then reads only the
/// jobs whose demand fits the free nodes.
struct DemandQueue {
    keys: VecDeque<u32>,
    /// `(node demand, FIFO)` per demand class, by ascending demand.
    classes: Vec<(usize, VecDeque<(u32, u32)>)>,
    /// The key the last requeued job took (initially the first job's
    /// key): every queued key is at least this.
    front_key: u32,
    /// Requeues that found their demand class empty.
    empty_class_requeues: usize,
}

impl DemandQueue {
    /// `order` as submitted. Keys count up from `u32::MAX - order.len()`,
    /// which leaves that many keys below for requeued jobs; each class
    /// FIFO is sized exactly, and a class never grows past its initial
    /// size because a requeued job left it when it started.
    fn new(tasks: &[Task], order: &[usize]) -> Self {
        let len = u32::try_from(order.len()).expect("queue length fits u32");
        let front_key = u32::MAX - len;
        let mut sizes: Vec<(usize, usize)> = Vec::new();
        for &ti in order {
            match sizes.binary_search_by_key(&tasks[ti].nodes, |c| c.0) {
                Ok(ci) => sizes[ci].1 += 1,
                Err(ci) => sizes.insert(ci, (tasks[ti].nodes, 1)),
            }
        }
        let mut classes: Vec<(usize, VecDeque<(u32, u32)>)> =
            sizes.into_iter().map(|(nodes, n)| (nodes, VecDeque::with_capacity(n))).collect();
        for (&ti, key) in order.iter().zip(front_key..) {
            let ci = classes.binary_search_by_key(&tasks[ti].nodes, |c| c.0).expect("sized above");
            classes[ci].1.push_back((key, u32::try_from(ti).expect("task index fits u32")));
        }
        DemandQueue {
            keys: (front_key..front_key + len).collect(),
            classes,
            front_key,
            empty_class_requeues: 0,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Remove and return the first job in queue order, among the first
    /// `scan` entries, whose node demand fits `free_nodes` and which
    /// passes `eligible`. Only classes that fit are read, each from its
    /// head, and a class walk stops at the window's last key or at a key
    /// past the best candidate so far.
    fn pop_first(
        &mut self,
        scan: usize,
        free_nodes: usize,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let window_end = *self.keys.get(scan.checked_sub(1)?)?;
        // (key, class, position in the class) of the best candidate.
        let mut best: Option<(u32, usize, usize)> = None;
        for (ci, (nodes, fifo)) in self.classes.iter().enumerate() {
            if *nodes > free_nodes {
                break;
            }
            let limit = best.map_or(window_end, |b| b.0);
            // The first entry past the limit or eligible; a candidate only
            // if within the limit. Read slice by slice: the deque's own
            // iterator made the walk about a quarter slower.
            let stop = |e: &(u32, u32)| e.0 > limit || eligible(e.1 as usize);
            let (head, tail) = fifo.as_slices();
            let pos = head
                .iter()
                .position(stop)
                .or_else(|| tail.iter().position(stop).map(|p| head.len() + p))
                .filter(|&p| fifo[p].0 <= limit);
            if let Some(pos) = pos {
                best = Some((fifo[pos].0, ci, pos));
            }
        }
        let (key, ci, pos) = best?;
        let (_, ti) = self.classes[ci].1.remove(pos).expect("picked within its class");
        let qi = self.keys.binary_search(&key).expect("a picked key is queued");
        self.keys.remove(qi);
        Some(ti as usize)
    }

    /// Requeue task `ti` (of node demand `nodes`) at the head of the
    /// queue, with a key below every queued one.
    fn push_front(&mut self, ti: usize, nodes: usize) {
        self.front_key = self.front_key.checked_sub(1).expect("requeue keys exhausted");
        self.keys.push_front(self.front_key);
        let ci = self.classes.binary_search_by_key(&nodes, |c| c.0).expect("a queued demand class");
        let ti = u32::try_from(ti).expect("task index fits u32");
        let fifo = &mut self.classes[ci].1;
        self.empty_class_requeues += usize::from(fifo.is_empty());
        fifo.push_front((self.front_key, ti));
    }
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
    /// `db_bound(region)` caps concurrently running tasks per region (a
    /// bound of 0 counts as 1).
    ///
    /// `db_bound` must be a pure function of the region for the run: it
    /// is called once per distinct region present in `tasks`, before the
    /// first dispatch, and the results are used for the whole window.
    /// Region ids index a table sized by the largest id in `tasks`.
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
    /// schedule is identical to `run`. `db_bound` follows the same
    /// contract as in `run`: pure in the region, called once per region.
    ///
    /// When [`SlurmSim::checkpoint`] is enabled, a killed job keeps the
    /// work covered by its last snapshot (see [`CheckpointPolicy`]) and
    /// its requeued attempt only runs the remaining ticks; the preserved
    /// node-seconds are reported in
    /// [`SlurmStats::recovered_node_secs`] and the per-task resume
    /// ticks in [`SlurmStats::resume_log`].
    ///
    /// Each dispatch starts the first job in queue order, within the
    /// first `lookahead + 1` queue entries, that fits the free nodes, has
    /// DB headroom in its region and can finish before the window
    /// closes; dispatches repeat until none can start. The queue is
    /// indexed by node demand: every entry carries a `u32` key that rises
    /// with queue position (a requeued job takes a key below the current
    /// minimum), and each distinct demand keeps a FIFO of its entries in
    /// key order. A dispatch reads only the classes whose demand fits the
    /// free nodes, each from its head, up to the key of the window's
    /// last entry or of the best candidate so far, and starts the
    /// smallest key that passes. Jobs that need more nodes than are free
    /// are never read.
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
        self.run_counting_requeues(tasks, order, db_bound, failures).0
    }

    /// [`SlurmSim::run_with_faults`], also returning how many requeued
    /// jobs found their demand class empty: the index's rarest path,
    /// which the oracle's random inputs must reach.
    fn run_counting_requeues<F>(
        &self,
        tasks: &[Task],
        order: &[usize],
        db_bound: F,
        failures: &[NodeFailure],
    ) -> (SlurmStats, usize)
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
        // Per-region DB headroom: the bound less the region's running jobs.
        let mut headroom = region_bounds(tasks, db_bound);
        let mut queue = DemandQueue::new(tasks, order);
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
            // Dispatch: start the first job within `lookahead` of the
            // queue head that can start now, until none can.
            loop {
                let scan = queue.len().min(self.lookahead + 1);
                let pick = queue.pop_first(scan, free_nodes, |ti| {
                    let t = &tasks[ti];
                    // A job must also be able to finish before the
                    // window closes (Slurm would not start a job whose
                    // time limit exceeds the reservation).
                    headroom[t.region] > 0
                        && now + attempt_secs(t, done_ticks[ti], ticks_per_task) <= window
                });
                let Some(ti) = pick else { break };
                let t = &tasks[ti];
                let dur = attempt_secs(t, done_ticks[ti], ticks_per_task);
                free_nodes -= t.nodes;
                headroom[t.region] -= 1;
                running.push((now + dur, now, ti, dur));
                peak_nodes = peak_nodes.max(total_nodes - free_nodes);
                start_times[ti] = Some(now);
                if done_ticks[ti] > 0 {
                    resumes += 1;
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
                    headroom[t.region] += 1;
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
                    queue.push_front(ti, tasks[ti].nodes);
                }
                continue;
            }
            let (end, _start, ti, dur) = running.swap_remove(idx);
            now = end;
            let t = &tasks[ti];
            free_nodes += t.nodes;
            headroom[t.region] += 1;
            // `dur` (not end − start) keeps the arithmetic identical to
            // the classic path for never-preempted tasks.
            busy += dur * t.nodes as f64;
            completed += 1;
            last_completion = now;
        }

        let makespan = last_completion;
        let stats = SlurmStats {
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
        };
        (stats, queue.empty_class_requeues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{pack, PackAlgo};
    use crate::task::WorkloadSpec;
    use epiflow_surveillance::{RegionRegistry, Scale};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::HashMap;

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
    fn db_bound_is_called_once_per_region_per_run() {
        // Three regions, many dispatch rounds, and region 9 present in
        // `tasks` but never submitted: still one call per region.
        let mut tasks: Vec<Task> =
            (0..30).map(|i| task(i, REGIONS[i as usize % 3], 1 + i as usize % 4, 100.0)).collect();
        tasks.push(task(30, 9, 1, 100.0));
        let order: Vec<usize> = (0..30).collect();
        let calls = Cell::new(0usize);
        let bound = |_| {
            calls.set(calls.get() + 1);
            2
        };
        let sim = SlurmSim::new(small_cluster(6, 10));
        let stats =
            sim.run_with_faults(&tasks, &order, bound, &[NodeFailure { at_secs: 150.0, nodes: 2 }]);
        assert_eq!(stats.completed, 30);
        assert_eq!(calls.get(), 4);
        sim.run(&tasks, &order, bound);
        assert_eq!(calls.get(), 8);
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

    /// The dispatch loop as it stood before the scan kept node demand in
    /// the queue entry and hoisted the DB bounds: every scan step calls
    /// `db_bound` and reads a `HashMap` of running counts. The oracle the
    /// property tests hold [`SlurmSim::run_with_faults`] to.
    fn reference_run<F>(
        sim: &SlurmSim,
        tasks: &[Task],
        order: &[usize],
        db_bound: F,
        failures: &[NodeFailure],
    ) -> SlurmStats
    where
        F: Fn(RegionId) -> usize,
    {
        let window = sim.cluster.window_secs() as f64;
        let ckpt = sim.checkpoint;
        let ticks_per_task = ckpt.ticks_per_task.max(1);
        let mut total_nodes = sim.cluster.nodes;
        let mut free_nodes = total_nodes;
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
        let mut done_ticks: Vec<u32> = vec![0; tasks.len()];
        let mut pending_failures: Vec<NodeFailure> = failures.to_vec();
        pending_failures.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("NaN failure"));
        let mut next_failure = 0usize;

        loop {
            let mut dispatched = true;
            while dispatched {
                dispatched = false;
                let scan = queue.len().min(sim.lookahead + 1);
                for qi in 0..scan {
                    let ti = queue[qi];
                    let t = &tasks[ti];
                    let bound = db_bound(t.region).max(1);
                    let region_ok = region_running.get(&t.region).copied().unwrap_or(0) < bound;
                    let dur = if done_ticks[ti] == 0 {
                        t.actual_secs
                    } else {
                        t.actual_secs * (ticks_per_task - done_ticks[ti]) as f64
                            / ticks_per_task as f64
                    };
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
                break;
            }
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
                        let secs_per_tick = t.actual_secs / ticks_per_task as f64;
                        let remaining = ticks_per_task - done_ticks[ti];
                        let ran = ((elapsed / secs_per_tick) as u32).min(remaining);
                        let total = done_ticks[ti] + ran;
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
                    busy += recovered_here;
                    recovered_node_secs += recovered_here;
                    lost_node_secs +=
                        elapsed * t.nodes as f64 - recovered_here + write_charge * t.nodes as f64;
                    preempted += 1;
                    requeue.push(ti);
                }
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

    /// Sparse region ids, so a scan indexed by region meets gaps.
    const REGIONS: [RegionId; 3] = [0, 3, 40];

    /// One randomized Slurm run: its tasks, submission order, per-region
    /// DB bounds (0 included, which the scan lifts to 1), machine,
    /// lookahead, failure schedule and checkpoint policy.
    #[derive(Debug)]
    struct Scenario {
        tasks: Vec<Task>,
        order: Vec<usize>,
        bounds: [usize; 3],
        nodes: usize,
        window_hours: u32,
        lookahead: usize,
        failures: Vec<NodeFailure>,
        checkpoint: CheckpointPolicy,
    }

    impl Scenario {
        fn sim(&self) -> SlurmSim {
            let mut sim = SlurmSim::new(small_cluster(self.nodes, self.window_hours));
            sim.lookahead = self.lookahead;
            sim.checkpoint = self.checkpoint;
            sim
        }

        fn bound(&self, region: RegionId) -> usize {
            self.bounds[REGIONS.iter().position(|&r| r == region).expect("known region")]
        }
    }

    /// The time grain of drawn runtimes and failure times: a 32nd of an
    /// hour, so jobs can end exactly when the window closes.
    const STEP: f64 = 112.5;

    fn scenario() -> impl Strategy<Value = Scenario> {
        (
            // Per task: nodes (odd counts included), region slot, runtime
            // in units of `STEP` (equal units tie end times), order key.
            prop::collection::vec((1usize..=8, 0usize..3, 1u32..=16, any::<u32>()), 0..48),
            (0usize..4, 0usize..4, 0usize..4),
            (0usize..4, 8usize..=20, 1u32..=4, any::<bool>()),
            // Failures: when (in `STEP`s since window open) and how many
            // nodes; many land while jobs run and kill some of them.
            prop::collection::vec((0u32..128, 1usize..=12), 0..4),
            (0u8..3, 1u32..=32),
        )
            .prop_map(
                |(specs, (b0, b1, b2), (la, nodes, window_hours, keep_all), fails, (ck, iv))| {
                    let tasks: Vec<Task> = specs
                        .iter()
                        .enumerate()
                        .map(|(i, &(n, slot, units, _))| {
                            task(i as u32, REGIONS[slot], n, units as f64 * STEP)
                        })
                        .collect();
                    let mut order: Vec<usize> = (0..tasks.len()).collect();
                    order.sort_by_key(|&i| specs[i].3);
                    if !keep_all {
                        // Submit a subset: some tasks are never queued.
                        order.retain(|&i| specs[i].3 % 5 != 0);
                    }
                    let checkpoint = match ck {
                        0 => CheckpointPolicy::default(),
                        // Grace below the write cost: fall back to the last
                        // periodic snapshot.
                        1 => CheckpointPolicy {
                            enabled: true,
                            interval_ticks: iv,
                            ticks_per_task: 100,
                            write_cost_secs: 15.0,
                            grace_secs: 5.0,
                        },
                        // Grace covers the write: keep everything run.
                        _ => CheckpointPolicy {
                            enabled: true,
                            interval_ticks: iv,
                            ticks_per_task: 100,
                            write_cost_secs: 15.0,
                            grace_secs: 30.0,
                        },
                    };
                    Scenario {
                        tasks,
                        order,
                        bounds: [b0, b1, b2],
                        nodes,
                        window_hours,
                        lookahead: [0, 1, 3, 1024][la],
                        failures: fails
                            .iter()
                            .map(|&(at, n)| NodeFailure { at_secs: at as f64 * STEP, nodes: n })
                            .collect(),
                        checkpoint,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The scan dispatches exactly as the reference scan does: the
        /// whole `SlurmStats`, start times and resume lineage included,
        /// over random task sets, bounds, lookaheads, failure schedules
        /// and checkpoint policies.
        #[test]
        fn slurm_scan_matches_reference_scan(s in scenario()) {
            let sim = s.sim();
            let got = sim.run_with_faults(&s.tasks, &s.order, |r| s.bound(r), &s.failures);
            let want = reference_run(&sim, &s.tasks, &s.order, |r| s.bound(r), &s.failures);
            prop_assert_eq!(got, want, "{:?}", s);
        }
    }

    /// The oracle's inputs reach the paths that matter: DB caps that
    /// bind, window cut-offs, kills of running jobs under every
    /// checkpoint mode, and resumes from both kinds of snapshot.
    #[test]
    fn slurm_scan_oracle_inputs_cover_kills_resumes_and_cutoffs() {
        let (mut capped, mut cut_off, mut long_mixed_queue, mut empty_class_requeues) =
            (0, 0, 0, 0);
        // Per checkpoint mode: off, grace below the write cost, above it.
        let (mut killed, mut resumed) = ([0usize; 3], [0usize; 3]);
        for case in 0..512 {
            let mut rng = proptest::test_rng(file!(), line!(), case);
            let s = scenario().sample(&mut rng);
            let stats = reference_run(&s.sim(), &s.tasks, &s.order, |r| s.bound(r), &s.failures);
            let (_, empty_requeues) =
                s.sim().run_counting_requeues(&s.tasks, &s.order, |r| s.bound(r), &s.failures);
            empty_class_requeues += usize::from(empty_requeues > 0);
            let mut demands: Vec<usize> = s.order.iter().map(|&ti| s.tasks[ti].nodes).collect();
            demands.sort_unstable();
            demands.dedup();
            long_mixed_queue += usize::from(s.order.len() > s.lookahead + 1 && demands.len() >= 2);
            capped += usize::from(s.bounds.contains(&0) && !s.order.is_empty());
            cut_off += usize::from(stats.unstarted > 0 && stats.completed > 0);
            let ck = s.checkpoint;
            let mode = match (ck.enabled, ck.grace_secs >= ck.write_cost_secs) {
                (false, _) => 0,
                (true, false) => 1,
                (true, true) => 2,
            };
            killed[mode] += usize::from(stats.preempted > 0);
            resumed[mode] += usize::from(stats.resumes > 0);
        }
        assert!(capped > 150, "bound-0 regions: {capped}");
        assert!(cut_off > 150, "window cut-offs: {cut_off}");
        assert!(killed.iter().all(|&k| k > 25), "kills per checkpoint mode: {killed:?}");
        assert!(resumed[1] > 8 && resumed[2] > 8, "resumes per checkpoint mode: {resumed:?}");
        assert!(long_mixed_queue > 150, "queues past the window, mixed demand: {long_mixed_queue}");
        assert!(empty_class_requeues > 25, "requeues into an empty class: {empty_class_requeues}");
    }

    /// The 9,180-task prediction workload packed by FFDT-DC for Bridges,
    /// under the nightly DB bound of 16 tasks per region: a queue about
    /// nine times the default lookahead window.
    fn paper_scale() -> (Vec<Task>, Vec<usize>, SlurmSim) {
        let tasks = WorkloadSpec::prediction().generate(&RegionRegistry::new(), Scale::default());
        let sim = SlurmSim::new(ClusterSpec::bridges());
        let plan = pack(&tasks, sim.cluster.nodes, |_| 16, PackAlgo::FfdtDc);
        let order: Vec<usize> = plan.levels.iter().flat_map(|l| l.tasks.iter().copied()).collect();
        assert!(order.len() > 8 * (sim.lookahead + 1));
        (tasks, order, sim)
    }

    #[test]
    fn slurm_index_matches_reference_at_paper_scale() {
        let (tasks, order, sim) = paper_scale();
        let got = sim.run_with_faults(&tasks, &order, |_| 16, &[]);
        assert_eq!(got.completed, tasks.len());
        assert_eq!(got, reference_run(&sim, &tasks, &order, |_| 16, &[]));
    }

    #[test]
    fn slurm_index_matches_reference_at_paper_scale_with_failures_and_checkpoints() {
        let (tasks, order, mut sim) = paper_scale();
        sim.checkpoint = CheckpointPolicy::every(16);
        let failures = [
            NodeFailure { at_secs: 1800.0, nodes: 96 },
            NodeFailure { at_secs: 7200.0, nodes: 200 },
        ];
        let got = sim.run_with_faults(&tasks, &order, |_| 16, &failures);
        assert!(got.preempted > 0 && got.resumes > 0, "{} preempted", got.preempted);
        assert_eq!(got, reference_run(&sim, &tasks, &order, |_| 16, &failures));
    }
}

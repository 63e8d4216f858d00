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

/// The job queue, split into lanes: one FIFO per ⟨node demand, region⟩.
///
/// Every queued job carries a `u32` key that rises with its queue
/// position, and `keys` holds the keys in queue order, so the lookahead
/// window of `scan` entries ends at key `keys[scan - 1]`. A *lane* holds
/// the `(key, task index)` entries of one demand class and one region in
/// key order.
///
/// The queue also owns the per-region DB headroom: the bound less the
/// region's running jobs. Each class keeps its *ready set* as a
/// [`MinTree`] over regions: between calls, leaf `r` of class `c` holds
/// the head key of lane ⟨c, r⟩ if that lane is not empty and
/// `headroom[r] > 0`, and `u32::MAX` otherwise. So a dispatch that takes a
/// region's headroom to 0 takes its lanes out of every class's ready set,
/// and [`DemandQueue::release`] puts them back when a completion or a
/// kill returns it to 1.
///
/// The smallest key a class can start is then its ready set's first
/// entry, unless that job cannot finish before the window closes. Such a
/// head is *dead*: `now` never decreases over a run, and a queued job's
/// `done_ticks` changes only when it is killed while running, so its
/// attempt can never fit again. A dead head is dropped from its lane, but
/// its key stays in `keys`: it still fills a slot of the lookahead window
/// and counts as unstarted, as in a plain scan of the queue.
struct DemandQueue {
    keys: VecDeque<u32>,
    /// Node demand of each class, ascending.
    demands: Vec<usize>,
    /// Lane ⟨c, r⟩ at `c * regions + r`.
    lanes: Vec<VecDeque<(u32, u32)>>,
    /// Per class, each region's ready head key (`u32::MAX` if none).
    ready: Vec<MinTree<u32>>,
    /// Per-region DB headroom, indexed by region id.
    headroom: Vec<usize>,
    /// The key the last requeued job took (initially the first job's
    /// key): every queued key is at least this.
    front_key: u32,
    counts: RunCounts,
}

/// How often a run took the rare paths of its queue and completion tree,
/// which the oracle's random inputs must reach.
#[derive(Clone, Copy, Debug, Default)]
#[cfg_attr(not(test), allow(dead_code))] // read by the coverage test only
struct RunCounts {
    /// Requeued jobs that found their lane empty.
    empty_lane_requeues: usize,
    /// Kills in a region at its DB cap: the kill returns the region's
    /// lanes, the one its job is requeued to among them, to the ready sets.
    capped_requeues: usize,
    /// Window-dead heads dropped from their lanes.
    dead_heads: usize,
    /// Releases that returned a region to two or more classes' ready sets.
    multi_class_rejoins: usize,
    /// Completions chosen among equal end times.
    tied_completions: usize,
}

impl DemandQueue {
    /// `order` as submitted, with the per-region `headroom` of
    /// `region_bounds`. Keys count up from `u32::MAX - order.len()`,
    /// which leaves that many keys below for requeued jobs.
    fn new(tasks: &[Task], order: &[usize], headroom: Vec<usize>) -> Self {
        let len = u32::try_from(order.len()).expect("queue length fits u32");
        let front_key = u32::MAX - len;
        let mut demands: Vec<usize> = order.iter().map(|&ti| tasks[ti].nodes).collect();
        demands.sort_unstable();
        demands.dedup();
        let regions = headroom.len();
        let mut lanes = vec![VecDeque::new(); demands.len() * regions];
        for (&ti, key) in order.iter().zip(front_key..) {
            let ci = demands.binary_search(&tasks[ti].nodes).expect("a queued demand");
            lanes[ci * regions + tasks[ti].region]
                .push_back((key, u32::try_from(ti).expect("task index fits u32")));
        }
        let mut queue = DemandQueue {
            keys: (front_key..front_key + len).collect(),
            ready: vec![MinTree::new(regions, u32::MAX); demands.len()],
            demands,
            lanes,
            headroom,
            front_key,
            counts: RunCounts::default(),
        };
        for region in 0..regions {
            queue.refresh_region(region);
        }
        queue
    }

    fn lane(&mut self, ci: usize, region: usize) -> &mut VecDeque<(u32, u32)> {
        &mut self.lanes[ci * self.headroom.len() + region]
    }

    /// Restore class `ci`'s ready-set leaf for `region`.
    fn refresh(&mut self, ci: usize, region: usize) {
        let head = self.lane(ci, region).front().map(|e| e.0);
        let key = head.filter(|_| self.headroom[region] > 0).unwrap_or(u32::MAX);
        self.ready[ci].set(region, key);
    }

    /// Restore every class's ready-set leaf for `region`.
    fn refresh_region(&mut self, region: usize) {
        for ci in 0..self.demands.len() {
            self.refresh(ci, region);
        }
    }

    /// Remove and return the first job in queue order, among the first
    /// `scan` entries, whose node demand fits `free_nodes`, whose region
    /// has headroom and which `fits` the window. Only classes that fit
    /// are read, each from the first entry of its ready set: up to the
    /// window's last key or the best candidate so far, dropping dead
    /// heads on the way.
    fn pop_first(
        &mut self,
        scan: usize,
        free_nodes: usize,
        fits: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let window_end = *self.keys.get(scan.checked_sub(1)?)?;
        // (key, class, region) of the best candidate.
        let mut best: Option<(u32, usize, usize)> = None;
        for ci in 0..self.demands.len() {
            if self.demands[ci] > free_nodes {
                break;
            }
            let limit = best.map_or(window_end, |b| b.0);
            loop {
                // Queued keys are below `u32::MAX`, so an empty set stops here.
                let (key, region) = self.ready[ci].first();
                if key > limit {
                    break;
                }
                let (_, ti) = self.lane(ci, region)[0];
                if fits(ti as usize) {
                    best = Some((key, ci, region));
                    break;
                }
                self.counts.dead_heads += 1;
                self.lane(ci, region).pop_front();
                self.refresh(ci, region);
            }
        }
        let (key, ci, region) = best?;
        let (_, ti) = self.lane(ci, region).pop_front().expect("a ready lane is not empty");
        let qi = self.keys.binary_search(&key).expect("a picked key is queued");
        self.keys.remove(qi);
        self.headroom[region] -= 1;
        if self.headroom[region] == 0 {
            self.refresh_region(region);
        } else {
            self.refresh(ci, region);
        }
        Some(ti as usize)
    }

    /// Return one DB connection to `region`, after a completion or a
    /// kill; a region back from its cap rejoins the ready sets. Returns
    /// whether the region was at its cap.
    fn release(&mut self, region: usize) -> bool {
        self.headroom[region] += 1;
        if self.headroom[region] > 1 {
            return false;
        }
        let lanes = (0..self.demands.len()).filter(|&ci| !self.lane(ci, region).is_empty());
        self.counts.multi_class_rejoins += usize::from(lanes.count() >= 2);
        self.refresh_region(region);
        true
    }

    /// Requeue task `ti` at the head of the queue and of its lane, with a
    /// key below every queued one.
    fn push_front(&mut self, ti: usize, t: &Task) {
        self.front_key = self.front_key.checked_sub(1).expect("requeue keys exhausted");
        self.keys.push_front(self.front_key);
        let ci = self.demands.binary_search(&t.nodes).expect("a queued demand class");
        let entry = (self.front_key, u32::try_from(ti).expect("task index fits u32"));
        self.counts.empty_lane_requeues += usize::from(self.lane(ci, t.region).is_empty());
        self.lane(ci, t.region).push_front(entry);
        self.refresh(ci, t.region);
    }
}

/// A leftmost-min tournament tree over the slots `0..n`: each inner
/// node holds the smaller `(key, slot)` of its two children, the left one
/// on equal keys. Every slot under a left child is lower than every slot
/// under its sibling, so the root is the *first* minimum by slot, the
/// element `Iterator::min_by` over the slots picks. Setting a slot costs
/// one pass up the tree.
#[derive(Clone)]
struct MinTree<K> {
    /// Node 1 is the root and node 0 is unused; leaf `i` is at `len / 2 + i`.
    nodes: Vec<(K, usize)>,
}

impl<K: PartialOrd + Copy> MinTree<K> {
    /// A tree over `n` slots, each holding `empty`, a key above every
    /// key that is set.
    fn new(n: usize, empty: K) -> Self {
        MinTree { nodes: vec![(empty, 0); 2 * n.next_power_of_two()] }
    }

    /// The smallest key and its lowest slot.
    fn first(&self) -> (K, usize) {
        self.nodes[1]
    }

    fn set(&mut self, slot: usize, key: K) {
        let mut node = self.nodes.len() / 2 + slot;
        self.nodes[node] = (key, slot);
        while node > 1 {
            node /= 2;
            let (left, right) = (self.nodes[2 * node], self.nodes[2 * node + 1]);
            self.nodes[node] = if right.0 < left.0 { right } else { left };
        }
    }
}

/// A running job: end time, start time, task index and planned duration.
type Job = (f64, f64, usize, f64);

/// The running jobs, with a [`MinTree`] of their end times for the next
/// completion: on equal end times it picks the lowest slot, as a linear
/// scan would (a binary heap would reorder them).
struct Running {
    jobs: Vec<Job>,
    ends: MinTree<f64>,
}

impl Running {
    /// Room for `most` jobs at once.
    fn new(most: usize) -> Self {
        Running { jobs: Vec::with_capacity(most), ends: MinTree::new(most, f64::INFINITY) }
    }

    /// Slot and end time of the next job to complete.
    fn next_end(&self) -> Option<(usize, f64)> {
        let (end, slot) = self.ends.first();
        (!self.jobs.is_empty()).then_some((slot, end))
    }

    fn push(&mut self, job: Job) {
        self.ends.set(self.jobs.len(), job.0);
        self.jobs.push(job);
    }

    /// Remove the job in `slot`; the last job moves into it.
    fn swap_remove(&mut self, slot: usize) -> Job {
        let job = self.jobs.swap_remove(slot);
        if let Some(moved) = self.jobs.get(slot) {
            self.ends.set(slot, moved.0);
        }
        self.ends.set(self.jobs.len(), f64::INFINITY);
        job
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
    /// closes; dispatches repeat until none can start. Between
    /// dispatches, the earliest end time among running jobs completes
    /// (on equal end times, the job started first in slot order), unless
    /// a node failure fires first. Both steps cost about a logarithm of
    /// the queue or of the running set:
    /// - the queue keeps one FIFO per ⟨node demand, region⟩ and, per
    ///   demand, a tournament tree over regions of the heads of the FIFOs
    ///   whose region has DB headroom. A dispatch reads one head per demand
    ///   that fits the free nodes, and drops heads that can no longer
    ///   finish before the window closes (task runtimes are
    ///   non-negative, so the clock never runs backwards). Jobs that
    ///   need more nodes than are free, or whose region is at its DB
    ///   bound, are never read;
    /// - a tournament tree over the running jobs' slots names the next
    ///   completion and breaks ties toward the lower slot, as a linear
    ///   scan would.
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
        self.run_counting(tasks, order, db_bound, failures).0
    }

    /// [`SlurmSim::run_with_faults`], also returning how often the run
    /// took the rare paths of its queue and completion tree.
    fn run_counting<F>(
        &self,
        tasks: &[Task],
        order: &[usize],
        db_bound: F,
        failures: &[NodeFailure],
    ) -> (SlurmStats, RunCounts)
    where
        F: Fn(RegionId) -> usize,
    {
        let window = self.cluster.window_secs() as f64;
        let ckpt = self.checkpoint;
        let ticks_per_task = ckpt.ticks_per_task.max(1);
        let mut total_nodes = self.cluster.nodes;
        let mut free_nodes = total_nodes;
        let mut queue = DemandQueue::new(tasks, order, region_bounds(tasks, db_bound));
        // Every running job left the queue and holds at least the smallest
        // demand's nodes.
        let most_running = queue.demands.first().map_or(0, |&least| {
            order.len().min(total_nodes.checked_div(least).unwrap_or(usize::MAX))
        });
        let mut running = Running::new(most_running);
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
                let scan = queue.keys.len().min(self.lookahead + 1);
                let pick = queue.pop_first(scan, free_nodes, |ti| {
                    // A job must also be able to finish before the
                    // window closes (Slurm would not start a job whose
                    // time limit exceeds the reservation).
                    now + attempt_secs(&tasks[ti], done_ticks[ti], ticks_per_task) <= window
                });
                let Some(ti) = pick else { break };
                let t = &tasks[ti];
                let dur = attempt_secs(t, done_ticks[ti], ticks_per_task);
                free_nodes -= t.nodes;
                running.push((now + dur, now, ti, dur));
                peak_nodes = peak_nodes.max(total_nodes - free_nodes);
                start_times[ti] = Some(now);
                if done_ticks[ti] > 0 {
                    resumes += 1;
                }
            }

            // Next event: earliest completion, unless a node failure
            // fires first.
            let Some((idx, end)) = running.next_end() else {
                break; // nothing running and nothing dispatchable
            };
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
                        .jobs
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
                    queue.counts.capped_requeues += usize::from(queue.release(t.region));
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
                    queue.push_front(ti, &tasks[ti]);
                }
                continue;
            }
            let (end, _start, ti, dur) = running.swap_remove(idx);
            queue.counts.tied_completions +=
                usize::from(running.next_end().is_some_and(|(_, next)| next == end));
            now = end;
            let t = &tasks[ti];
            free_nodes += t.nodes;
            queue.release(t.region);
            // `dur` (not end − start) keeps the arithmetic identical to
            // the classic path for never-preempted tasks.
            busy += dur * t.nodes as f64;
            completed += 1;
            last_completion = now;
        }

        let makespan = last_completion;
        let stats = SlurmStats {
            completed,
            unstarted: queue.keys.len(),
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
        (stats, queue.counts)
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
    /// checkpoint mode, and resumes from both kinds of snapshot; and in
    /// the queue's lanes and the completion tree, requeues into an empty
    /// lane and into a region at its DB cap, dropped dead heads, a region
    /// filed again in two or more classes, and completions chosen among
    /// equal end times.
    #[test]
    fn slurm_scan_oracle_inputs_cover_kills_resumes_and_cutoffs() {
        let (mut capped, mut cut_off, mut long_mixed_queue) = (0, 0, 0);
        let (mut empty_lane_requeues, mut capped_requeues, mut dead_heads) = (0, 0, 0);
        let (mut multi_class_rejoins, mut tied_completions) = (0, 0);
        // Per checkpoint mode: off, grace below the write cost, above it.
        let (mut killed, mut resumed) = ([0usize; 3], [0usize; 3]);
        for case in 0..512 {
            let mut rng = proptest::test_rng(file!(), line!(), case);
            let s = scenario().sample(&mut rng);
            let stats = reference_run(&s.sim(), &s.tasks, &s.order, |r| s.bound(r), &s.failures);
            let (_, counts) = s.sim().run_counting(&s.tasks, &s.order, |r| s.bound(r), &s.failures);
            empty_lane_requeues += usize::from(counts.empty_lane_requeues > 0);
            capped_requeues += usize::from(counts.capped_requeues > 0);
            dead_heads += usize::from(counts.dead_heads > 0);
            multi_class_rejoins += usize::from(counts.multi_class_rejoins > 0);
            tied_completions += usize::from(counts.tied_completions > 0);
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
        // Cases that reach each rare path of the lanes and the completion
        // tree (125, 137, 196, 416 and 246 of 512 when the floors were set).
        assert!(empty_lane_requeues > 60, "requeues into an empty lane: {empty_lane_requeues}");
        assert!(capped_requeues > 50, "requeues into a region at its cap: {capped_requeues}");
        assert!(dead_heads > 100, "window-dead heads dropped: {dead_heads}");
        assert!(multi_class_rejoins > 200, "regions back in 2+ classes: {multi_class_rejoins}");
        assert!(tied_completions > 120, "completions among equal end times: {tied_completions}");
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

    /// A three-hour window and a bound of 4 per region: many jobs can no
    /// longer finish once the night is under way, so dispatches drop dead
    /// lane heads, while their keys still fill the lookahead window.
    #[test]
    fn slurm_index_matches_reference_at_paper_scale_with_window_cutoff() {
        let (tasks, order, mut sim) = paper_scale();
        sim.cluster.window = Some((0, 3 * 3600));
        let (got, counts) = sim.run_counting(&tasks, &order, |_| 4, &[]);
        assert!(got.unstarted > 0 && counts.dead_heads > 0, "{} unstarted", got.unstarted);
        assert_eq!(got, reference_run(&sim, &tasks, &order, |_| 4, &[]));
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

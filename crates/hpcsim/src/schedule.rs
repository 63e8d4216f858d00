//! The workflow mapping problem and the level-oriented packing
//! heuristics (§V).
//!
//! Think of nodes on the X-axis and time on the Y-axis: tasks are
//! rectangles (width = nodes, height = runtime). Tasks are taken in
//! non-increasing runtime order and packed into **levels**; within a
//! level all tasks start together ("packed so that their bottoms
//! align") and the level's height is its slowest task.
//!
//! * **NFDT-DC** (next-fit decreasing time, DB-constrained): the next
//!   task goes on the *current* level if it fits and DB constraints
//!   hold; otherwise the level is closed and a new one opened.
//! * **FFDT-DC** (first-fit decreasing time, DB-constrained): the next
//!   task goes on the *first* level that can take it; only if none can
//!   is a new level started.
//!
//! The paper's utilization collapse (44–56% initially vs ≈96% deployed)
//! is the contrast between two configurations: the deployed
//! **FFDT-DC with largest-jobs-first ordering** ([`pack`]) and the
//! initial runs "without this scheduling scheme" — next-fit packing in
//! **arrival order** ([`pack_arrival`]), where mixed task heights
//! within a level leave most of each level's rectangle idle, and DB
//! constraints close levels early.

use crate::task::{region_bounds, Task};
use epiflow_surveillance::RegionId;
use std::collections::HashMap;

/// Which packer to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackAlgo {
    NfdtDc,
    FfdtDc,
}

/// One level of the packing.
#[derive(Clone, Debug, Default)]
pub struct Level {
    /// Indices into the workload's task vector.
    pub tasks: Vec<usize>,
    /// Nodes in use.
    pub width: usize,
    /// Estimated height (max est_secs).
    pub height_est: f64,
}

/// A full level plan.
#[derive(Clone, Debug, Default)]
pub struct LevelPlan {
    pub levels: Vec<Level>,
    pub total_nodes: usize,
}

/// Execution statistics (the EC metric of §V).
#[derive(Clone, Debug, PartialEq)]
pub struct ExecStats {
    /// Total wall-clock seconds until the last task completed.
    pub makespan_secs: f64,
    /// Σ actual_secs × nodes over all tasks.
    pub busy_node_secs: f64,
    /// EC = busy / (allocated_nodes × makespan). Fig. 9 measures the
    /// "percent of CPU hours *allocated* that were actually used", so
    /// the denominator is the reservation (the widest level), not the
    /// whole machine.
    pub utilization: f64,
    /// Nodes reserved for the run (max level width).
    pub allocated_nodes: usize,
    /// Number of levels executed.
    pub n_levels: usize,
}

/// Pack `tasks` onto a machine with `total_nodes` nodes, bounding each
/// region's concurrent tasks by `db_bound(region)` (a bound of 0 counts
/// as 1).
///
/// `db_bound` must be a pure function of the region for the call: it is
/// called once per distinct region present in `tasks`, before the first
/// placement, and the results are used for the whole packing. Region
/// ids index a table sized by the largest id in `tasks`.
///
/// Returns the plan; task order inside is by non-increasing `est_secs`
/// (ties broken by id for determinism).
pub fn pack<F>(tasks: &[Task], total_nodes: usize, db_bound: F, algo: PackAlgo) -> LevelPlan
where
    F: Fn(RegionId) -> usize,
{
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        tasks[b]
            .est_secs
            .partial_cmp(&tasks[a].est_secs)
            .expect("NaN runtime")
            .then(tasks[a].id.cmp(&tasks[b].id))
    });
    pack_in_order(tasks, &order, total_nodes, db_bound, algo)
}

/// Pack in *arrival order* — the paper's initial configuration, before
/// largest-jobs-first was adopted ("our initial workflow runs without
/// this scheduling scheme led to utilization numbers between 44.237%
/// and 55.579%"). Mixed task heights within a level make the level as
/// tall as its slowest task while most of its rectangle sits idle.
pub fn pack_arrival<F>(tasks: &[Task], total_nodes: usize, db_bound: F, algo: PackAlgo) -> LevelPlan
where
    F: Fn(RegionId) -> usize,
{
    let order: Vec<usize> = (0..tasks.len()).collect();
    pack_in_order(tasks, &order, total_nodes, db_bound, algo)
}

/// Pack with an explicit task order. `db_bound` follows the contract
/// of [`pack`]: pure in the region, called once per region.
pub fn pack_in_order<F>(
    tasks: &[Task],
    order: &[usize],
    total_nodes: usize,
    db_bound: F,
    algo: PackAlgo,
) -> LevelPlan
where
    F: Fn(RegionId) -> usize,
{
    assert!(total_nodes > 0, "machine must have nodes");
    assert_eq!(order.len(), tasks.len(), "order must cover every task");

    let bound = region_bounds(tasks, db_bound);
    let n_regions = bound.len();
    let mut levels: Vec<Level> = Vec::new();
    // The DB constraint state: level `li`'s running count of region `r`
    // is `counts[li * n_regions + r]`.
    let mut counts: Vec<usize> = Vec::new();

    for &ti in order {
        let t = &tasks[ti];
        assert!(t.nodes <= total_nodes, "task {} needs more nodes than the machine has", t.id);
        let fits = |li: usize| {
            levels[li].width + t.nodes <= total_nodes
                && counts[li * n_regions + t.region] < bound[t.region]
        };
        let slot = match algo {
            PackAlgo::NfdtDc => levels.len().checked_sub(1).filter(|&li| fits(li)),
            PackAlgo::FfdtDc => (0..levels.len()).find(|&li| fits(li)),
        };
        let li = slot.unwrap_or_else(|| {
            levels.push(Level::default());
            counts.resize(counts.len() + n_regions, 0);
            levels.len() - 1
        });
        let level = &mut levels[li];
        level.tasks.push(ti);
        level.width += t.nodes;
        level.height_est = level.height_est.max(t.est_secs);
        counts[li * n_regions + t.region] += 1;
    }
    LevelPlan { levels, total_nodes }
}

impl LevelPlan {
    /// Number of tasks packed.
    pub fn n_tasks(&self) -> usize {
        self.levels.iter().map(|l| l.tasks.len()).sum()
    }

    /// Simulate execution with the tasks' *actual* runtimes: levels run
    /// in sequence (job-array chunks with a barrier), each level's
    /// duration is its slowest realized task.
    pub fn execute(&self, tasks: &[Task]) -> ExecStats {
        let mut makespan = 0.0f64;
        let mut busy = 0.0f64;
        for level in &self.levels {
            let mut height = 0.0f64;
            for &ti in &level.tasks {
                let t = &tasks[ti];
                busy += t.actual_secs * t.nodes as f64;
                height = height.max(t.actual_secs);
            }
            makespan += height;
        }
        let allocated = self.levels.iter().map(|l| l.width).max().unwrap_or(0);
        let utilization = if makespan > 0.0 && allocated > 0 {
            busy / (allocated as f64 * makespan)
        } else {
            1.0
        };
        ExecStats {
            makespan_secs: makespan,
            busy_node_secs: busy,
            utilization,
            allocated_nodes: allocated,
            n_levels: self.levels.len(),
        }
    }

    /// Verify invariants: every task exactly once, widths within the
    /// machine, DB bounds respected per level.
    pub fn validate<F>(&self, tasks: &[Task], db_bound: F) -> Result<(), String>
    where
        F: Fn(RegionId) -> usize,
    {
        let mut seen = vec![false; tasks.len()];
        for (li, level) in self.levels.iter().enumerate() {
            let mut width = 0usize;
            let mut counts: HashMap<RegionId, usize> = HashMap::new();
            for &ti in &level.tasks {
                if seen[ti] {
                    return Err(format!("task {ti} placed twice"));
                }
                seen[ti] = true;
                width += tasks[ti].nodes;
                *counts.entry(tasks[ti].region).or_insert(0) += 1;
            }
            if width > self.total_nodes {
                return Err(format!("level {li} width {width} > {}", self.total_nodes));
            }
            for (r, c) in counts {
                if c > db_bound(r).max(1) {
                    return Err(format!("level {li}: region {r} has {c} concurrent tasks"));
                }
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err("some tasks were never placed".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn task(id: u32, region: RegionId, nodes: usize, secs: f64) -> Task {
        Task { id, region, cell: 0, replicate: 0, nodes, est_secs: secs, actual_secs: secs }
    }

    fn uniform_tasks(n: u32, nodes: usize, secs: f64) -> Vec<Task> {
        (0..n).map(|i| task(i, (i % 4) as usize, nodes, secs)).collect()
    }

    #[test]
    fn perfect_fill_gives_full_utilization() {
        // 16 identical tasks of 2 nodes on an 8-node machine: 4 levels,
        // utilization 1.0.
        let tasks = uniform_tasks(16, 2, 100.0);
        for algo in [PackAlgo::NfdtDc, PackAlgo::FfdtDc] {
            let plan = pack(&tasks, 8, |_| 100, algo);
            plan.validate(&tasks, |_| 100).unwrap();
            let stats = plan.execute(&tasks);
            assert!((stats.utilization - 1.0).abs() < 1e-12, "{algo:?}: {stats:?}");
            assert_eq!(stats.n_levels, 4);
        }
    }

    #[test]
    fn db_bound_respected() {
        // 8 tasks all one region, bound 2, machine fits 4 → levels of 2.
        let tasks: Vec<Task> = (0..8).map(|i| task(i, 0, 1, 50.0)).collect();
        for algo in [PackAlgo::NfdtDc, PackAlgo::FfdtDc] {
            let plan = pack(&tasks, 4, |_| 2, algo);
            plan.validate(&tasks, |_| 2).unwrap();
            for level in &plan.levels {
                assert!(level.tasks.len() <= 2);
            }
        }
    }

    #[test]
    fn ffdt_decreasing_beats_nfdt_arrival() {
        // The paper's headline contrast: the deployed FFDT-DC with
        // largest-first ordering vs the initial NFDT-DC in arrival
        // order. Cell-major arrival interleaves big and small regions,
        // so arrival-order levels pair 1000-second giants with
        // 100-second dwarfs.
        let mut tasks = Vec::new();
        let mut id = 0;
        for cell in 0..12u32 {
            let _ = cell;
            for region in 0..8usize {
                let secs = if region < 2 { 1000.0 } else { 100.0 };
                let nodes = if region < 2 { 6 } else { 2 };
                tasks.push(task(id, region, nodes, secs));
                id += 1;
            }
        }
        let nf = pack_arrival(&tasks, 24, |_| 16, PackAlgo::NfdtDc);
        let ff = pack(&tasks, 24, |_| 16, PackAlgo::FfdtDc);
        nf.validate(&tasks, |_| 16).unwrap();
        ff.validate(&tasks, |_| 16).unwrap();
        let nf_stats = nf.execute(&tasks);
        let ff_stats = ff.execute(&tasks);
        assert!(
            ff_stats.utilization > nf_stats.utilization + 0.2,
            "FFDT {} vs NFDT {}",
            ff_stats.utilization,
            nf_stats.utilization
        );
        assert!(ff_stats.makespan_secs < nf_stats.makespan_secs);
        assert!(ff_stats.utilization > 0.85, "deployed config: {}", ff_stats.utilization);
    }

    #[test]
    fn decreasing_order_within_plan() {
        let tasks: Vec<Task> =
            (0..10).map(|i| task(i, i as usize % 3, 1, (i as f64 + 1.0) * 10.0)).collect();
        let plan = pack(&tasks, 100, |_| 100, PackAlgo::FfdtDc);
        // Everything fits one level; the first placed is the longest.
        assert_eq!(plan.levels.len(), 1);
        assert_eq!(plan.levels[0].tasks[0], 9);
    }

    #[test]
    fn wide_task_forces_new_level() {
        let tasks = vec![task(0, 0, 6, 100.0), task(1, 1, 6, 90.0), task(2, 2, 6, 80.0)];
        let plan = pack(&tasks, 8, |_| 10, PackAlgo::FfdtDc);
        assert_eq!(plan.levels.len(), 3, "6-node tasks cannot share an 8-node machine");
    }

    #[test]
    fn execute_accounts_actuals_not_estimates() {
        let mut tasks = uniform_tasks(4, 2, 100.0);
        tasks[0].actual_secs = 200.0; // slow outlier stretches its level
        let plan = pack(&tasks, 8, |_| 10, PackAlgo::FfdtDc);
        let stats = plan.execute(&tasks);
        assert!((stats.makespan_secs - 200.0).abs() < 1e-9);
        assert!(stats.utilization < 1.0);
    }

    #[test]
    fn validate_catches_overwidth() {
        let tasks = vec![task(0, 0, 4, 10.0), task(1, 1, 4, 10.0)];
        let mut plan = pack(&tasks, 8, |_| 10, PackAlgo::FfdtDc);
        plan.total_nodes = 4; // corrupt
        assert!(plan.validate(&tasks, |_| 10).is_err());
    }

    #[test]
    fn validate_catches_region_over_its_bound() {
        // Both tasks of region 0 share a level under a bound of 2; a bound
        // of 1 (an r-relaxed colouring with r = 0) rejects that level.
        let tasks = vec![task(0, 0, 1, 10.0), task(1, 0, 1, 10.0)];
        let plan = pack(&tasks, 8, |_| 2, PackAlgo::FfdtDc);
        assert_eq!(plan.levels.len(), 1);
        plan.validate(&tasks, |_| 2).unwrap();
        assert!(plan.validate(&tasks, |_| 1).is_err());
    }

    #[test]
    #[should_panic(expected = "more nodes than the machine")]
    fn rejects_oversized_task() {
        let tasks = vec![task(0, 0, 100, 10.0)];
        pack(&tasks, 8, |_| 10, PackAlgo::FfdtDc);
    }

    #[test]
    fn empty_workload() {
        let plan = pack(&[], 8, |_| 10, PackAlgo::FfdtDc);
        assert_eq!(plan.n_tasks(), 0);
        let stats = plan.execute(&[]);
        assert_eq!(stats.makespan_secs, 0.0);
        assert_eq!(stats.utilization, 1.0);
    }

    #[test]
    fn pack_calls_db_bound_once_per_region() {
        let tasks: Vec<Task> = (0..40)
            .map(|i| task(i, [2, 9, 17][i as usize % 3], 1 + i as usize % 3, 60.0))
            .collect();
        let calls = Cell::new(0usize);
        let bound = |_| {
            calls.set(calls.get() + 1);
            2
        };
        for algo in [PackAlgo::NfdtDc, PackAlgo::FfdtDc] {
            let before = calls.get();
            let plan = pack(&tasks, 8, bound, algo);
            assert_eq!(calls.get() - before, 3, "{algo:?}");
            plan.validate(&tasks, |_| 2).unwrap();
        }
    }

    /// The packer as it stood before it hoisted the DB bounds: every
    /// placement calls `db_bound` and each level keeps a `HashMap` of
    /// per-region counts. The oracle the property test holds
    /// [`pack_in_order`] to; a level is (tasks, width, estimated height).
    fn reference_pack_in_order<F>(
        tasks: &[Task],
        order: &[usize],
        total_nodes: usize,
        db_bound: F,
        algo: PackAlgo,
    ) -> Vec<(Vec<usize>, usize, f64)>
    where
        F: Fn(RegionId) -> usize,
    {
        #[derive(Default)]
        struct RefLevel {
            tasks: Vec<usize>,
            width: usize,
            height_est: f64,
            region_count: HashMap<RegionId, usize>,
        }
        let mut levels: Vec<RefLevel> = Vec::new();
        let fits = |level: &RefLevel, t: &Task, bound: usize| {
            level.width + t.nodes <= total_nodes
                && level.region_count.get(&t.region).copied().unwrap_or(0) < bound
        };
        for &ti in order {
            let t = &tasks[ti];
            let bound = db_bound(t.region).max(1);
            let slot = match algo {
                PackAlgo::NfdtDc => {
                    levels.len().checked_sub(1).filter(|&i| fits(&levels[i], t, bound))
                }
                PackAlgo::FfdtDc => levels.iter().position(|l| fits(l, t, bound)),
            };
            let i = slot.unwrap_or_else(|| {
                levels.push(RefLevel::default());
                levels.len() - 1
            });
            let level = &mut levels[i];
            level.tasks.push(ti);
            level.width += t.nodes;
            level.height_est = level.height_est.max(t.est_secs);
            *level.region_count.entry(t.region).or_insert(0) += 1;
        }
        levels.into_iter().map(|l| (l.tasks, l.width, l.height_est)).collect()
    }

    /// Sparse region ids, so a table indexed by region meets gaps.
    const REGIONS: [RegionId; 3] = [0, 5, 33];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Both packers place every task on exactly the level the
        /// reference packer does, over random widths, heights, sparse
        /// regions, DB bounds (0 included, lifted to 1) and orders.
        #[test]
        fn pack_in_order_matches_reference_packer(
            specs in prop::collection::vec((1usize..=8, 0usize..3, 1u32..=12, any::<u32>()), 0..64),
            bounds in (0usize..4, 0usize..4, 0usize..4),
            extra_nodes in 0usize..12,
        ) {
            let tasks: Vec<Task> = specs
                .iter()
                .enumerate()
                .map(|(i, &(n, slot, h, _))| task(i as u32, REGIONS[slot], n, h as f64 * 50.0))
                .collect();
            let mut order: Vec<usize> = (0..tasks.len()).collect();
            order.sort_by_key(|&i| specs[i].3);
            let total_nodes = 8 + extra_nodes;
            let bound = |r: RegionId| {
                let b = [bounds.0, bounds.1, bounds.2];
                b[REGIONS.iter().position(|&x| x == r).expect("known region")]
            };
            for algo in [PackAlgo::NfdtDc, PackAlgo::FfdtDc] {
                let plan = pack_in_order(&tasks, &order, total_nodes, bound, algo);
                let got: Vec<(Vec<usize>, usize, f64)> = plan
                    .levels
                    .iter()
                    .map(|l| (l.tasks.clone(), l.width, l.height_est))
                    .collect();
                let want = reference_pack_in_order(&tasks, &order, total_nodes, bound, algo);
                prop_assert_eq!(got, want, "{:?} {:?}", algo, bounds);
                plan.validate(&tasks, bound).unwrap();
            }
        }
    }
}

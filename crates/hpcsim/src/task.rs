//! Simulation tasks: the atomic jobs `⟨cell, region⟩` of the workflow
//! mapping problem (§V).
//!
//! Runtime variance follows the paper's four sources: (i) randomness in
//! the computation, (ii) triggered interventions spawning extra work,
//! (iii) processor allocation, and (iv) machine-specific randomness.
//! We model the empirical mean time per region as proportional to its
//! network size (Fig. 7 top / Fig. 8: "runtimes … strongly correlated
//! to the network size") with multiplicative lognormal-ish noise.

use epiflow_surveillance::{RegionId, RegionRegistry, Scale};

/// One schedulable simulation job.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// Unique id within a workload.
    pub id: u32,
    pub region: RegionId,
    pub cell: u32,
    pub replicate: u32,
    /// Compute nodes required (whole-node allocation; 2/4/6 by region
    /// size category).
    pub nodes: usize,
    /// Empirical mean runtime `t(T[c,r])` in seconds.
    pub est_secs: f64,
    /// Realized runtime for execution simulation.
    pub actual_secs: f64,
}

/// The DB bound of every region present in `tasks`, indexed by region
/// id: `db_bound` is called once per distinct region and a bound of 0
/// counts as 1. Ids of regions not in `tasks` read 0.
pub(crate) fn region_bounds<F>(tasks: &[Task], db_bound: F) -> Vec<usize>
where
    F: Fn(RegionId) -> usize,
{
    let n_regions = tasks.iter().map(|t| t.region + 1).max().unwrap_or(0);
    let mut bound = vec![0; n_regions];
    for t in tasks {
        if bound[t.region] == 0 {
            bound[t.region] = db_bound(t.region).max(1);
        }
    }
    bound
}

/// Deterministic per-task noise in `[lo, hi]` from a hash (keeps
/// workload generation free of RNG state).
fn hash_noise(seed: u64, a: u64, b: u64, lo: f64, hi: f64) -> f64 {
    let mut z = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xC2B2AE3D27D4EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    lo + u * (hi - lo)
}

/// Workload generator parameters.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Cells per region.
    pub cells: u32,
    /// Replicates per cell.
    pub replicates: u32,
    /// Regions to include (defaults to all 51).
    pub regions: Vec<RegionId>,
    /// Multiplicative runtime noise half-width (0.3 ⇒ ±30%).
    pub noise: f64,
    pub seed: u64,
}

/// Seconds of runtime per simulated person (the Fig.-7-top linear
/// coefficient). Bridges-era EpiHiper: CA ≈ 100–300 steps × ~3 s.
/// Chosen so CA (≈19.8k persons at scale 1/2000) lands at ≈900 s, the
/// paper's 300-step × 3 s figure.
const SECS_PER_PERSON: f64 = 900.0 * 2000.0 / 39_500_000.0;
/// Base runtime independent of size (startup, I/O).
const BASE_SECS: f64 = 30.0;

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            cells: 12,
            replicates: 15,
            regions: (0..51).collect(),
            noise: 0.30,
            seed: 0xC0FFEE,
        }
    }
}

impl WorkloadSpec {
    /// Generate the task list for one nightly workflow over `registry`
    /// at `scale`: `cells × |regions| × replicates` tasks, Assumption 1
    /// (all cells of a region share the empirical mean time) baked in.
    pub fn generate(&self, registry: &RegionRegistry, scale: Scale) -> Vec<Task> {
        let mut tasks =
            Vec::with_capacity(self.cells as usize * self.regions.len() * self.replicates as usize);
        let mut id = 0u32;
        // Cell-major order: this is the *arrival order* of the nightly
        // job stream (configuration files are written cell by cell), so
        // consecutive tasks span the full range of region sizes.
        for cell in 0..self.cells {
            for &region in &self.regions {
                let persons = registry.node_count(region, scale);
                let est = BASE_SECS + SECS_PER_PERSON * persons as f64;
                let nodes = registry.size_category(region).compute_nodes();
                for replicate in 0..self.replicates {
                    let jitter = hash_noise(
                        self.seed,
                        (region as u64) << 32 | cell as u64,
                        replicate as u64,
                        1.0 - self.noise,
                        1.0 + self.noise,
                    );
                    tasks.push(Task {
                        id,
                        region,
                        cell,
                        replicate,
                        nodes,
                        est_secs: est,
                        actual_secs: est * jitter,
                    });
                    id += 1;
                }
            }
        }
        tasks
    }

    /// Total simulation count (the Table-I `# Simulations` column).
    pub fn n_simulations(&self) -> usize {
        self.cells as usize * self.regions.len() * self.replicates as usize
    }
}

/// Table-I workload presets.
impl WorkloadSpec {
    /// Economic workflow: 12 cells × 51 states × 15 replicates = 9180.
    pub fn economic() -> Self {
        WorkloadSpec { cells: 12, replicates: 15, ..Default::default() }
    }

    /// Prediction workflow: 12 × 51 × 15 = 9180.
    pub fn prediction() -> Self {
        WorkloadSpec { cells: 12, replicates: 15, ..Default::default() }
    }

    /// Calibration workflow: 300 × 51 × 1 = 15300.
    pub fn calibration() -> Self {
        WorkloadSpec { cells: 300, replicates: 1, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_counts() {
        assert_eq!(WorkloadSpec::economic().n_simulations(), 9180);
        assert_eq!(WorkloadSpec::prediction().n_simulations(), 9180);
        assert_eq!(WorkloadSpec::calibration().n_simulations(), 15_300);
    }

    #[test]
    fn generate_produces_expected_count() {
        let reg = RegionRegistry::new();
        let spec = WorkloadSpec { cells: 2, replicates: 3, ..Default::default() };
        let tasks = spec.generate(&reg, Scale::default());
        assert_eq!(tasks.len(), 2 * 51 * 3);
        // Unique ids.
        let mut ids: Vec<u32> = tasks.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tasks.len());
    }

    #[test]
    fn bigger_regions_run_longer_and_get_more_nodes() {
        let reg = RegionRegistry::new();
        let spec = WorkloadSpec { cells: 1, replicates: 1, ..Default::default() };
        let tasks = spec.generate(&reg, Scale::default());
        let ca = tasks.iter().find(|t| reg.region(t.region).abbrev == "CA").unwrap();
        let wy = tasks.iter().find(|t| reg.region(t.region).abbrev == "WY").unwrap();
        assert!(ca.est_secs > 10.0 * wy.est_secs);
        assert_eq!(ca.nodes, 6);
        assert_eq!(wy.nodes, 2);
    }

    #[test]
    fn assumption_one_same_est_within_region() {
        let reg = RegionRegistry::new();
        let spec = WorkloadSpec { cells: 3, replicates: 2, ..Default::default() };
        let tasks = spec.generate(&reg, Scale::default());
        let va: Vec<&Task> = tasks.iter().filter(|t| reg.region(t.region).abbrev == "VA").collect();
        assert!(va.windows(2).all(|w| w[0].est_secs == w[1].est_secs));
    }

    #[test]
    fn actual_times_vary_but_bounded() {
        let reg = RegionRegistry::new();
        let spec = WorkloadSpec { cells: 4, replicates: 4, noise: 0.3, ..Default::default() };
        let tasks = spec.generate(&reg, Scale::default());
        let mut distinct = std::collections::HashSet::new();
        for t in &tasks {
            let ratio = t.actual_secs / t.est_secs;
            assert!((0.7..=1.3).contains(&ratio), "ratio {ratio}");
            distinct.insert((t.actual_secs * 1000.0) as u64);
        }
        assert!(distinct.len() > tasks.len() / 2, "noise should differ per task");
    }

    #[test]
    fn generation_deterministic() {
        let reg = RegionRegistry::new();
        let spec = WorkloadSpec { cells: 2, replicates: 2, ..Default::default() };
        assert_eq!(spec.generate(&reg, Scale::default()), spec.generate(&reg, Scale::default()));
    }

    #[test]
    fn ca_runtime_matches_paper_order_of_magnitude() {
        // §VI: CA ≈ 100–300 steps × ~3 s ⇒ 300–900 s.
        let reg = RegionRegistry::new();
        let spec = WorkloadSpec { cells: 1, replicates: 1, noise: 0.0, ..Default::default() };
        let tasks = spec.generate(&reg, Scale::default());
        let ca = tasks.iter().find(|t| reg.region(t.region).abbrev == "CA").unwrap();
        assert!((300.0..1500.0).contains(&ca.est_secs), "CA estimated runtime {} s", ca.est_secs);
    }
}

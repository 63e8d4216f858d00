//! The seeded fault model layered over the hpcsim substrate.
//!
//! Every fault draw is a *pure function* of `(seed, label, key)` — no
//! RNG stream state — so a cycle resumed from its journal replays
//! exactly the faults the interrupted run saw. This is what makes
//! checkpoint/resume byte-identical to an uninterrupted run.

pub use epiflow_hpcsim::globus::{fault_unit, LinkFaults};
use epiflow_hpcsim::slurm::NodeFailure;
use serde::{Deserialize, Serialize};

/// All fault injection for one cycle. [`FaultPlan::default`] is quiet:
/// no faults, reproducing the happy-path workflow exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the stateless draws (stragglers, DB exhaustion, slow
    /// restores).
    pub seed: u64,
    /// Mid-flight transfer drops on the inter-site link.
    pub link: LinkFaults,
    /// Compute nodes lost during the execution window.
    pub node_failures: Vec<NodeFailure>,
    /// Probability a region's database suffers connection exhaustion
    /// at snapshot-restore time.
    pub db_exhaust_prob: f64,
    /// Fraction of the connection bound an exhausted database keeps.
    pub db_keep_fraction: f64,
    /// Probability a task straggles.
    pub straggler_prob: f64,
    /// Runtime multiplier applied to straggler tasks.
    pub straggler_factor: f64,
    /// Probability a region's snapshot restore straggles (I/O
    /// contention on the database nodes), stretching its startup time.
    /// Applies with failover on or off; only the hedge that races a
    /// standby against the straggler needs failover.
    pub db_slow_prob: f64,
    /// Startup-time multiplier for straggling restores.
    pub db_slow_factor: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            link: LinkFaults::default(),
            node_failures: Vec::new(),
            db_exhaust_prob: 0.0,
            db_keep_fraction: 1.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            db_slow_prob: 0.0,
            db_slow_factor: 1.0,
        }
    }
}

impl FaultPlan {
    /// True when no fault source is active.
    pub fn is_quiet(&self) -> bool {
        self.link.fail_prob <= 0.0
            && self.link.slow_prob <= 0.0
            && self.node_failures.is_empty()
            && self.db_exhaust_prob <= 0.0
            && self.straggler_prob <= 0.0
            && self.db_slow_prob <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_quiet() {
        assert!(FaultPlan::default().is_quiet());
    }

    #[test]
    fn fault_unit_is_deterministic_and_spread() {
        let a: Vec<f64> = (0..100).map(|k| fault_unit(7, "straggler", k)).collect();
        let b: Vec<f64> = (0..100).map(|k| fault_unit(7, "straggler", k)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&u| (0.0..1.0).contains(&u)));
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((0.35..0.65).contains(&mean), "mean {mean} far from uniform");
        // Different labels and seeds decorrelate.
        assert_ne!(fault_unit(7, "straggler", 0), fault_unit(7, "db-exhaust", 0));
        assert_ne!(fault_unit(7, "straggler", 0), fault_unit(8, "straggler", 0));
    }
}

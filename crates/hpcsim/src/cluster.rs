//! Cluster specifications (Table II) and availability windows.

use serde::{Deserialize, Serialize};

/// Which cluster a workflow step runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Site {
    /// Rivanna HPC Facility at the University of Virginia.
    Home,
    /// Bridges HPC Facility at the Pittsburgh Supercomputing Center.
    Remote,
}

/// A cluster's hardware configuration (Table II), with whole-node
/// allocation as the paper's policy ("we intentionally avoided using
/// partial nodes").
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    pub site: Site,
    pub name: String,
    pub nodes: usize,
    pub cpus_per_node: usize,
    pub cores_per_cpu: usize,
    pub ram_gb_per_node: usize,
    /// Daily availability window in seconds-of-day `[start, end)`;
    /// `None` = always available. The remote cluster is dedicated to the
    /// workflows from 10 pm to 8 am.
    pub window: Option<(u32, u32)>,
    /// Queue-contention multiplier on effective task runtimes: 1.0 for a
    /// dedicated reservation (the nightly Bridges window), above 1.0 for
    /// a shared general-purpose queue where jobs co-schedule with other
    /// users' work.
    pub contention: f64,
}

impl ClusterSpec {
    /// Bridges (remote super-computing cluster) per Table II.
    pub fn bridges() -> Self {
        ClusterSpec {
            site: Site::Remote,
            name: "Bridges (PSC)".into(),
            nodes: 720,
            cpus_per_node: 2,
            cores_per_cpu: 14,
            ram_gb_per_node: 128,
            // 22:00 .. 08:00 (wraps midnight).
            window: Some((22 * 3600, 8 * 3600)),
            contention: 1.0, // dedicated to the workflows inside the window
        }
    }

    /// Rivanna (home cluster) per Table II.
    pub fn rivanna() -> Self {
        ClusterSpec {
            site: Site::Home,
            name: "Rivanna (UVA)".into(),
            nodes: 50,
            cpus_per_node: 2,
            cores_per_cpu: 20,
            ram_gb_per_node: 384,
            window: None,
            contention: 1.6, // shared institutional queue, no reservation
        }
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.cpus_per_node * self.cores_per_cpu
    }

    /// Total cores.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node()
    }

    /// Length of the daily window in seconds (86400 when unconstrained).
    pub fn window_secs(&self) -> u32 {
        match self.window {
            None => 86_400,
            Some((start, end)) => {
                if end >= start {
                    end - start
                } else {
                    86_400 - start + end
                }
            }
        }
    }

    /// Runtime multiplier for a task calibrated against `reference`
    /// when re-planned onto this cluster: relative per-node core count
    /// (whole-node allocation, so a node-sized rank gets this cluster's
    /// cores) times this cluster's queue contention. This is the
    /// failover cost model — Bridges → Rivanna comes out above 1.0
    /// because the shared home queue more than cancels Rivanna's extra
    /// cores per node.
    pub fn failover_slowdown(&self, reference: &ClusterSpec) -> f64 {
        self.contention * reference.cores_per_node() as f64 / self.cores_per_node() as f64
    }

    /// Is the cluster available at a given second-of-day?
    pub fn available_at(&self, second_of_day: u32) -> bool {
        let s = second_of_day % 86_400;
        match self.window {
            None => true,
            Some((start, end)) => {
                if end >= start {
                    s >= start && s < end
                } else {
                    s >= start || s < end
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridges_matches_table_ii() {
        let b = ClusterSpec::bridges();
        assert_eq!(b.nodes, 720);
        assert_eq!(b.cores_per_node(), 28);
        assert_eq!(b.total_cores(), 20_160); // "over 20,000 cores"
        assert_eq!(b.ram_gb_per_node, 128);
    }

    #[test]
    fn rivanna_matches_table_ii() {
        let r = ClusterSpec::rivanna();
        assert_eq!(r.nodes, 50);
        assert_eq!(r.cores_per_node(), 40);
        assert_eq!(r.ram_gb_per_node, 384);
        assert!(r.available_at(12 * 3600));
    }

    #[test]
    fn nightly_window_wraps_midnight() {
        let b = ClusterSpec::bridges();
        assert_eq!(b.window_secs(), 10 * 3600); // "10 hours a day"
        assert!(b.available_at(23 * 3600)); // 11 pm
        assert!(b.available_at(2 * 3600)); // 2 am
        assert!(b.available_at(7 * 3600 + 3599)); // 7:59:59 am
        assert!(!b.available_at(8 * 3600)); // 8 am sharp
        assert!(!b.available_at(12 * 3600)); // noon
        assert!(!b.available_at(21 * 3600 + 3599)); // 9:59:59 pm
        assert!(b.available_at(22 * 3600)); // 10 pm sharp
    }

    #[test]
    fn failover_slowdown_home_is_slower() {
        let remote = ClusterSpec::bridges();
        let home = ClusterSpec::rivanna();
        let s = home.failover_slowdown(&remote);
        // 1.6 contention × 28/40 relative cores = 1.12.
        assert!((s - 1.12).abs() < 1e-9, "slowdown {s}");
        assert!(s > 1.0, "failover must cost runtime, not gain it");
        // A dedicated cluster failing over to itself costs nothing.
        assert_eq!(remote.failover_slowdown(&remote), 1.0);
    }

    #[test]
    fn non_wrapping_window() {
        let c = ClusterSpec { window: Some((9 * 3600, 17 * 3600)), ..ClusterSpec::rivanna() };
        assert_eq!(c.window_secs(), 8 * 3600);
        assert!(c.available_at(10 * 3600));
        assert!(!c.available_at(18 * 3600));
    }

    #[test]
    fn day_offsets_normalize() {
        let b = ClusterSpec::bridges();
        // Second 23:00 on day 3.
        assert!(b.available_at(3 * 86_400 + 23 * 3600));
    }
}

//! Static contact-network partitioning (paper §III).
//!
//! The contact network is partitioned between processing units (MPI
//! ranks in the paper, rayon workers here) before simulation. The
//! objective: each partition holds approximately the same number of
//! edges, while **all incoming edges of any given node stay in the same
//! partition**. The paper deliberately uses a simple algorithm — "given
//! a partition, continue to allocate nodes to that partition until the
//! number of incoming edges is greater than a threshold (E/P + ε)" —
//! because even it takes significant compute time at national scale
//! (over an hour for California), and caches the result on disk. Here
//! it is computed once per ⟨network, partition count⟩ and kept in
//! memory in a `SimContext` that every replicate shares.
//!
//! Because nodes are assigned in id order, partitions come out as
//! contiguous node ranges, which is also the cache-friendliest layout
//! for the tick loop.

use epiflow_synthpop::ContactNetwork;
use std::ops::Range;

/// A partitioning of the node set into contiguous ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioning {
    /// Node ranges, one per partition; ranges cover `0..n_nodes` exactly.
    pub ranges: Vec<Range<u32>>,
    /// In-edge count of each partition (each undirected edge counts once
    /// per endpoint).
    pub edge_counts: Vec<usize>,
}

impl Partitioning {
    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when there are no partitions (empty network).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The partition owning `node`.
    pub fn partition_of(&self, node: u32) -> usize {
        // Ranges are sorted and contiguous; binary search on start.
        match self.ranges.binary_search_by(|r| {
            if node < r.start {
                std::cmp::Ordering::Greater
            } else if node >= r.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => panic!("node {node} not covered by partitioning"),
        }
    }

    /// Dense node → partition-index map. The engine's apply phase
    /// pushes every scheduled progression into its owner's tick-bucket
    /// queue; an O(1) array lookup there beats a binary search per
    /// event ([`Partitioning::partition_of`]) on the hot path.
    pub fn index_map(&self) -> Vec<u32> {
        let n = self.ranges.last().map_or(0, |r| r.end) as usize;
        let mut map = vec![0u32; n];
        for (k, r) in self.ranges.iter().enumerate() {
            for v in r.clone() {
                map[v as usize] = k as u32;
            }
        }
        map
    }

    /// Load imbalance: max partition edge count over the mean.
    pub fn imbalance(&self) -> f64 {
        if self.edge_counts.is_empty() {
            return 1.0;
        }
        let max = *self.edge_counts.iter().max().expect("non-empty") as f64;
        let mean = self.edge_counts.iter().sum::<usize>() as f64 / self.edge_counts.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Partition a network into (at most) `n_partitions` contiguous node
/// ranges using the paper's threshold rule with tolerance `epsilon`
/// (extra in-edges a partition may absorb past the even split).
///
/// The actual number of partitions can be smaller than requested when
/// the network is small, and is never zero for a non-empty node set.
pub fn partition_network(
    network: &ContactNetwork,
    n_partitions: usize,
    epsilon: usize,
) -> Partitioning {
    assert!(n_partitions > 0, "need at least one partition");
    let n = network.n_nodes as u32;
    if n == 0 {
        return Partitioning { ranges: Vec::new(), edge_counts: Vec::new() };
    }

    // In-degree per node: each undirected edge is an in-edge of both
    // endpoints.
    let mut in_deg = vec![0usize; n as usize];
    for e in &network.edges {
        in_deg[e.u as usize] += 1;
        in_deg[e.v as usize] += 1;
    }
    let total_in_edges: usize = in_deg.iter().sum();
    let threshold = total_in_edges / n_partitions + epsilon;

    let mut ranges = Vec::with_capacity(n_partitions);
    let mut edge_counts = Vec::with_capacity(n_partitions);
    let mut start = 0u32;
    let mut count = 0usize;
    for v in 0..n {
        count += in_deg[v as usize];
        let is_last_partition = ranges.len() + 1 == n_partitions;
        if count > threshold && !is_last_partition {
            ranges.push(start..v + 1);
            edge_counts.push(count);
            start = v + 1;
            count = 0;
        }
    }
    if start < n || ranges.is_empty() {
        ranges.push(start..n);
        edge_counts.push(count);
    }
    Partitioning { ranges, edge_counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::ActivityType;

    fn edge(u: u32, v: u32) -> ContactEdge {
        ContactEdge {
            u,
            v,
            start: 0,
            duration: 60,
            ctx_u: ActivityType::Work,
            ctx_v: ActivityType::Work,
            weight: 1.0,
        }
    }

    fn path_network(n: u32) -> ContactNetwork {
        ContactNetwork { n_nodes: n as usize, edges: (0..n - 1).map(|i| edge(i, i + 1)).collect() }
    }

    #[test]
    fn covers_all_nodes_exactly_once() {
        let net = path_network(100);
        let p = partition_network(&net, 4, 0);
        let mut covered = 0u32;
        for r in &p.ranges {
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 100);
    }

    #[test]
    fn respects_partition_count_bound() {
        let net = path_network(1000);
        for k in [1, 2, 4, 8, 16] {
            let p = partition_network(&net, k, 0);
            assert!(p.len() <= k, "asked {k}, got {}", p.len());
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn single_partition_takes_everything() {
        let net = path_network(50);
        let p = partition_network(&net, 1, 0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.ranges[0], 0..50);
        assert_eq!(p.edge_counts[0], 2 * 49);
    }

    #[test]
    fn balanced_on_uniform_degree() {
        // A cycle has uniform degree 2; partitions should be near-even.
        let mut edges: Vec<ContactEdge> = (0..999).map(|i| edge(i, i + 1)).collect();
        edges.push(edge(999, 0));
        let net = ContactNetwork { n_nodes: 1000, edges };
        let p = partition_network(&net, 8, 0);
        assert_eq!(p.len(), 8);
        assert!(p.imbalance() < 1.2, "imbalance {}", p.imbalance());
    }

    #[test]
    fn partition_of_lookup() {
        let net = path_network(100);
        let p = partition_network(&net, 4, 0);
        for v in 0..100u32 {
            let part = p.partition_of(v);
            assert!(p.ranges[part].contains(&v));
        }
    }

    #[test]
    fn index_map_agrees_with_partition_of() {
        let net = path_network(237);
        let p = partition_network(&net, 5, 0);
        let map = p.index_map();
        assert_eq!(map.len(), 237);
        for v in 0..237u32 {
            assert_eq!(map[v as usize] as usize, p.partition_of(v));
        }
    }

    #[test]
    fn hub_skews_but_still_covers() {
        // Star: hub node 0 with 500 leaves. Hub's in-edges cannot be
        // split, so the first partition is heavy — the tolerance rule
        // tolerates this.
        let edges: Vec<ContactEdge> = (1..=500).map(|i| edge(0, i)).collect();
        let net = ContactNetwork { n_nodes: 501, edges };
        let p = partition_network(&net, 4, 10);
        let total: usize = p.edge_counts.iter().sum();
        assert_eq!(total, 1000);
        assert!(p.len() <= 4);
    }

    #[test]
    fn epsilon_reduces_partition_count() {
        let net = path_network(1000);
        let tight = partition_network(&net, 10, 0);
        let loose = partition_network(&net, 10, 400);
        assert!(loose.len() <= tight.len());
    }

    #[test]
    fn empty_network() {
        let net = ContactNetwork { n_nodes: 0, edges: vec![] };
        let p = partition_network(&net, 4, 0);
        assert!(p.is_empty());
    }
}

//! A calibrated BSP/MPI cost model for projecting parallel runtime
//! (Fig. 7 middle/bottom substitution).
//!
//! The paper measured EpiHiper on Bridges compute nodes; this
//! reproduction may run on machines without multiple cores, so the
//! strong-scaling and intervention-cost figures are *projected* from a
//! cost model over the real partition structure rather than measured
//! wall-clock. The model is the standard bulk-synchronous one:
//!
//! ```text
//! T_tick(p) = max_k(edges_k)·c_edge + max_k(nodes_k)·c_node   (compute)
//!           + α·ln(p+1) + γ·p                                 (barrier + exposure allgather)
//!           + max_k(ghost_k)·c_ghost                          (neighbor state exchange)
//! ```
//!
//! where `ghost_k` counts partition `k`'s in-edges whose source lives on
//! another rank — a real quantity of the actual partitioning, not a
//! parameter. `c_edge` is the one settable cost: it defaults to a fixed
//! 8 ns/in-edge, and [`MpiCostModel::calibrate_per_edge_scanned`]
//! anchors it to a measured run's throughput instead. The node and
//! communication costs are fixed Omni-Path-class constants.
//!
//! Intervention costs ([`intervention_tick_cost`]) follow the same
//! logic: contact tracing at distance 2 must query *remote* adjacency
//! (the network is partitioned by in-edges, so a neighbor's neighbors
//! generally live on another rank), at microsecond-class cost per
//! lookup — which is why the paper's D2CT runs cost ≈3–4× the base
//! case while RO/TA are marginal.

use crate::partition::Partitioning;
use epiflow_synthpop::ContactNetwork;

/// Seconds per node visited.
const PER_NODE_SECS: f64 = 3e-9;
/// Barrier/allreduce latency coefficient (seconds, × ln(p+1)).
const BARRIER_SECS: f64 = 50e-6;
/// Per-rank exposure-exchange cost (seconds, × p).
const PER_RANK_SECS: f64 = 15e-6;
/// Seconds per ghost edge (remote neighbor state refresh).
const PER_GHOST_EDGE_SECS: f64 = 40e-9;
/// Seconds per remote adjacency query (2-hop tracing).
const PER_REMOTE_QUERY_SECS: f64 = 0.5e-6;

/// The settable per-edge cost of the BSP model. The node and
/// communication costs are fixed Omni-Path-class constants of this
/// module.
#[derive(Clone, Debug)]
pub struct MpiCostModel {
    /// Seconds per directed in-edge scanned.
    pub per_edge_secs: f64,
}

impl Default for MpiCostModel {
    fn default() -> Self {
        MpiCostModel { per_edge_secs: 8e-9 }
    }
}

impl MpiCostModel {
    /// Calibrate `per_edge_secs` from a measured run, where the engine
    /// reports exactly how many in-edges its λ pass examined
    /// (`EngineStats::total_edges_scanned`) instead of assuming the
    /// full `directed_edges × ticks` sweep a `saturation_threshold = 0`
    /// run pays.
    pub fn calibrate_per_edge_scanned(mut self, measured_secs: f64, edges_scanned: u64) -> Self {
        assert!(edges_scanned > 0);
        self.per_edge_secs = measured_secs / edges_scanned as f64;
        self
    }
}

/// Per-partition (in-edge count, node count, ghost in-edge count) for a
/// partitioning of `net`.
pub fn partition_profile(net: &ContactNetwork, parts: &Partitioning) -> Vec<(usize, usize, usize)> {
    let mut in_edges = vec![0usize; parts.len()];
    let mut ghosts = vec![0usize; parts.len()];
    for e in &net.edges {
        let pu = parts.partition_of(e.u);
        let pv = parts.partition_of(e.v);
        in_edges[pu] += 1;
        in_edges[pv] += 1;
        if pu != pv {
            // Each side holds one in-edge whose source is remote.
            ghosts[pu] += 1;
            ghosts[pv] += 1;
        }
    }
    parts
        .ranges
        .iter()
        .enumerate()
        .map(|(k, r)| (in_edges[k], (r.end - r.start) as usize, ghosts[k]))
        .collect()
}

/// Projected seconds for one tick on `p = parts.len()` ranks.
pub fn projected_tick_secs(profile: &[(usize, usize, usize)], model: &MpiCostModel) -> f64 {
    let p = profile.len().max(1) as f64;
    let max_edges = profile.iter().map(|x| x.0).max().unwrap_or(0) as f64;
    let max_nodes = profile.iter().map(|x| x.1).max().unwrap_or(0) as f64;
    let max_ghost = profile.iter().map(|x| x.2).max().unwrap_or(0) as f64;
    let compute = max_edges * model.per_edge_secs + max_nodes * PER_NODE_SECS;
    let comm = if profile.len() > 1 {
        BARRIER_SECS * (p + 1.0).ln() + PER_RANK_SECS * p + max_ghost * PER_GHOST_EDGE_SECS
    } else {
        0.0
    };
    compute + comm
}

/// Projected seconds for one *frontier-mode* tick: the compute term
/// scales by the frontier occupancy (fraction of nodes with infectious
/// in-neighbors, `EngineStats::mean_frontier_occupancy`), while the
/// barrier and exchange terms are unchanged — per-tick synchronization
/// does not shrink with the epidemic, which is why frontier scanning
/// improves compute-bound runs much more than latency-bound ones.
pub fn projected_frontier_tick_secs(
    profile: &[(usize, usize, usize)],
    occupancy: f64,
    model: &MpiCostModel,
) -> f64 {
    let occupancy = occupancy.clamp(0.0, 1.0);
    let p = profile.len().max(1) as f64;
    let max_edges = profile.iter().map(|x| x.0).max().unwrap_or(0) as f64;
    let max_nodes = profile.iter().map(|x| x.1).max().unwrap_or(0) as f64;
    let max_ghost = profile.iter().map(|x| x.2).max().unwrap_or(0) as f64;
    let compute = (max_edges * model.per_edge_secs + max_nodes * PER_NODE_SECS) * occupancy;
    let comm = if profile.len() > 1 {
        BARRIER_SECS * (p + 1.0).ln()
            + PER_RANK_SECS * p
            + max_ghost * PER_GHOST_EDGE_SECS * occupancy
    } else {
        0.0
    };
    compute + comm
}

/// Projected seconds for a whole run.
pub fn projected_run_secs(
    net: &ContactNetwork,
    parts: &Partitioning,
    model: &MpiCostModel,
    ticks: u32,
) -> f64 {
    let profile = partition_profile(net, parts);
    projected_tick_secs(&profile, model) * ticks as f64
}

/// Epidemic activity profile used to cost interventions, measured from
/// an actual run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActivityProfile {
    /// Mean nodes in the Symptomatic state per tick.
    pub mean_symptomatic: f64,
    /// Mean nodes in the Asymptomatic state per tick.
    pub mean_asymptomatic: f64,
    /// Mean contact degree of the network.
    pub mean_degree: f64,
    /// Node count.
    pub n_nodes: usize,
}

/// The intervention stacks of Fig. 7 (bottom).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stack {
    Base,
    Ro,
    Ta,
    Ps { period_days: f64 },
    D1ct { detection: f64 },
    D2ct { detection: f64 },
}

/// Projected *additional* per-tick cost of an intervention stack beyond
/// the base case, on `p` ranks.
pub fn intervention_tick_cost(
    stack: Stack,
    activity: &ActivityProfile,
    model: &MpiCostModel,
    p: usize,
) -> f64 {
    let p = p.max(1) as f64;
    match stack {
        Stack::Base => 0.0,
        // One-time reopening sampling amortizes to ~nothing per tick.
        Stack::Ro => activity.n_nodes as f64 * PER_NODE_SECS / 100.0,
        // Test-and-isolate: scan the asymptomatic pool each tick.
        Stack::Ta => {
            activity.n_nodes as f64 * PER_NODE_SECS
                + activity.mean_asymptomatic * 10.0 * PER_NODE_SECS
        }
        // Pulsing shutdown: each pulse boundary re-samples the whole
        // population's compliance and re-evaluates every edge's active
        // state (the "spawned recalculations" of §V), amortized per
        // tick over the pulse period.
        Stack::Ps { period_days } => {
            let resample = activity.n_nodes as f64 * PER_NODE_SECS * 20.0;
            let edge_reeval =
                activity.n_nodes as f64 * activity.mean_degree * model.per_edge_secs * 2.0;
            (resample + edge_reeval + BARRIER_SECS * (p + 1.0).ln() * 50.0) / period_days.max(1.0)
        }
        // Distance-1 tracing: local adjacency of each detected case,
        // plus an isolation notice per traced contact — contacts
        // generally live on other ranks, so each notice is a message.
        Stack::D1ct { detection } => {
            let detected = activity.mean_symptomatic * detection;
            let local = detected * activity.mean_degree * 20.0 * PER_NODE_SECS;
            let notices = detected * activity.mean_degree;
            local + notices * PER_REMOTE_QUERY_SECS * 2.0
        }
        // Distance-2 tracing: every expanded contact's own adjacency is
        // a *remote* query — the dominant term.
        Stack::D2ct { detection } => {
            let detected = activity.mean_symptomatic * detection;
            let expansions = detected * activity.mean_degree; // 1-hop set
            let remote = expansions * activity.mean_degree; // 2-hop lookups
            expansions * PER_REMOTE_QUERY_SECS * 0.25 + remote * PER_REMOTE_QUERY_SECS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_network;
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::ActivityType;

    fn ring(n: u32) -> ContactNetwork {
        let edges = (0..n)
            .map(|i| ContactEdge {
                u: i,
                v: (i + 1) % n,
                start: 0,
                duration: 60,
                ctx_u: ActivityType::Work,
                ctx_v: ActivityType::Work,
                weight: 1.0,
            })
            .collect();
        ContactNetwork { n_nodes: n as usize, edges }
    }

    #[test]
    fn profile_counts_ghosts_on_ring() {
        let net = ring(100);
        let parts = partition_network(&net, 4, 0);
        let profile = partition_profile(&net, &parts);
        assert_eq!(profile.len(), parts.len());
        // A ring cut into contiguous ranges has exactly 2 boundary
        // edges per partition (except ordering effects at the wrap).
        let total_ghosts: usize = profile.iter().map(|x| x.2).sum();
        assert_eq!(total_ghosts, 2 * parts.len());
        let total_in: usize = profile.iter().map(|x| x.0).sum();
        assert_eq!(total_in, 200);
    }

    #[test]
    fn speedup_then_saturation() {
        let net = ring(50_000);
        let model = MpiCostModel::default();
        let t = |p: usize| {
            let parts = partition_network(&net, p, 0);
            projected_run_secs(&net, &parts, &model, 100)
        };
        let t1 = t(1);
        let t8 = t(8);
        let t512 = t(512);
        assert!(t8 < t1 * 0.6, "8 ranks should speed up: {t1} -> {t8}");
        // Very high rank counts lose to communication.
        assert!(t512 > t8, "oversubscription must cost: t8={t8} t512={t512}");
    }

    #[test]
    fn serial_has_no_comm_cost() {
        let net = ring(1000);
        let parts = partition_network(&net, 1, 0);
        let profile = partition_profile(&net, &parts);
        let model = MpiCostModel::default();
        let t = projected_tick_secs(&profile, &model);
        let expect = 2000.0 * model.per_edge_secs + 1000.0 * PER_NODE_SECS;
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn calibration_from_edges_scanned() {
        let model = MpiCostModel::default().calibrate_per_edge_scanned(1.0, 50_000_000);
        assert!((model.per_edge_secs - 2e-8).abs() < 1e-15);
    }

    #[test]
    fn frontier_projection_interpolates() {
        let net = ring(10_000);
        let parts = partition_network(&net, 8, 0);
        let profile = partition_profile(&net, &parts);
        let model = MpiCostModel::default();
        let full = projected_tick_secs(&profile, &model);
        let at_full = projected_frontier_tick_secs(&profile, 1.0, &model);
        let at_tenth = projected_frontier_tick_secs(&profile, 0.1, &model);
        let at_zero = projected_frontier_tick_secs(&profile, 0.0, &model);
        assert!((at_full - full).abs() < 1e-12, "occupancy 1 matches the dense model");
        assert!(at_zero < at_tenth && at_tenth < at_full);
        // Communication floor survives an empty frontier.
        assert!(at_zero > 0.0);
        // Out-of-range occupancy clamps instead of extrapolating.
        assert_eq!(projected_frontier_tick_secs(&profile, 1.7, &model), at_full);
    }

    #[test]
    fn intervention_ladder_ordering() {
        let activity = ActivityProfile {
            mean_symptomatic: 500.0,
            mean_asymptomatic: 300.0,
            mean_degree: 20.0,
            n_nodes: 100_000,
        };
        let model = MpiCostModel::default();
        let cost = |s: Stack| intervention_tick_cost(s, &activity, &model, 8);
        let ro = cost(Stack::Ro);
        let ta = cost(Stack::Ta);
        let ps = cost(Stack::Ps { period_days: 14.0 });
        let d1 = cost(Stack::D1ct { detection: 0.5 });
        let d2 = cost(Stack::D2ct { detection: 0.5 });
        // The paper's ordering: RO/TA marginal < PS, D1CT < D2CT.
        assert!(ro < ta);
        assert!(ta < d1);
        assert!(ps > ta);
        assert!(d2 > 3.0 * d1, "D2CT must dwarf D1CT: {d1} vs {d2}");
        assert!(cost(Stack::Base) == 0.0);
    }

    #[test]
    fn d2ct_reaches_paper_multiplier_at_national_parameters() {
        // At paper-like density (mean degree ≈ 26) and prevalence, the
        // D2CT stack should land in the 2–6× base range.
        let n = 6_000_000usize; // one large state
        let activity = ActivityProfile {
            mean_symptomatic: 0.004 * n as f64,
            mean_asymptomatic: 0.002 * n as f64,
            mean_degree: 26.0,
            n_nodes: n,
        };
        let model = MpiCostModel::default();
        let base_tick = (n as f64 * 26.0) * model.per_edge_secs / 112.0; // 4 nodes × 28 ranks
        let d2 =
            intervention_tick_cost(Stack::D2ct { detection: 0.5 }, &activity, &model, 112) / 112.0; // tracing work also parallelizes over ranks
        let ratio = (base_tick + d2) / base_tick;
        assert!((1.5..8.0).contains(&ratio), "D2CT multiplier {ratio}");
    }
}

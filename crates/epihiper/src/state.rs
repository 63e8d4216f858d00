//! Mutable system state (paper Appendix D, Table V).
//!
//! The system state at any time comprises the attributes of nodes and
//! edges plus user-defined variables. Interventions read and write this
//! state; the transmission/progression engine reads it every tick.
//!
//! Node restriction semantics: interventions do not enumerate and flip
//! millions of edges; they set node-level flags (isolated-until,
//! stay-home compliance) and context closures, and edge activity is
//! *evaluated* from those plus an explicit per-edge enable bit. This is
//! how a contact can be "turned on and off dynamically as required"
//! without O(E) writes per intervention.

use crate::checkpoint::{ByteReader, ByteWriter, SnapshotError};
use crate::disease::StateId;
use epiflow_synthpop::ActivityType;
use std::collections::HashMap;

/// Node flag bits.
pub mod flags {
    /// Complies with stay-at-home orders.
    pub const SH_COMPLIANT: u8 = 1 << 0;
    /// Complies with voluntary home isolation when symptomatic.
    pub const VHI_COMPLIANT: u8 = 1 << 1;
    /// Complies with contact-tracing isolation requests.
    pub const CT_COMPLIANT: u8 = 1 << 2;
    /// Permanently restricted (e.g. not released by partial reopening).
    pub const HOLDOUT: u8 = 1 << 3;
}

/// Tick value meaning "never".
pub const NEVER: u32 = u32::MAX;

/// The full mutable simulation state.
///
/// Encoded in full — including the private edge bits and the health
/// epoch — because it is the authoritative half of a
/// [`crate::checkpoint::SimSnapshot`]; everything the engine derives
/// from it (frontier index, occupancy) is rebuilt on restore.
#[derive(Clone, Debug, PartialEq)]
pub struct SimState {
    /// Current health state per node.
    pub health: Vec<StateId>,
    /// Tick at which the node's scheduled progression fires ([`NEVER`]
    /// if none).
    pub exit_tick: Vec<u32>,
    /// The state the node moves to when `exit_tick` fires.
    pub next_state: Vec<StateId>,
    /// Per-node infectivity scaling (ι multiplier, Table V `rw`).
    pub infectivity_scale: Vec<f32>,
    /// Per-node susceptibility scaling (σ multiplier, Table V `rw`).
    pub susceptibility_scale: Vec<f32>,
    /// Node flag bits (see [`flags`]).
    pub node_flags: Vec<u8>,
    /// Node is home-isolated until this tick (exclusive).
    pub isolated_until: Vec<u32>,
    /// Global stay-home order active (applies to SH-compliant nodes).
    pub stay_home_active: bool,
    /// Bitmask of closed activity contexts (bit = `ActivityType::code`).
    pub closed_contexts: u8,
    /// Explicit per-undirected-edge enable bit (bit-packed).
    edge_enabled: Vec<u64>,
    n_edges: usize,
    /// User-defined named variables (Table V `variable` rows).
    pub variables: HashMap<String, f64>,
    /// Cumulative count of scheduled system-state changes — the driver
    /// of the Fig.-10 memory growth model.
    pub scheduled_changes: u64,
    /// Monotone counter of *external* health writes (see
    /// [`SimState::set_health`]). The engine snapshots this and
    /// rebuilds its frontier index and occupancy counters whenever it
    /// advances, so interventions that rewrite health states stay
    /// consistent with the frontier scan.
    health_epoch: u64,
}

impl SimState {
    /// Fresh state: everyone in `initial_state`, all edges enabled.
    pub fn new(n_nodes: usize, n_edges: usize, initial_state: StateId) -> Self {
        SimState {
            health: vec![initial_state; n_nodes],
            exit_tick: vec![NEVER; n_nodes],
            next_state: vec![initial_state; n_nodes],
            infectivity_scale: vec![1.0; n_nodes],
            susceptibility_scale: vec![1.0; n_nodes],
            node_flags: vec![0; n_nodes],
            isolated_until: vec![0; n_nodes],
            stay_home_active: false,
            closed_contexts: 0,
            edge_enabled: vec![u64::MAX; n_edges.div_ceil(64)],
            n_edges,
            variables: HashMap::new(),
            scheduled_changes: 0,
            health_epoch: 0,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.health.len()
    }

    /// Number of undirected edges the enable bits cover (snapshot
    /// restore validates this against the network being resumed onto).
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Write a node's health state from *outside* the engine's tick
    /// loop (interventions, test setup). Unlike a direct store into
    /// [`SimState::health`], this bumps [`SimState::health_epoch`] so
    /// the engine knows to rebuild its infectious-neighbor counts and
    /// occupancy before the next scan. Scheduled progressions
    /// (`exit_tick`/`next_state`) are intentionally untouched: they
    /// fire regardless of the current health state, in either scan
    /// order.
    pub fn set_health(&mut self, node: u32, to: StateId) {
        let slot = &mut self.health[node as usize];
        if *slot != to {
            *slot = to;
            self.health_epoch += 1;
            self.scheduled_changes += 1;
        }
    }

    /// Epoch counter advanced by [`SimState::set_health`].
    pub fn health_epoch(&self) -> u64 {
        self.health_epoch
    }

    /// Is the per-edge enable bit set?
    #[inline]
    pub fn edge_enabled(&self, edge: u32) -> bool {
        debug_assert!((edge as usize) < self.n_edges);
        self.edge_enabled[(edge / 64) as usize] >> (edge % 64) & 1 == 1
    }

    /// Set the per-edge enable bit.
    #[inline]
    pub fn set_edge_enabled(&mut self, edge: u32, enabled: bool) {
        debug_assert!((edge as usize) < self.n_edges);
        let (w, b) = ((edge / 64) as usize, edge % 64);
        if enabled {
            self.edge_enabled[w] |= 1 << b;
        } else {
            self.edge_enabled[w] &= !(1 << b);
        }
        self.scheduled_changes += 1;
    }

    /// Close an activity context (e.g. School under SC).
    pub fn close_context(&mut self, ctx: ActivityType) {
        self.closed_contexts |= 1 << ctx.code();
        self.scheduled_changes += 1;
    }

    /// Reopen an activity context.
    pub fn open_context(&mut self, ctx: ActivityType) {
        self.closed_contexts &= !(1 << ctx.code());
        self.scheduled_changes += 1;
    }

    /// Is a context closed?
    #[inline]
    pub fn context_closed(&self, ctx_code: u8) -> bool {
        self.closed_contexts >> ctx_code & 1 == 1
    }

    /// Whether a node is currently movement-restricted at tick `t`:
    /// home-isolated, permanently held out, or complying with an active
    /// stay-home order.
    #[inline]
    pub fn restricted(&self, node: u32, t: u32) -> bool {
        let n = node as usize;
        let f = self.node_flags[n];
        self.isolated_until[n] > t
            || f & flags::HOLDOUT != 0
            || (self.stay_home_active && f & flags::SH_COMPLIANT != 0)
    }

    /// Evaluate whether a directed contact is active at tick `t`.
    ///
    /// `ctx_self`/`ctx_nbr` are the activity-context codes of the two
    /// endpoints. Home contacts survive every restriction (household
    /// members keep interacting under isolation).
    #[inline]
    pub fn edge_active(
        &self,
        edge: u32,
        node: u32,
        neighbor: u32,
        ctx_self: u8,
        ctx_nbr: u8,
        t: u32,
    ) -> bool {
        const HOME: u8 = 0; // ActivityType::Home.code()
        if !self.edge_enabled(edge) {
            return false;
        }
        if self.context_closed(ctx_self) || self.context_closed(ctx_nbr) {
            return false;
        }
        let is_home = ctx_self == HOME && ctx_nbr == HOME;
        if is_home {
            return true;
        }
        !self.restricted(node, t) && !self.restricted(neighbor, t)
    }

    /// Isolate a node at home until tick `until` (exclusive).
    pub fn isolate(&mut self, node: u32, until: u32) {
        let slot = &mut self.isolated_until[node as usize];
        if *slot < until {
            *slot = until;
            self.scheduled_changes += 1;
        }
    }

    /// Set a node flag.
    pub fn set_flag(&mut self, node: u32, flag: u8) {
        self.node_flags[node as usize] |= flag;
        self.scheduled_changes += 1;
    }

    /// Clear a node flag.
    pub fn clear_flag(&mut self, node: u32, flag: u8) {
        self.node_flags[node as usize] &= !flag;
        self.scheduled_changes += 1;
    }

    /// Test a node flag.
    #[inline]
    pub fn has_flag(&self, node: u32, flag: u8) -> bool {
        self.node_flags[node as usize] & flag != 0
    }

    /// Read a user variable (0.0 when unset, matching EpiHiper's
    /// default-initialized variables).
    pub fn variable(&self, name: &str) -> f64 {
        self.variables.get(name).copied().unwrap_or(0.0)
    }

    /// Write a user variable.
    pub fn set_variable(&mut self, name: &str, value: f64) {
        self.variables.insert(name.to_string(), value);
        self.scheduled_changes += 1;
    }

    /// Count of nodes currently in `state`.
    pub fn count_in(&self, state: StateId) -> usize {
        self.health.iter().filter(|&&h| h == state).count()
    }

    /// Write the `state` section of a snapshot: each per-node and
    /// per-edge-word column as a length-prefixed run of raw values,
    /// then the scalars, then the variables sorted by name so equal
    /// states encode to equal bytes.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        let SimState {
            health,
            exit_tick,
            next_state,
            infectivity_scale,
            susceptibility_scale,
            node_flags,
            isolated_until,
            stay_home_active,
            closed_contexts,
            edge_enabled,
            n_edges,
            variables,
            scheduled_changes,
            health_epoch,
        } = self;
        w.put_column(health);
        w.put_column(exit_tick);
        w.put_column(next_state);
        w.put_column(infectivity_scale);
        w.put_column(susceptibility_scale);
        w.put_column(node_flags);
        w.put_column(isolated_until);
        w.put_bool(*stay_home_active);
        w.put(*closed_contexts);
        w.put_column(edge_enabled);
        w.put(*n_edges as u64);
        let mut vars: Vec<(&String, &f64)> = variables.iter().collect();
        vars.sort_unstable_by_key(|&(name, _)| name);
        w.put_seq(&vars, |w, (name, value)| {
            w.put_str(name);
            w.put(**value);
        });
        w.put(*scheduled_changes);
        w.put(*health_epoch);
    }

    /// Read the `state` section written by [`SimState::encode_into`].
    /// Only canonical encodings are accepted: every node column must
    /// cover the same nodes, the edge words must cover exactly the
    /// claimed edges, and variable names must be strictly increasing.
    pub(crate) fn decode_from(r: &mut ByteReader) -> Result<Self, SnapshotError> {
        let state = SimState {
            health: r.column()?,
            exit_tick: r.column()?,
            next_state: r.column()?,
            infectivity_scale: r.column()?,
            susceptibility_scale: r.column()?,
            node_flags: r.column()?,
            isolated_until: r.column()?,
            stay_home_active: r.bool()?,
            closed_contexts: r.get()?,
            edge_enabled: r.column()?,
            n_edges: usize::try_from(r.get::<u64>()?)
                .map_err(|_| r.invalid("edge count exceeds the address space"))?,
            variables: HashMap::new(),
            scheduled_changes: 0,
            health_epoch: 0,
        };
        let vars = r.seq(8 + 8, |r| Ok((r.string()?, r.get::<f64>()?)))?;
        if vars.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(r.invalid("variable names are not strictly increasing"));
        }
        let n = state.health.len();
        let columns = [
            ("exit_tick", state.exit_tick.len()),
            ("next_state", state.next_state.len()),
            ("infectivity_scale", state.infectivity_scale.len()),
            ("susceptibility_scale", state.susceptibility_scale.len()),
            ("node_flags", state.node_flags.len()),
            ("isolated_until", state.isolated_until.len()),
        ];
        if let Some((column, len)) = columns.into_iter().find(|&(_, len)| len != n) {
            return Err(r.invalid(format!("column `{column}` covers {len} nodes, `health` {n}")));
        }
        if state.edge_enabled.len() != state.n_edges.div_ceil(64) {
            return Err(r.invalid(format!(
                "{} edge-enable words cannot cover {} edges",
                state.edge_enabled.len(),
                state.n_edges
            )));
        }
        Ok(SimState {
            variables: vars.into_iter().collect(),
            scheduled_changes: r.get()?,
            health_epoch: r.get()?,
            ..state
        })
    }

    /// Estimated resident memory in bytes: the static network share is
    /// supplied by the engine; this adds the per-node state and the
    /// intervention bookkeeping that grows as changes are scheduled —
    /// the mechanism behind the Fig.-10 in-simulation memory growth.
    pub fn dynamic_memory_bytes(&self) -> u64 {
        let per_node = (2 + 4 + 2 + 4 + 4 + 1 + 4) as u64; // the seven node arrays
        let nodes = self.health.len() as u64 * per_node;
        let edges = (self.edge_enabled.len() * 8) as u64;
        // Each scheduled change costs bookkeeping in EpiHiper's action
        // queues; 48 bytes approximates a queued action record.
        nodes + edges + self.scheduled_changes * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_all_enabled() {
        let s = SimState::new(10, 100, 0);
        assert_eq!(s.n_nodes(), 10);
        for e in 0..100 {
            assert!(s.edge_enabled(e));
        }
        assert!(!s.restricted(3, 0));
    }

    #[test]
    fn edge_bit_set_clear() {
        let mut s = SimState::new(2, 130, 0);
        s.set_edge_enabled(64, false);
        assert!(!s.edge_enabled(64));
        assert!(s.edge_enabled(63));
        assert!(s.edge_enabled(65));
        s.set_edge_enabled(64, true);
        assert!(s.edge_enabled(64));
    }

    #[test]
    fn context_closure() {
        let mut s = SimState::new(2, 1, 0);
        let school = ActivityType::School;
        assert!(!s.context_closed(school.code()));
        s.close_context(school);
        assert!(s.context_closed(school.code()));
        assert!(!s.context_closed(ActivityType::Work.code()));
        s.open_context(school);
        assert!(!s.context_closed(school.code()));
    }

    #[test]
    fn isolation_expires() {
        let mut s = SimState::new(3, 1, 0);
        s.isolate(1, 10);
        assert!(s.restricted(1, 5));
        assert!(s.restricted(1, 9));
        assert!(!s.restricted(1, 10));
        assert!(!s.restricted(0, 5));
    }

    #[test]
    fn isolation_never_shortens() {
        let mut s = SimState::new(1, 1, 0);
        s.isolate(0, 20);
        s.isolate(0, 10);
        assert!(s.restricted(0, 15));
    }

    #[test]
    fn stay_home_only_hits_compliant() {
        let mut s = SimState::new(2, 1, 0);
        s.set_flag(0, flags::SH_COMPLIANT);
        s.stay_home_active = true;
        assert!(s.restricted(0, 0));
        assert!(!s.restricted(1, 0));
        s.stay_home_active = false;
        assert!(!s.restricted(0, 0));
    }

    #[test]
    fn home_edges_survive_restriction() {
        let mut s = SimState::new(2, 4, 0);
        s.isolate(0, 100);
        let home = ActivityType::Home.code();
        let work = ActivityType::Work.code();
        assert!(s.edge_active(0, 0, 1, home, home, 5));
        assert!(!s.edge_active(1, 0, 1, work, work, 5));
        // Asymmetric contexts: one side home is not enough.
        assert!(!s.edge_active(2, 0, 1, home, work, 5));
    }

    #[test]
    fn closed_context_blocks_edge() {
        let mut s = SimState::new(2, 1, 0);
        s.close_context(ActivityType::School);
        let school = ActivityType::School.code();
        let work = ActivityType::Work.code();
        assert!(!s.edge_active(0, 0, 1, school, school, 0));
        assert!(!s.edge_active(0, 0, 1, work, school, 0));
        assert!(s.edge_active(0, 0, 1, work, work, 0));
    }

    #[test]
    fn disabled_edge_blocks_everything() {
        let mut s = SimState::new(2, 1, 0);
        s.set_edge_enabled(0, false);
        let home = ActivityType::Home.code();
        assert!(!s.edge_active(0, 0, 1, home, home, 0));
    }

    #[test]
    fn flags_roundtrip() {
        let mut s = SimState::new(1, 1, 0);
        assert!(!s.has_flag(0, flags::VHI_COMPLIANT));
        s.set_flag(0, flags::VHI_COMPLIANT);
        assert!(s.has_flag(0, flags::VHI_COMPLIANT));
        s.clear_flag(0, flags::VHI_COMPLIANT);
        assert!(!s.has_flag(0, flags::VHI_COMPLIANT));
    }

    #[test]
    fn variables_default_zero() {
        let mut s = SimState::new(1, 1, 0);
        assert_eq!(s.variable("x"), 0.0);
        s.set_variable("x", 2.5);
        assert_eq!(s.variable("x"), 2.5);
    }

    #[test]
    fn memory_grows_with_scheduled_changes() {
        let mut s = SimState::new(100, 100, 0);
        let before = s.dynamic_memory_bytes();
        for i in 0..50 {
            s.isolate(i % 100, 10 + i);
        }
        assert!(s.dynamic_memory_bytes() > before);
    }

    #[test]
    fn set_health_bumps_epoch_only_on_change() {
        let mut s = SimState::new(3, 1, 0);
        assert_eq!(s.health_epoch(), 0);
        s.set_health(1, 2);
        assert_eq!(s.health[1], 2);
        assert_eq!(s.health_epoch(), 1);
        s.set_health(1, 2); // no-op write
        assert_eq!(s.health_epoch(), 1);
        s.set_health(1, 0);
        assert_eq!(s.health_epoch(), 2);
    }

    #[test]
    fn count_in_states() {
        let mut s = SimState::new(5, 1, 0);
        s.health[2] = 3;
        s.health[4] = 3;
        assert_eq!(s.count_in(0), 3);
        assert_eq!(s.count_in(3), 2);
        assert_eq!(s.count_in(7), 0);
    }
}

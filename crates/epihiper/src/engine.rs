//! The parallel discrete-time simulation engine.
//!
//! Each tick (= 1 day):
//!
//! 1. **Interventions** run serially against the system state (they are
//!    cheap relative to the network scan, exactly as in EpiHiper).
//! 2. **Scan phase** — partitions execute in parallel (rayon workers
//!    standing in for MPI ranks; a partition owns all in-edges of its
//!    nodes, so each worker reads shared last-tick state and writes only
//!    its own event buffer). For every *candidate* node the scan either
//!    fires a scheduled progression or, for susceptible nodes,
//!    accumulates the Eq.-(1) propensities over active in-edges and
//!    performs the Gillespie draw for whether an exposure occurs and
//!    which contact caused it.
//! 3. **Apply phase** — events are applied serially in node order,
//!    updating health states, counters, the transition log, the
//!    frontier index, and the memory accounting.
//!
//! The scan is **frontier-based**: per-tick cost is proportional to
//! the active frontier (nodes with at least one infectious-capable
//! in-neighbor, tracked by [`ActiveSet`]) plus due progressions
//! (tracked by [`TickBuckets`]), not to the network size. A node
//! outside the frontier has every transmission-LUT lookup `None`, so
//! its λ accumulates to exactly 0.0 and a full sweep would skip it
//! *before constructing its RNG* — skipping it outright therefore
//! changes nothing. A partition whose frontier is nearly full sweeps
//! its whole node range instead (see
//! [`SimConfig::saturation_threshold`]); both iteration orders call the
//! same per-node kernel, so they emit byte-identical events, and
//! `saturation_threshold = 0.0` (sweep every partition every tick) is
//! the full-sweep oracle the equivalence tests compare against.
//!
//! Randomness is *counter-based*: each (node, tick) pair gets its own
//! splitmix64 stream derived from the replicate seed, so results are
//! bit-identical regardless of how many threads or partitions execute
//! the scan — the property that lets strong-scaling benchmarks vary
//! parallelism without changing the epidemic, and the property that
//! makes frontier skipping safe (no node's draws depend on whether
//! another node was visited).

use crate::checkpoint::{SimSnapshot, SnapshotError, SnapshotMeta, SNAPSHOT_VERSION};
use crate::disease::{DiseaseModel, StateId};
use crate::frontier::{ActiveSet, TickBuckets};
use crate::interventions::{InterventionCtx, InterventionSet};
use crate::output::{SimOutput, TransitionRecord};
use crate::partition::{partition_network, Partitioning};
use crate::state::{SimState, NEVER};
use epiflow_synthpop::ContactNetwork;
use rand::{Rng, RngCore};
use rayon::prelude::*;
use serde::Serialize;
use std::sync::Arc;

/// Counter-based RNG: a splitmix64 stream keyed by (seed, node, tick).
///
/// splitmix64 passes BigCrush and is the canonical seeding generator;
/// one multiply-xor-shift round per output makes per-(node,tick)
/// construction essentially free, which is what makes thread-count
/// independence affordable.
#[derive(Clone, Debug)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// Stream for a (seed, node, tick) triple.
    #[inline]
    pub fn new(seed: u64, node: u32, tick: u32) -> Self {
        let key = seed
            ^ (node as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ ((tick as u64) << 32).wrapping_mul(0xBF58476D1CE4E5B9);
        // One warmup step decorrelates nearby keys.
        let mut rng = CounterRng { state: key };
        rng.next_u64();
        rng
    }
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// One directed in-edge as seen from its owning node.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef {
    /// The other endpoint.
    pub neighbor: u32,
    /// Undirected edge id (shared by both directions).
    pub edge_id: u32,
    /// Edge weight `w_e`.
    pub weight: f32,
    /// Contact duration `T` as a fraction of a day.
    pub duration_frac: f32,
    /// Precomputed `duration_frac · weight` in f64 — the static prefix
    /// of the Eq.-(1) propensity. Computing it once at build time saves
    /// two widenings and a multiply per edge per tick, and because it
    /// is the exact product the scan used to compute inline, the λ
    /// accumulation stays bit-identical.
    pub tw: f64,
    /// Activity context code of the owning node.
    pub ctx_self: u8,
    /// Activity context code of the neighbor.
    pub ctx_nbr: u8,
}

/// The runtime (CSR) representation of the contact network: all in-edges
/// of a node stored contiguously, which is both the partitioning
/// invariant and the memory layout the scan wants.
#[derive(Clone, Debug)]
pub struct RuntimeNet {
    pub n_nodes: usize,
    pub n_undirected: usize,
    offsets: Vec<u32>,
    edges: Vec<EdgeRef>,
}

impl RuntimeNet {
    /// Build from an edge-list network (each undirected edge becomes an
    /// in-edge of both endpoints).
    pub fn build(network: &ContactNetwork) -> Self {
        let n = network.n_nodes;
        let mut deg = vec![0u32; n + 1];
        for e in &network.edges {
            deg[e.u as usize + 1] += 1;
            deg[e.v as usize + 1] += 1;
        }
        for i in 1..=n {
            deg[i] += deg[i - 1];
        }
        let offsets = deg;
        let mut cursor = offsets.clone();
        let mut edges = vec![
            EdgeRef {
                neighbor: 0,
                edge_id: 0,
                weight: 0.0,
                duration_frac: 0.0,
                tw: 0.0,
                ctx_self: 0,
                ctx_nbr: 0
            };
            network.edges.len() * 2
        ];
        for (eid, e) in network.edges.iter().enumerate() {
            let frac = f32::from(e.duration.min(1440)) / 1440.0;
            let tw = frac as f64 * e.weight as f64;
            let at_u = cursor[e.u as usize] as usize;
            edges[at_u] = EdgeRef {
                neighbor: e.v,
                edge_id: eid as u32,
                weight: e.weight,
                duration_frac: frac,
                tw,
                ctx_self: e.ctx_u.code(),
                ctx_nbr: e.ctx_v.code(),
            };
            cursor[e.u as usize] += 1;
            let at_v = cursor[e.v as usize] as usize;
            edges[at_v] = EdgeRef {
                neighbor: e.u,
                edge_id: eid as u32,
                weight: e.weight,
                duration_frac: frac,
                tw,
                ctx_self: e.ctx_v.code(),
                ctx_nbr: e.ctx_u.code(),
            };
            cursor[e.v as usize] += 1;
        }
        RuntimeNet { n_nodes: n, n_undirected: network.edges.len(), offsets, edges }
    }

    /// In-edges of a node.
    #[inline]
    pub fn in_edges(&self, node: u32) -> &[EdgeRef] {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Static memory footprint in bytes (network share of Fig. 10).
    pub fn static_memory_bytes(&self) -> u64 {
        (self.offsets.len() * 4 + self.edges.len() * std::mem::size_of::<EdgeRef>()) as u64
    }
}

/// The immutable half of a simulation: everything that is a pure
/// function of ⟨contact network, demographics, partition count⟩ and is
/// only ever *read* during a run. Nightly production designs execute
/// thousands of replicates against the same network, so this is built
/// once per ⟨region, partition count⟩ and shared via [`Arc`] across
/// every replicate ([`Simulation::new_with_context`]), turning the
/// O(V + E) CSR build + partitioning + attribute derivation from a
/// per-replicate cost into a per-ensemble one. Every simulation is
/// built against a context, so a one-off run builds one for itself.
///
/// The partitioning lives here — keyed by the ⟨`n_partitions`, `epsilon`⟩
/// it was built with — because partition boundaries determine the
/// workspace layout, the bucket routing, and the per-partition
/// saturation decision. A context is therefore only valid for configs
/// requesting the same partitioning: [`Simulation::new_with_context`]
/// panics and [`Simulation::resume_with_context`] returns
/// [`SnapshotError::Mismatch`] on any other, rather than silently
/// scanning under a partitioning the config did not ask for. (Results
/// would still be *epidemiologically* identical either way — the RNG
/// is counter-based — but telemetry like `edges_scanned` would not be
/// byte-identical, and byte-identity is the invariant.)
#[derive(Debug)]
pub struct SimContext {
    /// CSR runtime network (in-edge arrays incl. precomputed `tw`).
    pub net: RuntimeNet,
    /// Contiguous node ranges, one per partition.
    pub partitioning: Partitioning,
    /// Dense node → partition map (apply-phase bucket routing).
    pub part_of: Vec<u32>,
    /// Age-group index (0..5) per node.
    pub age_group: Vec<u8>,
    /// County index per node (for county-level aggregation).
    pub county: Vec<u16>,
    /// County rows in the aggregate output (max county index + 1).
    pub n_counties: usize,
    /// The partition count the partitioning was requested with.
    pub n_partitions: usize,
    /// The partitioning tolerance ε it was built with.
    pub epsilon: usize,
}

impl SimContext {
    /// One-time construction of the shared context: CSR build,
    /// partitioning, and the derived attribute tables. `age_group` and
    /// `county` must have one entry per node.
    pub fn build(
        network: &ContactNetwork,
        age_group: Vec<u8>,
        county: Vec<u16>,
        n_partitions: usize,
        epsilon: usize,
    ) -> Self {
        assert_eq!(age_group.len(), network.n_nodes, "age group per node");
        assert_eq!(county.len(), network.n_nodes, "county per node");
        let partitioning = partition_network(network, n_partitions, epsilon);
        let net = RuntimeNet::build(network);
        let part_of = partitioning.index_map();
        let n_counties = county.iter().map(|&c| c as usize + 1).max().unwrap_or(1);
        SimContext {
            net,
            partitioning,
            part_of,
            age_group,
            county,
            n_counties,
            n_partitions,
            epsilon,
        }
    }
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of ticks (days) to simulate.
    pub ticks: u32,
    /// Replicate seed.
    pub seed: u64,
    /// Processing units (partitions / rayon workers).
    pub n_partitions: usize,
    /// Partitioning tolerance ε.
    pub epsilon: usize,
    /// Number of initial infections, seeded at tick 0.
    pub initial_infections: usize,
    /// Keep the full transition log (disable for large sweeps where
    /// only aggregates are needed).
    pub record_transitions: bool,
    /// Frontier occupancy fraction at or above which a partition
    /// abandons the bitset merge for a plain range loop over its nodes
    /// that tick: iterating a near-full bitset plus the due-list merge
    /// costs a few ns per node over the bare range loop, while sweeping
    /// the few off-frontier nodes costs only their λ ≡ 0 edge walks.
    /// Measured crossover on a mean-degree-20 network sits near 3/4
    /// occupancy (direction-optimizing-BFS style switch), hence the 0.75
    /// default. `0.0` sweeps every partition every tick (the full-sweep
    /// oracle); values above 1.0 never sweep. Both orders run the same
    /// per-node kernel, so this knob only moves cost, never results.
    pub saturation_threshold: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            ticks: 120,
            seed: 1,
            n_partitions: 4,
            epsilon: 16,
            initial_infections: 5,
            record_transitions: true,
            saturation_threshold: 0.75,
        }
    }
}

/// One tick-event produced by the scan phase.
#[derive(Clone, Copy, Debug)]
struct Event {
    node: u32,
    new_state: StateId,
    cause: Option<u32>,
    exit_tick: u32,
    next_state: StateId,
}

/// Per-tick engine telemetry, one entry per tick.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct EngineStats {
    /// Frontier size at scan time (nodes with ≥1 infectious-capable
    /// in-neighbor), whichever order the partitions scanned in.
    pub frontier_nodes: Vec<u32>,
    /// Scheduled progressions due this tick (bucket drains).
    pub due_nodes: Vec<u32>,
    /// In-edges examined by the λ-accumulation pass. This is the
    /// quantity the frontier scan shrinks: a full sweep pays it for
    /// every susceptible node, the frontier merge only for frontier
    /// members.
    pub edges_scanned: Vec<u64>,
    /// State-transition events applied.
    pub events: Vec<u32>,
}

impl EngineStats {
    /// Sum of the per-tick λ-pass edge visits.
    pub fn total_edges_scanned(&self) -> u64 {
        self.edges_scanned.iter().sum()
    }

    /// Mean frontier occupancy as a fraction of the node count.
    pub fn mean_frontier_occupancy(&self, n_nodes: usize) -> f64 {
        if self.frontier_nodes.is_empty() || n_nodes == 0 {
            return 0.0;
        }
        let mean = self.frontier_nodes.iter().map(|&f| f as f64).sum::<f64>()
            / self.frontier_nodes.len() as f64;
        mean / n_nodes as f64
    }
}

/// Mid-run continuation state: everything the tick loop accumulates
/// that is *not* part of [`SimState`] but must survive an interrupt for
/// the resumed run to be byte-identical — the output series so far, the
/// previous tick's transitions (consumed by reactive interventions at
/// the next tick), the cumulative transition count feeding the memory
/// model, and the per-tick telemetry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunCarry {
    pub output: SimOutput,
    pub recent: Vec<TransitionRecord>,
    pub cum_transitions: u64,
    pub stats: EngineStats,
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct SimResult {
    pub output: SimOutput,
    /// Wall-clock time of the tick loop.
    pub elapsed: std::time::Duration,
    pub ticks_run: u32,
    /// Per-tick engine telemetry.
    pub stats: EngineStats,
}

/// Reusable per-partition scan state: the due-progression buffer, the
/// event output buffer, and the Gillespie scratch. Owned by the
/// simulation and handed to one worker per tick, so the hot loop
/// allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
struct Workspace {
    part: usize,
    range: std::ops::Range<u32>,
    /// Nodes whose scheduled progression may fire this tick (drained
    /// from [`TickBuckets`]; sorted, deduped, possibly stale).
    due: Vec<u32>,
    events: Vec<Event>,
    /// Per-qualifying-edge `(ρ, neighbor, to_state)` from the λ pass,
    /// reused by the Gillespie pick so the in-edge list is walked once.
    scratch: Vec<(f64, u32, StateId)>,
    edges_scanned: u64,
}

/// A configured simulation, ready to run.
///
/// The immutable inputs (network, partitioning, demographics) live in
/// an [`Arc`]-shared [`SimContext`]; everything below it is the cheap
/// per-replicate mutable state. A simulation has one lifecycle:
/// [`SimContext::build`] → [`Simulation::new_with_context`] →
/// [`Simulation::run`] → [`Simulation::snapshot`] (then
/// [`SimSnapshot::encode`] / [`SimSnapshot::decode`]) →
/// [`Simulation::resume_with_context`] → [`Simulation::run`].
pub struct Simulation {
    /// The shared immutable context (network, partitioning, attributes).
    ctx: Arc<SimContext>,
    /// The disease model, validated at construction.
    model: DiseaseModel,
    /// The authoritative per-node state. Writing health states through
    /// [`SimState::set_health`] between construction and `run` is a
    /// supported input: the health epoch tells the engine to rebuild
    /// its frontier index.
    pub state: SimState,
    interventions: InterventionSet,
    config: SimConfig,
    /// `lut[health * n_states + neighbor_health]` → (exposed state, ω).
    trans_lut: Vec<Option<(StateId, f64)>>,
    /// `via_state[s]`: state `s` appears as `via` in some transmission,
    /// i.e. nodes in `s` can infect. Gating on it is what makes the
    /// frontier robust to interventions: edge enable-bits, context
    /// closures, and infectivity/susceptibility scales only *multiply*
    /// propensity terms, so a node with zero via-state in-neighbors has
    /// λ ≡ 0 no matter what interventions did.
    via_state: Vec<bool>,
    /// Number of in-neighbors currently in a via state, per node.
    inf_nbr_count: Vec<u32>,
    /// Nodes with `inf_nbr_count > 0` — the transmission frontier.
    active: ActiveSet,
    /// Scheduled progressions, bucketed by firing tick.
    buckets: TickBuckets,
    /// One scan workspace per partition, pointed at its node range.
    workspaces: Vec<Workspace>,
    /// Last observed [`SimState::health_epoch`]; a mismatch means an
    /// intervention (or test harness) wrote health states externally
    /// and the frontier index must be rebuilt.
    seen_health_epoch: u64,
    /// First tick the next [`Simulation::run`] call executes: 0 for a
    /// fresh simulation, `config.ticks` after a completed run, the
    /// snapshot's `next_tick` after [`Simulation::resume_with_context`].
    start_tick: u32,
    /// Continuation state from the previous `run` call (or the
    /// snapshot), `None` until the first run.
    carry: Option<RunCarry>,
}

impl Simulation {
    /// Build a simulation against a shared [`SimContext`], skipping all
    /// network construction: no CSR build, no partitioning, no
    /// attribute derivation — only the O(V) mutable state and the
    /// O(states²) transmission LUT. Every simulation starts here; a
    /// context reused across replicates gives byte-identical results
    /// to one built afresh for each.
    ///
    /// Panics if `config` requests a different partitioning than `ctx`
    /// was built with (see [`SimContext`]), or if `model` fails
    /// [`DiseaseModel::validate`].
    pub fn new_with_context(
        ctx: Arc<SimContext>,
        model: DiseaseModel,
        interventions: InterventionSet,
        config: SimConfig,
    ) -> Self {
        if let Err(why) = check_partitioning(&ctx, &config) {
            panic!("{why}");
        }
        let state = SimState::new(ctx.net.n_nodes, ctx.net.n_undirected, model.susceptible_state);
        Self::assemble(ctx, model, state, interventions, config)
    }

    /// The one construction body: derive the transmission LUT, the
    /// per-partition workspaces and the frontier index around `state`.
    /// The progression queues start empty.
    fn assemble(
        ctx: Arc<SimContext>,
        model: DiseaseModel,
        state: SimState,
        interventions: InterventionSet,
        config: SimConfig,
    ) -> Self {
        model.validate().expect("valid disease model");

        let ns = model.n_states();
        let mut trans_lut = vec![None; ns * ns];
        let mut via_state = vec![false; ns];
        for t in &model.transmissions {
            trans_lut[t.from as usize * ns + t.via as usize] = Some((t.to, t.omega));
            via_state[t.via as usize] = true;
        }

        let buckets = TickBuckets::new(ctx.partitioning.len());
        let active = ActiveSet::new(ctx.net.n_nodes);
        let inf_nbr_count = vec![0u32; ctx.net.n_nodes];
        let workspaces = ctx
            .partitioning
            .ranges
            .iter()
            .enumerate()
            .map(|(part, range)| Workspace { part, range: range.clone(), ..Default::default() })
            .collect();

        let mut sim = Simulation {
            ctx,
            model,
            state,
            interventions,
            config,
            trans_lut,
            via_state,
            inf_nbr_count,
            active,
            buckets,
            workspaces,
            seen_health_epoch: 0,
            start_tick: 0,
            carry: None,
        };
        sim.rebuild_frontier();
        sim
    }

    /// The shared immutable context.
    pub fn context(&self) -> &Arc<SimContext> {
        &self.ctx
    }

    /// Recompute the frontier index (`inf_nbr_count` + [`ActiveSet`])
    /// from the authoritative health states, and snapshot the health
    /// epoch. O(V + E); called at construction and whenever health
    /// states were written externally (see [`SimState::set_health`]).
    fn rebuild_frontier(&mut self) {
        self.inf_nbr_count.iter_mut().for_each(|c| *c = 0);
        self.active.clear();
        for v in 0..self.ctx.net.n_nodes as u32 {
            if self.via_state[self.state.health[v as usize] as usize] {
                for e in self.ctx.net.in_edges(v) {
                    self.inf_nbr_count[e.neighbor as usize] += 1;
                }
            }
        }
        for v in 0..self.ctx.net.n_nodes as u32 {
            if self.inf_nbr_count[v as usize] > 0 {
                self.active.insert(v);
            }
        }
        self.seen_health_epoch = self.state.health_epoch();
    }

    /// Incremental frontier maintenance for one health transition of
    /// node `v`. O(deg(v)), and only when `v` crosses the via-state
    /// boundary.
    fn note_health_change(&mut self, v: u32, old: StateId, new: StateId) {
        let was = self.via_state[old as usize];
        let is = self.via_state[new as usize];
        if was == is {
            return;
        }
        if is {
            for e in self.ctx.net.in_edges(v) {
                let u = e.neighbor as usize;
                self.inf_nbr_count[u] += 1;
                if self.inf_nbr_count[u] == 1 {
                    self.active.insert(e.neighbor);
                }
            }
        } else {
            for e in self.ctx.net.in_edges(v) {
                let u = e.neighbor as usize;
                self.inf_nbr_count[u] -= 1;
                if self.inf_nbr_count[u] == 0 {
                    self.active.remove(e.neighbor);
                }
            }
        }
    }

    /// Frontier-index overhead for the memory model: the neighbor
    /// counts, the partition map, both bitset levels, and the queued
    /// bucket entries.
    fn frontier_memory_bytes(&self) -> u64 {
        let n = self.ctx.net.n_nodes;
        ((self.inf_nbr_count.len() + self.ctx.part_of.len()) * 4
            + n.div_ceil(64) * 8
            + n.div_ceil(64).div_ceil(64) * 8
            + self.buckets.queued() * 8) as u64
    }

    /// Schedule the progression out of `entered` for a node, returning
    /// `(exit_tick, next_state)` — or `(NEVER, entered)` for terminal
    /// states.
    fn schedule<R: Rng + ?Sized>(
        model: &DiseaseModel,
        entered: StateId,
        age_group: usize,
        tick: u32,
        rng: &mut R,
    ) -> (u32, StateId) {
        match model.sample_progression(entered, age_group, rng) {
            Some((next, dwell)) => (tick + u32::from(dwell.max(1)), next),
            None => (NEVER, entered),
        }
    }

    /// Seed `initial_infections` distinct nodes at tick 0. The seeding
    /// loop draws random nodes under a guard bound; any shortfall is
    /// recorded in the output instead of being silently dropped.
    fn seed_infections(&mut self, output: &mut SimOutput) {
        let n = self.ctx.net.n_nodes;
        let target = self.config.initial_infections.min(n);
        output.requested_seeds = target as u32;
        if n == 0 {
            return;
        }
        let mut rng = CounterRng::new(self.config.seed, u32::MAX, 0);
        let mut seeded = 0usize;
        let mut guard = 0usize;
        while seeded < target && guard < target * 100 + 100 {
            guard += 1;
            let v = rng.random_range(0..n as u32);
            let old = self.state.health[v as usize];
            if old != self.model.susceptible_state {
                continue;
            }
            let s = self.model.initial_infected_state;
            let (exit, next) = Self::schedule(
                &self.model,
                s,
                self.ctx.age_group[v as usize] as usize,
                0,
                &mut rng,
            );
            self.state.health[v as usize] = s;
            self.state.exit_tick[v as usize] = exit;
            self.state.next_state[v as usize] = next;
            if exit != NEVER {
                self.buckets.push(self.ctx.part_of[v as usize] as usize, exit, v);
            }
            self.note_health_change(v, old, s);
            if self.config.record_transitions {
                output.transitions.push(TransitionRecord {
                    tick: 0,
                    person: v,
                    state: s,
                    cause: None,
                });
            }
            seeded += 1;
        }
        output.seeded = seeded as u32;
    }

    /// The scheduled-progression branch of the per-node kernel.
    #[inline(always)]
    fn progress_node(&self, v: u32, t: u32, events: &mut Vec<Event>) {
        let vi = v as usize;
        let to = self.state.next_state[vi];
        let mut rng = CounterRng::new(self.config.seed, v, t);
        let (exit, next) =
            Self::schedule(&self.model, to, self.ctx.age_group[vi] as usize, t, &mut rng);
        events.push(Event {
            node: v,
            new_state: to,
            cause: None,
            exit_tick: exit,
            next_state: next,
        });
    }

    /// The transmission branch of the per-node kernel: accumulate the
    /// Eq.-(1) propensities over the node's active in-edges, draw
    /// whether an exposure occurs, and pick the causing contact ∝ its
    /// propensity (Gillespie). One λ pass stashes each qualifying edge's
    /// `(ρ, neighbor, to)` in scratch as it accumulates, so the cause
    /// pick replays scratch without rescanning the in-edge list.
    ///
    /// Both kernel halves are `#[inline(always)]` so each of the two
    /// scan loops gets its own inlined copy of the kernel.
    #[inline(always)]
    fn transmit_node(
        &self,
        v: u32,
        t: u32,
        scratch: &mut Vec<(f64, u32, StateId)>,
        events: &mut Vec<Event>,
        edges_scanned: &mut u64,
    ) {
        let ns = self.model.n_states();
        let tau = self.model.transmissibility;
        let vi = v as usize;
        let hv = self.state.health[vi];
        let sigma = self.model.states[hv as usize].susceptibility
            * self.state.susceptibility_scale[vi] as f64;
        if sigma <= 0.0 {
            return;
        }
        let lut_row = &self.trans_lut[hv as usize * ns..(hv as usize + 1) * ns];
        let mut lambda = 0.0f64;
        scratch.clear();
        *edges_scanned += self.ctx.net.in_edges(v).len() as u64;
        for e in self.ctx.net.in_edges(v) {
            let u = e.neighbor as usize;
            let hu = self.state.health[u];
            let Some((to, omega)) = lut_row[hu as usize] else { continue };
            if !self.state.edge_active(e.edge_id, v, e.neighbor, e.ctx_self, e.ctx_nbr, t) {
                continue;
            }
            let iota =
                self.model.states[hu as usize].infectivity * self.state.infectivity_scale[u] as f64;
            // Eq. (1): ρ = T · w_e · σ(Ps)·ι(Pi) · ω, scaled by τ.
            let rho = e.tw * sigma * iota * omega * tau;
            lambda += rho;
            scratch.push((rho, e.neighbor, to));
        }
        if lambda <= 0.0 {
            return;
        }
        let mut rng = CounterRng::new(self.config.seed, v, t);
        let p_infect = 1.0 - (-lambda).exp();
        if !rng.random_bool(p_infect) {
            return;
        }
        // Gillespie pick over the stashed propensities.
        let mut pick = rng.random_range(0.0..lambda);
        let mut chosen = None;
        for &(rho, nbr, to) in scratch.iter() {
            pick -= rho;
            if pick <= 0.0 {
                chosen = Some((nbr, to));
                break;
            }
        }
        // Floating-point remainder: attribute to the last qualifying
        // contact.
        let (cause_nbr, to_state) = chosen.unwrap_or_else(|| {
            let &(_, nbr, to) = scratch.last().expect("λ > 0 implies a qualifying edge");
            (nbr, to)
        });
        let (exit, next) =
            Self::schedule(&self.model, to_state, self.ctx.age_group[vi] as usize, t, &mut rng);
        events.push(Event {
            node: v,
            new_state: to_state,
            cause: Some(cause_nbr),
            exit_tick: exit,
            next_state: next,
        });
    }

    /// The frontier scan of one partition: a two-pointer merge of its
    /// due progressions (sorted bucket drain) and its slice of the
    /// active set, visited in ascending node order so events come out
    /// in exactly the order a full sweep of the range produces them.
    ///
    /// Equivalence to the full sweep, node by node:
    /// * due ∧ `exit_tick == t` — the progression branch, identical.
    /// * due ∧ `exit_tick != t` ∧ ¬active — a stale bucket entry for a
    ///   node with no via-state in-neighbors: every LUT lookup is
    ///   `None`, λ ≡ 0.0 exactly, and the sweep falls through before
    ///   constructing the node's RNG. Skipped.
    /// * active — the transmission branch ([`Self::transmit_node`]).
    /// * neither — λ ≡ 0.0 as above; the sweep's only effect would be
    ///   the `exit_tick`/σ checks. Skipped.
    ///
    /// When the partition's frontier occupancy reaches
    /// [`SimConfig::saturation_threshold`] (default 0.75), the merge is
    /// abandoned for this tick and the partition sweeps its whole range
    /// through the same two branches, paying neither bitset iteration
    /// nor the due-list merge for every node.
    fn scan_partition_frontier(&self, ws: &mut Workspace, t: u32) {
        let Workspace { range, due, events, scratch, edges_scanned, .. } = ws;
        let span = (range.end - range.start) as usize;
        let occupied = self.active.count_range(range.start, range.end);
        // `occupied >= span * θ` in f64 is exact at the default θ = 3/4
        // for any realistic span, so this reproduces the historical
        // integer `occupied·4 ≥ span·3` switch bit for bit.
        if occupied as f64 >= span as f64 * self.config.saturation_threshold {
            // Saturated partition: the sweep finds every due
            // progression via its own `exit_tick` check, so the drained
            // due list is not consulted.
            for v in range.clone() {
                if self.state.exit_tick[v as usize] == t {
                    self.progress_node(v, t, events);
                } else {
                    self.transmit_node(v, t, scratch, events, edges_scanned);
                }
            }
            return;
        }

        let mut di = 0usize;
        let mut act = self.active.iter_range(range.start, range.end);
        let mut next_act = act.next();
        loop {
            let (v, from_active) = match (due.get(di).copied(), next_act) {
                (None, None) => break,
                (Some(d), None) => {
                    di += 1;
                    (d, false)
                }
                (None, Some(a)) => {
                    next_act = act.next();
                    (a, true)
                }
                (Some(d), Some(a)) => {
                    if d < a {
                        di += 1;
                        (d, false)
                    } else if a < d {
                        next_act = act.next();
                        (a, true)
                    } else {
                        di += 1;
                        next_act = act.next();
                        (d, true)
                    }
                }
            };

            if self.state.exit_tick[v as usize] == t {
                self.progress_node(v, t, events);
                continue;
            }
            if !from_active {
                // Stale bucket entry off the frontier: λ ≡ 0.
                continue;
            }
            self.transmit_node(v, t, scratch, events, edges_scanned);
        }
    }

    /// Run the simulation from `Simulation::start_tick` (0 for a
    /// fresh simulation) to `config.ticks`. A fresh run seeds at tick
    /// 0; a resumed run continues the carried output series instead, so
    /// an interrupted-and-resumed simulation produces byte-identical
    /// results to an uninterrupted one.
    pub fn run(&mut self) -> SimResult {
        let ns = self.model.n_states();
        let first_tick = self.start_tick;
        let (mut output, mut recent, mut cum_transitions, mut stats) = match self.carry.take() {
            Some(c) => (c.output, c.recent, c.cum_transitions, c.stats),
            None => {
                let mut output = SimOutput::default();
                if self.state.health_epoch() != self.seen_health_epoch {
                    self.rebuild_frontier();
                }
                self.seed_infections(&mut output);
                // Cumulative transitions drive the output-buffer share
                // of the memory model (EpiHiper buffers its transition
                // log), counted whether or not the log is retained in
                // `output`.
                let recent: Vec<TransitionRecord> = output.transitions.clone();
                let cum = recent.len() as u64;
                (output, recent, cum, EngineStats::default())
            }
        };
        // Occupancy from the actual current health states (the
        // transition log may be disabled, so it cannot be the source).
        let mut occupancy = vec![0u32; ns];
        for &h in &self.state.health {
            occupancy[h as usize] += 1;
        }

        let started = std::time::Instant::now();
        // Per-tick aggregation rows, re-zeroed by replaying the tick's
        // events (cheaper than a dense fill when events are sparse).
        let mut new_row = vec![0u32; ns];
        let mut county_row = vec![vec![0u32; ns]; self.ctx.n_counties];

        for t in first_tick..self.config.ticks {
            // 1. Interventions.
            {
                let mut ctx = InterventionCtx {
                    tick: t,
                    state: &mut self.state,
                    net: &self.ctx.net,
                    model: &self.model,
                    recent: &recent,
                    seed: self.config.seed,
                };
                self.interventions.apply(&mut ctx);
            }
            // External health writes invalidate the frontier index and
            // the occupancy counters; rebuild both.
            if self.state.health_epoch() != self.seen_health_epoch {
                self.rebuild_frontier();
                occupancy.fill(0);
                for &h in &self.state.health {
                    occupancy[h as usize] += 1;
                }
            }

            // 2. Parallel scan into the per-partition workspaces.
            let mut wss = std::mem::take(&mut self.workspaces);
            for ws in &mut wss {
                ws.events.clear();
                ws.edges_scanned = 0;
                self.buckets.take_into(ws.part, t, &mut ws.due);
            }
            stats.frontier_nodes.push(self.active.len() as u32);
            stats.due_nodes.push(wss.iter().map(|w| w.due.len() as u32).sum());
            wss.par_iter_mut().for_each(|ws| self.scan_partition_frontier(ws, t));
            stats.edges_scanned.push(wss.iter().map(|w| w.edges_scanned).sum());

            // 3. Serial apply, in node order (ranges are sorted).
            recent.clear();
            let mut n_events = 0u32;
            for ws in &wss {
                for ev in &ws.events {
                    let vi = ev.node as usize;
                    let old = self.state.health[vi];
                    occupancy[old as usize] -= 1;
                    occupancy[ev.new_state as usize] += 1;
                    self.state.health[vi] = ev.new_state;
                    self.state.exit_tick[vi] = ev.exit_tick;
                    self.state.next_state[vi] = ev.next_state;
                    if ev.exit_tick != NEVER {
                        self.buckets.push(self.ctx.part_of[vi] as usize, ev.exit_tick, ev.node);
                    }
                    self.note_health_change(ev.node, old, ev.new_state);
                    new_row[ev.new_state as usize] += 1;
                    county_row[self.ctx.county[vi] as usize][ev.new_state as usize] += 1;
                    let rec = TransitionRecord {
                        tick: t,
                        person: ev.node,
                        state: ev.new_state,
                        cause: ev.cause,
                    };
                    recent.push(rec);
                    if self.config.record_transitions {
                        output.transitions.push(rec);
                    }
                    n_events += 1;
                }
            }
            stats.events.push(n_events);

            cum_transitions += recent.len() as u64;
            output.new_counts.push(new_row.clone());
            output.current_counts.push(occupancy.clone());
            output.county_new.push(county_row.clone());
            // Re-zero the reused rows by replaying the touched cells.
            for ws in &wss {
                for ev in &ws.events {
                    new_row[ev.new_state as usize] = 0;
                    county_row[self.ctx.county[ev.node as usize] as usize][ev.new_state as usize] =
                        0;
                }
            }
            self.workspaces = wss;
            output.memory_bytes.push(
                self.ctx.net.static_memory_bytes()
                    + self.state.dynamic_memory_bytes()
                    + self.frontier_memory_bytes()
                    + cum_transitions * 24,
            );
        }

        // Park the continuation so a later `snapshot()` can capture it
        // (and a redundant `run()` call replays the same result).
        self.start_tick = self.config.ticks;
        self.carry = Some(RunCarry {
            output: output.clone(),
            recent,
            cum_transitions,
            stats: stats.clone(),
        });
        SimResult { output, elapsed: started.elapsed(), ticks_run: self.config.ticks, stats }
    }

    /// Capture a [`SimSnapshot`] of everything needed to resume this
    /// simulation byte-identically: the authoritative [`SimState`], the
    /// progression queues (partition-agnostic form), intervention
    /// trigger state, and the mid-run continuation. The frontier index
    /// (`ActiveSet`, neighbor counts) and occupancy are deliberately
    /// *not* captured — they are derived data, rebuilt from the restored
    /// state on resume. The RNG needs no state either: it is
    /// counter-based, keyed by `(seed, node, tick)`, so "RNG position"
    /// reduces to the tick the resume starts at.
    ///
    /// Interrupt protocol: run with `config.ticks = k`, snapshot, then
    /// [`Simulation::resume_with_context`] with `config.ticks = T`
    /// continues k..T.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            meta: SnapshotMeta {
                version: SNAPSHOT_VERSION,
                next_tick: self.start_tick,
                seed: self.config.seed,
                n_nodes: self.ctx.net.n_nodes as u64,
                n_states: self.model.n_states() as u32,
                record_transitions: self.config.record_transitions,
            },
            state: self.state.clone(),
            queues: self.buckets.export_entries(),
            interventions: self.interventions.snapshot_states(),
            carry: self.carry.clone(),
        }
    }

    /// Rebuild a simulation from a snapshot against a shared
    /// [`SimContext`] — a preempted replicate resumes without rebuilding
    /// the network the rest of the ensemble is already sharing. The
    /// caller supplies the same context contents, model and intervention
    /// stack the snapshot was taken with (snapshots index into them;
    /// they are static inputs, not state) — plus the config for the
    /// continued run, which may change `ticks`, `n_partitions`, and
    /// `saturation_threshold` freely without perturbing the epidemic
    /// (a different partition count needs a context built for it).
    /// Mismatches that would silently corrupt the resume (a context
    /// partitioned differently from `config`; a different seed, node
    /// count, state count, edge count, or intervention stack; queued
    /// nodes and health states out of range) are rejected with
    /// [`SnapshotError::Mismatch`].
    pub fn resume_with_context(
        ctx: Arc<SimContext>,
        model: DiseaseModel,
        mut interventions: InterventionSet,
        config: SimConfig,
        snapshot: &SimSnapshot,
    ) -> Result<Self, SnapshotError> {
        let check =
            |ok: bool, what: String| if ok { Ok(()) } else { Err(SnapshotError::Mismatch(what)) };
        check_partitioning(&ctx, &config).map_err(SnapshotError::Mismatch)?;
        let meta = &snapshot.meta;
        if meta.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(meta.version));
        }
        check(
            meta.seed == config.seed,
            format!("seed: snapshot {} vs config {}", meta.seed, config.seed),
        )?;
        check(
            meta.n_nodes == ctx.net.n_nodes as u64,
            format!("node count: snapshot {} vs network {}", meta.n_nodes, ctx.net.n_nodes),
        )?;
        check(
            meta.n_states == model.n_states() as u32,
            format!("state count: snapshot {} vs model {}", meta.n_states, model.n_states()),
        )?;
        check(
            snapshot.state.n_nodes() == ctx.net.n_nodes,
            format!(
                "state arrays cover {} nodes, network has {}",
                snapshot.state.n_nodes(),
                ctx.net.n_nodes
            ),
        )?;
        check(
            snapshot.state.n_edges() == ctx.net.n_undirected,
            format!(
                "edge bits cover {} edges, network has {}",
                snapshot.state.n_edges(),
                ctx.net.n_undirected
            ),
        )?;
        check(
            meta.next_tick <= config.ticks,
            format!("next tick {} is past the {}-tick horizon", meta.next_tick, config.ticks),
        )?;
        check(
            meta.record_transitions == config.record_transitions,
            "record_transitions differs between snapshot and config".to_string(),
        )?;

        check(
            snapshot
                .queues
                .iter()
                .flat_map(|(_, nodes)| nodes)
                .all(|&v| u64::from(v) < meta.n_nodes),
            "a progression queue names a node outside the network".to_string(),
        )?;
        let n_states = model.n_states();
        check(
            snapshot
                .state
                .health
                .iter()
                .chain(&snapshot.state.next_state)
                .all(|&h| (h as usize) < n_states),
            format!("a health state is outside the model's {n_states} states"),
        )?;

        interventions.restore_states(&snapshot.interventions).map_err(SnapshotError::Mismatch)?;

        let mut sim = Self::assemble(ctx, model, snapshot.state.clone(), interventions, config);
        for (tick, nodes) in &snapshot.queues {
            for &v in nodes {
                sim.buckets.push(sim.ctx.part_of[v as usize] as usize, *tick, v);
            }
        }
        sim.start_tick = meta.next_tick;
        sim.carry = snapshot.carry.clone();
        Ok(sim)
    }
}

/// `Err` names the mismatch when `config` requests a partitioning other
/// than the one `ctx` was built with.
fn check_partitioning(ctx: &SimContext, config: &SimConfig) -> Result<(), String> {
    if (ctx.n_partitions, ctx.epsilon) == (config.n_partitions, config.epsilon) {
        return Ok(());
    }
    Err(format!(
        "context partitioned for {}/ε={}, config requests {}/ε={}",
        ctx.n_partitions, ctx.epsilon, config.n_partitions, config.epsilon
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disease::sir_model;
    use crate::interventions::{Intervention, InterventionSet};
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::ActivityType;

    fn dense_network(n: u32) -> ContactNetwork {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push(ContactEdge {
                    u,
                    v,
                    start: 480,
                    duration: 480,
                    ctx_u: ActivityType::Work,
                    ctx_v: ActivityType::Work,
                    weight: 1.0,
                });
            }
        }
        ContactNetwork { n_nodes: n as usize, edges }
    }

    /// A context for `net` (age group 2, county 0 everywhere),
    /// partitioned as `cfg` requests.
    fn context_for(net: &ContactNetwork, cfg: &SimConfig) -> Arc<SimContext> {
        let n = net.n_nodes;
        Arc::new(SimContext::build(net, vec![2; n], vec![0; n], cfg.n_partitions, cfg.epsilon))
    }

    /// A simulation on its own freshly built context.
    fn sim_with(
        net: &ContactNetwork,
        model: DiseaseModel,
        interventions: InterventionSet,
        cfg: SimConfig,
    ) -> Simulation {
        Simulation::new_with_context(context_for(net, &cfg), model, interventions, cfg)
    }

    fn sim_on(net: &ContactNetwork, beta: f64, cfg: SimConfig) -> Simulation {
        sim_with(net, sir_model(beta, 5.0), InterventionSet::default(), cfg)
    }

    /// Saturation thresholds θ the scan-order tests compare: the
    /// full-sweep oracle, the default switch, and frontier-only.
    const FULL_SWEEP: f64 = 0.0;
    const NEVER_SWEEP: f64 = 2.0;

    /// The frontier scan (default θ and θ > 1) must agree byte-for-byte
    /// with the full sweep (θ = 0) on every output series, across
    /// partition counts.
    fn assert_modes_equal(net: &ContactNetwork, beta: f64, base: SimConfig) {
        for parts in [1usize, 4, 13] {
            let cfg = SimConfig { n_partitions: parts, ..base.clone() };
            let rf =
                sim_on(net, beta, SimConfig { saturation_threshold: FULL_SWEEP, ..cfg.clone() })
                    .run();
            for theta in [0.75, NEVER_SWEEP] {
                let fr =
                    sim_on(net, beta, SimConfig { saturation_threshold: theta, ..cfg.clone() })
                        .run();
                assert_eq!(
                    fr.output.transitions, rf.output.transitions,
                    "transition logs diverge at {parts} partitions, θ = {theta}"
                );
                assert_eq!(fr.output.new_counts, rf.output.new_counts);
                assert_eq!(fr.output.current_counts, rf.output.current_counts);
                assert_eq!(fr.output.county_new, rf.output.county_new);
                assert_eq!(fr.output.memory_bytes, rf.output.memory_bytes);
            }
        }
    }

    #[test]
    fn epidemic_spreads_in_dense_network() {
        let net = dense_network(60);
        let cfg = SimConfig { ticks: 60, initial_infections: 3, ..Default::default() };
        let res = sim_on(&net, 2.0, cfg.clone()).run();
        let recovered = res.output.cumulative(2);
        assert!(
            *recovered.last().unwrap() > 40,
            "most of a dense network should get infected, got {:?}",
            recovered.last()
        );
        assert!(res.output.total_infections() > 40);
        // Every infected person is in the log once: a tick-0 seed (no
        // cause) or a transmission.
        let infected: std::collections::HashSet<u32> =
            res.output.transitions.iter().map(|t| t.person).collect();
        assert_eq!(res.output.seeded as usize + res.output.total_infections(), infected.len());
        // Without the transition log the same epidemic has no caused
        // records to count.
        let unlogged = sim_on(&net, 2.0, SimConfig { record_transitions: false, ..cfg }).run();
        assert_eq!(unlogged.output.cumulative(2), recovered);
        assert_eq!(unlogged.output.total_infections(), 0);
    }

    #[test]
    fn zero_transmissibility_means_no_spread() {
        let net = dense_network(40);
        let mut sim =
            sim_on(&net, 0.0, SimConfig { ticks: 40, initial_infections: 3, ..Default::default() });
        let res = sim.run();
        assert_eq!(res.output.total_infections(), 0);
        // Seeds still progress to R.
        assert_eq!(*res.output.cumulative(2).last().unwrap(), 3);
    }

    #[test]
    fn deterministic_across_partition_counts() {
        // The headline property: same seed ⇒ identical transitions, no
        // matter how many partitions/threads execute the scan.
        let net = dense_network(50);
        let base = SimConfig { ticks: 40, seed: 99, initial_infections: 4, ..Default::default() };
        let run = |parts: usize| {
            let mut sim = sim_on(&net, 1.5, SimConfig { n_partitions: parts, ..base.clone() });
            sim.run().output.transitions
        };
        let a = run(1);
        let b = run(4);
        let c = run(13);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn frontier_equals_reference_dense() {
        let net = dense_network(50);
        assert_modes_equal(
            &net,
            1.5,
            SimConfig { ticks: 40, seed: 99, initial_infections: 4, ..Default::default() },
        );
    }

    #[test]
    fn frontier_equals_reference_sparse_ring() {
        // Ring with chords: long low-occupancy epidemic tail.
        let n = 400u32;
        let mut edges: Vec<ContactEdge> = (0..n)
            .map(|i| ContactEdge {
                u: i,
                v: (i + 1) % n,
                start: 0,
                duration: 600,
                ctx_u: ActivityType::Home,
                ctx_v: ActivityType::Home,
                weight: 1.0,
            })
            .collect();
        for i in (0..n).step_by(17) {
            edges.push(ContactEdge {
                u: i,
                v: (i + n / 2) % n,
                start: 0,
                duration: 300,
                ctx_u: ActivityType::Work,
                ctx_v: ActivityType::Work,
                weight: 0.7,
            });
        }
        let net = ContactNetwork { n_nodes: n as usize, edges };
        assert_modes_equal(
            &net,
            2.5,
            SimConfig { ticks: 80, seed: 7, initial_infections: 2, ..Default::default() },
        );
    }

    #[test]
    fn frontier_equals_reference_disconnected() {
        // Two cliques plus isolated nodes; frontier never reaches the
        // far component unless a seed lands there.
        let mut edges = Vec::new();
        for base in [0u32, 12] {
            for u in 0..10u32 {
                for v in (u + 1)..10 {
                    edges.push(ContactEdge {
                        u: base + u,
                        v: base + v,
                        start: 0,
                        duration: 480,
                        ctx_u: ActivityType::Work,
                        ctx_v: ActivityType::Work,
                        weight: 1.0,
                    });
                }
            }
        }
        let net = ContactNetwork { n_nodes: 25, edges };
        for seed in [1u64, 5, 9] {
            assert_modes_equal(
                &net,
                2.0,
                SimConfig { ticks: 50, seed, initial_infections: 3, ..Default::default() },
            );
        }
    }

    #[test]
    fn frontier_equals_reference_under_interventions() {
        // Edge flips and scale changes mid-run must not strand frontier
        // nodes: disabling the only infectious contact and re-enabling
        // it later has to produce the same infections in both scan
        // orders.
        struct Flipper;
        impl Intervention for Flipper {
            fn name(&self) -> &str {
                "flipper"
            }
            fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
                match ctx.tick {
                    3 => {
                        // Disable a band of edges and mute a band of nodes.
                        for e in 0..200u32 {
                            ctx.state.set_edge_enabled(e, false);
                        }
                        for v in 0..20u32 {
                            ctx.state.infectivity_scale[v as usize] = 0.0;
                            ctx.state.susceptibility_scale[v as usize] = 0.0;
                        }
                    }
                    9 => {
                        for e in 0..200u32 {
                            ctx.state.set_edge_enabled(e, true);
                        }
                        for v in 0..20u32 {
                            ctx.state.infectivity_scale[v as usize] = 1.0;
                            ctx.state.susceptibility_scale[v as usize] = 1.0;
                        }
                    }
                    _ => {}
                }
            }
        }
        let net = dense_network(40);
        let mk = |theta| {
            let mut sim = sim_with(
                &net,
                sir_model(1.8, 5.0),
                InterventionSet::new().with(Box::new(Flipper)),
                SimConfig {
                    ticks: 50,
                    seed: 21,
                    initial_infections: 3,
                    saturation_threshold: theta,
                    ..Default::default()
                },
            );
            sim.run().output
        };
        let fr = mk(NEVER_SWEEP);
        let rf = mk(FULL_SWEEP);
        assert_eq!(fr.transitions, rf.transitions);
        assert_eq!(fr.current_counts, rf.current_counts);
        assert!(fr.total_infections() > 0, "epidemic should restart after re-enable");
    }

    #[test]
    fn external_health_writes_rebuild_frontier() {
        // An intervention teleporting nodes into the infectious state
        // via SimState::set_health must infect their neighbors in both
        // scan orders (the epoch check rebuilds the frontier index).
        struct Teleport;
        impl Intervention for Teleport {
            fn name(&self) -> &str {
                "teleport"
            }
            fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
                if ctx.tick == 5 {
                    for v in 30..34u32 {
                        ctx.state.set_health(v, 1); // I in the SIR model
                    }
                }
            }
        }
        let net = dense_network(40);
        let mk = |theta| {
            let mut sim = sim_with(
                &net,
                sir_model(1.5, 5.0),
                InterventionSet::new().with(Box::new(Teleport)),
                SimConfig {
                    ticks: 30,
                    seed: 3,
                    initial_infections: 0,
                    saturation_threshold: theta,
                    ..Default::default()
                },
            );
            sim.run().output
        };
        let fr = mk(NEVER_SWEEP);
        let rf = mk(FULL_SWEEP);
        assert_eq!(fr.transitions, rf.transitions);
        assert_eq!(fr.current_counts, rf.current_counts);
        assert!(
            fr.total_infections() > 0,
            "teleported infectious nodes must infect their neighbors"
        );
    }

    #[test]
    fn seeding_shortfall_is_recorded() {
        // Pre-infect most of the population so the seeding loop cannot
        // find enough susceptible nodes and its guard bound trips.
        let net = dense_network(6);
        let mut sim =
            sim_on(&net, 0.0, SimConfig { ticks: 2, initial_infections: 6, ..Default::default() });
        for v in 0..5u32 {
            sim.state.set_health(v, 2); // recovered: not seedable
        }
        let res = sim.run();
        assert_eq!(res.output.requested_seeds, 6);
        assert_eq!(res.output.seeded, 1);
        assert_eq!(res.output.seed_shortfall(), 5);
    }

    #[test]
    fn stats_show_frontier_savings() {
        // β = 0: seeds recover without spreading, so susceptible nodes
        // remain for the full sweep to keep visiting after the frontier
        // has emptied.
        let net = dense_network(50);
        let base = SimConfig { ticks: 40, seed: 99, initial_infections: 4, ..Default::default() };
        let fr = sim_on(&net, 0.0, base.clone()).run();
        let rf = sim_on(&net, 0.0, SimConfig { saturation_threshold: FULL_SWEEP, ..base }).run();
        assert_eq!(fr.output, rf.output);
        assert_eq!(fr.stats.frontier_nodes.len(), 40);
        assert_eq!(fr.stats.edges_scanned.len(), 40);
        assert!(
            fr.stats.total_edges_scanned() < rf.stats.total_edges_scanned(),
            "the default threshold should beat the full sweep here"
        );
        // Once the epidemic dies out the frontier empties; the full
        // sweep keeps paying for every susceptible node.
        assert_eq!(*fr.stats.edges_scanned.last().unwrap(), 0);
        assert!(*rf.stats.edges_scanned.last().unwrap() > 0);
        let occ = fr.stats.mean_frontier_occupancy(net.n_nodes);
        assert!((0.0..=1.0).contains(&occ));
    }

    #[test]
    fn far_future_progressions_do_not_leak() {
        // A progression scheduled beyond the horizon stays queued and
        // harmless; queued() reflects it.
        let net = dense_network(10);
        let mut sim =
            sim_on(&net, 0.0, SimConfig { ticks: 3, initial_infections: 2, ..Default::default() });
        sim.run();
        // SIR dwell is ~5 days; with 3 ticks the I→R exits are pending.
        assert!(sim.buckets.queued() > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let net = dense_network(50);
        let mk = |seed| {
            let mut sim = sim_on(
                &net,
                1.5,
                SimConfig { ticks: 40, seed, initial_infections: 4, ..Default::default() },
            );
            sim.run().output.transitions
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn occupancy_conserves_population() {
        let net = dense_network(30);
        let mut sim = sim_on(&net, 1.0, SimConfig { ticks: 30, ..Default::default() });
        let res = sim.run();
        for row in &res.output.current_counts {
            let total: u32 = row.iter().sum();
            assert_eq!(total, 30);
        }
    }

    #[test]
    fn transmission_has_cause_progression_does_not() {
        let net = dense_network(40);
        let mut sim =
            sim_on(&net, 2.0, SimConfig { ticks: 40, initial_infections: 2, ..Default::default() });
        let res = sim.run();
        for tr in &res.output.transitions {
            match tr.state {
                1 if tr.tick > 0 => {
                    assert!(tr.cause.is_some(), "infection without cause: {tr:?}");
                }
                2 => assert!(tr.cause.is_none(), "progression with cause: {tr:?}"),
                _ => {}
            }
        }
    }

    #[test]
    fn infector_is_an_actual_neighbor() {
        let net = dense_network(30);
        let mut sim = sim_on(&net, 2.0, SimConfig { ticks: 30, ..Default::default() });
        let rt = RuntimeNet::build(&net);
        let res = sim.run();
        for tr in res.output.transitions.iter().filter(|t| t.cause.is_some()) {
            let cause = tr.cause.unwrap();
            assert!(
                rt.in_edges(tr.person).iter().any(|e| e.neighbor == cause),
                "cause {cause} is not a neighbor of {}",
                tr.person
            );
        }
    }

    #[test]
    fn isolated_node_in_disconnected_network_never_infected() {
        // Two disconnected cliques; seed deterministically lands
        // somewhere, infection must stay within components reachable
        // from seeds.
        let mut edges = Vec::new();
        for u in 0..10u32 {
            for v in (u + 1)..10 {
                edges.push(ContactEdge {
                    u,
                    v,
                    start: 0,
                    duration: 600,
                    ctx_u: ActivityType::Work,
                    ctx_v: ActivityType::Work,
                    weight: 1.0,
                });
            }
        }
        // Node 10 is isolated.
        let net = ContactNetwork { n_nodes: 11, edges };
        let mut sim = sim_on(
            &net,
            3.0,
            SimConfig { ticks: 60, seed: 5, initial_infections: 2, ..Default::default() },
        );
        let res = sim.run();
        let infected_10 =
            res.output.transitions.iter().any(|t| t.person == 10 && t.cause.is_some());
        assert!(!infected_10, "isolated node cannot be infected by contact");
    }

    #[test]
    fn counter_rng_streams_are_independent() {
        let a: Vec<u64> = {
            let mut r = CounterRng::new(7, 1, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = CounterRng::new(7, 2, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = CounterRng::new(7, 1, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And reproducible.
        let a2: Vec<u64> = {
            let mut r = CounterRng::new(7, 1, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2);
    }

    #[test]
    fn counter_rng_uniformity_smoke() {
        let mut r = CounterRng::new(123, 0, 0);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.random_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut r = CounterRng::new(1, 0, 0);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn runtime_net_structure() {
        let net = dense_network(5);
        let rt = RuntimeNet::build(&net);
        assert_eq!(rt.n_nodes, 5);
        assert_eq!(rt.n_undirected, 10);
        for v in 0..5u32 {
            assert_eq!(rt.in_edges(v).len(), 4);
            for e in rt.in_edges(v) {
                assert_ne!(e.neighbor, v);
                assert!((e.duration_frac - 1.0 / 3.0).abs() < 1e-6);
                // tw is the exact f64 product of the f32 factors.
                assert_eq!(e.tw, e.duration_frac as f64 * e.weight as f64);
            }
        }
    }

    #[test]
    fn memory_series_recorded_every_tick() {
        let net = dense_network(20);
        let mut sim = sim_on(&net, 1.0, SimConfig { ticks: 25, ..Default::default() });
        let res = sim.run();
        assert_eq!(res.output.memory_bytes.len(), 25);
        assert!(res.output.memory_bytes[0] > 0);
    }

    #[test]
    fn seeding_more_than_population_caps() {
        let net = dense_network(5);
        let mut sim =
            sim_on(&net, 0.0, SimConfig { ticks: 3, initial_infections: 50, ..Default::default() });
        let res = sim.run();
        let seeds = res.output.transitions.iter().filter(|t| t.tick == 0).count();
        assert_eq!(seeds, 5);
        assert_eq!(res.output.requested_seeds, 5);
        assert_eq!(res.output.seeded, 5);
        assert_eq!(res.output.seed_shortfall(), 0);
    }

    /// Resume a snapshot of `sim` (round-tripped through the wire
    /// format) against the same network, under `cfg`.
    fn resume_sim(net: &ContactNetwork, beta: f64, cfg: SimConfig, sim: &Simulation) -> Simulation {
        let snap = crate::checkpoint::SimSnapshot::decode(&sim.snapshot().encode())
            .expect("snapshot survives encode/decode");
        Simulation::resume_with_context(
            context_for(net, &cfg),
            sir_model(beta, 5.0),
            InterventionSet::default(),
            cfg,
            &snap,
        )
        .expect("snapshot matches the simulation it came from")
    }

    /// The golden invariant: interrupt at any tick, snapshot, resume —
    /// the completed run is byte-identical to the uninterrupted one,
    /// even when the resumed run uses a different partition count.
    #[test]
    fn ckpt_interrupt_resume_byte_identical() {
        let net = dense_network(50);
        for saturation_threshold in [0.75, FULL_SWEEP] {
            let base = SimConfig {
                ticks: 40,
                seed: 99,
                initial_infections: 4,
                saturation_threshold,
                ..Default::default()
            };
            let baseline = sim_on(&net, 1.5, base.clone()).run();
            for k in [0u32, 1, 17, 39, 40] {
                let mut interrupted =
                    sim_on(&net, 1.5, SimConfig { ticks: k, n_partitions: 4, ..base.clone() });
                interrupted.run();
                let mut resumed = resume_sim(
                    &net,
                    1.5,
                    SimConfig { n_partitions: 13, ..base.clone() },
                    &interrupted,
                );
                let res = resumed.run();
                assert_eq!(res.output, baseline.output, "interrupt at {k} diverged");
                assert_eq!(res.stats, baseline.stats, "stats diverged at {k}");
                assert_eq!(res.ticks_run, baseline.ticks_run);
            }
        }
    }

    /// Resuming under the *other* scan order still reproduces the same
    /// epidemic (the snapshot is threshold-agnostic).
    #[test]
    fn ckpt_resume_across_scan_modes() {
        let net = dense_network(40);
        let base = SimConfig { ticks: 30, seed: 7, initial_infections: 3, ..Default::default() };
        let baseline = sim_on(&net, 1.2, base.clone()).run();
        let mut interrupted = sim_on(
            &net,
            1.2,
            SimConfig { ticks: 11, saturation_threshold: NEVER_SWEEP, ..base.clone() },
        );
        interrupted.run();
        let mut resumed = resume_sim(
            &net,
            1.2,
            SimConfig { saturation_threshold: FULL_SWEEP, ..base },
            &interrupted,
        );
        assert_eq!(resumed.run().output, baseline.output);
    }

    /// After restore, the rebuilt frontier (active set + per-node
    /// infectious-neighbor counts) must equal the live frontier of the
    /// interrupted simulation — exercised on a dense, saturated network
    /// where nearly every node is on the frontier.
    #[test]
    fn ckpt_rebuilt_frontier_matches_live_frontier() {
        let net = dense_network(60);
        let base = SimConfig { ticks: 40, seed: 3, initial_infections: 3, ..Default::default() };
        let mut interrupted = sim_on(&net, 2.0, SimConfig { ticks: 4, ..base.clone() });
        interrupted.run();
        let resumed = resume_sim(&net, 2.0, base, &interrupted);
        assert_eq!(resumed.inf_nbr_count, interrupted.inf_nbr_count);
        assert!(!resumed.active.is_empty(), "saturated net must have a non-empty frontier");
        assert_eq!(resumed.active.len(), interrupted.active.len());
        for v in 0..net.n_nodes as u32 {
            assert_eq!(resumed.active.contains(v), interrupted.active.contains(v));
        }
        assert_eq!(resumed.buckets.queued(), interrupted.buckets.queued());
    }

    /// Resume refuses snapshots that don't belong to this simulation.
    #[test]
    fn ckpt_resume_rejects_mismatches() {
        use crate::checkpoint::SnapshotError;
        let net = dense_network(20);
        let base = SimConfig { ticks: 20, seed: 5, initial_infections: 2, ..Default::default() };
        let mut sim = sim_on(&net, 1.0, SimConfig { ticks: 8, ..base.clone() });
        sim.run();
        let snap = sim.snapshot();
        let try_resume = |net: &ContactNetwork, cfg: SimConfig, snap: &SimSnapshot| {
            Simulation::resume_with_context(
                context_for(net, &cfg),
                sir_model(1.0, 5.0),
                InterventionSet::default(),
                cfg,
                snap,
            )
        };
        // Wrong seed.
        let r = try_resume(&net, SimConfig { seed: 6, ..base.clone() }, &snap);
        assert!(matches!(r, Err(SnapshotError::Mismatch(_))), "wrong seed accepted");
        // Wrong network size.
        let other = dense_network(21);
        let r = try_resume(&other, base.clone(), &snap);
        assert!(matches!(r, Err(SnapshotError::Mismatch(_))), "wrong network accepted");
        // Horizon behind the snapshot.
        let r = try_resume(&net, SimConfig { ticks: 5, ..base.clone() }, &snap);
        assert!(matches!(r, Err(SnapshotError::Mismatch(_))), "past horizon accepted");
        // Wrong format version.
        let mut versioned = snap.clone();
        versioned.meta.version = SNAPSHOT_VERSION + 1;
        let r = try_resume(&net, base.clone(), &versioned);
        assert!(matches!(r, Err(SnapshotError::Version(_))), "future version accepted");
        // The unmodified snapshot is accepted.
        assert!(try_resume(&net, base, &snap).is_ok());
    }

    /// A well-formed snapshot whose queue or health values index past
    /// the network or the model is refused, not left to panic mid-run.
    #[test]
    fn ckpt_resume_rejects_out_of_range_indices() {
        let net = dense_network(20);
        let base = SimConfig { ticks: 20, seed: 5, initial_infections: 2, ..Default::default() };
        let mut sim = sim_on(&net, 1.0, SimConfig { ticks: 8, ..base.clone() });
        sim.run();
        let snap = sim.snapshot();
        let ctx = context_for(&net, &base);
        let try_resume = |snap: &SimSnapshot| {
            Simulation::resume_with_context(
                ctx.clone(),
                sir_model(1.0, 5.0),
                InterventionSet::default(),
                base.clone(),
                snap,
            )
            .map(|_| ())
        };
        let mut far_node = snap.clone();
        far_node.queues.push((12, vec![20]));
        assert!(matches!(try_resume(&far_node), Err(SnapshotError::Mismatch(_))));
        let mut bad_health = snap.clone();
        bad_health.state.health[3] = 3; // SIR has states 0..3
        assert!(matches!(try_resume(&bad_health), Err(SnapshotError::Mismatch(_))));
        let mut bad_next = snap.clone();
        bad_next.state.next_state[0] = u16::MAX;
        assert!(matches!(try_resume(&bad_next), Err(SnapshotError::Mismatch(_))));
        assert_eq!(try_resume(&snap), Ok(()));
    }

    /// A context shared across replicates must give byte-identical
    /// results to a context built afresh for each run, on every output
    /// series.
    #[test]
    fn shared_context_byte_identical_to_fresh_build() {
        let net = dense_network(50);
        for parts in [1usize, 4, 13] {
            let cfg =
                |seed| SimConfig { ticks: 40, seed, n_partitions: parts, ..Default::default() };
            let ctx = context_for(&net, &cfg(0));
            for seed in [1u64, 9, 42] {
                let fresh = sim_on(&net, 1.5, cfg(seed)).run();
                let mut shared = Simulation::new_with_context(
                    ctx.clone(),
                    sir_model(1.5, 5.0),
                    InterventionSet::default(),
                    cfg(seed),
                );
                let res = shared.run();
                assert_eq!(res.output, fresh.output, "seed {seed} / {parts} partitions");
                assert_eq!(res.stats, fresh.stats, "stats diverge at seed {seed}");
            }
        }
    }

    /// A second `run()` on a finished simulation runs no ticks and
    /// replays the parked continuation: same output, same stats.
    #[test]
    fn repeated_run_replays_the_same_result() {
        let net = dense_network(50);
        for parts in [1usize, 4] {
            let cfg = SimConfig { ticks: 40, seed: 7, n_partitions: parts, ..Default::default() };
            let mut sim = sim_on(&net, 1.5, cfg);
            let first = sim.run();
            assert!(first.stats.events.iter().sum::<u32>() > 0, "the epidemic must spread");
            let second = sim.run();
            assert_eq!(second.output, first.output, "{parts} partitions");
            assert_eq!(second.stats, first.stats, "{parts} partitions");
            assert_eq!(second.ticks_run, first.ticks_run);
        }
    }

    /// Config requesting a partitioning the context was not built for
    /// is a programming error, not a silent divergence.
    #[test]
    #[should_panic(expected = "context partitioned for")]
    fn context_partition_mismatch_panics() {
        let net = dense_network(10);
        let ctx = Arc::new(SimContext::build(&net, vec![2; 10], vec![0; 10], 4, 16));
        let _ = Simulation::new_with_context(
            ctx,
            sir_model(1.0, 5.0),
            InterventionSet::default(),
            SimConfig { n_partitions: 8, ..Default::default() },
        );
    }

    /// Unlike `new_with_context`, the fallible resume path reports a
    /// context/config partitioning mismatch as a typed error.
    #[test]
    fn ckpt_resume_with_mismatched_context_is_an_error() {
        let net = dense_network(10);
        let config = SimConfig { ticks: 10, n_partitions: 4, ..Default::default() };
        let mut sim = sim_on(&net, 1.5, SimConfig { ticks: 5, ..config.clone() });
        sim.run();
        let snapshot = sim.snapshot();
        let ctx = Arc::new(SimContext::build(&net, vec![2; 10], vec![0; 10], 8, 16));
        let err = Simulation::resume_with_context(
            ctx,
            sir_model(1.5, 5.0),
            InterventionSet::default(),
            config,
            &snapshot,
        )
        .err()
        .expect("mismatched partitioning must be rejected");
        assert!(
            matches!(&err, SnapshotError::Mismatch(why) if why.contains("context partitioned for")),
            "{err}"
        );
    }

    /// snapshot()/resume() round-trips through a shared context: the
    /// interrupted context-backed replicate resumes on the *same* Arc
    /// and completes byte-identically to the uninterrupted fresh run.
    #[test]
    fn ckpt_round_trip_through_shared_context() {
        let net = dense_network(50);
        let base = SimConfig { ticks: 40, seed: 99, initial_infections: 4, ..Default::default() };
        let baseline = sim_on(&net, 1.5, base.clone()).run();
        let ctx = context_for(&net, &base);
        for k in [0u32, 1, 17, 39, 40] {
            let mut interrupted = Simulation::new_with_context(
                ctx.clone(),
                sir_model(1.5, 5.0),
                InterventionSet::default(),
                SimConfig { ticks: k, ..base.clone() },
            );
            interrupted.run();
            let snap = crate::checkpoint::SimSnapshot::decode(&interrupted.snapshot().encode())
                .expect("snapshot survives encode/decode");
            let mut resumed = Simulation::resume_with_context(
                ctx.clone(),
                sir_model(1.5, 5.0),
                InterventionSet::default(),
                base.clone(),
                &snap,
            )
            .expect("snapshot matches the context it came from");
            let res = resumed.run();
            assert_eq!(res.output, baseline.output, "interrupt at {k} diverged");
            assert_eq!(res.stats, baseline.stats, "stats diverged at {k}");
        }
    }
}

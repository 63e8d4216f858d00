//! Interventions: external modifications of the simulation state
//! (paper Appendix D).
//!
//! An intervention comprises a **trigger** (a predicate over the system
//! state) and an **action ensemble** (operations over a target set of
//! nodes or edges, optionally sampled and optionally delayed). This
//! module provides:
//!
//! * the [`Intervention`] trait and [`InterventionSet`] container the
//!   engine executes at the start of every tick;
//! * [`GenericIntervention`] — a serializable trigger/action-ensemble
//!   implementation mirroring the paper's JSON-configured interventions;
//! * the paper's eight named interventions (§VI, Fig. 7 bottom):
//!   **VHI** (voluntary home isolation), **SC** (school closure),
//!   **SH** (stay-at-home), **RO** (partial reopening), **TA** (test &
//!   isolate asymptomatic), **PS** (pulsing shutdown), **D1CT** and
//!   **D2CT** (distance-1/2 contact tracing & isolation).
//!
//! Compliance is drawn deterministically from a hash of
//! (seed, salt, node), so intervention membership does not perturb the
//! engine's counter-based RNG streams.

use crate::disease::{DiseaseModel, StateId};
use crate::engine::RuntimeNet;
use crate::output::TransitionRecord;
use crate::state::{flags, SimState};
use epiflow_synthpop::ActivityType;
use serde::{Deserialize, Serialize};

/// Everything an intervention may read/write at tick start.
pub struct InterventionCtx<'a> {
    pub tick: u32,
    pub state: &'a mut SimState,
    pub net: &'a RuntimeNet,
    pub model: &'a DiseaseModel,
    /// Transitions applied during the previous tick (used by reactive
    /// interventions like VHI and contact tracing).
    pub recent: &'a [TransitionRecord],
    pub seed: u64,
}

/// Deterministic per-node uniform in [0, 1): hash of (seed, salt, node).
pub fn hash_prob(seed: u64, salt: u64, node: u32) -> f64 {
    let mut z = seed
        ^ salt.wrapping_mul(0xA24BAED4963EE407)
        ^ (node as u64).wrapping_mul(0x9FB21C651E98DF25);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// An intervention executed at the start of each tick.
pub trait Intervention: Send + Sync {
    /// Short name (for logs and runtime-cost reporting).
    fn name(&self) -> &str;
    /// Apply at the current tick.
    fn apply(&mut self, ctx: &mut InterventionCtx<'_>);
    /// Serialize mutable trigger state for a checkpoint. `None` (the
    /// default) declares the intervention stateless: its behaviour at
    /// tick `t` depends only on `(t, seed, SimState)`, all of which the
    /// snapshot already carries.
    fn snapshot_state(&self) -> Option<String> {
        None
    }
    /// Restore trigger state captured by [`Intervention::snapshot_state`].
    fn restore_state(&mut self, _state: &str) -> Result<(), String> {
        Ok(())
    }
}

/// An ordered set of interventions.
#[derive(Default)]
pub struct InterventionSet {
    items: Vec<Box<dyn Intervention>>,
}

impl InterventionSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an intervention (builder style).
    pub fn with(mut self, i: Box<dyn Intervention>) -> Self {
        self.items.push(i);
        self
    }

    /// Add an intervention.
    pub fn push(&mut self, i: Box<dyn Intervention>) {
        self.items.push(i);
    }

    /// Number of interventions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Names, in execution order.
    pub fn names(&self) -> Vec<&str> {
        self.items.iter().map(|i| i.name()).collect()
    }

    /// Execute all interventions in order.
    pub fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        for i in &mut self.items {
            i.apply(ctx);
        }
    }

    /// Capture each intervention's `(name, trigger state)` for a
    /// checkpoint, in execution order.
    pub fn snapshot_states(&self) -> Vec<(String, Option<String>)> {
        self.items.iter().map(|i| (i.name().to_string(), i.snapshot_state())).collect()
    }

    /// Restore trigger states captured by
    /// [`InterventionSet::snapshot_states`]. The caller must supply the
    /// same intervention stack the snapshot was taken with; count or
    /// name disagreements are rejected rather than silently misapplied.
    pub fn restore_states(&mut self, states: &[(String, Option<String>)]) -> Result<(), String> {
        if states.len() != self.items.len() {
            return Err(format!(
                "snapshot has {} intervention states, simulation has {} interventions",
                states.len(),
                self.items.len()
            ));
        }
        for (item, (name, state)) in self.items.iter_mut().zip(states) {
            if item.name() != name {
                return Err(format!(
                    "intervention order mismatch: snapshot has `{name}`, simulation has `{}`",
                    item.name()
                ));
            }
            if let Some(s) = state {
                item.restore_state(s)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Generic trigger / action-ensemble machinery (Appendix D architecture).
// ---------------------------------------------------------------------------

/// A predicate over the system state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Trigger {
    /// Fires every tick.
    Always,
    /// Fires exactly at `tick`.
    AtTick { tick: u32 },
    /// Fires while `from <= tick < to`.
    TickRange { from: u32, to: u32 },
    /// Fires when the count of nodes in `state` reaches `count`.
    StateCountAtLeast { state: StateId, count: usize },
    /// Fires when a user variable reaches `value`.
    VariableAtLeast { name: String, value: f64 },
    /// Conjunction.
    And { a: Box<Trigger>, b: Box<Trigger> },
    /// Disjunction.
    Or { a: Box<Trigger>, b: Box<Trigger> },
    /// Negation.
    Not { inner: Box<Trigger> },
}

impl Trigger {
    /// Evaluate against the current state.
    pub fn eval(&self, tick: u32, state: &SimState) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::AtTick { tick: t } => tick == *t,
            Trigger::TickRange { from, to } => tick >= *from && tick < *to,
            Trigger::StateCountAtLeast { state: s, count } => state.count_in(*s) >= *count,
            Trigger::VariableAtLeast { name, value } => state.variable(name) >= *value,
            Trigger::And { a, b } => a.eval(tick, state) && b.eval(tick, state),
            Trigger::Or { a, b } => a.eval(tick, state) || b.eval(tick, state),
            Trigger::Not { inner } => !inner.eval(tick, state),
        }
    }
}

/// The set of nodes an action ensemble operates on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Target {
    AllNodes,
    /// Nodes currently in a health state.
    NodesInState {
        state: StateId,
    },
    /// Nodes that *entered* a state last tick.
    NewlyInState {
        state: StateId,
    },
    /// A single node.
    Node {
        node: u32,
    },
}

/// One operation applied to each (sampled) target element or once
/// per firing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Operation {
    /// Home-isolate the target for `days`.
    Isolate { days: u32 },
    /// Set a node flag on the target.
    SetFlag { flag: u8 },
    /// Clear a node flag on the target.
    ClearFlag { flag: u8 },
    /// Scale the target's susceptibility (e.g. vaccination).
    ScaleSusceptibility { factor: f32 },
    /// Scale the target's infectivity (e.g. masking).
    ScaleInfectivity { factor: f32 },
    /// Force the target into a health state (e.g. importation or
    /// scenario what-ifs). Goes through [`SimState::set_health`] so the
    /// engine rebuilds its frontier index before the next scan.
    SetHealth { to: StateId },
    /// Close an activity context globally (once per firing).
    CloseContext { ctx: ActivityType },
    /// Reopen an activity context globally (once per firing).
    OpenContext { ctx: ActivityType },
    /// Set the global stay-home order (once per firing).
    SetStayHome { active: bool },
    /// Set a user variable (once per firing).
    SetVariable { name: String, value: f64 },
    /// Add to a user variable (once per firing).
    AddVariable { name: String, delta: f64 },
}

impl Operation {
    fn is_global(&self) -> bool {
        matches!(
            self,
            Operation::CloseContext { .. }
                | Operation::OpenContext { .. }
                | Operation::SetStayHome { .. }
                | Operation::SetVariable { .. }
                | Operation::AddVariable { .. }
        )
    }

    fn apply_to_node(&self, node: u32, tick: u32, state: &mut SimState) {
        match self {
            Operation::Isolate { days } => state.isolate(node, tick + days),
            Operation::SetFlag { flag } => state.set_flag(node, *flag),
            Operation::ClearFlag { flag } => state.clear_flag(node, *flag),
            Operation::ScaleSusceptibility { factor } => {
                state.susceptibility_scale[node as usize] *= factor;
                state.scheduled_changes += 1;
            }
            Operation::ScaleInfectivity { factor } => {
                state.infectivity_scale[node as usize] *= factor;
                state.scheduled_changes += 1;
            }
            Operation::SetHealth { to } => state.set_health(node, *to),
            _ => {}
        }
    }

    fn apply_global(&self, state: &mut SimState) {
        match self {
            Operation::CloseContext { ctx } => state.close_context(*ctx),
            Operation::OpenContext { ctx } => state.open_context(*ctx),
            Operation::SetStayHome { active } => {
                state.stay_home_active = *active;
                state.scheduled_changes += 1;
            }
            Operation::SetVariable { name, value } => state.set_variable(name, *value),
            Operation::AddVariable { name, delta } => {
                let v = state.variable(name);
                state.set_variable(name, v + delta);
            }
            _ => {}
        }
    }
}

/// A serializable trigger + action-ensemble intervention.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GenericIntervention {
    pub name: String,
    pub trigger: Trigger,
    pub target: Target,
    /// Sampling fraction of the target set (1.0 = every element).
    pub sample: f64,
    /// Operations; per-element unless the operation is global.
    pub operations: Vec<Operation>,
    /// Fire at most once.
    pub once: bool,
    /// Delay (ticks) between trigger and application.
    pub delay: u32,
    #[serde(default)]
    fired: bool,
    /// Pending delayed firings: ticks at which to apply.
    #[serde(default)]
    pending: Vec<u32>,
}

impl GenericIntervention {
    /// Convenience constructor with no sampling, no delay, repeatable.
    pub fn new(name: &str, trigger: Trigger, target: Target, operations: Vec<Operation>) -> Self {
        GenericIntervention {
            name: name.to_string(),
            trigger,
            target,
            sample: 1.0,
            operations,
            once: false,
            delay: 0,
            fired: false,
            pending: Vec::new(),
        }
    }

    fn collect_targets(&self, ctx: &InterventionCtx<'_>) -> Vec<u32> {
        match &self.target {
            Target::AllNodes => (0..ctx.state.n_nodes() as u32).collect(),
            Target::NodesInState { state } => (0..ctx.state.n_nodes() as u32)
                .filter(|&v| ctx.state.health[v as usize] == *state)
                .collect(),
            Target::NewlyInState { state } => {
                ctx.recent.iter().filter(|t| t.state == *state).map(|t| t.person).collect()
            }
            Target::Node { node } => vec![*node],
        }
    }

    fn fire(&self, ctx: &mut InterventionCtx<'_>) {
        let salt = self.name.bytes().fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
        let targets = self.collect_targets(ctx);
        for op in &self.operations {
            if op.is_global() {
                op.apply_global(ctx.state);
            } else {
                for &v in &targets {
                    if self.sample >= 1.0 || hash_prob(ctx.seed, salt, v) < self.sample {
                        op.apply_to_node(v, ctx.tick, ctx.state);
                    }
                }
            }
        }
    }
}

/// The mutable half of a [`GenericIntervention`] — what a checkpoint
/// must carry to resume `once`/`delay` semantics mid-run.
#[derive(Serialize, Deserialize)]
struct GenericTriggerState {
    fired: bool,
    pending: Vec<u32>,
}

impl Intervention for GenericIntervention {
    fn name(&self) -> &str {
        &self.name
    }

    fn snapshot_state(&self) -> Option<String> {
        let st = GenericTriggerState { fired: self.fired, pending: self.pending.clone() };
        Some(serde_json::to_string(&st).expect("trigger state serializes"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let st: GenericTriggerState = serde_json::from_str(state)
            .map_err(|e| format!("bad GenericIntervention state: {e}"))?;
        self.fired = st.fired;
        self.pending = st.pending;
        Ok(())
    }

    fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        // Apply any delayed firings scheduled for this tick.
        if !self.pending.is_empty() {
            let due: Vec<u32> = self.pending.iter().copied().filter(|&t| t <= ctx.tick).collect();
            self.pending.retain(|&t| t > ctx.tick);
            for _ in due {
                self.fire(ctx);
            }
        }
        if self.once && self.fired {
            return;
        }
        if self.trigger.eval(ctx.tick, ctx.state) {
            self.fired = true;
            if self.delay == 0 {
                self.fire(ctx);
            } else {
                self.pending.push(ctx.tick + self.delay);
                ctx.state.scheduled_changes += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The paper's named interventions.
// ---------------------------------------------------------------------------

/// SC — school closure: closes School and College contexts during
/// `[start, end)`. The paper's case study assumes 100% compliance
/// ("all schools, including colleges, are closed").
pub struct SchoolClosure {
    pub start: u32,
    pub end: u32,
}

impl Intervention for SchoolClosure {
    fn name(&self) -> &str {
        "SC"
    }

    fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        if ctx.tick == self.start {
            ctx.state.close_context(ActivityType::School);
            ctx.state.close_context(ActivityType::College);
        }
        if ctx.tick == self.end {
            ctx.state.open_context(ActivityType::School);
            ctx.state.open_context(ActivityType::College);
        }
    }
}

/// SH — stay-at-home order during `[start, end)` with the given
/// compliance rate: compliant nodes lose all non-home contacts.
pub struct StayAtHome {
    pub start: u32,
    pub end: u32,
    pub compliance: f64,
    initialized: bool,
}

impl StayAtHome {
    pub fn new(start: u32, end: u32, compliance: f64) -> Self {
        StayAtHome { start, end, compliance, initialized: false }
    }
}

impl Intervention for StayAtHome {
    fn name(&self) -> &str {
        "SH"
    }

    // `initialized` is load-bearing for resume: replaying the one-time
    // compliance sampling would re-run `set_flag` over the population
    // and bump `scheduled_changes`, diverging the memory-model series.
    fn snapshot_state(&self) -> Option<String> {
        Some(if self.initialized { "1" } else { "0" }.to_string())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        match state {
            "1" => self.initialized = true,
            "0" => self.initialized = false,
            other => return Err(format!("bad StayAtHome state `{other}`")),
        }
        Ok(())
    }

    fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        if !self.initialized {
            self.initialized = true;
            for v in 0..ctx.state.n_nodes() as u32 {
                if hash_prob(ctx.seed, 0x5348, v) < self.compliance {
                    ctx.state.set_flag(v, flags::SH_COMPLIANT);
                }
            }
        }
        if ctx.tick == self.start {
            ctx.state.stay_home_active = true;
            ctx.state.scheduled_changes += 1;
        }
        if ctx.tick == self.end {
            ctx.state.stay_home_active = false;
            ctx.state.scheduled_changes += 1;
        }
    }
}

/// VHI — voluntary home isolation: when a compliant node turns
/// symptomatic, it isolates at home for `duration` days.
pub struct VoluntaryHomeIsolation {
    pub symptomatic: StateId,
    pub compliance: f64,
    pub duration: u32,
}

impl Intervention for VoluntaryHomeIsolation {
    fn name(&self) -> &str {
        "VHI"
    }

    fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        for t in ctx.recent.iter().filter(|t| t.state == self.symptomatic) {
            if hash_prob(ctx.seed, 0x564849, t.person) < self.compliance {
                ctx.state.isolate(t.person, ctx.tick + self.duration);
            }
        }
    }
}

/// RO — partial reopening, extending SH: at `day`, the stay-home order
/// lifts but a `1 - level` fraction of formerly compliant nodes remain
/// restricted (holdouts), modeling partial return to activity.
pub struct PartialReopening {
    pub day: u32,
    /// Fraction of SH-compliant nodes released (0 = nobody, 1 = all).
    pub level: f64,
}

impl Intervention for PartialReopening {
    fn name(&self) -> &str {
        "RO"
    }

    fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        if ctx.tick != self.day {
            return;
        }
        ctx.state.stay_home_active = false;
        for v in 0..ctx.state.n_nodes() as u32 {
            if ctx.state.has_flag(v, flags::SH_COMPLIANT)
                && hash_prob(ctx.seed, 0x524F, v) >= self.level
            {
                ctx.state.set_flag(v, flags::HOLDOUT);
            }
        }
    }
}

/// TA — testing and isolating asymptomatic cases (extends VHI): each
/// tick, asymptomatic nodes are detected with probability `detection`
/// and isolated for `duration` days.
pub struct TestAndIsolate {
    pub asymptomatic: StateId,
    pub detection: f64,
    pub duration: u32,
    pub start: u32,
}

impl Intervention for TestAndIsolate {
    fn name(&self) -> &str {
        "TA"
    }

    fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        if ctx.tick < self.start {
            return;
        }
        for v in 0..ctx.state.n_nodes() as u32 {
            if ctx.state.health[v as usize] == self.asymptomatic
                && hash_prob(ctx.seed ^ ctx.tick as u64, 0x5441, v) < self.detection
            {
                ctx.state.isolate(v, ctx.tick + self.duration);
            }
        }
    }
}

/// PS — pulsing shutdown: repeatedly alternates stay-home (`on_days`)
/// and reopening (`off_days`) after `start`.
///
/// Compliance is re-sampled per pulse (people who complied with one
/// shutdown may not comply with the next), which is also where the
/// paper's observation that PS "significantly increases the running
/// time" comes from: every pulse boundary re-evaluates the whole
/// population's participation and schedules the corresponding system
/// state changes.
pub struct PulsingShutdown {
    pub start: u32,
    pub on_days: u32,
    pub off_days: u32,
    pub compliance: f64,
}

impl PulsingShutdown {
    pub fn new(start: u32, on_days: u32, off_days: u32, compliance: f64) -> Self {
        PulsingShutdown { start, on_days, off_days, compliance }
    }
}

impl Intervention for PulsingShutdown {
    fn name(&self) -> &str {
        "PS"
    }

    fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        if ctx.tick < self.start {
            return;
        }
        // In u64 so long pulses cannot overflow; a zero-length period
        // (the fields are public, so a caller can build one) acts like
        // `off_days = 1`, which, with `on_days = 0`, never closes anything.
        let period = (u64::from(self.on_days) + u64::from(self.off_days)).max(1);
        let offset = u64::from(ctx.tick - self.start);
        let phase = offset % period;
        let pulse = offset / period;
        if phase == 0 {
            // Pulse begins: re-sample compliance for this pulse.
            for v in 0..ctx.state.n_nodes() as u32 {
                if hash_prob(ctx.seed ^ pulse << 32, 0x5053, v) < self.compliance {
                    ctx.state.set_flag(v, flags::SH_COMPLIANT);
                } else {
                    ctx.state.clear_flag(v, flags::SH_COMPLIANT);
                }
            }
        }
        let want = phase < u64::from(self.on_days);
        if ctx.state.stay_home_active != want {
            ctx.state.stay_home_active = want;
            ctx.state.scheduled_changes += 1;
        }
    }
}

/// D1CT / D2CT — distance-1 (and optionally distance-2) contact tracing
/// and isolation.
///
/// Every tick, each currently symptomatic node is detected with
/// probability `detection`; detected cases and their contacts (and
/// contacts-of-contacts for D2CT) isolate with probability
/// `compliance`. The per-tick target-set construction traverses the
/// 1-hop (or 2-hop) neighborhood of every active case — the "affects
/// many more nodes and edges" cost that makes the paper's D2CT runs
/// ≈ 3–4× the base case.
pub struct ContactTracing {
    pub symptomatic: StateId,
    pub detection: f64,
    pub compliance: f64,
    pub duration: u32,
    /// 1 = D1CT, 2 = D2CT.
    pub distance: u8,
}

impl Intervention for ContactTracing {
    fn name(&self) -> &str {
        if self.distance >= 2 {
            "D2CT"
        } else {
            "D1CT"
        }
    }

    fn apply(&mut self, ctx: &mut InterventionCtx<'_>) {
        let mut to_isolate: Vec<u32> = Vec::new();
        for v in 0..ctx.state.n_nodes() as u32 {
            if ctx.state.health[v as usize] != self.symptomatic {
                continue;
            }
            if hash_prob(ctx.seed ^ ctx.tick as u64, 0x4354, v) >= self.detection {
                continue;
            }
            // The index case isolates too.
            to_isolate.push(v);
            for e in ctx.net.in_edges(v) {
                if hash_prob(ctx.seed ^ ctx.tick as u64, 0x435431, e.neighbor) < self.compliance {
                    to_isolate.push(e.neighbor);
                }
                if self.distance >= 2 {
                    for e2 in ctx.net.in_edges(e.neighbor) {
                        if hash_prob(ctx.seed ^ ctx.tick as u64, 0x435432, e2.neighbor)
                            < self.compliance
                        {
                            to_isolate.push(e2.neighbor);
                        }
                    }
                }
            }
        }
        for v in to_isolate {
            ctx.state.isolate(v, ctx.tick + self.duration);
        }
    }
}

/// The paper's base-case intervention stack: VHI + SC + SH
/// (§VI: "In the base case, the simulation has implemented VHI,
/// SC, and SH").
pub fn base_case(
    symptomatic: StateId,
    sc_start: u32,
    sh_start: u32,
    sh_end: u32,
    sh_compliance: f64,
    vhi_compliance: f64,
) -> InterventionSet {
    InterventionSet::new()
        .with(Box::new(VoluntaryHomeIsolation {
            symptomatic,
            compliance: vhi_compliance,
            duration: 14,
        }))
        .with(Box::new(SchoolClosure { start: sc_start, end: u32::MAX }))
        .with(Box::new(StayAtHome::new(sh_start, sh_end, sh_compliance)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covid::{covid19_model, states};
    use crate::disease::sir_model;
    use crate::engine::{RuntimeNet, SimConfig, SimContext, Simulation};
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::ContactNetwork;
    use std::sync::Arc;

    fn work_clique(n: u32) -> ContactNetwork {
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

    /// A simulation on `net` (age group 2, county 0 everywhere).
    fn simulation(
        net: &ContactNetwork,
        model: DiseaseModel,
        interventions: InterventionSet,
        cfg: SimConfig,
    ) -> Simulation {
        let n = net.n_nodes;
        let ctx = SimContext::build(net, vec![2; n], vec![0; n], cfg.n_partitions, cfg.epsilon);
        Simulation::new_with_context(Arc::new(ctx), model, interventions, cfg)
    }

    fn run_with(net: &ContactNetwork, interventions: InterventionSet, seed: u64) -> usize {
        let mut sim = simulation(
            net,
            sir_model(1.2, 5.0),
            interventions,
            SimConfig { ticks: 80, seed, initial_infections: 3, ..Default::default() },
        );
        sim.run().output.total_infections()
    }

    #[test]
    fn hash_prob_in_unit_interval_and_deterministic() {
        for v in 0..1000 {
            let p = hash_prob(42, 7, v);
            assert!((0.0..1.0).contains(&p));
            assert_eq!(p, hash_prob(42, 7, v));
        }
        // Roughly uniform.
        let mean: f64 = (0..10_000).map(|v| hash_prob(1, 2, v)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02);
    }

    #[test]
    fn stay_at_home_reduces_infections() {
        let net = work_clique(60);
        let none = run_with(&net, InterventionSet::new(), 3);
        let sh =
            run_with(&net, InterventionSet::new().with(Box::new(StayAtHome::new(1, 80, 0.9))), 3);
        assert!(sh < none, "SH {sh} should be < baseline {none}");
    }

    #[test]
    fn full_compliance_stay_home_stops_workplace_spread() {
        let net = work_clique(40);
        let infections =
            run_with(&net, InterventionSet::new().with(Box::new(StayAtHome::new(0, 100, 1.0))), 1);
        assert_eq!(infections, 0, "no non-home contacts should remain");
    }

    #[test]
    fn school_closure_blocks_school_edges_only() {
        // School clique + one Work edge: SC stops school transmission.
        let mut edges = Vec::new();
        for u in 0..20u32 {
            for v in (u + 1)..20 {
                edges.push(ContactEdge {
                    u,
                    v,
                    start: 480,
                    duration: 400,
                    ctx_u: ActivityType::School,
                    ctx_v: ActivityType::School,
                    weight: 1.0,
                });
            }
        }
        let net = ContactNetwork { n_nodes: 20, edges };
        let closed = run_with(
            &net,
            InterventionSet::new().with(Box::new(SchoolClosure { start: 0, end: u32::MAX })),
            5,
        );
        let open = run_with(&net, InterventionSet::new(), 5);
        assert_eq!(closed, 0);
        assert!(open > 0);
    }

    #[test]
    fn vhi_reduces_spread_in_covid_model() {
        let net = work_clique(80);
        let run = |ivs: InterventionSet| {
            // Raise transmissibility so the clique epidemic is brisk.
            let model = DiseaseModel { transmissibility: 0.5, ..covid19_model() };
            let mut sim = simulation(
                &net,
                model,
                ivs,
                SimConfig { ticks: 100, seed: 11, initial_infections: 4, ..Default::default() },
            );
            sim.run().output.total_infections()
        };
        let base = run(InterventionSet::new());
        let vhi = run(InterventionSet::new().with(Box::new(VoluntaryHomeIsolation {
            symptomatic: states::SYMPTOMATIC,
            compliance: 1.0,
            duration: 14,
        })));
        assert!(vhi <= base, "VHI {vhi} vs base {base}");
        assert!(base > 10, "baseline epidemic too small to compare ({base})");
    }

    #[test]
    fn pulsing_shutdown_alternates() {
        let net = work_clique(4);
        let rt = RuntimeNet::build(&net);
        let model = sir_model(0.5, 5.0);
        let mut st = SimState::new(4, net.edges.len(), 0);
        let mut ps = PulsingShutdown::new(10, 3, 2, 1.0);
        let mut active = Vec::new();
        for t in 0..20 {
            let mut ctx = InterventionCtx {
                tick: t,
                state: &mut st,
                net: &rt,
                model: &model,
                recent: &[],
                seed: 1,
            };
            ps.apply(&mut ctx);
            active.push(st.stay_home_active);
        }
        // Before start: off. After: 3 on, 2 off repeating.
        assert!(!active[9]);
        assert!(active[10] && active[11] && active[12]);
        assert!(!active[13] && !active[14]);
        assert!(active[15]);
    }

    #[test]
    fn degenerate_pulses_neither_divide_by_zero_nor_overflow() {
        let net = work_clique(4);
        let rt = RuntimeNet::build(&net);
        let model = sir_model(0.5, 5.0);
        let run = |on_days: u32, off_days: u32| {
            let mut st = SimState::new(4, net.edges.len(), 0);
            let mut ps = PulsingShutdown::new(10, on_days, off_days, 1.0);
            (0..20)
                .map(|t| {
                    let mut ctx = InterventionCtx {
                        tick: t,
                        state: &mut st,
                        net: &rt,
                        model: &model,
                        recent: &[],
                        seed: 1,
                    };
                    ps.apply(&mut ctx);
                    st.stay_home_active
                })
                .collect::<Vec<bool>>()
        };
        // A zero-length pulse never closes anything.
        assert!(run(0, 0).iter().all(|&a| !a));
        // A pulse longer than u32 can count stays closed from `start` on.
        let long = run(u32::MAX, 1);
        assert!(long[..10].iter().all(|&a| !a) && long[10..].iter().all(|&a| a));
    }

    #[test]
    fn partial_reopening_releases_some() {
        let net = work_clique(200);
        let rt = RuntimeNet::build(&net);
        let model = sir_model(0.5, 5.0);
        let mut st = SimState::new(200, net.edges.len(), 0);
        let mut sh = StayAtHome::new(0, 50, 1.0);
        let mut ro = PartialReopening { day: 10, level: 0.5 };
        for t in 0..12 {
            let mut ctx = InterventionCtx {
                tick: t,
                state: &mut st,
                net: &rt,
                model: &model,
                recent: &[],
                seed: 2,
            };
            sh.apply(&mut ctx);
            let mut ctx = InterventionCtx {
                tick: t,
                state: &mut st,
                net: &rt,
                model: &model,
                recent: &[],
                seed: 2,
            };
            ro.apply(&mut ctx);
        }
        assert!(!st.stay_home_active);
        let holdouts = (0..200).filter(|&v| st.has_flag(v, flags::HOLDOUT)).count();
        assert!(
            (60..140).contains(&holdouts),
            "about half of 200 should remain held out, got {holdouts}"
        );
    }

    #[test]
    fn contact_tracing_isolates_neighborhood() {
        let net = work_clique(30);
        let rt = RuntimeNet::build(&net);
        let model = covid19_model();
        let mut st = SimState::new(30, net.edges.len(), states::SUSCEPTIBLE);
        st.health[0] = states::SYMPTOMATIC;
        let recent = Vec::new();
        let mut ct = ContactTracing {
            symptomatic: states::SYMPTOMATIC,
            detection: 1.0,
            compliance: 1.0,
            duration: 14,
            distance: 1,
        };
        let mut ctx = InterventionCtx {
            tick: 5,
            state: &mut st,
            net: &rt,
            model: &model,
            recent: &recent,
            seed: 3,
        };
        ct.apply(&mut ctx);
        // Everyone is a neighbor in a clique: all isolated.
        for v in 0..30u32 {
            assert!(st.restricted(v, 6), "node {v} should be isolated");
        }
    }

    #[test]
    fn generic_intervention_trigger_and_sampling() {
        let net = work_clique(100);
        let rt = RuntimeNet::build(&net);
        let model = sir_model(0.5, 5.0);
        let mut st = SimState::new(100, net.edges.len(), 0);
        let mut gi = GenericIntervention {
            sample: 0.3,
            once: true,
            ..GenericIntervention::new(
                "vaccinate-30pct",
                Trigger::AtTick { tick: 7 },
                Target::AllNodes,
                vec![Operation::ScaleSusceptibility { factor: 0.0 }],
            )
        };
        for t in 0..10 {
            let mut ctx = InterventionCtx {
                tick: t,
                state: &mut st,
                net: &rt,
                model: &model,
                recent: &[],
                seed: 9,
            };
            gi.apply(&mut ctx);
        }
        let vaccinated = (0..100).filter(|&v| st.susceptibility_scale[v as usize] == 0.0).count();
        assert!((15..45).contains(&vaccinated), "≈30 expected, got {vaccinated}");
    }

    #[test]
    fn generic_intervention_delay() {
        let net = work_clique(4);
        let rt = RuntimeNet::build(&net);
        let model = sir_model(0.5, 5.0);
        let mut st = SimState::new(4, net.edges.len(), 0);
        let mut gi = GenericIntervention {
            once: true,
            delay: 3,
            ..GenericIntervention::new(
                "delayed-close",
                Trigger::AtTick { tick: 2 },
                Target::AllNodes,
                vec![Operation::CloseContext { ctx: ActivityType::Work }],
            )
        };
        let mut closed_at = None;
        for t in 0..10 {
            let mut ctx = InterventionCtx {
                tick: t,
                state: &mut st,
                net: &rt,
                model: &model,
                recent: &[],
                seed: 1,
            };
            gi.apply(&mut ctx);
            if closed_at.is_none() && st.context_closed(ActivityType::Work.code()) {
                closed_at = Some(t);
            }
        }
        assert_eq!(closed_at, Some(5));
    }

    #[test]
    fn generic_intervention_state_count_trigger() {
        let trigger = Trigger::StateCountAtLeast { state: 1, count: 3 };
        let mut st = SimState::new(10, 1, 0);
        assert!(!trigger.eval(0, &st));
        st.health[0] = 1;
        st.health[1] = 1;
        st.health[2] = 1;
        assert!(trigger.eval(0, &st));
    }

    #[test]
    fn trigger_combinators() {
        let st = SimState::new(1, 1, 0);
        let a = Trigger::TickRange { from: 5, to: 10 };
        let not_a = Trigger::Not { inner: Box::new(a.clone()) };
        let both = Trigger::And { a: Box::new(a.clone()), b: Box::new(Trigger::Always) };
        let either =
            Trigger::Or { a: Box::new(Trigger::AtTick { tick: 2 }), b: Box::new(a.clone()) };
        assert!(a.eval(7, &st) && !a.eval(10, &st));
        assert!(!not_a.eval(7, &st) && not_a.eval(4, &st));
        assert!(both.eval(6, &st) && !both.eval(11, &st));
        assert!(either.eval(2, &st) && either.eval(6, &st) && !either.eval(3, &st));
    }

    #[test]
    fn generic_intervention_serializes() {
        let gi = GenericIntervention::new(
            "sc",
            Trigger::AtTick { tick: 16 },
            Target::AllNodes,
            vec![Operation::CloseContext { ctx: ActivityType::School }],
        );
        let json = serde_json::to_string(&gi).unwrap();
        let back: GenericIntervention = serde_json::from_str(&json).unwrap();
        assert_eq!(back, gi);
    }

    #[test]
    fn set_health_operation_imports_cases() {
        // A case importation at tick 4 via SetHealth must be picked up
        // by the engine (frontier rebuild) and seed an epidemic.
        let net = work_clique(30);
        let gi = GenericIntervention::new(
            "import",
            Trigger::AtTick { tick: 4 },
            Target::Node { node: 3 },
            vec![Operation::SetHealth { to: 1 }],
        );
        let mut sim = simulation(
            &net,
            sir_model(2.0, 5.0),
            InterventionSet::new().with(Box::new(gi)),
            SimConfig { ticks: 40, seed: 8, initial_infections: 0, ..Default::default() },
        );
        let res = sim.run();
        assert!(res.output.total_infections() > 0, "imported case must spread");
    }

    #[test]
    fn base_case_stack_has_three() {
        let set = base_case(states::SYMPTOMATIC, 16, 31, 70, 0.8, 0.6);
        assert_eq!(set.names(), vec!["VHI", "SC", "SH"]);
    }

    #[test]
    fn ckpt_generic_trigger_state_round_trips() {
        let net = work_clique(4);
        let rt = RuntimeNet::build(&net);
        let model = sir_model(0.5, 5.0);
        let mut st = SimState::new(4, net.edges.len(), 0);
        let mut gi = GenericIntervention {
            once: true,
            delay: 5,
            ..GenericIntervention::new(
                "delayed",
                Trigger::AtTick { tick: 2 },
                Target::AllNodes,
                vec![Operation::CloseContext { ctx: ActivityType::Work }],
            )
        };
        // Trip the trigger at tick 2: fired = true, one pending firing.
        for t in 0..3 {
            let mut ctx = InterventionCtx {
                tick: t,
                state: &mut st,
                net: &rt,
                model: &model,
                recent: &[],
                seed: 1,
            };
            gi.apply(&mut ctx);
        }
        assert!(!st.context_closed(ActivityType::Work.code()));

        // Restore the captured state into a pristine copy: the delayed
        // firing still lands at tick 7, and `once` stays honoured.
        let saved = gi.snapshot_state().expect("generic interventions are stateful");
        let mut fresh = GenericIntervention {
            once: true,
            delay: 5,
            ..GenericIntervention::new(
                "delayed",
                Trigger::AtTick { tick: 2 },
                Target::AllNodes,
                vec![Operation::CloseContext { ctx: ActivityType::Work }],
            )
        };
        fresh.restore_state(&saved).unwrap();
        let mut closed_at = None;
        for t in 3..10 {
            let mut ctx = InterventionCtx {
                tick: t,
                state: &mut st,
                net: &rt,
                model: &model,
                recent: &[],
                seed: 1,
            };
            fresh.apply(&mut ctx);
            if closed_at.is_none() && st.context_closed(ActivityType::Work.code()) {
                closed_at = Some(t);
            }
        }
        assert_eq!(closed_at, Some(7));
        assert!(fresh.restore_state("not json").is_err());
    }

    #[test]
    fn ckpt_set_restore_rejects_mismatched_stacks() {
        let mut set = base_case(states::SYMPTOMATIC, 16, 31, 70, 0.8, 0.6);
        let states = set.snapshot_states();
        assert_eq!(states.len(), 3);
        // SH is the only stateful entry in the base stack.
        assert_eq!(states[0].1, None);
        assert_eq!(states[1].1, None);
        assert!(states[2].1.is_some());
        set.restore_states(&states).unwrap();

        // Wrong count.
        assert!(set.restore_states(&states[..2]).is_err());
        // Wrong name.
        let mut renamed = states.clone();
        renamed[0].0 = "XX".to_string();
        assert!(set.restore_states(&renamed).is_err());
    }
}

//! `epiflow-orchestrator`: a deterministic, fault-tolerant workflow
//! DAG engine for the nightly combined workflow.
//!
//! The paper's primary contribution is the *workflow layer* — nightly
//! production orchestration of thousands of simulations across two
//! clusters under a hard 10 pm–8 am window — and the real system had to
//! survive transfer drops, node loss, and database exhaustion night
//! after night. This crate generalizes the nightly cycle into a DAG of
//! typed steps and adds the operational machinery the happy path
//! lacks:
//!
//! * [`step`] — the step taxonomy (config-gen, Globus transfer, DB
//!   snapshot-restore, pack + Slurm execute, collect, analytics), retry
//!   policies with exponential backoff, and the
//!   acyclic-by-construction [`Dag`].
//! * [`faults`] — the seeded fault plan layered over the hpcsim
//!   substrate: mid-flight transfer drops, mid-level node crashes, DB
//!   connection exhaustion, straggler tasks. All draws are stateless
//!   functions of `(seed, label, key)`.
//! * [`engine`] — the discrete-event executor: per-step retries, an
//!   observability event stream, deadline-aware degradation that sheds
//!   lowest-priority cells (and names them) when the 8 am deadline is
//!   at risk.
//! * [`journal`] — the write-ahead journal of step completions; a
//!   killed cycle resumes from it without redoing finished steps, and
//!   the resumed report is byte-identical to an uninterrupted run.
//! * [`breaker`] — per-resource circuit breakers (closed / open /
//!   half-open) over the Globus link, the remote cluster, and the
//!   population-database fleet, with replay-exact state reconstruction
//!   from journaled call streams.
//! * [`nightly`] — the builder mapping the Fig.-2 cycle onto the DAG;
//!   `epiflow-core`'s `CombinedWorkflow` runs on top of it.
//! * [`campaign`] — the chaos-campaign harness: many seeded nights in
//!   parallel under sampled fault plans, reporting within-window
//!   success rates and failover/hedge/shed distributions per fault
//!   intensity.

pub mod breaker;
pub mod campaign;
pub mod engine;
pub mod faults;
pub mod journal;
pub mod nightly;
pub mod step;

pub use breaker::{
    BreakerConfig, BreakerSet, BreakerState, CircuitBreaker, Resource, ResourceCall,
};
pub use campaign::{
    sample_fault_plan, sample_fault_plan_preempt_heavy, CampaignReport, CampaignSpec, FaultProfile,
    IntensityStats, NightOutcome,
};
pub use engine::{
    timeline_text, CycleEnv, CycleReport, DeadlinePolicy, DroppedCell, Engine, EngineEvent,
    EventCounters, FailoverPolicy, RunResult, TimelineEvent,
};
pub use faults::{fault_unit, FaultPlan, LinkFaults};
pub use journal::{Journal, JournalEntry, JournalWriter, StepEffect};
pub use nightly::{nightly_engine, NightlySpec};
pub use step::{BytesSpec, Dag, RetryPolicy, StepId, StepKind, StepSpec};

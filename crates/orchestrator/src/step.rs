//! Step taxonomy and the workflow DAG.
//!
//! The nightly cycle (Fig. 2) is generalized into *typed* steps with
//! explicit dependency edges. A step's type tells the engine how to
//! execute one attempt of it against the cycle environment; the edges
//! tell it when the step may start. Steps must be added after every
//! step they depend on, so the graph is acyclic by construction.

use epiflow_hpcsim::cluster::Site;

/// Index of a step within its [`Dag`].
pub type StepId = usize;

/// Multiplier applied to the backoff wait for each subsequent retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// Per-step retry policy: exponential backoff (×2 per retry) between
/// attempts. Attempts have no timeout: a failed attempt costs the time
/// it wasted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (total attempts =
    /// `max_retries + 1`).
    pub max_retries: u32,
    /// Wait before the first retry.
    pub base_backoff_secs: f64,
}

impl RetryPolicy {
    /// No retries: the step gets exactly one attempt.
    pub const fn none() -> Self {
        RetryPolicy::retries(0, 0.0)
    }

    /// `max_retries` retries with exponential backoff from `base_secs`.
    pub const fn retries(max_retries: u32, base_secs: f64) -> Self {
        RetryPolicy { max_retries, base_backoff_secs: base_secs }
    }

    /// Total attempts the policy allows.
    pub fn max_attempts(&self) -> u32 {
        self.max_retries + 1
    }

    /// Backoff wait after failed attempt `attempt` (0-based).
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        self.base_backoff_secs * BACKOFF_FACTOR.powi(attempt as i32)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Payload size of a transfer step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BytesSpec {
    /// Known up front (e.g. the night's configuration bundle).
    Const { bytes: u64 },
    /// The summary volume produced by the execute step — resolved at
    /// run time from cycle state.
    Summaries,
}

/// What one attempt of a step does.
#[derive(Clone, Debug, PartialEq)]
pub enum StepKind {
    /// Fixed-duration work (config generation, analytics).
    Fixed { secs: f64 },
    /// Synthetic step for tests and benches: the first `fail_attempts`
    /// attempts fail after wasting `wasted_secs` each, then one
    /// succeeds in `secs`.
    Flaky { secs: f64, fail_attempts: u32, wasted_secs: f64 },
    /// A Globus transfer between the sites, subject to link faults.
    Transfer { from: Site, to: Site, bytes: BytesSpec, label: String },
    /// Instantiate per-region population-database snapshots (parallel
    /// across regions, bounded by the slowest); DB-exhaustion faults
    /// fire here and shrink the per-region task bounds downstream.
    DbRestore,
    /// Pack the night's tasks and execute them under Slurm inside the
    /// window, with node-failure faults and deadline-aware shedding.
    SlurmExecute,
    /// Post-simulation aggregation, scaled to the completed work.
    Collect,
}

/// One step of the workflow.
#[derive(Clone, Debug, PartialEq)]
pub struct StepSpec {
    pub name: String,
    pub site: Site,
    /// Orange (automated) vs human-in-the-loop boxes of Fig. 2.
    pub automated: bool,
    pub kind: StepKind,
    /// Steps that must complete before this one starts.
    pub deps: Vec<StepId>,
    pub retry: RetryPolicy,
}

/// A dependency DAG of steps, acyclic by construction (every edge
/// points to an earlier id).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dag {
    pub steps: Vec<StepSpec>,
}

impl Dag {
    /// Add a step; its dependencies must already be present.
    ///
    /// # Panics
    /// Panics if a dependency id has not been added yet.
    pub fn add(&mut self, spec: StepSpec) -> StepId {
        for &d in &spec.deps {
            assert!(
                d < self.steps.len(),
                "step `{}` depends on {d}, which has not been added yet",
                spec.name
            );
        }
        self.steps.push(spec);
        self.steps.len() - 1
    }

    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential() {
        let p = RetryPolicy::retries(3, 10.0);
        assert_eq!(p.backoff_secs(0), 10.0);
        assert_eq!(p.backoff_secs(1), 20.0);
        assert_eq!(p.backoff_secs(2), 40.0);
        assert_eq!(p.max_attempts(), 4);
    }

    #[test]
    #[should_panic(expected = "has not been added yet")]
    fn forward_edges_rejected() {
        let mut dag = Dag::default();
        dag.add(StepSpec {
            name: "bad".into(),
            site: Site::Home,
            automated: true,
            kind: StepKind::Fixed { secs: 1.0 },
            deps: vec![3],
            retry: RetryPolicy::none(),
        });
    }
}

//! Per-resource circuit breakers with health tracking.
//!
//! Each breaker-guarded resource (the inter-site Globus link, the
//! remote cluster, the population-database fleet) carries a three-state
//! breaker: **closed** (calls flow, outcomes tracked in a sliding
//! window), **open** (calls are refused until a cool-down elapses —
//! the engine re-routes them to the alternate resource instead), and
//! **half-open** (after the cool-down, probe calls are admitted; enough
//! successes close the breaker, one failure re-opens it).
//!
//! Determinism contract: [`CircuitBreaker::admits`] is a *pure* check —
//! it never mutates state — and every state transition happens inside
//! [`CircuitBreaker::record`] as a function of the recorded call stream
//! `(at_secs, success)…`. The engine journals each step's
//! [`ResourceCall`]s, so replaying a journal prefix feeds the breakers
//! the exact call stream the interrupted run saw and reconstructs
//! breaker state bit-for-bit; this is what keeps checkpoint-resume
//! byte-identical with the resilience layer on.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A breaker-guarded resource of the nightly cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Resource {
    /// The inter-site Globus link (alternate: the slow fallback path).
    GlobusLink,
    /// The remote cluster's nightly window (alternate: the home cluster).
    RemoteCluster,
    /// The per-region population databases (alternate: cold standbys).
    PopulationDb,
}

impl Resource {
    pub const ALL: [Resource; 3] =
        [Resource::GlobusLink, Resource::RemoteCluster, Resource::PopulationDb];

    pub fn name(self) -> &'static str {
        match self {
            Resource::GlobusLink => "globus-link",
            Resource::RemoteCluster => "remote-cluster",
            Resource::PopulationDb => "population-db",
        }
    }
}

/// Breaker state machine states.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// Breaker tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window of most recent call outcomes evaluated.
    pub window: usize,
    /// Minimum outcomes in the window before the failure rate is acted
    /// on (a single early failure must not trip the breaker).
    pub min_calls: usize,
    /// Failure rate (failures / window outcomes) at or above which a
    /// closed breaker opens.
    pub failure_threshold: f64,
    /// Seconds an open breaker refuses calls before admitting a
    /// half-open probe.
    pub cooldown_secs: f64,
    /// Consecutive half-open probe successes required to close.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 8,
            min_calls: 3,
            failure_threshold: 0.5,
            cooldown_secs: 300.0,
            probe_successes: 1,
        }
    }
}

/// One call to a breaker-guarded resource during a step's execution.
/// The engine journals these per step; resume replays them into the
/// breakers instead of re-executing the step.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceCall {
    pub resource: Resource,
    /// Workflow-clock time of the call.
    pub at_secs: f64,
    pub success: bool,
}

/// The circuit breaker for one resource.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    pub config: BreakerConfig,
    state: BreakerState,
    /// Sliding window of outcomes (true = success).
    outcomes: VecDeque<bool>,
    /// Time the breaker last entered `Open`.
    opened_at: f64,
    /// Consecutive probe successes while half-open.
    probe_ok: u32,
    /// Times the breaker transitioned into `Open`.
    pub times_opened: u32,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            outcomes: VecDeque::new(),
            opened_at: 0.0,
            probe_ok: 0,
            times_opened: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Would a call at `now_secs` be admitted? Pure — consulting the
    /// breaker never changes it, so live execution and journal replay
    /// cannot drift.
    pub fn admits(&self, now_secs: f64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => now_secs - self.opened_at >= self.config.cooldown_secs,
        }
    }

    /// Record a call outcome and run the state machine. Returns the
    /// transition `(from, to)` if the state changed. An admitted call
    /// against an open-but-cooled-down breaker is the half-open probe;
    /// the transition to half-open happens here, not in [`Self::admits`],
    /// so replayed call streams drive identical transitions.
    pub fn record(&mut self, now_secs: f64, success: bool) -> Option<(BreakerState, BreakerState)> {
        let from = self.state;
        if self.state == BreakerState::Open
            && now_secs - self.opened_at >= self.config.cooldown_secs
        {
            self.state = BreakerState::HalfOpen;
            self.probe_ok = 0;
        }
        self.outcomes.push_back(success);
        while self.outcomes.len() > self.config.window.max(1) {
            self.outcomes.pop_front();
        }
        match self.state {
            BreakerState::Closed => {
                if self.outcomes.len() >= self.config.min_calls.max(1) {
                    let failures = self.outcomes.iter().filter(|&&ok| !ok).count();
                    let rate = failures as f64 / self.outcomes.len() as f64;
                    if rate >= self.config.failure_threshold {
                        self.trip(now_secs);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if success {
                    self.probe_ok += 1;
                    if self.probe_ok >= self.config.probe_successes.max(1) {
                        self.state = BreakerState::Closed;
                        self.outcomes.clear();
                    }
                } else {
                    self.trip(now_secs);
                }
            }
            // Unreachable for admitted calls: the cool-down check above
            // moved the breaker to half-open. A caller recording an
            // un-admitted call is a bug; stay open.
            BreakerState::Open => {}
        }
        (from != self.state).then_some((from, self.state))
    }

    fn trip(&mut self, now_secs: f64) {
        self.state = BreakerState::Open;
        self.opened_at = now_secs;
        self.times_opened += 1;
        self.probe_ok = 0;
        self.outcomes.clear();
    }
}

/// The engine's breaker per guarded resource.
#[derive(Clone, Debug)]
pub struct BreakerSet {
    link: CircuitBreaker,
    remote: CircuitBreaker,
    db: CircuitBreaker,
}

impl BreakerSet {
    pub fn new(config: BreakerConfig) -> Self {
        BreakerSet {
            link: CircuitBreaker::new(config),
            remote: CircuitBreaker::new(config),
            db: CircuitBreaker::new(config),
        }
    }

    pub fn get(&self, resource: Resource) -> &CircuitBreaker {
        match resource {
            Resource::GlobusLink => &self.link,
            Resource::RemoteCluster => &self.remote,
            Resource::PopulationDb => &self.db,
        }
    }

    pub fn get_mut(&mut self, resource: Resource) -> &mut CircuitBreaker {
        match resource {
            Resource::GlobusLink => &mut self.link,
            Resource::RemoteCluster => &mut self.remote,
            Resource::PopulationDb => &mut self.db,
        }
    }

    /// Replay a journaled call stream into the breakers (transitions
    /// discarded — replay emits no events).
    pub fn replay(&mut self, calls: &[ResourceCall]) {
        for c in calls {
            self.get_mut(c.resource).record(c.at_secs, c.success);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            min_calls: 3,
            failure_threshold: 0.5,
            cooldown_secs: 100.0,
            probe_successes: 2,
        }
    }

    #[test]
    fn stays_closed_below_min_calls() {
        let mut b = CircuitBreaker::new(cfg());
        assert!(b.record(0.0, false).is_none());
        assert!(b.record(1.0, false).is_none(), "2 < min_calls: no trip yet");
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admits(1.0));
    }

    #[test]
    fn opens_at_failure_threshold_and_refuses_until_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        b.record(0.0, true);
        b.record(1.0, false);
        let t = b.record(2.0, false);
        assert_eq!(t, Some((BreakerState::Closed, BreakerState::Open)), "2/3 ≥ 0.5 trips");
        assert_eq!(b.times_opened, 1);
        assert!(!b.admits(2.0));
        assert!(!b.admits(101.9), "still inside the cool-down");
        assert!(b.admits(102.0), "cool-down elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::Open, "admits() is pure — no transition");
    }

    #[test]
    fn half_open_probe_closes_after_enough_successes() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..3 {
            b.record(i as f64, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let t = b.record(200.0, true);
        assert_eq!(t, Some((BreakerState::Open, BreakerState::HalfOpen)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        let t = b.record(201.0, true);
        assert_eq!(t, Some((BreakerState::HalfOpen, BreakerState::Closed)), "2 probes close");
    }

    #[test]
    fn half_open_failure_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..3 {
            b.record(i as f64, false);
        }
        b.record(150.0, true); // probe 1 of 2
        let t = b.record(151.0, false);
        assert_eq!(t, Some((BreakerState::HalfOpen, BreakerState::Open)));
        assert_eq!(b.times_opened, 2);
        assert!(!b.admits(200.0), "cool-down restarts from the re-open time");
        assert!(b.admits(251.0));
    }

    #[test]
    fn closing_clears_history() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..3 {
            b.record(i as f64, false);
        }
        b.record(200.0, true);
        b.record(201.0, true); // closed again
        assert_eq!(b.state(), BreakerState::Closed);
        // One fresh failure must not trip on stale window contents.
        b.record(202.0, false);
        b.record(203.0, true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn replayed_call_stream_reconstructs_state() {
        let calls = vec![
            ResourceCall { resource: Resource::GlobusLink, at_secs: 0.0, success: false },
            ResourceCall { resource: Resource::GlobusLink, at_secs: 5.0, success: false },
            ResourceCall { resource: Resource::GlobusLink, at_secs: 9.0, success: false },
            ResourceCall { resource: Resource::PopulationDb, at_secs: 9.5, success: true },
            ResourceCall { resource: Resource::GlobusLink, at_secs: 120.0, success: true },
        ];
        let mut live = BreakerSet::new(cfg());
        for c in &calls {
            live.get_mut(c.resource).record(c.at_secs, c.success);
        }
        let mut replayed = BreakerSet::new(cfg());
        replayed.replay(&calls);
        for r in Resource::ALL {
            assert_eq!(replayed.get(r).state(), live.get(r).state(), "{}", r.name());
            assert_eq!(replayed.get(r).times_opened, live.get(r).times_opened);
            assert_eq!(replayed.get(r).admits(121.0), live.get(r).admits(121.0));
        }
        assert_eq!(live.get(Resource::GlobusLink).state(), BreakerState::HalfOpen);
    }
}

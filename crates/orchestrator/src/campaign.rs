//! Chaos-campaign harness: many seeded nightly cycles in parallel
//! under sampled fault plans.
//!
//! A campaign sweeps a grid of *fault intensities* (0 = quiet night,
//! 1 = everything that can break, breaks). For each intensity it runs
//! `nights_per_intensity` independent nights, each under a
//! [`FaultPlan`] sampled as a pure function of `(base_seed, night,
//! intensity)` — so a campaign is deterministic for a fixed seed
//! regardless of how many rayon workers execute it — and aggregates the
//! within-window success rate, failover / hedge / re-route / retry
//! counts, and the shed-cell distribution per intensity. This is the
//! simulated analogue of the fault-injection campaigns used to qualify
//! production workflow stacks before the nightly cadence goes live.

use crate::engine::{DeadlinePolicy, EventCounters};
use crate::faults::{fault_unit, FaultPlan};
use crate::nightly::{nightly_engine, NightlySpec};
use epiflow_hpcsim::cluster::ClusterSpec;
use epiflow_hpcsim::globus::LinkFaults;
use epiflow_hpcsim::slurm::NodeFailure;
use epiflow_hpcsim::task::Task;
use rayon::prelude::*;
use serde::Serialize;

/// Sample the fault plan for one campaign night. Pure in
/// `(base_seed, night, intensity)`: every probability and magnitude is
/// a `fault_unit` draw scaled by the intensity, so two campaigns with
/// the same seed sample identical plans in any execution order.
///
/// At high intensity (≥ 0.75) there is a growing chance of a *total
/// remote-cluster loss* mid-window — the scenario cross-cluster
/// failover exists for.
pub fn sample_fault_plan(
    base_seed: u64,
    night: u64,
    intensity: f64,
    remote: &ClusterSpec,
) -> FaultPlan {
    let intensity = intensity.clamp(0.0, 1.0);
    let seed = base_seed ^ night.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if intensity <= 0.0 {
        return FaultPlan { seed, ..FaultPlan::default() };
    }
    let draw = |label: &str| fault_unit(base_seed, label, night);

    let mut node_failures = Vec::new();
    if intensity >= 0.75 && draw("c-total-kill") < 0.4 * intensity {
        // Total loss: every remote node, within the first hour of the
        // execute step — cluster-wide losses cluster at window open
        // (maintenance overruns, partition at the batch handoff), and
        // a later kill would land after short nights already finished.
        node_failures
            .push(NodeFailure { at_secs: draw("c-kill-at") * 3600.0, nodes: remote.nodes });
    } else {
        // Partial losses get the same first-hour timing as total ones:
        // a kill only bites while the job array is running, and the
        // execute step is a small fraction of the ten-hour window.
        let n = (3.0 * intensity * draw("c-node-count")) as usize;
        for k in 0..n {
            node_failures.push(NodeFailure {
                at_secs: draw(&format!("c-node-at-{k}")) * 3600.0,
                nodes: 1
                    + (0.2 * remote.nodes as f64 * intensity * draw(&format!("c-node-n-{k}")))
                        as usize,
            });
        }
    }

    FaultPlan {
        seed,
        link: LinkFaults::new(0.6 * intensity * draw("c-link-fail"), seed)
            .with_slowdown(0.5 * intensity * draw("c-link-slow"), 2.0 + 6.0 * intensity),
        node_failures,
        db_exhaust_prob: 0.6 * intensity * draw("c-db-exhaust"),
        db_keep_fraction: 1.0 - 0.75 * intensity * draw("c-db-keep"),
        straggler_prob: 0.3 * intensity * draw("c-straggler"),
        straggler_factor: 2.0 + 4.0 * intensity,
        db_slow_prob: 0.5 * intensity * draw("c-db-slow"),
        db_slow_factor: 2.0 + 8.0 * intensity,
    }
}

/// Sample a *preemption-heavy* fault plan: links, databases, and task
/// runtimes stay quiet, and all the injected chaos is partial node
/// losses — several per night at full intensity, each killing 5–25 % of
/// the machine. Kills land within the first hour of the execute step,
/// for the same reason `sample_fault_plan` times total losses there: a
/// preemption only matters while the job array is actually running,
/// and a draw spread over the whole ten-hour window would mostly fire
/// after short nights already finished. This is the profile that
/// isolates what tick-level checkpointing buys: every node-second a
/// night loses here is recomputed simulation work (or checkpoint-write
/// overhead), not transfer retries or database stalls.
///
/// Pure in `(base_seed, night, intensity)`, like [`sample_fault_plan`].
pub fn sample_fault_plan_preempt_heavy(
    base_seed: u64,
    night: u64,
    intensity: f64,
    remote: &ClusterSpec,
) -> FaultPlan {
    let intensity = intensity.clamp(0.0, 1.0);
    let seed = base_seed ^ night.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if intensity <= 0.0 {
        return FaultPlan { seed, ..FaultPlan::default() };
    }
    let draw = |label: &str| fault_unit(base_seed, label, night);
    let mut node_failures = Vec::new();
    let n = 1 + (5.0 * intensity * draw("p-count")) as usize;
    for k in 0..n {
        let frac = 0.05 + 0.20 * intensity * draw(&format!("p-frac-{k}"));
        node_failures.push(NodeFailure {
            at_secs: draw(&format!("p-at-{k}")) * 3600.0,
            nodes: (1 + (frac * remote.nodes as f64) as usize).min(remote.nodes),
        });
    }
    FaultPlan { seed, node_failures, ..FaultPlan::default() }
}

/// Which fault mix a campaign samples each night from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultProfile {
    /// The full chaos mix of [`sample_fault_plan`]: link faults, DB
    /// exhaustion and slowdowns, stragglers, node losses, and (at high
    /// intensity) total cluster kills.
    #[default]
    Mixed,
    /// Node preemptions only ([`sample_fault_plan_preempt_heavy`]) —
    /// the checkpoint/restart qualification profile.
    PreemptHeavy,
}

/// Configuration of a chaos campaign over the nightly workflow.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Nightly-cycle configuration, including the failover policy and
    /// breaker tuning under test.
    pub nightly: NightlySpec,
    /// The night's task list (same workload every night; only the
    /// faults vary).
    pub tasks: Vec<Task>,
    pub region_rows: Vec<(usize, u64)>,
    pub deadline: DeadlinePolicy,
    /// Fault intensities to sweep, each in `[0, 1]`.
    pub intensities: Vec<f64>,
    pub nights_per_intensity: usize,
    pub base_seed: u64,
    /// Fault mix sampled each night ([`FaultProfile::Mixed`] unless
    /// the campaign targets a specific failure domain).
    pub profile: FaultProfile,
}

/// One night's result.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct NightOutcome {
    pub intensity: f64,
    pub night: u64,
    pub within_window: bool,
    pub counters: EventCounters,
    pub cycle_secs: f64,
}

/// Aggregates for one fault intensity.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct IntensityStats {
    pub intensity: f64,
    pub nights: usize,
    pub successes: usize,
    pub success_rate: f64,
    pub failovers: u32,
    pub hedges: u32,
    pub reroutes: u32,
    pub retries: u32,
    pub shed_cells_total: u32,
    /// `(cells shed in a night, number of such nights)`, ascending.
    pub shed_distribution: Vec<(u32, usize)>,
    pub mean_cycle_hours: f64,
    /// Executions killed by node failures across the intensity's nights.
    pub preemptions: usize,
    /// Node-seconds of recomputed work (and checkpoint-write overhead)
    /// across the intensity's nights.
    pub node_seconds_lost: f64,
    /// Node-seconds preserved across preemptions by checkpoints.
    pub node_seconds_recovered: f64,
}

/// Full campaign result: per-night outcomes (in deterministic
/// `(intensity, night)` order) and per-intensity aggregates.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CampaignReport {
    pub outcomes: Vec<NightOutcome>,
    pub per_intensity: Vec<IntensityStats>,
}

impl CampaignReport {
    /// Render the per-intensity aggregates as a fixed-width table.
    pub fn table_text(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "intensity  nights  success  failovers  hedges  reroutes  retries  shed  \
             mean-hours  preempt  lost-nh  saved-nh\n",
        );
        for i in &self.per_intensity {
            s.push_str(&format!(
                "{:>9.2}  {:>6}  {:>6.0}%  {:>9}  {:>6}  {:>8}  {:>7}  {:>4}  {:>10.2}  \
                 {:>7}  {:>7.1}  {:>8.1}\n",
                i.intensity,
                i.nights,
                100.0 * i.success_rate,
                i.failovers,
                i.hedges,
                i.reroutes,
                i.retries,
                i.shed_cells_total,
                i.mean_cycle_hours,
                i.preemptions,
                i.node_seconds_lost / 3600.0,
                i.node_seconds_recovered / 3600.0,
            ));
        }
        s
    }
}

impl CampaignSpec {
    /// Run one night of the campaign. Pure in `(self, intensity_idx,
    /// night)` — this is what [`CampaignSpec::run`] fans out over
    /// rayon, and what determinism tests call sequentially to check the
    /// parallel fan-out against.
    pub fn run_night(&self, intensity_idx: usize, night: u64) -> NightOutcome {
        let intensity = self.intensities[intensity_idx];
        let mut engine = nightly_engine(
            &self.nightly,
            self.tasks.clone(),
            self.region_rows.clone(),
            FaultPlan::default(),
            self.deadline,
        );
        // Faults are sampled against the remote cluster the night runs on.
        let remote = &engine.env.remote;
        engine.faults = match self.profile {
            FaultProfile::Mixed => sample_fault_plan(self.base_seed, night, intensity, remote),
            FaultProfile::PreemptHeavy => {
                sample_fault_plan_preempt_heavy(self.base_seed, night, intensity, remote)
            }
        };
        let result = engine.run();
        NightOutcome {
            intensity,
            night,
            within_window: result.report.within_window,
            counters: result.report.counters(),
            cycle_secs: result.report.cycle_secs,
        }
    }

    /// Run the full campaign, nights fanned out across rayon workers.
    /// Output order (and content) is independent of worker count.
    ///
    /// Nights are handed out highest fault intensity first: a night's
    /// cost grows with its faults, and a heavy night claimed last would
    /// leave the other workers idle while it runs. The outcomes are put
    /// back in `(intensity, night)` order.
    pub fn run(&self) -> CampaignReport {
        let mut jobs: Vec<(usize, u64)> = self
            .intensities
            .iter()
            .enumerate()
            .flat_map(|(ii, _)| (0..self.nights_per_intensity as u64).map(move |n| (ii, n)))
            .collect();
        // Stable: equal intensities keep their (intensity, night) order.
        jobs.sort_by(|a, b| self.intensities[b.0].total_cmp(&self.intensities[a.0]));
        let mut ran: Vec<((usize, u64), NightOutcome)> =
            jobs.par_iter().map(|&(ii, night)| ((ii, night), self.run_night(ii, night))).collect();
        ran.sort_unstable_by_key(|r| r.0);
        let outcomes: Vec<NightOutcome> = ran.into_iter().map(|r| r.1).collect();

        let per_intensity = self
            .intensities
            .iter()
            .enumerate()
            .map(|(ii, &intensity)| {
                let nights: Vec<&NightOutcome> = outcomes
                    [ii * self.nights_per_intensity..(ii + 1) * self.nights_per_intensity]
                    .iter()
                    .collect();
                let successes = nights.iter().filter(|o| o.within_window).count();
                let mut shed: Vec<u32> = nights.iter().map(|o| o.counters.shed_cells).collect();
                shed.sort_unstable();
                let mut shed_distribution: Vec<(u32, usize)> = Vec::new();
                for &c in &shed {
                    match shed_distribution.last_mut() {
                        Some((v, n)) if *v == c => *n += 1,
                        _ => shed_distribution.push((c, 1)),
                    }
                }
                let n = nights.len().max(1);
                IntensityStats {
                    intensity,
                    nights: nights.len(),
                    successes,
                    success_rate: successes as f64 / n as f64,
                    failovers: nights.iter().map(|o| o.counters.failovers).sum(),
                    hedges: nights.iter().map(|o| o.counters.hedges).sum(),
                    reroutes: nights.iter().map(|o| o.counters.reroutes).sum(),
                    retries: nights.iter().map(|o| o.counters.retries).sum(),
                    shed_cells_total: nights.iter().map(|o| o.counters.shed_cells).sum(),
                    shed_distribution,
                    mean_cycle_hours: nights.iter().map(|o| o.cycle_secs).sum::<f64>()
                        / 3600.0
                        / n as f64,
                    preemptions: nights.iter().map(|o| o.counters.preemptions).sum(),
                    node_seconds_lost: nights.iter().map(|o| o.counters.node_seconds_lost).sum(),
                    node_seconds_recovered: nights
                        .iter()
                        .map(|o| o.counters.node_seconds_recovered)
                        .sum(),
                }
            })
            .collect();
        CampaignReport { outcomes, per_intensity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_plans_are_deterministic_and_scale_with_intensity() {
        let remote = ClusterSpec::bridges();
        let a = sample_fault_plan(11, 3, 0.8, &remote);
        let b = sample_fault_plan(11, 3, 0.8, &remote);
        assert_eq!(a, b);
        assert_ne!(a, sample_fault_plan(11, 4, 0.8, &remote), "nights decorrelate");
        assert_ne!(a, sample_fault_plan(12, 3, 0.8, &remote), "seeds decorrelate");
        assert!(sample_fault_plan(11, 3, 0.0, &remote).is_quiet());
        // Intensity bounds every probability.
        for night in 0..32 {
            let p = sample_fault_plan(7, night, 1.0, &remote);
            assert!((0.0..=0.6).contains(&p.link.fail_prob));
            assert!((0.0..=0.6).contains(&p.db_exhaust_prob));
            assert!((0.25..=1.0).contains(&p.db_keep_fraction));
            assert!((0.0..=0.3).contains(&p.straggler_prob));
            for f in &p.node_failures {
                assert!(f.nodes <= remote.nodes);
                assert!(f.at_secs <= remote.window_secs() as f64);
            }
        }
    }

    #[test]
    fn ckpt_preempt_heavy_profile_is_preemptions_only() {
        let remote = ClusterSpec::bridges();
        let a = sample_fault_plan_preempt_heavy(11, 3, 0.8, &remote);
        assert_eq!(a, sample_fault_plan_preempt_heavy(11, 3, 0.8, &remote), "deterministic");
        assert!(sample_fault_plan_preempt_heavy(11, 3, 0.0, &remote).is_quiet());
        for night in 0..32 {
            let p = sample_fault_plan_preempt_heavy(7, night, 1.0, &remote);
            // Everything but node failures stays quiet.
            assert_eq!(p.link.fail_prob, 0.0);
            assert_eq!(p.db_exhaust_prob, 0.0);
            assert_eq!(p.straggler_prob, 0.0);
            assert_eq!(p.db_slow_prob, 0.0);
            assert!(!p.node_failures.is_empty(), "night {night} injected no preemptions");
            for f in &p.node_failures {
                assert!(f.nodes >= 1 && f.nodes < remote.nodes, "partial losses only");
                assert!((0.0..=3600.0).contains(&f.at_secs), "kills land in the first hour");
            }
        }
    }

    #[test]
    fn total_kill_appears_at_high_intensity() {
        let remote = ClusterSpec::bridges();
        let kills = (0..64)
            .filter(|&n| {
                sample_fault_plan(5, n, 1.0, &remote)
                    .node_failures
                    .iter()
                    .any(|f| f.nodes == remote.nodes)
            })
            .count();
        assert!(kills > 5, "p=0.4 over 64 nights: got {kills} total kills");
        let low_kills = (0..64)
            .filter(|&n| {
                sample_fault_plan(5, n, 0.5, &remote)
                    .node_failures
                    .iter()
                    .any(|f| f.nodes == remote.nodes)
            })
            .count();
        assert_eq!(low_kills, 0, "no total kills below intensity 0.75");
    }
}

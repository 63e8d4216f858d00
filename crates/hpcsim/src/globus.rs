//! Globus-like data transfers between the home and remote clusters.
//!
//! Only two properties of the real Globus service matter to the
//! workflow timeline: the volume moved (Table I/II accounting) and the
//! duration (a bandwidth + per-transfer overhead model; Globus streams
//! large files at near-line rate but pays checksumming and handshake
//! overheads per transfer).

use crate::cluster::Site;
use serde::{Deserialize, Serialize};

/// A link between the two sites.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobusLink {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Fixed per-transfer overhead in seconds (handshake, checksum
    /// pipelining ramp-up).
    pub overhead_secs: f64,
}

impl Default for GlobusLink {
    fn default() -> Self {
        // Internet2 between UVA and PSC: ~1 GB/s sustained is
        // optimistic; 250 MB/s is a realistic Globus-observed rate.
        GlobusLink { bandwidth_bps: 250e6, overhead_secs: 30.0 }
    }
}

/// One executed transfer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    pub from: Site,
    pub to: Site,
    pub bytes: u64,
    pub label: String,
    /// Start time, seconds on the workflow clock.
    pub start_secs: f64,
    pub duration_secs: f64,
}

impl GlobusLink {
    /// Transfer duration for a payload.
    pub fn duration_secs(&self, bytes: u64) -> f64 {
        self.overhead_secs + bytes as f64 / self.bandwidth_bps
    }
}

/// Seeded fault model for a link: each transfer attempt independently
/// drops mid-flight with probability `fail_prob`, and each completing
/// attempt independently straggles (congestion, checksum retransmits)
/// with probability `slow_prob`, stretching to `slow_factor ×` its
/// nominal duration. Outcomes are a pure function of `(seed, label,
/// attempt)` — no stream state — so a workflow resumed from a journal
/// replays exactly the outcomes the interrupted run saw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Per-attempt probability of a mid-flight drop.
    pub fail_prob: f64,
    pub seed: u64,
    /// Per-attempt probability a completing transfer straggles.
    pub slow_prob: f64,
    /// Duration multiplier for straggling transfers.
    pub slow_factor: f64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults { fail_prob: 0.0, seed: 0, slow_prob: 0.0, slow_factor: 1.0 }
    }
}

/// Deterministic draw in `[0, 1)` from `(seed, label, key)`: FNV-1a
/// over the label mixed with the key, finished with the SplitMix64
/// avalanche. Every seeded fault in the workflow (link drops here, and
/// the orchestrator's stragglers and database faults) is one such draw.
pub fn fault_unit(seed: u64, label: &str, key: u64) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in label.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(key.wrapping_add(1)));
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl LinkFaults {
    pub fn new(fail_prob: f64, seed: u64) -> Self {
        LinkFaults { fail_prob, seed, ..LinkFaults::default() }
    }

    /// Add a straggling-transfer mode: probability `slow_prob` of a
    /// completing attempt taking `slow_factor ×` its nominal time.
    pub fn with_slowdown(self, slow_prob: f64, slow_factor: f64) -> Self {
        LinkFaults { slow_prob, slow_factor, ..self }
    }

    /// Does attempt `attempt` of the transfer named `label` drop?
    pub fn attempt_fails(&self, label: &str, attempt: u32) -> bool {
        self.fail_prob > 0.0 && fault_unit(self.seed, label, attempt.into()) < self.fail_prob
    }

    /// Duration multiplier for attempt `attempt` of the transfer named
    /// `label` (1.0 unless the straggle draw fires).
    pub fn slowdown(&self, label: &str, attempt: u32) -> f64 {
        if self.slow_prob > 0.0
            && fault_unit(self.seed ^ 0x5851_F42D_4C95_7F2D, label, attempt.into()) < self.slow_prob
        {
            self.slow_factor
        } else {
            1.0
        }
    }

    /// Fraction of the payload moved before the drop, in [0.05, 0.95]
    /// (a drop at 0% or 100% would be indistinguishable from an instant
    /// retry or a success).
    pub fn failure_fraction(&self, label: &str, attempt: u32) -> f64 {
        0.05 + 0.90 * fault_unit(self.seed ^ 0xD1B5_4A32_D192_ED03, label, attempt.into())
    }
}

impl GlobusLink {
    /// One transfer attempt under a fault model: `Ok(duration_secs)` if
    /// it completes (possibly stretched by a straggle draw),
    /// `Err(wasted_secs)` if it drops partway through (handshake
    /// overhead plus the partial stream time is lost — Globus restarts
    /// failed transfers from checkpoint boundaries, modeled here as a
    /// full restart).
    pub fn attempt(
        &self,
        faults: &LinkFaults,
        label: &str,
        attempt: u32,
        bytes: u64,
    ) -> Result<f64, f64> {
        let full = self.duration_secs(bytes);
        if faults.attempt_fails(label, attempt) {
            let stream = full - self.overhead_secs;
            Err(self.overhead_secs + stream * faults.failure_fraction(label, attempt))
        } else {
            Ok(full * faults.slowdown(label, attempt))
        }
    }
}

/// A ledger of all transfers in a workflow run (drives the Table-II
/// data-movement rows).
#[derive(Clone, Debug, Default)]
pub struct TransferLedger {
    pub transfers: Vec<Transfer>,
}

impl TransferLedger {
    /// Total bytes moved in a direction.
    pub fn bytes_moved(&self, from: Site, to: Site) -> u64 {
        self.transfers.iter().filter(|t| t.from == from && t.to == to).map(|t| t.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_scales_with_size() {
        let link = GlobusLink::default();
        let small = link.duration_secs(100 * 1024 * 1024); // 100 MB config
        let big = link.duration_secs(3_500_000_000_000); // 3.5 TB raw output
        assert!(small < 60.0, "100MB should take under a minute, got {small}");
        assert!(big > 3.0 * 3600.0, "3.5TB should take hours, got {big}");
    }

    #[test]
    fn overhead_dominates_tiny_transfers() {
        let link = GlobusLink::default();
        let d = link.duration_secs(1);
        assert!((d - link.overhead_secs).abs() < 1e-3);
    }

    #[test]
    fn zero_fail_prob_never_fails() {
        let link = GlobusLink::default();
        let faults = LinkFaults::default();
        for attempt in 0..50 {
            assert!(link.attempt(&faults, "configs", attempt, 1_000_000).is_ok());
        }
    }

    #[test]
    fn faults_are_deterministic_and_attempt_dependent() {
        let faults = LinkFaults::new(0.5, 42);
        let outcomes: Vec<bool> = (0..64).map(|a| faults.attempt_fails("raw", a)).collect();
        let replay: Vec<bool> = (0..64).map(|a| faults.attempt_fails("raw", a)).collect();
        assert_eq!(outcomes, replay, "pure function of (seed, label, attempt)");
        assert!(outcomes.iter().any(|&f| f), "p=0.5 over 64 attempts should fail some");
        assert!(outcomes.iter().any(|&f| !f), "…and succeed some");
        // Different labels decorrelate.
        let other: Vec<bool> = (0..64).map(|a| faults.attempt_fails("summaries", a)).collect();
        assert_ne!(outcomes, other);
    }

    #[test]
    fn failed_attempt_wastes_less_than_a_full_transfer() {
        let link = GlobusLink::default();
        let faults = LinkFaults::new(1.0, 7);
        let bytes = 8_700_000_000u64;
        let full = link.duration_secs(bytes);
        for attempt in 0..8 {
            let wasted = link.attempt(&faults, "configs", attempt, bytes).unwrap_err();
            assert!(wasted > link.overhead_secs, "a drop still costs the handshake");
            assert!(wasted < full, "a drop costs less than completing");
        }
    }

    #[test]
    fn straggle_draw_stretches_but_never_fails() {
        let link = GlobusLink::default();
        let faults = LinkFaults::new(0.0, 3).with_slowdown(0.5, 8.0);
        let bytes = 1_000_000_000u64;
        let full = link.duration_secs(bytes);
        let durations: Vec<f64> =
            (0..64).map(|a| link.attempt(&faults, "configs", a, bytes).unwrap()).collect();
        let replay: Vec<f64> =
            (0..64).map(|a| link.attempt(&faults, "configs", a, bytes).unwrap()).collect();
        assert_eq!(durations, replay, "pure function of (seed, label, attempt)");
        assert!(durations.iter().any(|&d| (d - full).abs() < 1e-9), "some attempts run nominal");
        assert!(durations.iter().any(|&d| (d - 8.0 * full).abs() < 1e-9), "some straggle 8×");
        // Straggle and drop draws are decorrelated.
        let both = LinkFaults::new(0.5, 3).with_slowdown(0.5, 8.0);
        let slow: Vec<bool> = (0..64).map(|a| both.slowdown("x", a) > 1.0).collect();
        let fail: Vec<bool> = (0..64).map(|a| both.attempt_fails("x", a)).collect();
        assert_ne!(slow, fail);
    }

    #[test]
    fn one_time_2tb_network_transfer_is_hours_not_days() {
        // Table II: 2 TB one-time transfer of traits + networks.
        let link = GlobusLink::default();
        let d = link.duration_secs(2_000_000_000_000);
        assert!((3600.0..86_400.0).contains(&d), "2TB in {d} s");
    }
}

//! What every workload provides, and the bookkeeping they share.

use crate::host::Fnv;
use crate::stats::{median, paired_ratio};
use crate::trace::{Tracer, SETUP};
use epiflow::epihiper::SimOutput;

/// One workload: a closed loop of identical iterations over inputs
/// generated from the workload seed.
pub trait Workload: Sized {
    /// Build the program's long-lived inputs (what `setup_s` times).
    fn setup(seed: u64, trace: &Tracer) -> Self;

    /// Generate the remaining inputs and the reference outputs the
    /// checks compare against. Its time is discarded, and it warms the
    /// caches the iterations then find filled.
    fn warm_up(&mut self, trace: &Tracer, checks: &mut Checks);

    /// One iteration: the seconds its calls into the program took. The
    /// checks on its outputs run after the clock stops.
    fn iterate(&mut self, trace: &Tracer, checks: &mut Checks) -> f64;

    /// Fingerprint of the last iteration's (or the warm-up's) outputs.
    fn digest(&self) -> u64;

    /// Checks that need a traced run's extra work (none by default).
    fn traced_checks(&mut self, _checks: &mut Checks) {}

    /// Per-layer metrics over the traced `iterations`.
    fn layer_metrics(&self, d: &Derive) -> Vec<(&'static str, f64)>;
}

/// Operations attempted and correctness checks failed. A simulation
/// run, a simulated night and each check count as one operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }
}

/// Reads per-layer numbers out of a tracer for a set of iterations.
pub struct Derive<'a> {
    pub trace: &'a Tracer,
    pub iterations: &'a [u32],
    pub workers: usize,
}

impl Derive<'_> {
    /// Median over iterations of the summed time of spans `name`.
    pub fn span(&self, name: &str) -> f64 {
        median(&self.trace.span_secs(name, self.iterations))
    }

    /// Duration of the set-up span `name`.
    pub fn setup_span(&self, name: &str) -> f64 {
        self.trace.span_secs(name, &[SETUP])[0]
    }

    /// Median over iterations of counter `name`.
    pub fn count(&self, name: &str) -> f64 {
        median(&self.trace.counts(name, self.iterations))
    }

    /// Value of the set-up counter `name`.
    pub fn setup_count(&self, name: &str) -> f64 {
        self.trace.counts(name, &[SETUP])[0]
    }

    /// Median over iterations of the per-iteration ratio of two counters.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        paired_ratio(
            &self.trace.counts(num, self.iterations),
            &self.trace.counts(den, self.iterations),
        )
    }
}

/// Derive the `stream`-th independent 64-bit value from a seed
/// (splitmix64), so every generated input depends on the seed alone.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every tick's per-state occupancy adds up to the population.
pub fn conserves_population(out: &SimOutput, persons: usize) -> bool {
    !out.current_counts.is_empty()
        && out
            .current_counts
            .iter()
            .all(|row| row.iter().map(|&c| c as usize).sum::<usize>() == persons)
}

/// Transitions applied over the run: the sum of the per-tick new counts.
pub fn transitions(out: &SimOutput) -> u64 {
    out.new_counts.iter().flatten().map(|&c| c as u64).sum()
}

/// Fold a run's aggregate output into `h`.
pub fn hash_output(h: &mut Fnv, out: &SimOutput) {
    for row in
        out.new_counts.iter().chain(&out.current_counts).chain(out.county_new.iter().flatten())
    {
        h.u64(row.len() as u64);
        for &c in row {
            h.bytes(&c.to_le_bytes());
        }
    }
    for t in &out.transitions {
        h.u64(((t.tick as u64) << 32) | t.person as u64);
        h.u64(((t.state as u64) << 32) | t.cause.unwrap_or(u32::MAX) as u64);
    }
    h.u64(((out.requested_seeds as u64) << 32) | out.seeded as u64);
}

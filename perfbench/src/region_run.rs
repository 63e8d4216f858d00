//! `region_run`: one large simulation per replicate, interrupted at a
//! mid-run tick, checkpointed through the on-disk snapshot format and
//! resumed on the shared context. The partition-parallel frontier scan
//! does the work; the ensemble runner and calibration do none.

use crate::host::Fnv;
use crate::trace::Tracer;
use crate::workload::{
    conserves_population, hash_output, mix, transitions, Checks, Derive, Workload,
};
use epiflow::core::runner::{configure_interventions, configure_model};
use epiflow::core::{CellConfig, EnsembleRunner};
use epiflow::epihiper::{EngineStats, SimConfig, SimOutput, SimResult, SimSnapshot, Simulation};
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::builder::RegionData;
use epiflow::synthpop::{build_region, BuildConfig};
use std::time::Instant;

/// DE at 1/5 scale: about 198k persons and 806k contacts, a working set
/// of tens of MB, far beyond the L2 caches.
const SCALE_PER: f64 = 5.0;
const N_PARTITIONS: usize = 4;
const DAYS: u32 = 150;
const MID_TICK: u32 = 75;
const REPLICATES: u64 = 2;

pub struct RegionRun {
    seed: u64,
    data: RegionData,
    runner: EnsembleRunner,
    cell: CellConfig,
    /// Uninterrupted output and engine counters per replicate.
    reference: Vec<(SimOutput, EngineStats)>,
    digest: u64,
}

impl RegionRun {
    fn config(&self, replicate: u64, ticks: u32) -> SimConfig {
        let ctx = self.runner.context();
        SimConfig {
            ticks,
            seed: mix(self.seed, 100 + replicate),
            n_partitions: ctx.n_partitions,
            epsilon: ctx.epsilon,
            initial_infections: self.cell.initial_infections,
            record_transitions: false,
            ..Default::default()
        }
    }

    fn simulation(&self, config: SimConfig) -> Simulation {
        Simulation::new_with_context(
            self.runner.context().clone(),
            configure_model(&self.cell),
            configure_interventions(&self.cell),
            config,
        )
    }
}

impl Workload for RegionRun {
    fn setup(seed: u64, t: &Tracer) -> Self {
        let registry = RegionRegistry::new();
        let id = registry.by_abbrev("DE").expect("DE is a registered region").id;
        let config = BuildConfig {
            scale: Scale::one_per(SCALE_PER),
            seed: mix(seed, 1),
            ..Default::default()
        };
        let data = t.span("synthpop.build", || build_region(&registry, id, &config));
        t.count("synthpop.persons", data.population.len() as f64);
        t.count("synthpop.edges", data.network.n_edges() as f64);
        let runner = t.span("epihiper.context", || EnsembleRunner::new(&data, N_PARTITIONS));
        RegionRun {
            seed,
            data,
            runner,
            cell: CellConfig::default(),
            reference: Vec::new(),
            digest: 0,
        }
    }

    fn warm_up(&mut self, _t: &Tracer, checks: &mut Checks) {
        // Weak NPIs: a short, lax stay-at-home order and no school
        // closure within the horizon, so the wave runs through most of
        // the population and the frontier scan carries the cost.
        self.cell = CellConfig {
            days: DAYS,
            transmissibility: 0.2,
            sc_start: DAYS + 1,
            sh_start: 60,
            sh_end: 120,
            sh_compliance: 0.3,
            vhi_compliance: 0.3,
            initial_infections: (self.data.population.len() / 2000).max(5),
            ..CellConfig::default()
        };
        let mut h = Fnv::new();
        self.reference = (0..REPLICATES)
            .map(|r| {
                let done = self.simulation(self.config(r, DAYS)).run();
                hash_output(&mut h, &done.output);
                (done.output, done.stats)
            })
            .collect();
        checks.ops(self.reference.len());
        self.digest = h.0;
    }

    fn iterate(&mut self, t: &Tracer, checks: &mut Checks) -> f64 {
        struct Leg {
            first: SimResult,
            snapshot: SimSnapshot,
            bytes: usize,
            resumed: Result<SimResult, String>,
        }
        let start = Instant::now();
        let legs: Vec<Leg> = (0..REPLICATES)
            .map(|r| {
                let mut sim = self.simulation(self.config(r, MID_TICK));
                let first = t.span("epihiper.run", || sim.run());
                let (snapshot, encoded) = t.span("epihiper.snapshot", || {
                    let snapshot = sim.snapshot();
                    let encoded = snapshot.encode();
                    (snapshot, encoded)
                });
                let resumed = t
                    .span("epihiper.resume", || {
                        let decoded = SimSnapshot::decode(&encoded).map_err(|e| e.to_string())?;
                        Simulation::resume_with_context(
                            self.runner.context().clone(),
                            configure_model(&self.cell),
                            configure_interventions(&self.cell),
                            self.config(r, DAYS),
                            &decoded,
                        )
                        .map_err(|e| e.to_string())
                    })
                    .map(|mut sim| t.span("epihiper.run", || sim.run()));
                Leg { first, snapshot, bytes: encoded.len(), resumed }
            })
            .collect();
        let secs = start.elapsed().as_secs_f64();

        let persons = self.data.population.len();
        let mut h = Fnv::new();
        checks.ops(legs.len());
        for (r, (leg, (ref_out, ref_stats))) in legs.iter().zip(&self.reference).enumerate() {
            let encoded = leg.snapshot.encode();
            checks.check(SimSnapshot::decode(&encoded).as_ref() == Ok(&leg.snapshot), || {
                format!("replicate {r}: snapshot does not survive encode/decode")
            });
            let done = match &leg.resumed {
                Ok(done) => done,
                Err(e) => {
                    checks.check(false, || format!("replicate {r}: resume failed: {e}"));
                    continue;
                }
            };
            checks.check(&done.output == ref_out && &done.stats == ref_stats, || {
                format!("replicate {r}: resumed run differs from the uninterrupted one")
            });
            checks.check(conserves_population(&done.output, persons), || {
                format!("replicate {r}: occupancy does not sum to {persons}")
            });
            hash_output(&mut h, &done.output);
            let loop_secs = leg.first.elapsed.as_secs_f64() + done.elapsed.as_secs_f64();
            t.count("epihiper.tick_loop_s", loop_secs);
            t.count("epihiper.job_ticks", DAYS as f64);
            t.count("epihiper.agent_days", DAYS as f64 * persons as f64);
            t.count("epihiper.edges_scanned", done.stats.total_edges_scanned() as f64);
            t.count("epihiper.frontier_occupancy", done.stats.mean_frontier_occupancy(persons));
            t.count("epihiper.events", transitions(&done.output) as f64);
            t.count("epihiper.snapshot_bytes", leg.bytes as f64);
        }
        self.digest = h.0;
        secs
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn layer_metrics(&self, d: &Derive) -> Vec<(&'static str, f64)> {
        let per_leg =
            |name: &str| crate::stats::median(&d.trace.each_span_secs(name, d.iterations));
        let occupancy = d.trace.values("epihiper.frontier_occupancy", d.iterations);
        vec![
            ("synthpop.build_s", d.setup_span("synthpop.build")),
            ("synthpop.persons", d.setup_count("synthpop.persons")),
            ("synthpop.edges", d.setup_count("synthpop.edges")),
            ("epihiper.context_s", d.setup_span("epihiper.context")),
            ("epihiper.tick_loop_s", d.count("epihiper.tick_loop_s")),
            ("epihiper.us_per_tick", 1e6 * d.ratio("epihiper.tick_loop_s", "epihiper.job_ticks")),
            ("epihiper.agent_days_per_s", d.ratio("epihiper.agent_days", "epihiper.tick_loop_s")),
            ("epihiper.edges_scanned", d.count("epihiper.edges_scanned")),
            ("epihiper.edges_per_s", d.ratio("epihiper.edges_scanned", "epihiper.tick_loop_s")),
            ("epihiper.frontier_occupancy", crate::stats::median(&occupancy)),
            ("epihiper.events", d.count("epihiper.events")),
            ("epihiper.snapshot_s", per_leg("epihiper.snapshot")),
            (
                "epihiper.snapshot_bytes",
                crate::stats::median(&d.trace.values("epihiper.snapshot_bytes", d.iterations)),
            ),
            ("epihiper.resume_s", per_leg("epihiper.resume")),
        ]
    }
}

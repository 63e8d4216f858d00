//! Executing ⟨cell, region, replicate⟩ grids of EpiHiper simulations.
//!
//! The nightly production shape is *many runs, one model*: thousands of
//! replicates against the same immutable contact network. The
//! [`EnsembleRunner`] exploits that by building one shared
//! [`SimContext`] per ⟨region, partition count⟩ — CSR network,
//! partitioning, per-node attributes — and fanning the cells×replicates
//! grid out over rayon, so per-replicate cost is the per-run mutable
//! state and the tick loop, nothing else. The
//! free-standing [`run_cell`] is a one-off runner (one context per
//! call); results are byte-identical for the same seeds either way.

use crate::design::{CellConfig, ExtraIntervention, StudyDesign};
use epiflow_epihiper::covid::{covid19_model, states};
use epiflow_epihiper::disease::N_AGE_GROUPS;
use epiflow_epihiper::interventions::{
    base_case, ContactTracing, PartialReopening, PulsingShutdown, TestAndIsolate,
};
use epiflow_epihiper::{
    DiseaseModel, InterventionSet, SimConfig, SimContext, SimOutput, SimResult, Simulation,
};
use epiflow_surveillance::RegionId;
use epiflow_synthpop::builder::RegionData;
use rayon::prelude::*;
use std::sync::Arc;

/// Partitioning tolerance ε used by every workflow runner.
const EPSILON: usize = 16;

/// Summary of one simulation run (the "summary output" shipped back to
/// the home cluster — aggregates, not raw transitions).
#[derive(Clone, Debug)]
pub struct CellRunSummary {
    pub region: RegionId,
    pub cell: u32,
    pub replicate: u32,
    /// log(1 + cumulative symptomatic) per day — the calibration
    /// observable.
    pub log_cum_symptomatic: Vec<f64>,
    /// Daily new symptomatic cases.
    pub daily_cases: Vec<f64>,
    /// The full aggregate output (no transition log unless requested).
    pub output: SimOutput,
    /// Wall-clock runtime of the tick loop.
    pub elapsed_secs: f64,
    /// Peak estimated resident memory in bytes.
    pub peak_memory_bytes: u64,
}

/// Apply a cell's disease-parameter overrides to the COVID-19 model.
pub fn configure_model(cell: &CellConfig) -> DiseaseModel {
    let mut model = covid19_model();
    model.transmissibility = cell.transmissibility;
    // Symptomatic fraction: rebalance the Exposed branch.
    let symp = cell.symptomatic_fraction.clamp(0.0, 1.0);
    for p in &mut model.progressions {
        if p.from == states::EXPOSED {
            let target = if p.to == states::ASYMPTOMATIC { 1.0 - symp } else { symp };
            p.prob = [target; N_AGE_GROUPS];
        }
    }
    debug_assert!(model.validate().is_ok());
    model
}

/// Build the intervention stack for a cell: the base VHI+SC+SH plus any
/// extras.
pub fn configure_interventions(cell: &CellConfig) -> InterventionSet {
    let mut set = base_case(
        states::SYMPTOMATIC,
        cell.sc_start,
        cell.sh_start,
        cell.sh_end,
        cell.sh_compliance,
        cell.vhi_compliance,
    );
    for extra in &cell.extras {
        match *extra {
            ExtraIntervention::Ro { day, level } => {
                set.push(Box::new(PartialReopening { day, level }));
            }
            ExtraIntervention::Ta { start, detection } => {
                set.push(Box::new(TestAndIsolate {
                    asymptomatic: states::ASYMPTOMATIC,
                    detection,
                    duration: 14,
                    start,
                }));
            }
            ExtraIntervention::Ps { start, on_days, off_days } => {
                set.push(Box::new(PulsingShutdown::new(
                    start,
                    on_days,
                    off_days,
                    cell.sh_compliance,
                )));
            }
            ExtraIntervention::D1ct { detection, compliance } => {
                set.push(Box::new(ContactTracing {
                    symptomatic: states::SYMPTOMATIC,
                    detection,
                    compliance,
                    duration: 14,
                    distance: 1,
                }));
            }
            ExtraIntervention::D2ct { detection, compliance } => {
                set.push(Box::new(ContactTracing {
                    symptomatic: states::SYMPTOMATIC,
                    detection,
                    compliance,
                    duration: 14,
                    distance: 2,
                }));
            }
        }
    }
    set
}

/// Derive the static per-node attribute vectors from a region's
/// synthetic population — done once per ensemble, not per replicate.
fn derive_attributes(data: &RegionData) -> (Vec<u8>, Vec<u16>) {
    let age_group = data.population.persons.iter().map(|p| p.age_group().index() as u8).collect();
    let county = data.population.persons.iter().map(|p| p.county).collect();
    (age_group, county)
}

/// The per-replicate [`SimConfig`] of one ⟨cell, replicate⟩ run.
fn cell_sim_config(
    cell: &CellConfig,
    seed: u64,
    n_partitions: usize,
    record_transitions: bool,
) -> SimConfig {
    SimConfig {
        ticks: cell.days,
        seed,
        n_partitions,
        epsilon: EPSILON,
        initial_infections: cell.initial_infections,
        record_transitions,
        ..Default::default()
    }
}

/// The replicate seed: region, cell, and replicate occupy disjoint bit
/// ranges so every job in a national nightly design draws an
/// independent counter-RNG stream.
fn replicate_seed(base_seed: u64, region: RegionId, cell: u32, replicate: u32) -> u64 {
    base_seed ^ (region as u64) << 40 ^ (cell as u64) << 16 ^ replicate as u64
}

/// Aggregate one finished run into the summary shipped back to the
/// home cluster.
fn summarize(
    region: RegionId,
    cell: &CellConfig,
    replicate: u32,
    result: SimResult,
) -> CellRunSummary {
    let cum = result.output.cumulative(states::SYMPTOMATIC);
    let log_cum: Vec<f64> = cum.iter().map(|&c| (c as f64 + 1.0).ln()).collect();
    let daily: Vec<f64> =
        result.output.daily_new(states::SYMPTOMATIC).iter().map(|&x| x as f64).collect();
    let peak_mem = result.output.memory_bytes.iter().copied().max().unwrap_or(0);

    CellRunSummary {
        region,
        cell: cell.cell,
        replicate,
        log_cum_symptomatic: log_cum,
        daily_cases: daily,
        output: result.output,
        elapsed_secs: result.elapsed.as_secs_f64(),
        peak_memory_bytes: peak_mem,
    }
}

/// Run one ⟨cell, region, replicate⟩ simulation on a context built for
/// this run alone. Ensemble traffic should build one [`EnsembleRunner`]
/// and run every replicate against it, which amortizes the network
/// build and produces byte-identical results.
pub fn run_cell(
    data: &RegionData,
    cell: &CellConfig,
    replicate: u32,
    n_partitions: usize,
    record_transitions: bool,
    base_seed: u64,
) -> CellRunSummary {
    EnsembleRunner::new(data, n_partitions).run_cell(cell, replicate, record_transitions, base_seed)
}

/// Executes the simulations of one region's nightly design against a
/// single shared immutable [`SimContext`].
///
/// Construction pays the O(V + E) network build, partitioning, and
/// attribute derivation exactly once; every [`EnsembleRunner::run_cell`]
/// after that only allocates the per-replicate mutable state. All of it
/// is byte-identical to a run on a fresh context ([`run_cell`]) for the
/// same seeds — the context carries no state that can influence results.
pub struct EnsembleRunner {
    region: RegionId,
    ctx: Arc<SimContext>,
}

impl EnsembleRunner {
    /// Build the shared context for ⟨region, `n_partitions`⟩.
    pub fn new(data: &RegionData, n_partitions: usize) -> Self {
        let (age_group, county) = derive_attributes(data);
        let ctx =
            Arc::new(SimContext::build(&data.network, age_group, county, n_partitions, EPSILON));
        EnsembleRunner { region: data.region, ctx }
    }

    /// The shared context (e.g. for [`Simulation::resume_with_context`]).
    pub fn context(&self) -> &Arc<SimContext> {
        &self.ctx
    }

    /// Run one ⟨cell, replicate⟩ against the shared context.
    pub fn run_cell(
        &self,
        cell: &CellConfig,
        replicate: u32,
        record_transitions: bool,
        base_seed: u64,
    ) -> CellRunSummary {
        let model = configure_model(cell);
        let interventions = configure_interventions(cell);
        let seed = replicate_seed(base_seed, self.region, cell.cell, replicate);
        let mut sim = Simulation::new_with_context(
            self.ctx.clone(),
            model,
            interventions,
            cell_sim_config(cell, seed, self.ctx.n_partitions, record_transitions),
        );
        summarize(self.region, cell, replicate, sim.run())
    }

    /// Run a full design, parallel over ⟨cell, replicate⟩. Jobs carry
    /// the cell's *index*, so dispatch is O(1) per job regardless of
    /// design size.
    pub fn run_design(&self, design: &StudyDesign, base_seed: u64) -> Vec<CellRunSummary> {
        let jobs: Vec<(usize, u32)> = design
            .cells
            .iter()
            .enumerate()
            .flat_map(|(i, _)| (0..design.replicates).map(move |r| (i, r)))
            .collect();
        jobs.par_iter()
            .map(|&(ci, rep)| self.run_cell(&design.cells[ci], rep, false, base_seed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epiflow_surveillance::{RegionRegistry, Scale};
    use epiflow_synthpop::{build_region, BuildConfig};

    fn small_region() -> RegionData {
        let reg = RegionRegistry::new();
        let id = reg.by_abbrev("DE").unwrap().id;
        build_region(&reg, id, &BuildConfig { scale: Scale::one_per(4000.0), seed: 3 })
    }

    #[test]
    fn configure_model_rebalances_symptomatic_fraction() {
        let cell = CellConfig { symptomatic_fraction: 0.8, ..Default::default() };
        let m = configure_model(&cell);
        m.validate().unwrap();
        let asym =
            m.progressions_from(states::EXPOSED).find(|p| p.to == states::ASYMPTOMATIC).unwrap();
        assert!((asym.prob[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn configure_interventions_base_plus_extras() {
        let mut cell = CellConfig::default();
        cell.extras.push(ExtraIntervention::Ro { day: 100, level: 0.5 });
        cell.extras.push(ExtraIntervention::D2ct { detection: 0.5, compliance: 0.5 });
        let set = configure_interventions(&cell);
        assert_eq!(set.names(), vec!["VHI", "SC", "SH", "RO", "D2CT"]);
    }

    #[test]
    fn run_cell_produces_epidemic_and_observables() {
        let data = small_region();
        let cell = CellConfig {
            days: 80,
            transmissibility: 0.35,
            sh_start: 200, // no SH within horizon
            sc_start: 200,
            initial_infections: 8,
            ..Default::default()
        };
        let s = run_cell(&data, &cell, 0, 2, true, 7);
        assert_eq!(s.log_cum_symptomatic.len(), 80);
        // Monotone log-cumulative.
        assert!(s.log_cum_symptomatic.windows(2).all(|w| w[1] >= w[0]));
        assert!(
            *s.log_cum_symptomatic.last().unwrap() > (5.0f64).ln(),
            "epidemic too small: {:?}",
            s.log_cum_symptomatic.last()
        );
        assert!(s.peak_memory_bytes > 0);
    }

    #[test]
    fn replicates_differ_cells_reproducible() {
        let data = small_region();
        let cell = CellConfig { days: 60, ..Default::default() };
        let a = run_cell(&data, &cell, 0, 2, false, 11);
        let a2 = run_cell(&data, &cell, 0, 2, false, 11);
        let b = run_cell(&data, &cell, 1, 2, false, 11);
        assert_eq!(a.log_cum_symptomatic, a2.log_cum_symptomatic);
        assert_ne!(a.log_cum_symptomatic, b.log_cum_symptomatic);
    }

    #[test]
    fn higher_transmissibility_more_cases() {
        let data = small_region();
        let lo = CellConfig {
            days: 90,
            transmissibility: 0.08,
            sh_start: 300,
            sc_start: 300,
            ..Default::default()
        };
        let hi = CellConfig { transmissibility: 0.4, ..lo.clone() };
        let a = run_cell(&data, &lo, 0, 2, false, 5);
        let b = run_cell(&data, &hi, 0, 2, false, 5);
        assert!(
            b.log_cum_symptomatic.last().unwrap() > a.log_cum_symptomatic.last().unwrap(),
            "hi tau {:?} vs lo tau {:?}",
            b.log_cum_symptomatic.last(),
            a.log_cum_symptomatic.last()
        );
    }

    #[test]
    fn run_design_full_grid() {
        let data = small_region();
        let design = StudyDesign {
            cells: vec![
                CellConfig { cell: 0, days: 40, ..Default::default() },
                CellConfig { cell: 1, days: 40, transmissibility: 0.3, ..Default::default() },
            ],
            replicates: 3,
        };
        let runs = EnsembleRunner::new(&data, 2).run_design(&design, 1);
        assert_eq!(runs.len(), 6);
        // Every (cell, replicate) pair present.
        for c in 0..2u32 {
            for r in 0..3u32 {
                assert!(runs.iter().any(|s| s.cell == c && s.replicate == r));
            }
        }
    }

    /// The headline ensemble invariant at the workflow layer: a shared
    /// context reused across replicates produces byte-identical output
    /// to a one-off context on every ⟨cell, replicate⟩ — aggregates
    /// *and* transition logs.
    #[test]
    fn ensemble_runner_byte_identical_to_fresh_build() {
        let data = small_region();
        let cells = [
            CellConfig { cell: 0, days: 50, sh_start: 30, ..Default::default() },
            CellConfig { cell: 1, days: 50, transmissibility: 0.3, ..Default::default() },
        ];
        for parts in [1usize, 4] {
            let runner = EnsembleRunner::new(&data, parts);
            for cell in &cells {
                for rep in 0..2u32 {
                    let fresh = run_cell(&data, cell, rep, parts, true, 11);
                    let shared = runner.run_cell(cell, rep, true, 11);
                    assert_eq!(
                        shared.output, fresh.output,
                        "cell {} rep {rep} parts {parts} diverged",
                        cell.cell
                    );
                    assert_eq!(shared.log_cum_symptomatic, fresh.log_cum_symptomatic);
                    assert_eq!(shared.peak_memory_bytes, fresh.peak_memory_bytes);
                }
            }
        }
    }

    /// run_design keeps the exact per-job outputs of single fresh runs,
    /// in cell-major order, even
    /// when jobs of very different lengths outnumber the workers — so
    /// dynamic claiming changes which worker runs which job from one
    /// call to the next.
    #[test]
    fn run_design_matches_per_job_fresh_builds() {
        let data = small_region();
        let design = StudyDesign {
            cells: vec![
                CellConfig { cell: 0, days: 10, ..Default::default() },
                CellConfig { cell: 1, days: 90, transmissibility: 0.3, ..Default::default() },
                CellConfig { cell: 2, days: 40, sh_start: 20, ..Default::default() },
            ],
            replicates: 3,
        };
        let runs = EnsembleRunner::new(&data, 2).run_design(&design, 7);
        let order: Vec<(u32, u32)> = runs.iter().map(|s| (s.cell, s.replicate)).collect();
        let cell_major: Vec<(u32, u32)> =
            (0..3).flat_map(|c| (0..design.replicates).map(move |r| (c, r))).collect();
        assert_eq!(order, cell_major);
        for s in &runs {
            let cell = &design.cells[s.cell as usize];
            let fresh = run_cell(&data, cell, s.replicate, 2, false, 7);
            let at = format!("cell {} rep {}", s.cell, s.replicate);
            assert_eq!(s.region, fresh.region, "{at}");
            assert_eq!(s.output, fresh.output, "{at}");
            assert_eq!(s.log_cum_symptomatic, fresh.log_cum_symptomatic, "{at}");
            assert_eq!(s.daily_cases, fresh.daily_cases, "{at}");
            assert_eq!(s.peak_memory_bytes, fresh.peak_memory_bytes, "{at}");
        }
    }

    /// A snapshot taken mid-run on a context-backed simulation resumes
    /// through the same shared context to a byte-identical finish.
    #[test]
    fn context_backed_snapshot_resumes_through_shared_context() {
        use epiflow_epihiper::{SimConfig, Simulation};
        let data = small_region();
        let cell = CellConfig { cell: 3, days: 40, ..Default::default() };
        let runner = EnsembleRunner::new(&data, 2);
        let baseline = runner.run_cell(&cell, 0, true, 5);

        let seed = replicate_seed(5, data.region, cell.cell, 0);
        let interrupted_cfg = SimConfig { ticks: 17, ..cell_sim_config(&cell, seed, 2, true) };
        let mut interrupted = Simulation::new_with_context(
            runner.context().clone(),
            configure_model(&cell),
            configure_interventions(&cell),
            interrupted_cfg,
        );
        interrupted.run();
        let snap = interrupted.snapshot();
        let mut resumed = Simulation::resume_with_context(
            runner.context().clone(),
            configure_model(&cell),
            configure_interventions(&cell),
            cell_sim_config(&cell, seed, 2, true),
            &snap,
        )
        .expect("context-backed snapshot resumes");
        assert_eq!(resumed.run().output, baseline.output);
    }
}

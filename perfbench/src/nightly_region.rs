//! `nightly_region`: one region's calibrate → predict → what-if cycle,
//! composed from the layers' public calls on one shared ensemble
//! context. Many short runs, so per-run and per-tick fixed costs
//! dominate.

use crate::host::Fnv;
use crate::trace::Tracer;
use crate::workload::{
    conserves_population, hash_output, mix, transitions, Checks, Derive, Workload,
};
use epiflow::analytics::{ensemble_band, CostModel, EnsembleBand};
use epiflow::calibrate::{Emulator, GpmsaCalibration, GpmsaConfig, MetropolisConfig, Posterior};
use epiflow::core::{
    run_cell, CalibrationWorkflow, CellConfig, CellRunSummary, EnsembleRunner, FactorialDesign,
    StudyDesign,
};
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::builder::RegionData;
use epiflow::synthpop::{build_region, BuildConfig};
use std::time::Instant;

/// DE at 1/100 scale: about 9.9k persons and 40k contacts, a working
/// set that fits one core's L2, so the tick loop's fixed costs show.
const SCALE_PER: f64 = 100.0;
const N_PARTITIONS: usize = 4;
const PRIOR_CELLS: usize = 32;
const CALIBRATION_DAYS: u32 = 70;
const POSTERIOR_CELLS: usize = 8;
const PREDICTION_REPLICATES: u32 = 4;
const PREDICTION_DAYS: u32 = 126;
const COUNTERFACTUAL_REPLICATES: u32 = 2;
const COUNTERFACTUAL_DAYS: u32 = 120;
/// Runs averaged into the observed curve.
const OBSERVED_REPLICATES: u32 = 4;
/// (TAU, SYMP, SH, VHI) behind the observed curve.
const HIDDEN_THETA: [f64; 4] = [0.27, 0.65, 0.5, 0.5];
/// The recovered transmissibility must land this close to the hidden one.
const TAU_TOLERANCE: f64 = 0.08;

pub struct NightlyRegion {
    seed: u64,
    data: RegionData,
    runner: EnsembleRunner,
    observed: Vec<f64>,
    iteration: usize,
    digest: u64,
}

/// Outputs of one cycle, kept for the checks.
struct Cycle {
    designs: [(StudyDesign, u64, Vec<CellRunSummary>); 3],
    posterior: Posterior,
    posterior_configs: Vec<CellConfig>,
    bands: (EnsembleBand, EnsembleBand),
    costs: Vec<f64>,
}

impl NightlyRegion {
    fn base(&self) -> CellConfig {
        CellConfig {
            days: CALIBRATION_DAYS,
            sc_start: 30,
            sh_start: 40,
            sh_end: 200,
            initial_infections: (self.data.population.len() / 500).max(8),
            ..CellConfig::default()
        }
    }

    fn calibration(&self) -> CalibrationWorkflow {
        CalibrationWorkflow {
            n_prior_cells: PRIOR_CELLS,
            p_eta: 5,
            gpmsa: GpmsaConfig {
                mcmc: MetropolisConfig {
                    iterations: 1500,
                    burn_in: 375,
                    seed: mix(self.seed, 11),
                    ..Default::default()
                },
                gibbs_sweeps: 2,
                ..Default::default()
            },
            base: self.base(),
            n_posterior: POSTERIOR_CELLS,
            n_partitions: N_PARTITIONS,
            seed: mix(self.seed, 12),
        }
    }

    /// One cycle. The calibration step repeats what
    /// `CalibrationWorkflow::run_with` does, call for call, so each layer
    /// gets its own span; `traced_checks` holds the two to the same
    /// posterior.
    fn cycle(&self, t: &Tracer) -> Cycle {
        let wf = self.calibration();
        let prior = StudyDesign::lhs_prior(wf.n_prior_cells, &wf.base, wf.seed);
        let thetas: Vec<Vec<f64>> = prior.cells.iter().map(|c| c.theta().to_vec()).collect();
        let cal_runs =
            t.span("runner.design.calibration", || self.runner.run_design(&prior, wf.seed));
        let mut outputs = vec![Vec::new(); prior.cells.len()];
        for r in &cal_runs {
            outputs[r.cell as usize] = r.log_cum_symptomatic.clone();
        }
        let emulator = t.span("calibrate.emulator_fit", || {
            Emulator::fit(
                CellConfig::calibration_space(),
                &thetas,
                &outputs,
                wf.p_eta,
                wf.seed ^ 0xE40,
            )
        });
        let posterior = t.span("calibrate.gpmsa", || {
            GpmsaCalibration::new(&emulator, &self.observed, wf.gpmsa.clone()).run()
        });
        let posterior_configs: Vec<CellConfig> = posterior
            .theta
            .resample(wf.n_posterior, wf.seed ^ 0x9057)
            .iter()
            .enumerate()
            .map(|(i, theta)| CellConfig::from_theta(i as u32, theta, &wf.base))
            .collect();

        let pred_seed = mix(self.seed, 13);
        let prediction = StudyDesign {
            cells: posterior_configs
                .iter()
                .enumerate()
                .map(|(i, c)| CellConfig { cell: i as u32, days: PREDICTION_DAYS, ..c.clone() })
                .collect(),
            replicates: PREDICTION_REPLICATES,
        };
        let pred_runs =
            t.span("runner.design.prediction", || self.runner.run_design(&prediction, pred_seed));
        let bands = t.span("analytics", || {
            let cumulative: Vec<Vec<f64>> = pred_runs
                .iter()
                .map(|r| r.log_cum_symptomatic.iter().map(|l| l.exp() - 1.0).collect())
                .collect();
            let daily: Vec<Vec<f64>> = pred_runs.iter().map(|r| r.daily_cases.clone()).collect();
            (ensemble_band(&cumulative, 0.025, 0.975), ensemble_band(&daily, 0.025, 0.975))
        });

        let cf_seed = mix(self.seed, 14);
        let cf_base = CellConfig {
            days: COUNTERFACTUAL_DAYS,
            transmissibility: HIDDEN_THETA[0],
            ..self.base()
        };
        let counterfactual = StudyDesign {
            cells: FactorialDesign::paper_economic().expand(&cf_base),
            replicates: COUNTERFACTUAL_REPLICATES,
        };
        let cf_runs = t.span("runner.design.counterfactual", || {
            self.runner.run_design(&counterfactual, cf_seed)
        });
        let costs = t.span("analytics", || {
            let model = CostModel::default();
            cf_runs.iter().map(|r| model.evaluate(&r.output).total()).collect()
        });

        Cycle {
            designs: [
                (prior, wf.seed, cal_runs),
                (prediction, pred_seed, pred_runs),
                (counterfactual, cf_seed, cf_runs),
            ],
            posterior,
            posterior_configs,
            bands,
            costs,
        }
    }
}

impl Workload for NightlyRegion {
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
        NightlyRegion { seed, data, runner, observed: Vec::new(), iteration: 0, digest: 0 }
    }

    fn warm_up(&mut self, t: &Tracer, checks: &mut Checks) {
        // The observed curve is the mean of a few runs at a fixed hidden
        // θ near the middle of the prior box. The seed draws the
        // population and every replicate stream, so each seed poses a
        // fresh calibration whose posterior, and so whose prediction
        // cost, stays alike.
        let truth = StudyDesign {
            cells: vec![CellConfig::from_theta(0, &HIDDEN_THETA, &self.base())],
            replicates: OBSERVED_REPLICATES,
        };
        let runs = self.runner.run_design(&truth, mix(self.seed, 6));
        checks.ops(runs.len());
        self.observed = (0..CALIBRATION_DAYS as usize)
            .map(|d| runs.iter().map(|r| r.log_cum_symptomatic[d]).sum::<f64>() / runs.len() as f64)
            .collect();
        self.iterate(t, checks);
    }

    fn iterate(&mut self, t: &Tracer, checks: &mut Checks) -> f64 {
        let start = Instant::now();
        let cycle = self.cycle(t);
        let secs = start.elapsed().as_secs_f64();

        let persons = self.data.population.len();
        let mut h = Fnv::new();
        let (mut loop_secs, mut job_ticks, mut events, mut jobs) = (0.0, 0.0, 0.0, 0.0);
        for (design, base_seed, runs) in &cycle.designs {
            checks.ops(runs.len());
            checks.check(runs.len() == design.cells.len() * design.replicates as usize, || {
                format!("design ran {} of {} jobs", runs.len(), design.cells.len())
            });
            for r in runs {
                checks.check(conserves_population(&r.output, persons), || {
                    format!(
                        "cell {} rep {}: occupancy does not sum to {persons}",
                        r.cell, r.replicate
                    )
                });
                hash_output(&mut h, &r.output);
                t.count("runner.job_s", r.elapsed_secs);
                loop_secs += r.elapsed_secs;
                job_ticks += r.output.n_ticks() as f64;
                events += transitions(&r.output) as f64;
                jobs += 1.0;
            }
            // One sampled job per design must match a fresh build.
            let r = &runs[self.iteration % runs.len()];
            let cell = &design.cells[r.cell as usize];
            let fresh = run_cell(&self.data, cell, r.replicate, N_PARTITIONS, false, *base_seed);
            checks.ops(1);
            checks.check(
                fresh.output == r.output && fresh.log_cum_symptomatic == r.log_cum_symptomatic,
                || {
                    format!(
                        "cell {} rep {}: shared context differs from a fresh run_cell",
                        r.cell, r.replicate
                    )
                },
            );
        }
        let tau = cycle.posterior.theta.mean()[0];
        checks.check((tau - HIDDEN_THETA[0]).abs() <= TAU_TOLERANCE, || {
            format!("posterior TAU {tau:.4} vs hidden {:.4}", HIDDEN_THETA[0])
        });
        let space = CellConfig::calibration_space();
        checks.check(cycle.posterior_configs.iter().all(|c| space.contains(&c.theta())), || {
            "a posterior configuration lies outside the prior box".to_string()
        });
        for x in cycle.posterior.theta.samples.iter().flatten() {
            h.f64(*x);
        }
        for x in cycle.bands.0.median.iter().chain(&cycle.bands.1.median).chain(&cycle.costs) {
            h.f64(*x);
        }
        self.digest = h.0;
        self.iteration += 1;

        t.count("runner.jobs", jobs);
        t.count("epihiper.tick_loop_s", loop_secs);
        t.count("epihiper.job_ticks", job_ticks);
        t.count("epihiper.agent_days", job_ticks * persons as f64);
        t.count("epihiper.events", events);
        t.count("calibrate.mcmc_acceptance", cycle.posterior.theta.acceptance);
        t.count("calibrate.tau_abs_err", (tau - HIDDEN_THETA[0]).abs());
        secs
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn traced_checks(&mut self, checks: &mut Checks) {
        let composed = self.cycle(&Tracer::new(false)).posterior;
        let direct = self.calibration().run_with(&self.runner, &self.observed).posterior;
        checks.check(
            composed.theta.samples == direct.theta.samples
                && composed.lambda_eps == direct.lambda_eps
                && composed.lambda_delta == direct.lambda_delta,
            || "composed calibration differs from CalibrationWorkflow::run_with".to_string(),
        );
    }

    fn layer_metrics(&self, d: &Derive) -> Vec<(&'static str, f64)> {
        let designs = [
            "runner.design.calibration",
            "runner.design.prediction",
            "runner.design.counterfactual",
        ];
        let busy: Vec<f64> = d
            .iterations
            .iter()
            .map(|&i| {
                let wall: f64 = designs.iter().map(|n| d.trace.span_secs(n, &[i])[0]).sum();
                let jobs = d.trace.counts("epihiper.tick_loop_s", &[i])[0];
                crate::stats::busy_share(jobs, wall, d.workers)
            })
            .collect();
        let job_s = d.trace.values("runner.job_s", d.iterations);
        vec![
            ("synthpop.build_s", d.setup_span("synthpop.build")),
            ("synthpop.persons", d.setup_count("synthpop.persons")),
            ("synthpop.edges", d.setup_count("synthpop.edges")),
            ("epihiper.context_s", d.setup_span("epihiper.context")),
            ("epihiper.tick_loop_s", d.count("epihiper.tick_loop_s")),
            ("epihiper.us_per_tick", 1e6 * d.ratio("epihiper.tick_loop_s", "epihiper.job_ticks")),
            ("epihiper.agent_days_per_s", d.ratio("epihiper.agent_days", "epihiper.tick_loop_s")),
            ("epihiper.events", d.count("epihiper.events")),
            ("runner.design_s.calibration", d.span(designs[0])),
            ("runner.design_s.prediction", d.span(designs[1])),
            ("runner.design_s.counterfactual", d.span(designs[2])),
            ("runner.jobs", d.count("runner.jobs")),
            ("runner.busy_share", crate::stats::median(&busy)),
            ("runner.job_s_p50", crate::stats::median(&job_s)),
            ("runner.job_s_max", job_s.iter().copied().fold(0.0, f64::max)),
            ("calibrate.emulator_fit_s", d.span("calibrate.emulator_fit")),
            ("calibrate.gpmsa_s", d.span("calibrate.gpmsa")),
            ("calibrate.mcmc_acceptance", d.count("calibrate.mcmc_acceptance")),
            ("calibrate.tau_abs_err", d.count("calibrate.tau_abs_err")),
            ("analytics.s", d.span("analytics")),
        ]
    }
}

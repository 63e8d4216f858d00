//! The calibration workflow (Fig. 4, case study 3).
//!
//! 1. Generate a prior design (LHS over TAU, SYMP, SH, VHI — case
//!    study 3 uses 100 configurations).
//! 2. Simulate every cell with EpiHiper (one replicate per cell, as in
//!    the paper's calibration designs).
//! 3. Aggregate to the calibration observable: logged cumulative
//!    symptomatic counts.
//! 4. Fit the GP emulator (pη = 5 eigenvector basis) and run the GPMSA
//!    Bayesian calibration against the observed ground truth.
//! 5. Draw posterior configurations for the prediction workflow.

use crate::design::{CellConfig, StudyDesign};
use crate::runner::{CellRunSummary, EnsembleRunner};
use epiflow_calibrate::{Emulator, GpmsaCalibration, GpmsaConfig, Posterior};
use epiflow_synthpop::builder::RegionData;

/// Configuration of a calibration run.
#[derive(Clone, Debug)]
pub struct CalibrationWorkflow {
    /// Prior design size (paper: 100 for the VA case study, 300 for the
    /// national calibration workflow).
    pub n_prior_cells: usize,
    /// Eigenbasis size pη (paper: 5).
    pub p_eta: usize,
    /// GPMSA settings.
    pub gpmsa: GpmsaConfig,
    /// Base cell (mitigation timing, horizon) the design varies around.
    pub base: CellConfig,
    /// Posterior configurations to draw (paper: 100).
    pub n_posterior: usize,
    pub n_partitions: usize,
    pub seed: u64,
}

impl Default for CalibrationWorkflow {
    fn default() -> Self {
        CalibrationWorkflow {
            n_prior_cells: 100,
            p_eta: 5,
            gpmsa: GpmsaConfig::default(),
            base: CellConfig::default(),
            n_posterior: 100,
            n_partitions: 4,
            seed: 0xCA11B,
        }
    }
}

/// Everything a calibration run produces.
pub struct CalibrationResult {
    /// The prior design.
    pub prior: StudyDesign,
    /// θ of each prior cell.
    pub prior_thetas: Vec<Vec<f64>>,
    /// Per-cell simulation summaries.
    pub runs: Vec<CellRunSummary>,
    /// The fitted emulator.
    pub emulator: Emulator,
    /// The calibration posterior.
    pub posterior: Posterior,
    /// Posterior configurations, ready for the prediction workflow.
    pub posterior_configs: Vec<CellConfig>,
}

impl CalibrationResult {
    /// Posterior θ draws (TAU, SYMP, SH, VHI).
    pub fn posterior_thetas(&self) -> Vec<Vec<f64>> {
        self.posterior_configs.iter().map(|c| c.theta().to_vec()).collect()
    }
}

impl CalibrationWorkflow {
    /// Run against one region's data and an observed logged cumulative
    /// case series (length = `base.days`).
    pub fn run(&self, data: &RegionData, observed_log_cum: &[f64]) -> CalibrationResult {
        self.run_with(&EnsembleRunner::new(data, self.n_partitions), observed_log_cum)
    }

    /// [`CalibrationWorkflow::run`] against a pre-built ensemble
    /// context, so a combined nightly (calibrate → predict → what-if on
    /// the same region) builds the network exactly once. The runner's
    /// partitioning takes precedence over `self.n_partitions`.
    pub fn run_with(&self, runner: &EnsembleRunner, observed_log_cum: &[f64]) -> CalibrationResult {
        assert_eq!(
            observed_log_cum.len(),
            self.base.days as usize,
            "observed series must cover the simulation horizon"
        );

        // 1. Prior design.
        let prior = StudyDesign::lhs_prior(self.n_prior_cells, &self.base, self.seed);
        let prior_thetas: Vec<Vec<f64>> = prior.cells.iter().map(|c| c.theta().to_vec()).collect();

        // 2. Simulate.
        let runs = runner.run_design(&prior, self.seed);

        // 3. Aggregate observables in cell order.
        let mut outputs: Vec<Vec<f64>> = vec![Vec::new(); prior.cells.len()];
        for r in &runs {
            outputs[r.cell as usize] = r.log_cum_symptomatic.clone();
        }

        // 4. Emulate + calibrate.
        let emulator = Emulator::fit(
            CellConfig::calibration_space(),
            &prior_thetas,
            &outputs,
            self.p_eta,
            self.seed ^ 0xE40,
        );
        let calibration = GpmsaCalibration::new(&emulator, observed_log_cum, self.gpmsa.clone());
        let posterior = calibration.run();

        // 5. Posterior configurations.
        let draws = posterior.theta.resample(self.n_posterior, self.seed ^ 0x9057);
        let posterior_configs: Vec<CellConfig> = draws
            .iter()
            .enumerate()
            .map(|(i, theta)| CellConfig::from_theta(i as u32, theta, &self.base))
            .collect();

        CalibrationResult { prior, prior_thetas, runs, emulator, posterior, posterior_configs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;
    use epiflow_calibrate::MetropolisConfig;
    use epiflow_surveillance::{RegionRegistry, Scale};
    use epiflow_synthpop::{build_region, BuildConfig};

    /// End-to-end: hide a known θ, calibrate, check recovery. This is
    /// the strongest test the real system could never run.
    #[test]
    fn recovers_hidden_parameters_end_to_end() {
        let reg = RegionRegistry::new();
        let id = reg.by_abbrev("DE").unwrap().id;
        let data = build_region(&reg, id, &BuildConfig { scale: Scale::one_per(4000.0), seed: 1 });
        let base = CellConfig {
            days: 70,
            sh_start: 40,
            sc_start: 30,
            sh_end: 200,
            initial_infections: 8,
            ..Default::default()
        };
        // Hidden truth.
        let truth = [0.30, 0.65, 0.5, 0.5];
        let truth_cell = CellConfig::from_theta(999, &truth, &base);
        let observed = run_cell(&data, &truth_cell, 7, 2, false, 0xBEEF);

        let wf = CalibrationWorkflow {
            n_prior_cells: 36,
            base: base.clone(),
            n_posterior: 40,
            gpmsa: GpmsaConfig {
                mcmc: MetropolisConfig { iterations: 1500, burn_in: 400, seed: 3 },
                gibbs_sweeps: 2,
            },
            ..Default::default()
        };
        let result = wf.run(&data, &observed.log_cum_symptomatic);

        assert_eq!(result.runs.len(), 36);
        assert_eq!(result.posterior_configs.len(), 40);

        // Posterior mean of TAU should be pulled toward the truth
        // relative to the prior midpoint (0.25).
        let mean = result.posterior.theta.mean();
        assert!(
            (mean[0] - truth[0]).abs() < 0.08,
            "posterior TAU {} vs truth {}",
            mean[0],
            truth[0]
        );
        // Posterior sd of TAU tighter than prior sd (0.30-0.10)/sqrt(12)=0.0866.
        let sd = result.posterior.theta.std_dev();
        assert!(sd[0] < 0.07, "TAU posterior sd {}", sd[0]);
        // Posterior configs must lie in the prior box.
        let space = CellConfig::calibration_space();
        for c in &result.posterior_configs {
            assert!(space.contains(&c.theta()));
        }
    }

    #[test]
    #[should_panic(expected = "cover the simulation horizon")]
    fn rejects_short_observation() {
        let reg = RegionRegistry::new();
        let id = reg.by_abbrev("DE").unwrap().id;
        let data =
            build_region(&reg, id, &BuildConfig { scale: Scale::one_per(20_000.0), seed: 1 });
        let wf = CalibrationWorkflow::default();
        wf.run(&data, &[1.0; 10]);
    }
}

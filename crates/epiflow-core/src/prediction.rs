//! The prediction workflow (Fig. 5).
//!
//! "To make predictions, we run simulations using the model
//! configurations generated from the calibration workflow, and
//! aggregate individual-level output to obtain future counts for
//! various forecasting targets … The ensemble of the model
//! configurations and the simulation output provides uncertainty
//! quantification on the predictions." If the predictions look
//! reasonable, the configurations are expanded "with a few possible
//! future what-if scenarios".

use crate::design::{CellConfig, ExtraIntervention, StudyDesign};
use crate::runner::{CellRunSummary, EnsembleRunner};
use epiflow_analytics::{ensemble_band, EnsembleBand};
use epiflow_synthpop::builder::RegionData;

/// Prediction workflow configuration.
#[derive(Clone, Debug)]
pub struct PredictionWorkflow {
    /// Replicates per posterior configuration (paper: 15).
    pub replicates: u32,
    /// Forecast horizon in days (overrides each config's `days`).
    pub horizon_days: u32,
    pub n_partitions: usize,
    pub seed: u64,
}

impl Default for PredictionWorkflow {
    fn default() -> Self {
        PredictionWorkflow { replicates: 15, horizon_days: 120, n_partitions: 4, seed: 0x9ED1C }
    }
}

/// Prediction output: the ensemble and its uncertainty bands.
pub struct PredictionResult {
    pub runs: Vec<CellRunSummary>,
    /// 95% band over cumulative symptomatic counts (Fig. 17).
    pub cumulative_band: EnsembleBand,
    /// 95% band over daily new cases.
    pub daily_band: EnsembleBand,
}

impl PredictionResult {
    /// Point forecast (ensemble median) of cumulative cases at a
    /// horizon day.
    pub fn median_at(&self, day: usize) -> f64 {
        self.cumulative_band.median[day.min(self.cumulative_band.median.len() - 1)]
    }
}

impl PredictionWorkflow {
    /// Run on posterior configurations from the calibration workflow.
    pub fn run(&self, data: &RegionData, configs: &[CellConfig]) -> PredictionResult {
        self.run_with(&EnsembleRunner::new(data, self.n_partitions), configs)
    }

    /// [`PredictionWorkflow::run`] against a pre-built ensemble context
    /// (typically the one calibration already paid for). The runner's
    /// partitioning takes precedence over `self.n_partitions`.
    pub fn run_with(&self, runner: &EnsembleRunner, configs: &[CellConfig]) -> PredictionResult {
        assert!(!configs.is_empty(), "prediction needs posterior configurations");
        let cells: Vec<CellConfig> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| CellConfig { cell: i as u32, days: self.horizon_days, ..c.clone() })
            .collect();
        let design = StudyDesign { cells, replicates: self.replicates };
        let runs = runner.run_design(&design, self.seed);

        let cumulative: Vec<Vec<f64>> = runs
            .iter()
            .map(|r| r.log_cum_symptomatic.iter().map(|l| l.exp() - 1.0).collect())
            .collect();
        let daily: Vec<Vec<f64>> = runs.iter().map(|r| r.daily_cases.clone()).collect();

        PredictionResult {
            cumulative_band: ensemble_band(&cumulative, 0.025, 0.975),
            daily_band: ensemble_band(&daily, 0.025, 0.975),
            runs,
        }
    }

    /// Expand configurations with what-if scenarios: each base config
    /// is cloned per scenario with the extra interventions appended
    /// ("what if the stay-at-home order is lifted earlier; what if …
    /// testing and contact tracing are improved").
    pub fn expand_what_if(
        configs: &[CellConfig],
        scenarios: &[(&str, Vec<ExtraIntervention>)],
    ) -> Vec<(String, Vec<CellConfig>)> {
        scenarios
            .iter()
            .map(|(name, extras)| {
                let expanded: Vec<CellConfig> = configs
                    .iter()
                    .map(|c| {
                        let mut e = c.clone();
                        e.extras.extend(extras.iter().cloned());
                        e
                    })
                    .collect();
                (name.to_string(), expanded)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epiflow_surveillance::{RegionRegistry, Scale};
    use epiflow_synthpop::{build_region, BuildConfig};

    fn region() -> RegionData {
        let reg = RegionRegistry::new();
        let id = reg.by_abbrev("DE").unwrap().id;
        build_region(&reg, id, &BuildConfig { scale: Scale::one_per(4000.0), seed: 2 })
    }

    fn posterior_like_configs(n: usize) -> Vec<CellConfig> {
        (0..n)
            .map(|i| CellConfig {
                cell: i as u32,
                transmissibility: 0.25 + 0.01 * i as f64,
                sh_start: 40,
                sc_start: 30,
                initial_infections: 8,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn ensemble_band_from_replicated_runs() {
        let data = region();
        let wf = PredictionWorkflow { replicates: 4, horizon_days: 60, n_partitions: 2, seed: 5 };
        let res = wf.run(&data, &posterior_like_configs(3));
        assert_eq!(res.runs.len(), 12);
        assert_eq!(res.cumulative_band.median.len(), 60);
        // Band ordered, cumulative median nondecreasing.
        for t in 0..60 {
            assert!(res.cumulative_band.lo[t] <= res.cumulative_band.hi[t]);
        }
        assert!(res.cumulative_band.median.windows(2).all(|w| w[1] >= w[0] - 1e-9));
        assert!(res.median_at(59) > 0.0, "epidemic expected");
    }

    #[test]
    fn uncertainty_band_nondegenerate() {
        let data = region();
        let wf = PredictionWorkflow { replicates: 5, horizon_days: 50, n_partitions: 2, seed: 6 };
        let res = wf.run(&data, &posterior_like_configs(2));
        let final_width =
            res.cumulative_band.hi.last().unwrap() - res.cumulative_band.lo.last().unwrap();
        assert!(final_width > 0.0, "replicate noise must widen the band");
    }

    #[test]
    fn what_if_expansion() {
        let configs = posterior_like_configs(4);
        let expanded = PredictionWorkflow::expand_what_if(
            &configs,
            &[
                ("early-reopen", vec![ExtraIntervention::Ro { day: 80, level: 0.8 }]),
                (
                    "better-tracing",
                    vec![ExtraIntervention::D1ct { detection: 0.6, compliance: 0.8 }],
                ),
            ],
        );
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded[0].1.len(), 4);
        assert!(matches!(expanded[0].1[0].extras[0], ExtraIntervention::Ro { .. }));
        assert!(matches!(expanded[1].1[3].extras[0], ExtraIntervention::D1ct { .. }));
        // Originals untouched.
        assert!(configs[0].extras.is_empty());
    }

    #[test]
    #[should_panic(expected = "posterior configurations")]
    fn rejects_empty_configs() {
        let data = region();
        PredictionWorkflow::default().run(&data, &[]);
    }
}

//! The counterfactual / economic workflow (Fig. 3, case study 1).
//!
//! "Counter-factual analysis refers to the study of outcomes under
//! various posted scenarios … usually such an analysis entails running
//! a large factorial design and then computing certain outcomes that
//! combine the output of the simulations and detailed synthetic …
//! data." The flagship instance estimates the medical costs of
//! COVID-19 under a 12-cell factorial of NPI durations and compliances,
//! with 15 replicates per cell per region.

use crate::design::{CellConfig, FactorialDesign, StudyDesign};
use crate::runner::EnsembleRunner;
use epiflow_analytics::{CostModel, CostReport};
use epiflow_synthpop::builder::RegionData;

/// The economic workflow configuration.
#[derive(Clone, Debug)]
pub struct CounterfactualWorkflow {
    pub design: FactorialDesign,
    pub base: CellConfig,
    pub replicates: u32,
    pub cost_model: CostModel,
    pub n_partitions: usize,
    pub seed: u64,
}

impl Default for CounterfactualWorkflow {
    fn default() -> Self {
        CounterfactualWorkflow {
            design: FactorialDesign::paper_economic(),
            base: CellConfig::default(),
            replicates: 15,
            cost_model: CostModel::default(),
            n_partitions: 4,
            seed: 0xEC0,
        }
    }
}

/// Cost outcome for one cell (mean over replicates).
#[derive(Clone, Debug)]
pub struct ScenarioCost {
    pub cell: CellConfig,
    /// Mean cost report across replicates.
    pub mean_cost: CostReport,
    /// Mean total infections across replicates.
    pub mean_infections: f64,
}

impl CounterfactualWorkflow {
    /// Run the factorial on one region; returns one row per cell.
    pub fn run(&self, data: &RegionData) -> Vec<ScenarioCost> {
        self.run_with(&EnsembleRunner::new(data, self.n_partitions))
    }

    /// [`CounterfactualWorkflow::run`] against a pre-built ensemble
    /// context. The runner's partitioning takes precedence over
    /// `self.n_partitions`.
    pub fn run_with(&self, runner: &EnsembleRunner) -> Vec<ScenarioCost> {
        let cells = self.design.expand(&self.base);
        let study = StudyDesign { cells: cells.clone(), replicates: self.replicates };
        let runs = runner.run_design(&study, self.seed);

        cells
            .iter()
            .map(|cell| {
                let cell_runs: Vec<_> = runs.iter().filter(|r| r.cell == cell.cell).collect();
                let n = cell_runs.len().max(1);
                let mut total = CostReport::default();
                let mut infections = 0.0;
                for r in &cell_runs {
                    total = total.add(&self.cost_model.evaluate(&r.output));
                    // Cumulative symptomatic is the infection proxy the
                    // cost study reports.
                    infections += r.log_cum_symptomatic.last().map_or(0.0, |l| l.exp() - 1.0);
                }
                ScenarioCost {
                    cell: cell.clone(),
                    mean_cost: total.scale(1.0 / n as f64),
                    mean_infections: infections / n as f64,
                }
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
        build_region(&reg, id, &BuildConfig { scale: Scale::one_per(4000.0), seed: 9 })
    }

    fn quick_workflow() -> CounterfactualWorkflow {
        CounterfactualWorkflow {
            design: FactorialDesign {
                vhi_compliances: vec![0.2, 0.9],
                sh_durations: vec![20, 80],
                sh_compliances: vec![0.3],
            },
            base: CellConfig {
                days: 90,
                transmissibility: 0.30,
                sh_start: 25,
                sc_start: 20,
                initial_infections: 8,
                ..Default::default()
            },
            replicates: 3,
            n_partitions: 2,
            ..Default::default()
        }
    }

    #[test]
    fn produces_one_row_per_cell() {
        let rows = quick_workflow().run(&region());
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.mean_infections >= 0.0);
        }
    }

    #[test]
    fn longer_lockdowns_cost_less_medically() {
        // More NPI ⇒ fewer infections ⇒ lower medical cost. Compare the
        // strictest vs the laxest cell.
        let rows = quick_workflow().run(&region());
        let laxest = rows
            .iter()
            .filter(|r| r.cell.vhi_compliance < 0.5 && r.cell.sh_end - r.cell.sh_start < 50)
            .map(|r| r.mean_infections)
            .next()
            .unwrap();
        let strictest = rows
            .iter()
            .filter(|r| r.cell.vhi_compliance > 0.5 && r.cell.sh_end - r.cell.sh_start > 50)
            .map(|r| r.mean_infections)
            .next()
            .unwrap();
        assert!(
            strictest <= laxest,
            "strict NPIs should not increase infections: {strictest} vs {laxest}"
        );
    }

    #[test]
    fn paper_design_cell_count() {
        let wf = CounterfactualWorkflow::default();
        assert_eq!(wf.design.expand(&wf.base).len(), 12);
        assert_eq!(wf.replicates, 15);
    }
}

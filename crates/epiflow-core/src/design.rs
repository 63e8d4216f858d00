//! Cells (model configurations) and study designs.
//!
//! "Both calibration and prediction workflows start by generating
//! simulation configurations, also known as cells. … The model
//! configurations specify which populations and contact networks to
//! use, as well as the disease parameters, interventions,
//! initializations, and the number of days to simulate."

use epiflow_calibrate::ParamSpace;

/// Interventions beyond the base VHI+SC+SH stack (the Fig.-7-bottom
/// ladder).
#[derive(Clone, Debug, PartialEq)]
pub enum ExtraIntervention {
    /// Partial reopening at `day` releasing `level` of compliant nodes.
    Ro { day: u32, level: f64 },
    /// Test & isolate asymptomatic from `start` with `detection`/day.
    Ta { start: u32, detection: f64 },
    /// Pulsing shutdown from `start`: `on_days` closed, `off_days` open.
    Ps { start: u32, on_days: u32, off_days: u32 },
    /// Distance-1 contact tracing.
    D1ct { detection: f64, compliance: f64 },
    /// Distance-2 contact tracing.
    D2ct { detection: f64, compliance: f64 },
}

/// One model configuration (cell).
#[derive(Clone, Debug, PartialEq)]
pub struct CellConfig {
    /// Cell index within its design.
    pub cell: u32,
    /// Disease transmissibility τ (the calibration's TAU).
    pub transmissibility: f64,
    /// Symptomatic fraction (1 − asymptomatic fraction; the SYMP
    /// parameter of Fig. 15).
    pub symptomatic_fraction: f64,
    /// Stay-at-home compliance (Fig. 15's SH).
    pub sh_compliance: f64,
    /// Voluntary-home-isolation compliance (Fig. 15's VHI).
    pub vhi_compliance: f64,
    /// School closure start day (case study 3: March 16 ≈ day 55).
    pub sc_start: u32,
    /// Stay-at-home window (case study 3: March 31 ≈ day 70 through
    /// June 10 ≈ day 141).
    pub sh_start: u32,
    pub sh_end: u32,
    /// Additional interventions.
    pub extras: Vec<ExtraIntervention>,
    /// Days to simulate.
    pub days: u32,
    /// Initial infections to seed.
    pub initial_infections: usize,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            cell: 0,
            transmissibility: 0.18,
            symptomatic_fraction: 0.65,
            sh_compliance: 0.7,
            vhi_compliance: 0.6,
            sc_start: 55,
            sh_start: 70,
            sh_end: 141,
            extras: Vec::new(),
            days: 120,
            initial_infections: 10,
        }
    }
}

impl CellConfig {
    /// The calibration parameter vector `(TAU, SYMP, SH, VHI)` — the
    /// four varied parameters of case study 3 / Fig. 15.
    pub fn theta(&self) -> [f64; 4] {
        [self.transmissibility, self.symptomatic_fraction, self.sh_compliance, self.vhi_compliance]
    }

    /// Build a cell from a θ vector over the case-study parameter
    /// space.
    pub fn from_theta(cell: u32, theta: &[f64], base: &CellConfig) -> CellConfig {
        assert_eq!(theta.len(), 4, "theta is (TAU, SYMP, SH, VHI)");
        CellConfig {
            cell,
            transmissibility: theta[0],
            symptomatic_fraction: theta[1],
            sh_compliance: theta[2],
            vhi_compliance: theta[3],
            ..base.clone()
        }
    }

    /// The case-study-3 calibration parameter space: disease
    /// transmissibility, symptomatic ratio, and the two compliance
    /// rates.
    pub fn calibration_space() -> ParamSpace {
        ParamSpace::new(&[
            ("TAU", 0.10, 0.40),
            ("SYMP", 0.35, 0.85),
            ("SH", 0.2, 0.9),
            ("VHI", 0.2, 0.9),
        ])
    }
}

/// A study design: a list of cells plus a replicate count per cell.
#[derive(Clone, Debug, PartialEq)]
pub struct StudyDesign {
    pub cells: Vec<CellConfig>,
    pub replicates: u32,
}

impl StudyDesign {
    /// Total ⟨cell, region, replicate⟩ simulations over `n_regions`.
    pub fn n_simulations(&self, n_regions: usize) -> usize {
        self.cells.len() * n_regions * self.replicates as usize
    }

    /// Calibration-style design: many cells, one replicate, from LHS
    /// over the calibration space.
    pub fn lhs_prior(n_cells: usize, base: &CellConfig, seed: u64) -> StudyDesign {
        let space = CellConfig::calibration_space();
        let cells = space
            .sample_lhs(n_cells, seed)
            .iter()
            .enumerate()
            .map(|(i, theta)| CellConfig::from_theta(i as u32, theta, base))
            .collect();
        StudyDesign { cells, replicates: 1 }
    }

    /// Posterior design: cells from posterior θ draws, replicated.
    pub fn from_posterior(draws: &[Vec<f64>], base: &CellConfig, replicates: u32) -> StudyDesign {
        let cells = draws
            .iter()
            .enumerate()
            .map(|(i, theta)| CellConfig::from_theta(i as u32, theta, base))
            .collect();
        StudyDesign { cells, replicates }
    }
}

/// The economic study's factorial design (Fig. 3): VHI compliances ×
/// lockdown (SH) durations × lockdown compliances.
#[derive(Clone, Debug)]
pub struct FactorialDesign {
    pub vhi_compliances: Vec<f64>,
    pub sh_durations: Vec<u32>,
    pub sh_compliances: Vec<f64>,
}

impl FactorialDesign {
    /// The paper's 2 × 3 × 2 = 12-cell design.
    pub fn paper_economic() -> Self {
        FactorialDesign {
            vhi_compliances: vec![0.5, 0.8],
            sh_durations: vec![30, 60, 90],
            sh_compliances: vec![0.5, 0.8],
        }
    }

    /// Expand to cells over a base configuration.
    pub fn expand(&self, base: &CellConfig) -> Vec<CellConfig> {
        let mut cells = Vec::new();
        let mut id = 0u32;
        for &vhi in &self.vhi_compliances {
            for &dur in &self.sh_durations {
                for &sh in &self.sh_compliances {
                    cells.push(CellConfig {
                        cell: id,
                        vhi_compliance: vhi,
                        sh_compliance: sh,
                        sh_end: base.sh_start + dur,
                        ..base.clone()
                    });
                    id += 1;
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_factorial_is_12_cells() {
        let cells = FactorialDesign::paper_economic().expand(&CellConfig::default());
        assert_eq!(cells.len(), 12);
        // All distinct.
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert!(
                    a.vhi_compliance != b.vhi_compliance
                        || a.sh_compliance != b.sh_compliance
                        || a.sh_end != b.sh_end
                );
            }
        }
    }

    #[test]
    fn table_i_economic_simulation_count() {
        let design = StudyDesign {
            cells: FactorialDesign::paper_economic().expand(&CellConfig::default()),
            replicates: 15,
        };
        assert_eq!(design.n_simulations(51), 9180);
    }

    #[test]
    fn table_i_calibration_simulation_count() {
        let design = StudyDesign::lhs_prior(300, &CellConfig::default(), 1);
        assert_eq!(design.n_simulations(51), 15_300);
    }

    #[test]
    fn theta_round_trip() {
        let base = CellConfig::default();
        let theta = [0.22, 0.6, 0.5, 0.7];
        let cell = CellConfig::from_theta(3, &theta, &base);
        assert_eq!(cell.theta(), theta);
        assert_eq!(cell.cell, 3);
        assert_eq!(cell.days, base.days);
    }

    #[test]
    fn lhs_prior_spans_space() {
        let d = StudyDesign::lhs_prior(100, &CellConfig::default(), 9);
        assert_eq!(d.cells.len(), 100);
        assert_eq!(d.replicates, 1);
        let taus: Vec<f64> = d.cells.iter().map(|c| c.transmissibility).collect();
        let min = taus.iter().cloned().fold(f64::MAX, f64::min);
        let max = taus.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < 0.13 && max > 0.37, "LHS must span TAU range: {min}..{max}");
    }

    #[test]
    fn posterior_design_replicates() {
        let draws = vec![vec![0.2, 0.6, 0.5, 0.5]; 8];
        let d = StudyDesign::from_posterior(&draws, &CellConfig::default(), 15);
        assert_eq!(d.cells.len(), 8);
        assert_eq!(d.n_simulations(1), 120);
    }
}

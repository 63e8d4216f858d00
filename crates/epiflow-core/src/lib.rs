//! The epidemiological workflow layer — the paper's primary
//! contribution (§II, §IV).
//!
//! Three workflows, each a composable pipeline over the substrate
//! crates, plus the combined two-cluster orchestration:
//!
//! * [`calibration`] — Fig. 4: LHS prior design → EpiHiper simulations →
//!   aggregation → GP-emulator Bayesian calibration → posterior
//!   configurations.
//! * [`prediction`] — Fig. 5: posterior configurations → replicated
//!   simulations → ensemble forecast targets with uncertainty bands →
//!   optional what-if scenario expansion.
//! * [`counterfactual`] — Fig. 3: factorial NPI designs → simulations →
//!   medical-cost analytics (the economic workflow of case study 1).
//! * [`combined`] — Figs. 1–2: the nightly cross-cluster orchestration:
//!   configuration generation on the home cluster, Globus transfer,
//!   database startup, FFDT-DC-packed Slurm execution inside the remote
//!   cluster's 10 pm–8 am window, post-simulation aggregation, and the
//!   return transfer — with the full timeline and data-volume ledger.
//!
//! [`design`] defines cells (model configurations) and study designs;
//! [`runner`] executes ⟨cell, region, replicate⟩ grids on rayon — the
//! [`runner::EnsembleRunner`] builds the region's network/partitioning
//! once and shares it across the whole grid, and all three simulation
//! workflows expose `run_with` to reuse one context across an entire
//! nightly pipeline.

pub mod calibration;
pub mod combined;
pub mod counterfactual;
pub mod design;
pub mod prediction;
pub mod runner;

pub use calibration::{CalibrationResult, CalibrationWorkflow};
pub use combined::{CombinedReport, CombinedWorkflow, TimelineEvent};
pub use counterfactual::{CounterfactualWorkflow, ScenarioCost};
pub use design::{CellConfig, ExtraIntervention, FactorialDesign, StudyDesign};
pub use prediction::{PredictionResult, PredictionWorkflow};
pub use runner::{run_cell, CellRunSummary, EnsembleRunner};

//! Post-simulation analytics (paper §II, Fig. 3–5 step \[4\], §VII).
//!
//! * [`ensemble_band`] / [`EnsembleBand`] — the quantile band over
//!   replicate series behind Fig. 17, re-exported from `epiflow-linalg`
//!   (one implementation, shared with the calibration's predictive band).
//! * [`costs`] — the medical-cost model of case study 1 (\[9\]):
//!   per-patient costs by maximum severity (attended / hospitalized /
//!   ventilated), totaled per scenario.
//! * [`volume`] — raw/summary output volume accounting (Tables I–II).

pub mod costs;
pub mod volume;

pub use costs::{CostModel, CostReport};
pub use epiflow_linalg::{ensemble_band, EnsembleBand};
pub use volume::{VolumeReport, WorkflowVolume};

//! Post-simulation analytics (paper §II, Fig. 3–5 step \[4\], §VII).
//!
//! * [`ensemble`] — ensembles across replicates and cells: quantile
//!   bands, medians, the uncertainty quantification behind Fig. 17.
//! * [`costs`] — the medical-cost model of case study 1 (\[9\]):
//!   per-patient costs by maximum severity (attended / hospitalized /
//!   ventilated), totaled per scenario.
//! * [`volume`] — raw/summary output volume accounting (Tables I–II).

pub mod costs;
pub mod ensemble;
pub mod volume;

pub use costs::{CostModel, CostReport};
pub use ensemble::{ensemble_band, EnsembleBand};
pub use volume::{VolumeReport, WorkflowVolume};

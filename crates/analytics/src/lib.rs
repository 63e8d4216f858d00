//! Post-simulation analytics (paper §II, Fig. 3–5 step \[4\], §VII).
//!
//! * [`targets`] — forecast-target extraction from simulation output:
//!   daily confirmed cases, hospitalizations, ventilations, deaths at
//!   state or county level, in the paper's three-counts form
//!   (new / cumulative / current).
//! * [`ensemble`] — ensembles across replicates and cells: quantile
//!   bands, medians, the uncertainty quantification behind Fig. 17.
//! * [`costs`] — the medical-cost model of case study 1 (\[9\]):
//!   per-patient costs by maximum severity (attended / hospitalized /
//!   ventilated), totaled per scenario.
//! * [`volume`] — raw/summary output volume accounting (Tables I–II).

pub mod costs;
pub mod ensemble;
pub mod targets;
pub mod volume;

pub use costs::{CostModel, CostReport};
pub use ensemble::{ensemble_band, EnsembleBand};
pub use targets::{ForecastTargets, ThreeCounts};
pub use volume::{VolumeReport, WorkflowVolume};

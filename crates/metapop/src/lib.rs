//! County-level metapopulation SEIR model (paper case study 2).
//!
//! "We adopted a combination of mechanistic metapopulation and
//! agent-based modeling frameworks … Our model represents SEIR disease
//! dynamics across counties. The disease dynamics were modified to
//! reflect the transmissivity of asymptomatic and pre-symptomatic
//! COVID-19 patients."
//!
//! Compartments per county: S, E, P (presymptomatic), Iₐ (asymptomatic),
//! Iₛ (symptomatic), H (hospitalized), R, D. Counties are coupled by a
//! row-stochastic commuting matrix. One integrator,
//! [`model::MetapopModel::run_deterministic`]: RK4 on the ODEs, cheap
//! enough to sit inside an MCMC loop (the paper calibrates the
//! metapopulation model by direct simulation, Appendix E).
//!
//! Scenario support mirrors the case study's factorial: a worst-case
//! (no distancing) plus intense-social-distancing scenarios with
//! configurable end dates and transmissibility reductions.

pub mod mixing;
pub mod model;
pub mod params;

pub use mixing::Mixing;
pub use model::{MetapopModel, MetapopOutput};
pub use params::{Scenario, SeirParams};

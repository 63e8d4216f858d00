//! # epiflow — Scalable Epidemiological Workflows
//!
//! A Rust reproduction of *"Scalable Epidemiological Workflows to Support
//! COVID-19 Planning and Response"* (Machi et al., IEEE IPDPS 2021): the
//! HPC workflow system that ran nightly national-scale COVID-19
//! calibration, prediction, and counterfactual analyses across two
//! supercomputing clusters.
//!
//! This facade crate re-exports all member crates under one namespace:
//!
//! * [`synthpop`] — synthetic populations and contact networks (Appendix C)
//! * [`epihiper`] — the agent-based network epidemic simulator (Appendix D)
//! * [`metapop`] — county-level SEIR metapopulation model (case study 2)
//! * [`surveillance`] — region registry and ground-truth case data
//! * [`linalg`] — the dense linear algebra under the calibration stack
//! * [`calibrate`] — GP-emulator Bayesian calibration (Appendix E)
//! * [`hpcsim`] — two-cluster HPC environment + WMP scheduling heuristics (§V)
//! * [`analytics`] — ensembles, output volume accounting, cost model
//! * [`orchestrator`] — fault-tolerant DAG workflow engine: retries,
//!   write-ahead journal checkpoint/resume, deadline-aware degradation
//! * [`core`] — the workflow layer tying everything together (§II, §IV)
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use epiflow_analytics as analytics;
pub use epiflow_calibrate as calibrate;
pub use epiflow_core as core;
pub use epiflow_epihiper as epihiper;
pub use epiflow_hpcsim as hpcsim;
pub use epiflow_linalg as linalg;
pub use epiflow_metapop as metapop;
pub use epiflow_orchestrator as orchestrator;
pub use epiflow_surveillance as surveillance;
pub use epiflow_synthpop as synthpop;

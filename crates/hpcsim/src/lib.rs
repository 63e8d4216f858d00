//! The two-cluster HPC environment simulator and the workflow mapping
//! machinery (paper §IV–§V) — the substrate under the paper's primary
//! contribution.
//!
//! * [`cluster`] — the home (Rivanna) and remote (Bridges) cluster
//!   specifications of Table II, whole-node allocation, and the nightly
//!   10pm–8am availability window.
//! * [`task`] — `⟨cell, region⟩` simulation tasks: node requirements by
//!   region size category (2/4/6), empirical runtimes with the paper's
//!   four variance sources.
//! * [`schedule`] — the workflow mapping problem (WMP): level-oriented
//!   2-D bin packing with database-access constraints; the **NFDT-DC**
//!   and **FFDT-DC** heuristics and the empirical-efficiency metric EC.
//! * [`slurm`] — an event-driven Slurm-like executor ("Slurm further
//!   does a certain amount of real-time optimization"): job arrays
//!   dispatched in plan order as nodes free up and DB bounds allow.
//! * [`dbsim`] — per-region PostgreSQL-analog population databases with
//!   bounded connection counts and snapshot-restore startup.
//! * [`globus`] — the Globus-like transfer model between the clusters.

pub mod cluster;
pub mod dbsim;
pub mod globus;
pub mod schedule;
pub mod slurm;
pub mod task;

pub use cluster::{ClusterSpec, Site};
pub use dbsim::PopulationDb;
pub use globus::{GlobusLink, LinkFaults, Transfer};
pub use schedule::{pack, pack_arrival, pack_in_order, ExecStats, Level, LevelPlan, PackAlgo};
pub use slurm::{CheckpointPolicy, NodeFailure, ResumePoint, SlurmSim, SlurmStats};
pub use task::Task;

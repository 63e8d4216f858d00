//! Per-region population database simulation.
//!
//! The real system runs one PostgreSQL server per region (paper §V,
//! Step 1: "Split the overall database so that we have one database per
//! region … each such database occupies one node of the system"), with
//! simulations loading population data through a bounded number of
//! connections at run time. Snapshots of the databases are created when
//! populations are built and instantiated at run-time to speed startup.
//!
//! The model keeps only what the schedule depends on: the connection
//! bound B(r), which the schedulers enforce as a per-region cap on
//! concurrent tasks ([`PopulationDb::task_bound`]), and the startup cost.
//! It does not track individual connections. A cold-standby replica is a
//! fresh [`PopulationDb::new`] with the full bound.

use epiflow_surveillance::RegionId;

/// A simulated per-region PostgreSQL server.
#[derive(Clone, Debug)]
pub struct PopulationDb {
    pub region: RegionId,
    /// Maximum simultaneous connections B(r).
    pub max_connections: usize,
    /// Rows in the person-trait table (drives startup cost).
    pub rows: u64,
}

impl PopulationDb {
    /// Create a database for a region's population table.
    pub fn new(region: RegionId, rows: u64, max_connections: usize) -> Self {
        assert!(max_connections > 0, "database needs at least one connection");
        PopulationDb { region, max_connections, rows }
    }

    /// Fault hook: connection exhaustion (leaked connections from
    /// crashed jobs, a runaway analytics session). The bound drops to
    /// `ceil(max_connections × keep_fraction)`, never below 1.
    pub fn exhaust(&mut self, keep_fraction: f64) {
        let keep = (self.max_connections as f64 * keep_fraction.clamp(0.0, 1.0)).ceil() as usize;
        self.max_connections = keep.max(1);
    }

    /// Startup time in seconds. Cold start parses and loads the CSV
    /// (~1 µs/row at PostgreSQL COPY speeds); snapshot restore is an
    /// order of magnitude cheaper — the paper's motivation for
    /// snapshotting ("to speed up the start of the population
    /// databases, snapshots … are instantiated at run-time").
    pub fn startup_secs(&self, from_snapshot: bool) -> f64 {
        let per_row = if from_snapshot { 0.1e-6 } else { 1.0e-6 };
        2.0 + self.rows as f64 * per_row
    }

    /// The per-region concurrent-task bound implied by this database
    /// for jobs needing `conns_per_task` connections each (the `B(T[r])`
    /// of §V, Assumption 3/4).
    pub fn task_bound(&self, conns_per_task: usize) -> usize {
        self.max_connections / conns_per_task.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standby_replica_starts_clean() {
        let mut primary = PopulationDb::new(2, 100, 8);
        primary.exhaust(0.25);
        // A standby is a fresh database: nothing has run against it.
        let standby = PopulationDb::new(2, 100, 8);
        assert_eq!(standby.max_connections, 8, "standby keeps the full bound");
        assert!(standby.max_connections > primary.max_connections);
        assert_eq!(standby.startup_secs(true), primary.startup_secs(true));
    }

    #[test]
    fn snapshot_startup_much_faster() {
        let db = PopulationDb::new(4, 20_000_000, 8); // CA-scale rows
        let cold = db.startup_secs(false);
        let snap = db.startup_secs(true);
        assert!(cold > 5.0 * snap, "cold {cold} vs snapshot {snap}");
    }

    #[test]
    fn exhaustion_shrinks_bound_and_task_bound() {
        let mut db = PopulationDb::new(2, 100, 8);
        db.exhaust(0.5);
        assert_eq!(db.max_connections, 4);
        assert_eq!(db.task_bound(4), 1);
    }

    #[test]
    fn exhaustion_never_drops_below_one_connection() {
        let mut db = PopulationDb::new(2, 100, 8);
        db.exhaust(0.0);
        assert_eq!(db.max_connections, 1);
    }

    #[test]
    fn task_bound_derivation() {
        let db = PopulationDb::new(1, 100, 12);
        assert_eq!(db.task_bound(4), 3);
        assert_eq!(db.task_bound(5), 2);
        assert_eq!(db.task_bound(0), 12);
    }
}

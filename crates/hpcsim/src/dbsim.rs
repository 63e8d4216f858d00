//! Per-region population database simulation.
//!
//! The real system runs one PostgreSQL server per region (paper §V,
//! Step 1: "Split the overall database so that we have one database per
//! region … each such database occupies one node of the system"), with
//! simulations loading population data through a bounded number of
//! connections at run time. Snapshots of the databases are created when
//! populations are built and instantiated at run-time to speed startup.

use epiflow_surveillance::RegionId;

/// A simulated per-region PostgreSQL server.
#[derive(Clone, Debug)]
pub struct PopulationDb {
    pub region: RegionId,
    /// Maximum simultaneous connections B(r).
    pub max_connections: usize,
    /// Currently held connections.
    in_use: usize,
    /// Lifetime peak (for utilization reporting).
    peak: usize,
    /// Total acquire calls that were refused.
    refused: u64,
    /// Rows in the person-trait table (drives startup cost).
    pub rows: u64,
    /// Whether the exhaustion fault hook has fired.
    exhausted: bool,
    /// Whether this is a cold-standby replica (see
    /// [`PopulationDb::standby`]).
    standby: bool,
}

/// Error returned when the connection bound would be exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnectionsExhausted {
    pub region: RegionId,
    pub max_connections: usize,
}

impl std::fmt::Display for ConnectionsExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "region {} database refused connection (bound {})",
            self.region, self.max_connections
        )
    }
}

impl std::error::Error for ConnectionsExhausted {}

impl PopulationDb {
    /// Create a database for a region's population table.
    pub fn new(region: RegionId, rows: u64, max_connections: usize) -> Self {
        assert!(max_connections > 0, "database needs at least one connection");
        PopulationDb {
            region,
            max_connections,
            in_use: 0,
            peak: 0,
            refused: 0,
            rows,
            exhausted: false,
            standby: false,
        }
    }

    /// A cold-standby replica for the region: a fresh server restored
    /// on the alternate resource when the primary's circuit breaker is
    /// open. It starts with its full connection bound (no leaked
    /// connections — nothing has ever run against it), so the fault
    /// hooks that degraded the primary do not apply.
    pub fn standby(region: RegionId, rows: u64, max_connections: usize) -> Self {
        PopulationDb { standby: true, ..PopulationDb::new(region, rows, max_connections) }
    }

    /// Whether this database is a cold-standby replica.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// Fault hook: connection exhaustion (leaked connections from
    /// crashed jobs, a runaway analytics session). The bound drops to
    /// `ceil(max_connections × keep_fraction)`, never below 1; already
    /// held connections stay held, so `in_use` may transiently exceed
    /// the new bound and further acquires are refused until it drains.
    pub fn exhaust(&mut self, keep_fraction: f64) {
        let keep = (self.max_connections as f64 * keep_fraction.clamp(0.0, 1.0)).ceil() as usize;
        self.max_connections = keep.max(1);
        self.exhausted = true;
    }

    /// Whether [`PopulationDb::exhaust`] has fired on this database.
    pub fn exhausted(&self) -> bool {
        self.exhausted
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

    /// Acquire a connection.
    pub fn acquire(&mut self) -> Result<(), ConnectionsExhausted> {
        if self.in_use >= self.max_connections {
            self.refused += 1;
            return Err(ConnectionsExhausted {
                region: self.region,
                max_connections: self.max_connections,
            });
        }
        self.in_use += 1;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Acquire `n` connections atomically (a job needs all or nothing).
    pub fn acquire_many(&mut self, n: usize) -> Result<(), ConnectionsExhausted> {
        if self.in_use + n > self.max_connections {
            self.refused += 1;
            return Err(ConnectionsExhausted {
                region: self.region,
                max_connections: self.max_connections,
            });
        }
        self.in_use += n;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Release a connection.
    ///
    /// # Panics
    /// Panics if no connection is held (a release/acquire imbalance is a
    /// workflow bug worth failing loudly on).
    pub fn release(&mut self) {
        assert!(self.in_use > 0, "release without acquire");
        self.in_use -= 1;
    }

    /// Release `n` connections.
    pub fn release_many(&mut self, n: usize) {
        assert!(self.in_use >= n, "release_many without matching acquires");
        self.in_use -= n;
    }

    /// Connections currently held.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Peak concurrent connections observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Number of refused acquires.
    pub fn refused(&self) -> u64 {
        self.refused
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
    fn acquire_release_cycle() {
        let mut db = PopulationDb::new(3, 1_000_000, 4);
        for _ in 0..4 {
            db.acquire().unwrap();
        }
        assert_eq!(db.in_use(), 4);
        assert!(db.acquire().is_err());
        db.release();
        db.acquire().unwrap();
        assert_eq!(db.peak(), 4);
        assert_eq!(db.refused(), 1);
    }

    #[test]
    fn acquire_many_all_or_nothing() {
        let mut db = PopulationDb::new(0, 100, 5);
        db.acquire_many(3).unwrap();
        assert!(db.acquire_many(3).is_err());
        assert_eq!(db.in_use(), 3, "failed bulk acquire must not leak");
        db.acquire_many(2).unwrap();
        db.release_many(5);
        assert_eq!(db.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_imbalance_panics() {
        let mut db = PopulationDb::new(0, 100, 2);
        db.release();
    }

    #[test]
    fn standby_replica_starts_clean() {
        let mut primary = PopulationDb::new(2, 100, 8);
        primary.exhaust(0.25);
        let standby = PopulationDb::standby(2, 100, 8);
        assert!(standby.is_standby());
        assert!(!standby.exhausted());
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
    fn exhaustion_shrinks_bound_but_keeps_held_connections() {
        let mut db = PopulationDb::new(2, 100, 8);
        db.acquire_many(6).unwrap();
        db.exhaust(0.5); // bound drops to 4, 6 still held
        assert!(db.exhausted());
        assert_eq!(db.max_connections, 4);
        assert_eq!(db.in_use(), 6);
        assert!(db.acquire().is_err());
        db.release_many(3);
        db.acquire().unwrap(); // 3 held < 4: headroom again
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

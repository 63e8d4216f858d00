//! Data-volume accounting (Tables I and II).
//!
//! The paper reports raw (individual-level) and summarized output sizes
//! per workflow. We compute both from first principles:
//!
//! * raw: one ~24-byte line per state transition ("multi-billion
//!   entries, about 5 TB" for calibration at national scale);
//! * summary: days × health states × 3 counts × 4 bytes per
//!   ⟨cell, region, replicate⟩, plus county-level rows;
//! * input: person-trait and contact-network CSV sizes.

/// Volume accounting for one workflow run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkflowVolume {
    pub cells: usize,
    pub regions: usize,
    pub replicates: usize,
    /// Total transitions across all simulations.
    pub total_transitions: u64,
    /// Simulated days per run.
    pub days: usize,
    /// Health states in the disease model.
    pub health_states: usize,
    /// Counties covered (for county-level summary rows).
    pub counties: usize,
}

/// The derived byte counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VolumeReport {
    pub n_simulations: usize,
    pub raw_bytes: u64,
    pub summary_bytes: u64,
    /// Entries in the aggregate output (days × states × 3 per sim).
    pub summary_entries: u64,
}

/// Bytes per raw transition line (tick,pid,state,cause ≈ 24 ASCII bytes).
pub const RAW_BYTES_PER_TRANSITION: u64 = 24;

/// Bytes per summary count (one 4-byte integer).
pub const SUMMARY_BYTES_PER_COUNT: u64 = 4;

impl WorkflowVolume {
    /// Compute the report.
    pub fn report(&self) -> VolumeReport {
        let n_simulations = self.cells * self.regions * self.replicates;
        let per_sim_state_entries = (self.days * self.health_states * 3) as u64;
        let per_sim_county_entries = (self.days * self.counties * self.health_states) as u64;
        let summary_entries =
            n_simulations as u64 * (per_sim_state_entries + per_sim_county_entries);
        VolumeReport {
            n_simulations,
            raw_bytes: self.total_transitions * RAW_BYTES_PER_TRANSITION,
            summary_bytes: summary_entries * SUMMARY_BYTES_PER_COUNT,
            summary_entries,
        }
    }

    /// The paper's Table-I rows at *national deployment scale*: derives
    /// transitions from an assumed attack rate over the full US
    /// population (≈300M nodes), for checking our accounting against
    /// the published numbers.
    pub fn paper_scale(
        cells: usize,
        replicates: usize,
        attack_rate: f64,
        transitions_per_case: f64,
    ) -> WorkflowVolume {
        let us_population: f64 = 300e6;
        let per_sim_transitions = us_population / 51.0 * attack_rate * transitions_per_case;
        WorkflowVolume {
            cells,
            regions: 51,
            replicates,
            total_transitions: (per_sim_transitions * (cells * 51 * replicates) as f64) as u64,
            days: 365,
            health_states: 90,
            counties: 0, // Table I counts the state-level aggregate only
        }
    }
}

/// Input-data sizes (Table II rows).
pub mod input {
    /// Bytes per person-trait CSV row.
    pub const PERSON_ROW_BYTES: u64 = 48;
    /// Bytes per contact-network CSV row.
    pub const EDGE_ROW_BYTES: u64 = 32;

    /// Person + network CSV size for a region.
    pub fn region_bytes(persons: u64, edges: u64) -> u64 {
        persons * PERSON_ROW_BYTES + edges * EDGE_ROW_BYTES
    }

    /// National one-time transfer (Table II: 2 TB for traits +
    /// networks): 300M persons and the week-long contact networks the
    /// typical-day network is projected from (7.9B edges × 7 days).
    pub fn national_bytes() -> u64 {
        region_bytes(300_000_000, 7 * 7_900_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_simulation_counts() {
        let econ = WorkflowVolume::paper_scale(12, 15, 0.2, 6.0);
        assert_eq!(econ.report().n_simulations, 9180);
        let calib = WorkflowVolume::paper_scale(300, 1, 0.2, 6.0);
        assert_eq!(calib.report().n_simulations, 15_300);
    }

    #[test]
    fn table_i_raw_sizes_order_of_magnitude() {
        // Economic workflow: paper says ≈3 TB raw, ≈1e9 aggregate
        // entries ≈ 2.5 GB summary.
        let econ = WorkflowVolume::paper_scale(12, 15, 0.20, 6.0);
        let r = econ.report();
        let tb = r.raw_bytes as f64 / 1e12;
        assert!((0.5..10.0).contains(&tb), "economic raw {tb} TB");
        let entries = r.summary_entries as f64;
        assert!((0.3e9..3e9).contains(&entries), "summary entries {entries}");
        let gb = r.summary_bytes as f64 / 1e9;
        assert!((1.0..6.0).contains(&gb), "summary {gb} GB");
    }

    #[test]
    fn calibration_raw_bigger_than_prediction() {
        // Table I: calibration 5 TB > prediction 1 TB (more sims, though
        // each run shorter — here equal-length runs, so count dominates).
        let calib = WorkflowVolume::paper_scale(300, 1, 0.2, 6.0).report();
        let pred = WorkflowVolume::paper_scale(12, 15, 0.2, 6.0).report();
        assert!(calib.raw_bytes > pred.raw_bytes);
    }

    #[test]
    fn report_from_measured_transitions() {
        let v = WorkflowVolume {
            cells: 2,
            regions: 3,
            replicates: 4,
            total_transitions: 1000,
            days: 100,
            health_states: 15,
            counties: 10,
        };
        let r = v.report();
        assert_eq!(r.n_simulations, 24);
        assert_eq!(r.raw_bytes, 24_000);
        assert_eq!(r.summary_entries, 24 * (100 * 15 * 3 + 100 * 10 * 15) as u64);
    }

    #[test]
    fn national_input_is_about_2tb() {
        let bytes = input::national_bytes();
        let tb = bytes as f64 / 1e12;
        assert!((0.2..3.0).contains(&tb), "national input {tb} TB");
    }
}

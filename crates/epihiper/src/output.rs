//! Simulation output: transition logs, dendograms, and aggregates.
//!
//! EpiHiper writes one line per state transition — the tick, the person,
//! their exit state, and (for transmissions) the person who caused the
//! transition. Dendograms — transmission trees rooted at the initial
//! infections — are part of this output. From the individual-level log
//! we aggregate to the county level for each health state, producing the
//! paper's three counts per (day, county, state): new, cumulative, and
//! current.

use crate::disease::{DiseaseModel, StateId};
use serde::Serialize;

/// One state-transition event (one line of EpiHiper's output file).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TransitionRecord {
    pub tick: u32,
    pub person: u32,
    /// The state being *entered*.
    pub state: StateId,
    /// For transmission events, the infecting person.
    pub cause: Option<u32>,
}

/// Statistics of the transmission forest (dendogram).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DendogramStats {
    /// Number of roots (initial infections with no recorded cause).
    pub roots: usize,
    /// Total transmission events (edges of the forest).
    pub transmissions: usize,
    /// Maximum depth over all trees (root = depth 0).
    pub max_depth: usize,
    /// Mean number of secondary infections per infected node that
    /// appears in the forest (an empirical R estimate).
    pub mean_offspring: f64,
}

/// Full output of one simulation replicate.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct SimOutput {
    /// Every transition, in (tick, person) order.
    pub transitions: Vec<TransitionRecord>,
    /// `new_counts[tick][state]`: transitions *into* `state` at `tick`.
    pub new_counts: Vec<Vec<u32>>,
    /// `current_counts[tick][state]`: occupancy at end of `tick`.
    pub current_counts: Vec<Vec<u32>>,
    /// `county_new[tick][county][state]` — county-level aggregation.
    pub county_new: Vec<Vec<Vec<u32>>>,
    /// Estimated resident memory (bytes) at each tick (Fig. 10).
    pub memory_bytes: Vec<u64>,
    /// Tick-0 seeds the configuration asked for (after capping at the
    /// population size).
    pub requested_seeds: u32,
    /// Tick-0 seeds actually placed. The seeding loop draws random
    /// nodes under a guard bound; if it exhausts the bound before
    /// placing `requested_seeds` infections, the run proceeds with
    /// fewer — previously silently, now recorded here.
    pub seeded: u32,
}

impl SimOutput {
    /// How many requested tick-0 seeds could not be placed (0 in the
    /// overwhelming majority of runs; non-zero when the seeding guard
    /// loop gave up, e.g. because most of the population was already
    /// non-susceptible).
    pub fn seed_shortfall(&self) -> u32 {
        self.requested_seeds.saturating_sub(self.seeded)
    }
    /// Cumulative counts into `state` over time.
    pub fn cumulative(&self, state: StateId) -> Vec<u64> {
        let mut acc = 0u64;
        self.new_counts
            .iter()
            .map(|row| {
                acc += row[state as usize] as u64;
                acc
            })
            .collect()
    }

    /// Daily new counts into `state`.
    pub fn daily_new(&self, state: StateId) -> Vec<u32> {
        self.new_counts.iter().map(|row| row[state as usize]).collect()
    }

    /// Occupancy of `state` over time.
    pub fn occupancy(&self, state: StateId) -> Vec<u32> {
        self.current_counts.iter().map(|row| row[state as usize]).collect()
    }

    /// Transmissions in the transition log: the records with a cause.
    /// Tick-0 seeds and progressions have none and are not counted, and
    /// a run that kept no log
    /// ([`SimConfig::record_transitions`](crate::SimConfig::record_transitions)
    /// off) reads 0 here however far its epidemic spread; read such a
    /// run's epidemic from `new_counts` instead.
    pub fn total_infections(&self) -> usize {
        self.transitions.iter().filter(|t| t.cause.is_some()).count()
    }

    /// Number of ticks simulated.
    pub fn n_ticks(&self) -> usize {
        self.new_counts.len()
    }

    /// Analyze the transmission forest.
    pub fn dendogram_stats(&self, model: &DiseaseModel) -> DendogramStats {
        let infected_state = model.initial_infected_state;
        // Parent map over infection events only.
        let mut parent: std::collections::HashMap<u32, Option<u32>> =
            std::collections::HashMap::new();
        for t in &self.transitions {
            if t.state == infected_state {
                parent.insert(t.person, t.cause);
            }
        }
        let roots = parent.values().filter(|c| c.is_none()).count();
        let transmissions = parent.values().filter(|c| c.is_some()).count();

        // Offspring counts.
        let mut offspring: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for cause in parent.values().flatten() {
            *offspring.entry(*cause).or_insert(0) += 1;
        }
        let infected_total = parent.len();
        let mean_offspring =
            if infected_total == 0 { 0.0 } else { transmissions as f64 / infected_total as f64 };

        // Depth by memoized walk to root.
        let mut depth: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        let mut max_depth = 0;
        for &p in parent.keys() {
            let mut chain = Vec::new();
            let mut cur = p;
            let d = loop {
                if let Some(&d) = depth.get(&cur) {
                    break d;
                }
                match parent.get(&cur) {
                    Some(Some(next)) => {
                        chain.push(cur);
                        cur = *next;
                    }
                    _ => break 0, // root (or cause outside the log)
                }
            };
            for (i, node) in chain.iter().rev().enumerate() {
                depth.insert(*node, d + i + 1);
            }
            max_depth = max_depth.max(d + chain.len());
        }
        DendogramStats { roots, transmissions, max_depth, mean_offspring }
    }

    /// Serialize the transition log in EpiHiper's line format:
    /// `tick,pid,exit_state,cause_pid` (empty cause for progressions).
    pub fn transitions_csv(&self, model: &DiseaseModel) -> String {
        let mut s = String::with_capacity(self.transitions.len() * 24);
        s.push_str("tick,pid,state,cause\n");
        for t in &self.transitions {
            match t.cause {
                Some(c) => s.push_str(&format!(
                    "{},{},{},{}\n",
                    t.tick,
                    t.person,
                    model.state_name(t.state),
                    c
                )),
                None => {
                    s.push_str(&format!("{},{},{},\n", t.tick, t.person, model.state_name(t.state)))
                }
            }
        }
        s
    }

    /// Size in bytes the raw individual-level output would occupy on
    /// disk (used for the Table I/II data-volume accounting).
    pub fn raw_output_bytes(&self) -> u64 {
        // EpiHiper's line: tick,pid,state,cause — ~24 bytes/entry.
        self.transitions.len() as u64 * 24
    }

    /// Size in bytes of the summarized output (days × states × 3 counts
    /// at 4 bytes each, plus county rows).
    pub fn summary_output_bytes(&self) -> u64 {
        let states = self.new_counts.first().map_or(0, |r| r.len()) as u64;
        let days = self.new_counts.len() as u64;
        let counties = self.county_new.first().map_or(0, |r| r.len()) as u64;
        days * states * 3 * 4 + days * counties * states * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disease::sir_model;

    fn mk(tick: u32, person: u32, state: StateId, cause: Option<u32>) -> TransitionRecord {
        TransitionRecord { tick, person, state, cause }
    }

    fn chain_output() -> SimOutput {
        // 0 seeds; 0 infects 1 and 2; 1 infects 3. States: I = 1, R = 2.
        let transitions = vec![
            mk(0, 0, 1, None),
            mk(1, 1, 1, Some(0)),
            mk(1, 2, 1, Some(0)),
            mk(2, 3, 1, Some(1)),
            mk(3, 0, 2, None),
        ];
        let mut new_counts = vec![vec![0u32; 3]; 4];
        new_counts[0][1] = 1;
        new_counts[1][1] = 2;
        new_counts[2][1] = 1;
        new_counts[3][2] = 1;
        SimOutput {
            transitions,
            new_counts,
            current_counts: vec![vec![0; 3]; 4],
            county_new: vec![vec![vec![0; 3]; 1]; 4],
            memory_bytes: vec![0; 4],
            ..Default::default()
        }
    }

    #[test]
    fn cumulative_accumulates() {
        let o = chain_output();
        assert_eq!(o.cumulative(1), vec![1, 3, 4, 4]);
        assert_eq!(o.daily_new(1), vec![1, 2, 1, 0]);
    }

    #[test]
    fn dendogram_structure() {
        let o = chain_output();
        let m = sir_model(0.1, 5.0);
        let d = o.dendogram_stats(&m);
        assert_eq!(d.roots, 1);
        assert_eq!(d.transmissions, 3);
        assert_eq!(d.max_depth, 2); // 0 -> 1 -> 3
        assert!((d.mean_offspring - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn total_infections_counts_caused_only() {
        let o = chain_output();
        assert_eq!(o.total_infections(), 3);
    }

    #[test]
    fn csv_format() {
        let o = chain_output();
        let m = sir_model(0.1, 5.0);
        let csv = o.transitions_csv(&m);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "tick,pid,state,cause");
        assert_eq!(lines[1], "0,0,I,");
        assert_eq!(lines[2], "1,1,I,0");
        assert_eq!(lines[5], "3,0,R,");
    }

    #[test]
    fn volume_accounting() {
        let o = chain_output();
        assert_eq!(o.raw_output_bytes(), 5 * 24);
        assert!(o.summary_output_bytes() > 0);
    }

    #[test]
    fn empty_output_is_sane() {
        let o = SimOutput::default();
        let m = sir_model(0.1, 5.0);
        let d = o.dendogram_stats(&m);
        assert_eq!(d, DendogramStats::default());
        assert_eq!(o.total_infections(), 0);
        assert_eq!(o.n_ticks(), 0);
        assert_eq!(o.seed_shortfall(), 0);
    }

    #[test]
    fn seed_shortfall_arithmetic() {
        let mut o = SimOutput { requested_seeds: 10, seeded: 7, ..Default::default() };
        assert_eq!(o.seed_shortfall(), 3);
        o.seeded = 10;
        assert_eq!(o.seed_shortfall(), 0);
        // Defensive: seeded > requested must not underflow.
        o.seeded = 12;
        assert_eq!(o.seed_shortfall(), 0);
    }
}

//! Disease models as probabilistic timed transition systems (PTTS).
//!
//! A disease model is specified independently of the population and the
//! contact network (Appendix D): all individuals share the same state
//! machine. It has three parts:
//!
//! * **states** with infectivity ι and susceptibility σ attributes,
//! * **progression** edges `(Xi → Xj, prob, dwell)` — within-host
//!   transitions, age-stratified, whose outgoing probabilities from any
//!   state sum to 1 (or 0 for terminal states),
//! * **transmission** edges `Ti,j,k` — a susceptible-state individual in
//!   `Xi` exposed via contact with an infectious individual in `Xk`
//!   moves to `Xj` at rate ω.
//!
//! Models serialize to/from JSON, matching EpiHiper's input format.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Index of a health state within a [`DiseaseModel`].
pub type StateId = u16;

/// Number of age groups (Table III stratification).
pub const N_AGE_GROUPS: usize = 5;

/// A dwell-time distribution for a progression edge, in whole ticks
/// (days). The three families of Table III: fixed, truncated normal,
/// and discrete.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum DwellTime {
    /// Always exactly `days`.
    Fixed { days: u16 },
    /// Normal(mean, sd) rounded and truncated to ≥ 1 day.
    Normal { mean: f64, sd: f64 },
    /// Explicit distribution over day values (probabilities normalized
    /// at sampling time).
    Discrete { days: Vec<u16>, probs: Vec<f64> },
}

impl DwellTime {
    /// Sample a dwell time in days (≥ 1 unless `Fixed { days: 0 }`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        match self {
            DwellTime::Fixed { days } => *days,
            DwellTime::Normal { mean, sd } => {
                let z: f64 = rand_distr::StandardNormal.sample_from(rng);
                (mean + sd * z).round().max(1.0) as u16
            }
            DwellTime::Discrete { days, probs } => {
                let total: f64 = probs.iter().sum();
                let mut draw = rng.random_range(0.0..total);
                for (d, p) in days.iter().zip(probs) {
                    draw -= p;
                    if draw <= 0.0 {
                        return *d;
                    }
                }
                *days.last().expect("non-empty discrete dwell")
            }
        }
    }

    /// Why [`DwellTime::sample`] would panic or misread this
    /// distribution, or `None` if it samples soundly.
    fn defect(&self) -> Option<&'static str> {
        match self {
            DwellTime::Fixed { .. } => None,
            DwellTime::Normal { mean, .. } if !mean.is_finite() => Some("has a non-finite mean"),
            DwellTime::Normal { sd, .. } if !sd.is_finite() || *sd < 0.0 => {
                Some("has a negative or non-finite sd")
            }
            DwellTime::Normal { .. } => None,
            DwellTime::Discrete { days, .. } if days.is_empty() => Some("has no days"),
            DwellTime::Discrete { days, probs } if days.len() != probs.len() => {
                Some("has days and probs of different lengths")
            }
            DwellTime::Discrete { probs, .. }
                if probs.iter().any(|p| !p.is_finite() || *p < 0.0) =>
            {
                Some("has a negative or non-finite probability")
            }
            DwellTime::Discrete { probs, .. } => {
                let total: f64 = probs.iter().sum();
                (!total.is_finite() || total <= 0.0).then_some("has no positive finite total")
            }
        }
    }

    /// Expected value in days.
    pub fn mean(&self) -> f64 {
        match self {
            DwellTime::Fixed { days } => *days as f64,
            DwellTime::Normal { mean, .. } => *mean,
            DwellTime::Discrete { days, probs } => {
                let total: f64 = probs.iter().sum();
                days.iter().zip(probs).map(|(d, p)| *d as f64 * p).sum::<f64>() / total
            }
        }
    }
}

/// Helper trait so `DwellTime::sample` can use `rand_distr` without the
/// caller importing `Distribution`.
trait SampleFrom {
    fn sample_from<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

impl SampleFrom for rand_distr::StandardNormal {
    fn sample_from<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rand_distr::Distribution::sample(self, rng)
    }
}

/// One health state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthState {
    pub name: String,
    /// Infectivity scaling ι — 0 for non-infectious states.
    pub infectivity: f64,
    /// Susceptibility scaling σ — 0 for non-susceptible states.
    pub susceptibility: f64,
}

/// A progression edge for one age group.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Progression {
    pub from: StateId,
    pub to: StateId,
    /// Probabilities per age group (length [`N_AGE_GROUPS`]).
    pub prob: [f64; N_AGE_GROUPS],
    /// Dwell time in `from` before moving to `to`, per age group.
    pub dwell: [DwellTime; N_AGE_GROUPS],
}

/// A transmission edge `T(i,j,k)`: susceptible-state `from` becomes
/// `to` when exposed to an individual in infectious state `via`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transmission {
    pub from: StateId,
    pub to: StateId,
    pub via: StateId,
    /// Transmission rate ω(T).
    pub omega: f64,
}

/// A complete disease model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiseaseModel {
    pub name: String,
    pub states: Vec<HealthState>,
    pub progressions: Vec<Progression>,
    pub transmissions: Vec<Transmission>,
    /// Global transmissibility scaling τ (Table IV: 0.18 for COVID-19).
    pub transmissibility: f64,
    /// The state newly infected individuals enter (initial infections).
    pub initial_infected_state: StateId,
    /// The default resting state.
    pub susceptible_state: StateId,
}

/// Validation failures for a disease model.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    UnknownState { what: &'static str, id: StateId },
    BadProbabilitySum { state: StateId, age_group: usize, sum: f64 },
    EmptyStates,
    NegativeRate { index: usize },
    BadProbability { progression: usize, age_group: usize, prob: f64 },
    BadDwell { progression: usize, age_group: usize, reason: &'static str },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownState { what, id } => write!(f, "unknown state id {id} in {what}"),
            ModelError::BadProbabilitySum { state, age_group, sum } => write!(
                f,
                "outgoing probabilities from state {state} for age group {age_group} sum to {sum}, expected 0 or 1"
            ),
            ModelError::EmptyStates => write!(f, "model has no states"),
            ModelError::NegativeRate { index } => {
                write!(f, "transmission {index} has a negative rate")
            }
            ModelError::BadProbability { progression, age_group, prob } => write!(
                f,
                "progression {progression} has probability {prob} for age group {age_group}, expected a finite value >= 0"
            ),
            ModelError::BadDwell { progression, age_group, reason } => write!(
                f,
                "progression {progression}, age group {age_group}: dwell time {reason}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

impl DiseaseModel {
    /// Look up a state id by name.
    pub fn state_id(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s.name == name).map(|i| i as StateId)
    }

    /// Name of a state.
    pub fn state_name(&self, id: StateId) -> &str {
        &self.states[id as usize].name
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// True if the state can transmit infection.
    pub fn is_infectious(&self, id: StateId) -> bool {
        self.states[id as usize].infectivity > 0.0
    }

    /// True if individuals in this state can be infected.
    pub fn is_susceptible(&self, id: StateId) -> bool {
        self.states[id as usize].susceptibility > 0.0
    }

    /// Progression edges out of `state`.
    pub fn progressions_from(&self, state: StateId) -> impl Iterator<Item = &Progression> {
        self.progressions.iter().filter(move |p| p.from == state)
    }

    /// Sample the progression out of `state` for `age_group`:
    /// `(next_state, dwell_days)`, or `None` for terminal states.
    pub fn sample_progression<R: Rng + ?Sized>(
        &self,
        state: StateId,
        age_group: usize,
        rng: &mut R,
    ) -> Option<(StateId, u16)> {
        let edges: Vec<&Progression> = self.progressions_from(state).collect();
        if edges.is_empty() {
            return None;
        }
        let total: f64 = edges.iter().map(|e| e.prob[age_group]).sum();
        if total <= 0.0 {
            return None;
        }
        let mut draw = rng.random_range(0.0..total);
        for e in &edges {
            draw -= e.prob[age_group];
            if draw <= 0.0 {
                return Some((e.to, e.dwell[age_group].sample(rng)));
            }
        }
        let last = edges.last().expect("non-empty edges");
        Some((last.to, last.dwell[age_group].sample(rng)))
    }

    /// Validate internal consistency: state ids in range, rates ≥ 0,
    /// each edge's per-age-group probability finite and ≥ 0 (a sum of 1
    /// can hide `2.0` and `-1.0`), outgoing sums of 0 or 1, and every
    /// dwell-time distribution one that [`DwellTime::sample`] can draw
    /// from.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.states.is_empty() {
            return Err(ModelError::EmptyStates);
        }
        let n = self.states.len() as StateId;
        let check = |what: &'static str, id: StateId| {
            if id >= n {
                Err(ModelError::UnknownState { what, id })
            } else {
                Ok(())
            }
        };
        check("initial_infected_state", self.initial_infected_state)?;
        check("susceptible_state", self.susceptible_state)?;
        for (i, p) in self.progressions.iter().enumerate() {
            check("progression.from", p.from)?;
            check("progression.to", p.to)?;
            for (g, (&prob, dwell)) in p.prob.iter().zip(&p.dwell).enumerate() {
                if !prob.is_finite() || prob < 0.0 {
                    return Err(ModelError::BadProbability { progression: i, age_group: g, prob });
                }
                if let Some(reason) = dwell.defect() {
                    return Err(ModelError::BadDwell { progression: i, age_group: g, reason });
                }
            }
        }
        for (i, t) in self.transmissions.iter().enumerate() {
            check("transmission.from", t.from)?;
            check("transmission.to", t.to)?;
            check("transmission.via", t.via)?;
            if t.omega < 0.0 {
                return Err(ModelError::NegativeRate { index: i });
            }
        }
        // Outgoing probability sums must be 0 (terminal) or 1.
        for s in 0..n {
            for g in 0..N_AGE_GROUPS {
                let sum: f64 = self.progressions_from(s).map(|p| p.prob[g]).sum();
                if sum != 0.0 && (sum - 1.0).abs() > 1e-6 {
                    return Err(ModelError::BadProbabilitySum { state: s, age_group: g, sum });
                }
            }
        }
        Ok(())
    }

    /// Serialize to the JSON input format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("disease model serializes")
    }

    /// Parse from JSON and validate.
    pub fn from_json(json: &str) -> Result<DiseaseModel, String> {
        let model: DiseaseModel = serde_json::from_str(json).map_err(|e| e.to_string())?;
        model.validate().map_err(|e| e.to_string())?;
        Ok(model)
    }
}

/// A minimal SIR model (used by tests and as a documentation example).
pub fn sir_model(beta: f64, mean_infectious_days: f64) -> DiseaseModel {
    let dwell = DwellTime::Normal { mean: mean_infectious_days, sd: 1.0 };
    DiseaseModel {
        name: "SIR".into(),
        states: vec![
            HealthState { name: "S".into(), infectivity: 0.0, susceptibility: 1.0 },
            HealthState { name: "I".into(), infectivity: 1.0, susceptibility: 0.0 },
            HealthState { name: "R".into(), infectivity: 0.0, susceptibility: 0.0 },
        ],
        progressions: vec![Progression {
            from: 1,
            to: 2,
            prob: [1.0; N_AGE_GROUPS],
            dwell: [dwell.clone(), dwell.clone(), dwell.clone(), dwell.clone(), dwell],
        }],
        transmissions: vec![Transmission { from: 0, to: 1, via: 1, omega: 1.0 }],
        transmissibility: beta,
        initial_infected_state: 1,
        susceptible_state: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sir_validates() {
        sir_model(0.1, 5.0).validate().unwrap();
    }

    #[test]
    fn state_lookup() {
        let m = sir_model(0.1, 5.0);
        assert_eq!(m.state_id("S"), Some(0));
        assert_eq!(m.state_id("I"), Some(1));
        assert_eq!(m.state_id("Z"), None);
        assert_eq!(m.state_name(2), "R");
        assert!(m.is_infectious(1));
        assert!(!m.is_infectious(0));
        assert!(m.is_susceptible(0));
        assert!(!m.is_susceptible(2));
    }

    #[test]
    fn dwell_fixed() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = DwellTime::Fixed { days: 3 };
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3);
        }
        assert_eq!(d.mean(), 3.0);
    }

    #[test]
    fn dwell_normal_truncated_and_centered() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = DwellTime::Normal { mean: 5.0, sd: 1.0 };
        let n = 4000;
        let samples: Vec<u16> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| s >= 1));
        let mean: f64 = samples.iter().map(|&s| s as f64).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn dwell_discrete_distribution() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = DwellTime::Discrete { days: vec![1, 2, 10], probs: vec![0.5, 0.5, 0.0] };
        let n = 2000;
        let ones = (0..n).filter(|_| d.sample(&mut rng) == 1).count();
        assert!((ones as f64 / n as f64 - 0.5).abs() < 0.05);
        for _ in 0..200 {
            assert_ne!(d.sample(&mut rng), 10, "zero-probability day sampled");
        }
        assert!((d.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sample_progression_terminal() {
        let m = sir_model(0.1, 5.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(m.sample_progression(2, 0, &mut rng).is_none()); // R terminal
        assert!(m.sample_progression(0, 0, &mut rng).is_none()); // S has no progression
        let (to, dwell) = m.sample_progression(1, 0, &mut rng).unwrap();
        assert_eq!(to, 2);
        assert!(dwell >= 1);
    }

    #[test]
    fn sample_progression_branching_probabilities() {
        // I -> R with 0.3 and I -> D with 0.7.
        let mut m = sir_model(0.1, 5.0);
        m.states.push(HealthState { name: "D".into(), infectivity: 0.0, susceptibility: 0.0 });
        m.progressions[0].prob = [0.3; N_AGE_GROUPS];
        let dwell = DwellTime::Fixed { days: 2 };
        m.progressions.push(Progression {
            from: 1,
            to: 3,
            prob: [0.7; N_AGE_GROUPS],
            dwell: [dwell.clone(), dwell.clone(), dwell.clone(), dwell.clone(), dwell],
        });
        m.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4000;
        let deaths =
            (0..n).filter(|_| m.sample_progression(1, 2, &mut rng).unwrap().0 == 3).count();
        let frac = deaths as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.03, "death fraction {frac}");
    }

    #[test]
    fn validation_catches_bad_sum() {
        let mut m = sir_model(0.1, 5.0);
        m.progressions[0].prob = [0.5; N_AGE_GROUPS];
        assert!(matches!(m.validate(), Err(ModelError::BadProbabilitySum { .. })));
    }

    #[test]
    fn validation_catches_unknown_state() {
        let mut m = sir_model(0.1, 5.0);
        m.transmissions[0].via = 99;
        assert!(matches!(m.validate(), Err(ModelError::UnknownState { .. })));
    }

    #[test]
    fn validation_catches_negative_rate() {
        let mut m = sir_model(0.1, 5.0);
        m.transmissions[0].omega = -1.0;
        assert!(matches!(m.validate(), Err(ModelError::NegativeRate { .. })));
    }

    #[test]
    fn json_round_trip() {
        let m = sir_model(0.12, 4.0);
        let json = m.to_json();
        let back = DiseaseModel::from_json(&json).unwrap();
        assert_eq!(back, m);
    }

    fn json_of(m: &DiseaseModel) -> String {
        serde_json::to_string(m).unwrap()
    }

    /// `from_json`'s error; a model it accepts fails the test. Callers
    /// patch `1e999` into the text for an infinite value, which the
    /// writer would emit as `null`.
    fn rejection(json: &str) -> String {
        DiseaseModel::from_json(json).unwrap_err()
    }

    fn with_dwell(dwell: DwellTime) -> DiseaseModel {
        let mut m = sir_model(0.1, 5.0);
        m.progressions[0].dwell[2] = dwell;
        m
    }

    #[test]
    fn json_rejects_empty_discrete_dwell() {
        let m = with_dwell(DwellTime::Discrete { days: vec![], probs: vec![] });
        let err = rejection(&json_of(&m));
        assert!(err.contains("age group 2: dwell time has no days"), "{err}");
    }

    #[test]
    fn json_rejects_mismatched_discrete_dwell() {
        let m = with_dwell(DwellTime::Discrete { days: vec![1, 2], probs: vec![1.0] });
        let err = rejection(&json_of(&m));
        assert!(err.contains("of different lengths"), "{err}");
    }

    #[test]
    fn json_rejects_negative_discrete_probability() {
        let m = with_dwell(DwellTime::Discrete { days: vec![1, 2], probs: vec![2.0, -1.0] });
        let err = rejection(&json_of(&m));
        assert!(err.contains("negative or non-finite probability"), "{err}");
    }

    #[test]
    fn json_rejects_non_finite_discrete_probability() {
        let m = with_dwell(DwellTime::Discrete { days: vec![1, 2], probs: vec![0.5, 0.25] });
        let err = rejection(&json_of(&m).replace("0.25", "1e999"));
        assert!(err.contains("negative or non-finite probability"), "{err}");
    }

    #[test]
    fn json_rejects_zero_total_discrete_dwell() {
        let m = with_dwell(DwellTime::Discrete { days: vec![1, 2], probs: vec![0.0, 0.0] });
        let err = rejection(&json_of(&m));
        assert!(err.contains("no positive finite total"), "{err}");
    }

    #[test]
    fn json_rejects_non_finite_normal_mean() {
        let m = with_dwell(DwellTime::Normal { mean: 4.25, sd: 1.0 });
        let err = rejection(&json_of(&m).replace("4.25", "1e999"));
        assert!(err.contains("non-finite mean"), "{err}");
    }

    #[test]
    fn json_rejects_negative_normal_sd() {
        let m = with_dwell(DwellTime::Normal { mean: 4.0, sd: -0.5 });
        let err = rejection(&json_of(&m));
        assert!(err.contains("negative or non-finite sd"), "{err}");
    }

    #[test]
    fn json_rejects_non_finite_normal_sd() {
        let m = with_dwell(DwellTime::Normal { mean: 4.0, sd: 0.75 });
        let err = rejection(&json_of(&m).replace("0.75", "1e999"));
        assert!(err.contains("negative or non-finite sd"), "{err}");
    }

    #[test]
    fn json_rejects_negative_edge_probability_summing_to_one() {
        // I -> R at 2.0 and I -> S at -1.0: the sum is 1, the edges are not.
        let mut m = sir_model(0.1, 5.0);
        m.progressions[0].prob = [2.0; N_AGE_GROUPS];
        let mut back = m.progressions[0].clone();
        back.to = 0;
        back.prob = [-1.0; N_AGE_GROUPS];
        m.progressions.push(back);
        let err = rejection(&json_of(&m));
        assert!(err.contains("progression 1 has probability -1"), "{err}");
    }

    #[test]
    fn json_rejects_non_finite_edge_probability() {
        let mut m = sir_model(0.1, 5.0);
        m.progressions[0].prob[3] = 0.875;
        let err = rejection(&json_of(&m).replace("0.875", "1e999"));
        assert!(err.contains("probability inf for age group 3"), "{err}");
    }

    #[test]
    fn json_rejects_invalid_model() {
        let mut m = sir_model(0.1, 5.0);
        m.progressions[0].prob = [0.2; N_AGE_GROUPS];
        let json = serde_json::to_string(&m).unwrap();
        assert!(DiseaseModel::from_json(&json).is_err());
    }
}

//! The builtin COVID-19 disease model (paper Fig. 12, Tables III & IV —
//! the CDC "best guess" planning parameters \[8\]).
//!
//! States and the age-stratified severity ladder follow the paper
//! exactly; the per-age branch probabilities in Table III reconstruct
//! consistently (each state's outgoing probabilities sum to 1 in every
//! age column), and we encode them verbatim. A few dwell-time cells are
//! garbled in the available scan; where ambiguous we use the companion
//! rows' values (documented inline), preserving the distribution
//! *family* (fixed / truncated-normal / discrete) the table specifies.
//!
//! Age groups: 0–4, 5–17, 18–49, 50–64, 65+.

use crate::disease::{
    DiseaseModel, DwellTime, HealthState, Progression, Transmission, N_AGE_GROUPS,
};

/// State indices of the COVID-19 model, in declaration order.
pub mod states {
    use crate::disease::StateId;
    pub const SUSCEPTIBLE: StateId = 0;
    pub const EXPOSED: StateId = 1;
    pub const PRESYMPTOMATIC: StateId = 2;
    pub const SYMPTOMATIC: StateId = 3;
    pub const ASYMPTOMATIC: StateId = 4;
    /// Medical attention, recovery path ("Attd").
    pub const ATTENDED: StateId = 5;
    /// Medical attention resulting in hospitalization ("Attd(H)").
    pub const ATTENDED_H: StateId = 6;
    /// Medical attention resulting in death ("Attd(D)").
    pub const ATTENDED_D: StateId = 7;
    /// Hospitalized, recovery path ("Hosp").
    pub const HOSPITALIZED: StateId = 8;
    /// Hospitalized on the death path ("Hosp(D)").
    pub const HOSPITALIZED_D: StateId = 9;
    /// Ventilated, recovery path ("Vent").
    pub const VENTILATED: StateId = 10;
    /// Ventilated on the death path ("Vent(D)").
    pub const VENTILATED_D: StateId = 11;
    pub const RECOVERED: StateId = 12;
    pub const DEATH: StateId = 13;
    /// Treatment failure: susceptible again (Table IV lists its
    /// susceptibility; no inbound edge in the default model).
    pub const RX_FAILURE: StateId = 14;
}

fn same(d: DwellTime) -> [DwellTime; N_AGE_GROUPS] {
    [d.clone(), d.clone(), d.clone(), d.clone(), d]
}

fn normals(means: [f64; N_AGE_GROUPS], sds: [f64; N_AGE_GROUPS]) -> [DwellTime; N_AGE_GROUPS] {
    [
        DwellTime::Normal { mean: means[0], sd: sds[0] },
        DwellTime::Normal { mean: means[1], sd: sds[1] },
        DwellTime::Normal { mean: means[2], sd: sds[2] },
        DwellTime::Normal { mean: means[3], sd: sds[3] },
        DwellTime::Normal { mean: means[4], sd: sds[4] },
    ]
}

/// Build the COVID-19 model.
pub fn covid19_model() -> DiseaseModel {
    use states::*;

    let states = vec![
        HealthState { name: "Susceptible".into(), infectivity: 0.0, susceptibility: 1.0 },
        HealthState { name: "Exposed".into(), infectivity: 0.0, susceptibility: 0.0 },
        // Table IV: Presymptomatic ι = 0.8, Symptomatic ι = 1.0,
        // Asymptomatic ι = 1.0.
        HealthState { name: "Presymptomatic".into(), infectivity: 0.8, susceptibility: 0.0 },
        HealthState { name: "Symptomatic".into(), infectivity: 1.0, susceptibility: 0.0 },
        HealthState { name: "Asymptomatic".into(), infectivity: 1.0, susceptibility: 0.0 },
        HealthState { name: "Attended".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "AttendedH".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "AttendedD".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "Hospitalized".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "HospitalizedD".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "Ventilated".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "VentilatedD".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "Recovered".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "Death".into(), infectivity: 0.0, susceptibility: 0.0 },
        HealthState { name: "RxFailure".into(), infectivity: 0.0, susceptibility: 1.0 },
    ];

    // Table III symptomatic-severity branch probabilities, verbatim:
    // outgoing sums are exactly 1 in every age column.
    let p_attended = [0.9594, 0.9894, 0.9594, 0.912, 0.788];
    let p_attended_d = [0.0006, 0.0006, 0.0006, 0.003, 0.017];
    let p_attended_h = [0.04, 0.01, 0.04, 0.085, 0.195];
    let p_hosp_recover = [0.94, 0.94, 0.94, 0.85, 0.775];
    let p_hosp_vent = [0.06, 0.06, 0.06, 0.15, 0.225];

    // Symptomatic → Attended dwell: Table III's discrete distribution
    // over days 1..=10.
    let attd_dwell = DwellTime::Discrete {
        days: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        probs: vec![0.175, 0.175, 0.1, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05],
    };

    let progressions = vec![
        // Exposed: 35% asymptomatic, 65% presymptomatic. Incubation is
        // N(5, 1) per the Exposed rows of Table III.
        Progression {
            from: EXPOSED,
            to: ASYMPTOMATIC,
            prob: [0.35; N_AGE_GROUPS],
            dwell: same(DwellTime::Normal { mean: 5.0, sd: 1.0 }),
        },
        Progression {
            from: EXPOSED,
            to: PRESYMPTOMATIC,
            // Table III lists dt-fixed for this edge; the scanned value
            // is ambiguous, so we use 4 days, keeping total incubation
            // (4 + presymptomatic 2 = 6d) at the CDC planning value.
            prob: [0.65; N_AGE_GROUPS],
            dwell: same(DwellTime::Fixed { days: 4 }),
        },
        Progression {
            from: PRESYMPTOMATIC,
            to: SYMPTOMATIC,
            prob: [1.0; N_AGE_GROUPS],
            dwell: same(DwellTime::Fixed { days: 2 }),
        },
        Progression {
            from: ASYMPTOMATIC,
            to: RECOVERED,
            prob: [1.0; N_AGE_GROUPS],
            dwell: same(DwellTime::Normal { mean: 5.0, sd: 1.0 }),
        },
        // Symptomatic three-way branch (verbatim Table III).
        Progression { from: SYMPTOMATIC, to: ATTENDED, prob: p_attended, dwell: same(attd_dwell) },
        Progression {
            from: SYMPTOMATIC,
            to: ATTENDED_D,
            prob: p_attended_d,
            dwell: same(DwellTime::Fixed { days: 2 }),
        },
        Progression {
            from: SYMPTOMATIC,
            to: ATTENDED_H,
            prob: p_attended_h,
            dwell: same(DwellTime::Fixed { days: 1 }),
        },
        // Recovery path after medical attention.
        Progression {
            from: ATTENDED,
            to: RECOVERED,
            prob: [1.0; N_AGE_GROUPS],
            dwell: same(DwellTime::Normal { mean: 5.0, sd: 1.0 }),
        },
        // Death path: attention → hospital → (ventilator →) death.
        Progression {
            from: ATTENDED_D,
            to: HOSPITALIZED_D,
            prob: [0.95; N_AGE_GROUPS],
            dwell: same(DwellTime::Fixed { days: 2 }),
        },
        Progression {
            from: ATTENDED_D,
            to: DEATH,
            prob: [0.05; N_AGE_GROUPS],
            dwell: same(DwellTime::Fixed { days: 8 }),
        },
        Progression {
            from: HOSPITALIZED_D,
            to: VENTILATED_D,
            prob: [0.7; N_AGE_GROUPS],
            dwell: same(DwellTime::Fixed { days: 4 }),
        },
        Progression {
            from: HOSPITALIZED_D,
            to: DEATH,
            prob: [0.3; N_AGE_GROUPS],
            dwell: same(DwellTime::Fixed { days: 6 }),
        },
        Progression {
            from: VENTILATED_D,
            to: DEATH,
            prob: [1.0; N_AGE_GROUPS],
            dwell: same(DwellTime::Fixed { days: 8 }),
        },
        // Hospitalization path.
        Progression {
            from: ATTENDED_H,
            to: HOSPITALIZED,
            prob: [1.0; N_AGE_GROUPS],
            dwell: normals([5.0, 5.0, 5.0, 5.3, 4.2], [4.6, 4.6, 4.6, 5.2, 5.2]),
        },
        Progression {
            from: HOSPITALIZED,
            to: RECOVERED,
            prob: p_hosp_recover,
            dwell: normals([3.1, 3.1, 3.1, 7.8, 6.5], [3.7, 3.7, 3.7, 6.3, 4.9]),
        },
        Progression {
            from: HOSPITALIZED,
            to: VENTILATED,
            prob: p_hosp_vent,
            dwell: same(DwellTime::Fixed { days: 1 }),
        },
        Progression {
            from: VENTILATED,
            to: RECOVERED,
            prob: [1.0; N_AGE_GROUPS],
            dwell: normals([2.1, 2.1, 2.1, 6.8, 5.5], [3.7, 3.7, 3.7, 6.3, 4.9]),
        },
    ];

    // Susceptible (and RxFailure) individuals become Exposed via contact
    // with any of the three infectious states.
    let mut transmissions = Vec::new();
    for from in [SUSCEPTIBLE, RX_FAILURE] {
        for via in [PRESYMPTOMATIC, SYMPTOMATIC, ASYMPTOMATIC] {
            transmissions.push(Transmission { from, to: EXPOSED, via, omega: 1.0 });
        }
    }

    let model = DiseaseModel {
        name: "COVID-19 (CDC best-guess planning parameters)".into(),
        states,
        progressions,
        transmissions,
        // Table IV: transmissibility τ = 0.18.
        transmissibility: 0.18,
        initial_infected_state: EXPOSED,
        susceptible_state: SUSCEPTIBLE,
    };
    debug_assert!(model.validate().is_ok());
    model
}

#[cfg(test)]
mod tests {
    use super::states::*;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn model_validates() {
        covid19_model().validate().unwrap();
    }

    #[test]
    fn fifteen_states() {
        let m = covid19_model();
        assert_eq!(m.n_states(), 15);
        assert_eq!(m.state_id("Susceptible"), Some(SUSCEPTIBLE));
        assert_eq!(m.state_id("Death"), Some(DEATH));
        assert_eq!(m.state_id("RxFailure"), Some(RX_FAILURE));
    }

    #[test]
    fn table_iv_attributes() {
        let m = covid19_model();
        assert_eq!(m.transmissibility, 0.18);
        assert_eq!(m.states[PRESYMPTOMATIC as usize].infectivity, 0.8);
        assert_eq!(m.states[SYMPTOMATIC as usize].infectivity, 1.0);
        assert_eq!(m.states[ASYMPTOMATIC as usize].infectivity, 1.0);
        assert_eq!(m.states[SUSCEPTIBLE as usize].susceptibility, 1.0);
        assert_eq!(m.states[RX_FAILURE as usize].susceptibility, 1.0);
    }

    #[test]
    fn symptomatic_branch_sums_to_one_per_age() {
        let m = covid19_model();
        for g in 0..N_AGE_GROUPS {
            let sum: f64 = m.progressions_from(SYMPTOMATIC).map(|p| p.prob[g]).sum();
            assert!((sum - 1.0).abs() < 1e-9, "age {g} sum {sum}");
        }
    }

    #[test]
    fn severity_increases_with_age() {
        let m = covid19_model();
        let hosp = m.progressions_from(SYMPTOMATIC).find(|p| p.to == ATTENDED_H).unwrap();
        // 65+ hospitalization risk far exceeds school-age.
        assert!(hosp.prob[4] > 10.0 * hosp.prob[1]);
        let death = m.progressions_from(SYMPTOMATIC).find(|p| p.to == ATTENDED_D).unwrap();
        assert!(death.prob[4] > death.prob[0]);
    }

    #[test]
    fn death_and_recovered_are_terminal() {
        let m = covid19_model();
        assert_eq!(m.progressions_from(DEATH).count(), 0);
        assert_eq!(m.progressions_from(RECOVERED).count(), 0);
    }

    #[test]
    fn all_infected_paths_terminate() {
        // From Exposed, repeatedly sampling progressions must reach a
        // terminal state (Recovered or Death) within a bounded number of
        // hops for every age group.
        let m = covid19_model();
        let mut rng = StdRng::seed_from_u64(7);
        for g in 0..N_AGE_GROUPS {
            for _ in 0..300 {
                let mut state = EXPOSED;
                let mut hops = 0;
                while let Some((next, _)) = m.sample_progression(state, g, &mut rng) {
                    state = next;
                    hops += 1;
                    assert!(hops < 12, "progression cycle detected at age group {g}");
                }
                assert!(
                    state == RECOVERED || state == DEATH,
                    "terminal state {} for age group {g}",
                    m.state_name(state)
                );
            }
        }
    }

    #[test]
    fn infection_fatality_rises_with_age() {
        // Monte-Carlo IFR per age group must be monotone-ish: seniors
        // die far more often than children.
        let m = covid19_model();
        let mut rng = StdRng::seed_from_u64(8);
        let ifr = |g: usize, rng: &mut StdRng| {
            let n = 20_000;
            let deaths = (0..n)
                .filter(|_| {
                    let mut s = EXPOSED;
                    while let Some((next, _)) = m.sample_progression(s, g, rng) {
                        s = next;
                    }
                    s == DEATH
                })
                .count();
            deaths as f64 / n as f64
        };
        let child = ifr(1, &mut rng);
        let senior = ifr(4, &mut rng);
        assert!(senior > 0.01, "senior IFR {senior}");
        assert!(senior > 5.0 * child.max(1e-4), "child {child} vs senior {senior}");
    }

    #[test]
    fn json_round_trip() {
        let m = covid19_model();
        let back = DiseaseModel::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn six_transmission_edges() {
        let m = covid19_model();
        assert_eq!(m.transmissions.len(), 6);
        for t in &m.transmissions {
            assert_eq!(t.to, EXPOSED);
            assert!(m.is_infectious(t.via));
            assert!(m.is_susceptible(t.from));
        }
    }
}

//! SEIR parameters and intervention scenarios.

use serde::{Deserialize, Serialize};

/// 1 / latent period (E → P or Iₐ).
pub(crate) const SIGMA: f64 = 1.0 / 4.0;
/// 1 / presymptomatic period (P → Iₛ).
pub(crate) const DELTA: f64 = 1.0 / 2.0;
/// Fraction of infections that stay asymptomatic.
pub(crate) const ASYMPTOMATIC_FRACTION: f64 = 0.35;
/// Relative transmissivity of presymptomatic cases.
pub(crate) const REL_PRESYMPTOMATIC: f64 = 0.8;
/// Relative transmissivity of asymptomatic cases.
pub(crate) const REL_ASYMPTOMATIC: f64 = 0.6;
/// Fraction of symptomatic cases hospitalized.
pub(crate) const HOSPITALIZATION_FRACTION: f64 = 0.06;
/// 1 / hospital stay duration.
pub(crate) const ETA: f64 = 1.0 / 8.0;
/// Fraction of hospitalized cases who die.
pub(crate) const HOSPITAL_FATALITY: f64 = 0.15;

/// Disease parameters for the metapopulation model. Defaults follow the
/// early-COVID-19 estimates the paper cites (R₀ ≈ 2.5, ~5-day latent
/// period, reduced but nonzero pre/asymptomatic transmissivity). Only
/// the two rates calibration moves are settable; the latent and
/// presymptomatic periods, the asymptomatic share and transmissivities,
/// and the hospital course are fixed constants of this module.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeirParams {
    /// Transmission rate β (per day). R₀ ≈ β · infectious duration.
    pub beta: f64,
    /// 1 / infectious period (Iₛ/Iₐ → outcome).
    pub gamma: f64,
}

impl Default for SeirParams {
    fn default() -> Self {
        SeirParams { beta: 0.5, gamma: 1.0 / 5.0 }
    }
}

impl SeirParams {
    /// Approximate basic reproduction number implied by these
    /// parameters: the expected transmission integrated over the
    /// presymptomatic and infectious periods, mixing symptomatic and
    /// asymptomatic paths.
    pub fn r0(&self) -> f64 {
        let symptomatic_path =
            (1.0 - ASYMPTOMATIC_FRACTION) * (REL_PRESYMPTOMATIC / DELTA + 1.0 / self.gamma);
        let asymptomatic_path = ASYMPTOMATIC_FRACTION * REL_ASYMPTOMATIC / self.gamma;
        self.beta * (symptomatic_path + asymptomatic_path)
    }

    /// Scale β to hit a target R₀ (used by the paper's economic study,
    /// which calibrates "towards R₀ = 2.5").
    pub fn with_r0(mut self, target: f64) -> Self {
        assert!(target > 0.0, "target R0 must be positive");
        let current = self.r0();
        self.beta *= target / current;
        self
    }
}

/// A transmissibility-modifying scenario: the case study models a
/// worst-case (no distancing) and four intense-social-distancing
/// variants differentiated by end date and reduction level.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    pub name: String,
    /// Day intense social distancing starts (None = never).
    pub distancing_start: Option<u32>,
    /// Day it ends (inclusive start, exclusive end).
    pub distancing_end: u32,
    /// Multiplier on β while distancing (e.g. 0.5 = 50% reduction).
    pub beta_multiplier: f64,
}

impl Scenario {
    /// The case study's five scenarios, with the paper's dates mapped to
    /// day offsets from the simulation epoch (2020-01-21): March 15 ≈
    /// day 54, April 30 ≈ day 100, June 10 ≈ day 141.
    pub fn case_study_set() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "worst-case".into(),
                distancing_start: None,
                distancing_end: 0,
                beta_multiplier: 1.0,
            },
            Scenario {
                name: "sd-25pct-until-apr30".into(),
                distancing_start: Some(54),
                distancing_end: 100,
                beta_multiplier: 0.75,
            },
            Scenario {
                name: "sd-50pct-until-apr30".into(),
                distancing_start: Some(54),
                distancing_end: 100,
                beta_multiplier: 0.50,
            },
            Scenario {
                name: "sd-25pct-until-jun10".into(),
                distancing_start: Some(54),
                distancing_end: 141,
                beta_multiplier: 0.75,
            },
            Scenario {
                name: "sd-50pct-until-jun10".into(),
                distancing_start: Some(54),
                distancing_end: 141,
                beta_multiplier: 0.50,
            },
        ]
    }

    /// Effective β multiplier on a given day.
    pub fn multiplier(&self, day: u32) -> f64 {
        match self.distancing_start {
            Some(start) if day >= start && day < self.distancing_end => self.beta_multiplier,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_r0_plausible() {
        let r0 = SeirParams::default().r0();
        assert!((1.5..4.0).contains(&r0), "R0 {r0}");
    }

    #[test]
    fn with_r0_hits_target() {
        let p = SeirParams::default().with_r0(2.5);
        assert!((p.r0() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn five_case_study_scenarios() {
        let s = Scenario::case_study_set();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].multiplier(60), 1.0); // worst case never distances
        assert_eq!(s[2].multiplier(60), 0.50); // within window
        assert_eq!(s[2].multiplier(10), 1.0); // before start
        assert_eq!(s[2].multiplier(100), 1.0); // after end (exclusive)
        assert_eq!(s[4].multiplier(120), 0.50); // longer window still on
    }

    #[test]
    fn serde_round_trip() {
        let p = SeirParams::default();
        let json = serde_json::to_string(&p).unwrap();
        let back: SeirParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}

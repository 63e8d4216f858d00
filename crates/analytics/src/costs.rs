//! Medical-cost model (case study 1, \[9\]).
//!
//! "The medical costs include costs incurred by COVID-19 patients for
//! medical attention, hospitalization, ventilator support, etc. For
//! each patient, the total costs depend on the disease severity."
//!
//! We charge each patient by the care events they generate: an
//! outpatient medical-attention visit, a hospital admission (plus a
//! daily bed rate), and ventilator support. Unit costs default to the
//! FAIR-Health-style 2020 estimates used by the paper's companion
//! economic study.

use epiflow_epihiper::covid::states;
use epiflow_epihiper::SimOutput;

/// Unit costs in 2020 US dollars.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Outpatient medical-attention visit.
    pub attended_visit: f64,
    /// Hospital admission (fixed component).
    pub hospital_admission: f64,
    /// Hospital bed per day.
    pub hospital_day: f64,
    /// Ventilator support per admission.
    pub ventilation: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            attended_visit: 500.0,
            hospital_admission: 15_000.0,
            hospital_day: 2_500.0,
            ventilation: 45_000.0,
        }
    }
}

/// A cost breakdown for one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostReport {
    pub n_attended: u64,
    pub n_hospitalized: u64,
    pub n_ventilated: u64,
    pub hospital_bed_days: u64,
    pub outpatient_cost: f64,
    pub hospital_cost: f64,
    pub ventilation_cost: f64,
}

impl CostReport {
    /// Total medical cost.
    pub fn total(&self) -> f64 {
        self.outpatient_cost + self.hospital_cost + self.ventilation_cost
    }

    /// Sum two reports (e.g. across regions or replicates).
    pub fn add(&self, other: &CostReport) -> CostReport {
        CostReport {
            n_attended: self.n_attended + other.n_attended,
            n_hospitalized: self.n_hospitalized + other.n_hospitalized,
            n_ventilated: self.n_ventilated + other.n_ventilated,
            hospital_bed_days: self.hospital_bed_days + other.hospital_bed_days,
            outpatient_cost: self.outpatient_cost + other.outpatient_cost,
            hospital_cost: self.hospital_cost + other.hospital_cost,
            ventilation_cost: self.ventilation_cost + other.ventilation_cost,
        }
    }

    /// Scale (e.g. divide by replicate count for a mean, or multiply by
    /// the population scale factor to report real-world dollars).
    pub fn scale(&self, f: f64) -> CostReport {
        CostReport {
            n_attended: (self.n_attended as f64 * f).round() as u64,
            n_hospitalized: (self.n_hospitalized as f64 * f).round() as u64,
            n_ventilated: (self.n_ventilated as f64 * f).round() as u64,
            hospital_bed_days: (self.hospital_bed_days as f64 * f).round() as u64,
            outpatient_cost: self.outpatient_cost * f,
            hospital_cost: self.hospital_cost * f,
            ventilation_cost: self.ventilation_cost * f,
        }
    }
}

impl CostModel {
    /// Compute costs from a COVID-19-model simulation output.
    pub fn evaluate(&self, output: &SimOutput) -> CostReport {
        // Care events: transitions into the attended / hospitalized /
        // ventilated states (both recovery and death paths).
        let count = |s: epiflow_epihiper::StateId| -> u64 {
            output.daily_new(s).iter().map(|&x| x as u64).sum()
        };
        let n_attended =
            count(states::ATTENDED) + count(states::ATTENDED_H) + count(states::ATTENDED_D);
        let n_hospitalized = count(states::HOSPITALIZED) + count(states::HOSPITALIZED_D);
        let n_ventilated = count(states::VENTILATED) + count(states::VENTILATED_D);
        // Bed-days: occupancy integrated over time.
        let bed_days: u64 = output
            .occupancy(states::HOSPITALIZED)
            .iter()
            .zip(output.occupancy(states::HOSPITALIZED_D))
            .map(|(a, b)| (a + b) as u64)
            .sum();

        CostReport {
            n_attended,
            n_hospitalized,
            n_ventilated,
            hospital_bed_days: bed_days,
            outpatient_cost: n_attended as f64 * self.attended_visit,
            hospital_cost: n_hospitalized as f64 * self.hospital_admission
                + bed_days as f64 * self.hospital_day,
            ventilation_cost: n_ventilated as f64 * self.ventilation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epiflow_epihiper::covid::covid19_model;
    use epiflow_epihiper::{DiseaseModel, InterventionSet, SimConfig, SimContext, Simulation};
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::{ActivityType, ContactNetwork};
    use std::sync::Arc;

    /// A COVID-19 run of `config.ticks` days on `net` (county 0
    /// everywhere).
    fn covid_run(
        net: &ContactNetwork,
        model: DiseaseModel,
        age_group: Vec<u8>,
        config: SimConfig,
    ) -> SimOutput {
        let county = vec![0; net.n_nodes];
        let ctx = SimContext::build(net, age_group, county, config.n_partitions, config.epsilon);
        Simulation::new_with_context(Arc::new(ctx), model, InterventionSet::new(), config)
            .run()
            .output
    }

    fn epidemic_output(seed: u64) -> SimOutput {
        let n = 200u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if (u * 7 + v) % 5 == 0 {
                    edges.push(ContactEdge {
                        u,
                        v,
                        start: 480,
                        duration: 480,
                        ctx_u: ActivityType::Work,
                        ctx_v: ActivityType::Work,
                        weight: 1.0,
                    });
                }
            }
        }
        let net = ContactNetwork { n_nodes: n as usize, edges };
        covid_run(
            &net,
            DiseaseModel { transmissibility: 0.6, ..covid19_model() },
            (0..n).map(|i| (i % 5) as u8).collect(),
            SimConfig { ticks: 150, seed, initial_infections: 8, ..Default::default() },
        )
    }

    #[test]
    fn costs_track_severity_counts() {
        let out = epidemic_output(1);
        let model = CostModel::default();
        let report = model.evaluate(&out);
        assert!(report.n_attended > 0, "epidemic must produce attended cases");
        assert_eq!(report.outpatient_cost, report.n_attended as f64 * 500.0);
        assert!(report.total() >= report.outpatient_cost);
        // Severity pyramid: attended ≥ hospitalized ≥ ventilated.
        assert!(report.n_attended >= report.n_hospitalized);
        assert!(report.n_hospitalized >= report.n_ventilated);
    }

    #[test]
    fn bed_days_at_least_admissions() {
        let out = epidemic_output(2);
        let report = CostModel::default().evaluate(&out);
        if report.n_hospitalized > 0 {
            assert!(report.hospital_bed_days >= report.n_hospitalized);
        }
    }

    #[test]
    fn bigger_epidemic_costs_more() {
        // Zero transmissibility vs real epidemic.
        let real = CostModel::default().evaluate(&epidemic_output(3));
        let n = 50;
        let net = ContactNetwork { n_nodes: n, edges: vec![] };
        let tiny = CostModel::default().evaluate(&covid_run(
            &net,
            covid19_model(),
            vec![2; n],
            SimConfig { ticks: 60, seed: 3, initial_infections: 1, ..Default::default() },
        ));
        assert!(real.total() > tiny.total());
    }

    #[test]
    fn add_and_scale() {
        let a = CostReport {
            n_attended: 10,
            n_hospitalized: 2,
            n_ventilated: 1,
            hospital_bed_days: 12,
            outpatient_cost: 5000.0,
            hospital_cost: 60_000.0,
            ventilation_cost: 45_000.0,
        };
        let sum = a.add(&a);
        assert_eq!(sum.n_attended, 20);
        assert_eq!(sum.total(), 2.0 * a.total());
        let half = sum.scale(0.5);
        assert_eq!(half.n_attended, 10);
        assert!((half.total() - a.total()).abs() < 1e-9);
    }

    #[test]
    fn empty_output_costs_nothing() {
        let report = CostModel::default().evaluate(&SimOutput::default());
        assert_eq!(report.total(), 0.0);
        assert_eq!(report.n_attended, 0);
    }
}

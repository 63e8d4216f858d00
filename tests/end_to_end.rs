//! Cross-crate integration tests: the full pipelines, end to end.

use epiflow::calibrate::{calibrate_direct, MetropolisConfig, ParamSpace};
use epiflow::core::runner::run_cell;
use epiflow::core::{CalibrationWorkflow, CellConfig, EnsembleRunner, PredictionWorkflow};
use epiflow::epihiper::covid::states;
use epiflow::metapop::{MetapopModel, Mixing, Scenario, SeirParams};
use epiflow::surveillance::{GroundTruth, GroundTruthConfig, RegionRegistry, Scale};
use epiflow::synthpop::{build_region, BuildConfig};

fn small_region(abbrev: &str, per: f64, seed: u64) -> epiflow::synthpop::builder::RegionData {
    let reg = RegionRegistry::new();
    let id = reg.by_abbrev(abbrev).unwrap().id;
    build_region(&reg, id, &BuildConfig { scale: Scale::one_per(per), seed })
}

/// Synthetic population → contact network → agent-based epidemic:
/// the epidemic must respect network structure (only contacted nodes
/// get infected) and produce a consistent transmission forest.
#[test]
fn synthpop_feeds_epihiper_consistently() {
    let data = small_region("RI", 4000.0, 3);
    let cell = CellConfig {
        days: 90,
        transmissibility: 0.35,
        sh_start: 300,
        sc_start: 300,
        initial_infections: 6,
        ..Default::default()
    };
    let run = run_cell(&data, &cell, 0, 4, true, 99);
    let infections = run.output.total_infections();
    assert!(infections > 10, "epidemic expected, got {infections}");
    // Every transmission edge of the dendogram is a real contact edge.
    let mut contact_pairs = std::collections::HashSet::new();
    for e in &data.network.edges {
        contact_pairs.insert((e.u.min(e.v), e.u.max(e.v)));
    }
    for t in run.output.transitions.iter().filter(|t| t.cause.is_some()) {
        let c = t.cause.unwrap();
        let key = (t.person.min(c), t.person.max(c));
        assert!(contact_pairs.contains(&key), "transmission along non-edge {key:?}");
    }
}

/// Calibration → prediction hand-off: posterior configurations exist,
/// lie in the prior box, and drive a prediction whose band is coherent.
#[test]
fn calibration_to_prediction_pipeline() {
    let data = small_region("DE", 6000.0, 5);
    let base = CellConfig {
        days: 60,
        sh_start: 35,
        sc_start: 25,
        initial_infections: 8,
        ..Default::default()
    };
    let truth = CellConfig::from_theta(900, &[0.32, 0.6, 0.4, 0.4], &base);
    let observed = run_cell(&data, &truth, 2, 4, false, 0xAB);

    // One shared ensemble context for the whole nightly pipeline:
    // calibration and prediction run against the same network build.
    let runner = EnsembleRunner::new(&data, 4);

    let cal = CalibrationWorkflow {
        n_prior_cells: 24,
        n_posterior: 12,
        base: base.clone(),
        gpmsa: epiflow::calibrate::GpmsaConfig {
            mcmc: MetropolisConfig { iterations: 800, burn_in: 200, seed: 1 },
            gibbs_sweeps: 1,
        },
        ..Default::default()
    };
    let result = cal.run_with(&runner, &observed.log_cum_symptomatic);
    assert_eq!(result.posterior_configs.len(), 12);
    let space = CellConfig::calibration_space();
    for c in &result.posterior_configs {
        assert!(space.contains(&c.theta()), "posterior config escaped the prior box");
    }

    let pred = PredictionWorkflow { replicates: 3, horizon_days: 80, n_partitions: 4, seed: 2 };
    let configs: Vec<CellConfig> = result.posterior_configs.iter().take(5).cloned().collect();
    let res = pred.run_with(&runner, &configs);
    assert_eq!(res.runs.len(), 15);
    assert_eq!(res.cumulative_band.median.len(), 80);
    for t in 0..80 {
        assert!(res.cumulative_band.lo[t] <= res.cumulative_band.hi[t] + 1e-9);
    }
}

/// Ground truth generator → metapopulation direct calibration: the MCMC
/// must recover a growth-relevant parameter from observed county data.
#[test]
fn groundtruth_feeds_metapop_calibration() {
    let reg = RegionRegistry::new();
    let de = reg.by_abbrev("DE").unwrap().id;
    let counties: Vec<f64> = reg.counties(de).iter().map(|c| c.population as f64).collect();
    let pops: Vec<u64> = counties.iter().map(|&c| c as u64).collect();
    let seeds: Vec<f64> = counties.iter().map(|p| (p / 1e5).clamp(1.0, 20.0)).collect();

    let simulate = |theta: &[f64]| -> Vec<Vec<f64>> {
        let params = SeirParams { beta: theta[0], ..SeirParams::default() };
        let model = MetapopModel::new(params, Mixing::gravity(&pops, 0.85), counties.clone());
        let out = model.run_deterministic(
            80,
            &seeds,
            &Scenario {
                name: "none".into(),
                distancing_start: None,
                distancing_end: 0,
                beta_multiplier: 1.0,
            },
            2,
        );
        (0..counties.len()).map(|c| out.new_cases.iter().map(|d| d[c] * 0.25).collect()).collect()
    };
    let observed = simulate(&[0.55]);
    let space = ParamSpace::new(&[("beta", 0.2, 0.9)]);
    let post = calibrate_direct(
        &space,
        simulate,
        &observed,
        0.2,
        &MetropolisConfig { iterations: 1200, burn_in: 300, seed: 7 },
    );
    let mean = post.theta.mean();
    assert!((mean[0] - 0.55).abs() < 0.05, "recovered beta {}", mean[0]);
}

/// The hidden-truth surveillance data is structurally compatible with
/// the registry everywhere.
#[test]
fn groundtruth_covers_every_county() {
    let reg = RegionRegistry::new();
    let gt = GroundTruth::generate(&reg, &GroundTruthConfig { days: 80, ..Default::default() });
    for r in reg.regions() {
        let cases = gt.region(r.id);
        assert_eq!(cases.counties.len(), r.n_counties, "{}", r.abbrev);
        for (county, series) in reg.counties(r.id).iter().zip(&cases.counties) {
            assert_eq!(county.fips, series.fips);
        }
    }
}

/// Determinism across the whole stack: identical seeds ⇒ identical
/// results, including through the facade crate.
#[test]
fn full_stack_determinism() {
    let a = small_region("VT", 6000.0, 11);
    let b = small_region("VT", 6000.0, 11);
    assert_eq!(a.network.edges, b.network.edges);
    let cell = CellConfig { days: 50, ..Default::default() };
    let ra = run_cell(&a, &cell, 1, 3, true, 77);
    let rb = run_cell(&b, &cell, 1, 7, true, 77); // different partition count!
    assert_eq!(ra.output.transitions, rb.output.transitions);
}

/// Interventions actually change epidemic outcomes through the whole
/// pipeline (not just unit-level behavior).
#[test]
fn npi_dose_response_through_pipeline() {
    let data = small_region("NH", 4000.0, 13);
    let run_with = |sh_compliance: f64, vhi: f64| {
        let cell = CellConfig {
            days: 100,
            transmissibility: 0.32,
            sh_start: 25,
            sh_end: 100,
            sc_start: 20,
            sh_compliance,
            vhi_compliance: vhi,
            initial_infections: 8,
            ..Default::default()
        };
        let r = run_cell(&data, &cell, 0, 4, false, 21);
        r.log_cum_symptomatic.last().unwrap().exp() - 1.0
    };
    let lax = run_with(0.05, 0.05);
    let strict = run_with(0.95, 0.95);
    assert!(strict < lax, "strict NPIs must reduce cases: strict {strict} vs lax {lax}");
}

/// The COVID model's severity pipeline survives aggregation: deaths
/// come only from the death path, and hospital occupancy integrates to
/// the bed-day count used by the cost model.
#[test]
fn severity_pipeline_consistency() {
    let data = small_region("CT", 2000.0, 17);
    let cell = CellConfig {
        days: 150,
        transmissibility: 0.4,
        sh_start: 400,
        sc_start: 400,
        initial_infections: 10,
        ..Default::default()
    };
    let run = run_cell(&data, &cell, 0, 4, true, 5);
    let deaths: u64 = run.output.daily_new(states::DEATH).iter().map(|&x| x as u64).sum();
    let death_path_entries: u64 =
        run.output.daily_new(states::ATTENDED_D).iter().map(|&x| x as u64).sum();
    // Everyone who dies entered the death path (AttendedD) first.
    assert!(deaths <= death_path_entries, "deaths {deaths} vs path entries {death_path_entries}");
    // Hospitalization targets consistent with the cost model's inputs.
    let report = epiflow::analytics::CostModel::default().evaluate(&run.output);
    let hosp_new: u64 = run
        .output
        .daily_new(states::HOSPITALIZED)
        .iter()
        .zip(run.output.daily_new(states::HOSPITALIZED_D).iter())
        .map(|(a, b)| (a + b) as u64)
        .sum();
    assert_eq!(report.n_hospitalized, hosp_new);
}

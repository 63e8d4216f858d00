//! Case study 2 — county-level projections with the metapopulation
//! model (paper Appendix F).
//!
//! SEIR dynamics across Virginia's counties coupled by commuting flows,
//! calibrated to county-level confirmed cases by direct MCMC (Eq. 6,
//! 20%-of-count Gaussian noise), then projected under the case study's
//! five scenarios: worst case plus four intense-social-distancing
//! variants (end date April 30 / June 10 × 25% / 50% transmissibility
//! reduction).
//!
//! ```bash
//! cargo run --release --example county_projections
//! ```

use epiflow::calibrate::{calibrate_direct, MetropolisConfig, ParamSpace};
use epiflow::metapop::{MetapopModel, Mixing, Scenario, SeirParams};
use epiflow::surveillance::RegionRegistry;

fn main() {
    let registry = RegionRegistry::new();
    let va = registry.by_abbrev("VA").expect("Virginia exists").id;
    // Model the 20 largest counties (the tail is tiny under the
    // rank-size rule).
    let counties: Vec<f64> =
        registry.counties(va).iter().take(20).map(|c| c.population as f64).collect();
    let pops: Vec<u64> = counties.iter().map(|&p| p as u64).collect();
    println!(
        "Virginia metapopulation: {} counties, {:.1}M people\n",
        counties.len(),
        counties.iter().sum::<f64>() / 1e6
    );

    // "Observed" county case counts from a hidden-parameter model run
    // (transmissibility and infectious duration are the calibrated
    // parameters, as in the case study).
    let horizon = 120u32;
    let seeds: Vec<f64> = counties.iter().map(|p| (p / 2e5).clamp(0.0, 30.0)).collect();
    let truth = [0.52, 5.5]; // (beta, infectious days)
    let simulate = |theta: &[f64]| -> Vec<Vec<f64>> {
        let params = SeirParams { beta: theta[0], gamma: 1.0 / theta[1] };
        let model = MetapopModel::new(params, Mixing::gravity(&pops, 0.8), counties.clone());
        let out = model.run_deterministic(
            horizon,
            &seeds,
            &Scenario {
                name: "fit-window".into(),
                distancing_start: Some(54),
                distancing_end: 400,
                beta_multiplier: 0.6,
            },
            2,
        );
        // Reported cases = 25% ascertainment of new symptomatic cases.
        out.new_cases
            .iter()
            .map(|day| day.iter().map(|c| c * 0.25).collect::<Vec<f64>>())
            .collect::<Vec<_>>()
            // transpose to per-county series
            .into_iter()
            .fold(vec![Vec::new(); counties.len()], |mut acc, day| {
                for (a, d) in acc.iter_mut().zip(day) {
                    a.push(d);
                }
                acc
            })
    };
    let observed = simulate(&truth);

    // Calibrate transmissibility + infectious duration by direct MCMC.
    println!("calibrating (β, infectious duration) by direct MCMC over the metapopulation model …");
    let space = ParamSpace::new(&[("beta", 0.2, 0.9), ("inf_days", 3.0, 9.0)]);
    let posterior = calibrate_direct(
        &space,
        simulate,
        &observed,
        0.20, // the paper's 20%-of-count noise model
        &MetropolisConfig { iterations: 2500, burn_in: 600, seed: 17 },
    );
    let mean = posterior.theta.mean();
    let sd = posterior.theta.std_dev();
    println!(
        "  posterior β = {:.3} ± {:.3} (truth {:.3}); infectious days = {:.2} ± {:.2} (truth {:.1})",
        mean[0], sd[0], truth[0], mean[1], sd[1], truth[1]
    );
    println!("  {} simulator calls inside the MCMC loop\n", posterior.n_sim_calls);

    // Project the five scenarios from the posterior mean.
    println!("projections under the case study's five scenarios (160 days):");
    println!("{:>26} {:>14} {:>12} {:>12}", "scenario", "cum. cases", "peak hosp.", "deaths");
    let params = SeirParams { beta: mean[0], gamma: 1.0 / mean[1] };
    let model = MetapopModel::new(params, Mixing::gravity(&pops, 0.8), counties.clone());
    for scenario in Scenario::case_study_set() {
        let out = model.run_deterministic(160, &seeds, &scenario, 2);
        let cum: f64 = out.final_cumulative_cases().iter().sum();
        let peak_hosp = out.hospital_occupancy().iter().cloned().fold(0.0, f64::max);
        let deaths = *out.deaths().last().unwrap();
        println!("{:>26} {:>14.0} {:>12.0} {:>12.0}", scenario.name, cum, peak_hosp, deaths);
    }
    println!(
        "\n(the reproduction target is the ordering: worst case ≫ short/weak distancing\n\
         ≫ long/strong distancing, with hospital peaks shifted and flattened)"
    );
}

//! Case study 3 — calibrating the agent-based model (paper Appendix F).
//!
//! Reproduces the Virginia calibration-prediction cycle: a 100-point
//! Latin hypercube prior over (TAU, SYMP, SH, VHI), EpiHiper runs at
//! each design point, a GP-emulator Bayesian calibration against the
//! observed curve, and a forward prediction from the posterior.
//!
//! Because the "observed" curve is generated from a hidden θ, the
//! example verifies that the calibration actually recovers it.
//!
//! ```bash
//! cargo run --release --example calibration_study
//! ```

use epiflow::calibrate::{GpmsaConfig, MetropolisConfig};
use epiflow::core::runner::run_cell;
use epiflow::core::{CalibrationWorkflow, CellConfig, PredictionWorkflow};
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::{build_region, BuildConfig};

fn main() {
    let registry = RegionRegistry::new();
    let va = registry.by_abbrev("VA").expect("Virginia exists").id;
    let data = build_region(&registry, va, &BuildConfig { scale: Scale::one_per(8000.0), seed: 1 });
    println!(
        "Virginia (1/8000): {} persons, {} edges",
        data.population.len(),
        data.network.n_edges()
    );

    // The case study's mitigation timeline: school closure, then a
    // stay-at-home order, voluntary home isolation throughout.
    let base = CellConfig {
        days: 70,
        sc_start: 30,
        sh_start: 45,
        sh_end: 200,
        initial_infections: 10,
        ..Default::default()
    };

    // Hidden truth (what the real system can never know).
    let truth = [0.28, 0.60, 0.55, 0.50];
    let observed =
        run_cell(&data, &CellConfig::from_theta(999, &truth, &base), 5, 4, false, 0xFEED);
    println!("generated observed curve from hidden θ = {truth:?}");

    // Calibrate: 100 LHS prior cells, GPMSA posterior, 100 posterior
    // configurations — the paper's exact design.
    let workflow = CalibrationWorkflow {
        n_prior_cells: 100,
        n_posterior: 100,
        base: base.clone(),
        gpmsa: GpmsaConfig {
            mcmc: MetropolisConfig { iterations: 3000, burn_in: 800, seed: 2 },
            gibbs_sweeps: 2,
        },
        ..Default::default()
    };
    println!("\nsimulating 100 prior configurations + fitting emulator + MCMC …");
    let result = workflow.run(&data, &observed.log_cum_symptomatic);

    let mean = result.posterior.theta.mean();
    let sd = result.posterior.theta.std_dev();
    println!("\nposterior vs truth:");
    for (k, name) in ["TAU", "SYMP", "SH", "VHI"].iter().enumerate() {
        println!("  {name:>5}: posterior {:.3} ± {:.3}   truth {:.3}", mean[k], sd[k], truth[k]);
    }
    println!(
        "  corr(TAU, SYMP) = {:.3}  (paper: negative — the two trade off)",
        result.posterior.theta.correlation(0, 1)
    );

    // Predict forward 8 weeks with 20 posterior configs × 5 replicates.
    let configs: Vec<CellConfig> = result.posterior_configs.iter().take(20).cloned().collect();
    let prediction = PredictionWorkflow {
        replicates: 5,
        horizon_days: base.days + 56,
        n_partitions: 4,
        seed: 3,
    }
    .run(&data, &configs);
    let d = (base.days + 55) as usize;
    println!(
        "\n8-week-ahead cumulative case forecast: median {:.0}, 95% band [{:.0}, {:.0}]",
        prediction.cumulative_band.median[d],
        prediction.cumulative_band.lo[d],
        prediction.cumulative_band.hi[d]
    );

    // Verify against the (hidden) future.
    let future = run_cell(
        &data,
        &CellConfig { days: base.days + 56, ..CellConfig::from_theta(998, &truth, &base) },
        5,
        4,
        false,
        0xFEED,
    );
    let actual = future.log_cum_symptomatic[d].exp() - 1.0;
    let inside =
        actual >= prediction.cumulative_band.lo[d] && actual <= prediction.cumulative_band.hi[d];
    println!("actual (hidden) outcome: {actual:.0} → inside 95% band: {inside}");
}

//! Figures 15–17 — case study 3: calibrating the agent-based model for
//! Virginia and predicting forward.
//!
//! * Fig. 15: prior vs posterior designs — after calibration, TAU and
//!   SYMP tighten and become negatively correlated; SH concentrates
//!   toward lower values; VHI stays ≈ unchanged.
//! * Fig. 16: the GP emulator's 95% band against the ground truth
//!   (goodness-of-fit visualization); we report band coverage.
//! * Fig. 17: the 8-week-ahead prediction — median + 95% band over the
//!   cumulative confirmed-case count.

use epiflow_bench::sparkline;
use epiflow_calibrate::{GpmsaCalibration, GpmsaConfig, MetropolisConfig};
use epiflow_core::runner::run_cell;
use epiflow_core::{CalibrationWorkflow, CellConfig, PredictionWorkflow};
use epiflow_surveillance::{RegionRegistry, Scale};
use epiflow_synthpop::{build_region, BuildConfig};

fn main() {
    let reg = RegionRegistry::new();
    let va = reg.by_abbrev("VA").unwrap().id;
    let data = build_region(&reg, va, &BuildConfig { scale: Scale::one_per(2000.0), seed: 0x5EED });
    println!(
        "Virginia at 1/2000 scale: {} persons, {} contact edges\n",
        data.population.len(),
        data.network.n_edges()
    );

    // Ground truth: a hidden parameter configuration simulated with a
    // different replicate seed — the observed "reported" curve.
    let base = CellConfig {
        days: 70,
        sc_start: 30, // case study: SC from March 16
        sh_start: 45, // SH from March 31
        sh_end: 200,  // expires June 10, beyond horizon
        initial_infections: 12,
        ..Default::default()
    };
    let truth = [0.30, 0.65, 0.55, 0.45]; // TAU, SYMP, SH, VHI
                                          // The observed curve: the replicate-mean of the hidden configuration,
                                          // standing in for the (smoothed) surveillance series.
    let truth_cell = CellConfig::from_theta(990, &truth, &base);
    let mut observed = vec![0.0f64; base.days as usize];
    let obs_reps = 5u32;
    for rep in 0..obs_reps {
        let run = run_cell(&data, &truth_cell, rep, 4, false, 0x0B5);
        for (o, l) in observed.iter_mut().zip(&run.log_cum_symptomatic) {
            *o += l / obs_reps as f64;
        }
    }

    // Calibration: 100-configuration LHS prior, as in the case study.
    let wf = CalibrationWorkflow {
        n_prior_cells: 100,
        base: base.clone(),
        n_posterior: 100,
        gpmsa: GpmsaConfig {
            mcmc: MetropolisConfig { iterations: 4000, burn_in: 1000, seed: 21 },
            gibbs_sweeps: 3,
        },
        ..Default::default()
    };
    let result = wf.run(&data, &observed);

    // ---- Figure 15: prior vs posterior marginals ---------------------
    println!("Figure 15 — prior vs posterior design (100 configurations each)\n");
    let names = ["TAU", "SYMP", "SH", "VHI"];
    let prior = &result.prior_thetas;
    let post = result.posterior_thetas();
    let stat = |samples: &[Vec<f64>], k: usize| {
        let n = samples.len() as f64;
        let m = samples.iter().map(|s| s[k]).sum::<f64>() / n;
        let v = samples.iter().map(|s| (s[k] - m).powi(2)).sum::<f64>() / (n - 1.0);
        (m, v.sqrt())
    };
    println!(
        "{:>6} {:>9} {:>9} {:>12} {:>12} {:>10} {:>8}",
        "param", "prior μ", "prior σ", "posterior μ", "posterior σ", "shrinkage", "truth"
    );
    for (k, name) in names.iter().enumerate() {
        let (pm, ps) = stat(prior, k);
        let (qm, qs) = stat(&post, k);
        println!(
            "{name:>6} {pm:>9.3} {ps:>9.3} {qm:>12.3} {qs:>12.3} {:>9.0}% {:>8.3}",
            (1.0 - qs / ps) * 100.0,
            truth[k]
        );
    }
    let corr = result.posterior.theta.correlation(0, 1);
    println!(
        "\nposterior corr(TAU, SYMP) = {corr:.3}  [paper: negatively correlated]\n\
         posterior acceptance rate = {:.2}\n",
        result.posterior.theta.acceptance
    );

    // ---- Figure 16: emulator band vs ground truth --------------------
    let calib = GpmsaCalibration::new(&result.emulator, &observed, GpmsaConfig::default());
    let band = calib.predictive_band(&result.posterior, 300, 0.025, 0.975, 77);
    println!("Figure 16 — emulated 95% band vs ground truth (log cumulative cases)\n");
    println!("  truth : {}", sparkline(&observed));
    println!("  median: {}", sparkline(&band.median));
    println!(
        "  band coverage of ground truth: {:.0}%  [good fit ⇔ truth inside the green curves]\n",
        band.coverage(&observed) * 100.0
    );

    // ---- Figure 17: prediction with uncertainty ----------------------
    let pred = PredictionWorkflow {
        replicates: 5,
        horizon_days: base.days + 56, // 8 more weeks
        n_partitions: 4,
        seed: 0x9ED,
    };
    let configs: Vec<CellConfig> = result.posterior_configs.iter().take(20).cloned().collect();
    let res = pred.run(&data, &configs);
    println!("Figure 17 — VA cumulative case prediction, 8 weeks past day {}\n", base.days);
    println!("  median: {}", sparkline(&res.cumulative_band.median));
    println!("  day       cases: median [lo95, hi95]");
    for day in [70usize, 84, 98, 112, 125] {
        println!(
            "  {day:>3}  {:>14.0} [{:.0}, {:.0}]",
            res.cumulative_band.median[day],
            res.cumulative_band.lo[day],
            res.cumulative_band.hi[day]
        );
    }
    let d = (base.days + 55) as usize;
    println!(
        "\n  8-week-ahead cumulative cases: median {:.0}, 95% band [{:.0}, {:.0}]",
        res.cumulative_band.median[d], res.cumulative_band.lo[d], res.cumulative_band.hi[d]
    );
    // Hold-out check: simulate the truth forward and see if it lands in
    // the band (a check the paper could only do retrospectively).
    let forward = run_cell(
        &data,
        &CellConfig { days: base.days + 56, ..CellConfig::from_theta(991, &truth, &base) },
        3,
        4,
        false,
        0x0B5,
    );
    let truth_fwd: Vec<f64> = forward.log_cum_symptomatic.iter().map(|l| l.exp() - 1.0).collect();
    println!(
        "  held-out truth at 8 weeks: {:.0} → inside band: {}",
        truth_fwd[d],
        truth_fwd[d] >= res.cumulative_band.lo[d] && truth_fwd[d] <= res.cumulative_band.hi[d]
    );
}

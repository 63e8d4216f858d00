//! Case study 1 — the medical costs of COVID-19 (the economic
//! workflow, Fig. 3).
//!
//! Runs the paper's 12-cell factorial design (2 VHI compliances × 3
//! lockdown durations × 2 lockdown compliances) with replicates on a
//! set of regions, evaluates the medical-cost model on each cell, and
//! prints the cost matrix — the outcome table policymakers received.
//! Next to the figures scaled up to the real population it prints the
//! simulated hospitalizations and ventilations they rest on (mean per
//! replicate, summed over the panel), which at this scale are a handful
//! of agents per cell.
//!
//! ```bash
//! cargo run --release --example medical_costs
//! ```

use epiflow::core::{CellConfig, CounterfactualWorkflow, FactorialDesign};
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::{build_region, BuildConfig};

fn main() {
    let registry = RegionRegistry::new();
    // A manageable multi-state panel; the paper runs all 51 regions.
    let panel = ["VA", "MD", "WV"];
    let scale = Scale::one_per(8000.0);
    // Scale factor to report costs in real-population dollars.
    let dollars_scale = 8000.0;

    let workflow = CounterfactualWorkflow {
        design: FactorialDesign::paper_economic(),
        base: CellConfig {
            days: 150,
            transmissibility: 0.30,
            sh_start: 45,
            sc_start: 30,
            initial_infections: 10,
            ..Default::default()
        },
        replicates: 5,
        n_partitions: 4,
        ..Default::default()
    };

    println!(
        "Economic workflow: {} cells × {} regions × {} replicates = {} simulations\n",
        12,
        panel.len(),
        workflow.replicates,
        12 * panel.len() * workflow.replicates as usize
    );
    println!(
        "{:>5} {:>5} {:>7} {:>7} {:>12} {:>10} {:>8} {:>8} {:>8} {:>16}",
        "cell",
        "VHI",
        "SHdays",
        "SHcomp",
        "infections",
        "hosp",
        "vent",
        "sim hosp",
        "sim vent",
        "medical cost"
    );

    // Aggregate each cell's cost across the panel.
    let cells = workflow.design.expand(&workflow.base);
    let mut totals = vec![(0.0f64, 0.0f64, 0u64, 0u64); cells.len()];
    for abbrev in panel {
        let id = registry.by_abbrev(abbrev).expect("known region").id;
        let data = build_region(&registry, id, &BuildConfig { scale, seed: 11 });
        for row in workflow.run(&data) {
            let slot = &mut totals[row.cell.cell as usize];
            slot.0 += row.mean_cost.total();
            slot.1 += row.mean_infections;
            slot.2 += row.mean_cost.n_hospitalized;
            slot.3 += row.mean_cost.n_ventilated;
        }
    }

    let mut best: Option<(usize, f64)> = None;
    let mut worst: Option<(usize, f64)> = None;
    for (i, cell) in cells.iter().enumerate() {
        let (cost, infections, hosp, vent) = totals[i];
        let real_cost = cost * dollars_scale;
        println!(
            "{:>5} {:>5.1} {:>7} {:>7.1} {:>12.0} {:>10} {:>8} {:>8} {:>8} {:>15.1}M",
            cell.cell,
            cell.vhi_compliance,
            cell.sh_end - cell.sh_start,
            cell.sh_compliance,
            infections * dollars_scale,
            hosp as f64 * dollars_scale,
            vent as f64 * dollars_scale,
            hosp,
            vent,
            real_cost / 1e6
        );
        if best.is_none() || real_cost < best.unwrap().1 {
            best = Some((i, real_cost));
        }
        if worst.is_none() || real_cost > worst.unwrap().1 {
            worst = Some((i, real_cost));
        }
    }

    let (bi, bc) = best.unwrap();
    let (wi, wc) = worst.unwrap();
    println!(
        "\ncheapest scenario: cell {} (VHI {:.0}%, SH {} d at {:.0}%) — ${:.1}M",
        cells[bi].cell,
        cells[bi].vhi_compliance * 100.0,
        cells[bi].sh_end - cells[bi].sh_start,
        cells[bi].sh_compliance * 100.0,
        bc / 1e6
    );
    println!(
        "costliest scenario: cell {} (VHI {:.0}%, SH {} d at {:.0}%) — ${:.1}M ({:.1}× the cheapest)",
        cells[wi].cell,
        cells[wi].vhi_compliance * 100.0,
        cells[wi].sh_end - cells[wi].sh_start,
        cells[wi].sh_compliance * 100.0,
        wc / 1e6,
        wc / bc
    );
    println!(
        "the ranking rests on {} vs {} simulated hospitalizations and {} vs {} ventilations\n\
         (cheapest vs costliest cell; mean per replicate over {} replicates, summed over {})",
        totals[bi].2,
        totals[wi].2,
        totals[bi].3,
        totals[wi].3,
        workflow.replicates,
        panel.join(", ")
    );
    println!(
        "\n(the paper's [9] reports national medical costs under these NPI scenarios;\n\
         the monotone NPI-strictness → cost gradient is the reproduction target)"
    );
}

//! Quickstart: build a synthetic state, run the agent-based COVID-19
//! simulator on it, and look at the epidemic.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use epiflow::core::EnsembleRunner;
use epiflow::epihiper::covid::{covid19_model, states};
use epiflow::epihiper::interventions::base_case;
use epiflow::epihiper::{SimConfig, Simulation};
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::{build_region, BuildConfig};

fn main() {
    // 1. The 51-region registry and a scaled-down synthetic Delaware.
    let registry = RegionRegistry::new();
    let de = registry.by_abbrev("DE").expect("Delaware exists").id;
    let data =
        build_region(&registry, de, &BuildConfig { scale: Scale::one_per(2000.0), seed: 42 });
    let stats = data.network.stats();
    println!(
        "Synthetic Delaware: {} persons in {} households, contact network with {} edges \
         (mean degree {:.1})",
        data.population.len(),
        data.population.households.len(),
        stats.edges,
        stats.mean_degree
    );

    // 2. The COVID-19 disease model (Fig. 12 / Tables III–IV) plus the
    //    paper's base intervention stack: voluntary home isolation,
    //    school closure at day 30, stay-at-home days 45–130 at 60%
    //    compliance.
    let mut model = covid19_model();
    model.transmissibility = 0.35;
    let interventions = base_case(states::SYMPTOMATIC, 30, 45, 130, 0.6, 0.6);

    // 3. Run 150 days on 4 partitions (results are identical for any
    //    partition count — the engine's RNG is counter-based). The
    //    partitioned network is a shared context: every replicate of an
    //    ensemble would reuse it.
    let ctx = EnsembleRunner::new(&data, 4).context().clone();
    let config = SimConfig {
        ticks: 150,
        seed: 7,
        n_partitions: ctx.n_partitions,
        epsilon: ctx.epsilon,
        initial_infections: 10,
        ..Default::default()
    };
    let mut sim = Simulation::new_with_context(ctx, model.clone(), interventions, config);
    let result = sim.run();
    println!("Simulated 150 days on {} partitions", sim.context().partitioning.len());

    // 4. Inspect the outcome.
    let cum = result.output.cumulative(states::SYMPTOMATIC);
    let deaths = result.output.cumulative(states::DEATH);
    // Persons infected: the tick-0 seeds plus every transmission.
    let seeded = result.output.seeded as usize;
    let transmitted = result.output.total_infections();
    println!(
        "Outcome: {} cumulative symptomatic cases, {} deaths, {} persons infected \
         ({seeded} seeds + {transmitted} transmissions)",
        cum.last().unwrap(),
        deaths.last().unwrap(),
        seeded + transmitted
    );
    let d = result.output.dendogram_stats(&model);
    println!(
        "Transmission forest: {} roots, {} transmissions, max depth {}, mean offspring {:.2}",
        d.roots, d.transmissions, d.max_depth, d.mean_offspring
    );

    // 5. A tiny epicurve.
    let daily = result.output.daily_new(states::SYMPTOMATIC);
    let peak = daily.iter().enumerate().max_by_key(|x| *x.1).unwrap();
    println!("Epidemic peak: {} new symptomatic cases on day {}", peak.1, peak.0);
}

//! Criterion: EpiHiper tick-loop throughput vs network size
//! (the measured substrate under Fig. 7 top).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use epiflow_bench::{covid_sim, region, run_covid};
use epiflow_epihiper::InterventionSet;
use epiflow_surveillance::RegionRegistry;

fn bench_sizes(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let mut group = c.benchmark_group("epihiper_size");
    group.sample_size(10);
    for abbrev in ["VT", "MD", "CA"] {
        let data = region(&reg, abbrev, 2000.0);
        group.throughput(Throughput::Elements(data.network.n_edges() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!(
                "{abbrev}-{}n-{}e",
                data.network.n_nodes,
                data.network.n_edges()
            )),
            &data,
            |b, data| {
                b.iter(|| run_covid(data, InterventionSet::new(), 60, 4, 1));
            },
        );
    }
    group.finish();
}

fn bench_ticks(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let data = region(&reg, "VA", 2000.0);
    let mut group = c.benchmark_group("epihiper_horizon");
    group.sample_size(10);
    for ticks in [30u32, 120, 300] {
        group.bench_with_input(BenchmarkId::from_parameter(ticks), &ticks, |b, &t| {
            b.iter(|| run_covid(&data, InterventionSet::new(), t, 4, 1));
        });
    }
    group.finish();
}

/// The saturation-threshold sweep on one region: θ = 0 sweeps every
/// partition every tick, the default 0.75 switches per partition, and
/// θ = 2 never sweeps (see `repro_bench_engine` for the synthetic
/// envelope cases behind `BENCH_engine.json`).
fn bench_scan_modes(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let data = region(&reg, "VA", 2000.0);
    let mut group = c.benchmark_group("epihiper_scan_mode");
    group.sample_size(10);
    for theta in [0.0, 0.75, 2.0] {
        group.bench_with_input(BenchmarkId::from_parameter(theta), &theta, |b, &theta| {
            b.iter(|| {
                let mut sim = covid_sim(&data, InterventionSet::new(), 60, 4, 1);
                sim.config.saturation_threshold = theta;
                sim.run()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sizes, bench_ticks, bench_scan_modes);
criterion_main!(benches);

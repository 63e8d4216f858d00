//! Figure 6 — node and edge counts of the contact network per US state.
//!
//! Builds all 51 synthetic regions at the default 1/2000 scale and
//! prints them in the paper's order (ascending by size, WY … CA). The
//! paper's y-axis is node count × 10M and edge count × 100M at full
//! scale; ours are scaled by 1/2000, so the *shape* (the state-size
//! spread and the ≈10× edge/node ratio ordering) is the reproduction
//! target.

use epiflow_surveillance::{RegionRegistry, Scale};
use epiflow_synthpop::{build_region, BuildConfig};
use rayon::prelude::*;

fn main() {
    let reg = RegionRegistry::new();
    let scale = Scale::default();

    let mut rows: Vec<(String, usize, usize)> = reg
        .regions()
        .par_iter()
        .map(|r| {
            let data = build_region(&reg, r.id, &BuildConfig { scale, seed: 0x516 });
            (r.abbrev.to_string(), data.network.n_nodes, data.network.n_edges())
        })
        .collect();
    rows.sort_by_key(|r| r.1);

    println!("Figure 6 — contact network sizes per state (scale 1/2000)");
    println!("{:>5}  {:>10}  {:>12}  {:>10}", "state", "nodes", "edges", "edges/node");
    let mut total_nodes = 0usize;
    let mut total_edges = 0usize;
    for (abbrev, nodes, edges) in &rows {
        println!(
            "{:>5}  {:>10}  {:>12}  {:>10.2}",
            abbrev,
            nodes,
            edges,
            *edges as f64 / *nodes as f64
        );
        total_nodes += nodes;
        total_edges += edges;
    }
    println!(
        "\nUS total: {} nodes, {} edges (paper at full scale: ≈300M nodes, 7.9B edges\n\
         ⇒ at 1/2000: ≈150k nodes; edge/node ratio ≈ 26 in the paper's networks,\n\
         lower here because sub-location contact budgets are tuned for sparse scaled nets)",
        total_nodes, total_edges
    );
    let (smallest, largest) = (rows.first().unwrap(), rows.last().unwrap());
    println!(
        "smallest {} ({} nodes) vs largest {} ({} nodes): ratio {:.0}×  [paper: WY vs CA ≈ 68×]",
        smallest.0,
        smallest.1,
        largest.0,
        largest.1,
        largest.1 as f64 / smallest.1 as f64
    );
}

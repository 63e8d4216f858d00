//! Statistical oracle for the synthetic-population build.
//!
//! `tests/golden.rs` pins the builder's bytes, so any change to how the
//! builder draws moves that digest. This test pins what must survive
//! such a change. The figures below were recorded from the build that
//! drew every activity, location and contact from one shared stream,
//! with a linear weighted scan (the "stage A" builder):
//!
//! * **Exact:** every person and household field (FNV-1a, floats as bit
//!   patterns) and the number of locations of each kind in each county.
//!   Demographics, households and location counts do not depend on how
//!   activities are assigned, so they must not move at all.
//! * **Within tolerance:** the edge count and mean degree (2 %, relative),
//!   the share of edges in each unordered ⟨ctx_u, ctx_v⟩ context pair
//!   (1 percentage point each), and the degree histogram (total-variation
//!   distance at most 0.03). A faithful rebuild redraws the assignment
//!   and contact sampling, so these move by sampling noise only.
//!
//! Those tolerances are stated for a build of `FULL_TOL_PERSONS` persons
//! (DE 1/5 has 197,990). Sampling noise grows as 1/√persons, so for a
//! smaller build each tolerance widens by √(FULL_TOL_PERSONS / persons):
//! ×4.5 at DE 1/100, ×3.4 at VA 1/500. Without that, the small builds
//! fail on noise alone: re-drawing everything after household synthesis
//! from six fresh seeds on the recorded builder moved DE 1/100's degree
//! histogram by a total variation of 0.022–0.040, a context share by up
//! to 1.7 points and the edge count by up to 1.8 %, while DE 1/5 moved
//! by at most 0.010, 0.16 points and 0.2 %.
//!
//! The tolerances were fixed together with the recorded figures and are
//! not to be loosened; a build that misses them is not statistically
//! faithful to the recorded one. On a mismatch the failure message
//! prints every actual figure.

use epiflow::epihiper::checkpoint::fnv1a;
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::builder::RegionData;
use epiflow::synthpop::{build_region, ActivityType, BuildConfig, Gender, LocationKind};

const KINDS: [LocationKind; 6] = [
    LocationKind::Workplace,
    LocationKind::Shop,
    LocationKind::OtherVenue,
    LocationKind::SchoolK12,
    LocationKind::CollegeCampus,
    LocationKind::Church,
];

/// Degree-histogram bins: one per degree below this, plus one tail bin.
const DEGREE_BINS: usize = 40;

/// Build size at which the tolerances below hold as stated.
const FULL_TOL_PERSONS: f64 = 200_000.0;
/// Relative tolerance on the edge count and the mean degree.
const EDGE_TOL: f64 = 0.02;
/// Absolute tolerance on each context pair's edge share.
const SHARE_TOL: f64 = 0.01;
/// Largest total-variation distance between degree histograms.
const DEGREE_TV_TOL: f64 = 0.03;

/// Figures of one recorded build.
struct Recorded {
    abbrev: &'static str,
    per: f64,
    seed: u64,
    /// FNV-1a of every person and household field.
    population: u64,
    /// FNV-1a of the location counts, county-major, in `KINDS` order.
    location_counts: u64,
    edges: usize,
    mean_degree: f64,
    /// Edge share of each unordered context pair `(a, b)`, `a ≤ b` by
    /// `ActivityType::code`, in `context_pairs()` order.
    context_shares: [f64; 28],
    /// Share of nodes by degree; the last bin holds every degree
    /// `≥ DEGREE_BINS`.
    degree_shares: [f64; DEGREE_BINS + 1],
}

/// Figures measured on a fresh build.
struct Measured {
    persons: usize,
    locations: usize,
    population: u64,
    location_counts: u64,
    edges: usize,
    mean_degree: f64,
    context_shares: [f64; 28],
    degree_shares: [f64; DEGREE_BINS + 1],
}

fn context_pairs() -> impl Iterator<Item = (u8, u8)> {
    (0..7u8).flat_map(|a| (a..7u8).map(move |b| (a, b)))
}

fn pair_index(a: ActivityType, b: ActivityType) -> usize {
    let (a, b) = (a.code().min(b.code()), a.code().max(b.code()));
    context_pairs().position(|p| p == (a, b)).expect("every code pair is listed")
}

fn population_digest(data: &RegionData) -> u64 {
    let mut bytes = Vec::new();
    for p in &data.population.persons {
        bytes.extend_from_slice(&p.id.to_le_bytes());
        bytes.extend_from_slice(&p.household.to_le_bytes());
        bytes.push(p.age);
        bytes.push(match p.gender {
            Gender::Female => 0,
            Gender::Male => 1,
        });
        bytes.extend_from_slice(&p.county.to_le_bytes());
        bytes.extend_from_slice(&p.home_x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.home_y.to_bits().to_le_bytes());
    }
    for members in &data.population.households {
        bytes.extend_from_slice(&(members.len() as u32).to_le_bytes());
        members.iter().for_each(|m| bytes.extend_from_slice(&m.to_le_bytes()));
    }
    fnv1a(&bytes)
}

fn measure(registry: &RegionRegistry, abbrev: &str, per: f64, seed: u64) -> Measured {
    let region = registry.by_abbrev(abbrev).expect("known state").id;
    let data = build_region(registry, region, &BuildConfig { scale: Scale::one_per(per), seed });

    let mut counts = Vec::new();
    for county in 0..registry.counties(region).len() as u16 {
        for kind in KINDS {
            let n = data.locations.in_county(county, kind).len() as u32;
            counts.extend_from_slice(&n.to_le_bytes());
        }
    }

    let net = &data.network;
    let mut context_shares = [0.0; 28];
    for e in &net.edges {
        context_shares[pair_index(e.ctx_u, e.ctx_v)] += 1.0;
    }
    context_shares.iter_mut().for_each(|s| *s /= net.n_edges().max(1) as f64);

    let mut degree_shares = [0.0; DEGREE_BINS + 1];
    for d in net.degrees() {
        degree_shares[d.min(DEGREE_BINS)] += 1.0;
    }
    degree_shares.iter_mut().for_each(|s| *s /= net.n_nodes.max(1) as f64);

    Measured {
        persons: data.population.len(),
        locations: data.locations.len(),
        population: population_digest(&data),
        location_counts: fnv1a(&counts),
        edges: net.n_edges(),
        mean_degree: net.stats().mean_degree,
        context_shares,
        degree_shares,
    }
}

fn fmt_shares(shares: &[f64]) -> String {
    shares.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>().join(", ")
}

/// The recorded figures, printed as this file's source.
fn as_source(r: &Recorded, m: &Measured) -> String {
    format!(
        "    Recorded {{\n        abbrev: {:?},\n        per: {:?},\n        seed: {},\n        \
         population: 0x{:016x},\n        location_counts: 0x{:016x},\n        edges: {},\n        \
         mean_degree: {:.6},\n        context_shares: [{}],\n        degree_shares: [{}],\n    }},\n",
        r.abbrev,
        r.per,
        r.seed,
        m.population,
        m.location_counts,
        m.edges,
        m.mean_degree,
        fmt_shares(&m.context_shares),
        fmt_shares(&m.degree_shares),
    )
}

/// Every way `m` misses `r`, one line each.
fn misses(r: &Recorded, m: &Measured) -> Vec<String> {
    let mut out = Vec::new();
    if m.population != r.population {
        out.push(format!(
            "persons/households digest 0x{:016x} != 0x{:016x}",
            m.population, r.population
        ));
    }
    if m.location_counts != r.location_counts {
        out.push(format!(
            "location-count digest 0x{:016x} != 0x{:016x}",
            m.location_counts, r.location_counts
        ));
    }
    let widen = (FULL_TOL_PERSONS / m.persons as f64).sqrt().max(1.0);
    let rel = |got: f64, want: f64| (got - want).abs() / want;
    if rel(m.edges as f64, r.edges as f64) > EDGE_TOL * widen {
        out.push(format!("edges {} vs recorded {} (widen ×{widen:.2})", m.edges, r.edges));
    }
    if rel(m.mean_degree, r.mean_degree) > EDGE_TOL * widen {
        out.push(format!(
            "mean degree {:.4} vs recorded {:.4} (widen ×{widen:.2})",
            m.mean_degree, r.mean_degree
        ));
    }
    for ((a, b), (got, want)) in context_pairs().zip(m.context_shares.iter().zip(&r.context_shares))
    {
        if (got - want).abs() > SHARE_TOL * widen {
            out.push(format!(
                "context pair ({a}, {b}) share {got:.4} vs recorded {want:.4} (widen ×{widen:.2})"
            ));
        }
    }
    let tv: f64 =
        m.degree_shares.iter().zip(&r.degree_shares).map(|(g, w)| (g - w).abs()).sum::<f64>() / 2.0;
    if tv > DEGREE_TV_TOL * widen {
        out.push(format!("degree histogram total-variation distance {tv:.4} (widen ×{widen:.2})"));
    }
    out
}

const RECORDED: [Recorded; 3] = [
    Recorded {
        abbrev: "DE",
        per: 100.0,
        seed: 7,
        population: 0x53d22b6b173a590f,
        location_counts: 0x60fb766d457fc4a4,
        edges: 40348,
        mean_degree: 8.151111,
        context_shares: [
            0.264177, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.328839,
            0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.007287, 0.000000, 0.000000,
            0.000000, 0.000000, 0.019332, 0.000000, 0.000000, 0.000000, 0.346733, 0.000000,
            0.000000, 0.033632, 0.000000, 0.000000,
        ],
        degree_shares: [
            0.054141, 0.142727, 0.076061, 0.074444, 0.051010, 0.049394, 0.040808, 0.042121,
            0.042323, 0.040505, 0.037172, 0.035152, 0.034949, 0.031313, 0.030101, 0.035253,
            0.032828, 0.035657, 0.031111, 0.027172, 0.021010, 0.013232, 0.009798, 0.005354,
            0.002929, 0.001818, 0.000707, 0.000303, 0.000404, 0.000101, 0.000101, 0.000000,
            0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000,
            0.000000,
        ],
    },
    Recorded {
        abbrev: "VA",
        per: 500.0,
        seed: 11,
        population: 0xf844cf54d3b935ef,
        location_counts: 0x0c3b75fcf26294cf,
        edges: 60749,
        mean_degree: 7.038874,
        context_shares: [
            0.282507, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.343940,
            0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.007539, 0.000000, 0.000000,
            0.000000, 0.000000, 0.019490, 0.000000, 0.000000, 0.000000, 0.325602, 0.000000,
            0.000000, 0.020922, 0.000000, 0.000000,
        ],
        degree_shares: [
            0.058282, 0.149412, 0.081629, 0.078153, 0.045652, 0.041481, 0.045710, 0.055501,
            0.064365, 0.063090, 0.055559, 0.049244, 0.039163, 0.033196, 0.025259, 0.024332,
            0.022247, 0.019060, 0.016164, 0.011065, 0.008516, 0.005098, 0.003534, 0.002086,
            0.001101, 0.000695, 0.000290, 0.000000, 0.000116, 0.000000, 0.000000, 0.000000,
            0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000,
            0.000000,
        ],
    },
    Recorded {
        abbrev: "DE",
        per: 5.0,
        seed: 21,
        population: 0xd25f70eac73e57d0,
        location_counts: 0x58c999103d055f0c,
        edges: 804694,
        mean_degree: 8.128633,
        context_shares: [
            0.266220, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.312657,
            0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.006919, 0.000000, 0.000000,
            0.000000, 0.000000, 0.018999, 0.000000, 0.000000, 0.000000, 0.355275, 0.000000,
            0.000000, 0.039929, 0.000000, 0.000000,
        ],
        degree_shares: [
            0.056498, 0.142911, 0.075741, 0.069913, 0.050538, 0.045977, 0.038962, 0.044432,
            0.046437, 0.046553, 0.043578, 0.037653, 0.033527, 0.030592, 0.028850, 0.029734,
            0.030310, 0.030956, 0.030153, 0.025840, 0.020456, 0.015804, 0.010192, 0.006334,
            0.003864, 0.002162, 0.001051, 0.000505, 0.000258, 0.000141, 0.000056, 0.000025,
            0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000,
            0.000000,
        ],
    },
];

#[test]
fn synthpop_stays_statistically_faithful_to_the_recorded_build() {
    let registry = RegionRegistry::new();
    let mut failures = String::new();
    let mut source = String::new();
    for r in &RECORDED {
        let m = measure(&registry, r.abbrev, r.per, r.seed);
        source.push_str(&as_source(r, &m));
        for miss in misses(r, &m) {
            failures.push_str(&format!(
                "{} 1/{} seed {} ({} persons, {} locations): {miss}\n",
                r.abbrev, r.per, r.seed, m.persons, m.locations
            ));
        }
    }
    assert!(failures.is_empty(), "{failures}actual figures:\n{source}");
}

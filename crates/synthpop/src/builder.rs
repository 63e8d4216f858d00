//! End-to-end region builder: demographics → households → activities →
//! locations → assignment → contact network.
//!
//! [`build_region`] is the one-call entry point the workflows use. It is
//! deterministic given `(region, scale, seed)`, whatever the number of
//! threads: the serial stages share one stream, and the per-person
//! stages (weekly patterns, location assignment) give every person a
//! stream of their own.

use crate::activity::{assign_archetype, weekly_pattern, WeeklyPattern};
use crate::assignment::{assign_locations, fill_chunks, person_rng, CommuteFlows, PATTERN_STAGE};
use crate::ipf::{integerize, ipf};
use crate::location::LocationModel;
use crate::network::{derive_network, ContactNetwork};
use crate::person::{AgeGroup, Gender, Person, Population};
use epiflow_surveillance::{RegionId, RegionRegistry, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build configuration.
#[derive(Clone, Debug)]
pub struct BuildConfig {
    pub scale: Scale,
    pub seed: u64,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig { scale: Scale::default(), seed: 0x5EED }
    }
}

/// Day of week to project the contact network onto (2 = Wednesday,
/// the paper's "typical day").
const NETWORK_DAY: u8 = 2;
/// Probability a worker stays in their home county.
const COMMUTE_STAY_PROB: f64 = 0.75;

/// The fully built region data.
#[derive(Clone, Debug)]
pub struct RegionData {
    pub region: RegionId,
    pub population: Population,
    pub locations: LocationModel,
    pub network: ContactNetwork,
}

/// Household size distribution (sizes 1..=6, ACS-like shares).
const HH_SIZE_SHARES: [f64; 6] = [0.28, 0.35, 0.15, 0.13, 0.06, 0.03];

/// Seed joint for IPF: age-group (rows) × household-size (cols).
/// Structural realities are encoded as near-zeros: children do not live
/// alone or in pairs without adults (handled in assembly), seniors rarely
/// live in 5–6-person homes.
fn ipf_seed() -> Vec<Vec<f64>> {
    vec![
        // Preschool: only in households of 2+.
        vec![0.0, 0.2, 1.5, 2.5, 1.5, 0.8],
        // School-age.
        vec![0.0, 0.3, 1.5, 2.8, 1.8, 1.0],
        // Adults 18–49: everywhere.
        vec![1.5, 2.5, 2.0, 2.0, 1.0, 0.5],
        // 50–64: mostly 1–2 person homes.
        vec![1.2, 2.8, 1.0, 0.6, 0.3, 0.2],
        // 65+: overwhelmingly 1–2 person homes.
        vec![1.5, 2.6, 0.5, 0.2, 0.1, 0.05],
    ]
}

/// Draw an age uniformly within an age group's range.
fn draw_age<R: Rng + ?Sized>(group: AgeGroup, rng: &mut R) -> u8 {
    match group {
        AgeGroup::Preschool => rng.random_range(0..=4),
        AgeGroup::School => rng.random_range(5..=17),
        AgeGroup::Adult => rng.random_range(18..=49),
        AgeGroup::Older => rng.random_range(50..=64),
        AgeGroup::Senior => rng.random_range(65..=95),
    }
}

/// Synthesize one county's persons and households from the IPF-fitted
/// age × household-size counts.
#[allow(clippy::too_many_arguments)]
fn synthesize_county<R: Rng + ?Sized>(
    county: u16,
    n_persons: usize,
    persons: &mut Vec<Person>,
    households: &mut Vec<Vec<u32>>,
    rng: &mut R,
) {
    if n_persons == 0 {
        return;
    }
    // IPF: rows = age groups (census-like marginals), cols = household
    // sizes (persons living in size-s homes).
    let age_targets: Vec<f64> =
        AgeGroup::ALL.iter().map(|g| g.us_share() * n_persons as f64).collect();
    let size_targets: Vec<f64> = HH_SIZE_SHARES
        .iter()
        .enumerate()
        .map(|(i, share)| {
            // Share of households → share of persons ∝ share · size.
            share * (i + 1) as f64
        })
        .collect();
    let st: f64 = size_targets.iter().sum();
    let size_targets: Vec<f64> = size_targets.iter().map(|s| s / st * n_persons as f64).collect();

    let fitted = ipf(&ipf_seed(), &age_targets, &size_targets, 1e-8, 500);
    let counts = integerize(&fitted.table, n_persons as u64);

    // Pools of persons-to-place per (age group, household size).
    // counts[g][s] persons of group g live in size-(s+1) households.
    let county_x = county as f32 * 2.0;
    // `s` indexes the inner dimension of `counts[g][s]`; enumerate()
    // would obscure that.
    #[allow(clippy::needless_range_loop)]
    for s in 0..6 {
        let size = s + 1;
        let mut pool: Vec<AgeGroup> = Vec::new();
        for (g, group) in AgeGroup::ALL.iter().enumerate() {
            for _ in 0..counts[g][s] {
                pool.push(*group);
            }
        }
        if pool.is_empty() {
            continue;
        }
        // Assemble households of `size`: ensure each multi-person home
        // with children also contains an adult, by sorting adults first
        // and dealing round-robin.
        pool.sort_by_key(|g| match g {
            AgeGroup::Adult | AgeGroup::Older | AgeGroup::Senior => 0,
            _ => 1,
        });
        let n_homes = pool.len().div_ceil(size);
        let mut home_members: Vec<Vec<AgeGroup>> = vec![Vec::with_capacity(size); n_homes];
        for (i, g) in pool.into_iter().enumerate() {
            home_members[i % n_homes].push(g);
        }
        for members in home_members {
            let hid = households.len() as u32;
            let hx = county_x + rng.random_range(0.0f32..1.0);
            let hy = rng.random_range(0.0f32..1.0);
            let mut ids = Vec::with_capacity(members.len());
            for group in members {
                let id = persons.len() as u32;
                persons.push(Person {
                    id,
                    household: hid,
                    age: draw_age(group, rng),
                    gender: if rng.random_bool(0.508) { Gender::Female } else { Gender::Male },
                    county,
                    home_x: hx,
                    home_y: hy,
                });
                ids.push(id);
            }
            households.push(ids);
        }
    }
}

/// Build the full synthetic population and contact network for a region.
pub fn build_region(
    registry: &RegionRegistry,
    region: RegionId,
    config: &BuildConfig,
) -> RegionData {
    let seed = config.seed ^ (region as u64).wrapping_mul(0x9E3779B97F4A7C15);
    // The serial stages' shared stream: households, locations, contacts.
    let mut rng = StdRng::seed_from_u64(seed);

    // Scaled per-county person counts.
    let county_persons: Vec<usize> =
        registry.counties(region).iter().map(|c| config.scale.apply(c.population)).collect();

    // 1–2. Demographics and households (IPF per county).
    let mut persons = Vec::new();
    let mut households = Vec::new();
    for (county, &n) in county_persons.iter().enumerate() {
        synthesize_county(county as u16, n, &mut persons, &mut households, &mut rng);
    }
    let population = Population { region, persons, households };

    // 3. Weekly activity patterns, in parallel on per-person streams.
    let mut patterns = vec![WeeklyPattern::default(); population.len()];
    fill_chunks(
        &mut patterns,
        population.len(),
        |persons| persons.len(),
        |persons, part| {
            for (pid, slot) in persons.zip(part) {
                let mut rng = person_rng(seed, PATTERN_STAGE, pid);
                *slot =
                    weekly_pattern(assign_archetype(&population.persons[pid], &mut rng), &mut rng);
            }
        },
    );

    // 4. Locations.
    let locations = LocationModel::generate(&county_persons, &mut rng);

    // 5. Assignment, in parallel on per-person streams.
    let flows = CommuteFlows::gravity(&county_persons, COMMUTE_STAY_PROB);
    let visits = assign_locations(&population, &patterns, &locations, &flows, seed);

    // 6. Contact network for the configured day.
    let network = derive_network(&population, &visits, &locations, NETWORK_DAY, &mut rng);

    RegionData { region, population, locations, network }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> BuildConfig {
        BuildConfig { scale: Scale::one_per(20_000.0), seed: 7 }
    }

    #[test]
    fn builds_a_small_state() {
        let reg = RegionRegistry::new();
        let wy = reg.by_abbrev("WY").unwrap().id;
        let data = build_region(&reg, wy, &small_config());
        assert!(data.population.len() > 10);
        assert!(data.network.n_edges() > 0);
        assert_eq!(data.network.n_nodes, data.population.len());
    }

    #[test]
    fn person_count_tracks_scale() {
        let reg = RegionRegistry::new();
        let va = reg.by_abbrev("VA").unwrap();
        let data = build_region(&reg, va.id, &small_config());
        let expect = va.population as f64 / 20_000.0;
        let got = data.population.len() as f64;
        // Integerization + per-county flooring allows a few % drift.
        assert!((got - expect).abs() / expect < 0.25, "expected ≈{expect}, got {got}");
    }

    #[test]
    fn deterministic() {
        let reg = RegionRegistry::new();
        let de = reg.by_abbrev("DE").unwrap().id;
        let a = build_region(&reg, de, &small_config());
        let b = build_region(&reg, de, &small_config());
        assert_eq!(a.population.len(), b.population.len());
        assert_eq!(a.network.edges, b.network.edges);
    }

    #[test]
    fn different_regions_differ() {
        let reg = RegionRegistry::new();
        let a = build_region(&reg, reg.by_abbrev("DE").unwrap().id, &small_config());
        let b = build_region(&reg, reg.by_abbrev("HI").unwrap().id, &small_config());
        assert_ne!(a.population.len(), b.population.len());
    }

    #[test]
    fn age_distribution_matches_marginals() {
        let reg = RegionRegistry::new();
        let md = reg.by_abbrev("MD").unwrap().id;
        let data =
            build_region(&reg, md, &BuildConfig { scale: Scale::one_per(5_000.0), seed: 11 });
        let hist = data.population.age_histogram();
        let total: usize = hist.iter().sum();
        for (i, group) in AgeGroup::ALL.iter().enumerate() {
            let got = hist[i] as f64 / total as f64;
            let want = group.us_share();
            assert!((got - want).abs() < 0.05, "{group:?}: got {got:.3}, want {want:.3}");
        }
    }

    #[test]
    fn children_never_live_alone() {
        let reg = RegionRegistry::new();
        let nh = reg.by_abbrev("NH").unwrap().id;
        let data = build_region(&reg, nh, &small_config());
        for members in &data.population.households {
            if members.len() == 1 {
                let p = data.population.person(members[0]);
                assert!(p.age >= 18, "child {} living alone", p.id);
            }
        }
    }

    #[test]
    fn mean_household_size_plausible() {
        let reg = RegionRegistry::new();
        let ct = reg.by_abbrev("CT").unwrap().id;
        let data = build_region(&reg, ct, &small_config());
        let m = data.population.mean_household_size();
        assert!((1.8..3.2).contains(&m), "mean household size {m}");
    }

    #[test]
    fn network_density_plausible() {
        let reg = RegionRegistry::new();
        let ri = reg.by_abbrev("RI").unwrap().id;
        let data = build_region(&reg, ri, &small_config());
        let s = data.network.stats();
        // Mean contact degree in single digits to low tens.
        assert!(s.mean_degree > 1.0 && s.mean_degree < 40.0, "mean degree {}", s.mean_degree);
    }

    #[test]
    fn household_ids_consistent() {
        let reg = RegionRegistry::new();
        let vt = reg.by_abbrev("VT").unwrap().id;
        let data = build_region(&reg, vt, &small_config());
        for (hid, members) in data.population.households.iter().enumerate() {
            for &pid in members {
                assert_eq!(data.population.person(pid).household as usize, hid);
            }
        }
    }
}

//! Location assignment: mapping every activity of every person to a
//! concrete location.
//!
//! Mirrors the paper's model: Work activities are assigned a *target
//! county* from commute-flow data (ACS in the paper; a gravity model
//! here), then a weighted location within it; School uses the school
//! roster of the home county; remaining activities anchor near home.
//! Work/School/College anchors are stable per person; errands re-sample
//! per activity.
//!
//! Every person draws from their own stream (`person_rng`), so the
//! persons can be assigned in parallel chunks and the visit list does
//! not depend on how many threads built it.

use crate::activity::{ActivityType, WeeklyPattern};
use crate::location::{LocationId, LocationKind, LocationModel};
use crate::person::Population;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::ops::Range;

/// One visit of a person to a location: the atoms of the people–location
/// bipartite graph `G_PL`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Visit {
    pub person: u32,
    pub location: LocationId,
    /// Day of week, 0 = Monday.
    pub day: u8,
    /// Start minute within the day.
    pub start: u16,
    pub duration: u16,
    pub activity: ActivityType,
}

/// County-to-county commute flow matrix (row-stochastic).
///
/// A gravity model: workers stay in their home county with high
/// probability, otherwise commute to another county with probability
/// proportional to its size and inversely to (1 + distance), where
/// distance is the county-index gap (counties are embedded on a line).
#[derive(Clone, Debug)]
pub struct CommuteFlows {
    /// `flows[home]` → cumulative distribution over work counties.
    cdf: Vec<Vec<f64>>,
}

impl CommuteFlows {
    /// Build from county population sizes.
    pub fn gravity(county_persons: &[usize], stay_prob: f64) -> Self {
        let n = county_persons.len();
        assert!(n > 0, "commute flows need at least one county");
        let mut cdf = Vec::with_capacity(n);
        for home in 0..n {
            let mut w = vec![0.0; n];
            let mut total = 0.0;
            for (other, &pop) in county_persons.iter().enumerate() {
                if other == home {
                    continue;
                }
                let dist = (other as f64 - home as f64).abs();
                w[other] = pop as f64 / (1.0 + dist * dist);
                total += w[other];
            }
            // Normalize off-county mass to (1 - stay_prob).
            let mut c = Vec::with_capacity(n);
            let mut acc = 0.0;
            for (other, wo) in w.iter().enumerate() {
                let p = if other == home {
                    stay_prob
                } else if total > 0.0 {
                    (1.0 - stay_prob) * wo / total
                } else {
                    0.0
                };
                acc += p;
                c.push(acc);
            }
            // Guard against floating-point undershoot.
            if let Some(last) = c.last_mut() {
                *last = 1.0;
            }
            cdf.push(c);
        }
        CommuteFlows { cdf }
    }

    /// Sample a work county for a resident of `home`.
    pub fn sample_work_county<R: Rng + ?Sized>(&self, home: u16, rng: &mut R) -> u16 {
        let row = &self.cdf[home as usize];
        let u: f64 = rng.random_range(0.0..1.0);
        match row.binary_search_by(|p| p.partial_cmp(&u).expect("NaN in cdf")) {
            Ok(i) | Err(i) => i.min(row.len() - 1) as u16,
        }
    }

    /// Probability mass of staying in the home county (for tests).
    pub fn stay_mass(&self, home: u16) -> f64 {
        let row = &self.cdf[home as usize];
        let h = home as usize;
        let prev = if h == 0 { 0.0 } else { row[h - 1] };
        row[h] - prev
    }
}

/// Stream key of the weekly-pattern stage (see [`person_rng`]).
pub(crate) const PATTERN_STAGE: u64 = 1;
/// Stream key of the location-assignment stage.
const ASSIGNMENT_STAGE: u64 = 2;

/// Persons per parallel work item, so a participant claims a chunk from
/// the pool's shared counter once per this many persons, not per person.
const CHUNK: usize = 1024;

/// Person `pid`'s own stream for one stage of the build: a pure function
/// of `(seed, stage, pid)`, so a person's draws never depend on which
/// thread runs them or on how many persons came before.
pub(crate) fn person_rng(seed: u64, stage: u64, pid: usize) -> StdRng {
    // splitmix64's finalizer over the combined key, so neighbouring
    // persons do not get overlapping seed words.
    let mut z = seed
        ^ stage.wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Split `buf` into consecutive parts, one per chunk of `CHUNK` persons
/// with `part_len(persons)` elements, and run `fill(persons, part)` on
/// the parts in parallel. A call from inside a pool task runs them in
/// order on its own thread; the parts are disjoint, so the result is
/// the same either way.
pub(crate) fn fill_chunks<T: Send>(
    buf: &mut [T],
    n_persons: usize,
    part_len: impl Fn(Range<usize>) -> usize,
    fill: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let mut parts = Vec::with_capacity(n_persons.div_ceil(CHUNK));
    let mut rest = buf;
    for start in (0..n_persons).step_by(CHUNK) {
        let persons = start..(start + CHUNK).min(n_persons);
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(part_len(persons.clone()));
        parts.push((persons, part));
        rest = tail;
    }
    assert!(rest.is_empty(), "the parts cover the buffer");
    parts.par_iter_mut().for_each(|(persons, part)| fill(persons.clone(), part));
}

/// Visits a pattern produces: one per non-Home activity.
fn visit_count(pattern: &WeeklyPattern) -> usize {
    pattern.activities.iter().filter(|a| LocationKind::for_activity(a.kind).is_some()).count()
}

/// Stable anchors assigned once per person.
#[derive(Clone, Copy, Debug, Default)]
struct Anchors {
    work: Option<LocationId>,
    school: Option<LocationId>,
    college: Option<LocationId>,
}

/// Assign locations to all activities, producing the visit list in
/// person order.
///
/// `patterns[pid]` is the weekly pattern of person `pid`; each person
/// draws from `person_rng(seed, ASSIGNMENT_STAGE, pid)`. The patterns fix
/// every person's visit count, so chunks of persons fill disjoint parts
/// of one preallocated list in parallel.
pub fn assign_locations(
    population: &Population,
    patterns: &[WeeklyPattern],
    locations: &LocationModel,
    flows: &CommuteFlows,
    seed: u64,
) -> Vec<Visit> {
    assert_eq!(population.len(), patterns.len(), "pattern per person required");
    let blank = Visit {
        person: 0,
        location: 0,
        day: 0,
        start: 0,
        duration: 0,
        activity: ActivityType::Home,
    };
    let mut visits = vec![blank; patterns.iter().map(visit_count).sum()];
    fill_chunks(
        &mut visits,
        patterns.len(),
        |persons| patterns[persons].iter().map(visit_count).sum(),
        |persons, part| {
            let drawn = persons.flat_map(|pid| {
                person_visits(pid, population, &patterns[pid], locations, flows, seed)
            });
            for (slot, visit) in part.iter_mut().zip(drawn) {
                *slot = visit;
            }
        },
    );
    visits
}

/// One person's visits, drawn from their own assignment stream.
fn person_visits<'a>(
    pid: usize,
    population: &'a Population,
    pattern: &'a WeeklyPattern,
    locations: &'a LocationModel,
    flows: &'a CommuteFlows,
    seed: u64,
) -> impl Iterator<Item = Visit> + 'a {
    let person = &population.persons[pid];
    let mut rng = person_rng(seed, ASSIGNMENT_STAGE, pid);
    let mut anchors = Anchors::default();
    pattern.activities.iter().filter_map(move |act| {
        // Home is handled by household cliques.
        let kind = LocationKind::for_activity(act.kind)?;
        let rng = &mut rng;
        let loc = match act.kind {
            ActivityType::Work => *anchors.work.get_or_insert_with(|| {
                let county = flows.sample_work_county(person.county, rng);
                locations.sample(county, kind, rng)
            }),
            ActivityType::School => {
                *anchors.school.get_or_insert_with(|| locations.sample(person.county, kind, rng))
            }
            ActivityType::College => {
                *anchors.college.get_or_insert_with(|| locations.sample(person.county, kind, rng))
            }
            _ => locations.sample(person.county, kind, rng),
        };
        Some(Visit {
            person: pid as u32,
            location: loc,
            day: act.day,
            start: act.start,
            duration: act.duration,
            activity: act.kind,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{assign_archetype, weekly_pattern, Activity};
    use crate::person::{Gender, Person};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_world() -> (Population, LocationModel, CommuteFlows) {
        world(200)
    }

    fn world(n: u32) -> (Population, LocationModel, CommuteFlows) {
        let mut rng = StdRng::seed_from_u64(9);
        let persons: Vec<Person> = (0..n)
            .map(|i| Person {
                id: i,
                household: i / 3,
                age: (i % 80) as u8,
                gender: if i % 2 == 0 { Gender::Female } else { Gender::Male },
                county: (i % 2) as u16,
                home_x: 0.0,
                home_y: 0.0,
            })
            .collect();
        let mut households = vec![Vec::new(); n.div_ceil(3) as usize];
        for p in &persons {
            households[p.household as usize].push(p.id);
        }
        let pop = Population { region: 0, persons, households };
        let locs = LocationModel::generate(&[100, 100], &mut rng);
        let flows = CommuteFlows::gravity(&[100, 100], 0.8);
        (pop, locs, flows)
    }

    #[test]
    fn commute_stay_probability_respected() {
        let flows = CommuteFlows::gravity(&[1000, 1000, 1000], 0.7);
        for home in 0..3 {
            assert!((flows.stay_mass(home) - 0.7).abs() < 1e-9);
        }
    }

    #[test]
    fn commute_sampling_distribution() {
        let flows = CommuteFlows::gravity(&[1000, 1000], 0.8);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 5000;
        let stays = (0..n).filter(|_| flows.sample_work_county(0, &mut rng) == 0).count();
        let frac = stays as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.03, "stay fraction {frac}");
    }

    #[test]
    fn single_county_always_stays() {
        let flows = CommuteFlows::gravity(&[500], 0.8);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            assert_eq!(flows.sample_work_county(0, &mut rng), 0);
        }
    }

    #[test]
    fn anchors_are_stable_within_person() {
        let (pop, locs, flows) = tiny_world();
        let mut rng = StdRng::seed_from_u64(13);
        let patterns: Vec<WeeklyPattern> = pop
            .persons
            .iter()
            .map(|p| weekly_pattern(assign_archetype(p, &mut rng), &mut rng))
            .collect();
        let visits = assign_locations(&pop, &patterns, &locs, &flows, 21);
        // Every person's Work visits land at one location.
        for pid in 0..pop.len() as u32 {
            let works: std::collections::HashSet<LocationId> = visits
                .iter()
                .filter(|v| v.person == pid && v.activity == ActivityType::Work)
                .map(|v| v.location)
                .collect();
            assert!(works.len() <= 1, "person {pid} has {} workplaces", works.len());
        }
    }

    #[test]
    fn school_stays_in_home_county() {
        let (pop, locs, flows) = tiny_world();
        let mut rng = StdRng::seed_from_u64(14);
        let patterns: Vec<WeeklyPattern> = pop
            .persons
            .iter()
            .map(|p| weekly_pattern(assign_archetype(p, &mut rng), &mut rng))
            .collect();
        let visits = assign_locations(&pop, &patterns, &locs, &flows, 21);
        for v in visits.iter().filter(|v| v.activity == ActivityType::School) {
            let home_county = pop.persons[v.person as usize].county;
            assert_eq!(locs.location(v.location).county, home_county);
        }
    }

    #[test]
    fn visit_kind_matches_location_kind() {
        let (pop, locs, flows) = tiny_world();
        let mut rng = StdRng::seed_from_u64(15);
        let patterns: Vec<WeeklyPattern> = pop
            .persons
            .iter()
            .map(|p| weekly_pattern(assign_archetype(p, &mut rng), &mut rng))
            .collect();
        let visits = assign_locations(&pop, &patterns, &locs, &flows, 21);
        assert!(!visits.is_empty());
        for v in &visits {
            assert_eq!(locs.location(v.location).kind.serves(), v.activity);
        }
    }

    #[test]
    fn chunked_parallel_stage_equals_a_serial_map_of_the_kernel() {
        // Several chunks, the last one partial.
        let n = 2 * CHUNK + 300;
        let (pop, locs, flows) = world(n as u32);
        let mut rng = StdRng::seed_from_u64(17);
        let patterns: Vec<WeeklyPattern> = pop
            .persons
            .iter()
            .map(|p| weekly_pattern(assign_archetype(p, &mut rng), &mut rng))
            .collect();
        let serial: Vec<Visit> = (0..n)
            .flat_map(|pid| person_visits(pid, &pop, &patterns[pid], &locs, &flows, 23))
            .collect();
        assert!(serial.len() > n, "every chunk has visits");
        assert_eq!(assign_locations(&pop, &patterns, &locs, &flows, 23), serial);
        let other_seed = assign_locations(&pop, &patterns, &locs, &flows, 24);
        assert_ne!(other_seed, serial, "the seed keys the streams");
    }

    #[test]
    fn person_streams_depend_on_seed_stage_and_person_only() {
        let draw = |seed, stage, pid| person_rng(seed, stage, pid).random::<u64>();
        assert_eq!(draw(5, ASSIGNMENT_STAGE, 7), draw(5, ASSIGNMENT_STAGE, 7));
        let firsts: std::collections::HashSet<u64> = (0..1000)
            .flat_map(|pid| [draw(5, PATTERN_STAGE, pid), draw(5, ASSIGNMENT_STAGE, pid)])
            .chain([draw(6, ASSIGNMENT_STAGE, 7)])
            .collect();
        assert_eq!(firsts.len(), 2001, "distinct streams per seed, stage and person");
    }

    #[test]
    fn home_activities_produce_no_visits() {
        let (pop, locs, flows) = tiny_world();
        let mut patterns = vec![WeeklyPattern::default(); pop.len()];
        patterns[0].activities.push(Activity {
            kind: ActivityType::Home,
            day: 0,
            start: 0,
            duration: 600,
        });
        let visits = assign_locations(&pop, &patterns, &locs, &flows, 16);
        assert!(visits.is_empty());
    }
}

//! Contact network construction and the network data structure.
//!
//! From the visit list (the people–location graph `G_PL`) we derive the
//! day's contact network: simultaneous presence induces `G_max`, and
//! *sub-location contact modeling* thins it — each visitor contacts a
//! bounded number of co-present visitors, with longer temporal overlap
//! making a contact more likely. Household members form cliques with the
//! Home context. The result matches the paper's edge schema: the two
//! person ids, start time and duration of the interaction, and the
//! (possibly asymmetric) context of each endpoint — the clerk is Working
//! while the customer is Shopping.

use crate::activity::ActivityType;
use crate::assignment::Visit;
use crate::location::LocationKind;
use crate::person::Population;
use rand::Rng;

/// One undirected contact edge (`u < v` by construction).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContactEdge {
    pub u: u32,
    pub v: u32,
    /// Start minute of the interaction within the day.
    pub start: u16,
    /// Overlap duration in minutes.
    pub duration: u16,
    /// Context of `u` (e.g. Shopping) — may differ from `v`'s.
    pub ctx_u: ActivityType,
    /// Context of `v` (e.g. Work).
    pub ctx_v: ActivityType,
    /// Edge weight: transmission-relevant intensity (household edges are
    /// heavier than brief retail contacts).
    pub weight: f32,
}

/// A region's contact network for one representative day.
#[derive(Clone, Debug, Default)]
pub struct ContactNetwork {
    /// Number of persons (node ids are `0..n_nodes`).
    pub n_nodes: usize,
    pub edges: Vec<ContactEdge>,
}

/// Summary statistics used for Fig.-6-style reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetworkStats {
    pub nodes: usize,
    pub edges: usize,
    pub mean_degree: f64,
    pub max_degree: usize,
    pub isolated: usize,
}

/// How many contacts one visit makes, by location kind — the
/// sub-location contact budget. Schools and workplaces are dense,
/// retail is sparse.
fn contact_budget(kind: LocationKind) -> usize {
    match kind {
        LocationKind::Workplace => 6,
        LocationKind::Shop => 2,
        LocationKind::OtherVenue => 3,
        LocationKind::SchoolK12 => 8,
        LocationKind::CollegeCampus => 6,
        LocationKind::Church => 4,
    }
}

/// Per-context edge weight (relative infection-transmission intensity).
fn context_weight(a: ActivityType, b: ActivityType) -> f32 {
    let w = |t: ActivityType| match t {
        ActivityType::Home => 1.0f32,
        ActivityType::Work => 0.5,
        ActivityType::School => 0.6,
        ActivityType::College => 0.5,
        ActivityType::Shopping => 0.2,
        ActivityType::Other => 0.3,
        ActivityType::Religion => 0.4,
    };
    (w(a) + w(b)) / 2.0
}

/// Derive the contact network for one day of the week from the visit
/// list plus household structure.
///
/// `day` is 0 = Monday … 6 = Sunday; the paper projects to Wednesday
/// (day 2) as the "typical day".
pub fn derive_network<R: Rng + ?Sized>(
    population: &Population,
    visits: &[Visit],
    locations: &crate::location::LocationModel,
    day: u8,
    rng: &mut R,
) -> ContactNetwork {
    let n = population.len();
    // Every candidate edge in generation order, deduplicated at the end.
    let mut edges: Vec<ContactEdge> = Vec::new();

    // 1. Household cliques: full-day Home contacts.
    for members in &population.households {
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let (u, v) = if a < b { (a, b) } else { (b, a) };
                edges.push(ContactEdge {
                    u,
                    v,
                    start: 0,
                    duration: 960, // waking cohabitation hours
                    ctx_u: ActivityType::Home,
                    ctx_v: ActivityType::Home,
                    weight: context_weight(ActivityType::Home, ActivityType::Home),
                });
            }
        }
    }

    // 2. Group the day's visits by location with a counting sort over the
    // dense location ids: groups in ascending id order, visits in list
    // order within a group, so RNG consumption (and thus the network) is
    // reproducible for a fixed seed. `by_location[offsets[l]..offsets[l + 1]]`
    // indexes the visits at location `l`.
    let mut offsets = vec![0usize; locations.len() + 1];
    for v in visits.iter().filter(|v| v.day == day) {
        offsets[v.location as usize + 1] += 1;
    }
    for l in 0..locations.len() {
        offsets[l + 1] += offsets[l];
    }
    let mut by_location = vec![0u32; offsets[locations.len()]];
    let mut cursor = offsets.clone();
    for (i, v) in visits.iter().enumerate().filter(|(_, v)| v.day == day) {
        by_location[cursor[v.location as usize]] = u32::try_from(i).expect("visit index fits u32");
        cursor[v.location as usize] += 1;
    }

    // 3. Sub-location contact sampling.
    for (loc_id, bounds) in offsets.windows(2).enumerate() {
        let group = &by_location[bounds[0]..bounds[1]];
        if group.len() < 2 {
            continue;
        }
        let kind = locations.location(loc_id as u32).kind;
        let budget = contact_budget(kind);
        for (i, &vi) in group.iter().enumerate() {
            let visit = &visits[vi as usize];
            // Sample up to `budget` candidate partners; keep those with
            // temporal overlap. O(V · budget) instead of O(V²).
            for _ in 0..budget {
                let j = rng.random_range(0..group.len());
                if j == i {
                    continue;
                }
                let other = &visits[group[j] as usize];
                if other.person == visit.person {
                    continue;
                }
                let lo = visit.start.max(other.start);
                let hi = (visit.start + visit.duration).min(other.start + other.duration);
                if hi <= lo {
                    continue; // no temporal overlap: co-located but not co-present
                }
                let overlap = hi - lo;
                // Longer overlaps are likelier to produce real contact.
                let p = (overlap as f64 / 240.0).min(1.0);
                if !rng.random_bool(p) {
                    continue;
                }
                let (u, v, cu, cv) = if visit.person < other.person {
                    (visit.person, other.person, visit.activity, other.activity)
                } else {
                    (other.person, visit.person, other.activity, visit.activity)
                };
                edges.push(ContactEdge {
                    u,
                    v,
                    start: lo,
                    duration: overlap,
                    ctx_u: cu,
                    ctx_v: cv,
                    weight: context_weight(cu, cv),
                });
            }
        }
    }

    ContactNetwork { n_nodes: n, edges: dedup_pairs(edges) }
}

/// One edge per unordered pair, sorted by `(u, v)`: the first candidate
/// of maximal duration in `candidates` order. The sort is stable, so
/// within a pair `kept` is the earliest candidate and a later one
/// replaces it only when strictly longer.
fn dedup_pairs(mut candidates: Vec<ContactEdge>) -> Vec<ContactEdge> {
    candidates.sort_by_key(|e| (e.u, e.v));
    candidates.dedup_by(|later, kept| {
        let same = (later.u, later.v) == (kept.u, kept.v);
        if same && later.duration > kept.duration {
            *kept = *later;
        }
        same
    });
    candidates.shrink_to_fit();
    candidates
}

impl ContactNetwork {
    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Degree of every node.
    pub fn degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.n_nodes];
        for e in &self.edges {
            d[e.u as usize] += 1;
            d[e.v as usize] += 1;
        }
        d
    }

    /// Summary statistics.
    pub fn stats(&self) -> NetworkStats {
        let d = self.degrees();
        let isolated = d.iter().filter(|&&x| x == 0).count();
        NetworkStats {
            nodes: self.n_nodes,
            edges: self.edges.len(),
            mean_degree: if self.n_nodes == 0 {
                0.0
            } else {
                2.0 * self.edges.len() as f64 / self.n_nodes as f64
            },
            max_degree: d.iter().copied().max().unwrap_or(0),
            isolated,
        }
    }

    /// Serialize edges to the CSV schema the paper describes: the two
    /// person ids, contexts, start time and duration.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.edges.len() * 32);
        out.push_str("u,v,ctx_u,ctx_v,start,duration,weight\n");
        for e in &self.edges {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.3}\n",
                e.u,
                e.v,
                e.ctx_u.code(),
                e.ctx_v.code(),
                e.start,
                e.duration,
                e.weight
            ));
        }
        out
    }

    /// Parse a CSV produced by [`ContactNetwork::to_csv`].
    pub fn from_csv(n_nodes: usize, csv: &str) -> Result<ContactNetwork, String> {
        let mut edges = Vec::new();
        for (lineno, line) in csv.lines().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 7 {
                return Err(format!("line {}: expected 7 fields", lineno + 1));
            }
            let bad = |what: &str| format!("line {}: bad {what}", lineno + 1);
            let ctx = |s: &str, what: &str| -> Result<ActivityType, String> {
                s.parse::<u8>().ok().and_then(ActivityType::from_code).ok_or_else(|| bad(what))
            };
            edges.push(ContactEdge {
                u: f[0].parse().map_err(|_| bad("u"))?,
                v: f[1].parse().map_err(|_| bad("v"))?,
                ctx_u: ctx(f[2], "ctx_u")?,
                ctx_v: ctx(f[3], "ctx_v")?,
                start: f[4].parse().map_err(|_| bad("start"))?,
                duration: f[5].parse().map_err(|_| bad("duration"))?,
                weight: f[6].parse().map_err(|_| bad("weight"))?,
            });
        }
        Ok(ContactNetwork { n_nodes, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::LocationModel;
    use crate::person::{Gender, Person};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mini_pop(n: u32, per_household: u32) -> Population {
        let persons: Vec<Person> = (0..n)
            .map(|i| Person {
                id: i,
                household: i / per_household,
                age: 30,
                gender: Gender::Female,
                county: 0,
                home_x: 0.0,
                home_y: 0.0,
            })
            .collect();
        let n_h = n.div_ceil(per_household);
        let mut households = vec![Vec::new(); n_h as usize];
        for p in &persons {
            households[p.household as usize].push(p.id);
        }
        Population { region: 0, persons, households }
    }

    #[test]
    fn households_become_cliques() {
        let pop = mini_pop(6, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let locs = LocationModel::generate(&[6], &mut rng);
        let net = derive_network(&pop, &[], &locs, 2, &mut rng);
        // Two households of 3: 2 * C(3,2) = 6 edges.
        assert_eq!(net.n_edges(), 6);
        for e in &net.edges {
            assert_eq!(e.ctx_u, ActivityType::Home);
            assert!(e.u < e.v);
            // Same household.
            assert_eq!(e.u / 3, e.v / 3);
        }
    }

    #[test]
    fn visits_on_other_days_ignored() {
        let pop = mini_pop(4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let locs = LocationModel::generate(&[4], &mut rng);
        let loc = locs.in_county(0, LocationKind::Workplace)[0];
        let visits: Vec<Visit> = (0..4)
            .map(|i| Visit {
                person: i,
                location: loc,
                day: 0, // Monday
                start: 540,
                duration: 480,
                activity: ActivityType::Work,
            })
            .collect();
        let net = derive_network(&pop, &visits, &locs, 2, &mut rng); // Wednesday
        assert_eq!(net.n_edges(), 0);
    }

    #[test]
    fn coworkers_meet() {
        let pop = mini_pop(10, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let locs = LocationModel::generate(&[10], &mut rng);
        let loc = locs.in_county(0, LocationKind::Workplace)[0];
        let visits: Vec<Visit> = (0..10)
            .map(|i| Visit {
                person: i,
                location: loc,
                day: 2,
                start: 540,
                duration: 480,
                activity: ActivityType::Work,
            })
            .collect();
        let net = derive_network(&pop, &visits, &locs, 2, &mut rng);
        assert!(net.n_edges() > 5, "expected workplace contacts, got {}", net.n_edges());
        for e in &net.edges {
            assert_eq!(e.ctx_u, ActivityType::Work);
            assert_eq!(e.duration, 480);
        }
    }

    #[test]
    fn no_temporal_overlap_no_edge() {
        let pop = mini_pop(2, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let locs = LocationModel::generate(&[2], &mut rng);
        let loc = locs.in_county(0, LocationKind::Shop)[0];
        let visits = vec![
            Visit {
                person: 0,
                location: loc,
                day: 2,
                start: 500,
                duration: 60,
                activity: ActivityType::Shopping,
            },
            Visit {
                person: 1,
                location: loc,
                day: 2,
                start: 700,
                duration: 60,
                activity: ActivityType::Shopping,
            },
        ];
        let net = derive_network(&pop, &visits, &locs, 2, &mut rng);
        assert_eq!(net.n_edges(), 0);
    }

    #[test]
    fn asymmetric_contexts_preserved() {
        let pop = mini_pop(2, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let locs = LocationModel::generate(&[2], &mut rng);
        let loc = locs.in_county(0, LocationKind::Shop)[0];
        // Person 0 shops while person 1 works the register, long overlap
        // so the contact fires with near-certainty across retries.
        let visits = vec![
            Visit {
                person: 0,
                location: loc,
                day: 2,
                start: 540,
                duration: 400,
                activity: ActivityType::Shopping,
            },
            Visit {
                person: 1,
                location: loc,
                day: 2,
                start: 500,
                duration: 480,
                activity: ActivityType::Work,
            },
        ];
        let net = derive_network(&pop, &visits, &locs, 2, &mut rng);
        assert_eq!(net.n_edges(), 1);
        let e = &net.edges[0];
        assert_eq!((e.u, e.v), (0, 1));
        assert_eq!(e.ctx_u, ActivityType::Shopping);
        assert_eq!(e.ctx_v, ActivityType::Work);
    }

    #[test]
    fn stats_and_degrees() {
        let pop = mini_pop(5, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let locs = LocationModel::generate(&[5], &mut rng);
        let net = derive_network(&pop, &[], &locs, 2, &mut rng);
        let s = net.stats();
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 10); // K5
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.isolated, 0);
        assert!((s.mean_degree - 4.0).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip() {
        let pop = mini_pop(6, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let locs = LocationModel::generate(&[6], &mut rng);
        let net = derive_network(&pop, &[], &locs, 2, &mut rng);
        let csv = net.to_csv();
        let back = ContactNetwork::from_csv(6, &csv).unwrap();
        assert_eq!(back.n_edges(), net.n_edges());
        assert_eq!(back.edges[0].ctx_u, ActivityType::Home);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(ContactNetwork::from_csv(2, "h\n1,2\n").is_err());
        assert!(ContactNetwork::from_csv(2, "h\n0,1,9,0,0,10,1.0\n").is_err());
    }

    #[test]
    fn household_edges_heavier_than_retail() {
        assert!(
            context_weight(ActivityType::Home, ActivityType::Home)
                > context_weight(ActivityType::Shopping, ActivityType::Shopping)
        );
    }

    fn meeting(u: u32, v: u32, start: u16, duration: u16, ctx: [ActivityType; 2]) -> ContactEdge {
        ContactEdge {
            u,
            v,
            start,
            duration,
            ctx_u: ctx[0],
            ctx_v: ctx[1],
            weight: context_weight(ctx[0], ctx[1]),
        }
    }

    #[test]
    fn equal_overlap_keeps_the_first_meeting() {
        use ActivityType::{Other, Shopping, Work};
        let edges = dedup_pairs(vec![
            meeting(0, 1, 100, 60, [Shopping, Work]),
            meeting(2, 3, 50, 30, [Other, Other]),
            meeting(0, 1, 300, 60, [Other, Other]),
        ]);
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], meeting(0, 1, 100, 60, [Shopping, Work]));
        assert_eq!(edges[1], meeting(2, 3, 50, 30, [Other, Other]));
    }

    #[test]
    fn strictly_longer_later_meeting_replaces() {
        use ActivityType::{Other, Shopping, Work};
        let edges = dedup_pairs(vec![
            meeting(4, 7, 100, 60, [Shopping, Work]),
            meeting(4, 7, 300, 90, [Work, Work]),
            meeting(4, 7, 500, 90, [Other, Other]),
            meeting(4, 7, 600, 20, [Other, Shopping]),
        ]);
        assert_eq!(edges, vec![meeting(4, 7, 300, 90, [Work, Work])]);
    }

    #[test]
    fn household_edge_survives_a_shorter_visit_contact() {
        // One household of two coworkers who overlap for 480 minutes, so
        // the workplace contact fires on every draw that picks the other.
        let pop = mini_pop(2, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let locs = LocationModel::generate(&[2], &mut rng);
        let loc = locs.in_county(0, LocationKind::Workplace)[0];
        let visits: Vec<Visit> = (0..2)
            .map(|i| Visit {
                person: i,
                location: loc,
                day: 2,
                start: 540,
                duration: 480,
                activity: ActivityType::Work,
            })
            .collect();
        let net = derive_network(&pop, &visits, &locs, 2, &mut rng);
        let home = [ActivityType::Home, ActivityType::Home];
        assert_eq!(net.edges, vec![meeting(0, 1, 0, 960, home)]);
    }

    #[test]
    fn no_visits_on_the_day_gives_exactly_the_household_cliques() {
        let pop = mini_pop(7, 3);
        let home = [ActivityType::Home, ActivityType::Home];
        let cliques: Vec<ContactEdge> = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
            .into_iter()
            .map(|(u, v)| meeting(u, v, 0, 960, home))
            .collect();
        // No visits at all, against a model with no locations.
        let empty =
            derive_network(&pop, &[], &LocationModel::default(), 2, &mut StdRng::seed_from_u64(1));
        assert_eq!(empty.edges, cliques);
        assert_eq!(empty.n_nodes, 7);
        // Visits only on another day.
        let locs = LocationModel::generate(&[7], &mut StdRng::seed_from_u64(2));
        let loc = locs.in_county(0, LocationKind::Shop)[0];
        let visits: Vec<Visit> = (0..7)
            .map(|i| Visit {
                person: i,
                location: loc,
                day: 5,
                start: 600,
                duration: 300,
                activity: ActivityType::Shopping,
            })
            .collect();
        let net = derive_network(&pop, &visits, &locs, 2, &mut StdRng::seed_from_u64(3));
        assert_eq!(net.edges, cliques);
    }

    #[test]
    fn network_is_deterministic_given_seed() {
        let pop = mini_pop(20, 4);
        let locs = LocationModel::generate(&[20], &mut StdRng::seed_from_u64(8));
        let loc = locs.in_county(0, LocationKind::Workplace)[0];
        let visits: Vec<Visit> = (0..20)
            .map(|i| Visit {
                person: i,
                location: loc,
                day: 2,
                start: 540,
                duration: 300,
                activity: ActivityType::Work,
            })
            .collect();
        let a = derive_network(&pop, &visits, &locs, 2, &mut StdRng::seed_from_u64(42));
        let b = derive_network(&pop, &visits, &locs, 2, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.edges, b.edges);
    }
}

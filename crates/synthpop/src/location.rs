//! Spatially embedded locations.
//!
//! The paper's location model is "highly granular and rooted in data"
//! (Microsoft building footprints, HERE POIs, NCES schools, LandScan…).
//! We keep the *structure* — residences plus typed activity locations
//! with heavy-tailed capacities, embedded in a plane, organized by
//! county — and synthesize the instances.

use crate::activity::ActivityType;
use rand::Rng;

/// Location identifier, unique within one region.
pub type LocationId = u32;

/// The kinds of non-residential locations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LocationKind {
    Workplace,
    Shop,
    OtherVenue,
    SchoolK12,
    CollegeCampus,
    Church,
}

impl LocationKind {
    /// The activity type served by this kind of location.
    pub fn serves(&self) -> ActivityType {
        match self {
            LocationKind::Workplace => ActivityType::Work,
            LocationKind::Shop => ActivityType::Shopping,
            LocationKind::OtherVenue => ActivityType::Other,
            LocationKind::SchoolK12 => ActivityType::School,
            LocationKind::CollegeCampus => ActivityType::College,
            LocationKind::Church => ActivityType::Religion,
        }
    }

    /// Which kind serves an activity type (Home has no location kind —
    /// residences are separate).
    pub fn for_activity(t: ActivityType) -> Option<LocationKind> {
        match t {
            ActivityType::Home => None,
            ActivityType::Work => Some(LocationKind::Workplace),
            ActivityType::Shopping => Some(LocationKind::Shop),
            ActivityType::Other => Some(LocationKind::OtherVenue),
            ActivityType::School => Some(LocationKind::SchoolK12),
            ActivityType::College => Some(LocationKind::CollegeCampus),
            ActivityType::Religion => Some(LocationKind::Church),
        }
    }

    /// Mean persons served per location of this kind, controlling how
    /// many locations a county gets.
    fn persons_per_location(&self) -> f64 {
        match self {
            LocationKind::Workplace => 25.0,
            LocationKind::Shop => 120.0,
            LocationKind::OtherVenue => 150.0,
            LocationKind::SchoolK12 => 450.0,
            LocationKind::CollegeCampus => 4000.0,
            LocationKind::Church => 300.0,
        }
    }
}

/// One activity location.
#[derive(Clone, Debug)]
pub struct Location {
    pub id: LocationId,
    pub kind: LocationKind,
    /// County index within the region.
    pub county: u16,
    pub x: f32,
    pub y: f32,
    /// Relative attractiveness weight (heavy-tailed); larger locations
    /// draw proportionally more visitors.
    pub weight: f32,
}

/// All activity locations of a region, indexed for fast per-county,
/// per-kind sampling.
#[derive(Clone, Debug, Default)]
pub struct LocationModel {
    pub locations: Vec<Location>,
    /// `by_county_kind[county][kind_index]` → location ids.
    index: Vec<[Vec<LocationId>; 6]>,
    /// `prefix[county][kind_index][i]` → f64 sum of the weights of the
    /// first `i + 1` of those locations, accumulated in id order. The
    /// last entry is the total; [`sample`](Self::sample) binary-searches
    /// a draw below it.
    prefix: Vec<[Vec<f64>; 6]>,
}

fn kind_index(k: LocationKind) -> usize {
    match k {
        LocationKind::Workplace => 0,
        LocationKind::Shop => 1,
        LocationKind::OtherVenue => 2,
        LocationKind::SchoolK12 => 3,
        LocationKind::CollegeCampus => 4,
        LocationKind::Church => 5,
    }
}

const ALL_KINDS: [LocationKind; 6] = [
    LocationKind::Workplace,
    LocationKind::Shop,
    LocationKind::OtherVenue,
    LocationKind::SchoolK12,
    LocationKind::CollegeCampus,
    LocationKind::Church,
];

impl LocationModel {
    /// Synthesize locations for a region whose counties have the given
    /// (scaled) person counts. Each county is embedded in its own unit
    /// cell at `(county_index * 2, 0)`, so inter-county distances exceed
    /// intra-county ones.
    pub fn generate<R: Rng + ?Sized>(county_persons: &[usize], rng: &mut R) -> Self {
        let mut locations = Vec::new();
        let mut index: Vec<[Vec<LocationId>; 6]> = Vec::with_capacity(county_persons.len());

        for (county, &persons) in county_persons.iter().enumerate() {
            let mut slot: [Vec<LocationId>; 6] = Default::default();
            for kind in ALL_KINDS {
                // At least one location of each kind per county so every
                // activity can be placed.
                let n = ((persons as f64 / kind.persons_per_location()).ceil() as usize).max(1);
                for _ in 0..n {
                    let id = locations.len() as LocationId;
                    // Zipf-ish weight: u^{-0.5} with u ∈ (0,1] gives a
                    // heavy tail with finite mean.
                    let u: f64 = rng.random_range(0.0f64..1.0).max(1e-9);
                    locations.push(Location {
                        id,
                        kind,
                        county: county as u16,
                        x: county as f32 * 2.0 + rng.random_range(0.0f32..1.0),
                        y: rng.random_range(0.0f32..1.0),
                        weight: u.powf(-0.5) as f32,
                    });
                    slot[kind_index(kind)].push(id);
                }
            }
            index.push(slot);
        }
        let prefix = index
            .iter()
            .map(|slot| {
                slot.each_ref().map(|ids| {
                    ids.iter()
                        .scan(0.0f64, |acc, &id| {
                            *acc += locations[id as usize].weight as f64;
                            Some(*acc)
                        })
                        .collect()
                })
            })
            .collect();
        LocationModel { locations, index, prefix }
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// True when no locations exist.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Location by id.
    pub fn location(&self, id: LocationId) -> &Location {
        &self.locations[id as usize]
    }

    /// Candidate locations of a kind in a county.
    pub fn in_county(&self, county: u16, kind: LocationKind) -> &[LocationId] {
        &self.index[county as usize][kind_index(kind)]
    }

    /// Sample a location of `kind` in `county`, weighted by
    /// attractiveness, in O(log n) over the county's candidates. Falls
    /// back to county 0 if the county is unknown.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        county: u16,
        kind: LocationKind,
        rng: &mut R,
    ) -> LocationId {
        let county = if (county as usize) < self.index.len() { county } else { 0 };
        let ids = self.in_county(county, kind);
        let prefix = &self.prefix[county as usize][kind_index(kind)];
        let total =
            *prefix.last().unwrap_or_else(|| panic!("no {kind:?} locations in county {county}"));
        ids[pick(prefix, rng.random_range(0.0..total))]
    }
}

/// Index of the candidate a draw in `[0, total)` falls on: the first
/// whose running sum exceeds it. A draw that rounds up to the total
/// takes the last candidate.
fn pick(prefix: &[f64], draw: f64) -> usize {
    prefix.partition_point(|&p| p <= draw).min(prefix.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kinds_serve_matching_activities() {
        for kind in ALL_KINDS {
            assert_eq!(LocationKind::for_activity(kind.serves()), Some(kind));
        }
        assert_eq!(LocationKind::for_activity(ActivityType::Home), None);
    }

    #[test]
    fn every_county_gets_every_kind() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LocationModel::generate(&[500, 40, 10_000], &mut rng);
        for county in 0..3u16 {
            for kind in ALL_KINDS {
                assert!(!m.in_county(county, kind).is_empty(), "county {county} missing {kind:?}");
            }
        }
    }

    #[test]
    fn location_counts_scale_with_population() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LocationModel::generate(&[1000, 10_000], &mut rng);
        let small = m.in_county(0, LocationKind::Workplace).len();
        let big = m.in_county(1, LocationKind::Workplace).len();
        assert!(big > small * 5, "workplaces {small} vs {big}");
    }

    #[test]
    fn counties_spatially_separated() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LocationModel::generate(&[100, 100], &mut rng);
        for loc in &m.locations {
            let cell = loc.county as f32 * 2.0;
            assert!(loc.x >= cell && loc.x < cell + 1.0);
        }
    }

    #[test]
    fn sampling_respects_county_and_kind() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = LocationModel::generate(&[2000, 2000], &mut rng);
        for _ in 0..200 {
            let id = m.sample(1, LocationKind::Shop, &mut rng);
            let loc = m.location(id);
            assert_eq!(loc.county, 1);
            assert_eq!(loc.kind, LocationKind::Shop);
        }
    }

    #[test]
    fn sampling_prefers_heavy_locations() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = LocationModel::generate(&[5000], &mut rng);
        let shops = m.in_county(0, LocationKind::Shop);
        assert!(shops.len() >= 2);
        // Empirically: the heaviest shop should be sampled more often
        // than a uniform share.
        let heaviest = *shops
            .iter()
            .max_by(|a, b| m.location(**a).weight.partial_cmp(&m.location(**b).weight).unwrap())
            .unwrap();
        let n = 3000;
        let hits = (0..n).filter(|_| m.sample(0, LocationKind::Shop, &mut rng) == heaviest).count();
        assert!(
            hits as f64 / n as f64 > 1.0 / shops.len() as f64,
            "heaviest sampled {hits}/{n} with {} shops",
            shops.len()
        );
    }

    #[test]
    fn prefix_sums_end_at_the_in_order_total() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = LocationModel::generate(&[9000, 350, 2200, 40], &mut rng);
        for county in 0..4u16 {
            for kind in ALL_KINDS {
                let ids = m.in_county(county, kind);
                let prefix = &m.prefix[county as usize][kind_index(kind)];
                assert_eq!(prefix.len(), ids.len());
                let total = ids.iter().fold(0.0f64, |acc, &id| acc + m.location(id).weight as f64);
                let last = *prefix.last().unwrap();
                assert_eq!(last.to_bits(), total.to_bits(), "county {county} {kind:?}");
                assert!(prefix.windows(2).all(|w| w[0] < w[1]), "county {county} {kind:?}");
            }
        }
    }

    #[test]
    fn draw_frequencies_match_weight_shares() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = LocationModel::generate(&[2400], &mut rng);
        let shops = m.in_county(0, LocationKind::Shop);
        assert_eq!(shops.len(), 20);
        let total: f64 = shops.iter().map(|&id| m.location(id).weight as f64).sum();
        let n = 200_000;
        let mut hits = vec![0usize; m.len()];
        for _ in 0..n {
            hits[m.sample(0, LocationKind::Shop, &mut rng) as usize] += 1;
        }
        for &id in shops {
            let share = m.location(id).weight as f64 / total;
            let freq = hits[id as usize] as f64 / n as f64;
            assert!(
                (freq - share).abs() < 0.01,
                "shop {id}: drawn {freq:.4}, weight share {share:.4}"
            );
        }
    }

    #[test]
    fn a_draw_just_below_the_total_takes_the_last_candidate() {
        let prefix = [1.5, 2.0, 4.25];
        assert_eq!(pick(&prefix, 4.25f64.next_down()), 2);
        assert_eq!(pick(&prefix, 4.25), 2, "a draw rounded up to the total");
        assert_eq!(pick(&prefix, 0.0), 0);
        assert_eq!(pick(&prefix, 1.5), 1, "a running sum itself belongs to the next candidate");
        let mut rng = StdRng::seed_from_u64(9);
        let m = LocationModel::generate(&[700], &mut rng);
        for kind in ALL_KINDS {
            let prefix = &m.prefix[0][kind_index(kind)];
            let below = prefix.last().unwrap().next_down();
            assert_eq!(pick(prefix, below), prefix.len() - 1, "{kind:?}");
        }
    }

    #[test]
    fn unknown_county_falls_back() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = LocationModel::generate(&[100], &mut rng);
        let id = m.sample(42, LocationKind::Church, &mut rng);
        assert_eq!(m.location(id).county, 0);
    }
}

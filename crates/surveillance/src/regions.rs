//! The 51 regions (50 US states + DC) with 2020 populations and county
//! counts, plus the scaling convention mapping real populations to
//! simulated node counts.
//!
//! The paper partitions the US network "across all 50 states and
//! Washington DC" (≈300M nodes, 7.9B edges, 3140 counties). Region sizes
//! drive everything downstream: network sizes (Fig. 6), per-region job
//! sizing (small/medium/large = 2/4/6 nodes, §VI), runtime variance
//! (Fig. 8), and memory footprints (Fig. 10).

/// Index of a region in the [`RegionRegistry`] (0..51).
pub type RegionId = usize;

/// Node-count scale: simulated persons = real population × `factor`.
///
/// The default 1/2000 gives ≈165k simulated persons for the whole US —
/// large enough to show every scaling phenomenon, small enough to sweep
/// nightly-workflow-sized experiments on one machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Multiplicative factor applied to real population counts.
    pub factor: f64,
}

impl Scale {
    /// Scale by `1/denominator`.
    pub fn one_per(denominator: f64) -> Self {
        assert!(denominator > 0.0, "scale denominator must be positive");
        Scale { factor: 1.0 / denominator }
    }

    /// Apply to a real-world count, with a floor of 1.
    pub fn apply(&self, real: u64) -> usize {
        ((real as f64 * self.factor).round() as usize).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::one_per(2000.0)
    }
}

/// Node-count size category used for whole-node job allocation (§VI):
/// small regions get 2 compute nodes, medium 4, large 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SizeCategory {
    Small,
    Medium,
    Large,
}

impl SizeCategory {
    /// Compute nodes allocated per the paper's categorization.
    pub fn compute_nodes(&self) -> usize {
        match self {
            SizeCategory::Small => 2,
            SizeCategory::Medium => 4,
            SizeCategory::Large => 6,
        }
    }
}

/// One of the 51 regions.
#[derive(Clone, Debug)]
pub struct Region {
    pub id: RegionId,
    /// Two-letter postal abbreviation.
    pub abbrev: &'static str,
    pub name: &'static str,
    /// Approximate 2020 census population.
    pub population: u64,
    /// Number of counties (or county-equivalents).
    pub n_counties: usize,
}

/// One county within a region.
#[derive(Clone, Debug)]
pub struct County {
    pub region: RegionId,
    /// Index within the region (0-based).
    pub index: usize,
    /// Synthetic FIPS-like code: `region_id * 1000 + index`.
    pub fips: u32,
    /// Approximate real population assigned to this county.
    pub population: u64,
}

/// (abbrev, name, 2020 population, county count). County counts sum to
/// 3140 (paper: "3140 counties across the USA").
const REGION_TABLE: [(&str, &str, u64, usize); 51] = [
    ("AL", "Alabama", 5_024_279, 67),
    ("AK", "Alaska", 733_391, 28),
    ("AZ", "Arizona", 7_151_502, 15),
    ("AR", "Arkansas", 3_011_524, 75),
    ("CA", "California", 39_538_223, 58),
    ("CO", "Colorado", 5_773_714, 64),
    ("CT", "Connecticut", 3_605_944, 8),
    ("DE", "Delaware", 989_948, 3),
    ("DC", "District of Columbia", 689_545, 1),
    ("FL", "Florida", 21_538_187, 67),
    ("GA", "Georgia", 10_711_908, 159),
    ("HI", "Hawaii", 1_455_271, 5),
    ("ID", "Idaho", 1_839_106, 44),
    ("IL", "Illinois", 12_812_508, 102),
    ("IN", "Indiana", 6_785_528, 92),
    ("IA", "Iowa", 3_190_369, 99),
    ("KS", "Kansas", 2_937_880, 105),
    ("KY", "Kentucky", 4_505_836, 120),
    ("LA", "Louisiana", 4_657_757, 64),
    ("ME", "Maine", 1_362_359, 16),
    ("MD", "Maryland", 6_177_224, 24),
    ("MA", "Massachusetts", 7_029_917, 14),
    ("MI", "Michigan", 10_077_331, 83),
    ("MN", "Minnesota", 5_706_494, 87),
    ("MS", "Mississippi", 2_961_279, 82),
    ("MO", "Missouri", 6_154_913, 115),
    ("MT", "Montana", 1_084_225, 56),
    ("NE", "Nebraska", 1_961_504, 93),
    ("NV", "Nevada", 3_104_614, 17),
    ("NH", "New Hampshire", 1_377_529, 10),
    ("NJ", "New Jersey", 9_288_994, 21),
    ("NM", "New Mexico", 2_117_522, 33),
    ("NY", "New York", 20_201_249, 62),
    ("NC", "North Carolina", 10_439_388, 100),
    ("ND", "North Dakota", 779_094, 53),
    ("OH", "Ohio", 11_799_448, 88),
    ("OK", "Oklahoma", 3_959_353, 77),
    ("OR", "Oregon", 4_237_256, 36),
    ("PA", "Pennsylvania", 13_002_700, 67),
    ("RI", "Rhode Island", 1_097_379, 5),
    ("SC", "South Carolina", 5_118_425, 46),
    ("SD", "South Dakota", 886_667, 65),
    ("TN", "Tennessee", 6_910_840, 95),
    ("TX", "Texas", 29_145_505, 254),
    ("UT", "Utah", 3_271_616, 29),
    ("VT", "Vermont", 643_077, 14),
    ("VA", "Virginia", 8_631_393, 133),
    ("WA", "Washington", 7_705_281, 39),
    ("WV", "West Virginia", 1_793_716, 55),
    ("WI", "Wisconsin", 5_893_718, 72),
    ("WY", "Wyoming", 576_851, 23),
];

/// Registry of all 51 regions and their counties.
#[derive(Clone, Debug)]
pub struct RegionRegistry {
    regions: Vec<Region>,
    counties: Vec<Vec<County>>,
}

impl RegionRegistry {
    /// Build the registry. County populations are a deterministic
    /// power-law split of the state population (rank-size rule,
    /// exponent ≈ 0.75), which reproduces the real skew where a few
    /// metro counties dominate each state.
    pub fn new() -> Self {
        let regions: Vec<Region> = REGION_TABLE
            .iter()
            .enumerate()
            .map(|(id, &(abbrev, name, population, n_counties))| Region {
                id,
                abbrev,
                name,
                population,
                n_counties,
            })
            .collect();

        let counties = regions
            .iter()
            .map(|r| {
                let n = r.n_counties;
                // Rank-size weights w_i = 1 / (i+1)^0.75, normalized.
                let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(0.75)).collect();
                let total: f64 = weights.iter().sum();
                let mut remaining = r.population;
                let mut out = Vec::with_capacity(n);
                for (i, w) in weights.iter().enumerate() {
                    let pop = if i + 1 == n {
                        remaining
                    } else {
                        let p = ((r.population as f64) * w / total).round() as u64;
                        let p = p.min(remaining);
                        remaining -= p;
                        p
                    };
                    out.push(County {
                        region: r.id,
                        index: i,
                        fips: (r.id as u32) * 1000 + i as u32,
                        population: pop,
                    });
                }
                out
            })
            .collect();

        RegionRegistry { regions, counties }
    }

    /// All regions, ordered by id (alphabetical by name).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Region count (always 51).
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Look up a region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id]
    }

    /// Look up by postal abbreviation.
    pub fn by_abbrev(&self, abbrev: &str) -> Option<&Region> {
        self.regions.iter().find(|r| r.abbrev == abbrev)
    }

    /// Counties of a region.
    pub fn counties(&self, id: RegionId) -> &[County] {
        &self.counties[id]
    }

    /// Total county count across all regions.
    pub fn total_counties(&self) -> usize {
        self.counties.iter().map(|c| c.len()).sum()
    }

    /// Total US population.
    pub fn total_population(&self) -> u64 {
        self.regions.iter().map(|r| r.population).sum()
    }

    /// Simulated node count for a region at the given scale.
    pub fn node_count(&self, id: RegionId, scale: Scale) -> usize {
        scale.apply(self.regions[id].population)
    }

    /// The paper's small/medium/large categorization by network size.
    /// Thresholds chosen so the category counts are balanced like the
    /// deployment's: small < 2M people, large > 9M.
    pub fn size_category(&self, id: RegionId) -> SizeCategory {
        let pop = self.regions[id].population;
        if pop < 2_000_000 {
            SizeCategory::Small
        } else if pop <= 9_000_000 {
            SizeCategory::Medium
        } else {
            SizeCategory::Large
        }
    }
}

impl Default for RegionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_51_regions() {
        let reg = RegionRegistry::new();
        assert_eq!(reg.len(), 51);
    }

    #[test]
    fn county_total_is_3140() {
        let reg = RegionRegistry::new();
        assert_eq!(reg.total_counties(), 3140);
    }

    #[test]
    fn county_populations_sum_to_state() {
        let reg = RegionRegistry::new();
        for r in reg.regions() {
            let total: u64 = reg.counties(r.id).iter().map(|c| c.population).sum();
            assert_eq!(total, r.population, "county populations must partition {}", r.abbrev);
        }
    }

    #[test]
    fn counties_are_rank_ordered() {
        let reg = RegionRegistry::new();
        let va = reg.by_abbrev("VA").unwrap();
        let cs = reg.counties(va.id);
        // First county is the biggest (power-law head).
        assert!(cs[0].population > cs[cs.len() - 1].population);
        assert_eq!(cs.len(), 133);
    }

    #[test]
    fn lookup_by_abbrev() {
        let reg = RegionRegistry::new();
        assert_eq!(reg.by_abbrev("CA").unwrap().name, "California");
        assert_eq!(reg.by_abbrev("DC").unwrap().n_counties, 1);
        assert!(reg.by_abbrev("XX").is_none());
    }

    #[test]
    fn total_population_near_us_2020() {
        let reg = RegionRegistry::new();
        let t = reg.total_population();
        // 2020 apportionment population ≈ 331.4M.
        assert!(t > 330_000_000 && t < 333_000_000, "total {t}");
    }

    #[test]
    fn scale_default_gives_compact_networks() {
        let reg = RegionRegistry::new();
        let scale = Scale::default();
        let ca = reg.by_abbrev("CA").unwrap();
        let n = reg.node_count(ca.id, scale);
        assert!((19_000..21_000).contains(&n), "CA nodes {n}");
        // Smallest state still has at least a hamlet.
        let wy = reg.by_abbrev("WY").unwrap();
        assert!(reg.node_count(wy.id, scale) >= 250);
    }

    #[test]
    fn scale_floor_is_one() {
        assert_eq!(Scale::one_per(1e12).apply(5), 1);
    }

    #[test]
    fn size_categories_cover_expected_states() {
        let reg = RegionRegistry::new();
        let cat = |a: &str| reg.size_category(reg.by_abbrev(a).unwrap().id);
        assert_eq!(cat("WY"), SizeCategory::Small);
        assert_eq!(cat("VA"), SizeCategory::Medium);
        assert_eq!(cat("CA"), SizeCategory::Large);
        assert_eq!(cat("TX"), SizeCategory::Large);
        // All three categories are populated.
        let mut counts = [0usize; 3];
        for r in reg.regions() {
            match reg.size_category(r.id) {
                SizeCategory::Small => counts[0] += 1,
                SizeCategory::Medium => counts[1] += 1,
                SizeCategory::Large => counts[2] += 1,
            }
        }
        assert!(counts.iter().all(|&c| c > 5), "category counts {counts:?}");
    }

    #[test]
    fn node_allocation_follows_category() {
        assert_eq!(SizeCategory::Small.compute_nodes(), 2);
        assert_eq!(SizeCategory::Medium.compute_nodes(), 4);
        assert_eq!(SizeCategory::Large.compute_nodes(), 6);
    }

    #[test]
    fn fips_codes_unique() {
        let reg = RegionRegistry::new();
        let mut seen = std::collections::HashSet::new();
        for r in reg.regions() {
            for c in reg.counties(r.id) {
                assert!(seen.insert(c.fips), "duplicate fips {}", c.fips);
            }
        }
        assert_eq!(seen.len(), 3140);
    }
}

//! Persons, demographics, and households.
//!
//! A synthesized person carries the traits the paper lists as the typical
//! US choices: household ID, age and age group, gender, county code, and
//! home coordinates. The five age groups are exactly the Table-III
//! stratification of the CDC disease model.

use epiflow_surveillance::RegionId;

/// Person identifier, unique within one region's population.
pub type PersonId = u32;

/// Household identifier.
pub type HouseholdId = u32;

/// The five CDC age groups of Table III.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AgeGroup {
    /// 0–4 years.
    Preschool,
    /// 5–17 years.
    School,
    /// 18–49 years.
    Adult,
    /// 50–64 years.
    Older,
    /// 65+ years.
    Senior,
}

impl AgeGroup {
    /// Classify an age in years.
    pub fn from_age(age: u8) -> Self {
        match age {
            0..=4 => AgeGroup::Preschool,
            5..=17 => AgeGroup::School,
            18..=49 => AgeGroup::Adult,
            50..=64 => AgeGroup::Older,
            _ => AgeGroup::Senior,
        }
    }

    /// Index 0..5, in Table-III column order.
    pub fn index(&self) -> usize {
        match self {
            AgeGroup::Preschool => 0,
            AgeGroup::School => 1,
            AgeGroup::Adult => 2,
            AgeGroup::Older => 3,
            AgeGroup::Senior => 4,
        }
    }

    /// All five groups in column order.
    pub const ALL: [AgeGroup; 5] =
        [AgeGroup::Preschool, AgeGroup::School, AgeGroup::Adult, AgeGroup::Older, AgeGroup::Senior];

    /// Approximate US population share of each group (ACS-like marginals;
    /// used as IPF targets).
    pub fn us_share(&self) -> f64 {
        match self {
            AgeGroup::Preschool => 0.059,
            AgeGroup::School => 0.163,
            AgeGroup::Adult => 0.424,
            AgeGroup::Older => 0.192,
            AgeGroup::Senior => 0.162,
        }
    }
}

/// Binary gender as in the paper's trait list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gender {
    Female,
    Male,
}

/// One synthetic person.
#[derive(Clone, Debug)]
pub struct Person {
    pub id: PersonId,
    pub household: HouseholdId,
    pub age: u8,
    pub gender: Gender,
    /// County index within the region (0-based).
    pub county: u16,
    /// Home location coordinates (synthetic lat/lon-like plane).
    pub home_x: f32,
    pub home_y: f32,
}

impl Person {
    /// The person's CDC age group.
    pub fn age_group(&self) -> AgeGroup {
        AgeGroup::from_age(self.age)
    }
}

/// A region's synthetic population: the person-trait table that the real
/// system loads into PostgreSQL.
#[derive(Clone, Debug, Default)]
pub struct Population {
    pub region: RegionId,
    pub persons: Vec<Person>,
    /// `households[h]` lists the member person ids of household `h`.
    pub households: Vec<Vec<PersonId>>,
}

impl Population {
    /// Number of persons.
    pub fn len(&self) -> usize {
        self.persons.len()
    }

    /// True when no persons were synthesized.
    pub fn is_empty(&self) -> bool {
        self.persons.is_empty()
    }

    /// Person by id.
    pub fn person(&self, id: PersonId) -> &Person {
        &self.persons[id as usize]
    }

    /// Count of persons per age group, in Table-III order.
    pub fn age_histogram(&self) -> [usize; 5] {
        let mut h = [0usize; 5];
        for p in &self.persons {
            h[p.age_group().index()] += 1;
        }
        h
    }

    /// Count of persons per county.
    pub fn county_histogram(&self, n_counties: usize) -> Vec<usize> {
        let mut h = vec![0usize; n_counties];
        for p in &self.persons {
            h[p.county as usize] += 1;
        }
        h
    }

    /// Mean household size.
    pub fn mean_household_size(&self) -> f64 {
        if self.households.is_empty() {
            return 0.0;
        }
        self.persons.len() as f64 / self.households.len() as f64
    }

    /// Serialize the person-trait table to the CSV format the paper
    /// describes (header + one row per person).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.persons.len() * 48);
        out.push_str("pid,hid,age,age_group,gender,county,home_x,home_y\n");
        for p in &self.persons {
            let g = match p.gender {
                Gender::Female => 'F',
                Gender::Male => 'M',
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.4},{:.4}\n",
                p.id,
                p.household,
                p.age,
                p.age_group().index(),
                g,
                p.county,
                p.home_x,
                p.home_y
            ));
        }
        out
    }

    /// Parse a CSV produced by [`Population::to_csv`].
    ///
    /// Returns an error message for malformed rows. Household membership
    /// lists are rebuilt from the `hid` column.
    pub fn from_csv(region: RegionId, csv: &str) -> Result<Population, String> {
        let mut persons = Vec::new();
        let mut max_hid = 0;
        for (lineno, line) in csv.lines().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 8 {
                return Err(format!("line {}: expected 8 fields, got {}", lineno + 1, f.len()));
            }
            let parse = |s: &str, what: &str| -> Result<u32, String> {
                s.parse().map_err(|_| format!("line {}: bad {what} `{s}`", lineno + 1))
            };
            let id = parse(f[0], "pid")?;
            let household = parse(f[1], "hid")?;
            let age = parse(f[2], "age")? as u8;
            let gender = match f[4] {
                "F" => Gender::Female,
                "M" => Gender::Male,
                other => return Err(format!("line {}: bad gender `{other}`", lineno + 1)),
            };
            let county = parse(f[5], "county")? as u16;
            let home_x: f32 =
                f[6].parse().map_err(|_| format!("line {}: bad home_x", lineno + 1))?;
            let home_y: f32 =
                f[7].parse().map_err(|_| format!("line {}: bad home_y", lineno + 1))?;
            max_hid = max_hid.max(household);
            persons.push(Person { id, household, age, gender, county, home_x, home_y });
        }
        let mut households =
            vec![Vec::new(); (max_hid as usize) + usize::from(!persons.is_empty())];
        for p in &persons {
            households[p.household as usize].push(p.id);
        }
        Ok(Population { region, persons, households })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn age_group_boundaries() {
        assert_eq!(AgeGroup::from_age(0), AgeGroup::Preschool);
        assert_eq!(AgeGroup::from_age(4), AgeGroup::Preschool);
        assert_eq!(AgeGroup::from_age(5), AgeGroup::School);
        assert_eq!(AgeGroup::from_age(17), AgeGroup::School);
        assert_eq!(AgeGroup::from_age(18), AgeGroup::Adult);
        assert_eq!(AgeGroup::from_age(49), AgeGroup::Adult);
        assert_eq!(AgeGroup::from_age(50), AgeGroup::Older);
        assert_eq!(AgeGroup::from_age(64), AgeGroup::Older);
        assert_eq!(AgeGroup::from_age(65), AgeGroup::Senior);
        assert_eq!(AgeGroup::from_age(100), AgeGroup::Senior);
    }

    #[test]
    fn us_shares_sum_to_one() {
        let s: f64 = AgeGroup::ALL.iter().map(|g| g.us_share()).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    fn tiny_population() -> Population {
        Population {
            region: 46,
            persons: vec![
                Person {
                    id: 0,
                    household: 0,
                    age: 34,
                    gender: Gender::Female,
                    county: 0,
                    home_x: 1.5,
                    home_y: 2.5,
                },
                Person {
                    id: 1,
                    household: 0,
                    age: 8,
                    gender: Gender::Male,
                    county: 0,
                    home_x: 1.5,
                    home_y: 2.5,
                },
                Person {
                    id: 2,
                    household: 1,
                    age: 70,
                    gender: Gender::Female,
                    county: 1,
                    home_x: 9.0,
                    home_y: 3.0,
                },
            ],
            households: vec![vec![0, 1], vec![2]],
        }
    }

    #[test]
    fn histograms() {
        let p = tiny_population();
        assert_eq!(p.age_histogram(), [0, 1, 1, 0, 1]);
        assert_eq!(p.county_histogram(2), vec![2, 1]);
        assert!((p.mean_household_size() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip() {
        let p = tiny_population();
        let csv = p.to_csv();
        let q = Population::from_csv(46, &csv).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.person(1).age, 8);
        assert_eq!(q.person(2).gender, Gender::Female);
        assert_eq!(q.households.len(), 2);
        assert_eq!(q.households[0], vec![0, 1]);
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(Population::from_csv(0, "header\n1,2,3\n").is_err());
        assert!(Population::from_csv(0, "header\nx,0,30,2,F,0,1.0,1.0\n").is_err());
        assert!(Population::from_csv(0, "header\n0,0,30,2,Q,0,1.0,1.0\n").is_err());
    }

    #[test]
    fn empty_csv_gives_empty_population() {
        let p = Population::from_csv(0, "header\n").unwrap();
        assert!(p.is_empty());
        assert_eq!(p.mean_household_size(), 0.0);
    }
}

//! Weekly activity sequences.
//!
//! Each person gets a week-long sequence of typed activities with start
//! times and durations (paper: fused from NHTS/ATUS/MTUS survey data,
//! matched with Fitted Values Matching for adults and CART for children).
//! We reproduce the *structure*: a small library of empirically shaped
//! weekly templates, assigned by a CART-like decision tree over
//! demographics, with per-person jitter so no two schedules are
//! identical.

use crate::person::Person;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activity types; the seven contexts the paper's edges carry
/// (home, work, shopping, other, school, college, religion).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityType {
    Home,
    Work,
    Shopping,
    Other,
    School,
    College,
    Religion,
}

impl ActivityType {
    /// All seven types.
    pub const ALL: [ActivityType; 7] = [
        ActivityType::Home,
        ActivityType::Work,
        ActivityType::Shopping,
        ActivityType::Other,
        ActivityType::School,
        ActivityType::College,
        ActivityType::Religion,
    ];

    /// Stable small integer code (used in network serialization).
    pub fn code(&self) -> u8 {
        match self {
            ActivityType::Home => 0,
            ActivityType::Work => 1,
            ActivityType::Shopping => 2,
            ActivityType::Other => 3,
            ActivityType::School => 4,
            ActivityType::College => 5,
            ActivityType::Religion => 6,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(c: u8) -> Option<ActivityType> {
        Self::ALL.get(c as usize).copied()
    }
}

/// One activity instance: a day-of-week, start time, and duration
/// (both in minutes from midnight).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Activity {
    pub kind: ActivityType,
    /// Day of week, 0 = Monday … 6 = Sunday.
    pub day: u8,
    /// Start minute within the day [0, 1440).
    pub start: u16,
    /// Duration in minutes; activities never cross midnight in this model.
    pub duration: u16,
}

impl Activity {
    /// End minute (exclusive), capped at midnight.
    pub fn end(&self) -> u16 {
        (self.start as u32 + self.duration as u32).min(1440) as u16
    }

    /// Overlap in minutes with another activity on the same day.
    pub fn overlap(&self, other: &Activity) -> u16 {
        if self.day != other.day {
            return 0;
        }
        let lo = self.start.max(other.start);
        let hi = self.end().min(other.end());
        hi.saturating_sub(lo)
    }
}

/// A person's week of non-home activities (home fills the gaps and is
/// handled by household cliques in the network model).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WeeklyPattern {
    pub activities: Vec<Activity>,
}

/// The person archetypes the CART-like tree maps demographics onto.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Archetype {
    Preschooler,
    Student,
    CollegeStudent,
    FullTimeWorker,
    PartTimeWorker,
    HomeMaker,
    Retiree,
}

/// CART-like assignment: a shallow decision tree on age plus a random
/// split for employment status and college attendance, mirroring the
/// paper's FVM/CART split (adults matched by fitted values, children by
/// classification tree).
pub fn assign_archetype<R: Rng + ?Sized>(person: &Person, rng: &mut R) -> Archetype {
    match person.age {
        0..=4 => Archetype::Preschooler,
        5..=17 => Archetype::Student,
        18..=22 => {
            if rng.random_bool(0.45) {
                Archetype::CollegeStudent
            } else if rng.random_bool(0.8) {
                Archetype::FullTimeWorker
            } else {
                Archetype::PartTimeWorker
            }
        }
        23..=64 => {
            let r: f64 = rng.random_range(0.0..1.0);
            if r < 0.62 {
                Archetype::FullTimeWorker
            } else if r < 0.80 {
                Archetype::PartTimeWorker
            } else {
                Archetype::HomeMaker
            }
        }
        _ => {
            if rng.random_bool(0.12) {
                Archetype::PartTimeWorker
            } else {
                Archetype::Retiree
            }
        }
    }
}

/// Build a jittered weekly pattern for an archetype.
///
/// Weekdays carry the anchor activity (work/school), everyone mixes in
/// shopping/other errands, and a fraction attends a weekend religious
/// service — giving the network all seven edge contexts.
pub fn weekly_pattern<R: Rng + ?Sized>(archetype: Archetype, rng: &mut R) -> WeeklyPattern {
    let mut acts = Vec::new();
    let jig = |rng: &mut R, base: i32, spread: i32| -> u16 {
        (base + rng.random_range(-spread..=spread)).clamp(0, 1439) as u16
    };

    match archetype {
        Archetype::Preschooler => {
            // Occasional daycare-like "school" 3 days a week.
            for day in [0u8, 2, 4] {
                if rng.random_bool(0.6) {
                    acts.push(Activity {
                        kind: ActivityType::School,
                        day,
                        start: jig(rng, 9 * 60, 30),
                        duration: 4 * 60,
                    });
                }
            }
        }
        Archetype::Student => {
            for day in 0..5u8 {
                acts.push(Activity {
                    kind: ActivityType::School,
                    day,
                    start: jig(rng, 8 * 60, 20),
                    duration: (6 * 60 + rng.random_range(0..60)) as u16,
                });
            }
        }
        Archetype::CollegeStudent => {
            for day in 0..5u8 {
                acts.push(Activity {
                    kind: ActivityType::College,
                    day,
                    start: jig(rng, 10 * 60, 60),
                    duration: (4 * 60 + rng.random_range(0..120)) as u16,
                });
            }
            if rng.random_bool(0.5) {
                acts.push(Activity {
                    kind: ActivityType::Work,
                    day: 5,
                    start: jig(rng, 12 * 60, 60),
                    duration: 5 * 60,
                });
            }
        }
        Archetype::FullTimeWorker => {
            for day in 0..5u8 {
                acts.push(Activity {
                    kind: ActivityType::Work,
                    day,
                    start: jig(rng, 9 * 60, 45),
                    duration: (8 * 60 + rng.random_range(0..60)) as u16,
                });
            }
        }
        Archetype::PartTimeWorker => {
            for day in [0u8, 1, 3] {
                acts.push(Activity {
                    kind: ActivityType::Work,
                    day,
                    start: jig(rng, 10 * 60, 90),
                    duration: (4 * 60 + rng.random_range(0..90)) as u16,
                });
            }
        }
        Archetype::HomeMaker | Archetype::Retiree => {
            // Errand-heavy schedule, no anchor.
        }
    }

    // Shopping: 1–3 trips a week for everyone over 4.
    if archetype != Archetype::Preschooler {
        let trips = rng.random_range(1..=3);
        for _ in 0..trips {
            acts.push(Activity {
                kind: ActivityType::Shopping,
                day: rng.random_range(0..7),
                start: jig(rng, 17 * 60, 120),
                duration: (30 + rng.random_range(0..60)) as u16,
            });
        }
    }
    // Other (social/recreation): 0–2 a week.
    for _ in 0..rng.random_range(0..=2) {
        acts.push(Activity {
            kind: ActivityType::Other,
            day: rng.random_range(0..7),
            start: jig(rng, 18 * 60, 90),
            duration: (60 + rng.random_range(0..90)) as u16,
        });
    }
    // Religion: ~35% attend a Sunday service.
    if rng.random_bool(0.35) {
        acts.push(Activity {
            kind: ActivityType::Religion,
            day: 6,
            start: jig(rng, 10 * 60, 30),
            duration: 90,
        });
    }

    WeeklyPattern { activities: acts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::Gender;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn person(age: u8) -> Person {
        Person {
            id: 0,
            household: 0,
            age,
            gender: Gender::Female,
            county: 0,
            home_x: 0.0,
            home_y: 0.0,
        }
    }

    #[test]
    fn activity_type_codes_round_trip() {
        for t in ActivityType::ALL {
            assert_eq!(ActivityType::from_code(t.code()), Some(t));
        }
        assert_eq!(ActivityType::from_code(7), None);
    }

    #[test]
    fn overlap_math() {
        let a = Activity { kind: ActivityType::Work, day: 2, start: 540, duration: 480 };
        let b = Activity { kind: ActivityType::Work, day: 2, start: 600, duration: 120 };
        assert_eq!(a.overlap(&b), 120);
        assert_eq!(b.overlap(&a), 120);
        let c = Activity { kind: ActivityType::Work, day: 3, start: 600, duration: 120 };
        assert_eq!(a.overlap(&c), 0);
        let d = Activity { kind: ActivityType::Work, day: 2, start: 1020, duration: 60 };
        assert_eq!(a.overlap(&d), 0, "back-to-back activities do not overlap");
    }

    #[test]
    fn end_caps_at_midnight() {
        let a = Activity { kind: ActivityType::Other, day: 0, start: 1400, duration: 100 };
        assert_eq!(a.end(), 1440);
    }

    #[test]
    fn archetypes_respect_age() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(assign_archetype(&person(3), &mut rng), Archetype::Preschooler);
        assert_eq!(assign_archetype(&person(12), &mut rng), Archetype::Student);
        for _ in 0..50 {
            let a = assign_archetype(&person(30), &mut rng);
            assert!(matches!(
                a,
                Archetype::FullTimeWorker | Archetype::PartTimeWorker | Archetype::HomeMaker
            ));
            let a = assign_archetype(&person(75), &mut rng);
            assert!(matches!(a, Archetype::Retiree | Archetype::PartTimeWorker));
        }
    }

    #[test]
    fn students_go_to_school_five_days() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = weekly_pattern(Archetype::Student, &mut rng);
        let school_days: std::collections::HashSet<u8> =
            p.activities.iter().filter(|a| a.kind == ActivityType::School).map(|a| a.day).collect();
        assert_eq!(school_days.len(), 5);
    }

    #[test]
    fn workers_work_weekdays_only() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = weekly_pattern(Archetype::FullTimeWorker, &mut rng);
        for a in p.activities.iter().filter(|a| a.kind == ActivityType::Work) {
            assert!(a.day < 5);
            assert!(a.duration >= 8 * 60);
        }
    }

    #[test]
    fn all_contexts_reachable() {
        // Across many draws, every activity type should appear somewhere.
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            for arch in [
                Archetype::Preschooler,
                Archetype::Student,
                Archetype::CollegeStudent,
                Archetype::FullTimeWorker,
                Archetype::PartTimeWorker,
                Archetype::Retiree,
            ] {
                for a in weekly_pattern(arch, &mut rng).activities {
                    seen.insert(a.kind);
                }
            }
        }
        // Home is implicit (household cliques), so expect the other six.
        for t in ActivityType::ALL.iter().filter(|t| **t != ActivityType::Home) {
            assert!(seen.contains(t), "never generated {t:?}");
        }
    }

    #[test]
    fn patterns_fit_inside_days() {
        let mut rng = StdRng::seed_from_u64(5);
        for arch in [Archetype::Student, Archetype::FullTimeWorker, Archetype::CollegeStudent] {
            for _ in 0..100 {
                let p = weekly_pattern(arch, &mut rng);
                for a in &p.activities {
                    assert!(a.start < 1440);
                    assert!(a.day < 7);
                    assert!(a.end() <= 1440);
                }
            }
        }
    }
}

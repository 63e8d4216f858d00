//! Write-ahead journal of step completions.
//!
//! The engine appends one [`JournalEntry`] per *completed* step — the
//! timeline event it produced and the effect it had on cycle state —
//! before moving on. A cycle interrupted at any point can be resumed
//! from the journal: completed steps are replayed by applying their
//! recorded effects (no re-execution), and the run continues from the
//! first missing step. Because all fault draws are stateless (see
//! [`crate::faults`]), the resumed run's final report is byte-identical
//! to the report an uninterrupted run would have produced.
//!
//! The journal has one on-disk format: append-friendly JSON lines, one
//! commit record per line, via `to_jsonl` and `from_jsonl`/
//! `recover_jsonl`. That is how a real deployment persists it between
//! the 10 pm kickoff and an operator restart. On-disk writes go through
//! [`Journal::save_atomic`] (temp file + fsync + rename) or the
//! incremental [`JournalWriter`] (one fsynced line per commit record),
//! so a crash can tear at most the trailing line — which
//! [`Journal::recover_jsonl`] drops, exactly as if the step had never
//! committed.

use crate::breaker::ResourceCall;
use crate::engine::{DroppedCell, TimelineEvent};
use crate::step::StepId;
use epiflow_hpcsim::cluster::Site;
use epiflow_hpcsim::globus::Transfer;
use epiflow_hpcsim::slurm::{ResumePoint, SlurmStats};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// The state delta a completed step contributed, sufficient to replay
/// the step without re-executing it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum StepEffect {
    /// No state beyond the timeline event (fixed-duration steps).
    None,
    /// A completed transfer, appended to the cycle ledger.
    Transfer { transfer: Transfer },
    /// Database snapshots instantiated; per-region concurrent-task
    /// bounds (shrunk by any exhaustion faults) feed the execute step.
    DbRestore { startup_secs: f64, bounds: Vec<(usize, usize)> },
    /// The night's Slurm execution: stats, output volumes, any cells
    /// shed to protect the deadline, and the site it ultimately ran on
    /// (differs from the spec's site after a cross-cluster failover —
    /// downstream collect/transfer steps re-plan from this on resume).
    Execution {
        slurm: SlurmStats,
        raw_output_bytes: u64,
        summary_bytes: u64,
        dropped: Vec<DroppedCell>,
        site: Site,
    },
    /// Post-simulation aggregation time.
    Collect { agg_secs: f64 },
}

/// One completed step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    pub step: StepId,
    /// Attempts the step took (1 = first try succeeded).
    pub attempts: u32,
    /// Seconds lost to failed attempts (excluding backoff waits).
    pub wasted_secs: f64,
    pub event: TimelineEvent,
    pub effect: StepEffect,
    /// Calls the step made to breaker-guarded resources, in order.
    /// Resume replays these into the breakers so breaker state at the
    /// first live step matches the uninterrupted run.
    #[serde(default)]
    pub calls: Vec<ResourceCall>,
    /// Site the step was failed over to, if the failover policy moved
    /// it off its planned site.
    #[serde(default)]
    pub failover: Option<Site>,
    /// Speculative duplicate attempts the hedging policy launched.
    #[serde(default)]
    pub hedges: u32,
    /// Calls re-routed to the alternate resource because a breaker was
    /// open (fallback link, standby database).
    #[serde(default)]
    pub reroutes: u32,
    /// Snapshot lineage for the step's execution: each preemption that
    /// retained a tick-level checkpoint, with the tick the requeued
    /// attempt resumed from. Empty for non-execute steps and whenever
    /// checkpointing is disabled.
    #[serde(default)]
    pub snapshots: Vec<ResumePoint>,
}

/// The write-ahead journal: completions in execution order. It is
/// persisted only as JSON lines ([`Journal::to_jsonl`]), one
/// [`JournalEntry`] per line, so it has no serde impl of its own.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Journal {
    pub entries: Vec<JournalEntry>,
}

impl Journal {
    /// The journal as it stood after the first `n` completions — what a
    /// crash at that point would have left on disk.
    pub fn prefix(&self, n: usize) -> Journal {
        Journal { entries: self.entries[..n.min(self.entries.len())].to_vec() }
    }

    /// One JSON object per line, one line per commit record — the
    /// on-disk append format ([`JournalWriter`] produces the same
    /// bytes incrementally).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&serde_json::to_string(e).expect("entry serializes infallibly"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSON-lines journal, rejecting any malformed line.
    pub fn from_jsonl(s: &str) -> Result<Self, serde_json::Error> {
        let mut entries = Vec::new();
        for line in s.lines() {
            if line.trim().is_empty() {
                continue;
            }
            entries.push(serde_json::from_str(line)?);
        }
        Ok(Journal { entries })
    }

    /// Crash recovery: parse every intact line and report whether a torn
    /// trailing record was dropped. Because [`JournalWriter`] fsyncs each
    /// complete line before the step is considered committed, a tear can
    /// only be the final record mid-write; dropping it leaves the journal
    /// exactly as if the crash had hit one step earlier, which resume
    /// already handles. A malformed line *before* an intact one means
    /// real corruption, and that is still an error.
    pub fn recover_jsonl(s: &str) -> Result<(Self, bool), serde_json::Error> {
        let lines: Vec<&str> = s.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut entries = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match serde_json::from_str(line) {
                Ok(e) => entries.push(e),
                Err(_) if i + 1 == lines.len() => return Ok((Journal { entries }, true)),
                Err(err) => return Err(err),
            }
        }
        Ok((Journal { entries }, false))
    }

    /// Persist atomically: write a temp file alongside `path`, fsync it,
    /// then rename over the destination (and fsync the directory so the
    /// rename itself survives power loss). Readers never observe a
    /// half-written journal.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(self.to_jsonl().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                File::open(dir)?.sync_all()?;
            }
        }
        Ok(())
    }
}

/// Incremental write-ahead persistence: append one fsynced JSON line
/// per commit record. The fsync *before* returning is the write-ahead
/// guarantee — a step only counts as committed once its record is
/// durable, so recovery sees either the whole record or (for a tear
/// mid-line during the crash itself) a trailing fragment that
/// [`Journal::recover_jsonl`] drops.
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Create (truncating) the journal file, durably: the empty file is
    /// fsynced and so is its parent directory, so the journal's
    /// directory entry survives a crash between creation and the first
    /// commit. (`save_atomic` already fsyncs the directory after its
    /// rename; without this, the incremental path's first commit could
    /// be fsynced into a file that power loss then unlinks.)
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        file.sync_all()?;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                File::open(dir)?.sync_all()?;
            }
        }
        Ok(JournalWriter { file })
    }

    /// Durably append one commit record.
    pub fn commit(&mut self, entry: &JournalEntry) -> io::Result<()> {
        let mut line = serde_json::to_string(entry).expect("entry serializes infallibly");
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::Resource;

    fn entry(step: StepId) -> JournalEntry {
        JournalEntry {
            step,
            attempts: 1,
            wasted_secs: 0.0,
            event: TimelineEvent {
                label: format!("step {step}"),
                site: Site::Remote,
                start_secs: step as f64,
                duration_secs: 1.0,
                automated: true,
            },
            effect: StepEffect::None,
            calls: Vec::new(),
            failover: None,
            hedges: 0,
            reroutes: 0,
            snapshots: Vec::new(),
        }
    }

    #[test]
    fn journal_round_trips_through_jsonl() {
        let journal = Journal {
            entries: vec![JournalEntry {
                step: 1,
                attempts: 3,
                wasted_secs: 41.5,
                event: TimelineEvent {
                    label: "Globus: configs home → remote".into(),
                    site: Site::Home,
                    start_secs: 7200.0,
                    duration_secs: 123.456,
                    automated: false,
                },
                effect: StepEffect::Transfer {
                    transfer: Transfer {
                        from: Site::Home,
                        to: Site::Remote,
                        bytes: 4_590_000_000,
                        label: "daily configs".into(),
                        start_secs: 7241.5,
                        duration_secs: 123.456,
                    },
                },
                calls: vec![
                    ResourceCall {
                        resource: Resource::GlobusLink,
                        at_secs: 7200.0,
                        success: false,
                    },
                    ResourceCall { resource: Resource::GlobusLink, at_secs: 7241.5, success: true },
                ],
                failover: Some(Site::Home),
                hedges: 1,
                reroutes: 2,
                snapshots: vec![
                    ResumePoint { task: 3, tick: 48 },
                    ResumePoint { task: 3, tick: 112 },
                ],
            }],
        };
        let jsonl = journal.to_jsonl();
        let back = Journal::from_jsonl(&jsonl).expect("parse own journal");
        assert_eq!(back, journal);
    }

    #[test]
    fn prefix_truncates() {
        let mut journal = Journal::default();
        for step in 0..4 {
            journal.entries.push(entry(step));
        }
        assert_eq!(journal.prefix(2).entries.len(), 2);
        assert_eq!(journal.prefix(99), journal);
    }

    #[test]
    fn jsonl_round_trips() {
        let journal = Journal { entries: (0..3).map(entry).collect() };
        let jsonl = journal.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3, "one line per commit record");
        let back = Journal::from_jsonl(&jsonl).expect("parse own jsonl");
        assert_eq!(back, journal);
        let (recovered, torn) = Journal::recover_jsonl(&jsonl).expect("recover intact jsonl");
        assert_eq!(recovered, journal);
        assert!(!torn);
    }

    #[test]
    fn recovery_drops_torn_trailing_record() {
        let journal = Journal { entries: (0..3).map(entry).collect() };
        let jsonl = journal.to_jsonl();
        // Crash mid-write of the final record: keep the first two lines
        // plus half of the third.
        let split = jsonl.lines().take(2).map(|l| l.len() + 1).sum::<usize>();
        let torn_text = &jsonl[..split + jsonl.lines().nth(2).unwrap().len() / 2];
        let (recovered, torn) = Journal::recover_jsonl(torn_text).expect("recover torn jsonl");
        assert!(torn);
        assert_eq!(recovered, journal.prefix(2));
        // …but a torn line in the *middle* is corruption, not a tear.
        let mut lines: Vec<String> = jsonl.lines().map(String::from).collect();
        let half = lines[1].len() / 2;
        lines[1].truncate(half);
        assert!(Journal::recover_jsonl(&lines.join("\n")).is_err());
        // Strict parsing refuses torn journals outright.
        assert!(Journal::from_jsonl(torn_text).is_err());
    }

    #[test]
    fn recovery_survives_deeply_nested_garbage() {
        let journal = Journal { entries: (0..2).map(entry).collect() };
        let jsonl = journal.to_jsonl();
        let deep = "[".repeat(200_000);
        // A deeply nested torn last line is a tear like any other…
        let (recovered, torn) =
            Journal::recover_jsonl(&format!("{jsonl}{deep}")).expect("recover torn jsonl");
        assert!(torn);
        assert_eq!(recovered, journal);
        // …before an intact line it is corruption…
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.insert(1, &deep);
        assert!(Journal::recover_jsonl(&lines.join("\n")).is_err());
        // …and the strict reader rejects it without blowing the stack.
        assert!(Journal::from_jsonl(&deep).is_err());
    }

    #[test]
    fn writer_bytes_match_to_jsonl_and_atomic_save_round_trips() {
        let journal = Journal { entries: (0..3).map(entry).collect() };
        let dir = std::env::temp_dir().join(format!("epiflow-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inc = dir.join("incremental.jsonl");
        let mut w = JournalWriter::create(&inc).unwrap();
        for e in &journal.entries {
            w.commit(e).unwrap();
        }
        drop(w);
        assert_eq!(std::fs::read_to_string(&inc).unwrap(), journal.to_jsonl());
        let atomic = dir.join("atomic.jsonl");
        journal.save_atomic(&atomic).unwrap();
        let (back, torn) =
            Journal::recover_jsonl(&std::fs::read_to_string(&atomic).unwrap()).unwrap();
        assert_eq!(back, journal);
        assert!(!torn);
        assert!(!atomic.with_extension("tmp").exists(), "temp file renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_without_resilience_fields_still_parses() {
        // A PR-1-era record has no calls/failover/hedges/reroutes keys;
        // `#[serde(default)]` must fill them in.
        let line = concat!(
            r#"{"step":0,"attempts":1,"wasted_secs":0.0,"#,
            r#""event":{"label":"step 0","site":"Remote","start_secs":0.0,"#,
            r#""duration_secs":1.0,"automated":true},"effect":{"type":"none"}}"#,
        );
        let journal = Journal::from_jsonl(line).expect("legacy record parses");
        assert_eq!(journal.entries.len(), 1);
        assert_eq!(journal.entries[0], entry(0));
    }

    #[test]
    fn ckpt_writer_create_is_durable_and_tolerates_bare_paths() {
        // Regression for the create-durability fix: creation in a fresh
        // directory must succeed (file + parent-dir fsync path), and a
        // parentless relative path must not error on the directory
        // fsync (the empty-parent guard).
        let dir = std::env::temp_dir().join(format!("epiflow-jwriter-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let nested = dir.join("night.jsonl");
        let mut w = JournalWriter::create(&nested).expect("create with parent dir");
        w.commit(&entry(0)).unwrap();
        drop(w);
        let (back, torn) =
            Journal::recover_jsonl(&std::fs::read_to_string(&nested).unwrap()).unwrap();
        assert!(!torn);
        assert_eq!(back.entries, vec![entry(0)]);
        // Re-creating truncates, as before the fix.
        let w2 = JournalWriter::create(&nested).expect("re-create truncates");
        drop(w2);
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ckpt_snapshot_lineage_round_trips_and_defaults() {
        let mut e = entry(2);
        e.snapshots = vec![ResumePoint { task: 0, tick: 16 }, ResumePoint { task: 4, tick: 32 }];
        let journal = Journal { entries: vec![e.clone()] };
        let back = Journal::from_jsonl(&journal.to_jsonl()).expect("lineage round-trips");
        assert_eq!(back.entries[0].snapshots, e.snapshots);
        // Pre-checkpoint records carry no snapshots key.
        let line = concat!(
            r#"{"step":2,"attempts":1,"wasted_secs":0.0,"#,
            r#""event":{"label":"step 2","site":"Remote","start_secs":2.0,"#,
            r#""duration_secs":1.0,"automated":true},"effect":{"type":"none"}}"#,
        );
        let old = Journal::from_jsonl(line).expect("pre-checkpoint record parses");
        assert!(old.entries[0].snapshots.is_empty());
    }
}

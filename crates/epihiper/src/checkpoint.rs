//! Tick-level checkpoint/restart (the robustness primitive OSPREY and
//! the RESUME workshop report call out as missing for epidemic
//! workflows on shared HPC).
//!
//! A [`SimSnapshot`] captures everything a [`crate::Simulation`] needs
//! to resume byte-identically: the authoritative [`SimState`], the
//! [`TickBuckets`](crate::frontier::TickBuckets) progression queues in
//! a partition-agnostic form, intervention trigger state, and the
//! mid-run continuation ([`RunCarry`]: output series, last tick's
//! transitions, cumulative counts, telemetry). Deliberately *absent*:
//!
//! * frontier/pressure structures (`ActiveSet`, infectious-neighbor
//!   counts, occupancy) — derived data, rebuilt from the restored state
//!   by [`crate::Simulation::resume_with_context`] in O(V + E);
//! * RNG state — the engine's RNG is counter-based, keyed by
//!   `(seed, node, tick)`, so its "position" is fully determined by the
//!   tick the resume starts at.
//!
//! The wire format is deliberately boring: a one-line text header, then
//! one checksummed section per component (`meta`, `state`, `queues`,
//! `interventions`, `carry`), each an FNV-1a-64-guarded binary payload
//! of fixed-width little-endian fields and length-prefixed columns
//! (`ByteWriter`/`ByteReader`). Per-section checksums localise
//! damage — a flipped byte names the section it hit — and a truncated
//! file fails structurally ([`SnapshotError::Torn`]) before any payload
//! is trusted. Every length and element count read from the input is
//! bounds-checked against the bytes actually left before it is used to
//! slice or allocate, so hostile input is an error value, never a panic
//! or an allocation abort.
//!
//! [`SnapshotChain`] layers the torn-write story on top: two A/B slots
//! written alternately, so the previous snapshot is never overwritten
//! in place. A corrupted or torn newest slot is detected on load,
//! surfaced as a [`SnapshotEvent::SnapshotCorrupt`], and recovery falls
//! back to the older sibling — losing one checkpoint interval, not the
//! run. Load never panics on hostile bytes.

use crate::engine::{EngineStats, RunCarry};
use crate::output::{SimOutput, TransitionRecord};
use crate::state::SimState;
use std::ops::Range;

/// Current snapshot format version (the `v2` of the header line).
/// Version 1 carried JSON payloads; it is rejected, not translated.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Magic token opening every snapshot.
const MAGIC: &str = "EPIHIPERSNAP";

/// FNV-1a 64-bit hash — the per-section checksum. Not cryptographic;
/// it detects the bit flips and truncations fault injection produces.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Snapshot identity and compatibility gate: a resume is refused unless
/// these match the simulation being rebuilt.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotMeta {
    /// Format version ([`SNAPSHOT_VERSION`] at write time).
    pub version: u32,
    /// First tick the resumed run will execute.
    pub next_tick: u32,
    /// Replicate seed (keys every RNG stream).
    pub seed: u64,
    /// Node count of the network the snapshot belongs to.
    pub n_nodes: u64,
    /// Health-state count of the disease model.
    pub n_states: u32,
    /// Whether the run keeps the full transition log.
    pub record_transitions: bool,
}

/// A complete, versioned simulation snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSnapshot {
    pub meta: SnapshotMeta,
    /// The authoritative mutable state (health, schedules, edge bits,
    /// flags, variables, memory-model counters).
    pub state: SimState,
    /// Progression queues: `(tick, nodes)` sorted by tick, nodes sorted
    /// with duplicates preserved, independent of partition count.
    pub queues: Vec<(u32, Vec<u32>)>,
    /// Per-intervention `(name, trigger state)` in execution order.
    pub interventions: Vec<(String, Option<String>)>,
    /// Mid-run continuation (`None` for a tick-0 snapshot).
    pub carry: Option<RunCarry>,
}

/// Why a snapshot failed to load or apply. Every variant is a normal
/// error value — corrupt input never panics.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// Structurally unreadable: truncated, bad header, missing section.
    Torn(String),
    /// A section's checksum did not match its payload.
    Corrupt { section: String },
    /// Unsupported format version.
    Version(u32),
    /// The snapshot does not belong to the simulation being resumed.
    Mismatch(String),
    /// Every slot of a [`SnapshotChain`] failed to load.
    NoValidSnapshot,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Torn(why) => write!(f, "torn snapshot: {why}"),
            SnapshotError::Corrupt { section } => {
                write!(f, "snapshot section `{section}` failed its checksum")
            }
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Mismatch(why) => write!(f, "snapshot/simulation mismatch: {why}"),
            SnapshotError::NoValidSnapshot => write!(f, "no valid snapshot in either slot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---- binary payload codec -------------------------------------------

/// A value the payload codec stores as fixed-width little-endian bytes
/// (floats by their bit pattern, so every value round-trips exactly).
pub(crate) trait Fixed: Copy {
    /// Encoded size in bytes.
    const WIDTH: usize;
    fn put(self, out: &mut Vec<u8>);
    /// Decode from exactly [`Fixed::WIDTH`] bytes (the reader slices
    /// them, so the length is an invariant, not an input).
    fn from_le_slice(bytes: &[u8]) -> Self;
}

macro_rules! fixed_int {
    ($($t:ty),*) => {$(
        impl Fixed for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn from_le_slice(bytes: &[u8]) -> Self {
                let mut raw = [0; std::mem::size_of::<$t>()];
                raw.copy_from_slice(bytes);
                <$t>::from_le_bytes(raw)
            }
        }
    )*};
}
fixed_int!(u8, u16, u32, u64);

macro_rules! fixed_float {
    ($($t:ty => $bits:ty),*) => {$(
        impl Fixed for $t {
            const WIDTH: usize = <$bits as Fixed>::WIDTH;
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                self.to_bits().put(out);
            }
            #[inline]
            fn from_le_slice(bytes: &[u8]) -> Self {
                <$t>::from_bits(<$bits>::from_le_slice(bytes))
            }
        }
    )*};
}
fixed_float!(f32 => u32, f64 => u64);

/// Appends one section payload: fixed-width fields, `u64` element
/// counts, and length-prefixed runs of raw values.
#[derive(Default)]
pub(crate) struct ByteWriter {
    out: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn put<T: Fixed>(&mut self, x: T) {
        x.put(&mut self.out);
    }

    pub(crate) fn put_bool(&mut self, b: bool) {
        self.put(b as u8);
    }

    /// An element count (always `u64`, whatever the host's `usize`).
    fn put_len(&mut self, n: usize) {
        self.put(n as u64);
    }

    /// A column: its length, then every value back to back.
    pub(crate) fn put_column<T: Fixed>(&mut self, xs: &[T]) {
        self.put_len(xs.len());
        self.out.reserve(xs.len() * T::WIDTH);
        for &x in xs {
            x.put(&mut self.out);
        }
    }

    /// A UTF-8 string: its byte length, then the bytes.
    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    /// A presence byte (0 or 1), then the value if present.
    fn put_option<T>(&mut self, x: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.put_bool(x.is_some());
        if let Some(x) = x {
            put(self, x);
        }
    }

    /// A sequence of composite elements: the count, then each element.
    pub(crate) fn put_seq<T>(&mut self, xs: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.put_len(xs.len());
        for x in xs {
            put(self, x);
        }
    }
}

/// Reads one section payload written by [`ByteWriter`]. Every read is
/// bounds-checked, and every element count is checked against the
/// bytes left *before* anything is allocated for it, so a hostile
/// count is a [`SnapshotError::Torn`], never a panic or an OOM abort.
pub(crate) struct ByteReader<'a> {
    section: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(section: &'a str, bytes: &'a [u8]) -> Self {
        ByteReader { section, bytes, pos: 0 }
    }

    /// A structural error at the current position of this section.
    pub(crate) fn invalid(&self, why: impl std::fmt::Display) -> SnapshotError {
        SnapshotError::Torn(format!("section `{}` at byte {}: {why}", self.section, self.pos))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let taken = self.pos.checked_add(n).and_then(|end| self.bytes.get(self.pos..end));
        let taken = taken
            .ok_or_else(|| self.invalid(format!("{n} bytes needed, {} left", self.remaining())))?;
        self.pos += n;
        Ok(taken)
    }

    pub(crate) fn get<T: Fixed>(&mut self) -> Result<T, SnapshotError> {
        self.take(T::WIDTH).map(T::from_le_slice)
    }

    /// A strict boolean: 0 or 1, anything else is an error.
    pub(crate) fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.invalid(format!("flag byte {b} is neither 0 nor 1"))),
        }
    }

    /// An element count, checked to fit: `count` elements of at least
    /// `min_width` bytes each must fit in what is left of the section.
    fn len(&mut self, min_width: usize) -> Result<usize, SnapshotError> {
        let count = self.get::<u64>()?;
        usize::try_from(count)
            .ok()
            .filter(|&n| n.checked_mul(min_width.max(1)).is_some_and(|b| b <= self.remaining()))
            .ok_or_else(|| {
                self.invalid(format!("count {count} overruns the {} bytes left", self.remaining()))
            })
    }

    /// A column written by [`ByteWriter::put_column`].
    pub(crate) fn column<T: Fixed>(&mut self) -> Result<Vec<T>, SnapshotError> {
        let n = self.len(T::WIDTH)?;
        Ok(self.take(n * T::WIDTH)?.chunks_exact(T::WIDTH).map(T::from_le_slice).collect())
    }

    /// A string written by [`ByteWriter::put_str`].
    pub(crate) fn string(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let raw = self.take(n)?;
        std::str::from_utf8(raw).map(str::to_owned).map_err(|_| self.invalid("non-UTF-8 string"))
    }

    /// An optional value written by [`ByteWriter::put_option`].
    fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        if self.bool()? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A sequence written by [`ByteWriter::put_seq`] whose elements
    /// each encode to at least `min_width` bytes.
    pub(crate) fn seq<T>(
        &mut self,
        min_width: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.len(min_width)?;
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            xs.push(read(self)?);
        }
        Ok(xs)
    }

    /// Decode the whole payload with `read`, rejecting trailing bytes.
    fn read_all<T>(
        mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let value = read(&mut self)?;
        match self.remaining() {
            0 => Ok(value),
            left => Err(self.invalid(format!("{left} trailing bytes"))),
        }
    }
}

impl SnapshotMeta {
    fn encode_into(&self, w: &mut ByteWriter) {
        let SnapshotMeta { version, next_tick, seed, n_nodes, n_states, record_transitions } = self;
        w.put(*version);
        w.put(*next_tick);
        w.put(*seed);
        w.put(*n_nodes);
        w.put(*n_states);
        w.put_bool(*record_transitions);
    }

    fn decode_from(r: &mut ByteReader) -> Result<Self, SnapshotError> {
        Ok(SnapshotMeta {
            version: r.get()?,
            next_tick: r.get()?,
            seed: r.get()?,
            n_nodes: r.get()?,
            n_states: r.get()?,
            record_transitions: r.bool()?,
        })
    }
}

/// Encoded size of a [`TransitionRecord`] without a cause.
const TRANSITION_MIN_WIDTH: usize = 4 + 4 + 2 + 1;

fn put_transitions(w: &mut ByteWriter, records: &[TransitionRecord]) {
    w.put_seq(records, |w, t| {
        w.put(t.tick);
        w.put(t.person);
        w.put(t.state);
        w.put_option(t.cause, ByteWriter::put);
    });
}

fn read_transitions(r: &mut ByteReader) -> Result<Vec<TransitionRecord>, SnapshotError> {
    r.seq(TRANSITION_MIN_WIDTH, |r| {
        Ok(TransitionRecord {
            tick: r.get()?,
            person: r.get()?,
            state: r.get()?,
            cause: r.option(ByteReader::get)?,
        })
    })
}

/// Per-tick rows (`new_counts`, `current_counts`): one column each.
fn put_rows(w: &mut ByteWriter, rows: &[Vec<u32>]) {
    w.put_seq(rows, |w, row| w.put_column(row));
}

fn read_rows(r: &mut ByteReader) -> Result<Vec<Vec<u32>>, SnapshotError> {
    r.seq(8, ByteReader::column)
}

impl RunCarry {
    fn encode_into(&self, w: &mut ByteWriter) {
        let RunCarry { output, recent, cum_transitions, stats } = self;
        let SimOutput {
            transitions,
            new_counts,
            current_counts,
            county_new,
            memory_bytes,
            requested_seeds,
            seeded,
        } = output;
        put_transitions(w, transitions);
        put_rows(w, new_counts);
        put_rows(w, current_counts);
        w.put_seq(county_new, |w, counties| put_rows(w, counties));
        w.put_column(memory_bytes);
        w.put(*requested_seeds);
        w.put(*seeded);
        put_transitions(w, recent);
        w.put(*cum_transitions);
        let EngineStats { frontier_nodes, due_nodes, edges_scanned, events } = stats;
        w.put_column(frontier_nodes);
        w.put_column(due_nodes);
        w.put_column(edges_scanned);
        w.put_column(events);
    }

    fn decode_from(r: &mut ByteReader) -> Result<Self, SnapshotError> {
        let output = SimOutput {
            transitions: read_transitions(r)?,
            new_counts: read_rows(r)?,
            current_counts: read_rows(r)?,
            county_new: r.seq(8, read_rows)?,
            memory_bytes: r.column()?,
            requested_seeds: r.get()?,
            seeded: r.get()?,
        };
        Ok(RunCarry {
            output,
            recent: read_transitions(r)?,
            cum_transitions: r.get()?,
            stats: EngineStats {
                frontier_nodes: r.column()?,
                due_nodes: r.column()?,
                edges_scanned: r.column()?,
                events: r.column()?,
            },
        })
    }
}

/// One section located by [`scan_sections`]: name, payload byte range,
/// and the checksum the header claims for it.
struct SectionRef {
    name: String,
    payload: Range<usize>,
    claimed_hash: u64,
}

/// Read one `\n`-terminated line starting at `pos`, returning the line
/// (without the newline) and the position after it.
fn read_line(bytes: &[u8], pos: usize) -> Result<(&str, usize), SnapshotError> {
    let rest = bytes.get(pos..).ok_or_else(|| SnapshotError::Torn("past end of data".into()))?;
    let nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| SnapshotError::Torn("unterminated header line".into()))?;
    let line = std::str::from_utf8(&rest[..nl])
        .map_err(|_| SnapshotError::Torn("non-UTF-8 header line".into()))?;
    Ok((line, pos + nl + 1))
}

/// Parse the header line: the format version, the section count, and
/// where the first section line starts.
fn read_header(bytes: &[u8]) -> Result<(u32, usize, usize), SnapshotError> {
    let (header, pos) = read_line(bytes, 0)?;
    let mut tokens = header.split(' ');
    let magic = tokens.next().unwrap_or("");
    if magic != MAGIC {
        return Err(SnapshotError::Torn(format!("bad magic `{magic}`")));
    }
    let version: u32 = tokens
        .next()
        .and_then(|t| t.strip_prefix('v'))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| SnapshotError::Torn("bad version token".into()))?;
    let n_sections: usize = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| SnapshotError::Torn("bad section count".into()))?;
    Ok((version, n_sections, pos))
}

/// Structurally parse the section table without verifying checksums.
/// Every claimed length is bounds-checked before it is used.
fn scan_sections(
    bytes: &[u8],
    n_sections: usize,
    mut pos: usize,
) -> Result<Vec<SectionRef>, SnapshotError> {
    // No `with_capacity(n_sections)`: the count is untrusted input.
    let mut sections = Vec::new();
    for _ in 0..n_sections {
        let (line, after) = read_line(bytes, pos)?;
        let mut t = line.split(' ');
        let name = t.next().unwrap_or("").to_string();
        let len: usize = t
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| SnapshotError::Torn(format!("bad length in section `{name}`")))?;
        let claimed_hash = t
            .next()
            .and_then(|x| u64::from_str_radix(x, 16).ok())
            .ok_or_else(|| SnapshotError::Torn(format!("bad checksum in section `{name}`")))?;
        // The payload must end inside the file, followed by a newline.
        let end = after
            .checked_add(len)
            .filter(|&end| bytes.get(end) == Some(&b'\n'))
            .ok_or_else(|| SnapshotError::Torn(format!("section `{name}` truncated")))?;
        pos = end + 1;
        sections.push(SectionRef { name, payload: after..end, claimed_hash });
    }
    Ok(sections)
}

/// Payload byte ranges per section, in file order — the hook the
/// corruption tests use to flip a byte inside each checksummed region.
pub fn section_ranges(bytes: &[u8]) -> Result<Vec<(String, Range<usize>)>, SnapshotError> {
    let (_, n_sections, pos) = read_header(bytes)?;
    let sections = scan_sections(bytes, n_sections, pos)?;
    Ok(sections.into_iter().map(|s| (s.name, s.payload)).collect())
}

/// Assemble the wire format from named payloads: the header line, then
/// per section a `name length checksum` line, the payload, and `\n`.
fn seal(sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
    let mut out = format!("{MAGIC} v{SNAPSHOT_VERSION} {}\n", sections.len()).into_bytes();
    out.reserve(sections.iter().map(|(_, p)| p.len() + 64).sum());
    for (name, payload) in sections {
        out.extend_from_slice(
            format!("{name} {} {:016x}\n", payload.len(), fnv1a(payload)).as_bytes(),
        );
        out.extend_from_slice(payload);
        out.push(b'\n');
    }
    out
}

/// Encode one section payload with `put`.
fn payload(put: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::default();
    put(&mut w);
    w.out
}

impl SimSnapshot {
    /// Serialize to the checksummed wire format. Deterministic: equal
    /// snapshots encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        seal(&[
            ("meta", payload(|w| self.meta.encode_into(w))),
            ("state", payload(|w| self.state.encode_into(w))),
            (
                "queues",
                payload(|w| {
                    w.put_seq(&self.queues, |w, (tick, nodes)| {
                        w.put(*tick);
                        w.put_column(nodes);
                    })
                }),
            ),
            (
                "interventions",
                payload(|w| {
                    w.put_seq(&self.interventions, |w, (name, state)| {
                        w.put_str(name);
                        w.put_option(state.as_deref(), ByteWriter::put_str);
                    })
                }),
            ),
            ("carry", payload(|w| w.put_option(self.carry.as_ref(), |w, c| c.encode_into(w)))),
        ])
    }

    /// Parse and verify the wire format. The version is checked first,
    /// then every section's checksum before any payload is decoded;
    /// damage is reported as [`SnapshotError::Corrupt`] naming the
    /// section it hit, structural damage as [`SnapshotError::Torn`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (version, n_sections, pos) = read_header(bytes)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(version));
        }
        let sections = scan_sections(bytes, n_sections, pos)?;
        let mut payloads: Vec<(&str, &[u8])> = Vec::with_capacity(sections.len());
        for s in &sections {
            let payload = bytes
                .get(s.payload.clone())
                .ok_or_else(|| SnapshotError::Torn(format!("section `{}` truncated", s.name)))?;
            if fnv1a(payload) != s.claimed_hash {
                return Err(SnapshotError::Corrupt { section: s.name.clone() });
            }
            payloads.push((&s.name, payload));
        }
        let open = |name: &'static str| {
            payloads
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, payload)| ByteReader::new(name, payload))
                .ok_or_else(|| SnapshotError::Torn(format!("missing section `{name}`")))
        };
        let meta = open("meta")?.read_all(SnapshotMeta::decode_from)?;
        let state = open("state")?.read_all(SimState::decode_from)?;
        let queues = open("queues")?.read_all(|r| r.seq(4 + 8, |r| Ok((r.get()?, r.column()?))))?;
        let interventions = open("interventions")?
            .read_all(|r| r.seq(8 + 1, |r| Ok((r.string()?, r.option(ByteReader::string)?))))?;
        let carry = open("carry")?.read_all(|r| r.option(RunCarry::decode_from))?;
        Ok(SimSnapshot { meta, state, queues, interventions, carry })
    }
}

/// Observable snapshot-chain activity, for tests and workflow logs.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotEvent {
    /// A snapshot was written into `slot`.
    Wrote { slot: usize, seq: u64, bytes: usize },
    /// A slot failed to load during recovery.
    SnapshotCorrupt { slot: usize, seq: u64, error: String },
    /// Recovery skipped a bad newer slot and used an older one.
    FellBack { slot: usize, seq: u64 },
}

/// One occupied chain slot.
#[derive(Clone, Debug)]
struct Slot {
    seq: u64,
    bytes: Vec<u8>,
}

/// A two-slot A/B snapshot chain: writes alternate between slots, so
/// the previous snapshot is never overwritten in place and a torn or
/// corrupted write costs one checkpoint interval, not the run. Slots
/// are in-memory byte buffers standing in for the two on-disk files —
/// the fault hooks ([`SnapshotChain::corrupt_slot`],
/// [`SnapshotChain::tear_slot`]) model exactly the damage a crashed or
/// interrupted writer leaves behind.
#[derive(Clone, Debug, Default)]
pub struct SnapshotChain {
    slots: [Option<Slot>; 2],
    seq: u64,
    /// Chain activity log (writes, corruption detections, fallbacks).
    pub events: Vec<SnapshotEvent>,
}

impl SnapshotChain {
    /// Empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sequence number of the most recent write (0 = never written).
    pub fn latest_seq(&self) -> u64 {
        self.seq
    }

    /// Encode `snapshot` into the next A/B slot.
    pub fn write(&mut self, snapshot: &SimSnapshot) {
        self.seq += 1;
        let slot = (self.seq % 2) as usize;
        let bytes = snapshot.encode();
        self.events.push(SnapshotEvent::Wrote { slot, seq: self.seq, bytes: bytes.len() });
        self.slots[slot] = Some(Slot { seq: self.seq, bytes });
    }

    /// Fault hook: flip one byte of a slot (bit-rot / partial write).
    pub fn corrupt_slot(&mut self, slot: usize, offset: usize) {
        if let Some(s) = &mut self.slots[slot] {
            if let Some(b) = s.bytes.get_mut(offset) {
                *b ^= 0x40;
            }
        }
    }

    /// Fault hook: truncate a slot to `keep` bytes (torn write).
    pub fn tear_slot(&mut self, slot: usize, keep: usize) {
        if let Some(s) = &mut self.slots[slot] {
            s.bytes.truncate(keep);
        }
    }

    /// Raw bytes of a slot (for external corruption tests).
    pub fn slot_bytes(&self, slot: usize) -> Option<&[u8]> {
        self.slots[slot].as_ref().map(|s| s.bytes.as_slice())
    }

    /// Load the newest valid snapshot: slots are tried newest-first;
    /// a slot that fails to decode is reported via
    /// [`SnapshotEvent::SnapshotCorrupt`] and recovery falls back to
    /// its sibling. Never panics; [`SnapshotError::NoValidSnapshot`]
    /// when both slots are missing or bad.
    pub fn load(&mut self) -> Result<SimSnapshot, SnapshotError> {
        let mut order: Vec<usize> = (0..2).filter(|&i| self.slots[i].is_some()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.slots[i].as_ref().map(|s| s.seq)));
        let mut fell_back = false;
        for slot in order {
            let s = self.slots[slot].as_ref().expect("occupied slot");
            let seq = s.seq;
            match SimSnapshot::decode(&s.bytes) {
                Ok(snap) => {
                    if fell_back {
                        self.events.push(SnapshotEvent::FellBack { slot, seq });
                    }
                    return Ok(snap);
                }
                Err(e) => {
                    self.events.push(SnapshotEvent::SnapshotCorrupt {
                        slot,
                        seq,
                        error: e.to_string(),
                    });
                    fell_back = true;
                }
            }
        }
        Err(SnapshotError::NoValidSnapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disease::sir_model;
    use crate::engine::{SimConfig, SimContext, Simulation};
    use crate::interventions::InterventionSet;
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::{ActivityType, ContactNetwork};
    use proptest::prelude::*;

    fn small_net(n: u32) -> ContactNetwork {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push(ContactEdge {
                    u,
                    v,
                    start: 480,
                    duration: 480,
                    ctx_u: ActivityType::Work,
                    ctx_v: ActivityType::Work,
                    weight: 1.0,
                });
            }
        }
        ContactNetwork { n_nodes: n as usize, edges }
    }

    /// An SIR simulation on `small_net(20)` (age group 2, county 0
    /// everywhere).
    fn small_sim(cfg: SimConfig) -> Simulation {
        let ctx = SimContext::build(
            &small_net(20),
            vec![2; 20],
            vec![0; 20],
            cfg.n_partitions,
            cfg.epsilon,
        );
        Simulation::new_with_context(
            std::sync::Arc::new(ctx),
            sir_model(1.5, 5.0),
            InterventionSet::default(),
            cfg,
        )
    }

    fn snapshot_after(ticks: u32) -> SimSnapshot {
        let mut sim =
            small_sim(SimConfig { ticks, seed: 11, initial_infections: 3, ..Default::default() });
        sim.run();
        sim.snapshot()
    }

    /// A snapshot that fills every section: a variable, a triggered
    /// intervention state, and the transition log in the carry.
    fn rich_snapshot() -> SimSnapshot {
        let mut sim = small_sim(SimConfig {
            ticks: 6,
            seed: 11,
            initial_infections: 3,
            record_transitions: true,
            ..Default::default()
        });
        sim.run();
        let mut snap = sim.snapshot();
        snap.state.set_variable("beta_scale", 0.75);
        snap.state.set_variable("alert", 1.0);
        snap.interventions =
            vec![("sh".into(), None), ("trace".into(), Some("{\"fired\":[2]}".into()))];
        assert!(!snap.queues.is_empty(), "progressions are queued");
        snap
    }

    /// Re-assemble `bytes` after `edit` rewrites section payloads, with
    /// fresh checksums — so the payload decoder itself sees the damage.
    fn reseal(bytes: &[u8], mut edit: impl FnMut(&str, &mut Vec<u8>)) -> Vec<u8> {
        let ranges = section_ranges(bytes).unwrap();
        let sections: Vec<(&str, Vec<u8>)> = ranges
            .iter()
            .map(|(name, range)| {
                let mut payload = bytes[range.clone()].to_vec();
                edit(name, &mut payload);
                (name.as_str(), payload)
            })
            .collect();
        seal(&sections)
    }

    #[test]
    fn ckpt_encode_decode_round_trips() {
        let snap = snapshot_after(10);
        assert_eq!(snap.meta.next_tick, 10);
        let bytes = snap.encode();
        let back = SimSnapshot::decode(&bytes).expect("clean bytes decode");
        assert_eq!(back, snap);
        // Encoding is deterministic (checksummable byte-for-byte).
        assert_eq!(snap.encode(), bytes);
    }

    #[test]
    fn ckpt_every_section_is_checksum_guarded() {
        let snap = snapshot_after(8);
        let bytes = snap.encode();
        let ranges = section_ranges(&bytes).unwrap();
        let names: Vec<&str> = ranges.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["meta", "state", "queues", "interventions", "carry"]);
        for (name, range) in &ranges {
            if range.is_empty() {
                continue;
            }
            // Flip one byte in the middle of the section's payload.
            let mut bad = bytes.clone();
            let mid = range.start + range.len() / 2;
            bad[mid] ^= 0x40;
            match SimSnapshot::decode(&bad) {
                Err(SnapshotError::Corrupt { section }) => {
                    assert_eq!(&section, name, "corruption attributed to the wrong section")
                }
                other => panic!("flipped byte in `{name}` gave {other:?}"),
            }
        }
    }

    #[test]
    fn ckpt_truncation_is_torn_not_panic() {
        let snap = snapshot_after(5);
        let bytes = snap.encode();
        // Every strict prefix must fail cleanly (never panic, never
        // succeed).
        for keep in 0..bytes.len() {
            let res = SimSnapshot::decode(&bytes[..keep]);
            assert!(res.is_err(), "prefix of {keep} bytes decoded");
        }
        // And garbage is rejected structurally.
        assert!(matches!(SimSnapshot::decode(b"not a snapshot\n"), Err(SnapshotError::Torn(_))));
    }

    #[test]
    fn ckpt_version_gate() {
        let snap = snapshot_after(3);
        let mut bytes = snap.encode();
        // Rewrite the header's version token (header is line one): a
        // version-1 (JSON payload) file is refused by version, before
        // any of its sections is read.
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = String::from_utf8(bytes[..header_end].to_vec()).unwrap();
        let old = header.replace(&format!("v{SNAPSHOT_VERSION}"), "v1");
        bytes.splice(..header_end, old.into_bytes());
        assert_eq!(SimSnapshot::decode(&bytes), Err(SnapshotError::Version(1)));
    }

    #[test]
    fn ckpt_hostile_section_length_is_torn_not_panic() {
        // A section length that overflows `usize` arithmetic, and one
        // that merely runs past the end of the file.
        for len in [u64::MAX, u64::MAX - 40, 1 << 40] {
            let bytes = format!("EPIHIPERSNAP v{SNAPSHOT_VERSION} 1\nmeta {len} 0\n");
            assert!(
                matches!(SimSnapshot::decode(bytes.as_bytes()), Err(SnapshotError::Torn(_))),
                "length {len}"
            );
            assert!(section_ranges(bytes.as_bytes()).is_err());
        }
        // A hostile section count allocates nothing up front.
        let bytes = format!("EPIHIPERSNAP v{SNAPSHOT_VERSION} {}\n", usize::MAX);
        assert!(matches!(SimSnapshot::decode(bytes.as_bytes()), Err(SnapshotError::Torn(_))));

        // A chain whose newest slot carries such a header falls back.
        let older = snapshot_after(4);
        let mut chain = SnapshotChain::new();
        chain.write(&older);
        chain.write(&snapshot_after(8));
        let newest = chain.slots[0].as_mut().expect("seq 2 lives in slot 0");
        newest.bytes =
            format!("EPIHIPERSNAP v{SNAPSHOT_VERSION} 1\nmeta {} 0\n", u64::MAX).into_bytes();
        assert_eq!(chain.load(), Ok(older));
        assert!(chain
            .events
            .iter()
            .any(|e| matches!(e, SnapshotEvent::SnapshotCorrupt { slot: 0, seq: 2, .. })));
        assert!(chain.events.iter().any(|e| matches!(e, SnapshotEvent::FellBack { slot: 1, .. })));
    }

    #[test]
    fn ckpt_hostile_element_count_is_torn_not_panic() {
        let bytes = rich_snapshot().encode();
        // The first 8 bytes of `state` are the `health` column length.
        for count in [u64::MAX, u64::MAX / 2 + 1, 1 << 40] {
            let resealed = reseal(&bytes, |name, payload| {
                if name == "state" {
                    payload[..8].copy_from_slice(&count.to_le_bytes());
                }
            });
            match SimSnapshot::decode(&resealed) {
                Err(SnapshotError::Torn(why)) => assert!(why.contains("state"), "{why}"),
                other => panic!("count {count} gave {other:?}"),
            }
        }
    }

    #[test]
    fn ckpt_chain_falls_back_to_older_slot() {
        let older = snapshot_after(4);
        let newer = snapshot_after(8);
        let mut chain = SnapshotChain::new();
        chain.write(&older);
        chain.write(&newer);
        assert_eq!(chain.latest_seq(), 2);

        // Clean chain loads the newest.
        assert_eq!(chain.load().unwrap().meta.next_tick, 8);

        // Corrupt the newest slot (seq 2 lives in slot 0): load
        // detects it, surfaces the event, and falls back to seq 1.
        let newest_len = chain.slot_bytes(0).unwrap().len();
        chain.corrupt_slot(0, newest_len / 2);
        let recovered = chain.load().expect("older sibling is intact");
        assert_eq!(recovered.meta.next_tick, 4);
        assert!(chain
            .events
            .iter()
            .any(|e| matches!(e, SnapshotEvent::SnapshotCorrupt { slot: 0, seq: 2, .. })));
        assert!(chain
            .events
            .iter()
            .any(|e| matches!(e, SnapshotEvent::FellBack { slot: 1, seq: 1 })));
    }

    #[test]
    fn ckpt_chain_torn_write_and_total_loss() {
        let snap = snapshot_after(6);
        let mut chain = SnapshotChain::new();
        chain.write(&snap);
        // Tear the only slot mid-file: recovery has nothing left.
        let len = chain.slot_bytes(1).unwrap().len();
        chain.tear_slot(1, len / 3);
        assert_eq!(chain.load(), Err(SnapshotError::NoValidSnapshot));

        // A later good write recovers the chain.
        chain.write(&snap);
        assert!(chain.load().is_ok());
    }

    /// The section whose payload holds byte `offset`, if any (header
    /// lines and payload-closing newlines belong to none).
    fn section_at(ranges: &[(String, Range<usize>)], offset: usize) -> Option<&str> {
        ranges.iter().find(|(_, r)| r.contains(&offset)).map(|(n, _)| n.as_str())
    }

    /// A hostile 64-bit value: all ones, just past `usize` halves, a
    /// near miss of `real`, or anything at all.
    fn hostile(kind: u8, raw: u64, real: u64) -> u64 {
        match kind {
            0 => u64::MAX - raw % 64,
            1 => (1 << 63) + raw % 64,
            2 => real.wrapping_add(raw % 17).wrapping_sub(8),
            _ => raw,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random byte flips never panic. When every damaged byte lies
        /// inside section payloads, the first damaged section in file
        /// order is named as `Corrupt`; damage to the header lines
        /// fails, or leaves nothing the decoder reads changed (a hex
        /// checksum digit flipped to its other case).
        #[test]
        fn ckpt_fuzz_byte_flips_name_the_section(
            flips in prop::collection::vec((any::<u64>(), 1u8..=255), 1..4),
        ) {
            let snap = rich_snapshot();
            let bytes = snap.encode();
            let ranges = section_ranges(&bytes).unwrap();
            let mut bad = bytes.clone();
            for &(at, mask) in &flips {
                bad[at as usize % bytes.len()] ^= mask;
            }
            let damaged: Vec<usize> = (0..bytes.len()).filter(|&i| bad[i] != bytes[i]).collect();
            prop_assume!(!damaged.is_empty());
            let res = SimSnapshot::decode(&bad);
            let hit: Vec<Option<&str>> = damaged.iter().map(|&i| section_at(&ranges, i)).collect();
            if hit.iter().all(Option::is_some) {
                let first = hit[0].unwrap().to_string();
                prop_assert_eq!(res, Err(SnapshotError::Corrupt { section: first }));
            } else {
                prop_assert!(res.as_ref().map_or(true, |s| *s == snap), "{res:?}");
            }
        }

        /// Truncations and splices never panic: every strict prefix is
        /// an error, and a splice that changed the bytes fails or (like
        /// a checksum digit changing case) decodes to the original.
        #[test]
        fn ckpt_fuzz_truncations_and_splices(
            cut in any::<u64>(),
            at in any::<u64>(),
            remove in 0usize..48,
            insert in prop::collection::vec(any::<u8>(), 0..16),
        ) {
            let snap = rich_snapshot();
            let bytes = snap.encode();
            let keep = cut as usize % bytes.len();
            prop_assert!(SimSnapshot::decode(&bytes[..keep]).is_err(), "prefix {keep} decoded");
            let at = at as usize % bytes.len();
            let mut spliced = bytes.clone();
            spliced.splice(at..(at + remove).min(bytes.len()), insert);
            prop_assume!(spliced != bytes);
            let res = SimSnapshot::decode(&spliced);
            prop_assert!(res.as_ref().map_or(true, |s| *s == snap), "splice at {at}: {res:?}");
        }

        /// Rewriting a section line's length with a hostile value never
        /// panics and never decodes.
        #[test]
        fn ckpt_fuzz_header_lengths(which in 0usize..5, kind in 0u8..4, raw in any::<u64>()) {
            let bytes = rich_snapshot().encode();
            let ranges = section_ranges(&bytes).unwrap();
            let (name, range) = &ranges[which];
            let real = range.len() as u64;
            let len = hostile(kind, raw, real);
            prop_assume!(len != real);
            // The section line ends right before the payload.
            let line_start =
                bytes[..range.start - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
            let line = std::str::from_utf8(&bytes[line_start..range.start - 1]).unwrap();
            let hash = line.rsplit(' ').next().unwrap();
            let mut bad = bytes[..line_start].to_vec();
            bad.extend_from_slice(format!("{name} {len} {hash}\n").as_bytes());
            bad.extend_from_slice(&bytes[range.start..]);
            prop_assert!(SimSnapshot::decode(&bad).is_err(), "length {len} for `{name}` decoded");
        }

        /// Rewrites behind fresh checksums reach the payload decoder: an
        /// 8-byte window overwritten with a hostile value (an element
        /// count, wherever it lands on one) plus random flips never
        /// panics or exhausts memory, and whatever still decodes
        /// re-encodes to exactly the bytes read — the decoder accepts
        /// only canonical encodings.
        #[test]
        fn ckpt_fuzz_resealed_payloads(
            which in 0usize..5,
            at in any::<u64>(),
            kind in 0u8..4,
            raw in any::<u64>(),
            flips in prop::collection::vec((any::<u64>(), any::<u8>()), 0..3),
        ) {
            let bytes = rich_snapshot().encode();
            let target = ["meta", "state", "queues", "interventions", "carry"][which];
            let bad = reseal(&bytes, |name, payload| {
                if name != target || payload.len() < 8 {
                    return;
                }
                let at = at as usize % (payload.len() - 7);
                let real = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                payload[at..at + 8].copy_from_slice(&hostile(kind, raw, real).to_le_bytes());
                let len = payload.len();
                for &(i, mask) in &flips {
                    payload[i as usize % len] ^= mask;
                }
            });
            match SimSnapshot::decode(&bad) {
                Ok(decoded) => prop_assert!(decoded.encode() == bad, "non-canonical accept"),
                Err(e) => prop_assert!(matches!(e, SnapshotError::Torn(_)), "{e:?}"),
            }
        }
    }

    #[test]
    fn ckpt_error_display_is_informative() {
        let errs = [
            SnapshotError::Torn("x".into()),
            SnapshotError::Corrupt { section: "state".into() },
            SnapshotError::Version(9),
            SnapshotError::Mismatch("seed".into()),
            SnapshotError::NoValidSnapshot,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

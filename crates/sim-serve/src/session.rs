//! Per-tenant replay sessions: roster fan-out, incremental stats, and
//! crash-safe append-only snapshots.
//!
//! A session owns one cache engine per roster policy and streams every
//! ingested access through all of them, fanned across the global worker
//! pool (each policy is an independent deterministic machine, so parallel
//! fan-out is bit-identical to a sequential loop). Cumulative stats are
//! cut into [`Delta`]s every `delta_every` accesses.
//!
//! # Engines by the dispatch rule
//!
//! Each roster policy gets its engine by the rule every whole-stream
//! replay uses (`mem_model::replay_dispatch`): a policy whose
//! [`slice_kernel`](sim_core::ReplacementPolicy::slice_kernel) accepts
//! the geometry runs on a resumable [`SlicedCache`], which feeds each
//! batch through the bit-sliced kernel loop; every other policy keeps a
//! [`SetAssocCache`]. Both end bit-identical to a plain `SetAssocCache`
//! replay, and [`reference_delta`] stays that plain loop, so it remains
//! the independent oracle. [`Session::sliced_policies`] reports the
//! split.
//!
//! # Snapshot model: an append-only journal
//!
//! Policies are deliberately opaque (`Box<dyn ReplacementPolicy>` with no
//! serialization surface), so a snapshot does not try to freeze engine
//! state. Instead it records the session *inputs*: the config plus the
//! access journal. Restoring replays the journal through freshly built
//! engines — determinism then guarantees the restored session is
//! **bit-identical** to the one that was killed, at the cost of replay
//! time and journal memory. That trade is the right one for a what-if
//! analysis daemon: correctness is observable, and the journal doubles as
//! the tenant's captured trace.
//!
//! A snapshot file (`PLRUSSN2`, all integers little-endian) is a CRC'd
//! header followed by CRC-framed segments of the journal:
//!
//! ```text
//! header:  magic "PLRUSSN2" | meta_len u32 | meta | meta_crc u32
//!          meta = version u32 | tenant | kv u8 | size u64 | ways u32
//!                 | line u32 | delta_every u64 | roster (u16 count, names)
//! segment: first u64 | count u32 | delta_seq u64 | head_crc u32
//!          | count × 21-byte records (the `traces` record layout)
//!          | records_crc u32
//! ```
//!
//! `first` is the journal index of the segment's first record, so the
//! segments of a file are contiguous; `delta_seq` is the delta sequence
//! number when the segment was written. Persisting is **first full, then
//! append** ([`Session::persist`]): a session's first snapshot after it
//! is created or restored replaces the file with the header plus one
//! segment through [`sim_core::persist::atomic_write`]; every later
//! snapshot appends one segment holding only the accesses since the
//! previous one through [`sim_core::persist::append_at`], and writes
//! nothing at all when there are none (a write of more than `u32::MAX`
//! records is split into several segments). Each journal byte therefore
//! reaches the disk once. A failed append is retried as a full rewrite,
//! with the usual retry-and-backoff; a disk that keeps failing degrades
//! the session to ephemeral.
//!
//! A crash during an append leaves the previous segments intact followed
//! by a torn or CRC-bad final segment. [`Session::restore`] drops such a
//! final segment and restores to the previous segment boundary; the
//! client resumes from the restored count and re-sends the rest. Damage
//! anywhere earlier (the meta block, a segment header, the records of any
//! segment but the last) is a typed [`SnapshotError`]: what follows it
//! cannot be trusted. [`Session::snapshot_bytes`] returns the compacted
//! image (header plus one segment) in the same format.

use crate::kv;
use crate::protocol::{put_str, put_u16, put_u32, put_u64};
use crate::protocol::{Cursor, Delta, GeometrySpec, KvOp, PolicyRow, ProtoError};
use sim_core::persist;
use sim_core::{
    pool, Access, CacheGeometry, CacheStats, PolicyFactory, SetAssocCache, SlicedCache,
};
use std::error::Error;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;
use traces::format::{decode_record, encode_record, Crc32, RECORD_BYTES};

/// Snapshot file magic (the `.ssn` sibling of the `PLRUTRC1` container).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PLRUSSN2";

/// Snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Magic of the retired whole-journal format, refused as
/// [`SnapshotError::BadVersion`]`(1)`.
const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"PLRUSSN1";

/// Bytes of a segment header: first u64 | count u32 | delta_seq u64 |
/// head_crc u32.
const SEGMENT_HEAD: usize = 24;

/// Bytes a segment adds around its records: the header plus the records
/// CRC.
pub const SEGMENT_FRAMING: usize = SEGMENT_HEAD + 4;

/// Backoff schedule used between snapshot write retries; the harness
/// passes `pipeline::retry_backoff` so the daemon shares the pipeline's
/// tunable (`SIM_RETRY_BASE_MS`) schedule.
pub type BackoffFn = fn(u64) -> Duration;

/// A named-policy registry: the roster a server can evaluate.
pub type Roster = Vec<(String, PolicyFactory)>;

/// A compact default roster for in-crate tests and embedded use. The
/// harness `serve` binary passes its full 12-policy roster instead.
pub fn default_roster() -> Roster {
    use sim_core::policy::factory;
    let entries: Vec<(&str, PolicyFactory)> = vec![
        ("LRU", factory(|g| Box::new(baselines::TrueLru::new(g)))),
        (
            "PseudoLRU",
            factory(|g| Box::new(gippr::PlruPolicy::new(g))),
        ),
        ("FIFO", factory(|g| Box::new(baselines::FifoPolicy::new(g)))),
        (
            "SRRIP",
            factory(|g| Box::new(baselines::SrripPolicy::new(g))),
        ),
        (
            "WI-GIPPR",
            factory(|g| {
                Box::new(
                    gippr::GipprPolicy::with_name(g, gippr::vectors::wi_gippr(), "WI-GIPPR")
                        .expect("16-way IPV fits 16-way geometry"),
                )
            }),
        ),
    ];
    entries
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect()
}

/// Why a session could not be opened.
#[derive(Debug)]
pub enum SessionError {
    /// The requested geometry is not a valid cache shape.
    BadGeometry(String),
    /// A requested policy name is not in the server roster.
    UnknownPolicy(String),
    /// A policy factory rejected (panicked on) the requested geometry.
    PolicyConstruction(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::BadGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            SessionError::UnknownPolicy(name) => write!(f, "unknown policy {name:?}"),
            SessionError::PolicyConstruction(name) => {
                write!(f, "policy {name:?} cannot be built for this geometry")
            }
        }
    }
}

impl Error for SessionError {}

/// Why a snapshot could not be restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// The snapshot file could not be read.
    Io(io::Error),
    /// The file is not a snapshot.
    BadMagic,
    /// Unsupported snapshot format version (a `PLRUSSN1` file is version
    /// 1).
    BadVersion(u32),
    /// The file ended inside the header or meta block.
    Truncated,
    /// The meta block fails its CRC.
    MetaCrc,
    /// The meta block decodes to nonsense.
    BadMeta(&'static str),
    /// A journal segment before the last is damaged (or a segment header
    /// anywhere is): the journal cannot be trusted past it.
    Segment {
        /// Zero-based index of the damaged segment.
        index: usize,
        /// What is wrong with it.
        what: &'static str,
    },
    /// The config is valid but the session cannot be rebuilt (e.g. the
    /// roster changed across daemon builds).
    Session(SessionError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot unreadable: {e}"),
            SnapshotError::BadMagic => write!(f, "not a session snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::MetaCrc => write!(f, "snapshot meta block fails its crc"),
            SnapshotError::BadMeta(what) => write!(f, "snapshot meta malformed: {what}"),
            SnapshotError::Segment { index, what } => {
                write!(f, "snapshot journal segment {index} damaged: {what}")
            }
            SnapshotError::Session(e) => write!(f, "snapshot cannot be rebuilt: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Session(e) => Some(e),
            _ => None,
        }
    }
}

/// Immutable per-session configuration (everything a snapshot must
/// remember besides the journal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Tenant identity (snapshot files are keyed by it).
    pub tenant: String,
    /// Cache shape every roster engine is built with.
    pub geometry: GeometrySpec,
    /// KV-mode flag (affects only how frames are lowered, but recorded so
    /// a resumed session keeps rejecting the wrong frame kind).
    pub kv_mode: bool,
    /// Cut a delta every this many accesses.
    pub delta_every: u64,
    /// Resolved roster names, in evaluation order.
    pub roster: Vec<String>,
}

/// One roster policy's engine, chosen by the dispatch rule.
enum Engine {
    /// The policy's slice kernel accepts the geometry.
    Sliced(SlicedCache),
    /// Every other policy.
    Cache(SetAssocCache),
}

impl Engine {
    fn feed(&mut self, batch: &[Access]) {
        match self {
            Engine::Sliced(c) => c.feed(batch),
            Engine::Cache(c) => {
                for a in batch {
                    c.access_fast(a);
                }
            }
        }
    }

    fn stats(&self) -> &CacheStats {
        match self {
            Engine::Sliced(c) => c.stats(),
            Engine::Cache(c) => c.stats(),
        }
    }
}

/// What the snapshot file holds, as far as the session knows: its
/// first `accesses` journal entries in a file `bytes` long.
#[derive(Debug, Clone, Copy)]
struct Persisted {
    accesses: u64,
    bytes: u64,
}

/// One tenant's live replay session.
pub struct Session {
    config: SessionConfig,
    engines: Vec<Mutex<Engine>>,
    /// Every access ever ingested, in order — the snapshot payload.
    journal: Vec<Access>,
    instructions: u64,
    delta_seq: u64,
    /// Accesses covered by the last cut delta (`covered_from` of the next).
    last_delta_at: u64,
    /// True once snapshots have been given up on (degraded mode).
    ephemeral: bool,
    /// The file image this session last wrote; `None` until its first
    /// snapshot, and after any failed write, so the next one is a full
    /// rewrite.
    persisted: Option<Persisted>,
}

/// Builds a plain cache per roster name: the engines of
/// [`reference_delta`], and the fallback engine of a session.
fn build_caches(
    names: &[String],
    registry: &Roster,
    geom: &CacheGeometry,
) -> Result<Vec<SetAssocCache>, SessionError> {
    names
        .iter()
        .map(|name| {
            let factory = registry
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, f)| f)
                .ok_or_else(|| SessionError::UnknownPolicy(name.clone()))?;
            // Factories assert geometry compatibility by panicking (they
            // are built for trusted batch configs); a serving daemon must
            // turn that into a typed per-session error instead.
            let policy = catch_unwind(AssertUnwindSafe(|| factory(geom)))
                .map_err(|_| SessionError::PolicyConstruction(name.clone()))?;
            Ok(SetAssocCache::new(*geom, policy))
        })
        .collect()
}

fn geometry_of(spec: &GeometrySpec) -> Result<CacheGeometry, SessionError> {
    CacheGeometry::new(
        spec.size_bytes,
        spec.ways as usize,
        u64::from(spec.line_bytes),
    )
    .map_err(|e| SessionError::BadGeometry(e.to_string()))
}

fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

impl Session {
    /// Opens a fresh session. An empty `roster` request resolves to the
    /// full registry.
    pub fn new(
        tenant: &str,
        spec: GeometrySpec,
        kv_mode: bool,
        delta_every: u64,
        requested: &[String],
        registry: &Roster,
    ) -> Result<Session, SessionError> {
        let geom = geometry_of(&spec)?;
        let roster: Vec<String> = if requested.is_empty() {
            registry.iter().map(|(n, _)| n.clone()).collect()
        } else {
            requested.to_vec()
        };
        let engines = build_caches(&roster, registry, &geom)?
            .into_iter()
            .map(|cache| {
                let sliced = cache
                    .policy()
                    .slice_kernel()
                    .and_then(|kernel| SlicedCache::new(geom, &kernel));
                Mutex::new(match sliced {
                    Some(s) => Engine::Sliced(s),
                    None => Engine::Cache(cache),
                })
            })
            .collect();
        Ok(Session {
            config: SessionConfig {
                tenant: tenant.to_string(),
                geometry: spec,
                kv_mode,
                delta_every: delta_every.max(1),
                roster,
            },
            engines,
            journal: Vec::new(),
            instructions: 0,
            delta_seq: 0,
            last_delta_at: 0,
            ephemeral: false,
            persisted: None,
        })
    }

    /// Session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The roster policies served by the bit-sliced engine, in roster
    /// order; the rest run on `SetAssocCache`.
    pub fn sliced_policies(&self) -> Vec<&str> {
        self.config
            .roster
            .iter()
            .zip(&self.engines)
            .filter(|(_, e)| matches!(*lock(e), Engine::Sliced(_)))
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Total accesses ingested (the resume point a client skips to).
    pub fn ingested(&self) -> u64 {
        self.journal.len() as u64
    }

    /// True once the session has degraded to ephemeral (no snapshots).
    pub fn is_ephemeral(&self) -> bool {
        self.ephemeral
    }

    /// Degrades the session: snapshots are abandoned, everything else
    /// keeps working.
    pub fn degrade_to_ephemeral(&mut self) {
        self.ephemeral = true;
    }

    /// Runs `batch` through every engine and appends it to the journal.
    fn apply(&mut self, batch: &[Access]) {
        if batch.is_empty() {
            return;
        }
        self.instructions += batch.iter().map(|a| u64::from(a.icount_delta)).sum::<u64>();
        self.journal.extend_from_slice(batch);
        let engines = &self.engines;
        pool::global().run_labeled(engines.len(), engines.len(), "serve", |i| {
            lock(&engines[i]).feed(batch);
        });
    }

    /// Ingests a batch of raw accesses; returns a delta when the
    /// `delta_every` boundary was crossed.
    pub fn ingest(&mut self, batch: &[Access]) -> Option<Delta> {
        self.apply(batch);
        if self.ingested() - self.last_delta_at >= self.config.delta_every {
            Some(self.cut_delta())
        } else {
            None
        }
    }

    /// Ingests a KV-mode batch (keys lowered to line addresses).
    pub fn ingest_kv(&mut self, ops: &[KvOp]) -> Option<Delta> {
        let line = u64::from(self.config.geometry.line_bytes);
        let batch: Vec<Access> = ops.iter().map(|op| kv::op_to_access(op, line)).collect();
        self.ingest(&batch)
    }

    /// The cumulative stats as they stand, without cutting a delta.
    pub fn current_delta(&self) -> Delta {
        Delta {
            seq: self.delta_seq,
            covered_from: self.last_delta_at,
            covered_to: self.ingested(),
            instructions: self.instructions,
            rows: self
                .config
                .roster
                .iter()
                .zip(&self.engines)
                .map(|(name, eng)| PolicyRow {
                    name: name.clone(),
                    stats: *lock(eng).stats(),
                })
                .collect(),
        }
    }

    /// Cuts a delta: returns the cumulative stats and advances the
    /// sequence / coverage watermark.
    pub fn cut_delta(&mut self) -> Delta {
        let d = self.current_delta();
        self.delta_seq += 1;
        self.last_delta_at = self.ingested();
        d
    }

    /// The roster entry with the lowest MPKI right now.
    pub fn best(&self) -> Option<(String, f64)> {
        let d = self.current_delta();
        (0..d.rows.len())
            .map(|i| (d.rows[i].name.clone(), d.mpki(i)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    // -- snapshots ---------------------------------------------------------

    /// Appends the snapshot header (magic, meta block, meta CRC).
    fn push_header(&self, out: &mut Vec<u8>) {
        let mut meta = Vec::new();
        put_u32(&mut meta, SNAPSHOT_VERSION);
        put_str(&mut meta, &self.config.tenant);
        meta.push(u8::from(self.config.kv_mode));
        put_u64(&mut meta, self.config.geometry.size_bytes);
        put_u32(&mut meta, self.config.geometry.ways);
        put_u32(&mut meta, self.config.geometry.line_bytes);
        put_u64(&mut meta, self.config.delta_every);
        put_u16(&mut meta, self.config.roster.len() as u16);
        for name in &self.config.roster {
            put_str(&mut meta, name);
        }
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(out, meta.len() as u32);
        out.extend_from_slice(&meta);
        put_u32(out, crc32(&meta));
    }

    /// Appends the journal from index `from` on as segments: one, unless
    /// it holds more records than a segment's `u32` count can say.
    fn push_segments(&self, out: &mut Vec<u8>, from: usize) {
        let total = self.journal.len();
        out.reserve(SEGMENT_FRAMING + RECORD_BYTES * (total - from));
        let mut first = from;
        loop {
            let count = (total - first).min(u32::MAX as usize);
            let head = out.len();
            put_u64(out, first as u64);
            put_u32(out, count as u32);
            put_u64(out, self.delta_seq);
            put_u32(out, crc32(&out[head..]));
            let body = out.len();
            for a in &self.journal[first..first + count] {
                out.extend_from_slice(&encode_record(a));
            }
            put_u32(out, crc32(&out[body..]));
            first += count;
            if first == total {
                break;
            }
        }
    }

    /// The compacted snapshot image: the header plus one segment holding
    /// the whole journal.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.push_header(&mut out);
        self.push_segments(&mut out, 0);
        out
    }

    /// Persists the session to `path`, first full, then append: the first
    /// call after the session was created or restored (or after a failed
    /// write) replaces the file with [`Session::snapshot_bytes`]; later
    /// calls append one segment of the accesses ingested since, and write
    /// nothing when there are none. A failed append is retried as a full
    /// rewrite; `attempts` bounds all tries together, with `backoff`
    /// between rewrites. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// The last write error once every attempt is exhausted. The file
    /// then holds the last image written, possibly followed by a torn
    /// segment that [`Session::restore`] drops.
    pub fn persist(&mut self, path: &Path, backoff: BackoffFn, attempts: u32) -> io::Result<u64> {
        let total = self.ingested();
        let mut attempts = attempts.max(1);
        if let Some(p) = self.persisted.take() {
            if p.accesses == total {
                self.persisted = Some(p);
                return Ok(0);
            }
            let mut segment = Vec::new();
            self.push_segments(&mut segment, p.accesses as usize);
            let appended = persist::append_at(path, p.bytes, &segment);
            match appended {
                Ok(()) => {
                    let written = segment.len() as u64;
                    self.persisted = Some(Persisted {
                        accesses: total,
                        bytes: p.bytes + written,
                    });
                    return Ok(written);
                }
                Err(e) if attempts == 1 => return Err(e),
                // The file may now end in a torn segment; the retry
                // replaces it with the whole image.
                Err(_) => attempts -= 1,
            }
        }
        let image = self.snapshot_bytes();
        write_snapshot(path, &image, backoff, attempts)?;
        let written = image.len() as u64;
        self.persisted = Some(Persisted {
            accesses: total,
            bytes: written,
        });
        Ok(written)
    }

    /// Rebuilds a session from snapshot bytes by replaying the journal
    /// through fresh engines. Deterministic engines make the result
    /// bit-identical to the snapshotted session. A torn or CRC-bad final
    /// segment (what a crash mid-append leaves) is dropped: the session
    /// restores to the previous segment boundary.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`] for any other damage; never panics on
    /// malformed input.
    pub fn restore(bytes: &[u8], registry: &Roster) -> Result<Session, SnapshotError> {
        if bytes.len() >= 8 && &bytes[0..8] == SNAPSHOT_MAGIC_V1 {
            return Err(SnapshotError::BadVersion(1));
        }
        if bytes.len() < 12 {
            return Err(SnapshotError::Truncated);
        }
        if &bytes[0..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let meta_len = le_u32(&bytes[8..12]) as usize;
        let meta_end = 12usize
            .checked_add(meta_len)
            .filter(|&e| e + 4 <= bytes.len())
            .ok_or(SnapshotError::Truncated)?;
        let meta = &bytes[12..meta_end];
        if crc32(meta) != le_u32(&bytes[meta_end..]) {
            return Err(SnapshotError::MetaCrc);
        }

        let bad = |e: ProtoError| match e {
            ProtoError::BadPayload(what) => SnapshotError::BadMeta(what),
            _ => SnapshotError::BadMeta("undecodable field"),
        };
        let mut c = Cursor::new(meta);
        let version = c.u32().map_err(bad)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let tenant = c.string().map_err(bad)?;
        let kv_mode = match c.u8().map_err(bad)? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::BadMeta("kv flag")),
        };
        let spec = GeometrySpec {
            size_bytes: c.u64().map_err(bad)?,
            ways: c.u32().map_err(bad)?,
            line_bytes: c.u32().map_err(bad)?,
        };
        let delta_every = c.u64().map_err(bad)?;
        let n = c.u16().map_err(bad)? as usize;
        let mut roster = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            roster.push(c.string().map_err(bad)?);
        }
        c.finish().map_err(bad)?;
        if roster.is_empty() {
            return Err(SnapshotError::BadMeta("empty roster"));
        }

        let (journal, delta_seq) = read_segments(&bytes[meta_end + 4..])?;
        let mut session = Session::new(&tenant, spec, kv_mode, delta_every, &roster, registry)
            .map_err(SnapshotError::Session)?;
        session.apply(&journal);
        // The resumed session owes no delta for the replayed prefix; the
        // next delta covers post-resume traffic and continues the stored
        // sequence numbering.
        session.delta_seq = delta_seq;
        session.last_delta_at = session.ingested();
        Ok(session)
    }
}

/// Decodes the segments after a snapshot header into the journal and the
/// last segment's `delta_seq`, dropping a torn or CRC-bad final segment.
fn read_segments(mut rest: &[u8]) -> Result<(Vec<Access>, u64), SnapshotError> {
    let mut journal = Vec::new();
    let mut delta_seq = 0;
    let mut index = 0;
    while rest.len() >= SEGMENT_HEAD {
        let damaged = |what| SnapshotError::Segment { index, what };
        let head = &rest[..SEGMENT_HEAD];
        if crc32(&head[..20]) != le_u32(&head[20..]) {
            return Err(damaged("header fails its crc"));
        }
        if le_u64(head) != journal.len() as u64 {
            return Err(damaged("does not continue the journal"));
        }
        let count = le_u32(&head[8..]) as usize;
        let end = count
            .checked_mul(RECORD_BYTES)
            .and_then(|b| b.checked_add(SEGMENT_FRAMING))
            .filter(|&end| end <= rest.len());
        let Some(end) = end else {
            // Torn: the file ends inside this segment, so it is the last.
            break;
        };
        let body = &rest[SEGMENT_HEAD..end - 4];
        let start = journal.len();
        journal.reserve(count);
        let intact = crc32(body) == le_u32(&rest[end - 4..])
            && body.chunks_exact(RECORD_BYTES).all(|r| {
                decode_record(r.try_into().expect("exact chunk"))
                    .map(|a| journal.push(a))
                    .is_ok()
            });
        if !intact {
            journal.truncate(start);
            // A damaged final segment is a crash mid-append; anywhere
            // else it is damage.
            if end == rest.len() {
                break;
            }
            return Err(damaged("records fail their crc"));
        }
        delta_seq = le_u64(&head[12..]);
        rest = &rest[end..];
        index += 1;
    }
    Ok((journal, delta_seq))
}

/// Locks a session engine, surviving poisoning.
fn lock(m: &Mutex<Engine>) -> std::sync::MutexGuard<'_, Engine> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Writes snapshot bytes to `path` atomically, retrying transient
/// failures (the `ENOSPC` case) up to `attempts` times with `backoff`
/// sleeps in between.
///
/// # Errors
///
/// The last write error once every attempt is exhausted; the previous
/// snapshot at `path`, if any, is untouched in that case.
pub fn write_snapshot(
    path: &Path,
    bytes: &[u8],
    backoff: BackoffFn,
    attempts: u32,
) -> io::Result<()> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match persist::atomic_write(path, bytes) {
            Ok(()) => return Ok(()),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < attempts {
                    std::thread::sleep(backoff(u64::from(attempt)));
                }
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("snapshot write made no attempts")))
}

/// Canonical stats rendering used for byte-for-byte comparison between a
/// served session and a single-process reference run. Excludes delta
/// sequence numbers (which depend on push cadence); includes every
/// counter and the exact MPKI bits.
pub fn canonical_stats(d: &Delta) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "accesses={} instructions={}",
        d.covered_to, d.instructions
    );
    for (i, row) in d.rows.iter().enumerate() {
        let s = &row.stats;
        let _ = writeln!(
            out,
            "{} accesses={} hits={} misses={} evictions={} writebacks={} bypasses={} mpki_bits={:016x}",
            row.name, s.accesses, s.hits, s.misses, s.evictions, s.writebacks, s.bypasses,
            d.mpki(i).to_bits()
        );
    }
    out
}

/// Single-threaded, single-process reference replay: the ground truth the
/// chaos drill compares daemon output against. Intentionally avoids the
/// worker pool and the session plumbing.
///
/// # Errors
///
/// [`SessionError`] if the geometry or roster cannot be built.
pub fn reference_delta(
    accesses: &[Access],
    requested: &[String],
    registry: &Roster,
    spec: GeometrySpec,
) -> Result<Delta, SessionError> {
    let geom = geometry_of(&spec)?;
    let roster: Vec<String> = if requested.is_empty() {
        registry.iter().map(|(n, _)| n.clone()).collect()
    } else {
        requested.to_vec()
    };
    let caches = build_caches(&roster, registry, &geom)?;
    let mut rows = Vec::with_capacity(caches.len());
    for (name, mut eng) in roster.iter().zip(caches) {
        for a in accesses {
            eng.access_fast(a);
        }
        rows.push(PolicyRow {
            name: name.clone(),
            stats: *eng.stats(),
        });
    }
    Ok(Delta {
        seq: 0,
        covered_from: 0,
        covered_to: accesses.len() as u64,
        instructions: accesses.iter().map(|a| u64::from(a.icount_delta)).sum(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::AccessKind;

    fn spec() -> GeometrySpec {
        GeometrySpec {
            size_bytes: 64 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Deterministic access stream mixing hits, misses, and writebacks.
    fn stream(n: usize, seed: u64) -> Vec<Access> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = (state % 4096) * 64;
                let kind = match state % 5 {
                    0 => AccessKind::Write,
                    4 => AccessKind::Writeback,
                    _ => AccessKind::Read,
                };
                Access {
                    addr,
                    pc: (i as u64) * 4,
                    kind,
                    icount_delta: (state % 7) as u32 + 1,
                }
            })
            .collect()
    }

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_policy_is_typed() {
        let reg = default_roster();
        let err = Session::new("t", spec(), false, 100, &names(&["NoSuch"]), &reg)
            .err()
            .unwrap();
        assert!(matches!(err, SessionError::UnknownPolicy(_)), "{err}");
    }

    #[test]
    fn bad_geometry_is_typed() {
        let reg = default_roster();
        let bad = GeometrySpec {
            size_bytes: 1000, // not a power of two
            ways: 16,
            line_bytes: 64,
        };
        let err = Session::new("t", bad, false, 100, &[], &reg).err().unwrap();
        assert!(matches!(err, SessionError::BadGeometry(_)), "{err}");
    }

    #[test]
    fn incompatible_policy_geometry_is_typed_not_a_panic() {
        let reg = default_roster();
        // WI-GIPPR's IPV is 16-way; an 8-way geometry makes its factory
        // panic, which the session must absorb into a typed error.
        let eight_way = GeometrySpec {
            size_bytes: 64 * 1024,
            ways: 8,
            line_bytes: 64,
        };
        let err = Session::new("t", eight_way, false, 100, &names(&["WI-GIPPR"]), &reg)
            .err()
            .unwrap();
        assert!(matches!(err, SessionError::PolicyConstruction(_)), "{err}");
    }

    #[test]
    fn deltas_cut_on_boundary_and_match_reference() {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), false, 100, &[], &reg).unwrap();
        let accesses = stream(250, 7);
        let mut deltas = Vec::new();
        for chunk in accesses.chunks(50) {
            if let Some(d) = s.ingest(chunk) {
                deltas.push(d);
            }
        }
        // 250 accesses at delta_every=100: deltas after 100 and 200.
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].seq, 0);
        assert_eq!((deltas[0].covered_from, deltas[0].covered_to), (0, 100));
        assert_eq!((deltas[1].covered_from, deltas[1].covered_to), (100, 200));

        let final_delta = s.cut_delta();
        assert_eq!(final_delta.covered_to, 250);
        let reference = reference_delta(&accesses, &[], &reg, spec()).unwrap();
        assert_eq!(
            canonical_stats(&final_delta),
            canonical_stats(&reference),
            "pooled fan-out must equal the sequential reference"
        );
    }

    #[test]
    fn kv_mode_matches_hand_lowered_stream() {
        let reg = default_roster();
        let roster = names(&["LRU", "PseudoLRU"]);
        let mut s = Session::new("t", spec(), true, 1000, &roster, &reg).unwrap();
        let ops: Vec<KvOp> = (0..200)
            .map(|i| KvOp {
                write: i % 3 == 0,
                key: format!("user:{}", i % 40),
            })
            .collect();
        s.ingest_kv(&ops);
        let lowered: Vec<Access> = ops.iter().map(|op| kv::op_to_access(op, 64)).collect();
        let reference = reference_delta(&lowered, &roster, &reg, spec()).unwrap();
        assert_eq!(canonical_stats(&s.cut_delta()), canonical_stats(&reference));
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let reg = default_roster();
        let accesses = stream(300, 42);
        let (head, tail) = accesses.split_at(180);

        // Uninterrupted session.
        let mut full = Session::new("t", spec(), false, 64, &[], &reg).unwrap();
        full.ingest(head);
        let snap = full.snapshot_bytes();
        full.ingest(tail);

        // Killed-and-restored session finishing the same stream.
        let mut resumed = Session::restore(&snap, &reg).unwrap();
        assert_eq!(resumed.ingested(), 180);
        assert_eq!(resumed.config().tenant, "t");
        resumed.ingest(tail);

        assert_eq!(
            canonical_stats(&full.cut_delta()),
            canonical_stats(&resumed.cut_delta())
        );
        // Stronger: the snapshots the two sessions would write next are
        // byte-identical too.
        assert_eq!(full.snapshot_bytes(), resumed.snapshot_bytes());
    }

    #[test]
    fn malformed_snapshots_are_typed_never_panic() {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), false, 64, &names(&["LRU"]), &reg).unwrap();
        s.ingest(&stream(50, 3));
        let good = s.snapshot_bytes();
        let segment_at = good.len() - SEGMENT_FRAMING - 50 * RECORD_BYTES;

        // Truncations at every prefix length: the header is all or
        // nothing, and a cut inside the one segment drops it whole.
        for cut in 0..good.len() {
            match Session::restore(&good[..cut], &reg) {
                Ok(r) => assert!(cut >= segment_at && r.ingested() == 0, "cut {cut}"),
                Err(_) => assert!(cut < segment_at, "cut {cut}"),
            }
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Session::restore(&bad, &reg),
            Err(SnapshotError::BadMagic)
        ));
        // The retired whole-journal format is refused by version.
        let mut old = good.clone();
        old[..8].copy_from_slice(b"PLRUSSN1");
        assert!(matches!(
            Session::restore(&old, &reg),
            Err(SnapshotError::BadVersion(1))
        ));
        // Meta corruption trips the meta CRC.
        let mut bad = good.clone();
        bad[14] ^= 0x01;
        assert!(matches!(
            Session::restore(&bad, &reg),
            Err(SnapshotError::MetaCrc)
        ));
        // A damaged segment header is damage wherever it is.
        let mut bad = good.clone();
        bad[segment_at + 8] ^= 0x01;
        assert!(matches!(
            Session::restore(&bad, &reg),
            Err(SnapshotError::Segment { index: 0, .. })
        ));
        // Damaged records in the final segment are what a crash during an
        // append leaves: the segment is dropped.
        let mut bad = good.clone();
        let late = good.len() - 20;
        bad[late] ^= 0x01;
        assert_eq!(Session::restore(&bad, &reg).unwrap().ingested(), 0);
        // Single-bit flips anywhere must never panic and never restore a
        // session that then lies about its length.
        for i in 0..good.len() {
            let mut flipped = good.clone();
            flipped[i] ^= 0x04;
            if let Ok(r) = Session::restore(&flipped, &reg) {
                assert_eq!(r.ingested(), 0, "flip at {i}");
            }
        }
    }

    /// A scratch snapshot path unique to one test.
    fn scratch_snapshot(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("sim-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.ssn"));
        (dir, path)
    }

    fn zero(_attempt: u64) -> Duration {
        Duration::from_millis(0)
    }

    #[test]
    fn periodic_snapshots_write_only_the_new_suffix_at_any_age() {
        let reg = default_roster();
        let every = 200usize;
        let accesses = stream(50 * every, 17);
        let (dir, path) = scratch_snapshot("suffix");
        let mut s = Session::new("t", spec(), false, 64, &names(&["LRU", "FIFO"]), &reg).unwrap();
        // Header plus one segment's framing (the image of an empty
        // session): the most a snapshot writes besides its new records.
        let fixed = s.snapshot_bytes().len() as u64;
        let mut file_len = 0u64;
        for (age, chunk) in accesses.chunks(every).enumerate() {
            s.ingest(chunk);
            let written = s.persist(&path, zero, 3).unwrap();
            let grown = std::fs::metadata(&path).unwrap().len() - file_len;
            file_len += grown;
            assert_eq!(written, grown, "age {}", age + 1);
            if matches!(age + 1, 1 | 10 | 50) {
                assert!(
                    written <= (RECORD_BYTES * every) as u64 + fixed,
                    "snapshot at age {}x wrote {written} bytes",
                    age + 1
                );
            }
            if age > 0 {
                assert_eq!(written, (SEGMENT_FRAMING + RECORD_BYTES * every) as u64);
            }
        }
        // Nothing new, nothing written.
        assert_eq!(s.persist(&path, zero, 3).unwrap(), 0);
        // Every journal byte reached the disk once.
        assert_eq!(
            file_len,
            fixed - SEGMENT_FRAMING as u64 + 50 * (SEGMENT_FRAMING + RECORD_BYTES * every) as u64
        );
        let restored = Session::restore(&std::fs::read(&path).unwrap(), &reg).unwrap();
        assert_eq!(
            canonical_stats(&restored.current_delta()),
            canonical_stats(&s.current_delta())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A three-segment snapshot file of `stream(300, 5)` (segments of 100)
    /// and the offset where its last segment starts.
    fn three_segment_file(tag: &str, reg: &Roster) -> (Vec<u8>, usize) {
        let accesses = stream(300, 5);
        let (dir, path) = scratch_snapshot(tag);
        let mut s = Session::new("t", spec(), false, 64, &[], reg).unwrap();
        let mut last_at = 0;
        for chunk in accesses.chunks(100) {
            s.ingest(chunk);
            last_at = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) as usize;
            s.persist(&path, zero, 3).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, last_at)
    }

    #[test]
    fn truncation_inside_the_last_segment_restores_the_previous_boundary() {
        let reg = default_roster();
        let accesses = stream(300, 5);
        let reference = reference_delta(&accesses, &[], &reg, spec()).unwrap();
        let (bytes, last_at) = three_segment_file("torn-tail", &reg);
        assert_eq!(bytes.len() - last_at, SEGMENT_FRAMING + 100 * RECORD_BYTES);
        for cut in last_at..bytes.len() {
            let mut resumed = Session::restore(&bytes[..cut], &reg)
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(resumed.ingested(), 200, "cut at {cut}");
            resumed.ingest(&accesses[200..]);
            assert_eq!(
                canonical_stats(&resumed.cut_delta()),
                canonical_stats(&reference),
                "cut at {cut}"
            );
        }
        assert_eq!(Session::restore(&bytes, &reg).unwrap().ingested(), 300);
    }

    #[test]
    fn flipped_byte_in_an_earlier_segment_is_a_typed_error() {
        let reg = default_roster();
        let (bytes, last_at) = three_segment_file("flip-early", &reg);
        let segment = SEGMENT_FRAMING + 100 * RECORD_BYTES;
        let first_at = last_at - 2 * segment;
        for i in first_at..last_at {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            let index = (i - first_at) / segment;
            match Session::restore(&flipped, &reg) {
                Err(SnapshotError::Segment { index: got, .. }) => {
                    assert_eq!(got, index, "flip at {i}")
                }
                Err(e) => panic!("flip at {i}: unexpected error {e}"),
                Ok(r) => panic!("flip at {i} restored {} accesses", r.ingested()),
            }
        }
    }

    #[test]
    fn injected_torn_append_is_retried_as_a_full_rewrite() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        let reg = default_roster();
        let accesses = stream(300, 8);
        let (dir, path) = scratch_snapshot("torn-append");
        let mut s = Session::new("t", spec(), false, 64, &[], &reg).unwrap();
        s.ingest(&accesses[..100]);
        s.persist(&path, zero, 3).unwrap();
        s.ingest(&accesses[100..]);
        let written =
            sim_fault::with_plan("torn@torn-append.ssn", || s.persist(&path, zero, 3)).unwrap();
        let image = s.snapshot_bytes();
        assert_eq!(
            written,
            image.len() as u64,
            "the retry wrote the whole image"
        );
        assert_eq!(std::fs::read(&path).unwrap(), image);
        // Appends resume on top of the rewritten image.
        s.ingest(&stream(10, 9));
        assert_eq!(
            s.persist(&path, zero, 3).unwrap(),
            (SEGMENT_FRAMING + 10 * RECORD_BYTES) as u64
        );
        let restored = Session::restore(&std::fs::read(&path).unwrap(), &reg).unwrap();
        assert_eq!(restored.ingested(), 310);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_roster_mismatch_is_typed() {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), false, 64, &names(&["LRU"]), &reg).unwrap();
        s.ingest(&stream(10, 3));
        let snap = s.snapshot_bytes();
        let empty: Roster = Vec::new();
        assert!(matches!(
            Session::restore(&snap, &empty),
            Err(SnapshotError::Session(SessionError::UnknownPolicy(_)))
        ));
    }

    #[test]
    fn write_snapshot_retries_then_succeeds() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        let dir = std::env::temp_dir().join(format!("sim-serve-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenant.ssn");
        let zero = |_attempt: u64| Duration::from_millis(0);
        sim_fault::with_plan("enospc@tenant.ssn:n=1;enospc@tenant.ssn:n=2", || {
            write_snapshot(&path, b"payload", zero, 4).unwrap();
        });
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_snapshot_sticky_enospc_exhausts_and_preserves_old() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        let dir = std::env::temp_dir().join(format!("sim-serve-enospc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenant.ssn");
        std::fs::write(&path, b"old-good-snapshot").unwrap(); // lint: direct-write (test fixture)
        let zero = |_attempt: u64| Duration::from_millis(0);
        sim_fault::with_plan("enospc@tenant.ssn:sticky", || {
            let err = write_snapshot(&path, b"new", zero, 3).unwrap_err();
            assert!(err.to_string().contains("no space left"), "{err}");
        });
        assert_eq!(std::fs::read(&path).unwrap(), b"old-good-snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn best_policy_is_reported() {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), false, 1000, &[], &reg).unwrap();
        s.ingest(&stream(500, 11));
        let (name, mpki) = s.best().unwrap();
        assert!(s.config().roster.contains(&name));
        assert!(mpki.is_finite());
    }
}

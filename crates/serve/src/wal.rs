//! Per-shard write-ahead logging with snapshot compaction: crash-recovery
//! time independent of tenant lifetime.
//!
//! [`Engine::open`] gives an [`Engine`] an on-disk log per tenant key; an
//! engine from [`crate::EngineBuilder::build`] has none. The lifecycle:
//!
//! * **Append** — every recorded observation is written as one
//!   CRC32-stamped line to the key's active segment file through a
//!   group-commit writer: an [`Engine::record_batch_frame`] appends the
//!   whole batch with a single write, so each coalesced record group a
//!   `banditware-net` server runs is one group commit. Appends happen
//!   inside the shard lock, so the log order is exactly the shard's
//!   absorption order (each line carries the absolute observation
//!   sequence number as a cross-check).
//! * **Rotate/seal** — when the active segment exceeds the configured size
//!   threshold it is **sealed**: closed, fsynced (according to the
//!   [`Durability`] policy), and advertised in the key's replication
//!   `MANIFEST` with its length and whole-file CRC32. Sealed segments are
//!   immutable — they are what [`crate::replicate::Replicator`] ships.
//! * **Compact** ([`Engine::compact`]) — the shard's complete live
//!   state is serialized as a `banditware-history v3` statistics snapshot
//!   (`snapshot.v3`, written atomically via a fsynced temp file + rename)
//!   and **all** existing segments are deleted: the snapshot supersedes
//!   them (the manifest records the supersession floor first, so an
//!   interrupted deletion resumes on the next sync). Snapshot size is
//!   O(m² + tail), not O(rounds).
//! * **Recover** ([`Engine::open`]) — for every key directory found
//!   on disk: load `snapshot.v3` (O(m²) state restore, bitwise-faithful),
//!   then replay the segment tail in order, verifying every line's CRC and
//!   skipping lines the snapshot already covers. Recovery cost is
//!   O(m²) + O(tail), **independent of how many rounds the tenant ever
//!   ran** — the property the unbounded replay-the-log design could not
//!   offer.
//!
//! ## Durability
//!
//! The [`Durability`] knob on [`crate::EngineBuilder`] chooses what a
//! *power failure* (not a process crash — a crash loses nothing flushed)
//! can take with it:
//!
//! | policy | group commit | segment seal | compaction |
//! |---|---|---|---|
//! | [`Durability::Flush`] (default) | `flush` | `flush` | `fsync` |
//! | [`Durability::FsyncPerRotation`] | `flush` | `fsync` | `fsync` |
//! | [`Durability::FsyncPerBatch`] | `fsync` | `fsync` | `fsync` |
//!
//! Under `Flush`, an acknowledged `record_batch_frame` can vanish on power
//! loss (the historical behavior, now opt-in rather than silent); under
//! `FsyncPerBatch` it cannot. The replication `MANIFEST` only ever
//! advertises files that have actually been fsynced — a `Flush`-mode
//! primary advertises sealed segments lazily, when a
//! [`crate::replicate::Replicator`] ship forces the sync.
//!
//! ## Corruption
//!
//! Every WAL line ends in a `c<crc32>` field and every segment header binds
//! the format version, the segment index, and a header CRC. A mid-file
//! mismatch fails recovery with a [`ServeError::Corrupt`] naming the file,
//! the line, and both checksums — a bit flip inside a float field, which
//! the old parse-failure heuristic could not see, is now caught. The final
//! line of the **final** segment is the exception: group commit means a
//! torn append can only ever be a trailing partial line, so it is discarded
//! (reported via [`RecoveryReport::torn_tail`]) instead of failing
//! recovery; such a record was never acknowledged in one flushed piece.
//!
//! Recommendations are not logged at all: tickets issued after the last
//! snapshot die with the process (their runtimes arrive as
//! [`banditware_core::CoreError::UnknownTicket`] and the caller resubmits),
//! and a ticket *dropped* after the snapshot is resurrected as open until
//! the next compaction — harmless, it holds no model state.

use crate::crc::{crc32, Crc32};
use crate::engine::Engine;
use crate::error::{ServeError, ServeResult};
use banditware_core::persist;
use banditware_core::snapshot::FieldCursor;
use banditware_core::{CoreError, InFlightRound, Observation, Ticket};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

const WAL_MAGIC_V1: &str = "banditware-wal v1";
const WAL_MAGIC_V2: &str = "banditware-wal v2";
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.v3";
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_MAGIC: &str = "banditware-manifest v1";

/// When the WAL calls `fsync`, chosen on [`crate::EngineBuilder`]. See the
/// module docs for the full table; the trade is acknowledged-write
/// durability against power loss vs. group-commit latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Flush to the OS per group commit, `fsync` only at compaction — a
    /// process crash loses nothing, a power failure can lose the tail of
    /// the log. The default (and the only behavior before the knob
    /// existed).
    #[default]
    Flush,
    /// Additionally `fsync` every segment as it is sealed: a power failure
    /// can only lose the *active* segment's tail, and sealed segments are
    /// immediately eligible for replication.
    FsyncPerRotation,
    /// `fsync` every group commit: an acknowledged `record` /
    /// `record_batch_frame` survives power loss.
    FsyncPerBatch,
}

/// Where an [`Engine::open`]-ed engine keeps its log, and when it rotates.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Root directory; one subdirectory per tenant key.
    pub dir: PathBuf,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_max_bytes: u64,
}

impl WalOptions {
    /// Options rooted at `dir` with the default 1 MiB segment threshold.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalOptions { dir: dir.into(), segment_max_bytes: 1 << 20 }
    }

    /// Override the segment rotation threshold.
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes.max(1);
        self
    }
}

/// What [`Engine::open`] found and replayed on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Keys recovered, sorted.
    pub keys: Vec<String>,
    /// Keys restored from a `snapshot.v3`.
    pub snapshots_loaded: usize,
    /// WAL observation lines replayed (after snapshot-overlap skipping).
    pub replayed: usize,
    /// WAL lines skipped because the snapshot already covered them.
    pub skipped: usize,
    /// Whether a torn final line (crash mid-append) was discarded.
    pub torn_tail: bool,
    /// Per-key applied sequence watermark after recovery: the number of
    /// rounds the recovered shard carries, i.e. the next observation
    /// sequence it expects. Sorted by key; this is what a replication
    /// follower compares against the primary to measure staleness.
    pub watermarks: Vec<(String, usize)>,
}

/// Filesystem-safe, reversible key encoding: `k` + each byte either kept
/// (ASCII alphanumerics, `-`, `_`, `.`) or percent-encoded.
pub(crate) fn encode_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 1);
    out.push('k');
    for &b in key.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

pub(crate) fn decode_key(dir_name: &str) -> Option<String> {
    let enc = dir_name.strip_prefix('k')?;
    let mut bytes = Vec::with_capacity(enc.len());
    let mut it = enc.bytes();
    while let Some(b) = it.next() {
        if b == b'%' {
            let hi = it.next()?;
            let lo = it.next()?;
            let hex = [hi, lo];
            let hex = std::str::from_utf8(&hex).ok()?;
            bytes.push(u8::from_str_radix(hex, 16).ok()?);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes).ok()
}

pub(crate) fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> ServeError {
    move |e| ServeError::Core(CoreError::Io { op, kind: e.kind(), message: e.to_string() })
}

pub(crate) fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

pub(crate) fn segment_name(idx: u64) -> String {
    format!("wal-{idx}.log")
}

// ---------------------------------------------------------------------------
// Manifest: the durable, shippable state of one key's log
// ---------------------------------------------------------------------------

/// Length + whole-file CRC32 of one shippable file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileMeta {
    pub bytes: u64,
    pub crc: u32,
}

/// One key's replication manifest: exactly the files a follower may apply,
/// each with its expected length and CRC32. Only files that have actually
/// been fsynced are listed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Segments with index below this are superseded by the snapshot:
    /// deleted, or awaiting deletion after an interrupted compaction.
    pub floor: u64,
    /// The current `snapshot.v3`, if one has been compacted.
    pub snapshot: Option<FileMeta>,
    /// Durable sealed segments, ascending.
    pub segments: BTreeMap<u64, FileMeta>,
}

impl Manifest {
    /// Serialize as the `MANIFEST` text format (self-checksummed).
    pub(crate) fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut body = format!("{MANIFEST_MAGIC}\nfloor,{}\n", self.floor);
        if let Some(s) = &self.snapshot {
            let _ = writeln!(body, "snapshot,{},{:08x}", s.bytes, s.crc);
        }
        for (idx, m) in &self.segments {
            let _ = writeln!(body, "segment,{idx},{},{:08x}", m.bytes, m.crc);
        }
        let _ = writeln!(body, "end,{:08x}", crc32(body.as_bytes()));
        body
    }

    /// Parse the `MANIFEST` text format, verifying the trailing checksum.
    /// The error is a human-readable detail (callers wrap it in
    /// [`ServeError::Manifest`] with the path).
    pub(crate) fn parse(text: &str) -> Result<Manifest, String> {
        let mut manifest = Manifest::default();
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first == MANIFEST_MAGIC => {}
            Some((_, other)) => return Err(format!("bad header {other:?}")),
            None => return Err("empty manifest".into()),
        }
        let mut saw_floor = false;
        let mut verified = false;
        for (i, line) in lines {
            let err = |detail: String| format!("line {}: {detail}", i + 1);
            if let Some(rest) = line.strip_prefix("end,") {
                let stored = u32::from_str_radix(rest, 16)
                    .map_err(|e| err(format!("bad end checksum: {e}")))?;
                // The end line checksums everything before it.
                // lint: allow(no-panic) -- substring found by the prefix match above
                let body_len = text.find("end,").expect("prefix matched above");
                let computed = crc32(text[..body_len].as_bytes());
                if stored != computed {
                    return Err(err(format!(
                        "checksum mismatch: stored {stored:08x}, computed {computed:08x}"
                    )));
                }
                verified = true;
                break;
            }
            let mut fields = FieldCursor::new(line);
            match fields.next() {
                Some("floor") => {
                    manifest.floor = fields
                        .next()
                        .and_then(|f| f.parse().ok())
                        .ok_or_else(|| err("bad floor".into()))?;
                    saw_floor = true;
                }
                Some("snapshot") => {
                    manifest.snapshot = Some(parse_meta(&mut fields).map_err(err)?);
                }
                Some("segment") => {
                    let idx: u64 = fields
                        .next()
                        .and_then(|f| f.parse().ok())
                        .ok_or_else(|| err("bad segment index".into()))?;
                    manifest.segments.insert(idx, parse_meta(&mut fields).map_err(err)?);
                }
                other => return Err(err(format!("unknown line kind {other:?}"))),
            }
        }
        if !saw_floor {
            return Err("missing floor line".into());
        }
        if !verified {
            return Err("missing end checksum line (torn manifest)".into());
        }
        Ok(manifest)
    }
}

fn parse_meta(fields: &mut FieldCursor<'_>) -> Result<FileMeta, String> {
    let bytes: u64 =
        fields.next().and_then(|f| f.parse().ok()).ok_or_else(|| "bad byte count".to_string())?;
    let crc = fields
        .next()
        .and_then(|f| u32::from_str_radix(f, 16).ok())
        .ok_or_else(|| "bad checksum".to_string())?;
    if fields.next().is_some() {
        return Err("trailing fields".into());
    }
    Ok(FileMeta { bytes, crc })
}

/// Read and validate a key directory's `MANIFEST`. `Ok(None)` when the file
/// does not exist (nothing advertised yet).
pub(crate) fn read_manifest(key_dir: &Path) -> ServeResult<Option<Manifest>> {
    let path = key_dir.join(MANIFEST_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("manifest-read")(e)),
    };
    Manifest::parse(&text)
        .map(Some)
        .map_err(|detail| ServeError::Manifest { path: path.display().to_string(), detail })
}

// ---------------------------------------------------------------------------
// Segment line codec
// ---------------------------------------------------------------------------

/// Per-segment format version, derived from the header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentVersion {
    /// Legacy (pre-checksum) segments: lines carry no CRC field. Still
    /// replayable; new appends never extend a v1 segment.
    V1,
    /// Current: every line ends in a `c<crc32>` field.
    V2,
}

fn segment_header(idx: u64) -> String {
    let body = format!("{WAL_MAGIC_V2},{idx}");
    format!("{body},{:08x}\n", crc32(body.as_bytes()))
}

/// Validate a segment's header line against the index its filename claims.
fn parse_segment_header(line: &str, expected_idx: u64) -> Result<SegmentVersion, String> {
    if line == WAL_MAGIC_V1 {
        return Ok(SegmentVersion::V1);
    }
    let Some(rest) = line.strip_prefix(WAL_MAGIC_V2) else {
        return Err(format!("bad segment header {line:?}"));
    };
    let mut fields = FieldCursor::new(rest.strip_prefix(',').unwrap_or(""));
    let idx: u64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("bad segment header {line:?}"))?;
    let stored = fields
        .next()
        .and_then(|f| u32::from_str_radix(f, 16).ok())
        .ok_or_else(|| format!("bad segment header {line:?}"))?;
    if fields.next().is_some() {
        return Err(format!("bad segment header {line:?}"));
    }
    let body = format!("{WAL_MAGIC_V2},{idx}");
    let computed = crc32(body.as_bytes());
    if stored != computed {
        return Err(format!(
            "header checksum mismatch: stored {stored:08x}, computed {computed:08x}"
        ));
    }
    if idx != expected_idx {
        return Err(format!(
            "header names segment {idx} but the file is wal-{expected_idx}.log \
             (misplaced or renamed segment)"
        ));
    }
    Ok(SegmentVersion::V2)
}

/// One parsed WAL observation line.
#[derive(Debug)]
pub(crate) struct WalRecord {
    pub seq: usize,
    pub ticket: u64,
    pub obs: Observation,
}

/// Parse one observation line; `with_crc` per the segment's version. The
/// error is a human-readable detail.
fn parse_wal_line(line: &str, with_crc: bool) -> Result<WalRecord, String> {
    let body = if with_crc {
        let Some((body, crc_hex)) = line.rsplit_once(",c") else {
            return Err("missing checksum field".into());
        };
        let stored = if crc_hex.len() == 8 {
            u32::from_str_radix(crc_hex, 16).map_err(|_| format!("bad checksum {crc_hex:?}"))?
        } else {
            return Err(format!("bad checksum {crc_hex:?}"));
        };
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(format!("checksum mismatch: stored {stored:08x}, computed {computed:08x}"));
        }
        body
    } else {
        line
    };
    let parse = || -> Option<WalRecord> {
        let mut fields = FieldCursor::new(body);
        let [tag, seq, ticket, arm, explored, runtime] = fields.next_n()?;
        if tag != "obs" {
            return None;
        }
        let seq: usize = seq.parse().ok()?;
        let ticket: u64 = ticket.parse().ok()?;
        let arm: usize = arm.parse().ok()?;
        let explored = match explored {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        let runtime: f64 = runtime.parse().ok()?;
        let mut features = Vec::with_capacity(fields.remaining());
        for f in fields {
            features.push(f.parse().ok()?);
        }
        Some(WalRecord {
            seq,
            ticket,
            obs: Observation { round: seq, arm, features, runtime, explored },
        })
    };
    parse().ok_or_else(|| "unparseable record".into())
}

/// Append one observation line — `round` closed with `runtime` as
/// observation `seq` — to `out`, checksum and newline included.
pub(crate) fn push_wal_line(
    out: &mut String,
    seq: usize,
    ticket: Ticket,
    round: &InFlightRound<'_>,
    runtime: f64,
) {
    use std::fmt::Write as _;
    let start = out.len();
    let explored = if round.explored { 1 } else { 0 };
    let _ = write!(out, "obs,{seq},{},{},{explored},{runtime}", ticket.id(), round.arm);
    for f in round.features {
        let _ = write!(out, ",{f}");
    }
    let crc = crc32(&out.as_bytes()[start..]);
    let _ = writeln!(out, ",c{crc:08x}");
}

// ---------------------------------------------------------------------------
// Per-key appender
// ---------------------------------------------------------------------------

/// One key's log state: the active segment writer, its byte/CRC cursor, and
/// the replication manifest of durable sealed files.
#[derive(Debug)]
pub(crate) struct KeyWal {
    dir: PathBuf,
    segment_max_bytes: u64,
    durability: Durability,
    /// Index of the active segment (`wal-<n>.log`).
    seg_index: u64,
    /// Lazily opened appender for the active segment.
    writer: Option<fs::File>,
    /// Bytes in the active segment.
    bytes: u64,
    /// Running CRC over the active segment's full contents (valid whenever
    /// `writer` is open; recomputed from disk on reopen).
    crc: Crc32,
    /// Observation lines in the active segment.
    active_records: u64,
    /// The durable, shippable state (see [`Manifest`]).
    manifest: Manifest,
    /// (length, mtime) of the `snapshot.v3` last folded into the manifest —
    /// lets the per-ship refresh skip re-reading an unchanged snapshot.
    // lint: allow(determinism) -- mtime change-detection cache, never serialized
    snapshot_stat: Option<(u64, std::time::SystemTime)>,
    /// The text of the group being appended, reused across appends so a
    /// warm logged record formats without allocating.
    group: String,
}

impl KeyWal {
    fn open(dir: PathBuf, segment_max_bytes: u64, durability: Durability) -> ServeResult<Self> {
        let io = io_err("wal-open");
        fs::create_dir_all(&dir).map_err(&io)?;
        // A torn MANIFEST is not data loss — it is rebuilt from the files
        // themselves on the next seal or sync — so start empty on *damage*.
        // A read IO error, by contrast, propagates: treating it as "no
        // manifest" would lose the advertised-segment ceiling and the
        // supersession floor, the two invariants appends rely on below.
        let manifest = match read_manifest(&dir) {
            Ok(manifest) => manifest.unwrap_or_default(),
            Err(ServeError::Manifest { .. }) => Manifest::default(),
            Err(e) => return Err(e),
        };
        let mut max_idx = 0u64;
        let mut bytes = 0u64;
        for entry in fs::read_dir(&dir).map_err(&io)? {
            let entry = entry.map_err(&io)?;
            if let Some(idx) = entry.file_name().to_str().and_then(segment_index) {
                if idx >= max_idx {
                    max_idx = idx;
                    bytes = entry.metadata().map_err(&io)?.len();
                }
            }
        }
        // Appends never land below the supersession floor (a segment that
        // survived an interrupted compaction cleanup must not be revived)
        // and never extend a manifest-advertised segment: advertised means
        // sealed, fsynced, and possibly already replicated — growing one
        // after a restart would make the shipped copy and the manifest
        // disagree with the file forever.
        let advertised_max = manifest.segments.keys().next_back().copied().unwrap_or(0);
        let start = manifest.floor.max(advertised_max + 1).max(1);
        let (seg_index, bytes) = if max_idx >= start { (max_idx, bytes) } else { (start, 0) };
        Ok(KeyWal {
            dir,
            segment_max_bytes,
            durability,
            seg_index,
            writer: None,
            bytes,
            crc: Crc32::new(),
            active_records: 0,
            manifest,
            snapshot_stat: None,
            group: String::new(),
        })
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    pub(crate) fn segment_path(&self, idx: u64) -> PathBuf {
        self.dir.join(segment_name(idx))
    }

    /// Bring the in-memory cursor in line with the active segment on disk:
    /// drop a torn trailing partial line (a panic or IO failure mid-append
    /// can leave one), recompute the running CRC, and skip past a legacy v1
    /// segment (new appends never extend one — its lines carry no
    /// checksums). Called whenever the writer is (re)opened.
    fn resync_active(&mut self) -> ServeResult<()> {
        let io = io_err("wal-open");
        let path = self.segment_path(self.seg_index);
        let content = match fs::read(&path) {
            Ok(content) => content,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.bytes = 0;
                self.crc = Crc32::new();
                self.active_records = 0;
                return Ok(());
            }
            Err(e) => return Err(io(e)),
        };
        let mut keep = content.len();
        if keep > 0 && content[keep - 1] != b'\n' {
            keep = content[..keep].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        }
        if content.starts_with(WAL_MAGIC_V1.as_bytes()) {
            // Seal the legacy segment; its intact lines replay fine. A
            // crash-torn trailing partial line must still be truncated
            // first — sealing (and later advertising) it as-is would turn
            // a tolerated torn tail into permanent mid-file corruption.
            if keep < content.len() {
                fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(keep as u64))
                    .map_err(&io)?;
            }
            self.seg_index += 1;
            self.bytes = 0;
            self.crc = Crc32::new();
            self.active_records = 0;
            return Ok(());
        }
        // Also drop trailing *complete* lines that fail their checksum:
        // recovery tolerated them as a torn tail (discarded from replay),
        // but appending after one would turn it into permanent mid-file
        // corruption that fails every future recovery. Lines further in
        // were validated by the recovery that preceded any append.
        while keep > 0 {
            let line_start =
                content[..keep - 1].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
            if line_start == 0 {
                break; // the header line
            }
            let line = &content[line_start..keep - 1];
            let intact =
                std::str::from_utf8(line).map_or(false, |line| parse_wal_line(line, true).is_ok());
            if intact {
                break;
            }
            keep = line_start;
        }
        if keep < content.len() {
            fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(keep as u64))
                .map_err(&io)?;
        }
        let kept = &content[..keep];
        self.bytes = keep as u64;
        self.crc = Crc32::new();
        self.crc.update(kept);
        self.active_records =
            (kept.iter().filter(|&&b| b == b'\n').count() as u64).saturating_sub(1);
        Ok(())
    }

    /// A panicking appender may have left a partial write; called by the
    /// lock-poison recovery path so the next append starts from a clean
    /// line boundary.
    fn repair_after_panic(&mut self) {
        self.writer = None;
        // Errors here are reported by the next append, which resyncs again.
        let _ = self.resync_active();
    }

    fn open_writer(&mut self) -> ServeResult<()> {
        if self.writer.is_some() {
            return Ok(());
        }
        let io = io_err("wal-append");
        self.resync_active()?;
        let path = self.segment_path(self.seg_index);
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&path).map_err(&io)?;
        // A segment needs its header iff it is empty — a crash between file
        // creation and the header write leaves a zero-byte segment that
        // must still get the magic line, or the next recovery would reject
        // it.
        if self.bytes == 0 {
            let header = segment_header(self.seg_index);
            file.write_all(header.as_bytes()).map_err(&io)?;
            self.crc.update(header.as_bytes());
            self.bytes = header.len() as u64;
            self.active_records = 0;
            if !matches!(self.durability, Durability::Flush) {
                // A freshly created file's *directory entry* must also
                // reach disk before an fsynced record in it can claim
                // power-loss durability (same reason install_snapshot
                // syncs the directory after its rename); best effort off
                // Unix.
                let _ = fs::File::open(&self.dir).and_then(|d| d.sync_all());
            }
        }
        self.writer = Some(file);
        Ok(())
    }

    /// Append one group of observation lines, then flush (and `fsync`, per
    /// the [`Durability`] policy) — one syscall pair per batch (the group
    /// commit). `fill` writes the lines into the appender's reused buffer
    /// and returns how many it wrote; a group of none appends nothing.
    pub(crate) fn append_group(
        &mut self,
        fill: impl FnOnce(&mut String) -> u64,
    ) -> ServeResult<()> {
        let mut group = std::mem::take(&mut self.group);
        group.clear();
        let n_records = fill(&mut group);
        let result = if n_records > 0 { self.append(&group, n_records) } else { Ok(()) };
        self.group = group;
        result
    }

    fn append(&mut self, group: &str, n_records: u64) -> ServeResult<()> {
        let io = io_err("wal-append");
        self.open_writer()?;
        // lint: allow(no-panic) -- open_writer() just populated it
        let file = self.writer.as_mut().expect("opened above");
        let result = file.write_all(group.as_bytes()).and_then(|()| match self.durability {
            Durability::FsyncPerBatch => file.sync_data(),
            _ => file.flush(),
        });
        if let Err(e) = result {
            // Repair the partial group so a later append never concatenates
            // onto a half-written line: truncate back to the pre-group
            // length (nothing in this group was acknowledged).
            let _ = file.set_len(self.bytes);
            self.writer = None;
            return Err(io(e));
        }
        self.crc.update(group.as_bytes());
        self.bytes += group.len() as u64;
        self.active_records += n_records;
        if self.bytes >= self.segment_max_bytes {
            self.seal_active(false)?;
        }
        Ok(())
    }

    /// Seal the active segment: fsync it (always when `force_sync`,
    /// otherwise per the durability policy), advertise it in the manifest
    /// if synced, and move the cursor to a fresh segment. Requires a valid
    /// cursor (writer open, or `resync_active` just ran).
    fn seal_active(&mut self, force_sync: bool) -> ServeResult<()> {
        let io = io_err("wal-seal");
        let sync = force_sync || !matches!(self.durability, Durability::Flush);
        if sync && self.bytes > 0 {
            match self.writer.as_mut() {
                Some(file) => file.sync_data().map_err(&io)?,
                None => fs::File::open(self.segment_path(self.seg_index))
                    .and_then(|f| f.sync_data())
                    .map_err(&io)?,
            }
            self.manifest
                .segments
                .insert(self.seg_index, FileMeta { bytes: self.bytes, crc: self.crc.finish() });
            self.write_manifest()?;
        }
        self.writer = None;
        self.seg_index += 1;
        self.bytes = 0;
        self.crc = Crc32::new();
        self.active_records = 0;
        Ok(())
    }

    /// Atomically (re)write the key's `MANIFEST`.
    fn write_manifest(&self) -> ServeResult<()> {
        let io = io_err("manifest-write");
        let tmp = self.dir.join("MANIFEST.tmp");
        let mut file = fs::File::create(&tmp).map_err(&io)?;
        file.write_all(self.manifest.to_text().as_bytes()).map_err(&io)?;
        file.sync_all().map_err(&io)?;
        drop(file);
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE)).map_err(&io)?;
        // Make the rename durable too (best effort off Unix).
        let _ = fs::File::open(&self.dir).and_then(|d| d.sync_all());
        Ok(())
    }

    /// Make everything sealed durable and advertised, resume any
    /// interrupted supersession cleanup, and return the manifest — the
    /// replication ship path. With `seal_active`, the active segment's
    /// records are sealed (and therefore shipped) too.
    ///
    /// Runs under the key's appender lock (the caller holds it), so a
    /// `Flush`-mode primary with a large backlog of sealed-but-unadvertised
    /// segments pays the read + CRC + fsync of that backlog while the
    /// key's record path waits. Ship regularly, or pick
    /// [`Durability::FsyncPerRotation`], which advertises each segment at
    /// seal time and keeps this a metadata no-op in the steady state.
    pub(crate) fn sync_for_ship(&mut self, seal_active: bool) -> ServeResult<Manifest> {
        let io = io_err("wal-sync");
        if self.writer.is_none() {
            self.resync_active()?;
        }
        if seal_active && self.active_records > 0 {
            self.seal_active(true)?;
        }
        let mut changed = false;
        // Advertise sealed-but-unsynced segments (Flush mode seals without
        // fsync; pre-manifest directories have none advertised at all), and
        // finish deleting segments below the supersession floor.
        let mut on_disk: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(&io)? {
            let entry = entry.map_err(&io)?;
            if let Some(idx) = entry.file_name().to_str().and_then(segment_index) {
                on_disk.push((idx, entry.path()));
            }
        }
        on_disk.sort();
        for (idx, path) in on_disk {
            if idx < self.manifest.floor {
                fs::remove_file(&path).map_err(&io)?;
                changed = true;
                continue;
            }
            if idx >= self.seg_index || self.manifest.segments.contains_key(&idx) {
                continue;
            }
            let content = fs::read(&path).map_err(&io)?;
            fs::File::open(&path).and_then(|f| f.sync_data()).map_err(&io)?;
            self.manifest
                .segments
                .insert(idx, FileMeta { bytes: content.len() as u64, crc: crc32(&content) });
            changed = true;
        }
        // Refresh the snapshot entry from the file itself (a crash between
        // snapshot rename and manifest write leaves them out of step). The
        // (length, mtime) signature short-circuits the full read + CRC in
        // the steady state — every ship pass lands here.
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        match fs::metadata(&snapshot_path) {
            Ok(stat) => {
                let signature = stat.modified().ok().map(|mtime| (stat.len(), mtime));
                if signature.is_none()
                    || signature != self.snapshot_stat
                    || self.manifest.snapshot.is_none()
                {
                    let content = fs::read(&snapshot_path).map_err(&io)?;
                    let meta = FileMeta { bytes: content.len() as u64, crc: crc32(&content) };
                    if self.manifest.snapshot != Some(meta) {
                        fs::File::open(&snapshot_path).and_then(|f| f.sync_data()).map_err(&io)?;
                        self.manifest.snapshot = Some(meta);
                        changed = true;
                    }
                    self.snapshot_stat = signature;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if self.manifest.snapshot.is_some() {
                    self.manifest.snapshot = None;
                    self.snapshot_stat = None;
                    changed = true;
                }
            }
            Err(e) => return Err(io(e)),
        }
        if changed {
            self.write_manifest()?;
        }
        Ok(self.manifest.clone())
    }

    /// Atomically install a v3 snapshot and delete every segment it
    /// supersedes (all of them — the snapshot was serialized under the
    /// shard lock, after everything ever appended). The manifest records
    /// the supersession floor *before* the deletions, so a crash mid-way
    /// resumes cleanly.
    fn install_snapshot(&mut self, snapshot: &[u8]) -> ServeResult<()> {
        let io = io_err("wal-compact");
        let tmp = self.dir.join("snapshot.tmp");
        let mut file = fs::File::create(&tmp).map_err(&io)?;
        file.write_all(snapshot).map_err(&io)?;
        // The snapshot is the replication root of trust: always fsync it,
        // whatever the per-batch policy (compaction is rare). An atomic
        // rename over un-synced data would be durability theater.
        file.sync_all().map_err(&io)?;
        drop(file);
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE)).map_err(&io)?;
        // Make the rename itself durable (best effort off Unix).
        let _ = fs::File::open(&self.dir).and_then(|d| d.sync_all());
        self.writer = None;
        self.manifest.floor = self.seg_index + 1;
        self.manifest.segments.clear();
        self.manifest.snapshot =
            Some(FileMeta { bytes: snapshot.len() as u64, crc: crc32(snapshot) });
        self.snapshot_stat = fs::metadata(self.dir.join(SNAPSHOT_FILE))
            .ok()
            .and_then(|stat| stat.modified().ok().map(|mtime| (stat.len(), mtime)));
        self.seg_index += 1;
        self.bytes = 0;
        self.crc = Crc32::new();
        self.active_records = 0;
        self.write_manifest()?;
        for entry in fs::read_dir(&self.dir).map_err(&io)? {
            let entry = entry.map_err(&io)?;
            if let Some(idx) = entry.file_name().to_str().and_then(segment_index) {
                if idx < self.manifest.floor {
                    fs::remove_file(entry.path()).map_err(&io)?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replay (shared by primary recovery and the replication follower)
// ---------------------------------------------------------------------------

/// Counters produced by replaying segments into an engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplayStats {
    pub replayed: usize,
    pub skipped: usize,
    pub torn_tail: bool,
}

/// Apply one parsed record to a key's shard, deduping on the absolute
/// sequence number (`true` = applied, `false` = already covered).
pub(crate) fn apply_record(engine: &Engine, key: &str, record: &WalRecord) -> ServeResult<bool> {
    let applied = engine.with_shard_mut(key, |shard| -> banditware_core::Result<bool> {
        if record.seq < shard.rounds() {
            // Covered by the snapshot (crash between snapshot install and
            // segment deletion) or by an earlier segment replay.
            return Ok(false);
        }
        let ticket = Ticket::from_id(record.ticket);
        if shard.in_flight_round(ticket).is_some() {
            // The round was open when the snapshot was taken: record it
            // through the live path, closing the ticket exactly as the
            // pre-crash engine did.
            shard.record_ticket(ticket, record.obs.runtime)?;
        } else {
            shard.record_replayed(&record.obs)?;
        }
        Ok(true)
    })??;
    Ok(applied)
}

/// Replay one segment file's `bytes` (read whole by the caller: segments
/// rotate at `segment_max_bytes`, 1 MiB by default) into `key`'s shard,
/// verifying the header and every line checksum; `path` names the file in
/// errors. With `tolerate_torn_tail` (primary recovery of the final
/// segment), an unparseable **final** line is discarded and counted instead
/// of failing — a crash mid-append was never acknowledged. Sealed, shipped
/// segments are replayed strictly.
pub(crate) fn replay_segment(
    engine: &Engine,
    key: &str,
    path: &Path,
    bytes: &[u8],
    idx: u64,
    tolerate_torn_tail: bool,
    stats: &mut ReplayStats,
) -> ServeResult<()> {
    let corrupt = |line: usize, detail: String| ServeError::Corrupt {
        path: path.display().to_string(),
        line,
        detail,
    };
    // The error `fs::read_to_string` gives a file that is not UTF-8.
    let text = std::str::from_utf8(bytes).map_err(|_| {
        io_err("wal-recover")(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })?;
    let mut lines = text.lines().enumerate();
    let Some((_, first)) = lines.next() else {
        return Ok(()); // empty file: a segment created then never written
    };
    let version =
        parse_segment_header(first.trim_end(), idx).map_err(|detail| corrupt(1, detail))?;
    let with_crc = version == SegmentVersion::V2;
    let mut apply = |line_no: usize, line: &str| -> ServeResult<()> {
        let record =
            parse_wal_line(line, with_crc).map_err(|detail| corrupt(line_no + 1, detail))?;
        if apply_record(engine, key, &record)? {
            stats.replayed += 1;
        } else {
            stats.skipped += 1;
        }
        Ok(())
    };
    let mut pending: Option<(usize, &str)> = None;
    for (line_no, line) in lines {
        if let Some((prev_no, prev)) = pending.replace((line_no, line)) {
            apply(prev_no, prev)?;
        }
    }
    if let Some((line_no, last)) = pending {
        match parse_wal_line(last, with_crc) {
            Ok(record) => {
                if apply_record(engine, key, &record)? {
                    stats.replayed += 1;
                } else {
                    stats.skipped += 1;
                }
            }
            Err(_) if tolerate_torn_tail => stats.torn_tail = true,
            Err(detail) => return Err(corrupt(line_no + 1, detail)),
        }
    }
    Ok(())
}

/// Recover one key directory into the engine: `snapshot.v3` restore (if
/// present) followed by in-order segment replay. `tolerate_torn_tail`
/// applies to the final line of the final segment only. Returns the
/// per-key replay stats plus whether a snapshot was loaded.
pub(crate) fn recover_key_dir(
    engine: &Engine,
    key: &str,
    dir: &Path,
    tolerate_torn_tail: bool,
) -> ServeResult<(ReplayStats, bool)> {
    let io = io_err("wal-recover");
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    let mut snapshot_loaded = false;
    if snapshot_path.exists() {
        let file = fs::File::open(&snapshot_path).map_err(&io)?;
        let checkpoint = persist::load_checkpoint(file)?;
        engine.restore_shard_checkpoint(key, &checkpoint)?;
        snapshot_loaded = true;
    }
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir).map_err(&io)? {
        let entry = entry.map_err(&io)?;
        if let Some(idx) = entry.file_name().to_str().and_then(segment_index) {
            segments.push((idx, entry.path()));
        }
    }
    segments.sort();
    let last_segment = segments.last().map(|(i, _)| *i);
    // Torn-tail tolerance is for the *unsealed* tail only: a segment the
    // manifest advertises was sealed and fsynced before advertisement, so
    // damage to its final line is corruption of an acknowledged durable
    // record and must fail loudly, never be silently discarded. (A torn
    // manifest itself is rebuilt later; treat it as advertising nothing.)
    let advertised = read_manifest(dir).ok().flatten().map(|m| m.segments).unwrap_or_default();
    let mut stats = ReplayStats::default();
    for (idx, path) in &segments {
        let tolerate =
            tolerate_torn_tail && Some(*idx) == last_segment && !advertised.contains_key(idx);
        let bytes = fs::read(path).map_err(io_err("wal-recover"))?;
        replay_segment(engine, key, path, &bytes, *idx, tolerate, &mut stats)?;
    }
    Ok((stats, snapshot_loaded))
}

// ---------------------------------------------------------------------------
// The log of an opened Engine
// ---------------------------------------------------------------------------

type WalMap = HashMap<String, Arc<Mutex<KeyWal>>>;

/// The per-key log an [`Engine`] opened with [`Engine::open`] carries:
/// where it lives, when it fsyncs, and one appender per key.
pub(crate) struct Wal {
    options: WalOptions,
    durability: Durability,
    wals: RwLock<WalMap>,
}

impl Wal {
    fn key_dir(&self, key: &str) -> PathBuf {
        self.options.dir.join(encode_key(key))
    }

    /// Read-acquire the WAL map. A poisoned lock is healed and reported as
    /// a recoverable [`ServeError::LockPoisoned`] instead of panicking: the
    /// map's entries are immutable `Arc` handles (a panicking inserter
    /// cannot leave one half-built in the map), so one crashed writer
    /// thread must not take down every tenant sharing the map.
    fn wals_read(&self) -> ServeResult<RwLockReadGuard<'_, WalMap>> {
        self.wals.read().map_err(|_| {
            self.wals.clear_poison();
            ServeError::LockPoisoned { what: "wal map" }
        })
    }

    fn wals_write(&self) -> ServeResult<RwLockWriteGuard<'_, WalMap>> {
        self.wals.write().map_err(|_| {
            self.wals.clear_poison();
            ServeError::LockPoisoned { what: "wal map" }
        })
    }

    pub(crate) fn key_wal(&self, key: &str) -> ServeResult<Arc<Mutex<KeyWal>>> {
        if let Some(wal) = self.wals_read()?.get(key) {
            return Ok(Arc::clone(wal));
        }
        let mut map = self.wals_write()?;
        if let Some(wal) = map.get(key) {
            return Ok(Arc::clone(wal));
        }
        let wal = Arc::new(Mutex::new(KeyWal::open(
            self.key_dir(key),
            self.options.segment_max_bytes,
            self.durability,
        )?));
        map.insert(key.to_string(), Arc::clone(&wal));
        Ok(wal)
    }

    /// Lock a key's appender. A poisoned lock means the previous holder
    /// panicked mid-operation: the lock is healed, the appender's cursor is
    /// resynchronized from disk (dropping any torn partial line), and this
    /// call reports [`ServeError::LockPoisoned`] — the *next* call on the
    /// same key proceeds normally.
    pub(crate) fn lock_wal(wal: &Arc<Mutex<KeyWal>>) -> ServeResult<MutexGuard<'_, KeyWal>> {
        match wal.lock() {
            Ok(guard) => Ok(guard),
            Err(poisoned) => {
                wal.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.repair_after_panic();
                drop(guard);
                Err(ServeError::LockPoisoned { what: "wal appender" })
            }
        }
    }
}

impl Engine {
    /// Build the engine with a per-key log under `options.dir` and recover
    /// every key found there (snapshot restore + WAL tail replay, per key).
    /// The directory is created if missing. The [`Durability`] policy is
    /// taken from the builder ([`crate::EngineBuilder::durability`]). This
    /// is the only way to get an engine whose records are logged;
    /// [`crate::EngineBuilder::build`] gives one without a log.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] for checksum/format violations in the log
    /// (naming the file and line); [`ServeError::Core`] for filesystem
    /// failures and for checkpoints that do not match the engine's policy
    /// configuration.
    pub fn open(
        builder: crate::EngineBuilder,
        options: WalOptions,
    ) -> ServeResult<(Engine, RecoveryReport)> {
        let durability = builder.durability;
        let mut engine = builder.build()?;
        let io = io_err("wal-open");
        fs::create_dir_all(&options.dir).map_err(&io)?;
        let mut key_dirs: Vec<(String, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&options.dir).map_err(&io)? {
            let entry = entry.map_err(&io)?;
            if !entry.file_type().map_err(&io)?.is_dir() {
                continue;
            }
            if let Some(key) = entry.file_name().to_str().and_then(decode_key) {
                key_dirs.push((key, entry.path()));
            }
        }
        key_dirs.sort();
        let log = Wal { options, durability, wals: RwLock::new(HashMap::new()) };
        let mut report = RecoveryReport::default();
        for (key, dir) in key_dirs {
            let (stats, snapshot_loaded) = recover_key_dir(&engine, &key, &dir, true)?;
            report.replayed += stats.replayed;
            report.skipped += stats.skipped;
            report.torn_tail |= stats.torn_tail;
            report.snapshots_loaded += usize::from(snapshot_loaded);
            let watermark = engine.with_shard(&key, |shard| shard.rounds()).unwrap_or(0);
            report.watermarks.push((key.clone(), watermark));
            // Future appends continue after the highest existing segment.
            log.key_wal(&key)?;
            report.keys.push(key);
        }
        engine.log = Some(log);
        Ok((engine, report))
    }

    /// Compatibility shim: the durable engine is the engine itself. Kept
    /// only because the benchmark (`bwbench/`) still calls it; delete it,
    /// with the `DurableEngine` alias, at the next change to the benchmark.
    #[doc(hidden)]
    pub fn engine(&self) -> &Engine {
        self
    }

    /// Root directory of the log (`None` without a log).
    pub fn dir(&self) -> Option<&Path> {
        self.log.as_ref().map(|log| log.options.dir.as_path())
    }

    /// The fsync policy the log runs with (`None` without a log).
    pub fn durability(&self) -> Option<Durability> {
        self.log.as_ref().map(|log| log.durability)
    }

    /// The engine's log, or the error a log-only call on an engine built
    /// without one reports.
    pub(crate) fn log(&self) -> ServeResult<&Wal> {
        self.log.as_ref().ok_or_else(|| {
            ServeError::Core(CoreError::InvalidParameter {
                name: "wal",
                detail: "this engine has no log; open it with Engine::open".to_string(),
            })
        })
    }

    /// Fold everything the key's WAL holds into a fresh `snapshot.v3` and
    /// delete the superseded segments. Runs under the shard's read lock
    /// (appends need the write lock, so no record can interleave between
    /// state serialization and segment deletion). A key with no shard is a
    /// no-op.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] on an engine without a log and for
    /// policies without snapshot support; [`CoreError::Io`] on filesystem
    /// failures (via [`ServeError::Core`]); [`ServeError::LockPoisoned`].
    pub fn compact(&self, key: &str) -> ServeResult<()> {
        let log = self.log()?;
        self.with_shard(key, |shard| -> ServeResult<()> {
            let mut buf = Vec::new();
            persist::save_checkpoint(shard, &mut buf)?;
            // Still inside the stripe read lock: install before any new
            // append (writers are excluded) so the snapshot supersedes
            // every segment on disk. The key has a live shard, so
            // materializing its WAL directory here is legitimate.
            let wal = log.key_wal(key)?;
            let result = Wal::lock_wal(&wal)?.install_snapshot(&buf);
            result
        })
        .unwrap_or(Ok(()))
    }

    /// Compact every key the engine currently serves; returns the keys
    /// compacted.
    ///
    /// # Errors
    /// As [`Engine::compact`]; stops at the first failing key.
    pub fn compact_all(&self) -> ServeResult<Vec<String>> {
        self.log()?;
        let keys = self.keys();
        for key in &keys {
            self.compact(key)?;
        }
        Ok(keys)
    }

    /// Run `f` with the key's appender locked (replication reads sealed
    /// files while holding the lock so compaction cannot supersede them
    /// mid-ship).
    pub(crate) fn with_key_wal<R>(
        &self,
        key: &str,
        f: impl FnOnce(&mut KeyWal) -> ServeResult<R>,
    ) -> ServeResult<R> {
        let wal = self.log()?.key_wal(key)?;
        let mut guard = Wal::lock_wal(&wal)?;
        f(&mut guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banditware_core::ArmSpec;

    /// An engine built without a log, with one recorded round on `wf`.
    fn plain_engine() -> Engine {
        let engine = Engine::builder(ArmSpec::unit_costs(2), 1).build().unwrap();
        let (ticket, _) = engine.recommend("wf", &[1.0]).unwrap();
        engine.record("wf", ticket, 5.0).unwrap();
        engine
    }

    fn assert_no_log(err: ServeError) {
        assert!(
            matches!(err, ServeError::Core(CoreError::InvalidParameter { name: "wal", .. })),
            "{err:?}"
        );
    }

    #[test]
    fn plain_engine_refuses_compact() {
        let engine = plain_engine();
        assert_eq!((engine.dir(), engine.durability()), (None, None));
        assert_no_log(engine.compact("wf").unwrap_err());
        assert_no_log(engine.compact("ghost").unwrap_err());
        assert!(!Path::new(&encode_key("wf")).exists(), "no key directory was created");
        assert_eq!(engine.with_shard("wf", |s| s.rounds()), Some(1), "state untouched");
    }

    #[test]
    fn plain_engine_refuses_compact_all() {
        assert_no_log(plain_engine().compact_all().unwrap_err());
        let empty = Engine::builder(ArmSpec::unit_costs(2), 1).build().unwrap();
        assert_no_log(empty.compact_all().unwrap_err());
        assert!(!Path::new(&encode_key("wf")).exists(), "no key directory was created");
    }

    #[test]
    fn key_encoding_roundtrips_and_is_filesystem_safe() {
        for key in ["tenant-a", "", "weird/key with spaces", "ünïcode", "a.b_c-9", "%41"] {
            let enc = encode_key(key);
            assert!(!enc.is_empty());
            assert!(
                enc.bytes().all(|b| b.is_ascii_alphanumeric() || b"-_.%k".contains(&b)),
                "{enc}"
            );
            assert_eq!(decode_key(&enc).as_deref(), Some(key), "{enc}");
        }
        // Distinct keys never collide.
        assert_ne!(encode_key("a/b"), encode_key("a_b"));
        assert_ne!(encode_key("%41"), encode_key("A"));
        assert_eq!(decode_key("not-prefixed"), None);
        assert_eq!(decode_key("k%4"), None, "truncated escape");
    }

    #[test]
    fn wal_line_roundtrips_and_is_checksummed() {
        let round = InFlightRound { arm: 2, features: &[1.5, -0.25], explored: true };
        let mut line = String::new();
        push_wal_line(&mut line, 17, Ticket::from_id(9), &round, 153.25);
        let trimmed = line.trim_end();
        let rec = parse_wal_line(trimmed, true).unwrap();
        assert_eq!(rec.seq, 17);
        assert_eq!(rec.ticket, 9);
        assert_eq!(rec.obs.arm, 2);
        assert!(rec.obs.explored);
        assert_eq!(rec.obs.runtime, 153.25);
        assert_eq!(rec.obs.features, vec![1.5, -0.25]);

        // A flipped digit *inside a float field* parses as a perfectly
        // valid record — only the checksum catches it. This is the bug the
        // CRC fixes: the old format's corruption detection relied on parse
        // failure, which a bit flip in a numeric field evades.
        let garbled = trimmed.replacen("153.25", "157.25", 1);
        let (body, _) = garbled.rsplit_once(",c").unwrap();
        let parsed = parse_wal_line(body, false).unwrap();
        assert_eq!(parsed.obs.runtime, 157.25, "v1 parsing alone cannot see the flip");
        let err = parse_wal_line(&garbled, true).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains("stored") && err.contains("computed"), "{err}");

        assert!(parse_wal_line("obs,1,2", true).is_err());
        assert!(parse_wal_line("obs,1,2,3,0,1.0", true).is_err(), "missing checksum");
        let e = parse_wal_line("sel,1,2,3,0,1.0,c00000000", true).unwrap_err();
        assert!(e.contains("checksum"), "bad crc reported first: {e}");
        // Legacy v1 lines (no checksum field) still parse in v1 mode.
        assert!(parse_wal_line("obs,1,2,0,1,5.0,2.5", false).is_ok());
        assert!(parse_wal_line("obs,1,2,0,7,5.0", false).is_err(), "bad explored flag");
    }

    /// Replay takes the bytes its caller read. A segment that is not UTF-8
    /// fails with the error `fs::read_to_string` gives that file; a UTF-8
    /// line that fails its checksum is `Corrupt` at its line.
    #[test]
    fn replayed_bytes_fail_like_the_file_they_came_from() {
        let engine = Engine::builder(banditware_core::ArmSpec::unit_costs(2), 1).build().unwrap();
        let dir = std::env::temp_dir().join(format!("bw-wal-bytes-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_name(1));
        let replay = |bytes: &[u8]| {
            replay_segment(&engine, "k", &path, bytes, 1, false, &mut ReplayStats::default())
        };
        let mut bytes = segment_header(1).into_bytes();
        bytes.extend_from_slice(b"obs,\xff\xfe\n");
        fs::write(&path, &bytes).unwrap();
        let want = io_err("wal-recover")(fs::read_to_string(&path).unwrap_err());
        assert_eq!(format!("{:?}", replay(&bytes).unwrap_err()), format!("{want:?}"));
        let mut bytes = segment_header(1).into_bytes();
        bytes.extend_from_slice(b"obs,1,2,0,1,5.0,2.5,c00000000\n");
        let err = replay(&bytes).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { line: 2, .. }), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_headers_bind_version_index_and_checksum() {
        let header = segment_header(7);
        assert_eq!(parse_segment_header(header.trim_end(), 7), Ok(SegmentVersion::V2));
        // A segment copied under the wrong index is rejected.
        let err = parse_segment_header(header.trim_end(), 8).unwrap_err();
        assert!(err.contains("wal-8.log"), "{err}");
        // Header corruption is a checksum error, not a silent accept.
        let garbled = header.trim_end().replacen(",7,", ",9,", 1);
        assert!(parse_segment_header(&garbled, 9).unwrap_err().contains("checksum"));
        // Legacy headers are recognized.
        assert_eq!(parse_segment_header(WAL_MAGIC_V1, 3), Ok(SegmentVersion::V1));
        assert!(parse_segment_header("banditware-wal v9", 1).is_err());
    }

    #[test]
    fn manifest_roundtrips_and_rejects_damage() {
        let mut manifest = Manifest {
            floor: 3,
            snapshot: Some(FileMeta { bytes: 5701, crc: 0xDEAD_BEEF }),
            segments: BTreeMap::new(),
        };
        manifest.segments.insert(3, FileMeta { bytes: 1024, crc: 1 });
        manifest.segments.insert(5, FileMeta { bytes: 77, crc: 0xFFFF_FFFF });
        let text = manifest.to_text();
        assert_eq!(Manifest::parse(&text).unwrap(), manifest);

        // Empty manifest (no snapshot yet) round-trips too.
        let empty = Manifest::default();
        assert_eq!(Manifest::parse(&empty.to_text()).unwrap(), empty);

        // Torn manifest (no end line) is rejected, not half-applied.
        let torn: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(Manifest::parse(&torn).unwrap_err().contains("torn"));
        // A flipped byte anywhere fails the end checksum.
        let garbled = text.replacen("1024", "1025", 1);
        assert!(Manifest::parse(&garbled).unwrap_err().contains("checksum mismatch"));
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("not-a-manifest\n").is_err());
    }
}

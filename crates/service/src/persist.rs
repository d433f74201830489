//! Durable budget state: a per-dataset write-ahead journal, snapshots, and the dataset
//! manifest behind `privbasis-cli serve --state-dir`.
//!
//! The cumulative ε spent against a dataset *is* its DP guarantee, so it must be the
//! most durable state in the system: an in-memory ledger that resets on `kill -9`
//! silently re-grants the whole budget. This module keeps that state on disk with
//! crash-consistent, std-only machinery (no registry dependencies — [`DebitJournal`]
//! only knows about debits and counters, never about datasets or servers):
//!
//! * **Journal** (`<name>.wal`) — an append-only file of length-prefixed, CRC-checked
//!   records. Every ledger debit is appended **and fsynced before the ε is released**
//!   (the [`JournalSink`] runs inside the [`BudgetLedger`](pb_dp::BudgetLedger) critical
//!   section), so no mechanism draws noise — let alone releases output — before its
//!   debit would survive a crash. Served-query counters ride in the same journal.
//! * **Snapshot** (`<name>.snap`) — every [`StateDir::snapshot_every`] records the
//!   journal is compacted: the absolute state is written to a temp file, fsynced,
//!   atomically renamed over the snapshot, and only then is the journal truncated.
//!   Records carry *absolute* (`spent_after`) values, so replaying a stale journal on
//!   top of a newer snapshot is harmless — recovery takes the monotone maximum.
//! * **Manifest** (`manifest.json`) — the registry's durable membership: dataset names,
//!   source paths, lifetime budgets, and row counts, re-written atomically on every
//!   registration so a restarted server can reload its full registry.
//!
//! # Crash model and torn tails
//!
//! A crash can cut an in-flight append at any byte, so replay must tolerate a *torn
//! tail* — but tolerating too much would let disk corruption masquerade as a tear and
//! silently drop records (re-granting spent ε). The frame layout resolves the
//! ambiguity: each record's length field carries its own checksum, separate from the
//! payload checksum. A tear is only ever accepted where it is provably a tear:
//!
//! * fewer than one full header left at end-of-file → torn header, dropped;
//! * an *authenticated* length whose payload runs past end-of-file → torn payload,
//!   dropped (the length is covered by its own CRC, so it cannot be a corrupted length
//!   pointing past the end);
//! * anything else that fails a check — header CRC, payload CRC, an implausible
//!   length, an unparseable payload — is corruption, and replay fails loudly rather
//!   than under-count spent ε.
//!
//! Dropping a true torn tail is safe by the fsync-before-release ordering: the debit it
//! held was never acknowledged, so losing it is "answer lost, guarantee kept". (The
//! residual risk is a multi-byte corruption that rewrites a length *and* forges its
//! CRC, ~2⁻³² per record — a disk that adversarial defeats any checksummed format.)

use crate::json::Json;
use pb_dp::{DebitSink, Epsilon};
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// First bytes of a journal file; a version bump changes the magic.
const WAL_MAGIC: &[u8; 4] = b"PBJ1";
/// First bytes of a snapshot file.
const SNAP_MAGIC: &[u8; 4] = b"PBS1";
/// Hard cap on one record's payload. Real records are under 100 bytes; a "length" above
/// this cannot come from a torn write (headers are written atomically with their
/// payload prefix, and tears only truncate), so it is reported as corruption.
const MAX_RECORD_BYTES: usize = 4096;
/// Default snapshot cadence: compact the journal every this many records.
pub const DEFAULT_SNAPSHOT_EVERY: u32 = 256;

/// The durable state replayed for one dataset's ledger.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LedgerState {
    /// Cumulative ε debited (the monotone maximum over snapshot and journal records).
    pub spent: f64,
    /// Successfully answered queries (same maximum rule).
    pub served: u64,
    /// The lifetime budget recorded when the ledger was created (`f64::INFINITY` for an
    /// unaccounted ledger; `None` only for a journal that predates its first snapshot).
    /// Recorded durably so that losing the manifest can never be parlayed into a
    /// *larger* budget: reopening with a different total is refused.
    pub total: Option<f64>,
    /// Number of records in the journal's valid prefix (metrics only; the snapshot's
    /// records are compacted away and not counted).
    pub wal_records: u64,
}

/// A stable 64-bit fingerprint of a transaction database (FNV-1a over the row/item
/// structure). Stored in the manifest so re-registering a dataset whose *content*
/// changed — even with an identical row count — is refused: the durable ledger's spent
/// ε belongs to the original data.
pub fn db_fingerprint(db: &pb_fim::TransactionDb) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    mix(db.len() as u64);
    for row in db.iter() {
        mix(row.len() as u64);
        for item in row.iter() {
            mix(item as u64 + 1);
        }
    }
    h
}

/// CRC-32 (IEEE 802.3, reflected). Bitwise — records are tiny and this avoids a table.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(crc & 1)));
        }
    }
    !crc
}

/// Bytes of a record header: `[len: u32 LE][crc32(len): u32 LE][crc32(payload): u32 LE]`.
const HEADER_BYTES: usize = 12;

/// Frames one payload as `[len][crc32(len)][crc32(payload)][payload]`.
///
/// The length carries its *own* checksum so replay can distinguish "authentic length,
/// payload torn off by a crash" (tolerated) from "corrupted length pointing past
/// end-of-file" (loud failure) — without the split, that corruption would be
/// indistinguishable from a tear and could silently drop every later record.
fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_RECORD_BYTES,
        "record payload too large"
    );
    let len = (payload.len() as u32).to_le_bytes();
    let mut framed = Vec::with_capacity(HEADER_BYTES + payload.len());
    framed.extend_from_slice(&len);
    framed.extend_from_slice(&crc32(&len).to_le_bytes());
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}

fn corrupt(path: &Path, detail: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        ErrorKind::InvalidData,
        format!("{}: {detail}", path.display()),
    )
}

/// One record parsed out of a journal or snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Record {
    /// `D <amount> <spent_after>` — one ledger debit (absolute cumulative spend).
    Debit { amount: f64, spent_after: f64 },
    /// `Q <served_after>` — the served-query counter after one answered query.
    Served { served_after: u64 },
    /// `S <spent> <served> <total>` — a full-state snapshot (snapshot files only).
    /// `total` is the ledger's lifetime budget (`inf` for an unaccounted ledger).
    Snapshot { spent: f64, served: u64, total: f64 },
}

impl Record {
    fn encode(&self) -> Vec<u8> {
        let payload = match self {
            Record::Debit {
                amount,
                spent_after,
            } => format!("D {amount} {spent_after}"),
            Record::Served { served_after } => format!("Q {served_after}"),
            Record::Snapshot {
                spent,
                served,
                total,
            } => format!("S {spent} {served} {total}"),
        };
        frame(payload.as_bytes())
    }

    fn decode(payload: &[u8]) -> Result<Record, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload".to_string())?;
        let mut parts = text.split(' ');
        let tag = parts.next().unwrap_or_default();
        let mut number = |what: &str| -> Result<f64, String> {
            let raw = parts.next().ok_or_else(|| format!("missing {what}"))?;
            let value: f64 = raw.parse().map_err(|_| format!("bad {what} `{raw}`"))?;
            if value.is_finite() && value >= 0.0 {
                Ok(value)
            } else {
                Err(format!("{what} out of range: {raw}"))
            }
        };
        let record = match tag {
            "D" => Record::Debit {
                amount: number("debit amount")?,
                spent_after: number("cumulative spend")?,
            },
            "Q" => Record::Served {
                served_after: number("served counter")? as u64,
            },
            "S" => Record::Snapshot {
                spent: number("snapshot spend")?,
                served: number("snapshot counter")? as u64,
                total: {
                    // Unlike debits, the total may legitimately be `inf`.
                    let raw = parts.next().ok_or("missing snapshot total")?;
                    let value: f64 = raw.parse().map_err(|_| format!("bad total `{raw}`"))?;
                    if value.is_nan() || value <= 0.0 {
                        return Err(format!("total out of range: {raw}"));
                    }
                    value
                },
            },
            other => return Err(format!("unknown record tag `{other}`")),
        };
        if parts.next().is_some() {
            return Err("trailing fields".to_string());
        }
        Ok(record)
    }
}

/// Walks framed records in `bytes[offset..]`, yielding each decoded record. Returns the
/// byte length of the valid prefix (a torn tail is tolerated and excluded); corruption
/// anywhere before the tail is an error.
fn scan_records(
    path: &Path,
    bytes: &[u8],
    offset: usize,
    mut visit: impl FnMut(Record) -> Result<(), String>,
) -> io::Result<u64> {
    let mut pos = offset;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(pos as u64);
        }
        if remaining < HEADER_BYTES {
            return Ok(pos as u64); // torn header at end-of-file
        }
        let len_bytes = &bytes[pos..pos + 4];
        let len = le_u32_at(bytes, pos) as usize;
        let header_crc = le_u32_at(bytes, pos + 4);
        if crc32(len_bytes) != header_crc {
            return Err(corrupt(
                path,
                format!("header checksum mismatch in record at byte {pos}"),
            ));
        }
        if len > MAX_RECORD_BYTES {
            // The length is authenticated, and the writer never frames payloads this
            // large — this header was never legitimately written.
            return Err(corrupt(path, format!("implausible record length {len}")));
        }
        if pos + HEADER_BYTES + len > bytes.len() {
            // Authentic length, missing payload bytes: a genuine torn tail.
            return Ok(pos as u64);
        }
        let payload_crc = le_u32_at(bytes, pos + 8);
        let payload = &bytes[pos + HEADER_BYTES..pos + HEADER_BYTES + len];
        if crc32(payload) != payload_crc {
            return Err(corrupt(
                path,
                format!("payload checksum mismatch in record at byte {pos}"),
            ));
        }
        let record = Record::decode(payload)
            .map_err(|e| corrupt(path, format!("record at byte {pos}: {e}")))?;
        visit(record).map_err(|e| corrupt(path, format!("record at byte {pos}: {e}")))?;
        pos += HEADER_BYTES + len;
    }
}

/// Replays a snapshot + journal pair into the ledger state they encode, returning the
/// state and the journal's valid byte length (the torn tail, if any, excluded).
///
/// Missing files mean "nothing spent yet". Recovery is monotone: the state is the
/// maximum over the snapshot and every journal record, so a journal that survived its
/// own compaction (crash between snapshot rename and truncation) cannot double-count,
/// and a record order scrambled by concurrent served-counter appends cannot undercount.
pub fn replay(snap_path: &Path, wal_path: &Path) -> io::Result<(LedgerState, u64)> {
    let mut state = LedgerState::default();

    match std::fs::read(snap_path) {
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e),
        Ok(bytes) => {
            // Snapshots are published by atomic rename, so a readable snapshot must be
            // complete: any framing problem (including a torn tail) is corruption here.
            if bytes.len() < 4 || &bytes[..4] != SNAP_MAGIC {
                return Err(corrupt(snap_path, "bad snapshot magic"));
            }
            let mut seen = false;
            let valid = scan_records(snap_path, &bytes, 4, |record| match record {
                Record::Snapshot {
                    spent,
                    served,
                    total,
                } => {
                    state.spent = state.spent.max(spent);
                    state.served = state.served.max(served);
                    state.total = Some(total);
                    seen = true;
                    Ok(())
                }
                _ => Err("snapshot file holds a non-snapshot record".to_string()),
            })?;
            if !seen || valid != bytes.len() as u64 {
                return Err(corrupt(snap_path, "incomplete snapshot"));
            }
        }
    }

    let valid_len = match std::fs::read(wal_path) {
        Err(e) if e.kind() == ErrorKind::NotFound => 0,
        Err(e) => return Err(e),
        Ok(bytes) => {
            if bytes.len() < 4 {
                // A tear during journal creation: tolerated, rewritten on open.
                if !WAL_MAGIC.starts_with(&bytes) {
                    return Err(corrupt(wal_path, "bad journal magic"));
                }
                0
            } else if &bytes[..4] != WAL_MAGIC {
                return Err(corrupt(wal_path, "bad journal magic"));
            } else {
                scan_records(wal_path, &bytes, 4, |record| {
                    state.wal_records += 1;
                    match record {
                        Record::Debit { spent_after, .. } => {
                            state.spent = state.spent.max(spent_after);
                            Ok(())
                        }
                        Record::Served { served_after } => {
                            state.served = state.served.max(served_after);
                            Ok(())
                        }
                        Record::Snapshot { .. } => {
                            Err("journal file holds a snapshot record".to_string())
                        }
                    }
                })?
            }
        }
    };
    Ok((state, valid_len))
}

/// Little-endian `u32` at `pos`. The scanner bounds-checks before calling; if
/// that invariant ever breaks, the zero word fails the adjacent CRC check and
/// the record reads as torn — fail closed, never panic a worker.
fn le_u32_at(bytes: &[u8], pos: usize) -> u32 {
    match bytes.get(pos..pos + 4) {
        Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        None => 0,
    }
}

/// Fsyncs a directory so renames and newly created files inside it are durable.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        pb_fault::inject!("dir.fsync")?;
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: temp file in the same directory, fsync, rename
/// over the target, fsync the directory. Readers see the old file or the new one, never
/// a torn mixture.
///
/// `site` prefixes the fault-injection points guarding each step (`{site}.write`,
/// `{site}.fsync`, `{site}.rename`) so chaos tests can fail the rewrite at every stage;
/// default builds discard the sites entirely.
fn write_atomic(site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let _ = site; // feeds only the injection sites below (discarded in default builds)
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        pb_fault::inject!(&format!("{site}.write"))?;
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        pb_fault::inject!(&format!("{site}.fsync"))?;
        file.sync_all()?;
    }
    pb_fault::inject!(&format!("{site}.rename"))?;
    std::fs::rename(&tmp, path)?;
    fsync_dir(dir)
}

/// A group-commit rendezvous over one append-only file: staged sequence numbers on one
/// side, fsyncs on the other. The debit journal and the audit log both use it.
///
/// Staging (writing a record's bytes into the OS buffer, under the owner's lock) hands
/// out monotone sequence numbers; [`GroupFlush::commit`] blocks until everything up to a
/// sequence is durable, electing at most one flusher at a time. Every waiter whose
/// records were staged before the elected flusher's `fsync` began is covered by that
/// one `fsync` — under concurrent spending, one disk round trip amortises over the
/// whole batch instead of serialising each debit at disk latency.
///
/// An owner that must not wait on the disk at all (the audit log) runs
/// [`GroupFlush::run_flusher`] on a thread of its own instead: stagers return at once,
/// and the flusher covers everything staged so far with one fsync per wake-up.
#[derive(Debug)]
pub struct GroupFlush {
    file: Arc<File>,
    /// The fault seam checked before every fsync (`journal.fsync`, `audit.fsync`). A
    /// function rather than a site name, so with failpoints compiled out no site name
    /// reaches the binary.
    fault: fn() -> io::Result<()>,
    state: Mutex<FlushState>,
    /// Signalled when a flush completes, the flush wedges or closes, and — while a
    /// background flusher sleeps — when a record is staged.
    done: Condvar,
    /// Duration of every completed fsync.
    fsync_us: pb_trace::Histogram,
}

#[derive(Debug, Default)]
struct FlushState {
    /// Highest sequence whose bytes are fully written to the OS buffer.
    staged: u64,
    /// Highest sequence known durable (fsync completed, or compacted into a snapshot).
    durable: u64,
    /// True while some thread is inside `sync_data` (at most one at a time).
    flushing: bool,
    /// Latched on the first fsync failure: all later commits fail (fail closed).
    wedged: bool,
    /// True while a background flusher sleeps waiting for a staged record.
    flusher_idle: bool,
    /// Set by [`GroupFlush::close`]: the background flusher drains and returns.
    closed: bool,
    /// Records made durable by an fsync (not by a snapshot), lifetime.
    records_flushed: u64,
}

/// Buckets of the fsync histogram, microseconds: a page-cache fdatasync on local disk
/// takes tens to hundreds of microseconds, a slow or contended device milliseconds.
const FSYNC_BUCKETS_US: &[u64] = &[
    25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000,
];

impl GroupFlush {
    /// A rendezvous over `file`; `fault` is the failpoint each fsync checks first.
    pub(crate) fn new(file: Arc<File>, fault: fn() -> io::Result<()>) -> Arc<GroupFlush> {
        Arc::new(GroupFlush {
            file,
            fault,
            state: Mutex::new(FlushState::default()),
            done: Condvar::new(),
            fsync_us: pb_trace::Histogram::new(FSYNC_BUCKETS_US),
        })
    }

    fn lock(&self) -> MutexGuard<'_, FlushState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, FlushState>) -> MutexGuard<'a, FlushState> {
        self.done.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Assigns the next sequence number to a fully written record, waking a sleeping
    /// background flusher.
    pub(crate) fn note_staged(&self) -> u64 {
        let mut st = self.lock();
        st.staged += 1;
        if st.flusher_idle {
            self.done.notify_all();
        }
        st.staged
    }

    /// Marks everything up to `seq` durable without an fsync (the state reached disk
    /// another way — e.g. it is covered by a durable snapshot).
    fn mark_durable_up_to(&self, seq: u64) {
        let mut st = self.lock();
        st.durable = st.durable.max(seq);
        self.done.notify_all();
    }

    fn set_wedged(&self) {
        self.lock().wedged = true;
        self.done.notify_all();
    }

    /// True once an fsync failed (or the owner gave the file up): every later commit
    /// fails.
    pub(crate) fn is_wedged(&self) -> bool {
        self.lock().wedged
    }

    /// Completed fsyncs' durations, and the records they made durable (lifetime).
    pub(crate) fn stats(&self) -> (pb_trace::HistogramSnapshot, u64) {
        (self.fsync_us.snapshot(), self.lock().records_flushed)
    }

    /// Blocks until every record staged at or before `seq` is durable, joining (or
    /// performing) a group fsync as needed.
    pub fn commit(&self, seq: u64) -> io::Result<()> {
        let mut st = self.lock();
        // A sequence beyond everything staged means "flush all there is" (and keeps a
        // buggy caller from electing itself flusher forever).
        let seq = seq.min(st.staged);
        loop {
            if st.durable >= seq {
                return Ok(());
            }
            if st.wedged {
                return Err(wedged_error());
            }
            if st.flushing {
                // Someone else is fsyncing; their flush may or may not cover us — wake
                // up and re-check either way.
                st = self.wait(st);
                continue;
            }
            // Become the flusher for everything staged so far (including ourselves —
            // our record was staged before commit was called).
            let (next, result) = self.flush_staged(st);
            result?;
            st = next;
        }
    }

    /// The body of a background flusher thread: sleeps until a record is staged past
    /// the durable mark, then makes everything staged so far durable with one fsync,
    /// and repeats. Returns `Ok` once [`GroupFlush::close`] was called and every staged
    /// record is durable, or the error of the fsync that wedged the flush.
    pub(crate) fn run_flusher(&self) -> io::Result<()> {
        let mut st = self.lock();
        loop {
            if st.wedged {
                return Err(wedged_error());
            }
            if st.staged > st.durable && !st.flushing {
                let (next, result) = self.flush_staged(st);
                result?;
                st = next;
                continue;
            }
            if st.closed && st.staged <= st.durable {
                return Ok(());
            }
            st.flusher_idle = true;
            st = self.wait(st);
            st.flusher_idle = false;
        }
    }

    /// Blocks until every record staged at or before `seq` is durable, leaving the fsync
    /// to the background flusher ([`GroupFlush::run_flusher`], which must be running).
    pub(crate) fn wait_durable(&self, seq: u64) -> io::Result<()> {
        let mut st = self.lock();
        let seq = seq.min(st.staged);
        while st.durable < seq {
            if st.wedged {
                return Err(wedged_error());
            }
            st = self.wait(st);
        }
        Ok(())
    }

    /// Asks a background flusher to return once everything staged is durable.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.done.notify_all();
    }

    /// One elected fsync covering every record staged before it began. Takes the state
    /// lock with no flush in progress and hands it back after the flush.
    fn flush_staged<'a>(
        &'a self,
        mut st: MutexGuard<'a, FlushState>,
    ) -> (MutexGuard<'a, FlushState>, io::Result<()>) {
        st.flushing = true;
        let target = st.staged;
        drop(st);
        let started = Instant::now();
        // audit:allow(failpoint-adjacency): `fault` is the owner's inject! seam (`journal.fsync` or `audit.fsync`), checked first
        let result = (self.fault)().and_then(|()| self.file.sync_data());
        let elapsed_us = started.elapsed().as_micros() as u64;
        let mut st = self.lock();
        st.flushing = false;
        match result {
            Ok(()) => {
                self.fsync_us.observe_us(elapsed_us);
                st.records_flushed += target.saturating_sub(st.durable);
                st.durable = st.durable.max(target);
            }
            Err(_) => st.wedged = true,
        }
        self.done.notify_all();
        (st, result)
    }
}

fn wedged_error() -> io::Error {
    io::Error::other("group flush is wedged after an earlier fsync failure; restart to recover")
}

/// Size and compaction metrics of one journal (the `status` op surfaces these per
/// dataset; a future metrics endpoint reads the same numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Current journal file length in bytes (magic included).
    pub wal_bytes: u64,
    /// Records in the current journal file (since the last compaction).
    pub wal_records: u64,
    /// Completed snapshot compactions over this journal handle's lifetime (starts at 0
    /// on open; a fresh journal's total-pinning snapshot counts as the first).
    pub snapshot_generation: u64,
}

/// The write-ahead journal for one dataset's ledger: staged appends with group-commit
/// fsyncs, periodic snapshot + truncation.
///
/// Records are **staged** (written to the OS buffer, sequence-numbered) under the
/// journal lock and made durable by [`GroupFlush::commit`] *outside* it, so one fsync
/// covers every concurrently staged record. A journal that hits a write error it cannot
/// undo (the bytes that reached disk are unknown) **wedges**: every later stage fails,
/// which makes the owning ledger reject all spends — the service fails *closed* on
/// persistence trouble, never open.
#[derive(Debug)]
pub struct DebitJournal {
    file: Arc<File>,
    wal_path: PathBuf,
    snap_path: PathBuf,
    dir: PathBuf,
    flush: Arc<GroupFlush>,
    /// Byte length of the journal's staged, valid prefix (tear-repair target).
    staged_len: u64,
    /// Mirrors of the staged state, maintained so snapshots need no replay.
    spent: f64,
    served: u64,
    /// Lifetime budget, pinned into every snapshot (`f64::INFINITY` when unaccounted).
    total: f64,
    /// Records in the current journal file (replayed prefix + stages since open).
    records_in_wal: u64,
    snapshot_generation: u64,
    records_since_snapshot: u32,
    snapshot_every: u32,
    wedged: bool,
}

impl DebitJournal {
    /// Opens (or creates) the journal for `name` under `dir`, replaying any existing
    /// snapshot + journal into the returned [`LedgerState`]. A torn tail left by a
    /// crash is truncated away before the journal accepts new appends.
    ///
    /// `total` is the ledger's lifetime budget. A fresh journal records it durably (in
    /// the initial snapshot); an existing journal whose recorded total differs refuses
    /// to open — so a lost manifest can never be parlayed into a larger budget over
    /// the same spent ε.
    pub fn open(
        dir: &Path,
        name: &str,
        snapshot_every: u32,
        total: Epsilon,
    ) -> io::Result<(LedgerState, Self)> {
        let wal_path = dir.join(format!("{name}.wal"));
        let snap_path = dir.join(format!("{name}.snap"));
        let (state, valid_len) = replay(&snap_path, &wal_path)?;
        if let Some(recorded) = state.total {
            if recorded != total.value() {
                return Err(corrupt(
                    &snap_path,
                    format!(
                        "durable ledger was created with total ε = {recorded} but this open \
                         requested ε = {} — pass the original budget or use a fresh state dir",
                        total.value()
                    ),
                ));
            }
        }
        let file = Arc::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&wal_path)?,
        );
        let staged_len = if valid_len < 4 {
            // Fresh file, or a tear inside the magic: start the journal over.
            file.set_len(0)?;
            (&*file).write_all(WAL_MAGIC)?;
            4
        } else {
            // Drop the torn tail so new records append to a valid prefix.
            file.set_len(valid_len)?;
            valid_len
        };
        pb_fault::inject!("journal.open.fsync")?;
        file.sync_all()?;
        fsync_dir(dir)?;
        let flush = GroupFlush::new(Arc::clone(&file), || pb_fault::inject!("journal.fsync"));
        let mut journal = DebitJournal {
            file,
            wal_path,
            snap_path,
            dir: dir.to_path_buf(),
            flush,
            staged_len,
            spent: state.spent,
            served: state.served,
            total: total.value(),
            records_in_wal: state.wal_records,
            snapshot_generation: 0,
            records_since_snapshot: 0,
            snapshot_every: snapshot_every.max(1),
            wedged: false,
        };
        if state.total.is_none() {
            // First open: pin the total on disk before any debit can happen.
            journal.snapshot_now()?;
        }
        Ok((state, journal))
    }

    /// The group-commit handle callers use to make staged records durable without
    /// holding the journal lock.
    pub fn flush_handle(&self) -> Arc<GroupFlush> {
        Arc::clone(&self.flush)
    }

    /// Stages one record — fully written to the OS buffer, sequence-numbered, not yet
    /// fsynced — and opportunistically compacts. Returns the sequence to pass to
    /// [`GroupFlush::commit`].
    fn stage(&mut self, record: Record) -> io::Result<u64> {
        if self.wedged || self.flush.is_wedged() {
            return Err(io::Error::other(format!(
                "journal {} is wedged after an earlier failure; restart to recover",
                self.wal_path.display()
            )));
        }
        if matches!(record, Record::Snapshot { .. }) {
            // Snapshots travel through compaction, never the append path; refuse
            // loudly but without killing the worker.
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "snapshot records are not staged to the journal",
            ));
        }
        let bytes = record.encode();
        if let Err(e) =
            pb_fault::inject!("journal.append").and_then(|()| (&*self.file).write_all(&bytes))
        {
            // How much of the record reached the file is unknown; try to cut back to
            // the last staged prefix, and fail closed for good if even that fails.
            if self.file.set_len(self.staged_len).is_err() {
                self.wedged = true;
                self.flush.set_wedged();
            }
            return Err(e);
        }
        self.staged_len += bytes.len() as u64;
        match record {
            Record::Debit { spent_after, .. } => self.spent = self.spent.max(spent_after),
            Record::Served { served_after } => self.served = self.served.max(served_after),
            Record::Snapshot { .. } => {} // rejected above, before any bytes were written
        }
        let seq = self.flush.note_staged();
        self.records_in_wal += 1;
        self.records_since_snapshot += 1;
        // NOTE: no compaction here. Staging runs inside the ledger's check-and-debit
        // critical section, and the snapshot costs several fsyncs — callers trigger
        // [`DebitJournal::maybe_compact`] from the commit phase instead, where the
        // budget mutex is no longer held.
        Ok(seq)
    }

    /// Overrides the snapshot cadence for this open journal (the `snapshot_every`
    /// admin op). Takes effect from the next [`DebitJournal::maybe_compact`] check;
    /// cadence is purely operational, so no snapshot is forced here.
    pub fn set_snapshot_every(&mut self, every: u32) {
        self.snapshot_every = every.max(1);
    }

    /// Compacts the journal if the snapshot cadence has been reached (best-effort — a
    /// failed compaction just leaves the journal longer until the next attempt).
    ///
    /// Deliberately separate from [`stage`](Self::stage): the commit phase calls this
    /// *outside* the ledger's critical section, so the (multi-fsync) snapshot never
    /// runs while the budget mutex is held. A same-dataset spender that races the
    /// (rare — once per cadence) compaction can still wait on the journal lock; other
    /// datasets are unaffected.
    pub fn maybe_compact(&mut self) {
        if !self.wedged && self.records_since_snapshot >= self.snapshot_every {
            let _ = self.snapshot_now();
        }
    }

    /// Stages one served-query counter record (commit through
    /// [`DebitJournal::flush_handle`], or let a later group fsync / snapshot cover it).
    pub fn stage_served(&mut self, served_after: u64) -> io::Result<u64> {
        self.stage(Record::Served { served_after })
    }

    /// Writes a snapshot of the current state and truncates the journal.
    ///
    /// Ordering is what makes this crash-consistent: the snapshot is durable (temp →
    /// fsync → rename → dir fsync) *before* the journal shrinks, and journal records
    /// carry absolute values, so a crash anywhere in between replays to the same state.
    /// A durable snapshot also *is* a commit: it captures every staged record's state,
    /// so the group flush is advanced past them and waiting committers are released.
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        let mut bytes = SNAP_MAGIC.to_vec();
        bytes.extend_from_slice(
            &Record::Snapshot {
                spent: self.spent,
                served: self.served,
                total: self.total,
            }
            .encode(),
        );
        // A failure before the truncation leaves the journal untouched (the snapshot
        // file is old or new, both consistent) — safe to just report.
        write_atomic("snapshot", &self.snap_path, &bytes)?;
        // Every record staged so far (staging holds the journal lock, which we hold) is
        // now durable via the snapshot, however the truncation below fares.
        let covered = self.flush.lock().staged;
        // Keep the magic, drop the records.
        pb_fault::inject!("journal.truncate").and_then(|()| self.file.set_len(4))?;
        // The in-process file is 4 bytes from here on, whatever happens below: update
        // the bookkeeping *now* so a later write-error repair (`set_len(staged_len)`)
        // can never extend the file with zero bytes.
        self.staged_len = 4;
        self.records_in_wal = 0;
        self.records_since_snapshot = 0;
        self.snapshot_generation += 1;
        self.flush.mark_durable_up_to(covered);
        if let Err(e) = pb_fault::inject!("journal.truncate.fsync")
            .and_then(|()| self.file.sync_data())
            .and_then(|()| fsync_dir(&self.dir))
        {
            // The truncation's durability is unknown; stop accepting stages (fail
            // closed) rather than risk interleaving new records with an undead tail.
            self.wedged = true;
            self.flush.set_wedged();
            return Err(e);
        }
        Ok(())
    }

    /// Current journal file length in bytes (tests and cadence introspection).
    pub fn wal_len(&self) -> u64 {
        self.staged_len
    }

    /// Cumulative ε spent according to the staged journal state. Monotone: it reflects
    /// every record staged so far, whether or not its fsync has completed (staged and
    /// then crashed records can only make the durable value *larger*, never smaller).
    /// Used when a live journal handle is adopted by a re-registration instead of being
    /// replayed from disk.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Served-query counter according to the staged journal state (same monotonicity
    /// argument as [`DebitJournal::spent`]).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The lifetime budget this journal pins (`f64::INFINITY` for an unaccounted
    /// ledger).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Size and compaction metrics for the `status` op.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            wal_bytes: self.staged_len,
            wal_records: self.records_in_wal,
            snapshot_generation: self.snapshot_generation,
        }
    }

    /// True once the journal has failed closed, whether from a write error it could
    /// not undo or from a failed group fsync (see the type docs). A wedged journal's
    /// dataset degrades to read-only serving until a restart replays the durable state.
    pub fn is_wedged(&self) -> bool {
        self.wedged || self.flush.is_wedged()
    }
}

/// A [`DebitJournal`] shared between the ledger's debit sink and the served-counter
/// path. Lock order: the ledger's critical section may take this lock (staging); other
/// holders take only this lock — no cycles. Group-commit fsyncs never hold it.
pub type SharedJournal = Arc<Mutex<DebitJournal>>;

/// Adapts a [`SharedJournal`] to the two-phase [`DebitSink`] hook of
/// [`pb_dp::BudgetLedger::with_journal`]: each debit is *staged* (journal lock, inside
/// the ledger's critical section) and then *committed* through the journal's
/// [`GroupFlush`] — no locks held, so concurrent debits share one fsync — before the ε
/// is released to the caller.
#[derive(Debug)]
pub struct JournalSink {
    journal: SharedJournal,
    flush: Arc<GroupFlush>,
}

impl JournalSink {
    /// Builds the sink for a shared journal.
    pub fn new(journal: SharedJournal) -> JournalSink {
        let flush = journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush_handle();
        JournalSink { journal, flush }
    }
}

impl DebitSink for JournalSink {
    fn stage_debit(&self, amount: f64, spent_after: f64) -> io::Result<u64> {
        self.journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stage(Record::Debit {
                amount,
                spent_after,
            })
    }

    fn commit_debit(&self, seq: u64) -> io::Result<()> {
        self.flush.commit(seq)?;
        // Cadence compaction, on the committer's time: the budget mutex is not held
        // here, so the snapshot's fsyncs never sit inside the check-and-debit section.
        self.journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .maybe_compact();
        Ok(())
    }
}

/// One dataset's row in the durable manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Registered dataset name (also the journal/snapshot file stem).
    pub name: String,
    /// Source data file, when the dataset was registered from one; `None` for
    /// in-process registrations, which recovery reports as skipped.
    pub path: Option<String>,
    /// The lifetime budget the ledger was created with.
    pub epsilon: Epsilon,
    /// Row count at registration (human-readable sanity figure; the fingerprint is the
    /// binding check).
    pub transactions: usize,
    /// [`db_fingerprint`] of the data at registration — a changed source file under an
    /// existing ledger is refused even at the same row count (the spent ε belongs to
    /// *that* data).
    pub fingerprint: u64,
    /// Row-shard count the dataset is served with (1 = unsharded). Recorded so recovery
    /// rebuilds the same layout; changing it is safe (releases are byte-identical for
    /// any shard count) and simply re-recorded on re-registration.
    pub shards: usize,
    /// Remote shard-worker addresses the dataset's shard prefix is placed on (empty =
    /// all shards local). Recorded so recovery re-places shards on the same workers;
    /// like the shard count, placement is a free knob — releases are byte-identical
    /// across local, remote, and mixed placement.
    pub workers: Vec<String>,
    /// Local-DP channel parameters for a `mode: ldp` dataset (`None` for central-mode
    /// datasets). An LDP dataset's privacy was spent client-side at perturbation time,
    /// so these rows carry no ledger — the parameters are recorded so recovery rebuilds
    /// the same debiasing channel, and so a cross-mode re-registration can be refused.
    pub ldp: Option<pb_proto::LdpParams>,
    /// Whether the server-side consistency post-processing step runs for this dataset
    /// (default `true`; an offline knob flipped by the `consistency` admin op).
    /// Post-processing never touches the budget, so the toggle is a free knob.
    pub consistency: bool,
}

/// The durable registry membership: every dataset a `--state-dir` server must reload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Entries in registration order.
    pub datasets: Vec<ManifestEntry>,
    /// Journal compaction cadence override set by the `snapshot_every` admin op
    /// (`None` = the server's configured default). Recorded here so the knob
    /// survives a restart; purely operational — cadence never changes what is
    /// durable, only how often the journal is compacted.
    pub snapshot_every: Option<u32>,
}

impl Manifest {
    /// Looks an entry up by dataset name.
    pub fn get(&self, name: &str) -> Option<&ManifestEntry> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Inserts or replaces the entry for `entry.name`.
    pub fn upsert(&mut self, entry: ManifestEntry) {
        match self.datasets.iter_mut().find(|d| d.name == entry.name) {
            Some(slot) => *slot = entry,
            None => self.datasets.push(entry),
        }
    }

    /// Removes the entry for `name`, returning whether one existed. Only the membership
    /// record goes away — the dataset's journal/snapshot files stay on disk, so a later
    /// re-registration under the same name inherits its spent ε.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.datasets.len();
        self.datasets.retain(|d| d.name != name);
        self.datasets.len() != before
    }

    fn to_json(&self) -> Json {
        let rows = self
            .datasets
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("name".into(), Json::String(d.name.clone())),
                    (
                        "path".into(),
                        match &d.path {
                            Some(p) => Json::String(p.clone()),
                            None => Json::Null,
                        },
                    ),
                    (
                        "epsilon".into(),
                        match d.epsilon {
                            Epsilon::Finite(e) => Json::Number(e),
                            Epsilon::Infinite => Json::Null,
                        },
                    ),
                    ("transactions".into(), Json::Number(d.transactions as f64)),
                    // Hex string: u64 does not survive a JSON double round trip.
                    (
                        "fingerprint".into(),
                        Json::String(format!("{:016x}", d.fingerprint)),
                    ),
                    ("shards".into(), Json::Number(d.shards as f64)),
                ];
                // Only written when a placement exists, so manifests from all-local
                // servers keep their pre-fabric bytes.
                if !d.workers.is_empty() {
                    fields.push((
                        "workers".into(),
                        Json::Array(d.workers.iter().cloned().map(Json::String).collect()),
                    ));
                }
                // Only written for LDP datasets, so central-mode manifests keep their
                // pre-LDP bytes. ε_local = ∞ (the identity channel) encodes as null,
                // mirroring the `epsilon` convention above.
                if let Some(ldp) = &d.ldp {
                    fields.push((
                        "ldp".into(),
                        Json::Object(vec![
                            (
                                "epsilon_local".into(),
                                if ldp.epsilon_local.is_finite() {
                                    Json::Number(ldp.epsilon_local)
                                } else {
                                    Json::Null
                                },
                            ),
                            ("universe".into(), Json::Number(ldp.universe as f64)),
                            ("pad".into(), Json::Number(ldp.pad as f64)),
                        ]),
                    ));
                }
                // Only written when the knob was flipped off the default.
                if !d.consistency {
                    fields.push(("consistency".into(), Json::Bool(false)));
                }
                Json::Object(fields)
            })
            .collect();
        let mut fields = vec![
            ("version".into(), Json::Number(1.0)),
            ("datasets".into(), Json::Array(rows)),
        ];
        // Only written when an operator overrode the cadence.
        if let Some(every) = self.snapshot_every {
            fields.push(("snapshot_every".into(), Json::Number(every as f64)));
        }
        Json::Object(fields)
    }

    fn from_json(value: &Json) -> Result<Manifest, String> {
        if value.get("version").and_then(Json::as_u64) != Some(1) {
            return Err("unsupported manifest version".into());
        }
        let rows = value
            .get("datasets")
            .and_then(Json::as_array)
            .ok_or("manifest needs a `datasets` array")?;
        let mut datasets = Vec::with_capacity(rows.len());
        for row in rows {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or("manifest entry needs a `name`")?
                .to_string();
            let path = match row.get("path") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or("manifest `path` must be a string or null")?
                        .to_string(),
                ),
            };
            let epsilon = match row.get("epsilon") {
                None | Some(Json::Null) => Epsilon::Infinite,
                Some(v) => Epsilon::new(v.as_f64().ok_or("manifest `epsilon` must be a number")?)
                    .map_err(|e| e.to_string())?,
            };
            let transactions =
                row.get("transactions")
                    .and_then(Json::as_u64)
                    .ok_or("manifest entry needs a `transactions` count")? as usize;
            let fingerprint = row
                .get("fingerprint")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("manifest entry needs a hex `fingerprint`")?;
            // Absent in manifests written before sharding existed: those datasets are
            // unsharded by construction.
            let shards = match row.get("shards") {
                None | Some(Json::Null) => 1,
                Some(v) => (v
                    .as_u64()
                    .ok_or("manifest `shards` must be a positive integer")?
                    as usize)
                    .max(1),
            };
            // Absent in manifests written before the shard fabric existed: those
            // datasets serve every shard locally.
            let workers = match row.get("workers") {
                None | Some(Json::Null) => Vec::new(),
                Some(v) => v
                    .as_array()
                    .ok_or("manifest `workers` must be an array of addresses")?
                    .iter()
                    .map(|w| {
                        w.as_str()
                            .map(str::to_string)
                            .ok_or("manifest `workers` entries must be strings")
                    })
                    .collect::<Result<Vec<String>, _>>()?,
            };
            // Absent in manifests written before the LDP workload class existed:
            // those datasets are central-mode by construction.
            let ldp = match row.get("ldp") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let epsilon_local = match v.get("epsilon_local") {
                        None | Some(Json::Null) => f64::INFINITY,
                        Some(e) => e
                            .as_f64()
                            .ok_or("manifest `ldp.epsilon_local` must be a number or null")?,
                    };
                    let universe = v
                        .get("universe")
                        .and_then(Json::as_u64)
                        .ok_or("manifest `ldp.universe` must be a positive integer")?
                        as u32;
                    let pad = v
                        .get("pad")
                        .and_then(Json::as_u64)
                        .ok_or("manifest `ldp.pad` must be a positive integer")?;
                    Some(pb_proto::LdpParams {
                        epsilon_local,
                        universe,
                        pad,
                    })
                }
            };
            // Absent when the knob was never flipped: consistency defaults on.
            let consistency = match row.get("consistency") {
                None | Some(Json::Null) => true,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("manifest `consistency` must be a boolean".into()),
            };
            datasets.push(ManifestEntry {
                name,
                path,
                epsilon,
                transactions,
                fingerprint,
                shards,
                workers,
                ldp,
                consistency,
            });
        }
        // Absent in manifests written before the cadence knob existed.
        let snapshot_every = match value.get("snapshot_every") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&n| n > 0 && n <= u32::MAX as u64)
                    .ok_or("manifest `snapshot_every` must be a positive integer")?
                    as u32,
            ),
        };
        Ok(Manifest {
            datasets,
            snapshot_every,
        })
    }
}

/// A directory holding everything a `--state-dir` server must recover: the manifest
/// plus one journal/snapshot pair per dataset.
///
/// Opening takes an **exclusive advisory lock** on `<root>/.lock` held for the
/// `StateDir`'s lifetime: two servers pointed at one state directory would race the
/// manifest and the journals (double-granting ε between their in-memory ledgers), so
/// the second open fails fast instead. The lock is released by the OS when the process
/// exits — including `kill -9` — so crash-restart never needs manual cleanup.
#[derive(Debug)]
pub struct StateDir {
    root: PathBuf,
    /// Atomic so the `snapshot_every` admin op can retune the cadence for journals
    /// opened later without exclusive access to the registry's `StateDir`.
    snapshot_every: AtomicU32,
    /// The held lock file; dropping it releases the advisory lock.
    _lock: File,
}

impl StateDir {
    /// Opens (creating if needed) a state directory, acquiring its exclusive lock.
    ///
    /// Fails with [`ErrorKind::WouldBlock`]-flavoured detail when another process (or
    /// another live `StateDir` in this process) already holds the directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<StateDir> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        // `.lock` starts with a dot, which `valid_dataset_name` rejects, so no dataset
        // journal can ever collide with it.
        let lock = pb_fault::inject!("statedir.lock.create")
            .and_then(|()| File::create(root.join(".lock")))?;
        lock.try_lock().map_err(|e| {
            io::Error::new(
                ErrorKind::WouldBlock,
                format!(
                    "state dir {} is locked by another server \
                     (two servers on one state dir would race the ledgers): {e}",
                    root.display()
                ),
            )
        })?;
        Ok(StateDir {
            root,
            snapshot_every: AtomicU32::new(DEFAULT_SNAPSHOT_EVERY),
            _lock: lock,
        })
    }

    /// Overrides the journal compaction cadence (records between snapshots).
    pub fn with_snapshot_every(self, snapshot_every: u32) -> StateDir {
        self.set_snapshot_every(snapshot_every);
        self
    }

    /// Retunes the cadence on a live state dir (the `snapshot_every` admin op).
    /// Applies to journals opened from now on; the registry separately retunes the
    /// journals that are already open.
    pub fn set_snapshot_every(&self, snapshot_every: u32) {
        self.snapshot_every
            .store(snapshot_every.max(1), Ordering::Relaxed);
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The configured compaction cadence.
    pub fn snapshot_every(&self) -> u32 {
        self.snapshot_every.load(Ordering::Relaxed)
    }

    /// True when `name` can safely double as a journal file stem (no separators, no
    /// traversal, nothing the filesystem could reinterpret).
    pub fn valid_dataset_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 128
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
    }

    /// Opens the journal for `name` with lifetime budget `total`, replaying any durable
    /// state (see [`DebitJournal::open`]).
    pub fn open_dataset(
        &self,
        name: &str,
        total: Epsilon,
    ) -> io::Result<(LedgerState, SharedJournal)> {
        let (state, journal) = DebitJournal::open(&self.root, name, self.snapshot_every(), total)?;
        Ok((state, Arc::new(Mutex::new(journal))))
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// Loads the manifest, or `None` when this is a fresh state directory.
    pub fn load_manifest(&self) -> io::Result<Option<Manifest>> {
        let path = self.manifest_path();
        let mut text = String::new();
        match File::open(&path) {
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
            Ok(mut file) => {
                file.read_to_string(&mut text)?;
            }
        }
        let value = Json::parse(&text).map_err(|e| corrupt(&path, e))?;
        Manifest::from_json(&value)
            .map(Some)
            .map_err(|e| corrupt(&path, e))
    }

    /// Atomically replaces the manifest.
    pub fn store_manifest(&self, manifest: &Manifest) -> io::Result<()> {
        write_atomic(
            "manifest.store",
            &self.manifest_path(),
            manifest.to_json().to_string().as_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Total budget used by every journal in these tests (the value is arbitrary; it
    /// only has to be the same across reopens of one journal).
    const TEST_TOTAL: Epsilon = Epsilon::Finite(1e9);

    /// A unique scratch directory per test (cleaned up on drop; leaked on panic).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "pb-persist-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_round_trip() {
        for record in [
            Record::Debit {
                amount: 0.1,
                spent_after: 0.30000000000000004,
            },
            Record::Served { served_after: 42 },
            Record::Snapshot {
                spent: 1.5,
                served: 7,
                total: 4.0,
            },
            Record::Snapshot {
                spent: 0.25,
                served: 1,
                total: f64::INFINITY,
            },
        ] {
            let bytes = record.encode();
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            assert_eq!(len + HEADER_BYTES, bytes.len());
            assert_eq!(Record::decode(&bytes[HEADER_BYTES..]).unwrap(), record);
        }
        assert!(Record::decode(b"X 1 2").is_err());
        assert!(Record::decode(b"D 1").is_err());
        assert!(Record::decode(b"D 1 2 3").is_err());
        assert!(Record::decode(b"D nan 2").is_err());
        assert!(Record::decode(b"D -1 2").is_err());
        assert!(Record::decode(&[0xff, 0xfe, b'D']).is_err());
    }

    #[test]
    fn missing_files_replay_to_zero() {
        let scratch = Scratch::new("fresh");
        let (state, valid) = replay(&scratch.0.join("x.snap"), &scratch.0.join("x.wal")).unwrap();
        assert_eq!(state, LedgerState::default());
        assert_eq!(valid, 0);
    }

    #[test]
    fn journal_appends_replay_exactly() {
        let scratch = Scratch::new("appends");
        let (state, journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        assert_eq!(state, LedgerState::default());
        {
            let sink = JournalSink::new(Arc::new(Mutex::new(journal)));
            let seq = sink.stage_debit(0.25, 0.25).unwrap();
            sink.commit_debit(seq).unwrap();
        }
        // Reopen path: state must match what the sink persisted.
        let (state, mut j) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        assert_eq!(state.spent, 0.25);
        assert_eq!(state.served, 0);
        assert_eq!(state.wal_records, 1);
        let seq = j
            .stage(Record::Debit {
                amount: 0.5,
                spent_after: 0.75,
            })
            .unwrap();
        j.stage_served(1).unwrap();
        j.flush_handle().commit(seq).unwrap();
        drop(j);
        let (state, _) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        assert_eq!(state.spent, 0.75);
        assert_eq!(state.served, 1);
        assert_eq!(state.wal_records, 3);
    }

    #[test]
    fn group_flush_covers_every_staged_record_with_one_fsync() {
        // Stage several records, then commit only the *last* sequence: the one flush
        // must mark every earlier record durable too, so earlier commits return
        // immediately without touching the disk again.
        let scratch = Scratch::new("groupflush");
        let (_, mut journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        let seqs: Vec<u64> = (1..=5)
            .map(|i| {
                journal
                    .stage(Record::Debit {
                        amount: 0.1,
                        spent_after: 0.1 * i as f64,
                    })
                    .unwrap()
            })
            .collect();
        let flush = journal.flush_handle();
        flush.commit(*seqs.last().unwrap()).unwrap();
        // All earlier sequences are already durable: no flusher election needed.
        for &seq in &seqs {
            flush.commit(seq).unwrap();
        }
        drop(journal);
        let (state, _) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        assert!((state.spent - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_commits_share_flushes_and_all_become_durable() {
        let scratch = Scratch::new("groupconc");
        let (_, journal) = DebitJournal::open(&scratch.0, "d", 10_000, TEST_TOTAL).unwrap();
        let shared = Arc::new(Mutex::new(journal));
        let sink = Arc::new(JournalSink::new(Arc::clone(&shared)));
        let spent = Arc::new(Mutex::new(0.0f64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sink = Arc::clone(&sink);
                let spent = Arc::clone(&spent);
                scope.spawn(move || {
                    for _ in 0..25 {
                        // Serialise the stage like the ledger's critical section does.
                        let seq = {
                            let mut total = spent.lock().unwrap();
                            *total += 0.01;
                            sink.stage_debit(0.01, *total).unwrap()
                        };
                        sink.commit_debit(seq).unwrap();
                    }
                });
            }
        });
        drop(sink);
        drop(shared);
        let (state, _) = DebitJournal::open(&scratch.0, "d", 10_000, TEST_TOTAL).unwrap();
        assert!((state.spent - 1.0).abs() < 1e-9, "spent {}", state.spent);
        assert_eq!(state.wal_records, 100);
    }

    #[test]
    fn background_flusher_makes_staged_records_durable_until_closed() {
        let scratch = Scratch::new("bgflush");
        let file = Arc::new(File::create(scratch.0.join("log")).unwrap());
        let flush = GroupFlush::new(Arc::clone(&file), || Ok(()));
        let flusher = {
            let flush = Arc::clone(&flush);
            std::thread::spawn(move || flush.run_flusher())
        };
        for round in 1..=3u64 {
            for _ in 0..4 {
                (&*file).write_all(b"line\n").unwrap();
                flush.note_staged();
            }
            // Waiting leaves the fsync to the flusher, and returns once it covered us.
            flush.wait_durable(u64::MAX).unwrap();
            assert_eq!(flush.stats().1, 4 * round);
        }
        let (fsyncs, _) = flush.stats();
        assert!(fsyncs.count >= 3 && fsyncs.count <= 12, "{fsyncs:?}");
        // Closing drains what is staged, then ends the flusher.
        (&*file).write_all(b"tail\n").unwrap();
        flush.note_staged();
        flush.close();
        flusher.join().unwrap().unwrap();
        assert_eq!(flush.stats().1, 13);
    }

    #[test]
    fn a_failed_background_fsync_wedges_and_wakes_waiters() {
        let scratch = Scratch::new("bgwedge");
        let file = Arc::new(File::create(scratch.0.join("log")).unwrap());
        let flush = GroupFlush::new(file, || Err(io::Error::other("disk gone")));
        flush.note_staged();
        let flusher = {
            let flush = Arc::clone(&flush);
            std::thread::spawn(move || flush.run_flusher())
        };
        let err = flusher.join().unwrap().unwrap_err();
        assert_eq!(err.to_string(), "disk gone");
        assert!(flush.is_wedged());
        assert!(flush.wait_durable(u64::MAX).is_err());
        assert!(flush.commit(1).is_err());
        assert_eq!(flush.stats().1, 0);
    }

    #[test]
    fn journal_stats_track_size_records_and_generations() {
        let scratch = Scratch::new("stats");
        let (_, mut journal) = DebitJournal::open(&scratch.0, "d", 4, TEST_TOTAL).unwrap();
        // The fresh journal pinned its total with one snapshot already.
        assert_eq!(journal.stats().snapshot_generation, 1);
        assert_eq!(journal.stats().wal_records, 0);
        assert_eq!(journal.stats().wal_bytes, 4);
        for i in 1..=3 {
            journal
                .stage(Record::Debit {
                    amount: 0.1,
                    spent_after: 0.1 * i as f64,
                })
                .unwrap();
        }
        let stats = journal.stats();
        assert_eq!(stats.wal_records, 3);
        assert!(stats.wal_bytes > 4);
        // Below the cadence: maybe_compact is a no-op.
        journal.maybe_compact();
        assert_eq!(journal.stats().wal_records, 3);
        // The 4th record crosses the cadence; staging alone never compacts (that
        // would put the snapshot's fsyncs inside the ledger critical section) — the
        // commit-phase maybe_compact does.
        journal
            .stage(Record::Debit {
                amount: 0.1,
                spent_after: 0.4,
            })
            .unwrap();
        assert_eq!(journal.stats().wal_records, 4);
        journal.maybe_compact();
        let stats = journal.stats();
        assert_eq!(stats.wal_records, 0);
        assert_eq!(stats.wal_bytes, 4);
        assert_eq!(stats.snapshot_generation, 2);
        // Reopened journals report the replayed record count.
        let seq = journal
            .stage(Record::Debit {
                amount: 0.1,
                spent_after: 0.5,
            })
            .unwrap();
        journal.flush_handle().commit(seq).unwrap();
        drop(journal);
        let (state, journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        assert_eq!(state.wal_records, 1);
        assert_eq!(journal.stats().wal_records, 1);
    }

    #[test]
    fn state_dir_lock_excludes_concurrent_opens() {
        let scratch = Scratch::new("lock");
        let held = StateDir::open(&scratch.0).unwrap();
        let err = StateDir::open(&scratch.0).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock, "{err}");
        assert!(err.to_string().contains("locked"), "{err}");
        // Dropping the holder releases the lock for the next open.
        drop(held);
        let reopened = StateDir::open(&scratch.0).unwrap();
        assert!(reopened.path().exists());
    }

    #[test]
    fn snapshot_compacts_and_preserves_state() {
        let scratch = Scratch::new("snapshot");
        let (_, mut journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        for i in 1..=10 {
            journal
                .stage(Record::Debit {
                    amount: 0.1,
                    spent_after: 0.1 * i as f64,
                })
                .unwrap();
        }
        journal.stage_served(10).unwrap();
        let long = journal.wal_len();
        journal.snapshot_now().unwrap();
        assert_eq!(journal.wal_len(), 4, "journal must shrink to its magic");
        assert!(long > 4);
        drop(journal);
        let (state, _) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        assert!((state.spent - 1.0).abs() < 1e-12);
        assert_eq!(state.served, 10);
    }

    #[test]
    fn automatic_snapshot_cadence_triggers() {
        // Through the sink, as the ledger drives it: the commit phase compacts at the
        // cadence, so the journal never grows past one cadence of records.
        let scratch = Scratch::new("cadence");
        let (_, journal) = DebitJournal::open(&scratch.0, "d", 3, TEST_TOTAL).unwrap();
        let shared = Arc::new(Mutex::new(journal));
        let sink = JournalSink::new(Arc::clone(&shared));
        for i in 1..=7 {
            let seq = sink.stage_debit(1.0, i as f64).unwrap();
            sink.commit_debit(seq).unwrap();
        }
        // 7 debits at cadence 3 → at least two compactions; ≤ 2 records outstanding.
        let wal_len = shared.lock().unwrap().wal_len();
        assert!(wal_len < 4 + 2 * 64, "{wal_len}");
        assert!(scratch.0.join("d.snap").exists());
        drop(sink);
        drop(shared);
        let (state, _) = DebitJournal::open(&scratch.0, "d", 3, TEST_TOTAL).unwrap();
        assert_eq!(state.spent, 7.0);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated() {
        let scratch = Scratch::new("torn");
        let (_, mut journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        journal
            .stage(Record::Debit {
                amount: 0.5,
                spent_after: 0.5,
            })
            .unwrap();
        drop(journal);
        let wal = scratch.0.join("d.wal");
        let mut bytes = std::fs::read(&wal).unwrap();
        let full = bytes.len();
        // Tear mid-payload: the record must be dropped, not misread.
        bytes.extend_from_slice(
            &Record::Debit {
                amount: 0.25,
                spent_after: 0.75,
            }
            .encode(),
        );
        std::fs::write(&wal, &bytes[..full + 9]).unwrap();
        let (state, valid) = replay(&scratch.0.join("d.snap"), &wal).unwrap();
        assert_eq!(state.spent, 0.5);
        assert_eq!(valid, full as u64);
        // Reopen truncates the tear and keeps appending cleanly.
        let (state, mut journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        assert_eq!(state.spent, 0.5);
        journal
            .stage(Record::Debit {
                amount: 0.25,
                spent_after: 0.75,
            })
            .unwrap();
        drop(journal);
        let (state, _) = replay(&scratch.0.join("d.snap"), &wal).unwrap();
        assert_eq!(state.spent, 0.75);
    }

    #[test]
    fn mid_file_corruption_fails_loudly() {
        let scratch = Scratch::new("corrupt");
        let (_, mut journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        for i in 1..=3 {
            journal
                .stage(Record::Debit {
                    amount: 0.1,
                    spent_after: 0.1 * i as f64,
                })
                .unwrap();
        }
        drop(journal);
        let wal = scratch.0.join("d.wal");
        let pristine = std::fs::read(&wal).unwrap();

        // Flip one payload byte of the *first* record: the payload CRC must catch it.
        let mut bytes = pristine.clone();
        bytes[HEADER_BYTES + 4 + 1] ^= 0x40;
        std::fs::write(&wal, &bytes).unwrap();
        let err = replay(&scratch.0.join("d.snap"), &wal).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("payload checksum"), "{err}");

        // A corrupted length field fails the header CRC — even one pointing past
        // end-of-file, which without the header CRC would masquerade as a torn tail
        // and silently drop the two records behind it.
        let mut bytes = pristine.clone();
        bytes[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        std::fs::write(&wal, &bytes).unwrap();
        let err = replay(&scratch.0.join("d.snap"), &wal).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");

        // An implausible length *with a forged header CRC* is still refused: the
        // writer never frames payloads that large.
        let mut bytes = pristine.clone();
        let absurd = ((MAX_RECORD_BYTES + 1) as u32).to_le_bytes();
        bytes[4..8].copy_from_slice(&absurd);
        bytes[8..12].copy_from_slice(&crc32(&absurd).to_le_bytes());
        std::fs::write(&wal, &bytes).unwrap();
        let err = replay(&scratch.0.join("d.snap"), &wal).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");

        // A checksum mismatch on the *final* complete record is corruption, not a tear.
        let mut bytes = pristine.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&wal, &bytes).unwrap();
        assert!(replay(&scratch.0.join("d.snap"), &wal).is_err());

        // Bad magic is never silently re-initialised.
        std::fs::write(&wal, b"NOPE").unwrap();
        assert!(replay(&scratch.0.join("d.snap"), &wal).is_err());
    }

    #[test]
    fn corrupt_snapshot_fails_loudly() {
        let scratch = Scratch::new("snapcorrupt");
        let (_, mut journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        journal
            .stage(Record::Debit {
                amount: 1.0,
                spent_after: 1.0,
            })
            .unwrap();
        journal.snapshot_now().unwrap();
        drop(journal);
        let snap = scratch.0.join("d.snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(replay(&snap, &scratch.0.join("d.wal")).is_err());
        // Truncated snapshots are corruption as well (renames are atomic).
        std::fs::write(&snap, &std::fs::read(&snap).unwrap()[..7]).unwrap();
        assert!(replay(&snap, &scratch.0.join("d.wal")).is_err());
    }

    #[test]
    fn crash_between_snapshot_and_truncate_replays_once() {
        let scratch = Scratch::new("snapcrash");
        let (_, mut journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        for i in 1..=4 {
            journal
                .stage(Record::Debit {
                    amount: 0.2,
                    spent_after: 0.2 * i as f64,
                })
                .unwrap();
        }
        journal.stage_served(4).unwrap();
        drop(journal);
        let wal_before = std::fs::read(scratch.0.join("d.wal")).unwrap();
        // Take the snapshot, then simulate the crash by restoring the pre-truncation
        // journal: both the snapshot and all its source records are on disk.
        let (_, mut journal) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        journal.snapshot_now().unwrap();
        drop(journal);
        std::fs::write(scratch.0.join("d.wal"), &wal_before).unwrap();
        let (state, _) = DebitJournal::open(&scratch.0, "d", 1000, TEST_TOTAL).unwrap();
        assert!(
            (state.spent - 0.8).abs() < 1e-12,
            "absolute records must not double-count, got {}",
            state.spent
        );
        assert_eq!(state.served, 4);
    }

    #[test]
    fn manifest_round_trips_and_rejects_garbage() {
        let scratch = Scratch::new("manifest");
        let state = StateDir::open(&scratch.0).unwrap();
        assert!(state.load_manifest().unwrap().is_none());
        let mut manifest = Manifest::default();
        manifest.upsert(ManifestEntry {
            name: "retail".into(),
            path: Some("/data/retail.dat".into()),
            epsilon: Epsilon::Finite(4.0),
            transactions: 88162,
            fingerprint: 0xdead_beef_0123_4567,
            shards: 4,
            workers: vec!["10.0.0.1:7878".into(), "10.0.0.2:7878".into()],
            ldp: None,
            consistency: true,
        });
        manifest.upsert(ManifestEntry {
            name: "mem".into(),
            path: None,
            epsilon: Epsilon::Infinite,
            transactions: 10,
            fingerprint: 7,
            shards: 1,
            workers: Vec::new(),
            ldp: None,
            consistency: false,
        });
        // An LDP row: no ledger budget (ε = ∞ by convention), channel params recorded.
        manifest.upsert(ManifestEntry {
            name: "local".into(),
            path: Some("/data/local.dat".into()),
            epsilon: Epsilon::Infinite,
            transactions: 500,
            fingerprint: 9,
            shards: 2,
            workers: Vec::new(),
            ldp: Some(pb_proto::LdpParams {
                epsilon_local: 4.0,
                universe: 32,
                pad: 3,
            }),
            consistency: true,
        });
        manifest.snapshot_every = Some(64);
        state.store_manifest(&manifest).unwrap();
        let loaded = state.load_manifest().unwrap().unwrap();
        assert_eq!(loaded, manifest);
        assert_eq!(loaded.get("retail").unwrap().epsilon, Epsilon::Finite(4.0));
        assert!(!loaded.get("mem").unwrap().consistency);
        let local = loaded.get("local").unwrap();
        assert_eq!(local.ldp.unwrap().universe, 32);
        assert_eq!(loaded.snapshot_every, Some(64));
        assert!(loaded.get("nope").is_none());
        // The identity channel (ε_local = ∞) survives the null encoding.
        let mut inf = loaded.clone();
        inf.upsert(ManifestEntry {
            ldp: Some(pb_proto::LdpParams {
                epsilon_local: f64::INFINITY,
                universe: 8,
                pad: 2,
            }),
            ..local.clone()
        });
        state.store_manifest(&inf).unwrap();
        let reloaded = state.load_manifest().unwrap().unwrap();
        assert_eq!(reloaded, inf);
        assert!(reloaded
            .get("local")
            .unwrap()
            .ldp
            .unwrap()
            .epsilon_local
            .is_infinite());
        // Upsert replaces in place.
        let mut again = loaded.clone();
        again.upsert(ManifestEntry {
            name: "retail".into(),
            path: Some("/data/retail2.dat".into()),
            epsilon: Epsilon::Finite(4.0),
            transactions: 88162,
            fingerprint: 0xdead_beef_0123_4567,
            shards: 4,
            workers: Vec::new(),
            ldp: None,
            consistency: true,
        });
        assert_eq!(again.datasets.len(), 3);
        assert_eq!(
            again.get("retail").unwrap().path.as_deref(),
            Some("/data/retail2.dat")
        );
        // Garbage and wrong versions fail loudly.
        std::fs::write(scratch.0.join("manifest.json"), b"not json").unwrap();
        assert!(state.load_manifest().is_err());
        std::fs::write(scratch.0.join("manifest.json"), b"{\"version\":9}").unwrap();
        assert!(state.load_manifest().is_err());
    }

    #[test]
    fn dataset_name_validation() {
        for good in ["retail", "a", "x-1_2.bak", "UPPER09"] {
            assert!(StateDir::valid_dataset_name(good), "{good}");
        }
        let long = "a".repeat(129);
        for bad in ["", ".", "..", ".hidden", "a/b", "a\\b", "a b", "é", &long] {
            assert!(!StateDir::valid_dataset_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn state_dir_opens_datasets() {
        let scratch = Scratch::new("statedir");
        let state = StateDir::open(scratch.0.join("nested")).unwrap();
        assert_eq!(state.snapshot_every(), DEFAULT_SNAPSHOT_EVERY);
        let state = state.with_snapshot_every(7);
        assert_eq!(state.snapshot_every(), 7);
        assert!(state.path().ends_with("nested"));
        let (ledger_state, journal) = state.open_dataset("d", TEST_TOTAL).unwrap();
        assert_eq!(ledger_state, LedgerState::default());
        let sink = JournalSink::new(Arc::clone(&journal));
        let seq = sink.stage_debit(0.5, 0.5).unwrap();
        sink.commit_debit(seq).unwrap();
        // The state dir is locked while the first handle is alive, but the journal
        // bytes are already durable: replay the files directly.
        let (replayed, _) =
            replay(&state.path().join("d.snap"), &state.path().join("d.wal")).unwrap();
        assert_eq!(replayed.spent, 0.5);
    }
}

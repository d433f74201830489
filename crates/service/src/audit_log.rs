//! Durable ε-audit log: one JSON line per privacy-relevant decision.
//!
//! The ledger journal ([`crate::persist`]) answers "how much ε is left?"; the audit log
//! answers "who spent it, on what, and what happened?". Every query outcome appends one
//! record — trace id, dataset, ε, `k`, a hash of the seed (never the seed itself: the
//! seed reproduces the noise, so logging it would turn the audit trail into a noise
//! oracle), outcome, and a wall-clock timestamp — to an append-only `audit.jsonl` in
//! the state directory.
//!
//! # Durability
//!
//! A record is written to the file (one `write`, line and newline together) before the
//! query's reply leaves, so a `kill -9` of the server loses nothing: the line is in the
//! OS page cache. It is made durable by a **group flush**: the same rendezvous the
//! journal uses ([`crate::persist::GroupFlush`]), driven by one background flusher
//! thread per on-disk log, so the reply path never waits on the disk. The flusher wakes
//! when a line is staged and covers every line staged before its fsync began with that
//! one fsync. Both seams are fault sites: `audit.append` (the write) and `audit.fsync`.
//! [`AuditLog::flush`] waits for durability; recovery's `reconciled` records, the
//! `shutdown` op and `Drop` use it, so a clean stop leaves every record on disk.
//!
//! A power loss can therefore drop only the tail written since the last group flush.
//! That is safe for the ε accounting: the journal is authoritative and is made durable
//! *before* the release, so the ε of a lost `released` line is re-carried by
//! reconciliation (below). Lost `refused` and `failed-closed` lines spent no ε; only
//! their counts are gone.
//!
//! On restart the log is replayed (tolerating a torn final line from a crash
//! mid-append) so lifetime counts survive the process, and the replayed per-dataset
//! released-ε sums are **reconciled** against the debit journal: the journal is
//! authoritative (it is written *before* release), so if a crash landed between the
//! debit commit and the audit append, or a power loss took the unflushed tail, recovery
//! appends a `reconciled` record carrying the missing ε. After reconciliation the audit
//! log's released-ε total for a dataset equals the journal's spent ε.
//!
//! A failed write or fsync **wedges** the audit file (one structured stderr line, no
//! further writes) but never blocks a release: the ε debit itself was already durable
//! in the journal, so the privacy guarantee does not depend on this log. Lifetime
//! counters keep advancing in memory while wedged — the degraded state is visible in
//! `/metrics` (`pb_audit_wedged`).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use pb_proto::Json;
use pb_trace::{escape_json, HistogramSnapshot};

use crate::persist::GroupFlush;

/// File name of the audit log inside a state directory. The stem starts with a letter,
/// so it can never collide with a dataset's files ([`crate::persist::StateDir`] rejects
/// names that would shadow it by refusing `.`-leading stems and owning the `audit`
/// name space here).
pub const AUDIT_FILE: &str = "audit.jsonl";

/// What became of one ε-relevant request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The mechanism ran, the debit committed, and the noisy itemsets were released.
    Released,
    /// The request was refused before any release (budget exhausted, wedged journal,
    /// unknown dataset with a named ε intent).
    Refused,
    /// The answer was computed but discarded unreleased (fail-closed: a shard worker
    /// failed mid-query, or the mechanism itself errored). No ε was spent.
    FailedClosed,
    /// Recovery found journal-spent ε with no matching audit record (crash between
    /// the debit commit and the audit append); this record carries the missing ε so
    /// the audit total reconciles with the journal.
    Reconciled,
}

impl AuditOutcome {
    /// Stable wire/storage name.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditOutcome::Released => "released",
            AuditOutcome::Refused => "refused",
            AuditOutcome::FailedClosed => "failed-closed",
            AuditOutcome::Reconciled => "reconciled",
        }
    }

    fn parse(text: &str) -> Option<AuditOutcome> {
        match text {
            "released" => Some(AuditOutcome::Released),
            "refused" => Some(AuditOutcome::Refused),
            "failed-closed" => Some(AuditOutcome::FailedClosed),
            "reconciled" => Some(AuditOutcome::Reconciled),
            _ => None,
        }
    }
}

/// One audit-log line.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Correlation id of the request (matches the trace ring and the slow-query log).
    pub trace: String,
    /// Dataset the request targeted.
    pub dataset: String,
    /// The ε at stake: spent (released/reconciled) or refused/discarded unspent.
    pub epsilon: f64,
    /// Requested top-`k`.
    pub k: u64,
    /// FNV-1a hash of the query seed — linkable, not invertible (see module docs).
    pub seed_hash: u64,
    /// What happened.
    pub outcome: AuditOutcome,
    /// Wall-clock milliseconds since the Unix epoch, stamped by the serving layer.
    pub ts_ms: u64,
}

impl AuditRecord {
    /// The record as one `audit.jsonl` line, newline included.
    fn to_json_line(&self) -> String {
        format!(
            "{{\"trace\":\"{}\",\"dataset\":\"{}\",\"epsilon\":{},\"k\":{},\
             \"seed_hash\":{},\"outcome\":\"{}\",\"ts_ms\":{}}}\n",
            escape_json(&self.trace),
            escape_json(&self.dataset),
            self.epsilon,
            self.k,
            self.seed_hash,
            self.outcome.as_str(),
            self.ts_ms,
        )
    }

    fn parse(line: &str) -> Option<AuditRecord> {
        let value = Json::parse(line).ok()?;
        Some(AuditRecord {
            trace: value.get("trace")?.as_str()?.to_string(),
            dataset: value.get("dataset")?.as_str()?.to_string(),
            epsilon: value.get("epsilon")?.as_f64()?,
            k: value.get("k")?.as_u64()?,
            seed_hash: value.get("seed_hash")?.as_u64()?,
            outcome: AuditOutcome::parse(value.get("outcome")?.as_str()?)?,
            ts_ms: value.get("ts_ms")?.as_u64()?,
        })
    }
}

/// FNV-1a over the seed's little-endian bytes: deterministic across runs and
/// platforms, cheap, and good enough to *link* audit records sharing a seed without
/// disclosing the seed (which would let a reader re-derive the released noise).
pub fn seed_hash(seed: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in seed.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Lifetime tallies replayed from disk plus everything appended since.
#[derive(Debug, Default)]
struct Totals {
    released: u64,
    refused: u64,
    failed_closed: u64,
    /// Σ ε over `released` + `reconciled` records, per dataset — the quantity that
    /// must match the journal's spent ε.
    released_eps: BTreeMap<String, f64>,
}

impl Totals {
    fn absorb(&mut self, record: &AuditRecord) {
        match record.outcome {
            AuditOutcome::Released => {
                self.released += 1;
                *self
                    .released_eps
                    .entry(record.dataset.clone())
                    .or_insert(0.0) += record.epsilon;
            }
            AuditOutcome::Reconciled => {
                *self
                    .released_eps
                    .entry(record.dataset.clone())
                    .or_insert(0.0) += record.epsilon;
            }
            AuditOutcome::Refused => self.refused += 1,
            AuditOutcome::FailedClosed => self.failed_closed += 1,
        }
    }
}

/// The append-only ε-audit log (see module docs). All methods are infallible at the
/// call site: persistence failures wedge the file and are surfaced through
/// [`AuditLog::is_wedged`], never bubbled into the query path.
#[derive(Debug)]
pub struct AuditLog {
    path: Option<PathBuf>,
    /// Latched by the first failed write or fsync (shared with the flusher thread).
    wedged: Arc<AtomicBool>,
    totals: Mutex<Totals>,
    /// The file and its flusher; `None` for an in-memory log.
    disk: Option<AuditFile>,
}

/// The on-disk side of an [`AuditLog`].
#[derive(Debug)]
struct AuditFile {
    /// Opened in append mode: each line is one `write`, which lands whole at the end
    /// of the file, so concurrent appends need no lock.
    file: Arc<File>,
    flush: Arc<GroupFlush>,
    /// The background flusher, joined on drop.
    flusher: Option<JoinHandle<()>>,
}

/// Latches the wedge; the first failure prints one structured stderr line.
fn wedge(wedged: &AtomicBool, error: &io::Error) {
    if !wedged.swap(true, Ordering::Relaxed) {
        eprintln!(
            "{{\"event\":\"audit_wedged\",\"error\":\"{}\"}}",
            escape_json(&error.to_string())
        );
    }
}

impl AuditLog {
    /// An audit log with no backing file: lifetime counters work, nothing survives
    /// the process. What a server without `--state-dir` gets.
    pub fn in_memory() -> AuditLog {
        AuditLog {
            path: None,
            wedged: Arc::new(AtomicBool::new(false)),
            totals: Mutex::new(Totals::default()),
            disk: None,
        }
    }

    /// Opens (creating if absent) `audit.jsonl` under `dir`, replays it, and starts
    /// its background flusher.
    ///
    /// Replay is crash-tolerant: a torn final line (no trailing newline, or
    /// unparseable) is ignored — its record never happened as far as the totals are
    /// concerned, and the matching journal debit will be re-carried by
    /// [`AuditLog::reconcile`]. A corrupt line *elsewhere* is skipped the same way;
    /// reconciliation re-accounts the ε either way, so corruption degrades to a
    /// `reconciled` record rather than a lost guarantee.
    pub fn open(dir: &Path) -> io::Result<AuditLog> {
        let path = dir.join(AUDIT_FILE);
        let mut totals = Totals::default();
        let mut torn_tail = false;
        match File::open(&path) {
            Ok(existing) => {
                let mut reader = BufReader::new(existing);
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 {
                        break;
                    }
                    // A crash mid-append leaves a final line with no terminator; note
                    // it so the append handle can seal it, or the next record would be
                    // glued onto the torn bytes and lost with them.
                    torn_tail = !line.ends_with('\n');
                    if let Some(record) = AuditRecord::parse(line.trim()) {
                        totals.absorb(&record);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if torn_tail {
            file.write_all(b"\n")?;
            file.sync_data()?;
        }
        let file = Arc::new(file);
        let flush = GroupFlush::new(Arc::clone(&file), || pb_fault::inject!("audit.fsync"));
        let wedged = Arc::new(AtomicBool::new(false));
        let flusher = {
            let flush = Arc::clone(&flush);
            let wedged = Arc::clone(&wedged);
            std::thread::Builder::new()
                .name("pb-audit-flush".to_string())
                .spawn(move || {
                    if let Err(e) = flush.run_flusher() {
                        wedge(&wedged, &e);
                    }
                })?
        };
        Ok(AuditLog {
            path: Some(path),
            wedged,
            totals: Mutex::new(totals),
            disk: Some(AuditFile {
                file,
                flush,
                flusher: Some(flusher),
            }),
        })
    }

    /// The on-disk path (`None` for an in-memory log).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// True once a write or fsync failed and the file was abandoned. In-memory
    /// counters keep advancing; only durability is lost.
    pub fn is_wedged(&self) -> bool {
        self.wedged.load(Ordering::Relaxed)
            || self
                .disk
                .as_ref()
                .is_some_and(|disk| disk.flush.is_wedged())
    }

    /// The background flusher's fsync durations and the records they made durable
    /// (`None` for an in-memory log).
    pub fn flush_stats(&self) -> Option<(HistogramSnapshot, u64)> {
        self.disk.as_ref().map(|disk| disk.flush.stats())
    }

    /// Lifetime released-query count (replayed + this process).
    pub fn released(&self) -> u64 {
        self.totals().released
    }

    /// Lifetime refused-query count.
    pub fn refused(&self) -> u64 {
        self.totals().refused
    }

    /// Lifetime failed-closed count (discarded unreleased, no ε spent).
    pub fn failed_closed(&self) -> u64 {
        self.totals().failed_closed
    }

    /// Σ ε over released (+ reconciled) records for `dataset` — the audit-side number
    /// that must equal the journal's spent ε after [`AuditLog::reconcile`].
    pub fn released_epsilon(&self, dataset: &str) -> f64 {
        self.totals()
            .released_eps
            .get(dataset)
            .copied()
            .unwrap_or(0.0)
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one record: totals first (always), then the line, written to the file
    /// in one `write` (best effort) and staged for the background flusher. Returns
    /// without waiting for the fsync. The write runs behind the `audit.append` fault
    /// seam so the chaos harness can prove a dying audit log never blocks a release.
    pub fn append(&self, record: &AuditRecord) {
        self.totals().absorb(record);
        let Some(disk) = &self.disk else {
            return;
        };
        let line = record.to_json_line();
        if self.wedged.load(Ordering::Relaxed) {
            return;
        }
        match pb_fault::inject!("audit.append")
            .and_then(|()| (&*disk.file).write_all(line.as_bytes()))
        {
            Ok(()) => {
                disk.flush.note_staged();
            }
            // Wedge: later appends write nothing, so no line is glued onto a torn one
            // (an append racing the failure may be; replay skips the glued line and
            // reconciliation re-carries its ε). The release path never sees this
            // error — the ε guarantee lives in the debit journal, already durable.
            Err(e) => wedge(&self.wedged, &e),
        }
    }

    /// Blocks until every record appended so far is durable, or the log is wedged.
    /// Returns at once for an in-memory log.
    pub fn flush(&self) {
        if let Some(disk) = &self.disk {
            // A failure is the flusher's to report: it wedged the log already.
            let _ = disk.flush.wait_durable(u64::MAX);
        }
    }

    /// Reconciles this log against the journal's authoritative spent ε for `dataset`:
    /// if the journal recorded more spend than the audit log (crash between debit
    /// commit and audit append, torn tail), appends a `reconciled` record carrying the
    /// missing ε and returns it. Returns `None` when already consistent. The audit
    /// total is *assigned* (not summed) to the journal value, so in-process equality
    /// is exact.
    pub fn reconcile(&self, dataset: &str, journal_spent: f64, ts_ms: u64) -> Option<f64> {
        let audited = self.released_epsilon(dataset);
        let missing = journal_spent - audited;
        // Strictly positive with headroom for f64 summation noise: an audit log
        // *ahead* of the journal cannot happen (the debit is durable first), and a
        // sub-ulp difference is summation order, not a lost record.
        if missing <= 1e-9 {
            return None;
        }
        let record = AuditRecord {
            trace: "recovery".to_string(),
            dataset: dataset.to_string(),
            epsilon: missing,
            k: 0,
            seed_hash: 0,
            outcome: AuditOutcome::Reconciled,
            ts_ms,
        };
        self.append(&record);
        self.flush();
        self.totals()
            .released_eps
            .insert(dataset.to_string(), journal_spent);
        Some(missing)
    }

    /// Wall-clock milliseconds since the Unix epoch — the serving layer's timestamp
    /// source for audit records. (Deliberately here in the service crate: mechanism
    /// crates are lexically wall-clock-free, enforced by `pb-audit`.)
    pub fn now_ms() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }
}

impl Drop for AuditLog {
    /// Lets the flusher drain (every appended record durable, unless wedged) and joins
    /// it.
    fn drop(&mut self) {
        if let Some(disk) = &mut self.disk {
            disk.flush.close();
            if let Some(flusher) = disk.flusher.take() {
                let _ = flusher.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "pb-auditlog-{tag}-{}-{}",
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

    fn released(trace: &str, dataset: &str, eps: f64) -> AuditRecord {
        AuditRecord {
            trace: trace.to_string(),
            dataset: dataset.to_string(),
            epsilon: eps,
            k: 5,
            seed_hash: seed_hash(7),
            outcome: AuditOutcome::Released,
            ts_ms: 1_700_000_000_000,
        }
    }

    #[test]
    fn records_round_trip_and_replay_sums_epsilon() {
        let scratch = Scratch::new("roundtrip");
        {
            let log = AuditLog::open(&scratch.0).unwrap();
            log.append(&released("t1", "retail", 0.25));
            log.append(&released("t2", "retail", 0.5));
            log.append(&AuditRecord {
                outcome: AuditOutcome::Refused,
                ..released("t3", "retail", 9.0)
            });
            log.append(&AuditRecord {
                outcome: AuditOutcome::FailedClosed,
                ..released("t4", "web", 0.1)
            });
            assert_eq!(log.released(), 2);
            assert_eq!(log.refused(), 1);
            assert_eq!(log.failed_closed(), 1);
            assert_eq!(log.released_epsilon("retail"), 0.25 + 0.5);
            assert_eq!(
                log.released_epsilon("web"),
                0.0,
                "failed-closed spends no ε"
            );
            assert!(!log.is_wedged());
        }
        // "Restart": replay rebuilds identical totals.
        let log = AuditLog::open(&scratch.0).unwrap();
        assert_eq!(log.released(), 2);
        assert_eq!(log.refused(), 1);
        assert_eq!(log.failed_closed(), 1);
        assert_eq!(log.released_epsilon("retail"), 0.25 + 0.5);
    }

    #[test]
    fn torn_tail_is_tolerated_and_reconciled() {
        let scratch = Scratch::new("torn");
        {
            let log = AuditLog::open(&scratch.0).unwrap();
            log.append(&released("t1", "d", 0.25));
        }
        // Simulate a crash mid-append: a half-written final line.
        let path = scratch.0.join(AUDIT_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"trace\":\"t2\",\"dataset\":\"d\",\"eps")
            .unwrap();
        drop(file);
        let log = AuditLog::open(&scratch.0).unwrap();
        assert_eq!(log.released(), 1, "the torn record never happened");
        // The journal says 0.75 was durably spent; the audit log only saw 0.25.
        let missing = log.reconcile("d", 0.75, 42).unwrap();
        assert!((missing - 0.5).abs() < 1e-12);
        assert_eq!(log.released_epsilon("d"), 0.75, "assigned exactly");
        assert_eq!(log.reconcile("d", 0.75, 43), None, "already consistent");
        // The reconciled record is durable too.
        let log = AuditLog::open(&scratch.0).unwrap();
        assert!((log.released_epsilon("d") - 0.75).abs() < 1e-9);
    }

    #[test]
    fn appends_are_written_at_once_and_flushed_in_the_background() {
        let scratch = Scratch::new("flush");
        let path = scratch.0.join(AUDIT_FILE);
        let log = AuditLog::open(&scratch.0).unwrap();
        for i in 0..3 {
            log.append(&released(&format!("t{i}"), "d", 0.25));
            // Written before `append` returns: the line is in the file already, whole.
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), i + 1, "{text}");
            assert!(text.ends_with('\n'));
        }
        log.flush();
        let (fsyncs, records) = log.flush_stats().unwrap();
        assert_eq!(
            records, 3,
            "every staged line is made durable by the flusher"
        );
        assert!(fsyncs.count >= 1 && fsyncs.count <= 3, "{fsyncs:?}");
        assert!(!log.is_wedged());
        // Drop drains and joins the flusher: a reopen sees every record.
        log.append(&released("t3", "d", 0.25));
        drop(log);
        let log = AuditLog::open(&scratch.0).unwrap();
        assert_eq!(log.released(), 4);
    }

    #[test]
    fn in_memory_log_counts_without_touching_disk() {
        let log = AuditLog::in_memory();
        assert_eq!(log.path(), None);
        log.append(&released("t", "d", 0.5));
        assert_eq!(log.released(), 1);
        assert!(!log.is_wedged());
        assert!(log.flush_stats().is_none(), "no file, no flusher");
        log.flush();
    }

    #[test]
    fn seed_hash_is_stable_and_not_identity() {
        assert_eq!(seed_hash(7), seed_hash(7));
        assert_ne!(seed_hash(7), 7);
        assert_ne!(seed_hash(7), seed_hash(8));
    }
}

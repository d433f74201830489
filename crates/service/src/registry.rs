//! Named datasets with cached query contexts and budget ledgers.
//!
//! The registry is the service's unit of state: each entry owns its immutable rows as a
//! [`ShardedDb`] (an unsharded dataset is one shard), a lazily built [`QueryContext`]
//! (per-shard vertical indexes plus the memoized deterministic precomputation — item
//! ranking, θ counts) shared by every query against the dataset, and a
//! [`BudgetLedger`] enforcing the dataset's lifetime ε.
//! Entries are handed out as `Arc<DatasetEntry>` so worker threads hold them across a
//! query without pinning the registry lock.
//!
//! # Persistence
//!
//! A registry built with [`DatasetRegistry::with_persistence`] keeps its guarantee-
//! critical state durable in a [`StateDir`]: every ledger debit goes through a
//! write-ahead journal *before* the ε is released (see [`crate::persist`]), served-query
//! counters ride in the same journal, and the dataset membership itself lives in a
//! manifest so [`DatasetRegistry::recover`] can rebuild the full registry — datasets,
//! per-dataset remaining ε, and query counters — after `kill -9`. Registering a name
//! whose journal already exists in the state directory *inherits* the durable spend:
//! budget, once spent, is never silently re-granted, not even across dataset
//! re-registrations.

use crate::persist::{
    db_fingerprint, DebitJournal, JournalSink, JournalStats, Manifest, ManifestEntry,
    SharedJournal, StateDir,
};
use pb_core::QueryContext;
use pb_dp::{BudgetLedger, Epsilon};
use pb_fim::TransactionDb;
use pb_ldp::LdpChannel;
use pb_proto::LdpParams;
use pb_shard::{Fabric, FabricObserver, ShardedDb};
use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, Weak};

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// A dataset with this name is already registered.
    DuplicateName(String),
    /// The dataset holds no transactions (nothing could ever be queried).
    EmptyDataset(String),
    /// The requested shard count cannot partition this dataset (0, or more shards
    /// than rows — which would silently create empty shards).
    InvalidShards {
        /// The dataset being (re)partitioned.
        name: String,
        /// The refused shard count.
        shards: usize,
        /// The dataset's row count.
        rows: usize,
    },
    /// No dataset with this name is registered (unregister/reshard targets).
    NotFound(String),
    /// The name cannot double as a journal file stem in a persistent registry.
    InvalidName(String),
    /// The registration contradicts the durable manifest (different budget or data).
    Mismatch(String),
    /// A central-mode operation was aimed at an LDP dataset or vice versa (e.g.
    /// `register_ldp` over a name with a durable central ledger). The two workload
    /// classes account privacy in different places — converting silently would either
    /// orphan spent ε or invent a ledger that was never part of the guarantee.
    ModeMismatch(String),
    /// The state directory could not be read or written.
    Io(String),
    /// A dataset's source file could not be read (missing, unreadable or not FIMI).
    Source(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateName(name) => {
                write!(f, "dataset `{name}` is already registered")
            }
            RegistryError::EmptyDataset(name) => {
                write!(f, "dataset `{name}` contains no transactions")
            }
            RegistryError::InvalidShards { name, shards, rows } => write!(
                f,
                "cannot partition dataset `{name}` ({rows} rows) into {shards} shards: \
                 the shard count must be between 1 and the row count"
            ),
            RegistryError::NotFound(name) => {
                write!(f, "unknown dataset `{name}`")
            }
            RegistryError::InvalidName(name) => write!(
                f,
                "dataset name `{name}` is not usable with a state directory \
                 (use ASCII letters, digits, `-`, `_`, `.`; no leading dot)"
            ),
            RegistryError::Mismatch(detail) => {
                write!(f, "registration contradicts the durable manifest: {detail}")
            }
            RegistryError::ModeMismatch(detail) => {
                write!(f, "privacy-mode mismatch: {detail}")
            }
            RegistryError::Io(detail) => write!(f, "persistence failure: {detail}"),
            RegistryError::Source(detail) => write!(f, "failed to read dataset file {detail}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// What [`DatasetRegistry::recover`] rebuilt from the manifest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Datasets reloaded from their recorded source files.
    pub loaded: Vec<String>,
    /// Manifest entries without a source path (registered in-process, not reloadable).
    pub skipped: Vec<String>,
    /// `(name, error)` for entries whose reload failed (missing/moved source file,
    /// manifest/journal contradiction). Their durable ledgers are untouched on disk;
    /// the healthy datasets still come up.
    pub failed: Vec<(String, String)>,
}

/// Where a dataset's privacy accounting lives. The two workload classes are disjoint
/// *by construction*: a central-mode entry owns a [`BudgetLedger`] every query debits,
/// while an LDP entry owns only the debiasing [`LdpChannel`] — its ε was spent
/// client-side at perturbation time, so there is no ledger to debit (not a ledger with
/// a zero charge: no ledger exists for the dataset at all).
#[derive(Debug, Clone)]
enum PrivacyMode {
    /// Server-side accounting: one ledger enforcing the dataset's lifetime ε.
    /// Shared (`Arc`) so a reshard can hand the *same* accountant to the replacement
    /// entry: in-flight queries holding the old entry and new queries on the new one
    /// debit one ledger, so a live re-partition can never double-grant ε.
    Central(Arc<BudgetLedger>),
    /// Client-side accounting: rows arrived already perturbed under this channel; the
    /// server only debiases, which is post-processing and spends nothing.
    Ldp(LdpChannel),
}

/// What privacy accounting a registration asks for: a central lifetime budget, or the
/// LDP channel the rows were already perturbed under client-side.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Server-side accounting: every query debits a ledger holding this lifetime ε.
    Central(Epsilon),
    /// The rows arrived already perturbed under this channel: queries debias and
    /// debit nothing. The caller owns the claim that the rows really went through it.
    Ldp(LdpChannel),
}

/// Where a registration's rows come from.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// Rows handed over in memory. They carry no source path, so
    /// [`DatasetRegistry::recover`] reports the dataset as skipped after a restart.
    Rows(TransactionDb),
    /// A FIMI-format file, read before the registry lock is taken. The path is
    /// recorded in the durable manifest, so the dataset survives a restart.
    File(String),
}

/// Everything a dataset declares about itself when it is registered: one value for
/// the in-process API, both admin register ops, `serve --dataset`, and recovery.
#[derive(Debug, Clone)]
pub struct RegisterSpec {
    /// Name to register the dataset under.
    pub name: String,
    /// The rows, in memory or in a file.
    pub source: DataSource,
    /// Row-shard count. `None` keeps the layout the durable manifest records for
    /// `name` (a forgotten flag must not silently reshard to 1); a new name gets 1.
    /// Sharding never changes released bytes.
    pub shards: Option<usize>,
    /// Remote shard-worker addresses: shard `i` lives on `workers[i]`, the remaining
    /// shards stay local. Each worker is dialed and seeded before registration
    /// returns; placement never changes released bytes.
    pub workers: Vec<String>,
    /// The privacy accounting: a central lifetime budget or an LDP channel.
    pub mode: Mode,
}

impl RegisterSpec {
    /// A central-mode dataset with a lifetime budget of `total_epsilon`, all shards
    /// local and the shard count left to the manifest (or 1).
    pub fn central(name: impl Into<String>, source: DataSource, total_epsilon: Epsilon) -> Self {
        Self::with_mode(name, source, Mode::Central(total_epsilon))
    }

    /// An LDP dataset whose rows were perturbed client-side under `channel`, all
    /// shards local and the shard count left to the manifest (or 1).
    pub fn ldp(name: impl Into<String>, source: DataSource, channel: LdpChannel) -> Self {
        Self::with_mode(name, source, Mode::Ldp(channel))
    }

    /// A spec for `mode`, all shards local and the shard count left to the manifest
    /// (or 1).
    pub(crate) fn with_mode(name: impl Into<String>, source: DataSource, mode: Mode) -> Self {
        RegisterSpec {
            name: name.into(),
            source,
            shards: None,
            workers: Vec::new(),
            mode,
        }
    }

    /// The spec `entry` records, reloading its rows from `path`: the same mode,
    /// shard layout and worker placement as before the restart.
    fn recorded(entry: &ManifestEntry, path: String) -> Result<Self, RegistryError> {
        let channel = entry
            .ldp
            .map(|p| LdpChannel::new(p.epsilon_local, p.universe, p.pad as usize))
            .transpose()
            .map_err(|e| RegistryError::Io(e.to_string()))?;
        Ok(RegisterSpec {
            shards: Some(entry.shards),
            workers: entry.workers.clone(),
            ..Self::with_mode(
                entry.name.clone(),
                DataSource::File(path),
                channel.map_or(Mode::Central(entry.epsilon), Mode::Ldp),
            )
        })
    }
}

/// The wire/manifest form of a channel's parameters.
pub(crate) fn channel_params(channel: &LdpChannel) -> LdpParams {
    LdpParams {
        epsilon_local: channel.epsilon_local(),
        universe: channel.universe(),
        pad: channel.pad_len() as u64,
    }
}

/// One registered dataset: the data, its cached query context, and its privacy
/// accounting (a budget ledger, or an LDP debiasing channel).
#[derive(Debug)]
pub struct DatasetEntry {
    name: String,
    /// The rows, held only as shards (one when unsharded): never beside a second copy,
    /// which would double resident row memory.
    data: Arc<ShardedDb>,
    /// Row count, cached so `status` never touches the data.
    transactions: usize,
    /// Distinct-item count, cached for the same reason.
    distinct_items: usize,
    /// Number of row shards the query context counts over (1 = unsharded).
    shards: usize,
    /// Built on first use and shared by every later query: the per-shard indexes plus
    /// the memoized deterministic precomputation the cold path would repeat per query.
    context: OnceLock<Arc<QueryContext>>,
    /// Central ledger or LDP channel (see [`PrivacyMode`]).
    mode: PrivacyMode,
    /// Shared across reshard generations (like a central entry's ledger) so the
    /// counter never resets on a live re-partition.
    queries_served: Arc<AtomicU64>,
    /// Whether the consistency post-processing step runs for queries against this
    /// dataset. Shared across reshard generations so the knob survives a re-partition;
    /// post-processing never touches the budget, so flipping it is a free knob.
    consistency: Arc<AtomicBool>,
    /// The durable journal shared with the ledger's debit sink (persistent registries
    /// only); served-query counters are staged here.
    journal: Option<SharedJournal>,
    /// The source file this entry was registered from (`None` for in-process data).
    source: Option<String>,
    /// Remote shard-worker addresses a prefix of the shards is placed on (empty =
    /// all-local). Kept so a reshard re-places onto the same workers.
    workers: Vec<String>,
}

impl DatasetEntry {
    /// The dataset's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source file path this dataset was registered (or recovered) from, when any.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Number of transactions in the dataset.
    pub fn transactions(&self) -> usize {
        self.transactions
    }

    /// Number of distinct items in the dataset.
    pub fn num_distinct_items(&self) -> usize {
        self.distinct_items
    }

    /// Number of row shards queries against this dataset count over (1 = unsharded).
    /// Sharding never changes released bytes; it only changes where counting happens.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The cached query context, building it on the first call.
    ///
    /// Concurrent first calls may race to build, but [`OnceLock`] publishes exactly one
    /// winner and the build is deterministic, so every caller observes the same context
    /// — including a caller on the far side of a crash: the context is a pure function
    /// of the (immutable) data and the recorded shard layout, so a recovered registry
    /// rebuilds it byte-identically.
    pub fn context(&self) -> &Arc<QueryContext> {
        self.context
            .get_or_init(|| Arc::new(QueryContext::sharded(Arc::clone(&self.data))))
    }

    /// True once the context (indexes included) has been built (tests, status endpoint).
    pub fn index_is_cached(&self) -> bool {
        self.context.get().is_some()
    }

    /// The dataset's privacy-budget ledger — `None` for an LDP dataset, which has no
    /// ledger *by construction* (its ε was spent client-side at perturbation time).
    /// Every caller is forced to decide what a ledgerless dataset means for it, which
    /// is exactly the point: nothing can accidentally debit an LDP dataset.
    pub fn ledger(&self) -> Option<&BudgetLedger> {
        match &self.mode {
            PrivacyMode::Central(ledger) => Some(ledger),
            PrivacyMode::Ldp(_) => None,
        }
    }

    /// The LDP debiasing channel — `None` for a central-mode dataset.
    pub fn ldp_channel(&self) -> Option<&LdpChannel> {
        match &self.mode {
            PrivacyMode::Central(_) => None,
            PrivacyMode::Ldp(channel) => Some(channel),
        }
    }

    /// True when this dataset serves the local-DP workload class (rows arrived
    /// already perturbed; queries debias and never debit).
    pub fn is_ldp(&self) -> bool {
        matches!(self.mode, PrivacyMode::Ldp(_))
    }

    /// Whether the consistency post-processing step runs for this dataset's queries.
    pub fn consistency_enabled(&self) -> bool {
        self.consistency.load(Ordering::Relaxed)
    }

    /// True when the ledger journals every debit to a state directory before releasing
    /// ε (the spend reported by [`BudgetLedger::spent`] then survives `kill -9`).
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// Number of successfully answered queries (monotone counter).
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Size and compaction metrics of this dataset's journal (`None` when not durable).
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal
            .as_ref()
            .map(|j| j.lock().unwrap_or_else(PoisonError::into_inner).stats())
    }

    /// True when this dataset's journal has wedged (failed closed after a persistence
    /// error). A wedged dataset keeps answering `status`, but ε-spending queries are
    /// refused with a structured `unavailable` error — spending without a durable
    /// debit record could under-count ε after a crash. Never true for non-durable
    /// datasets: with no journal there is nothing to wedge.
    pub fn journal_wedged(&self) -> bool {
        self.journal
            .as_ref()
            .is_some_and(|j| j.lock().unwrap_or_else(PoisonError::into_inner).is_wedged())
    }

    /// True when the dataset is serving degraded: its journal wedged (queries are
    /// refused up front until a restart), or a remote shard worker is down (queries
    /// still *attempt* — a recovered worker heals transparently mid-query — but fail
    /// closed without spending ε while the worker stays unreachable).
    pub fn is_degraded(&self) -> bool {
        self.journal_wedged() || self.fabric_down()
    }

    /// The remote shard-worker addresses this dataset's shard prefix is placed on
    /// (empty for an all-local dataset).
    pub fn workers(&self) -> &[String] {
        &self.workers
    }

    /// Monotone count of remote shard-op failures (0 for an all-local dataset). The
    /// query path snapshots this before the mechanism and aborts the release — before
    /// any ledger debit — if it moved.
    pub fn fabric_failures(&self) -> u64 {
        self.data.fabric_failures()
    }

    /// Description of the most recent remote shard failure (empty if none).
    pub fn fabric_last_error(&self) -> String {
        self.data.fabric_last_error()
    }

    /// True while any of this dataset's remote shard workers is marked unhealthy
    /// (its last op failed). Clears as soon as an op against the worker succeeds.
    pub fn fabric_down(&self) -> bool {
        self.data.fabric_down()
    }

    /// The remote shard fabric this dataset fans out over (`None` for all-local
    /// layouts). Observability only: the service hangs RPC observers and trace
    /// labels off it; the fabric never influences released bytes.
    pub fn fabric(&self) -> Option<&Arc<Fabric>> {
        self.data.fabric()
    }

    /// Records one successfully answered query.
    ///
    /// The counter is journaled best-effort *after* the answer exists: a crash in
    /// between loses at most the in-flight increments, which is the safe direction —
    /// the ε debit itself was made durable before the mechanism ran. The record is
    /// only *staged* (no fsync of its own — a best-effort counter does not buy a disk
    /// round trip per query); the next debit's group commit or the next snapshot
    /// compaction makes it durable against machine crashes, and a mere `kill -9`
    /// never loses staged bytes.
    pub fn record_query(&self) {
        let served = self.queries_served.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(journal) = &self.journal {
            let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = journal.stage_served(served);
            journal.maybe_compact();
        }
    }
}

/// The accounting state of one dataset name that may outlive its registry slot: an
/// unregistered entry stays alive in the hands of in-flight queries, and a
/// re-registration under the same name must *adopt* that state, not duplicate it. The
/// journal file must have exactly one in-process writer (a second handle would
/// interleave appends), and — just as important — the **ledger itself** must stay
/// singular: two ledgers restored from the same journal would each admit against their
/// own in-memory balance while the journal's absolute `spent_after` records merge by
/// monotone max, silently losing whichever interleaved debits were smaller and
/// re-granting spent ε after a restart. Weak: once every holder is gone the state
/// closes and the next registration replays from disk.
struct LiveAccounting {
    ledger: Weak<BudgetLedger>,
    journal: Weak<Mutex<DebitJournal>>,
    queries_served: Weak<AtomicU64>,
}

struct Persistence {
    state: StateDir,
    /// The in-memory manifest image; rewritten to disk atomically on every change.
    manifest: Mutex<Manifest>,
    /// Live accounting state by dataset name (see [`LiveAccounting`]).
    live: Mutex<HashMap<String, LiveAccounting>>,
}

/// A concurrent name → dataset map, optionally backed by a [`StateDir`].
#[derive(Default)]
pub struct DatasetRegistry {
    datasets: RwLock<HashMap<String, Arc<DatasetEntry>>>,
    persistence: Option<Persistence>,
    /// Installed on every current and future dataset fabric so remote shard RPCs
    /// report latency and health to the service's telemetry. Pure observability:
    /// an observer never changes which bytes a query releases.
    fabric_observer: Mutex<Option<Arc<dyn FabricObserver>>>,
}

impl std::fmt::Debug for DatasetRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetRegistry")
            .field("datasets", &self.read().keys().collect::<Vec<_>>())
            .field("durable", &self.persistence.is_some())
            .finish()
    }
}

impl DatasetRegistry {
    /// Creates an empty in-memory registry (state dies with the process).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry whose ledgers, query counters, and membership are durable in
    /// `state`. An existing manifest is loaded (use [`DatasetRegistry::recover`] to
    /// re-register its datasets); corrupted durable state fails loudly here rather than
    /// ever re-granting spent ε.
    pub fn with_persistence(state: StateDir) -> Result<Self, RegistryError> {
        let manifest = state
            .load_manifest()
            .map_err(|e| RegistryError::Io(e.to_string()))?
            .unwrap_or_default();
        // A cadence the operator set through the `snapshot_every` admin op survives
        // the restart via the manifest.
        if let Some(every) = manifest.snapshot_every {
            state.set_snapshot_every(every);
        }
        Ok(DatasetRegistry {
            datasets: RwLock::new(HashMap::new()),
            persistence: Some(Persistence {
                state,
                manifest: Mutex::new(manifest),
                live: Mutex::new(HashMap::new()),
            }),
            fabric_observer: Mutex::new(None),
        })
    }

    /// True when the registry journals its state to a [`StateDir`].
    pub fn is_durable(&self) -> bool {
        self.persistence.is_some()
    }

    /// Root path of the backing state directory (`None` for an in-memory registry).
    /// The server hangs registry-adjacent durable files (the ε-audit log) off it.
    pub fn state_path(&self) -> Option<&std::path::Path> {
        self.persistence.as_ref().map(|p| p.state.path())
    }

    /// Installs `observer` on every registered dataset's shard fabric, and on every
    /// fabric created by later registrations, recoveries, and reshards. Idempotent;
    /// observability only — an observer never changes released bytes.
    pub fn set_fabric_observer(&self, observer: Arc<dyn FabricObserver>) {
        *self
            .fabric_observer
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&observer));
        for entry in self.read().values() {
            if let Some(fabric) = entry.fabric() {
                fabric.set_observer(Some(Arc::clone(&observer)));
            }
        }
    }

    /// Hands the registered observer (if any) to a freshly built entry's fabric.
    fn install_fabric_observer(&self, entry: &DatasetEntry) {
        if let Some(fabric) = entry.fabric() {
            let observer = self
                .fabric_observer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            if observer.is_some() {
                fabric.set_observer(observer);
            }
        }
    }

    /// Registers a dataset under `name` with a lifetime budget of `total_epsilon`, as
    /// one local shard that adopts `db`'s rows (no copy). Its index is *not* built
    /// here: registration stays cheap and the first query (or an explicit
    /// [`DatasetEntry::context`] call during warm-up) pays the build once.
    ///
    /// In a persistent registry the dataset carries no source path, so
    /// [`DatasetRegistry::recover`] reports it as skipped after a restart. Register
    /// data that lives in a file through [`DatasetRegistry::register_spec`] with
    /// [`DataSource::File`].
    pub fn register(
        &self,
        name: impl Into<String>,
        db: TransactionDb,
        total_epsilon: Epsilon,
    ) -> Result<Arc<DatasetEntry>, RegistryError> {
        self.register_sharded(name, db, total_epsilon, 1)
    }

    /// [`DatasetRegistry::register`] with the dataset partitioned into `shards` local
    /// row shards: queries count per shard and merge by summation, releasing
    /// byte-identical output to the unsharded registration for any pinned seed.
    pub fn register_sharded(
        &self,
        name: impl Into<String>,
        db: TransactionDb,
        total_epsilon: Epsilon,
        shards: usize,
    ) -> Result<Arc<DatasetEntry>, RegistryError> {
        self.register_spec(RegisterSpec {
            shards: Some(shards),
            ..RegisterSpec::central(name, DataSource::Rows(db), total_epsilon)
        })
    }

    /// Re-registers every dataset recorded in the durable manifest (no-op for an
    /// in-memory registry). Datasets already registered are left untouched; manifest
    /// entries without a source path cannot be reloaded and are reported as skipped.
    pub fn recover(&self) -> Result<RecoveryReport, RegistryError> {
        let Some(persistence) = &self.persistence else {
            return Ok(RecoveryReport::default());
        };
        let entries: Vec<ManifestEntry> = persistence
            .manifest
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .datasets
            .clone();
        let mut report = RecoveryReport::default();
        for entry in entries {
            if self.get(&entry.name).is_some() {
                continue;
            }
            let Some(path) = entry.path.clone() else {
                report.skipped.push(entry.name);
                continue;
            };
            // The manifest's shard layout, worker placement, and (for LDP datasets)
            // debiasing channel ride along, so the recovered entry counts over the same
            // shards — and releases the same bytes — as before the restart. One
            // unloadable dataset (moved file, torn state, dead worker) must not keep
            // every healthy one down: record the failure and keep going.
            match RegisterSpec::recorded(&entry, path).and_then(|spec| self.register_spec(spec)) {
                Ok(_) => report.loaded.push(entry.name),
                Err(e) => report.failed.push((entry.name, e.to_string())),
            }
        }
        Ok(report)
    }

    /// Removes a dataset from serving (the hot `unregister` admin op).
    ///
    /// Only the serving slot and the manifest entry go away: the dataset's journal and
    /// snapshot stay on disk, so spent ε is never forgotten — re-registering the name
    /// later (or while in-flight queries still hold the old entry) inherits the same
    /// live ledger state. A manifest write failure aborts the unregister with the
    /// registry untouched.
    pub fn unregister(&self, name: &str) -> Result<Arc<DatasetEntry>, RegistryError> {
        let mut map = self.write();
        if !map.contains_key(name) {
            return Err(RegistryError::NotFound(name.to_string()));
        }
        if let Some(persistence) = &self.persistence {
            let mut manifest = persistence
                .manifest
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if manifest.get(name).is_some() {
                let mut updated = manifest.clone();
                updated.remove(name);
                persistence
                    .state
                    .store_manifest(&updated)
                    .map_err(|e| RegistryError::Io(e.to_string()))?;
                *manifest = updated;
            }
        }
        // Presence was checked above under the same write lock; if the entry
        // vanished anyway, report the dataset missing instead of panicking the
        // admin worker.
        map.remove(name)
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// Re-partitions a registered dataset into `shards` row shards, in place (the hot
    /// `reshard` admin op). Releases are byte-identical for any shard count
    /// (property-tested), so this only moves where counting happens.
    ///
    /// The replacement entry shares the old entry's ledger, journal, and query counter:
    /// in-flight queries holding the old `Arc` and new queries on the new entry debit
    /// one accountant, so a live reshard can never double-grant ε. The new layout is
    /// recorded in the durable manifest *before* the swap — a crash in between leaves
    /// the manifest ahead of the live layout, which is harmless (releases are
    /// layout-invariant), never behind.
    pub fn reshard(&self, name: &str, shards: usize) -> Result<Arc<DatasetEntry>, RegistryError> {
        let old = self
            .get(name)
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))?;
        // The same seam check registration enforces: 0 shards partitions nothing and
        // more shards than rows would silently create empty shards. Structured
        // refusal, never a clamp — a clamp would let `reshard 0` report success while
        // serving a layout the operator never asked for.
        if shards == 0 || shards > old.transactions {
            return Err(RegistryError::InvalidShards {
                name: name.to_string(),
                shards,
                rows: old.transactions,
            });
        }
        if old.shards == shards {
            return Ok(old);
        }
        // Rebuild the rows from the current partition (shard blocks are contiguous and
        // ordered, so concatenating them reproduces the original row order) and
        // re-partition — all OUTSIDE the registry lock: on a large dataset this clone
        // and re-index takes seconds, and queries against every other dataset must not
        // stall behind it. No source file read: resharding works for inline datasets
        // and for files that have since moved.
        let rows: Vec<pb_fim::ItemSet> = old
            .data
            .shards()
            .iter()
            .flat_map(|shard| shard.db().iter().cloned())
            .collect();
        let db = TransactionDb::from_itemsets(rows);
        // Re-place onto the same workers the old layout used: a reshard changes how
        // many shards exist, never where the operator asked them to live.
        let data = partition_data(db, shards, &old.workers, name)?;
        let entry = Arc::new(DatasetEntry {
            name: old.name.clone(),
            data,
            transactions: old.transactions,
            distinct_items: old.distinct_items,
            shards,
            context: OnceLock::new(),
            mode: old.mode.clone(),
            queries_served: Arc::clone(&old.queries_served),
            consistency: Arc::clone(&old.consistency),
            journal: old.journal.clone(),
            source: old.source.clone(),
            workers: old.workers.clone(),
        });
        // Validate-and-swap under the write lock: the slot must still hold the exact
        // entry we rebuilt from — a concurrent unregister/re-register/reshard means our
        // partition is of stale data, so refuse and let the caller retry against the
        // current state. The manifest update rides inside the same critical section
        // (it is two fsyncs, not a rebuild) so a racing unregister can never be
        // resurrected by our manifest write.
        let mut map = self.write();
        match map.get(name) {
            Some(current) if Arc::ptr_eq(current, &old) => {}
            _ => {
                return Err(RegistryError::Mismatch(format!(
                    "dataset `{name}` was modified concurrently during the reshard — retry"
                )))
            }
        }
        if let Some(persistence) = &self.persistence {
            let mut manifest = persistence
                .manifest
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(recorded) = manifest.get(name) {
                let mut manifest_entry = recorded.clone();
                manifest_entry.shards = shards;
                let mut updated = manifest.clone();
                updated.upsert(manifest_entry);
                persistence
                    .state
                    .store_manifest(&updated)
                    .map_err(|e| RegistryError::Io(e.to_string()))?;
                *manifest = updated;
            }
        }
        self.install_fabric_observer(&entry);
        map.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Registers the dataset `spec` declares: the one registration path behind
    /// [`DatasetRegistry::register`], the admin register ops, `serve --dataset`, and
    /// [`DatasetRegistry::recover`].
    ///
    /// In a persistent registry a central dataset's journal is opened (inheriting any
    /// durable spend recorded under this name) and the manifest is updated. An LDP
    /// dataset gets **no budget ledger** — its contributors' ε_local was spent at
    /// perturbation time — and only its channel is recorded, so recovery rebuilds the
    /// same debiasing and a cross-mode re-registration is refused.
    pub fn register_spec(&self, spec: RegisterSpec) -> Result<Arc<DatasetEntry>, RegistryError> {
        let RegisterSpec {
            name,
            source,
            shards,
            workers,
            mode,
        } = spec;
        let (db, source) = match source {
            DataSource::Rows(db) => (db, None),
            DataSource::File(path) => {
                let db = pb_fim::io::read_fimi_file(&path)
                    .map_err(|e| RegistryError::Source(format!("{path}: {e}")))?;
                (db, Some(path))
            }
        };
        if db.is_empty() {
            return Err(RegistryError::EmptyDataset(name));
        }
        // Hold the write lock across the whole registration (journal open included):
        // registrations are rare, and this makes duplicate-check → journal → insert one
        // atomic step, so two racing registrations of one name cannot both open the
        // journal.
        let mut map = self.write();
        let recorded = self.persistence.as_ref().and_then(|p| {
            p.manifest
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&name)
                .map(|recorded| (recorded.shards, recorded.consistency))
        });
        // No explicit shard count keeps the recorded layout; a new name gets 1. The
        // consistency knob survives unregister/re-register cycles the same way (a new
        // name defaults to on).
        let shards = shards.or(recorded.map(|(shards, _)| shards)).unwrap_or(1);
        let recorded_consistency = recorded.is_none_or(|(_, consistency)| consistency);
        // Structured refusal at the entry seam, never a silent clamp: 0 partitions
        // nothing, and more shards than rows would create empty shards the operator
        // never asked for.
        if shards == 0 || shards > db.len() {
            return Err(RegistryError::InvalidShards {
                name,
                shards,
                rows: db.len(),
            });
        }
        if let Some(existing) = map.get(&name) {
            // A cross-mode collision gets the structured mode error, not the generic
            // duplicate: the caller aimed an LDP registration at a central dataset
            // (or vice versa) and needs to know *that*, not just "taken".
            return Err(match (existing.is_ldp(), &mode) {
                (true, Mode::Central(_)) => RegistryError::ModeMismatch(format!(
                    "dataset `{name}` is serving in LDP mode; a central-mode \
                     registration cannot replace it"
                )),
                (false, Mode::Ldp(_)) => RegistryError::ModeMismatch(format!(
                    "dataset `{name}` is serving in central mode; an LDP \
                     registration cannot replace it"
                )),
                _ => RegistryError::DuplicateName(name),
            });
        }
        let transactions = db.len();
        let distinct_items = db.num_distinct_items();
        let fingerprint = db_fingerprint(&db);
        if self.persistence.is_some() {
            if !StateDir::valid_dataset_name(&name) {
                return Err(RegistryError::InvalidName(name));
            }
            // The durable ledger belongs to one (budget, data) pair: a changed
            // total would rescale the guarantee, changed data would transplant
            // spent ε onto rows it was never spent on. Refuse both — and refuse
            // *before* the worker placement below, so a doomed registration
            // touches neither the fabric nor the disk.
            self.check_manifest_compatible(&name, &mode, fingerprint, transactions)?;
        }
        // Partition — and, with a placement, dial and seed the remote workers — before
        // any durable side effect: a placement failure (dead worker, bad address) must
        // not leave a phantom manifest entry or a freshly opened journal behind.
        let data = partition_data(db, shards, &workers, &name)?;

        let (mode, queries_served, journal) = match (&mode, &self.persistence) {
            (Mode::Central(total_epsilon), None) => (
                PrivacyMode::Central(Arc::new(BudgetLedger::new(*total_epsilon))),
                Arc::new(AtomicU64::new(0)),
                None,
            ),
            (Mode::Ldp(channel), None) => (
                PrivacyMode::Ldp(*channel),
                Arc::new(AtomicU64::new(0)),
                None,
            ),
            (Mode::Ldp(channel), Some(persistence)) => {
                // An LDP dataset opens no journal and joins no live accounting:
                // there is no ledger to make durable. Only the membership row (with
                // the channel, for recovery) is recorded. If central accounting is
                // still live under this name (an unregistered central entry held by
                // in-flight queries), refuse — its spent ε must not be shadowed by
                // a ledgerless dataset wearing the same name.
                let live = persistence
                    .live
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if live
                    .get(&name)
                    .is_some_and(|handles| handles.ledger.upgrade().is_some())
                {
                    return Err(RegistryError::ModeMismatch(format!(
                        "dataset `{name}` still has live central budget accounting \
                         (in-flight queries hold its ledger) — an LDP registration \
                         under this name must wait for them or use a fresh name"
                    )));
                }
                drop(live);
                let mut manifest = persistence
                    .manifest
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let mut updated = manifest.clone();
                updated.upsert(ManifestEntry {
                    name: name.clone(),
                    path: source.clone(),
                    // No lifetime budget exists for an LDP dataset; ∞ keeps the
                    // field honest for tooling that reads the manifest directly.
                    epsilon: Epsilon::Infinite,
                    transactions,
                    fingerprint,
                    shards,
                    workers: workers.clone(),
                    ldp: Some(channel_params(channel)),
                    consistency: recorded_consistency,
                });
                persistence
                    .state
                    .store_manifest(&updated)
                    .map_err(|e| RegistryError::Io(e.to_string()))?;
                *manifest = updated;
                (
                    PrivacyMode::Ldp(*channel),
                    Arc::new(AtomicU64::new(0)),
                    None,
                )
            }
            (Mode::Central(total_epsilon), Some(persistence)) => {
                let total_epsilon = *total_epsilon;
                let mut manifest = persistence
                    .manifest
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                // One name, one accountant: if this name's ledger is still alive (an
                // unregistered entry held by in-flight queries), adopt the WHOLE
                // accounting state — ledger, journal, and served counter. Sharing only
                // the journal would leave two ledgers admitting against independent
                // in-memory balances while their absolute `spent_after` records merge
                // by monotone max, silently losing interleaved debits (i.e. re-granting
                // spent ε after a restart).
                let mut live = persistence
                    .live
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let adopted = live.get(&name).and_then(|handles| {
                    Some((
                        handles.ledger.upgrade()?,
                        handles.journal.upgrade()?,
                        handles.queries_served.upgrade()?,
                    ))
                });
                let (ledger, queries_served, journal) = match adopted {
                    Some((ledger, journal, queries_served)) => {
                        // Same refusal the on-disk open enforces: a live ledger's total
                        // cannot be re-negotiated by re-registering.
                        if ledger.total() != total_epsilon {
                            return Err(RegistryError::Io(format!(
                                "durable ledger for `{name}` is live with total ε = {} \
                                 but re-registration requested ε = {} — pass the \
                                 original budget",
                                epsilon_text(ledger.total()),
                                epsilon_text(total_epsilon),
                            )));
                        }
                        (ledger, queries_served, journal)
                    }
                    None => {
                        // The journal independently pins the total (in its snapshot),
                        // so even with the manifest deleted a different budget is
                        // refused here.
                        let (state, journal) = persistence
                            .state
                            .open_dataset(&name, total_epsilon)
                            .map_err(|e| RegistryError::Io(e.to_string()))?;
                        let ledger = Arc::new(BudgetLedger::with_journal(
                            total_epsilon,
                            state.spent,
                            Box::new(JournalSink::new(Arc::clone(&journal))),
                        ));
                        (ledger, Arc::new(AtomicU64::new(state.served)), journal)
                    }
                };
                live.insert(
                    name.clone(),
                    LiveAccounting {
                        ledger: Arc::downgrade(&ledger),
                        journal: Arc::downgrade(&journal),
                        queries_served: Arc::downgrade(&queries_served),
                    },
                );
                drop(live);
                // A *changed* shard count on re-registration is allowed and recorded:
                // re-partitioning never changes released bytes (property-tested), so
                // unlike the budget or the data it is a free operational knob.
                let mut updated = manifest.clone();
                updated.upsert(ManifestEntry {
                    name: name.clone(),
                    path: source.clone(),
                    epsilon: total_epsilon,
                    transactions,
                    fingerprint,
                    shards,
                    workers: workers.clone(),
                    ldp: None,
                    consistency: recorded_consistency,
                });
                persistence
                    .state
                    .store_manifest(&updated)
                    .map_err(|e| RegistryError::Io(e.to_string()))?;
                // Only commit the shared in-memory image once the bytes are on disk: a
                // failed store must not leave a phantom entry that the next successful
                // registration would silently persist.
                *manifest = updated;
                (PrivacyMode::Central(ledger), queries_served, Some(journal))
            }
        };

        let entry = Arc::new(DatasetEntry {
            name: name.clone(),
            data,
            transactions,
            distinct_items,
            shards,
            context: OnceLock::new(),
            mode,
            queries_served,
            consistency: Arc::new(AtomicBool::new(recorded_consistency)),
            journal,
            source,
            workers,
        });
        self.install_fabric_observer(&entry);
        map.insert(name, Arc::clone(&entry));
        Ok(entry)
    }

    /// Refuses a re-registration that contradicts the durable manifest: a central
    /// ledger on disk belongs to one (budget, data) pair, an LDP record to one
    /// debiasing channel — and neither mode may silently convert into the other.
    fn check_manifest_compatible(
        &self,
        name: &str,
        mode: &Mode,
        fingerprint: u64,
        transactions: usize,
    ) -> Result<(), RegistryError> {
        let Some(persistence) = &self.persistence else {
            return Ok(());
        };
        let manifest = persistence
            .manifest
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(recorded) = manifest.get(name) else {
            return Ok(());
        };
        match (mode, &recorded.ldp) {
            (Mode::Central(total_epsilon), None) => {
                if recorded.epsilon != *total_epsilon {
                    return Err(RegistryError::Mismatch(format!(
                        "dataset `{name}` has a durable ledger with total ε = {}, \
                         but re-registration requested ε = {} (pass the original \
                         budget, or use a fresh --state-dir)",
                        epsilon_text(recorded.epsilon),
                        epsilon_text(*total_epsilon),
                    )));
                }
                if recorded.fingerprint != fingerprint {
                    return Err(RegistryError::Mismatch(format!(
                        "dataset `{name}`'s content changed since registration \
                         ({} transactions then, {} now, fingerprint mismatch) — \
                         the durable ledger belongs to the original data (use a \
                         fresh --state-dir for new data)",
                        recorded.transactions, transactions,
                    )));
                }
            }
            (Mode::Central(_), Some(_)) => {
                return Err(RegistryError::ModeMismatch(format!(
                    "dataset `{name}` is recorded as an LDP dataset — it has no \
                     central ledger to re-register against (unregister it first, \
                     or pick a different name)"
                )));
            }
            (Mode::Ldp(_), None) => {
                return Err(RegistryError::ModeMismatch(format!(
                    "dataset `{name}` has a durable central ledger — re-registering \
                     it as LDP would orphan its spent ε (unregister it under the \
                     central mode, or pick a different name)"
                )));
            }
            (Mode::Ldp(channel), Some(recorded_params)) => {
                // No budget binds an LDP record, but the channel does: debiasing
                // rows with parameters they were not perturbed under silently
                // mis-estimates every support. The data itself may change freely —
                // re-registration re-records fingerprint and row count.
                if channel_params(channel) != *recorded_params {
                    return Err(RegistryError::Mismatch(format!(
                        "dataset `{name}` was registered with LDP channel \
                         (ε_local = {}, universe = {}, pad = {}) but re-registration \
                         requested (ε_local = {}, universe = {}, pad = {}) — the \
                         perturbed rows belong to the original channel",
                        recorded_params.epsilon_local,
                        recorded_params.universe,
                        recorded_params.pad,
                        channel.epsilon_local(),
                        channel.universe(),
                        channel.pad_len(),
                    )));
                }
            }
        }
        Ok(())
    }

    /// Flips the consistency post-processing knob for `name` (the `consistency` admin
    /// op), recording the new setting in the durable manifest so it survives a
    /// restart. Post-processing never touches the budget — this is a free operational
    /// knob, valid for both central and LDP datasets.
    pub fn set_consistency(
        &self,
        name: &str,
        enabled: bool,
    ) -> Result<Arc<DatasetEntry>, RegistryError> {
        let entry = self
            .get(name)
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))?;
        if let Some(persistence) = &self.persistence {
            let mut manifest = persistence
                .manifest
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(recorded) = manifest.get(name) {
                let mut manifest_entry = recorded.clone();
                manifest_entry.consistency = enabled;
                let mut updated = manifest.clone();
                updated.upsert(manifest_entry);
                persistence
                    .state
                    .store_manifest(&updated)
                    .map_err(|e| RegistryError::Io(e.to_string()))?;
                *manifest = updated;
            }
        }
        // Flip the live knob only after the manifest write succeeded: a failed store
        // must not leave disk and memory disagreeing about what queries do.
        entry.consistency.store(enabled, Ordering::Relaxed);
        Ok(entry)
    }

    /// Retunes the journal snapshot cadence (the `snapshot_every` admin op): journals
    /// already open, journals opened later, and — through the manifest — journals on
    /// the far side of a restart. Requires a persistent registry (an in-memory
    /// registry has no journals to compact).
    pub fn set_snapshot_every(&self, every: u32) -> Result<(), RegistryError> {
        let persistence = self.persistence.as_ref().ok_or_else(|| {
            RegistryError::Io(
                "the snapshot cadence is a journal knob — this server runs without \
                 a --state-dir, so there are no journals to compact"
                    .to_string(),
            )
        })?;
        let every = every.max(1);
        {
            let mut manifest = persistence
                .manifest
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let mut updated = manifest.clone();
            updated.snapshot_every = Some(every);
            persistence
                .state
                .store_manifest(&updated)
                .map_err(|e| RegistryError::Io(e.to_string()))?;
            *manifest = updated;
        }
        persistence.state.set_snapshot_every(every);
        // Retune the journals that are already open; new opens pick the value up
        // from the state dir.
        for entry in self.read().values() {
            if let Some(journal) = &entry.journal {
                journal
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .set_snapshot_every(every);
            }
        }
        Ok(())
    }

    /// The effective journal snapshot cadence (`None` for an in-memory registry).
    pub fn snapshot_every(&self) -> Option<u32> {
        self.persistence.as_ref().map(|p| p.state.snapshot_every())
    }

    /// Looks a dataset up by name.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.read().get(name).cloned()
    }

    /// The registered names, sorted (stable output for the status endpoint).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<DatasetEntry>>> {
        self.datasets.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<DatasetEntry>>> {
        self.datasets
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Partitions `db` into `shards` row shards and, when a placement is given, dials and
/// seeds the remote workers (shard `i` → `workers[i]`, remaining shards local).
/// Placement is a pure execution knob — released bytes are identical for local,
/// remote, and mixed layouts.
fn partition_data(
    db: TransactionDb,
    shards: usize,
    workers: &[String],
    name: &str,
) -> Result<Arc<ShardedDb>, RegistryError> {
    // One shard adopts the rows as they are; more shards copy them into contiguous
    // blocks and the source is dropped.
    let sharded = match shards {
        1 => ShardedDb::from_shards(vec![db]),
        _ => ShardedDb::partition(&db, shards),
    };
    if workers.is_empty() {
        return Ok(Arc::new(sharded));
    }
    let mut addrs = Vec::with_capacity(workers.len());
    for worker in workers {
        let addr = worker
            .to_socket_addrs()
            .map_err(|e| {
                RegistryError::Io(format!(
                    "shard worker address `{worker}` for dataset `{name}` did not resolve: {e}"
                ))
            })?
            .next()
            .ok_or_else(|| {
                RegistryError::Io(format!(
                    "shard worker address `{worker}` for dataset `{name}` resolved to nothing"
                ))
            })?;
        addrs.push(addr);
    }
    let sharded = sharded.with_workers(&addrs, name).map_err(|e| {
        RegistryError::Io(format!(
            "shard worker placement for dataset `{name}` failed: {e}"
        ))
    })?;
    Ok(Arc::new(sharded))
}

fn epsilon_text(epsilon: Epsilon) -> String {
    match epsilon {
        Epsilon::Finite(e) => e.to_string(),
        Epsilon::Infinite => "inf".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![vec![1, 2], vec![1, 2, 3], vec![2, 3]])
    }

    /// A unique scratch directory per test (cleaned up on drop; leaked on panic).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "pb-registry-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn state(&self) -> StateDir {
            StateDir::open(&self.0).unwrap()
        }

        fn write_fimi(&self, name: &str, rows: &str) -> String {
            let path = self.0.join(name);
            std::fs::write(&path, rows).unwrap();
            path.to_string_lossy().into_owned()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The shard count the durable manifest records for `name`, if any.
    fn manifest_shards(registry: &DatasetRegistry, name: &str) -> Option<usize> {
        let manifest = registry.persistence.as_ref()?.manifest.lock().unwrap();
        manifest.get(name).map(|entry| entry.shards)
    }

    #[test]
    fn registers_and_looks_up() {
        let registry = DatasetRegistry::new();
        assert!(!registry.is_durable());
        registry
            .register("retail", tiny_db(), Epsilon::Finite(2.0))
            .unwrap();
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
        let entry = registry.get("retail").unwrap();
        assert_eq!(entry.name(), "retail");
        assert_eq!(entry.transactions(), 3);
        assert_eq!(entry.ledger().unwrap().total(), Epsilon::Finite(2.0));
        assert!(!entry.is_durable());
        assert!(registry.get("nope").is_none());
        assert_eq!(registry.names(), vec!["retail".to_string()]);
        // Recover on an in-memory registry is a no-op, not an error.
        assert_eq!(registry.recover().unwrap(), RecoveryReport::default());
    }

    #[test]
    fn rejects_duplicates_and_empty_datasets() {
        let registry = DatasetRegistry::new();
        registry
            .register("a", tiny_db(), Epsilon::Finite(1.0))
            .unwrap();
        assert_eq!(
            registry
                .register("a", tiny_db(), Epsilon::Finite(1.0))
                .unwrap_err(),
            RegistryError::DuplicateName("a".into())
        );
        assert_eq!(
            registry
                .register("empty", TransactionDb::default(), Epsilon::Finite(1.0))
                .unwrap_err(),
            RegistryError::EmptyDataset("empty".into())
        );
        // Error display strings mention the dataset.
        assert!(RegistryError::DuplicateName("a".into())
            .to_string()
            .contains('a'));
        assert!(RegistryError::EmptyDataset("empty".into())
            .to_string()
            .contains("empty"));
        assert!(RegistryError::InvalidName("x/y".into())
            .to_string()
            .contains("x/y"));
        assert!(RegistryError::Mismatch("detail".into())
            .to_string()
            .contains("detail"));
        assert!(RegistryError::Io("disk".into())
            .to_string()
            .contains("disk"));
    }

    #[test]
    fn an_unreadable_source_file_is_not_a_persistence_failure() {
        // No state directory is involved, so the message must blame the file.
        let path = std::env::temp_dir()
            .join(format!(
                "pb-registry-no-such-file-{}.dat",
                std::process::id()
            ))
            .display()
            .to_string();
        let err = DatasetRegistry::new()
            .register_spec(RegisterSpec::central(
                "d",
                DataSource::File(path.clone()),
                Epsilon::Finite(1.0),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Source(_)), "{err:?}");
        let message = err.to_string();
        assert!(
            message.starts_with(&format!("failed to read dataset file {path}: ")),
            "{message}"
        );
        assert!(!message.contains("persistence"), "{message}");
    }

    #[test]
    fn invalid_shard_counts_are_refused_not_clamped() {
        let registry = DatasetRegistry::new();
        // 0 shards partitions nothing; more shards than rows would silently create
        // empty shards. Both used to be clamped — now they are structured refusals.
        let err = registry
            .register_sharded("z", tiny_db(), Epsilon::Finite(1.0), 0)
            .unwrap_err();
        assert_eq!(
            err,
            RegistryError::InvalidShards {
                name: "z".into(),
                shards: 0,
                rows: 3,
            }
        );
        assert!(
            err.to_string().contains("between 1 and the row count"),
            "{err}"
        );
        let err = registry
            .register_sharded("z", tiny_db(), Epsilon::Finite(1.0), 4)
            .unwrap_err();
        assert!(matches!(
            err,
            RegistryError::InvalidShards {
                shards: 4,
                rows: 3,
                ..
            }
        ));
        // The refusal left no entry behind; the boundary cases register fine.
        assert!(registry.get("z").is_none());
        registry
            .register_sharded("z", tiny_db(), Epsilon::Finite(1.0), 3)
            .unwrap();

        // The reshard seam enforces the same bounds.
        let err = registry.reshard("z", 0).unwrap_err();
        assert!(matches!(
            err,
            RegistryError::InvalidShards {
                shards: 0,
                rows: 3,
                ..
            }
        ));
        let err = registry.reshard("z", 4).unwrap_err();
        assert!(matches!(
            err,
            RegistryError::InvalidShards { shards: 4, .. }
        ));
        assert_eq!(
            registry.get("z").unwrap().shards(),
            3,
            "refusals change nothing"
        );
        assert_eq!(registry.reshard("z", 1).unwrap().shards(), 1);
    }

    /// The vertical index of shard `i`, reached through the entry's cached context.
    fn shard_index(entry: &DatasetEntry, i: usize) -> Arc<pb_fim::VerticalIndex> {
        let sharded = entry
            .context()
            .sharded_db()
            .expect("every context is sharded");
        Arc::clone(sharded.shards()[i].index())
    }

    #[test]
    fn index_builds_once_and_is_shared() {
        let registry = DatasetRegistry::new();
        let entry = registry
            .register("d", tiny_db(), Epsilon::Infinite)
            .unwrap();
        assert!(!entry.index_is_cached());
        let a = shard_index(&entry, 0);
        assert!(entry.index_is_cached());
        let b = shard_index(&entry, 0);
        assert!(Arc::ptr_eq(&a, &b), "second call must reuse the cache");
        assert_eq!(a.num_transactions(), 3);
    }

    #[test]
    fn concurrent_index_access_yields_one_index() {
        let registry = DatasetRegistry::new();
        let entry = registry
            .register("d", tiny_db(), Epsilon::Infinite)
            .unwrap();
        let indexes: Vec<Arc<pb_fim::VerticalIndex>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let entry = Arc::clone(&entry);
                    scope.spawn(move || shard_index(&entry, 0))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for ix in &indexes[1..] {
            assert!(Arc::ptr_eq(&indexes[0], ix));
        }
    }

    #[test]
    fn sharded_entries_release_identically_to_unsharded() {
        use pb_core::PrivBasis;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let rows: Vec<Vec<u32>> = (0..200)
            .map(|i| {
                (0..5u32)
                    .filter(|&j| i % 10 < 10 - 2 * j as usize)
                    .collect()
            })
            .collect();
        let registry = DatasetRegistry::new();
        let single = registry
            .register(
                "single",
                TransactionDb::from_transactions(rows.clone()),
                Epsilon::Finite(10.0),
            )
            .unwrap();
        let sharded = registry
            .register_sharded(
                "sharded",
                TransactionDb::from_transactions(rows),
                Epsilon::Finite(10.0),
                4,
            )
            .unwrap();
        assert_eq!(single.shards(), 1);
        assert_eq!(sharded.shards(), 4);
        assert_eq!(single.context().num_shards(), 1);
        assert_eq!(shard_index(&single, 0).num_transactions(), 200);
        assert_eq!(sharded.context().num_shards(), 4);
        let pb = PrivBasis::with_defaults();
        for seed in [1u64, 7] {
            let a = pb
                .run_shared(
                    &mut StdRng::seed_from_u64(seed),
                    single.context(),
                    4,
                    Epsilon::Finite(1.0),
                )
                .unwrap();
            let b = pb
                .run_shared(
                    &mut StdRng::seed_from_u64(seed),
                    sharded.context(),
                    4,
                    Epsilon::Finite(1.0),
                )
                .unwrap();
            assert_eq!(a.itemsets.len(), b.itemsets.len());
            for ((sa, ca), (sb, cb)) in a.itemsets.iter().zip(&b.itemsets) {
                assert_eq!(sa, sb);
                assert_eq!(ca.to_bits(), cb.to_bits());
            }
        }
    }

    #[test]
    fn recover_restores_the_shard_layout() {
        let scratch = Scratch::new("shardrecover");
        let path = scratch.write_fimi("s.dat", "1 2\n1 2 3\n2 3\n1 3\n2\n1\n");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            let entry = registry
                .register_spec(RegisterSpec {
                    shards: Some(3),
                    ..RegisterSpec::central(
                        "s",
                        DataSource::File(path.clone()),
                        Epsilon::Finite(3.0),
                    )
                })
                .unwrap();
            assert_eq!(entry.shards(), 3);
            entry.ledger().unwrap().try_spend(0.5).unwrap();
        }
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        registry.recover().unwrap();
        let entry = registry.get("s").unwrap();
        assert_eq!(entry.shards(), 3, "manifest must carry the shard layout");
        assert!((entry.ledger().unwrap().spent() - 0.5).abs() < 1e-12);
        assert_eq!(entry.context().num_shards(), 3);
        // Journal metrics are exposed for durable entries.
        let stats = entry.journal_stats().unwrap();
        assert!(stats.wal_bytes >= 4);
        drop(entry);
        drop(registry);
        // Re-registering with a different shard count is a free operational knob
        // (released bytes are shard-count-invariant): allowed and re-recorded.
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let entry = registry
            .register_spec(RegisterSpec {
                shards: Some(5),
                ..RegisterSpec::central("s", DataSource::File(path.clone()), Epsilon::Finite(3.0))
            })
            .unwrap();
        assert_eq!(entry.shards(), 5);
        assert!((entry.ledger().unwrap().spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recover_keeps_going_past_an_unloadable_dataset() {
        let scratch = Scratch::new("partialrecover");
        let good = scratch.write_fimi("good.dat", "1 2\n2 3\n1 3\n");
        let doomed = scratch.write_fimi("doomed.dat", "4 5\n5 6\n");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            registry
                .register_spec(RegisterSpec::central(
                    "good",
                    DataSource::File(good.clone()),
                    Epsilon::Finite(2.0),
                ))
                .unwrap();
            let entry = registry
                .register_spec(RegisterSpec::central(
                    "doomed",
                    DataSource::File(doomed.clone()),
                    Epsilon::Finite(2.0),
                ))
                .unwrap();
            entry.ledger().unwrap().try_spend(0.5).unwrap();
        }
        // The doomed source file vanishes; the healthy dataset must still come up and
        // the failure must be reported, not fatal.
        std::fs::remove_file(&doomed).unwrap();
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let report = registry.recover().unwrap();
        assert_eq!(report.loaded, vec!["good".to_string()]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, "doomed");
        assert!(registry.get("good").is_some());
        assert!(registry.get("doomed").is_none());
        // The manifest still records the layout for a later fixed re-registration.
        assert_eq!(manifest_shards(&registry, "doomed"), Some(1));
        assert_eq!(manifest_shards(&registry, "nope"), None);
    }

    #[test]
    fn unregister_removes_only_the_serving_slot() {
        let registry = DatasetRegistry::new();
        registry
            .register("d", tiny_db(), Epsilon::Finite(1.0))
            .unwrap();
        assert_eq!(
            registry.unregister("nope").unwrap_err(),
            RegistryError::NotFound("nope".into())
        );
        let removed = registry.unregister("d").unwrap();
        assert_eq!(removed.name(), "d");
        assert!(registry.get("d").is_none());
        assert!(registry.is_empty());
        // The name is free again.
        registry
            .register("d", tiny_db(), Epsilon::Finite(1.0))
            .unwrap();
    }

    #[test]
    fn durable_unregister_drops_the_manifest_entry_but_keeps_the_spend() {
        let scratch = Scratch::new("unregister");
        let path = scratch.write_fimi("u.dat", "1 2\n1 2 3\n2 3\n");
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let entry = registry
            .register_spec(RegisterSpec::central(
                "u",
                DataSource::File(path.clone()),
                Epsilon::Finite(2.0),
            ))
            .unwrap();
        entry.ledger().unwrap().try_spend(0.5).unwrap();
        registry.unregister("u").unwrap();
        // The manifest forgets the dataset (a restart will not reload it) …
        assert_eq!(manifest_shards(&registry, "u"), None);
        assert!(registry.recover().unwrap().loaded.is_empty());
        // … but the accounting state survives LIVE, so re-registering adopts the SAME
        // ledger — even while `entry` (think: an in-flight query) still holds the old
        // one. Sharing only the journal file would not be enough: two ledgers over one
        // max-merged journal lose interleaved debits (re-granting spent ε on replay)
        // and admit against independent in-memory balances.
        let again = registry
            .register_spec(RegisterSpec::central(
                "u",
                DataSource::File(path.clone()),
                Epsilon::Finite(2.0),
            ))
            .unwrap();
        assert!((again.ledger().unwrap().spent() - 0.5).abs() < 1e-12);
        // Interleave spends across BOTH handles; every debit must be visible to every
        // handle immediately (one accountant), and the journal must record the sum.
        again.ledger().unwrap().try_spend(0.2).unwrap();
        entry.ledger().unwrap().try_spend(0.25).unwrap();
        again.ledger().unwrap().try_spend(0.3).unwrap();
        assert!((entry.ledger().unwrap().spent() - 1.25).abs() < 1e-12);
        assert!((again.ledger().unwrap().spent() - 1.25).abs() < 1e-12);
        // Combined admission is bounded by the single total: 0.76 > 2.0 − 1.25 must be
        // refused through either handle.
        assert!(entry.ledger().unwrap().try_spend(0.76).is_err());
        assert!(again.ledger().unwrap().try_spend(0.76).is_err());
        drop(entry);
        drop(again);
        drop(registry);
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let recovered = registry
            .register_spec(RegisterSpec::central(
                "u",
                DataSource::File(path.clone()),
                Epsilon::Finite(2.0),
            ))
            .unwrap();
        assert!(
            (recovered.ledger().unwrap().spent() - 1.25).abs() < 1e-12,
            "interleaved debits across both handles must all replay, got {}",
            recovered.ledger().unwrap().spent()
        );
        // With every old handle dropped, a fresh budget mismatch is still refused by
        // the on-disk open path.
        drop(recovered);
        drop(registry);
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let err = registry
            .register_spec(RegisterSpec::central(
                "u",
                DataSource::File(path.clone()),
                Epsilon::Finite(9.0),
            ))
            .unwrap_err();
        assert!(
            matches!(err, RegistryError::Mismatch(_) | RegistryError::Io(_)),
            "{err}"
        );
    }

    #[test]
    fn live_re_registration_refuses_a_different_total() {
        let scratch = Scratch::new("livetotal");
        let path = scratch.write_fimi("t.dat", "1 2\n2 3\n");
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let entry = registry
            .register_spec(RegisterSpec::central(
                "t",
                DataSource::File(path.clone()),
                Epsilon::Finite(2.0),
            ))
            .unwrap();
        registry.unregister("t").unwrap();
        // The old entry is alive, so adoption is attempted — and must refuse a
        // re-negotiated total just like the on-disk open does.
        let err = registry
            .register_spec(RegisterSpec::central(
                "t",
                DataSource::File(path.clone()),
                Epsilon::Finite(5.0),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Io(_)), "{err}");
        assert!(err.to_string().contains("total"), "{err}");
        drop(entry);
    }

    #[test]
    fn reshard_swaps_the_layout_and_shares_the_ledger() {
        use pb_core::PrivBasis;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let rows: Vec<Vec<u32>> = (0..200)
            .map(|i| {
                (0..5u32)
                    .filter(|&j| i % 10 < 10 - 2 * j as usize)
                    .collect()
            })
            .collect();
        let registry = DatasetRegistry::new();
        let entry = registry
            .register(
                "d",
                TransactionDb::from_transactions(rows),
                Epsilon::Finite(10.0),
            )
            .unwrap();
        entry.ledger().unwrap().try_spend(1.0).unwrap();
        entry.record_query();
        let pb = PrivBasis::with_defaults();
        let before = pb
            .run_shared(
                &mut StdRng::seed_from_u64(9),
                entry.context(),
                4,
                Epsilon::Finite(1.0),
            )
            .unwrap();

        assert_eq!(
            registry.reshard("nope", 2).unwrap_err(),
            RegistryError::NotFound("nope".into())
        );
        let resharded = registry.reshard("d", 3).unwrap();
        assert_eq!(resharded.shards(), 3);
        assert_eq!(resharded.transactions(), entry.transactions());
        assert_eq!(registry.get("d").unwrap().shards(), 3);
        // One ledger, one counter: the old handle and the new entry share them.
        assert!((resharded.ledger().unwrap().spent() - 1.0).abs() < 1e-12);
        entry.ledger().unwrap().try_spend(0.5).unwrap();
        assert!((resharded.ledger().unwrap().spent() - 1.5).abs() < 1e-12);
        assert_eq!(resharded.queries_served(), 1);
        // Releases do not move by a byte.
        let after = pb
            .run_shared(
                &mut StdRng::seed_from_u64(9),
                resharded.context(),
                4,
                Epsilon::Finite(1.0),
            )
            .unwrap();
        assert_eq!(before.itemsets.len(), after.itemsets.len());
        for ((sa, ca), (sb, cb)) in before.itemsets.iter().zip(&after.itemsets) {
            assert_eq!(sa, sb);
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
        // Resharding back down to 1 leaves one shard indexing every row.
        let single = registry.reshard("d", 1).unwrap();
        assert_eq!(single.shards(), 1);
        assert_eq!(single.context().num_shards(), 1);
        assert_eq!(
            shard_index(&single, 0).num_transactions(),
            single.transactions()
        );
    }

    #[test]
    fn durable_reshard_records_the_new_layout() {
        let scratch = Scratch::new("reshardrec");
        let path = scratch.write_fimi("r.dat", "1 2\n1 2 3\n2 3\n1 3\n2\n1\n");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            let entry = registry
                .register_spec(RegisterSpec {
                    shards: Some(2),
                    ..RegisterSpec::central(
                        "r",
                        DataSource::File(path.clone()),
                        Epsilon::Finite(3.0),
                    )
                })
                .unwrap();
            entry.ledger().unwrap().try_spend(0.5).unwrap();
            let resharded = registry.reshard("r", 4).unwrap();
            assert_eq!(resharded.shards(), 4);
            assert_eq!(manifest_shards(&registry, "r"), Some(4));
        }
        // A restart rebuilds the resharded layout from the manifest.
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        registry.recover().unwrap();
        let entry = registry.get("r").unwrap();
        assert_eq!(entry.shards(), 4);
        assert!((entry.ledger().unwrap().spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn query_counter_is_monotone() {
        let registry = DatasetRegistry::new();
        let entry = registry
            .register("d", tiny_db(), Epsilon::Infinite)
            .unwrap();
        assert_eq!(entry.queries_served(), 0);
        entry.record_query();
        entry.record_query();
        assert_eq!(entry.queries_served(), 2);
    }

    #[test]
    fn durable_ledger_state_survives_reconstruction() {
        let scratch = Scratch::new("survive");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            assert!(registry.is_durable());
            let entry = registry
                .register("d", tiny_db(), Epsilon::Finite(2.0))
                .unwrap();
            assert!(entry.is_durable());
            entry.ledger().unwrap().try_spend(0.5).unwrap();
            entry.record_query();
            entry.ledger().unwrap().try_spend(0.25).unwrap();
            entry.record_query();
        }
        // "Restart": a fresh registry over the same state dir.
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let entry = registry
            .register("d", tiny_db(), Epsilon::Finite(2.0))
            .unwrap();
        assert!((entry.ledger().unwrap().spent() - 0.75).abs() < 1e-12);
        assert!((entry.ledger().unwrap().remaining() - 1.25).abs() < 1e-12);
        assert_eq!(entry.queries_served(), 2);
        // An exhausted ledger stays exhausted across reconstruction.
        entry.ledger().unwrap().try_spend(1.25).unwrap();
        assert!(entry.ledger().unwrap().is_exhausted());
        drop(entry);
        drop(registry);
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let entry = registry
            .register("d", tiny_db(), Epsilon::Finite(2.0))
            .unwrap();
        assert!(entry.ledger().unwrap().is_exhausted());
        assert!(entry.ledger().unwrap().try_spend(0.001).is_err());
    }

    #[test]
    fn recover_reloads_file_datasets_from_the_manifest() {
        let scratch = Scratch::new("recover");
        let path = scratch.write_fimi("r.dat", "1 2\n1 2 3\n2 3\n");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            let entry = registry
                .register_spec(RegisterSpec::central(
                    "retail",
                    DataSource::File(path.clone()),
                    Epsilon::Finite(3.0),
                ))
                .unwrap();
            entry.ledger().unwrap().try_spend(1.0).unwrap();
            entry.record_query();
            // One in-process dataset: durable ledger, but not reloadable.
            registry
                .register("mem", tiny_db(), Epsilon::Finite(1.0))
                .unwrap();
        }
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        assert!(registry.is_empty());
        let report = registry.recover().unwrap();
        assert_eq!(report.loaded, vec!["retail".to_string()]);
        assert_eq!(report.skipped, vec!["mem".to_string()]);
        let entry = registry.get("retail").unwrap();
        assert_eq!(entry.transactions(), 3);
        assert_eq!(entry.ledger().unwrap().total(), Epsilon::Finite(3.0));
        assert!((entry.ledger().unwrap().spent() - 1.0).abs() < 1e-12);
        assert_eq!(entry.queries_served(), 1);
        // Recover is idempotent for loaded datasets; entries without a path stay
        // skipped (they can only be re-registered in-process).
        let again = registry.recover().unwrap();
        assert!(again.loaded.is_empty());
        assert_eq!(again.skipped, vec!["mem".to_string()]);
    }

    #[test]
    fn persistent_registry_rejects_contradictory_re_registration() {
        let scratch = Scratch::new("mismatch");
        let path = scratch.write_fimi("d.dat", "1 2\n2 3\n");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            registry
                .register_spec(RegisterSpec::central(
                    "d",
                    DataSource::File(path.clone()),
                    Epsilon::Finite(1.0),
                ))
                .unwrap();
        }
        // Different budget: refused (would rescale the durable guarantee).
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let err = registry
            .register_spec(RegisterSpec::central(
                "d",
                DataSource::File(path.clone()),
                Epsilon::Finite(9.0),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Mismatch(_)), "{err}");
        // Different data under the same ledger: refused.
        let grown = scratch.write_fimi("d2.dat", "1 2\n2 3\n1 3\n");
        let err = registry
            .register_spec(RegisterSpec::central(
                "d",
                DataSource::File(grown.clone()),
                Epsilon::Finite(1.0),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Mismatch(_)), "{err}");
        // Even at the *same row count*: content changes flip the fingerprint.
        let edited = scratch.write_fimi("d3.dat", "1 2\n2 4\n");
        let err = registry
            .register_spec(RegisterSpec::central(
                "d",
                DataSource::File(edited.clone()),
                Epsilon::Finite(1.0),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Mismatch(_)), "{err}");
        // The original spec still registers fine.
        registry
            .register_spec(RegisterSpec::central(
                "d",
                DataSource::File(path.clone()),
                Epsilon::Finite(1.0),
            ))
            .unwrap();
    }

    #[test]
    fn persistent_registry_validates_names() {
        let scratch = Scratch::new("names");
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let err = registry
            .register("../evil", tiny_db(), Epsilon::Finite(1.0))
            .unwrap_err();
        assert!(matches!(err, RegistryError::InvalidName(_)), "{err}");
        // In-memory registries accept any name (nothing touches the filesystem).
        let registry = DatasetRegistry::new();
        registry
            .register("../evil", tiny_db(), Epsilon::Finite(1.0))
            .unwrap();
    }

    fn tiny_channel() -> LdpChannel {
        LdpChannel::new(4.0, 8, 2).unwrap()
    }

    #[test]
    fn ldp_datasets_have_no_ledger_by_construction() {
        let registry = DatasetRegistry::new();
        let entry = registry
            .register_spec(RegisterSpec::ldp(
                "local",
                DataSource::Rows(tiny_db()),
                tiny_channel(),
            ))
            .unwrap();
        assert!(entry.is_ldp());
        // Not an exhausted or zeroed ledger: no ledger exists at all.
        assert!(entry.ledger().is_none());
        let channel = entry.ldp_channel().unwrap();
        assert_eq!(channel.universe(), 8);
        assert_eq!(channel.pad_len(), 2);
        assert!(!entry.is_durable());
        assert!(!entry.journal_wedged());
        entry.record_query();
        assert_eq!(entry.queries_served(), 1);
        // A central entry on the same registry still has its ledger.
        let central = registry
            .register("central", tiny_db(), Epsilon::Finite(1.0))
            .unwrap();
        assert!(!central.is_ldp());
        assert!(central.ledger().is_some());
        assert!(central.ldp_channel().is_none());
    }

    #[test]
    fn cross_mode_registration_is_a_structured_mode_mismatch() {
        let registry = DatasetRegistry::new();
        registry
            .register("central", tiny_db(), Epsilon::Finite(1.0))
            .unwrap();
        registry
            .register_spec(RegisterSpec::ldp(
                "local",
                DataSource::Rows(tiny_db()),
                tiny_channel(),
            ))
            .unwrap();
        // Live entries: the colliding mode gets ModeMismatch, the same mode the
        // ordinary DuplicateName.
        let err = registry
            .register_spec(RegisterSpec::ldp(
                "central",
                DataSource::Rows(tiny_db()),
                tiny_channel(),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::ModeMismatch(_)), "{err}");
        let err = registry
            .register("local", tiny_db(), Epsilon::Finite(1.0))
            .unwrap_err();
        assert!(matches!(err, RegistryError::ModeMismatch(_)), "{err}");
        assert!(matches!(
            registry
                .register("central", tiny_db(), Epsilon::Finite(1.0))
                .unwrap_err(),
            RegistryError::DuplicateName(_)
        ));
        assert!(matches!(
            registry
                .register_spec(RegisterSpec::ldp(
                    "local",
                    DataSource::Rows(tiny_db()),
                    tiny_channel()
                ))
                .unwrap_err(),
            RegistryError::DuplicateName(_)
        ));
        assert!(RegistryError::ModeMismatch("detail".into())
            .to_string()
            .contains("detail"));
    }

    #[test]
    fn durable_cross_mode_re_registration_is_refused() {
        let scratch = Scratch::new("xmode");
        let path = scratch.write_fimi("d.dat", "1 2\n2 3\n");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            registry
                .register_spec(RegisterSpec::central(
                    "central",
                    DataSource::File(path.clone()),
                    Epsilon::Finite(1.0),
                ))
                .unwrap();
            registry
                .register_spec(RegisterSpec::ldp(
                    "local",
                    DataSource::File(path.clone()),
                    tiny_channel(),
                ))
                .unwrap();
        }
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        // The manifest remembers each mode across a restart: a central name cannot
        // become LDP (its spent ε would be orphaned) nor the reverse.
        let err = registry
            .register_spec(RegisterSpec::ldp(
                "central",
                DataSource::File(path.clone()),
                tiny_channel(),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::ModeMismatch(_)), "{err}");
        let err = registry
            .register_spec(RegisterSpec::central(
                "local",
                DataSource::File(path.clone()),
                Epsilon::Finite(1.0),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::ModeMismatch(_)), "{err}");
        // A *different channel* under an existing LDP name is a manifest mismatch:
        // the perturbed rows belong to the channel they came through.
        let err = registry
            .register_spec(RegisterSpec::ldp(
                "local",
                DataSource::File(path.clone()),
                LdpChannel::new(2.0, 8, 2).unwrap(),
            ))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Mismatch(_)), "{err}");
        // The original spec still registers fine.
        registry
            .register_spec(RegisterSpec::ldp(
                "local",
                DataSource::File(path.clone()),
                tiny_channel(),
            ))
            .unwrap();
    }

    #[test]
    fn recover_reloads_ldp_datasets_with_their_channel() {
        let scratch = Scratch::new("ldprecover");
        let path = scratch.write_fimi("l.dat", "1 2\n0 3\n2 3\n4 5\n");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            let entry = registry
                .register_spec(RegisterSpec {
                    shards: Some(2),
                    ..RegisterSpec::ldp("local", DataSource::File(path.clone()), tiny_channel())
                })
                .unwrap();
            assert!(entry.is_ldp());
            // No journal is ever opened for an LDP dataset.
            assert!(!scratch.0.join("local.wal").exists());
            assert!(!scratch.0.join("local.snap").exists());
        }
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        let report = registry.recover().unwrap();
        assert_eq!(report.loaded, vec!["local".to_string()]);
        let entry = registry.get("local").unwrap();
        assert!(entry.is_ldp());
        assert!(entry.ledger().is_none());
        assert_eq!(entry.shards(), 2);
        let channel = entry.ldp_channel().unwrap();
        assert_eq!(
            (
                channel.epsilon_local(),
                channel.universe(),
                channel.pad_len()
            ),
            (4.0, 8, 2)
        );
    }

    #[test]
    fn consistency_toggle_survives_reshard_and_restart() {
        let scratch = Scratch::new("consistency");
        let path = scratch.write_fimi("c.dat", "1 2\n1 2 3\n2 3\n1 3\n");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            let entry = registry
                .register_spec(RegisterSpec::central(
                    "c",
                    DataSource::File(path.clone()),
                    Epsilon::Finite(2.0),
                ))
                .unwrap();
            assert!(entry.consistency_enabled());
            registry.set_consistency("c", false).unwrap();
            assert!(!entry.consistency_enabled());
            // The knob is shared across reshard generations, not copied.
            let resharded = registry.reshard("c", 2).unwrap();
            assert!(!resharded.consistency_enabled());
            registry.set_consistency("c", true).unwrap();
            registry.set_consistency("c", false).unwrap();
            assert!(matches!(
                registry.set_consistency("nope", true).unwrap_err(),
                RegistryError::NotFound(_)
            ));
        }
        // The manifest remembers the toggle across a restart.
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        registry.recover().unwrap();
        assert!(!registry.get("c").unwrap().consistency_enabled());
        // In-memory registries flip the live knob without persistence.
        let registry = DatasetRegistry::new();
        let entry = registry
            .register("m", tiny_db(), Epsilon::Infinite)
            .unwrap();
        registry.set_consistency("m", false).unwrap();
        assert!(!entry.consistency_enabled());
    }

    #[test]
    fn snapshot_cadence_is_durable_and_retunes_live_journals() {
        let scratch = Scratch::new("cadence");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            let entry = registry
                .register("d", tiny_db(), Epsilon::Finite(100.0))
                .unwrap();
            registry.set_snapshot_every(2).unwrap();
            assert_eq!(registry.snapshot_every(), Some(2));
            // The already-open journal compacts on the new cadence: two debits
            // trigger a snapshot (generation > 0).
            entry.ledger().unwrap().try_spend(0.5).unwrap();
            entry.ledger().unwrap().try_spend(0.5).unwrap();
            let stats = entry.journal_stats().unwrap();
            assert!(
                stats.snapshot_generation > 0,
                "cadence 2 should have compacted after 2 debits, stats: {stats:?}"
            );
        }
        // The cadence survives a restart via the manifest.
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        assert_eq!(registry.snapshot_every(), Some(2));
        // An in-memory registry has no journals to retune.
        let registry = DatasetRegistry::new();
        assert!(registry.snapshot_every().is_none());
        assert!(matches!(
            registry.set_snapshot_every(8).unwrap_err(),
            RegistryError::Io(_)
        ));
    }

    #[test]
    fn reusing_a_name_inherits_its_durable_spend() {
        // Deleting the manifest (or registering a name whose journal survived) must
        // never zero the ledger: the journal, not the manifest, owns the spend.
        let scratch = Scratch::new("inherit");
        {
            let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
            let entry = registry
                .register("d", tiny_db(), Epsilon::Finite(1.0))
                .unwrap();
            entry.ledger().unwrap().try_spend(0.75).unwrap();
        }
        std::fs::remove_file(scratch.0.join("manifest.json")).unwrap();
        let registry = DatasetRegistry::with_persistence(scratch.state()).unwrap();
        // With the manifest gone, the journal still pins the total: re-registering at
        // a *larger* budget over the same spent ε is refused, not granted.
        let err = registry
            .register("d", tiny_db(), Epsilon::Finite(100.0))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Io(_)), "{err}");
        assert!(err.to_string().contains("total"), "{err}");
        let entry = registry
            .register("d", tiny_db(), Epsilon::Finite(1.0))
            .unwrap();
        assert!(
            (entry.ledger().unwrap().spent() - 0.75).abs() < 1e-12,
            "journal spend must survive manifest loss"
        );
    }
}

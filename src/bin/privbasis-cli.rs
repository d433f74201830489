//! `privbasis-cli` — publish the top-k frequent itemsets of a FIMI-format transaction file
//! under ε-differential privacy from the command line, or serve datasets over TCP.
//!
//! ```text
//! privbasis-cli --input retail.dat --k 100 --epsilon 1.0 [--method pb|tf] [--seed 42]
//!               [--m 2] [--rules 0.8] [--tsv] [--no-consistency] [--shards 4]
//! privbasis-cli serve --port 8710 --dataset retail=retail.dat [--dataset web=web.dat]
//!               [--budget 4.0] [--threads 8] [--host 127.0.0.1]
//!               [--state-dir state/] [--snapshot-every 256]
//!               [--http-port 8080] [--admin-token SECRET]
//!               [--shards 4 --shard-worker 10.0.0.1:8711 --shard-worker 10.0.0.2:8711]
//! privbasis-cli shard-worker --port 8711 [--host 127.0.0.1] [--threads 4]
//! privbasis-cli audit [--root DIR] [--json]
//! privbasis-cli perturb --input retail.dat --epsilon-local 4.0 [--universe K] [--pad L]
//!               [--seed 42] [--out perturbed.dat]
//! privbasis-cli eval --input retail.dat [--ks 10,50,100] [--epsilons 0.25,0.5,1.0]
//!               [--runs 5] [--seed 42] [--out BENCH_utility.json] [--ldp]
//! ```
//!
//! The input format is the FIMI repository format the paper's datasets are distributed in:
//! one transaction per line, items as whitespace-separated non-negative integers.
//! `serve` registers every `--dataset name=path` under a per-dataset privacy-budget
//! ledger of `--budget` ε and answers the versioned `pb-proto` wire protocol (legacy v1
//! lines and v2 envelopes) until a client sends a `shutdown` op. With `--state-dir` the
//! ledgers are durable: every debit is journaled and fsynced before noise is drawn, and
//! a restarted server recovers its datasets, spent ε, and query counters from the
//! directory — spent budget survives even `kill -9`. `--admin-token` enables the hot
//! admin ops (`register`/`unregister`/`reshard`) behind a bearer token; `--http-port`
//! adds the HTTP/1.1 gateway (`POST /v1/query`, `GET /v1/status`, `POST /v1/admin/*`,
//! `GET /metrics`).
//!
//! `audit` runs the `pb-audit` workspace invariant linter (determinism, privacy seam,
//! panic freedom, failpoint adjacency) over `--root` (default: the current directory)
//! and exits non-zero on findings — the same gate CI enforces.
//!
//! `eval` is the utility harness: it sweeps an ε × k grid, runs the private mechanism
//! `--runs` times per cell (seeds `seed`, `seed+1`, …), scores every release against
//! the exact top-`k` with pb-metrics (precision / recall / F1, mean ± standard error),
//! prints an aligned table, and writes the full grid as JSON for plotting — the
//! paper's §5 utility experiment as one command. With `--ldp` every cell is scored
//! twice — once through the central mechanism at ε and once through the local model
//! (client-side k-RR perturbation at ε_local = ε, debiased noiseless mining) — the
//! central-vs-local accuracy grid, written to `BENCH_ldp.json` by default.
//!
//! `perturb` is the client half of the local model: it pushes a raw FIMI file
//! through an [`LdpChannel`] (k-ary randomized response over padded transactions) and
//! emits the perturbed FIMI rows — what an untrusting client would upload.

#![forbid(unsafe_code)]

use privbasis::core::{PrivBasisParams, QueryContext};
use privbasis::dp::Epsilon;
use privbasis::fim::io::read_fimi_file;
use privbasis::fim::rules::generate_rules_from_noisy;
use privbasis::service::{
    DataSource, DatasetRegistry, PbServer, RegisterSpec, ServiceConfig, StateDir,
};
use privbasis::tf::{TfConfig, TfMethod};
use privbasis::{ItemSet, LdpChannel, PrivBasis, PublishedItemset, ShardedDb, TransactionDb};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;

/// Which private mechanism to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    PrivBasis,
    TruncatedFrequency,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Options {
    input: String,
    k: usize,
    epsilon: f64,
    method: Method,
    seed: u64,
    tf_m: usize,
    rules_min_confidence: Option<f64>,
    tsv: bool,
    no_consistency: bool,
    /// Partition the rows into this many shards (one when unset); the output for a
    /// fixed seed is byte-identical for any count (exercises the `pb-shard` fan-out).
    shards: Option<usize>,
}

/// Parsed options of the `serve` subcommand.
#[derive(Debug, Clone)]
struct ServeOptions {
    host: String,
    port: u16,
    /// `(name, path)` pairs to register.
    datasets: Vec<(String, String)>,
    /// Per-dataset lifetime ε ledger (infinite when the operator passes `inf`).
    budget: f64,
    threads: Option<usize>,
    no_consistency: bool,
    /// Directory for durable ledgers + the dataset manifest; `None` keeps everything
    /// in memory (budgets reset on restart — fine for experiments, not for serving).
    state_dir: Option<String>,
    /// Journal records between snapshot compactions (`None` = library default).
    snapshot_every: Option<u32>,
    /// Row-shard count applied to every `--dataset` registration (`None` = unsharded;
    /// recovered datasets keep the shard layout recorded in the manifest).
    shards: Option<usize>,
    /// Bearer token enabling the hot admin ops; `None` disables the admin surface.
    admin_token: Option<String>,
    /// Port for the HTTP/1.1 gateway (0 = OS-assigned); `None` disables HTTP.
    http_port: Option<u16>,
    /// Admission cap on in-flight connections (`None` = library default); accepts
    /// beyond it are shed with a structured `unavailable` response.
    max_pending: Option<usize>,
    /// Remote shard-worker addresses: shard `i` of every `--dataset` registration is
    /// placed on `shard_workers[i]` (remaining shards stay local). Placement never
    /// changes released bytes.
    shard_workers: Vec<String>,
}

/// Parsed options of the `shard-worker` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkerOptions {
    host: String,
    port: u16,
    threads: Option<usize>,
}

const USAGE: &str = "usage: privbasis-cli --input <file.dat> --k <K> --epsilon <EPS>\n\
       [--method pb|tf] [--m <M>] [--seed <SEED>] [--rules <MIN_CONFIDENCE>] [--tsv]\n\
       [--no-consistency] [--shards <S>]\n\
   or: privbasis-cli serve --port <PORT> --dataset <NAME>=<FILE.dat> [--dataset ...]\n\
       [--budget <EPS>] [--threads <N>] [--host <ADDR>] [--no-consistency]\n\
       [--state-dir <DIR>] [--snapshot-every <N>] [--shards <S>]\n\
       [--http-port <PORT>] [--admin-token <TOKEN>] [--max-pending <N>]\n\
       [--shard-worker <ADDR:PORT>]...\n\
   or: privbasis-cli shard-worker --port <PORT> [--host <ADDR>] [--threads <N>]\n\
   or: privbasis-cli audit [--root <DIR>] [--json]\n\
   or: privbasis-cli perturb --input <file.dat> --epsilon-local <EPS> [--universe <K>]\n\
       [--pad <L>] [--seed <SEED>] [--out <FILE.dat>]\n\
   or: privbasis-cli eval --input <file.dat> [--ks <K,K,...>] [--epsilons <E,E,...>]\n\
       [--runs <R>] [--seed <SEED>] [--method pb|tf] [--m <M>] [--no-consistency]\n\
       [--out <FILE.json>] [--ldp] [--ldp-universe <K>] [--ldp-pad <L>]\n\
\n\
  --input    FIMI-format transaction file (one transaction per line, integer items)\n\
  --k        number of itemsets to publish\n\
  --epsilon  total differential-privacy budget (use `inf` for a noiseless dry run)\n\
  --method   pb (PrivBasis, default) or tf (Truncated Frequency baseline)\n\
  --m        TF length cap (default 2; ignored for pb)\n\
  --seed     RNG seed (default 42)\n\
  --rules    also print association rules from the noisy release at this confidence\n\
  --tsv      machine-readable tab-separated output\n\
  --no-consistency\n\
             publish raw reconstructed counts without the consistency\n\
             post-processing of §4 (Hay et al.); default is on, as in the paper\n\
  --shards   partition the rows into S shards and count through the sharded\n\
             fan-out/merge engine (same output for the same seed)\n\
\n\
serve mode:\n\
  --port     TCP port to listen on (required)\n\
  --host     bind address (default 127.0.0.1)\n\
  --dataset  NAME=FILE.dat, repeatable; each gets its own budget ledger\n\
  --budget   lifetime ε per dataset (default 1.0; `inf` disables the ledger)\n\
  --threads  worker pool size (default: PB_NUM_THREADS or the CPU count)\n\
  --state-dir\n\
             durable state directory: every ε debit is journaled (fsync) before any\n\
             noise is drawn, and datasets + ledgers + query counters are recovered\n\
             after a crash or restart; without it budgets reset with the process\n\
  --snapshot-every\n\
             journal records between snapshot compactions (default 256)\n\
  --shards   serve every --dataset over S row shards (per-shard indexes, merged\n\
             counts; releases are byte-identical to unsharded serving). The shard\n\
             layout is recorded in the state dir's manifest and restored on recovery\n\
  --admin-token\n\
             bearer token enabling the hot admin ops (register/unregister/reshard)\n\
             over TCP v2 envelopes and POST /v1/admin/*; without it every admin\n\
             request is rejected with `unauthorized`\n\
  --http-port\n\
             also serve an HTTP/1.1 gateway on this port (0 = OS-assigned):\n\
             POST /v1/query, GET /v1/status, POST /v1/admin/*, GET /metrics\n\
             (Prometheus text format)\n\
  --max-pending\n\
             admission cap on in-flight connections (default 1024); accepts beyond\n\
             it are shed immediately with a structured `unavailable` response\n\
             (HTTP: 503 + Retry-After) instead of queueing without bound\n\
  --shard-worker\n\
             ADDR:PORT of a `privbasis-cli shard-worker` process, repeatable: shard\n\
             i of every dataset is placed on the i-th worker (remaining shards stay\n\
             local). Released bytes are identical for any placement; workers are\n\
             dialed and seeded at registration and re-seeded transparently if they\n\
             restart. Recorded in the state dir's manifest for recovery\n\
\n\
shard-worker mode: serve shard-local count ops for a remote coordinator (no\n\
datasets, no noise, no budget — the coordinator draws the single noise draw after\n\
merging exact per-shard counts). Only expose workers on coordinator-reachable\n\
private networks: anyone who can reach the port can read exact counts.\n\
  --port     TCP port to listen on (required; 0 = OS-assigned)\n\
  --host     bind address (default 127.0.0.1)\n\
  --threads  worker pool size (default: PB_NUM_THREADS or the CPU count)\n\
\n\
audit mode:\n\
  --root     workspace root to audit (default: the current directory)\n\
  --json     emit findings as JSON (stable order, one object per line)\n\
             exit status: 0 clean, 1 findings, 2 usage or IO error\n\
\n\
perturb mode (the client half of the local model): push a raw FIMI file through\n\
k-ary randomized response over padded transactions and print the perturbed rows\n\
as FIMI — what an untrusting client would upload to a `register_ldp` dataset.\n\
  --input          FIMI-format transaction file (required)\n\
  --epsilon-local  per-transaction LDP budget, split over the pad slots\n\
                   (required; `inf` = the identity channel, for testing)\n\
  --universe       item universe size K, items are 0..K (default: max item + 1)\n\
  --pad            fixed report length L (default: avg transaction length, >= 1)\n\
  --seed           RNG seed (default 42; same seed, same report)\n\
  --out            write the perturbed FIMI here instead of stdout\n\
\n\
eval mode (utility harness): score private releases against the exact top-k over\n\
an epsilon x k grid and write the results as JSON for plotting.\n\
  --input     FIMI-format transaction file (required)\n\
  --ks        comma-separated top-k values (default 10,50,100)\n\
  --epsilons  comma-separated privacy budgets (default 0.25,0.5,1.0)\n\
  --runs      repetitions per grid cell, seeds SEED..SEED+R-1 (default 5)\n\
  --seed      base RNG seed (default 42)\n\
  --method    pb (default) or tf\n\
  --m         TF length cap (default 2; ignored for pb)\n\
  --out       JSON output path (default BENCH_utility.json; BENCH_ldp.json\n\
              with --ldp)\n\
  --ldp       score every cell through BOTH trust models: central DP at\n\
              epsilon and local DP at epsilon_local = epsilon (client-side\n\
              k-RR perturbation, then debiased noiseless mining) — the\n\
              central-vs-local accuracy grid\n\
  --ldp-universe\n\
              LDP item universe size (default: max item + 1)\n\
  --ldp-pad   LDP report length L (default: avg transaction length, >= 1)";

/// Parses arguments; returns `Err(message)` on any problem.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut input: Option<String> = None;
    let mut k: Option<usize> = None;
    let mut epsilon: Option<f64> = None;
    let mut method = Method::PrivBasis;
    let mut seed = 42u64;
    let mut tf_m = 2usize;
    let mut rules_min_confidence = None;
    let mut tsv = false;
    let mut no_consistency = false;
    let mut shards: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--input" => input = Some(value("--input")?),
            "--k" => {
                k = Some(
                    value("--k")?
                        .parse()
                        .map_err(|_| "--k must be a positive integer".to_string())?,
                )
            }
            "--epsilon" => {
                let raw = value("--epsilon")?;
                epsilon = Some(if raw == "inf" {
                    f64::INFINITY
                } else {
                    raw.parse()
                        .map_err(|_| "--epsilon must be a number or `inf`".to_string())?
                });
            }
            "--method" => {
                method = match value("--method")?.as_str() {
                    "pb" | "privbasis" => Method::PrivBasis,
                    "tf" | "truncated-frequency" => Method::TruncatedFrequency,
                    other => return Err(format!("unknown method `{other}` (expected pb or tf)")),
                }
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--m" => {
                tf_m = value("--m")?
                    .parse()
                    .map_err(|_| "--m must be a positive integer".to_string())?
            }
            "--rules" => {
                rules_min_confidence = Some(
                    value("--rules")?
                        .parse()
                        .map_err(|_| "--rules must be a confidence in [0,1]".to_string())?,
                )
            }
            "--tsv" => tsv = true,
            "--no-consistency" => no_consistency = true,
            "--shards" => {
                let n: usize = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards must be a positive integer".to_string())?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                shards = Some(n);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
        i += 1;
    }

    let input = input.ok_or_else(|| format!("--input is required\n\n{USAGE}"))?;
    let k = k.ok_or_else(|| format!("--k is required\n\n{USAGE}"))?;
    let epsilon = epsilon.ok_or_else(|| format!("--epsilon is required\n\n{USAGE}"))?;
    if k == 0 {
        return Err("--k must be at least 1".to_string());
    }
    // NaN must be rejected along with non-positive values.
    if epsilon.is_nan() || epsilon <= 0.0 {
        return Err("--epsilon must be positive".to_string());
    }
    if let Some(c) = rules_min_confidence {
        if !(0.0..=1.0).contains(&c) {
            return Err("--rules must be a confidence in [0,1]".to_string());
        }
    }
    if tf_m == 0 {
        return Err("--m must be at least 1".to_string());
    }
    if shards.is_some() && method == Method::TruncatedFrequency {
        return Err("--shards applies to the pb method only".to_string());
    }
    Ok(Options {
        input,
        k,
        epsilon,
        method,
        seed,
        tf_m,
        rules_min_confidence,
        tsv,
        no_consistency,
        shards,
    })
}

/// Parses the arguments after the `serve` keyword.
fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut host = "127.0.0.1".to_string();
    let mut port: Option<u16> = None;
    let mut datasets: Vec<(String, String)> = Vec::new();
    let mut budget = 1.0f64;
    let mut threads: Option<usize> = None;
    let mut no_consistency = false;
    let mut state_dir: Option<String> = None;
    let mut snapshot_every: Option<u32> = None;
    let mut shards: Option<usize> = None;
    let mut admin_token: Option<String> = None;
    let mut http_port: Option<u16> = None;
    let mut max_pending: Option<usize> = None;
    let mut shard_workers: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--host" => host = value("--host")?,
            "--port" => {
                port = Some(
                    value("--port")?
                        .parse()
                        .map_err(|_| "--port must be a TCP port number".to_string())?,
                )
            }
            "--dataset" => {
                let spec = value("--dataset")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--dataset expects NAME=FILE, got `{spec}`"))?;
                if name.is_empty() || path.is_empty() {
                    return Err(format!("--dataset expects NAME=FILE, got `{spec}`"));
                }
                if datasets.iter().any(|(n, _)| n == name) {
                    return Err(format!("--dataset `{name}` given more than once"));
                }
                datasets.push((name.to_string(), path.to_string()));
            }
            "--budget" => {
                let raw = value("--budget")?;
                budget = if raw == "inf" {
                    f64::INFINITY
                } else {
                    raw.parse()
                        .map_err(|_| "--budget must be a number or `inf`".to_string())?
                };
                if budget.is_nan() || budget <= 0.0 {
                    return Err("--budget must be positive".to_string());
                }
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_string())?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(n);
            }
            "--no-consistency" => no_consistency = true,
            "--state-dir" => state_dir = Some(value("--state-dir")?),
            "--shards" => {
                let n: usize = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards must be a positive integer".to_string())?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                shards = Some(n);
            }
            "--snapshot-every" => {
                let n: u32 = value("--snapshot-every")?
                    .parse()
                    .map_err(|_| "--snapshot-every must be a positive integer".to_string())?;
                if n == 0 {
                    return Err("--snapshot-every must be at least 1".to_string());
                }
                snapshot_every = Some(n);
            }
            "--admin-token" => {
                let token = value("--admin-token")?;
                if token.is_empty() {
                    return Err("--admin-token must not be empty".to_string());
                }
                admin_token = Some(token);
            }
            "--http-port" => {
                http_port = Some(
                    value("--http-port")?
                        .parse()
                        .map_err(|_| "--http-port must be a TCP port number".to_string())?,
                );
            }
            "--max-pending" => {
                let n: usize = value("--max-pending")?
                    .parse()
                    .map_err(|_| "--max-pending must be a positive integer".to_string())?;
                if n == 0 {
                    return Err("--max-pending must be at least 1".to_string());
                }
                max_pending = Some(n);
            }
            "--shard-worker" => {
                let addr = value("--shard-worker")?;
                if !addr.contains(':') {
                    return Err(format!("--shard-worker expects ADDR:PORT, got `{addr}`"));
                }
                shard_workers.push(addr);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown serve flag `{other}`\n\n{USAGE}")),
        }
        i += 1;
    }

    let port = port.ok_or_else(|| format!("serve needs --port\n\n{USAGE}"))?;
    if datasets.is_empty() && state_dir.is_none() {
        return Err(format!(
            "serve needs at least one --dataset NAME=FILE (or a --state-dir with a manifest)\n\n{USAGE}"
        ));
    }
    if snapshot_every.is_some() && state_dir.is_none() {
        return Err(format!("--snapshot-every needs --state-dir\n\n{USAGE}"));
    }
    Ok(ServeOptions {
        host,
        port,
        datasets,
        budget,
        threads,
        no_consistency,
        state_dir,
        snapshot_every,
        shards,
        admin_token,
        http_port,
        max_pending,
        shard_workers,
    })
}

/// Parses the arguments after the `shard-worker` keyword.
fn parse_worker_args(args: &[String]) -> Result<WorkerOptions, String> {
    let mut host = "127.0.0.1".to_string();
    let mut port: Option<u16> = None;
    let mut threads: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--host" => host = value("--host")?,
            "--port" => {
                port = Some(
                    value("--port")?
                        .parse()
                        .map_err(|_| "--port must be a TCP port number".to_string())?,
                )
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_string())?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(n);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown shard-worker flag `{other}`\n\n{USAGE}")),
        }
        i += 1;
    }
    let port = port.ok_or_else(|| format!("shard-worker needs --port\n\n{USAGE}"))?;
    Ok(WorkerOptions {
        host,
        port,
        threads,
    })
}

/// Binds a shard worker and blocks until a shutdown request. The worker holds no
/// datasets and no registry state: shards are seeded over the wire by a coordinator.
fn worker_serve(options: &WorkerOptions) -> Result<(), String> {
    let mut config = ServiceConfig {
        worker: true,
        ..ServiceConfig::default()
    };
    if let Some(threads) = options.threads {
        config.threads = threads;
    }
    let threads = config.threads;
    let registry = Arc::new(DatasetRegistry::new());
    let server = PbServer::bind((options.host.as_str(), options.port), registry, config)
        .map_err(|e| format!("failed to bind {}:{}: {e}", options.host, options.port))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("pb-shard-worker listening on {addr} with {threads} worker thread(s)");
    server.run().map_err(|e| e.to_string())
}

/// Loads the datasets, binds the server, and blocks until a shutdown request.
fn serve(options: &ServeOptions) -> Result<(), String> {
    let total = Epsilon::new(options.budget).map_err(|e| e.to_string())?;
    let registry = match &options.state_dir {
        None => Arc::new(DatasetRegistry::new()),
        Some(dir) => {
            let mut state =
                StateDir::open(dir).map_err(|e| format!("failed to open state dir {dir}: {e}"))?;
            if let Some(every) = options.snapshot_every {
                state = state.with_snapshot_every(every);
            }
            Arc::new(DatasetRegistry::with_persistence(state).map_err(|e| e.to_string())?)
        }
    };
    // Explicit --dataset flags register first: re-listing a dataset is the CLI path to
    // changing its shard layout (a fresh registration records the new layout in the
    // manifest; releases are byte-identical for any layout, so this is safe). Budget or
    // data changes are still refused — the manifest fingerprint and the journal-pinned
    // total are checked inside the registration itself.
    for (name, path) in &options.datasets {
        // No explicit --shards keeps the layout the manifest records for this name (a
        // forgotten flag must not silently reshard to 1); brand-new names get 1.
        let entry = registry
            .register_spec(RegisterSpec {
                shards: options.shards,
                workers: options.shard_workers.clone(),
                ..RegisterSpec::central(name.clone(), DataSource::File(path.clone()), total)
            })
            .map_err(|e| e.to_string())?;
        let setup = entry.setup();
        eprintln!(
            "registered `{name}`: {} transactions over {} items, budget ε = {}{}{}{}; \
             set-up: read {:.1} ms, partition {:.1} ms, placement {:.1} ms",
            entry.transactions(),
            entry.num_distinct_items(),
            options.budget,
            if entry.is_durable() { " (durable)" } else { "" },
            if entry.shards() > 1 {
                format!(", {} shards", entry.shards())
            } else {
                String::new()
            },
            if entry.workers().is_empty() {
                String::new()
            } else {
                format!(
                    ", {} on remote workers",
                    entry.workers().len().min(entry.shards())
                )
            },
            setup.read.as_secs_f64() * 1e3,
            setup.partition.as_secs_f64() * 1e3,
            setup.placement.as_secs_f64() * 1e3,
        );
    }
    // Then reload everything else the manifest remembers, so a restart recovers spent ε
    // even for datasets the operator forgot to re-list (already-registered names are
    // skipped by recover()).
    let report = registry.recover().map_err(|e| e.to_string())?;
    for name in &report.loaded {
        let entry = registry.get(name).expect("recovered dataset is registered");
        if let Some(shards) = options.shards {
            if entry.shards() != shards {
                // The recovered layout wins for datasets that were not re-listed; a
                // silently ignored flag would mislead the operator, so say so and name
                // the actual remedy.
                return Err(format!(
                    "dataset `{name}` was recovered with {} shard(s) but --shards asks for \
                     {shards}; re-list it as --dataset {name}={} to record the new layout, \
                     or drop --shards",
                    entry.shards(),
                    entry.source().unwrap_or("<file>"),
                ));
            }
        }
        eprintln!(
            "recovered `{name}`: {} transactions, {}, {} queries answered{}",
            entry.transactions(),
            match entry.ledger() {
                Some(ledger) => format!(
                    "ε spent = {}, remaining = {}",
                    ledger.spent(),
                    ledger.remaining()
                ),
                None => "LDP mode (no server-side budget)".to_string(),
            },
            entry.queries_served(),
            if entry.shards() > 1 {
                format!(", {} shards", entry.shards())
            } else {
                String::new()
            },
        );
    }
    for name in &report.skipped {
        eprintln!(
            "warning: manifest entry `{name}` has no source file and cannot be reloaded \
             (its durable ledger is preserved)"
        );
    }
    for (name, error) in &report.failed {
        eprintln!(
            "warning: failed to recover dataset `{name}` (its durable ledger is preserved \
             on disk; fix the source and restart to serve it again): {error}"
        );
    }
    // An empty server is useless without a way to fill it — unless admin ops are
    // enabled, in which case starting empty and hot-registering over the wire is the
    // intended workflow.
    if registry.is_empty() && options.admin_token.is_none() {
        return Err(
            "nothing to serve: no --dataset flags and an empty state dir \
             (pass --admin-token to start empty and register datasets over the wire)"
                .to_string(),
        );
    }

    let mut config = ServiceConfig::default();
    if let Some(threads) = options.threads {
        config.threads = threads;
    }
    if options.no_consistency {
        config.params.consistency = None;
    }
    config.admin_token = options.admin_token.clone();
    config.http_port = options.http_port;
    if let Some(max_pending) = options.max_pending {
        config.max_pending = max_pending;
    }
    let threads = config.threads;
    let admin = config.admin_token.is_some();
    let server = PbServer::bind((options.host.as_str(), options.port), registry, config)
        .map_err(|e| format!("failed to bind {}:{}: {e}", options.host, options.port))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The http line is printed BEFORE the TCP "listening on" line: harnesses treat the
    // latter as the ready signal, so everything they parse must already be out.
    if let Some(http_addr) = server.http_addr() {
        let http_addr = http_addr.map_err(|e| e.to_string())?;
        eprintln!("pb-service http gateway on {http_addr}");
    }
    if admin {
        eprintln!("admin ops enabled (bearer token required)");
    }
    eprintln!("pb-service listening on {addr} with {threads} worker thread(s)");
    server.run().map_err(|e| e.to_string())
}

/// Parsed options of the `audit` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AuditOptions {
    root: String,
    json: bool,
}

/// Parses the arguments after the `audit` keyword.
fn parse_audit_args(args: &[String]) -> Result<AuditOptions, String> {
    let mut root = ".".to_string();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| "--root needs a directory".to_string())?;
            }
            "--json" => json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown audit flag `{other}`\n\n{USAGE}")),
        }
        i += 1;
    }
    Ok(AuditOptions { root, json })
}

/// Runs the pb-audit invariant linter — the same gate CI enforces.
/// Exit status: 0 clean, 1 findings, 2 usage or IO error.
fn audit(options: &AuditOptions) -> ExitCode {
    let report = match privbasis::audit::audit(std::path::Path::new(&options.root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit: cannot audit {}: {e}", options.root);
            return ExitCode::from(2);
        }
    };
    if options.json {
        print!("{}", privbasis::audit::render_json(&report.findings));
    } else {
        for d in &report.findings {
            println!("{}", d.human());
        }
        eprintln!(
            "audit: {} finding(s) across {} file(s)",
            report.findings.len(),
            report.files_scanned
        );
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parsed options of the `perturb` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct PerturbOptions {
    input: String,
    epsilon_local: f64,
    /// Item universe size `K` (`None` = derive max item + 1 from the data).
    universe: Option<u32>,
    /// Fixed report length `L` (`None` = derive from the average transaction length).
    pad: Option<usize>,
    seed: u64,
    /// Output path (`None` = stdout).
    out: Option<String>,
}

/// Parses the arguments after the `perturb` keyword.
fn parse_perturb_args(args: &[String]) -> Result<PerturbOptions, String> {
    let mut input: Option<String> = None;
    let mut epsilon_local: Option<f64> = None;
    let mut universe: Option<u32> = None;
    let mut pad: Option<usize> = None;
    let mut seed = 42u64;
    let mut out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--input" => input = Some(value("--input")?),
            "--epsilon-local" => {
                let raw = value("--epsilon-local")?;
                let e = if raw == "inf" {
                    f64::INFINITY
                } else {
                    raw.parse()
                        .map_err(|_| "--epsilon-local must be a number or `inf`".to_string())?
                };
                if e.is_nan() || e <= 0.0 {
                    return Err("--epsilon-local must be positive".to_string());
                }
                epsilon_local = Some(e);
            }
            "--universe" => {
                let k: u32 = value("--universe")?
                    .parse()
                    .map_err(|_| "--universe must be a positive integer".to_string())?;
                if k == 0 {
                    return Err("--universe must be at least 1".to_string());
                }
                universe = Some(k);
            }
            "--pad" => {
                let l: usize = value("--pad")?
                    .parse()
                    .map_err(|_| "--pad must be a positive integer".to_string())?;
                if l == 0 || l > privbasis::ldp::MAX_PAD_LEN {
                    return Err(format!(
                        "--pad must be between 1 and {}",
                        privbasis::ldp::MAX_PAD_LEN
                    ));
                }
                pad = Some(l);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--out" => out = Some(value("--out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown perturb flag `{other}`\n\n{USAGE}")),
        }
        i += 1;
    }
    let input = input.ok_or_else(|| format!("perturb needs --input\n\n{USAGE}"))?;
    let epsilon_local =
        epsilon_local.ok_or_else(|| format!("perturb needs --epsilon-local\n\n{USAGE}"))?;
    Ok(PerturbOptions {
        input,
        epsilon_local,
        universe,
        pad,
        seed,
        out,
    })
}

/// The universe a dataset implies when the operator does not pin one: max item + 1.
fn derived_universe(db: &TransactionDb) -> u32 {
    db.iter()
        .flat_map(|t| t.iter())
        .max()
        .map_or(1, |max| max + 1)
}

/// The pad length a dataset implies: the average transaction length, rounded up,
/// at least 1. Longer transactions are truncated — a visible, operator-tunable cap.
fn derived_pad(db: &TransactionDb) -> usize {
    (db.avg_transaction_len().ceil() as usize).max(1)
}

/// Builds the channel the perturb/eval options describe over `db`.
fn build_channel(
    db: &TransactionDb,
    epsilon_local: f64,
    universe: Option<u32>,
    pad: Option<usize>,
) -> Result<LdpChannel, String> {
    let universe = universe.unwrap_or_else(|| derived_universe(db));
    let pad = pad.unwrap_or_else(|| derived_pad(db));
    LdpChannel::new(epsilon_local, universe, pad).map_err(|e| e.to_string())
}

/// Runs the `perturb` subcommand: raw FIMI in, perturbed FIMI out.
fn perturb(options: &PerturbOptions) -> Result<(), String> {
    let db = read_fimi_file(&options.input)
        .map_err(|e| format!("failed to read {}: {e}", options.input))?;
    if db.is_empty() {
        return Err(format!("{} contains no transactions", options.input));
    }
    let channel = build_channel(&db, options.epsilon_local, options.universe, options.pad)?;
    let rows: Vec<Vec<u32>> = db.iter().map(|t| t.iter().collect()).collect();
    // audit:allow(noise-seam): RNG construction only — the k-RR draws happen inside pb-ldp
    let mut rng = StdRng::seed_from_u64(options.seed);
    let perturbed = channel.perturb_rows(&mut rng, &rows);
    let mut text = String::new();
    for report in &perturbed {
        let items: Vec<String> = report.iter().map(|i| i.to_string()).collect();
        text.push_str(&items.join(" "));
        text.push('\n');
    }
    eprintln!(
        "perturbed {} transactions through k-RR: ε_local = {}, universe = {}, pad = {} \
         (ε per slot = {:.4})",
        perturbed.len(),
        channel.epsilon_local(),
        channel.universe(),
        channel.pad_len(),
        channel.epsilon_per_slot(),
    );
    match &options.out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("failed to write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Parsed options of the `eval` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct EvalOptions {
    input: String,
    ks: Vec<usize>,
    epsilons: Vec<f64>,
    runs: u64,
    seed: u64,
    method: Method,
    tf_m: usize,
    no_consistency: bool,
    out: String,
    /// Also score every cell through the local model (ε_local = ε).
    ldp: bool,
    /// LDP universe override (`None` = derive max item + 1 from the data).
    ldp_universe: Option<u32>,
    /// LDP pad-length override (`None` = derive from the average transaction length).
    ldp_pad: Option<usize>,
}

/// Parses the arguments after the `eval` keyword.
fn parse_eval_args(args: &[String]) -> Result<EvalOptions, String> {
    let mut input: Option<String> = None;
    let mut ks = vec![10usize, 50, 100];
    let mut epsilons = vec![0.25f64, 0.5, 1.0];
    let mut runs = 5u64;
    let mut seed = 42u64;
    let mut method = Method::PrivBasis;
    let mut tf_m = 2usize;
    let mut no_consistency = false;
    let mut out: Option<String> = None;
    let mut ldp = false;
    let mut ldp_universe: Option<u32> = None;
    let mut ldp_pad: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--input" => input = Some(value("--input")?),
            "--ks" => {
                ks = value("--ks")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| "--ks must be comma-separated positive integers".to_string())?;
                if ks.is_empty() || ks.contains(&0) {
                    return Err("--ks must be comma-separated positive integers".to_string());
                }
            }
            "--epsilons" => {
                epsilons = value("--epsilons")?
                    .split(',')
                    .map(|s| s.trim().parse::<f64>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| "--epsilons must be comma-separated numbers".to_string())?;
                if epsilons.is_empty() || epsilons.iter().any(|e| e.is_nan() || *e <= 0.0) {
                    return Err("--epsilons must be positive numbers".to_string());
                }
            }
            "--runs" => {
                runs = value("--runs")?
                    .parse()
                    .map_err(|_| "--runs must be a positive integer".to_string())?;
                if runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--method" => {
                method = match value("--method")?.as_str() {
                    "pb" | "privbasis" => Method::PrivBasis,
                    "tf" | "truncated-frequency" => Method::TruncatedFrequency,
                    other => return Err(format!("unknown method `{other}` (expected pb or tf)")),
                }
            }
            "--m" => {
                tf_m = value("--m")?
                    .parse()
                    .map_err(|_| "--m must be a positive integer".to_string())?;
                if tf_m == 0 {
                    return Err("--m must be at least 1".to_string());
                }
            }
            "--no-consistency" => no_consistency = true,
            "--out" => out = Some(value("--out")?),
            "--ldp" => ldp = true,
            "--ldp-universe" => {
                let k: u32 = value("--ldp-universe")?
                    .parse()
                    .map_err(|_| "--ldp-universe must be a positive integer".to_string())?;
                if k == 0 {
                    return Err("--ldp-universe must be at least 1".to_string());
                }
                ldp_universe = Some(k);
            }
            "--ldp-pad" => {
                let l: usize = value("--ldp-pad")?
                    .parse()
                    .map_err(|_| "--ldp-pad must be a positive integer".to_string())?;
                if l == 0 || l > privbasis::ldp::MAX_PAD_LEN {
                    return Err(format!(
                        "--ldp-pad must be between 1 and {}",
                        privbasis::ldp::MAX_PAD_LEN
                    ));
                }
                ldp_pad = Some(l);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown eval flag `{other}`\n\n{USAGE}")),
        }
        i += 1;
    }
    let input = input.ok_or_else(|| format!("eval needs --input\n\n{USAGE}"))?;
    if (ldp_universe.is_some() || ldp_pad.is_some()) && !ldp {
        return Err("--ldp-universe/--ldp-pad need --ldp".to_string());
    }
    if ldp && method == Method::TruncatedFrequency {
        return Err("--ldp applies to the pb method only".to_string());
    }
    let out = out.unwrap_or_else(|| {
        if ldp {
            "BENCH_ldp.json".to_string()
        } else {
            "BENCH_utility.json".to_string()
        }
    });
    Ok(EvalOptions {
        input,
        ks,
        epsilons,
        runs,
        seed,
        method,
        tf_m,
        no_consistency,
        out,
        ldp,
        ldp_universe,
        ldp_pad,
    })
}

/// One scored grid cell: utility of the private release vs the exact top-`k`,
/// aggregated over the repeated runs.
struct EvalCell {
    /// `"central"` (server-side noise at ε) or `"ldp"` (client-side k-RR at ε_local = ε).
    mode: &'static str,
    epsilon: f64,
    k: usize,
    precision: privbasis::metrics::Summary,
    recall: privbasis::metrics::Summary,
    f1: privbasis::metrics::Summary,
}

/// One local-model release: perturb every transaction through `channel` under
/// `seed`, then mine the perturbed data noiselessly with the debias correction —
/// exactly what the server does for a `register_ldp` dataset, minus the wire.
fn run_ldp(
    db: &TransactionDb,
    channel: LdpChannel,
    k: usize,
    no_consistency: bool,
    seed: u64,
) -> Result<Vec<(ItemSet, f64)>, String> {
    use privbasis::core::NoopObserver;
    let rows: Vec<Vec<u32>> = db.iter().map(|t| t.iter().collect()).collect();
    // audit:allow(noise-seam): RNG construction only — the k-RR draws happen inside pb-ldp
    let mut rng = StdRng::seed_from_u64(seed);
    let perturbed = TransactionDb::from_transactions(channel.perturb_rows(&mut rng, &rows));
    let n = perturbed.len() as u64;
    let context = QueryContext::new(Arc::new(perturbed));
    let debias =
        move |items: &[pb_fim::Item], observed: f64| channel.debias(observed, n, items.len());
    let params = PrivBasisParams {
        consistency: if no_consistency {
            None
        } else {
            PrivBasisParams::default().consistency
        },
        ..Default::default()
    };
    // Mining is noiseless (Epsilon::Infinite): the privacy was spent at perturbation
    // time, so this rng sees no draws and the release is seed-independent.
    let out = PrivBasis::new(params)
        .run_shared_transformed(
            &mut rng,
            &context,
            k,
            Epsilon::Infinite,
            Some(&debias),
            &NoopObserver,
        )
        .map_err(|e| e.to_string())?;
    Ok(out.itemsets)
}

/// Sweeps the ε × k grid and scores every release against the exact top-`k`.
/// With `--ldp` each cell is scored through both trust models.
fn eval_grid(options: &EvalOptions, db: &TransactionDb) -> Result<Vec<EvalCell>, String> {
    use privbasis::metrics::{f1_score, precision, recall, Summary};
    let channel = if options.ldp {
        // ε_local is filled per cell; validate the shape once up front.
        Some(build_channel(
            db,
            1.0,
            options.ldp_universe,
            options.ldp_pad,
        )?)
    } else {
        None
    };
    // One PrivBasis context per input, shared by every k, ε and run: the index is built
    // and each θ mined once.
    let central = (options.method == Method::PrivBasis).then(|| pb_context(db, None));
    let mut cells = Vec::new();
    for &k in &options.ks {
        // Exact (non-private) ground truth, mined once per k and shared by every ε.
        let truth = privbasis::fim::topk::top_k_itemsets(db, k, None);
        for &epsilon in &options.epsilons {
            let score = |mode: &'static str,
                         released: &mut dyn FnMut(u64) -> Result<Vec<(ItemSet, f64)>, String>|
             -> Result<EvalCell, String> {
                let (mut ps, mut rs, mut f1s) = (Vec::new(), Vec::new(), Vec::new());
                for run_idx in 0..options.runs {
                    let published: Vec<PublishedItemset> = released(run_idx)?
                        .into_iter()
                        .map(|(items, noisy)| PublishedItemset::new(items, noisy))
                        .collect();
                    ps.push(precision(&truth, &published));
                    rs.push(recall(&truth, &published));
                    f1s.push(f1_score(&truth, &published));
                }
                Ok(EvalCell {
                    mode,
                    epsilon,
                    k,
                    precision: Summary::of(&ps),
                    recall: Summary::of(&rs),
                    f1: Summary::of(&f1s),
                })
            };
            cells.push(score("central", &mut |run_idx| {
                run(
                    &Options {
                        input: options.input.clone(),
                        k,
                        epsilon,
                        method: options.method,
                        seed: options.seed.wrapping_add(run_idx),
                        tf_m: options.tf_m,
                        rules_min_confidence: None,
                        tsv: false,
                        no_consistency: options.no_consistency,
                        shards: None,
                    },
                    db,
                    central.as_ref(),
                )
            })?);
            if let Some(shape) = channel {
                let cell_channel = LdpChannel::new(epsilon, shape.universe(), shape.pad_len())
                    .map_err(|e| e.to_string())?;
                cells.push(score("ldp", &mut |run_idx| {
                    run_ldp(
                        db,
                        cell_channel,
                        k,
                        options.no_consistency,
                        options.seed.wrapping_add(run_idx),
                    )
                })?);
            }
        }
    }
    Ok(cells)
}

/// Renders the grid as the JSON document written to `--out`: enough provenance
/// (input, seeds, method) to reproduce every number, plus mean ± standard error per
/// metric per cell.
fn eval_json(options: &EvalOptions, db: &TransactionDb, cells: &[EvalCell]) -> String {
    fn summary(name: &str, s: &privbasis::metrics::Summary) -> String {
        format!(
            "\"{name}\":{{\"mean\":{:.6},\"std_error\":{:.6}}}",
            s.mean, s.std_error
        )
    }
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"mode\":\"{}\",\"epsilon\":{},\"k\":{},{},{},{}}}",
                c.mode,
                c.epsilon,
                c.k,
                summary("precision", &c.precision),
                summary("recall", &c.recall),
                summary("f1", &c.f1),
            )
        })
        .collect();
    let ldp_provenance = if options.ldp {
        let shape = build_channel(db, 1.0, options.ldp_universe, options.ldp_pad)
            .expect("eval_grid already validated the channel shape");
        format!(
            "\n  \"ldp\": {{\"universe\": {}, \"pad\": {}}},",
            shape.universe(),
            shape.pad_len()
        )
    } else {
        String::new()
    };
    format!(
        "{{\n  \"input\": \"{}\",\n  \"transactions\": {},\n  \"distinct_items\": {},\n  \
         \"method\": \"{}\",{}\n  \"runs\": {},\n  \"base_seed\": {},\n  \"grid\": [\n{}\n  ]\n}}\n",
        options.input.replace('\\', "\\\\").replace('"', "\\\""),
        db.len(),
        db.num_distinct_items(),
        match options.method {
            Method::PrivBasis => "pb",
            Method::TruncatedFrequency => "tf",
        },
        ldp_provenance,
        options.runs,
        options.seed,
        rows.join(",\n"),
    )
}

/// Runs the utility harness: table to stdout, JSON grid to `--out`.
fn eval(options: &EvalOptions) -> Result<(), String> {
    let db = read_fimi_file(&options.input)
        .map_err(|e| format!("failed to read {}: {e}", options.input))?;
    if db.is_empty() {
        return Err(format!("{} contains no transactions", options.input));
    }
    eprintln!(
        "evaluating {} over {} transactions: {} ε × {} k × {} run(s)",
        options.input,
        db.len(),
        options.epsilons.len(),
        options.ks.len(),
        options.runs
    );
    let cells = eval_grid(options, &db)?;
    let mut table = privbasis::metrics::TsvTable::new([
        "mode",
        "epsilon",
        "k",
        "precision",
        "recall",
        "f1",
        "f1_stderr",
    ]);
    for c in &cells {
        table.push_row([
            c.mode.to_string(),
            c.epsilon.to_string(),
            c.k.to_string(),
            format!("{:.4}", c.precision.mean),
            format!("{:.4}", c.recall.mean),
            format!("{:.4}", c.f1.mean),
            format!("{:.4}", c.f1.std_error),
        ]);
    }
    print!("{}", table.to_aligned());
    std::fs::write(&options.out, eval_json(options, &db, &cells))
        .map_err(|e| format!("failed to write {}: {e}", options.out))?;
    eprintln!("wrote {}", options.out);
    Ok(())
}

/// The counting context a PrivBasis release runs on: `db`'s rows over `shards` row
/// shards (one when unset). Per-shard counts merge by summation and the noise is drawn
/// once on the merged counts, so the shard count never changes a released byte.
fn pb_context(db: &TransactionDb, shards: Option<usize>) -> QueryContext {
    QueryContext::sharded(ShardedDb::partition(db, shards.unwrap_or(1)).into_shared())
}

/// One central release of `options` over `db`. A PrivBasis release runs on `context`
/// when the caller already holds one over `db` (eval reuses one for its whole grid), and
/// otherwise on a context built here from `--shards`.
fn run(
    options: &Options,
    db: &TransactionDb,
    context: Option<&QueryContext>,
) -> Result<Vec<(ItemSet, f64)>, String> {
    let epsilon = Epsilon::new(options.epsilon).map_err(|e| e.to_string())?;
    // audit:allow(noise-seam): RNG construction only — all draws happen inside pb-dp behind the method entry points
    let mut rng = StdRng::seed_from_u64(options.seed);
    match options.method {
        Method::PrivBasis => {
            let params = PrivBasisParams {
                consistency: if options.no_consistency {
                    None
                } else {
                    PrivBasisParams::default().consistency
                },
                ..Default::default()
            };
            let built;
            let context = match context {
                Some(context) => context,
                None => {
                    built = pb_context(db, options.shards);
                    &built
                }
            };
            let out = PrivBasis::new(params)
                .run_shared(&mut rng, context, options.k, epsilon)
                .map_err(|e| e.to_string())?;
            Ok(out.itemsets)
        }
        Method::TruncatedFrequency => {
            let tf = TfMethod::new(TfConfig::new(options.k, options.tf_m, epsilon));
            Ok(tf.run(&mut rng, db).itemsets)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("audit") {
        return match parse_audit_args(&args[1..]) {
            Ok(o) => audit(&o),
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("perturb") {
        return match parse_perturb_args(&args[1..]) {
            Ok(o) => match perturb(&o) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            },
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("eval") {
        return match parse_eval_args(&args[1..]) {
            Ok(o) => match eval(&o) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            },
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("shard-worker") {
        let options = match parse_worker_args(&args[1..]) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        return match worker_serve(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("serve") {
        let options = match parse_serve_args(&args[1..]) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        return match serve(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let db = match read_fimi_file(&options.input) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to read {}: {e}", options.input);
            return ExitCode::FAILURE;
        }
    };
    if db.is_empty() {
        eprintln!("{} contains no transactions", options.input);
        return ExitCode::FAILURE;
    }
    if !options.tsv {
        eprintln!(
            "loaded {} transactions over {} items (avg length {:.1})",
            db.len(),
            db.num_distinct_items(),
            db.avg_transaction_len()
        );
    }

    let published = match run(&options, &db, None) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if options.tsv {
        println!("itemset\tnoisy_count\tnoisy_frequency");
        for (itemset, count) in &published {
            let items: Vec<String> = itemset.iter().map(|i| i.to_string()).collect();
            println!(
                "{}\t{:.3}\t{:.6}",
                items.join(" "),
                count,
                count / db.len() as f64
            );
        }
    } else {
        println!("top-{} itemsets under ε = {}:", options.k, options.epsilon);
        for (itemset, count) in &published {
            println!(
                "  {itemset}  count ≈ {count:.1}  frequency ≈ {:.4}",
                count / db.len() as f64
            );
        }
    }

    if let Some(min_confidence) = options.rules_min_confidence {
        let rules = generate_rules_from_noisy(&published, db.len(), min_confidence);
        if options.tsv {
            println!("antecedent\tconsequent\tsupport\tconfidence\tlift");
            for r in &rules {
                let a: Vec<String> = r.antecedent.iter().map(|i| i.to_string()).collect();
                let c: Vec<String> = r.consequent.iter().map(|i| i.to_string()).collect();
                println!(
                    "{}\t{}\t{:.4}\t{:.4}\t{:.3}",
                    a.join(" "),
                    c.join(" "),
                    r.support,
                    r.confidence,
                    r.lift
                );
            }
        } else {
            println!("\nassociation rules (confidence ≥ {min_confidence}):");
            for r in &rules {
                println!("  {r}");
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_minimal_arguments() {
        let o = parse_args(&args(&[
            "--input",
            "x.dat",
            "--k",
            "10",
            "--epsilon",
            "0.5",
        ]))
        .unwrap();
        assert_eq!(o.input, "x.dat");
        assert_eq!(o.k, 10);
        assert_eq!(o.epsilon, 0.5);
        assert_eq!(o.method, Method::PrivBasis);
        assert!(!o.tsv);
        assert!(!o.no_consistency);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse_args(&args(&[
            "--input",
            "x.dat",
            "--k",
            "5",
            "--epsilon",
            "inf",
            "--method",
            "tf",
            "--m",
            "3",
            "--seed",
            "7",
            "--rules",
            "0.8",
            "--tsv",
            "--no-consistency",
        ]))
        .unwrap();
        assert_eq!(o.method, Method::TruncatedFrequency);
        assert_eq!(o.tf_m, 3);
        assert_eq!(o.seed, 7);
        assert_eq!(o.rules_min_confidence, Some(0.8));
        assert!(o.tsv);
        assert!(o.no_consistency);
        assert!(o.epsilon.is_infinite());
    }

    #[test]
    fn parses_and_validates_shards() {
        let o = parse_args(&args(&[
            "--input",
            "x.dat",
            "--k",
            "5",
            "--epsilon",
            "1",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.shards, Some(4));
        // Zero shards and sharded TF are rejected.
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--k",
            "5",
            "--epsilon",
            "1",
            "--shards",
            "0",
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--k",
            "5",
            "--epsilon",
            "1",
            "--shards",
            "2",
            "--method",
            "tf",
        ]))
        .is_err());
        // Serve mode: --shards applies to every --dataset registration.
        let o = parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b.dat",
            "--shards",
            "8",
        ]))
        .unwrap();
        assert_eq!(o.shards, Some(8));
        assert!(
            parse_serve_args(&args(&["--port", "1", "--dataset", "a=b", "--shards", "0"])).is_err()
        );
    }

    #[test]
    fn parses_serve_arguments() {
        let o = parse_serve_args(&args(&[
            "--port",
            "8710",
            "--dataset",
            "retail=retail.dat",
            "--dataset",
            "web=web.dat",
            "--budget",
            "4.0",
            "--threads",
            "8",
            "--host",
            "0.0.0.0",
            "--no-consistency",
        ]))
        .unwrap();
        assert_eq!(o.port, 8710);
        assert_eq!(o.host, "0.0.0.0");
        assert_eq!(
            o.datasets,
            vec![
                ("retail".to_string(), "retail.dat".to_string()),
                ("web".to_string(), "web.dat".to_string()),
            ]
        );
        assert_eq!(o.budget, 4.0);
        assert_eq!(o.threads, Some(8));
        assert!(o.no_consistency);
        // Defaults.
        let o = parse_serve_args(&args(&["--port", "1", "--dataset", "a=b.dat"])).unwrap();
        assert_eq!(o.host, "127.0.0.1");
        assert_eq!(o.budget, 1.0);
        assert_eq!(o.threads, None);
        assert_eq!(o.state_dir, None);
        assert_eq!(o.snapshot_every, None);
        assert_eq!(o.admin_token, None);
        assert_eq!(o.http_port, None);
        // Durable state flags.
        let o = parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b.dat",
            "--state-dir",
            "/var/lib/privbasis",
            "--snapshot-every",
            "64",
        ]))
        .unwrap();
        assert_eq!(o.state_dir.as_deref(), Some("/var/lib/privbasis"));
        assert_eq!(o.snapshot_every, Some(64));
        // A state dir with a manifest can serve without any --dataset flags.
        let o = parse_serve_args(&args(&["--port", "1", "--state-dir", "s"])).unwrap();
        assert!(o.datasets.is_empty());
        // `inf` budget accepted.
        let o = parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b.dat",
            "--budget",
            "inf",
        ]))
        .unwrap();
        assert!(o.budget.is_infinite());
    }

    #[test]
    fn parses_admin_and_http_flags() {
        let o = parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b.dat",
            "--admin-token",
            "s3cret",
            "--http-port",
            "0",
        ]))
        .unwrap();
        assert_eq!(o.admin_token.as_deref(), Some("s3cret"));
        assert_eq!(o.http_port, Some(0));
        // Empty tokens and non-numeric ports are refused.
        assert!(parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b",
            "--admin-token",
            ""
        ]))
        .is_err());
        assert!(parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b",
            "--http-port",
            "zzz"
        ]))
        .is_err());
    }

    #[test]
    fn rejects_invalid_serve_arguments() {
        // Missing port / missing datasets / malformed specs / bad numbers.
        assert!(parse_serve_args(&args(&["--dataset", "a=b.dat"])).is_err());
        assert!(parse_serve_args(&args(&["--port", "1"])).is_err());
        assert!(parse_serve_args(&args(&["--port", "x", "--dataset", "a=b"])).is_err());
        assert!(parse_serve_args(&args(&["--port", "1", "--dataset", "nameonly"])).is_err());
        assert!(parse_serve_args(&args(&["--port", "1", "--dataset", "=b.dat"])).is_err());
        // The same name twice would otherwise be silently dropped at registration.
        assert!(parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=x.dat",
            "--dataset",
            "a=y.dat"
        ]))
        .is_err());
        assert!(parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b",
            "--budget",
            "-1"
        ]))
        .is_err());
        assert!(parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b",
            "--threads",
            "0"
        ]))
        .is_err());
        // Snapshot cadence must be positive and only makes sense with a state dir.
        assert!(parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b",
            "--state-dir",
            "s",
            "--snapshot-every",
            "0"
        ]))
        .is_err());
        assert!(parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b",
            "--snapshot-every",
            "8"
        ]))
        .is_err());
        assert!(parse_serve_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn parses_shard_worker_placement_flags() {
        // serve: repeatable --shard-worker placements ride into the options in order.
        let o = parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b.dat",
            "--shards",
            "3",
            "--shard-worker",
            "127.0.0.1:8711",
            "--shard-worker",
            "127.0.0.1:8712",
        ]))
        .unwrap();
        assert_eq!(
            o.shard_workers,
            vec!["127.0.0.1:8711".to_string(), "127.0.0.1:8712".to_string()]
        );
        // A bare address without a port is refused at parse time.
        assert!(parse_serve_args(&args(&[
            "--port",
            "1",
            "--dataset",
            "a=b",
            "--shard-worker",
            "nocolon"
        ]))
        .is_err());
        // shard-worker subcommand: port required, defaults otherwise.
        let o = parse_worker_args(&args(&["--port", "8711"])).unwrap();
        assert_eq!(
            o,
            WorkerOptions {
                host: "127.0.0.1".to_string(),
                port: 8711,
                threads: None,
            }
        );
        let o = parse_worker_args(&args(&[
            "--port",
            "0",
            "--host",
            "0.0.0.0",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.host, "0.0.0.0");
        assert_eq!(o.threads, Some(2));
        assert!(parse_worker_args(&args(&[])).is_err());
        assert!(parse_worker_args(&args(&["--port", "x"])).is_err());
        assert!(parse_worker_args(&args(&["--port", "1", "--threads", "0"])).is_err());
        assert!(parse_worker_args(&args(&["--bogus"])).is_err());
        // Workers do not take dataset flags: they are seeded over the wire.
        assert!(parse_worker_args(&args(&["--port", "1", "--dataset", "a=b"])).is_err());
    }

    #[test]
    fn parses_eval_arguments() {
        let o = parse_eval_args(&args(&["--input", "x.dat"])).unwrap();
        assert_eq!(o.input, "x.dat");
        assert_eq!(o.ks, vec![10, 50, 100]);
        assert_eq!(o.epsilons, vec![0.25, 0.5, 1.0]);
        assert_eq!(o.runs, 5);
        assert_eq!(o.seed, 42);
        assert_eq!(o.method, Method::PrivBasis);
        assert_eq!(o.out, "BENCH_utility.json");
        let o = parse_eval_args(&args(&[
            "--input",
            "x.dat",
            "--ks",
            "3, 7",
            "--epsilons",
            "0.1,2.0",
            "--runs",
            "2",
            "--seed",
            "9",
            "--method",
            "tf",
            "--m",
            "3",
            "--no-consistency",
            "--out",
            "u.json",
        ]))
        .unwrap();
        assert_eq!(o.ks, vec![3, 7]);
        assert_eq!(o.epsilons, vec![0.1, 2.0]);
        assert_eq!(o.runs, 2);
        assert_eq!(o.method, Method::TruncatedFrequency);
        assert_eq!(o.tf_m, 3);
        assert!(o.no_consistency);
        assert_eq!(o.out, "u.json");
        // Missing input, zero k, non-positive ε, zero runs, junk flags: all refused.
        assert!(parse_eval_args(&args(&[])).is_err());
        assert!(parse_eval_args(&args(&["--input", "x", "--ks", "0,5"])).is_err());
        assert!(parse_eval_args(&args(&["--input", "x", "--ks", ""])).is_err());
        assert!(parse_eval_args(&args(&["--input", "x", "--epsilons", "-1"])).is_err());
        assert!(parse_eval_args(&args(&["--input", "x", "--epsilons", "nan"])).is_err());
        assert!(parse_eval_args(&args(&["--input", "x", "--runs", "0"])).is_err());
        assert!(parse_eval_args(&args(&["--input", "x", "--bogus"])).is_err());
    }

    #[test]
    fn eval_scores_a_noiseless_release_perfectly() {
        // A tiny dataset with an unambiguous top-3: with a huge ε the mechanism is
        // near-noiseless, so precision/recall/F1 against the exact top-k are all 1.
        let dir = std::env::temp_dir();
        let stem = format!("pb_cli_eval_{}", std::process::id());
        let input = dir.join(format!("{stem}.dat"));
        let out = dir.join(format!("{stem}.json"));
        std::fs::write(&input, "1 2 3\n1 2\n1 2 3\n2 3\n1 2\n1 2\n1 3\n").unwrap();
        let options = EvalOptions {
            input: input.to_string_lossy().into_owned(),
            ks: vec![3],
            epsilons: vec![1e9],
            runs: 2,
            seed: 1,
            method: Method::PrivBasis,
            tf_m: 2,
            no_consistency: false,
            out: out.to_string_lossy().into_owned(),
            ldp: false,
            ldp_universe: None,
            ldp_pad: None,
        };
        eval(&options).unwrap();
        let db = read_fimi_file(&input).unwrap();
        let cells = eval_grid(&options, &db).unwrap();
        assert_eq!(cells.len(), 1);
        assert!((cells[0].f1.mean - 1.0).abs() < 1e-9);
        assert!((cells[0].precision.mean - 1.0).abs() < 1e-9);
        assert!((cells[0].recall.mean - 1.0).abs() < 1e-9);
        // The JSON grid parses and carries the provenance fields.
        let json = std::fs::read_to_string(&out).unwrap();
        let value = privbasis::proto::Json::parse(&json).unwrap();
        assert_eq!(value.get("transactions").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(value.get("runs").and_then(|v| v.as_u64()), Some(2));
        assert!(value.get("grid").is_some());
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn parses_perturb_and_eval_ldp_arguments() {
        let o = parse_perturb_args(&args(&["--input", "x.dat", "--epsilon-local", "4.0"])).unwrap();
        assert_eq!(o.input, "x.dat");
        assert_eq!(o.epsilon_local, 4.0);
        assert_eq!(o.universe, None);
        assert_eq!(o.pad, None);
        assert_eq!(o.seed, 42);
        assert_eq!(o.out, None);
        let o = parse_perturb_args(&args(&[
            "--input",
            "x.dat",
            "--epsilon-local",
            "inf",
            "--universe",
            "20",
            "--pad",
            "3",
            "--seed",
            "7",
            "--out",
            "p.dat",
        ]))
        .unwrap();
        assert!(o.epsilon_local.is_infinite());
        assert_eq!(o.universe, Some(20));
        assert_eq!(o.pad, Some(3));
        assert_eq!(o.seed, 7);
        assert_eq!(o.out.as_deref(), Some("p.dat"));
        // Missing input or ε, non-positive ε, zero universe/pad: all refused.
        assert!(parse_perturb_args(&args(&["--epsilon-local", "1"])).is_err());
        assert!(parse_perturb_args(&args(&["--input", "x"])).is_err());
        assert!(parse_perturb_args(&args(&["--input", "x", "--epsilon-local", "0"])).is_err());
        assert!(parse_perturb_args(&args(&["--input", "x", "--epsilon-local", "nan"])).is_err());
        assert!(parse_perturb_args(&args(&[
            "--input",
            "x",
            "--epsilon-local",
            "1",
            "--universe",
            "0"
        ]))
        .is_err());
        assert!(parse_perturb_args(&args(&[
            "--input",
            "x",
            "--epsilon-local",
            "1",
            "--pad",
            "0"
        ]))
        .is_err());
        assert!(parse_perturb_args(&args(&["--bogus"])).is_err());

        // eval --ldp: default output switches to BENCH_ldp.json; the shape overrides
        // need --ldp; tf has no local model.
        let o = parse_eval_args(&args(&["--input", "x.dat", "--ldp"])).unwrap();
        assert!(o.ldp);
        assert_eq!(o.out, "BENCH_ldp.json");
        let o = parse_eval_args(&args(&[
            "--input",
            "x.dat",
            "--ldp",
            "--ldp-universe",
            "16",
            "--ldp-pad",
            "2",
            "--out",
            "custom.json",
        ]))
        .unwrap();
        assert_eq!(o.ldp_universe, Some(16));
        assert_eq!(o.ldp_pad, Some(2));
        assert_eq!(o.out, "custom.json");
        assert!(parse_eval_args(&args(&["--input", "x", "--ldp-universe", "8"])).is_err());
        assert!(parse_eval_args(&args(&["--input", "x", "--ldp-pad", "2"])).is_err());
        assert!(parse_eval_args(&args(&["--input", "x", "--ldp", "--method", "tf"])).is_err());
    }

    #[test]
    fn perturb_writes_fimi_and_the_identity_channel_canonicalizes() {
        let dir = std::env::temp_dir();
        let stem = format!("pb_cli_perturb_{}", std::process::id());
        let input = dir.join(format!("{stem}.dat"));
        let out = dir.join(format!("{stem}_out.dat"));
        std::fs::write(&input, "3 1 2 1\n0 4\n2 3\n").unwrap();
        // Identity channel with a roomy pad: the output is the canonicalized input.
        perturb(&PerturbOptions {
            input: input.to_string_lossy().into_owned(),
            epsilon_local: f64::INFINITY,
            universe: None,
            pad: Some(8),
            seed: 1,
            out: Some(out.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "1 2 3\n0 4\n2 3\n");
        // A finite channel still emits one report line per transaction, all items in
        // the derived universe (max item + 1 = 5), reproducibly for the same seed.
        let options = PerturbOptions {
            input: input.to_string_lossy().into_owned(),
            epsilon_local: 2.0,
            universe: None,
            pad: None,
            seed: 9,
            out: Some(out.to_string_lossy().into_owned()),
        };
        perturb(&options).unwrap();
        let first = std::fs::read_to_string(&out).unwrap();
        assert_eq!(first.lines().count(), 3);
        for line in first.lines() {
            for item in line.split_whitespace() {
                assert!(item.parse::<u32>().unwrap() < 5, "out of universe: {line}");
            }
        }
        perturb(&options).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), first);
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn eval_ldp_scores_both_trust_models() {
        // A loose channel (big ε_local, identity-adjacent) on an unambiguous top-3:
        // both the central and the local cells must score near-perfectly, and the
        // JSON grid must carry one row per mode with finite numbers.
        let dir = std::env::temp_dir();
        let stem = format!("pb_cli_eval_ldp_{}", std::process::id());
        let input = dir.join(format!("{stem}.dat"));
        let out = dir.join(format!("{stem}.json"));
        std::fs::write(&input, "1 2 3\n1 2\n1 2 3\n2 3\n1 2\n1 2\n1 3\n".repeat(30)).unwrap();
        let options = EvalOptions {
            input: input.to_string_lossy().into_owned(),
            ks: vec![3],
            epsilons: vec![1e9],
            runs: 2,
            seed: 1,
            method: Method::PrivBasis,
            tf_m: 2,
            no_consistency: false,
            out: out.to_string_lossy().into_owned(),
            ldp: true,
            ldp_universe: None,
            ldp_pad: None,
        };
        eval(&options).unwrap();
        let db = read_fimi_file(&input).unwrap();
        let cells = eval_grid(&options, &db).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].mode, "central");
        assert_eq!(cells[1].mode, "ldp");
        for cell in &cells {
            assert!(
                cell.f1.mean.is_finite() && (cell.f1.mean - 1.0).abs() < 1e-6,
                "{} f1 = {}",
                cell.mode,
                cell.f1.mean
            );
        }
        let json = std::fs::read_to_string(&out).unwrap();
        let value = privbasis::proto::Json::parse(&json).unwrap();
        let ldp = value.get("ldp").expect("ldp provenance block");
        assert_eq!(ldp.get("universe").and_then(|v| v.as_u64()), Some(4));
        let grid = value.get("grid").and_then(|v| v.as_array()).unwrap();
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[1].get("mode").and_then(|v| v.as_str()), Some("ldp"));
        let f1 = grid[1]
            .get("f1")
            .and_then(|v| v.get("mean"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(f1.is_finite());
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn parses_audit_arguments() {
        let o = parse_audit_args(&args(&[])).unwrap();
        assert_eq!(
            o,
            AuditOptions {
                root: ".".to_string(),
                json: false
            }
        );
        let o = parse_audit_args(&args(&["--root", "/tmp/ws", "--json"])).unwrap();
        assert_eq!(o.root, "/tmp/ws");
        assert!(o.json);
        assert!(parse_audit_args(&args(&["--root"])).is_err());
        assert!(parse_audit_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn audit_subcommand_runs_the_real_linter() {
        // A tree with one deliberate violation: findings reported, non-clean exit.
        let dir = std::env::temp_dir().join(format!("pb_cli_audit_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/core/src")).unwrap();
        std::fs::write(
            dir.join("crates/core/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub fn t() -> u64 { std::time::Instant::now(); 0 }\n",
        )
        .unwrap();
        let report = privbasis::audit::audit(&dir).unwrap();
        assert!(report.findings.iter().any(|d| d.lint == "wall-clock"));
        let opts = AuditOptions {
            root: dir.to_string_lossy().into_owned(),
            json: true,
        };
        assert_eq!(audit(&opts), ExitCode::FAILURE);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_missing_and_invalid_arguments() {
        assert!(parse_args(&args(&["--k", "5", "--epsilon", "1"])).is_err());
        assert!(parse_args(&args(&["--input", "x", "--epsilon", "1"])).is_err());
        assert!(parse_args(&args(&["--input", "x", "--k", "0", "--epsilon", "1"])).is_err());
        assert!(parse_args(&args(&["--input", "x", "--k", "5", "--epsilon", "-1"])).is_err());
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--k",
            "5",
            "--epsilon",
            "1",
            "--method",
            "zzz"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--k",
            "5",
            "--epsilon",
            "1",
            "--rules",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--help"])).is_err());
    }

    #[test]
    fn end_to_end_on_a_temporary_file() {
        // Write a small FIMI file, then run both methods noiselessly through the same code path
        // main() uses.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pb_cli_test_{}.dat", std::process::id()));
        std::fs::write(&path, "1 2 3\n1 2\n1 2 3\n2 3\n1 2\n").unwrap();
        let db = read_fimi_file(&path).unwrap();

        let base = Options {
            input: path.to_string_lossy().into_owned(),
            k: 3,
            epsilon: f64::INFINITY,
            method: Method::PrivBasis,
            seed: 1,
            tf_m: 2,
            rules_min_confidence: None,
            tsv: false,
            no_consistency: false,
            shards: None,
        };
        let pb = run(&base, &db, None).unwrap();
        assert_eq!(pb.len(), 3);
        assert!((pb[0].1 - db.support(&pb[0].0) as f64).abs() < 1e-9);

        // --shards partitions the rows; output is identical for the seed. So is a run
        // on a context the caller already holds, as eval passes one.
        let pb_sharded = run(
            &Options {
                shards: Some(3),
                ..base.clone()
            },
            &db,
            None,
        )
        .unwrap();
        assert_eq!(pb, pb_sharded);
        let held = pb_context(&db, None);
        assert_eq!(pb, run(&base, &db, Some(&held)).unwrap());

        let tf = run(
            &Options {
                method: Method::TruncatedFrequency,
                ..base.clone()
            },
            &db,
            None,
        )
        .unwrap();
        assert_eq!(tf.len(), 3);
        let _ = std::fs::remove_file(&path);
    }
}

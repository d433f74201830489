//! # perfbench — the privbasis service benchmark
//!
//! One run: generate a workload's inputs from its seed, start a real
//! `privbasis-cli serve` (plus `shard-worker`s) several times to time set-up, drive
//! the last one with closed-loop clients for the run's seconds, check every reply,
//! and report end-to-end metrics (untraced run) or per-layer metrics (traced run).
//! `BENCHMARK.json` at the repository root lists the workloads and metrics and why
//! each exists; `run.sh` builds everything and calls the `perfbench` binary.

#![forbid(unsafe_code)]

pub mod layers;
pub mod load;
pub mod proc;
pub mod verify;
pub mod workload;

use crate::layers::Scrape;
use crate::load::Sample;
use crate::workload::{Query, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `privbasis-cli` binary.
    pub cli: PathBuf,
    /// Scratch directory for data, state and logs (removed after the run).
    pub work_dir: PathBuf,
    /// Tiny inputs and one set-up (the smoke test).
    pub tiny: bool,
}

/// One metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every reply verified, ε and audit reconciled, no failures.
    pub correct: bool,
    /// Timed-phase queries sent.
    pub attempted: usize,
    /// Timed-phase queries that failed (transport, structured error, timeout).
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: environment, verification, derived figures.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("server_cpu_ms_per_query", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_ratio", "ratio"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.lambda_us", "us"),
    ("core.select_items_us", "us"),
    ("core.select_pairs_us", "us"),
    ("core.construct_us", "us"),
    ("core.count_us", "us"),
    ("core.consistency_us", "us"),
    ("core.unattributed_us", "us"),
    ("fim.bins_per_query", "count"),
    ("fim.bin_histogram_ns_per_bin", "ns"),
    ("fim.pair_counts_us", "us"),
    ("fim.index_build_ms", "ms"),
    ("context.theta_misses", "count"),
    ("context.theta_mine_ms", "ms"),
    ("ledger.debit_us", "us"),
    ("ledger.journal_records_per_query", "count"),
    ("ledger.journal_bytes_per_query", "bytes"),
    ("ledger.snapshots_per_1k_queries", "count"),
    ("audit.bytes_per_query", "bytes"),
    ("proto.parse_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.reply_bytes", "bytes"),
    ("server.request_us", "us"),
    ("server.outside_us", "us"),
    ("server.unattributed_us", "us"),
    ("shard.rpcs_per_query", "count"),
    ("shard.rpc_us", "us"),
    ("shard.merge_us", "us"),
    ("shard.hedges", "count"),
    ("shard.reseeds", "count"),
    ("shard.failures", "count"),
    ("registry.register_ms", "ms"),
    ("registry.context_ms", "ms"),
    ("trace.query_p50_ms", "ms"),
];

/// Linear-interpolated percentile of sorted values.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Result<Report, String> {
    let nproc = pb_fim::index::available_parallelism();
    let load_start = load_average();
    let dir = opts
        .work_dir
        .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = run_in(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Only removed when no other run is using it.
    let _ = std::fs::remove_dir(&opts.work_dir);
    let mut report = result?;
    let load_end = load_average();
    let flagged = load_start > nproc as f64;
    report.notes.insert(
        0,
        format!(
            "env {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_sha\": \"{}\", \"kernel\": \"{}\", \
             \"load_start\": {load_start}, \"load_end\": {load_end}, \"flagged\": {flagged}}}",
            command_line("rustc", &["-V"]),
            command_line("git", &["rev-parse", "HEAD"]),
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        ),
    );
    if flagged {
        report.notes.push(format!(
            "WARNING: load average {load_start} exceeded {nproc} cores at the start: another job shares this machine"
        ));
    }
    Ok(report)
}

fn run_in(opts: &Options, dir: &std::path::Path) -> Result<Report, String> {
    let inputs = opts.workload.inputs(opts.seed, opts.tiny);
    let spec = &inputs.spec;
    let fimi = dir.join("data.dat");
    std::fs::write(&fimi, &inputs.fimi)
        .map_err(|e| format!("cannot write {}: {e}", fimi.display()))?;

    // Set-up, several times: the last deployment serves the timed phase.
    let mut setup_times = Vec::new();
    let mut deployment = None;
    for i in 0..spec.setups {
        let (d, secs) = proc::set_up(&opts.cli, &inputs, &fimi, &dir.join(format!("setup{i}")))?;
        setup_times.push(secs);
        if i + 1 < spec.setups {
            d.shutdown()?;
        } else {
            deployment = Some(d);
        }
    }
    let deployment = deployment.ok_or("a workload needs at least one set-up")?;
    let (addr, http) = (deployment.server.addr, deployment.server.http);
    let pids = deployment.pids();
    let http_addr = http.ok_or("the server reported no HTTP gateway")?;
    let audit_bytes = || {
        deployment
            .state_dir
            .as_ref()
            .and_then(|d| std::fs::metadata(d.join(pb_service::audit_log::AUDIT_FILE)).ok())
            .map_or(0, |m| m.len())
    };

    let scrape_before = if opts.trace {
        Scrape::parse(&proc::http_get(http_addr, "/metrics")?)
    } else {
        Scrape::default()
    };
    let audit_before = audit_bytes();
    let phase = load::timed_phase(spec, (addr, http), &inputs.queries, opts.seconds, &pids)?;
    let scrape_after = if opts.trace {
        Scrape::parse(&proc::http_get(http_addr, "/metrics")?)
    } else {
        Scrape::default()
    };
    let audit_after = audit_bytes();
    let rss = proc::peak_rss_mb(&pids)?;
    let status = load::Conn::raw(addr, r#"{"v":2,"id":"bench-status","op":"status"}"#)
        .map_err(|e| format!("status failed: {e}"))?;
    let audit_released = deployment
        .state_dir
        .as_ref()
        .map(|d| verify::audit_released(d))
        .transpose()?;
    let warm_samples = deployment.warm_replies.clone();
    deployment.shutdown()?;

    // Checks, against an in-process reference.
    let timed_queries: Vec<Query> = phase
        .samples
        .iter()
        .map(|s| inputs.queries[s.index])
        .collect();
    let reference = verify::reference(&inputs.db, &inputs.warm, &timed_queries);
    let warm = verify::check(&warm_samples, &inputs.warm, &inputs.queries, &reference);
    let timed = verify::check(&phase.samples, &inputs.warm, &inputs.queries, &reference);
    let attempted = phase.samples.len();
    let mut notes = Vec::new();
    let mut correct =
        attempted > 0 && timed.verified == attempted && warm.verified == inputs.warm.len();
    let spent = verify::status_spent(&status)?;
    let released_eps = warm.epsilon_released + timed.epsilon_released;
    if (spent - released_eps).abs() > 1e-6 * released_eps.max(1.0) {
        correct = false;
        notes.push(format!(
            "status reports ε spent {spent}, released replies sum to {released_eps}"
        ));
    }
    let released = warm.released + timed.released;
    if let Some(lines) = audit_released {
        if lines != released {
            correct = false;
            notes.push(format!(
                "audit.jsonl has {lines} released lines for {released} released replies"
            ));
        }
    }
    if let Some(problem) = warm.first_problem.as_ref().or(timed.first_problem.as_ref()) {
        notes.push(format!("first problem: {problem}"));
    }
    let verified_ratio = timed.verified as f64 / attempted.max(1) as f64;
    let failed_ratio = timed.failed as f64 / attempted.max(1) as f64;
    notes.push(format!(
        "verification: {} of {attempted} replies byte-identical to the reference \
         (verified_ratio {verified_ratio} ratio, failed_ratio {failed_ratio} ratio); \
         ε spent {spent} = Σε released {released_eps}{}",
        timed.verified,
        audit_released.map_or(String::new(), |n| format!("; {n} audit released lines"))
    ));

    let completed = timed.released.max(1) as f64;
    setup_times.sort_by(f64::total_cmp);
    let best = best_latencies(&phase.samples, &inputs.queries);
    let (p50, p90) = (percentile(&best, 50.0), percentile(&best, 90.0));
    let mut latencies: Vec<f64> = phase.samples.iter().map(|s| ms(s.latency)).collect();
    latencies.sort_by(f64::total_cmp);
    let p99 = percentile(&latencies, 99.0);
    let qps = timed.released as f64 / phase.wall.as_secs_f64();
    let cpu = phase.cpu_ticks as f64 / proc::clock_ticks() * 1e3 / completed;
    // Printed, not bounded: on a shared host these swing between runs by more than
    // any bound the benchmark could hold (throughput and the 99th percentile follow
    // every stall of the host's other load), and failures are zero.
    notes.push(format!(
        "unbounded: throughput_qps {qps} 1/s, query_p99_ms {p99} ms, failed_ratio {failed_ratio} ratio"
    ));
    notes.push(format!(
        "timed phase: {attempted} queries ({} distinct) by {} client(s) in {:.3} s; \
         set-up runs {:?} s",
        best.len(),
        spec.clients,
        phase.wall.as_secs_f64(),
        setup_times
    ));

    let metrics: Vec<Metric> = if opts.trace {
        let mean_us = latencies.iter().sum::<f64>() * 1e3 / attempted.max(1) as f64;
        // Replayed in list order, so the same seed replays the same queries.
        let answered: std::collections::BTreeSet<usize> =
            phase.samples.iter().map(|s| s.index).collect();
        let replayed: Vec<Query> = answered.into_iter().map(|i| inputs.queries[i]).collect();
        let mut m = layers::replay(&inputs, &replayed, timed.released, &dir.join("ledger"))?;
        m.extend(layers::server_side(
            &scrape_before,
            &scrape_after,
            attempted,
            mean_us,
        ));
        m.insert(
            "context.theta_misses",
            theta_misses(&inputs.warm, &timed_queries) as f64,
        );
        m.insert(
            "audit.bytes_per_query",
            (audit_after - audit_before) as f64 / completed,
        );
        m.insert(
            "proto.reply_bytes",
            phase.samples.iter().map(reply_len).sum::<usize>() as f64 / attempted.max(1) as f64,
        );
        m.insert("trace.query_p50_ms", p50);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: m.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    } else {
        let values = [
            p50,
            p90,
            cpu,
            percentile(&setup_times, 50.0),
            rss,
            verified_ratio,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok(Report {
        correct: correct && timed.failed == 0 && warm.failed == 0,
        attempted,
        failed: timed.failed,
        metrics,
        notes,
    })
}

/// Each distinct pinned query's fastest send → reply time in the run, sorted.
///
/// Clients cycle through the query list, so a run repeats every query, and the
/// same query does the same work each time. Its fastest repetition is its cost
/// without interference from the host's other load, which on a shared machine
/// moves a run's plain latency percentiles by more than any useful bound.
fn best_latencies(samples: &[Sample], queries: &[Query]) -> Vec<f64> {
    let mut best: std::collections::BTreeMap<verify::Key, f64> = Default::default();
    for s in samples {
        let fastest = best
            .entry(verify::key(&queries[s.index]))
            .or_insert(f64::MAX);
        *fastest = fastest.min(ms(s.latency));
    }
    let mut best: Vec<f64> = best.into_values().collect();
    best.sort_by(f64::total_cmp);
    best
}

/// θ ranks the timed queries needed that set-up had not primed: the server's
/// θ-memo misses.
fn theta_misses(warm: &[Query], timed: &[Query]) -> usize {
    let params = pb_service::ServiceConfig::default().params;
    let rank = |q: &Query| workload::theta_rank(&params, q.k);
    let primed: std::collections::BTreeSet<_> = warm.iter().map(rank).collect();
    let needed: std::collections::BTreeSet<_> = timed.iter().map(rank).collect();
    needed.difference(&primed).count()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn reply_len(s: &Sample) -> usize {
    s.reply.as_ref().map_or(0, |r| r.len())
}

//! Service-side observability: the one place timing happens.
//!
//! [`Telemetry`] owns the server's single `Instant` epoch and everything derived
//! from it — the bounded trace ring, the per-op / per-stage / per-worker latency
//! histograms, and the slow-query log. The mechanism crates below never see a
//! clock: `pb-core` reports stage boundaries through the opaque-token
//! [`PhaseObserver`](pb_core::PhaseObserver) and `pb-shard` reports remote RPCs
//! through [`FabricObserver`](pb_shard::FabricObserver); both bridges here mint
//! microsecond tokens from [`Telemetry::now_us`] and interpret them on this side
//! of the boundary.
//!
//! Observation is invisible in released bytes: every hook fires *after* the
//! observed work committed its result, nothing here touches an RNG, a count, or a
//! budget, and the pinned-seed goldens are asserted byte-identical with tracing
//! on and off (`crates/service/tests/observability.rs::
//! trace_op_returns_the_span_tree_and_never_perturbs_release_bytes`).

use pb_trace::{Histogram, Span, Trace, TraceRing};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Shared observability state of one server.
pub(crate) struct Telemetry {
    start: Instant,
    ring: TraceRing,
    /// End-to-end latency per op name.
    op_latency: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Per-stage durations (span names: `parse`, `lambda`, `noise_draw`, …).
    stage_latency: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Fabric RPC latency per worker address.
    fabric_rpc: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Spans reported by the observers for requests still in flight, keyed by
    /// trace id. Entries exist only between `ReqTrace::begin` and `finish`, so
    /// stale fabric labels cannot grow the map.
    inflight: Mutex<HashMap<String, Vec<Span>>>,
    /// Server-assigned trace-id counter (requests whose envelope carried no id).
    next_id: AtomicU64,
    /// Requests slower than this get their whole trace logged to stderr.
    slow_query: Option<Duration>,
}

impl Telemetry {
    pub(crate) fn new(slow_query: Option<Duration>) -> Telemetry {
        Telemetry {
            start: Instant::now(),
            ring: TraceRing::default(),
            op_latency: Mutex::new(BTreeMap::new()),
            stage_latency: Mutex::new(BTreeMap::new()),
            fabric_rpc: Mutex::new(BTreeMap::new()),
            inflight: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            slow_query,
        }
    }

    /// Microseconds since the server started — the opaque token every observer
    /// bridge mints.
    pub(crate) fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// A fresh server-assigned trace id (for requests without an envelope id).
    pub(crate) fn assign_id(&self) -> String {
        format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// The newest recorded trace with this id, if it is still in the ring.
    pub(crate) fn get_trace(&self, id: &str) -> Option<Trace> {
        self.ring.get(id)
    }

    /// Snapshots of the per-op end-to-end latency histograms.
    pub(crate) fn op_snapshots(&self) -> Vec<(String, pb_trace::HistogramSnapshot)> {
        snapshot_map(&self.op_latency)
    }

    /// Snapshots of the per-stage duration histograms.
    pub(crate) fn stage_snapshots(&self) -> Vec<(String, pb_trace::HistogramSnapshot)> {
        snapshot_map(&self.stage_latency)
    }

    /// Snapshots of the per-worker fabric RPC latency histograms.
    pub(crate) fn fabric_snapshots(&self) -> Vec<(String, pb_trace::HistogramSnapshot)> {
        snapshot_map(&self.fabric_rpc)
    }

    fn histogram(map: &Mutex<BTreeMap<String, Arc<Histogram>>>, key: &str) -> Arc<Histogram> {
        let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(key.to_string())
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// Routes an observer-reported span into the in-flight request it belongs to.
    /// Spans for unknown (finished or never-begun) traces are dropped — the map
    /// only ever holds live requests.
    fn push_span(&self, trace_id: &str, span: Span) {
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(spans) = inflight.get_mut(trace_id) {
            spans.push(span);
        }
    }
}

fn snapshot_map(
    map: &Mutex<BTreeMap<String, Arc<Histogram>>>,
) -> Vec<(String, pb_trace::HistogramSnapshot)> {
    map.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, h)| (k.clone(), h.snapshot()))
        .collect()
}

/// One request being traced: collects spans (its own and the observers'),
/// then finalizes into the ring, the histograms, and the slow-query log.
pub(crate) struct ReqTrace {
    telemetry: Arc<Telemetry>,
    id: String,
    op: String,
    started_us: u64,
    dataset: Mutex<String>,
    outcome: Mutex<String>,
    spans: Mutex<Vec<Span>>,
}

impl ReqTrace {
    /// Starts tracing one request. `id` is the envelope id when the client sent
    /// one, else [`Telemetry::assign_id`]; `started_us` is the token minted when
    /// the request bytes arrived (so `parse` can be covered retroactively).
    pub(crate) fn begin(
        telemetry: Arc<Telemetry>,
        id: String,
        op: &str,
        started_us: u64,
    ) -> ReqTrace {
        telemetry
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id.clone(), Vec::new());
        ReqTrace {
            telemetry,
            id,
            op: op.to_string(),
            started_us,
            dataset: Mutex::new(String::new()),
            outcome: Mutex::new("ok".to_string()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The trace id (also what the fabric label and worker RPC ids carry).
    pub(crate) fn id(&self) -> &str {
        &self.id
    }

    /// Current token, for bracketing a span manually.
    pub(crate) fn now_us(&self) -> u64 {
        self.telemetry.now_us()
    }

    /// Records one finished span with absolute (server-epoch) tokens.
    pub(crate) fn add_span(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Convenience: records `name` spanning `started..now`.
    pub(crate) fn span_since(&self, name: &'static str, started: u64) {
        let ended = self.now_us();
        self.add_span(Span::new(name, started, ended));
    }

    pub(crate) fn set_dataset(&self, dataset: &str) {
        *self.dataset.lock().unwrap_or_else(PoisonError::into_inner) = dataset.to_string();
    }

    pub(crate) fn set_outcome(&self, outcome: impl Into<String>) {
        *self.outcome.lock().unwrap_or_else(PoisonError::into_inner) = outcome.into();
    }

    /// Finalizes the trace: merges the observers' spans, rebases everything onto
    /// the request start, records ring + histograms, and emits the slow-query log
    /// line when over threshold.
    pub(crate) fn finish(self) {
        let ended_us = self.telemetry.now_us();
        let total_us = ended_us.saturating_sub(self.started_us);
        let mut spans = self
            .spans
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(observed) = self
            .telemetry
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id)
        {
            spans.extend(observed);
        }
        // Rebase absolute tokens onto the request start and order by onset.
        for span in &mut spans {
            span.start_us = span.start_us.saturating_sub(self.started_us);
            span.end_us = span
                .end_us
                .saturating_sub(self.started_us)
                .max(span.start_us);
        }
        spans.sort_by_key(|s| (s.start_us, s.end_us));
        for span in &spans {
            Telemetry::histogram(&self.telemetry.stage_latency, &span.name)
                .observe_us(span.duration_us());
        }
        Telemetry::histogram(&self.telemetry.op_latency, &self.op).observe_us(total_us);
        let trace = Trace {
            id: self.id,
            op: self.op,
            dataset: self
                .dataset
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
            outcome: self
                .outcome
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
            total_us,
            spans,
        };
        if let Some(threshold) = self.telemetry.slow_query {
            if u128::from(total_us) >= threshold.as_micros() {
                // Structured JSONL on stderr: one object per slow request.
                eprintln!(
                    "{{\"event\":\"slow_query\",\"threshold_ms\":{},\"trace\":{}}}",
                    threshold.as_millis(),
                    trace.to_json()
                );
            }
        }
        self.telemetry.ring.record(trace);
    }
}

/// Bridges [`pb_core::PhaseObserver`] onto one in-flight request: phases arrive
/// with absolute tokens and are routed into the request's span list.
pub(crate) struct PhaseBridge<'a> {
    pub(crate) req: &'a ReqTrace,
}

impl pb_core::PhaseObserver for PhaseBridge<'_> {
    fn now(&self) -> u64 {
        self.req.now_us()
    }

    fn phase(&self, name: &'static str, started: u64, ended: u64) {
        self.req.add_span(Span::new(name, started, ended));
    }
}

/// Bridges [`pb_shard::FabricObserver`] onto the telemetry: RPC latencies feed
/// the per-worker histograms, and — when the fabric carried a trace label — a
/// `shard_rpc` span is routed into that request's trace with the worker address
/// and the hedged/re-seeded flags as attributes.
pub(crate) struct FabricBridge {
    pub(crate) telemetry: Arc<Telemetry>,
}

impl pb_shard::FabricObserver for FabricBridge {
    fn now(&self) -> u64 {
        self.telemetry.now_us()
    }

    fn rpc(
        &self,
        trace: Option<&str>,
        addr: &str,
        started: u64,
        ended: u64,
        ok: bool,
        hedged: bool,
        reseeded: bool,
    ) {
        let ended = ended.max(started);
        Telemetry::histogram(&self.telemetry.fabric_rpc, addr).observe_us(ended - started);
        if let Some(trace_id) = trace {
            let mut span = Span::new("shard_rpc", started, ended)
                .attr("worker", addr)
                .attr("ok", if ok { "true" } else { "false" });
            if hedged {
                span = span.attr("hedged", "true");
            }
            if reseeded {
                span = span.attr("reseeded", "true");
            }
            self.telemetry.push_span(trace_id, span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_trace_rebases_merges_and_records() {
        let telemetry = Arc::new(Telemetry::new(Some(Duration::from_micros(0))));
        let req = ReqTrace::begin(Arc::clone(&telemetry), "t1".into(), "query", 0);
        req.set_dataset("retail");
        let start = req.now_us();
        req.span_since("admission", start);
        // An observer span arrives through the in-flight routing.
        telemetry.push_span("t1", Span::new("noise_draw", start, start + 5));
        req.set_outcome("released");
        req.finish();
        let trace = telemetry.get_trace("t1").expect("trace recorded");
        assert_eq!(trace.op, "query");
        assert_eq!(trace.dataset, "retail");
        assert_eq!(trace.outcome, "released");
        assert!(trace.has_span("admission"));
        assert!(trace.has_span("noise_draw"));
        // In-flight entry is gone: late spans for finished traces are dropped.
        telemetry.push_span("t1", Span::new("late", 0, 1));
        assert!(!telemetry.get_trace("t1").unwrap().has_span("late"));
        // Histograms saw the op and both stages.
        assert!(telemetry
            .op_snapshots()
            .iter()
            .any(|(k, s)| k == "query" && s.count == 1));
        assert!(telemetry
            .stage_snapshots()
            .iter()
            .any(|(k, s)| k == "noise_draw" && s.count == 1));
    }

    #[test]
    fn fabric_bridge_routes_spans_and_histograms() {
        let telemetry = Arc::new(Telemetry::new(None));
        let req = ReqTrace::begin(Arc::clone(&telemetry), "q9".into(), "query", 0);
        let bridge = FabricBridge {
            telemetry: Arc::clone(&telemetry),
        };
        use pb_shard::FabricObserver as _;
        bridge.rpc(Some("q9"), "127.0.0.1:9001", 10, 250, true, true, false);
        bridge.rpc(None, "127.0.0.1:9002", 0, 9, true, false, false);
        req.finish();
        let trace = telemetry.get_trace("q9").unwrap();
        let rpc = trace.spans.iter().find(|s| s.name == "shard_rpc").unwrap();
        assert!(rpc
            .attrs
            .contains(&("worker".into(), "127.0.0.1:9001".into())));
        assert!(rpc.attrs.contains(&("hedged".into(), "true".into())));
        assert!(!rpc.attrs.iter().any(|(k, _)| k == "reseeded"));
        let fabric = telemetry.fabric_snapshots();
        assert_eq!(fabric.len(), 2);
        assert!(fabric.iter().all(|(_, s)| s.count == 1));
    }
}

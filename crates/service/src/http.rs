//! The HTTP/1.1 gateway: the same op handlers as the TCP protocol, plus `/metrics`.
//!
//! Hand-rolled on `std` (the vendor policy forbids registry crates): a minimal,
//! fuzz-hardened request parser ([`parse_request`]) and a router mapping
//!
//! * `POST /v1/query`         → the `query` op (body: the op's JSON fields),
//! * `POST /v1/perturb`       → server-side LDP perturbation against a `mode: ldp` dataset,
//! * `GET  /v1/status`        → the `status` op,
//! * `POST /v1/admin/register`, `POST /v1/admin/register_ldp`, `POST /v1/admin/unregister`,
//!   `POST /v1/admin/reshard`, `POST /v1/admin/snapshot_every`, `POST /v1/admin/consistency`
//!   → the admin ops, authorized by an `Authorization: Bearer <token>` header
//!   (`perturb` is deliberately *not* admin-gated: it holds no secrets — it is the
//!   same client-side randomizer `privbasis-cli perturb` runs locally),
//! * `GET  /metrics`          → Prometheus text format fed from the same counters the
//!   `status` op reports (ledgers, journals, query/request counters, uptime)
//!
//! onto [`execute`](crate::server::execute) — the identical code path TCP requests
//! take, so pinned-seed releases are byte-identical across transports and behaviour
//! can never drift. Response bodies are the protocol-v2 JSON encodings; error HTTP
//! status lines derive from the shared [`ErrorCode::http_status`] table.
//!
//! The parser enforces hard caps (16 KiB head, 1 MiB body), rejects chunked transfer
//! encoding, and supports keep-alive with the same shutdown-aware poll loop as the TCP
//! path. There is deliberately no `shutdown` route: process control stays on the TCP
//! surface.

use crate::protocol::{ErrorCode, Op, Response, WireError, PROTOCOL_VERSION};
use crate::server::{execute, is_shutting_down, ServerCtx, POLL_INTERVAL};
use crate::telemetry::ReqTrace;
use pb_proto::Json;
use pb_trace::HistogramSnapshot;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Hard cap on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body (mirrors the TCP line cap).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// The method, as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path plus optional query string).
    pub target: String,
    /// The protocol version from the request line (`HTTP/1.0` or `HTTP/1.1`).
    pub version: String,
    /// Headers, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Looks a header up by (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The bearer token of an `Authorization` header, when one is present.
    pub fn bearer_token(&self) -> Option<&str> {
        self.header("authorization")?.strip_prefix("Bearer ")
    }

    /// The target path with any query string stripped.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }

    /// True when the client asked to keep the connection open. HTTP/1.1 defaults to
    /// keep-alive (`Connection: close` opts out); HTTP/1.0 defaults to close
    /// (`Connection: keep-alive` opts in) — a 1.0 client expecting a close-delimited
    /// exchange must not pin a pool worker until the idle timeout.
    pub fn keep_alive(&self) -> bool {
        let connection = self.header("connection");
        if self.version == "HTTP/1.0" {
            connection.is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
        } else {
            !connection.is_some_and(|v| v.eq_ignore_ascii_case("close"))
        }
    }
}

/// Tries to parse one complete request from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed, `Ok(Some((request, consumed)))` on
/// success, and `Err` on input that can never become a valid request (the connection
/// should answer 400 and close). Never panics on arbitrary bytes — property-tested.
pub fn parse_request(buf: &[u8]) -> Result<Option<(HttpRequest, usize)>, String> {
    let head_end = match find(buf, b"\r\n\r\n") {
        Some(pos) => pos,
        None => {
            if buf.len() > MAX_HEAD_BYTES {
                return Err("request head too large".to_string());
            }
            return Ok(None);
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Err("request head too large".to_string());
    }
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 request head".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty()
        || target.is_empty()
        || parts.next().is_some()
        || !method.bytes().all(|b| b.is_ascii_alphabetic())
    {
        return Err(format!("malformed request line `{request_line}`"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol `{version}`"));
    }
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line `{line}`"))?;
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(format!("malformed header name `{name}`"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        version: version.to_string(),
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err("chunked request bodies are not supported".to_string());
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| format!("invalid Content-Length `{raw}`"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err("request body too large".to_string());
    }
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let mut request = request;
    request.body = buf[body_start..total].to_vec();
    Ok(Some((request, total)))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Serves one HTTP connection: requests in, responses out, keep-alive until the client
/// closes (or asks to), the idle timeout fires, the server shuts down, or a request is
/// unparseable. Mirrors the TCP loop's shutdown-aware chunked reads.
pub(crate) fn serve_http(
    mut stream: TcpStream,
    ctx: &ServerCtx,
    read_timeout: Option<Duration>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(ctx.write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut buf: Vec<u8> = Vec::new();
    let mut idle = Duration::ZERO;
    loop {
        // Serve every complete request already buffered.
        loop {
            match parse_request(&buf) {
                Err(message) => {
                    // Counted like the TCP path counts unparseable lines: an abuse
                    // wave of garbage requests must show up in pb_rejected_total.
                    ctx.requests_total.fetch_add(1, Ordering::Relaxed);
                    ctx.rejected_total.fetch_add(1, Ordering::Relaxed);
                    let body = Response::Error(WireError::malformed(message))
                        .encode(PROTOCOL_VERSION, None);
                    let reply = (400, "application/json", body, None);
                    write_response(&mut stream, &reply, false)?;
                    return Ok(());
                }
                Ok(None) => break,
                Ok(Some((request, consumed))) => {
                    buf.drain(..consumed);
                    pb_fault::inject!("conn.read")?;
                    let keep_alive = request.keep_alive() && !is_shutting_down(ctx);
                    let reply = route(&request, ctx);
                    let written = pb_fault::inject!("conn.write")
                        .and_then(|()| write_response(&mut stream, &reply, keep_alive));
                    if let Err(e) = written {
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                            // The peer accepted no bytes for the whole write deadline.
                            ctx.deadline_closed_total.fetch_add(1, Ordering::Relaxed);
                        }
                        return Err(e);
                    }
                    if !keep_alive {
                        return Ok(());
                    }
                }
            }
        }
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // EOF
            Ok(chunk) => {
                idle = Duration::ZERO;
                buf.extend_from_slice(chunk);
                let consumed = chunk.len();
                reader.consume(consumed);
                // The parser's caps bound `buf` at head+body maxima; anything beyond
                // that is reported as a parse error on the next loop turn.
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if is_shutting_down(ctx) {
                    return Ok(());
                }
                idle += POLL_INTERVAL;
                if read_timeout.is_some_and(|limit| idle >= limit) {
                    ctx.deadline_closed_total.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One reply: status, content type, body, and the server-assigned id the request was
/// traced under (`None` when it opened no trace), sent back as `X-Trace-Id`.
type Reply = (u16, &'static str, String, Option<String>);

/// Routes one request to the shared op handlers (or the metrics renderer).
fn route(request: &HttpRequest, ctx: &ServerCtx) -> Reply {
    match (request.method.as_str(), request.path()) {
        ("GET", "/metrics") => (200, "text/plain; version=0.0.4", render_metrics(ctx), None),
        ("POST", "/v1/query") => run_op(request, "query", ctx),
        ("GET", "/v1/status") => run_op(request, "status", ctx),
        // Trace lookup by id: the id a client put in its v2 envelope (or the
        // server-assigned one from the slow-query log). Served from the bounded
        // in-memory ring; a miss is a structured 503, not a 404 route error.
        ("GET", path) if path.starts_with("/v1/trace/") => {
            ctx.requests_total.fetch_add(1, Ordering::Relaxed);
            let id = path["/v1/trace/".len()..].to_string();
            let op = Op::Trace { id };
            let response = execute(&op, request.bearer_token(), ctx, None).0;
            if response.is_error() {
                ctx.rejected_total.fetch_add(1, Ordering::Relaxed);
            }
            let status = match &response {
                Response::Error(e) => e.code.http_status(),
                _ => 200,
            };
            (
                status,
                "application/json",
                response.encode(PROTOCOL_VERSION, None),
                None,
            )
        }
        ("POST", "/v1/perturb") => run_op(request, "perturb", ctx),
        ("POST", "/v1/admin/register") => run_op(request, "register", ctx),
        ("POST", "/v1/admin/register_ldp") => run_op(request, "register_ldp", ctx),
        ("POST", "/v1/admin/unregister") => run_op(request, "unregister", ctx),
        ("POST", "/v1/admin/reshard") => run_op(request, "reshard", ctx),
        ("POST", "/v1/admin/snapshot_every") => run_op(request, "snapshot_every", ctx),
        ("POST", "/v1/admin/consistency") => run_op(request, "consistency", ctx),
        ("POST", "/v1/admin/faults") => run_op(request, "faults", ctx),
        (method, path) => {
            // Unknown routes are rejections too — only /metrics scrapes stay
            // uncounted (a scraper polling every few seconds would drown the
            // traffic counters).
            ctx.requests_total.fetch_add(1, Ordering::Relaxed);
            ctx.rejected_total.fetch_add(1, Ordering::Relaxed);
            let error = WireError::new(
                ErrorCode::UnknownOp,
                format!(
                    "no route for {method} {path} (try POST /v1/query, POST /v1/perturb, \
                     GET /v1/status, POST /v1/admin/{{register,register_ldp,unregister,\
                     reshard,snapshot_every,consistency}}, or GET /metrics)"
                ),
            );
            (
                error.code.http_status(),
                "application/json",
                Response::Error(error).encode(PROTOCOL_VERSION, None),
                None,
            )
        }
    }
}

/// Parses the body as the named op's fields and executes it — the same
/// [`Op::parse_fields`] and [`execute`] the TCP path uses.
fn run_op(request: &HttpRequest, op_name: &str, ctx: &ServerCtx) -> Reply {
    ctx.requests_total.fetch_add(1, Ordering::Relaxed);
    let arrived_us = ctx.telemetry.now_us();
    let op = body_json(request).and_then(|body| Op::parse_fields(op_name, &body, PROTOCOL_VERSION));
    let (status, encoded, trace_id) = match op {
        Err(e) => {
            ctx.rejected_total.fetch_add(1, Ordering::Relaxed);
            (
                e.code.http_status(),
                Response::Error(e).encode(PROTOCOL_VERSION, None),
                None,
            )
        }
        // The gateway routes no shutdown op, so the shutdown flag can never be set
        // here; process control stays on the TCP surface. HTTP requests carry no
        // envelope id, so the trace id is always server-assigned here; the reply
        // hands it back so the client can fetch its own trace.
        Ok(op) => {
            let parsed_us = ctx.telemetry.now_us();
            let trace_id = ctx.telemetry.assign_id();
            let req = ReqTrace::begin(
                Arc::clone(&ctx.telemetry),
                trace_id.clone(),
                op.name(),
                arrived_us,
            );
            req.add_span(pb_trace::Span::new("parse", arrived_us, parsed_us));
            let response = execute(&op, request.bearer_token(), ctx, Some(&req)).0;
            let status = match &response {
                Response::Error(e) => {
                    ctx.rejected_total.fetch_add(1, Ordering::Relaxed);
                    req.set_outcome(format!("error:{}", e.code.as_str()));
                    e.code.http_status()
                }
                _ => 200,
            };
            // Encoded inside the trace, as the TCP dispatch does.
            let encode_started = req.now_us();
            let encoded = response.encode(PROTOCOL_VERSION, None);
            req.span_since("encode", encode_started);
            req.finish();
            (status, encoded, Some(trace_id))
        }
    };
    (status, "application/json", encoded, trace_id)
}

/// The request body as a JSON object (an empty body counts as `{}`, so GET routes and
/// field-free ops need no body at all).
fn body_json(request: &HttpRequest) -> Result<Json, WireError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| WireError::malformed("request body must be UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(Json::Object(Vec::new()));
    }
    Json::parse(text).map_err(|e| WireError::malformed(e.to_string()))
}

/// Writes one response — head and body built into one buffer and sent in one
/// `write_all`, so no part of it waits behind the client's delayed ACK.
fn write_response(stream: &mut TcpStream, reply: &Reply, keep_alive: bool) -> std::io::Result<()> {
    let (status, content_type, body, trace_id) = reply;
    let trace_header = trace_id
        .as_ref()
        .map(|id| format!("X-Trace-Id: {id}\r\n"))
        .unwrap_or_default();
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{trace_header}Connection: {}\r\n\r\n",
        reason(*status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut response = Vec::with_capacity(head.len() + body.len());
    response.extend_from_slice(head.as_bytes());
    response.extend_from_slice(body.as_bytes());
    stream.write_all(&response)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Renders the Prometheus text exposition: process-wide counters plus one labelled
/// series per dataset, fed from the same ledger/journal/query counters the `status` op
/// reports. Scrapes are deliberately *not* counted in `pb_requests_total` — a scraper
/// polling every few seconds would drown the real traffic counters.
fn render_metrics(ctx: &ServerCtx) -> String {
    let mut out = String::new();
    fn gauge(out: &mut String, name: &str, help: &str, kind: &str, value: String) {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    }
    gauge(
        &mut out,
        "pb_protocol_version",
        "Newest wire-protocol version this server speaks.",
        "gauge",
        PROTOCOL_VERSION.to_string(),
    );
    gauge(
        &mut out,
        "pb_uptime_seconds",
        "Seconds since the server started.",
        "gauge",
        ctx.uptime_secs().to_string(),
    );
    gauge(
        &mut out,
        "pb_requests_total",
        "Protocol requests received across TCP and HTTP (metrics scrapes excluded).",
        "counter",
        ctx.requests_total.load(Ordering::Relaxed).to_string(),
    );
    gauge(
        &mut out,
        "pb_rejected_total",
        "Requests answered with an error.",
        "counter",
        ctx.rejected_total.load(Ordering::Relaxed).to_string(),
    );
    gauge(
        &mut out,
        "pb_shed_total",
        "Connections refused at accept because the admission cap was reached.",
        "counter",
        ctx.shed_total.load(Ordering::Relaxed).to_string(),
    );
    gauge(
        &mut out,
        "pb_deadline_closed_total",
        "Connections closed because a read or write deadline expired.",
        "counter",
        ctx.deadline_closed_total
            .load(Ordering::Relaxed)
            .to_string(),
    );
    let names = ctx.registry.names();
    gauge(
        &mut out,
        "pb_datasets",
        "Registered datasets.",
        "gauge",
        names.len().to_string(),
    );

    let mut series: Vec<MetricSeries> = vec![
        (
            "pb_dataset_transactions",
            "Rows in the dataset.",
            "gauge",
            Vec::new(),
        ),
        (
            "pb_dataset_shards",
            "Row shards the dataset is counted over.",
            "gauge",
            Vec::new(),
        ),
        (
            "pb_dataset_epsilon_spent",
            "Cumulative privacy budget spent.",
            "counter",
            Vec::new(),
        ),
        (
            "pb_dataset_epsilon_remaining",
            "Privacy budget remaining (+Inf for unaccounted ledgers).",
            "gauge",
            Vec::new(),
        ),
        (
            "pb_dataset_queries_total",
            "Successfully answered queries.",
            "counter",
            Vec::new(),
        ),
        (
            "pb_dataset_journal_bytes",
            "Write-ahead journal size (durable datasets).",
            "gauge",
            Vec::new(),
        ),
        (
            "pb_dataset_journal_records",
            "Records in the write-ahead journal (durable datasets).",
            "gauge",
            Vec::new(),
        ),
        (
            "pb_dataset_snapshot_generation",
            "Completed journal compactions (durable datasets).",
            "counter",
            Vec::new(),
        ),
        (
            "pb_dataset_degraded",
            "1 when the dataset's journal has failed closed (read-only serving).",
            "gauge",
            Vec::new(),
        ),
    ];
    for name in &names {
        let Some(entry) = ctx.registry.get(name) else {
            continue;
        };
        let label = escape_label(name);
        let mut push = |idx: usize, value: String| series[idx].3.push((label.clone(), value));
        push(0, entry.transactions().to_string());
        push(1, entry.shards().to_string());
        // An LDP dataset has no ledger: spent 0, remaining ∞, same as its status row.
        push(2, format_value(entry.ledger().map_or(0.0, |l| l.spent())));
        push(
            3,
            format_value(entry.ledger().map_or(f64::INFINITY, |l| l.remaining())),
        );
        push(4, entry.queries_served().to_string());
        if let Some(stats) = entry.journal_stats() {
            push(5, stats.wal_bytes.to_string());
            push(6, stats.wal_records.to_string());
            push(7, stats.snapshot_generation.to_string());
        }
        push(8, u8::from(entry.is_degraded()).to_string());
    }
    for (name, help, kind, rows) in series {
        if rows.is_empty() {
            continue;
        }
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (label, value) in rows {
            out.push_str(&format!("{name}{{dataset=\"{label}\"}} {value}\n"));
        }
    }

    // Remote shard fabric health, per (dataset, worker address): monotone failure /
    // hedge / re-seed counters straight off each dataset's fabric.
    let mut fabric_rows: Vec<(String, String, pb_shard::WorkerStats)> = Vec::new();
    for name in &names {
        let Some(entry) = ctx.registry.get(name) else {
            continue;
        };
        let Some(fabric) = entry.fabric() else {
            continue;
        };
        for (addr, stats) in fabric.worker_stats() {
            fabric_rows.push((escape_label(name), escape_label(&addr), stats));
        }
    }
    if !fabric_rows.is_empty() {
        for (metric, help, pick) in [
            (
                "pb_fabric_worker_failures_total",
                "Remote shard ops that failed against this worker.",
                (|s: &pb_shard::WorkerStats| s.failures) as fn(&pb_shard::WorkerStats) -> u64,
            ),
            (
                "pb_fabric_worker_hedges_total",
                "Hedged retries issued after a live connection to this worker failed.",
                |s: &pb_shard::WorkerStats| s.hedges,
            ),
            (
                "pb_fabric_worker_reseeds_total",
                "Shard re-seeds after this worker restarted and lost its data.",
                |s: &pb_shard::WorkerStats| s.reseeds,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {metric} {help}\n# TYPE {metric} counter\n"
            ));
            for (dataset, worker, stats) in &fabric_rows {
                out.push_str(&format!(
                    "{metric}{{dataset=\"{dataset}\",worker=\"{worker}\"}} {}\n",
                    pick(stats)
                ));
            }
        }
    }

    // Lifetime ε-audit tallies (replayed from the durable audit log on restart).
    gauge(
        &mut out,
        "pb_audit_released_total",
        "Queries whose noisy itemsets were released (lifetime, audit log).",
        "counter",
        ctx.audit.released().to_string(),
    );
    gauge(
        &mut out,
        "pb_audit_refused_total",
        "Queries refused before any release (lifetime, audit log).",
        "counter",
        ctx.audit.refused().to_string(),
    );
    gauge(
        &mut out,
        "pb_audit_failed_closed_total",
        "Queries computed but discarded unreleased (lifetime, audit log).",
        "counter",
        ctx.audit.failed_closed().to_string(),
    );
    gauge(
        &mut out,
        "pb_audit_wedged",
        "1 when the audit log failed closed (counters still advance in memory).",
        "gauge",
        u8::from(ctx.audit.is_wedged()).to_string(),
    );

    // Latency histograms, rendered from the hand-rolled fixed-bucket snapshots.
    render_histogram_family(
        &mut out,
        "pb_request_duration_seconds",
        "End-to-end request latency per op.",
        "op",
        &ctx.telemetry.op_snapshots(),
    );
    render_histogram_family(
        &mut out,
        "pb_stage_duration_seconds",
        "Per-stage duration within traced requests.",
        "stage",
        &ctx.telemetry.stage_snapshots(),
    );
    render_histogram_family(
        &mut out,
        "pb_fabric_rpc_duration_seconds",
        "Remote shard RPC latency per worker address.",
        "worker",
        &ctx.telemetry.fabric_snapshots(),
    );
    out
}

/// Renders one Prometheus histogram family: cumulative `_bucket` samples per label
/// (explicit `+Inf` last), then `_sum` and `_count`. Bucket bounds arrive in
/// microseconds and are exposed in seconds, the Prometheus base unit.
fn render_histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    label_key: &str,
    snapshots: &[(String, HistogramSnapshot)],
) {
    if snapshots.is_empty() {
        return;
    }
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (label_value, snap) in snapshots {
        let label_value = escape_label(label_value);
        for (bound_us, cumulative) in snap.bounds_us.iter().zip(&snap.cumulative) {
            out.push_str(&format!(
                "{name}_bucket{{{label_key}=\"{label_value}\",le=\"{}\"}} {cumulative}\n",
                format_value(*bound_us as f64 / 1e6),
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{{label_key}=\"{label_value}\",le=\"+Inf\"}} {}\n",
            snap.count
        ));
        out.push_str(&format!(
            "{name}_sum{{{label_key}=\"{label_value}\"}} {}\n",
            format_value(snap.sum_seconds())
        ));
        out.push_str(&format!(
            "{name}_count{{{label_key}=\"{label_value}\"}} {}\n",
            snap.count
        ));
    }
}

/// One per-dataset metric family: name, help, type, and `(label, value)` samples.
type MetricSeries = (
    &'static str,
    &'static str,
    &'static str,
    Vec<(String, String)>,
);

/// Prometheus sample formatting: finite values as-is, infinities as `+Inf`.
fn format_value(value: f64) -> String {
    if value == f64::INFINITY {
        "+Inf".to_string()
    } else {
        value.to_string()
    }
}

/// Escapes a label value per the Prometheus text format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Checks a Prometheus text-format exposition for structural validity: every family
/// declares `# HELP` and `# TYPE` at most once, every sample belongs to a declared
/// family (histogram samples via their `_bucket`/`_sum`/`_count` suffixes), label
/// blocks parse with proper escaping, and every histogram series has strictly
/// ascending `le` bounds, non-decreasing cumulative counts, a final `+Inf` bucket,
/// and `bucket{le="+Inf"} == _count`.
///
/// This is the contract `GET /metrics` promises scrapers; it is public so tests (unit,
/// property, and black-box integration) can hold every rendered exposition to it.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct Series {
        /// `(le, cumulative)` in file order.
        buckets: Vec<(f64, f64)>,
        sum: Option<f64>,
        count: Option<f64>,
    }
    let mut help_seen: BTreeMap<String, u32> = BTreeMap::new();
    let mut family_type: BTreeMap<String, String> = BTreeMap::new();
    let mut series: BTreeMap<(String, String), Series> = BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let fail = |msg: String| Err(format!("line {}: {msg}: `{line}`", idx + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some((name, help)) = rest.split_once(' ') else {
                return fail("HELP without text".to_string());
            };
            if help.is_empty() {
                return fail("HELP without text".to_string());
            }
            let seen = help_seen.entry(name.to_string()).or_insert(0);
            *seen += 1;
            if *seen > 1 {
                return fail(format!("duplicate # HELP for `{name}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let Some((name, kind)) = rest.split_once(' ') else {
                return fail("TYPE without kind".to_string());
            };
            if !matches!(kind, "gauge" | "counter" | "histogram") {
                return fail(format!("unknown metric type `{kind}`"));
            }
            if family_type
                .insert(name.to_string(), kind.to_string())
                .is_some()
            {
                return fail(format!("duplicate # TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample: `name value` or `name{key="value",...} value`.
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        let rest = &line[name_end..];
        let (labels, value_text) = if let Some(body) = rest.strip_prefix('{') {
            let Some(close) = find_label_block_end(body) else {
                return fail("unterminated label block".to_string());
            };
            let labels = match parse_label_block(&body[..close]) {
                Ok(l) => l,
                Err(e) => return fail(e),
            };
            (labels, body[close + 1..].trim_start())
        } else {
            (Vec::new(), rest.trim_start())
        };
        let value = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            other => match other.parse::<f64>() {
                Ok(v) => v,
                Err(_) => return fail(format!("unparseable sample value `{value_text}`")),
            },
        };
        // Resolve the declared family this sample belongs to.
        let family = if family_type.contains_key(name) {
            name.to_string()
        } else {
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .unwrap_or(name);
            if family_type.get(base).map(String::as_str) != Some("histogram") {
                return fail(format!("sample `{name}` has no # TYPE declaration"));
            }
            base.to_string()
        };
        if family_type[&family] == "histogram" {
            // Key the series on the label set minus `le`, in file label order.
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone());
            let key: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let entry = series.entry((family.clone(), key.join(","))).or_default();
            if let Some(suffix) = name.strip_prefix(family.as_str()) {
                match suffix {
                    "_bucket" => {
                        let Some(le) = le else {
                            return fail("histogram bucket without an `le` label".to_string());
                        };
                        let bound = match le.as_str() {
                            "+Inf" => f64::INFINITY,
                            other => match other.parse::<f64>() {
                                Ok(b) => b,
                                Err(_) => return fail(format!("unparseable le `{le}`")),
                            },
                        };
                        entry.buckets.push((bound, value));
                    }
                    "_sum" => entry.sum = Some(value),
                    "_count" => entry.count = Some(value),
                    _ => return fail(format!("unexpected histogram sample `{name}`")),
                }
            }
        }
    }
    for ((family, labels), s) in &series {
        let at = format!("histogram `{family}` series `{{{labels}}}`");
        let Some(&(last_le, last_count)) = s.buckets.last() else {
            return Err(format!("{at}: no buckets"));
        };
        for pair in s.buckets.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err(format!("{at}: le bounds not strictly ascending"));
            }
            if pair[1].1 < pair[0].1 {
                return Err(format!("{at}: cumulative bucket counts decrease"));
            }
        }
        if last_le != f64::INFINITY {
            return Err(format!("{at}: missing the +Inf bucket"));
        }
        match s.count {
            Some(count) if count == last_count => {}
            Some(_) => return Err(format!("{at}: +Inf bucket disagrees with _count")),
            None => return Err(format!("{at}: missing _count")),
        }
        if s.sum.is_none() {
            return Err(format!("{at}: missing _sum"));
        }
    }
    Ok(())
}

/// Index of the `}` closing a label block whose body starts at `body[0]`, honouring
/// backslash escapes inside quoted label values.
fn find_label_block_end(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Parses `key="value",key="value"` (the inside of a label block) into pairs,
/// validating label-name characters and string escapes.
fn parse_label_block(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=` in `{rest}`"))?;
        let key = &rest[..eq];
        if key.is_empty()
            || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            || key.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("invalid label name `{key}`"));
        }
        let value_and_on = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label `{key}` value is not quoted"))?;
        let mut end = None;
        let mut escaped = false;
        for (i, c) in value_and_on.char_indices() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("invalid escape `\\{c}` in label `{key}`"));
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                '\n' => return Err(format!("raw newline in label `{key}`")),
                _ => {}
            }
        }
        let end = end.ok_or_else(|| format!("unterminated value for label `{key}`"))?;
        labels.push((key.to_string(), value_and_on[..end].to_string()));
        rest = &value_and_on[end + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_request() {
        let raw = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"rest";
        let (request, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.target, "/v1/query");
        assert_eq!(request.path(), "/v1/query");
        assert_eq!(request.version, "HTTP/1.1");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body, b"{\"a\"");
        assert_eq!(consumed, raw.len() - 4);
        assert!(request.keep_alive());
    }

    #[test]
    fn incomplete_requests_ask_for_more() {
        assert_eq!(parse_request(b"").unwrap(), None);
        assert_eq!(parse_request(b"GET /metrics HTTP/1.1\r\n").unwrap(), None);
        // Head complete, body still short.
        assert_eq!(
            parse_request(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap(),
            None
        );
    }

    #[test]
    fn rejects_hopeless_requests() {
        for bad in [
            &b"FLAGRANT\r\n\r\n"[..],
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x FTP/1.0\r\n\r\n",
            b"G3T /x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"\xff\xfe\r\n\r\n",
        ] {
            assert!(parse_request(bad).is_err(), "should reject {bad:?}");
        }
        // A head that can never terminate is cut off at the cap.
        let runaway = vec![b'a'; MAX_HEAD_BYTES + 2];
        assert!(parse_request(&runaway).is_err());
    }

    #[test]
    fn connection_close_is_honoured() {
        let raw = b"GET /v1/status HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (request, _) = parse_request(raw).unwrap().unwrap();
        assert!(!request.keep_alive());
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        // A 1.0 client expects a close-delimited exchange; defaulting to keep-alive
        // would pin a pool worker until the idle timeout.
        let raw = b"GET /v1/status HTTP/1.0\r\n\r\n";
        let (request, _) = parse_request(raw).unwrap().unwrap();
        assert_eq!(request.version, "HTTP/1.0");
        assert!(!request.keep_alive());
        // … unless it explicitly opts in.
        let raw = b"GET /v1/status HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let (request, _) = parse_request(raw).unwrap().unwrap();
        assert!(request.keep_alive());
    }

    #[test]
    fn bearer_tokens_are_extracted() {
        let raw = b"POST /v1/admin/register HTTP/1.1\r\nAuthorization: Bearer s3cret\r\n\r\n";
        let (request, _) = parse_request(raw).unwrap().unwrap();
        assert_eq!(request.bearer_token(), Some("s3cret"));
        let raw = b"POST /x HTTP/1.1\r\nAuthorization: Basic abc\r\n\r\n";
        let (request, _) = parse_request(raw).unwrap().unwrap();
        assert_eq!(request.bearer_token(), None);
    }

    #[test]
    fn label_escaping_and_value_formatting() {
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(1.5), "1.5");
    }

    fn snapshot(bounds_us: &[u64], per_bucket: &[u64], sum_us: u64) -> HistogramSnapshot {
        assert_eq!(
            per_bucket.len(),
            bounds_us.len() + 1,
            "+Inf bucket included"
        );
        let mut cumulative = Vec::new();
        let mut running = 0;
        for &b in per_bucket {
            running += b;
            cumulative.push(running);
        }
        HistogramSnapshot {
            bounds_us: bounds_us.to_vec(),
            cumulative,
            count: running,
            sum_us,
        }
    }

    #[test]
    fn histogram_family_renders_the_golden_exposition() {
        let mut out = String::new();
        render_histogram_family(
            &mut out,
            "pb_request_duration_seconds",
            "End-to-end request latency per op.",
            "op",
            &[(
                "query".to_string(),
                snapshot(&[1_000, 10_000], &[2, 1, 1], 27_500),
            )],
        );
        let expected = "\
# HELP pb_request_duration_seconds End-to-end request latency per op.\n\
# TYPE pb_request_duration_seconds histogram\n\
pb_request_duration_seconds_bucket{op=\"query\",le=\"0.001\"} 2\n\
pb_request_duration_seconds_bucket{op=\"query\",le=\"0.01\"} 3\n\
pb_request_duration_seconds_bucket{op=\"query\",le=\"+Inf\"} 4\n\
pb_request_duration_seconds_sum{op=\"query\"} 0.0275\n\
pb_request_duration_seconds_count{op=\"query\"} 4\n";
        assert_eq!(out, expected);
        validate_prometheus(&out).unwrap();
        // An empty family renders nothing at all — no childless HELP/TYPE stanzas.
        let mut empty = String::new();
        render_histogram_family(&mut empty, "x", "h.", "op", &[]);
        assert_eq!(empty, "");
    }

    #[test]
    fn validator_accepts_wellformed_and_rejects_malformed_expositions() {
        validate_prometheus("# HELP a b\n# TYPE a counter\na 1\na{x=\"y\"} 2\n").unwrap();
        // Duplicate HELP / TYPE per family.
        assert!(validate_prometheus("# HELP a b\n# HELP a b\n").is_err());
        assert!(validate_prometheus("# TYPE a gauge\n# TYPE a gauge\n").is_err());
        // Samples must have a declared family; values must parse.
        assert!(validate_prometheus("orphan 1\n").is_err());
        assert!(validate_prometheus("# TYPE a gauge\na banana\n").is_err());
        // Unescaped quote and bad escape inside a label value.
        assert!(validate_prometheus("# TYPE a gauge\na{x=\"y\"z\"} 1\n").is_err());
        assert!(validate_prometheus("# TYPE a gauge\na{x=\"y\\q\"} 1\n").is_err());
        // Histogram invariants: +Inf required, cumulative monotone, _count agreement.
        let head = "# HELP h x\n# TYPE h histogram\n";
        assert!(validate_prometheus(&format!(
            "{head}h_bucket{{le=\"1\"}} 1\nh_sum 1\nh_count 1\n"
        ))
        .is_err());
        assert!(validate_prometheus(&format!(
            "{head}h_bucket{{le=\"1\"}} 2\nh_bucket{{le=\"+Inf\"}} 1\nh_sum 1\nh_count 1\n"
        ))
        .is_err());
        assert!(validate_prometheus(&format!(
            "{head}h_bucket{{le=\"1\"}} 1\nh_bucket{{le=\"+Inf\"}} 2\nh_sum 1\nh_count 3\n"
        ))
        .is_err());
        assert!(validate_prometheus(&format!(
            "{head}h_bucket{{le=\"1\"}} 1\nh_bucket{{le=\"+Inf\"}} 2\nh_count 2\n"
        ))
        .is_err());
        validate_prometheus(&format!(
            "{head}h_bucket{{le=\"1\"}} 1\nh_bucket{{le=\"+Inf\"}} 2\nh_sum 3\nh_count 2\n"
        ))
        .unwrap();
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Biased toward the characters the escaper must handle, plus benign filler.
        const LABEL_CHARSET: &[char] = &[
            '"', '\\', '\n', ',', '=', '{', '}', 'a', 'b', '0', ' ', 'é', '−',
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any label value — quotes, backslashes, newlines, unicode — renders to an
            /// exposition the validator accepts: escaping is total, buckets stay
            /// cumulative, and `+Inf` always equals `_count`.
            #[test]
            fn rendered_histograms_are_always_valid(
                label_chars in proptest::collection::vec(0usize..LABEL_CHARSET.len(), 0..24),
                bounds in proptest::collection::vec(1u64..1_000_000, 1..6),
                per_bucket in proptest::collection::vec(0u64..50, 7..8),
                sum_us in 0u64..10_000_000,
            ) {
                let label: String = label_chars.iter().map(|&i| LABEL_CHARSET[i]).collect();
                let mut bounds = bounds;
                bounds.sort_unstable();
                bounds.dedup();
                let snap = snapshot(&bounds, &per_bucket[..bounds.len() + 1], sum_us);
                let mut out = String::new();
                render_histogram_family(
                    &mut out,
                    "pb_stage_duration_seconds",
                    "Per-stage duration.",
                    "stage",
                    &[
                        // `.` in the strategy never generates a newline, so pin one
                        // series to the full rogue's gallery of escapables.
                        ("quote\" slash\\ newline\n".to_string(), snap.clone()),
                        (label, snap),
                    ],
                );
                prop_assert!(validate_prometheus(&out).is_ok(), "invalid: {out}");
            }
        }
    }
}

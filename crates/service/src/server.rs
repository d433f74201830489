//! The server: a fixed worker pool serving the versioned wire protocol over TCP, and —
//! when configured — the HTTP/1.1 gateway on a second port.
//!
//! The accept loops push connections into an [`mpsc`] channel; `threads` workers pull
//! from it behind a shared mutex and run whole connections to completion (a connection
//! may issue many requests). Both transports dispatch into the same op handlers
//! ([`execute`]), so a query, status, or admin op behaves identically — and releases
//! byte-identical pinned-seed output — whether it arrived as a legacy v1 line, a v2
//! envelope, or an HTTP request. All dataset state lives in the shared
//! [`DatasetRegistry`] — workers hold `Arc<DatasetEntry>` clones for the duration of one
//! query, so a slow query never pins the registry lock, and the per-dataset
//! [`BudgetLedger`](pb_dp::BudgetLedger) makes concurrent spending race-free.
//!
//! Admin ops (`register`/`unregister`/`reshard`) are gated by
//! [`ServiceConfig::admin_token`]: a request must present the exact bearer token (v2
//! envelope `auth` field, or HTTP `Authorization: Bearer`), compared in constant time.
//! Without a configured token the admin surface is disabled entirely.
//!
//! Shutdown is cooperative: a `shutdown` request sets a flag and pokes the listeners
//! with wake-up connections; the accept loops exit, the channel closes, and workers
//! drain whatever was already queued before returning.

use crate::audit_log::{seed_hash, AuditLog, AuditOutcome, AuditRecord};
use crate::http::serve_http;
use crate::protocol::{
    dataset_status, query_reply, AdminReply, Envelope, ErrorCode, Op, PerturbRequest, QueryRequest,
    RegisterSource, Response, ServerInfo, StatusReply, WireError, PROTOCOL_VERSION,
};
use crate::registry::{
    channel_params, DataSource, DatasetRegistry, Mode, RegisterSpec, RegistryError,
};
use crate::telemetry::{PhaseBridge, ReqTrace};
use pb_core::{CountTransform, NoopObserver, PhaseObserver, PrivBasis, PrivBasisParams};
use pb_dp::{DpError, Epsilon};
use pb_fim::TransactionDb;
use pb_ldp::LdpChannel;
use pb_proto::{write_line, AuditSummary};
use pb_trace::Span;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker-pool size. The default honours the workspace-wide `PB_NUM_THREADS`
    /// convention via [`pb_fim::index::available_parallelism`].
    pub threads: usize,
    /// PrivBasis parameters applied to every query.
    pub params: PrivBasisParams,
    /// Per-connection request deadline: a connection that does not *complete* a request
    /// for this long is closed. The clock resets only when a full request line has been
    /// handled — trickling bytes (slowloris) does not extend it.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline: a client that accepts no response bytes for this
    /// long (dead peer, full socket buffer it never drains) loses the connection
    /// instead of pinning a worker in `write`.
    pub write_timeout: Option<Duration>,
    /// Admission cap: connections in flight (queued plus being served) at once. Accepts
    /// beyond the cap are shed immediately with a structured `unavailable` response
    /// (HTTP: `503` + `Retry-After`) so overload degrades loudly instead of queueing
    /// without bound.
    pub max_pending: usize,
    /// Bearer token gating the admin ops. `None` disables the admin surface: every
    /// `register`/`unregister`/`reshard` is rejected with `unauthorized`.
    pub admin_token: Option<String>,
    /// Port for the HTTP/1.1 gateway (0 lets the OS pick; `None` disables HTTP). Bound
    /// on the same address as the TCP listener.
    pub http_port: Option<u16>,
    /// Run as a shard worker: serve shard-local count ops (`shard_load`,
    /// `shard_supports`, `shard_pairs`, `shard_histograms`) seeded by a remote
    /// coordinator, refuse queries and admin ops. A worker holds no datasets, draws
    /// no noise, and spends no ε — the coordinator does all of that after merging
    /// the exact per-shard counts (see [`crate::worker`]).
    pub worker: bool,
    /// Slow-query threshold: a request slower than this end-to-end gets its whole
    /// span tree logged as one JSON line on stderr. `None` disables the log.
    /// Tracing itself (the ring, the histograms, `GET /v1/trace/{id}`) is always
    /// on — it is passive and invisible in released bytes.
    pub slow_query: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: pb_fim::index::available_parallelism().max(1),
            params: PrivBasisParams::default(),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_pending: 1024,
            admin_token: None,
            http_port: None,
            worker: false,
            slow_query: Some(Duration::from_secs(1)),
        }
    }
}

/// A bound-but-not-yet-running server.
pub struct PbServer {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    registry: Arc<DatasetRegistry>,
    config: ServiceConfig,
}

/// State shared by the accept loops and every worker.
pub(crate) struct ServerCtx {
    pub(crate) registry: Arc<DatasetRegistry>,
    params: PrivBasisParams,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    /// Source of per-query seeds when the client does not pin one.
    seed_counter: AtomicU64,
    admin_token: Option<String>,
    start: Instant,
    read_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    max_pending: usize,
    pub(crate) requests_total: AtomicU64,
    pub(crate) rejected_total: AtomicU64,
    /// Connections shed at accept because the admission cap was reached.
    pub(crate) shed_total: AtomicU64,
    /// Connections closed because a read or write deadline expired.
    pub(crate) deadline_closed_total: AtomicU64,
    /// Connections admitted and not yet finished (queued + being served).
    in_flight: AtomicUsize,
    /// Connections sitting in the worker channel right now (new or parked). Non-zero
    /// tells a serving worker to rotate quickly instead of camping on an idle client.
    queued: AtomicUsize,
    /// True when this server is a shard worker (see [`ServiceConfig::worker`]).
    worker: bool,
    /// The shard-worker mode's shard table (empty and untouched on a coordinator).
    shard_store: Mutex<crate::worker::ShardStore>,
    /// Trace ring, latency histograms, and the slow-query log (see
    /// [`crate::telemetry`]).
    pub(crate) telemetry: Arc<crate::telemetry::Telemetry>,
    /// The durable ε-audit log (in-memory counters when no state dir is configured).
    pub(crate) audit: Arc<AuditLog>,
}

impl ServerCtx {
    /// Seconds since the server started (status op and /metrics).
    pub(crate) fn uptime_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Admission control: reserves an in-flight slot, or refuses at the cap.
    fn admit(&self) -> bool {
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.max_pending).then_some(n + 1)
            })
            .is_ok()
    }

    /// Releases the slot [`ServerCtx::admit`] reserved, once a connection is done.
    fn conn_done(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One queued connection, tagged with the protocol its listener speaks.
enum Conn {
    Line(LineConn),
    Http(TcpStream),
}

/// A line-protocol connection together with its request-deadline clock, so it can be
/// parked back into the queue between requests without losing the deadline.
struct LineConn {
    stream: TcpStream,
    /// When this connection last completed a request (accept time before the first).
    last_done: Instant,
}

/// What became of one scheduling turn on a connection.
enum Served {
    /// The connection is finished (EOF, deadline, shutdown, or a handled error).
    Done,
    /// The connection is idle between requests; it goes back to the queue so the
    /// worker can serve someone else (the readiness rotation that keeps a small pool
    /// live under many long-lived idle connections).
    Parked(LineConn),
}

impl PbServer {
    /// Binds to `addr` (use port 0 to let the OS pick a free port for tests). When
    /// [`ServiceConfig::http_port`] is set, the HTTP gateway is bound on the same IP.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<DatasetRegistry>,
        config: ServiceConfig,
    ) -> std::io::Result<PbServer> {
        let listener = TcpListener::bind(addr)?;
        let http_listener = match config.http_port {
            None => None,
            Some(port) => Some(TcpListener::bind((listener.local_addr()?.ip(), port))?),
        };
        Ok(PbServer {
            listener,
            http_listener,
            registry,
            config,
        })
    }

    /// The bound TCP address (port resolved when binding to port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound HTTP gateway address, when one is configured.
    pub fn http_addr(&self) -> Option<std::io::Result<SocketAddr>> {
        self.http_listener.as_ref().map(TcpListener::local_addr)
    }

    /// Serves until a client sends a `shutdown` op. Blocks the calling thread; run it
    /// on a dedicated thread if the caller needs to keep going.
    pub fn run(self) -> std::io::Result<()> {
        let local_addr = self.listener.local_addr()?;
        let http_addr = match &self.http_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let threads = self.config.threads.max(1);
        // Seed base: wall-clock nanos so two server runs don't replay the same noise for
        // clients that omit `seed`; clients that need reproducibility pass their own.
        let seed_base = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        let telemetry = Arc::new(crate::telemetry::Telemetry::new(self.config.slow_query));
        // Retroactively installs the RPC observer on every sharded dataset's fabric
        // (and remembers it for datasets registered later), so per-worker latency
        // histograms and trace-routed `shard_rpc` spans cover the whole fleet.
        self.registry
            .set_fabric_observer(Arc::new(crate::telemetry::FabricBridge {
                telemetry: Arc::clone(&telemetry),
            }));
        // The audit log lives beside the journals in the state dir; without one it
        // degrades to in-process counters. Opening replays lifetime totals, then each
        // dataset's replayed released-ε is reconciled against its journal — the journal
        // is written before release, so after a crash between debit commit and audit
        // append, or a power loss that took the audit log's unflushed tail, the missing
        // ε is re-carried as a `reconciled` record.
        let audit = Arc::new(match self.registry.state_path() {
            Some(dir) => AuditLog::open(dir)?,
            None => AuditLog::in_memory(),
        });
        for name in self.registry.names() {
            if let Some(entry) = self.registry.get(&name) {
                // LDP entries have no ledger (so nothing to reconcile) and no
                // journal (so `is_durable` is false); both gates skip them.
                if entry.is_durable() {
                    if let Some(ledger) = entry.ledger() {
                        audit.reconcile(&name, ledger.spent(), AuditLog::now_ms());
                    }
                }
            }
        }
        let ctx = Arc::new(ServerCtx {
            registry: Arc::clone(&self.registry),
            params: self.config.params.clone(),
            shutdown: AtomicBool::new(false),
            local_addr,
            http_addr,
            seed_counter: AtomicU64::new(seed_base),
            admin_token: self.config.admin_token.clone(),
            start: Instant::now(),
            read_timeout: self.config.read_timeout,
            write_timeout: self.config.write_timeout,
            max_pending: self.config.max_pending.max(1),
            requests_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            deadline_closed_total: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            worker: self.config.worker,
            shard_store: Mutex::new(crate::worker::ShardStore::new()),
            telemetry,
            audit,
        });

        let (sender, receiver) = channel::<Conn>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers: Vec<std::thread::JoinHandle<()>> = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                let ctx = Arc::clone(&ctx);
                // Workers keep a sender so idle connections can be parked back into
                // the queue; they exit on the shutdown flag, not on channel close.
                let sender = sender.clone();
                std::thread::spawn(move || worker_loop(&receiver, &ctx, &sender))
            })
            .collect();

        // The HTTP accept loop runs beside the TCP one, feeding the same worker pool.
        let http_thread = self.http_listener.map(|listener| {
            let sender = sender.clone();
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if ctx.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            if !ctx.admit() {
                                shed_http(stream, &ctx);
                                continue;
                            }
                            set_nodelay(&stream);
                            ctx.queued.fetch_add(1, Ordering::SeqCst);
                            if sender.send(Conn::Http(stream)).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
            })
        });

        for stream in self.listener.incoming() {
            if ctx.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                // A closed channel means every worker is gone; stop accepting.
                Ok(stream) => {
                    if !ctx.admit() {
                        shed_line(stream, &ctx);
                        continue;
                    }
                    set_nodelay(&stream);
                    ctx.queued.fetch_add(1, Ordering::SeqCst);
                    let conn = LineConn {
                        stream,
                        last_done: Instant::now(),
                    };
                    if sender.send(Conn::Line(conn)).is_err() {
                        break;
                    }
                }
                // Transient accept failures (e.g. aborted handshakes) are not fatal.
                Err(_) => continue,
            }
        }
        drop(sender);
        if let Some(http_thread) = http_thread {
            let _ = http_thread.join();
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// How often an idle connection wakes up to check the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Read-poll interval while other connections are waiting on the pool: the worker
/// gives an idle connection only this long before parking it and serving the next one,
/// so a handful of long-lived idle clients cannot starve a small pool.
const FAST_POLL: Duration = Duration::from_millis(5);

/// How long a shed response may block before the connection is abandoned outright.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// Turns Nagle off on an admitted connection. Every reply already leaves in one write
/// (one line, or one HTTP head+body buffer), so coalescing has nothing to gain and
/// would only hold a reply's tail until the client's delayed ACK (40 ms on Linux).
/// Best effort: a socket that refuses the option still serves correctly.
fn set_nodelay(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
}

/// Sheds one line-protocol connection at accept: best effort structured refusal (v1
/// shape — the request was never read, so there is no id to echo), then close.
fn shed_line(mut stream: TcpStream, ctx: &ServerCtx) {
    ctx.shed_total.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let response = Response::Error(WireError::new(
        ErrorCode::Unavailable,
        "server is at capacity (max-pending reached); retry after a short backoff",
    ))
    .encode(1, None);
    let _ = write_line(&mut stream, &response);
}

/// Sheds one HTTP connection at accept: `503` with `Retry-After`, then close.
fn shed_http(mut stream: TcpStream, ctx: &ServerCtx) {
    ctx.shed_total.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let body =
        r#"{"status":"error","code":"unavailable","error":"server is at capacity; retry shortly"}"#;
    let response = format!(
        "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Pulls connections until shutdown. Parked (idle) connections are re-queued so the
/// pool round-robins over everything admitted; the worker exits once the shutdown flag
/// is up and the queue has drained (or the channel closed underneath it).
fn worker_loop(receiver: &Mutex<Receiver<Conn>>, ctx: &ServerCtx, sender: &Sender<Conn>) {
    loop {
        let conn = {
            let guard = receiver.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv_timeout(POLL_INTERVAL)
        };
        match conn {
            Ok(conn) => {
                ctx.queued.fetch_sub(1, Ordering::SeqCst);
                // Connection-level IO errors (client vanished, timeout) only kill this
                // connection, never the worker — and neither does a panic anywhere in the
                // request path (a poisoned pool would shrink by one worker per bad
                // request, a trivial remote DoS).
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match conn {
                        Conn::Line(conn) => serve_connection(conn, ctx),
                        Conn::Http(stream) => {
                            serve_http(stream, ctx, ctx.read_timeout).map(|()| Served::Done)
                        }
                    }));
                match outcome {
                    Ok(Ok(Served::Parked(conn))) if !is_shutting_down(ctx) => {
                        ctx.queued.fetch_add(1, Ordering::SeqCst);
                        if sender.send(Conn::Line(conn)).is_err() {
                            ctx.queued.fetch_sub(1, Ordering::SeqCst);
                            ctx.conn_done();
                        }
                    }
                    _ => ctx.conn_done(),
                }
            }
            // Queue empty right now: this is also the drain condition — once shutdown
            // is initiated, whatever was already queued keeps getting served above,
            // and the worker leaves only when a whole poll interval found nothing.
            Err(RecvTimeoutError::Timeout) => {
                if is_shutting_down(ctx) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Hard cap on one request line; a client exceeding it loses the connection. Far above
/// any legitimate request (a query is < 200 bytes) but small enough that hostile clients
/// cannot grow worker memory without bound.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Runs one scheduling turn on a connection: requests in, responses out, until EOF, a
/// deadline, server shutdown — or the connection goes idle between requests, in which
/// case it is handed back ([`Served::Parked`]) for the pool to rotate. Reads poll (at
/// [`FAST_POLL`] while others wait, [`POLL_INTERVAL`] otherwise) so a worker parked on
/// an idle client still notices the shutdown flag promptly.
fn serve_connection(conn: LineConn, ctx: &ServerCtx) -> std::io::Result<Served> {
    let LineConn {
        mut stream,
        mut last_done,
    } = conn;
    stream.set_write_timeout(ctx.write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line: Vec<u8> = Vec::new();
    loop {
        // Rotate fast when the queue is non-empty: camping a full poll interval on an
        // idle connection while admitted work waits is exactly the starvation a small
        // pool must avoid.
        let wait = if ctx.queued.load(Ordering::SeqCst) > 0 {
            FAST_POLL
        } else {
            POLL_INTERVAL
        };
        reader.get_ref().set_read_timeout(Some(wait))?;
        // Chunked read via fill_buf/consume rather than `read_line`: read_line only
        // returns at a newline/EOF/error, so a client streaming a newline-free body
        // would pin this worker past both the request deadline and the shutdown flag
        // while `line` grew without bound. Here every buffered chunk re-checks the caps.
        match reader.fill_buf() {
            Ok([]) => return Ok(Served::Done), // EOF: client closed cleanly.
            Ok(buf) => {
                let (chunk, found_newline) = match buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => (&buf[..pos], true),
                    None => (buf, false),
                };
                line.extend_from_slice(chunk);
                let consumed = chunk.len() + usize::from(found_newline);
                reader.consume(consumed);
                if line.len() > MAX_REQUEST_BYTES {
                    // Bypasses dispatch(), so count the rejection here — the abuse
                    // counters must see over-long lines like any other bad request.
                    ctx.requests_total.fetch_add(1, Ordering::Relaxed);
                    ctx.rejected_total.fetch_add(1, Ordering::Relaxed);
                    let response = Response::Error(WireError::malformed("request line too long"))
                        .encode(1, None);
                    write_line(&mut stream, &response)?;
                    return Ok(Served::Done);
                }
                if !found_newline {
                    continue;
                }
                pb_fault::inject!("conn.read")?;
                let request = String::from_utf8_lossy(&line);
                let trimmed = request.trim();
                if !trimmed.is_empty() {
                    let (response, shutdown) = dispatch(trimmed, ctx);
                    let written = pb_fault::inject!("conn.write")
                        .and_then(|()| write_line(&mut stream, &response));
                    if let Err(e) = written {
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                            // The peer accepted no bytes for the whole write deadline.
                            ctx.deadline_closed_total.fetch_add(1, Ordering::Relaxed);
                        }
                        return Err(e);
                    }
                    if shutdown {
                        initiate_shutdown(ctx);
                        return Ok(Served::Done);
                    }
                }
                line.clear();
                last_done = Instant::now();
            }
            // Poll tick: `line` may hold a partial request — keep accumulating into it.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return Ok(Served::Done);
                }
                // The deadline clock runs from the last *completed* request: trickled
                // partial bytes never reset it, so slowloris clients get cut off.
                if ctx
                    .read_timeout
                    .is_some_and(|limit| last_done.elapsed() >= limit)
                {
                    ctx.deadline_closed_total.fetch_add(1, Ordering::Relaxed);
                    return Ok(Served::Done);
                }
                // Idle between requests (nothing buffered anywhere): park, so the
                // worker can serve whoever is waiting. Mid-request we must keep the
                // reader — parking would drop its buffered bytes.
                if line.is_empty() && reader.buffer().is_empty() {
                    drop(reader);
                    return Ok(Served::Parked(LineConn { stream, last_done }));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Parses and executes one request line; the bool asks the caller to begin shutdown.
///
/// The envelope decides the response shape: legacy lines get the frozen v1 bytes, v2
/// envelopes get `v`/`id`/`code` fields. The op handlers are version-blind.
fn dispatch(line: &str, ctx: &ServerCtx) -> (String, bool) {
    ctx.requests_total.fetch_add(1, Ordering::Relaxed);
    let arrived_us = ctx.telemetry.now_us();
    match Envelope::parse(line) {
        Err(failure) => {
            ctx.rejected_total.fetch_add(1, Ordering::Relaxed);
            (
                Response::Error(failure.error).encode(failure.v, failure.id.as_deref()),
                false,
            )
        }
        Ok(envelope) => {
            // The envelope's correlation id doubles as the trace id (so a client can
            // fetch its own trace by the id it chose); id-less requests get a
            // server-assigned one, visible in the slow-query log and /metrics only.
            let parsed_us = ctx.telemetry.now_us();
            let trace_id = envelope
                .id
                .clone()
                .unwrap_or_else(|| ctx.telemetry.assign_id());
            let req = ReqTrace::begin(
                Arc::clone(&ctx.telemetry),
                trace_id,
                envelope.op.name(),
                arrived_us,
            );
            req.add_span(Span::new("parse", arrived_us, parsed_us));
            let (response, shutdown) =
                execute(&envelope.op, envelope.auth.as_deref(), ctx, Some(&req));
            if response.is_error() {
                ctx.rejected_total.fetch_add(1, Ordering::Relaxed);
            }
            let encode_started = req.now_us();
            let encoded = response.encode(envelope.v, envelope.id.as_deref());
            req.span_since("encode", encode_started);
            if let Response::Error(e) = &response {
                req.set_outcome(format!("error:{}", e.code.as_str()));
            }
            req.finish();
            (encoded, shutdown)
        }
    }
}

/// Executes one op against the shared state. Both transports call this — TCP with the
/// envelope's `auth` field, HTTP with the `Authorization: Bearer` token — so behaviour
/// can never drift between them. The bool asks the caller to begin shutdown.
pub(crate) fn execute(
    op: &Op,
    auth: Option<&str>,
    ctx: &ServerCtx,
    trace: Option<&ReqTrace>,
) -> (Response, bool) {
    match op {
        Op::Status => (status(ctx), false),
        // The acknowledgement waits for the audit log's pending lines to be durable,
        // so a client that saw it can cut the power.
        Op::Shutdown => {
            ctx.audit.flush();
            (Response::Shutdown, true)
        }
        // Trace lookup is served on coordinators AND shard workers (a worker records
        // its shard-op traces too): purely observational, never touches a ledger.
        Op::Trace { id } => {
            let response = match ctx.telemetry.get_trace(id) {
                Some(trace) => Response::Trace(trace),
                None => Response::Error(WireError::new(
                    ErrorCode::Unavailable,
                    format!(
                        "no recorded trace with id `{id}` — traces live in a bounded \
                         in-memory ring and are evicted by newer requests"
                    ),
                )),
            };
            (response, false)
        }
        // The shard-fabric surface: a worker serves the count ops, a coordinator
        // refuses them (its shards are driven from the inside, never over the wire).
        op if op.is_shard_op() => {
            let response = if ctx.worker {
                crate::worker::run_shard_op(op, &ctx.shard_store)
            } else {
                Response::Error(WireError::new(
                    ErrorCode::Unavailable,
                    "shard ops are served only by shard workers \
                     (start one with `privbasis-cli shard-worker`)",
                ))
            };
            (response, false)
        }
        // A shard worker's only other surfaces are status and shutdown: it holds no
        // datasets to query and no registry to administer.
        _ if ctx.worker => (
            Response::Error(WireError::new(
                ErrorCode::Unavailable,
                "this is a shard worker: it serves shard ops, status, and shutdown; \
                 send queries and admin ops to the coordinator",
            )),
            false,
        ),
        Op::Query(query) => (run_query(query, ctx, trace), false),
        // Perturbation is a client-side helper the server also offers (e.g. for
        // clients without the mechanism crate): it randomizes rows under the
        // dataset's registered channel and returns them. Not an admin op — it
        // touches no registry state and spends nothing — so it routes before the
        // admin catch-all below.
        Op::Perturb(request) => (run_perturb(request, ctx), false),
        admin => {
            // Auth first, with nothing touched on failure: a rejected admin op must
            // leave the registry and the manifest exactly as they were.
            let response = match authorize(auth, ctx) {
                Err(e) => Response::Error(e),
                Ok(()) => run_admin(admin, ctx),
            };
            (response, false)
        }
    }
}

/// Checks the admin bearer token in constant time.
fn authorize(auth: Option<&str>, ctx: &ServerCtx) -> Result<(), WireError> {
    let Some(expected) = &ctx.admin_token else {
        return Err(WireError::new(
            ErrorCode::Unauthorized,
            "admin operations are disabled: the server was started without --admin-token",
        ));
    };
    match auth {
        Some(token) if constant_time_eq(token.as_bytes(), expected.as_bytes()) => Ok(()),
        _ => Err(WireError::new(
            ErrorCode::Unauthorized,
            "admin operations require the server's bearer token",
        )),
    }
}

/// Byte comparison without early exit, so response timing does not leak how much of a
/// guessed token matched. (Length still short-circuits; token length is not secret.)
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Runs an (already authorized) admin op.
fn run_admin(op: &Op, ctx: &ServerCtx) -> Response {
    let result = match op {
        Op::Register(r) => r
            .budget
            .map_or(Ok(Epsilon::Infinite), Epsilon::new)
            .map_err(|e| WireError::malformed(e.to_string()))
            .and_then(|total| {
                admin_register(&r.name, &r.source, r.shards, Mode::Central(total), ctx)
            }),
        Op::RegisterLdp(r) => LdpChannel::new(
            r.params.epsilon_local,
            r.params.universe,
            r.params.pad as usize,
        )
        .map_err(|e| WireError::malformed(e.to_string()))
        .and_then(|channel| admin_register(&r.name, &r.source, r.shards, Mode::Ldp(channel), ctx)),
        Op::SnapshotEvery { every } => match u32::try_from(*every) {
            Err(_) => Err(WireError::malformed("snapshot cadence exceeds u32")),
            Ok(every) => ctx
                .registry
                .set_snapshot_every(every)
                .map(|()| AdminReply::SnapshotEvery {
                    every: ctx.registry.snapshot_every().unwrap_or(every) as u64,
                })
                .map_err(registry_error),
        },
        Op::Consistency { name, enabled } => ctx
            .registry
            .set_consistency(name, *enabled)
            .map(|entry| AdminReply::Consistency {
                name: entry.name().to_string(),
                enabled: entry.consistency_enabled(),
            })
            .map_err(registry_error),
        Op::Unregister { name } => ctx
            .registry
            .unregister(name)
            .map(|entry| AdminReply::Unregistered {
                name: entry.name().to_string(),
            })
            .map_err(registry_error),
        Op::Reshard { name, shards } => ctx
            .registry
            .reshard(name, *shards)
            .map(|entry| AdminReply::Resharded {
                name: entry.name().to_string(),
                shards: entry.shards() as u64,
            })
            .map_err(registry_error),
        Op::Faults { spec } => run_faults(spec),
        // `execute` routes only admin ops here; a mis-route is a server bug and
        // is reported as such, not panicked (a panicked worker sheds the
        // connection with no diagnosis for the client).
        _ => Err(WireError::new(
            ErrorCode::Internal,
            "non-admin op routed to the admin handler",
        )),
    };
    match result {
        Ok(reply) => Response::Admin(reply),
        Err(e) => Response::Error(e),
    }
}

/// Registers a dataset for either register op (each maps to one [`RegisterSpec`]).
/// The reply follows the mode: a central entry reports its ledger, an LDP entry —
/// which has none, its contributors' ε_local was spent client-side — its channel.
fn admin_register(
    name: &str,
    source: &RegisterSource,
    shards: Option<usize>,
    mode: Mode,
    ctx: &ServerCtx,
) -> Result<AdminReply, WireError> {
    let source = match source {
        RegisterSource::Path(path) => DataSource::File(path.clone()),
        RegisterSource::Rows(rows) => {
            DataSource::Rows(TransactionDb::from_transactions(rows.clone()))
        }
    };
    let entry = ctx
        .registry
        .register_spec(RegisterSpec {
            shards,
            ..RegisterSpec::with_mode(name, source, mode)
        })
        .map_err(registry_error)?;
    let (name, transactions, shards) = (
        entry.name().to_string(),
        entry.transactions() as u64,
        entry.shards() as u64,
    );
    Ok(match entry.ldp_channel() {
        Some(channel) => AdminReply::RegisteredLdp {
            name,
            transactions,
            shards,
            params: channel_params(channel),
        },
        None => AdminReply::Registered {
            name,
            transactions,
            shards,
            durable: entry.is_durable(),
            // Non-zero when the name inherited a durable ledger: the caller learns
            // immediately that this budget has history. (A central entry always has
            // a ledger; the fallback keeps the seam honest rather than panicking a
            // worker.)
            epsilon_spent: entry.ledger().map_or(0.0, |ledger| ledger.spent()),
        },
    })
}

/// Pushes raw rows through a registered LDP dataset's channel. Spends nothing and
/// mutates nothing — the caller gets back what its clients would have sent had they
/// perturbed locally — so the op is not admin-gated. Refused with `mode_mismatch`
/// against a central dataset: its rows are protected by the server-side ledger, and
/// "perturbing" under a channel it was never registered with would be meaningless.
fn run_perturb(request: &PerturbRequest, ctx: &ServerCtx) -> Response {
    let Some(entry) = ctx.registry.get(&request.dataset) else {
        return Response::Error(WireError::new(
            ErrorCode::UnknownDataset,
            format!("unknown dataset `{}`", request.dataset),
        ));
    };
    let Some(channel) = entry.ldp_channel().copied() else {
        return Response::Error(WireError::new(
            ErrorCode::ModeMismatch,
            format!(
                "dataset `{}` serves the central workload class — `perturb` needs a \
                 dataset registered with `register_ldp`",
                request.dataset
            ),
        ));
    };
    // Same 53-bit mask as the query path, for the same reason: the echoed seed must
    // survive the f64 JSON round trip exactly.
    let seed = request
        .seed
        .unwrap_or_else(|| ctx.seed_counter.fetch_add(1, Ordering::Relaxed) & ((1 << 53) - 1));
    // audit:allow(noise-seam): RNG construction only — the randomized-response draws happen inside pb-ldp
    let mut rng = StdRng::seed_from_u64(seed);
    Response::Perturbed {
        rows: channel.perturb_rows(&mut rng, &request.rows),
        seed,
    }
}

/// Arms (non-empty spec) or clears (empty spec) the process-wide fault-injection
/// plans. Only servers built with the `fault-inject` feature carry the registry; a
/// default build refuses with `unavailable` so chaos tooling fails loudly instead of
/// silently testing nothing.
fn run_faults(spec: &str) -> Result<AdminReply, WireError> {
    if !pb_fault::is_compiled() {
        return Err(WireError::new(
            ErrorCode::Unavailable,
            "fault injection is not compiled into this server \
             (rebuild with `--features fault-inject`)",
        ));
    }
    if spec.trim().is_empty() {
        pb_fault::clear();
        return Ok(AdminReply::FaultsArmed {
            spec: String::new(),
            armed: 0,
        });
    }
    match pb_fault::arm(spec) {
        Ok(armed) => Ok(AdminReply::FaultsArmed {
            spec: spec.to_string(),
            armed: armed as u64,
        }),
        Err(e) => Err(WireError::malformed(format!("invalid fault spec: {e}"))),
    }
}

/// Maps registry failures onto wire codes (one table, shared by both transports).
fn registry_error(e: RegistryError) -> WireError {
    let code = match &e {
        RegistryError::DuplicateName(_) | RegistryError::Mismatch(_) => ErrorCode::Conflict,
        RegistryError::EmptyDataset(_)
        | RegistryError::InvalidName(_)
        | RegistryError::InvalidShards { .. } => ErrorCode::Malformed,
        RegistryError::NotFound(_) => ErrorCode::UnknownDataset,
        RegistryError::ModeMismatch(_) => ErrorCode::ModeMismatch,
        RegistryError::Io(_) | RegistryError::Source(_) => ErrorCode::Unavailable,
    };
    WireError::new(code, e.to_string())
}

/// Appends one query outcome to the ε-audit log. The seed travels hashed, never raw
/// (a logged seed would let an audit reader re-derive the released noise). `epsilon`
/// is the ε the outcome is about: the requested spend for a central query, 0 for an
/// LDP query — LDP mining is post-processing and must never inflate the audited
/// central totals.
///
/// A traced request records the append as its `audit` stage: the write only, since
/// the background flusher makes the line durable off the reply path.
fn audit_query(
    ctx: &ServerCtx,
    trace: Option<&ReqTrace>,
    query: &QueryRequest,
    epsilon: f64,
    seed: u64,
    outcome: AuditOutcome,
) {
    let started = ctx.telemetry.now_us();
    ctx.audit.append(&AuditRecord {
        trace: trace
            .map(|t| t.id().to_string())
            .unwrap_or_else(|| "-".to_string()),
        dataset: query.dataset.clone(),
        epsilon,
        k: query.k as u64,
        seed_hash: seed_hash(seed),
        outcome,
        ts_ms: AuditLog::now_ms(),
    });
    if let Some(req) = trace {
        req.span_since("audit", started);
    }
}

/// The query path: admission → cached context → PrivBasis → fabric check → ledger
/// debit → audit → response. The mechanism runs before the debit, so an answer
/// discarded on a remote-shard failure spends no ε; nothing is released unless the
/// debit succeeds.
///
/// Tracing here is strictly passive: span boundaries are read off the telemetry clock
/// *around* the existing calls, the RNG and every count are untouched, and the same
/// `run_shared` mechanism executes whether or not a trace rides along (the observed
/// variant differs only in reporting — asserted byte-identical by the pb-core
/// `observe` tests and `crates/service/tests/observability.rs::
/// trace_op_returns_the_span_tree_and_never_perturbs_release_bytes`).
fn run_query(query: &QueryRequest, ctx: &ServerCtx, trace: Option<&ReqTrace>) -> Response {
    if let Some(req) = trace {
        req.set_dataset(&query.dataset);
    }
    let admission_started = ctx.telemetry.now_us();
    let Some(entry) = ctx.registry.get(&query.dataset) else {
        return Response::Error(WireError::new(
            ErrorCode::UnknownDataset,
            format!("unknown dataset `{}`", query.dataset),
        ));
    };
    // Masked to 53 bits so the seed echoed in the response survives the f64 JSON round
    // trip exactly — an unreproducible echoed seed would defeat its purpose.
    let seed = query
        .seed
        .unwrap_or_else(|| ctx.seed_counter.fetch_add(1, Ordering::Relaxed) & ((1 << 53) - 1));
    // A dataset with a wedged journal cannot make a debit durable, and an ε released
    // without a durable record could be under-counted after a crash — refuse up front
    // with the structured code retrying clients key on. Status keeps serving. (A
    // fabric-degraded dataset is NOT refused here: attempting the query is exactly how
    // a recovered worker heals — the fail-closed check below catches live failures.)
    if entry.journal_wedged() {
        audit_query(
            ctx,
            trace,
            query,
            query.epsilon,
            seed,
            AuditOutcome::Refused,
        );
        return Response::Error(WireError::new(
            ErrorCode::Unavailable,
            format!(
                "dataset `{}` is degraded (its journal failed closed): serving status \
                 only, refusing ε-spending queries until the server is restarted",
                query.dataset
            ),
        ));
    }
    let ldp = entry.ldp_channel().copied();
    // For a central dataset the mechanism always runs at the client's (finite,
    // validated) ε — NOT at the ledger's return value: an infinite ledger returns
    // `Epsilon::Infinite`, which is the zero-noise test mode and would silently
    // publish exact counts. For an LDP dataset `Epsilon::Infinite` is exactly right:
    // privacy was already added client-side, the server's mining over the perturbed
    // rows is deterministic post-processing (noiseless counting + debiasing), and the
    // client's `epsilon` field is ignored — there is nothing left to spend it on.
    let epsilon = match ldp {
        Some(_) => Epsilon::Infinite,
        None => Epsilon::Finite(query.epsilon),
    };
    // What the audit log (and the reply's `epsilon_spent`) reports for this query.
    let epsilon_spent = match ldp {
        Some(_) => 0.0,
        None => query.epsilon,
    };
    // audit:allow(noise-seam): RNG construction only — every draw happens inside pb-dp behind PrivBasis::run_shared
    let mut rng = StdRng::seed_from_u64(seed);
    let context = Arc::clone(entry.context());
    if let Some(req) = trace {
        req.span_since("admission", admission_started);
    }
    // Snapshot the monotone fabric-failure counter before the mechanism runs: if any
    // remote shard op fails mid-query, the counter moves and the answer — computed
    // over partially zeroed counts — is discarded UNRELEASED, before the ledger is
    // ever debited. Fail closed: no bytes out, no ε spent. The debit therefore runs
    // *after* the mechanism, immediately before the release; nothing is released
    // unless the debit succeeds, and the privacy guarantee keys on released bytes.
    let fabric_before = entry.fabric_failures();
    // Label the fabric with this request's trace id for the duration of the fan-out,
    // so remote shard RPCs report back into this trace (and carry the id as their
    // wire correlation-id prefix). Cleared before any return below.
    if let (Some(req), Some(fabric)) = (trace, entry.fabric()) {
        fabric.set_trace_label(Some(req.id().to_string()));
    }
    // The consistency pass is a per-dataset offline knob; disabling it only skips the
    // post-processing repair, never touching noise draws or the budget.
    let mut params = ctx.params.clone();
    if !entry.consistency_enabled() {
        params.consistency = None;
    }
    let pb = PrivBasis::new(params);
    // Debias once, after the (possibly sharded, possibly remote) counts have merged:
    // integer shard counts sum exactly, so the transform sees the same observed support
    // for any shard count or placement — byte-identity of LDP releases is inherited
    // from the central path's, not re-proven.
    let n = entry.transactions() as u64;
    let debias = ldp.map(|channel| {
        move |items: &[pb_fim::Item], observed: f64| channel.debias(observed, n, items.len())
    });
    let bridge = trace.map(|req| PhaseBridge { req });
    let observer: &dyn PhaseObserver = match &bridge {
        Some(bridge) => bridge,
        None => &NoopObserver,
    };
    let result = pb.run_shared_transformed(
        &mut rng,
        &context,
        query.k,
        epsilon,
        debias.as_ref().map(|f| f as CountTransform<'_>),
        observer,
    );
    if let Some(fabric) = entry.fabric() {
        fabric.set_trace_label(None);
    }
    match result {
        Ok(output) => {
            if entry.fabric_failures() != fabric_before {
                audit_query(
                    ctx,
                    trace,
                    query,
                    epsilon_spent,
                    seed,
                    AuditOutcome::FailedClosed,
                );
                return Response::Error(WireError::new(
                    ErrorCode::Unavailable,
                    format!(
                        "dataset `{}`: a remote shard worker failed mid-query ({}); \
                         the answer was discarded unreleased and no ε was spent — \
                         retry once the worker is reachable",
                        query.dataset,
                        entry.fabric_last_error(),
                    ),
                ));
            }
            // The debit exists only where a ledger does. An LDP entry has none *by
            // construction* (the `Option` is forced here, not checked at runtime
            // against a zero charge), so its queries cannot touch a budget: nothing
            // to debit, nothing to exhaust, `remaining` is ∞ forever.
            let remaining = match entry.ledger() {
                Some(ledger) => {
                    let debit_started = ctx.telemetry.now_us();
                    let debit = ledger.try_spend(query.epsilon);
                    if let Some(req) = trace {
                        req.span_since("debit", debit_started);
                    }
                    if let Err(e) = debit {
                        audit_query(
                            ctx,
                            trace,
                            query,
                            epsilon_spent,
                            seed,
                            AuditOutcome::Refused,
                        );
                        let code = match &e {
                            DpError::BudgetExceeded { .. } => ErrorCode::BudgetExhausted,
                            DpError::Persistence(_) => ErrorCode::Unavailable,
                            _ => ErrorCode::Internal,
                        };
                        return Response::Error(WireError::new(code, e.to_string()));
                    }
                    ledger.remaining()
                }
                None => f64::INFINITY,
            };
            entry.record_query();
            // Audited after the durable debit, immediately around the release: a crash
            // in the gap leaves the journal ahead of the audit log, which recovery
            // reconciles (never the reverse — the audit log cannot claim unspent ε).
            audit_query(
                ctx,
                trace,
                query,
                epsilon_spent,
                seed,
                AuditOutcome::Released,
            );
            if let Some(req) = trace {
                req.set_outcome("released");
            }
            Response::Query(query_reply(
                &query.dataset,
                epsilon_spent,
                remaining,
                seed,
                &output,
            ))
        }
        Err(e) => {
            audit_query(
                ctx,
                trace,
                query,
                epsilon_spent,
                seed,
                AuditOutcome::FailedClosed,
            );
            Response::Error(WireError::new(ErrorCode::Internal, e.to_string()))
        }
    }
}

fn status(ctx: &ServerCtx) -> Response {
    let datasets = ctx
        .registry
        .names()
        .into_iter()
        .filter_map(|name| ctx.registry.get(&name))
        .map(|entry| dataset_status(&entry))
        .collect();
    Response::Status(StatusReply {
        server: Some(ServerInfo {
            protocol_version: PROTOCOL_VERSION,
            uptime_secs: ctx.uptime_secs(),
            requests_total: ctx.requests_total.load(Ordering::Relaxed),
            rejected_total: ctx.rejected_total.load(Ordering::Relaxed),
            shed_total: ctx.shed_total.load(Ordering::Relaxed),
            deadline_closed_total: ctx.deadline_closed_total.load(Ordering::Relaxed),
            // Lifetime tallies (durable servers replay them across restarts).
            audit: Some(AuditSummary {
                released: ctx.audit.released(),
                refused: ctx.audit.refused(),
                failed_closed: ctx.audit.failed_closed(),
            }),
        }),
        datasets,
    })
}

/// Sets the shutdown flag and wakes the blocked accept loops with throwaway
/// connections.
fn initiate_shutdown(ctx: &ServerCtx) {
    ctx.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&ctx.local_addr, Duration::from_secs(1));
    if let Some(http_addr) = ctx.http_addr {
        let _ = TcpStream::connect_timeout(&http_addr, Duration::from_secs(1));
    }
}

/// True once shutdown has been initiated (the HTTP loop polls this between reads).
pub(crate) fn is_shutting_down(ctx: &ServerCtx) -> bool {
    ctx.shutdown.load(Ordering::SeqCst)
}

//! A typed, blocking client for the PrivBasis TCP protocol.
//!
//! [`PbClient`] speaks protocol v2 (envelopes with correlation ids) over one long-lived
//! connection, turning wire payloads into the typed replies of
//! [`message`](crate::message) — no JSON handling in caller code. Admin methods attach
//! the bearer token per call, so one client can mix tenant queries and operator actions.
//!
//! For byte-level golden tests (pinned-seed releases compared across crashes and
//! transports) [`PbClient::raw_line`] sends a raw line and returns the raw response —
//! the typed surface deliberately does not re-encode responses, so byte comparisons go
//! through raw lines.

use crate::error::{ErrorCode, WireError};
use crate::frame::write_line;
use crate::message::{
    AdminReply, Envelope, Op, PerturbRequest, QueryReply, QueryRequest, RegisterLdpRequest,
    RegisterRequest, Response, StatusReply,
};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Response timeout a fresh [`PbClient`] starts with. A client that blocks forever on
/// a wedged or half-dead server turns every server fault into a client hang; callers
/// that really want to block indefinitely can opt in via
/// [`PbClient::set_read_timeout`]`(None)`.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Jittered exponential backoff for retrying *idempotent* requests.
///
/// Attached via [`PbClient::set_retry`] (or [`PbClient::with_retry`]), the policy is
/// consulted only by [`PbClient::status`] and by [`PbClient::query`] **with a pinned
/// seed** — a pinned-seed release is deterministic, so re-asking is safe for the
/// *bytes*. It still spends ε per served attempt (the ledger cannot tell a retry from
/// a new query), which is exactly the documented replay semantics. Unseeded queries
/// and admin ops are never retried.
///
/// A retry fires on transport errors ([`ClientError::Io`]) and on structured
/// `unavailable` rejections (shedding, degraded datasets) — the two failure shapes
/// that are transient by construction. Each retry reconnects (the old connection may
/// hold a half-read response) and sleeps `min(max_delay, base_delay · 2ᵃ)`, jittered
/// to 50–100% by a deterministic splitmix64 stream over `jitter_seed` so retry storms
/// from many clients decorrelate while a pinned seed still replays its exact schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x5eed,
        }
    }
}

/// A failed client call.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (refused, reset, timed out).
    Io(io::Error),
    /// The server's bytes did not decode as a valid response (or the correlation id did
    /// not match).
    Protocol(String),
    /// The server answered with a structured error.
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking protocol-v2 connection to a PrivBasis server.
pub struct PbClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// The peer we connected to, kept for retry reconnects.
    addr: SocketAddr,
    read_timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
    /// splitmix64 state of the jitter stream.
    jitter: u64,
    /// Optional correlation-id prefix (trace propagation; see
    /// [`PbClient::set_id_prefix`]).
    id_prefix: Option<String>,
}

impl PbClient {
    /// Connects to a server with the [`DEFAULT_READ_TIMEOUT`] and no retry policy.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PbClient> {
        let stream = dial(addr, Some(DEFAULT_READ_TIMEOUT))?;
        Ok(PbClient {
            reader: BufReader::new(stream.try_clone()?),
            addr: stream.peer_addr()?,
            writer: stream,
            next_id: 1,
            read_timeout: Some(DEFAULT_READ_TIMEOUT),
            retry: None,
            jitter: 0,
            id_prefix: None,
        })
    }

    /// Prefixes subsequent correlation ids with `{prefix}-` (cleared with `None`).
    ///
    /// The shard fabric sets the coordinator's trace id here, so a request's worker
    /// RPCs are attributable to it in both processes' logs. Purely cosmetic on the
    /// wire: the id round-trips verbatim and nothing parses its structure.
    pub fn set_id_prefix(&mut self, prefix: Option<String>) {
        self.id_prefix = prefix;
    }

    /// Sets the read timeout for responses (`None` blocks indefinitely). Retry
    /// reconnects keep the configured value.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.writer.set_read_timeout(timeout)
    }

    /// Attaches a retry policy for the idempotent calls (see [`RetryPolicy`]).
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        self.jitter = policy.map(|p| p.jitter_seed).unwrap_or(0);
        self.retry = policy;
    }

    /// Builder form of [`PbClient::set_retry`].
    pub fn with_retry(mut self, policy: RetryPolicy) -> PbClient {
        self.set_retry(Some(policy));
        self
    }

    /// Drops the current connection and dials the same peer again (the old socket may
    /// hold a half-read response, so retries never reuse it).
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = dial(self.addr, self.read_timeout)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        Ok(())
    }

    /// Next jittered backoff delay for retry `attempt` (1-based): exponential with a
    /// ceiling, scaled into [50%, 100%] by the deterministic jitter stream.
    fn backoff(&mut self, policy: &RetryPolicy, attempt: u32) -> Duration {
        let exp = exponential_backoff(policy, attempt);
        // splitmix64 step.
        self.jitter = self.jitter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let fraction = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        exp.mul_f64(fraction)
    }

    /// Sends one raw request line and returns the raw response line (trailing newline
    /// trimmed). The escape hatch for byte-identity tests and protocol debugging; the
    /// typed methods below cover everything else.
    ///
    /// A `line` containing `\n` is refused with [`io::ErrorKind::InvalidInput`] before
    /// any byte is sent (see [`write_line`]), so the connection stays in step.
    pub fn raw_line(&mut self, line: &str) -> io::Result<String> {
        write_line(&mut self.writer, line)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end_matches(['\r', '\n']).to_string())
    }

    fn round_trip(&mut self, auth: Option<String>, op: Op) -> Result<Response, ClientError> {
        let id = match &self.id_prefix {
            Some(prefix) => format!("{prefix}-c{}", self.next_id),
            None => format!("c{}", self.next_id),
        };
        self.next_id += 1;
        let line = Envelope::v2(id.clone(), auth, op).encode();
        let raw = self.raw_line(&line)?;
        let parsed = Response::parse(&raw).map_err(ClientError::Protocol)?;
        if parsed.id.as_deref() != Some(id.as_str()) {
            // An error the server could not attribute to this request (admission
            // shedding answers before parsing, salvaged ids can be null) is still a
            // structured server error — not a protocol violation.
            if let Response::Error(e) = parsed.response {
                return Err(ClientError::Server(e));
            }
            return Err(ClientError::Protocol(format!(
                "response id {:?} does not match request id {id:?}",
                parsed.id
            )));
        }
        match parsed.response {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Ok(other),
        }
    }

    /// [`PbClient::round_trip`] wrapped in the retry policy; callers assert the op is
    /// idempotent (deterministic bytes on replay).
    fn round_trip_idempotent(
        &mut self,
        auth: Option<String>,
        op: Op,
    ) -> Result<Response, ClientError> {
        let Some(policy) = self.retry else {
            return self.round_trip(auth, op);
        };
        let mut attempt = 0u32;
        loop {
            match self.round_trip(auth.clone(), op.clone()) {
                Err(e) if attempt < policy.max_retries && retryable(&e) => {
                    attempt += 1;
                    std::thread::sleep(self.backoff(&policy, attempt));
                    // A failed reconnect surfaces as Io on the next round trip, which
                    // is itself retryable until the attempts run out.
                    let _ = self.reconnect();
                }
                other => return other,
            }
        }
    }

    /// Runs one top-`k` query (`seed: None` lets the server draw one).
    ///
    /// With a [`RetryPolicy`] attached, *pinned-seed* queries retry on transient
    /// failures (the release bytes are deterministic; each served attempt still
    /// spends ε). Unseeded queries never retry — the server would draw a fresh seed.
    pub fn query(
        &mut self,
        dataset: &str,
        k: usize,
        epsilon: f64,
        seed: Option<u64>,
    ) -> Result<QueryReply, ClientError> {
        let op = Op::Query(QueryRequest {
            dataset: dataset.to_string(),
            k,
            epsilon,
            seed,
        });
        let response = if seed.is_some() {
            self.round_trip_idempotent(None, op)
        } else {
            self.round_trip(None, op)
        };
        match response? {
            Response::Query(reply) => Ok(reply),
            other => Err(ClientError::Protocol(format!(
                "expected a query reply, got {other:?}"
            ))),
        }
    }

    /// Fetches the server and per-dataset status (retries under a [`RetryPolicy`] —
    /// status is read-only, hence always idempotent).
    pub fn status(&mut self) -> Result<StatusReply, ClientError> {
        match self.round_trip_idempotent(None, Op::Status)? {
            Response::Status(reply) => Ok(reply),
            other => Err(ClientError::Protocol(format!(
                "expected a status reply, got {other:?}"
            ))),
        }
    }

    /// Fetches the recorded span tree of a recent request by its correlation id
    /// (best-effort: the server's trace ring evicts old traces).
    pub fn trace(&mut self, id: &str) -> Result<pb_trace::Trace, ClientError> {
        let op = Op::Trace { id: id.to_string() };
        match self.round_trip(None, op)? {
            Response::Trace(trace) => Ok(trace),
            other => Err(ClientError::Protocol(format!(
                "expected a trace reply, got {other:?}"
            ))),
        }
    }

    /// Requests a graceful server shutdown.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(None, Op::Shutdown)? {
            Response::Shutdown => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected a shutdown ack, got {other:?}"
            ))),
        }
    }

    /// Hot-registers a dataset (admin; requires the server's `--admin-token`).
    pub fn register(
        &mut self,
        token: &str,
        request: RegisterRequest,
    ) -> Result<AdminReply, ClientError> {
        self.admin(token, Op::Register(request))
    }

    /// Hot-registers a **local-DP** dataset (admin): rows are expected to be already
    /// perturbed reports, and the entry carries its channel parameters instead of a
    /// budget ledger. Mining such a dataset never debits any ledger.
    pub fn register_ldp(
        &mut self,
        token: &str,
        request: RegisterLdpRequest,
    ) -> Result<AdminReply, ClientError> {
        self.admin(token, Op::RegisterLdp(request))
    }

    /// Asks the server to perturb raw transactions through an LDP dataset's registered
    /// channel (`seed: None` lets the server draw one). This is a convenience for
    /// trusted sidecars and tests; genuinely untrusted clients should perturb locally
    /// with [`pb_ldp::LdpChannel`] so raw rows never leave the device.
    pub fn perturb(
        &mut self,
        dataset: &str,
        rows: Vec<Vec<u32>>,
        seed: Option<u64>,
    ) -> Result<(Vec<Vec<u32>>, u64), ClientError> {
        let op = Op::Perturb(PerturbRequest {
            dataset: dataset.to_string(),
            rows,
            seed,
        });
        match self.round_trip(None, op)? {
            Response::Perturbed { rows, seed } => Ok((rows, seed)),
            other => Err(ClientError::Protocol(format!(
                "expected a perturb reply, got {other:?}"
            ))),
        }
    }

    /// Sets the server-wide snapshot cadence (admin): a full durable snapshot is taken
    /// every `every` queries. Persists through the manifest, so it survives restarts.
    pub fn snapshot_every(&mut self, token: &str, every: u64) -> Result<AdminReply, ClientError> {
        self.admin(token, Op::SnapshotEvery { every })
    }

    /// Toggles the consistency-repair pass for one dataset (admin). Persists through
    /// the manifest, so it survives restarts.
    pub fn set_consistency(
        &mut self,
        token: &str,
        name: &str,
        enabled: bool,
    ) -> Result<AdminReply, ClientError> {
        self.admin(
            token,
            Op::Consistency {
                name: name.to_string(),
                enabled,
            },
        )
    }

    /// Removes a dataset from serving (admin). Its durable ledger stays on disk.
    pub fn unregister(&mut self, token: &str, name: &str) -> Result<AdminReply, ClientError> {
        self.admin(
            token,
            Op::Unregister {
                name: name.to_string(),
            },
        )
    }

    /// Re-partitions a live dataset (admin). Releases are byte-identical for any shard
    /// count.
    pub fn reshard(
        &mut self,
        token: &str,
        name: &str,
        shards: usize,
    ) -> Result<AdminReply, ClientError> {
        self.admin(
            token,
            Op::Reshard {
                name: name.to_string(),
                shards,
            },
        )
    }

    /// Arms (non-empty `spec`) or clears (empty `spec`) deterministic fault-injection
    /// plans on a server built with the `fault-inject` feature (admin). Other servers
    /// refuse with an `unavailable` error.
    pub fn faults(&mut self, token: &str, spec: &str) -> Result<AdminReply, ClientError> {
        self.admin(
            token,
            Op::Faults {
                spec: spec.to_string(),
            },
        )
    }

    fn admin(&mut self, token: &str, op: Op) -> Result<AdminReply, ClientError> {
        match self.round_trip(Some(token.to_string()), op)? {
            Response::Admin(reply) => Ok(reply),
            other => Err(ClientError::Protocol(format!(
                "expected an admin ack, got {other:?}"
            ))),
        }
    }

    /// Ships one chunk of rows to a shard worker (worker op; see
    /// [`Op::ShardLoad`](crate::message::Op::ShardLoad)). Returns the total rows the
    /// worker now holds under `key`.
    pub fn shard_load(
        &mut self,
        key: &str,
        rows: Vec<Vec<u32>>,
        reset: bool,
        seal: bool,
    ) -> Result<u64, ClientError> {
        let op = Op::ShardLoad {
            key: key.to_string(),
            rows,
            reset,
            seal,
        };
        match self.round_trip(None, op)? {
            Response::ShardLoaded { rows, .. } => Ok(rows),
            other => Err(ClientError::Protocol(format!(
                "expected a shard_load ack, got {other:?}"
            ))),
        }
    }

    /// Exact shard-local supports for a batch of itemsets, in request order (worker op).
    pub fn shard_supports(
        &mut self,
        key: &str,
        itemsets: Vec<Vec<u32>>,
    ) -> Result<Vec<u64>, ClientError> {
        let op = Op::ShardSupports {
            key: key.to_string(),
            itemsets,
        };
        match self.round_trip(None, op)? {
            Response::ShardCounts(counts) => Ok(counts),
            other => Err(ClientError::Protocol(format!(
                "expected shard counts, got {other:?}"
            ))),
        }
    }

    /// Exact shard-local pair counts over `items`: one count per pair
    /// `(items[i], items[j])` with `i < j` in request order, zeros included (worker op).
    pub fn shard_pairs(&mut self, key: &str, items: Vec<u32>) -> Result<Vec<u64>, ClientError> {
        let op = Op::ShardPairs {
            key: key.to_string(),
            items,
        };
        match self.round_trip(None, op)? {
            Response::ShardCounts(counts) => Ok(counts),
            other => Err(ClientError::Protocol(format!(
                "expected shard counts, got {other:?}"
            ))),
        }
    }

    /// Exact shard-local bin histograms, one per basis in request order (worker op).
    pub fn shard_histograms(
        &mut self,
        key: &str,
        bases: Vec<Vec<u32>>,
    ) -> Result<Vec<Vec<u64>>, ClientError> {
        let op = Op::ShardHistograms {
            key: key.to_string(),
            bases,
        };
        match self.round_trip(None, op)? {
            Response::ShardHistograms(histograms) => Ok(histograms),
            other => Err(ClientError::Protocol(format!(
                "expected shard histograms, got {other:?}"
            ))),
        }
    }
}

/// Dials `addr` for a protocol connection: `TCP_NODELAY` on (every message already
/// leaves in one write, so Nagle has nothing to coalesce and would only hold a tail
/// behind the peer's delayed ACK) and the given read timeout.
fn dial(addr: impl ToSocketAddrs, read_timeout: Option<Duration>) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    Ok(stream)
}

/// The un-jittered exponential delay for retry `attempt`: `min(max_delay,
/// base_delay · 2^(attempt-1))`, clamped at the ceiling for any shift width.
///
/// Total over the whole `u32` domain: `attempt` is 1-based from the retry loop, but
/// the fabric's hedged requests reuse this policy from other call sites, so an
/// `attempt` of 0 must yield `base_delay` rather than underflow (a debug-build panic
/// pre-fix).
fn exponential_backoff(policy: &RetryPolicy, attempt: u32) -> Duration {
    policy
        .base_delay
        .saturating_mul(
            1u32.checked_shl(attempt.saturating_sub(1))
                .unwrap_or(u32::MAX),
        )
        .min(policy.max_delay)
}

/// Transient by construction: transport failures and structured `unavailable`
/// rejections (shedding, degraded datasets). Everything else — budget exhaustion,
/// auth, malformed — will not improve by asking again.
fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) => true,
        ClientError::Server(w) => w.code == ErrorCode::Unavailable,
        ClientError::Protocol(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_reconnect_sockets_run_with_nodelay() {
        // Unaccepted connections still complete the handshake into the backlog.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = PbClient::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
        client.reconnect().unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
    }

    #[test]
    fn backoff_is_total_over_the_attempt_domain() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            jitter_seed: 1,
        };
        // The boundary that used to underflow in debug builds: attempt 0 must behave
        // like attempt 1 (no 2^-1 exists; the first delay is the base delay).
        assert_eq!(exponential_backoff(&policy, 0), Duration::from_millis(10));
        assert_eq!(exponential_backoff(&policy, 1), Duration::from_millis(10));
        assert_eq!(exponential_backoff(&policy, 2), Duration::from_millis(20));
        assert_eq!(exponential_backoff(&policy, 3), Duration::from_millis(40));
        // Large attempts saturate at the ceiling instead of overflowing the shift.
        for attempt in [9, 31, 32, 33, u32::MAX] {
            assert_eq!(exponential_backoff(&policy, attempt), policy.max_delay);
        }
    }
}

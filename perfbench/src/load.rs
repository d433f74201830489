//! The closed-loop load generator: each client sends its next pinned query only after
//! the previous reply arrived.

use crate::workload::{request_line, Query, Spec, Transport, DATASET};
use pb_proto::PbClient;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a client waits for one reply before counting a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One answered (or failed) query.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the query in its list (`usize::MAX - i` for set-up query `i`).
    pub index: usize,
    /// Send → full reply.
    pub latency: Duration,
    /// The reply body, or the transport error.
    pub reply: Result<String, String>,
}

/// One client connection.
pub enum Conn {
    /// HTTP keep-alive.
    Http(BufReader<TcpStream>, TcpStream),
    /// Protocol v2 lines, one write per request.
    Line(BufReader<TcpStream>, TcpStream),
    /// The typed client.
    Pb(Box<PbClient>),
}

impl Conn {
    /// Connects with the given transport.
    pub fn open(
        transport: Transport,
        addr: SocketAddr,
        http: Option<SocketAddr>,
    ) -> io::Result<Conn> {
        let stream = |addr| -> io::Result<(BufReader<TcpStream>, TcpStream)> {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))?;
            Ok((BufReader::new(s.try_clone()?), s))
        };
        Ok(match transport {
            Transport::Http => {
                let addr = http.ok_or_else(|| io::Error::other("server has no HTTP gateway"))?;
                let (r, w) = stream(addr)?;
                Conn::Http(r, w)
            }
            Transport::Line => {
                let (r, w) = stream(addr)?;
                Conn::Line(r, w)
            }
            Transport::PbClient => {
                let mut client = PbClient::connect(addr)?;
                client.set_read_timeout(Some(REPLY_TIMEOUT))?;
                Conn::Pb(Box::new(client))
            }
        })
    }

    /// Sends one raw line over a fresh single-write connection and returns the reply.
    pub fn raw(addr: SocketAddr, line: &str) -> io::Result<String> {
        let mut conn = Conn::open(Transport::Line, addr, None)?;
        conn.round_trip_line(line)
    }

    fn round_trip_line(&mut self, line: &str) -> io::Result<String> {
        match self {
            Conn::Line(reader, writer) => {
                writer.write_all(format!("{line}\n").as_bytes())?;
                let mut reply = String::new();
                if reader.read_line(&mut reply)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ));
                }
                Ok(reply.trim_end().to_string())
            }
            // The typed client's own write path: this is the path that shows the
            // per-leg stall recorded in BENCHMARK.json.
            Conn::Pb(client) => client.raw_line(line),
            Conn::Http(..) => Err(io::Error::other("protocol lines need a TCP connection")),
        }
    }

    fn query(&mut self, q: &Query, id: &str) -> io::Result<String> {
        match self {
            Conn::Http(reader, writer) => {
                let body = format!(
                    r#"{{"dataset":"{DATASET}","k":{},"epsilon":{},"seed":{}}}"#,
                    q.k, q.epsilon, q.seed
                );
                writer.write_all(
                    format!(
                        "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                )?;
                read_http_body(reader)
            }
            _ => self.round_trip_line(&request_line(q, id)),
        }
    }

    /// Sends one query and times it (`client` keeps concurrent correlation ids apart).
    pub fn timed_query(&mut self, client: usize, index: usize, q: &Query) -> Sample {
        let id = format!("c{client}-q{index}");
        let started = Instant::now();
        let reply = self.query(q, &id).map_err(|e| e.to_string());
        Sample {
            index,
            latency: started.elapsed(),
            reply,
        }
    }
}

fn read_http_body(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut length = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or_else(|| io::Error::other("HTTP reply without Content-Length"))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body).map_err(io::Error::other)
}

/// What the timed phase observed.
pub struct Phase {
    /// Every sample, in completion order per client.
    pub samples: Vec<Sample>,
    /// Phase start → last reply.
    pub wall: Duration,
    /// Server CPU ticks (utime + stime of `pids`) over the phase.
    pub cpu_ticks: u64,
}

/// Runs the workload's closed-loop clients for `seconds`, each cycling through the
/// query list. Client `c` starts at offset `c · len / clients` so concurrent clients
/// never send the same query at once.
pub fn timed_phase(
    spec: &Spec,
    server: (SocketAddr, Option<SocketAddr>),
    queries: &[Query],
    seconds: f64,
    pids: &[u32],
) -> Result<Phase, String> {
    let clients = spec.clients;
    let mut conns = (0..clients)
        .map(|_| Conn::open(spec.transport, server.0, server.1))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    let len = queries.len();
    let ticks_before = crate::proc::cpu_ticks(pids)?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut n = 0;
                    while Instant::now() < deadline {
                        let index = (c * len / clients + n) % len;
                        samples.push(conn.timed_query(c, index, &queries[index]));
                        n += 1;
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let cpu_ticks = crate::proc::cpu_ticks(pids)? - ticks_before;
    Ok(Phase {
        samples: per_client.into_iter().flatten().collect(),
        wall,
        cpu_ticks,
    })
}

//! The server under test: `privbasis-cli serve` (and `shard-worker` children) as real
//! processes, their `/proc` accounting, and the set-up phase that brings them warm.

use crate::load::{Conn, Sample};
use crate::workload::{Inputs, Transport, DATASET};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One spawned server process. Dropping it kills and reaps the process.
pub struct Proc {
    child: Child,
    /// The TCP protocol address.
    pub addr: SocketAddr,
    /// The HTTP gateway address (coordinators only).
    pub http: Option<SocketAddr>,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Proc {
    /// Spawns `cli args…` and waits for its "listening on" line.
    fn spawn(cli: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(cli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // The reader keeps draining after start-up so the server never blocks on a
        // full pipe (slow-query lines); the lines are kept for error reports.
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = tx.send(line.clone());
                lines.push(line);
            }
            lines
        });
        let mut proc = Proc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            http: None,
            stderr: Some(reader),
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| {
                format!(
                    "{} exited or never listened: {}",
                    cli.display(),
                    proc.finish()
                )
            })?;
            if let Some(addr) = line.split("http gateway on ").nth(1) {
                proc.http = Some(parse_addr(addr)?);
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                proc.addr = parse_addr(rest.split_whitespace().next().unwrap_or(""))?;
                return Ok(proc);
            }
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down and waits for it; kills it after 10 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = Conn::raw(self.addr, r#"{"v":2,"id":"bench-stop","op":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                self.finish();
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Err(format!("server did not shut down: {}", self.finish()))
    }

    /// Kills (if still running), reaps, and returns the tail of stderr.
    fn finish(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let lines = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.finish();
    }
}

fn parse_addr(raw: &str) -> Result<SocketAddr, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("cannot parse server address `{raw}`"))
}

/// A running deployment: the coordinator plus its shard workers.
pub struct Deployment {
    /// The coordinator.
    pub server: Proc,
    /// Remote shard workers (empty when unsharded).
    pub workers: Vec<Proc>,
    /// The state directory (durable workloads).
    pub state_dir: Option<PathBuf>,
    /// Replies to the set-up queries, one per warm k.
    pub warm_replies: Vec<Sample>,
}

impl Deployment {
    /// Every process id (coordinator first).
    pub fn pids(&self) -> Vec<u32> {
        std::iter::once(&self.server)
            .chain(&self.workers)
            .map(Proc::pid)
            .collect()
    }

    /// Shuts down coordinator, then workers.
    pub fn shutdown(self) -> Result<(), String> {
        let mut result = self.server.shutdown();
        for worker in self.workers {
            result = result.and(worker.shutdown());
        }
        result
    }
}

/// Spawn → warm: starts workers and the coordinator, loads and registers the
/// dataset, then sends one set-up query per warm k (which builds the `QueryContext`,
/// seeds the workers' indexes and primes θ). Returns the deployment and the seconds
/// it took.
pub fn set_up(
    cli: &Path,
    inputs: &Inputs,
    fimi: &Path,
    dir: &Path,
) -> Result<(Deployment, f64), String> {
    let started = Instant::now();
    let spec = &inputs.spec;
    let mut workers = Vec::new();
    for _ in 0..spec.remote_shards {
        workers.push(Proc::spawn(
            cli,
            &strings(&["shard-worker", "--port", "0", "--threads", "2"]),
        )?);
    }
    let mut args = strings(&[
        "serve",
        "--port",
        "0",
        "--http-port",
        "0",
        "--threads",
        "2",
        "--budget",
        "1000000000",
    ]);
    args.push("--dataset".into());
    args.push(format!("{DATASET}={}", fimi.display()));
    let state_dir = spec.durable.then(|| dir.join("state"));
    if let Some(state) = &state_dir {
        args.push("--state-dir".into());
        args.push(state.display().to_string());
    }
    if spec.remote_shards > 0 {
        args.push("--shards".into());
        args.push(spec.remote_shards.to_string());
        for worker in &workers {
            args.push("--shard-worker".into());
            args.push(worker.addr.to_string());
        }
    }
    let server = Proc::spawn(cli, &args)?;
    let mut conn = Conn::open(Transport::Line, server.addr, server.http)
        .map_err(|e| format!("cannot connect for set-up: {e}"))?;
    let warm_replies = inputs
        .warm
        .iter()
        .enumerate()
        .map(|(i, q)| conn.timed_query(0, usize::MAX - i, q))
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    Ok((
        Deployment {
            server,
            workers,
            state_dir,
            warm_replies,
        },
        elapsed,
    ))
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Clock ticks per second of `/proc/<pid>/stat` times.
pub fn clock_ticks() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}

/// utime + stime of the processes, in clock ticks.
pub fn cpu_ticks(pids: &[u32]) -> Result<u64, String> {
    let mut total = 0;
    for pid in pids {
        let stat = read_to_string(&format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesised command name; utime and stime are fields 14
        // and 15 of the whole line, so 12 and 13 after it.
        let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        for idx in [11, 12] {
            total += fields
                .get(idx)
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("malformed /proc/{pid}/stat"))?;
        }
    }
    Ok(total)
}

/// Peak resident set (`VmHWM`) of the processes, summed, in MiB.
pub fn peak_rss_mb(pids: &[u32]) -> Result<f64, String> {
    let mut kb = 0.0;
    for pid in pids {
        let status = read_to_string(&format!("/proc/{pid}/status"))?;
        kb += status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    }
    Ok(kb / 1024.0)
}

fn read_to_string(path: &str) -> Result<String, String> {
    let mut text = String::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text)
}

/// `GET path` on the HTTP gateway (one request per connection).
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    raw.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| format!("malformed HTTP response to GET {path}"))
}

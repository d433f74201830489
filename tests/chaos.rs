//! Chaos harness: randomized op×fault schedules replayed against a real
//! `privbasis-cli serve` child, with every schedule pinned to a seed so a failure
//! reproduces exactly. Each schedule runs four server generations over one state dir:
//!
//! 1. **clean** — pin a reference release (seed 777) and spend some ε;
//! 2. **faulted** — arm a seed-derived mix of `journal.append`/`conn.*` probabilistic
//!    faults plus a late `journal.fsync=fail-nth` wedge through the admin `faults` op,
//!    hammer the dataset, then SIGKILL mid-workload;
//! 3. **delayed** — restart with `PB_FAULTS=journal.fsync=delay:500` from the
//!    environment and SIGKILL while a query is parked inside the injected delay
//!    (kill -9 mid-fault);
//! 4. **recovery** — restart with no faults and check the invariants.
//!
//! The invariants, per ISSUE: spent ε is never under-counted (every acknowledged query
//! is durably debited, whatever faults fired around it), pinned-seed releases are
//! byte-identical across all of it, and no server generation ever panics. Corruption
//! failing loudly and the wedged-dataset degraded mode get their own tests below.
//!
//! The fault schedules need failpoints compiled in, so those tests are effective only
//! under `cargo test --features fault-inject` (the child binary inherits the feature);
//! default builds pass them vacuously. The corruption test needs no failpoints and
//! runs fully in both modes.

use privbasis::proto::{AdminReply, ClientError, ErrorCode, PbClient};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The same splitmix64 stream pb-fault uses, re-derived here so the op schedule and
/// the fault schedule replay from one pinned seed.
struct Splitmix(u64);

impl Splitmix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A unique scratch directory per test (cleaned up on drop; leaked on panic).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pb-chaos-{tag}-{}-{}",
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

/// A running `privbasis-cli serve` child whose stderr is captured for the no-panic
/// check at the end of a schedule.
struct Server {
    child: Child,
    addr: SocketAddr,
    log: Arc<Mutex<String>>,
}

impl Server {
    fn spawn(extra_args: &[&str], envs: &[(&str, String)]) -> Server {
        Server::spawn_mode(
            &[
                "serve",
                "--port",
                "0",
                "--threads",
                "2",
                "--snapshot-every",
                "8",
            ],
            extra_args,
            envs,
        )
    }

    /// A `privbasis-cli shard-worker` child on an OS-assigned port.
    fn spawn_worker(envs: &[(&str, String)]) -> Server {
        Server::spawn_mode(
            &["shard-worker", "--port", "0", "--threads", "2"],
            &[],
            envs,
        )
    }

    fn spawn_mode(base_args: &[&str], extra_args: &[&str], envs: &[(&str, String)]) -> Server {
        let mut command = Command::new(env!("CARGO_BIN_EXE_privbasis-cli"));
        command
            .args(base_args)
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, value) in envs {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("spawn privbasis-cli");
        let stderr = child.stderr.take().expect("piped stderr");
        let log = Arc::new(Mutex::new(String::new()));
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                other => panic!("server exited before listening: {other:?}"),
            };
            let parsed = line
                .split("listening on ")
                .nth(1)
                .map(|rest| rest.split_whitespace().next().expect("address token"));
            log.lock().unwrap().push_str(&line);
            log.lock().unwrap().push('\n');
            if let Some(addr) = parsed {
                break addr.parse().expect("socket address");
            }
        };
        // Keep draining stderr (so the child can never block on a full pipe) into the
        // log the no-panic assertion reads.
        let sink = Arc::clone(&log);
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                let mut log = sink.lock().unwrap_or_else(|p| p.into_inner());
                log.push_str(&line);
                log.push('\n');
            }
        });
        Server { child, addr, log }
    }

    fn client(&self) -> PbClient {
        PbClient::connect(self.addr).expect("connect to server")
    }

    /// SIGKILL, returning the captured stderr for the no-panic check.
    fn kill9(mut self) -> Arc<Mutex<String>> {
        self.child.kill().expect("kill -9 the server");
        self.child.wait().expect("reap the server");
        Arc::clone(&self.log)
    }

    /// Clean protocol shutdown, returning the captured stderr.
    fn shutdown(mut self) -> Arc<Mutex<String>> {
        self.client().shutdown().expect("shutdown ack");
        self.child.wait().expect("server exits after shutdown");
        Arc::clone(&self.log)
    }
}

impl Drop for Server {
    /// Kills and reaps the child, so a failing assertion leaves no server running.
    /// After `kill9` or `shutdown` the child is already reaped and both errors are
    /// ignored.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn raw(client: &mut PbClient, line: &str) -> String {
    client.raw_line(line).expect("request")
}

/// Pulls `"key":<value>` out of a response line for exact byte comparisons.
fn field(response: &str, key: &str) -> String {
    let pattern = format!("\"{key}\":");
    let start = response
        .find(&pattern)
        .unwrap_or_else(|| panic!("no {key} in {response}"))
        + pattern.len();
    response[start..]
        .split([',', '}'])
        .next()
        .unwrap()
        .to_string()
}

fn write_fixture(scratch: &Scratch) -> String {
    // 120 rows with a skewed, unambiguous frequency ranking (mirrors the
    // crash-recovery fixture).
    let mut rows = String::new();
    for i in 0..120 {
        let slot = i % 10;
        for j in 0..5u32 {
            if slot < 10 - 2 * j as usize {
                rows.push_str(&format!("{j} "));
            }
        }
        rows.push_str(&format!("{}\n", 5 + slot));
    }
    let path = scratch.0.join("fixture.dat");
    std::fs::write(&path, rows).unwrap();
    path.to_string_lossy().into_owned()
}

fn assert_no_panics(logs: &[Arc<Mutex<String>>]) {
    for log in logs {
        let text = log.lock().unwrap_or_else(|p| p.into_inner());
        assert!(
            !text.contains("panicked"),
            "a server generation panicked under faults:\n{text}"
        );
    }
}

const PINNED: &str = r#"{"op":"query","dataset":"d","k":4,"epsilon":0.25,"seed":777}"#;

/// One pinned-seed schedule: clean pin → faulted workload → SIGKILL → delay fault →
/// SIGKILL mid-fault → clean recovery with the invariant checks.
fn run_schedule(seed: u64) {
    if !pb_fault::is_compiled() {
        return; // Vacuous without failpoints: the child binary has none to arm.
    }
    let scratch = Scratch::new(&format!("sched{seed}"));
    let data = write_fixture(&scratch);
    let state = scratch.0.join("state").to_string_lossy().into_owned();
    let dataset = format!("d={data}");
    let base_args = [
        "--dataset",
        dataset.as_str(),
        "--budget",
        "1000",
        "--state-dir",
        state.as_str(),
        "--admin-token",
        "tok",
    ];
    let mut rng = Splitmix(seed);
    let mut acked = 0u64; // Queries whose ok response was fully received.
    let mut logs = Vec::new();

    // ---- Generation 1 (clean): pin the reference release. ----
    let server = Server::spawn(&base_args, &[]);
    let mut client = server.client();
    let reference = raw(&mut client, PINNED);
    assert!(reference.contains(r#""status":"ok""#), "{reference}");
    let reference_items = field(&reference, "itemsets");
    acked += 1;
    logs.push(server.shutdown());

    // ---- Generation 2 (faulted workload): arm a seed-derived schedule over the
    // admin op, hammer the dataset, SIGKILL mid-workload. ----
    let spec = format!(
        "journal.append=fail-prob:{:.3},conn.write=fail-prob:{:.3},\
         conn.read=fail-prob:{:.3},journal.fsync=fail-nth:{}",
        0.05 + 0.25 * rng.next_f64(),
        0.08 * rng.next_f64(),
        0.08 * rng.next_f64(),
        15 + rng.next_u64() % 10,
    );
    let server = Server::spawn(&base_args, &[("PB_FAULT_SEED", seed.to_string())]);
    let addr = server.addr;
    let mut client = server.client();
    match client.faults("tok", &spec) {
        Ok(AdminReply::FaultsArmed { armed, .. }) => assert_eq!(armed, 4, "{spec}"),
        Ok(other) => panic!("unexpected faults ack: {other:?}"),
        // The plans are armed before the ack is written, so the ack itself can be the
        // schedule's first casualty (`conn.write` fires on it). Reconnect and go.
        Err(_) => client = PbClient::connect(addr).expect("reconnect"),
    }
    for i in 0..40u64 {
        if rng.next_f64() < 0.85 {
            let k = 2 + (rng.next_u64() % 4) as usize;
            match client.query("d", k, 0.25, Some(10_000 + i)) {
                Ok(reply) => {
                    assert_eq!(reply.epsilon_spent, 0.25);
                    acked += 1;
                }
                // Refused (injected journal failure, or the wedge latched): no ack, no
                // durability claim — the recovery check only bounds *acknowledged* ε.
                Err(ClientError::Server(_)) => {}
                // Transport casualty (injected conn fault killed the connection).
                Err(_) => client = PbClient::connect(addr).expect("reconnect"),
            }
        } else {
            // Status stays served under fire; a conn-fault casualty here surfaces on
            // the next query, which reconnects.
            let _ = client.status();
        }
    }
    logs.push(server.kill9());

    // ---- Generation 3 (kill -9 mid-fault): a delay fault parks a query inside the
    // journal fsync; SIGKILL lands while it sleeps. ----
    let server = Server::spawn(
        &base_args,
        &[
            ("PB_FAULTS", "journal.fsync=delay:500".to_string()),
            ("PB_FAULT_SEED", seed.to_string()),
        ],
    );
    let addr = server.addr;
    let in_flight = std::thread::spawn(move || {
        let mut client = PbClient::connect(addr).expect("connect");
        // Never acknowledged (the server dies inside the delay), so it must not count.
        client.query("d", 4, 0.25, Some(424_242)).is_ok()
    });
    std::thread::sleep(Duration::from_millis(150));
    logs.push(server.kill9());
    let acked_mid_fault = in_flight.join().expect("in-flight client thread");
    assert!(
        !acked_mid_fault,
        "a query killed inside the injected fsync delay cannot have been acknowledged"
    );

    // ---- Generation 4 (clean recovery): the invariants. ----
    let server = Server::spawn(&base_args, &[]);
    let mut client = server.client();
    let status = client.status().expect("status after recovery");
    let row = &status.datasets[0];
    // Spent ε is never under-counted: every acknowledged query was debited durably
    // before its release, whatever faults fired around it. (Over-counting is legal:
    // refused and killed-mid-flight queries may have durable debits.)
    assert!(
        row.spent >= 0.25 * acked as f64 - 1e-9,
        "seed {seed}: {acked} acknowledged queries but only ε {} survived",
        row.spent
    );
    assert!(!row.degraded, "a clean restart must clear the wedge");
    // Pinned-seed releases are byte-identical across the whole ordeal.
    let replayed = raw(&mut client, PINNED);
    assert!(replayed.contains(r#""status":"ok""#), "{replayed}");
    assert_eq!(
        field(&replayed, "itemsets"),
        reference_items,
        "seed {seed}: the recovered context must reproduce the pinned release"
    );
    logs.push(server.shutdown());

    assert_no_panics(&logs);
}

#[test]
fn chaos_schedule_seed_11() {
    run_schedule(11);
}

#[test]
fn chaos_schedule_seed_42() {
    run_schedule(42);
}

#[test]
fn chaos_schedule_seed_9001() {
    run_schedule(9001);
}

#[test]
fn killed_shard_worker_fails_queries_closed_and_restarts_re_release_identically() {
    // The fabric chaos schedule: a dataset with one of its two shards placed on a
    // real `shard-worker` process, SIGKILLed while a query's fan-out is parked
    // inside the worker (an injected `fabric.serve` delay widens the window). The
    // invariants: the caught query fails closed with a structured refusal *before*
    // any ε is debited, and once a fresh worker is placed, pinned-seed releases are
    // byte-identical to the pre-crash reference — placement (and worker death) is
    // invisible in released bytes and in the ledger.
    if !pb_fault::is_compiled() {
        return; // The mid-fan-out window needs the child's injected delay.
    }
    let scratch = Scratch::new("fabric");
    let data = write_fixture(&scratch);
    let state = scratch.0.join("state").to_string_lossy().into_owned();
    let dataset = format!("d={data}");
    let mut logs = Vec::new();

    // Every shard op this worker serves sleeps 300 ms before answering.
    let worker = Server::spawn_worker(&[("PB_FAULTS", "fabric.serve=delay:300".to_string())]);
    let worker_arg = worker.addr.to_string();
    let spawn_coordinator = |worker_addr: &str| {
        Server::spawn(
            &[
                "--dataset",
                dataset.as_str(),
                "--budget",
                "1000",
                "--state-dir",
                state.as_str(),
                "--shards",
                "2",
                "--shard-worker",
                worker_addr,
            ],
            &[],
        )
    };
    let server = spawn_coordinator(&worker_arg);
    let addr = server.addr;
    let mut client = server.client();

    // Pin the reference release through the mixed placement.
    let reference = raw(&mut client, PINNED);
    assert!(reference.contains(r#""status":"ok""#), "{reference}");
    let reference_items = field(&reference, "itemsets");

    // kill -9 the worker while a query's fan-out is parked inside its delay.
    let in_flight = std::thread::spawn(move || {
        let mut client = PbClient::connect(addr).expect("connect");
        client.query("d", 4, 0.25, Some(888))
    });
    std::thread::sleep(Duration::from_millis(100));
    logs.push(worker.kill9());
    match in_flight.join().expect("in-flight client thread") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Unavailable, "{e}");
            assert!(
                e.message.contains("no ε was spent"),
                "the refusal must promise the budget is untouched: {e}"
            );
        }
        other => panic!("a query caught in the worker's death must fail closed, got {other:?}"),
    }
    // Fail closed means *before* the debit: only the pinned reference is spent, and
    // every further query is refused the same way while the fabric is down.
    let status = client.status().expect("status with the fabric down");
    assert!(
        (status.datasets[0].spent - 0.25).abs() < 1e-12,
        "a failed fan-out must not debit: {:?}",
        status.datasets[0]
    );
    match client.query("d", 4, 0.25, Some(889)).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Unavailable, "{e}"),
        other => panic!("expected a structured refusal, got {other}"),
    }

    // Bring up a fresh worker (new port — the old one may sit in TIME_WAIT) and
    // restart the coordinator against it: recovery re-reads the durable ledger,
    // re-places the shards, and re-seeds the new worker.
    logs.push(server.kill9());
    let worker = Server::spawn_worker(&[]);
    let server = spawn_coordinator(&worker.addr.to_string());
    let mut client = server.client();
    let replayed = raw(&mut client, PINNED);
    assert!(replayed.contains(r#""status":"ok""#), "{replayed}");
    assert_eq!(
        field(&replayed, "itemsets"),
        reference_items,
        "a worker death and re-placement must be invisible in released bytes"
    );
    let status = client.status().expect("status after the heal");
    assert!(
        (status.datasets[0].spent - 0.5).abs() < 1e-12,
        "exactly the two acknowledged releases are debited: {:?}",
        status.datasets[0]
    );

    logs.push(server.shutdown());
    logs.push(worker.shutdown());
    assert_no_panics(&logs);
}

#[test]
fn wedged_dataset_serves_status_while_others_keep_serving() {
    // The degraded-mode acceptance: after its journal wedges, a dataset keeps
    // answering `status` (flagged degraded) but refuses ε-spending queries with a
    // structured `unavailable` code — and *other* datasets are untouched.
    if !pb_fault::is_compiled() {
        return;
    }
    let scratch = Scratch::new("wedge");
    let data = write_fixture(&scratch);
    let state = scratch.0.join("state").to_string_lossy().into_owned();
    let a = format!("a={data}");
    let b = format!("b={data}");
    let args = [
        "--dataset",
        a.as_str(),
        "--dataset",
        b.as_str(),
        "--budget",
        "10",
        "--state-dir",
        state.as_str(),
        "--admin-token",
        "tok",
    ];

    let server = Server::spawn(&args, &[]);
    let mut client = server.client();
    client.query("a", 4, 0.5, Some(1)).expect("healthy a");
    client.query("b", 4, 0.5, Some(1)).expect("healthy b");

    // Wedge `a`: the next journal fsync (a's, because the next query is a's) fails.
    match client.faults("tok", "journal.fsync=fail-once") {
        Ok(AdminReply::FaultsArmed { armed, .. }) => assert_eq!(armed, 1),
        other => panic!("arming must succeed: {other:?}"),
    }
    let failed = client.query("a", 4, 0.5, Some(2)).unwrap_err();
    assert!(matches!(failed, ClientError::Server(_)), "{failed}");

    // Status keeps serving and reports the degradation; the failed debit stays
    // *counted* (its durability is unknown — fail closed, never under-count).
    let status = client.status().expect("status with a wedged dataset");
    let row_a = status.datasets.iter().find(|r| r.name == "a").unwrap();
    let row_b = status.datasets.iter().find(|r| r.name == "b").unwrap();
    assert!(row_a.degraded, "{row_a:?}");
    assert!((row_a.spent - 1.0).abs() < 1e-12, "{row_a:?}");
    assert!(!row_b.degraded, "{row_b:?}");

    // Further spends on `a` are refused with the structured code — the injected fault
    // is long spent; it is the wedge, not the fault, refusing.
    match client.query("a", 4, 0.5, Some(3)).unwrap_err() {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::Unavailable, "{e}");
            assert!(e.message.contains("degraded"), "{e}");
        }
        other => panic!("expected a structured refusal, got {other}"),
    }
    // `b` keeps serving normally.
    client.query("b", 4, 0.5, Some(2)).expect("b keeps serving");
    let log = server.kill9();
    assert_no_panics(&[log]);

    // A restart recovers `a`: the wedge was in-process state, the ledger is durable.
    let server = Server::spawn(&args, &[]);
    let mut client = server.client();
    let status = client.status().expect("status after restart");
    let row_a = status.datasets.iter().find(|r| r.name == "a").unwrap();
    assert!(!row_a.degraded);
    assert!((row_a.spent - 1.0).abs() < 1e-12, "{row_a:?}");
    client.query("a", 4, 0.5, Some(4)).expect("a serves again");
    let log = server.shutdown();
    assert_no_panics(&[log]);
}

#[test]
fn corrupted_journal_fails_loudly_on_restart() {
    // Corruption is never repaired into silence: a flipped byte in a journal record
    // must abort recovery with a loud checksum error, not serve a guessed ledger.
    // (Needs no failpoints — runs fully in default builds too.)
    let scratch = Scratch::new("corrupt");
    let data = write_fixture(&scratch);
    let state_path = scratch.0.join("state");
    let state = state_path.to_string_lossy().into_owned();
    let dataset = format!("d={data}");
    let args = [
        "--dataset",
        dataset.as_str(),
        "--budget",
        "10",
        "--state-dir",
        state.as_str(),
    ];

    let server = Server::spawn(&args, &[]);
    let mut client = server.client();
    for seed in [1, 2, 3] {
        client.query("d", 4, 0.5, Some(seed)).expect("query");
    }
    // SIGKILL so the journal keeps its records (a clean shutdown may compact them
    // away); every acknowledged debit above is already fsynced.
    server.kill9();

    // Flip the last byte of the journal: a full-length record with a bad payload CRC
    // is provably corruption, not a torn tail.
    let wal = std::fs::read_dir(&state_path)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "wal"))
        .expect("journal file");
    let mut bytes = std::fs::read(&wal).unwrap();
    assert!(bytes.len() > 16, "journal too short to hold a record");
    *bytes.last_mut().unwrap() ^= 0xFF;
    std::fs::write(&wal, bytes).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_privbasis-cli"))
        .arg("serve")
        .args(["--port", "0", "--state-dir", &state])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run server over the corrupted journal");
    assert!(
        !output.status.success(),
        "recovery over a corrupted journal must fail, not serve"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("checksum mismatch"),
        "the failure must name the corruption: {stderr}"
    );
}

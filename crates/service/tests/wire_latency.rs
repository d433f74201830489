//! Wire-latency regression guard: replies larger than 8 KiB come back without a
//! delayed-ACK stall on every protocol path.
//!
//! A message split across two writes lets Nagle's algorithm hold its small tail (the
//! lone `\n`, or an HTTP body written after its head) until the peer's delayed ACK —
//! at least 40 ms on Linux — while the peer waits for the rest of the message before
//! it answers anything. Each path below is driven 15 times against in-process servers
//! with a reply over 8 KiB (asserted, so the small-reply path can never stand in for
//! it), and the median round trip must stay under 20 ms: a stalled path lands at
//! ≥ 40 ms, the one-write path runs at about a millisecond.
//!
//! * a line-protocol reply through [`PbClient::raw_line`],
//! * a keep-alive HTTP `GET /metrics`,
//! * [`RemoteShard::bin_histograms`] against a shard worker (a 12-item basis, 4096
//!   bins), the fabric leg of every remotely placed query.

use pb_dp::Epsilon;
use pb_fim::{ItemSet, TransactionDb};
use pb_proto::PbClient;
use pb_service::{DatasetRegistry, PbServer, ServiceConfig};
use pb_shard::{Fabric, RemoteShard, RowRange};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round trips per path.
const ROUND_TRIPS: usize = 15;

/// Median ceiling: well under the 40 ms delayed-ACK floor, far above the fixed path.
const MEDIAN_CEILING: Duration = Duration::from_millis(20);

/// A reply must exceed this to exercise the large-message path (the size at which a
/// buffered writer used to split a message in two).
const LARGE_REPLY: usize = 8 * 1024;

/// Small datasets registered beside the main one (each adds a status entry and a set
/// of labelled metric series).
const DATASETS: u32 = 64;

/// The 12 items of the histogram basis.
const BASIS_WIDTH: u32 = 12;

/// Rows over `BASIS_WIDTH` items in which every subset of them occurs (three times).
fn fixture_db() -> TransactionDb {
    let rows: Vec<Vec<u32>> = (0..3u32 << BASIS_WIDTH)
        .map(|i| (0..BASIS_WIDTH).filter(|bit| (i >> bit) & 1 == 1).collect())
        .collect();
    TransactionDb::from_transactions(rows)
}

/// Starts an in-process server with an HTTP listener; returns `(line, http)` addresses.
fn coordinator() -> (SocketAddr, SocketAddr) {
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("wide", fixture_db(), Epsilon::Finite(1.0e6))
        .unwrap();
    // Many small datasets make the status reply and the exposition large.
    for i in 0..DATASETS {
        let rows = vec![vec![0, 1], vec![1, 2], vec![i % 3]];
        registry
            .register(
                format!("tiny-{i:02}"),
                TransactionDb::from_transactions(rows),
                Epsilon::Finite(10.0),
            )
            .unwrap();
    }
    let config = ServiceConfig {
        threads: 2,
        http_port: Some(0),
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", registry, config).expect("bind coordinator");
    let addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().expect("http configured").unwrap();
    std::thread::spawn(move || server.run());
    (addr, http_addr)
}

/// Starts an in-process shard worker.
fn worker() -> SocketAddr {
    let config = ServiceConfig {
        worker: true,
        threads: 2,
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", Arc::new(DatasetRegistry::new()), config)
        .expect("bind shard worker");
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    addr
}

/// Times `ROUND_TRIPS` calls of `round_trip` and asserts their median.
fn assert_fast_median(path: &str, mut round_trip: impl FnMut()) {
    let mut times: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let start = Instant::now();
            round_trip();
            start.elapsed()
        })
        .collect();
    times.sort();
    let median = times[ROUND_TRIPS / 2];
    assert!(
        median < MEDIAN_CEILING,
        "{path}: median round trip {median:?} (all: {times:?}) — a message is being split \
         across writes and stalls on the peer's delayed ACK"
    );
}

#[test]
fn large_line_replies_do_not_stall() {
    let (addr, _) = coordinator();
    let mut client = PbClient::connect(addr).unwrap();
    let request = r#"{"v":2,"id":"s","op":"status"}"#;
    let reply = client.raw_line(request).unwrap();
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    assert!(
        reply.len() > LARGE_REPLY,
        "precondition: the reply must exceed {LARGE_REPLY} bytes, got {}",
        reply.len()
    );
    assert_fast_median("line reply", || {
        assert!(client.raw_line(request).unwrap().len() > LARGE_REPLY);
    });
}

#[test]
fn keep_alive_metrics_scrapes_do_not_stall() {
    let (addr, http_addr) = coordinator();
    // Populate the per-stage histograms so the exposition is large.
    let mut client = PbClient::connect(addr).unwrap();
    for seed in 0..4 {
        client.query("wide", 20, 1.0, Some(seed)).unwrap();
    }
    let stream = TcpStream::connect(http_addr).unwrap();
    // The test's own requests go out in one write with Nagle off, so only the
    // server's reply path is under test.
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut scrape = || -> usize {
        writer
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let mut content_length = None;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(value) = line.strip_prefix("Content-Length: ") {
                content_length = Some(value.parse::<usize>().unwrap());
            }
            if line.starts_with("HTTP/1.1") {
                assert!(line.starts_with("HTTP/1.1 200"), "{line}");
            }
        }
        let mut body = vec![0u8; content_length.expect("Content-Length header")];
        reader.read_exact(&mut body).unwrap();
        body.len()
    };
    let size = scrape();
    assert!(
        size > LARGE_REPLY,
        "precondition: the exposition must exceed {LARGE_REPLY} bytes, got {size}"
    );
    assert_fast_median("keep-alive GET /metrics", || {
        scrape();
    });
}

#[test]
fn remote_bin_histograms_do_not_stall() {
    let worker = worker();
    let fabric = Arc::new(Fabric::default());
    let db = Arc::new(fixture_db());
    let shard = RemoteShard::connect(
        worker,
        "wide/0".to_string(),
        RowRange::new(Arc::clone(&db), 0..db.len()),
        Arc::clone(&fabric),
    )
    .expect("seed the worker");
    let basis = ItemSet::new((0..BASIS_WIDTH).collect());

    // The same request over a raw line, to measure the worker's reply size.
    let mut client = PbClient::connect(worker).unwrap();
    let items: Vec<String> = basis.iter().map(|item| item.to_string()).collect();
    let raw = client
        .raw_line(&format!(
            r#"{{"v":2,"id":"h","op":"shard_histograms","key":"wide/0","bases":[[{}]]}}"#,
            items.join(",")
        ))
        .unwrap();
    assert!(
        raw.len() > LARGE_REPLY,
        "precondition: the histogram reply must exceed {LARGE_REPLY} bytes, got {}: {}",
        raw.len(),
        &raw[..raw.len().min(200)]
    );

    let bases = [basis];
    assert_fast_median("RemoteShard::bin_histograms", || {
        let hists = shard.bin_histograms(&bases);
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].len(), 1 << BASIS_WIDTH);
    });
    assert_eq!(fabric.failures(), 0, "{}", fabric.last_error());
}

#[test]
fn an_embedded_newline_is_refused_and_the_connection_stays_in_step() {
    let (addr, _) = coordinator();
    let mut client = PbClient::connect(addr).unwrap();
    // Sent as-is, this would frame as two requests; the second reply would then be
    // read as the answer to the next call.
    let err = client.raw_line("a\nb").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidInput);
    client
        .status()
        .expect("the next request gets its own reply");
    let reply = client.query("wide", 3, 1.0, Some(1)).unwrap();
    assert!(!reply.itemsets.is_empty());
}

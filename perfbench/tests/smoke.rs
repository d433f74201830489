//! Smoke test of the benchmark itself: on tiny inputs every workload runs briefly,
//! untraced and traced, and reports every named metric, finite and with its unit,
//! with every reply verified.
//!
//! Needs the server binary: `PERFBENCH_CLI=path/to/privbasis-cli`, or else the test
//! builds it (release) into its own scratch target directory first.
//!
//!     cargo test --release --manifest-path perfbench/Cargo.toml

use perfbench::workload::{Workload, ALL};
use perfbench::{run, Options, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

fn cli() -> &'static PathBuf {
    static CLI: OnceLock<PathBuf> = OnceLock::new();
    CLI.get_or_init(|| {
        if let Some(path) = std::env::var_os("PERFBENCH_CLI") {
            return PathBuf::from(path);
        }
        let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "privbasis-cli",
            ])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building privbasis-cli failed");
        target.join("release").join("privbasis-cli")
    })
}

fn run_tiny(workload: Workload, trace: bool) -> Report {
    let report = run(&Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        cli: cli().clone(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("run-{}", u8::from(trace))),
        tiny: true,
    })
    .unwrap_or_else(|e| panic!("{} run failed: {e}", workload.name()));
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, expected, "{}: metric names and units", workload.name());
    for m in &report.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
    assert!(report.attempted > 0 && report.failed == 0);
    report
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .expect("metric present")
        .value
}

fn smoke(workload: Workload) {
    let untraced = run_tiny(workload, false);
    assert_eq!(metric(&untraced, "verified_ratio"), 1.0);
    let traced = run_tiny(workload, true);
    assert_eq!(metric(&traced, "shard.failures"), 0.0);
    // Set-up primes every k the timed queries use.
    assert_eq!(metric(&traced, "context.theta_misses"), 0.0);
    // The result line is one JSON object with exactly the four keys.
    let json = traced.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(!json.contains('\n'));
}

#[test]
fn warm_http_smoke() {
    smoke(Workload::WarmHttp);
}

#[test]
fn remote_fabric_smoke() {
    smoke(Workload::RemoteFabric);
}

#[test]
fn a_seed_regenerates_identical_inputs() {
    for workload in ALL {
        let (a, b) = (workload.inputs(3, true), workload.inputs(3, true));
        assert_eq!(a.fimi, b.fimi, "{}", workload.name());
        assert_eq!(a.queries, b.queries, "{}", workload.name());
        assert_eq!(a.warm, b.warm, "{}", workload.name());
        let other = workload.inputs(4, true);
        assert_ne!(
            a.queries,
            other.queries,
            "{}: the seed picks the queries",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = pb_proto::Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(|v| v.as_str())
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ALL.map(|w| w.name().to_string()));
}

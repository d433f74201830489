//! Proves every lint is live: the seeded-violation fixture tree under
//! `tests/fixtures/violations/` must produce exactly the findings pinned in
//! `tests/fixtures/expected.json` — same files, same lines, same lints, same
//! messages, same JSON bytes. CI runs the same comparison via
//! `pb-audit --json` + `diff`, so this test and the CI gate can never drift
//! apart: both read the one committed golden.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

#[test]
fn fixture_tree_produces_exactly_the_expected_findings() {
    let report = pb_audit::audit(&fixture_root()).expect("fixture tree is readable");
    let got: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.lint))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/core/src/clock.rs", 4, "wall-clock"),
            ("crates/core/src/lib.rs", 10, "hash-iter"),
            ("crates/core/src/lib.rs", 16, "bad-pragma"),
            ("crates/fim/src/fanout.rs", 4, "thread-spawn"),
            ("crates/fim/src/lib.rs", 6, "noise-seam"),
            ("crates/fim/src/lib.rs", 7, "noise-seam"),
            ("crates/ldp/src/lib.rs", 4, "ldp-no-debit"),
            ("crates/ldp/src/lib.rs", 5, "ldp-no-debit"),
            ("crates/proto/src/lib.rs", 1, "unsafe-forbid"),
            ("crates/service/src/lib.rs", 6, "panic-path"),
            ("crates/service/src/persist.rs", 7, "failpoint-adjacency"),
        ]
    );
}

#[test]
fn every_lint_is_proven_live_by_a_fixture() {
    let report = pb_audit::audit(&fixture_root()).expect("fixture tree is readable");
    for (lint, _) in pb_audit::LINTS {
        assert!(
            report.findings.iter().any(|d| d.lint == *lint),
            "lint `{lint}` has no fixture that triggers it — it could be dead"
        );
    }
}

#[test]
fn json_rendering_matches_the_committed_golden() {
    let report = pb_audit::audit(&fixture_root()).expect("fixture tree is readable");
    let rendered = pb_audit::render_json(&report.findings);
    let golden = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.json"),
    )
    .expect("expected.json is committed");
    assert_eq!(
        rendered, golden,
        "pb-audit --json over the fixture tree drifted from tests/fixtures/expected.json; \
         if the change is intentional, regenerate the golden with \
         `cargo run -p pb-audit -- --root crates/audit/tests/fixtures/violations --json`"
    );
}

#[test]
fn empty_reason_pragma_suppresses_nothing() {
    // The fixture's `// audit:allow(hash-iter):` (line 16) is malformed; beyond
    // being reported itself, it must not silence any hash-iter finding.
    let report = pb_audit::audit(&fixture_root()).expect("fixture tree is readable");
    assert!(report
        .findings
        .iter()
        .any(|d| d.lint == "hash-iter" && d.file == "crates/core/src/lib.rs"));
}

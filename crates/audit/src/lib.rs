//! `pb-audit` — the workspace invariant linter.
//!
//! The repo's correctness story rests on contracts no compiler checks: noise is
//! drawn once, in fixed order, post-merge; releases are byte-identical across
//! engines, shards, and protocols; every durability seam carries a failpoint;
//! server code never panics on request paths; local-model code never touches
//! the central ledger. `pb-audit` checks those contracts mechanically — a
//! hand-rolled lexer (strings, raw strings, nested comments, attributes;
//! panic-free on arbitrary bytes) feeds eight codebase-specific lints
//! over every shipped source file, with `// audit:allow(<lint>): <reason>`
//! pragmas (reason required) as the reviewed escape hatch.
//!
//! Run it with `cargo run -p pb-audit` from the workspace root, or
//! `privbasis-cli audit`. CI runs it twice: over the workspace (zero findings)
//! and over the seeded-violation fixture tree (exactly the expected findings).

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod source;
pub mod walk;

pub use diag::{render_json, Diagnostic};
pub use lints::LINTS;

use std::path::Path;

/// The result of auditing a tree.
pub struct Report {
    /// Canonically sorted findings (file, line, lint, message).
    pub findings: Vec<Diagnostic>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

/// Audits the workspace rooted at `root` (the directory holding `crates/` and
/// `src/`). IO errors (unreadable root, vanished files) are returned, not
/// panicked.
pub fn audit(root: &Path) -> std::io::Result<Report> {
    let files = walk::load_workspace(root)?;
    let findings = lints::run_lints(&files);
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

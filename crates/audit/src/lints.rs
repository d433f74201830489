//! The eight workspace invariant lints.
//!
//! Each lint encodes a contract no compiler checks (see the README's "Static
//! analysis & invariants" table for why each is privacy- or byte-identity-
//! load-bearing). Lints are lexical: they run over [`SourceFile`] token
//! streams, never type information, so each one is written to err toward
//! flagging — the `// audit:allow(<lint>): <reason>` pragma is the escape
//! hatch, and an empty reason is itself a finding.

use crate::diag::{sort_canonical, Diagnostic};
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Lint registry: (name, one-line description). `bad-pragma` is the engine's
/// own lint for malformed suppressions and is not independently runnable.
pub const LINTS: &[(&str, &str)] = &[
    (
        "hash-iter",
        "no hash-ordered iteration in release-path crates (core/dp/fim/ldp/proto/shard) unless sorted or annotated",
    ),
    (
        "noise-seam",
        "RNG and noise draws only inside pb-dp and the core/src/freq.rs seam",
    ),
    (
        "panic-path",
        "no unwrap/expect/panic! in non-test server code (service/proto/fault)",
    ),
    (
        "failpoint-adjacency",
        "every fsync/rename/File::create in persist.rs pairs with a pb_fault::inject! site",
    ),
    (
        "wall-clock",
        "SystemTime/Instant forbidden in deterministic crates",
    ),
    (
        "unsafe-forbid",
        "#![forbid(unsafe_code)] present in every crate root",
    ),
    (
        "ldp-no-debit",
        "LDP code never reaches the central BudgetLedger: pb-ldp is ledger-free and *ldp* functions in serving crates never debit",
    ),
    (
        "thread-spawn",
        "no thread::spawn/thread::scope/thread::Builder in core/fim/shard outside the counting pool (crates/fim/src/pool.rs)",
    ),
    ("bad-pragma", "audit:allow pragmas must parse and carry a non-empty reason"),
];

/// Crates whose released bytes must be independent of hash iteration order.
const HASH_ITER_CRATES: &[&str] = &["core", "dp", "fim", "ldp", "proto", "shard"];
/// Crates where RNG/noise tokens are forbidden outside the allowlisted seam.
const NOISE_CRATES: &[&str] = &[
    "core",
    "fim",
    "graph",
    "metrics",
    "privbasis",
    "proto",
    "service",
    "shard",
    "tf",
];
/// The single file outside pb-dp allowed to draw noise (Algorithm 1's
/// fixed-order post-merge draw).
const NOISE_SEAM_FILES: &[&str] = &["crates/core/src/freq.rs"];
/// Server-side crates where a panic is a shed connection, not a crash report.
const PANIC_CRATES: &[&str] = &["fault", "proto", "service", "trace"];
/// Crates whose outputs must be reproducible from (data, seed) alone. `trace` is
/// deliberately on this list even though it exists to measure time: it only ever sees
/// opaque `u64` tokens minted by the service layer, so it must stay lexically
/// wall-clock-free like the mechanism crates it observes.
const WALLCLOCK_CRATES: &[&str] = &[
    "core", "datagen", "dp", "fim", "graph", "ldp", "metrics", "proto", "shard", "tf", "trace",
];

/// The one crate that must never see the central privacy accountant: local-model
/// reports are privatized on the client, so a ledger reference here is a
/// category error, not a budget bug.
const LDP_CRATE: &str = "ldp";
/// Crates that *serve* LDP datasets next to central ones. Inside them, any
/// function whose name mentions `ldp` is an LDP-mode code path and must stay
/// lexically ledger-free — the `mode: ldp` no-debit guarantee is by
/// construction, and this keeps a refactor from quietly re-threading a ledger.
const LDP_CARRYING_CRATES: &[&str] = &["privbasis", "proto", "service", "shard"];
/// Identifiers that mean "the central accountant" wherever they appear.
const LEDGER_IDENTS: &[&str] = &["BudgetLedger", "pb_dp", "try_spend"];

/// Crates on the query path: their per-query fan-out runs on the counting pool, so
/// a thread started anywhere else in them is a per-query spawn in waiting.
const THREAD_SPAWN_CRATES: &[&str] = &["core", "fim", "shard"];
/// The one file in those crates allowed to start threads: the pool itself.
const THREAD_POOL_FILE: &str = "crates/fim/src/pool.rs";
/// `std::thread` items that start a thread.
const THREAD_STARTERS: &[&str] = &["spawn", "scope", "Builder"];

/// Methods that iterate a collection in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];
/// A statement containing one of these is considered sorted.
const SORT_IDENTS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];
/// Collecting into one of these is order-insensitive (ordered containers
/// re-sort; hash containers only change their own storage order).
const ORDER_FREE_COLLECT: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap", "HashMap", "HashSet"];

/// RNG/noise identifiers flagged when called as a method or `::` path item.
const NOISE_METHODS: &[&str] = &[
    "sample",
    "add_noise",
    "gen",
    "gen_range",
    "gen_bool",
    "next_u64",
    "seed_from_u64",
    "from_entropy",
];
/// RNG/noise identifiers flagged on any call.
const NOISE_FNS: &[&str] = &[
    "sample_laplace",
    "laplace_mechanism",
    "sample_without_replacement",
    "exponential_mechanism",
    "report_noisy_max",
    "noisy_max_without_replacement",
    "thread_rng",
];
/// RNG types flagged when used as a path (`StdRng::…`).
const NOISE_TYPES: &[&str] = &["StdRng", "SmallRng"];

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// How many lines an `inject!` may precede (or trail) an IO call and still
/// count as its failpoint.
const FAILPOINT_BEFORE: u32 = 4;
const FAILPOINT_AFTER: u32 = 1;

/// Runs every lint over the loaded workspace and returns canonically sorted
/// findings.
pub fn run_lints(files: &[SourceFile]) -> Vec<Diagnostic> {
    let hash_fns = collect_hash_returning_fns(files);
    let mut findings = Vec::new();
    for file in files {
        let mut sink = Sink {
            file,
            seen: BTreeSet::new(),
            out: &mut findings,
        };
        pragma_lint(file, &mut sink);
        if HASH_ITER_CRATES.contains(&file.crate_name.as_str()) {
            hash_iter_lint(file, &hash_fns, &mut sink);
        }
        if NOISE_CRATES.contains(&file.crate_name.as_str())
            && !NOISE_SEAM_FILES.contains(&file.rel_path.as_str())
        {
            noise_seam_lint(file, &mut sink);
        }
        if PANIC_CRATES.contains(&file.crate_name.as_str()) {
            panic_path_lint(file, &mut sink);
        }
        if file.file_name() == "persist.rs" {
            failpoint_adjacency_lint(file, &mut sink);
        }
        if WALLCLOCK_CRATES.contains(&file.crate_name.as_str()) {
            wall_clock_lint(file, &mut sink);
        }
        if is_crate_root(&file.rel_path) {
            unsafe_forbid_lint(file, &mut sink);
        }
        if file.crate_name == LDP_CRATE || LDP_CARRYING_CRATES.contains(&file.crate_name.as_str()) {
            ldp_no_debit_lint(file, &mut sink);
        }
        if THREAD_SPAWN_CRATES.contains(&file.crate_name.as_str())
            && file.rel_path != THREAD_POOL_FILE
        {
            thread_spawn_lint(file, &mut sink);
        }
    }
    sort_canonical(&mut findings);
    findings
}

/// Emits findings with test-region filtering, pragma suppression, and
/// per-(lint, line) dedup.
struct Sink<'a> {
    file: &'a SourceFile,
    seen: BTreeSet<(&'static str, u32)>,
    out: &'a mut Vec<Diagnostic>,
}

impl Sink<'_> {
    fn emit(&mut self, lint: &'static str, tok: &Token, message: String) {
        if self.file.is_test_offset(tok.start) {
            return;
        }
        if self.file.suppressed(lint, tok.line) {
            return;
        }
        if !self.seen.insert((lint, tok.line)) {
            return;
        }
        self.out.push(Diagnostic {
            lint,
            file: self.file.rel_path.clone(),
            line: tok.line,
            message,
        });
    }

    /// For findings not tied to a token (missing attributes, pragma problems).
    fn emit_at(&mut self, lint: &'static str, line: u32, message: String) {
        if !self.seen.insert((lint, line)) {
            return;
        }
        self.out.push(Diagnostic {
            lint,
            file: self.file.rel_path.clone(),
            line,
            message,
        });
    }
}

/// Reports malformed pragmas and pragmas naming unknown lints.
fn pragma_lint(file: &SourceFile, sink: &mut Sink) {
    for p in &file.pragmas {
        if let Some(problem) = &p.problem {
            sink.emit_at("bad-pragma", p.line, problem.clone());
        } else if !LINTS.iter().any(|(name, _)| *name == p.lint) {
            sink.emit_at(
                "bad-pragma",
                p.line,
                format!("pragma names unknown lint `{}`", p.lint),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// hash-iter
// ---------------------------------------------------------------------------

/// Names of functions anywhere in the workspace whose declared return type
/// mentions `HashMap`/`HashSet`; calling one of these and iterating the result
/// is hash-order iteration even though no local is hash-typed.
fn collect_hash_returning_fns(files: &[SourceFile]) -> BTreeSet<String> {
    let mut fns = BTreeSet::new();
    for file in files {
        let src = &file.bytes;
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident(src, "fn") {
                continue;
            }
            let Some(name_tok) = toks.get(i + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue;
            }
            // Find `->` at paren depth 0 before the body/terminator.
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut arrow = None;
            while j < toks.len() && j < i + 160 {
                let t = &toks[j];
                if t.kind == TokenKind::Punct {
                    match t.bytes(src)[0] {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        b'{' | b';' if depth == 0 => break,
                        b'-' if depth == 0
                            && toks.get(j + 1).is_some_and(|n| n.is_punct(src, b'>')) =>
                        {
                            arrow = Some(j + 2);
                            break;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            let Some(ret_start) = arrow else { continue };
            let mut k = ret_start;
            while k < toks.len() && k < ret_start + 64 {
                let t = &toks[k];
                if t.kind == TokenKind::Punct && matches!(t.bytes(src)[0], b'{' | b';') {
                    break;
                }
                if t.is_ident(src, "where") {
                    break;
                }
                if t.is_ident(src, "HashMap") || t.is_ident(src, "HashSet") {
                    fns.insert(name_tok.text(src).into_owned());
                    break;
                }
                k += 1;
            }
        }
    }
    fns
}

/// A hash-typed identifier record: the name plus the code-token range it is
/// visible in. Bindings declared inside a `fn` body are scoped to that body so
/// a `merged` that is a `HashMap` in one function does not taint a `merged`
/// that is a `Vec` in the next; struct fields and other top-level declarations
/// are visible file-wide.
struct HashIdent {
    name: String,
    scope: (usize, usize),
    /// Declared at file scope (struct field / const), not inside a `fn` body.
    /// A dotted receiver (`x.name.iter()`) is a field access, so it only
    /// matches file-scope records — a local `items: HashSet` must not taint
    /// `f.items` where `items` is somebody else's sorted field.
    top_level: bool,
}

/// The code-token range of the innermost `fn` body containing code index `i`,
/// or the whole file for top-level positions.
fn fn_scope(src: &[u8], code: &[&Token], i: usize) -> (usize, usize) {
    let mut best: Option<(usize, usize)> = None;
    let mut k = 0;
    while k < code.len() {
        if code[k].is_ident(src, "fn") {
            // Find the body `{` at paren depth 0, then its matching `}`.
            let mut depth = 0i32;
            let mut j = k + 1;
            let mut body = None;
            while j < code.len() {
                let t = code[j];
                if t.kind == TokenKind::Punct {
                    match t.bytes(src)[0] {
                        b'(' | b'[' | b'{' if depth > 0 => depth += 1,
                        b'(' | b'[' => depth += 1,
                        b')' | b']' | b'}' => depth -= 1,
                        b'{' => {
                            body = Some(j);
                            break;
                        }
                        b';' if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some(open) = body {
                if let Some(close) = match_code_brace(src, code, open) {
                    if open <= i && i <= close {
                        // Innermost wins: keep the latest-starting enclosing fn.
                        if best.is_none_or(|(s, _)| open >= s) {
                            best = Some((open, close));
                        }
                    }
                    if close < i {
                        k = close; // skip bodies entirely before i
                    }
                }
            }
        }
        k += 1;
    }
    best.unwrap_or((0, code.len()))
}

/// Index of the `}` matching the `{` at code index `open`.
fn match_code_brace(src: &[u8], code: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.bytes(src)[0] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Identifiers in this file whose declared type or initializer is a
/// `HashMap`/`HashSet`: annotated bindings/params/fields (`name: HashMap<…>`),
/// `let name = HashMap::new()`-style initializers, `collect()`s with a hash
/// target, and bindings initialized from a hash-returning function.
fn collect_hash_idents(file: &SourceFile, hash_fns: &BTreeSet<String>) -> Vec<HashIdent> {
    let src = &file.bytes;
    let toks = &file.tokens;
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let mut idents = Vec::new();

    for i in 0..code.len() {
        // `name : Type` (not `::`).
        if code[i].kind == TokenKind::Ident
            && i + 2 < code.len()
            && code[i + 1].is_punct(src, b':')
            && !code[i + 2].is_punct(src, b':')
            && (i == 0 || !code[i - 1].is_punct(src, b':'))
        {
            let mut angle = 0i32;
            let mut j = i + 2;
            while j < code.len() && j < i + 66 {
                let t = code[j];
                if t.kind == TokenKind::Punct {
                    match t.bytes(src)[0] {
                        b'<' => angle += 1,
                        b'>' => angle -= 1,
                        b',' | b')' | b';' | b'=' | b'{' | b'}' if angle <= 0 => break,
                        _ => {}
                    }
                }
                if t.is_ident(src, "HashMap") || t.is_ident(src, "HashSet") {
                    let scope = fn_scope(src, &code, i);
                    idents.push(HashIdent {
                        name: code[i].text(src).into_owned(),
                        top_level: scope == (0, code.len()),
                        scope,
                    });
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = expr ;`
        if code[i].is_ident(src, "let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_ident(src, "mut")) {
                j += 1;
            }
            let Some(name_tok) = code.get(j) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident
                || !code.get(j + 1).is_some_and(|t| t.is_punct(src, b'='))
            {
                continue;
            }
            let expr: Vec<&&Token> = code[j + 2..]
                .iter()
                .take(256)
                .take_while(|t| !t.is_punct(src, b';'))
                .collect();
            let has = |word: &str| expr.iter().any(|t| t.is_ident(src, word));
            let direct = expr
                .first()
                .is_some_and(|t| t.is_ident(src, "HashMap") || t.is_ident(src, "HashSet"));
            let hash_collect = has("collect") && (has("HashMap") || has("HashSet"));
            let from_hash_fn = !has("collect")
                && !SORT_IDENTS.iter().any(|s| has(s))
                && expr.iter().enumerate().any(|(k, t)| {
                    t.kind == TokenKind::Ident
                        && hash_fns.contains(t.text(src).as_ref())
                        && expr.get(k + 1).is_some_and(|n| n.is_punct(src, b'('))
                });
            if direct || hash_collect || from_hash_fn {
                let scope = fn_scope(src, &code, j);
                idents.push(HashIdent {
                    name: name_tok.text(src).into_owned(),
                    top_level: scope == (0, code.len()),
                    scope,
                });
            }
        }
    }
    idents
}

fn hash_iter_lint(file: &SourceFile, hash_fns: &BTreeSet<String>, sink: &mut Sink) {
    let src = &file.bytes;
    let idents = collect_hash_idents(file, hash_fns);
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();

    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        // `recv.iter()` / `recv().keys()` …
        if ITER_METHODS.contains(&text.as_ref())
            && i >= 2
            && code[i - 1].is_punct(src, b'.')
            && code.get(i + 1).is_some_and(|n| n.is_punct(src, b'('))
        {
            let mut r = i - 2;
            if code[r].is_punct(src, b'?') && r > 0 {
                r -= 1;
            }
            let receiver = if code[r].kind == TokenKind::Ident {
                let name = code[r].text(src);
                let dotted = r >= 1 && code[r - 1].is_punct(src, b'.');
                ident_matches(&idents, name.as_ref(), r, dotted).then(|| name.into_owned())
            } else if code[r].is_punct(src, b')') {
                open_paren_of(src, &code, r)
                    .and_then(|open| open.checked_sub(1))
                    .map(|f| code[f])
                    .filter(|f| {
                        f.kind == TokenKind::Ident && hash_fns.contains(f.text(src).as_ref())
                    })
                    .map(|f| format!("{}()", f.text(src)))
            } else {
                None
            };
            if let Some(recv) = receiver {
                if !statement_is_sorted(src, &code, i) {
                    sink.emit(
                        "hash-iter",
                        t,
                        format!(
                            "hash-order iteration `{recv}.{text}()` on a release path; sort first, collect into an ordered container, or annotate with `// audit:allow(hash-iter): <reason>`"
                        ),
                    );
                }
            }
        }
        // `for pat in <recv> {`
        if t.is_ident(src, "for") {
            if let Some((in_idx, brace_idx)) = for_loop_bounds(src, &code, i) {
                let recv = &code[in_idx + 1..brace_idx];
                let pure_path = !recv.is_empty()
                    && recv.iter().all(|t| {
                        t.kind == TokenKind::Ident || t.is_punct(src, b'.') || t.is_punct(src, b'&')
                    });
                let flagged = if pure_path {
                    let last_pos = recv
                        .iter()
                        .rposition(|t| t.kind == TokenKind::Ident && !t.is_ident(src, "mut"));
                    last_pos
                        .filter(|&p| {
                            let dotted = p >= 1 && recv[p - 1].is_punct(src, b'.');
                            ident_matches(&idents, recv[p].text(src).as_ref(), in_idx, dotted)
                        })
                        .map(|p| recv[p].text(src).into_owned())
                } else {
                    recv.iter()
                        .enumerate()
                        .find(|(k, t)| {
                            t.kind == TokenKind::Ident
                                && hash_fns.contains(t.text(src).as_ref())
                                && recv.get(k + 1).is_some_and(|n| n.is_punct(src, b'('))
                        })
                        .map(|(_, t)| format!("{}()", t.text(src)))
                };
                if let Some(what) = flagged {
                    sink.emit(
                        "hash-iter",
                        code[in_idx + 1],
                        format!(
                            "hash-order iteration `for … in {what}` on a release path; sort first, collect into an ordered container, or annotate with `// audit:allow(hash-iter): <reason>`"
                        ),
                    );
                }
            }
        }
    }
}

/// True when `name` is hash-typed at code index `i` (a record exists whose
/// scope contains `i`). A dotted receiver (`x.name`) is a field access, so it
/// only matches file-scope records — never locals that happen to share the
/// field's name.
fn ident_matches(idents: &[HashIdent], name: &str, i: usize, dotted: bool) -> bool {
    idents
        .iter()
        .any(|h| h.name == name && h.scope.0 <= i && i <= h.scope.1 && (!dotted || h.top_level))
}

/// The `(index of `in`, index of body `{`)` of a `for` loop headed at `for_idx`,
/// or None when this `for` is `impl … for …` or malformed.
fn for_loop_bounds(src: &[u8], code: &[&Token], for_idx: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut in_idx = None;
    for (k, t) in code.iter().enumerate().skip(for_idx + 1).take(64) {
        if t.kind == TokenKind::Punct {
            match t.bytes(src)[0] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => return in_idx.map(|i| (i, k)),
                b';' | b'}' => return None,
                _ => {}
            }
        } else if t.is_ident(src, "in") && depth == 0 {
            in_idx = Some(k);
        }
    }
    None
}

/// Index of the `(` matching the `)` at `close_idx`, scanning code backwards.
fn open_paren_of(src: &[u8], code: &[&Token], close_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in (0..=close_idx).rev() {
        if code[k].kind == TokenKind::Punct {
            match code[k].bytes(src)[0] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// True when the statement containing code index `i` — or the immediately
/// following statement (the `collect()` + `sort()` idiom) — sorts, or collects
/// into an order-insensitive container.
fn statement_is_sorted(src: &[u8], code: &[&Token], i: usize) -> bool {
    let start = (0..i)
        .rev()
        .find(|&k| {
            code[k].kind == TokenKind::Punct && matches!(code[k].bytes(src)[0], b';' | b'{' | b'}')
        })
        .map_or(0, |k| k + 1);
    let end = (i..code.len())
        .find(|&k| {
            code[k].kind == TokenKind::Punct && matches!(code[k].bytes(src)[0], b';' | b'{' | b'}')
        })
        .unwrap_or(code.len() - 1);
    let next_end = (end + 1..code.len())
        .find(|&k| {
            code[k].kind == TokenKind::Punct && matches!(code[k].bytes(src)[0], b';' | b'{' | b'}')
        })
        .unwrap_or(code.len() - 1);

    let stmt = &code[start..=end.min(code.len() - 1)];
    let has = |toks: &[&Token], word: &str| toks.iter().any(|t| t.is_ident(src, word));
    if SORT_IDENTS.iter().any(|s| has(stmt, s)) {
        return true;
    }
    if has(stmt, "collect") && ORDER_FREE_COLLECT.iter().any(|c| has(stmt, c)) {
        return true;
    }
    // collect-then-sort across two statements.
    let next = &code[end.min(code.len() - 1)..=next_end.min(code.len() - 1)];
    has(stmt, "collect") && SORT_IDENTS.iter().any(|s| has(next, s))
}

// ---------------------------------------------------------------------------
// noise-seam
// ---------------------------------------------------------------------------

fn noise_seam_lint(file: &SourceFile, sink: &mut Sink) {
    let src = &file.bytes;
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        let method_call = i >= 1
            && (code[i - 1].is_punct(src, b'.')
                || (i >= 2 && code[i - 1].is_punct(src, b':') && code[i - 2].is_punct(src, b':')))
            && code
                .get(i + 1)
                .is_some_and(|n| n.is_punct(src, b'(') || n.is_punct(src, b':'));
        let free_call = code.get(i + 1).is_some_and(|n| n.is_punct(src, b'('));
        let path_use = code.get(i + 1).is_some_and(|n| n.is_punct(src, b':'))
            && code.get(i + 2).is_some_and(|n| n.is_punct(src, b':'));
        let hit = (NOISE_METHODS.contains(&text.as_ref()) && method_call)
            || (NOISE_FNS.contains(&text.as_ref()) && free_call)
            || (NOISE_TYPES.contains(&text.as_ref()) && path_use);
        if hit {
            sink.emit(
                "noise-seam",
                t,
                format!(
                    "RNG/noise call `{text}` outside the pb-dp / core/src/freq.rs noise seam; a second draw double-spends ε — move it behind the seam or annotate with `// audit:allow(noise-seam): <reason>`"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

fn panic_path_lint(file: &SourceFile, sink: &mut Sink) {
    let src = &file.bytes;
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        let is_method = PANIC_METHODS.contains(&text.as_ref())
            && i >= 1
            && code[i - 1].is_punct(src, b'.')
            && code.get(i + 1).is_some_and(|n| n.is_punct(src, b'('));
        let is_macro = PANIC_MACROS.contains(&text.as_ref())
            && code.get(i + 1).is_some_and(|n| n.is_punct(src, b'!'))
            && (i == 0 || !code[i - 1].is_punct(src, b'.'));
        if is_method || is_macro {
            let what = if is_macro {
                format!("{text}!")
            } else {
                format!(".{text}()")
            };
            sink.emit(
                "panic-path",
                t,
                format!(
                    "`{what}` can panic in server code (a panicked worker is a shed connection); return a structured ErrorCode instead or annotate with `// audit:allow(panic-path): <reason>`"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// failpoint-adjacency
// ---------------------------------------------------------------------------

fn failpoint_adjacency_lint(file: &SourceFile, sink: &mut Sink) {
    let src = &file.bytes;
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let inject_lines: Vec<u32> = code
        .iter()
        .filter(|t| t.is_ident(src, "inject"))
        .map(|t| t.line)
        .collect();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        let durability_call = matches!(text.as_ref(), "sync_all" | "sync_data")
            && i >= 1
            && code[i - 1].is_punct(src, b'.');
        let rename_call =
            text == "rename" && code.get(i + 1).is_some_and(|n| n.is_punct(src, b'('));
        let create_call = text == "create"
            && i >= 3
            && code[i - 1].is_punct(src, b':')
            && code[i - 2].is_punct(src, b':')
            && code[i - 3].is_ident(src, "File");
        if !(durability_call || rename_call || create_call) {
            continue;
        }
        let covered = inject_lines.iter().any(|&l| {
            l + FAILPOINT_AFTER >= t.line
                && l <= t.line + FAILPOINT_BEFORE
                && l.abs_diff(t.line) <= FAILPOINT_BEFORE
        });
        if !covered {
            sink.emit(
                "failpoint-adjacency",
                t,
                format!(
                    "`{text}` has no adjacent pb_fault::inject! failpoint (within {FAILPOINT_BEFORE} lines); every durability seam must be crash-testable or annotated with `// audit:allow(failpoint-adjacency): <reason>`"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

fn wall_clock_lint(file: &SourceFile, sink: &mut Sink) {
    let src = &file.bytes;
    for t in &file.tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        if text == "SystemTime" || text == "Instant" {
            sink.emit(
                "wall-clock",
                t,
                format!(
                    "wall-clock type `{text}` in deterministic crate `{}`; releases must be reproducible from (data, seed) alone — move timing to the service layer or annotate with `// audit:allow(wall-clock): <reason>`",
                    file.crate_name
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// unsafe-forbid
// ---------------------------------------------------------------------------

/// True for files that are crate roots (lib/main/bin targets), where the
/// `#![forbid(unsafe_code)]` inner attribute must appear.
pub fn is_crate_root(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    matches!(
        parts.as_slice(),
        ["src", "lib.rs"]
            | ["src", "main.rs"]
            | ["src", "bin", _]
            | ["crates", _, "src", "lib.rs"]
            | ["crates", _, "src", "main.rs"]
            | ["crates", _, "src", "bin", _]
    )
}

fn unsafe_forbid_lint(file: &SourceFile, sink: &mut Sink) {
    let src = &file.bytes;
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if toks[i].is_punct(src, b'#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct(src, b'!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(src, b'['))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(src, "forbid"))
            && toks[i + 4..]
                .iter()
                .take(8)
                .any(|t| t.is_ident(src, "unsafe_code"))
        {
            return;
        }
    }
    sink.emit_at(
        "unsafe-forbid",
        1,
        "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
    );
}

// ---------------------------------------------------------------------------
// ldp-no-debit
// ---------------------------------------------------------------------------

/// Local-model reports are privatized on the client, so nothing downstream may
/// spend central budget on them. Two surfaces are checked lexically:
///
/// * anywhere in the `ldp` crate, a ledger identifier is a finding — pb-ldp
///   must not even *name* the central accountant;
/// * in the serving crates ([`LDP_CARRYING_CRATES`]), any `fn` whose name
///   mentions `ldp` is an LDP-mode code path, and a ledger identifier inside
///   its body means a refactor re-threaded a debit into the no-debit mode.
fn ldp_no_debit_lint(file: &SourceFile, sink: &mut Sink) {
    let src = &file.bytes;
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let whole_crate = file.crate_name == LDP_CRATE;

    let flag = |sink: &mut Sink, t: &Token, context: &str| {
        let text = t.text(src);
        sink.emit(
            "ldp-no-debit",
            t,
            format!(
                "central-ledger identifier `{text}` {context}; `mode: ldp` releases never debit the BudgetLedger — keep the local model ledger-free or annotate with `// audit:allow(ldp-no-debit): <reason>`"
            ),
        );
    };

    if whole_crate {
        for t in &code {
            if t.kind == TokenKind::Ident && LEDGER_IDENTS.contains(&t.text(src).as_ref()) {
                flag(sink, t, "inside the pb-ldp crate");
            }
        }
        return;
    }

    // Serving crates: scan only the bodies of `fn …ldp…` items.
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident(src, "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = code.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident
            || !name_tok.text(src).to_ascii_lowercase().contains("ldp")
        {
            i += 1;
            continue;
        }
        // Find the body `{` at bracket depth 0 (a `;` first means a trait decl).
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut body = None;
        while j < code.len() {
            let t = code[j];
            if t.kind == TokenKind::Punct {
                match t.bytes(src)[0] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => {
                        body = Some(j);
                        break;
                    }
                    b';' if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j.max(i + 1);
            continue;
        };
        let Some(close) = match_code_brace(src, &code, open) else {
            break;
        };
        for t in &code[open..=close] {
            if t.kind == TokenKind::Ident && LEDGER_IDENTS.contains(&t.text(src).as_ref()) {
                let context = format!("inside LDP code path `{}`", name_tok.text(src));
                flag(sink, t, &context);
            }
        }
        i = close + 1;
    }
}

// ---------------------------------------------------------------------------
// thread-spawn
// ---------------------------------------------------------------------------

/// Flags `thread::spawn`, `thread::scope` and `thread::Builder`, both as paths and
/// inside a `thread::{…}` import group, so a renamed import cannot hide one.
fn thread_spawn_lint(file: &SourceFile, sink: &mut Sink) {
    let src = &file.bytes;
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let after_thread_path = |i: usize| {
        i >= 3
            && code[i - 1].is_punct(src, b':')
            && code[i - 2].is_punct(src, b':')
            && code[i - 3].is_ident(src, "thread")
    };
    // Closing-brace index of a `thread::{…}` import group being scanned.
    let mut group_end = None;
    for i in 0..code.len() {
        let t = code[i];
        if t.is_punct(src, b'{') && after_thread_path(i) {
            group_end = match_code_brace(src, &code, i);
            continue;
        }
        let in_group = group_end.is_some_and(|end| i < end);
        if t.kind != TokenKind::Ident
            || !THREAD_STARTERS.contains(&t.text(src).as_ref())
            || !(in_group || after_thread_path(i))
        {
            continue;
        }
        sink.emit(
            "thread-spawn",
            t,
            format!(
                "`thread::{}` starts a thread in `{}`, on the query path; per-query fan-out runs on the counting pool (`pb_fim::pool`) — use it or annotate with `// audit:allow(thread-spawn): <reason>`",
                t.text(src),
                file.crate_name
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, crate_name: &str, src: &str) -> Vec<(u32, &'static str)> {
        let file = SourceFile::new(path.into(), crate_name.into(), src.as_bytes().to_vec());
        run_lints(&[file])
            .into_iter()
            .map(|d| (d.line, d.lint))
            .collect()
    }

    #[test]
    fn thread_spawn_sees_paths_and_import_groups_but_not_the_pool() {
        let src = "use std::thread::{self, Builder as B};\n\
                   fn f() { thread::spawn(|| ()); }\n\
                   fn g() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n";
        assert_eq!(
            findings("crates/shard/src/x.rs", "shard", src),
            vec![(1, "thread-spawn"), (2, "thread-spawn")]
        );
        assert!(findings("crates/fim/src/pool.rs", "fim", src).is_empty());
        assert!(findings("crates/service/src/x.rs", "service", src).is_empty());
    }
}

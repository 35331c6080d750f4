//! The repo-specific invariant rules and the scanner that applies them
//! to one source file's token stream.
//!
//! Every rule protects an invariant the compiler cannot see:
//!
//! - **D1** — simulated latency comes from `DeviceSim`/profile models,
//!   never wall-clock time. `Instant::now`/`SystemTime` are banned
//!   outside the bench timing bins (`crates/bench/`), which measure
//!   *host* wall-clock time on purpose.
//! - **D2** — no `HashMap`/`HashSet` in non-test code: iteration order
//!   is randomized per process, so a map that feeds results, reports, or
//!   serialized output is one refactor away from nondeterministic bytes.
//!   Use `BTreeMap`/`BTreeSet` or an explicit sort; pure-lookup sites
//!   may carry a `// lr-lint: allow(d2)` attestation.
//! - **D3** — no ambient randomness (`thread_rng`, `from_entropy`,
//!   `OsRng`): every random draw must flow from a plumbed seed or the
//!   run is unreproducible offline.
//! - **N1** — no `partial_cmp` in library code: float comparators must
//!   be NaN-total (`total_cmp`) so rankings and argmax never collapse to
//!   `Ordering::Equal` on a NaN and silently reorder.
//! - **P1** — `.unwrap()`/`.expect()` in non-test library code is
//!   inventoried and ratcheted downward; new panic sites need a typed
//!   error or an infallible restructuring.
//! - **O1** — no `println!`/`eprintln!`/`dbg!` in library crates: ad-hoc
//!   prints are invisible to the observability layer and pollute the
//!   bench artifacts' stdout. Diagnostics flow through `lr-obs` sinks;
//!   only the CLI surfaces (`crates/bench/`, `crates/lint/`,
//!   `examples/`) and the `lr-obs` sink layer itself may print.

use crate::lexer::{lex, Token, TokenKind};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock time outside the bench allowlist.
    D1,
    /// `HashMap`/`HashSet` in non-test code.
    D2,
    /// Ambient (non-seeded) randomness.
    D3,
    /// NaN-unsafe `partial_cmp`.
    N1,
    /// `.unwrap()` / `.expect()` inventory.
    P1,
    /// Print macros in library crates.
    O1,
}

/// All rules, in report order.
pub const ALL_RULES: [RuleId; 6] = [
    RuleId::D1,
    RuleId::D2,
    RuleId::D3,
    RuleId::N1,
    RuleId::P1,
    RuleId::O1,
];

impl RuleId {
    /// Canonical short name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::N1 => "N1",
            RuleId::P1 => "P1",
            RuleId::O1 => "O1",
        }
    }

    /// Parses a rule name, case-insensitively.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim().to_ascii_uppercase().as_str() {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "N1" => Some(RuleId::N1),
            "P1" => Some(RuleId::P1),
            "O1" => Some(RuleId::O1),
            _ => None,
        }
    }

    /// One-line summary used in report headers.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => "wall-clock time outside the bench allowlist",
            RuleId::D2 => "HashMap/HashSet in non-test code",
            RuleId::D3 => "ambient randomness (thread_rng/from_entropy/OsRng)",
            RuleId::N1 => "NaN-unsafe partial_cmp",
            RuleId::P1 => "unwrap()/expect() in non-test library code",
            RuleId::O1 => "println!/eprintln!/dbg! in library crates",
        }
    }

    /// Full explanation with the invariant and the expected fix.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "D1: simulated latency must come only from DeviceSim / profile models.\n\
                 \n\
                 Instant::now and SystemTime read the host wall clock, which makes a run's\n\
                 output depend on machine load instead of the seeded simulation. The only\n\
                 legitimate users are the bench timing bins (crates/bench/), which measure\n\
                 host wall-clock time on purpose and are allowlisted by path.\n\
                 \n\
                 Fix: charge virtual time through DeviceSim (charge / idle_until / now_ms)\n\
                 or take a clock value as an argument. There is no per-site suppression\n\
                 that makes wall-clock reads deterministic; move the code or the measurement."
            }
            RuleId::D2 => {
                "D2: no HashMap/HashSet in non-test code.\n\
                 \n\
                 std's hash maps randomize iteration order per process. Any map whose\n\
                 iteration feeds results, reports, or serialized output makes byte-identical\n\
                 reproduction (the LR_POOL_THREADS A/B contract) impossible; maps that are\n\
                 pure lookups today are one refactor away from being iterated.\n\
                 \n\
                 Fix: use BTreeMap/BTreeSet (all our keys are small and Ord), or collect\n\
                 and sort explicitly before anything order-sensitive. A site that is a pure\n\
                 lookup by construction may carry `// lr-lint: allow(d2)` on or above the\n\
                 line; suppressions are themselves counted and ratcheted."
            }
            RuleId::D3 => {
                "D3: no ambient randomness.\n\
                 \n\
                 thread_rng, from_entropy, and OsRng draw entropy from the environment, so\n\
                 two runs of the same configuration diverge. Every scheduler decision must\n\
                 be reproducible offline to be debuggable (ApproxDet/Virtuoso make the same\n\
                 point): all randomness flows from an explicit seed.\n\
                 \n\
                 Fix: plumb a seed (u64) to the construction site and use\n\
                 StdRng::seed_from_u64 or the splitmix64 helpers; derive per-stream seeds\n\
                 with a salt rather than drawing fresh entropy."
            }
            RuleId::N1 => {
                "N1: float comparators must be NaN-total.\n\
                 \n\
                 partial_cmp returns None on NaN; the usual `.unwrap_or(Equal)` fallback\n\
                 silently treats NaN as equal to everything, so one NaN reshuffles a sort\n\
                 (mAP rankings, branch argmax, salience order) without any error. total_cmp\n\
                 is a total order (IEEE 754 totalOrder) and costs the same.\n\
                 \n\
                 Fix: replace `a.partial_cmp(&b).unwrap_or(...)` with `a.total_cmp(&b)`;\n\
                 add a deterministic tie-break (e.g. `.then(i.cmp(&j))`) when sorting keyed\n\
                 items whose keys can collide."
            }
            RuleId::P1 => {
                "P1: unwrap()/expect() in non-test library code is inventoried.\n\
                 \n\
                 Panics on the serving hot path take down every co-scheduled stream, not\n\
                 just the offending one. The inventory is ratcheted: the committed baseline\n\
                 may only go down. Test code (#[cfg(test)] modules, #[test] fns, tests/ and\n\
                 benches/ directories) is exempt.\n\
                 \n\
                 Fix: restructure so the invariant is carried by types (e.g. compute the\n\
                 value once instead of re-deriving it behind an expect), return a typed\n\
                 error, or use infallible lookups. If a panic is genuinely the right\n\
                 behavior (corrupted internal state), keep it — the ratchet only requires\n\
                 that the total never grows."
            }
            RuleId::O1 => {
                "O1: no print macros in library crates.\n\
                 \n\
                 println!/eprintln!/print!/eprint!/dbg! in a library crate bypasses the\n\
                 observability layer: the output is invisible to trace analysis, interleaves\n\
                 nondeterministically under parallel stepping, and corrupts the stdout of\n\
                 bench binaries whose artifacts are byte-compared in CI. Diagnostics belong\n\
                 in lr-obs sinks (spans, decision records, metrics), which are deterministic\n\
                 and mergeable.\n\
                 \n\
                 Fix: record the fact through an ObsSink (span, counter, or decision field)\n\
                 or return it in a typed result. Only CLI surfaces print: the bench and lint\n\
                 binaries (crates/bench/, crates/lint/), the examples (examples/), and the\n\
                 lr-obs sink layer itself (crates/obs/). Test code is exempt as usual."
            }
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The trimmed source line, for human-readable reports.
    pub excerpt: String,
}

/// Scan result for one file: findings plus the suppression census.
#[derive(Debug, Clone, Default)]
pub struct FileScan {
    /// Violations found (suppressed sites excluded).
    pub findings: Vec<Finding>,
    /// Number of `lr-lint: allow(<rule>)` directives per rule, in
    /// [`ALL_RULES`] order. Counted whether or not they suppressed
    /// anything, so stale suppressions still ratchet.
    pub allows: [usize; ALL_RULES.len()],
}

fn rule_index(rule: RuleId) -> usize {
    ALL_RULES.iter().position(|&r| r == rule).unwrap_or(0)
}

/// True for paths whose whole content is test/bench code.
fn path_is_test(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches")
}

/// D1 allowlist: the bench harness measures host wall-clock time on purpose.
fn path_allows_wall_clock(path: &str) -> bool {
    path.starts_with("crates/bench/")
}

/// O1 allowlist: CLI surfaces whose job is to print, plus the lr-obs
/// sink layer (the sanctioned place where diagnostics become text).
fn path_allows_print(path: &str) -> bool {
    path.starts_with("crates/bench/")
        || path.starts_with("crates/lint/")
        || path.starts_with("crates/obs/")
        || path.starts_with("examples/")
}

/// Scans one file's source text. `path` must be workspace-relative with
/// forward slashes; it drives the test/allowlist path checks.
pub fn scan_source(path: &str, src: &str) -> FileScan {
    let tokens = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let mut scan = FileScan::default();

    // Suppression census: `lr-lint: allow(d2, p1)` in a line comment
    // covers findings on its own line and the line below.
    let mut allow_at: Vec<(u32, RuleId)> = Vec::new();
    for t in &tokens {
        if let TokenKind::LineComment(text) = &t.kind {
            for rule in parse_allow_directive(text) {
                scan.allows[rule_index(rule)] += 1;
                allow_at.push((t.line, rule));
            }
        }
    }
    let allowed = |line: u32, rule: RuleId| -> bool {
        allow_at
            .iter()
            .any(|&(l, r)| r == rule && (l == line || l + 1 == line))
    };

    let whole_file_test = path_is_test(path);
    let in_test = test_mask(&tokens);
    let in_use = use_mask(&tokens);

    let mut report = |rule: RuleId, line: u32| {
        if !allowed(line, rule) {
            scan.findings.push(Finding {
                rule,
                file: path.to_string(),
                line,
                excerpt: excerpt(line),
            });
        }
    };

    // Significant (non-comment) tokens with their original indices, so
    // sequence rules (`Instant::now`, `.unwrap(`) are comment-tolerant.
    let sig: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment(_)))
        .collect();

    for (k, &(idx, tok)) in sig.iter().enumerate() {
        if whole_file_test || in_test[idx] {
            continue;
        }
        let next = |ahead: usize| sig.get(k + ahead).map(|&(_, t)| t);
        match &tok.kind {
            TokenKind::Ident(name) => match name.as_str() {
                "SystemTime" if !path_allows_wall_clock(path) => report(RuleId::D1, tok.line),
                "Instant" if !path_allows_wall_clock(path) => {
                    let is_now = next(1).is_some_and(|t| t.is_punct(':'))
                        && next(2).is_some_and(|t| t.is_punct(':'))
                        && next(3).and_then(Token::ident) == Some("now");
                    if is_now {
                        report(RuleId::D1, tok.line);
                    }
                }
                "HashMap" | "HashSet" if !in_use[idx] => report(RuleId::D2, tok.line),
                "thread_rng" | "from_entropy" | "OsRng" => report(RuleId::D3, tok.line),
                "println" | "eprintln" | "print" | "eprint" | "dbg"
                    if !path_allows_print(path) && next(1).is_some_and(|t| t.is_punct('!')) =>
                {
                    report(RuleId::O1, tok.line);
                }
                "partial_cmp" => report(RuleId::N1, tok.line),
                "unwrap" | "expect" => {
                    let after_dot = k > 0 && sig[k - 1].1.is_punct('.');
                    let called = next(1).is_some_and(|t| t.is_punct('('));
                    if after_dot && called {
                        report(RuleId::P1, tok.line);
                    }
                }
                _ => {}
            },
            TokenKind::Punct(_) | TokenKind::LineComment(_) => {}
        }
    }

    scan
}

/// Extracts the rules named by a `lr-lint: allow(...)` directive. The
/// directive must lead the comment (only whitespace before it), so prose
/// that merely *mentions* the syntax — docs, this file — is not counted.
fn parse_allow_directive(comment: &str) -> Vec<RuleId> {
    let Some(rest) = comment.trim_start().strip_prefix("lr-lint:") else {
        return Vec::new();
    };
    let rest = rest.trim_start();
    let Some(args) = rest
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
    else {
        return Vec::new();
    };
    let Some(end) = args.find(')') else {
        return Vec::new();
    };
    args[..end].split(',').filter_map(RuleId::parse).collect()
}

/// Marks every token inside a test item: a `#[test]`-like or
/// `#[cfg(test)]`-like attribute plus the item it introduces (to the
/// matching closing brace, or the first top-level semicolon).
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let (attr_end, marking) = read_attribute(tokens, i + 1);
        if !marking {
            i = attr_end + 1;
            continue;
        }
        // Skip any further stacked attributes before the item itself.
        let mut j = attr_end + 1;
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            let (e, _) = read_attribute(tokens, j + 1);
            j = e + 1;
        }
        // The item body: first `{ ... }` at depth 0, or a bare `;`.
        let mut depth = 0usize;
        let mut end = j;
        while end < tokens.len() {
            match tokens[end].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let end = end.min(tokens.len() - 1);
        for m in mask.iter_mut().take(end + 1).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Reads an attribute starting at its `[` token; returns the index of
/// the matching `]` and whether the attribute marks test code
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]` — but not
/// `#[cfg(not(test))]`).
fn read_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(s) => idents.push(s),
            _ => {}
        }
        j += 1;
    }
    let has = |w: &str| idents.contains(&w);
    let marking = idents.as_slice() == ["test"] || (has("cfg") && has("test") && !has("not"));
    (j.min(tokens.len().saturating_sub(1)), marking)
}

/// Marks tokens inside `use ...;` declarations, where naming `HashMap`
/// is inert (imports don't iterate anything).
fn use_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() == Some("use") {
            while i < tokens.len() && !tokens[i].is_punct(';') {
                mask[i] = true;
                i += 1;
            }
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(scan: &FileScan) -> Vec<(RuleId, u32)> {
        scan.findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn d1_flags_instant_now_and_system_time() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&scan), vec![(RuleId::D1, 1), (RuleId::D1, 1)]);
    }

    #[test]
    fn d1_ignores_bare_instant_type_mentions() {
        let src = "fn f(deadline: Instant) {}";
        assert!(scan_source("crates/core/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn d1_allowlists_bench_paths() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(scan_source("crates/bench/src/bin/t.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn d2_flags_map_usage_but_not_imports() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&scan), vec![(RuleId::D2, 2), (RuleId::D2, 2)]);
    }

    #[test]
    fn d2_suppression_on_same_line_and_above() {
        let src = "fn f() {\n  // lr-lint: allow(d2)\n  let m = HashMap::new();\n  let s = HashSet::new(); // lr-lint: allow(D2)\n}";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert!(scan.findings.is_empty(), "{:?}", scan.findings);
        assert_eq!(scan.allows[1], 2);
    }

    #[test]
    fn suppression_does_not_leak_two_lines_down() {
        let src = "// lr-lint: allow(d2)\n\nfn f() { let m = HashMap::new(); }";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.allows[1], 1);
    }

    #[test]
    fn d3_flags_ambient_randomness() {
        let src = "fn f() { let mut rng = thread_rng(); let r = StdRng::from_entropy(); }";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&scan), vec![(RuleId::D3, 1), (RuleId::D3, 1)]);
    }

    #[test]
    fn n1_flags_partial_cmp() {
        let src = "fn f(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let scan = scan_source("crates/core/src/x.rs", src);
        // partial_cmp (N1) and the .unwrap() on it (P1).
        assert_eq!(rules_of(&scan), vec![(RuleId::N1, 1), (RuleId::P1, 1)]);
    }

    #[test]
    fn p1_counts_unwrap_and_expect_calls_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") + x.unwrap_or(0) }";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&scan), vec![(RuleId::P1, 1)]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  #[test]\n  fn t() { let m = HashMap::new(); m.iter().next().unwrap(); }\n}";
        assert!(scan_source("crates/core/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn test_fn_attribute_exempts_only_that_fn() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib(x: Option<u32>) { x.unwrap(); }";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&scan), vec![(RuleId::P1, 3)]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn lib(x: Option<u32>) { x.unwrap(); }";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(scan.findings.len(), 1);
    }

    #[test]
    fn tests_dirs_are_exempt_wholesale() {
        let src = "fn helper() { let m = HashMap::new(); m.len(); x.unwrap(); }";
        assert!(scan_source("crates/serve/tests/det.rs", src)
            .findings
            .is_empty());
        assert!(scan_source("crates/bench/benches/micro.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { let s = \"Instant::now() HashMap partial_cmp\"; /* thread_rng */ }\n// SystemTime in prose";
        assert!(scan_source("crates/core/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn o1_flags_print_macros_in_library_code() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(1); print!(\"z\"); }";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(
            rules_of(&scan),
            vec![
                (RuleId::O1, 1),
                (RuleId::O1, 1),
                (RuleId::O1, 1),
                (RuleId::O1, 1)
            ]
        );
    }

    #[test]
    fn o1_ignores_non_macro_idents() {
        // A method or fn named `print` (no `!`) is not a print macro.
        let src = "fn f(w: &mut W) { w.print(); let dbg = 1; }";
        assert!(scan_source("crates/core/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn o1_allowlists_cli_surfaces_and_obs() {
        let src = "fn f() { println!(\"x\"); }";
        for path in [
            "crates/bench/src/bin/t.rs",
            "crates/lint/src/main.rs",
            "crates/obs/src/sink.rs",
            "examples/quickstart.rs",
        ] {
            assert!(scan_source(path, src).findings.is_empty(), "{path}");
        }
        assert_eq!(scan_source("crates/serve/src/x.rs", src).findings.len(), 1);
    }

    #[test]
    fn o1_exempts_test_code_and_honors_allow() {
        let src = "#[test]\nfn t() { println!(\"x\"); }\nfn lib() { println!(\"y\"); // lr-lint: allow(o1)\n}";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert!(scan.findings.is_empty(), "{:?}", scan.findings);
        assert_eq!(scan.allows[5], 1);
    }

    #[test]
    fn excerpt_carries_the_trimmed_line() {
        let src = "fn f() {\n    let x = v.partial_cmp(&w);\n}";
        let scan = scan_source("crates/core/src/x.rs", src);
        assert_eq!(scan.findings[0].excerpt, "let x = v.partial_cmp(&w);");
        assert_eq!(scan.findings[0].line, 2);
    }

    #[test]
    fn allow_directive_parsing() {
        assert_eq!(
            parse_allow_directive(" lr-lint: allow(d2, P1)"),
            vec![RuleId::D2, RuleId::P1]
        );
        assert!(parse_allow_directive(" lr-lint: allow()").is_empty());
        assert!(parse_allow_directive(" unrelated comment").is_empty());
        assert!(parse_allow_directive(" lr-lint: deny(d2)").is_empty());
    }

    #[test]
    fn rule_parse_roundtrip() {
        for rule in ALL_RULES {
            assert_eq!(RuleId::parse(rule.name()), Some(rule));
            assert!(!rule.explain().is_empty());
            assert!(!rule.summary().is_empty());
        }
        assert_eq!(RuleId::parse("zz"), None);
    }
}

//! # haec-lint
//!
//! Source-level static analysis enforcing `haecdb` workspace invariants
//! that the compiler cannot see — run as `cargo run -p haec-lint` (CI's
//! `verify` job does, on every push). Each rule is a machine-checked
//! statement of a discipline the repo's correctness or energy-honesty
//! story depends on:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `safety-comment` | every `unsafe` token is annotated with a `// SAFETY:` (or `/// # Safety`) comment |
//! | `unsafe-in-shims` | the vendored `shims/` expose no `unsafe` at all |
//! | `no-thread-spawn` | no `thread::spawn`/`Builder`/`scope` outside the pool, the loom shim, and test harnesses |
//! | `no-available-parallelism` | hardware sizing happens once at engine construction, never per query |
//! | `meter-delta-billing` | query paths never bill per-query energy by subtracting meter totals (use `CostEstimate`) |
//! | `instant-in-energy` | energy accounting is work-based, not wall-clock (`Instant::now`) based |
//! | `sorted-claim` | sortedness claims (`sorted: true` / `sorted_by: Some(..)`) originate only in the merge build path, never ad hoc in query code |
//! | `encoded-reader` | in `haecdb`'s non-test code an encoded column is opened for reading (`.blocks()` / `.cursor()`) only by the executor's readers, whose regime test is also the bill, and the executor makes no per-row point read (`.get_int(`) |
//! | `failpoint-confined` | failpoint *arming* (`fail::cfg`/`seed`/`teardown`) is test-harness-only, and `fail_point!` instrumentation lives only in the designated engine crates |
//! | `dead-pub` | every non-test `pub fn` / `pub const` of a library crate (`crates/*/src`, bar `lint` and `bench`) is named in some other file's code — a `use` line does not count — so nothing public is kept that nothing calls |
//!
//! The scanner lexes each file just enough to **mask comments and
//! string literals** (so prose can mention forbidden tokens freely) and
//! to locate `#[cfg(test)]` regions (test code may spawn threads, read
//! meters, etc.). Findings carry `file:line` positions. The per-line
//! rules see one file at a time; `dead-pub` is a second pass over the
//! whole tree ([`dead_pub`]).
//!
//! Two escape hatches, both reviewable:
//! * the central [`ALLOWS`] table — a path-scoped exemption **with a
//!   written reason**, for sites that are legitimately special;
//! * an inline `// haec-lint: allow(<rule>)` comment on the offending
//!   line or the line above, for one-off cases.
//!
//! To add a rule: push a [`Rule`] into [`rules`], give it a kebab-case
//! id, scope it with `applies`, and seed `crates/lint/tests/selftest.rs`
//! with a fixture proving it fires.

#![forbid(unsafe_code)]
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// One diagnostic: a rule violated at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Kebab-case rule id.
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

// ---------------------------------------------------------------------
// Masking lexer
// ---------------------------------------------------------------------

/// Replaces the contents of comments and string/char literals with
/// spaces, preserving every newline and column position, so token
/// searches over the result only ever hit real code.
pub fn mask_source(src: &str) -> String {
    lex(src, false)
}

/// The masking lexer; `keep_strings` leaves string-literal contents in
/// place (comments are blanked either way).
fn lex(src: &str, keep_strings: bool) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let body = |c: char| if keep_strings { c } else { blank(c) };
    while i < b.len() {
        let c = b[i];
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == 'r' || c == 'b' {
            // Possible raw/byte string: r"...", r#"..."#, b"...", br#"..."#.
            let mut j = i + 1;
            if c == 'b' && j < b.len() && b[j] == 'r' {
                j += 1;
            }
            let mut hashes = 0;
            while j < b.len() && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == '"' && (hashes > 0 || b[i + 1] == '"' || (c == 'b' && b[i + 1] == 'r'))
            {
                // Emit the prefix, then mask until the closing quote
                // followed by `hashes` hashes.
                out.extend(std::iter::repeat_n(' ', j - i + 1));
                i = j + 1;
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            out.extend(std::iter::repeat_n(' ', hashes + 1));
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    out.push(body(b[i]));
                    i += 1;
                }
            } else {
                out.push(c);
                i += 1;
            }
        } else if c == '"' {
            out.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    out.push(body(b[i]));
                    i += 1;
                }
            }
        } else if c == '\'' {
            // Char literal vs lifetime: 'x' / '\n' are literals; 'a (no
            // closing quote right after) is a lifetime and stays as-is.
            if i + 2 < b.len() && b[i + 1] == '\\' {
                out.push(' ');
                i += 1;
                while i < b.len() && b[i] != '\'' {
                    out.push(' ');
                    i += 1;
                }
                if i < b.len() {
                    out.push(' ');
                    i += 1;
                }
            } else if i + 2 < b.len() && b[i + 2] == '\'' {
                out.push(' ');
                out.push(' ');
                out.push(' ');
                i += 3;
            } else {
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out.into_iter().collect()
}

// ---------------------------------------------------------------------
// #[cfg(test)] region detection
// ---------------------------------------------------------------------

/// 1-based inclusive line ranges covered by `#[cfg(test)]` items —
/// including conjunctive gates like `#[cfg(all(test, not(haec_loom)))]`
/// (modules, functions, single statements), located by brace matching
/// on the masked source. `#[cfg(not(test))]` is deliberately *not* a
/// test region.
pub fn test_regions(masked: &str) -> Vec<(usize, usize)> {
    let chars: Vec<char> = masked.chars().collect();
    let mut regions = Vec::new();
    let text: String = masked.to_string();
    for pat in ["#[cfg(test)]", "#[cfg(all(test"] {
        collect_regions(&text, &chars, pat, &mut regions);
    }
    regions
}

fn collect_regions(text: &str, chars: &[char], pat: &str, regions: &mut Vec<(usize, usize)>) {
    let mut search = 0;
    while let Some(pos) = text[search..].find(pat) {
        let attr_at = search + pos;
        let start_line = line_of(chars, attr_at);
        // Find where the item ends: first `{` (then brace-match) or a
        // `;` before any `{` (attribute on a braceless item).
        let mut i = attr_at + pat.len();
        let mut end = None;
        while i < chars.len() {
            match chars[i] {
                ';' => {
                    end = Some(i);
                    break;
                }
                '{' => {
                    let mut depth = 1;
                    i += 1;
                    while i < chars.len() && depth > 0 {
                        match chars[i] {
                            '{' => depth += 1,
                            '}' => depth -= 1,
                            _ => {}
                        }
                        i += 1;
                    }
                    end = Some(i.saturating_sub(1));
                    break;
                }
                _ => i += 1,
            }
        }
        let end_at = end.unwrap_or(chars.len().saturating_sub(1));
        regions.push((start_line, line_of(chars, end_at)));
        search = attr_at + 1;
    }
}

fn line_of(chars: &[char], pos: usize) -> usize {
    1 + chars[..pos.min(chars.len())].iter().filter(|&&c| c == '\n').count()
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// A lint rule: an id, a path scope, and a per-line check over the
/// masked source.
pub struct Rule {
    /// Kebab-case id, used in diagnostics, [`ALLOWS`], and inline
    /// `haec-lint: allow(...)` escapes.
    pub id: &'static str,
    /// Whether the rule examines this file at all.
    pub applies: fn(&str) -> bool,
    /// Whether findings inside `#[cfg(test)]` regions / test-harness
    /// paths are exempt.
    pub exempt_in_tests: bool,
    /// Scans one masked line (`raw` is the unmasked line, `above` the
    /// unmasked lines before it, for comment inspection). Returns a
    /// message for each violation.
    pub check: fn(masked_line: &str, raw: &str, above: &[String]) -> Option<String>,
}

/// A path-scoped exemption with a written reason. Keep reasons honest:
/// this table is the reviewable record of every place an invariant is
/// deliberately relaxed.
pub struct Allow {
    /// Rule being relaxed.
    pub rule: &'static str,
    /// Path prefix (repo-relative, `/` separators) the exemption covers.
    pub path_prefix: &'static str,
    /// Why this site is legitimately special.
    pub reason: &'static str,
}

/// The central allow-list. Every entry must say why.
pub const ALLOWS: &[Allow] = &[
    Allow {
        rule: "no-thread-spawn",
        path_prefix: "crates/bench/src/exps/",
        reason: "experiment harnesses drive concurrency scenarios directly (E10/E21/E22)",
    },
    Allow {
        rule: "no-available-parallelism",
        path_prefix: "crates/bench/",
        reason: "experiment harnesses size scenarios from the machine they measure",
    },
    Allow {
        rule: "meter-delta-billing",
        path_prefix: "crates/sched/src/server.rs",
        reason: "horizon-level aggregate of the discrete-event simulator, not per-query billing",
    },
    Allow {
        rule: "instant-in-energy",
        path_prefix: "crates/energy/src/calibrate.rs",
        reason: "the calibration harness is explicitly wall-clock based (it fits joules to seconds)",
    },
];

/// Where `dead-pub` looks for definitions: the library crates' sources.
/// The lint's own rules and the experiment harness are entry points,
/// not library surface.
fn pub_surface(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.starts_with("crates/lint/")
        && !path.starts_with("crates/bench/")
}

fn contains_token(haystack: &str, needle: &str) -> bool {
    // Word-boundary match: the char before/after must not be
    // identifier-ish, so `unsafe_code` never matches `unsafe`.
    let mut from = 0;
    while let Some(p) = haystack[from..].find(needle) {
        let at = from + p;
        let before_ok =
            at == 0 || !haystack[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= haystack.len()
            || !haystack[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Is this raw line part of a contiguous comment/attribute block (the
/// kind a `SAFETY:` annotation lives in)?
fn is_annotation_line(raw: &str) -> bool {
    let t = raw.trim_start();
    t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")
}

fn has_safety_annotation(raw: &str, above: &[String]) -> bool {
    if raw.contains("SAFETY") || raw.contains("# Safety") {
        return true;
    }
    for prev in above.iter().rev() {
        if !is_annotation_line(prev) {
            return false;
        }
        if prev.contains("SAFETY") || prev.contains("# Safety") {
            return true;
        }
    }
    false
}

/// The rule set. Order is presentation order only.
pub fn rules() -> Vec<Rule> {
    vec![
        Rule {
            id: "safety-comment",
            applies: |_| true,
            exempt_in_tests: false,
            check: |masked, raw, above| {
                if contains_token(masked, "unsafe") && !has_safety_annotation(raw, above) {
                    Some("`unsafe` without a `// SAFETY:` comment explaining why it is sound".into())
                } else {
                    None
                }
            },
        },
        Rule {
            id: "unsafe-in-shims",
            applies: |p| p.starts_with("shims/"),
            exempt_in_tests: false,
            check: |masked, _, _| {
                if contains_token(masked, "unsafe") {
                    Some("vendored shims must not contain `unsafe` (they stand in for audited crates)".into())
                } else {
                    None
                }
            },
        },
        Rule {
            id: "no-thread-spawn",
            applies: |p| {
                p != "crates/exec/src/pool.rs"
                    && !p.starts_with("shims/loom/")
                    && !p.starts_with("shims/crossbeam/")
            },
            exempt_in_tests: true,
            check: |masked, _, _| {
                for tok in ["thread::spawn", "thread::Builder", "thread::scope"] {
                    if masked.contains(tok) {
                        return Some(format!(
                            "`{tok}` outside the worker pool: queries must run on the persistent \
                             pool (`exec::pool`), never on ad-hoc threads"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "no-available-parallelism",
            applies: |p| p != "crates/exec/src/pool.rs",
            exempt_in_tests: true,
            check: |masked, _, _| {
                if masked.contains("available_parallelism") {
                    Some(
                        "hardware parallelism is sized once when the engine's global pool is \
                         built, never re-queried per call site"
                            .into(),
                    )
                } else {
                    None
                }
            },
        },
        Rule {
            id: "meter-delta-billing",
            applies: |p| {
                p.starts_with("crates/core/src/")
                    || p.starts_with("crates/sched/src/")
                    || p.starts_with("crates/exec/src/")
                    || p.starts_with("crates/net/src/")
            },
            exempt_in_tests: true,
            check: |masked, _, _| {
                if masked.contains("grand_total") {
                    Some(
                        "per-query energy must be billed from `CostEstimate`, not by \
                         subtracting shared-meter totals (racy under concurrency)"
                            .into(),
                    )
                } else {
                    None
                }
            },
        },
        Rule {
            id: "sorted-claim",
            // The only places allowed to *assert* physical sortedness:
            // the sorting merge's build path (`Table::merge` →
            // `Segment::build`) and the planner's own unit-cost code
            // where `ZoneMapMeta`/`JoinSideCost` literals are test
            // vectors. Everything else must read the flag off a pinned
            // segment, never conjure it — a false claim silently turns
            // binary search into wrong answers.
            applies: |p| p != "crates/core/src/table.rs" && p != "crates/core/src/segment.rs",
            exempt_in_tests: true,
            check: |masked, _, _| {
                for tok in ["sorted: true", "sorted_by: Some("] {
                    if masked.contains(tok) {
                        return Some(format!(
                            "`{tok}` outside the merge build path: sortedness is established \
                             by `Table::merge` (stable sort, then `Segment::build` records the \
                             claim) and only *read* everywhere else"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "encoded-reader",
            // One reader pair opens a store's encoded column in the
            // engine: the executor's `ColBlocks` / `ColCursor`, picked by
            // `walk`'s regime test — the same test that bills the read.
            // A block or cursor reader opened anywhere else in core is a
            // second read path with a bill of its own to drift.
            applies: |p| p.starts_with("crates/core/src/") && p != "crates/core/src/executor.rs",
            exempt_in_tests: true,
            check: |masked, _, _| {
                for tok in [".blocks()", ".cursor()"] {
                    if masked.contains(tok) {
                        return Some(format!(
                            "`{tok}` outside the executor's readers: read a store's encoded \
                             column through `walk` (`ColBlocks` / `ColCursor`), whose regime \
                             is also the bill"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            // ... and the executor reads a cell only through those
            // readers: `TableSnapshot::get_int` is a per-row
            // `EncodedInts::get` (a store bisect, then up to a checkpoint
            // interval of unpacks on Delta) that no regime test bills.
            id: "encoded-reader",
            applies: |p| p == "crates/core/src/executor.rs",
            exempt_in_tests: true,
            check: |masked, _, _| {
                if masked.contains(".get_int(") {
                    Some(
                        "`.get_int(` on the query path: a per-row point read outside the \
                         executor's readers — resolve the predicate per unit and read the \
                         rows through `walk`, whose regime is also the bill"
                            .into(),
                    )
                } else {
                    None
                }
            },
        },
        Rule {
            // Production code must never *arm* a failpoint: a stray
            // `fail::cfg` in the engine would make injected faults part
            // of normal operation instead of a test-harness input.
            id: "failpoint-confined",
            applies: |p| !p.starts_with("shims/fail/"),
            exempt_in_tests: true,
            check: |masked, _, _| {
                for tok in ["fail::cfg(", "fail::seed(", "fail::teardown(", "fail::remove("] {
                    if masked.contains(tok) {
                        return Some(format!(
                            "`{tok}..)` outside a test harness: failpoints are armed by tests \
                             (under `--cfg haec_fail`), never by production code"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            // ... and `fail_point!` instrumentation sites stay confined
            // to the engine crates that declare them (core, exec,
            // sched), so the instrumented surface — pinned by name in
            // `fault_injection.rs` — cannot silently sprawl.
            id: "failpoint-confined",
            applies: |p| {
                !p.starts_with("shims/fail/")
                    && !p.starts_with("crates/core/src/")
                    && !p.starts_with("crates/exec/src/")
                    && !p.starts_with("crates/sched/src/")
            },
            exempt_in_tests: true,
            check: |masked, _, _| {
                if masked.contains("fail_point!") {
                    Some(
                        "`fail_point!` outside the instrumented engine crates (core/exec/sched): \
                         new failpoint surfaces must be deliberate — add the crate here and pin \
                         the point's name in `fault_injection.rs`"
                            .into(),
                    )
                } else {
                    None
                }
            },
        },
        Rule {
            id: "instant-in-energy",
            applies: |p| p.starts_with("crates/energy/src/"),
            exempt_in_tests: true,
            check: |masked, _, _| {
                if masked.contains("Instant::now") {
                    Some(
                        "energy accounting is work-based (counters × unit costs); wall-clock \
                         reads do not belong in the energy crate"
                            .into(),
                    )
                } else {
                    None
                }
            },
        },
    ]
}

// ---------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------

/// Is the path a test/bench/example harness (exempt from runtime-only
/// rules)?
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

fn allowed(rule: &'static str, path: &str) -> bool {
    ALLOWS.iter().any(|a| a.rule == rule && path.starts_with(a.path_prefix))
}

fn inline_escape(rule: &str, raw: &str, above: &[String]) -> bool {
    let tag = format!("haec-lint: allow({rule})");
    raw.contains(&tag) || above.last().is_some_and(|l| l.contains(&tag))
}

/// Scans one file's source. `path` must be repo-relative with `/`
/// separators — rule scoping and the allow-list key off it.
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let masked = mask_source(src);
    let regions = test_regions(&masked);
    let raw_lines: Vec<String> = src.lines().map(str::to_string).collect();
    let masked_lines: Vec<&str> = masked.lines().collect();
    let in_test_region = |line: usize| regions.iter().any(|&(lo, hi)| lo <= line && line <= hi);
    let test_path = is_test_path(path);

    let mut findings = Vec::new();
    for rule in rules() {
        if !(rule.applies)(path) || allowed(rule.id, path) {
            continue;
        }
        for (idx, masked_line) in masked_lines.iter().enumerate() {
            let line = idx + 1;
            if rule.exempt_in_tests && (test_path || in_test_region(line)) {
                continue;
            }
            let raw = raw_lines.get(idx).map(String::as_str).unwrap_or("");
            let above = &raw_lines[..idx];
            if inline_escape(rule.id, raw, above) {
                continue;
            }
            if let Some(message) = (rule.check)(masked_line, raw, above) {
                findings.push(Finding { rule: rule.id, path: path.to_string(), line, message });
            }
        }
    }
    findings
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifiers a file's code names, `use` / `pub use` statements
/// left out: importing or re-exporting an item is not calling it. A
/// format string's inline capture (`"{NAME}"`, `"{name:?}"`) names its
/// identifier too; `kept` is the file lexed with its strings left in.
fn named_idents(masked: &str, kept: &str) -> HashSet<String> {
    let mut names = HashSet::new();
    let mut in_use = false;
    for (line, kept) in masked.lines().zip(kept.lines()) {
        let t = line.trim_start();
        let t = t.strip_prefix("pub(crate) ").or_else(|| t.strip_prefix("pub ")).unwrap_or(t);
        in_use |= t.starts_with("use ");
        if in_use {
            in_use = !line.contains(';');
            continue;
        }
        names.extend(line.split(|c| !is_ident(c)).filter(|w| !w.is_empty()).map(str::to_string));
        let (code, kept): (Vec<char>, Vec<char>) = (line.chars().collect(), kept.chars().collect());
        for at in 1..kept.len() {
            if kept[at - 1] != '{' || code.get(at - 1) != Some(&' ') || (at >= 2 && kept[at - 2] == '{') {
                continue;
            }
            let end = (at..kept.len()).find(|&k| !is_ident(kept[k])).unwrap_or(kept.len());
            if end > at && matches!(kept.get(end), Some('}' | ':')) {
                names.insert(kept[at..end].iter().collect());
            }
        }
    }
    names
}

/// The name a `pub fn` / `pub const` line defines, if it is one.
fn pub_item_name(masked_line: &str) -> Option<&str> {
    let t = masked_line.trim_start().strip_prefix("pub ")?;
    let t =
        t.strip_prefix("const fn ").or_else(|| t.strip_prefix("fn ")).or_else(|| t.strip_prefix("const "))?;
    let end = t.find(|c| !is_ident(c)).unwrap_or(t.len());
    (end > 0).then(|| &t[..end])
}

/// The cross-file `dead-pub` pass over `(repo-relative path, source)`
/// pairs: a non-test `pub fn` / `pub const` under a library crate's
/// `src/` fires when no *other* file's code names it as a whole word.
/// Comments, doctests and `use` lines do not count; types are out of
/// scope (callers use a returned type without naming it). The one
/// file's own uses do not count either — an item only its own file
/// calls should not be `pub`.
pub fn dead_pub(files: &[(String, String)]) -> Vec<Finding> {
    let masked: Vec<String> = files.iter().map(|(_, src)| mask_source(src)).collect();
    let named: Vec<HashSet<String>> =
        files.iter().zip(&masked).map(|((_, src), m)| named_idents(m, &lex(src, true))).collect();
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for names in &named {
        for n in names {
            *files_naming.entry(n).or_default() += 1;
        }
    }
    let mut findings = Vec::new();
    for (i, (path, src)) in files.iter().enumerate() {
        if !pub_surface(path) || allowed("dead-pub", path) {
            continue;
        }
        let regions = test_regions(&masked[i]);
        let raw_lines: Vec<String> = src.lines().map(str::to_string).collect();
        for (idx, masked_line) in masked[i].lines().enumerate() {
            let line = idx + 1;
            let Some(name) = pub_item_name(masked_line) else { continue };
            if regions.iter().any(|&(lo, hi)| lo <= line && line <= hi)
                || inline_escape("dead-pub", &raw_lines[idx], &raw_lines[..idx])
            {
                continue;
            }
            let elsewhere =
                files_naming.get(name).copied().unwrap_or(0) - usize::from(named[i].contains(name));
            if elsewhere == 0 {
                findings.push(Finding {
                    rule: "dead-pub",
                    path: path.clone(),
                    line,
                    message: format!(
                        "`{name}` is public but no other file names it: delete it, make it \
                         private, or say why it stays"
                    ),
                });
            }
        }
    }
    findings
}

/// Walks the workspace at `root` and scans every tracked `.rs` file
/// (skipping `target/` and dot-directories): each file on its own, then
/// the whole tree for `dead-pub`. Returns all findings, sorted by path
/// and line.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    collect_rs(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    let mut findings: Vec<Finding> = files.iter().flat_map(|(path, src)| scan_source(path, src)).collect();
    findings.extend(dead_pub(&files));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

//! # xtask — kernel determinism lint (and the pairs driver [`bench_pairs`] with
//! its two measurements, `bench-pairs` and [`tier1`])
//!
//! The simulator's headline guarantee is bit-identical replay: the same
//! config and seed must produce the same [`metrics::Digest`] on every
//! machine, every run. A handful of standard-library conveniences silently
//! break that guarantee — `HashMap` iteration order depends on a per-process
//! random `RandomState`, `thread_rng` pulls OS entropy, wall-clock reads
//! differ across hosts, and rayon's unordered iterators interleave
//! nondeterministically. `cargo run -p xtask -- lint` bans those tokens from
//! the kernel crates.
//!
//! A second, *function-scoped* rule (`panic-in-hot-path`, see
//! [`PANIC_RULE`] / [`HOT_PATHS`]) bans the panic family — `unwrap`,
//! `expect`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` and the
//! release-mode `assert*` macros — from the bodies of the kernel's
//! pipeline-phase functions and the admission verifier's checks.
//! `debug_assert*` stays legal there: it documents the invariant while the
//! release kernel recovers instead of aborting.
//!
//! A third rule with the same scoping (`alloc-in-hot-path`, see
//! [`ALLOC_RULE`]) bans the allocating conveniences — `collect`, `to_vec`,
//! `to_owned`, `vec!`, `Vec::new`, `Vec::with_capacity`, `VecDeque::new`,
//! `Box::new`, `format!`, `to_string` — from the phase bodies of the tick
//! kernel and the NI functions they call: a steady-state tick allocates
//! nothing
//! (`tests/alloc_free_tick.rs` measures it; this rule names the line that
//! would break it).
//!
//! A fourth, file-scoped rule (`reference-in-production`, see
//! [`REFERENCE_RULE`]) keeps the tests' reference kernel out of production:
//! `tick_reference` / `run_reference` may be named only in the module that
//! defines them, in `#[cfg(test)]` modules and under `tests/` / `benches/`.
//!
//! The issue asked for a `syn`-based AST pass; `syn` is not vendored in this
//! offline build environment (and pulling it in would violate the
//! no-new-dependencies constraint), so the lint is a hand-rolled
//! comment- and string-aware token scanner instead. It tokenizes each
//! source file with full knowledge of line comments, nesting block
//! comments, regular/raw strings, char literals and lifetimes, and flags
//! banned *identifier tokens* only — a `HashMap` inside a string literal or
//! doc comment never fires. That is strictly coarser than an AST pass (it
//! cannot tell `std::collections::HashMap` from a local type named
//! `HashMap`), which is the right trade-off for a lint: shadowing a banned
//! name with a deterministic local type would be at least as confusing as
//! the original offence.
//!
//! ## Escape hatch
//!
//! A `// lint: allow(rule-name)` comment suppresses one rule on its own
//! line and the line immediately after, so both trailing and preceding
//! placements work:
//!
//! ```text
//! use std::time::Instant; // lint: allow(wall-clock)
//!
//! // lint: allow(wall-clock)
//! let t0 = Instant::now();
//! ```

pub mod bench_pairs;
pub mod tier1;

use std::fmt;
use std::path::{Path, PathBuf};

/// One determinism rule: a name (used in `lint: allow(...)`), the banned
/// identifier tokens, and the reason shown alongside each finding.
pub struct Rule {
    pub name: &'static str,
    pub tokens: &'static [&'static str],
    pub why: &'static str,
}

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-collections",
        tokens: &["HashMap", "HashSet"],
        why: "RandomState makes iteration order differ per process; use BTreeMap/BTreeSet",
    },
    Rule {
        name: "os-entropy",
        tokens: &[
            "thread_rng",
            "ThreadRng",
            "OsRng",
            "from_entropy",
            "getrandom",
        ],
        why: "OS entropy breaks replay; seed a SmallRng from the run seed",
    },
    Rule {
        name: "wall-clock",
        tokens: &["Instant", "SystemTime"],
        why: "wall-clock reads differ across hosts; count cycles, not seconds",
    },
    Rule {
        name: "unordered-parallelism",
        tokens: &[
            "par_iter",
            "par_iter_mut",
            "into_par_iter",
            "par_bridge",
            "try_iter",
            "try_recv",
            "recv_timeout",
            "is_finished",
        ],
        why: "rayon interleaving and racy channel drains (try_iter/try_recv/recv_timeout) or \
              completion polling (is_finished) are nondeterministic; reduce into per-job slots, \
              drain channels with blocking recv in a fixed order, and join in index order",
    },
];

/// The function-scoped panic rule: inside the kernel's pipeline-phase
/// functions and the admission verifier's property checks, a panic is
/// a simulator abort a caller can neither catch nor attribute — those
/// paths must degrade via `debug_assert!` + recovery instead. Applied only
/// to the bodies listed in [`HOT_PATHS`], not file-wide (constructors and
/// tests in the same files validate inputs with `assert!` legitimately).
pub const PANIC_RULE: Rule = Rule {
    name: "panic-in-hot-path",
    tokens: &[
        "unwrap",
        "expect",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ],
    why: "pipeline phases and admission checks must not abort mid-run; \
          recover with `let .. else { debug_assert!(false, ..); .. }`",
};

/// The function-scoped allocation rule: the tick kernel's phase bodies keep
/// their request sets on the stack and drain the link registers in place,
/// so a steady-state tick never reaches the allocator. A `Type::function`
/// token matches the two identifiers in sequence.
pub const ALLOC_RULE: Rule = Rule {
    name: "alloc-in-hot-path",
    tokens: &[
        "collect",
        "to_vec",
        "to_owned",
        "vec",
        "Vec::new",
        "Vec::with_capacity",
        "VecDeque::new",
        "Box::new",
        "format",
        "to_string",
    ],
    why: "a steady-state tick allocates nothing; gather into a fixed-size on-stack array \
          or a buffer sized at construction",
};

/// The statement-scoped durability rule: in the modules that own crash
/// safety (the checkpoint runner, the saturation cache, the experiment
/// service), discarding an IO result with `let _ = …` is how checkpoint
/// rows silently vanish. The rule flags a `let _ =` binding whose
/// right-hand side mentions one of these filesystem/write tokens; the
/// `// lint: allow(swallowed-io-error)` hatch marks the sites where
/// discarding really is the policy (best-effort temp-dir cleanup in tests).
pub const SWALLOWED_IO_RULE: Rule = Rule {
    name: "swallowed-io-error",
    tokens: &[
        "fs",
        "File",
        "OpenOptions",
        "write",
        "writeln",
        "write_all",
        "flush",
        "sync_all",
        "sync_data",
        "rename",
        "remove_file",
        "remove_dir_all",
        "create_dir_all",
        "create_dir",
        "set_len",
        "copy",
        "hard_link",
        "append_durable",
        "write_atomic",
    ],
    why: "durability modules must surface IO failures (warning + counter), \
          not discard them with `let _ =`",
};

/// Files and subtrees held to [`SWALLOWED_IO_RULE`] — the durability layer.
pub const DURABILITY_SCOPES: &[&str] = &[
    "crates/experiments/src/runner.rs",
    "crates/experiments/src/sweep.rs",
    "crates/experiments/src/service",
];

/// The reference-kernel rule: the plain-scan twin of the production tick
/// exists for tests and benches to compare against, and the release binaries
/// must not link it. Applied to the non-test code of [`REFERENCE_SCOPES`];
/// the home module itself is exempt.
pub const REFERENCE_RULE: Rule = Rule {
    name: "reference-in-production",
    tokens: &["tick_reference", "run_reference"],
    why: "the reference kernel is the tests' twin; production code drives `tick` / `run`",
};

/// The one module allowed to name [`REFERENCE_RULE`]'s tokens outside tests.
pub const REFERENCE_HOME: &str = "crates/noc-sim/src/network/reference.rs";

/// Source trees held to [`REFERENCE_RULE`] (read-only for `rair-bench`):
/// every `src` directory a production binary is built from. Integration
/// tests and benches live outside them.
pub const REFERENCE_SCOPES: &[&str] = &["crates", "rair-bench/src", "src"];

/// One file whose named function bodies are held to function-scoped rules.
pub struct HotPath {
    /// Path relative to the workspace root.
    pub file: &'static str,
    /// Function names whose bodies are scanned.
    pub functions: &'static [&'static str],
    /// The rules the bodies are held to.
    pub rules: &'static [&'static Rule],
}

/// The hot paths: the tick kernel's pipeline phases, what they call every
/// tick (the scan is lexical, so a callee is only checked if it is listed) —
/// the synthetic scenario's `generate` / `next_poll` included —, the
/// admission verifier's entry points, and (panic rule only) the parsers of
/// every file a user or a crash can produce. The reference kernel is not
/// listed: it may allocate and `expect`. A listed file that cannot be
/// read, or a listed function with no body in its file, is itself a finding
/// — renaming or moving a hot path must update this list, not silently
/// un-scan it.
pub const HOT_PATHS: &[HotPath] = &[
    HotPath {
        file: "crates/noc-sim/src/network.rs",
        functions: &[
            "deliver_phase",
            "consume_ejected",
            "sa_phase",
            "va_phase",
            "va_in_select",
            "rc_phase",
            "inject_phase",
            "update_state_phase",
            "front_priority",
        ],
        rules: &[&PANIC_RULE, &ALLOC_RULE],
    },
    HotPath {
        file: "crates/noc-sim/src/node.rs",
        functions: &[
            "release_replies",
            "release_retries",
            "try_inject",
            "pick_vc",
        ],
        rules: &[&PANIC_RULE, &ALLOC_RULE],
    },
    // The source bodies the injection phase drives, and their draw helpers.
    HotPath {
        file: "crates/traffic/src/scenario.rs",
        functions: &[
            "generate",
            "next_poll",
            "app_state",
            "draw_packet",
            "draw_dest",
            "draw",
        ],
        rules: &[&PANIC_RULE, &ALLOC_RULE],
    },
    HotPath {
        file: "crates/traffic/src/pattern.rs",
        functions: &["dest", "pick_excluding"],
        rules: &[&PANIC_RULE, &ALLOC_RULE],
    },
    HotPath {
        file: "crates/noc-sim/src/arbitration/mod.rs",
        functions: &["arbitrate_rr_at"],
        rules: &[&PANIC_RULE],
    },
    HotPath {
        file: "crates/noc-sim/src/admit.rs",
        functions: &["check_progress", "check_non_interference", "admit_network"],
        rules: &[&PANIC_RULE],
    },
    // The full admission gate: `serve` runs it before the supervised pool,
    // outside `catch_unwind`, so a panic here ends the service.
    HotPath {
        file: "crates/experiments/src/admit.rs",
        functions: &[
            "admit_cell",
            "admit_with",
            "network_properties",
            "check_feasibility",
            "check_scheme_parameters",
            "verified",
        ],
        rules: &[&PANIC_RULE],
    },
    // Byte-level entry points: jobs files, the WAL, framed cache entries,
    // checkpoint rows and trace files are errors when malformed, not panics.
    HotPath {
        file: "crates/experiments/src/service/serve.rs",
        functions: &["parse", "parse_jobs", "resolve", "lookup"],
        rules: &[&PANIC_RULE],
    },
    HotPath {
        file: "crates/experiments/src/service/journal.rs",
        functions: &["replay"],
        rules: &[&PANIC_RULE],
    },
    HotPath {
        file: "crates/experiments/src/service/store.rs",
        functions: &["unframe"],
        rules: &[&PANIC_RULE],
    },
    HotPath {
        file: "crates/experiments/src/service/cache.rs",
        functions: &["read_entry"],
        rules: &[&PANIC_RULE],
    },
    HotPath {
        file: "crates/experiments/src/service/pool.rs",
        functions: &["replay_jobs"],
        rules: &[&PANIC_RULE],
    },
    HotPath {
        file: "crates/experiments/src/runner.rs",
        functions: &[
            "parse_checkpoint_line",
            "parse_latency_field",
            "unesc_label",
        ],
        rules: &[&PANIC_RULE],
    },
    HotPath {
        file: "crates/traffic/src/trace.rs",
        functions: &["from_bytes", "checked"],
        rules: &[&PANIC_RULE],
    },
];

/// Look up a rule by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES
        .iter()
        .find(|r| r.name == name)
        .or((PANIC_RULE.name == name).then_some(&PANIC_RULE))
        .or((ALLOC_RULE.name == name).then_some(&ALLOC_RULE))
        .or((SWALLOWED_IO_RULE.name == name).then_some(&SWALLOWED_IO_RULE))
        .or((REFERENCE_RULE.name == name).then_some(&REFERENCE_RULE))
}

/// One lint finding: a banned token in a scanned file, or a listed hot path
/// the lint could not scan (`line` 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub token: String,
    pub why: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] `{}` — {}",
            self.path, self.line, self.rule, self.token, self.why
        )
    }
}

/// A directory subtree to lint with a given rule set.
pub struct Scope {
    /// Path relative to the workspace root, e.g. `crates/noc-sim/src`.
    pub dir: &'static str,
    /// Rule names that do *not* apply in this scope.
    pub exempt: &'static [&'static str],
}

/// The lint scopes: every kernel crate in full, plus the experiments crate
/// without the wall-clock rule (its drivers legitimately time the verifier
/// and the cycle kernel — timing is reported, never fed back into
/// simulation state).
pub const SCOPES: &[Scope] = &[
    Scope {
        dir: "crates/noc-sim/src",
        exempt: &[],
    },
    Scope {
        dir: "crates/noc-sim/tests",
        exempt: &[],
    },
    Scope {
        dir: "crates/rair/src",
        exempt: &[],
    },
    Scope {
        dir: "crates/rair/tests",
        exempt: &[],
    },
    Scope {
        dir: "crates/traffic/src",
        exempt: &[],
    },
    Scope {
        dir: "crates/traffic/tests",
        exempt: &[],
    },
    Scope {
        dir: "crates/metrics/src",
        exempt: &[],
    },
    Scope {
        dir: "crates/metrics/tests",
        exempt: &[],
    },
    Scope {
        dir: "crates/model/src",
        exempt: &[],
    },
    Scope {
        dir: "crates/model/tests",
        exempt: &[],
    },
    Scope {
        dir: "crates/experiments/src",
        exempt: &["wall-clock"],
    },
    Scope {
        dir: "crates/experiments/tests",
        exempt: &["wall-clock"],
    },
];

/// Scanner state while walking a source file character by character.
#[derive(PartialEq)]
enum Mode {
    Code,
    LineComment,
    /// Block comments nest in Rust; the payload is the depth.
    BlockComment(u32),
    Str,
    /// Raw string with `n` hashes: `r##"…"##`.
    RawStr(u32),
    Char,
}

/// One code token the scanner emits: an identifier, or a curly brace
/// (braces inside comments, strings and char literals never appear —
/// they fuel the function-body spans of the hot-path lint).
enum Tok {
    Ident(usize, String),
    Open,
    Close,
}

/// Tokenize `src` into a [`Tok`] stream plus, per line, the set of rule
/// names allowed on that line via `lint: allow(...)` comments (a directive
/// covers its own line and the next).
fn scan(src: &str) -> (Vec<Tok>, Vec<Vec<String>>) {
    let num_lines = src.lines().count() + 1;
    let mut idents: Vec<Tok> = Vec::new();
    let mut allows: Vec<Vec<String>> = vec![Vec::new(); num_lines + 2];
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut mode = Mode::Code;
    let mut comment = String::new();
    let mut comment_line = 1usize;

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    comment.clear();
                    comment_line = line;
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment(1);
                    comment.clear();
                    comment_line = line;
                    i += 2;
                    continue;
                }
                '"' => mode = Mode::Str,
                'r' | 'b' if is_raw_string_start(&bytes, i) => {
                    let (hashes, skip) = raw_string_open(&bytes, i);
                    mode = Mode::RawStr(hashes);
                    i += skip;
                    continue;
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`): a
                    // lifetime is an identifier not followed by a closing
                    // quote. `'_'` and `'x'` both close; `'static` does not.
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && bytes.get(i + 2).copied() != Some('\'');
                    if is_lifetime {
                        i += 2; // skip the quote and first ident char
                        while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                            i += 1;
                        }
                        continue;
                    }
                    mode = Mode::Char;
                }
                '{' => idents.push(Tok::Open),
                '}' => idents.push(Tok::Close),
                _ if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                    idents.push(Tok::Ident(line, bytes[start..i].iter().collect()));
                    continue;
                }
                _ => {}
            },
            Mode::LineComment => {
                if c == '\n' {
                    record_allows(&comment, comment_line, &mut allows);
                    mode = Mode::Code;
                } else {
                    comment.push(c);
                }
            }
            Mode::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        record_allows(&comment, comment_line, &mut allows);
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                comment.push(c);
            }
            Mode::Str => match c {
                '\\' => {
                    i += 2;
                    if next == Some('\n') {
                        line += 1;
                    }
                    continue;
                }
                '"' => mode = Mode::Code,
                _ => {}
            },
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&bytes, i, hashes) {
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                    continue;
                }
            }
            Mode::Char => match c {
                '\\' => {
                    i += 2;
                    continue;
                }
                '\'' => mode = Mode::Code,
                _ => {}
            },
        }
        if c == '\n' {
            line += 1;
        }
        i += 1;
    }
    if mode == Mode::LineComment {
        record_allows(&comment, comment_line, &mut allows);
    }
    (idents, allows)
}

/// Does position `i` open a raw (byte) string literal: `r"`, `r#"`, `br"`…?
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j).copied() != Some('r') {
            return false;
        }
    }
    if bytes.get(j).copied() != Some('r') {
        return false;
    }
    j += 1;
    while bytes.get(j).copied() == Some('#') {
        j += 1;
    }
    bytes.get(j).copied() == Some('"')
}

/// Hash count and total prefix length of a raw-string opener at `i`.
fn raw_string_open(bytes: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0u32;
    while bytes.get(j).copied() == Some('#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j + 1 - i) // include the opening quote
}

/// Is the `"` at position `i` followed by `hashes` `#` characters?
fn closes_raw(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k).copied() == Some('#'))
}

/// Parse every `lint: allow(rule)` directive out of one comment body and
/// register it for the comment's line and the next.
fn record_allows(comment: &str, line: usize, allows: &mut [Vec<String>]) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        rest = &rest[pos + "lint: allow(".len()..];
        if let Some(end) = rest.find(')') {
            let name = rest[..end].trim().to_string();
            for l in [line, line + 1] {
                if l < allows.len() {
                    allows[l].push(name.clone());
                }
            }
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
}

/// Lint one source text against `rules`; `path` labels the findings.
pub fn lint_source(path: &str, src: &str, rules: &[&Rule]) -> Vec<Finding> {
    lint_source_outside(path, src, rules, |_| Vec::new())
}

/// [`lint_source`] over the tokens outside the half-open token-index spans
/// `exempt` picks.
fn lint_source_outside(
    path: &str,
    src: &str,
    rules: &[&Rule],
    exempt: impl Fn(&[Tok]) -> Vec<(usize, usize)>,
) -> Vec<Finding> {
    let (toks, allows) = scan(src);
    let exempt = exempt(&toks);
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(line, ident) = t else { continue };
        if exempt.iter().any(|&(open, close)| open < i && i < close) {
            continue;
        }
        for r in rules {
            if r.tokens.contains(&ident.as_str())
                && !allows
                    .get(*line)
                    .is_some_and(|a| a.iter().any(|n| n == r.name))
            {
                findings.push(Finding {
                    path: path.to_string(),
                    line: *line,
                    rule: r.name,
                    token: ident.clone(),
                    why: r.why,
                });
            }
        }
    }
    findings
}

/// Token-index spans (half-open) of the bodies of `functions` in `toks`,
/// each tagged with the index into `functions` of the name it belongs to.
///
/// A body starts at the first `{` after `fn <name>` — sound for this
/// codebase because nothing brace-bearing (const-generic expressions,
/// struct-expression defaults) appears in the signatures of the listed
/// functions, and braces inside comments and strings are never emitted by
/// the scanner.
fn body_spans(toks: &[Tok], functions: &[&str]) -> Vec<(usize, usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let name = match (
            &toks[i],
            toks[i + 1..].iter().find(|t| matches!(t, Tok::Ident(..))),
        ) {
            (Tok::Ident(_, id), Some(Tok::Ident(_, name))) if id == "fn" => {
                functions.iter().position(|f| f == name)
            }
            _ => None,
        };
        let Some(name) = name else {
            i += 1;
            continue;
        };
        // Skip to the body's opening brace, then to its matching close.
        let Some(open) = (i..toks.len()).find(|k| matches!(toks[*k], Tok::Open)) else {
            break;
        };
        let mut depth = 0usize;
        let mut close = toks.len();
        for (k, t) in toks.iter().enumerate().skip(open) {
            match t {
                Tok::Open => depth += 1,
                Tok::Close => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                Tok::Ident(..) => {}
            }
        }
        spans.push((name, open, close));
        i = close.min(toks.len() - 1) + 1;
    }
    spans
}

/// Apply [`PANIC_RULE`] to the bodies of `functions` within one source
/// text — [`lint_fn_bodies`] with that one rule.
pub fn lint_hot_source(path: &str, src: &str, functions: &[&str]) -> Vec<Finding> {
    lint_fn_bodies(path, src, functions, &[&PANIC_RULE])
}

/// Does the identifier at `toks[i]` match `pattern` — a bare identifier, or
/// `Type::function` (the two identifiers in sequence)?
fn matches_at(toks: &[Tok], i: usize, ident: &str, pattern: &str) -> bool {
    match pattern.split_once("::") {
        None => ident == pattern,
        Some((head, tail)) => {
            let prev = i.checked_sub(1).and_then(|k| toks.get(k));
            ident == tail && matches!(prev, Some(Tok::Ident(_, p)) if p == head)
        }
    }
}

/// Apply function-scoped `rules` to the bodies of `functions` within one
/// source text; `path` labels the findings. The `lint: allow(rule-name)`
/// hatch works exactly as for the file-wide rules. A name in `functions`
/// with no body in `src` is a finding too.
pub fn lint_fn_bodies(path: &str, src: &str, functions: &[&str], rules: &[&Rule]) -> Vec<Finding> {
    let (toks, allows) = scan(src);
    let spans = body_spans(&toks, functions);
    let mut findings: Vec<Finding> = functions
        .iter()
        .enumerate()
        .filter(|(i, _)| spans.iter().all(|s| s.0 != *i))
        .map(|(_, name)| {
            unscanned(
                path,
                format!("fn {name}"),
                "listed in HOT_PATHS but has no body in this file; update the list",
            )
        })
        .collect();
    for (_, open, close) in spans {
        for i in open..close {
            let Tok::Ident(line, ident) = &toks[i] else {
                continue;
            };
            for r in rules {
                let hit = r.tokens.iter().find(|p| matches_at(&toks, i, ident, p));
                if let Some(pattern) = hit {
                    if !allows
                        .get(*line)
                        .is_some_and(|a| a.iter().any(|n| n == r.name))
                    {
                        findings.push(Finding {
                            path: path.to_string(),
                            line: *line,
                            rule: r.name,
                            token: (*pattern).to_string(),
                            why: r.why,
                        });
                    }
                }
            }
        }
    }
    findings
}

/// Apply [`SWALLOWED_IO_RULE`] to one source text: flag every `let _ = …`
/// statement whose right-hand side mentions a filesystem/write token.
///
/// The scanner has no statement boundaries, so the right-hand side is
/// approximated as the tokens after the `_` up to the next `let`/`fn`
/// ident, a 24-token window, or two lines past the binding — generous
/// enough for chained `std::fs::…` calls, tight enough that an IO call in
/// a *following* statement never attributes backwards. The
/// `lint: allow(swallowed-io-error)` hatch is honored at the `let` line
/// (directives cover their own line and the next, so a comment directly
/// above works).
pub fn lint_swallowed_io_source(path: &str, src: &str) -> Vec<Finding> {
    let (toks, allows) = scan(src);
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let Tok::Ident(line, id) = &toks[i] else {
            i += 1;
            continue;
        };
        if id != "let" {
            i += 1;
            continue;
        }
        // The binding must be exactly `_` (not `_named`).
        let Some(Tok::Ident(_, bind)) = toks[i + 1..].iter().find(|t| matches!(t, Tok::Ident(..)))
        else {
            break;
        };
        if bind != "_" {
            i += 1;
            continue;
        }
        if allows
            .get(*line)
            .is_some_and(|a| a.iter().any(|n| n == SWALLOWED_IO_RULE.name))
        {
            i += 1;
            continue;
        }
        // Report the LAST matching token in the window: for a path like
        // `std::fs::remove_file` that is the call name, not the module.
        let mut hit: Option<String> = None;
        for t in toks.iter().skip(i + 2).take(24) {
            let Tok::Ident(l2, id2) = t else { continue };
            if *l2 > line + 2 || id2 == "let" || id2 == "fn" {
                break;
            }
            if SWALLOWED_IO_RULE.tokens.contains(&id2.as_str()) {
                hit = Some(id2.clone());
            }
        }
        if let Some(id2) = hit {
            findings.push(Finding {
                path: path.to_string(),
                line: *line,
                rule: SWALLOWED_IO_RULE.name,
                token: format!("let _ = …{id2}…"),
                why: SWALLOWED_IO_RULE.why,
            });
        }
        i += 1;
    }
    findings
}

/// Lint every durability-scoped file under `root` (the workspace root)
/// with [`SWALLOWED_IO_RULE`].
pub fn lint_durability_scopes(root: &Path) -> Vec<Finding> {
    let mut files: Vec<PathBuf> = Vec::new();
    for scope in DURABILITY_SCOPES {
        let p = root.join(scope);
        if p.is_dir() {
            rust_files(&p, &mut files);
        } else if p.extension().is_some_and(|e| e == "rs") {
            files.push(p);
        }
    }
    files.sort();
    files.dedup();
    let mut findings = Vec::new();
    for f in files {
        let src = std::fs::read_to_string(&f).unwrap_or_default();
        let label = label(root, &f);
        findings.extend(lint_swallowed_io_source(&label, &src));
    }
    findings
}

/// Token-index spans (half-open) of the `#[cfg(test)] mod name { … }`
/// bodies in `toks`.
fn cfg_test_mod_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let ident = |k: usize| match toks.get(k) {
        Some(Tok::Ident(_, id)) => id.as_str(),
        _ => "",
    };
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let opens = ident(i) == "cfg"
            && ident(i + 1) == "test"
            && ident(i + 2) == "mod"
            && matches!(toks.get(i + 4), Some(Tok::Open));
        if !opens {
            i += 1;
            continue;
        }
        let (open, mut depth, mut close) = (i + 4, 0usize, toks.len());
        for (k, t) in toks.iter().enumerate().skip(open) {
            match t {
                Tok::Open => depth += 1,
                Tok::Close if depth == 1 => {
                    close = k;
                    break;
                }
                Tok::Close => depth -= 1,
                Tok::Ident(..) => {}
            }
        }
        spans.push((open, close));
        i = close + 1;
    }
    spans
}

/// Apply [`REFERENCE_RULE`] to one production source text: its tokens may
/// appear inside `#[cfg(test)]` modules only. The `lint: allow` hatch works
/// as everywhere else.
pub fn lint_reference_source(path: &str, src: &str) -> Vec<Finding> {
    lint_source_outside(path, src, &[&REFERENCE_RULE], cfg_test_mod_spans)
}

/// Lint every `src` tree of [`REFERENCE_SCOPES`] under `root` with
/// [`REFERENCE_RULE`], [`REFERENCE_HOME`] excepted.
pub fn lint_reference_scopes(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for scope in REFERENCE_SCOPES {
        rust_files(&root.join(scope), &mut files);
    }
    let mut findings = Vec::new();
    for f in files {
        let label = label(root, &f);
        // Under `crates/`, only the `src` trees: tests and benches may name
        // the reference.
        let in_src = label.split('/').any(|part| part == "src");
        if in_src && label != REFERENCE_HOME {
            let src = std::fs::read_to_string(&f).unwrap_or_default();
            findings.extend(lint_reference_source(&label, &src));
        }
    }
    findings
}

/// A [`PANIC_RULE`] finding for a hot path the lint could not scan.
fn unscanned(path: &str, token: String, why: &'static str) -> Finding {
    Finding {
        path: path.to_string(),
        line: 0,
        rule: PANIC_RULE.name,
        token,
        why,
    }
}

/// Lint every configured hot path under `root` (the workspace root).
pub fn lint_hot_paths(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for hp in HOT_PATHS {
        match std::fs::read_to_string(root.join(hp.file)) {
            Ok(src) => findings.extend(lint_fn_bodies(hp.file, &src, hp.functions, hp.rules)),
            Err(e) => findings.push(unscanned(
                hp.file,
                e.kind().to_string(),
                "listed in HOT_PATHS but unreadable; update the list",
            )),
        }
    }
    findings
}

/// `file`'s path relative to `root`, `/`-separated — how findings name it.
fn label(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.display().to_string().replace('\\', "/")
}

/// Collect every `.rs` file under `dir`, sorted for deterministic output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lint one scope subtree under `root` (the workspace root).
pub fn lint_scope(root: &Path, scope: &Scope) -> Vec<Finding> {
    let rules: Vec<&Rule> = RULES
        .iter()
        .filter(|r| !scope.exempt.contains(&r.name))
        .collect();
    let mut files = Vec::new();
    rust_files(&root.join(scope.dir), &mut files);
    let mut findings = Vec::new();
    for f in files {
        let src = std::fs::read_to_string(&f).unwrap_or_default();
        let label = label(root, &f);
        findings.extend(lint_source(&label, &src, &rules));
    }
    findings
}

/// Lint every configured scope, the hot-path function bodies, the
/// durability scopes and the reference-kernel scopes. Empty result = clean tree.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings: Vec<Finding> = SCOPES.iter().flat_map(|s| lint_scope(root, s)).collect();
    findings.extend(lint_hot_paths(root));
    findings.extend(lint_durability_scopes(root));
    findings.extend(lint_reference_scopes(root));
    findings
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask is two levels below the workspace root")
        .to_path_buf()
}

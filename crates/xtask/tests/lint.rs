//! Tests of the determinism lint: scanner correctness (comments, strings,
//! lifetimes, raw strings), every rule firing on a minimal fixture, the
//! `lint: allow` escape hatch, the full workspace staying clean, and the
//! revert-one-satellite regression (putting `HashMap` back into `sweep.rs`
//! must make the lint fail).

use xtask::{lint_source, rule, Finding, RULES};

fn all_rules() -> Vec<&'static xtask::Rule> {
    RULES.iter().collect()
}

fn lint(src: &str) -> Vec<Finding> {
    lint_source("fixture.rs", src, &all_rules())
}

#[test]
fn every_rule_fires_on_a_minimal_fixture() {
    let cases = [
        ("hash-collections", "use std::collections::HashMap;\n"),
        (
            "hash-collections",
            "let s: HashSet<u32> = Default::default();\n",
        ),
        ("os-entropy", "let mut rng = rand::thread_rng();\n"),
        ("os-entropy", "let r = SmallRng::from_entropy();\n"),
        ("wall-clock", "let t0 = std::time::Instant::now();\n"),
        ("wall-clock", "let t = SystemTime::now();\n"),
        (
            "unordered-parallelism",
            "jobs.par_iter().map(run).collect()\n",
        ),
        ("unordered-parallelism", "v.into_par_iter().sum()\n"),
        (
            "unordered-parallelism",
            "for msg in rx.try_iter() { merge(msg); }\n",
        ),
        (
            "unordered-parallelism",
            "while let Ok(m) = rx.try_recv() { apply(m); }\n",
        ),
        (
            "unordered-parallelism",
            "let m = rx.recv_timeout(Duration::from_millis(1));\n",
        ),
        (
            "unordered-parallelism",
            "if handle.is_finished() { results.push(handle.join()); }\n",
        ),
    ];
    for (want, src) in cases {
        let f = lint(src);
        assert_eq!(f.len(), 1, "{src:?} -> {f:?}");
        assert_eq!(f[0].rule, want, "{src:?}");
        assert_eq!(f[0].line, 1);
    }
}

#[test]
fn strings_and_comments_never_fire() {
    let src = r##"
// HashMap in a line comment is fine.
/* HashMap in a /* nested */ block comment is fine. */
/// Doc mentioning thread_rng and Instant is fine.
let s = "HashMap inside a string";
let r = r#"SystemTime inside a raw "string" with quotes"#;
let c = '"'; // char literal holding a quote must not open a string
let esc = "escaped \" quote then HashMap";
"##;
    assert!(lint(src).is_empty(), "{:?}", lint(src));
}

#[test]
fn lifetimes_do_not_confuse_the_char_scanner() {
    // A naive char-literal scanner treats `'a` as an unterminated literal
    // and swallows the rest of the file, hiding the HashMap on line 2.
    let src =
        "fn f<'a>(x: &'a str, s: &'static str) -> &'a str { x }\nuse std::collections::HashMap;\n";
    let f = lint(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!((f[0].rule, f[0].line), ("hash-collections", 2));
}

#[test]
fn allow_escape_hatch_same_line_and_preceding_line() {
    let trailing = "use std::time::Instant; // lint: allow(wall-clock)\n";
    assert!(lint(trailing).is_empty());

    let preceding = "// lint: allow(wall-clock)\nlet t0 = Instant::now();\n";
    assert!(lint(preceding).is_empty());

    // The allowance is per-rule: it must not silence other rules…
    let wrong_rule = "use std::collections::HashMap; // lint: allow(wall-clock)\n";
    assert_eq!(lint(wrong_rule).len(), 1);

    // …and per-line: line 3 is out of the directive's reach.
    let too_far = "// lint: allow(wall-clock)\n\nlet t0 = Instant::now();\n";
    assert_eq!(lint(too_far).len(), 1);
}

#[test]
fn token_match_is_whole_identifier_only() {
    // Substrings of longer identifiers must not fire.
    let src = "struct MyHashMapLike; fn instant_ish() {} let par_iteration = 3;\n";
    assert!(lint(src).is_empty(), "{:?}", lint(src));
}

#[test]
fn findings_render_with_path_line_and_reason() {
    let f = lint("use std::collections::HashMap;\n");
    let s = f[0].to_string();
    assert!(s.contains("fixture.rs:1"), "{s}");
    assert!(s.contains("hash-collections"), "{s}");
    assert!(s.contains("BTreeMap"), "{s}");
}

#[test]
fn rule_lookup() {
    assert!(rule("os-entropy").is_some());
    assert!(rule("no-such-rule").is_none());
}

#[test]
fn workspace_is_clean() {
    let findings = xtask::lint_workspace(&xtask::workspace_root());
    assert!(
        findings.is_empty(),
        "determinism lint found banned tokens:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Revert-one-satellite check: the experiments crate keeps its maps in
/// `BTree*` collections (`serve.rs` dedups jobs through a `BTreeMap`).
/// Undo that textually and the lint must fail — proving the lint actually
/// guards the conversion rather than both versions passing vacuously.
#[test]
fn reverting_a_btree_conversion_fails_the_lint() {
    let file = "crates/experiments/src/service/serve.rs";
    let src = std::fs::read_to_string(xtask::workspace_root().join(file)).unwrap();
    assert!(
        src.contains("BTree"),
        "{file} no longer uses a BTree collection"
    );
    let reverted = src.replace("BTree", "Hash");
    let findings = lint_source(file, &reverted, &all_rules());
    assert!(
        findings.iter().any(|f| f.rule == "hash-collections"),
        "lint missed the reverted HashMap: {findings:?}"
    );
    // And the shipped file, unreverted, is clean under the same rules.
    assert!(lint_source(file, &src, &all_rules())
        .iter()
        .all(|f| f.rule != "hash-collections"));
}

/// The function-scoped panic rule: fires only inside listed bodies, stays
/// silent elsewhere in the same file, allows `debug_assert*`, and honors
/// the escape hatch.
#[test]
fn panic_rule_is_function_scoped() {
    let src = r#"
fn helper() {
    let x = opt.unwrap(); // outside the hot path: legal
}
pub(crate) fn sa_phase(x: Option<u32>) -> u32 {
    debug_assert!(x.is_some());
    x.unwrap()
}
fn also_fine() {
    panic!("not a hot path");
}
"#;
    let f = xtask::lint_hot_source("fixture.rs", src, &["sa_phase"]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "panic-in-hot-path");
    assert_eq!(f[0].token, "unwrap");
    assert_eq!(f[0].line, 7);
}

#[test]
fn panic_rule_catches_each_family_member() {
    for tok in [
        "unwrap",
        "expect",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ] {
        let src = format!("fn va_phase() {{\n    {tok}!(maybe);\n}}\n");
        let f = xtask::lint_hot_source("fixture.rs", &src, &["va_phase"]);
        assert_eq!(f.len(), 1, "{tok} missed: {f:?}");
        assert_eq!(f[0].token, tok);
    }
    // The debug_ variants stay legal.
    let src = "fn va_phase() {\n    debug_assert!(ok);\n    debug_assert_eq!(a, b);\n}\n";
    assert!(xtask::lint_hot_source("fixture.rs", src, &["va_phase"]).is_empty());
}

#[test]
fn panic_rule_escape_hatch_and_strings() {
    let hatched =
        "fn rc_phase() {\n    // lint: allow(panic-in-hot-path)\n    assert!(contract);\n}\n";
    assert!(xtask::lint_hot_source("fixture.rs", hatched, &["rc_phase"]).is_empty());
    // Tokens in strings and comments inside the body never fire, and
    // braces inside them must not derail the span tracker.
    let noisy = "fn rc_phase() {\n    // unwrap in a comment {\n    let s = \"panic! } {\";\n}\nfn after() { x.unwrap(); }\n";
    assert!(xtask::lint_hot_source("fixture.rs", noisy, &["rc_phase"]).is_empty());
}

/// Revert-one-satellite check for the panic rule: putting the `.unwrap()`
/// arbitration calls back into `sa_phase`/`va_phase` must fail the lint.
#[test]
fn reverting_the_phase_unwrap_rewrite_fails_the_lint() {
    let path = xtask::workspace_root().join("crates/noc-sim/src/network.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    let hot: Vec<&str> = xtask::HOT_PATHS
        .iter()
        .find(|h| h.file.ends_with("network.rs"))
        .unwrap()
        .functions
        .to_vec();
    // The shipped file is clean…
    assert!(xtask::lint_hot_source("network.rs", &src, &hot).is_empty());
    // …and reintroducing an unwrap inside sa_phase is caught.
    let marker = "let Some(w) = arbitrate_rr(&reqs[..k], v, &mut r.sa_in_ptr[in_port]) else {";
    assert!(src.contains(marker), "sa_phase rewrite marker missing");
    let reverted = src.replace(
        marker,
        "let Some(w) = Some(arbitrate_rr(&reqs[..k], v, &mut r.sa_in_ptr[in_port]).unwrap()) else {",
    );
    let findings = xtask::lint_hot_source("network.rs", &reverted, &hot);
    assert!(
        findings.iter().any(|f| f.token == "unwrap"),
        "lint missed the reverted unwrap: {findings:?}"
    );
}

/// The lint sees what the phases call: the NI functions run every tick, so
/// putting the `unwrap()` back into `Node::release_replies` must fail it.
#[test]
fn reverting_the_ni_unwrap_rewrite_fails_the_lint() {
    let hp = xtask::HOT_PATHS
        .iter()
        .find(|h| h.file.ends_with("node.rs"))
        .expect("node.rs is a hot path");
    for f in ["release_replies", "try_inject", "pick_vc"] {
        assert!(hp.functions.contains(&f), "{f} is not scanned");
    }
    let src = std::fs::read_to_string(xtask::workspace_root().join(hp.file)).unwrap();
    assert!(xtask::lint_fn_bodies("node.rs", &src, hp.functions, hp.rules).is_empty());
    let marker = "let Some(Reverse(r)) = self.replies.pop() else {";
    assert!(
        src.contains(marker),
        "release_replies rewrite marker missing"
    );
    let reverted = src.replace(
        marker,
        "let Some(Reverse(r)) = Some(self.replies.pop().unwrap()) else {",
    );
    let findings = xtask::lint_fn_bodies("node.rs", &reverted, hp.functions, hp.rules);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "panic-in-hot-path" && f.token == "unwrap"),
        "lint missed the reverted unwrap: {findings:?}"
    );
}

/// The function-scoped allocation rule: every banned form fires inside a
/// listed body, `Type::function` forms need both identifiers, nothing
/// fires outside the body, and the hatch works.
#[test]
fn alloc_rule_flags_each_allocating_form_in_a_phase_body() {
    let rules = [&xtask::ALLOC_RULE];
    for (call, token) in [
        ("let r: Vec<u32> = it.collect();", "collect"),
        ("let r = s.to_vec();", "to_vec"),
        ("let r = s.to_owned();", "to_owned"),
        ("let r = vec![0; n];", "vec"),
        ("let r: Vec<u32> = Vec::new();", "Vec::new"),
        (
            "let r: Vec<u32> = Vec::with_capacity(n);",
            "Vec::with_capacity",
        ),
        ("let r: VecDeque<u32> = VecDeque::new();", "VecDeque::new"),
        ("let r = Box::new(x);", "Box::new"),
        ("let r = format!(\"{x}\");", "format"),
        ("let r = x.to_string();", "to_string"),
    ] {
        let src = format!("fn helper() {{\n    {call}\n}}\nfn sa_phase() {{\n    {call}\n}}\n");
        let f = xtask::lint_fn_bodies("fixture.rs", &src, &["sa_phase"], &rules);
        assert_eq!(f.len(), 1, "{call}: {f:?}");
        assert_eq!(
            (f[0].rule, f[0].token.as_str()),
            ("alloc-in-hot-path", token)
        );
        assert_eq!(f[0].line, 5, "{call} must fire inside the body only");
    }
    // The clean shape: a stack array filled in place, a register drained in
    // place, `Cell::new` / `Vec::push` / a bare `new` — none of them banned.
    let clean = "fn va_phase(q: &mut Vec<u32>) {\n    let mut reqs = [(0u64, 0usize); 64];\n    \
                 reqs[0] = (1, 2);\n    q.retain(|x| *x != 0);\n    q.clear();\n    q.push(1);\n    \
                 let c = Cell::new(0);\n    let w = Wrapper::new();\n}\n";
    assert!(xtask::lint_fn_bodies("fixture.rs", clean, &["va_phase"], &rules).is_empty());
    let hatched =
        "fn rc_phase() {\n    // lint: allow(alloc-in-hot-path)\n    let v = Vec::new();\n}\n";
    assert!(xtask::lint_fn_bodies("fixture.rs", hatched, &["rc_phase"], &rules).is_empty());
}

/// Revert check for the allocation rule: putting the per-port request
/// `Vec` back into `sa_phase` must fail the lint, and the shipped kernel —
/// like the rest of the workspace — is clean.
#[test]
fn reverting_the_on_stack_request_set_fails_the_lint() {
    assert!(xtask::rule("alloc-in-hot-path").is_some());
    let path = xtask::workspace_root().join("crates/noc-sim/src/network.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    let hp = xtask::HOT_PATHS
        .iter()
        .find(|h| h.file.ends_with("network.rs"))
        .unwrap();
    assert!(hp.rules.iter().any(|r| r.name == "alloc-in-hot-path"));
    assert!(xtask::lint_fn_bodies("network.rs", &src, hp.functions, hp.rules).is_empty());
    let marker = "let Some(w) = arbitrate_rr(&reqs[..k], v, &mut r.sa_in_ptr[in_port]) else {";
    assert!(src.contains(marker), "sa_phase marker missing");
    let reverted = src.replace(
        marker,
        &format!("let reqs: Vec<(u64, usize)> = reqs[..k].iter().copied().collect();\n{marker}"),
    );
    let findings = xtask::lint_fn_bodies("network.rs", &reverted, hp.functions, hp.rules);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "alloc-in-hot-path" && f.token == "collect"),
        "lint missed the reverted collect: {findings:?}"
    );
    let workspace = xtask::lint_workspace(&xtask::workspace_root());
    assert!(workspace.is_empty(), "{workspace:?}");
}

/// The injection phase drives `Scenario::{generate, next_poll}`, so their
/// bodies and draw helpers are hot paths: putting the `position(..).unwrap()`
/// back into `draw_dest`'s corner fallback, or the complement `collect()`
/// back into `Pattern::dest`, fails the lint.
#[test]
fn reverting_the_scenario_draw_rewrites_fails_the_lint() {
    let hot = |file: &str| {
        let hp = xtask::HOT_PATHS.iter().find(|h| h.file.ends_with(file));
        let hp = hp.unwrap_or_else(|| panic!("{file} is not a hot path"));
        let src = std::fs::read_to_string(xtask::workspace_root().join(hp.file)).unwrap();
        assert!(xtask::lint_fn_bodies(file, &src, hp.functions, hp.rules).is_empty());
        (hp, src)
    };
    let (hp, src) = hot("scenario.rs");
    for f in ["generate", "next_poll", "draw_dest"] {
        assert!(hp.functions.contains(&f), "{f} is not listed");
    }
    let marker = "self.corner_after[k]";
    assert!(src.contains(marker), "draw_dest marker missing");
    let reverted = src.replace(
        marker,
        "self.corners[(self.corners.iter().position(|&x| x == src).unwrap() + 1) % 4]",
    );
    let findings = xtask::lint_fn_bodies("scenario.rs", &reverted, hp.functions, hp.rules);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "panic-in-hot-path" && f.token == "unwrap"),
        "lint missed the reverted unwrap: {findings:?}"
    );

    let (hp, src) = hot("pattern.rs");
    let marker = "match outside().count() {";
    assert!(src.contains(marker), "Pattern::dest marker missing");
    let reverted = src.replace(
        marker,
        &format!(
            "let all: Vec<NodeId> = outside().collect();
{marker}"
        ),
    );
    let findings = xtask::lint_fn_bodies("pattern.rs", &reverted, hp.functions, hp.rules);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "alloc-in-hot-path" && f.token == "collect"),
        "lint missed the reverted collect: {findings:?}"
    );
}

/// The hot-path lint must not go blind: a listed function that was renamed
/// or moved away, and a listed file that cannot be read, are findings.
#[test]
fn missing_hot_path_function_or_file_is_a_finding() {
    let src = "fn sa_phase() {}\nfn helper() { x.unwrap(); }\n";
    let f = xtask::lint_hot_source("fixture.rs", src, &["sa_phase", "va_phase"]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "panic-in-hot-path");
    assert_eq!(f[0].token, "fn va_phase");

    let empty = std::env::temp_dir().join(format!("xtask-no-sources-{}", std::process::id()));
    let f = xtask::lint_hot_paths(&empty);
    assert_eq!(f.len(), xtask::HOT_PATHS.len(), "{f:?}");
    assert!(f.iter().all(|f| f.rule == "panic-in-hot-path"));
}

#[test]
fn panic_rule_lookup_and_workspace_hot_paths_clean() {
    assert!(xtask::rule("panic-in-hot-path").is_some());
    let findings = xtask::lint_hot_paths(&xtask::workspace_root());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn swallowed_io_flags_discarded_fs_results() {
    let src = "fn cleanup(p: &std::path::Path) {\n    let _ = std::fs::remove_file(p);\n}\n";
    let f = xtask::lint_swallowed_io_source("fixture.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "swallowed-io-error");
    assert_eq!(f[0].line, 2);
    assert!(f[0].token.contains("remove_file"), "{f:?}");
}

#[test]
fn swallowed_io_flags_discarded_writes_and_syncs() {
    for call in [
        "writeln!(out, \"x\")",
        "write!(out, \"x\")",
        "file.write_all(b\"x\")",
        "file.sync_all()",
        "std::fs::rename(a, b)",
        "store.append_durable(p, b\"x\")",
    ] {
        let src = format!("fn f() {{\n    let _ = {call};\n}}\n");
        let f = xtask::lint_swallowed_io_source("fixture.rs", &src);
        assert_eq!(f.len(), 1, "{call} missed: {f:?}");
    }
}

#[test]
fn swallowed_io_allow_hatch_and_non_io_bindings_stay_legal() {
    // The escape hatch on the preceding line suppresses the finding.
    let hatched = "fn f(p: &std::path::Path) {\n    // lint: allow(swallowed-io-error)\n    let _ = std::fs::remove_file(p);\n}\n";
    assert!(xtask::lint_swallowed_io_source("fixture.rs", hatched).is_empty());
    // A named discard is visible in review; only the bare `_` is flagged.
    let named = "fn f(p: &std::path::Path) {\n    let _ignored = std::fs::remove_file(p);\n}\n";
    assert!(xtask::lint_swallowed_io_source("fixture.rs", named).is_empty());
    // Discarding a non-IO result is not this lint's business.
    let benign = "fn f() {\n    let _ = heap.pop();\n    let _ = send(msg);\n}\n";
    assert!(xtask::lint_swallowed_io_source("fixture.rs", benign).is_empty());
    // An IO call in a LATER statement must not attribute backwards.
    let later = "fn f(p: &std::path::Path) {\n    let _ = heap.pop();\n    let r = std::fs::remove_file(p);\n    r.unwrap();\n}\n";
    assert!(xtask::lint_swallowed_io_source("fixture.rs", later).is_empty());
}

#[test]
fn swallowed_io_rule_lookup_and_durability_scopes_clean() {
    assert!(xtask::rule("swallowed-io-error").is_some());
    let findings = xtask::lint_durability_scopes(&xtask::workspace_root());
    assert!(findings.is_empty(), "{findings:?}");
}

/// The byte-level entry points are hot paths under the panic rule: putting
/// an `unwrap()` into `JobSpec::parse` must fail the lint.
#[test]
fn a_panicking_jobs_file_parser_fails_the_lint() {
    let hp = xtask::HOT_PATHS
        .iter()
        .find(|h| h.file.ends_with("service/serve.rs"))
        .expect("serve.rs is a hot path");
    assert!(hp.functions.contains(&"parse") && hp.functions.contains(&"parse_jobs"));
    let src = std::fs::read_to_string(xtask::workspace_root().join(hp.file)).unwrap();
    assert!(xtask::lint_fn_bodies("serve.rs", &src, hp.functions, hp.rules).is_empty());
    let marker = ".map_err(|_| format!(\"rate `{}` is not a number\", f[5]))?;";
    assert!(src.contains(marker), "JobSpec::parse marker missing");
    let reverted = src.replace(marker, ".unwrap();");
    let findings = xtask::lint_fn_bodies("serve.rs", &reverted, hp.functions, hp.rules);
    assert!(
        findings.iter().any(|f| f.token == "unwrap"),
        "lint missed the unwrap: {findings:?}"
    );
}

/// The reference kernel may be named in `#[cfg(test)]` modules only (tests
/// and benches live outside the scanned `src` trees); comments, strings and
/// the hatch behave as for every rule.
#[test]
fn reference_rule_fires_outside_test_modules_only() {
    let production = "fn drive(net: &mut Network) {\n    net.run_reference(10);\n}\n";
    let f = xtask::lint_reference_source("fixture.rs", production);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(
        (f[0].rule, f[0].token.as_str(), f[0].line),
        ("reference-in-production", "run_reference", 2)
    );
    let tested = "/// Twin of `tick_reference`.\nfn tick() {}\n#[cfg(test)]\nmod tests {\n    \
                  fn t(net: &mut Network) {\n        net.tick_reference();\n    }\n}\n";
    assert!(xtask::lint_reference_source("fixture.rs", tested).is_empty());
    // Code after the test module is production again.
    let after = format!("{tested}fn late(net: &mut Network) {{ net.tick_reference(); }}\n");
    let f = xtask::lint_reference_source("fixture.rs", &after);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 9);
    let hatched =
        "// lint: allow(reference-in-production)\nfn f(n: &mut Network) { n.tick_reference(); }\n";
    assert!(xtask::lint_reference_source("fixture.rs", hatched).is_empty());
}

/// The shipped tree keeps the reference out of production — naming it in
/// the job runner must fail the lint — and out of `HOT_PATHS` (it may
/// allocate and `expect`).
#[test]
fn reference_kernel_stays_out_of_production_and_hot_paths() {
    assert!(xtask::rule("reference-in-production").is_some());
    let root = xtask::workspace_root();
    assert!(root.join(xtask::REFERENCE_HOME).is_file());
    let findings = xtask::lint_reference_scopes(&root);
    assert!(findings.is_empty(), "{findings:?}");
    assert!(xtask::HOT_PATHS
        .iter()
        .all(|h| h.file != xtask::REFERENCE_HOME));

    let src = std::fs::read_to_string(root.join("crates/experiments/src/runner.rs")).unwrap();
    let marker = "net.run_warmup_measure(";
    assert!(src.contains(marker), "runner.rs marker missing");
    let reverted = src.replace(marker, "net.run_reference(");
    assert!(!xtask::lint_reference_source("runner.rs", &reverted).is_empty());
}

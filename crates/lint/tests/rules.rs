//! End-to-end rule tests over the fixture crates in
//! `tests/fixtures/`, plus the self-test that the real workspace is
//! clean under the checked-in manifest.
//!
//! Every fixture seeds a known number of violations; each must be
//! detected by exactly its intended rule (ISSUE 5 acceptance).

use std::path::PathBuf;

use wga_lint::{run, Analysis, Config, SiteStatus, RULES};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn analyze(manifest: &str, rules: &[&'static str]) -> Analysis {
    let cfg = Config::parse(fixture_root(), manifest).expect("fixture manifest parses");
    run(&cfg, rules).expect("fixture run succeeds")
}

fn violations(a: &Analysis) -> Vec<&wga_lint::Site> {
    a.sites
        .iter()
        .filter(|s| s.status == SiteStatus::Violation)
        .collect()
}

#[test]
fn panics_fixture_exact_counts() {
    let a = analyze("[scan]\npanics\n", &["panics"]);
    let s = a.stats("panics");
    assert_eq!(s.found, 6, "5 live + 1 waived: {:#?}", a.sites);
    assert_eq!(s.waived, 1);
    assert_eq!(s.violations, 5);
    assert!(a.sites.iter().all(|s| s.rule == "panics"));
    // The five seeded kinds are each present.
    let msgs: Vec<&str> = violations(&a).iter().map(|s| s.msg.as_str()).collect();
    for kind in [".unwrap()", ".expect()", "panic!", "unreachable!", "todo!"] {
        assert!(
            msgs.iter().any(|m| m.starts_with(kind)),
            "missing {kind} in {msgs:?}"
        );
    }
}

#[test]
fn determinism_fixture_exact_counts() {
    let a = analyze(
        "[scan]\ndeterminism\n[determinism]\ndeterminism/canonical.rs\n",
        &["determinism"],
    );
    let s = a.stats("determinism");
    assert_eq!(s.found, 3, "{:#?}", a.sites);
    assert_eq!(s.waived, 1);
    assert_eq!(s.violations, 2);
    let msgs: Vec<&str> = violations(&a).iter().map(|s| s.msg.as_str()).collect();
    assert_eq!(
        msgs.iter()
            .filter(|m| m.starts_with("hash iteration"))
            .count(),
        2,
        "{msgs:?}"
    );
}

#[test]
fn determinism_only_runs_on_manifest_modules() {
    // Same scan dir, but the module is not in [determinism]: no sites.
    let a = analyze("[scan]\ndeterminism\n", &["determinism"]);
    assert_eq!(a.stats("determinism").found, 0);
}

#[test]
fn deadlock_clean_chain_is_acyclic() {
    let a = analyze("[scan]\ndeadlock_ok\n", &["deadlock"]);
    assert_eq!(a.queues, 3);
    assert_eq!(a.edges, 2);
    assert_eq!(a.cycles, 0);
    assert_eq!(a.total_violations(), 0, "{:#?}", a.sites);
}

#[test]
fn deadlock_cycle_through_helper_call_detected() {
    let a = analyze("[scan]\ndeadlock_cycle\n", &["deadlock"]);
    assert_eq!(a.cycles, 1, "{:#?}", a.sites);
    let v = violations(&a);
    assert_eq!(v.len(), 1);
    assert!(v[0].msg.contains("cycle"));
    assert!(v[0].msg.contains("work_q") && v[0].msg.contains("done_q"));
}

#[test]
fn each_seeded_violation_hits_exactly_its_intended_rule() {
    let manifest = "
[scan]
panics
determinism
deadlock_ok
deadlock_cycle
[determinism]
determinism/canonical.rs
";
    // These fixtures name no entry point, so every fn in them is dead by
    // construction; the dead rule has its own fixture below.
    let rules: Vec<&'static str> = RULES.iter().copied().filter(|r| *r != "dead").collect();
    let a = analyze(manifest, &rules);
    assert!(a.total_violations() > 0);
    for v in violations(&a) {
        let expected = match v.file.split('/').next().unwrap_or("") {
            "panics" => "panics",
            "determinism" => "determinism",
            "deadlock_cycle" => "deadlock",
            other => panic!("violation in unexpected fixture dir {other}: {v:?}"),
        };
        assert_eq!(
            v.rule, expected,
            "cross-rule contamination at {}:{} — {}",
            v.file, v.line, v.msg
        );
    }
    // And the clean fixture stays clean even in the combined run.
    assert!(violations(&a)
        .iter()
        .all(|v| !v.file.starts_with("deadlock_ok/")));
}

/// The real workspace must be green under the checked-in manifest —
/// the same invariant CI enforces, pinned as a test so `cargo test`
/// alone catches a regression.
#[test]
fn workspace_is_clean_under_checked_in_manifest() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let manifest_path = root.join("scripts/wga-lint.manifest");
    let text = std::fs::read_to_string(&manifest_path).expect("manifest readable");
    let cfg = Config::parse(root, &text).expect("manifest parses");
    let a = run(&cfg, RULES).expect("workspace lint runs");
    let v = violations(&a);
    assert!(
        v.is_empty(),
        "workspace has non-waived lint violations:\n{}",
        v.iter()
            .map(|s| format!("  {}:{} [{}] {}", s.file, s.line, s.rule, s.msg))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The deadlock rule really parsed the dataflow: the two-queue
    // chain (producer → pool → collector) must be present and acyclic.
    assert_eq!(a.queues, 2);
    assert_eq!(a.edges, 1);
    assert_eq!(a.cycles, 0);
    // Every non-test fn is reached from an entry point, an example or
    // benchmark, or an oracle.
    assert_eq!(a.stats("dead").found, 0);
    assert_eq!(a.dead_reached, a.fns);
    // The call graph actually covered the workspace: entry points
    // resolved and reachability is non-trivial. Loose bounds — exact
    // shapes are pinned by the fixture crates, not the living tree.
    assert!(a.entry_fns >= 8, "entry fns: {}", a.entry_fns);
    assert!(a.reachable_fns > 100, "reachable fns: {}", a.reachable_fns);
    assert!(a.call_edges > 1000, "call edges: {}", a.call_edges);
}

// --- call-graph fixture pins (exact node/edge counts) ---------------

#[test]
fn callgraph_traits_dispatch_targets_implementors_with_bodies() {
    let a = analyze(
        "[scan]\ncallgraph_traits\n[entry-points]\nexecute\n",
        &["panics"],
    );
    // trait decl (bodyless) + default method + 2 impls + 2 helpers
    // + execute.
    assert_eq!(a.fns, 7);
    // execute -> {Seeding::run, Filtering::run, Stage::tag} plus the
    // two helper calls; the bodyless signature is not a target.
    assert_eq!(a.call_edges, 5);
    assert_eq!(a.unknown_edges, 0);
    assert_eq!(a.entry_fns, 1);
    assert_eq!(a.reachable_fns, 6, "everything but the bodyless trait sig");
}

#[test]
fn callgraph_alias_resolves_use_as_to_definition() {
    let a = analyze(
        "[scan]\ncallgraph_alias\n[entry-points]\nexecute\n",
        &["panics"],
    );
    assert_eq!(a.fns, 2);
    assert_eq!(a.call_edges, 1, "launch() -> spawn_worker, not unknown");
    assert_eq!(a.unknown_edges, 0);
    assert_eq!(a.reachable_fns, 2);
}

#[test]
fn callgraph_shadow_prefers_same_file_then_fans_out() {
    let a = analyze(
        "[scan]\ncallgraph_shadow\n[entry-points]\nexecute\n",
        &["panics"],
    );
    assert_eq!(a.fns, 6);
    // execute -> a::normalize (same-file wins) + a::normalize -> step
    // + b::normalize -> other + dispatch -> both normalize defs.
    assert_eq!(a.call_edges, 5);
    assert_eq!(a.unknown_edges, 0);
    assert_eq!(a.reachable_fns, 3, "execute, a::normalize, step");
}

#[test]
fn callgraph_closures_merge_into_enclosing_fn() {
    let a = analyze(
        "[scan]\ncallgraph_closures\n[entry-points]\nexecute\n",
        &["panics"],
    );
    assert_eq!(a.fns, 3, "the closure is not its own node");
    assert_eq!(a.call_edges, 2, "execute -> helper -> inner");
    assert_eq!(a.unknown_edges, 1, "worker() — the closure binding");
    assert_eq!(a.reachable_fns, 3);
}

#[test]
fn callgraph_macro_synthesizes_one_fn_per_invocation() {
    let a = analyze(
        "[scan]\ncallgraph_macro\n[entry-points]\nexecute\n",
        &["panics"],
    );
    assert_eq!(a.fns, 4, "kernel_i16, kernel_i32, helper, execute");
    // execute -> both kernels, each kernel -> helper (via the shared
    // macro body range).
    assert_eq!(a.call_edges, 4);
    assert_eq!(a.unknown_edges, 0);
    assert_eq!(a.reachable_fns, 4);
}

// --- reachability + taint fixtures ----------------------------------

#[test]
fn reachable_panic_carries_full_chain_and_orphan_fails_without_one() {
    let a = analyze(
        "[scan]\nreach_panics\n[entry-points]\nexecute\n",
        &["panics"],
    );
    let s = a.stats("panics");
    assert_eq!(s.found, 2, "{:#?}", a.sites);
    assert_eq!(s.violations, 2, "reachable or not, an unwaived site fails");
    let v = violations(&a);
    assert_eq!(
        v[0].msg,
        ".unwrap() — reachable from pipeline entry points via \
         execute -> stage_a -> stage_b"
    );
    assert_eq!(v[0].chain, vec!["execute", "stage_a", "stage_b"]);
    assert_eq!((v[1].msg.as_str(), v[1].chain.len()), (".unwrap()", 0));
}

#[test]
fn taint_unclassified_reachable_module_fails_surface_check() {
    let a = analyze(
        "[scan]\ntaint_flow\n[entry-points]\ncanonical_text\n\
         [determinism-sinks]\ncanonical_text\n",
        &["taint"],
    );
    let v = violations(&a);
    assert_eq!(v.len(), 2, "{:#?}", a.sites);
    assert!(v[0].msg.contains("listed in neither [determinism] nor"));
}

#[test]
fn taint_sink_reports_source_with_chain() {
    let a = analyze(
        "[scan]\ntaint_flow\n[entry-points]\ncanonical_text\n\
         [determinism-sinks]\ncanonical_text\n\
         [determinism]\ntaint_flow/report.rs\n",
        &["taint"],
    );
    let v = violations(&a);
    assert_eq!(v.len(), 1, "{:#?}", a.sites);
    assert_eq!(
        v[0].msg,
        "canonical sink canonical_text transitively calls tick \
         (hash iteration: counts.keys() at taint_flow/report.rs:15)"
    );
    assert_eq!(v[0].chain, vec!["canonical_text", "compute", "tick"]);
}

// --- dead-code fixture -----------------------------------------------

#[test]
fn dead_reports_only_the_unreachable_pub_fn() {
    let a = analyze(
        "[scan]\ndead_code/src\n[entry-points]\nexecute\n\
         [entry-dirs]\ndead_code/examples\n\
         [oracles]\nreference_parse  # compared against in tests\n",
        &["dead"],
    );
    // execute, decode, Parser::{new, run, fmt}, reference_parse,
    // example_helper, orphan; the example's own fns are not nodes.
    assert_eq!(a.fns, 8);
    assert_eq!(a.dead_reached, 7);
    let v: Vec<(&str, u32, &str)> = a
        .sites
        .iter()
        .map(|s| (s.file.as_str(), s.line, s.msg.as_str()))
        .collect();
    assert_eq!(
        v,
        [(
            "dead_code/src/lib.rs",
            44,
            "orphan is reached from no entry point, entry dir or oracle"
        )]
    );
    assert_eq!(a.total_violations(), 1);
}

#[test]
fn dead_flags_a_stale_oracle_entry() {
    let a = analyze(
        "[scan]\ndead_code/src\n[entry-points]\nexecute\n\
         [entry-dirs]\ndead_code/examples\n\
         [oracles]\nreference_parse  # compared against in tests\n\
         orphan  # now listed\nParser::run  # reached anyway\nmissing  # deleted\n",
        &["dead"],
    );
    let msgs: Vec<&str> = violations(&a).iter().map(|s| s.msg.as_str()).collect();
    assert_eq!(
        msgs,
        [
            "oracle `Parser::run` is reached without being listed",
            "oracle `missing` names no scanned fn",
        ]
    );
}

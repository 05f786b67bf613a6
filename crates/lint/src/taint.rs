//! Determinism-taint pass: the interprocedural replacement for
//! trusting the hand-maintained `[determinism]` roster.
//!
//! Two checks, both over the workspace call graph:
//!
//! 1. **Surface superset** — every file containing at least one fn
//!    reachable from a pipeline entry point must be *classified*:
//!    either in `[determinism]` (on the canonical surface, per-file
//!    determinism rule applies) or under a `[determinism-exempt]`
//!    prefix (justified orchestration/telemetry/tooling). An
//!    unclassified reachable file is a violation naming the module —
//!    this is what makes a brand-new module fail the build until a
//!    human decides which side of the line it lives on, instead of
//!    silently rotting off the roster (the PR 8/PR 9 failure mode).
//!
//! 2. **Tainted sinks** — nondeterminism *sources* (hash iteration and
//!    thread spawns) taint their enclosing fn;
//!    taint flows callee→caller, so a sink fn (`canonical_text`,
//!    `paf_text`, …, from `[determinism-sinks]`) is tainted exactly
//!    when some transitive callee contains an unwaived source. Each
//!    tainted sink yields a violation with the full call chain
//!    sink → … → source.
//!
//! Soundness note: resolution is name-based (see [`crate::callgraph`]),
//! so check 2 over-approximates through same-named methods. Sources
//! already waived with `// lint: allow(determinism): why` do not taint.

use std::path::PathBuf;

use crate::callgraph::Graph;
use crate::config::Config;
use crate::lexer::Lexed;
use crate::rules::{self, Directives, RawSite};

/// One taint finding.
#[derive(Debug)]
pub struct TaintSite {
    /// File index the finding anchors to.
    pub file: usize,
    pub line: u32,
    /// The fn it anchors to: the file's first reachable fn, or the sink.
    pub func: String,
    pub msg: String,
    pub waived: bool,
    /// Call path: for surface findings `entry -> … -> fn-in-file`; for
    /// sink findings `sink -> … -> source-fn`.
    pub chain: Vec<String>,
}

/// Result of the taint pass.
#[derive(Debug, Default)]
pub struct TaintReport {
    pub sites: Vec<TaintSite>,
    /// Files inferred on the surface (reachable), count for the report.
    pub surface_files: usize,
    /// Sink fns found in the graph.
    pub sinks: usize,
}

/// Runs both checks. `entry_parent`/`entry_seen` is the BFS result
/// from the pipeline entry points (shared with the panics pass).
pub fn analyze(
    cfg: &Config,
    files: &[PathBuf],
    lexed: &[Lexed<'_>],
    dirs: &[Directives],
    graph: &Graph,
    entry_parent: &[usize],
    entry_seen: &[bool],
) -> TaintReport {
    let mut report = TaintReport::default();

    // --- check 1: surface superset --------------------------------
    // First reachable fn per file (file order ⇒ deterministic chains).
    let mut first_reachable: Vec<Option<usize>> = vec![None; files.len()];
    for (i, f) in graph.fns.iter().enumerate() {
        if entry_seen[i] && first_reachable[f.file].is_none() {
            first_reachable[f.file] = Some(i);
        }
    }
    for (fi, rel) in files.iter().enumerate() {
        let Some(node) = first_reachable[fi] else {
            continue;
        };
        report.surface_files += 1;
        let classified = cfg.determinism_files.iter().any(|f| f == rel)
            || Config::under_any(rel, &cfg.determinism_exempt);
        if !classified {
            let chain = graph.chain(entry_parent, entry_seen, node);
            report.sites.push(TaintSite {
                file: fi,
                line: graph.fns[node].line,
                func: graph.fns[node].qual(),
                msg: "module is reachable from pipeline entry points but listed in \
                      neither [determinism] nor [determinism-exempt] — classify it"
                    .to_string(),
                waived: false,
                chain,
            });
        }
    }

    // --- check 2: tainted sinks -----------------------------------
    // Source fns: each unwaived source token maps to its enclosing fn.
    // (sorted by node id for stable output; record the first source
    // line and kind per fn.)
    let mut source_of: Vec<Option<(u32, String)>> = vec![None; graph.fns.len()];
    for (fi, lx) in lexed.iter().enumerate() {
        let mut srcs: Vec<RawSite> = rules::determinism(lx, &dirs[fi]);
        srcs.extend(rules::spawn_sources(lx, &dirs[fi]));
        for s in srcs {
            if s.waived {
                continue;
            }
            let Some(node) = graph.enclosing_fn(fi, s.tok) else {
                continue;
            };
            let slot = &mut source_of[node];
            let replace = match slot {
                Some((line, _)) => s.line < *line,
                None => true,
            };
            if replace {
                *slot = Some((s.line, s.msg));
            }
        }
    }

    let sink_nodes = graph.nodes_named(&cfg.determinism_sinks);
    report.sinks = sink_nodes.len();
    for &sink in &sink_nodes {
        let (parent, seen) = graph.reach(&[sink]);
        // All source fns this sink can reach, in node order.
        for (node, src) in source_of.iter().enumerate() {
            let Some((_, kind)) = src else { continue };
            if !seen[node] {
                continue;
            }
            let chain = graph.chain(&parent, &seen, node);
            let sink_file = graph.fns[sink].file;
            let sink_line = graph.fns[sink].line;
            let waived = dirs[sink_file].waived("taint", sink_line);
            report.sites.push(TaintSite {
                file: sink_file,
                line: sink_line,
                func: graph.fns[sink].qual(),
                msg: format!(
                    "canonical sink {} transitively calls {} ({} at {})",
                    graph.fns[sink].qual(),
                    graph.fns[node].qual(),
                    kind,
                    graph.files[graph.fns[node].file],
                ),
                waived,
                chain,
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::lex;
    use crate::rules::scan_directives;
    use crate::symbols::extract;

    fn run_taint(manifest: &str, srcs: &[(&str, &str)], entries: &[&str]) -> (TaintReport, Graph) {
        let cfg = Config::parse(PathBuf::new(), manifest).expect("manifest");
        let files: Vec<PathBuf> = srcs.iter().map(|(p, _)| PathBuf::from(p)).collect();
        let names: Vec<String> = srcs.iter().map(|(p, _)| p.to_string()).collect();
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let dirs: Vec<_> = lexed.iter().map(scan_directives).collect();
        let syms: Vec<_> = lexed
            .iter()
            .enumerate()
            .map(|(i, lx)| extract(lx, i))
            .collect();
        let graph = callgraph::build(&names, &lexed, &syms);
        let roots = graph.nodes_named(&entries.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let (parent, seen) = graph.reach(&roots);
        let r = analyze(&cfg, &files, &lexed, &dirs, &graph, &parent, &seen);
        (r, graph)
    }

    #[test]
    fn unclassified_reachable_module_is_flagged() {
        let (r, _) = run_taint(
            "[scan]\nsrc\n[determinism]\nsrc/a.rs\n",
            &[
                ("src/a.rs", "fn entry() { helper(); }"),
                ("src/b.rs", "fn helper() {}"),
                ("src/island.rs", "fn unused_anywhere() {}"),
            ],
            &["entry"],
        );
        assert_eq!(r.sites.len(), 1, "{:#?}", r.sites);
        assert_eq!(r.sites[0].file, 1, "b.rs is reachable and unclassified");
        assert_eq!(r.sites[0].chain, vec!["entry", "helper"]);
        assert_eq!(r.surface_files, 2, "island.rs is not on the surface");
    }

    #[test]
    fn exempt_prefix_classifies() {
        let (r, _) = run_taint(
            "[scan]\nsrc\n[determinism]\nsrc/a.rs\n[determinism-exempt]\nsrc/orch\n",
            &[
                ("src/a.rs", "fn entry() { helper(); }"),
                ("src/orch/b.rs", "fn helper() {}"),
            ],
            &["entry"],
        );
        assert!(r.sites.is_empty(), "{:#?}", r.sites);
    }

    #[test]
    fn tainted_sink_reports_chain_to_source() {
        let (r, _) = run_taint(
            "[scan]\nsrc\n[determinism]\nsrc/a.rs\n[determinism-sinks]\ncanonical_text\n",
            &[(
                "src/a.rs",
                "
fn entry() { canonical_text(); }
fn canonical_text() { fmt_row(); }
fn fmt_row(m: &HashMap<u32, u32>) { let v: Vec<u32> = m.values().copied().collect(); }
",
            )],
            &["entry"],
        );
        let sink_sites: Vec<_> = r.sites.iter().filter(|s| s.msg.contains("sink")).collect();
        assert_eq!(sink_sites.len(), 1, "{:#?}", r.sites);
        assert_eq!(sink_sites[0].chain, vec!["canonical_text", "fmt_row"]);
        assert!(sink_sites[0].msg.contains("hash iteration"));
    }

    #[test]
    fn waived_source_does_not_taint() {
        let (r, _) = run_taint(
            "[scan]\nsrc\n[determinism]\nsrc/a.rs\n[determinism-sinks]\ncanonical_text\n",
            &[(
                "src/a.rs",
                "
fn entry() { canonical_text(); }
fn canonical_text() { fmt_row(); }
// lint: allow(determinism): commutative sum, visit order cannot change it
fn fmt_row(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }
",
            )],
            &["entry"],
        );
        assert!(
            r.sites.iter().all(|s| !s.msg.contains("sink")),
            "{:#?}",
            r.sites
        );
    }
}

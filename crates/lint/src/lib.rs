//! `wga-lint` — project-invariant static analyzer for the Darwin-WGA
//! workspace.
//!
//! The linter keeps the checks that have caught defects (EXPERIMENTS.md,
//! "wga-lint by its record"). A symbol table ([`symbols`]) and a
//! workspace call graph ([`callgraph`]) sit on the hand-rolled lexer
//! ([`lexer`]), and the rules run passes over that graph rather than
//! flat token scans alone:
//!
//! * **panics** — `.unwrap()`/`.expect(`/`panic!`-family in non-test
//!   code anywhere in `[scan]`. Every
//!   unwaived site is a violation; one whose enclosing fn is reachable
//!   from a pipeline entry point (`[entry-points]`) carries the full
//!   entry→site call chain. `self.unwrap()`/`self.expect(..)` calls
//!   that resolve to a method the enclosing impl defines are *calls*,
//!   not panic sites.
//! * **determinism** — hash-map/set iteration in the manifest's
//!   `[determinism]` module set (the code that feeds `canonical_text`).
//! * **taint** — (a) every file reachable from an entry point must be
//!   classified in `[determinism]` or `[determinism-exempt]`;
//!   (b) hash iteration and spawn ordering taint callee→caller, and a
//!   canonical sink (`[determinism-sinks]`) that transitively reaches
//!   an unwaived source is a violation with the sink→source chain.
//! * **dead** — every non-test fn must be reached by a name-mention
//!   closure ([`callgraph::Graph::reach_by_mention`]) rooted at the
//!   entry points, at every name the `[entry-dirs]` (examples,
//!   benchmarks) mention, at the `[oracles]` tests compare production
//!   against, and at trait-impl and macro-generated fns, which the
//!   language or a macro calls. A stale `[oracles]` entry is a finding
//!   too.
//!
//! Some invariants are checked more directly elsewhere, so the linter
//! leaves them alone: `// SAFETY:` comments by rustc's and clippy's
//! workspace lints, allocation in the kernels' hot loops by
//! `crates/align/tests/alloc_bound.rs`, floats and clocks by the
//! byte-identical `canonical_text` goldens, lock/queue interleavings by
//! the TSAN job and the timeout-wrapped dataflow suites, and the
//! dataflow queue's one-way flow by its push half's type, which cannot
//! reach a worker.
//!
//! Any rule can be waived per site with
//! `// lint: allow(<rule>): <why>` — the *why* is mandatory.
//!
//! **Soundness caveats**: call resolution is name-based (no types), so
//! trait calls fan out to every in-workspace implementor, same-named
//! free fns in other crates can alias, and calls into external crates
//! are explicit *unknown edges* that confer no reachability. The
//! passes over-approximate reachability and taint rather than prove
//! their absence. The `dead` rule's closure is coarser still — any fn
//! whose name a reached body mentions is reached — so it can miss dead
//! code but never reports a fn that a scanned body, entry dir or oracle
//! uses.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod taint;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use config::{Config, LintError};

/// All rule names, in reporting order.
pub const RULES: &[&str] = &["panics", "determinism", "taint", "dead"];

/// What became of one rule hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteStatus {
    /// Counts against the exit code.
    Violation,
    /// Covered by a `// lint: allow(...)` waiver.
    Waived,
}

impl SiteStatus {
    fn of(waived: bool) -> SiteStatus {
        if waived {
            SiteStatus::Waived
        } else {
            SiteStatus::Violation
        }
    }
}

/// One rule hit, resolved.
#[derive(Debug)]
pub struct Site {
    pub rule: &'static str,
    /// Root-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    /// Qualified name of the fn the finding sits in (for `dead`, the fn
    /// itself); empty outside one, as for an oracle.
    pub func: String,
    pub msg: String,
    pub status: SiteStatus,
    /// Call path witnessing the finding (`entry -> … -> site` for
    /// reachability findings, `sink -> … -> source` for taint). Empty
    /// for flat-token findings.
    pub chain: Vec<String>,
}

/// Per-rule counters for the report.
#[derive(Debug, Default, Clone, Copy)]
pub struct RuleStats {
    pub found: usize,
    pub waived: usize,
    pub violations: usize,
}

/// Full analysis result.
#[derive(Debug, Default)]
pub struct Analysis {
    pub files_scanned: usize,
    pub sites: Vec<Site>,
    /// Call-graph shape.
    pub fns: usize,
    pub call_edges: usize,
    pub unknown_edges: usize,
    /// Entry-point fns matched / fns reachable from them.
    pub entry_fns: usize,
    pub reachable_fns: usize,
    /// Fns the `dead` rule's name-mention closure reached.
    pub dead_reached: usize,
    /// Rules that actually ran, in [`RULES`] order.
    pub enabled: Vec<&'static str>,
    /// Per-rule wall time in microseconds, in [`RULES`] order for the
    /// rules that ran. Shown in human output only — never serialized,
    /// so reports stay byte-stable across runs.
    pub timings: Vec<(&'static str, u128)>,
}

impl Analysis {
    /// Counters for one rule.
    pub fn stats(&self, rule: &str) -> RuleStats {
        let mut s = RuleStats::default();
        for site in self.sites.iter().filter(|s| s.rule == rule) {
            s.found += 1;
            match site.status {
                SiteStatus::Violation => s.violations += 1,
                SiteStatus::Waived => s.waived += 1,
            }
        }
        s
    }

    /// Non-waived site count — the exit-code driver.
    pub fn total_violations(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.status == SiteStatus::Violation)
            .count()
    }
}

/// Recursively collects `.rs` files under `root/rel`, sorted by name
/// so every run visits files in the same order.
fn walk(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let abs = root.join(rel);
    let rd = fs::read_dir(&abs).map_err(|e| LintError::Io {
        path: abs.clone(),
        msg: e.to_string(),
    })?;
    let mut names: Vec<(bool, String)> = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| LintError::Io {
            path: abs.clone(),
            msg: e.to_string(),
        })?;
        let is_dir = entry
            .file_type()
            .map_err(|e| LintError::Io {
                path: entry.path(),
                msg: e.to_string(),
            })?
            .is_dir();
        if let Some(name) = entry.file_name().to_str() {
            names.push((is_dir, name.to_string()));
        }
    }
    names.sort();
    for (is_dir, name) in names {
        let child = rel.join(&name);
        if is_dir {
            walk(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}

/// Runs the enabled rules over every file the manifest scans.
pub fn run(cfg: &Config, enabled: &[&'static str]) -> Result<Analysis, LintError> {
    let mut analysis = Analysis {
        enabled: RULES
            .iter()
            .filter(|r| enabled.contains(r))
            .copied()
            .collect(),
        ..Analysis::default()
    };
    let on = |rule: &str| analysis.enabled.contains(&rule);

    // Collect and read every scanned file first; lexes borrow sources.
    let (files, sources) = read_tree(&cfg.root, &cfg.scan_dirs)?;
    let lexed: Vec<lexer::Lexed<'_>> = sources.iter().map(|s| lex_source(s)).collect();
    let dirs: Vec<rules::Directives> = lexed.iter().map(rules::scan_directives).collect();
    analysis.files_scanned = files.len();

    let rel_names: Vec<String> = files
        .iter()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();

    // --- symbol table + workspace call graph ------------------------
    let t0 = Instant::now();
    let syms: Vec<symbols::FileSymbols> = lexed
        .iter()
        .enumerate()
        .map(|(i, lx)| symbols::extract(lx, i))
        .collect();
    let graph = callgraph::build(&rel_names, &lexed, &syms);
    let roots = graph.nodes_named(&cfg.entry_points);
    let (entry_parent, entry_seen) = graph.reach(&roots);
    analysis.fns = graph.fns.len();
    analysis.call_edges = graph.edge_count();
    analysis.unknown_edges = graph.unknown_count();
    analysis.entry_fns = roots.len();
    analysis.reachable_fns = entry_seen.iter().filter(|&&s| s).count();
    analysis
        .timings
        .push(("callgraph", t0.elapsed().as_micros()));

    // A `self.unwrap()` / `self.expect(..)` whose enclosing impl
    // defines that method is a resolved call, not a panic site (the
    // journal JSON parser has such methods).
    let is_self_method = |fi: usize, tok: usize| -> bool {
        let toks = &lexed[fi].toks;
        if tok < 2 || tok >= toks.len() {
            return false;
        }
        let name = toks[tok].text;
        if (name != "unwrap" && name != "expect")
            || toks[tok - 1].text != "."
            || toks[tok - 2].text != "self"
        {
            return false;
        }
        let Some(node) = graph.enclosing_fn(fi, tok) else {
            return false;
        };
        let Some(owner) = &graph.fns[node].impl_type else {
            return false;
        };
        graph
            .fns
            .iter()
            .any(|f| f.name == name && f.impl_type.as_deref() == Some(owner.as_str()))
    };

    // --- panics: every unwaived site, reachable ones with a chain ---
    if on("panics") {
        let t = Instant::now();
        for (fi, file_dirs) in dirs.iter().enumerate() {
            for raw in rules::panics(&lexed[fi], file_dirs) {
                if is_self_method(fi, raw.tok) {
                    continue;
                }
                let enclosing = graph.enclosing_fn(fi, raw.tok);
                let reachable = enclosing.filter(|&n| entry_seen[n]);
                let (msg, chain) = match reachable {
                    Some(node) if !raw.waived => {
                        let chain = graph.chain(&entry_parent, &entry_seen, node);
                        let msg = format!(
                            "{} — reachable from pipeline entry points via {}",
                            raw.msg,
                            chain.join(" -> ")
                        );
                        (msg, chain)
                    }
                    _ => (raw.msg, Vec::new()),
                };
                analysis.sites.push(Site {
                    rule: "panics",
                    file: rel_names[fi].clone(),
                    line: raw.line,
                    func: graph.qual_of(enclosing),
                    msg,
                    status: SiteStatus::of(raw.waived),
                    chain,
                });
            }
        }
        analysis.timings.push(("panics", t.elapsed().as_micros()));
    }

    // --- determinism: manifest module set only ----------------------
    if on("determinism") {
        let t = Instant::now();
        for (fi, rel) in files.iter().enumerate() {
            if !cfg.determinism_files.iter().any(|f| f == rel) {
                continue;
            }
            for raw in rules::determinism(&lexed[fi], &dirs[fi]) {
                analysis.sites.push(Site {
                    rule: "determinism",
                    file: rel_names[fi].clone(),
                    line: raw.line,
                    func: graph.qual_of(graph.enclosing_fn(fi, raw.tok)),
                    msg: raw.msg,
                    status: SiteStatus::of(raw.waived),
                    chain: Vec::new(),
                });
            }
        }
        analysis
            .timings
            .push(("determinism", t.elapsed().as_micros()));
    }

    // --- taint: surface superset + tainted sinks --------------------
    if on("taint") {
        let t = Instant::now();
        let tr = taint::analyze(
            cfg,
            &files,
            &lexed,
            &dirs,
            &graph,
            &entry_parent,
            &entry_seen,
        );
        for site in tr.sites {
            analysis.sites.push(Site {
                rule: "taint",
                file: rel_names[site.file].clone(),
                line: site.line,
                func: site.func,
                msg: site.msg,
                status: SiteStatus::of(site.waived),
                chain: site.chain,
            });
        }
        analysis.timings.push(("taint", t.elapsed().as_micros()));
    }

    // --- dead: fns no entry point, entry dir or oracle reaches -------
    if on("dead") {
        let t = Instant::now();
        let mentioned = entry_dir_names(cfg)?;
        let mut dead_roots = roots.clone();
        dead_roots.extend((0..graph.fns.len()).filter(|&i| {
            let f = &graph.fns[i];
            // Trait-impl methods (`Display::fmt`, `Iterator::next`) are
            // called by the language, macro-generated fns by a macro.
            f.from_macro
                || (f.impl_type.is_some() && f.trait_name.is_some())
                || mentioned.contains(f.name.as_str())
        }));
        let oracle_hits: Vec<Vec<usize>> = cfg
            .oracles
            .iter()
            .map(|oracle| {
                (0..graph.fns.len())
                    .filter(|&i| names_oracle(&graph, i, oracle))
                    .collect()
            })
            .collect();
        // An entry is stale when the search reaches what it names without
        // it: the list stays as short as the tests need.
        for (k, oracle) in cfg.oracles.iter().enumerate() {
            let others = oracle_hits.iter().enumerate().filter(|&(j, _)| j != k);
            let roots: Vec<usize> = dead_roots
                .iter()
                .copied()
                .chain(others.flat_map(|(_, hits)| hits.iter().copied()))
                .collect();
            let reached = graph.reach_by_mention(&lexed, &roots);
            let stale = if oracle_hits[k].is_empty() {
                "names no scanned fn"
            } else if oracle_hits[k].iter().all(|&i| reached[i]) {
                "is reached without being listed"
            } else {
                continue;
            };
            analysis.sites.push(Site {
                rule: "dead",
                file: "[oracles]".into(),
                line: 0,
                func: String::new(),
                msg: format!("oracle `{}` {}", oracle, stale),
                status: SiteStatus::Violation,
                chain: Vec::new(),
            });
        }
        dead_roots.extend(oracle_hits.into_iter().flatten());
        let seen = graph.reach_by_mention(&lexed, &dead_roots);
        analysis.dead_reached = seen.iter().filter(|&&s| s).count();
        for (f, _) in graph.fns.iter().zip(&seen).filter(|(_, &s)| !s) {
            analysis.sites.push(Site {
                rule: "dead",
                file: rel_names[f.file].clone(),
                line: f.line,
                func: f.qual(),
                msg: format!(
                    "{} is reached from no entry point, entry dir or oracle",
                    f.qual()
                ),
                status: SiteStatus::of(dirs[f.file].waived("dead", f.line)),
                chain: Vec::new(),
            });
        }
        analysis.timings.push(("dead", t.elapsed().as_micros()));
    }

    analysis
        .sites
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(analysis)
}

/// Every `.rs` file under `dirs` (sorted, deduplicated) and its text.
fn read_tree(root: &Path, dirs: &[PathBuf]) -> Result<(Vec<PathBuf>, Vec<String>), LintError> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in dirs {
        walk(root, dir, &mut files)?;
    }
    files.sort();
    files.dedup();
    let mut sources: Vec<String> = Vec::with_capacity(files.len());
    for rel in &files {
        let abs = root.join(rel);
        let src = fs::read_to_string(&abs).map_err(|e| LintError::Io {
            path: abs,
            msg: e.to_string(),
        })?;
        sources.push(src);
    }
    Ok((files, sources))
}

/// Every identifier the `[entry-dirs]` files mention: each names a
/// root of the `dead` rule's search.
fn entry_dir_names(cfg: &Config) -> Result<BTreeSet<String>, LintError> {
    let (_, sources) = read_tree(&cfg.root, &cfg.entry_dirs)?;
    let mut names = BTreeSet::new();
    for src in &sources {
        let lexed = lexer::lex(src);
        let idents = lexed
            .toks
            .iter()
            .filter(|t| t.kind == lexer::TokKind::Ident);
        names.extend(idents.map(|t| t.text.to_string()));
    }
    Ok(names)
}

/// Whether node `i` is what an `[oracles]` entry names: `name`, or
/// `Q::name` where `Q` is the fn's impl type or its module (the file
/// stem, or the directory of a `mod.rs`).
fn names_oracle(graph: &callgraph::Graph, i: usize, oracle: &str) -> bool {
    let f = &graph.fns[i];
    let (qual, name) = match oracle.rsplit_once("::") {
        Some((q, n)) => (Some(q), n),
        None => (None, oracle),
    };
    if f.name != name {
        return false;
    }
    let Some(qual) = qual else { return true };
    let mut path = graph.files[f.file].trim_end_matches(".rs").rsplit('/');
    let module = match path.next() {
        Some("mod") => path.next(),
        stem => stem,
    };
    f.impl_type.as_deref() == Some(qual) || module == Some(qual)
}

/// Thin wrapper so `sources.iter().map(...)` gets a fn pointer with
/// the right lifetime relationship.
fn lex_source(src: &str) -> lexer::Lexed<'_> {
    lexer::lex(src)
}

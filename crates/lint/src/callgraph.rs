//! Workspace call graph over the symbols layer, with the reachability
//! machinery the interprocedural passes share.
//!
//! Resolution is a *name-based over-approximation* (no type inference):
//!
//! * `name(...)` — candidates are workspace fns named `name` after
//!   `use ... as` aliasing; same-file matches are preferred over
//!   same-crate over workspace-wide. An unresolved lowercase name is an
//!   **Unknown edge** (external call, recorded and counted); an
//!   unresolved Uppercase name is a constructor (`Some`, `Vec`) and is
//!   ignored.
//! * `Type::name(...)` — methods of `Type` when any exist, otherwise
//!   any fn named `name` (module-path call), otherwise Unknown.
//! * `recv.name(...)` — when `recv` is `self` and the enclosing impl
//!   type defines `name`, the call resolves to exactly that type's
//!   methods. Otherwise it resolves to **every** workspace method named
//!   `name` (this is how trait-object dispatch lands on all in-workspace
//!   implementors), or an Unknown edge when no workspace type has one.
//!
//! Unknown edges keep the graph honest — they are reported as counts —
//! but they do not confer reachability (external code does not call
//! back into panic sites) and they do not carry taint.
//!
//! Closures are not separate nodes here: a closure body sits inside its
//! enclosing fn's token range, so `execute` reaches the stages its
//! spawned closures call. (The effects pass in [`crate::effects`] keeps
//! closures separate — the queue graph needs the opposite choice.)

use std::collections::BTreeMap;

use crate::lexer::{Lexed, TokKind};
use crate::symbols::{FileSymbols, FnDef};

/// Keywords that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "in", "loop", "let", "move", "as", "mut", "ref",
    "else", "use", "pub", "where", "fn", "impl", "dyn", "unsafe", "await", "yield", "box",
    "true", "false", "self", "Self", "super", "crate", "static", "const", "type", "enum",
    "struct", "trait", "mod", "extern", "union", "break", "continue",
];

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All non-test fns, flattened in file order. Index = node id.
    pub fns: Vec<FnDef>,
    /// Adjacency: `edges[caller]` = sorted, deduped callee node ids.
    pub edges: Vec<Vec<usize>>,
    /// Per-node unresolved callee names (sorted, deduped).
    pub unknown: Vec<Vec<String>>,
    /// Root-relative paths, indexed by `FnDef::file`.
    pub files: Vec<String>,
}

impl Graph {
    /// Total resolved edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Total unknown-edge count (distinct names per caller).
    pub fn unknown_count(&self) -> usize {
        self.unknown.iter().map(Vec::len).sum()
    }

    /// Node ids whose fn name is in `names` (entry-point matching).
    pub fn nodes_named(&self, names: &[String]) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| names.iter().any(|n| *n == self.fns[i].name))
            .collect()
    }

    /// BFS from `roots`; returns a parent map (`usize::MAX` = root or
    /// unreached) and the reached set as a bool mask.
    pub fn reach(&self, roots: &[usize]) -> (Vec<usize>, Vec<bool>) {
        let n = self.fns.len();
        let mut parent = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if r < n && !seen[r] {
                seen[r] = true;
                queue.push(r);
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &self.edges[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    queue.push(v);
                }
            }
        }
        (parent, seen)
    }

    /// Name-mention closure from `roots`, the `dead` rule's reach: a fn
    /// is reached when it is a root or when its name appears as an
    /// identifier in the non-test body of a reached fn. That covers
    /// calls, fns passed as values (`.map(decode)`) and `Type::new()`
    /// alike, and over-approximates by name rather than missing a use.
    pub fn reach_by_mention(&self, lexed: &[Lexed<'_>], roots: &[usize]) -> Vec<bool> {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let mut seen = vec![false; self.fns.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &r in roots {
            if r < seen.len() && !seen[r] {
                seen[r] = true;
                stack.push(r);
            }
        }
        while let Some(u) = stack.pop() {
            let Some((start, end)) = self.fns[u].body else {
                continue;
            };
            let lx = &lexed[self.fns[u].file];
            for (tok, &test) in lx.toks.iter().zip(&lx.test).take(end + 1).skip(start) {
                if test || tok.kind != TokKind::Ident {
                    continue;
                }
                for &v in by_name.get(tok.text).into_iter().flatten() {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        seen
    }

    /// Call path from a BFS root to `node`, rendered as fn quals
    /// (`entry -> mid -> leaf`). Empty when `node` was not reached.
    pub fn chain(&self, parent: &[usize], seen: &[bool], node: usize) -> Vec<String> {
        if node >= self.fns.len() || !seen[node] {
            return Vec::new();
        }
        let mut path = vec![node];
        let mut cur = node;
        // parent chains are acyclic by construction (BFS tree), but cap
        // the walk defensively so a bug cannot loop forever.
        for _ in 0..self.fns.len() {
            let p = parent[cur];
            if p == usize::MAX {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.iter().map(|&i| self.fns[i].qual()).collect()
    }

    /// The innermost fn whose body contains token `tok` of file `file`,
    /// if any. ("Innermost" matters only for macro-generated fns whose
    /// body ranges alias the macro definition; ties go to the first.)
    pub fn enclosing_fn(&self, file: usize, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file != file {
                continue;
            }
            let Some((s, e)) = f.body else { continue };
            if s <= tok && tok <= e {
                let better = match best {
                    Some(b) => {
                        let (bs, be) = self.fns[b].body.unwrap_or((0, usize::MAX));
                        e - s < be - bs
                    }
                    None => true,
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// Crate grouping key for resolution preference: `crates/<name>` or the
/// first path component (`src`).
fn crate_key(path: &str) -> &str {
    let mut it = path.split('/');
    match (it.next(), it.next()) {
        (Some("crates"), Some(c)) => &path[..7 + c.len()],
        (Some(first), _) => first,
        _ => path,
    }
}

/// Builds the graph from all lexed files and their symbols. `files`
/// are root-relative `/`-separated paths, index-aligned with `lexed`
/// and `syms`.
pub fn build(files: &[String], lexed: &[Lexed<'_>], syms: &[FileSymbols]) -> Graph {
    let mut g = Graph {
        files: files.to_vec(),
        ..Graph::default()
    };
    // Node list: every non-test fn, in (file, definition) order.
    for fs in syms {
        for f in &fs.fns {
            if !f.is_test {
                g.fns.push(f.clone());
            }
        }
    }
    let n = g.fns.len();
    // Accumulated out of band — `by_name` below borrows `g.fns`, so
    // the scan must not mutate `g` until it finishes.
    let mut edges_acc: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut unknown_acc: Vec<Vec<String>> = vec![Vec::new(); n];

    // Indexes.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    // Per-file alias map (alias -> target).
    let aliases: Vec<BTreeMap<&str, &str>> = syms
        .iter()
        .map(|fs| {
            fs.aliases
                .iter()
                .map(|a| (a.alias.as_str(), a.target.as_str()))
                .collect()
        })
        .collect();

    // Node ids per file, for the per-file body scan below.
    let mut nodes_in_file: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
    for (i, f) in g.fns.iter().enumerate() {
        nodes_in_file[f.file].push(i);
    }

    for (fi, lx) in lexed.iter().enumerate() {
        let toks = &lx.toks;
        for &node in &nodes_in_file[fi] {
            let Some((start, end)) = g.fns[node].body else {
                continue;
            };
            let caller_crate = crate_key(&files[fi]);
            let mut i = start;
            while i <= end && i < toks.len() {
                if lx.test[i] {
                    i += 1;
                    continue;
                }
                let t = &toks[i];

                // recv.name( — method call.
                if t.text == "."
                    && matches!(toks.get(i + 1), Some(m) if m.kind == TokKind::Ident)
                    && matches!(toks.get(i + 2), Some(p) if p.text == "(")
                {
                    let name = toks[i + 1].text;
                    let recv_is_self = i >= 1 && toks[i - 1].text == "self";
                    let mut resolved = false;
                    if recv_is_self {
                        if let Some(ty) = &g.fns[node].impl_type {
                            let ty = ty.clone();
                            let local: Vec<usize> = by_name
                                .get(name)
                                .map(|c| {
                                    c.iter()
                                        .copied()
                                        .filter(|&k| g.fns[k].impl_type.as_deref() == Some(&ty))
                                        .collect()
                                })
                                .unwrap_or_default();
                            if !local.is_empty() {
                                for k in local {
                                    add_unique(&mut edges_acc[node], k);
                                }
                                resolved = true;
                            }
                        }
                    }
                    if !resolved {
                        // All workspace methods with this name — trait
                        // dispatch lands on every implementor. Bodyless
                        // trait signatures are not targets (their
                        // default-less decl can't contain anything),
                        // but default methods in trait blocks are.
                        let methods: Vec<usize> = by_name
                            .get(name)
                            .map(|c| {
                                c.iter()
                                    .copied()
                                    .filter(|&k| {
                                        g.fns[k].body.is_some()
                                            && (g.fns[k].impl_type.is_some()
                                                || g.fns[k].trait_name.is_some())
                                    })
                                    .collect()
                            })
                            .unwrap_or_default();
                        if methods.is_empty() {
                            add_name(&mut unknown_acc[node], name);
                        } else {
                            for k in methods {
                                add_unique(&mut edges_acc[node], k);
                            }
                        }
                    }
                    i += 2;
                    continue;
                }

                // name( or Qual::name( — plain or qualified call.
                if t.kind == TokKind::Ident
                    && matches!(toks.get(i + 1), Some(p) if p.text == "(")
                    && !KEYWORDS.contains(&t.text)
                    && !(i >= 1 && (toks[i - 1].text == "fn" || toks[i - 1].text == "$"))
                    && !(i >= 1 && toks[i - 1].text == ".")
                {
                    // Qualifier: walk back over `Q ::`.
                    let qual = if i >= 3
                        && toks[i - 1].text == ":"
                        && toks[i - 2].text == ":"
                        && toks[i - 3].kind == TokKind::Ident
                    {
                        Some(toks[i - 3].text)
                    } else {
                        None
                    };
                    let name = t.text;
                    match qual {
                        Some(q) => {
                            // `Self::name(...)` resolves inside the
                            // enclosing impl type.
                            let owner = if q == "Self" {
                                g.fns[node].impl_type.clone()
                            } else {
                                None
                            };
                            if let Some(ty) = owner {
                                let hits: Vec<usize> = by_name
                                    .get(name)
                                    .map(|c| {
                                        c.iter()
                                            .copied()
                                            .filter(|&k| {
                                                g.fns[k].impl_type.as_deref() == Some(&ty)
                                            })
                                            .collect()
                                    })
                                    .unwrap_or_default();
                                if hits.is_empty() {
                                    add_name(&mut unknown_acc[node], name);
                                } else {
                                    for k in hits {
                                        add_unique(&mut edges_acc[node], k);
                                    }
                                }
                                i += 2;
                                continue;
                            }
                            let q = aliases[fi].get(q).copied().unwrap_or(q);
                            let typed: Vec<usize> = by_name
                                .get(name)
                                .map(|c| {
                                    c.iter()
                                        .copied()
                                        .filter(|&k| g.fns[k].impl_type.as_deref() == Some(q))
                                        .collect()
                                })
                                .unwrap_or_default();
                            let hits = if !typed.is_empty() {
                                typed
                            } else if q.starts_with(|c: char| c.is_lowercase() || c == '_') {
                                // Module-path call `journal::replay(…)`:
                                // any fn with the name.
                                by_name.get(name).cloned().unwrap_or_default()
                            } else {
                                // `ExternalType::assoc(…)` — a type the
                                // workspace does not implement. Falling
                                // back to any-name here would make every
                                // `String::new()` an edge to every
                                // workspace `new`.
                                Vec::new()
                            };
                            if hits.is_empty() {
                                if name.starts_with(|c: char| c.is_lowercase() || c == '_') {
                                    add_name(&mut unknown_acc[node], name);
                                }
                            } else {
                                for k in hits {
                                    add_unique(&mut edges_acc[node], k);
                                }
                            }
                        }
                        None => {
                            let name = aliases[fi].get(name).copied().unwrap_or(name);
                            let cands = by_name.get(name).cloned().unwrap_or_default();
                            if cands.is_empty() {
                                if name.starts_with(|c: char| c.is_lowercase() || c == '_') {
                                    add_name(&mut unknown_acc[node], name);
                                }
                            } else {
                                // Prefer same file, then same crate.
                                let same_file: Vec<usize> = cands
                                    .iter()
                                    .copied()
                                    .filter(|&k| g.fns[k].file == fi)
                                    .collect();
                                let picked = if !same_file.is_empty() {
                                    same_file
                                } else {
                                    let same_crate: Vec<usize> = cands
                                        .iter()
                                        .copied()
                                        .filter(|&k| {
                                            crate_key(&files[g.fns[k].file]) == caller_crate
                                        })
                                        .collect();
                                    if !same_crate.is_empty() {
                                        same_crate
                                    } else {
                                        cands
                                    }
                                };
                                for k in picked {
                                    add_unique(&mut edges_acc[node], k);
                                }
                            }
                        }
                    }
                }
                i += 1;
            }
        }
    }

    for e in &mut edges_acc {
        e.sort_unstable();
        e.dedup();
    }
    for u in &mut unknown_acc {
        u.sort();
        u.dedup();
    }
    g.edges = edges_acc;
    g.unknown = unknown_acc;
    g
}

fn add_unique(v: &mut Vec<usize>, callee: usize) {
    if !v.contains(&callee) {
        v.push(callee);
    }
}

fn add_name(v: &mut Vec<String>, name: &str) {
    if !v.iter().any(|u| u == name) {
        v.push(name.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols::extract;

    fn graph(srcs: &[(&str, &str)]) -> Graph {
        let files: Vec<String> = srcs.iter().map(|(p, _)| p.to_string()).collect();
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let syms: Vec<_> = lexed
            .iter()
            .enumerate()
            .map(|(i, lx)| extract(lx, i))
            .collect();
        build(&files, &lexed, &syms)
    }

    fn id(g: &Graph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap_or(usize::MAX)
    }

    #[test]
    fn plain_call_prefers_same_file() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn top() { helper(); }\nfn helper() {}"),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        let top = id(&g, "top");
        assert_eq!(g.edges[top], vec![1], "same-file helper, not crate b's");
    }

    #[test]
    fn unresolved_lowercase_is_unknown_uppercase_ignored() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top() { external(); let x = Some(1); let v = Vec::new(); }",
        )]);
        let top = id(&g, "top");
        assert!(g.edges[top].is_empty());
        assert_eq!(g.unknown[top], vec!["external", "new"]);
    }

    #[test]
    fn self_method_resolves_to_own_impl() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
struct P;
impl P {
    fn parse(&self) { self.expect(1); }
    fn expect(&self, b: u8) {}
}
",
        )]);
        let parse = id(&g, "parse");
        let expect = id(&g, "expect");
        assert_eq!(g.edges[parse], vec![expect]);
        assert!(g.unknown[parse].is_empty());
    }

    #[test]
    fn trait_method_call_hits_all_implementors() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
trait Engine { fn run(&self); }
struct A; impl Engine for A { fn run(&self) {} }
struct B; impl Engine for B { fn run(&self) {} }
fn drive(e: &dyn Engine) { e.run(); }
",
        )]);
        let drive = id(&g, "drive");
        assert_eq!(g.edges[drive].len(), 2, "{:?}", g.edges[drive]);
    }

    #[test]
    fn external_type_constructor_does_not_fan_out() {
        // `String::new()` must not resolve to workspace `new` fns on
        // unrelated types — it is an unknown (external) edge.
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct P;\nimpl P { fn new() -> P { P } }\nfn top() { let s = String::new(); }",
        )]);
        let top = id(&g, "top");
        assert!(g.edges[top].is_empty(), "{:?}", g.edges[top]);
        assert_eq!(g.unknown[top], vec!["new"]);
    }

    #[test]
    fn reach_and_chain() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}",
        )]);
        let roots = g.nodes_named(&["entry".to_string()]);
        let (parent, seen) = g.reach(&roots);
        let leaf = id(&g, "leaf");
        assert!(seen[leaf]);
        assert!(!seen[id(&g, "island")]);
        assert_eq!(g.chain(&parent, &seen, leaf), vec!["entry", "mid", "leaf"]);
    }

    #[test]
    fn mention_closure_reaches_values_and_constructors() {
        let src = "
fn entry() { let v = xs.map(decode); let p = P::new(); }
fn decode() { leaf() }
fn leaf() {}
struct P;
impl P { fn new() -> P { P } }
fn island() { leaf() }
";
        let lexed = vec![lex(src)];
        let syms = vec![extract(&lexed[0], 0)];
        let g = build(&["crates/a/src/lib.rs".to_string()], &lexed, &syms);
        let seen = g.reach_by_mention(&lexed, &g.nodes_named(&["entry".to_string()]));
        for name in ["entry", "decode", "leaf", "new"] {
            assert!(seen[id(&g, name)], "{name}");
        }
        assert!(!seen[id(&g, "island")]);
    }

    #[test]
    fn alias_resolves_call() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use crate::deep::real_name as short;\nfn top() { short(); }",
            ),
            ("crates/a/src/deep.rs", "fn real_name() {}"),
        ]);
        let top = id(&g, "top");
        assert_eq!(g.edges[top], vec![id(&g, "real_name")]);
    }
}

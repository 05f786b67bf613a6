//! The `deadlock` rule: the stage→queue graph over the whole workspace
//! must be acyclic.
//!
//! Every scope that pops one bounded queue and pushes another creates
//! an edge `popped → pushed`; a cycle means a stage can block on a
//! queue that only drains through itself. Queues are identified
//! workspace-wide by binding name (`BoundedQueue` ascription or
//! constructor). Effect summaries propagate push/pop sets through
//! direct calls by callee name to a fixpoint, so a push three calls
//! deep still makes its edge. Lock and queue interleavings at run time
//! are the TSAN job's and the timeout-wrapped dataflow suites' to check.
//!
//! Scoping choice: closures are **separate** scopes here — `execute`
//! only spawns the stages, so merging their endpoints into it would
//! fabricate pop×push edges and false cycles. (The reachability and
//! taint passes make the opposite choice; see [`crate::callgraph`].)

use std::collections::BTreeMap;

use crate::lexer::{Lexed, TokKind, match_delim};
use crate::rules::{Directives, RawSite};

/// One scope: a named fn body or an anonymous closure body.
#[derive(Debug)]
struct Scope {
    /// Fn name, or None for a closure.
    name: Option<String>,
    file: usize,
    /// Line the scope starts on (for edge provenance).
    line: u32,
    /// Token range [start, end] in its file, body only.
    start: usize,
    end: usize,
    pushes: Vec<String>,
    pops: Vec<String>,
    calls: Vec<String>,
}

/// Interprocedural effect summary for one fn name.
#[derive(Debug, Default, Clone)]
struct Summary {
    pushes: Vec<String>,
    pops: Vec<String>,
}

/// Aggregate result of the effects rule over the scanned workspace.
#[derive(Debug, Default)]
pub struct EffectsReport {
    /// Queue names found (sorted, deduped).
    pub queues: Vec<String>,
    /// Stage edges popped→pushed with provenance — sorted, deduped.
    pub edges: Vec<Edge>,
    /// Human-readable cycle paths (empty when the graph is acyclic).
    pub cycles: Vec<String>,
    /// Violations/waived sites, as (file index, site).
    pub sites: Vec<(usize, RawSite)>,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: usize,
    pub line: u32,
}

/// Runs the effects rule over every scanned file.
/// `files[i]` pairs each file's lex result with its directives.
pub fn analyze(files: &[(&Lexed<'_>, &Directives)]) -> EffectsReport {
    let mut report = EffectsReport::default();

    // Pass 1: queue names, workspace-wide.
    let mut queues: Vec<String> = Vec::new();
    for (lexed, _) in files {
        collect_queue_names(lexed, &mut queues);
    }
    queues.sort();
    queues.dedup();

    // Pass 2: scopes with direct push/pop/call sets.
    let mut scopes: Vec<Scope> = Vec::new();
    let mut fn_names: Vec<String> = Vec::new();
    for (fi, (lexed, _)) in files.iter().enumerate() {
        collect_scopes(lexed, fi, &mut scopes);
    }
    for s in &scopes {
        if let Some(n) = &s.name {
            if !fn_names.contains(n) {
                fn_names.push(n.clone());
            }
        }
    }
    for (fi, (lexed, _)) in files.iter().enumerate() {
        fill_endpoints(lexed, fi, &queues, &fn_names, &mut scopes);
    }

    // Pass 3: fixpoint fn summaries (effects through calls).
    let mut summaries: BTreeMap<String, Summary> = BTreeMap::new();
    for s in &scopes {
        if let Some(n) = &s.name {
            let entry = summaries.entry(n.clone()).or_default();
            merge(&mut entry.pushes, &s.pushes);
            merge(&mut entry.pops, &s.pops);
        }
    }
    loop {
        let mut changed = false;
        // Two-phase: read callee summaries from a snapshot, then merge.
        let snapshot = summaries.clone();
        for s in &scopes {
            let Some(n) = &s.name else { continue };
            let mut add = Summary::default();
            for callee in &s.calls {
                if let Some(cs) = snapshot.get(callee) {
                    merge(&mut add.pushes, &cs.pushes);
                    merge(&mut add.pops, &cs.pops);
                }
            }
            if let Some(entry) = summaries.get_mut(n) {
                let before = (entry.pushes.len(), entry.pops.len());
                merge(&mut entry.pushes, &add.pushes);
                merge(&mut entry.pops, &add.pops);
                if (entry.pushes.len(), entry.pops.len()) != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 4: edges. Each scope's effective endpoints are its direct
    // sets plus its callees' summaries; a scope that pops q_in and
    // pushes q_out is a stage moving work q_in → q_out.
    for s in &scopes {
        let mut pushes = s.pushes.clone();
        let mut pops = s.pops.clone();
        for callee in &s.calls {
            if let Some(cs) = summaries.get(callee) {
                merge(&mut pushes, &cs.pushes);
                merge(&mut pops, &cs.pops);
            }
        }
        // A pop/push pair on the *same* queue is kept as a self-loop:
        // re-enqueueing into your own input deadlocks when the queue
        // is full, and the cycle detector reports it as `q -> q`.
        for q_in in &pops {
            for q_out in &pushes {
                report.edges.push(Edge {
                    from: q_in.clone(),
                    to: q_out.clone(),
                    file: s.file,
                    line: s.line,
                });
            }
        }
    }
    report.edges.sort();
    report.edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);

    // Pass 5: cycle detection over queue nodes. Each cycle is
    // attributed to the scope that contributed its first edge, so the
    // violation lands in the offending file.
    report.cycles = find_cycles(&queues, &report.edges);
    for cyc in &report.cycles {
        let mut legs = cyc.split(" -> ");
        let (first, second) = (legs.next().unwrap_or(""), legs.next().unwrap_or(""));
        let (file, line, waived) = report
            .edges
            .iter()
            .find(|e| e.from == first && e.to == second)
            .or(report.edges.first())
            .map(|e| (e.file, e.line, files[e.file].1.waived("deadlock", e.line)))
            .unwrap_or((0, 0, false));
        report.sites.push((
            file,
            RawSite {
                line,
                msg: format!("queue graph cycle: {}", cyc),
                waived,
                tok: 0,
            },
        ));
    }

    report.queues = queues;
    report
}

fn merge(into: &mut Vec<String>, from: &[String]) {
    for f in from {
        if !into.contains(f) {
            into.push(f.clone());
        }
    }
}

/// Names bound to `BoundedQueue` via ascription or constructor.
fn collect_queue_names(lexed: &Lexed<'_>, queues: &mut Vec<String>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if lexed.test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "BoundedQueue" {
            continue;
        }
        let mut k = i;
        while k >= 3
            && toks[k - 1].text == ":"
            && toks[k - 2].text == ":"
            && toks[k - 3].kind == TokKind::Ident
        {
            k -= 3;
        }
        while k >= 1 && (toks[k - 1].text == "&" || toks[k - 1].text == "mut") {
            k -= 1;
        }
        let ascription =
            k >= 2 && toks[k - 1].text == ":" && toks[k - 2].kind == TokKind::Ident;
        let assignment = k >= 2
            && toks[k - 1].text == "="
            && toks[k - 2].kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(c) if c.text == ":");
        if ascription || assignment {
            let name = toks[k - 2].text.to_string();
            if !queues.contains(&name) {
                queues.push(name);
            }
        }
    }
}

/// Finds fn bodies and closure bodies as scopes (no endpoints yet).
fn collect_scopes(lexed: &Lexed<'_>, file: usize, scopes: &mut Vec<Scope>) {
    let toks = &lexed.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if lexed.test[i] {
            i += 1;
            continue;
        }
        let t = &toks[i];
        // Named fn: `fn name … {body}`.
        if t.text == "fn"
            && matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Ident)
        {
            let name = toks[i + 1].text.to_string();
            if let Some(open) = body_open(toks, i + 2) {
                if let Some(close) = match_delim(toks, open, "{", "}") {
                    scopes.push(Scope {
                        name: Some(name),
                        file,
                        line: t.line,
                        start: open,
                        end: close,
                        pushes: Vec::new(),
                        pops: Vec::new(),
                        calls: Vec::new(),
                    });
                    i += 2;
                    continue;
                }
            }
        }
        // Closure: `|params| body` where the opening `|` follows a
        // token that can only precede a closure, never a binary or.
        if t.text == "|" && i > 0 && closure_prefix(toks[i - 1].text) {
            // Params end at the next `|`.
            let mut p = i + 1;
            while p < toks.len() && toks[p].text != "|" {
                p += 1;
            }
            if p < toks.len() {
                let (start, end) = closure_body(toks, p + 1);
                if start <= end {
                    scopes.push(Scope {
                        name: None,
                        file,
                        line: t.line,
                        start,
                        end,
                        pushes: Vec::new(),
                        pops: Vec::new(),
                        calls: Vec::new(),
                    });
                }
            }
        }
        i += 1;
    }
}

/// Tokens after which a `|` must start a closure.
fn closure_prefix(prev: &str) -> bool {
    matches!(prev, "(" | "," | "=" | "move" | "{" | ";" | "return" | "=>")
}

/// First `{` at paren/bracket depth 0 from `i` — the fn body opener.
fn body_open(toks: &[crate::lexer::Tok<'_>], i: usize) -> Option<usize> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => return Some(j),
            ";" if paren == 0 && bracket == 0 => return None, // trait decl
            _ => {}
        }
        j += 1;
    }
    None
}

/// Closure body token range starting at `i` (just past the closing
/// `|`). A braced body is brace-matched; an expression body runs to
/// the first `,`/`)`/`;` at relative depth 0.
fn closure_body(toks: &[crate::lexer::Tok<'_>], i: usize) -> (usize, usize) {
    if matches!(toks.get(i), Some(t) if t.text == "{") {
        let close = match_delim(toks, i, "{", "}").unwrap_or(toks.len().saturating_sub(1));
        return (i, close);
    }
    let mut depth = 0i64;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return (i, j.saturating_sub(1));
                }
                depth -= 1;
            }
            "," | ";" if depth == 0 => return (i, j.saturating_sub(1)),
            _ => {}
        }
        j += 1;
    }
    (i, toks.len().saturating_sub(1))
}

/// Fills push/pop/call sets, attributing each token to its
/// innermost scope in the same file.
fn fill_endpoints(
    lexed: &Lexed<'_>,
    file: usize,
    queues: &[String],
    fn_names: &[String],
    scopes: &mut [Scope],
) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if lexed.test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // q.push( / q.pop(
        let is_queue = queues.iter().any(|q| q == t.text);
        let endpoint = if is_queue
            && matches!(toks.get(i + 1), Some(d) if d.text == ".")
            && matches!(toks.get(i + 3), Some(p) if p.text == "(")
        {
            match toks.get(i + 2).map(|m| m.text) {
                Some("push") => Some(true),
                Some("pop") => Some(false),
                _ => None,
            }
        } else {
            None
        };
        // name( or .name( for a known fn, excluding the definition.
        // `drop(x)` is the std destructor invocation, never a direct
        // call to a workspace `Drop::drop` impl — matching it would
        // smear that impl's effects over every explicit drop.
        let is_call = t.text != "drop"
            && fn_names.iter().any(|f| f == t.text)
            && matches!(toks.get(i + 1), Some(p) if p.text == "(")
            && (i == 0 || toks[i - 1].text != "fn");
        if endpoint.is_none() && !is_call {
            continue;
        }
        let Some(scope) = innermost_scope(scopes, file, i) else {
            continue;
        };
        match endpoint {
            Some(true) => push_unique(&mut scope.pushes, t.text),
            Some(false) => push_unique(&mut scope.pops, t.text),
            None => {}
        }
        if is_call {
            push_unique(&mut scope.calls, t.text);
        }
    }
}

fn push_unique(v: &mut Vec<String>, name: &str) {
    if !v.iter().any(|x| x == name) {
        v.push(name.to_string());
    }
}

/// The smallest scope in `file` containing token index `i`.
fn innermost_scope(scopes: &mut [Scope], file: usize, i: usize) -> Option<&mut Scope> {
    let mut best: Option<usize> = None;
    for (k, s) in scopes.iter().enumerate() {
        if s.file == file && s.start <= i && i <= s.end {
            let better = match best {
                Some(b) => s.end - s.start < scopes[b].end - scopes[b].start,
                None => true,
            };
            if better {
                best = Some(k);
            }
        }
    }
    best.map(|k| &mut scopes[k])
}

/// DFS three-color cycle search; returns one description per cycle
/// entry point found.
fn find_cycles(queues: &[String], edges: &[Edge]) -> Vec<String> {
    let idx = |name: &str| queues.iter().position(|q| q == name);
    let n = queues.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        if let (Some(a), Some(b)) = (idx(&e.from), idx(&e.to)) {
            adj[a].push(b);
        }
    }
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    let mut cycles = Vec::new();
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        u: usize,
        adj: &[Vec<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
        queues: &[String],
        cycles: &mut Vec<String>,
    ) {
        color[u] = 1;
        stack.push(u);
        for &v in &adj[u] {
            if color[v] == 1 {
                let from = stack.iter().position(|&x| x == v).unwrap_or(0);
                let mut path: Vec<&str> =
                    stack[from..].iter().map(|&x| queues[x].as_str()).collect();
                path.push(queues[v].as_str());
                cycles.push(path.join(" -> "));
            } else if color[v] == 0 {
                dfs(v, adj, color, stack, queues, cycles);
            }
        }
        stack.pop();
        color[u] = 2;
    }

    for u in 0..n {
        if color[u] == 0 {
            dfs(u, &adj, &mut color, &mut stack, queues, &mut cycles);
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::scan_directives;

    fn run(srcs: &[&str]) -> EffectsReport {
        let lexed: Vec<_> = srcs.iter().map(|s| lex(s)).collect();
        let dirs: Vec<_> = lexed.iter().map(scan_directives).collect();
        let files: Vec<_> = lexed.iter().zip(dirs.iter()).collect();
        analyze(&files)
    }

    const CHAIN: &str = "
fn execute() {
    let a_q: BoundedQueue<u32> = BoundedQueue::new(4);
    let b_q: BoundedQueue<u32> = BoundedQueue::new(4);
    scope(|s| {
        s.spawn(move || produce(&a_q));
        s.spawn(move || worker(&a_q, &b_q));
        s.spawn(move || collect(&b_q));
    });
}
fn produce(a_q: &BoundedQueue<u32>) { a_q.push(1); }
fn worker(a_q: &BoundedQueue<u32>, b_q: &BoundedQueue<u32>) {
    while let Some(x) = a_q.pop() { deposit(b_q, x) }
}
fn deposit(b_q: &BoundedQueue<u32>, x: u32) { let _ = b_q.push(x); }
fn collect(b_q: &BoundedQueue<u32>) { while b_q.pop().is_some() {} }
";

    #[test]
    fn chain_is_acyclic_with_one_edge() {
        let r = run(&[CHAIN]);
        assert_eq!(r.queues, vec!["a_q".to_string(), "b_q".to_string()]);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!((r.edges[0].from.as_str(), r.edges[0].to.as_str()), ("a_q", "b_q"));
        assert!(r.cycles.is_empty());
        assert!(r.sites.is_empty());
    }

    #[test]
    fn closure_scopes_keep_execute_out_of_the_graph() {
        // If the spawning fn merged all its closures' endpoints, the
        // collector's pop of b_q plus the producer's push of a_q would
        // fabricate a b_q -> a_q edge and a false cycle.
        let r = run(&[CHAIN]);
        assert!(!r.edges.iter().any(|e| e.from == "b_q"));
    }

    #[test]
    fn cycle_detected_through_call_chain() {
        let src = "
fn setup() {
    let a_q: BoundedQueue<u32> = BoundedQueue::new(4);
    let b_q: BoundedQueue<u32> = BoundedQueue::new(4);
    run(move || forward(&a_q, &b_q));
    run(move || backward(&a_q, &b_q));
}
fn forward(a_q: &BoundedQueue<u32>, b_q: &BoundedQueue<u32>) {
    while let Some(x) = a_q.pop() { b_q.push(x); }
}
fn backward(a_q: &BoundedQueue<u32>, b_q: &BoundedQueue<u32>) {
    while let Some(x) = b_q.pop() { requeue(a_q, x) }
}
fn requeue(a_q: &BoundedQueue<u32>, x: u32) { a_q.push(x); }
";
        let r = run(&[src]);
        assert_eq!(r.cycles.len(), 1, "{:?}", r.cycles);
        assert!(r.cycles[0].contains("a_q"));
        assert!(r.sites.iter().any(|(_, s)| s.msg.contains("cycle")));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let src = "
fn retry(work_q: &BoundedQueue<u32>) {
    let work_q: &BoundedQueue<u32> = work_q;
    while let Some(x) = work_q.pop() { work_q.push(x); }
}
";
        let r = run(&[src]);
        assert_eq!(r.cycles.len(), 1);
    }
}

//! Per-file rules: panic sites, hash iteration and spawn ordering —
//! plus the waiver layer they all consult.
//!
//! Each rule walks the token stream from [`crate::lexer`], skipping
//! test-masked tokens, and returns raw sites. Reachability and chains
//! are added in `lib.rs`; this module only answers "where does the
//! pattern occur, and is that line waived".

use crate::lexer::{item_end, Lexed, TokKind};

/// One waiver: `// lint: allow(<rule>): <why>` covering a line range.
///
/// A trailing waiver covers only its own line. An own-line waiver
/// covers the next code line — or the whole following item (fn,
/// impl, const, …) when the next token starts one, so a single
/// waiver above a function covers every site inside it.
#[derive(Debug)]
pub struct Waiver {
    pub rule: String,
    pub start: u32,
    pub end: u32,
}

/// The waivers of one file.
#[derive(Debug, Default)]
pub struct Directives {
    pub waivers: Vec<Waiver>,
}

impl Directives {
    /// Whether `line` is waived for `rule`.
    pub fn waived(&self, rule: &str, line: u32) -> bool {
        self.waivers
            .iter()
            .any(|w| w.rule == rule && w.start <= line && line <= w.end)
    }
}

/// A rule hit before aggregation: line, message, waiver status, and
/// the token index it anchors to (so interprocedural passes can map a
/// site to its enclosing fn).
#[derive(Debug)]
pub struct RawSite {
    pub line: u32,
    pub msg: String,
    pub waived: bool,
    pub tok: usize,
}

/// Tokens that begin an item or statement — an own-line waiver above
/// one of these covers the whole brace/semicolon extent.
const ITEM_STARTERS: &[&str] = &[
    "#", "pub", "fn", "const", "static", "struct", "enum", "impl", "trait", "mod", "unsafe",
    "type", "let", "for", "while", "loop", "match", "if",
];

/// Extracts `lint:` directives from a file's comments.
pub fn scan_directives(lexed: &Lexed<'_>) -> Directives {
    let mut out = Directives::default();
    for c in &lexed.comments {
        // Directives must START the comment (`// lint: …`); prose that
        // merely mentions the syntax — like this sentence — is inert.
        let Some(rest) = c.text.trim_start().strip_prefix("lint:") else {
            continue;
        };
        let Some(rest) = rest.trim().strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim();
        // A waiver must say why; `allow(rule)` with no rationale is
        // ignored, so the underlying site stays a violation.
        let why = rest[close + 1..].trim_start_matches(':').trim();
        if rule.is_empty() || why.is_empty() {
            continue;
        }
        let (start, end) = if c.trailing {
            (c.line, c.line)
        } else {
            match lexed.toks.iter().position(|t| t.line > c.line) {
                Some(idx) => {
                    let start = lexed.toks[idx].line;
                    let end = if ITEM_STARTERS.contains(&lexed.toks[idx].text) {
                        lexed.toks[item_end(&lexed.toks, idx)].line
                    } else {
                        start
                    };
                    (start, end)
                }
                None => continue, // waiver at EOF covers nothing
            }
        };
        out.waivers.push(Waiver {
            rule: rule.to_string(),
            start,
            end,
        });
    }
    out
}

/// Panic-prone call sites in non-test code: `.unwrap()`, `.expect(`,
/// and the `panic!`/`unreachable!`/`todo!`/`unimplemented!` macros.
pub fn panics(lexed: &Lexed<'_>, dir: &Directives) -> Vec<RawSite> {
    const METHODS: &[&str] = &["unwrap", "expect"];
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if lexed.test[i] {
            continue;
        }
        let t = &toks[i];
        if t.text == "."
            && matches!(toks.get(i + 1), Some(m) if m.kind == TokKind::Ident && METHODS.contains(&m.text))
            && matches!(toks.get(i + 2), Some(p) if p.text == "(")
        {
            let line = toks[i + 1].line;
            out.push(RawSite {
                line,
                msg: format!(".{}()", toks[i + 1].text),
                waived: dir.waived("panics", line),
                tok: i + 1,
            });
        }
        if t.kind == TokKind::Ident
            && MACROS.contains(&t.text)
            && matches!(toks.get(i + 1), Some(p) if p.text == "!")
        {
            out.push(RawSite {
                line: t.line,
                msg: format!("{}!", t.text),
                waived: dir.waived("panics", t.line),
                tok: i,
            });
        }
    }
    out
}

/// Methods whose call on a hash container observes its nondeterministic
/// iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Determinism violations in a canonical-output module: hash-map/set
/// iteration, the one order no golden can pin down.
pub fn determinism(lexed: &Lexed<'_>, dir: &Directives) -> Vec<RawSite> {
    let toks = &lexed.toks;
    let mut out = Vec::new();

    // Pass 1: names bound to HashMap/HashSet, via a type ascription
    // (`name: [path::]HashMap<…>`, possibly behind `&`/`mut`) or a
    // constructor assignment (`name = HashMap::new()`).
    let mut hash_names: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if lexed.test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over a path (`std ::`, `collections ::` — the
        // lexer splits `::` into two `:` puncts) and any `&` / `mut`
        // to the `:` or `=` that binds a name.
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
        let ascription = k >= 2 && toks[k - 1].text == ":" && toks[k - 2].kind == TokKind::Ident;
        let assignment = k >= 2
            && toks[k - 1].text == "="
            && toks[k - 2].kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(c) if c.text == ":");
        if ascription || assignment {
            let name = toks[k - 2].text;
            if !hash_names.contains(&name) {
                hash_names.push(name);
            }
        }
    }

    // Pass 2: flag order-observing uses.
    for i in 0..toks.len() {
        let t = &toks[i];
        if lexed.test[i] || t.kind != TokKind::Ident {
            continue;
        }
        // name . iter ( …   where name is hash-bound
        if hash_names.contains(&t.text)
            && matches!(toks.get(i + 1), Some(d) if d.text == ".")
            && matches!(toks.get(i + 2), Some(m) if m.kind == TokKind::Ident && HASH_ITER_METHODS.contains(&m.text))
            && matches!(toks.get(i + 3), Some(p) if p.text == "(")
        {
            out.push(RawSite {
                line: t.line,
                msg: format!("hash iteration: {}.{}()", t.text, toks[i + 2].text),
                waived: dir.waived("determinism", t.line),
                tok: i,
            });
        }
        // for … in [&][mut] name {
        if t.text == "in" {
            let mut j = i + 1;
            while matches!(toks.get(j), Some(x) if x.text == "&" || x.text == "mut") {
                j += 1;
            }
            if matches!(toks.get(j), Some(x) if x.kind == TokKind::Ident && hash_names.contains(&x.text))
                && matches!(toks.get(j + 1), Some(b) if b.text == "{")
            {
                out.push(RawSite {
                    line: toks[j].line,
                    msg: format!("hash iteration: for … in {}", toks[j].text),
                    waived: dir.waived("determinism", toks[j].line),
                    tok: j,
                });
            }
        }
    }
    out
}

/// Thread-spawn sites (`thread::spawn(…)`, `s.spawn(…)`) — a
/// determinism-taint *source* only: the order results come back in is
/// scheduler-dependent, so a canonical sink must never transitively
/// observe it. Not a per-file determinism violation (orchestration
/// spawns freely); only the taint pass consumes these.
pub fn spawn_sources(lexed: &Lexed<'_>, dir: &Directives) -> Vec<RawSite> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if lexed.test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && t.text == "spawn"
            && matches!(toks.get(i + 1), Some(p) if p.text == "(")
            && !(i >= 1 && toks[i - 1].text == "fn")
        {
            out.push(RawSite {
                line: t.line,
                msg: "spawn ordering".to_string(),
                waived: dir.waived("determinism", t.line),
                tok: i,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn raw(src: &str, f: fn(&Lexed<'_>, &Directives) -> Vec<RawSite>) -> Vec<RawSite> {
        let lexed = lex(src);
        let dir = scan_directives(&lexed);
        f(&lexed, &dir)
    }

    #[test]
    fn panics_finds_methods_and_macros() {
        let src = "
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect(\"msg\");
    if a == 0 { panic!(\"zero\") }
    match b { 0 => unreachable!(), _ => todo!() }
}
";
        let sites = raw(src, panics);
        assert_eq!(sites.len(), 5);
        assert!(sites.iter().all(|s| !s.waived));
    }

    #[test]
    fn panics_skips_tests_strings_comments_and_unwrap_or() {
        let src = "
// .unwrap() in a comment
fn f() { let s = \"panic!\"; let v = o.unwrap_or(0); }
#[cfg(test)]
mod tests { fn t() { x.unwrap(); panic!(); } }
";
        assert!(raw(src, panics).is_empty());
    }

    #[test]
    fn trailing_waiver_covers_its_line_only() {
        let src = "
fn f() {
    a.unwrap(); // lint: allow(panics): poisoned mutex is fatal here
    b.unwrap();
}
";
        let sites = raw(src, panics);
        assert_eq!(sites.len(), 2);
        assert!(sites[0].waived);
        assert!(!sites[1].waived);
    }

    #[test]
    fn item_waiver_covers_whole_fn() {
        let src = "
// lint: allow(panics): this constructor is infallible by invariant
fn f() {
    a.unwrap();
    b.unwrap();
}
fn g() { c.unwrap(); }
";
        let sites = raw(src, panics);
        assert_eq!(sites.len(), 3);
        assert!(sites[0].waived && sites[1].waived);
        assert!(!sites[2].waived);
    }

    #[test]
    fn waiver_without_why_is_ignored() {
        let src = "fn f() { a.unwrap(); } // lint: allow(panics):\n";
        let sites = raw(src, panics);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].waived);
    }

    #[test]
    fn determinism_flags_hash_iteration_only() {
        let src = "
fn f() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);                 // writes are fine
    let hit = m.contains_key(&1);   // point reads are fine
    for (k, v) in &m { use_it(k, v); }
    let vals: Vec<u32> = m.into_values().collect();
}
";
        let sites = raw(src, determinism);
        assert_eq!(sites.len(), 2, "{:?}", sites);
        assert!(sites.iter().all(|s| s.msg.starts_with("hash iteration")));
    }

    #[test]
    fn determinism_ignores_clocks_and_floats() {
        let src = "
fn f() -> f64 {
    let t = Instant::now();
    let frac = 0.5;
    frac
}
";
        assert!(raw(src, determinism).is_empty());
    }

    #[test]
    fn determinism_waiver_on_item() {
        let src = "
// lint: allow(determinism): commutative sum, visit order cannot change it
fn total(m: &HashMap<u32, u64>) -> u64 {
    m.values().sum()
}
";
        let sites = raw(src, determinism);
        assert!(!sites.is_empty());
        assert!(sites.iter().all(|s| s.waived));
    }
}

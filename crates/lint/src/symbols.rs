//! Symbol extraction: the item-level view of one lexed file that the
//! call-graph layer builds on.
//!
//! From the flat token stream this recovers:
//!
//! * **functions** — free `fn`s, methods inside `impl` blocks (with the
//!   implementing type and, for `impl Trait for Type`, the trait name),
//!   and trait-declaration methods (with or without default bodies);
//! * **traits** — name plus declared method names, so a `.method(` call
//!   can be resolved to every in-workspace implementor;
//! * **`use` aliases** — `use path::to::X as Y;` so a call through `Y`
//!   resolves to `X`;
//! * **macro definitions and item-position invocations** — a
//!   `macro_rules!` body is kept as a token range; invoking a workspace
//!   macro whose body contains `fn $name(` (the `wavefront_i16_kernel!`
//!   idiom) synthesizes one function per invocation, named by the first
//!   identifier argument, whose body is the macro's body range.
//!
//! Extraction is lexical, like everything in this crate: no type
//! inference, no expansion. The approximations are documented per-site
//! and pinned by the fixture crates under `tests/fixtures/callgraph_*`.

use crate::lexer::{match_delim, Lexed, Tok, TokKind};

/// One function the call graph will treat as a node.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Simple name (`execute`, `canonical_text`).
    pub name: String,
    /// File index (into the analysis' sorted file list).
    pub file: usize,
    /// 1-based line of the `fn` keyword (or macro invocation).
    pub line: u32,
    /// Token range `[start, end]` of the body braces, if the fn has a
    /// body (trait declarations without defaults do not).
    pub body: Option<(usize, usize)>,
    /// Implementing type for methods (`impl Type` / `impl Trait for
    /// Type`), `None` for free fns and trait declarations.
    pub impl_type: Option<String>,
    /// Trait name when declared in `impl Trait for Type` or inside
    /// `trait Trait { .. }`.
    pub trait_name: Option<String>,
    /// Inside `#[cfg(test)]` code.
    pub is_test: bool,
    /// Synthesized from a macro invocation; the body range indexes the
    /// *defining* file's tokens (same file in practice — workspace
    /// macros are invoked where they are defined).
    pub from_macro: bool,
}

impl FnDef {
    /// `Type::name` for methods, plain `name` otherwise — the display
    /// form used in reachability chains.
    pub fn qual(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}", t, self.name),
            None => match &self.trait_name {
                Some(t) => format!("{}::{}", t, self.name),
                None => self.name.clone(),
            },
        }
    }
}

/// One trait declaration: its name and declared method names.
#[derive(Debug, Clone)]
pub struct TraitDef {
    pub name: String,
    pub methods: Vec<String>,
}

/// `use path::X as Y;` — calls through `Y` mean `X`.
#[derive(Debug, Clone)]
pub struct UseAlias {
    pub alias: String,
    pub target: String,
}

/// A `macro_rules!` definition with its body token range.
#[derive(Debug, Clone)]
pub struct MacroDef {
    pub name: String,
    pub body: (usize, usize),
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    pub fns: Vec<FnDef>,
    pub traits: Vec<TraitDef>,
    pub aliases: Vec<UseAlias>,
    pub macros: Vec<MacroDef>,
}

/// Extracts items from one lexed file.
pub fn extract(lexed: &Lexed<'_>, file: usize) -> FileSymbols {
    let toks = &lexed.toks;
    let mut out = FileSymbols::default();

    // Pass 1: macro definitions (needed before invocations resolve).
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "macro_rules"
            && matches!(toks.get(i + 1), Some(t) if t.text == "!")
            && matches!(toks.get(i + 2), Some(t) if t.kind == TokKind::Ident)
        {
            let name = toks[i + 2].text.to_string();
            if let Some(open) = body_open(toks, i + 3) {
                if let Some(close) = match_delim(toks, open, "{", "}") {
                    out.macros.push(MacroDef {
                        name,
                        body: (open, close),
                    });
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }

    // Pass 2: items. `impl_stack` holds (type, trait, brace-close) for
    // the innermost impl/trait block containing the cursor.
    #[derive(Clone)]
    struct Ctx {
        impl_type: Option<String>,
        trait_name: Option<String>,
        end: usize,
    }
    let mut ctxs: Vec<Ctx> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        ctxs.retain(|c| c.end >= i);
        let t = &toks[i];

        // use a::b::C as D;
        if t.text == "use" && !lexed.test[i] {
            let mut j = i + 1;
            let mut last_ident: Option<&str> = None;
            while j < toks.len() && toks[j].text != ";" && toks[j].text != "{" {
                if toks[j].kind == TokKind::Ident && toks[j].text != "as" {
                    last_ident = Some(toks[j].text);
                }
                if toks[j].text == "as"
                    && matches!(toks.get(j + 1), Some(a) if a.kind == TokKind::Ident)
                {
                    if let Some(target) = last_ident {
                        out.aliases.push(UseAlias {
                            alias: toks[j + 1].text.to_string(),
                            target: target.to_string(),
                        });
                    }
                    j += 1;
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }

        // impl [<..>] Path [for Path] { .. }  — only the *type* names
        // matter; generics and where-clauses are skipped lexically.
        if t.text == "impl" {
            let mut j = i + 1;
            // Skip generic params `<...>` (angle brackets are Puncts;
            // match them with a depth counter that tolerates `->`).
            if matches!(toks.get(j), Some(x) if x.text == "<") {
                let mut depth = 0i64;
                while j < toks.len() {
                    match toks[j].text {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        "{" | ";" => break,
                        _ => {}
                    }
                    j += 1;
                }
            }
            let first = path_head(toks, &mut j);
            let mut impl_type = first.clone();
            let mut trait_name = None;
            skip_generics(toks, &mut j);
            if matches!(toks.get(j), Some(x) if x.text == "for") {
                j += 1;
                let second = path_head(toks, &mut j);
                skip_generics(toks, &mut j);
                trait_name = first;
                impl_type = second;
            }
            if let Some(open) = body_open(toks, j) {
                if let Some(close) = match_delim(toks, open, "{", "}") {
                    ctxs.push(Ctx {
                        impl_type,
                        trait_name,
                        end: close,
                    });
                    i = open + 1;
                    continue;
                }
            }
        }

        // trait Name { fn a(..); fn b(..) { default } }
        if t.text == "trait"
            && matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Ident)
            && !lexed.test[i]
        {
            let name = toks[i + 1].text.to_string();
            let mut j = i + 2;
            if let Some(open) = body_open(toks, j) {
                if let Some(close) = match_delim(toks, open, "{", "}") {
                    let mut methods = Vec::new();
                    let mut k = open + 1;
                    while k < close {
                        if toks[k].text == "fn"
                            && matches!(toks.get(k + 1), Some(n) if n.kind == TokKind::Ident)
                        {
                            methods.push(toks[k + 1].text.to_string());
                        }
                        k += 1;
                    }
                    out.traits.push(TraitDef {
                        name: name.clone(),
                        methods,
                    });
                    ctxs.push(Ctx {
                        impl_type: None,
                        trait_name: Some(name),
                        end: close,
                    });
                    j = open + 1;
                    i = j;
                    continue;
                }
            }
        }

        // fn name(..) [-> T] { body }   (or `;` for trait decls).
        // `fn` followed by `(` is a fn-pointer type, not an item.
        if t.text == "fn"
            && matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Ident)
        {
            let name = toks[i + 1].text.to_string();
            let ctx = ctxs.last();
            let body = body_open(toks, i + 2)
                .and_then(|open| match_delim(toks, open, "{", "}").map(|close| (open, close)));
            out.fns.push(FnDef {
                name,
                file,
                line: t.line,
                body,
                impl_type: ctx.and_then(|c| c.impl_type.clone()),
                trait_name: ctx.and_then(|c| c.trait_name.clone()),
                is_test: lexed.test[i],
                from_macro: false,
            });
            if let Some((_, close)) = body {
                i = close + 1;
                continue;
            }
        }

        i += 1;
    }

    // Pass 3: item-position invocations of workspace macros whose body
    // declares `fn $meta(` — synthesize one fn per invocation, named by
    // the first identifier argument (the `wavefront_i16_kernel!` idiom:
    // `kernel!(name, "sse2", 8, ...)` expands to `fn name(..) {..}`).
    let macro_fns: Vec<(String, (usize, usize))> = out
        .macros
        .iter()
        .filter(|m| macro_declares_fn(toks, m.body))
        .map(|m| (m.name.clone(), m.body))
        .collect();
    if !macro_fns.is_empty() {
        // An invocation is "item position" when it is not inside any
        // extracted fn body (a call-position macro is just a call).
        let bodies: Vec<(usize, usize)> =
            out.fns.iter().filter_map(|f| f.body).collect();
        let mut i = 0usize;
        while i + 2 < toks.len() {
            let inside_fn = bodies.iter().any(|&(s, e)| s <= i && i <= e);
            if !inside_fn
                && toks[i].kind == TokKind::Ident
                && toks[i + 1].text == "!"
                && toks[i + 2].text == "("
            {
                if let Some((_, body)) = macro_fns.iter().find(|(n, _)| *n == toks[i].text) {
                    // First identifier argument names the generated fn.
                    if let Some(close) = match_delim(toks, i + 2, "(", ")") {
                        let arg = toks[i + 3..close]
                            .iter()
                            .find(|a| a.kind == TokKind::Ident);
                        if let Some(arg) = arg {
                            out.fns.push(FnDef {
                                name: arg.text.to_string(),
                                file,
                                line: toks[i].line,
                                body: Some(*body),
                                impl_type: None,
                                trait_name: None,
                                is_test: lexed.test[i],
                                from_macro: true,
                            });
                        }
                        i = close + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    out
}

/// Whether a macro body contains `fn <metavar-or-ident>(` — i.e. the
/// macro generates functions when invoked.
fn macro_declares_fn(toks: &[Tok<'_>], body: (usize, usize)) -> bool {
    let (start, end) = body;
    let mut k = start;
    while k < end {
        if toks[k].text == "fn" {
            // `fn $name` lexes as `fn` `$` `name`; plain `fn name` too.
            match toks.get(k + 1) {
                Some(t) if t.kind == TokKind::Ident => return true,
                Some(t) if t.text == "$" => return true,
                _ => {}
            }
        }
        k += 1;
    }
    false
}

/// Reads the head identifier of a path at `*j` (`a::b::C` → `C`),
/// advancing past it. Returns `None` when no identifier is present
/// (e.g. `impl &dyn Trait`, references and `dyn` are skipped first).
fn path_head(toks: &[Tok<'_>], j: &mut usize) -> Option<String> {
    while matches!(toks.get(*j), Some(t) if t.text == "&" || t.text == "dyn" || t.kind == TokKind::Lifetime || t.text == "mut")
    {
        *j += 1;
    }
    let mut last: Option<String> = None;
    while let Some(t) = toks.get(*j) {
        if t.kind == TokKind::Ident {
            last = Some(t.text.to_string());
            *j += 1;
            // `::` continues the path.
            if matches!(toks.get(*j), Some(a) if a.text == ":")
                && matches!(toks.get(*j + 1), Some(b) if b.text == ":")
            {
                *j += 2;
                continue;
            }
        }
        break;
    }
    last
}

/// Skips a trailing generic-argument list `<...>` at `*j`, if present.
fn skip_generics(toks: &[Tok<'_>], j: &mut usize) {
    if !matches!(toks.get(*j), Some(t) if t.text == "<") {
        return;
    }
    let mut depth = 0i64;
    while let Some(t) = toks.get(*j) {
        match t.text {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    *j += 1;
                    return;
                }
            }
            "{" | ";" => return,
            _ => {}
        }
        *j += 1;
    }
}

/// First `{` at paren/bracket depth 0 from `i`; `None` when a `;`
/// intervenes (trait method declaration, fn-pointer type).
pub(crate) fn body_open(toks: &[Tok<'_>], i: usize) -> Option<usize> {
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
            ";" if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sym(src: &str) -> FileSymbols {
        extract(&lex(src), 0)
    }

    #[test]
    fn free_fns_and_methods() {
        let s = sym("
fn free() {}
struct T;
impl T {
    fn method(&self) {}
}
trait Tr { fn decl(&self); fn with_default(&self) {} }
impl Tr for T {
    fn decl(&self) {}
}
");
        let names: Vec<(String, Option<String>, Option<String>)> = s
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone(), f.trait_name.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None, None),
                ("method".into(), Some("T".into()), None),
                ("decl".into(), None, Some("Tr".into())),
                ("with_default".into(), None, Some("Tr".into())),
                ("decl".into(), Some("T".into()), Some("Tr".into())),
            ]
        );
        assert_eq!(s.traits.len(), 1);
        assert_eq!(s.traits[0].methods, vec!["decl", "with_default"]);
    }

    #[test]
    fn generic_impl_and_references() {
        let s = sym("
impl<'a, T: Clone> Wrapper<'a, T> {
    fn get(&self) -> &T { &self.0 }
}
impl<T> From<T> for Holder<T> {
    fn from(t: T) -> Holder<T> { Holder(t) }
}
");
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("Wrapper"));
        assert_eq!(s.fns[1].impl_type.as_deref(), Some("Holder"));
        assert_eq!(s.fns[1].trait_name.as_deref(), Some("From"));
    }

    #[test]
    fn use_alias_extracted() {
        let s = sym("use crate::deep::module::real_name as alias;\nuse std::fmt;\n");
        assert_eq!(s.aliases.len(), 1);
        assert_eq!(s.aliases[0].alias, "alias");
        assert_eq!(s.aliases[0].target, "real_name");
    }

    #[test]
    fn macro_generated_fn_synthesized() {
        let s = sym(r#"
macro_rules! make_kernel {
    ($fname:ident, $lanes:expr) => {
        fn $fname(x: u32) -> u32 { helper(x) + $lanes }
    };
}
make_kernel!(kernel_sse2, 8);
make_kernel!(kernel_avx2, 16);
fn helper(x: u32) -> u32 { x }
"#);
        let macro_fns: Vec<&str> = s
            .fns
            .iter()
            .filter(|f| f.from_macro)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(macro_fns, vec!["kernel_sse2", "kernel_avx2"]);
        // Generated bodies point into the macro definition, where
        // `helper(` is visible to call extraction.
        let k = s.fns.iter().find(|f| f.name == "kernel_sse2").unwrap();
        assert!(k.body.is_some());
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let s = sym("fn real(cb: fn(u32) -> u32) -> u32 { cb(1) }");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "real");
    }

    #[test]
    fn test_fns_flagged() {
        let s = sym("
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
");
        assert!(!s.fns[0].is_test);
        assert!(s.fns[1].is_test);
    }
}

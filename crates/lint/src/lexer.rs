//! A hand-rolled, lossy-but-honest Rust lexer.
//!
//! The rule engine needs to see *code*, never prose: a `.unwrap()` in a
//! doc example, a `panic!` inside a string literal or a `HashMap` named
//! in a comment must not trip a rule. This lexer therefore understands
//! exactly the token classes that matter for that distinction —
//! line/block comments (nested), string literals with escapes, raw
//! strings with arbitrary `#` fences, char and byte literals (including
//! `'"'` and `'/'`), lifetimes, raw identifiers, and numeric literals
//! with a float/integer split — and flattens everything else to
//! single-character punctuation tokens.
//!
//! It deliberately does **not** build a syntax tree. Rules match on
//! short token patterns (`ident . unwrap (`), which is robust to any
//! formatting and cheap to scan, at the cost of a small, documented set
//! of blind spots (see DESIGN.md).
//!
//! Two side channels come out of the lex besides the token stream:
//!
//! * every comment, with its line and whether code precedes it on the
//!   same line — waivers (`// lint: allow(rule): why`) live here;
//! * a per-token `test` mask: any item under a `#[cfg(test)]` attribute
//!   is marked test code, brace-matched mid-file rather than assuming
//!   test modules sit at the bottom.

/// Token classes the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `for`, `HashMap`, `r#async`).
    Ident,
    /// Integer literal, including prefixed/suffixed forms (`0x1F`, `1u64`).
    Int,
    /// Float literal (`1.5`, `2.0f64`, `1e9`).
    Float,
    /// String or byte-string literal, raw or not.
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`, `'"'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Any single punctuation character (`.`, `{`, `!`, …).
    Punct,
}

/// One lexed token: its class, exact source text, and 1-based line.
#[derive(Debug, Clone)]
pub struct Tok<'a> {
    pub kind: TokKind,
    pub text: &'a str,
    pub line: u32,
}

/// One comment: 1-based start line, body text (delimiters stripped),
/// and whether a token precedes it on the same line (a *trailing*
/// comment — waivers attached this way cover only their own line).
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
    pub trailing: bool,
}

/// Result of lexing one file.
#[derive(Debug)]
pub struct Lexed<'a> {
    pub toks: Vec<Tok<'a>>,
    pub comments: Vec<Comment>,
    /// `test[i]` is true when `toks[i]` sits inside `#[cfg(test)]` code.
    pub test: Vec<bool>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lexes `src` into tokens, comments and a test-code mask.
///
/// The lexer never fails: malformed input (an unterminated string, a
/// stray byte) degrades to best-effort tokens rather than an error, so
/// the linter keeps scanning the rest of the file.
pub fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let n = b.len();
    let mut toks: Vec<Tok<'_>> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    // Line of the most recent token, to mark trailing comments.
    let mut last_tok_line = 0u32;

    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && b[j] != b'\n' {
                    j += 1;
                }
                comments.push(Comment {
                    line,
                    text: src[start..j].to_string(),
                    trailing: last_tok_line == line,
                });
                i = j;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                let mut j = start;
                while j < n && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if j + 1 < n && b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < n && b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                // An unterminated comment runs to the end of the file.
                let end = if depth == 0 { j - 2 } else { j };
                comments.push(Comment {
                    line: start_line,
                    text: src[start..end].to_string(),
                    trailing: last_tok_line == start_line,
                });
                i = j;
            }
            b'r' | b'b' if starts_raw_string(b, i) => {
                let (j, lines) = scan_raw_string(b, i);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: &src[i..j],
                    line,
                });
                last_tok_line = line;
                line += lines;
                i = j;
            }
            b'r' if i + 1 < n && b[i + 1] == b'#' && i + 2 < n && is_ident_start(b[i + 2]) => {
                // Raw identifier r#type.
                let mut j = i + 2;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: &src[i + 2..j],
                    line,
                });
                last_tok_line = line;
                i = j;
            }
            b'b' if i + 1 < n && b[i + 1] == b'\'' => {
                let j = scan_char(b, i + 1);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: &src[i..j],
                    line,
                });
                last_tok_line = line;
                i = j;
            }
            b'"' => {
                let (j, lines) = scan_string(b, i);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: &src[i..j],
                    line,
                });
                last_tok_line = line;
                line += lines;
                i = j;
            }
            b'b' if i + 1 < n && b[i + 1] == b'"' => {
                let (j, lines) = scan_string(b, i + 1);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: &src[i..j],
                    line,
                });
                last_tok_line = line;
                line += lines;
                i = j;
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is '<ident> not
                // followed by a closing quote ('a, 'static); everything
                // else ('x', '═', '\n', '"', '\'') is a char literal. The
                // whole identifier run is checked, not its first byte: a
                // multi-byte char is several identifier bytes.
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                if i + 1 < n && is_ident_start(b[i + 1]) && !(j < n && b[j] == b'\'') {
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: &src[i..j],
                        line,
                    });
                    last_tok_line = line;
                    i = j;
                } else {
                    let j = scan_char(b, i);
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: &src[i..j],
                        line,
                    });
                    last_tok_line = line;
                    i = j;
                }
            }
            _ if is_ident_start(c) => {
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: &src[i..j],
                    line,
                });
                last_tok_line = line;
                i = j;
            }
            _ if c.is_ascii_digit() => {
                let (j, kind) = scan_number(b, i);
                toks.push(Tok {
                    kind,
                    text: &src[i..j],
                    line,
                });
                last_tok_line = line;
                i = j;
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: &src[i..i + 1],
                    line,
                });
                last_tok_line = line;
                i += 1;
            }
        }
    }

    let test = test_mask(&toks);
    Lexed {
        toks,
        comments,
        test,
    }
}

/// Whether position `i` starts a raw (byte) string: `r"`, `r#`…`#"`,
/// `br"`, `br#`…`#"`. Excludes raw identifiers (`r#name`).
fn starts_raw_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j >= b.len() || b[j] != b'r' {
            return false;
        }
    }
    if b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Scans a raw string starting at `i`; returns (end index, newlines).
fn scan_raw_string(b: &[u8], i: usize) -> (usize, u32) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let mut lines = 0u32;
    while j < b.len() {
        if b[j] == b'\n' {
            lines += 1;
            j += 1;
        } else if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < b.len() && b[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, lines);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (j, lines)
}

/// Scans a normal string starting at the opening quote; returns
/// (end index, newlines).
fn scan_string(b: &[u8], i: usize) -> (usize, u32) {
    let mut j = i + 1;
    let mut lines = 0u32;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                lines += 1;
                j += 1;
            }
            b'"' => return (j + 1, lines),
            _ => j += 1,
        }
    }
    // An escape at the very end steps past it.
    (j.min(b.len()), lines)
}

/// Scans a char/byte literal starting at the opening quote.
fn scan_char(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            b'\n' => return j, // malformed; stop at the line break
            _ => j += 1,
        }
    }
    j.min(b.len())
}

/// Scans a numeric literal; classifies float vs integer.
fn scan_number(b: &[u8], i: usize) -> (usize, TokKind) {
    let n = b.len();
    let hex = i + 1 < n && b[i] == b'0' && (b[i + 1] | 0x20) == b'x';
    let mut j = i;
    let mut float = false;
    while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        // An exponent sign only continues the literal in decimal floats
        // (1e-9); otherwise `-` ends the token.
        if !hex
            && (b[j] | 0x20) == b'e'
            && j + 1 < n
            && (b[j + 1] == b'+' || b[j + 1] == b'-')
            && j + 2 < n
            && b[j + 2].is_ascii_digit()
        {
            float = true;
            j += 2;
            continue;
        }
        j += 1;
    }
    // A `.` continues the literal only when followed by a digit
    // (1.5 is a float; 1..5 is a range; 1.max(2) is a method call).
    if j < n && b[j] == b'.' && j + 1 < n && b[j + 1].is_ascii_digit() {
        float = true;
        j += 1;
        while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
    }
    if !hex && !float {
        // Bare decimal exponent (1e9): only digits, underscores and a
        // lone `e` — a type suffix like `1u64` fails this and stays Int.
        let text = &b[i..j];
        let has_e = text.iter().any(|&c| (c | 0x20) == b'e');
        let plain = text
            .iter()
            .all(|&c| c.is_ascii_digit() || c == b'_' || (c | 0x20) == b'e');
        if has_e && plain {
            float = true;
        }
    }
    (j, if float { TokKind::Float } else { TokKind::Int })
}

/// Marks every token under a `#[cfg(test)]`-style attribute as test
/// code, brace-matching the following item so a test module in the
/// middle of a file strips cleanly.
///
/// Heuristic: the attribute's argument tokens must contain the
/// identifier `test` under an identifier `cfg`, and must not contain
/// `not` (so `#[cfg(not(test))]` code is kept).
fn test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && matches!(toks.get(i + 1), Some(t) if t.text == "[") {
            let attr_start = i;
            let Some(attr_end) = match_delim(toks, i + 1, "[", "]") else {
                break;
            };
            let inner = &toks[i + 2..attr_end];
            let is_cfg = inner.first().is_some_and(|t| t.text == "cfg");
            let has_test = inner.iter().any(|t| t.text == "test");
            let has_not = inner.iter().any(|t| t.text == "not");
            if is_cfg && has_test && !has_not {
                // Skip any further attributes stacked on the same item.
                let mut j = attr_end + 1;
                while j < toks.len()
                    && toks[j].text == "#"
                    && matches!(toks.get(j + 1), Some(t) if t.text == "[")
                {
                    match match_delim(toks, j + 1, "[", "]") {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                let end = item_end(toks, j);
                for m in mask.iter_mut().take(end + 1).skip(attr_start) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the closing delimiter matching the opener at `open_idx`.
pub(crate) fn match_delim(
    toks: &[Tok<'_>],
    open_idx: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the last token of the item (or statement) starting at `i`:
/// either a `;` outside all delimiters, or the `}` closing the first
/// top-level brace block — whichever comes first.
pub(crate) fn item_end(toks: &[Tok<'_>], i: usize) -> usize {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut k = i;
    while k < toks.len() {
        match toks[k].text {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            ";" if paren == 0 && bracket == 0 => return k,
            "{" if paren == 0 && bracket == 0 => {
                return match_delim(toks, k, "{", "}").unwrap_or(toks.len() - 1);
            }
            _ => {}
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r#"
            // a .unwrap() in a comment
            /* panic! in a block comment */
            let s = ".unwrap() panic!";
            let t = 'x';
        "#;
        let lexed = lex(src);
        assert!(!idents(src).contains(&"unwrap".to_string()));
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(
            lexed.toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_hash_fences() {
        let src = r##"let x = r#"contains "quotes" and .unwrap()"#; let y = 1;"##;
        let lexed = lex(src);
        let strs: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("quotes"));
        assert!(idents(src).contains(&"y".to_string()));
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner .unwrap() */ still comment */ fn f() {}";
        let lexed = lex(src);
        assert!(idents(src).contains(&"f".to_string()));
        assert!(!idents(src).contains(&"unwrap".to_string()));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn char_literals_with_quote_and_slashes() {
        // '"' and '/' must not open a string or comment.
        let src = "let a = '\"'; let b = '/'; let c = '\\''; x.unwrap()";
        let lexed = lex(src);
        let chars: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .collect();
        assert_eq!(chars.len(), 3);
        assert!(idents(src).contains(&"unwrap".to_string()));
        assert!(lexed.comments.is_empty());
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { x }";
        let lexed = lex(src);
        let lts: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text)
            .collect();
        assert_eq!(lts, vec!["'a", "'a", "'static"]);
    }

    #[test]
    fn a_multi_byte_char_is_a_char_not_a_lifetime() {
        let src = "fn f(b: bool) -> char { if b { '═' } else { '─' } }\nfn g() {}";
        let lexed = lex(src);
        let chars: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text)
            .collect();
        assert_eq!(chars, vec!["'═'", "'─'"]);
        assert!(lexed.toks.iter().all(|t| t.kind != TokKind::Lifetime));
    }

    #[test]
    fn float_vs_int_vs_range_vs_method() {
        let src = "let a = 1.5; let b = 0..7; let c = 1.max(2); let d = 0x1F; let e = 2.0f64;";
        let lexed = lex(src);
        let floats: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Float)
            .map(|t| t.text)
            .collect();
        assert_eq!(floats, vec!["1.5", "2.0f64"]);
        let ints: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Int)
            .map(|t| t.text)
            .collect();
        assert_eq!(ints, vec!["0", "7", "1", "2", "0x1F"]);
    }

    #[test]
    fn cfg_test_module_stripped_mid_file() {
        let src = "
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn also_live() { z.unwrap(); }
";
        let lexed = lex(src);
        let live_unwraps = lexed
            .toks
            .iter()
            .zip(&lexed.test)
            .filter(|(t, &is_test)| t.text == "unwrap" && !is_test)
            .count();
        assert_eq!(live_unwraps, 2, "mid-file test module must strip cleanly");
    }

    #[test]
    fn cfg_test_fn_and_statement_stripped() {
        let src = "
#[cfg(test)]
fn poison() { panic!(\"x\") }
fn live() {
    #[cfg(test)]
    poison();
    real();
}
#[cfg(not(test))]
fn kept() { a.unwrap(); }
";
        let lexed = lex(src);
        let live: Vec<_> = lexed
            .toks
            .iter()
            .zip(&lexed.test)
            .filter(|(t, &is_test)| t.kind == TokKind::Ident && !is_test)
            .map(|(t, _)| t.text)
            .collect();
        assert!(live.contains(&"real"));
        assert!(live.contains(&"unwrap"), "cfg(not(test)) code is live");
        assert!(!live.contains(&"panic"));
        let live_poison_calls = lexed
            .toks
            .iter()
            .zip(&lexed.test)
            .filter(|(t, &is_test)| t.text == "poison" && !is_test)
            .count();
        assert_eq!(live_poison_calls, 0, "attribute on a statement strips it");
    }

    #[test]
    fn trailing_comment_flagged() {
        let src = "let x = 1; // lint: allow(panics): why\n// own line\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].trailing);
        assert!(!lexed.comments[1].trailing);
    }

    #[test]
    fn raw_identifier_lexes_as_ident() {
        let src = "let r#type = 1; r#type.unwrap();";
        let lexed = lex(src);
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "type"));
        assert!(idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn multiline_string_advances_lines() {
        let src = "let a = \"line\nbreak\";\nlet b = 2;";
        let lexed = lex(src);
        let b_tok = lexed.toks.iter().find(|t| t.text == "b").map(|t| t.line);
        assert_eq!(b_tok, Some(3));
    }
}

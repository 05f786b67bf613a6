//! Adversarial inputs for the linter's two byte parsers: the manifest
//! reader (`Config::parse`) and the lexer (`lexer::lex`). Each is fed
//! damaged versions of the real inputs it reads — every prefix and every
//! single-bit flip of the checked-in manifest, every scanned `.rs` file
//! cut at 64 evenly spaced offsets — and must answer each one, `Ok` or
//! `Err`, without a panic and without a hang.

use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use wga_lint::{lexer, Config};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn manifest_text() -> String {
    let path = workspace_root().join("scripts/wga-lint.manifest");
    std::fs::read_to_string(path).expect("manifest readable")
}

/// Runs `f` on a thread of its own and returns what it returns; a run
/// still going after `secs` seconds is a hang and fails the test.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|e| panic!("no answer within {secs} s: {e}"))
}

/// The damaged inputs `parse` panicked on, by description.
fn panics_of(inputs: impl Iterator<Item = (String, String)>, parse: fn(&str)) -> Vec<String> {
    inputs
        .filter(|(_, text)| catch_unwind(|| parse(text)).is_err())
        .map(|(what, _)| what)
        .collect()
}

fn parse_manifest(text: &str) {
    let _ = Config::parse(PathBuf::new(), text);
}

#[test]
fn every_prefix_and_bit_flip_of_the_manifest_parses_or_fails_cleanly() {
    let text = manifest_text();
    assert!(Config::parse(PathBuf::new(), &text).is_ok());
    let failed = within(120, move || {
        let bytes = text.as_bytes();
        let prefixes = (0..=bytes.len()).map(|n| {
            (
                format!("prefix of {n} B"),
                String::from_utf8_lossy(&bytes[..n]).into_owned(),
            )
        });
        let mut failed = panics_of(prefixes, parse_manifest);
        let flips = (0..bytes.len()).flat_map(|at| {
            (0..8).map(move |bit| {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << bit;
                let text = String::from_utf8_lossy(&flipped).into_owned();
                (format!("bit {bit} of byte {at} flipped"), text)
            })
        });
        failed.extend(panics_of(flips, parse_manifest));
        failed
    });
    assert!(failed.is_empty(), "Config::parse panicked on: {failed:?}");
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn lex_it(text: &str) {
    let _ = lexer::lex(text);
}

#[test]
fn every_scanned_file_cut_at_64_offsets_lexes_without_a_panic() {
    let root = workspace_root();
    let cfg = Config::parse(root.clone(), &manifest_text()).expect("manifest parses");
    let mut files = Vec::new();
    for dir in &cfg.scan_dirs {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "{} files", files.len());
    let failed = within(120, move || {
        let mut failed = Vec::new();
        for file in &files {
            let src = std::fs::read_to_string(file).expect("source readable");
            // Cuts land inside strings, raw strings, block comments and
            // char literals alike, leaving them unterminated; each is
            // moved back to a char boundary, since `lex` takes a `&str`.
            let cuts = (1..=64).map(|k| {
                let mut cut = src.len() * k / 64;
                while !src.is_char_boundary(cut) {
                    cut -= 1;
                }
                (
                    format!("{} cut at {cut} B", file.display()),
                    src[..cut].to_string(),
                )
            });
            failed.extend(panics_of(cuts, lex_it));
        }
        failed
    });
    assert!(failed.is_empty(), "lexer::lex panicked on: {failed:?}");
}

/// Every prefix of a snippet that opens each construct the lexer scans
/// to a closing delimiter, escapes and multi-byte text included: the
/// cuts a sample of 64 offsets can miss.
#[test]
fn every_prefix_of_each_unterminated_construct_lexes_without_a_panic() {
    let src = "fn f() { let s = \"a\\\"b\\\\\"; let r = r#\"x\"# ; let b = b\"\\x7f\"; \
               let c = '\\''; let d = b'\\\\'; let l: &'static str = \"é\"; \
               /* outer /* inner — */ ünï */ let n = 1.5e-3; }";
    let cuts = (0..=src.len())
        .filter(|&n| src.is_char_boundary(n))
        .map(|n| (format!("prefix of {n} B"), src[..n].to_string()));
    let failed = panics_of(cuts, lex_it);
    assert!(failed.is_empty(), "lexer::lex panicked on: {failed:?}");
}

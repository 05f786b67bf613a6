//! `dead` fixture: one `pub fn` nothing reaches, and five fns the rule
//! must not report although no call edge leads to them.

use std::fmt;

pub fn execute() {
    let words = [1u32, 2].iter().map(decode).count();
    let parser = Parser::new();
    parser.run(words);
}

/// Reached only as a value.
fn decode(word: &u32) -> u32 {
    *word
}

pub struct Parser;

impl Parser {
    /// Reached only as a `Type::new()` callee.
    pub fn new() -> Parser {
        Parser
    }

    pub fn run(&self, _words: usize) {}
}

impl fmt::Display for Parser {
    /// A trait-impl method: the language calls it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parser")
    }
}

/// Listed in `[oracles]`: only tests call it.
pub fn reference_parse(word: u32) -> u32 {
    word
}

/// Called only from the entry dir.
pub fn example_helper() {}

/// Nothing reaches this.
pub fn orphan() {}

//! Taint fixture: `canonical_text` is a canonical sink that reaches a
//! hash iteration two calls down. The file is entry-reachable, so it
//! must also be classified in `[determinism]` / `[determinism-exempt]`
//! or the surface check fires.

pub fn canonical_text() -> String {
    render(compute())
}

fn compute() -> u64 {
    tick(&HashMap::new())
}

fn tick(counts: &HashMap<u64, u64>) -> u64 {
    counts.keys().copied().next().unwrap_or(0)
}

fn render(x: u64) -> String {
    format!("{x}")
}

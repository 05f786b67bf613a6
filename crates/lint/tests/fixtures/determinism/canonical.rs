//! Determinism fixture: exactly TWO non-waived violations — two hash
//! iterations — plus one waived hash iteration and order-safe decoys
//! that must not count: point reads, a `BTreeMap`, a clock and floats.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

pub fn hash_iteration(scores: HashMap<String, i64>) -> Vec<i64> {
    let mut out = Vec::new();
    for (_k, v) in &scores {
        // violation 1: for-loop over a HashMap
        out.push(*v);
    }
    let more: Vec<i64> = scores.into_values().collect(); // violation 2
    let _ = more;
    out
}

pub fn point_reads_are_fine(scores: &HashMap<String, i64>) -> i64 {
    // contains_key/get/insert never observe iteration order: no sites.
    *scores.get("chr1").unwrap_or(&0)
}

pub fn ordered_iteration_is_fine(ordered: BTreeMap<String, i64>) -> Vec<i64> {
    // Distinct name on purpose: queue/hash identity is lexical (by
    // name), so reusing a hash-bound name for a BTreeMap would flag.
    ordered.into_values().collect()
}

pub fn clocks_and_floats_are_not_sources(n: u64) -> u64 {
    // The canonical_text goldens pin what these could change.
    let t = Instant::now();
    (n as f64 * 0.5) as u64 + t.elapsed().as_nanos() as u64
}

// lint: allow(determinism): fixture waiver — a commutative sum
pub fn waived_sum(totals: &HashMap<String, i64>) -> i64 {
    totals.values().sum()
}

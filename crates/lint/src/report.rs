//! Report rendering: a human summary for the terminal and the
//! schema-3 `lint_report.json` CI consumes.
//!
//! The JSON is **byte-stable**: same tree + same manifest ⇒ identical
//! bytes, so CI can diff it against a committed expectations file.
//! That is why per-rule wall times live only in the human output —
//! they would make every run unique. Every finding is serialized
//! (violations and waived) with its call chain when the rule produced
//! one, so waiver drift shows up in the diff too, not just hard
//! failures.

use crate::{Analysis, SiteStatus};

/// Human-readable report. Violations are listed `file:line [rule]`,
/// one per line, so terminals and editors can jump to them; findings
/// with a call chain print it indented underneath.
pub fn human(a: &Analysis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "wga-lint: {} files scanned, rules: {}\n",
        a.files_scanned,
        a.enabled.join(", ")
    ));
    out.push_str(&format!(
        "  call graph  {} fns, {} edges, {} unknown edges, {} reachable from {} entry fns\n",
        a.fns, a.call_edges, a.unknown_edges, a.reachable_fns, a.entry_fns
    ));
    for rule in &a.enabled {
        let s = a.stats(rule);
        match *rule {
            "dead" => {
                out.push_str(&format!(
                    "  dead        {} of {} fns reached, {} found, {} waived, {} violations\n",
                    a.dead_reached, a.fns, s.found, s.waived, s.violations
                ));
            }
            "deadlock" => {
                out.push_str(&format!(
                    "  deadlock    {} queues, {} edges, {} cycles, {} found, {} waived, {} violations\n",
                    a.queues, a.edges, a.cycles, s.found, s.waived, s.violations
                ));
            }
            _ => {
                out.push_str(&format!(
                    "  {:<11} {} found, {} waived, {} violations\n",
                    rule, s.found, s.waived, s.violations
                ));
            }
        }
    }
    if !a.timings.is_empty() {
        out.push_str("  timing     ");
        for (i, (name, micros)) in a.timings.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            out.push_str(&format!("{}{} {}.{:01}ms", sep, name, micros / 1000, (micros % 1000) / 100));
        }
        out.push('\n');
    }
    let violations: Vec<_> = a
        .sites
        .iter()
        .filter(|s| s.status == SiteStatus::Violation)
        .collect();
    if violations.is_empty() {
        out.push_str("OK: no non-waived violations\n");
    } else {
        out.push_str(&format!("VIOLATIONS ({}):\n", violations.len()));
        for v in violations {
            out.push_str(&format!("  {}:{} [{}] {}\n", v.file, v.line, v.rule, v.msg));
            if !v.chain.is_empty() {
                out.push_str(&format!("      chain: {}\n", v.chain.join(" -> ")));
            }
        }
    }
    out
}

/// Minimal JSON string escaping — the messages only ever need quote
/// and backslash handling, but control characters are covered anyway.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `lint_report.json` body, schema 3. Deterministic byte-for-byte:
/// no timestamps, no timings, sites already sorted by (file, line,
/// rule) upstream.
pub fn json(a: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"wga-lint\",\n");
    out.push_str("  \"lint_schema\": 3,\n");
    out.push_str(&format!("  \"files\": {},\n", a.files_scanned));
    let waived = a.sites.len() - a.total_violations();
    out.push_str(&format!("  \"violations\": {},\n", a.total_violations()));
    out.push_str(&format!("  \"waived\": {},\n", waived));
    out.push_str(&format!(
        "  \"graph\": {{\"fns\": {}, \"call_edges\": {}, \"unknown_edges\": {}, \"entry_fns\": {}, \"reachable_fns\": {}}},\n",
        a.fns, a.call_edges, a.unknown_edges, a.entry_fns, a.reachable_fns
    ));
    out.push_str("  \"rules\": {\n");
    for (i, rule) in a.enabled.iter().enumerate() {
        let s = a.stats(rule);
        let comma = if i + 1 == a.enabled.len() { "" } else { "," };
        match *rule {
            "dead" => out.push_str(&format!(
                "    \"dead\": {{\"reached\": {}, \"found\": {}, \"waived\": {}, \"violations\": {}}}{}\n",
                a.dead_reached, s.found, s.waived, s.violations, comma
            )),
            "deadlock" => out.push_str(&format!(
                "    \"deadlock\": {{\"queues\": {}, \"edges\": {}, \"cycles\": {}, \"found\": {}, \"waived\": {}, \"violations\": {}}}{}\n",
                a.queues, a.edges, a.cycles, s.found, s.waived, s.violations, comma
            )),
            other => out.push_str(&format!(
                "    \"{}\": {{\"found\": {}, \"waived\": {}, \"violations\": {}}}{}\n",
                other, s.found, s.waived, s.violations, comma
            )),
        }
    }
    out.push_str("  },\n");
    out.push_str("  \"findings\": [\n");
    for (i, s) in a.sites.iter().enumerate() {
        let comma = if i + 1 == a.sites.len() { "" } else { "," };
        let status = match s.status {
            SiteStatus::Violation => "violation",
            SiteStatus::Waived => "waived",
        };
        let chain = s
            .chain
            .iter()
            .map(|c| format!("\"{}\"", esc(c)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"status\": \"{}\", \"msg\": \"{}\", \"chain\": [{}]}}{}\n",
            s.rule,
            esc(&s.file),
            s.line,
            status,
            esc(&s.msg),
            chain,
            comma
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analysis, Site, SiteStatus};

    fn sample() -> Analysis {
        Analysis {
            files_scanned: 2,
            sites: vec![
                Site {
                    rule: "panics",
                    file: "src/a.rs".into(),
                    line: 3,
                    msg: ".unwrap()".into(),
                    status: SiteStatus::Waived,
                    chain: Vec::new(),
                },
                Site {
                    rule: "panics",
                    file: "src/a.rs".into(),
                    line: 7,
                    msg: ".expect( — reachable from pipeline entry points via execute -> step".into(),
                    status: SiteStatus::Violation,
                    chain: vec!["execute".into(), "step".into()],
                },
                Site {
                    rule: "panics",
                    file: "src/b.rs".into(),
                    line: 9,
                    msg: "unreachable!".into(),
                    status: SiteStatus::Violation,
                    chain: Vec::new(),
                },
            ],
            fns: 12,
            call_edges: 18,
            unknown_edges: 4,
            entry_fns: 2,
            reachable_fns: 9,
            dead_reached: 11,
            queues: 3,
            edges: 2,
            cycles: 0,
            enabled: vec!["panics", "determinism", "taint", "dead", "deadlock"],
            timings: vec![("callgraph", 1234), ("panics", 567)],
        }
    }

    #[test]
    fn json_is_schema_3_with_graph_and_chains() {
        let j = json(&sample());
        assert!(j.contains("\"lint_schema\": 3"));
        assert!(j.contains("\"violations\": 2"));
        assert!(j.contains("\"waived\": 1"));
        assert!(!j.contains("baseline"));
        assert!(j.contains(
            "\"graph\": {\"fns\": 12, \"call_edges\": 18, \"unknown_edges\": 4, \"entry_fns\": 2, \"reachable_fns\": 9}"
        ));
        assert!(j.contains("\"chain\": [\"execute\", \"step\"]"));
        assert!(j.contains("\"status\": \"waived\""));
        assert!(j.contains(
            "\"dead\": {\"reached\": 11, \"found\": 0, \"waived\": 0, \"violations\": 0}"
        ));
    }

    #[test]
    fn json_is_byte_stable_and_timing_free() {
        let a = sample();
        // Timings differ run to run; the diffable report must not
        // carry them.
        assert!(!json(&a).contains("timing"));
        assert_eq!(json(&a), json(&a));
    }

    #[test]
    fn json_escapes_quotes_in_messages() {
        let mut a = sample();
        a.sites[0].msg = "panic!(\"{e}\")".into();
        let j = json(&a);
        assert!(j.contains("panic!(\\\"{e}\\\")"));
    }

    #[test]
    fn human_lists_violation_with_location_and_chain() {
        let h = human(&sample());
        assert!(h.contains("src/b.rs:9 [panics] unreachable!"));
        assert!(h.contains("panics      3 found, 1 waived, 2 violations"));
        assert!(h.contains("VIOLATIONS (2):"));
        assert!(h.contains("chain: execute -> step"));
        assert!(h.contains("call graph  12 fns"));
        assert!(h.contains("dead        11 of 12 fns reached"));
        assert!(h.contains("timing"));
    }
}

//! The binary's answer to a rule it no longer has: a script still asking
//! for `hot-loop`, `unsafe` or `deadlock` must fail loudly, not lint
//! nothing.

use std::process::Command;

#[test]
fn a_deleted_rule_is_a_usage_error_naming_the_rules_that_remain() {
    for rule in ["hot-loop", "unsafe", "deadlock"] {
        let out = Command::new(env!("CARGO_BIN_EXE_wga-lint"))
            .args(["--rule", rule, "--no-json"])
            .output()
            .expect("wga-lint runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--rule {rule}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown rule `{rule}`")),
            "{stderr}"
        );
        assert!(
            stderr.contains("rules: panics, determinism, taint, dead "),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "--rule {rule} linted something");
    }
}

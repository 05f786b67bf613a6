//! Regression diff between two `profile_report.json` artifacts.
//!
//! `wga profile diff old.json new.json` compares the per-stage time
//! shares and the drift scores against explicit thresholds and exits
//! nonzero when the new report regresses — the second half of the CI
//! perf-drift gate (the first half is the absolute `--max-drift-centi`
//! cap on `report`).

use crate::report::fmt_centi;
use crate::ProfileError;
use std::fmt::Write as _;
use wga_core::json::{self, Json};

/// Regression thresholds, all integer centi-percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Max allowed *increase* of any stage's share of pipeline time
    /// (seed/filter/extend), centi-percent.
    pub share_regression_centi: u64,
    /// Max allowed increase of a stage's modeled-vs-measured drift
    /// score, centi-percent.
    pub drift_regression_centi: u64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            share_regression_centi: 500,
            drift_regression_centi: 100,
        }
    }
}

/// The fields `diff` reads out of a report JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSummary {
    /// `profile_schema` of the artifact.
    pub profile_schema: u64,
    /// Seed share of pipeline time, centi-percent.
    pub seed_centi: u64,
    /// Filter share, centi-percent.
    pub filter_centi: u64,
    /// Extend share, centi-percent.
    pub extend_centi: u64,
    /// BSW drift score (`None` when the trace had no `hwsim.bsw` span).
    pub bsw_drift_centi: Option<u64>,
    /// GACT-X drift score.
    pub gactx_drift_centi: Option<u64>,
    /// Speculation discard share, centi-percent.
    pub discard_centi: u64,
}

impl ReportSummary {
    /// Parses a `profile_report.json` document.
    pub fn from_json(text: &str) -> Result<ReportSummary, ProfileError> {
        let doc = json::parse(text).map_err(|e| ProfileError::msg(format!("invalid report JSON: {e}")))?;
        ReportSummary::read(&doc).map_err(|e| ProfileError::msg(format!("report: {e}")))
    }

    fn read(doc: &Json) -> Result<ReportSummary, String> {
        let schema = doc.u64("profile_schema")?;
        if schema != crate::report::PROFILE_SCHEMA {
            return Err(format!(
                "unsupported profile_schema {schema} (expected {})",
                crate::report::PROFILE_SCHEMA
            ));
        }
        let (shares, drift) = (doc.member("shares")?, doc.member("drift")?);
        let drift_of = |stage: &str| -> Result<Option<u64>, String> {
            let stage = drift.member(stage)?;
            if stage.u64("present")? == 0 {
                Ok(None)
            } else {
                stage.u64("drift_centi").map(Some)
            }
        };
        Ok(ReportSummary {
            profile_schema: schema,
            seed_centi: shares.u64("seed_centi")?,
            filter_centi: shares.u64("filter_centi")?,
            extend_centi: shares.u64("extend_centi")?,
            bsw_drift_centi: drift_of("bsw")?,
            gactx_drift_centi: drift_of("gactx")?,
            discard_centi: doc.member("speculation")?.u64("discard_centi")?,
        })
    }
}

/// One threshold violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// What regressed (`filter share`, `bsw drift`, …).
    pub what: String,
    /// Old value, centi-percent.
    pub old_centi: u64,
    /// New value, centi-percent.
    pub new_centi: u64,
    /// The allowed increase it exceeded, centi-percent.
    pub limit_centi: u64,
}

/// Result of comparing two reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiffOutcome {
    /// Threshold violations; empty means the gate passes.
    pub regressions: Vec<Regression>,
    /// Non-gating observations worth printing.
    pub notes: Vec<String>,
}

impl DiffOutcome {
    /// Whether the gate passes.
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human rendering (one line per note / regression).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION: {} {} -> {} (allowed increase {})",
                r.what,
                fmt_centi(r.old_centi),
                fmt_centi(r.new_centi),
                fmt_centi(r.limit_centi)
            );
        }
        if self.is_pass() {
            let _ = writeln!(out, "diff: pass");
        } else {
            let _ = writeln!(out, "diff: {} regression(s)", self.regressions.len());
        }
        out
    }
}

fn check(
    out: &mut DiffOutcome,
    what: &str,
    old: u64,
    new: u64,
    limit: u64,
) {
    if new > old.saturating_add(limit) {
        out.regressions.push(Regression {
            what: what.to_string(),
            old_centi: old,
            new_centi: new,
            limit_centi: limit,
        });
    }
}

/// Compares `new` against `old` under `thresholds`.
pub fn diff(old: &ReportSummary, new: &ReportSummary, thresholds: &Thresholds) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    check(&mut out, "seed share", old.seed_centi, new.seed_centi, thresholds.share_regression_centi);
    check(&mut out, "filter share", old.filter_centi, new.filter_centi, thresholds.share_regression_centi);
    check(&mut out, "extend share", old.extend_centi, new.extend_centi, thresholds.share_regression_centi);
    for (name, old_d, new_d) in [
        ("bsw drift", old.bsw_drift_centi, new.bsw_drift_centi),
        ("gactx drift", old.gactx_drift_centi, new.gactx_drift_centi),
    ] {
        match (old_d, new_d) {
            (Some(o), Some(n)) => check(&mut out, name, o, n, thresholds.drift_regression_centi),
            (Some(o), None) => out.regressions.push(Regression {
                // Losing the signal entirely must fail the gate, not pass it.
                what: format!("{name} signal disappeared"),
                old_centi: o,
                new_centi: 0,
                limit_centi: 0,
            }),
            (None, Some(n)) => out.notes.push(format!("{name} signal appeared at {}", fmt_centi(n))),
            (None, None) => {}
        }
    }
    if new.discard_centi != old.discard_centi {
        out.notes.push(format!(
            "speculation discard {} -> {}",
            fmt_centi(old.discard_centi),
            fmt_centi(new.discard_centi)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ReportSummary {
        ReportSummary {
            profile_schema: 1,
            seed_centi: 1000,
            filter_centi: 6000,
            extend_centi: 3000,
            bsw_drift_centi: Some(0),
            gactx_drift_centi: Some(0),
            discard_centi: 0,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let d = diff(&base(), &base(), &Thresholds::default());
        assert!(d.is_pass());
        assert!(d.render().contains("diff: pass"));
    }

    #[test]
    fn share_regression_beyond_threshold_fails() {
        let mut new = base();
        new.filter_centi = 6000 + 501;
        let d = diff(&base(), &new, &Thresholds::default());
        assert!(!d.is_pass());
        assert_eq!(d.regressions[0].what, "filter share");
        // Exactly at the threshold still passes.
        new.filter_centi = 6000 + 500;
        assert!(diff(&base(), &new, &Thresholds::default()).is_pass());
    }

    #[test]
    fn drift_regression_fails() {
        let mut new = base();
        new.gactx_drift_centi = Some(101);
        let d = diff(&base(), &new, &Thresholds::default());
        assert!(!d.is_pass());
        assert_eq!(d.regressions[0].what, "gactx drift");
    }

    #[test]
    fn losing_the_drift_signal_fails() {
        let mut new = base();
        new.bsw_drift_centi = None;
        let d = diff(&base(), &new, &Thresholds::default());
        assert!(!d.is_pass());
        assert!(d.regressions[0].what.contains("disappeared"));
    }

    #[test]
    fn summary_round_trips_through_report_json() {
        let trace = concat!(
            "{\"schema\":2}\n",
            "{\"span\":\"seed\",\"pair\":0,\"strand\":0,\"seq\":0,\"start_us\":0,\"dur_us\":10,\"items\":3,\"cells\":100}\n",
        );
        let t = crate::trace::TraceFile::parse(trace).unwrap();
        let json = crate::report::ProfileReport::build(&t, 5).to_json();
        let s = ReportSummary::from_json(&json).expect("summary parses");
        assert_eq!(s.seed_centi, 10_000, "only stage present takes the whole share");
        assert_eq!(s.bsw_drift_centi, None);
        assert!(diff(&s, &s, &Thresholds::default()).is_pass());
    }

    #[test]
    fn wrong_profile_schema_is_rejected() {
        let err = ReportSummary::from_json("{\"profile_schema\":99}").unwrap_err();
        assert!(err.msg.contains("unsupported profile_schema"), "{err}");
    }
}

//! Throttled live progress reporting (`--progress`).
//!
//! A [`ProgressMeter`] owns a background thread that periodically reads
//! the [`TraceRecorder`]'s counters and rewrites one stderr line:
//!
//! ```text
//! [wga] pairs 3/4 | 182.4 Mcells/s | filter survival 1.2% | ETA 0:07
//! ```
//!
//! The worker threads never block on progress — the meter only reads
//! relaxed atomics at its own cadence.

use super::TraceRecorder;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Point-in-time view of the recorder's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Pairs finished so far.
    pub pairs_done: u64,
    /// Total pairs the run will process (0 when unannounced).
    pub pairs_total: u64,
    /// Gapped filter tiles executed so far.
    pub filter_tiles: u64,
    /// Anchors that survived the filter so far.
    pub anchors_passed: u64,
    /// DP cells spent so far (filter + extension).
    pub cells: u64,
    /// Microseconds since the recorder was created.
    pub elapsed_us: u64,
}

/// Renders one progress line from a snapshot (no carriage control).
pub fn render_progress_line(s: &ProgressSnapshot) -> String {
    let mcells_s = if s.elapsed_us > 0 {
        s.cells as f64 / s.elapsed_us as f64 // cells/us == Mcells/s
    } else {
        0.0
    };
    let survival = if s.filter_tiles > 0 {
        100.0 * s.anchors_passed as f64 / s.filter_tiles as f64
    } else {
        0.0
    };
    let eta = match (s.pairs_done, s.pairs_total) {
        (done, total) if done > 0 && total > done => {
            let remaining_us = s.elapsed_us * (total - done) / done;
            let secs = remaining_us / 1_000_000;
            format!("{}:{:02}", secs / 60, secs % 60)
        }
        (done, total) if total > 0 && done >= total => "0:00".to_string(),
        _ => "?".to_string(),
    };
    format!(
        "[wga] pairs {}/{} | {:.1} Mcells/s | filter survival {:.1}% | ETA {}",
        s.pairs_done,
        if s.pairs_total > 0 {
            s.pairs_total.to_string()
        } else {
            "?".to_string()
        },
        mcells_s,
        survival,
        eta
    )
}

/// Background progress printer. Create with [`ProgressMeter::start`],
/// stop with [`ProgressMeter::finish`] (or drop — the thread is always
/// joined).
#[derive(Debug)]
pub struct ProgressMeter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressMeter {
    /// Spawns the printer thread, refreshing every `interval`.
    pub fn start(recorder: Arc<TraceRecorder>, interval: Duration) -> ProgressMeter {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut width = 0usize;
            while !stop_flag.load(Ordering::Relaxed) {
                print_line(&recorder, &mut width, false);
                std::thread::sleep(interval);
            }
            // Final refresh, then move off the live line.
            print_line(&recorder, &mut width, true);
        });
        ProgressMeter {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the printer and waits for its final line.
    pub fn finish(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressMeter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn print_line(recorder: &TraceRecorder, width: &mut usize, last: bool) {
    let line = render_progress_line(&recorder.progress());
    // Pad with spaces so a shrinking line fully overwrites its
    // predecessor on the same terminal row.
    let pad = width.saturating_sub(line.len());
    *width = line.len();
    let mut err = std::io::stderr().lock();
    let terminator = if last { "\n" } else { "" };
    let _ = write!(err, "\r{line}{}{terminator}", " ".repeat(pad));
    let _ = err.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Counter;

    #[test]
    fn progress_line_formats() {
        let s = ProgressSnapshot {
            pairs_done: 3,
            pairs_total: 4,
            filter_tiles: 1_000,
            anchors_passed: 12,
            cells: 200_000_000,
            elapsed_us: 1_000_000,
        };
        let line = render_progress_line(&s);
        assert!(line.contains("pairs 3/4"), "{line}");
        assert!(line.contains("200.0 Mcells/s"), "{line}");
        assert!(line.contains("filter survival 1.2%"), "{line}");
        // 1s elapsed for 3 pairs -> ~0.33s remaining for the last one.
        assert!(line.contains("ETA 0:00"), "{line}");
    }

    #[test]
    fn progress_line_handles_unknowns() {
        let s = ProgressSnapshot {
            pairs_done: 0,
            pairs_total: 0,
            filter_tiles: 0,
            anchors_passed: 0,
            cells: 0,
            elapsed_us: 0,
        };
        let line = render_progress_line(&s);
        assert!(line.contains("pairs 0/?"), "{line}");
        assert!(line.contains("ETA ?"), "{line}");
    }

    #[test]
    fn meter_starts_and_stops() {
        let rec = Arc::new(TraceRecorder::new());
        rec.set_total_pairs(2);
        rec.add(Counter::PairsDone, 1);
        let meter = ProgressMeter::start(Arc::clone(&rec), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        meter.finish(); // must join cleanly without hanging
    }
}

//! Process accounting and the machine fingerprint.
//!
//! Child time and memory come from `wait4`'s `rusage`, the numbers the
//! kernel itself keeps for the process: no polling of `/proc`, nothing
//! sampled. `std` already links libc, so two `extern` declarations are
//! all the foreign code there is.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads Linux's 64-bit `struct rusage` through wait4 and getrusage");

use std::process::{Child, Command};
use std::time::Instant;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on a 64-bit target: two `timeval`s and fourteen
/// `long`s, of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

impl Rusage {
    fn cpu_s(&self) -> f64 {
        let micros =
            (self.utime.sec + self.stime.sec) * 1_000_000 + self.utime.usec + self.stime.usec;
        micros as f64 / 1e6
    }
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildCost {
    /// Wall clock from just before the spawn to the child's exit.
    pub wall_s: f64,
    /// User plus system CPU time of the child.
    pub cpu_s: f64,
    /// The child's peak resident set.
    pub peak_rss_mb: f64,
    /// Whether it exited with code 0.
    pub success: bool,
}

/// Spawns `command`, blocks until it has exited and returns what it cost.
pub fn run_child(command: &mut Command) -> std::io::Result<ChildCost> {
    let started = Instant::now();
    let child: Child = command.spawn()?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and of the
        // types wait4 fills in (`int`, and `struct rusage` as laid out
        // above for this target); the pid is a child this process just
        // spawned and has not waited for, since `child` is never
        // waited on through `std`.
        let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if reaped >= 0 {
            break;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(ChildCost {
        wall_s,
        cpu_s: usage.cpu_s(),
        peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
        // WIFEXITED and WEXITSTATUS == 0 are both "status is 0".
        success: status == 0,
    })
}

/// User plus system CPU time this process has used so far, in seconds.
pub fn self_cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is live, writable and laid out as this target's
    // `struct rusage`; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage.cpu_s()
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn has_avx2() -> bool {
    false
}

/// Everything needed to attribute a number to the machine and code that
/// produced it, as `key=value` pairs.
pub fn fingerprint(root: &std::path::Path) -> Vec<(&'static str, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let first_line = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu_model),
        ("avx2", if has_avx2() { "yes" } else { "no" }.to_string()),
        ("rustc", first_line("rustc", &["-V"])),
        (
            "commit",
            first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
    ]
}

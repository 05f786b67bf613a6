//! Crash-safe artifact writes: tmp file → fsync → rename → dir fsync.
//!
//! The report, `--metrics-out` and `--trace-out` artifacts are written
//! through [`write_atomic`] and the MAF, block by block, through
//! [`write_atomic_with`], so a crash (or an injected
//! [`crate::faultsim::FaultKind::ShortWrite`]) at any point leaves
//! either the complete old file or the complete new file at the
//! destination — never a half-written JSON/JSONL document. The recipe
//! is the classic one:
//!
//! 1. write the full payload to `<path>.tmp` in the same directory
//!    (all at once, or as the caller renders it),
//! 2. `fsync` the tmp file (data durable before the name flips),
//! 3. `rename` over the destination (atomic on POSIX),
//! 4. `fsync` the parent directory (the rename itself durable).
//!
//! [`pre_open_check`] creates the tmp file up front so `wga align`
//! still fails fast on an unwritable output path *before* hours of
//! alignment work, exactly as the old direct-`File::create` check did.

use crate::error::{WgaError, WgaResult};
use crate::faultsim::{FaultInjector, FaultKind, Hook, PAIRLESS};
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The sibling tmp path an atomic write of `path` stages through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("out"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fail-fast check that `path` will be writable later: creates (and
/// leaves) its empty `.tmp` sibling, which the final [`write_atomic`]
/// overwrites and renames away.
///
/// # Errors
///
/// [`WgaError::Io`] when the tmp file cannot be created.
pub fn pre_open_check(path: &Path) -> WgaResult<()> {
    let tmp = tmp_path(path);
    File::create(&tmp).map_err(|e| WgaError::io(format!("create {}", tmp.display()), e))?;
    Ok(())
}

/// Atomically replaces `path` with what `render` writes (tmp + fsync +
/// rename + parent-dir fsync). The writer is buffered and over the tmp
/// file itself, so an artifact of any size is staged as it is rendered
/// and never held in memory.
///
/// # Errors
///
/// [`WgaError::Io`] on any step, `render`'s own errors included; the
/// destination is untouched unless the rename itself succeeded.
pub fn write_atomic_with(
    path: &Path,
    render: impl FnOnce(&mut BufWriter<&File>) -> std::io::Result<()>,
) -> WgaResult<()> {
    stage(path, |file| {
        let mut writer = BufWriter::new(file);
        render(&mut writer)?;
        // A dropped `BufWriter` swallows its last write's error.
        writer.flush()
    })?;
    commit(path)
}

/// Steps 1 and 2: writes `path`'s tmp sibling and makes it durable.
fn stage(path: &Path, write: impl FnOnce(&File) -> std::io::Result<()>) -> WgaResult<()> {
    let tmp = tmp_path(path);
    let file =
        File::create(&tmp).map_err(|e| WgaError::io(format!("create {}", tmp.display()), e))?;
    write(&file).map_err(|e| WgaError::io(format!("write {}", tmp.display()), e))?;
    file.sync_all()
        .map_err(|e| WgaError::io(format!("fsync {}", tmp.display()), e))
}

/// Steps 3 and 4: flips the name and makes the flip durable.
fn commit(path: &Path) -> WgaResult<()> {
    let tmp = tmp_path(path);
    fs::rename(&tmp, path).map_err(|e| {
        WgaError::io(
            format!("rename {} -> {}", tmp.display(), path.display()),
            e,
        )
    })?;
    sync_parent_dir(path)
}

/// [`write_atomic_with`] for a payload already in memory, written
/// unbuffered.
///
/// # Errors
///
/// As [`write_atomic_with`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> WgaResult<()> {
    write_atomic_gated(path, bytes, None)
}

/// [`write_atomic`] with a fault-injection gate: `error` injections
/// fail before any byte is written, `short-write` injections truncate
/// the tmp payload halfway and fail *before the rename* — the
/// destination survives either way, which is what the chaos suite
/// asserts.
///
/// # Errors
///
/// [`WgaError::Io`] on any real or injected failure.
pub fn write_atomic_gated(
    path: &Path,
    bytes: &[u8],
    gate: Option<(&FaultInjector, Hook)>,
) -> WgaResult<()> {
    if let Some((injector, hook)) = gate {
        match injector.probe(hook, PAIRLESS) {
            None => {}
            Some((FaultKind::ShortWrite, _)) => {
                // The simulated crash: data partially staged, rename never ran.
                stage(path, |mut file| file.write_all(&bytes[..bytes.len() / 2]))?;
                return Err(WgaError::io(
                    format!("write {}", tmp_path(path).display()),
                    std::io::Error::other("injected short write"),
                ));
            }
            Some((FaultKind::Latency, ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Some((FaultKind::Error | FaultKind::Panic, _)) => {
                return Err(WgaError::io(
                    format!("write {}", path.display()),
                    std::io::Error::other("injected I/O error"),
                ));
            }
        }
    }
    stage(path, |mut file| file.write_all(bytes))?;
    commit(path)
}

/// Fsyncs `path`'s parent directory so the rename is durable. A no-op
/// on platforms where directories cannot be opened for syncing.
fn sync_parent_dir(path: &Path) -> WgaResult<()> {
    #[cfg(unix)]
    {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let handle = File::open(dir)
                .map_err(|e| WgaError::io(format!("open dir {}", dir.display()), e))?;
            handle
                .sync_all()
                .map_err(|e| WgaError::io(format!("fsync dir {}", dir.display()), e))?;
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::FaultPlan;

    fn tmp_dir_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wga-durable-{}-{name}", std::process::id()))
    }

    #[test]
    fn atomic_write_replaces_content() {
        let path = tmp_dir_file("replace.json");
        write_atomic(&path, b"{\"v\":1}\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}\n");
        write_atomic(&path, b"{\"v\":2}\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":2}\n");
        assert!(!tmp_path(&path).exists(), "tmp renamed away");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rendered_write_replaces_content_and_a_failed_render_does_not() {
        let path = tmp_dir_file("rendered.maf");
        write_atomic_with(&path, |w| {
            for block in 0..3 {
                writeln!(w, "a score={block}")?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a score=0\na score=1\na score=2\n");
        // A render that fails midway: the error comes back, the
        // destination keeps the last complete file.
        let torn = write_atomic_with(&path, |w| {
            writeln!(w, "a score=9")?;
            Err(std::io::Error::other("render failed"))
        });
        assert!(torn.unwrap_err().to_string().contains("render failed"));
        assert_eq!(fs::read(&path).unwrap(), b"a score=0\na score=1\na score=2\n");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(tmp_path(&path));
    }

    #[test]
    fn pre_open_creates_tmp_and_write_consumes_it() {
        let path = tmp_dir_file("preopen.json");
        pre_open_check(&path).unwrap();
        assert!(tmp_path(&path).exists());
        assert!(!path.exists(), "pre-open must not create the destination");
        write_atomic(&path, b"x").unwrap();
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn pre_open_fails_fast_on_bad_directory() {
        let path = Path::new("/nonexistent-dir-for-wga-test/out.json");
        assert!(pre_open_check(path).is_err());
    }

    #[test]
    fn injected_short_write_leaves_destination_intact() {
        let path = tmp_dir_file("short.json");
        write_atomic(&path, b"intact-old-content").unwrap();
        let plan = FaultPlan::parse(
            "{\"format\":\"wga-fault-plan\",\"version\":1,\"faults\":[\
             {\"hook\":\"metrics.sink\",\"kind\":\"short-write\",\"at\":[0]}]}",
        )
        .unwrap();
        let injector = FaultInjector::new(plan, 0);
        let err = write_atomic_gated(&path, b"new-content", Some((&injector, Hook::MetricsSink)));
        assert!(err.is_err());
        assert_eq!(
            fs::read(&path).unwrap(),
            b"intact-old-content",
            "a torn sink write must never reach the destination"
        );
        // The next (un-injected) attempt goes through.
        write_atomic_gated(&path, b"new-content", Some((&injector, Hook::MetricsSink))).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new-content");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(tmp_path(&path));
    }

    #[test]
    fn injected_error_fails_before_touching_tmp() {
        let path = tmp_dir_file("err.json");
        let plan = FaultPlan::parse(
            "{\"format\":\"wga-fault-plan\",\"version\":1,\"faults\":[\
             {\"hook\":\"trace.sink\",\"kind\":\"error\",\"at\":[0]}]}",
        )
        .unwrap();
        let injector = FaultInjector::new(plan, 0);
        assert!(
            write_atomic_gated(&path, b"x", Some((&injector, Hook::TraceSink))).is_err()
        );
        assert!(!path.exists());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tmp_path_appends_suffix() {
        assert_eq!(
            tmp_path(Path::new("/a/b/metrics.json")),
            Path::new("/a/b/metrics.json.tmp")
        );
    }
}

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
//!
//! A FIFO or a character device (`/dev/null`, a terminal, the pipe
//! `/dev/stdout` names) is a stream, not a file to replace: it is opened
//! and written in place, with no tmp sibling and no rename — renaming
//! over it would put a regular file where the device node was.
//!
//! [`pre_open_outputs`] checks a command's outputs before it reads any
//! input. An output is compared by `(dev, inode)`, so no spelling or
//! symbolic link of an input can be one, and two outputs — or one and
//! another's tmp sibling — cannot be one file; a file that does not
//! exist yet is compared by its canonical directory and name. The
//! [`Staged`] it returns removes every tmp sibling no write consumed,
//! so a command that fails leaves none behind.

use crate::error::{WgaError, WgaResult};
use crate::faultsim::{FaultKind, Hook};
use crate::obs::Obs;
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
/// rename + parent-dir fsync), or writes a FIFO or character device in
/// place. The writer is buffered and over the tmp file itself, so an
/// artifact of any size is staged as it is rendered and never held in
/// memory.
///
/// # Errors
///
/// [`WgaError::Io`] on any step, `render`'s own errors included; the
/// destination is untouched unless the rename itself succeeded.
pub fn write_atomic_with(
    path: &Path,
    render: impl FnOnce(&mut BufWriter<&File>) -> std::io::Result<()>,
) -> WgaResult<()> {
    let staged = stage(path, |file| {
        let mut writer = BufWriter::new(file);
        render(&mut writer)?;
        // A dropped `BufWriter` swallows its last write's error.
        writer.flush()
    })?;
    commit(path, staged)
}

/// Whether `path` is a stream written in place: an existing FIFO or
/// character device.
fn in_place(path: &Path) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileTypeExt;
        let kind = fs::metadata(path).map(|meta| meta.file_type());
        kind.is_ok_and(|kind| kind.is_fifo() || kind.is_char_device())
    }
    #[cfg(not(unix))]
    {
        let _ = path;
        false
    }
}

/// Steps 1 and 2: writes `path`'s tmp sibling and makes it durable — or,
/// for a stream, writes `path` itself. Returns whether it staged.
fn stage(path: &Path, write: impl FnOnce(&File) -> std::io::Result<()>) -> WgaResult<bool> {
    if in_place(path) {
        let file = fs::OpenOptions::new().write(true).open(path);
        let file = file.map_err(|e| WgaError::io(format!("open {}", path.display()), e))?;
        write(&file).map_err(|e| WgaError::io(format!("write {}", path.display()), e))?;
        return Ok(false);
    }
    let tmp = tmp_path(path);
    let file =
        File::create(&tmp).map_err(|e| WgaError::io(format!("create {}", tmp.display()), e))?;
    write(&file).map_err(|e| WgaError::io(format!("write {}", tmp.display()), e))?;
    file.sync_all()
        .map_err(|e| WgaError::io(format!("fsync {}", tmp.display()), e))?;
    Ok(true)
}

/// Steps 3 and 4, when `path` was `staged`: flips the name and makes the
/// flip durable.
fn commit(path: &Path, staged: bool) -> WgaResult<()> {
    if !staged {
        return Ok(());
    }
    let tmp = tmp_path(path);
    fs::rename(&tmp, path)
        .map_err(|e| WgaError::io(format!("rename {} -> {}", tmp.display(), path.display()), e))?;
    sync_parent_dir(path)
}

/// [`write_atomic_with`] for a payload already in memory, written
/// unbuffered.
///
/// # Errors
///
/// As [`write_atomic_with`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> WgaResult<()> {
    let staged = stage(path, |mut file| file.write_all(bytes))?;
    commit(path, staged)
}

/// [`write_atomic`] behind one probe of `hook`, a sink's fault gate, at
/// `obs`'s pair: `error` injections fail before any byte is written,
/// `short-write` injections truncate the tmp payload halfway and fail
/// *before the rename* — the destination survives either way, which is
/// what the chaos suite asserts. A `crash` aborts the process before
/// the write, as it does at every other hook.
///
/// # Errors
///
/// [`WgaError::Io`] on any real or injected failure.
pub fn write_atomic_gated(path: &Path, bytes: &[u8], hook: Hook, obs: &Obs<'_>) -> WgaResult<()> {
    match obs
        .injector()
        .and_then(|injector| injector.probe(hook, obs.pair()))
    {
        None => {}
        Some(FaultKind::ShortWrite) => {
            // The simulated crash: data partially staged, rename never ran.
            stage(path, |mut file| file.write_all(&bytes[..bytes.len() / 2]))?;
            return Err(WgaError::io(
                format!("write {}", tmp_path(path).display()),
                std::io::Error::other("injected short write"),
            ));
        }
        Some(_) => {
            return Err(WgaError::io(
                format!("write {}", path.display()),
                std::io::Error::other("injected I/O error"),
            ));
        }
    }
    write_atomic(path, bytes)
}

/// The tmp siblings [`pre_open_outputs`] staged. Dropping it removes
/// each one a write has not renamed away, so a command that fails leaves
/// none behind.
#[derive(Debug)]
pub struct Staged(Vec<PathBuf>);

impl Drop for Staged {
    fn drop(&mut self) {
        for tmp in &self.0 {
            let _ = fs::remove_file(tmp);
        }
    }
}

/// What names a file however it is spelt: its device and inode where it
/// exists, its canonical directory and name where it does not yet.
#[derive(Debug, PartialEq)]
enum FileId {
    Inode(u64, u64),
    New(PathBuf),
}

fn file_id(path: &Path) -> Option<FileId> {
    match fs::metadata(path) {
        #[cfg(unix)]
        Ok(meta) => {
            use std::os::unix::fs::MetadataExt;
            Some(FileId::Inode(meta.dev(), meta.ino()))
        }
        #[cfg(not(unix))]
        Ok(_) => fs::canonicalize(path).ok().map(FileId::New),
        Err(_) => {
            let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
            let dir = fs::canonicalize(dir.unwrap_or(Path::new("."))).ok()?;
            Some(FileId::New(dir.join(path.file_name()?)))
        }
    }
}

/// Checks a command's outputs, each named by its flag, before it reads
/// any of its `inputs`, then stages the tmp sibling of each it will
/// replace ([`pre_open_check`]). A `replaced` output is written by
/// [`write_atomic_with`] or [`write_atomic_gated`]: missing, a regular
/// file, or a stream written in place. A checkpoint `journal`, read back
/// and grown in place, is missing or a regular file; its tmp sibling,
/// which a repair of a damaged journal is written through, is claimed
/// like an output's but not staged.
///
/// # Errors
///
/// [`WgaError::Config`] naming the flag when an output is an input,
/// when it and another output (or the tmp sibling that one stages
/// through) are one file, or when it is a file of a kind it cannot be —
/// a directory, say; [`WgaError::Io`] when a tmp sibling cannot be
/// created. Nothing is staged unless every check passes.
pub fn pre_open_outputs(
    replaced: &[(&str, &Path)],
    journal: Option<(&str, &Path)>,
    inputs: &[&Path],
) -> WgaResult<Staged> {
    let inputs: Vec<FileId> = inputs.iter().filter_map(|path| file_id(path)).collect();
    let mut claimed: Vec<(&str, FileId)> = Vec::new();
    for (i, &(flag, path)) in replaced.iter().chain(&journal).enumerate() {
        let replace = i < replaced.len();
        let stream = replace && in_place(path);
        if !stream && fs::metadata(path).is_ok_and(|meta| !meta.is_file()) {
            let or_stream = if replace {
                ", FIFO or character device"
            } else {
                ""
            };
            let path = path.display();
            return Err(WgaError::config(format!(
                "{flag} {path}: not a regular file{or_stream}"
            )));
        }
        let Some(id) = file_id(path) else { continue };
        if inputs.contains(&id) {
            return Err(WgaError::config(format!(
                "{flag} {} is an input of the run",
                path.display()
            )));
        }
        if stream {
            continue;
        }
        // A journal stages its repairs through the tmp sibling too.
        let tmp = tmp_path(path);
        let tmp_id = file_id(&tmp).map(|tmp_id| (tmp.as_path(), tmp_id));
        for (name, id) in std::iter::once((path, id)).chain(tmp_id) {
            if let Some((other, _)) = claimed.iter().find(|(_, claim)| *claim == id) {
                return Err(WgaError::config(format!(
                    "{other} and {flag} would write one file ({})",
                    name.display()
                )));
            }
            claimed.push((flag, id));
        }
    }
    let mut staged = Staged(Vec::new());
    for &(_, path) in replaced.iter().filter(|(_, path)| !in_place(path)) {
        pre_open_check(path)?;
        staged.0.push(tmp_path(path));
    }
    Ok(staged)
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
    use crate::faultsim::{FaultInjector, FaultPlan};

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
        assert_eq!(
            fs::read(&path).unwrap(),
            b"a score=0\na score=1\na score=2\n"
        );
        // A render that fails midway: the error comes back, the
        // destination keeps the last complete file.
        let torn = write_atomic_with(&path, |w| {
            writeln!(w, "a score=9")?;
            Err(std::io::Error::other("render failed"))
        });
        assert!(torn.unwrap_err().to_string().contains("render failed"));
        assert_eq!(
            fs::read(&path).unwrap(),
            b"a score=0\na score=1\na score=2\n"
        );
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
        let injector = FaultInjector::new(plan);
        let obs = Obs::off().with_injector(&injector);
        let err = write_atomic_gated(&path, b"new-content", Hook::MetricsSink, &obs);
        assert!(err.is_err());
        assert_eq!(
            fs::read(&path).unwrap(),
            b"intact-old-content",
            "a torn sink write must never reach the destination"
        );
        // The next (un-injected) attempt goes through.
        write_atomic_gated(&path, b"new-content", Hook::MetricsSink, &obs).unwrap();
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
        let injector = FaultInjector::new(plan);
        let obs = Obs::off().with_injector(&injector);
        assert!(write_atomic_gated(&path, b"x", Hook::TraceSink, &obs).is_err());
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

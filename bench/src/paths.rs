//! Where things are, and building the two programs the ledger drives.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The repository the ledger was built in and the target directories its
/// programs are built into.
#[derive(Debug, Clone)]
pub struct Paths {
    pub root: PathBuf,
    /// Target directory of the repository's own build, which makes `wga`.
    pub root_target: PathBuf,
    /// Target directory of this package, which makes `layers` and holds
    /// the per-run work directories. The same directory as `root_target`
    /// when CARGO_TARGET_DIR names one.
    pub bench_target: PathBuf,
}

impl Paths {
    pub fn locate() -> Paths {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the bench package sits one level below the repository root")
            .to_path_buf();
        // Cargo resolves a relative CARGO_TARGET_DIR against its working
        // directory; the ledger is started from the repository root.
        let shared = std::env::var_os("CARGO_TARGET_DIR").map(|dir| {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir().unwrap_or_default().join(dir)
            }
        });
        Paths {
            root_target: shared.clone().unwrap_or_else(|| root.join("target")),
            bench_target: shared.unwrap_or_else(|| root.join("bench").join("target")),
            root,
        }
    }

    pub fn wga(&self) -> PathBuf {
        self.root_target.join("release").join("wga")
    }

    pub fn layers(&self) -> PathBuf {
        self.bench_target.join("release").join("layers")
    }

    /// Builds one binary with cargo (a no-op when it is fresh) and checks
    /// that it is where the ledger will look for it. `--offline` always:
    /// every dependency is a path in this repository.
    fn build(&self, manifest: &Path, target: &Path, built: &Path) -> Result<(), String> {
        let bin = built.file_name().expect("a binary has a name");
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
            ])
            .arg(manifest)
            .arg("--bin")
            .arg(bin)
            .env("CARGO_TARGET_DIR", target)
            .current_dir(&self.root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building {} failed", built.display()));
        }
        if !built.is_file() {
            return Err(format!(
                "cargo succeeded but {} is missing",
                built.display()
            ));
        }
        Ok(())
    }

    pub fn build_wga(&self) -> Result<(), String> {
        self.build(
            &self.root.join("Cargo.toml"),
            &self.root_target,
            &self.wga(),
        )
    }

    pub fn build_layers(&self) -> Result<(), String> {
        self.build(
            &self.root.join("bench").join("Cargo.toml"),
            &self.bench_target,
            &self.layers(),
        )
    }
}

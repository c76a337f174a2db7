//! What the benchmark reads about its own process and build.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's package directory; every file a run writes lives under
/// its `out/` directory.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Bytes this process has passed to write calls so far (`wchar`).
pub fn wchar() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

pub fn rustc_version() -> String {
    first_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark was built in, when that
/// checkout is a git repository; git is not allowed to look above it.
pub fn commit() -> String {
    let root = package_dir().join("..");
    let ceiling = root.join("..");
    first_line(
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", &ceiling),
    )
    .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A directory removed (with everything in it) when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let path = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

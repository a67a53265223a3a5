//! Scratch directories inside the build's target directory, so the
//! benchmark reads and writes only inside its checkout and leaves nothing
//! that git would see.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory removed when dropped.
#[derive(Debug)]
pub struct TmpDir(PathBuf);

impl TmpDir {
    /// Creates `<dir of this executable>/avq-benchmark-tmp/<pid>-<n>-<label>`.
    pub fn new(label: &str) -> Result<TmpDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let root = exe.parent().ok_or("executable has no parent directory")?;
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root
            .join("avq-benchmark-tmp")
            .join(format!("{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

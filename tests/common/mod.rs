//! Scratch directories for the `lf-bench` integration tests.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A test's scratch directory: removed when the test passes, kept when it
/// fails so the failure can be diagnosed.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Claims `path`, removing whatever an earlier run left there. The
    /// directory itself is not created.
    pub fn new(path: PathBuf) -> ScratchDir {
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

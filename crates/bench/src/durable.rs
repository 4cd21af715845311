//! The atomic-commit path every campaign-side file write goes through.
//!
//! A `kill -9` (or power loss) can land between any two instructions, so a
//! plain `std::fs::write` of an artifact can leave a truncated JSON file
//! that a later campaign (or a human) reads as data. Every durable
//! campaign file — cache entries, `failures.json`, `planner.json`,
//! scenario artifacts, `BENCH_*.json` trajectories, span exports,
//! flight-recorder dumps — therefore commits through [`atomic_write`]:
//!
//! 1. write the full contents to `<file>.tmp.<pid>.<seq>` in the target
//!    directory (same filesystem, so the rename below cannot degrade to a
//!    copy);
//! 2. `fsync` the temp file, so the *data* is on disk before any name
//!    points at it;
//! 3. `rename` over the destination — POSIX rename is atomic, so readers
//!    see either the complete old file or the complete new one, never a
//!    prefix;
//! 4. best-effort `fsync` of the parent directory, so the new name itself
//!    survives a machine crash.
//!
//! The temp name embeds the process id and a per-process sequence number:
//! campaigns in separate processes (or threads) sharing a directory must
//! never write through the same temp file, or one writer's rename would
//! publish the other's half-written bytes.
//!
//! A crash between steps 1 and 3 leaks the temp file. That is the one
//! residue the protocol permits, and [`sweep_orphan_tmps`] removes it:
//! the engine sweeps the cache directory and its preparation records at
//! campaign startup and counts the sweeps in planner telemetry
//! (`tmp_swept`), so a crashy deployment
//! is visible in its own numbers. The crash-recovery harness
//! (`tests/crash_recovery.rs`) asserts that after a kill + rerun cycle no
//! temp file survives anywhere.

use lf_stats::Json;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The infix every temp file carries (`<name>.tmp.<pid>.<seq>`); the
/// orphan sweep keys on it.
pub const TMP_INFIX: &str = ".tmp.";

/// Builds the temp-file path for `path`: same directory, unique suffix.
fn tmp_path(path: &Path) -> PathBuf {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!(
        "{name}{TMP_INFIX}{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Atomically commits `text` to `path` via temp file + fsync + rename.
/// After a crash at any point, `path` holds either its previous contents
/// or the complete new contents — never a prefix.
pub fn atomic_write(path: &Path, text: &str) -> io::Result<()> {
    atomic_write_bytes(path, text.as_bytes())
}

/// [`atomic_write`] for binary payloads (checkpoint blobs); the text path
/// delegates here so every durable commit shares one protocol.
pub fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let commit = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        // Data must reach disk before the rename publishes a name for it;
        // otherwise a machine crash could leave a *named* empty file,
        // which is exactly the torn state the protocol exists to prevent.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if commit.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return commit;
    }
    // Persisting the directory entry is best-effort: every filesystem
    // we target accepts an fsync on a read-only directory handle, but a
    // failure here only widens the machine-crash window — the rename
    // already happened, so no torn state is possible.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// [`atomic_write`] for a JSON document: creates parent directories and
/// appends the conventional trailing newline. The shape shared by every
/// artifact writer (`failures.json`, `planner.json`, scenario artifacts,
/// trajectory appends, trace exports).
pub fn atomic_write_json(doc: &Json, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    atomic_write(path, &(doc.to_string_pretty() + "\n"))
}

/// Reads a `BENCH_*.json` trajectory for an append: the document and its
/// `runs` array, oldest first. A missing file is an empty history. A file
/// that does not parse, or has no `runs` array, is an `InvalidData` error,
/// so an append never overwrites a history it could not read (a conflicted
/// merge leaves exactly such a file).
pub fn read_trajectory(path: &Path) -> io::Result<(Json, Vec<Json>)> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let mut doc = Json::obj();
            doc.set("schema_version", crate::artifact::SCHEMA_VERSION);
            return Ok((doc, Vec::new()));
        }
        Err(e) => return Err(e),
    };
    let doc = Json::parse(&text).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("not a trajectory document: {e}"))
    })?;
    let runs = doc.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "trajectory document has no `runs` array")
    })?;
    Ok((doc, runs))
}

/// Removes orphaned temp files (`*.tmp.<pid>.<seq>`) left in `dir` by a
/// crash between write and rename, returning how many were swept. Only
/// plain files directly in `dir` are considered; subdirectories (e.g.
/// `quarantine/`) keep their own hygiene. A missing directory
/// sweeps zero files.
pub fn sweep_orphan_tmps(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().contains(TMP_INFIX)
            && entry.file_type().map(|t| t.is_file()).unwrap_or(false)
            && std::fs::remove_file(entry.path()).is_ok()
        {
            swept += 1;
        }
    }
    swept
}

/// A unit test's scratch directory, `<temp>/lf-bench-<kind>-test-<pid>-<tag>`:
/// removed when the test passes, kept when it fails so the failure can be
/// diagnosed.
#[cfg(test)]
pub(crate) struct ScratchDir(PathBuf);

#[cfg(test)]
impl ScratchDir {
    /// Claims the directory, removing whatever an earlier run left there.
    /// The directory itself is not created.
    pub(crate) fn new(kind: &str, tag: &str) -> ScratchDir {
        let name = format!("lf-bench-{kind}-test-{}-{tag}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

#[cfg(test)]
impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

#[cfg(test)]
impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> ScratchDir {
        let dir = ScratchDir::new("durable", tag);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_whole_contents() {
        let dir = scratch_dir("replace");
        let path = dir.join("doc.json");
        atomic_write(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        atomic_write(&path, "second, longer contents").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second, longer contents");
        // No temp residue after successful commits.
        assert_eq!(sweep_orphan_tmps(&dir), 0);
    }

    #[test]
    fn atomic_write_json_creates_parents_and_newline() {
        let dir = scratch_dir("json");
        let path = dir.join("nested/deeper/doc.json");
        let mut doc = Json::obj();
        doc.set("k", 7u64);
        atomic_write_json(&doc, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(Json::parse(&text).unwrap().get("k").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn sweep_removes_only_orphan_tmps() {
        let dir = scratch_dir("sweep");
        std::fs::write(dir.join("entry.json"), "{}").unwrap();
        std::fs::write(dir.join("entry.json.tmp.12345.0"), "half-writ").unwrap();
        std::fs::write(dir.join("other.json.tmp.12345.7"), "").unwrap();
        std::fs::create_dir_all(dir.join("quarantine")).unwrap();
        std::fs::write(dir.join("quarantine/bad.json.tmp.1.1"), "x").unwrap();
        assert_eq!(sweep_orphan_tmps(&dir), 2, "both top-level orphans are swept");
        assert!(dir.join("entry.json").exists(), "real entries are untouched");
        assert!(
            dir.join("quarantine/bad.json.tmp.1.1").exists(),
            "subdirectories are not descended into"
        );
        assert_eq!(sweep_orphan_tmps(&dir), 0, "idempotent");
        assert_eq!(sweep_orphan_tmps(&dir.join("no-such-dir")), 0, "missing dir sweeps nothing");
    }

    /// The trajectory writer (`lf-bench perf`) refuses a file it cannot
    /// read and leaves its bytes alone; a missing file is created with the
    /// one new entry.
    #[test]
    fn trajectory_appends_refuse_a_history_they_cannot_read() {
        let dir = scratch_dir("trajectory");
        let conflicted = "{\"runs\": [\n<<<<<<< HEAD\n";
        for (i, garbage) in [conflicted, "{\"schema_version\": 2}", ""].iter().enumerate() {
            let path = dir.join(format!("garbage-{i}.json"));
            std::fs::write(&path, garbage).unwrap();
            let err = read_trajectory(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{garbage:?}");
            assert!(crate::perf::append_throughput_entry(&path, &Json::obj()).is_err());
            assert_eq!(std::fs::read_to_string(&path).unwrap(), *garbage, "bytes unchanged");
        }
        let runs = |path: &Path| read_trajectory(path).unwrap().1.len();
        let path = dir.join("throughput.json");
        crate::perf::append_throughput_entry(&path, &Json::obj()).unwrap();
        crate::perf::append_throughput_entry(&path, &Json::obj()).unwrap();
        assert_eq!(runs(&path), 2);
    }

    #[test]
    fn failed_commit_leaves_no_tmp() {
        let dir = scratch_dir("fail");
        // Destination is a directory: the rename must fail, and the temp
        // file must be cleaned up.
        let path = dir.join("blocked");
        std::fs::create_dir_all(&path).unwrap();
        assert!(atomic_write(&path, "contents").is_err());
        assert_eq!(sweep_orphan_tmps(&dir), 0, "failed commits clean their temp file");
    }
}

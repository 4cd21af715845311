//! The on-disk run cache: memoized simulation outcomes under
//! `results/cache/`, keyed by run fingerprint.
//!
//! Each unique `(annotated program, config, scale)` fingerprint maps to
//! one pretty-printed JSON file `results/cache/<fingerprint>.json`
//! holding the run's final-state checksum and its [`RunRecord`], the one
//! copy of its facts; the outcome's table-facing statistics are derived
//! from the record on load. A cache hit skips the cycle-level simulation
//! entirely, so re-rendering a figure after a table-formatting change is
//! free.
//!
//! Entries carry the artifact [`SCHEMA_VERSION`]; [`DiskCache::lookup`]
//! classifies every non-hit so planner telemetry can distinguish an
//! ordinary miss from a schema-version mismatch (a stale but well-formed
//! entry, left in place and overwritten on store) and from corruption (an
//! unparseable or self-inconsistent entry, moved to
//! `<cache>/quarantine/` so it is preserved for diagnosis and can never
//! be re-read). `--no-cache` bypasses both directions.

use crate::artifact::SCHEMA_VERSION;
use crate::durable::atomic_write;
use crate::runner::{RunOutcome, RunRecord};
use lf_stats::{fingerprint_hex, parse_fingerprint_hex, Json};
use std::io;
use std::path::{Path, PathBuf};

/// Handle on a cache directory.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    schema: u64,
}

/// The classified result of a cache probe.
#[derive(Debug)]
pub enum CacheLookup {
    /// The entry parsed, matched the schema, and reconstructed.
    Hit(Box<RunOutcome>),
    /// No entry on disk.
    Miss,
    /// The entry exists but is unparseable or self-inconsistent (wrong
    /// fingerprint, missing or mistyped fields). The file has been moved
    /// to the quarantine directory when `quarantined` is true (the move
    /// itself is best-effort).
    Corrupt {
        /// Whether the bad entry was successfully moved aside.
        quarantined: bool,
    },
    /// The entry is well-formed but written under a different schema
    /// version; left in place to be overwritten by this run's store.
    SchemaMismatch,
}

impl DiskCache {
    /// Opens (without creating) the cache at `dir` under the current
    /// [`SCHEMA_VERSION`].
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache::with_schema(dir, SCHEMA_VERSION)
    }

    /// Opens the cache pinned to an explicit schema version — the test
    /// seam for validating that a version bump invalidates entries.
    pub fn with_schema(dir: impl Into<PathBuf>, schema: u64) -> DiskCache {
        DiskCache { dir: dir.into(), schema }
    }

    /// The entry path for a fingerprint.
    pub fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{}.json", fingerprint_hex(fingerprint)))
    }

    /// The cache directory itself (the engine sweeps orphaned temp files
    /// from it at campaign startup).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where corrupt entries are moved on detection.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Probes the cache, classifying the result. Corrupt entries are
    /// quarantined as a side effect.
    pub fn lookup(&self, fingerprint: u64) -> CacheLookup {
        let path = self.entry_path(fingerprint);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return CacheLookup::Miss,
        };
        let parse = |text: &str| -> Result<Box<RunOutcome>, bool> {
            let doc = Json::parse(text).map_err(|_| false)?;
            // A well-formed entry under the wrong schema version is stale,
            // not corrupt.
            match doc.get("schema_version").and_then(Json::as_u64) {
                Some(v) if v == self.schema => {}
                Some(_) => return Err(true),
                None => return Err(false),
            }
            let field = |key: &str| doc.get(key).and_then(Json::as_str);
            let stored_fp = field("fingerprint").and_then(parse_fingerprint_hex).ok_or(false)?;
            if stored_fp != fingerprint {
                return Err(false);
            }
            let checksum = field("checksum").and_then(parse_fingerprint_hex).ok_or(false)?;
            let record = doc.get("record").and_then(RunRecord::from_json).ok_or(false)?;
            Ok(Box::new(RunOutcome::new(fingerprint, checksum, record)))
        };
        match parse(&text) {
            Ok(outcome) => CacheLookup::Hit(outcome),
            Err(true) => CacheLookup::SchemaMismatch,
            Err(false) => {
                let quarantined = self.quarantine(&path, fingerprint).is_ok();
                CacheLookup::Corrupt { quarantined }
            }
        }
    }

    /// Moves a corrupt entry into the quarantine directory.
    fn quarantine(&self, path: &Path, fingerprint: u64) -> io::Result<()> {
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir)?;
        std::fs::rename(path, qdir.join(format!("{}.json", fingerprint_hex(fingerprint))))
    }

    /// Persists an outcome, creating the cache directory as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (callers treat the cache as best-effort
    /// and may choose to retry or warn rather than abort).
    pub fn store(&self, outcome: &RunOutcome) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let mut doc = Json::obj();
        doc.set("schema_version", self.schema);
        doc.set("fingerprint", fingerprint_hex(outcome.fingerprint));
        // Full-width u64 checksums do not survive JSON's f64 numbers;
        // store them as hex tokens.
        doc.set("checksum", fingerprint_hex(outcome.checksum));
        doc.set("record", outcome.record.to_json());
        // Entries commit through the shared atomic path (temp + fsync +
        // rename), so a crashed run cannot leave a half-written entry
        // that later parses as truncated JSON.
        atomic_write(&self.entry_path(outcome.fingerprint), &doc.to_string_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_stats::{Counters, Histogram};
    use loopfrog::telemetry::{CycleAccounting, CycleBucket, IntervalSample};
    use loopfrog::SimStats;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lf-bench-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_outcome(fingerprint: u64) -> RunOutcome {
        let mut stats = SimStats::new(4);
        stats.cycles = 1000;
        stats.committed_insts = 4000;
        stats.counters = Counters::new();
        stats.counters.add("l2_accesses", 77);
        let mut accounting = CycleAccounting::default();
        accounting.add(CycleBucket::BaseCommit, 4000);
        accounting.add(CycleBucket::Memory, 4000);
        let mut rob = Histogram::new(2, 4);
        rob.record_n(5, 1000);
        let record = RunRecord {
            stats,
            accounting,
            intervals: vec![IntervalSample {
                cycle: 1000,
                committed_insts: 4000,
                issued_insts: 4100,
                spawns: 3,
                squashes: 1,
            }],
            occupancy: [rob, Histogram::new(1, 3), Histogram::new(1, 9)],
            commit_width: 8,
            tier: None,
        };
        RunOutcome::new(fingerprint, 0xdead_beef_dead_beef, record)
    }

    fn hit(cache: &DiskCache, fingerprint: u64) -> Option<Box<RunOutcome>> {
        match cache.lookup(fingerprint) {
            CacheLookup::Hit(outcome) => Some(outcome),
            _ => None,
        }
    }

    #[test]
    fn round_trips() {
        let cache = DiskCache::new(scratch_dir("round-trip"));
        let out = sample_outcome(42);
        cache.store(&out).unwrap();
        let back = hit(&cache, 42).expect("entry loads");
        assert_eq!(back.fingerprint, 42);
        assert_eq!(back.checksum, out.checksum);
        assert_eq!(back.stats, out.stats);
        assert_eq!(back.stats.counters.get("l2_accesses"), 77);
        assert_eq!(back.record, out.record);
        assert!(matches!(cache.lookup(43), CacheLookup::Miss), "unknown fingerprints miss");

        // The entry stores the record and nothing beside it: no registry
        // dump, and no second copy of the statistics.
        let text = std::fs::read_to_string(cache.entry_path(42)).unwrap();
        assert!(!text.contains("registry"), "a stored entry holds no registry");
        let doc = Json::parse(&text).unwrap();
        let Json::Obj(keys) = &doc else { panic!("an entry is an object") };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["checksum", "fingerprint", "record", "schema_version"]);

        // An estimate's whole-run cycles and instructions are derived from
        // its tier record on load; the record keeps the carrier's own.
        let mut tier = Json::obj();
        tier.set("tier", "sampled");
        tier.set("est_cycles", 123_456.6);
        tier.set("total_insts", 999_999u64);
        let mut record = out.record.clone();
        record.tier = Some(tier);
        cache.store(&RunOutcome::new(5, out.checksum, record)).unwrap();
        let back = hit(&cache, 5).expect("entry loads");
        assert_eq!((back.stats.cycles, back.stats.committed_insts), (123_457, 999_999));
        assert_eq!(back.record.stats, out.stats);
    }

    #[test]
    fn schema_bump_invalidates() {
        let dir = scratch_dir("schema-bump");
        let cache = DiskCache::new(dir.clone());
        cache.store(&sample_outcome(7)).unwrap();
        assert!(hit(&cache, 7).is_some());
        let bumped = DiskCache::with_schema(dir, SCHEMA_VERSION + 1);
        assert!(
            matches!(bumped.lookup(7), CacheLookup::SchemaMismatch),
            "a schema bump invalidates old entries, classified as stale, not corrupt"
        );
        assert!(bumped.entry_path(7).exists(), "stale entries stay in place to be overwritten");
    }

    #[test]
    fn corrupt_entries_miss_and_quarantine() {
        let dir = scratch_dir("corrupt");
        let cache = DiskCache::new(dir.clone());
        cache.store(&sample_outcome(9)).unwrap();
        std::fs::write(cache.entry_path(9), "{ truncated").unwrap();
        assert!(matches!(cache.lookup(9), CacheLookup::Corrupt { quarantined: true }));
        assert!(!cache.entry_path(9).exists(), "the bad entry is moved aside");
        assert!(
            cache.quarantine_dir().join(format!("{}.json", fingerprint_hex(9))).exists(),
            "the bad entry is preserved under quarantine/"
        );
        // The slot is now a plain miss and can be refilled.
        assert!(matches!(cache.lookup(9), CacheLookup::Miss));
        cache.store(&sample_outcome(9)).unwrap();
        assert!(hit(&cache, 9).is_some());

        // A tier record without its estimate is corrupt, not a detailed run.
        let mut out = sample_outcome(9);
        out.record.tier = Some(Json::obj());
        cache.store(&out).unwrap();
        assert!(matches!(cache.lookup(9), CacheLookup::Corrupt { .. }));
    }

    #[test]
    fn fingerprint_mismatch_is_corrupt() {
        let dir = scratch_dir("fp-mismatch");
        let cache = DiskCache::new(dir.clone());
        cache.store(&sample_outcome(11)).unwrap();
        // An entry stored under the wrong filename claims fingerprint 11.
        std::fs::rename(cache.entry_path(11), cache.entry_path(12)).unwrap();
        assert!(matches!(cache.lookup(12), CacheLookup::Corrupt { .. }));
    }

    #[test]
    fn concurrent_stores_to_one_dir_never_collide() {
        let dir = scratch_dir("concurrent");
        let cache = DiskCache::new(dir.clone());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..20u64 {
                        // All threads hammer the same fingerprint so their
                        // temp files would collide under a shared name.
                        let _ = i;
                        cache.store(&sample_outcome(1000 + t % 2)).unwrap();
                    }
                });
            }
        });
        assert!(hit(&cache, 1000).is_some());
        assert!(hit(&cache, 1001).is_some());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files left behind: {leftovers:?}");
    }
}

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
//!
//! Beside the entries, `<cache>/prepared/` holds one *preparation record*
//! per `(kernel, scale, hinting)` pair, `<kernel>.<scale>.<hinting>.json`:
//! the [`PrepIdentity`] a full preparation established, its key, and the
//! [`BUILD_ID`] of the build that wrote it. A campaign reads a pair's
//! record instead of profiling and annotating its kernel. A record under
//! another build identity is stale: it is not used, and the campaign
//! overwrites it after preparing the pair in full. A record that does not
//! decode or names another key is corrupt and quarantined under
//! `<cache>/quarantine/prepared/`, as a corrupt entry is.

use crate::artifact::SCHEMA_VERSION;
use crate::durable::{atomic_write, sweep_orphan_tmps};
use crate::engine::planner::{Hinting, PrepIdentity, PreparedKernel};
use crate::runner::{scale_tag, RunOutcome, RunRecord};
use lf_stats::json::Reader;
use lf_stats::{fingerprint_hex, parse_fingerprint_hex, Json};
use lf_workloads::Scale;
use std::io;
use std::path::{Path, PathBuf};

/// The identity of this build of `lf-bench`: a hash of every source it is
/// built from and its build profile (`crates/bench/build.rs`). Preparation
/// records are valid only under the identity that wrote them, so an edit
/// to the compiler pass, the golden emulator or a workload retires them
/// without a schema bump. Run entries need none: their key already hashes
/// the annotated program.
pub const BUILD_ID: &str = env!("LF_BENCH_BUILD_ID");

/// The subdirectory of the cache that holds the preparation records.
const RECORDS: &str = "prepared";

/// The name of the preparation record of `(kernel, scale, hinting)`,
/// relative to the cache directory.
pub(crate) fn record_name(kernel: &str, scale: Scale, hinting: Hinting) -> String {
    format!("{RECORDS}/{kernel}.{}.{}.json", scale_tag(scale), hinting.tag())
}

/// The classified result of reading a preparation record.
#[derive(Debug)]
pub(crate) enum RecordLookup {
    /// The record decoded under this build's identity.
    Hit(PrepIdentity),
    /// No record on disk.
    Miss,
    /// A record written under another build identity; left in place to be
    /// overwritten.
    Stale,
    /// The record is unreadable, does not decode, or names another key.
    /// It has been moved to the quarantine directory (best-effort).
    Corrupt,
}

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
    /// The entry exists but is unreadable, not UTF-8, unparseable or
    /// self-inconsistent (wrong fingerprint, missing or mistyped fields).
    /// The file has been moved to the quarantine directory when
    /// `quarantined` is true (the move itself is best-effort).
    Corrupt {
        /// Whether the bad entry was successfully moved aside.
        quarantined: bool,
    },
    /// The entry is well-formed but written under a different schema
    /// version; left in place to be overwritten by this run's store.
    SchemaMismatch,
}

/// Why an entry or a record on disk is not a hit.
#[derive(Debug, PartialEq)]
enum Rejected {
    /// Well-formed, under another schema version (an entry) or build
    /// identity (a record).
    Stale,
    /// Unreadable, not JSON, or not a valid entry of this schema.
    Corrupt,
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

    /// Where corrupt entries are moved on detection.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// The path of the preparation record of `(kernel, scale, hinting)`.
    pub(crate) fn record_path(&self, kernel: &str, scale: Scale, hinting: Hinting) -> PathBuf {
        self.dir.join(record_name(kernel, scale, hinting))
    }

    /// Removes the commit temp files a killed predecessor orphaned among
    /// the entries and among the preparation records, returning how many
    /// it removed.
    pub(crate) fn sweep_orphan_tmps(&self) -> usize {
        sweep_orphan_tmps(&self.dir) + sweep_orphan_tmps(&self.dir.join(RECORDS))
    }

    /// Reads the preparation record of `(kernel, scale, hinting)`,
    /// classifying the result. Only a missing file is a miss: a record that
    /// exists but does not decode is corrupt, and is quarantined as a side
    /// effect.
    pub(crate) fn read_record(&self, kernel: &str, scale: Scale, hinting: Hinting) -> RecordLookup {
        let decoded = match std::fs::read(self.record_path(kernel, scale, hinting)) {
            Ok(bytes) => decode_record(&bytes, kernel, scale, hinting),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return RecordLookup::Miss,
            Err(_) => Err(Rejected::Corrupt),
        };
        match decoded {
            Ok(identity) => RecordLookup::Hit(identity),
            Err(Rejected::Stale) => RecordLookup::Stale,
            Err(Rejected::Corrupt) => {
                let _ = self.quarantine_record(kernel, scale, hinting);
                RecordLookup::Corrupt
            }
        }
    }

    /// Moves the preparation record of `(kernel, scale, hinting)` into the
    /// quarantine directory.
    pub(crate) fn quarantine_record(
        &self,
        kernel: &str,
        scale: Scale,
        hinting: Hinting,
    ) -> io::Result<()> {
        let name = record_name(kernel, scale, hinting);
        let to = self.quarantine_dir().join(&name);
        std::fs::create_dir_all(to.parent().expect("a record lies in a directory"))?;
        std::fs::rename(self.dir.join(&name), to)
    }

    /// Writes `kernel`'s preparation record under this build's identity,
    /// through the same atomic commit as an entry.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; records are best-effort, like entries.
    pub(crate) fn store_record(&self, kernel: &PreparedKernel) -> io::Result<()> {
        let (w, identity) = (&kernel.workload, &kernel.identity);
        let path = self.record_path(w.name, w.scale, kernel.hinting);
        std::fs::create_dir_all(path.parent().expect("a record lies in a directory"))?;
        let mut doc = Json::obj();
        doc.set("build", BUILD_ID);
        doc.set("kernel", w.name);
        doc.set("scale", scale_tag(w.scale));
        doc.set("hinting", kernel.hinting.tag());
        doc.set("code_fingerprint", fingerprint_hex(identity.code_fingerprint));
        doc.set("mem_fingerprint", fingerprint_hex(identity.mem_fingerprint));
        doc.set("golden", identity.golden.map_or(Json::Null, |g| fingerprint_hex(g).into()));
        doc.set("selected_loops", identity.selected_loops);
        atomic_write(&path, &doc.to_string_pretty())
    }

    /// Probes the cache, classifying the result. Only a missing file is a
    /// miss: an entry that exists but does not decode is corrupt, and is
    /// quarantined as a side effect.
    pub fn lookup(&self, fingerprint: u64) -> CacheLookup {
        let path = self.entry_path(fingerprint);
        let decoded = match std::fs::read(&path) {
            Ok(bytes) => self.decode(&bytes, fingerprint),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(_) => Err(Rejected::Corrupt),
        };
        match decoded {
            Ok(outcome) => CacheLookup::Hit(outcome),
            Err(Rejected::Stale) => CacheLookup::SchemaMismatch,
            Err(Rejected::Corrupt) => {
                let quarantined = self.quarantine(&path, fingerprint).is_ok();
                CacheLookup::Corrupt { quarantined }
            }
        }
    }

    /// Decodes an entry's bytes into its outcome in one pass, building no
    /// [`Json`] tree but the tier record's (and an unknown key's, which
    /// written entries do not have). Bytes that are not UTF-8 or not
    /// well-formed JSON are corrupt. Otherwise `schema_version` decides
    /// first, whatever else the entry holds: keys are written sorted, so it
    /// follows the record, and a record that does not decode under this
    /// schema only makes the entry corrupt once the version is known to
    /// match. Then the stored fingerprint must be `fingerprint`, and the
    /// checksum and record must decode.
    fn decode(&self, bytes: &[u8], fingerprint: u64) -> Result<Box<RunOutcome>, Rejected> {
        let text = std::str::from_utf8(bytes).map_err(|_| Rejected::Corrupt)?;
        let mut r = Reader::new(text);
        let (mut schema, mut stored, mut checksum, mut record) = (None, None, None, None);
        let hex = |r: &mut Reader<'_>| r.str().map(|s| s.and_then(|s| parse_fingerprint_hex(&s)));
        r.object(|r, key| {
            match &*key {
                "schema_version" => schema = r.u64()?,
                "fingerprint" => stored = hex(r)?,
                "checksum" => checksum = hex(r)?,
                "record" => record = RunRecord::read_json(r)?,
                _ => r.skip()?,
            }
            Ok(())
        })
        .and_then(|_| r.finish())
        .map_err(|_| Rejected::Corrupt)?;
        match schema {
            Some(v) if v == self.schema => {}
            Some(_) => return Err(Rejected::Stale),
            None => return Err(Rejected::Corrupt),
        }
        match (stored, checksum, record) {
            (Some(stored), Some(checksum), Some(record)) if stored == fingerprint => {
                Ok(Box::new(RunOutcome::new(fingerprint, checksum, record)))
            }
            _ => Err(Rejected::Corrupt),
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

/// Decodes a preparation record's bytes. The build identity decides
/// first, whatever else the record holds; then the key must be
/// `(kernel, scale, hinting)` and all four values must decode.
fn decode_record(
    bytes: &[u8],
    kernel: &str,
    scale: Scale,
    hinting: Hinting,
) -> Result<PrepIdentity, Rejected> {
    let text = std::str::from_utf8(bytes).map_err(|_| Rejected::Corrupt)?;
    let doc = Json::parse(text).map_err(|_| Rejected::Corrupt)?;
    let str_of = |key: &str| doc.get(key).and_then(Json::as_str);
    match str_of("build") {
        Some(build) if build == BUILD_ID => {}
        Some(_) => return Err(Rejected::Stale),
        None => return Err(Rejected::Corrupt),
    }
    let key = [str_of("kernel"), str_of("scale"), str_of("hinting")];
    let hex = |key: &str| str_of(key).and_then(parse_fingerprint_hex);
    let golden = match doc.get("golden") {
        Some(Json::Null) => Some(None),
        Some(golden) => golden.as_str().and_then(parse_fingerprint_hex).map(Some),
        None => None,
    };
    let loops = doc.get("selected_loops").and_then(Json::as_u64);
    match (hex("code_fingerprint"), hex("mem_fingerprint"), golden, loops.map(usize::try_from)) {
        (Some(code_fingerprint), Some(mem_fingerprint), Some(golden), Some(Ok(selected_loops)))
            if key == [Some(kernel), Some(scale_tag(scale)), Some(hinting.tag())] =>
        {
            Ok(PrepIdentity { code_fingerprint, mem_fingerprint, golden, selected_loops })
        }
        _ => Err(Rejected::Corrupt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::ScratchDir;
    use lf_stats::{Counters, Histogram, SmallRng};
    use loopfrog::telemetry::{CycleAccounting, CycleBucket, IntervalSample};
    use loopfrog::SimStats;

    fn scratch_dir(tag: &str) -> ScratchDir {
        ScratchDir::new("cache", tag)
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

    /// Whether two outcomes hold the same facts.
    fn same(a: &RunOutcome, b: &RunOutcome) -> bool {
        (a.fingerprint, a.checksum, &a.stats, &a.record)
            == (b.fingerprint, b.checksum, &b.stats, &b.record)
    }

    /// A record whose every part varies with `rng`: its counter set (names
    /// that need escapes and non-ASCII ones included), the shapes of its
    /// three histograms, 0–5 intervals, and for half of them a sampled tier
    /// record with a fractional estimate and a nested windows array.
    fn random_record(rng: &mut SmallRng) -> RunRecord {
        const NAMES: [&str; 8] = [
            "l2_accesses",
            "dram_accesses",
            "arena_high_water",
            "bloom_false_positive_squashes",
            "quoted \"name\"\\",
            "tab\tand\nnewline",
            "ünïcödé ✓",
            "\u{1}control",
        ];
        let count = |rng: &mut SmallRng| rng.random_range(0..1u64 << 40);
        let mut stats = SimStats::new(rng.random_range(1..8usize));
        stats.cycles = count(rng);
        stats.committed_insts = count(rng);
        stats.squashes_wrong_path = count(rng);
        stats.pack_factor_max = rng.random_range(0..64u32);
        for n in stats.cycles_with_active.iter_mut() {
            *n = count(rng);
        }
        for name in NAMES {
            if rng.random_range(0..2u32) == 0 {
                stats.counters.add(name, count(rng));
            }
        }
        let mut accounting = CycleAccounting::default();
        for bucket in CycleBucket::ALL {
            accounting.add(bucket, count(rng));
        }
        let intervals = (0..rng.random_range(0..=5usize))
            .map(|_| IntervalSample {
                cycle: count(rng),
                committed_insts: count(rng),
                issued_insts: count(rng),
                spawns: count(rng),
                squashes: count(rng),
            })
            .collect();
        let occupancy = [(); 3].map(|()| {
            let mut h = Histogram::new(rng.random_range(1..64u64), rng.random_range(1..40usize));
            for _ in 0..rng.random_range(0..50u32) {
                let sample = rng.random_range(0..5_000u64);
                h.record_n(sample, rng.random_range(0..1_000u64));
            }
            h
        });
        let tier = (rng.random_range(0..2u32) == 0).then(|| {
            let mut t = Json::obj();
            t.set("tier", "sampled");
            t.set("total_insts", count(rng));
            t.set("interval_len", count(rng));
            t.set("est_cycles", count(rng) as f64 + rng.random_f64());
            let windows = (0..rng.random_range(1..=6u32)).map(|i| {
                let mut w = Json::obj();
                w.set("interval", u64::from(i));
                w.set("weight", rng.random_f64());
                w.set("cycles", count(rng));
                w
            });
            t.set("windows", Json::Arr(windows.collect()));
            t
        });
        let commit_width = rng.random_range(1..16u64);
        RunRecord { stats, accounting, intervals, occupancy, commit_width, tier }
    }

    #[test]
    fn round_trips() {
        let dir = scratch_dir("round-trip");
        let cache = DiskCache::new(&*dir);
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
        let cache = DiskCache::new(&*dir);
        cache.store(&sample_outcome(7)).unwrap();
        assert!(hit(&cache, 7).is_some());
        let bumped = DiskCache::with_schema(&*dir, SCHEMA_VERSION + 1);
        assert!(
            matches!(bumped.lookup(7), CacheLookup::SchemaMismatch),
            "a schema bump invalidates old entries, classified as stale, not corrupt"
        );
        assert!(bumped.entry_path(7).exists(), "stale entries stay in place to be overwritten");
    }

    #[test]
    fn corrupt_entries_miss_and_quarantine() {
        let dir = scratch_dir("corrupt");
        let cache = DiskCache::new(&*dir);
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
        let cache = DiskCache::new(&*dir);
        cache.store(&sample_outcome(11)).unwrap();
        // An entry stored under the wrong filename claims fingerprint 11.
        std::fs::rename(cache.entry_path(11), cache.entry_path(12)).unwrap();
        assert!(matches!(cache.lookup(12), CacheLookup::Corrupt { .. }));
    }

    #[test]
    fn random_records_round_trip_through_the_reader() {
        let dir = scratch_dir("random-records");
        let cache = DiskCache::new(&*dir);
        let mut rng = SmallRng::seed_from_u64(37);
        let mut sampled = 0;
        for fingerprint in 1..=500u64 {
            let record = random_record(&mut rng);
            sampled += usize::from(record.tier.is_some());
            let out = RunOutcome::new(fingerprint, rng.next_u64(), record);
            cache.store(&out).unwrap();
            let back = hit(&cache, fingerprint).expect("a stored entry hits");
            assert!(same(&back, &out), "entry {fingerprint}:\n{back:?}\n{out:?}");
        }
        assert!((200..300).contains(&sampled), "{sampled} of 500 records sampled");
    }

    #[test]
    fn every_proper_prefix_of_an_entry_is_corrupt() {
        let dir = scratch_dir("prefixes");
        let cache = DiskCache::new(&*dir);
        let mut rng = SmallRng::seed_from_u64(5);
        let records = std::iter::from_fn(|| Some(random_record(&mut rng)));
        // One detailed and one sampled entry, each with an escaped and a
        // non-ASCII counter name.
        let mut wanted = [false, false];
        for record in records {
            let names: Vec<&str> = record.stats.counters.iter().map(|(k, _)| k).collect();
            let kind = usize::from(record.tier.is_some());
            if wanted[kind]
                || !names.iter().any(|k| k.contains('"'))
                || !names.contains(&"ünïcödé ✓")
            {
                continue;
            }
            wanted[kind] = true;
            let out = RunOutcome::new(3, 4, record);
            cache.store(&out).unwrap();
            let bytes = std::fs::read(cache.entry_path(3)).unwrap();
            assert!(same(&cache.decode(&bytes, 3).expect("the whole entry decodes"), &out));
            let whole = String::from_utf8_lossy(&bytes).trim_end().to_string();
            for end in 0..bytes.len() {
                let prefix = &bytes[..end];
                if String::from_utf8_lossy(prefix).trim_end() == whole {
                    continue;
                }
                assert_eq!(cache.decode(prefix, 3).err(), Some(Rejected::Corrupt), "{end} bytes");
            }
            if wanted == [true, true] {
                break;
            }
        }
    }

    #[test]
    fn a_stale_entry_is_stale_whatever_its_record_holds() {
        let dir = scratch_dir("v3");
        let cache = DiskCache::new(&*dir);
        let out = sample_outcome(21);
        // A schema v3 entry: its record also held the registry view, and
        // had no occupancy histograms yet.
        let mut record = out.record.to_json();
        let Json::Obj(fields) = &mut record else { panic!("a record is an object") };
        fields.remove("occupancy");
        let mut registry = Json::obj();
        registry.set("core.cycles", 1000u64);
        record.set("registry", registry);
        let mut doc = Json::obj();
        doc.set("schema_version", 3u64);
        doc.set("fingerprint", fingerprint_hex(21));
        doc.set("checksum", fingerprint_hex(out.checksum));
        doc.set("record", record);
        let text = doc.to_string_pretty();
        assert!(text.find("\"record\"") < text.find("\"schema_version\""), "keys are sorted");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.entry_path(21), &text).unwrap();
        assert!(matches!(cache.lookup(21), CacheLookup::SchemaMismatch));
        assert!(cache.entry_path(21).exists(), "a stale entry stays in place");
        assert!(!cache.quarantine_dir().exists());

        // A key given twice counts once, the last time, as in a parsed
        // document.
        let body = &text[1..];
        std::fs::write(cache.entry_path(21), format!("{{\"schema_version\": 4,{body}")).unwrap();
        assert!(matches!(cache.lookup(21), CacheLookup::SchemaMismatch));
        cache.store(&out).unwrap();
        let text = std::fs::read_to_string(cache.entry_path(21)).unwrap();
        let stale = format!("{},\"schema_version\": 3}}", text.trim_end().trim_end_matches('}'));
        std::fs::write(cache.entry_path(21), stale).unwrap();
        assert!(matches!(cache.lookup(21), CacheLookup::SchemaMismatch));
        let body = &text[1..];
        std::fs::write(cache.entry_path(21), format!("{{\"schema_version\": 3,{body}")).unwrap();
        assert!(same(&hit(&cache, 21).expect("the last version is current"), &out));
    }

    #[test]
    fn a_non_utf8_entry_is_corrupt_and_quarantined() {
        let dir = scratch_dir("non-utf8");
        let cache = DiskCache::new(&*dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.entry_path(31), b"\xff\xfe garbage").unwrap();
        assert!(matches!(cache.lookup(31), CacheLookup::Corrupt { quarantined: true }));
        assert!(!cache.entry_path(31).exists());
        assert!(cache.quarantine_dir().join(format!("{}.json", fingerprint_hex(31))).exists());

        // One invalid byte inside a string of an otherwise valid entry.
        let mut out = sample_outcome(32);
        out.record.stats.counters.add("l2_misses", 1);
        cache.store(&out).unwrap();
        let mut bytes = std::fs::read(cache.entry_path(32)).unwrap();
        let at = bytes.windows(9).position(|w| w == b"l2_misses").unwrap();
        bytes[at] = 0xff;
        std::fs::write(cache.entry_path(32), bytes).unwrap();
        assert!(matches!(cache.lookup(32), CacheLookup::Corrupt { quarantined: true }));
    }

    /// The member `key` of object `j`.
    fn member<'j>(j: &'j mut Json, key: &str) -> &'j mut Json {
        let Json::Obj(m) = j else { panic!("no object around {key}") };
        m.get_mut(key).unwrap_or_else(|| panic!("no member {key}"))
    }

    /// The entry stored for `fingerprint`, parsed.
    fn stored_doc(cache: &DiskCache, fingerprint: u64) -> Json {
        Json::parse(&std::fs::read_to_string(cache.entry_path(fingerprint)).unwrap()).unwrap()
    }

    #[test]
    fn unknown_keys_are_skipped() {
        let dir = scratch_dir("unknown-keys");
        let cache = DiskCache::new(&*dir);
        let out = sample_outcome(41);
        cache.store(&out).unwrap();
        let mut doc = stored_doc(&cache, 41);
        let note = Json::Arr(vec![Json::Null, Json::Bool(false), "x".into(), Json::obj()]);
        // Every object but the counters, whose keys are all counter names.
        let paths: [&[&str]; 6] = [
            &[],
            &["record"],
            &["record", "stats"],
            &["record", "accounting"],
            &["record", "occupancy"],
            &["record", "occupancy", "rob"],
        ];
        for path in paths {
            let at = path.iter().fold(&mut doc, |at, key| member(at, key));
            at.set("zz_unknown", note.clone());
            at.set("aa_unknown", 1.5);
        }
        let Json::Arr(intervals) = member(member(&mut doc, "record"), "intervals") else {
            panic!("intervals are an array")
        };
        intervals[0].set("zz_unknown", note);
        std::fs::write(cache.entry_path(41), doc.to_string_pretty()).unwrap();
        assert!(same(&hit(&cache, 41).expect("unknown keys are skipped"), &out));
    }

    #[test]
    fn a_zero_width_histogram_is_corrupt() {
        let dir = scratch_dir("zero-width");
        let cache = DiskCache::new(&*dir);
        cache.store(&sample_outcome(51)).unwrap();
        let mut doc = stored_doc(&cache, 51);
        member(member(member(&mut doc, "record"), "occupancy"), "iq").set("width", 0u64);
        std::fs::write(cache.entry_path(51), doc.to_string_pretty()).unwrap();
        assert!(matches!(cache.lookup(51), CacheLookup::Corrupt { quarantined: true }));
    }

    /// Every smoke kernel's preparation, raw and annotated, round-trips
    /// through its record to the identity a full preparation gives, and a
    /// kernel built from the record prepares the same program on demand.
    #[test]
    fn every_smoke_preparation_round_trips_through_its_record() {
        let dir = scratch_dir("records");
        let cache = DiskCache::new(&*dir);
        for w in lf_workloads::all(Scale::Smoke) {
            for hinting in [Hinting::Raw, Hinting::Annotated] {
                let what = format!("{} {}", w.name, hinting.tag());
                let full = PreparedKernel::prepare(w.clone(), &hinting);
                assert!(matches!(cache.read_record(w.name, w.scale, hinting), RecordLookup::Miss));
                cache.store_record(&full).unwrap();
                let RecordLookup::Hit(identity) = cache.read_record(w.name, w.scale, hinting)
                else {
                    panic!("{what}: a stored record reads back")
                };
                assert_eq!(identity, full.identity, "{what}");
                let recorded =
                    PreparedKernel::from_record(full.workload.clone(), hinting, identity);
                assert_eq!(recorded.program(), full.program(), "{what}");
                assert!(recorded.prepared_lazily() && !recorded.record_contradicted(), "{what}");
            }
        }
    }

    /// A record under another build identity is stale whatever else it
    /// holds, and stays in place to be overwritten; one that does not
    /// decode, lacks a value or names another key is corrupt and moved to
    /// `quarantine/prepared/`.
    #[test]
    fn stale_records_stay_and_corrupt_ones_are_quarantined() {
        let dir = scratch_dir("record-faults");
        let cache = DiskCache::new(&*dir);
        let w = lf_workloads::by_name("hash_lookup", Scale::Smoke).unwrap();
        let full = PreparedKernel::prepare(w, &Hinting::Annotated);
        let read = || cache.read_record("hash_lookup", Scale::Smoke, Hinting::Annotated);
        let path = cache.record_path("hash_lookup", Scale::Smoke, Hinting::Annotated);
        let quarantined = cache.quarantine_dir().join("prepared/hash_lookup.smoke.annotated.json");
        cache.store_record(&full).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(matches!(read(), RecordLookup::Hit(identity) if identity == full.identity));

        let other_build = text.replace(BUILD_ID, "0123456789abcdef");
        std::fs::write(&path, other_build.replace("\"annotated\"", "[]")).unwrap();
        assert!(matches!(read(), RecordLookup::Stale));
        assert!(path.exists() && !cache.quarantine_dir().exists(), "a stale record stays");

        let loops = format!("\"selected_loops\": {}", full.identity.selected_loops);
        let corrupt = [
            text[..text.len() / 2].to_string(),
            text.replace("\"build\"", "\"built\""),
            text.replace("\"hash_lookup\"", "\"stencil_blur\""),
            text.replace("\"annotated\"", "\"raw\""),
            text.replace("\"smoke\"", "\"eval\""),
            text.replace(&loops, "\"selected_loops\": -1"),
            text.replace("\"golden\": \"", "\"golden\": \"x"),
            text.replace("\"code_fingerprint\"", "\"code\""),
        ];
        for bad in corrupt {
            std::fs::write(&path, &bad).unwrap();
            assert!(matches!(read(), RecordLookup::Corrupt), "{bad}");
            assert!(!path.exists(), "{bad}");
            assert_eq!(std::fs::read_to_string(&quarantined).unwrap(), bad);
            assert!(matches!(read(), RecordLookup::Miss));
        }
    }

    /// The sweep removes commit temp files orphaned among the records as
    /// well as among the entries, and nothing else.
    #[test]
    fn the_sweep_covers_the_records() {
        let dir = scratch_dir("record-sweep");
        let cache = DiskCache::new(&*dir);
        let w = lf_workloads::by_name("hash_lookup", Scale::Smoke).unwrap();
        cache.store_record(&PreparedKernel::prepare(w, &Hinting::Raw)).unwrap();
        cache.store(&sample_outcome(61)).unwrap();
        let record = cache.record_path("hash_lookup", Scale::Smoke, Hinting::Raw);
        let orphans = [
            dir.join(format!("{}.json.tmp.1.0", fingerprint_hex(62))),
            dir.join("prepared/hash_lookup.smoke.annotated.json.tmp.1.1"),
        ];
        for orphan in &orphans {
            std::fs::write(orphan, "half-writ").unwrap();
        }
        assert_eq!(cache.sweep_orphan_tmps(), 2);
        assert!(orphans.iter().all(|orphan| !orphan.exists()));
        assert!(record.exists() && cache.entry_path(61).exists());
    }

    #[test]
    fn concurrent_stores_to_one_dir_never_collide() {
        let dir = scratch_dir("concurrent");
        let cache = DiskCache::new(&*dir);
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

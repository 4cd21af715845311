//! Simulation statistics, aligned with the paper's evaluation metrics
//! (whole-program cycles, IPC breakdown by threadlet class for Figure 8,
//! threadlet-activity distribution for Figure 7, squash causes, packing
//! behaviour for §6.5).

use lf_stats::json::Reader;
use lf_stats::{Counters, Json};

/// Statistics collected over one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions committed to architectural state (committed while the
    /// threadlet was architectural, plus speculative commits of epochs that
    /// later promoted).
    pub committed_insts: u64,
    /// Instructions committed while the threadlet was architectural.
    pub commits_arch: u64,
    /// Instructions committed speculatively in epochs that later promoted.
    pub commits_spec_success: u64,
    /// Instructions committed speculatively in epochs that were squashed
    /// (failed speculation; Figure 8's top band).
    pub commits_spec_failed: u64,
    /// Instructions issued to execution pipes (includes wrong-path work).
    pub issued_insts: u64,
    /// Instructions fetched along the predicted path (includes wrong-path
    /// work).
    pub fetched_insts: u64,
    /// Instructions renamed into the out-of-order window.
    pub renamed_insts: u64,
    /// Fetch stall events caused by I-cache misses.
    pub fetch_icache_stalls: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub branch_mispredicts: u64,
    /// Threadlets spawned by detach hints.
    pub spawns: u64,
    /// Spawns with packing factor > 1.
    pub packed_spawns: u64,
    /// Sum of packing factors over packed spawns (mean = sum / packed).
    pub pack_factor_sum: u64,
    /// Largest packing factor used.
    pub pack_factor_max: u32,
    /// Mispredicted induction variables repaired in place.
    pub pack_patches: u64,
    /// Threadlet squashes: inter-threadlet RAW conflicts.
    pub squashes_conflict: u64,
    /// SSB capacity overflow stall events (drains deferred until the
    /// threadlet became architectural).
    pub squashes_overflow: u64,
    /// Successor squashes: loop exit (sync).
    pub squashes_sync: u64,
    /// Successor squashes: packing misprediction with consumed value.
    pub squashes_packing: u64,
    /// Successor squashes: wrong-path detach discarded on branch recovery.
    pub squashes_wrong_path: u64,
    /// `cycles_with_active[k]` = cycles during which exactly `k` threadlet
    /// contexts were actively executing (Figure 7).
    pub cycles_with_active: Vec<u64>,
    /// Cycles during which the core was inside a parallel region (any
    /// threadlet detached or more than one context active).
    pub region_cycles: u64,
    /// Memory system and miscellaneous counters.
    pub counters: Counters,
}

impl SimStats {
    /// Creates stats sized for `threadlets` contexts.
    pub fn new(threadlets: usize) -> SimStats {
        SimStats { cycles_with_active: vec![0; threadlets + 1], ..SimStats::default() }
    }

    /// Architectural IPC: committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.cycles as f64
        }
    }

    /// Commit-bandwidth utilization for a core of `commit_width`.
    pub fn commit_utilization(&self, commit_width: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_insts as f64 / (self.cycles as f64 * commit_width as f64)
        }
    }

    /// Branch misprediction rate (mispredicts per resolved branch).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }

    /// Fraction of cycles with at least `k` threadlets active.
    pub fn frac_active_at_least(&self, k: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let n: u64 = self.cycles_with_active.iter().skip(k).sum();
        n as f64 / self.cycles as f64
    }

    /// Mean packing factor over packed spawns (1.0 if none packed).
    pub fn mean_pack_factor(&self) -> f64 {
        if self.packed_spawns == 0 {
            1.0
        } else {
            self.pack_factor_sum as f64 / self.packed_spawns as f64
        }
    }

    /// The plain `u64` fields, in [`COUNT_KEYS`] order.
    fn counts(&self) -> [u64; COUNT_KEYS.len()] {
        [
            self.cycles,
            self.committed_insts,
            self.commits_arch,
            self.commits_spec_success,
            self.commits_spec_failed,
            self.issued_insts,
            self.fetched_insts,
            self.renamed_insts,
            self.fetch_icache_stalls,
            self.branches,
            self.branch_mispredicts,
            self.spawns,
            self.packed_spawns,
            self.pack_factor_sum,
            self.pack_patches,
            self.squashes_conflict,
            self.squashes_overflow,
            self.squashes_sync,
            self.squashes_packing,
            self.squashes_wrong_path,
            self.region_cycles,
        ]
    }

    /// [`SimStats::counts`], to write.
    fn counts_mut(&mut self) -> [&mut u64; COUNT_KEYS.len()] {
        [
            &mut self.cycles,
            &mut self.committed_insts,
            &mut self.commits_arch,
            &mut self.commits_spec_success,
            &mut self.commits_spec_failed,
            &mut self.issued_insts,
            &mut self.fetched_insts,
            &mut self.renamed_insts,
            &mut self.fetch_icache_stalls,
            &mut self.branches,
            &mut self.branch_mispredicts,
            &mut self.spawns,
            &mut self.packed_spawns,
            &mut self.pack_factor_sum,
            &mut self.pack_patches,
            &mut self.squashes_conflict,
            &mut self.squashes_overflow,
            &mut self.squashes_sync,
            &mut self.squashes_packing,
            &mut self.squashes_wrong_path,
            &mut self.region_cycles,
        ]
    }

    /// Serializes every field to JSON, for the experiment engine's on-disk
    /// run cache. Inverse of [`SimStats::read_json`]. All counts here are
    /// far below 2^53, so the number representation is lossless.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        for (key, n) in COUNT_KEYS.into_iter().zip(self.counts()) {
            j.set(key, n);
        }
        j.set("pack_factor_max", self.pack_factor_max as u64);
        j.set("cycles_with_active", Json::from(self.cycles_with_active.clone()));
        let mut counters = Json::obj();
        for (name, n) in self.counters.iter() {
            counters.set(name, n);
        }
        j.set("counters", counters);
        j
    }

    /// Reads a [`SimStats::to_json`] document; `Ok(None)` if any field is
    /// missing or mistyped (a corrupt or stale cache entry). A key given
    /// twice keeps its last value. `Err` is a syntax error.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Option<SimStats>, String> {
        let mut counts = [None; COUNT_KEYS.len()];
        let (mut pack_factor_max, mut cycles_with_active, mut counters) = (None, None, None);
        r.object(|r, key| {
            match &*key {
                "pack_factor_max" => pack_factor_max = r.u64()?,
                "cycles_with_active" => cycles_with_active = r.u64s()?,
                "counters" => counters = Counters::read_json(r)?,
                key => match COUNT_KEYS.iter().position(|k| *k == key) {
                    Some(i) => counts[i] = r.u64()?,
                    None => r.skip()?,
                },
            }
            Ok(())
        })?;
        let (Some(pack_factor_max), Some(cycles_with_active), Some(counters)) =
            (pack_factor_max, cycles_with_active, counters)
        else {
            return Ok(None);
        };
        let pack_factor_max = pack_factor_max as u32;
        let mut stats =
            SimStats { pack_factor_max, cycles_with_active, counters, ..SimStats::default() };
        for (field, n) in stats.counts_mut().into_iter().zip(counts) {
            let Some(n) = n else { return Ok(None) };
            *field = n;
        }
        Ok(Some(stats))
    }
}

/// The JSON keys of [`SimStats`]' plain `u64` fields, in declaration order.
const COUNT_KEYS: [&str; 21] = [
    "cycles",
    "committed_insts",
    "commits_arch",
    "commits_spec_success",
    "commits_spec_failed",
    "issued_insts",
    "fetched_insts",
    "renamed_insts",
    "fetch_icache_stalls",
    "branches",
    "branch_mispredicts",
    "spawns",
    "packed_spawns",
    "pack_factor_sum",
    "pack_patches",
    "squashes_conflict",
    "squashes_overflow",
    "squashes_sync",
    "squashes_packing",
    "squashes_wrong_path",
    "region_cycles",
];

/// Why the simulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStop {
    /// The program's `halt` committed architecturally.
    Halted,
    /// The committed-instruction budget was exhausted.
    MaxInsts,
    /// The cycle budget was exhausted.
    MaxCycles,
    /// The harness-side wall-clock deadline passed (see
    /// [`crate::LoopFrogCore::set_deadline`]). Never produced unless a
    /// deadline was armed; results are partial and must not be cached.
    Deadline,
}

/// Final outcome of a simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Why the run stopped.
    pub stop: SimStop,
    /// Collected statistics.
    pub stats: SimStats,
    /// Checksum over final architectural registers and memory; comparable
    /// with [`lf_isa::Emulator::state_checksum`].
    pub checksum: u64,
    /// Final architectural register values.
    pub final_regs: Vec<u64>,
    /// Per-cycle ROB occupancy, IQ occupancy and commit bandwidth
    /// distributions, in that order.
    pub occupancy: [lf_stats::Histogram; 3],
    /// Per-commit-slot cycle accounting; sums to `cycles × commit_width`.
    pub accounting: crate::telemetry::CycleAccounting,
    /// Interval snapshots: one per [`crate::telemetry::INTERVAL_CYCLES`],
    /// plus a final partial interval.
    pub intervals: Vec<crate::telemetry::IntervalSample>,
    /// Sampled wall-clock stage profile (see [`crate::profiler`]); `None`
    /// unless [`crate::LoopFrogCore::enable_profiler`] was called.
    /// Deliberately excluded from the deterministic statistics and every
    /// cached/committed artifact.
    pub profile: Option<crate::profiler::ProfileReport>,
    /// The decisions its siblings' knobs could change (see
    /// [`crate::Footprint`]); `None` unless
    /// [`crate::LoopFrogCore::record_footprint`] was called, and `None` when
    /// the run overflowed a slice or used the victim buffer.
    pub footprint: Option<crate::Footprint>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_utilization() {
        let mut s = SimStats::new(4);
        s.cycles = 100;
        s.committed_insts = 400;
        assert!((s.ipc() - 4.0).abs() < 1e-12);
        assert!((s.commit_utilization(8) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn activity_fractions() {
        let mut s = SimStats::new(4);
        s.cycles = 10;
        s.cycles_with_active = vec![0, 5, 3, 1, 1];
        assert!((s.frac_active_at_least(2) - 0.5).abs() < 1e-12);
        assert!((s.frac_active_at_least(4) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SimStats::new(2);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.mean_pack_factor(), 1.0);
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let read = |text: &str| {
            let mut r = Reader::new(text);
            let stats = SimStats::read_json(&mut r).expect("well-formed JSON");
            r.finish().expect("one document");
            stats
        };
        // Every count distinct, so two fields read into each other's place
        // would show.
        let mut s = SimStats::new(4);
        for (i, n) in s.counts_mut().into_iter().enumerate() {
            *n = 1_000 + i as u64;
        }
        s.pack_factor_max = 7;
        s.cycles_with_active = vec![1, 2, 3, 4, 5];
        s.counters.add("l2_accesses", 999);
        s.counters.add("bloom_false_positive_squashes", 2);

        let doc = s.to_json();
        assert_eq!(doc.get("squashes_sync").and_then(Json::as_u64), Some(s.squashes_sync));
        assert_eq!(read(&doc.to_string_pretty()), Some(s.clone()));

        // Corrupt documents are rejected, not mis-read: every field is
        // required and typed.
        assert_eq!(read("{}"), None);
        let Json::Obj(fields) = &doc else { panic!("stats are an object") };
        for key in fields.keys() {
            let mut missing = doc.clone();
            let Json::Obj(m) = &mut missing else { unreachable!() };
            m.remove(key);
            assert_eq!(read(&missing.to_string_compact()), None, "without {key}");
            let mut mistyped = doc.clone();
            mistyped.set(key, "1");
            assert_eq!(read(&mistyped.to_string_compact()), None, "{key} as a string");
        }
    }
}

//! Simulation statistics, aligned with the paper's evaluation metrics
//! (whole-program cycles, IPC breakdown by threadlet class for Figure 8,
//! threadlet-activity distribution for Figure 7, squash causes, packing
//! behaviour for §6.5).

use lf_stats::Counters;

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

    /// Serializes every field to JSON, for the experiment engine's on-disk
    /// run cache. Inverse of [`SimStats::from_json`]. All counts here are
    /// far below 2^53, so the number representation is lossless.
    pub fn to_json(&self) -> lf_stats::Json {
        let mut j = lf_stats::Json::obj();
        j.set("cycles", self.cycles);
        j.set("committed_insts", self.committed_insts);
        j.set("commits_arch", self.commits_arch);
        j.set("commits_spec_success", self.commits_spec_success);
        j.set("commits_spec_failed", self.commits_spec_failed);
        j.set("issued_insts", self.issued_insts);
        j.set("fetched_insts", self.fetched_insts);
        j.set("renamed_insts", self.renamed_insts);
        j.set("fetch_icache_stalls", self.fetch_icache_stalls);
        j.set("branches", self.branches);
        j.set("branch_mispredicts", self.branch_mispredicts);
        j.set("spawns", self.spawns);
        j.set("packed_spawns", self.packed_spawns);
        j.set("pack_factor_sum", self.pack_factor_sum);
        j.set("pack_factor_max", self.pack_factor_max as u64);
        j.set("pack_patches", self.pack_patches);
        j.set("squashes_conflict", self.squashes_conflict);
        j.set("squashes_overflow", self.squashes_overflow);
        j.set("squashes_sync", self.squashes_sync);
        j.set("squashes_packing", self.squashes_packing);
        j.set("squashes_wrong_path", self.squashes_wrong_path);
        j.set(
            "cycles_with_active",
            lf_stats::Json::Arr(
                self.cycles_with_active.iter().map(|&c| lf_stats::Json::from(c)).collect(),
            ),
        );
        j.set("region_cycles", self.region_cycles);
        let mut counters = lf_stats::Json::obj();
        for (name, n) in self.counters.iter() {
            counters.set(name, n);
        }
        j.set("counters", counters);
        j
    }

    /// Reconstructs stats from a [`SimStats::to_json`] document; `None` if
    /// any field is missing or mistyped (a corrupt or stale cache entry).
    pub fn from_json(j: &lf_stats::Json) -> Option<SimStats> {
        let u = |key: &str| j.get(key).and_then(lf_stats::Json::as_u64);
        let mut counters = Counters::new();
        match j.get("counters")? {
            lf_stats::Json::Obj(m) => {
                for (name, v) in m {
                    counters.add(name, v.as_u64()?);
                }
            }
            _ => return None,
        }
        Some(SimStats {
            cycles: u("cycles")?,
            committed_insts: u("committed_insts")?,
            commits_arch: u("commits_arch")?,
            commits_spec_success: u("commits_spec_success")?,
            commits_spec_failed: u("commits_spec_failed")?,
            issued_insts: u("issued_insts")?,
            fetched_insts: u("fetched_insts")?,
            renamed_insts: u("renamed_insts")?,
            fetch_icache_stalls: u("fetch_icache_stalls")?,
            branches: u("branches")?,
            branch_mispredicts: u("branch_mispredicts")?,
            spawns: u("spawns")?,
            packed_spawns: u("packed_spawns")?,
            pack_factor_sum: u("pack_factor_sum")?,
            pack_factor_max: u("pack_factor_max")? as u32,
            pack_patches: u("pack_patches")?,
            squashes_conflict: u("squashes_conflict")?,
            squashes_overflow: u("squashes_overflow")?,
            squashes_sync: u("squashes_sync")?,
            squashes_packing: u("squashes_packing")?,
            squashes_wrong_path: u("squashes_wrong_path")?,
            cycles_with_active: j
                .get("cycles_with_active")?
                .as_arr()?
                .iter()
                .map(lf_stats::Json::as_u64)
                .collect::<Option<Vec<u64>>>()?,
            region_cycles: u("region_cycles")?,
            counters,
        })
    }
}

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
    /// The lines every SSB slice epoch allocated (see
    /// [`crate::ssb::SsbFootprint`]); `None` unless
    /// [`crate::LoopFrogCore::record_ssb_footprint`] was called, and `None`
    /// when the run overflowed a slice or used the victim buffer.
    pub ssb_footprint: Option<crate::ssb::SsbFootprint>,
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
        let mut s = SimStats::new(4);
        s.cycles = 12_345;
        s.committed_insts = 54_321;
        s.commits_arch = 40_000;
        s.commits_spec_success = 10_000;
        s.commits_spec_failed = 4_321;
        s.issued_insts = 60_000;
        s.spawns = 17;
        s.packed_spawns = 5;
        s.pack_factor_sum = 12;
        s.pack_factor_max = 7;
        s.squashes_conflict = 3;
        s.cycles_with_active = vec![1, 2, 3, 4, 5];
        s.region_cycles = 9_000;
        s.counters.add("l2_accesses", 999);
        s.counters.add("bloom_false_positive_squashes", 2);

        let text = s.to_json().to_string_pretty();
        let parsed = lf_stats::Json::parse(&text).expect("stats JSON parses");
        let back = SimStats::from_json(&parsed).expect("stats reconstruct");
        assert_eq!(format!("{s:?}"), format!("{back:?}"));

        // Corrupt documents are rejected, not mis-read.
        assert!(SimStats::from_json(&lf_stats::Json::obj()).is_none());
    }
}

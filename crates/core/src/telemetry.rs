//! Run-time telemetry: cycle accounting, interval sampling and occupancy
//! distributions, returned as facts in [`crate::SimResult`].
//!
//! Two instruments, both cheap enough to stay on for every run:
//!
//! - **Cycle accounting** (gem5/top-down style): every commit slot of every
//!   cycle is attributed to exactly one [`CycleBucket`] — productive commit
//!   or a specific stall cause — so the buckets always sum to
//!   `cycles × commit_width` and a slowdown can be read off as "where did
//!   the slots go".
//! - **Interval sampling**: a snapshot of the headline counters every
//!   [`INTERVAL_CYCLES`], plus one final partial interval, giving exactly
//!   `⌈cycles / N⌉` samples — the time series behind phase plots.
//!
//! Both are simulated results, not observation: observers (tracers, the
//! flight recorder, the self-profiler) are attached to a core by method
//! calls and never change what a run computes. The core returns these
//! facts and nothing derived from them: the dotted-name metrics view of a
//! run (`core.ipc`, `accounting.*`, …) is formatted by the bench's
//! artifact writer.

use lf_stats::Histogram;

/// The interval-sampling period in cycles. Every run samples at this
/// period; it feeds each run's fingerprint (see
/// [`crate::LoopFrogConfig::fingerprint`]) because it shapes
/// [`crate::SimResult::intervals`].
pub const INTERVAL_CYCLES: u64 = 8192;

/// Where one commit slot of one cycle went. The order here is the priority
/// order used when classifying an idle slot (earlier variants win).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleBucket {
    /// The slot committed an instruction (the only productive bucket).
    BaseCommit,
    /// A speculative store drain stalled on a full SSB slice this cycle.
    SsbOverflow,
    /// The front end is refilling after a squash or branch misprediction.
    SquashRecovery,
    /// Rename is blocked on a full reorder buffer.
    RobFull,
    /// Rename is blocked on a full issue queue.
    IqFull,
    /// Rename is blocked on a full load or store queue.
    LsqFull,
    /// The architectural head is an outstanding load (or undrained store).
    Memory,
    /// The architectural head is executing or waiting for operands.
    Exec,
    /// The architectural threadlet is finished and waiting out the
    /// conflict-check latency before retiring.
    RetireWait,
    /// The architectural ROB is empty and fetch has not delivered.
    FetchStall,
}

impl CycleBucket {
    /// All buckets, in dump order.
    pub const ALL: [CycleBucket; 10] = [
        CycleBucket::BaseCommit,
        CycleBucket::SsbOverflow,
        CycleBucket::SquashRecovery,
        CycleBucket::RobFull,
        CycleBucket::IqFull,
        CycleBucket::LsqFull,
        CycleBucket::Memory,
        CycleBucket::Exec,
        CycleBucket::RetireWait,
        CycleBucket::FetchStall,
    ];

    /// Stable snake_case name used in text/JSON dumps.
    pub fn name(self) -> &'static str {
        match self {
            CycleBucket::BaseCommit => "base_commit",
            CycleBucket::SsbOverflow => "ssb_overflow",
            CycleBucket::SquashRecovery => "squash_recovery",
            CycleBucket::RobFull => "rob_full",
            CycleBucket::IqFull => "iq_full",
            CycleBucket::LsqFull => "lsq_full",
            CycleBucket::Memory => "memory",
            CycleBucket::Exec => "exec",
            CycleBucket::RetireWait => "retire_wait",
            CycleBucket::FetchStall => "fetch_stall",
        }
    }
}

/// Per-bucket commit-slot totals. The invariant — checked by tests, relied
/// on by the breakdown figures — is `total() == cycles × commit_width`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAccounting {
    slots: [u64; CycleBucket::ALL.len()],
}

impl CycleAccounting {
    /// Attributes `n` commit slots to `bucket`.
    pub fn add(&mut self, bucket: CycleBucket, n: u64) {
        self.slots[bucket as usize] += n;
    }

    /// Slots attributed to `bucket`.
    pub fn get(&self, bucket: CycleBucket) -> u64 {
        self.slots[bucket as usize]
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Iterates `(bucket, slots)` in dump order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleBucket, u64)> + '_ {
        CycleBucket::ALL.iter().map(|&b| (b, self.slots[b as usize]))
    }
}

/// One interval snapshot. All fields are cumulative; consumers diff
/// consecutive samples to get per-interval rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSample {
    /// Cycle at which the snapshot was taken (the interval's end).
    pub cycle: u64,
    /// Cumulative architecturally committed instructions.
    pub committed_insts: u64,
    /// Cumulative issued instructions (includes wrong-path work).
    pub issued_insts: u64,
    /// Cumulative threadlet spawns.
    pub spawns: u64,
    /// Cumulative threadlet squashes, all causes.
    pub squashes: u64,
}

/// Collects [`IntervalSample`]s every `period` cycles.
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    period: u64,
    /// The cycle count at which the next boundary sample is due.
    next: u64,
    samples: Vec<IntervalSample>,
}

impl IntervalSampler {
    /// Creates a sampler with the given period (cycles per interval).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> IntervalSampler {
        assert!(period > 0, "interval period must be positive");
        IntervalSampler { period, next: period, samples: Vec::new() }
    }

    /// The cycle count at which the next boundary sample is due: the
    /// caller records one with [`IntervalSampler::record`] when its cycle
    /// count reaches it.
    pub fn next_boundary(&self) -> u64 {
        self.next
    }

    /// Records the boundary sample due at [`IntervalSampler::next_boundary`]
    /// and arms the following boundary.
    pub fn record(&mut self, sample: IntervalSample) {
        debug_assert_eq!(sample.cycle, self.next, "boundary samples land on the boundary");
        self.samples.push(sample);
        self.next += self.period;
    }

    /// Records the final partial interval, if the run did not end exactly
    /// on a boundary. After this, `samples().len() == ⌈cycles / period⌉`.
    pub fn finish(&mut self, cycle: u64, sample: IntervalSample) {
        if !cycle.is_multiple_of(self.period) {
            self.samples.push(sample);
        }
    }

    /// The samples collected so far.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    /// Moves the samples out, leaving the sampler empty.
    pub fn take_samples(&mut self) -> Vec<IntervalSample> {
        std::mem::take(&mut self.samples)
    }
}

/// The counter name of each commit-stall reason (what the architectural
/// head waited on in a cycle that committed nothing), indexed as
/// [`CycleSample::commit_stall`] is.
pub(crate) const COMMIT_STALL_NAMES: [&str; 6] = [
    "stall_retire_wait",
    "stall_frontend",
    "stall_not_issued",
    "stall_load",
    "stall_exec",
    "stall_drain",
];

/// What one simulated cycle adds to the [`CycleStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CycleSample {
    /// Index into [`COMMIT_STALL_NAMES`] when nothing committed.
    pub(crate) commit_stall: Option<usize>,
    /// Contexts actively executing.
    pub(crate) active: usize,
    /// Whether the core was inside a parallel region.
    pub(crate) in_region: bool,
    /// Instructions committed.
    pub(crate) committed: usize,
    /// Where the idle commit slots went, when any were idle.
    pub(crate) stall_bucket: Option<CycleBucket>,
    /// ROB occupancy (all threadlets).
    pub(crate) rob: usize,
    /// Issue-queue occupancy.
    pub(crate) iq: usize,
}

/// Every statistic that each simulated cycle adds to. A ticked cycle adds
/// its [`CycleSample`] once; a skipped quiet span adds its quiet tick's
/// sample once per skipped cycle, through the same [`CycleStats::add`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct CycleStats {
    commit_width: usize,
    /// Cycles that committed nothing, by [`COMMIT_STALL_NAMES`].
    pub(crate) commit_stalls: [u64; 6],
    /// Cycles with exactly `k` contexts actively executing.
    pub(crate) cycles_with_active: Vec<u64>,
    /// Cycles inside a parallel region.
    pub(crate) region_cycles: u64,
    pub(crate) accounting: CycleAccounting,
    /// Cycles at each ROB occupancy, IQ occupancy and commit count (indexed
    /// by value): three additions per cycle instead of three histogram
    /// divisions, folded into histograms once by
    /// [`CycleStats::histograms`].
    rob_occupancy: Vec<u64>,
    iq_occupancy: Vec<u64>,
    commit_bandwidth: Vec<u64>,
}

// `clone_from` reuses the count vectors' storage, so a verify build's
// per-span copy does not allocate.
impl Clone for CycleStats {
    fn clone(&self) -> CycleStats {
        let mut c = CycleStats {
            commit_width: 0,
            commit_stalls: [0; 6],
            cycles_with_active: Vec::new(),
            region_cycles: 0,
            accounting: CycleAccounting::default(),
            rob_occupancy: Vec::new(),
            iq_occupancy: Vec::new(),
            commit_bandwidth: Vec::new(),
        };
        c.clone_from(self);
        c
    }

    fn clone_from(&mut self, source: &CycleStats) {
        self.commit_width = source.commit_width;
        self.commit_stalls = source.commit_stalls;
        self.cycles_with_active.clone_from(&source.cycles_with_active);
        self.region_cycles = source.region_cycles;
        self.accounting = source.accounting.clone();
        self.rob_occupancy.clone_from(&source.rob_occupancy);
        self.iq_occupancy.clone_from(&source.iq_occupancy);
        self.commit_bandwidth.clone_from(&source.commit_bandwidth);
    }
}

impl CycleStats {
    pub(crate) fn new(cfg: &crate::LoopFrogConfig) -> CycleStats {
        CycleStats {
            commit_width: cfg.core.commit_width,
            commit_stalls: [0; 6],
            cycles_with_active: vec![0; cfg.core.threadlets + 1],
            region_cycles: 0,
            accounting: CycleAccounting::default(),
            rob_occupancy: vec![0; cfg.core.rob_size + 1],
            iq_occupancy: vec![0; cfg.core.iq_size + 1],
            commit_bandwidth: vec![0; cfg.core.commit_width + 1],
        }
    }

    /// Adds `n` cycles that each produced sample `s`.
    pub(crate) fn add(&mut self, s: &CycleSample, n: u64) {
        if let Some(r) = s.commit_stall {
            self.commit_stalls[r] += n;
        }
        self.cycles_with_active[s.active] += n;
        if s.in_region {
            self.region_cycles += n;
        }
        let committed = s.committed as u64;
        self.accounting.add(CycleBucket::BaseCommit, committed * n);
        if let Some(bucket) = s.stall_bucket {
            self.accounting.add(bucket, (self.commit_width as u64 - committed) * n);
        }
        for (counts, value) in [
            (&mut self.rob_occupancy, s.rob),
            (&mut self.iq_occupancy, s.iq),
            (&mut self.commit_bandwidth, s.committed),
        ] {
            if value >= counts.len() {
                counts.resize(value + 1, 0);
            }
            counts[value] += n;
        }
    }

    /// The per-cycle ROB occupancy, IQ occupancy and commit bandwidth
    /// distributions, in that order, bucketed as [`crate::SimResult`]
    /// carries them.
    pub(crate) fn histograms(&self, cfg: &crate::LoopFrogConfig) -> [Histogram; 3] {
        let fold = |counts: &[u64], width: u64, buckets: usize| {
            let mut h = Histogram::new(width, buckets);
            for (value, &n) in counts.iter().enumerate() {
                h.record_n(value as u64, n);
            }
            h
        };
        [
            fold(&self.rob_occupancy, (cfg.core.rob_size as u64 / 32).max(1), 33),
            fold(&self.iq_occupancy, (cfg.core.iq_size as u64 / 32).max(1), 33),
            fold(&self.commit_bandwidth, 1, cfg.core.commit_width + 1),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_sums_over_buckets() {
        let mut a = CycleAccounting::default();
        a.add(CycleBucket::BaseCommit, 5);
        a.add(CycleBucket::Memory, 3);
        a.add(CycleBucket::BaseCommit, 2);
        assert_eq!(a.get(CycleBucket::BaseCommit), 7);
        assert_eq!(a.total(), 10);
        assert_eq!(a.iter().count(), CycleBucket::ALL.len());
    }

    #[test]
    fn bucket_names_are_unique() {
        let names: std::collections::BTreeSet<&str> =
            CycleBucket::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), CycleBucket::ALL.len());
    }

    #[test]
    fn sampler_emits_ceil_cycles_over_period() {
        // 10 cycles at period 4 -> boundary samples at 4 and 8, final
        // partial at 10: ceil(10/4) = 3.
        let mut s = IntervalSampler::new(4);
        let snap = |cycle| IntervalSample {
            cycle,
            committed_insts: cycle,
            issued_insts: 0,
            spawns: 0,
            squashes: 0,
        };
        let run = |s: &mut IntervalSampler, cycles: u64| {
            for c in 1..=cycles {
                if c == s.next_boundary() {
                    s.record(snap(c));
                }
            }
            s.finish(cycles, snap(cycles));
        };
        run(&mut s, 10);
        assert_eq!(s.samples().len(), 3);
        assert_eq!(s.samples()[2].cycle, 10);
        assert_eq!(s.next_boundary(), 12, "the next boundary is armed");

        // Exact multiple: no extra partial sample.
        let mut s = IntervalSampler::new(5);
        run(&mut s, 10);
        assert_eq!(s.samples().len(), 2);

        // Zero cycles: zero samples.
        let mut s = IntervalSampler::new(5);
        s.finish(0, snap(0));
        assert!(s.samples().is_empty());
    }

    #[test]
    fn cycle_stats_add_n_equals_n_single_adds() {
        let cfg = crate::LoopFrogConfig::default();
        let samples = [
            CycleSample {
                commit_stall: Some(3),
                active: 2,
                in_region: true,
                committed: 0,
                stall_bucket: Some(CycleBucket::Memory),
                rob: cfg.core.rob_size,
                iq: 7,
            },
            CycleSample {
                commit_stall: None,
                active: 1,
                in_region: false,
                committed: cfg.core.commit_width,
                stall_bucket: None,
                rob: 40,
                iq: cfg.core.iq_size + 3, // past the pre-sized counts
            },
        ];
        let (mut each, mut bulk) = (CycleStats::new(&cfg), CycleStats::new(&cfg));
        for (s, n) in samples.iter().zip([5u64, 3]) {
            (0..n).for_each(|_| each.add(s, 1));
            bulk.add(s, n);
        }
        assert_eq!(bulk, each);
        assert_eq!(bulk.accounting.total(), 8 * cfg.core.commit_width as u64);
        let [rob, iq, commit] = bulk.histograms(&cfg);
        assert_eq!((rob.count(), rob.max()), (8, cfg.core.rob_size as u64));
        assert_eq!(iq.max(), cfg.core.iq_size as u64 + 3);
        assert_eq!(commit.buckets()[0], 5);
    }
}

//! Bloom-filter read/write sets (paper §4.2).
//!
//! "The read and write sets of threadlets may be implemented in hardware
//! using Bloom filters, similarly to prior work (Swarm). Doing so leads to
//! a low false-positive rate, but guarantees no false negatives, making the
//! approach safe and efficient."
//!
//! The paper's headline configuration models idealized filters (no false
//! positives; Table 1); this module provides the real thing so the
//! 2%-of-epochs false-aliasing estimate of §6.1 can be measured. A filter
//! is `k` hash functions over a `m`-bit array; membership tests may
//! false-positive but never false-negative, so conflict detection stays
//! conservative (extra squashes, never missed violations).
//!
//! A `BloomShadow` follows a run on exact sets and reports whether filters
//! of its geometry would have answered every test alike (DESIGN.md §8.4).

use crate::conflict::ConflictDetector;

/// A fixed-size Bloom filter over granule addresses.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    hashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter with `bits` bits (power of two; the paper sizes
    /// Swarm-like filters at 4,096 bits) and `hashes` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not a power of two or `hashes == 0`.
    pub fn new(bits: usize, hashes: u32) -> BloomFilter {
        assert!(bits.is_power_of_two() && bits >= 64, "bits must be a power of two ≥ 64");
        assert!(hashes > 0);
        BloomFilter { bits: vec![0; bits / 64], mask: bits as u64 - 1, hashes, inserted: 0 }
    }

    #[inline]
    fn index(&self, key: u64, i: u32) -> u64 {
        // Double hashing: h1 + i·h2, both derived from a 64-bit mix.
        let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x & self.mask
    }

    /// Inserts a granule address.
    ///
    /// `inserted` approximates the number of *distinct* keys: re-inserting
    /// a present key sets no new bit and leaves the count alone. (A fresh
    /// key whose bits all alias existing ones is also uncounted — the
    /// standard occupancy-based approximation, conservative for
    /// [`BloomFilter::expected_fp_rate`].) Threadlets re-touch the same
    /// granules constantly, so counting every call would inflate `n` and
    /// wildly overestimate the false-positive rate.
    pub fn insert(&mut self, key: u64) {
        let mut newly_set = false;
        for i in 0..self.hashes {
            let b = self.index(key, i);
            let word = &mut self.bits[(b / 64) as usize];
            let bit = 1 << (b % 64);
            newly_set |= *word & bit == 0;
            *word |= bit;
        }
        if newly_set {
            self.inserted += 1;
        }
    }

    /// Tests membership; may false-positive, never false-negatives.
    pub fn may_contain(&self, key: u64) -> bool {
        (0..self.hashes).all(|i| {
            let b = self.index(key, i);
            self.bits[(b / 64) as usize] >> (b % 64) & 1 == 1
        })
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }

    /// Distinct keys inserted since the last clear (approximate; see
    /// [`BloomFilter::insert`]).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The analytic false-positive probability at the current load.
    pub fn expected_fp_rate(&self) -> f64 {
        let m = (self.mask + 1) as f64;
        let k = self.hashes as f64;
        let n = self.inserted as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }
}

/// A Bloom-filtered conflict detector with the same interface semantics as
/// [`crate::conflict::ConflictDetector`] (Algorithm 1), used to measure the
/// cost of false aliasing relative to the idealized exact sets.
#[derive(Debug, Clone)]
pub struct BloomConflictDetector {
    rd: Vec<BloomFilter>,
    wr: Vec<BloomFilter>,
    /// Squash verdicts that an exact detector would not have produced.
    false_positives: u64,
    /// Filter membership tests on the Algorithm 1 hot path.
    probes: u64,
    exact: ConflictDetector,
}

impl BloomConflictDetector {
    /// Creates a detector with `contexts` slots and `bits`-bit filters.
    pub fn new(contexts: usize, bits: usize, hashes: u32) -> BloomConflictDetector {
        BloomConflictDetector {
            rd: (0..contexts).map(|_| BloomFilter::new(bits, hashes)).collect(),
            wr: (0..contexts).map(|_| BloomFilter::new(bits, hashes)).collect(),
            false_positives: 0,
            probes: 0,
            exact: ConflictDetector::new(contexts),
        }
    }

    /// Clears a slot.
    pub fn clear(&mut self, slot: usize) {
        self.rd[slot].clear();
        self.wr[slot].clear();
        self.exact.clear(slot);
    }

    /// Algorithm 1 `SpeculativeRead` over filters.
    pub fn on_read(&mut self, slot: usize, granules: &[u64]) {
        self.probes += granules.len() as u64;
        for &g in granules {
            if !self.wr[slot].may_contain(g) {
                self.rd[slot].insert(g);
            }
        }
        self.exact.on_read(slot, granules);
    }

    /// Algorithm 1 `Write` over filters; returns the oldest conflicting
    /// younger slot. Filter aliasing can only add squashes, never lose one.
    pub fn on_write(&mut self, slot: usize, granules: &[u64], younger: &[usize]) -> Option<usize> {
        for &g in granules {
            self.wr[slot].insert(g);
        }
        let exact_verdict = self.exact.on_write(slot, granules, younger);
        let mut fwd: Vec<u64> = granules.to_vec();
        for &t in younger {
            if fwd.is_empty() {
                break;
            }
            let mut conflict = false;
            for &g in &fwd {
                self.probes += 1;
                if self.rd[t].may_contain(g) {
                    conflict = true;
                    break;
                }
            }
            if conflict {
                if exact_verdict != Some(t) {
                    self.false_positives += 1;
                }
                return Some(t);
            }
            self.probes += fwd.len() as u64;
            fwd.retain(|g| !self.wr[t].may_contain(*g));
        }
        debug_assert_eq!(exact_verdict, None, "Bloom sets can never miss a true conflict");
        None
    }

    /// Squash verdicts attributable to filter aliasing alone.
    pub fn false_positive_squashes(&self) -> u64 {
        self.false_positives
    }

    /// Filter membership tests performed by the Algorithm 1 hot path
    /// (the shadow exact detector's probes are counted separately).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Whether `slot` may have read `granule` (conservative: may
    /// false-positive, never false-negative).
    pub fn may_have_read(&self, slot: usize, granule: u64) -> bool {
        self.rd[slot].may_contain(granule)
    }

    /// Whether `slot` may have written `granule` (conservative).
    pub fn may_have_written(&self, slot: usize, granule: u64) -> bool {
        self.wr[slot].may_contain(granule)
    }
}

/// The filters of one Bloom geometry following a run on exact sets
/// without steering it (DESIGN.md §8.4).
///
/// A shadow makes every membership test [`BloomConflictDetector`] would
/// make on the exact detector's operations, asks the exact sets the same
/// question, and *diverges* at the first answer that differs: `on_read`'s
/// write-set mask, `on_write`'s read test and frontier prune, and the
/// coherence interface's set queries. Until then its filters hold what the
/// real detector's would, so a run with filters of this geometry would have
/// taken every step the exact run took: the same verdicts, the same probe
/// count, and no false-positive squash. A diverged shadow stops.
#[derive(Debug, Clone)]
pub(crate) struct BloomShadow {
    geometry: (usize, u32),
    rd: Vec<BloomFilter>,
    wr: Vec<BloomFilter>,
    /// `on_write`'s forwarding frontier, kept to reuse its allocation.
    fwd: Vec<u64>,
    diverged: bool,
}

impl BloomShadow {
    /// A shadow with `contexts` slots of `(bits, hashes)` filters.
    pub(crate) fn new(contexts: usize, geometry: (usize, u32)) -> BloomShadow {
        let (bits, hashes) = geometry;
        BloomShadow {
            geometry,
            rd: (0..contexts).map(|_| BloomFilter::new(bits, hashes)).collect(),
            wr: (0..contexts).map(|_| BloomFilter::new(bits, hashes)).collect(),
            fwd: Vec::new(),
            diverged: false,
        }
    }

    /// The filters' `(bits, hashes)`.
    pub(crate) fn geometry(&self) -> (usize, u32) {
        self.geometry
    }

    /// Whether some filter answer differed from the exact sets' answer.
    pub(crate) fn diverged(&self) -> bool {
        self.diverged
    }

    /// Whether the filters' answer `filter` is the exact sets' `exact`;
    /// the shadow diverges if it is not.
    fn agrees(&mut self, filter: bool, exact: bool) -> bool {
        self.diverged |= filter != exact;
        !self.diverged
    }

    /// Clears a slot, as [`BloomConflictDetector::clear`] does.
    pub(crate) fn clear(&mut self, slot: usize) {
        self.rd[slot].clear();
        self.wr[slot].clear();
    }

    /// [`BloomConflictDetector::on_read`]'s tests, answered by `exact`,
    /// which `on_read` of the same granules leaves unchanged.
    pub(crate) fn on_read(&mut self, exact: &ConflictDetector, slot: usize, granules: &[u64]) {
        for &g in granules {
            if self.diverged {
                return;
            }
            let masked = self.wr[slot].may_contain(g);
            if self.agrees(masked, exact.has_written(slot, g)) && !masked {
                self.rd[slot].insert(g);
            }
        }
    }

    /// [`BloomConflictDetector::on_write`]'s tests, answered by `exact`
    /// after it recorded the same write.
    pub(crate) fn on_write(
        &mut self,
        exact: &ConflictDetector,
        slot: usize,
        granules: &[u64],
        younger: &[usize],
    ) {
        if self.diverged {
            return;
        }
        for &g in granules {
            self.wr[slot].insert(g);
        }
        let mut fwd = std::mem::take(&mut self.fwd);
        fwd.clear();
        fwd.extend_from_slice(granules);
        'walk: for &t in younger {
            if fwd.is_empty() {
                break;
            }
            for &g in &fwd {
                let read = self.rd[t].may_contain(g);
                // A conflict both sides agree on ends the walk as it ends
                // the detectors'.
                if !self.agrees(read, exact.has_read(t, g)) || read {
                    break 'walk;
                }
            }
            let (wr, mut agree) = (&self.wr[t], true);
            fwd.retain(|&g| {
                let written = wr.may_contain(g);
                agree &= written == exact.has_written(t, g);
                !written
            });
            if !self.agrees(agree, true) {
                break;
            }
        }
        self.fwd = fwd;
    }

    /// The coherence interface's queries of `slot`'s sets for `granule`,
    /// whose exact answers are `written` and `read`.
    pub(crate) fn on_query(&mut self, slot: usize, granule: u64, written: bool, read: bool) {
        if !self.diverged {
            let (wr, rd) = (&self.wr[slot], &self.rd[slot]);
            self.diverged = wr.may_contain(granule) != written || rd.may_contain(granule) != read;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ConflictSets;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(4096, 4);
        for k in 0..512u64 {
            f.insert(k * 7);
        }
        for k in 0..512u64 {
            assert!(f.may_contain(k * 7));
        }
    }

    #[test]
    fn false_positive_rate_is_low_at_paper_sizing() {
        // 4,096-bit filter, 4 hashes, 128 granules (a full SSB slice's
        // worth at 4 B granules): the paper expects ~2% of epochs to fail
        // with a naive design — per-lookup rates must be low.
        let mut f = BloomFilter::new(4096, 4);
        for k in 0..128u64 {
            f.insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d));
        }
        let mut fp = 0;
        let probes = 10_000u64;
        for k in 0..probes {
            if f.may_contain(k.wrapping_mul(0x9e3779b97f4a7c15) | 1 << 63) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.02, "false-positive rate {rate}");
        assert!(f.expected_fp_rate() < 0.02);
    }

    #[test]
    fn duplicate_insertions_do_not_inflate_the_estimate() {
        // A threadlet hammering one granule must look like one key, not a
        // thousand: the load estimate (and with it expected_fp_rate) stays
        // flat across re-insertions.
        let mut f = BloomFilter::new(4096, 4);
        f.insert(42);
        let (n1, fp1) = (f.inserted(), f.expected_fp_rate());
        for _ in 0..1000 {
            f.insert(42);
        }
        assert_eq!(f.inserted(), n1, "duplicate keys must not count");
        assert_eq!(f.expected_fp_rate(), fp1, "estimate must stay flat");
        assert_eq!(n1, 1);
        // A different key still counts.
        f.insert(43);
        assert_eq!(f.inserted(), 2);
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(256, 2);
        f.insert(42);
        assert!(f.may_contain(42));
        f.clear();
        assert!(!f.may_contain(42));
        assert_eq!(f.inserted(), 0);
    }

    #[test]
    fn bloom_detector_matches_exact_on_true_conflicts() {
        let mut bd = BloomConflictDetector::new(4, 4096, 4);
        bd.on_read(2, &[100]);
        assert_eq!(bd.on_write(0, &[100], &[1, 2, 3]), Some(2));
        assert_eq!(bd.false_positive_squashes(), 0);
    }

    #[test]
    fn bloom_detector_own_write_masks_read() {
        let mut bd = BloomConflictDetector::new(2, 4096, 4);
        assert_eq!(bd.on_write(1, &[7], &[]), None);
        bd.on_read(1, &[7]);
        assert_eq!(bd.on_write(0, &[7], &[1]), None, "forwarded from slot 1's own write");
    }

    /// One step of a random conflict-detector stream.
    #[derive(Debug, Clone)]
    enum Op {
        Read(usize, Vec<u64>),
        /// A write checked against every younger slot.
        Write(usize, Vec<u64>),
        Clear(usize),
        /// The coherence interface's queries of one slot's sets.
        Query(usize, u64),
    }

    impl Op {
        fn slot(&self) -> usize {
            match *self {
                Op::Read(slot, _) | Op::Write(slot, _) | Op::Clear(slot) | Op::Query(slot, _) => {
                    slot
                }
            }
        }
    }

    /// One membership test: a slot's write set (`true`) or read set.
    type Test = (bool, usize, u64);

    /// Up to 80 steps over `contexts` slots and `universe` granules; an
    /// access covers one to three consecutive granules.
    fn random_stream(rng: &mut lf_stats::rng::SmallRng, contexts: usize, universe: u64) -> Vec<Op> {
        let steps = rng.random_range(1..=80usize);
        (0..steps)
            .map(|_| {
                let slot = rng.random_range(0..contexts);
                let first = rng.random_range(0..universe);
                let granules = (first..first + rng.random_range(1..=3u64)).collect();
                match rng.random_range(0..20u32) {
                    0..=6 => Op::Read(slot, granules),
                    7..=13 => Op::Write(slot, granules),
                    14..=15 => Op::Clear(slot),
                    _ => Op::Query(slot, first),
                }
            })
            .collect()
    }

    /// The membership tests `op` makes on sets that answer as `exact`
    /// does. The write walk is Algorithm 1's: read tests of each younger
    /// slot until one hits, then that slot's prune of the frontier.
    fn tests_of(op: &Op, exact: &ConflictDetector, contexts: usize) -> Vec<Test> {
        match op {
            Op::Read(slot, granules) => granules.iter().map(|&g| (true, *slot, g)).collect(),
            Op::Write(slot, granules) => {
                let mut tests = Vec::new();
                let mut fwd = granules.clone();
                for t in slot + 1..contexts {
                    if fwd.is_empty() {
                        break;
                    }
                    for &g in &fwd {
                        tests.push((false, t, g));
                        if exact.has_read(t, g) {
                            return tests;
                        }
                    }
                    tests.extend(fwd.iter().map(|&g| (true, t, g)));
                    fwd.retain(|&g| !exact.has_written(t, g));
                }
                tests
            }
            Op::Clear(_) => Vec::new(),
            Op::Query(slot, g) => vec![(true, *slot, *g), (false, *slot, *g)],
        }
    }

    /// A shadow diverges exactly at the first step in which a membership
    /// test a real `BloomConflictDetector` of its geometry makes on the same
    /// stream answers otherwise than the exact sets: `on_read`'s mask,
    /// `on_write`'s read tests and prune, or a coherence query. Until then
    /// the real detector holds the shadow's filters and returns the exact
    /// detector's verdicts, probe count and query answers, with no false
    /// positive. A diverged step is not fed to the real detector: its
    /// "never miss a true conflict" assertion does not hold past one.
    #[test]
    fn shadow_diverges_exactly_at_the_first_differing_answer() {
        let mut rng = lf_stats::rng::SmallRng::seed_from_u64(0xb100_5ad0);
        let geometries = [(64, 1), (64, 2), (128, 1), (256, 2), (1024, 4), (4096, 4)];
        let (mut held, mut diverged, mut by_read, mut by_query) = (0, 0, 0, 0);
        for case in 0..600 {
            let contexts = rng.random_range(2..=4usize);
            let (bits, hashes) = geometries[case % geometries.len()];
            let universe = [16, 256, 4096][rng.random_range(0..3usize)];
            let ops = random_stream(&mut rng, contexts, universe);
            let shadow = BloomShadow::new(contexts, (bits, hashes));
            let mut sets = ConflictSets::Shadowed(ConflictDetector::new(contexts), vec![shadow]);
            let mut bloom = BloomConflictDetector::new(contexts, bits, hashes);
            let mut whole = true;
            for (k, op) in ops.iter().enumerate() {
                let what = format!("case {case}, {bits}/{hashes}, step {k}: {op:?}");
                let ConflictSets::Shadowed(exact, _) = &sets else { unreachable!() };
                let differs = tests_of(op, exact, contexts).into_iter().any(|(wr, t, g)| {
                    let (filter, exact) = if wr {
                        (bloom.may_have_written(t, g), exact.has_written(t, g))
                    } else {
                        (bloom.may_have_read(t, g), exact.has_read(t, g))
                    };
                    filter != exact
                });
                let probes = (sets.probes(), bloom.probes());
                let younger: Vec<usize> = (op.slot() + 1..contexts).collect();
                let (mut verdict, mut answers) = (None, None);
                match op {
                    Op::Read(slot, granules) => sets.on_read(*slot, granules),
                    Op::Write(slot, granules) => {
                        verdict = Some(sets.on_write(*slot, granules, &younger));
                    }
                    Op::Clear(slot) => sets.clear(*slot),
                    Op::Query(slot, g) => answers = Some(sets.query(*slot, *g)),
                }
                let ConflictSets::Shadowed(_, shadows) = &sets else { unreachable!() };
                assert_eq!(shadows[0].diverged(), differs, "{what}");
                if differs {
                    diverged += 1;
                    by_read += usize::from(matches!(op, Op::Read(..)));
                    by_query += usize::from(matches!(op, Op::Query(..)));
                    whole = false;
                    break;
                }
                match op {
                    Op::Read(slot, granules) => bloom.on_read(*slot, granules),
                    Op::Write(slot, granules) => {
                        assert_eq!(
                            verdict,
                            Some(bloom.on_write(*slot, granules, &younger)),
                            "{what}"
                        );
                    }
                    Op::Clear(slot) => bloom.clear(*slot),
                    Op::Query(slot, g) => {
                        let want =
                            (bloom.may_have_written(*slot, *g), bloom.may_have_read(*slot, *g));
                        assert_eq!(answers, Some(want), "{what}");
                    }
                }
                assert_eq!(sets.probes() - probes.0, bloom.probes() - probes.1, "{what}");
                assert_eq!(bloom.false_positive_squashes(), 0, "{what}");
                let filters =
                    |f: &[BloomFilter]| f.iter().map(|f| f.bits.clone()).collect::<Vec<_>>();
                assert_eq!(filters(&shadows[0].rd), filters(&bloom.rd), "{what}");
                assert_eq!(filters(&shadows[0].wr), filters(&bloom.wr), "{what}");
            }
            held += usize::from(whole);
        }
        // Both outcomes occur, and the mask and coherence tests each end
        // some streams on their own.
        assert!(held > 100 && diverged > 100, "{held} held, {diverged} diverged");
        assert!(by_read > 10 && by_query > 10, "{by_read} at a read, {by_query} at a query");
    }

    /// The masking false negative: slot 1's write of granule 1000 aliases
    /// granule 43 in a 64-bit, 1-hash write filter, so filters skip slot
    /// 1's read of 43, and slot 0's write of 43 would miss the conflict the
    /// exact sets report. The shadow diverges at the read.
    #[test]
    fn a_masking_alias_diverges_the_shadow_at_the_read() {
        let shadow = BloomShadow::new(2, (64, 1));
        let mut sets = ConflictSets::Shadowed(ConflictDetector::new(2), vec![shadow]);
        assert_eq!(sets.on_write(1, &[1000], &[]), None);
        sets.on_read(1, &[43]);
        assert_eq!(sets.undiverged_filters(), vec![], "the mask test answered otherwise");
        assert_eq!(sets.on_write(0, &[43], &[1]), Some(1), "the exact sets see the conflict");
        let mut bloom = BloomConflictDetector::new(2, 64, 1);
        bloom.on_write(1, &[1000], &[]);
        assert!(bloom.may_have_written(1, 43), "1000 and 43 share the filter bit");
    }

    #[test]
    fn saturation_raises_fp_rate() {
        let mut f = BloomFilter::new(256, 4);
        for k in 0..512u64 {
            f.insert(k);
        }
        assert!(f.expected_fp_rate() > 0.5, "saturated filter");
    }
}

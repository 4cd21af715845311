//! Cache and memory hierarchy timing model.
//!
//! Tag-only set-associative caches with LRU replacement, MSHR-limited miss
//! handling, a serialized DRAM channel, and stride prefetchers, matching the
//! memory system of Table 1. The hierarchy models *timing only*: data always
//! lives in the architectural [`lf_isa::Memory`] image (or the SSB for
//! speculative threadlets).

use crate::config::{CacheConfig, MemConfig};
use crate::prefetch::StridePrefetcher;
use lf_stats::Counters;
use std::collections::HashMap;

/// One way of a set: 16 bytes, so an 8-way set scan reads 128 B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    /// The line address plus one; 0 marks an invalid way. A line address
    /// is a byte address divided by the line size, so it never reaches
    /// `u64::MAX` for lines of two bytes or more.
    key: u64,
    last_used: u64,
}

impl Line {
    const INVALID: Line = Line { key: 0, last_used: 0 };

    fn holds(&self, line_addr: u64) -> bool {
        self.key == line_addr + 1
    }

    fn is_valid(&self) -> bool {
        self.key != 0
    }
}

/// A tag-only set-associative cache with LRU replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every set's ways, set after set (`num_sets * cfg.ways` lines).
    lines: Vec<Line>,
    num_sets: usize,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not describe at least one set.
    pub fn new(cfg: CacheConfig) -> Cache {
        let num_sets = cfg.size / (cfg.ways * cfg.line);
        assert!(num_sets >= 1, "cache too small for its geometry");
        Cache {
            cfg,
            lines: vec![Line::INVALID; num_sets * cfg.ways],
            num_sets,
            accesses: 0,
            misses: 0,
        }
    }

    /// The line address (address divided by line size) of a byte address.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr / self.cfg.line as u64
    }

    /// The ways of the set `line_addr` maps to, as a range of `lines`.
    fn set_of(&self, line_addr: u64) -> std::ops::Range<usize> {
        let start = (line_addr % self.num_sets as u64) as usize * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// Looks up `line_addr`, updating LRU on hit. Returns whether it hit.
    pub fn access(&mut self, line_addr: u64, now: u64) -> bool {
        self.accesses += 1;
        let set = self.set_of(line_addr);
        for l in &mut self.lines[set] {
            if l.holds(line_addr) {
                l.last_used = now;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Checks residency without updating LRU or statistics.
    pub fn probe(&self, line_addr: u64) -> bool {
        self.lines[self.set_of(line_addr)].iter().any(|l| l.holds(line_addr))
    }

    /// Fills `line_addr`, evicting the LRU way. Returns the evicted line
    /// address, if a valid line was displaced.
    pub fn fill(&mut self, line_addr: u64, now: u64) -> Option<u64> {
        if self.probe(line_addr) {
            return None; // already resident (racing fills)
        }
        let set = self.set_of(line_addr);
        // Invalid ways first, then the least recently used; the first way
        // on a tie.
        let victim = self.lines[set]
            .iter_mut()
            .min_by_key(|l| if l.is_valid() { l.last_used + 1 } else { 0 })
            .expect("at least one way");
        let evicted = victim.is_valid().then(|| victim.key - 1);
        *victim = Line { key: line_addr + 1, last_used: now };
        evicted
    }

    /// Warm-installs `line_addr` without touching access/miss statistics:
    /// fills the line if absent, or refreshes its LRU stamp if already
    /// resident. Used by checkpoint restore to replay a functional-warming
    /// access stream into the tags — the stream establishes *state*
    /// (residency and recency), never *events*, so the measured window's
    /// hit/miss counts start from zero.
    pub fn warm_fill(&mut self, line_addr: u64, now: u64) {
        let set = self.set_of(line_addr);
        for l in &mut self.lines[set] {
            if l.holds(line_addr) {
                l.last_used = now;
                return;
            }
        }
        self.fill(line_addr, now);
    }

    /// Invalidates `line_addr` if resident.
    pub fn invalidate(&mut self, line_addr: u64) {
        let set = self.set_of(line_addr);
        for l in &mut self.lines[set] {
            if l.holds(line_addr) {
                *l = Line::INVALID;
            }
        }
    }

    /// (accesses, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }

    /// The valid ways, by index into the tag array.
    fn valid_lines(&self) -> Vec<(u32, Line)> {
        let index = |i: usize| u32::try_from(i).expect("a cache has under 2^32 ways");
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_valid())
            .map(|(i, l)| (index(i), *l))
            .collect()
    }
}

/// Miss-status holding registers: a bounded set of outstanding line misses.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Mshr {
    capacity: usize,
    outstanding: HashMap<u64, u64>, // line -> ready cycle
}

impl Mshr {
    fn new(capacity: usize) -> Mshr {
        Mshr { capacity, outstanding: HashMap::new() }
    }

    fn sweep(&mut self, now: u64) {
        self.outstanding.retain(|_, ready| *ready > now);
    }

    /// If the line has an in-flight miss (ready in the future), returns its
    /// ready cycle so the new request merges into it.
    fn merge(&self, line: u64, now: u64) -> Option<u64> {
        self.outstanding.get(&line).copied().filter(|&r| r > now)
    }

    /// Allocates an entry; if full, returns the earliest cycle at which one
    /// frees so the caller can serialize behind it.
    fn alloc(&mut self, line: u64, ready: u64, now: u64) -> Result<(), u64> {
        self.sweep(now);
        if self.outstanding.len() < self.capacity {
            self.outstanding.insert(line, ready);
            Ok(())
        } else {
            Err(self.outstanding.values().copied().min().unwrap_or(now + 1))
        }
    }
}

/// Kinds of memory-system requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I path).
    Fetch,
    /// Data load.
    Load,
    /// Data store (write-allocate).
    Store,
    /// Hardware prefetch (does not recursively prefetch).
    Prefetch,
}

/// The three-level memory hierarchy timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct MemHierarchy {
    cfg: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l1i_mshr: Mshr,
    l1d_mshr: Mshr,
    l2_mshr: Mshr,
    l1d_pref: StridePrefetcher,
    l2_pref: StridePrefetcher,
    dram_busy_until: u64,
    events: Events,
}

/// The hierarchy's event counts. The access paths bump these integers;
/// [`MemHierarchy::counters`] names them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Events {
    dram_accesses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    l2_neighbor_prefetches: u64,
    l2_prefetches: u64,
    l1d_mshr_full: u64,
    l1d_prefetches: u64,
}

/// What functional warming leaves in a fresh [`MemHierarchy`]: each
/// cache's valid ways, kept sparsely by index (a warmed 4 MiB L2 holds a
/// few thousand of its 65,536 lines at most), and both stride prefetchers.
/// Warming touches nothing else: no counter, MSHR or DRAM timing.
#[derive(Debug)]
pub struct HierarchySnapshot {
    cfg: MemConfig,
    /// L1I, L1D and L2.
    caches: [Vec<(u32, Line)>; 3],
    l1d_pref: StridePrefetcher,
    l2_pref: StridePrefetcher,
}

/// Cycles one DRAM line transfer occupies the channel (64 B at 25 B/cycle).
const DRAM_OCCUPANCY: u64 = 3;

impl MemHierarchy {
    /// Creates the hierarchy from its configuration.
    pub fn new(cfg: MemConfig) -> MemHierarchy {
        MemHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l1i_mshr: Mshr::new(cfg.l1i.mshrs),
            l1d_mshr: Mshr::new(cfg.l1d.mshrs),
            l2_mshr: Mshr::new(cfg.l2.mshrs),
            l1d_pref: StridePrefetcher::new(64, cfg.l1d_prefetch_degree),
            l2_pref: StridePrefetcher::new(128, cfg.l2_prefetch_degree),
            dram_busy_until: 0,
            events: Events::default(),
            cfg,
        }
    }

    /// Event counters (l2_accesses, l2_misses, prefetches, …), built on
    /// demand. A counter is present only once it is non-zero.
    pub fn counters(&self) -> Counters {
        let e = &self.events;
        let mut c = Counters::new();
        for (name, n) in [
            ("dram_accesses", e.dram_accesses),
            ("l2_accesses", e.l2_accesses),
            ("l2_misses", e.l2_misses),
            ("l2_neighbor_prefetches", e.l2_neighbor_prefetches),
            ("l2_prefetches", e.l2_prefetches),
            ("l1d_mshr_full", e.l1d_mshr_full),
            ("l1d_prefetches", e.l1d_prefetches),
        ] {
            if n > 0 {
                c.add(name, n);
            }
        }
        c
    }

    /// L1I/L1D/L2 (accesses, misses).
    pub fn cache_stats(&self) -> [(u64, u64); 3] {
        [self.l1i.stats(), self.l1d.stats(), self.l2.stats()]
    }

    fn dram_access(&mut self, start: u64) -> u64 {
        let begin = start.max(self.dram_busy_until);
        self.dram_busy_until = begin + DRAM_OCCUPANCY;
        self.events.dram_accesses += 1;
        begin + self.cfg.dram_latency
    }

    /// Accesses the L2 (and DRAM below it) for `line` (in L1-line units),
    /// returning the cycle the line is available to the L1.
    fn access_l2(&mut self, pc: u64, line: u64, start: u64, kind: AccessKind) -> u64 {
        self.events.l2_accesses += 1;
        let hit = self.l2.access(line, start);
        let ready = if hit {
            // A resident tag may still have its data in flight.
            let base = start + self.cfg.l2.hit_latency;
            self.l2_mshr.merge(line, start).map_or(base, |r| r.max(base))
        } else {
            self.events.l2_misses += 1;
            if let Some(r) = self.l2_mshr.merge(line, start) {
                r
            } else {
                let mut begin = start + self.cfg.l2.hit_latency;
                if let Err(free_at) = self.l2_mshr.alloc(line, 0, start) {
                    begin = begin.max(free_at);
                }
                let ready = self.dram_access(begin);
                // Record the true ready time for subsequent merges.
                let _ = self.l2_mshr.alloc(line, ready, start);
                self.l2.fill(line, ready);
                // Neighbor prefetcher (Table 1): pull in the next line on a
                // demand miss; order-insensitive, so threadlet interleaving
                // cannot defeat it.
                if kind != AccessKind::Prefetch && self.cfg.l2_prefetch_degree > 0 {
                    let nb = line + 1;
                    if !self.l2.probe(nb) && self.l2_mshr.merge(nb, start).is_none() {
                        self.events.l2_neighbor_prefetches += 1;
                        let r = self.dram_access(ready);
                        self.l2.fill(nb, r);
                    }
                }
                ready
            }
        };
        // L2 stride prefetcher trains on demand L2 traffic.
        if kind != AccessKind::Prefetch {
            for p in self.l2_pref.train(pc, line) {
                if !self.l2.probe(p) {
                    self.events.l2_prefetches += 1;
                    let begin = ready.max(self.dram_busy_until);
                    self.dram_busy_until = begin + DRAM_OCCUPANCY;
                    self.l2.fill(p, begin + self.cfg.dram_latency);
                }
            }
        }
        ready
    }

    /// Performs a data access and returns the cycle its data (or write
    /// acknowledgement) is ready.
    pub fn access_data(&mut self, pc: u64, addr: u64, kind: AccessKind, now: u64) -> u64 {
        let line = self.l1d.line_addr(addr);
        let hit = self.l1d.access(line, now);
        let ready = if hit {
            let base = now + self.cfg.l1d.hit_latency;
            self.l1d_mshr.merge(line, now).map_or(base, |r| r.max(base))
        } else if let Some(r) = self.l1d_mshr.merge(line, now) {
            r.max(now + self.cfg.l1d.hit_latency)
        } else {
            let mut start = now + self.cfg.l1d.hit_latency;
            if let Err(free_at) = self.l1d_mshr.alloc(line, 0, now) {
                self.events.l1d_mshr_full += 1;
                start = start.max(free_at);
            }
            let ready = self.access_l2(pc, line, start, kind);
            let _ = self.l1d_mshr.alloc(line, ready, now);
            self.l1d.fill(line, ready);
            ready
        };
        if kind != AccessKind::Prefetch {
            for p in self.l1d_pref.train(pc, line) {
                if !self.l1d.probe(p) {
                    self.events.l1d_prefetches += 1;
                    let r = self.access_l2(pc, p, ready, AccessKind::Prefetch);
                    self.l1d.fill(p, r);
                }
            }
        }
        ready
    }

    /// Warm-installs the data line containing `addr` from a recorded
    /// functional-warming event: fills (or LRU-touches) the L1D and L2
    /// tags and trains the stride prefetchers, warm-installing their
    /// predictions too. `seq` is the event's position in the recorded
    /// stream, used as the LRU clock so recency survives the replay.
    /// No counters, MSHRs, or DRAM timing are touched — warming
    /// establishes state, not events.
    pub fn warm_data(&mut self, pc: u64, addr: u64, seq: u64) {
        let line = self.l1d.line_addr(addr);
        self.l1d.warm_fill(line, seq);
        self.l2.warm_fill(line, seq);
        for p in self.l1d_pref.train(pc, line) {
            self.l1d.warm_fill(p, seq);
            self.l2.warm_fill(p, seq);
        }
        for p in self.l2_pref.train(pc, line) {
            self.l2.warm_fill(p, seq);
        }
    }

    /// Warm-installs the instruction line containing byte address `addr`
    /// from a recorded fetch event (L1I and L2 tags; see
    /// [`MemHierarchy::warm_data`] for the replay contract).
    pub fn warm_inst(&mut self, addr: u64, seq: u64) {
        let line = self.l1i.line_addr(addr);
        self.l1i.warm_fill(line, seq);
        self.l2.warm_fill(line, seq);
    }

    /// The state warming ([`MemHierarchy::warm_data`],
    /// [`MemHierarchy::warm_inst`]) has added to this hierarchy since
    /// [`MemHierarchy::new`]. Take it before any timed access: the
    /// snapshot holds tags and prefetchers only.
    pub fn snapshot(&self) -> HierarchySnapshot {
        debug_assert!(
            self.events == Events::default()
                && self.cache_stats() == [(0, 0); 3]
                && self.dram_busy_until == 0,
            "a snapshot is taken of a hierarchy that has only been warmed"
        );
        HierarchySnapshot {
            cfg: self.cfg.clone(),
            caches: [self.l1i.valid_lines(), self.l1d.valid_lines(), self.l2.valid_lines()],
            l1d_pref: self.l1d_pref.clone(),
            l2_pref: self.l2_pref.clone(),
        }
    }

    /// Installs `snap` into this hierarchy, fresh from
    /// [`MemHierarchy::new`], leaving it equal to the hierarchy the
    /// snapshot was taken of.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken under another configuration.
    pub fn install(&mut self, snap: &HierarchySnapshot) {
        assert_eq!(self.cfg, snap.cfg, "a snapshot installs into its own configuration");
        for (cache, lines) in
            [&mut self.l1i, &mut self.l1d, &mut self.l2].into_iter().zip(&snap.caches)
        {
            for &(i, line) in lines {
                cache.lines[i as usize] = line;
            }
        }
        self.l1d_pref.clone_from(&snap.l1d_pref);
        self.l2_pref.clone_from(&snap.l2_pref);
    }

    /// Performs an instruction fetch of the line containing byte address
    /// `addr` and returns its ready cycle.
    pub fn access_inst(&mut self, addr: u64, now: u64) -> u64 {
        let line = self.l1i.line_addr(addr);
        if self.l1i.access(line, now) {
            let base = now + self.cfg.l1i.hit_latency;
            return self.l1i_mshr.merge(line, now).map_or(base, |r| r.max(base));
        }
        if let Some(r) = self.l1i_mshr.merge(line, now) {
            return r.max(now + self.cfg.l1i.hit_latency);
        }
        let mut start = now + self.cfg.l1i.hit_latency;
        if let Err(free_at) = self.l1i_mshr.alloc(line, 0, now) {
            start = start.max(free_at);
        }
        let ready = self.access_l2(addr, line, start, AccessKind::Fetch);
        let _ = self.l1i_mshr.alloc(line, ready, now);
        self.l1i.fill(line, ready);
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mem() -> MemHierarchy {
        MemHierarchy::new(MemConfig {
            l1i: CacheConfig { size: 1024, ways: 2, line: 64, hit_latency: 1, mshrs: 4 },
            l1d: CacheConfig { size: 1024, ways: 2, line: 64, hit_latency: 2, mshrs: 2 },
            l2: CacheConfig { size: 8192, ways: 4, line: 64, hit_latency: 11, mshrs: 4 },
            dram_latency: 100,
            l1d_prefetch_degree: 0,
            l2_prefetch_degree: 0,
        })
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c =
            Cache::new(CacheConfig { size: 256, ways: 2, line: 64, hit_latency: 1, mshrs: 1 });
        // 2 sets x 2 ways. Lines 0, 2, 4 all map to set 0.
        c.fill(0, 1);
        c.fill(2, 2);
        assert!(c.probe(0) && c.probe(2));
        c.access(0, 3); // 0 most recent; 2 is LRU
        let evicted = c.fill(4, 4);
        assert_eq!(evicted, Some(2));
        assert!(c.probe(0) && c.probe(4) && !c.probe(2));
    }

    #[test]
    fn hit_after_miss_and_fill() {
        let mut m = small_mem();
        let t0 = m.access_data(0, 0x1000, AccessKind::Load, 0);
        assert!(t0 >= 100, "cold miss goes to DRAM: {t0}");
        let t1 = m.access_data(0, 0x1008, AccessKind::Load, t0);
        assert_eq!(t1, t0 + 2, "same line now hits in L1D");
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut m = small_mem();
        let t0 = m.access_data(0, 0x2000, AccessKind::Load, 0);
        let t1 = m.access_data(0, 0x2010, AccessKind::Load, 1);
        assert_eq!(t1, t0, "second miss to the same line merges into the MSHR");
    }

    #[test]
    fn mshr_pressure_serializes() {
        let mut m = small_mem();
        // 3 distinct lines with 2 L1D MSHRs: the third must wait.
        let a = m.access_data(0, 0x0000, AccessKind::Load, 0);
        let b = m.access_data(0, 0x4000, AccessKind::Load, 0);
        let c = m.access_data(0, 0x8000, AccessKind::Load, 0);
        assert!(c > a.min(b), "third miss serialized behind an MSHR");
    }

    #[test]
    fn l2_hit_is_faster_than_dram() {
        let mut m = small_mem();
        let t0 = m.access_data(0, 0x3000, AccessKind::Load, 0);
        // Evict from tiny L1D by touching other sets... simpler: invalidate.
        m.l1d.invalidate(m.l1d.line_addr(0x3000));
        let t1 = m.access_data(0, 0x3000, AccessKind::Load, t0);
        assert!(t1 - t0 < 100, "L2 hit after L1 eviction: {}", t1 - t0);
        assert!(t1 - t0 >= 11);
    }

    #[test]
    fn prefetcher_counts_and_covers_strides() {
        let mut m = MemHierarchy::new(MemConfig { l1d_prefetch_degree: 2, ..MemConfig::default() });
        let mut now = 0;
        for i in 0..32u64 {
            now = m.access_data(0x10, 0x10000 + i * 64, AccessKind::Load, now);
        }
        assert!(m.counters().get("l1d_prefetches") > 0);
        // Steady-state accesses should mostly hit thanks to the prefetcher.
        let (acc, miss) = m.l1d.stats();
        assert!(miss * 3 < acc, "prefetcher should cover most of the stream: {miss}/{acc}");
    }

    #[test]
    fn warming_installs_state_without_events() {
        let mut m = small_mem();
        m.warm_data(0x10, 0x1000, 0);
        m.warm_data(0x10, 0x2000, 1);
        m.warm_inst(0x100, 2);
        // No statistics were recorded by warming.
        assert_eq!(m.cache_stats(), [(0, 0); 3]);
        assert_eq!(m.counters().get("dram_accesses"), 0);
        // But the warmed lines now hit at L1 latency.
        let t = m.access_data(0x10, 0x1000, AccessKind::Load, 10);
        assert_eq!(t, 12, "warmed data line hits in L1D");
        let ti = m.access_inst(0x100, 10);
        assert_eq!(ti, 11, "warmed inst line hits in L1I");
    }

    #[test]
    fn warm_fill_refreshes_lru() {
        let mut c =
            Cache::new(CacheConfig { size: 256, ways: 2, line: 64, hit_latency: 1, mshrs: 1 });
        // Lines 0, 2, 4 all map to set 0 (2 sets x 2 ways).
        c.warm_fill(0, 1);
        c.warm_fill(2, 2);
        c.warm_fill(0, 3); // refresh 0; 2 becomes LRU
        let evicted = c.fill(4, 4);
        assert_eq!(evicted, Some(2), "warm touch protected line 0");
        assert_eq!(c.stats(), (0, 0), "warming never counts");
    }

    #[test]
    fn victims_are_invalid_ways_then_lru_then_the_first_way() {
        assert_eq!(std::mem::size_of::<Line>(), 16);
        let mut c =
            Cache::new(CacheConfig { size: 256, ways: 2, line: 64, hit_latency: 1, mshrs: 1 });
        // Lines 0, 2, 4 and 6 all map to set 0 (2 sets x 2 ways).
        let ways = |c: &Cache| [c.lines[0], c.lines[1]].map(|l| l.is_valid().then(|| l.key - 1));
        c.fill(0, 5);
        assert_eq!(ways(&c), [Some(0), None], "the first of two invalid ways");
        c.fill(2, 5);
        assert_eq!(c.fill(4, 6), Some(0), "the first way on an LRU tie");
        assert_eq!(ways(&c), [Some(4), Some(2)]);
        c.invalidate(2);
        assert_eq!(c.fill(6, 3), None, "an invalid way before the LRU way");
        assert_eq!(ways(&c), [Some(4), Some(6)]);
    }

    /// A stream of functional-warming events from a few strided PCs, one
    /// random PC and the fetch side.
    fn warm_stream(m: &mut MemHierarchy) {
        let mut rng = lf_stats::SmallRng::seed_from_u64(7);
        for seq in 0..4_000u64 {
            let pc = rng.random_range(0..6u64) * 4;
            match pc {
                0 => m.warm_inst(rng.random_range(0..1u64 << 16), seq),
                4 => m.warm_data(pc, rng.random_range(0..1u64 << 24), seq),
                _ => m.warm_data(pc, (pc << 20) + seq * 64 * (pc / 4), seq),
            }
        }
    }

    /// A fresh hierarchy that installs a warmed one's snapshot equals it,
    /// under the default configuration and under a smaller L2 with other
    /// prefetch degrees, and the two then time accesses alike. The
    /// snapshot keeps only the valid lines.
    #[test]
    fn installed_snapshot_equals_the_warmed_hierarchy() {
        let small = MemConfig {
            l2: CacheConfig { size: 64 << 10, ways: 4, ..MemConfig::default().l2 },
            l1d_prefetch_degree: 1,
            l2_prefetch_degree: 3,
            ..MemConfig::default()
        };
        for cfg in [MemConfig::default(), small] {
            let mut warmed = MemHierarchy::new(cfg.clone());
            warm_stream(&mut warmed);
            let snap = warmed.snapshot();
            for (lines, cache) in snap.caches.iter().zip([&warmed.l1i, &warmed.l1d, &warmed.l2]) {
                let valid = cache.lines.iter().filter(|l| l.is_valid()).count();
                assert_eq!(lines.len(), valid, "the snapshot keeps the valid lines only");
            }
            let mut installed = MemHierarchy::new(cfg.clone());
            installed.install(&snap);
            assert!(installed == warmed, "{cfg:?}: installed differs from warmed");
            let mut now = 0;
            for i in 0..500u64 {
                let addr = (i * 0x1f40) % (1 << 22);
                let ready = warmed.access_data(8, addr, AccessKind::Load, now);
                assert_eq!(installed.access_data(8, addr, AccessKind::Load, now), ready);
                now = ready;
            }
            assert!(installed == warmed, "{cfg:?}: the two diverged");
        }
    }

    #[test]
    #[should_panic(expected = "a snapshot installs into its own configuration")]
    fn a_snapshot_installs_only_into_its_own_configuration() {
        let mut warmed = MemHierarchy::new(MemConfig::default());
        warm_stream(&mut warmed);
        let other = MemConfig { l2_prefetch_degree: 4, ..MemConfig::default() };
        MemHierarchy::new(other).install(&warmed.snapshot());
    }

    #[test]
    fn fetch_path_hits_l1i() {
        let mut m = small_mem();
        let t0 = m.access_inst(0x100, 0);
        let t1 = m.access_inst(0x104, t0);
        assert_eq!(t1, t0 + 1);
    }
}

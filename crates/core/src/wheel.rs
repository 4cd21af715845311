//! Calendar-queue (timing-wheel) completion schedule.
//!
//! The engine schedules every issued instruction's completion at an
//! absolute cycle and drains exactly one cycle's events per tick; a
//! skipped quiet span jumps the wheel over cycles with nothing due. A
//! `BTreeMap<u64, Vec<Uid>>` pays tree rebalancing and a fresh `Vec`
//! allocation per (cycle, first event); the wheel replaces it with a
//! power-of-two ring of reusable buckets indexed by `cycle & mask`, so
//! scheduling is a push onto a warm `Vec` and draining is a `Vec::append`
//! that hands the bucket's elements over while keeping its capacity.
//!
//! Events beyond the wheel horizon (long memory-system latencies) spill
//! into a `BTreeMap` overflow and are drained directly from it at their
//! cycle — they are never migrated into the ring. Per-cycle event order
//! is preserved exactly as the `BTreeMap` kept it: an overflow entry for
//! cycle `c` was necessarily scheduled strictly earlier than any ring
//! entry for `c` (the horizon only recedes as `now` advances), so
//! draining overflow first reproduces global insertion order.

use crate::arena::Uid;
use std::collections::BTreeMap;

/// Ring size in cycles. Covers every fixed pipeline latency and all but
/// the longest memory-system round trips; rarer events spill to the
/// overflow map. Must be a power of two.
const HORIZON: u64 = 512;

/// The completion schedule.
#[derive(Debug)]
pub(crate) struct CompletionWheel {
    buckets: Vec<Vec<Uid>>,
    /// Cycles at or beyond `now + HORIZON` when scheduled.
    overflow: BTreeMap<u64, Vec<Uid>>,
    /// All events strictly before `now` have been drained.
    now: u64,
    len: usize,
    overflow_hits: u64,
}

impl CompletionWheel {
    pub(crate) fn new() -> CompletionWheel {
        CompletionWheel {
            buckets: (0..HORIZON).map(|_| Vec::new()).collect(),
            overflow: BTreeMap::new(),
            now: 0,
            len: 0,
            overflow_hits: 0,
        }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Events that spilled past the ring horizon into the `BTreeMap`
    /// overflow (each one pays tree insertion instead of a bucket push).
    pub(crate) fn overflow_hits(&self) -> u64 {
        self.overflow_hits
    }

    /// Schedules `uid` to complete at absolute cycle `at`.
    ///
    /// `at` must not precede the last drained cycle (the engine always
    /// schedules at least one cycle ahead).
    pub(crate) fn schedule(&mut self, at: u64, uid: Uid) {
        debug_assert!(at >= self.now, "completion scheduled into the past ({at} < {})", self.now);
        if at - self.now < HORIZON {
            self.buckets[(at % HORIZON) as usize].push(uid);
        } else {
            self.overflow.entry(at).or_default().push(uid);
            self.overflow_hits += 1;
        }
        self.len += 1;
    }

    /// Appends every event due at `cycle` to `out`, in scheduling order,
    /// and advances the wheel. Must be called with non-decreasing cycles;
    /// the engine drains every cycle it ticks and jumps the others with
    /// [`CompletionWheel::advance_to`], which checks that nothing was due.
    pub(crate) fn drain_due(&mut self, cycle: u64, out: &mut Vec<Uid>) {
        debug_assert!(cycle >= self.now, "drain must move forward");
        while let Some(e) = self.overflow.first_entry() {
            debug_assert!(*e.key() >= cycle, "overflow event missed its cycle");
            if *e.key() != cycle {
                break;
            }
            let uids = e.remove();
            self.len -= uids.len();
            out.extend(uids);
        }
        let b = &mut self.buckets[(cycle % HORIZON) as usize];
        self.len -= b.len();
        out.append(b); // moves elements out, keeps the bucket's capacity
        self.now = cycle + 1;
    }

    /// The earliest cycle in `[from, limit)` with an event due, in the ring
    /// or the overflow map. `from` must be the next cycle to drain.
    pub(crate) fn next_due(&self, from: u64, limit: u64) -> Option<u64> {
        debug_assert_eq!(from, self.now, "next_due looks ahead from the next cycle to drain");
        if self.len() == 0 {
            return None;
        }
        // Overflow keys are at or after `now`; ring bucket `c % HORIZON`
        // holds exactly the events due at `c` for `c` in
        // `[now, now + HORIZON)`.
        let overflow = self.overflow.keys().next().copied().filter(|&c| c < limit);
        let ring_end = limit.min(from + HORIZON).min(overflow.unwrap_or(u64::MAX));
        (from..ring_end).find(|&c| !self.buckets[(c % HORIZON) as usize].is_empty()).or(overflow)
    }

    /// Jumps the wheel to `cycle` as if every cycle before it had been
    /// drained; the caller guarantees none of them had an event due.
    /// (Verify builds tick through the spans a skip would jump.)
    #[cfg_attr(feature = "verify", allow(dead_code))]
    pub(crate) fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.now, "the wheel only moves forward");
        debug_assert_eq!(
            self.next_due(self.now, cycle),
            None,
            "advance_to would skip an event due before cycle {cycle}"
        );
        self.now = cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::InstArena;
    use crate::dyninst::{DynInst, FetchedInst};

    fn uid(arena: &mut InstArena) -> Uid {
        let f = FetchedInst {
            pc: 0,
            inst: lf_isa::Inst::Nop,
            bp: None,
            pred_next: 1,
            pack_factor: 1,
            pack_predictions: Vec::new(),
            suppressed: false,
        };
        arena.insert(DynInst::new(0, &f))
    }

    #[test]
    fn near_events_complete_in_order() {
        let mut arena = InstArena::new();
        let mut w = CompletionWheel::new();
        let (a, b, c) = (uid(&mut arena), uid(&mut arena), uid(&mut arena));
        w.schedule(3, a);
        w.schedule(3, b);
        w.schedule(1, c);
        let mut out = Vec::new();
        w.drain_due(0, &mut out);
        assert!(out.is_empty());
        w.drain_due(1, &mut out);
        assert_eq!(out, vec![c]);
        out.clear();
        w.drain_due(2, &mut out);
        w.drain_due(3, &mut out);
        assert_eq!(out, vec![a, b], "same-cycle order is insertion order");
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn far_events_overflow_and_return() {
        let mut arena = InstArena::new();
        let mut w = CompletionWheel::new();
        let far = uid(&mut arena);
        let near = uid(&mut arena);
        w.schedule(HORIZON * 3 + 7, far);
        w.schedule(2, near);
        let mut out = Vec::new();
        for c in 0..=HORIZON * 3 + 7 {
            out.clear();
            w.drain_due(c, &mut out);
            match c {
                2 => assert_eq!(out, vec![near]),
                c if c == HORIZON * 3 + 7 => assert_eq!(out, vec![far]),
                _ => assert!(out.is_empty(), "unexpected event at cycle {c}"),
            }
        }
    }

    #[test]
    fn overflow_drains_before_ring_for_the_same_cycle() {
        let mut arena = InstArena::new();
        let mut w = CompletionWheel::new();
        let early = uid(&mut arena);
        let late = uid(&mut arena);
        let at = HORIZON + 10;
        // Scheduled while `at` is beyond the horizon: overflow.
        w.schedule(at, early);
        // Advance until `at` is inside the horizon, then schedule again:
        // ring. BTreeMap order would be [early, late]; so must ours.
        let mut out = Vec::new();
        for c in 0..=20 {
            w.drain_due(c, &mut out);
        }
        assert!(out.is_empty());
        w.schedule(at, late);
        for c in 21..=at {
            w.drain_due(c, &mut out);
        }
        assert_eq!(out, vec![early, late]);
    }

    /// Property test pinning the wheel to `BTreeMap<u64, Vec<Uid>>`
    /// semantics: a random schedule interleaved with cycle advancement —
    /// one cycle at a time, or a jump with `advance_to` over a stretch
    /// `next_due` reports empty — must drain identical uid sequences from
    /// both, and `next_due` must name the model's first key in range.
    #[test]
    fn randomized_against_btreemap() {
        let mut seed: u64 = 0xC0FF_EE00;
        let mut rnd = move |m: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let (mut jumps, mut overflow_found) = (0, 0);
        for trial in 0..30 {
            // Odd trials schedule rarely, leaving long empty stretches and
            // overflow events with nothing due before them.
            let sparse = trial % 2 == 1;
            let mut arena = InstArena::new();
            let mut wheel = CompletionWheel::new();
            let mut model: BTreeMap<u64, Vec<Uid>> = BTreeMap::new();
            let mut cycle = 0u64;
            while cycle < 3000 {
                // A burst of schedules at the current cycle, with a long
                // tail of latencies straddling the horizon.
                let burst = if sparse && rnd(32) != 0 { 0 } else { rnd(4) };
                for _ in 0..burst {
                    let latency = 1 + rnd(HORIZON * 2);
                    let u = uid(&mut arena);
                    wheel.schedule(cycle + latency, u);
                    model.entry(cycle + latency).or_default().push(u);
                }
                let mut got = Vec::new();
                wheel.drain_due(cycle, &mut got);
                let want = model.remove(&cycle).unwrap_or_default();
                assert_eq!(got, want, "drain order diverged from BTreeMap at cycle {cycle}");
                cycle += 1;

                let limit = cycle + 1 + rnd(HORIZON * 3);
                let due = wheel.next_due(cycle, limit);
                let want = model.range(cycle..limit).next().map(|(&c, _)| c);
                assert_eq!(due, want, "next_due({cycle}, {limit}) diverged from BTreeMap");
                if due.is_some_and(|c| c >= cycle + HORIZON) {
                    overflow_found += 1;
                }
                // Now and then jump to the next event (or the limit).
                if rnd(8) == 0 {
                    let to = due.unwrap_or(limit);
                    wheel.advance_to(to);
                    jumps += to - cycle;
                    cycle = to;
                }
            }
            assert_eq!(wheel.len(), model.values().map(Vec::len).sum::<usize>());
        }
        assert!(jumps > 10_000, "the walk jumps over empty stretches ({jumps} cycles)");
        assert!(overflow_found > 0, "next_due found overflow-map events");
    }
}

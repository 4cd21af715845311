//! Index-based generational arena for in-flight instruction state.
//!
//! The per-cycle hot path resolves instruction ids many times per cycle
//! (issue, writeback, commit, squash walks, LSQ scans). A `HashMap<Uid,
//! DynInst>` pays hashing and probing on every access and allocates on
//! growth; the arena replaces it with a direct `Vec` index plus a
//! generation check, so a lookup is one bounds check and one compare.
//!
//! A [`Uid`] is the pair (age sequence, slot index). The sequence is
//! globally monotonic — allocation order equals program order within a
//! threadlet, which the engine relies on for age comparisons (LSQ scans,
//! squash predicates, oldest-first issue). The sequence also doubles as
//! the slot's generation tag: each slot remembers the sequence of its
//! current occupant, so a stale `Uid` whose slot was recycled fails the
//! tag compare and resolves to `None` exactly like a missing map key.

use crate::dyninst::DynInst;
use std::fmt;

/// Identity of a dynamic instruction: a globally monotonic age sequence
/// plus the arena slot holding its state. Ordering, equality, and hashing
/// follow the sequence (slot is a tie-breaker that never fires: sequences
/// are unique).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Uid {
    seq: u64,
    slot: u32,
}

impl Uid {
    /// Placeholder carried by a `DynInst` before arena insertion assigns
    /// its real identity.
    pub(crate) const INVALID: Uid = Uid { seq: 0, slot: u32::MAX };

    /// The age sequence (program order within a threadlet; trace and
    /// artifact output renders this number).
    pub(crate) fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Debug for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.seq)
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.seq)
    }
}

#[derive(Debug)]
struct Slot {
    /// Sequence of the current occupant; 0 = free.
    seq: u64,
    d: Option<DynInst>,
}

/// The instruction slab: a free-list arena of [`DynInst`]s addressed by
/// [`Uid`]. Capacity is bounded by the in-flight window (ROB size), so
/// after warm-up no allocation happens on the hot path.
#[derive(Debug, Default)]
pub(crate) struct InstArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
    high_water: usize,
}

impl InstArena {
    pub(crate) fn new() -> InstArena {
        InstArena { slots: Vec::new(), free: Vec::new(), next_seq: 1, live: 0, high_water: 0 }
    }

    /// Number of live instructions.
    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Peak simultaneous live instructions over the arena's lifetime (the
    /// in-flight window the slab actually had to hold).
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Inserts `d`, assigning and returning its identity (also written to
    /// `d.uid`). Reuses a freed slot when available.
    pub(crate) fn insert(&mut self, mut d: DynInst) -> Uid {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot { seq: 0, d: None });
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let uid = Uid { seq, slot };
        d.uid = uid;
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.seq == 0 && s.d.is_none(), "free slot is empty");
        s.seq = seq;
        s.d = Some(d);
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        uid
    }

    /// Resolves `uid`, or `None` if it was removed (possibly recycled).
    #[inline]
    pub(crate) fn get(&self, uid: Uid) -> Option<&DynInst> {
        match self.slots.get(uid.slot as usize) {
            Some(s) if s.seq == uid.seq => s.d.as_ref(),
            _ => None,
        }
    }

    /// Mutable [`InstArena::get`].
    #[inline]
    pub(crate) fn get_mut(&mut self, uid: Uid) -> Option<&mut DynInst> {
        match self.slots.get_mut(uid.slot as usize) {
            Some(s) if s.seq == uid.seq => s.d.as_mut(),
            _ => None,
        }
    }

    /// Whether `uid` is live.
    #[inline]
    pub(crate) fn contains(&self, uid: Uid) -> bool {
        matches!(self.slots.get(uid.slot as usize), Some(s) if s.seq == uid.seq)
    }

    /// Removes and returns `uid`'s instruction, freeing its slot for
    /// reuse. Stale uids return `None`.
    pub(crate) fn remove(&mut self, uid: Uid) -> Option<DynInst> {
        self.free_slot(uid).and_then(Option::take)
    }

    /// Drops live `uid`'s instruction where it lies and frees its slot:
    /// cheaper than [`InstArena::remove`] once the caller has read it.
    pub(crate) fn discard(&mut self, uid: Uid) {
        *self.free_slot(uid).expect("discarding a live instruction") = None;
    }

    /// Frees `uid`'s slot for reuse and returns its contents, or `None` for
    /// a stale uid.
    fn free_slot(&mut self, uid: Uid) -> Option<&mut Option<DynInst>> {
        let s = self.slots.get_mut(uid.slot as usize).filter(|s| s.seq == uid.seq)?;
        s.seq = 0;
        debug_assert!(s.d.is_some(), "occupied slot holds an instruction");
        self.free.push(uid.slot);
        self.live -= 1;
        Some(&mut s.d)
    }
}

impl std::ops::Index<Uid> for InstArena {
    type Output = DynInst;

    #[inline]
    fn index(&self, uid: Uid) -> &DynInst {
        self.get(uid).unwrap_or_else(|| panic!("stale or removed uid {uid:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyninst::FetchedInst;
    use std::collections::HashMap;

    fn inst(pc: usize) -> DynInst {
        let f = FetchedInst {
            pc,
            inst: lf_isa::Inst::Nop,
            bp: None,
            pred_next: pc + 1,
            pack_factor: 1,
            pack_predictions: Vec::new(),
            suppressed: false,
        };
        DynInst::new(0, &f)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = InstArena::new();
        let u1 = a.insert(inst(10));
        let u2 = a.insert(inst(20));
        assert_eq!(a.len(), 2);
        assert_eq!(a[u1].pc, 10);
        assert_eq!(a[u2].pc, 20);
        assert_eq!(a[u1].uid, u1, "insert writes the identity back");
        let d = a.remove(u1).unwrap();
        assert_eq!(d.pc, 10);
        assert!(!a.contains(u1));
        assert!(a.get(u1).is_none());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn sequences_are_monotonic_and_order_uids() {
        let mut a = InstArena::new();
        let u1 = a.insert(inst(0));
        let u2 = a.insert(inst(1));
        a.remove(u1);
        // u3 reuses u1's slot but is younger than both predecessors.
        let u3 = a.insert(inst(2));
        assert!(u1 < u2 && u2 < u3);
        assert_eq!(u3.seq(), 3);
    }

    #[test]
    fn stale_uid_to_recycled_slot_misses() {
        let mut a = InstArena::new();
        let u1 = a.insert(inst(10));
        a.remove(u1);
        let u2 = a.insert(inst(20));
        // Same slot, different generation: the stale uid must not alias.
        assert!(a.get(u1).is_none());
        assert!(!a.contains(u1));
        assert!(a.remove(u1).is_none());
        assert_eq!(a[u2].pc, 20);
    }

    #[test]
    fn double_remove_is_none() {
        let mut a = InstArena::new();
        let u = a.insert(inst(1));
        assert!(a.remove(u).is_some());
        assert!(a.remove(u).is_none());
        assert_eq!(a.len(), 0);
    }

    /// Property test pinning the arena to `HashMap` slab semantics: a
    /// random insert/lookup/remove schedule must observe identical
    /// results from both (including stale-uid misses after removal).
    #[test]
    fn randomized_against_hashmap_slab() {
        let mut seed: u64 = 0x5EED_CAFE;
        let mut rnd = move |m: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for _trial in 0..50 {
            let mut arena = InstArena::new();
            let mut model: HashMap<u64, usize> = HashMap::new(); // seq -> pc
            let mut issued: Vec<Uid> = Vec::new(); // every uid ever issued
            for step in 0..400 {
                match rnd(3) {
                    0 => {
                        let pc = step as usize;
                        let uid = arena.insert(inst(pc));
                        assert!(model.insert(uid.seq(), pc).is_none(), "sequences unique");
                        issued.push(uid);
                    }
                    1 if !issued.is_empty() => {
                        let uid = issued[rnd(issued.len() as u64) as usize];
                        assert_eq!(
                            arena.get(uid).map(|d| d.pc),
                            model.get(&uid.seq()).copied(),
                            "lookup diverged from HashMap slab"
                        );
                        assert_eq!(arena.contains(uid), model.contains_key(&uid.seq()));
                    }
                    _ if !issued.is_empty() => {
                        let uid = issued[rnd(issued.len() as u64) as usize];
                        assert_eq!(
                            arena.remove(uid).map(|d| d.pc),
                            model.remove(&uid.seq()),
                            "remove diverged from HashMap slab"
                        );
                    }
                    _ => {}
                }
                assert_eq!(arena.len(), model.len());
            }
        }
    }
}

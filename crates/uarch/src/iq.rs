//! Out-of-order issue queue with physical-register wakeup.
//!
//! Entries wait until all source physical registers are ready, then issue
//! oldest-first subject to the caller's structural constraints (functional
//! units, cache ports). Instructions from all threadlets share the queue
//! (Table 1: "Dynamically shared: … 384-entry IQ").
//!
//! Select touches only entries that can issue: `insert` and `wakeup` feed an
//! age-ordered ready list, and `select` walks that list, never the
//! operand-waiting entries. An entry that cannot issue until another one
//! does (a load behind a store whose address is unknown) is *parked*: it
//! leaves the ready list but keeps its slot until an issuing entry releases
//! it.
//!
//! Like the hardware, the queue is a fixed table of `capacity` slots with a
//! free list, so nothing allocates once the waiter lists have grown. The
//! waiter, ready and parked lists name an entry by uid and slot; a record
//! whose slot holds another uid is stale (that entry left) and is skipped.

use crate::rename::{PhysReg, PhysRegFile};
use std::fmt::Debug;

#[derive(Debug, Clone)]
struct Entry<K> {
    uid: K,
    tid: usize,
    srcs: [Option<PhysReg>; 2],
    waiting: u8, // number of not-ready sources
}

/// A record of a queued entry: its uid and the slot that held it.
#[derive(Debug, Clone, Copy)]
struct SlotRef<K> {
    uid: K,
    slot: u32,
}

/// The caller's verdict on one entry offered by [`IssueQueue::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer<K> {
    /// The entry issues and leaves the queue.
    Accept,
    /// A structural hazard: the entry stays ready and is offered again on
    /// the next `select`.
    Reject,
    /// The entry cannot issue until released: it leaves the ready list but
    /// keeps its slot (`len` and `is_full` still count it).
    Park,
    /// The entry issues, and every parked entry of threadlet `tid` older
    /// than `below` (all of them when `None`) returns to the ready list.
    /// Released entries younger than the accepted one are offered in the
    /// same `select` pass.
    AcceptRelease {
        /// Threadlet whose parked entries are released.
        tid: usize,
        /// Exclusive upper bound on the released entries' ids.
        below: Option<K>,
    },
}

impl<K> From<bool> for Offer<K> {
    fn from(accept: bool) -> Offer<K> {
        if accept {
            Offer::Accept
        } else {
            Offer::Reject
        }
    }
}

/// The shared issue queue, keyed by the core's instruction-id type `K`
/// (age order must equal `Ord` order for oldest-first selection).
#[derive(Debug, Clone)]
pub struct IssueQueue<K: Copy + Ord + Debug = u64> {
    /// One slot per entry the queue can hold; `None` is free.
    slots: Vec<Option<Entry<K>>>,
    /// The free slots' indices.
    free: Vec<u32>,
    /// Consumers waiting on each physical register (indexed by `PhysReg.0`),
    /// in insertion order; records of squashed consumers stay until it
    /// wakes.
    waiters: Vec<Vec<SlotRef<K>>>,
    /// Operand-ready, unparked entries, oldest first.
    ready: Vec<SlotRef<K>>,
    /// Parked entries, oldest first.
    parked: Vec<SlotRef<K>>,
    /// `select` scratch: the ready list being rebuilt (swapped with `ready`).
    spare: Vec<SlotRef<K>>,
    /// `select` scratch: released entries the walk has yet to reach.
    released: Vec<SlotRef<K>>,
}

impl<K: Copy + Ord + Debug> IssueQueue<K> {
    /// Creates a queue holding up to `capacity` instructions. A zero
    /// capacity allocates nothing.
    pub fn new(capacity: usize) -> IssueQueue<K> {
        IssueQueue {
            slots: vec![None; capacity],
            free: (0..capacity as u32).rev().collect(),
            waiters: Vec::new(),
            ready: Vec::new(),
            parked: Vec::new(),
            spare: Vec::new(),
            released: Vec::new(),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any operand-ready, unparked entry waits for
    /// [`IssueQueue::select`].
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Whether the queue has no free slot.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// The parked entries as `(uid, tid)`, oldest first.
    pub fn parked(&self) -> impl Iterator<Item = (K, usize)> + '_ {
        self.parked.iter().map(|r| (r.uid, self.entry(*r).tid))
    }

    /// The queued entry `r` names.
    fn entry(&self, r: SlotRef<K>) -> &Entry<K> {
        self.slots[r.slot as usize].as_ref().expect("ready and parked entries are queued")
    }

    /// Frees slot `slot`.
    fn remove(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
        self.free.push(slot);
    }

    /// Inserts instruction `uid` of threadlet `tid` with its renamed source
    /// registers. Sources already ready in `prf` don't wait. Returns `false`
    /// (and inserts nothing) if the queue is full.
    ///
    /// `uid` must not already be in the queue: the slot table keeps no
    /// index by uid to check it, and the core's ids come fresh from a
    /// monotonic sequence.
    pub fn insert(
        &mut self,
        uid: K,
        tid: usize,
        srcs: [Option<PhysReg>; 2],
        prf: &PhysRegFile,
    ) -> bool {
        let Some(slot) = self.free.pop() else { return false };
        let r = SlotRef { uid, slot };
        let mut waiting = 0;
        for s in srcs.iter().flatten() {
            if !prf.is_ready(*s) {
                waiting += 1;
                let i = s.0 as usize;
                if i >= self.waiters.len() {
                    self.waiters.resize_with(i + 1, Vec::new);
                }
                self.waiters[i].push(r);
            }
        }
        debug_assert!(self.slots[slot as usize].is_none(), "free slot is empty");
        self.slots[slot as usize] = Some(Entry { uid, tid, srcs, waiting });
        if waiting == 0 {
            insert_sorted(&mut self.ready, r);
        }
        true
    }

    /// Wakes consumers of physical register `p` (its producer completed).
    pub fn wakeup(&mut self, p: PhysReg) {
        let Some(list) = self.waiters.get_mut(p.0 as usize) else { return };
        // Taken out for the walk and put back emptied, keeping its capacity.
        let mut refs = std::mem::take(list);
        for &r in &refs {
            // An entry may wait on `p` through both source slots, so it can
            // appear twice; the first visit clears both. A record whose slot
            // holds another uid is stale: its consumer left the queue.
            let slot = &mut self.slots[r.slot as usize];
            let Some(e) = slot.as_mut().filter(|e| e.uid == r.uid) else { continue };
            if e.waiting == 0 {
                continue;
            }
            let n = e.srcs.iter().flatten().filter(|s| **s == p).count() as u8;
            e.waiting -= n.clamp(1, e.waiting);
            if e.waiting == 0 {
                insert_sorted(&mut self.ready, r);
            }
        }
        refs.clear();
        self.waiters[p.0 as usize] = refs;
    }

    /// Walks the ready list oldest-first and offers each entry to `issue`,
    /// whose verdict (an [`Offer`], or `bool` for accept/reject) decides
    /// whether it leaves the queue, stays ready, or parks. Stops offering
    /// after `max` acceptances. Returns the number issued.
    pub fn select<R: Into<Offer<K>>>(
        &mut self,
        max: usize,
        mut issue: impl FnMut(K, usize) -> R,
    ) -> usize {
        let ready = std::mem::take(&mut self.ready);
        let mut kept = std::mem::take(&mut self.spare);
        // Entries released during this walk that it has yet to reach.
        let mut released = std::mem::take(&mut self.released);
        debug_assert!(kept.is_empty() && released.is_empty());
        let (mut i, mut j, mut n) = (0, 0, 0);
        loop {
            // Merge the ready list with the released entries, oldest first.
            let next = match (ready.get(i), released.get(j)) {
                (Some(&a), Some(&b)) if b.uid < a.uid => {
                    j += 1;
                    b
                }
                (Some(&a), _) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            if n >= max {
                kept.push(next);
                continue;
            }
            match issue(next.uid, self.entry(next).tid).into() {
                Offer::Accept => {
                    self.remove(next.slot);
                    n += 1;
                }
                Offer::Reject => kept.push(next),
                Offer::Park => insert_sorted(&mut self.parked, next),
                Offer::AcceptRelease { tid: owner, below } => {
                    self.remove(next.slot);
                    n += 1;
                    let slots = &self.slots;
                    self.parked.retain(|&p| {
                        let tid = slots[p.slot as usize].as_ref().expect("parked is queued").tid;
                        if tid != owner || below.is_some_and(|b| p.uid >= b) {
                            return true;
                        }
                        // Entries the walk already passed wait for the
                        // next select, exactly as a rejected offer would.
                        insert_sorted(if p.uid < next.uid { &mut kept } else { &mut released }, p);
                        false
                    });
                }
            }
        }
        self.ready = kept;
        self.spare = ready;
        self.spare.clear();
        released.clear();
        self.released = released;
        n
    }

    /// Removes every entry for which `pred(uid, tid)` holds (squash).
    pub fn squash(&mut self, pred: impl Fn(K, usize) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|e| pred(e.uid, e.tid)) {
                *slot = None;
                self.free.push(i as u32);
            }
        }
        // Every ready or parked record named a queued entry, so the ones
        // whose slot is now free are exactly the squashed ones.
        let slots = &self.slots;
        let queued =
            |r: &SlotRef<K>| slots[r.slot as usize].as_ref().is_some_and(|e| e.uid == r.uid);
        self.ready.retain(queued);
        self.parked.retain(queued);
    }
}

/// Inserts `item` into `list`, kept sorted by uid.
fn insert_sorted<K: Ord + Copy>(list: &mut Vec<SlotRef<K>>, item: SlotRef<K>) {
    let pos = list.partition_point(|e| e.uid < item.uid);
    list.insert(pos, item);
}

#[cfg(test)]
mod tests;

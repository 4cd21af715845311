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

use crate::rename::{PhysReg, PhysRegFile};
use std::collections::BTreeMap;
use std::fmt::Debug;

#[derive(Debug, Clone)]
struct Entry {
    tid: usize,
    srcs: [Option<PhysReg>; 2],
    waiting: u8, // number of not-ready sources
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
    capacity: usize,
    entries: BTreeMap<K, Entry>,
    /// Consumers waiting on each physical register (indexed by `PhysReg.0`),
    /// in insertion order; ids of squashed consumers stay until it wakes.
    waiters: Vec<Vec<K>>,
    /// Operand-ready, unparked entries as `(uid, tid)`, oldest first.
    ready: Vec<(K, usize)>,
    /// Parked entries as `(uid, tid)`, oldest first.
    parked: Vec<(K, usize)>,
    /// `select` scratch: the ready list being rebuilt (swapped with `ready`).
    spare: Vec<(K, usize)>,
}

impl<K: Copy + Ord + Debug> IssueQueue<K> {
    /// Creates a queue holding up to `capacity` instructions.
    pub fn new(capacity: usize) -> IssueQueue<K> {
        IssueQueue {
            capacity,
            entries: BTreeMap::new(),
            waiters: Vec::new(),
            ready: Vec::new(),
            parked: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue has no free slot.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The parked entries as `(uid, tid)`, oldest first.
    pub fn parked(&self) -> impl Iterator<Item = (K, usize)> + '_ {
        self.parked.iter().copied()
    }

    /// Inserts instruction `uid` of threadlet `tid` with its renamed source
    /// registers. Sources already ready in `prf` don't wait. Returns `false`
    /// (and inserts nothing) if the queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is already present.
    pub fn insert(
        &mut self,
        uid: K,
        tid: usize,
        srcs: [Option<PhysReg>; 2],
        prf: &PhysRegFile,
    ) -> bool {
        if self.is_full() {
            return false;
        }
        let mut waiting = 0;
        for s in srcs.iter().flatten() {
            if !prf.is_ready(*s) {
                waiting += 1;
                let i = s.0 as usize;
                if i >= self.waiters.len() {
                    self.waiters.resize_with(i + 1, Vec::new);
                }
                self.waiters[i].push(uid);
            }
        }
        let prev = self.entries.insert(uid, Entry { tid, srcs, waiting });
        assert!(prev.is_none(), "duplicate uid {uid:?} in issue queue");
        if waiting == 0 {
            insert_sorted(&mut self.ready, (uid, tid));
        }
        true
    }

    /// Wakes consumers of physical register `p` (its producer completed).
    pub fn wakeup(&mut self, p: PhysReg) {
        let Some(list) = self.waiters.get_mut(p.0 as usize) else { return };
        // Taken out for the walk and put back emptied, keeping its capacity.
        let mut uids = std::mem::take(list);
        for &uid in &uids {
            // An entry may wait on `p` through both source slots, so it can
            // appear twice; the first visit clears both.
            let Some(e) = self.entries.get_mut(&uid) else { continue };
            if e.waiting == 0 {
                continue;
            }
            let n = e.srcs.iter().flatten().filter(|s| **s == p).count() as u8;
            e.waiting -= n.clamp(1, e.waiting);
            if e.waiting == 0 {
                insert_sorted(&mut self.ready, (uid, e.tid));
            }
        }
        uids.clear();
        self.waiters[p.0 as usize] = uids;
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
        debug_assert!(kept.is_empty());
        // Entries released during this walk that it has yet to reach.
        let mut released: Vec<(K, usize)> = Vec::new();
        let (mut i, mut j, mut n) = (0, 0, 0);
        loop {
            // Merge the ready list with the released entries, oldest first.
            let next = match (ready.get(i), released.get(j)) {
                (Some(&a), Some(&b)) if b.0 < a.0 => {
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
            let (uid, tid) = next;
            match issue(uid, tid).into() {
                Offer::Accept => {
                    self.entries.remove(&uid);
                    n += 1;
                }
                Offer::Reject => kept.push(next),
                Offer::Park => insert_sorted(&mut self.parked, next),
                Offer::AcceptRelease { tid: owner, below } => {
                    self.entries.remove(&uid);
                    n += 1;
                    self.parked.retain(|&(p, t)| {
                        if t != owner || below.is_some_and(|b| p >= b) {
                            return true;
                        }
                        // Entries the walk already passed wait for the
                        // next select, exactly as a rejected offer would.
                        insert_sorted(if p < uid { &mut kept } else { &mut released }, (p, t));
                        false
                    });
                }
            }
        }
        self.ready = kept;
        self.spare = ready;
        self.spare.clear();
        n
    }

    /// Removes every entry for which `pred(uid, tid)` holds (squash).
    pub fn squash(&mut self, pred: impl Fn(K, usize) -> bool) {
        self.entries.retain(|&uid, e| !pred(uid, e.tid));
        self.ready.retain(|&(uid, tid)| !pred(uid, tid));
        self.parked.retain(|&(uid, tid)| !pred(uid, tid));
    }
}

/// Inserts `item` into `list`, kept sorted by id.
fn insert_sorted<K: Ord + Copy>(list: &mut Vec<(K, usize)>, item: (K, usize)) {
    let pos = list.partition_point(|e| e.0 < item.0);
    list.insert(pos, item);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prf_with(n: usize) -> PhysRegFile {
        PhysRegFile::new(n)
    }

    #[test]
    fn immediate_ready_issue() {
        let mut prf = prf_with(4);
        let a = prf.alloc_ready(1).unwrap();
        let mut iq = IssueQueue::new(8);
        assert!(iq.insert(1, 0, [Some(a), None], &prf));
        let mut got = Vec::new();
        iq.select(4, |uid, _| {
            got.push(uid);
            true
        });
        assert_eq!(got, vec![1]);
        assert!(iq.is_empty());
    }

    #[test]
    fn waits_for_wakeup() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap(); // not ready
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [Some(a), None], &prf);
        assert_eq!(iq.select(4, |_, _| true), 0);
        prf.write(a, 9);
        iq.wakeup(a);
        assert_eq!(iq.select(4, |_, _| true), 1);
    }

    #[test]
    fn oldest_first_selection_and_structural_reject() {
        let mut prf = prf_with(4);
        let a = prf.alloc_ready(0).unwrap();
        let mut iq = IssueQueue::new(8);
        iq.insert(5, 0, [Some(a), None], &prf);
        iq.insert(3, 1, [None, None], &prf);
        let mut order = Vec::new();
        iq.select(4, |uid, _| {
            order.push(uid);
            uid != 3 // reject 3 (structural hazard), accept 5
        });
        assert_eq!(order, vec![3, 5]);
        assert_eq!(iq.len(), 1, "rejected entry remains");
        assert_eq!(iq.select(4, |uid, _| uid == 3), 1);
    }

    #[test]
    fn squash_by_threadlet() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [None, None], &prf);
        iq.insert(2, 1, [None, None], &prf);
        iq.insert(3, 1, [None, None], &prf);
        iq.squash(|_, tid| tid == 1);
        assert_eq!(iq.len(), 1);
    }

    #[test]
    fn capacity_limit() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(2);
        assert!(iq.insert(1, 0, [None, None], &prf));
        assert!(iq.insert(2, 0, [None, None], &prf));
        assert!(!iq.insert(3, 0, [None, None], &prf));
        assert!(iq.is_full());
    }

    #[test]
    fn parked_entry_keeps_its_slot_until_released() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(3);
        iq.insert(1, 0, [None, None], &prf); // the barrier store
        iq.insert(2, 0, [None, None], &prf); // a load behind it
        iq.insert(3, 1, [None, None], &prf); // another threadlet's entry
        let mut order = Vec::new();
        iq.select(4, |uid, _| {
            order.push(uid);
            if uid == 2 {
                Offer::Park
            } else {
                Offer::Reject
            }
        });
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(iq.parked().collect::<Vec<_>>(), vec![(2, 0)]);
        assert!(iq.is_full(), "a parked entry still holds its slot");
        // The store issues and releases the load, which is offered in the
        // same pass.
        order.clear();
        let n = iq.select(4, |uid, _| {
            order.push(uid);
            match uid {
                1 => Offer::AcceptRelease { tid: 0, below: None },
                _ => Offer::Accept,
            }
        });
        assert_eq!((n, order), (3, vec![1, 2, 3]));
        assert!(iq.is_empty());
    }

    /// Scan-all reference model: every entry carries its unwoken sources
    /// and a parked flag, and `select` scans all entries in age order.
    #[derive(Default)]
    struct ScanAll {
        entries: BTreeMap<u64, (usize, Vec<PhysReg>, bool)>,
        capacity: usize,
    }

    impl ScanAll {
        fn insert(&mut self, uid: u64, tid: usize, srcs: [Option<PhysReg>; 2], prf: &PhysRegFile) {
            if self.entries.len() >= self.capacity {
                return;
            }
            let mut pending: Vec<PhysReg> =
                srcs.iter().flatten().copied().filter(|&s| !prf.is_ready(s)).collect();
            pending.dedup();
            self.entries.insert(uid, (tid, pending, false));
        }

        fn wakeup(&mut self, p: PhysReg) {
            for (_, pending, _) in self.entries.values_mut() {
                pending.retain(|&s| s != p);
            }
        }

        fn select(&mut self, max: usize, mut issue: impl FnMut(u64, usize) -> Offer<u64>) -> usize {
            let mut n = 0;
            let uids: Vec<u64> = self.entries.keys().copied().collect();
            for uid in uids {
                if n >= max {
                    break;
                }
                let Some(&(tid, ref pending, parked)) = self.entries.get(&uid) else { continue };
                if !pending.is_empty() || parked {
                    continue;
                }
                match issue(uid, tid) {
                    Offer::Accept => {}
                    Offer::Reject => continue,
                    Offer::Park => {
                        self.entries.get_mut(&uid).unwrap().2 = true;
                        continue;
                    }
                    Offer::AcceptRelease { tid: owner, below } => {
                        for (&u, e) in self.entries.iter_mut() {
                            if e.0 == owner && below.is_none_or(|b| u < b) {
                                e.2 = false;
                            }
                        }
                    }
                }
                self.entries.remove(&uid);
                n += 1;
            }
            n
        }

        fn squash(&mut self, pred: impl Fn(u64, usize) -> bool) {
            self.entries.retain(|&uid, e| !pred(uid, e.0));
        }
    }

    /// Property test pinning the ready list and parking to the scan-all
    /// model: random insert/wakeup/select/squash/release schedules with
    /// random verdicts must produce the same offer order, issued set and
    /// occupancy from both after every step. Registers come from a small
    /// file and are released once no live entry waits on them, so a
    /// recycled register's waiter list still holds the ids of squashed
    /// consumers when its new producer wakes it.
    #[test]
    fn randomized_against_scan_all_model() {
        use lf_stats::rng::SmallRng;
        const TIDS: usize = 3;
        let mut rng = SmallRng::seed_from_u64(0x1a_5e1ec7);
        for trial in 0..100u64 {
            let mut prf = prf_with(16);
            let mut iq: IssueQueue<u64> = IssueQueue::new(24);
            let mut model = ScanAll { capacity: 24, ..ScanAll::default() };
            let mut pending_regs: Vec<PhysReg> = Vec::new();
            let mut live_regs: Vec<PhysReg> = Vec::new();
            let mut used = std::collections::HashSet::new();
            for step in 0..400u64 {
                match rng.random_range(0..11u32) {
                    0..=3 => {
                        // Ids arrive in random order; none is ever reused.
                        let uid = loop {
                            let u = rng.random_range(0..100_000u64);
                            if used.insert(u) {
                                break u;
                            }
                        };
                        let mut src = || match rng.random_range(0..5u32) {
                            0..=2 => None,
                            3 if !pending_regs.is_empty() => {
                                Some(pending_regs[rng.random_range(0..pending_regs.len())])
                            }
                            _ => {
                                let p = prf.alloc()?;
                                pending_regs.push(p);
                                live_regs.push(p);
                                Some(p)
                            }
                        };
                        let srcs = [src(), src()];
                        let tid = rng.random_range(0..TIDS);
                        let full = iq.is_full();
                        assert_eq!(iq.insert(uid, tid, srcs, &prf), !full);
                        model.insert(uid, tid, srcs, &prf);
                    }
                    4..=5 if !pending_regs.is_empty() => {
                        let p = pending_regs.swap_remove(rng.random_range(0..pending_regs.len()));
                        prf.write(p, step);
                        iq.wakeup(p);
                        model.wakeup(p);
                    }
                    6..=8 => {
                        // The verdict is a pure function of (select, uid), so
                        // both sides see the same one for the same offer.
                        let salt = rng.next_u64();
                        let verdict = |uid: u64| {
                            let mut r = SmallRng::seed_from_u64(salt ^ uid);
                            match r.random_range(0..10u32) {
                                0 => Offer::Accept,
                                1..=3 => Offer::Reject,
                                4..=7 => Offer::Park,
                                _ => Offer::AcceptRelease {
                                    tid: r.random_range(0..TIDS),
                                    below: r.random_range(0..2u32).eq(&1).then(|| {
                                        uid.saturating_add_signed(r.random_range(-5_000..20_000i64))
                                    }),
                                },
                            }
                        };
                        let max = rng.random_range(1..16usize);
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        let (mut got_issued, mut want_issued) = (Vec::new(), Vec::new());
                        let n = iq.select(max, |uid, tid| {
                            got.push((uid, tid));
                            let v = verdict(uid);
                            if matches!(v, Offer::Accept | Offer::AcceptRelease { .. }) {
                                got_issued.push(uid);
                            }
                            v
                        });
                        let m = model.select(max, |uid, tid| {
                            want.push((uid, tid));
                            let v = verdict(uid);
                            if matches!(v, Offer::Accept | Offer::AcceptRelease { .. }) {
                                want_issued.push(uid);
                            }
                            v
                        });
                        assert_eq!(got, want, "offer order diverged (trial {trial}, step {step})");
                        assert_eq!(got_issued, want_issued);
                        assert_eq!(n, m);
                    }
                    9 if !live_regs.is_empty() => {
                        let i = rng.random_range(0..live_regs.len());
                        let p = live_regs[i];
                        if model.entries.values().all(|(_, pending, _)| !pending.contains(&p)) {
                            live_regs.swap_remove(i);
                            pending_regs.retain(|&q| q != p);
                            prf.release(p);
                        }
                    }
                    _ => {
                        let t = rng.random_range(0..TIDS);
                        let from = rng.random_range(0..100_000u64);
                        let whole = rng.random_range(0..2u32) == 0;
                        let pred = |uid: u64, tid: usize| tid == t && (whole || uid > from);
                        iq.squash(pred);
                        model.squash(pred);
                    }
                }
                assert_eq!(iq.len(), model.entries.len(), "trial {trial}, step {step}");
                let parked: Vec<u64> =
                    model.entries.iter().filter(|e| e.1 .2).map(|e| *e.0).collect();
                assert_eq!(iq.parked().map(|(u, _)| u).collect::<Vec<_>>(), parked);
            }
        }
    }

    #[test]
    fn same_register_in_both_sources() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap();
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [Some(a), Some(a)], &prf);
        assert_eq!(iq.select(4, |_, _| true), 0);
        prf.write(a, 1);
        iq.wakeup(a);
        assert_eq!(iq.select(4, |_, _| true), 1);
    }
}

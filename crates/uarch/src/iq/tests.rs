use super::*;
use std::collections::BTreeMap;

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
    assert!(!iq.has_ready(), "an operand-waiting entry is not ready");
    assert_eq!(iq.select(4, |_, _| true), 0);
    prf.write(a, 9);
    iq.wakeup(a);
    assert!(iq.has_ready());
    assert_eq!(iq.select(4, |_, _| true), 1);
    assert!(!iq.has_ready());
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
            let parked: Vec<u64> = model.entries.iter().filter(|e| e.1 .2).map(|e| *e.0).collect();
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

/// A squashed consumer's waiter record outlives it. Once its slot holds a
/// new entry, waking the old register must not touch the new one.
#[test]
fn stale_waiter_does_not_wake_a_recycled_slot() {
    let mut prf = prf_with(4);
    let p = prf.alloc().unwrap(); // not ready
    let q = prf.alloc().unwrap(); // not ready
                                  // One slot, so B must reuse A's.
    let mut iq = IssueQueue::new(1);
    assert!(iq.insert(1, 0, [Some(p), None], &prf));
    iq.squash(|uid, _| uid == 1);
    assert!(iq.insert(2, 0, [Some(q), None], &prf));
    prf.write(p, 7);
    iq.wakeup(p);
    let mut offered = Vec::new();
    let n = iq.select(4, |uid, _| {
        offered.push(uid);
        true
    });
    assert_eq!(n, 0);
    assert!(offered.is_empty(), "B waits on q, not p: {offered:?}");
    prf.write(q, 8);
    iq.wakeup(q);
    assert_eq!(iq.select(4, |_, _| true), 1);
    assert!(iq.is_empty());
}

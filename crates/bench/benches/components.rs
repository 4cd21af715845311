//! Microbenchmarks for the simulator's hot components: branch prediction,
//! the cache hierarchy, the SSB's versioned read/write path, conflict
//! detection, issue-queue wakeup and select, and packing's per-iteration
//! induction-variable detection.
//!
//! Every benchmark drives a public API. The store-queue search and the
//! completion wheel are private to `loopfrog`'s engine, so they have no
//! benchmark here; `lf-bench perf`'s stage-share table attributes their
//! cost to the issue and writeback stages.

use lf_bench::microbench::{bench_function, Bencher};
use std::hint::black_box;

fn bench_tage(b: &mut Bencher) {
    use lf_uarch::bpred::{History, Tage};
    let mut tage = Tage::new();
    let mut hist = History::default();
    let mut i = 0u64;
    b.iter(|| {
        let pc = 0x400 + (i % 64) * 4;
        let taken = (i / 3).is_multiple_of(2);
        let l = tage.predict(black_box(pc), hist);
        tage.update(pc, hist, l, taken);
        hist.push(taken);
        i += 1;
    });
}

fn bench_cache(b: &mut Bencher) {
    use lf_uarch::{AccessKind, MemConfig, MemHierarchy};
    let mut m = MemHierarchy::new(MemConfig::default());
    let mut now = 0u64;
    let mut addr = 0u64;
    b.iter(|| {
        now = m.access_data(0x40, black_box(addr), AccessKind::Load, now);
        addr = (addr + 64) % (1 << 22);
    });
}

fn bench_ssb(b: &mut Bencher) {
    use lf_isa::Memory;
    use loopfrog::ssb::Ssb;
    use loopfrog::SsbConfig;
    let mut ssb = Ssb::new(&SsbConfig::default(), 4);
    let mem = Memory::new(1 << 16);
    let mut i = 0u64;
    b.iter(|| {
        let addr = (i * 8) % 2048;
        let slice = (i % 4) as usize;
        let _ = ssb.write(slice, addr, &[1, 2, 3, 4, 5, 6, 7, 8], |_| 0);
        let (v, _) = ssb.read(&[0, 1, 2, 3], black_box(addr), 8, &mem);
        black_box(v);
        i += 1;
        if i.is_multiple_of(512) {
            for s in 0..4 {
                ssb.invalidate_slice(s);
            }
        }
    });
}

fn bench_conflict(b: &mut Bencher) {
    use loopfrog::conflict::ConflictDetector;
    let mut cd = ConflictDetector::new(4);
    let mut i = 0u64;
    b.iter(|| {
        let g = i % 256;
        cd.on_read(3, &[g]);
        let squash = cd.on_write(0, black_box(&[g + 1]), &[1, 2, 3]);
        black_box(squash);
        i += 1;
        if i.is_multiple_of(1024) {
            for s in 0..4 {
                cd.clear(s);
            }
        }
    });
}

fn bench_iq(b: &mut Bencher) {
    use lf_uarch::{IssueQueue, PhysReg, PhysRegFile};
    use std::collections::VecDeque;
    // Producers complete eight iterations after they are renamed, so about
    // sixteen operand-waiting consumers sit in the queue. Each iteration
    // inserts two consumers of a fresh producer (one reading it through
    // both sources), wakes the oldest producer, and selects what it woke.
    let mut prf = PhysRegFile::new(64);
    let mut iq: IssueQueue<u64> = IssueQueue::new(96);
    let mut in_flight: VecDeque<PhysReg> = VecDeque::new();
    let mut uid = 0u64;
    b.iter(|| {
        let p = prf.alloc().expect("each iteration releases one producer");
        iq.insert(uid, 0, [Some(p), None], &prf);
        iq.insert(uid + 1, 1, [Some(p), Some(p)], &prf);
        uid += 2;
        in_flight.push_back(p);
        if in_flight.len() > 8 {
            let done = in_flight.pop_front().expect("nine in flight");
            prf.write(done, uid);
            iq.wakeup(black_box(done));
            prf.release(done);
        }
        iq.select(2, |_, _| true)
    });
}

fn bench_packing(b: &mut Bencher) {
    use lf_isa::RegionId;
    use loopfrog::packing::PackingPredictors;
    use loopfrog::regset::RegSet;
    use loopfrog::PackingConfig;
    // Four loop regions whose iterations write an induction variable, a
    // scratch and an accumulator, and read the IV, an invariant and the
    // accumulator: the detector keeps the IV and the accumulator.
    let mut p = PackingPredictors::new(&PackingConfig::default());
    let written: RegSet = [5, 6, 9].into_iter().collect();
    let rbw: RegSet = [5, 7, 9].into_iter().collect();
    let mut i = 0usize;
    b.iter(|| {
        let r = RegionId(0x40 + i % 4);
        p.observe_iteration(r, black_box(written), black_box(rbw), 20);
        i += 1;
        p.ivs(r)
    });
}

fn main() {
    bench_function("tage_predict_update", bench_tage);
    bench_function("hierarchy_strided_loads", bench_cache);
    bench_function("ssb_write_then_versioned_read", bench_ssb);
    bench_function("conflict_read_write_check", bench_conflict);
    bench_function("iq_insert_wakeup_select", bench_iq);
    bench_function("packing_observe_iteration", bench_packing);
}

//! Engine-level tests: differential correctness against the golden
//! emulator, threadlet lifecycle scenarios, squash/recovery paths, and
//! speedup sanity checks.

use super::*;
use crate::config::{LoopFrogConfig, PackingConfig, SsbConfig};
use lf_isa::{reg, AluOp, BranchCond, Emulator, MemSize, Memory, Program, ProgramBuilder};

/// Runs `program` on the emulator and both core configurations and checks
/// all three produce the same architectural state. Returns (baseline,
/// loopfrog) results.
fn differential(program: &Program, mem: Memory) -> (SimResult, SimResult) {
    let mut emu = Emulator::new(program, mem.clone());
    emu.run(50_000_000).unwrap();
    assert!(emu.is_halted(), "emulator must halt");
    let golden = emu.state_checksum();

    let base = simulate(program, mem.clone(), LoopFrogConfig::baseline()).unwrap();
    assert_eq!(base.stop, SimStop::Halted);
    assert_eq!(base.checksum, golden, "baseline diverged from emulator");

    let lf = simulate(program, mem, LoopFrogConfig::default()).unwrap();
    assert_eq!(lf.stop, SimStop::Halted);
    assert_eq!(lf.checksum, golden, "LoopFrog diverged from emulator");
    (base, lf)
}

/// A hinted `for i in 0..trip { a[i] = f(a[i + src_off]) }` loop over u64
/// elements at `base`; `src_off = 0` gives independent iterations, negative
/// offsets create cross-iteration memory dependencies.
fn hinted_array_loop(trip: i64, src_off: i64, work: usize) -> Program {
    let base = 0x1000i64;
    let mut b = ProgramBuilder::new();
    let cont = b.label("cont");
    let head = b.label("head");
    let exit = b.label("exit");
    b.li(reg::x(1), 0); // byte index
    b.li(reg::x(2), trip * 8);
    b.bind(head);
    b.detach(cont);
    b.load(reg::x(3), reg::x(1), base + src_off * 8, MemSize::B8);
    for _ in 0..work {
        b.alui(AluOp::Mul, reg::x(3), reg::x(3), 3);
        b.alui(AluOp::Add, reg::x(3), reg::x(3), 7);
    }
    b.store(reg::x(3), reg::x(1), base, MemSize::B8);
    b.reattach(cont);
    b.bind(cont);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), head);
    b.sync(cont);
    b.bind(exit);
    b.halt();
    b.build().unwrap()
}

fn mem_with_pattern(size: usize) -> Memory {
    let mut mem = Memory::new(size);
    for i in 0..(size as u64 / 8) {
        mem.write_u64(i * 8, i.wrapping_mul(0x9e3779b97f4a7c15) | 1).unwrap();
    }
    mem
}

#[test]
fn straightline_matches_emulator() {
    let mut b = ProgramBuilder::new();
    b.li(reg::x(1), 7);
    b.alui(AluOp::Mul, reg::x(2), reg::x(1), 6);
    b.alu(AluOp::Add, reg::x(3), reg::x(2), reg::x(1));
    b.store(reg::x(3), reg::x(1), 0x100, MemSize::B8);
    b.load(reg::x(4), reg::x(1), 0x100, MemSize::B8);
    b.halt();
    let p = b.build().unwrap();
    let (base, _) = differential(&p, Memory::new(0x400));
    assert_eq!(base.final_regs[4], 49);
}

#[test]
fn plain_loop_matches_emulator() {
    // No hints at all: both cores run it sequentially.
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    b.li(reg::x(1), 0);
    b.li(reg::x(2), 0);
    b.li(reg::x(3), 300);
    b.bind(top);
    b.alu(AluOp::Add, reg::x(2), reg::x(2), reg::x(1));
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(3), top);
    b.halt();
    let p = b.build().unwrap();
    let (base, _) = differential(&p, Memory::new(64));
    assert_eq!(base.final_regs[2], 300 * 299 / 2);
}

#[test]
fn hinted_independent_loop_spawns_and_matches() {
    let p = hinted_array_loop(64, 0, 3);
    let mem = mem_with_pattern(0x2000);
    let (_, lf) = differential(&p, mem);
    assert!(lf.stats.spawns > 0, "LoopFrog must spawn threadlets");
    assert!(lf.stats.frac_active_at_least(2) > 0.0, "some dual-threadlet cycles");
}

#[test]
fn hinted_loop_with_memory_dependency_is_still_correct() {
    // a[i] = f(a[i-1]): every iteration reads the previous one's store.
    // Speculation conflicts and squashes, but results must stay exact.
    let p = hinted_array_loop(64, -1, 2);
    let mem = mem_with_pattern(0x2000);
    let (_, lf) = differential(&p, mem);
    assert!(
        lf.stats.squashes_conflict > 0,
        "cross-iteration RAW must trigger conflict squashes (got {:?})",
        lf.stats
    );
}

#[test]
fn independent_loop_gets_speedup() {
    let p = hinted_array_loop(256, 0, 8);
    let mem = mem_with_pattern(0x4000);
    let (base, lf) = differential(&p, mem);
    let speedup = base.stats.cycles as f64 / lf.stats.cycles as f64;
    assert!(
        speedup > 1.02,
        "independent loop should speed up: base {} vs lf {} ({speedup:.3}x)",
        base.stats.cycles,
        lf.stats.cycles
    );
}

#[test]
fn early_exit_break_loop_is_correct() {
    // while (a[i] != 0) { a[i] *= 3; i++ } with a sentinel zero: the exit
    // is data-dependent and lives in the header (sync on exit edge).
    let base_addr = 0x800i64;
    let mut b = ProgramBuilder::new();
    let cont = b.label("cont");
    let head = b.label("head");
    let exit = b.label("exit");
    b.li(reg::x(1), 0);
    b.bind(head);
    b.load(reg::x(3), reg::x(1), base_addr, MemSize::B8);
    b.branch(BranchCond::Eq, reg::x(3), reg::ZERO, exit);
    b.detach(cont);
    b.alui(AluOp::Mul, reg::x(3), reg::x(3), 3);
    b.store(reg::x(3), reg::x(1), base_addr, MemSize::B8);
    b.reattach(cont);
    b.bind(cont);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
    b.jump(head);
    b.bind(exit);
    b.sync(cont);
    b.halt();
    let p = b.build().unwrap();

    let mut mem = Memory::new(0x1000);
    for i in 0..40u64 {
        mem.write_u64(0x800 + i * 8, i + 1).unwrap();
    }
    // Sentinel at i == 40 terminates the loop.
    differential(&p, mem);
}

#[test]
fn nested_inner_region_is_ignored_while_outer_active() {
    // Outer hinted loop whose body contains an inner hinted loop: region
    // IDs differ; the inner hints must be ignored while detached on the
    // outer region (paper §3.3).
    let base_addr = 0x1000i64;
    let mut b = ProgramBuilder::new();
    let ocont = b.label("ocont");
    let ohead = b.label("ohead");
    let icont = b.label("icont");
    let ihead = b.label("ihead");
    b.li(reg::x(1), 0); // outer idx
    b.li(reg::x(2), 16 * 8);
    b.bind(ohead);
    b.detach(ocont);
    // inner loop: sum 8 elements
    b.li(reg::x(4), 0);
    b.li(reg::x(5), 8);
    b.li(reg::x(6), 0);
    b.bind(ihead);
    b.detach(icont);
    b.load(reg::x(7), reg::x(4), base_addr, MemSize::B8);
    b.alu(AluOp::Add, reg::x(6), reg::x(6), reg::x(7));
    b.reattach(icont);
    b.bind(icont);
    b.alui(AluOp::Add, reg::x(4), reg::x(4), 8);
    b.alui(AluOp::Sub, reg::x(5), reg::x(5), 1);
    b.branch(BranchCond::Ne, reg::x(5), reg::ZERO, ihead);
    b.sync(icont);
    b.store(reg::x(6), reg::x(1), base_addr + 0x800, MemSize::B8);
    b.reattach(ocont);
    b.bind(ocont);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), ohead);
    b.sync(ocont);
    b.halt();
    let p = b.build().unwrap();
    let (_, lf) = differential(&p, mem_with_pattern(0x2000));
    assert!(lf.stats.spawns > 0);
}

#[test]
fn function_call_in_body_is_correct() {
    let base_addr = 0x1000i64;
    let mut b = ProgramBuilder::new();
    let cont = b.label("cont");
    let head = b.label("head");
    let func = b.label("func");
    let start = b.label("start");
    b.jump(start);
    // x10 = x10 * 3 + 1
    b.bind(func);
    b.alui(AluOp::Mul, reg::x(10), reg::x(10), 3);
    b.alui(AluOp::Add, reg::x(10), reg::x(10), 1);
    b.jump_reg(reg::RA);
    b.bind(start);
    b.li(reg::x(12), 0);
    b.li(reg::x(2), 32 * 8);
    b.bind(head);
    b.detach(cont);
    b.load(reg::x(10), reg::x(12), base_addr, MemSize::B8);
    b.call(func, reg::RA);
    b.store(reg::x(10), reg::x(12), base_addr, MemSize::B8);
    b.reattach(cont);
    b.bind(cont);
    b.alui(AluOp::Add, reg::x(12), reg::x(12), 8);
    b.branch(BranchCond::Lt, reg::x(12), reg::x(2), head);
    b.sync(cont);
    b.halt();
    let p = b.build().unwrap();
    differential(&p, mem_with_pattern(0x2000));
}

#[test]
fn tiny_loop_triggers_iteration_packing() {
    // A very small body: packing should engage (trip count large enough to
    // train the predictors).
    let p = hinted_array_loop(512, 0, 0);
    let mem = mem_with_pattern(0x4000);
    let cfg = LoopFrogConfig {
        packing: PackingConfig { target_epoch_size: 64, ..PackingConfig::default() },
        ..LoopFrogConfig::default()
    };
    let mut emu = Emulator::new(&p, mem.clone());
    emu.run(10_000_000).unwrap();
    let lf = simulate(&p, mem, cfg).unwrap();
    assert_eq!(lf.checksum, emu.state_checksum());
    assert!(lf.stats.packed_spawns > 0, "packing should engage: {:?}", lf.stats);
    assert!(lf.stats.mean_pack_factor() > 1.5);
}

#[test]
fn packing_disabled_still_correct() {
    let p = hinted_array_loop(128, 0, 0);
    let mem = mem_with_pattern(0x4000);
    let cfg = LoopFrogConfig {
        packing: PackingConfig { enabled: false, ..PackingConfig::default() },
        ..LoopFrogConfig::default()
    };
    let mut emu = Emulator::new(&p, mem.clone());
    emu.run(10_000_000).unwrap();
    let lf = simulate(&p, mem, cfg).unwrap();
    assert_eq!(lf.checksum, emu.state_checksum());
    assert_eq!(lf.stats.packed_spawns, 0);
}

#[test]
fn ssb_overflow_squashes_but_stays_correct() {
    // Each iteration writes a large scattered footprint so a speculative
    // epoch overflows a tiny SSB slice.
    let base_addr = 0x1000i64;
    let mut b = ProgramBuilder::new();
    let cont = b.label("cont");
    let head = b.label("head");
    b.li(reg::x(1), 0);
    b.li(reg::x(2), 16);
    b.bind(head);
    b.detach(cont);
    // 32 stores, 64 B apart: 32 distinct SSB lines per iteration.
    b.alui(AluOp::Mul, reg::x(4), reg::x(1), 8);
    for k in 0..32i64 {
        b.store(reg::x(1), reg::x(4), base_addr + k * 64, MemSize::B8);
    }
    b.reattach(cont);
    b.bind(cont);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), head);
    b.sync(cont);
    b.halt();
    let p = b.build().unwrap();
    let mem = Memory::new(0x4000);

    let mut emu = Emulator::new(&p, mem.clone());
    emu.run(10_000_000).unwrap();
    let cfg = LoopFrogConfig {
        ssb: SsbConfig { size_bytes: 512, ..SsbConfig::default() },
        ..LoopFrogConfig::default()
    };
    let lf = simulate(&p, mem, cfg).unwrap();
    assert_eq!(lf.checksum, emu.state_checksum());
    assert!(lf.stats.squashes_overflow > 0, "tiny SSB must overflow: {:?}", lf.stats);
}

#[test]
fn unpredictable_branches_in_body_are_correct() {
    // Data-dependent branch inside the body exercises in-threadlet
    // mispredict recovery interleaved with threadlet speculation.
    let base_addr = 0x1000i64;
    let mut b = ProgramBuilder::new();
    let cont = b.label("cont");
    let head = b.label("head");
    let odd = b.label("odd");
    let join = b.label("join");
    b.li(reg::x(1), 0);
    b.li(reg::x(2), 96 * 8);
    b.bind(head);
    b.detach(cont);
    b.load(reg::x(3), reg::x(1), base_addr, MemSize::B8);
    b.alui(AluOp::And, reg::x(4), reg::x(3), 1);
    b.branch(BranchCond::Ne, reg::x(4), reg::ZERO, odd);
    b.alui(AluOp::Mul, reg::x(3), reg::x(3), 5);
    b.jump(join);
    b.bind(odd);
    b.alui(AluOp::Add, reg::x(3), reg::x(3), 11);
    b.bind(join);
    b.store(reg::x(3), reg::x(1), base_addr, MemSize::B8);
    b.reattach(cont);
    b.bind(cont);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), head);
    b.sync(cont);
    b.halt();
    let p = b.build().unwrap();
    let (_, lf) = differential(&p, mem_with_pattern(0x2000));
    assert!(lf.stats.branch_mispredicts > 0, "random parity must mispredict");
}

#[test]
fn two_sequential_hinted_loops() {
    // Exercises full region teardown and re-entry: sync, retire, respawn.
    let mut b = ProgramBuilder::new();
    let c1 = b.label("c1");
    let h1 = b.label("h1");
    let c2 = b.label("c2");
    let h2 = b.label("h2");
    b.li(reg::x(1), 0);
    b.li(reg::x(2), 24 * 8);
    b.bind(h1);
    b.detach(c1);
    b.load(reg::x(3), reg::x(1), 0x1000, MemSize::B8);
    b.alui(AluOp::Add, reg::x(3), reg::x(3), 5);
    b.store(reg::x(3), reg::x(1), 0x1000, MemSize::B8);
    b.reattach(c1);
    b.bind(c1);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), h1);
    b.sync(c1);
    b.li(reg::x(1), 0);
    b.bind(h2);
    b.detach(c2);
    b.load(reg::x(3), reg::x(1), 0x1000, MemSize::B8);
    b.alui(AluOp::Mul, reg::x(3), reg::x(3), 3);
    b.store(reg::x(3), reg::x(1), 0x2000, MemSize::B8);
    b.reattach(c2);
    b.bind(c2);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), h2);
    b.sync(c2);
    b.halt();
    let p = b.build().unwrap();
    let (_, lf) = differential(&p, mem_with_pattern(0x3000));
    assert!(lf.stats.spawns >= 2);
}

#[test]
fn one_threadlet_config_with_speculation_off_equals_baseline() {
    let p = hinted_array_loop(64, 0, 2);
    let mem = mem_with_pattern(0x2000);
    let a = simulate(&p, mem.clone(), LoopFrogConfig::baseline()).unwrap();
    let b = simulate(&p, mem, LoopFrogConfig::baseline()).unwrap();
    assert_eq!(a.stats.cycles, b.stats.cycles, "simulation is deterministic");
    assert_eq!(a.checksum, b.checksum);
}

#[test]
fn determinism_of_loopfrog_runs() {
    let p = hinted_array_loop(100, 0, 4);
    let mem = mem_with_pattern(0x2000);
    let a = simulate(&p, mem.clone(), LoopFrogConfig::default()).unwrap();
    let b = simulate(&p, mem, LoopFrogConfig::default()).unwrap();
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.spawns, b.stats.spawns);
    assert_eq!(a.checksum, b.checksum);
}

#[test]
fn architectural_fault_is_reported() {
    let mut b = ProgramBuilder::new();
    b.li(reg::x(1), 1 << 40);
    b.load(reg::x(2), reg::x(1), 0, MemSize::B8);
    b.halt();
    let p = b.build().unwrap();
    let err = simulate(&p, Memory::new(64), LoopFrogConfig::baseline()).unwrap_err();
    assert!(matches!(err, SimError::Fault { .. }));
}

#[test]
fn wrong_path_fault_is_squashed() {
    // A mispredictable branch guards an out-of-bounds load; wrong-path
    // execution of the load must not kill the run.
    let mut b = ProgramBuilder::new();
    let skip = b.label("skip");
    let top = b.label("top");
    b.li(reg::x(1), 0);
    b.li(reg::x(2), 200);
    b.li(reg::x(5), 1 << 40);
    b.bind(top);
    b.alui(AluOp::And, reg::x(3), reg::x(1), 7);
    b.branch(BranchCond::Ne, reg::x(3), reg::ZERO, skip);
    b.nop();
    b.bind(skip);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), top);
    b.halt();
    let p = b.build().unwrap();
    differential(&p, Memory::new(0x400));
}

#[test]
fn store_to_load_forwarding_in_spec_threadlet() {
    // Body stores then reloads the same address: forwarding + SSB paths.
    let base_addr = 0x1000i64;
    let mut b = ProgramBuilder::new();
    let cont = b.label("cont");
    let head = b.label("head");
    b.li(reg::x(1), 0);
    b.li(reg::x(2), 48 * 8);
    b.bind(head);
    b.detach(cont);
    b.load(reg::x(3), reg::x(1), base_addr, MemSize::B8);
    b.alui(AluOp::Add, reg::x(3), reg::x(3), 1);
    b.store(reg::x(3), reg::x(1), base_addr, MemSize::B8);
    b.load(reg::x(4), reg::x(1), base_addr, MemSize::B8);
    b.alui(AluOp::Mul, reg::x(4), reg::x(4), 2);
    b.store(reg::x(4), reg::x(1), base_addr + 0x800, MemSize::B8);
    b.reattach(cont);
    b.bind(cont);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), head);
    b.sync(cont);
    b.halt();
    let p = b.build().unwrap();
    differential(&p, mem_with_pattern(0x2000));
}

#[test]
fn subword_stores_with_false_sharing_granules() {
    // 1-byte stores into shared granules: exercises partial-granule
    // read-fills and false-sharing conflicts.
    let base_addr = 0x1000i64;
    let mut b = ProgramBuilder::new();
    let cont = b.label("cont");
    let head = b.label("head");
    b.li(reg::x(1), 0);
    b.li(reg::x(2), 64);
    b.bind(head);
    b.detach(cont);
    b.load(reg::x(3), reg::x(1), base_addr, MemSize::B1);
    b.alui(AluOp::Add, reg::x(3), reg::x(3), 1);
    b.store(reg::x(3), reg::x(1), base_addr, MemSize::B1);
    b.reattach(cont);
    b.bind(cont);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), head);
    b.sync(cont);
    b.halt();
    let p = b.build().unwrap();
    // Byte-stride writes with 4-byte granules: adjacent iterations share
    // granules, forcing read-fill conflicts; results must stay exact.
    differential(&p, mem_with_pattern(0x2000));
}

#[test]
fn max_cycles_fuel_stops_cleanly() {
    let p = hinted_array_loop(1 << 20, 0, 4);
    let cfg = LoopFrogConfig { max_cycles: 2_000, ..LoopFrogConfig::default() };
    let r = simulate(&p, mem_with_pattern(1 << 24), cfg).unwrap();
    assert_eq!(r.stop, SimStop::MaxCycles);
    assert!(r.stats.cycles <= 2_001);
}

#[test]
fn dynamic_deselection_suppresses_conflicting_region() {
    // a[i] = f(a[i-1]): every speculative epoch conflicts. With the §5.1
    // dynamic deselector on, the region is suppressed after warmup and the
    // run both stays correct and stops paying for squashes.
    let p = hinted_array_loop(200, -1, 2);
    let mem = mem_with_pattern(0x4000);
    let mut emu = Emulator::new(&p, mem.clone());
    emu.run(10_000_000).unwrap();

    let plain = simulate(&p, mem.clone(), LoopFrogConfig::default()).unwrap();
    let cfg = LoopFrogConfig {
        deselect: crate::deselect::DeselectConfig {
            enabled: true,
            // One conflict per retired epoch (every iteration squashes once)
            // counts as a storm for this test.
            max_conflict_rate: 0.9,
            ..crate::deselect::DeselectConfig::default()
        },
        ..LoopFrogConfig::default()
    };
    let dyn_run = simulate(&p, mem, cfg).unwrap();

    assert_eq!(dyn_run.checksum, emu.state_checksum());
    assert!(
        dyn_run.stats.counters.get("regions_suppressed") >= 1,
        "conflict-storm region must be suppressed: dyn squashes={} plain squashes={} spawns={} counters={:?}",
        dyn_run.stats.squashes_conflict,
        plain.stats.squashes_conflict,
        dyn_run.stats.spawns,
        dyn_run.stats.counters
    );
    assert!(
        dyn_run.stats.squashes_conflict < plain.stats.squashes_conflict,
        "suppression must cut conflict squashes ({} vs {})",
        dyn_run.stats.squashes_conflict,
        plain.stats.squashes_conflict
    );
}

#[test]
fn dynamic_deselection_leaves_profitable_loops_alone() {
    let p = hinted_array_loop(200, 0, 4);
    let mem = mem_with_pattern(0x4000);
    let mut emu = Emulator::new(&p, mem.clone());
    emu.run(10_000_000).unwrap();
    let cfg = LoopFrogConfig {
        deselect: crate::deselect::DeselectConfig {
            enabled: true,
            ..crate::deselect::DeselectConfig::default()
        },
        ..LoopFrogConfig::default()
    };
    let r = simulate(&p, mem, cfg).unwrap();
    assert_eq!(r.checksum, emu.state_checksum());
    assert_eq!(r.stats.counters.get("regions_suppressed"), 0);
    assert!(r.stats.spawns > 50, "healthy region keeps spawning");
}

#[test]
fn warm_start_resumes_mid_program() {
    // Run the emulator halfway, capture state, and warm-start the core
    // there: the final state must match a straight-through run.
    let p = hinted_array_loop(64, 0, 2);
    let mem = mem_with_pattern(0x2000);
    let mut full = Emulator::new(&p, mem.clone());
    full.run(10_000_000).unwrap();

    let mut half = Emulator::new(&p, mem.clone());
    for _ in 0..300 {
        half.step().unwrap();
    }
    let mut core = LoopFrogCore::with_initial_state(
        &p,
        half.mem().clone(),
        half.regs(),
        half.pc(),
        LoopFrogConfig::default(),
    );
    let r = core.run().unwrap();
    assert_eq!(r.stop, SimStop::Halted);
    assert_eq!(r.checksum, full.state_checksum());
}

#[test]
fn from_checkpoint_resumes_and_matches_straight_run() {
    // Fast-forward with the functional tier, snapshot, and restore the
    // detailed core from the checkpoint: the final architectural state
    // must match an uninterrupted emulator run.
    let p = hinted_array_loop(64, 0, 2);
    let mem = mem_with_pattern(0x2000);
    let mut full = Emulator::new(&p, mem.clone());
    full.run(10_000_000).unwrap();

    let mut fast = lf_isa::FastTier::new(&p, mem.clone());
    fast.run_to_inst_count(300).unwrap();
    let ckpt = fast.checkpoint();
    assert!(!ckpt.hints.branches.is_empty(), "warming recorded branches");
    assert!(!ckpt.hints.mem_accesses.is_empty(), "warming recorded accesses");

    let mut core = LoopFrogCore::from_checkpoint(&p, &ckpt, LoopFrogConfig::default());
    assert_eq!(core.committed_insts(), 0, "commit count is checkpoint-relative");
    let r = core.run().unwrap();
    assert_eq!(r.stop, SimStop::Halted);
    assert_eq!(r.checksum, full.state_checksum());
}

#[test]
fn from_checkpoint_restore_is_deterministic() {
    // Two restores from the same serialized checkpoint must produce
    // byte-identical stats over the same measured window.
    let p = hinted_array_loop(64, 0, 2);
    let mem = mem_with_pattern(0x2000);
    let mut fast = lf_isa::FastTier::new(&p, mem);
    fast.run_to_inst_count(400).unwrap();
    let bytes = fast.checkpoint().to_bytes();

    let run = || {
        let ckpt = lf_isa::fast::Checkpoint::from_bytes(&bytes).unwrap();
        let mut core = LoopFrogCore::from_checkpoint(&p, &ckpt, LoopFrogConfig::default());
        let stop = core.run_until_committed(500).unwrap();
        core.into_result(stop)
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(
        a.stats.to_json().to_string_compact(),
        b.stats.to_json().to_string_compact(),
        "restored runs must be byte-identical"
    );
}

#[test]
fn checkpoint_warming_installs_state_not_events() {
    // Restoring installs warm tags/tables but every counter still starts
    // from zero: warming must establish state, never events.
    let p = hinted_array_loop(64, 0, 2);
    let mem = mem_with_pattern(0x2000);
    let mut fast = lf_isa::FastTier::new(&p, mem);
    fast.run_to_inst_count(600).unwrap();
    let ckpt = fast.checkpoint();
    let core = LoopFrogCore::from_checkpoint(&p, &ckpt, LoopFrogConfig::default());
    assert_eq!(core.stats.cycles, 0);
    assert_eq!(core.stats.committed_insts, 0);
    assert_eq!(core.hier.cache_stats(), [(0, 0); 3], "no access/miss events from warming");
    assert_eq!(core.hier.counters().get("dram_accesses"), 0);
}

#[test]
fn phased_run_until_committed_is_cumulative() {
    let p = hinted_array_loop(64, 0, 2);
    let mem = mem_with_pattern(0x2000);
    let mut core = LoopFrogCore::new(&p, mem.clone(), LoopFrogConfig::default());
    core.run_until_committed(100).unwrap();
    let (c0, i0) = (core.cycle(), core.committed_insts());
    assert!(i0 >= 100);
    let stop = core.run_until_committed(u64::MAX).unwrap();
    assert_eq!(stop, SimStop::Halted);
    assert!(core.cycle() > c0);
    // Phased and monolithic runs agree on the final state.
    let whole = simulate(&p, mem, LoopFrogConfig::default()).unwrap();
    assert_eq!(core.into_result(stop).checksum, whole.checksum);
}

#[test]
fn tracer_observes_pipeline_events() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let p = hinted_array_loop(32, 0, 2);
    let mem = mem_with_pattern(0x2000);
    let counts = Rc::new(RefCell::new(crate::trace::CountingTracer::default()));
    let mut core = LoopFrogCore::new(&p, mem.clone(), LoopFrogConfig::default());
    core.set_tracer(Box::new(Rc::clone(&counts)));
    let traced = core.run().unwrap();

    let c = counts.borrow();
    assert!(c.renames > 100, "renames traced: {c:?}");
    assert!(c.commits > 100, "commits traced: {c:?}");
    assert!(c.spawns > 0 && c.retires > 0, "threadlet lifecycle traced: {c:?}");

    // Tracing must not perturb the simulation.
    let plain = simulate(&p, mem, LoopFrogConfig::default()).unwrap();
    assert_eq!(plain.stats.cycles, traced.stats.cycles);
    assert_eq!(plain.checksum, traced.checksum);
}

#[test]
fn zero_trip_hinted_loop_is_correct() {
    // The loop guard fails immediately: the detach path never executes,
    // but the sync at the exit target still commits as a NOP.
    let base_addr = 0x1000i64;
    let mut b = ProgramBuilder::new();
    let cont = b.label("cont");
    let head = b.label("head");
    let exit_l = b.label("exit");
    b.li(reg::x(1), 0);
    b.li(reg::x(2), 0); // bound 0: zero iterations
    b.branch(BranchCond::Geu, reg::x(1), reg::x(2), exit_l);
    b.bind(head);
    b.detach(cont);
    b.load(reg::x(3), reg::x(1), base_addr, MemSize::B8);
    b.store(reg::x(3), reg::x(1), base_addr + 0x800, MemSize::B8);
    b.reattach(cont);
    b.bind(cont);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
    b.branch(BranchCond::Lt, reg::x(1), reg::x(2), head);
    b.bind(exit_l);
    b.sync(cont);
    b.halt();
    let p = b.build().unwrap();
    differential(&p, mem_with_pattern(0x2000));
}

#[test]
fn single_trip_hinted_loop_is_correct() {
    let p = hinted_array_loop(1, 0, 2);
    differential(&p, mem_with_pattern(0x2000));
}

#[test]
fn triple_nested_hinted_loops_are_correct() {
    // Three nesting levels, all hinted with distinct regions; only the
    // outermost active region may speculate at a time (§3.3).
    let mut b = ProgramBuilder::new();
    let (c1, h1) = (b.label("c1"), b.label("h1"));
    let (c2, h2) = (b.label("c2"), b.label("h2"));
    let (c3, h3) = (b.label("c3"), b.label("h3"));
    b.li(reg::x(1), 4); // outer count
    b.bind(h1);
    b.detach(c1);
    b.li(reg::x(2), 3); // middle count
    b.bind(h2);
    b.detach(c2);
    b.li(reg::x(3), 3); // inner count
    b.li(reg::x(4), 0);
    b.bind(h3);
    b.detach(c3);
    b.load(reg::x(5), reg::x(4), 0x1000, MemSize::B8);
    b.alui(AluOp::Add, reg::x(5), reg::x(5), 1);
    b.store(reg::x(5), reg::x(4), 0x1000, MemSize::B8);
    b.reattach(c3);
    b.bind(c3);
    b.alui(AluOp::Add, reg::x(4), reg::x(4), 8);
    b.alui(AluOp::Sub, reg::x(3), reg::x(3), 1);
    b.branch(BranchCond::Ne, reg::x(3), reg::ZERO, h3);
    b.sync(c3);
    b.reattach(c2);
    b.bind(c2);
    b.alui(AluOp::Sub, reg::x(2), reg::x(2), 1);
    b.branch(BranchCond::Ne, reg::x(2), reg::ZERO, h2);
    b.sync(c2);
    b.reattach(c1);
    b.bind(c1);
    b.alui(AluOp::Sub, reg::x(1), reg::x(1), 1);
    b.branch(BranchCond::Ne, reg::x(1), reg::ZERO, h1);
    b.sync(c1);
    b.halt();
    let p = b.build().unwrap();
    differential(&p, mem_with_pattern(0x2000));
}

#[test]
fn bloom_filters_end_to_end_equivalence() {
    // Real Bloom filters may add squashes but never change results.
    let p = hinted_array_loop(96, -1, 2); // with true conflicts
    let mem = mem_with_pattern(0x2000);
    let mut emu = Emulator::new(&p, mem.clone());
    emu.run(10_000_000).unwrap();
    for (bits, hashes) in [(4096usize, 4u32), (256, 2)] {
        let mut cfg = LoopFrogConfig::default();
        cfg.ssb.bloom = Some((bits, hashes));
        let r = simulate(&p, mem.clone(), cfg).unwrap();
        assert_eq!(r.checksum, emu.state_checksum(), "bloom {bits}/{hashes}");
    }
}

#[test]
fn external_write_during_conflicting_speculation() {
    // Combine remote traffic with a loop that already conflicts
    // internally: both squash paths interleave, results stay exact on the
    // final memory ordering invariants.
    let p = hinted_array_loop(64, -1, 1);
    let mem = mem_with_pattern(0x2000);
    let mut core = LoopFrogCore::new(&p, mem, LoopFrogConfig::default());
    core.run_until_committed(80).unwrap();
    // Touch an element well ahead of the architectural point.
    core.external_write(0x1000 + 60 * 8, 8, 0xDEAD).unwrap();
    let stop = core.run_until_committed(u64::MAX).unwrap();
    assert_eq!(stop, SimStop::Halted);
    // a[60] was overwritten externally, then possibly recomputed by the
    // loop (iteration 60 writes a[60] from a[59]); either way the value
    // must equal what a sequential re-execution from the external write
    // point would produce — verified structurally: the element is either
    // the external value (loop already passed it... impossible, external
    // write landed ahead) or f(a[59]).
    let a59 = core.mem().read_u64(0x1000 + 59 * 8).unwrap();
    let expect = a59.wrapping_mul(3).wrapping_add(7);
    let got = core.mem().read_u64(0x1000 + 60 * 8).unwrap();
    assert_eq!(got, expect, "iteration 60 must observe the post-write ordering");
}

/// An access's inline granule list is the SSB's `granules_of` list, for
/// byte-sized and default granules.
#[test]
fn access_granules_match_granules_of() {
    let mut b = ProgramBuilder::new();
    b.halt();
    let program = b.build().unwrap();
    for granule in [1, 4] {
        let mut cfg = LoopFrogConfig::default();
        cfg.ssb.granule = granule;
        let core = LoopFrogCore::new(&program, Memory::new(64), cfg);
        for (addr, len) in [(0, 4), (2, 4), (8, 1), (3, 8), (13, 8)] {
            let want = core.ssb.granules_of(addr, len);
            assert_eq!(core.access_granules(addr, len).as_slice(), want);
        }
    }
}

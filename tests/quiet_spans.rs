//! The quiet-span oracle over the frozen throughput basket.
//!
//! A production build jumps over the cycles after a quiet tick (one that
//! changed nothing but the per-cycle statistics) in one step. This test
//! builds with loopfrog's `verify` feature, where the core ticks through
//! every such span instead and checks the prediction: each tick inside is
//! quiet with the same statistics, the engine state is unchanged across
//! the span, and the per-cycle statistics at its end equal the skip's bulk
//! addition (DESIGN.md §7.3, §10.8). The check must hold on every basket
//! kernel under both pinned configs, and must not be vacuous: the
//! predicted spans cover a large share of the simulated cycles.

use lf_bench::perf::BASKET;
use lf_compiler::{annotate, SelectOptions};
use lf_workloads::Scale;
use loopfrog::{LoopFrogConfig, LoopFrogCore};

#[test]
fn basket_quiet_spans_hold_and_cover_a_third_of_cycles() {
    let configs = [("base", LoopFrogConfig::baseline()), ("lf", LoopFrogConfig::default())];
    let (mut cycles, mut insts, mut quiet) = (0u64, 0u64, 0u64);
    for name in BASKET {
        let w = lf_workloads::by_name(name, Scale::Smoke).expect("basket kernel is registered");
        let emu = w.reference_emulator().expect("basket kernel runs on the golden emulator");
        let ann = annotate(&w.program, emu.profile(), &SelectOptions::default());
        for (tag, cfg) in &configs {
            let mut core = LoopFrogCore::new(&ann.program, w.mem.clone(), cfg.clone());
            let r = core.run().unwrap_or_else(|e| panic!("{name} ({tag}) failed: {e}"));
            let vs = core.verify_state();
            assert_eq!(
                vs.total_violations(),
                0,
                "{name} ({tag}) broke an invariant:\n  {}",
                vs.violations().join("\n  ")
            );
            cycles += r.stats.cycles;
            insts += r.stats.committed_insts;
            quiet += vs.quiet_cycles();
        }
    }
    // The ledger's frozen basket work: the verify build simulates it too.
    assert_eq!((cycles, insts), (252_485, 158_564), "basket work changed");
    let share = quiet as f64 / cycles as f64;
    eprintln!("predicted quiet spans cover {quiet} of {cycles} cycles ({:.1}%)", share * 100.0);
    assert!(share >= 0.30, "quiet spans cover only {:.1}% of the basket's cycles", share * 100.0);
}

//! Integration tests for the tiered execution path (DESIGN §13): the
//! sampled tier's accuracy and detailed-cycle reduction bounds on the
//! eval-scale basket, byte-identical deterministic checkpoint restore,
//! restores from mid-run checkpoints and shared warm states, and the SSB
//! footprint a sampled run records over its windows.

use lf_bench::perf::BASKET;
use lf_bench::tiered::{
    build_plan, run_sampled, sample_windows, warm_states, SampledKernel, SampledPlan, SampledWork,
};
use lf_bench::RunRecord;
use lf_compiler::{annotate, SelectOptions};
use lf_isa::{FastTier, Memory, Program};
use lf_stats::{Json, SmallRng};
use lf_uarch::{CacheConfig, MemConfig};
use lf_workloads::Scale;
use loopfrog::{simulate, LoopFrogConfig, LoopFrogCore, SimResult, WarmState};

/// Annotates a kernel the way the engine's planner does, so the tiered
/// path sees the same program the detailed runs measure.
fn prepared(name: &str, scale: Scale) -> (Program, Memory) {
    let w = lf_workloads::by_name(name, scale)
        .unwrap_or_else(|| panic!("kernel {name} missing at {scale:?}"));
    let emu = w.reference_emulator().expect("kernel runs on the golden emulator");
    let ann = annotate(&w.program, emu.profile(), &SelectOptions::default());
    (ann.program, w.mem.clone())
}

/// The tier's reason to exist, asserted: across the eval basket the
/// weighted whole-run cycle estimate stays within 3% of full detailed
/// simulation while simulating at least 5x fewer detailed cycles.
#[test]
fn sampled_tier_meets_error_and_reduction_bounds_on_eval_basket() {
    let cfg = LoopFrogConfig::default();
    let mut full_total = 0u64;
    let mut est_total = 0.0f64;
    let mut detailed_total = 0u64;
    for name in BASKET {
        let (program, mem) = prepared(name, Scale::Eval);
        let full = simulate(&program, mem.clone(), cfg.clone())
            .unwrap_or_else(|e| panic!("{name} full run failed: {e}"));
        let plan = build_plan(&program, &mem).unwrap();
        let m = sample_windows(&program, &plan, &cfg).unwrap();
        let err = (m.est_cycles - full.stats.cycles as f64) / full.stats.cycles as f64;
        // Per-kernel sanity: no single estimate may be wildly off even
        // when the aggregate averages out.
        assert!(
            err.abs() < 0.10,
            "{name}: sampled estimate off by {:+.2}% (full {} cycles, est {:.0})",
            err * 100.0,
            full.stats.cycles,
            m.est_cycles
        );
        assert!(
            m.detailed_cycles < full.stats.cycles,
            "{name}: sampling simulated more detailed cycles than the full run"
        );
        full_total += full.stats.cycles;
        est_total += m.est_cycles;
        detailed_total += m.detailed_cycles;
    }
    let agg_err = (est_total - full_total as f64) / full_total as f64;
    let reduction = full_total as f64 / detailed_total as f64;
    assert!(
        agg_err.abs() <= 0.03,
        "aggregate weighted-cycle error {:+.2}% exceeds the 3% bound",
        agg_err * 100.0
    );
    assert!(
        reduction >= 5.0,
        "detailed-cycle reduction {reduction:.2}x is below the 5x bound \
         ({full_total} full vs {detailed_total} sampled detailed cycles)"
    );
}

/// Save -> restore -> run is byte-identical: a plan that round-trips
/// through its serialized form drives exactly the same windows, and
/// repeating the measurement reproduces it bit for bit.
#[test]
fn restored_plans_replay_byte_identically() {
    let cfg = LoopFrogConfig::default();
    let (program, mem) = prepared("hash_lookup", Scale::Smoke);
    let plan = build_plan(&program, &mem).unwrap();
    let restored = SampledPlan::from_bytes(&plan.to_bytes()).unwrap();
    assert_eq!(plan, restored, "plan must survive serialization unchanged");

    let original = sample_windows(&program, &plan, &cfg).unwrap();
    let replayed = sample_windows(&program, &restored, &cfg).unwrap();
    let repeated = sample_windows(&program, &plan, &cfg).unwrap();
    for m in [&replayed, &repeated] {
        assert_eq!(m.est_cycles.to_bits(), original.est_cycles.to_bits());
        assert_eq!(m.detailed_cycles, original.detailed_cycles);
        assert_eq!(m.windows.len(), original.windows.len());
        for (w, o) in m.windows.iter().zip(&original.windows) {
            assert_eq!(
                (w.cycles, w.insts, w.detailed_cycles),
                (o.cycles, o.insts, o.detailed_cycles)
            );
        }
        // The carrier's full record — its stats and every counter the
        // artifacts consume — must also be identical.
        assert_eq!(
            RunRecord::from_result(m.carrier.clone(), &cfg),
            RunRecord::from_result(original.carrier.clone(), &cfg)
        );
    }
}

/// The exact-equality case of restore fidelity: a pristine checkpoint
/// (instruction 0, empty hint rings) restored into the detailed core
/// must reproduce an uninterrupted run byte for byte — same cycles,
/// same checksum, same record down to every counter.
#[test]
fn pristine_restore_equals_uninterrupted_run() {
    let cfg = LoopFrogConfig::default();
    let (program, mem) = prepared("stencil_blur", Scale::Smoke);
    let uninterrupted = simulate(&program, mem.clone(), cfg.clone()).unwrap();

    let ckpt = lf_isa::FastTier::new(&program, mem.clone()).checkpoint();
    let mut core = loopfrog::LoopFrogCore::from_checkpoint(&program, &ckpt, cfg.clone());
    let restored = core.run().unwrap();

    assert_eq!(restored.stats.cycles, uninterrupted.stats.cycles);
    assert_eq!(restored.checksum, uninterrupted.checksum);
    assert_eq!(RunRecord::from_result(restored, &cfg), RunRecord::from_result(uninterrupted, &cfg));
}

/// Everything a simulation reports, in comparable form.
fn facts(r: SimResult, cfg: &LoopFrogConfig) -> (u64, Vec<u64>, RunRecord) {
    (r.checksum, r.final_regs.clone(), RunRecord::from_result(r, cfg))
}

/// The checkpoint oracle: on two kernels, a `FastTier` checkpoint at
/// seeded random instructions restores to the straight run's final
/// architectural state through the functional tier, through
/// `from_checkpoint` on a 4-threadlet core, and through a warm state that
/// a 1-threadlet config's memory configuration built, installed into a
/// 4-threadlet core; the two detailed restores report the same run.
#[test]
fn mid_run_checkpoints_restore_to_the_straight_runs_final_state() {
    let cfg = LoopFrogConfig::default();
    let single = LoopFrogConfig { core: loopfrog::LoopFrogConfig::baseline().core, ..cfg.clone() };
    assert_eq!((cfg.core.threadlets, single.core.threadlets), (4, 1));
    let mut rng = SmallRng::seed_from_u64(0x0C1E_C4B0);
    for name in ["stencil_blur", "hash_lookup"] {
        let (program, mem) = prepared(name, Scale::Smoke);
        let straight = simulate(&program, mem.clone(), cfg.clone()).unwrap();
        let mut fast = FastTier::new(&program, mem.clone());
        fast.run_to_inst_count(u64::MAX - 1).unwrap();
        let total = fast.inst_count();
        assert_eq!(fast.state_checksum(), straight.checksum, "{name}: the tiers agree");
        for _ in 0..3 {
            let k = rng.random_range(1..total);
            let mut fast = FastTier::new(&program, mem.clone());
            fast.run_to_inst_count(k).unwrap();
            let ckpt = fast.checkpoint();

            let mut resumed = FastTier::from_checkpoint(&program, &ckpt);
            resumed.run_to_inst_count(u64::MAX - 1).unwrap();
            assert!(resumed.is_halted(), "{name} at {k}: the functional restore halts");
            assert_eq!(resumed.state_checksum(), straight.checksum, "{name} at {k}: functional");

            let replayed = LoopFrogCore::from_checkpoint(&program, &ckpt, cfg.clone()).run();
            let warm = WarmState::new(&ckpt, &single.mem);
            let installed = LoopFrogCore::from_warm(&program, &ckpt, &warm, cfg.clone()).run();
            let (replayed, installed) = (replayed.unwrap(), installed.unwrap());
            for r in [&replayed, &installed] {
                assert_eq!(r.stop, loopfrog::SimStop::Halted, "{name} at {k}: reaches halt");
                assert_eq!(r.checksum, straight.checksum, "{name} at {k}: final state");
                assert_eq!(r.final_regs, straight.final_regs, "{name} at {k}: final registers");
            }
            assert!(
                facts(replayed, &cfg) == facts(installed, &cfg),
                "{name} at {k}: an installed warm state runs like a replayed checkpoint"
            );
        }
    }
}

/// A kernel's sampled runs share one plan and build one warm state per
/// pick and memory configuration: three runs under two memory
/// configurations build 2 × picks warm states, and each run's outcome is
/// the one `sample_windows` measures for it.
#[test]
fn sampled_runs_share_warm_states_per_memory_configuration() {
    let (program, mem) = prepared("hash_lookup", Scale::Smoke);
    let plan = build_plan(&program, &mem).unwrap();
    let small = MemConfig {
        l2: CacheConfig { size: 256 << 10, ..MemConfig::default().l2 },
        l1d_prefetch_degree: 1,
        l2_prefetch_degree: 4,
        ..MemConfig::default()
    };
    let configs = [
        LoopFrogConfig::default(),
        LoopFrogConfig::baseline(),
        LoopFrogConfig { mem: small, ..LoopFrogConfig::default() },
    ];
    let mut kernel = SampledKernel::default();
    for cfg in &configs {
        let (outcome, _) = kernel.run(7, &program, &mem, cfg, &[]).unwrap();
        let m = sample_windows(&program, &plan, cfg).unwrap();
        let est = outcome.tier_field("est_cycles").and_then(Json::as_f64).unwrap();
        assert_eq!(est.to_bits(), m.est_cycles.to_bits());
        let detailed = outcome.tier_field("detailed_cycles").and_then(Json::as_u64).unwrap();
        assert_eq!(detailed, m.detailed_cycles);
        assert_eq!(outcome.checksum, plan.final_checksum);
        let mut carrier = RunRecord::from_result(m.carrier, cfg);
        carrier.tier = outcome.record.tier.clone();
        assert!(outcome.record == carrier, "the carrier window's record");
    }
    let picks = plan.picks.len();
    let windows = configs.len() * picks;
    assert_eq!(kernel.work(), SampledWork { plans: 1, warm_states: 2 * picks, windows });
}

/// A sampled run's SSB footprint is its windows' footprints appended.
/// Over `astar_heap`'s geometries it fits exactly those under which no
/// window's slices spill, and every geometry it fits measures the same
/// windows, so a served sibling's record is the one it would simulate.
#[test]
fn sampled_footprint_fits_exactly_the_geometries_no_window_spills_in() {
    let (program, mem) = prepared("astar_heap", Scale::Smoke);
    let plan = build_plan(&program, &mem).unwrap();
    let warm = warm_states(&plan, &MemConfig::default());
    let with_ssb = |size_bytes, assoc, victim_entries| {
        let mut cfg = LoopFrogConfig::default();
        cfg.ssb.size_bytes = size_bytes;
        cfg.ssb.assoc = assoc;
        cfg.ssb.victim_entries = victim_entries;
        cfg
    };
    // Armed for a sibling of its own conflict sets and deselection, a run
    // records its windows' SSB footprints and shadows nothing.
    let rep = with_ssb(32 << 10, None, 0);
    let (outcome, footprint) = run_sampled(0, &program, &plan, &warm, &rep, &[&rep]).unwrap();
    let footprint = footprint.expect("no window spills a 32 KiB SSB");
    let (mut fits, mut spills) = (0, 0);
    for size_bytes in [512, 1 << 10, 2 << 10, 8 << 10] {
        for assoc in [None, Some(2), Some(4)] {
            for victim_entries in [0, 8] {
                let cfg = with_ssb(size_bytes, assoc, victim_entries);
                let what = format!("{size_bytes} B, {assoc:?}, {victim_entries} victims");
                let (sibling, recorded) =
                    run_sampled(0, &program, &plan, &warm, &cfg, &[&rep]).unwrap();
                let fit = footprint.fits(&cfg);
                assert_eq!(fit, recorded.is_some(), "{what}: fits iff no window spilled");
                if fit {
                    assert!(sibling.record == outcome.record, "{what}: measured differently");
                    fits += 1;
                } else {
                    spills += 1;
                }
            }
        }
    }
    assert!(fits > 0 && spills > 0, "{fits} geometries fit, {spills} spilled");
}

//! Integration tests for the telemetry layer: cycle accounting, interval
//! sampling, the artifact's metrics view, the JSON artifact pipeline, and
//! the flight recorder — all driven through real kernel simulations
//! rather than synthetic counters.

use lf_bench::{run_kernel, RunConfig};
use lf_compiler::{annotate, SelectOptions};
use lf_stats::Json;
use lf_workloads::Scale;
use loopfrog::telemetry::INTERVAL_CYCLES;
use loopfrog::{simulate, CycleBucket, FlightRecorder, LoopFrogConfig, LoopFrogCore};
use std::cell::RefCell;
use std::rc::Rc;

fn smoke(name: &str) -> lf_workloads::Workload {
    lf_workloads::by_name(name, Scale::Smoke).expect("kernel exists")
}

/// The central invariant: every commit slot of every counted cycle lands
/// in exactly one accounting bucket, so the buckets sum to
/// `cycles × commit_width` — on a real kernel, both baseline and LoopFrog.
#[test]
fn accounting_buckets_sum_to_cycles_times_commit_width() {
    let w = smoke("stencil_blur");
    for cfg in [LoopFrogConfig::default(), LoopFrogConfig::baseline()] {
        let cw = cfg.core.commit_width as u64;
        let r = simulate(&w.program, w.mem.clone(), cfg).expect("kernel simulates");
        assert!(r.stats.cycles > 0);
        assert_eq!(
            r.accounting.total(),
            r.stats.cycles * cw,
            "accounting must cover every commit slot"
        );
        // Every commit (architectural, promoted, or later squashed) occupies
        // a BaseCommit slot, except those of the final halt cycle, which is
        // excluded from accounting along with its cycle count.
        let all_commits =
            r.stats.commits_arch + r.stats.commits_spec_success + r.stats.commits_spec_failed;
        let base = r.accounting.get(CycleBucket::BaseCommit);
        assert!(base <= all_commits);
        assert!(all_commits - base <= cw, "only the halt cycle's commits may be uncounted");
    }
}

/// Interval sampling emits ⌈cycles / N⌉ cumulative snapshots, one on each
/// boundary, whose final entry matches the end-of-run statistics.
#[test]
fn sampler_emits_ceil_cycles_over_period_snapshots() {
    let w = smoke("stencil_blur");
    for cfg in [LoopFrogConfig::default(), LoopFrogConfig::baseline()] {
        let r = simulate(&w.program, w.mem.clone(), cfg).expect("kernel simulates");
        assert!(r.stats.cycles > INTERVAL_CYCLES, "the run spans several intervals");
        assert_eq!(r.intervals.len(), r.stats.cycles.div_ceil(INTERVAL_CYCLES) as usize);
        for (k, s) in r.intervals.iter().enumerate() {
            let boundary = (k as u64 + 1) * INTERVAL_CYCLES;
            assert_eq!(s.cycle, boundary.min(r.stats.cycles), "sample {k} off its boundary");
        }
        let last = r.intervals.last().unwrap();
        assert_eq!(last.committed_insts, r.stats.committed_insts);
        // Snapshots are cumulative, hence monotone.
        for pair in r.intervals.windows(2) {
            assert!(pair[0].committed_insts <= pair[1].committed_insts);
            assert!(pair[0].issued_insts <= pair[1].issued_insts);
        }
    }
}

/// The artifact's metrics view of a real run is internally consistent
/// with the flat statistics and contains the documented namespaces.
#[test]
fn registry_matches_flat_stats() {
    let w = smoke("stencil_blur");
    let run = run_kernel(&w, &RunConfig::default());
    let r = &run.lf.record;
    let doc = lf_bench::artifact::kernel_json(&run);
    let reg = doc.get("loopfrog").and_then(|lf| lf.get("registry")).expect("a registry view");
    let scalar = |name: &str| reg.get(name).and_then(Json::as_u64).expect(name);
    assert_eq!(scalar("core.cycles"), r.stats.cycles);
    assert_eq!(scalar("core.commit.total_insts"), r.stats.committed_insts);
    assert_eq!(scalar("threadlet.spawns"), r.stats.spawns);
    assert!(r.stats.spawns > 0, "the hinted run spawns");
    for bucket in CycleBucket::ALL {
        let name = format!("accounting.{}", bucket.name());
        assert_eq!(scalar(&name), r.accounting.get(bucket), "{name}");
    }
    let ipc = reg.get("core.ipc").and_then(|f| f.get("value")).and_then(Json::as_f64).unwrap();
    assert!((ipc - r.stats.ipc()).abs() < 1e-12, "formula must match SimStats::ipc");
}

/// A full kernel artifact (registry + accounting + intervals for both
/// simulations) survives a JSON serialize → parse round trip.
#[test]
fn artifact_json_round_trips_on_real_kernel() {
    let w = smoke("stencil_blur");
    let run = run_kernel(&w, &RunConfig::default());
    let doc = lf_bench::artifact::kernel_json(&run);
    let text = doc.to_string_pretty();
    let back = Json::parse(&text).expect("artifact parses");
    assert_eq!(back, doc, "parse must invert serialization");

    let lf = back.get("loopfrog").unwrap();
    let cycles = lf.get("registry").unwrap().get("core.cycles").unwrap().as_u64().unwrap();
    assert_eq!(cycles, run.lf_stats().cycles);
    let acct = lf.get("accounting").unwrap();
    let sum: u64 =
        CycleBucket::ALL.iter().map(|b| acct.get(b.name()).unwrap().as_u64().unwrap()).sum();
    let cw = lf.get("registry").unwrap().get("core.config.commit_width").unwrap().as_u64().unwrap();
    assert_eq!(sum, cycles * cw, "invariant must survive the round trip");
    assert!(!lf.get("intervals").unwrap().as_arr().unwrap().is_empty());
}

/// An attached flight recorder captures a bounded window of events
/// preceding a squash on a hinted kernel that actually squashes, and keeps
/// the run's last events as its window.
#[test]
fn flight_recorder_captures_pre_squash_window() {
    let w = smoke("hash_lookup");
    let emu = w.reference_emulator().expect("kernel runs");
    let program = annotate(&w.program, emu.profile(), &SelectOptions::default()).program;
    let recorder = Rc::new(RefCell::new(FlightRecorder::new(32)));
    let mut core = LoopFrogCore::new(&program, w.mem.clone(), LoopFrogConfig::default());
    core.set_tracer(Box::new(Rc::clone(&recorder)));
    let r = core.run().expect("kernel simulates");
    let squashes = r.stats.squashes_conflict
        + r.stats.squashes_sync
        + r.stats.squashes_packing
        + r.stats.squashes_wrong_path;
    assert!(squashes > 0, "event_queue squashes");
    let recorder = recorder.borrow();
    let pre = recorder.pre_squash();
    assert!(!pre.is_empty(), "a squash must freeze the ring");
    assert!(pre.len() <= 32);
    let window = recorder.window();
    assert_eq!(window.len(), 32, "a whole run fills the ring");
    assert!(window.last().unwrap().cycle() <= r.stats.cycles);
}

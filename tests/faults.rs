//! Integration tests for fault-tolerant campaigns: panic isolation,
//! watchdog budgets, cache corruption quarantine, and recovery by rerun —
//! all driven through the real engine on real kernels with deterministic
//! `--inject-fault` gates.

mod common;

use common::ScratchDir;
use lf_bench::engine::cache::{CacheLookup, DiskCache};
use lf_bench::engine::fault::{
    hang_program, render_flight_recorder, FaultPlan, RunBudget, RunError, FLIGHT_RECORDER_KEEP,
};
use lf_bench::engine::planner::{Hinting, Planner, PreparedKernel};
use lf_bench::engine::{run_scenarios, EngineCtx, EngineOptions, EngineOutput, Scenario};
use lf_bench::{RunArtifact, RunConfig, Tier};
use lf_workloads::Scale;
use loopfrog::{FlightRecorder, LoopFrogConfig};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A minimal scenario rendering the standard suite plus explicit failure
/// lines — the shape every registered scenario follows.
struct SuiteScenario;

impl Scenario for SuiteScenario {
    fn name(&self) -> &'static str {
        "fault_suite"
    }
    fn title(&self) -> &'static str {
        "fault-tolerance test scenario"
    }
    fn plan(&self, p: &mut Planner<'_>) {
        p.request_suite(&RunConfig::default());
    }
    fn render(&self, ctx: &EngineCtx<'_>, out: &mut String) -> RunArtifact {
        let rc = RunConfig::default();
        for r in ctx.suite_runs(&rc) {
            out.push_str(&format!("{} {:.4}\n", r.name, r.speedup()));
        }
        let mut art = RunArtifact::new(self.name(), ctx.scale());
        if let Some(failures) = ctx.note_suite_failures(&rc, out) {
            art.set_extra("failures", failures);
        }
        art
    }
}

/// One LoopFrog run of each suite kernel on `tier`, whatever the
/// campaign's `--tier`: the shape of the SimPoint scenarios' requests.
struct TieredRuns(Tier);

impl Scenario for TieredRuns {
    fn name(&self) -> &'static str {
        "tiered_runs"
    }
    fn title(&self) -> &'static str {
        "explicit-tier test scenario"
    }
    fn plan(&self, p: &mut Planner<'_>) {
        let rc = RunConfig::default();
        for w in p.kernels() {
            p.request_tiered(w.name, Hinting::Annotated, &rc.lf, self.0);
        }
    }
    fn render(&self, ctx: &EngineCtx<'_>, out: &mut String) -> RunArtifact {
        let rc = RunConfig::default();
        let hinting = Hinting::Annotated;
        for w in ctx.kernels() {
            if let Err(f) = ctx.try_outcome_tiered(w.name, &hinting, &rc.lf, self.0) {
                out.push_str(&format!("FAILED {}: {}\n", w.name, f.error.message()));
            }
        }
        RunArtifact::new(self.name(), ctx.scale())
    }
}

fn opts_for(filter: &str) -> EngineOptions {
    let mut opts = EngineOptions::new(Scale::Smoke);
    opts.filter = Some(filter.to_string());
    opts.jobs = 2;
    opts
}

fn faults(specs: &[&str]) -> FaultPlan {
    let mut plan = FaultPlan::default();
    for s in specs {
        plan.parse_spec(s).expect("test spec parses");
    }
    plan
}

fn counting_hook(opts: &mut EngineOptions) -> Arc<AtomicUsize> {
    let count = Arc::new(AtomicUsize::new(0));
    let counter = count.clone();
    opts.sim_hook = Some(Arc::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    count
}

/// Every failure of a hang-injected `stencil_blur` campaign whose runs are
/// on `tier` is a budget failure whose flight-recorder window is non-empty
/// and equals the window of a core that ran the hang kernel, under the
/// failed run's config and observed from cycle 0, to the reported cycle.
fn assert_windows_are_replays(output: &EngineOutput, tier: Tier) {
    let rc = RunConfig::default();
    let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
    let prep = PreparedKernel::prepare(w, &Hinting::Annotated);
    let program = hang_program();
    assert!(!output.failures.is_empty());
    for f in &output.failures {
        let RunError::BudgetExceeded { cycles, flight_recorder, .. } = &f.error else {
            panic!("not a budget failure: {}", f.error.message());
        };
        assert!(!flight_recorder.is_empty(), "budget failure without a window");
        let mut cfg = [&LoopFrogConfig::baseline(), &rc.lf]
            .into_iter()
            .find(|c| prep.request_fingerprint_tiered(c, tier) == f.fingerprint)
            .expect("the failure is one of the suite's two runs")
            .clone();
        cfg.max_cycles = *cycles;
        let recorder = Rc::new(RefCell::new(FlightRecorder::new(FLIGHT_RECORDER_KEEP)));
        let mut core = loopfrog::LoopFrogCore::new(&program, lf_isa::Memory::new(64), cfg);
        core.set_tracer(Box::new(Rc::clone(&recorder)));
        let r = core.run().expect("the hang kernel runs to its cycle cap");
        assert_eq!(r.stats.cycles, *cycles);
        assert_eq!(*flight_recorder, render_flight_recorder(&recorder.borrow().window()));
    }
}

fn scratch_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(
        std::env::temp_dir().join(format!("lf-bench-faults-test-{}-{tag}", std::process::id())),
    )
}

/// An injected panic costs exactly the affected runs: the campaign
/// completes, the scenario renders explicit failure lines, and every
/// failure record carries its fingerprint and a repro command.
#[test]
fn injected_panics_fail_runs_without_killing_the_campaign() {
    let mut opts = opts_for("stencil_blur");
    opts.faults = faults(&["panic:1.0"]);
    let output = run_scenarios(&[&SuiteScenario], &opts);

    assert_eq!(output.report.faults.panicked, 2, "baseline + LoopFrog runs both panic");
    assert_eq!(output.report.faults.failed_runs(), 2);
    assert_eq!(output.failures.len(), 2);
    for f in &output.failures {
        assert_eq!(f.error.kind(), "panic");
        assert_ne!(f.fingerprint, 0);
        assert!(f.repro.contains("stencil_blur"), "repro names the kernel: {}", f.repro);
        assert!(f.cell().starts_with("FAILED("));
    }
    let text = &output.scenarios[0].text;
    assert!(text.contains("FAILED stencil_blur"), "render must name the failure:\n{text}");
    assert!(text.contains("repro:"), "render must carry the repro command:\n{text}");
}

/// A livelocked simulation (injected hang) is stopped by the cycle budget
/// and reported as a structured budget failure, not a hung process, on
/// every tier: an injected hang runs the hang kernel on the detailed core
/// whatever the run's tier. The cases are a detailed campaign, a sampled
/// campaign, and one simpoint-check request, each with its runs' tier and
/// count.
#[test]
fn hang_injection_is_stopped_by_the_cycle_budget() {
    let simpoint_check = TieredRuns(Tier::SimpointCheck);
    let cases: [(Tier, &dyn Scenario, Tier, usize); 3] = [
        (Tier::Detailed, &SuiteScenario, Tier::Detailed, 2),
        (Tier::Sampled, &SuiteScenario, Tier::Sampled, 2),
        (Tier::Detailed, &simpoint_check, Tier::SimpointCheck, 1),
    ];
    for (campaign, scenario, tier, runs) in cases {
        let mut opts = opts_for("stencil_blur");
        opts.tier = campaign;
        opts.faults = faults(&["hang:1.0"]);
        opts.budget = RunBudget { max_cycles: Some(20_000), deadline: None };
        let output = run_scenarios(&[scenario], &opts);

        assert_eq!(output.report.faults.budget_exceeded, runs, "{tier:?}");
        assert_eq!(output.failures.len(), runs, "{tier:?}");
        for f in &output.failures {
            assert_eq!(f.error.kind(), "budget_exceeded", "{tier:?}");
            assert!(f.error.message().contains("cycle budget"), "{}", f.error.message());
        }
        assert!(output.scenarios[0].text.contains("FAILED stencil_blur"), "{tier:?}");
        assert_windows_are_replays(&output, tier);
    }
}

/// The wall-clock watchdog variant: with no cycle cap at all, the deadline
/// armed on the core's step loop stops the same livelock.
#[test]
fn hang_injection_is_stopped_by_the_wall_clock_deadline() {
    let mut opts = opts_for("stencil_blur");
    opts.jobs = 1;
    opts.faults = faults(&["hang:1.0"]);
    opts.budget = RunBudget { max_cycles: None, deadline: Some(Duration::from_millis(100)) };
    let output = run_scenarios(&[&SuiteScenario], &opts);

    assert_eq!(output.report.faults.budget_exceeded, 2);
    for f in &output.failures {
        assert!(f.error.message().contains("wall-clock"), "{}", f.error.message());
    }
    assert_windows_are_replays(&output, Tier::Detailed);
}

/// Core-level deadline contract: an already-expired deadline stops a
/// non-terminating kernel on its first check instead of hanging.
#[test]
fn core_deadline_stops_a_nonterminating_kernel() {
    let program = hang_program();
    let mut cfg = loopfrog::LoopFrogConfig::baseline();
    cfg.max_cycles = u64::MAX;
    let mut core = loopfrog::LoopFrogCore::new(&program, lf_isa::Memory::new(64), cfg);
    core.set_deadline(Instant::now());
    let r = core.run().expect("deadline stop is not an error");
    assert_eq!(r.stop, loopfrog::SimStop::Deadline);
}

/// Corrupt cache entries are quarantined on first contact, the runs
/// re-simulate cleanly, and the refilled slots hit on the next campaign.
#[test]
fn corrupt_cache_entries_quarantine_and_refill() {
    let dir = scratch_dir("quarantine");

    // Campaign 1 stores both runs, then the injection garbles the entries.
    let mut opts = opts_for("stencil_blur");
    opts.disk_cache = Some(DiskCache::new(&*dir));
    opts.faults = faults(&["corrupt-cache:1.0"]);
    let first = run_scenarios(&[&SuiteScenario], &opts);
    assert!(first.failures.is_empty(), "corruption strikes the cache, not the runs");

    // Campaign 2 finds the corruption, quarantines it, and re-simulates.
    let mut opts2 = opts_for("stencil_blur");
    opts2.disk_cache = Some(DiskCache::new(&*dir));
    let sims = counting_hook(&mut opts2);
    let second = run_scenarios(&[&SuiteScenario], &opts2);
    assert_eq!(second.report.faults.cache_corrupt, 2);
    assert_eq!(second.report.faults.quarantined, 2);
    assert_eq!(second.report.disk_hits, 0);
    assert_eq!(sims.load(Ordering::SeqCst), 2);
    assert!(second.failures.is_empty());
    let quarantined = std::fs::read_dir(dir.join("quarantine")).unwrap().count();
    assert_eq!(quarantined, 2, "garbled entries must be preserved for inspection");

    // Campaign 3: the refilled slots serve hits again.
    let mut opts3 = opts_for("stencil_blur");
    opts3.disk_cache = Some(DiskCache::new(&*dir));
    let sims3 = counting_hook(&mut opts3);
    let third = run_scenarios(&[&SuiteScenario], &opts3);
    assert_eq!(third.report.disk_hits, 2);
    assert_eq!(sims3.load(Ordering::SeqCst), 0);
}

/// Cache commits under contention: two threads repeatedly store the same
/// fingerprint while a third garbles the entry in place with plain
/// (non-atomic) writes. The atomic rename protocol guarantees the final
/// entry is either a whole valid document or whole garbage — never a
/// spliced hybrid — and a garbled survivor is quarantined on first
/// contact, after which a store refills the slot. No commit temp files
/// may be left behind.
#[test]
fn concurrent_stores_under_corruption_leave_one_whole_entry() {
    let dir = scratch_dir("store-contention");
    let cache = DiskCache::new(&*dir);
    let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
    let outcome = lf_bench::run_kernel(&w, &RunConfig::default()).base;
    let entry = cache.entry_path(outcome.fingerprint);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..20 {
                    cache.store(&outcome).expect("store never errors under contention");
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..20 {
                // In-place truncating write: exactly what the commit
                // protocol forbids for itself.
                let _ = std::fs::write(&entry, "{ \"injected\": \"mid-write garbage\"");
                std::thread::yield_now();
            }
        });
    });

    match cache.lookup(outcome.fingerprint) {
        CacheLookup::Hit(hit) => {
            assert_eq!(hit.fingerprint, outcome.fingerprint, "a winning store is fully intact");
        }
        CacheLookup::Corrupt { quarantined } => {
            assert!(quarantined, "a garbled survivor is quarantined on first contact");
            assert!(
                matches!(cache.lookup(outcome.fingerprint), CacheLookup::Miss),
                "the quarantined slot reads as a miss"
            );
            assert!(
                std::fs::read_dir(dir.join("quarantine")).unwrap().count() >= 1,
                "the garbled entry is preserved for inspection"
            );
            cache.store(&outcome).unwrap();
            assert!(
                matches!(cache.lookup(outcome.fingerprint), CacheLookup::Hit(_)),
                "the refilled slot serves hits again"
            );
        }
        other => panic!("entry must be whole-valid or whole-corrupt, got {other:?}"),
    }

    // The commit protocol cleans up after itself even under contention.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "no temp debris after contended stores: {leftovers:?}");
}

/// The recovery contract on a mixed campaign: a plain rerun re-executes
/// the previously failed runs (never cached) and serves the previous
/// successes from the cache.
#[test]
fn rerun_reexecutes_only_previously_failed_runs() {
    let dir = scratch_dir("rerun");

    // Campaign 0: one of the two fdtd kernels runs cleanly and is cached.
    let mut warm = opts_for("gems_fdtd");
    warm.disk_cache = Some(DiskCache::new(&*dir));
    let warmed = run_scenarios(&[&SuiteScenario], &warm);
    assert!(warmed.failures.is_empty());

    // Campaign 1 over both fdtd kernels with every *simulated* run
    // panicking: the cached kernel sails through, the other fails.
    let mut opts = opts_for("fdtd");
    opts.disk_cache = Some(DiskCache::new(&*dir));
    opts.faults = faults(&["panic:1.0"]);
    let broken = run_scenarios(&[&SuiteScenario], &opts);
    assert_eq!(broken.report.disk_hits, 2, "gems_fdtd is served from the cache");
    assert_eq!(broken.report.faults.panicked, 2, "fotonik_fdtd's two runs panic");
    assert!(broken.failures.iter().all(|f| f.kernel == "fotonik_fdtd"));
    let text = &broken.scenarios[0].text;
    assert!(text.contains("gems_fdtd"), "partial table keeps the surviving kernel:\n{text}");
    assert!(text.contains("FAILED fotonik_fdtd"), "and names the failed one:\n{text}");

    // Campaign 2 reruns without the injection: exactly the failed runs
    // re-execute.
    let mut again = opts_for("fdtd");
    again.disk_cache = Some(DiskCache::new(&*dir));
    let sims = counting_hook(&mut again);
    let rerun = run_scenarios(&[&SuiteScenario], &again);
    assert_eq!(rerun.report.disk_hits, 2);
    assert_eq!(sims.load(Ordering::SeqCst), 2, "only the failed runs simulate");
    assert!(rerun.failures.is_empty());
    let text = &rerun.scenarios[0].text;
    assert!(text.contains("gems_fdtd") && text.contains("fotonik_fdtd"));
    assert!(!text.contains("FAILED"), "the rerun campaign is whole:\n{text}");

    // Campaign 3: nothing left to do — everything hits.
    let mut done = opts_for("fdtd");
    done.disk_cache = Some(DiskCache::new(&*dir));
    let sims3 = counting_hook(&mut done);
    let final_run = run_scenarios(&[&SuiteScenario], &done);
    assert_eq!(final_run.report.disk_hits, 4);
    assert_eq!(sims3.load(Ordering::SeqCst), 0);
}

/// A panicking render loses one scenario's output, not the campaign: the
/// other scenario still renders and the failure is reported with a repro.
#[test]
fn render_panic_is_isolated_to_its_scenario() {
    struct BadRender;
    impl Scenario for BadRender {
        fn name(&self) -> &'static str {
            "bad_render"
        }
        fn title(&self) -> &'static str {
            "scenario whose render panics"
        }
        fn plan(&self, _p: &mut Planner<'_>) {}
        fn render(&self, _ctx: &EngineCtx<'_>, _out: &mut String) -> RunArtifact {
            panic!("render bug");
        }
    }

    let opts = opts_for("stencil_blur");
    let output = run_scenarios(&[&BadRender, &SuiteScenario], &opts);
    assert_eq!(output.report.faults.render_failures, 1);
    assert!(output.scenarios[0].text.contains("RENDER FAILED: render bug"));
    assert!(
        output.scenarios[1].text.contains("stencil_blur"),
        "the healthy scenario still renders"
    );
    assert_eq!(output.failures.len(), 1);
    assert_eq!(output.failures[0].kernel, "bad_render");
}

/// Every file of a run cache, by name.
fn cache_entries(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(p).unwrap()))
        .collect()
}

/// A sampled campaign runs each kernel's runs as one pool item, yet an
/// injected panic still costs exactly the runs it hits. Over
/// `stencil_blur`'s SSB size and associativity sweeps (9 runs),
/// `panic:0.45` hits the baseline, which runs before the 32 KiB
/// representative in the same item, and three of the geometry siblings
/// the representative would serve; `panic:0.74` also hits the
/// representative, so it serves nothing and its seven siblings simulate
/// after it inside their family: four panic and three succeed. The
/// failures are exactly the gated runs, under the fingerprints they had
/// when every sampled run built its own plan, and every other run commits
/// the cache entry a clean campaign commits.
#[test]
fn sampled_panics_fail_exactly_the_runs_they_hit() {
    let scenarios = ["fig9_ssb_size", "assoc_sensitivity"]
        .map(|n| lf_bench::engine::by_name(n).unwrap_or_else(|| panic!("{n} is registered")));
    let refs: Vec<&dyn Scenario> = scenarios.iter().map(|s| s.as_ref()).collect();
    let campaign = |tag: &str, plan: FaultPlan| {
        let dir = scratch_dir(tag);
        let mut opts = opts_for("stencil_blur");
        opts.tier = Tier::Sampled;
        opts.disk_cache = Some(DiskCache::new(&*dir));
        opts.faults = plan;
        let output = run_scenarios(&refs, &opts);
        let entries = cache_entries(&dir);
        (output, entries)
    };
    let (clean, clean_entries) = campaign("sampled-clean", FaultPlan::default());
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);
    assert_eq!(clean_entries.len(), 9);

    // Base, 2 KiB, 8-way, 4-way + victim; then also 4-way and 32 KiB.
    let hit_045 = [0xd0cef648cfea3477, 0x9b34e3c9fca98f4c, 0x65230bd9d993ed3a, 0xdedfd171a53a277c];
    let hit_074 = [&hit_045[..], &[0x486ab85fd1c5b56d, 0xe11e2d14be11f5ed]].concat();
    for (spec, hit) in [("panic:0.45", &hit_045[..]), ("panic:0.74", &hit_074[..])] {
        let (broken, entries) = campaign(&spec.replace([':', '.'], "-"), faults(&[spec]));
        let mut failed: Vec<u64> = broken.failures.iter().map(|f| f.fingerprint).collect();
        failed.sort_unstable();
        let mut expected = hit.to_vec();
        expected.sort_unstable();
        assert_eq!(failed, expected, "{spec}: exactly the gated runs fail");
        assert!(broken.failures.iter().all(|f| f.error.kind() == "panic"), "{spec}");
        assert_eq!(broken.report.faults.failed_runs(), hit.len(), "{spec}");
        let hit_names: Vec<String> =
            hit.iter().map(|&fp| format!("{}.json", lf_stats::fingerprint_hex(fp))).collect();
        let survivors: BTreeMap<String, Vec<u8>> = clean_entries
            .iter()
            .filter(|(name, _)| !hit_names.contains(name))
            .map(|(name, bytes)| (name.clone(), bytes.clone()))
            .collect();
        assert_eq!(survivors.len(), 9 - hit.len(), "{spec}: every gated run is one of the 9");
        assert!(entries == survivors, "{spec}: the other runs commit a clean campaign's entries");
    }
}

//! Integration tests for the experiment engine's run planner: cross-
//! scenario deduplication, fingerprint sensitivity and stability, on-disk
//! memoization with schema invalidation, `-j` and cache independence of
//! the artifacts (cached reruns on both tiers, serial and pooled cache
//! probes), runs requested on an explicit tier, geometry, filter and
//! deselection siblings served from one footprint, the campaign's phase
//! spans and their coverage of its wall time, and the rejection of a
//! `--filter` that selects no kernel.

use lf_bench::artifact::SCHEMA_VERSION;
use lf_bench::engine::cache::{CacheLookup, DiskCache};
use lf_bench::engine::planner::{Hinting, Planner, PreparedKernel};
use lf_bench::engine::spans::SpanLog;
use lf_bench::engine::{run_scenarios, EngineCtx, EngineOptions, Scenario};
use lf_bench::tiered::{SampledKernel, SampledWork};
use lf_bench::{run_fingerprint, run_fingerprint_tiered, RunArtifact, RunConfig, RunOutcome, Tier};
use lf_stats::Json;
use lf_workloads::Scale;
use loopfrog::{simulate, LoopFrogConfig};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A minimal scenario declaring the standard baseline+LoopFrog suite.
struct SuiteScenario(&'static str);

impl Scenario for SuiteScenario {
    fn name(&self) -> &'static str {
        self.0
    }
    fn title(&self) -> &'static str {
        "test scenario"
    }
    fn plan(&self, p: &mut Planner<'_>) {
        p.request_suite(&RunConfig::default());
    }
    fn render(&self, ctx: &EngineCtx<'_>, out: &mut String) -> RunArtifact {
        let runs = ctx.suite_runs(&RunConfig::default());
        for r in &runs {
            out.push_str(&format!("{} {:.4}\n", r.name, r.speedup()));
        }
        RunArtifact::new(self.name(), ctx.scale())
    }
}

/// A scenario whose requests differ from the default suite in exactly one
/// configuration field.
struct SsbVariant;

impl Scenario for SsbVariant {
    fn name(&self) -> &'static str {
        "ssb_variant"
    }
    fn title(&self) -> &'static str {
        "test scenario (one config field changed)"
    }
    fn plan(&self, p: &mut Planner<'_>) {
        let mut rc = RunConfig::default();
        rc.lf.ssb.size_bytes = 512;
        p.request_suite(&rc);
    }
    fn render(&self, ctx: &EngineCtx<'_>, _out: &mut String) -> RunArtifact {
        RunArtifact::new(self.name(), ctx.scale())
    }
}

fn opts_for(filter: &str) -> EngineOptions {
    let mut opts = EngineOptions::new(Scale::Smoke);
    opts.filter = Some(filter.to_string());
    opts
}

fn counting_hook(opts: &mut EngineOptions) -> Arc<AtomicUsize> {
    let count = Arc::new(AtomicUsize::new(0));
    let counter = count.clone();
    opts.sim_hook = Some(Arc::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    count
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lf-bench-planner-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn identical_requests_from_two_scenarios_simulate_once() {
    let (a, b) = (SuiteScenario("a"), SuiteScenario("b"));
    let mut opts = opts_for("stencil_blur");
    let sims = counting_hook(&mut opts);
    let output = run_scenarios(&[&a, &b], &opts);

    // Two scenarios × (baseline + LoopFrog) over one kernel.
    assert_eq!(output.report.requests, 4);
    assert_eq!(output.report.unique, 2, "identical requests must collapse");
    assert_eq!(output.report.simulated, 2);
    assert_eq!(sims.load(Ordering::SeqCst), 2, "each unique fingerprint simulates exactly once");
    assert_eq!(output.report.prepared, 1, "one kernel, one hinting mode");
    assert_eq!(
        output.scenarios[0].text, output.scenarios[1].text,
        "both scenarios render from the same memoized outcomes"
    );
}

#[test]
fn changing_one_config_field_changes_the_fingerprints() {
    let (a, b) = (SuiteScenario("a"), SsbVariant);
    let mut opts = opts_for("stencil_blur");
    let sims = counting_hook(&mut opts);
    let output = run_scenarios(&[&a, &b], &opts);

    // The two scenarios share the baseline run; the variant's LoopFrog
    // config differs in one field and must not collapse with the default.
    // That field is the SSB size, and stencil_blur's slices never spill at
    // 512 B, so the default run's footprint serves the variant.
    assert_eq!(output.report.requests, 4);
    assert_eq!(output.report.unique, 3, "a one-field config change is a distinct run");
    assert_eq!((output.report.simulated, output.report.served), (2, 1));
    assert_eq!(sims.load(Ordering::SeqCst), 2);

    // Direct fingerprint sensitivity at the API level.
    let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
    let cfg = LoopFrogConfig::default();
    let mut changed = cfg.clone();
    changed.ssb.size_bytes = 512;
    assert_ne!(
        run_fingerprint(&w.program, &w.mem, &cfg, Scale::Smoke),
        run_fingerprint(&w.program, &w.mem, &changed, Scale::Smoke)
    );
}

#[test]
fn disk_cache_round_trips_and_schema_bump_invalidates() {
    let scenario = SuiteScenario("cached");
    let dir = scratch_dir("disk-round-trip");

    let mut opts = opts_for("stencil_blur");
    opts.disk_cache = Some(DiskCache::new(dir.clone()));
    let sims_first = counting_hook(&mut opts);
    let first = run_scenarios(&[&scenario], &opts);
    assert_eq!(first.report.disk_hits, 0);
    assert_eq!(sims_first.load(Ordering::SeqCst), 2);

    // Second engine run: everything served from disk, nothing simulated,
    // identical render.
    let mut opts2 = opts_for("stencil_blur");
    opts2.disk_cache = Some(DiskCache::new(dir.clone()));
    let sims_second = counting_hook(&mut opts2);
    let second = run_scenarios(&[&scenario], &opts2);
    assert_eq!(second.report.disk_hits, 2);
    assert_eq!(second.report.simulated, 0);
    assert_eq!(sims_second.load(Ordering::SeqCst), 0);
    assert_eq!(first.scenarios[0].text, second.scenarios[0].text);

    // A schema bump invalidates every entry: the engine re-simulates.
    let mut opts3 = opts_for("stencil_blur");
    opts3.disk_cache = Some(DiskCache::with_schema(dir, SCHEMA_VERSION + 1));
    let sims_third = counting_hook(&mut opts3);
    let third = run_scenarios(&[&scenario], &opts3);
    assert_eq!(third.report.disk_hits, 0, "stale-schema entries must miss");
    assert_eq!(sims_third.load(Ordering::SeqCst), 2);
}

/// An artifact's document with its planner telemetry (wall-clock, job
/// count and cache hits, which legitimately differ between campaigns)
/// nulled.
fn without_planner(artifact: &RunArtifact) -> String {
    let mut doc = artifact.to_json();
    doc.set("planner", Json::Null);
    doc.to_string_pretty()
}

/// A cached rerun renders exactly what the simulating campaign rendered,
/// text and artifacts alike, on both tiers: every record field an artifact
/// formats survives the cache, a sampled run's tier record included.
#[test]
fn cached_reruns_render_the_simulating_campaigns_artifacts() {
    let scenarios: Vec<_> = ["fig6_speedups", "fig8_ipc_breakdown", "simpoint_sampled"]
        .into_iter()
        .map(|name| lf_bench::engine::by_name(name).unwrap())
        .collect();
    let scenarios: Vec<&dyn Scenario> = scenarios.iter().map(|s| s.as_ref()).collect();
    for tier in [Tier::Detailed, Tier::Sampled] {
        let dir = scratch_dir(&format!("cached-artifacts-{}", tier.tag()));
        let campaign = || {
            let mut opts = opts_for("stencil_blur");
            opts.tier = tier;
            opts.jobs = 2;
            opts.disk_cache = Some(DiskCache::new(dir.clone()));
            run_scenarios(&scenarios, &opts)
        };
        let cold = campaign();
        let cached = campaign();
        let tag = tier.tag();
        assert_eq!(cold.report.disk_hits, 0, "{tag}");
        assert!(cold.report.simulated > 0, "{tag}");
        assert_eq!(cached.report.disk_hits, cached.report.unique, "{tag}");
        assert_eq!(cached.report.simulated + cached.report.served, 0, "{tag}");
        assert!(cold.failures.is_empty() && cached.failures.is_empty(), "{tag}");
        for (a, b) in cold.scenarios.iter().zip(&cached.scenarios) {
            assert_eq!(a.text, b.text, "{} on {tag}", a.name);
            assert_eq!(
                without_planner(&a.artifact),
                without_planner(&b.artifact),
                "{} on {tag}",
                a.name
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Cache probes classify alike serially and on the pool: on a cache
/// holding one corrupt and one stale entry, a `-j 1` and a `-j 4` campaign
/// count the same hits, corrupt, quarantined and stale entries, and render
/// what the campaign that filled the cache rendered.
#[test]
fn serial_and_pooled_probes_classify_alike() {
    let scenario = lf_bench::engine::by_name("fig9_ssb_size").unwrap();
    let filled = scratch_dir("probes-filled");
    let mut opts = opts_for("stencil_blur");
    opts.disk_cache = Some(DiskCache::new(filled.clone()));
    let cold = run_scenarios(&[scenario.as_ref()], &opts);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&filled)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), cold.report.unique);
    std::fs::write(&entries[0], "{ \"truncated\": ").unwrap();
    let current = format!("\"schema_version\": {SCHEMA_VERSION}");
    let text = std::fs::read_to_string(&entries[1]).unwrap();
    assert!(text.contains(&current));
    std::fs::write(&entries[1], text.replace(&current, "\"schema_version\": 3")).unwrap();

    let campaign = |jobs: usize| {
        let dir = scratch_dir(&format!("probes-j{jobs}"));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in &entries {
            std::fs::copy(entry, dir.join(entry.file_name().unwrap())).unwrap();
        }
        let mut opts = opts_for("stencil_blur");
        opts.jobs = jobs;
        opts.disk_cache = Some(DiskCache::new(dir.clone()));
        let out = run_scenarios(&[scenario.as_ref()], &opts);
        std::fs::remove_dir_all(&dir).ok();
        out
    };
    let (serial, pooled) = (campaign(1), campaign(4));
    for (jobs, out) in [(1, &serial), (4, &pooled)] {
        let f = &out.report.faults;
        assert_eq!(
            (out.report.disk_hits, f.cache_corrupt, f.quarantined, f.cache_schema_mismatch),
            (cold.report.unique - 2, 1, 1, 1),
            "-j {jobs}"
        );
        assert!(out.failures.is_empty(), "-j {jobs}");
        assert_eq!(out.scenarios[0].text, cold.scenarios[0].text, "-j {jobs}");
        let artifact = without_planner(&out.scenarios[0].artifact);
        assert_eq!(artifact, without_planner(&cold.scenarios[0].artifact), "-j {jobs}");
    }
    std::fs::remove_dir_all(&filled).ok();
}

/// Rendered text and artifacts depend on neither `-j` nor the cache. The
/// serial side runs on a fresh disk cache and the parallel side on none.
/// fig9's SSB sweep over one kernel yields 5 unique runs (the shared
/// baseline plus four LoopFrog sizes), enough to exercise the pool.
/// fig6 on the sampled tier runs one kernel's baseline and LoopFrog
/// estimates, so a sampled record that depended on what the cache held
/// when it was simulated would differ between the two sides.
#[test]
fn parallel_output_is_byte_identical_to_serial() {
    for (name, tier, unique) in
        [("fig9_ssb_size", Tier::Detailed, 5), ("fig6_speedups", Tier::Sampled, 2)]
    {
        let scenario = lf_bench::engine::by_name(name).unwrap();
        let dir = scratch_dir(&format!("serial-{name}"));
        let run_with = |jobs: usize, cache: Option<DiskCache>| {
            let mut opts = opts_for("stencil_blur");
            opts.jobs = jobs;
            opts.tier = tier;
            opts.disk_cache = cache;
            run_scenarios(&[scenario.as_ref()], &opts)
        };
        let serial = run_with(1, Some(DiskCache::new(dir.clone())));
        let parallel = run_with(4, None);

        assert_eq!(serial.report.unique, unique, "{name}");
        assert_eq!(parallel.report.unique, unique, "{name}");
        assert!(serial.failures.is_empty() && parallel.failures.is_empty(), "{name}");
        assert_eq!(
            serial.scenarios[0].text, parallel.scenarios[0].text,
            "{name}: rendered text must not depend on -j or the cache"
        );
        // Artifacts match too, modulo the planner telemetry.
        assert_eq!(
            without_planner(&serial.scenarios[0].artifact),
            without_planner(&parallel.scenarios[0].artifact),
            "{name}: artifacts must not depend on -j or the cache"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The SimPoint scenarios plan their estimates as runs next to their
/// shared ground truth, so render only formats. On the detailed tier the
/// two estimates are runs of their own; on the sampled tier the sampled
/// estimate is the ground truth and dedupes with it. A second campaign on
/// the same cache simulates nothing and renders the same text. No
/// campaign stores checkpoint plans: the cache holds only run entries.
#[test]
fn simpoint_estimates_are_planned_runs() {
    let check = lf_bench::engine::by_name("simpoint_check").unwrap();
    let sampled = lf_bench::engine::by_name("simpoint_sampled").unwrap();
    let scenarios = [check.as_ref(), sampled.as_ref()];
    for (tier, unique) in [(Tier::Detailed, 3), (Tier::Sampled, 2)] {
        let dir = scratch_dir(&format!("simpoint-{}", tier.tag()));
        let campaign = || {
            let mut opts = opts_for("stencil_blur");
            opts.tier = tier;
            opts.disk_cache = Some(DiskCache::new(dir.clone()));
            let sims = counting_hook(&mut opts);
            let output = run_scenarios(&scenarios, &opts);
            let simulated = sims.load(Ordering::SeqCst);
            (output, simulated)
        };
        let (first, simulated) = campaign();
        assert_eq!(first.report.requests, 4, "{tier:?}: ground truth + estimate, twice");
        assert_eq!(first.report.unique, unique, "{tier:?}");
        assert_eq!(simulated, unique, "{tier:?}: each unique run simulates once");
        assert!(first.failures.is_empty(), "{tier:?}");
        for s in &first.scenarios {
            let row = s.text.lines().find(|l| l.starts_with("stencil_blur")).unwrap();
            assert!(row.ends_with('%') || row.ends_with('x'), "{tier:?}: {row}");
        }
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries.len(), unique, "{tier:?}: one entry per run: {entries:?}");
        for name in &entries {
            let stem = name.strip_suffix(".json").unwrap_or_else(|| panic!("{tier:?}: {name}"));
            assert!(
                stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_hexdigit()),
                "{tier:?}: {name} is not a run entry"
            );
        }

        let (second, resimulated) = campaign();
        assert_eq!(resimulated, 0, "{tier:?}: a cached campaign simulates nothing");
        for (a, b) in first.scenarios.iter().zip(&second.scenarios) {
            assert_eq!(a.text, b.text, "{tier:?}: {} renders from the cache alike", a.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A campaign's phase spans are plan, prepare, dedupe, cache, simulate
/// and render, each starting after the previous one ends.
#[test]
fn phase_spans_follow_the_pipeline_without_overlap() {
    let scenario = SuiteScenario("spans");
    let mut opts = opts_for("stencil_blur");
    let log = Arc::new(SpanLog::new());
    opts.spans = Some(log.clone());
    run_scenarios(&[&scenario], &opts);
    let phases: Vec<_> = log.events().into_iter().filter(|e| e.cat == "phase").collect();
    let order = ["plan", "prepare", "dedupe", "cache", "simulate", "render"];
    assert_eq!(phases.len(), order.len(), "{phases:?}");
    let span = |name: &str| {
        let mut found = phases.iter().filter(|e| e.name == name);
        let e = found.next().unwrap_or_else(|| panic!("no {name} phase span: {phases:?}"));
        assert!(found.next().is_none(), "two {name} phase spans");
        (e.ts_us, e.ts_us + e.dur_us)
    };
    for pair in order.windows(2) {
        let ((_, end), (start, _)) = (span(pair[0]), span(pair[1]));
        assert!(
            end <= start,
            "{} ends at {end} us, after {} starts at {start} us",
            pair[0],
            pair[1]
        );
    }
}

/// A cold campaign's phase spans account for at least 95% of its
/// `total_wall_ms`: nothing the campaign waits for runs outside a phase.
/// The wall time is in whole milliseconds, so the campaign must simulate
/// (a cached one takes a few) for the ratio to resolve.
#[test]
fn phase_spans_cover_a_cold_campaign() {
    let dir = scratch_dir("span-coverage");
    let scenario = lf_bench::engine::by_name("fig6_speedups").expect("registered scenario");
    let mut opts = opts_for("stencil_blur");
    opts.jobs = 2;
    opts.disk_cache = Some(DiskCache::new(dir.clone()));
    let log = Arc::new(SpanLog::new());
    opts.spans = Some(log.clone());
    let output = run_scenarios(&[scenario.as_ref()], &opts);
    assert_eq!(output.report.simulated, 2, "a cold campaign simulates");
    let covered_us: u64 = log.events().iter().filter(|e| e.cat == "phase").map(|e| e.dur_us).sum();
    let wall_us = output.report.total_wall_ms * 1000;
    assert!(
        covered_us * 100 >= wall_us * 95,
        "phase spans cover {covered_us} us of a {wall_us} us campaign"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs fig9's size sweep and §6.6's associativity study over
/// `astar_heap` on `tier` twice on one cache, and returns the first
/// campaign's `(simulated, served)`. Both declare 9 unique runs: the
/// baseline and one family of 8 LoopFrog geometries. Workspace test
/// builds also simulate each served run and fail it unless the outcomes
/// match, so the first campaign must fail nothing; it writes one cache
/// entry per unique run, and the second serves all 9 from the cache,
/// builds no sampling state and renders the same text. Returns the first
/// campaign's simulated and served counts and its sampled work.
fn serve_astar_heap_geometries(tier: Tier) -> (usize, usize, SampledWork) {
    let scenarios = ["fig9_ssb_size", "assoc_sensitivity"]
        .map(|n| lf_bench::engine::by_name(n).unwrap_or_else(|| panic!("{n} is registered")));
    let refs: Vec<&dyn Scenario> = scenarios.iter().map(|s| s.as_ref()).collect();
    let dir = scratch_dir(&format!("geometry-families-{}", tier.tag()));
    let campaign = || {
        let mut opts = opts_for("astar_heap");
        opts.jobs = 2;
        opts.tier = tier;
        opts.disk_cache = Some(DiskCache::new(dir.clone()));
        let sims = counting_hook(&mut opts);
        let output = run_scenarios(&refs, &opts);
        let simulated = sims.load(Ordering::SeqCst);
        (output, simulated)
    };
    let (first, simulated) = campaign();
    let r = &first.report;
    assert_eq!((r.unique, r.disk_hits), (9, 0), "{tier:?}");
    assert_eq!(r.simulated + r.served, 9, "{tier:?}");
    assert_eq!(simulated, r.simulated, "{tier:?}: served runs never fire the simulation hook");
    assert!(first.failures.is_empty(), "{tier:?}: {:?}", first.failures);
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 9, "{tier:?}: one cache entry per unique run");

    let (second, resimulated) = campaign();
    let r2 = &second.report;
    assert_eq!((r2.disk_hits, r2.simulated, r2.served), (9, 0, 0), "{tier:?}");
    assert_eq!(r2.sampled, SampledWork::default(), "{tier:?}");
    assert_eq!(resimulated, 0, "{tier:?}");
    for (a, b) in first.scenarios.iter().zip(&second.scenarios) {
        assert_eq!(a.text, b.text, "{tier:?}: {} renders from the cache alike", a.name);
    }
    std::fs::remove_dir_all(&dir).ok();
    (r.simulated, r.served, r.sampled)
}

/// One simulation answers every SSB geometry it fits. The 32 KiB run
/// represents `astar_heap`'s family, and its footprint serves the 8 KiB,
/// 2 KiB and four associativity variants; at 512 B the slices overflow,
/// so that run simulates, as does the baseline.
#[test]
fn geometry_siblings_are_served_from_one_footprint() {
    assert_eq!(serve_astar_heap_geometries(Tier::Detailed), (3, 6, SampledWork::default()));
}

/// The sampled tier serves geometry siblings too: the 32 KiB estimate's
/// windows are recorded, and their footprints appended serve every
/// sibling they fit. The three simulated runs share one plan and one
/// warm state per pick: all of them use the default memory configuration.
#[test]
fn sampled_geometry_siblings_are_served_from_their_windows_footprints() {
    let (simulated, served, work) = serve_astar_heap_geometries(Tier::Sampled);
    assert_eq!((simulated, served), (3, 6));
    assert_eq!(work.plans, 1, "{work:?}");
    assert!(work.warm_states > 0, "{work:?}");
    assert_eq!(work.windows, 3 * work.warm_states, "each run restores every pick once: {work:?}");
}

/// LoopFrog requests that differ from the default only in their conflict
/// sets or deselection: exact sets (the default), Swarm-sized 4,096-bit
/// filters with 4 hashes, 64-bit filters with 1 hash, and dynamic
/// deselection on.
fn decision_variants() -> Vec<LoopFrogConfig> {
    let with = |edit: &dyn Fn(&mut LoopFrogConfig)| {
        let mut cfg = LoopFrogConfig::default();
        edit(&mut cfg);
        cfg
    };
    vec![
        LoopFrogConfig::default(),
        with(&|c| c.ssb.bloom = Some((4096, 4))),
        with(&|c| c.ssb.bloom = Some((64, 1))),
        with(&|c| c.deselect.enabled = true),
    ]
}

/// Declares the [`decision_variants`] of every kernel, and no baseline.
struct DecisionVariants;

impl Scenario for DecisionVariants {
    fn name(&self) -> &'static str {
        "decision_variants"
    }
    fn title(&self) -> &'static str {
        "test scenario (conflict-set and deselection variants)"
    }
    fn plan(&self, p: &mut Planner<'_>) {
        for w in p.kernels() {
            for cfg in decision_variants() {
                p.request(w.name, Hinting::Annotated, &cfg);
            }
        }
    }
    fn render(&self, ctx: &EngineCtx<'_>, _out: &mut String) -> RunArtifact {
        RunArtifact::new(self.name(), ctx.scale())
    }
}

/// One simulation answers the filter and deselection variants that decide
/// as it does. `hash_lookup`'s exact-set run represents the family: its
/// 4,096-bit filter and deselection shadows never diverge, so it serves
/// both, while 64-bit, 1-hash filters alias and simulate. Each cached
/// outcome equals a direct simulation of its own config; workspace builds
/// also check each served run as it is served.
fn serve_decision_siblings(tier: Tier) {
    const KERNEL: &str = "hash_lookup";
    let dir = scratch_dir(&format!("decision-families-{}", tier.tag()));
    let mut opts = opts_for(KERNEL);
    opts.jobs = 2;
    opts.tier = tier;
    opts.disk_cache = Some(DiskCache::new(dir.clone()));
    let sims = counting_hook(&mut opts);
    let output = run_scenarios(&[&DecisionVariants], &opts);
    let r = &output.report;
    assert_eq!((r.unique, r.simulated, r.served), (4, 2, 2), "{tier:?}");
    assert_eq!(sims.load(Ordering::SeqCst), 2, "{tier:?}");
    assert!(output.failures.is_empty(), "{tier:?}: {:?}", output.failures);

    let w = lf_workloads::by_name(KERNEL, Scale::Smoke).unwrap();
    let prep = PreparedKernel::prepare(w, &Hinting::Annotated);
    let cache = DiskCache::new(dir.clone());
    let mut sampled = SampledKernel::default();
    let records: Vec<_> = decision_variants()
        .iter()
        .map(|cfg| {
            let fp = prep.request_fingerprint_tiered(cfg, tier);
            let CacheLookup::Hit(stored) = cache.lookup(fp) else {
                panic!("{tier:?}: no entry for {cfg:?}")
            };
            let direct = match tier {
                Tier::Sampled => {
                    sampled.run(fp, &prep.program, &prep.workload.mem, cfg, &[]).unwrap().0
                }
                _ => {
                    let result = simulate(&prep.program, prep.workload.mem.clone(), cfg.clone());
                    RunOutcome::from_result(fp, result.unwrap(), cfg)
                }
            };
            assert_eq!(stored.checksum, direct.checksum, "{tier:?}: {:?}", cfg.ssb.bloom);
            assert!(stored.record == direct.record, "{tier:?}: {cfg:?} differs from a simulation");
            stored.record
        })
        .collect();
    // The served variants record the exact run's outcome; the aliasing
    // filter records another, so it was simulated.
    assert!(records[1] == records[0] && records[3] == records[0], "{tier:?}");
    assert!(records[2] != records[0], "{tier:?}: 64-bit filters ran as exact sets do");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn filter_and_deselection_siblings_are_served_from_one_footprint() {
    serve_decision_siblings(Tier::Detailed);
}

#[test]
fn sampled_filter_and_deselection_siblings_are_served_from_their_windows_footprints() {
    serve_decision_siblings(Tier::Sampled);
}

/// Run fingerprints of `stencil_blur` at smoke scale. The detailed and
/// sampled cells were recorded before prepared kernels memoized their
/// program and memory hashes, the `simpoint-check` cells when that tier
/// was added. They name existing run-cache entries and `failures.json`
/// records, so a change to any of them invalidates every user's cache.
const PINNED_FINGERPRINTS: [(&str, u64); 12] = [
    ("annotated/lf/detailed", 0xbd66af028e01f054),
    ("annotated/lf/sampled", 0x6b3ddee3f833876e),
    ("annotated/lf/simpoint-check", 0x0e8bcf848baeb93f),
    ("annotated/base/detailed", 0xe34f03d256245da8),
    ("annotated/base/sampled", 0xd0cef648cfea3477),
    ("annotated/base/simpoint-check", 0xb133a8762909c9b8),
    ("raw/lf/detailed", 0x91e0d4fda917b4c1),
    ("raw/lf/sampled", 0xfdb8b695ef441bbc),
    ("raw/lf/simpoint-check", 0x12da208c3a13a13d),
    ("raw/base/detailed", 0xaf13ce90852b23a1),
    ("raw/base/sampled", 0x2658a3c0617f1e5b),
    ("raw/base/simpoint-check", 0x9b8878abdd80b174),
];

#[test]
fn raw_and_annotated_hintings_fingerprint_apart() {
    let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
    let mut seen = Vec::new();
    for (hinting_name, hinting) in
        [("annotated", Hinting::default_annotated()), ("raw", Hinting::Raw)]
    {
        let prep = PreparedKernel::prepare(w.clone(), &hinting);
        for (cfg_name, cfg) in
            [("lf", LoopFrogConfig::default()), ("base", LoopFrogConfig::baseline())]
        {
            for tier in [Tier::Detailed, Tier::Sampled, Tier::SimpointCheck] {
                let cell = format!("{hinting_name}/{cfg_name}/{}", tier.tag());
                let memoized = prep.request_fingerprint_tiered(&cfg, tier);
                let from_scratch = run_fingerprint_tiered(
                    &prep.program,
                    &prep.workload.mem,
                    &cfg,
                    Scale::Smoke,
                    tier,
                );
                assert_eq!(
                    memoized, from_scratch,
                    "{cell}: memoized identity drifted from the formula"
                );
                let pinned = PINNED_FINGERPRINTS.iter().find(|(c, _)| *c == cell).unwrap().1;
                assert_eq!(memoized, pinned, "{cell}: fingerprint changed ({memoized:#018x})");
                if tier == Tier::Detailed {
                    assert_eq!(prep.request_fingerprint(&cfg), memoized, "{cell}");
                }
                seen.push(memoized);
            }
        }
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), PINNED_FINGERPRINTS.len(), "every cell is a distinct run");
}

#[test]
fn unmatched_filter_is_rejected_before_any_file_is_written() {
    for workers in ["1", "2"] {
        let dir = scratch_dir(&format!("unmatched-filter-{workers}"));
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_lf-bench"))
            .args(["run", "--all", "--filter", "zzz", "--workers", workers, "--json", "results"])
            .args(["--cache-dir", "cache"])
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--workers {workers}: {stderr}");
        assert!(stderr.contains("matches no kernel"), "{stderr}");
        for kernel in lf_workloads::all(Scale::Smoke) {
            assert!(stderr.contains(kernel.name), "kernel list misses {}: {stderr}", kernel.name);
        }
        assert!(out.stdout.is_empty(), "nothing rendered");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "--workers {workers} wrote {written:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

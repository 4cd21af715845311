//! Integration tests for the experiment engine's run planner: cross-
//! scenario deduplication, fingerprint sensitivity and stability, on-disk
//! memoization with schema invalidation, `-j` and cache independence of
//! the artifacts (cached reruns on both tiers, serial and pooled cache
//! probes), runs requested on an explicit tier, geometry, filter and
//! deselection siblings served from one footprint, the campaign's phase
//! spans and their coverage of its wall time, preparation records (stale,
//! corrupt and contradicted ones, and partially cached campaigns that
//! prepare only what simulates), and the rejection of a `--filter` that
//! selects no kernel.

mod common;

use common::ScratchDir;
use lf_bench::artifact::SCHEMA_VERSION;
use lf_bench::engine::cache::{CacheLookup, DiskCache, BUILD_ID};
use lf_bench::engine::planner::{Hinting, Planner, PreparedKernel};
use lf_bench::engine::spans::SpanLog;
use lf_bench::engine::{run_scenarios, EngineCtx, EngineOptions, Scenario};
use lf_bench::tiered::{SampledKernel, SampledWork};
use lf_bench::{run_fingerprint, run_fingerprint_tiered, RunArtifact, RunConfig, RunOutcome, Tier};
use lf_stats::Json;
use lf_workloads::Scale;
use loopfrog::{simulate, LoopFrogConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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

fn scratch_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(
        std::env::temp_dir().join(format!("lf-bench-planner-test-{}-{tag}", std::process::id())),
    )
}

/// The run entries (`<16 hex>.json`) of the cache directory `dir`, by
/// name, with their bytes.
fn run_entries(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.strip_suffix(".json")
                .is_some_and(|stem| stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_hexdigit()))
        })
        .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(p).unwrap()))
        .collect()
}

/// The preparation records of the cache directory `dir`, by name.
fn records(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir.join("prepared")) else { return Vec::new() };
    let mut names: Vec<String> =
        entries.map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect();
    names.sort();
    names
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
    opts.disk_cache = Some(DiskCache::new(&*dir));
    let sims_first = counting_hook(&mut opts);
    let first = run_scenarios(&[&scenario], &opts);
    assert_eq!(first.report.disk_hits, 0);
    assert_eq!(sims_first.load(Ordering::SeqCst), 2);

    // Second engine run: everything served from disk, nothing simulated,
    // identical render.
    let mut opts2 = opts_for("stencil_blur");
    opts2.disk_cache = Some(DiskCache::new(&*dir));
    let sims_second = counting_hook(&mut opts2);
    let second = run_scenarios(&[&scenario], &opts2);
    assert_eq!(second.report.disk_hits, 2);
    assert_eq!(second.report.simulated, 0);
    assert_eq!(sims_second.load(Ordering::SeqCst), 0);
    assert_eq!(first.scenarios[0].text, second.scenarios[0].text);

    // A schema bump invalidates every entry: the engine re-simulates.
    let mut opts3 = opts_for("stencil_blur");
    opts3.disk_cache = Some(DiskCache::with_schema(&*dir, SCHEMA_VERSION + 1));
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
            opts.disk_cache = Some(DiskCache::new(&*dir));
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
    opts.disk_cache = Some(DiskCache::new(&*filled));
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
        opts.disk_cache = Some(DiskCache::new(&*dir));
        let out = run_scenarios(&[scenario.as_ref()], &opts);
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
        let serial = run_with(1, Some(DiskCache::new(&*dir)));
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
    }
}

/// The SimPoint scenarios plan their estimates as runs next to their
/// shared ground truth, so render only formats. On the detailed tier the
/// two estimates are runs of their own; on the sampled tier the sampled
/// estimate is the ground truth and dedupes with it. A second campaign on
/// the same cache simulates nothing and renders the same text. No
/// campaign stores checkpoint plans: the cache holds only run entries and
/// the one kernel's preparation record.
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
            opts.disk_cache = Some(DiskCache::new(&*dir));
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
        let entries = run_entries(&dir);
        assert_eq!(entries.len(), unique, "{tier:?}: one entry per run: {entries:?}");
        let others: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| !entries.contains_key(name))
            .collect();
        assert_eq!(others, ["prepared"], "{tier:?}: the cache holds run entries and records only");
        assert_eq!(records(&dir), ["stencil_blur.smoke.annotated.json"], "{tier:?}");

        let (second, resimulated) = campaign();
        assert_eq!(resimulated, 0, "{tier:?}: a cached campaign simulates nothing");
        for (a, b) in first.scenarios.iter().zip(&second.scenarios) {
            assert_eq!(a.text, b.text, "{tier:?}: {} renders from the cache alike", a.name);
        }
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
    opts.disk_cache = Some(DiskCache::new(&*dir));
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
}

/// Runs fig9's size sweep and §6.6's associativity study over
/// `astar_heap` on `tier` twice on one cache, and returns the first
/// campaign's `(simulated, served)`. Both declare 9 unique runs: the
/// baseline and one family of 8 LoopFrog geometries. Workspace test
/// builds also simulate each served run and fail it unless the outcomes
/// match, so the first campaign must fail nothing; it writes one cache
/// entry per unique run and the kernel's preparation record, and the
/// second serves all 9 from the cache,
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
        opts.disk_cache = Some(DiskCache::new(&*dir));
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
    assert_eq!(run_entries(&dir).len(), 9, "{tier:?}: one cache entry per unique run");
    assert_eq!(records(&dir), ["astar_heap.smoke.annotated.json"], "{tier:?}");

    let (second, resimulated) = campaign();
    let r2 = &second.report;
    assert_eq!((r2.disk_hits, r2.simulated, r2.served), (9, 0, 0), "{tier:?}");
    assert_eq!(r2.sampled, SampledWork::default(), "{tier:?}");
    assert_eq!(resimulated, 0, "{tier:?}");
    for (a, b) in first.scenarios.iter().zip(&second.scenarios) {
        assert_eq!(a.text, b.text, "{tier:?}: {} renders from the cache alike", a.name);
    }
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
    opts.disk_cache = Some(DiskCache::new(&*dir));
    let sims = counting_hook(&mut opts);
    let output = run_scenarios(&[&DecisionVariants], &opts);
    let r = &output.report;
    assert_eq!((r.unique, r.simulated, r.served), (4, 2, 2), "{tier:?}");
    assert_eq!(sims.load(Ordering::SeqCst), 2, "{tier:?}");
    assert!(output.failures.is_empty(), "{tier:?}: {:?}", output.failures);

    let w = lf_workloads::by_name(KERNEL, Scale::Smoke).unwrap();
    let prep = PreparedKernel::prepare(w, &Hinting::Annotated);
    let program = prep.program().expect("a full preparation holds its program");
    let cache = DiskCache::new(&*dir);
    let mut sampled = SampledKernel::default();
    let records: Vec<_> = decision_variants()
        .iter()
        .map(|cfg| {
            let fp = prep.request_fingerprint_tiered(cfg, tier);
            let CacheLookup::Hit(stored) = cache.lookup(fp) else {
                panic!("{tier:?}: no entry for {cfg:?}")
            };
            let direct = match tier {
                Tier::Sampled => sampled.run(fp, program, &prep.workload.mem, cfg, &[]).unwrap().0,
                _ => {
                    let result = simulate(program, prep.workload.mem.clone(), cfg.clone());
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
                    prep.program().expect("a full preparation holds its program"),
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

/// `stencil_blur`'s suite runs on a fresh cache in `dir`, serially.
fn suite_campaign(dir: &Path) -> lf_bench::engine::EngineOutput {
    let mut opts = opts_for("stencil_blur");
    opts.disk_cache = Some(DiskCache::new(dir));
    run_scenarios(&[&SuiteScenario("records")], &opts)
}

/// The preparation record the suite campaign writes.
const SUITE_RECORD: &str = "prepared/stencil_blur.smoke.annotated.json";

/// A preparation record another build wrote is not used: the pair is
/// prepared in full, counted stale, and its record overwritten with this
/// build's, which the next campaign reads.
#[test]
fn a_record_from_another_build_is_not_used_and_is_overwritten() {
    let dir = scratch_dir("stale-record");
    let cold = suite_campaign(&dir);
    let r = &cold.report;
    assert_eq!((r.prepared, r.prepared_from_records, r.prepared_in_full), (1, 0, 1));
    let path = dir.join(SUITE_RECORD);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(BUILD_ID), "{text}");
    std::fs::write(&path, text.replace(BUILD_ID, "0000000000000000")).unwrap();

    let rerun = suite_campaign(&dir);
    let r = &rerun.report;
    assert_eq!((r.prepared_from_records, r.prepared_in_full, r.faults.records_stale), (0, 1, 1));
    assert_eq!((r.disk_hits, r.simulated), (2, 0));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "the record is overwritten");
    assert_eq!(rerun.scenarios[0].text, cold.scenarios[0].text);

    let third = suite_campaign(&dir);
    let r = &third.report;
    assert_eq!((r.prepared_from_records, r.prepared_in_full, r.faults.records_stale), (1, 0, 0));
}

/// A record that does not decode, or names another key, is quarantined
/// and counted; its kernel is prepared in full, the campaign renders what
/// it rendered before, and the record is written afresh.
#[test]
fn a_corrupt_record_is_quarantined_and_its_kernel_prepared_in_full() {
    let dir = scratch_dir("corrupt-record");
    let cold = suite_campaign(&dir);
    let path = dir.join(SUITE_RECORD);
    let text = std::fs::read_to_string(&path).unwrap();
    for bad in [text[..text.len() / 3].to_string(), text.replace("smoke", "eval")] {
        std::fs::write(&path, &bad).unwrap();
        let rerun = suite_campaign(&dir);
        let r = &rerun.report;
        assert_eq!(
            (r.prepared_from_records, r.prepared_in_full, r.faults.records_corrupt),
            (0, 1, 1)
        );
        assert_eq!((r.disk_hits, r.simulated), (2, 0));
        assert!(rerun.failures.is_empty());
        assert_eq!(rerun.scenarios[0].text, cold.scenarios[0].text);
        let quarantined = dir.join("quarantine").join(SUITE_RECORD);
        assert_eq!(std::fs::read_to_string(quarantined).unwrap(), bad, "the record is kept aside");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "and written afresh");
    }
}

/// A well-formed record with a wrong code fingerprint never yields a
/// committed outcome. A verify build prepares every recorded kernel in
/// full and fails the pair, naming the record; a package build fails the
/// kernel's runs, which miss the cache under the record's fingerprints,
/// when they simulate. Either way the record is quarantined, no entry is
/// written, and the next campaign serves the cache again.
#[test]
fn a_tampered_record_never_commits_an_outcome() {
    let dir = scratch_dir("tampered-record");
    let cold = suite_campaign(&dir);
    let entries = run_entries(&dir);
    let path = dir.join(SUITE_RECORD);
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&text).unwrap();
    let code = doc.get("code_fingerprint").and_then(Json::as_str).unwrap();
    let wrong = format!("{:016x}", u64::from_str_radix(code, 16).unwrap() ^ 1);
    std::fs::write(&path, text.replace(code, &wrong)).unwrap();

    let tampered = suite_campaign(&dir);
    let f = &tampered.report.faults;
    let expected = if loopfrog::VERIFY { (1, 0, 1) } else { (0, 2, 2) };
    assert_eq!((f.prep_failures, f.sim_errors, tampered.failures.len()), expected);
    for failure in &tampered.failures {
        assert!(failure.error.message().contains(SUITE_RECORD), "{}", failure.error.message());
    }
    assert_eq!(f.records_corrupt, 1);
    assert!(!path.exists() && dir.join("quarantine").join(SUITE_RECORD).exists());
    assert_eq!(run_entries(&dir), entries, "no outcome is committed");

    let healed = suite_campaign(&dir);
    let r = &healed.report;
    assert!(healed.failures.is_empty(), "{:?}", healed.failures);
    assert_eq!((r.disk_hits, r.simulated, r.prepared_in_full), (2, 0, 1));
    assert_eq!(healed.scenarios[0].text, cold.scenarios[0].text);
}

/// Declares the baseline and LoopFrog runs of two annotated kernels and
/// the raw baseline run of one of them, and renders each run's cycles and
/// checksum.
struct TwoKernels;

impl TwoKernels {
    fn runs() -> Vec<(&'static str, Hinting, LoopFrogConfig)> {
        let (base, lf) = (LoopFrogConfig::baseline(), LoopFrogConfig::default());
        vec![
            ("stencil_blur", Hinting::Annotated, base.clone()),
            ("stencil_blur", Hinting::Annotated, lf.clone()),
            ("hash_lookup", Hinting::Annotated, base.clone()),
            ("hash_lookup", Hinting::Annotated, lf),
            ("stencil_blur", Hinting::Raw, base),
        ]
    }
}

impl Scenario for TwoKernels {
    fn name(&self) -> &'static str {
        "two_kernels"
    }
    fn title(&self) -> &'static str {
        "test scenario (two kernels, both hintings)"
    }
    fn plan(&self, p: &mut Planner<'_>) {
        for (kernel, hinting, config) in TwoKernels::runs() {
            p.request(kernel, hinting, &config);
        }
    }
    fn render(&self, ctx: &EngineCtx<'_>, out: &mut String) -> RunArtifact {
        for (kernel, hinting, config) in TwoKernels::runs() {
            let run = ctx.try_outcome(kernel, &hinting, &config).expect("the run succeeded");
            let (cycles, checksum) = (run.stats.cycles, run.checksum);
            out.push_str(&format!("{kernel} {} {cycles} {checksum:016x}\n", hinting.tag()));
        }
        RunArtifact::new(self.name(), ctx.scale())
    }
}

/// A partially cached campaign prepares only the kernels of its missing
/// runs, on both tiers: with `hash_lookup`'s two entries deleted, every
/// pair's identity comes from its record, only `hash_lookup` is prepared
/// in full, and the campaign renders and re-creates exactly what the cold
/// campaign did.
#[test]
fn partially_cached_campaigns_prepare_only_the_kernels_that_simulate() {
    let hash_lookup = PreparedKernel::prepare(
        lf_workloads::by_name("hash_lookup", Scale::Smoke).unwrap(),
        &Hinting::Annotated,
    );
    for tier in [Tier::Detailed, Tier::Sampled] {
        let dir = scratch_dir(&format!("partial-{}", tier.tag()));
        let campaign = || {
            let mut opts = EngineOptions::new(Scale::Smoke);
            opts.tier = tier;
            opts.jobs = 2;
            opts.disk_cache = Some(DiskCache::new(&*dir));
            run_scenarios(&[&TwoKernels], &opts)
        };
        let cold = campaign();
        let r = &cold.report;
        assert_eq!(
            (r.prepared, r.prepared_from_records, r.prepared_in_full),
            (3, 0, 3),
            "{tier:?}"
        );
        assert_eq!(records(&dir).len(), 3, "{tier:?}");
        let entries = run_entries(&dir);
        let cache = DiskCache::new(&*dir);
        for config in [LoopFrogConfig::baseline(), LoopFrogConfig::default()] {
            let fingerprint = hash_lookup.request_fingerprint_tiered(&config, tier);
            std::fs::remove_file(cache.entry_path(fingerprint)).unwrap();
        }

        let partial = campaign();
        let r = &partial.report;
        assert_eq!(
            (r.prepared, r.prepared_from_records, r.prepared_in_full),
            (3, 3, 1),
            "{tier:?}"
        );
        assert_eq!((r.disk_hits, r.simulated + r.served), (r.unique - 2, 2), "{tier:?}");
        assert!(partial.failures.is_empty(), "{tier:?}: {:?}", partial.failures);
        assert_eq!(partial.scenarios[0].text, cold.scenarios[0].text, "{tier:?}");
        assert_eq!(
            run_entries(&dir),
            entries,
            "{tier:?}: the entries are re-created byte for byte"
        );
    }
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
    }
}

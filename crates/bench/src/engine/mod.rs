//! The unified experiment engine.
//!
//! Every figure and table of the reproduction is a [`Scenario`]: a named
//! experiment that *declares* the simulations it needs ([`Scenario::plan`])
//! and *renders* its tables and JSON artifact from the returned outcomes
//! ([`Scenario::render`]). The engine collects the requests of all selected
//! scenarios, deduplicates them by content fingerprint — the headline
//! experiments overwhelmingly share the same default-config suite — and
//! executes only the unique set on a worker pool, optionally memoized
//! through an on-disk cache. Every simulation is a planned run, so
//! rendering only formats; it happens serially, in registry order, so
//! output is byte-identical regardless of `-j`.
//!
//! ```text
//! plan (all scenarios) → prepare kernels → fingerprint + dedupe
//!   → load disk cache → simulate + store each miss, serving the
//!     decision siblings a footprint fits (parallel) → render (serial)
//! ```
//!
//! Campaigns are fault-tolerant end to end: a panicking worker, a
//! livelocked simulation, or a corrupt cache entry costs exactly the
//! affected run, which becomes a structured [`fault::RunFailure`] (with a
//! repro command) while every other run proceeds. Scenarios render
//! partial tables with explicit `FAILED(<fingerprint>)` cells, and the
//! full failure list lands in `failures.json`. Failed runs are never
//! cached, so a plain rerun re-executes only what previously failed
//! (successes are served from the cache).

pub mod cache;
pub mod cli;
pub mod fault;
pub mod planner;
pub mod pool;
pub mod scenarios;
pub mod signals;
pub mod spans;
pub mod supervise;

use crate::runner::{scale_tag, KernelRun, RunConfig, RunOutcome};
use crate::tiered::{SampledWork, Tier};
use crate::RunArtifact;
use cache::{CacheLookup, DiskCache};
use fault::{FaultPlan, FaultStats, RunBudget, RunError, RunFailure};
use lf_stats::Json;
use lf_workloads::{Scale, Workload};
use loopfrog::LoopFrogConfig;
use planner::{dedupe, execute, prepare_kernels, Hinting, Planner, PrepKey, PreparedKernel};
use pool::WorkerPanic;
use spans::{DurationSummary, SpanLog};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One experiment: a registered figure/table reproduction.
pub trait Scenario: Sync {
    /// CLI name (stable; `lf-bench run <name>`).
    fn name(&self) -> &'static str;
    /// One-line human title printed above the rendered output.
    fn title(&self) -> &'static str;
    /// Declares every simulation this scenario needs against the engine's
    /// (possibly filtered) kernel suite. Must be deterministic and must
    /// not simulate anything itself.
    fn plan(&self, p: &mut Planner<'_>);
    /// Renders tables/summaries into `out` and builds the scenario's JSON
    /// artifact from the memoized outcomes in `ctx`. Runs serially and
    /// only formats: anything that needs a simulator is a planned run.
    fn render(&self, ctx: &EngineCtx<'_>, out: &mut String) -> RunArtifact;
}

/// Engine invocation options.
pub struct EngineOptions {
    /// Workload scale for every planned run.
    pub scale: Scale,
    /// Execution tier (`--tier`) for every planned run that does not name
    /// its own. The detailed tier keeps legacy fingerprints, so existing
    /// caches stay valid; the other tiers fingerprint (and cache)
    /// separately.
    pub tier: Tier,
    /// Worker threads for kernel preparation and simulation.
    pub jobs: usize,
    /// Kernel-name substring filter; non-matching kernels are dropped from
    /// the suite before planning.
    pub filter: Option<String>,
    /// On-disk run cache; `None` disables memoization across processes
    /// (`--no-cache`).
    pub disk_cache: Option<DiskCache>,
    /// Test hook: fires once per *simulated* run, with the kernel name —
    /// not for a run served from the disk cache or from a decision
    /// sibling's footprint, nor for the re-simulation that checks a
    /// served run in verify builds. Used to assert each unique fingerprint
    /// simulates at most once.
    pub sim_hook: Option<Arc<dyn Fn(&'static str) + Send + Sync>>,
    /// Per-run execution budget (cycle cap + optional wall-clock
    /// deadline); the watchdog converting livelocks into structured
    /// failures.
    pub budget: RunBudget,
    /// Deterministic fault injection (`--inject-fault`); default inactive.
    pub faults: FaultPlan,
    /// Caller-provided span log (`--trace-out`): phase and per-run spans
    /// are recorded into it for Chrome trace-event export. When `None`,
    /// the engine still records spans into a private log (the per-run
    /// timing summary in [`PlannerReport`] comes from it) but nothing is
    /// exported.
    pub spans: Option<Arc<SpanLog>>,
}

impl EngineOptions {
    /// Options for `scale` with serial execution and no disk cache.
    pub fn new(scale: Scale) -> EngineOptions {
        EngineOptions {
            scale,
            tier: Tier::Detailed,
            jobs: 1,
            filter: None,
            disk_cache: None,
            sim_hook: None,
            budget: RunBudget::default(),
            faults: FaultPlan::default(),
            spans: None,
        }
    }
}

/// Everything a scenario's render phase can consult: the planned suite,
/// the prepared (profiled/annotated) kernels, and the memoized outcome of
/// every requested run.
pub struct EngineCtx<'e> {
    scale: Scale,
    tier: Tier,
    suite: &'e [Workload],
    prepared: HashMap<PrepKey, Arc<PreparedKernel>>,
    outcomes: HashMap<u64, Arc<RunOutcome>>,
    /// Failed runs, by fingerprint.
    failures: HashMap<u64, Arc<RunFailure>>,
    /// Kernels whose preparation (profile + annotate) itself failed; their
    /// dependent runs have no fingerprint.
    prep_failures: HashMap<PrepKey, Arc<RunFailure>>,
}

impl EngineCtx<'_> {
    /// The workload scale of this engine run.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The (possibly filtered) kernel suite, in canonical order.
    pub fn kernels(&self) -> &[Workload] {
        self.suite
    }

    /// The prepared kernel for a `(kernel, hinting)` pair, or `None` if
    /// its preparation failed (or was never requested).
    pub fn try_prepared(
        &self,
        kernel: &'static str,
        hinting: &Hinting,
    ) -> Option<&Arc<PreparedKernel>> {
        self.prepared.get(&(kernel, *hinting))
    }

    /// The memoized outcome of one requested run on the campaign's tier,
    /// or the failure record if it (or its kernel's preparation) failed.
    ///
    /// # Panics
    ///
    /// Panics if the run was never declared during planning — absence is a
    /// scenario bug, not a runtime failure.
    pub fn try_outcome(
        &self,
        kernel: &'static str,
        hinting: &Hinting,
        cfg: &LoopFrogConfig,
    ) -> Result<Arc<RunOutcome>, Arc<RunFailure>> {
        self.try_outcome_tiered(kernel, hinting, cfg, self.tier)
    }

    /// [`EngineCtx::try_outcome`] for a run requested on an explicit tier
    /// ([`Planner::request_tiered`]).
    ///
    /// # Panics
    ///
    /// Panics if the run was never declared during planning.
    pub fn try_outcome_tiered(
        &self,
        kernel: &'static str,
        hinting: &Hinting,
        cfg: &LoopFrogConfig,
        tier: Tier,
    ) -> Result<Arc<RunOutcome>, Arc<RunFailure>> {
        if let Some(f) = self.prep_failure(kernel, hinting) {
            return Err(f.clone());
        }
        let prep = self
            .try_prepared(kernel, hinting)
            .unwrap_or_else(|| panic!("kernel {kernel} was not prepared — did plan() request it?"));
        let fp = prep.request_fingerprint_tiered(cfg, tier);
        if let Some(outcome) = self.outcomes.get(&fp) {
            return Ok(outcome.clone());
        }
        if let Some(failure) = self.failures.get(&fp) {
            return Err(failure.clone());
        }
        panic!("run for {kernel} was not planned (fingerprint {fp:#x})")
    }

    /// The preparation-failure record for a `(kernel, hinting)` pair, if
    /// its profile/annotate step panicked.
    fn prep_failure(&self, kernel: &'static str, hinting: &Hinting) -> Option<&Arc<RunFailure>> {
        self.prep_failures.get(&(kernel, *hinting))
    }

    /// The failure record keeping `kernel` out of the suite view under
    /// `rc`, if any: its preparation failure, or the first of its
    /// baseline/LoopFrog run failures.
    pub fn suite_failure(&self, kernel: &'static str, rc: &RunConfig) -> Option<Arc<RunFailure>> {
        if let Some(f) = self.prep_failure(kernel, &Hinting::Annotated) {
            return Some(f.clone());
        }
        let prep = self.try_prepared(kernel, &Hinting::Annotated)?;
        for cfg in [&LoopFrogConfig::baseline(), &rc.lf] {
            let fp = prep.request_fingerprint_tiered(cfg, self.tier);
            if let Some(f) = self.failures.get(&fp) {
                return Some(f.clone());
            }
        }
        None
    }

    /// Every suite kernel missing from [`EngineCtx::suite_runs`] under
    /// `rc`, with the failure responsible, in canonical suite order.
    pub fn suite_failures(&self, rc: &RunConfig) -> Vec<(&'static str, Arc<RunFailure>)> {
        self.suite
            .iter()
            .filter_map(|w| self.suite_failure(w.name, rc).map(|f| (w.name, f)))
            .collect()
    }

    /// Rows for the failed kernels under `rc`, shaped for a `width`-column
    /// table: kernel name, a `FAILED(<fingerprint>)` cell, then padding.
    /// Scenarios append these below their successful rows so partial
    /// tables stay explicit about what is missing.
    pub fn failed_suite_rows(&self, rc: &RunConfig, width: usize) -> Vec<Vec<String>> {
        self.suite_failures(rc)
            .into_iter()
            .map(|(kernel, f)| {
                let mut row = vec![kernel.to_string(), f.cell()];
                row.resize(width.max(2), "-".to_string());
                row
            })
            .collect()
    }

    /// Appends one explanatory line per failed kernel under `rc` to `out`
    /// and returns the failure records as a JSON array for the scenario's
    /// artifact (`None` when the suite view is complete).
    pub fn note_suite_failures(&self, rc: &RunConfig, out: &mut String) -> Option<Json> {
        let failed = self.suite_failures(rc);
        if failed.is_empty() {
            return None;
        }
        out.push('\n');
        for (kernel, f) in &failed {
            out.push_str(&format!("FAILED {kernel}: {} (repro: {})\n", f.error.message(), f.repro));
        }
        Some(Json::Arr(failed.iter().map(|(_, f)| f.to_json()).collect()))
    }

    /// Sweep-scenario variant of [`EngineCtx::note_suite_failures`]:
    /// appends one line per kernel failed under `rc`, naming the sweep
    /// point `label`, and accumulates the failure records into `acc` for
    /// the scenario's artifact.
    pub fn note_point_failures(
        &self,
        rc: &RunConfig,
        label: &str,
        out: &mut String,
        acc: &mut Vec<Json>,
    ) {
        for (kernel, f) in self.suite_failures(rc) {
            out.push_str(&format!(
                "FAILED {kernel} at {label}: {} ({})\n",
                f.error.message(),
                f.cell()
            ));
            let mut record = f.to_json();
            record.set("sweep_point", label);
            acc.push(record);
        }
    }

    /// Assembles the standard experiment view — one [`KernelRun`] per suite
    /// kernel under `rc` against [`LoopFrogConfig::baseline`], with
    /// profile-guided deselection applied — from
    /// memoized outcomes. The engine-side equivalent of the standalone
    /// [`crate::run_suite`]. Kernels with a failed preparation or run are
    /// omitted (graceful degradation); [`EngineCtx::suite_failures`] lists
    /// them and [`EngineCtx::failed_suite_rows`] renders them.
    pub fn suite_runs(&self, rc: &RunConfig) -> Vec<KernelRun> {
        let (hinting, base) = (Hinting::Annotated, LoopFrogConfig::baseline());
        self.suite
            .iter()
            .filter_map(|w| {
                let prep = self.try_prepared(w.name, &hinting)?;
                let base = self.try_outcome(w.name, &hinting, &base).ok()?;
                let lf = self.try_outcome(w.name, &hinting, &rc.lf).ok()?;
                let golden = prep.golden.expect("annotated preparations carry a golden checksum");
                Some(KernelRun::from_outcomes(
                    &prep.workload,
                    prep.selected_loops,
                    golden,
                    base,
                    lf,
                    rc.deselect_unprofitable,
                ))
            })
            .collect()
    }
}

/// Planner telemetry for one engine invocation: how much the
/// content-addressed deduplication and the caches saved.
#[derive(Debug, Clone)]
pub struct PlannerReport {
    /// Requests declared, per scenario, in registry order.
    pub per_scenario: Vec<(&'static str, usize)>,
    /// Total run requests declared by all scenarios.
    pub requests: usize,
    /// Unique run fingerprints after deduplication.
    pub unique: usize,
    /// Runs served from the on-disk cache.
    pub disk_hits: usize,
    /// Runs actually simulated in this process.
    pub simulated: usize,
    /// Runs committed from a decision sibling's outcome because its
    /// footprint fits them (DESIGN.md §8.4), without being simulated.
    pub served: usize,
    /// Distinct `(kernel, hinting)` preparations (profile + annotate).
    pub prepared: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock milliseconds from planning through the last simulation
    /// (rendering excluded).
    pub execute_wall_ms: u64,
    /// Wall-clock milliseconds for the whole invocation.
    pub total_wall_ms: u64,
    /// Failure counters: failed runs by cause, cache corruption and
    /// quarantine activity, store retries.
    pub faults: FaultStats,
    /// Distribution of per-run simulation wall times (from the campaign
    /// span log; cached runs are not included).
    pub run_wall: DurationSummary,
    /// The sampling plans, warm states and windows this process's pool
    /// items built and measured (DESIGN.md §13.2). A supervisor's workers
    /// report theirs to no one.
    pub sampled: SampledWork,
}

impl PlannerReport {
    /// The machine-readable planner section embedded in artifacts.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        let mut per = Json::obj();
        for (name, n) in &self.per_scenario {
            per.set(name, *n as u64);
        }
        j.set("requests_per_scenario", per);
        j.set("requests", self.requests as u64);
        j.set("unique_runs", self.unique as u64);
        j.set("deduplicated", (self.requests - self.unique) as u64);
        j.set("disk_cache_hits", self.disk_hits as u64);
        j.set("simulated", self.simulated as u64);
        j.set("served", self.served as u64);
        j.set("prepared_kernels", self.prepared as u64);
        j.set("jobs", self.jobs as u64);
        j.set("execute_wall_ms", self.execute_wall_ms);
        j.set("total_wall_ms", self.total_wall_ms);
        j.set("run_wall_us", self.run_wall.to_json());
        j.set("faults", self.faults.to_json());
        let mut sampled = Json::obj();
        sampled.set("plans", self.sampled.plans as u64);
        sampled.set("warm_states", self.sampled.warm_states as u64);
        sampled.set("windows", self.sampled.windows as u64);
        j.set("sampled", sampled);
        j
    }
}

/// One scenario's rendered output.
pub struct ScenarioOutput {
    /// Scenario CLI name.
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The rendered text (tables and summary lines).
    pub text: String,
    /// The JSON artifact (planner section included), formatted only when
    /// written.
    pub artifact: RunArtifact,
}

/// The result of one engine invocation.
pub struct EngineOutput {
    /// Rendered scenarios, in registry order.
    pub scenarios: Vec<ScenarioOutput>,
    /// Planner telemetry.
    pub report: PlannerReport,
    /// Every failure of the campaign (preparation, run, and render), in
    /// deterministic order — the content of `failures.json`.
    pub failures: Vec<Arc<RunFailure>>,
}

/// Plans, deduplicates, executes, and renders `scenarios`.
///
/// Phases: every scenario declares its runs; distinct `(kernel, hinting)`
/// pairs are prepared in parallel; requests resolve to content fingerprints
/// and collapse to the unique set; the disk cache absorbs known outcomes;
/// the remainder simulates on the worker pool; finally each scenario
/// renders serially from the shared outcome table. Identical requests from
/// different scenarios are simulated exactly once.
pub fn run_scenarios(scenarios: &[&dyn Scenario], opts: &EngineOptions) -> EngineOutput {
    let started = Instant::now();
    // The span log records phase and per-run intervals on every campaign
    // (the timing summary in the planner telemetry feeds off it); the
    // caller's log is used when provided so `--trace-out` can export it.
    let span_log: Arc<SpanLog> = opts.spans.clone().unwrap_or_default();
    // Phases 1-2: plan, prepare, dedupe (shared with the supervisor and
    // its worker processes, which re-derive the identical plan from the
    // same options).
    let plan = build_plan(scenarios, opts, &span_log);
    run_planned(scenarios, opts, &plan, &span_log, started, &HashMap::new(), FaultStats::default())
}

/// Phases 3-4 of a campaign over an already derived `plan`: cache
/// lookups, simulation of the misses, and rendering. The supervisor calls
/// this for its final pass over the plan it derived before handing runs to
/// workers, with the runs it quarantined as `poisoned` (fingerprint →
/// distinct worker deaths) and its failure counters (worker deaths,
/// respawns, swept temp files) as `faults`, which this pass adds to, so
/// the telemetry covers the whole campaign. `started` is when the campaign
/// began, for the wall-clock telemetry.
pub(crate) fn run_planned(
    scenarios: &[&dyn Scenario],
    opts: &EngineOptions,
    plan: &CampaignPlan,
    span_log: &Arc<SpanLog>,
    started: Instant,
    poisoned: &HashMap<u64, usize>,
    mut faults: FaultStats,
) -> EngineOutput {
    // Campaign durability: sweep commit temp files orphaned by a killed
    // predecessor. Everything else a kill leaves behind is a cache miss
    // that simply re-simulates. `--no-cache` campaigns run unswept (they
    // publish nothing worth recovering); `+=` because a supervising
    // process may have swept (and counted) already.
    if let Some(cache) = &opts.disk_cache {
        faults.tmp_swept += crate::durable::sweep_orphan_tmps(cache.dir());
    }
    let suite = &plan.suite;
    let unique = &plan.unique;
    let tag = scale_tag(opts.scale);
    let repro_for = |kernel: &str| repro_command(opts.scale, opts.tier, kernel);
    let mut failure_list: Vec<Arc<RunFailure>> = Vec::new();
    let mut prep_failures: HashMap<PrepKey, Arc<RunFailure>> = HashMap::new();
    for (key, panic) in &plan.prep_panics {
        faults.prep_failures += 1;
        let record = Arc::new(RunFailure {
            fingerprint: 0,
            kernel: key.0.to_string(),
            error: RunError::Panicked { payload: panic.payload.clone() },
            repro: repro_for(key.0),
        });
        failure_list.push(record.clone());
        prep_failures.insert(*key, record);
    }

    // Phase 3: serve what the disk cache already knows, simulate the rest.
    // Cache probes are classified so telemetry can separate ordinary
    // misses from schema-stale and corrupt (quarantined) entries.
    let cache_span = span_log.span("phase", "cache");
    let mut outcomes: HashMap<u64, Arc<RunOutcome>> = HashMap::new();
    let mut misses = Vec::new();
    let mut disk_hits = 0usize;
    for run in unique.iter() {
        match opts.disk_cache.as_ref() {
            None => misses.push(run),
            Some(c) => match c.lookup(run.fingerprint) {
                CacheLookup::Hit(hit) => {
                    disk_hits += 1;
                    outcomes.insert(run.fingerprint, Arc::new(*hit));
                }
                CacheLookup::Miss => misses.push(run),
                CacheLookup::Corrupt { quarantined } => {
                    faults.cache_corrupt += 1;
                    if quarantined {
                        faults.quarantined += 1;
                    }
                    misses.push(run);
                }
                CacheLookup::SchemaMismatch => {
                    faults.cache_schema_mismatch += 1;
                    misses.push(run);
                }
            },
        }
    }
    // Poisoned runs (they killed K distinct workers under the supervisor)
    // are never executed here — a genuinely poisonous run would take this
    // process down too. A cache hit outranks a poison marker: if any
    // worker managed to commit the run, the result is trusted.
    let mut poisoned_runs: Vec<(&planner::UniqueRun, usize)> = Vec::new();
    misses.retain(|run| match poisoned.get(&run.fingerprint) {
        Some(&deaths) => {
            poisoned_runs.push((*run, deaths));
            false
        }
        None => true,
    });
    drop(cache_span);
    let misses: Vec<_> = misses; // shadow as immutable for the pool
    let simulate_span = span_log.span("phase", "simulate");
    let planner::Executed { results: executed, served, sampled } =
        execute(&misses, opts, span_log, &mut faults);
    drop(simulate_span);
    let mut failures: HashMap<u64, Arc<RunFailure>> = HashMap::new();
    for (run, deaths) in poisoned_runs {
        faults.poisoned += 1;
        let record = Arc::new(RunFailure {
            fingerprint: run.fingerprint,
            kernel: run.kernel.to_string(),
            error: RunError::Poisoned { worker_deaths: deaths },
            repro: repro_for(run.kernel),
        });
        failure_list.push(record.clone());
        failures.insert(run.fingerprint, record);
    }
    for (run, result) in misses.iter().zip(executed) {
        match result {
            Ok(outcome) => {
                outcomes.insert(run.fingerprint, outcome);
            }
            Err(error) => {
                match &error {
                    RunError::Panicked { .. } => faults.panicked += 1,
                    RunError::Sim { .. } => faults.sim_errors += 1,
                    RunError::BudgetExceeded { .. } => faults.budget_exceeded += 1,
                    // Poisoned runs were filtered out before execution.
                    RunError::Poisoned { .. } => faults.poisoned += 1,
                }
                let record = Arc::new(RunFailure {
                    fingerprint: run.fingerprint,
                    kernel: run.kernel.to_string(),
                    error,
                    repro: repro_for(run.kernel),
                });
                failure_list.push(record.clone());
                failures.insert(run.fingerprint, record);
            }
        }
    }
    let execute_wall_ms = started.elapsed().as_millis() as u64;

    // Phase 4: render serially in registry order — output is deterministic
    // for any `-j`. A panicking render costs only that scenario's output:
    // the campaign still renders everything else and reports the failure.
    let ctx = EngineCtx {
        scale: opts.scale,
        tier: opts.tier,
        suite,
        prepared: plan.prepared.clone(),
        outcomes,
        failures,
        prep_failures,
    };
    let mut report = PlannerReport {
        requests: plan.per_scenario.iter().map(|(_, n)| n).sum(),
        per_scenario: plan.per_scenario.clone(),
        unique: unique.len(),
        disk_hits,
        simulated: misses.len() - served,
        served,
        prepared: ctx.prepared.len(),
        jobs: opts.jobs,
        execute_wall_ms,
        total_wall_ms: 0,
        faults,
        run_wall: DurationSummary::from_durations(&span_log.durations_us("run")),
        sampled,
    };
    let render_span = span_log.span("phase", "render");
    let mut rendered = Vec::new();
    for s in scenarios {
        let _s = span_log.span("render", s.name());
        match catch_unwind(AssertUnwindSafe(|| {
            let mut text = String::new();
            let artifact = s.render(&ctx, &mut text);
            (text, artifact)
        })) {
            Ok((text, mut artifact)) => {
                artifact.set_extra("planner", report.to_json());
                rendered.push(ScenarioOutput { name: s.name(), title: s.title(), text, artifact });
            }
            Err(payload) => {
                let panic = WorkerPanic::from_payload(payload);
                report.faults.render_failures += 1;
                let record = Arc::new(RunFailure {
                    fingerprint: 0,
                    kernel: s.name().to_string(),
                    error: RunError::Panicked { payload: panic.payload.clone() },
                    repro: format!("lf-bench run {} --scale {tag}", s.name()),
                });
                failure_list.push(record.clone());
                let mut artifact = RunArtifact::new(s.name(), opts.scale);
                artifact.set_extra("render_error", record.error.message());
                artifact.set_extra("planner", report.to_json());
                rendered.push(ScenarioOutput {
                    name: s.name(),
                    title: s.title(),
                    text: format!(
                        "{}\n\nRENDER FAILED: {}\n(repro: {})\n",
                        s.title(),
                        panic.payload,
                        record.repro
                    ),
                    artifact,
                });
            }
        }
    }
    drop(render_span);
    report.total_wall_ms = started.elapsed().as_millis() as u64;
    EngineOutput { scenarios: rendered, report, failures: failure_list }
}

/// The deterministic front half of a campaign: the filtered suite, the
/// per-scenario request counts, the prepared kernels (with any
/// preparation panics), and the deduplicated unique-run list. Worker
/// processes re-derive this identical plan from the same options — the
/// plan is a pure function of (scenarios, scale, tier, filter), so only
/// fingerprints ever cross a process boundary.
pub(crate) struct CampaignPlan {
    /// The (possibly `--filter`ed) kernel suite, canonical order.
    pub suite: Vec<Workload>,
    /// Requests declared per scenario, registry order.
    pub per_scenario: Vec<(&'static str, usize)>,
    /// Successfully prepared `(kernel, hinting)` pairs.
    pub prepared: HashMap<PrepKey, Arc<PreparedKernel>>,
    /// Preparations that panicked.
    pub prep_panics: Vec<(PrepKey, WorkerPanic)>,
    /// The deduplicated execution plan, first-seen order.
    pub unique: Vec<planner::UniqueRun>,
}

/// Runs phases 1-2 (plan → prepare → dedupe). Shared by
/// [`run_scenarios`], the supervisor, and its worker processes.
pub(crate) fn build_plan(
    scenarios: &[&dyn Scenario],
    opts: &EngineOptions,
    span_log: &Arc<SpanLog>,
) -> CampaignPlan {
    // Phase 1: plan. Build the suite, then let scenarios declare work;
    // nothing runs yet.
    let plan_span = span_log.span("phase", "plan");
    let suite: Vec<Workload> = lf_workloads::all(opts.scale)
        .into_iter()
        .filter(|w| match &opts.filter {
            Some(f) => w.name.contains(f.as_str()),
            None => true,
        })
        .collect();
    let mut planner = Planner::new(&suite);
    let mut per_scenario = Vec::new();
    for s in scenarios {
        let _s = span_log.span("plan", s.name());
        let before = planner.request_count();
        s.plan(&mut planner);
        per_scenario.push((s.name(), planner.request_count() - before));
    }
    let requests = planner.into_requests();
    drop(plan_span);

    // Phase 2: prepare (profile + annotate) each distinct kernel/hinting
    // pair, then collapse requests to unique fingerprints. A failed
    // preparation drops only that pair's requests; its failure record
    // stands in for every run that depended on it.
    let prepare_span = span_log.span("phase", "prepare");
    let (prepared, prep_panics) = prepare_kernels(&suite, &requests, opts.jobs);
    drop(prepare_span);
    let dedupe_span = span_log.span("phase", "dedupe");
    let unique = dedupe(&requests, &prepared, opts.tier);
    drop(dedupe_span);
    CampaignPlan { suite, per_scenario, prepared, prep_panics, unique }
}

/// The one-line repro command attached to failure records.
pub(crate) fn repro_command(scale: Scale, tier: Tier, kernel: &str) -> String {
    let tag = scale_tag(scale);
    let tier_flag = match tier {
        Tier::Detailed => String::new(),
        t => format!(" --tier {}", t.tag()),
    };
    format!("lf-bench run --all --scale {tag}{tier_flag} --filter {kernel} -j 1 --no-cache")
}

/// The scenario registry, in render order. Names are stable CLI surface
/// (`lf-bench run <name>`).
pub fn registry() -> Vec<Box<dyn Scenario>> {
    scenarios::all()
}

/// Looks up one registered scenario by name.
pub fn by_name(name: &str) -> Option<Box<dyn Scenario>> {
    registry().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failed annotated preparation is found under its `(kernel,
    /// hinting)` key: the suite view and every run of that kernel answer
    /// with its record, while the kernel's raw preparation and the other
    /// kernels are untouched.
    #[test]
    fn a_failed_preparation_answers_for_its_kernel() {
        let suite: Vec<Workload> = lf_workloads::all(Scale::Smoke)
            .into_iter()
            .filter(|w| matches!(w.name, "stencil_blur" | "hash_lookup"))
            .collect();
        let failure = Arc::new(RunFailure {
            fingerprint: 0,
            kernel: "stencil_blur".to_string(),
            error: RunError::Panicked { payload: "profiling failed".to_string() },
            repro: repro_command(Scale::Smoke, Tier::Detailed, "stencil_blur"),
        });
        let ctx = EngineCtx {
            scale: Scale::Smoke,
            tier: Tier::Detailed,
            suite: &suite,
            prepared: HashMap::new(),
            outcomes: HashMap::new(),
            failures: HashMap::new(),
            prep_failures: HashMap::from([(("stencil_blur", Hinting::Annotated), failure.clone())]),
        };
        let rc = RunConfig::default();
        let found = ctx.suite_failure("stencil_blur", &rc).expect("the preparation failed");
        assert!(Arc::ptr_eq(&found, &failure));
        for cfg in [&LoopFrogConfig::baseline(), &rc.lf] {
            let run = ctx.try_outcome("stencil_blur", &Hinting::Annotated, cfg);
            assert!(Arc::ptr_eq(&run.expect_err("the run has no preparation"), &failure));
        }
        assert!(ctx.prep_failure("stencil_blur", &Hinting::Raw).is_none());
        assert!(ctx.suite_failure("hash_lookup", &rc).is_none());
        let failed: Vec<_> = ctx.suite_failures(&rc).into_iter().map(|(k, _)| k).collect();
        assert_eq!(failed, ["stencil_blur"]);
    }
}

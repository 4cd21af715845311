//! Fault tolerance for experiment campaigns: structured run failures,
//! execution budgets, deterministic fault injection, and the
//! `failures.json` artifact.
//!
//! A campaign of hundreds of cycle-level simulations must degrade
//! gracefully: one panicking worker, one livelocked run, or one corrupt
//! cache entry may cost *that run*, never the campaign. This module is the
//! vocabulary of that contract:
//!
//! - [`RunError`] / [`RunFailure`]: what went wrong with one run, carrying
//!   enough context (panic payload, flight-recorder window, repro command)
//!   to reproduce it offline;
//! - [`RunBudget`]: the harness-side watchdog — a per-run cycle cap layered
//!   under the config's own `max_cycles`, plus an optional wall-clock
//!   deadline plumbed into the core's step loop;
//! - [`FaultPlan`]: the `--inject-fault` test seam (mirroring `lf-verify
//!   --inject-bug`) proving in CI that an injected panic, hang, or cache
//!   corruption yields a completed campaign with an accurate report;
//! - [`FaultStats`]: the failure counters surfaced in planner telemetry;
//! - [`write_failures_json`]: the on-disk failure report.
//!
//! Injection decisions go through [`lf_stats::rate_gate`], the
//! deterministic Bernoulli gate shared with `lf-verify`: the same
//! fingerprint is selected on every run, so a failure report names runs
//! that actually reproduce. Failed runs are never cached, so a plain
//! rerun re-executes exactly the failed set.

use lf_stats::{fingerprint_hex, parse_fingerprint_hex, rate_gate, Json};
use std::io;
use std::path::Path;
use std::time::Duration;

/// Trace events kept from the flight recorder when a budget failure is
/// reported (the *last* window; earlier events are dropped), and the depth
/// a budget failure's replay arms the recorder at.
pub const FLIGHT_RECORDER_KEEP: usize = 64;

/// Default per-run cycle budget. Far above any legitimate suite run at
/// either scale, so it only ever converts livelocks into structured
/// failures; `--budget-cycles 0` disables it.
pub const DEFAULT_BUDGET_CYCLES: u64 = 50_000_000;

/// Why one run failed. Every variant renders to `failures.json` with its
/// full context.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The worker closure panicked (a simulator bug or an injected fault);
    /// the payload is the panic message.
    Panicked {
        /// The panic payload, stringified.
        payload: String,
    },
    /// The simulator returned a structured error (fault, deadlock).
    Sim {
        /// The rendered [`loopfrog::SimError`].
        message: String,
    },
    /// The run exceeded its execution budget (cycle cap or wall-clock
    /// deadline) — a livelock caught by the watchdog.
    BudgetExceeded {
        /// Cycles simulated when the watchdog fired.
        cycles: u64,
        /// The cycle budget in force, if the cycle cap fired.
        budget_cycles: Option<u64>,
        /// Whether the wall-clock deadline (rather than the cycle cap)
        /// fired.
        wall_clock: bool,
        /// The last flight-recorder window (one rendered line per event),
        /// for diagnosing what the pipeline was doing when time ran out.
        /// Runs are simulated unobserved; the planner fills this window by
        /// replaying the failed run to the cycle it stopped at with the
        /// recorder armed.
        flight_recorder: Vec<String>,
    },
    /// The run killed enough distinct worker processes (crash, SIGKILL,
    /// OOM) that the supervisor quarantined it as poisonous instead of
    /// retrying it forever.
    Poisoned {
        /// How many distinct workers died holding this run.
        worker_deaths: usize,
    },
}

impl RunError {
    /// Stable machine-readable tag for artifacts and telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Panicked { .. } => "panic",
            RunError::Sim { .. } => "sim_error",
            RunError::BudgetExceeded { .. } => "budget_exceeded",
            RunError::Poisoned { .. } => "poisoned",
        }
    }

    /// One-line human rendering.
    pub fn message(&self) -> String {
        match self {
            RunError::Panicked { payload } => format!("worker panicked: {payload}"),
            RunError::Sim { message } => format!("simulator error: {message}"),
            RunError::BudgetExceeded { cycles, budget_cycles, wall_clock, .. } => {
                if *wall_clock {
                    format!("wall-clock deadline exceeded after {cycles} cycles")
                } else {
                    format!(
                        "cycle budget exceeded ({cycles} cycles, budget {})",
                        budget_cycles.map(|b| b.to_string()).unwrap_or_else(|| "?".into())
                    )
                }
            }
            RunError::Poisoned { worker_deaths } => {
                format!("poisonous run quarantined after killing {worker_deaths} workers")
            }
        }
    }
}

/// One failed run: identity, cause, and a one-line repro command.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// The run's content fingerprint (0 for kernel-preparation and
    /// scenario-render failures, which happen before/after a fingerprint
    /// exists).
    pub fingerprint: u64,
    /// The kernel (or scenario) the failure belongs to.
    pub kernel: String,
    /// What went wrong.
    pub error: RunError,
    /// A one-line `lf-bench` command reproducing the failure.
    pub repro: String,
}

impl RunFailure {
    /// The `FAILED(<fingerprint>)` cell rendered into partial tables.
    pub fn cell(&self) -> String {
        format!("FAILED({})", fingerprint_hex(self.fingerprint))
    }

    /// The machine-readable record written to `failures.json`.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("fingerprint", fingerprint_hex(self.fingerprint));
        j.set("kernel", self.kernel.as_str());
        j.set("kind", self.error.kind());
        j.set("message", self.error.message());
        if let RunError::Panicked { payload } = &self.error {
            j.set("panic_payload", payload.as_str());
        }
        if let RunError::Poisoned { worker_deaths } = &self.error {
            j.set("worker_deaths", *worker_deaths as u64);
        }
        if let RunError::BudgetExceeded { cycles, budget_cycles, wall_clock, flight_recorder } =
            &self.error
        {
            j.set("cycles", *cycles);
            if let Some(b) = budget_cycles {
                j.set("budget_cycles", *b);
            }
            j.set("wall_clock", Json::Bool(*wall_clock));
            let window: Vec<Json> =
                flight_recorder.iter().map(|l| Json::from(l.as_str())).collect();
            j.set("flight_recorder", Json::Arr(window));
        }
        j.set("repro", self.repro.as_str());
        j
    }
}

/// Caps the flight-recorder capture to its last window and renders one
/// line per event.
pub fn render_flight_recorder(events: &[loopfrog::TraceEvent]) -> Vec<String> {
    let skip = events.len().saturating_sub(FLIGHT_RECORDER_KEEP);
    events[skip..].iter().map(|e| e.to_string()).collect()
}

/// The harness-side execution budget applied to every run.
#[derive(Debug, Clone)]
pub struct RunBudget {
    /// Per-run cycle cap, layered under the config's own `max_cycles`
    /// (the tighter bound wins). `None` disables the cap.
    pub max_cycles: Option<u64>,
    /// Per-run wall-clock deadline, armed on the core's step loop.
    pub deadline: Option<Duration>,
}

impl Default for RunBudget {
    fn default() -> RunBudget {
        RunBudget { max_cycles: Some(DEFAULT_BUDGET_CYCLES), deadline: None }
    }
}

/// Which runs an injected hang replaces with a non-terminating kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HangTarget {
    /// Exactly the run with this fingerprint.
    Fingerprint(u64),
    /// A deterministic fraction of all runs (via [`rate_gate`]).
    Rate(f64),
}

/// The parsed `--inject-fault` plan. All gates are deterministic functions
/// of the run fingerprint, so repeated campaigns select the same victims.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Fraction of runs whose worker panics before simulating.
    pub panic_rate: f64,
    /// Runs replaced by a non-terminating kernel (exercises the watchdog).
    pub hang: Option<HangTarget>,
    /// Fraction of freshly stored cache entries garbled after the write
    /// (exercises corruption quarantine on the *next* campaign).
    pub corrupt_cache_rate: f64,
    /// Fraction of runs whose worker hard-kills the whole process
    /// ([`std::process::abort`] — no unwinding, no destructors, the
    /// file-state equivalent of `kill -9`). Exercises the crash-recovery
    /// path: atomic commits, the orphan sweep, and the recovering rerun.
    pub crash_rate: f64,
}

impl FaultPlan {
    /// Parses one `--inject-fault` spec (`panic:<rate>`,
    /// `hang:<fingerprint|rate>`, `corrupt-cache:<rate>`, `crash:<rate>`)
    /// into the plan. Specs accumulate, so the flag may be repeated.
    pub fn parse_spec(&mut self, spec: &str) -> Result<(), String> {
        let (kind, arg) =
            spec.split_once(':').ok_or_else(|| format!("expected <kind>:<arg>, got {spec:?}"))?;
        let rate = |arg: &str| -> Result<f64, String> {
            match arg.parse::<f64>() {
                Ok(r) if (0.0..=1.0).contains(&r) => Ok(r),
                _ => Err(format!("expected a rate in [0, 1], got {arg:?}")),
            }
        };
        match kind {
            "panic" => self.panic_rate = rate(arg)?,
            "corrupt-cache" => self.corrupt_cache_rate = rate(arg)?,
            "crash" => self.crash_rate = rate(arg)?,
            "hang" => {
                // A 16-digit hex token targets one fingerprint; anything
                // else must parse as a rate.
                self.hang = Some(match parse_fingerprint_hex(arg) {
                    Some(fp) => HangTarget::Fingerprint(fp),
                    None => HangTarget::Rate(rate(arg)?),
                });
            }
            other => {
                return Err(format!(
                    "unknown fault kind {other:?} (expected panic, hang, corrupt-cache, or crash)"
                ))
            }
        }
        Ok(())
    }

    /// Whether the worker for `fingerprint` panics.
    pub fn should_panic(&self, fingerprint: u64) -> bool {
        rate_gate(fingerprint, "lf-bench-inject-panic", self.panic_rate)
    }

    /// Whether the run for `fingerprint` is replaced by a hang.
    pub fn should_hang(&self, fingerprint: u64) -> bool {
        match self.hang {
            None => false,
            Some(HangTarget::Fingerprint(fp)) => fp == fingerprint,
            Some(HangTarget::Rate(r)) => rate_gate(fingerprint, "lf-bench-inject-hang", r),
        }
    }

    /// Whether the stored cache entry for `fingerprint` is garbled.
    pub fn should_corrupt(&self, fingerprint: u64) -> bool {
        rate_gate(fingerprint, "lf-bench-inject-corrupt", self.corrupt_cache_rate)
    }

    /// Whether the worker for `fingerprint` hard-kills the process.
    pub fn should_crash(&self, fingerprint: u64) -> bool {
        rate_gate(fingerprint, "lf-bench-inject-crash", self.crash_rate)
    }
}

/// A deliberately non-terminating kernel: an induction variable counted up
/// forever. Substituted for a run's real program by `hang` injection so
/// the watchdog path is exercised by a genuine livelocked simulation (the
/// loop keeps committing, so the core's no-progress deadlock detector
/// never fires — only the budget can stop it).
pub fn hang_program() -> lf_isa::Program {
    use lf_isa::{reg, AluOp, BranchCond, ProgramBuilder};
    let mut b = ProgramBuilder::new();
    let head = b.label("spin");
    b.li(reg::x(1), 0);
    b.bind(head);
    b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
    b.branch(BranchCond::Ge, reg::x(1), reg::x(0), head);
    b.halt();
    b.build().expect("the hang kernel assembles")
}

/// Failure counters for one engine invocation, surfaced in planner
/// telemetry and `planner.json`. Nothing is ever silently dropped: every
/// abnormal path increments exactly one of these.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Runs whose worker panicked.
    pub panicked: usize,
    /// Runs stopped by the cycle/wall-clock budget.
    pub budget_exceeded: usize,
    /// Runs ending in a structured simulator error.
    pub sim_errors: usize,
    /// Kernel preparations (profile + annotate) that panicked.
    pub prep_failures: usize,
    /// Scenario render phases that panicked.
    pub render_failures: usize,
    /// Cache lookups rejected as corrupt (unparseable or self-inconsistent).
    pub cache_corrupt: usize,
    /// Cache lookups rejected by a schema-version mismatch.
    pub cache_schema_mismatch: usize,
    /// Corrupt entries moved to the quarantine directory.
    pub quarantined: usize,
    /// Extra cache-store attempts beyond each first try.
    pub store_retries: usize,
    /// Cache stores that failed even after retries, and preparation
    /// records that could not be written (the run still counts as a
    /// success; only memoization is lost).
    pub store_failures: usize,
    /// Orphaned commit temp files swept from the cache directory at
    /// campaign start (debris of a killed predecessor).
    pub tmp_swept: usize,
    /// Preparation records written under another build identity (not
    /// used; overwritten).
    pub records_stale: usize,
    /// Preparation records quarantined: they did not decode, named another
    /// key, or contradicted a full preparation.
    pub records_corrupt: usize,
    /// Runs quarantined as poisonous (killed too many workers).
    pub poisoned: usize,
    /// Worker processes the supervisor observed dying abnormally.
    pub worker_deaths: usize,
    /// Replacement workers the supervisor spawned after deaths.
    pub worker_respawns: usize,
    /// Total milliseconds of capped exponential respawn backoff the
    /// supervisor imposed on the slots of dead workers.
    pub backoff_ms: u64,
}

impl FaultStats {
    /// Total failed runs (excludes cache/store noise, which costs
    /// memoization but not results).
    pub fn failed_runs(&self) -> usize {
        self.panicked + self.budget_exceeded + self.sim_errors + self.prep_failures + self.poisoned
    }

    /// The `faults` section of planner telemetry.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("failed_runs", self.failed_runs() as u64);
        j.set("panicked", self.panicked as u64);
        j.set("budget_exceeded", self.budget_exceeded as u64);
        j.set("sim_errors", self.sim_errors as u64);
        j.set("prep_failures", self.prep_failures as u64);
        j.set("render_failures", self.render_failures as u64);
        j.set("cache_corrupt_misses", self.cache_corrupt as u64);
        j.set("cache_schema_mismatch_misses", self.cache_schema_mismatch as u64);
        j.set("quarantined_entries", self.quarantined as u64);
        j.set("cache_store_retries", self.store_retries as u64);
        j.set("cache_store_failures", self.store_failures as u64);
        j.set("tmp_swept", self.tmp_swept as u64);
        j.set("records_stale", self.records_stale as u64);
        j.set("records_corrupt", self.records_corrupt as u64);
        j.set("poisoned", self.poisoned as u64);
        j.set("worker_deaths", self.worker_deaths as u64);
        j.set("worker_respawns", self.worker_respawns as u64);
        j.set("backoff_ms", self.backoff_ms);
        j
    }
}

/// Builds the `failures.json` document for a campaign.
pub fn failures_to_json(failures: &[std::sync::Arc<RunFailure>], scale_tag: &str) -> Json {
    let mut doc = Json::obj();
    doc.set("schema_version", crate::artifact::SCHEMA_VERSION);
    doc.set("tool", "lf-bench");
    doc.set("scale", scale_tag);
    doc.set("failures", Json::Arr(failures.iter().map(|f| f.to_json()).collect()));
    doc
}

/// Writes the campaign failure report (pretty-printed, parent directories
/// created). Written on every `lf-bench run`, with an empty list when the
/// campaign was clean, so the file always describes the latest campaign.
/// Commits atomically: a kill -9 can never publish a truncated failure
/// list for a reader to misread as "nothing failed".
pub fn write_failures_json(
    path: &Path,
    failures: &[std::sync::Arc<RunFailure>],
    scale_tag: &str,
) -> io::Result<()> {
    crate::durable::atomic_write_json(&failures_to_json(failures, scale_tag), path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn parse_specs_accumulate() {
        let mut plan = FaultPlan::default();
        plan.parse_spec("panic:0.05").unwrap();
        plan.parse_spec("corrupt-cache:0.5").unwrap();
        plan.parse_spec("hang:00000000deadbeef").unwrap();
        assert_eq!(plan.panic_rate, 0.05);
        assert_eq!(plan.corrupt_cache_rate, 0.5);
        assert_eq!(plan.hang, Some(HangTarget::Fingerprint(0xdead_beef)));
        assert_ne!(plan, FaultPlan::default(), "the specs armed the plan");
        assert!(plan.should_hang(0xdead_beef));
        assert!(!plan.should_hang(0xdead_bef0));

        let mut rated = FaultPlan::default();
        rated.parse_spec("hang:1.0").unwrap();
        assert!(rated.should_hang(12345));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let mut plan = FaultPlan::default();
        assert!(plan.parse_spec("panic").is_err());
        assert!(plan.parse_spec("panic:2.0").is_err());
        assert!(plan.parse_spec("explode:0.5").is_err());
        assert!(plan.parse_spec("hang:notahexnum").is_err());
        assert_eq!(plan, FaultPlan::default(), "a rejected spec arms nothing");
    }

    #[test]
    fn panic_gate_is_deterministic_and_sparse() {
        let mut plan = FaultPlan::default();
        plan.parse_spec("panic:0.05").unwrap();
        let first: Vec<u64> = (0..1000).filter(|&fp| plan.should_panic(fp)).collect();
        let second: Vec<u64> = (0..1000).filter(|&fp| plan.should_panic(fp)).collect();
        assert_eq!(first, second);
        assert!(!first.is_empty() && first.len() < 200);
    }

    #[test]
    fn failures_json_round_trips_fingerprints() {
        let dir = crate::durable::ScratchDir::new("fault", "failures-json");
        let path = dir.join("failures.json");
        let failures = vec![
            Arc::new(RunFailure {
                fingerprint: 0xabc,
                kernel: "stencil_blur".into(),
                error: RunError::Panicked { payload: "injected".into() },
                repro: "lf-bench run --all --filter stencil_blur".into(),
            }),
            Arc::new(RunFailure {
                fingerprint: 0xdef,
                kernel: "md_force".into(),
                error: RunError::BudgetExceeded {
                    cycles: 9999,
                    budget_cycles: Some(5000),
                    wall_clock: false,
                    flight_recorder: vec!["cycle 12: spawn".into()],
                },
                repro: "lf-bench run --all --filter md_force".into(),
            }),
        ];
        write_failures_json(&path, &failures, "smoke").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let list = doc.get("failures").and_then(Json::as_arr).unwrap();
        let fps: Vec<_> = list
            .iter()
            .map(|f| f.get("fingerprint").and_then(Json::as_str).and_then(parse_fingerprint_hex))
            .collect();
        assert_eq!(fps, [Some(0xabc), Some(0xdef)]);

        // The budget record carries its context.
        let budget = &list[1];
        assert_eq!(budget.get("kind").and_then(Json::as_str), Some("budget_exceeded"));
        assert_eq!(budget.get("cycles").and_then(Json::as_u64), Some(9999));
        assert!(budget.get("flight_recorder").and_then(Json::as_arr).is_some());
        assert!(budget.get("repro").and_then(Json::as_str).unwrap().contains("md_force"));
    }

    #[test]
    fn hang_program_never_halts_under_a_budget() {
        let program = hang_program();
        let mut cfg = loopfrog::LoopFrogConfig::baseline();
        cfg.max_cycles = 10_000;
        let r = loopfrog::simulate(&program, lf_isa::Memory::new(64), cfg).unwrap();
        assert_eq!(r.stop, loopfrog::SimStop::MaxCycles, "the spin kernel must not halt");
    }
}

//! The `lf-bench` command line: one binary driving every registered
//! scenario through the deduplicating run planner.
//!
//! ```text
//! lf-bench list [--scale smoke|eval|full]
//! lf-bench run <scenario>... [options]
//! lf-bench run --all [options]
//! lf-bench perf [--scale smoke|eval|full] [--reps N] [--label TEXT]
//!               [--json [DIR]]
//! lf-bench trace <kernel> [--scale smoke|eval|full] [--config base|lf]
//!                [--konata PATH] [--text PATH|-] [--cycles LO:HI]
//!                [--tid N] [--kinds a,b,...]
//!                [--dump-flight-recorder PATH]
//!
//! options:
//!   --scale smoke|eval|full
//!                        workload scale (default smoke)
//!   --tier sampled|detailed
//!                        simulation tier (default detailed): `sampled`
//!                        measures SimPoint windows from warm checkpoints
//!                        and reconstructs whole-run IPC, `detailed` is the
//!                        legacy cycle-accurate path
//!   -j N                 worker threads (default: available parallelism)
//!   --workers N          (run) supervised multi-process execution: the
//!                        supervisor hands unique runs to N worker
//!                        processes over pipes, one at a time, and they
//!                        commit outcomes to the run cache; a worker crash
//!                        costs only its in-flight run (default 1 =
//!                        in-process threads; requires the cache, see
//!                        --no-cache)
//!   --filter SUBSTR      keep only kernels whose name contains SUBSTR
//!                        (a filter matching no kernel is an error)
//!   --no-cache           skip the on-disk run cache (results/cache/)
//!   --cache-dir DIR      cache location (default results/cache)
//!   --json [DIR]         write per-scenario artifacts and planner.json
//!                        under DIR (default results)
//!   --budget-cycles N    per-run cycle budget (0 = unlimited; default 50M)
//!   --deadline-secs N    per-run wall-clock deadline (default: none)
//!   --inject-fault SPEC  deterministic fault injection (repeatable):
//!                        panic:<rate> | hang:<fingerprint|rate> |
//!                        corrupt-cache:<rate> | crash:<rate>
//!   --crash-after-ms N   (run) hard-kill the process (SIGABRT, no
//!                        cleanup) N milliseconds into the campaign —
//!                        the crash-recovery harness's phase-agnostic
//!                        kill point
//!   --trace-out PATH     (run) export campaign spans as Chrome
//!                        trace-event JSON (Perfetto-loadable)
//! ```
//!
//! Every `run` writes a failure report (`failures.json`, empty on a clean
//! campaign) next to the artifacts; the campaign exits zero as long as it
//! completes, even with failed runs — failures are data, not crashes.
//! Failed runs are never cached, so rerunning the same command recovers a
//! failed or killed campaign: exactly the runs missing from the cache
//! re-execute.

use crate::engine::cache::DiskCache;
use crate::engine::fault::{write_failures_json, FaultPlan, RunBudget, DEFAULT_BUDGET_CYCLES};
use crate::engine::{
    by_name, registry, run_scenarios, supervise, EngineOptions, EngineOutput, Scenario,
};
use crate::runner::scale_tag;
use crate::tiered::Tier;
use lf_stats::Json;
use lf_workloads::Scale;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Parsed command line.
pub(super) struct Cli {
    command: Command,
    /// Index, in the arguments, of the token that named the subcommand.
    pub(super) command_at: usize,
    scale: Scale,
    tier: Tier,
    jobs: usize,
    filter: Option<String>,
    no_cache: bool,
    cache_dir: PathBuf,
    json_dir: Option<PathBuf>,
    budget_cycles: Option<u64>,
    deadline_secs: Option<u64>,
    faults: FaultPlan,
    /// `--workers`: supervised multi-process execution (1 = in-process
    /// threads, the historical behaviour).
    workers: usize,
    /// `--crash-after-ms`: hard-kill the process this many milliseconds
    /// into the campaign (the crash-recovery harness's timer kill point).
    crash_after_ms: Option<u64>,
    /// `perf`: repetitions per (kernel, config) pair.
    reps: usize,
    /// `perf`: free-form label recorded in the trajectory entry; only a
    /// labelled run appends to `BENCH_throughput.json`.
    label: Option<String>,
    /// `run`: export campaign spans as Chrome trace-event JSON here.
    trace_out: Option<PathBuf>,
    /// `trace`: sink and filter options.
    trace: crate::tracecmd::TraceOptions,
}

enum Command {
    List,
    Run {
        names: Vec<String>,
        all: bool,
    },
    /// The hidden worker subcommand the supervisor self-execs (see
    /// [`crate::engine::supervise`]); not part of the public surface.
    Worker {
        names: Vec<String>,
        all: bool,
    },
    Perf,
    Trace,
}

fn usage() -> ! {
    eprintln!(
        "usage: lf-bench <list|run|perf|trace> [scenario...|kernel] [--all]\n\
         \x20                [--scale smoke|eval|full] [--tier sampled|detailed]\n\
         \x20                [-j N] [--filter SUBSTR] [--no-cache]\n\
         \x20                [--cache-dir DIR] [--json [DIR]]\n\
         \x20                [--workers N]\n\
         \x20                [--budget-cycles N] [--deadline-secs N]\n\
         \x20                [--inject-fault SPEC]... [--crash-after-ms N]\n\
         \x20                [--trace-out PATH]\n\
         \x20                [--reps N] [--label TEXT]  (perf)\n\
         \x20                [--config base|lf] [--konata PATH] [--text PATH|-]\n\
         \x20                [--cycles LO:HI] [--tid N] [--kinds a,b,...]\n\
         \x20                [--dump-flight-recorder PATH]  (trace)"
    );
    std::process::exit(2);
}

pub(super) fn parse(args: &[String]) -> Cli {
    let mut cli = Cli {
        command: Command::List,
        command_at: 0,
        scale: Scale::Smoke,
        tier: Tier::Detailed,
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        filter: None,
        no_cache: false,
        cache_dir: PathBuf::from("results/cache"),
        json_dir: None,
        budget_cycles: None,
        deadline_secs: None,
        faults: FaultPlan::default(),
        workers: 1,
        crash_after_ms: None,
        reps: 3,
        label: None,
        trace_out: None,
        trace: crate::tracecmd::TraceOptions {
            kernel: String::new(),
            scale: Scale::Smoke,
            config: crate::tracecmd::TraceConfig::Lf,
            konata: None,
            text: None,
            dump_flight_recorder: None,
            cycles: None,
            tid: None,
            kinds: None,
        },
    };
    let mut names = Vec::new();
    let mut all = false;
    let mut command = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |what: &str| -> String {
            i += 1;
            match args.get(i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => {
                    eprintln!("error: {arg} expects {what}");
                    std::process::exit(2);
                }
            }
        };
        match arg {
            "list" | "--list" | "run" | "worker" | "perf" | "trace" if command.is_none() => {
                command = Some(if arg == "--list" { "list" } else { arg });
                cli.command_at = i;
            }
            "--reps" => {
                let v = value("a repetition count");
                cli.reps = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --reps expects a positive integer, got {v}");
                        std::process::exit(2);
                    }
                }
            }
            "--label" => cli.label = Some(value("a label")),
            "--all" => all = true,
            "--scale" => {
                cli.scale = match value("`smoke`, `eval`, or `full`").as_str() {
                    "smoke" => Scale::Smoke,
                    "eval" => Scale::Eval,
                    "full" => Scale::Full,
                    other => {
                        eprintln!("error: --scale expects `smoke`, `eval`, or `full`, got {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--tier" => {
                let v = value("`sampled` or `detailed`");
                cli.tier = match Tier::parse(&v) {
                    Some(t) => t,
                    None => {
                        eprintln!("error: --tier expects `sampled` or `detailed`, got {v}");
                        std::process::exit(2);
                    }
                }
            }
            "-j" | "--jobs" => {
                let v = value("a worker count");
                cli.jobs = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("error: -j expects a positive integer, got {v}");
                        std::process::exit(2);
                    }
                }
            }
            "--workers" => {
                let v = value("a worker-process count");
                cli.workers = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --workers expects a positive integer, got {v}");
                        std::process::exit(2);
                    }
                }
            }
            "--filter" => cli.filter = Some(value("a kernel-name substring")),
            "--no-cache" => cli.no_cache = true,
            "--cache-dir" => cli.cache_dir = PathBuf::from(value("a directory")),
            "--json" => {
                // The directory operand is optional: `--json` alone means
                // the default results/ tree.
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") && !is_command_or_scenario(v) => {
                        i += 1;
                        cli.json_dir = Some(PathBuf::from(v.clone()));
                    }
                    _ => cli.json_dir = Some(PathBuf::from("results")),
                }
            }
            "--budget-cycles" => {
                let v = value("a cycle count (0 = unlimited)");
                cli.budget_cycles = match v.parse::<u64>() {
                    Ok(n) => Some(n),
                    _ => {
                        eprintln!("error: --budget-cycles expects an integer, got {v}");
                        std::process::exit(2);
                    }
                }
            }
            "--deadline-secs" => {
                let v = value("a duration in seconds");
                cli.deadline_secs = match v.parse::<u64>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("error: --deadline-secs expects a positive integer, got {v}");
                        std::process::exit(2);
                    }
                }
            }
            "--inject-fault" => {
                let v = value(
                    "a fault spec (panic:<rate> | hang:<fp|rate> | corrupt-cache:<rate> | crash:<rate>)",
                );
                if let Err(e) = cli.faults.parse_spec(&v) {
                    eprintln!("error: --inject-fault: {e}");
                    std::process::exit(2);
                }
            }
            "--crash-after-ms" => {
                let v = value("a duration in milliseconds");
                cli.crash_after_ms = match v.parse::<u64>() {
                    Ok(n) => Some(n),
                    _ => {
                        eprintln!("error: --crash-after-ms expects an integer, got {v}");
                        std::process::exit(2);
                    }
                }
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("an output path"))),
            "--config" => {
                cli.trace.config = match value("`base` or `lf`").as_str() {
                    "base" => crate::tracecmd::TraceConfig::Base,
                    "lf" => crate::tracecmd::TraceConfig::Lf,
                    other => {
                        eprintln!("error: --config expects `base` or `lf`, got {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--konata" => cli.trace.konata = Some(PathBuf::from(value("an output path"))),
            "--text" => cli.trace.text = Some(PathBuf::from(value("an output path (or -)"))),
            "--dump-flight-recorder" => {
                cli.trace.dump_flight_recorder = Some(PathBuf::from(value("an output path")))
            }
            "--cycles" => {
                let v = value("a cycle range LO:HI");
                cli.trace.cycles = match crate::tracecmd::parse_cycle_range(&v) {
                    Ok(r) => Some(r),
                    Err(e) => {
                        eprintln!("error: --cycles: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--tid" => {
                let v = value("a threadlet id");
                cli.trace.tid = match v.parse::<usize>() {
                    Ok(n) => Some(n),
                    _ => {
                        eprintln!("error: --tid expects an integer, got {v}");
                        std::process::exit(2);
                    }
                }
            }
            "--kinds" => {
                let v = value("a comma-separated kind list");
                cli.trace.kinds = match crate::tracecmd::parse_kinds(&v) {
                    Ok(k) => Some(k),
                    Err(e) => {
                        eprintln!("error: --kinds: {e}");
                        std::process::exit(2);
                    }
                }
            }
            name if !name.starts_with('-')
                && (command == Some("run") || command == Some("worker")) =>
            {
                names.push(name.to_string())
            }
            name if !name.starts_with('-')
                && command == Some("trace")
                && cli.trace.kernel.is_empty() =>
            {
                cli.trace.kernel = name.to_string()
            }
            _ => {
                eprintln!("error: unrecognized argument {arg}");
                usage();
            }
        }
        i += 1;
    }
    match command {
        Some("run") => cli.command = Command::Run { names, all },
        Some("worker") => cli.command = Command::Worker { names, all },
        Some("perf") => cli.command = Command::Perf,
        Some("trace") => {
            if cli.trace.kernel.is_empty() {
                eprintln!("error: `trace` expects a kernel name");
                usage();
            }
            cli.command = Command::Trace;
        }
        Some(_) => cli.command = Command::List,
        None => usage(),
    }
    cli.trace.scale = cli.scale;
    cli
}

/// Whether `v` names a subcommand or a registered scenario (disambiguates
/// the optional `--json [DIR]` operand from a following subcommand or
/// positional scenario name). `worker` counts: a supervisor runs its own
/// arguments with `run` replaced by it.
fn is_command_or_scenario(v: &str) -> bool {
    matches!(v, "list" | "run" | "worker" | "perf" | "trace")
        || registry().iter().any(|s| s.name() == v)
}

fn engine_options(cli: &Cli) -> EngineOptions {
    let budget = RunBudget {
        max_cycles: match cli.budget_cycles {
            Some(0) => None,
            Some(n) => Some(n),
            None => Some(DEFAULT_BUDGET_CYCLES),
        },
        deadline: cli.deadline_secs.map(Duration::from_secs),
    };
    EngineOptions {
        scale: cli.scale,
        tier: cli.tier,
        jobs: cli.jobs,
        filter: cli.filter.clone(),
        disk_cache: if cli.no_cache { None } else { Some(DiskCache::new(cli.cache_dir.clone())) },
        sim_hook: None,
        budget,
        faults: cli.faults.clone(),
        spans: None,
    }
}

/// Where this invocation writes its failure report.
fn failures_path(cli: &Cli) -> PathBuf {
    cli.json_dir.clone().unwrap_or_else(|| PathBuf::from("results")).join("failures.json")
}

/// Resolves `run`/`worker` positional names (or `--all`) to scenarios.
fn select_scenarios(names: &[String], all: bool) -> Vec<Box<dyn Scenario>> {
    if all {
        registry()
    } else if names.is_empty() {
        eprintln!("error: `run` expects scenario names or --all");
        usage();
    } else {
        names
            .iter()
            .map(|n| {
                by_name(n).unwrap_or_else(|| {
                    eprintln!("error: unknown scenario {n:?} (see `lf-bench list`)");
                    std::process::exit(2);
                })
            })
            .collect()
    }
}

/// Entry point of the `lf-bench` binary.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args);
    match &cli.command {
        Command::List => list(&cli),
        Command::Perf => {
            let dir = cli.json_dir.clone().unwrap_or_else(|| PathBuf::from("results"));
            crate::perf::run_perf(&crate::perf::PerfOptions {
                scale: cli.scale,
                reps: cli.reps,
                label: cli.label.clone(),
                json_path: Some(dir.join("BENCH_throughput.json")),
            });
        }
        Command::Trace => {
            crate::tracecmd::run_trace(&cli.trace);
        }
        Command::Worker { names, all } => {
            let selected = select_scenarios(names, *all);
            let refs: Vec<&dyn Scenario> = selected.iter().map(|s| s.as_ref()).collect();
            std::process::exit(supervise::worker_main(&refs, &engine_options(&cli)));
        }
        Command::Run { names, all } => {
            let selected = select_scenarios(names, *all);
            let refs: Vec<&dyn Scenario> = selected.iter().map(|s| s.as_ref()).collect();
            reject_unmatched_filter(&cli);
            // Sweep commit temp files a killed predecessor orphaned next
            // to the artifacts (the engine sweeps the cache directory
            // itself).
            let out_dir = cli.json_dir.clone().unwrap_or_else(|| PathBuf::from("results"));
            let swept = crate::durable::sweep_orphan_tmps(&out_dir);
            if swept > 0 {
                eprintln!("swept {swept} orphaned temp file(s) from {}", out_dir.display());
            }
            // The timer kill point: a detached thread hard-kills the
            // process mid-campaign, wherever the campaign happens to be.
            // Deterministic burn-in for the crash-recovery harness; real
            // kills (OOM, ^C^C, node preemption) land the same way.
            if let Some(ms) = cli.crash_after_ms {
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    eprintln!(
                        "injected fault: crash after {ms} ms — aborting the campaign process"
                    );
                    std::process::abort();
                });
            }
            let mut opts = engine_options(&cli);
            let span_log = cli.trace_out.as_ref().map(|_| {
                let log = std::sync::Arc::new(crate::engine::spans::SpanLog::new());
                opts.spans = Some(log.clone());
                log
            });
            let output = if cli.workers > 1 && cli.no_cache {
                // Graceful degradation: workers hand their outcomes back
                // through the run cache, so without it the campaign runs
                // on the single-process scoped-thread pool.
                eprintln!(
                    "warning: --workers {} needs the run cache to collect worker outcomes; \
                     with --no-cache the campaign falls back to in-process threads (-j {})",
                    cli.workers, cli.jobs
                );
                run_scenarios(&refs, &opts)
            } else if cli.workers > 1 {
                let sup = supervise::SuperviseConfig::new(cli.workers, &args, cli.command_at);
                match supervise::run_supervised(&refs, &opts, &sup) {
                    Ok(out) => out,
                    Err(code) => std::process::exit(code),
                }
            } else {
                run_scenarios(&refs, &opts)
            };
            let exit = finish_campaign(&output, &cli, refs.len() > 1);
            if let (Some(path), Some(log)) = (&cli.trace_out, &span_log) {
                match write_json(&log.to_chrome_json(), path) {
                    Ok(()) => eprintln!("wrote {} (load in Perfetto)", path.display()),
                    Err(e) => {
                        eprintln!("error: failed to write {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
            if exit != 0 {
                std::process::exit(exit);
            }
        }
    }
}

/// Exits 2 when `--filter` matches no kernel: the campaign would render
/// every scenario over an empty suite. Runs before anything is planned or
/// written; kernel names do not depend on the scale.
fn reject_unmatched_filter(cli: &Cli) {
    let Some(filter) = &cli.filter else { return };
    let names: Vec<&str> = lf_workloads::all(Scale::Smoke).iter().map(|w| w.name).collect();
    if !names.iter().any(|n| n.contains(filter.as_str())) {
        eprintln!("error: --filter {filter:?} matches no kernel; kernels: {}", names.join(", "));
        std::process::exit(2);
    }
}

fn list(cli: &Cli) {
    let suite = lf_workloads::all(cli.scale);
    println!("registered scenarios ({} kernels at scale {}):\n", suite.len(), scale_tag(cli.scale));
    let mut rows = Vec::new();
    let mut total = 0usize;
    for s in registry() {
        let mut planner = crate::engine::planner::Planner::new(&suite);
        s.plan(&mut planner);
        let n = planner.request_count();
        total += n;
        rows.push(vec![s.name().to_string(), n.to_string(), s.title().to_string()]);
    }
    crate::print_table(&["scenario", "runs", "title"], &rows);
    println!("\n{total} total run requests before deduplication");
}

/// The back half of a campaign: print the rendered scenarios and the
/// telemetry, and write the failure report and JSON artifacts. Returns
/// the process exit code.
fn finish_campaign(output: &EngineOutput, cli: &Cli, separators: bool) -> i32 {
    for (i, s) in output.scenarios.iter().enumerate() {
        if separators {
            if i > 0 {
                println!();
            }
            println!("━━━ {} ━━━\n", s.name);
        }
        print!("{}", s.text);
    }
    print_telemetry(output);
    // The failure report is written on every run — empty on a clean
    // campaign — so it always describes the latest campaign.
    let failures = failures_path(cli);
    match write_failures_json(&failures, &output.failures, scale_tag(cli.scale)) {
        Ok(()) => eprintln!("wrote {}", failures.display()),
        Err(e) => {
            eprintln!("error: failed to write {}: {e}", failures.display());
            return 1;
        }
    }
    if let Some(dir) = &cli.json_dir {
        if let Err(msg) = write_artifacts(output, dir) {
            eprintln!("{msg}");
            return 1;
        }
    }
    0
}

// Telemetry goes to stderr: stdout stays byte-identical across runs
// (cache hits and wall-clock vary) and redirecting it reproduces the
// seed experiment tables exactly.
fn print_telemetry(output: &EngineOutput) {
    let r = &output.report;
    eprintln!(
        "\nplanner: {} requests → {} unique ({} deduplicated); {} from cache, {} simulated, {} served from footprints; {} ms on {} jobs",
        r.requests,
        r.unique,
        r.requests - r.unique,
        r.disk_hits,
        r.simulated,
        r.served,
        r.total_wall_ms,
        r.jobs
    );
    let f = &r.faults;
    if !output.failures.is_empty() || f.cache_corrupt > 0 || f.cache_schema_mismatch > 0 {
        eprintln!(
            "faults: {} failed run(s) ({} panicked, {} over budget, {} sim errors, {} prep, {} render, {} poisoned); cache: {} corrupt ({} quarantined), {} schema-stale",
            output.failures.len(),
            f.panicked,
            f.budget_exceeded,
            f.sim_errors,
            f.prep_failures,
            f.render_failures,
            f.poisoned,
            f.cache_corrupt,
            f.quarantined,
            f.cache_schema_mismatch
        );
    }
    // The end-of-campaign summary is always printed: every campaign
    // states its hygiene counters (swept debris, quarantines, retries)
    // even when they are zero, so scripts can grep one stable line.
    eprintln!(
        "campaign: swept {} temp file(s); {} corrupt entr{} quarantined; {} worker respawn(s) ({} ms backoff)",
        f.tmp_swept,
        f.quarantined,
        if f.quarantined == 1 { "y" } else { "ies" },
        f.worker_respawns,
        f.backoff_ms
    );
    if f.worker_deaths > 0 || f.poisoned > 0 {
        eprintln!(
            "supervisor: {} worker death(s) absorbed; {} poisonous run(s) quarantined",
            f.worker_deaths, f.poisoned
        );
    }
}

/// Writes the per-scenario artifacts plus the planner telemetry,
/// printing a `wrote <path>` confirmation on stdout for each (they are
/// part of the campaign's byte-compared output). Stops at the first
/// failure.
fn write_artifacts(output: &EngineOutput, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("error: cannot create {}: {e}", dir.display()))?;
    for s in &output.scenarios {
        let path = dir.join(format!("{}.json", s.name));
        s.artifact
            .write(&path)
            .map_err(|e| format!("error: failed to write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let planner_path = dir.join("planner.json");
    write_json(&output.report.to_json(), &planner_path)
        .map_err(|e| format!("error: failed to write {}: {e}", planner_path.display()))?;
    println!("wrote {}", planner_path.display());
    Ok(())
}

fn write_json(doc: &Json, path: &Path) -> std::io::Result<()> {
    crate::durable::atomic_write_json(doc, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Cli {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// `--json` before the subcommand leaves the subcommand alone: its
    /// directory operand is optional, and a subcommand or scenario name
    /// never fills it.
    #[test]
    fn json_before_the_subcommand_keeps_the_subcommand() {
        for (line, dir, command) in [
            ("--json run fig6_speedups", "results", "run"),
            ("--json worker fig6_speedups", "results", "worker"),
            ("--json out run fig6_speedups", "out", "run"),
            ("run --json fig6_speedups", "results", "run"),
        ] {
            let cli = parse_line(line);
            assert_eq!(cli.json_dir, Some(PathBuf::from(dir)), "{line}");
            let names = match &cli.command {
                Command::Run { names, all: false } if command == "run" => names,
                Command::Worker { names, all: false } if command == "worker" => names,
                _ => panic!("{line}: not a `{command}` of named scenarios"),
            };
            assert_eq!(names, &["fig6_speedups"], "{line}");
        }
        assert!(matches!(parse_line("--json list").command, Command::List));
    }
}

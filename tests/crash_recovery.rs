//! The kill -9 crash-injection harness: campaigns die hard at seeded
//! points across every phase and must recover byte-identically.
//!
//! Each case spawns a real `lf-bench` campaign as a child process, kills
//! it without cleanup — `--inject-fault crash:<rate>` aborts inside the
//! simulate phase, `--crash-after-ms N` aborts on a timer wherever the
//! campaign happens to be, and one case delivers a true external SIGKILL —
//! then reruns the same command and asserts the recovery contract:
//!
//! 1. the rerun completes (exit 0);
//! 2. its stdout and scenario artifact are byte-identical to an uncrashed
//!    campaign's (modulo the `planner` telemetry section, which carries
//!    wall-clock times);
//! 3. no orphaned commit temp files survive, and `failures.json` reports
//!    a clean campaign;
//! 4. the rerun serves every run the kill left committed in the cache
//!    and re-simulates exactly the rest — cache misses alone decide what
//!    re-executes.
//!
//! Kill points are randomized but seeded (`LF_CRASH_SEED`), and the timer
//! sweep width scales with `LF_CRASH_POINTS` (CI's recovery-smoke job
//! widens it; the default keeps `cargo test` quick). A killed campaign
//! usually dies *before* writing `failures.json`; the rerun reads nothing
//! back but the run cache, so it needs no report.

mod common;

use common::ScratchDir;
use lf_stats::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_lf-bench");
/// The campaign under test: one suite-shaped scenario over one kernel —
/// small enough to rerun dozens of times, real enough to cross every
/// phase (plan, prepare, cache, simulate, render, artifact writes).
const SCENARIO: &str = "fig6_speedups";
const FILTER: &str = "stencil_blur";

fn scratch_dir(tag: &str) -> ScratchDir {
    // CI points LF_CRASH_SCRATCH inside the workspace so the planner
    // telemetry and failure reports of a red run can be uploaded as
    // artifacts.
    let root =
        std::env::var_os("LF_CRASH_SCRATCH").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let dir =
        ScratchDir::new(root.join(format!("lf-bench-crash-test-{}-{tag}", std::process::id())));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A campaign command rooted in `dir` (relative output paths keep stdout
/// byte-comparable across scratch directories).
fn campaign(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(dir)
        .arg("run")
        .arg(SCENARIO)
        .args(["--scale", "smoke", "--filter", FILTER, "-j", "2"])
        .args(["--json", "results"])
        .args(["--cache-dir", "results/cache"])
        .args(extra);
    cmd
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("campaign process spawns")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The scenario artifact with its volatile telemetry section removed:
/// `planner` carries wall-clock timings and cache-hit counts that
/// legitimately differ between a cold run and a recovered one. Everything
/// else must match byte for byte.
fn normalized_artifact(dir: &Path) -> String {
    let path = dir.join("results").join(format!("{SCENARIO}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("artifact {} must exist: {e}", path.display()));
    let mut doc = Json::parse(&text).expect("artifact parses");
    doc.set("planner", Json::Null);
    doc.to_string_pretty()
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files
}

fn tmp_files_under(dir: &Path) -> Vec<PathBuf> {
    files_under(dir)
        .into_iter()
        .filter(|p| p.file_name().map(|n| n.to_string_lossy().contains(".tmp.")).unwrap_or(false))
        .collect()
}

/// Committed run-cache entries (`<16-hex fingerprint>.json`) directly
/// under the campaign's cache directory.
fn committed_entries(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir.join("results/cache")) else { return 0 };
    entries
        .flatten()
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_suffix(".json")
                .is_some_and(|stem| stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_hexdigit()))
        })
        .count() as u64
}

fn planner_json(dir: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(dir.join("results/planner.json")).unwrap()).unwrap()
}

fn count(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("{key} missing from {doc:?}"))
}

/// The full recovery contract, checked against a reference run.
fn assert_recovered(dir: &Path, ref_stdout: &str, ref_artifact: &str, what: &str) {
    let committed = committed_entries(dir);
    let rerun = run(&mut campaign(dir, &[]));
    assert!(rerun.status.success(), "[{what}] the rerun must complete:\n{}", stderr_of(&rerun));
    assert_eq!(
        stdout_of(&rerun),
        ref_stdout,
        "[{what}] rerun stdout must be byte-identical to an uncrashed run"
    );
    assert_eq!(
        normalized_artifact(dir),
        ref_artifact,
        "[{what}] rerun artifact must be byte-identical (modulo planner telemetry)"
    );

    // A clean failure report.
    let failures = dir.join("results/failures.json");
    let doc = Json::parse(&std::fs::read_to_string(&failures).unwrap()).unwrap();
    assert_eq!(
        doc.get("failures").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0),
        "[{what}] the recovered campaign reports no failures"
    );

    // No commit-protocol debris anywhere in the tree.
    let leaked = tmp_files_under(dir);
    assert!(leaked.is_empty(), "[{what}] leaked temp files after recovery: {leaked:?}");

    // Every entry the kill left committed is served from the cache, and
    // exactly the uncommitted remainder re-simulates.
    let planner = planner_json(dir);
    assert_eq!(
        count(&planner, "disk_cache_hits"),
        committed,
        "[{what}] the rerun serves every committed entry from the cache"
    );
    assert_eq!(
        count(&planner, "simulated"),
        count(&planner, "unique_runs") - committed,
        "[{what}] the rerun re-simulates exactly the uncommitted runs"
    );
}

/// Runs the uncrashed reference campaign and returns its stdout, its
/// normalized artifact, and its wall-clock duration (the timer sweep
/// spreads kill points across it). Each test passes its own `tag`: tests
/// run in parallel, and a shared directory would be wiped out from under
/// a neighbor's running campaign.
fn reference(tag: &str) -> (String, String, Duration) {
    let dir = scratch_dir(&format!("reference-{tag}"));
    let started = Instant::now();
    let out = run(&mut campaign(&dir, &[]));
    let wall = started.elapsed();
    assert!(out.status.success(), "reference campaign failed:\n{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("stencil_blur"), "reference renders the kernel:\n{stdout}");
    (stdout, normalized_artifact(&dir), wall)
}

/// Seeded xorshift-style generator: the kill points are randomized but
/// reproducible (`LF_CRASH_SEED` selects the sequence).
struct Lcg(u64);

impl Lcg {
    fn from_env() -> Lcg {
        let seed = std::env::var("LF_CRASH_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0xC0FFEE);
        Lcg(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo).max(1)
    }
}

fn timer_points() -> usize {
    std::env::var("LF_CRASH_POINTS").ok().and_then(|s| s.parse::<usize>().ok()).unwrap_or(6)
}

/// `--inject-fault crash:1.0` aborts the process inside the simulate
/// phase — a deterministic in-worker kill -9. The rerun (*without* the
/// injection, as a recovery would be) must complete byte-identically,
/// though the killed campaign never wrote `failures.json`.
#[test]
fn simulate_phase_crash_recovers_byte_identically() {
    let (ref_stdout, ref_artifact, _) = reference("inject-crash");
    let dir = scratch_dir("inject-crash");
    let crashed = run(&mut campaign(&dir, &["--inject-fault", "crash:1.0"]));
    assert!(
        !crashed.status.success(),
        "crash:1.0 must kill the campaign:\n{}",
        stdout_of(&crashed)
    );
    assert!(
        stderr_of(&crashed).contains("injected fault: crash"),
        "the kill announces itself:\n{}",
        stderr_of(&crashed)
    );
    assert!(
        !dir.join("results/failures.json").exists(),
        "a kill -9 precedes the failure report — that's the point"
    );

    assert_recovered(&dir, &ref_stdout, &ref_artifact, "inject-crash");
}

/// Each run commits its outcome as soon as it finishes, so a kill inside
/// the simulate phase keeps the runs done before it. At `-j 1` the
/// campaign runs baseline then LoopFrog; `crash:0.6` spares the baseline
/// and kills the campaign on the LoopFrog run (the victims are a
/// deterministic function of the fingerprints).
#[test]
fn simulate_phase_crash_keeps_runs_committed_before_it() {
    let (ref_stdout, ref_artifact, _) = reference("per-run-commit");
    let dir = scratch_dir("per-run-commit");
    let crashed = run(&mut campaign(&dir, &["-j", "1", "--inject-fault", "crash:0.6"]));
    assert!(
        stderr_of(&crashed).contains("injected fault: crash"),
        "crash:0.6 must kill the campaign:\n{}",
        stderr_of(&crashed)
    );
    assert!(
        committed_entries(&dir) >= 1,
        "the run finished before the kill must be committed to the cache"
    );
    assert_recovered(&dir, &ref_stdout, &ref_artifact, "per-run-commit");
}

/// The timer sweep: seeded `--crash-after-ms` points spread across the
/// whole campaign duration, so kills land in plan, prepare, cache,
/// simulate, and render phases alike. Every crashed campaign must rerun
/// to a byte-identical result; a campaign that happens to finish before
/// its timer must already be identical.
#[test]
fn seeded_timer_kills_across_all_phases_recover() {
    let (ref_stdout, ref_artifact, wall) = reference("timer");
    let mut rng = Lcg::from_env();
    let span_ms = (wall.as_millis() as u64).max(20) * 5 / 4;
    let mut crashes = 0usize;
    for point in 0..timer_points() {
        // Low points pin the early phases (plan/prepare startup); the rest
        // sample the whole campaign.
        let delay = if point == 0 { 1 } else { rng.in_range(1, span_ms) };
        let dir = scratch_dir(&format!("timer-{point}"));
        let out = run(&mut campaign(&dir, &["--crash-after-ms", &delay.to_string()]));
        if out.status.success() {
            // The campaign beat the timer — it must already be whole.
            assert_eq!(stdout_of(&out), ref_stdout, "[timer {delay}ms] uncrashed run matches");
            assert_eq!(normalized_artifact(&dir), ref_artifact);
            continue;
        }
        crashes += 1;
        assert_recovered(&dir, &ref_stdout, &ref_artifact, &format!("timer {delay}ms"));
    }
    assert!(crashes > 0, "the sweep must actually kill at least one campaign");
    eprintln!("timer sweep: {crashes}/{} points crashed and recovered", timer_points());
}

/// A true external `kill -9`: the harness SIGKILLs the child from outside
/// at a seeded point. Same recovery contract.
#[cfg(unix)]
#[test]
fn external_sigkill_recovers_byte_identically() {
    let (ref_stdout, ref_artifact, wall) = reference("sigkill");
    let mut rng = Lcg::from_env();
    let span_ms = (wall.as_millis() as u64).max(20);
    for point in 0..3 {
        let delay = rng.in_range(1, span_ms);
        let dir = scratch_dir(&format!("sigkill-{point}"));
        let mut child = campaign(&dir, &[]).spawn().expect("campaign spawns");
        std::thread::sleep(Duration::from_millis(delay));
        // On Unix, `Child::kill` delivers SIGKILL: no handler, no cleanup.
        let _ = child.kill();
        let status = child.wait().unwrap();
        if status.success() {
            // The campaign finished before the kill landed.
            assert_eq!(normalized_artifact(&dir), ref_artifact);
            continue;
        }
        assert_recovered(&dir, &ref_stdout, &ref_artifact, &format!("sigkill {delay}ms"));
    }
}

/// A `--no-cache` campaign has no memoization and nothing to recover: it
/// simulates everything, completes, and creates no cache state.
#[test]
fn no_cache_campaign_creates_no_cache_state() {
    let dir = scratch_dir("no-cache");
    let out = run(&mut campaign(&dir, &["--no-cache"]));
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(!dir.join("results/cache").exists(), "--no-cache must not create cache state");
}

/// Rerunning a clean campaign is a no-op: everything is served from the
/// cache and the failure report stays empty.
#[test]
fn rerun_of_a_clean_campaign_serves_the_cache() {
    let dir = scratch_dir("rerun-clean");
    let first = run(&mut campaign(&dir, &[]));
    assert!(first.status.success());

    let rerun = run(&mut campaign(&dir, &[]));
    assert!(rerun.status.success(), "{}", stderr_of(&rerun));
    let planner = planner_json(&dir);
    assert_eq!(count(&planner, "simulated"), 0, "the rerun is served entirely from the cache");
    assert_eq!(count(&planner, "disk_cache_hits"), count(&planner, "unique_runs"));
    let failures = dir.join("results/failures.json");
    let doc = Json::parse(&std::fs::read_to_string(&failures).unwrap()).unwrap();
    assert_eq!(doc.get("failures").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
}

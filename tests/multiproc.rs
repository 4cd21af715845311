//! The supervised multi-process campaign harness: worker crashes, kills,
//! and drains must never cost more than the in-flight run.
//!
//! Each case spawns a real `lf-bench run --workers N` supervisor as a
//! child process and asserts the supervision contract from outside:
//!
//! 1. a campaign sharded across workers renders **byte-identically** to a
//!    single-process campaign — same stdout, same artifacts (modulo the
//!    `planner` telemetry section), and on the sampled tier the same cache
//!    entries;
//! 2. worker deaths (injected `crash:<rate>` aborts, true external
//!    SIGKILLs) are absorbed: the supervisor respawns workers, surviving
//!    workers retry the lost runs, and the campaign still exits 0;
//! 3. a run that keeps killing workers is classified poisonous and lands
//!    in `failures.json` as a structured `poisoned` record instead of
//!    taking the campaign down;
//! 4. nothing leaks: zero worker processes, zero commit temp files, and
//!    no `leases/` or `poison/` directory in the cache after any outcome —
//!    including a SIGTERM drain of the whole supervisor;
//! 5. workers run the supervisor's own `run` flags.

mod common;

use common::ScratchDir;
use lf_stats::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_lf-bench");

fn scratch_dir(tag: &str) -> ScratchDir {
    let root =
        std::env::var_os("LF_CRASH_SCRATCH").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let name = format!("lf-bench-multiproc-test-{}-{tag}", std::process::id());
    let dir = ScratchDir::new(root.join(name));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A campaign command rooted in `dir` (relative output paths keep stdout
/// byte-comparable across scratch directories). Fast respawn backoff: the
/// tests inject crash storms and should not sleep through real backoff.
fn campaign(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(dir)
        .arg("run")
        .args(["--all", "--scale", "smoke", "--filter", "stencil_blur", "-j", "2"])
        .args(["--json", "results"])
        .args(["--cache-dir", "results/cache"])
        .env("LF_RESPAWN_BACKOFF_MS", "10")
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

/// Every scenario artifact under `results/`, with the volatile `planner`
/// telemetry section nulled out (wall-clock timings and cache-hit counts
/// legitimately differ between a single-process and a sharded campaign).
fn normalized_artifacts(dir: &Path) -> Vec<(String, String)> {
    let results = dir.join("results");
    let mut artifacts = Vec::new();
    for entry in std::fs::read_dir(&results).expect("results dir exists").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".json") || matches!(name.as_str(), "planner.json" | "failures.json") {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).unwrap();
        let mut doc = Json::parse(&text).expect("artifact parses");
        doc.set("planner", Json::Null);
        artifacts.push((name, doc.to_string_pretty()));
    }
    artifacts.sort();
    assert!(!artifacts.is_empty(), "the campaign wrote scenario artifacts");
    artifacts
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

/// Asserts the hygiene half of the contract: no leases, no commit temp
/// files, no poison markers, and no directory for either in the cache.
fn assert_no_debris(dir: &Path, what: &str) {
    let leaked: Vec<_> = files_under(dir)
        .into_iter()
        .filter(|p| {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            name.ends_with(".lease") || name.contains(".tmp.") || name.ends_with(".poison")
        })
        .collect();
    assert!(leaked.is_empty(), "[{what}] leaked coordination debris: {leaked:?}");
    for sub in ["leases", "poison"] {
        let path = dir.join("results/cache").join(sub);
        assert!(!path.exists(), "[{what}] the cache holds a {sub}/ directory: {}", path.display());
    }
}

/// Live `lf-bench worker` processes attached to `dir`'s cache, found by
/// scanning `/proc` (exact argv match — never a substring grep that could
/// catch this test's own process tree).
#[cfg(target_os = "linux")]
fn worker_pids(dir: &Path) -> Vec<u32> {
    let cache = dir.join("results/cache");
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else { return pids };
    for entry in entries.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|n| n.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(raw) = std::fs::read(entry.path().join("cmdline")) else { continue };
        let argv: Vec<&str> =
            raw.split(|&b| b == 0).map(|s| std::str::from_utf8(s).unwrap_or("")).collect();
        let is_worker = argv.first().map(|a| a.ends_with("lf-bench")).unwrap_or(false)
            && argv.get(1) == Some(&"worker");
        // Workers run from the supervisor's cwd, so --cache-dir may be
        // relative; match on the absolute form recorded in /proc/<pid>/cwd.
        if is_worker {
            let cwd = std::fs::read_link(entry.path().join("cwd")).unwrap_or_default();
            let has_cache = argv
                .iter()
                .zip(argv.iter().skip(1))
                .any(|(flag, value)| *flag == "--cache-dir" && cwd.join(value) == cache);
            if has_cache {
                pids.push(pid);
            }
        }
    }
    pids
}

/// Two workers share a small plan and the result is indistinguishable
/// from a single-process campaign: byte-identical stdout and artifacts,
/// zero temp files, and a final pass the workers left nothing to
/// simulate.
#[test]
fn two_workers_render_byte_identically_to_single_process() {
    let ref_dir = scratch_dir("identity-ref");
    let reference = run(&mut campaign(&ref_dir, &[]));
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    let dir = scratch_dir("identity-two");
    let sharded = run(&mut campaign(&dir, &["--workers", "2"]));
    assert!(sharded.status.success(), "{}", stderr_of(&sharded));

    assert_eq!(
        stdout_of(&sharded),
        stdout_of(&reference),
        "sharded stdout must be byte-identical to a single-process campaign"
    );
    assert_eq!(
        normalized_artifacts(&dir),
        normalized_artifacts(&ref_dir),
        "sharded artifacts must be byte-identical (modulo planner telemetry)"
    );
    assert_no_debris(&dir, "identity");

    // The workers committed the whole plan: the final pass serves every
    // unique run from the cache and simulates nothing.
    let planner =
        Json::parse(&std::fs::read_to_string(dir.join("results/planner.json")).unwrap()).unwrap();
    let count = |key: &str| planner.get(key).and_then(Json::as_u64);
    assert_eq!(count("simulated"), Some(0), "the final pass simulates nothing: {planner:?}");
    assert_eq!(
        count("disk_cache_hits"),
        count("unique_runs"),
        "every unique run comes from the worker-filled cache: {planner:?}"
    );
    // And the supervisor's stderr summary names the worker count.
    assert!(
        stderr_of(&sharded).contains("supervisor: 2 workers"),
        "the supervisor announces its workers:\n{}",
        stderr_of(&sharded)
    );
}

/// Every run entry of a campaign's cache, by name, sorted.
fn cache_entries(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<_> = std::fs::read_dir(dir.join("results/cache"))
        .expect("cache dir exists")
        .flatten()
        .filter(|e| e.path().is_file())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap()))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "the campaign filled its cache");
    entries
}

/// The same contract on the sampled tier. Workers take one fingerprint
/// at a time, so each of their runs builds its own sampling plan and
/// serves nothing, while the single-process campaign shares each
/// kernel's plan and serves geometry siblings from their windows' SSB
/// footprints. Both print the same stdout and write the same artifacts
/// and cache entries, byte for byte.
#[test]
fn two_workers_render_sampled_campaigns_byte_identically() {
    let sampled = ["--tier", "sampled"];
    let ref_dir = scratch_dir("sampled-identity-ref");
    let reference = run(&mut campaign(&ref_dir, &sampled));
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    let dir = scratch_dir("sampled-identity-two");
    let sharded = run(&mut campaign(&dir, &[&sampled[..], &["--workers", "2"]].concat()));
    assert!(sharded.status.success(), "{}", stderr_of(&sharded));

    assert_eq!(stdout_of(&sharded), stdout_of(&reference), "sharded sampled stdout differs");
    assert_eq!(
        normalized_artifacts(&dir),
        normalized_artifacts(&ref_dir),
        "sharded sampled artifacts differ (modulo planner telemetry)"
    );
    assert!(
        cache_entries(&dir) == cache_entries(&ref_dir),
        "sharded sampled cache entries must be byte-identical"
    );
    assert_no_debris(&dir, "sampled identity");

    let planner = |dir: &Path| {
        let text = std::fs::read_to_string(dir.join("results/planner.json")).unwrap();
        Json::parse(&text).unwrap()
    };
    let (single, final_pass) = (planner(&ref_dir), planner(&dir));
    let count = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64);
    assert!(count(&single, "served") > Some(0), "one process serves siblings: {single:?}");
    assert_eq!(count(&final_pass, "simulated"), Some(0), "{final_pass:?}");
    assert_eq!(count(&final_pass, "served"), Some(0), "{final_pass:?}");
    assert_eq!(
        count(&final_pass, "disk_cache_hits"),
        count(&final_pass, "unique_runs"),
        "every unique run comes from the worker-filled cache: {final_pass:?}"
    );
}

/// Workers run under the supervisor's own flags: with every run hung and
/// a 20,000-cycle budget, each worker's run stops at that budget, and the
/// final pass records the single-process campaign's failures.
#[test]
fn run_flags_reach_the_workers() {
    let flags = ["--inject-fault", "hang:1.0", "--budget-cycles", "20000"];
    let ref_dir = scratch_dir("flags-ref");
    let reference = run(&mut campaign(&ref_dir, &flags));
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    let dir = scratch_dir("flags-two");
    let sharded = run(&mut campaign(&dir, &[&flags[..], &["--workers", "2"]].concat()));
    assert!(sharded.status.success(), "{}", stderr_of(&sharded));
    let err = stderr_of(&sharded);
    let local: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("worker: run ") && l.contains("failed locally"))
        .collect();
    assert!(!local.is_empty(), "the hung runs fail inside the workers:\n{err}");
    for line in &local {
        assert!(line.contains("budget 20000"), "a worker ran without the budget flag: {line}");
    }
    let failures = |dir: &Path| std::fs::read_to_string(dir.join("results/failures.json")).unwrap();
    assert_eq!(failures(&dir), failures(&ref_dir), "sharded failures.json differs");
    assert_no_debris(&dir, "flags");
}

/// A crash storm: every run aborts its worker. The supervisor
/// must absorb the deaths, classify each run as poisonous after it kills
/// two distinct workers, quarantine them into `failures.json`, and still
/// exit 0. A later rerun without the injection re-executes the
/// quarantined runs and converges to the byte-identical clean result.
#[test]
fn crash_storm_poisons_runs_and_resume_recovers() {
    let ref_dir = scratch_dir("poison-ref");
    let reference = run(&mut campaign(&ref_dir, &[]));
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    let dir = scratch_dir("poison");
    let stormed = run(&mut campaign(&dir, &["--workers", "2", "--inject-fault", "crash:1.0"]));
    assert!(
        stormed.status.success(),
        "worker crashes must not kill the campaign:\n{}",
        stderr_of(&stormed)
    );
    let err = stderr_of(&stormed);
    assert!(err.contains("poisoned after 2 worker deaths"), "poisoning is announced:\n{err}");
    assert!(err.contains("worker death(s) absorbed"), "the summary counts deaths:\n{err}");

    // Every unique run was quarantined as poisoned, with the death count.
    let failures =
        Json::parse(&std::fs::read_to_string(dir.join("results/failures.json")).unwrap()).unwrap();
    let records = failures.get("failures").and_then(Json::as_arr).unwrap().to_vec();
    assert!(!records.is_empty(), "the crash storm quarantines runs");
    for record in &records {
        assert_eq!(record.get("kind").and_then(Json::as_str), Some("poisoned"));
        assert!(record.get("worker_deaths").and_then(Json::as_u64).unwrap() >= 2);
    }
    assert_no_debris(&dir, "poison");

    // Recovery: rerun with no injection (exactly how an operator recovers
    // from a code fix) — byte-identical to clean.
    let rerun = run(&mut campaign(&dir, &["--workers", "2"]));
    assert!(rerun.status.success(), "{}", stderr_of(&rerun));
    // Poisoned runs were never cached, so the supervisor queues exactly
    // them for its workers.
    let planner =
        Json::parse(&std::fs::read_to_string(dir.join("results/planner.json")).unwrap()).unwrap();
    let unique = planner.get("unique_runs").and_then(Json::as_u64).unwrap();
    let queued = format!("supervisor: 2 workers, {} of {unique} run(s) queued", records.len());
    assert!(stderr_of(&rerun).contains(&queued), "{queued:?} in:\n{}", stderr_of(&rerun));
    assert_eq!(stdout_of(&rerun), stdout_of(&reference), "recovered stdout matches");
    assert_eq!(normalized_artifacts(&dir), normalized_artifacts(&ref_dir));
    let clean =
        Json::parse(&std::fs::read_to_string(dir.join("results/failures.json")).unwrap()).unwrap();
    assert_eq!(clean.get("failures").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    assert_no_debris(&dir, "poison-rerun");
}

/// True external SIGKILLs: the harness kills at least three live worker
/// processes from outside while the campaign runs. The supervisor
/// respawns them and the campaign completes byte-identically. The poison
/// threshold is raised out of reach — random external kills are not
/// evidence against any particular run.
#[cfg(target_os = "linux")]
#[test]
fn external_worker_sigkills_are_absorbed_byte_identically() {
    let ref_dir = scratch_dir("sigkill-ref");
    let reference = run(&mut campaign(&ref_dir, &["-j", "1"]));
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    let dir = scratch_dir("sigkill");
    let mut child = campaign(&dir, &["-j", "1", "--workers", "4"])
        .env("LF_POISON_THRESHOLD", "999")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("supervisor spawns");

    // Kill workers the moment they appear, until three external SIGKILLs
    // have landed. The campaign cannot finish while every worker it
    // spawns is being killed, so the kills always land; respawns (10 ms
    // backoff) keep providing fresh victims.
    let mut kills = 0usize;
    let deadline = Instant::now() + Duration::from_secs(120);
    while kills < 3 && Instant::now() < deadline {
        if child.try_wait().unwrap().is_some() {
            break;
        }
        for pid in worker_pids(&dir) {
            if kills >= 3 {
                break;
            }
            let delivered = Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status()
                .map(|s| s.success())
                .unwrap_or(false);
            if delivered {
                kills += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "campaign must survive {kills} external worker SIGKILLs:\n{}",
        stderr_of(&out)
    );
    assert!(kills >= 3, "the harness must land at least 3 kills, landed {kills}");
    assert_eq!(stdout_of(&out), stdout_of(&reference), "stdout identical after {kills} kills");
    assert_eq!(normalized_artifacts(&dir), normalized_artifacts(&ref_dir));
    assert_no_debris(&dir, "sigkill");
    assert!(worker_pids(&dir).is_empty(), "no worker processes outlive the campaign");
    let err = stderr_of(&out);
    assert!(err.contains("worker death(s) absorbed"), "deaths are reported:\n{err}");
}

/// `--workers` with `--no-cache`: workers hand their outcomes back through
/// the run cache, so there is nothing to shard over. The campaign warns once,
/// falls back to in-process threads, and still completes byte-identically
/// to a plain `--no-cache` run.
#[test]
fn no_cache_degrades_to_in_process_with_one_warning() {
    let ref_dir = scratch_dir("nocache-ref");
    let reference = run(&mut campaign(&ref_dir, &["--no-cache"]));
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    let dir = scratch_dir("nocache-workers");
    let out = run(&mut campaign(&dir, &["--no-cache", "--workers", "3"]));
    assert!(out.status.success(), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert_eq!(
        err.matches("falls back to in-process threads").count(),
        1,
        "exactly one degradation warning:\n{err}"
    );
    assert_eq!(stdout_of(&out), stdout_of(&reference), "fallback output is identical");
    assert!(!dir.join("results/cache").exists(), "--no-cache must not create cache state");
}

/// SIGTERM to the supervisor drains the whole campaign: the queue is
/// cleared, every worker's stdin is closed, every worker is reaped, and
/// the supervisor exits `128 + SIGTERM` having leaked nothing.
#[cfg(target_os = "linux")]
#[test]
fn sigterm_drains_supervisor_without_leaks() {
    let dir = scratch_dir("drain");
    let mut cmd = Command::new(BIN);
    cmd.current_dir(&dir)
        .arg("run")
        .args(["--all", "--scale", "smoke", "-j", "1", "--workers", "2"])
        .args(["--json", "results"])
        .args(["--cache-dir", "results/cache"]);
    let mut child =
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("supervisor spawns");

    // Wait until at least one worker is alive so the drain actually has
    // children to manage, then SIGTERM the supervisor itself.
    let deadline = Instant::now() + Duration::from_secs(60);
    while worker_pids(&dir).is_empty() && Instant::now() < deadline {
        assert!(child.try_wait().unwrap().is_none(), "campaign finished before workers appeared");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!worker_pids(&dir).is_empty(), "workers never appeared");
    let delivered = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    assert!(delivered, "SIGTERM delivery failed");

    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(128 + 15),
        "a drained supervisor exits 128+SIGTERM:\n{}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(err.contains("draining 2 workers"), "the drain is announced:\n{err}");
    assert!(err.contains("drained; zero workers left"), "the drain reports clean:\n{err}");

    // Nothing outlives the drain: no worker processes, no temp files.
    let gone = Instant::now() + Duration::from_secs(10);
    while !worker_pids(&dir).is_empty() && Instant::now() < gone {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(worker_pids(&dir).is_empty(), "workers must not outlive the drained supervisor");
    assert_no_debris(&dir, "drain");
}

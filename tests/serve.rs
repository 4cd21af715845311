//! The resident campaign service: `lf-bench serve` + `lf-bench submit`.
//!
//! Each case drives a real server process over its Unix socket and
//! asserts the service contract from outside:
//!
//! 1. a submitted campaign is **byte-identical** to `lf-bench run` —
//!    same stdout, same artifacts (modulo planner telemetry);
//! 2. the same campaign submitted twice concurrently shares every
//!    simulation through the warm cache: zero redundant simulations
//!    across the pair, and a third submission simulates nothing and is
//!    dominated by the render phase (the plan index absorbed the rest);
//! 3. SIGTERM drains the queue and leaks nothing: no socket file, no
//!    temp files, exit `128 + 15`;
//! 4. failure modes stay contained: a malformed request line answers a
//!    `done` record with exit 2 and the server keeps serving; a live
//!    socket is refused by a second server; a stale one is swept.

#![cfg(unix)]

use lf_stats::Json;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_lf-bench");

fn scratch_dir(tag: &str) -> PathBuf {
    let root =
        std::env::var_os("LF_CRASH_SCRATCH").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let dir = root.join(format!("lf-bench-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared campaign flags — identical between `run` (the reference)
/// and `submit` (the service path) so their outputs are comparable.
const CAMPAIGN: &[&str] = &[
    "--all",
    "--scale",
    "smoke",
    "--filter",
    "stencil_blur",
    "-j",
    "2",
    "--json",
    "results",
    "--cache-dir",
    "results/cache",
];

/// A one-shot reference campaign rooted in `dir`.
fn reference(dir: &Path) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(dir).arg("run").args(CAMPAIGN);
    cmd
}

/// A server rooted in `dir`, socket `lf.sock` (relative paths keep stdout
/// byte-comparable across scratch directories).
fn server(dir: &Path) -> Child {
    Command::new(BIN)
        .current_dir(dir)
        .args(["serve", "--socket", "lf.sock", "--cache-dir", "results/cache"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns")
}

/// A `submit` of the shared campaign against `dir`'s server.
fn submit(dir: &Path) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(dir).arg("submit").args(CAMPAIGN).args(["--socket", "lf.sock"]);
    cmd
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("process spawns")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The last protocol record of the given type on a submit client's
/// stderr (the client relays non-stdout records as raw JSON lines).
fn record_of(err: &str, kind: &str) -> Json {
    err.lines()
        .rev()
        .find_map(|line| {
            let line = line.trim();
            if !line.starts_with('{') {
                return None;
            }
            let parsed = Json::parse(line).ok()?;
            (parsed.get("type").and_then(Json::as_str) == Some(kind)).then_some(parsed)
        })
        .unwrap_or_else(|| panic!("no {kind:?} record on the client's stderr:\n{err}"))
}

fn counter(record: &Json, key: &str) -> u64 {
    record.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Every scenario artifact under `results/`, with the volatile `planner`
/// telemetry section nulled out.
fn normalized_artifacts(dir: &Path) -> Vec<(String, String)> {
    let results = dir.join("results");
    let mut artifacts = Vec::new();
    for entry in std::fs::read_dir(&results).expect("results dir exists").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".json")
            || matches!(name.as_str(), "planner.json" | "BENCH_harness.json" | "failures.json")
        {
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

/// No leases, no commit temp files, no poison markers, and no directory
/// for either in the cache — the same hygiene contract the supervisor
/// tests assert.
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

/// Waits for the server's socket file to exist (the client would retry
/// anyway; the tests wait explicitly so failures point at the server).
fn await_socket(dir: &Path, child: &mut Child) {
    let sock = dir.join("lf.sock");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.exists() && Instant::now() < deadline {
        assert!(child.try_wait().unwrap().is_none(), "server died before binding its socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(sock.exists(), "server never bound {}", sock.display());
}

/// SIGTERMs the server and asserts the drain contract: exit `128 + 15`,
/// a drain announcement, and no socket file left behind.
fn drain(dir: &Path, child: Child) -> String {
    let delivered = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    assert!(delivered, "SIGTERM delivery failed");
    let out = child.wait_with_output().unwrap();
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(128 + 15), "a drained server exits 128+SIGTERM:\n{err}");
    assert!(err.contains("serve: drained"), "the drain is announced:\n{err}");
    assert!(!dir.join("lf.sock").exists(), "the drained server removes its socket:\n{err}");
    err
}

/// The heart of the service contract: two concurrent submissions of the
/// same campaign share every simulation (zero redundant across the pair),
/// a third is fully warm — zero simulations, a reused plan, and latency
/// dominated by the render phase — and everything is byte-identical to a
/// one-shot `lf-bench run`. The SIGTERM drain then leaks nothing.
#[test]
fn concurrent_submissions_share_the_warm_cache_byte_identically() {
    let ref_dir = scratch_dir("identity-ref");
    let one_shot = run(&mut reference(&ref_dir));
    assert!(one_shot.status.success(), "{}", stderr_of(&one_shot));

    let dir = scratch_dir("identity-srv");
    let mut srv = server(&dir);
    await_socket(&dir, &mut srv);

    // Two clients race the same campaign. The server queues them; the
    // disk cache and plan index make the loser free.
    let first = submit(&dir).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    let second = submit(&dir).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    let first = first.wait_with_output().unwrap();
    let second = second.wait_with_output().unwrap();
    assert!(first.status.success(), "{}", stderr_of(&first));
    assert!(second.status.success(), "{}", stderr_of(&second));

    // Byte-identity: both submissions reprint exactly the one-shot stdout.
    assert_eq!(stdout_of(&first), stdout_of(&one_shot), "first submission stdout");
    assert_eq!(stdout_of(&second), stdout_of(&one_shot), "second submission stdout");
    assert_eq!(
        normalized_artifacts(&dir),
        normalized_artifacts(&ref_dir),
        "served artifacts must be byte-identical (modulo planner telemetry)"
    );

    // Zero redundant simulations across the concurrent pair: the unique
    // set was simulated exactly once, no matter which request won.
    let d1 = record_of(&stderr_of(&first), "done");
    let d2 = record_of(&stderr_of(&second), "done");
    let unique = counter(&d1, "unique");
    assert!(unique > 0, "the campaign has unique runs: {d1:?}");
    assert_eq!(counter(&d2, "unique"), unique, "both requests dedupe to the same set");
    assert_eq!(
        counter(&d1, "simulated") + counter(&d2, "simulated"),
        unique,
        "the pair simulates the unique set exactly once:\n{d1:?}
{d2:?}"
    );

    // A third submission is fully warm: nothing simulates, the plan index
    // is reused, and the request is dominated by rendering.
    let third = run(&mut submit(&dir));
    assert!(third.status.success(), "{}", stderr_of(&third));
    assert_eq!(stdout_of(&third), stdout_of(&one_shot), "warm submission stdout");
    let err = stderr_of(&third);
    let done = record_of(&err, "done");
    assert_eq!(counter(&done, "simulated"), 0, "a warm request simulates nothing: {done:?}");
    assert_eq!(counter(&done, "disk_hits"), unique, "every unique run comes from cache: {done:?}");
    assert_eq!(done.get("plan_warm"), Some(&Json::Bool(true)), "the plan index is warm: {done:?}");
    let phases = record_of(&err, "phases");
    let render = counter(&phases, "render_us");
    let rest = counter(&phases, "plan_us")
        + counter(&phases, "prepare_us")
        + counter(&phases, "simulate_us");
    assert!(
        render > rest,
        "a fully-cached request is render-dominated: render {render} µs vs plan+prepare+simulate {rest} µs in {phases:?}"
    );

    // Drain: the queue is empty, so SIGTERM just cleans up and exits.
    let err = drain(&dir, srv);
    assert!(err.contains("3 request(s) served"), "the drain counts its requests:\n{err}");
    assert_no_debris(&dir, "identity");
}

/// `submit` with no server: the client retries until its connect deadline,
/// then fails fast with guidance instead of hanging.
#[test]
fn submit_without_a_server_fails_fast_with_guidance() {
    let dir = scratch_dir("no-server");
    let out = run(submit(&dir).env("LF_SERVE_CONNECT_TIMEOUT_MS", "200"));
    assert_eq!(out.status.code(), Some(3), "an unreachable service is exit 3");
    let err = stderr_of(&out);
    assert!(err.contains("no campaign service reachable"), "the error says what happened:\n{err}");
    assert!(err.contains("lf-bench serve"), "the error says how to fix it:\n{err}");
}

/// A malformed request line answers a `done` record with exit 2 — and the
/// server survives to serve the next (well-formed) request.
#[test]
fn malformed_request_is_rejected_without_killing_the_server() {
    let dir = scratch_dir("malformed");
    let mut srv = server(&dir);
    await_socket(&dir, &mut srv);

    let mut stream = std::os::unix::net::UnixStream::connect(dir.join("lf.sock")).unwrap();
    stream.write_all(b"this is not a request\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream.try_clone().unwrap()).read_line(&mut reply).unwrap();
    let done = Json::parse(reply.trim()).expect("the reply is a protocol record");
    assert_eq!(done.get("type").and_then(Json::as_str), Some("done"), "{done:?}");
    assert_eq!(counter(&done, "exit"), 2, "a bad request is exit 2: {done:?}");
    assert!(
        done.get("error").and_then(Json::as_str).unwrap_or("").contains("bad request"),
        "the record carries the parse error: {done:?}"
    );
    drop(stream);

    // The server is still alive and still serves real campaigns.
    let out = run(&mut submit(&dir));
    assert!(out.status.success(), "the server survives a bad request:\n{}", stderr_of(&out));
    drain(&dir, srv);
    assert_no_debris(&dir, "malformed");
}

/// Two servers must not share a cache: a second server on a live
/// socket refuses to start, while a stale socket (dead server) is swept
/// and rebound.
#[test]
fn live_socket_is_refused_and_stale_socket_is_swept() {
    let dir = scratch_dir("socket-claims");
    let mut srv = server(&dir);
    await_socket(&dir, &mut srv);

    let rival = Command::new(BIN)
        .current_dir(&dir)
        .args(["serve", "--socket", "lf.sock", "--cache-dir", "results/cache"])
        .output()
        .unwrap();
    assert_eq!(rival.status.code(), Some(2), "a live socket is refused");
    assert!(
        stderr_of(&rival).contains("live service already owns"),
        "the refusal names the conflict:\n{}",
        stderr_of(&rival)
    );

    // SIGKILL the first server: no cleanup runs, the socket file stays.
    let delivered = Command::new("kill")
        .args(["-KILL", &srv.id().to_string()])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    assert!(delivered, "SIGKILL delivery failed");
    let _ = srv.wait();
    assert!(dir.join("lf.sock").exists(), "a SIGKILLed server leaks its socket file");

    // A successor sweeps the stale socket and serves normally.
    let mut successor = server(&dir);
    await_socket(&dir, &mut successor);
    let out = run(&mut submit(&dir));
    assert!(out.status.success(), "the successor serves:\n{}", stderr_of(&out));
    let err = drain(&dir, successor);
    assert!(err.contains("removed stale socket"), "the sweep is announced:\n{err}");
    assert_no_debris(&dir, "socket-claims");
}

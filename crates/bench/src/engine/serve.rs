//! The resident campaign service: `lf-bench serve` and its thin client
//! `lf-bench submit`.
//!
//! `serve` binds a Unix domain socket and executes queued campaign
//! requests through the same planner → cache → render pipeline as
//! `lf-bench run`, while keeping the expensive state warm across
//! requests: the deduplicated plan index (prepared kernels included, see
//! [`crate::engine::WarmEngine`]) and the run-cache handle. A repeat
//! request therefore skips the plan and prepare phases entirely and its
//! latency is dominated by rendering — the simulations themselves were
//! already absorbed by the disk cache.
//!
//! # Protocol
//!
//! Newline-delimited JSON, one connection per request. The client sends
//! exactly one request line:
//!
//! ```text
//! {"names":[...],"all":true,"scale":"smoke","tier":"detailed",
//!  "filter":"stencil","jobs":4,"workers":1,"json_dir":"results",
//!  "assert_dedup":false}
//! ```
//!
//! and the server answers with a stream of records, ending in `done`:
//!
//! | record | meaning |
//! |---|---|
//! | `{"type":"status",...}` | request accepted, campaign running |
//! | `{"type":"stdout","text":...}` | the campaign's stdout, byte-identical to `lf-bench run` |
//! | `{"type":"telemetry","text":...}` | the campaign's stderr telemetry |
//! | `{"type":"phases","plan_us":...,"render_us":...,...}` | per-phase wall time from the span log |
//! | `{"type":"done","exit":N,"simulated":...,...}` | completion; the client exits with `exit` |
//!
//! The client reprints `stdout` text verbatim on its own stdout and every
//! other record as a raw JSON line on stderr (scripts parse `done` and
//! `phases` from there), then exits with the campaign's exit code —
//! `submit` is observationally a `run`, modulo planner telemetry.
//!
//! # Lifecycle
//!
//! Requests execute one at a time in arrival order; concurrent
//! submissions of the same campaign share every simulation through the
//! disk cache instead of racing. SIGTERM/SIGINT stop the accept loop,
//! drain every request already queued, then remove the socket and exit
//! `128 + signal` — the same drain contract as the supervisor. At
//! startup the server sweeps debris a dead predecessor may have leaked:
//! orphaned commit temps and a stale socket file (a *live* socket is an
//! error — two servers must not share a cache).
//!
//! Each request tags its spans with the request id, so one service
//! process yields per-request traces.

use crate::engine::fault::{RunBudget, DEFAULT_BUDGET_CYCLES};
use lf_stats::Json;
use std::path::PathBuf;

/// How long `submit` keeps retrying the connect before giving up, in
/// milliseconds (default 10 000) — tests and scripts that race the
/// server's startup set this.
pub const CONNECT_TIMEOUT_ENV: &str = "LF_SERVE_CONNECT_TIMEOUT_MS";

/// Server configuration (from `lf-bench serve` flags).
pub struct ServeOptions {
    /// The Unix domain socket to bind.
    pub socket: PathBuf,
    /// The run cache shared by every request.
    pub cache_dir: PathBuf,
}

/// One campaign request: the `run` surface that makes sense to ship to a
/// resident service. Scale and tier travel as their CLI tags so the wire
/// format matches the flags one-to-one.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Positional scenario names (ignored when `all` is set).
    pub names: Vec<String>,
    /// Run every registered scenario (`--all`).
    pub all: bool,
    /// Scale tag: `smoke`, `eval`, or `full`.
    pub scale: String,
    /// Simulation tier tag: `functional`, `sampled`, or `detailed`.
    pub tier: String,
    /// Kernel-name substring filter (`--filter`).
    pub filter: Option<String>,
    /// In-process worker threads (`-j`).
    pub jobs: usize,
    /// Supervised worker processes (`--workers`; 1 = in-process).
    pub workers: usize,
    /// Artifact directory (`--json DIR`), resolved in the server's cwd.
    pub json_dir: Option<String>,
    /// Fail the campaign if no deduplication occurred (`--assert-dedup`).
    pub assert_dedup: bool,
}

impl Request {
    /// The wire form of this request (one line, compact).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("names", Json::Arr(self.names.iter().map(|n| Json::Str(n.clone())).collect()));
        j.set("all", self.all);
        j.set("scale", self.scale.as_str());
        j.set("tier", self.tier.as_str());
        if let Some(f) = &self.filter {
            j.set("filter", f.as_str());
        }
        j.set("jobs", self.jobs);
        j.set("workers", self.workers);
        if let Some(d) = &self.json_dir {
            j.set("json_dir", d.as_str());
        }
        j.set("assert_dedup", self.assert_dedup);
        j
    }

    /// Parses a request line; every field is optional except that a
    /// campaign must name scenarios or set `all` (enforced at execution,
    /// not here, so the error reaches the client as a `done` record).
    pub fn from_json(j: &Json) -> Result<Request, String> {
        let names = j
            .get("names")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .map(|n| n.as_str().map(str::to_string).ok_or("non-string scenario name"))
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?
            .unwrap_or_default();
        let get_bool = |key: &str| matches!(j.get(key), Some(Json::Bool(b)) if *b);
        let get_usize = |key: &str, default: usize| {
            j.get(key).and_then(Json::as_u64).map(|n| n as usize).unwrap_or(default)
        };
        let get_str = |key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
        Ok(Request {
            names,
            all: get_bool("all"),
            scale: get_str("scale").unwrap_or_else(|| "smoke".into()),
            tier: get_str("tier").unwrap_or_else(|| "detailed".into()),
            filter: get_str("filter"),
            jobs: get_usize("jobs", 1).max(1),
            workers: get_usize("workers", 1).max(1),
            json_dir: get_str("json_dir"),
            assert_dedup: get_bool("assert_dedup"),
        })
    }

    /// The run budget a served request executes under — identical to the
    /// `run` default so outputs cannot differ between the two paths.
    pub(crate) fn budget() -> RunBudget {
        RunBudget { max_cycles: Some(DEFAULT_BUDGET_CYCLES), deadline: None }
    }
}

#[cfg(unix)]
pub use imp::{serve_main, submit_main};

#[cfg(not(unix))]
pub fn serve_main(_opts: &ServeOptions) -> i32 {
    eprintln!("error: `lf-bench serve` requires Unix domain sockets");
    2
}

#[cfg(not(unix))]
pub fn submit_main(_socket: &std::path::Path, _request: &Request) -> i32 {
    eprintln!("error: `lf-bench submit` requires Unix domain sockets");
    2
}

#[cfg(unix)]
mod imp {
    use super::{Request, ServeOptions, CONNECT_TIMEOUT_ENV};
    use crate::engine::cache::DiskCache;
    use crate::engine::cli::FinishedCampaign;
    use crate::engine::spans::SpanLog;
    use crate::engine::{
        by_name, registry, run_scenarios_warm, signals, supervise, EngineOptions, EngineOutput,
        Scenario, WarmEngine,
    };
    use crate::runner::scale_tag;
    use crate::tiered::Tier;
    use lf_stats::Json;
    use lf_workloads::Scale;
    use std::collections::VecDeque;
    use std::io::{self, BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Ships one protocol record; a client that hung up mid-stream is not
    /// an error worth dying over (the campaign already ran and committed).
    fn send(stream: &mut UnixStream, record: &Json) {
        let mut line = record.to_string_compact();
        line.push('\n');
        let _ = stream.write_all(line.as_bytes());
    }

    /// The resident service. Returns the process exit code: `128 + signal`
    /// after a drain, small codes for startup failures.
    pub fn serve_main(opts: &ServeOptions) -> i32 {
        signals::install_drain_handlers();
        if let Err(e) = std::fs::create_dir_all(&opts.cache_dir) {
            eprintln!("error: cannot create cache dir {}: {e}", opts.cache_dir.display());
            return 1;
        }
        if let Some(parent) = opts.socket.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        let cache = DiskCache::new(opts.cache_dir.clone());
        // Startup hygiene: a dead predecessor (or a killed one-shot
        // campaign) may have leaked commit temps — and its socket file.
        let swept = crate::durable::sweep_orphan_tmps(cache.dir());
        if swept > 0 {
            eprintln!("serve: startup sweep: {swept} temp file(s)");
        }
        if opts.socket.exists() {
            match UnixStream::connect(&opts.socket) {
                Ok(_) => {
                    eprintln!(
                        "error: a live service already owns {} — two servers must not share a cache",
                        opts.socket.display()
                    );
                    return 2;
                }
                Err(_) => {
                    let _ = std::fs::remove_file(&opts.socket);
                    eprintln!("serve: removed stale socket {}", opts.socket.display());
                }
            }
        }
        let listener = match UnixListener::bind(&opts.socket) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: cannot bind {}: {e}", opts.socket.display());
                return 1;
            }
        };
        if let Err(e) = listener.set_nonblocking(true) {
            eprintln!("error: cannot poll {}: {e}", opts.socket.display());
            return 1;
        }
        eprintln!(
            "serve: listening on {} (cache {})",
            opts.socket.display(),
            opts.cache_dir.display()
        );

        let warm = WarmEngine::new();
        let mut queue: VecDeque<UnixStream> = VecDeque::new();
        let mut next_id: u64 = 1;
        let mut served = 0usize;
        let code = loop {
            let draining = signals::drain_signal();
            if draining.is_none() {
                // Pull everything already waiting so arrival order is
                // preserved even while a long campaign runs.
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => queue.push_back(stream),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => {
                            eprintln!("serve: accept failed: {e}");
                            break;
                        }
                    }
                }
            }
            if let Some(stream) = queue.pop_front() {
                let id = next_id;
                next_id += 1;
                serve_request(stream, id, &cache, &warm);
                served += 1;
            } else if let Some(sig) = draining {
                // The whole queue was drained above; nothing in flight.
                break 128 + sig;
            } else {
                std::thread::sleep(Duration::from_millis(20));
            }
        };
        let _ = std::fs::remove_file(&opts.socket);
        eprintln!("serve: drained; {served} request(s) served; socket removed");
        code
    }

    /// Reads, executes, and answers a single queued request.
    fn serve_request(mut stream: UnixStream, id: u64, cache: &DiskCache, warm: &WarmEngine) {
        let started = Instant::now();
        // A connected-but-silent client must not wedge the whole queue.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut line = String::new();
        if let Ok(clone) = stream.try_clone() {
            let _ = BufReader::new(clone).read_line(&mut line);
        }
        let request = match Json::parse(line.trim()).and_then(|j| Request::from_json(&j)) {
            Ok(r) => r,
            Err(e) => {
                reject(&mut stream, id, 2, &format!("bad request: {e}"));
                return;
            }
        };
        let mut status = Json::obj();
        status.set("type", "status");
        status.set("request", id);
        status.set("state", "running");
        send(&mut stream, &status);
        match execute(&request, id, cache, warm) {
            Err((exit, msg)) => reject(&mut stream, id, exit, &msg),
            Ok((finished, output, phases, plan_warm)) => {
                let mut out = Json::obj();
                out.set("type", "stdout");
                out.set("text", finished.stdout.as_str());
                send(&mut stream, &out);
                let mut tel = Json::obj();
                tel.set("type", "telemetry");
                tel.set("text", finished.stderr.as_str());
                send(&mut stream, &tel);
                let mut ph = Json::obj();
                ph.set("type", "phases");
                ph.set("request", id);
                for (name, us) in &phases {
                    ph.set(&format!("{name}_us"), *us);
                }
                send(&mut stream, &ph);
                let r = &output.report;
                let mut done = Json::obj();
                done.set("type", "done");
                done.set("request", id);
                done.set("exit", finished.exit as u64);
                done.set("requests", r.requests);
                done.set("unique", r.unique);
                done.set("disk_hits", r.disk_hits);
                done.set("simulated", r.simulated);
                done.set("wall_ms", started.elapsed().as_millis() as u64);
                done.set("plan_warm", plan_warm);
                send(&mut stream, &done);
                eprintln!(
                    "serve: request {id}: {} request(s) → {} unique, {} from cache, {} simulated; \
                     plan {}; exit {} in {} ms",
                    r.requests,
                    r.unique,
                    r.disk_hits,
                    r.simulated,
                    if plan_warm { "warm" } else { "cold" },
                    finished.exit,
                    started.elapsed().as_millis()
                );
            }
        }
    }

    fn reject(stream: &mut UnixStream, id: u64, exit: i32, msg: &str) {
        let mut done = Json::obj();
        done.set("type", "done");
        done.set("request", id);
        done.set("exit", exit as u64);
        done.set("error", msg);
        send(stream, &done);
        eprintln!("serve: request {id}: {msg} (exit {exit})");
    }

    /// A served campaign: its rendered output, the engine output, the
    /// per-phase wall times, and whether the plan index was warm.
    type Executed = (FinishedCampaign, EngineOutput, Vec<(String, u64)>, bool);

    /// Runs one campaign with the shared warm state and renders it with
    /// the same back half as `lf-bench run`.
    fn execute(
        request: &Request,
        id: u64,
        cache: &DiskCache,
        warm: &WarmEngine,
    ) -> Result<Executed, (i32, String)> {
        let scale = match request.scale.as_str() {
            "smoke" => Scale::Smoke,
            "eval" => Scale::Eval,
            "full" => Scale::Full,
            other => return Err((2, format!("unknown scale {other:?}"))),
        };
        let tier = Tier::parse(&request.tier)
            .ok_or_else(|| (2, format!("unknown tier {:?}", request.tier)))?;
        let scenarios: Vec<Box<dyn Scenario>> = if request.all {
            registry()
        } else if request.names.is_empty() {
            return Err((2, "a request must name scenarios or set \"all\"".into()));
        } else {
            request
                .names
                .iter()
                .map(|n| by_name(n).ok_or((2, format!("unknown scenario {n:?}"))))
                .collect::<Result<_, _>>()?
        };
        let refs: Vec<&dyn Scenario> = scenarios.iter().map(|s| s.as_ref()).collect();
        let span_log = Arc::new(SpanLog::for_request(id));
        let mut eopts = EngineOptions::new(scale);
        eopts.tier = tier;
        eopts.jobs = request.jobs;
        eopts.filter = request.filter.clone();
        eopts.disk_cache = Some(cache.clone());
        eopts.budget = Request::budget();
        eopts.spans = Some(span_log.clone());
        let hits_before = warm.plan_hits();
        let output = if request.workers > 1 {
            // Multi-process requests go through the supervisor unchanged.
            let sup = supervise::SuperviseConfig::new(
                request.workers,
                &request.names,
                request.all,
                &eopts,
                &[],
            );
            match supervise::run_supervised(&refs, &eopts, &sup) {
                Ok(out) => out,
                Err(code) => {
                    return Err((code, format!("drained mid-campaign (exit {code})")));
                }
            }
        } else {
            run_scenarios_warm(&refs, &eopts, Some(warm))
        };
        let json_dir = request.json_dir.as_ref().map(PathBuf::from);
        let failures =
            json_dir.clone().unwrap_or_else(|| PathBuf::from("results")).join("failures.json");
        let finished = crate::engine::cli::finish_campaign(
            &output,
            refs.len() > 1,
            json_dir.as_deref(),
            &failures,
            scale_tag(scale),
            request.assert_dedup,
        );
        let plan_warm = warm.plan_hits() > hits_before;
        Ok((finished, output, span_log.phase_totals_us(), plan_warm))
    }

    /// The thin client: ship one request, relay the record stream, exit
    /// with the campaign's exit code.
    pub fn submit_main(socket: &Path, request: &Request) -> i32 {
        let timeout_ms = std::env::var(CONNECT_TIMEOUT_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(10_000);
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let mut stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        eprintln!(
                            "error: no campaign service reachable at {} within {timeout_ms} ms ({e}); \
                             start one with `lf-bench serve --socket {}`",
                            socket.display(),
                            socket.display()
                        );
                        return 3;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        };
        let mut line = request.to_json().to_string_compact();
        line.push('\n');
        if let Err(e) = stream.write_all(line.as_bytes()) {
            eprintln!("error: cannot send request: {e}");
            return 3;
        }
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(e) => {
                eprintln!("error: cannot read from service: {e}");
                return 3;
            }
        };
        for record in reader.lines() {
            let Ok(record) = record else { break };
            if record.trim().is_empty() {
                continue;
            }
            let Ok(parsed) = Json::parse(&record) else {
                eprintln!("submit: unparseable record: {record}");
                continue;
            };
            match parsed.get("type").and_then(Json::as_str) {
                // The campaign's stdout, verbatim — this is the
                // byte-identity contract with `lf-bench run`.
                Some("stdout") => {
                    if let Some(text) = parsed.get("text").and_then(Json::as_str) {
                        print!("{text}");
                        let _ = io::stdout().flush();
                    }
                }
                Some("telemetry") => {
                    if let Some(text) = parsed.get("text").and_then(Json::as_str) {
                        eprint!("{text}");
                    }
                }
                Some("done") => {
                    // The raw record goes to stderr so scripts can parse
                    // simulated/disk_hits/exit without scraping prose.
                    eprintln!("{record}");
                    return parsed
                        .get("exit")
                        .and_then(Json::as_u64)
                        .map(|e| e as i32)
                        .unwrap_or(3);
                }
                // status / phases / future records: raw JSON on stderr.
                _ => eprintln!("{record}"),
            }
        }
        eprintln!("error: service closed the connection without a completion record");
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_wire_format() {
        let req = Request {
            names: vec!["stencil_sweep".into(), "hint_matrix".into()],
            all: false,
            scale: "eval".into(),
            tier: "sampled".into(),
            filter: Some("blur".into()),
            jobs: 4,
            workers: 2,
            json_dir: Some("results".into()),
            assert_dedup: true,
        };
        let line = req.to_json().to_string_compact();
        assert!(!line.contains('\n'), "a request must be one line, got {line:?}");
        let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_defaults_fill_missing_fields() {
        let j = Json::parse(r#"{"all":true}"#).unwrap();
        let req = Request::from_json(&j).unwrap();
        assert!(req.all);
        assert_eq!(req.scale, "smoke");
        assert_eq!(req.tier, "detailed");
        assert_eq!(req.jobs, 1);
        assert_eq!(req.workers, 1);
        assert!(req.names.is_empty());
        assert!(req.filter.is_none());
        assert!(req.json_dir.is_none());
        assert!(!req.assert_dedup);
    }

    #[test]
    fn request_rejects_non_string_names() {
        let j = Json::parse(r#"{"names":[1,2]}"#).unwrap();
        assert!(Request::from_json(&j).is_err());
    }

    #[test]
    fn served_requests_run_under_the_one_shot_budget() {
        let b = Request::budget();
        assert_eq!(b.max_cycles, Some(DEFAULT_BUDGET_CYCLES));
        assert!(b.deadline.is_none());
    }
}

//! Supervised multi-process campaign execution.
//!
//! `lf-bench run --workers N` promotes the campaign from one process to a
//! supervisor plus N worker processes (self-exec'd via the hidden
//! `worker` subcommand). The design goal is *worker isolation*: a
//! segfault, OOM-kill, or injected `crash:<rate>` abort in any run costs
//! that worker's in-flight run, never the campaign.
//!
//! The supervisor owns the work queue. It derives the deterministic plan
//! once, queues every unique run the cache does not hold yet, and writes
//! one fingerprint per line to an idle worker's stdin. A worker runs the
//! supervisor's own arguments, so it re-derives the same plan (a pure
//! function of scenarios × scale × tier × filter), prints `ready`, and
//! for each fingerprint it reads simulates the run, commits the outcome
//! through the same atomic cache-store path a single-process campaign
//! uses, and echoes the fingerprint on stdout. It exits 0 at EOF. Once
//! the queue is empty and no run is in flight, the supervisor closes
//! every stdin and runs the ordinary in-process engine over the same
//! plan: everything hits the cache, rendering happens serially in
//! registry order, and the artifacts are byte-identical to a
//! single-process campaign.
//!
//! Failure policy:
//!
//! - *worker death* (crash, SIGKILL, OOM): the supervisor knows the run
//!   the dead worker held, requeues it at the front, and respawns the
//!   slot with capped exponential backoff. Deaths of workers that held
//!   no run (killed while deriving the plan) are capped at
//!   [`MAX_IDLE_DEATHS`]; the poison threshold bounds the others.
//! - *poison runs*: a run whose holders died [`DEFAULT_POISON_THRESHOLD`]
//!   distinct times is not requeued; the final pass records it as a
//!   structured `poisoned` failure instead of executing it (it would take
//!   the supervisor down too).
//! - *drain* (SIGTERM/SIGINT to the supervisor): the queue is cleared and
//!   every stdin closed, so workers exit after their in-flight run; the
//!   process groups of stragglers are killed after [`DRAIN_GRACE`].
//!
//! Locally-contained worker failures (an injected panic, a budget trip)
//! publish nothing: the final pass re-executes the run — deterministically
//! failing the same way — to produce the structured failure record.

use crate::engine::fault::FaultStats;
use crate::engine::planner::{execute, UniqueRun};
use crate::engine::spans::SpanLog;
use crate::engine::{build_plan, run_planned, signals, EngineOptions, EngineOutput, Scenario};
use lf_stats::{fingerprint_hex, parse_fingerprint_hex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Distinct worker deaths after which a run is classified poisonous.
/// Override with `LF_POISON_THRESHOLD`.
pub const DEFAULT_POISON_THRESHOLD: usize = 2;

/// Base delay before respawning a dead worker; doubles per consecutive
/// fast death, capped at [`RESPAWN_BACKOFF_CAP_MS`]. Override the base
/// with `LF_RESPAWN_BACKOFF_MS`.
pub const DEFAULT_RESPAWN_BACKOFF_MS: u64 = 50;

/// Cap on the respawn backoff delay.
pub const RESPAWN_BACKOFF_CAP_MS: u64 = 2_000;

/// Deaths of workers that held no run after which the supervisor stops
/// respawning; whatever is still queued falls to the final pass.
pub const MAX_IDLE_DEATHS: usize = 16;

/// How long drained workers get to finish their in-flight run before
/// their process groups are killed.
pub const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// The line a worker prints once its plan is derived.
const READY: &str = "ready";

/// A line from worker `slot` (pid), or `None` at its stdout EOF.
type Event = (usize, u32, Option<String>);

/// Writes `args` and a newline to `out` in one `write_all` call. Worker
/// processes share the supervisor's stderr, and `eprintln!` may issue one
/// `write` per formatted piece, so concurrent workers could split each
/// other's lines; one buffer written at once arrives whole.
pub(crate) fn write_line(
    out: &mut impl Write,
    args: std::fmt::Arguments<'_>,
) -> std::io::Result<()> {
    let mut line = std::fmt::format(args);
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Prints one line to stderr whole (see [`write_line`]). Every line a
/// worker process prints goes through here.
pub(crate) fn eprint_line(args: std::fmt::Arguments<'_>) {
    let _ = write_line(&mut std::io::stderr().lock(), args);
}

fn env_knob<T: std::str::FromStr + PartialOrd + Default>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > T::default())
        .unwrap_or(default)
}

/// How the supervisor re-invokes this binary as a worker.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Argv (after the executable) of the hidden `worker` subcommand.
    pub worker_args: Vec<String>,
}

impl SuperviseConfig {
    /// `workers` processes running the supervisor's own arguments `args`
    /// (after the executable) as the hidden `worker` subcommand: `worker`
    /// leads, and the token at `command_at`, which named `run`, is dropped.
    /// Every other argument reaches the workers as given; the ones only a
    /// supervisor acts on (`--workers`, `--json`, `--trace-out`,
    /// `--crash-after-ms`) mean nothing to a worker.
    pub fn new(workers: usize, args: &[String], command_at: usize) -> SuperviseConfig {
        let mut worker_args = args.to_vec();
        worker_args.remove(command_at);
        worker_args.insert(0, "worker".to_string());
        SuperviseConfig { workers, worker_args }
    }
}

/// One worker slot: the live child, if any, and the run it holds.
#[derive(Default)]
struct Slot {
    child: Option<Child>,
    /// The worker's stdin; dropping it is the worker's EOF.
    stdin: Option<ChildStdin>,
    /// Pid of the current (or last) worker; 0 before the first spawn.
    pid: u32,
    /// The worker is ready and holds no run.
    idle: bool,
    /// The run handed to the worker and not yet echoed back.
    held: Option<u64>,
    spawned_at: Option<Instant>,
    /// Respawn backoff: the slot stays empty until then.
    not_before: Option<Instant>,
    /// Consecutive deaths within a second of spawning.
    fast_deaths: u32,
    /// Spawning failed; the slot stays empty.
    retired: bool,
}

/// Spawns the worker of `slot` plus a `scope`d thread forwarding its
/// stdout lines, then its EOF, to `events`.
fn spawn_worker<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    exe: &Path,
    sup: &SuperviseConfig,
    slot: usize,
    events: &mpsc::Sender<Event>,
) -> std::io::Result<(Child, ChildStdin)> {
    let mut cmd = Command::new(exe);
    cmd.args(&sup.worker_args).stdin(Stdio::piped()).stdout(Stdio::piped());
    #[cfg(unix)]
    {
        use std::os::unix::process::CommandExt;
        // Each worker leads its own process group: a terminal's ^C reaches
        // only the supervisor, and the drain escalation kills the worker
        // together with anything it spawned.
        cmd.process_group(0);
    }
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take().expect("worker stdin is piped");
    let stdout = child.stdout.take().expect("worker stdout is piped");
    let (pid, events) = (child.id(), events.clone());
    scope.spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if events.send((slot, pid, Some(line))).is_err() {
                return;
            }
        }
        let _ = events.send((slot, pid, None));
    });
    Ok((child, stdin))
}

/// Runs a campaign under the multi-process supervisor and returns the
/// final rendered output (produced by an ordinary in-process engine pass
/// over the worker-filled cache, so rendering is byte-identical to a
/// single-process campaign).
///
/// A drain signal (SIGTERM/SIGINT) reaps the workers and returns
/// `Err(128 + signal)`, the exit code the caller leaves with.
pub fn run_supervised(
    scenarios: &[&dyn Scenario],
    opts: &EngineOptions,
    sup: &SuperviseConfig,
) -> Result<EngineOutput, i32> {
    let started = Instant::now();
    let cache = opts.disk_cache.clone().expect("supervised mode requires the disk cache");
    signals::install_drain_handlers();
    let span_log: Arc<SpanLog> = opts.spans.clone().unwrap_or_default();
    let mut stats = FaultStats::default();
    // Sweep commit temp files orphaned by a killed predecessor before any
    // worker can be mid-commit.
    stats.tmp_swept += cache.sweep_orphan_tmps();
    let mut plan = build_plan(scenarios, opts, &span_log);
    let queue: VecDeque<u64> = plan
        .unique
        .iter()
        .map(|r| r.fingerprint)
        .filter(|&fp| !cache.entry_path(fp).exists())
        .collect();
    eprintln!(
        "supervisor: {} workers, {} of {} run(s) queued",
        sup.workers,
        queue.len(),
        plan.unique.len()
    );
    let poisoned = {
        let _span = span_log.span("phase", "supervise");
        // Workers read the preparation records this plan's full
        // preparations leave, so they are written before any worker
        // derives its plan, and not again by the final pass.
        stats.store_failures += plan.store_records(&cache);
        plan.prepared.unrecorded.clear();
        match std::env::current_exe() {
            Ok(exe) => supervise(&exe, sup, queue, &mut stats)?,
            Err(e) => {
                eprintln!("warning: cannot locate own executable ({e}); running in-process");
                HashMap::new()
            }
        }
    };
    // Final pass over the same plan and the worker-filled cache. Poisoned
    // runs become structured failures instead of executing.
    Ok(run_planned(scenarios, opts, &plan, &span_log, started, &poisoned, stats))
}

/// Hands `queue` out to the workers until every run is committed,
/// poisoned, or left to the final pass. Returns the poisoned runs
/// (fingerprint → distinct worker deaths), or `Err(128 + signal)` once a
/// drain has reaped every worker.
fn supervise(
    exe: &Path,
    sup: &SuperviseConfig,
    mut queue: VecDeque<u64>,
    stats: &mut FaultStats,
) -> Result<HashMap<u64, usize>, i32> {
    let poison_threshold = env_knob("LF_POISON_THRESHOLD", DEFAULT_POISON_THRESHOLD);
    let backoff_base = env_knob("LF_RESPAWN_BACKOFF_MS", DEFAULT_RESPAWN_BACKOFF_MS);
    // Scoped reader threads are joined before this returns; each ends at
    // its worker's stdout EOF, and every worker is reaped by then.
    std::thread::scope(|scope| {
        let (events, rx) = mpsc::channel::<Event>();
        let mut slots: Vec<Slot> = (0..sup.workers).map(|_| Slot::default()).collect();
        // Death ledger: fingerprint → distinct pids that died holding it.
        let mut deaths: HashMap<u64, HashSet<u32>> = HashMap::new();
        let mut poisoned: HashMap<u64, usize> = HashMap::new();
        let mut idle_deaths = 0usize;
        let mut drain: Option<(i32, Instant)> = None;

        loop {
            if drain.is_none() {
                if let Some(sig) = signals::drain_signal() {
                    let live = slots.iter().filter(|s| s.child.is_some()).count();
                    eprintln!("supervisor: received signal {sig}, draining {live} workers");
                    drain = Some((sig, Instant::now() + DRAIN_GRACE));
                    queue.clear();
                }
            }

            // Spawn into empty slots while queued runs outnumber the live
            // workers free to take them.
            let can_spawn = drain.is_none() && idle_deaths < MAX_IDLE_DEATHS;
            let mut free = slots.iter().filter(|s| s.child.is_some() && s.held.is_none()).count();
            for (i, slot) in slots.iter_mut().enumerate() {
                if !can_spawn
                    || queue.len() <= free
                    || slot.child.is_some()
                    || slot.retired
                    || slot.not_before.is_some_and(|t| Instant::now() < t)
                {
                    continue;
                }
                match spawn_worker(scope, exe, sup, i, &events) {
                    Ok((child, stdin)) => {
                        if slot.pid != 0 {
                            stats.worker_respawns += 1;
                        }
                        slot.pid = child.id();
                        slot.child = Some(child);
                        slot.stdin = Some(stdin);
                        slot.spawned_at = Some(Instant::now());
                        free += 1;
                    }
                    Err(e) => {
                        eprintln!("warning: cannot spawn worker {i}: {e}");
                        slot.retired = true;
                    }
                }
            }

            // Hand queued runs to idle workers.
            for slot in slots.iter_mut().filter(|s| s.idle) {
                let (Some(stdin), Some(&fp)) = (slot.stdin.as_mut(), queue.front()) else {
                    continue;
                };
                slot.idle = false;
                if stdin.write_all(format!("{}\n", fingerprint_hex(fp)).as_bytes()).is_ok() {
                    slot.held = queue.pop_front();
                } else {
                    // The worker is already gone; its EOF event follows.
                    slot.stdin = None;
                }
            }

            // Nothing left to hand out: EOF tells every worker to exit.
            if drain.is_some() || (queue.is_empty() && slots.iter().all(|s| s.held.is_none())) {
                for slot in &mut slots {
                    slot.stdin = None;
                }
            }

            if slots.iter().all(|s| s.child.is_none()) {
                if queue.is_empty() {
                    break;
                }
                if !can_spawn || slots.iter().all(|s| s.retired) {
                    eprintln!(
                        "supervisor: no workers left; {} queued run(s) fall to the final pass",
                        queue.len()
                    );
                    break;
                }
            }

            if drain.is_some_and(|(_, deadline)| Instant::now() >= deadline) {
                for (i, slot) in slots.iter_mut().enumerate() {
                    if let Some(mut child) = slot.child.take() {
                        eprintln!(
                            "supervisor: worker {i} ignored the drain grace; killing its group"
                        );
                        signals::kill_group(slot.pid);
                        let _ = child.wait();
                    }
                }
                continue;
            }

            let Ok((i, pid, line)) = rx.recv_timeout(Duration::from_millis(20)) else { continue };
            let slot = &mut slots[i];
            if slot.pid != pid || slot.child.is_none() {
                continue; // a reaped worker's late EOF
            }
            if line.is_some() {
                // `ready`, or the echo of the held run: the worker is idle.
                slot.idle = true;
                slot.held = None;
                continue;
            }
            // EOF: the worker exited (or is about to); reap it.
            slot.stdin = None;
            slot.idle = false;
            let status = slot.child.take().expect("checked above").wait();
            let held = slot.held.take();
            if drain.is_some() || (held.is_none() && status.as_ref().is_ok_and(|s| s.success())) {
                continue;
            }
            stats.worker_deaths += 1;
            let status = status.map_or_else(|e| e.to_string(), |s| s.to_string());
            let fast = slot.spawned_at.is_some_and(|t| t.elapsed() < Duration::from_secs(1));
            slot.fast_deaths = if fast { slot.fast_deaths + 1 } else { 0 };
            // Capped exponential backoff per slot: a crash storm cannot melt
            // the host with respawn churn.
            let delay = (backoff_base << slot.fast_deaths.min(6)).min(RESPAWN_BACKOFF_CAP_MS);
            stats.backoff_ms += delay;
            slot.not_before = Some(Instant::now() + Duration::from_millis(delay));
            let Some(fp) = held else {
                idle_deaths += 1;
                eprintln!("supervisor: worker {i} (pid {pid}) died ({status}) before taking a run");
                if idle_deaths == MAX_IDLE_DEATHS {
                    eprintln!(
                        "supervisor: {idle_deaths} workers died without a run; no more respawns"
                    );
                }
                continue;
            };
            eprintln!(
                "supervisor: worker {i} (pid {pid}) died ({status}) holding run {}",
                fingerprint_hex(fp)
            );
            let dead = deaths.entry(fp).or_default();
            dead.insert(pid);
            if dead.len() >= poison_threshold {
                eprintln!(
                    "supervisor: run {} poisoned after {} worker deaths",
                    fingerprint_hex(fp),
                    dead.len()
                );
                poisoned.insert(fp, dead.len());
            } else {
                queue.push_front(fp);
            }
        }

        if let Some((sig, _)) = drain {
            eprintln!("supervisor: drained; zero workers left");
            return Err(128 + sig);
        }
        Ok(poisoned)
    })
}

/// Entry point of the hidden `worker` subcommand: derive the plan, print
/// `ready`, then run every fingerprint read from stdin and echo it on
/// stdout once its outcome is committed. Returns the process exit code:
/// 0 at EOF, 2 for a fingerprint outside the plan or a campaign without
/// the run cache.
pub fn worker_main(scenarios: &[&dyn Scenario], opts: &EngineOptions) -> i32 {
    if opts.disk_cache.is_none() {
        eprint_line(format_args!("worker: --no-cache leaves nowhere to commit outcomes"));
        return 2;
    }
    let span_log: Arc<SpanLog> = Arc::default();
    let plan = build_plan(scenarios, opts, &span_log);
    let runs: HashMap<u64, &UniqueRun> = plan.unique.iter().map(|r| (r.fingerprint, r)).collect();
    let mut stdout = std::io::stdout().lock();
    // A failed write means the supervisor is gone: stop quietly.
    if writeln!(stdout, "{READY}").is_err() {
        return 0;
    }
    for line in std::io::stdin().lock().lines().map_while(Result::ok) {
        let Some(run) = parse_fingerprint_hex(&line).and_then(|fp| runs.get(&fp)) else {
            eprint_line(format_args!("worker: {line:?} is not a run of this plan"));
            return 2;
        };
        // One run is a family and a pool item of its own: it serves
        // nothing, and a sampled run builds its own plan. The store
        // counters are dropped; a worker reports only what it committed.
        // An injected crash aborts right here: the worker dies holding
        // the run, which is exactly what the supervisor exists to absorb.
        // A failed run publishes nothing: the final pass re-executes it,
        // fails the same way, and writes the structured record.
        let executed = execute(&[*run], opts, &span_log, &mut FaultStats::default());
        if let Err(error) = &executed.results[0] {
            eprint_line(format_args!("worker: run {line} failed locally: {}", error.message()));
        }
        if writeln!(stdout, "{line}").is_err() {
            return 0;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::{write_line, SuperviseConfig};
    use std::io::Write;

    /// A worker runs the supervisor's arguments with the `run` token the
    /// parser read as the subcommand dropped and `worker` first; a `run`
    /// that is a flag's value stays.
    #[test]
    fn workers_run_the_supervisors_own_arguments() {
        let args = [
            "--scale",
            "eval",
            "run",
            "--filter",
            "run",
            "--all",
            "--workers",
            "2",
            "--inject-fault",
            "panic:0.1",
        ]
        .map(String::from);
        let command_at = crate::engine::cli::parse(&args).command_at;
        let sup = SuperviseConfig::new(2, &args, command_at);
        assert_eq!(
            sup.worker_args,
            [
                "worker",
                "--scale",
                "eval",
                "--filter",
                "run",
                "--all",
                "--workers",
                "2",
                "--inject-fault",
                "panic:0.1"
            ]
        );
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct Calls(Vec<Vec<u8>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_formatted_line_arrives_in_one_write() {
        let mut out = Calls::default();
        let run = 0x00c0_ffee_u64;
        write_line(
            &mut out,
            format_args!("injected fault: crash (run {run:016x}) — aborting the campaign process"),
        )
        .unwrap();
        assert_eq!(out.0.len(), 1, "one line, one write: {:?}", out.0);
        assert_eq!(
            String::from_utf8(out.0.remove(0)).unwrap(),
            "injected fault: crash (run 0000000000c0ffee) — aborting the campaign process\n"
        );
    }
}

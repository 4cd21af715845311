//! Supervised multi-process campaign execution.
//!
//! `lf-bench run --workers N` promotes the campaign from one process to a
//! supervisor plus N worker processes (self-exec'd via the hidden
//! `worker` subcommand). The design goal is *worker isolation*: a
//! segfault, OOM-kill, or injected `crash:<rate>` abort in any run costs
//! that worker's in-flight run, never the campaign.
//!
//! The architecture has no supervisor-to-worker work queue. Each worker
//! independently re-derives the deterministic run plan (the plan is a
//! pure function of scenarios × scale × tier × filter) and races its
//! siblings for unique runs through the shared claim space under the
//! cache directory (see [`crate::engine::lease`]). A worker is purely a
//! *cache filler*: it claims a fingerprint, simulates it, commits the
//! outcome through the same atomic cache-store path a single-process
//! campaign uses, releases the lease, and moves on. When every planned
//! fingerprint is either committed or quarantined, workers exit 0 and the
//! supervisor runs the ordinary in-process engine one final time:
//! everything hits the cache, rendering happens serially in registry
//! order, and the artifacts are byte-identical to a single-process
//! campaign.
//!
//! Failure policy:
//!
//! - *worker death* (crash, SIGKILL, OOM): the supervisor reaps the
//!   child, attributes its held leases, force-releases them, and spawns a
//!   replacement with capped exponential backoff. Only the in-flight run
//!   is lost, and a surviving or replacement worker retries it.
//! - *poison runs*: a fingerprint whose lease holders died
//!   [`poison_threshold`] distinct times is quarantined — a marker file
//!   under `<cache>/poison/` keeps workers away, and the final rendering
//!   pass converts it into a structured `poisoned` failure in
//!   `failures.json` instead of executing it (it would take the
//!   supervisor down too).
//! - *drain* (SIGTERM/SIGINT to the supervisor): workers are signalled
//!   via their process groups, given a grace period, then killed;
//!   every child is reaped and leases are swept.
//!
//! Locally-contained worker failures (an injected panic, a budget trip)
//! deliberately do *not* publish anything: the worker marks the run done
//! for itself and releases the lease, and the final in-process pass
//! re-executes the run — deterministically failing the same way — to
//! produce the structured failure record. Duplicate execution is always
//! benign here: runs are deterministic and cache commits are idempotent
//! atomic renames.

use crate::engine::fault::FaultStats;
use crate::engine::lease::{Claim, Lease, LeaseDir};
use crate::engine::signals;
use crate::engine::spans::SpanLog;
use crate::engine::{
    build_plan, execute_single, run_scenarios, store_outcome, EngineOptions, EngineOutput, Scenario,
};
use lf_stats::fingerprint_hex;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
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

/// Total replacement workers the supervisor will spawn before giving up
/// and letting the final in-process pass absorb the remaining work.
/// Override with `LF_MAX_RESPAWNS`.
pub const DEFAULT_MAX_RESPAWNS: usize = 64;

/// Grace period between SIGTERM-ing worker groups on drain and
/// escalating to SIGKILL. Override with `LF_DRAIN_GRACE_MS`.
pub const DEFAULT_DRAIN_GRACE_MS: u64 = 10_000;

/// Worker exit code for "drained on supervisor request".
const EXIT_DRAINED: i32 = 130;

/// Worker rescan backoff bounds: when a scan of the plan makes no
/// progress (everything pending is leased elsewhere), the worker sleeps
/// with capped exponential backoff before rescanning.
const RESCAN_BACKOFF_BASE_MS: u64 = 25;
const RESCAN_BACKOFF_CAP_MS: u64 = 500;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).filter(|&v| v > 0).unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).filter(|&v| v > 0).unwrap_or(default)
}

/// How the supervisor re-invokes this binary as a worker.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Argv (after the executable) for the hidden `worker` subcommand,
    /// *without* the trailing `--worker-id N` (the supervisor appends it
    /// per slot).
    pub worker_args: Vec<String>,
}

/// Poison-marker path for a fingerprint.
fn poison_path(dir: &Path, fingerprint: u64) -> std::path::PathBuf {
    dir.join(format!("{}.poison", fingerprint_hex(fingerprint)))
}

/// Removes every poison marker (they are per-campaign verdicts, not
/// durable state).
fn clear_poison(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_str().is_some_and(|n| n.ends_with(".poison")) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// One supervised worker slot: the live child plus its accounting.
struct WorkerSlot {
    id: u64,
    child: Option<Child>,
    pid: u32,
    spawned_at: Instant,
    /// Consecutive fast deaths (for per-slot respawn backoff).
    fast_deaths: u32,
    /// The slot finished cleanly (exit 0, or drained).
    done: bool,
}

fn spawn_worker(exe: &Path, sup: &SuperviseConfig, id: u64) -> std::io::Result<Child> {
    let mut cmd = Command::new(exe);
    cmd.args(&sup.worker_args)
        .arg("--worker-id")
        .arg(id.to_string())
        // Workers must never write to the campaign's stdout: rendered
        // output is produced only by the supervisor's final pass, so
        // stdout stays byte-identical to a single-process run.
        .stdout(Stdio::null());
    #[cfg(unix)]
    {
        use std::os::unix::process::CommandExt;
        // Each worker leads its own process group so a drain signal (and
        // the SIGKILL escalation) reaches anything the worker spawned.
        cmd.process_group(0);
    }
    cmd.spawn()
}

/// Runs a campaign under the multi-process supervisor and returns the
/// final rendered output (produced by an ordinary in-process engine pass
/// over the worker-filled cache, so rendering is byte-identical to a
/// single-process campaign).
///
/// A drain signal (SIGTERM/SIGINT) reaps the workers, sweeps the leases,
/// and returns `Err(128 + signal)` — the caller decides whether that
/// exits the process (one-shot `run`) or merely finishes the request
/// (the resident server, which still owns a socket to clean up).
pub fn run_supervised(
    scenarios: &[&dyn Scenario],
    opts: &EngineOptions,
    sup: &SuperviseConfig,
) -> Result<EngineOutput, i32> {
    let cache = opts.disk_cache.clone().expect("supervised mode requires the disk cache");
    signals::install_drain_handlers();

    let mut stats = FaultStats::default();
    // Campaign setup: sweep debris of any previous campaign — orphaned
    // commit temp files, stale leases, stale poison markers. None of it
    // is owned by a live process (concurrent campaigns in one cache dir
    // are unsupported).
    stats.tmp_swept += crate::durable::sweep_orphan_tmps(cache.dir());
    let expiry = LeaseDir::env_expiry();
    let leases = match LeaseDir::open(&cache.leases_dir(), expiry, u64::MAX) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("warning: cannot open lease dir ({e}); falling back to in-process execution");
            return Ok(run_scenarios(scenarios, opts));
        }
    };
    leases.sweep();
    let poison_dir = cache.poison_dir();
    let _ = std::fs::create_dir_all(&poison_dir);
    clear_poison(&poison_dir);

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("warning: cannot locate own executable ({e}); falling back to in-process");
            return Ok(run_scenarios(scenarios, opts));
        }
    };
    let poison_threshold = env_usize("LF_POISON_THRESHOLD", DEFAULT_POISON_THRESHOLD);
    let respawn_base = env_u64("LF_RESPAWN_BACKOFF_MS", DEFAULT_RESPAWN_BACKOFF_MS);
    let max_respawns = env_usize("LF_MAX_RESPAWNS", DEFAULT_MAX_RESPAWNS);
    let drain_grace = Duration::from_millis(env_u64("LF_DRAIN_GRACE_MS", DEFAULT_DRAIN_GRACE_MS));

    let mut slots: Vec<WorkerSlot> = Vec::new();
    for id in 0..sup.workers as u64 {
        match spawn_worker(&exe, sup, id) {
            Ok(child) => {
                let pid = child.id();
                slots.push(WorkerSlot {
                    id,
                    child: Some(child),
                    pid,
                    spawned_at: Instant::now(),
                    fast_deaths: 0,
                    done: false,
                });
            }
            Err(e) => eprintln!("warning: cannot spawn worker {id}: {e}"),
        }
    }
    if slots.is_empty() {
        eprintln!("warning: no workers could be spawned; falling back to in-process execution");
        return Ok(run_scenarios(scenarios, opts));
    }
    eprintln!("supervisor: {} workers, lease expiry {:?}", slots.len(), expiry);

    // Death ledger: fingerprint → distinct dead holder pids.
    let mut deaths: HashMap<u64, HashSet<u32>> = HashMap::new();
    let mut poisoned: HashMap<u64, usize> = HashMap::new();
    let mut respawns = 0usize;
    let mut draining: Option<i32> = None;

    loop {
        // Forward a drain request exactly once, to every live group.
        if draining.is_none() {
            if let Some(sig) = signals::drain_signal() {
                eprintln!("supervisor: received signal {sig}, draining {} workers", slots.len());
                draining = Some(sig);
                for slot in slots.iter().filter(|s| s.child.is_some()) {
                    signals::terminate_group(slot.pid);
                }
            }
        }

        // Reap deaths and clean exits.
        for slot in slots.iter_mut() {
            let Some(child) = slot.child.as_mut() else { continue };
            match child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) => {
                    slot.child = None;
                    let clean = status.success()
                        || (draining.is_some() && status.code() == Some(EXIT_DRAINED));
                    if clean {
                        slot.done = true;
                        continue;
                    }
                    // Abnormal death: attribute the worker's held leases,
                    // free them for retry, and score the death ledger.
                    stats.worker_deaths += 1;
                    let held = leases.held_by(slot.pid);
                    eprintln!(
                        "supervisor: worker {} (pid {}) died ({status}), {} lease(s) in flight",
                        slot.id,
                        slot.pid,
                        held.len()
                    );
                    for fp in held {
                        let entry = deaths.entry(fp).or_default();
                        entry.insert(slot.pid);
                        leases.force_release(fp);
                        stats.lease_reclaims += 1;
                        if entry.len() >= poison_threshold && !poisoned.contains_key(&fp) {
                            poisoned.insert(fp, entry.len());
                            let marker = format!("killed {} distinct workers\n", entry.len());
                            let _ = std::fs::write(poison_path(&poison_dir, fp), marker);
                            eprintln!(
                                "supervisor: run {} poisoned after {} worker deaths",
                                fingerprint_hex(fp),
                                entry.len()
                            );
                        }
                    }
                    if slot.spawned_at.elapsed() < Duration::from_secs(1) {
                        slot.fast_deaths += 1;
                    } else {
                        slot.fast_deaths = 0;
                    }
                    if draining.is_some() {
                        slot.done = true;
                    } else if respawns < max_respawns {
                        // Capped exponential backoff per slot: a crash
                        // storm (every claim aborts) cannot melt the host
                        // with respawn churn.
                        let delay =
                            (respawn_base << slot.fast_deaths.min(6)).min(RESPAWN_BACKOFF_CAP_MS);
                        stats.backoff_ms += delay;
                        std::thread::sleep(Duration::from_millis(delay));
                        match spawn_worker(&exe, sup, slot.id) {
                            Ok(c) => {
                                respawns += 1;
                                stats.worker_respawns += 1;
                                slot.pid = c.id();
                                slot.child = Some(c);
                                slot.spawned_at = Instant::now();
                            }
                            Err(e) => {
                                eprintln!("warning: cannot respawn worker {}: {e}", slot.id);
                                slot.done = true;
                            }
                        }
                    } else {
                        eprintln!(
                            "supervisor: respawn budget exhausted; worker {} stays down",
                            slot.id
                        );
                        slot.done = true;
                    }
                }
                Err(e) => {
                    eprintln!("warning: cannot poll worker {}: {e}", slot.id);
                    slot.child = None;
                    slot.done = true;
                }
            }
        }

        if slots.iter().all(|s| s.child.is_none()) {
            break;
        }

        if let Some(_sig) = draining {
            // Give workers the grace period from the moment of the drain;
            // approximate by bounding the whole drain with one deadline.
            let deadline = Instant::now() + drain_grace;
            while slots.iter().any(|s| s.child.is_some()) && Instant::now() < deadline {
                for slot in slots.iter_mut() {
                    if let Some(child) = slot.child.as_mut() {
                        if let Ok(Some(_)) = child.try_wait() {
                            slot.child = None;
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            for slot in slots.iter_mut() {
                if let Some(mut child) = slot.child.take() {
                    eprintln!(
                        "supervisor: worker {} ignored the drain grace; killing its group",
                        slot.id
                    );
                    signals::kill_group(slot.pid);
                    let _ = child.wait();
                }
            }
            break;
        }

        std::thread::sleep(Duration::from_millis(20));
    }

    // Every child is reaped at this point. Any lease still on disk was
    // leaked by a worker that died outside the reap path; sweep them (a
    // clean campaign sweeps zero).
    stats.lease_reclaims += leases.sweep();
    stats.lease_clock_skew += leases.clock_skew_events() as usize;

    if let Some(sig) = draining {
        clear_poison(&poison_dir);
        eprintln!("supervisor: drained; zero workers, zero leases left");
        return Err(128 + sig);
    }

    // Final pass: an ordinary in-process campaign over the worker-filled
    // cache. Poisoned runs become structured failures instead of
    // executing; the supervisor's counters merge into the pass's own
    // telemetry.
    let mut final_opts = opts.clone();
    final_opts.poisoned = poisoned;
    final_opts.carried_faults = stats;
    let out = run_scenarios(scenarios, &final_opts);
    clear_poison(&poison_dir);
    Ok(out)
}

/// Entry point of the hidden `worker` subcommand: claim-loop over the
/// re-derived deterministic plan until every planned fingerprint is
/// committed, poisoned, or locally attempted. Returns the process exit
/// code (0 = plan complete, 130 = drained).
pub fn worker_main(
    scenarios: &[&dyn Scenario],
    opts: &EngineOptions,
    worker_id: u64,
    workers: usize,
) -> i32 {
    signals::install_drain_handlers();
    let Some(cache) = opts.disk_cache.clone() else {
        eprintln!("worker {worker_id}: --no-cache has no claim space; nothing to do");
        return 2;
    };
    let span_log: Arc<SpanLog> = Arc::default();
    let plan = build_plan(scenarios, opts, &span_log);
    let expiry = LeaseDir::env_expiry();
    let leases = match LeaseDir::open(&cache.leases_dir(), expiry, worker_id) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("worker {worker_id}: cannot open lease dir: {e}");
            return 2;
        }
    };
    let poison_dir = cache.poison_dir();

    // The heartbeat thread refreshes whichever lease the claim loop
    // currently holds, so a legitimately slow simulation is not mistaken
    // for a stalled worker and stolen mid-run.
    let current: Arc<Mutex<Option<Lease>>> = Arc::new(Mutex::new(None));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hb_interval = (expiry / 4).max(Duration::from_millis(10));
    let hb = {
        let current = current.clone();
        let stop = stop.clone();
        let leases = leases.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(hb_interval);
                let guard = current.lock().expect("heartbeat mutex poisoned");
                if let Some(lease) = guard.as_ref() {
                    let fp = lease.fingerprint();
                    if let Err(e) = leases.heartbeat(lease) {
                        eprintln!("worker: heartbeat failed for {}: {e}", fingerprint_hex(fp));
                    }
                }
            }
        })
    };

    // Claim loop. Workers scan the plan from different offsets so they
    // mostly avoid racing the same fingerprint; rescans back off
    // exponentially (capped) when everything left is leased elsewhere.
    let n = plan.unique.len();
    let offset = (worker_id as usize * n).checked_div(workers).unwrap_or(0);
    let mut done: HashSet<u64> = HashSet::new();
    let mut local_faults = FaultStats::default();
    let mut backoff_ms = RESCAN_BACKOFF_BASE_MS;
    let mut exit_code = 0;
    'outer: loop {
        if signals::drain_signal().is_some() {
            exit_code = EXIT_DRAINED;
            break 'outer;
        }
        let mut progress = false;
        let mut remaining = 0usize;
        for i in 0..n {
            let run = &plan.unique[(offset + i) % n];
            let fp = run.fingerprint;
            if done.contains(&fp) {
                continue;
            }
            if cache.entry_path(fp).exists() || poison_path(&poison_dir, fp).exists() {
                done.insert(fp);
                continue;
            }
            if signals::drain_signal().is_some() {
                exit_code = EXIT_DRAINED;
                break 'outer;
            }
            match leases.try_claim(fp) {
                Err(e) => {
                    eprintln!("worker {worker_id}: claim failed for {}: {e}", fingerprint_hex(fp));
                    remaining += 1;
                }
                Ok(Claim::Held { .. }) => {
                    remaining += 1;
                }
                Ok(Claim::Contended { age, holder }) => {
                    // The claim retry budget burned out on reclaim churn
                    // without ever seeing a live heartbeat. Count it, log
                    // it, and let the rescan backoff absorb the spin.
                    local_faults.lease_contended += 1;
                    eprintln!(
                        "worker {worker_id}: claim space for {} contended \
                         (last holder {holder:?}, last age {age:?}); backing off",
                        fingerprint_hex(fp)
                    );
                    remaining += 1;
                }
                Ok(Claim::Acquired(lease)) => {
                    // The race window between the cache probe and the
                    // claim: if the previous holder committed and
                    // released in between, skip the redundant execution.
                    if cache.entry_path(fp).exists() {
                        lease.release();
                        done.insert(fp);
                        progress = true;
                        continue;
                    }
                    *current.lock().expect("heartbeat mutex poisoned") = Some(lease);
                    // An injected crash aborts right here — the whole
                    // worker dies holding the lease, which is exactly the
                    // failure the supervisor exists to absorb.
                    match execute_single(run, opts, &span_log) {
                        Ok(outcome) => {
                            store_outcome(&cache, fp, &outcome, opts, &mut local_faults);
                        }
                        Err(error) => {
                            // Locally-contained failure (panic, budget,
                            // sim error): publish nothing. The final
                            // in-process pass re-executes this run — the
                            // failure is deterministic — and writes the
                            // structured record. Mark it done so this
                            // worker does not spin on it.
                            eprintln!(
                                "worker {worker_id}: run {} failed locally: {}",
                                fingerprint_hex(fp),
                                error.message()
                            );
                        }
                    }
                    done.insert(fp);
                    if let Some(lease) = current.lock().expect("heartbeat mutex poisoned").take() {
                        lease.release();
                    }
                    progress = true;
                }
            }
        }
        if remaining == 0 {
            break;
        }
        if progress {
            backoff_ms = RESCAN_BACKOFF_BASE_MS;
        } else {
            std::thread::sleep(Duration::from_millis(backoff_ms));
            backoff_ms = (backoff_ms * 2).min(RESCAN_BACKOFF_CAP_MS);
        }
    }

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = hb.join();
    // Belt and braces: a drained loop may still hold a lease.
    if let Some(lease) = current.lock().expect("heartbeat mutex poisoned").take() {
        lease.release();
    }
    // Workers have no channel back to the supervisor's FaultStats, so
    // claim-space anomalies are at least made visible on stderr.
    local_faults.lease_clock_skew += leases.clock_skew_events() as usize;
    if local_faults.lease_contended > 0 || local_faults.lease_clock_skew > 0 {
        eprintln!(
            "worker {worker_id}: claim-space anomalies: {} contended claim(s), {} clock-skew probe(s)",
            local_faults.lease_contended, local_faults.lease_clock_skew
        );
    }
    exit_code
}

//! Lease-based claims over the shared run cache.
//!
//! When a campaign is sharded across worker *processes*, the workers have
//! no shared memory — the only coordination substrate they share is the
//! cache directory. Each unique fingerprint is claimed by creating
//! `<cache>/leases/<fp>.lease` with `O_CREAT|O_EXCL`
//! ([`std::fs::File::create_new`]), which the filesystem guarantees to
//! succeed for exactly one claimant. The file body carries holder
//! metadata (pid, worker id, timestamps) as JSON; the file **mtime** is
//! the heartbeat. Content is advisory — a reader racing a rewrite may see
//! a torn body, and must still make a safe decision from metadata alone.
//!
//! Reclamation has two triggers:
//!
//! - *dead holder*: the body parses and `kill(pid, 0)` says the holder is
//!   gone — reclaim immediately, no need to wait out the expiry;
//! - *stale heartbeat*: the mtime is older than the expiry window — the
//!   holder is stalled (or its heartbeat thread is wedged), so the claim
//!   is forfeit even if the process is technically alive.
//!
//! Stealing is itself racy (N workers may all observe the same stale
//! lease), so the steal is an atomic `rename` to a unique graveyard name:
//! the filesystem picks exactly one winner, losers see `NotFound` and
//! retry the claim loop. A stolen claim can mean *duplicate execution* if
//! the stalled holder later finishes — that is benign by design: runs are
//! deterministic and cache stores are idempotent atomic renames, so both
//! executions publish identical bytes.

use crate::durable;
use crate::engine::signals;
use lf_stats::Json;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Lease file suffix inside the leases directory.
pub const LEASE_SUFFIX: &str = ".lease";

/// Default heartbeat-expiry window. A lease whose mtime is older than
/// this is considered abandoned. Override with `LF_LEASE_EXPIRY_MS`.
pub const DEFAULT_EXPIRY_MS: u64 = 5_000;

/// The outcome of one claim attempt.
#[derive(Debug)]
pub enum Claim {
    /// This caller now holds the lease.
    Acquired(Lease),
    /// Someone else holds a live lease; `holder` is the pid recorded in
    /// the lease body if it was readable.
    Held {
        /// Heartbeat age of the competing lease at probe time. `None`
        /// when the age was unobtainable (future-dated mtime from clock
        /// skew) — the lease looked live for some *other* reason.
        age: Option<Duration>,
        /// Holder pid, when the lease body parsed cleanly.
        holder: Option<u32>,
    },
    /// The retry budget ran out without either acquiring the lease or
    /// observing a live competitor: every round found a reclaimable
    /// lease, stole it, and lost the re-create race (or the probe kept
    /// missing a vanishing file). Distinct from [`Claim::Held`] so the
    /// caller can log the churn and back off instead of treating it as
    /// a freshly heartbeated lease.
    Contended {
        /// The last observed heartbeat age, if any probe succeeded.
        age: Option<Duration>,
        /// The last observed holder pid, if any body parsed.
        holder: Option<u32>,
    },
}

/// A held lease. Dropping it releases best-effort; call
/// [`Lease::release`] for the deliberate path.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    fingerprint: u64,
    released: bool,
}

impl Lease {
    /// The fingerprint this lease covers.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Deliberately releases the lease (removes the lease file).
    pub fn release(mut self) {
        self.released = true;
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if !self.released {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Handle on a campaign's lease directory.
#[derive(Debug, Clone)]
pub struct LeaseDir {
    dir: PathBuf,
    expiry: Duration,
    pid: u32,
    worker: u64,
    /// Monotonic per-process counter making graveyard names unique.
    steal_seq: std::sync::Arc<std::sync::atomic::AtomicU64>,
    /// Probes whose heartbeat age was unobtainable (future-dated mtime
    /// from clock skew or a backwards clock step). Surfaced in planner
    /// telemetry so chronic skew on a shared filesystem is visible.
    skew_events: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl LeaseDir {
    /// Opens (creating if needed) the lease directory with the given
    /// expiry window and claimant identity.
    pub fn open(dir: &Path, expiry: Duration, worker: u64) -> io::Result<LeaseDir> {
        std::fs::create_dir_all(dir)?;
        Ok(LeaseDir {
            dir: dir.to_path_buf(),
            expiry,
            pid: std::process::id(),
            worker,
            steal_seq: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            skew_events: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        })
    }

    /// How many lease probes found an unobtainable heartbeat age (clock
    /// skew) through this handle and its clones.
    pub fn clock_skew_events(&self) -> u64 {
        self.skew_events.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn note_skew(&self) {
        self.skew_events.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The expiry window configured for this directory (from
    /// `LF_LEASE_EXPIRY_MS` or [`DEFAULT_EXPIRY_MS`]).
    pub fn expiry(&self) -> Duration {
        self.expiry
    }

    /// The expiry window read from the environment.
    pub fn env_expiry() -> Duration {
        let ms = std::env::var("LF_LEASE_EXPIRY_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_EXPIRY_MS);
        Duration::from_millis(ms)
    }

    fn lease_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}{LEASE_SUFFIX}"))
    }

    fn body(&self, fingerprint: u64) -> String {
        let now = unix_ms();
        let mut obj = Json::obj();
        obj.set("fingerprint", Json::Str(format!("{fingerprint:016x}")));
        obj.set("pid", Json::from(self.pid as u64));
        obj.set("worker", Json::from(self.worker));
        obj.set("heartbeat_unix_ms", Json::from(now));
        obj.to_string_pretty()
    }

    /// Attempts to claim `fingerprint`. Reclaims dead-holder and
    /// expired leases in-line (bounded retries), so a single call is the
    /// whole claim protocol from the caller's point of view. Returns
    /// [`Claim::Held`] when a live competitor holds the lease and
    /// [`Claim::Contended`] when the retry budget runs out.
    pub fn try_claim(&self, fingerprint: u64) -> io::Result<Claim> {
        // One initial attempt plus a bounded number of steal-and-retry
        // rounds; an unbounded loop could spin forever against a
        // pathological filesystem.
        self.try_claim_rounds(fingerprint, 4)
    }

    pub(crate) fn try_claim_rounds(&self, fingerprint: u64, rounds: usize) -> io::Result<Claim> {
        let path = self.lease_path(fingerprint);
        // Last probe observation, carried into Contended so the caller
        // sees what the claim loop saw rather than a blank outcome.
        let mut last: (Option<Duration>, Option<u32>) = (None, None);
        for _ in 0..rounds {
            match std::fs::File::create_new(&path) {
                Ok(mut file) => {
                    use std::io::Write;
                    let _ = file.write_all(self.body(fingerprint).as_bytes());
                    let _ = file.sync_data();
                    return Ok(Claim::Acquired(Lease {
                        path: path.clone(),
                        fingerprint,
                        released: false,
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let (age, holder) = match probe(&path) {
                        Some(p) => p,
                        // Vanished between create and probe: retry.
                        None => continue,
                    };
                    last = (age, holder);
                    let holder_dead = holder.is_some_and(|pid| !signals::pid_alive(pid));
                    match age {
                        // A readable, in-window heartbeat from a live
                        // holder is the only thing that defers us.
                        Some(age) if age <= self.expiry && !holder_dead => {
                            return Ok(Claim::Held { age: Some(age), holder });
                        }
                        // Unobtainable age (future-dated mtime from
                        // clock skew): the heartbeat cannot certify
                        // freshness, so fall through to the reclaim
                        // path exactly as an expired lease would —
                        // treating it as fresh would make a stalled
                        // holder with a live-looking pid immortal.
                        None => self.note_skew(),
                        _ => {}
                    }
                    // Stale or dead-holder lease: steal via atomic rename —
                    // exactly one stealer wins the rename, the rest retry.
                    let seq = self.steal_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let grave =
                        self.dir.join(format!("{fingerprint:016x}.reclaim.{}.{seq}", self.pid));
                    match std::fs::rename(&path, &grave) {
                        Ok(()) => {
                            let _ = std::fs::remove_file(&grave);
                        }
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e),
                    }
                    // Loop: attempt the exclusive create again.
                }
                Err(e) => return Err(e),
            }
        }
        // Retry budget exhausted without acquiring or observing a live
        // holder — report the churn distinctly from Held, carrying the
        // last observation, so the caller can log and back off.
        Ok(Claim::Contended { age: last.0, holder: last.1 })
    }

    /// Refreshes the heartbeat on a lease this process holds: rewrites
    /// the body (bumping both the recorded timestamp and the file mtime).
    pub fn heartbeat(&self, lease: &Lease) -> io::Result<()> {
        let mut file = std::fs::File::create(&lease.path)?;
        use std::io::Write;
        file.write_all(self.body(lease.fingerprint).as_bytes())?;
        file.sync_data()
    }

    /// Fingerprints of all leases currently held by `pid` (used by the
    /// supervisor to attribute a dead worker's in-flight runs).
    pub fn held_by(&self, pid: u32) -> Vec<u64> {
        let mut held = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return held;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name.strip_suffix(LEASE_SUFFIX) else {
                continue;
            };
            let Ok(fp) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            if let Some((age, Some(holder))) = probe(&entry.path()) {
                if age.is_none() {
                    self.note_skew();
                }
                if holder == pid {
                    held.push(fp);
                }
            }
        }
        held.sort_unstable();
        held
    }

    /// Removes the lease file for `fingerprint` regardless of holder
    /// (supervisor-side cleanup after a worker death).
    pub fn force_release(&self, fingerprint: u64) {
        let _ = std::fs::remove_file(self.lease_path(fingerprint));
    }

    /// Removes every lease and reclaim-graveyard file, returning how many
    /// lease files were swept (campaign setup + teardown; also counts
    /// leaked leases at exit, which must be zero in a clean drain).
    pub fn sweep(&self) -> usize {
        let mut swept = 0;
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let is_lease = name.ends_with(LEASE_SUFFIX);
            let is_grave = name.contains(".reclaim.");
            if is_lease || is_grave {
                let removed = std::fs::remove_file(entry.path()).is_ok();
                if removed && is_lease {
                    swept += 1;
                }
            }
        }
        swept
    }

    /// Number of lease files currently present.
    pub fn count(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(LEASE_SUFFIX)))
            .count()
    }
}

/// Probes a lease file: heartbeat age (from mtime) plus the holder pid if
/// the body parses. `None` when the file no longer exists. A torn or
/// unparseable body still yields the mtime-based age — liveness never
/// depends on content. The age itself is `None` when it is unobtainable
/// (mtime unreadable, or in the future because of clock skew): callers
/// must treat that as *unknown*, never as fresh — mapping it to zero
/// would make a stalled holder with a live-looking pid unreclaimable.
fn probe(path: &Path) -> Option<(Option<Duration>, Option<u32>)> {
    let meta = std::fs::metadata(path).ok()?;
    let age = meta.modified().ok().and_then(|m| SystemTime::now().duration_since(m).ok());
    let holder = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|json| json.get("pid").and_then(Json::as_u64))
        .map(|pid| pid as u32);
    Some((age, holder))
}

/// Sentinel heartbeat timestamp recorded when the wall clock reads
/// pre-epoch. `u64::MAX` sorts *after* every real millisecond stamp, so
/// anything ordering lease bodies by timestamp groups the broken-clock
/// records together at the end instead of silently interleaving them as
/// epoch-zero records at the front.
pub const UNIX_MS_UNKNOWN: u64 = u64::MAX;

pub(crate) fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(UNIX_MS_UNKNOWN)
}

/// Sweeps orphaned durable-write temp files from the lease directory's
/// parent cache (delegates to [`durable::sweep_orphan_tmps`]).
pub fn sweep_cache_tmps(cache_dir: &Path) -> usize {
    durable::sweep_orphan_tmps(cache_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lf-bench-lease-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn exclusive_claim_and_release() {
        let dir = scratch_dir("exclusive");
        let leases = LeaseDir::open(&dir, Duration::from_secs(60), 0).unwrap();
        let lease = match leases.try_claim(42).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("fresh claim must acquire, got {other:?}"),
        };
        // A second claim against a live lease is refused and names us.
        match leases.try_claim(42).unwrap() {
            Claim::Held { holder, .. } => assert_eq!(holder, Some(std::process::id())),
            other => panic!("double claim must be refused, got {other:?}"),
        }
        lease.release();
        assert!(matches!(leases.try_claim(42).unwrap(), Claim::Acquired(_)));
    }

    #[test]
    fn racing_claimants_elect_exactly_one_winner() {
        let dir = scratch_dir("race");
        let wins = AtomicUsize::new(0);
        let held = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..8u64 {
                let dir = dir.clone();
                let wins = &wins;
                let held = &held;
                scope.spawn(move || {
                    let leases = LeaseDir::open(&dir, Duration::from_secs(60), w).unwrap();
                    match leases.try_claim(7).unwrap() {
                        Claim::Acquired(lease) => {
                            wins.fetch_add(1, Ordering::SeqCst);
                            // Hold the lease for the duration of the race.
                            std::thread::sleep(Duration::from_millis(50));
                            lease.release();
                        }
                        Claim::Held { .. } => {
                            held.fetch_add(1, Ordering::SeqCst);
                        }
                        Claim::Contended { .. } => {}
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 1, "exactly one racer acquires");
        assert_eq!(held.load(Ordering::SeqCst), 7, "the rest observe Held");
    }

    #[test]
    fn dead_holder_is_reclaimed_without_waiting_for_expiry() {
        let dir = scratch_dir("dead-holder");
        let leases = LeaseDir::open(&dir, Duration::from_secs(3600), 0).unwrap();
        // Forge a lease held by a pid that cannot exist (pid_max on Linux
        // defaults to < 4 million; u32::MAX - 7 is safely beyond it).
        std::fs::create_dir_all(&dir).unwrap();
        let mut body = Json::obj();
        body.set("fingerprint", Json::Str(format!("{:016x}", 9u64)));
        body.set("pid", Json::from(u64::from(u32::MAX - 7)));
        std::fs::write(dir.join(format!("{:016x}.lease", 9u64)), body.to_string_pretty()).unwrap();

        // Expiry is an hour away, but the dead holder lets us reclaim now.
        match leases.try_claim(9).unwrap() {
            Claim::Acquired(lease) => lease.release(),
            other => panic!("dead-holder lease must be reclaimed immediately, got {other:?}"),
        }
    }

    #[test]
    fn stalled_heartbeat_is_reclaimed_after_expiry_even_if_holder_lives() {
        let dir = scratch_dir("stall");
        // Our own (very alive) pid holds the lease, but the heartbeat
        // stops: after the expiry window the claim is forfeit anyway.
        let holder = LeaseDir::open(&dir, Duration::from_millis(80), 0).unwrap();
        let lease = match holder.try_claim(11).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("fresh claim must acquire, got {other:?}"),
        };

        let rival = LeaseDir::open(&dir, Duration::from_millis(80), 1).unwrap();
        match rival.try_claim(11).unwrap() {
            Claim::Held { holder, .. } => assert_eq!(holder, Some(std::process::id())),
            other => panic!("live heartbeat must hold off the rival, got {other:?}"),
        }

        std::thread::sleep(Duration::from_millis(160));
        match rival.try_claim(11).unwrap() {
            Claim::Acquired(stolen) => stolen.release(),
            other => panic!("stalled lease must be reclaimed after expiry, got {other:?}"),
        }
        // The original holder's handle now points at a gone file; dropping
        // it must not disturb anything.
        drop(lease);
    }

    #[test]
    fn heartbeat_keeps_a_slow_run_alive() {
        let dir = scratch_dir("heartbeat");
        let holder = LeaseDir::open(&dir, Duration::from_millis(120), 0).unwrap();
        let lease = match holder.try_claim(13).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("fresh claim must acquire, got {other:?}"),
        };
        let rival = LeaseDir::open(&dir, Duration::from_millis(120), 1).unwrap();
        // Heartbeat through 3 expiry windows; the rival never gets in.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(60));
            holder.heartbeat(&lease).unwrap();
            assert!(
                matches!(rival.try_claim(13).unwrap(), Claim::Held { .. }),
                "heartbeats must keep the lease live past the expiry window"
            );
        }
        lease.release();
    }

    #[test]
    fn sweep_clears_leases_and_graveyards() {
        let dir = scratch_dir("sweep");
        let leases = LeaseDir::open(&dir, Duration::from_secs(60), 0).unwrap();
        let a = match leases.try_claim(1).unwrap() {
            Claim::Acquired(l) => l,
            _ => panic!(),
        };
        let b = match leases.try_claim(2).unwrap() {
            Claim::Acquired(l) => l,
            _ => panic!(),
        };
        std::fs::write(dir.join("0000000000000003.reclaim.1.0"), b"x").unwrap();
        assert_eq!(leases.count(), 2);
        assert_eq!(leases.sweep(), 2);
        assert_eq!(leases.count(), 0);
        assert!(!dir.join("0000000000000003.reclaim.1.0").exists());
        // The held handles now point at removed files; drops are no-ops.
        drop(a);
        drop(b);
    }

    #[test]
    fn future_dated_mtime_does_not_make_a_lease_immortal() {
        let dir = scratch_dir("clock-skew");
        // Forge a lease "held" by our own (very alive) pid, then push its
        // mtime an hour into the future, as a skewed NFS client or a
        // backwards clock step would. Under the old ZERO-age fallback
        // this lease looked freshly heartbeated forever.
        std::fs::create_dir_all(&dir).unwrap();
        let mut body = Json::obj();
        body.set("fingerprint", Json::Str(format!("{:016x}", 17u64)));
        body.set("pid", Json::from(u64::from(std::process::id())));
        let path = dir.join(format!("{:016x}.lease", 17u64));
        std::fs::write(&path, body.to_string_pretty()).unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(SystemTime::now() + Duration::from_secs(3600)).unwrap();
        drop(file);

        let rival = LeaseDir::open(&dir, Duration::from_millis(50), 1).unwrap();
        match rival.try_claim(17).unwrap() {
            Claim::Acquired(stolen) => stolen.release(),
            other => panic!("unknown-age lease must be reclaimable, got {other:?}"),
        }
        assert!(
            rival.clock_skew_events() > 0,
            "the unobtainable age must be counted as a skew event"
        );
    }

    #[test]
    fn exhausted_claim_reports_contended_with_last_observation() {
        let dir = scratch_dir("contended");
        let leases = LeaseDir::open(&dir, Duration::from_secs(3600), 0).unwrap();
        // Forge a dead-holder lease. With a budget of one round the
        // claimant steals it and runs out of budget before re-creating —
        // the old fallback reported this as Held { age: ZERO }, i.e. a
        // freshly heartbeated lease.
        std::fs::create_dir_all(&dir).unwrap();
        let dead = u32::MAX - 7;
        let mut body = Json::obj();
        body.set("fingerprint", Json::Str(format!("{:016x}", 23u64)));
        body.set("pid", Json::from(u64::from(dead)));
        std::fs::write(dir.join(format!("{:016x}.lease", 23u64)), body.to_string_pretty())
            .unwrap();

        match leases.try_claim_rounds(23, 1).unwrap() {
            Claim::Contended { age, holder } => {
                assert_eq!(holder, Some(dead), "carries the last observed holder");
                assert!(age.is_some(), "carries the last observed age");
            }
            other => panic!("exhausted budget must report Contended, got {other:?}"),
        }
        // A zero-round budget never probes: the observation is blank.
        match leases.try_claim_rounds(23, 0).unwrap() {
            Claim::Contended { age: None, holder: None } => {}
            other => panic!("zero rounds must report a blank Contended, got {other:?}"),
        }
    }

    #[test]
    fn unix_ms_sentinel_sorts_after_real_timestamps() {
        // A pre-epoch clock records UNIX_MS_UNKNOWN, which must sort
        // after every real stamp so broken-clock records group last.
        let now = unix_ms();
        assert!(now > 0, "test host clock is sane");
        let mut stamps = vec![UNIX_MS_UNKNOWN, now, 0, now + 1];
        stamps.sort_unstable();
        assert_eq!(stamps, vec![0, now, now + 1, UNIX_MS_UNKNOWN]);
    }

    #[test]
    fn held_by_attributes_leases_to_their_holder() {
        let dir = scratch_dir("held-by");
        let leases = LeaseDir::open(&dir, Duration::from_secs(60), 0).unwrap();
        let a = match leases.try_claim(21).unwrap() {
            Claim::Acquired(l) => l,
            _ => panic!(),
        };
        let b = match leases.try_claim(22).unwrap() {
            Claim::Acquired(l) => l,
            _ => panic!(),
        };
        assert_eq!(leases.held_by(std::process::id()), vec![21, 22]);
        assert!(leases.held_by(1).is_empty());
        drop(a);
        drop(b);
    }
}

//! Minimal signal plumbing for the multi-process supervisor.
//!
//! The hermetic build has no `libc`/`signal-hook` crates, so the two
//! primitives needed are declared directly against the C runtime (which
//! every Unix Rust binary already links):
//!
//! - a *drain* flag: SIGTERM/SIGINT set an atomic instead of killing the
//!   process, so the supervisor can stop handing out work and exit with
//!   zero leaked children;
//! - process-group SIGKILL (`killpg`) — each worker is spawned as its own
//!   group leader, so killing a worker that outlived its drain grace also
//!   kills anything it spawned.
//!
//! Handlers only store into an atomic (async-signal-safe); all policy
//! runs in the normal control flow that polls [`drain_signal`].

#[cfg(unix)]
mod imp {
    use std::sync::atomic::{AtomicI32, Ordering};

    /// 0 = no drain requested; otherwise the signal number received.
    static DRAIN: AtomicI32 = AtomicI32::new(0);

    const SIGINT: i32 = 2;
    const SIGKILL: i32 = 9;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn killpg(pgrp: i32, sig: i32) -> i32;
    }

    extern "C" fn on_drain(sig: i32) {
        DRAIN.store(sig, Ordering::SeqCst);
    }

    /// Routes SIGTERM and SIGINT into the drain flag instead of the
    /// default terminate action. Installed by the supervisor at startup.
    pub fn install_drain_handlers() {
        unsafe {
            signal(SIGTERM, on_drain as *const () as usize);
            signal(SIGINT, on_drain as *const () as usize);
        }
    }

    /// The pending drain signal (2 = SIGINT, 15 = SIGTERM), if one was
    /// received since [`install_drain_handlers`].
    pub fn drain_signal() -> Option<i32> {
        match DRAIN.load(Ordering::SeqCst) {
            0 => None,
            sig => Some(sig),
        }
    }

    /// Sends SIGKILL to the process group led by `pid` (workers are
    /// spawned with `process_group(0)`, so their pid is their pgid) — the
    /// escalation for a worker that outlived its drain grace period.
    pub fn kill_group(pid: u32) {
        unsafe {
            killpg(pid as i32, SIGKILL);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No-op off Unix: drains are never requested.
    pub fn install_drain_handlers() {}

    /// Always `None` off Unix.
    pub fn drain_signal() -> Option<i32> {
        None
    }

    /// No-op off Unix.
    pub fn kill_group(_pid: u32) {}
}

pub use imp::{drain_signal, install_drain_handlers, kill_group};

//! A minimal scoped worker pool for executing unique runs in parallel.
//!
//! The hermetic build has no `rayon`; this is the few dozen lines of it we
//! need. Workers are scoped threads pulling item indices from a shared
//! atomic counter (work stealing by index), results flow back over a
//! channel and are reassembled in input order, so callers observe a
//! deterministic result vector regardless of worker count or scheduling.
//!
//! Panics are isolated per *item*, not per worker: [`try_parallel_map`]
//! catches each closure's unwind and delivers it as a [`WorkerPanic`] in
//! that item's slot, so one poisoned run costs exactly one result while
//! the worker thread moves on to the next index.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A caught panic from one item's closure invocation.
#[derive(Debug, Clone)]
pub struct WorkerPanic {
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim).
    pub payload: String,
}

impl WorkerPanic {
    /// Stringifies a caught unwind payload.
    pub fn from_payload(payload: Box<dyn std::any::Any + Send>) -> WorkerPanic {
        let payload = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        WorkerPanic { payload }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.payload)
    }
}

/// Maps `f` over `items` using up to `jobs` worker threads, preserving
/// input order in the results. `jobs <= 1` runs inline on the caller's
/// thread. A panic while processing one item yields `Err(WorkerPanic)` in
/// that item's slot; every other item is still processed and delivered.
pub fn try_parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run_one =
        |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(WorkerPanic::from_payload);

    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, WorkerPanic>)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let run_one = &run_one;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                if tx.send((i, run_one(&items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<Result<R, WorkerPanic>>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        // Every index was claimed by some worker, and a caught unwind is
        // the only abnormal path, so every slot is filled.
        out.into_iter().map(|r| r.expect("every claimed index delivers a result")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The results of a map no item of which panicked.
    fn values<R>(out: Vec<Result<R, WorkerPanic>>) -> Vec<R> {
        out.into_iter().map(|r| r.expect("no item panics")).collect()
    }

    #[test]
    fn preserves_order_and_covers_every_item() {
        let items: Vec<u64> = (0..100).collect();
        let serial = values(try_parallel_map(1, &items, |&x| x * x));
        let parallel = values(try_parallel_map(4, &items, |&x| x * x));
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 49);
        assert_eq!(parallel.len(), 100);
    }

    #[test]
    fn empty_input_is_fine() {
        let out = try_parallel_map(4, &Vec::<u64>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_items() {
        let out = values(try_parallel_map(16, &[1u64, 2], |&x| x + 1));
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn panicking_item_still_delivers_all_others() {
        let items: Vec<u64> = (0..50).collect();
        for jobs in [1, 4] {
            let out = try_parallel_map(jobs, &items, |&x| {
                if x == 13 {
                    panic!("injected fault: unlucky item {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 50);
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    let p = r.as_ref().unwrap_err();
                    assert!(p.payload.contains("unlucky item 13"), "payload: {}", p.payload);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 2);
                }
            }
        }
    }

    #[test]
    fn non_string_payloads_are_tagged() {
        let out = try_parallel_map(1, &[0u64], |_| -> u64 {
            std::panic::panic_any(42i32);
        });
        assert_eq!(out[0].as_ref().unwrap_err().payload, "non-string panic payload");
    }
}

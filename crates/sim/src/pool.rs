//! Persistent worker pool for intra-run parallelism.
//!
//! One simulation run owns at most one [`WorkerPool`]; the engine and the
//! rate solver dispatch short data-parallel phases (bottleneck scans, rate
//! subtraction shards, route-construction batches) onto it. The pool is
//! deliberately minimal — the same vendored-deps-only approach as the
//! suite-level `scoped_map` pool, with two differences demanded by the hot
//! path: the threads persist across phases (a solver pass runs thousands
//! of phases; spawning per phase would dwarf the work), and the caller
//! participates as worker 0 (so `threads = 1` degenerates to a plain
//! function call with no synchronisation at all).
//!
//! Determinism contract: the pool only *schedules* work; every phase the
//! engine dispatches partitions its indices statically by worker id, so
//! the set of writes each worker performs — and therefore the result — is
//! independent of execution timing. See `maxmin::waterfill_rounds` for the
//! bit-identity argument.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased borrow of the phase closure. The coordinator keeps the
/// closure alive on its stack until every worker has finished the phase
/// (it blocks on `done_cv`), so the raw pointer never dangles.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is a `Fn(usize) + Sync` closure owned by the
// coordinator's stack frame, which outlives the phase (see `run`).
unsafe impl Send for Job {}

struct State {
    /// Bumped once per phase; workers run each epoch's job exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current phase.
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for the next phase (or shutdown).
    work_cv: Condvar,
    /// The coordinator waits here for phase completion.
    done_cv: Condvar,
}

/// A fixed-size pool of `threads - 1` persistent workers plus the calling
/// thread. `threads <= 1` spawns nothing and runs phases inline.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Create a pool that executes phases on `threads` threads total
    /// (including the caller). Clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("exaflow-solver-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("spawn solver worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// Total threads participating in each phase (callers partition work
    /// by `0..threads()`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run one phase: `f(worker)` is invoked exactly once for every worker
    /// id in `0..threads()`, concurrently; the call returns only after all
    /// invocations finish. The caller runs worker 0. A panic in any
    /// invocation propagates to the caller (after the phase drains, so no
    /// worker is left holding a dangling job).
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.threads <= 1 {
            f(0);
            return;
        }
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), worker: usize) {
            let f = unsafe { &*(data as *const F) };
            f(worker);
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(st.remaining == 0 && st.job.is_none());
            st.job = Some(Job {
                data: &f as *const F as *const (),
                call: trampoline::<F>,
            });
            st.remaining = self.threads - 1;
            st.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        let own = catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panicked = {
            let mut st = self.shared.state.lock().unwrap();
            while st.remaining > 0 {
                st = self.shared.done_cv.wait(st).unwrap();
            }
            st.job = None;
            std::mem::take(&mut st.panicked)
        };
        match own {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) if worker_panicked => panic!("worker thread panicked during a pool phase"),
            Ok(()) => {}
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("a new epoch always carries a job");
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, index) })).is_ok();
        let mut st = shared.state.lock().unwrap();
        if !ok {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

/// Shared mutable slice for pool phases whose writes are disjoint by
/// construction: each index is touched by exactly one worker during a
/// phase (per-worker slots, or resources partitioned by owner).
pub(crate) struct SharedSlice<T> {
    ptr: *mut T,
    #[cfg(debug_assertions)]
    len: usize,
}

// SAFETY: access discipline is delegated to the (unsafe) accessors; the
// wrapper itself only ships the pointer across worker threads.
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    pub(crate) fn new(slice: &mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            #[cfg(debug_assertions)]
            len: slice.len(),
        }
    }

    /// # Safety
    /// `i` must be in bounds and no other worker may access index `i`
    /// during the current phase.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut(&self, i: usize) -> &mut T {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.len);
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// The thread-count rule, free of process state: `requested` when
/// positive, else `env` (the value of `EXAFLOW_THREADS`, if set) when it
/// parses to a positive integer, else `fallback`.
pub(crate) fn pick_threads(requested: usize, env: Option<&str>, fallback: usize) -> usize {
    if requested >= 1 {
        return requested;
    }
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(fallback)
}

pub(crate) fn env_threads() -> Option<String> {
    std::env::var("EXAFLOW_THREADS").ok()
}

/// Resolve a configured thread count for work that scales with cores (the
/// distance sweep, `exaflow analyze`): `0` means "auto" — the
/// `EXAFLOW_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`]. Always at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    pick_threads(requested, env_threads().as_deref(), cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_each_phase_exactly_once() {
        let pool = WorkerPool::new(4);
        for _ in 0..100 {
            let mut slots = vec![0u32; 4];
            let shared = SharedSlice::new(&mut slots);
            pool.run(|w| unsafe { *shared.get_mut(w) += 1 });
            assert_eq!(slots, vec![1; 4]);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn borrowed_state_survives_phases() {
        let pool = WorkerPool::new(3);
        let mut totals = vec![0u64; 3];
        let data: Vec<u64> = (0..999).collect();
        {
            let shared = SharedSlice::new(&mut totals);
            let data = &data;
            pool.run(|w| {
                let sum: u64 = data.iter().skip(w).step_by(3).sum();
                unsafe { *shared.get_mut(w) = sum };
            });
        }
        assert_eq!(totals.iter().sum::<u64>(), 999 * 998 / 2);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool must survive a panicked phase and stay usable.
        let hits = AtomicUsize::new(0);
        pool.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn pick_threads_orders_request_then_env_then_fallback() {
        // An explicit request wins over everything.
        assert_eq!(pick_threads(3, Some("8"), 16), 3);
        // Auto: a usable EXAFLOW_THREADS value, surrounding blanks allowed.
        assert_eq!(pick_threads(0, Some("8"), 16), 8);
        assert_eq!(pick_threads(0, Some(" 2\n"), 1), 2);
        // Auto with the variable unset, empty, zero or garbage: the fallback
        // — the core count for sweeps, 1 for the engine's own pool.
        for env in [None, Some(""), Some("0"), Some("-1"), Some("many")] {
            assert_eq!(pick_threads(0, env, 16), 16, "{env:?}");
            assert_eq!(pick_threads(0, env, 1), 1, "{env:?}");
        }
    }
}

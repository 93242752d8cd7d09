//! The workspace's one worker pool.
//!
//! [`scoped_map`] applies a function to every item of a slice on scoped
//! threads ([`std::thread::scope`], no external executor) and returns the
//! outcomes in input order. Workers claim items from a shared atomic
//! counter, so a worker stuck on a slow item never blocks the others, and
//! each item runs under [`std::panic::catch_unwind`]: a panicking item
//! becomes an `Err` holding the bare panic message, and every other item
//! still runs. Experiment suites, Table 2's grid points and the distance
//! sweeps all fan out through it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One entry out of [`scoped_map`]: `Ok(f(item))`, or `Err(message)` with
/// the panic message when `f` panicked.
pub type MapOutcome<U> = Result<U, String>;

/// The worker count when none is given: one per available core, and at
/// least one. Every command and library entry point that fans out defaults
/// to it; `--threads` (or an explicit count) is the only way to choose
/// another.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `f(index, item)` to every item on `threads` workers, catching
/// panics, and return the outcomes in input order. With `threads <= 1`
/// everything runs on the calling thread — no spawn at all.
pub fn scoped_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<MapOutcome<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    scoped_map_observed(items, threads, &f, |_, _| {})
}

/// [`scoped_map`] with a hook: `observe(i, &outcome)` runs on the
/// **calling** thread the moment item `i`'s outcome arrives, so callers
/// can act on completions (journaling) before the batch ends.
pub fn scoped_map_observed<T, U, F>(
    items: &[T],
    threads: usize,
    f: &F,
    mut observe: impl FnMut(usize, &MapOutcome<U>),
) -> Vec<MapOutcome<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let run_one = |index: usize, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(index, item)))
            .map_err(|payload| panic_message(payload.as_ref()).to_owned())
    };

    if threads <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let outcome = run_one(i, item);
                observe(i, &outcome);
                outcome
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<MapOutcome<U>>> = (0..items.len()).map(|_| None).collect();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, MapOutcome<U>)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            let (tx, next, run_one) = (tx.clone(), &next, &run_one);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, run_one(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // The channel closes once every worker has drained the counter.
        for (i, outcome) in rx {
            observe(i, &outcome);
            slots[i] = Some(outcome);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every claimed item reports exactly once"))
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_map_catches_panics() {
        let items = vec![1u32, 2, 3, 4];
        let values = scoped_map(&items, 2, |_, &x| {
            if x == 3 {
                panic!("boom on {x}");
            }
            x * 10
        });
        assert_eq!(values[0], Ok(10));
        assert_eq!(values[1], Ok(20));
        assert_eq!(values[3], Ok(40));
        assert_eq!(values[2], Err("boom on 3".to_owned()));
    }

    #[test]
    fn observe_sees_every_outcome_exactly_once() {
        let items: Vec<u32> = (0..16).collect();
        let mut seen = vec![0u32; items.len()];
        scoped_map_observed(&items, 4, &|_, &x: &u32| x, |i, outcome| {
            seen[i] += 1;
            assert_eq!(*outcome, Ok(i as u32));
        });
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }
}

//! The data-parallel half of the runtime: one scoped, order-preserving
//! [`map`] for the workspace's fan-out loops (trees, folds, runs,
//! experiment jobs, grid lanes).
//!
//! Items are split into static contiguous chunks, one per scoped thread,
//! with at most `min(available_parallelism, items)` threads; the caller
//! only waits. (Running a chunk on the caller would save one spawn per
//! call, but its allocations then land in the main malloc arena; that
//! raised the `volta_tsfresh_serve` benchmark's peak RSS by ~8% on a
//! 2-core host.) Results come back in input order, and a panicking item
//! re-raises its payload on the caller.
//!
//! **No nesting.** A call made on a thread that is already running
//! alba-par work — a [`Pool`](crate::Pool) worker, or a chunk of another
//! `map` — runs inline on that thread. A forest predict inside a serve
//! shard job, or a forest fit inside a grid lane, therefore never spawns
//! threads of its own. The caller of a `map` is never marked, so when a
//! `map` degenerates to one thread (one item, or a one-core host) a call
//! nested in it may still fan out; either way only one level of threads
//! exists.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread, for its whole life, as running alba-par
/// work: a pool worker or a `map` chunk thread.
pub(crate) fn mark_worker() {
    ON_WORKER.with(|m| m.set(true));
}

/// Threads a top-level [`map`] may use: the host's available
/// parallelism, read once per process.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Applies `f` to every item and returns the results in input order,
/// in parallel unless the calling thread already runs alba-par work
/// (see the module docs). A panic in `f` is re-raised on the caller
/// with its original payload.
pub fn map<I, T, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = if ON_WORKER.with(Cell::get) { 1 } else { host_threads() };
    map_on(threads, items.into_iter().collect(), &f)
}

/// [`map`] over at most `threads` threads.
fn map_on<T, R, F>(threads: usize, items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let chunk = n.div_ceil(threads);
    let mut rest = items.into_iter();
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    loop {
        let c: Vec<T> = rest.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    mark_worker();
                    c.into_iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out: Vec<R> = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;
    use alba_obs::Obs;
    use std::panic::{catch_unwind, panic_any};
    use std::thread::{self, ThreadId};

    /// Chunk counts that do not divide the item count still merge in
    /// input order, whatever the thread count.
    #[test]
    fn order_is_kept_when_chunks_do_not_divide_evenly() {
        let expect: Vec<u64> = (0..23u64).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 4, 5, 7, 22, 23, 64] {
            let got = map_on(threads, (0..23u64).collect(), &|i| i * i + 1);
            assert_eq!(got, expect, "order broke at {threads} threads");
        }
        assert_eq!(map(0..23u64, |i| i * i + 1), expect);
    }

    /// A `map` inside a pool job runs on the job's own thread.
    #[test]
    fn map_inside_a_pool_job_runs_on_the_worker_thread() {
        let mut pool: Pool<usize, (ThreadId, Vec<ThreadId>)> =
            Pool::new(2, Obs::disabled(), |_w, n| {
                (thread::current().id(), map(0..n, |_| thread::current().id()))
            });
        for r in pool.run_epoch(vec![16, 9, 1]) {
            let (worker, inner) = r.expect("job ran");
            assert!(inner.iter().all(|&id| id == worker), "pool job fanned out");
        }
    }

    /// A `map` inside a chunk of another `map` runs on that chunk's
    /// thread; the outer caller is never marked.
    #[test]
    fn map_inside_map_runs_on_the_calling_thread() {
        let outer = map_on(3, (0..6).collect(), &|_| {
            (thread::current().id(), map(0..16, |_| thread::current().id()))
        });
        let distinct: std::collections::HashSet<ThreadId> =
            outer.iter().map(|&(id, _)| id).collect();
        assert_eq!(distinct.len(), 3, "outer map must really use 3 threads");
        for (caller, inner) in &outer {
            assert!(inner.iter().all(|id| id == caller), "nested map fanned out");
        }
        assert!(!ON_WORKER.with(Cell::get), "the caller must stay unmarked");
    }

    #[derive(Debug, PartialEq)]
    struct Boom(u32);

    /// A panicking item re-raises its own payload on the caller, from
    /// the first chunk and the last alike.
    #[test]
    fn a_panicking_item_reraises_its_payload_on_the_caller() {
        for bad in [0u32, 8] {
            let err = catch_unwind(|| {
                map_on(3, (0..9u32).collect(), &|i| {
                    if i == bad {
                        panic_any(Boom(i));
                    }
                    i
                })
            })
            .expect_err("the panic must reach the caller");
            assert_eq!(err.downcast_ref::<Boom>(), Some(&Boom(bad)));
            assert!(!ON_WORKER.with(Cell::get), "the caller must stay unmarked");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(map(Vec::<u8>::new(), |x| x).is_empty());
        assert!(map_on(4, Vec::<u8>::new(), &|x| x).is_empty());
    }
}

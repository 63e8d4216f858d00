//! Offline shim for the subset of the `rayon` API used by this
//! workspace: `slice.par_iter().map(f).collect::<Vec<_>>()`,
//! `collection.into_par_iter().map(f).collect::<Vec<_>>()`, and
//! `slice.par_iter_mut().for_each(f)`.
//!
//! The build container has no registry access, so this crate provides
//! a genuinely parallel implementation on one persistent worker pool:
//!
//! - The pool starts lazily on first use with
//!   `available_parallelism() − 1` long-lived workers. The process
//!   reads `available_parallelism()` once, at that moment.
//! - The calling thread takes part in its own call, so a call uses
//!   every CPU the process may run on.
//! - Participants claim items one index at a time from a shared atomic
//!   counter, so a few slow items do not hold up a statically assigned
//!   chunk. Results land in input-order slots (the same ordering
//!   guarantee rayon's indexed collect gives).
//! - A call made from inside a pool task (on a worker, or on a caller
//!   while it works its share) runs inline and serially. An ensemble of
//!   runs is therefore parallel over runs, and each run's per-tick calls
//!   cost no thread hand-off; a lone top-level run still spreads its
//!   per-tick work over the pool.
//! - A panic in an item is caught where it happens and re-raised on the
//!   caller with its original payload, like rayon; the pool stays
//!   usable afterwards.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    /// Set on pool workers for their whole life, and on a caller while
    /// it runs its own share of a call.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Lock ignoring poison. No user code runs while any lock in this
/// crate is held, and every critical section leaves its data valid at
/// every step, so a poisoned guard is still consistent. The call latch
/// in particular must never fail to lock: the soundness of
/// [`Pool::broadcast`] rests on the caller waiting on it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parallel call, as seen by the helpers it asked for.
struct Call {
    state: Mutex<CallState>,
    /// Signalled when the last running helper finishes.
    idle: Condvar,
}

struct CallState {
    /// The caller's participant loop, `Some` while the caller still
    /// accepts helpers. The caller resets it to `None` before it waits,
    /// so a helper that arrives late never sees the erased reference.
    body: Option<&'static (dyn Fn() + Sync)>,
    /// Helpers inside `body` right now.
    running: usize,
    /// First panic payload a helper caught.
    panic: Option<Box<dyn Any + Send>>,
}

impl Call {
    /// Run on a pool worker: join the call if it is still open.
    fn help(&self) {
        let body = {
            let mut st = lock(&self.state);
            let Some(body) = st.body else { return };
            st.running += 1;
            body
        };
        let result = panic::catch_unwind(AssertUnwindSafe(body));
        let mut st = lock(&self.state);
        st.running -= 1;
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        if st.running == 0 {
            self.idle.notify_all();
        }
    }
}

struct Queue {
    calls: Mutex<VecDeque<Arc<Call>>>,
    ready: Condvar,
}

impl Queue {
    fn work(&self) -> ! {
        IN_POOL.with(|flag| flag.set(true));
        loop {
            let call = {
                let mut calls = lock(&self.calls);
                loop {
                    if let Some(call) = calls.pop_front() {
                        break call;
                    }
                    calls = self.ready.wait(calls).unwrap_or_else(PoisonError::into_inner);
                }
            };
            call.help();
        }
    }
}

struct Pool {
    queue: Arc<Queue>,
    /// Long-lived worker threads; the caller makes one more participant.
    workers: usize,
}

/// The process-wide pool, started on first use.
///
/// Its workers are never joined: they park on the queue's condition
/// variable between calls and end with the process. Every item runs
/// under `catch_unwind`, so no panic is lost with them.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let queue = Arc::new(Queue { calls: Mutex::new(VecDeque::new()), ready: Condvar::new() });
        // A worker that fails to start only shrinks the pool: callers
        // never wait for a helper that has not joined.
        let workers = (1..threads)
            .filter(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || queue.work())
                    .is_ok()
            })
            .count();
        Pool { queue, workers }
    })
}

impl Pool {
    /// Run `body` on the calling thread and on up to `helpers` pool
    /// workers at once; return when every participant has left it.
    /// Re-raises the caller's own panic, else the first helper's.
    fn broadcast(&self, helpers: usize, body: &(dyn Fn() + Sync)) {
        // SAFETY: only the lifetime is erased. The erased reference is
        // stored in `call.state.body` and nowhere else; a helper copies
        // it out and counts itself in `running` under the same lock, and
        // stops using it before it counts itself out. Below, the caller
        // first runs its share under `catch_unwind` (so it cannot unwind
        // past this frame early), then, under that lock, resets `body`
        // to `None` and waits on the latch until `running` is 0, and the
        // lock helper never panics. So no helper can reach `body` after
        // this function returns or unwinds, and the borrow outlives
        // every use. Queued `Call`s left behind see `None` and return.
        let erased: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
        let call = Arc::new(Call {
            state: Mutex::new(CallState { body: Some(erased), running: 0, panic: None }),
            idle: Condvar::new(),
        });
        lock(&self.queue.calls).extend(std::iter::repeat_n(&call, helpers).cloned());
        for _ in 0..helpers {
            self.queue.ready.notify_one();
        }

        let was_in_pool = IN_POOL.with(|flag| flag.replace(true));
        let mine = panic::catch_unwind(AssertUnwindSafe(body));
        IN_POOL.with(|flag| flag.set(was_in_pool));

        let helper_panic = {
            let mut st = lock(&call.state);
            st.body = None;
            while st.running > 0 {
                st = call.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.panic.take()
        };
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }
}

/// The one engine behind every entry point: `f(i)` for every `i < n`,
/// results in index order.
fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    let helpers = if n <= 1 || IN_POOL.with(Cell::get) { 0 } else { pool().workers.min(n - 1) };
    if helpers == 0 {
        return (0..n).map(f).collect();
    }
    // The counter only hands out indexes: the RMW makes each claim
    // unique, and results are published through the slot mutexes and
    // the call latch, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    pool().broadcast(helpers, &|| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = f(i);
        *lock(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index is claimed and filled before the call returns")
        })
        .collect()
}

/// Borrowed parallel iterator over a slice.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

/// `par_iter().map(f)` — the only adapter the workspace uses.
pub struct ParSliceMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParSlice<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParSliceMap { slice: self.slice, f }
    }
}

impl<'a, T: Sync, F> ParSliceMap<'a, T, F> {
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let (slice, f) = (self.slice, &self.f);
        map_indexed(slice.len(), |i| f(&slice[i])).into_iter().collect()
    }
}

/// Owned parallel iterator (ranges, vectors).
pub struct ParItems<T> {
    items: Vec<T>,
}

pub struct ParItemsMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParItems<T> {
    pub fn map<R, F>(self, f: F) -> ParItemsMap<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        ParItemsMap { items: self.items, f }
    }
}

impl<T: Send, F> ParItemsMap<T, F> {
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let f = &self.f;
        let items: Vec<Mutex<Option<T>>> =
            self.items.into_iter().map(|x| Mutex::new(Some(x))).collect();
        map_indexed(items.len(), |i| {
            // Move the item out first: `f` must not run under the lock.
            let x = lock(&items[i]).take().expect("each index is claimed once");
            f(x)
        })
        .into_iter()
        .collect()
    }
}

/// Exclusive parallel iterator over a mutable slice (`par_iter_mut`).
///
/// Used by the epihiper engine to let each worker fill its own
/// partition workspace (events, Gillespie scratch) in place, so the
/// per-tick scan reuses allocations instead of collecting fresh
/// vectors.
pub struct ParSliceMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParSliceMut<'a, T> {
    /// Apply `f` to every element, in parallel, like rayon's
    /// `IndexedParallelIterator::for_each`.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        ParItems { items: self.slice.iter_mut().collect() }.map(f).collect::<Vec<()>, ()>();
    }
}

/// `.par_iter_mut()` on borrowed collections.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: 'a;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self }
    }
}

/// `.par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    type Item: 'a;
    fn par_iter(&'a self) -> ParSlice<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

/// `.into_par_iter()` on owned collections and ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParItems<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParItems<T> {
        ParItems { items: self }
    }
}

macro_rules! impl_into_par_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParItems<$t> {
                ParItems { items: self.collect() }
            }
        }
    )*};
}

impl_into_par_range!(u32, u64, usize, i32, i64);

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// Threads that can take part in one top-level call.
    fn pool_threads() -> usize {
        super::pool().workers + 1
    }

    #[test]
    fn par_iter_preserves_order() {
        let xs: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled.len(), xs.len());
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, 2 * i as u64);
        }
    }

    #[test]
    fn into_par_iter_on_range() {
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares[31], 961);
        assert_eq!(squares.len(), 1000);
    }

    #[test]
    fn par_iter_mut_touches_every_element_once() {
        let mut xs: Vec<u64> = (0..10_000).collect();
        xs.par_iter_mut().for_each(|x| *x += 1);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(*x, i as u64 + 1);
        }
        let mut empty: Vec<u64> = Vec::new();
        empty.par_iter_mut().for_each(|x| *x += 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::<u32>::new().par_iter().map(|x| *x).collect();
        assert!(none.is_empty());
        let none: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(none.is_empty());
        let one: Vec<u32> = vec![7u32].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
        let mut one = [7u32];
        one.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(one, [8]);
    }

    #[test]
    fn nested_calls_run_inline_on_the_outer_items_thread() {
        let outer: Vec<u64> = (0..64).collect();
        let inner: Vec<u64> = (0..50).collect();
        let sums: Vec<(u64, bool)> = outer
            .par_iter()
            .map(|&o| {
                let me = thread::current().id();
                let parts: Vec<(u64, ThreadId)> =
                    inner.par_iter().map(|&i| (o * i, thread::current().id())).collect();
                let sum = parts.iter().map(|&(v, _)| v).sum();
                (sum, parts.iter().all(|&(_, id)| id == me))
            })
            .collect();
        for (o, &(sum, same_thread)) in sums.iter().enumerate() {
            assert_eq!(sum, o as u64 * (0..50).sum::<u64>());
            assert!(same_thread, "inner items of outer item {o} left its thread");
        }
        // The same holds for `par_iter_mut` inside `par_iter().map`.
        let rows: Vec<Vec<u64>> = outer
            .par_iter()
            .map(|&o| {
                let me = thread::current().id();
                let mut row = vec![o; 8];
                row.par_iter_mut().for_each(|x| {
                    assert_eq!(thread::current().id(), me);
                    *x += 1;
                });
                row
            })
            .collect();
        assert!(rows.iter().enumerate().all(|(o, r)| r == &vec![o as u64 + 1; 8]));
    }

    /// An idle worker must not join a nested call either. The caller's
    /// outer item starts its inner call only after a worker has finished
    /// the other outer item, so that worker is free while the slow inner
    /// items run.
    #[test]
    fn nested_call_stays_inline_while_a_worker_is_idle() {
        if pool_threads() == 1 {
            return;
        }
        let caller = thread::current().id();
        let worker_done = AtomicBool::new(false);
        let inner: Vec<u32> = (0..2_000).collect();
        let strays: Vec<usize> = [0u32, 1]
            .par_iter()
            .map(|_| {
                if thread::current().id() != caller {
                    worker_done.store(true, Ordering::SeqCst);
                    return 0;
                }
                while !worker_done.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                let ids: Vec<ThreadId> = inner
                    .par_iter()
                    .map(|&i| {
                        std::hint::black_box((0..5_000u32).fold(i, |a, b| a.wrapping_mul(31) ^ b));
                        thread::current().id()
                    })
                    .collect();
                ids.iter().filter(|&&id| id != caller).count()
            })
            .collect();
        assert_eq!(strays, [0, 0], "inner items ran off the caller's thread");
    }

    #[test]
    fn concurrent_callers_get_their_own_ordered_results() {
        let start = Barrier::new(4);
        thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|k| {
                    let start = &start;
                    s.spawn(move || {
                        let xs: Vec<u64> = (0..5_000).collect();
                        start.wait();
                        let mut out = Vec::new();
                        for round in 0..20 {
                            let ys: Vec<u64> = xs.par_iter().map(|x| x * k + round).collect();
                            out.push(ys);
                        }
                        (k, out)
                    })
                })
                .collect();
            for h in handles {
                let (k, out) = h.join().unwrap();
                for (round, ys) in out.into_iter().enumerate() {
                    assert!(ys.iter().enumerate().all(|(i, &y)| y == i as u64 * k + round as u64));
                }
            }
        });
    }

    #[test]
    fn uneven_items_are_each_processed_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let xs: Vec<usize> = (0..n).collect();
        let out: Vec<usize> = xs
            .par_iter()
            .map(|&i| {
                // One item in 97 is three orders of magnitude costlier.
                let spins = if i % 97 == 0 { 20_000 } else { 20 };
                std::hint::black_box((0..spins).fold(i, |a, b| a.wrapping_add(b)));
                hits[i].fetch_add(1, Ordering::Relaxed);
                i
            })
            .collect();
        assert_eq!(out, xs);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>")
    }

    fn assert_pool_works(xs: &[u32]) {
        let ok: Vec<u32> = xs.par_iter().map(|x| x + 1).collect();
        assert!(ok.iter().zip(xs).all(|(o, x)| *o == x + 1));
        let mut ys = xs.to_vec();
        ys.par_iter_mut().for_each(|y| *y *= 2);
        assert!(ys.iter().zip(xs).all(|(y, x)| *y == 2 * x));
    }

    #[test]
    fn item_panic_is_re_raised_with_its_payload_and_the_pool_survives() {
        let xs: Vec<u32> = (0..1_000).collect();
        for bad in [0u32, 500, 999] {
            let err = std::panic::catch_unwind(|| {
                xs.par_iter()
                    .map(|&x| {
                        assert!(x != bad, "item {x} is bad");
                        x
                    })
                    .collect::<Vec<u32>, u32>()
            })
            .expect_err("the item's panic must reach the caller");
            assert_eq!(panic_message(&*err), format!("item {bad} is bad"));
            assert_pool_works(&xs);
        }
        let err = std::panic::catch_unwind(|| {
            let mut ys: Vec<u32> = (0..64).collect();
            ys.par_iter_mut().for_each(|y| {
                if *y == 63 {
                    std::panic::panic_any(17u8);
                }
            });
        })
        .expect_err("par_iter_mut panics propagate too");
        assert_eq!(err.downcast_ref::<u8>(), Some(&17));
        assert_pool_works(&xs);
    }

    /// The panic of an item that ran on a pool worker, not on the
    /// caller: the caller's items wait until a worker has taken one,
    /// and a worker's item always panics.
    #[test]
    fn worker_panic_is_re_raised_on_the_caller() {
        if pool_threads() == 1 {
            return;
        }
        let caller = thread::current().id();
        let worker_joined = AtomicBool::new(false);
        let xs: Vec<u32> = (0..64).collect();
        let err = std::panic::catch_unwind(|| {
            xs.par_iter()
                .map(|&x| {
                    if thread::current().id() != caller {
                        worker_joined.store(true, Ordering::SeqCst);
                        panic!("item {x} failed on a worker");
                    }
                    while !worker_joined.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    x
                })
                .collect::<Vec<u32>, u32>()
        })
        .expect_err("the worker's panic must reach the caller");
        assert!(panic_message(&*err).ends_with("failed on a worker"), "{}", panic_message(&*err));
        assert_pool_works(&xs);
    }
}

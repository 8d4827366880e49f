//! In-tree data-parallel executor behind the subset of `rayon`'s API the
//! workspace uses.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the `par_iter()` / `into_par_iter()` / `join` surface
//! itself, backed by a lazily-initialized global `std::thread` pool (no
//! dependencies). Unlike the earlier sequential stand-in, parallel
//! iterators here really fan out across cores — and they keep the
//! contract the repo's golden traces and scorecard depend on:
//!
//! * **Bitwise determinism.** `collect()` returns results in input
//!   order, produced by applying the same closure to the same
//!   `(index, item)` pairs a sequential run would — so sequential
//!   (`QES_THREADS=1`) and parallel runs are bit-for-bit identical.
//! * **Pool sizing.** `QES_THREADS`, else `RAYON_NUM_THREADS`, else
//!   [`std::thread::available_parallelism`]; the calling thread is one
//!   of the lanes, so `QES_THREADS=1` never spawns a thread.
//! * **Panic propagation.** A panicking closure re-raises on the caller
//!   (after the batch drains) instead of poisoning or deadlocking the
//!   pool.
//!
//! The adapter surface is the subset the workspace uses — `map`,
//! `enumerate`, `for_each`, `collect` — as static-dispatch combinators
//! over an eagerly materialized item vector (every in-tree parallel
//! source is a `Vec`, slice, array or range, so indexed materialization
//! is free). Swapping the workspace dependency back to the real `rayon`
//! still compiles unchanged.
//!
//! See `pool.rs` for the execution design (chunking, load balancing,
//! deadlock freedom) and DESIGN.md §"Parallel execution and
//! determinism" for the repo-level contract.

mod pool;

pub use pool::{current_num_threads, join, with_threads};

/// A parallel iterator over an eagerly materialized sequence: the base
/// items plus a composed per-`(index, item)` transform, executed by
/// the pool's batch runner when a consumer (`collect`, `for_each`) runs.
pub struct ParIter<T, F> {
    items: Vec<T>,
    f: F,
}

/// Identity transform used by the entry points; a plain `fn` pointer so
/// `IntoParallelIterator::Iter` stays nameable.
fn identity<T>(_: usize, x: T) -> T {
    x
}

impl<T> ParIter<T, fn(usize, T) -> T> {
    fn from_items(items: Vec<T>) -> Self {
        ParIter {
            items,
            f: identity::<T>,
        }
    }
}

impl<T, O, F> ParIter<T, F>
where
    F: Fn(usize, T) -> O,
{
    /// Mirror of `ParallelIterator::map`.
    pub fn map<U, G>(self, g: G) -> ParIter<T, impl Fn(usize, T) -> U>
    where
        G: Fn(O) -> U + Sync + Send,
    {
        let f = self.f;
        ParIter {
            items: self.items,
            f: move |i, x| g(f(i, x)),
        }
    }

    /// Mirror of `IndexedParallelIterator::enumerate`. Indices are the
    /// positions in the original input, independent of how chunks are
    /// scheduled.
    pub fn enumerate(self) -> ParIter<T, impl Fn(usize, T) -> (usize, O)> {
        let f = self.f;
        ParIter {
            items: self.items,
            f: move |i, x| (i, f(i, x)),
        }
    }

    /// Mirror of `ParallelIterator::for_each` (side effects only).
    pub fn for_each<G>(self, g: G)
    where
        T: Send,
        O: Send,
        F: Sync + Send,
        G: Fn(O) + Sync + Send,
    {
        let f = self.f;
        pool::run_batch(self.items, move |i, x| g(f(i, x)));
    }

    /// Execute the chain on the pool and collect **in input order** —
    /// bit-for-bit what the sequential chain would produce.
    pub fn collect<C>(self) -> C
    where
        T: Send,
        O: Send,
        F: Sync + Send,
        C: FromIterator<O>,
    {
        pool::run_batch(self.items, self.f).into_iter().collect()
    }

    /// Number of items the chain will process.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there is nothing to process.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Mirror of `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    type Iter = ParIter<I::Item, fn(usize, I::Item) -> I::Item>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter::from_items(self.into_iter().collect())
    }
}

/// Mirror of `rayon::iter::IntoParallelRefIterator`: `c.par_iter()` is
/// `(&c).into_par_iter()`.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Iter;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoIterator,
    <&'a C as IntoIterator>::Item: Send,
{
    type Item = <&'a C as IntoIterator>::Item;
    type Iter = ParIter<Self::Item, fn(usize, Self::Item) -> Self::Item>;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_iter().into_par_iter()
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

pub mod iter {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    /// Exercise the real pool even on single-core hosts: the executor's
    /// correctness must not depend on how many lanes the hardware grants.
    fn with_pool<R>(f: impl FnOnce() -> R) -> R {
        with_threads(4, f)
    }

    #[test]
    fn slice_par_iter_maps_and_collects() {
        let v = vec![1, 2, 3];
        let out: Vec<i32> = with_pool(|| v.par_iter().map(|&x| x * 2).collect());
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn vec_and_range_into_par_iter() {
        let out: Vec<usize> = with_pool(|| (0..4usize).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(out, vec![1, 2, 3, 4]);
        let v: Vec<String> = with_pool(|| {
            vec!["a", "b"]
                .into_par_iter()
                .enumerate()
                .map(|(i, s)| format!("{i}{s}"))
                .collect()
        });
        assert_eq!(v, vec!["0a", "1b"]);
    }

    #[test]
    fn collect_preserves_input_order_at_scale() {
        // Enough items for many chunks across many claim races.
        let n = 10_000usize;
        let out: Vec<usize> = with_pool(|| (0..n).into_par_iter().map(|i| i * 3).collect());
        assert_eq!(out.len(), n);
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, i * 3);
        }
    }

    #[test]
    fn parallel_equals_sequential_bitwise() {
        let work = |cap: usize| -> Vec<f64> {
            with_threads(cap, || {
                (0..257usize)
                    .into_par_iter()
                    .map(|i| (i as f64 * 0.1).sin().powi(3) / (i as f64 + 0.5))
                    .collect()
            })
        };
        let seq = work(1);
        let par = work(8);
        // Bitwise, not approximate: the same f64 ops run per index.
        assert_eq!(
            seq.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            par.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = with_pool(|| Vec::<u8>::new().into_par_iter().collect());
        assert!(empty.is_empty());
        let one: Vec<u8> = with_pool(|| vec![7u8].into_par_iter().collect());
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn for_each_observes_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        with_pool(|| {
            (1..=100usize).into_par_iter().for_each(|i| {
                sum.fetch_add(i, Ordering::Relaxed);
            })
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn panic_propagates_to_caller_and_pool_survives() {
        let r = std::panic::catch_unwind(|| {
            with_pool(|| {
                (0..64usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 33 {
                            panic!("boom at {i}");
                        }
                        i
                    })
                    .collect::<Vec<_>>()
            })
        });
        assert!(r.is_err(), "panic must reach the caller");
        // The pool must still serve the next batch (no deadlock, no
        // poisoned workers).
        let out: Vec<usize> = with_pool(|| (0..16usize).into_par_iter().collect());
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn join_runs_both_and_propagates_panics() {
        let (a, b) = with_pool(|| join(|| 2 + 2, || "ok".to_string()));
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
        let r = std::panic::catch_unwind(|| with_pool(|| join(|| 1, || panic!("right side"))));
        assert!(r.is_err());
    }

    #[test]
    fn nested_parallel_calls_complete() {
        // A chunk closure that itself runs a parallel collect: the inner
        // batch must complete even with every worker busy (the claiming
        // thread drains it), exercising the no-deadlock design.
        let out: Vec<usize> = with_pool(|| {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let inner: Vec<usize> = (0..50usize).into_par_iter().map(|j| j * i).collect();
                    inner.iter().sum::<usize>()
                })
                .collect()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..50).map(|j| j * i).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let _ = std::panic::catch_unwind(|| with_threads(1, || panic!("x")));
        // If the cap leaked, this would run sequentially; either way it
        // must produce ordered output — assert the cap itself is gone.
        assert!(current_num_threads() >= 1);
        let out: Vec<usize> = with_pool(|| (0..10usize).into_par_iter().collect());
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }
}

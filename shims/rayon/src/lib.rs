//! Offline stand-in for `rayon`.
//!
//! Provides the `par_iter().map(..).collect()` surface this workspace
//! uses, built on `std::thread::scope` with an atomic work counter.
//! Results are merged back in input order, so a parallel map is
//! observationally identical to its serial counterpart (determinism is a
//! tested property of the experiment engine). Worker panics propagate to
//! the caller exactly like rayon's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything call sites need: `par_iter()` plus the iterator adapters.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

/// Types that can produce a borrowing parallel iterator.
pub trait IntoParallelRefIterator<'a> {
    /// Element yielded by the iterator.
    type Item: Sync + 'a;
    /// Borrow the collection as a parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// The adapter surface shared by [`ParIter`] and [`ParMap`].
pub trait ParallelIterator: Sized {
    /// Item type produced by this iterator.
    type Item: Send;

    /// Evaluate the pipeline, returning results in input order.
    fn run(self) -> Vec<Self::Item>;

    /// Map each element through `f` in parallel.
    fn map<R, F>(self, f: F) -> ParMap<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        ParMap { base: self, f }
    }

    /// Execute and collect into any `FromIterator` collection.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.run().into_iter().collect()
    }
}

impl<'a, T: Sync + 'a> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;

    fn run(self) -> Vec<&'a T> {
        self.items.iter().collect()
    }
}

/// Parallel map adapter produced by [`ParallelIterator::map`].
pub struct ParMap<I, F> {
    base: I,
    f: F,
}

impl<'a, T, R, F> ParallelIterator for ParMap<ParIter<'a, T>, F>
where
    T: Sync + 'a,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        parallel_map(self.base.items, &self.f)
    }
}

/// Map `f` over `items` on all available cores, preserving input order.
///
/// A panic in any worker is re-raised on the calling thread, with the
/// worker's original payload, once every worker has joined (same
/// contract as rayon).
pub fn parallel_map<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    // Join every worker by hand: an unjoined panicked thread makes
    // `scope` raise its own generic panic, which would hide the worker's
    // payload. The first panicking worker's payload is re-raised as is.
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= items.len() {
                            break;
                        }
                        local.push((idx, f(&items[idx])));
                    }
                    collected
                        .lock()
                        .expect("no worker panics while holding the results lock")
                        .extend(local);
                })
            })
            .collect();
        handles
            .into_iter()
            .fold(None, |first, h| first.or(h.join().err()))
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }

    let mut pairs = collected.into_inner().unwrap();
    pairs.sort_by_key(|(idx, _)| *idx);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..100).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_map() {
        use std::collections::BTreeMap;
        let keys = ["a", "b", "c"];
        let out: BTreeMap<&str, usize> = keys.par_iter().map(|&k| (k, k.len())).collect();
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let input = vec![1u32, 2, 3, 4];
        let _: Vec<u32> = input
            .par_iter()
            .map(|&x| if x == 3 { panic!("boom") } else { x })
            .collect();
    }
}

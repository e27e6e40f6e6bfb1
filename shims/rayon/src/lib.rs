//! Offline stand-in for `rayon`, covering the `par_iter().map().collect()`
//! pattern this workspace uses.
//!
//! Unlike a work-stealing pool, this shim splits the input slice into one
//! contiguous chunk per available core and runs them on scoped threads.
//! Results come back in input order, matching rayon's indexed collect
//! semantics.
//!
//! Static chunking is not free: a chunk of slow items leaves the other
//! threads idle. The repository benchmark (`perfbench`) measures a
//! campaign's parallel efficiency (`campaign.parallel_eff`, busy thread
//! time over threads x wall time) at 0.935 on `decode-grid`, whose cells
//! are similar, but only 0.726 on `triage-sweep`, whose scenario builds
//! differ up to eightfold in size. Work stealing would recover part of
//! that gap.

pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParIter, ParMap};
}

/// Entry point mirroring `rayon::prelude::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    type Item: Sync + 'a;
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

/// Borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            slice: self.slice,
            f,
        }
    }
}

/// A mapped parallel iterator; consumed by `collect`.
pub struct ParMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let n = self.slice.len();
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n.max(1));
        if threads <= 1 {
            return self.slice.iter().map(&self.f).collect();
        }
        let chunk = n.div_ceil(threads);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            for (input, output) in self.slice.chunks(chunk).zip(results.chunks_mut(chunk)) {
                let f = &self.f;
                s.spawn(move || {
                    for (x, slot) in input.iter().zip(output.iter_mut()) {
                        *slot = Some(f(x));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("worker thread filled every slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let xs: Vec<u64> = vec![];
        let ys: Vec<u64> = xs.par_iter().map(|&x| x).collect();
        assert!(ys.is_empty());
        let one = [7u64];
        let ys: Vec<u64> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(ys, vec![8]);
    }
}

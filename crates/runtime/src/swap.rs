//! The routing-table slot: one `Arc<T>` that a publish replaces
//! wholesale.
//!
//! [`EpochSwap`] is plain std code: a `Mutex` around
//! `(generation, Arc<T>)`, plus an [`AtomicU64`] copy of the generation.
//! [`load`](EpochSwap::load) clones the `Arc` under the mutex;
//! [`publish`](EpochSwap::publish) bumps the generation, swaps in the new
//! `Arc` and stores the new generation in the atomic copy, all under the
//! mutex, and hands back the previous value. Snapshots are immutable
//! `Arc`s, so a publish never waits for a reader to let go of one, and a
//! reader never sees a half-written value; an old value lives until its
//! last snapshot drops.
//!
//! A reader that caches a snapshot checks whether it is still current
//! with one load of the atomic generation and takes the mutex only when
//! a publish has landed. The dispatcher works this way (`shard.rs`), so
//! the per-job path never touches the slot's mutex or refcount.
//!
//! ## Lock order
//!
//! The dispatcher's mutex, then the runtime's `state` lock, then the
//! slot; the flight recorder is a leaf, and nothing locks the
//! dispatcher while holding `state`. The slot's mutex is a
//! leaf lock: nothing else is locked while it is held, and it is held
//! only to clone or replace one `Arc`. A publisher takes `state` and
//! then the slot (the publish rule on [`Runtime`](crate::Runtime)); the
//! dispatcher takes its own mutex and then the slot (the refresh in
//! [`Dispatcher::guard`](crate::Dispatcher::guard)); the trace driver's
//! batch takes the dispatcher, then `state`, and publishes and
//! refreshes under both. No path locks anything after the slot, and
//! every path takes the others in that order, so none can deadlock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Publish statistics of an [`EpochSwap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Total publishes through this slot.
    pub publishes: u64,
}

/// A slot holding an `Arc<T>` that is swapped wholesale on publish. See
/// the [module docs](self) for the lock order.
#[derive(Debug)]
pub struct EpochSwap<T> {
    /// `(generation, value)`; the generation counts publishes.
    slot: Mutex<(u64, Arc<T>)>,
    /// The slot's generation, stored under the slot's mutex after each
    /// publish, so a cached snapshot is checked with one load.
    generation: AtomicU64,
}

impl<T> EpochSwap<T> {
    /// Creates the slot with an initial value at generation 0.
    pub fn new(value: T) -> Self {
        Self { slot: Mutex::new((0, Arc::new(value))), generation: AtomicU64::new(0) }
    }

    /// Publish statistics. Cheap; safe to poll from any thread.
    #[must_use]
    pub fn stats(&self) -> SwapStats {
        SwapStats { publishes: self.generation() }
    }

    /// Snapshots the current value. The returned `Arc` stays valid (and
    /// immutable) across any number of subsequent publishes.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.lock().1)
    }

    /// Publishes a new value, returning the previous one. Never waits
    /// for readers: snapshots already taken keep the previous value
    /// alive on their own.
    pub fn publish(&self, value: T) -> Arc<T> {
        let value = Arc::new(value);
        let mut slot = self.lock();
        slot.0 += 1;
        let previous = std::mem::replace(&mut slot.1, value);
        self.generation.store(slot.0, Ordering::Release);
        previous
    }

    /// The generation of the current value: 0 at creation, then one
    /// more per publish.
    pub(crate) fn generation(&self) -> u64 {
        // Pairs with the `Release` store in `publish`. The value itself
        // is only ever read under the slot's mutex, so this load just
        // tells a cached reader whether to take it.
        self.generation.load(Ordering::Acquire)
    }

    /// The current value together with its generation, read as one
    /// consistent pair.
    pub(crate) fn load_current(&self) -> (u64, Arc<T>) {
        let slot = self.lock();
        (slot.0, Arc::clone(&slot.1))
    }

    fn lock(&self) -> MutexGuard<'_, (u64, Arc<T>)> {
        self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sees_latest_publish() {
        let swap = EpochSwap::new(1u32);
        assert_eq!(*swap.load(), 1);
        let old = swap.publish(2);
        assert_eq!(*old, 1);
        assert_eq!(*swap.load(), 2);
    }

    #[test]
    fn snapshots_survive_publishes() {
        let swap = EpochSwap::new(vec![1, 2, 3]);
        let snapshot = swap.load();
        swap.publish(vec![9]);
        assert_eq!(*snapshot, vec![1, 2, 3], "old snapshot is immutable");
        assert_eq!(*swap.load(), vec![9]);
    }

    #[test]
    fn publish_returns_previous_in_order() {
        let swap = EpochSwap::new(0u32);
        for v in 1..=100u32 {
            assert_eq!(*swap.publish(v), v - 1, "publish must hand back the value it replaced");
            assert_eq!(swap.load_current(), (u64::from(v), Arc::new(v)));
        }
        assert_eq!(*swap.load(), 100);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let swap = Arc::new(EpochSwap::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let swap = Arc::clone(&swap);
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let v = *swap.load();
                        assert!(v >= last, "published values are monotone");
                        last = v;
                    }
                });
            }
            let writer = Arc::clone(&swap);
            s.spawn(move || {
                for v in 1..=1000 {
                    writer.publish(v);
                }
            });
        });
        assert_eq!(*swap.load(), 1000);
    }

    #[test]
    fn stats_count_publishes() {
        let swap = EpochSwap::new(0u32);
        assert_eq!(swap.stats(), SwapStats::default());
        for v in 1..=5u32 {
            swap.publish(v);
        }
        assert_eq!(swap.stats().publishes, 5);
        assert_eq!(swap.generation(), 5);
    }

    #[test]
    fn concurrent_writers_serialize() {
        // Two writer threads each publish their own tagged sequence; the
        // set of returned "previous" values must be exactly the set of
        // published values minus the final one plus the initial one —
        // i.e. every value leaves the slot exactly once.
        let swap = Arc::new(EpochSwap::new(0u64));
        let mut returned: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|w| {
                    let swap = Arc::clone(&swap);
                    s.spawn(move || {
                        (0..500).map(|k| *swap.publish((w + 1) << 32 | k)).collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        returned.push(*swap.load());
        returned.sort_unstable();
        let mut expected: Vec<u64> = (0..2u64)
            .flat_map(|w| (0..500).map(move |k| (w + 1) << 32 | k))
            .chain(std::iter::once(0))
            .collect();
        expected.sort_unstable();
        assert_eq!(returned, expected);
        assert_eq!(swap.stats().publishes, 1000);
    }
}

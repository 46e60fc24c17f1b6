//! A bounded, structured, drop-oldest event ring.
//!
//! [`EventRing`] holds one fixed-capacity lane behind a mutex, so that a
//! scrape can read a consistent lane without racing a writer. When the
//! lane is full the oldest event is dropped and an exact dropped counter
//! is incremented.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An event tagged with its provenance: virtual time and the
/// deterministic seed-stream id of the subsystem that emitted it (`0`
/// for subsystems that consume no RNG stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaggedEvent<T> {
    /// Virtual (simulation) time of the event, in seconds.
    pub time: f64,
    /// Seed-stream family id of the emitting subsystem.
    pub stream: u64,
    /// The structured event payload.
    pub event: T,
}

/// One bounded, drop-oldest lane with exact accounting: the storage of
/// the [`EventRing`] and of each [`FlightRecorder`](crate::FlightRecorder)
/// lane.
#[derive(Debug)]
pub(crate) struct Lane<T> {
    pub(crate) buf: VecDeque<T>,
    /// Items evicted to make room.
    pub(crate) dropped: u64,
    /// Items ever pushed.
    pub(crate) recorded: u64,
}

impl<T> Lane<T> {
    /// An empty lane of `capacity` items behind its own lock.
    pub(crate) fn new(capacity: usize) -> Mutex<Self> {
        Mutex::new(Self { buf: VecDeque::with_capacity(capacity), dropped: 0, recorded: 0 })
    }

    /// Locks `lane`. A holder that panicked leaves the lane valid, at
    /// worst with one count off, so a poisoned lock is recovered rather
    /// than propagated.
    pub(crate) fn lock(lane: &Mutex<Self>) -> MutexGuard<'_, Self> {
        lane.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `item`, first evicting the oldest one if the lane holds
    /// `capacity` items.
    pub(crate) fn push(&mut self, item: T, capacity: usize) {
        if self.buf.len() == capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
        self.recorded += 1;
    }
}

/// A bounded event ring with drop-oldest semantics and an exact
/// dropped counter.
#[derive(Debug)]
pub struct EventRing<T> {
    lane: Mutex<Lane<TaggedEvent<T>>>,
    capacity: usize,
}

impl<T: Clone> EventRing<T> {
    /// Creates a ring of `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { lane: Lane::new(capacity), capacity }
    }

    fn lane(&self) -> MutexGuard<'_, Lane<TaggedEvent<T>>> {
        Lane::lock(&self.lane)
    }

    /// Capacity of the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `event`, dropping the oldest event if the ring is full.
    pub fn push(&self, event: TaggedEvent<T>) {
        self.lane().push(event, self.capacity);
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lane().buf.len()
    }

    /// Whether no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever pushed.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.lane().recorded
    }

    /// Events dropped (overwritten).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lane().dropped
    }

    /// Copies out every buffered event, sorted by virtual time (ties keep
    /// push order): events may be pushed stamped with a time other than
    /// the latest.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TaggedEvent<T>> {
        let mut all: Vec<TaggedEvent<T>> = self.lane().buf.iter().cloned().collect();
        all.sort_by(|a, b| a.time.total_cmp(&b.time));
        all
    }

    /// The most recent `n` events in virtual-time order.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<TaggedEvent<T>> {
        let mut all = self.snapshot();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, event: u32) -> TaggedEvent<u32> {
        TaggedEvent { time, stream: 0, event }
    }

    #[test]
    fn drop_oldest_keeps_exact_counts() {
        let ring = EventRing::new(4);
        for i in 0..10u32 {
            ring.push(ev(i as f64, i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let kept: Vec<u32> = ring.snapshot().iter().map(|e| e.event).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn recent_takes_the_tail() {
        // Pushed out of time order: the snapshot sorts by time, and
        // equal times keep push order.
        let ring = EventRing::new(8);
        for (time, event) in [(0.0, 0), (2.0, 1), (1.0, 2), (3.0, 3), (3.0, 4), (2.5, 5)] {
            ring.push(ev(time, event));
        }
        let tail: Vec<u32> = ring.recent(3).iter().map(|e| e.event).collect();
        assert_eq!(tail, vec![5, 3, 4]);
    }
}

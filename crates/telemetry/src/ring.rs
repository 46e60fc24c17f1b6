//! A bounded, structured, drop-oldest event ring.
//!
//! [`EventRing`] holds one fixed-capacity lane per shard. The runtime
//! writes each lane from a single shard at a time (the shard's
//! dispatch path is already serialized by its own lock), so the
//! per-lane mutex here is uncontended on the write path; it exists so
//! that a scrape can read a consistent lane without racing the writer.
//! When a lane is full the oldest event is dropped and an exact
//! per-lane dropped counter is incremented.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An event tagged with its provenance: virtual time, writing shard,
/// and the deterministic seed-stream id of the subsystem that emitted
/// it (`0` for subsystems that consume no RNG stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaggedEvent<T> {
    /// Virtual (simulation) time of the event, in seconds.
    pub time: f64,
    /// Shard that recorded the event.
    pub shard: u32,
    /// Seed-stream family id of the emitting subsystem.
    pub stream: u64,
    /// The structured event payload.
    pub event: T,
}

/// One bounded, drop-oldest lane with exact accounting: the storage of
/// each [`EventRing`] lane and each
/// [`FlightRecorder`](crate::FlightRecorder) lane.
#[derive(Debug)]
pub(crate) struct Lane<T> {
    pub(crate) buf: VecDeque<T>,
    /// Items evicted to make room.
    pub(crate) dropped: u64,
    /// Items ever pushed.
    pub(crate) recorded: u64,
}

impl<T> Lane<T> {
    /// `lanes` empty lanes of `capacity` items, each behind its own lock.
    pub(crate) fn set(lanes: usize, capacity: usize) -> Vec<Mutex<Self>> {
        let lane = || Self { buf: VecDeque::with_capacity(capacity), dropped: 0, recorded: 0 };
        (0..lanes).map(|_| Mutex::new(lane())).collect()
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

/// A bounded multi-lane event ring with drop-oldest semantics and
/// exact dropped counters.
#[derive(Debug)]
pub struct EventRing<T> {
    lanes: Vec<Mutex<Lane<TaggedEvent<T>>>>,
    capacity: usize,
}

impl<T: Clone> EventRing<T> {
    /// Creates a ring with `lanes` lanes (minimum 1) of
    /// `capacity_per_lane` events each (minimum 1).
    #[must_use]
    pub fn new(lanes: usize, capacity_per_lane: usize) -> Self {
        let capacity = capacity_per_lane.max(1);
        Self { lanes: Lane::set(lanes.max(1), capacity), capacity }
    }

    fn lane(&self, i: usize) -> MutexGuard<'_, Lane<TaggedEvent<T>>> {
        Lane::lock(&self.lanes[i % self.lanes.len()])
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Capacity of each lane.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `event` to the lane owned by `shard` (wrapped by lane
    /// count), dropping the lane's oldest event if it is full.
    pub fn push(&self, shard: usize, event: TaggedEvent<T>) {
        self.lane(shard).push(event, self.capacity);
    }

    /// Total events currently buffered across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.lanes.len()).map(|i| self.lane(i).buf.len()).sum()
    }

    /// Whether no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed across all lanes.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        (0..self.lanes.len()).map(|i| self.lane(i).recorded).sum()
    }

    /// Total events dropped (overwritten) across all lanes.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        (0..self.lanes.len()).map(|i| self.lane(i).dropped).sum()
    }

    /// Events dropped from one lane.
    #[must_use]
    pub fn lane_dropped(&self, lane: usize) -> u64 {
        self.lane(lane).dropped
    }

    /// Copies out every buffered event, merged across lanes and sorted
    /// by virtual time (ties keep lane order).
    #[must_use]
    pub fn snapshot(&self) -> Vec<TaggedEvent<T>> {
        let mut all: Vec<TaggedEvent<T>> = Vec::with_capacity(self.len());
        for i in 0..self.lanes.len() {
            all.extend(self.lane(i).buf.iter().cloned());
        }
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
        TaggedEvent { time, shard: 0, stream: 0, event }
    }

    #[test]
    fn drop_oldest_keeps_exact_counts() {
        let ring = EventRing::new(1, 4);
        for i in 0..10u32 {
            ring.push(0, ev(i as f64, i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.lane_dropped(0), 6);
        let kept: Vec<u32> = ring.snapshot().iter().map(|e| e.event).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn lanes_are_independent() {
        let ring = EventRing::new(2, 2);
        ring.push(0, ev(0.0, 0));
        ring.push(0, ev(1.0, 1));
        ring.push(0, ev(2.0, 2)); // drops event 0 from lane 0
        ring.push(1, ev(0.5, 10));
        assert_eq!(ring.lane_dropped(0), 1);
        assert_eq!(ring.lane_dropped(1), 0);
        let times: Vec<f64> = ring.snapshot().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn recent_takes_the_tail() {
        let ring = EventRing::new(2, 8);
        for i in 0..6u32 {
            ring.push((i % 2) as usize, ev(i as f64, i));
        }
        let tail: Vec<u32> = ring.recent(2).iter().map(|e| e.event).collect();
        assert_eq!(tail, vec![4, 5]);
    }
}

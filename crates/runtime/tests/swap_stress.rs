//! Stress tests of the routing-table slot [`EpochSwap`] and of the
//! dispatcher that caches its tables, under racing readers and writers.
//!
//! Each published value carries a redundant payload derived from its
//! version, so a torn read — a reader observing a value mid-replacement
//! — fails an assertion instead of going unnoticed. The single-writer
//! test additionally checks that readers observe versions monotonically
//! (a reader can never see an older table after a newer one), and that
//! `publish` hands back the previous value in order. The dispatcher
//! tests check that a held [`DispatchGuard`](gtlb_runtime::DispatchGuard)
//! never delays a publish and that the dispatcher's cached table never
//! stays stale, however many threads dispatch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gtlb_runtime::{Dispatcher, EpochSwap, NodeId, RoutingTable};

/// A value whose payload is a pure function of its version: any
/// mixed-generation read trips `check`.
#[derive(Debug)]
struct Tagged {
    version: u64,
    payload: Vec<u64>,
}

impl Tagged {
    fn new(version: u64) -> Self {
        let payload = (0..8).map(|k| version.wrapping_mul(0x9e37).wrapping_add(k)).collect();
        Self { version, payload }
    }

    fn check(&self) {
        for (k, &p) in self.payload.iter().enumerate() {
            assert_eq!(
                p,
                self.version.wrapping_mul(0x9e37).wrapping_add(k as u64),
                "torn read: payload does not match version {}",
                self.version
            );
        }
    }
}

#[test]
fn one_writer_many_readers_monotone_and_untorn() {
    let swap = Arc::new(EpochSwap::new(Tagged::new(0)));
    let stop = Arc::new(AtomicBool::new(false));
    let publishes = 20_000;
    std::thread::scope(|s| {
        for _ in 0..8 {
            let swap = Arc::clone(&swap);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last = 0u64;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = swap.load();
                    t.check();
                    assert!(t.version >= last, "reader went back in time: {} < {last}", t.version);
                    last = t.version;
                    reads += 1;
                }
                reads
            });
        }
        for v in 1..=publishes {
            let prev = swap.publish(Tagged::new(v));
            assert_eq!(prev.version, v - 1, "publish must return the previous value");
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(swap.load().version, publishes);
}

#[test]
fn many_writers_many_readers_untorn() {
    let swap = Arc::new(EpochSwap::new(Tagged::new(0)));
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 3u64;
    let per_writer = 8_000;
    let mut returned: Vec<u64> = std::thread::scope(|s| {
        for _ in 0..4 {
            let swap = Arc::clone(&swap);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    swap.load().check();
                }
            });
        }
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let swap = Arc::clone(&swap);
                s.spawn(move || {
                    (0..per_writer)
                        .map(|k| {
                            let version = (w + 1) << 32 | k;
                            let prev = swap.publish(Tagged::new(version));
                            prev.check();
                            prev.version
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let returned = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        returned
    });
    // Writers serialize: every published value (plus the initial one)
    // leaves the slot exactly once, the final value excepted.
    returned.push(swap.load().version);
    returned.sort_unstable();
    let mut expected: Vec<u64> = (0..writers)
        .flat_map(|w| (0..per_writer).map(move |k| (w + 1) << 32 | k))
        .chain(std::iter::once(0))
        .collect();
    expected.sort_unstable();
    assert_eq!(returned, expected);
}

#[test]
fn held_snapshots_are_immutable_across_publishes() {
    let swap = EpochSwap::new(Tagged::new(7));
    let snapshot = swap.load();
    let mid = {
        for v in 100..600 {
            swap.publish(Tagged::new(v));
        }
        swap.load()
    };
    for v in 600..1100 {
        swap.publish(Tagged::new(v));
    }
    snapshot.check();
    assert_eq!(snapshot.version, 7, "snapshot outlived 1000 publishes unchanged");
    mid.check();
    assert_eq!(mid.version, 599);
    assert_eq!(swap.load().version, 1099);
}

/// Nodes of the dispatcher tests' tables.
const NODES: u64 = 7;

/// Epoch `epoch`'s table over [`NODES`] nodes: all its mass on node
/// `epoch mod NODES`, so every decision names the epoch that routed it.
fn point_table(epoch: u64) -> RoutingTable {
    let ids = (0..NODES).map(NodeId::from_raw).collect();
    let weights: Vec<f64> =
        (0..NODES).map(|raw| if raw == epoch % NODES { 1.0 } else { 0.0 }).collect();
    RoutingTable::new(epoch, ids, &weights).unwrap()
}

#[test]
fn publishes_never_wait_for_a_held_guard() {
    let slot = Arc::new(EpochSwap::new(point_table(1)));
    let dispatcher = Dispatcher::new(Arc::clone(&slot), 5);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let mut guard = dispatcher.guard();
        let publisher = Arc::clone(&slot);
        s.spawn(move || {
            for epoch in 2..=4 {
                publisher.publish(point_table(epoch));
            }
            done_tx.send(()).unwrap();
        });
        let published = done_rx.recv_timeout(Duration::from_millis(500)).is_ok();
        // Still held: the guard routes on the table live when it was
        // taken.
        let held = guard.dispatch().unwrap();
        // Release the guard before asserting, so a publisher stuck
        // behind it can finish and the scope can join.
        drop(guard);
        assert!(published, "three publishes did not return within 500 ms of a held guard");
        assert_eq!(held.epoch, 1);
    });
    assert_eq!(slot.stats().publishes, 3);
    assert_eq!(dispatcher.dispatch().unwrap().epoch, 4, "a new guard sees the last publish");
}

#[test]
fn racing_dispatches_follow_every_publish_and_end_current() {
    const THREADS: usize = 4;
    const LAST: u64 = 2_000;
    let slot = Arc::new(EpochSwap::new(point_table(1)));
    let dispatcher = Dispatcher::new(Arc::clone(&slot), 9);
    let done = AtomicBool::new(false);
    let decisions: u64 = std::thread::scope(|s| {
        let racers: Vec<_> = (0..THREADS)
            .map(|k| {
                let (dispatcher, done) = (&dispatcher, &done);
                s.spawn(move || {
                    let (mut last, mut made) = (0, 0u64);
                    loop {
                        // Read before the dispatch: once `done` is seen,
                        // the last publish has landed, so this dispatch
                        // must route on the last table.
                        let ended = done.load(Ordering::Acquire);
                        let d = dispatcher.dispatch().unwrap();
                        made += 1;
                        assert_eq!(
                            d.node.raw(),
                            d.epoch % NODES,
                            "epoch {} routed elsewhere",
                            d.epoch
                        );
                        assert!(d.epoch >= last, "thread {k} went back from {last} to {}", d.epoch);
                        last = d.epoch;
                        if ended {
                            assert_eq!(d.epoch, LAST, "thread {k} stayed stale");
                            return made;
                        }
                    }
                })
            })
            .collect();
        let (slot, done) = (&slot, &done);
        s.spawn(move || {
            for epoch in 2..=LAST {
                slot.publish(point_table(epoch));
            }
            done.store(true, Ordering::Release);
        });
        racers.into_iter().map(|racer| racer.join().unwrap()).sum()
    });
    assert_eq!(dispatcher.dispatched(), decisions);
    assert_eq!(dispatcher.hit_counts().iter().map(|&(_, count)| count).sum::<u64>(), decisions);
}

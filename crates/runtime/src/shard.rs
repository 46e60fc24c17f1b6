//! Dispatch: the paper's central dispatcher over the routing-table slot.
//!
//! The paper's COOP scheme is static: a central dispatcher sends each
//! job to computer `i` with probability `λ_i / Φ` (§3.4.1). A
//! [`Dispatcher`] is that dispatcher: one deterministic RNG stream, hit
//! counters and a cached table behind one mutex.
//!
//! ## Seed derivation
//!
//! The dispatcher of seed `s` routes on the draws of
//! `Xoshiro256PlusPlus::stream(s, DISPATCH_STREAM)` and takes its
//! admission draws from `Xoshiro256PlusPlus::stream(s,
//! ADMISSION_STREAM)`, so the decision sequence is a pure function of
//! the seed and the published tables, whichever thread dispatches.
//!
//! ## The cached table
//!
//! The dispatcher caches the `Arc<RoutingTable>` it routes on together
//! with the slot generation it was read at. [`Dispatcher::guard`]
//! compares that generation with the slot's (one atomic load) and
//! re-reads the pair under the slot's mutex only when a publish has
//! landed. A [`DispatchGuard`] therefore routes on the table that was
//! live when it was taken, and [`Dispatcher::dispatch`] takes a fresh
//! guard per job, so it always sees the latest publish. A held guard
//! never delays a publish.
//!
//! The trace driver holds the guard for a batch of jobs instead and
//! makes the same check before each attempt, so it routes on the same
//! tables a fresh guard per job would. Per job its hot path is one
//! atomic load, one RNG draw, one O(1) alias lookup and one array
//! increment, plus one dispatcher lock per batch.
//!
//! ## Handing a held dispatcher over
//!
//! Every lock of the dispatcher first tries the mutex. A caller that
//! finds it held counts itself in the dispatcher's waiter count while it
//! blocks, and a batch holder that sees the count nonzero ends its batch
//! and lets the waiter in (see
//! [`TraceDriver::run_jobs`](crate::TraceDriver::run_jobs)).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gtlb_desim::rng::Xoshiro256PlusPlus;

use crate::error::RuntimeError;
use crate::registry::NodeId;
use crate::swap::EpochSwap;
use crate::table::RoutingTable;

/// RNG stream id for dispatch draws — disjoint from the simulator's
/// arrival (0x0100), routing (0x0200) and service (0x0300) stream
/// families.
pub const DISPATCH_STREAM: u64 = 0x0400;

/// RNG stream id of admission draws — disjoint from dispatch (0x0400)
/// and the driver's streams (0x0500/0x0600), so toggling admission
/// control never perturbs the routing decision sequence.
pub const ADMISSION_STREAM: u64 = 0x0700;

/// One routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The chosen node.
    pub node: NodeId,
    /// Epoch of the table that made the choice — lets callers correlate
    /// decisions with the re-solves and failures that produced them.
    pub epoch: u64,
}

/// The dispatcher's mutable state: the RNG streams, the counters and the
/// cached table. Hit counts are a dense vector indexed by raw node id
/// (ids are assigned sequentially and never reused), so counting a hit
/// is an array increment, not a hash lookup.
#[derive(Debug)]
struct Core {
    rng: Xoshiro256PlusPlus,
    admission_rng: Xoshiro256PlusPlus,
    dispatched: u64,
    hits: Vec<u64>,
    /// Slot generation `table` was read at.
    generation: u64,
    /// The table the dispatcher routes on; [`DispatchGuard::refresh`]
    /// re-reads it when the slot's generation has moved.
    table: Arc<RoutingTable>,
}

impl Core {
    #[inline]
    fn count_hit(&mut self, node: NodeId) {
        let idx = node.raw() as usize;
        if idx >= self.hits.len() {
            self.hits.resize(idx + 1, 0);
        }
        self.hits[idx] += 1;
    }
}

/// The central dispatcher over one shared routing table.
///
/// See the [module docs](self) for the seed derivation and the cached
/// table.
#[derive(Debug)]
pub struct Dispatcher {
    table: Arc<EpochSwap<RoutingTable>>,
    core: Mutex<Core>,
    /// Threads blocked on the dispatcher's mutex right now (see
    /// [`Dispatcher::lock`]).
    waiters: AtomicU32,
}

impl Dispatcher {
    /// A dispatcher reading `table`, drawing from stream
    /// `DISPATCH_STREAM` of `seed`.
    #[must_use]
    pub fn new(table: Arc<EpochSwap<RoutingTable>>, seed: u64) -> Self {
        let (generation, current) = table.load_current();
        let core = Core {
            rng: Xoshiro256PlusPlus::stream(seed, DISPATCH_STREAM),
            admission_rng: Xoshiro256PlusPlus::stream(seed, ADMISSION_STREAM),
            dispatched: 0,
            hits: Vec::new(),
            generation,
            table: current,
        };
        Self { table, core: Mutex::new(core), waiters: AtomicU32::new(0) }
    }

    /// Locks the dispatcher, first refreshing its cached table if a
    /// publish has landed since it last looked. A caller that finds it
    /// held counts as waiting until it gets it (see the
    /// [module docs](self)).
    ///
    /// Every dispatch through the guard routes on the table that was
    /// live when it was taken; take a new guard to observe a newer
    /// publish — [`dispatch`](Self::dispatch) does so implicitly.
    /// Holding a guard never delays a publish.
    #[must_use]
    pub fn guard(&self) -> DispatchGuard<'_> {
        let mut guard = DispatchGuard { core: self.lock(), dispatcher: self };
        guard.refresh();
        guard
    }

    /// Locks the dispatcher, counting the caller in the waiter count
    /// while it blocks. Every lock of the dispatcher goes through here.
    fn lock(&self) -> MutexGuard<'_, Core> {
        crate::lock_counted(&self.core, &self.waiters)
    }

    /// Whether a thread is blocked on the dispatcher: a batch holder
    /// then ends its batch and hands the dispatcher over.
    pub(crate) fn has_waiters(&self) -> bool {
        self.waiters.load(Ordering::Relaxed) != 0
    }

    /// Routes one job on a fresh guard.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] while the published table is
    /// empty.
    pub fn dispatch(&self) -> Result<Decision, RuntimeError> {
        self.guard().dispatch()
    }

    /// Always 0. Kept for the benchmark's job loop, which claims a
    /// dispatch index before [`Runtime::submit_on`](crate::Runtime::submit_on)
    /// and stamps it into its traces, until that loop is retired.
    #[must_use]
    pub fn next_shard(&self) -> usize {
        0
    }

    /// Total jobs routed.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.lock().dispatched
    }

    /// Per-node hit counts, sorted by node id (nodes that were never hit
    /// are omitted).
    #[must_use]
    pub fn hit_counts(&self) -> Vec<(NodeId, u64)> {
        (0u64..)
            .zip(&self.lock().hits)
            .filter(|&(_, &count)| count > 0)
            .map(|(raw, &count)| (NodeId::from_raw(raw), count))
            .collect()
    }
}

/// Exclusive access to the dispatcher. Routes on the table that was live
/// when the guard was taken (see [`Dispatcher::guard`]).
#[derive(Debug)]
pub struct DispatchGuard<'a> {
    core: MutexGuard<'a, Core>,
    dispatcher: &'a Dispatcher,
}

impl DispatchGuard<'_> {
    /// Re-reads the dispatcher's table if a publish has landed since it
    /// last looked: one atomic load when none has. [`Dispatcher::guard`]
    /// calls it once, so a public guard pins its table; the trace driver
    /// calls it before every attempt on the guard it holds for a batch.
    pub(crate) fn refresh(&mut self) {
        let slot = &self.dispatcher.table;
        if self.core.generation != slot.generation() {
            // Generation and table come from one read of the slot, so
            // the cache never pairs a new generation with an old table.
            let (generation, table) = slot.load_current();
            self.core.generation = generation;
            self.core.table = table;
        }
    }

    /// Routes one job on the guard's table: one RNG draw, one O(1) alias
    /// lookup, one counter increment.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] while the guard's table is empty.
    pub fn dispatch(&mut self) -> Result<Decision, RuntimeError> {
        let core = &mut *self.core;
        if core.table.is_empty() {
            return Err(RuntimeError::NoServingNodes);
        }
        let u = core.rng.next_open01();
        let node = core.table.route(u);
        let epoch = core.table.epoch();
        core.dispatched += 1;
        core.count_hit(node);
        Ok(Decision { node, epoch })
    }

    /// A uniform draw from the [`ADMISSION_STREAM`] — a stream disjoint
    /// from the routing stream, so probabilistic admission stays
    /// deterministic without perturbing the decision sequence.
    pub fn next_admission_draw(&mut self) -> f64 {
        self.core.admission_rng.next_open01()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(epoch: u64, probs: &[f64]) -> RoutingTable {
        let ids = (0..probs.len() as u64).map(NodeId::from_raw).collect();
        RoutingTable::new(epoch, ids, probs).unwrap()
    }

    fn swap(probs: &[f64]) -> Arc<EpochSwap<RoutingTable>> {
        Arc::new(EpochSwap::new(table(1, probs)))
    }

    #[test]
    fn dispatch_replays_the_seeds_stream() {
        // The central dispatcher: seed 42's dispatch stream, routed draw
        // by draw through the table.
        let probs = [0.5, 0.3, 0.2];
        let reference = table(1, &probs);
        let mut rng = Xoshiro256PlusPlus::stream(42, DISPATCH_STREAM);
        let dispatcher = Dispatcher::new(swap(&probs), 42);
        let mut guard = dispatcher.guard();
        for _ in 0..256 {
            let expected = Decision { node: reference.route(rng.next_open01()), epoch: 1 };
            assert_eq!(guard.dispatch().unwrap(), expected);
        }
        drop(guard);
        assert_eq!(dispatcher.dispatched(), 256);
    }

    #[test]
    fn empty_table_fails_dispatch() {
        let slot = Arc::new(EpochSwap::new(RoutingTable::empty(0)));
        let dispatcher = Dispatcher::new(slot, 1);
        assert_eq!(dispatcher.dispatch(), Err(RuntimeError::NoServingNodes));
    }

    #[test]
    fn dispatch_follows_a_publish() {
        let slot = swap(&[1.0, 0.0]);
        let dispatcher = Dispatcher::new(Arc::clone(&slot), 11);
        for _ in 0..20 {
            assert_eq!(dispatcher.dispatch().unwrap().node, NodeId::from_raw(0));
        }
        slot.publish(table(2, &[0.0, 1.0]));
        for _ in 0..20 {
            let d = dispatcher.dispatch().unwrap();
            assert_eq!(d.node, NodeId::from_raw(1));
            assert_eq!(d.epoch, 2);
        }
        assert_eq!(dispatcher.hit_counts(), [(NodeId::from_raw(0), 20), (NodeId::from_raw(1), 20)]);
    }

    #[test]
    fn guard_pins_the_snapshot_at_acquisition() {
        let slot = swap(&[1.0, 0.0]);
        let dispatcher = Dispatcher::new(Arc::clone(&slot), 3);
        let mut guard = dispatcher.guard();
        slot.publish(table(2, &[0.0, 1.0]));
        // The held guard keeps routing on the epoch-1 snapshot...
        for _ in 0..10 {
            let d = guard.dispatch().unwrap();
            assert_eq!((d.node, d.epoch), (NodeId::from_raw(0), 1));
        }
        drop(guard);
        // ...and a re-acquired guard observes the publish.
        let d = dispatcher.guard().dispatch().unwrap();
        assert_eq!((d.node, d.epoch), (NodeId::from_raw(1), 2));
    }
}

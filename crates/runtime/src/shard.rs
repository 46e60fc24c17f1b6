//! Sharded dispatch: N per-core dispatchers over one routing-table slot.
//!
//! The paper's COOP scheme is static: a central dispatcher sends each
//! job to computer `i` with probability `λ_i / Φ`. A
//! [`ShardedDispatcher`] runs that dispatcher as N shards, each with its
//! **own** deterministic RNG stream, hit counters and cached table, so
//! concurrent dispatch on distinct shards never contends. Counters are
//! merged only when read.
//!
//! ## Seed derivation
//!
//! Shard `k` of base seed `s` draws from
//! `Xoshiro256PlusPlus::stream(s ^ k, DISPATCH_STREAM)`. Two
//! consequences worth relying on:
//!
//! * **shard 0 replays the seed's stream** — `s ^ 0 = s`, so shard 0
//!   routes exactly the draws of `Xoshiro256PlusPlus::stream(s,
//!   DISPATCH_STREAM)` through [`RoutingTable::route`], and a one-shard
//!   runtime is the single central dispatcher;
//! * **determinism** — for a fixed `(seed, shard count)` the per-shard
//!   decision sequences, and therefore any fixed interleaving of them
//!   (e.g. round-robin by job index), are reproducible regardless of
//!   which OS threads executed which shards.
//!
//! ## The cached table
//!
//! Each shard sits behind its own mutex, uncontended when each worker
//! owns a shard, and caches the `Arc<RoutingTable>` it routes on
//! together with the slot generation it was read at.
//! [`ShardedDispatcher::shard`] compares that generation with the
//! slot's (one atomic load) and re-reads the pair under the slot's
//! mutex only when a publish has landed. A [`ShardGuard`] therefore
//! routes on the table that was live when it was taken, and the per-job
//! entry points ([`ShardedDispatcher::dispatch_on`]) take a fresh guard
//! per job, so they always see the latest publish. A held guard never
//! delays a publish.
//!
//! The trace driver holds its guards for a batch of jobs instead and
//! makes the same check before each attempt, so it routes on the same
//! tables a fresh guard per job would. Per job its hot path is one
//! atomic load, one RNG draw, one O(1) alias lookup and one array
//! increment, plus one shard lock per batch; the round-robin claim adds
//! one `fetch_add` only when there is more than one shard.
//!
//! ## Handing a held shard over
//!
//! Every shard lock the dispatcher takes first tries the mutex. A
//! caller that finds it held counts itself in the dispatcher's waiter
//! count while it blocks, and a batch holder that sees the count
//! nonzero ends its batch and lets the waiter in (see
//! [`TraceDriver::run_jobs`](crate::TraceDriver::run_jobs)).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gtlb_desim::rng::Xoshiro256PlusPlus;

use crate::error::RuntimeError;
use crate::registry::NodeId;
use crate::swap::EpochSwap;
use crate::table::RoutingTable;
use crate::telemetry::{Telemetry, ROUTE_SAMPLE_EVERY};

/// RNG stream id for dispatch draws — disjoint from the simulator's
/// arrival (0x0100), routing (0x0200) and service (0x0300) stream
/// families.
pub const DISPATCH_STREAM: u64 = 0x0400;

/// RNG stream id of per-shard admission draws — disjoint from dispatch
/// (0x0400) and the driver's streams (0x0500/0x0600), so toggling
/// admission control never perturbs the routing decision sequence.
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

/// Per-shard mutable state: the RNG streams, the local counters and the
/// cached table. Hit counts are a dense vector indexed by raw node id
/// (ids are assigned sequentially and never reused), so counting a hit
/// is an array increment, not a hash lookup.
#[derive(Debug)]
struct ShardCore {
    rng: Xoshiro256PlusPlus,
    admission_rng: Xoshiro256PlusPlus,
    dispatched: u64,
    hits: Vec<u64>,
    /// Slot generation `table` was read at.
    generation: u64,
    /// The table this shard routes on; [`ShardGuard::refresh`] re-reads
    /// it when the slot's generation has moved.
    table: Arc<RoutingTable>,
}

impl ShardCore {
    #[inline]
    fn count_hit(&mut self, node: NodeId) {
        let idx = node.raw() as usize;
        if idx >= self.hits.len() {
            self.hits.resize(idx + 1, 0);
        }
        self.hits[idx] += 1;
    }
}

/// N independent dispatchers over one shared routing table.
///
/// See the [module docs](self) for the seed-derivation rule and the
/// determinism contract.
#[derive(Debug)]
pub struct ShardedDispatcher {
    table: Arc<EpochSwap<RoutingTable>>,
    shards: Vec<Mutex<ShardCore>>,
    round_robin: AtomicUsize,
    /// Threads blocked on a shard's mutex right now (see
    /// [`ShardedDispatcher::lock`]).
    waiters: AtomicU32,
    telemetry: Telemetry,
}

impl ShardedDispatcher {
    /// `shards` dispatchers reading `table`; shard `k` draws from stream
    /// `DISPATCH_STREAM` of seed `base_seed ^ k`. Telemetry is disabled;
    /// use [`with_telemetry`](Self::with_telemetry) to record sampled
    /// routing events.
    ///
    /// # Panics
    /// If `shards` is zero.
    #[must_use]
    pub fn new(table: Arc<EpochSwap<RoutingTable>>, base_seed: u64, shards: usize) -> Self {
        Self::with_telemetry(table, base_seed, shards, Telemetry::disabled())
    }

    /// Like [`new`](Self::new), with a telemetry facade. Telemetry
    /// consumes no RNG draws and never alters a decision: the sequences
    /// are bit-identical whether `telemetry` is enabled or not.
    ///
    /// # Panics
    /// If `shards` is zero.
    #[must_use]
    pub fn with_telemetry(
        table: Arc<EpochSwap<RoutingTable>>,
        base_seed: u64,
        shards: usize,
        telemetry: Telemetry,
    ) -> Self {
        assert!(shards > 0, "a sharded dispatcher needs at least one shard");
        let (generation, current) = table.load_current();
        let shards = (0..shards as u64)
            .map(|k| {
                Mutex::new(ShardCore {
                    rng: Xoshiro256PlusPlus::stream(base_seed ^ k, DISPATCH_STREAM),
                    admission_rng: Xoshiro256PlusPlus::stream(base_seed ^ k, ADMISSION_STREAM),
                    dispatched: 0,
                    hits: Vec::new(),
                    generation,
                    table: Arc::clone(&current),
                })
            })
            .collect();
        Self {
            table,
            shards,
            round_robin: AtomicUsize::new(0),
            waiters: AtomicU32::new(0),
            telemetry,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Locks shard `shard`, first refreshing its cached table if a
    /// publish has landed since the shard last looked. The lock is
    /// uncontended when each worker owns one shard; a caller that finds
    /// it held counts as waiting until it gets it (see the
    /// [module docs](self)).
    ///
    /// Every dispatch through the guard routes on the table that was
    /// live when it was taken; take a new guard to observe a newer
    /// publish — per-job paths like [`dispatch_on`](Self::dispatch_on)
    /// do so implicitly. Holding a guard never delays a publish.
    ///
    /// # Panics
    /// If `shard >= shard_count()`.
    #[must_use]
    pub fn shard(&self, shard: usize) -> ShardGuard<'_> {
        let mut guard = ShardGuard { core: self.lock(shard), dispatcher: self, shard };
        guard.refresh();
        guard
    }

    /// Locks shard `shard`, counting the caller in the waiter count
    /// while it blocks. Every shard lock goes through here.
    fn lock(&self, shard: usize) -> MutexGuard<'_, ShardCore> {
        crate::lock_counted(&self.shards[shard], &self.waiters)
    }

    /// Whether a thread is blocked on one of the shards: a batch holder
    /// then ends its batch and hands the shards over.
    pub(crate) fn has_waiters(&self) -> bool {
        self.waiters.load(Ordering::Relaxed) != 0
    }

    /// Routes one job on shard `shard`.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] while the published table is
    /// empty.
    ///
    /// # Panics
    /// If `shard >= shard_count()`.
    pub fn dispatch_on(&self, shard: usize) -> Result<Decision, RuntimeError> {
        self.shard(shard).dispatch()
    }

    /// Routes one job on the next shard in round-robin order — the
    /// drop-in replacement for a single mutex dispatcher when callers do
    /// not pin shards to workers. A single-threaded caller sees a
    /// deterministic shard sequence `0, 1, …, N-1, 0, …`.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] while the published table is
    /// empty.
    pub fn dispatch(&self) -> Result<Decision, RuntimeError> {
        self.dispatch_on(self.next_shard())
    }

    /// Claims the next shard in round-robin order (the selection
    /// [`dispatch`](Self::dispatch) uses); callers that need admission
    /// and dispatch on the *same* shard claim once and reuse the index.
    /// With one shard (the default) this is 0 without touching the
    /// shared counter, so the one-shard path makes no atomic
    /// read-modify-write here.
    #[must_use]
    pub fn next_shard(&self) -> usize {
        match self.shards.len() {
            1 => 0,
            n => self.round_robin.fetch_add(1, Ordering::Relaxed) % n,
        }
    }

    /// Total jobs routed, merged over all shards.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        (0..self.shards.len()).map(|k| self.lock(k).dispatched).sum()
    }

    /// Per-node hit counts merged over all shards, sorted by node id
    /// (nodes that were never hit are omitted). This is the read-side
    /// merge: shards never synchronize on the dispatch path, so the
    /// merge is a point-in-time sum.
    #[must_use]
    pub fn hit_counts(&self) -> Vec<(NodeId, u64)> {
        let mut merged: Vec<u64> = Vec::new();
        for k in 0..self.shards.len() {
            let core = self.lock(k);
            if core.hits.len() > merged.len() {
                merged.resize(core.hits.len(), 0);
            }
            for (m, &c) in merged.iter_mut().zip(&core.hits) {
                *m += c;
            }
        }
        merged
            .into_iter()
            .enumerate()
            .filter(|&(_, count)| count > 0)
            .map(|(raw, count)| (NodeId::from_raw(raw as u64), count))
            .collect()
    }

    /// The shared table slot (benchmarks, custom publish loops).
    #[must_use]
    pub fn table_handle(&self) -> Arc<EpochSwap<RoutingTable>> {
        Arc::clone(&self.table)
    }
}

/// Exclusive access to one shard. Routes on the table that was live
/// when the guard was taken (see [`ShardedDispatcher::shard`]).
#[derive(Debug)]
pub struct ShardGuard<'a> {
    core: MutexGuard<'a, ShardCore>,
    dispatcher: &'a ShardedDispatcher,
    shard: usize,
}

impl ShardGuard<'_> {
    /// Re-reads the shard's table if a publish has landed since the
    /// shard last looked: one atomic load when none has.
    /// [`ShardedDispatcher::shard`] calls it once, so a public guard
    /// pins its table; the trace driver calls it before every attempt
    /// on the guards it holds for a batch.
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

    /// The index of the shard this guard holds.
    pub(crate) fn index(&self) -> usize {
        self.shard
    }

    /// Routes one job on this shard, on the guard's table: one RNG draw,
    /// one O(1) alias lookup, one counter increment. With telemetry
    /// enabled, every [`ROUTE_SAMPLE_EVERY`]-th decision of this shard is
    /// additionally pushed to the event ring (the dispatch counter
    /// doubles as the sample clock, so sampling adds no per-dispatch
    /// state and no RNG draw).
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
        let telemetry = &self.dispatcher.telemetry;
        if core.dispatched & (ROUTE_SAMPLE_EVERY - 1) == 0 && telemetry.is_enabled() {
            telemetry.record_routed(self.shard, node, epoch);
        }
        Ok(Decision { node, epoch })
    }

    /// A uniform draw from this shard's [`ADMISSION_STREAM`] — a stream
    /// disjoint from the routing stream, so probabilistic admission stays
    /// deterministic per shard without perturbing the decision sequence.
    pub fn next_admission_draw(&mut self) -> f64 {
        self.core.admission_rng.next_open01()
    }

    /// Jobs routed by this shard so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.core.dispatched
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
    fn shard_zero_matches_the_unsharded_dispatcher() {
        // The single central dispatcher: seed 42's dispatch stream,
        // routed draw by draw through the table.
        let probs = [0.5, 0.3, 0.2];
        let reference = table(1, &probs);
        let mut rng = Xoshiro256PlusPlus::stream(42, DISPATCH_STREAM);
        let sharded = ShardedDispatcher::new(swap(&probs), 42, 4);
        let mut guard = sharded.shard(0);
        for _ in 0..256 {
            let expected = Decision { node: reference.route(rng.next_open01()), epoch: 1 };
            assert_eq!(guard.dispatch().unwrap(), expected);
        }
    }

    #[test]
    fn shards_draw_independent_streams() {
        let sharded = ShardedDispatcher::new(swap(&[0.5, 0.5]), 7, 2);
        let a: Vec<NodeId> = (0..128).map(|_| sharded.dispatch_on(0).unwrap().node).collect();
        let b: Vec<NodeId> = (0..128).map(|_| sharded.dispatch_on(1).unwrap().node).collect();
        assert_ne!(a, b, "distinct shards must not replay the same stream");
    }

    #[test]
    fn merged_sequence_is_reproducible_for_fixed_seed_and_shards() {
        let run = || {
            let sharded = ShardedDispatcher::new(swap(&[0.6, 0.4]), 99, 4);
            // Round-robin job placement: job j runs on shard j % 4.
            (0..1000).map(|j| sharded.dispatch_on(j % 4).unwrap().node).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merged_sequence_is_independent_of_execution_interleaving() {
        // Dispatch shard-by-shard (as parallel workers would, in some
        // arbitrary thread order) and compare against the round-robin
        // merge of a job-by-job run: per-shard streams make the merged
        // sequence a pure function of (seed, shard count, placement).
        let n_shards = 4usize;
        let jobs = 1024usize;
        let per_shard = jobs / n_shards;

        let sharded = ShardedDispatcher::new(swap(&[0.3, 0.3, 0.4]), 5, n_shards);
        let mut by_shard: Vec<Vec<NodeId>> = Vec::new();
        // Worst-case interleaving: entire shards run back to back, in
        // reverse order.
        for k in (0..n_shards).rev() {
            let mut guard = sharded.shard(k);
            by_shard.push((0..per_shard).map(|_| guard.dispatch().unwrap().node).collect());
        }
        by_shard.reverse(); // index by shard id again
        let merged: Vec<NodeId> = (0..jobs).map(|j| by_shard[j % n_shards][j / n_shards]).collect();

        let reference = ShardedDispatcher::new(swap(&[0.3, 0.3, 0.4]), 5, n_shards);
        let sequential: Vec<NodeId> =
            (0..jobs).map(|j| reference.dispatch_on(j % n_shards).unwrap().node).collect();
        assert_eq!(merged, sequential);
    }

    #[test]
    fn counters_merge_on_read() {
        let sharded = ShardedDispatcher::new(swap(&[0.8, 0.2]), 3, 3);
        for j in 0..3000usize {
            sharded.dispatch_on(j % 3).unwrap();
        }
        assert_eq!(sharded.dispatched(), 3000);
        let counts = sharded.hit_counts();
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3000);
        // Frequencies follow the table across the merge.
        let n0 = counts.iter().find(|&&(id, _)| id == NodeId::from_raw(0)).unwrap().1;
        let f0 = n0 as f64 / 3000.0;
        assert!((f0 - 0.8).abs() < 0.05, "merged frequency {f0} vs p 0.8");
    }

    #[test]
    fn round_robin_dispatch_covers_all_shards() {
        let sharded = ShardedDispatcher::new(swap(&[1.0]), 0, 4);
        for _ in 0..40 {
            sharded.dispatch().unwrap();
        }
        assert_eq!(sharded.dispatched(), 40);
        let per_shard: Vec<u64> = (0..4).map(|k| sharded.shard(k).dispatched()).collect();
        assert_eq!(per_shard, vec![10, 10, 10, 10]);
    }

    #[test]
    fn empty_table_fails_dispatch() {
        let slot = Arc::new(EpochSwap::new(RoutingTable::empty(0)));
        let sharded = ShardedDispatcher::new(slot, 1, 2);
        assert_eq!(sharded.dispatch(), Err(RuntimeError::NoServingNodes));
    }

    #[test]
    fn shards_follow_a_publish() {
        let slot = swap(&[1.0, 0.0]);
        let sharded = ShardedDispatcher::new(Arc::clone(&slot), 11, 2);
        for j in 0..20usize {
            assert_eq!(sharded.dispatch_on(j % 2).unwrap().node, NodeId::from_raw(0));
        }
        slot.publish(table(2, &[0.0, 1.0]));
        for j in 0..20usize {
            let d = sharded.dispatch_on(j % 2).unwrap();
            assert_eq!(d.node, NodeId::from_raw(1));
            assert_eq!(d.epoch, 2);
        }
    }

    #[test]
    fn guard_pins_the_snapshot_at_acquisition() {
        let slot = swap(&[1.0, 0.0]);
        let sharded = ShardedDispatcher::new(Arc::clone(&slot), 3, 1);
        let mut guard = sharded.shard(0);
        slot.publish(table(2, &[0.0, 1.0]));
        // The held guard keeps routing on the epoch-1 snapshot...
        for _ in 0..10 {
            let d = guard.dispatch().unwrap();
            assert_eq!((d.node, d.epoch), (NodeId::from_raw(0), 1));
        }
        drop(guard);
        // ...and a re-acquired guard observes the publish.
        let d = sharded.shard(0).dispatch().unwrap();
        assert_eq!((d.node, d.epoch), (NodeId::from_raw(1), 2));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedDispatcher::new(swap(&[1.0]), 0, 0);
    }
}

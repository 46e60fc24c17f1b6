//! Deterministic fault injection: scripted node failures the closed loop
//! can be driven through, reproducibly.
//!
//! A [`FaultPlan`] is a seeded script of per-node fault events on the
//! driver's virtual clock — crash, crash-and-recover, slow-node (degraded
//! `μ`), flaky (intermittent drops), asymmetric link partitions, and gray
//! failures. A fault that strikes several nodes at once is one event per
//! node at the same time. A [`FaultInjector`] evaluates the plan: "is
//! this node crashed at time `t`?", "by what factor is its service rate
//! degraded?", "does this particular dispatch (or heartbeat) drop?".
//!
//! ## The adversarial network model
//!
//! The original fault kinds assume a perfect star network: a node is
//! either reachable by everyone or by no one. Two kinds break that
//! symmetry:
//!
//! * **Asymmetric partitions** ([`FaultKind::Partition`]) cut exactly
//!   one direction of the link. With
//!   [`PartitionDirection::DropDispatch`] the node keeps heartbeating —
//!   the detector sees it Up — while every job dispatched to it drops;
//!   with [`PartitionDirection::DropHeartbeats`] dispatch works but the
//!   detector watches the node go silent. Detector and retry path are
//!   forced to disagree.
//! * **Gray failures** ([`FaultKind::Gray`]) inflate service times and
//!   drop a fraction of attempts while staying *below* the crash
//!   threshold — the degraded-but-Up state a fixed-threshold detector
//!   tuned for clean crashes misses.
//!
//! ## Determinism contract
//!
//! The crash/recover/slow/partition schedule is pure data — a
//! function of the plan alone, identical for every thread count. Randomness is confined to two disjoint stream
//! families of the plan seed:
//!
//! * flaky drop draws on [`FAULT_STREAM`]` + node id` (`0x0800`), the
//!   legacy family — its draw sequence is byte-identical to the
//!   pre-adversarial injector for any plan that schedules no gray
//!   faults;
//! * gray loss draws on [`ADVERSARIAL_STREAM`]` + node id` (`0x0B00`),
//!   a new family no other subsystem touches, so scheduling gray faults
//!   never perturbs dispatch (`0x0400`), admission (`0x0700`), the
//!   driver's arrival/service streams (`0x0500`/`0x0600`), retry
//!   backoff (`0x0900`), or the legacy flaky draws.
//!
//! Consequences: enabling a fault plan never perturbs the routing or
//! admission decision sequence of the jobs that don't hit a fault —
//! toggling faults off reproduces the fault-free trace bit for bit; and
//! per-node drop draws are consumed in attempt order, which the
//! single-threaded trace driver fixes, so a chaos trace is a pure
//! function of `(seed, plan)`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

use gtlb_desim::rng::Xoshiro256PlusPlus;

use crate::registry::{index_of, NodeId};

/// Base RNG stream id of the fault family: node `i`'s flaky-drop draws
/// come from stream `FAULT_STREAM + i` of the plan seed. Disjoint from
/// every routing/admission/driver/retry family, so chaos is
/// routing-invariant.
pub const FAULT_STREAM: u64 = 0x0800;

/// Base RNG stream id of the adversarial family: node `i`'s gray-loss
/// draws come from stream `ADVERSARIAL_STREAM + i` of the plan seed.
/// Disjoint from the legacy [`FAULT_STREAM`] family, so scheduling gray
/// faults never shifts a flaky draw sequence (and vice versa), and
/// legacy plans reproduce their traces bit for bit.
pub const ADVERSARIAL_STREAM: u64 = 0x0B00;

/// Which direction of a node's link an asymmetric partition cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionDirection {
    /// Dispatch to the node drops; heartbeats still get through. The
    /// detector keeps seeing the node Up while every job sent to it
    /// fails — the retry path, not the detector, must notice.
    DropDispatch,
    /// Heartbeats from the node drop; dispatch still works. The
    /// detector watches a perfectly healthy node go silent — a false
    /// demotion the probation path must recover from after heal.
    DropHeartbeats,
}

impl PartitionDirection {
    /// Stable label for logs and fingerprints.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::DropDispatch => "drop-dispatch",
            Self::DropHeartbeats => "drop-heartbeats",
        }
    }
}

impl fmt::Display for PartitionDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One kind of injected fault. Durations are in the driver's virtual
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node stops serving at the event time and never recovers:
    /// every attempt (job or heartbeat) against it drops.
    Crash,
    /// As [`FaultKind::Crash`], but the node comes back `down_for`
    /// seconds later.
    CrashRecover {
        /// How long the node stays dead.
        down_for: f64,
    },
    /// The node keeps serving but its service rate is scaled by `factor`
    /// (`0 < factor ≤ 1`) for `lasts` seconds — a brownout/overheat
    /// model the `μ̂` estimator should catch.
    Slow {
        /// Multiplier applied to the node's true service rate.
        factor: f64,
        /// Window length.
        lasts: f64,
    },
    /// Each attempt against the node independently drops with
    /// probability `drop_probability` for `lasts` seconds — the
    /// intermittent, hysteresis-exercising failure mode.
    Flaky {
        /// Per-attempt drop probability in `(0, 1]`.
        drop_probability: f64,
        /// Window length.
        lasts: f64,
    },
    /// Asymmetric link partition: for `lasts` seconds exactly one
    /// direction of the node's link is cut (see [`PartitionDirection`]).
    /// Pure data — partitions consume no randomness.
    Partition {
        /// Which direction drops.
        direction: PartitionDirection,
        /// Window length.
        lasts: f64,
    },
    /// Gray failure: for `lasts` seconds the node's service times are
    /// inflated by `inflation` (≥ 1) and each attempt independently
    /// drops with probability `loss_probability` (< 1, below the crash
    /// threshold). Loss draws come from the node's
    /// [`ADVERSARIAL_STREAM`] stream.
    Gray {
        /// Service-time multiplier (≥ 1); the service *rate* is scaled
        /// by its reciprocal.
        inflation: f64,
        /// Per-attempt loss probability in `[0, 1)`.
        loss_probability: f64,
        /// Window length.
        lasts: f64,
    },
}

/// One scheduled fault: `kind` strikes `node` at virtual time `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The victim.
    pub node: NodeId,
    /// Virtual time the fault begins.
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A fault-schedule milestone: the moment a partition opens or heals.
/// Pure data, derived from the plan at injector construction. No runtime
/// path reads them; [`FaultInjector::drain_markers`] hands them out for
/// the benchmark's job loop until that loop is retired.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMarker {
    /// Virtual time of the milestone.
    pub at: f64,
    /// What happened.
    pub kind: FaultMarkerKind,
}

/// What a [`FaultMarker`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultMarkerKind {
    /// An asymmetric partition opened on `node`.
    PartitionOpened {
        /// The partitioned node.
        node: NodeId,
        /// Which direction dropped.
        direction: PartitionDirection,
    },
    /// The partition on `node` healed.
    PartitionHealed {
        /// The healed node.
        node: NodeId,
        /// Which direction had dropped.
        direction: PartitionDirection,
    },
}

/// A seeded, scripted schedule of fault events. Build with the chaining
/// constructors; hand to [`FaultInjector::new`] (or
/// `TraceDriver::with_faults`) to enact.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

fn assert_time(at: f64, what: &str) {
    assert!(at.is_finite() && at >= 0.0, "fault plan: {what} must be finite and nonnegative");
}

fn assert_window(lasts: f64, what: &str) {
    assert!(lasts.is_finite() && lasts > 0.0, "fault plan: {what} window must be positive");
}

fn checked_slow(factor: f64, lasts: f64) -> FaultKind {
    assert_window(lasts, "slow");
    assert!(
        factor.is_finite() && factor > 0.0 && factor <= 1.0,
        "fault plan: slow factor must lie in (0, 1], got {factor}"
    );
    FaultKind::Slow { factor, lasts }
}

fn checked_flaky(drop_probability: f64, lasts: f64) -> FaultKind {
    assert_window(lasts, "flaky");
    assert!(
        drop_probability.is_finite() && drop_probability > 0.0 && drop_probability <= 1.0,
        "fault plan: drop probability must lie in (0, 1], got {drop_probability}"
    );
    FaultKind::Flaky { drop_probability, lasts }
}

fn checked_partition(direction: PartitionDirection, lasts: f64) -> FaultKind {
    assert_window(lasts, "partition");
    FaultKind::Partition { direction, lasts }
}

fn checked_gray(inflation: f64, loss_probability: f64, lasts: f64) -> FaultKind {
    assert_window(lasts, "gray");
    assert!(
        inflation.is_finite() && inflation >= 1.0,
        "fault plan: gray inflation must be ≥ 1, got {inflation}"
    );
    assert!(
        loss_probability.is_finite() && (0.0..1.0).contains(&loss_probability),
        "fault plan: gray loss probability must lie in [0, 1), got {loss_probability}"
    );
    assert!(
        inflation > 1.0 || loss_probability > 0.0,
        "fault plan: a gray fault must inflate service times or lose attempts"
    );
    FaultKind::Gray { inflation, loss_probability, lasts }
}

fn checked_crash_recover(down_for: f64) -> FaultKind {
    assert!(down_for.is_finite() && down_for > 0.0, "fault plan: down_for must be positive");
    FaultKind::CrashRecover { down_for }
}

fn fnv_fold(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold_kind(h: &mut u64, kind: &FaultKind) {
    match *kind {
        FaultKind::Crash => fnv_fold(h, 1),
        FaultKind::CrashRecover { down_for } => {
            fnv_fold(h, 2);
            fnv_fold(h, down_for.to_bits());
        }
        FaultKind::Slow { factor, lasts } => {
            fnv_fold(h, 3);
            fnv_fold(h, factor.to_bits());
            fnv_fold(h, lasts.to_bits());
        }
        FaultKind::Flaky { drop_probability, lasts } => {
            fnv_fold(h, 4);
            fnv_fold(h, drop_probability.to_bits());
            fnv_fold(h, lasts.to_bits());
        }
        FaultKind::Partition { direction, lasts } => {
            fnv_fold(h, 5);
            fnv_fold(
                h,
                match direction {
                    PartitionDirection::DropDispatch => 0,
                    PartitionDirection::DropHeartbeats => 1,
                },
            );
            fnv_fold(h, lasts.to_bits());
        }
        FaultKind::Gray { inflation, loss_probability, lasts } => {
            fnv_fold(h, 6);
            fnv_fold(h, inflation.to_bits());
            fnv_fold(h, loss_probability.to_bits());
            fnv_fold(h, lasts.to_bits());
        }
    }
}

impl FaultPlan {
    /// An empty plan whose flaky and gray draws (if any are scheduled
    /// later) come from the [`FAULT_STREAM`] / [`ADVERSARIAL_STREAM`]
    /// families of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed, events: Vec::new() }
    }

    /// Schedules a permanent crash of `node` at time `at`.
    ///
    /// # Panics
    /// If `at` is negative or non-finite.
    #[must_use]
    pub fn crash(mut self, node: NodeId, at: f64) -> Self {
        assert_time(at, "crash time");
        self.events.push(FaultEvent { node, at, kind: FaultKind::Crash });
        self
    }

    /// Schedules a crash of `node` at `at` that heals `down_for` seconds
    /// later.
    ///
    /// # Panics
    /// If `at` or `down_for` is invalid (`down_for` must be positive).
    #[must_use]
    pub fn crash_recover(mut self, node: NodeId, at: f64, down_for: f64) -> Self {
        assert_time(at, "crash time");
        let kind = checked_crash_recover(down_for);
        self.events.push(FaultEvent { node, at, kind });
        self
    }

    /// Schedules a slow-node window: `node`'s service rate is multiplied
    /// by `factor` on `[at, at + lasts)`.
    ///
    /// # Panics
    /// If `factor` is outside `(0, 1]` or a time is invalid.
    #[must_use]
    pub fn slow(mut self, node: NodeId, at: f64, lasts: f64, factor: f64) -> Self {
        assert_time(at, "slow-window start");
        let kind = checked_slow(factor, lasts);
        self.events.push(FaultEvent { node, at, kind });
        self
    }

    /// Schedules a flaky window: attempts against `node` drop with
    /// probability `drop_probability` on `[at, at + lasts)`.
    ///
    /// # Panics
    /// If `drop_probability` is outside `(0, 1]` or a time is invalid.
    #[must_use]
    pub fn flaky(mut self, node: NodeId, at: f64, lasts: f64, drop_probability: f64) -> Self {
        assert_time(at, "flaky-window start");
        let kind = checked_flaky(drop_probability, lasts);
        self.events.push(FaultEvent { node, at, kind });
        self
    }

    /// Schedules an asymmetric partition of `node` on `[at, at + lasts)`:
    /// exactly one link direction drops (see [`PartitionDirection`]).
    ///
    /// # Panics
    /// If a time is invalid.
    #[must_use]
    pub fn partition(
        mut self,
        node: NodeId,
        at: f64,
        lasts: f64,
        direction: PartitionDirection,
    ) -> Self {
        assert_time(at, "partition start");
        let kind = checked_partition(direction, lasts);
        self.events.push(FaultEvent { node, at, kind });
        self
    }

    /// Schedules a gray failure of `node` on `[at, at + lasts)`: service
    /// times inflate by `inflation` (≥ 1) and attempts drop with
    /// probability `loss_probability` (< 1).
    ///
    /// # Panics
    /// If `inflation < 1`, `loss_probability` is outside `[0, 1)`, both
    /// are no-ops, or a time is invalid.
    #[must_use]
    pub fn gray(
        mut self,
        node: NodeId,
        at: f64,
        lasts: f64,
        inflation: f64,
        loss_probability: f64,
    ) -> Self {
        assert_time(at, "gray-window start");
        let kind = checked_gray(inflation, loss_probability, lasts);
        self.events.push(FaultEvent { node, at, kind });
        self
    }

    /// The plan seed (flaky draws use its [`FAULT_STREAM`] family, gray
    /// loss draws its [`ADVERSARIAL_STREAM`] family).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled per-node events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a fingerprint of the schedule (seed + every event, payloads
    /// included — two plans differing only in a partition direction
    /// hash differently). Because the schedule is pure data, this
    /// fingerprint is invariant across thread counts; the chaos trace
    /// fingerprint of `tests/fingerprints.rs` folds it in.
    #[must_use]
    pub fn schedule_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        fnv_fold(&mut h, self.seed);
        for e in &self.events {
            fnv_fold(&mut h, e.node.raw());
            fnv_fold(&mut h, e.at.to_bits());
            fold_kind(&mut h, &e.kind);
        }
        h
    }

    /// The milestones the plan implies, sorted by time: each partition's
    /// open and heal edges.
    fn markers(&self) -> Vec<FaultMarker> {
        let mut out = Vec::new();
        for e in &self.events {
            if let FaultKind::Partition { direction, lasts } = e.kind {
                let node = e.node;
                out.push(FaultMarker {
                    at: e.at,
                    kind: FaultMarkerKind::PartitionOpened { node, direction },
                });
                out.push(FaultMarker {
                    at: e.at + lasts,
                    kind: FaultMarkerKind::PartitionHealed { node, direction },
                });
            }
        }
        out.sort_by(|a, b| a.at.total_cmp(&b.at));
        out
    }
}

/// Which step of the dispatch-drop decision procedure dropped an
/// attempt (see [`FaultInjector::dispatch_drop_cause`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The node is crashed.
    Crash,
    /// An active dispatch-cutting asymmetric partition.
    Partition,
    /// A flaky-window draw on the node's [`FAULT_STREAM`] stream.
    Flaky,
    /// A gray-loss draw on the node's [`ADVERSARIAL_STREAM`] stream.
    Gray,
}

/// The faults active on one node at one instant: the node's slice of
/// the plan folded once, so every query about that instant is answered
/// from one pass over the node's own events.
#[derive(Debug, Clone, Copy)]
struct ActiveFaults {
    crashed: bool,
    drop_dispatch: bool,
    drop_heartbeats: bool,
    /// Maximum over the active flaky windows.
    flaky: f64,
    /// Maximum over the active gray windows.
    gray_loss: f64,
    /// Product of the active slow factors and gray `1 / inflation`s, in
    /// slice order.
    service_factor: f64,
}

impl ActiveFaults {
    const NONE: Self = Self {
        crashed: false,
        drop_dispatch: false,
        drop_heartbeats: false,
        flaky: 0.0,
        gray_loss: 0.0,
        service_factor: 1.0,
    };

    /// Folds `events` (one node's events, in insertion order) at time
    /// `t`. The multiplication order is the slice order, so
    /// `service_factor` is bit-identical to a product over the plan's
    /// events filtered to the node.
    ///
    /// Also returns the window `[lo, hi)` around `t` on which the fold
    /// cannot change: `lo` is the latest edge at or before `t`
    /// (`f64::MIN` when there is none) and `hi` the earliest edge after
    /// it (`+∞` when there is none), where the edges are each event's
    /// `at` and its end `at + lasts` (or `at + down_for`), the very
    /// values the window tests compare `t` with. Every edge lies at or
    /// below `lo` or at or above `hi`, so every test, and with it every
    /// field of the fold, answers alike for all times in the window. A
    /// NaN or infinite `t` lies outside its own window.
    fn fold(events: &[(f64, FaultKind)], t: f64) -> (Self, f64, f64) {
        let mut a = Self::NONE;
        let (mut lo, mut hi) = (f64::MIN, f64::INFINITY);
        let mut edge = |e: f64| {
            if e <= t {
                lo = lo.max(e);
            } else {
                hi = hi.min(e);
            }
        };
        for &(at, kind) in events {
            edge(at);
            let mut within = |lasts: f64| {
                let end = at + lasts;
                edge(end);
                t >= at && t < end
            };
            // Every windowed kind calls `within` in its guard, so its
            // end is an edge whether or not the window holds `t`.
            match kind {
                FaultKind::Crash => a.crashed |= t >= at,
                FaultKind::CrashRecover { down_for } => a.crashed |= within(down_for),
                FaultKind::Slow { factor, lasts } if within(lasts) => a.service_factor *= factor,
                FaultKind::Flaky { drop_probability, lasts } if within(lasts) => {
                    a.flaky = a.flaky.max(drop_probability);
                }
                FaultKind::Partition { direction, lasts } if within(lasts) => match direction {
                    PartitionDirection::DropDispatch => a.drop_dispatch = true,
                    PartitionDirection::DropHeartbeats => a.drop_heartbeats = true,
                },
                FaultKind::Gray { inflation, loss_probability, lasts } if within(lasts) => {
                    a.service_factor *= 1.0 / inflation;
                    a.gray_loss = a.gray_loss.max(loss_probability);
                }
                _ => {}
            }
        }
        (a, lo, hi)
    }

    fn partitioned(&self, direction: PartitionDirection) -> bool {
        match direction {
            PartitionDirection::DropDispatch => self.drop_dispatch,
            PartitionDirection::DropHeartbeats => self.drop_heartbeats,
        }
    }
}

/// A slot's last fold and the window `[lo, hi)` it holds on (see
/// [`ActiveFaults::fold`]).
#[derive(Debug, Clone, Copy)]
struct Cached {
    active: ActiveFaults,
    lo: f64,
    hi: f64,
}

impl Cached {
    /// Holds on no time at all.
    const EMPTY: Self =
        Self { active: ActiveFaults::NONE, lo: f64::INFINITY, hi: f64::NEG_INFINITY };
}

/// One indexed node: its events in insertion order, its last fold, and
/// its drop streams, seeded on first draw.
#[derive(Debug)]
struct NodeSlot {
    events: Box<[(f64, FaultKind)]>,
    cached: Cell<Cached>,
    flaky_rng: Option<Xoshiro256PlusPlus>,
    gray_rng: Option<Xoshiro256PlusPlus>,
}

/// Draws once from `rng` (seeding it on first use) when `p > 0`.
fn draw(rng: &mut Option<Xoshiro256PlusPlus>, seed: u64, stream: u64, p: f64) -> bool {
    p > 0.0 && rng.get_or_insert_with(|| Xoshiro256PlusPlus::stream(seed, stream)).next_open01() < p
}

/// Evaluates a [`FaultPlan`] against the virtual clock. Stateless for
/// crash/slow/partition queries; flaky and gray drop draws advance the
/// per-node fault streams (hence `&mut` on
/// [`FaultInjector::dispatch_drop_cause`] /
/// [`FaultInjector::heartbeat_drops`]).
///
/// Construction indexes the plan by node once: every node the plan
/// touches gets one contiguous slice holding its events in insertion
/// order. A query finds the node's slot in the sorted ids, first at the
/// index of the id's value (one compare when the plan names every node
/// from 0) and by binary search before it otherwise, and folds that one
/// slice, so its cost does not grow with the size of the plan or the
/// cluster. The index is keyed by [`NodeId`], never by the raw id
/// value, so a plan may name any id.
///
/// Each slot keeps its last fold and the window around its time in
/// which none of the slot's events opens or closes; a query inside that
/// window returns the kept fold, which equals a fresh one bit for bit.
/// Query times need not be monotone. The queries take `&self` and keep
/// the fold in a [`Cell`], so an injector is `Send` but not `Sync`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Every node with at least one applicable event, ascending.
    ids: Vec<NodeId>,
    /// `slots[i]` belongs to `ids[i]`.
    slots: Vec<NodeSlot>,
    markers: Vec<FaultMarker>,
    marker_cursor: usize,
}

impl FaultInjector {
    /// An injector enacting `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let markers = plan.markers();
        let mut per_node: BTreeMap<NodeId, Vec<(f64, FaultKind)>> = BTreeMap::new();
        for e in &plan.events {
            per_node.entry(e.node).or_default().push((e.at, e.kind));
        }
        let mut ids = Vec::with_capacity(per_node.len());
        let mut slots = Vec::with_capacity(per_node.len());
        for (node, events) in per_node {
            ids.push(node);
            slots.push(NodeSlot {
                events: events.into(),
                cached: Cell::new(Cached::EMPTY),
                flaky_rng: None,
                gray_rng: None,
            });
        }
        Self { plan, ids, slots, markers, marker_cursor: 0 }
    }

    /// The plan being enacted.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn slot(&self, node: NodeId) -> Option<usize> {
        index_of(&self.ids, node, |&id| id)
    }

    /// The faults active on `slot` at `t`: the kept fold when `t` lies in
    /// its window, otherwise a fresh fold, kept when its window holds
    /// `t` (never for a NaN or infinite `t`).
    fn active_at(&self, slot: usize, t: f64) -> ActiveFaults {
        let slot = &self.slots[slot];
        let cached = slot.cached.get();
        if cached.lo <= t && t < cached.hi {
            return cached.active;
        }
        let (active, lo, hi) = ActiveFaults::fold(&slot.events, t);
        if lo <= t && t < hi {
            slot.cached.set(Cached { active, lo, hi });
        }
        active
    }

    fn active(&self, node: NodeId, t: f64) -> ActiveFaults {
        self.slot(node).map_or(ActiveFaults::NONE, |i| self.active_at(i, t))
    }

    /// Whether `node` is dead at time `t` (inside a crash, or a
    /// crash-recover window that has not healed yet).
    #[must_use]
    pub fn crashed(&self, node: NodeId, t: f64) -> bool {
        self.active(node, t).crashed
    }

    /// Whether an asymmetric partition cutting `direction` is active on
    /// `node` at `t`. Pure data — consumes no randomness.
    #[must_use]
    pub fn partitioned(&self, node: NodeId, t: f64, direction: PartitionDirection) -> bool {
        self.active(node, t).partitioned(direction)
    }

    /// The service-rate multiplier active on `node` at `t`: the product
    /// of all overlapping slow windows and gray inflations (each gray
    /// window contributes `1 / inflation`), `1.0` when none.
    #[must_use]
    pub fn service_factor(&self, node: NodeId, t: f64) -> f64 {
        self.active(node, t).service_factor
    }

    /// The per-attempt drop probability active on `node` at `t` from the
    /// legacy kinds (the maximum over overlapping flaky windows; `1.0`
    /// while crashed). Gray loss is reported separately by
    /// [`FaultInjector::gray_loss_probability`] because it draws from a
    /// different stream.
    #[must_use]
    pub fn drop_probability(&self, node: NodeId, t: f64) -> f64 {
        let active = self.active(node, t);
        if active.crashed {
            1.0
        } else {
            active.flaky
        }
    }

    /// The per-attempt gray loss probability active on `node` at `t`
    /// (the maximum over overlapping gray windows).
    #[must_use]
    pub fn gray_loss_probability(&self, node: NodeId, t: f64) -> f64 {
        self.active(node, t).gray_loss
    }

    /// Decides one dispatch attempt against `node` at time `t`: `Some`
    /// names the step that dropped it, so the tracing layer can label
    /// attempt outcomes without perturbing a single RNG draw.
    /// Deterministic draw-order contract, per attempt: (1) crashed nodes
    /// drop everything without consuming randomness; (2) an active
    /// dispatch-cutting partition drops everything, also without
    /// randomness; (3) an active flaky window draws from the node's
    /// [`FAULT_STREAM`] stream — byte-identical to the legacy injector;
    /// (4) an active gray window draws from the node's
    /// [`ADVERSARIAL_STREAM`] stream. A step that fires short-circuits
    /// the later ones.
    pub fn dispatch_drop_cause(&mut self, node: NodeId, t: f64) -> Option<DropCause> {
        self.attempt_drop(node, t, PartitionDirection::DropDispatch)
    }

    /// Decides one heartbeat attempt against `node` at time `t`: same
    /// contract as [`FaultInjector::dispatch_drop_cause`] — sharing the flaky
    /// and gray streams with dispatch, in attempt order — except step
    /// (2) tests for a *heartbeat*-cutting partition.
    pub fn heartbeat_drops(&mut self, node: NodeId, t: f64) -> bool {
        self.attempt_drop(node, t, PartitionDirection::DropHeartbeats).is_some()
    }

    /// Drains the fault markers scheduled at or before `upto`, in time
    /// order, each at most once. O(1) when no adversarial faults are
    /// scheduled. Kept for the benchmark's job loop, which times it,
    /// until that loop is retired: the runtime itself drains none.
    pub fn drain_markers(&mut self, upto: f64) -> Vec<FaultMarker> {
        let start = self.marker_cursor;
        let mut end = start;
        while end < self.markers.len() && self.markers[end].at <= upto {
            end += 1;
        }
        self.marker_cursor = end;
        self.markers[start..end].to_vec()
    }

    /// The decision procedure behind dispatch and heartbeat attempts;
    /// `cut` names the link direction whose partition drops this kind
    /// of attempt.
    fn attempt_drop(&mut self, node: NodeId, t: f64, cut: PartitionDirection) -> Option<DropCause> {
        let i = self.slot(node)?;
        let active = self.active_at(i, t);
        if active.crashed {
            return Some(DropCause::Crash);
        }
        if active.partitioned(cut) {
            return Some(DropCause::Partition);
        }
        let seed = self.plan.seed;
        let slot = &mut self.slots[i];
        if draw(&mut slot.flaky_rng, seed, FAULT_STREAM.wrapping_add(node.raw()), active.flaky) {
            return Some(DropCause::Flaky);
        }
        let gray = ADVERSARIAL_STREAM.wrapping_add(node.raw());
        draw(&mut slot.gray_rng, seed, gray, active.gray_loss).then_some(DropCause::Gray)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(raw: u64) -> NodeId {
        NodeId::from_raw(raw)
    }

    impl FaultInjector {
        fn no_stream_seeded(&self) -> bool {
            self.slots.iter().all(|s| s.flaky_rng.is_none() && s.gray_rng.is_none())
        }
    }

    #[test]
    fn crash_is_permanent_and_crash_recover_heals() {
        let plan = FaultPlan::new(1).crash(node(0), 10.0).crash_recover(node(1), 5.0, 3.0);
        let inj = FaultInjector::new(plan);
        assert!(!inj.crashed(node(0), 9.9));
        assert!(inj.crashed(node(0), 10.0));
        assert!(inj.crashed(node(0), 1e9));
        assert!(!inj.crashed(node(1), 4.9));
        assert!(inj.crashed(node(1), 5.0));
        assert!(inj.crashed(node(1), 7.9));
        assert!(!inj.crashed(node(1), 8.0), "recovered");
        assert!(!inj.crashed(node(2), 50.0), "bystander untouched");
    }

    #[test]
    fn slow_windows_scale_and_compose() {
        let plan = FaultPlan::new(2).slow(node(0), 2.0, 4.0, 0.5).slow(node(0), 4.0, 4.0, 0.5);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.service_factor(node(0), 1.0), 1.0);
        assert_eq!(inj.service_factor(node(0), 3.0), 0.5);
        assert_eq!(inj.service_factor(node(0), 5.0), 0.25, "overlap multiplies");
        assert_eq!(inj.service_factor(node(0), 7.0), 0.5);
        assert_eq!(inj.service_factor(node(0), 8.0), 1.0);
        assert_eq!(inj.service_factor(node(1), 3.0), 1.0);
    }

    #[test]
    fn flaky_drops_at_the_configured_rate() {
        let plan = FaultPlan::new(3).flaky(node(0), 0.0, 1e6, 0.3);
        let mut inj = FaultInjector::new(plan);
        let drops = (0..10_000).filter(|_| inj.dispatch_drop_cause(node(0), 1.0).is_some()).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate} vs p 0.3");
        // Outside the window (or for other nodes) nothing drops and no
        // randomness is consumed.
        assert!(inj.dispatch_drop_cause(node(1), 1.0).is_none());
    }

    #[test]
    fn flaky_draw_sequence_is_reproducible_and_per_node() {
        let run = |probe_other: bool| {
            let plan =
                FaultPlan::new(9).flaky(node(0), 0.0, 100.0, 0.5).flaky(node(1), 0.0, 100.0, 0.5);
            let mut inj = FaultInjector::new(plan);
            (0..64)
                .map(|k| {
                    if probe_other {
                        // Interleave draws on node 1; node 0's sequence
                        // must not shift.
                        let _ = inj.dispatch_drop_cause(node(1), k as f64);
                    }
                    inj.dispatch_drop_cause(node(0), k as f64)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true), "per-node streams are independent");
    }

    #[test]
    fn crashed_attempts_drop_without_consuming_draws() {
        let plan = FaultPlan::new(4).crash(node(0), 0.0).flaky(node(0), 0.0, 100.0, 0.5);
        let mut inj = FaultInjector::new(plan);
        for _ in 0..16 {
            assert_eq!(inj.dispatch_drop_cause(node(0), 1.0), Some(DropCause::Crash));
        }
        assert!(inj.no_stream_seeded(), "crash short-circuits the flaky draw");
        assert_eq!(inj.drop_probability(node(0), 1.0), 1.0);
    }

    #[test]
    fn partition_cuts_exactly_one_direction() {
        let plan = FaultPlan::new(5)
            .partition(node(0), 10.0, 5.0, PartitionDirection::DropDispatch)
            .partition(node(1), 10.0, 5.0, PartitionDirection::DropHeartbeats);
        let mut inj = FaultInjector::new(plan);
        // Dispatch-cut: jobs drop, heartbeats pass.
        assert_eq!(inj.dispatch_drop_cause(node(0), 12.0), Some(DropCause::Partition));
        assert!(!inj.heartbeat_drops(node(0), 12.0));
        // Heartbeat-cut: the mirror.
        assert!(inj.dispatch_drop_cause(node(1), 12.0).is_none());
        assert!(inj.heartbeat_drops(node(1), 12.0));
        // Outside the window nothing drops; partitions are pure data.
        assert!(inj.dispatch_drop_cause(node(0), 9.9).is_none());
        assert!(inj.dispatch_drop_cause(node(0), 15.0).is_none());
        assert!(inj.no_stream_seeded(), "no draws consumed");
        assert!(!inj.crashed(node(0), 12.0), "partitioned is not crashed");
    }

    #[test]
    fn gray_inflates_service_and_loses_attempts() {
        let plan = FaultPlan::new(6).gray(node(0), 0.0, 1e6, 2.0, 0.25);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.service_factor(node(0), 1.0), 0.5, "inflation 2 halves the rate");
        assert_eq!(inj.gray_loss_probability(node(0), 1.0), 0.25);
        assert_eq!(inj.drop_probability(node(0), 1.0), 0.0, "gray is not flaky");
        let drops = (0..10_000).filter(|_| inj.dispatch_drop_cause(node(0), 1.0).is_some()).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate} vs p 0.25");
        assert!(
            inj.slots.iter().all(|s| s.flaky_rng.is_none()),
            "gray draws never touch the legacy stream"
        );
    }

    #[test]
    fn gray_draws_leave_the_flaky_stream_untouched() {
        let run = |with_gray: bool| {
            let mut plan = FaultPlan::new(11).flaky(node(0), 0.0, 100.0, 0.5);
            if with_gray {
                plan = plan.gray(node(1), 0.0, 100.0, 1.5, 0.5);
            }
            let mut inj = FaultInjector::new(plan);
            (0..64)
                .map(|k| {
                    if with_gray {
                        let _ = inj.dispatch_drop_cause(node(1), k as f64);
                    }
                    inj.dispatch_drop_cause(node(0), k as f64)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true), "0x0B00 draws never perturb 0x0800");
    }

    #[test]
    fn markers_drain_in_time_order_once() {
        let plan = FaultPlan::new(14)
            .partition(node(0), 10.0, 5.0, PartitionDirection::DropDispatch)
            .partition(node(1), 12.0, 10.0, PartitionDirection::DropHeartbeats)
            .crash(node(2), 11.0);
        let mut inj = FaultInjector::new(plan);
        let early = inj.drain_markers(11.0);
        assert_eq!(early.len(), 1, "a crash is no marker");
        assert!(matches!(
            early[0].kind,
            FaultMarkerKind::PartitionOpened { direction: PartitionDirection::DropDispatch, .. }
        ));
        let late = inj.drain_markers(100.0);
        let at: Vec<f64> = late.iter().map(|m| m.at).collect();
        assert_eq!(at, [12.0, 15.0, 22.0], "open, heal, heal, each once, in time order");
        assert!(matches!(
            late[0].kind,
            FaultMarkerKind::PartitionOpened { direction: PartitionDirection::DropHeartbeats, .. }
        ));
        assert!(matches!(late[1].kind, FaultMarkerKind::PartitionHealed { .. }));
        assert!(inj.drain_markers(1e9).is_empty(), "cursor never rewinds");
    }

    #[test]
    fn schedule_fingerprint_is_stable_and_sensitive() {
        let a = FaultPlan::new(7).crash(node(0), 10.0).slow(node(1), 2.0, 3.0, 0.5);
        let b = FaultPlan::new(7).crash(node(0), 10.0).slow(node(1), 2.0, 3.0, 0.5);
        assert_eq!(a.schedule_fingerprint(), b.schedule_fingerprint());
        let c = FaultPlan::new(7).crash(node(0), 10.5).slow(node(1), 2.0, 3.0, 0.5);
        assert_ne!(a.schedule_fingerprint(), c.schedule_fingerprint());
        let d = FaultPlan::new(8).crash(node(0), 10.0).slow(node(1), 2.0, 3.0, 0.5);
        assert_ne!(a.schedule_fingerprint(), d.schedule_fingerprint());
        assert!(FaultPlan::new(0).is_empty());
        assert_eq!(a.events().len(), 2);
        assert_eq!(a.seed(), 7);
    }

    #[test]
    fn schedule_fingerprint_folds_adversarial_payloads() {
        let mk = |d: PartitionDirection| FaultPlan::new(7).partition(node(0), 10.0, 5.0, d);
        assert_ne!(
            mk(PartitionDirection::DropDispatch).schedule_fingerprint(),
            mk(PartitionDirection::DropHeartbeats).schedule_fingerprint(),
            "direction is folded"
        );
        let gray = |inflation: f64, loss: f64| {
            FaultPlan::new(7).gray(node(0), 1.0, 2.0, inflation, loss).schedule_fingerprint()
        };
        assert_ne!(gray(1.5, 0.1), gray(2.5, 0.1), "inflation is folded");
        assert_ne!(gray(1.5, 0.1), gray(1.5, 0.2), "loss probability is folded");
        // The same event on another node, or at another time, must not
        // collide.
        let at = |n: u64, t: f64| FaultPlan::new(7).crash(node(n), t).schedule_fingerprint();
        assert_ne!(at(0, 5.0), at(1, 5.0), "the node is folded");
        assert_ne!(at(0, 5.0), at(0, 6.0), "the time is folded");
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn flaky_rejects_bad_probability() {
        let _ = FaultPlan::new(0).flaky(node(0), 0.0, 1.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "slow factor")]
    fn slow_rejects_bad_factor() {
        let _ = FaultPlan::new(0).slow(node(0), 0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "gray inflation")]
    fn gray_rejects_deflation() {
        let _ = FaultPlan::new(0).gray(node(0), 0.0, 1.0, 0.5, 0.1);
    }

    #[test]
    #[should_panic(expected = "inflate service times or lose attempts")]
    fn gray_rejects_the_noop() {
        let _ = FaultPlan::new(0).gray(node(0), 0.0, 1.0, 1.0, 0.0);
    }
}

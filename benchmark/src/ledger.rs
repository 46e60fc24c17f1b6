//! The span ledger of the traced run.
//!
//! The benchmark wraps each call into a layer of the program in a span:
//! the layer's name, start and end on a monotonic clock, the span that
//! caused it and the job (or request) it belongs to. Self time — a span's
//! duration minus the part its child spans cover — is folded into one
//! accumulator per layer as spans close, so a long run needs no memory
//! per span; the first [`KEEP_SPANS`] spans are also kept verbatim and
//! written out at exit.
//!
//! A span's own bookkeeping costs about as much as the cheapest calls it
//! wraps, so [`Ledger::self_ns`] subtracts it: the part inside a span's
//! own window from every span, the rest from its parent once per child.
//! [`Ledger::calibrate`] measures both parts on empty spans in a tight
//! loop. [`Ledger::fit_overhead`] then refits them to the workload
//! itself: the inside part from one empty span recorded per operation,
//! the whole cost from the traced run's time per operation minus the
//! untraced run's, per span.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim for the span file.
pub const KEEP_SPANS: usize = 100_000;

/// A layer of the program, as the benchmark attributes cost to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole job or request: the parent of every other span.
    Op,
    /// The trace driver's own work: arrival and service draws, the
    /// next-free bookkeeping and the per-node maps.
    Driver,
    /// `submit_on`: round-robin shard claim, admission draw and route.
    Shard,
    /// `FaultInjector` lookups.
    Fault,
    /// Backoff draw and `RetryPolicy::backoff`.
    Retry,
    /// `observe_success` / `observe_failure`.
    Detector,
    /// `record_arrival` / `record_service`.
    Estimator,
    /// `resolve_now`.
    Resolver,
    /// `Telemetry::record_*` and `set_clock`.
    Telemetry,
    /// `Tracer::begin`, span pushes and `Tracer::finish`.
    Tracing,
    /// `RequestReader::next_request`.
    HttpParse,
    /// `Response::write_to`.
    HttpWrite,
    /// `router::route` for a heartbeat.
    RouteHeartbeat,
    /// `router::route` for a `/v1/metrics` POST.
    RouteMetrics,
    /// `router::route` for another agent request (registration).
    RouteOther,
    /// `router::route` for `GET /metrics`.
    RouteMetricsText,
    /// `router::route` for `GET /nodes`.
    RouteNodes,
    /// `ControlPlaneHooks::heartbeat`, called on its own.
    HooksHeartbeat,
    /// `ControlPlaneHooks::record_service`, called on its own.
    HooksService,
    /// `ControlPlaneHooks::set_node_rate` at an unchanged rate, called
    /// on its own: the reweight publish of a rate update.
    HooksReweight,
    /// `ControlPlaneHooks::nodes`, called on its own.
    HooksNodes,
    /// `Runtime::telemetry_snapshot`, called on its own.
    Snapshot,
    /// `Snapshot::to_prometheus`, called on its own.
    Render,
    /// An empty span, one per operation: the span cost in context.
    Empty,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = Layer::Empty as usize + 1;

impl Layer {
    /// The span name written to the span file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Op => "op",
            Self::Driver => "driver",
            Self::Shard => "shard",
            Self::Fault => "fault",
            Self::Retry => "retry",
            Self::Detector => "detector",
            Self::Estimator => "estimator",
            Self::Resolver => "resolver",
            Self::Telemetry => "telemetry",
            Self::Tracing => "tracing",
            Self::HttpParse => "net.http.parse",
            Self::HttpWrite => "net.http.write",
            Self::RouteHeartbeat => "net.router.heartbeat",
            Self::RouteMetrics => "net.router.metrics",
            Self::RouteOther => "net.router.other",
            Self::RouteMetricsText => "net.router.metrics_text",
            Self::RouteNodes => "net.router.nodes",
            Self::HooksHeartbeat => "control.heartbeat",
            Self::HooksService => "control.record_service",
            Self::HooksReweight => "control.set_node_rate",
            Self::HooksNodes => "control.nodes",
            Self::Snapshot => "telemetry.snapshot",
            Self::Render => "telemetry.render",
            Self::Empty => "empty",
        }
    }

    /// Calls made only to split a parent's time, which the untraced
    /// run never makes: they count in no sum against end-to-end time.
    #[must_use]
    pub fn is_isolated(self) -> bool {
        matches!(
            self,
            Self::HooksHeartbeat
                | Self::HooksService
                | Self::HooksReweight
                | Self::HooksNodes
                | Self::Snapshot
                | Self::Render
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    raw_self_ns: u64,
    children: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    layer: Layer,
    id: u32,
    parent: u32,
    start: u64,
    child_ns: u64,
    children: u32,
}

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    id: u32,
    parent: u32,
    job: u64,
    layer: Layer,
    start: u64,
    end: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// Span recorder with per-layer self-time accumulators. A disabled
/// ledger records nothing and costs one branch per call.
#[derive(Debug)]
pub struct Ledger {
    on: bool,
    origin: Instant,
    stack: Vec<Frame>,
    agg: [Agg; LAYERS],
    kept: Vec<SpanRec>,
    next_id: u32,
    job: u64,
    /// Mean measured duration of an empty span (ns).
    empty_ns: f64,
    /// Mean wall cost of recording one empty span (ns).
    span_cost_ns: f64,
    /// Wall time spent inside isolated spans, bookkeeping included.
    isolated_wall_ns: u64,
}

impl Ledger {
    /// A ledger that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording ledger, calibrated against empty spans.
    #[must_use]
    pub fn on() -> Self {
        let mut ledger = Self::new(true);
        ledger.calibrate();
        ledger
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            agg: [Agg::default(); LAYERS],
            kept: Vec::new(),
            next_id: 0,
            job: 0,
            empty_ns: 0.0,
            span_cost_ns: 0.0,
            isolated_wall_ns: 0,
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Measures the cost of an empty span: its mean recorded duration,
    /// and the mean wall time one costs its parent. Takes the smallest
    /// of several rounds, then clears every accumulator.
    pub fn calibrate(&mut self) {
        const PAIRS: u32 = 200_000;
        let (mut best_empty, mut best_cost) = (f64::MAX, f64::MAX);
        for _ in 0..5 {
            let before = self.agg[Layer::Op as usize];
            let t0 = Instant::now();
            for _ in 0..PAIRS {
                self.open(Layer::Op);
                self.close();
            }
            let wall = t0.elapsed().as_nanos() as f64 / f64::from(PAIRS);
            let after = self.agg[Layer::Op as usize];
            let empty = (after.raw_self_ns - before.raw_self_ns) as f64 / f64::from(PAIRS);
            best_empty = best_empty.min(empty);
            best_cost = best_cost.min(wall);
        }
        self.empty_ns = best_empty;
        self.span_cost_ns = best_cost.max(best_empty);
        self.agg = [Agg::default(); LAYERS];
        self.kept.clear();
        self.next_id = 0;
    }

    /// Refits the span cost to the workload: the in-window part to the
    /// mean of the [`Layer::Empty`] spans recorded so far, the whole cost
    /// to `spans` spans having added `traced_ns − untraced_ns`. Keeps
    /// the calibration where either fit is not positive.
    pub fn fit_overhead(&mut self, spans: u64, traced_ns: f64, untraced_ns: f64) {
        let empty = self.agg[Layer::Empty as usize];
        if empty.count > 0 {
            self.empty_ns = empty.raw_self_ns as f64 / empty.count as f64;
        }
        let per_span = (traced_ns - untraced_ns) / spans.max(1) as f64;
        if per_span > 0.0 {
            self.span_cost_ns = per_span.max(self.empty_ns);
        }
    }

    /// Records one empty span: a sample of the span cost in context.
    #[inline]
    pub fn empty(&mut self) {
        self.open(Layer::Empty);
        self.close();
    }

    /// Spans of `layers` closed so far.
    #[must_use]
    pub fn spans(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.count(l)).sum()
    }

    /// Sets the job (or request) id stamped on the spans that follow.
    #[inline]
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Opens a span of `layer`, child of the innermost open span.
    #[inline]
    pub fn open(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map_or(NO_PARENT, |f| f.id);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start = self.now();
        self.stack.push(Frame { layer, id, parent, start, child_ns: 0, children: 0 });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let f = self.stack.pop().expect("close without a matching open");
        let dur = end.saturating_sub(f.start);
        let agg = &mut self.agg[f.layer as usize];
        agg.count += 1;
        agg.raw_self_ns += dur.saturating_sub(f.child_ns);
        agg.children += u64::from(f.children);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.children += 1;
        }
        if f.layer.is_isolated() {
            self.isolated_wall_ns += dur + self.span_cost_ns as u64;
        }
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(SpanRec {
                id: f.id,
                parent: f.parent,
                job: self.job,
                layer: f.layer,
                start: f.start,
                end,
            });
        }
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.open(layer);
        let out = f();
        self.close();
        out
    }

    /// Spans of `layer` closed so far.
    #[must_use]
    pub fn count(&self, layer: Layer) -> u64 {
        self.agg[layer as usize].count
    }

    /// Total self time of `layer` in ns, with the empty-span cost taken
    /// off each span once and off its parent once per child.
    #[must_use]
    pub fn self_ns(&self, layer: Layer) -> f64 {
        let a = self.agg[layer as usize];
        a.raw_self_ns as f64
            - a.count as f64 * self.empty_ns
            - a.children as f64 * (self.span_cost_ns - self.empty_ns)
    }

    /// Mean self time of one span of `layer` in ns (0 without spans).
    #[must_use]
    pub fn mean_ns(&self, layer: Layer) -> f64 {
        match self.count(layer) {
            0 => 0.0,
            n => self.self_ns(layer) / n as f64,
        }
    }

    /// Wall time spent in isolated spans, so the traced throughput can
    /// leave out work the untraced run does not do.
    #[must_use]
    pub fn isolated_wall_ns(&self) -> u64 {
        self.isolated_wall_ns
    }

    /// Writes the kept spans as tab-separated lines: id, parent (empty
    /// for a root), job, name, start ns and end ns.
    ///
    /// # Errors
    /// Any I/O failure.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tjob\tname\tstart_ns\tend_ns")?;
        for s in &self.kept {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id,
                s.job,
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut l = Ledger::new(true);
        l.open(Layer::Op);
        l.span(Layer::Shard, || std::thread::sleep(std::time::Duration::from_millis(2)));
        l.close();
        assert_eq!(l.count(Layer::Op), 1);
        assert_eq!(l.count(Layer::Shard), 1);
        assert!(l.self_ns(Layer::Shard) >= 2e6);
        assert!(l.self_ns(Layer::Op) < 1e6, "child time leaked into the parent");
    }

    #[test]
    fn off_ledger_records_nothing() {
        let mut l = Ledger::off();
        l.span(Layer::Driver, || ());
        assert_eq!(l.count(Layer::Driver), 0);
    }
}

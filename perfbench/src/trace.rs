//! Span tracer and the timing decorators that wrap each layer.
//!
//! Every layer of the simulator is reached through a trait object:
//! `FlowEndpoint` (the TCP sender and receiver), `CongestionControl`, `Aqm`
//! and `Recorder`. A decorator wraps the trait object, forwards every
//! method, and opens a span around each call that does work. Spans nest: a
//! span's self time is its duration minus the durations of the spans opened
//! inside it, so the netsim core's self time is the `run_until` span minus
//! the endpoint, CCA, AQM, recorder and checker spans inside it.
//!
//! State is thread-local and kept in memory. Fine spans (one per callback,
//! millions per run) are summed per layer; coarse spans (`run_until`
//! slices, serialisation, cache calls, sweep cells) are also kept one by
//! one with their parent. [`take`] hands the lot over when a run ends.

use elephants_cca::{AckEvent, CcaState, CongestionControl, LossEvent};
use elephants_netsim::{
    Aqm, AqmStats, CheckFailure, Ctx, DequeueResult, EndpointReport, FlowEndpoint, FlowProbe,
    FlowSample, Packet, QueueSample, Recorder, SimTime, SmallRng, TimerKind, TraceEvent, Verdict,
};
use elephants_telemetry::FlightRecorder;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Simulator::run_until`: the event core (wheel, arena, links).
    Core,
    /// `Simulator::finalize`: run summary and the final invariant sweep.
    Finalize,
    /// TCP sender callbacks (`on_start`, `on_packet`, `on_timer`, `on_mark`).
    Sender,
    /// TCP receiver callbacks.
    Receiver,
    /// `CongestionControl::on_ack`.
    CcaAck,
    /// `CongestionControl::on_loss_event`.
    CcaLoss,
    /// `on_rto`, `on_spurious_rto` and `on_recovery_exit`.
    CcaOther,
    /// `Aqm::enqueue` at a bottleneck.
    AqmEnqueue,
    /// `Aqm::dequeue` at a bottleneck.
    AqmDequeue,
    /// `FlowEndpoint::telemetry_probe` at a sample tick.
    Probe,
    /// `Recorder` callbacks (the flight recorder storing a sample).
    Sample,
    /// `check_invariants` probes of endpoints and queues.
    Check,
    /// `FlightRecord` to JSON.
    Serialize,
    /// Reading a flight record back and parsing it.
    Parse,
    /// `emit_dynamics_figures`.
    Svg,
    /// `elephants-analysis` over a parsed record.
    Analysis,
    /// `RunCache::get`.
    CacheGet,
    /// `RunCache::put`.
    CachePut,
    /// One sweep cell: a whole run of one config.
    Cell,
    /// One sweep pass.
    Sweep,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 20;

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Core,
        Layer::Finalize,
        Layer::Sender,
        Layer::Receiver,
        Layer::CcaAck,
        Layer::CcaLoss,
        Layer::CcaOther,
        Layer::AqmEnqueue,
        Layer::AqmDequeue,
        Layer::Probe,
        Layer::Sample,
        Layer::Check,
        Layer::Serialize,
        Layer::Parse,
        Layer::Svg,
        Layer::Analysis,
        Layer::CacheGet,
        Layer::CachePut,
        Layer::Cell,
        Layer::Sweep,
    ];

    /// Span name, as written in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "netsim.run_until",
            Layer::Finalize => "netsim.finalize",
            Layer::Sender => "tcp.sender",
            Layer::Receiver => "tcp.receiver",
            Layer::CcaAck => "cca.on_ack",
            Layer::CcaLoss => "cca.on_loss_event",
            Layer::CcaOther => "cca.on_rto_or_recovery",
            Layer::AqmEnqueue => "aqm.enqueue",
            Layer::AqmDequeue => "aqm.dequeue",
            Layer::Probe => "telemetry.probe",
            Layer::Sample => "telemetry.record_sample",
            Layer::Check => "check.invariants",
            Layer::Serialize => "telemetry.serialize",
            Layer::Parse => "telemetry.parse",
            Layer::Svg => "telemetry.svg",
            Layer::Analysis => "analysis",
            Layer::CacheGet => "cache.get",
            Layer::CachePut => "cache.put",
            Layer::Cell => "sweep.cell",
            Layer::Sweep => "sweep.pass",
        }
    }

    /// Coarse spans are kept one by one as well as summed.
    fn coarse(self) -> bool {
        !matches!(
            self,
            Layer::Sender
                | Layer::Receiver
                | Layer::CcaAck
                | Layer::CcaLoss
                | Layer::CcaOther
                | Layer::AqmEnqueue
                | Layer::AqmDequeue
                | Layer::Probe
                | Layer::Sample
                | Layer::Check
        )
    }
}

/// One coarse span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// What it measured.
    pub layer: Layer,
    /// Index of the enclosing coarse span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// Start, ns since the process's first span.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Everything one thread traced between [`reset`] and [`take`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Spans opened, per layer.
    pub calls: [u64; LAYERS],
    /// Summed span durations, per layer.
    pub total_ns: [u64; LAYERS],
    /// Summed duration of the top-level spans of each layer.
    pub root_ns: [u64; LAYERS],
    /// `self_ns[root][layer]`: self time of `layer` spans opened under a
    /// top-level span of `root`.
    pub self_ns: [[u64; LAYERS]; LAYERS],
    /// The coarse spans, in the order they opened.
    pub spans: Vec<SpanRecord>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            calls: [0; LAYERS],
            total_ns: [0; LAYERS],
            root_ns: [0; LAYERS],
            self_ns: [[0; LAYERS]; LAYERS],
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Spans of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Summed duration of `layer`'s spans, ns.
    pub fn total(&self, layer: Layer) -> u64 {
        self.total_ns[layer as usize]
    }

    /// Self time of `layer` across every root, ns.
    pub fn self_time(&self, layer: Layer) -> u64 {
        self.self_ns.iter().map(|row| row[layer as usize]).sum()
    }

    /// Add `other` into `self` (spans of `other` keep their own parents).
    pub fn merge(&mut self, other: Trace) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.total_ns[i] += other.total_ns[i];
            self.root_ns[i] += other.root_ns[i];
            for j in 0..LAYERS {
                self.self_ns[i][j] += other.self_ns[i][j];
            }
        }
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The roots whose books do not close: for each layer that opened
    /// top-level spans, their summed duration must equal the self time of
    /// every span under them, its own included.
    pub fn unclosed_roots(&self) -> Vec<(Layer, u64, u64)> {
        Layer::ALL
            .iter()
            .filter_map(|&root| {
                let r = root as usize;
                let parts: u64 = self.self_ns[r].iter().sum();
                (self.root_ns[r] != parts).then_some((root, self.root_ns[r], parts))
            })
            .collect()
    }

    /// Durations of the coarse spans of `layer`, ns.
    pub fn span_durations(&self, layer: Layer) -> Vec<u64> {
        self.spans.iter().filter(|s| s.layer == layer).map(|s| s.dur_ns).collect()
    }
}

const NO_ROOT: usize = LAYERS;

struct State {
    /// Summed duration of the spans closed inside the innermost open span.
    child: Cell<u64>,
    /// Layer of the open top-level span, or `NO_ROOT`.
    root: Cell<usize>,
    /// Index + 1 of the innermost open coarse span, 0 for none.
    open: Cell<usize>,
    trace: RefCell<Trace>,
}

thread_local! {
    static STATE: State = State {
        child: Cell::new(0),
        root: Cell::new(NO_ROOT),
        open: Cell::new(0),
        trace: RefCell::new(Trace::default()),
    };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Run `f` inside a span of `layer` on this thread's tracer.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let (outer_child, outer_root, coarse) = STATE.with(|s| {
        let outer_child = s.child.replace(0);
        let outer_root = s.root.get();
        if outer_root == NO_ROOT {
            s.root.set(layer as usize);
        }
        let coarse = layer.coarse().then(|| {
            let mut t = s.trace.borrow_mut();
            let parent = s.open.get().checked_sub(1);
            t.spans.push(SpanRecord { layer, parent, start_ns: 0, dur_ns: 0 });
            s.open.replace(t.spans.len())
        });
        (outer_child, outer_root, coarse)
    });
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed().as_nanos() as u64;
    STATE.with(|s| {
        let child = s.child.replace(outer_child + dur);
        s.root.set(outer_root);
        let i = layer as usize;
        let root = if outer_root == NO_ROOT { i } else { outer_root };
        let mut t = s.trace.borrow_mut();
        t.calls[i] += 1;
        t.total_ns[i] += dur;
        t.self_ns[root][i] += dur.saturating_sub(child);
        if outer_root == NO_ROOT {
            t.root_ns[i] += dur;
        }
        if let Some(outer_open) = coarse {
            let idx = s.open.replace(outer_open) - 1;
            let rec = &mut t.spans[idx];
            rec.start_ns = start.duration_since(epoch()).as_nanos() as u64;
            rec.dur_ns = dur;
        }
    });
    out
}

/// Forget everything this thread traced.
pub fn reset() {
    epoch();
    STATE.with(|s| {
        s.child.set(0);
        s.root.set(NO_ROOT);
        s.open.set(0);
        *s.trace.borrow_mut() = Trace::default();
    });
}

/// Hand over what this thread traced since [`reset`], and start afresh.
pub fn take() -> Trace {
    STATE.with(|s| std::mem::take(&mut *s.trace.borrow_mut()))
}

/// Host cost of one span's two clock reads, ns (median of 21 batches).
pub fn clock_ns() -> f64 {
    const READS: u32 = 100_000;
    let mut batches: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            std::hint::black_box(last);
            start.elapsed().as_nanos() as f64 / READS as f64 * 2.0
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Timing decorator for a TCP endpoint.
pub struct TimedEndpoint {
    inner: Box<dyn FlowEndpoint>,
    layer: Layer,
}

impl TimedEndpoint {
    /// Wrap a sender (`Layer::Sender`) or receiver (`Layer::Receiver`).
    pub fn new(inner: Box<dyn FlowEndpoint>, layer: Layer) -> Self {
        TimedEndpoint { inner, layer }
    }
}

impl FlowEndpoint for TimedEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx) {
        span(self.layer, || self.inner.on_start(ctx))
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        span(self.layer, || self.inner.on_packet(pkt, ctx))
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        span(self.layer, || self.inner.on_timer(kind, ctx))
    }

    fn on_mark(&mut self, now: SimTime) {
        span(self.layer, || self.inner.on_mark(now))
    }

    fn telemetry_probe(&self, now: SimTime) -> Option<FlowProbe> {
        span(Layer::Probe, || self.inner.telemetry_probe(now))
    }

    fn check_invariants(&self) -> Vec<CheckFailure> {
        span(Layer::Check, || self.inner.check_invariants())
    }

    fn report(&self) -> EndpointReport {
        self.inner.report()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Timing decorator for a congestion controller. Read-only accessors are
/// forwarded untimed: the sender calls them inline, and their cost stays
/// in the sender's self time.
pub struct TimedCca {
    inner: Box<dyn CongestionControl>,
}

impl TimedCca {
    /// Wrap a controller built by `build_cca_seeded`.
    pub fn new(inner: Box<dyn CongestionControl>) -> Self {
        TimedCca { inner }
    }
}

impl CongestionControl for TimedCca {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_ack(&mut self, ev: &AckEvent, in_recovery: bool) {
        span(Layer::CcaAck, || self.inner.on_ack(ev, in_recovery))
    }

    fn on_loss_event(&mut self, ev: &LossEvent) {
        span(Layer::CcaLoss, || self.inner.on_loss_event(ev))
    }

    fn on_rto(&mut self, now: SimTime) {
        span(Layer::CcaOther, || self.inner.on_rto(now))
    }

    fn on_spurious_rto(&mut self, now: SimTime) {
        span(Layer::CcaOther, || self.inner.on_spurious_rto(now))
    }

    fn on_recovery_exit(&mut self, now: SimTime) {
        span(Layer::CcaOther, || self.inner.on_recovery_exit(now))
    }

    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }

    fn pacing_rate(&self) -> Option<u64> {
        self.inner.pacing_rate()
    }

    fn ssthresh(&self) -> u64 {
        self.inner.ssthresh()
    }

    fn in_slow_start(&self) -> bool {
        self.inner.in_slow_start()
    }

    fn bw_estimate(&self) -> Option<u64> {
        self.inner.bw_estimate()
    }

    fn state_snapshot(&self) -> CcaState {
        self.inner.state_snapshot()
    }

    fn check_invariants(&self, mss: u32) -> Vec<CheckFailure> {
        self.inner.check_invariants(mss)
    }
}

/// Timing decorator for a bottleneck queue discipline.
pub struct TimedAqm {
    inner: Box<dyn Aqm>,
}

impl TimedAqm {
    /// Wrap a discipline built by `build_aqm`.
    pub fn new(inner: Box<dyn Aqm>) -> Self {
        TimedAqm { inner }
    }
}

impl Aqm for TimedAqm {
    fn enqueue(&mut self, pkt: Packet, now: SimTime, rng: &mut SmallRng) -> Verdict {
        span(Layer::AqmEnqueue, || self.inner.enqueue(pkt, now, rng))
    }

    fn dequeue(&mut self, now: SimTime, rng: &mut SmallRng) -> DequeueResult {
        span(Layer::AqmDequeue, || self.inner.dequeue(now, rng))
    }

    fn backlog_bytes(&self) -> u64 {
        self.inner.backlog_bytes()
    }

    fn backlog_pkts(&self) -> usize {
        self.inner.backlog_pkts()
    }

    fn stats(&self) -> AqmStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control_state(&self) -> Option<f64> {
        self.inner.control_state()
    }

    fn check_invariants(&self, now: SimTime, deep: bool) -> Vec<CheckFailure> {
        span(Layer::Check, || self.inner.check_invariants(now, deep))
    }
}

/// Timing decorator around the flight recorder.
#[derive(Default)]
pub struct TimedRecorder {
    inner: FlightRecorder,
}

impl TimedRecorder {
    /// Wrap a fresh recorder.
    pub fn new(inner: FlightRecorder) -> Self {
        TimedRecorder { inner }
    }

    /// The wrapped recorder, with everything it stored.
    pub fn into_inner(self) -> FlightRecorder {
        self.inner
    }
}

impl Recorder for TimedRecorder {
    fn on_flow_sample(&mut self, s: &FlowSample) {
        span(Layer::Sample, || self.inner.on_flow_sample(s))
    }

    fn on_queue_sample(&mut self, s: &QueueSample) {
        span(Layer::Sample, || self.inner.on_queue_sample(s))
    }

    fn on_trace_event(&mut self, e: &TraceEvent) {
        span(Layer::Sample, || self.inner.on_trace_event(e))
    }

    fn on_trace_truncated(&mut self, count: u64) {
        self.inner.on_trace_truncated(count)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: u64) -> u64 {
        (0..n).fold(0u64, |a, x| std::hint::black_box(a.wrapping_add(x * x)))
    }

    #[test]
    fn nested_spans_close_their_books() {
        reset();
        span(Layer::Core, || {
            busy(10_000);
            span(Layer::Sender, || {
                busy(5_000);
                span(Layer::CcaAck, || busy(5_000));
            });
            span(Layer::AqmEnqueue, || busy(1_000));
        });
        span(Layer::Serialize, || busy(1_000));
        let t = take();
        assert_eq!(t.calls(Layer::Core), 1);
        assert_eq!(t.calls(Layer::CcaAck), 1);
        assert!(t.unclosed_roots().is_empty(), "{:?}", t.unclosed_roots());
        let core = Layer::Core as usize;
        let under_core: u64 = t.self_ns[core].iter().sum();
        assert_eq!(under_core, t.total(Layer::Core));
        assert_eq!(t.self_ns[core][Layer::Serialize as usize], 0);
        // Only coarse spans are kept one by one.
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].layer, Layer::Core);
        assert_eq!(t.spans[0].parent, None);
    }

    fn failure(what: &'static str) -> Vec<CheckFailure> {
        vec![CheckFailure::new(what, "forwarded".to_string())]
    }

    struct ToyEndpoint;

    impl FlowEndpoint for ToyEndpoint {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, _kind: TimerKind, _ctx: &mut Ctx) {}
        fn telemetry_probe(&self, _now: SimTime) -> Option<FlowProbe> {
            Some(FlowProbe { cwnd: 1, pacing_rate: Some(2), srtt: None, inflight: 3, phase: "toy" })
        }
        fn check_invariants(&self) -> Vec<CheckFailure> {
            failure("toy_endpoint")
        }
        fn report(&self) -> EndpointReport {
            EndpointReport { data_segments_sent: 4, ..Default::default() }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Counts the state-changing callbacks it receives in `cwnd`.
    #[derive(Default)]
    struct ToyCca {
        callbacks: u64,
    }

    impl CongestionControl for ToyCca {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn on_ack(&mut self, _ev: &AckEvent, _in_recovery: bool) {
            self.callbacks += 1;
        }
        fn on_loss_event(&mut self, _ev: &LossEvent) {
            self.callbacks += 1;
        }
        fn on_rto(&mut self, _now: SimTime) {
            self.callbacks += 1;
        }
        fn on_spurious_rto(&mut self, _now: SimTime) {
            self.callbacks += 1;
        }
        fn on_recovery_exit(&mut self, _now: SimTime) {
            self.callbacks += 1;
        }
        fn cwnd(&self) -> u64 {
            11 + self.callbacks
        }
        fn pacing_rate(&self) -> Option<u64> {
            Some(12)
        }
        fn ssthresh(&self) -> u64 {
            13
        }
        fn in_slow_start(&self) -> bool {
            true
        }
        fn bw_estimate(&self) -> Option<u64> {
            Some(14)
        }
        fn state_snapshot(&self) -> CcaState {
            CcaState {
                phase: "toy",
                cwnd: 15,
                ssthresh: 16,
                pacing_rate: None,
                bw_estimate: None,
                pacing_gain: Some(1.5),
            }
        }
        fn check_invariants(&self, _mss: u32) -> Vec<CheckFailure> {
            failure("toy_cca")
        }
    }

    struct ToyAqm;

    impl Aqm for ToyAqm {
        fn enqueue(&mut self, _pkt: Packet, _now: SimTime, _rng: &mut SmallRng) -> Verdict {
            Verdict::Dropped
        }
        fn dequeue(&mut self, _now: SimTime, _rng: &mut SmallRng) -> DequeueResult {
            DequeueResult::EMPTY
        }
        fn backlog_bytes(&self) -> u64 {
            21
        }
        fn backlog_pkts(&self) -> usize {
            22
        }
        fn stats(&self) -> AqmStats {
            AqmStats { enqueued: 23, ..Default::default() }
        }
        fn name(&self) -> &'static str {
            "toy"
        }
        fn control_state(&self) -> Option<f64> {
            Some(0.5)
        }
        fn check_invariants(&self, _now: SimTime, _deep: bool) -> Vec<CheckFailure> {
            failure("toy_aqm")
        }
    }

    // A clean simulation cannot tell a forwarded read-only method from the
    // trait default when both give the same answer (no violations, no
    // caller of `bw_estimate`); toys whose every answer differs from the
    // defaults can.
    #[test]
    fn decorators_forward_every_read_only_method() {
        let ep = TimedEndpoint::new(Box::new(ToyEndpoint), Layer::Sender);
        assert_eq!(ep.telemetry_probe(SimTime::ZERO), ToyEndpoint.telemetry_probe(SimTime::ZERO));
        assert_eq!(ep.check_invariants(), failure("toy_endpoint"));
        assert_eq!(ep.report(), ToyEndpoint.report());
        assert!(ep.as_any().downcast_ref::<ToyEndpoint>().is_some());

        let mut cca = TimedCca::new(Box::<ToyCca>::default());
        assert_eq!(cca.name(), "toy");
        assert_eq!((cca.cwnd(), cca.pacing_rate(), cca.ssthresh()), (11, Some(12), 13));
        assert!(cca.in_slow_start());
        assert_eq!(cca.bw_estimate(), Some(14));
        assert_eq!(cca.state_snapshot(), ToyCca::default().state_snapshot());
        assert_eq!(cca.check_invariants(1), failure("toy_cca"));
        reset();
        cca.on_rto(SimTime::ZERO);
        cca.on_spurious_rto(SimTime::ZERO);
        cca.on_recovery_exit(SimTime::ZERO);
        assert_eq!(cca.cwnd(), 14, "every callback reaches the wrapped controller");
        assert_eq!(take().calls(Layer::CcaOther), 3);

        let aqm = TimedAqm::new(Box::new(ToyAqm));
        assert_eq!((aqm.backlog_bytes(), aqm.backlog_pkts()), (21, 22));
        assert_eq!(aqm.stats(), ToyAqm.stats());
        assert_eq!(aqm.name(), "toy");
        assert_eq!(aqm.control_state(), Some(0.5));
        assert_eq!(aqm.check_invariants(SimTime::ZERO, true), failure("toy_aqm"));
    }

    #[test]
    fn coarse_spans_record_their_parent() {
        reset();
        span(Layer::Cell, || span(Layer::Core, || span(Layer::Finalize, || busy(100))));
        let t = take();
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert!(t.spans[0].dur_ns >= t.spans[1].dur_ns);
        assert!(t.unclosed_roots().is_empty());
    }
}

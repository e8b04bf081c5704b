//! Timing layers from outside the program: the decide probe the
//! simulated NICs are built with, self-time accumulators, and the span
//! log a traced run keeps in memory and writes out as a Chrome trace
//! (Trace Event Format) when it ends.

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use flowvalve::pipeline::FlowValvePipeline;
use fv_telemetry::JsonValue;
use netstack::packet::Packet;
use np_sim::cost::CostMeter;
use np_sim::lock::LockTable;
use np_sim::nic::{Decision, EgressDecider};
use sim_core::time::Nanos;

/// Host time of one `Instant::now()`: the cost every traced span pays
/// on top of the work it times.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 1 << 16;
    let start = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(READS)
}

/// Summed self time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    #[inline]
    pub fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as u64;
        self.calls += 1;
    }

    pub fn merge(&mut self, other: Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// What the [`Clocked`] decider observed, shared with the benchmark loop.
#[derive(Debug)]
pub struct DecideProbe {
    /// Time every call (traced runs) instead of stamping batch ends only.
    per_call: bool,
    batch: u64,
    calls: Cell<u64>,
    busy: Cell<Acc>,
    /// The first decisions' spans, up to the vector's capacity.
    spans: RefCell<Vec<(Instant, Instant)>>,
    stamps: RefCell<Vec<Instant>>,
}

impl DecideProbe {
    /// A probe that times every decision and keeps the first `spans`.
    pub fn per_call(spans: usize) -> Rc<Self> {
        Rc::new(Self::new(true, u64::MAX, spans))
    }

    /// A probe that only stamps the wall clock after every `batch`-th
    /// decision (one clock read per batch, for batch-time percentiles).
    pub fn batches(batch: u64) -> Rc<Self> {
        Rc::new(Self::new(false, batch, 0))
    }

    fn new(per_call: bool, batch: u64, spans: usize) -> Self {
        DecideProbe {
            per_call,
            batch,
            calls: Cell::new(0),
            busy: Cell::new(Acc::default()),
            spans: RefCell::new(Vec::with_capacity(spans)),
            stamps: RefCell::new(Vec::new()),
        }
    }

    /// Stamps a batch boundary by hand (the start of the first batch).
    pub fn stamp(&self) {
        self.stamps.borrow_mut().push(Instant::now());
    }

    /// Summed decide time and calls (per-call probes only).
    pub fn busy(&self) -> Acc {
        self.busy.get()
    }

    /// Moves the kept decision spans into `log` as `pipeline.decide`.
    pub fn drain_spans(&self, log: &mut SpanLog, lane: u32) {
        for (a, b) in self.spans.borrow_mut().drain(..) {
            log.push("pipeline.decide", lane, a, b);
        }
    }

    /// Durations between consecutive batch stamps.
    pub fn batch_durations(&self) -> Vec<Duration> {
        let s = self.stamps.borrow();
        s.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// A [`FlowValvePipeline`] behind a wall-clock probe. Downcasts through
/// `as_any_mut` still reach the pipeline, so telemetry attachment and
/// statistics work exactly as on an unwrapped NIC.
pub struct Clocked {
    inner: FlowValvePipeline,
    probe: Rc<DecideProbe>,
}

impl Clocked {
    pub fn new(inner: FlowValvePipeline, probe: Rc<DecideProbe>) -> Self {
        Clocked { inner, probe }
    }
}

impl EgressDecider for Clocked {
    fn decide(
        &mut self,
        pkt: &Packet,
        now: Nanos,
        meter: &mut CostMeter,
        locks: &mut LockTable,
    ) -> Decision {
        let p = &self.probe;
        let calls = p.calls.get() + 1;
        p.calls.set(calls);
        if p.per_call {
            let t0 = Instant::now();
            let d = self.inner.decide(pkt, now, meter, locks);
            let t1 = Instant::now();
            let mut busy = p.busy.get();
            busy.add(t1 - t0);
            p.busy.set(busy);
            let mut spans = p.spans.borrow_mut();
            if spans.len() < spans.capacity() {
                spans.push((t0, t1));
            }
            d
        } else {
            let d = self.inner.decide(pkt, now, meter, locks);
            if calls.is_multiple_of(p.batch) {
                p.stamps.borrow_mut().push(Instant::now());
            }
            d
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// One recorded span: layer name, lane, start since the log's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    lane: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans kept in memory during a traced run, up to a fixed count.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        SpanLog {
            epoch,
            cap,
            spans: Vec::with_capacity(cap),
        }
    }

    /// Whether more spans fit.
    #[inline]
    pub fn open(&self) -> bool {
        self.spans.len() < self.cap
    }

    /// Records `[start, end)` for layer `name` on lane `lane`.
    #[inline]
    pub fn push(&mut self, name: &'static str, lane: u32, start: Instant, end: Instant) {
        if self.open() {
            self.spans.push(Span {
                name,
                lane,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            });
        }
    }

    pub fn absorb(&mut self, other: SpanLog) {
        let room = self.cap.saturating_sub(self.spans.len());
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut s| {
                s.start_ns += shift;
                s
            }));
    }

    /// Writes the log as a Chrome trace to `perfbench/out/<stem>.trace.json`
    /// (beside this package) and returns the path.
    pub fn write_chrome(&self, stem: &str, lanes: &[&str]) -> std::io::Result<PathBuf> {
        let us = |ns: u64| JsonValue::Num(ns as f64 / 1_000.0);
        let mut events = vec![JsonValue::obj([
            ("name", JsonValue::Str("process_name".into())),
            ("ph", JsonValue::Str("M".into())),
            ("pid", JsonValue::UInt(0)),
            (
                "args",
                JsonValue::obj([("name", JsonValue::Str("fv-perfbench".into()))]),
            ),
        ])];
        for (i, lane) in lanes.iter().enumerate() {
            events.push(JsonValue::obj([
                ("name", JsonValue::Str("thread_name".into())),
                ("ph", JsonValue::Str("M".into())),
                ("pid", JsonValue::UInt(0)),
                ("tid", JsonValue::UInt(i as u64)),
                (
                    "args",
                    JsonValue::obj([("name", JsonValue::Str((*lane).into()))]),
                ),
            ]));
        }
        for s in &self.spans {
            events.push(JsonValue::obj([
                ("name", JsonValue::Str(s.name.into())),
                ("cat", JsonValue::Str("layer".into())),
                ("ph", JsonValue::Str("X".into())),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns)),
                ("pid", JsonValue::UInt(0)),
                ("tid", JsonValue::UInt(s.lane as u64)),
            ]));
        }
        let doc = JsonValue::obj([
            ("traceEvents", JsonValue::Arr(events)),
            ("displayTimeUnit", JsonValue::Str("ns".into())),
        ]);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, doc.to_compact())?;
        Ok(path)
    }
}

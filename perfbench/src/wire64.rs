//! `wire64_mice`: the real-thread packet path on the wall clock, at
//! saturation. A pre-encoded trace of 64 B frames, timestamped at 40 GbE
//! line-rate spacing, runs through parse → classify → decision cache →
//! compiled chain → token slab → TM enqueue on 1 and on 2 threads. Each
//! thread owns a `Classifier` (probed with `classify_at(thread, …)`), a
//! `DecisionCache` and a `TxFifo`; all threads share one `SchedulingTree`
//! and one `CompiledProgram` of `scripts/motivation.fv` under `RealExec`.
//!
//! About 90% of packets come from 64 hot flows spread over the policy's
//! classes and 10% from 2^18 mice, which miss the flow cache and evict.
//! Threads take 64-packet bursts from one shared cursor, so they stay
//! close in trace time. Verdicts depend on the trace timestamps, not on
//! speed: at one thread they repeat exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use classifier::{CacheStats, Classifier, FilterRule};
use flowvalve::frontend::Policy;
use flowvalve::label::{ClassId, QosLabel};
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::program::{CompiledProgram, DecisionCache};
use flowvalve::sched::{RealExec, SchedVerdict};
use flowvalve::tree::{SchedulingTree, TreeParams};
use netstack::flow::FlowKey;
use netstack::gen::{ArrivalProcess, LineRateProcess};
use netstack::headers::{encode_frame, parse_frame};
use netstack::packet::VfPort;
use np_sim::config::NicConfig;
use np_sim::tm::TxFifo;
use sim_core::fixed::Tokens;
use sim_core::rng::SimRng;
use sim_core::time::Nanos;

use crate::checks::{class_counts, ratio, verdict_totals};
use crate::layers::{Acc, SpanLog};
use crate::pins::{Counts, Determinism};
use crate::{
    batch_percentile, fast_median, median_us, ns, round_robin, rss_bytes, Args, EndToEnd, Layers,
    Report,
};

const SCRIPT: &str = include_str!("../../scripts/motivation.fv");
const FRAME: usize = 64;
const TRACE_PKTS: usize = 1 << 19;
const HOT_FLOWS: u64 = 64;
const MICE: u64 = 1 << 18;
const MOUSE_SHARE: f64 = 0.10;
/// Packets run on thread 0 during set-up, before timing starts.
const WARMUP: usize = 8192;
const BURST: usize = 64;
const REFERENCE_SEED: u64 = 0;
/// The classifier miss share must fall in this band around the 10% mice.
const MISS_BAND: (f64, f64) = (0.08, 0.12);
/// Packets per thread and traced pass whose spans are kept.
const SPANS_PER_PASS: usize = 1024;

/// The pre-encoded frame trace.
struct Trace {
    frames: Vec<u8>,
    vf: Vec<VfPort>,
    at: Vec<Nanos>,
}

/// The class a flow's (vf, destination port) selects under
/// `motivation.fv`, spread evenly: nc, kvs, ml, ws, and the default.
const CLASS_KEYS: [(u8, u16); 5] = [(0, 6000), (1, 5001), (1, 5002), (2, 8080), (3, 9000)];

fn trace(seed: u64) -> Trace {
    let mut rng = SimRng::seed(seed);
    let hot: Vec<(FlowKey, VfPort)> = (0..HOT_FLOWS)
        .map(|h| {
            let (vf, dport) = CLASS_KEYS[h as usize % CLASS_KEYS.len()];
            let sport = 1_024 + rng.range(0, 60_000) as u16;
            let flow = FlowKey::tcp([10, 1, 0, h as u8], sport, [10, 0, 255, 1], dport);
            (flow, VfPort(vf))
        })
        .collect();
    let port_salt = rng.next_u64();
    let mouse = |k: u64| {
        let (vf, dport) = CLASS_KEYS[k as usize % CLASS_KEYS.len()];
        let ip = [10, 2 + (k >> 16) as u8, (k >> 8) as u8, k as u8];
        let sport =
            1_024 + ((k ^ port_salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as u16 % 60_000;
        (FlowKey::tcp(ip, sport, [10, 0, 255, 1], dport), VfPort(vf))
    };
    let cfg = NicConfig::agilio_cx_40g();
    let mut gaps = LineRateProcess::new(cfg.line_rate, FRAME as u32, cfg.framing);
    let mut t = Nanos::ZERO;
    let mut tr = Trace {
        frames: Vec::with_capacity(TRACE_PKTS * FRAME),
        vf: Vec::with_capacity(TRACE_PKTS),
        at: Vec::with_capacity(TRACE_PKTS),
    };
    for _ in 0..TRACE_PKTS {
        let (flow, vf) = if rng.chance(MOUSE_SHARE) {
            mouse(rng.range(0, MICE))
        } else {
            hot[rng.index(hot.len())]
        };
        let frame = encode_frame(&flow, FRAME, 0).expect("a 64 B TCP frame encodes");
        tr.frames.extend_from_slice(&frame);
        tr.vf.push(vf);
        tr.at.push(t);
        t += gaps.next_arrival(&mut rng).0;
    }
    tr
}

/// Verdict tallies of one worker.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    forward: u64,
    borrow: u64,
    drop: u64,
    unlabeled: u64,
    tail_drop: u64,
    tx: u64,
    parse_errors: u64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.forward += o.forward;
        self.borrow += o.borrow;
        self.drop += o.drop;
        self.unlabeled += o.unlabeled;
        self.tail_drop += o.tail_drop;
        self.tx += o.tx;
        self.parse_errors += o.parse_errors;
    }

    fn decisions(&self) -> u64 {
        self.forward + self.borrow + self.drop + self.unlabeled
    }
}

/// The layers a traced packet is split into, in path order.
const LAYERS: [&str; 5] = [
    "netstack.parse",
    "classifier.classify",
    "program.lookup",
    "tree.schedule",
    "tm.enqueue",
];

/// One thread's private state.
struct Worker {
    lane: usize,
    classifier: Classifier<Option<QosLabel>>,
    cache: DecisionCache,
    fifo: TxFifo,
    tally: Tally,
    layers: [Acc; 5],
    bursts_ns: Vec<f64>,
    /// Host time of the worker's timed loop.
    busy: Duration,
    log: Option<SpanLog>,
}

impl Worker {
    fn new(
        lane: usize,
        rules: &[FilterRule<Option<QosLabel>>],
        default: Option<QosLabel>,
        tree: &SchedulingTree,
        cfg: &NicConfig,
    ) -> Self {
        let mut classifier = Classifier::new(default, FlowValvePipeline::DEFAULT_CACHE_CAPACITY);
        for r in rules {
            classifier.add_rule(r.clone());
        }
        Worker {
            lane,
            classifier,
            cache: DecisionCache::new(tree.len().max(64)),
            fifo: TxFifo::new(cfg.line_rate, cfg.framing, cfg.tm_queue_capacity),
            tally: Tally::default(),
            layers: [Acc::default(); 5],
            bursts_ns: Vec::new(),
            busy: Duration::ZERO,
            log: None,
        }
    }
}

/// What all threads share.
struct Shared<'a> {
    tree: &'a SchedulingTree,
    program: &'a CompiledProgram,
    trace: &'a Trace,
    wire_bits: u64,
}

/// Runs packet `i` through the whole path. With `TRACED`, stamps the
/// clock at every layer boundary (the end of one layer is the start of
/// the next, so the spans tile the packet) starting from `t0`, and
/// returns the last stamp.
#[inline(always)]
fn packet<const TRACED: bool>(w: &mut Worker, sh: &Shared, i: usize, t0: Instant) -> Instant {
    let stamp = |prev: Instant| if TRACED { Instant::now() } else { prev };
    let parsed = parse_frame(&sh.trace.frames[i * FRAME..(i + 1) * FRAME]);
    let t1 = stamp(t0);
    let Ok(parsed) = parsed else {
        w.tally.parse_errors += 1;
        return t1;
    };
    let label = *w
        .classifier
        .classify_at(w.lane, &parsed.flow, sh.trace.vf[i])
        .0;
    let t2 = stamp(t1);
    let at = sh.trace.at[i];
    let (verdict, t3, t4) = match label {
        None => {
            w.tally.unlabeled += 1;
            (SchedVerdict::Forward, t2, t2)
        }
        Some(label) => {
            let gen = sh.tree.epoch();
            let chain = match w.cache.lookup_at(w.lane, &label, gen) {
                Some(c) => Some(c),
                None => {
                    let c = sh.program.resolve(&label);
                    if let Some(c) = c {
                        w.cache.insert_at(w.lane, label, c, gen);
                    }
                    c
                }
            };
            let t3 = stamp(t2);
            let v = match chain {
                Some(c) => {
                    sh.tree
                        .schedule_compiled(sh.program, c, sh.wire_bits, at, &mut RealExec)
                }
                None => sh.tree.schedule(&label, sh.wire_bits, at, &mut RealExec),
            };
            match v {
                SchedVerdict::Forward => w.tally.forward += 1,
                SchedVerdict::Borrowed(_) => w.tally.borrow += 1,
                SchedVerdict::Drop => w.tally.drop += 1,
            }
            (v, t3, stamp(t3))
        }
    };
    let mut t5 = t4;
    if verdict.passes() {
        match w.fifo.enqueue(FRAME as u32, at) {
            Ok(_) => w.tally.tx += 1,
            Err(_) => w.tally.tail_drop += 1,
        }
        t5 = stamp(t4);
        if TRACED {
            w.layers[4].add(t5 - t4);
        }
    }
    if TRACED {
        w.layers[0].add(t1 - t0);
        w.layers[1].add(t2 - t1);
        if label.is_some() {
            w.layers[2].add(t3 - t2);
            w.layers[3].add(t4 - t3);
        }
        if let Some(log) = &mut w.log {
            if log.open() {
                let lane = w.lane as u32;
                for (name, (a, b)) in
                    LAYERS
                        .iter()
                        .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)])
                {
                    if b > a {
                        log.push(name, lane, a, b);
                    }
                }
            }
        }
    }
    t5
}

/// Takes bursts from `cursor` until the trace ends at `end`.
fn work<const TRACED: bool>(w: &mut Worker, sh: &Shared, cursor: &AtomicUsize, end: usize) {
    let start = Instant::now();
    loop {
        let b = cursor.fetch_add(BURST, Ordering::Relaxed);
        if b >= end {
            break;
        }
        let t0 = Instant::now();
        let mut t = t0;
        for i in b..(b + BURST).min(end) {
            t = packet::<TRACED>(w, sh, i, t);
        }
        let t_end = if TRACED { t } else { Instant::now() };
        w.bursts_ns.push(ns(t_end - t0));
        if let Some(log) = w.log.as_mut().filter(|_| TRACED) {
            log.push("burst", w.lane as u32, t0, t_end);
        }
    }
    w.busy = start.elapsed();
}

#[derive(Debug, Default)]
struct PassOut {
    threads: usize,
    parse: Duration,
    compile: Duration,
    setup: Duration,
    rss_after_setup: u64,
    /// Timed part: packets after warm-up, wall time from release to join.
    timed_pkts: u64,
    timed: Duration,
    /// Summed per-thread loop time (the traced total).
    busy: Duration,
    bursts_ns: Vec<f64>,
    tally: Tally,
    layers: [Acc; 5],
    classifier: CacheStats,
    decision: (u64, u64),
    epochs: u64,
    counts: Counts,
    problems: Vec<String>,
    log: Option<SpanLog>,
}

impl PassOut {
    fn mpps(&self) -> f64 {
        self.timed_pkts as f64 / self.timed.as_secs_f64() / 1e6
    }

    fn ns_per_pkt(&self) -> f64 {
        ns(self.timed) / self.timed_pkts.max(1) as f64
    }

    fn miss_share(&self) -> f64 {
        ratio(self.classifier.misses, self.classifier.hits)
    }
}

/// One pass: set-up (parse, compile, per-thread state, warm-up on thread
/// 0), the rest of the trace on `threads` threads, then the checks.
fn pass<const TRACED: bool>(tr: &Trace, threads: usize, want_rss: bool) -> PassOut {
    let mut out = PassOut {
        threads,
        ..PassOut::default()
    };
    let t0 = Instant::now();
    let policy = Policy::parse(SCRIPT).expect("motivation.fv parses");
    let t1 = Instant::now();
    let (tree, rules, default) = policy
        .compile(TreeParams::default())
        .expect("motivation.fv compiles");
    let labels: Vec<QosLabel> = rules
        .iter()
        .filter_map(|r| r.verdict)
        .chain(default)
        .collect();
    let program = CompiledProgram::compile(&tree, labels.iter());
    let t2 = Instant::now();
    let cfg = NicConfig::agilio_cx_40g();
    let sh = Shared {
        tree: &tree,
        program: &program,
        trace: tr,
        wire_bits: cfg.framing.wire_bits(FRAME as u64),
    };
    let mut workers: Vec<Worker> = (0..threads)
        .map(|lane| Worker::new(lane, &rules, default, &tree, &cfg))
        .collect();
    work::<false>(&mut workers[0], &sh, &AtomicUsize::new(0), WARMUP);
    workers[0].bursts_ns.clear();
    let t3 = Instant::now();
    out.parse = t1 - t0;
    out.compile = t2 - t1;
    out.setup = t3 - t0;
    if want_rss {
        out.rss_after_setup = rss_bytes();
    }
    if TRACED {
        let epoch = Instant::now();
        let cap = SPANS_PER_PASS * (LAYERS.len() + 1);
        for w in &mut workers {
            w.log = Some(SpanLog::new(epoch, cap));
        }
        out.log = Some(SpanLog::new(epoch, cap * threads));
    }

    let cursor = AtomicUsize::new(WARMUP);
    let end = tr.at.len();
    let start;
    if threads == 1 {
        start = Instant::now();
        work::<TRACED>(&mut workers[0], &sh, &cursor, end);
    } else {
        let barrier = Barrier::new(threads + 1);
        let (sh, cursor) = (&sh, &cursor);
        start = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|w| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        work::<TRACED>(w, sh, cursor, end);
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            for h in handles {
                h.join().expect("packet-path thread panicked");
            }
            start
        });
    }
    out.timed = start.elapsed();
    out.timed_pkts = (end - WARMUP) as u64;

    for w in workers {
        out.tally.merge(w.tally);
        for (acc, l) in out.layers.iter_mut().zip(w.layers) {
            acc.merge(l);
        }
        out.bursts_ns.extend(w.bursts_ns);
        out.busy += w.busy;
        let c = w.classifier.cache_stats();
        out.classifier.hits += c.hits;
        out.classifier.misses += c.misses;
        out.classifier.evictions += c.evictions;
        let (h, m) = w.cache.stats();
        out.decision.0 += h;
        out.decision.1 += m;
        if let (Some(log), Some(wl)) = (out.log.as_mut(), w.log) {
            log.absorb(wl);
        }
    }
    out.epochs = tree.epoch();
    out.problems = conservation(&out.tally, &tree, end as u64);
    if threads > 1 {
        out.problems.extend(conformance(&tree, tr));
    }
    out.counts = counts(&out, &tree);
    out
}

/// Every packet decided exactly once and every verdict accounted for.
fn conservation(t: &Tally, tree: &SchedulingTree, packets: u64) -> Vec<String> {
    let mut p = Vec::new();
    if t.parse_errors > 0 {
        p.push(format!("{} frames failed to parse", t.parse_errors));
    }
    if t.decisions() != packets {
        p.push(format!("{} decisions for {packets} packets", t.decisions()));
    }
    let [f, b, d] = verdict_totals(tree);
    if [f, b, d] != [t.forward, t.borrow, t.drop] {
        p.push(format!(
            "class counters {f}/{b}/{d} vs verdicts {}/{}/{}",
            t.forward, t.borrow, t.drop
        ));
    }
    if t.tx + t.tail_drop != t.forward + t.borrow + t.unlabeled {
        p.push(format!(
            "TM: {} sent + {} tail drops vs {} admitted",
            t.tx,
            t.tail_drop,
            t.forward + t.borrow + t.unlabeled
        ));
    }
    p
}

/// No class admits more than its rate cap over the trace span plus the
/// burst of every bucket in the slab. A class's cap is the smallest
/// `ceil` on its path to the root, or the root's rate.
fn conformance(tree: &SchedulingTree, tr: &Trace) -> Vec<String> {
    let wire_bits = NicConfig::agilio_cx_40g().framing.wire_bits(FRAME as u64) as f64;
    let span = tr.at.last().copied().unwrap_or(Nanos::ZERO).as_secs_f64();
    let bursts: f64 = tree
        .slab_snapshot()
        .iter()
        .map(|b| Tokens::from_raw(b.burst).as_bits_f64())
        .sum();
    let ids = tree.class_ids();
    let path = |mut id: ClassId| {
        let mut p = vec![id];
        while let Some(parent) = tree.spec(id).and_then(|s| s.parent) {
            p.push(parent);
            id = parent;
        }
        p
    };
    let mut problems = Vec::new();
    for &c in &ids {
        let cap_bps = path(c)
            .iter()
            .filter_map(|&a| tree.spec(a))
            .filter_map(|s| {
                if s.parent.is_none() {
                    s.rate.or(s.ceil)
                } else {
                    s.ceil
                }
            })
            .map(|r| r.as_bps())
            .min()
            .unwrap_or(u64::MAX) as f64;
        let admitted: u64 = ids
            .iter()
            .filter(|&&leaf| path(leaf).contains(&c))
            .filter_map(|&leaf| tree.counters(leaf))
            .map(|k| k.forwarded + k.borrowed)
            .sum();
        let bound = cap_bps * span + bursts;
        if admitted as f64 * wire_bits > bound {
            problems.push(format!(
                "class {c} admitted {:.0} bits, above {bound:.0} = rate x span + bursts",
                admitted as f64 * wire_bits
            ));
        }
    }
    problems
}

/// The pinned statistics of a one-thread pass.
fn counts(out: &PassOut, tree: &SchedulingTree) -> Counts {
    let t = &out.tally;
    let mut c: Counts = vec![
        ("verdict.forward".into(), t.forward),
        ("verdict.borrow".into(), t.borrow),
        ("verdict.drop".into(), t.drop),
        ("verdict.unlabeled".into(), t.unlabeled),
        ("tm.tx".into(), t.tx),
        ("tm.tail_drop".into(), t.tail_drop),
        ("classifier.hits".into(), out.classifier.hits),
        ("classifier.misses".into(), out.classifier.misses),
        ("classifier.evictions".into(), out.classifier.evictions),
        ("decision_cache.hits".into(), out.decision.0),
        ("decision_cache.misses".into(), out.decision.1),
        ("tree.epochs".into(), out.epochs),
    ];
    c.extend(class_counts(tree));
    c
}

fn check(out: &PassOut, det: &mut Determinism, report: &mut Report) {
    let packets = TRACE_PKTS as u64;
    report.attempted += packets;
    let mut problems = out.problems.clone();
    if out.threads == 1 {
        problems.extend(det.check(out.counts.clone()));
    }
    let threads = out.threads;
    report.fail(
        packets,
        problems
            .into_iter()
            .map(|p| format!("{threads} thread(s): {p}"))
            .collect(),
    );
    let miss = out.miss_share();
    if out.classifier.evictions == 0 || !(MISS_BAND.0..=MISS_BAND.1).contains(&miss) {
        report.precondition(format!(
            "classifier: {} evictions, miss share {miss:.4} (need > 0 evictions and {:?})",
            out.classifier.evictions, MISS_BAND
        ));
    }
}

/// Statistics of the reference trace at one thread (`--pins`).
pub fn reference_counts() -> Counts {
    pass::<false>(&trace(REFERENCE_SEED), 1, false).counts
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let reference = trace(REFERENCE_SEED);
    let seeded = trace(args.seed);
    let started = Instant::now();

    let rss_before = rss_bytes();
    let first = pass::<false>(&reference, 1, true);
    let setup_rss_mb = first.rss_after_setup.saturating_sub(rss_before) as f64 / (1 << 20) as f64;
    check(&first, &mut Determinism::pinned("wire64_mice"), &mut report);
    drop(reference);

    let budget = Duration::from_secs_f64(args.seconds).saturating_sub(started.elapsed());
    let mut det = Determinism::default();
    let mut one: Vec<PassOut> = Vec::new();
    let mut two: Vec<PassOut> = Vec::new();
    if !args.trace {
        round_robin(budget, 2, |kind| {
            let out = pass::<false>(&seeded, kind + 1, false);
            check(&out, &mut det, &mut report);
            [&mut one, &mut two][kind].push(out);
        });
        let setups: Vec<f64> = one
            .iter()
            .chain(&two)
            .map(|o| o.setup.as_secs_f64())
            .collect();
        let rates =
            |v: &[PassOut]| fast_median(&v.iter().map(PassOut::mpps).collect::<Vec<_>>(), true);
        let bursts: Vec<&[f64]> = two.iter().map(|o| o.bursts_ns.as_slice()).collect();
        EndToEnd {
            setup_s: fast_median(&setups, false),
            setup_rss_mb,
            mpps_1t: rates(&one),
            mpps_2t: rates(&two),
            batch_us_p50: batch_percentile(&bursts, 0.50) / 1e3,
            batch_us_p99: batch_percentile(&bursts, 0.99) / 1e3,
        }
        .emit(&mut report);
        return report;
    }

    let mut log = SpanLog::new(Instant::now(), 1 << 16);
    let mut traced: Vec<PassOut> = Vec::new();
    round_robin(budget, 3, |kind| {
        let mut out = match kind {
            0 => pass::<false>(&seeded, 1, false),
            1 => pass::<true>(&seeded, 1, false),
            _ => pass::<true>(&seeded, 2, false),
        };
        check(&out, &mut det, &mut report);
        if let Some(l) = out.log.take() {
            log.absorb(l);
        }
        [&mut one, &mut traced, &mut two][kind].push(out);
    });
    let mut layers = [Acc::default(); 5];
    let mut busy = 0.0;
    for t in &traced {
        for (acc, l) in layers.iter_mut().zip(t.layers) {
            acc.merge(l);
        }
        busy += ns(t.busy);
    }
    let mut sched_2t = Acc::default();
    for t in &two {
        sched_2t.merge(t.layers[3]);
    }
    let layer_sum: f64 = layers.iter().map(|a| a.ns as f64).sum();
    let per_pkt = |v: &[PassOut]| {
        fast_median(
            &v.iter().map(PassOut::ns_per_pkt).collect::<Vec<_>>(),
            false,
        )
    };
    let untraced = per_pkt(&one);
    let last = traced.last().expect("round_robin runs every pass kind");
    let t = &last.tally;
    let decisions = (t.forward + t.borrow + t.drop).max(1) as f64;
    let all = || one.iter().chain(&traced).chain(&two);
    let (dh, dm) = last.decision;
    Layers {
        parse_us: median_us(all().map(|o| o.parse)),
        compile_us: median_us(all().map(|o| o.compile)),
        netstack_parse_ns: layers[0].mean_ns(),
        classify_ns: layers[1].mean_ns(),
        classifier_hit_ratio: 1.0 - last.miss_share(),
        classifier_evictions: last.classifier.evictions as f64,
        lookup_ns: layers[2].mean_ns(),
        program_hit_ratio: ratio(dh, dm),
        schedule_ns_1t: layers[3].mean_ns(),
        schedule_ns_2t: sched_2t.mean_ns(),
        forward_share: t.forward as f64 / decisions,
        borrow_share: t.borrow as f64 / decisions,
        drop_share: t.drop as f64 / decisions,
        epochs: last.epochs as f64,
        enqueue_ns: layers[4].mean_ns(),
        trace_overhead_pct: (per_pkt(&traced) / untraced - 1.0) * 100.0,
        reconcile_err_pct: (busy - layer_sum).abs() / busy.max(1.0) * 100.0,
        ..Layers::default()
    }
    .finish(
        &mut report,
        &log,
        &format!("wire64_mice-seed{}", args.seed),
        &["thread 0", "thread 1"],
    );
    report
}

//! `demo_mix`: `fv demo`'s traffic through `SmartNic::rx` in virtual
//! time — `scripts/motivation.fv` on the Agilio 40G model, one 1518 B
//! line-rate flow per filter, together offered 1.5x line rate for 10 ms
//! of simulated time, with telemetry and 1-in-64 provenance audit
//! attached as `fv demo` attaches them.
//!
//! The reference input is `fv demo`'s own (its pins equal `fv demo`'s
//! counters). A seeded input gives every flow its own source address and
//! port (which the filters ignore) and a start phase within one packet
//! gap, which changes the interleaving the scheduler sees.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::program::CACHE_STRIPES;
use flowvalve::tree::TreeParams;
use fv_audit::{Ledger, ProvenanceRing, Sampler};
use fv_telemetry::Registry;
use netstack::flow::FlowKey;
use netstack::gen::{ArrivalProcess, LineRateProcess};
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use np_sim::config::NicConfig;
use np_sim::nic::{EgressDecider, NicStats, SmartNic};
use sim_core::rng::SimRng;
use sim_core::time::Nanos;

use crate::checks::{
    nic_conservation, nic_counts, nic_layers, ratio, verdict_totals, PipelineStats,
};
use crate::layers::{Acc, Clocked, DecideProbe, SpanLog};
use crate::pins::{Counts, Determinism};
use crate::{
    batch_percentile, concurrent_pair, fast_median, median_us, ns, round_robin, rss_bytes, Args,
    EndToEnd, Layers, Report,
};

const SCRIPT: &str = include_str!("../../scripts/motivation.fv");
const HORIZON: Nanos = Nanos::from_millis(10);
/// Packets offered during set-up, before timing starts.
const WARMUP: u64 = 1024;
/// Packets per timed batch.
const BATCH: u64 = 1024;
/// `fv demo`'s provenance sampling (1 in 2^6) and ring depth.
const AUDIT_SHIFT: u32 = 6;
const AUDIT_RING_CAPACITY: usize = 4096;
/// `fv demo`'s event-ring capacity.
const RING_CAPACITY: usize = 1024;
/// Packets per traced pass whose spans are kept for the Chrome trace.
const SPANS_PER_PASS: usize = 2048;
/// Hit ratio the classifier flow cache must reach after warm-up.
const MIN_HIT_RATIO: f64 = 0.999;

/// One open-loop flow per filter, matched as precisely as the filter
/// allows, each offered an equal share of 1.5x line rate.
#[derive(Debug, Clone)]
struct Traffic {
    flows: Vec<(FlowKey, VfPort)>,
    /// Start phase of each flow.
    offsets: Vec<Nanos>,
}

impl Traffic {
    /// `fv demo`'s flows, all starting in phase.
    fn reference(policy: &Policy) -> Self {
        Self::build(
            policy,
            |i| ([10, 0, 0, 10 + i as u8], 41_000 + i as u16),
            |_| 0,
        )
    }

    /// The same filters and rates with seeded sources and start phases.
    fn seeded(policy: &Policy, seed: u64) -> Self {
        let mut rng = SimRng::seed(seed);
        let sources: Vec<([u8; 4], u16)> = (0..policy.filters.len())
            .map(|_| {
                let ip = rng.next_u64().to_le_bytes();
                (
                    [10, 1 + ip[0] % 200, ip[1], ip[2]],
                    1_024 + rng.range(0, 60_000) as u16,
                )
            })
            .collect();
        let gap = Self::gap(policy).as_nanos();
        let phases: Vec<u64> = sources.iter().map(|_| rng.range(0, gap)).collect();
        Self::build(policy, |i| sources[i], |i| phases[i])
    }

    fn build(
        policy: &Policy,
        source: impl Fn(usize) -> ([u8; 4], u16),
        phase: impl Fn(usize) -> u64,
    ) -> Self {
        let mut flows = Vec::new();
        let mut offsets = Vec::new();
        for (i, f) in policy.filters.iter().enumerate() {
            let m = &f.matcher;
            let (src, sport) = source(i);
            let flow = FlowKey::tcp(
                src,
                m.src_port.unwrap_or(sport),
                [10, 0, 255, 1],
                m.dst_port.unwrap_or(5_000 + i as u16),
            );
            flows.push((flow, m.vf.unwrap_or(VfPort(i as u8))));
            offsets.push(Nanos::from_nanos(phase(i)));
        }
        Traffic { flows, offsets }
    }

    /// Inter-arrival gap of one flow.
    fn gap(policy: &Policy) -> Nanos {
        let cfg = NicConfig::agilio_cx_40g();
        let rate = cfg
            .line_rate
            .scaled(3, 2 * policy.filters.len().max(1) as u64);
        LineRateProcess::new(rate, 1518, cfg.framing)
            .next_arrival(&mut SimRng::seed(0))
            .0
    }

    fn start(&self) -> Arrivals<'_> {
        let cfg = NicConfig::agilio_cx_40g();
        let offered = cfg.line_rate.scaled(3, 2 * self.flows.len() as u64);
        let mut rng = SimRng::seed(1);
        let mut gens: Vec<LineRateProcess> = self
            .flows
            .iter()
            .map(|_| LineRateProcess::new(offered, 1518, cfg.framing))
            .collect();
        let next = gens
            .iter_mut()
            .zip(&self.offsets)
            .map(|(g, &off)| off + g.next_arrival(&mut rng).0)
            .collect();
        Arrivals {
            traffic: self,
            gens,
            next,
            rng,
            ids: PacketIdGen::new(),
        }
    }
}

/// The merged arrival stream of all flows, in time order.
struct Arrivals<'a> {
    traffic: &'a Traffic,
    gens: Vec<LineRateProcess>,
    next: Vec<Nanos>,
    rng: SimRng,
    ids: PacketIdGen,
}

impl Iterator for Arrivals<'_> {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        let (idx, &t) = self.next.iter().enumerate().min_by_key(|&(i, &t)| (t, i))?;
        if t >= HORIZON {
            return None;
        }
        let (flow, vf) = self.traffic.flows[idx];
        let pkt = Packet::new(self.ids.next_id(), flow, 1518, AppId(idx as u16), vf, t);
        self.next[idx] = t + self.gens[idx].next_arrival(&mut self.rng).0;
        Some(pkt)
    }
}

/// Which observability a pass attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attach {
    /// Pipeline telemetry and sampled provenance audit, as `fv demo`.
    Demo,
    /// Neither: the NIC's own counters only.
    Bare,
}

/// Everything one pass measured and produced.
#[derive(Debug, Default)]
struct PassOut {
    parse: Duration,
    compile: Duration,
    setup: Duration,
    /// Resident bytes at the end of set-up (only when asked for).
    rss_after_setup: u64,
    /// Timed part: packets offered after warm-up, and their host time.
    timed_pkts: u64,
    timed: Duration,
    batches_us: Vec<f64>,
    offered: u64,
    counts: Counts,
    problems: Vec<String>,
    /// Classifier flow-cache hit ratio after warm-up.
    classifier_hit: f64,
    /// Decision-cache misses after warm-up, and the most that cache
    /// invalidations can explain: one per chain, cache stripe and
    /// generation the tree's epoch moved through.
    decision_misses: u64,
    invalidation_bound: u64,
    stats: PipelineStats,
    nic: NicStats,
    verdicts: [u64; 3],
    // Traced passes only.
    gen: Acc,
    rx: Acc,
    decide: Acc,
}

impl PassOut {
    fn ns_per_pkt(&self) -> f64 {
        ns(self.timed) / self.timed_pkts.max(1) as f64
    }

    fn mpps(&self) -> f64 {
        self.timed_pkts as f64 / self.timed.as_secs_f64() / 1e6
    }
}

/// Runs one pass: set-up (parse, compile, NIC construction, warm-up),
/// the timed remainder of the 10 ms of traffic, then the statistics.
fn pass(traffic: &Traffic, attach: Attach, log: Option<&mut SpanLog>, want_rss: bool) -> PassOut {
    let mut out = PassOut::default();
    let t0 = Instant::now();
    let policy = Policy::parse(SCRIPT).expect("motivation.fv parses");
    let t1 = Instant::now();
    let cfg = NicConfig::agilio_cx_40g();
    let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)
        .expect("motivation.fv compiles");
    let t2 = Instant::now();
    let tree = pipeline.tree().clone();
    let registry = Registry::with_ring_capacity(RING_CAPACITY);
    let probe = log.is_some().then(|| DecideProbe::per_call(SPANS_PER_PASS));
    let decider: Box<dyn EgressDecider> = match &probe {
        Some(p) => Box::new(Clocked::new(pipeline, p.clone())),
        None => Box::new(pipeline),
    };
    let mut nic = SmartNic::with_registry(cfg, decider, &registry);
    let ring = (attach == Attach::Demo)
        .then(|| Arc::new(ProvenanceRing::sampled(AUDIT_RING_CAPACITY, AUDIT_SHIFT)));
    if let Some(ring) = &ring {
        let p = nic
            .decider_as::<FlowValvePipeline>()
            .expect("decider is a FlowValve pipeline");
        p.attach_telemetry(&registry);
        p.attach_auditor(ring.clone(), Sampler::one_in_pow2(AUDIT_SHIFT));
    }
    let mut arrivals = traffic.start();
    for pkt in arrivals.by_ref().take(WARMUP as usize) {
        nic.rx(&pkt, pkt.created_at);
    }
    let t3 = Instant::now();
    out.parse = t1 - t0;
    out.compile = t2 - t1;
    out.setup = t3 - t0;
    if want_rss {
        out.rss_after_setup = rss_bytes();
    }
    let warm = PipelineStats::of(&mut nic);

    match (log, &probe) {
        (Some(log), Some(probe)) => {
            let decide0 = probe.busy();
            let start = Instant::now();
            let mut prev = start;
            for pkt in arrivals {
                let rx0 = Instant::now();
                nic.rx(&pkt, pkt.created_at);
                let rx1 = Instant::now();
                out.gen.add(rx0 - prev);
                out.rx.add(rx1 - rx0);
                if out.rx.calls <= SPANS_PER_PASS as u64 {
                    log.push("bench.gen", 0, prev, rx0);
                    log.push("nic.rx", 0, rx0, rx1);
                }
                prev = rx1;
            }
            out.timed = start.elapsed();
            probe.drain_spans(log, 0);
            out.timed_pkts = out.rx.calls;
            let decide1 = probe.busy();
            out.decide = Acc {
                ns: decide1.ns - decide0.ns,
                calls: decide1.calls - decide0.calls,
            };
        }
        _ => {
            let start = Instant::now();
            let mut batch_start = start;
            let mut n = 0u64;
            for pkt in arrivals {
                nic.rx(&pkt, pkt.created_at);
                n += 1;
                if n.is_multiple_of(BATCH) {
                    let now = Instant::now();
                    out.batches_us.push((now - batch_start).as_secs_f64() * 1e6);
                    batch_start = now;
                }
            }
            out.timed = start.elapsed();
            out.timed_pkts = n;
        }
    }

    // Post-run work as `fv demo` does it; not timed.
    let end = PipelineStats::of(&mut nic);
    out.classifier_hit = ratio(
        end.classifier.hits - warm.classifier.hits,
        end.classifier.misses - warm.classifier.misses,
    );
    out.decision_misses = end.decision.1 - warm.decision.1;
    out.invalidation_bound = end.chains * CACHE_STRIPES as u64 * (end.epochs - warm.epochs + 1);
    out.stats = end;
    nic.sync_gauges(HORIZON);
    if let Some(p) = nic.decider_as::<FlowValvePipeline>() {
        p.sync_gauges(HORIZON);
    }
    if let Some(ring) = &ring {
        let audit = Ledger::audit(&ring.records(), &tree.slab_snapshot());
        audit.install_counters(&registry, 0);
        if audit.records == 0 || !audit.ok() {
            out.problems.push(format!(
                "audit: {} records, {} violations",
                audit.records,
                audit.violations.len()
            ));
        }
    }
    out.nic = nic.stats();
    out.offered = out.nic.offered;
    out.counts = nic_counts(&out.nic, &tree);
    out.verdicts = verdict_totals(&tree);
    out
}

/// Folds one pass's checks into the report.
fn check(out: &PassOut, det: &mut Determinism, report: &mut Report) {
    report.attempted += out.offered;
    let mut problems = out.problems.clone();
    problems.extend(nic_conservation(&out.nic, out.verdicts));
    problems.extend(det.check(out.counts.clone()));
    report.fail(out.offered, problems);
    if out.classifier_hit < MIN_HIT_RATIO {
        report.precondition(format!(
            "classifier hit ratio after warm-up {:.5} (need >= {MIN_HIT_RATIO})",
            out.classifier_hit
        ));
    }
    if out.decision_misses > out.invalidation_bound {
        report.precondition(format!(
            "{} decision-cache misses after warm-up, more than the {} invalidations explain",
            out.decision_misses, out.invalidation_bound
        ));
    }
    if out.nic.sched_drops == 0 {
        report.precondition("no scheduler drops".into());
    }
}

/// Statistics of the reference input (`--pins`).
pub fn reference_counts() -> Counts {
    let policy = Policy::parse(SCRIPT).expect("motivation.fv parses");
    pass(&Traffic::reference(&policy), Attach::Demo, None, false).counts
}

pub fn run(args: &Args) -> Report {
    let started = Instant::now();
    let mut report = Report::default();
    let policy = Policy::parse(SCRIPT).expect("motivation.fv parses");
    let reference = Traffic::reference(&policy);
    let seeded = Traffic::seeded(&policy, args.seed);

    // The reference pass: pinned outcome, process warm-up, set-up RSS.
    let rss_before = rss_bytes();
    let first = pass(&reference, Attach::Demo, None, true);
    let setup_rss_mb = first.rss_after_setup.saturating_sub(rss_before) as f64 / (1 << 20) as f64;
    check(&first, &mut Determinism::pinned("demo_mix"), &mut report);

    let budget = Duration::from_secs_f64(args.seconds).saturating_sub(started.elapsed());
    let mut det = Determinism::default();
    let mut one: Vec<PassOut> = Vec::new();
    if !args.trace {
        let mut two: Vec<f64> = Vec::new();
        round_robin(budget, 2, |kind| {
            if kind == 0 {
                let out = pass(&seeded, Attach::Demo, None, false);
                check(&out, &mut det, &mut report);
                one.push(out);
            } else {
                let mut rate = 0.0;
                for out in concurrent_pair(|| pass(&seeded, Attach::Demo, None, false)) {
                    check(&out, &mut det, &mut report);
                    rate += out.mpps();
                }
                two.push(rate);
            }
        });
        let setups: Vec<f64> = one.iter().map(|o| o.setup.as_secs_f64()).collect();
        let rates: Vec<f64> = one.iter().map(PassOut::mpps).collect();
        let batches: Vec<&[f64]> = one.iter().map(|o| o.batches_us.as_slice()).collect();
        EndToEnd {
            setup_s: fast_median(&setups, false),
            setup_rss_mb,
            mpps_1t: fast_median(&rates, true),
            mpps_2t: fast_median(&two, true),
            batch_us_p50: batch_percentile(&batches, 0.50),
            batch_us_p99: batch_percentile(&batches, 0.99),
        }
        .emit(&mut report);
        return report;
    }

    let mut log = SpanLog::new(Instant::now(), 1 << 16);
    let mut traced: Vec<PassOut> = Vec::new();
    let mut bare: Vec<PassOut> = Vec::new();
    round_robin(budget, 3, |kind| {
        let out = match kind {
            0 => pass(&seeded, Attach::Demo, None, false),
            1 => pass(&seeded, Attach::Demo, Some(&mut log), false),
            _ => pass(&seeded, Attach::Bare, None, false),
        };
        check(&out, &mut det, &mut report);
        [&mut one, &mut traced, &mut bare][kind].push(out);
    });
    let per_pkt = |v: &[PassOut]| {
        fast_median(
            &v.iter().map(PassOut::ns_per_pkt).collect::<Vec<_>>(),
            false,
        )
    };
    let all = || one.iter().chain(&traced).chain(&bare);
    let (mut gen, mut rx, mut decide, mut wall, mut pkts) =
        (Acc::default(), Acc::default(), Acc::default(), 0.0, 0u64);
    for t in &traced {
        gen.merge(t.gen);
        rx.merge(t.rx);
        decide.merge(t.decide);
        wall += ns(t.timed);
        pkts += t.timed_pkts;
    }
    let last = traced.last().expect("round_robin runs every pass kind");
    let untraced = per_pkt(&one);
    let layers = Layers {
        parse_us: median_us(all().map(|o| o.parse)),
        compile_us: median_us(all().map(|o| o.compile)),
        decide_ns: decide.mean_ns(),
        rx_self_ns: (rx.ns - decide.ns) as f64 / pkts.max(1) as f64,
        obs_overhead_ns: untraced - per_pkt(&bare),
        trace_overhead_pct: (per_pkt(&traced) / untraced - 1.0) * 100.0,
        reconcile_err_pct: (wall - (gen.ns + rx.ns) as f64).abs() / wall.max(1.0) * 100.0,
        ..nic_layers(&last.nic, last.verdicts, &last.stats)
    };
    layers.finish(
        &mut report,
        &log,
        &format!("demo_mix-seed{}", args.seed),
        &["sim loop"],
    );
    report
}

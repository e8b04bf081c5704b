//! `tcp_fairq`: the Fig. 11(b) fair-queueing scenario, a closed loop of
//! 16 ACK-clocked TCP connections (four apps of four, staged joins and a
//! staged leave) through `hostsim::engine::run` onto the Agilio 40G
//! model under `policies::fair_queueing_fv`.
//!
//! The figure's time axis is compressed twentyfold (1.25 ms per figure
//! second) so that one run holds many full scenarios; every 10-second
//! stage of the figure still spans over sixty base RTTs. The reference input is the scenario's own
//! seed (42); a seeded input replaces it, which moves every connection's
//! start jitter.

use std::time::{Duration, Instant};

use flowvalve::pipeline::FlowValvePipeline;
use hostsim::engine::{self, RunReport};
use hostsim::path::EgressPath;
use hostsim::policies;
use hostsim::scenario::Scenario;
use np_sim::config::NicConfig;
use np_sim::nic::{NicStats, SmartNic};

use crate::checks::{nic_conservation, nic_counts, nic_layers, verdict_totals, PipelineStats};
use crate::layers::{Acc, Clocked, DecideProbe, SpanLog};
use crate::pins::{Counts, Determinism};
use crate::{
    batch_percentile, concurrent_pair, fast_median, median_us, ns, round_robin, rss_bytes, Args,
    EndToEnd, Layers, Report,
};

/// How many times faster than Fig. 11(b) the scenario's time axis runs.
const TIME_COMPRESSION: u64 = 20;
/// The scenario's own seed: the reference input.
const REFERENCE_SEED: u64 = 42;
/// NIC decisions per timed batch.
const BATCH: u64 = 1024;
/// Decisions per traced pass whose spans are kept for the Chrome trace.
const SPANS_PER_PASS: usize = 4096;

/// Fig. 11(b) with four connections per app, time-compressed, on `seed`.
fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::fair_queueing_40g(4);
    s.time_scale = s.time_scale / TIME_COMPRESSION;
    s.horizon = s.horizon / TIME_COMPRESSION;
    for app in &mut s.apps {
        app.start = app.start / TIME_COMPRESSION;
        app.stop = app.stop / TIME_COMPRESSION;
    }
    s.seed = seed;
    s
}

#[derive(Debug, Default)]
struct PassOut {
    parse: Duration,
    compile: Duration,
    setup: Duration,
    rss_after_setup: u64,
    /// The engine run: its host time and the packets offered to the NIC.
    timed: Duration,
    offered: u64,
    batches_us: Vec<f64>,
    counts: Counts,
    nic: NicStats,
    verdicts: [u64; 3],
    delivered: u64,
    dropped: u64,
    /// Apps that delivered nothing inside their active window.
    idle_apps: Vec<String>,
    stats: PipelineStats,
    decide: Acc,
}

impl PassOut {
    fn mpps(&self) -> f64 {
        self.offered as f64 / self.timed.as_secs_f64() / 1e6
    }

    fn ns_per_pkt(&self) -> f64 {
        ns(self.timed) / self.offered.max(1) as f64
    }
}

/// One pass: set-up (policy, compile, NIC and path construction), then
/// the whole scenario through `engine::run`, then its statistics.
fn pass(s: &Scenario, log: Option<&mut SpanLog>, want_rss: bool) -> PassOut {
    let mut out = PassOut::default();
    let t0 = Instant::now();
    let policy = policies::fair_queueing_fv(s.link, s);
    let t1 = Instant::now();
    let cfg = NicConfig::agilio_cx_40g();
    let pipeline = FlowValvePipeline::compile(&policy, bench::experiment_tree_params(), &cfg)
        .expect("fair-queueing policy compiles");
    let t2 = Instant::now();
    let probe = match log {
        Some(_) => DecideProbe::per_call(SPANS_PER_PASS),
        None => DecideProbe::batches(BATCH),
    };
    let path = EgressPath::flowvalve(SmartNic::new(
        cfg,
        Box::new(Clocked::new(pipeline, probe.clone())),
    ));
    let t3 = Instant::now();
    out.parse = t1 - t0;
    out.compile = t2 - t1;
    out.setup = t3 - t0;
    if want_rss {
        out.rss_after_setup = rss_bytes();
    }

    probe.stamp();
    let start = Instant::now();
    let (report, path) = engine::run(s, path);
    let end = Instant::now();
    out.timed = end - start;
    out.batches_us = probe
        .batch_durations()
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    out.decide = probe.busy();
    if let Some(log) = log {
        log.push("hostsim.run", 0, start, end);
        probe.drain_spans(log, 0);
    }

    let EgressPath::FlowValve { mut nic } = path else {
        unreachable!("the path was built as a FlowValve path")
    };
    out.nic = nic.stats();
    out.offered = out.nic.offered;
    out.stats = PipelineStats::of(&mut nic);
    let tree = nic
        .decider_as::<FlowValvePipeline>()
        .expect("decider is a FlowValve pipeline")
        .tree()
        .clone();
    out.verdicts = verdict_totals(&tree);
    out.delivered = report.delivered;
    out.dropped = report.dropped;
    out.counts = nic_counts(&out.nic, &tree);
    out.counts
        .push(("hostsim.delivered".into(), report.delivered));
    out.counts.push(("hostsim.dropped".into(), report.dropped));
    for app in &s.apps {
        out.counts.push((
            format!("app.{}.delivered_bits", app.name),
            report.recorder.total_bits(&app.name),
        ));
    }
    out.idle_apps = idle_apps(s, &report);
    out
}

/// Apps whose delivered rate over their whole active window is zero.
fn idle_apps(s: &Scenario, report: &RunReport) -> Vec<String> {
    let fig = |t: sim_core::time::Nanos| t.as_nanos() as f64 / s.time_scale.as_nanos() as f64;
    s.apps
        .iter()
        .filter(|a| report.mean_gbps(s, &a.name, fig(a.start), fig(a.stop)) <= 0.0)
        .map(|a| a.name.clone())
        .collect()
}

fn check(out: &PassOut, det: &mut Determinism, report: &mut Report) {
    report.attempted += out.offered;
    let mut problems: Vec<String> = Vec::new();
    problems.extend(nic_conservation(&out.nic, out.verdicts));
    if out.delivered != out.nic.tx_packets || out.dropped != out.nic.offered - out.nic.tx_packets {
        problems.push(format!(
            "host accounting: delivered {} dropped {} vs NIC tx {} of {} offered",
            out.delivered, out.dropped, out.nic.tx_packets, out.nic.offered
        ));
    }
    problems.extend(det.check(out.counts.clone()));
    report.fail(out.offered, problems);
    if !out.idle_apps.is_empty() {
        report.precondition(format!(
            "apps delivered nothing in their active window: {}",
            out.idle_apps.join(", ")
        ));
    }
}

/// Statistics of the reference input (`--pins`).
pub fn reference_counts() -> Counts {
    pass(&scenario(REFERENCE_SEED), None, false).counts
}

pub fn run(args: &Args) -> Report {
    let started = Instant::now();
    let mut report = Report::default();
    let reference = scenario(REFERENCE_SEED);
    let seeded = scenario(args.seed);

    let rss_before = rss_bytes();
    let first = pass(&reference, None, true);
    let setup_rss_mb = first.rss_after_setup.saturating_sub(rss_before) as f64 / (1 << 20) as f64;
    check(&first, &mut Determinism::pinned("tcp_fairq"), &mut report);

    let budget = Duration::from_secs_f64(args.seconds).saturating_sub(started.elapsed());
    let mut det = Determinism::default();
    let mut one: Vec<PassOut> = Vec::new();
    if !args.trace {
        let mut two: Vec<f64> = Vec::new();
        round_robin(budget, 2, |kind| {
            if kind == 0 {
                let out = pass(&seeded, None, false);
                check(&out, &mut det, &mut report);
                one.push(out);
            } else {
                let mut rate = 0.0;
                for out in concurrent_pair(|| pass(&seeded, None, false)) {
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
    round_robin(budget, 2, |kind| {
        let out = pass(&seeded, (kind == 1).then_some(&mut log), false);
        check(&out, &mut det, &mut report);
        [&mut one, &mut traced][kind].push(out);
    });
    let (mut decide, mut wall, mut pkts) = (Acc::default(), 0.0, 0u64);
    for t in &traced {
        decide.merge(t.decide);
        wall += ns(t.timed);
        pkts += t.offered;
    }
    let per_pkt = |v: &[PassOut]| {
        fast_median(
            &v.iter().map(PassOut::ns_per_pkt).collect::<Vec<_>>(),
            false,
        )
    };
    let untraced = per_pkt(&one);
    let all = || one.iter().chain(&traced);
    let last = traced.last().expect("round_robin runs every pass kind");
    // The loop's self time is the remainder of the run after decisions,
    // so the layers tile the traced total exactly.
    let loop_ns = wall - decide.ns as f64;
    let layers = Layers {
        parse_us: median_us(all().map(|o| o.parse)),
        compile_us: median_us(all().map(|o| o.compile)),
        decide_ns: decide.mean_ns(),
        hostsim_loop_ns: loop_ns / pkts.max(1) as f64,
        hostsim_delivered: last.delivered as f64,
        hostsim_dropped: last.dropped as f64,
        trace_overhead_pct: (per_pkt(&traced) / untraced - 1.0) * 100.0,
        reconcile_err_pct: (wall - (loop_ns + decide.ns as f64)).abs() / wall.max(1.0) * 100.0,
        ..nic_layers(&last.nic, last.verdicts, &last.stats)
    };
    layers.finish(
        &mut report,
        &log,
        &format!("tcp_fairq-seed{}", args.seed),
        &["sim loop"],
    );
    report
}

//! The closed-loop host simulation engine.
//!
//! Drives the scenario's TCP connections (ACK-clocked, AIMD) through an
//! egress path, feeding losses and deliveries back into the senders. This
//! is the loop behind every throughput-over-time figure: schedulers shape
//! bandwidth by *dropping*, TCP converges onto what is left, and the
//! recorder bins the delivered bits into the figure's time series.

use std::sync::Arc;

use netstack::flow::FlowKey;
use netstack::packet::{Packet, PacketIdGen};
use netstack::tcp::TcpConn;
use np_sim::FaultInjector;
use sim_core::event::EventQueue;
use sim_core::rng::SimRng;
use sim_core::series::SeriesRecorder;
use sim_core::stats::Histogram;
use sim_core::time::Nanos;
use sim_core::units::WireFraming;

use crate::path::{EgressPath, Outcome};
use crate::scenario::Scenario;

/// Internal simulation events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A connection may try to send.
    ConnWake(usize),
    /// An ACK arrived for `(conn, seq)`.
    Ack(usize, u64),
    /// Loss of `(conn, seq)` was detected.
    Loss(usize, u64),
    /// Poll the egress path's scheduler.
    Poll,
    /// RTO watchdog for a connection: fires with the progress count at
    /// arming time; a stale count with inflight data means the window is
    /// stuck (e.g. packets starved inside a qdisc) and times out.
    Watchdog(usize, u64),
}

struct ConnState {
    app: usize,
    tcp: TcpConn,
    flow: FlowKey,
    /// Bumped on every ACK/loss; the RTO watchdog compares against it.
    progress: u64,
}

/// Results of one scenario run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-app delivered-bit time series.
    pub recorder: SeriesRecorder,
    /// One-way delay of delivered packets (all apps).
    pub delay: Histogram,
    /// One-way delay per app name.
    pub delay_per_app: std::collections::BTreeMap<String, Histogram>,
    /// Packets delivered to the receiver.
    pub delivered: u64,
    /// Packets dropped anywhere on the path.
    pub dropped: u64,
    /// The egress path's display name.
    pub path_name: &'static str,
    /// The simulated horizon.
    pub horizon: Nanos,
    /// Telemetry snapshot of the path's registry, captured at the horizon
    /// (after cold-path gauges were published).
    pub snapshot: fv_telemetry::Snapshot,
}

impl RunReport {
    /// One-way delay histogram of a single app (`None` if it delivered
    /// nothing).
    pub fn delay_of(&self, app: &str) -> Option<&Histogram> {
        self.delay_per_app.get(app)
    }

    /// Mean delivered rate of one app over the figure-axis window
    /// `[from_s, to_s)`, in Gbps.
    pub fn mean_gbps(&self, scenario: &Scenario, app: &str, from_s: f64, to_s: f64) -> f64 {
        let bin = scenario.time_scale; // one figure-second per bin
        match self.recorder.binned(app, bin) {
            Some(series) => series.mean_rate(from_s as usize, to_s as usize).as_gbps(),
            None => 0.0,
        }
    }
}

/// Runs `scenario` over `path`; returns the report and the path (whose
/// internal statistics the caller may inspect).
pub fn run(scenario: &Scenario, path: EgressPath) -> (RunReport, EgressPath) {
    run_with_chaos(scenario, path, None)
}

/// [`run`] with an optional fault injector whose host-side answers are
/// consulted on every send attempt ([`FaultInjector::app_paused_until`]:
/// the sender retries when the pause clears) and every DMA handoff
/// ([`FaultInjector::vf_down`]: frames DMA'd into a downed VF are lost at
/// the host boundary and surface as losses). With `None` the loop is
/// byte-identical to the clean run.
pub fn run_with_chaos(
    scenario: &Scenario,
    mut path: EgressPath,
    chaos: Option<Arc<dyn FaultInjector>>,
) -> (RunReport, EgressPath) {
    let mut rng = SimRng::seed(scenario.seed);
    let mut ids = PacketIdGen::new();
    let mut events: EventQueue<Ev> = EventQueue::with_capacity(1 << 16);
    let mut delay = Histogram::new_latency_ns();
    let mut delivered = 0u64;
    let mut dropped = 0u64;

    // Host-side per-VF DMA pacing (2x the link so the host never binds).
    let host_rate = scenario.link.saturating_add(scenario.link);
    let framing = WireFraming::ETHERNET;
    let mut vf_free = [Nanos::ZERO; 256];
    let mut poll_armed = false;

    // Per-app accounting is keyed by app name, and apps sharing a name
    // merge into one series and one delay histogram. Resolve every app to
    // its name slot once; the loop accumulates per slot, and the keyed maps
    // are built after it.
    let mut slot_names: Vec<&str> = Vec::new();
    let slot_of_app: Vec<usize> = scenario
        .apps
        .iter()
        .map(|app| {
            slot_names
                .iter()
                .position(|&n| n == app.name)
                .unwrap_or_else(|| {
                    slot_names.push(&app.name);
                    slot_names.len() - 1
                })
        })
        .collect();
    let mut slot_samples: Vec<Vec<(Nanos, u64)>> = vec![Vec::new(); slot_names.len()];
    let mut slot_delay: Vec<Histogram> = (0..slot_names.len())
        .map(|_| Histogram::new_latency_ns())
        .collect();

    // Build connections. Connection `c` of app `ai` sends from
    // 10.0.<ai+1>.1:<40000+c>, so a packet's flow names its connection
    // directly (`conn_of`); that addressing is unique for up to 255 apps
    // of 25 536 connections each.
    assert!(
        scenario.apps.len() <= 255 && scenario.apps.iter().all(|a| a.conns <= 25_536),
        "scenario exceeds the per-connection flow addressing (255 apps x 25536 connections)"
    );
    let mut conns: Vec<ConnState> = Vec::new();
    let mut first_conn: Vec<usize> = Vec::with_capacity(scenario.apps.len());
    for (ai, app) in scenario.apps.iter().enumerate() {
        first_conn.push(conns.len());
        for c in 0..app.conns {
            let flow = FlowKey::tcp(
                [10, 0, (ai + 1) as u8, 1],
                40_000 + c as u16,
                [10, 0, 255, 1],
                app.dst_port,
            );
            conns.push(ConnState {
                app: ai,
                tcp: TcpConn::new(scenario.mss, scenario.init_cwnd),
                flow,
                progress: 0,
            });
        }
    }
    // The connection that owns `flow` (inverse of the addressing above).
    let conn_of = |conns: &[ConnState], flow: &FlowKey| -> Option<usize> {
        let ai = (flow.src_ip.octets()[2] as usize).checked_sub(1)?;
        let c = flow.src_port.checked_sub(40_000)? as usize;
        let ci = first_conn.get(ai)? + c;
        conns.get(ci).filter(|conn| conn.flow == *flow).map(|_| ci)
    };
    for (ci, conn) in conns.iter().enumerate() {
        let start = scenario.apps[conn.app].start
            + Nanos::from_nanos(rng.range(0, scenario.base_rtt.as_nanos().max(2)));
        events.schedule(start, Ev::ConnWake(ci));
    }

    let ack_delay = scenario.base_rtt / 2;
    // Generous RTO: late enough that ordinary queueing never fires it,
    // early enough to unstick starved flows within a figure bin.
    let rto = scenario.base_rtt * 16 + Nanos::from_millis(2);

    // One send attempt for `ci` at time `now`.
    macro_rules! try_send {
        ($ci:expr, $now:expr) => {{
            let ci: usize = $ci;
            let now: Nanos = $now;
            let app = &scenario.apps[conns[ci].app];
            let paused = chaos
                .as_deref()
                .and_then(|h| h.app_paused_until(app.app, now));
            if let Some(until) = paused {
                // Frozen process: nothing leaves until the pause clears.
                if app.active_at(now) && conns[ci].tcp.can_send() {
                    events.schedule(until.max(now + Nanos::from_nanos(1)), Ev::ConnWake(ci));
                }
            } else if app.active_at(now) && conns[ci].tcp.can_send() {
                let seq = conns[ci].tcp.on_send();
                let vf = app.vf;
                let slot = &mut vf_free[vf.0 as usize];
                let t_send = (*slot).max(now);
                *slot = t_send + framing.serialization_time(host_rate, scenario.frame_len as u64);
                if chaos.as_deref().is_some_and(|h| h.vf_down(vf, t_send)) {
                    // DMA into a VF under reset: lost at the host boundary;
                    // the sender learns of it like any other loss.
                    ids.next_id();
                    dropped += 1;
                    events.schedule(t_send + scenario.base_rtt, Ev::Loss(ci, seq));
                } else {
                    let pkt = Packet::new(
                        ids.next_id(),
                        conns[ci].flow,
                        scenario.frame_len,
                        app.app,
                        vf,
                        t_send,
                    )
                    .with_seq(seq);
                    let (outcome, arm) = path.send(pkt, t_send);
                    if let Some(out) = outcome {
                        match out {
                            Outcome::Delivered { pkt, at } => {
                                delivered += 1;
                                let slot = slot_of_app[conns[ci].app];
                                slot_samples[slot].push((at, pkt.frame_bits()));
                                let d = at.saturating_sub(pkt.created_at).as_nanos();
                                delay.record(d);
                                slot_delay[slot].record(d);
                                events.schedule(at + ack_delay, Ev::Ack(ci, seq));
                            }
                            Outcome::Dropped { at, .. } => {
                                dropped += 1;
                                events.schedule(at + scenario.base_rtt, Ev::Loss(ci, seq));
                            }
                        }
                    }
                    if arm && !poll_armed {
                        poll_armed = true;
                        events.schedule(t_send, Ev::Poll);
                    }
                }
                // Pace the next segment of this window and arm the RTO.
                if conns[ci].tcp.can_send() {
                    events.schedule(*slot, Ev::ConnWake(ci));
                }
                events.schedule(t_send + rto, Ev::Watchdog(ci, conns[ci].progress));
            }
        }};
    }

    while let Some((now, ev)) = events.pop() {
        if now > scenario.horizon {
            break;
        }
        match ev {
            Ev::ConnWake(ci) => try_send!(ci, now),
            Ev::Ack(ci, seq) => {
                conns[ci].tcp.on_ack(seq);
                conns[ci].progress += 1;
                try_send!(ci, now);
            }
            Ev::Loss(ci, seq) => {
                conns[ci].tcp.on_loss(seq);
                conns[ci].progress += 1;
                try_send!(ci, now);
            }
            Ev::Watchdog(ci, progress) => {
                if conns[ci].progress == progress && conns[ci].tcp.inflight() > 0 {
                    conns[ci].tcp.on_timeout();
                    conns[ci].progress += 1;
                    try_send!(ci, now);
                }
            }
            Ev::Poll => {
                let (outcome, next) = path.poll(now);
                if let Some(out) = outcome {
                    match out {
                        Outcome::Delivered { pkt, at } => {
                            delivered += 1;
                            let slot = slot_of_app[pkt.app.0 as usize];
                            slot_samples[slot].push((at, pkt.frame_bits()));
                            let d = at.saturating_sub(pkt.created_at).as_nanos();
                            delay.record(d);
                            slot_delay[slot].record(d);
                            if let Some(ci) = conn_of(&conns, &pkt.flow) {
                                events.schedule(at + ack_delay, Ev::Ack(ci, pkt.seq));
                            }
                        }
                        Outcome::Dropped { pkt, at } => {
                            dropped += 1;
                            if let Some(ci) = conn_of(&conns, &pkt.flow) {
                                events.schedule(at + scenario.base_rtt, Ev::Loss(ci, pkt.seq));
                            }
                        }
                    }
                }
                match next {
                    Some(t) => events.schedule(t.max(now + Nanos::from_nanos(1)), Ev::Poll),
                    None => poll_armed = false,
                }
            }
        }
    }

    // Only apps that delivered something get a series and a histogram.
    let mut recorder = SeriesRecorder::new();
    let mut delay_per_app = std::collections::BTreeMap::new();
    for ((name, samples), hist) in slot_names.into_iter().zip(slot_samples).zip(slot_delay) {
        if !samples.is_empty() {
            recorder.extend(name, samples);
            delay_per_app.insert(name.to_owned(), hist);
        }
    }

    let snapshot = path.telemetry_snapshot(scenario.horizon);
    (
        RunReport {
            recorder,
            delay,
            delay_per_app,
            delivered,
            dropped,
            path_name: path.name(),
            horizon: scenario.horizon,
            snapshot,
        },
        path,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AppSpec;
    use flowvalve::frontend::Policy;
    use flowvalve::pipeline::FlowValvePipeline;
    use flowvalve::tree::TreeParams;
    use netstack::packet::{AppId, VfPort};
    use np_sim::config::NicConfig;
    use np_sim::nic::{PassthroughDecider, SmartNic};
    use sim_core::units::BitRate;

    fn one_app_scenario(conns: usize) -> Scenario {
        let mut s = Scenario::new(BitRate::from_gbps(10.0), Nanos::from_millis(50));
        s.apps = vec![AppSpec::new(
            "App0",
            0,
            0,
            9000,
            conns,
            Nanos::ZERO,
            Nanos::from_millis(50),
        )];
        s
    }

    #[test]
    fn single_tcp_flow_fills_a_passthrough_10g_nic() {
        let s = one_app_scenario(4);
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let (report, _path) = run(&s, EgressPath::flowvalve(nic));
        assert!(report.delivered > 0);
        // Steady-state (after 10 ms of slow start) should approach 10 Gbps.
        let series = report
            .recorder
            .binned("App0", Nanos::from_millis(5))
            .unwrap();
        let late = series.mean_rate(2, series.rates.len()).as_gbps();
        assert!(late > 8.0, "late-window rate {late} Gbps");
    }

    #[test]
    fn flowvalve_policy_throttles_the_flow() {
        // Policy: everything into a 2 Gbps leaf.
        let s = one_app_scenario(4);
        let policy = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 ceil 2gbit\n",
        )
        .unwrap();
        let cfg = NicConfig::agilio_cx_10g();
        let pipe = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).unwrap();
        let nic = SmartNic::new(cfg, Box::new(pipe));
        let (report, _path) = run(&s, EgressPath::flowvalve(nic));
        let series = report
            .recorder
            .binned("App0", Nanos::from_millis(5))
            .unwrap();
        let late = series.mean_rate(4, series.rates.len()).as_gbps();
        assert!((1.2..2.6).contains(&late), "throttled rate {late} Gbps");
        assert!(report.dropped > 0, "rate control works by dropping");
    }

    #[test]
    fn apps_stop_sending_at_their_stop_time() {
        let mut s = one_app_scenario(2);
        s.apps[0].stop = Nanos::from_millis(10);
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let (report, _path) = run(&s, EgressPath::flowvalve(nic));
        let series = report
            .recorder
            .binned("App0", Nanos::from_millis(5))
            .unwrap();
        // Bins after 15 ms are empty (allowing in-flight stragglers in 10-15).
        for (i, r) in series.rates.iter().enumerate().skip(3) {
            assert_eq!(r.as_bps(), 0, "bin {i} not empty");
        }
    }

    #[test]
    fn report_snapshot_covers_nic_and_scheduler() {
        let s = one_app_scenario(4);
        let policy = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 ceil 2gbit\n",
        )
        .unwrap();
        let cfg = NicConfig::agilio_cx_10g();
        let pipe = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).unwrap();
        let nic = SmartNic::new(cfg, Box::new(pipe));
        let (report, _path) = run(&s, EgressPath::flowvalve(nic));
        let snap = &report.snapshot;
        // NIC-level counters agree with the report's own accounting.
        assert_eq!(snap.counter("nic.tx_packets"), report.delivered);
        assert!(snap.counter("nic.sched_drops") > 0);
        // Per-class scheduler verdicts reached the same registry.
        assert!(snap.counter("fv.class.1:10.forwarded") > 0);
        assert!(snap.counter("fv.class.1:10.dropped") > 0);
        // The latency histogram saw every transmitted packet.
        let h = snap.histogram("nic.latency_ns").unwrap();
        assert_eq!(h.count, report.delivered);
        assert!(h.p99 >= h.p50 && h.p50 > 0);
    }

    #[test]
    fn host_pause_silences_the_window_and_recovers() {
        /// App 0 frozen inside `[20ms, 30ms)`.
        #[derive(Debug)]
        struct Pause;
        impl FaultInjector for Pause {
            fn app_paused_until(&self, app: AppId, now: Nanos) -> Option<Nanos> {
                let (from, to) = (Nanos::from_millis(20), Nanos::from_millis(30));
                (app.0 == 0 && now >= from && now < to).then_some(to)
            }
        }
        let s = one_app_scenario(4);
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let (report, _path) = run_with_chaos(&s, EgressPath::flowvalve(nic), Some(Arc::new(Pause)));
        let series = report
            .recorder
            .binned("App0", Nanos::from_millis(5))
            .unwrap();
        // The paused window (bins 4-5) delivers almost nothing; afterwards
        // the connections resume and climb back toward line rate.
        let during = series.rates[4].as_gbps() + series.rates[5].as_gbps();
        assert!(during < 1.0, "rate during pause {during} Gbps");
        let after = series.mean_rate(7, series.rates.len()).as_gbps();
        assert!(after > 5.0, "post-pause rate {after} Gbps");
    }

    #[test]
    fn vf_reset_drops_at_the_host_boundary() {
        /// VF 0 down for the whole run: every send is lost on the host.
        #[derive(Debug)]
        struct Down;
        impl FaultInjector for Down {
            fn vf_down(&self, vf: VfPort, _now: Nanos) -> bool {
                vf.0 == 0
            }
        }
        let mut s = one_app_scenario(1);
        s.horizon = Nanos::from_millis(5);
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let (report, path) = run_with_chaos(&s, EgressPath::flowvalve(nic), Some(Arc::new(Down)));
        assert_eq!(report.delivered, 0);
        assert!(report.dropped > 0);
        // The NIC never saw a packet — the loss happened on the host side.
        let EgressPath::FlowValve { nic } = path else {
            panic!()
        };
        assert_eq!(nic.stats().offered, 0);
    }

    #[test]
    fn chaos_none_matches_plain_run() {
        let s = one_app_scenario(2);
        let go = |chaos: Option<Arc<dyn FaultInjector>>| {
            let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
            let (r, _) = run_with_chaos(&s, EgressPath::flowvalve(nic), chaos);
            (r.delivered, r.dropped)
        };
        assert_eq!(go(None), go(None));
        let (plain, _) = {
            let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
            run(&s, EgressPath::flowvalve(nic))
        };
        assert_eq!(go(None), (plain.delivered, plain.dropped));
    }

    #[test]
    fn apps_sharing_a_name_merge_into_one_series_and_histogram() {
        let mut s = one_app_scenario(2);
        s.horizon = Nanos::from_millis(10);
        let app = |name: &str, id: u16| {
            AppSpec::new(name, id, id as u8, 9000 + id, 2, Nanos::ZERO, s.horizon)
        };
        let go = |names: [&str; 3]| {
            let mut s = s.clone();
            s.apps = (0..3).map(|i| app(names[i], i as u16)).collect();
            let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
            run(&s, EgressPath::flowvalve(nic)).0
        };
        let split = go(["a", "b", "c"]);
        let merged = go(["dup", "c", "dup"]);
        assert_eq!(merged.delivered, split.delivered);
        assert_eq!(merged.recorder.names(), vec!["c", "dup"]);
        let bits = |r: &RunReport, n: &str| r.recorder.total_bits(n);
        assert!(bits(&split, "a") > 0 && bits(&split, "c") > 0);
        assert_eq!(bits(&merged, "dup"), bits(&split, "a") + bits(&split, "c"));
        assert_eq!(bits(&merged, "c"), bits(&split, "b"));
        assert_eq!(merged.delay_per_app.len(), 2);
        let count = |r: &RunReport, n: &str| r.delay_of(n).unwrap().count();
        assert_eq!(
            count(&merged, "dup"),
            count(&split, "a") + count(&split, "c")
        );
        assert_eq!(count(&merged, "c"), count(&split, "b"));
    }

    #[test]
    #[should_panic(expected = "flow addressing")]
    fn scenarios_beyond_the_flow_addressing_are_refused() {
        let mut s = one_app_scenario(1);
        s.apps[0].conns = 25_537;
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let _ = run(&s, EgressPath::flowvalve(nic));
    }

    #[test]
    fn run_is_deterministic() {
        let s = one_app_scenario(2);
        let go = || {
            let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
            let (r, _) = run(&s, EgressPath::flowvalve(nic));
            (r.delivered, r.dropped)
        };
        assert_eq!(go(), go());
    }
}

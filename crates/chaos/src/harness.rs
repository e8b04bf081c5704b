//! The saturation driver behind every `fv` report, and the resilience
//! harness built on it.
//!
//! [`run_saturation`] replays the paper's saturation setup: one TCP flow
//! per filter, each offered an equal slice of 1.5x line rate for 10 ms on
//! the Agilio CX 40G model. `fv demo`, `stats`, `check`, `trace`,
//! `timeseries`, `profile`, `top`, `why`, `audit` and `fv chaos` all run
//! it; they differ only in their [`RunOptions`]. With a [`FaultPlan`] the
//! run is faulted: a [`ChaosController`] answers every
//! [`np_sim::FaultInjector`] hook (the NIC's traffic manager, worker pool
//! and lock table, the FlowValve scheduler clock, and the host side the
//! driver itself plays), and `reconfig` faults hot-reload the policy
//! mid-run with every rate scaled, restoring the original when the window
//! closes.
//!
//! [`run_chaos`] drives a faulted run, then judges it: one
//! [`fv_scope::Slo::RateRecovers`] assertion per completed fault window
//! checks that aggregate NIC throughput returned to the root rate's
//! conformance band — the paper's pitch is that the offloaded scheduler
//! keeps shaping through disturbance, and this is where that claim is
//! pinned.

use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::{SchedulingTree, TreeParams};
use fv_audit::{BucketSnapshot, Ledger, ProvenanceRing, Sampler};
use fv_scope::{evaluate, CheckReport, SamplerConfig, Slo, TimeSampler};
use fv_telemetry::json::{JsonValue, ToJson};
use fv_telemetry::{Registry, Snapshot, SpanSink};
use netstack::flow::FlowKey;
use netstack::gen::{ArrivalProcess, LineRateProcess};
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use np_sim::config::NicConfig;
use np_sim::cost::CycleAttr;
use np_sim::lock::PerLockStats;
use np_sim::nic::SmartNic;
use np_sim::FaultInjector;
use sim_core::rng::SimRng;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

use crate::inject::ChaosController;
use crate::plan::FaultPlan;

/// Virtual time granted after a fault clears before recovery is judged.
pub const SETTLE: Nanos = Nanos::from_micros(500);

/// Everything a chaos run produces.
#[derive(Debug)]
pub struct ChaosReport {
    /// The executed plan.
    pub plan: FaultPlan,
    /// Simulated run length.
    pub horizon: Nanos,
    /// Number of driven flows.
    pub flows: usize,
    /// End-of-run registry snapshot (includes `chaos.*` and fault-drop
    /// counters).
    pub snapshot: Snapshot,
    /// The virtual-time sampler that watched the run, for further SLO
    /// evaluation (e.g. per-class conformance over custom windows).
    pub sampler: TimeSampler,
    /// Recovery assertions, one per completed fault window.
    pub recovery: CheckReport,
    /// Faults whose recovery could not be judged (window ends too late).
    pub unchecked: Vec<String>,
    /// Per-lock attribution rows from the run, for contention profiling
    /// (not serialized — `fv-probe` folds them into its own report).
    pub per_lock: Vec<PerLockStats>,
    /// End-of-run bucket-slab snapshot, for the fv-audit conservation
    /// ledger (not serialized — `fv audit` folds it into its own report).
    pub slab: Vec<BucketSnapshot>,
}

impl ChaosReport {
    /// Whether every recovery assertion held.
    pub fn passed(&self) -> bool {
        self.recovery.passed()
    }

    /// Renders a terminal summary: injections, fault drops, recovery.
    pub fn render(&self) -> String {
        let snap = &self.snapshot;
        let mut out = format!(
            "chaos: {} ms horizon, {} flows, {} faults planned (seed {})\n",
            self.horizon.as_nanos() / 1_000_000,
            self.flows,
            self.plan.faults.len(),
            self.plan.seed,
        );
        for f in &self.plan.faults {
            out.push_str(&format!(
                "  fault {:<10} [{} us, {} us)\n",
                f.kind.name(),
                f.at.as_nanos() / 1_000,
                f.end().as_nanos() / 1_000,
            ));
        }
        out.push_str(&format!(
            "injected {} cleared {} | tm fault-drops {} host-skipped {}\n\n",
            snap.counter("chaos.faults_injected"),
            snap.counter("chaos.faults_cleared"),
            snap.counter("tm.fifo.fault_drops"),
            snap.counter("chaos.host_skipped"),
        ));
        for note in &self.unchecked {
            out.push_str(&format!("{note}\n"));
        }
        out.push_str(&self.recovery.render());
        out
    }
}

impl ToJson for ChaosReport {
    fn to_json(&self) -> JsonValue {
        let snap = &self.snapshot;
        JsonValue::obj([
            ("plan", self.plan.to_json()),
            ("horizon_ns", JsonValue::UInt(self.horizon.as_nanos())),
            ("flows", JsonValue::UInt(self.flows as u64)),
            (
                "chaos",
                JsonValue::obj([
                    (
                        "faults_injected",
                        JsonValue::UInt(snap.counter("chaos.faults_injected")),
                    ),
                    (
                        "faults_cleared",
                        JsonValue::UInt(snap.counter("chaos.faults_cleared")),
                    ),
                    (
                        "tm_fault_drops",
                        JsonValue::UInt(snap.counter("tm.fifo.fault_drops")),
                    ),
                    (
                        "nic_fault_drops",
                        JsonValue::UInt(snap.counter("nic.fault_drops")),
                    ),
                    (
                        "host_skipped",
                        JsonValue::UInt(snap.counter("chaos.host_skipped")),
                    ),
                ]),
            ),
            ("recovery", self.recovery.to_json()),
            (
                "unchecked",
                JsonValue::arr(self.unchecked.iter().map(|s| JsonValue::Str(s.clone()))),
            ),
            ("passed", JsonValue::Bool(self.passed())),
            ("snapshot", self.snapshot.to_json()),
        ])
    }
}

/// Scales every class rate/ceil by `permille`/1000 (floor 1 bps).
fn scale_policy(policy: &Policy, permille: u64) -> Policy {
    let mut scaled = policy.clone();
    let scale = |r: BitRate| BitRate::from_bps((r.as_bps().saturating_mul(permille) / 1000).max(1));
    for c in &mut scaled.classes {
        c.rate = c.rate.map(scale);
        c.ceil = c.ceil.map(scale);
    }
    scaled
}

/// Provenance-ring slots for an audited run; at the CLI's 1-in-64
/// sampling this retains a lossless window of 262144 packet ids, several
/// times the 10 ms run's packet count.
const AUDIT_RING_CAPACITY: usize = 4096;

/// What a saturation run attaches beyond the policy itself.
pub struct RunOptions {
    /// Faults to inject. `None` installs no controller, registers no
    /// fault counters and seeds the workload with 1; a plan seeds it with
    /// [`FaultPlan::seed`].
    pub plan: Option<FaultPlan>,
    /// Event-ring capacity of the run's registry.
    pub ring_capacity: usize,
    /// Attach a virtual-time sampler with this configuration.
    pub sampler: Option<SamplerConfig>,
    /// Attribution probes: `CycleAttr` receives every cycle charge
    /// (stage × op × worker) and the sink every span stamp and
    /// classification verdict. Both are observers — the packet-level
    /// outcome is identical with or without them.
    pub probes: Option<(Arc<CycleAttr>, Arc<dyn SpanSink>)>,
    /// Sampled provenance capture, 1 packet id in 2^shift. After the run
    /// the records are folded through the conservation ledger into
    /// `audit.*` counters. An observer too.
    pub audit: Option<u32>,
}

impl RunOptions {
    /// `fv chaos`'s configuration: `plan`, a 4096-slot event ring and a
    /// 100 µs sampler (fine enough to resolve a recovery window), no
    /// probes and no provenance capture.
    pub fn chaos(plan: FaultPlan) -> RunOptions {
        RunOptions {
            plan: Some(plan),
            ring_capacity: 4096,
            sampler: Some(SamplerConfig::default().with_interval(Nanos::from_micros(100))),
            probes: None,
            audit: None,
        }
    }
}

/// Everything a saturation run leaves for the reports built on it.
#[derive(Debug)]
pub struct SaturationRun {
    /// The plan the run executed, if any.
    pub plan: Option<FaultPlan>,
    /// Simulated run length.
    pub horizon: Nanos,
    /// The scheduling tree as compiled before the run (a `reconfig`
    /// fault reloads the pipeline, not this copy).
    pub tree: Arc<SchedulingTree>,
    /// The driven flows, one per filter in filter order.
    pub flows: Vec<FlowKey>,
    /// Rate each flow was offered.
    pub offered: BitRate,
    /// The run's registry, for its event ring.
    pub registry: Registry,
    /// End-of-run registry snapshot.
    pub snapshot: Snapshot,
    /// The sampler, when [`RunOptions::sampler`] asked for one.
    pub sampler: Option<TimeSampler>,
    /// Per-lock contention rows.
    pub per_lock: Vec<PerLockStats>,
    /// End-of-run bucket-slab snapshot.
    pub slab: Vec<BucketSnapshot>,
    /// The provenance ring, when [`RunOptions::audit`] asked for one.
    pub provenance: Option<Arc<ProvenanceRing>>,
}

/// The driver always runs the FlowValve pipeline.
fn pipeline(nic: &mut SmartNic) -> &mut FlowValvePipeline {
    nic.decider_as::<FlowValvePipeline>()
        .expect("the saturation driver runs the FlowValve pipeline")
}

/// Saturates every filtered class with an equal share of 1.5x line rate
/// for 10 ms of simulated time, with full telemetry attached.
///
/// Deterministic: the same `(policy, options)` pair produces the same
/// snapshot, trace ring and sampler frames on every run.
///
/// # Errors
///
/// Returns a message when the policy has no filters to drive or fails to
/// compile (including a mid-run `reconfig` compile failure, which aborts
/// rather than silently continuing unfaulted).
pub fn run_saturation(policy: &Policy, opts: RunOptions) -> Result<SaturationRun, String> {
    let cfg = NicConfig::agilio_cx_40g();
    let mut pipe = FlowValvePipeline::compile(policy, TreeParams::default(), &cfg)
        .map_err(|e| e.to_string())?;
    let tree = pipe.tree().clone();
    // One flow per filter, matched as precisely as the filter allows.
    let mut flows: Vec<(FlowKey, VfPort)> = Vec::new();
    for (i, f) in policy.filters.iter().enumerate() {
        let m = &f.matcher;
        let flow = FlowKey::tcp(
            [10, 0, 0, 10 + i as u8],
            m.src_port.unwrap_or(41_000 + i as u16),
            [10, 0, 255, 1],
            m.dst_port.unwrap_or(5_000 + i as u16),
        );
        flows.push((flow, m.vf.unwrap_or(VfPort(i as u8))));
    }
    if flows.is_empty() {
        return Err("no filters to drive".into());
    }

    let registry = Registry::with_ring_capacity(opts.ring_capacity);
    // Under a plan, one controller answers every fault hook.
    let chaos = opts.plan.as_ref().map(|plan| {
        let controller = Arc::new(ChaosController::new(plan.clone(), &registry));
        pipe.install_chaos_hook(controller.clone());
        (controller, registry.counter("chaos.host_skipped"))
    });
    let mut nic = SmartNic::with_registry(cfg.clone(), Box::new(pipe), &registry);
    pipeline(&mut nic).attach_telemetry(&registry);
    let provenance = opts.audit.map(|shift| {
        let ring = Arc::new(ProvenanceRing::sampled(AUDIT_RING_CAPACITY, shift));
        pipeline(&mut nic).attach_auditor(ring.clone(), Sampler::one_in_pow2(shift));
        ring
    });
    if let Some((attr, sink)) = opts.probes {
        nic.attach_probe(attr);
        registry.install_span_sink(sink);
    }
    if let Some((controller, _)) = &chaos {
        nic.install_fault_injector(controller.clone());
    }
    let mut sampler = opts.sampler.map(|cfg| TimeSampler::new(&registry, cfg));

    let horizon = Nanos::from_millis(10);
    let mut rng = SimRng::seed(opts.plan.as_ref().map_or(1, |p| p.seed));
    let mut ids = PacketIdGen::new();
    // Collectively oversubscribed, so the policy has something to decide.
    let offered = cfg.line_rate.scaled(3, 2 * flows.len() as u64);
    let mut gens: Vec<LineRateProcess> = flows
        .iter()
        .map(|_| LineRateProcess::new(offered, 1518, cfg.framing))
        .collect();
    let mut next: Vec<Nanos> = gens
        .iter_mut()
        .map(|g| Nanos::ZERO + g.next_arrival(&mut rng).0)
        .collect();
    // `reconfig` faults hot-reload the policy; track the applied scale so
    // each window reloads exactly once on entry and once on exit.
    let mut applied_scale: Option<u64> = None;

    loop {
        let (idx, &t) = next
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("flows is non-empty");
        if t >= horizon {
            break;
        }
        if let Some(s) = sampler.as_mut() {
            s.advance_to(t);
        }
        let (flow, vf) = flows[idx];
        let app = AppId(idx as u16);
        // Drawn either way, so the packet-id stream is the same whether or
        // not a host fault swallows the frame.
        let id = ids.next_id();
        let mut blocked = false;
        if let Some((controller, host_skipped)) = &chaos {
            controller.note_transitions(t);
            let want_scale = controller.plan().reconfig_scale_at(t);
            if want_scale != applied_scale {
                let target = want_scale.map_or_else(|| policy.clone(), |p| scale_policy(policy, p));
                pipeline(&mut nic)
                    .reload(&target, TreeParams::default(), &cfg)
                    .map_err(|e| format!("reconfig fault failed to compile: {e}"))?;
                applied_scale = want_scale;
            }
            // Host-side faults act before the NIC ever sees the frame: a
            // paused app offers nothing, a reset VF's frames die at the edge.
            blocked = controller.app_paused_until(app, t).is_some() || controller.vf_down(vf, t);
            if blocked {
                host_skipped.incr(0);
            }
        }
        if !blocked {
            let _ = nic.rx(&Packet::new(id, flow, 1518, app, vf, t), t);
        }
        next[idx] = t + gens[idx].next_arrival(&mut rng).0;
    }
    if let Some(s) = sampler.as_mut() {
        s.advance_to(horizon);
    }
    if let Some((controller, _)) = &chaos {
        controller.note_transitions(horizon);
    }

    // Publish cold-path gauges (per-engine utilization, θ/Γ) and capture.
    nic.sync_gauges(horizon);
    pipeline(&mut nic).sync_gauges(horizon);
    if chaos.is_some() {
        // How much is still queued on the wire when the run ends — after
        // the last fault clears this should have drained back to (near)
        // zero.
        registry
            .gauge("chaos.tm_backlog_bytes")
            .set(nic.tm_backlog_bytes(horizon));
    }
    let slab = pipeline(&mut nic).tree().slab_snapshot();
    // Fold the sampled provenance through the conservation ledger before
    // the snapshot, so `audit.*` counters are part of it.
    if let Some(ring) = &provenance {
        Ledger::audit(&ring.records(), &slab).install_counters(&registry, 0);
    }
    Ok(SaturationRun {
        plan: opts.plan,
        horizon,
        tree,
        flows: flows.into_iter().map(|(flow, _)| flow).collect(),
        offered,
        snapshot: registry.snapshot(horizon),
        registry,
        sampler,
        per_lock: nic.per_lock_stats().to_vec(),
        slab,
        provenance,
    })
}

/// Drives a run under `opts.plan` and judges recovery.
///
/// Deterministic: the same `(policy, options)` pair produces a
/// byte-identical [`ChaosReport::to_json`] document on every run.
///
/// # Errors
///
/// Returns [`run_saturation`]'s errors, and a message when `opts`
/// carries no plan or no sampler (recovery is judged on sampled rates).
pub fn run_chaos(policy: &Policy, opts: RunOptions) -> Result<ChaosReport, String> {
    let run = run_saturation(policy, opts)?;
    let (Some(plan), Some(sampler)) = (run.plan, run.sampler) else {
        return Err("a chaos run needs a fault plan and a sampler".into());
    };
    let (horizon, tree, snapshot) = (run.horizon, run.tree, run.snapshot);

    // One recovery assertion per fault window that ends early enough to
    // observe a post-settle window: aggregate throughput back in the root
    // rate's band.
    let root_rate = tree
        .class_ids()
        .into_iter()
        .filter_map(|id| tree.spec(id))
        .find(|s| s.parent.is_none())
        .and_then(|s| s.rate);
    let mut slos = Vec::new();
    let mut unchecked = Vec::new();
    for (i, f) in plan.faults.iter().enumerate() {
        let name = format!("fault {i} ({}) recovers by +{SETTLE}", f.kind.name());
        match root_rate {
            _ if f.end() + SETTLE >= horizon => unchecked.push(format!(
                "note: fault {i} ({}) unchecked (window ends at {} us, \
                 too close to the {} ms horizon)",
                f.kind.name(),
                f.end().as_nanos() / 1_000,
                horizon.as_nanos() / 1_000_000,
            )),
            Some(rate) => slos.push(Slo::RateRecovers {
                name,
                series: "nic.tx_bits".into(),
                min: 0.70 * rate.as_bps() as f64,
                max: 1.15 * rate.as_bps() as f64,
                clear: f.end(),
                within: SETTLE,
            }),
            None => unchecked.push(format!(
                "note: fault {i} ({}) unchecked (root class carries no rate)",
                f.kind.name(),
            )),
        }
    }

    let recovery = evaluate(&slos, &sampler, &snapshot, (Nanos::ZERO, horizon));
    Ok(ChaosReport {
        plan,
        horizon,
        flows: run.flows.len(),
        snapshot,
        sampler,
        recovery,
        unchecked,
        per_lock: run.per_lock,
        slab: run.slab,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: &str = "\
        fv qdisc add dev nic0 root handle 1: fv default 1:30\n\
        fv class add dev nic0 parent root classid 1:1 name root rate 40gbit\n\
        fv class add dev nic0 parent 1:1 classid 1:10 name kvs rate 15gbit prio 0\n\
        fv class add dev nic0 parent 1:1 classid 1:20 name web rate 15gbit prio 1\n\
        fv class add dev nic0 parent 1:1 classid 1:30 name bulk rate 10gbit prio 2\n\
        fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
        fv filter add dev nic0 match ip dport 5002 flowid 1:20\n\
        fv filter add dev nic0 match ip dport 5003 flowid 1:30\n";

    #[test]
    fn empty_plan_runs_clean_and_passes() {
        let policy = Policy::parse(POLICY).unwrap();
        let plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        let report = run_chaos(&policy, RunOptions::chaos(plan)).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.snapshot.counter("chaos.faults_injected"), 0);
        assert_eq!(report.snapshot.counter("tm.fifo.fault_drops"), 0);
        assert_eq!(report.snapshot.counter("nic.fault_drops"), 0);
        assert_eq!(report.snapshot.counter("chaos.host_skipped"), 0);
        assert!(report.snapshot.counter("nic.tx_packets") > 0);
    }

    #[test]
    fn wire_flap_is_injected_counted_and_recovered_from() {
        let policy = Policy::parse(POLICY).unwrap();
        let plan = FaultPlan::parse(
            "chaos seed 1\n\
             chaos fault wire_flap at 3ms for 2ms permille 250\n",
        )
        .unwrap();
        let report = run_chaos(&policy, RunOptions::chaos(plan)).unwrap();
        assert_eq!(report.snapshot.counter("chaos.faults_injected"), 1);
        assert_eq!(report.snapshot.counter("chaos.faults_cleared"), 1);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.recovery.results.len(), 1);
    }

    #[test]
    fn late_fault_is_reported_unchecked_not_failed() {
        let policy = Policy::parse(POLICY).unwrap();
        let plan = FaultPlan::parse("chaos fault wire_flap at 9ms for 1ms permille 500\n").unwrap();
        let report = run_chaos(&policy, RunOptions::chaos(plan)).unwrap();
        assert!(report.recovery.results.is_empty());
        assert_eq!(report.unchecked.len(), 1);
        assert!(report.passed(), "no judgeable window means a pass");
        assert!(report.render().contains("unchecked"));
    }
}

//! The NIC back-end pipeline: labeling function + scheduling function,
//! plugged into the SmartNIC model as an egress decider (paper Figure 5).

use std::sync::Arc;

use classifier::{CacheResult, Classifier, FilterRule};
use fv_audit::{
    AuditVerdict, DropCause, ProvenanceRecord, ProvenanceRing, Recorder, Sampler, StepKind,
};
use fv_telemetry::metrics::Counter;
use fv_telemetry::span::{SpanRecorder, Stage};
use fv_telemetry::trace::{EventRing, TraceKind};
use fv_telemetry::Registry;
use netstack::packet::Packet;
use np_sim::config::NicConfig;
use np_sim::cost::{AttrStage, CostMeter, Op};
use np_sim::fault::FaultInjector;
use np_sim::lock::LockTable;
use np_sim::nic::{Decision, EgressDecider};
use sim_core::time::{Cycles, Nanos};

use crate::error::ParseFvError;
use crate::frontend::Policy;
use crate::label::{ClassId, QosLabel};
use crate::program::{CompiledProgram, DecisionCache};
use crate::sched::{GlobalLockExec, SchedVerdict, SimExec};
use crate::tree::{SchedulingTree, TreeParams};

/// How scheduling-tree updates are serialized (the Figure 7 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockDiscipline {
    /// FlowValve's design: one try-lock per class (Figure 7(c)).
    #[default]
    PerClass,
    /// The kernel-HTB discipline transplanted onto the NIC: one global
    /// blocking lock serializes every update (Figure 7(b)); spin time is
    /// charged to the worker, so throughput collapses as cores contend.
    Global,
}

/// Per-class verdict counters, one set per scheduling-tree class.
struct ClassChannels {
    forwarded: Arc<Counter>,
    borrowed: Arc<Counter>,
    dropped: Arc<Counter>,
    lent: Arc<Counter>,
    tx_bits: Arc<Counter>,
}

/// Registry handles for the pipeline's per-class verdict accounting and
/// scheduler trace events (`fv.class.<id>.*` namespace).
struct PipelineTelemetry {
    registry: Registry,
    /// Indexed by tree node (`SchedulingTree::node_index`), so a verdict
    /// reaches its counters through the tree's direct id table instead of
    /// a hashed probe.
    per_class: Vec<ClassChannels>,
    ring: Arc<EventRing>,
    spans: SpanRecorder,
}

impl PipelineTelemetry {
    fn new(registry: &Registry, tree: &SchedulingTree) -> Self {
        let per_class = (0..tree.len())
            .map(|i| {
                let base = format!("fv.class.{}", tree.node(i).spec.id);
                ClassChannels {
                    forwarded: registry.counter(&format!("{base}.forwarded")),
                    borrowed: registry.counter(&format!("{base}.borrowed")),
                    dropped: registry.counter(&format!("{base}.dropped")),
                    lent: registry.counter(&format!("{base}.lent")),
                    tx_bits: registry.counter(&format!("{base}.tx_bits")),
                }
            })
            .collect();
        PipelineTelemetry {
            registry: registry.clone(),
            per_class,
            ring: registry.ring(),
            spans: SpanRecorder::new(registry),
        }
    }

    fn channels(&self, tree: &SchedulingTree, id: ClassId) -> Option<&ClassChannels> {
        tree.node_index(id).map(|i| &self.per_class[i])
    }

    fn record(
        &self,
        tree: &SchedulingTree,
        now: Nanos,
        leaf: ClassId,
        wire_bits: u64,
        verdict: SchedVerdict,
    ) {
        match verdict {
            SchedVerdict::Forward => {
                if let Some(c) = self.channels(tree, leaf) {
                    c.forwarded.incr(0);
                    c.tx_bits.add(0, wire_bits);
                }
                self.ring
                    .record(now, TraceKind::SchedForward, leaf.0 as u64, wire_bits);
            }
            SchedVerdict::Borrowed(lender) => {
                if let Some(c) = self.channels(tree, leaf) {
                    c.borrowed.incr(0);
                    c.tx_bits.add(0, wire_bits);
                }
                if let Some(c) = self.channels(tree, lender) {
                    c.lent.incr(0);
                }
                self.ring
                    .record(now, TraceKind::SchedBorrow, leaf.0 as u64, lender.0 as u64);
            }
            SchedVerdict::Drop => {
                if let Some(c) = self.channels(tree, leaf) {
                    c.dropped.incr(0);
                }
                self.ring
                    .record(now, TraceKind::SchedDrop, leaf.0 as u64, wire_bits);
            }
        }
    }
}

/// The pipeline's provenance-capture attachment: where sampled records
/// go and which packets are sampled.
#[derive(Debug, Clone)]
struct AuditHook {
    ring: Arc<ProvenanceRing>,
    sampler: Sampler,
}

/// FlowValve's on-NIC processing pipeline.
///
/// Owns the compiled policy: the flow classifier (filter table + exact
/// match flow cache) whose verdicts are ready-made [`QosLabel`]s, and the
/// shared scheduling tree. Implements [`EgressDecider`] so it slots
/// directly into [`np_sim::nic::SmartNic`].
///
/// # Example
///
/// ```
/// use flowvalve::frontend::Policy;
/// use flowvalve::pipeline::FlowValvePipeline;
/// use flowvalve::tree::TreeParams;
/// use np_sim::config::NicConfig;
/// use np_sim::nic::SmartNic;
///
/// let policy = Policy::parse(
///     "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
///      fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
///      fv class add dev nic0 parent 1:1 classid 1:10\n",
/// )?;
/// let cfg = NicConfig::agilio_cx_10g();
/// let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)?;
/// let nic = SmartNic::new(cfg, Box::new(pipeline));
/// assert!(format!("{nic:?}").contains("flowvalve"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FlowValvePipeline {
    tree: Arc<SchedulingTree>,
    classifier: Classifier<Option<QosLabel>>,
    /// The scheduling tree flattened into admission chains, one per label
    /// the classifier can emit, rebuilt on every reload.
    program: CompiledProgram,
    /// Direct-mapped label → chain cache fronting `program`, validated by
    /// `reload_gen` + the tree's epoch counter.
    cache: DecisionCache,
    /// Bumped on every hot reload; folded into the cache generation so
    /// chain ids never survive a recompile.
    reload_gen: u64,
    /// Compile work (chain steps) of the last hot reload, charged as
    /// `Op::ProgramCompile` on the next decision. The initial compile is
    /// configuration-time work (the NIC is not processing packets yet) and
    /// charges nothing.
    pending_compile_ops: u64,
    update_hold: Nanos,
    discipline: LockDiscipline,
    freq: sim_core::time::Freq,
    framing: sim_core::units::WireFraming,
    telemetry: Option<PipelineTelemetry>,
    /// Provenance capture: sampled decisions re-run nothing — the single
    /// walk executes with a recorder threaded through it and the finished
    /// record lands in the ring. `None` (the default) costs one branch.
    audit: Option<AuditHook>,
    chaos: Option<Arc<dyn FaultInjector>>,
    /// High-water mark of the (possibly skewed) scheduler clock, keeping
    /// it monotonic across fault windows.
    sched_floor: Nanos,
}

impl core::fmt::Debug for FlowValvePipeline {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FlowValvePipeline")
            .field("classes", &self.tree.len())
            .finish_non_exhaustive()
    }
}

impl FlowValvePipeline {
    /// Default flow-cache capacity (the hardware EMFC holds hundreds of
    /// thousands of entries; this is plenty for the reproduced workloads).
    pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

    /// Compiles a parsed policy into a runnable pipeline.
    ///
    /// # Errors
    ///
    /// Propagates tree-construction and label errors as
    /// [`ParseFvError::Build`].
    pub fn compile(
        policy: &Policy,
        params: TreeParams,
        nic: &NicConfig,
    ) -> Result<Self, ParseFvError> {
        let (tree, rules, default) = policy.compile(params)?;
        Ok(Self::from_parts(Arc::new(tree), rules, default, nic))
    }

    /// Assembles a pipeline from an already-built tree and classifier
    /// (e.g. with a non-default flow-cache capacity, for the cache
    /// ablation experiments).
    pub fn from_classifier(
        tree: Arc<SchedulingTree>,
        classifier: Classifier<Option<QosLabel>>,
        nic: &NicConfig,
    ) -> Self {
        // The guarded update section holds its lock for the class_update
        // cycle cost at the configured clock.
        let update_hold = nic.freq.duration_of(Cycles::new(nic.costs.class_update));
        let program = Self::build_program(&tree, &classifier);
        let cache = DecisionCache::new(tree.len().max(64));
        FlowValvePipeline {
            tree,
            classifier,
            program,
            cache,
            reload_gen: 0,
            pending_compile_ops: 0,
            update_hold,
            discipline: LockDiscipline::PerClass,
            freq: nic.freq,
            framing: nic.framing,
            telemetry: None,
            audit: None,
            chaos: None,
            sched_floor: Nanos::ZERO,
        }
    }

    /// Assembles a pipeline from an already-built tree and compiled rules.
    pub fn from_parts(
        tree: Arc<SchedulingTree>,
        rules: Vec<FilterRule<Option<QosLabel>>>,
        default: Option<QosLabel>,
        nic: &NicConfig,
    ) -> Self {
        Self::from_classifier(tree, Self::build_classifier(rules, default), nic)
    }

    /// A classifier over `rules` with the default flow-cache capacity.
    fn build_classifier(
        rules: Vec<FilterRule<Option<QosLabel>>>,
        default: Option<QosLabel>,
    ) -> Classifier<Option<QosLabel>> {
        let mut classifier = Classifier::new(default, Self::DEFAULT_CACHE_CAPACITY);
        for r in rules {
            classifier.add_rule(r);
        }
        classifier
    }

    /// Flattens `tree` into admission chains for every label the
    /// classifier can emit: each filter verdict plus the default class.
    /// Every decision therefore resolves to a chain.
    fn build_program(
        tree: &SchedulingTree,
        classifier: &Classifier<Option<QosLabel>>,
    ) -> CompiledProgram {
        let table = classifier.table();
        let labels = table
            .iter()
            .filter_map(|r| r.verdict.as_ref())
            .chain(table.default_verdict().iter());
        CompiledProgram::compile(tree, labels)
    }

    /// Installs a fault injector whose
    /// [`FaultInjector::sched_clock_skew`] is consulted on every scheduling
    /// decision (the dual-clock-skew fault). It sees the NIC clock and
    /// answers how far ahead the scheduler's clock runs; the pipeline
    /// keeps the skewed clock monotonic, so token-bucket epochs never run
    /// backwards when a skew window clears.
    pub fn install_chaos_hook(&mut self, hook: Arc<dyn FaultInjector>) {
        self.chaos = Some(hook);
    }

    /// Attaches sampled provenance capture. Decisions whose packet id the
    /// sampler selects run their one and only admission walk with a
    /// recorder threaded through it — nothing is re-executed — and the
    /// finished [`ProvenanceRecord`] lands in `ring`, resolvable by
    /// `fv why --pkt <id>`. Unsampled decisions pay a single predictable
    /// branch; without this call the capture code is erased entirely.
    pub fn attach_auditor(&mut self, ring: Arc<ProvenanceRing>, sampler: Sampler) {
        self.audit = Some(AuditHook { ring, sampler });
    }

    /// The attached provenance ring, if any.
    pub fn provenance_ring(&self) -> Option<&Arc<ProvenanceRing>> {
        self.audit.as_ref().map(|a| &a.ring)
    }

    /// Wires per-class verdict counters (`fv.class.<id>.*`), scheduler
    /// trace events, and the tree's refill telemetry into `registry`.
    /// Typically called with the same registry the owning
    /// [`np_sim::nic::SmartNic`] records into, so one snapshot covers the
    /// whole pipeline.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.tree.attach_telemetry(registry);
        self.telemetry = Some(PipelineTelemetry::new(registry, &self.tree));
    }

    /// Publishes point-in-time gauges — per-class θ/Γ in bits per second
    /// and flow-cache hit/miss totals — into the attached registry. A
    /// no-op without [`FlowValvePipeline::attach_telemetry`]; cold path,
    /// call right before taking a snapshot.
    pub fn sync_gauges(&self, now: Nanos) {
        let Some(t) = &self.telemetry else { return };
        for id in self.tree.class_ids() {
            if let Some(theta) = self.tree.theta(id) {
                t.registry
                    .gauge(&format!("fv.class.{id}.theta_bps"))
                    .set(theta.as_bps());
            }
            if let Some(gamma) = self.tree.gamma(id, now) {
                t.registry
                    .gauge(&format!("fv.class.{id}.gamma_bps"))
                    .set(gamma.as_bps());
            }
        }
        let cache = self.classifier.cache_stats();
        t.registry.gauge("fv.cache.hits").set(cache.hits);
        t.registry.gauge("fv.cache.misses").set(cache.misses);
    }

    /// Switches the update serialization discipline (builder-style); the
    /// Figure 7 ablation compares [`LockDiscipline::PerClass`] against
    /// [`LockDiscipline::Global`].
    pub fn with_lock_discipline(mut self, discipline: LockDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// The shared scheduling tree (for experiment-side telemetry).
    pub fn tree(&self) -> &Arc<SchedulingTree> {
        &self.tree
    }

    /// Hot-reloads the policy: compiles `policy` with the same parameters
    /// and atomically replaces the scheduling tree and the classifier.
    /// In-flight classification state (the flow cache) is invalidated, so
    /// the next packet of every flow re-classifies against the new rules —
    /// the runtime reconfiguration that fixed-function NIC traffic
    /// managers lack (paper §II-B).
    ///
    /// # Errors
    ///
    /// Returns [`ParseFvError`] and leaves the running policy untouched if
    /// the new policy does not compile.
    pub fn reload(
        &mut self,
        policy: &Policy,
        params: TreeParams,
        nic: &NicConfig,
    ) -> Result<(), ParseFvError> {
        let (tree, rules, default) = policy.compile(params)?;
        self.tree = Arc::new(tree);
        self.classifier = Self::build_classifier(rules, default);
        // Recompile the scheduling program against the new tree and
        // invalidate every cached resolution: the generation bump keeps
        // any straggler lookups from resolving against pre-reload state,
        // and the compile work is charged (Op::ProgramCompile) on the next
        // decision — paid at reconfiguration time, not per packet.
        self.program = Self::build_program(&self.tree, &self.classifier);
        self.cache.clear();
        self.reload_gen = self.reload_gen.wrapping_add(1);
        self.pending_compile_ops += self.program.compile_ops();
        self.update_hold = nic.freq.duration_of(Cycles::new(nic.costs.class_update));
        self.freq = nic.freq;
        self.framing = nic.framing;
        // Re-wire telemetry against the new tree: classes may have changed,
        // and the fresh tree has no ring attached yet. Counters for classes
        // that survive the reload keep accumulating.
        if let Some(t) = &self.telemetry {
            let registry = t.registry.clone();
            self.tree.attach_telemetry(&registry);
            self.telemetry = Some(PipelineTelemetry::new(&registry, &self.tree));
        }
        Ok(())
    }

    /// Flow-cache statistics.
    pub fn cache_stats(&self) -> classifier::CacheStats {
        self.classifier.cache_stats()
    }

    /// The compiled scheduling program currently installed.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// (hits, misses) of the per-flow decision cache. Misses cover cold
    /// flows *and* generation invalidations (reload, epoch roll,
    /// borrowing-state change).
    pub fn decision_cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

fn audit_verdict(verdict: SchedVerdict) -> AuditVerdict {
    match verdict {
        SchedVerdict::Forward => AuditVerdict::Forward,
        SchedVerdict::Borrowed(l) => AuditVerdict::Borrowed(l.0),
        SchedVerdict::Drop => AuditVerdict::Drop,
    }
}

/// Why a recorded walk refused its packet: the deciding (last red) step
/// names the refusal — a red ceiling meter is an OverCeil, any other red
/// meter is the leaf (and its lenders) out of tokens.
fn drop_cause(verdict: SchedVerdict, rec: &Recorder) -> Option<DropCause> {
    (verdict == SchedVerdict::Drop).then(|| {
        match rec.steps.iter().rev().find(|s| !s.green).map(|s| s.kind) {
            Some(StepKind::MeterCeil) => DropCause::OverCeil,
            _ => DropCause::NoTokens,
        }
    })
}

impl EgressDecider for FlowValvePipeline {
    fn decide(
        &mut self,
        pkt: &Packet,
        now: Nanos,
        meter: &mut CostMeter,
        locks: &mut LockTable,
    ) -> Decision {
        // Deferred reconfiguration charge: the hot reload recompiled the
        // scheduling program, and the control-plane work lands on the first
        // decision after it (figure drivers never reload, so their cost
        // streams are untouched).
        if self.pending_compile_ops > 0 {
            meter.set_stage(AttrStage::Sched);
            meter.charge_n(Op::ProgramCompile, self.pending_compile_ops);
            self.pending_compile_ops = 0;
        }
        // Labeling function: exact-match cache with table-walk fill, on
        // this worker's cache shard (per-island EMFC model — no false
        // sharing between workers' hit paths).
        let classify_t0 = meter.total();
        meter.set_stage(AttrStage::Classify);
        let (label, cache) = self
            .classifier
            .classify_at(meter.worker(), &pkt.flow, pkt.vf);
        let label = *label;
        meter.charge(match cache {
            CacheResult::Hit => Op::ClassifyHit,
            CacheResult::Miss => Op::ClassifyMiss,
        });
        // Wire bits (frame + preamble/IFG): what the token buckets meter
        // and what an attribution sink weighs heavy hitters by.
        let wire_bits = self.framing.wire_bits(pkt.frame_len as u64);
        // Classify span: the cycles this packet's labeling charged to the
        // worker, converted at the NIC clock. Starts when the worker picked
        // the packet up (`now` here is the dispatch start).
        let classify_dur = self.freq.duration_of(meter.total() - classify_t0);
        if let Some(t) = &self.telemetry {
            if let Some(sink) = t.spans.sink() {
                // Tell the attribution sink this packet's class before any
                // of its spans land, so every span attributes cleanly.
                let class = label.map(|l| l.leaf().0 as u64).unwrap_or(u64::MAX);
                sink.classify(pkt.id, class, pkt.flow.stable_hash(), wire_bits);
            }
            t.spans.record(Stage::Classify, now, pkt.id, classify_dur);
        }

        // Scheduling function (Algorithm 1); unlabeled traffic bypasses it.
        // Tokens are metered in *wire* bits: a tree whose root rate equals
        // the line rate must admit exactly what the wire can carry, or the
        // transmit FIFO builds a standing queue.
        meter.set_stage(AttrStage::Sched);
        match label {
            None => Decision::Forward,
            Some(label) => {
                // The scheduling function reads its own clock, which an
                // injected skew fault can run ahead of the NIC clock. Keep
                // it monotonic so epochs never rewind when the skew clears.
                let sched_now = match &self.chaos {
                    Some(h) => {
                        let skewed = now + h.sched_clock_skew(now);
                        self.sched_floor = self.sched_floor.max(skewed);
                        self.sched_floor
                    }
                    None => now,
                };
                let sched_t0 = meter.total();
                let verdict = match self.discipline {
                    LockDiscipline::PerClass => {
                        // Per-flow fast path: resolve the label to its
                        // compiled admission chain through the decision
                        // cache. Any reload, rate-estimation epoch roll or
                        // borrowing-state change moves the generation, so
                        // the stale entry misses and the resolution redoes
                        // one program lookup — there is no stale-verdict
                        // window. Each worker resolves through its own
                        // cache stripe (per-ME EMFC slice): no shared table
                        // lines between engines, at the price of one cold
                        // miss per worker per flow.
                        let gen = self.reload_gen.wrapping_add(self.tree.epoch());
                        let stripe = meter.worker();
                        let (chain, cache_hit) = match self.cache.lookup_at(stripe, &label, gen) {
                            Some(c) => (c, true),
                            None => {
                                let c = self.program.resolve(&label).expect(
                                    "the program compiles every label the classifier emits",
                                );
                                self.cache.insert_at(stripe, label, c, gen);
                                (c, false)
                            }
                        };
                        let mut exec = SimExec {
                            meter,
                            locks,
                            update_hold: self.update_hold,
                        };
                        match self.audit.as_ref().filter(|a| a.sampler.hit(pkt.id)) {
                            // Sampled: the same single walk runs with a
                            // recorder threaded through it; charges and
                            // verdict are identical to the unsampled path.
                            Some(audit) => {
                                let mut rec = Recorder::new();
                                let verdict = self.tree.schedule_compiled_observed(
                                    &self.program,
                                    chain,
                                    wire_bits,
                                    sched_now,
                                    &mut exec,
                                    &mut rec,
                                );
                                audit.ring.record(ProvenanceRecord {
                                    pkt_id: pkt.id,
                                    at: sched_now,
                                    leaf: label.leaf().0,
                                    wire_bits,
                                    verdict: audit_verdict(verdict),
                                    cause: drop_cause(verdict, &rec),
                                    cache_hit,
                                    generation: self.reload_gen.wrapping_add(self.tree.epoch()),
                                    reload_gen: self.reload_gen,
                                    epoch: self.tree.epoch(),
                                    chain: chain.index(),
                                    steps: rec.steps,
                                    refunds: rec.refunds,
                                });
                                verdict
                            }
                            None => self.tree.schedule_compiled(
                                &self.program,
                                chain,
                                wire_bits,
                                sched_now,
                                &mut exec,
                            ),
                        }
                    }
                    LockDiscipline::Global => {
                        let mut exec = GlobalLockExec {
                            meter,
                            locks,
                            update_hold: self.update_hold,
                            wait: Nanos::ZERO,
                        };
                        let verdict = self.tree.schedule(&label, wire_bits, sched_now, &mut exec);
                        // The worker spins while waiting for the global
                        // lock: charge the wait as busy cycles.
                        let wait = exec.wait;
                        meter.charge_cycles(self.freq.cycles_in(wait));
                        verdict
                    }
                };
                if let Some(t) = &self.telemetry {
                    // Sched span: every cycle the scheduling function
                    // charged (token meters, lock waits, updates), placed
                    // right after the classify span on the same worker.
                    let sched_dur = self.freq.duration_of(meter.total() - sched_t0);
                    t.spans
                        .record(Stage::Sched, now + classify_dur, pkt.id, sched_dur);
                    t.record(&self.tree, now, label.leaf(), wire_bits, verdict);
                }
                if verdict.passes() {
                    Decision::Forward
                } else {
                    Decision::Drop
                }
            }
        }
    }

    fn name(&self) -> &str {
        "flowvalve"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_audit::Sampler;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};
    use np_sim::config::CycleCosts;

    fn pipeline_10g() -> FlowValvePipeline {
        let policy = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 name hi prio 0\n\
             fv class add dev nic0 parent 1:1 classid 1:20 name lo prio 1\n\
             fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
             fv filter add dev nic0 match ip dport 5002 flowid 1:20\n",
        )
        .unwrap();
        FlowValvePipeline::compile(&policy, TreeParams::default(), &NicConfig::agilio_cx_10g())
            .unwrap()
    }

    fn pkt(id: u64, dport: u16) -> Packet {
        Packet::new(
            id,
            FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], dport),
            1250,
            AppId(0),
            VfPort(0),
            Nanos::ZERO,
        )
    }

    #[test]
    fn labeled_traffic_is_scheduled() {
        let mut p = pipeline_10g();
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        // Conforming packet passes.
        let d = p.decide(&pkt(0, 5001), Nanos::from_micros(1), &mut meter, &mut locks);
        assert_eq!(d, Decision::Forward);
        // Costs were charged: classify miss + at least one lock/atomic op.
        assert!(meter.total().get() > 0);
    }

    #[test]
    fn unmatched_traffic_bypasses_without_default() {
        let mut p = pipeline_10g();
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        let d = p.decide(&pkt(0, 9999), Nanos::from_micros(1), &mut meter, &mut locks);
        assert_eq!(d, Decision::Forward);
        // Only classification was charged — no scheduling ops.
        assert_eq!(meter.total().get(), CycleCosts::agilio().classify_miss);
    }

    #[test]
    fn second_packet_hits_the_cache() {
        let mut p = pipeline_10g();
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        let _ = p.decide(&pkt(0, 5001), Nanos::from_micros(1), &mut meter, &mut locks);
        let s = p.cache_stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        let _ = p.decide(&pkt(1, 5001), Nanos::from_micros(2), &mut meter, &mut locks);
        let s = p.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn overload_is_dropped_by_the_scheduler() {
        let mut p = pipeline_10g();
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        // 10 kbit packets every 500 ns = 20 Gbps offered to a 10 Gbps tree.
        let mut drops = 0;
        for i in 0..20_000u64 {
            let now = Nanos::from_nanos(i * 500);
            if p.decide(&pkt(i, 5002), now, &mut meter, &mut locks) == Decision::Drop {
                drops += 1;
            }
        }
        let ratio = drops as f64 / 20_000.0;
        assert!((0.35..0.65).contains(&ratio), "drop ratio {ratio}");
    }

    #[test]
    fn tree_telemetry_is_reachable() {
        let p = pipeline_10g();
        assert_eq!(p.tree().len(), 3);
    }

    #[test]
    fn telemetry_mirrors_per_class_verdicts() {
        let mut p = pipeline_10g();
        let registry = Registry::new();
        p.attach_telemetry(&registry);
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        // Same overload as `overload_is_dropped_by_the_scheduler`: 20 Gbps
        // offered to a 10 Gbps tree, so class 1:20 both forwards and drops.
        let mut fwd = 0u64;
        let mut drops = 0u64;
        for i in 0..20_000u64 {
            let now = Nanos::from_nanos(i * 500);
            match p.decide(&pkt(i, 5002), now, &mut meter, &mut locks) {
                Decision::Forward => fwd += 1,
                Decision::Drop => drops += 1,
            }
        }
        let end = Nanos::from_nanos(20_000 * 500);
        p.sync_gauges(end);
        let snap = registry.snapshot(end);
        // Registry counters agree with the decisions the caller saw.
        assert_eq!(snap.counter("fv.class.1:20.forwarded"), fwd);
        assert_eq!(snap.counter("fv.class.1:20.dropped"), drops);
        assert!(drops > 0);
        // The idle sibling never produced a verdict.
        assert_eq!(snap.counter("fv.class.1:10.forwarded"), 0);
        // Refill epochs fired and were traced by the tree.
        assert!(snap.counter("fv.tree.updates") > 0);
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == TraceKind::SchedDrop && e.a == 20));
        // Refill events are sparse (one epoch per 50 us), so look past the
        // snapshot's 64-event tail into the full ring.
        let ring = registry.ring();
        assert!(ring
            .recent(ring.capacity())
            .iter()
            .any(|e| e.kind == TraceKind::TokenRefill));
        // sync_gauges published the configured rate for the leaf.
        match snap.get("fv.class.1:20.theta_bps") {
            Some(fv_telemetry::MetricValue::Gauge { value, .. }) => {
                assert!(*value > 0, "theta gauge should be non-zero");
            }
            other => panic!("expected theta gauge, got {other:?}"),
        }
    }

    #[test]
    fn clock_skew_hook_keeps_scheduler_time_monotonic() {
        /// Runs the scheduler clock 100 us ahead inside `[0, 10us)`.
        #[derive(Debug)]
        struct Skew;
        impl FaultInjector for Skew {
            fn sched_clock_skew(&self, now: Nanos) -> Nanos {
                if now < Nanos::from_micros(10) {
                    Nanos::from_micros(100)
                } else {
                    Nanos::ZERO
                }
            }
        }
        let mut p = pipeline_10g();
        p.install_chaos_hook(Arc::new(Skew));
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        // Inside the window the scheduler sees t ≈ 100 us; once the skew
        // clears, its clock must not rewind below the floor — the packets
        // at 20..100 us keep scheduling against a ≥ 100 us clock, so no
        // epoch rewind panics or double refills occur and packets at a
        // conforming rate still pass.
        let mut fwd = 0;
        for i in 0..50u64 {
            let now = Nanos::from_micros(i * 2);
            if p.decide(&pkt(i, 5001), now, &mut meter, &mut locks) == Decision::Forward {
                fwd += 1;
            }
        }
        // 1250 B every 2 us = 5 Gbps offered to a 10 Gbps class.
        assert_eq!(fwd, 50);
        assert!(p.sched_floor >= Nanos::from_micros(100));
    }

    #[test]
    fn decide_stamps_classify_and_sched_spans() {
        let mut p = pipeline_10g();
        let registry = Registry::new();
        p.attach_telemetry(&registry);
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        let _ = p.decide(&pkt(3, 5001), Nanos::from_micros(1), &mut meter, &mut locks);
        let snap = registry.snapshot(Nanos::from_micros(2));
        for metric in ["span.classify_ns", "span.sched_ns"] {
            let h = snap.histogram(metric).unwrap_or_else(|| panic!("{metric}"));
            assert_eq!(h.count, 1, "{metric}");
            assert!(h.min > 0, "{metric} should have nonzero duration");
        }
        // Ring carries both spans with the packet id, sched after classify.
        let events = registry.ring().recent(16);
        let classify = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanClassify)
            .expect("classify span");
        let sched = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanSched)
            .expect("sched span");
        assert_eq!(classify.a, 3);
        assert_eq!(sched.a, 3);
        assert_eq!(sched.at.as_nanos(), classify.at.as_nanos() + classify.b);
    }

    /// Two priority bands; the bulk band's weighted leaves borrow from
    /// each other (the busiest from two lenders, in order) and one is
    /// ceiled, so every verdict kind, step kind and drop cause occurs.
    const ORACLE_V1: &str = "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name hi prio 0\n\
         fv class add dev nic0 parent 1:1 classid 1:2 name bulk prio 1\n\
         fv class add dev nic0 parent 1:2 classid 1:20 name a weight 1 ceil 1gbit\n\
         fv class add dev nic0 parent 1:2 classid 1:30 name b weight 1\n\
         fv class add dev nic0 parent 1:2 classid 1:40 name c weight 1\n\
         fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
         fv filter add dev nic0 match ip dport 5002 flowid 1:20 borrow 1:30\n\
         fv filter add dev nic0 match ip dport 5003 flowid 1:30 borrow 1:20,1:40\n\
         fv filter add dev nic0 match ip dport 5004 flowid 1:40 borrow 1:30\n";

    /// V2 swaps the bands and halves the root: a real reconfiguration,
    /// not a no-op reload.
    const ORACLE_V2: &str = "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate 5gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name hi prio 1\n\
         fv class add dev nic0 parent 1:1 classid 1:2 name bulk prio 0\n\
         fv class add dev nic0 parent 1:2 classid 1:20 name a weight 1 ceil 1gbit\n\
         fv class add dev nic0 parent 1:2 classid 1:30 name b weight 1\n\
         fv class add dev nic0 parent 1:2 classid 1:40 name c weight 1\n\
         fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
         fv filter add dev nic0 match ip dport 5002 flowid 1:20 borrow 1:30\n\
         fv filter add dev nic0 match ip dport 5003 flowid 1:30 borrow 1:20,1:40\n\
         fv filter add dev nic0 match ip dport 5004 flowid 1:40 borrow 1:30\n";

    /// `decide` with the decision cache and the compiled program replaced
    /// by a per-packet reference walk over the classified label — the
    /// differential oracle for the production path, run on a twin
    /// pipeline. Returns the decision and, for scheduled packets, the
    /// canonical provenance of the walk.
    fn reference_decide(
        p: &mut FlowValvePipeline,
        pkt: &Packet,
        now: Nanos,
        meter: &mut CostMeter,
        locks: &mut LockTable,
    ) -> (Decision, Option<String>) {
        if p.pending_compile_ops > 0 {
            meter.charge_n(Op::ProgramCompile, p.pending_compile_ops);
            p.pending_compile_ops = 0;
        }
        let (label, cache) = p.classifier.classify_at(meter.worker(), &pkt.flow, pkt.vf);
        let label = *label;
        meter.charge(match cache {
            CacheResult::Hit => Op::ClassifyHit,
            CacheResult::Miss => Op::ClassifyMiss,
        });
        let Some(label) = label else {
            return (Decision::Forward, None);
        };
        let wire_bits = p.framing.wire_bits(pkt.frame_len as u64);
        let mut exec = SimExec {
            meter,
            locks,
            update_hold: p.update_hold,
        };
        let mut rec = Recorder::new();
        let verdict = p
            .tree
            .schedule_reference(&label, wire_bits, now, &mut exec, &mut rec);
        let record = ProvenanceRecord {
            pkt_id: pkt.id,
            at: now,
            leaf: label.leaf().0,
            wire_bits,
            verdict: audit_verdict(verdict),
            cause: drop_cause(verdict, &rec),
            cache_hit: false,
            generation: 0,
            reload_gen: 0,
            epoch: 0,
            chain: u32::MAX,
            steps: rec.steps,
            refunds: rec.refunds,
        };
        let decision = if verdict.passes() {
            Decision::Forward
        } else {
            Decision::Drop
        };
        (decision, Some(record.canonical()))
    }

    /// A differential run: the cached pipeline (`fast`) against the
    /// per-packet reference walk on a twin (`oracle`), each side with its
    /// own modeled cost meter and lock table.
    struct Run {
        fast: FlowValvePipeline,
        oracle: FlowValvePipeline,
        meters: [CostMeter; 2],
        locks: [LockTable; 2],
        rng: u64,
        now: Nanos,
        id: u64,
        /// Provenance records compared, by verdict and drop cause.
        records: u64,
        borrowed: u64,
        over_ceil: u64,
        no_tokens: u64,
    }

    impl Run {
        fn new(sample: bool) -> Self {
            let policy = Policy::parse(ORACLE_V1).unwrap();
            let nic = NicConfig::agilio_cx_10g();
            let build =
                || FlowValvePipeline::compile(&policy, TreeParams::default(), &nic).unwrap();
            let mut fast = build();
            if sample {
                // Records are compared (and so consumed) packet by packet,
                // so slot reuse in the ring never loses a comparison.
                fast.attach_auditor(Arc::new(ProvenanceRing::new(256)), Sampler::one_in_pow2(0));
            }
            Run {
                fast,
                oracle: build(),
                meters: [(); 2].map(|_| CostMeter::new(CycleCosts::agilio())),
                locks: [(); 2].map(|_| LockTable::new(64)),
                rng: 0x9e37_79b9_7f4a_7c15,
                now: Nanos::ZERO,
                id: 0,
                records: 0,
                borrowed: 0,
                over_ceil: 0,
                no_tokens: 0,
            }
        }

        fn reload(&mut self, policy: &str) {
            let policy = Policy::parse(policy).unwrap();
            let nic = NicConfig::agilio_cx_10g();
            for p in [&mut self.fast, &mut self.oracle] {
                p.reload(&policy, TreeParams::default(), &nic).unwrap();
            }
        }

        /// Drives `n` packets `gap` apart through both sides: decisions,
        /// cost-meter totals and — when `fast` samples every packet —
        /// canonical provenance must agree from the first packet on.
        fn drive(&mut self, n: u64, gap: Nanos) {
            let [meter_f, meter_o] = &mut self.meters;
            let [locks_f, locks_o] = &mut self.locks;
            for _ in 0..n {
                self.now += gap;
                self.id += 1;
                let (id, now) = (self.id, self.now);
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                let r = self.rng;
                // Mostly class traffic, a sprinkle of unmatched bypass.
                let dport = match r % 10 {
                    0 => 9_999,
                    1..=3 => 5_001,
                    4 => 5_002,
                    5 => 5_004,
                    _ => 5_003,
                };
                let p = Packet {
                    frame_len: 200 + (r % 1_300) as u32,
                    ..pkt(id, dport)
                };
                let df = self.fast.decide(&p, now, meter_f, locks_f);
                let (dr, canon) = reference_decide(&mut self.oracle, &p, now, meter_o, locks_o);
                assert_eq!(df, dr, "packet {id} diverged at t={now:?}");
                assert_eq!(
                    meter_f.total(),
                    meter_o.total(),
                    "packet {id}: modeled cycles diverged at t={now:?}"
                );
                let Some(ring) = self.fast.provenance_ring() else {
                    continue;
                };
                match (ring.get(id), canon) {
                    (Some(f), Some(o)) => {
                        assert_eq!(f.canonical(), o, "packet {id} provenance diverged");
                        match (f.verdict, f.cause) {
                            (AuditVerdict::Borrowed(_), _) => self.borrowed += 1,
                            (_, Some(DropCause::OverCeil)) => self.over_ceil += 1,
                            (_, Some(DropCause::NoTokens)) => self.no_tokens += 1,
                            _ => {}
                        }
                        self.records += 1;
                    }
                    (None, None) => assert_eq!(dport, 9_999, "packet {id} not captured"),
                    (f, o) => panic!(
                        "packet {id}: captured on one side only (fast {}, reference {})",
                        f.is_some(),
                        o.is_some()
                    ),
                }
            }
            assert_eq!(meter_f.op_count(), meter_o.op_count());
            assert_eq!(locks_f.stats(), locks_o.stats());
        }
    }

    /// The cached production path against the per-packet reference walk
    /// on twin state, through warm-up with borrow flips, epoch rolls, a
    /// hot reload and an idle gap (expired-status removal).
    fn differential_run(sample: bool) -> Run {
        let mut run = Run::new(sample);

        // Phase 1 — warm-up: cold flows miss, steady flows hit. The 500 ns
        // gap at ~750 B offers ~12 Gbps to a 10 Gbps tree, so classes run
        // dry and refill and borrowing flips (every flip bumps the tree
        // epoch and invalidates the cache).
        run.drive(20_000, Nanos::from_nanos(500));
        let (hits_warm, misses_warm) = run.fast.decision_cache_stats();
        assert!(hits_warm > 0, "steady flows must hit the decision cache");

        // Phase 2 — epoch rolls: every gap crosses the update interval, so
        // every lookup misses and re-resolves.
        run.drive(200, Nanos::from_micros(120));
        let (_, misses_rolls) = run.fast.decision_cache_stats();
        assert!(
            misses_rolls > misses_warm,
            "epoch rolls must invalidate cached resolutions"
        );

        // Phase 3 — hot reload on both sides: new tree, new program, new
        // generation.
        run.reload(ORACLE_V2);
        run.drive(20_000, Nanos::from_nanos(500));
        let (hits_after, misses_after) = run.fast.decision_cache_stats();
        assert!(
            misses_after > misses_rolls,
            "the reload must invalidate the cache"
        );
        assert!(
            hits_after > hits_warm,
            "steady flows must re-warm the cache"
        );

        // Phase 4 — a long idle gap (expired-status removal), then traffic.
        run.now += Nanos::from_millis(5);
        run.drive(5_000, Nanos::from_nanos(800));
        run
    }

    #[test]
    fn cached_path_reconverges_with_the_reference_after_reload_epoch_roll_and_borrow_flip() {
        let run = differential_run(false);
        let (hits, misses) = run.fast.decision_cache_stats();
        assert!(hits > misses, "cache hits {hits}, misses {misses}");
    }

    #[test]
    fn sampled_provenance_matches_the_reference_byte_for_byte() {
        let run = differential_run(true);
        let (records, borrowed) = (run.records, run.borrowed);
        let (over_ceil, no_tokens) = (run.over_ceil, run.no_tokens);
        assert!(records > 30_000, "too few records compared: {records}");
        assert!(
            borrowed > 0 && over_ceil > 0 && no_tokens > 0,
            "every verdict and drop cause must be compared: \
             {borrowed} borrowed, {over_ceil} over ceil, {no_tokens} out of tokens"
        );
    }
}

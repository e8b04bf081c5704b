//! The parallel scheduling function (paper Algorithm 1).
//!
//! For every packet, the function walks the hierarchy class label root to
//! leaf: at each class it *tries* to enter the guarded update section (one
//! core per class wins; the rest proceed — Figure 7(c)'s parallel scheme),
//! then meters the leaf bucket wait-free. A red verdict falls through to
//! the borrowing subprocedure, querying each lender's shadow bucket in
//! label order. Only if every bucket is red is the packet dropped — the
//! specialized early tail drop that emulates shaping.
//!
//! The function is generic over an execution environment ([`Exec`]) so the
//! identical logic runs in two worlds:
//!
//! * [`SimExec`] — inside the discrete-event NIC model: lock contention is
//!   *modeled* through [`np_sim::lock::LockTable`] and every operation is
//!   charged to a [`np_sim::cost::CostMeter`];
//! * [`RealExec`] — on real OS threads (Criterion benchmarks): locks are
//!   the nodes' actual `std::sync` mutexes, and no costs are charged
//!   because the hardware is doing the timing.

use fv_audit::{NoObserver, StepKind, StepObserver, StepRecord};
use np_sim::cost::{CostMeter, Op};
use np_sim::lock::{LockId, LockTable};
use sim_core::fixed::Tokens;
use sim_core::time::Nanos;

use crate::bucket::Color;
use crate::label::{ClassId, QosLabel};
use crate::program::{ChainStep, LabelChain, Steps};
use crate::tree::SchedulingTree;

/// Which guarded section a lock protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// The class token-bucket update (Subprocedure 1).
    Class,
    /// The shadow-bucket update (Subprocedure 2).
    Shadow,
}

/// The verdict of the scheduling function for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedVerdict {
    /// Forwarded from the leaf class's own budget.
    Forward,
    /// Forwarded by borrowing from the shadow bucket of the given lender.
    Borrowed(ClassId),
    /// Dropped: no budget anywhere (inadequate bandwidth).
    Drop,
}

impl SchedVerdict {
    /// Whether the packet is transmitted (own budget or borrowed).
    pub fn passes(self) -> bool {
        !matches!(self, SchedVerdict::Drop)
    }
}

/// The execution environment of one scheduling-function invocation.
pub trait Exec {
    /// Charges one modeled operation (no-op under real execution).
    fn charge(&mut self, op: Op);

    /// Attempts the guarded update of `idx`'s class or shadow state at
    /// `now`; on winning the lock, performs the update inside it.
    /// Returns whether this core won the lock.
    fn locked_update(
        &mut self,
        tree: &SchedulingTree,
        idx: usize,
        kind: LockKind,
        now: Nanos,
    ) -> bool;

    /// Whether the walk may skip the guarded-update attempt for a class
    /// still inside its minimum update interval. Within the interval the
    /// update is a guaranteed no-op, so eliding it cannot change verdicts
    /// or tree state — but modeled environments keep the attempt because
    /// its try-lock and charge *are* the hardware cost model, and eliding
    /// them would change every virtual-time figure.
    fn elide_idle_updates(&self) -> bool {
        false
    }

    /// Hot-state stripe this execution writes its per-node counters to.
    /// Modeled environments are single-threaded per worker and keep the
    /// default stripe 0; real-thread execution returns a stable per-thread
    /// stripe so concurrent workers never share a counter cache line.
    /// Merged totals are stripe-independent (see `NodeHot`).
    fn stripe(&self) -> usize {
        0
    }
}

/// Simulation execution: modeled locks + cycle accounting.
#[derive(Debug)]
pub struct SimExec<'a> {
    /// The worker's cost meter.
    pub meter: &'a mut CostMeter,
    /// The NIC-wide modeled lock table.
    pub locks: &'a mut LockTable,
    /// How long the guarded update section holds its lock.
    pub update_hold: Nanos,
}

impl SimExec<'_> {
    fn lock_id(idx: usize, kind: LockKind) -> LockId {
        LockId(match kind {
            LockKind::Class => 2 * idx as u32,
            LockKind::Shadow => 2 * idx as u32 + 1,
        })
    }
}

impl Exec for SimExec<'_> {
    fn charge(&mut self, op: Op) {
        self.meter.charge(op);
    }

    fn locked_update(
        &mut self,
        tree: &SchedulingTree,
        idx: usize,
        kind: LockKind,
        now: Nanos,
    ) -> bool {
        self.locks.ensure(2 * tree.len());
        if !self
            .locks
            .try_acquire(Self::lock_id(idx, kind), now, self.update_hold)
        {
            return false;
        }
        self.meter.charge(Op::ClassUpdate);
        match kind {
            LockKind::Class => tree.update_node(idx, now),
            LockKind::Shadow => tree.update_shadow(idx, now),
        };
        true
    }
}

/// Real-thread execution: the tree's own `std::sync` mutexes, no cost
/// model. Used by the multi-threaded Criterion benchmarks.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealExec;

impl Exec for RealExec {
    fn charge(&mut self, _op: Op) {}

    fn elide_idle_updates(&self) -> bool {
        true
    }

    fn stripe(&self) -> usize {
        fv_telemetry::thread_stripe()
    }

    fn locked_update(
        &mut self,
        tree: &SchedulingTree,
        idx: usize,
        kind: LockKind,
        now: Nanos,
    ) -> bool {
        let node = tree.node(idx);
        match kind {
            LockKind::Class => match node.update_mutex.try_lock() {
                Ok(_guard) => {
                    tree.update_node(idx, now);
                    true
                }
                Err(_) => false,
            },
            LockKind::Shadow => match node.shadow_mutex.try_lock() {
                Ok(_guard) => {
                    tree.update_shadow(idx, now);
                    true
                }
                Err(_) => false,
            },
        }
    }
}

/// Degenerate execution for the Figure 7 ablation: a single *global* lock
/// serializes every update (the kernel-HTB discipline transplanted onto
/// the NIC), implemented as a blocking acquire on lock 0 so the waiting
/// time is charged to the packet.
#[derive(Debug)]
pub struct GlobalLockExec<'a> {
    /// The worker's cost meter.
    pub meter: &'a mut CostMeter,
    /// The NIC-wide modeled lock table (lock 0 is the global lock).
    pub locks: &'a mut LockTable,
    /// Hold time of the guarded section.
    pub update_hold: Nanos,
    /// Accumulated blocking wait this packet suffered.
    pub wait: Nanos,
}

impl Exec for GlobalLockExec<'_> {
    fn charge(&mut self, op: Op) {
        self.meter.charge(op);
    }

    fn locked_update(
        &mut self,
        tree: &SchedulingTree,
        idx: usize,
        kind: LockKind,
        now: Nanos,
    ) -> bool {
        self.locks.ensure(1);
        let start = self.locks.acquire(LockId(0), now, self.update_hold);
        self.wait += start - now;
        self.meter.charge(Op::ClassUpdate);
        match kind {
            LockKind::Class => tree.update_node(idx, start),
            LockKind::Shadow => tree.update_shadow(idx, start),
        };
        true
    }
}

impl SchedulingTree {
    /// Runs the scheduling function (Algorithm 1) for one packet of
    /// `bits` frame bits carrying `label`, processed at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the label references classes not present in this tree
    /// (labels must be built by [`SchedulingTree::label`]).
    pub fn schedule<E: Exec>(
        &self,
        label: &QosLabel,
        bits: u64,
        now: Nanos,
        exec: &mut E,
    ) -> SchedVerdict {
        self.schedule_observed(label, bits, now, exec, &mut NoObserver)
    }

    /// [`SchedulingTree::schedule`] with provenance capture, reporting
    /// every executed step (bucket tokens before/after, token test color)
    /// to `obs`. The label's admission chain runs through the same walk as
    /// [`SchedulingTree::schedule_compiled_observed`], so records taken
    /// either way are byte-identical. With [`NoObserver`] all capture
    /// branches compile away.
    pub fn schedule_observed<E: Exec, O: StepObserver>(
        &self,
        label: &QosLabel,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        self.walk(LabelChain::new(self, label), bits, now, exec, obs)
    }

    /// Algorithm 1 over one resolved admission chain — the only
    /// implementation of the scheduling function. Forced inline so each
    /// entry point compiles to its own body: an out-of-line walk measured
    /// about 5% slower on perfbench's `wire64_mice` (DESIGN.md §15).
    #[inline(always)]
    pub(crate) fn walk<E: Exec, O: StepObserver>(
        &self,
        chain: impl Steps,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        let need = Tokens::from_bits(bits);
        let elide = exec.elide_idle_updates();
        let stripe = exec.stripe();

        // Lines 1-5: refresh token buckets root→leaf, then mark every
        // class on the path touched (drives expiry).
        for s in chain.path() {
            let before = if O::ENABLED {
                self.slab_bucket(s.bucket).raw()
            } else {
                0
            };
            if !elide || self.update_due(s.node as usize, false, now) {
                exec.charge(Op::LockOp);
                exec.locked_update(self, s.node as usize, LockKind::Class, now);
            }
            exec.charge(Op::AtomicOp);
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::Update,
                    class: self.node(s.node as usize).spec.id.0,
                    bucket: s.bucket,
                    need: 0,
                    before,
                    after: self.slab_bucket(s.bucket).raw(),
                    green: true,
                });
            }
        }
        for s in chain.path() {
            self.node(s.node as usize).touch(stripe, now.as_nanos());
        }

        // Lines 6-8: the leaf meter throttles the flow. A configured
        // ceiling bounds the class including borrowing, so every packet
        // that passes — own budget or borrowed — is also charged against
        // it.
        let leaf = self.node(chain.leaf().node as usize);
        if self.meter_step(chain.leaf(), StepKind::MeterLeaf, need, exec, obs) {
            if let Some(c) = chain.ceil() {
                if !self.meter_step(c, StepKind::MeterCeil, need, exec, obs) {
                    leaf.add_dropped(stripe, 1);
                    return SchedVerdict::Drop;
                }
            }
            self.count_steps(chain.path(), bits, stripe, exec);
            leaf.add_forwarded(stripe, 1);
            return SchedVerdict::Forward;
        }

        // Lines 9-15: the borrowing subprocedure queries each lender's
        // shadow bucket in label order, still bounded by the leaf's own
        // ceiling.
        if let Some(c) = chain.ceil() {
            if !self.meter_step(c, StepKind::MeterCeil, need, exec, obs) {
                leaf.add_dropped(stripe, 1);
                return SchedVerdict::Drop;
            }
        }
        for s in chain.borrows() {
            if !elide || self.update_due(s.node as usize, true, now) {
                exec.charge(Op::LockOp);
                exec.locked_update(self, s.node as usize, LockKind::Shadow, now);
            }
            if self.meter_step(s, StepKind::Borrow, need, exec, obs) {
                let lender = self.node(s.node as usize);
                self.count_steps(chain.path(), bits, stripe, exec);
                lender.add_lent(stripe, 1);
                leaf.add_borrowed(stripe, 1);
                return SchedVerdict::Borrowed(lender.spec.id);
            }
        }

        // Line 16.
        leaf.add_dropped(stripe, 1);
        SchedVerdict::Drop
    }

    /// One wait-free token test-and-add on `step`'s bucket; true on green.
    #[inline]
    fn meter_step<E: Exec, O: StepObserver>(
        &self,
        step: ChainStep,
        kind: StepKind,
        need: Tokens,
        exec: &mut E,
        obs: &mut O,
    ) -> bool {
        exec.charge(Op::AtomicOp);
        let b = self.slab_bucket(step.bucket);
        let before = if O::ENABLED { b.raw() } else { 0 };
        let green = b.meter(need) == Color::Green;
        if O::ENABLED {
            obs.on_step(StepRecord {
                stage: 0,
                kind,
                class: self.node(step.node as usize).spec.id.0,
                bucket: step.bucket,
                need: need.raw() as i64,
                before,
                after: b.raw(),
                green,
            });
        }
        green
    }

    /// Records a passed packet's consumption along its path (Equation 3's
    /// numerator; counted on *forwarding*, as the Γ definition requires —
    /// counting offered packets would let an overloaded class's drops
    /// poison its siblings' residual rates).
    fn count_steps<E: Exec>(
        &self,
        path: impl Iterator<Item = ChainStep>,
        bits: u64,
        stripe: usize,
        exec: &mut E,
    ) {
        for s in path {
            self.node(s.node as usize).add_consumed(stripe, bits);
            exec.charge(Op::AtomicOp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{ClassSpec, TreeParams};
    use np_sim::config::CycleCosts;
    use sim_core::units::BitRate;

    fn gbps(g: f64) -> BitRate {
        BitRate::from_gbps(g)
    }

    fn tree_prio() -> SchedulingTree {
        SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0)),
                ClassSpec::new(ClassId(10), "hi", Some(ClassId(1))).prio(0),
                ClassSpec::new(ClassId(20), "lo", Some(ClassId(1))).prio(1),
            ],
            TreeParams::default(),
        )
        .unwrap()
    }

    fn sim_parts() -> (CostMeter, LockTable) {
        (CostMeter::new(CycleCosts::agilio()), LockTable::new(8))
    }

    /// Drives `pkts` packets of `bits` each through the tree at a constant
    /// gap, returning how many passed.
    fn drive(
        tree: &SchedulingTree,
        label: &QosLabel,
        bits: u64,
        gap: Nanos,
        pkts: usize,
        start: Nanos,
    ) -> usize {
        let (mut meter, mut locks) = sim_parts();
        let mut passed = 0;
        let mut now = start;
        for _ in 0..pkts {
            let mut exec = SimExec {
                meter: &mut meter,
                locks: &mut locks,
                update_hold: Nanos::from_nanos(300),
            };
            if tree.schedule(label, bits, now, &mut exec).passes() {
                passed += 1;
            }
            now += gap;
        }
        passed
    }

    #[test]
    fn conforming_traffic_all_passes() {
        let tree = tree_prio();
        let label = tree.label(ClassId(10), &[]).unwrap();
        // 12 kbit packets every 2 us = 6 Gbps < 10 Gbps: everything passes.
        let passed = drive(
            &tree,
            &label,
            12_000,
            Nanos::from_micros(2),
            5_000,
            Nanos::ZERO,
        );
        assert_eq!(passed, 5_000);
        let c = tree.counters(ClassId(10)).unwrap();
        assert_eq!(c.forwarded, 5_000);
        assert_eq!(c.dropped, 0);
    }

    #[test]
    fn non_conforming_traffic_is_throttled_to_theta() {
        let tree = tree_prio();
        let label = tree.label(ClassId(20), &[]).unwrap();
        // lo's θ starts at the full 10 Gbps (hi idle)... but offered 20 Gbps:
        // 12 kbit packets every 0.6 us ≈ 20 Gbps. Roughly half must drop.
        let pkts = 40_000;
        let passed = drive(
            &tree,
            &label,
            12_000,
            Nanos::from_nanos(600),
            pkts,
            Nanos::ZERO,
        );
        let ratio = passed as f64 / pkts as f64;
        assert!((0.40..0.62).contains(&ratio), "pass ratio {ratio}");
    }

    #[test]
    fn priority_starves_low_class() {
        let tree = tree_prio();
        let hi = tree.label(ClassId(10), &[]).unwrap();
        let lo = tree.label(ClassId(20), &[]).unwrap();
        let (mut meter, mut locks) = sim_parts();
        // Interleave: hi offers 9 Gbps, lo offers 9 Gbps; total 18 > 10.
        // Expect hi to pass ~everything, lo to get ~1 Gbps.
        let mut now = Nanos::ZERO;
        let mut hi_pass = 0u64;
        let mut lo_pass = 0u64;
        let n = 60_000;
        for i in 0..n {
            let mut exec = SimExec {
                meter: &mut meter,
                locks: &mut locks,
                update_hold: Nanos::from_nanos(300),
            };
            let label = if i % 2 == 0 { &hi } else { &lo };
            let v = tree.schedule(label, 12_000, now, &mut exec);
            if v.passes() {
                if i % 2 == 0 {
                    hi_pass += 1;
                } else {
                    lo_pass += 1;
                }
            }
            // Each source sends a 12 kbit packet every 1.333 us => 9 Gbps each.
            now += Nanos::from_nanos(667);
        }
        let horizon = (667 * n) as f64 / 1e9;
        let hi_gbps = hi_pass as f64 * 12_000.0 / horizon / 1e9;
        let lo_gbps = lo_pass as f64 * 12_000.0 / horizon / 1e9;
        assert!(hi_gbps > 8.0, "hi got {hi_gbps} Gbps");
        assert!(lo_gbps < 2.5, "lo got {lo_gbps} Gbps");
        let total = hi_gbps + lo_gbps;
        assert!(total < 11.0, "total {total} exceeds the ceiling");
    }

    #[test]
    fn borrowing_rescues_red_packets() {
        // Two same-priority weighted leaves (5 Gbps static share each);
        // `a` stays active but underuses, so `b` borrows a's unused share
        // through the shadow bucket on top of its own 5 Gbps.
        let tree = SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec::new(ClassId(20), "b", Some(ClassId(1))),
            ],
            TreeParams::default(),
        )
        .unwrap();
        let a = tree.label(ClassId(10), &[]).unwrap();
        let b = tree.label(ClassId(20), &[ClassId(10)]).unwrap();
        let (mut meter, mut locks) = sim_parts();
        let mut now = Nanos::ZERO;
        let mut b_passed = 0u64;
        let n = 40_000;
        for i in 0..n {
            let mut exec = SimExec {
                meter: &mut meter,
                locks: &mut locks,
                update_hold: Nanos::from_nanos(300),
            };
            // a sends one packet for every eight of b: ~1 Gbps vs ~8 Gbps.
            if i % 8 == 0 {
                let _ = tree.schedule(&a, 12_000, now, &mut exec);
            }
            if tree.schedule(&b, 12_000, now, &mut exec).passes() {
                b_passed += 1;
            }
            now += Nanos::from_nanos(1_500); // b offers 8 Gbps
        }
        let b_gbps = b_passed as f64 * 12_000.0 / (1_500.0 * n as f64);
        // b's own share is 5 Gbps; with borrowing it must exceed that
        // meaningfully (a uses ~1 of its 5 Gbps).
        assert!(b_gbps > 6.0, "b got {b_gbps} Gbps");
        let c = tree.counters(ClassId(20)).unwrap();
        assert!(c.borrowed > 0, "no borrowing happened");
        let lender = tree.counters(ClassId(10)).unwrap();
        assert_eq!(lender.lent, c.borrowed);
    }

    #[test]
    fn verdict_passes_predicate() {
        assert!(SchedVerdict::Forward.passes());
        assert!(SchedVerdict::Borrowed(ClassId(1)).passes());
        assert!(!SchedVerdict::Drop.passes());
    }

    #[test]
    fn sim_exec_models_lock_contention() {
        let tree = tree_prio();
        let (mut meter, mut locks) = sim_parts();
        let idx = tree.node_index(ClassId(10)).unwrap();
        let hold = Nanos::from_micros(1);
        {
            let mut exec = SimExec {
                meter: &mut meter,
                locks: &mut locks,
                update_hold: hold,
            };
            assert!(exec.locked_update(&tree, idx, LockKind::Class, Nanos::ZERO));
            // Second attempt at the same instant loses the try-lock.
            assert!(!exec.locked_update(&tree, idx, LockKind::Class, Nanos::ZERO));
            // Shadow lock is independent of the class lock.
            assert!(exec.locked_update(&tree, idx, LockKind::Shadow, Nanos::ZERO));
        }
        assert_eq!(locks.stats().try_failed, 1);
    }

    #[test]
    fn real_exec_runs_updates() {
        let tree = tree_prio();
        let mut exec = RealExec;
        let idx = tree.node_index(ClassId(20)).unwrap();
        assert!(exec.locked_update(&tree, idx, LockKind::Class, Nanos::from_micros(100)));
        assert!(exec.locked_update(&tree, idx, LockKind::Shadow, Nanos::from_micros(100)));
    }

    #[test]
    fn global_lock_exec_accumulates_wait() {
        let tree = tree_prio();
        let (mut meter, mut locks) = sim_parts();
        let mut exec = GlobalLockExec {
            meter: &mut meter,
            locks: &mut locks,
            update_hold: Nanos::from_micros(1),
            wait: Nanos::ZERO,
        };
        let idx = tree.node_index(ClassId(10)).unwrap();
        // Two updates at the same instant: the second waits a full hold.
        exec.locked_update(&tree, idx, LockKind::Class, Nanos::ZERO);
        exec.locked_update(&tree, idx, LockKind::Class, Nanos::ZERO);
        assert_eq!(exec.wait, Nanos::from_micros(1));
    }

    #[test]
    fn real_threads_schedule_concurrently() {
        use std::sync::Arc;
        // The same tree driven by 4 real threads under wall-clock-ish time:
        // exercises the atomics under true parallelism (no verdict checks
        // beyond sanity — timing is nondeterministic here by design).
        let tree = Arc::new(tree_prio());
        let label = tree.label(ClassId(10), &[]).unwrap();
        let total: u64 = std::thread::scope(|s| {
            (0..4)
                .map(|t| {
                    let tree = Arc::clone(&tree);
                    s.spawn(move || {
                        let mut exec = RealExec;
                        let mut passed = 0u64;
                        for i in 0..10_000u64 {
                            let now = Nanos::from_nanos(t * 13 + i * 100);
                            if tree.schedule(&label, 12_000, now, &mut exec).passes() {
                                passed += 1;
                            }
                        }
                        passed
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert!(total > 0);
        let c = tree.counters(ClassId(10)).unwrap();
        assert_eq!(c.forwarded + c.dropped, 40_000);
    }
}

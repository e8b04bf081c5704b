//! The reference walker: Algorithm 1 written directly over a
//! [`QosLabel`], resolving every class through the tree's id → node
//! index as it goes. It is the differential oracle for the single walk
//! ([`SchedulingTree::walk`]) that production runs, and compiles only
//! under `cfg(test)`.
//!
//! The oracles here drive twin trees with identical traffic and require
//! identical verdicts, counters, measured rates, provenance steps and —
//! under the modeled environments — identical cost-meter totals and lock
//! statistics. The pipeline-level oracles (decision cache convergence,
//! sampled provenance) live with the pipeline's tests.

use fv_audit::{StepKind, StepObserver, StepRecord};
use np_sim::cost::Op;
use sim_core::fixed::Tokens;
use sim_core::time::Nanos;

use crate::bucket::Color;
use crate::label::QosLabel;
use crate::sched::{Exec, LockKind, SchedVerdict};
use crate::tree::SchedulingTree;

impl SchedulingTree {
    /// Reference Algorithm 1 for one packet carrying `label`; same
    /// contract and observer capture points as
    /// [`SchedulingTree::schedule_observed`].
    pub(crate) fn schedule_reference<E: Exec, O: StepObserver>(
        &self,
        label: &QosLabel,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        let need = Tokens::from_bits(bits);
        let need_raw = need.raw() as i64;
        let elide = exec.elide_idle_updates();
        let stripe = exec.stripe();

        // Lines 1-5: refresh token buckets root→leaf; every class on the
        // path is marked as touched (drives expiry).
        for &cid in label.path() {
            let idx = self.node_index(cid).expect("label class in tree");
            let bucket = self.node(idx).bucket;
            let before = if O::ENABLED {
                self.slab_bucket(bucket).raw()
            } else {
                0
            };
            if !elide || self.update_due(idx, false, now) {
                exec.charge(Op::LockOp);
                exec.locked_update(self, idx, LockKind::Class, now);
            }
            exec.charge(Op::AtomicOp);
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::Update,
                    class: cid.0,
                    bucket,
                    need: 0,
                    before,
                    after: self.slab_bucket(bucket).raw(),
                    green: true,
                });
            }
        }
        self.touch_path_at(label, now, stripe);

        // Lines 6-8: the leaf meter throttles the flow.
        let leaf_idx = self.node_index(label.leaf()).expect("leaf in tree");
        let leaf = self.node(leaf_idx);
        exec.charge(Op::AtomicOp);
        let lb = self.slab_bucket(leaf.bucket);
        let leaf_before = if O::ENABLED { lb.raw() } else { 0 };
        let leaf_green = lb.meter(need) == Color::Green;
        if O::ENABLED {
            obs.on_step(StepRecord {
                stage: 0,
                kind: StepKind::MeterLeaf,
                class: leaf.spec.id.0,
                bucket: leaf.bucket,
                need: need_raw,
                before: leaf_before,
                after: lb.raw(),
                green: leaf_green,
            });
        }
        if leaf_green {
            // A configured ceiling bounds the class including borrowing,
            // so every forwarded packet is also charged against it.
            if let Some(ci) = leaf.ceil_bucket {
                exec.charge(Op::AtomicOp);
                let cb = self.slab_bucket(ci);
                let before = if O::ENABLED { cb.raw() } else { 0 };
                let green = cb.meter(need) == Color::Green;
                if O::ENABLED {
                    obs.on_step(StepRecord {
                        stage: 0,
                        kind: StepKind::MeterCeil,
                        class: leaf.spec.id.0,
                        bucket: ci,
                        need: need_raw,
                        before,
                        after: cb.raw(),
                        green,
                    });
                }
                if !green {
                    leaf.add_dropped(stripe, 1);
                    return SchedVerdict::Drop;
                }
            }
            self.count_path_at(label, bits, stripe);
            for _ in label.path() {
                exec.charge(Op::AtomicOp);
            }
            leaf.add_forwarded(stripe, 1);
            return SchedVerdict::Forward;
        }

        // Lines 9-15: the borrowing subprocedure queries each lender's
        // shadow bucket in label order. A borrowed packet must still
        // conform to the leaf's own ceiling (HTB semantics: `ceil` bounds
        // the class with borrowing included).
        if let Some(ci) = leaf.ceil_bucket {
            exec.charge(Op::AtomicOp);
            let cb = self.slab_bucket(ci);
            let before = if O::ENABLED { cb.raw() } else { 0 };
            let green = cb.meter(need) == Color::Green;
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::MeterCeil,
                    class: leaf.spec.id.0,
                    bucket: ci,
                    need: need_raw,
                    before,
                    after: cb.raw(),
                    green,
                });
            }
            if !green {
                leaf.add_dropped(stripe, 1);
                return SchedVerdict::Drop;
            }
        }
        for &lender in label.borrow() {
            let lidx = self.node_index(lender).expect("lender in tree");
            if !elide || self.update_due(lidx, true, now) {
                exec.charge(Op::LockOp);
                exec.locked_update(self, lidx, LockKind::Shadow, now);
            }
            exec.charge(Op::AtomicOp);
            let lnode = self.node(lidx);
            let sb = self.slab_bucket(lnode.shadow);
            let before = if O::ENABLED { sb.raw() } else { 0 };
            let green = sb.meter(need) == Color::Green;
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::Borrow,
                    class: lender.0,
                    bucket: lnode.shadow,
                    need: need_raw,
                    before,
                    after: sb.raw(),
                    green,
                });
            }
            if green {
                self.count_path_at(label, bits, stripe);
                for _ in label.path() {
                    exec.charge(Op::AtomicOp);
                }
                lnode.add_lent(stripe, 1);
                leaf.add_borrowed(stripe, 1);
                return SchedVerdict::Borrowed(lender);
            }
        }

        // Line 16.
        leaf.add_dropped(stripe, 1);
        SchedVerdict::Drop
    }
}

mod tests {
    use fv_audit::{NoObserver, Recorder};
    use np_sim::config::CycleCosts;
    use np_sim::cost::CostMeter;
    use np_sim::lock::LockTable;
    use sim_core::units::BitRate;

    use crate::label::ClassId;
    use crate::program::CompiledProgram;
    use crate::sched::{GlobalLockExec, RealExec, SimExec};
    use crate::tree::{ClassSpec, TreeParams};

    use super::*;

    /// xorshift64 — deterministic, no external dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Three weighted leaves, `b` ceiled, each allowed to borrow from the
    /// other two in turn: every verdict kind and every step kind occurs,
    /// and which lender a packet borrows from depends on label order.
    fn tree() -> SchedulingTree {
        SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(10.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec::new(ClassId(20), "b", Some(ClassId(1))).ceil(BitRate::from_gbps(6.0)),
                ClassSpec::new(ClassId(30), "c", Some(ClassId(1))),
            ],
            TreeParams::default(),
        )
        .expect("tree builds")
    }

    fn labels(t: &SchedulingTree) -> [QosLabel; 3] {
        let (a, b, c) = (ClassId(10), ClassId(20), ClassId(30));
        [
            t.label(a, &[b, c]).unwrap(),
            t.label(b, &[c, a]).unwrap(),
            t.label(c, &[a, b]).unwrap(),
        ]
    }

    /// Randomized traffic covering every regime: conforming gaps,
    /// overload, borrowing flips (classes alternate in bursts), epoch
    /// rolls and expired-status removal after idle gaps. Yields
    /// (label index, bits, now) per packet.
    fn traffic(n: u64, seed: u64) -> impl Iterator<Item = (usize, u64, Nanos)> {
        let mut rng = Rng(seed);
        let mut now = Nanos::ZERO;
        (0..n).map(move |i| {
            let r = rng.next();
            now += match r % 10_000 {
                0 => Nanos::from_millis(2),        // expiry-length idle gap
                1..=19 => Nanos::from_micros(120), // forces an epoch roll
                _ => Nanos::from_nanos(200 + (r % 600)),
            };
            (((i / 64) % 3) as usize, 4_000 + (r % 16_000), now)
        })
    }

    fn assert_same_state(a: &SchedulingTree, b: &SchedulingTree, now: Nanos) {
        for cid in [ClassId(1), ClassId(10), ClassId(20), ClassId(30)] {
            assert_eq!(a.counters(cid), b.counters(cid), "counters of {cid}");
            assert_eq!(a.gamma(cid, now), b.gamma(cid, now), "Γ of {cid}");
            assert_eq!(a.theta(cid), b.theta(cid), "θ of {cid}");
        }
        assert_eq!(a.epoch(), b.epoch());
        let levels =
            |t: &SchedulingTree| t.slab_snapshot().iter().map(|s| s.raw).collect::<Vec<_>>();
        assert_eq!(levels(a), levels(b), "bucket levels");
    }

    /// The single walk, entered from a label (`schedule_observed`) and
    /// from a compiled chain, against the reference: verdicts, provenance
    /// steps, counters, rates and bucket levels, over 100k packets.
    #[test]
    fn single_walk_matches_the_reference_across_all_regimes() {
        let (tr, tl, tc) = (tree(), tree(), tree());
        let (lr, ll, lc) = (labels(&tr), labels(&tl), labels(&tc));
        let prog = CompiledProgram::compile(&tc, &lc);
        let chains = lc.map(|l| prog.resolve(&l).expect("label compiles"));
        let mut last = Nanos::ZERO;
        let mut kinds = [0u64; 3];
        for (i, (which, bits, now)) in traffic(100_000, 0x5eed_f10e_aa1e_1ee1).enumerate() {
            let (mut rr, mut rl, mut rc) = (Recorder::new(), Recorder::new(), Recorder::new());
            let vr = tr.schedule_reference(&lr[which], bits, now, &mut RealExec, &mut rr);
            let vl = tl.schedule_observed(&ll[which], bits, now, &mut RealExec, &mut rl);
            let vc = tc.schedule_compiled_observed(
                &prog,
                chains[which],
                bits,
                now,
                &mut RealExec,
                &mut rc,
            );
            assert_eq!(vl, vr, "label walk: packet {i} diverged at t={now:?}");
            assert_eq!(vc, vr, "compiled walk: packet {i} diverged at t={now:?}");
            assert_eq!(rl.steps, rr.steps, "label walk: packet {i} steps");
            assert_eq!(rc.steps, rr.steps, "compiled walk: packet {i} steps");
            kinds[match vr {
                SchedVerdict::Forward => 0,
                SchedVerdict::Borrowed(_) => 1,
                SchedVerdict::Drop => 2,
            }] += 1;
            last = now;
        }
        assert!(
            kinds.iter().all(|&k| k > 100),
            "regimes not all hit: {kinds:?}"
        );
        assert_same_state(&tr, &tl, last);
        assert_same_state(&tr, &tc, last);
    }

    /// Under the modeled environments the walk's charges and lock
    /// interactions are the hardware cost model: the single walk must
    /// reproduce the reference's cost-meter totals and lock statistics
    /// exactly, with per-class try-locks (`SimExec`) and with the
    /// Figure 7 global lock (`GlobalLockExec`).
    #[test]
    fn modeled_costs_and_lock_stats_match_the_reference() {
        let hold = Nanos::from_nanos(300);
        for global in [false, true] {
            let (tr, tw) = (tree(), tree());
            let (lr, lw) = (labels(&tr), labels(&tw));
            let mut meter_r = CostMeter::new(CycleCosts::agilio());
            let mut meter_w = CostMeter::new(CycleCosts::agilio());
            let mut locks_r = LockTable::new(8);
            let mut locks_w = LockTable::new(8);
            let (mut wait_r, mut wait_w) = (Nanos::ZERO, Nanos::ZERO);
            let mut last = Nanos::ZERO;
            for (i, (which, bits, now)) in traffic(30_000, 0xc057_10c4_0b5e_55ed).enumerate() {
                let (vr, vw) = if global {
                    let mut er = GlobalLockExec {
                        meter: &mut meter_r,
                        locks: &mut locks_r,
                        update_hold: hold,
                        wait: Nanos::ZERO,
                    };
                    let mut ew = GlobalLockExec {
                        meter: &mut meter_w,
                        locks: &mut locks_w,
                        update_hold: hold,
                        wait: Nanos::ZERO,
                    };
                    let vr = tr.schedule_reference(&lr[which], bits, now, &mut er, &mut NoObserver);
                    let vw = tw.schedule(&lw[which], bits, now, &mut ew);
                    wait_r += er.wait;
                    wait_w += ew.wait;
                    (vr, vw)
                } else {
                    let mut er = SimExec {
                        meter: &mut meter_r,
                        locks: &mut locks_r,
                        update_hold: hold,
                    };
                    let mut ew = SimExec {
                        meter: &mut meter_w,
                        locks: &mut locks_w,
                        update_hold: hold,
                    };
                    let vr = tr.schedule_reference(&lr[which], bits, now, &mut er, &mut NoObserver);
                    (vr, tw.schedule(&lw[which], bits, now, &mut ew))
                };
                assert_eq!(vw, vr, "global={global}: packet {i} diverged at t={now:?}");
                assert_eq!(
                    meter_w.total(),
                    meter_r.total(),
                    "global={global}: packet {i} cycles"
                );
                last = now;
            }
            assert_eq!(meter_w.op_count(), meter_r.op_count(), "global={global}");
            assert_eq!(locks_w.stats(), locks_r.stats(), "global={global}");
            assert_eq!(wait_w, wait_r, "global={global}");
            let stats = locks_r.stats();
            if global {
                assert!(
                    stats.contended > 0,
                    "global lock never contended: {stats:?}"
                );
            } else {
                assert!(stats.try_failed > 0, "try-locks never lost: {stats:?}");
            }
            assert_same_state(&tr, &tw, last);
        }
    }
}

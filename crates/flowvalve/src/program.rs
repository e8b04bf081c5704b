//! The compiled scheduling program: admission chains flattened out of the
//! tree at build/reload time.
//!
//! [`SchedulingTree::schedule`] resolves every class of a label through the
//! id → node hash index on every packet — seven-odd SipHash lookups per
//! verdict. A [`CompiledProgram`] pays that resolution once, at *compile*
//! time: each distinct [`QosLabel`] becomes one contiguous **admission
//! chain** — an array of [`ChainStep`]s (node index, bucket slab index,
//! condition template, parent link) in exact evaluation order. Steady
//! flows then execute only the chain's token test-and-add sequence with
//! zero tree traversal, fronted by the [`DecisionCache`] direct-mapped
//! per-flow cache in the pipeline.
//!
//! The interpreted walker stays as the differential oracle — the same
//! pattern as the calendar-vs-heap `QueueBackend` split: a property test
//! (`tests/compiled_oracle.rs`) drives both on identical traffic and
//! proves verdict-for-verdict identity across reconfigs, borrow
//! transitions and expired-status removal.
//!
//! Under a modeled execution environment ([`SimExec`](crate::sched::SimExec))
//! the chain reproduces the interpreted walker's charge sequence and lock
//! interactions instruction for instruction, so every virtual-time figure
//! is byte-identical whichever path produced it. The wall-clock win comes
//! from the software side: no hashing, and — where the environment permits
//! ([`Exec::elide_idle_updates`]) — no lock traffic for classes still
//! inside their minimum update interval.

use fv_audit::{NoObserver, StepKind, StepObserver, StepRecord};
use np_sim::cost::Op;
use sim_core::fixed::Tokens;
use sim_core::time::Nanos;

use crate::bucket::Color;
use crate::label::QosLabel;
use crate::sched::{Exec, LockKind, SchedVerdict};
use crate::tree::SchedulingTree;

/// Identifier of one compiled admission chain within a [`CompiledProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChainId(u32);

impl ChainId {
    /// The chain's index within its program (provenance records).
    pub fn index(&self) -> u32 {
        self.0
    }
}

/// Condition template of one [`ChainStep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOp {
    /// Guarded refresh of a path class's buckets (Subprocedure 1).
    Update,
    /// Wait-free meter on the leaf's own budget.
    MeterLeaf,
    /// Conformance check against the leaf's ceiling bucket.
    MeterCeil,
    /// Guarded shadow refresh + meter on one lender (Subprocedure 2).
    Borrow,
}

/// Marks a chain step with no parent (the root of the path).
pub(crate) const NO_PARENT: i32 = -1;

/// One instruction of an admission chain: which node, which bucket in the
/// tree's flat slab, which condition template, and the parent link (index
/// of the parent class's step within the same chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainStep {
    pub(crate) node: u32,
    pub(crate) bucket: u32,
    pub(crate) op: StepOp,
    pub(crate) parent: i32,
}

/// Marks the end of a leaf's chain list in [`CompiledProgram::heads`].
const NO_CHAIN: u32 = u32::MAX;

/// One chain's extent inside the shared step arena. Layout within
/// `start..`: `path_len` [`StepOp::Update`] steps root→leaf, one
/// [`StepOp::MeterLeaf`], an optional [`StepOp::MeterCeil`], then
/// `borrow_len` [`StepOp::Borrow`] steps in label order.
#[derive(Debug, Clone, Copy)]
struct Chain {
    start: u32,
    path_len: u8,
    has_ceil: bool,
    borrow_len: u8,
    /// The label this chain was compiled for; resolution compares it in
    /// full, so labels sharing a leaf never alias.
    label: QosLabel,
    /// Next chain compiled for the same leaf class, or [`NO_CHAIN`].
    next: u32,
}

/// A scheduling tree flattened into admission chains.
///
/// Compiled against one tree build; [`SchedulingTree::schedule_compiled`]
/// panics (debug) or misbehaves if run against a different tree, which is
/// why the pipeline recompiles on every reload and guards cached
/// resolutions with a generation token.
///
/// Resolution is hash-free: `heads[leaf.0]` is the first chain compiled
/// for that leaf class (the same direct-indexed shape as the tree's id →
/// node table), and chains sharing a leaf are linked through
/// `Chain::next` and told apart by full label comparison. A policy emits
/// one label per leaf in practice, so a resolve is one array load and
/// one label compare.
#[derive(Debug)]
pub struct CompiledProgram {
    steps: Vec<ChainStep>,
    chains: Vec<Chain>,
    heads: Vec<u32>,
    compile_ops: u64,
}

impl CompiledProgram {
    /// Flattens `tree` into admission chains, one per distinct label.
    /// Labels referencing classes absent from the tree are skipped (they
    /// resolve to `None` and the caller falls back to the interpreted
    /// walker).
    pub fn compile<'a>(
        tree: &SchedulingTree,
        labels: impl IntoIterator<Item = &'a QosLabel>,
    ) -> Self {
        let mut prog = CompiledProgram {
            steps: Vec::new(),
            chains: Vec::new(),
            heads: Vec::new(),
            compile_ops: 0,
        };
        for label in labels {
            prog.add_chain(tree, label);
        }
        prog
    }

    fn add_chain(&mut self, tree: &SchedulingTree, label: &QosLabel) -> Option<ChainId> {
        if let Some(id) = self.resolve(label) {
            return Some(id);
        }
        // Resolve every class up front; an unresolvable label compiles to
        // nothing rather than a partial chain.
        let path: Vec<usize> = label
            .path()
            .iter()
            .map(|&cid| tree.node_index(cid))
            .collect::<Option<_>>()?;
        let lenders: Vec<usize> = label
            .borrow()
            .iter()
            .map(|&cid| tree.node_index(cid))
            .collect::<Option<_>>()?;

        let start = self.steps.len() as u32;
        let mut parent = NO_PARENT;
        for (i, &idx) in path.iter().enumerate() {
            self.steps.push(ChainStep {
                node: idx as u32,
                bucket: tree.node(idx).bucket,
                op: StepOp::Update,
                parent,
            });
            parent = i as i32;
        }
        let leaf = *path.last().expect("labels are never empty");
        let leaf_step = (path.len() - 1) as i32;
        self.steps.push(ChainStep {
            node: leaf as u32,
            bucket: tree.node(leaf).bucket,
            op: StepOp::MeterLeaf,
            parent: leaf_step,
        });
        let has_ceil = match tree.node(leaf).ceil_bucket {
            Some(ci) => {
                self.steps.push(ChainStep {
                    node: leaf as u32,
                    bucket: ci,
                    op: StepOp::MeterCeil,
                    parent: leaf_step,
                });
                true
            }
            None => false,
        };
        for &lidx in &lenders {
            self.steps.push(ChainStep {
                node: lidx as u32,
                bucket: tree.node(lidx).shadow,
                op: StepOp::Borrow,
                parent: leaf_step,
            });
        }

        let id = ChainId(self.chains.len() as u32);
        let head = label.leaf().0 as usize;
        if head >= self.heads.len() {
            self.heads.resize(head + 1, NO_CHAIN);
        }
        self.chains.push(Chain {
            start,
            path_len: path.len() as u8,
            has_ceil,
            borrow_len: lenders.len() as u8,
            label: *label,
            next: self.heads[head],
        });
        self.heads[head] = id.0;
        self.compile_ops += (self.steps.len() as u32 - start) as u64;
        Some(id)
    }

    /// The chain compiled for `label`, if any: one direct-indexed load of
    /// the leaf's list head, then full-label comparison along the (in
    /// practice one-element) list of chains sharing that leaf.
    #[inline]
    pub fn resolve(&self, label: &QosLabel) -> Option<ChainId> {
        let mut c = *self.heads.get(label.leaf().0 as usize)?;
        while c != NO_CHAIN {
            let chain = &self.chains[c as usize];
            if chain.label == *label {
                return Some(ChainId(c));
            }
            c = chain.next;
        }
        None
    }

    /// Number of compiled chains.
    pub fn chains(&self) -> usize {
        self.chains.len()
    }

    /// Total steps flattened — the unit count for the cost model's
    /// `Op::ProgramCompile` charge (compile work scales with chain steps,
    /// not packets).
    pub fn compile_ops(&self) -> u64 {
        self.compile_ops
    }

    fn parts(&self, id: ChainId) -> (&[ChainStep], Option<&ChainStep>, &[ChainStep]) {
        let c = self.chains[id.0 as usize];
        let start = c.start as usize;
        let path_len = c.path_len as usize;
        let updates = &self.steps[start..start + path_len];
        let mut cursor = start + path_len + 1; // skip MeterLeaf
        let ceil = if c.has_ceil {
            cursor += 1;
            Some(&self.steps[cursor - 1])
        } else {
            None
        };
        let borrows = &self.steps[cursor..cursor + c.borrow_len as usize];
        (updates, ceil, borrows)
    }
}

impl SchedulingTree {
    /// Runs the scheduling function for one packet through a compiled
    /// admission chain. Verdicts, counter effects and — under a modeled
    /// [`Exec`] — charge/lock sequences are identical to
    /// [`SchedulingTree::schedule`] with the chain's label; the chain just
    /// skips the per-packet id → node resolution (and, where
    /// [`Exec::elide_idle_updates`] allows, the lock traffic of classes
    /// inside their minimum update interval).
    ///
    /// # Panics
    ///
    /// Panics if `chain` indexes a program compiled against a different
    /// tree with more classes; a same-shaped foreign program silently
    /// corrupts verdicts — callers must recompile on reload.
    pub fn schedule_compiled<E: Exec>(
        &self,
        prog: &CompiledProgram,
        chain: ChainId,
        bits: u64,
        now: Nanos,
        exec: &mut E,
    ) -> SchedVerdict {
        self.schedule_compiled_observed(prog, chain, bits, now, exec, &mut NoObserver)
    }

    /// [`SchedulingTree::schedule_compiled`] with provenance capture: the
    /// same single walk, with `obs` told about every executed chain step
    /// (bucket tokens before/after, token test color) and the verdict's
    /// deciding step derivable from the step list. With
    /// [`NoObserver`] (`O::ENABLED == false`) every capture branch is
    /// erased at monomorphization, which is how the production
    /// `schedule_compiled` wrapper keeps its cost.
    pub fn schedule_compiled_observed<E: Exec, O: StepObserver>(
        &self,
        prog: &CompiledProgram,
        chain: ChainId,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        let (updates, ceil, borrows) = prog.parts(chain);
        let need = Tokens::from_bits(bits);
        let need_raw = need.raw() as i64;
        let elide = exec.elide_idle_updates();
        let stripe = exec.stripe();

        // Lines 1-5: refresh token buckets root→leaf, then mark every
        // class on the path touched (drives expiry).
        for s in updates {
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
        for s in updates {
            self.node(s.node as usize).touch(stripe, now.as_nanos());
        }

        // Lines 6-8: the leaf meter throttles the flow.
        let leaf_step = updates.last().expect("chains have a path");
        let leaf = self.node(leaf_step.node as usize);
        exec.charge(Op::AtomicOp);
        let lb = self.slab_bucket(leaf_step.bucket);
        let leaf_before = if O::ENABLED { lb.raw() } else { 0 };
        let leaf_green = exec.meter_bucket(self, leaf_step.bucket, need) == Color::Green;
        if O::ENABLED {
            obs.on_step(StepRecord {
                stage: 0,
                kind: StepKind::MeterLeaf,
                class: leaf.spec.id.0,
                bucket: leaf_step.bucket,
                need: need_raw,
                before: leaf_before,
                after: lb.raw(),
                green: leaf_green,
            });
        }
        if leaf_green {
            if let Some(cs) = ceil {
                exec.charge(Op::AtomicOp);
                let cb = self.slab_bucket(cs.bucket);
                let before = if O::ENABLED { cb.raw() } else { 0 };
                let green = exec.meter_bucket(self, cs.bucket, need) == Color::Green;
                if O::ENABLED {
                    obs.on_step(StepRecord {
                        stage: 0,
                        kind: StepKind::MeterCeil,
                        class: leaf.spec.id.0,
                        bucket: cs.bucket,
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
            self.count_steps(updates, bits, stripe, exec);
            leaf.add_forwarded(stripe, 1);
            return SchedVerdict::Forward;
        }

        // Lines 9-15: borrowing, still bounded by the leaf's own ceiling.
        if let Some(cs) = ceil {
            exec.charge(Op::AtomicOp);
            let cb = self.slab_bucket(cs.bucket);
            let before = if O::ENABLED { cb.raw() } else { 0 };
            let green = exec.meter_bucket(self, cs.bucket, need) == Color::Green;
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::MeterCeil,
                    class: leaf.spec.id.0,
                    bucket: cs.bucket,
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
        for s in borrows {
            if !elide || self.update_due(s.node as usize, true, now) {
                exec.charge(Op::LockOp);
                exec.locked_update(self, s.node as usize, LockKind::Shadow, now);
            }
            exec.charge(Op::AtomicOp);
            let sb = self.slab_bucket(s.bucket);
            let before = if O::ENABLED { sb.raw() } else { 0 };
            let green = sb.meter(need) == Color::Green;
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::Borrow,
                    class: self.node(s.node as usize).spec.id.0,
                    bucket: s.bucket,
                    need: need_raw,
                    before,
                    after: sb.raw(),
                    green,
                });
            }
            if green {
                let lnode = self.node(s.node as usize);
                self.count_steps(updates, bits, stripe, exec);
                lnode.add_lent(stripe, 1);
                leaf.add_borrowed(stripe, 1);
                return SchedVerdict::Borrowed(lnode.spec.id);
            }
        }

        // Line 16.
        leaf.add_dropped(stripe, 1);
        SchedVerdict::Drop
    }

    /// `count_path` + `charge_path` over precompiled path steps.
    fn count_steps<E: Exec>(&self, updates: &[ChainStep], bits: u64, stripe: usize, exec: &mut E) {
        for s in updates {
            self.node(s.node as usize).add_consumed(stripe, bits);
            exec.charge(Op::AtomicOp);
        }
    }
}

/// Number of per-worker stripes in a [`DecisionCache`]. Matches the
/// telemetry counter shard count so worker / [`fv_telemetry::thread_stripe`]
/// hints spread identically across every striped structure; must stay a
/// power of two.
pub const CACHE_STRIPES: usize = fv_telemetry::metrics::SHARDS;
const CACHE_STRIPE_MASK: usize = CACHE_STRIPES - 1;

/// One worker's private table of a [`DecisionCache`]. The header (table
/// pointer + hit/miss tallies) is cache-line-aligned so two workers
/// probing their own stripes never write the same line; the entry arrays
/// are separate allocations and disjoint by construction.
#[repr(align(64))]
#[derive(Debug)]
struct CacheStripe {
    entries: Box<[Option<CacheEntry>]>,
    hits: u64,
    misses: u64,
}

/// Direct-mapped per-flow admission cache: classified leaf class → chain
/// id + the generation the resolution was made under. A lookup hits only
/// when the stored label matches *and* the generation is current;
/// generations fold the pipeline's reload counter with
/// [`SchedulingTree::epoch`], so every `fv` reconfig, rate-estimation
/// epoch roll and borrowing-state change invalidates stale entries on the
/// next packet.
///
/// Internally the cache is split into [`CACHE_STRIPES`] per-worker tables
/// (the hardware analogue: each ME owns its EMFC slice). A worker passes
/// its stripe to [`DecisionCache::lookup_at`]/[`DecisionCache::insert_at`]
/// — the pipeline uses the cost meter's worker id, real-thread drivers use
/// [`fv_telemetry::thread_stripe`] — so concurrent resolvers never share a
/// table cache line. Invalidation is unchanged and stripe-agnostic: the
/// generation token gates every stripe identically, and [`clear`] wipes
/// them all. The stripe-less [`lookup`]/[`insert`] wrappers pin stripe 0
/// for single-worker callers.
///
/// [`clear`]: DecisionCache::clear
/// [`lookup`]: DecisionCache::lookup
/// [`insert`]: DecisionCache::insert
#[derive(Debug)]
pub struct DecisionCache {
    stripes: Box<[CacheStripe]>,
    mask: usize,
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    label: QosLabel,
    chain: ChainId,
    gen: u64,
}

impl DecisionCache {
    /// Creates a cache with at least `slots` entries per stripe (rounded
    /// up to a power of two; minimum 1).
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1).next_power_of_two();
        let stripes = (0..CACHE_STRIPES)
            .map(|_| CacheStripe {
                entries: vec![None; slots].into_boxed_slice(),
                hits: 0,
                misses: 0,
            })
            .collect();
        DecisionCache {
            stripes,
            mask: slots - 1,
        }
    }

    fn slot(&self, label: &QosLabel) -> usize {
        label.leaf().0 as usize & self.mask
    }

    /// The cached chain for `label`, if present and minted under `gen`.
    /// Stripe-0 wrapper over [`DecisionCache::lookup_at`].
    pub fn lookup(&mut self, label: &QosLabel, gen: u64) -> Option<ChainId> {
        self.lookup_at(0, label, gen)
    }

    /// The cached chain for `label` in `stripe`'s table (masked; any
    /// worker id or thread-stripe hint is safe).
    pub fn lookup_at(&mut self, stripe: usize, label: &QosLabel, gen: u64) -> Option<ChainId> {
        let slot = self.slot(label);
        let s = &mut self.stripes[stripe & CACHE_STRIPE_MASK];
        match s.entries[slot] {
            Some(e) if e.gen == gen && e.label == *label => {
                s.hits += 1;
                Some(e.chain)
            }
            _ => {
                s.misses += 1;
                None
            }
        }
    }

    /// Stores a resolution minted under `gen` (direct-mapped: evicts
    /// whatever shared the slot). Stripe-0 wrapper over
    /// [`DecisionCache::insert_at`].
    pub fn insert(&mut self, label: QosLabel, chain: ChainId, gen: u64) {
        self.insert_at(0, label, chain, gen);
    }

    /// Stores a resolution in `stripe`'s table (masked).
    pub fn insert_at(&mut self, stripe: usize, label: QosLabel, chain: ChainId, gen: u64) {
        let slot = self.slot(&label);
        self.stripes[stripe & CACHE_STRIPE_MASK].entries[slot] =
            Some(CacheEntry { label, chain, gen });
    }

    /// Drops every entry in every stripe (hot reload: the chain ids
    /// themselves are stale).
    pub fn clear(&mut self) {
        for s in self.stripes.iter_mut() {
            s.entries.iter_mut().for_each(|e| *e = None);
        }
    }

    /// (hits, misses) since construction, summed across stripes.
    pub fn stats(&self) -> (u64, u64) {
        self.stripes
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::ClassId;
    use crate::sched::RealExec;
    use crate::tree::{ClassSpec, TreeParams};
    use sim_core::units::BitRate;

    fn tree() -> SchedulingTree {
        SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(10.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec::new(ClassId(20), "b", Some(ClassId(1))).ceil(BitRate::from_gbps(4.0)),
            ],
            TreeParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn compile_flattens_paths_ceilings_and_lenders() {
        let t = tree();
        let la = t.label(ClassId(10), &[ClassId(20)]).unwrap();
        let lb = t.label(ClassId(20), &[]).unwrap();
        let prog = CompiledProgram::compile(&t, [&la, &lb]);
        assert_eq!(prog.chains(), 2);
        let (upd, ceil, bor) = prog.parts(prog.resolve(&la).unwrap());
        assert_eq!(upd.len(), 2);
        assert_eq!(upd[0].parent, NO_PARENT);
        assert_eq!(upd[1].parent, 0);
        assert!(ceil.is_none(), "a has no ceiling");
        assert_eq!(bor.len(), 1);
        assert_eq!(bor[0].op, StepOp::Borrow);
        let (_, ceil_b, bor_b) = prog.parts(prog.resolve(&lb).unwrap());
        assert!(ceil_b.is_some(), "b is ceiled");
        assert!(bor_b.is_empty());
        // Compile work is the flattened step total: (2+1+1) + (2+1+1).
        assert_eq!(prog.compile_ops(), 8);
    }

    #[test]
    fn duplicate_and_foreign_labels() {
        let t = tree();
        let la = t.label(ClassId(10), &[]).unwrap();
        let foreign = QosLabel::new(&[ClassId(7), ClassId(77)], &[]);
        let prog = CompiledProgram::compile(&t, [&la, &la, &foreign]);
        assert_eq!(prog.chains(), 1, "duplicates collapse, foreign skipped");
        assert!(prog.resolve(&foreign).is_none());
    }

    /// The leaf-indexed head table must resolve exactly like a map keyed
    /// by the full label: labels sharing a leaf but differing in their
    /// borrow lists get distinct chains, and labels the program never
    /// compiled (or whose leaf is outside the tree's id range) miss.
    #[test]
    fn resolve_agrees_with_a_label_map() {
        use std::collections::HashMap;
        let t = tree();
        let (a, b, root) = (ClassId(10), ClassId(20), ClassId(1));
        let compiled = [
            t.label(a, &[]).unwrap(),
            t.label(a, &[b]).unwrap(),
            t.label(a, &[b, root]).unwrap(),
            t.label(b, &[a]).unwrap(),
            t.label(a, &[b]).unwrap(),
        ];
        let prog = CompiledProgram::compile(&t, &compiled);
        let mut reference: HashMap<QosLabel, ChainId> = HashMap::new();
        for l in &compiled {
            let next = ChainId(reference.len() as u32);
            reference.entry(*l).or_insert(next);
        }
        assert_eq!(prog.chains(), reference.len());
        let absent = [
            t.label(a, &[root]).unwrap(),
            t.label(b, &[]).unwrap(),
            QosLabel::new(&[ClassId(1), ClassId(10), ClassId(11)], &[]),
            QosLabel::new(&[ClassId(1), ClassId(9_999)], &[]),
            QosLabel::new(&[ClassId(20)], &[]),
        ];
        for l in compiled.iter().chain(&absent) {
            assert_eq!(prog.resolve(l), reference.get(l).copied(), "label {l}");
        }
    }

    #[test]
    fn compiled_matches_interpreted_on_a_burst() {
        let a = tree();
        let b = tree();
        let label = a.label(ClassId(10), &[ClassId(20)]).unwrap();
        let prog = CompiledProgram::compile(&b, [&label]);
        let chain = prog.resolve(&label).unwrap();
        let mut now = Nanos::ZERO;
        for i in 0..50_000u64 {
            // ~12 Gbps offered against a 5 Gbps share: all verdict kinds.
            now += Nanos::from_nanos(1_000);
            let bits = 12_000 + (i % 3) * 1_500;
            let vi = a.schedule(&label, bits, now, &mut RealExec);
            let vc = b.schedule_compiled(&prog, chain, bits, now, &mut RealExec);
            assert_eq!(vi, vc, "packet {i} diverged");
        }
        assert_eq!(
            a.counters(ClassId(10)).unwrap(),
            b.counters(ClassId(10)).unwrap()
        );
        assert_eq!(
            a.counters(ClassId(20)).unwrap(),
            b.counters(ClassId(20)).unwrap()
        );
    }

    #[test]
    fn decision_cache_hits_until_generation_moves() {
        let t = tree();
        let label = t.label(ClassId(10), &[]).unwrap();
        let prog = CompiledProgram::compile(&t, [&label]);
        let chain = prog.resolve(&label).unwrap();
        let mut cache = DecisionCache::new(64);
        assert_eq!(cache.lookup(&label, 1), None);
        cache.insert(label, chain, 1);
        assert_eq!(cache.lookup(&label, 1), Some(chain));
        // A generation bump invalidates on the very next lookup.
        assert_eq!(cache.lookup(&label, 2), None);
        cache.insert(label, chain, 2);
        assert_eq!(cache.lookup(&label, 2), Some(chain));
        cache.clear();
        assert_eq!(cache.lookup(&label, 2), None);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (2, 3));
    }

    #[test]
    fn cache_stripes_are_isolated_tables() {
        let t = tree();
        let label = t.label(ClassId(10), &[]).unwrap();
        let prog = CompiledProgram::compile(&t, [&label]);
        let chain = prog.resolve(&label).unwrap();
        let mut cache = DecisionCache::new(64);
        cache.insert_at(0, label, chain, 1);
        assert_eq!(
            cache.lookup_at(1, &label, 1),
            None,
            "a worker must never see another worker's table"
        );
        assert_eq!(cache.lookup_at(0, &label, 1), Some(chain));
        // Stripe hints mask: CACHE_STRIPES aliases stripe 0.
        assert_eq!(cache.lookup_at(CACHE_STRIPES, &label, 1), Some(chain));
        // Stats fold every stripe; clear wipes every stripe.
        assert_eq!(cache.stats(), (2, 1));
        cache.clear();
        assert_eq!(cache.lookup_at(0, &label, 1), None);
    }

    #[test]
    fn epoch_advances_on_update_and_shadow_rolls() {
        let t = tree();
        let idx = t.node_index(ClassId(10)).unwrap();
        let e0 = t.epoch();
        assert!(t.update_node(idx, Nanos::from_micros(100)));
        assert!(t.epoch() > e0, "update epoch must bump the generation");
        let e1 = t.epoch();
        // Within the interval floor: no epoch, no bump.
        assert!(!t.update_node(idx, Nanos::from_micros(120)));
        assert_eq!(t.epoch(), e1);
        assert!(t.update_shadow(idx, Nanos::from_micros(200)));
        assert!(t.epoch() > e1, "shadow epoch must bump the generation");
    }
}

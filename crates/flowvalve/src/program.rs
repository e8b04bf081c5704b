//! The compiled scheduling program: admission chains flattened out of the
//! tree at build/reload time.
//!
//! Algorithm 1 runs over **admission chains**: a label's classes resolved
//! to [`ChainStep`]s (tree node, bucket slab index) in exact evaluation
//! order — the path's guarded updates root→leaf, the leaf meter, the
//! optional ceiling meter, then the lenders' shadow meters in label order.
//! `LabelChain` is the one resolution routine. A [`CompiledProgram`]
//! copies it into one shared step arena once per distinct [`QosLabel`] at
//! compile time, so steady flows resolve a chain through the
//! [`DecisionCache`] direct-mapped per-flow cache and execute only its
//! token test-and-add sequence. [`SchedulingTree::schedule`] walks the
//! label's chain directly; both run the same walk, so there is no second
//! scheduler to keep in step.
//!
//! Under a modeled execution environment ([`SimExec`](crate::sched::SimExec))
//! every walk charges the same modeled operations and lock interactions,
//! so every virtual-time figure is byte-identical whichever entry point
//! produced it. The wall-clock win of the compiled entry is on the
//! software side: no per-packet resolution, and — where the environment
//! permits ([`Exec::elide_idle_updates`]) — no lock traffic for classes
//! still inside their minimum update interval.

use fv_audit::{NoObserver, StepObserver};
use sim_core::time::Nanos;

use crate::label::{ClassId, QosLabel};
use crate::sched::{Exec, SchedVerdict};
use crate::tree::{Node, SchedulingTree};

/// Identifier of one compiled admission chain within a [`CompiledProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChainId(u32);

impl ChainId {
    /// The chain's index within its program (provenance records).
    pub fn index(&self) -> u32 {
        self.0
    }
}

/// One instruction of an admission chain: which node, and which bucket in
/// the tree's flat slab the step updates or meters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainStep {
    pub(crate) node: u32,
    pub(crate) bucket: u32,
}

/// An admission chain as the walk reads it, phase by phase. Two forms
/// implement it: a compiled chain in a program's step arena
/// ([`ChainView`]) and a label resolved through the tree as the walk
/// reaches each step ([`LabelChain`]), which is also what compilation
/// copies into the arena.
pub(crate) trait Steps {
    /// Guarded updates, root→leaf (lines 1-5).
    fn path(&self) -> impl Iterator<Item = ChainStep> + '_;
    /// The leaf's own budget meter (lines 6-8).
    fn leaf(&self) -> ChainStep;
    /// The leaf's ceiling meter, if the class is ceiled.
    fn ceil(&self) -> Option<ChainStep>;
    /// Lender shadow meters in label order (lines 9-15).
    fn borrows(&self) -> impl Iterator<Item = ChainStep> + '_;
}

/// A label's admission chain, each step resolved through the tree's
/// id → node table when it is read. The walk reads the path up to three
/// times (update, touch, count), and resolving it each time costs less
/// per packet than copying the chain out first (DESIGN.md §15).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LabelChain<'a> {
    tree: &'a SchedulingTree,
    label: &'a QosLabel,
    leaf: usize,
}

impl<'a> LabelChain<'a> {
    /// `label`'s chain in `tree`.
    ///
    /// # Panics
    ///
    /// Panics if the leaf is not in the tree, and while the chain is read
    /// if any other class of the label is not.
    #[inline]
    pub(crate) fn new(tree: &'a SchedulingTree, label: &'a QosLabel) -> Self {
        let leaf = tree.node_index(label.leaf()).expect("label leaf in tree");
        LabelChain { tree, label, leaf }
    }

    #[inline]
    fn step(&self, class: ClassId, bucket: impl Fn(&Node) -> u32) -> ChainStep {
        let node = self.tree.node_index(class).expect("label class in tree");
        ChainStep {
            node: node as u32,
            bucket: bucket(self.tree.node(node)),
        }
    }
}

impl Steps for LabelChain<'_> {
    #[inline]
    fn path(&self) -> impl Iterator<Item = ChainStep> + '_ {
        self.label
            .path()
            .iter()
            .map(|&c| self.step(c, |n| n.bucket))
    }

    #[inline]
    fn leaf(&self) -> ChainStep {
        ChainStep {
            node: self.leaf as u32,
            bucket: self.tree.node(self.leaf).bucket,
        }
    }

    #[inline]
    fn ceil(&self) -> Option<ChainStep> {
        let bucket = self.tree.node(self.leaf).ceil_bucket?;
        Some(ChainStep {
            node: self.leaf as u32,
            bucket,
        })
    }

    #[inline]
    fn borrows(&self) -> impl Iterator<Item = ChainStep> + '_ {
        self.label
            .borrow()
            .iter()
            .map(|&c| self.step(c, |n| n.shadow))
    }
}

/// A compiled chain's steps in a program's arena, split into phases.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainView<'a> {
    path: &'a [ChainStep],
    leaf: ChainStep,
    ceil: Option<ChainStep>,
    borrows: &'a [ChainStep],
}

impl Steps for ChainView<'_> {
    #[inline]
    fn path(&self) -> impl Iterator<Item = ChainStep> + '_ {
        self.path.iter().copied()
    }

    #[inline]
    fn leaf(&self) -> ChainStep {
        self.leaf
    }

    #[inline]
    fn ceil(&self) -> Option<ChainStep> {
        self.ceil
    }

    #[inline]
    fn borrows(&self) -> impl Iterator<Item = ChainStep> + '_ {
        self.borrows.iter().copied()
    }
}

/// Marks the end of a leaf's chain list in [`CompiledProgram::heads`].
const NO_CHAIN: u32 = u32::MAX;

/// One chain's extent inside the shared step arena. Layout within
/// `start..`: `path_len` update steps root→leaf, one leaf meter, an
/// optional ceiling meter, then `borrow_len` lender steps in label order.
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
}

impl CompiledProgram {
    /// Flattens `tree` into admission chains, one per distinct label.
    /// Labels referencing classes absent from the tree are skipped (they
    /// resolve to `None`).
    pub fn compile<'a>(
        tree: &SchedulingTree,
        labels: impl IntoIterator<Item = &'a QosLabel>,
    ) -> Self {
        let mut prog = CompiledProgram {
            steps: Vec::new(),
            chains: Vec::new(),
            heads: Vec::new(),
        };
        for label in labels {
            prog.add_chain(tree, label);
        }
        prog
    }

    fn add_chain(&mut self, tree: &SchedulingTree, label: &QosLabel) {
        let known = |c: &ClassId| tree.node_index(*c).is_some();
        if self.resolve(label).is_some() || !label.path().iter().chain(label.borrow()).all(known) {
            return;
        }
        let chain = LabelChain::new(tree, label);
        let start = self.steps.len() as u32;
        self.steps.extend(chain.path());
        self.steps.push(chain.leaf());
        self.steps.extend(chain.ceil());
        self.steps.extend(chain.borrows());
        let id = self.chains.len() as u32;
        let head = label.leaf().0 as usize;
        if head >= self.heads.len() {
            self.heads.resize(head + 1, NO_CHAIN);
        }
        self.chains.push(Chain {
            start,
            path_len: label.path().len() as u8,
            has_ceil: chain.ceil().is_some(),
            borrow_len: label.borrow().len() as u8,
            label: *label,
            next: self.heads[head],
        });
        self.heads[head] = id;
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
        self.steps.len() as u64
    }

    fn view(&self, id: ChainId) -> ChainView<'_> {
        let c = self.chains[id.0 as usize];
        let steps = &self.steps[c.start as usize..];
        let path = c.path_len as usize;
        let borrows = path + 1 + c.has_ceil as usize;
        ChainView {
            path: &steps[..path],
            leaf: steps[path],
            ceil: c.has_ceil.then(|| steps[path + 1]),
            borrows: &steps[borrows..borrows + c.borrow_len as usize],
        }
    }
}

impl SchedulingTree {
    /// Runs the scheduling function for one packet through a compiled
    /// admission chain: [`SchedulingTree::schedule`] without the
    /// per-packet label resolution. Verdicts, counter effects and — under
    /// a modeled [`Exec`] — charge/lock sequences are identical to
    /// `schedule` with the chain's label.
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
    /// (bucket tokens before/after, token test color). With
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
        self.walk(prog.view(chain), bits, now, exec, obs)
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
        let [root, a, b] = [ClassId(1), ClassId(10), ClassId(20)].map(|c| t.node_index(c).unwrap());
        let v = prog.view(prog.resolve(&la).unwrap());
        let nodes = |steps: &[ChainStep]| steps.iter().map(|s| s.node as usize).collect::<Vec<_>>();
        assert_eq!(nodes(v.path), [root, a]);
        assert_eq!(v.leaf.bucket, t.node(a).bucket);
        assert!(v.ceil.is_none(), "a has no ceiling");
        assert_eq!(nodes(v.borrows), [b]);
        assert_eq!(v.borrows[0].bucket, t.node(b).shadow);
        let vb = prog.view(prog.resolve(&lb).unwrap());
        assert_eq!(
            vb.ceil.map(|s| s.bucket),
            t.node(b).ceil_bucket,
            "b is ceiled"
        );
        assert!(vb.borrows.is_empty());
        // Compile work is the flattened step total: (2+1+1) + (2+1+1).
        assert_eq!(prog.compile_ops(), 8);
    }

    /// A compiled chain reads back from the arena exactly as the label's
    /// chain reads from the tree, phase by phase.
    #[test]
    fn compiled_chains_read_back_as_their_labels() {
        let t = tree();
        let labels = [
            t.label(ClassId(10), &[ClassId(20), ClassId(1)]).unwrap(),
            t.label(ClassId(20), &[ClassId(10)]).unwrap(),
            t.label(ClassId(20), &[]).unwrap(),
        ];
        let prog = CompiledProgram::compile(&t, &labels);
        for l in &labels {
            let (lc, v) = (LabelChain::new(&t, l), prog.view(prog.resolve(l).unwrap()));
            assert!(lc.path().eq(v.path()), "{l}");
            assert_eq!(lc.leaf(), v.leaf(), "{l}");
            assert_eq!(lc.ceil(), v.ceil(), "{l}");
            assert!(lc.borrows().eq(v.borrows()), "{l}");
        }
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

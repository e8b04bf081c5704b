//! Packet classification for the FlowValve reproduction: filter rules, an
//! ordered filter table, and an exact-match flow cache modeling Netronome's
//! EMFC accelerator.
//!
//! The paper's labeling function "essentially performs table lookups to
//! match packets against filter rules" (§IV-A). This crate supplies that
//! substrate: [`FilterTable`] is the slow first-match walk, [`FlowCache`]
//! is the accelerated exact-match fast path, and [`Classifier`] composes
//! them with the standard miss-fill discipline.
//!
//! # Example
//!
//! ```
//! use classifier::{Classifier, FilterRule, FlowMatch};
//! use classifier::cache::CacheResult;
//! use netstack::flow::FlowKey;
//! use netstack::packet::VfPort;
//!
//! let mut cls = Classifier::new("default", 1024);
//! cls.add_rule(FilterRule::new(10, FlowMatch::any().dst_port(5001), "kvs"));
//!
//! let flow = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001);
//! // First packet of the flow misses the cache and walks the table...
//! let (verdict, result) = cls.classify(&flow, VfPort(0));
//! assert_eq!((verdict, result), (&"kvs", CacheResult::Miss));
//! // ...subsequent packets hit.
//! let (verdict, result) = cls.classify(&flow, VfPort(0));
//! assert_eq!((verdict, result), (&"kvs", CacheResult::Hit));
//! ```

pub mod cache;
pub mod rule;
pub mod shard;
pub mod table;

pub use cache::{CacheResult, CacheStats, FlowCache};
pub use rule::{Cidr, FilterRule, FlowMatch};
pub use shard::ShardedFlowCache;
pub use table::FilterTable;

use netstack::flow::FlowKey;
use netstack::packet::VfPort;

/// Filter table + flow cache, composed with miss-fill.
///
/// Verdicts are `Clone` because a table verdict is copied into the cache on
/// a miss (mirroring how the hardware cache stores flattened actions).
///
/// The cache is sharded per worker stripe ([`shard::SHARDS`] padded
/// tables, modeling per-island EMFCs): multi-worker callers use
/// [`Classifier::classify_at`] with their worker index so each worker's
/// hit path stays on its own cache lines; [`Classifier::classify`] is the
/// single-worker form (stripe 0).
#[derive(Debug, Clone)]
pub struct Classifier<V> {
    table: FilterTable<V>,
    cache: ShardedFlowCache<V>,
}

impl<V: Clone> Classifier<V> {
    /// Creates a classifier with a default verdict and cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero.
    pub fn new(default: V, cache_capacity: usize) -> Self {
        Classifier {
            table: FilterTable::new(default),
            cache: ShardedFlowCache::new(cache_capacity),
        }
    }

    /// Adds a filter rule and invalidates the cache (rule changes can
    /// re-classify existing flows, exactly like hardware rule updates).
    pub fn add_rule(&mut self, rule: FilterRule<V>) {
        self.table.add(rule);
        self.cache.invalidate_all();
    }

    /// Classifies a flow, reporting whether the fast path was taken.
    ///
    /// On a miss the verdict is computed from the table and installed in
    /// the cache before returning. Single-worker form of
    /// [`Classifier::classify_at`] (stripe 0).
    pub fn classify(&mut self, flow: &FlowKey, vf: VfPort) -> (&V, CacheResult) {
        self.classify_at(0, flow, vf)
    }

    /// Classifies a flow on worker `stripe`'s cache shard.
    ///
    /// The stripe is masked internally, so any worker id is valid. Each
    /// worker fills and hits its own shard: a flow migrating across
    /// workers re-misses once per shard it lands on, exactly like a flow
    /// migrating across hardware islands.
    ///
    /// One flow-cache probe per packet: a hit returns the slot's verdict
    /// directly, and a miss walks the table and fills the probed empty
    /// slot in place.
    pub fn classify_at(&mut self, stripe: usize, flow: &FlowKey, vf: VfPort) -> (&V, CacheResult) {
        let table = &self.table;
        self.cache
            .lookup_or_insert_with_at(stripe, flow, || table.lookup(flow, vf).clone())
    }

    /// The underlying filter table.
    pub fn table(&self) -> &FilterTable<V> {
        &self.table
    }

    /// Flow-cache statistics, merged exactly across all worker shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod classifier_tests {
    use super::*;

    fn flow(port: u16) -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], port, [10, 0, 0, 2], 5001)
    }

    #[test]
    fn default_verdict_for_unmatched() {
        let mut c: Classifier<u32> = Classifier::new(0, 16);
        let (v, r) = c.classify(&flow(1), VfPort(0));
        assert_eq!((*v, r), (0, CacheResult::Miss));
    }

    #[test]
    fn rule_change_invalidates_cache() {
        let mut c: Classifier<u32> = Classifier::new(0, 16);
        let _ = c.classify(&flow(1), VfPort(0));
        c.add_rule(FilterRule::new(1, FlowMatch::any(), 7));
        let (v, r) = c.classify(&flow(1), VfPort(0));
        assert_eq!((*v, r), (7, CacheResult::Miss));
        let (v, r) = c.classify(&flow(1), VfPort(0));
        assert_eq!((*v, r), (7, CacheResult::Hit));
    }

    #[test]
    fn worker_stripes_fill_independent_shards() {
        let mut c: Classifier<u32> = Classifier::new(0, 64);
        c.add_rule(FilterRule::new(1, FlowMatch::any(), 9));
        // Worker 0 fills its shard; worker 1 re-misses (its own island is
        // cold) but still gets the same verdict from the table.
        let (v, r) = c.classify_at(0, &flow(1), VfPort(0));
        assert_eq!((*v, r), (9, CacheResult::Miss));
        let (v, r) = c.classify_at(1, &flow(1), VfPort(0));
        assert_eq!((*v, r), (9, CacheResult::Miss));
        // Both shards are now warm.
        assert_eq!(c.classify_at(0, &flow(1), VfPort(0)).1, CacheResult::Hit);
        assert_eq!(c.classify_at(1, &flow(1), VfPort(0)).1, CacheResult::Hit);
        let s = c.cache_stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    /// The single-probe `classify_at` must be indistinguishable from the
    /// lookup → insert-on-miss → peek sequence it replaced: same verdicts,
    /// same hit/miss results, same stats (evictions included), on a seeded
    /// trace that keeps every shard under eviction pressure.
    #[test]
    fn classify_at_matches_lookup_insert_peek_under_eviction() {
        let rules = [
            FilterRule::new(1, FlowMatch::any().dst_port(5001), 1u32),
            FilterRule::new(2, FlowMatch::any().src_port(7), 2),
            FilterRule::new(3, FlowMatch::any().dst_port(80), 3),
        ];
        let mut cls: Classifier<u32> = Classifier::new(0, 64);
        let mut table = FilterTable::new(0u32);
        let mut cache: ShardedFlowCache<u32> = ShardedFlowCache::new(64);
        for r in rules {
            cls.add_rule(r.clone());
            table.add(r);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..50_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let stripe = (x >> 40) as usize % 3;
            let dport = [5001, 80, 443][(x >> 20) as usize % 3];
            let f = FlowKey::tcp([10, 0, 0, 1], (x % 600) as u16, [10, 0, 0, 2], dport);
            let vf = VfPort((x >> 50) as u8 % 2);

            let got = {
                let (v, r) = cls.classify_at(stripe, &f, vf);
                (*v, r)
            };
            let result = cache.lookup_at(stripe, &f).1;
            if result == CacheResult::Miss {
                cache.insert_at(stripe, f, *table.lookup(&f, vf));
            }
            let want = (*cache.peek_at(stripe, &f).expect("filled"), result);
            assert_eq!(got, want, "step {step}");
        }
        assert_eq!(cls.cache_stats(), cache.stats());
        assert!(cache.stats().evictions > 10_000, "trace must evict");
    }

    #[test]
    fn stats_count_each_packet_once() {
        let mut c: Classifier<u32> = Classifier::new(0, 16);
        let _ = c.classify(&flow(1), VfPort(0)); // miss
        let _ = c.classify(&flow(1), VfPort(0)); // hit
        let _ = c.classify(&flow(1), VfPort(0)); // hit
        let s = c.cache_stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }
}

//! Criterion: classification costs — exact-match cache hit vs filter
//! table walk (the ~10x gap of the paper's Observation 2, in software).

use std::time::{Duration, Instant};

use classifier::shard::SHARDS;
use classifier::{Classifier, FilterRule, FlowMatch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netstack::flow::FlowKey;
use netstack::packet::VfPort;

fn classifier_with_rules(n_rules: u16, cache_capacity: usize) -> Classifier<u32> {
    let mut c = Classifier::new(0u32, cache_capacity);
    for i in 0..n_rules {
        c.add_rule(FilterRule::new(
            i,
            FlowMatch::any().dst_port(5_000 + i),
            i as u32 + 1,
        ));
    }
    c
}

fn bench_classify(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier");
    g.throughput(Throughput::Elements(1));

    // Cache hit: the steady-state fast path.
    g.bench_function("cache_hit", |b| {
        let mut cls = classifier_with_rules(64, 1 << 16);
        let flow = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 255, 1], 5_010);
        let _ = cls.classify(&flow, VfPort(0)); // warm the cache
        b.iter(|| std::hint::black_box(cls.classify(&flow, VfPort(0)).1));
    });

    // Miss + table walk, for growing rule tables (the slow path the
    // hardware EMFC exists to avoid). Every timed lookup is a cold flow:
    // each round of `PORTS` fresh flows starts from an empty cache (the
    // reset is untimed), and the shard the bench probes holds a whole
    // round, so the body checks it measured misses without evictions.
    const PORTS: u64 = 4_096;
    for rules in [16u16, 64, 256] {
        g.bench_with_input(
            BenchmarkId::new("miss_table_walk", rules),
            &rules,
            |b, &rules| {
                let empty = classifier_with_rules(rules, PORTS as usize * SHARDS);
                b.iter_custom(|iters| {
                    let mut elapsed = Duration::ZERO;
                    let mut left = iters;
                    while left > 0 {
                        let round = left.min(PORTS);
                        let mut cls = empty.clone();
                        let start = Instant::now();
                        for port in 0..round as u16 {
                            let flow = FlowKey::tcp([10, 0, 0, 1], port, [10, 0, 255, 1], 65_000);
                            std::hint::black_box(cls.classify(&flow, VfPort(0)).1);
                        }
                        elapsed += start.elapsed();
                        let stats = cls.cache_stats();
                        assert_eq!(stats.misses, round, "a timed lookup hit the cache");
                        assert_eq!(stats.evictions, 0, "the shard must hold a whole round");
                        left -= round;
                    }
                    elapsed
                });
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    targets = bench_classify
}
criterion_main!(benches);

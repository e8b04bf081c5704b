//! Statistics and invariants shared by the workloads.

use classifier::CacheStats;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::SchedulingTree;
use np_sim::nic::{NicStats, SmartNic};

use crate::pins::Counts;
use crate::Layers;

/// `hits` as a share of all lookups (0 without lookups).
pub fn ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Pinned NIC statistics: the NIC totals and every class's counters.
pub fn nic_counts(nic: &NicStats, tree: &SchedulingTree) -> Counts {
    let mut c: Counts = vec![
        ("nic.offered".into(), nic.offered),
        ("nic.rx_drops".into(), nic.rx_drops),
        ("nic.sched_drops".into(), nic.sched_drops),
        ("nic.tail_drops".into(), nic.tail_drops),
        ("nic.fault_drops".into(), nic.fault_drops),
        ("nic.tx_packets".into(), nic.tx_packets),
        ("nic.tx_bits".into(), nic.tx_bits),
    ];
    c.extend(class_counts(tree));
    c
}

/// Every class's forwarded, borrowed, dropped and lent counters.
pub fn class_counts(tree: &SchedulingTree) -> Counts {
    let mut c = Counts::new();
    for id in tree.class_ids() {
        let k = tree.counters(id).unwrap_or_default();
        c.push((format!("class.{id}.forwarded"), k.forwarded));
        c.push((format!("class.{id}.borrowed"), k.borrowed));
        c.push((format!("class.{id}.dropped"), k.dropped));
        c.push((format!("class.{id}.lent"), k.lent));
    }
    c
}

/// Forwarded, borrowed and dropped verdicts summed over every class.
pub fn verdict_totals(tree: &SchedulingTree) -> [u64; 3] {
    tree.class_ids()
        .into_iter()
        .filter_map(|id| tree.counters(id))
        .fold([0; 3], |[f, b, d], k| {
            [f + k.forwarded, b + k.borrowed, d + k.dropped]
        })
}

/// Checks that apply to every NIC pass: packet conservation, and every
/// scheduled packet accounted for by exactly one class verdict.
pub fn nic_conservation(nic: &NicStats, verdicts: [u64; 3]) -> Option<String> {
    let out = nic.rx_drops + nic.sched_drops + nic.tail_drops + nic.fault_drops + nic.tx_packets;
    if out != nic.offered {
        return Some(format!(
            "NIC conservation: offered {} but drops + tx = {out}",
            nic.offered
        ));
    }
    let [f, b, d] = verdicts;
    if f + b + d != nic.offered - nic.rx_drops || d != nic.sched_drops {
        return Some(format!(
            "verdicts: forwarded {f} + borrowed {b} + dropped {d} vs {} scheduled, {} sched drops",
            nic.offered - nic.rx_drops,
            nic.sched_drops
        ));
    }
    None
}

/// A simulated NIC's FlowValve pipeline statistics: its flow cache, its
/// decision cache (hits, misses), its compiled chains and its tree's
/// epoch counter.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineStats {
    pub classifier: CacheStats,
    pub decision: (u64, u64),
    pub chains: u64,
    pub epochs: u64,
}

impl PipelineStats {
    pub fn of(nic: &mut SmartNic) -> Self {
        let p = nic
            .decider_as::<FlowValvePipeline>()
            .expect("decider is a FlowValve pipeline");
        PipelineStats {
            classifier: p.cache_stats(),
            decision: p.decision_cache_stats(),
            chains: p.program().chains() as u64,
            epochs: p.tree().epoch(),
        }
    }
}

/// The per-layer metrics a simulated NIC's counters give: cache ratios,
/// tree verdict shares and epochs, and NIC outcome shares.
pub fn nic_layers(nic: &NicStats, verdicts: [u64; 3], stats: &PipelineStats) -> Layers {
    let [f, b, d] = verdicts;
    let decisions = (f + b + d).max(1) as f64;
    let share = |n: u64| n as f64 / nic.offered.max(1) as f64;
    Layers {
        classifier_hit_ratio: ratio(stats.classifier.hits, stats.classifier.misses),
        classifier_evictions: stats.classifier.evictions as f64,
        program_hit_ratio: ratio(stats.decision.0, stats.decision.1),
        forward_share: f as f64 / decisions,
        borrow_share: b as f64 / decisions,
        drop_share: d as f64 / decisions,
        epochs: stats.epochs as f64,
        rx_drop_share: share(nic.rx_drops),
        sched_drop_share: share(nic.sched_drops),
        tail_drop_share: share(nic.tail_drops),
        tx_share: share(nic.tx_packets),
        ..Layers::default()
    }
}

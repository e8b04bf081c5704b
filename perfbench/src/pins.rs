//! Outcome pins: the simulated statistics a workload's reference input
//! must reproduce exactly, kept in `pins.txt` beside the benchmark.
//!
//! Every run replays the reference input once (it doubles as the
//! process warm-up) and compares its statistics with the pins; the passes
//! on the `--seed` input must then agree with each other exactly. A line
//! of `pins.txt` reads `<workload> <statistic> <value>`; `#` starts a
//! comment. Regenerate a workload's lines with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <name> --pins`
//! after a change that is meant to alter simulated behaviour.

/// Named statistics of one pass, in a fixed order.
pub type Counts = Vec<(String, u64)>;

const PINS: &str = include_str!("../pins.txt");

/// The pinned statistics of `workload`.
pub fn expected(workload: &str) -> Counts {
    PINS.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            match (f.next(), f.next(), f.next().and_then(|v| v.parse().ok())) {
                (Some(w), Some(k), Some(v)) if w == workload => Some((k.to_owned(), v)),
                _ => None,
            }
        })
        .collect()
}

/// `None` when `got` equals `want`; otherwise the first difference.
pub fn diff(want: &Counts, got: &Counts) -> Option<String> {
    if want.is_empty() {
        return Some("no pinned statistics".into());
    }
    for (k, v) in want {
        match got.iter().find(|(g, _)| g == k) {
            Some((_, g)) if g == v => {}
            Some((_, g)) => return Some(format!("{k}: expected {v}, got {g}")),
            None => return Some(format!("{k}: missing")),
        }
    }
    got.iter()
        .find(|(k, _)| !want.iter().any(|(w, _)| w == k))
        .map(|(k, v)| format!("{k}: unexpected statistic ({v})"))
}

/// `counts` in the `pins.txt` line format.
pub fn render(workload: &str, counts: &Counts) -> String {
    counts
        .iter()
        .map(|(k, v)| format!("{workload} {k} {v}\n"))
        .collect()
}

/// Checks passes' statistics: against `pins.txt` for the reference
/// input ([`Determinism::pinned`]), or against the run's first seeded
/// pass, which the first seeded pass becomes ([`Determinism::default`]).
#[derive(Debug, Default)]
pub struct Determinism {
    first: Option<Counts>,
    pinned: bool,
}

impl Determinism {
    /// A checker holding `workload`'s pins.
    pub fn pinned(workload: &str) -> Self {
        Determinism {
            first: Some(expected(workload)),
            pinned: true,
        }
    }

    /// `None` when `counts` match; otherwise the first difference.
    pub fn check(&mut self, counts: Counts) -> Option<String> {
        let Some(first) = &self.first else {
            self.first = Some(counts);
            return None;
        };
        let what = if self.pinned {
            "reference input does not match pins.txt"
        } else {
            "seeded passes disagree"
        };
        diff(first, &counts).map(|d| format!("{what}: {d}"))
    }
}

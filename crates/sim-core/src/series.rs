//! Time-series recording and binning for figure regeneration.
//!
//! The paper's Figure 3 and Figure 11 plot per-application throughput over
//! time. Experiment drivers record `(timestamp, bits)` samples per named
//! series through a [`SeriesRecorder`] and then bin them into fixed
//! intervals with [`SeriesRecorder::binned`], yielding Gbps-over-time rows
//! ready to print or serialize.

use std::collections::BTreeMap;

use crate::time::Nanos;
use crate::units::BitRate;

/// One binned series: average bit rate per fixed time bin.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedSeries {
    /// Series name (e.g. application name).
    pub name: String,
    /// Bin width.
    pub bin: Nanos,
    /// Average rate in each bin, starting at t = 0.
    pub rates: Vec<BitRate>,
}

impl BinnedSeries {
    /// The average rate over bins `[from, to)`, e.g. a steady-state window.
    ///
    /// Returns [`BitRate::ZERO`] for an empty window.
    pub fn mean_rate(&self, from: usize, to: usize) -> BitRate {
        let to = to.min(self.rates.len());
        if from >= to {
            return BitRate::ZERO;
        }
        let sum: u128 = self.rates[from..to]
            .iter()
            .map(|r| r.as_bps() as u128)
            .sum();
        BitRate::from_bps((sum / (to - from) as u128) as u64)
    }

    /// The rate of the bin containing time `t` (zero outside the series).
    pub fn rate_at(&self, t: Nanos) -> BitRate {
        let idx = (t.as_nanos() / self.bin.as_nanos()) as usize;
        self.rates.get(idx).copied().unwrap_or(BitRate::ZERO)
    }
}

/// Records `(time, bits)` events for multiple named series.
///
/// # Example
///
/// ```
/// use sim_core::series::SeriesRecorder;
/// use sim_core::time::Nanos;
/// use sim_core::units::BitRate;
///
/// let mut rec = SeriesRecorder::new();
/// // 1000 bits every 100 ns for 1 us => 10 Gbps.
/// for i in 0..10 {
///     rec.record("app0", Nanos::from_nanos(i * 100), 1_000);
/// }
/// let series = rec.binned("app0", Nanos::from_micros(1)).expect("series exists");
/// assert_eq!(series.rates[0], BitRate::from_gbps(10.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeriesRecorder {
    samples: BTreeMap<String, Vec<(Nanos, u64)>>,
}

impl SeriesRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `bits` were delivered for series `name` at time `t`.
    pub fn record(&mut self, name: &str, t: Nanos, bits: u64) {
        match self.samples.get_mut(name) {
            Some(v) => v.push((t, bits)),
            None => {
                self.samples.insert(name.to_owned(), vec![(t, bits)]);
            }
        }
    }

    /// Appends `samples` to series `name`, in order — the same as calling
    /// [`SeriesRecorder::record`] once per sample. An empty batch records
    /// nothing (and creates no series).
    pub fn extend(&mut self, name: &str, samples: Vec<(Nanos, u64)>) {
        if samples.is_empty() {
            return;
        }
        match self.samples.get_mut(name) {
            Some(v) => v.extend(samples),
            None => {
                self.samples.insert(name.to_owned(), samples);
            }
        }
    }

    /// Names of all recorded series, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.samples.keys().map(String::as_str).collect()
    }

    /// Total bits recorded for `name` (zero if unknown).
    pub fn total_bits(&self, name: &str) -> u64 {
        self.samples
            .get(name)
            .map(|v| v.iter().map(|&(_, b)| b).sum())
            .unwrap_or(0)
    }

    /// Total sample count across all series.
    pub fn len(&self) -> usize {
        self.samples.values().map(Vec::len).sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bins one series into fixed intervals of width `bin`, producing the
    /// average rate per bin. Returns `None` for an unknown series.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn binned(&self, name: &str, bin: Nanos) -> Option<BinnedSeries> {
        assert!(bin > Nanos::ZERO, "bin width must be positive");
        let samples = self.samples.get(name)?;
        let end = samples.iter().map(|&(t, _)| t).max().unwrap_or(Nanos::ZERO);
        let nbins = (end.as_nanos() / bin.as_nanos() + 1) as usize;
        let mut bits = vec![0u64; nbins];
        for &(t, b) in samples {
            bits[(t.as_nanos() / bin.as_nanos()) as usize] += b;
        }
        let rates = bits
            .into_iter()
            .map(|b| {
                BitRate::from_bps((b as u128 * 1_000_000_000u128 / bin.as_nanos() as u128) as u64)
            })
            .collect();
        Some(BinnedSeries {
            name: name.to_owned(),
            bin,
            rates,
        })
    }

    /// Bins every series with the same width, padding all to equal length.
    pub fn binned_all(&self, bin: Nanos) -> Vec<BinnedSeries> {
        let mut all: Vec<BinnedSeries> = self
            .samples
            .keys()
            .filter_map(|name| self.binned(name, bin))
            .collect();
        let max_len = all.iter().map(|s| s.rates.len()).max().unwrap_or(0);
        for s in &mut all {
            s.rates.resize(max_len, BitRate::ZERO);
        }
        all
    }

    /// Renders all series as an aligned text table of Gbps per bin — the
    /// textual analogue of the paper's throughput-over-time figures.
    pub fn render_table(&self, bin: Nanos) -> String {
        let all = self.binned_all(bin);
        let mut out = String::new();
        out.push_str("time_s");
        for s in &all {
            out.push('\t');
            out.push_str(&s.name);
        }
        out.push('\n');
        let nbins = all.first().map(|s| s.rates.len()).unwrap_or(0);
        for i in 0..nbins {
            let t = bin.as_secs_f64() * i as f64;
            out.push_str(&format!("{t:.1}"));
            for s in &all {
                out.push_str(&format!("\t{:.2}", s.rates[i].as_gbps()));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_computes_average_rate() {
        let mut rec = SeriesRecorder::new();
        // 500 bits at t=0 and t=500ns -> 1000 bits over a 1 us bin = 1 Gbps.
        rec.record("a", Nanos::ZERO, 500);
        rec.record("a", Nanos::from_nanos(500), 500);
        let s = rec.binned("a", Nanos::from_micros(1)).unwrap();
        assert_eq!(s.rates.len(), 1);
        assert_eq!(s.rates[0], BitRate::from_gbps(1.0));
    }

    #[test]
    fn unknown_series_is_none() {
        let rec = SeriesRecorder::new();
        assert!(rec.binned("missing", Nanos::from_micros(1)).is_none());
    }

    #[test]
    fn samples_fall_in_correct_bins() {
        let mut rec = SeriesRecorder::new();
        rec.record("a", Nanos::from_micros(0), 100);
        rec.record("a", Nanos::from_micros(1), 200);
        rec.record("a", Nanos::from_micros(2), 400);
        let s = rec.binned("a", Nanos::from_micros(1)).unwrap();
        assert_eq!(s.rates.len(), 3);
        assert!(s.rates[0] < s.rates[1] && s.rates[1] < s.rates[2]);
    }

    #[test]
    fn binned_all_pads_to_equal_length() {
        let mut rec = SeriesRecorder::new();
        rec.record("short", Nanos::ZERO, 1);
        rec.record("long", Nanos::from_micros(9), 1);
        let all = rec.binned_all(Nanos::from_micros(1));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].rates.len(), all[1].rates.len());
    }

    #[test]
    fn mean_rate_window() {
        let s = BinnedSeries {
            name: "x".into(),
            bin: Nanos::from_secs(1),
            rates: vec![
                BitRate::from_gbps(2.0),
                BitRate::from_gbps(4.0),
                BitRate::from_gbps(6.0),
            ],
        };
        assert_eq!(s.mean_rate(0, 3), BitRate::from_gbps(4.0));
        assert_eq!(s.mean_rate(1, 2), BitRate::from_gbps(4.0));
        assert_eq!(s.mean_rate(2, 2), BitRate::ZERO);
        assert_eq!(s.mean_rate(0, 100), BitRate::from_gbps(4.0));
    }

    #[test]
    fn rate_at_time() {
        let s = BinnedSeries {
            name: "x".into(),
            bin: Nanos::from_secs(1),
            rates: vec![BitRate::from_gbps(1.0), BitRate::from_gbps(2.0)],
        };
        assert_eq!(s.rate_at(Nanos::from_millis(500)), BitRate::from_gbps(1.0));
        assert_eq!(
            s.rate_at(Nanos::from_millis(1_500)),
            BitRate::from_gbps(2.0)
        );
        assert_eq!(s.rate_at(Nanos::from_secs(10)), BitRate::ZERO);
    }

    #[test]
    fn totals_and_names() {
        let mut rec = SeriesRecorder::new();
        rec.record("b", Nanos::ZERO, 10);
        rec.record("a", Nanos::ZERO, 5);
        rec.record("a", Nanos::ZERO, 5);
        assert_eq!(rec.names(), vec!["a", "b"]);
        assert_eq!(rec.total_bits("a"), 10);
        assert_eq!(rec.total_bits("b"), 10);
        assert_eq!(rec.total_bits("zzz"), 0);
        assert_eq!(rec.len(), 3);
        assert!(!rec.is_empty());
    }

    #[test]
    fn render_table_has_header_and_rows() {
        let mut rec = SeriesRecorder::new();
        rec.record("a", Nanos::ZERO, 1000);
        let table = rec.render_table(Nanos::from_micros(1));
        let mut lines = table.lines();
        assert_eq!(lines.next(), Some("time_s\ta"));
        assert!(lines.next().is_some());
    }
}

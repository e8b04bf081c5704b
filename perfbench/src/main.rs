//! `fv-perfbench`: the wall-clock benchmark of the FlowValve reproduction.
//!
//! ```text
//! fv-perfbench --workload <demo_mix|tcp_fairq|wire64_mice> --seed N --seconds S --trace 0|1
//! fv-perfbench --workload <name> --pins
//! ```
//!
//! One run builds its inputs from `--seed`, measures for `--seconds`
//! seconds, checks every pass's outputs, and prints each metric by name
//! with its unit. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` times every layer from outside and
//! reports the per-layer metrics instead. `--pins` prints the statistics
//! of the workload's reference input in the format of `pins.txt`.
//!
//! README.md beside this file lists every metric, workload and the
//! layer → end-to-end map.

mod checks;
mod demo_mix;
mod layers;
mod pins;
mod tcp_fairq;
mod wire64;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fv_telemetry::JsonValue;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--pins" => args.print_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// One metric as reported: name, measured value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run hands back: packet accounting, failed checks and
/// the metrics of the requested mode.
#[derive(Debug, Default)]
pub struct Report {
    /// Packets offered across every pass of the run.
    pub attempted: u64,
    /// Packets of passes whose outcome failed a correctness check.
    pub failed: u64,
    /// Distinct failed checks, each once.
    pub problems: Vec<String>,
    /// A precondition or benchmark self-check failed: the run did not
    /// measure what it claims, so every packet counts as failed.
    pub broken: bool,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records the failed checks of one pass of `packets` packets: the
    /// pass's packets count as failed once, however many checks failed.
    pub fn fail(&mut self, packets: u64, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += packets;
        }
        for why in problems {
            if !self.problems.contains(&why) {
                self.problems.push(why);
            }
        }
    }

    /// Records a failed precondition or self-check.
    pub fn precondition(&mut self, why: String) {
        self.broken = true;
        self.fail(0, vec![format!("precondition: {why}")]);
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// Runs pass kinds `0..kinds` in turn, round after round, until `budget`
/// has elapsed; every kind runs at least once. Interleaving the kinds
/// spreads slow phases of a shared host over all of them alike.
pub fn round_robin(budget: Duration, kinds: usize, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    loop {
        for kind in 0..kinds {
            pass(kind);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Runs `pass` on two threads at once, released together: the host's
/// aggregate rate when two independent simulations share it.
pub fn concurrent_pair<T: Send>(pass: impl Fn() -> T + Sync) -> [T; 2] {
    let barrier = std::sync::Barrier::new(2);
    let run = || {
        barrier.wait();
        pass()
    };
    std::thread::scope(|s| {
        let a = s.spawn(run);
        let b = s.spawn(run);
        [a, b].map(|h| h.join().expect("simulation thread panicked"))
    })
}

/// The end-to-end metrics (`--trace 0`), reported on every workload.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub setup_rss_mb: f64,
    pub mpps_1t: f64,
    pub mpps_2t: f64,
    pub batch_us_p50: f64,
    pub batch_us_p99: f64,
}

impl EndToEnd {
    pub fn emit(&self, r: &mut Report) {
        r.metric("setup_s", self.setup_s, "s");
        r.metric("setup_rss_mb", self.setup_rss_mb, "MiB");
        r.metric("mpps_1t", self.mpps_1t, "Mpps");
        r.metric("mpps_2t", self.mpps_2t, "Mpps");
        r.metric("batch_us_p50", self.batch_us_p50, "us");
        r.metric("batch_us_p99", self.batch_us_p99, "us");
    }
}

/// Largest gap, in percent of the traced total, allowed between the
/// traced total and the sum of the layer self-times.
pub const RECONCILE_TOLERANCE_PCT: f64 = 5.0;

/// The per-layer metrics (`--trace 1`). A workload leaves the layers it
/// does not exercise at 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub parse_us: f64,
    pub compile_us: f64,
    pub netstack_parse_ns: f64,
    pub classify_ns: f64,
    pub classifier_hit_ratio: f64,
    pub classifier_evictions: f64,
    pub lookup_ns: f64,
    pub program_hit_ratio: f64,
    pub schedule_ns_1t: f64,
    pub schedule_ns_2t: f64,
    pub forward_share: f64,
    pub borrow_share: f64,
    pub drop_share: f64,
    pub epochs: f64,
    pub enqueue_ns: f64,
    pub decide_ns: f64,
    pub rx_self_ns: f64,
    pub rx_drop_share: f64,
    pub sched_drop_share: f64,
    pub tail_drop_share: f64,
    pub tx_share: f64,
    pub hostsim_loop_ns: f64,
    pub hostsim_delivered: f64,
    pub hostsim_dropped: f64,
    pub obs_overhead_ns: f64,
    pub trace_overhead_pct: f64,
    pub reconcile_err_pct: f64,
}

impl Layers {
    /// Checks the reconciliation, writes the span log as a Chrome trace
    /// named `stem`, and emits every per-layer metric.
    pub fn finish(&self, r: &mut Report, log: &layers::SpanLog, stem: &str, lanes: &[&str]) {
        if self.reconcile_err_pct.is_nan() || self.reconcile_err_pct > RECONCILE_TOLERANCE_PCT {
            r.precondition(format!(
                "layer self-times miss the traced total by {:.2}% (tolerance {RECONCILE_TOLERANCE_PCT}%)",
                self.reconcile_err_pct
            ));
        }
        match log.write_chrome(stem, lanes) {
            Ok(path) => eprintln!("spans -> {}", path.display()),
            Err(e) => r.precondition(format!("writing the span trace: {e}")),
        }
        r.metric("frontend.parse_us", self.parse_us, "us");
        r.metric("frontend.compile_us", self.compile_us, "us");
        r.metric("netstack.parse_ns", self.netstack_parse_ns, "ns");
        r.metric("classifier.classify_ns", self.classify_ns, "ns");
        r.metric("classifier.hit_ratio", self.classifier_hit_ratio, "ratio");
        r.metric("classifier.evictions", self.classifier_evictions, "count");
        r.metric("program.lookup_ns", self.lookup_ns, "ns");
        r.metric("program.cache_hit_ratio", self.program_hit_ratio, "ratio");
        r.metric("tree.schedule_ns_1t", self.schedule_ns_1t, "ns");
        r.metric("tree.schedule_ns_2t", self.schedule_ns_2t, "ns");
        r.metric("tree.forward_share", self.forward_share, "ratio");
        r.metric("tree.borrow_share", self.borrow_share, "ratio");
        r.metric("tree.drop_share", self.drop_share, "ratio");
        r.metric("tree.epochs", self.epochs, "count");
        r.metric("tm.enqueue_ns", self.enqueue_ns, "ns");
        r.metric("pipeline.decide_ns", self.decide_ns, "ns");
        r.metric("nic.rx_self_ns", self.rx_self_ns, "ns");
        r.metric("nic.rx_drop_share", self.rx_drop_share, "ratio");
        r.metric("nic.sched_drop_share", self.sched_drop_share, "ratio");
        r.metric("nic.tail_drop_share", self.tail_drop_share, "ratio");
        r.metric("nic.tx_share", self.tx_share, "ratio");
        r.metric("hostsim.loop_ns_per_pkt", self.hostsim_loop_ns, "ns");
        r.metric("hostsim.delivered", self.hostsim_delivered, "count");
        r.metric("hostsim.dropped", self.hostsim_dropped, "count");
        r.metric("obs.overhead_ns_per_pkt", self.obs_overhead_ns, "ns");
        r.metric("trace.overhead_pct", self.trace_overhead_pct, "%");
        r.metric("trace.reconcile_err_pct", self.reconcile_err_pct, "%");
        r.metric("trace.clock_read_ns", layers::clock_read_ns(), "ns");
    }
}

/// Share of a run's passes that its timing metrics are taken over: the
/// fastest fifth.
///
/// Every pass of a run replays the same input, so passes differ only in
/// how much the host disturbed them. Interference from other tenants
/// can only slow a pass down, and on a small shared host it comes and
/// goes in phases of seconds to minutes, so a run's pass rates are a
/// mixture of undisturbed and slowed passes in proportions that change
/// from run to run. The fastest passes track the code's own speed; a
/// fifth of them, rather than the single fastest, keeps one pass from
/// setting the figure.
pub const FAST_SHARE: f64 = 0.2;

/// Median over the fastest [`FAST_SHARE`] of `v` (at least one value):
/// the largest values for rates, the smallest for times.
pub fn fast_median(v: &[f64], rates: bool) -> f64 {
    let mut fastest = v.to_vec();
    fastest.sort_by(|a, b| {
        if rates {
            b.total_cmp(a)
        } else {
            a.total_cmp(b)
        }
    });
    let keep = ((v.len() as f64 * FAST_SHARE).ceil() as usize)
        .max(1)
        .min(v.len());
    median(&fastest[..keep])
}

/// Each pass's own `q`-percentile of its batch times, reported over the
/// fastest fifth like every other time (see [`FAST_SHARE`]). Taking
/// the percentile per pass keeps a disturbed moment of the host from
/// setting the tail of the whole run.
pub fn batch_percentile(batches: &[&[f64]], q: f64) -> f64 {
    let per_pass: Vec<f64> = batches.iter().map(|b| percentile(b, q)).collect();
    fast_median(&per_pass, false)
}

/// Median of `durations`, in microseconds.
pub fn median_us(durations: impl IntoIterator<Item = Duration>) -> f64 {
    median(
        &durations
            .into_iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile `q` in [0, 1] of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Resident set size of this process in bytes, from `/proc/self/status`.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Nanoseconds in `d` as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn result_line(report: &Report) -> String {
    let metrics = report.metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            JsonValue::obj([
                ("value", JsonValue::Num(*value)),
                ("unit", JsonValue::Str((*unit).to_owned())),
            ]),
        )
    });
    JsonValue::obj([
        ("correct", JsonValue::Bool(report.problems.is_empty())),
        ("attempted", JsonValue::UInt(report.attempted)),
        ("failed", JsonValue::UInt(report.failed)),
        ("metrics", JsonValue::obj(metrics)),
    ])
    .to_compact()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fv-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Report = match args.workload.as_str() {
        "demo_mix" => demo_mix::run,
        "tcp_fairq" => tcp_fairq::run,
        "wire64_mice" => wire64::run,
        other => {
            eprintln!(
                "fv-perfbench: unknown workload {other:?} (demo_mix, tcp_fairq, wire64_mice)"
            );
            return ExitCode::from(2);
        }
    };
    if args.print_pins {
        let counts = match args.workload.as_str() {
            "demo_mix" => demo_mix::reference_counts(),
            "tcp_fairq" => tcp_fairq::reference_counts(),
            _ => wire64::reference_counts(),
        };
        print!("{}", pins::render(&args.workload, &counts));
        return ExitCode::SUCCESS;
    }

    let mut report = run(&args);
    if report.broken {
        report.failed = report.attempted;
    }
    for (name, value, _) in &mut report.metrics {
        if !value.is_finite() {
            report.problems.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
    }
    for p in &report.problems {
        eprintln!("FAILED: {p}");
    }
    println!(
        "{} seed {} trace {}: attempted {} failed {} failed_share {} ratio",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

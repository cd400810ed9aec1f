//! Measurement primitives: run budgets, order statistics, process CPU time
//! and peak memory, and the end-to-end metric set every workload reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::Error;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// How long a timed phase runs: `--seconds` of wall time and at least
/// `min_ops` operations, or exactly `ops` operations when a fixed count is
/// asked for (the tests use that to make every deterministic meter repeat
/// exactly).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub ops: Option<usize>,
    pub min_ops: usize,
}

/// Operations an untraced run collects at least, so that its p90 has ten
/// samples above it. The deterministic meters are taken over the first this
/// many.
pub const P90_MIN_OPS: usize = 100;

impl Budget {
    /// Whether the phase started at `started` runs another operation after
    /// `done`. At least one operation always runs.
    pub fn more(&self, done: usize, started: Instant) -> bool {
        match self.ops {
            Some(ops) => done < ops,
            None => done < self.min_ops.max(1) || started.elapsed().as_secs_f64() < self.seconds,
        }
    }

    /// The same budget, running at least [`P90_MIN_OPS`] operations.
    pub fn for_percentiles(&self) -> Budget {
        Budget {
            min_ops: P90_MIN_OPS,
            ..*self
        }
    }

    /// The same budget cut to `share` of its time or operations.
    pub fn share(&self, share: f64) -> Budget {
        Budget {
            seconds: self.seconds * share,
            ops: self
                .ops
                .map(|ops| ((ops as f64 * share).ceil() as usize).max(1)),
            min_ops: 0,
        }
    }
}

/// The median, averaging the middle pair of an even count; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when the denominator is 0 (a ratio over no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Times `f`, adding its wall time to `total`.
pub fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User + system CPU time of the whole process so far, exited threads
/// included, from `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu() -> Result<Duration, Error> {
    const TICKS_PER_SECOND: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesized command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |index: usize| -> Result<u64, Error> {
        Ok(fields
            .get(index)
            .ok_or("short /proc/self/stat")?
            .parse::<u64>()?)
    };
    let ticks = field(11)? + field(12)?;
    Ok(Duration::from_millis(ticks * 1000 / TICKS_PER_SECOND))
}

/// Peak resident memory of the process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// What one untraced timed phase measured, in the workload's own terms.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of each operation, in ms.
    pub op_ms: Vec<f64>,
    /// Rankings each operation returned.
    pub answers: Vec<u64>,
    /// `CostReport::total_bytes()` of each operation.
    pub bytes: Vec<u64>,
    /// Wall time of the whole phase.
    pub wall: Duration,
    /// Process CPU time over the phase.
    pub cpu: Duration,
    /// The process's peak resident memory at the end of the phase, in MiB
    /// (before any verification runs).
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Runs `op` under `budget`, timing each call and the phase's wall and
    /// CPU time. `op` receives the operation index and returns the rankings
    /// and bytes it produced (zero for a failed operation).
    pub fn run(
        budget: Budget,
        mut op: impl FnMut(usize, &mut Duration) -> (u64, u64),
    ) -> Result<Phase, Error> {
        let mut phase = Phase::default();
        let cpu = process_cpu()?;
        let started = Instant::now();
        while budget.more(phase.op_ms.len(), started) {
            let mut wall = Duration::ZERO;
            let (answers, bytes) = op(phase.op_ms.len(), &mut wall);
            phase.op_ms.push(ms(wall));
            phase.answers.push(answers);
            phase.bytes.push(bytes);
        }
        phase.wall = started.elapsed();
        phase.cpu = process_cpu()?.saturating_sub(cpu);
        phase.peak_rss_mb = peak_rss_mb()?;
        Ok(phase)
    }
}

/// The end-to-end metrics of one untraced run: the median of the set-up
/// repetitions; the phase's latency percentiles and rates; the bytes per
/// answer over the first [`P90_MIN_OPS`] operations and the median of
/// `ticks`, the modeled makespans the caller sampled from those
/// operations, so that both depend on the seed alone and not on how many
/// operations a run fits; and the process's peak memory.
pub fn end_to_end(setup: &[Duration], phase: &Phase, ticks: &[u64]) -> Vec<Metric> {
    let setup_s: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
    let ticks: Vec<f64> = ticks.iter().map(|&t| t as f64).collect();
    let answers = phase.answers.iter().sum::<u64>() as f64;
    let first = ..phase.bytes.len().min(P90_MIN_OPS);
    let first_bytes = phase.bytes[first].iter().sum::<u64>() as f64;
    let first_answers = phase.answers[first].iter().sum::<u64>() as f64;
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("latency_ms_p50", median(&phase.op_ms), "ms"),
        metric("latency_ms_p90", quantile(&phase.op_ms, 0.9), "ms"),
        metric(
            "answers_per_s",
            ratio(answers, phase.wall.as_secs_f64()),
            "1/s",
        ),
        metric("bytes_per_answer", ratio(first_bytes, first_answers), "B"),
        metric("modeled_ticks_p50", median(&ticks), "ticks"),
        metric("cpu_ms_per_answer", ratio(ms(phase.cpu), answers), "ms"),
        metric("peak_rss_mb", phase.peak_rss_mb, "MB"),
    ]
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every per-layer metric, in report order, with its unit. A traced run
/// reports all of them; a layer the workload never reaches reads 0.
pub const LAYER_METRICS: [(&str, &str); 30] = [
    ("datacenter.build_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("wire.view_ms", "ms"),
    ("basestation.layout_ms", "ms"),
    ("basestation.scan_ms", "ms"),
    ("basestation.rows_per_s", "rows/s"),
    ("basestation.report_ratio", "ratio"),
    ("basestation.hash_ops", "count"),
    ("basestation.comparisons", "count"),
    ("basestation.rows_pruned", "count"),
    ("wire.report_ms", "ms"),
    ("datacenter.aggregate_ms", "ms"),
    ("wire.query_kb", "KiB"),
    ("wire.report_kb", "KiB"),
    ("routing.kb", "KiB"),
    ("routing.build_ms", "ms"),
    ("routing.route_ms", "ms"),
    ("routing.wire_ms", "ms"),
    ("routing.pruned_frac", "ratio"),
    ("pipeline.coverage", "ratio"),
    ("runtime.speedup", "ratio"),
    ("service.churn_ms", "ms"),
    ("service.epoch_quiet_ms", "ms"),
    ("service.epoch_churn_ms", "ms"),
    ("service.checkpoint_ms", "ms"),
    ("service.checkpoint_kb", "KiB"),
    ("streaming.delta_entries", "count"),
    ("streaming.delta_ratio", "ratio"),
    ("distsim.station_skew_ticks", "ticks"),
    ("trace.overhead", "ratio"),
];

/// Per-layer samples of a traced run.
///
/// A per-operation metric is the median over the operations in which the
/// layer did work (a nonzero sample), so a stage that runs on only some
/// operations — churn epochs, routed batches that reach a station — is not
/// diluted by the ones where it idles. A rate or ratio is a ratio of run
/// totals.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    totals: BTreeMap<&'static str, (f64, f64)>,
}

impl Layers {
    /// Records one operation's value of `name`; zeros mean "no work".
    pub fn sample(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|&(n, _)| n == name), "{name}");
        if value != 0.0 {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Adds one operation's numerator and denominator to ratio `name`.
    pub fn total(&mut self, name: &'static str, num: f64, den: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|&(n, _)| n == name), "{name}");
        let entry = self.totals.entry(name).or_default();
        entry.0 += num;
        entry.1 += den;
    }

    /// Every per-layer metric, in [`LAYER_METRICS`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = match (self.samples.get(name), self.totals.get(name)) {
                    (Some(samples), _) => median(samples),
                    (None, Some(&(num, den))) => ratio(num, den),
                    (None, None) => 0.0,
                };
                metric(name, value, unit)
            })
            .collect()
    }
}

/// Largest minus median per-station report delivery tick of one
/// [`LatencyReport`](dipm_distsim::LatencyReport).
pub fn station_skew(latency: &dipm_distsim::LatencyReport) -> u64 {
    let delivered: Vec<f64> = latency
        .stations
        .iter()
        .map(|s| s.report_delivered as f64)
        .collect();
    let max = delivered.iter().copied().fold(0.0, f64::max);
    (max - median(&delivered)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 90.0);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn bytes_per_answer_counts_the_first_operations_only() {
        let ops = 250;
        let phase = Phase {
            op_ms: vec![1.0; ops],
            answers: vec![2; ops],
            bytes: (0..ops as u64).collect(),
            wall: Duration::from_secs(1),
            cpu: Duration::from_millis(500),
            peak_rss_mb: 1.0,
        };
        let metrics = end_to_end(&[Duration::from_secs(1)], &phase, &[7]);
        let value = |name| metrics.iter().find(|m| m.name == name).unwrap().value;
        // Bytes 0..100 of the first 100 operations over their 200 answers.
        assert_eq!(value("bytes_per_answer"), 4950.0 / 200.0);
        assert_eq!(value("answers_per_s"), 500.0);
        assert_eq!(value("cpu_ms_per_answer"), 1.0);
    }

    #[test]
    fn layers_skip_idle_operations_and_report_every_metric() {
        let mut layers = Layers::default();
        layers.sample("service.churn_ms", 0.0);
        layers.sample("service.churn_ms", 4.0);
        layers.total("routing.pruned_frac", 12.0, 24.0);
        let metrics = layers.metrics();
        assert_eq!(metrics.len(), LAYER_METRICS.len());
        let value = |name| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("service.churn_ms"), 4.0);
        assert_eq!(value("routing.pruned_frac"), 0.5);
        assert_eq!(value("wire.encode_ms"), 0.0);
    }
}

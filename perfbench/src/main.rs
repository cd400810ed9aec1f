//! End-to-end benchmark of the DI-matching system.
//!
//! ```text
//! perfbench --workload <adhoc|standing|routed> --seed <n> --seconds <n> --trace <0|1>
//! perfbench compare <baseline-output> <new-output>
//! ```
//!
//! One process runs one seeded workload closed-loop, with one client. With
//! `--trace 0` it times whole operations and prints the end-to-end metrics;
//! with `--trace 1` it times the calls into each layer and prints the
//! per-layer metrics. Either way every answer is checked against the
//! repository's oracles after the timed phase. Stdout ends with two JSON
//! lines: the run's provenance and details, then the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `README.md` beside this
//! crate maps each metric to its layer and workload.
//!
//! `--scale tiny` and `--ops <n>` (a fixed operation count instead of a
//! time budget) exist for the crate's own tests.

mod batches;
mod measure;
mod replay;
mod standing;

use std::process::ExitCode;

use dipm_protocol::PatternQuery;

use measure::{Budget, Metric};

pub type Error = Box<dyn std::error::Error>;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Worker threads of every timed execution mode. The benchmark's host is
/// two virtual CPUs of a shared machine: with one worker, whatever else runs
/// there takes the other CPU instead of stalling the operation being timed.
/// The oracles run after the timed phase and may use both.
pub const WORKERS: usize = 1;

/// Input sizes: the benchmark's own, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// A digest of the generated inputs.
    pub inputs: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Batches(batches::Kind),
    Standing,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Batches(batches::Kind::Adhoc) => "adhoc",
            Workload::Standing => "standing",
            Workload::Batches(batches::Kind::Routed) => "routed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    budget: Budget,
    trace: bool,
    scale: Scale,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, Error> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut scale = Scale::Full;
        let mut ops = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "adhoc" => Workload::Batches(batches::Kind::Adhoc),
                        "standing" => Workload::Standing,
                        "routed" => Workload::Batches(batches::Kind::Routed),
                        other => return Err(format!("unknown workload {other:?}").into()),
                    })
                }
                "--seed" => seed = Some(value.parse()?),
                "--seconds" => seconds = Some(value.parse::<f64>()?),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                    }
                }
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        other => return Err(format!("unknown scale {other:?}").into()),
                    }
                }
                "--ops" => ops = Some(value.parse::<usize>()?),
                other => return Err(format!("unknown flag {other:?}").into()),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            budget: Budget {
                seconds,
                ops,
                min_ops: 0,
            },
            trace,
            scale,
        })
    }
}

/// FNV-1a over the queries' local patterns: a digest of a run's inputs.
pub fn fingerprint<'a>(queries: impl Iterator<Item = &'a PatternQuery>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in queries.flat_map(|q| q.locals().iter().flat_map(|p| p.values())) {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Where and how the numbers were taken.
fn provenance(workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"workers\": {workers}, \"kernel\": {}, \"git_rev\": {}, \
         \"probe_kernel\": {}, \"DIPM_FORCE_SCALAR_set\": {}, \"DIPM_MODE_set\": {}}}",
        json_string(&kernel),
        json_string(&git_rev()),
        json_string(dipm_core::Kernel::active().name()),
        std::env::var_os("DIPM_FORCE_SCALAR").is_some(),
        std::env::var_os("DIPM_MODE").is_some(),
    )
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let rev = read(".git/HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
    });
    rev.unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(value: f64) -> String {
    // Rust's shortest round-trip form keeps every digit; integral values
    // print without a fraction, which is still a JSON number.
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Worker threads for the oracles, which run untimed.
pub fn oracle_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn run(args: &Args) -> Result<ExitCode, Error> {
    let workers = WORKERS;
    let Args {
        workload,
        seed,
        budget,
        trace,
        scale,
    } = *args;
    let outcome = match (workload, trace) {
        (Workload::Batches(kind), false) => {
            batches::end_to_end(kind, scale, seed, budget, workers)?
        }
        (Workload::Batches(kind), true) => batches::traced(kind, scale, seed, budget, workers)?,
        (Workload::Standing, false) => standing::end_to_end(scale, seed, budget, workers)?,
        (Workload::Standing, true) => standing::traced(scale, seed, budget, workers)?,
    };
    println!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"inputs\": \"{:016x}\", \
         \"failed_frac\": {}, \"provenance\": {}}}",
        workload.name(),
        u8::from(trace),
        outcome.inputs,
        json_number(measure::ratio(
            outcome.failed as f64,
            outcome.attempted as f64
        )),
        provenance(workers),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// The members of a JSON object mapping each metric's name to its value and
/// unit.
fn json_metrics(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    members.join(", ")
}

/// `compare BASE NEW`: per-metric ratios of two saved outputs, refused when
/// they were recorded under different probe kernels (like `repro --check`).
fn compare(paths: &[String]) -> Result<ExitCode, Error> {
    let [base, new] = paths else {
        return Err("usage: perfbench compare <baseline-output> <new-output>".into());
    };
    let base = std::fs::read_to_string(base)?;
    let new = std::fs::read_to_string(new)?;
    let kernel = |text: &str| -> Result<String, Error> {
        let (_, rest) = text
            .split_once("\"probe_kernel\": \"")
            .ok_or("no probe kernel recorded")?;
        Ok(rest.split('"').next().unwrap_or_default().to_string())
    };
    let (base_kernel, new_kernel) = (kernel(&base)?, kernel(&new)?);
    if base_kernel != new_kernel {
        eprintln!(
            "perfbench compare: baseline kernel `{base_kernel}` ≠ new kernel `{new_kernel}`; \
             refusing a cross-kernel comparison"
        );
        return Ok(ExitCode::from(2));
    }
    let new_metrics = metrics_of(&new);
    println!("probe kernel `{new_kernel}` on both sides");
    for (name, base_value) in metrics_of(&base) {
        if let Some((_, new_value)) = new_metrics.iter().find(|(n, _)| *n == name) {
            let ratio = measure::ratio(*new_value, base_value);
            println!("{name:<28} {base_value:>14.4} {new_value:>14.4} {ratio:>8.3}x");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `(name, value)` of every metric in the last result line of `text`.
fn metrics_of(text: &str) -> Vec<(String, f64)> {
    let line = text
        .lines()
        .rev()
        .find(|l| l.contains("\"metrics\""))
        .unwrap_or("");
    let mut out = Vec::new();
    let mut rest = line.split_once("\"metrics\": {").map_or("", |(_, r)| r);
    while let Some((head, tail)) = rest.split_once(": {\"value\": ") {
        let name = head.rsplit('"').nth(1).unwrap_or_default().to_string();
        let value = tail
            .split([',', '}'])
            .next()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(f64::NAN);
        out.push((name, value));
        rest = tail;
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => Args::parse(&args).and_then(|args| run(&args)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}

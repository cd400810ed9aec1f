//! The benchmark's own checks, at tiny scale with a fixed operation count
//! so that every deterministic meter repeats exactly.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["adhoc", "standing", "routed"];

const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("answers_per_s", "1/s"),
    ("bytes_per_answer", "B"),
    ("modeled_ticks_p50", "ticks"),
    ("cpu_ms_per_answer", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Metrics that are a pure function of the seed: byte and count meters
/// and modeled ticks.
const DETERMINISTIC: [&str; 14] = [
    "bytes_per_answer",
    "modeled_ticks_p50",
    "basestation.report_ratio",
    "basestation.hash_ops",
    "basestation.comparisons",
    "basestation.rows_pruned",
    "wire.query_kb",
    "wire.report_kb",
    "routing.kb",
    "routing.pruned_frac",
    "service.checkpoint_kb",
    "streaming.delta_entries",
    "streaming.delta_ratio",
    "distsim.station_skew_ticks",
];

struct Output {
    details: String,
    result: String,
}

impl Output {
    fn metric(&self, name: &str) -> Option<(f64, String)> {
        let (_, rest) = self
            .result
            .split_once(&format!("\"{name}\": {{\"value\": "))?;
        let (value, rest) = rest.split_once(", \"unit\": \"")?;
        let unit = rest.split('"').next()?;
        Some((value.parse().ok()?, unit.to_string()))
    }

    fn field(&self, name: &str) -> String {
        let (_, rest) = self
            .result
            .split_once(&format!("\"{name}\": "))
            .unwrap_or_else(|| panic!("no {name} in {}", self.result));
        rest.split([',', '}']).next().unwrap().to_string()
    }

    fn inputs(&self) -> String {
        let (_, rest) = self.details.split_once("\"inputs\": \"").unwrap();
        rest.split('"').next().unwrap().to_string()
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny", "--ops", "9"])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., details, result] = lines[..] else {
        panic!("{workload}: expected two output lines, got {stdout:?}");
    };
    Output {
        details: details.to_string(),
        result: result.to_string(),
    }
}

fn layer_metric_names() -> Vec<String> {
    // The per-layer list in BENCHMARK.json is the contract.
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside the crate");
    let (_, per_layer) = json.split_once("\"per_layer\"").unwrap();
    per_layer
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_no_failures() {
    let layers = layer_metric_names();
    assert!(layers.len() >= 20, "{layers:?}");
    for workload in WORKLOADS {
        let untraced = run(workload, 3, false);
        for (name, unit) in END_TO_END {
            let (value, got) = untraced
                .metric(name)
                .unwrap_or_else(|| panic!("{workload}: no {name} in {}", untraced.result));
            assert_eq!(got, unit, "{workload} {name}");
            assert!(value > 0.0, "{workload} {name} = {value}");
        }
        let traced = run(workload, 3, true);
        for name in &layers {
            assert!(
                traced.metric(name).is_some(),
                "{workload}: no {name} in {}",
                traced.result
            );
        }
        for out in [&untraced, &traced] {
            assert_eq!(out.field("correct"), "true", "{workload}");
            assert_eq!(out.field("failed"), "0", "{workload}");
            assert_eq!(out.field("attempted"), "9", "{workload}");
            assert!(out.details.contains("\"failed_frac\": 0,"), "{workload}");
            assert!(out.details.contains("\"probe_kernel\": \""), "{workload}");
        }
    }
}

#[test]
fn deterministic_metrics_repeat_under_one_seed_and_inputs_follow_the_seed() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let first = run(workload, 5, trace);
            let second = run(workload, 5, trace);
            assert_eq!(first.inputs(), second.inputs(), "{workload}");
            for name in DETERMINISTIC {
                assert_eq!(
                    first.metric(name),
                    second.metric(name),
                    "{workload} trace={trace}: {name}"
                );
            }
        }
        assert_ne!(
            run(workload, 5, false).inputs(),
            run(workload, 6, false).inputs(),
            "{workload}: another seed must generate other inputs"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "adhoc",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "adhoc", "--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn compare_refuses_results_from_different_probe_kernels() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let line = |kernel: &str, latency: f64| {
        format!(
            "{{\"provenance\": {{\"probe_kernel\": \"{kernel}\"}}}}\n\
             {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {{\"latency_ms_p50\": {{\"value\": {latency}, \"unit\": \"ms\"}}}}}}\n"
        )
    };
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let base = write("base", line("avx2", 10.0));
    let same = write("same", line("avx2", 5.0));
    let other = write("other", line("scalar", 5.0));
    let compare = |new: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .arg("compare")
            .arg(&base)
            .arg(new)
            .output()
            .unwrap()
    };
    let ok = compare(&same);
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("0.500x"));
    let refused = compare(&other);
    assert_eq!(refused.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Smoke test: every workload, untraced and traced, with work ÷ 10 (the
//! `LTFB_BENCH_SMOKE` switch; results comparable with nothing). It checks
//! the catalogue against what the binaries really print, that every
//! output check passes, and that the values which must repeat exactly do.
//!
//! One test function on purpose: the children are timing-sensitive and
//! must not compete with each other for the cores.

use ltfb_benchmark::contract::Contract;
use ltfb_benchmark::json::Json;
use ltfb_benchmark::{Workload, SMOKE_ENV};
use std::process::Command;

/// Layer metrics that are counts or bit-repeatable values: identical
/// across two invocations with one seed.
const REPEATABLE: [&str; 4] = [
    "gan.final_val_loss",
    "comm.bytes_per_step",
    "core.adoption_frac",
    "core.generator_bytes",
];

struct Run {
    result: Json,
    /// Metric names of the `workload metric value unit …` lines.
    printed: Vec<String>,
}

impl Run {
    fn value(&self, metric: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{metric} missing from the result"))
    }
}

fn run(workload: Workload, seed: u64, trace: bool) -> Run {
    let exe = if trace {
        env!("CARGO_BIN_EXE_trace")
    } else {
        env!("CARGO_BIN_EXE_benchmark")
    };
    let out = Command::new(exe)
        .env(SMOKE_ENV, "1")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{} (trace {trace}) failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is the result object");
    let printed = stdout
        .lines()
        .filter(|l| !l.starts_with('{'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|f| f[0] == workload.name() && f[1] != "check" && f[1] != "info")
        .map(|f| f[1].to_string())
        .collect();
    Run { result, printed }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_runs_and_matches_the_catalogue() {
    let contract = Contract::load();
    assert_eq!(contract.workloads.len(), 6);
    assert_eq!(contract.end_to_end.len(), 4);
    assert!(contract.per_layer.len() <= 128);
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        contract.workloads, names,
        "catalogue and code name the same workloads"
    );
    let mut all: Vec<&str> = contract
        .end_to_end
        .iter()
        .chain(&contract.per_layer)
        .map(|m| m.name.as_str())
        .chain(names.iter().copied())
        .collect();
    assert!(
        all.iter().all(|n| valid_name(n)),
        "a name breaks the contract's pattern"
    );
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "a name is used twice");
    for m in &contract.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = contract
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(setup.unit == "s" && !setup.higher_is_better);

    for workload in Workload::ALL {
        for trace in [false, true] {
            let r = run(workload, 2019, trace);
            assert_eq!(
                r.result.get("correct"),
                Some(&Json::Bool(true)),
                "{} (trace {trace}): an output check failed",
                workload.name()
            );
            assert_eq!(r.result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(r.result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            // Exactly the catalogue of the mode, in both printed forms.
            let want: Vec<&str> = contract
                .metrics(trace)
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            let got: Vec<&str> = r
                .result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(got, want, "{} (trace {trace})", workload.name());
            assert_eq!(
                r.printed,
                want,
                "{} (trace {trace}) printed lines",
                workload.name()
            );
            if !trace {
                for m in &want {
                    assert!(
                        r.value(m) > 0.0,
                        "{}: {m} must never read 0",
                        workload.name()
                    );
                }
            }
        }
    }

    // Same seed -> same bits and counts; another seed -> another loss.
    for workload in [
        Workload::TrainSerial,
        Workload::TrainDp,
        Workload::TrainLtfb,
    ] {
        let a = run(workload, 7, true);
        let b = run(workload, 7, true);
        let c = run(workload, 8, true);
        for m in REPEATABLE {
            assert_eq!(
                a.value(m).to_bits(),
                b.value(m).to_bits(),
                "{}: {m} must repeat exactly",
                workload.name()
            );
        }
        assert_ne!(
            a.value("gan.final_val_loss").to_bits(),
            c.value("gan.final_val_loss").to_bits(),
            "{}: the seed must reach the training run",
            workload.name()
        );
    }
}

//! The host fingerprint every result file carries: a number is only
//! comparable with another taken on a matching fingerprint.

use crate::json::Json;
use std::process::Command;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD` of the checkout, or "unknown" outside a
/// repository (the driver's checkout is not one).
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(crate::package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn fingerprint() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", Json::str(env!("BENCH_RUSTFLAGS"))),
        ("commit", Json::str(commit())),
    ])
}

//! The whole benchmark in one command: every workload, untraced then
//! traced, each in its own child process (so `peak_rss_mb` and allocator
//! state do not leak between workloads), with every metric printed as
//! `workload metric value unit` and the lot written to a result file in
//! the schema `compare` reads.

use crate::contract::Contract;
use crate::json::Json;
use crate::{host, results_dir, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The binary that runs a workload in the given mode: this executable
/// untraced, its `trace` sibling (spans on, counting allocator) traced.
pub fn binary_for(trace: bool) -> std::io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    let name = if trace { "trace" } else { "benchmark" };
    Ok(me.with_file_name(name))
}

/// One child run's printed result, parsed back.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// name -> {value, unit, n, rel_mad}
    metrics: Vec<(String, Json)>,
    /// The child's `workload info key value unit` lines (peak memory,
    /// the core `train_serial` was bound to).
    info: Vec<(String, Json)>,
}

fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = binary_for(trace).map_err(|e| e.to_string())?;
    let output = Command::new(&exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut spread: Vec<(String, f64, f64)> = Vec::new();
    let mut last = None;
    let mut info = Vec::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [_, "info", key, value, _] = f[..] {
            let value = value.parse().map_or_else(|_| Json::str(value), Json::Num);
            info.push((key.to_string(), value));
        }
        if let [_, name, _, _, n, mad] = f[..] {
            if let (Some(n), Some(mad)) = (n.strip_prefix("n="), mad.strip_prefix("mad=")) {
                spread.push((
                    name.into(),
                    n.parse().unwrap_or(1.0),
                    mad.parse().unwrap_or(0.0),
                ));
            }
        }
        if line.starts_with('{') {
            last = Some(line);
        } else {
            println!("{line}");
        }
    }
    let result = last
        .ok_or_else(|| {
            format!(
                "{} printed no result (exit {})",
                workload.name(),
                output.status
            )
        })
        .and_then(Json::parse)?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(name, m)| {
            let (n, mad) = spread
                .iter()
                .find(|(s, _, _)| s == name)
                .map_or((1.0, 0.0), |&(_, n, mad)| (n, mad));
            let mut fields = m.as_obj().unwrap_or(&[]).to_vec();
            fields.push(("n".into(), Json::Num(n)));
            fields.push(("rel_mad".into(), Json::Num(mad)));
            (name.clone(), Json::Obj(fields))
        })
        .collect();
    Ok(Child {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
        info,
    })
}

/// `benchmark [--seed S] [--workload W] [--seconds T] [--out FILE]`.
/// Returns the exit code: non-zero when any output check failed.
pub fn run(args: &[String]) -> i32 {
    let contract = Contract::load();
    let mut seed = DEFAULT_SEED;
    let mut seconds = contract.run_seconds;
    let mut only = None;
    let mut out = results_dir().join("latest.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value");
            return 2;
        };
        match flag.as_str() {
            "--seed" => seed = value.parse().unwrap_or(seed),
            "--seconds" => seconds = value.parse().unwrap_or(seconds),
            "--workload" => match Workload::parse(value) {
                Some(w) => only = Some(w),
                None => {
                    eprintln!("unknown workload {value}");
                    return 2;
                }
            },
            "--out" => out = PathBuf::from(value),
            other => {
                eprintln!("unknown argument {other}");
                return 2;
            }
        }
    }

    let mut all_correct = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut fields = vec![("name".to_string(), Json::str(workload.name()))];
        let mut correct = true;
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            match run_child(workload, seed, seconds, trace) {
                Ok(child) => {
                    correct &= child.correct;
                    if !trace {
                        fields.push(("attempted".into(), Json::Num(child.attempted)));
                        fields.push(("failed".into(), Json::Num(child.failed)));
                        fields.push(("info".into(), Json::Obj(child.info)));
                    }
                    fields.push((key.into(), Json::Obj(child.metrics)));
                }
                Err(e) => {
                    eprintln!("{}: {e}", workload.name());
                    correct = false;
                }
            }
        }
        fields.insert(1, ("correct".into(), Json::Bool(correct)));
        all_correct &= correct;
        rows.push(Json::Obj(fields));
    }

    let file = Json::obj([
        ("schema", Json::Num(1.0)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
        ("host", host::fingerprint()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Arr(rows)),
    ]);
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, file.encode() + "\n") {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("{}: {e}", out.display());
            return 2;
        }
    }
    if !all_correct {
        eprintln!("an output check failed");
    }
    i32::from(!all_correct)
}

//! `benchmark compare A.json B.json`: the regression rule every later PR
//! is judged by. For each (workload, end-to-end metric) pair it prints
//! both medians, the ratio with its base, the bound from
//! `BENCHMARK.json`, and a verdict:
//!
//! * `unresolved` — either side's relative MAD exceeds the bound, so the
//!   pair cannot tell a change from noise;
//! * `regressed`  — B is worse than A by more than the bound;
//! * `ok`         — otherwise.

use crate::contract::{Contract, MetricSpec};
use crate::json::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a pair: a median and its relative MAD.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub rel_mad: f64,
}

/// Judge B against baseline A for one metric.
pub fn judge(spec: &MetricSpec, a: Side, b: Side) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if a.rel_mad > bound || b.rel_mad > bound || !a.value.is_finite() || !b.value.is_finite() {
        return Verdict::Unresolved;
    }
    let worse_by = if spec.higher_is_better {
        (a.value - b.value) / a.value.abs()
    } else {
        (b.value - a.value) / a.value.abs()
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(file: &Json, workload: &str, metric: &str) -> Option<Side> {
    let w = file
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let m = w.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        rel_mad: m.get("rel_mad").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Compare two result files; prints one row per pair and returns the
/// exit code (1 when any pair regressed, 2 on unreadable input).
pub fn run(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let contract = Contract::load();
    println!(
        "{:<17} {:<17} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut regressed = 0;
    let mut compared = 0;
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let (Some(sa), Some(sb)) = (
                side(&a, workload, &spec.name),
                side(&b, workload, &spec.name),
            ) else {
                continue;
            };
            let verdict = judge(spec, sa, sb);
            compared += 1;
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<17} {:<17} {:>14.6} {:>14.6} {:>9.4} {:>6.3}  {}{}",
                workload,
                spec.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                spec.bound.unwrap_or(0.0),
                verdict.name(),
                if verdict == Verdict::Unresolved {
                    format!(" (rel MAD A {:.3}, B {:.3})", sa.rel_mad, sb.rel_mad)
                } else {
                    String::new()
                },
            );
        }
    }
    if compared == 0 {
        eprintln!("compare: the files share no (workload, metric) pair");
        return 2;
    }
    println!("{compared} pairs compared, {regressed} regressed (ratios are B over base A)");
    i32::from(regressed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn s(value: f64, rel_mad: f64) -> Side {
        Side { value, rel_mad }
    }

    #[test]
    fn direction_and_bound() {
        let up = spec(true, 0.05);
        assert_eq!(judge(&up, s(100.0, 0.0), s(96.0, 0.0)), Verdict::Ok);
        assert_eq!(judge(&up, s(100.0, 0.0), s(94.0, 0.0)), Verdict::Regressed);
        assert_eq!(judge(&up, s(100.0, 0.0), s(140.0, 0.0)), Verdict::Ok);
        let down = spec(false, 0.10);
        assert_eq!(judge(&down, s(2.0, 0.0), s(2.15, 0.0)), Verdict::Ok);
        assert_eq!(judge(&down, s(2.0, 0.0), s(2.25, 0.0)), Verdict::Regressed);
    }

    #[test]
    fn noisy_sides_are_unresolved_not_unchanged() {
        let up = spec(true, 0.05);
        assert_eq!(
            judge(&up, s(100.0, 0.08), s(100.0, 0.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&up, s(100.0, 0.0), s(50.0, 0.06)),
            Verdict::Unresolved
        );
    }
}

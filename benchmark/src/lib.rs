//! # ltfb-benchmark
//!
//! The repository's one reproducible benchmark. Six workloads drive the
//! product crates through their public items only; every layer is
//! measured from outside, by timing calls into it. See `README.md` for
//! the workload, metric and attribution tables and the pinned API
//! surface.
//!
//! Two binaries share this library: `benchmark` (untraced; the only
//! source of end-to-end numbers) and `trace` (spans on, counting
//! allocator installed; the only source of per-layer numbers).

#![forbid(unsafe_code)]

pub mod compare;
pub mod contract;
pub mod host;
pub mod json;
pub mod probes;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;

use contract::Contract;
use json::Json;
use stats::Summary;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Default `--seed`; it seeds only generated inputs (`LtfbConfig.seed`,
/// store shuffle, arrival schedule, key draws).
pub const DEFAULT_SEED: u64 = 2019;

/// Environment switch of the smoke test: work ÷ 10, debug builds allowed.
/// Results under it are not comparable with anything.
pub const SMOKE_ENV: &str = "LTFB_BENCH_SMOKE";

/// Set (to the CPU number) in a process [`rerun_pinned`] started.
const PINNED_ENV: &str = "LTFB_BENCH_PINNED";

/// Times `setup_s` is measured per run; the median is reported.
pub const SETUP_REPEATS: usize = 3;

/// Fewest timed reps a run reports a median over, whatever `--seconds`.
pub const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainSerial,
    TrainDp,
    TrainLtfb,
    StoreOoc,
    ServeSteady,
    ServeSaturation,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::TrainSerial,
        Workload::TrainDp,
        Workload::TrainLtfb,
        Workload::StoreOoc,
        Workload::ServeSteady,
        Workload::ServeSaturation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainSerial => "train_serial",
            Workload::TrainDp => "train_dp",
            Workload::TrainLtfb => "train_ltfb",
            Workload::StoreOoc => "store_ooc",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeSaturation => "serve_saturation",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One busy program thread (such a workload is bound to one core,
    /// see [`rerun_pinned`]).
    pub fn single_threaded(self) -> bool {
        self == Workload::TrainSerial
    }
}

/// One invocation: `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed reps run (fixed-work reps repeat until this
    /// much time has been measured).
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test mode: work ÷ 10.
    pub smoke: bool,
}

impl Opts {
    /// Fixed work per rep, divided by ten under the smoke switch.
    pub fn work(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 10).max(1)
        } else {
            full
        }
    }

    /// Scratch directory of this process, inside the benchmark's own
    /// directory (the benchmark reads and writes only inside its
    /// checkout). Removed by the workload when it is done.
    pub fn work_dir(&self, tag: &str) -> PathBuf {
        package_dir()
            .join("work")
            .join(format!("{tag}-{}", std::process::id()))
    }
}

/// `benchmark/` of the checkout the binary was built from.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/results/`, where result files and Chrome traces go.
pub fn results_dir() -> PathBuf {
    package_dir().join("results")
}

/// One output check; a failed check makes the run incorrect.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What a workload hands back: counted operations, output checks, and
/// the metrics of its mode.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<(&'static str, Summary)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn metric(&mut self, name: &'static str, value: Summary) {
        self.metrics.push((name, value));
    }

    pub fn single(&mut self, name: &'static str, value: f64) {
        self.metric(name, Summary::single(value));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Times the set-up closure [`SETUP_REPEATS`] times (dropping all but the
/// last state) and returns the last state with every duration. Work
/// moved into set-up shows in `setup_s`.
pub fn timed_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPEATS >= 1"), secs)
}

/// Whether another fixed-work rep runs: always up to [`MIN_REPS`], then
/// while the reps measure `--seconds` to the nearest rep.
pub fn another_rep(opts: &Opts, done: usize, run_start: Instant, last_rep_secs: f64) -> bool {
    done < MIN_REPS || run_start.elapsed().as_secs_f64() + 0.5 * last_rep_secs < opts.seconds
}

/// Write the traced run's spans to `results/trace-<workload>.json` and
/// record whether that worked.
pub fn write_trace(out: &mut Outcome, opts: &Opts, tracers: &[&spans::Tracer]) {
    let path = results_dir().join(format!("trace-{}.json", opts.workload.name()));
    let written = spans::write_chrome_trace(&path, tracers);
    out.check("trace_written", written.is_ok(), path.display().to_string());
}

/// `train_serial` has one busy thread. Left to the scheduler on the
/// 2-core reference host it runs 5-15 % slower than bound to a core, and
/// by a different amount from one run to the next (two suites of one
/// commit and seed read 15.1 k and 13.7 k samples/s; bound to either core
/// four runs read 15.8-16.0 k). So that workload re-runs itself under
/// `taskset -c 0`, the way `mpirun --bind-to core` would place the rank.
/// Returns the pinned child's exit code, or `None` when this process
/// should do the work itself: another workload, already pinned, or no
/// usable `taskset` (the run is then unpinned and its `info` line says so).
pub fn rerun_pinned(opts: &Opts, args: &[String]) -> Option<i32> {
    if !opts.workload.single_threaded() || std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let taskset = || {
        let mut c = Command::new("taskset");
        c.args(["-c", "0"]);
        c
    };
    if !taskset().arg("true").status().is_ok_and(|s| s.success()) {
        return None;
    }
    let status = taskset()
        .arg(std::env::current_exe().ok()?)
        .args(args)
        .env(PINNED_ENV, "0")
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run the workload named by `opts` in this process and print its
/// result: one `workload metric value unit n=… mad=…` line per metric,
/// an `info` line for the process's peak memory, one line per output
/// check, and last the contract's JSON object.
/// Returns the process exit code (non-zero when a check failed).
pub fn run_and_emit(opts: &Opts) -> i32 {
    if cfg!(debug_assertions) && !opts.smoke {
        eprintln!("refusing to measure a debug build; build with --release");
        return 2;
    }
    let contract = Contract::load();
    let mut outcome = workloads::run(opts);
    let name = opts.workload.name();

    // Every catalogued metric of this mode is printed. Layer metrics of
    // layers this workload does not exercise read 0 ("no change" is the
    // prediction there); an end-to-end metric must always be measured.
    let specs = contract.metrics(opts.trace);
    let metrics: Vec<_> = specs
        .iter()
        .map(|spec| {
            let found = outcome.metrics.iter().find(|(n, _)| *n == spec.name);
            let fallback = if opts.trace { 0.0 } else { f64::NAN };
            (spec, found.map_or(Summary::single(fallback), |(_, s)| *s))
        })
        .collect();
    let uncatalogued: Vec<&str> = outcome
        .metrics
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !specs.iter().any(|s| s.name == *n))
        .collect();
    outcome.check(
        "metrics_catalogued",
        uncatalogued.is_empty(),
        uncatalogued.join(" "),
    );
    let unusable: Vec<&str> = metrics
        .iter()
        .filter(|(_, s)| !s.value.is_finite() || (!opts.trace && s.value == 0.0))
        .map(|(spec, _)| spec.name.as_str())
        .collect();
    outcome.check("metrics_measured", unusable.is_empty(), unusable.join(" "));

    for (spec, s) in &metrics {
        println!(
            "{name} {} {} {} n={} mad={:.4}",
            spec.name, s.value, spec.unit, s.n, s.rel_mad
        );
    }
    if !opts.trace {
        // Not a bounded metric: on the training workloads it moves by
        // 15-20 % between identical runs (see README, known gaps).
        println!("{name} info peak_rss_mb {} MB", peak_rss_mb());
    }
    if opts.workload.single_threaded() {
        let cpu = std::env::var(PINNED_ENV).unwrap_or_else(|_| "none".into());
        println!("{name} info pinned_cpu {cpu} -");
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("{name} check {} {verdict} {}", c.name, c.detail);
    }
    let line = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(spec, s)| {
                        (
                            spec.name.clone(),
                            Json::obj([
                                ("value", Json::Num(s.value)),
                                ("unit", Json::str(spec.unit.as_str())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.encode());
    i32::from(!outcome.correct())
}

/// Parse the single-workload flags. `Err` carries the usage message.
pub fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let contract = Contract::load();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = contract.run_seconds;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke: std::env::var_os(SMOKE_ENV).is_some(),
    })
}

//! The two serving workloads, driven by the benchmark's **own** load
//! generator (never `serve::loadgen`: its offered rate is nominal and it
//! is product code a later PR may change). Both run a `Fleet` of 2
//! shards × 1 worker serving a `CycleGanConfig::small(8)` model, driven
//! from one generator thread.
//!
//! * `serve_steady` — **open loop**: a Poisson schedule at a fixed
//!   10 000 req/s, precomputed from `--seed`, submitted with
//!   `FleetClient::try_submit` at each slot whatever the fleet is doing;
//!   Zipf(1.1) over 1024 hot keys per kind, 25 % inverse, a 256-entry
//!   response cache per shard. At ≈10 % utilisation latency is set by the
//!   batcher's flush deadline, the adaptive controller and the cache and
//!   router path, not by compute. Latency runs from the *intended*
//!   arrival to the server-stamped `Completion.finished`, harvested after
//!   the schedule has been sent.
//! * `serve_saturation` — **closed loop**: the generator keeps 512
//!   requests outstanding through the blocking `FleetClient::submit`; the
//!   cache is off and no key repeats. Every core is busy, so per-request
//!   allocation, submit and route cost, batch packing and the `infer_*`
//!   GEMMs set capacity.
//!
//! Open-loop *overload* is deliberately not a workload: see the README.

use crate::probes;
use crate::rng::{Rng, Zipf};
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::{another_rep, timed_setup, write_trace, Opts, Outcome, Workload};
use ltfb_alloccount::counts;
use ltfb_gan::{CycleGan, CycleGanConfig};
use ltfb_serve::{
    BatchPolicy, Completion, Fleet, FleetClient, FleetConfig, FleetStats, ModelRegistry, ReqKind,
    Response, ServableModel, ServeError, SloPolicy,
};
use ltfb_tensor::Matrix;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const IMG: usize = 8;
const MODEL_VERSION: u64 = 1;
const HOT_KEYS: usize = 1024;
const ZIPF_S: f64 = 1.1;
const INVERSE_SHARE: f64 = 0.25;
const STEADY_RATE_RPS: f64 = 10_000.0;
/// Requests per rep, sized for about one second on the reference host.
const STEADY_REQS: u64 = 10_000;
const SATURATION_REQS: u64 = 100_000;
const SATURATION_WINDOW: usize = 512;
/// Latency limit of `serve.slo_frac`, from the intended arrival.
const SLO_MS: f64 = 5.0;
/// One request in this many gets spans and a submit-time sample.
const SPAN_EVERY: usize = 16;
/// One response in this many is checked against direct inference.
const CHECK_EVERY: usize = 64;

#[derive(Clone, Copy)]
struct Planned {
    /// Intended arrival, ns after the rep starts (0 in the closed loop).
    due_ns: u64,
    inverse: bool,
    /// Row of the input pool.
    key: u32,
    /// Per-request perturbation of the first two coordinates (closed
    /// loop only, so that no key repeats).
    jitter: [f32; 2],
}

/// Everything generated from `--seed` before the clock starts.
struct Inputs {
    forward: Vec<Vec<f32>>,
    inverse: Vec<Vec<f32>>,
    plan: Vec<Planned>,
    unique: bool,
}

impl Inputs {
    fn generate(opts: &Opts, cfg: &CycleGanConfig) -> Inputs {
        let steady = opts.workload == Workload::ServeSteady;
        let mut rng = Rng::new(opts.seed, 0x1A9E);
        let forward = (0..HOT_KEYS).map(|_| rng.vec_f32(cfg.x_dim())).collect();
        let inverse = (0..HOT_KEYS).map(|_| rng.vec_f32(cfg.y_dim())).collect();
        let zipf = Zipf::new(HOT_KEYS, ZIPF_S);
        let n = opts.work(if steady { STEADY_REQS } else { SATURATION_REQS });
        // A Poisson process seen over a fixed span is `n` uniform arrival
        // times in it: every seed offers exactly `n` requests in
        // `n / rate` seconds, so the offered rate does not move with the
        // seed while the gaps stay exponential.
        let span_ns = n as f64 * 1e9 / STEADY_RATE_RPS;
        let mut due: Vec<u64> = (0..n).map(|_| (rng.f64() * span_ns) as u64).collect();
        due.sort_unstable();
        let plan = due
            .into_iter()
            .map(|due_ns| Planned {
                due_ns: if steady { due_ns } else { 0 },
                inverse: rng.f64() < INVERSE_SHARE,
                key: if steady {
                    zipf.draw(&mut rng) as u32
                } else {
                    (rng.next_u64() % HOT_KEYS as u64) as u32
                },
                jitter: [rng.f32(), rng.f32()],
            })
            .collect();
        Inputs {
            forward,
            inverse,
            plan,
            unique: !steady,
        }
    }

    fn kind(p: &Planned) -> ReqKind {
        if p.inverse {
            ReqKind::Inverse
        } else {
            ReqKind::Forward
        }
    }

    /// The request vector of `p` in rep `rep`, written into `scratch`.
    fn fill<'a>(&'a self, p: &Planned, rep: usize, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        let base = if p.inverse {
            &self.inverse[p.key as usize]
        } else {
            &self.forward[p.key as usize]
        };
        if !self.unique {
            return base;
        }
        scratch.clear();
        scratch.extend_from_slice(base);
        scratch[0] = (p.jitter[0] + rep as f32 * 0.137).fract();
        scratch[1] = p.jitter[1];
        scratch
    }
}

/// The fleet under test plus the direct-inference reference model.
struct Bed {
    fleet: Option<Fleet>,
    client: FleetClient,
    reference: ServableModel,
    inputs: Inputs,
    policy: BatchPolicy,
}

impl Bed {
    fn build(opts: &Opts) -> Bed {
        let cfg = CycleGanConfig::small(IMG);
        let steady = opts.workload == Workload::ServeSteady;
        let policy = BatchPolicy {
            workers: 1,
            cache_capacity: if steady { 256 } else { 0 },
            ..BatchPolicy::default()
        };
        let registries = (0..SHARDS)
            .map(|_| {
                Arc::new(ModelRegistry::new(
                    CycleGan::new(cfg, opts.seed),
                    MODEL_VERSION,
                ))
            })
            .collect();
        let fleet = Fleet::start(
            registries,
            FleetConfig {
                shards: SHARDS,
                policy,
                slo: SloPolicy {
                    shed_depth: 128,
                    ..SloPolicy::default()
                },
            },
        );
        Bed {
            client: fleet.client(),
            fleet: Some(fleet),
            reference: ServableModel::new(CycleGan::new(cfg, opts.seed), MODEL_VERSION),
            inputs: Inputs::generate(opts, &cfg),
            policy,
        }
    }

    fn shutdown(&mut self) -> Option<FleetStats> {
        self.fleet.take().map(Fleet::shutdown)
    }
}

impl Drop for Bed {
    fn drop(&mut self) {
        // A fleet dropped without `shutdown` leaves its controller
        // thread running.
        self.shutdown();
    }
}

/// What one rep saw, from the generator's side.
#[derive(Default)]
struct Rep {
    submitted: u64,
    completed: u64,
    shed: u64,
    rejected: u64,
    errors: u64,
    wall_secs: f64,
    /// Span of the submissions alone (first to last slot actually hit).
    send_secs: f64,
    latency_ms: Vec<f64>,
    /// `(batch_id, version)` of every completion.
    batches: Vec<(u64, u64)>,
    /// `(plan index, output)` of one completion in `CHECK_EVERY`.
    sampled: Vec<(usize, Vec<f32>)>,
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    allocs: u64,
}

impl Rep {
    fn refuse(&mut self, e: &ServeError) {
        match e {
            ServeError::Shed { .. } => self.shed += 1,
            ServeError::Overloaded => self.rejected += 1,
            _ => self.errors += 1,
        }
    }

    fn complete(
        &mut self,
        idx: usize,
        from: Instant,
        done: Result<Completion, ServeError>,
    ) -> Option<Instant> {
        match done {
            Ok(c) => {
                self.completed += 1;
                let ms = c.finished.saturating_duration_since(from).as_secs_f64() * 1e3;
                self.latency_ms.push(ms);
                self.batches.push((c.batch_id, c.version));
                if idx.is_multiple_of(CHECK_EVERY) {
                    self.sampled.push((idx, c.output));
                }
                Some(c.finished)
            }
            Err(_) => {
                self.errors += 1;
                None
            }
        }
    }
}

/// Sleep while the slot is far, yield when it is near; returns the time
/// the slot was actually hit. Yielding, not spinning: on the 2-core
/// reference host a spinning generator holds a core against the fleet's
/// woken workers and adds 1.5 ms to the p99 in some runs and not others.
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        let Some(gap) = due.checked_duration_since(now).filter(|g| !g.is_zero()) else {
            return now;
        };
        if gap > Duration::from_micros(250) {
            std::thread::sleep(gap - Duration::from_micros(150));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop: every request is submitted at its slot, accepted or not;
/// completions are harvested after the schedule.
fn steady_rep(bed: &Bed, rep: usize, n: usize, tr: &mut Tracer) -> Rep {
    let plan = &bed.inputs.plan[..n];
    let mut r = Rep::default();
    let mut scratch = Vec::new();
    let mut pending: Vec<(usize, Instant, Response)> = Vec::with_capacity(plan.len());
    let allocs0 = counts();
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut first = t0;
    let mut last = t0;
    for (i, p) in plan.iter().enumerate() {
        let due = t0 + Duration::from_nanos(p.due_ns);
        let at = wait_until(due);
        let input = bed.inputs.fill(p, rep, &mut scratch);
        let res = bed.client.try_submit(Inputs::kind(p), input);
        if i.is_multiple_of(SPAN_EVERY) {
            let after = Instant::now();
            r.submit_us.push((after - at).as_secs_f64() * 1e6);
            tr.push_closed("serve.submit", i as u64, at, after);
        }
        r.late_us.push((at - due).as_secs_f64() * 1e6);
        r.submitted += 1;
        if i == 0 {
            first = at;
        }
        last = at;
        match res {
            Ok(resp) => pending.push((i, due, resp)),
            Err(e) => r.refuse(&e),
        }
    }
    r.send_secs = (last - first).as_secs_f64();
    let mut end = last;
    for (i, due, resp) in pending {
        if let Some(done) = r.complete(i, due, resp.wait_completion()) {
            end = end.max(done);
            if i.is_multiple_of(SPAN_EVERY) {
                tr.push_closed("serve.request", i as u64, due, done);
            }
        }
    }
    r.wall_secs = (end - first).as_secs_f64();
    r.allocs = counts().since(allocs0).allocs;
    r
}

/// Closed loop: `SATURATION_WINDOW` requests outstanding, each slot
/// refilled as soon as its oldest occupant completes.
fn saturation_rep(bed: &Bed, rep: usize, n: usize, tr: &mut Tracer) -> Rep {
    let plan = &bed.inputs.plan[..n];
    let mut r = Rep::default();
    let mut scratch = Vec::new();
    let mut window: VecDeque<(usize, Instant, Response)> =
        VecDeque::with_capacity(SATURATION_WINDOW);
    let allocs0 = counts();
    let t0 = Instant::now();
    let harvest = |r: &mut Rep, tr: &mut Tracer, (i, at, resp): (usize, Instant, Response)| {
        if let Some(done) = r.complete(i, at, resp.wait_completion()) {
            if i.is_multiple_of(SPAN_EVERY) {
                tr.push_closed("serve.request", i as u64, at, done);
            }
        }
    };
    for (i, p) in plan.iter().enumerate() {
        if window.len() == SATURATION_WINDOW {
            let oldest = window.pop_front().expect("window is full");
            harvest(&mut r, tr, oldest);
        }
        let input = bed.inputs.fill(p, rep, &mut scratch);
        let at = Instant::now();
        let res = bed.client.submit(Inputs::kind(p), input);
        if i.is_multiple_of(SPAN_EVERY) {
            let after = Instant::now();
            r.submit_us.push((after - at).as_secs_f64() * 1e6);
            tr.push_closed("serve.submit", i as u64, at, after);
        }
        r.submitted += 1;
        match res {
            Ok(resp) => window.push_back((i, at, resp)),
            Err(e) => r.refuse(&e),
        }
    }
    for slot in window.drain(..) {
        harvest(&mut r, tr, slot);
    }
    r.wall_secs = t0.elapsed().as_secs_f64();
    r.send_secs = r.wall_secs;
    r.allocs = counts().since(allocs0).allocs;
    r
}

/// One rep over the first `n` planned requests (`None`: the whole plan).
fn one_rep(opts: &Opts, bed: &Bed, rep: usize, n: Option<usize>, tr: &mut Tracer) -> Rep {
    let n = n.unwrap_or(bed.inputs.plan.len());
    match opts.workload {
        Workload::ServeSteady => steady_rep(bed, rep, n, tr),
        _ => saturation_rep(bed, rep, n, tr),
    }
}

/// Largest relative difference between a sampled response and direct
/// inference on the same row (0 when they agree bit for bit).
fn worst_response_error(bed: &Bed, rep: usize, r: &Rep) -> f64 {
    let mut scratch = Vec::new();
    let mut worst = 0.0f64;
    for (idx, served) in &r.sampled {
        let p = &bed.inputs.plan[*idx];
        let row = Matrix::row_vector(bed.inputs.fill(p, rep, &mut scratch));
        let direct = if p.inverse {
            bed.reference.infer_inverse(&row)
        } else {
            bed.reference.infer_forward(&row)
        };
        let scale = f64::from(direct.max_abs()).max(1e-12);
        let diff = served
            .iter()
            .zip(direct.as_slice())
            .map(|(a, b)| f64::from((a - b).abs()))
            .fold(
                if served.len() == direct.len() {
                    0.0
                } else {
                    f64::INFINITY
                },
                f64::max,
            );
        worst = worst.max(diff / scale);
    }
    worst
}

/// The output checks every rep must pass.
struct RepChecks {
    conserved: bool,
    goodput_within_offered: bool,
    worst_error: f64,
    mixed_batches: usize,
}

fn check_rep(bed: &Bed, rep: usize, r: &Rep) -> RepChecks {
    let mut versions: HashMap<u64, u64> = HashMap::new();
    let mut mixed = 0;
    for &(batch, version) in &r.batches {
        if *versions.entry(batch).or_insert(version) != version {
            mixed += 1;
        }
    }
    RepChecks {
        conserved: r.completed + r.shed + r.rejected + r.errors == r.submitted,
        // Goodput over the rep's wall cannot exceed the rate the
        // generator really offered over its sending span.
        goodput_within_offered: r.completed as f64 / r.wall_secs
            <= r.submitted as f64 / r.send_secs,
        worst_error: worst_response_error(bed, rep, r),
        mixed_batches: mixed,
    }
}

/// `(p50, p99)` of unsorted samples.
fn p50_p99(samples: &[f64]) -> (f64, f64) {
    let v = stats::sorted(samples);
    (stats::percentile(&v, 0.50), stats::percentile(&v, 0.99))
}

fn record_checks(out: &mut Outcome, checks: &[RepChecks]) {
    out.check(
        "requests_conserved",
        checks.iter().all(|c| c.conserved),
        "completed + shed + rejected + errors == submitted",
    );
    out.check(
        "goodput_within_offered",
        checks.iter().all(|c| c.goodput_within_offered),
        "",
    );
    let worst = checks.iter().map(|c| c.worst_error).fold(0.0, f64::max);
    out.check(
        "responses_match_direct_inference",
        worst <= 1e-5,
        format!("worst rel err {worst:e}"),
    );
    let mixed: usize = checks.iter().map(|c| c.mixed_batches).sum();
    out.check(
        "one_version_per_batch",
        mixed == 0,
        format!("{mixed} mixed"),
    );
}

pub fn run_e2e(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false, Instant::now(), 0);
    let (bed, setup_secs) = timed_setup(|| {
        let bed = Bed::build(opts);
        // Warm-up rep (discarded), a fifth of a timed one: fills the
        // caches and lets the adaptive controller settle.
        one_rep(opts, &bed, 0, Some(bed.inputs.plan.len() / 5), &mut off);
        bed
    });

    let mut rate = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut checks = Vec::new();
    let mut last_wall = 0.0;
    let t_run = Instant::now();
    while another_rep(opts, rate.len(), t_run, last_wall) {
        let rep = rate.len() + 1;
        let r = one_rep(opts, &bed, rep, None, &mut off);
        last_wall = r.wall_secs;
        out.attempted += r.submitted;
        out.failed += r.submitted - r.completed;
        checks.push(check_rep(&bed, rep, &r));
        if r.completed == 0 {
            break;
        }
        rate.push(r.completed as f64 / r.wall_secs);
        let (a, b) = p50_p99(&r.latency_ms);
        p50.push(a);
        p99.push(b);
    }
    record_checks(&mut out, &checks);
    out.check(
        "no_failed_request",
        out.failed == 0,
        format!("{} failed", out.failed),
    );
    if rate.is_empty() {
        return out;
    }
    out.metric("throughput_per_s", Summary::of(&rate));
    out.metric("latency_ms_p50", Summary::of(&p50));
    out.metric("latency_ms_p99", Summary::of(&p99));
    out.metric("setup_s", Summary::of(&setup_secs));
    out
}

pub fn run_traced(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let steady = opts.workload == Workload::ServeSteady;
    let mut bed = Bed::build(opts);
    let epoch = Instant::now();
    // Warm-up, then one untraced and one traced rep of equal work.
    let mut off = Tracer::new(false, epoch, 0);
    let warm = one_rep(opts, &bed, 0, Some(bed.inputs.plan.len() / 5), &mut off);
    let plain = one_rep(opts, &bed, 1, None, &mut off);
    let mut tracer = Tracer::new(true, epoch, 0);
    let r = one_rep(opts, &bed, 2, None, &mut tracer);
    let (routed, spills, sheds) = bed.fleet.as_ref().map_or((0, 0, 0), Fleet::router_counts);
    let stats = bed.shutdown().expect("fleet was running");

    write_trace(&mut out, opts, &[&tracer]);
    out.attempted = r.submitted;
    out.failed = r.submitted - r.completed;
    record_checks(
        &mut out,
        &[check_rep(&bed, 1, &plain), check_rep(&bed, 2, &r)],
    );
    let server_done: u64 = stats.per_shard.iter().map(|s| s.completed).sum();
    let client_done = warm.completed + plain.completed + r.completed;
    out.check(
        "server_counts_agree",
        server_done == client_done && stats.routed == routed,
        format!("server {server_done} vs client {client_done}"),
    );

    let (submit_p50, submit_p99) = p50_p99(&r.submit_us);
    out.single("serve.submit_us_p50", submit_p50);
    out.single("serve.submit_us_p99", submit_p99);
    let weight = |f: &dyn Fn(&ltfb_serve::ServeStats) -> f64| {
        stats
            .per_shard
            .iter()
            .map(|s| f(s) * s.completed as f64)
            .sum::<f64>()
            / server_done.max(1) as f64
    };
    out.single(
        "serve.server_latency_ms_p50",
        weight(&|s| s.latency_p50_us) / 1e3,
    );
    out.single(
        "serve.server_latency_ms_p99",
        weight(&|s| s.latency_p99_us) / 1e3,
    );
    let mut per_batch: HashMap<u64, u64> = HashMap::new();
    for &(batch, _) in &r.batches {
        *per_batch.entry(batch).or_default() += 1;
    }
    out.single(
        "serve.batch_size_mean",
        r.completed as f64 / per_batch.len().max(1) as f64,
    );
    out.single("serve.queue_depth_mean", weight(&|s| s.queue_depth_mean));
    out.single(
        "serve.queue_depth_max",
        stats
            .per_shard
            .iter()
            .map(|s| s.queue_depth_max)
            .max()
            .unwrap_or(0) as f64,
    );
    let hits: u64 = stats.per_shard.iter().map(|s| s.cache_hits).sum();
    out.single(
        "serve.cache_hit_frac",
        hits as f64 / server_done.max(1) as f64,
    );
    out.single("serve.spill_frac", spills as f64 / routed.max(1) as f64);
    out.single(
        "serve.shed_frac",
        sheds as f64 / (routed + sheds).max(1) as f64,
    );
    out.single(
        "serve.allocs_per_request",
        r.allocs as f64 / r.submitted.max(1) as f64,
    );
    out.single(
        "serve.realised_rate_rps",
        (r.submitted - 1) as f64 / r.send_secs,
    );
    out.single(
        "bench.trace_overhead_frac",
        (r.wall_secs - plain.wall_secs) / plain.wall_secs,
    );

    let (p50, p99) = p50_p99(&r.latency_ms);
    if steady {
        out.single("serve.gen_late_us_p99", p50_p99(&r.late_us).1);
        out.single(
            "serve.gen_late_us_max",
            r.late_us.iter().copied().fold(0.0, f64::max),
        );
        let within = r.latency_ms.iter().filter(|&&ms| ms <= SLO_MS).count();
        out.single("serve.slo_frac", within as f64 / r.submitted as f64);
    } else {
        out.single("serve.window_latency_ms_p50", p50);
        out.single("serve.window_latency_ms_p99", p99);
    }

    let p = probes::serve(
        CycleGanConfig::small(IMG),
        opts.seed,
        bed.policy.cache_quantum,
    );
    out.single("serve.cache_key_us_fwd", p.cache_key_us_fwd);
    out.single("serve.cache_key_us_inv", p.cache_key_us_inv);
    out.single("serve.cache_get_ns", p.cache_get_ns);
    out.single("serve.infer_fwd_us_b1", p.infer_fwd_us_b1);
    out.single("serve.infer_fwd_us_b32", p.infer_fwd_us_b32);
    out.single("serve.infer_inv_us_b32", p.infer_inv_us_b32);
    out
}

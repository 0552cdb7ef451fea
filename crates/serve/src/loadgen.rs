//! Multi-threaded load generator for the serving engine.
//!
//! Two driving modes: **closed-loop** (each client thread waits for its
//! response before issuing the next request — measures sustainable
//! throughput at a given concurrency) and **open-loop** (submissions are
//! paced on a fixed schedule regardless of completions — exposes
//! queueing and backpressure under overload; rejected and shed requests
//! are counted, not retried).
//!
//! # Coordinated omission
//!
//! Open-loop latency is measured from the request's **intended arrival
//! time** on the schedule, not from whenever the generator got around to
//! sending it. An earlier revision submitted on schedule but then waited
//! for each response *inline* before the next submission — under a slow
//! server the generator itself fell behind its own schedule, so the
//! queueing delay every on-schedule client would have suffered was
//! silently dropped from the percentiles (the classic coordinated
//! omission bug). The fixed path never waits inline: responses are
//! harvested after the schedule completes, and each carries a
//! server-side completion timestamp so late harvesting costs nothing.
//! [`LoadGenConfig::co_baseline`] re-enables the old inline-wait
//! measurement on demand, so benches can report the before/after delta.
//!
//! For fleet benchmarks, [`run_traffic`] layers a traffic model on the
//! open-loop engine: heavy-tailed (Pareto) interarrival gaps, a diurnal
//! rate schedule, and Zipf-skewed hot keys drawn from a shared catalog
//! (so the LRU response cache sees realistic repeat traffic).

use crate::batcher::{Response, ServeClient, ServeError};
use crate::telemetry::ReqKind;
use ltfb_tensor::{seeded_rng, TensorRng};

use rand::Rng;
use std::time::{Duration, Instant};

/// Anything the load generator can drive: a single server's client or a
/// fleet router.
pub trait LoadTarget: Sync {
    /// Blocking submit (closed-loop driving).
    fn submit_req(&self, kind: ReqKind, input: &[f32]) -> Result<Response, ServeError>;
    /// Non-blocking submit (open-loop driving).
    fn try_submit_req(&self, kind: ReqKind, input: &[f32]) -> Result<Response, ServeError>;
}

impl LoadTarget for ServeClient {
    fn submit_req(&self, kind: ReqKind, input: &[f32]) -> Result<Response, ServeError> {
        self.submit(kind, input)
    }
    fn try_submit_req(&self, kind: ReqKind, input: &[f32]) -> Result<Response, ServeError> {
        self.try_submit(kind, input)
    }
}

/// How client threads pace their requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Next request only after the previous response.
    Closed,
    /// Fixed aggregate submission rate (requests/second) across all
    /// clients; uses non-blocking submits and counts rejections.
    Open { rate_per_sec: f64 },
}

/// Load-generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Fraction of requests taking the inverse path (`y -> x`).
    pub inverse_fraction: f64,
    /// Pacing mode.
    pub mode: LoadMode,
    /// RNG seed for the request streams.
    pub seed: u64,
    /// Re-enable the coordinated-omission-biased measurement in open
    /// mode: wait for each response inline and time it from the actual
    /// send. Exists ONLY so benches and the regression test can report
    /// the before/after percentile delta; leave `false` for honest
    /// numbers.
    pub co_baseline: bool,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 8,
            requests_per_client: 250,
            inverse_fraction: 0.25,
            mode: LoadMode::Closed,
            seed: 7,
            co_baseline: false,
        }
    }
}

/// Aggregate outcome of one load run, including client-side latency
/// percentiles. In open mode `lat_*` percentiles are measured from the
/// intended arrival times (coordinated-omission free) and `send_lat_*`
/// from the actual send instants; in closed mode the two coincide.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadReport {
    pub submitted: u64,
    pub completed: u64,
    /// Backpressure rejections (open-loop only).
    pub rejected: u64,
    /// SLO admission-control sheds (fleet targets only).
    pub shed: u64,
    /// Submissions that failed for non-backpressure reasons.
    pub errors: u64,
    pub wall_secs: f64,
    /// Latency from the *intended* schedule slot, µs.
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub lat_p999_us: f64,
    /// Latency from the actual send instant, µs (the coordinated-
    /// omission-biased view, kept to quantify the correction).
    pub send_lat_p50_us: f64,
    pub send_lat_p99_us: f64,
    pub send_lat_p999_us: f64,
}

impl LoadReport {
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.completed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Completions per second of *offered* wall time — under overload
    /// this is the goodput the shedding policy preserved.
    pub fn goodput_rps(&self) -> f64 {
        self.throughput_rps()
    }
}

/// Per-client raw outcome, merged by the runners before percentiles.
#[derive(Default)]
struct ClientOut {
    submitted: u64,
    completed: u64,
    rejected: u64,
    shed: u64,
    errors: u64,
    corrected_us: Vec<f64>,
    send_us: Vec<f64>,
}

fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn merge(outs: Vec<ClientOut>, wall_secs: f64) -> LoadReport {
    let mut total = LoadReport {
        wall_secs,
        ..Default::default()
    };
    let mut corrected = Vec::new();
    let mut send = Vec::new();
    for o in outs {
        total.submitted += o.submitted;
        total.completed += o.completed;
        total.rejected += o.rejected;
        total.shed += o.shed;
        total.errors += o.errors;
        corrected.extend(o.corrected_us);
        send.extend(o.send_us);
    }
    corrected.sort_by(f64::total_cmp);
    send.sort_by(f64::total_cmp);
    total.lat_p50_us = pct(&corrected, 0.50);
    total.lat_p99_us = pct(&corrected, 0.99);
    total.lat_p999_us = pct(&corrected, 0.999);
    total.send_lat_p50_us = pct(&send, 0.50);
    total.send_lat_p99_us = pct(&send, 0.99);
    total.send_lat_p999_us = pct(&send, 0.999);
    total
}

/// Drive `target` from `cfg.clients` threads; blocks until every thread
/// finishes its quota. `x_dim`/`y_dim` size the generated request
/// payloads (query them from the server's registry).
pub fn run_load<T: LoadTarget>(
    target: &T,
    cfg: &LoadGenConfig,
    x_dim: usize,
    y_dim: usize,
) -> LoadReport {
    assert!(cfg.clients >= 1, "need at least one client");
    assert!(
        (0.0..=1.0).contains(&cfg.inverse_fraction),
        "inverse_fraction in [0,1]"
    );
    let start = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let cfg = *cfg;
                s.spawn(move || client_loop(target, cfg, c, x_dim, y_dim))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("invariant: load clients do not panic"))
            .collect()
    });
    merge(outs, start.elapsed().as_secs_f64())
}

fn gen_input(rng: &mut TensorRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(0.0f32..1.0)).collect()
}

fn record_outcome(out: &mut ClientOut, err: &ServeError) {
    match err {
        ServeError::Overloaded => out.rejected += 1,
        ServeError::Shed { .. } => out.shed += 1,
        _ => out.errors += 1,
    }
}

fn client_loop<T: LoadTarget>(
    target: &T,
    cfg: LoadGenConfig,
    client_idx: usize,
    x_dim: usize,
    y_dim: usize,
) -> ClientOut {
    let mut rng = seeded_rng(
        cfg.seed
            .wrapping_add(client_idx as u64)
            .wrapping_mul(0x9E37),
    );
    let mut out = ClientOut::default();
    // Open-loop pacing: each client covers 1/clients of the aggregate
    // rate, submissions scheduled on a fixed grid from the start time.
    let interval = match cfg.mode {
        LoadMode::Open { rate_per_sec } => {
            assert!(rate_per_sec > 0.0, "open-loop rate must be positive");
            Some(Duration::from_secs_f64(cfg.clients as f64 / rate_per_sec))
        }
        LoadMode::Closed => None,
    };
    let started = Instant::now();
    // Open mode: responses are harvested after the schedule completes
    // (never inline — see the module docs on coordinated omission).
    let mut pending: Vec<(Duration, Instant, Response)> = Vec::new();
    for i in 0..cfg.requests_per_client {
        let inverse = rng.gen_bool(cfg.inverse_fraction);
        let due = interval.map(|iv| iv * i as u32);
        if let Some(due) = due {
            // Absolute schedule, not sleep-after-completion: an open-loop
            // generator must not slow down when the server does.
            let now = started.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let (kind, input) = if inverse {
            (ReqKind::Inverse, gen_input(&mut rng, y_dim))
        } else {
            (ReqKind::Forward, gen_input(&mut rng, x_dim))
        };
        out.submitted += 1;
        let sent = Instant::now();
        match due {
            Some(due) => match target.try_submit_req(kind, &input) {
                Ok(resp) if cfg.co_baseline => {
                    // Deliberately reproduce the coordinated-omission
                    // bug: wait inline (stalling this client's own
                    // schedule), measure from the send.
                    match resp.wait_completion() {
                        Ok(c) => {
                            let us = c.finished.saturating_duration_since(sent).as_secs_f64() * 1e6;
                            out.corrected_us.push(us);
                            out.send_us.push(us);
                            out.completed += 1;
                        }
                        Err(_) => out.errors += 1,
                    }
                }
                Ok(resp) => pending.push((due, sent, resp)),
                Err(e) => record_outcome(&mut out, &e),
            },
            // Closed mode: submit-to-completion is the honest latency
            // (the next request is not due until this one answers).
            None => match target.submit_req(kind, &input) {
                Ok(resp) => match resp.wait_completion() {
                    Ok(c) => {
                        let us = c.finished.saturating_duration_since(sent).as_secs_f64() * 1e6;
                        out.corrected_us.push(us);
                        out.send_us.push(us);
                        out.completed += 1;
                    }
                    Err(_) => out.errors += 1,
                },
                Err(e) => record_outcome(&mut out, &e),
            },
        }
    }
    harvest(&mut out, started, pending);
    out
}

/// Drain the open-loop backlog: completion timestamps were taken
/// server-side, so late harvesting does not distort latency.
fn harvest(out: &mut ClientOut, started: Instant, pending: Vec<(Duration, Instant, Response)>) {
    for (due, sent, resp) in pending {
        match resp.wait_completion() {
            Ok(c) => {
                let intended = started + due;
                out.corrected_us
                    .push(c.finished.saturating_duration_since(intended).as_secs_f64() * 1e6);
                out.send_us
                    .push(c.finished.saturating_duration_since(sent).as_secs_f64() * 1e6);
                out.completed += 1;
            }
            Err(_) => out.errors += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet traffic model: heavy tails, diurnal rate, Zipf hot keys
// ---------------------------------------------------------------------------

/// Open-loop traffic shape for fleet benchmarks: a diurnal sinusoid over
/// the aggregate rate, bounded-Pareto (heavy-tailed) interarrival gaps,
/// and Zipf-skewed draws from a fixed catalog of hot request vectors so
/// the LRU response cache sees realistic repeat traffic.
#[derive(Debug, Clone, Copy)]
pub struct TrafficModel {
    /// Mean aggregate request rate (requests/second) at the diurnal
    /// midpoint.
    pub base_rate: f64,
    /// Diurnal modulation fraction in `[0, 1)`: the instantaneous rate is
    /// `base_rate * (1 + amp * sin(2πt/period))`.
    pub diurnal_amp: f64,
    /// Period of the diurnal cycle (compressed from 24h to bench scale).
    pub diurnal_period: Duration,
    /// Pareto tail index for interarrival gaps; must exceed 1 so the
    /// mean exists. Larger = closer to deterministic pacing.
    pub tail_alpha: f64,
    /// Size of the hot-key catalog; 0 makes every request unique
    /// (cache-hostile traffic).
    pub hot_keys: usize,
    /// Zipf exponent over catalog ranks (1.0–1.2 is web-like skew).
    pub zipf_exponent: f64,
    /// Fraction of requests taking the inverse path.
    pub inverse_fraction: f64,
    pub seed: u64,
}

impl Default for TrafficModel {
    fn default() -> Self {
        TrafficModel {
            base_rate: 2000.0,
            diurnal_amp: 0.3,
            diurnal_period: Duration::from_secs(2),
            tail_alpha: 1.5,
            hot_keys: 256,
            zipf_exponent: 1.1,
            inverse_fraction: 0.25,
            seed: 7,
        }
    }
}

/// One bounded-Pareto gap with the given mean: scale `xm = m(α-1)/α`,
/// sample `xm · u^(-1/α)`, cap at `50·m` so a single astronomical gap
/// cannot stall a bench (the tail is heavy, not unbounded).
fn bounded_pareto_gap(rng: &mut TensorRng, mean_secs: f64, alpha: f64) -> Duration {
    debug_assert!(alpha > 1.0);
    let xm = mean_secs * (alpha - 1.0) / alpha;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    Duration::from_secs_f64((xm * u.powf(-1.0 / alpha)).min(50.0 * mean_secs))
}

/// Cumulative (normalized) Zipf weights over `n` ranks: rank `r` carries
/// weight `1/(r+1)^s`.
fn zipf_cum(n: usize, s: f64) -> Vec<f64> {
    let mut cum: Vec<f64> = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += ((r + 1) as f64).powf(-s);
        cum.push(acc);
    }
    let total = acc.max(f64::MIN_POSITIVE);
    for c in &mut cum {
        *c /= total;
    }
    cum
}

fn zipf_sample(cum: &[f64], u: f64) -> usize {
    cum.partition_point(|&c| c < u).min(cum.len() - 1)
}

/// Shared hot-key catalog: one fixed request vector per rank and kind.
struct Catalog {
    fwd: Vec<Vec<f32>>,
    inv: Vec<Vec<f32>>,
    cum: Vec<f64>,
}

impl Catalog {
    fn build(tm: &TrafficModel, x_dim: usize, y_dim: usize) -> Option<Catalog> {
        if tm.hot_keys == 0 {
            return None;
        }
        let mut rng = seeded_rng(tm.seed.wrapping_mul(0xC0FFEE).wrapping_add(1));
        Some(Catalog {
            fwd: (0..tm.hot_keys)
                .map(|_| gen_input(&mut rng, x_dim))
                .collect(),
            inv: (0..tm.hot_keys)
                .map(|_| gen_input(&mut rng, y_dim))
                .collect(),
            cum: zipf_cum(tm.hot_keys, tm.zipf_exponent),
        })
    }
}

/// Drive `target` with `total_requests` spread over `clients` threads of
/// modeled open-loop traffic. Latency is coordinated-omission corrected
/// exactly as in [`run_load`]'s open mode.
pub fn run_traffic<T: LoadTarget>(
    target: &T,
    tm: &TrafficModel,
    clients: usize,
    total_requests: usize,
    x_dim: usize,
    y_dim: usize,
) -> LoadReport {
    assert!(clients >= 1, "need at least one client");
    assert!(tm.base_rate > 0.0, "base rate must be positive");
    assert!(tm.tail_alpha > 1.0, "Pareto tail index must exceed 1");
    assert!(
        (0.0..1.0).contains(&tm.diurnal_amp),
        "diurnal amplitude in [0,1)"
    );
    let catalog = Catalog::build(tm, x_dim, y_dim);
    let per_client = total_requests.div_ceil(clients);
    let start = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let catalog = &catalog;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let tm = *tm;
                s.spawn(move || {
                    traffic_loop(target, &tm, clients, per_client, c, catalog, x_dim, y_dim)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("invariant: load clients do not panic"))
            .collect()
    });
    merge(outs, start.elapsed().as_secs_f64())
}

#[allow(clippy::too_many_arguments)] // one dispatch site, mirrors run_traffic state
fn traffic_loop<T: LoadTarget>(
    target: &T,
    tm: &TrafficModel,
    clients: usize,
    requests: usize,
    client_idx: usize,
    catalog: &Option<Catalog>,
    x_dim: usize,
    y_dim: usize,
) -> ClientOut {
    let mut rng = seeded_rng(tm.seed.wrapping_add(client_idx as u64).wrapping_mul(0x9E37));
    let mut out = ClientOut::default();
    let started = Instant::now();
    let mut pending: Vec<(Duration, Instant, Response)> = Vec::new();
    let mut due = Duration::ZERO;
    for _ in 0..requests {
        let now = started.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let inverse = rng.gen_bool(tm.inverse_fraction);
        let kind = if inverse {
            ReqKind::Inverse
        } else {
            ReqKind::Forward
        };
        // Hot-key skew: draw from the Zipf catalog when one exists, else
        // generate a fresh (cache-hostile) vector.
        let fresh;
        let input: &[f32] = match catalog {
            Some(cat) => {
                let rank = zipf_sample(&cat.cum, rng.gen_range(0.0..1.0));
                if inverse {
                    &cat.inv[rank]
                } else {
                    &cat.fwd[rank]
                }
            }
            None => {
                fresh = gen_input(&mut rng, if inverse { y_dim } else { x_dim });
                &fresh
            }
        };
        out.submitted += 1;
        let sent = Instant::now();
        match target.try_submit_req(kind, input) {
            Ok(resp) => pending.push((due, sent, resp)),
            Err(e) => record_outcome(&mut out, &e),
        }
        // Advance the schedule: instantaneous diurnal rate at the
        // *intended* time, heavy-tailed gap around its mean.
        let t = due.as_secs_f64();
        let phase = std::f64::consts::TAU * t / tm.diurnal_period.as_secs_f64().max(1e-9);
        let rate = tm.base_rate * (1.0 + tm.diurnal_amp * phase.sin());
        let mean_gap = clients as f64 / rate.max(1e-9);
        due += bounded_pareto_gap(&mut rng, mean_gap, tm.tail_alpha);
    }
    harvest(&mut out, started, pending);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{BatchPolicy, Server};
    use crate::registry::ModelRegistry;
    use ltfb_gan::{CycleGan, CycleGanConfig};
    use std::sync::Arc;

    fn tiny_server(policy: BatchPolicy) -> Server {
        let cfg = CycleGanConfig::small(4);
        Server::start(
            Arc::new(ModelRegistry::new(CycleGan::new(cfg, 1), 1)),
            policy,
        )
    }

    fn dims(server: &Server) -> (usize, usize) {
        let m = server.registry().current();
        (m.x_dim(), m.y_dim())
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let server = tiny_server(BatchPolicy::default());
        let (x_dim, y_dim) = dims(&server);
        let cfg = LoadGenConfig {
            clients: 4,
            requests_per_client: 25,
            ..LoadGenConfig::default()
        };
        let report = run_load(&server.client(), &cfg, x_dim, y_dim);
        assert_eq!(report.submitted, 100);
        assert_eq!(report.completed, 100);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.errors, 0);
        assert!(report.lat_p50_us > 0.0);
        assert!(report.lat_p99_us >= report.lat_p50_us);
        // Closed mode: both measurement bases coincide.
        assert_eq!(report.lat_p99_us, report.send_lat_p99_us);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 100);
    }

    #[test]
    fn open_loop_counts_rejections_under_overload() {
        // Tiny queue + slow single worker: a fast open-loop schedule must
        // overflow and be counted, never block the generator.
        let server = tiny_server(BatchPolicy {
            workers: 1,
            max_batch: 1,
            queue_cap: 2,
            flush_deadline: Duration::ZERO,
            service_floor: Duration::from_millis(2),
            ..BatchPolicy::default()
        });
        let (x_dim, y_dim) = dims(&server);
        let cfg = LoadGenConfig {
            clients: 2,
            requests_per_client: 100,
            mode: LoadMode::Open {
                rate_per_sec: 5_000.0,
            },
            ..LoadGenConfig::default()
        };
        let report = run_load(&server.client(), &cfg, x_dim, y_dim);
        assert_eq!(report.submitted, 200);
        assert!(report.rejected > 0, "overload never rejected: {report:?}");
        assert_eq!(
            report.completed + report.rejected + report.errors,
            report.submitted
        );
        server.shutdown();
    }

    #[test]
    fn corrected_percentiles_expose_queueing_the_inline_wait_hid() {
        // Coordinated-omission regression: a deliberately stalled server
        // (4ms per single-request batch = 250 rps capacity) driven at
        // 500 rps. The old inline-wait measurement reports ~the service
        // floor because the generator stalls its own schedule; the
        // corrected measurement charges every request from its intended
        // arrival and sees the queue ramp.
        let stalled = || {
            tiny_server(BatchPolicy {
                workers: 1,
                max_batch: 1,
                queue_cap: 1024,
                flush_deadline: Duration::ZERO,
                service_floor: Duration::from_millis(4),
                ..BatchPolicy::default()
            })
        };
        let cfg = LoadGenConfig {
            clients: 1,
            requests_per_client: 100,
            inverse_fraction: 0.0,
            mode: LoadMode::Open {
                rate_per_sec: 500.0,
            },
            seed: 11,
            co_baseline: true,
        };
        let server = stalled();
        let (x_dim, y_dim) = dims(&server);
        let before = run_load(&server.client(), &cfg, x_dim, y_dim);
        server.shutdown();

        let server = stalled();
        let after = run_load(
            &server.client(),
            &LoadGenConfig {
                co_baseline: false,
                ..cfg
            },
            x_dim,
            y_dim,
        );
        server.shutdown();

        assert_eq!(before.completed, 100);
        assert_eq!(after.completed, 100);
        // Inline wait hides the queue: percentiles sit near the 4ms
        // floor. The corrected view must show the ~100ms+ ramp.
        assert!(
            after.lat_p99_us > 5.0 * before.lat_p99_us,
            "corrected p99 {:.0}us does not expose queueing over baseline {:.0}us",
            after.lat_p99_us,
            before.lat_p99_us
        );
        assert!(
            after.lat_p99_us > 50_000.0,
            "expected >50ms corrected p99, got {:.0}us",
            after.lat_p99_us
        );
        // The baseline generator fell behind its own 200ms schedule —
        // the signature of the bug.
        assert!(
            before.wall_secs > 0.3,
            "baseline wall {:.3}s",
            before.wall_secs
        );
    }

    #[test]
    fn traffic_model_hits_the_cache_and_completes() {
        let server = tiny_server(BatchPolicy {
            cache_capacity: 512,
            ..BatchPolicy::default()
        });
        let (x_dim, y_dim) = dims(&server);
        let tm = TrafficModel {
            base_rate: 4000.0,
            hot_keys: 8,
            ..TrafficModel::default()
        };
        let report = run_traffic(&server.client(), &tm, 2, 300, x_dim, y_dim);
        assert_eq!(report.submitted, 300);
        assert_eq!(
            report.completed + report.rejected + report.shed + report.errors,
            report.submitted
        );
        assert_eq!(report.errors, 0);
        // Each send waits for its intended slot, so charging latency from
        // the slot can only add to the send-clock view.
        assert!(
            report.lat_p99_us >= report.send_lat_p99_us,
            "corrected p99 {:.0}us below send-clock p99 {:.0}us",
            report.lat_p99_us,
            report.send_lat_p99_us
        );
        let stats = server.shutdown();
        // 8 hot keys under Zipf skew: repeats must hit the LRU cache.
        assert!(stats.cache_hits > 0, "no cache hits: {stats:?}");
    }

    #[test]
    fn pareto_gaps_are_positive_and_bounded() {
        let mut rng = seeded_rng(42);
        let mean = 0.001;
        let mut total = 0.0;
        for _ in 0..10_000 {
            let g = bounded_pareto_gap(&mut rng, mean, 1.5).as_secs_f64();
            assert!(g > 0.0 && g <= 50.0 * mean, "gap {g} out of bounds");
            total += g;
        }
        // Sample mean lands near the configured mean (loose: heavy tail).
        let sample_mean = total / 10_000.0;
        assert!(
            sample_mean > 0.3 * mean && sample_mean < 3.0 * mean,
            "sample mean {sample_mean} vs {mean}"
        );
    }

    #[test]
    fn zipf_catalog_is_skewed_toward_low_ranks() {
        let cum = zipf_cum(64, 1.1);
        assert_eq!(cum.len(), 64);
        assert!((cum[63] - 1.0).abs() < 1e-12);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        // Rank 0 alone carries a big share under s=1.1.
        assert!(cum[0] > 0.15, "rank-0 mass {}", cum[0]);
        assert_eq!(zipf_sample(&cum, 0.0), 0);
        assert_eq!(zipf_sample(&cum, 1.0), 63);
        let mut rng = seeded_rng(9);
        let mut low = 0;
        for _ in 0..1000 {
            if zipf_sample(&cum, rng.gen_range(0.0..1.0)) < 8 {
                low += 1;
            }
        }
        assert!(low > 500, "top-8 ranks drew only {low}/1000");
    }
}

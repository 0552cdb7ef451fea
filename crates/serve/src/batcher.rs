//! The micro-batching engine: bounded request queue, coalescing workers,
//! and the client handle.
//!
//! Requests (forward `x -> y` and inverse `y -> x`) land on one bounded
//! MPMC queue. Each worker blocks for a first request, then coalesces up
//! to `max_batch - 1` more until the flush deadline lapses, packs each
//! kind's inputs into a single matrix, and runs **one** forward pass per
//! kind over the whole pack — row-independent GEMM kernels make the
//! batched results bit-identical to sequential single-sample inference
//! while amortising per-call overhead into GEMM-friendly shapes.
//!
//! Backpressure: the queue is bounded; blocking submits stall producers
//! and [`ServeClient::try_submit_forward`]/[`try_submit_inverse`] report
//! [`ServeError::Overloaded`] instead. Shutdown is graceful by
//! construction: dropping the server's sender lets workers drain every
//! queued request before exiting, so no accepted request goes
//! unanswered.
//!
//! [`try_submit_inverse`]: ServeClient::try_submit_inverse

use crate::cache::{CacheKey, LruCache};
use crate::registry::{ModelRegistry, ServableModel};
use crate::telemetry::{ReqKind, ServeStats, Telemetry};
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use ltfb_tensor::Matrix;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coalescing policy of the micro-batching engine.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Largest number of requests packed into one forward pass.
    pub max_batch: usize,
    /// How long a partially filled batch waits for company before it is
    /// flushed anyway. Bounds the batching-induced latency.
    pub flush_deadline: Duration,
    /// Bound of the request queue (backpressure threshold).
    pub queue_cap: usize,
    /// Number of batch-worker threads.
    pub workers: usize,
    /// Response-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Quantization grid of cache keys (see `cache` module docs).
    pub cache_quantum: f32,
    /// Synthetic per-batch service-time floor: each worker sleeps this
    /// long before dispatching a batch. ZERO in production — the knob
    /// exists so tests and load experiments can model a slow or stalled
    /// backend deterministically (the coordinated-omission regression
    /// test stalls a server this way).
    pub service_floor: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 32,
            flush_deadline: Duration::from_micros(50),
            queue_cap: 1024,
            workers: 2,
            cache_capacity: 0,
            cache_quantum: 1.0e-3,
            service_floor: Duration::ZERO,
        }
    }
}

impl BatchPolicy {
    /// Degenerate policy processing every request alone — the "no
    /// micro-batching" baseline for benchmarks.
    pub fn sequential() -> Self {
        BatchPolicy {
            max_batch: 1,
            flush_deadline: Duration::ZERO,
            ..BatchPolicy::default()
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Input width does not match the live model's geometry.
    WrongWidth { expected: usize, got: usize },
    /// Input contains a NaN or infinity at the given index. Rejected at
    /// submission: non-finite coordinates would quantize onto arbitrary
    /// cache cells (`NaN.round() as i64` is 0) and poison cached
    /// responses for legitimate nearby inputs.
    NonFinite { index: usize },
    /// Queue full (only from the non-blocking submit paths).
    Overloaded,
    /// Shed by SLO admission control: every fleet shard's queue was at
    /// or beyond the configured budget, so accepting the request could
    /// only grow the queues without bound and blow the latency SLO for
    /// everyone already queued. `depth` is the shallowest queue observed.
    Shed { depth: usize, budget: usize },
    /// Server shut down before the request could be accepted.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::WrongWidth { expected, got } => {
                write!(f, "input width {got}, model expects {expected}")
            }
            ServeError::NonFinite { index } => {
                write!(f, "input[{index}] is not finite")
            }
            ServeError::Overloaded => write!(f, "request queue full"),
            ServeError::Shed { depth, budget } => {
                write!(
                    f,
                    "shed by admission control (depth {depth} >= budget {budget})"
                )
            }
            ServeError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

struct Request {
    kind: ReqKind,
    input: Vec<f32>,
    reply: Sender<Completion>,
    enqueued: Instant,
}

/// A completed request with its serving provenance: which model version
/// answered, which worker micro-batch it rode in, and when the worker
/// finished it. The timestamp is taken server-side at reply time, so a
/// client that harvests responses late (an open-loop load generator
/// draining a backlog) still measures true completion times.
pub struct Completion {
    pub output: Vec<f32>,
    /// Registry version of the model snapshot that served this request.
    pub version: u64,
    /// Server-wide id of the micro-batch this request was packed into;
    /// all requests of one batch share a model snapshot (and this id).
    pub batch_id: u64,
    /// When the worker sent the reply.
    pub finished: Instant,
}

/// A completed inference response.
pub struct Response {
    rx: Receiver<Completion>,
}

impl Response {
    /// Block until the result arrives.
    pub fn wait(self) -> Result<Vec<f32>, ServeError> {
        self.wait_completion().map(|c| c.output)
    }

    /// Block until the result arrives, keeping the serving provenance
    /// (model version, batch id, completion timestamp).
    pub fn wait_completion(self) -> Result<Completion, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)
    }
}

/// Cloneable client handle; all clones feed the same queue.
///
/// Holds the queue's sender only weakly: the server owns the sole strong
/// reference, so [`Server::shutdown`] disconnects the channel even while
/// client handles are still alive — their submits then fail fast with
/// [`ServeError::ShuttingDown`] instead of queueing into the void.
#[derive(Clone)]
pub struct ServeClient {
    tx: Weak<Sender<Request>>,
    registry: Arc<ModelRegistry>,
    telemetry: Arc<Telemetry>,
}

impl ServeClient {
    fn expected_width(&self, kind: ReqKind) -> usize {
        let m = self.registry.current();
        match kind {
            ReqKind::Forward => m.x_dim(),
            ReqKind::Inverse => m.y_dim(),
        }
    }

    fn make_request(
        &self,
        kind: ReqKind,
        input: &[f32],
    ) -> Result<(Request, Response), ServeError> {
        let expected = self.expected_width(kind);
        if input.len() != expected {
            return Err(ServeError::WrongWidth {
                expected,
                got: input.len(),
            });
        }
        if let Some(index) = input.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::NonFinite { index });
        }
        let (reply, rx) = bounded(1);
        let req = Request {
            kind,
            input: input.to_vec(),
            reply,
            enqueued: Instant::now(),
        };
        Ok((req, Response { rx }))
    }

    /// Submit a forward request (`x -> Dec(F(x))`), blocking while the
    /// queue is full; returns a waitable [`Response`].
    pub fn submit_forward(&self, x: &[f32]) -> Result<Response, ServeError> {
        self.submit(ReqKind::Forward, x)
    }

    /// Submit an inverse request (`y -> G(E(y))`), blocking while the
    /// queue is full.
    pub fn submit_inverse(&self, y: &[f32]) -> Result<Response, ServeError> {
        self.submit(ReqKind::Inverse, y)
    }

    /// Blocking submit of either kind (the load generator's generic
    /// entry point; see [`ServeClient::submit_forward`]).
    pub fn submit(&self, kind: ReqKind, input: &[f32]) -> Result<Response, ServeError> {
        let (req, resp) = self.make_request(kind, input)?;
        let tx = self.tx.upgrade().ok_or(ServeError::ShuttingDown)?;
        self.telemetry.record_arrival();
        self.telemetry.record_queue_depth(tx.len());
        tx.send(req).map_err(|_| ServeError::ShuttingDown)?;
        Ok(resp)
    }

    /// Non-blocking submit: [`ServeError::Overloaded`] when the queue is
    /// at capacity (open-loop load generators use this).
    pub fn try_submit_forward(&self, x: &[f32]) -> Result<Response, ServeError> {
        self.try_submit(ReqKind::Forward, x)
    }

    /// Non-blocking inverse submit.
    pub fn try_submit_inverse(&self, y: &[f32]) -> Result<Response, ServeError> {
        self.try_submit(ReqKind::Inverse, y)
    }

    /// Non-blocking submit of either kind.
    pub fn try_submit(&self, kind: ReqKind, input: &[f32]) -> Result<Response, ServeError> {
        let (req, resp) = self.make_request(kind, input)?;
        let tx = self.tx.upgrade().ok_or(ServeError::ShuttingDown)?;
        self.telemetry.record_arrival();
        self.telemetry.record_queue_depth(tx.len());
        match tx.try_send(req) {
            Ok(()) => Ok(resp),
            Err(TrySendError::Full(_)) => {
                self.telemetry.record_rejected();
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Requests currently queued behind this client's server (0 after
    /// shutdown). The fleet router reads this for spill/shed decisions.
    pub fn queue_depth(&self) -> usize {
        self.tx.upgrade().map_or(0, |t| t.len())
    }

    /// Shared telemetry sink of this client's server.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Blocking round-trip forward inference.
    pub fn forward(&self, x: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.submit_forward(x)?.wait()
    }

    /// Blocking round-trip inverse inference.
    pub fn inverse(&self, y: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.submit_inverse(y)?.wait()
    }

    /// Version of the model answering new requests.
    pub fn model_version(&self) -> u64 {
        self.registry.version()
    }
}

/// The live-tunable half of a [`BatchPolicy`]: workers re-read these at
/// every batch boundary, so the fleet's adaptive controller can retune
/// the coalescing window against a p99 target without restarting the
/// server. Plain tuning knobs — they synchronise no other data, so
/// relaxed loads/stores are sufficient (a worker reading a knob one
/// batch late is indistinguishable from the controller running later).
pub struct BatchKnobs {
    max_batch: AtomicUsize,
    flush_us: AtomicU64,
}

impl BatchKnobs {
    fn new(policy: &BatchPolicy) -> Self {
        BatchKnobs {
            max_batch: AtomicUsize::new(policy.max_batch),
            flush_us: AtomicU64::new(policy.flush_deadline.as_micros() as u64),
        }
    }

    pub fn max_batch(&self) -> usize {
        self.max_batch.load(Ordering::Relaxed).max(1)
    }

    pub fn flush_deadline(&self) -> Duration {
        Duration::from_micros(self.flush_us.load(Ordering::Relaxed))
    }

    /// Install new knob values (takes effect at the next batch boundary).
    pub fn set(&self, max_batch: usize, flush_deadline: Duration) {
        self.max_batch.store(max_batch.max(1), Ordering::Relaxed);
        self.flush_us
            .store(flush_deadline.as_micros() as u64, Ordering::Relaxed);
    }
}

/// The serving engine: registry + workers + telemetry under one policy.
pub struct Server {
    tx: Option<Arc<Sender<Request>>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<ModelRegistry>,
    telemetry: Arc<Telemetry>,
    knobs: Arc<BatchKnobs>,
}

impl Server {
    /// Spawn the batch workers and start serving the registry's current
    /// model.
    pub fn start(registry: Arc<ModelRegistry>, policy: BatchPolicy) -> Server {
        Self::start_inner(registry, policy, Telemetry::new())
    }

    /// [`Server::start`] with the telemetry sink mirrored into a shared
    /// `ltfb-obs` registry (see [`Telemetry::with_registry`]), so serving
    /// metrics join the unified cross-subsystem export.
    pub fn start_with_obs(
        registry: Arc<ModelRegistry>,
        policy: BatchPolicy,
        metrics: &ltfb_obs::Registry,
    ) -> Server {
        Self::start_inner(registry, policy, Telemetry::with_registry(metrics))
    }

    /// [`Server::start`] with a caller-built telemetry sink — the fleet
    /// uses this to give each shard its own metric-family prefix.
    pub(crate) fn start_with_telemetry(
        registry: Arc<ModelRegistry>,
        policy: BatchPolicy,
        telemetry: Telemetry,
    ) -> Server {
        Self::start_inner(registry, policy, telemetry)
    }

    fn start_inner(
        registry: Arc<ModelRegistry>,
        policy: BatchPolicy,
        telemetry: Telemetry,
    ) -> Server {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        assert!(policy.workers >= 1, "need at least one worker");
        assert!(policy.queue_cap >= 1, "queue_cap must be at least 1");
        let (tx, rx) = bounded::<Request>(policy.queue_cap);
        let telemetry = Arc::new(telemetry);
        let knobs = Arc::new(BatchKnobs::new(&policy));
        // Batch ids are unique across every server in the process (each
        // server gets its own 2^40-wide namespace), so a fleet client
        // can group completions from different shards by batch id alone.
        static NEXT_SERVER_ID: AtomicU64 = AtomicU64::new(0);
        let server_id = NEXT_SERVER_ID.fetch_add(1, Ordering::Relaxed);
        let batch_ids = Arc::new(AtomicU64::new(server_id << 40));
        let cache = if policy.cache_capacity > 0 {
            Some(Arc::new(Mutex::new(LruCache::new(policy.cache_capacity))))
        } else {
            None
        };
        let workers = (0..policy.workers)
            .map(|i| {
                let rx = rx.clone();
                let registry = Arc::clone(&registry);
                let telemetry = Arc::clone(&telemetry);
                let knobs = Arc::clone(&knobs);
                let batch_ids = Arc::clone(&batch_ids);
                let cache = cache.clone();
                std::thread::Builder::new()
                    .name(format!("ltfb-serve-{i}"))
                    .spawn(move || {
                        worker_loop(rx, registry, telemetry, cache, policy, knobs, batch_ids)
                    })
                    .expect("invariant: OS can spawn the batch workers")
            })
            .collect();
        Server {
            tx: Some(Arc::new(tx)),
            workers,
            registry,
            telemetry,
            knobs,
        }
    }

    /// A new client handle.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            tx: Arc::downgrade(
                self.tx
                    .as_ref()
                    .expect("invariant: client() is only callable before shutdown"),
            ),
            registry: Arc::clone(&self.registry),
            telemetry: Arc::clone(&self.telemetry),
        }
    }

    /// The registry backing this server (for hot-swaps under traffic).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Live telemetry sink.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The live-tunable coalescing knobs (see [`BatchKnobs`]).
    pub fn knobs(&self) -> &Arc<BatchKnobs> {
        &self.knobs
    }

    /// Requests currently queued (0 after shutdown).
    pub fn queue_depth(&self) -> usize {
        self.tx.as_ref().map_or(0, |t| t.len())
    }

    /// Stop accepting requests, drain everything already queued, join the
    /// workers, and return the final stats. Requests accepted before the
    /// call are all answered.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_in_place();
        self.telemetry.summary()
    }

    fn shutdown_in_place(&mut self) {
        // The server holds the only strong reference to the sender
        // (clients hold weak ones), so dropping it disconnects the
        // channel: workers finish the backlog, then exit. A submit racing
        // the drop either lands before disconnect (and is served from the
        // backlog) or fails fast with ShuttingDown — never hangs.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(
    rx: Receiver<Request>,
    registry: Arc<ModelRegistry>,
    telemetry: Arc<Telemetry>,
    cache: Option<Arc<Mutex<LruCache>>>,
    policy: BatchPolicy,
    knobs: Arc<BatchKnobs>,
    batch_ids: Arc<AtomicU64>,
) {
    loop {
        // Block for work; a disconnect with an empty queue ends the loop.
        let first = match rx.recv() {
            Ok(r) => r,
            Err(_) => return,
        };
        // Knobs are re-read at every batch boundary so the adaptive
        // controller's retuning takes effect without a restart.
        let max_batch = knobs.max_batch();
        let flush = knobs.flush_deadline();
        let mut batch = Vec::with_capacity(max_batch);
        batch.push(first);
        if flush.is_zero() {
            // Zero-deadline fast path: dispatch immediately with
            // whatever is already queued — no clock reads, no timed
            // waits. (The general path below computed a deadline and
            // consulted the clock twice per request even when the
            // deadline was zero-width.)
            while batch.len() < max_batch {
                match rx.try_recv() {
                    Ok(r) => batch.push(r),
                    Err(_) => break,
                }
            }
        } else {
            // Coalesce until the batch is full or the deadline lapses.
            let deadline = Instant::now() + flush;
            while batch.len() < max_batch {
                let now = Instant::now();
                let got = if now >= deadline {
                    rx.try_recv().ok()
                } else {
                    match rx.recv_timeout(deadline - now) {
                        Ok(r) => Some(r),
                        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                            None
                        }
                    }
                };
                match got {
                    Some(r) => batch.push(r),
                    None => break,
                }
            }
        }
        if !policy.service_floor.is_zero() {
            // Synthetic stall (see BatchPolicy::service_floor docs).
            std::thread::sleep(policy.service_floor);
        }
        // One model snapshot for the whole batch: a concurrent hot-swap
        // takes effect at the next batch boundary. Every reply of this
        // batch carries the snapshot's version and the shared batch id,
        // so clients can verify the no-mixed-versions contract.
        let model = registry.current();
        let batch_id = batch_ids.fetch_add(1, Ordering::Relaxed);
        let quantum = policy.cache_quantum;
        process_kind(
            &batch,
            ReqKind::Forward,
            &model,
            &telemetry,
            cache.as_deref(),
            quantum,
            batch_id,
        );
        process_kind(
            &batch,
            ReqKind::Inverse,
            &model,
            &telemetry,
            cache.as_deref(),
            quantum,
            batch_id,
        );
    }
}

/// Serve every request of `kind` in the batch: answer cache hits, pack
/// the misses into one matrix, run a single batched forward pass, reply,
/// and backfill the cache.
#[allow(clippy::too_many_arguments)] // one dispatch site, mirrors worker_loop state
fn process_kind(
    batch: &[Request],
    kind: ReqKind,
    model: &ServableModel,
    telemetry: &Telemetry,
    cache: Option<&Mutex<LruCache>>,
    cache_quantum: f32,
    batch_id: u64,
) {
    let reqs: Vec<&Request> = batch.iter().filter(|r| r.kind == kind).collect();
    if reqs.is_empty() {
        return;
    }
    let kind_tag = match kind {
        ReqKind::Forward => 0u8,
        ReqKind::Inverse => 1u8,
    };
    // Cache pass: answer hits immediately, collect misses for the pack.
    let mut misses: Vec<&Request> = Vec::with_capacity(reqs.len());
    let mut miss_keys: Vec<Option<CacheKey>> = Vec::with_capacity(reqs.len());
    for r in reqs {
        if let Some(c) = cache {
            // Versioned, so a hit is always the answer of the model whose
            // version it is stamped with, even across a hot-swap.
            let key = CacheKey::quantized(kind_tag, &r.input, cache_quantum)
                .with_version(model.version());
            if let Some(hit) = c.lock().get(&key) {
                let finished = Instant::now();
                let latency = finished.duration_since(r.enqueued).as_secs_f64() * 1e6;
                let _ = r.reply.send(Completion {
                    output: hit,
                    version: model.version(),
                    batch_id,
                    finished,
                });
                telemetry.record_request(kind, latency, true);
                continue;
            }
            miss_keys.push(Some(key));
        } else {
            miss_keys.push(None);
        }
        misses.push(r);
    }
    if misses.is_empty() {
        return;
    }
    // Pack misses row-wise into one matrix and run a single forward pass.
    let width = misses[0].input.len();
    let mut flat = Vec::with_capacity(misses.len() * width);
    for r in &misses {
        flat.extend_from_slice(&r.input);
    }
    let packed = Matrix::from_vec(misses.len(), width, flat);
    // The snapshot dispatches to its own numeric path (f32 or int8).
    let out = match kind {
        ReqKind::Forward => model.infer_forward(&packed),
        ReqKind::Inverse => model.infer_inverse(&packed),
    };
    telemetry.record_batch(misses.len());
    for (i, r) in misses.iter().enumerate() {
        let row = out.row(i).to_vec();
        if let (Some(c), Some(key)) = (cache, miss_keys[i].take()) {
            c.lock().put(key, row.clone());
        }
        let finished = Instant::now();
        let latency = finished.duration_since(r.enqueued).as_secs_f64() * 1e6;
        let _ = r.reply.send(Completion {
            output: row,
            version: model.version(),
            batch_id,
            finished,
        });
        telemetry.record_request(kind, latency, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltfb_gan::{CycleGan, CycleGanConfig};

    fn tiny_server(policy: BatchPolicy) -> Server {
        let cfg = CycleGanConfig::small(4);
        let registry = Arc::new(ModelRegistry::new(CycleGan::new(cfg, 1), 1));
        Server::start(registry, policy)
    }

    #[test]
    fn round_trip_forward_and_inverse() {
        let server = tiny_server(BatchPolicy::default());
        let client = server.client();
        let y_dim = server.registry().current().y_dim();
        let y = client.forward(&[0.3, 0.5, 0.2, 0.8, 0.1]).unwrap();
        assert_eq!(y.len(), y_dim);
        assert!(y.iter().all(|v| v.is_finite()));
        let x = client.inverse(&vec![0.25; y_dim]).unwrap();
        assert_eq!(x.len(), 5);
        // Inverse model ends in a sigmoid: outputs are design params in (0,1).
        assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        server.shutdown();
    }

    #[test]
    fn wrong_width_rejected_without_queueing() {
        let server = tiny_server(BatchPolicy::default());
        let client = server.client();
        assert_eq!(
            client.forward(&[1.0, 2.0]),
            Err(ServeError::WrongWidth {
                expected: 5,
                got: 2
            })
        );
        let stats = server.shutdown();
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn non_finite_inputs_rejected_at_submit() {
        // Regression: a NaN coordinate used to quantize onto cell 0
        // (`NaN.round() as i64 == 0`) and could poison the response cache
        // for legitimate near-zero inputs.
        let server = tiny_server(BatchPolicy {
            cache_capacity: 64,
            ..BatchPolicy::default()
        });
        let client = server.client();
        assert_eq!(
            client.forward(&[0.1, f32::NAN, 0.3, 0.4, 0.5]),
            Err(ServeError::NonFinite { index: 1 })
        );
        let y_dim = server.registry().current().y_dim();
        let mut y = vec![0.2; y_dim];
        y[y_dim - 1] = f32::INFINITY;
        assert_eq!(
            client.inverse(&y),
            Err(ServeError::NonFinite { index: y_dim - 1 })
        );
        assert_eq!(
            client.try_submit_forward(&[f32::NEG_INFINITY; 5]).err(),
            Some(ServeError::NonFinite { index: 0 })
        );
        // A legitimate near-zero input is unaffected by the rejects.
        let clean = client.forward(&[0.0; 5]).unwrap();
        assert!(clean.iter().all(|v| v.is_finite()));
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1, "rejected requests never queued");
    }

    #[test]
    fn obs_server_mirrors_traffic_into_registry() {
        let metrics = ltfb_obs::Registry::new();
        let cfg = CycleGanConfig::small(4);
        let registry = Arc::new(ModelRegistry::new(CycleGan::new(cfg, 1), 1));
        let server = Server::start_with_obs(registry, BatchPolicy::default(), &metrics);
        let client = server.client();
        for i in 0..5 {
            client.forward(&[i as f32 * 0.1; 5]).unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(metrics.counter("serve.forward").get(), 5);
        assert_eq!(
            metrics
                .histogram("serve.latency_us", ltfb_obs::Buckets::latency_us())
                .count(),
            stats.completed
        );
    }

    #[test]
    fn batch_of_concurrent_requests_coalesces() {
        let server = tiny_server(BatchPolicy {
            workers: 1,
            max_batch: 16,
            flush_deadline: Duration::from_millis(20),
            ..BatchPolicy::default()
        });
        let client = server.client();
        let pending: Vec<Response> = (0..8)
            .map(|i| client.submit_forward(&[i as f32 * 0.1; 5]).unwrap())
            .collect();
        for p in pending {
            assert!(p.wait().is_ok());
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 8);
        // One worker + 20ms deadline: requests must have shared batches.
        assert!(stats.mean_batch > 1.0, "no coalescing happened: {stats:?}");
    }

    #[test]
    fn sequential_policy_never_batches() {
        let server = tiny_server(BatchPolicy::sequential());
        let client = server.client();
        for i in 0..6 {
            client.forward(&[i as f32 * 0.1; 5]).unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.max_batch, 1);
    }

    #[test]
    fn cache_serves_repeats_without_inference() {
        let server = tiny_server(BatchPolicy {
            cache_capacity: 64,
            ..BatchPolicy::default()
        });
        let client = server.client();
        let x = [0.4, 0.1, 0.9, 0.2, 0.6];
        let first = client.forward(&x).unwrap();
        let second = client.forward(&x).unwrap();
        assert_eq!(first, second);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn shutdown_answers_all_accepted_requests() {
        let server = tiny_server(BatchPolicy {
            workers: 1,
            max_batch: 4,
            flush_deadline: Duration::from_micros(50),
            ..BatchPolicy::default()
        });
        let client = server.client();
        let pending: Vec<Response> = (0..32)
            .map(|_| client.submit_forward(&[0.5; 5]).unwrap())
            .collect();
        let stats = server.shutdown(); // accepted => answered
        assert_eq!(stats.completed, 32);
        for p in pending {
            assert!(p.wait().is_ok(), "accepted request lost at shutdown");
        }
        // New submissions fail fast.
        assert_eq!(client.forward(&[0.5; 5]), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn zero_flush_deadline_dispatches_immediately() {
        // Regression pin for the flush-deadline edge: with
        // `flush_deadline: Duration::ZERO` and a max_batch > 1, a lone
        // request must be dispatched at once — no timed wait, no
        // deadline arithmetic. A generous bound still catches a path
        // that waits on a timer per request.
        let server = tiny_server(BatchPolicy {
            workers: 1,
            max_batch: 64,
            flush_deadline: Duration::ZERO,
            ..BatchPolicy::default()
        });
        let client = server.client();
        for _ in 0..5 {
            let t0 = Instant::now();
            client.forward(&[0.5; 5]).unwrap();
            assert!(
                t0.elapsed() < Duration::from_millis(250),
                "zero-deadline request waited {:?}",
                t0.elapsed()
            );
        }
        // Backlogged requests still coalesce on the fast path: queue a
        // burst while the single worker is parked, then check packs > 1.
        let pending: Vec<Response> = (0..32)
            .map(|_| client.submit_forward(&[0.5; 5]).unwrap())
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 37);
        assert!(
            stats.mean_batch > 1.0,
            "zero-deadline path stopped draining the backlog: {stats:?}"
        );
    }

    #[test]
    fn knob_retune_takes_effect_at_batch_boundary() {
        let server = tiny_server(BatchPolicy {
            workers: 1,
            max_batch: 16,
            flush_deadline: Duration::from_millis(20),
            ..BatchPolicy::default()
        });
        let client = server.client();
        client.forward(&[0.1; 5]).unwrap();
        // Retune to strictly sequential: no pack may exceed 1 from here.
        server.knobs().set(1, Duration::ZERO);
        assert_eq!(server.knobs().max_batch(), 1);
        assert_eq!(server.knobs().flush_deadline(), Duration::ZERO);
        let pending: Vec<Response> = (0..12)
            .map(|_| client.submit_forward(&[0.3; 5]).unwrap())
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 13);
        assert_eq!(stats.max_batch, 1, "retuned max_batch ignored: {stats:?}");
    }

    #[test]
    fn completions_carry_version_and_shared_batch_id() {
        let server = tiny_server(BatchPolicy {
            workers: 1,
            max_batch: 16,
            flush_deadline: Duration::from_millis(20),
            ..BatchPolicy::default()
        });
        let client = server.client();
        let before = Instant::now();
        let pending: Vec<Response> = (0..6)
            .map(|i| client.submit_forward(&[i as f32 * 0.1; 5]).unwrap())
            .collect();
        let completions: Vec<Completion> = pending
            .into_iter()
            .map(|p| p.wait_completion().unwrap())
            .collect();
        for c in &completions {
            assert_eq!(c.version, 1, "initial registry version");
            assert!(c.finished >= before);
        }
        // All six landed while the lone worker was coalescing: at least
        // one batch id must be shared (and the ids form at most 6 ids).
        let mut ids: Vec<u64> = completions.iter().map(|c| c.batch_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(
            ids.len() < 6,
            "no two completions shared a batch id: {ids:?}"
        );
        server.shutdown();
    }

    #[test]
    fn overload_reports_backpressure() {
        // Tiny queue, slow drain: try_submit must hit Overloaded.
        let server = tiny_server(BatchPolicy {
            workers: 1,
            queue_cap: 2,
            max_batch: 1,
            flush_deadline: Duration::ZERO,
            ..BatchPolicy::default()
        });
        let client = server.client();
        let mut overloaded = false;
        let mut pending = Vec::new();
        for _ in 0..200 {
            match client.try_submit_forward(&[0.5; 5]) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded) => {
                    overloaded = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(overloaded, "queue of 2 never filled under a submit storm");
        for p in pending {
            p.wait().unwrap();
        }
        let stats = server.shutdown();
        assert!(stats.rejected >= 1);
    }
}

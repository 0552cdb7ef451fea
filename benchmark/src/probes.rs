//! Probes: single public calls of a layer, timed alone on an otherwise
//! idle process. They give the traced run the unit costs that the
//! workload-level spans are made of (a GEMM on each model shape, one
//! allreduce, one cache lookup, …). Every probe repeats its call in
//! batches and reports the median batch, so a neighbour's burst does not
//! decide the value.

use crate::rng::Rng;
use crate::stats;
use ltfb_bundle::MmapShard;
use ltfb_comm::{run_world, ReduceOp};
use ltfb_gan::{CycleGan, CycleGanConfig};
use ltfb_jag::{r2_point, sample_payload, DatasetSpec, JagSimulator};
use ltfb_serve::{CacheKey, LruCache, ServableModel};
use ltfb_tensor::{gemm, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// Sub-chunks per ring step of the product's fused gradient allreduce
/// (`FusedGradients::new`, `OverlappedGradients::new`).
const ALLREDUCE_SUBCHUNKS: usize = 4;

/// Median seconds per call: `batches` batches of `calls` calls each.
fn secs_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    stats::median(&per_batch)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.f32() - 0.5).collect(),
    )
}

/// Achieved GFLOP/s of the public `gemm` on the four GEMM shapes of the
/// `CycleGanConfig::small(8)` model at mini-batch `mb` (FLOPs from the
/// dimensions: 2·m·k·n).
pub fn gemm_model_shapes(mb: usize) -> Vec<(&'static str, f64)> {
    let mut rng = Rng::new(1, 0x6E44);
    [
        ("tensor.gemm_gflops.enc_in", 783, 96),
        ("tensor.gemm_gflops.dec_out", 96, 783),
        ("tensor.gemm_gflops.gen_hidden", 64, 64),
        ("tensor.gemm_gflops.latent", 96, 20),
    ]
    .into_iter()
    .map(|(name, k, n)| {
        let a = random_matrix(mb, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let mut c = Matrix::zeros(mb, n);
        let flops = 2.0 * (mb * k * n) as f64;
        let calls = (2.0e7 / flops).ceil().max(8.0) as usize;
        let secs = secs_per_call(7, calls, || {
            gemm(1.0, black_box(&a), black_box(&b), 0.0, &mut c);
            black_box(&c);
        });
        (name, flops / secs / 1e9)
    })
    .collect()
}

/// Median µs of the chunked ring allreduce of `len` f32s on two idle
/// ranks (the product's gradient-exchange primitive at its pipeline
/// depth).
pub fn allreduce_us_p50(len: usize) -> f64 {
    let per_rank = run_world(2, move |comm| {
        let mut buf = vec![comm.rank() as f32 + 0.5; len];
        secs_per_call(7, 50, || {
            comm.allreduce_f32_chunked(&mut buf, ReduceOp::Sum, ALLREDUCE_SUBCHUNKS);
            // Keep the values bounded across thousands of sums.
            for v in &mut buf {
                *v *= 0.5;
            }
        })
    });
    per_rank[0] * 1e6
}

/// Median µs of a `sendrecv` swap of `bytes`-sized payloads between two
/// idle ranks (the tournament's generator exchange).
pub fn sendrecv_us_p50(bytes: usize) -> f64 {
    let per_rank = run_world(2, move |comm| {
        let payload = bytes::Bytes::from(vec![0x5Au8; bytes]);
        let peer = 1 - comm.rank();
        let mut tag = 0u64;
        secs_per_call(7, 50, || {
            tag += 1;
            black_box(comm.sendrecv(peer, tag, payload.clone(), peer, tag));
        })
    });
    per_rank[0] * 1e6
}

/// Median ms of `CycleGan::evaluate` on `n` generated samples (one side
/// of a tournament score).
pub fn evaluate_ms(mut gan: CycleGan, n: usize) -> f64 {
    let mut rng = Rng::new(2, 0xE7A1);
    let x = random_matrix(n, gan.cfg.x_dim(), &mut rng);
    let y = random_matrix(n, gan.cfg.y_dim(), &mut rng);
    secs_per_call(7, 5, || {
        black_box(gan.evaluate(&x, &y));
    }) * 1e3
}

/// Unit costs of the serving path.
pub struct ServeProbes {
    pub cache_key_us_fwd: f64,
    pub cache_key_us_inv: f64,
    pub cache_get_ns: f64,
    pub infer_fwd_us_b1: f64,
    pub infer_fwd_us_b32: f64,
    pub infer_inv_us_b32: f64,
}

pub fn serve(cfg: CycleGanConfig, seed: u64, cache_quantum: f32) -> ServeProbes {
    let mut rng = Rng::new(seed, 0x5E7E);
    let model = ServableModel::new(CycleGan::new(cfg, seed), 1);
    let x1 = random_matrix(1, cfg.x_dim(), &mut rng);
    let x32 = random_matrix(32, cfg.x_dim(), &mut rng);
    let y32 = random_matrix(32, cfg.y_dim(), &mut rng);
    let x = rng.vec_f32(cfg.x_dim());
    let y = rng.vec_f32(cfg.y_dim());

    let mut cache = LruCache::new(256);
    let keys: Vec<CacheKey> = (0..256)
        .map(|_| CacheKey::quantized(0, &rng.vec_f32(cfg.x_dim()), cache_quantum))
        .collect();
    for k in &keys {
        cache.put(k.clone(), vec![0.0; cfg.y_dim()]);
    }
    let mut next = 0usize;

    ServeProbes {
        cache_key_us_fwd: secs_per_call(7, 2000, || {
            black_box(CacheKey::quantized(0, black_box(&x), cache_quantum));
        }) * 1e6,
        cache_key_us_inv: secs_per_call(7, 200, || {
            black_box(CacheKey::quantized(1, black_box(&y), cache_quantum));
        }) * 1e6,
        cache_get_ns: secs_per_call(7, 2000, || {
            next = (next + 1) % keys.len();
            black_box(cache.get(&keys[next]));
        }) * 1e9,
        infer_fwd_us_b1: secs_per_call(7, 100, || {
            black_box(model.infer_forward(&x1));
        }) * 1e6,
        infer_fwd_us_b32: secs_per_call(7, 20, || {
            black_box(model.infer_forward(&x32));
        }) * 1e6,
        infer_inv_us_b32: secs_per_call(7, 20, || {
            black_box(model.infer_inverse(&y32));
        }) * 1e6,
    }
}

/// Unit costs of the storage path.
pub struct StoreProbes {
    pub shard_open_ms: f64,
    pub scan_mb_per_s: f64,
    pub simulate_us_per_sample: f64,
}

/// `spec`'s shards must already be generated.
pub fn store(spec: &DatasetSpec) -> StoreProbes {
    let path = spec.shard_path(0);
    let shard = MmapShard::open(&path).expect("probe shard opens");
    let shard_bytes = shard.bytes_mapped() as f64;
    let sim = JagSimulator::new(spec.cfg);
    let mut id = 0u64;
    StoreProbes {
        shard_open_ms: secs_per_call(5, 4, || {
            black_box(MmapShard::open(&path).expect("probe shard opens"));
        }) * 1e3,
        // `sample` verifies each record's CRC before handing out the view.
        scan_mb_per_s: shard_bytes
            / 1e6
            / secs_per_call(5, 2, || {
                for i in 0..shard.len() {
                    black_box(shard.sample(i).expect("record intact"));
                }
            }),
        simulate_us_per_sample: secs_per_call(5, 32, || {
            id += 1;
            black_box(sample_payload(&sim.simulate(r2_point(id))));
        }) * 1e6,
    }
}

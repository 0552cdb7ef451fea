//! `store_ooc`: the input pipeline alone, out of core. Two ranks read a
//! generated LTBS corpus through `DataStore::new_tiered` with a hot tier
//! a quarter the size of a rank's partition (evictions forced), double-
//! buffered by `Prefetcher`, decoded by `node_to_sample` and packed by
//! `batch_from_samples`. No model step runs: `datastore`/`bundle`/`jag`
//! do all the work, `tensor`/`nn` none.
//!
//! At every epoch boundary rank 0 appends fresh samples through
//! `StreamingIngest::append` + `publish` and both ranks `refresh_ingest`,
//! inside the timed wall: the ingest writer uses the same shard and tier
//! layer differently, so a read-path gain that taxes appends or adoption
//! shows here.
//!
//! A rep is a *cold* tiered store run for a fixed number of epochs, so
//! every rep does identical work (shard opens included).

use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::{another_rep, timed_setup, write_trace, Opts, Outcome};
use bytes::Bytes;
use ltfb_comm::{run_world, Comm};
use ltfb_datastore::{node_to_sample, DataStore, PopulateMode, Prefetcher, TierStats};
use ltfb_gan::{batch_from_samples, CycleGanConfig};
use ltfb_jag::{jag_schema, sample_payload, DatasetSpec, JagConfig, JagSimulator, Sample};
use ltfb_workflow::StreamingIngest;
use std::path::PathBuf;
use std::time::Instant;

const RANKS: usize = 2;
const IMG: usize = 16;
const SAMPLES: u64 = 2048;
const PER_FILE: usize = 64;
const MB: usize = 32;
/// Epochs per rep; the partition grows by `INGEST_PER_EPOCH` at each of
/// the boundaries between them.
const EPOCHS: u64 = 8;
const INGEST_PER_EPOCH: u64 = 64;
/// One delivered sample in this many is checked against the simulator.
const CHECK_EVERY: u64 = 128;
/// Epochs of the ingest-free passes behind `datastore.tier_rel_throughput`.
const PASS_EPOCHS: u64 = 2;

/// Harness root span of one rep (not a layer: excluded from coverage).
const REP: &str = "bench.rep";

/// The generated corpus plus the ingest payloads a rep appends.
struct Corpus {
    spec: DatasetSpec,
    ingest_path: PathBuf,
    /// Payloads of ids `SAMPLES..`, in id order.
    ingest: Vec<Vec<f32>>,
    /// Seconds `generate_all_shards` took, and the bytes it wrote.
    shard_write_secs: f64,
    shard_bytes: u64,
}

impl Drop for Corpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.spec.dir);
    }
}

fn samples(opts: &Opts) -> u64 {
    // Keep whole files and whole mini-batches under the smoke switch.
    (opts.work(SAMPLES) / PER_FILE as u64).max(2) * PER_FILE as u64
}

fn build_corpus(opts: &Opts, with_bundles: bool) -> Corpus {
    let dir = opts.work_dir("store");
    let _ = std::fs::remove_dir_all(&dir);
    // The seed picks the slice of the experiment design the corpus covers.
    let spec = DatasetSpec::new(&dir, JagConfig::small(IMG), samples(opts), PER_FILE)
        .with_design_offset((opts.seed % 4096) << 20);
    let t0 = Instant::now();
    spec.generate_all_shards().expect("shards generate");
    let shard_write_secs = t0.elapsed().as_secs_f64();
    let shard_bytes = (0..spec.n_files())
        .map(|f| std::fs::metadata(spec.shard_path(f)).map_or(0, |m| m.len()))
        .sum();
    if with_bundles {
        // The in-memory reference store preloads from `.jagb` bundles.
        spec.generate_all().expect("bundles generate");
    }
    let sim = JagSimulator::new(spec.cfg);
    let ingest = (0..EPOCHS * INGEST_PER_EPOCH)
        .map(|i| sample_payload(&sim.simulate(spec.params_of(spec.n_samples + i))))
        .collect();
    Corpus {
        ingest_path: dir.join("ingest.ltbs"),
        spec,
        ingest,
        shard_write_secs,
        shard_bytes,
    }
}

/// FNV-1a over a sample's words: the payload checksum of the stream
/// checks.
fn checksum(s: &Sample) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in s.params.iter().chain(&s.scalars).chain(&s.images) {
        h = (h ^ u64::from(w.to_bits())).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn mix_id(id: u64) -> u64 {
    (id ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// What one rank saw during one rep.
#[derive(Default)]
struct RankRep {
    wall_secs: f64,
    delivered: u64,
    /// Order-free digest of every delivered id (conservation check).
    id_digest: u64,
    /// `(id, checksum)` of one delivery in `CHECK_EVERY`.
    sampled: Vec<(u64, u64)>,
    step_ms: Vec<f64>,
    store_errors: u64,
    prefetch_hits: u64,
    prefetch_misses: u64,
    stall_ms: f64,
    tier: TierStats,
    window_ns: (u64, u64),
}

/// One cold rep on this rank. Collective over `comm`.
fn rep(comm: &Comm, corpus: &Corpus, seed: u64, epochs: u64, tr: &mut Tracer) -> RankRep {
    let rank = comm.rank();
    let gan_cfg = CycleGanConfig::small(IMG);
    let spec = &corpus.spec;
    let mut r = RankRep::default();

    comm.barrier();
    let t0 = Instant::now();
    let start_ns = tr.now_ns();
    let root = tr.open(REP, 0);

    // A quarter of a rank's share of the base partition stays hot.
    let budget = spec.n_samples / RANKS as u64 / 4 * spec.cfg.sample_bytes() as u64;
    let ids: Vec<u64> = (0..spec.n_samples).collect();
    let s = tr.open("datastore.open", 0);
    let mut store = DataStore::new_tiered(comm.dup(), spec.clone(), ids, MB, seed, budget, 1)
        .expect("tiered store opens");
    let mut ingest = (rank == 0).then(|| {
        let mut w = StreamingIngest::create(&corpus.ingest_path, jag_schema(&spec.cfg))
            .expect("ingest shard creates");
        w.publish().expect("ingest header flushes");
        w
    });
    comm.barrier();
    store
        .attach_ingest(&corpus.ingest_path)
        .expect("ingest shard attaches");
    tr.close(s);
    let mut pf = Prefetcher::new();
    let mut global_step = 0u64;

    for epoch in 0..epochs {
        let s = tr.open("datastore.epoch_plan", epoch);
        let plan = store.epoch_plan(epoch);
        tr.close(s);
        let s = tr.open("datastore.prefetch_issue", global_step);
        let issued = pf.prefetch(&mut store, &plan, 0, epoch);
        tr.close(s);
        r.store_errors += u64::from(issued.is_err());

        for step in 0..plan.steps() {
            global_step += 1;
            let t_step = Instant::now();
            let s = tr.open("datastore.fetch", global_step);
            let got = pf.fetch_step(&mut store, &plan, step, epoch);
            tr.close(s);
            let s = tr.open("datastore.prefetch_issue", global_step);
            let issued = pf.prefetch(&mut store, &plan, step + 1, epoch);
            tr.close(s);
            let Ok(got) = got else {
                r.store_errors += 1;
                continue;
            };
            r.store_errors += u64::from(issued.is_err());

            let s = tr.open("datastore.decode", global_step);
            let decoded: Result<Vec<Sample>, _> =
                got.iter().map(|(_, n)| node_to_sample(n)).collect();
            tr.close(s);
            let Ok(decoded) = decoded else {
                r.store_errors += 1;
                continue;
            };
            let s = tr.open("gan.pack", global_step);
            let refs: Vec<&Sample> = decoded.iter().collect();
            let (x, y) = batch_from_samples(&gan_cfg, &refs);
            std::hint::black_box((&x, &y));
            tr.close(s);
            r.step_ms.push(t_step.elapsed().as_secs_f64() * 1e3);

            for ((id, _), sample) in got.iter().zip(&decoded) {
                r.id_digest = r.id_digest.wrapping_add(mix_id(*id));
                if (r.delivered + rank as u64).is_multiple_of(CHECK_EVERY) {
                    r.sampled.push((*id, checksum(sample)));
                }
                r.delivered += 1;
            }
        }

        if epoch + 1 < epochs {
            if let Some(w) = ingest.as_mut() {
                let s = tr.open("workflow.ingest_append", epoch);
                let first = epoch * INGEST_PER_EPOCH;
                for i in first..first + INGEST_PER_EPOCH {
                    w.append(spec.n_samples + i, &corpus.ingest[i as usize])
                        .expect("ingest append");
                }
                w.publish().expect("ingest publish");
                tr.close(s);
            }
            // Appends must be flushed before any rank re-maps the shard.
            let s = tr.open("comm.barrier", epoch);
            comm.barrier();
            tr.close(s);
            let s = tr.open("datastore.refresh_ingest", epoch);
            let adopted = store.refresh_ingest();
            tr.close(s);
            r.store_errors += u64::from(adopted.ok() != Some(INGEST_PER_EPOCH as usize));
        }
    }

    let s = tr.open("comm.barrier", epochs);
    comm.barrier();
    tr.close(s);
    tr.close(root);
    r.wall_secs = t0.elapsed().as_secs_f64();
    r.window_ns = (start_ns, tr.now_ns());
    r.prefetch_hits = pf.hits();
    r.prefetch_misses = pf.misses();
    r.stall_ms = pf.stall_ms();
    r.tier = store.tier_stats().unwrap_or_default();
    r
}

/// Samples a correct rep delivers, and the digest of their ids.
fn expected(n_samples: u64, epochs: u64) -> (u64, u64) {
    let mut count = 0;
    let mut digest = 0u64;
    for e in 0..epochs {
        let part = n_samples + e * INGEST_PER_EPOCH;
        count += part;
        for id in 0..part {
            digest = digest.wrapping_add(mix_id(id));
        }
    }
    (count, digest)
}

/// Every sampled delivery must carry exactly the simulator's bytes.
fn payload_mismatches<'a>(
    spec: &DatasetSpec,
    reps: impl IntoIterator<Item = &'a RankRep>,
) -> usize {
    let sim = JagSimulator::new(spec.cfg);
    reps.into_iter()
        .flat_map(|r| &r.sampled)
        .filter(|&&(id, sum)| checksum(&sim.simulate(spec.params_of(id))) != sum)
        .count()
}

/// Rank 0 decides whether another rep runs; everyone follows.
fn agree(comm: &Comm, go: bool) -> bool {
    comm.broadcast(
        0,
        (comm.rank() == 0).then(|| Bytes::from(vec![u8::from(go)])),
    )[0] == 1
}

pub fn run_e2e(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (corpus, setup_secs) = timed_setup(|| {
        let corpus = build_corpus(opts, false);
        // Warm-up rep (discarded): two epochs and one ingest boundary.
        run_world(RANKS, |comm| {
            rep(
                &comm,
                &corpus,
                opts.seed,
                2,
                &mut Tracer::new(false, Instant::now(), 0),
            );
        });
        corpus
    });

    let seed = opts.seed;
    let per_rank: Vec<Vec<RankRep>> = run_world(RANKS, |comm| {
        let mut tr = Tracer::new(false, Instant::now(), comm.rank() as u32);
        let mut reps = Vec::new();
        let t_run = Instant::now();
        loop {
            let r = rep(&comm, &corpus, seed, EPOCHS, &mut tr);
            let go = another_rep(opts, reps.len() + 1, t_run, r.wall_secs);
            reps.push(r);
            if !agree(&comm, go) {
                return reps;
            }
        }
    });

    let (want_count, want_digest) = expected(corpus.spec.n_samples, EPOCHS);
    let n_reps = per_rank[0].len();
    let mut rate = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut conserved = true;
    for i in 0..n_reps {
        let ranks: Vec<&RankRep> = per_rank.iter().map(|reps| &reps[i]).collect();
        let delivered: u64 = ranks.iter().map(|r| r.delivered).sum();
        let digest = ranks.iter().fold(0u64, |d, r| d.wrapping_add(r.id_digest));
        let errors: u64 = ranks.iter().map(|r| r.store_errors).sum();
        out.attempted += want_count;
        out.failed += want_count.saturating_sub(delivered).max(errors);
        conserved &= delivered == want_count && digest == want_digest;
        rate.push(delivered as f64 / ranks[0].wall_secs);
        let steps = stats::sorted(
            &ranks
                .iter()
                .flat_map(|r| r.step_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        p50.push(stats::percentile(&steps, 0.50));
        p99.push(stats::percentile(&steps, 0.99));
    }
    out.check(
        "no_store_error",
        out.failed == 0,
        format!("{} failed samples", out.failed),
    );
    out.check(
        "ids_conserved",
        conserved,
        format!("{want_count} samples per rep"),
    );
    let all: Vec<RankRep> = per_rank.into_iter().flatten().collect();
    let bad = payload_mismatches(&corpus.spec, &all);
    out.check(
        "payload_matches_simulator",
        bad == 0,
        format!("{bad} mismatches"),
    );
    let evicted = all.iter().all(|r| r.tier.evicted > 0);
    out.check("evictions_forced", evicted, "");

    out.metric("throughput_per_s", Summary::of(&rate));
    out.metric("latency_ms_p50", Summary::of(&p50));
    out.metric("latency_ms_p99", Summary::of(&p99));
    out.metric("setup_s", Summary::of(&setup_secs));
    out
}

/// `PASS_EPOCHS` ingest-free epochs through `store` with prefetch, then
/// one more epoch whose `(id, checksum)` stream is returned untimed.
fn stream_pass(comm: &Comm, store: &mut DataStore) -> (f64, Vec<(u64, u64)>) {
    let gan_cfg = CycleGanConfig::small(IMG);
    let mut pf = Prefetcher::new();
    let mut stream = Vec::new();
    comm.barrier();
    let t0 = Instant::now();
    let mut secs = 0.0;
    for epoch in 0..=PASS_EPOCHS {
        if epoch == PASS_EPOCHS {
            comm.barrier();
            secs = t0.elapsed().as_secs_f64();
        }
        let plan = store.epoch_plan(epoch);
        pf.prefetch(store, &plan, 0, epoch).expect("prefetch");
        for step in 0..plan.steps() {
            let got = pf.fetch_step(store, &plan, step, epoch).expect("fetch");
            pf.prefetch(store, &plan, step + 1, epoch)
                .expect("prefetch");
            let decoded: Vec<Sample> = got
                .iter()
                .map(|(_, n)| node_to_sample(n).expect("node schema"))
                .collect();
            if epoch == PASS_EPOCHS {
                stream.extend(
                    got.iter()
                        .zip(&decoded)
                        .map(|((id, _), s)| (*id, checksum(s))),
                );
            } else {
                let refs: Vec<&Sample> = decoded.iter().collect();
                std::hint::black_box(batch_from_samples(&gan_cfg, &refs));
            }
        }
    }
    (secs, stream)
}

pub fn run_traced(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let corpus = build_corpus(opts, true);
    let spec = corpus.spec.clone();
    let seed = opts.seed;
    let epoch0 = Instant::now();

    struct RankTrace {
        plain: RankRep,
        traced: RankRep,
        tracer: Tracer,
        tiered_pass: (f64, Vec<(u64, u64)>),
        memory_pass: (f64, Vec<(u64, u64)>),
    }
    let per_rank: Vec<RankTrace> = run_world(RANKS, |comm| {
        let rank = comm.rank() as u32;
        let plain = rep(
            &comm,
            &corpus,
            seed,
            EPOCHS,
            &mut Tracer::new(false, epoch0, rank),
        );
        let mut tracer = Tracer::new(true, epoch0, rank);
        let traced = rep(&comm, &corpus, seed, EPOCHS, &mut tracer);

        let ids: Vec<u64> = (0..spec.n_samples).collect();
        let budget = spec.n_samples / RANKS as u64 / 4 * spec.cfg.sample_bytes() as u64;
        let mut tiered =
            DataStore::new_tiered(comm.dup(), spec.clone(), ids.clone(), MB, seed, budget, 1)
                .expect("tiered store opens");
        let tiered_pass = stream_pass(&comm, &mut tiered);
        drop(tiered);
        let mut memory = DataStore::new(
            comm.dup(),
            spec.clone(),
            ids,
            PopulateMode::Preload,
            MB,
            seed,
            None,
        )
        .expect("in-memory store preloads");
        let memory_pass = stream_pass(&comm, &mut memory);
        RankTrace {
            plain,
            traced,
            tracer,
            tiered_pass,
            memory_pass,
        }
    });

    let tracers: Vec<&Tracer> = per_rank.iter().map(|r| &r.tracer).collect();
    write_trace(&mut out, opts, &tracers);

    let (want_count, want_digest) = expected(spec.n_samples, EPOCHS);
    out.attempted = want_count;
    let delivered: u64 = per_rank.iter().map(|r| r.traced.delivered).sum();
    let digest = per_rank
        .iter()
        .fold(0u64, |d, r| d.wrapping_add(r.traced.id_digest));
    out.failed = want_count.saturating_sub(delivered);
    out.check(
        "ids_conserved",
        delivered == want_count && digest == want_digest,
        format!("{delivered} of {want_count}"),
    );
    let reps: Vec<&RankRep> = per_rank
        .iter()
        .flat_map(|r| [&r.plain, &r.traced])
        .collect();
    let errors: u64 = reps.iter().map(|r| r.store_errors).sum();
    out.check("no_store_error", errors == 0, format!("{errors} errors"));
    let bad = payload_mismatches(&spec, per_rank.iter().map(|r| &r.traced));
    out.check(
        "payload_matches_simulator",
        bad == 0,
        format!("{bad} mismatches"),
    );
    let streams_equal = per_rank
        .iter()
        .all(|r| !r.tiered_pass.1.is_empty() && r.tiered_pass.1 == r.memory_pass.1);
    out.check(
        "tiered_stream_matches_in_memory",
        streams_equal,
        "ids + payload checksums",
    );

    let lead = &per_rank[0];
    let tr = &lead.tracer;
    let wall_ms = lead.traced.wall_secs * 1e3;
    let (w0, w1) = lead.traced.window_ns;
    let coverage = tr.attributed_ms(w0, w1) / wall_ms;
    out.check(
        "span_coverage",
        (0.95..=1.05).contains(&coverage),
        format!("{coverage:.4}"),
    );
    out.single("core.span_coverage", coverage);
    out.single(
        "bench.trace_overhead_frac",
        (lead.traced.wall_secs - lead.plain.wall_secs) / lead.plain.wall_secs,
    );

    let steps = lead.traced.step_ms.len() as f64;
    let fetch = stats::sorted(&tr.durations_ms("datastore.fetch"));
    out.single(
        "datastore.fetch_ms_per_step_p50",
        stats::percentile(&fetch, 0.50),
    );
    out.single(
        "datastore.fetch_ms_per_step_p99",
        stats::percentile(&fetch, 0.99),
    );
    out.single(
        "datastore.prefetch_issue_us_per_step",
        tr.total_ms("datastore.prefetch_issue") * 1e3 / steps,
    );
    out.single("datastore.stall_ms_per_step", lead.traced.stall_ms / steps);
    let (hits, misses) = (lead.traced.prefetch_hits, lead.traced.prefetch_misses);
    out.single(
        "datastore.prefetch_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let tier = |f: &dyn Fn(&TierStats) -> u64| {
        per_rank.iter().map(|r| f(&r.traced.tier)).sum::<u64>() as f64
    };
    out.single(
        "datastore.tier_hit_frac",
        tier(&|t| t.hits) / (tier(&|t| t.hits) + tier(&|t| t.misses)).max(1.0),
    );
    out.single(
        "datastore.tier_evictions_per_epoch",
        tier(&|t| t.evicted) / EPOCHS as f64 / RANKS as f64,
    );
    out.single("datastore.bytes_mapped", tier(&|t| t.bytes_mapped));
    out.single(
        "datastore.decode_us_per_sample",
        tr.total_ms("datastore.decode") * 1e3 / lead.traced.delivered.max(1) as f64,
    );
    out.single(
        "gan.pack_us_per_batch",
        tr.total_ms("gan.pack") * 1e3 / steps,
    );
    out.single(
        "datastore.refresh_ingest_ms",
        stats::mean(&tr.durations_ms("datastore.refresh_ingest")),
    );
    out.single(
        "workflow.ingest_append_us_per_sample",
        tr.total_ms("workflow.ingest_append") * 1e3 / ((EPOCHS - 1) * INGEST_PER_EPOCH) as f64,
    );
    out.single(
        "datastore.tier_rel_throughput",
        lead.memory_pass.0 / lead.tiered_pass.0,
    );

    let p = probes::store(&spec);
    out.single("bundle.shard_open_ms", p.shard_open_ms);
    out.single("bundle.scan_mb_per_s", p.scan_mb_per_s);
    out.single("jag.simulate_us_per_sample", p.simulate_us_per_sample);
    out.single(
        "jag.shard_write_mb_per_s",
        corpus.shard_bytes as f64 / 1e6 / corpus.shard_write_secs,
    );
    out
}

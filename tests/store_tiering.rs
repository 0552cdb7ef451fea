//! Golden-seed trajectory: training over the tiered (mmap shard → hot
//! tier) store must be **bit-identical** to training over the in-memory
//! reference store — serially and under 4-rank data parallelism. The
//! in-memory store is the bit-identity reference; any divergence in the
//! shard codec, the hot tier, or the tiered exchange shows up here as a
//! differing loss word. The shuffle and matrix wire bytes, and the typed
//! error a corrupt shard record raises, are pinned here too.

use ltfb::bundle::{CheckpointError, MmapShard};
use ltfb::comm::run_world;
use ltfb::datastore::{node_to_sample, sample_to_node, DataStore, PopulateMode, StoreError};
use ltfb::gan::{batch_from_samples, CycleGan, CycleGanConfig, StepLosses};
use ltfb::jag::{
    cleanup_dataset_dir, sample_by_id, temp_dataset_dir, DatasetSpec, JagConfig, Sample,
};
use ltfb::tensor::{crc32, encode_matrix, Matrix};

const N: u64 = 48;
const PER_FILE: usize = 12;
const MB: usize = 8;
const SEED: u64 = 1234;
const EPOCHS: u64 = 2;

fn make_dataset(tag: &str) -> (CycleGanConfig, DatasetSpec) {
    let cfg = CycleGanConfig::small(4);
    let spec = DatasetSpec::new(temp_dataset_dir(tag), cfg.jag, N, PER_FILE);
    spec.generate_all().unwrap();
    spec.generate_all_shards().unwrap();
    (cfg, spec)
}

/// Exact bit pattern of every loss term of a step — the trajectory word.
fn loss_bits(l: &StepLosses) -> [u32; 5] {
    [
        l.d_loss.to_bits(),
        l.adv.to_bits(),
        l.fidelity.to_bits(),
        l.cycle.to_bits(),
        l.recon.to_bits(),
    ]
}

/// Train `EPOCHS` epochs of the golden-seed run over `store`, returning
/// the full per-step loss trajectory as bit patterns. `sync` is the
/// gradient synchroniser (identity for serial, allreduce for DP).
fn run_trajectory(
    cfg: &CycleGanConfig,
    store: &mut DataStore,
    comm: Option<&ltfb::comm::Comm>,
) -> Vec<[u32; 5]> {
    let mut gan = CycleGan::new(*cfg, SEED);
    let mut traj = Vec::new();
    for epoch in 0..EPOCHS {
        let plan = store.epoch_plan(epoch);
        for step in 0..plan.steps() {
            let got = store.fetch_step(&plan, step, epoch).unwrap();
            let samples: Vec<Sample> = got
                .iter()
                .map(|(_, n)| node_to_sample(n).expect("node schema intact"))
                .collect();
            let refs: Vec<&Sample> = samples.iter().collect();
            let (x, y) = batch_from_samples(cfg, &refs);
            let l = match comm {
                Some(c) => ltfb::core::dp_train_step(&mut gan, &x, &y, c),
                None => gan.train_step(&x, &y),
            };
            traj.push(loss_bits(&l));
        }
    }
    traj
}

#[test]
fn serial_tiered_training_is_bit_identical_to_in_memory() {
    let (cfg, spec) = make_dataset("golden-serial");
    let spec2 = spec.clone();
    run_world(1, move |comm| {
        let ids: Vec<u64> = (0..N).collect();
        let mut mem = DataStore::new(
            comm.dup(),
            spec2.clone(),
            ids.clone(),
            PopulateMode::Preload,
            MB,
            SEED,
            None,
        )
        .unwrap();
        // Budget below the partition: the run must hit the mmap tier.
        let budget = 10 * spec2.cfg.sample_bytes() as u64;
        let mut tier =
            DataStore::new_tiered(comm, spec2.clone(), ids, MB, SEED, budget, 1).unwrap();
        let a = run_trajectory(&cfg, &mut mem, None);
        let b = run_trajectory(&cfg, &mut tier, None);
        assert_eq!(a.len(), b.len(), "step counts diverge");
        for (step, (wa, wb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(wa, wb, "loss bits diverge at step {step}");
        }
        let s = tier.tier_stats().unwrap();
        assert!(s.evicted > 0, "budget was meant to force evictions");
    });
    cleanup_dataset_dir(&spec.dir);
}

#[test]
fn four_rank_dp_tiered_training_is_bit_identical_to_in_memory() {
    let (cfg, spec) = make_dataset("golden-dp4");
    let spec2 = spec.clone();
    let trajectories = run_world(4, move |comm| {
        let ids: Vec<u64> = (0..N).collect();
        let mut mem = DataStore::new(
            comm.dup(),
            spec2.clone(),
            ids.clone(),
            PopulateMode::Preload,
            MB,
            SEED,
            None,
        )
        .unwrap();
        let budget = 6 * spec2.cfg.sample_bytes() as u64;
        let mut tier =
            DataStore::new_tiered(comm.dup(), spec2.clone(), ids, MB, SEED, budget, 1).unwrap();
        let a = run_trajectory(&cfg, &mut mem, Some(&comm));
        let b = run_trajectory(&cfg, &mut tier, Some(&comm));
        assert_eq!(a, b, "DP loss trajectory diverges on rank {}", comm.rank());
        a.len()
    });
    // Losses are shard-local (computed before the allreduce), so ranks
    // report different values — but every rank must have stepped through
    // the same schedule, and each matched its own in-memory reference.
    assert!(trajectories.iter().all(|&n| n == trajectories[0] && n > 0));
    cleanup_dataset_dir(&spec.dir);
}

/// The shuffle codec (`Node::to_bytes`) and the matrix codec are wire
/// formats: their bytes for a fixed input are pinned here as a length
/// and a CRC-32, so a faster codec cannot move a single bit.
#[test]
fn wire_format_golden() {
    let node = sample_to_node(&sample_by_id(&JagConfig::small(4), 0, 7)).to_bytes();
    assert_eq!((node.len(), crc32(&node)), (974, 0x7129_9249));

    let mut v: Vec<f32> = (0..12).map(|i| i as f32 * 0.37 - 2.0).collect();
    v.extend([
        -0.0,
        f32::from_bits(0x7FC0_1234),
        f32::from_bits(0x0000_0001),
        f32::MAX,
    ]);
    let m = encode_matrix(&Matrix::from_vec(4, 4, v));
    assert_eq!((m.len(), crc32(&m)), (88, 0xA9A6_336D));
}

/// One flipped payload bit is a typed checksum error on every epoch that
/// reads the record: a record that failed its check is never admitted to
/// the hot tier or remembered as verified.
#[test]
fn flipped_payload_bit_fails_every_epoch() {
    let (_, spec) = make_dataset("golden-bitflip");
    let path = spec.shard_path(0);
    let mut raw = std::fs::read(&path).unwrap();
    let n = raw.len();
    raw[n - 5] ^= 0x10;
    std::fs::write(&path, raw).unwrap();
    let spec2 = spec.clone();
    run_world(1, move |comm| {
        // A budget that holds the whole corpus: only the bad record misses.
        let budget = 2 * N * spec2.cfg.sample_bytes() as u64;
        let mut tier =
            DataStore::new_tiered(comm, spec2.clone(), (0..N).collect(), MB, SEED, budget, 1)
                .unwrap();
        for epoch in 0..2 {
            assert!(
                matches!(
                    tier.fetch_epoch(epoch),
                    Err(StoreError::Shard(CheckpointError::BadChecksum))
                ),
                "epoch {epoch} must report the corrupt record"
            );
        }
    });
    cleanup_dataset_dir(&spec.dir);
}

/// A shard reader checks each record's CRC once per mapping. A record
/// verified in one mapping is checked again after `refresh()`, so a bit
/// flipped on disk in between is caught on the next read.
#[test]
fn refresh_rechecks_a_record_verified_before_the_flip() {
    let (_, spec) = make_dataset("golden-regen");
    let path = spec.shard_path(0);
    let mut shard = MmapShard::open(&path).unwrap();
    let k = 5;
    assert!(shard.sample(k).is_ok());
    assert!(shard.sample(k).is_ok(), "a verified record reads again");

    // Records are the file's fixed-stride tail: `id u64 | crc u32 | payload`.
    let mut raw = std::fs::read(&path).unwrap();
    let stride = 12 + 4 * shard.schema().record_len();
    let record_k = raw.len() - (shard.len() - k) * stride;
    raw[record_k + 12 + stride / 2] ^= 0x04;
    std::fs::write(&path, raw).unwrap();

    shard.refresh().unwrap();
    assert!(matches!(shard.sample(k), Err(CheckpointError::BadChecksum)));
    assert!(shard.sample(k + 1).is_ok(), "neighbour untouched");
    cleanup_dataset_dir(&spec.dir);
}

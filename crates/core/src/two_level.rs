//! Two-level parallel LTFB — the full architecture of Fig. 4: each
//! trainer is a group of data-parallel ranks (model replicas with
//! gradient allreduce), and trainers are coupled only by tournaments
//! between their leader ranks.
//!
//! World layout for `K` trainers x `R` ranks each: world rank
//! `w = trainer * R + replica`. Trainer communicators come from
//! `world.split(trainer)`, the leader communicator from a second split
//! over the replica index.

use crate::config::LtfbConfig;
use crate::data::{build_trainer_data, xy};
use crate::ltfb::{pretrain_global_autoencoder, LtfbObs};
use crate::overlap::{dp_train_step_overlapped, DpOverlap};
use crate::tournament::{adopt, best_score, pairing};
use ltfb_comm::{run_world, run_world_obs, Comm};
use ltfb_gan::{CycleGan, StepLosses};
use ltfb_nn::{allreduce_gradients, BatchReader, FusedGradients, LossHistory, Workspace};
use ltfb_obs::Registry;
use ltfb_tensor::{mix_seed, Matrix};
use std::time::Instant;

/// One data-parallel training step: every rank of the trainer calls this
/// with its *shard* of the global mini-batch; gradients are averaged
/// across the trainer before each optimizer step, so all replicas move
/// identically.
pub fn dp_train_step(
    gan: &mut CycleGan,
    x_shard: &Matrix,
    y_shard: &Matrix,
    trainer_comm: &Comm,
) -> StepLosses {
    gan.train_step_with_sync(x_shard, y_shard, &mut |net| {
        allreduce_gradients(net, trainer_comm);
    })
}

/// [`dp_train_step`] on the zero-allocation path: activations come from
/// the per-replica `ws`, and the gradient exchange goes through the
/// persistent fusion buffer's chunked, pipelined ring allreduce.
/// Bit-identical to `dp_train_step` (both the workspace compute path and
/// the pipelined schedule reproduce their reference counterparts' f32
/// operations exactly).
pub fn dp_train_step_ws(
    gan: &mut CycleGan,
    x_shard: &Matrix,
    y_shard: &Matrix,
    trainer_comm: &Comm,
    ws: &mut Workspace,
    fused: &mut FusedGradients,
) -> StepLosses {
    gan.train_step_ws_with_sync(x_shard, y_shard, ws, &mut |net| {
        fused.allreduce(net, trainer_comm);
    })
}

/// Synchronise every network of the replica with trainer rank `root`.
pub fn broadcast_replica(gan: &mut CycleGan, trainer_comm: &Comm, root: usize) {
    for net in gan.networks_mut() {
        ltfb_nn::broadcast_weights(net, trainer_comm, root);
    }
}

/// Outcome of a two-level run (leader-rank views).
#[derive(Debug, Clone)]
pub struct TwoLevelOutcome {
    /// Per-trainer validation-loss trajectories (recorded on leaders).
    pub histories: Vec<LossHistory>,
    /// Per-trainer final validation loss.
    pub final_val: Vec<f32>,
    /// Generator adoptions across the population.
    pub adoptions: u64,
    /// True iff every trainer's replicas held identical generators at
    /// the end (distributed-consistency check).
    pub replicas_consistent: bool,
}

impl TwoLevelOutcome {
    /// Best (lowest) final validation loss and its trainer; finite
    /// losses win over non-finite ones.
    pub fn best(&self) -> (usize, f32) {
        best_score(&self.final_val)
    }
}

/// Run LTFB with `ranks_per_trainer` data-parallel replicas per trainer.
///
/// With `ranks_per_trainer == 1` this is the plain distributed driver.
/// The global mini-batch `cfg.mb` must be divisible by the replica count
/// (equal shards keep shard-mean gradient averaging exactly equal to the
/// full-batch gradient).
pub fn run_ltfb_two_level(cfg: &LtfbConfig, ranks_per_trainer: usize) -> TwoLevelOutcome {
    two_level_inner(cfg, ranks_per_trainer, None)
}

/// [`run_ltfb_two_level`] with live metrics: per-rank `comm.rN.…`
/// traffic/overlap counters, the shared `ltfb.…` family, step timings
/// with communication wait split out (`train.comm_wait_ms`), and the
/// overlap-hiding fraction (`train.overlap_frac`).
pub fn run_ltfb_two_level_obs(
    cfg: &LtfbConfig,
    ranks_per_trainer: usize,
    registry: &Registry,
) -> TwoLevelOutcome {
    two_level_inner(cfg, ranks_per_trainer, Some(registry))
}

fn two_level_inner(
    cfg: &LtfbConfig,
    ranks_per_trainer: usize,
    registry: Option<&Registry>,
) -> TwoLevelOutcome {
    assert!(ranks_per_trainer >= 1);
    assert_eq!(
        cfg.mb % ranks_per_trainer,
        0,
        "mini-batch {} must divide evenly over {} replicas",
        cfg.mb,
        ranks_per_trainer
    );
    let cfg = *cfg;
    let world_size = cfg.n_trainers * ranks_per_trainer;
    let obs = registry.map(LtfbObs::new);

    let body = move |world: Comm| {
        let obs = obs.as_ref();
        let trainer_id = world.rank() / ranks_per_trainer;
        let replica = world.rank() % ranks_per_trainer;
        let trainer_comm = world.split(trainer_id as u64, 0);
        debug_assert_eq!(trainer_comm.rank(), replica);
        let is_leader = replica == 0;
        // Leaders get color 0 ordered by trainer id; others color 1.
        let leaders = world.split(u64::from(!is_leader), trainer_id as i64);

        // Shared a-priori autoencoder: world rank 0 trains, all receive.
        let ae = {
            let payload = (world.rank() == 0).then(|| pretrain_global_autoencoder(&cfg));
            if world_size > 1 {
                world.broadcast(0, payload)
            } else {
                payload.expect("single-rank world")
            }
        };

        // Every replica constructs the trainer's model with the trainer
        // seed, then syncs from the leader (replicas must be identical).
        let mut gan = CycleGan::new(cfg.gan, mix_seed(&[cfg.seed, 1000 + trainer_id as u64]));
        gan.set_learning_rates(cfg.trainer_lr(trainer_id));
        gan.load_autoencoder(ae)
            .expect("autoencoder payload corrupt");
        broadcast_replica(&mut gan, &trainer_comm, 0);

        // All replicas iterate the same global batch order (same seed) —
        // each takes its contiguous shard of every batch.
        let data = build_trainer_data(&cfg, trainer_id);
        let mut reader = BatchReader::new(
            data.train.clone(),
            cfg.mb,
            mix_seed(&[cfg.seed, trainer_id as u64]),
        );
        let shard = cfg.mb / ranks_per_trainer;

        let mut history = LossHistory::new();
        let mut adoptions = 0u64;
        let mut ws = Workspace::new();
        let mut ov = DpOverlap::new();
        let validate = |gan: &mut CycleGan| -> f32 {
            let (vx, vy) = xy(&data.val);
            gan.evaluate(vx, vy).combined()
        };
        if is_leader {
            let v = validate(&mut gan);
            history.record(0, v);
        }

        for step in 1..=cfg.steps {
            let (x, y) = reader.next_batch();
            let lo = (replica * shard).min(x.rows());
            let hi = ((replica + 1) * shard).min(x.rows());
            let xs = x.slice_rows(lo, hi);
            let ys = y.slice_rows(lo, hi);
            let started = obs.map(|_| Instant::now());
            dp_train_step_overlapped(&mut gan, &xs, &ys, &trainer_comm, &mut ws, &mut ov);
            if let (Some(o), Some(s)) = (obs, started) {
                o.record_step(s, ov.take_comm_wait());
                o.record_overlap_fraction(ov.overlap_fraction());
            }

            if cfg.n_trainers >= 2 && cfg.exchange_interval > 0 && step % cfg.exchange_interval == 0
            {
                let round = step / cfg.exchange_interval;
                let partners = pairing(cfg.n_trainers, round, cfg.seed);
                if let Some(p) = partners[trainer_id] {
                    // Leaders exchange and decide; the verdict + winning
                    // generator are then broadcast trainer-internally.
                    let decision: u8 = if is_leader {
                        let mine = gan.generator_to_bytes();
                        let tag = 0x2_000 + round;

                        let xstart = obs.map(|_| Instant::now());
                        let foreign = leaders.sendrecv(p, tag, mine.clone(), p, tag);
                        if let (Some(o), Some(t0)) = (obs, xstart) {
                            o.record_comm_wait(t0.elapsed());
                        }
                        // Score own, then foreign, on the local tournament set.
                        let (tx, ty) = xy(&data.tournament);
                        let own_score = gan.evaluate(tx, ty).combined();
                        gan.swap_generator_weights(foreign.clone())
                            .expect("foreign generator corrupt");
                        let foreign_score = gan.evaluate(tx, ty).combined();
                        if adopt(own_score, foreign_score) {
                            gan.load_generator(foreign).expect("validated");
                            adoptions += 1;
                            1
                        } else {
                            gan.swap_generator_weights(mine).expect("own snapshot");
                            0
                        }
                    } else {
                        0
                    };
                    // Propagate the verdict. On adoption every replica
                    // loads the new generator (which also resets its
                    // optimizer state, matching the leader); on a keep,
                    // weights are already identical everywhere and the
                    // optimizer state must NOT be reset — resetting only
                    // the non-leaders would silently desynchronise the
                    // replicas after the next step.
                    if trainer_comm.size() > 1 {
                        let verdict = trainer_comm
                            .broadcast(0, is_leader.then(|| bytes::Bytes::from(vec![decision])));
                        if verdict[0] == 1 {
                            let payload = is_leader.then(|| gan.generator_to_bytes());
                            let g = trainer_comm.broadcast(0, payload);
                            if !is_leader {
                                gan.load_generator(g).expect("replica generator sync");
                            }
                        }
                    }
                }
            }
            if is_leader && cfg.eval_interval > 0 && step % cfg.eval_interval == 0 {
                let v = validate(&mut gan);
                history.record(step, v);
            }
        }

        // Consistency: all replicas of a trainer must hold the same
        // generator (allreduce of fingerprint equality within trainer).
        let consistent = {
            let fp = gan.generator_fingerprint();
            let all = trainer_comm.allgather(ltfb_comm::bytes_of_u64(fp));
            all.iter().all(|b| ltfb_comm::u64_of_bytes(b) == fp)
        };
        let final_val = if is_leader {
            validate(&mut gan)
        } else {
            f32::NAN
        };
        (
            trainer_id, is_leader, history, final_val, adoptions, consistent,
        )
    };
    let per_rank = match registry {
        Some(reg) => run_world_obs(world_size, reg, body),
        None => run_world(world_size, body),
    };

    let mut histories = vec![LossHistory::new(); cfg.n_trainers];
    let mut final_val = vec![f32::NAN; cfg.n_trainers];
    let mut adoptions = 0;
    let mut replicas_consistent = true;
    for (tid, is_leader, h, fv, ad, cons) in per_rank {
        replicas_consistent &= cons;
        if is_leader {
            histories[tid] = h;
            final_val[tid] = fv;
            adoptions += ad;
        }
    }
    TwoLevelOutcome {
        histories,
        final_val,
        adoptions,
        replicas_consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltfb::run_ltfb_serial;

    fn cfg(k: usize) -> LtfbConfig {
        let mut c = LtfbConfig::small(k);
        c.train_samples = 256;
        c.val_samples = 64;
        c.tournament_samples = 32;
        c.mb = 32;
        c.ae_steps = 30;
        c.steps = 30;
        c.exchange_interval = 10;
        c.eval_interval = 15;
        c
    }

    #[test]
    fn replicas_stay_in_sync() {
        let out = run_ltfb_two_level(&cfg(2), 2);
        assert!(out.replicas_consistent, "replicas diverged");
        assert_eq!(out.histories.len(), 2);
        assert!(out.final_val.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn one_replica_matches_distributed_driver() {
        // R = 1 is definitionally the single-level distributed driver;
        // verify against the serial reference (bit-identical).
        let c = cfg(2);
        let two = run_ltfb_two_level(&c, 1);
        let serial = run_ltfb_serial(&c);
        assert_eq!(two.final_val, serial.final_val);
        assert_eq!(two.adoptions, serial.adoptions);
    }

    #[test]
    fn data_parallel_replicas_approximate_single_replica() {
        // Equal shards + gradient averaging = full-batch gradients up to
        // f32 summation order; trajectories must agree closely.
        let c = cfg(2);
        let r1 = run_ltfb_two_level(&c, 1);
        let r2 = run_ltfb_two_level(&c, 2);
        assert!(r2.replicas_consistent);
        for (a, b) in r1.final_val.iter().zip(&r2.final_val) {
            assert!(
                (a - b).abs() < 0.05 * (1.0 + a.abs()),
                "DP trajectory diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn keep_decisions_do_not_desynchronise_optimizer_state() {
        // Regression test: when the leader KEEPS its generator after a
        // tournament, replicas must not reset their optimizer state (the
        // original implementation reloaded the generator on non-leaders,
        // resetting only their Adam moments — replicas then drifted on
        // the very next step). This configuration reproduced the bug.
        let mut c = cfg(2);
        c.exchange_interval = 25;
        c.steps = 30;
        c.eval_interval = 15;
        let out = run_ltfb_two_level(&c, 2);
        assert!(
            out.replicas_consistent,
            "replicas drifted after a keep decision"
        );
    }

    /// 4-rank data-parallel golden: the workspace + fused-pipelined step
    /// must walk the exact weight trajectory of the reference step.
    #[test]
    fn dp_ws_step_bit_identical_to_reference() {
        use crate::data::{build_trainer_data, xy};
        use ltfb_comm::run_world;
        let c = cfg(1);
        run_world(4, |comm| {
            let mut reference = CycleGan::new(c.gan, mix_seed(&[c.seed, 7]));
            let mut pooled = CycleGan::new(c.gan, mix_seed(&[c.seed, 7]));
            let data = build_trainer_data(&c, 0);
            let (x, y) = xy(&data.train);
            let shard = 8;
            let lo = comm.rank() * shard;
            let xs = x.slice_rows(lo, lo + shard);
            let ys = y.slice_rows(lo, lo + shard);
            let mut ws = Workspace::new();
            let mut fused = FusedGradients::new();
            for step in 0..4 {
                let lr = dp_train_step(&mut reference, &xs, &ys, &comm);
                let lw = dp_train_step_ws(&mut pooled, &xs, &ys, &comm, &mut ws, &mut fused);
                assert_eq!(
                    lr.d_loss.to_bits(),
                    lw.d_loss.to_bits(),
                    "step {step}: DP d_loss drifted"
                );
                for (a, b) in reference.networks().iter().zip(pooled.networks().iter()) {
                    assert_eq!(
                        a.weights_fingerprint(),
                        b.weights_fingerprint(),
                        "step {step}: DP workspace path diverged"
                    );
                }
            }
        });
    }

    /// 4-rank data-parallel golden: the backward-overlapped step must
    /// walk the exact weight trajectory of the fused blocking step (and
    /// so, transitively, of the allocating reference) — the nonblocking
    /// engine replays the identical chunked schedule, only earlier.
    #[test]
    fn dp_overlapped_step_bit_identical_to_ws() {
        use crate::data::{build_trainer_data, xy};
        use ltfb_comm::run_world;
        let c = cfg(1);
        run_world(4, |comm| {
            let mut blocking = CycleGan::new(c.gan, mix_seed(&[c.seed, 7]));
            let mut overlapped = CycleGan::new(c.gan, mix_seed(&[c.seed, 7]));
            let data = build_trainer_data(&c, 0);
            let (x, y) = xy(&data.train);
            let shard = 8;
            let lo = comm.rank() * shard;
            let xs = x.slice_rows(lo, lo + shard);
            let ys = y.slice_rows(lo, lo + shard);
            let mut ws_b = Workspace::new();
            let mut ws_o = Workspace::new();
            let mut fused = FusedGradients::new();
            let mut ov = DpOverlap::new();
            for step in 0..4 {
                let lb = dp_train_step_ws(&mut blocking, &xs, &ys, &comm, &mut ws_b, &mut fused);
                let lo =
                    dp_train_step_overlapped(&mut overlapped, &xs, &ys, &comm, &mut ws_o, &mut ov);
                assert_eq!(
                    lb.d_loss.to_bits(),
                    lo.d_loss.to_bits(),
                    "step {step}: DP d_loss drifted"
                );
                assert_eq!(
                    lb.generator_total(&c.gan).to_bits(),
                    lo.generator_total(&c.gan).to_bits(),
                    "step {step}: DP generator loss drifted"
                );
                for (a, b) in blocking.networks().iter().zip(overlapped.networks().iter()) {
                    assert_eq!(
                        a.weights_fingerprint(),
                        b.weights_fingerprint(),
                        "step {step}: DP overlapped path diverged"
                    );
                }
            }
            // Every bucket's allreduce actually ran through the engine.
            assert!(ov.overlap_fraction() >= 0.0);
        });
    }

    /// The overlapped two-level driver must reproduce the serial
    /// reference exactly through R = 1 (engine degenerates to the
    /// blocking schedule at the same sync point) and record comm-wait
    /// metrics when observed.
    #[test]
    fn two_level_obs_matches_plain_and_records_comm_wait() {
        let c = cfg(2);
        let plain = run_ltfb_two_level(&c, 2);
        let registry = Registry::new();
        let observed = run_ltfb_two_level_obs(&c, 2, &registry);
        assert_eq!(plain.final_val, observed.final_val);
        assert_eq!(plain.adoptions, observed.adoptions);
        assert!(observed.replicas_consistent);
        let snap = registry.snapshot();
        let steps = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "ltfb.step_us")
            .map(|(_, h)| h)
            .expect("step histogram registered");
        assert_eq!(steps.count, c.steps * (c.n_trainers as u64) * 2);
        let waits = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "train.comm_wait_ms")
            .map(|(_, h)| h)
            .expect("comm-wait histogram registered");
        // One comm-wait sample per step per rank, plus leader exchanges.
        assert!(waits.count >= c.steps * (c.n_trainers as u64) * 2);
        assert!(snap.gauges.iter().any(|(n, _)| n == "train.overlap_frac"));
        assert!(
            snap.gauges
                .iter()
                .any(|(n, _)| n.starts_with("comm.r") && n.ends_with(".bucket_inflight")),
            "per-rank bucket_inflight gauge missing"
        );
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_shards_rejected() {
        let mut c = cfg(2);
        c.mb = 30;
        let _ = run_ltfb_two_level(&c, 4);
    }
}

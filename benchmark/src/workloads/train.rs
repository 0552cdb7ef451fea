//! The three training workloads. All run the product driver
//! `run_ltfb_two_level`; they differ only in the world shape:
//!
//! * `train_serial` — K=1 trainer × R=1 rank: `tensor`/`nn`/`gan` do all
//!   the work, `comm` none;
//! * `train_dp`     — K=1 × R=2: gradient allreduce with backward
//!   overlap on every step, one rank per core;
//! * `train_ltfb`   — K=2 × R=1: a tournament every 10 steps, no
//!   allreduce.
//!
//! A rep is one driver call with a fixed step count. The driver has a
//! fixed cost per call (data generation, autoencoder pre-training, two
//! validations) which `steps = 0` calls measure during set-up and which
//! is subtracted, so the reported rate is the steady training rate.
//!
//! The traced run replays the driver's loop from public items only (the
//! *mirror loop*) with a span around each call, and must reproduce the
//! driver's `final_val` bit for bit — the proof it does the same work.

use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::{another_rep, timed_setup, write_trace, Opts, Outcome, Workload};
use bytes::Bytes;
use ltfb_alloccount::counts;
use ltfb_comm::{bytes_of_u64, run_world, run_world_obs, u64_of_bytes, Comm};
use ltfb_core::data::xy;
use ltfb_core::{
    broadcast_replica, build_trainer_data, dp_train_step_overlapped, pairing,
    pretrain_global_autoencoder, run_ltfb_two_level, run_ltfb_two_level_obs, DpOverlap, LtfbConfig,
    TwoLevelOutcome,
};
use ltfb_gan::{CycleGan, CycleGanConfig};
use ltfb_nn::{BatchReader, Workspace};
use ltfb_obs::Registry;
use ltfb_tensor::mix_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Harness root span of one mirror-loop iteration (not a layer: it
/// attributes nothing, so its self time counts against coverage).
const ITERATION: &str = "bench.iteration";

struct Shape {
    trainers: usize,
    ranks: usize,
    /// Steps per rep, sized for about one second on the reference host.
    steps: u64,
    exchange_interval: u64,
    tournament_samples: u64,
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::TrainSerial => Shape {
            trainers: 1,
            ranks: 1,
            steps: 400,
            exchange_interval: 0,
            tournament_samples: 64,
        },
        Workload::TrainDp => Shape {
            trainers: 1,
            ranks: 2,
            steps: 560,
            exchange_interval: 0,
            tournament_samples: 64,
        },
        Workload::TrainLtfb => Shape {
            trainers: 2,
            ranks: 1,
            steps: 200,
            exchange_interval: 10,
            tournament_samples: 256,
        },
        other => unreachable!("{} is not a training workload", other.name()),
    }
}

fn config(opts: &Opts, s: &Shape, steps: u64) -> LtfbConfig {
    let mut c = LtfbConfig::small(s.trainers);
    c.gan = CycleGanConfig::small(8);
    c.mb = 32;
    c.train_samples = 2048;
    c.val_samples = 256;
    c.tournament_samples = s.tournament_samples;
    c.ae_steps = 50;
    c.steps = steps;
    c.exchange_interval = s.exchange_interval;
    c.eval_interval = 100;
    c.seed = opts.seed;
    c
}

/// Lowest final validation loss of the population.
fn best_val(out: &TwoLevelOutcome) -> f32 {
    out.best().1
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Wall seconds of `steps = 0` driver calls: the per-call fixed cost.
fn fixed_cost_secs(opts: &Opts, s: &Shape, calls: usize) -> Vec<f64> {
    let zero = config(opts, s, 0);
    (0..calls)
        .map(|_| timed(|| run_ltfb_two_level(&zero, s.ranks)).1)
        .collect()
}

pub fn run_e2e(opts: &Opts) -> Outcome {
    let s = shape(opts.workload);
    let steps = opts.work(s.steps);
    let cfg = config(opts, &s, steps);
    let mut out = Outcome::default();

    // Each set-up pays one `steps = 0` call and one warm-up rep; the
    // fixed cost subtracted below is the median over the set-ups.
    let mut fixed = Vec::new();
    let ((), setup_secs) = timed_setup(|| {
        fixed.extend(fixed_cost_secs(opts, &s, 1));
        // Warm-up rep (discarded): a quarter of a timed rep.
        let warm = config(opts, &s, (steps / 4).max(1));
        let _ = run_ltfb_two_level(&warm, s.ranks);
    });
    let fixed = stats::median(&fixed);

    let mut rate = Vec::new();
    let mut step_ms = Vec::new();
    let mut val_bits = Vec::new();
    let mut consistent = true;
    let mut last_wall = 0.0;
    let t_run = Instant::now();
    while another_rep(opts, rate.len(), t_run, last_wall) {
        let (res, wall) =
            timed(|| catch_unwind(AssertUnwindSafe(|| run_ltfb_two_level(&cfg, s.ranks))));
        last_wall = wall;
        out.attempted += steps * s.trainers as u64;
        match res {
            Ok(o) if best_val(&o).is_finite() && o.replicas_consistent => {
                let steady = (wall - fixed).max(f64::MIN_POSITIVE);
                rate.push((steps * cfg.mb as u64 * s.trainers as u64) as f64 / steady);
                step_ms.push(steady * 1e3 / steps as f64);
                val_bits.push(best_val(&o).to_bits());
            }
            Ok(o) => {
                consistent &= o.replicas_consistent;
                out.failed += steps * s.trainers as u64;
            }
            Err(_) => out.failed += steps * s.trainers as u64,
        }
    }

    out.check(
        "no_failed_rep",
        out.failed == 0,
        format!("{} failed steps", out.failed),
    );
    out.check("replicas_consistent", consistent, "");
    out.check(
        "reps_bit_repeatable",
        val_bits.windows(2).all(|w| w[0] == w[1]),
        format!("final_val bits {val_bits:x?}"),
    );
    if rate.is_empty() {
        return out;
    }
    out.metric("throughput_per_s", Summary::of(&rate));
    out.metric("latency_ms_p50", Summary::of(&step_ms));
    // The driver has no per-step clock an outsider can read, so the op
    // timed here is a whole rep expressed per step; with fewer than 100
    // reps the nearest-rank p99 is the slowest rep.
    out.metric(
        "latency_ms_p99",
        Summary {
            value: stats::percentile(&stats::sorted(&step_ms), 0.99),
            ..Summary::of(&step_ms)
        },
    );
    out.metric("setup_s", Summary::of(&setup_secs));
    out
}

/// What one rank of the mirror loop reports.
struct RankReport {
    is_leader: bool,
    final_val: f32,
    adoptions: u64,
    matches: u64,
    consistent: bool,
    tracer: Tracer,
    loop_secs: f64,
    /// The step loop's extent on the tracer's clock.
    loop_window_ns: (u64, u64),
    comm_wait_secs: f64,
    overlap_sum: f64,
    sent_bytes: u64,
    sent_messages: u64,
    collectives: u64,
    /// When this rank entered each step (ns since the shared epoch).
    step_enter_ns: Vec<u64>,
    /// Process-wide allocations seen across this rank's step calls.
    step_allocs: u64,
    loop_allocs: u64,
    generator_bytes: usize,
}

/// `two_level_inner` rebuilt from public items, with a span around each
/// call into a layer. With `traced` false the spans cost one branch and
/// the comm counters are off, which makes the same loop the untraced
/// reference for `bench.trace_overhead_frac`.
fn mirror(cfg: &LtfbConfig, ranks: usize, traced: bool, epoch: Instant) -> Vec<RankReport> {
    let cfg = *cfg;
    let world_size = cfg.n_trainers * ranks;
    let registry = Registry::new();
    let reg = registry.clone();

    let body = move |world: Comm| {
        let mut tr = Tracer::new(traced, epoch, world.rank() as u32);
        let trainer = world.rank() / ranks;
        let replica = world.rank() % ranks;
        let trainer_comm = world.split(trainer as u64, 0);
        let is_leader = replica == 0;
        let leaders = world.split(u64::from(!is_leader), trainer as i64);

        let ae = {
            let payload = (world.rank() == 0).then(|| pretrain_global_autoencoder(&cfg));
            if world_size > 1 {
                world.broadcast(0, payload)
            } else {
                payload.expect("single-rank world")
            }
        };
        let mut gan = CycleGan::new(cfg.gan, mix_seed(&[cfg.seed, 1000 + trainer as u64]));
        gan.set_learning_rates(cfg.trainer_lr(trainer));
        gan.load_autoencoder(ae).expect("autoencoder payload");
        broadcast_replica(&mut gan, &trainer_comm, 0);

        let data = build_trainer_data(&cfg, trainer);
        let mut reader = BatchReader::new(
            data.train.clone(),
            cfg.mb,
            mix_seed(&[cfg.seed, trainer as u64]),
        );
        let shard = cfg.mb / ranks;
        let mut ws = Workspace::new();
        let mut ov = DpOverlap::new();
        let mut adoptions = 0u64;
        let mut matches = 0u64;
        let generator_bytes = gan.generator_to_bytes().len();
        let validate = |gan: &mut CycleGan, tr: &mut Tracer, step: u64| -> f32 {
            let s = tr.open("gan.validate", step);
            let (vx, vy) = xy(&data.val);
            let v = gan.evaluate(vx, vy).combined();
            tr.close(s);
            v
        };
        if is_leader {
            validate(&mut gan, &mut tr, 0);
        }

        // A rank's own sends are issued by the rank itself, so its
        // counters read before and after the loop are exact.
        let counter = |what: &str| {
            if traced {
                reg.counter(&format!("comm.r{}.{what}", world.world_rank()))
                    .get()
            } else {
                0
            }
        };
        let sent0 = (
            counter("sent_bytes"),
            counter("sent_messages"),
            counter("collectives"),
        );
        let mut step_enter_ns = Vec::with_capacity(if traced { cfg.steps as usize } else { 0 });
        let mut comm_wait_secs = 0.0;
        let mut overlap_sum = 0.0;
        let mut step_allocs = 0u64;
        let allocs0 = counts();
        let loop_start_ns = tr.now_ns();
        let t_loop = Instant::now();

        for step in 1..=cfg.steps {
            if traced {
                step_enter_ns.push(tr.now_ns());
            }
            let it = tr.open(ITERATION, step);

            let s = tr.open("nn.fetch", step);
            let (x, y) = reader.next_batch();
            let lo = (replica * shard).min(x.rows());
            let hi = ((replica + 1) * shard).min(x.rows());
            let xs = x.slice_rows(lo, hi);
            let ys = y.slice_rows(lo, hi);
            tr.close(s);

            let s = tr.open("gan.step", step);
            let before = counts();
            dp_train_step_overlapped(&mut gan, &xs, &ys, &trainer_comm, &mut ws, &mut ov);
            step_allocs += counts().since(before).allocs;
            let wait = ov.take_comm_wait();
            comm_wait_secs += wait.as_secs_f64();
            overlap_sum += ov.overlap_fraction();
            tr.child_at_end("comm.wait", step, wait.as_nanos() as u64);
            tr.close(s);

            if cfg.n_trainers >= 2 && cfg.exchange_interval > 0 && step % cfg.exchange_interval == 0
            {
                let round = step / cfg.exchange_interval;
                let partners = pairing(cfg.n_trainers, round, cfg.seed);
                if let Some(p) = partners[trainer] {
                    let t = tr.open("core.tournament", step);
                    let decision: u8 = if is_leader {
                        matches += 1;
                        let e = tr.open("core.exchange", step);
                        let s = tr.open("gan.serialize", step);
                        let mine = gan.generator_to_bytes();
                        tr.close(s);
                        let tag = 0x2_000 + round;
                        let s = tr.open("comm.sendrecv", step);
                        let foreign = leaders.sendrecv(p, tag, mine.clone(), p, tag);
                        tr.close(s);
                        tr.close(e);

                        let s = tr.open("core.score", step);
                        let (tx, ty) = xy(&data.tournament);
                        let own_score = gan.evaluate(tx, ty).combined();
                        gan.swap_generator_weights(foreign.clone())
                            .expect("foreign generator");
                        let foreign_score = gan.evaluate(tx, ty).combined();
                        tr.close(s);

                        let s = tr.open("core.adopt", step);
                        let d = if foreign_score < own_score {
                            gan.load_generator(foreign).expect("validated");
                            adoptions += 1;
                            1
                        } else {
                            gan.swap_generator_weights(mine).expect("own snapshot");
                            0
                        };
                        tr.close(s);
                        d
                    } else {
                        0
                    };
                    if trainer_comm.size() > 1 {
                        let s = tr.open("comm.broadcast", step);
                        let verdict = trainer_comm
                            .broadcast(0, is_leader.then(|| Bytes::from(vec![decision])));
                        if verdict[0] == 1 {
                            let payload = is_leader.then(|| gan.generator_to_bytes());
                            let g = trainer_comm.broadcast(0, payload);
                            if !is_leader {
                                gan.load_generator(g).expect("replica generator sync");
                            }
                        }
                        tr.close(s);
                    }
                    tr.close(t);
                }
            }
            if is_leader && cfg.eval_interval > 0 && step % cfg.eval_interval == 0 {
                validate(&mut gan, &mut tr, step);
            }
            tr.close(it);
        }

        let loop_secs = t_loop.elapsed().as_secs_f64();
        let loop_window_ns = (loop_start_ns, tr.now_ns());
        let loop_allocs = counts().since(allocs0).allocs;
        let sent1 = (
            counter("sent_bytes"),
            counter("sent_messages"),
            counter("collectives"),
        );

        let consistent = {
            let fp = gan.generator_fingerprint();
            let all = trainer_comm.allgather(bytes_of_u64(fp));
            all.iter().all(|b| u64_of_bytes(b) == fp)
        };
        let final_val = if is_leader {
            validate(&mut gan, &mut tr, cfg.steps + 1)
        } else {
            f32::NAN
        };
        RankReport {
            is_leader,
            final_val,
            adoptions,
            matches,
            consistent,
            tracer: tr,
            loop_secs,
            loop_window_ns,
            comm_wait_secs,
            overlap_sum,
            sent_bytes: sent1.0 - sent0.0,
            sent_messages: sent1.1 - sent0.1,
            collectives: sent1.2 - sent0.2,
            step_enter_ns,
            step_allocs,
            loop_allocs,
            generator_bytes,
        }
    };
    if traced {
        run_world_obs(world_size, &registry, body)
    } else {
        run_world(world_size, body)
    }
}

/// Best final validation loss over the mirror's leaders — the same
/// reduction `TwoLevelOutcome::best` applies.
fn mirror_best_val(reports: &[RankReport]) -> f32 {
    reports
        .iter()
        .filter(|r| r.is_leader)
        .map(|r| r.final_val)
        .min_by(f32::total_cmp)
        .expect("at least one leader")
}

fn slowest_loop(reports: &[RankReport]) -> f64 {
    reports.iter().map(|r| r.loop_secs).fold(0.0, f64::max)
}

pub fn run_traced(opts: &Opts) -> Outcome {
    let s = shape(opts.workload);
    let steps = opts.work(s.steps);
    let cfg = config(opts, &s, steps);
    let world = s.trainers * s.ranks;
    let mut out = Outcome {
        attempted: steps * s.trainers as u64,
        ..Outcome::default()
    };

    // Rounds of (product driver, untraced mirror, traced mirror, and on
    // `train_dp` the observed driver) repeat while another fits into
    // `--seconds`; the wall-time ratios below are taken between medians
    // over rounds, the spans from the last round.
    let fixed = stats::median(&fixed_cost_secs(opts, &s, 3));
    let epoch = Instant::now();
    let (mut driver_walls, mut plain_walls, mut traced_walls, mut observed_walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut bits_agree = true;
    let mut round_secs = 0.0;
    let t_run = Instant::now();
    while last.is_none() || t_run.elapsed().as_secs_f64() + round_secs < opts.seconds {
        let t_round = Instant::now();
        let (driver, driver_wall) = timed(|| run_ltfb_two_level(&cfg, s.ranks));
        let plain = mirror(&cfg, s.ranks, false, epoch);
        let traced = mirror(&cfg, s.ranks, true, epoch);
        driver_walls.push(driver_wall);
        plain_walls.push(slowest_loop(&plain));
        traced_walls.push(slowest_loop(&traced));
        bits_agree &= mirror_best_val(&plain).to_bits() == best_val(&driver).to_bits();
        if opts.workload == Workload::TrainDp {
            let (observed, wall) =
                timed(|| run_ltfb_two_level_obs(&cfg, s.ranks, &Registry::new()));
            bits_agree &= best_val(&observed).to_bits() == best_val(&driver).to_bits();
            observed_walls.push(wall);
        }
        last = Some((driver, traced));
        round_secs = t_round.elapsed().as_secs_f64();
    }
    let (driver, traced) = last.expect("at least one round ran");
    let driver_wall = stats::median(&driver_walls);
    let driver_steady = (driver_wall - fixed).max(f64::MIN_POSITIVE);
    let plain_wall = stats::median(&plain_walls);
    let traced_wall = stats::median(&traced_walls);

    let tracers: Vec<&Tracer> = traced.iter().map(|r| &r.tracer).collect();
    write_trace(&mut out, opts, &tracers);

    let driver_bits = best_val(&driver).to_bits();
    let mirror_bits = mirror_best_val(&traced).to_bits();
    out.check(
        "mirror_matches_driver",
        mirror_bits == driver_bits,
        format!("final_val {mirror_bits:#x} vs driver {driver_bits:#x}"),
    );
    out.check("untraced_and_observed_runs_match_driver", bits_agree, "");
    let adoptions: u64 = traced.iter().map(|r| r.adoptions).sum();
    out.check(
        "mirror_adoptions_match_driver",
        adoptions == driver.adoptions,
        format!("{adoptions} vs {}", driver.adoptions),
    );
    out.check(
        "replicas_consistent",
        driver.replicas_consistent && traced.iter().all(|r| r.consistent),
        "",
    );

    // Coverage is judged on the slowest rank: its loop is the loop wall.
    let slow = traced
        .iter()
        .max_by(|a, b| a.loop_secs.total_cmp(&b.loop_secs))
        .expect("world is not empty");
    let (w0, w1) = slow.loop_window_ns;
    let coverage = slow.tracer.attributed_ms(w0, w1) / (slow.loop_secs * 1e3);
    out.check(
        "span_coverage",
        (0.95..=1.05).contains(&coverage),
        format!("{coverage:.4}"),
    );

    let lead = &traced[0];
    let n_steps = steps as f64;
    let ranks_f = world as f64;
    let step_ms = stats::sorted(&lead.tracer.durations_ms("gan.step"));
    out.single("gan.step_ms_p50", stats::percentile(&step_ms, 0.50));
    out.single("gan.step_ms_p99", stats::percentile(&step_ms, 0.99));
    // Counters are process-wide: with several ranks inside their steps at
    // once the per-rank share is an even split, exact only for one rank.
    out.single(
        "gan.allocs_per_step",
        lead.step_allocs as f64 / n_steps / ranks_f,
    );
    out.single(
        "core.allocs_per_step",
        lead.loop_allocs as f64 / n_steps / ranks_f,
    );
    out.single(
        "nn.fetch_us_per_step",
        lead.tracer.total_ms("nn.fetch") * 1e3 / n_steps,
    );
    out.single(
        "gan.validate_ms",
        stats::mean(&lead.tracer.durations_ms("gan.validate")),
    );
    out.single("gan.final_val_loss", f64::from(best_val(&driver)));

    let mean_over_ranks =
        |f: &dyn Fn(&RankReport) -> f64| traced.iter().map(f).sum::<f64>() / ranks_f;
    out.single(
        "comm.wait_ms_per_step",
        mean_over_ranks(&|r| r.comm_wait_secs) * 1e3 / n_steps,
    );
    out.single(
        "comm.overlap_frac",
        if s.ranks > 1 {
            mean_over_ranks(&|r| r.overlap_sum) / n_steps
        } else {
            0.0
        },
    );
    let total = |f: &dyn Fn(&RankReport) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    out.single("comm.bytes_per_step", total(&|r| r.sent_bytes) / n_steps);
    out.single("comm.msgs_per_step", total(&|r| r.sent_messages) / n_steps);
    out.single(
        "comm.collectives_per_step",
        total(&|r| r.collectives) / n_steps / ranks_f,
    );
    let skew_ms: Vec<f64> = (0..steps as usize)
        .map(|i| {
            let at = traced.iter().map(|r| r.step_enter_ns[i]);
            (at.clone().max().unwrap_or(0) - at.min().unwrap_or(0)) as f64 / 1e6
        })
        .collect();
    out.single("comm.rank_skew_ms_per_step", stats::mean(&skew_ms));

    let leaders: Vec<&RankReport> = traced.iter().filter(|r| r.is_leader).collect();
    let rounds: u64 = leaders.iter().map(|r| r.matches).sum();
    if rounds > 0 {
        let per_round = |name: &str| {
            leaders.iter().map(|r| r.tracer.total_ms(name)).sum::<f64>() / rounds as f64
        };
        out.single("core.exchange_ms_per_round", per_round("core.exchange"));
        out.single("core.score_ms_per_round", per_round("core.score"));
        out.single(
            "core.tournament_share",
            leaders
                .iter()
                .map(|r| r.tracer.total_ms("core.tournament") / (r.loop_secs * 1e3))
                .sum::<f64>()
                / leaders.len() as f64,
        );
        out.single("core.adoption_frac", adoptions as f64 / rounds as f64);
    }
    out.single("core.generator_bytes", lead.generator_bytes as f64);

    out.single(
        "core.driver_overhead_frac",
        (driver_steady - plain_wall) / driver_steady,
    );
    out.single("core.span_coverage", coverage);
    out.single(
        "bench.trace_overhead_frac",
        (traced_wall - plain_wall) / plain_wall,
    );
    if !observed_walls.is_empty() {
        out.single(
            "obs.overhead_frac",
            (stats::median(&observed_walls) - driver_wall) / driver_steady,
        );
    }

    // Probes: the kernels and exchanges the layers above are made of,
    // timed alone on idle ranks.
    for (name, gflops) in probes::gemm_model_shapes(cfg.mb) {
        out.single(name, gflops);
    }
    let probe_gan = CycleGan::new(cfg.gan, opts.seed);
    match opts.workload {
        Workload::TrainDp => out.single(
            "comm.allreduce_us_p50",
            probes::allreduce_us_p50(probe_gan.networks()[2].num_params()),
        ),
        Workload::TrainLtfb => {
            out.single(
                "comm.sendrecv_us_p50",
                probes::sendrecv_us_p50(lead.generator_bytes),
            );
            out.single("gan.evaluate_ms_256", probes::evaluate_ms(probe_gan, 256));
        }
        _ => {}
    }
    out
}

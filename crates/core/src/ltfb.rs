//! LTFB run drivers.
//!
//! Two interchangeable executions of the same algorithm:
//!
//! * [`run_ltfb_serial`] — the whole population in one thread, exchanges
//!   by memory copy. The deterministic reference.
//! * [`run_ltfb_distributed`] — one world rank per trainer, generators
//!   exchanged with `sendrecv` over the simulated MPI fabric, pairings
//!   computed locally from the shared seed (fully decentralised, as in
//!   the paper).
//!
//! Both produce bit-identical results — asserted by an integration test —
//! which is the strongest evidence that the distributed protocol
//! faithfully implements the algorithm.

use crate::config::LtfbConfig;
use crate::data::ae_dataset;
use crate::tournament::{best_score, decide_match, pairing, MatchOutcome};
use crate::trainer::Trainer;
use bytes::Bytes;
use ltfb_comm::{run_world, run_world_obs, FaultPlan};
use ltfb_gan::CycleGan;
use ltfb_nn::{BatchReader, LossHistory};
use ltfb_obs::{Buckets, Counter, Gauge, Histogram, Registry};
use ltfb_tensor::mix_seed;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Train the shared multimodal autoencoder a priori on (a subsample of)
/// the global output distribution and return its serialized weights.
/// Deterministic in `cfg.seed`.
pub fn pretrain_global_autoencoder(cfg: &LtfbConfig) -> Bytes {
    let mut gan = CycleGan::new(cfg.gan, mix_seed(&[cfg.seed, 0xAE]));
    let ds = ae_dataset(cfg);
    let mut reader = BatchReader::new(ds, cfg.mb, mix_seed(&[cfg.seed, 0xAE2]));
    for _ in 0..cfg.ae_steps {
        let (_, y) = reader.next_batch();
        gan.pretrain_autoencoder_step(&y);
    }
    gan.autoencoder_to_bytes()
}

/// Result of a population training run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-trainer validation-loss trajectories (global validation set).
    pub histories: Vec<LossHistory>,
    /// Per-trainer final validation loss.
    pub final_val: Vec<f32>,
    /// Tournaments won per trainer.
    pub wins: Vec<u64>,
    /// Total generator adoptions across the population.
    pub adoptions: u64,
    /// All match outcomes in `(round, trainer)` order (serial runs; the
    /// distributed driver records only its own trainer's matches).
    pub matches: Vec<(u64, usize, MatchOutcome)>,
}

impl RunOutcome {
    /// Best (lowest) final validation loss and its trainer; finite
    /// losses win over non-finite ones.
    pub fn best(&self) -> (usize, f32) {
        best_score(&self.final_val)
    }
}

/// Registry handles for live LTFB instrumentation: tournament counters,
/// step-time histogram, and a per-match trace. Counters are population
/// aggregates (`ltfb.matches`, …) — per-trainer detail rides the trace.
pub struct LtfbObs {
    registry: Registry,
    matches: Arc<Counter>,
    adoptions: Arc<Counter>,
    exchanged_bytes: Arc<Counter>,
    step_us: Arc<Histogram>,
    comm_wait_ms: Arc<Histogram>,
    overlap_frac: Arc<Gauge>,
    deaths: Arc<Counter>,
    matches_skipped_dead: Arc<Counter>,
    alloc_bytes_per_step: Arc<Gauge>,
}

impl LtfbObs {
    /// Get-or-register the LTFB metric family in `registry`.
    pub fn new(registry: &Registry) -> LtfbObs {
        LtfbObs {
            registry: registry.clone(),
            matches: registry.counter("ltfb.matches"),
            adoptions: registry.counter("ltfb.adoptions"),
            exchanged_bytes: registry.counter("ltfb.exchanged_bytes"),
            step_us: registry.histogram("ltfb.step_us", Buckets::latency_us()),
            // Milliseconds blocked on collectives/exchanges per step, split
            // out of `ltfb.step_us` so compute and comm trend separately.
            // 1 us .. ~2 min in ms units, ~2x resolution.
            comm_wait_ms: registry
                .histogram("train.comm_wait_ms", Buckets::exponential(0.001, 2.0, 27)),
            overlap_frac: registry.gauge("train.overlap_frac"),
            deaths: registry.counter("ltfb.deaths"),
            matches_skipped_dead: registry.counter("ltfb.matches_skipped_dead"),
            alloc_bytes_per_step: registry.gauge("train.alloc_bytes_per_step"),
        }
    }

    /// A trainer fail-stopped (fault-tolerant drivers only).
    fn record_death(&self, trainer: usize, step: u64) {
        self.deaths.inc();
        self.registry
            .event("ltfb", trainer, Some(trainer), "death", step as f64);
    }

    /// A tournament match (and so a possible adoption) was skipped
    /// because the partner is dead or the exchange was scripted lost.
    fn record_skipped_match(&self, round: u64, trainer: usize, partner: usize) {
        self.matches_skipped_dead.inc();
        self.registry.event(
            "ltfb",
            trainer,
            Some(trainer),
            &format!("round_{round}_match_skipped_vs_{partner}"),
            0.0,
        );
    }

    /// One training step finished. `comm_wait` is the portion of the
    /// elapsed time spent blocked on gradient collectives; it is recorded
    /// under `train.comm_wait_ms` and *subtracted* from `ltfb.step_us`, so
    /// the step histogram tracks compute (plus any comm the overlap
    /// engine failed to hide) rather than total wall time.
    pub(crate) fn record_step(&self, started: Instant, comm_wait: Duration) {
        let elapsed = started.elapsed();
        let compute = elapsed.saturating_sub(comm_wait);
        self.step_us.record(compute.as_secs_f64() * 1e6);
        self.comm_wait_ms.record(comm_wait.as_secs_f64() * 1e3);
    }

    /// Time blocked on non-gradient communication (tournament exchanges,
    /// broadcasts) — lands in `train.comm_wait_ms` without perturbing the
    /// step histogram.
    pub(crate) fn record_comm_wait(&self, wait: Duration) {
        self.comm_wait_ms.record(wait.as_secs_f64() * 1e3);
    }

    /// Fraction of allreduce progress completed under backward compute
    /// before the blocking drain (1.0 = fully hidden). Gauge semantics:
    /// most recent step's value.
    pub(crate) fn record_overlap_fraction(&self, frac: f64) {
        self.overlap_frac.set(frac);
    }

    /// Workspace bytes the last step allocated — 0 once warm. Gauge
    /// semantics: the most recent step's value (the steady state).
    pub(crate) fn record_step_alloc(&self, bytes: u64) {
        self.alloc_bytes_per_step.set(bytes as f64);
    }

    /// One side of a tournament match: `foreign_bytes` is the size of the
    /// generator payload this trainer received.
    pub(crate) fn record_match(
        &self,
        round: u64,
        trainer: usize,
        out: &MatchOutcome,
        foreign_bytes: u64,
    ) {
        self.matches.inc();
        if out.adopted_foreign {
            self.adoptions.inc();
        }
        self.exchanged_bytes.add(foreign_bytes);
        self.registry.event(
            "ltfb",
            trainer,
            Some(trainer),
            &format!("round_{round}_match_vs_{}", out.partner),
            if out.adopted_foreign { 1.0 } else { 0.0 },
        );
    }
}

/// Fold a finished run into `registry`: total/per-round adoption rates
/// (gauges `ltfb.adoption_rate`, `ltfb.round{N}.adoption_rate`), a
/// `ltfb.rounds` counter, and one trace event per round. Called by the
/// `_obs` drivers; also usable on any [`RunOutcome`] after the fact.
pub fn record_run_outcome(registry: &Registry, outcome: &RunOutcome) {
    let mut per_round: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for &(round, _, ref m) in &outcome.matches {
        let e = per_round.entry(round).or_insert((0, 0));
        e.0 += 1;
        e.1 += m.adopted_foreign as u64;
    }
    registry.counter("ltfb.rounds").add(per_round.len() as u64);
    let total: u64 = per_round.values().map(|&(n, _)| n).sum();
    if total > 0 {
        registry
            .gauge("ltfb.adoption_rate")
            .set(outcome.adoptions as f64 / total as f64);
    }
    for (&round, &(n, adopted)) in &per_round {
        let rate = adopted as f64 / n as f64;
        registry
            .gauge(&format!("ltfb.round{round}.adoption_rate"))
            .set(rate);
        registry.event(
            "ltfb",
            0,
            None,
            &format!("round_{round}_adoption_rate"),
            rate,
        );
    }
}

/// Shared per-step schedule: train, maybe tournament, maybe record.
fn post_step_hooks(
    cfg: &LtfbConfig,
    step: u64,
    trainers: &mut [Trainer],
    matches: &mut Vec<(u64, usize, MatchOutcome)>,
    obs: Option<&LtfbObs>,
) {
    if cfg.n_trainers >= 2
        && cfg.exchange_interval > 0
        && step.is_multiple_of(cfg.exchange_interval)
    {
        let round = step / cfg.exchange_interval;
        let partners = pairing(cfg.n_trainers, round, cfg.seed);
        // Collect the exchanged payloads first (the "sendrecv"), then
        // decide each side — mirrors the concurrent exchange exactly.
        let payloads: Vec<_> = trainers
            .iter()
            .map(|t| t.gan.generator_to_bytes())
            .collect();
        for (t, partner) in partners.iter().enumerate() {
            if let Some(p) = partner {
                let out = decide_match(&mut trainers[t], *p, payloads[*p].clone());
                if let Some(o) = obs {
                    o.record_match(round, t, &out, payloads[*p].len() as u64);
                }
                matches.push((round, t, out));
            }
        }
    }
    if cfg.eval_interval > 0 && step.is_multiple_of(cfg.eval_interval) {
        for t in trainers.iter_mut() {
            t.record_validation();
        }
    }
}

/// Run the whole population serially in the calling thread.
pub fn run_ltfb_serial(cfg: &LtfbConfig) -> RunOutcome {
    run_ltfb_serial_with_models(cfg).0
}

/// Like [`run_ltfb_serial`] but also hands back the trained population —
/// used by the Fig. 7/8 harnesses to make predictions with the winner.
pub fn run_ltfb_serial_with_models(cfg: &LtfbConfig) -> (RunOutcome, Vec<Trainer>) {
    serial_with_models(cfg, None)
}

/// [`run_ltfb_serial`] with live metrics: step timings, tournament
/// counters and per-match trace land in `registry`, and the finished run
/// is folded in via [`record_run_outcome`].
pub fn run_ltfb_serial_obs(cfg: &LtfbConfig, registry: &Registry) -> RunOutcome {
    let obs = LtfbObs::new(registry);
    let outcome = serial_with_models(cfg, Some(&obs)).0;
    record_run_outcome(registry, &outcome);
    outcome
}

fn serial_with_models(cfg: &LtfbConfig, obs: Option<&LtfbObs>) -> (RunOutcome, Vec<Trainer>) {
    assert!(cfg.n_trainers >= 1);
    let ae = pretrain_global_autoencoder(cfg);
    let mut trainers: Vec<Trainer> = (0..cfg.n_trainers).map(|t| Trainer::new(*cfg, t)).collect();
    for t in &mut trainers {
        t.load_autoencoder(ae.clone());
        t.record_validation();
    }
    let mut matches = Vec::new();
    for step in 1..=cfg.steps {
        for t in &mut trainers {
            let started = obs.map(|_| Instant::now());
            t.train_step();
            if let (Some(o), Some(s)) = (obs, started) {
                // Serial driver: exchanges are memory copies, no comm wait.
                o.record_step(s, Duration::ZERO);
                o.record_step_alloc(t.last_step_alloc_bytes());
            }
        }
        post_step_hooks(cfg, step, &mut trainers, &mut matches, obs);
    }
    let final_val: Vec<f32> = trainers
        .iter_mut()
        .map(|t| t.validate().combined())
        .collect();
    let outcome = RunOutcome {
        histories: trainers.iter().map(|t| t.history.clone()).collect(),
        final_val,
        wins: trainers.iter().map(|t| t.wins).collect(),
        adoptions: trainers.iter().map(|t| t.losses).sum(),
        matches,
    };
    (outcome, trainers)
}

/// Serial LTFB with failure injection: trainer `failures[i].0` dies at
/// step `failures[i].1` (stops training and leaves the tournament pool).
/// Survivors keep playing among themselves — the algorithm's decentralised
/// design means a death only shrinks the population.
pub fn run_ltfb_with_failures(cfg: &LtfbConfig, failures: &[(usize, u64)]) -> RunOutcome {
    use crate::tournament::pairing_alive;
    assert!(cfg.n_trainers >= 1);
    let ae = pretrain_global_autoencoder(cfg);
    let mut trainers: Vec<Trainer> = (0..cfg.n_trainers).map(|t| Trainer::new(*cfg, t)).collect();
    for t in &mut trainers {
        t.load_autoencoder(ae.clone());
        t.record_validation();
    }
    let mut alive = vec![true; cfg.n_trainers];
    let mut matches = Vec::new();
    for step in 1..=cfg.steps {
        for &(victim, at) in failures {
            if at == step && victim < alive.len() {
                alive[victim] = false;
            }
        }
        for (t, trainer) in trainers.iter_mut().enumerate() {
            if alive[t] {
                trainer.train_step();
            }
        }
        if cfg.n_trainers >= 2 && cfg.exchange_interval > 0 && step % cfg.exchange_interval == 0 {
            let round = step / cfg.exchange_interval;
            let partners = pairing_alive(&alive, round, cfg.seed);
            let payloads: Vec<_> = trainers
                .iter()
                .map(|t| t.gan.generator_to_bytes())
                .collect();
            for (t, partner) in partners.iter().enumerate() {
                if let Some(p) = partner {
                    let out = decide_match(&mut trainers[t], *p, payloads[*p].clone());
                    matches.push((round, t, out));
                }
            }
        }
        if cfg.eval_interval > 0 && step % cfg.eval_interval == 0 {
            for (t, trainer) in trainers.iter_mut().enumerate() {
                if alive[t] {
                    trainer.record_validation();
                }
            }
        }
    }
    let final_val: Vec<f32> = trainers
        .iter_mut()
        .map(|t| t.validate().combined())
        .collect();
    RunOutcome {
        histories: trainers.iter().map(|t| t.history.clone()).collect(),
        final_val,
        wins: trainers.iter().map(|t| t.wins).collect(),
        adoptions: trainers.iter().map(|t| t.losses).sum(),
        matches,
    }
}

/// Run the population with one world rank per trainer; exchanges ride the
/// simulated MPI fabric. Returns the same aggregate outcome as the serial
/// driver (gathered to every rank and returned from rank 0's copy).
pub fn run_ltfb_distributed(cfg: &LtfbConfig) -> RunOutcome {
    distributed_inner(cfg, None)
}

/// [`run_ltfb_distributed`] with live metrics: every rank's communicator
/// is attached to `registry` (per-rank `comm.rN.…` traffic counters), the
/// ranks share the `ltfb.…` tournament family, and the gathered outcome
/// is folded in via [`record_run_outcome`].
pub fn run_ltfb_distributed_obs(cfg: &LtfbConfig, registry: &Registry) -> RunOutcome {
    distributed_inner(cfg, Some(registry))
}

fn distributed_inner(cfg: &LtfbConfig, registry: Option<&Registry>) -> RunOutcome {
    let cfg = *cfg;
    let obs = registry.map(LtfbObs::new);
    let body = move |comm: ltfb_comm::Comm| {
        let obs = obs.as_ref();
        let id = comm.rank();
        let mut trainer = Trainer::new(cfg, id);
        // Rank 0 pre-trains the shared autoencoder and broadcasts it —
        // the "a priori" phase of Section II-D.
        let ae = if cfg.n_trainers > 1 {
            let payload = (id == 0).then(|| pretrain_global_autoencoder(&cfg));
            comm.broadcast(0, payload)
        } else {
            pretrain_global_autoencoder(&cfg)
        };
        trainer.load_autoencoder(ae);
        trainer.record_validation();
        let mut my_matches: Vec<(u64, usize, MatchOutcome)> = Vec::new();

        for step in 1..=cfg.steps {
            let started = obs.map(|_| Instant::now());
            trainer.train_step();
            if let (Some(o), Some(s)) = (obs, started) {
                o.record_step(s, Duration::ZERO);
                o.record_step_alloc(trainer.last_step_alloc_bytes());
            }
            if cfg.n_trainers >= 2 && cfg.exchange_interval > 0 && step % cfg.exchange_interval == 0
            {
                let round = step / cfg.exchange_interval;
                let partners = pairing(cfg.n_trainers, round, cfg.seed);
                if let Some(p) = partners[id] {
                    // Concurrent generator swap with the partner.
                    let mine = trainer.gan.generator_to_bytes();
                    let tag = 0x7_000 + round;
                    let xstart = obs.map(|_| Instant::now());
                    let foreign = comm.sendrecv(p, tag, mine, p, tag);
                    if let (Some(o), Some(xs)) = (obs, xstart) {
                        o.record_comm_wait(xs.elapsed());
                    }
                    let foreign_bytes = foreign.len() as u64;
                    let out = decide_match(&mut trainer, p, foreign);
                    if let Some(o) = obs {
                        o.record_match(round, id, &out, foreign_bytes);
                    }
                    my_matches.push((round, id, out));
                }
            }
            if cfg.eval_interval > 0 && step % cfg.eval_interval == 0 {
                trainer.record_validation();
            }
        }
        let final_val = trainer.validate().combined();
        (
            trainer.history.clone(),
            final_val,
            trainer.wins,
            trainer.losses,
            my_matches,
        )
    };
    let per_rank = match registry {
        Some(reg) => run_world_obs(cfg.n_trainers, reg, body),
        None => run_world(cfg.n_trainers, body),
    };

    let mut outcome = RunOutcome {
        histories: Vec::new(),
        final_val: Vec::new(),
        wins: Vec::new(),
        adoptions: 0,
        matches: Vec::new(),
    };
    for (hist, fv, wins, losses, matches) in per_rank {
        outcome.histories.push(hist);
        outcome.final_val.push(fv);
        outcome.wins.push(wins);
        outcome.adoptions += losses;
        outcome.matches.extend(matches);
    }
    // Canonical order: by round then trainer (the serial driver's order).
    outcome.matches.sort_by_key(|&(round, t, _)| (round, t));
    if let Some(reg) = registry {
        record_run_outcome(reg, &outcome);
    }
    outcome
}

/// Distributed LTFB under fault injection: one world rank per trainer,
/// with deaths, stragglers and lost exchanges scripted by `plan`.
///
/// Degradation semantics (mirroring [`run_ltfb_with_failures`] exactly —
/// an integration test asserts bit-identical results for kill-only
/// plans):
///
/// * a killed rank announces itself via the failure detector at the top
///   of its death step (before training it) and stops driving the
///   protocol, but still reports its frozen model's final validation;
/// * survivors re-pair each round with `pairing_alive` over the plan's
///   alive-set — computed locally from the shared plan, so no agreement
///   traffic is needed;
/// * a `drop` event makes both sides of the affected exchange skip that
///   match deterministically; an unexpected dead partner surfaces as a
///   typed [`ltfb_comm::CommError`] from `sendrecv_ft` and costs one
///   skipped match (recorded as `ltfb.matches_skipped_dead`), never a
///   deadlock.
pub fn run_ltfb_distributed_ft(cfg: &LtfbConfig, plan: &FaultPlan) -> RunOutcome {
    distributed_ft_inner(cfg, plan, None)
}

/// [`run_ltfb_distributed_ft`] with live metrics; adds `ltfb.deaths` and
/// `ltfb.matches_skipped_dead` to the usual family.
pub fn run_ltfb_distributed_ft_obs(
    cfg: &LtfbConfig,
    plan: &FaultPlan,
    registry: &Registry,
) -> RunOutcome {
    distributed_ft_inner(cfg, plan, Some(registry))
}

fn distributed_ft_inner(
    cfg: &LtfbConfig,
    plan: &FaultPlan,
    registry: Option<&Registry>,
) -> RunOutcome {
    use crate::tournament::pairing_alive;
    let cfg = *cfg;
    let plan = plan.clone();
    let obs = registry.map(LtfbObs::new);
    let n = cfg.n_trainers;
    let body = move |comm: ltfb_comm::Comm| {
        let obs = obs.as_ref();
        let id = comm.rank();
        let mut trainer = Trainer::new(cfg, id);
        // The a-priori autoencoder phase happens before step 1, so every
        // rank — even one scripted to die — participates in the broadcast.
        let ae = if n > 1 {
            let payload = (id == 0).then(|| pretrain_global_autoencoder(&cfg));
            comm.broadcast(0, payload)
        } else {
            pretrain_global_autoencoder(&cfg)
        };
        trainer.load_autoencoder(ae);
        trainer.record_validation();
        let mut my_matches: Vec<(u64, usize, MatchOutcome)> = Vec::new();

        // Deaths flip at the top of their step, exactly as in the serial
        // failure driver (`at == step`), so a kill scripted outside
        // 1..=steps never fires.
        let mut alive = vec![true; n];
        'steps: for step in 1..=cfg.steps {
            for (r, live) in alive.iter_mut().enumerate() {
                if plan.kill_step(r) == Some(step) {
                    *live = false;
                    if r == id {
                        comm.announce_death();
                        if let Some(o) = obs {
                            o.record_death(id, step);
                        }
                        break 'steps;
                    }
                }
            }
            let stall = plan.delay_at(id, step);
            if stall > 0 {
                // A straggler, not a death: burn wall-clock without
                // touching the protocol or the results.
                let until = Instant::now() + std::time::Duration::from_micros(stall);
                while Instant::now() < until {
                    std::thread::yield_now();
                }
            }
            let started = obs.map(|_| Instant::now());
            trainer.train_step();
            if let (Some(o), Some(s)) = (obs, started) {
                o.record_step(s, Duration::ZERO);
                o.record_step_alloc(trainer.last_step_alloc_bytes());
            }
            if n >= 2 && cfg.exchange_interval > 0 && step % cfg.exchange_interval == 0 {
                let round = step / cfg.exchange_interval;
                let partners = pairing_alive(&alive, round, cfg.seed);
                if let Some(p) = partners[id] {
                    if plan.drops_at(id, step) || plan.drops_at(p, step) {
                        // Scripted message loss: both sides reach this
                        // same conclusion locally and skip the match.
                        if let Some(o) = obs {
                            o.record_skipped_match(round, id, p);
                        }
                    } else {
                        let mine = trainer.gan.generator_to_bytes();
                        let tag = 0x7_000 + round;
                        let xstart = obs.map(|_| Instant::now());
                        let swapped = comm.sendrecv_ft(p, tag, mine, p, tag);
                        if let (Some(o), Some(xs)) = (obs, xstart) {
                            o.record_comm_wait(xs.elapsed());
                        }
                        match swapped {
                            Ok(foreign) => {
                                let foreign_bytes = foreign.len() as u64;
                                let out = decide_match(&mut trainer, p, foreign);
                                if let Some(o) = obs {
                                    o.record_match(round, id, &out, foreign_bytes);
                                }
                                my_matches.push((round, id, out));
                            }
                            Err(_) => {
                                // Partner died outside the script (or its
                                // half of the exchange never came): one
                                // skipped match, not a stalled world.
                                if let Some(o) = obs {
                                    o.record_skipped_match(round, id, p);
                                }
                            }
                        }
                    }
                }
            }
            if cfg.eval_interval > 0 && step % cfg.eval_interval == 0 {
                trainer.record_validation();
            }
        }
        // Dead or alive, report the (possibly frozen) model's final state
        // — the serial failure driver validates every trainer too.
        let final_val = trainer.validate().combined();
        (
            trainer.history.clone(),
            final_val,
            trainer.wins,
            trainer.losses,
            my_matches,
        )
    };
    let per_rank = match registry {
        Some(reg) => run_world_obs(n, reg, body),
        None => run_world(n, body),
    };

    let mut outcome = RunOutcome {
        histories: Vec::new(),
        final_val: Vec::new(),
        wins: Vec::new(),
        adoptions: 0,
        matches: Vec::new(),
    };
    for (hist, fv, wins, losses, matches) in per_rank {
        outcome.histories.push(hist);
        outcome.final_val.push(fv);
        outcome.wins.push(wins);
        outcome.adoptions += losses;
        outcome.matches.extend(matches);
    }
    outcome.matches.sort_by_key(|&(round, t, _)| (round, t));
    if let Some(reg) = registry {
        record_run_outcome(reg, &outcome);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(k: usize) -> LtfbConfig {
        let mut cfg = LtfbConfig::small(k);
        cfg.train_samples = 256;
        cfg.val_samples = 64;
        cfg.tournament_samples = 32;
        cfg.ae_steps = 40;
        cfg.steps = 40;
        cfg.exchange_interval = 10;
        cfg.eval_interval = 20;
        cfg
    }

    #[test]
    fn serial_run_improves_validation_loss() {
        let out = run_ltfb_serial(&tiny_cfg(2));
        for (t, h) in out.histories.iter().enumerate() {
            let first = h.points().first().unwrap().1;
            let last = h.last().unwrap();
            assert!(
                last < first,
                "trainer {t} did not improve: {first} -> {last}"
            );
        }
    }

    #[test]
    fn tournaments_happen_and_are_recorded() {
        let cfg = tiny_cfg(4);
        let out = run_ltfb_serial(&cfg);
        // 4 rounds x 4 trainers (all paired with even K).
        assert_eq!(out.matches.len(), (cfg.rounds() * 4) as usize);
        let total_wins: u64 = out.wins.iter().sum();
        assert_eq!(total_wins + out.adoptions, cfg.rounds() * 4);
    }

    #[test]
    fn single_trainer_runs_without_tournaments() {
        let out = run_ltfb_serial(&tiny_cfg(1));
        assert!(out.matches.is_empty());
        assert_eq!(out.adoptions, 0);
        assert_eq!(out.histories.len(), 1);
    }

    #[test]
    fn odd_population_sits_one_out_per_round() {
        let cfg = tiny_cfg(3);
        let out = run_ltfb_serial(&cfg);
        assert_eq!(out.matches.len(), (cfg.rounds() * 2) as usize);
    }

    #[test]
    fn trainer_death_does_not_stall_survivors() {
        let mut cfg = tiny_cfg(4);
        cfg.steps = 40;
        cfg.exchange_interval = 10;
        // Trainer 2 dies at step 15 (between rounds 1 and 2).
        let out = run_ltfb_with_failures(&cfg, &[(2, 15)]);
        // Rounds after the death pair only survivors: trainer 2 appears in
        // matches only for round 1.
        for &(round, t, ref m) in &out.matches {
            if round >= 2 {
                assert_ne!(t, 2, "dead trainer matched in round {round}");
                assert_ne!(m.partner, 2, "dead trainer as partner in round {round}");
            }
        }
        // Survivors still played after the death.
        assert!(
            out.matches.iter().any(|&(round, _, _)| round >= 2),
            "tournament stalled after the failure"
        );
        // Survivors still improved.
        for (t, h) in out.histories.iter().enumerate() {
            if t != 2 {
                assert!(h.last().unwrap() < h.points()[0].1, "trainer {t} regressed");
            }
        }
    }

    #[test]
    fn simultaneous_deaths_at_one_step_shrink_the_pool() {
        let cfg = tiny_cfg(4);
        // Trainers 1 and 3 die at the same step, between rounds 1 and 2.
        let out = run_ltfb_with_failures(&cfg, &[(1, 15), (3, 15)]);
        for &(round, t, ref m) in &out.matches {
            if round >= 2 {
                assert!(
                    t != 1 && t != 3,
                    "dead trainer {t} matched in round {round}"
                );
                assert!(
                    m.partner != 1 && m.partner != 3,
                    "dead partner {} in round {round}",
                    m.partner
                );
            }
        }
        // The two survivors keep pairing each other every later round.
        let late: Vec<_> = out
            .matches
            .iter()
            .filter(|&&(round, _, _)| round >= 2)
            .collect();
        assert_eq!(late.len(), 2 * 3, "0 and 2 must play rounds 2..=4");
        // Survivors improved; everyone has a final score.
        assert_eq!(out.final_val.len(), 4);
        for t in [0usize, 2] {
            let h = &out.histories[t];
            assert!(h.last().unwrap() < h.points()[0].1, "trainer {t} regressed");
        }
    }

    #[test]
    fn death_on_a_round_boundary_excludes_the_victim_from_that_round() {
        let cfg = tiny_cfg(4);
        // Step 20 is exactly round 2's exchange: the kill flips at the top
        // of the step, so the victim must already be out of that pairing.
        let out = run_ltfb_with_failures(&cfg, &[(2, 20)]);
        assert!(
            out.matches
                .iter()
                .any(|&(round, t, _)| round == 1 && t == 2),
            "victim should still play the round before its death"
        );
        for &(round, t, ref m) in &out.matches {
            if round >= 2 {
                assert_ne!(t, 2, "victim played its own death round {round}");
                assert_ne!(m.partner, 2, "victim partnered in round {round}");
            }
        }
    }

    #[test]
    fn sole_survivor_finishes_the_run() {
        let cfg = tiny_cfg(4);
        let out = run_ltfb_with_failures(&cfg, &[(0, 5), (1, 15), (2, 25)]);
        // From step 25 on only trainer 3 is alive: a pool of one plays no
        // tournaments but still trains and validates to completion.
        assert!(
            out.matches.iter().all(|&(round, _, _)| round < 3),
            "matches continued past the point where only one trainer lived"
        );
        let h = &out.histories[3];
        assert!(h.last().unwrap() < h.points()[0].1, "survivor regressed");
        assert_eq!(out.final_val.len(), 4);
        assert!(out.final_val.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pool_of_one_with_failure_still_finishes() {
        let cfg = tiny_cfg(1);
        let out = run_ltfb_with_failures(&cfg, &[(0, 5)]);
        assert!(out.matches.is_empty());
        assert_eq!(out.final_val.len(), 1);
        assert!(out.final_val[0].is_finite());
    }

    #[test]
    fn no_failures_matches_plain_serial() {
        let cfg = tiny_cfg(2);
        let plain = run_ltfb_serial(&cfg);
        let injected = run_ltfb_with_failures(&cfg, &[]);
        assert_eq!(plain.final_val, injected.final_val);
        assert_eq!(plain.adoptions, injected.adoptions);
    }

    #[test]
    fn serial_deterministic_across_runs() {
        let cfg = tiny_cfg(2);
        let a = run_ltfb_serial(&cfg);
        let b = run_ltfb_serial(&cfg);
        assert_eq!(a.final_val, b.final_val);
        assert_eq!(a.wins, b.wins);
    }

    #[test]
    fn serial_obs_records_counters_and_round_rates() {
        let cfg = tiny_cfg(2);
        let reg = Registry::new();
        let out = run_ltfb_serial_obs(&cfg, &reg);
        // Metrics agree with the outcome exactly.
        assert_eq!(reg.counter("ltfb.matches").get(), out.matches.len() as u64);
        assert_eq!(reg.counter("ltfb.adoptions").get(), out.adoptions);
        assert_eq!(reg.counter("ltfb.rounds").get(), cfg.rounds());
        assert!(reg.counter("ltfb.exchanged_bytes").get() > 0);
        // Every step of every trainer was timed.
        let h = reg.histogram("ltfb.step_us", Buckets::latency_us());
        assert_eq!(h.count(), cfg.steps * cfg.n_trainers as u64);
        // Per-round adoption-rate gauges exist and are in [0, 1].
        for round in 1..=cfg.rounds() {
            let g = reg.gauge(&format!("ltfb.round{round}.adoption_rate")).get();
            assert!((0.0..=1.0).contains(&g), "round {round}: {g}");
        }
        // Each match left a trace event.
        assert!(
            reg.events()
                .iter()
                .filter(|e| e.event.contains("_match_vs_"))
                .count()
                >= out.matches.len().min(ltfb_obs::DEFAULT_TRACE_CAPACITY)
        );
    }

    #[test]
    fn obs_run_matches_plain_run_bit_for_bit() {
        let cfg = tiny_cfg(2);
        let plain = run_ltfb_serial(&cfg);
        let observed = run_ltfb_serial_obs(&cfg, &Registry::new());
        assert_eq!(plain.final_val, observed.final_val);
        assert_eq!(plain.wins, observed.wins);
        assert_eq!(plain.adoptions, observed.adoptions);
    }

    /// Canonical comparison key for a match list.
    fn match_keys(out: &RunOutcome) -> Vec<(u64, usize, usize, bool)> {
        out.matches
            .iter()
            .map(|&(round, t, ref m)| (round, t, m.partner, m.adopted_foreign))
            .collect()
    }

    #[test]
    fn distributed_ft_with_kills_matches_the_serial_failure_driver() {
        let cfg = tiny_cfg(4);
        let kills = [(2usize, 15u64)];
        let serial = run_ltfb_with_failures(&cfg, &kills);
        let dist = run_ltfb_distributed_ft(&cfg, &FaultPlan::kills(&kills));
        assert_eq!(serial.final_val, dist.final_val);
        assert_eq!(serial.wins, dist.wins);
        assert_eq!(serial.adoptions, dist.adoptions);
        assert_eq!(match_keys(&serial), match_keys(&dist));
    }

    #[test]
    fn distributed_ft_without_faults_matches_plain_distributed() {
        let cfg = tiny_cfg(2);
        let plain = run_ltfb_distributed(&cfg);
        let ft = run_ltfb_distributed_ft(&cfg, &FaultPlan::none());
        assert_eq!(plain.final_val, ft.final_val);
        assert_eq!(plain.wins, ft.wins);
        assert_eq!(plain.adoptions, ft.adoptions);
    }

    #[test]
    fn distributed_ft_survives_simultaneous_and_boundary_deaths() {
        let cfg = tiny_cfg(4);
        // One death exactly on the round-2 boundary, one mid-interval —
        // the two awkward cases, together, over the real fabric.
        let plan = FaultPlan::kills(&[(1, 20), (3, 15)]);
        let out = run_ltfb_distributed_ft(&cfg, &plan);
        for &(round, t, ref m) in &out.matches {
            if round >= 2 {
                assert!(t != 1 && t != 3, "dead rank {t} matched in round {round}");
                assert!(m.partner != 1 && m.partner != 3);
            }
        }
        assert!(
            out.matches.iter().any(|&(round, _, _)| round >= 2),
            "survivors stalled after the deaths"
        );
        // Matches the serial reference bit for bit as well.
        let serial = run_ltfb_with_failures(&cfg, &[(1, 20), (3, 15)]);
        assert_eq!(serial.final_val, out.final_val);
        assert_eq!(match_keys(&serial), match_keys(&out));
    }

    #[test]
    fn distributed_ft_sole_survivor_and_pool_of_one_finish() {
        let cfg = tiny_cfg(4);
        let out = run_ltfb_distributed_ft(&cfg, &FaultPlan::kills(&[(0, 5), (1, 15), (2, 25)]));
        assert!(out.final_val.iter().all(|v| v.is_finite()));
        assert!(out.matches.iter().all(|&(round, _, _)| round < 3));
        let solo = run_ltfb_distributed_ft(&tiny_cfg(1), &FaultPlan::kills(&[(0, 5)]));
        assert!(solo.matches.is_empty());
        assert_eq!(solo.final_val.len(), 1);
    }

    #[test]
    fn distributed_ft_obs_counts_deaths_and_skipped_matches() {
        let cfg = tiny_cfg(4);
        // A death mid-run plus a dropped exchange at round 1 (step 10):
        // both sides of the dropped match record the skip.
        let plan = FaultPlan::parse("kill:2@15,drop:0@10").expect("well-formed plan");
        let reg = Registry::new();
        let out = run_ltfb_distributed_ft_obs(&cfg, &plan, &reg);
        assert_eq!(reg.counter("ltfb.deaths").get(), 1);
        assert_eq!(reg.counter("ltfb.matches_skipped_dead").get(), 2);
        assert_eq!(reg.counter("ltfb.matches").get(), out.matches.len() as u64);
        assert!(
            reg.events()
                .iter()
                .any(|e| e.event.contains("match_skipped_vs_")),
            "skip must leave a trace event"
        );
        assert!(reg.events().iter().any(|e| e.event == "death"));
    }

    /// Comm-wait instrumentation must not perturb the fault-tolerant
    /// trajectory: an observed kill-plan run stays bit-identical to the
    /// serial failure driver, and the split `train.comm_wait_ms`
    /// histogram records one sample per surviving step plus each timed
    /// tournament exchange.
    #[test]
    fn distributed_ft_obs_with_kills_bit_identical_and_splits_comm_wait() {
        let cfg = tiny_cfg(4);
        let kills = [(2usize, 15u64)];
        let serial = run_ltfb_with_failures(&cfg, &kills);
        let reg = Registry::new();
        let dist = run_ltfb_distributed_ft_obs(&cfg, &FaultPlan::kills(&kills), &reg);
        assert_eq!(serial.final_val, dist.final_val);
        assert_eq!(serial.wins, dist.wins);
        assert_eq!(serial.adoptions, dist.adoptions);
        assert_eq!(match_keys(&serial), match_keys(&dist));
        let snap = reg.snapshot();
        let waits = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "train.comm_wait_ms")
            .map(|(_, h)| h)
            .expect("comm-wait histogram registered");
        // One sample per training step actually run (rank 2 stops at its
        // death step) plus one per completed sendrecv exchange.
        let surviving_steps: u64 = 3 * cfg.steps + 14;
        assert!(waits.count >= surviving_steps);
        let steps = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "ltfb.step_us")
            .map(|(_, h)| h)
            .expect("step histogram registered");
        assert_eq!(steps.count, surviving_steps);
    }

    #[test]
    fn scripted_stragglers_do_not_change_results() {
        let cfg = tiny_cfg(2);
        let delayed = run_ltfb_distributed_ft(
            &cfg,
            &FaultPlan::parse("delay:1@5:2000us").expect("well-formed plan"),
        );
        let plain = run_ltfb_distributed_ft(&cfg, &FaultPlan::none());
        assert_eq!(delayed.final_val, plain.final_val);
        assert_eq!(delayed.wins, plain.wins);
        assert_eq!(delayed.adoptions, plain.adoptions);
    }

    #[test]
    fn distributed_obs_captures_comm_and_tournament_traffic() {
        let cfg = tiny_cfg(2);
        let reg = Registry::new();
        let out = run_ltfb_distributed_obs(&cfg, &reg);
        assert_eq!(reg.counter("ltfb.matches").get(), out.matches.len() as u64);
        // The generator exchange rode the instrumented fabric.
        assert!(reg.sum_counters(".sent_bytes") > 0);
        assert_eq!(
            reg.sum_counters(".sent_bytes"),
            reg.sum_counters(".recv_bytes")
        );
        assert!(reg.gauge("ltfb.adoption_rate").get().is_finite());
    }
}

//! The LTFB tournament: random pairing, generator exchange, local
//! evaluation, winner retention (Section III-C, Fig. 6).

use crate::trainer::Trainer;
use bytes::Bytes;
use ltfb_tensor::{mix_seed, permutation, seeded_rng};

/// Deterministic random pairing for tournament `round`: every trainer can
/// compute the same pairing locally from the shared seed, so no
/// coordination traffic is needed. With odd K one trainer sits out
/// (`None`).
pub fn pairing(k: usize, round: u64, seed: u64) -> Vec<Option<usize>> {
    let mut partners = vec![None; k];
    if k < 2 {
        return partners;
    }
    let mut rng = seeded_rng(mix_seed(&[seed, 0xF1B, round]));
    let perm = permutation(k, &mut rng);
    for pair in perm.chunks_exact(2) {
        partners[pair[0]] = Some(pair[1]);
        partners[pair[1]] = Some(pair[0]);
    }
    partners
}

/// Pairing restricted to the trainers still alive: dead trainers are
/// skipped and the survivors are paired among themselves (failure
/// resilience — a crashed trainer must not stall the tournament, only
/// shrink the population). Deterministic given `(alive, round, seed)`,
/// so every survivor computes the same pairing locally.
pub fn pairing_alive(alive: &[bool], round: u64, seed: u64) -> Vec<Option<usize>> {
    let k = alive.len();
    let mut partners = vec![None; k];
    let living: Vec<usize> = (0..k).filter(|&i| alive[i]).collect();
    if living.len() < 2 {
        return partners;
    }
    let mut rng = seeded_rng(mix_seed(&[seed, 0xF1B, round]));
    let perm = permutation(living.len(), &mut rng);
    for pair in perm.chunks_exact(2) {
        let (a, b) = (living[pair[0]], living[pair[1]]);
        partners[a] = Some(b);
        partners[b] = Some(a);
    }
    partners
}

/// The adoption rule every tournament site applies: adopt the foreign
/// model iff its score is finite and the local one is not, or it is
/// strictly lower. Ties keep the local model (no pointless churn, and
/// LBANN's strict-improvement rule). For finite scores this is exactly
/// `foreign < own`; the finiteness terms only rescue a diverged trainer
/// and refuse a diverged partner.
pub fn adopt(own: f32, foreign: f32) -> bool {
    foreign.is_finite() && (!own.is_finite() || foreign < own)
}

/// The population's best (lowest) score and its trainer. Finite scores
/// win over non-finite ones, so a diverged trainer is never reported as
/// best; with no finite score the `total_cmp` minimum is returned.
pub(crate) fn best_score(scores: &[f32]) -> (usize, f32) {
    let lowest = |finite_only: bool| {
        scores
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, s)| !finite_only || s.is_finite())
            .min_by(|a, b| a.1.total_cmp(&b.1))
    };
    lowest(true)
        .or_else(|| lowest(false))
        .expect("empty population")
}

/// Outcome of one trainer's tournament match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchOutcome {
    /// Partner trainer id.
    pub partner: usize,
    /// Local score of the trainer's own generator (lower is better).
    pub own_score: f32,
    /// Local score of the received generator.
    pub foreign_score: f32,
    /// Whether the foreign generator was adopted.
    pub adopted_foreign: bool,
}

/// Decide a match on one side: score own and foreign generators on the
/// local tournament set and keep the better by [`adopt`].
pub fn decide_match(trainer: &mut Trainer, partner: usize, foreign: Bytes) -> MatchOutcome {
    let own_bytes = trainer.gan.generator_to_bytes();
    let own_score = trainer.tournament_score();
    trainer
        .gan
        .swap_generator_weights(foreign.clone())
        .expect("foreign generator payload corrupt");
    let foreign_score = trainer.tournament_score();
    let adopted_foreign = adopt(own_score, foreign_score);
    if adopted_foreign {
        // Adopt for real: optimizer state resets (stale moments would
        // drag the foreign weights back toward the old basin).
        trainer
            .gan
            .load_generator(foreign)
            .expect("validated above");
        trainer.losses += 1;
    } else {
        trainer
            .gan
            .swap_generator_weights(own_bytes)
            .expect("own generator snapshot corrupt");
        trainer.wins += 1;
    }
    MatchOutcome {
        partner,
        own_score,
        foreign_score,
        adopted_foreign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LtfbConfig;
    use crate::ltfb::RunOutcome;
    use crate::two_level::TwoLevelOutcome;
    use crate::ClassifierOutcome;
    use proptest::prelude::*;

    #[test]
    fn pairing_is_an_involution() {
        for k in [2usize, 3, 4, 5, 8, 13] {
            for round in 0..5 {
                let p = pairing(k, round, 42);
                let unpaired = p.iter().filter(|x| x.is_none()).count();
                assert_eq!(unpaired, k % 2, "k={k}");
                for (i, partner) in p.iter().enumerate() {
                    if let Some(j) = partner {
                        assert_ne!(*j, i, "self-pairing");
                        assert_eq!(p[*j], Some(i), "pairing must be symmetric");
                    }
                }
            }
        }
    }

    #[test]
    fn pairing_varies_by_round_but_is_deterministic() {
        let a = pairing(8, 0, 7);
        let b = pairing(8, 1, 7);
        let a2 = pairing(8, 0, 7);
        assert_eq!(a, a2);
        assert_ne!(a, b, "rounds should shuffle pairings");
    }

    #[test]
    fn tiny_populations() {
        assert_eq!(pairing(0, 0, 1), Vec::<Option<usize>>::new());
        assert_eq!(pairing(1, 0, 1), vec![None]);
        let p = pairing(2, 0, 1);
        assert_eq!(p, vec![Some(1), Some(0)]);
    }

    #[test]
    fn pairing_alive_skips_dead_trainers() {
        for round in 0..4 {
            let alive = [true, false, true, true, false, true];
            let p = pairing_alive(&alive, round, 11);
            assert_eq!(p[1], None, "dead trainer must not be paired");
            assert_eq!(p[4], None);
            // Survivors (4 of them) are fully paired among themselves.
            for (i, partner) in p.iter().enumerate() {
                if alive[i] {
                    let j = partner.expect("even survivor count: all paired");
                    assert!(alive[j], "paired with a dead trainer");
                    assert_eq!(p[j], Some(i));
                }
            }
        }
    }

    #[test]
    fn pairing_alive_with_one_survivor_is_empty() {
        let p = pairing_alive(&[false, true, false], 0, 1);
        assert!(p.iter().all(Option::is_none));
    }

    #[test]
    fn pairing_alive_all_alive_matches_population_size() {
        let alive = vec![true; 8];
        let p = pairing_alive(&alive, 3, 9);
        assert_eq!(p.iter().filter(|x| x.is_some()).count(), 8);
    }

    #[test]
    fn pairing_alive_all_dead_is_empty() {
        for k in [0usize, 1, 4, 7] {
            let p = pairing_alive(&vec![false; k], 2, 5);
            assert_eq!(p.len(), k);
            assert!(p.iter().all(Option::is_none), "k={k}");
        }
    }

    #[test]
    fn pairing_alive_exactly_one_alive_never_pairs() {
        for pos in 0..5 {
            let mut alive = vec![false; 5];
            alive[pos] = true;
            for round in 0..4 {
                let p = pairing_alive(&alive, round, 3);
                assert!(
                    p.iter().all(Option::is_none),
                    "lone survivor at {pos} paired in round {round}"
                );
            }
        }
    }

    #[test]
    fn pairing_alive_odd_survivors_sits_exactly_one_out() {
        // 5 survivors among 8 trainers: every round pairs 4 and benches 1.
        let alive = [true, false, true, true, false, true, false, true];
        for round in 0..10 {
            let p = pairing_alive(&alive, round, 21);
            let paired = p.iter().filter(|x| x.is_some()).count();
            assert_eq!(paired, 4, "round {round}");
            let benched: Vec<usize> = (0..alive.len())
                .filter(|&i| alive[i] && p[i].is_none())
                .collect();
            assert_eq!(benched.len(), 1, "round {round}");
            for (i, partner) in p.iter().enumerate() {
                if let Some(j) = partner {
                    assert!(alive[i] && alive[*j]);
                    assert_eq!(p[*j], Some(i), "symmetry broken in round {round}");
                }
            }
        }
        // Over enough rounds the bench rotates (pairing is random, so no
        // trainer is benched forever).
        let benched: std::collections::HashSet<usize> = (0..10)
            .map(|round| {
                let p = pairing_alive(&alive, round, 21);
                (0..alive.len())
                    .find(|&i| alive[i] && p[i].is_none())
                    .unwrap()
            })
            .collect();
        assert!(benched.len() > 1, "same trainer benched every round");
    }

    #[test]
    fn pairing_alive_identical_across_ranks() {
        // Every rank computes the pairing locally from (alive, round,
        // seed); the protocol only works if they all agree.
        let alive = [true, true, false, true, true, false, true];
        let computed = ltfb_comm::run_world(4, |comm| {
            let mine: Vec<Vec<Option<usize>>> = (0..6)
                .map(|round| pairing_alive(&alive, round, 13))
                .collect();
            // Cross-check against every other rank via the fabric.
            let payload = format!("{mine:?}");
            let all = comm.allgather(bytes::Bytes::from(payload.clone().into_bytes()));
            for other in &all {
                assert_eq!(other[..], *payload.as_bytes(), "ranks disagree");
            }
            mine
        });
        assert!(computed.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn decide_match_keeps_better_generator() {
        let cfg = LtfbConfig::small(2);
        let ae = crate::ltfb::pretrain_global_autoencoder(&cfg);
        let mut a = Trainer::new(cfg, 0);
        let mut b = Trainer::new(cfg, 1);
        a.load_autoencoder(ae.clone());
        b.load_autoencoder(ae);
        // Give `a` an advantage: some GAN steps.
        for _ in 0..60 {
            a.train_step();
        }
        let a_gen = a.gan.generator_to_bytes();
        let b_gen = b.gan.generator_to_bytes();
        let fp_a = a.gan.generator_fingerprint();

        // b receives a's generator: a's trained generator should win on
        // b's tournament set too (it has learned, b has not).
        let out_b = decide_match(&mut b, 0, a_gen);
        assert!(out_b.foreign_score < out_b.own_score, "{out_b:?}");
        assert!(out_b.adopted_foreign);
        assert_eq!(
            b.gan.generator_fingerprint(),
            fp_a,
            "b must now hold a's generator"
        );
        assert_eq!(b.losses, 1);

        // a receives b's (untrained) generator and must keep its own.
        let fp_a_before = a.gan.generator_fingerprint();
        let out_a = decide_match(&mut a, 1, b_gen);
        assert!(!out_a.adopted_foreign, "{out_a:?}");
        assert_eq!(
            a.gan.generator_fingerprint(),
            fp_a_before,
            "a must keep its generator"
        );
        assert_eq!(a.wins, 1);
    }

    #[test]
    fn losing_side_keeps_local_discriminator() {
        let cfg = LtfbConfig::small(2);
        let ae = crate::ltfb::pretrain_global_autoencoder(&cfg);
        let mut a = Trainer::new(cfg, 0);
        let mut b = Trainer::new(cfg, 1);
        a.load_autoencoder(ae.clone());
        b.load_autoencoder(ae);
        for _ in 0..40 {
            a.train_step();
        }
        let d_before = b.gan.networks()[4].weights_fingerprint();
        decide_match(&mut b, 0, a.gan.generator_to_bytes());
        assert_eq!(
            b.gan.networks()[4].weights_fingerprint(),
            d_before,
            "discriminators never cross trainers"
        );
    }

    #[test]
    fn diverged_trainer_adopts_a_finite_partner() {
        let cfg = LtfbConfig::small(2);
        let ae = crate::ltfb::pretrain_global_autoencoder(&cfg);
        let mut a = Trainer::new(cfg, 0);
        let mut b = Trainer::new(cfg, 1);
        a.load_autoencoder(ae.clone());
        b.load_autoencoder(ae);
        for _ in 0..20 {
            a.train_step();
            b.train_step();
        }
        b.gan.networks_mut()[2].visit_params_mut(&mut |p| p.value.fill(f32::NAN));
        let fp_a = a.gan.generator_fingerprint();

        let out_b = decide_match(&mut b, 0, a.gan.generator_to_bytes());
        assert!(out_b.own_score.is_nan(), "{out_b:?}");
        assert!(out_b.foreign_score.is_finite(), "{out_b:?}");
        assert!(out_b.adopted_foreign, "{out_b:?}");
        assert_eq!(b.gan.generator_fingerprint(), fp_a);
        assert!(b.tournament_score().is_finite());

        // The finite side never takes a diverged generator.
        let mut poisoned = Trainer::new(cfg, 1);
        poisoned.gan.networks_mut()[2].visit_params_mut(&mut |p| p.value.fill(f32::NAN));
        let out_a = decide_match(&mut a, 1, poisoned.gan.generator_to_bytes());
        assert!(!out_a.adopted_foreign, "{out_a:?}");
        assert_eq!(a.gan.generator_fingerprint(), fp_a);
    }

    #[test]
    fn adopt_handles_non_finite_scores() {
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(adopt(bad, 1.0), "own {bad} must adopt a finite partner");
            assert!(!adopt(1.0, bad), "foreign {bad} must never be adopted");
            assert!(!adopt(bad, bad), "two diverged models: keep the local one");
        }
        assert!(!adopt(0.5, 0.5), "ties keep the local model");
    }

    #[test]
    fn best_prefers_finite_trainers() {
        let final_val = vec![0.7, -f32::NAN, 0.4, f32::NEG_INFINITY];
        let run = RunOutcome {
            histories: Vec::new(),
            final_val: final_val.clone(),
            wins: Vec::new(),
            adoptions: 0,
            matches: Vec::new(),
        };
        assert_eq!(run.best(), (2, 0.4));
        let two = TwoLevelOutcome {
            histories: Vec::new(),
            final_val: final_val.clone(),
            adoptions: 0,
            replicas_consistent: true,
        };
        assert_eq!(two.best(), (2, 0.4));
        let cls = ClassifierOutcome {
            histories: Vec::new(),
            final_ce: final_val,
            final_accuracy: Vec::new(),
            adoptions: 0,
        };
        assert_eq!(cls.best(), (2, 0.4));

        // With no finite trainer the answer is the old `total_cmp` minimum.
        let (i, v) = best_score(&[f32::NAN, -f32::NAN, f32::INFINITY]);
        assert_eq!((i, v.to_bits()), (1, (-f32::NAN).to_bits()));
    }

    fn finite_f32() -> impl Strategy<Value = f32> {
        any::<f32>().prop_map(|x| if x.is_finite() { x } else { 0.0 })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn adopt_is_strict_less_on_finite_scores(own in finite_f32(), foreign in finite_f32()) {
            prop_assert_eq!(adopt(own, foreign), foreign < own);
        }

        #[test]
        fn best_is_total_cmp_minimum_on_finite_scores(
            scores in prop::collection::vec(finite_f32(), 1..9),
        ) {
            let old = scores
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let new = best_score(&scores);
            prop_assert_eq!((new.0, new.1.to_bits()), (old.0, old.1.to_bits()));
        }
    }
}

//! LTFB for *traditional* (non-generative) networks — the original
//! algorithm of Jacobs et al. 2017 that this paper extends to GANs. The
//! tournament here exchanges the **whole model** (there is no local
//! discriminator to keep) and judges matches by classification loss on
//! the local tournament set.
//!
//! The task is a 4-class ICF outcome classifier derived from the JAG
//! substitute: given the 5-D design parameters, predict the yield
//! quartile of the implosion — a nonlinear decision problem thanks to the
//! ignition cliff.

use crate::config::{LtfbConfig, PartitionScheme};
use crate::tournament::{adopt, best_score, pairing};
use bytes::Bytes;
use ltfb_jag::{sample_by_id, JagConfig};
use ltfb_nn::{mlp, Adam, LossHistory, Optimizer, OutputActivation, Sequential};
use ltfb_tensor::{
    accuracy, cross_entropy_with_logits, cross_entropy_with_logits_grad, mix_seed, permutation,
    seeded_rng, Matrix,
};

/// Number of yield-quartile classes.
pub const N_CLASSES: usize = 4;

/// A labelled classification dataset over the JAG design space.
#[derive(Debug, Clone)]
pub struct ClassifyData {
    /// `n x 5` design parameters.
    pub x: Matrix,
    /// Class labels (yield quartile).
    pub labels: Vec<usize>,
}

/// Yield-quartile label of a design point (uses the simulator's log-yield
/// scalar; thresholds chosen near the global quartiles of the design
/// space so classes are roughly balanced).
pub fn label_of(cfg: &JagConfig, design_offset: u64, id: u64) -> usize {
    let s = sample_by_id(cfg, design_offset, id);
    let y = s.scalars[0];
    if y < -1.1 {
        0
    } else if y < 0.0 {
        1
    } else if y < 1.0 {
        2
    } else {
        3
    }
}

/// Build a labelled dataset from a design region.
pub fn classify_data(cfg: &JagConfig, design_offset: u64, start: u64, count: u64) -> ClassifyData {
    let mut x = Matrix::zeros(count as usize, 5);
    let mut labels = Vec::with_capacity(count as usize);
    for i in 0..count {
        let s = sample_by_id(cfg, design_offset, start + i);
        x.row_mut(i as usize).copy_from_slice(&s.params);
        let y = s.scalars[0];
        labels.push(if y < -1.1 {
            0
        } else if y < 0.0 {
            1
        } else if y < 1.0 {
            2
        } else {
            3
        });
    }
    ClassifyData { x, labels }
}

/// One classifier population member.
pub struct ClassifierTrainer {
    pub id: usize,
    pub net: Sequential,
    opt: Adam,
    train: ClassifyData,
    tournament: ClassifyData,
    val: ClassifyData,
    order: Vec<usize>,
    cursor: usize,
    epoch: u64,
    mb: usize,
    seed: u64,
    /// Validation cross-entropy trajectory.
    pub history: LossHistory,
    pub step: u64,
    pub wins: u64,
    pub adoptions: u64,
}

impl ClassifierTrainer {
    /// Build trainer `t` of `cfg.n_trainers` over its silo.
    pub fn new(cfg: &LtfbConfig, t: usize) -> Self {
        let part = cfg.partition_len();
        let jag = cfg.gan.jag;
        // Silo: contiguous design indices or drive-region slab, matching
        // the GAN path's partitioning semantics.
        let train = match cfg.partition {
            PartitionScheme::ByIndex => classify_data(&jag, 0, t as u64 * part, part),
            PartitionScheme::ByRegion => {
                let ids = crate::data::partition_ids(cfg, t);
                let mut x = Matrix::zeros(ids.len(), 5);
                let mut labels = Vec::with_capacity(ids.len());
                for (r, &id) in ids.iter().enumerate() {
                    let s = sample_by_id(&jag, 0, id);
                    x.row_mut(r).copy_from_slice(&s.params);
                    labels.push(label_of(&jag, 0, id));
                }
                ClassifyData { x, labels }
            }
        };
        let val = classify_data(&jag, crate::data::VAL_DESIGN_OFFSET, 0, cfg.val_samples);
        let tstart = cfg.val_samples + t as u64 * cfg.tournament_samples;
        let tournament = classify_data(
            &jag,
            crate::data::VAL_DESIGN_OFFSET,
            tstart,
            cfg.tournament_samples,
        );
        let mut rng = seeded_rng(mix_seed(&[cfg.seed, 0xC1A, t as u64]));
        let net = mlp(
            &[5, 48, 32, N_CLASSES],
            0.1,
            OutputActivation::LinearOut,
            &mut rng,
        );
        let order = permutation(
            train.labels.len(),
            &mut seeded_rng(mix_seed(&[cfg.seed, t as u64, 0])),
        );
        ClassifierTrainer {
            id: t,
            net,
            opt: Adam::new(cfg.gan.lr),
            train,
            tournament,
            val,
            order,
            cursor: 0,
            epoch: 0,
            mb: cfg.mb,
            seed: cfg.seed,
            history: LossHistory::new(),
            step: 0,
            wins: 0,
            adoptions: 0,
        }
    }

    fn next_batch(&mut self) -> (Matrix, Vec<usize>) {
        let n = self.train.labels.len();
        let end = (self.cursor + self.mb).min(n);
        let idx = &self.order[self.cursor..end];
        let x = self.train.x.gather_rows(idx);
        let labels: Vec<usize> = idx.iter().map(|&i| self.train.labels[i]).collect();
        self.cursor = end;
        if self.cursor >= n {
            self.epoch += 1;
            self.order = permutation(
                n,
                &mut seeded_rng(mix_seed(&[self.seed, self.id as u64, self.epoch])),
            );
            self.cursor = 0;
        }
        (x, labels)
    }

    /// One SGD step; returns the batch cross-entropy.
    pub fn train_step(&mut self) -> f32 {
        let (x, labels) = self.next_batch();
        self.net.zero_grads();
        let logits = self.net.forward(&x, true);
        let loss = cross_entropy_with_logits(&logits, &labels);
        let g = cross_entropy_with_logits_grad(&logits, &labels);
        self.net.backward(&g);
        self.opt.step(&mut self.net.params_mut());
        self.step += 1;
        loss
    }

    /// Cross-entropy on the global validation set.
    pub fn validate(&mut self) -> f32 {
        let logits = self.net.forward(&self.val.x, false);
        cross_entropy_with_logits(&logits, &self.val.labels)
    }

    /// Accuracy on the global validation set.
    pub fn val_accuracy(&mut self) -> f32 {
        let logits = self.net.forward(&self.val.x, false);
        accuracy(&logits, &self.val.labels)
    }

    /// Tournament score on the local tournament set (lower wins).
    pub fn tournament_score(&mut self) -> f32 {
        let logits = self.net.forward(&self.tournament.x, false);
        cross_entropy_with_logits(&logits, &self.tournament.labels)
    }

    /// Decide a match against a received serialized model; adopt if it
    /// scores better locally. Traditional LTFB exchanges whole models.
    pub fn decide(&mut self, foreign: Bytes) -> bool {
        let own = self.net.weights_to_bytes();
        let own_score = self.tournament_score();
        self.net
            .weights_from_bytes(foreign.clone())
            .expect("foreign model corrupt");
        let foreign_score = self.tournament_score();
        if adopt(own_score, foreign_score) {
            self.opt.reset_state();
            self.adoptions += 1;
            true
        } else {
            self.net
                .weights_from_bytes(own)
                .expect("own snapshot corrupt");
            self.wins += 1;
            false
        }
    }
}

/// Outcome of a classifier population run.
#[derive(Debug, Clone)]
pub struct ClassifierOutcome {
    pub histories: Vec<LossHistory>,
    pub final_ce: Vec<f32>,
    pub final_accuracy: Vec<f32>,
    pub adoptions: u64,
}

impl ClassifierOutcome {
    /// Best (lowest) final cross-entropy and its trainer; finite losses
    /// win over non-finite ones.
    pub fn best(&self) -> (usize, f32) {
        best_score(&self.final_ce)
    }
}

/// Run classifier LTFB with one world rank per trainer; exchanges ride
/// the simulated MPI fabric. Bit-identical to the serial driver (see the
/// protocol-equivalence integration test).
pub fn run_classifier_distributed(cfg: &LtfbConfig) -> ClassifierOutcome {
    let cfg = *cfg;
    let per_rank = ltfb_comm::run_world(cfg.n_trainers, move |comm| {
        let id = comm.rank();
        let mut t = ClassifierTrainer::new(&cfg, id);
        let v = t.validate();
        t.history.record(0, v);
        for step in 1..=cfg.steps {
            t.train_step();
            if cfg.n_trainers >= 2 && cfg.exchange_interval > 0 && step % cfg.exchange_interval == 0
            {
                let round = step / cfg.exchange_interval;
                let partners = pairing(cfg.n_trainers, round, cfg.seed);
                if let Some(p) = partners[id] {
                    let mine = t.net.weights_to_bytes();
                    let tag = 0xC_000 + round;
                    let foreign = comm.sendrecv(p, tag, mine, p, tag);
                    t.decide(foreign);
                }
            }
            if cfg.eval_interval > 0 && step % cfg.eval_interval == 0 {
                let v = t.validate();
                t.history.record(t.step, v);
            }
        }
        (
            t.history.clone(),
            t.validate(),
            t.val_accuracy(),
            t.adoptions,
        )
    });
    let mut out = ClassifierOutcome {
        histories: Vec::new(),
        final_ce: Vec::new(),
        final_accuracy: Vec::new(),
        adoptions: 0,
    };
    for (h, ce, acc, ad) in per_rank {
        out.histories.push(h);
        out.final_ce.push(ce);
        out.final_accuracy.push(acc);
        out.adoptions += ad;
    }
    out
}

/// Run classifier LTFB serially; `tournaments = false` gives the
/// K-independent baseline under identical seeds and budgets.
pub fn run_classifier_population(cfg: &LtfbConfig, tournaments: bool) -> ClassifierOutcome {
    let mut trainers: Vec<ClassifierTrainer> = (0..cfg.n_trainers)
        .map(|t| ClassifierTrainer::new(cfg, t))
        .collect();
    for t in &mut trainers {
        let v = t.validate();
        t.history.record(0, v);
    }
    for step in 1..=cfg.steps {
        for t in &mut trainers {
            t.train_step();
        }
        if tournaments
            && cfg.n_trainers >= 2
            && cfg.exchange_interval > 0
            && step % cfg.exchange_interval == 0
        {
            let round = step / cfg.exchange_interval;
            let partners = pairing(cfg.n_trainers, round, cfg.seed);
            let payloads: Vec<Bytes> = trainers.iter().map(|t| t.net.weights_to_bytes()).collect();
            for (t, p) in partners.iter().enumerate() {
                if let Some(p) = p {
                    trainers[t].decide(payloads[*p].clone());
                }
            }
        }
        if cfg.eval_interval > 0 && step % cfg.eval_interval == 0 {
            for t in &mut trainers {
                let v = t.validate();
                t.history.record(t.step, v);
            }
        }
    }
    let final_ce: Vec<f32> = trainers.iter_mut().map(|t| t.validate()).collect();
    let final_accuracy: Vec<f32> = trainers.iter_mut().map(|t| t.val_accuracy()).collect();
    ClassifierOutcome {
        histories: trainers.iter().map(|t| t.history.clone()).collect(),
        final_ce,
        final_accuracy,
        adoptions: trainers.iter().map(|t| t.adoptions).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: usize) -> LtfbConfig {
        let mut c = LtfbConfig::small(k);
        c.train_samples = 1024;
        c.val_samples = 256;
        c.tournament_samples = 64;
        c.steps = 300;
        c.exchange_interval = 30;
        c.eval_interval = 100;
        c
    }

    #[test]
    fn labels_are_roughly_balanced() {
        let d = classify_data(&JagConfig::small(4), 0, 0, 2000);
        let mut counts = [0usize; N_CLASSES];
        for &l in &d.labels {
            counts[l] += 1;
        }
        for (c, &n) in counts.iter().enumerate() {
            assert!(n > 150, "class {c} has only {n}/2000 samples: {counts:?}");
        }
    }

    #[test]
    fn classifier_learns_the_ignition_quartiles() {
        let mut t = ClassifierTrainer::new(&cfg(1), 0);
        let before = t.val_accuracy();
        for _ in 0..400 {
            t.train_step();
        }
        let after = t.val_accuracy();
        assert!(after > 0.70, "accuracy only {after} (from {before})");
        assert!(after > before);
    }

    #[test]
    fn whole_model_exchange_adopts_better_classifier() {
        // Index silos: the trained model is trained on a representative
        // sample and must win. (On region silos a half-space expert can
        // legitimately lose to a random net on global data — cross-entropy
        // punishes confident wrong answers.)
        let mut c = cfg(2);
        c.partition = PartitionScheme::ByIndex;
        let mut a = ClassifierTrainer::new(&c, 0);
        let mut b = ClassifierTrainer::new(&c, 1);
        for _ in 0..300 {
            a.train_step();
        }
        let trained = a.net.weights_to_bytes();
        assert!(
            b.decide(trained),
            "untrained trainer must adopt the trained model"
        );
        assert_eq!(b.adoptions, 1);
        // And the reverse match keeps the trained model.
        let untrained = ClassifierTrainer::new(&c, 1).net.weights_to_bytes();
        assert!(!a.decide(untrained));
        assert_eq!(a.wins, 1);
    }

    #[test]
    fn ltfb_classifier_beats_independent_on_region_silos() {
        let c = cfg(4);
        let ltfb = run_classifier_population(&c, true);
        let kind = run_classifier_population(&c, false);
        let avg = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(ltfb.adoptions > 0);
        assert!(
            avg(&ltfb.final_ce) < avg(&kind.final_ce),
            "LTFB {:.4} should beat independent {:.4}",
            avg(&ltfb.final_ce),
            avg(&kind.final_ce)
        );
    }

    #[test]
    fn classifier_population_deterministic() {
        let c = cfg(2);
        let a = run_classifier_population(&c, true);
        let b = run_classifier_population(&c, true);
        assert_eq!(a.final_ce, b.final_ce);
        assert_eq!(a.final_accuracy, b.final_accuracy);
    }
}

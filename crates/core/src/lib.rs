//! # ltfb-core
//!
//! The paper's contribution: **LTFB** ("Let a Thousand Flowers Bloom")
//! tournament training of generative models.
//!
//! * [`config`]     — run configuration (population size, intervals,
//!   tournament metric);
//! * [`data`]       — per-trainer data silos, global validation set, and
//!   local tournament sets over the synthetic JAG problem;
//! * [`trainer`]    — a population member: CycleGAN + silo + history;
//! * [`tournament`] — decentralised random pairing, generator exchange,
//!   local evaluation, winner retention (generators travel,
//!   discriminators stay local);
//! * [`ltfb`]       — serial and distributed run drivers (bit-identical
//!   by construction and by test);
//! * [`kindep`]     — the partitioned K-independent baseline of Fig. 13.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod classifier;
pub mod config;
pub mod data;
pub mod kindep;
pub mod ltfb;
pub mod overlap;
pub mod surrogate;
pub mod tournament;
pub mod trainer;
pub mod two_level;

pub use checkpoint::{
    load_population, load_surrogate, resume_ltfb_serial, run_ltfb_partial, save_population,
    save_surrogate, CheckpointError, CheckpointHeader,
};
pub use classifier::{
    classify_data, run_classifier_distributed, run_classifier_population, ClassifierOutcome,
    ClassifierTrainer, ClassifyData, N_CLASSES,
};
pub use config::{LtfbConfig, PartitionScheme, TournamentMetric};
pub use data::{build_trainer_data, pack, partition_ids, train_samples, val_samples, TrainerData};
pub use kindep::run_k_independent;
pub use ltfb::{
    pretrain_global_autoencoder, record_run_outcome, run_ltfb_distributed, run_ltfb_distributed_ft,
    run_ltfb_distributed_ft_obs, run_ltfb_distributed_obs, run_ltfb_serial, run_ltfb_serial_obs,
    run_ltfb_serial_with_models, run_ltfb_with_failures, LtfbObs, RunOutcome,
};
pub use overlap::{dp_train_step_overlapped, DpOverlap};
pub use surrogate::{
    adaptive_sample, optimize_design, DesignOptimum, EnsemblePrediction, PopulationEnsemble,
};
pub use tournament::{adopt, decide_match, pairing, pairing_alive, MatchOutcome};
pub use trainer::Trainer;
pub use two_level::{
    broadcast_replica, dp_train_step, dp_train_step_ws, run_ltfb_two_level, run_ltfb_two_level_obs,
    TwoLevelOutcome,
};

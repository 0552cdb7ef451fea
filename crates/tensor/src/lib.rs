//! # ltfb-tensor
//!
//! Dense `f32` linear algebra for the LTFB reproduction — the stand-in for
//! the Hydrogen/Elemental GPU-accelerated kernels that LBANN builds on.
//!
//! The crate provides:
//! * [`Matrix`] — row-major dense matrix, the container for mini-batches,
//!   weights, activations and gradients;
//! * blocked, Rayon-parallel GEMM in three transpose variants
//!   ([`gemm()`], [`gemm_tn`], [`gemm_nt`]) so the NN stack never has to
//!   materialise a transposed operand;
//! * elementwise/rowwise kernels and the loss primitives (MAE, MSE,
//!   BCE-with-logits) the CycleGAN surrogate uses;
//! * deterministic, seed-mixed initialisers ([`init`]) so every experiment
//!   is bit-reproducible;
//! * a checksummed binary codec ([`serial`]) used for model exchange and
//!   the bundle file format.

#![forbid(unsafe_code)]

pub mod classify;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod quant;
pub mod serial;
mod simd;

pub use classify::{
    accuracy, argmax_rows, cross_entropy_with_logits, cross_entropy_with_logits_grad, softmax_rows,
};
pub use gemm::{
    dot, gemm, gemm_bias_act, gemm_nt, gemm_nt_scalar, gemm_scalar, gemm_tn, gemm_tn_scalar,
    matmul, matmul_naive,
};
pub use init::{
    glorot_uniform, he_normal, mix_seed, normal, permutation, seeded_rng, uniform, TensorRng,
};
pub use matrix::Matrix;
pub use ops::{
    add, add_bias, axpy, bce_with_logits, bce_with_logits_grad, bce_with_logits_grad_into,
    clip_inplace, col_sums, col_sums_into, hadamard, hadamard_into, map, map_inplace, map_into,
    mean_absolute_error, mean_absolute_error_grad, mean_absolute_error_grad_into,
    mean_squared_error, mean_squared_error_grad, row_means, scale, sigmoid, sub, Activation,
};
pub use quant::{
    matmul_q8, q8_preact_error_bound, quantize_rows, quantize_weights, QuantizeError,
    QuantizedActs, QuantizedWeights, MAX_Q8_K,
};
pub use serial::{
    crc32, decode_matrices, decode_matrix, encode_matrices, encode_matrix, encode_matrix_into,
    encoded_len, f32s_from_le, put_f32s_le, DecodeError,
};

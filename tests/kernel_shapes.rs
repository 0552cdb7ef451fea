//! GEMM-family kernels at the model's layer shapes: the SIMD `gemm`,
//! the scalar `gemm_scalar` and the reference `matmul_naive` agree bit
//! for bit, and the int8 `matmul_q8` path stays within its analytic
//! error bound `q8_preact_error_bound`.
//!
//! The shapes are the `CycleGanConfig::small(4)` encoder / decoder /
//! cycle-net layers at mini-batch 32, plus one square cache-resident
//! shape.

use ltfb::tensor::{
    gemm, gemm_bias_act, gemm_scalar, init, matmul_naive, matmul_q8, q8_preact_error_bound,
    quantize_rows, quantize_weights, Activation, Matrix,
};

const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("enc_in", 32, 783, 96),
    ("dec_out", 32, 96, 783),
    ("gen_hidden", 32, 64, 64),
    ("latent", 32, 96, 20),
    ("square256", 256, 256, 256),
];

fn assert_bits_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs");
    }
}

#[test]
fn gemm_kernels_bit_identical_and_int8_within_bound_at_model_shapes() {
    for &(label, m, k, n) in SHAPES {
        let mut rng = init::seeded_rng(2019 ^ (m as u64) << 24 ^ (k as u64) << 12 ^ n as u64);
        let a = init::uniform(m, k, -1.0, 1.0, &mut rng);
        let b = init::uniform(k, n, -0.8, 0.8, &mut rng);
        let bias = init::uniform(1, n, -0.1, 0.1, &mut rng);
        let act = Activation::LeakyRelu(0.1);

        let naive = matmul_naive(&a, &b);
        let mut c = Matrix::zeros(m, n);
        gemm(1.0, &a, &b, 0.0, &mut c);
        assert_bits_equal(&c, &naive, &format!("{label}: gemm vs matmul_naive"));
        gemm_scalar(1.0, &a, &b, 0.0, &mut c);
        assert_bits_equal(&c, &naive, &format!("{label}: gemm_scalar vs matmul_naive"));

        // The pre-activation bound also bounds the LeakyRelu output
        // error: the activation is 1-Lipschitz.
        let qa = quantize_rows(&a);
        let qw = quantize_weights(&b).expect("finite weights");
        let bound = q8_preact_error_bound(&qa, &qw);
        let mut q8_out = Matrix::zeros(m, n);
        matmul_q8(&qa, &qw, bias.as_slice(), act, &mut q8_out);
        let mut f32_out = Matrix::zeros(m, n);
        gemm_bias_act(1.0, &a, &b, 0.0, &mut f32_out, &bias, act);
        let err = q8_out
            .as_slice()
            .iter()
            .zip(f32_out.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(
            err <= bound,
            "{label}: int8 max-abs error {err} exceeds the analytic bound {bound}"
        );
    }
}

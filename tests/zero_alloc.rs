//! The workspace training path's defining property, asserted exactly:
//! after one warm-up pass, a steady-state `train_step_ws` performs ZERO
//! heap allocations.
//!
//! This file must hold exactly one test: the counting allocator is
//! process-global, so a concurrently running test in the same binary
//! would pollute the measured region.

use ltfb::gan::{batch_from_samples, CycleGan, CycleGanConfig};
use ltfb::jag::{r2_point, JagSimulator, Sample};
use ltfb::nn::Workspace;
use ltfb::tensor::Matrix;
use ltfb_alloccount::{counts, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_train_step_ws_allocates_nothing() {
    let cfg = CycleGanConfig::small(4);
    let sim = JagSimulator::new(cfg.jag);
    let samples: Vec<Sample> = (0..96u64).map(|i| sim.simulate(r2_point(i))).collect();
    let batches: Vec<(Matrix, Matrix)> = samples
        .chunks(32)
        .map(|chunk| {
            let refs: Vec<&Sample> = chunk.iter().collect();
            batch_from_samples(&cfg, &refs)
        })
        .collect();

    let mut gan = CycleGan::new(cfg, 7);
    let mut ws = Workspace::new();
    // Warm-up: one pass over every batch shape fills the pool, the layer
    // caches and the Adam state.
    for (x, y) in &batches {
        gan.train_step_ws(x, y, &mut ws);
    }

    let misses_before = ws.misses();
    let before = counts();
    for round in 0..3 {
        for (x, y) in &batches {
            gan.train_step_ws(x, y, &mut ws);
        }
        let _ = round;
    }
    let delta = counts().since(before);
    assert_eq!(
        delta.allocs, 0,
        "steady-state workspace step allocated: {} allocs / {} bytes over 9 steps",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.bytes, 0);
    assert_eq!(
        ws.misses(),
        misses_before,
        "workspace pool missed after warm-up"
    );
}

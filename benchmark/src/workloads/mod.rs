//! The six workloads. Each has an untraced end-to-end run and a traced
//! per-layer run sharing the same workload code.

pub mod serve;
pub mod store;
pub mod train;

use crate::{Opts, Outcome, Workload};

/// Run `opts.workload` in this process, in the mode `opts.trace` names.
pub fn run(opts: &Opts) -> Outcome {
    match (opts.workload, opts.trace) {
        (Workload::TrainSerial | Workload::TrainDp | Workload::TrainLtfb, false) => {
            train::run_e2e(opts)
        }
        (Workload::TrainSerial | Workload::TrainDp | Workload::TrainLtfb, true) => {
            train::run_traced(opts)
        }
        (Workload::StoreOoc, false) => store::run_e2e(opts),
        (Workload::StoreOoc, true) => store::run_traced(opts),
        (Workload::ServeSteady | Workload::ServeSaturation, false) => serve::run_e2e(opts),
        (Workload::ServeSteady | Workload::ServeSaturation, true) => serve::run_traced(opts),
    }
}

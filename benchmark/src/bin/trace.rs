//! The traced binary: spans on, `ltfb_alloccount::CountingAlloc`
//! installed. It runs one short traced rep per workload and prints the
//! per-layer metrics; end-to-end numbers never come from here.

use ltfb_alloccount::CountingAlloc;
use ltfb_benchmark::{parse_opts, rerun_pinned, run_and_emit, Opts};
use std::process::exit;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_opts(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let opts = Opts {
        trace: true,
        ..opts
    };
    exit(rerun_pinned(&opts, &args).unwrap_or_else(|| run_and_emit(&opts)));
}

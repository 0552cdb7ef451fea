//! The untraced binary: the only source of end-to-end numbers.
//!
//! * `benchmark --workload W --seed N --seconds S --trace 0|1` — one
//!   workload in the driver's contract (`--trace 1` hands over to the
//!   `trace` sibling, which carries the spans and the counting
//!   allocator);
//! * `benchmark compare A.json B.json` — the regression rule;
//! * `benchmark [--seed N] [--workload W] [--seconds S] [--out F]` —
//!   the whole suite, each workload in its own child process.

use ltfb_benchmark::{compare, parse_opts, rerun_pinned, run_and_emit, suite};
use std::path::Path;
use std::process::{exit, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = &args[..] else {
            eprintln!("usage: benchmark compare A.json B.json");
            exit(2);
        };
        exit(compare::run(Path::new(a), Path::new(b)));
    }
    // The driver's contract always names the mode; the suite never does.
    if !args.iter().any(|a| a == "--trace") {
        exit(suite::run(&args));
    }
    let opts = parse_opts(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    if !opts.trace {
        exit(rerun_pinned(&opts, &args).unwrap_or_else(|| run_and_emit(&opts)));
    }
    let status = suite::binary_for(true)
        .and_then(|exe| Command::new(exe).args(&args).status())
        .unwrap_or_else(|e| {
            eprintln!("cannot run the trace binary: {e}");
            exit(2);
        });
    exit(status.code().unwrap_or(1));
}

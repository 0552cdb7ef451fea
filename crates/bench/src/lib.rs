//! # ltfb-bench
//!
//! The evaluation harness: one binary per figure of the paper (the paper
//! has no numbered tables; every quantitative result is a figure), plus
//! the ablation binaries. Wall-clock performance of the implementation
//! is measured by the separate `benchmark/` package, not here.
//!
//! Each `fig*` binary prints the same rows/series the paper reports and
//! writes a CSV next to the repository under `results/`.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;

/// Directory the fig binaries write CSVs into.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("LTFB_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("cannot create results dir");
    p
}

/// Write rows as CSV (first row = header).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{}", header.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    path
}

/// Print an aligned table: header + rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Banner shared by the fig binaries.
pub fn banner(fig: &str, what: &str) {
    println!("==================================================================");
    println!("{fig}: {what}");
    println!("  (reproduction of Jacobs et al., CLUSTER 2019 — shapes/ratios are");
    println!("   the target; absolute values come from the calibrated simulator");
    println!("   or laptop-scale training, see EXPERIMENTS.md)");
    println!("==================================================================");
}

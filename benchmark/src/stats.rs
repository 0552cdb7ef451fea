//! Order statistics for reps and latencies: median, relative MAD and
//! nearest-rank percentiles. Every end-to-end value the benchmark
//! reports is a median over timed reps, carried with its rep count and
//! relative MAD so `compare` can tell "unchanged" from "unresolved".

/// Sort a copy ascending (total order; NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle elements for even n).
/// Panics on an empty slice: every caller has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median absolute deviation as a share of the median (0 for n < 2 or a
/// zero median).
pub fn rel_mad(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev) / m.abs()
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A reported value: the median over `n` reps and their relative MAD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub rel_mad: f64,
}

impl Summary {
    /// Median over reps.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            value: median(values),
            n: values.len(),
            rel_mad: rel_mad(values),
        }
    }

    /// A single measurement (no spread information).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            n: 1,
            rel_mad: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // deviations from 2: 1, 0, 1, 8 -> median 1 -> 0.5 of the median
        assert_eq!(rel_mad(&[1.0, 2.0, 3.0, 10.0, 2.0]), 0.5);
        assert_eq!(rel_mad(&[5.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}

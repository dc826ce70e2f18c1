//! Order statistics over per-rep samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quantile by linear interpolation between closest ranks
/// (`h = (n-1)·q`). `sorted` must be ascending and non-empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// Median, quartiles and count of `xs`. An empty slice summarizes to
/// zeros so a missing measurement prints as 0 rather than panicking.
pub fn summarize(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        };
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        n: s.len(),
    }
}

/// Quantile `q` of unsorted `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    quantile_sorted(&s, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (17.5, 25.0, 32.5));
        assert!((s.spread() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn quantile_matches_summary() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 9.0);
        assert_eq!(quantile(&xs, 0.5), summarize(&xs).median);
    }
}

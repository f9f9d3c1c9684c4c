//! Order statistics over raw samples.

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice; 0 when
/// empty.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 500.0);
        assert_eq!(quantile_sorted(&v, 0.999), 999.0);
        assert_eq!(quantile_sorted(&v, 1.0), 1000.0);
        assert_eq!(quantile_sorted(&[7], 0.999), 7.0);
    }
}

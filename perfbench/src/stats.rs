//! Order statistics for the benchmark's reports.

/// Fewest samples that must lie beyond a percentile before it is printed.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample with at least `p`% of all samples at or below it.
///
/// Refuses (returns an error) when fewer than [`MIN_BEYOND`] samples lie
/// beyond it, since such a tail is set by a handful of outliers.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let n = samples.len();
    // 1-based rank; the small epsilon keeps p·n from rounding up when it
    // is an exact integer in decimal but not in binary (e.g. 90% of 100).
    let rank = ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; need {MIN_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a few repeated measurements of one quantity (lower middle
/// for an even count). Unlike [`percentile`] it describes no tail, so it
/// needs no samples beyond it.
pub fn median(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("median of no samples".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[(sorted.len() - 1) / 2])
}

/// Arithmetic mean (per-query counts).
pub fn mean(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("mean of no samples".into());
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&v, 0.5), Ok(1.0));
        // Rank is ceil(p·n): p50 of 21 samples is the 11th.
        assert_eq!(percentile(&one_to(21), 50.0), Ok(11.0));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut v = one_to(200);
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Ok(180.0));
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_beyond() {
        // p90 of 100 has exactly ten beyond it; of 99, only nine.
        assert!(percentile(&one_to(100), 90.0).is_ok());
        assert!(percentile(&one_to(99), 90.0).is_err());
        assert!(percentile(&one_to(999), 99.0).is_err());
        assert!(percentile(&one_to(1000), 99.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&one_to(19), 50.0).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.0));
        assert!(median(&[]).is_err());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Ok(3.0));
    }
}

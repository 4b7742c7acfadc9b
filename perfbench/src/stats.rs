//! Order statistics over recorded samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule;
/// sorts in place. `None` when there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// [`quantile`] of a borrowed sample, 0 when there are no samples.
pub fn q(samples: &[f64], p: f64) -> f64 {
    quantile(&mut samples.to_vec(), p).unwrap_or(0.0)
}

/// Median of a handful of repeated measurements.
pub fn median(mut samples: Vec<f64>) -> f64 {
    quantile(&mut samples, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.9), Some(90.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }
}

//! Estimators for timings taken on a host whose slowdowns are one-sided
//! and last seconds (README, "Noise").

/// Mean of the fastest tenth of `samples` (at least one sample): 3 of 30
/// chunks, the single fastest of 3–9 child invocations. Slow spells only
/// ever add time, so the fast tail is the part of the distribution that
/// repeats between runs.
pub fn fastest_decile(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let k = (s.len() / 10).max(1);
    s[..k].iter().sum::<f64>() / k as f64
}

/// Quantile `q` in `[0, 1]` with linear interpolation between order
/// statistics (the "inclusive" method: `q = 0` is the minimum, `q = 1`
/// the maximum).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_decile_takes_a_tenth_and_at_least_one() {
        // 30 samples → mean of the 3 fastest, whatever their order.
        let mut s: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(fastest_decile(&s), 2.0);
        s.rotate_left(7);
        assert_eq!(fastest_decile(&s), 2.0);
        // Fewer than 20 samples → the single fastest.
        assert_eq!(fastest_decile(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(fastest_decile(&[7.5]), 7.5);
        // A slow spell covering two thirds of the run does not move it.
        let mut noisy = vec![1.0; 10];
        noisy.extend([1.5; 20]);
        assert_eq!(fastest_decile(&noisy), 1.0);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.75), 3.25);
        assert_eq!(median(&[9.0]), 9.0);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
    }
}

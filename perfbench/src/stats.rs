//! Order statistics for timing samples.

/// Minimum, median and tail of a sample set.
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    /// The value at `tail_q`.
    pub tail: f64,
    /// The highest quantile (at most 0.99, at least 0.5) with at least
    /// ten samples beyond it.
    pub tail_q: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_q = if n == 0 {
            0.5
        } else {
            (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
        };
        Summary {
            n,
            min: quantile(&sorted, 0.0),
            p50: quantile(&sorted, 0.5),
            tail: quantile(&sorted, tail_q),
            tail_q,
        }
    }
}

/// Linearly interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

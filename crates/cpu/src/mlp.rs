//! Memory-level-parallelism measurement.
//!
//! MLP is the average number of outstanding DRAM requests over the cycles
//! during which at least one is outstanding (Chou et al. \[32\], the
//! definition the paper's Section IV-A uses).

use droplet_trace::Cycle;

/// MLP summary of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpStats {
    /// Average outstanding DRAM requests while any are outstanding.
    pub avg_outstanding: f64,
    /// Cycles with at least one outstanding DRAM request.
    pub busy_cycles: u64,
    /// Total DRAM request-latency cycles (sum over requests).
    pub latency_sum: u64,
    /// Number of DRAM requests observed.
    pub requests: u64,
}

/// Computes MLP from `(issue, complete)` intervals via a sweep line.
///
/// # Example
///
/// ```
/// use droplet_cpu::mlp_of_intervals;
/// // Two fully-overlapping requests: MLP 2.
/// let stats = mlp_of_intervals(&[(0, 100), (0, 100)]);
/// assert!((stats.avg_outstanding - 2.0).abs() < 1e-12);
/// // Two disjoint requests: MLP 1.
/// let stats = mlp_of_intervals(&[(0, 100), (200, 300)]);
/// assert!((stats.avg_outstanding - 1.0).abs() < 1e-12);
/// ```
pub fn mlp_of_intervals(intervals: &[(Cycle, Cycle)]) -> MlpStats {
    let requests = intervals.len() as u64;
    if requests == 0 {
        return MlpStats {
            avg_outstanding: 0.0,
            busy_cycles: 0,
            latency_sum: 0,
            requests: 0,
        };
    }
    let latency_sum: u64 = intervals.iter().map(|&(a, b)| b.saturating_sub(a)).sum();
    // Event sweep: +1 at issue, −1 at complete. Issue and completion times
    // are kept in separate arrays rather than one interleaved event list:
    // the DRAM bus hands back demand completions in nondecreasing order, so
    // `completes` is almost always already sorted and the dominant cost of
    // the old single-list version — sorting 2n tagged events — drops to
    // sorting the n issue times.
    let n = intervals.len();
    let mut issues: Vec<Cycle> = Vec::with_capacity(n);
    let mut completes: Vec<Cycle> = Vec::with_capacity(n);
    for &(a, b) in intervals.iter() {
        issues.push(a);
        completes.push(b);
    }
    issues.sort_unstable();
    if !completes.is_sorted() {
        completes.sort_unstable();
    }
    let mut outstanding = 0i64;
    let mut busy_cycles = 0u64;
    let mut last_t = 0;
    let mut i = 0;
    // Two-pointer merge. Ties go to the completion (as the old sort's
    // (time, −1) < (time, +1) ordering did), though same-time event order
    // cannot change `busy_cycles`: the accrual for a timestamp happens on
    // its first event only. Issues left over once every completion is
    // processed all share the final timestamp, so they accrue nothing.
    for &comp in &completes {
        while i < n && issues[i] < comp {
            if outstanding > 0 {
                busy_cycles += issues[i] - last_t;
            }
            outstanding += 1;
            last_t = issues[i];
            i += 1;
        }
        if outstanding > 0 {
            busy_cycles += comp - last_t;
        }
        outstanding -= 1;
        last_t = comp;
    }
    let avg = if busy_cycles == 0 {
        0.0
    } else {
        latency_sum as f64 / busy_cycles as f64
    };
    MlpStats {
        avg_outstanding: avg,
        busy_cycles,
        latency_sum,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let s = mlp_of_intervals(&[]);
        assert_eq!(s.avg_outstanding, 0.0);
        assert_eq!(s.requests, 0);
    }

    #[test]
    fn partial_overlap() {
        // [0,100) and [50,150): 200 latency cycles over 150 busy ⇒ 4/3.
        let s = mlp_of_intervals(&[(0, 100), (50, 150)]);
        assert!((s.avg_outstanding - 200.0 / 150.0).abs() < 1e-12);
        assert_eq!(s.busy_cycles, 150);
        assert_eq!(s.latency_sum, 200);
        assert_eq!(s.requests, 2);
    }

    #[test]
    fn serialized_chain_has_mlp_one() {
        let s = mlp_of_intervals(&[(0, 10), (10, 20), (20, 30)]);
        assert!((s.avg_outstanding - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let s = mlp_of_intervals(&[(200, 300), (0, 100)]);
        assert!((s.avg_outstanding - 1.0).abs() < 1e-12);
    }

    /// The two-pointer merge must agree with a brute-force per-cycle count
    /// on adversarial overlap patterns, including out-of-order completions
    /// and zero-length intervals.
    #[test]
    fn matches_per_cycle_model() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rnd = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for case in 0..50 {
            let n = 1 + case % 7;
            let intervals: Vec<(Cycle, Cycle)> = (0..n)
                .map(|_| {
                    let a = rnd(40);
                    (a, a + rnd(30))
                })
                .collect();
            let s = mlp_of_intervals(&intervals);
            let busy = (0..80u64)
                .filter(|&t| intervals.iter().any(|&(a, b)| a <= t && t < b))
                .count() as u64;
            assert_eq!(s.busy_cycles, busy, "intervals {intervals:?}");
        }
    }
}

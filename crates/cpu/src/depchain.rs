//! Load-load dependency-chain profiling (paper Observations #2 and #3).
//!
//! For every load we follow its address dependency backward; if the
//! producer is an older *load* still inside the instruction window, the two
//! form a producer→consumer pair that cannot be parallelized. Chains are
//! maximal linked sequences of such pairs. The report gives the fraction of
//! loads participating in chains, the mean chain length, and the
//! producer/consumer role breakdown by data type (Fig. 6).

use droplet_trace::{DataType, MemOp};

/// Dependency-chain report over one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChainReport {
    /// Total loads inspected.
    pub loads: u64,
    /// Loads that participate in at least one chain.
    pub loads_in_chains: u64,
    /// Number of maximal chains.
    pub chains: u64,
    /// Sum of chain lengths (loads per chain), for the mean.
    pub chain_len_sum: u64,
    /// Loads acting as a producer, by data type index.
    pub producers: [u64; 3],
    /// Loads acting as a consumer, by data type index.
    pub consumers: [u64; 3],
}

impl ChainReport {
    /// Fraction of loads participating in dependency chains (the paper
    /// reports 43.2 % on average).
    pub fn chained_fraction(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.loads_in_chains as f64 / self.loads as f64
        }
    }

    /// Mean chain length in loads (paper: ~2.5).
    pub fn mean_chain_len(&self) -> f64 {
        if self.chains == 0 {
            0.0
        } else {
            self.chain_len_sum as f64 / self.chains as f64
        }
    }

    /// Fraction of all loads that act as a producer of type `dtype`.
    pub fn producer_fraction(&self, dtype: DataType) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.producers[dtype.index()] as f64 / self.loads as f64
        }
    }

    /// Fraction of all loads that act as a consumer of type `dtype`.
    pub fn consumer_fraction(&self, dtype: DataType) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.consumers[dtype.index()] as f64 / self.loads as f64
        }
    }
}

/// Analyzes load-load chains with producers within `window` ops (the
/// instruction-window analogue; ops are the granularity traces record).
pub fn analyze_chains(ops: &[MemOp], window: u32) -> ChainReport {
    let mut report = ChainReport::default();
    // chain id per op (loads only), or u32::MAX.
    const NONE: u32 = u32::MAX;
    let mut chain_of: Vec<u32> = vec![NONE; ops.len()];
    let mut chain_sizes: Vec<u64> = Vec::new();
    let mut is_producer: Vec<bool> = vec![false; ops.len()];
    let mut is_consumer: Vec<bool> = vec![false; ops.len()];

    for (i, op) in ops.iter().enumerate() {
        if !op.is_load() {
            continue;
        }
        report.loads += 1;
        let Some(back) = op.producer_back() else {
            continue;
        };
        if back > window {
            continue; // producer left the window; no in-flight serialization
        }
        let p = i - back as usize;
        let producer = &ops[p];
        if !producer.is_load() {
            continue;
        }
        // Link into the producer's chain (or start a new one).
        let cid = if chain_of[p] != NONE {
            chain_of[p]
        } else {
            let cid = chain_sizes.len() as u32;
            chain_sizes.push(1); // the producer joins
            chain_of[p] = cid;
            cid
        };
        chain_of[i] = cid;
        chain_sizes[cid as usize] += 1;
        if !is_producer[p] {
            is_producer[p] = true;
            report.producers[producer.dtype().index()] += 1;
        }
        if !is_consumer[i] {
            is_consumer[i] = true;
            report.consumers[op.dtype().index()] += 1;
        }
    }

    report.chains = chain_sizes.len() as u64;
    report.chain_len_sum = chain_sizes.iter().sum();
    for (i, &cid) in chain_of.iter().enumerate() {
        if cid != NONE && ops[i].is_load() {
            report.loads_in_chains += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_trace::{AccessKind, OpId, VirtAddr};

    fn load(id: u64, dtype: DataType, producer: Option<u64>) -> MemOp {
        MemOp::new(
            VirtAddr::new(64 * (id + 1)),
            AccessKind::Load,
            dtype,
            producer.map(OpId),
            OpId(id),
            0,
        )
    }

    fn store(id: u64, dtype: DataType, producer: Option<u64>) -> MemOp {
        MemOp::new(
            VirtAddr::new(64 * (id + 1)),
            AccessKind::Store,
            dtype,
            producer.map(OpId),
            OpId(id),
            0,
        )
    }

    const S: DataType = DataType::Structure;
    const P: DataType = DataType::Property;

    #[test]
    fn single_pair_forms_one_chain_of_two() {
        let ops = vec![load(0, S, None), load(1, P, Some(0)), load(2, S, None)];
        let r = analyze_chains(&ops, 128);
        assert_eq!(r.loads, 3);
        assert_eq!(r.chains, 1);
        assert_eq!(r.loads_in_chains, 2);
        assert!((r.mean_chain_len() - 2.0).abs() < 1e-12);
        assert!((r.chained_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.producers[S.index()], 1);
        assert_eq!(r.consumers[P.index()], 1);
    }

    #[test]
    fn three_link_chain_counts_once() {
        let ops = vec![load(0, P, None), load(1, P, Some(0)), load(2, P, Some(1))];
        let r = analyze_chains(&ops, 128);
        assert_eq!(r.chains, 1);
        assert_eq!(r.loads_in_chains, 3);
        assert!((r.mean_chain_len() - 3.0).abs() < 1e-12);
        // The middle load is both producer and consumer.
        assert_eq!(r.producers[P.index()], 2);
        assert_eq!(r.consumers[P.index()], 2);
    }

    #[test]
    fn window_excludes_distant_producers() {
        let mut ops = vec![load(0, S, None)];
        for i in 1..200u64 {
            ops.push(load(i, S, None));
        }
        ops.push(load(200, P, Some(0)));
        let r = analyze_chains(&ops, 128);
        assert_eq!(r.chains, 0, "producer 200 ops back is outside a 128 window");
        let r = analyze_chains(&ops, 256);
        assert_eq!(r.chains, 1);
    }

    #[test]
    fn store_producers_do_not_form_load_load_chains() {
        let ops = vec![store(0, S, None), load(1, P, Some(0))];
        let r = analyze_chains(&ops, 128);
        assert_eq!(r.chains, 0);
        assert_eq!(r.loads, 1);
    }

    #[test]
    fn fan_out_from_one_producer_grows_one_chain() {
        // One structure load feeding three property loads (BC-like).
        let ops = vec![
            load(0, S, None),
            load(1, P, Some(0)),
            load(2, P, Some(0)),
            load(3, P, Some(0)),
        ];
        let r = analyze_chains(&ops, 128);
        assert_eq!(r.chains, 1);
        assert_eq!(r.loads_in_chains, 4);
        assert_eq!(r.producers[S.index()], 1);
        assert_eq!(r.consumers[P.index()], 3);
    }

    #[test]
    fn empty_trace() {
        let r = analyze_chains(&[], 128);
        assert_eq!(r.loads, 0);
        assert_eq!(r.chained_fraction(), 0.0);
        assert_eq!(r.mean_chain_len(), 0.0);
    }
}

//! PageRank — pull-style gather over CSR neighbor lists.
//!
//! Per iteration: a contribution pass (`contrib[u] = scores[u] / deg(u)`)
//! followed by a gather pass in which every vertex sums the contributions
//! of its neighbors. The gather's `contrib[neighbors[i]]` loads are the
//! canonical structure→property dependency chain of the paper's
//! Observation #3. The CSR is interpreted as incoming neighbor lists, with
//! the CSR degree as the contribution normalizer (exact on symmetric
//! graphs; the access pattern — which is what the simulator studies — is
//! identical either way).

use crate::mem::{GraphArrays, StructureImage};
use crate::{budget_hit, Algorithm, Digest, TraceBundle};
use droplet_graph::Csr;
use droplet_trace::{AddressSpace, DataType, Tracer, VecTracer};
use std::sync::Arc;

/// Damping factor, as in GAP.
const DAMPING: f64 = 0.85;
/// Fixed iteration count for deterministic digests.
pub const ITERATIONS: usize = 10;

/// Reference PageRank: `ITERATIONS` synchronous pull iterations.
pub fn reference(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - DAMPING) / n as f64;
    let mut scores = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0f64; n];
    for _ in 0..ITERATIONS {
        for u in 0..n {
            let deg = g.out_degree(u as u32);
            contrib[u] = if deg == 0 {
                0.0
            } else {
                scores[u] / deg as f64
            };
        }
        #[allow(clippy::needless_range_loop)]
        for u in 0..n {
            let sum: f64 = g
                .neighbors(u as u32)
                .iter()
                .map(|&v| contrib[v as usize])
                .sum();
            scores[u] = base + DAMPING * sum;
        }
    }
    scores
}

/// Traced PageRank; computes exactly what [`reference()`] computes.
pub fn traced(
    g: &Arc<Csr>,
    mut space: AddressSpace,
    arrays: GraphArrays,
    budget: u64,
) -> TraceBundle {
    let n = g.num_vertices() as usize;
    let contrib = space.alloc_array("contrib", DataType::Property, 8, n as u64);
    let scores_arr = space.alloc_array("scores", DataType::Property, 8, n as u64);
    let funcmem = StructureImage::new(g.clone(), &arrays);
    let mut t = VecTracer::new(space, budget);

    let base = if n == 0 {
        0.0
    } else {
        (1.0 - DAMPING) / n as f64
    };
    let mut scores = vec![if n == 0 { 0.0 } else { 1.0 / n as f64 }; n];
    let mut contrib_v = vec![0.0f64; n];
    let mut completed = true;

    'outer: for iteration in 0..ITERATIONS {
        // Contribution pass. The first one runs before the region of
        // interest opens (the paper's ROI starts inside the iterative
        // kernel, and the gather phase is ~95% of a real iteration's time);
        // it is computed functionally but emits no ops, so a budget-limited
        // window samples the representative gather-dominated mix.
        let in_roi = iteration > 0;
        for u in 0..n {
            if budget_hit(&t) {
                completed = false;
                break 'outer;
            }
            if in_roi {
                t.compute(2);
                t.load(scores_arr.addr_of(u as u64), DataType::Property, None);
                arrays.load_offsets(&mut t, u as u32);
                t.store(contrib.addr_of(u as u64), DataType::Property, None);
            }
            let deg = g.out_degree(u as u32);
            contrib_v[u] = if deg == 0 {
                0.0
            } else {
                scores[u] / deg as f64
            };
        }
        // Gather pass.
        #[allow(clippy::needless_range_loop)]
        for u in 0..n {
            if budget_hit(&t) {
                completed = false;
                break 'outer;
            }
            t.compute(4);
            let o = arrays.load_offsets(&mut t, u as u32);
            let mut sum = 0.0f64;
            let mut producer = Some(o);
            for i in g.edge_range(u as u32) {
                let s = arrays.load_neighbor(&mut t, i, producer.take());
                let v = g.targets()[i as usize] as usize;
                t.load(contrib.addr_of(v as u64), DataType::Property, Some(s));
                t.compute(3);
                sum += contrib_v[v];
            }
            t.store(scores_arr.addr_of(u as u64), DataType::Property, None);
            scores[u] = base + DAMPING * sum;
        }
    }

    let digest = Digest::Floats(scores);
    TraceBundle::assemble(
        Algorithm::Pr,
        t,
        funcmem,
        contrib.base(),
        8,
        n as u64,
        completed,
        digest,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_graph::CsrBuilder;

    fn chain() -> Arc<Csr> {
        // 0 <-> 1 <-> 2 (symmetric chain).
        Arc::new(
            CsrBuilder::new(3)
                .edge(0, 1)
                .edge(1, 0)
                .edge(1, 2)
                .edge(2, 1)
                .build(),
        )
    }

    #[test]
    fn scores_sum_to_one() {
        let g = chain();
        let s = reference(&g);
        let sum: f64 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        // Middle vertex of a chain ranks highest.
        assert!(s[1] > s[0] && s[1] > s[2]);
    }

    #[test]
    fn traced_matches_reference_bitwise() {
        let g = chain();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        assert!(bundle.completed);
        let Digest::Floats(got) = bundle.digest else {
            panic!("wrong digest kind")
        };
        assert_eq!(got, reference(&g));
    }

    #[test]
    fn trace_contains_structure_to_property_chains() {
        let g = chain();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        let mut chained = 0;
        for (i, op) in bundle.ops.iter().enumerate() {
            if op.dtype() == DataType::Property && op.is_load() {
                if let Some(p) = op.producer_back() {
                    let prod = &bundle.ops[i - p as usize];
                    assert_eq!(prod.dtype(), DataType::Structure);
                    chained += 1;
                }
            }
        }
        assert!(chained > 0, "no dependency chains recorded");
    }

    #[test]
    fn budget_cuts_the_run_short() {
        let g = chain();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, 10);
        assert!(!bundle.completed);
        assert!(bundle.len() >= 10);
        assert!(bundle.len() < 40);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Arc::new(CsrBuilder::new(0).build());
        assert!(reference(&g).is_empty());
    }
}

//! Single-source shortest paths — delta-stepping with distance buckets.
//!
//! The bucket (bin) structures are *intermediate* data; `dist` is the
//! property array. Weighted graphs pack the edge weight next to the
//! neighbor ID in an 8-byte structure element, so the MPP scans at 8 B
//! granularity (Section V-C2).

use crate::mem::{GraphArrays, StructureImage};
use crate::{budget_hit, pick_source, Algorithm, Digest, TraceBundle};
use droplet_graph::Csr;
use droplet_trace::{AddressSpace, DataType, Tracer, VecTracer};
use std::sync::Arc;

/// Unreached distance sentinel.
pub const INF: u32 = u32::MAX;
/// Bucket width. With weights in 1..=255 this keeps tens of buckets live.
pub const DELTA: u32 = 16;

/// Reference delta-stepping from [`pick_source`]; returns distances.
///
/// # Panics
///
/// Panics if the graph is unweighted.
pub fn reference(g: &Csr) -> Vec<u32> {
    run(g, None, u64::MAX).0
}

/// Traced SSSP; computes exactly what [`reference()`] computes.
pub fn traced(
    g: &Arc<Csr>,
    mut space: AddressSpace,
    arrays: GraphArrays,
    budget: u64,
) -> TraceBundle {
    let n = g.num_vertices() as usize;
    let dist_arr = space.alloc_array("dist", DataType::Property, 4, n as u64);
    // Bins modeled as a ring of intermediate storage.
    let bins_arr = space.alloc_array("bins", DataType::Intermediate, 4, (n as u64).max(1) * 2);
    let funcmem = StructureImage::new(g.clone(), &arrays);
    let mut t = VecTracer::new(space, budget);

    let (dist, completed) = run(g, Some((&mut t, &arrays, &dist_arr, &bins_arr)), budget);

    let digest = Digest::Ints(dist);
    TraceBundle::assemble(
        Algorithm::Sssp,
        t,
        funcmem,
        dist_arr.base(),
        4,
        n as u64,
        completed,
        digest,
    )
}

type TraceCtx<'a> = (
    &'a mut VecTracer,
    &'a GraphArrays,
    &'a droplet_trace::ArrayRegion,
    &'a droplet_trace::ArrayRegion,
);

/// Shared body: runs delta-stepping, optionally emitting trace ops.
fn run(g: &Csr, mut ctx: Option<TraceCtx<'_>>, _budget: u64) -> (Vec<u32>, bool) {
    assert!(g.is_weighted(), "SSSP needs a weighted graph");
    let n = g.num_vertices() as usize;
    let mut dist = vec![INF; n];
    if n == 0 {
        return (dist, true);
    }
    let src = pick_source(g);
    dist[src as usize] = 0;
    // Each bin entry remembers the ring slot it was pushed into.
    let mut bins: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 1];
    let ring_cap = (n as u64).max(1) * 2;
    let mut pushes = 0u64;
    bins[0].push((src, 0));
    pushes += 1;

    let mut completed = true;
    let mut k = 0usize;
    'outer: while k < bins.len() {
        while let Some((u, slot)) = bins[k].pop() {
            if let Some((t, ..)) = ctx.as_mut() {
                if budget_hit(t) {
                    completed = false;
                    break 'outer;
                }
            }
            let du = dist[u as usize];
            if let Some((t, arrays, dist_arr, bins_arr)) = ctx.as_mut() {
                t.compute(2);
                t.load(bins_arr.addr_of(slot), DataType::Intermediate, None);
                t.load(dist_arr.addr_of(u64::from(u)), DataType::Property, None);
                t.compute(1);
                if du / DELTA == k as u32 {
                    arrays.load_offsets(*t, u);
                }
            }
            // Stale entry: the vertex was settled into an earlier bucket.
            if du / DELTA != k as u32 {
                continue;
            }
            let weights = g.edge_weights(u);
            let range = g.edge_range(u);
            let mut producer_first = true;
            for (off, i) in range.clone().enumerate() {
                let v = g.targets()[i as usize];
                let w = weights[off];
                let nd = du.saturating_add(w);
                let mut s_op = None;
                if let Some((t, arrays, dist_arr, _)) = ctx.as_mut() {
                    let producer = if producer_first {
                        // First structure load depends on the offsets load,
                        // which was the most recent intermediate load.
                        None
                    } else {
                        None
                    };
                    producer_first = false;
                    let s = arrays.load_neighbor(*t, i, producer);
                    s_op = Some(s);
                    t.load(dist_arr.addr_of(u64::from(v)), DataType::Property, Some(s));
                    t.compute(3);
                }
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    let bucket = (nd / DELTA) as usize;
                    if bucket >= bins.len() {
                        bins.resize(bucket + 1, Vec::new());
                    }
                    let slot = pushes % ring_cap;
                    pushes += 1;
                    bins[bucket].push((v, slot));
                    if let Some((t, _, dist_arr, bins_arr)) = ctx.as_mut() {
                        t.store(dist_arr.addr_of(u64::from(v)), DataType::Property, s_op);
                        t.store(bins_arr.addr_of(slot), DataType::Intermediate, None);
                    }
                }
            }
        }
        k += 1;
    }
    (dist, completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_graph::CsrBuilder;

    fn weighted() -> Arc<Csr> {
        // 3 is the max-degree source: 3->0 (1), 3->1 (10), 3->2 (2), 0->1 (2).
        let mut b = CsrBuilder::new(4);
        b.push_weighted_edge(3, 0, 1);
        b.push_weighted_edge(3, 1, 10);
        b.push_weighted_edge(3, 2, 2);
        b.push_weighted_edge(0, 1, 2);
        Arc::new(b.build())
    }

    #[test]
    fn distances_match_dijkstra() {
        let g = weighted();
        let d = reference(&g);
        assert_eq!(d[3], 0);
        assert_eq!(d[0], 1);
        assert_eq!(d[2], 2);
        assert_eq!(d[1], 3); // via 0, not the direct weight-10 edge
    }

    #[test]
    fn traced_matches_reference() {
        let g = weighted();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        assert!(bundle.completed);
        assert_eq!(bundle.digest, Digest::Ints(reference(&g)));
        assert_eq!(bundle.prop_elem_bytes, 4);
        use droplet_trace::FunctionalMemory as _;
        assert_eq!(bundle.funcmem.scan_granularity(), 8);
    }

    #[test]
    fn dijkstra_cross_check_on_grid() {
        let g = Arc::new(droplet_graph::gen::grid_weighted(6, 6, 0, 11));
        let got = reference(&g);
        // Binary-heap Dijkstra oracle.
        let src = pick_source(&g);
        let n = g.num_vertices() as usize;
        let mut dist = vec![INF; n];
        dist[src as usize] = 0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u32, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            let ws = g.edge_weights(u);
            for (off, &v) in g.neighbors(u).iter().enumerate() {
                let nd = d + ws[off];
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        assert_eq!(got, dist);
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let mut b = CsrBuilder::new(3);
        b.push_weighted_edge(0, 1, 1);
        b.push_weighted_edge(1, 0, 1);
        let g = Arc::new(b.build());
        let d = reference(&g);
        assert_eq!(d[2], INF);
    }

    #[test]
    #[should_panic(expected = "weighted")]
    fn rejects_unweighted_graphs() {
        let g = CsrBuilder::new(2).edge(0, 1).build();
        let _ = reference(&g);
    }
}

//! Breadth-first search — direction-optimizing, as in GAP.
//!
//! Top-down steps pop frontier vertices and probe `parent[neighbor]`
//! (random property accesses through structure loads). When the frontier's
//! outgoing-edge count explodes, the traversal switches to bottom-up:
//! a *sequential* sweep over all unvisited vertices scanning their neighbor
//! lists for a frontier member — this is where BFS's streamable structure
//! accesses come from, and why a streamer helps BFS at all. The frontier
//! membership bitmap and the queues are *intermediate* data; `parent` is
//! the property array.

use crate::mem::{GraphArrays, StructureImage};
use crate::{budget_hit, pick_source, Algorithm, Digest, TraceBundle};
use droplet_graph::Csr;
use droplet_trace::{AddressSpace, ArrayRegion, DataType, OpId, Tracer, VecTracer};
use std::sync::Arc;

/// Sentinel for unvisited vertices.
pub const NONE: u32 = u32::MAX;
/// Top-down → bottom-up switch threshold divisor (GAP's α).
const ALPHA: u64 = 14;
/// Bottom-up → top-down switch threshold divisor (GAP's β).
const BETA: u64 = 24;

/// Reference direction-optimizing BFS from [`pick_source`]; returns the
/// parent array.
pub fn reference(g: &Csr) -> Vec<u32> {
    run(g, &g.transpose(), None).0
}

/// Traced BFS; computes exactly what [`reference()`] computes.
pub fn traced(
    g: &Arc<Csr>,
    mut space: AddressSpace,
    arrays: GraphArrays,
    budget: u64,
) -> TraceBundle {
    let n = g.num_vertices() as usize;
    let parent_arr = space.alloc_array("parent", DataType::Property, 4, n as u64);
    let fr_a = space.alloc_array("frontier_a", DataType::Intermediate, 4, n.max(1) as u64);
    let fr_b = space.alloc_array("frontier_b", DataType::Intermediate, 4, n.max(1) as u64);
    // Frontier membership bitmap for bottom-up probes (one byte per vertex
    // keeps the model simple; GAP uses a bit vector).
    let bitmap = space.alloc_array(
        "frontier_bitmap",
        DataType::Intermediate,
        1,
        n.max(1) as u64,
    );
    // Bottom-up sweeps scan the incoming-edge CSR (GAP keeps both
    // directions for direction-optimizing BFS).
    let gt = Arc::new(g.transpose());
    let offsets_in = space.alloc_array(
        "offsets_in",
        DataType::Intermediate,
        8,
        u64::from(g.num_vertices()) + 1,
    );
    let neighbors_in =
        space.alloc_array("neighbors_in", DataType::Structure, 4, g.num_edges().max(1));
    let mut funcmem = StructureImage::new(g.clone(), &arrays);
    funcmem.push_segment(neighbors_in.clone(), gt.clone());
    let mut t = VecTracer::new(space, budget);

    let (parent, completed) = run(
        g,
        &gt,
        Some(TraceCtx {
            t: &mut t,
            arrays: &arrays,
            parent: &parent_arr,
            fr_a: &fr_a,
            fr_b: &fr_b,
            bitmap: &bitmap,
            offsets_in: &offsets_in,
            neighbors_in: &neighbors_in,
        }),
    );

    let digest = Digest::Ints(parent);
    TraceBundle::assemble(
        Algorithm::Bfs,
        t,
        funcmem,
        parent_arr.base(),
        4,
        n as u64,
        completed,
        digest,
    )
}

struct TraceCtx<'a> {
    t: &'a mut VecTracer,
    arrays: &'a GraphArrays,
    parent: &'a ArrayRegion,
    fr_a: &'a ArrayRegion,
    fr_b: &'a ArrayRegion,
    bitmap: &'a ArrayRegion,
    offsets_in: &'a ArrayRegion,
    neighbors_in: &'a ArrayRegion,
}

/// Shared body: the exact same control flow with or without tracing.
/// `gt` is the transpose (incoming-edge CSR) used by bottom-up sweeps.
fn run(g: &Csr, gt: &Csr, mut ctx: Option<TraceCtx<'_>>) -> (Vec<u32>, bool) {
    let n = g.num_vertices() as usize;
    let mut parent = vec![NONE; n];
    if n == 0 {
        return (parent, true);
    }
    let m = g.num_edges();
    let src = pick_source(g);
    parent[src as usize] = src;
    let mut frontier = vec![src];
    let mut in_frontier = vec![false; n];
    in_frontier[src as usize] = true;
    let mut scout_edges = g.out_degree(src);
    let mut level = 0usize;
    let mut bottom_up = false;
    let mut completed = true;

    'outer: while !frontier.is_empty() {
        // GAP's direction heuristic.
        if !bottom_up && scout_edges > m / ALPHA {
            bottom_up = true;
        } else if bottom_up && (frontier.len() as u64) < (n as u64) / BETA {
            bottom_up = false;
        }

        let mut next = Vec::new();
        let mut next_edges = 0u64;

        if bottom_up {
            // Sequential sweep over unvisited vertices scanning their
            // *incoming* edges: streamable parent (property) and structure
            // reads, random bitmap probes.
            for u in 0..n as u32 {
                if let Some(c) = ctx.as_mut() {
                    if budget_hit(c.t) {
                        completed = false;
                        break 'outer;
                    }
                }
                if parent[u as usize] != NONE {
                    continue;
                }
                if let Some(c) = ctx.as_mut() {
                    c.t.compute(2);
                    c.t.load(c.parent.addr_of(u64::from(u)), DataType::Property, None);
                    c.t.load(
                        c.offsets_in.addr_of(u64::from(u)),
                        DataType::Intermediate,
                        None,
                    );
                }
                let mut found: Option<(u32, Option<OpId>)> = None;
                for i in gt.edge_range(u) {
                    let v = gt.targets()[i as usize];
                    let mut s_op = None;
                    if let Some(c) = ctx.as_mut() {
                        let s =
                            c.t.load(c.neighbors_in.addr_of(i), DataType::Structure, None);
                        c.t.load(
                            c.bitmap.addr_of(u64::from(v)),
                            DataType::Intermediate,
                            Some(s),
                        );
                        c.t.compute(1);
                        s_op = Some(s);
                    }
                    if in_frontier[v as usize] {
                        found = Some((v, s_op));
                        break;
                    }
                }
                if let Some((v, s_op)) = found {
                    parent[u as usize] = v;
                    if let Some(c) = ctx.as_mut() {
                        c.t.store(c.parent.addr_of(u64::from(u)), DataType::Property, s_op);
                        c.t.store(
                            c.fr_b.addr_of(next.len() as u64 % c.fr_b.len()),
                            DataType::Intermediate,
                            None,
                        );
                    }
                    next_edges += g.out_degree(u);
                    next.push(u);
                }
            }
        } else {
            let (cur_q, next_q_sel) = if level.is_multiple_of(2) {
                (0u8, 1u8)
            } else {
                (1u8, 0u8)
            };
            for (idx, &u) in frontier.iter().enumerate() {
                if let Some(c) = ctx.as_mut() {
                    if budget_hit(c.t) {
                        completed = false;
                        break 'outer;
                    }
                }
                let mut offsets_op = None;
                if let Some(c) = ctx.as_mut() {
                    let q = if cur_q == 0 { c.fr_a } else { c.fr_b };
                    c.t.compute(2);
                    c.t.load(
                        q.addr_of(idx as u64 % q.len()),
                        DataType::Intermediate,
                        None,
                    );
                    offsets_op = Some(c.arrays.load_offsets(c.t, u));
                }
                for i in g.edge_range(u) {
                    let v = g.targets()[i as usize];
                    let mut s_op = None;
                    if let Some(c) = ctx.as_mut() {
                        // The first structure load of the list depends on
                        // the offsets value; the rest stride a register.
                        let s = c.arrays.load_neighbor(c.t, i, offsets_op.take());
                        let p =
                            c.t.load(c.parent.addr_of(u64::from(v)), DataType::Property, Some(s));
                        c.t.compute(2);
                        s_op = Some(p);
                    }
                    if parent[v as usize] == NONE {
                        parent[v as usize] = u;
                        if let Some(c) = ctx.as_mut() {
                            c.t.store(c.parent.addr_of(u64::from(v)), DataType::Property, s_op);
                            let q = if next_q_sel == 0 { c.fr_a } else { c.fr_b };
                            c.t.store(
                                q.addr_of(next.len() as u64 % q.len()),
                                DataType::Intermediate,
                                None,
                            );
                        }
                        next_edges += g.out_degree(v);
                        next.push(v);
                    }
                }
            }
        }

        // Refresh the membership bitmap (writes are intermediate stores;
        // traced at page granularity would be noise, so only membership
        // flips are modeled functionally).
        for &u in &frontier {
            in_frontier[u as usize] = false;
        }
        for &u in &next {
            in_frontier[u as usize] = true;
        }
        scout_edges = next_edges;
        frontier = next;
        level += 1;
    }

    (parent, completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_graph::CsrBuilder;

    fn diamond() -> Arc<Csr> {
        Arc::new(
            CsrBuilder::new(5)
                .edge(0, 1)
                .edge(0, 2)
                .edge(0, 4)
                .edge(1, 3)
                .edge(2, 3)
                .build(),
        )
    }

    #[test]
    fn reference_finds_valid_parents() {
        let g = diamond();
        let p = reference(&g);
        assert_eq!(p[0], 0);
        assert_eq!(p[1], 0);
        assert_eq!(p[2], 0);
        assert_eq!(p[4], 0);
        assert!(p[3] == 1 || p[3] == 2, "{p:?}");
    }

    #[test]
    fn traced_matches_reference() {
        let g = diamond();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        assert!(bundle.completed);
        assert_eq!(bundle.digest, Digest::Ints(reference(&g)));
    }

    #[test]
    fn unreachable_vertices_stay_unvisited() {
        let g = Arc::new(CsrBuilder::new(4).edge(0, 1).edge(0, 2).build());
        let p = reference(&g);
        assert_eq!(p[3], NONE);
    }

    #[test]
    fn bottom_up_engages_on_dense_expansions() {
        // A hub-and-clique graph: the frontier explodes on level 1,
        // forcing a bottom-up phase. Correctness must be unaffected.
        let n = 64u32;
        let mut b = CsrBuilder::new(n);
        for v in 1..n {
            b.push_edge(0, v);
            b.push_edge(v, 0);
        }
        for u in 1..n {
            for d in 1..6 {
                let v = 1 + (u - 1 + d) % (n - 1);
                b.push_edge(u, v);
            }
        }
        let g = Arc::new(b.build());
        let p = reference(&g);
        // Everything is reachable and depths are 0/1.
        assert!(p.iter().all(|&x| x != NONE));
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        assert_eq!(bundle.digest, Digest::Ints(p));
    }

    #[test]
    fn depths_match_plain_bfs_on_random_graph() {
        // Direction optimization changes parents but never depths.
        let g = Arc::new(droplet_graph::gen::uniform(400, 3200, 7));
        let p = reference(&g);
        let src = pick_source(&g);
        // Plain BFS depth oracle.
        let n = g.num_vertices() as usize;
        let mut depth = vec![u32::MAX; n];
        depth[src as usize] = 0;
        let mut q = std::collections::VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                if depth[v as usize] == u32::MAX {
                    depth[v as usize] = depth[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        // Derive depth from the parent tree and compare.
        for u in 0..n {
            if p[u] == NONE {
                assert_eq!(depth[u], u32::MAX, "vertex {u}");
                continue;
            }
            let mut d = 0u32;
            let mut cur = u as u32;
            while cur != src {
                cur = p[cur as usize];
                d += 1;
                assert!(d as usize <= n, "parent cycle at {u}");
            }
            assert_eq!(d, depth[u], "vertex {u}");
        }
    }

    #[test]
    fn trace_uses_all_three_data_types() {
        let g = diamond();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        for dt in DataType::ALL {
            assert!(
                bundle.ops.iter().any(|o| o.dtype() == dt),
                "missing {dt} ops"
            );
        }
    }

    #[test]
    fn budget_stops_traversal() {
        let g = diamond();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, 3);
        assert!(!bundle.completed);
    }
}

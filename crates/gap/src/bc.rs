//! Betweenness centrality — Brandes' algorithm with depth-synchronized
//! wavefronts (the GAP formulation that avoids predecessor lists by
//! rescanning neighbor lists during the backward pass).
//!
//! Properties: `depth` (the primary property array the MPP targets),
//! `sigma` shortest-path counts, `delta` dependencies, and the output `bc`
//! scores. The wavefront queues are intermediate data.

use crate::mem::{GraphArrays, StructureImage};
use crate::{budget_hit, pick_source, Algorithm, Digest, TraceBundle};
use droplet_graph::Csr;
use droplet_trace::{AddressSpace, DataType, Tracer, VecTracer};
use std::sync::Arc;

/// Unreached depth sentinel.
const UNSEEN: u32 = u32::MAX;

/// Reference single-source Brandes from [`pick_source`]; returns bc scores.
pub fn reference(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let src = pick_source(g);
    let (depth, sigma, waves) = forward(g, src);
    backward(g, &depth, &sigma, &waves)
}

fn forward(g: &Csr, src: u32) -> (Vec<u32>, Vec<u64>, Vec<Vec<u32>>) {
    let n = g.num_vertices() as usize;
    let mut depth = vec![UNSEEN; n];
    let mut sigma = vec![0u64; n];
    depth[src as usize] = 0;
    sigma[src as usize] = 1;
    let mut waves = vec![vec![src]];
    loop {
        let d = waves.len() as u32 - 1;
        let mut next = Vec::new();
        for &u in waves.last().unwrap() {
            for &v in g.neighbors(u) {
                let vd = depth[v as usize];
                if vd == UNSEEN {
                    depth[v as usize] = d + 1;
                    sigma[v as usize] = sigma[u as usize];
                    next.push(v);
                } else if vd == d + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        if next.is_empty() {
            break;
        }
        waves.push(next);
    }
    (depth, sigma, waves)
}

fn backward(g: &Csr, depth: &[u32], sigma: &[u64], waves: &[Vec<u32>]) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    let mut delta = vec![0.0f64; n];
    let mut bc = vec![0.0f64; n];
    for d in (0..waves.len().saturating_sub(1)).rev() {
        for &u in &waves[d] {
            let mut acc = 0.0;
            for &v in g.neighbors(u) {
                if depth[v as usize] == d as u32 + 1 {
                    acc += (sigma[u as usize] as f64 / sigma[v as usize] as f64)
                        * (1.0 + delta[v as usize]);
                }
            }
            delta[u as usize] = acc;
            if u as usize != waves[0][0] as usize || d != 0 {
                bc[u as usize] += acc;
            }
        }
    }
    // The source accumulates no centrality from its own traversal.
    bc[waves[0][0] as usize] = 0.0;
    bc
}

/// Traced BC; computes exactly what [`reference()`] computes.
pub fn traced(
    g: &Arc<Csr>,
    mut space: AddressSpace,
    arrays: GraphArrays,
    budget: u64,
) -> TraceBundle {
    let n = g.num_vertices() as usize;
    let depth_arr = space.alloc_array("depth", DataType::Property, 4, n as u64);
    let sigma_arr = space.alloc_array("sigma", DataType::Property, 8, n as u64);
    let delta_arr = space.alloc_array("delta", DataType::Property, 8, n as u64);
    let bc_arr = space.alloc_array("bc", DataType::Property, 8, n as u64);
    let wave_arr = space.alloc_array(
        "wavefront",
        DataType::Intermediate,
        4,
        (n as u64).max(1) * 2,
    );
    let funcmem = StructureImage::new(g.clone(), &arrays);
    let mut t = VecTracer::new(space, budget);

    let mut bc_scores = vec![0.0f64; n];
    let mut completed = true;

    if n > 0 {
        let src = pick_source(g);
        // ---- Forward pass (traced) ----
        let mut depth = vec![UNSEEN; n];
        let mut sigma = vec![0u64; n];
        depth[src as usize] = 0;
        sigma[src as usize] = 1;
        let mut waves = vec![vec![src]];
        let ring = (n as u64).max(1) * 2;
        let mut wave_pushes = 1u64;
        'fwd: loop {
            let d = waves.len() as u32 - 1;
            let mut next = Vec::new();
            for (idx, &u) in waves.last().unwrap().clone().iter().enumerate() {
                if budget_hit(&t) {
                    completed = false;
                    break 'fwd;
                }
                t.compute(2);
                t.load(
                    wave_arr.addr_of(idx as u64 % ring),
                    DataType::Intermediate,
                    None,
                );
                let o = arrays.load_offsets(&mut t, u);
                let su = t.load(sigma_arr.addr_of(u64::from(u)), DataType::Property, None);
                let mut producer = Some(o);
                for i in g.edge_range(u) {
                    let s = arrays.load_neighbor(&mut t, i, producer.take());
                    let v = g.targets()[i as usize];
                    let dv = t.load(depth_arr.addr_of(u64::from(v)), DataType::Property, Some(s));
                    t.compute(2);
                    let vd = depth[v as usize];
                    if vd == UNSEEN {
                        depth[v as usize] = d + 1;
                        sigma[v as usize] = sigma[u as usize];
                        t.store(
                            depth_arr.addr_of(u64::from(v)),
                            DataType::Property,
                            Some(dv),
                        );
                        t.store(
                            sigma_arr.addr_of(u64::from(v)),
                            DataType::Property,
                            Some(su),
                        );
                        t.store(
                            wave_arr.addr_of(wave_pushes % ring),
                            DataType::Intermediate,
                            None,
                        );
                        wave_pushes += 1;
                        next.push(v);
                    } else if vd == d + 1 {
                        sigma[v as usize] += sigma[u as usize];
                        t.load(sigma_arr.addr_of(u64::from(v)), DataType::Property, Some(s));
                        t.store(
                            sigma_arr.addr_of(u64::from(v)),
                            DataType::Property,
                            Some(su),
                        );
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            waves.push(next);
        }

        // ---- Backward pass (traced) ----
        if completed {
            let mut delta = vec![0.0f64; n];
            'bwd: for d in (0..waves.len().saturating_sub(1)).rev() {
                for (idx, &u) in waves[d].iter().enumerate() {
                    if budget_hit(&t) {
                        completed = false;
                        break 'bwd;
                    }
                    t.compute(3);
                    t.load(
                        wave_arr.addr_of(idx as u64 % ring),
                        DataType::Intermediate,
                        None,
                    );
                    let o = arrays.load_offsets(&mut t, u);
                    let mut acc = 0.0;
                    let mut producer = Some(o);
                    for i in g.edge_range(u) {
                        let s = arrays.load_neighbor(&mut t, i, producer.take());
                        let v = g.targets()[i as usize];
                        t.load(depth_arr.addr_of(u64::from(v)), DataType::Property, Some(s));
                        t.compute(2);
                        if depth[v as usize] == d as u32 + 1 {
                            t.load(sigma_arr.addr_of(u64::from(v)), DataType::Property, Some(s));
                            t.load(delta_arr.addr_of(u64::from(v)), DataType::Property, Some(s));
                            t.compute(4);
                            acc += (sigma[u as usize] as f64 / sigma[v as usize] as f64)
                                * (1.0 + delta[v as usize]);
                        }
                    }
                    delta[u as usize] = acc;
                    t.load(sigma_arr.addr_of(u64::from(u)), DataType::Property, None);
                    t.store(delta_arr.addr_of(u64::from(u)), DataType::Property, None);
                    t.store(bc_arr.addr_of(u64::from(u)), DataType::Property, None);
                    if u as usize != waves[0][0] as usize || d != 0 {
                        bc_scores[u as usize] += acc;
                    }
                }
            }
            bc_scores[waves[0][0] as usize] = 0.0;
        }
    }

    let digest = Digest::Floats(bc_scores);
    TraceBundle::assemble(
        Algorithm::Bc,
        t,
        funcmem,
        depth_arr.base(),
        4,
        n as u64,
        completed,
        digest,
    )
    // The backward pass indexes sigma and delta through the same neighbor
    // IDs — the multi-property case of Section VI.
    .with_extra_property_targets(vec![
        (sigma_arr.base(), 8, n as u64),
        (delta_arr.base(), 8, n as u64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_graph::CsrBuilder;

    /// Path 1-0-2 with 0 as max-degree source... make 0 the hub of a star
    /// plus a chain so intermediate vertices earn centrality.
    fn path() -> Arc<Csr> {
        // 0 -> 1 -> 2 -> 3, symmetric; 0 has extra edge to 4 to be source.
        let mut b = CsrBuilder::new(5);
        for (u, v) in [
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (0, 4),
            (4, 0),
        ] {
            b.push_edge(u, v);
        }
        Arc::new(b.build())
    }

    #[test]
    fn chain_interior_vertices_carry_flow() {
        let g = path();
        let bc = reference(&g);
        // Source is vertex 0 (degree 2, ties broken by max_by_key → last max
        // is vertex with the highest degree; 0,1,2 have degree 2 — the last
        // one wins). Whoever the source is, interior chain vertices must
        // outrank leaves.
        let src = pick_source(&g);
        assert_eq!(bc[src as usize], 0.0);
        assert!(bc.iter().all(|&x| x >= 0.0));
        assert!(bc.iter().any(|&x| x > 0.0), "{bc:?}");
    }

    #[test]
    fn traced_matches_reference_bitwise() {
        let g = path();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        assert!(bundle.completed);
        assert_eq!(bundle.digest, Digest::Floats(reference(&g)));
    }

    #[test]
    fn sigma_counts_shortest_paths() {
        // Diamond: 0->1,0->2,1->3,2->3 — two shortest paths to 3.
        let g = CsrBuilder::new(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build();
        let (depth, sigma, _) = forward(&g, 0);
        assert_eq!(depth, vec![0, 1, 1, 2]);
        assert_eq!(sigma, vec![1, 1, 1, 2]);
    }

    #[test]
    fn diamond_middles_share_centrality() {
        let g = Arc::new(
            CsrBuilder::new(4)
                .edge(0, 1)
                .edge(0, 2)
                .edge(1, 3)
                .edge(2, 3)
                .build(),
        );
        // Force source 0 by checking pick_source.
        assert_eq!(pick_source(&g), 0);
        let bc = reference(&g);
        assert!((bc[1] - bc[2]).abs() < 1e-12);
        assert!(bc[1] > 0.0);
        assert_eq!(bc[0], 0.0);
    }

    #[test]
    fn budget_interrupts_cleanly() {
        let g = path();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, 5);
        assert!(!bundle.completed);
        assert!(bundle.len() >= 5);
    }
}

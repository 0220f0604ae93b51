//! Connected components — label propagation with pointer jumping
//! (Shiloach–Vishkin style, as in older GAP releases).
//!
//! Vertices are processed in strictly sequential order each round, which is
//! why the paper observes CC's structure stream to be the most prefetchable
//! of all workloads (100 % structure prefetch accuracy in Fig. 14). The
//! shortcut pass's `comp[comp[u]]` loads create property→property
//! dependency chains on top of the usual structure→property ones.

use crate::mem::{GraphArrays, StructureImage};
use crate::{budget_hit, Algorithm, Digest, TraceBundle};
use droplet_graph::Csr;
use droplet_trace::{AddressSpace, DataType, Tracer, VecTracer};
use std::sync::Arc;

/// Reference CC: returns the component label of every vertex (the minimum
/// vertex id reachable via undirected paths under this iteration scheme).
pub fn reference(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut comp: Vec<u32> = (0..n as u32).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n as u32 {
            let cu = comp[u as usize];
            for &v in g.neighbors(u) {
                let cv = comp[v as usize];
                if cv < comp[u as usize] {
                    comp[u as usize] = cv;
                    changed = true;
                }
                if cu < cv {
                    comp[v as usize] = comp[v as usize].min(cu);
                    changed = true;
                }
            }
        }
        // Pointer-jumping shortcut.
        for u in 0..n {
            while comp[u] != comp[comp[u] as usize] {
                comp[u] = comp[comp[u] as usize];
            }
        }
    }
    comp
}

/// Traced CC; computes exactly what [`reference()`] computes.
pub fn traced(
    g: &Arc<Csr>,
    mut space: AddressSpace,
    arrays: GraphArrays,
    budget: u64,
) -> TraceBundle {
    let n = g.num_vertices() as usize;
    let comp_arr = space.alloc_array("comp", DataType::Property, 4, n as u64);
    let funcmem = StructureImage::new(g.clone(), &arrays);
    let mut t = VecTracer::new(space, budget);

    let mut comp: Vec<u32> = (0..n as u32).collect();
    let mut completed = true;
    let mut changed = true;

    'outer: while changed {
        changed = false;
        // Hooking pass: sequential vertex order, streaming structure reads.
        for u in 0..n as u32 {
            if budget_hit(&t) {
                completed = false;
                break 'outer;
            }
            t.compute(3);
            let o = arrays.load_offsets(&mut t, u);
            let cu_op = t.load(comp_arr.addr_of(u64::from(u)), DataType::Property, None);
            let cu = comp[u as usize];
            let mut producer = Some(o);
            for i in g.edge_range(u) {
                let s = arrays.load_neighbor(&mut t, i, producer.take());
                let v = g.targets()[i as usize];
                let _cv_op = t.load(comp_arr.addr_of(u64::from(v)), DataType::Property, Some(s));
                t.compute(2);
                let cv = comp[v as usize];
                if cv < comp[u as usize] {
                    comp[u as usize] = cv;
                    t.store(
                        comp_arr.addr_of(u64::from(u)),
                        DataType::Property,
                        Some(cu_op),
                    );
                    changed = true;
                }
                if cu < cv {
                    let newv = comp[v as usize].min(cu);
                    if newv != comp[v as usize] {
                        comp[v as usize] = newv;
                        t.store(comp_arr.addr_of(u64::from(v)), DataType::Property, Some(s));
                        changed = true;
                    }
                }
            }
        }
        if !completed {
            break;
        }
        // Shortcut pass: comp[comp[u]] — property-to-property chains.
        for u in 0..n {
            if budget_hit(&t) {
                completed = false;
                break 'outer;
            }
            t.compute(2);
            let c1 = t.load(comp_arr.addr_of(u as u64), DataType::Property, None);
            let mut link = c1;
            while comp[u] != comp[comp[u] as usize] {
                let c2 = t.load(
                    comp_arr.addr_of(u64::from(comp[u])),
                    DataType::Property,
                    Some(link),
                );
                comp[u] = comp[comp[u] as usize];
                t.store(comp_arr.addr_of(u as u64), DataType::Property, Some(c2));
                link = c2;
            }
        }
    }

    let digest = Digest::Ints(comp);
    TraceBundle::assemble(
        Algorithm::Cc,
        t,
        funcmem,
        comp_arr.base(),
        4,
        n as u64,
        completed,
        digest,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_graph::CsrBuilder;

    fn two_components() -> Arc<Csr> {
        // {0,1,2} ring and {3,4} pair, symmetric edges.
        Arc::new(
            CsrBuilder::new(5)
                .edge(0, 1)
                .edge(1, 0)
                .edge(1, 2)
                .edge(2, 1)
                .edge(3, 4)
                .edge(4, 3)
                .build(),
        )
    }

    #[test]
    fn labels_components_by_minimum_id() {
        let g = two_components();
        let c = reference(&g);
        assert_eq!(c, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn traced_matches_reference() {
        let g = two_components();
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        assert!(bundle.completed);
        assert_eq!(bundle.digest, Digest::Ints(reference(&g)));
    }

    #[test]
    fn union_find_agrees_on_partitions() {
        // Cross-check against an independent union-find on a random-ish graph.
        let mut b = CsrBuilder::new(30);
        for i in 0..29u32 {
            if i % 3 != 0 {
                b.push_edge(i, i + 1);
                b.push_edge(i + 1, i);
            }
        }
        let g = Arc::new(b.build());
        let c = reference(&g);
        let mut uf: Vec<u32> = (0..30).collect();
        fn find(uf: &mut Vec<u32>, x: u32) -> u32 {
            if uf[x as usize] != x {
                let r = find(uf, uf[x as usize]);
                uf[x as usize] = r;
            }
            uf[x as usize]
        }
        for u in 0..30u32 {
            for &v in g.neighbors(u) {
                let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
                if ru != rv {
                    uf[ru.max(rv) as usize] = ru.min(rv);
                }
            }
        }
        for u in 0..30u32 {
            for v in 0..30u32 {
                let same_uf = find(&mut uf, u) == find(&mut uf, v);
                let same_cc = c[u as usize] == c[v as usize];
                assert_eq!(same_uf, same_cc, "vertices {u},{v}");
            }
        }
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let g = Arc::new(CsrBuilder::new(3).edge(0, 1).edge(1, 0).build());
        assert_eq!(reference(&g), vec![0, 0, 2]);
    }

    #[test]
    fn shortcut_pass_creates_property_property_chains() {
        // Vertex 2 hooks 3 onto itself *before* its own label drops to 0,
        // leaving comp[3] = 2 with comp[2] = 0 — the shortcut pass must
        // pointer-jump through comp[comp[3]].
        let mut b = CsrBuilder::new(4);
        b.push_edge(2, 3);
        b.push_edge(2, 0);
        let g = Arc::new(b.build());
        let mut space = AddressSpace::new();
        let arrays = GraphArrays::new(&mut space, &g);
        let bundle = traced(&g, space, arrays, u64::MAX);
        let mut prop_prop = 0;
        for (i, op) in bundle.ops.iter().enumerate() {
            if op.is_load() && op.dtype() == DataType::Property {
                if let Some(back) = op.producer_back() {
                    let prod = &bundle.ops[i - back as usize];
                    if prod.is_load() && prod.dtype() == DataType::Property {
                        prop_prop += 1;
                    }
                }
            }
        }
        assert!(prop_prop > 0, "no comp[comp[u]] chains traced");
    }
}

//! Property-based tests (proptest) on the core data structures and
//! cross-crate invariants.

use droplet::{run_workload, PrefetcherKind, SystemConfig};
use droplet_cache::ReuseProfiler;
use droplet_gap::Algorithm;
use droplet_graph::{CsrBuilder, DegreeStats};
use droplet_trace::{AddressSpace, DataType, PageTable, Tlb, VirtAddr};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR round trip: every inserted edge is retrievable, in order.
    #[test]
    fn csr_preserves_all_edges(edges in prop::collection::vec((0u32..50, 0u32..50), 0..300)) {
        let mut b = CsrBuilder::new(50);
        for &(u, v) in &edges {
            b.push_edge(u, v);
        }
        let g = b.build();
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        // Per-source multiset matches.
        for u in 0..50u32 {
            let mut expect: Vec<u32> = edges.iter().filter(|e| e.0 == u).map(|e| e.1).collect();
            let mut got = g.neighbors(u).to_vec();
            expect.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }
        let stats = DegreeStats::of(&g);
        prop_assert!(stats.max >= stats.min);
    }

    /// Transpose is an involution on deduped graphs.
    #[test]
    fn transpose_involution(edges in prop::collection::vec((0u32..40, 0u32..40), 0..200)) {
        let mut b = CsrBuilder::new(40);
        for &(u, v) in &edges {
            b.push_edge(u, v);
        }
        let g = b.dedup().build();
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    /// Reuse profiler against the quadratic oracle.
    #[test]
    fn reuse_distance_matches_oracle(stream in prop::collection::vec(0u64..24, 1..120)) {
        let mut profiler = ReuseProfiler::new();
        for &l in &stream {
            profiler.access(l, DataType::Structure);
        }
        // Oracle: cold count and per-capacity capturable fractions.
        let mut cold = 0u64;
        let mut distances: Vec<u64> = Vec::new();
        for (i, &l) in stream.iter().enumerate() {
            match stream[..i].iter().rposition(|&x| x == l) {
                None => cold += 1,
                Some(p) => {
                    let mut uniq: Vec<u64> = stream[p + 1..i].to_vec();
                    uniq.sort_unstable();
                    uniq.dedup();
                    distances.push(uniq.len() as u64);
                }
            }
        }
        let h = profiler.histogram(DataType::Structure);
        prop_assert_eq!(h.cold(), cold);
        prop_assert_eq!(h.reuses(), distances.len() as u64);
        // Full capture at a capacity bigger than every distance.
        if !distances.is_empty() {
            let max = *distances.iter().max().unwrap();
            prop_assert_eq!(h.capturable_by((max + 2).next_power_of_two()), 1.0);
        }
    }

    /// TLB never exceeds capacity and a hit always follows its own fill.
    #[test]
    fn tlb_capacity_and_residency(vpns in prop::collection::vec(0u64..40, 1..200), cap in 1usize..16) {
        let mut tlb = Tlb::new(cap);
        for &vpn in &vpns {
            let entry = droplet_trace::PageEntry { frame: vpn + 1, structure: vpn % 2 == 0 };
            let before = tlb.probe(vpn).is_some();
            let hit = tlb.access(vpn, || entry).is_some();
            prop_assert_eq!(hit, before, "hit iff already resident");
            prop_assert!(tlb.len() <= cap);
            prop_assert!(tlb.probe(vpn).is_some(), "just-accessed entry must be resident");
        }
    }

    /// Page-table translation is a bijection per page: distinct virtual
    /// pages get distinct frames; offsets are preserved.
    #[test]
    fn page_table_translation_sound(offsets in prop::collection::vec(0u64..(1 << 16), 1..80)) {
        let mut space = AddressSpace::new();
        let region = space.alloc("blob", DataType::Property, 1 << 16);
        let mut pt = PageTable::new();
        let mut frame_of = std::collections::HashMap::new();
        for &off in &offsets {
            let va = region.base().add_bytes(off);
            let (pa, _) = pt.translate(va, &space);
            prop_assert_eq!(pa.page_offset(), va.page_offset());
            let prev = frame_of.insert(va.page_number(), pa.frame_number());
            if let Some(f) = prev {
                prop_assert_eq!(f, pa.frame_number(), "mapping must be stable");
            }
        }
        let mut frames: Vec<u64> = frame_of.values().copied().collect();
        frames.sort_unstable();
        frames.dedup();
        prop_assert_eq!(frames.len(), frame_of.len(), "frames must be distinct");
    }
}

proptest! {
    // Whole-system property tests are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary small random graphs, traced algorithms agree with
    /// their references, and the simulator's conservation laws hold under
    /// every prefetcher.
    #[test]
    fn system_invariants_on_random_graphs(seed in 0u64..1000) {
        let g = Arc::new(droplet_graph::gen::uniform(512, 4096, seed));
        let bundle = Algorithm::Pr.trace(&g, 120_000);
        let wg = Arc::new(droplet_graph::gen::uniform_weighted(512, 4096, seed));
        let sbundle = Algorithm::Sssp.trace(&wg, 120_000);
        for bundle in [&bundle, &sbundle] {
            for kind in [PrefetcherKind::None, PrefetcherKind::Droplet, PrefetcherKind::Ghb] {
                let cfg = SystemConfig::test_scale().with_prefetcher(kind);
                let r = run_workload(bundle, &cfg, 1000);
                let l2 = r.l2.unwrap();
                prop_assert_eq!(r.l1.demand_misses().total(), l2.demand_accesses.total());
                prop_assert_eq!(l2.demand_misses().total(), r.l3.demand_accesses.total());
                prop_assert!(r.core.cycles > 0);
                prop_assert!(r.core.ipc() <= 4.0 + 1e-9, "IPC cannot exceed width");
            }
        }
    }

    /// Prefetch accuracy is a well-formed ratio for every configuration.
    #[test]
    fn accuracy_is_a_ratio(seed in 0u64..500) {
        let g = Arc::new(droplet_graph::gen::rmat(9, 8, droplet_graph::gen::RmatSkew::Kron, seed));
        let bundle = Algorithm::Cc.trace(&g, 100_000);
        for kind in PrefetcherKind::EVALUATED {
            let cfg = SystemConfig::test_scale().with_prefetcher(kind);
            let r = run_workload(&bundle, &cfg, 1000);
            for dt in DataType::ALL {
                let a = r.prefetch_accuracy(dt);
                prop_assert!((0.0..=1.0).contains(&a), "{}/{}: {}", kind, dt, a);
            }
        }
    }
}

/// A plain (non-proptest) sanity anchor: VirtAddr arithmetic is total over
/// interesting boundaries.
#[test]
fn virt_addr_boundaries() {
    for raw in [0u64, 63, 64, 4095, 4096, u32::MAX as u64] {
        let a = VirtAddr::new(raw);
        assert_eq!(a.line_base().raw() % 64, 0);
        assert!(a.line_offset() < 64);
        assert!(a.page_offset() < 4096);
    }
}

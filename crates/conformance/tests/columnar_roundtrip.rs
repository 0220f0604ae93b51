//! Property tests for the columnar trace codec (DESIGN.md §15): fuzzed
//! op streams in three address shapes — graph-shaped (the conformance
//! trace fuzzer), uniform random, and grid strides — must round-trip
//! encode → decode bit-exactly, and damaged artifacts must come back as
//! typed errors, never panics or silently wrong ops. A round trip alone
//! would still pass a format drift, so the encoded bytes of two GAP traces
//! and one fixed fuzzed stream are pinned by digest as well.
//!
//! Set `DROPLET_TEST_SEED` to explore fresh streams or replay a failure
//! (the pinned streams use fixed seeds and ignore it).

use conformance::fuzz::TraceGen;
use droplet_gap::Algorithm;
use droplet_graph::{Dataset, DatasetScale};
use droplet_trace::columnar::{content_digest, decode, encode, BLOCK_OPS};
use droplet_trace::{AccessKind, ColumnarReader, DataType, MemOp, OpId, VirtAddr};
use proptest::TestRng;
use std::sync::Arc;

/// Wraps a raw address stream into full `MemOp`s with fuzzed kinds,
/// producer links, and pre-compute counts — every column the codec stores.
fn ops_of_addrs(rng: &mut TestRng, addrs: impl Iterator<Item = u64>) -> Vec<MemOp> {
    addrs
        .enumerate()
        .map(|(i, addr)| {
            let id = OpId(i as u64);
            let producer = if i > 0 && rng.below(4) == 0 {
                // Bias toward short links (dependency chains), but reach
                // all the way back sometimes to stress the varint widths.
                let reach = if rng.below(8) == 0 {
                    i as u64
                } else {
                    8.min(i as u64)
                };
                let back = 1 + rng.below(reach);
                Some(OpId(i as u64 - back))
            } else {
                None
            };
            MemOp::new(
                VirtAddr::new(addr),
                if rng.below(5) == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                DataType::ALL[rng.below(3) as usize],
                producer,
                id,
                rng.below(100) as u16,
            )
        })
        .collect()
}

/// Graph-shaped addresses from the conformance trace fuzzer: structure
/// streams, property chases, hot-page reuse, scratch bursts.
fn graph_trace(rng: &mut TestRng, n: usize) -> Vec<MemOp> {
    let mut gen = TraceGen::new();
    let addrs: Vec<u64> = (0..n).map(|_| gen.event(rng).vaddr.raw()).collect();
    let mut tag_rng = TestRng::from_seed(rng.next_u64());
    ops_of_addrs(&mut tag_rng, addrs.into_iter())
}

/// Uniform random lines over a wide region: worst case for delta coding
/// (large, sign-alternating deltas).
fn uniform_trace(rng: &mut TestRng, n: usize) -> Vec<MemOp> {
    let addrs: Vec<u64> = (0..n).map(|_| rng.below(1 << 30) * 64).collect();
    let mut tag_rng = TestRng::from_seed(rng.next_u64());
    ops_of_addrs(&mut tag_rng, addrs.into_iter())
}

/// Grid sweep: row-major walk with a fixed row stride (stencil-style), the
/// best case for delta coding and a constant-delta RLE-like pattern.
fn grid_trace(rng: &mut TestRng, n: usize) -> Vec<MemOp> {
    let cols = 16 + rng.below(64);
    let base = rng.below(1 << 20) * 64;
    let addrs: Vec<u64> = (0..n as u64)
        .map(|i| base + (i % cols) * 64 + (i / cols) * cols * 4096)
        .collect();
    let mut tag_rng = TestRng::from_seed(rng.next_u64());
    ops_of_addrs(&mut tag_rng, addrs.into_iter())
}

fn roundtrip(label: &str, seed: u64, ops: &[MemOp]) {
    let bytes = encode(ops);
    let back = decode(&bytes)
        .unwrap_or_else(|e| panic!("{label} seed {seed}: decode failed on a fresh encode: {e}"));
    assert_eq!(
        ops,
        &back[..],
        "{label} seed {seed}: round-trip not bit-exact"
    );
    let reader = ColumnarReader::new(&bytes)
        .unwrap_or_else(|e| panic!("{label} seed {seed}: header rejected: {e}"));
    assert_eq!(reader.op_count(), ops.len() as u64);
    assert_eq!(reader.digest(), content_digest(ops), "{label} seed {seed}");
}

#[test]
fn fuzzed_traces_roundtrip_bit_exact() {
    let mut rng = TestRng::for_test("columnar_roundtrip");
    for case in 0..24u64 {
        let seed = rng.next_u64();
        let mut r = TestRng::from_seed(seed);
        // Lengths straddle the block boundary on some cases.
        let n = match case % 4 {
            0 => r.below(500) as usize,
            1 => BLOCK_OPS - 1 + r.below(3) as usize,
            2 => BLOCK_OPS + r.below(2000) as usize,
            _ => 1 + r.below(5000) as usize,
        };
        match case % 3 {
            0 => roundtrip("graph", seed, &graph_trace(&mut r, n)),
            1 => roundtrip("uniform", seed, &uniform_trace(&mut r, n)),
            _ => roundtrip("grid", seed, &grid_trace(&mut r, n)),
        }
    }
}

/// Every truncation prefix of a fuzzed artifact decodes to a typed error —
/// no panics, no partial Ok.
#[test]
fn truncated_fuzzed_artifacts_error_cleanly() {
    let mut rng = TestRng::for_test("columnar_truncation");
    let ops = graph_trace(&mut rng, 3000);
    let bytes = encode(&ops);
    // Every short length near the header plus a random sample of the rest.
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    for _ in 0..200 {
        cuts.push(rng.below(bytes.len() as u64) as usize);
    }
    for cut in cuts {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} decoded successfully",
            bytes.len()
        );
    }
}

/// Single-byte corruptions anywhere in a fuzzed artifact either fail with
/// a typed error or — if the flip hit dead padding — still decode to the
/// original ops. They never panic and never return different ops.
#[test]
fn corrupted_fuzzed_artifacts_never_yield_wrong_ops() {
    let mut rng = TestRng::for_test("columnar_corruption");
    let ops = uniform_trace(&mut rng, 2000);
    let bytes = encode(&ops);
    for _ in 0..300 {
        let pos = rng.below(bytes.len() as u64) as usize;
        let flip = 1u8 << rng.below(8);
        let mut bad = bytes.clone();
        bad[pos] ^= flip;
        match decode(&bad) {
            Err(_) => {}
            Ok(back) => assert_eq!(
                ops, back,
                "corruption at byte {pos} (flip {flip:#04x}) decoded to different ops"
            ),
        }
    }
}

/// 64-bit FNV-1a over an artifact's bytes.
fn bytes_digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The DRPLCOL1 bytes themselves are the contract: the same ops must
/// encode to the same artifact, so an encoder rewrite cannot drift the
/// format while still round-tripping. Pins a Tiny PR trace, a Tiny SSSP
/// trace (weighted graph) and a fixed-seed fuzzed stream spanning four
/// blocks. Re-capture from the printed table only for a deliberate format
/// change, which also needs a [`droplet_trace::columnar::FORMAT_VERSION`]
/// bump.
#[test]
fn encoded_artifact_bytes_are_pinned() {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let gw = Arc::new(Dataset::Kron.build_weighted(DatasetScale::Tiny));
    let pr = Algorithm::Pr.trace(&g, 120_000).ops;
    let sssp = Algorithm::Sssp.trace(&gw, 120_000).ops;
    let fuzzed = graph_trace(&mut TestRng::from_seed(0x00c0_1a2b), 3 * BLOCK_OPS + 1234);
    let rows = [
        ("pr-kron-tiny", bytes_digest(&encode(&pr))),
        ("sssp-kron-tiny", bytes_digest(&encode(&sssp))),
        ("fuzzed-4-blocks", bytes_digest(&encode(&fuzzed))),
    ];
    const GOLDEN: [(&str, u64); 3] = [
        ("pr-kron-tiny", 0xdf44fb7642ef6d93),
        ("sssp-kron-tiny", 0x43cce1a787e895af),
        ("fuzzed-4-blocks", 0xcb0ea421d1b640b4),
    ];
    let table = rows
        .iter()
        .map(|(n, a)| format!("        (\"{n}\", {a:#018x}),"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(rows.len(), GOLDEN.len());
    for ((name, actual), (gname, want)) in rows.iter().zip(GOLDEN) {
        assert_eq!(*name, gname);
        assert_eq!(
            *actual, want,
            "{name}: artifact digest {actual:#018x}, golden {want:#018x}; actuals:\n{table}"
        );
    }
}

//! Byte-level goldens for the synthetic generators (DESIGN.md §4).
//!
//! Each entry is a 64-bit FNV-1a digest over one graph's `offsets`,
//! `targets` and `weights` arrays, for every Tiny dataset in both its
//! unweighted and weighted form (all three RMAT skews, `uniform` and
//! `grid`), plus the Small-shape `rmat(15, 16, Kron)` graph. A generator
//! or `CsrBuilder` change that moves any edge, or keeps a different
//! duplicate's weight, changes a digest here.
//!
//! The weighted rows also pin which duplicate's weight `CsrBuilder::build`
//! keeps; that choice follows the standard library's unstable sort (see
//! [`CsrBuilder::dedup`](droplet_graph::CsrBuilder::dedup)), so a toolchain
//! that changes the sort shows up as a mismatch in these rows.
//!
//! If a *deliberate* generator change invalidates a digest, re-capture it
//! from the table the failure message prints.

use droplet_graph::gen::{rmat, RmatSkew};
use droplet_graph::{Csr, Dataset, DatasetScale};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of a graph's three arrays, each prefixed by its length so a
/// byte moving from one array to the next cannot cancel out.
fn graph_digest(g: &Csr) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&u64::from(g.num_vertices()).to_le_bytes());
    h.bytes(&(g.offsets().len() as u64).to_le_bytes());
    for &o in g.offsets() {
        h.bytes(&o.to_le_bytes());
    }
    h.bytes(&(g.targets().len() as u64).to_le_bytes());
    for &t in g.targets() {
        h.bytes(&t.to_le_bytes());
    }
    match g.weights() {
        Some(w) => {
            h.bytes(&(w.len() as u64).to_le_bytes());
            for &x in w {
                h.bytes(&x.to_le_bytes());
            }
        }
        None => h.bytes(&u64::MAX.to_le_bytes()),
    }
    h.0
}

fn check(rows: &[(String, u64)], golden: &[(&str, u64)]) {
    assert_eq!(rows.len(), golden.len(), "golden table size drifted");
    let mut ok = true;
    for ((name, actual), (gname, want)) in rows.iter().zip(golden) {
        assert_eq!(name, gname, "row order drifted");
        if actual != want {
            ok = false;
            eprintln!("{name}: digest {actual:#018x}, golden {want:#018x}");
        }
    }
    assert!(
        ok,
        "generator digests diverged; table of actuals:\n{}",
        rows.iter()
            .map(|(n, a)| format!("        (\"{n}\", {a:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn tiny_dataset_bytes_are_pinned() {
    let mut rows = Vec::new();
    for d in Dataset::ALL {
        rows.push((
            d.name().to_string(),
            graph_digest(&d.build(DatasetScale::Tiny)),
        ));
        rows.push((
            format!("{}-weighted", d.name()),
            graph_digest(&d.build_weighted(DatasetScale::Tiny)),
        ));
    }
    const GOLDEN: [(&str, u64); 10] = [
        ("kron", 0x1a3980ed8eea5466),
        ("kron-weighted", 0xdc11ffbd48734f3b),
        ("urand", 0x77179fbf079f13f3),
        ("urand-weighted", 0x3c676d72ab603a38),
        ("orkut", 0x259076246a14565b),
        ("orkut-weighted", 0x2cf9ac3478070989),
        ("livejournal", 0x2b6c94ffb0fa1ab9),
        ("livejournal-weighted", 0x9706aa01bb57c909),
        ("road", 0x2d80c7ec768d34b0),
        ("road-weighted", 0x52549abeb25ce95f),
    ];
    check(&rows, &GOLDEN);
}

/// The shape `perfbench`'s `replay-mmap` workload generates at `--seed 1`.
#[test]
fn small_kron_bytes_are_pinned() {
    let rows = [(
        "rmat-15-16-kron-seed1".to_string(),
        graph_digest(&rmat(15, 16, RmatSkew::Kron, 1)),
    )];
    check(&rows, &[("rmat-15-16-kron-seed1", 0x8eaf0c41f55ef14c)]);
}

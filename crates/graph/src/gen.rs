//! Synthetic graph generators standing in for the paper's datasets
//! (Table III). All generators are deterministic given a seed.
//!
//! - [`rmat`] — Kronecker-style recursive-matrix graphs: the GAP `kron`
//!   generator and our substitutes for the SNAP social networks (orkut,
//!   livejournal), which are power-law graphs of similar degree character.
//! - [`uniform`] — Erdős–Rényi-style graphs: the GAP `urand` generator.
//! - [`grid`] — a 2-D mesh standing in for the `road` network: high
//!   diameter, tiny degree, strong locality.

use crate::csr::{Csr, CsrBuilder};
use crate::rng::SimRng;

/// RMAT quadrant probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the (0,0) quadrant.
    pub a: f64,
    /// Probability of the (0,1) quadrant.
    pub b: f64,
    /// Probability of the (1,0) quadrant.
    pub c: f64,
}

/// Preset skews for the RMAT generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmatSkew {
    /// The Graph500/GAP `kron` parameters (A=0.57, B=0.19, C=0.19).
    Kron,
    /// A denser-community skew approximating the orkut social network.
    Social,
    /// A milder skew approximating livejournal.
    Community,
}

impl RmatSkew {
    /// The quadrant probabilities for this preset.
    pub fn params(self) -> RmatParams {
        match self {
            RmatSkew::Kron => RmatParams {
                a: 0.57,
                b: 0.19,
                c: 0.19,
            },
            RmatSkew::Social => RmatParams {
                a: 0.55,
                b: 0.22,
                c: 0.22,
            },
            RmatSkew::Community => RmatParams {
                a: 0.59,
                b: 0.18,
                c: 0.18,
            },
        }
    }
}

/// Generates an RMAT graph with `2^scale` vertices and
/// `edge_factor * 2^scale` directed edges (before dedup; self-loops and
/// duplicates are removed, so the final count is slightly lower).
///
/// # Example
///
/// ```
/// use droplet_graph::gen::{rmat, RmatSkew};
/// let g = rmat(8, 8, RmatSkew::Kron, 1);
/// assert_eq!(g.num_vertices(), 256);
/// assert!(g.num_edges() > 1000);
/// ```
pub fn rmat(scale: u32, edge_factor: u64, skew: RmatSkew, seed: u64) -> Csr {
    rmat_with(scale, edge_factor, skew.params(), seed, false)
}

/// Weighted variant of [`rmat`]; weights are uniform in `1..=255` like the
/// GAP weight generator.
pub fn rmat_weighted(scale: u32, edge_factor: u64, skew: RmatSkew, seed: u64) -> Csr {
    rmat_with(scale, edge_factor, skew.params(), seed, true)
}

fn rmat_with(scale: u32, edge_factor: u64, p: RmatParams, seed: u64, weighted: bool) -> Csr {
    assert!(scale > 0 && scale < 32, "scale must be in 1..32");
    let n: u32 = 1 << scale;
    let m = edge_factor * u64::from(n);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x524d_4154);
    let mut b = CsrBuilder::with_capacity(n, m as usize);
    // Quadrants (0,0), (0,1), (1,0), (1,1) own [0, a), [a, ab), [ab, abc)
    // and [abc, 1). The thresholds sum left to right, `(a + b) + c`: another
    // order can round a threshold differently and so change every graph.
    let (a, ab) = (p.a, p.a + p.b);
    let abc = ab + p.c;
    debug_assert!(a <= ab && ab <= abc, "quadrant probabilities must be >= 0");
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let r = rng.next_f64();
            // Branch-free: u's bit is set past `ab`; v's bit flips at each
            // threshold crossed, which sets it in (0,1) and (1,1) only.
            let (ge_a, ge_ab, ge_abc) = (r >= a, r >= ab, r >= abc);
            u = (u << 1) | u32::from(ge_ab);
            v = (v << 1) | u32::from(ge_a ^ ge_ab ^ ge_abc);
        }
        if weighted {
            b.push_weighted_edge(u, v, rng.between(1, 255));
        } else {
            b.push_edge(u, v);
        }
    }
    b.dedup().build()
}

/// Generates a uniform-random (Erdős–Rényi style) graph with `n` vertices
/// and `m` directed edges before dedup — the GAP `urand` generator.
pub fn uniform(n: u32, m: u64, seed: u64) -> Csr {
    uniform_with(n, m, seed, false)
}

/// Weighted variant of [`uniform`].
pub fn uniform_weighted(n: u32, m: u64, seed: u64) -> Csr {
    uniform_with(n, m, seed, true)
}

fn uniform_with(n: u32, m: u64, seed: u64, weighted: bool) -> Csr {
    assert!(n > 1, "need at least two vertices");
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0055_5241_4e44);
    let mut b = CsrBuilder::with_capacity(n, m as usize);
    for _ in 0..m {
        let u = rng.below(n);
        let v = rng.below(n);
        if weighted {
            b.push_weighted_edge(u, v, rng.between(1, 255));
        } else {
            b.push_edge(u, v);
        }
    }
    b.dedup().build()
}

/// Generates a `rows × cols` 4-connected mesh standing in for a road
/// network: every interior vertex links to its N/S/E/W neighbors (both
/// directions), and a small fraction `shortcut_per_mille` (per 1000
/// vertices) of random long-range shortcuts model highway ramps.
///
/// # Example
///
/// ```
/// use droplet_graph::gen::grid;
/// let g = grid(10, 10, 0, 7);
/// assert_eq!(g.num_vertices(), 100);
/// // Corner vertices have degree 2.
/// assert_eq!(g.out_degree(0), 2);
/// ```
pub fn grid(rows: u32, cols: u32, shortcut_per_mille: u32, seed: u64) -> Csr {
    grid_with(rows, cols, shortcut_per_mille, seed, false)
}

/// Weighted variant of [`grid`]; weights model road-segment lengths.
pub fn grid_weighted(rows: u32, cols: u32, shortcut_per_mille: u32, seed: u64) -> Csr {
    grid_with(rows, cols, shortcut_per_mille, seed, true)
}

fn grid_with(rows: u32, cols: u32, shortcut_per_mille: u32, seed: u64, weighted: bool) -> Csr {
    let n = rows
        .checked_mul(cols)
        .expect("grid dimensions overflow u32");
    assert!(n > 1, "need at least two vertices");
    let mut rng = SimRng::seed_from_u64(seed ^ 0x4752_4944);
    let id = |r: u32, c: u32| r * cols + c;
    let mut b = CsrBuilder::with_capacity(n, (4 * n) as usize);
    let add = |b: &mut CsrBuilder, u: u32, v: u32, rng: &mut SimRng| {
        if weighted {
            b.push_weighted_edge(u, v, rng.between(1, 255));
        } else {
            b.push_edge(u, v);
        }
    };
    for r in 0..rows {
        for c in 0..cols {
            let u = id(r, c);
            if c + 1 < cols {
                add(&mut b, u, id(r, c + 1), &mut rng);
                add(&mut b, id(r, c + 1), u, &mut rng);
            }
            if r + 1 < rows {
                add(&mut b, u, id(r + 1, c), &mut rng);
                add(&mut b, id(r + 1, c), u, &mut rng);
            }
        }
    }
    let shortcuts = u64::from(n) * u64::from(shortcut_per_mille) / 1000;
    for _ in 0..shortcuts {
        let u = rng.below(n);
        let v = rng.below(n);
        add(&mut b, u, v, &mut rng);
        add(&mut b, v, u, &mut rng);
    }
    b.dedup().build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(8, 4, RmatSkew::Kron, 7);
        let b = rmat(8, 4, RmatSkew::Kron, 7);
        assert_eq!(a, b);
        let c = rmat(8, 4, RmatSkew::Kron, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_has_power_law_tendency() {
        let g = rmat(10, 8, RmatSkew::Kron, 3);
        let mut degrees: Vec<u64> = (0..g.num_vertices()).map(|u| g.out_degree(u)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Hub vertices should dominate: the max degree far exceeds the mean.
        let mean = g.avg_degree();
        assert!(
            degrees[0] as f64 > 5.0 * mean,
            "max {} mean {mean}",
            degrees[0]
        );
        // And no self loops survive dedup.
        for u in 0..g.num_vertices() {
            assert!(!g.neighbors(u).contains(&u));
        }
    }

    #[test]
    fn uniform_degree_is_concentrated() {
        let g = uniform(1024, 16 * 1024, 5);
        let mean = g.avg_degree();
        assert!(mean > 12.0 && mean <= 16.0, "mean {mean}");
        let max = (0..g.num_vertices())
            .map(|u| g.out_degree(u))
            .max()
            .unwrap();
        assert!((max as f64) < 4.0 * mean, "uniform graphs have no hubs");
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5, 0, 1);
        assert_eq!(g.num_vertices(), 20);
        // Interior vertex (1,1) = id 6 has degree 4.
        assert_eq!(g.out_degree(6), 4);
        // Mesh edges are symmetric.
        for u in 0..g.num_vertices() {
            for &v in g.neighbors(u) {
                assert!(g.neighbors(v).contains(&u), "missing reverse of {u}->{v}");
            }
        }
    }

    #[test]
    fn grid_shortcuts_increase_edges() {
        let base = grid(32, 32, 0, 9).num_edges();
        let with = grid(32, 32, 100, 9).num_edges();
        assert!(with > base);
    }

    #[test]
    fn weighted_generators_produce_weights_in_range() {
        for g in [
            rmat_weighted(6, 4, RmatSkew::Social, 2),
            uniform_weighted(64, 512, 2),
            grid_weighted(8, 8, 50, 2),
        ] {
            assert!(g.is_weighted());
            let w = g.weights().unwrap();
            assert!(!w.is_empty());
            assert!(w.iter().all(|&x| (1..=255).contains(&x)));
        }
    }

    #[test]
    fn skew_presets_are_normalized_enough() {
        for s in [RmatSkew::Kron, RmatSkew::Social, RmatSkew::Community] {
            let p = s.params();
            assert!(p.a + p.b + p.c < 1.0);
            assert!(p.a > p.b && p.a > p.c);
        }
    }
}

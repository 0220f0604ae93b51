//! The five evaluation datasets (paper Table III) at simulation-friendly
//! scales.
//!
//! The paper uses two synthetic GAP graphs (`kron`, `urand`), two SNAP
//! social networks (`orkut`, `livejournal`) and a road mesh. We reproduce
//! the synthetic generators directly and substitute RMAT graphs with
//! matching degree character for the SNAP downloads (see DESIGN.md §4);
//! `road` is a 2-D mesh with sparse shortcuts. Three scales are provided:
//! [`DatasetScale::Tiny`] for unit tests, [`DatasetScale::Small`] for
//! examples, and [`DatasetScale::Sim`] for the figure-regeneration benches
//! (sized so the property working set exceeds the 8 MB baseline LLC, per the
//! paper's Section VI argument).

use crate::csr::Csr;
use crate::gen::{self, RmatSkew};

/// The five paper datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// GAP synthetic Kronecker graph.
    Kron,
    /// GAP synthetic uniform-random graph.
    Urand,
    /// Orkut-like social network (RMAT substitute, dense).
    Orkut,
    /// LiveJournal-like social network (RMAT substitute, sparser).
    LiveJournal,
    /// Road-like mesh network.
    Road,
}

/// How large to build a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetScale {
    /// 4–8 K vertices (road is a 90 × 90 grid); for unit and integration
    /// tests.
    Tiny,
    /// ~32 K vertices; for examples and quick experiments.
    Small,
    /// ~1–2 M vertices; for the figure benches (working set ≫ LLC).
    Sim,
}

impl Dataset {
    /// All five datasets in the paper's presentation order.
    pub const ALL: [Dataset; 5] = [
        Dataset::Kron,
        Dataset::Urand,
        Dataset::Orkut,
        Dataset::LiveJournal,
        Dataset::Road,
    ];

    /// The dataset's short name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Kron => "kron",
            Dataset::Urand => "urand",
            Dataset::Orkut => "orkut",
            Dataset::LiveJournal => "livejournal",
            Dataset::Road => "road",
        }
    }

    /// Builds the unweighted graph at the given scale. Deterministic.
    pub fn build(self, scale: DatasetScale) -> Csr {
        self.build_inner(scale, false)
    }

    /// Builds the weighted variant (for SSSP), matching the paper's note
    /// that weighted graphs are generated separately.
    pub fn build_weighted(self, scale: DatasetScale) -> Csr {
        self.build_inner(scale, true)
    }

    fn build_inner(self, scale: DatasetScale, weighted: bool) -> Csr {
        let seed = 0xD20_B1E7 ^ (self as u64);
        match (self, scale) {
            // kron: GAP Kronecker parameters.
            (Dataset::Kron, DatasetScale::Tiny) => rmat(13, 8, RmatSkew::Kron, seed, weighted),
            (Dataset::Kron, DatasetScale::Small) => rmat(15, 16, RmatSkew::Kron, seed, weighted),
            (Dataset::Kron, DatasetScale::Sim) => rmat(21, 16, RmatSkew::Kron, seed, weighted),
            // urand: same vertex count as kron, uniform edges.
            (Dataset::Urand, DatasetScale::Tiny) => uniform(1 << 13, 8 << 13, seed, weighted),
            (Dataset::Urand, DatasetScale::Small) => uniform(1 << 15, 16 << 15, seed, weighted),
            (Dataset::Urand, DatasetScale::Sim) => uniform(1 << 21, 16 << 21, seed, weighted),
            // orkut-like: denser, fewer vertices (real orkut: 3 M v, 117 M e).
            (Dataset::Orkut, DatasetScale::Tiny) => rmat(12, 16, RmatSkew::Social, seed, weighted),
            (Dataset::Orkut, DatasetScale::Small) => rmat(14, 32, RmatSkew::Social, seed, weighted),
            (Dataset::Orkut, DatasetScale::Sim) => rmat(20, 32, RmatSkew::Social, seed, weighted),
            // livejournal-like: sparser (real lj: 4.8 M v, 68.5 M e).
            (Dataset::LiveJournal, DatasetScale::Tiny) => {
                rmat(13, 4, RmatSkew::Community, seed, weighted)
            }
            (Dataset::LiveJournal, DatasetScale::Small) => {
                rmat(15, 8, RmatSkew::Community, seed, weighted)
            }
            (Dataset::LiveJournal, DatasetScale::Sim) => {
                rmat(21, 8, RmatSkew::Community, seed, weighted)
            }
            // road: mesh with ~2/1000 shortcut ramps (real: 23.9 M v, deg 2.4).
            (Dataset::Road, DatasetScale::Tiny) => grid(90, 90, 2, seed, weighted),
            (Dataset::Road, DatasetScale::Small) => grid(180, 180, 2, seed, weighted),
            (Dataset::Road, DatasetScale::Sim) => grid(1448, 1448, 2, seed, weighted),
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn rmat(scale: u32, ef: u64, skew: RmatSkew, seed: u64, weighted: bool) -> Csr {
    if weighted {
        gen::rmat_weighted(scale, ef, skew, seed)
    } else {
        gen::rmat(scale, ef, skew, seed)
    }
}

fn uniform(n: u32, m: u64, seed: u64, weighted: bool) -> Csr {
    if weighted {
        gen::uniform_weighted(n, m, seed)
    } else {
        gen::uniform(n, m, seed)
    }
}

fn grid(rows: u32, cols: u32, ramps: u32, seed: u64, weighted: bool) -> Csr {
    if weighted {
        gen::grid_weighted(rows, cols, ramps, seed)
    } else {
        gen::grid(rows, cols, ramps, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn tiny_datasets_build_and_differ() {
        let graphs: Vec<Csr> = Dataset::ALL
            .iter()
            .map(|d| d.build(DatasetScale::Tiny))
            .collect();
        for g in &graphs {
            assert!(g.num_vertices() >= 512);
            assert!(g.num_edges() > 0);
            assert!(!g.is_weighted());
        }
        // Social substitutes are skewed; road is not.
        let orkut = DegreeStats::of(&graphs[2]);
        let road = DegreeStats::of(&graphs[4]);
        assert!(orkut.max as f64 > 4.0 * orkut.mean);
        assert!((road.max as f64) < 4.0 * road.mean.max(1.0) + 8.0);
    }

    #[test]
    fn weighted_variants_are_weighted() {
        for d in Dataset::ALL {
            assert!(d.build_weighted(DatasetScale::Tiny).is_weighted());
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Dataset::Kron.build(DatasetScale::Tiny);
        let b = Dataset::Kron.build(DatasetScale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["kron", "urand", "orkut", "livejournal", "road"]);
        assert_eq!(Dataset::Road.to_string(), "road");
    }
}

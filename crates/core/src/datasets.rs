//! The workload matrix: 5 algorithms × 5 datasets (paper Tables II & III),
//! with trace construction and per-scale op budgets.

use droplet_gap::{Algorithm, TraceBundle};
use droplet_graph::{Csr, Dataset, DatasetScale};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type GraphKey = (Dataset, DatasetScale, bool);

fn graph_cache() -> &'static Mutex<HashMap<GraphKey, Arc<Csr>>> {
    static CACHE: OnceLock<Mutex<HashMap<GraphKey, Arc<Csr>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// One (algorithm, dataset) cell of the evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// The dataset.
    pub dataset: Dataset,
    /// The dataset scale.
    pub scale: DatasetScale,
}

impl WorkloadSpec {
    /// The full 25-cell matrix at `scale`.
    pub fn matrix(scale: DatasetScale) -> Vec<WorkloadSpec> {
        let mut out = Vec::with_capacity(25);
        for algorithm in Algorithm::ALL {
            for dataset in Dataset::ALL {
                out.push(WorkloadSpec {
                    algorithm,
                    dataset,
                    scale,
                });
            }
        }
        out
    }

    /// Default trace-op budget for the scale: the simulation analogue of
    /// the paper's 600 M-instruction ROI.
    pub fn default_budget(scale: DatasetScale) -> u64 {
        match scale {
            DatasetScale::Tiny => 400_000,
            DatasetScale::Small => 1_500_000,
            DatasetScale::Sim => 8_000_000,
        }
    }

    /// Default warm-up prefix in ops (statistics start after it).
    pub fn default_warmup(scale: DatasetScale) -> usize {
        (Self::default_budget(scale) / 4) as usize
    }

    /// Builds the graph for this cell (weighted iff the algorithm needs
    /// it). Graphs are cached process-wide — five algorithms share each
    /// dataset — and persisted to an on-disk cache (`target/dataset-cache`,
    /// overridable via `DROPLET_DATASET_CACHE`) so separate bench processes
    /// do not regenerate multi-minute Sim-scale graphs.
    pub fn build_graph(&self) -> Arc<Csr> {
        let weighted = self.algorithm.needs_weights();
        let key = (self.dataset, self.scale, weighted);
        let mut cache = graph_cache().lock().expect("graph cache poisoned");
        cache
            .entry(key)
            .or_insert_with(|| {
                Arc::new(disk_cache::load_or_build(
                    self.dataset,
                    self.scale,
                    weighted,
                ))
            })
            .clone()
    }

    /// Builds the trace bundle with an explicit op budget.
    pub fn build_trace_with_budget(&self, budget: u64) -> TraceBundle {
        let g = self.build_graph();
        self.algorithm.trace(&g, budget)
    }

    /// The "PR-orkut" style label used in figure rows.
    pub fn label(&self) -> String {
        format!("{}-{}", self.algorithm.name(), self.dataset.name())
    }
}

mod disk_cache {
    //! A trivial flat-binary on-disk cache for generated datasets.
    //! Format: magic, vertex count, edge count, weighted flag (four
    //! little-endian `u64`s), then the sources / targets / weights arrays
    //! as little-endian `u32`s. The cache is machine-local scratch, not an
    //! interchange format, but it is still input from disk: a file whose
    //! header disagrees with its length or whose IDs are out of range is
    //! rejected, and the graph is regenerated.

    use droplet_graph::{Csr, CsrBuilder, Dataset, DatasetScale};
    use std::io::{Read, Write};
    use std::path::PathBuf;

    pub(super) const MAGIC: u64 = 0xD20B_1E7C_AC4E_u64;
    /// Magic, vertex count, edge count, weighted flag.
    const HEADER_BYTES: u64 = 32;

    fn cache_path(dataset: Dataset, scale: DatasetScale, weighted: bool) -> Option<PathBuf> {
        // Only Sim-scale graphs are worth disk space and I/O.
        if scale != DatasetScale::Sim {
            return None;
        }
        let dir = std::env::var("DROPLET_DATASET_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/dataset-cache"));
        std::fs::create_dir_all(&dir).ok()?;
        let w = if weighted { "w" } else { "u" };
        Some(dir.join(format!("{}-sim-{w}.bin", dataset.name())))
    }

    fn generate(dataset: Dataset, scale: DatasetScale, weighted: bool) -> Csr {
        if weighted {
            dataset.build_weighted(scale)
        } else {
            dataset.build(scale)
        }
    }

    pub(super) fn load_or_build(dataset: Dataset, scale: DatasetScale, weighted: bool) -> Csr {
        let Some(path) = cache_path(dataset, scale, weighted) else {
            return generate(dataset, scale, weighted);
        };
        if let Some(g) = try_load(&path, weighted) {
            return g;
        }
        let g = generate(dataset, scale, weighted);
        // Best effort: a failed save only costs regeneration time later.
        let _ = save(&path, &g);
        g
    }

    fn read_u64(r: &mut impl Read) -> Option<u64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b).ok()?;
        Some(u64::from_le_bytes(b))
    }

    fn read_vec_u32(r: &mut impl Read, len: usize) -> Option<Vec<u32>> {
        let mut bytes = vec![0u8; len * 4];
        r.read_exact(&mut bytes).ok()?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }

    fn try_load(path: &std::path::Path, weighted: bool) -> Option<Csr> {
        let file = std::fs::File::open(path).ok()?;
        let file_len = file.metadata().ok()?.len();
        let mut r = std::io::BufReader::with_capacity(1 << 20, file);
        if read_u64(&mut r)? != MAGIC {
            return None;
        }
        let n = u32::try_from(read_u64(&mut r)?).ok()?;
        let m = read_u64(&mut r)?;
        let has_weights = read_u64(&mut r)? == 1;
        if has_weights != weighted {
            return None;
        }
        // The header's edge count sizes every array allocation below:
        // trust it only once the file length agrees with it exactly.
        let arrays = if has_weights { 3 } else { 2 };
        let body = m.checked_mul(4 * arrays)?;
        if HEADER_BYTES.checked_add(body)? != file_len {
            return None;
        }
        let m = usize::try_from(m).ok()?;
        let sources = read_vec_u32(&mut r, m)?;
        let targets = read_vec_u32(&mut r, m)?;
        if sources.iter().chain(&targets).any(|&v| v >= n) {
            return None;
        }
        let weights = if has_weights {
            Some(read_vec_u32(&mut r, m)?)
        } else {
            None
        };
        let mut b = CsrBuilder::with_capacity(n, m);
        for i in 0..m {
            match &weights {
                Some(w) => b.push_weighted_edge(sources[i], targets[i], w[i]),
                None => b.push_edge(sources[i], targets[i]),
            }
        }
        Some(b.build())
    }

    #[cfg(test)]
    pub(super) fn save_for_test(path: &std::path::Path, g: &Csr) -> std::io::Result<()> {
        save(path, g)
    }

    #[cfg(test)]
    pub(super) fn load_for_test(path: &std::path::Path, weighted: bool) -> Option<Csr> {
        try_load(path, weighted)
    }

    fn save(path: &std::path::Path, g: &Csr) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let file = std::fs::File::create(&tmp)?;
            let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
            w.write_all(&MAGIC.to_le_bytes())?;
            w.write_all(&u64::from(g.num_vertices()).to_le_bytes())?;
            w.write_all(&g.num_edges().to_le_bytes())?;
            w.write_all(&u64::from(g.is_weighted()).to_le_bytes())?;
            // Sources are reconstructed from the offsets array.
            for u in 0..g.num_vertices() {
                let d = g.out_degree(u);
                for _ in 0..d {
                    w.write_all(&u.to_le_bytes())?;
                }
            }
            for &t in g.targets() {
                w.write_all(&t.to_le_bytes())?;
            }
            if let Some(ws) = g.weights() {
                for &x in ws {
                    w.write_all(&x.to_le_bytes())?;
                }
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, path)
    }
}

impl std::fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_complete() {
        let m = WorkloadSpec::matrix(DatasetScale::Tiny);
        assert_eq!(m.len(), 25);
        let labels: std::collections::HashSet<String> = m.iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), 25);
        assert!(labels.contains("PR-orkut"));
    }

    #[test]
    fn sssp_cells_get_weighted_graphs() {
        let w = WorkloadSpec {
            algorithm: Algorithm::Sssp,
            dataset: Dataset::Road,
            scale: DatasetScale::Tiny,
        };
        assert!(w.build_graph().is_weighted());
        let b = w.build_trace_with_budget(50_000);
        assert!(!b.ops.is_empty());
    }

    #[test]
    fn disk_cache_roundtrips_weighted_and_unweighted() {
        let dir = std::env::temp_dir().join(format!("droplet-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let unweighted = Dataset::Kron.build(DatasetScale::Tiny);
        let path = dir.join("u.bin");
        disk_cache::save_for_test(&path, &unweighted).unwrap();
        assert_eq!(disk_cache::load_for_test(&path, false).unwrap(), unweighted);
        // Asking for the wrong weightedness misses the cache.
        assert!(disk_cache::load_for_test(&path, true).is_none());

        let weighted = Dataset::Road.build_weighted(DatasetScale::Tiny);
        let wpath = dir.join("w.bin");
        disk_cache::save_for_test(&wpath, &weighted).unwrap();
        assert_eq!(disk_cache::load_for_test(&wpath, true).unwrap(), weighted);

        // Corrupt magic is rejected.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(disk_cache::load_for_test(&path, false).is_none());

        // Writes a file in `save`'s format from raw header and body words.
        let forge = |n: u64, m: u64, weighted: bool, body: &[u32]| {
            let mut bytes = Vec::new();
            for word in [disk_cache::MAGIC, n, m, u64::from(weighted)] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            for x in body {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            std::fs::write(&path, bytes).unwrap();
        };
        // A consistent forged file loads: one edge 0 -> 1.
        forge(2, 1, false, &[0, 1]);
        assert_eq!(
            disk_cache::load_for_test(&path, false).unwrap().num_edges(),
            1
        );
        // A forged edge count must not size an allocation.
        forge(2, 1 << 40, false, &[0, 1]);
        assert!(disk_cache::load_for_test(&path, false).is_none());
        // A vertex count past u32 must not be truncated.
        forge(1 << 32, 1, false, &[0, 1]);
        assert!(disk_cache::load_for_test(&path, false).is_none());
        // An edge to vertex 7 of a 2-vertex graph.
        forge(2, 1, false, &[0, 7]);
        assert!(disk_cache::load_for_test(&path, false).is_none());
        // A truncated body (the weights array is missing).
        forge(2, 1, true, &[0, 1]);
        assert!(disk_cache::load_for_test(&path, true).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgets_scale_up() {
        assert!(
            WorkloadSpec::default_budget(DatasetScale::Tiny)
                < WorkloadSpec::default_budget(DatasetScale::Sim)
        );
        assert_eq!(WorkloadSpec::default_warmup(DatasetScale::Tiny), 100_000);
    }
}

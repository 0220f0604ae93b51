//! Forked sweeps must be deterministic in everything but wall time: the
//! same cells produce bit-identical results whether the pool runs one
//! worker or four, and whether warm-up is shared or replayed per cell.
//! (Mirrors `parallel_determinism.rs`, which pins the same property for
//! the unforked driver path.)

use droplet::gap::Algorithm;
use droplet::graph::{Dataset, DatasetScale};
use droplet::{run_sweep, JobPool, PrefetcherKind, RunResult, SweepCell, SystemConfig};
use std::sync::Arc;

fn cells() -> Vec<SweepCell> {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let pr = Arc::new(Algorithm::Pr.trace(&g, 80_000));
    let bfs = Arc::new(Algorithm::Bfs.trace(&g, 60_000));
    let base = SystemConfig::test_scale();
    let mut cells = Vec::new();
    // Two bundles × four configs: two shared-warmup groups, fanned
    // interleaved so phase-B scheduling differs across thread counts.
    for bundle in [&pr, &bfs] {
        for kind in [
            PrefetcherKind::None,
            PrefetcherKind::Stream,
            PrefetcherKind::Droplet,
            PrefetcherKind::AdaptiveDroplet,
        ] {
            cells.push(SweepCell {
                bundle: Arc::clone(bundle),
                cfg: base.with_prefetcher(kind),
            });
        }
    }
    cells
}

#[test]
fn forked_sweep_is_thread_count_invariant() {
    let cells = cells();
    let serial: Vec<u64> = run_sweep(&JobPool::with_threads(1), &cells, 10_000, true)
        .iter()
        .map(RunResult::digest)
        .collect();
    let parallel: Vec<u64> = run_sweep(&JobPool::with_threads(4), &cells, 10_000, true)
        .iter()
        .map(RunResult::digest)
        .collect();
    assert_eq!(
        serial, parallel,
        "forked sweep results depend on the thread count"
    );
}

#[test]
fn forked_sweep_matches_unforked_sweep() {
    let cells = cells();
    let pool = JobPool::with_threads(4);
    let forked = run_sweep(&pool, &cells, 10_000, true);
    let full = run_sweep(&pool, &cells, 10_000, false);
    for (i, (f, r)) in forked.iter().zip(&full).enumerate() {
        assert_eq!(f.digest(), r.digest(), "cell {i}: fork != full replay");
        assert!(f.manifest.forked_from.is_some(), "cell {i} did not fork");
        assert!(r.manifest.forked_from.is_none());
    }
}

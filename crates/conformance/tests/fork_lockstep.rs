//! Fork conformance: a forked simulation must be *op-by-op* identical to a
//! from-scratch run over the same warm-up prefix — and the differ must be
//! able to prove the converse, catching a deliberately incomplete snapshot
//! restore ([`ForkMutation`]) and shrinking it to a tiny repro.

use conformance::{run_lockstep, shrink, ForkHarness};
use droplet::{ForkMutation, PrefetcherKind, SystemConfig};
use droplet_gap::{Algorithm, TraceBundle};
use droplet_graph::{Dataset, DatasetScale};
use proptest::TestRng;
use std::sync::Arc;

/// Small enough that the reference side's per-reset re-warm stays cheap
/// through a ddmin shrink, big enough to exercise every structure.
fn bundle() -> TraceBundle {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    Algorithm::Pr.trace(&g, 40_000)
}

const WARMUP: usize = 1_500;

/// The conformance run proper: replay the entire measurement region
/// through the forked and the from-scratch machine in lockstep. Zero
/// divergences, under the configuration with the most live state (DROPLET:
/// MPP, MRB, stream tables, per-line prefetch metadata).
#[test]
fn forked_run_is_lockstep_identical_to_replay() {
    let b = bundle();
    let cfg = SystemConfig::test_scale().with_prefetcher(PrefetcherKind::Droplet);
    let mut h = ForkHarness::new(&b, cfg, WARMUP, ForkMutation::None);
    let meas: Vec<_> = b.ops[h.applied()..].to_vec();
    if let Some(d) = run_lockstep(&mut h, &meas) {
        panic!(
            "forked run diverged from full replay at step {}:\n\
             op {}\n  production: {}\n  reference:  {}\n\
             production state:\n{}\nreference state:\n{}",
            d.step, d.op, d.got, d.want, d.prod_state, d.ref_state
        );
    }
}

/// Finds a diverging stream for a fork with `mutation` injected into its
/// restore path, shrinks it, and checks the repro is tiny and still
/// diverges — the proof the lockstep differ would catch an incomplete
/// [`droplet::WarmupSnapshot`].
fn catch_and_shrink(mutation: ForkMutation) {
    let b = bundle();
    let mut h = ForkHarness::new(&b, SystemConfig::test_scale(), WARMUP, mutation);
    let meas = &b.ops[h.applied()..];
    for seed in 0..64u64 {
        let mut rng = TestRng::from_seed(seed);
        // Random subsequences of the measurement region: always mapped
        // addresses, fresh op orderings every seed.
        let ops: Vec<_> = (0..700)
            .map(|_| meas[rng.below(meas.len() as u64) as usize])
            .collect();
        if let Some(d) = run_lockstep(&mut h, &ops) {
            let repro = shrink(&mut h, &ops[..=d.step]);
            let confirm = run_lockstep(&mut h, &repro);
            assert!(
                confirm.is_some(),
                "{mutation:?}: shrunk stream no longer diverges"
            );
            assert!(
                repro.len() <= 20,
                "{mutation:?}: repro not minimal: {} ops\n{repro:#?}",
                repro.len()
            );
            return;
        }
    }
    panic!("{mutation:?}: injected restore fault never caught in 64 fuzzed streams");
}

#[test]
fn skipped_dtlb_restore_is_caught_and_shrunk() {
    catch_and_shrink(ForkMutation::SkipDtlb);
}

#[test]
fn skipped_l1_restore_is_caught_and_shrunk() {
    catch_and_shrink(ForkMutation::SkipL1);
}

/// Sanity: with no fault armed the very same streams are divergence-free
/// (otherwise the tests above could pass by catching a harness bug).
#[test]
fn unmutated_fork_survives_the_same_streams() {
    let b = bundle();
    let mut h = ForkHarness::new(&b, SystemConfig::test_scale(), WARMUP, ForkMutation::None);
    let meas = &b.ops[h.applied()..];
    for seed in 0..8u64 {
        let mut rng = TestRng::from_seed(seed);
        let ops: Vec<_> = (0..700)
            .map(|_| meas[rng.below(meas.len() as u64) as usize])
            .collect();
        assert!(run_lockstep(&mut h, &ops).is_none(), "seed {seed} diverged");
    }
}

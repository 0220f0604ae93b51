//! Conformance runs: every optimized structure replayed in lockstep against
//! its executable reference model over ≥10k fuzzed, seeded operations.
//!
//! On divergence the harness panics with the seed, a delta-debugged minimal
//! repro, and both state dumps; set `DROPLET_TEST_SEED` to explore fresh
//! streams or replay a reported one.

use conformance::fuzz_and_verify;
use conformance::harness::{
    gen_cache_ops, gen_mshr_ops, gen_page_ops, gen_pf_ops, gen_tlb_ops, small_cache_config,
    wide_cache_config, CacheHarness, MshrHarness, PageHarness, PrefetchHarness, TlbHarness,
};
use conformance::reference::{RefGhb, RefNextLine, RefStream, RefVldp};
use droplet_cache::{CacheMutation, ReplacementPolicy};
use droplet_prefetch::{
    GhbConfig, GhbPrefetcher, NextLinePrefetcher, StreamConfig, StreamPrefetcher, VldpConfig,
    VldpPrefetcher,
};

const SEEDS: std::ops::Range<u64> = 0..16;
const OPS_PER_SEED: usize = 700;
const MIN_TOTAL_OPS: u64 = 10_000;

#[test]
fn cache_matches_reference() {
    policy_matches_reference(ReplacementPolicy::Lru);
}

/// One replacement policy in lockstep against its reference model (via
/// `model_for`: `RefCache` for LRU, `RefRripCache` otherwise) — hit/miss,
/// evicted line identity and flags, residency, occupancy, stats — over the
/// 2-way and the 4-way geometry, ≥10k ops each.
fn policy_matches_reference(policy: ReplacementPolicy) {
    for cfg in [small_cache_config(), wide_cache_config()] {
        let name = format!("cache-{policy}-{}way", cfg.assoc);
        let mut h = CacheHarness::new(cfg.with_policy(policy), CacheMutation::None);
        let report = fuzz_and_verify(&mut h, &name, SEEDS, OPS_PER_SEED, gen_cache_ops);
        assert!(
            report.ops >= MIN_TOTAL_OPS,
            "{name}: only {} ops fuzzed",
            report.ops
        );
    }
}

#[test]
fn srrip_cache_matches_reference() {
    policy_matches_reference(ReplacementPolicy::Srrip);
}

#[test]
fn brrip_cache_matches_reference() {
    policy_matches_reference(ReplacementPolicy::Brrip);
}

#[test]
fn drrip_cache_matches_reference() {
    policy_matches_reference(ReplacementPolicy::Drrip);
}

#[test]
fn ship_cache_matches_reference() {
    policy_matches_reference(ReplacementPolicy::Ship);
}

#[test]
fn tlb_matches_reference() {
    // 8 entries over a 44-page universe: constant replacement pressure.
    let mut h = TlbHarness::new(8);
    let report = fuzz_and_verify(&mut h, "tlb", SEEDS, OPS_PER_SEED, gen_tlb_ops);
    assert!(
        report.ops >= MIN_TOTAL_OPS,
        "only {} ops fuzzed",
        report.ops
    );
}

#[test]
fn mshr_matches_reference() {
    let mut h = MshrHarness::new(6);
    let report = fuzz_and_verify(&mut h, "mshr", SEEDS, OPS_PER_SEED, gen_mshr_ops);
    assert!(
        report.ops >= MIN_TOTAL_OPS,
        "only {} ops fuzzed",
        report.ops
    );
}

#[test]
fn page_table_matches_reference() {
    let mut h = PageHarness::new();
    let report = fuzz_and_verify(&mut h, "page-table", SEEDS, OPS_PER_SEED, gen_page_ops);
    assert!(
        report.ops >= MIN_TOTAL_OPS,
        "only {} ops fuzzed",
        report.ops
    );
}

#[test]
fn ghb_matches_reference() {
    // A small GHB so the ring wraps and index entries are evicted within a
    // stream, plus the paper geometry for the common case.
    for cfg in [
        GhbConfig::paper(),
        GhbConfig {
            index_entries: 8,
            ghb_entries: 16,
            degree: 2,
        },
    ] {
        let mut h = PrefetchHarness::new(move || {
            (GhbPrefetcher::new(cfg.clone()), RefGhb::new(cfg.clone()))
        });
        let report = fuzz_and_verify(&mut h, "ghb", SEEDS, OPS_PER_SEED, |rng, n| {
            gen_pf_ops(rng, n, false)
        });
        assert!(
            report.ops >= MIN_TOTAL_OPS,
            "only {} ops fuzzed",
            report.ops
        );
    }
}

#[test]
fn vldp_matches_reference() {
    for cfg in [
        VldpConfig::paper(),
        VldpConfig {
            drb_pages: 4,
            opt_entries: 8,
            dpt_entries: 4,
            levels: 3,
            degree: 2,
        },
    ] {
        let mut h = PrefetchHarness::new(move || {
            (VldpPrefetcher::new(cfg.clone()), RefVldp::new(cfg.clone()))
        });
        let report = fuzz_and_verify(&mut h, "vldp", SEEDS, OPS_PER_SEED, |rng, n| {
            gen_pf_ops(rng, n, false)
        });
        assert!(
            report.ops >= MIN_TOTAL_OPS,
            "only {} ops fuzzed",
            report.ops
        );
    }
}

#[test]
fn stream_matches_reference() {
    for cfg in [
        StreamConfig::conventional(),
        StreamConfig::data_aware(),
        StreamConfig {
            trackers: 2,
            distance: 4,
            degree: 2,
            data_aware: false,
        },
    ] {
        let mut h = PrefetchHarness::new(move || {
            (
                StreamPrefetcher::new(cfg.clone()),
                RefStream::new(cfg.clone()),
            )
        });
        // Mode switches exercise set_data_aware's tracker flush.
        let report = fuzz_and_verify(&mut h, "stream", SEEDS, OPS_PER_SEED, |rng, n| {
            gen_pf_ops(rng, n, true)
        });
        assert!(
            report.ops >= MIN_TOTAL_OPS,
            "only {} ops fuzzed",
            report.ops
        );
    }
}

#[test]
fn nextline_matches_reference() {
    for degree in [1u64, 4] {
        let mut h = PrefetchHarness::new(move || {
            (NextLinePrefetcher::new(degree), RefNextLine::new(degree))
        });
        let report = fuzz_and_verify(&mut h, "nextline", SEEDS, OPS_PER_SEED, |rng, n| {
            gen_pf_ops(rng, n, false)
        });
        assert!(
            report.ops >= MIN_TOTAL_OPS,
            "only {} ops fuzzed",
            report.ops
        );
    }
}

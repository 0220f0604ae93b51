//! Hand-computed exact sequences for the packed cache's replacement seam:
//! each trace's eviction order only comes out right if the policy's
//! defining mechanism works (SRRIP hit promotion, the deterministic BRRIP
//! bimodal counter crossing its period, DRRIP set-dueling flipping the
//! followers, SHiP dead-block prediction and its training edges).
//!
//! These are checks, not a model. The policies' one reference model is the
//! conformance crate's `RefRripCache` (`RefCache` for LRU), which fuzzes
//! every policy in lockstep with the production cache; a sequence here
//! names the mechanism a fuzz divergence would only point at.

use droplet_cache::policy::{DuelRole, BRRIP_LONG_PERIOD};
use droplet_cache::{ship_signature, CacheConfig, FillInfo, ReplacementPolicy, SetAssocCache};
use droplet_trace::DataType;

/// A one-set (or few-set) eviction-pressure geometry for `policy`.
fn tiny(policy: ReplacementPolicy, lines: u64, assoc: usize) -> CacheConfig {
    CacheConfig {
        name: "t",
        size_bytes: lines * 64,
        assoc,
        tag_latency: 1,
        data_latency: 1,
        policy,
    }
}

fn demand(now: u64) -> FillInfo {
    FillInfo::demand(DataType::Property, now)
}

/// Fills `line` and returns the evicted line's identity (if any).
fn fill_evicting(c: &mut SetAssocCache, line: u64, now: u64) -> Option<u64> {
    c.fill(line, demand(now)).map(|e| e.line)
}

// ---------------------------------------------------------------------------
// Exact hand-computed sequences.
// ---------------------------------------------------------------------------

/// SRRIP: inserts at RRPV_LONG, hit promotes to 0, victim = first way at
/// RRPV_MAX after aging rounds. The promoted line must outlive an aged one.
#[test]
fn srrip_exact_sequence() {
    // 1 set x 2 ways.
    let mut c = SetAssocCache::new(tiny(ReplacementPolicy::Srrip, 2, 2));
    assert_eq!(fill_evicting(&mut c, 10, 0), None); // way0: 10@LONG
    assert_eq!(fill_evicting(&mut c, 20, 1), None); // way1: 20@LONG
                                                    // No way at MAX: one aging round lifts both to MAX, way0 wins the tie.
    assert_eq!(fill_evicting(&mut c, 30, 2), Some(10)); // way0: 30@LONG, way1: 20@MAX
    assert_eq!(fill_evicting(&mut c, 40, 3), Some(20)); // way1: 40@LONG
    assert!(c.touch(30, 4, DataType::Property, false).is_some()); // 30 → RRPV 0
                                                                  // Aging: 30→1, 40→MAX. The promoted line survives.
    assert_eq!(fill_evicting(&mut c, 50, 5), Some(40));
    assert!(c.contains(30) && c.contains(50) && !c.contains(40));
}

/// BRRIP: the deterministic bimodal counter inserts at RRPV_MAX except on
/// every `BRRIP_LONG_PERIOD`-th insertion, which gets RRPV_LONG and — for
/// the first time in the whole run — outlives the set's standing occupant.
#[test]
fn brrip_exact_sequence() {
    // 1 set x 2 ways; insertions 1..=31 land at MAX, insertion 32 at LONG.
    let mut c = SetAssocCache::new(tiny(ReplacementPolicy::Brrip, 2, 2));
    assert_eq!(fill_evicting(&mut c, 1, 0), None); // way0: 1@MAX
    assert_eq!(fill_evicting(&mut c, 2, 1), None); // way1: 2@MAX
                                                   // MAX-inserted lines are immediately re-evictable: way0 thrashes while
                                                   // way1's line 2 sits untouched for 30 straight evictions.
    assert_eq!(fill_evicting(&mut c, 3, 2), Some(1));
    for n in 4..BRRIP_LONG_PERIOD {
        assert_eq!(fill_evicting(&mut c, n, n), Some(n - 1), "insertion {n}");
    }
    // Insertion 32 = the bimodal LONG insert (still evicts way0's line 31).
    assert_eq!(fill_evicting(&mut c, 32, 32), Some(31)); // way0: 32@LONG
                                                         // Now way1 (2@MAX) is finally the victim: the LONG insert survived.
    assert_eq!(fill_evicting(&mut c, 33, 33), Some(2)); // way1: 33@MAX
    assert_eq!(fill_evicting(&mut c, 34, 34), Some(33));
    assert!(c.contains(32));
}

/// The DRRIP set-dueling layout is fixed by geometry alone.
#[test]
fn drrip_duel_roles() {
    // 4 sets → period 4: set 0 leads SRRIP, set 2 (= period/2) leads BRRIP.
    assert_eq!(DuelRole::of_set(0, 4), DuelRole::SrripLeader);
    assert_eq!(DuelRole::of_set(1, 4), DuelRole::Follower);
    assert_eq!(DuelRole::of_set(2, 4), DuelRole::BrripLeader);
    assert_eq!(DuelRole::of_set(3, 4), DuelRole::Follower);
    // Large caches cap the period at 32.
    assert_eq!(DuelRole::of_set(32, 4096), DuelRole::SrripLeader);
    assert_eq!(DuelRole::of_set(16, 4096), DuelRole::BrripLeader);
    assert_eq!(DuelRole::of_set(17, 4096), DuelRole::Follower);
}

/// DRRIP: PSEL starts at the BRRIP side, a BRRIP-leader miss flips the
/// followers to SRRIP, SRRIP-leader misses flip them back — and prefetch
/// fills never train. Follower mode is observed through the eviction
/// pattern A,B,C,D → (A then C) under BRRIP vs (A then B) under SRRIP.
#[test]
fn drrip_exact_sequence() {
    // 4 sets x 2 ways; set 1 and set 3 are followers.
    let mut c = SetAssocCache::new(tiny(ReplacementPolicy::Drrip, 8, 2));
    // Phase 1 — PSEL at init ⇒ followers run BRRIP (MAX inserts thrash).
    assert_eq!(fill_evicting(&mut c, 1, 0), None);
    assert_eq!(fill_evicting(&mut c, 5, 1), None);
    assert_eq!(fill_evicting(&mut c, 9, 2), Some(1));
    assert_eq!(fill_evicting(&mut c, 13, 3), Some(9)); // BRRIP: not 5
                                                       // Phase 2 — one demand miss in the BRRIP leader (set 2) drops PSEL
                                                       // below init ⇒ followers flip to SRRIP. A prefetch fill into the SRRIP
                                                       // leader (set 0) must NOT train PSEL back.
    assert_eq!(fill_evicting(&mut c, 2, 4), None);
    assert!(c
        .fill(8, FillInfo::prefetch(DataType::Structure, 5))
        .is_none());
    assert_eq!(fill_evicting(&mut c, 3, 6), None); // set 3, LONG insert
    assert_eq!(fill_evicting(&mut c, 7, 7), None);
    assert_eq!(fill_evicting(&mut c, 11, 8), Some(3));
    assert_eq!(fill_evicting(&mut c, 15, 9), Some(7)); // SRRIP: not 11
                                                       // Phase 3 — two demand misses in the SRRIP leader (set 0) push PSEL
                                                       // back to/above init ⇒ followers return to BRRIP.
    assert_eq!(fill_evicting(&mut c, 0, 10), None);
    assert_eq!(fill_evicting(&mut c, 4, 11), Some(8));
    assert_eq!(fill_evicting(&mut c, 17, 12), Some(13)); // set 1: way0 thrash
    assert_eq!(fill_evicting(&mut c, 21, 13), Some(17)); // BRRIP: not 5
}

/// SHiP: a signature whose lines die unreferenced is trained to 0 and its
/// next fill is inserted dead-on-arrival (RRPV_MAX); a reused signature is
/// trained up and keeps LONG insertion. Inclusion invalidations do not
/// count as dead evictions.
#[test]
fn ship_exact_sequence() {
    // 1 set x 2 ways; for line < 1024 the signature is the line itself.
    assert_eq!(ship_signature(5), 5);
    assert_eq!(ship_signature((1 << 10) | 7), (1 << 10) >> 10 ^ 7);
    let mut c = SetAssocCache::new(tiny(ReplacementPolicy::Ship, 2, 2));
    assert_eq!(fill_evicting(&mut c, 1, 0), None); // SHCT[1]=init → LONG
    assert_eq!(fill_evicting(&mut c, 2, 1), None);
    // Line 1 evicted untouched → SHCT[1] trained down to 0.
    assert_eq!(fill_evicting(&mut c, 3, 2), Some(1));
    // Line 2 evicted untouched → SHCT[2] → 0; line 1 refills predicted
    // dead (RRPV_MAX) while line 3 keeps its LONG insertion.
    assert_eq!(fill_evicting(&mut c, 1, 3), Some(2));
    // The dead-predicted line is the immediate victim — plain SRRIP would
    // have aged both ways and evicted line 3 instead.
    assert_eq!(fill_evicting(&mut c, 4, 4), Some(1));
    // A demand hit trains SHCT[4] up past init.
    assert!(c.touch(4, 5, DataType::Property, false).is_some());
    assert_eq!(fill_evicting(&mut c, 6, 6), Some(3));
    // Invalidation (inclusion victim) is NOT a dead eviction: SHCT[4]
    // keeps its trained-up value...
    assert!(c.invalidate(4).is_some());
    assert_eq!(fill_evicting(&mut c, 4, 7), None); // refill into the hole
                                                   // ...so line 4 re-enters at LONG, ties with line 6, and the aging
                                                   // round evicts way 0 — not a dead-on-arrival line 4.
    assert_eq!(fill_evicting(&mut c, 8, 8), Some(6));
    assert!(c.contains(4));
}

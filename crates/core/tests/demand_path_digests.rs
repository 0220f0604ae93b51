//! Golden-digest regression test for the per-op demand path.
//!
//! Replays a small deterministic trace through every prefetcher
//! configuration and asserts an exact FNV-1a digest over *every* counter the
//! simulator reports: core timing, per-level cache statistics, DRAM traffic,
//! MPP activity, and the orchestration stats. The expected values were
//! captured before the demand-path flattening (lazy translation, stamp-LRU
//! TLB, in-cache prefetch tags, heap MSHR) landed, so any semantic drift in
//! that refactor — or in future ones — shows up as a digest mismatch rather
//! than a subtle statistics skew.
//!
//! If a *deliberate* behaviour change invalidates a digest, re-capture it by
//! running the test and copying the `actual` value from the failure message
//! (each run prints the full digest table on mismatch).

use droplet::gap::Algorithm;
use droplet::graph::{Dataset, DatasetScale};
use droplet::obs::ObsConfig;
use droplet::pool::JobPool;
use droplet::trace::DataType;
use droplet::{run_workload, PrefetcherKind, RunResult, SystemConfig};
use std::sync::Arc;

/// 64-bit FNV-1a over a stream of words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn opt(&mut self, w: Option<u64>) {
        match w {
            Some(v) => {
                self.word(1);
                self.word(v);
            }
            None => self.word(0),
        }
    }

    fn typed(&mut self, c: &droplet::cache::TypedCounter) {
        for dt in DataType::ALL {
            self.word(c.get(dt));
        }
    }

    fn cache(&mut self, s: &droplet::cache::CacheStats) {
        self.typed(&s.demand_accesses);
        self.typed(&s.demand_hits);
        self.typed(&s.late_prefetch_hits);
        self.typed(&s.prefetch_first_uses);
        self.typed(&s.prefetch_fills);
        self.typed(&s.prefetch_unused_evictions);
        self.typed(&s.demand_fills);
        self.word(s.inclusion_invalidations);
    }
}

/// Folds every observable of a run into one digest word.
fn digest(r: &RunResult) -> u64 {
    let mut d = Digest::new();
    d.word(r.core.cycles);
    d.word(r.core.instructions);
    d.word(r.core.memops);
    d.word(r.core.loads);
    for s in r.core.serviced_by {
        d.word(s);
    }
    let st = &r.core.cycle_stack;
    for w in [st.base, st.l1, st.l2, st.l3, st.dram, st.other] {
        d.word(w);
    }
    d.word(r.core.mlp.avg_outstanding.to_bits());
    d.word(r.core.mlp.busy_cycles);
    d.word(r.core.mlp.latency_sum);
    d.word(r.core.mlp.requests);

    d.cache(&r.l1);
    match &r.l2 {
        Some(l2) => {
            d.word(1);
            d.cache(l2);
        }
        None => d.word(0),
    }
    d.cache(&r.l3);

    d.word(r.dram.demand_accesses);
    d.word(r.dram.prefetch_accesses);
    d.word(r.dram.bus_busy_cycles);
    d.word(r.dram.queue_delay_cycles);
    d.opt(r.dram.first_request_at);
    d.word(r.dram.last_complete_at);

    match &r.mpp {
        Some(m) => {
            d.word(1);
            for w in [
                m.lines_scanned,
                m.ids_scanned,
                m.candidates,
                m.buffer_drops,
                m.page_fault_drops,
                m.out_of_bounds,
                m.mtlb_walks,
            ] {
                d.word(w);
            }
        }
        None => d.word(0),
    }

    d.word(r.sys.prefetch_unmapped_drops);
    d.word(r.sys.prefetch_redundant);
    d.word(r.sys.mpp_copied_from_llc);
    d.word(r.sys.mpp_redundant);
    d.word(r.sys.writebacks);
    d.word(r.sys.dtlb_misses);
    d.typed(&r.sys.prefetch_useful);
    d.typed(&r.sys.prefetch_wasted);
    d.opt(r.sys.adaptive_locked_data_aware.map(u64::from));
    d.0
}

/// The evaluated kinds plus the no-prefetcher baseline and the adaptive
/// extension: every code path through `System::access`.
const KINDS: [PrefetcherKind; 8] = [
    PrefetcherKind::None,
    PrefetcherKind::Ghb,
    PrefetcherKind::Vldp,
    PrefetcherKind::Stream,
    PrefetcherKind::StreamMpp1,
    PrefetcherKind::Droplet,
    PrefetcherKind::MonoDropletL1,
    PrefetcherKind::AdaptiveDroplet,
];

fn check(label: &str, runs: &[(PrefetcherKind, u64)], golden: &[(&str, u64)]) {
    let mut ok = true;
    for ((kind, actual), (gname, want)) in runs.iter().zip(golden) {
        assert_eq!(kind.name(), *gname, "config order drifted in {label}");
        if actual != want {
            ok = false;
            eprintln!("{label}/{gname}: digest {actual:#018x}, golden {want:#018x}");
        }
    }
    assert!(
        ok,
        "{label}: digests diverged; table of actuals:\n{}",
        runs.iter()
            .map(|(k, a)| format!("    (\"{}\", {:#018x}),", k.name(), a))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// PageRank through every prefetcher kind, with a warm-up window so the
/// `warmup_done` stats-reset path is covered too.
#[test]
fn pagerank_digests_are_stable() {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Pr.trace(&g, 120_000);
    let cfg = SystemConfig::test_scale();
    let runs: Vec<(PrefetcherKind, u64)> = KINDS
        .iter()
        .map(|&k| {
            let r = run_workload(&bundle, &cfg.with_prefetcher(k), 5_000);
            (k, digest(&r))
        })
        .collect();
    // Re-captured when warm-up became demand-only (prefetchers inert until
    // the boundary): every prefetcher row with warm-up > 0 shifted; the
    // baseline row — no prefetcher to gate — is unchanged from the original
    // capture.
    const GOLDEN: [(&str, u64); 8] = [
        ("baseline", 0xab6ad52a732dff62),
        ("GHB", 0xf9a7af3425df6f0c),
        ("VLDP", 0x226f44f5c747f0bf),
        ("stream", 0x4cc6d0a9c8de5bd9),
        ("streamMPP1", 0x9fb55d2f8e42cf25),
        ("DROPLET", 0x095f19917f3a41f2),
        ("monoDROPLETL1", 0x2bdd5a4ce45f6fc3),
        ("DROPLET-adaptive", 0x0a43e88fbe5f82c6),
    ];
    check("pr", &runs, &GOLDEN);
}

/// BFS with no private L2: the demand path's other branch (L1 → L3 direct),
/// plus a DROPLET run on the same trace with the L2. The last three rows
/// run prefetchers with no L2, so the descent and the prefetch install both
/// take their no-L2 branches with prefetch live: core-side and MPP fills
/// stop at the L3, or land in the L1 for the monolithic variant.
#[test]
fn bfs_no_l2_digests_are_stable() {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Bfs.trace(&g, 80_000);
    let no_l2 = SystemConfig::test_scale().with_l2(None);
    let baseline = run_workload(
        &bundle, &no_l2, 0, // no warm-up: the cold path must stay stable too
    );
    let droplet = run_workload(
        &bundle,
        &SystemConfig::test_scale().with_prefetcher(PrefetcherKind::Droplet),
        2_000,
    );
    let mut runs = vec![
        (PrefetcherKind::None, digest(&baseline)),
        (PrefetcherKind::Droplet, digest(&droplet)),
    ];
    for kind in [
        PrefetcherKind::Stream,
        PrefetcherKind::Droplet,
        PrefetcherKind::MonoDropletL1,
    ] {
        let r = run_workload(&bundle, &no_l2.with_prefetcher(kind), 2_000);
        runs.push((kind, digest(&r)));
    }
    // DROPLET (with L2) re-captured for demand-only warm-up; the
    // zero-warm-up baseline row is untouched (no boundary, nothing gated).
    // The three no-L2 prefetcher rows were captured before the descent and
    // the prefetch install were each folded into one path.
    const GOLDEN: [(&str, u64); 5] = [
        ("baseline", 0xbac0a201eba862f6),
        ("DROPLET", 0x51cd4ce369fe8a0c),
        ("stream", 0x40ebf1114cd423c3),
        ("DROPLET", 0x5ed70c7ecec77f25),
        ("monoDROPLETL1", 0x70a8b60ef3ec07f1),
    ];
    check("bfs-no-l2", &runs, &GOLDEN);
}

/// Pins the corrected post-warm-up bandwidth window. The old formula
/// (`bus_busy / core.cycles`) ignored *when* DRAM became active inside the
/// measurement window, so a warm-up-heavy run whose window leads with cache
/// hits diluted its utilization with idle-DRAM cycles. The trace here makes
/// that dilution deterministic: the warm-up half streams cold lines and
/// then pins a small hot set, the window replays the hot set from L1 for
/// thousands of ops, and only a late tail touches fresh lines — so the
/// corrected window (clipped to `first_request_at`) must be strictly
/// tighter than the old one.
#[test]
fn bandwidth_window_excludes_idle_lead_in() {
    use droplet::trace::{AccessKind, MemOp, OpId, VirtAddr};

    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let mut bundle = Algorithm::Pr.trace(&g, 120_000);

    // Distinct cache lines the real trace touched: all mapped in the
    // bundle's address space, so the synthetic replay below never faults.
    let mut lines: Vec<u64> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for op in &bundle.ops {
        let line = op.addr().line_base().raw();
        if seen.insert(line) {
            lines.push(line);
        }
        if lines.len() == 1108 {
            break;
        }
    }
    assert_eq!(lines.len(), 1108, "trace too small to source lines");
    let (cold, rest) = lines.split_at(900);
    let (hot, fresh) = rest.split_at(8);

    let mut ops = Vec::new();
    let push = |addr: u64, ops: &mut Vec<MemOp>| {
        let id = OpId(ops.len() as u64);
        ops.push(MemOp::new(
            VirtAddr::new(addr),
            AccessKind::Load,
            DataType::Property,
            None,
            id,
            0,
        ));
    };
    // Warm-up half: DRAM-heavy cold streaming, then pin the hot set.
    for i in 0..1800 {
        push(cold[i % cold.len()], &mut ops);
    }
    for i in 0..4200 {
        push(hot[i % hot.len()], &mut ops);
    }
    // Measurement window: a long all-hit lead-in, then a late DRAM burst.
    for i in 0..5800 {
        push(hot[i % hot.len()], &mut ops);
    }
    for &f in fresh {
        push(f, &mut ops);
    }
    assert_eq!(ops.len(), 12_000);
    bundle.instructions = ops.len() as u64;
    bundle.ops = ops;

    // Request more warm-up than the half-trace clamp allows: the boundary
    // lands exactly at the start of the hit run, and the clamp surfacing
    // is exercised on the same run.
    let requested = bundle.ops.len();
    let r = run_workload(&bundle, &SystemConfig::test_scale(), requested);
    assert!(r.warmup_clamped, "full-trace warm-up request must clamp");
    assert_eq!(r.warmup_ops_requested, requested as u64);
    assert_eq!(r.warmup_ops_applied, (requested / 2) as u64);
    assert_eq!(r.manifest.warmup_boundary_cycle, r.warmup_boundary_cycle);
    assert!(r.warmup_boundary_cycle > 0, "boundary must be recorded");

    let first = r.dram.first_request_at.expect("tail must reach DRAM");
    assert!(
        first > r.warmup_boundary_cycle + 500,
        "hit lead-in must keep DRAM idle well past the boundary: first \
         request at {first}, boundary {}",
        r.warmup_boundary_cycle
    );
    let old = r.dram.utilization(r.core.cycles.max(1));
    let fixed = r.bandwidth_utilization();
    assert!(
        fixed > old,
        "corrected window must beat the old formula on a warm-up-heavy \
         run: fixed {fixed:.6} vs old {old:.6}"
    );
    assert!(fixed <= 1.0, "utilization is a fraction: {fixed}");
}

/// Observability must be measurement-only: enabling the sampler may not
/// perturb a single simulated counter, and the journal's final epoch must
/// aggregate to exactly the `RunResult` the same run reports.
#[test]
fn obs_sampling_is_digest_invariant_and_exact() {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Bfs.trace(&g, 80_000);
    let cfg = SystemConfig::test_scale().with_prefetcher(PrefetcherKind::Droplet);
    let warmup = 2_000;
    // A prime epoch length forces a partial final epoch (flush path).
    let epoch_ops = 997;

    let off = run_workload(&bundle, &cfg, warmup);
    let on = run_workload(
        &bundle,
        &cfg.clone().with_obs(ObsConfig::every(epoch_ops)),
        warmup,
    );
    assert_eq!(
        digest(&off),
        digest(&on),
        "enabling observability changed simulated behaviour"
    );
    assert!(
        off.journal.is_none(),
        "journal must be absent when obs is off"
    );

    let journal = on.journal.as_ref().expect("obs run must carry a journal");
    assert_eq!(journal.epoch_ops, epoch_ops);
    assert_eq!(journal.window_start, on.warmup_boundary_cycle);
    assert_eq!(journal.dropped_epochs, 0);
    assert_eq!(
        journal.epoch_count() as u64,
        on.core.memops.div_ceil(epoch_ops),
        "epoch count must match retired window ops / epoch size"
    );
    assert_eq!(on.manifest.epochs, Some(journal.epoch_count() as u64));
    assert_eq!(on.manifest.epoch_ops, Some(epoch_ops));

    // The final cumulative snapshot is the end-of-run statistics.
    let last = journal.final_snapshot().expect("journal has epochs");
    assert_eq!(last.ops, on.core.memops);
    assert_eq!(last.instructions, on.core.instructions);
    assert_eq!(last.cycle, on.warmup_boundary_cycle + on.core.cycles);
    assert_eq!(last.l1, on.l1);
    assert_eq!(last.l2, on.l2);
    assert_eq!(last.l3, on.l3);
    assert_eq!(last.dram, on.dram);
    assert_eq!(last.mpp, on.mpp);
    assert_eq!(last.prefetch_useful, on.sys.prefetch_useful);
    assert_eq!(last.prefetch_wasted, on.sys.prefetch_wasted);
    assert_eq!(last.writebacks, on.sys.writebacks);
    assert_eq!(
        journal.final_bandwidth_utilization().to_bits(),
        on.bandwidth_utilization().to_bits(),
        "journal and RunResult must agree bit-for-bit on the corrected \
         bandwidth utilization"
    );

    // One JSONL line per epoch; derived metrics line up with the samples.
    assert_eq!(journal.to_jsonl().lines().count(), journal.epoch_count());
    assert_eq!(journal.epochs().len(), journal.epoch_count());
}

/// Forked measurement must be indistinguishable from full replay: one
/// warmed snapshot fanned out across every `sim_replay` configuration (the
/// seven evaluated kinds, which all share the baseline hierarchy and hence
/// one warmup key) digests bit-identically to seven from-scratch runs —
/// over *every* reported counter, not a summary statistic.
#[test]
fn forked_runs_digest_identically_to_full_replay() {
    use droplet::warm_snapshot;

    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Pr.trace(&g, 120_000);
    let base = SystemConfig::test_scale();
    let warmup = 20_000;
    let snap = warm_snapshot(&bundle, &base, warmup);
    // The adaptive kind rides along in `KINDS`, widening coverage past the
    // seven replayed configurations at no cost.
    for &kind in &KINDS {
        let cfg = base.with_prefetcher(kind);
        let forked = droplet::run_forked(&bundle, &snap, &cfg);
        let scratch = run_workload(&bundle, &cfg, warmup);
        assert_eq!(
            digest(&forked),
            digest(&scratch),
            "{}: forked digest diverged from full replay",
            kind.name()
        );
    }
}

/// Zero-copy replay must be invisible: replaying a workload from its
/// mmap'd columnar artifact (DESIGN.md §15) digests bit-identically to the
/// in-RAM `Vec<MemOp>` replay, for every bench configuration, on one
/// worker and on four. The chunked [`droplet::run_workload_from`] path and
/// the monolithic path drive the same engine, so any divergence here means
/// the codec or the chunking changed simulated behaviour.
#[test]
fn columnar_mmap_replay_digests_match_in_ram_replay() {
    use droplet::run_workload_from;
    use droplet::trace::{columnar, open_columnar};

    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Arc::new(Algorithm::Pr.trace(&g, 120_000));
    let cfg = SystemConfig::test_scale();
    let warmup = 5_000;

    let dir = std::env::temp_dir().join(format!("droplet-colrep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pr-kron.dcol");
    std::fs::write(&path, columnar::encode(&bundle.ops)).unwrap();

    let in_ram: Vec<u64> = KINDS
        .iter()
        .map(|&k| digest(&run_workload(&bundle, &cfg.with_prefetcher(k), warmup)))
        .collect();

    for threads in [1usize, 4] {
        let replayed: Vec<u64> = JobPool::with_threads(threads).run(
            KINDS
                .iter()
                .map(|&k| {
                    let bundle = Arc::clone(&bundle);
                    let cfg = cfg.with_prefetcher(k);
                    let path = path.clone();
                    move || {
                        let mut source = open_columnar(&path).expect("artifact must open");
                        assert_eq!(
                            source.digest(),
                            columnar::content_digest(&bundle.ops),
                            "artifact content digest must match the ops it encodes"
                        );
                        digest(&run_workload_from(&mut source, &bundle, &cfg, warmup))
                    }
                })
                .collect(),
        );
        for ((&kind, ram), col) in KINDS.iter().zip(&in_ram).zip(&replayed) {
            assert_eq!(
                ram,
                col,
                "{} ({threads} threads): columnar replay digest {col:#018x} \
                 != in-RAM digest {ram:#018x}",
                kind.name()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same fan-out run serially and on four workers must digest
/// identically: simulation results may not depend on the thread count.
/// (Explicit `with_threads` rather than `DROPLET_THREADS` — mutating the
/// environment would race with other tests in this binary.)
#[test]
fn digests_are_thread_count_invariant() {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Arc::new(Algorithm::Pr.trace(&g, 60_000));
    let cfg = SystemConfig::test_scale();

    let jobs = |pool: JobPool| -> Vec<u64> {
        pool.run(
            KINDS
                .iter()
                .map(|&k| {
                    let bundle = Arc::clone(&bundle);
                    let cfg = cfg.with_prefetcher(k);
                    move || digest(&run_workload(&bundle, &cfg, 2_000))
                })
                .collect(),
        )
    };

    let serial = jobs(JobPool::with_threads(1));
    let parallel = jobs(JobPool::with_threads(4));
    for ((&kind, s), p) in KINDS.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            s,
            p,
            "{}: serial digest {s:#018x} != 4-thread digest {p:#018x}",
            kind.name()
        );
    }
}

/// The four non-LRU replacement policies of the policy laboratory. The
/// default-LRU goldens above double as the seam's no-regression proof: they
/// were captured before the `ReplacementPolicy` seam existed and still must
/// match bit-exactly.
const POLICIES: [droplet::cache::ReplacementPolicy; 4] = [
    droplet::cache::ReplacementPolicy::Srrip,
    droplet::cache::ReplacementPolicy::Brrip,
    droplet::cache::ReplacementPolicy::Drrip,
    droplet::cache::ReplacementPolicy::Ship,
];

/// Every policy must be run-to-run deterministic and thread-count
/// invariant — the same LLC-policy run serially, twice, and on a 4-worker
/// pool produces one digest. Also pins the manifest's policy triple.
#[test]
fn policy_digests_are_deterministic_and_thread_invariant() {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Arc::new(Algorithm::Pr.trace(&g, 60_000));
    let base = SystemConfig::test_scale().with_prefetcher(PrefetcherKind::Droplet);

    let jobs = |pool: JobPool| -> Vec<u64> {
        pool.run(
            POLICIES
                .iter()
                .map(|&p| {
                    let bundle = Arc::clone(&bundle);
                    let cfg = base.clone().with_l3_policy(p).with_l2_policy(p);
                    move || digest(&run_workload(&bundle, &cfg, 2_000))
                })
                .collect(),
        )
    };

    let first = jobs(JobPool::with_threads(1));
    let again = jobs(JobPool::with_threads(1));
    let parallel = jobs(JobPool::with_threads(4));
    for ((&p, f), (a, par)) in POLICIES.iter().zip(&first).zip(again.iter().zip(&parallel)) {
        assert_eq!(f, a, "{p}: rerun digest drifted");
        assert_eq!(f, par, "{p}: 4-thread digest drifted");
    }

    let r = run_workload(
        &bundle,
        &base
            .clone()
            .with_l3_policy(droplet::cache::ReplacementPolicy::Ship),
        2_000,
    );
    assert_eq!(r.manifest.policies, "LRU/LRU/SHiP");
}

/// Forked measurement under every policy: a warmed snapshot of a
/// policy-bearing hierarchy replayed through `run_forked` digests
/// bit-identically to the from-scratch run — RRIP state (RRPVs, PSEL, the
/// bimodal counter, the SHCT) must survive the snapshot/fork boundary.
#[test]
fn forked_policy_runs_digest_identically_to_full_replay() {
    use droplet::warm_snapshot;

    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Pr.trace(&g, 120_000);
    let warmup = 20_000;
    for &p in &POLICIES {
        let base = SystemConfig::test_scale().with_l3_policy(p);
        let snap = warm_snapshot(&bundle, &base, warmup);
        for kind in [PrefetcherKind::None, PrefetcherKind::Droplet] {
            let cfg = base.with_prefetcher(kind);
            let forked = droplet::run_forked(&bundle, &snap, &cfg);
            let scratch = run_workload(&bundle, &cfg, warmup);
            assert_eq!(
                digest(&forked),
                digest(&scratch),
                "{p}/{}: forked digest diverged from full replay",
                kind.name()
            );
        }
    }
}

/// The strongest cross-product equality in the suite: for every prefetcher
/// kind × LLC policy, the production stack — forked from a shared warm
/// snapshot, scheduled through the two-batch sweep on one *and* four
/// workers — must digest bit-identically to the plainest possible
/// reference: a from-scratch, single-run replay. One assertion per cell
/// covers the fork restore and the sweep scheduling at once; either
/// diverging breaks it.
#[test]
fn forked_sweeps_match_from_scratch_replay() {
    use droplet::{run_sweep, SweepCell};

    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Arc::new(Algorithm::Pr.trace(&g, 40_000));
    let warmup = 4_000;

    let mut all = vec![droplet::cache::ReplacementPolicy::Lru];
    all.extend(POLICIES);
    let cells: Vec<SweepCell> = all
        .iter()
        .flat_map(|&p| KINDS.iter().map(move |&k| (p, k)))
        .map(|(p, k)| SweepCell {
            bundle: Arc::clone(&bundle),
            cfg: SystemConfig::test_scale()
                .with_l3_policy(p)
                .with_prefetcher(k),
        })
        .collect();
    assert_eq!(cells.len(), 40, "5 policies x 8 kinds");

    let serial = run_sweep(&JobPool::with_threads(1), &cells, warmup, true);
    let parallel = run_sweep(&JobPool::with_threads(4), &cells, warmup, true);
    for ((cell, s), p) in cells.iter().zip(&serial).zip(&parallel) {
        let reference = run_workload(&cell.bundle, &cell.cfg, warmup);
        let label = format!("{}/{}", cell.cfg.l3.policy, cell.cfg.prefetcher.name());
        assert_eq!(
            digest(s),
            digest(&reference),
            "{label}: serial forked sweep diverged from from-scratch replay"
        );
        assert_eq!(
            digest(p),
            digest(&reference),
            "{label}: 4-thread forked sweep diverged from from-scratch replay"
        );
    }
}

/// A mixed-policy sweep must be fork-safe: configurations with different
/// LLC policies have different warm-up keys, so `run_sweep` may only share
/// snapshots within a policy group — and forked results still match the
/// unforked sweep bit-for-bit.
#[test]
fn mixed_policy_sweep_forks_safely() {
    use droplet::{run_sweep, SweepCell};

    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Arc::new(Algorithm::Pr.trace(&g, 60_000));
    // Two cells per policy (baseline + DROPLET) so each policy group has a
    // shareable warm-up, interleaved so grouping has to work by key rather
    // than adjacency. LRU rides along as the fifth policy.
    let mut cells = Vec::new();
    let mut all = vec![droplet::cache::ReplacementPolicy::Lru];
    all.extend(POLICIES);
    for &p in &all {
        for kind in [PrefetcherKind::None, PrefetcherKind::Droplet] {
            cells.push(SweepCell {
                bundle: Arc::clone(&bundle),
                cfg: SystemConfig::test_scale()
                    .with_l3_policy(p)
                    .with_prefetcher(kind),
            });
        }
    }
    let pool = JobPool::with_threads(4);
    let forked = run_sweep(&pool, &cells, 2_000, true);
    let scratch = run_sweep(&pool, &cells, 2_000, false);
    for ((cell, f), s) in cells.iter().zip(&forked).zip(&scratch) {
        assert_eq!(
            digest(f),
            digest(s),
            "{}/{}: forked sweep digest diverged",
            cell.cfg.l3.policy,
            cell.cfg.prefetcher.name()
        );
    }
    // The fork actually engaged: every policy group shares one warm-up.
    assert!(
        forked
            .iter()
            .filter(|r| r.manifest.forked_from.is_some())
            .count()
            >= all.len(),
        "expected at least one forked run per policy group"
    );
}

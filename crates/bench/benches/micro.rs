//! Criterion micro-benchmarks of the simulation substrate: cache access
//! throughput, PAG cacheline scanning, reuse-distance profiling, graph and
//! trace generation, and a whole-system op-replay rate. These gate the
//! wall-clock budget of the figure benches.

use criterion::{Criterion, Throughput};
use droplet::cache::{CacheConfig, FillInfo, ReuseProfiler, SetAssocCache};
use droplet::gap::Algorithm;
use droplet::graph::{Dataset, DatasetScale};
use droplet::trace::{DataType, FunctionalMemory};
use droplet::{run_workload, PrefetcherKind, SystemConfig};
use std::sync::Arc;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    let accesses: Vec<u64> = (0..4096u64).map(|i| (i * 2654435761) % 16384).collect();
    group.throughput(Throughput::Elements(accesses.len() as u64));
    group.bench_function("l2_touch_fill", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::l2());
        b.iter(|| {
            for (i, &line) in accesses.iter().enumerate() {
                if cache
                    .touch(line, i as u64, DataType::Property, false)
                    .is_none()
                {
                    cache.fill(line, FillInfo::demand(DataType::Property, i as u64));
                }
            }
        });
    });
    group.finish();
}

fn bench_reuse_profiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("reuse");
    let stream: Vec<u64> = (0..2048u64).map(|i| (i * 48271) % 1024).collect();
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("olken_access", |b| {
        b.iter(|| {
            let mut p = ReuseProfiler::new();
            for &l in &stream {
                p.access(l, DataType::Structure);
            }
            p.distinct_lines()
        });
    });
    group.finish();
}

fn bench_pag_scan(c: &mut Criterion) {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Pr.trace(&g, 10_000);
    let base_line = bundle.funcmem.neighbors().base();
    let mut group = c.benchmark_group("mpp");
    group.bench_function("pag_line_scan", |b| {
        b.iter(|| bundle.funcmem.neighbor_ids_in_line(base_line).len());
    });
    group.finish();
}

/// The Tiny kron graph, once per `CsrBuilder` dedup path: the unweighted
/// build sorts edge pairs in place, the weighted one sorts an index array.
fn bench_graph_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    group.bench_function("kron_tiny", |b| {
        b.iter(|| Dataset::Kron.build(DatasetScale::Tiny).num_edges());
    });
    group.bench_function("kron_tiny_weighted", |b| {
        b.iter(|| Dataset::Kron.build_weighted(DatasetScale::Tiny).num_edges());
    });
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let mut group = c.benchmark_group("trace");
    group.bench_function("pr_trace_100k_ops", |b| {
        b.iter(|| Algorithm::Pr.trace(&g, 100_000).len());
    });
    group.finish();
}

fn bench_columnar_roundtrip(c: &mut Criterion) {
    use droplet::trace::columnar;
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Pr.trace(&g, 100_000);
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(bundle.ops.len() as u64));
    group.bench_function("columnar_roundtrip", |b| {
        b.iter(|| {
            let bytes = columnar::encode(&bundle.ops);
            columnar::decode(&bytes)
                .expect("fresh encode must decode")
                .len()
        });
    });
    group.finish();
}

/// A deterministic graph-shaped event stream for the prefetcher hot-path
/// benches: sequential structure runs interleaved with hashed property
/// chases and hot-set reuse, over a page universe small enough to keep
/// every engine's tables under replacement pressure.
fn synth_events(n: usize) -> Vec<droplet::prefetch::AccessEvent> {
    use droplet::prefetch::{AccessEvent, EventKind};
    use droplet::trace::VirtAddr;
    let mix = |x: u64| {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut events = Vec::with_capacity(n);
    let mut line = 0u64;
    for i in 0..n as u64 {
        let r = mix(i);
        let (l, structure) = match r % 8 {
            // Sequential structure run inside an 8-page region.
            0..=3 => {
                line = (line + 1) % (8 * 64);
                (line, true)
            }
            // Hashed property chase over 32 pages.
            4..=5 => ((8 + (r >> 8) % 32) * 64 + (r >> 16) % 64, false),
            // Hot-set reuse on 4 pages.
            _ => ((8 + (r >> 8) % 4) * 64 + (r >> 16) % 64, false),
        };
        events.push(AccessEvent {
            vaddr: VirtAddr::new(l * 64),
            kind: if r % 11 == 0 {
                EventKind::L2Hit
            } else {
                EventKind::L1Miss
            },
            is_structure: structure,
            dtype: if structure {
                DataType::Structure
            } else {
                DataType::Property
            },
        });
    }
    events
}

fn bench_prefetcher_hot_paths(c: &mut Criterion) {
    use droplet::prefetch::{GhbPrefetcher, Prefetcher, StreamPrefetcher, VldpPrefetcher};
    let events = synth_events(8192);
    let cfg = SystemConfig::test_scale();

    let mut group = c.benchmark_group("vldp");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("on_access", |b| {
        b.iter(|| {
            let mut pf = VldpPrefetcher::new(cfg.vldp.clone());
            let mut out = Vec::with_capacity(16);
            for ev in &events {
                out.clear();
                pf.on_access(ev, &mut out);
            }
            pf.issued()
        });
    });
    group.finish();

    let mut group = c.benchmark_group("ghb");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("on_access", |b| {
        b.iter(|| {
            let mut pf = GhbPrefetcher::new(cfg.ghb.clone());
            let mut out = Vec::with_capacity(16);
            for ev in &events {
                out.clear();
                pf.on_access(ev, &mut out);
            }
            pf.issued()
        });
    });
    group.finish();

    let mut group = c.benchmark_group("stream");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("on_access", |b| {
        b.iter(|| {
            let mut pf = StreamPrefetcher::new(cfg.stream.clone());
            let mut out = Vec::with_capacity(16);
            for ev in &events {
                out.clear();
                pf.on_access(ev, &mut out);
            }
            pf.issued()
        });
    });
    group.finish();
}

fn bench_system_replay(c: &mut Criterion) {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Pr.trace(&g, 100_000);
    let mut group = c.benchmark_group("system");
    group.throughput(Throughput::Elements(bundle.ops.len() as u64));
    group.sample_size(10);
    group.bench_function("baseline_replay", |b| {
        let cfg = SystemConfig::test_scale();
        b.iter(|| run_workload(&bundle, &cfg, 0).core.cycles);
    });
    group.bench_function("droplet_replay", |b| {
        let cfg = SystemConfig::test_scale().with_prefetcher(PrefetcherKind::Droplet);
        b.iter(|| run_workload(&bundle, &cfg, 0).core.cycles);
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_cache(&mut c);
    bench_reuse_profiler(&mut c);
    bench_pag_scan(&mut c);
    bench_graph_generation(&mut c);
    bench_trace_generation(&mut c);
    bench_columnar_roundtrip(&mut c);
    bench_prefetcher_hot_paths(&mut c);
    bench_system_replay(&mut c);

    // Export µs/iter per micro bench to the cross-PR perf report.
    use droplet_bench::bench_json;
    let entries: Vec<(String, String)> = c
        .take_results()
        .into_iter()
        .map(|r| {
            (
                format!("{}/{}", r.group, r.name),
                format!("{:.3}", r.median_ns / 1e3),
            )
        })
        .collect();
    let path = bench_json::default_report_path();
    bench_json::write_section(&path, "micro_us_per_iter", &bench_json::object(&entries))
        .expect("write BENCH_engine.json");
    println!("wrote section \"micro_us_per_iter\" to {}", path.display());
}

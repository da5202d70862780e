//! Replay-engine throughput: the frozen v0 engine (`harness::seed_replay`)
//! versus the live engine through dynamic dispatch (`replay_llc`),
//! monomorphized (`replay_llc_mono`), and bit-sliced
//! (`replay_llc_sliced`, 4 PLRU sets per `u64`). This is the Criterion
//! counterpart of the `bench-replay` binary; `BENCH_replay.json` is
//! produced by the binary, this bench exists for `cargo bench` regression
//! tracking with Criterion's statistics.
//!
//! The engines produce identical `LlcRunResult`s on the same stream
//! (asserted in `tests/replay_equivalence.rs` and the sim-verify
//! differentials); only their speed differs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use harness::seed_replay::replay_llc_seed;
use mem_model::{default_warmup, replay_llc, replay_llc_mono, replay_llc_sliced, WindowPerfModel};
use sim_core::{Access, CacheGeometry, ReplacementPolicy};
use std::hint::black_box;

fn mixed_stream(n: usize) -> Vec<Access> {
    // Same shape as the policies bench: half looping, half streaming, so
    // the replay loop sees a realistic mix of hits, misses, and evictions.
    (0..n as u64)
        .map(|i| {
            let addr = if i % 2 == 0 {
                (i % 4096) * 64
            } else {
                (1 << 30) + i * 64
            };
            Access::read(addr, 0x400 + (i % 13) * 4).with_icount_delta(3)
        })
        .collect()
}

fn bench_replay_engines(c: &mut Criterion) {
    let geom = CacheGeometry::new(128 * 1024, 16, 64).unwrap();
    let stream = mixed_stream(50_000);
    let warmup = default_warmup(stream.len());
    let perf = WindowPerfModel::default();

    let mut g = c.benchmark_group("replay_engine");
    g.throughput(Throughput::Elements((stream.len() - warmup) as u64));

    g.bench_function("seed_dyn/PseudoLRU", |b| {
        b.iter(|| {
            let policy: Box<dyn sim_core::ReplacementPolicy> =
                black_box(Box::new(gippr::PlruPolicy::new(&geom)));
            black_box(replay_llc_seed(&stream, geom, policy, warmup, &perf))
        })
    });

    g.bench_function("live_dyn/PseudoLRU", |b| {
        b.iter(|| {
            let policy: Box<dyn sim_core::ReplacementPolicy> =
                black_box(Box::new(gippr::PlruPolicy::new(&geom)));
            black_box(replay_llc(&stream, geom, policy, warmup, &perf))
        })
    });

    g.bench_function("live_mono/PseudoLRU", |b| {
        b.iter(|| {
            black_box(replay_llc_mono(
                &stream,
                geom,
                black_box(gippr::PlruPolicy::new(&geom)),
                warmup,
                &perf,
            ))
        })
    });

    g.bench_function("live_mono/WI-GIPPR", |b| {
        b.iter(|| {
            let policy = gippr::GipprPolicy::new(&geom, gippr::vectors::wi_gippr()).unwrap();
            black_box(replay_llc_mono(
                &stream,
                geom,
                black_box(policy),
                warmup,
                &perf,
            ))
        })
    });

    g.bench_function("live_mono/LRU", |b| {
        b.iter(|| {
            black_box(replay_llc_mono(
                &stream,
                geom,
                black_box(baselines::TrueLru::new(&geom)),
                warmup,
                &perf,
            ))
        })
    });

    g.finish();
}

fn bench_replay_sliced(c: &mut Criterion) {
    let geom = CacheGeometry::new(128 * 1024, 16, 64).unwrap();
    let stream = mixed_stream(50_000);
    let warmup = default_warmup(stream.len());
    let perf = WindowPerfModel::default();

    let mut g = c.benchmark_group("replay_sliced");
    g.throughput(Throughput::Elements((stream.len() - warmup) as u64));

    // Each pair below is (bit-sliced kernel, monomorphized baseline) for
    // the same policy; `tests/replay_equivalence.rs` and the sim-verify
    // differential prove the results bit-identical, so the delta here is
    // pure engine speed.
    let plru_kernel = gippr::PlruPolicy::new(&geom).slice_kernel().unwrap();
    g.bench_function("sliced/PseudoLRU", |b| {
        b.iter(|| {
            black_box(replay_llc_sliced(
                black_box(&stream),
                geom,
                &plru_kernel,
                warmup,
                &perf,
            ))
        })
    });

    let gippr_kernel = gippr::GipprPolicy::new(&geom, gippr::vectors::wi_gippr())
        .unwrap()
        .slice_kernel()
        .unwrap();
    g.bench_function("sliced/WI-GIPPR", |b| {
        b.iter(|| {
            black_box(replay_llc_sliced(
                black_box(&stream),
                geom,
                &gippr_kernel,
                warmup,
                &perf,
            ))
        })
    });

    let lru_kernel = baselines::TrueLru::new(&geom).slice_kernel().unwrap();
    g.bench_function("sliced/LRU", |b| {
        b.iter(|| {
            black_box(replay_llc_sliced(
                black_box(&stream),
                geom,
                &lru_kernel,
                warmup,
                &perf,
            ))
        })
    });

    g.finish();
}

criterion_group!(replay_bench, bench_replay_engines, bench_replay_sliced);
criterion_main!(replay_bench);

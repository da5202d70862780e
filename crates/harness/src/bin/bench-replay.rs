//! Measures replay-engine throughput — the monomorphized and bit-sliced
//! engines against the frozen seed (v0) dyn-dispatch engine, plus the
//! figure harness's roster batch — and emits `BENCH_replay.json`.
//!
//! Usage: `bench-replay [--scale micro|quick|medium|paper] [--json PATH]`
//!        `bench-replay --smoke`
//!
//! For each policy the same captured LLC stream is replayed through four
//! engines:
//!
//! * `seed` — [`harness::seed_replay::replay_llc_seed`], a verbatim copy
//!   of the v0 engine (boxed policy, early-exit double scan). This is the
//!   denominator of `speedup`, so the number tracks total engine progress
//!   across PRs.
//! * `dyn` — [`mem_model::replay_llc`], today's engine driving a
//!   `Box<dyn ReplacementPolicy>` (the `PolicyFactory` compatibility path).
//! * `mono` — [`mem_model::replay_llc_mono`] at the concrete policy type
//!   (no virtual dispatch).
//! * `slice` — [`mem_model::replay_llc_sliced`], the bit-sliced kernel
//!   engine (4 PLRU trees per `u64`, SWAR stacks/RRPV arrays). Only
//!   policies that describe themselves as a [`sim_core::SliceKernel`]
//!   have this column; global-state policies report `null`.
//!
//! The roster is also measured as one [`harness::runner::measure_policies`]
//! batch — the (simpoint × policy) units the figure drivers run — on the
//! whole worker pool and at one worker, reported as
//! `batched_accesses_per_sec`, `batched_one_worker_accesses_per_sec` and
//! their ratio `batched_scaling`.
//!
//! Reported rates are accesses per second over the best of several timed
//! repetitions. `--smoke` skips capture and timing sweeps: it replays a
//! tiny synthetic stream, asserts the dispatched and sliced engines match
//! the sequential engine stat-for-stat across the roster, applies a
//! generous throughput floor, and on a host with two or more cores
//! requires the roster batch to scale: at least
//! [`MIN_BATCH_SCALING`]× the throughput of the same units at one worker.
//!
//! Misuse (`--help`, an unknown flag, a missing or bad value) prints the
//! usage to stderr and exits with status 2.

use baselines::{DrripPolicy, TrueLru};
use gippr::{DgipprPolicy, GipprPolicy, PlruPolicy};
use harness::runner::{measure_policies_capped, PolicyMeasurement, SimpointData};
use harness::seed_replay::replay_llc_seed;
use harness::{policies, Scale, WorkloadData};
use mem_model::cpi::WindowPerfModel;
use mem_model::{replay_dispatch, replay_llc, replay_llc_mono, Engine, LlcRunResult};
use sim_core::{Access, CacheGeometry, PolicyFactory, ReplacementPolicy, SliceKernel};
use std::sync::Arc;
use std::time::Instant;
use traces::spec2006::Spec2006;

const USAGE: &str = "usage: bench-replay [--scale micro|quick|medium|paper] [--json PATH]\n       \
                     bench-replay --smoke";

/// Minimum throughput of the roster batch on the whole worker pool over
/// the same units at one worker, asserted by `--smoke` on hosts with two
/// or more cores.
const MIN_BATCH_SCALING: f64 = 1.4;

/// Timed rounds per measurement; each round runs every engine once
/// (interleaved, so background noise lands on all engines alike) and the
/// fastest round per engine is reported.
const ROUNDS: usize = 9;

fn timed<F: FnOnce() -> LlcRunResult>(run: F) -> (f64, u64) {
    let start = Instant::now();
    let result = run();
    (start.elapsed().as_secs_f64(), result.stats.misses)
}

struct Row {
    name: &'static str,
    seed_rate: f64,
    dyn_rate: f64,
    mono_rate: f64,
    /// Bit-sliced engine rate; `None` for policies without a `SliceKernel`.
    slice_rate: Option<f64>,
    /// Sets packed per state word by the policy's kernel (`None` without one).
    lanes: Option<usize>,
    /// Why `lanes` is what it is — carried in the JSON so a reader does
    /// not mistake the stack kernel's genuine `lanes: 1` for a packing
    /// regression.
    lanes_reason: Option<&'static str>,
}

/// Human-readable justification for a kernel's lane count. The PLRU
/// family is the bit-slicing headline (`64 / ways` trees per word); the
/// nibble-vector kernels fill the whole word with a single 16-entry
/// structure, so one lane is correct, not a bug.
fn lanes_reason(kernel: &SliceKernel) -> &'static str {
    match kernel {
        SliceKernel::PlruIpv { .. } => "plru family packs 64/ways tree lanes per u64 word",
        SliceKernel::StackIpv { .. } => {
            "nibble recency stack fills the u64 word with one set; one lane is correct"
        }
        SliceKernel::RripIpv { .. } => {
            "nibble rrpv array fills the u64 word with one set; one lane is correct"
        }
    }
}

impl Row {
    /// The tracked number: monomorphized engine over the seed engine.
    fn speedup(&self) -> f64 {
        self.mono_rate / self.seed_rate
    }

    /// The bit-sliced engine over the mono engine (this PR's number).
    fn slice_speedup(&self) -> Option<f64> {
        self.slice_rate.map(|s| s / self.mono_rate)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// Compile-time SIMD/bit-manipulation features the binary was built with —
/// recorded as provenance so rates in `BENCH_replay.json` are comparable
/// across hosts (a `target-cpu=native` build on an AVX2 host is not the
/// same benchmark as a baseline x86-64 build).
fn target_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    if cfg!(target_feature = "sse2") {
        features.push("sse2");
    }
    if cfg!(target_feature = "sse4.2") {
        features.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        features.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        features.push("avx2");
    }
    if cfg!(target_feature = "avx512f") {
        features.push("avx512f");
    }
    if cfg!(target_feature = "popcnt") {
        features.push("popcnt");
    }
    if cfg!(target_feature = "bmi1") {
        features.push("bmi1");
    }
    if cfg!(target_feature = "bmi2") {
        features.push("bmi2");
    }
    if cfg!(target_feature = "neon") {
        features.push("neon");
    }
    features
}

fn measure<P, M>(
    name: &'static str,
    stream: &[Access],
    geom: CacheGeometry,
    warmup: usize,
    factory: &PolicyFactory,
    make_mono: M,
) -> Row
where
    P: ReplacementPolicy,
    M: Fn(&CacheGeometry) -> P,
{
    // `black_box` stops LTO from tracing the boxed policy back to its
    // concrete type and devirtualizing the dyn paths — in real sweeps the
    // factory is picked from a runtime table, so that optimization is not
    // available. The mono policy is boxed-in-value only: its concrete
    // type (and thus inlining) is unaffected.
    let perf = WindowPerfModel::default();
    let probe = factory(&geom);
    let kernel = probe.slice_kernel();
    let (mut seed_best, mut dyn_best, mut mono_best, mut slice_best) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let (t, seed_misses) = timed(|| {
            replay_llc_seed(
                stream,
                geom,
                std::hint::black_box(factory(&geom)),
                warmup,
                &perf,
            )
        });
        seed_best = seed_best.min(t);
        let (t, dyn_misses) = timed(|| {
            replay_llc(
                stream,
                geom,
                std::hint::black_box(factory(&geom)),
                warmup,
                &perf,
            )
        });
        dyn_best = dyn_best.min(t);
        let (t, mono_misses) = timed(|| {
            replay_llc_mono(
                stream,
                geom,
                std::hint::black_box(make_mono(&geom)),
                warmup,
                &perf,
            )
        });
        mono_best = mono_best.min(t);
        assert_eq!(
            seed_misses, dyn_misses,
            "{name}: engines must agree before being compared"
        );
        assert_eq!(
            dyn_misses, mono_misses,
            "{name}: paths must agree before being compared"
        );
        if let Some(k) = &kernel {
            let (t, slice_misses) = timed(|| {
                mem_model::replay_llc_sliced(stream, geom, std::hint::black_box(k), warmup, &perf)
                    .expect("qualifying kernels support the bench geometry")
            });
            slice_best = slice_best.min(t);
            assert_eq!(
                mono_misses, slice_misses,
                "{name}: bit-sliced engine must agree before being compared"
            );
        }
    }
    let rate = |best: f64| stream.len() as f64 / best.max(1e-12);
    Row {
        name,
        seed_rate: rate(seed_best),
        dyn_rate: rate(dyn_best),
        mono_rate: rate(mono_best),
        slice_rate: kernel.as_ref().map(|_| rate(slice_best)),
        lanes: kernel.as_ref().map(|k| k.lanes(geom.ways())),
        lanes_reason: kernel.as_ref().map(lanes_reason),
    }
}

/// Builds the 5-policy benchmark roster as dyn factories.
fn roster() -> Vec<(&'static str, PolicyFactory)> {
    let quad = gippr::vectors::wi_4dgippr().to_vec();
    vec![
        ("LRU", policies::lru()),
        ("PseudoLRU", policies::plru()),
        (
            "WI-GIPPR",
            policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
        ),
        ("WI-4-DGIPPR", policies::dgippr(quad, "WI-4-DGIPPR")),
        ("DRRIP", policies::drrip()),
    ]
}

/// A mixed hot/scan synthetic stream over 4x the cache's block capacity.
fn synthetic_stream(geom: &CacheGeometry, len: usize, mut state: u64) -> Vec<Access> {
    let blocks = (geom.sets() * geom.ways() * 4) as u64;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let block = if i % 4 == 0 {
                state % (blocks / 8).max(1)
            } else {
                state % blocks
            };
            let addr = block * geom.line_bytes();
            let a = if state & 3 == 0 {
                Access::write(addr, state % 512)
            } else {
                Access::read(addr, state % 512)
            };
            a.with_icount_delta((state % 9) as u32 + 1)
        })
        .collect()
}

/// `simpoints` equally weighted synthetic streams of `len` accesses as a
/// harness workload (the benchmark label is a placeholder).
fn synthetic_workload(geom: &CacheGeometry, simpoints: usize, len: usize) -> WorkloadData {
    WorkloadData {
        bench: Spec2006::Libquantum,
        simpoints: (0..simpoints as u64)
            .map(|s| SimpointData {
                weight: 1.0,
                warmup: mem_model::llc::default_warmup(len),
                stream: Arc::new(synthetic_stream(geom, len, 0x243F_6A88_85A3_08D3 ^ s)),
            })
            .collect(),
        lru: PolicyMeasurement {
            mpki: 0.0,
            cycles: 1.0,
            misses: 0.0,
        },
    }
}

/// Best-of-`rounds` throughput (policy-accesses per second) of the
/// roster batch over `workload`: on the whole worker pool, and at one
/// worker. The two are timed interleaved so host noise lands on both
/// alike, and must produce identical results.
fn batch_rates(
    workload: &WorkloadData,
    refs: &[&PolicyFactory],
    geom: CacheGeometry,
    rounds: usize,
) -> (f64, f64) {
    let accesses: usize = workload.simpoints.iter().map(|sp| sp.stream.len()).sum();
    let work = (accesses * refs.len()) as f64;
    let (mut all_best, mut one_best) = (f64::INFINITY, f64::INFINITY);
    let mut reference = None;
    for _ in 0..rounds {
        for (best, workers) in [(&mut all_best, usize::MAX), (&mut one_best, 1)] {
            let start = Instant::now();
            let out = measure_policies_capped(workload, refs, geom, workers);
            *best = best.min(start.elapsed().as_secs_f64());
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(r, &out, "roster batch results depend on the worker count"),
            }
        }
    }
    (work / all_best.max(1e-12), work / one_best.max(1e-12))
}

/// `--smoke`: a fast correctness-plus-sanity gate for CI. Replays a tiny
/// synthetic stream through the engine dispatcher and the sequential
/// engine for the whole roster, asserting exact result equality and that
/// every kernel-carrying policy is served by the bit-sliced engine, then
/// checks a deliberately generous throughput floor and the roster batch's
/// parallel scaling.
fn smoke() {
    let geom = Scale::Micro.hierarchy().llc;
    let perf = WindowPerfModel::default();
    let stream = synthetic_stream(&geom, 40_000, 0x9e37_79b9_7f4a_7c15);
    let warmup = mem_model::llc::default_warmup(stream.len());
    let named = roster();

    let start = Instant::now();
    let dispatched: Vec<_> = named
        .iter()
        .map(|(_, f)| replay_dispatch(&stream, geom, f(&geom), warmup, &perf))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();

    let mut sliced_checked = 0;
    for ((name, factory), got) in named.iter().zip(&dispatched) {
        let want = replay_llc(&stream, geom, factory(&geom), warmup, &perf);
        assert_eq!(
            got.run, want,
            "{name}: dispatched result diverged from sequential replay"
        );
        // Pinned bit-identity for the sliced engine: every policy that
        // advertises a kernel must be served by it, with no mono fallback.
        let has_kernel = factory(&geom).slice_kernel().is_some();
        let expected = if has_kernel {
            Engine::Sliced
        } else {
            Engine::Mono
        };
        assert_eq!(got.engine, expected, "{name}: engine dispatch");
        sliced_checked += usize::from(has_kernel);
    }
    // LRU, PseudoLRU, and WI-GIPPR carry kernels in this roster.
    assert!(
        sliced_checked >= 3,
        "expected >=3 sliced-kernel policies in the smoke roster, got {sliced_checked}"
    );
    // Lane accounting is part of the reported schema. Pin it here so a
    // future kernel change cannot silently alter the packing story: the
    // LRU row's `lanes: 1` is genuinely correct — its stack kernel fills
    // the whole u64 word with one 16-entry nibble stack — while the PLRU
    // family packs `64 / ways` tree lanes per word.
    for (name, factory) in &named {
        let Some(kernel) = factory(&geom).slice_kernel() else {
            continue;
        };
        let lanes = kernel.lanes(geom.ways());
        let reason = lanes_reason(&kernel);
        match kernel {
            SliceKernel::PlruIpv { .. } => {
                assert_eq!(lanes, 64 / geom.ways(), "{name}: plru lane packing");
                assert!(reason.contains("64/ways"), "{name}: {reason}");
            }
            SliceKernel::StackIpv { .. } | SliceKernel::RripIpv { .. } => {
                assert_eq!(lanes, 1, "{name}: nibble-vector kernels are single-lane");
                assert!(reason.contains("one lane is correct"), "{name}: {reason}");
            }
        }
    }
    let lru_kernel = policies::lru()(&geom)
        .slice_kernel()
        .expect("LRU advertises its stack kernel");
    assert_eq!(
        lru_kernel.lanes(geom.ways()),
        1,
        "LRU lanes: a 16-entry stack fills the word; 1 lane is the documented truth"
    );
    let rate = (stream.len() * named.len()) as f64 / elapsed.max(1e-12);
    // Floor is ~100x below a release-build single-core replay rate: it
    // only trips on catastrophic regressions (accidental debug logic,
    // quadratic dispatch), not on runner noise.
    assert!(
        rate > 1.0e6,
        "dispatched throughput sanity floor: {rate:.0} accesses/sec"
    );
    smoke_batch_scaling();
    println!(
        "smoke OK: {} policies x {} accesses, dispatch == sequential, \
         {sliced_checked} sliced kernels bit-identical, {:.1}M acc/s",
        named.len(),
        stream.len(),
        rate / 1.0e6
    );
}

/// On a host with two or more cores, the figure harness's roster batch
/// (`runner::measure_policies`: every (simpoint × policy) pair one pool
/// unit) must reach [`MIN_BATCH_SCALING`]× the throughput of the same
/// units at one worker. Single-core hosts skip the assertion: there is no
/// parallelism to validate there, and CI provides the multi-core runner.
fn smoke_batch_scaling() {
    let cap = sim_core::pool::global().cap();
    if cap < 2 {
        println!("smoke: batch scaling check skipped ({cap} core(s))");
        return;
    }
    // 12 policies x 2 simpoints = 24 units at the Quick LLC geometry,
    // each long enough (tens of milliseconds) that replay dominates pool
    // dispatch and a timing spans many scheduler quanta; best of
    // `ROUNDS` interleaved rounds rides out host time-sharing.
    let geom = Scale::Quick.hierarchy().llc;
    let workload = synthetic_workload(&geom, 2, 800_000);
    let named = policies::baseline_roster(0xC0FFEE);
    let refs: Vec<&PolicyFactory> = named.iter().map(|(_, f)| f).collect();
    let (all, one) = batch_rates(&workload, &refs, geom, ROUNDS);
    let scaling = all / one;
    println!(
        "smoke: roster batch {:.1}M acc/s on {cap} workers, {:.1}M acc/s on 1 ({scaling:.2}x)",
        all / 1e6,
        one / 1e6
    );
    assert!(
        scaling >= MIN_BATCH_SCALING,
        "on a {cap}-core host the roster batch must reach {MIN_BATCH_SCALING}x the \
         one-worker throughput; got {scaling:.2}x"
    );
}

/// What the command line asks for.
enum Command {
    /// Full benchmark at a scale, writing the JSON report to a path.
    Bench { scale: Scale, json_path: String },
    /// The CI smoke gate.
    Smoke,
}

/// Parses the command line (without the program name); `Err` carries the
/// complaint to print above the usage.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut scale = Scale::Quick;
    let mut json_path = "BENCH_replay.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| Scale::parse(s))
                    .ok_or("--scale needs micro|quick|medium|paper")?;
            }
            "--json" => json_path = it.next().ok_or("--json needs a path")?.clone(),
            "--smoke" => return Ok(Command::Smoke),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Bench { scale, json_path })
}

/// The CPUs this process may run on (Linux `Cpus_allowed_list`), as
/// provenance beside the core count.
fn cpus_allowed() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|v| v.trim().to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, json_path) = match parse_args(&args) {
        Ok(Command::Smoke) => return smoke(),
        Ok(Command::Bench { scale, json_path }) => (scale, json_path),
        Err(complaint) => {
            if !complaint.is_empty() {
                eprintln!("bench-replay: {complaint}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    // One representative stream: a thrash-heavy benchmark keeps the
    // replacement policy busy (every access updates policy state; misses
    // exercise victim selection).
    let bench = Spec2006::Libquantum;
    let workload = harness::workload_cache().workload(scale, bench);
    let stream: Vec<Access> = workload
        .simpoints
        .iter()
        .flat_map(|sp| sp.stream.iter().copied())
        .collect();
    let geom = scale.hierarchy().llc;
    let warmup = mem_model::llc::default_warmup(stream.len());
    let leaders = policies::leaders_for(&geom);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "replaying {} LLC accesses ({bench}, {scale} scale, {} sets x {} ways, {cores} core(s))",
        stream.len(),
        geom.sets(),
        geom.ways(),
    );

    let quad = gippr::vectors::wi_4dgippr().to_vec();
    let rows = vec![
        measure("LRU", &stream, geom, warmup, &policies::lru(), TrueLru::new),
        measure(
            "PseudoLRU",
            &stream,
            geom,
            warmup,
            &policies::plru(),
            PlruPolicy::new,
        ),
        measure(
            "WI-GIPPR",
            &stream,
            geom,
            warmup,
            &policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
            |g| {
                GipprPolicy::with_name(g, gippr::vectors::wi_gippr(), "WI-GIPPR")
                    .expect("assoc matches")
            },
        ),
        measure(
            "WI-4-DGIPPR",
            &stream,
            geom,
            warmup,
            &policies::dgippr(quad.clone(), "WI-4-DGIPPR"),
            |g| {
                DgipprPolicy::with_config(g, quad.clone(), leaders, "WI-4-DGIPPR")
                    .expect("valid config")
            },
        ),
        measure("DRRIP", &stream, geom, warmup, &policies::drrip(), |g| {
            DrripPolicy::with_config(g, leaders, 10).expect("geometry fits DRRIP")
        }),
    ];

    // The aggregate batch: the whole roster as one `measure_policies`
    // batch of (simpoint × policy) units — the shape the figure harness
    // actually runs — on the whole pool and at one worker.
    let named = roster();
    let refs: Vec<&PolicyFactory> = named.iter().map(|(_, f)| f).collect();
    let (batched_rate, batched_one_rate) = batch_rates(&workload, &refs, geom, ROUNDS);
    let batched_scaling = batched_rate / batched_one_rate;

    let mono_geomean = geomean(rows.iter().map(Row::speedup));
    let slice_geomean = geomean(rows.iter().filter_map(Row::slice_speedup));
    // The aggregate row: geomean accesses/sec per engine column, the
    // one-line per-engine summary a reader (or a regression diff) wants
    // before the per-policy detail. `slice` covers the kernel-carrying
    // subset of the roster only.
    let geomean_seed_rate = geomean(rows.iter().map(|r| r.seed_rate));
    let geomean_dyn_rate = geomean(rows.iter().map(|r| r.dyn_rate));
    let geomean_mono_rate = geomean(rows.iter().map(|r| r.mono_rate));
    let geomean_slice_rate = if rows.iter().any(|r| r.slice_rate.is_some()) {
        Some(geomean(rows.iter().filter_map(|r| r.slice_rate)))
    } else {
        None
    };
    for r in &rows {
        let slice_col = match (r.slice_rate, r.slice_speedup()) {
            (Some(rate), Some(x)) => format!("slice {rate:>11.0} acc/s ({x:.2}x)"),
            _ => format!("slice {:>11} (no kernel)", "-"),
        };
        println!(
            "  {:<12} seed {:>11.0} acc/s   dyn {:>11.0} acc/s   mono {:>11.0} acc/s   \
             {slice_col}   mono/seed {:.2}x",
            r.name,
            r.seed_rate,
            r.dyn_rate,
            r.mono_rate,
            r.speedup(),
        );
    }
    println!(
        "  geomean rates: seed {geomean_seed_rate:.0}  dyn {geomean_dyn_rate:.0}  \
         mono {geomean_mono_rate:.0}  slice {} acc/s",
        geomean_slice_rate.map_or("n/a".to_string(), |r| format!("{r:.0}"))
    );
    println!("  geomean speedup (mono over seed engine): {mono_geomean:.2}x");
    println!("  geomean speedup (sliced over mono engine, qualifying roster): {slice_geomean:.2}x");
    println!(
        "  roster batch: {batched_rate:.0} acc/s on the pool, {batched_one_rate:.0} acc/s \
         on one worker ({batched_scaling:.2}x)"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str(&format!("  \"benchmark\": \"{bench}\",\n"));
    json.push_str(&format!("  \"stream_accesses\": {},\n", stream.len()));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"host\": {{\"cores\": {cores}, \"pool_cap\": {}, \"cpus_allowed\": {}, \
         \"target_arch\": \"{}\", \"target_features\": [{}]}},\n",
        sim_core::pool::global().cap(),
        cpus_allowed().map_or("null".to_string(), |c| format!("\"{c}\"")),
        std::env::consts::ARCH,
        target_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"baseline\": \"seed (v0) dyn-dispatch replay engine\",\n");
    json.push_str("  \"policies\": [\n");
    let opt_num = |v: Option<f64>, digits: usize| match v {
        Some(x) => format!("{x:.digits$}"),
        None => "null".to_string(),
    };
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"seed_accesses_per_sec\": {:.0}, \
             \"dyn_accesses_per_sec\": {:.0}, \"mono_accesses_per_sec\": {:.0}, \
             \"slice_accesses_per_sec\": {}, \"lanes\": {}, \"lanes_reason\": {}, \
             \"speedup\": {:.4}, \"slice_speedup\": {}}}{}\n",
            r.name,
            r.seed_rate,
            r.dyn_rate,
            r.mono_rate,
            opt_num(r.slice_rate, 0),
            r.lanes.map_or("null".to_string(), |l| l.to_string()),
            r.lanes_reason
                .map_or("null".to_string(), |s| format!("\"{s}\"")),
            r.speedup(),
            opt_num(r.slice_speedup(), 4),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"geomean_rates\": {{\"seed_accesses_per_sec\": {geomean_seed_rate:.0}, \
         \"dyn_accesses_per_sec\": {geomean_dyn_rate:.0}, \
         \"mono_accesses_per_sec\": {geomean_mono_rate:.0}, \
         \"slice_accesses_per_sec\": {}}},\n",
        opt_num(geomean_slice_rate, 0)
    ));
    json.push_str(&format!(
        "  \"batched_accesses_per_sec\": {batched_rate:.0},\n"
    ));
    json.push_str(&format!(
        "  \"batched_one_worker_accesses_per_sec\": {batched_one_rate:.0},\n"
    ));
    json.push_str(&format!("  \"batched_scaling\": {batched_scaling:.4},\n"));
    json.push_str(&format!("  \"geomean_speedup\": {mono_geomean:.4},\n"));
    json.push_str(&format!(
        "  \"geomean_slice_speedup\": {slice_geomean:.4}\n"
    ));
    json.push_str("}\n");
    sim_core::persist::atomic_write(std::path::Path::new(&json_path), json.as_bytes())
        .expect("write json output");
    println!("wrote {json_path}");
}

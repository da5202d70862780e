//! `sweep-mi`: the figure path. The 11 memory-intensive SPEC models at
//! medium scale, two simpoints each, measured under the 12-policy
//! baseline roster plus WI-GIPPR and WI-4-DGIPPR, then Belady MIN and a
//! Mattson profile per model, in a closed batch.

use crate::host::cpu_seconds;
use crate::report::{median, Checks, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, Run};
use harness::runner::{measure_min, measure_policies, measure_policy, SimpointData};
use harness::stats::weighted_mean;
use harness::{policies, PolicyMeasurement, Scale, WorkloadData};
use mem_model::{capture_llc_stream, replay_llc, replay_llc_sliced, WindowPerfModel};
use sim_core::{Access, CacheGeometry, PolicyFactory, ShardAffinity, StackDistanceProfile};
use std::sync::Arc;
use std::time::Instant;
use traces::spec2006::Spec2006;

const SCALE: Scale = Scale::Medium;

/// Seed of the roster's Random policy: part of the program, not an input.
const ROSTER_SEED: u64 = 0xC0FFEE;

/// The 14 policies of the sweep, in report order.
pub fn roster() -> Vec<(&'static str, PolicyFactory)> {
    let mut r = policies::baseline_roster(ROSTER_SEED);
    r.push((
        "WI-GIPPR",
        policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
    ));
    r.push((
        "WI-4-DGIPPR",
        policies::dgippr(gippr::vectors::wi_4dgippr().to_vec(), "WI-4-DGIPPR"),
    ));
    r
}

/// Policy names of [`roster`], for the per-policy metric names.
pub fn roster_names() -> Vec<&'static str> {
    roster().into_iter().map(|(n, _)| n).collect()
}

/// Generates `l1_accesses` references of `bench`'s simpoint `variant`
/// with the run seed mixed into the model's seed, and captures the LLC
/// stream they leave behind the L1/L2 hierarchy.
pub fn capture_stream(
    bench: Spec2006,
    variant: u64,
    seed: u64,
    l1_accesses: usize,
    tracer: &Tracer,
    parent: u64,
) -> Vec<Access> {
    let config = SCALE.hierarchy();
    let mut spec = bench.workload().scaled_down(SCALE.shift());
    spec.seed ^= variant.wrapping_mul(0x517c_c1b7_2722_0a95) ^ seed;
    let refs: Vec<Access> = tracer.time("traces.gen", parent, || {
        spec.generator(variant).take(l1_accesses).collect()
    });
    tracer.time("hierarchy.capture", parent, || {
        capture_llc_stream(config, refs).0
    })
}

/// Captures every simpoint of `bench` the way the harness's workload
/// cache does, with the run seed mixed in. The LRU baseline field is left
/// at its placeholder: the sweep measures LRU as a roster member.
fn capture_bench(bench: Spec2006, seed: u64, tracer: &Tracer, parent: u64) -> WorkloadData {
    let simpoints = bench
        .simpoints()
        .into_iter()
        .take(SCALE.simpoints())
        .map(|sp| {
            let stream = capture_stream(bench, sp.index, seed, SCALE.accesses(), tracer, parent);
            SimpointData {
                weight: sp.weight,
                warmup: mem_model::default_warmup(stream.len()),
                stream: Arc::new(stream),
            }
        })
        .collect();
    WorkloadData {
        bench,
        simpoints,
        lru: PolicyMeasurement {
            mpki: 0.0,
            cycles: 1.0,
            misses: 0.0,
        },
    }
}

/// Captures the whole suite on the shared worker pool, as
/// `runner::prepare_workloads` does.
fn capture_suite(seed: u64, tracer: &Tracer, parent: u64) -> Vec<WorkloadData> {
    let benches = Spec2006::paper_memory_intensive();
    sim_core::pool::global().run(benches.len(), usize::MAX, |i| {
        capture_bench(benches[i], seed, tracer, parent)
    })
}

/// One closed batch: per model, the roster pass, MIN, and a Mattson
/// profile per simpoint.
struct Batch {
    wall_s: f64,
    /// Process CPU seconds the batch took.
    cpu_s: f64,
    /// Per model: the 14 roster measurements, then MIN.
    rows: Vec<Vec<PolicyMeasurement>>,
    /// Per model: the weighted full-associativity LRU misses of the
    /// Mattson profiles.
    mattson_lru: Vec<f64>,
}

fn batch(
    ws: &[WorkloadData],
    factories: &[&PolicyFactory],
    geom: CacheGeometry,
    tracer: &Tracer,
) -> Batch {
    let g = tracer.span("sweep.batch", 0);
    let (t0, c0) = (Instant::now(), cpu_seconds());
    let mut out = Batch {
        wall_s: 0.0,
        cpu_s: 0.0,
        rows: Vec::new(),
        mattson_lru: Vec::new(),
    };
    for w in ws {
        let mut row = tracer.time("batch.replay", g.id(), || {
            measure_policies(w, factories, geom)
        });
        row.push(tracer.time("optimal.min", g.id(), || measure_min(w, geom)));
        let lru = tracer.time("mattson.capture", g.id(), || {
            let misses: Vec<(f64, f64)> = w
                .simpoints
                .iter()
                .map(|sp| {
                    let p =
                        StackDistanceProfile::capture(&sp.stream, &geom, sp.warmup, geom.ways());
                    (p.misses(geom.ways()) as f64, sp.weight)
                })
                .collect();
            weighted_mean(&misses, 0.0)
        });
        out.rows.push(row);
        out.mattson_lru.push(lru);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = cpu_seconds() - c0;
    out
}

/// Bit-for-bit equality of two measurement lists.
pub fn same_bits(a: &[PolicyMeasurement], b: &[PolicyMeasurement]) -> bool {
    let bits = |m: &PolicyMeasurement| (m.mpki.to_bits(), m.cycles.to_bits(), m.misses.to_bits());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Engine dispatch of `factories` at `geom`: (sliced, mono, set-local).
pub fn engine_mix(factories: &[&PolicyFactory], geom: &CacheGeometry) -> (f64, f64, f64) {
    let mut mix = (0.0, 0.0, 0.0);
    for f in factories {
        let p = f(geom);
        if p.slice_kernel().is_some() {
            mix.0 += 1.0;
        } else {
            mix.1 += 1.0;
        }
        if matches!(p.shard_affinity(), ShardAffinity::SetLocal) {
            mix.2 += 1.0;
        }
    }
    mix
}

/// Runs the workload; returns the name of its unit-of-work root span.
pub fn run(run: &Run, checks: &mut Checks, e2e: &mut Metrics, layers: &mut Metrics) -> Outcome {
    let geom = SCALE.hierarchy().llc;
    let named = roster();
    let factories: Vec<&PolicyFactory> = named.iter().map(|(_, f)| f).collect();
    let tracer = &run.tracer;

    // Set-up: generate and capture the suite, several times for a steady
    // median (once when traced). The previous capture is freed first so
    // the peak RSS holds one suite.
    let mut setup_s = Vec::new();
    let mut ws = Vec::new();
    for _ in 0..run.setup_repeats() {
        drop(std::mem::take(&mut ws));
        let t = Instant::now();
        let g = tracer.span("setup", 0);
        ws = capture_suite(run.seed, tracer, g.id());
        g.end();
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let llc_accesses: usize = ws
        .iter()
        .flat_map(|w| &w.simpoints)
        .map(|sp| sp.stream.len())
        .sum();
    let policies = factories.len() + 1; // the roster plus MIN

    let batches = run.measure(
        layers,
        |tracer| batch(&ws, &factories, geom, tracer),
        |b| b.wall_s,
    );

    // Correctness: every batch repeats the first bit for bit; one model's
    // batched results equal `measure_policy` per policy; the Mattson LRU
    // misses equal the batched LRU row.
    let first = &batches[0];
    for (k, b) in batches.iter().enumerate().skip(1) {
        let same = b.rows.iter().zip(&first.rows).all(|(x, y)| same_bits(x, y));
        checks.check(&format!("sweep batch {k} repeats batch 0"), same);
    }
    let m = (run.seed % ws.len() as u64) as usize;
    let single: Vec<PolicyMeasurement> = factories
        .iter()
        .map(|f| measure_policy(&ws[m], f, geom))
        .collect();
    checks.check(
        &format!(
            "{} batched roster equals measure_policy",
            ws[m].bench.name()
        ),
        same_bits(&single, &first.rows[m][..factories.len()]),
    );
    for (i, w) in ws.iter().enumerate() {
        checks.check(
            &format!(
                "{} Mattson LRU misses equal the replayed LRU row",
                w.bench.name()
            ),
            first.mattson_lru[i].to_bits() == first.rows[i][0].misses.to_bits(),
        );
    }
    // Operations: per model and batch, each policy pass, MIN and Mattson.
    checks.ok((batches.len() * ws.len() * (policies + 1)) as u64);

    let work = (llc_accesses * policies) as f64;
    let per = |f: &dyn Fn(&Batch) -> f64| median(&batches.iter().map(f).collect::<Vec<_>>());
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set("sim_macc_per_s", per(&|b| work / b.wall_s / 1e6), "Macc/s");
    e2e.set("genomes_per_s", per(&|b| policies as f64 / b.wall_s), "1/s");
    e2e.set("cpu_ns_per_access", per(&|b| b.cpu_s / work * 1e9), "ns");

    if run.traced() {
        per_policy_replays(tracer, &ws, &named, geom);
        let (sliced, mono, setlocal) = engine_mix(&factories, &geom);
        layers.set("engine.sliced_policies", sliced, "count");
        layers.set("engine.mono_policies", mono, "count");
        layers.set("engine.setlocal_policies", setlocal, "count");
        layers.set("hierarchy.llc_accesses", llc_accesses as f64, "count");
        layers.set(
            "batch.policy_accesses",
            (llc_accesses * factories.len()) as f64,
            "count",
        );
    }
    Outcome {
        unit_root: "sweep.batch",
        // MIN replays every LLC access of the suite once per batch.
        rates: vec![(
            "optimal.min_macc_per_s",
            llc_accesses as f64 / 1e6,
            "optimal.min_s",
        )],
    }
}

/// Whole-stream replays of one simpoint per model and policy, through the
/// engine the dispatcher would pick: sliced where the policy has a kernel
/// that supports the geometry, mono otherwise.
fn per_policy_replays(
    tracer: &Tracer,
    ws: &[WorkloadData],
    named: &[(&'static str, PolicyFactory)],
    geom: CacheGeometry,
) {
    let perf = WindowPerfModel::default();
    let g = tracer.span("replay.per_policy", 0);
    for w in ws {
        let sp = &w.simpoints[0];
        for (name, f) in named {
            let _s = tracer.span(format!("replay.{name}"), g.id());
            let kernel = f(&geom).slice_kernel();
            let sliced = kernel
                .as_ref()
                .and_then(|k| replay_llc_sliced(&sp.stream, geom, k, sp.warmup, &perf));
            std::hint::black_box(
                sliced.unwrap_or_else(|| replay_llc(&sp.stream, geom, f(&geom), sp.warmup, &perf)),
            );
        }
    }
}

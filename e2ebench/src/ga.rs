//! `ga-ladder`: one in-process island of the GA (`evolve::run_island`,
//! `islands = 1`) through the real fitness ladder, over a fitness context
//! of the 11 memory-intensive SPEC models at medium GA length.

use crate::host::cpu_seconds;
use crate::report::{median, Checks, Metrics};
use crate::sweep::engine_mix;
use crate::trace::Tracer;
use crate::{Outcome, Run};
use evolve::island::mailbox_dir;
use evolve::{
    run_island, Checkpointing, FitnessContext, GaConfig, Genome, IslandConfig, IslandOutcome,
    LadderConfig, Substrate,
};
use gippr::Ipv;
use harness::Scale;
use sim_core::{PolicyFactory, StackDistanceProfile};
use std::path::Path;
use std::time::{Duration, Instant};
use traces::spec2006::Spec2006;
use traces::WorkloadSpec;

const SCALE: Scale = Scale::Medium;

/// Seed of the GA's own random choices. Every island of every run uses
/// it: the islands of a run repeat one search, so they differ only in how
/// fast the host ran them, and the run seed varies only the inputs (the
/// streams).
const GA_SEED: u64 = 1;

/// The island's GA: a fixed population and generation count.
fn island_config() -> IslandConfig {
    IslandConfig {
        islands: 1,
        migration_every: 2,
        migrants: 4,
        mailbox_timeout: Duration::from_secs(10),
        ga: GaConfig {
            initial_population: 48,
            population: 48,
            generations: 4,
            mutation_rate: 0.05,
            elitism: 4,
            tournament: 4,
            seed: GA_SEED,
        },
        ladder: LadderConfig::balanced(),
    }
}

/// The 11 models, two simpoints each, with the run seed mixed in.
fn specs(seed: u64) -> Vec<(WorkloadSpec, f64)> {
    Spec2006::paper_memory_intensive()
        .iter()
        .flat_map(|b| {
            b.simpoints()
                .into_iter()
                .take(SCALE.simpoints())
                .map(move |sp| {
                    let mut spec = b.workload();
                    spec.seed ^= sp.index.wrapping_mul(0x517c_c1b7_2722_0a95) ^ seed;
                    (spec, sp.weight)
                })
        })
        .collect()
}

/// One island run.
struct Island {
    wall_s: f64,
    /// Process CPU seconds the island took.
    cpu_s: f64,
    outcome: IslandOutcome<Ipv>,
    checkpoint_bytes: u64,
}

/// Runs the island in `dir`, which must be fresh: a checkpoint left there
/// would make `run_island` resume and skip the work being timed.
fn island(
    ctx: &FitnessContext,
    cfg: &IslandConfig,
    dir: &Path,
    tracer: &Tracer,
) -> std::io::Result<Island> {
    let g = tracer.span("ga.island", 0);
    let ckpt = Checkpointing::in_dir(dir.join("checkpoints"));
    let (t0, c0) = (Instant::now(), cpu_seconds());
    let outcome = {
        let run = tracer.span("island.run", g.id());
        let id = run.id();
        run_island(
            ctx,
            cfg,
            0,
            &ckpt,
            &mailbox_dir(dir),
            |c, g: &Ipv| tracer.time("ladder.profile", id, || c.profile_score_single(g)),
            |c, g: &Ipv| {
                tracer.time("ladder.sampled", id, || {
                    c.fitness_single_sampled(g, Substrate::Plru)
                })
            },
            |c, g: &Ipv| tracer.time("ladder.full", id, || c.fitness_single(g, Substrate::Plru)),
            Ipv::sample,
        )?
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - c0;
    let checkpoint_bytes = std::fs::metadata(ckpt.stage_path("island-0")).map_or(0, |m| m.len());
    Ok(Island {
        wall_s,
        cpu_s,
        outcome,
        checkpoint_bytes,
    })
}

/// Whether two islands ran the same search: equal ladder accounting, best
/// genome and best-fitness history, bit for bit.
fn same_search(a: &IslandOutcome<Ipv>, b: &IslandOutcome<Ipv>) -> bool {
    let bits = |h: &[f64]| h.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    a.stats == b.stats
        && a.result.best.encode() == b.result.best.encode()
        && bits(&a.result.history) == bits(&b.result.history)
}

/// Whether `best` re-scores through `fitness_single` to the last history
/// value the island recorded for it, bit for bit.
pub fn rescore_matches(ctx: &FitnessContext, best: &Ipv, recorded: f64) -> bool {
    ctx.fitness_single(best, Substrate::Plru).to_bits() == recorded.to_bits()
}

pub fn run(run: &Run, checks: &mut Checks, e2e: &mut Metrics, layers: &mut Metrics) -> Outcome {
    let tracer = &run.tracer;
    let specs = specs(run.seed);
    let accesses = SCALE.ga_accesses();

    // Set-up: build the fitness context several times for a steady median
    // (once when traced), freeing the previous one first.
    let mut setup_s = Vec::new();
    let mut ctx = None;
    for _ in 0..run.setup_repeats() {
        drop(ctx.take());
        let t = Instant::now();
        let g = tracer.span("setup", 0);
        ctx = Some(tracer.time("fitness.ctx_build", g.id(), || {
            FitnessContext::from_specs(&specs, accesses, SCALE.fitness())
        }));
        g.end();
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let ctx = ctx.expect("at least one set-up");
    let full_len: usize = ctx.streams().iter().map(|w| w.stream.len()).sum();
    let sampled_len: usize = ctx.streams().iter().map(|w| w.sampled.stream.len()).sum();

    let cfg = island_config();
    let mut k = 0;
    let mut fresh_island = |tracer: &Tracer| {
        k += 1;
        let dir = run.scratch.sub(&format!("island-{k}"))?;
        let out = island(&ctx, &cfg, &dir, tracer);
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    // Warm-up, untimed: the first island of a process runs its first
    // generation markedly slower (pool threads, allocator and caches are
    // cold). Its outcome is the reference every measured island repeats.
    let reference = match fresh_island(&Tracer::off()) {
        Ok(i) => {
            let s = &i.outcome.stats;
            eprintln!(
                "e2ebench: warm-up island {:.3} s, generations {:?} ms, evaluations profile {} sampled {} full {}",
                i.wall_s, i.outcome.gen_wall_ms, s.profile_evals, s.sampled_evals, s.full_evals
            );
            i.outcome
        }
        Err(e) => {
            checks.fail(&format!("warm-up island run: {e}"), 1);
            return Outcome {
                unit_root: "ga.island",
                rates: Vec::new(),
            };
        }
    };
    let measured = run.measure(layers, fresh_island, |u| {
        u.as_ref().map_or(0.0, |i| i.wall_s)
    });
    let mut islands = Vec::new();
    for u in measured {
        match u {
            Ok(i) => islands.push(i),
            Err(e) => checks.fail(&format!("island run: {e}"), 1),
        }
    }
    if islands.is_empty() {
        return Outcome {
            unit_root: "ga.island",
            rates: Vec::new(),
        };
    }

    // Correctness: each island ran every generation (a stale checkpoint
    // would have skipped some), repeated the warm-up's search exactly, and
    // its best genome re-scores to its recorded fitness.
    for (k, i) in islands.iter().enumerate() {
        let o = &i.outcome;
        checks.check(
            &format!("island {k} repeats the warm-up island's search bit for bit"),
            same_search(o, &reference),
        );
        checks.check(
            &format!(
                "island {k} evaluated all {} generations",
                cfg.ga.generations
            ),
            o.gen_wall_ms.len() == cfg.ga.generations,
        );
        let recorded = o.result.history.last().copied().unwrap_or(f64::NAN);
        checks.check(
            &format!("island {k}'s best genome re-scores to its recorded history value"),
            recorded.to_bits() == o.result.best_fitness.to_bits()
                && rescore_matches(&ctx, &o.result.best, recorded),
        );
    }

    // Genomes scored: every genome of every generation leaves the ladder
    // with a score, fresh or memoized.
    let scored = |i: &Island| {
        let gens = i.outcome.gen_wall_ms.len();
        (cfg.ga.initial_population + cfg.ga.population * gens.saturating_sub(1)) as f64
    };
    let replayed = |i: &Island| {
        let s = &i.outcome.stats;
        (s.full_evals as usize * full_len + s.sampled_evals as usize * sampled_len) as f64
    };
    checks.ok(islands.iter().map(|i| scored(i) as u64).sum());
    let per = |f: &dyn Fn(&Island) -> f64| median(&islands.iter().map(f).collect::<Vec<_>>());
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set(
        "sim_macc_per_s",
        per(&|i| replayed(i) / i.wall_s / 1e6),
        "Macc/s",
    );
    e2e.set("genomes_per_s", per(&|i| scored(i) / i.wall_s), "1/s");
    e2e.set(
        "cpu_ns_per_access",
        per(&|i| i.cpu_s / replayed(i) * 1e9),
        "ns",
    );

    if run.traced() {
        context_parts(tracer, &specs, accesses);
        // Counts per island of the traced half.
        let traced = &islands[islands.len().saturating_sub(run.traced_units().max(1))..];
        let per =
            |f: &dyn Fn(&Island) -> f64| traced.iter().map(f).sum::<f64>() / traced.len() as f64;
        let s = |i: &Island| i.outcome.stats;
        layers.set(
            "ladder.profile_evals",
            per(&|i| s(i).profile_evals as f64),
            "count",
        );
        layers.set(
            "ladder.sampled_evals",
            per(&|i| s(i).sampled_evals as f64),
            "count",
        );
        layers.set(
            "ladder.full_evals",
            per(&|i| s(i).full_evals as f64),
            "count",
        );
        layers.set("ladder.pruned", per(&|i| s(i).pruned as f64), "count");
        layers.set(
            "ladder.full_saved",
            per(&|i| s(i).full_saved as f64),
            "count",
        );
        let evals = per(&|i| (s(i).profile_evals + s(i).sampled_evals + s(i).full_evals) as f64);
        layers.set(
            "ladder.full_share",
            per(&|i| s(i).full_evals as f64) / evals.max(1.0),
            "ratio",
        );
        let traced_gens: Vec<f64> = traced
            .iter()
            .flat_map(|i| i.outcome.gen_wall_ms.iter().map(|&ms| ms as f64))
            .collect();
        layers.set("island.gen_ms_p50", median(&traced_gens), "ms");
        layers.set(
            "island.checkpoint_bytes",
            per(&|i| i.checkpoint_bytes as f64),
            "bytes",
        );
        let geom = ctx.geometry();
        let gippr: PolicyFactory = harness::policies::gippr(Ipv::lru(geom.ways()), "GIPPR");
        let (sliced, mono, setlocal) = engine_mix(&[&gippr], &geom);
        layers.set("engine.sliced_policies", sliced, "count");
        layers.set("engine.mono_policies", mono, "count");
        layers.set("engine.setlocal_policies", setlocal, "count");
        layers.set("hierarchy.llc_accesses", full_len as f64, "count");
    }
    Outcome {
        unit_root: "ga.island",
        rates: Vec::new(),
    }
}

/// The traced run's decomposition of the context build, which is one
/// opaque call: the same generation, capture and Mattson pass per stream,
/// timed from outside.
fn context_parts(tracer: &Tracer, specs: &[(WorkloadSpec, f64)], accesses: usize) {
    let config = SCALE.hierarchy();
    let g = tracer.span("fitness.ctx_parts", 0);
    for (spec, _) in specs {
        let scaled = spec.scaled_down(SCALE.shift());
        let refs: Vec<_> = tracer.time("traces.gen", g.id(), || {
            scaled.generator(0).take(accesses).collect()
        });
        let stream = tracer.time("hierarchy.capture", g.id(), || {
            mem_model::capture_llc_stream(config, refs).0
        });
        let warmup = mem_model::default_warmup(stream.len());
        tracer.time("mattson.capture", g.id(), || {
            std::hint::black_box(StackDistanceProfile::capture(
                &stream,
                &config.llc,
                warmup,
                config.llc.ways(),
            ))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve::FitnessScale;

    fn tiny_ctx() -> FitnessContext {
        let specs = vec![(Spec2006::Mcf.workload(), 1.0)];
        FitnessContext::from_specs(
            &specs,
            4_000,
            FitnessScale {
                shift: 6,
                threads: 1,
            },
        )
    }

    fn tiny_cfg() -> IslandConfig {
        let mut cfg = island_config();
        cfg.ga.initial_population = 8;
        cfg.ga.population = 8;
        cfg.ga.generations = 2;
        cfg
    }

    #[test]
    fn a_perturbed_recorded_fitness_fails_the_rescore_check() {
        let ctx = tiny_ctx();
        let ipv = Ipv::lru(ctx.geometry().ways());
        let recorded = ctx.fitness_single(&ipv, Substrate::Plru);
        assert!(rescore_matches(&ctx, &ipv, recorded));
        let perturbed = f64::from_bits(recorded.to_bits() ^ 1);
        assert!(!rescore_matches(&ctx, &ipv, perturbed));
    }

    #[test]
    fn a_stale_checkpoint_is_cleared_before_the_island_runs() {
        let ctx = tiny_ctx();
        let cfg = tiny_cfg();
        let root = std::env::temp_dir().join(format!("e2ebench-island-{}", std::process::id()));
        let tracer = Tracer::off();
        crate::host::fresh_dir(&root).unwrap();
        let done = island(&ctx, &cfg, &root, &tracer).unwrap();
        assert_eq!(done.outcome.gen_wall_ms.len(), 2);
        // Left in place, the finished island's checkpoint short-circuits
        // the next run: nothing would be timed.
        let resumed = island(&ctx, &cfg, &root, &tracer).unwrap();
        assert!(resumed.outcome.gen_wall_ms.is_empty());
        // A fresh directory removes it, and the island runs in full.
        crate::host::fresh_dir(&root).unwrap();
        let again = island(&ctx, &cfg, &root, &tracer).unwrap();
        assert_eq!(again.outcome.gen_wall_ms.len(), 2);
        assert_eq!(again.outcome.stats, done.outcome.stats);
        assert!(same_search(&again.outcome, &done.outcome));
        // A search that ends on a different recorded fitness is not the same.
        let mut perturbed = again.outcome;
        let last = perturbed.result.history.last_mut().unwrap();
        *last = f64::from_bits(last.to_bits() ^ 1);
        assert!(!same_search(&perturbed, &done.outcome));
        let _ = std::fs::remove_dir_all(&root);
    }
}

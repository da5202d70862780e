//! The genetic algorithm's fitness function (paper Section 4.3).
//!
//! For each workload, an LLC access stream is captured once through the
//! fixed L1/L2 hierarchy; candidate vectors then replay the stream at the
//! LLC only. Fitness is the workload-weighted arithmetic mean of the
//! linear-CPI speedup over LRU — exactly the paper's recipe ("we estimate
//! the resulting CPI as a linear function of the number of misses" and
//! evolve for "a good arithmetic mean speedup").

use gippr::{DgipprPolicy, GiplrPolicy, GipprPolicy, Ipv};
use mem_model::cpi::LinearCpiModel;
use mem_model::{capture_llc_stream, replay_dispatch, HierarchyConfig, WindowPerfModel};
use sim_core::{Access, CacheGeometry, ReplacementPolicy, SampledStream, StackDistanceProfile};
use std::sync::Arc;
use traces::spec2006::Spec2006;
use traces::WorkloadSpec;

/// Which replacement substrate a single vector drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Tree PseudoLRU state (GIPPR, Section 3.4).
    Plru,
    /// Full true-LRU recency stacks (GIPLR, Section 2).
    Lru,
}

/// Scale knobs for fitness evaluation; the defaults fit CI-speed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitnessScale {
    /// Shift applied to cache capacities and workload footprints
    /// (`HierarchyConfig::paper_scaled`); 0 = the paper's 4 MB LLC.
    pub shift: u32,
    /// Worker threads for population evaluation.
    pub threads: usize,
}

impl Default for FitnessScale {
    fn default() -> Self {
        FitnessScale {
            shift: 4,
            threads: available_threads(),
        }
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Default sampling period for the set-sampled fitness fidelity: one in
/// four sets is replayed (an exact 4× access-count reduction for
/// set-local policies).
pub const DEFAULT_SAMPLE_EVERY: usize = 4;

/// A workload's set-sampled sub-stream plus its own LRU baseline, the
/// inputs of the mid-fidelity tier ([`FitnessContext::fitness_single_sampled`]).
#[derive(Debug, Clone)]
pub struct SampledWorkload {
    /// The deterministic set-sampled sub-stream.
    pub stream: SampledStream,
    /// Instructions attributed to the sampled accesses' measured portion.
    pub instructions: u64,
    /// True-LRU misses over the sampled measured portion (from a Mattson
    /// pass over the sub-stream — exact, no replay).
    pub lru_misses: u64,
}

impl SampledWorkload {
    /// Captures the sampled sub-stream and its LRU baseline.
    pub fn build(
        stream: &[Access],
        geom: &CacheGeometry,
        warmup: usize,
        every: usize,
        offset: usize,
    ) -> Self {
        let sampled = SampledStream::build(stream, geom, warmup, every, offset);
        let profile =
            StackDistanceProfile::capture(sampled.stream(), geom, sampled.warmup(), geom.ways());
        SampledWorkload {
            instructions: profile.instructions().max(1),
            lru_misses: profile.misses(geom.ways()),
            stream: sampled,
        }
    }
}

/// One workload's captured LLC stream and its LRU baseline.
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    /// Workload display name.
    pub name: String,
    /// The captured LLC access stream (shared, replayed by every candidate).
    pub stream: Arc<Vec<Access>>,
    /// Accesses used to warm the cache before measuring.
    pub warmup: usize,
    /// Instructions represented by the measured portion.
    pub instructions: u64,
    /// LRU misses over the measured portion (the speedup denominator).
    pub lru_misses: u64,
    /// Single-pass stack-distance profile of the stream at the context
    /// geometry's set partition: exact LRU hit/miss counts at every
    /// associativity up to the geometry's ways, captured once. Source of
    /// `lru_misses`/`instructions` and of the associativity prefilter
    /// ([`FitnessContext::lru_speedup_at`]).
    pub profile: Arc<StackDistanceProfile>,
    /// Set-sampled sub-stream and its LRU baseline (fidelity 2 of the
    /// evaluation ladder). Built once at context construction from the
    /// same capture, so the sampled subset is a pure function of the
    /// stream and geometry — identical across thread counts and resumes.
    pub sampled: Arc<SampledWorkload>,
    /// Simpoint/benchmark weight in the mean.
    pub weight: f64,
}

/// Captured streams plus everything needed to score a candidate vector.
#[derive(Debug, Clone)]
pub struct FitnessContext {
    streams: Vec<WorkloadStream>,
    geom: CacheGeometry,
    model: LinearCpiModel,
    threads: usize,
}

impl FitnessContext {
    /// Builds a context from explicit workload specs. `accesses_per_stream`
    /// is the reference-trace length fed to L1 (the LLC stream is shorter).
    pub fn from_specs(
        specs: &[(WorkloadSpec, f64)],
        accesses_per_stream: usize,
        scale: FitnessScale,
    ) -> Self {
        let config = HierarchyConfig::paper_scaled(scale.shift)
            .expect("scale shift leaves valid geometries");
        let streams = specs
            .iter()
            .map(|(spec, weight)| {
                let scaled = spec.scaled_down(scale.shift);
                let (stream, _core_instructions) =
                    capture_llc_stream(config, scaled.generator(0).take(accesses_per_stream));
                let warmup = mem_model::llc::default_warmup(stream.len());
                // One Mattson pass replaces the LRU baseline replay: the
                // profile's miss count at the full associativity IS the
                // sequential replay's (exactness is proven in sim-verify
                // and the mem-model differential tests), and the same
                // capture answers every narrower associativity for the
                // prefilter below.
                let profile =
                    StackDistanceProfile::capture(&stream, &config.llc, warmup, config.llc.ways());
                let sampled =
                    SampledWorkload::build(&stream, &config.llc, warmup, DEFAULT_SAMPLE_EVERY, 0);
                WorkloadStream {
                    name: scaled.name.clone(),
                    stream: Arc::new(stream),
                    warmup,
                    instructions: profile.instructions().max(1),
                    lru_misses: profile.misses(config.llc.ways()),
                    profile: Arc::new(profile),
                    sampled: Arc::new(sampled),
                    weight: *weight,
                }
            })
            .collect();
        FitnessContext {
            streams,
            geom: config.llc,
            model: LinearCpiModel::default(),
            threads: scale.threads.max(1),
        }
    }

    /// Builds a context over SPEC benchmark models, `simpoints` weighted
    /// segments each.
    pub fn for_benchmarks(
        benchmarks: &[Spec2006],
        simpoints: usize,
        accesses_per_stream: usize,
        scale: FitnessScale,
    ) -> Self {
        let specs: Vec<(WorkloadSpec, f64)> = benchmarks
            .iter()
            .flat_map(|b| {
                b.simpoints()
                    .into_iter()
                    .take(simpoints.max(1))
                    .map(move |sp| {
                        let mut spec = b.workload();
                        spec.seed ^= sp.index.wrapping_mul(0x517c_c1b7_2722_0a95);
                        (spec, sp.weight)
                    })
            })
            .collect();
        Self::from_specs(&specs, accesses_per_stream, scale)
    }

    /// The LLC geometry candidates are scored against.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The captured workload streams.
    pub fn streams(&self) -> &[WorkloadStream] {
        &self.streams
    }

    /// Worker threads used by [`FitnessContext::fitness_many`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cheap associativity prefilter: the weighted-mean linear-CPI speedup
    /// of `ways`-way true LRU (same set count, narrower sets) over the
    /// context's full-width LRU baseline, read straight off the per-stream
    /// stack-distance profiles with no replay. LRU is inclusion-preserving,
    /// so these are exact miss counts, not estimates — the GA can rank
    /// candidate associativities (or bound how much headroom a narrower
    /// cache leaves) before paying for any per-candidate replays.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ways <= geometry().ways()`.
    pub fn lru_speedup_at(&self, ways: usize) -> f64 {
        let mut total = 0.0;
        let mut total_weight = 0.0;
        for ws in &self.streams {
            let misses = ws.profile.misses(ways);
            total += self.model.speedup(ws.instructions, ws.lru_misses, misses) * ws.weight;
            total_weight += ws.weight;
        }
        if total_weight == 0.0 {
            1.0
        } else {
            total / total_weight
        }
    }

    /// Returns a context restricted to streams whose names pass `keep`
    /// (the WN1 holdout mechanism).
    pub fn filtered<F: Fn(&str) -> bool>(&self, keep: F) -> FitnessContext {
        FitnessContext {
            streams: self
                .streams
                .iter()
                .filter(|s| keep(&s.name))
                .cloned()
                .collect(),
            geom: self.geom,
            model: self.model,
            threads: self.threads,
        }
    }

    /// The GA inner loop: the weighted-mean linear-CPI speedup over LRU of
    /// a fresh policy from `make` on every workload. With `sampled`, only
    /// the set-sampled sub-streams replay, against their own sampled LRU
    /// baselines (ladder fidelity 2): for set-local policies the per-set
    /// results are exact (set independence, proven by the shard-affinity
    /// model check), so only the aggregation over a subset of sets makes
    /// it an estimate of the full-stream fitness.
    ///
    /// Every replay goes through [`replay_dispatch`]: the bit-sliced engine
    /// for the GIPPR/GIPLR substrates, the monomorphized engine for the
    /// DGIPPR duel's cache-global PSEL. Generic over the concrete policy
    /// type so the mono replay monomorphizes per substrate instead of
    /// paying virtual dispatch through `Box<dyn>`. Parallelism lives one
    /// level up, across genomes ([`FitnessContext::fitness_many`]).
    fn speedup_with<P: ReplacementPolicy, F: Fn() -> P>(&self, sampled: bool, make: F) -> f64 {
        let perf = WindowPerfModel::default();
        let mut total_weight = 0.0;
        let mut total = 0.0;
        for ws in &self.streams {
            let sw = &ws.sampled;
            let (stream, warmup, instructions, lru_misses) = if sampled {
                let s = &sw.stream;
                (s.stream(), s.warmup(), sw.instructions, sw.lru_misses)
            } else {
                (&ws.stream[..], ws.warmup, ws.instructions, ws.lru_misses)
            };
            let run = replay_dispatch(stream, self.geom, make(), warmup, &perf).run;
            let speedup = self
                .model
                .speedup(instructions, lru_misses, run.stats.misses);
            total += speedup * ws.weight;
            total_weight += ws.weight;
        }
        if total_weight == 0.0 {
            1.0
        } else {
            total / total_weight
        }
    }

    /// Rebuilds every workload's sampled sub-stream with an explicit
    /// sampling period and residue class (tests and experiments; the
    /// default is `set % DEFAULT_SAMPLE_EVERY == 0`).
    pub fn with_sampling(mut self, every: usize, offset: usize) -> Self {
        for ws in &mut self.streams {
            ws.sampled = Arc::new(SampledWorkload::build(
                &ws.stream, &self.geom, ws.warmup, every, offset,
            ));
        }
        self
    }

    /// Set-sampled mean speedup of a single vector (ladder fidelity 2):
    /// an exact per-set replay of one in
    /// [`SampledStream::every`](sim_core::SampledStream::every) sets.
    pub fn fitness_single_sampled(&self, ipv: &Ipv, substrate: Substrate) -> f64 {
        let geom = self.geom;
        match substrate {
            Substrate::Plru => self.speedup_with(true, || {
                GipprPolicy::new(&geom, ipv.clone()).expect("assoc matches")
            }),
            Substrate::Lru => self.speedup_with(true, || {
                GiplrPolicy::new(&geom, ipv.clone()).expect("assoc matches")
            }),
        }
    }

    /// Set-sampled mean speedup of a dueling vector set (ladder
    /// fidelity 2). Leader sets are re-derived from the *sampled* set
    /// count, so the duel keeps its leader/follower proportions; DGIPPR's
    /// PSEL makes this tier an estimate in a second way (cross-set
    /// coupling), which is fine — elites are re-scored at full fidelity.
    ///
    /// # Panics
    ///
    /// Panics unless `vectors.len()` is 2 or 4.
    pub fn fitness_set_sampled(&self, vectors: &[Ipv]) -> f64 {
        assert!(
            vectors.len() == 2 || vectors.len() == 4,
            "DGIPPR duels 2 or 4 vectors, got {}",
            vectors.len()
        );
        let geom = self.geom;
        let leaders = (geom.sets() / 64).clamp(4, 32);
        self.speedup_with(true, || {
            DgipprPolicy::with_config(&geom, vectors.to_vec(), leaders, "DGIPPR")
                .expect("valid duel config")
        })
    }

    /// Zero-replay profile score of a single vector (ladder fidelity 1).
    ///
    /// The `sim-lint` reachability analysis proves which recency positions
    /// a vector can ever populate; a vector with `d` dead positions runs
    /// the cache as if it were at most `ways - d` ways wide, and the
    /// stored Mattson profiles answer "what would `ways - d`-way LRU
    /// cost?" exactly, with no replay at all. This is a *heuristic
    /// ranking* (insertion/promotion order within the live positions is
    /// invisible to it), never a fitness: it only decides which genomes
    /// graduate to the replay tiers.
    pub fn profile_score_single(&self, ipv: &Ipv) -> f64 {
        let analysis = ipv.analysis();
        let live = analysis.reachable_positions().len().max(1);
        let ways = self.geom.ways();
        self.lru_speedup_at(live.min(ways))
    }

    /// Zero-replay profile score of a vector set (ladder fidelity 1): the
    /// best member's score — a duel can always fall back to its best
    /// vector, so the set's potential is bounded by its best member.
    pub fn profile_score_set(&self, vectors: &[Ipv]) -> f64 {
        vectors
            .iter()
            .map(|v| self.profile_score_single(v))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean speedup over LRU of a single vector on `substrate`.
    pub fn fitness_single(&self, ipv: &Ipv, substrate: Substrate) -> f64 {
        let geom = self.geom;
        match substrate {
            Substrate::Plru => self.speedup_with(false, || {
                GipprPolicy::new(&geom, ipv.clone()).expect("assoc matches")
            }),
            Substrate::Lru => self.speedup_with(false, || {
                GiplrPolicy::new(&geom, ipv.clone()).expect("assoc matches")
            }),
        }
    }

    /// Mean speedup over LRU of a dueling 2- or 4-vector set (DGIPPR).
    ///
    /// # Panics
    ///
    /// Panics unless `vectors.len()` is 2 or 4.
    pub fn fitness_set(&self, vectors: &[Ipv]) -> f64 {
        assert!(
            vectors.len() == 2 || vectors.len() == 4,
            "DGIPPR duels 2 or 4 vectors, got {}",
            vectors.len()
        );
        let geom = self.geom;
        // Smaller scaled caches have fewer sets; shrink the leader count to
        // fit while keeping the paper's 32 for full-size runs.
        let leaders = (geom.sets() / 64).clamp(4, 32);
        self.speedup_with(false, || {
            DgipprPolicy::with_config(&geom, vectors.to_vec(), leaders, "DGIPPR")
                .expect("valid duel config")
        })
    }

    /// Per-workload speedups (not aggregated), for reporting.
    pub fn per_workload_single(&self, ipv: &Ipv, substrate: Substrate) -> Vec<(String, f64)> {
        let perf = WindowPerfModel::default();
        self.streams
            .iter()
            .map(|ws| {
                let (stream, geom, warmup) = (&ws.stream, self.geom, ws.warmup);
                let run = match substrate {
                    Substrate::Plru => {
                        let p = GipprPolicy::new(&geom, ipv.clone()).expect("assoc matches");
                        replay_dispatch(stream, geom, p, warmup, &perf).run
                    }
                    Substrate::Lru => {
                        let p = GiplrPolicy::new(&geom, ipv.clone()).expect("assoc matches");
                        replay_dispatch(stream, geom, p, warmup, &perf).run
                    }
                };
                (
                    ws.name.clone(),
                    self.model
                        .speedup(ws.instructions, ws.lru_misses, run.stats.misses),
                )
            })
            .collect()
    }

    /// Evaluates many candidates on the persistent worker pool, capped at
    /// `self.threads` concurrent executors. The pool threads are created
    /// once per process and reused across generations and experiments.
    pub fn fitness_many<G, F>(&self, genomes: &[G], eval: F) -> Vec<f64>
    where
        G: Sync,
        F: Fn(&FitnessContext, &G) -> f64 + Sync,
    {
        sim_core::pool::global().run(genomes.len(), self.threads, |i| eval(self, &genomes[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_model::replay_llc_mono;

    fn tiny_ctx() -> FitnessContext {
        FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum, Spec2006::DealII],
            1,
            20_000,
            FitnessScale {
                shift: 6,
                threads: 2,
            },
        )
    }

    #[test]
    fn lru_vector_scores_about_one() {
        let ctx = tiny_ctx();
        let f = ctx.fitness_single(&Ipv::lru(16), Substrate::Lru);
        assert!(
            (f - 1.0).abs() < 1e-9,
            "GIPLR with the LRU vector IS LRU: {f}"
        );
    }

    #[test]
    fn lip_beats_lru_on_streaming_heavy_mix() {
        let ctx = FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum],
            1,
            20_000,
            FitnessScale {
                shift: 6,
                threads: 1,
            },
        );
        let f = ctx.fitness_single(&Ipv::lru_insertion(16), Substrate::Lru);
        assert!(f > 1.02, "LIP on pure streaming should beat LRU: {f}");
    }

    #[test]
    fn filtered_drops_holdout() {
        let ctx = tiny_ctx();
        let kept = ctx.filtered(|name| !name.contains("libquantum"));
        assert_eq!(kept.streams().len(), ctx.streams().len() - 1);
        assert!(kept
            .streams()
            .iter()
            .all(|s| !s.name.contains("libquantum")));
    }

    #[test]
    fn fitness_many_matches_sequential() {
        let ctx = tiny_ctx();
        let candidates = vec![Ipv::lru(16), Ipv::lru_insertion(16)];
        let parallel = ctx.fitness_many(&candidates, |c, g| c.fitness_single(g, Substrate::Plru));
        let sequential: Vec<f64> = candidates
            .iter()
            .map(|g| ctx.fitness_single(g, Substrate::Plru))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn sliced_fitness_matches_mono_replay() {
        // fitness_single serves GIPPR/GIPLR through the bit-sliced engine;
        // recomputing the same mean with monomorphized whole-stream
        // replays must agree to the bit.
        let ctx = tiny_ctx();
        let ipv = Ipv::lru_insertion(16);
        let geom = ctx.geometry();
        let perf = WindowPerfModel::default();
        let stream = &ctx.streams()[0];
        for engine in [
            replay_dispatch(
                &stream.stream,
                geom,
                GipprPolicy::new(&geom, ipv.clone()).unwrap(),
                0,
                &perf,
            )
            .engine,
            replay_dispatch(
                &stream.stream,
                geom,
                GiplrPolicy::new(&geom, ipv.clone()).unwrap(),
                0,
                &perf,
            )
            .engine,
        ] {
            assert_eq!(
                engine,
                mem_model::Engine::Sliced,
                "the test must compare sliced to mono"
            );
        }
        for substrate in [Substrate::Plru, Substrate::Lru] {
            let sliced = ctx.fitness_single(&ipv, substrate);
            let mut total = 0.0;
            let mut total_weight = 0.0;
            for ws in ctx.streams() {
                let misses = match substrate {
                    Substrate::Plru => {
                        let p = GipprPolicy::new(&ctx.geometry(), ipv.clone()).unwrap();
                        replay_llc_mono(&ws.stream, ctx.geometry(), p, ws.warmup, &perf)
                    }
                    Substrate::Lru => {
                        let p = GiplrPolicy::new(&ctx.geometry(), ipv.clone()).unwrap();
                        replay_llc_mono(&ws.stream, ctx.geometry(), p, ws.warmup, &perf)
                    }
                }
                .stats
                .misses;
                total += ctx.model.speedup(ws.instructions, ws.lru_misses, misses) * ws.weight;
                total_weight += ws.weight;
            }
            assert_eq!(sliced, total / total_weight, "{substrate:?}");
        }
    }

    #[test]
    fn assoc_prefilter_matches_replayed_lru() {
        // The prefilter reads miss counts off the stored profiles; they
        // must be bit-identical to actually replaying true LRU at the
        // narrower associativity (same set count), and the full-width
        // prefilter is the baseline itself: exactly 1.0.
        let ctx = tiny_ctx();
        assert_eq!(ctx.lru_speedup_at(ctx.geometry().ways()), 1.0);
        let perf = WindowPerfModel::default();
        for ways in [2usize, 4] {
            let narrow =
                CacheGeometry::from_sets(ctx.geometry().sets(), ways, ctx.geometry().line_bytes())
                    .unwrap();
            let mut total = 0.0;
            let mut total_weight = 0.0;
            for ws in ctx.streams() {
                let run = replay_llc_mono(
                    &ws.stream,
                    narrow,
                    baselines::TrueLru::new(&narrow),
                    ws.warmup,
                    &perf,
                );
                assert_eq!(ws.profile.misses(ways), run.stats.misses, "{}", ws.name);
                total += ctx
                    .model
                    .speedup(ws.instructions, ws.lru_misses, run.stats.misses)
                    * ws.weight;
                total_weight += ws.weight;
            }
            assert_eq!(ctx.lru_speedup_at(ways), total / total_weight);
        }
    }

    #[test]
    fn vector_set_fitness_runs() {
        let ctx = tiny_ctx();
        let f = ctx.fitness_set(&gippr::vectors::wi_2dgippr());
        assert!(f > 0.5 && f < 3.0, "sane speedup range: {f}");
    }

    #[test]
    #[should_panic(expected = "2 or 4")]
    fn vector_set_rejects_three() {
        let ctx = tiny_ctx();
        let v = Ipv::lru(16);
        let _ = ctx.fitness_set(&[v.clone(), v.clone(), v]);
    }

    #[test]
    fn per_workload_reports_every_stream() {
        let ctx = tiny_ctx();
        let rows = ctx.per_workload_single(&Ipv::lru(16), Substrate::Plru);
        assert_eq!(rows.len(), ctx.streams().len());
    }
}

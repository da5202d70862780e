//! Engine dispatch: one rule for every whole-stream replay.
//!
//! A policy that describes itself as a [`SliceKernel`] which accepts the
//! geometry replays through the bit-sliced engine
//! ([`replay_llc_sliced`]); every other policy replays through the
//! monomorphized engine ([`replay_llc_mono`]). Both are bit-identical to
//! [`crate::replay_llc`] (proven roster-wide in `sim-verify`), so the
//! choice is purely a speed decision, and [`Dispatched::engine`] reports
//! it so a silent fallback can be observed.
//!
//! Parallelism does not live here. One replay is one sequential pass;
//! callers fan (simpoint × policy) units — or GA genomes — across the
//! worker pool, which keeps every core busy without splitting a stream.

use crate::cpi::WindowPerfModel;
use crate::llc::{replay_llc_mono, LlcRunResult};
use crate::sliced::replay_llc_sliced;
use sim_core::{Access, CacheGeometry, ReplacementPolicy};

/// The engine that served one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The bit-sliced kernel engine.
    Sliced,
    /// The monomorphized engine: the policy has no slice kernel.
    Mono,
    /// The monomorphized engine although the policy has a slice kernel:
    /// the kernel declined the geometry.
    Fallback,
}

/// One dispatched replay: its result and the engine that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatched {
    /// Which engine served the replay.
    pub engine: Engine,
    /// The replay result, identical whichever engine served it.
    pub run: LlcRunResult,
}

/// Replays `stream` under `policy` through the sliced engine if the
/// policy has a kernel that accepts `geom`, else through the mono engine.
/// Semantics (warm-up split, statistics, instructions, cycles) are
/// exactly those of [`crate::replay_llc`].
pub fn replay_dispatch<P: ReplacementPolicy>(
    stream: &[Access],
    geom: CacheGeometry,
    policy: P,
    warmup: usize,
    perf: &WindowPerfModel,
) -> Dispatched {
    let engine = match policy.slice_kernel() {
        Some(kernel) => match replay_llc_sliced(stream, geom, &kernel, warmup, perf) {
            Some(run) => {
                return Dispatched {
                    engine: Engine::Sliced,
                    run,
                }
            }
            None => Engine::Fallback,
        },
        None => Engine::Mono,
    };
    Dispatched {
        engine,
        run: replay_llc_mono(stream, geom, policy, warmup, perf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::replay_llc;
    use baselines::{DrripPolicy, TrueLru};
    use gippr::{GipprPolicy, Ipv};
    use sim_core::policy::factory;

    fn mixed_stream(n: usize) -> Vec<Access> {
        let mut state = 0x2545f4914f6cdd1du64;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = if i % 4 == 0 {
                    (state % 256) * 64
                } else {
                    (state % 16384) * 64
                };
                let a = if state & 3 == 0 {
                    Access::write(addr, state % 512)
                } else {
                    Access::read(addr, state % 512)
                };
                a.with_icount_delta((state % 9) as u32 + 1)
            })
            .collect()
    }

    #[test]
    fn dispatch_picks_the_engine_and_matches_replay_llc() {
        let g = CacheGeometry::from_sets(64, 16, 64).unwrap();
        let stream = mixed_stream(30_000);
        let (warmup, perf) = (10_000, WindowPerfModel::default());
        let lru = factory(|g| Box::new(TrueLru::new(g)));
        let gippr = factory(|g| Box::new(GipprPolicy::new(g, gippr::vectors::wi_gippr()).unwrap()));
        let drrip = factory(|g| Box::new(DrripPolicy::new(g).unwrap()));
        for (f, engine) in [
            (&lru, Engine::Sliced),
            (&gippr, Engine::Sliced),
            (&drrip, Engine::Mono),
        ] {
            let name = f(&g).name().to_string();
            let want = replay_llc(&stream, g, f(&g), warmup, &perf);
            let got = replay_dispatch(&stream, g, f(&g), warmup, &perf);
            assert_eq!(got.engine, engine, "{name}");
            assert_eq!(got.run, want, "{name}");
        }
    }

    #[test]
    fn kernel_declining_the_geometry_falls_back_to_mono() {
        // 32 ways is outside the sliced engine's packed range.
        let g = CacheGeometry::from_sets(8, 32, 64).unwrap();
        let stream = mixed_stream(5_000);
        let perf = WindowPerfModel::default();
        let policy = GipprPolicy::new(&g, Ipv::lru(32)).unwrap();
        assert!(policy.slice_kernel().is_some());
        let want = replay_llc_mono(&stream, g, policy.clone(), 1_000, &perf);
        let got = replay_dispatch(&stream, g, policy, 1_000, &perf);
        assert_eq!(got.engine, Engine::Fallback);
        assert_eq!(got.run, want);
    }

    #[test]
    fn empty_stream() {
        let g = CacheGeometry::from_sets(64, 16, 64).unwrap();
        let got = replay_dispatch(&[], g, TrueLru::new(&g), 0, &WindowPerfModel::default());
        assert_eq!(got.run.stats.accesses, 0);
    }
}

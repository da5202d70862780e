//! Bit-sliced LLC replay: the fast engine beside the monomorphized
//! ([`crate::replay_llc_mono`]) replayer.
//!
//! For policies that describe themselves as a
//! [`SliceKernel`](sim_core::SliceKernel) (the set-local
//! LRU/PLRU/GIPPR/GIPLR/RRIP-IPV families), `sim_core::slice` packs the
//! replacement state into `u64` words — four PLRU trees per word, SWAR
//! nibble vectors for stacks and RRPVs — and advances it with plain ALU
//! ops while the tag path runs through the same wide scan as
//! `SetAssocCache`. Final statistics and cycle estimates are bit-identical
//! to the monomorphized replay (enforced by `sim-verify`); when the kernel
//! declines the geometry, [`crate::replay_dispatch`] falls back to mono,
//! which is always exact.

use crate::cpi::{PerfAccumulator, WindowPerfModel};
use crate::llc::LlcRunResult;
use sim_core::{slice, Access, CacheGeometry, SliceKernel};

/// Replays `stream` through the bit-sliced kernel engine with the exact
/// semantics of [`crate::replay_llc_mono`] — same warm-up split, same
/// statistics protocol, same global-order cycle accounting.
///
/// Returns `None` when `kernel` does not support `geom` (associativity
/// outside the packed range, malformed vector); callers must then fall
/// back to the monomorphized engine.
pub fn replay_llc_sliced(
    stream: &[Access],
    geom: CacheGeometry,
    kernel: &SliceKernel,
    warmup: usize,
    perf: &WindowPerfModel,
) -> Option<LlcRunResult> {
    let mut acc = PerfAccumulator::new();
    let stats = slice::replay_sliced(stream, &geom, kernel, warmup, |icount, hit| {
        acc.note_llc(icount, hit, perf)
    })?;
    Some(LlcRunResult {
        stats,
        instructions: acc.instructions(),
        cycles: acc.cycles(perf),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::replay_llc_mono;
    use baselines::{RripIpvPolicy, SrripPolicy, TrueLru};
    use gippr::{GiplrPolicy, GipprPolicy, PlruPolicy};
    use sim_core::{Access, ReplacementPolicy};

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
    fn sliced_matches_mono_for_every_kernel_policy() {
        let g = CacheGeometry::from_sets(64, 16, 64).unwrap();
        let stream = mixed_stream(25_000);
        let warmup = 8_000;
        let perf = WindowPerfModel::default();

        let roster: Vec<Box<dyn ReplacementPolicy>> = vec![
            Box::new(TrueLru::new(&g)),
            Box::new(PlruPolicy::new(&g)),
            Box::new(GipprPolicy::new(&g, gippr::vectors::wi_gippr()).unwrap()),
            Box::new(GiplrPolicy::new(&g, gippr::Ipv::lru_insertion(16)).unwrap()),
            Box::new(SrripPolicy::new(&g)),
            Box::new(RripIpvPolicy::new(&g, [0, 1, 1, 2, 3]).unwrap()),
        ];
        for policy in roster {
            let kernel = policy.slice_kernel().expect("roster policy has a kernel");
            let name = policy.name().to_string();
            let sliced = replay_llc_sliced(&stream, g, &kernel, warmup, &perf)
                .expect("kernel supports 16-way");
            let mono = replay_llc_mono(&stream, g, policy, warmup, &perf);
            assert_eq!(sliced, mono, "sliced diverged from mono for {name}");
        }
    }

    #[test]
    fn unsupported_ways_yields_none() {
        let g = CacheGeometry::from_sets(4, 32, 64).unwrap();
        let kernel = SliceKernel::PlruIpv { ipv: vec![0; 33] };
        let perf = WindowPerfModel::default();
        assert!(replay_llc_sliced(&[], g, &kernel, 0, &perf).is_none());
    }
}

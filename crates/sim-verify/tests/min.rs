//! Belady MIN against its naive references, plus metamorphic bounds on
//! the oracle workloads.
//!
//! * Difference tests: [`mem_model::min_misses`] must equal the quadratic
//!   reference rule ([`sim_verify::refmin::ref_belady`]) field for field
//!   at several warm-up splits, and its miss count must equal the
//!   exhaustive optimum ([`sim_verify::refmin::brute_force_min`]), on
//!   small random multi-set streams.
//! * Metamorphic bounds: on every oracle workload, MIN's misses are at
//!   most every roster policy's, and at most true LRU's at every
//!   power-of-two associativity up to the oracle geometry's (read off one
//!   Mattson stack-distance profile).

use mem_model::cpi::WindowPerfModel;
use mem_model::{min_misses, replay_dispatch};
use proptest::prelude::*;
use sim_core::{Access, CacheGeometry, StackDistanceProfile};
use sim_verify::diff::{oracle_geometry, roster};
use sim_verify::refmin::{brute_force_min, ref_belady};
use sim_verify::workloads::workloads;

fn stream_of(blocks: &[u64], writes: &[bool]) -> Vec<Access> {
    blocks
        .iter()
        .zip(writes.iter().cycle())
        .map(|(&b, &w)| {
            if w {
                Access::write(b * 64, b)
            } else {
                Access::read(b * 64, b)
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn min_matches_the_reference_rule_and_the_exhaustive_optimum(
        sets_pow in 0u32..3,
        ways_pow in 0u32..3,
        blocks in proptest::collection::vec(0u64..24, 0..48),
        writes in proptest::collection::vec(any::<bool>(), 1..8),
        warmup_frac in 0usize..4,
    ) {
        let geom = CacheGeometry::from_sets(1 << sets_pow, 1 << ways_pow, 64).unwrap();
        let stream = stream_of(&blocks, &writes);
        let warmup = stream.len() * warmup_frac / 4;
        prop_assert_eq!(min_misses(&stream, geom, warmup), ref_belady(&stream, geom, warmup));
        prop_assert_eq!(min_misses(&stream, geom, 0).misses, brute_force_min(&stream, geom));
    }
}

/// Long enough for every oracle workload to cycle its footprint several
/// times through the 1024-set geometry.
const ACCESSES: usize = if cfg!(debug_assertions) {
    60_000
} else {
    300_000
};

#[test]
fn min_is_at_most_every_roster_policy() {
    let geom = oracle_geometry();
    let perf = WindowPerfModel::default();
    let pairs = roster("all");
    for (wname, stream) in workloads(0x0b1e, ACCESSES) {
        let warmup = mem_model::llc::default_warmup(stream.len());
        let min = min_misses(&stream, geom, warmup);
        for pair in &pairs {
            let run = replay_dispatch(&stream, geom, (pair.optimized)(&geom), warmup, &perf).run;
            assert_eq!(run.stats.accesses, min.accesses, "{}", pair.name);
            assert!(
                min.misses <= run.stats.misses,
                "MIN {} > {} {} on {wname}",
                min.misses,
                pair.name,
                run.stats.misses
            );
        }
    }
}

#[test]
fn min_is_at_most_lru_at_every_associativity() {
    let geom = oracle_geometry();
    for (wname, stream) in workloads(0x0b1e, ACCESSES) {
        let warmup = mem_model::llc::default_warmup(stream.len());
        let profile = StackDistanceProfile::capture(&stream, &geom, warmup, geom.ways());
        // Every associativity a power-of-two geometry admits: 1..=16 ways.
        for ways in (0..=geom.ways().trailing_zeros()).map(|k| 1usize << k) {
            let narrow = CacheGeometry::from_sets(geom.sets(), ways, geom.line_bytes()).unwrap();
            let min = min_misses(&stream, narrow, warmup);
            assert!(
                min.misses <= profile.misses(ways),
                "{wname}: MIN {} > LRU {} at {ways} ways",
                min.misses,
                profile.misses(ways)
            );
        }
    }
}

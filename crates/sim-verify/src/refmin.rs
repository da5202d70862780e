//! Naive references for Belady's MIN ([`mem_model::min_misses`]).
//!
//! * [`ref_belady`] — Belady's rule written for obviousness: each set is a
//!   plain list of resident blocks, and every eviction scans the rest of
//!   the stream to find each resident's next use (quadratic; small inputs
//!   only). It checks the optimized two-pass implementation field by
//!   field, warm-up split included.
//! * [`brute_force_min`] — no rule at all: the minimum miss count over
//!   every possible eviction choice, searched exhaustively per set and
//!   memoized on (position, resident set). It proves the rule optimal
//!   instead of trusting it.
//!
//! Ties between blocks that are never referenced again are broken
//! arbitrarily by both references: evicting either leaves every later
//! hit and miss unchanged, so the statistics do not depend on the choice.

use sim_core::{Access, CacheGeometry, CacheStats};
use std::collections::HashMap;

/// Stream position of the next reference to `block` after position `i`,
/// or `usize::MAX` when there is none.
fn next_use(blocks: &[u64], i: usize, block: u64) -> usize {
    blocks[i + 1..]
        .iter()
        .position(|&b| b == block)
        .map_or(usize::MAX, |d| i + 1 + d)
}

/// Belady's MIN over `stream`, counting the accesses after `warmup`:
/// on a miss to a full set, evict the resident block whose next
/// reference lies farthest in the future.
pub fn ref_belady(stream: &[Access], geom: CacheGeometry, warmup: usize) -> CacheStats {
    let blocks: Vec<u64> = stream.iter().map(|a| geom.block_of(a.addr)).collect();
    let mut sets: Vec<Vec<u64>> = vec![Vec::new(); geom.sets()];
    let mut stats = CacheStats::new();
    for (i, &block) in blocks.iter().enumerate() {
        let measured = i >= warmup;
        let set = &mut sets[geom.set_of_block(block)];
        if measured {
            stats.accesses += 1;
        }
        if set.contains(&block) {
            if measured {
                stats.hits += 1;
            }
            continue;
        }
        if measured {
            stats.misses += 1;
        }
        if set.len() == geom.ways() {
            let mut victim = 0;
            for (k, &resident) in set.iter().enumerate() {
                if next_use(&blocks, i, resident) > next_use(&blocks, i, set[victim]) {
                    victim = k;
                }
            }
            set.remove(victim);
            if measured {
                stats.evictions += 1;
            }
        }
        set.push(block);
    }
    stats
}

/// The optimal (minimum) miss count of `stream` on `geom` with no
/// warm-up, found by exhaustive search over every eviction choice. Sets
/// are independent, so each set's subsequence is searched on its own.
/// Exponential in the worst case: keep streams short and sets narrow.
pub fn brute_force_min(stream: &[Access], geom: CacheGeometry) -> u64 {
    let mut per_set: Vec<Vec<u64>> = vec![Vec::new(); geom.sets()];
    for a in stream {
        let block = geom.block_of(a.addr);
        per_set[geom.set_of_block(block)].push(block);
    }
    per_set
        .iter()
        .map(|blocks| search(blocks, 0, Vec::new(), geom.ways(), &mut HashMap::new()))
        .sum()
}

/// Minimum misses for `blocks[pos..]` starting from `resident` (kept
/// sorted so equal sets share one memo entry).
fn search(
    blocks: &[u64],
    pos: usize,
    resident: Vec<u64>,
    ways: usize,
    memo: &mut HashMap<(usize, Vec<u64>), u64>,
) -> u64 {
    let Some(&block) = blocks.get(pos) else {
        return 0;
    };
    if resident.contains(&block) {
        return search(blocks, pos + 1, resident, ways, memo);
    }
    if let Some(&known) = memo.get(&(pos, resident.clone())) {
        return known;
    }
    let with = |mut set: Vec<u64>| {
        set.push(block);
        set.sort_unstable();
        set
    };
    let best = if resident.len() < ways {
        1 + search(blocks, pos + 1, with(resident.clone()), ways, memo)
    } else {
        (0..resident.len())
            .map(|victim| {
                let mut kept = resident.clone();
                kept.remove(victim);
                1 + search(blocks, pos + 1, with(kept), ways, memo)
            })
            .min()
            .expect("a full set has a victim")
    };
    memo.insert((pos, resident), best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(blocks: &[u64]) -> Vec<Access> {
        blocks.iter().map(|&b| Access::read(b * 64, 0)).collect()
    }

    #[test]
    fn references_agree_on_a_textbook_case() {
        // Three blocks cycling through a 2-way set: 3 cold misses, then
        // MIN keeps one useful block per miss.
        let geom = CacheGeometry::from_sets(1, 2, 64).unwrap();
        let stream = reads(&[0, 1, 2, 0, 1, 2]);
        assert_eq!(ref_belady(&stream, geom, 0).misses, 4);
        assert_eq!(brute_force_min(&stream, geom), 4);
    }

    #[test]
    fn sets_are_searched_independently() {
        // Blocks 0, 2, 4 map to set 0 and 1, 3, 5 to set 1 of a 2-set,
        // 1-way cache: every access misses except the immediate repeats.
        let geom = CacheGeometry::from_sets(2, 1, 64).unwrap();
        let stream = reads(&[0, 1, 0, 1, 2, 3, 4, 5, 4]);
        assert_eq!(brute_force_min(&stream, geom), 6);
        assert_eq!(ref_belady(&stream, geom, 0).misses, 6);
    }
}

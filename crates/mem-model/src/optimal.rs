//! Belady's MIN: the offline optimal replacement policy.
//!
//! MIN evicts the block whose next reference lies farthest in the future
//! (Belady, 1966). The paper measures it with an in-house trace-based
//! simulator to bound how much room remains above every online policy
//! (Figure 10: MIN reaches 67.5 % of LRU's misses); it deliberately does
//! *not* report MIN speedups, because "the MIN algorithm is not
//! well-defined in a system that allows out-of-order issue" — we follow
//! suit and expose miss counts only.

use sim_core::{Access, CacheGeometry, CacheStats};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for block numbers: one 64×64→128-bit multiply folded to 64
/// bits. SipHash's cost dominated the next-use pass, and its resistance
/// to crafted collisions protects nothing here: the worst a crafted trace
/// can do is slow its own MIN pass. The fold keeps the bucket index (low
/// bits) dependent on every key bit, so strided block patterns still
/// spread.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Simulates Belady's MIN over a captured LLC access stream, counting
/// misses on the portion after `warmup` accesses.
///
/// Two passes: the first links each access to the stream index of the next
/// reference to the same block; the second simulates each set, evicting
/// the resident block with the farthest next use.
///
/// # Example
///
/// ```
/// use mem_model::min_misses;
/// use sim_core::{Access, CacheGeometry};
///
/// # fn main() -> Result<(), sim_core::GeometryError> {
/// let geom = CacheGeometry::from_sets(1, 2, 64)?;
/// // Three blocks alternating in a 2-way set: MIN keeps the useful two.
/// let stream: Vec<Access> =
///     [0u64, 64, 128, 0, 64, 128].iter().map(|&a| Access::read(a, 0)).collect();
/// let stats = min_misses(&stream, geom, 0);
/// assert_eq!(stats.misses, 4, "optimal misses: 3 cold + 1");
/// # Ok(())
/// # }
/// ```
pub fn min_misses(stream: &[Access], geom: CacheGeometry, warmup: usize) -> CacheStats {
    // Pass 1: next-use chains.
    let mut next_use = vec![usize::MAX; stream.len()];
    let mut last_seen: HashMap<u64, usize, BuildHasherDefault<BlockHasher>> = HashMap::default();
    for (i, a) in stream.iter().enumerate().rev() {
        let block = geom.block_of(a.addr);
        next_use[i] = std::mem::replace(last_seen.entry(block).or_insert(usize::MAX), i);
    }

    // Pass 2: per-set simulation. Each occupant remembers its next use.
    struct Occupant {
        block: u64,
        next: usize,
    }
    let mut sets: Vec<Vec<Occupant>> = (0..geom.sets()).map(|_| Vec::new()).collect();
    let mut stats = CacheStats::new();
    for (i, a) in stream.iter().enumerate() {
        let block = geom.block_of(a.addr);
        let set = &mut sets[geom.set_of_block(block)];
        let measured = i >= warmup;
        if measured {
            stats.accesses += 1;
        }
        if let Some(occ) = set.iter_mut().find(|o| o.block == block) {
            occ.next = next_use[i];
            if measured {
                stats.hits += 1;
            }
            continue;
        }
        if measured {
            stats.misses += 1;
        }
        if set.len() == geom.ways() {
            // Evict the occupant referenced farthest in the future.
            let victim = set
                .iter()
                .enumerate()
                .max_by_key(|(_, o)| o.next)
                .map(|(idx, _)| idx)
                .expect("set is full");
            set.swap_remove(victim);
            if measured {
                stats.evictions += 1;
            }
        }
        set.push(Occupant {
            block,
            next: next_use[i],
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpi::WindowPerfModel;
    use crate::llc::replay_llc;
    use baselines::TrueLru;

    fn reads(blocks: &[u64]) -> Vec<Access> {
        blocks.iter().map(|&b| Access::read(b * 64, 0)).collect()
    }

    #[test]
    fn cold_misses_only_when_everything_fits() {
        let geom = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let stream = reads(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let stats = min_misses(&stream, geom, 0);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 8);
    }

    /// Exhaustive optimal miss count for a single `ways`-sized set, by
    /// trying every eviction choice (exponential; tiny inputs only).
    fn brute_force_opt(blocks: &[u64], ways: usize) -> u64 {
        fn go(resident: &mut Vec<u64>, rest: &[u64], ways: usize) -> u64 {
            let Some((&b, tail)) = rest.split_first() else {
                return 0;
            };
            if resident.contains(&b) {
                return go(resident, tail, ways);
            }
            if resident.len() < ways {
                resident.push(b);
                let r = 1 + go(resident, tail, ways);
                resident.pop();
                return r;
            }
            let mut best = u64::MAX;
            for i in 0..resident.len() {
                let old = resident[i];
                resident[i] = b;
                best = best.min(1 + go(resident, tail, ways));
                resident[i] = old;
            }
            best
        }
        go(&mut Vec::new(), blocks, ways)
    }

    #[test]
    fn min_matches_brute_force_optimum() {
        let geom = CacheGeometry::from_sets(1, 2, 64).unwrap();
        // A batch of short adversarial streams over 4 distinct blocks.
        let cases: [&[u64]; 5] = [
            &[0, 1, 2, 0, 1, 3, 0, 2, 1, 3],
            &[0, 1, 2, 3, 0, 1, 2, 3],
            &[0, 0, 0, 1, 1, 2, 0, 2, 1],
            &[3, 2, 1, 0, 1, 2, 3, 2, 1, 0],
            &[0, 1, 0, 2, 0, 3, 0, 1, 2, 3, 0],
        ];
        for blocks in cases {
            let stream = reads(blocks);
            let min = min_misses(&stream, geom, 0);
            let opt = brute_force_opt(blocks, 2);
            assert_eq!(min.misses, opt, "stream {blocks:?}");
        }
    }

    #[test]
    fn min_never_worse_than_lru() {
        let geom = CacheGeometry::from_sets(4, 4, 64).unwrap();
        // Pseudorandom but deterministic block stream.
        let blocks: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) % 64).collect();
        let stream = reads(&blocks);
        let min = min_misses(&stream, geom, 0);
        let lru = replay_llc(
            &stream,
            geom,
            Box::new(TrueLru::new(&geom)),
            0,
            &WindowPerfModel::default(),
        );
        assert!(min.misses <= lru.stats.misses);
        assert_eq!(min.accesses, lru.stats.accesses);
    }

    #[test]
    fn min_beats_lru_on_thrash_loop() {
        let geom = CacheGeometry::from_sets(1, 4, 64).unwrap();
        // Loop over 6 blocks in a 4-way set: LRU gets zero hits, MIN keeps 3.
        let blocks: Vec<u64> = (0..600).map(|i| i % 6).collect();
        let stream = reads(&blocks);
        let min = min_misses(&stream, geom, 0);
        let lru = replay_llc(
            &stream,
            geom,
            Box::new(TrueLru::new(&geom)),
            0,
            &WindowPerfModel::default(),
        );
        assert_eq!(lru.stats.hits, 0);
        assert!(
            min.hits as f64 / min.accesses as f64 > 0.4,
            "MIN hit ratio {}",
            min.hit_ratio()
        );
    }

    #[test]
    fn warmup_portion_is_excluded() {
        let geom = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let stream = reads(&[0, 1, 2, 3, 0, 1, 2, 3]);
        let stats = min_misses(&stream, geom, 4);
        assert_eq!(stats.accesses, 4);
        assert_eq!(stats.misses, 0, "all four blocks resident after warm-up");
    }

    #[test]
    fn empty_stream() {
        let geom = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let stats = min_misses(&[], geom, 0);
        assert_eq!(stats, CacheStats::new());
    }
}

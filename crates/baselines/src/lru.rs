//! True least-recently-used replacement via timestamps.

use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy, ShardAffinity};

/// Textbook LRU: evict the block whose last use is oldest.
///
/// This implementation keeps a monotonically increasing logical clock and a
/// per-line timestamp, which makes it structurally different from the
/// recency-stack GIPLR implementation in the `gippr` crate — the two are
/// cross-checked against each other in integration tests. Its *hardware*
/// cost is accounted at the paper's figure for stack LRU: `k log2 k` bits
/// per set (64 bits for 16 ways).
///
/// # Example
///
/// ```
/// use baselines::TrueLru;
/// use sim_core::{Access, CacheGeometry, SetAssocCache};
///
/// # fn main() -> Result<(), sim_core::GeometryError> {
/// let geom = CacheGeometry::new(64 * 1024, 16, 64)?;
/// let mut cache = SetAssocCache::new(geom, Box::new(TrueLru::new(&geom)));
/// cache.access(&Access::read(0, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TrueLru {
    ways: usize,
    clock: u64,
    last_use: Vec<u64>,
}

impl TrueLru {
    /// Creates an LRU policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        TrueLru {
            ways: geom.ways(),
            clock: 0,
            last_use: vec![0; geom.sets() * geom.ways()],
        }
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        // The clock advances in strides of `ways` (a power of two), so
        // every timestamp's low `log2(ways)` bits are zero — reserved for
        // the way index that `victim` packs in.
        self.clock += self.ways as u64;
        self.last_use[set * self.ways + way] = self.clock;
    }
}

impl ReplacementPolicy for TrueLru {
    fn name(&self) -> &str {
        "LRU"
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        // Fold the way index into the timestamp's low bits so the oldest
        // way falls out of a plain `min` — a branchless reduction the
        // compiler can vectorize, unlike `min_by_key` with index
        // tracking. Timestamps are scaled by `ways` on update, so the
        // packing loses nothing.
        let base = set * self.ways;
        let key = self.last_use[base..base + self.ways]
            .iter()
            .enumerate()
            .map(|(w, &t)| t | w as u64)
            .min()
            .expect("ways > 0");
        (key as usize) & (self.ways - 1)
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::lru_bits_per_set(self.ways)
    }

    // The timestamp clock is global, but victim selection is an argmin of
    // `last_use` *within one set*: only the relative order of a set's own
    // timestamps matters, and splitting a stream by set preserves per-set
    // access order, so the argmin is identical under a per-set replay.
    fn shard_affinity(&self) -> ShardAffinity {
        ShardAffinity::SetLocal
    }

    // True LRU is the all-zero stack IPV: hit and fill both move the block
    // to MRU, the victim is the stack bottom. The timestamp argmin above
    // observes only within-set recency order, which the packed stack
    // reproduces exactly (victims are only requested for full sets, and
    // every fill touches).
    fn slice_kernel(&self) -> Option<sim_core::slice::SliceKernel> {
        Some(sim_core::slice::SliceKernel::StackIpv {
            ipv: vec![0; self.ways + 1],
        })
    }

    // Raw timestamps grow without bound, but behaviour depends only on the
    // within-set recency *order* (victim is an argmin, touch installs a new
    // maximum). Digesting the rank permutation is exactly the quotient that
    // justifies the `SetLocal` claim above, and it keeps the reachable state
    // space finite for the bounded model checker. Ties (untouched ways share
    // timestamp 0) break toward the lower way, matching the packed argmin.
    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let base = set * self.ways;
        let stamps = &self.last_use[base..base + self.ways];
        let mut order: Vec<usize> = (0..self.ways).collect();
        order.sort_by_key(|&w| (stamps[w], w));
        let mut rank = vec![0u8; self.ways];
        for (r, &w) in order.iter().enumerate() {
            rank[w] = r as u8;
        }
        Some(rank)
    }

    fn audit_invariants(&self) -> Result<(), String> {
        let ways = self.ways as u64;
        if self.clock % ways != 0 {
            return Err(format!(
                "LRU clock {} is not a multiple of ways {ways}",
                self.clock
            ));
        }
        if let Some((idx, &t)) = self
            .last_use
            .iter()
            .enumerate()
            .find(|&(_, &t)| t > self.clock || t % ways != 0)
        {
            return Err(format!(
                "LRU timestamp {t} at line {idx} exceeds clock {} or breaks way alignment",
                self.clock
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SetAssocCache;

    fn ctx() -> AccessContext {
        AccessContext::blank()
    }

    #[test]
    fn evicts_least_recent() {
        let g = CacheGeometry::from_sets(2, 4, 64).unwrap();
        let mut p = TrueLru::new(&g);
        for w in 0..4 {
            p.on_fill(0, w, &ctx());
        }
        p.on_hit(0, 0, &ctx()); // way 0 refreshed; way 1 is now oldest
        assert_eq!(p.victim(0, &ctx()), 1);
    }

    #[test]
    fn stack_behaviour_in_cache() {
        let g = CacheGeometry::from_sets(1, 4, 64).unwrap();
        let mut c = SetAssocCache::new(g, Box::new(TrueLru::new(&g)));
        for blk in 0..4u64 {
            c.access_block(blk, &ctx());
        }
        c.access_block(0, &ctx()); // refresh block 0
        let out = c.access_block(4, &ctx()); // evicts block 1
        assert_eq!(out.evicted.unwrap().block_addr, 1);
    }

    #[test]
    fn bits_per_set_matches_paper() {
        let g = CacheGeometry::from_sets(4, 16, 64).unwrap();
        assert_eq!(TrueLru::new(&g).bits_per_set(), 64);
    }

    #[test]
    fn sets_do_not_interfere() {
        let g = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let mut p = TrueLru::new(&g);
        p.on_fill(0, 0, &ctx());
        p.on_fill(1, 0, &ctx());
        p.on_fill(0, 1, &ctx());
        p.on_fill(1, 1, &ctx());
        p.on_hit(0, 0, &ctx());
        assert_eq!(p.victim(0, &ctx()), 1);
        assert_eq!(p.victim(1, &ctx()), 0);
    }
}

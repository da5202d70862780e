//! AWRP: Adaptive Weight Ranking Policy (Swain et al., IJCSI 2011;
//! arXiv 1107.4851).
//!
//! AWRP ranks every resident line by a weight combining recency and
//! access frequency, evicting the lowest-weight line — a middle ground
//! between LRU (pure recency, thrashes on scans) and LFU (pure
//! frequency, hoards stale hot blocks). This implementation expresses
//! the ranking in recency-clock units: each line carries the per-set
//! timestamp of its last touch plus a capped frequency bonus worth
//! [`FREQ_WEIGHT`] touches per recorded hit, so a block hit `n` times
//! survives a scan `16 n` accesses long before it ages out, and stale
//! blocks still expire because the bonus saturates while the clock does
//! not.

#![forbid(unsafe_code)]

use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy, ShardAffinity};

/// Recency-clock ticks one frequency step is worth.
pub const FREQ_WEIGHT: u64 = 16;
/// Frequency ceiling (4-bit counter).
pub const FREQ_MAX: u8 = 15;

/// Weight-ranking replacement: victim = argmin(last-use + frequency
/// bonus).
///
/// The clock is **per set** and strides by `ways` per touch, for two
/// load-bearing reasons: the low `log2(ways)` bits stay zero so
/// [`victim`](ReplacementPolicy::victim) can pack the way index into the
/// timestamp and take a branchless `min` (the [`crate::TrueLru`]
/// trick), and — unlike a cache-global clock — per-set timestamps make
/// weight *differences* depend only on the set's own access
/// subsequence, which splitting a stream by set preserves. A global clock
/// would stretch gaps by other sets' traffic and flip weight
/// comparisons between a whole and a per-set replay; with per-set clocks the policy is
/// exactly [`ShardAffinity::SetLocal`].
#[derive(Debug, Clone)]
pub struct AwrpPolicy {
    ways: usize,
    clock: Vec<u64>,
    last_use: Vec<u64>,
    freq: Vec<u8>,
}

impl AwrpPolicy {
    /// Creates AWRP for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Self::with_clock_origin(geom, 0)
    }

    /// Creates AWRP with every per-set clock started at `origin` (rounded
    /// down to a multiple of `ways` to keep timestamps stride-aligned).
    ///
    /// Victim ranking reads only modular clock *distances*, so behaviour is
    /// origin-independent — including across the `u64` wrap. This
    /// constructor exists to let tests (and the proptest wraparound suite)
    /// pin that claim by starting clocks just below `u64::MAX`.
    pub fn with_clock_origin(geom: &CacheGeometry, origin: u64) -> Self {
        let ways = geom.ways();
        let origin = origin - origin % ways as u64;
        AwrpPolicy {
            ways,
            clock: vec![origin; geom.sets()],
            last_use: vec![origin; geom.sets() * geom.ways()],
            freq: vec![0; geom.sets() * geom.ways()],
        }
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        // Wrapping: the clock is only ever read through `age`'s modular
        // subtraction, so crossing u64::MAX is harmless.
        self.clock[set] = self.clock[set].wrapping_add(self.ways as u64);
        self.last_use[set * self.ways + way] = self.clock[set];
    }

    /// Clock ticks since this line's last touch (exact modular distance:
    /// `last_use` is always a past value of the same set's clock).
    #[inline]
    fn age(&self, set: usize, idx: usize) -> u64 {
        self.clock[set].wrapping_sub(self.last_use[idx])
    }
}

impl ReplacementPolicy for AwrpPolicy {
    fn name(&self) -> &str {
        "AWRP"
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        // Minimizing `last_use + bonus` equals minimizing `bonus - age`
        // (the set clock is a common constant), and the age form survives
        // clock wraparound. Ties fall to the lowest way, as the old packed
        // `weight | way` argmin did.
        let base = set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| {
                let bonus =
                    i128::from(self.freq[base + w]) * FREQ_WEIGHT as i128 * self.ways as i128;
                (bonus - i128::from(self.age(set, base + w)), w)
            })
            .expect("ways > 0")
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
        let idx = set * self.ways + way;
        self.freq[idx] = (self.freq[idx] + 1).min(FREQ_MAX);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
        self.freq[set * self.ways + way] = 0;
    }

    fn bits_per_set(&self) -> u64 {
        // Recency ordering at the stack-LRU figure plus the 4-bit
        // frequency counter per line.
        sim_core::overhead::lru_bits_per_set(self.ways) + self.ways as u64 * 4
    }

    // Per-set clocks (see the struct docs): every quantity the victim
    // comparison reads is a function of the set's own access
    // subsequence, so a per-set replay is exact.
    fn shard_affinity(&self) -> ShardAffinity {
        ShardAffinity::SetLocal
    }

    // Behaviour is a function of each line's (age, freq) alone — the raw
    // clock origin cancels out of every comparison — so rebasing
    // timestamps against the set clock is an exact, origin-independent
    // quotient that keeps the checker's reachable space finite.
    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let base = set * self.ways;
        let mut d = Vec::with_capacity(self.ways * 9);
        for w in 0..self.ways {
            d.extend_from_slice(&self.age(set, base + w).to_le_bytes());
            d.push(self.freq[base + w]);
        }
        Some(d)
    }

    fn audit_invariants(&self) -> Result<(), String> {
        if let Some(idx) = self.freq.iter().position(|&f| f > FREQ_MAX) {
            return Err(format!(
                "AWRP frequency counter {} at line {idx} exceeds {FREQ_MAX}",
                self.freq[idx]
            ));
        }
        let ways = self.ways as u64;
        for (set, &clk) in self.clock.iter().enumerate() {
            if clk % ways != 0 {
                return Err(format!(
                    "AWRP clock {clk} in set {set} lost its way alignment"
                ));
            }
            let base = set * self.ways;
            for w in 0..self.ways {
                if self.age(set, base + w) % ways != 0 {
                    return Err(format!(
                        "AWRP timestamp in set {set} way {w} is not stride-aligned \
                         with its set clock"
                    ));
                }
            }
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
    fn degenerates_to_lru_without_hits() {
        let g = CacheGeometry::from_sets(2, 4, 64).unwrap();
        let mut p = AwrpPolicy::new(&g);
        for w in 0..4 {
            p.on_fill(0, w, &ctx());
        }
        p.on_fill(0, 0, &ctx()); // refresh way 0; way 1 is now oldest
        assert_eq!(p.victim(0, &ctx()), 1);
    }

    #[test]
    fn frequency_bonus_outranks_recency() {
        let g = CacheGeometry::from_sets(1, 4, 64).unwrap();
        let mut p = AwrpPolicy::new(&g);
        for w in 0..4 {
            p.on_fill(0, w, &ctx());
        }
        // Way 0 is oldest by recency but earns two hits' worth of bonus
        // (32 touches); ways 1..4 were touched within 3 ticks of it.
        p.on_hit(0, 0, &ctx());
        p.on_hit(0, 0, &ctx());
        let v = p.victim(0, &ctx());
        assert_ne!(v, 0, "frequent way must not be the victim");
        assert_eq!(v, 1, "oldest un-hit way loses");
    }

    #[test]
    fn saturated_frequency_still_ages_out() {
        let g = CacheGeometry::from_sets(1, 2, 64).unwrap();
        let mut p = AwrpPolicy::new(&g);
        p.on_fill(0, 0, &ctx());
        p.on_fill(0, 1, &ctx());
        for _ in 0..100 {
            p.on_hit(0, 0, &ctx()); // freq saturates at FREQ_MAX
        }
        // Touch way 1 often enough that way 0's capped bonus can't save
        // it: the bonus is worth FREQ_MAX * FREQ_WEIGHT = 240 touches.
        for _ in 0..300 {
            p.on_hit(0, 1, &ctx());
        }
        assert_eq!(p.victim(0, &ctx()), 0, "stale hot block must expire");
    }

    #[test]
    fn refill_resets_the_bonus() {
        let g = CacheGeometry::from_sets(1, 2, 64).unwrap();
        let mut p = AwrpPolicy::new(&g);
        p.on_fill(0, 0, &ctx());
        for _ in 0..5 {
            p.on_hit(0, 0, &ctx());
        }
        p.on_fill(0, 0, &ctx()); // new tenant, no inherited credit
        p.on_fill(0, 1, &ctx());
        p.on_hit(0, 1, &ctx());
        assert_eq!(p.victim(0, &ctx()), 0);
    }

    #[test]
    fn sets_do_not_interfere() {
        let g = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let mut p = AwrpPolicy::new(&g);
        p.on_fill(0, 0, &ctx());
        p.on_fill(1, 0, &ctx());
        p.on_fill(0, 1, &ctx());
        p.on_fill(1, 1, &ctx());
        p.on_hit(0, 0, &ctx());
        assert_eq!(p.victim(0, &ctx()), 1);
        assert_eq!(p.victim(1, &ctx()), 0);
    }

    #[test]
    fn cache_scan_keeps_the_hot_block() {
        // A 4-way set holds one block hit repeatedly plus a scan: AWRP
        // keeps the hot block where LRU would have evicted it.
        let g = CacheGeometry::from_sets(1, 4, 64).unwrap();
        let mut c = SetAssocCache::new(g, Box::new(AwrpPolicy::new(&g)));
        c.access_block(100, &ctx());
        for _ in 0..4 {
            c.access_block(100, &ctx());
        }
        for blk in 0..8u64 {
            c.access_block(blk, &ctx());
        }
        let out = c.access_block(100, &ctx());
        assert!(out.hit, "hot block survived the scan");
    }

    #[test]
    fn storage_accounting() {
        let g = CacheGeometry::from_sets(4, 16, 64).unwrap();
        let p = AwrpPolicy::new(&g);
        assert_eq!(
            p.bits_per_set(),
            sim_core::overhead::lru_bits_per_set(16) + 64
        );
        assert_eq!(p.global_bits(), 0);
        assert_eq!(p.shard_affinity(), ShardAffinity::SetLocal);
    }
}

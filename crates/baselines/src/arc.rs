//! ARC-style adaptive replacement (Megiddo & Modha, FAST 2003; analysed
//! in arXiv 1503.07624).
//!
//! ARC splits each set's residents into a recency list T1 (touched
//! once since fill) and a frequency list T2 (touched again), shadowed
//! by ghost lists B1/B2 remembering recently evicted block addresses
//! from each side. A ghost hit is evidence the corresponding list was
//! sized too small, and nudges a single adaptation target `p` — the
//! desired T1 share — which the victim rule then chases: evict from T1
//! while it exceeds `p` ways, from T2 otherwise. The original operates
//! on a fully-associative store; this baseline scopes the lists per set
//! (capacity = associativity) and keeps `p` cache-global, which is what
//! makes it [`ShardAffinity::Global`]: ghost hits in any set move the
//! target every other set duels against.

#![forbid(unsafe_code)]

use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy};

/// Fixed-point scale for the adaptation target `p` (per-set T1 ways).
const P_SCALE: u64 = 16;

/// Which resident list a line is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    T1,
    T2,
}

/// Per-set ARC state: the two resident lists (way indices, MRU first)
/// and the two ghost lists (block addresses, MRU first, capped at
/// `ways`).
#[derive(Debug, Clone, Default)]
struct SetLists {
    t1: Vec<usize>,
    t2: Vec<usize>,
    b1: Vec<u64>,
    b2: Vec<u64>,
}

impl SetLists {
    fn drop_way(&mut self, way: usize) -> Option<List> {
        if let Some(i) = self.t1.iter().position(|&w| w == way) {
            self.t1.remove(i);
            return Some(List::T1);
        }
        if let Some(i) = self.t2.iter().position(|&w| w == way) {
            self.t2.remove(i);
            return Some(List::T2);
        }
        None
    }
}

/// ARC with per-set lists and one global adaptation target.
///
/// The policy keeps its own copy of each line's block address (written
/// in `on_fill` from the access context) because the eviction callback
/// only names the way, and the ghost lists need the address.
#[derive(Debug, Clone)]
pub struct ArcPolicy {
    geom: CacheGeometry,
    ways: usize,
    lists: Vec<SetLists>,
    blocks: Vec<u64>,
    /// T1 target in [`P_SCALE`]-ths of a way, in `0..=ways * P_SCALE`.
    p: u64,
    /// Set in `on_miss` on a ghost hit; routes the following fill to T2.
    fill_to_t2: bool,
    /// Seeded-defect switch: skip the upper clamp when growing `p`.
    poison_p_clamp: bool,
}

impl ArcPolicy {
    /// Creates ARC for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        ArcPolicy {
            geom: *geom,
            ways: geom.ways(),
            lists: vec![SetLists::default(); geom.sets()],
            blocks: vec![0; geom.sets() * geom.ways()],
            p: 0,
            fill_to_t2: false,
            poison_p_clamp: false,
        }
    }

    /// The current T1 target in ways (diagnostic aid; truncating).
    pub fn t1_target(&self) -> u64 {
        self.p / P_SCALE
    }

    /// Disables the upper clamp on the adaptation target `p`, so repeated
    /// B1 ghost hits push it past `ways * P_SCALE`. This is a *seeded
    /// defect* used to prove the bounded model checker catches broken `p`
    /// updates; it exercises the production `on_miss` path with only the
    /// clamp removed.
    #[doc(hidden)]
    pub fn poison_p_clamp(&mut self) {
        self.poison_p_clamp = true;
    }
}

impl ReplacementPolicy for ArcPolicy {
    fn name(&self) -> &str {
        "ARC"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        let s = &self.lists[set];
        // REPLACE: shed T1 while it holds more than the target share (or
        // T2 has nothing to give); otherwise shed T2. Victims come from
        // each list's LRU end.
        let from_t1 = !s.t1.is_empty() && (s.t2.is_empty() || s.t1.len() as u64 * P_SCALE > self.p);
        let list = if from_t1 { &s.t1 } else { &s.t2 };
        *list
            .last()
            .expect("victim asked of a set with no residents")
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        // Any reuse promotes to T2's MRU position.
        let s = &mut self.lists[set];
        s.drop_way(way);
        s.t2.insert(0, way);
    }

    fn on_miss(&mut self, set: usize, ctx: &AccessContext) {
        let block = self.geom.block_of(ctx.addr);
        let s = &mut self.lists[set];
        if let Some(i) = s.b1.iter().position(|&b| b == block) {
            // Recency ghost hit: T1 was too small — grow the target.
            s.b1.remove(i);
            let step = (s.b2.len() as u64 / s.b1.len().max(1) as u64).max(1);
            self.p = if self.poison_p_clamp {
                self.p + step * P_SCALE
            } else {
                (self.p + step * P_SCALE).min(self.ways as u64 * P_SCALE)
            };
            self.fill_to_t2 = true;
        } else if let Some(i) = s.b2.iter().position(|&b| b == block) {
            // Frequency ghost hit: T2 was too small — shrink the target.
            s.b2.remove(i);
            let step = (s.b1.len() as u64 / s.b2.len().max(1) as u64).max(1);
            self.p = self.p.saturating_sub(step * P_SCALE);
            self.fill_to_t2 = true;
        } else {
            self.fill_to_t2 = false;
        }
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let block = self.blocks[set * self.ways + way];
        let s = &mut self.lists[set];
        let (ghost, cap) = match s.drop_way(way) {
            Some(List::T2) => (&mut s.b2, self.ways),
            // T1 members and (defensively) untracked ways ghost into B1.
            _ => (&mut s.b1, self.ways),
        };
        ghost.insert(0, block);
        ghost.truncate(cap);
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        self.blocks[set * self.ways + way] = self.geom.block_of(ctx.addr);
        let to_t2 = std::mem::take(&mut self.fill_to_t2);
        let s = &mut self.lists[set];
        s.drop_way(way);
        if to_t2 {
            s.t2.insert(0, way);
        } else {
            s.t1.insert(0, way);
        }
    }

    fn bits_per_set(&self) -> u64 {
        // List id + position per line at the stack-LRU figure, plus two
        // ghost lists of `ways` 16-bit compressed tags each (a hardware
        // ARC would store partial tags; the simulator's full addresses
        // are a modelling convenience, not accounted storage).
        self.ways as u64
            + sim_core::overhead::lru_bits_per_set(self.ways)
            + 2 * self.ways as u64 * 16
    }

    fn global_bits(&self) -> u64 {
        // The adaptation target.
        16
    }

    // One global `p` trained by every set's ghost hits: splitting the
    // stream by set would split the adaptation stream. Default ShardAffinity::Global is
    // correct and load-bearing.

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let s = &self.lists[set];
        let mut d = Vec::new();
        // Resident lists with their block addresses (only resident ways'
        // `blocks` entries are behaviourally live — evicted ways keep a
        // stale copy that the next fill overwrites before any read).
        for list in [&s.t1, &s.t2] {
            for &w in list {
                d.push(w as u8);
                d.extend_from_slice(&self.blocks[set * self.ways + w].to_le_bytes());
            }
            d.push(0xff);
        }
        for ghost in [&s.b1, &s.b2] {
            for &b in ghost {
                d.extend_from_slice(&b.to_le_bytes());
            }
            d.push(0xff);
        }
        Some(d)
    }

    fn audit_global_digest(&self) -> Vec<u8> {
        let mut d = self.p.to_le_bytes().to_vec();
        d.push(u8::from(self.fill_to_t2));
        d
    }

    fn audit_invariants(&self) -> Result<(), String> {
        let cap = self.ways as u64 * P_SCALE;
        if self.p > cap {
            return Err(format!(
                "ARC adaptation target p = {} exceeds {cap} (ways * P_SCALE)",
                self.p
            ));
        }
        for (set, s) in self.lists.iter().enumerate() {
            if s.b1.len() > self.ways || s.b2.len() > self.ways {
                return Err(format!(
                    "ARC ghost lists in set {set} exceed capacity {}: |B1| = {}, |B2| = {}",
                    self.ways,
                    s.b1.len(),
                    s.b2.len()
                ));
            }
            if s.t1.len() + s.t2.len() > self.ways {
                return Err(format!(
                    "ARC resident lists in set {set} exceed {} ways",
                    self.ways
                ));
            }
            let mut seen = vec![false; self.ways];
            for &w in s.t1.iter().chain(&s.t2) {
                if w >= self.ways {
                    return Err(format!("ARC way {w} in set {set} is out of range"));
                }
                if seen[w] {
                    return Err(format!(
                        "ARC way {w} in set {set} appears on T1/T2 more than once"
                    ));
                }
                seen[w] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{Access, SetAssocCache, ShardAffinity};

    fn geom(sets: usize, ways: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, ways, 64).unwrap()
    }

    fn cache(sets: usize, ways: usize) -> SetAssocCache {
        let g = geom(sets, ways);
        SetAssocCache::new(g, Box::new(ArcPolicy::new(&g)))
    }

    fn rd(blk: u64) -> AccessContext {
        Access::read(blk * 64, 0).context()
    }

    #[test]
    fn single_touch_blocks_stay_in_t1_and_evict_first() {
        // Fill a 4-way set, re-touch two blocks (→ T2), then force an
        // eviction: a T1 (single-touch) block must go, and of those the
        // older one.
        let mut c = cache(1, 4);
        for b in 0..4u64 {
            c.access_block(b, &rd(b));
        }
        c.access_block(0, &rd(0));
        c.access_block(1, &rd(1));
        let out = c.access_block(10, &rd(10));
        assert_eq!(out.evicted.unwrap().block_addr, 2, "T1 LRU evicts first");
    }

    #[test]
    fn ghost_hit_routes_refill_to_t2_and_moves_p() {
        let g = geom(1, 2);
        let mut p = ArcPolicy::new(&g);
        // Fill 0,1; evict 0 (a T1 member → ghost B1); refill 0.
        p.on_fill(0, 0, &rd(0));
        p.on_fill(0, 1, &rd(1));
        p.on_evict(0, 0);
        assert_eq!(p.lists[0].b1, vec![0]);
        p.on_miss(0, &rd(0));
        assert!(p.t1_target() >= 1, "B1 hit grows the T1 target");
        p.on_fill(0, 0, &rd(0));
        assert_eq!(p.lists[0].t2, vec![0], "ghost-hit refill lands in T2");
        assert_eq!(p.lists[0].t1, vec![1]);
    }

    #[test]
    fn b2_ghost_hit_shrinks_p() {
        let g = geom(1, 2);
        let mut p = ArcPolicy::new(&g);
        p.p = 2 * P_SCALE;
        p.on_fill(0, 0, &rd(0));
        p.on_hit(0, 0, &rd(0)); // way 0 → T2
        p.on_evict(0, 0);
        assert_eq!(p.lists[0].b2, vec![0]);
        p.on_miss(0, &rd(0));
        assert!(p.p < 2 * P_SCALE, "B2 hit shrinks the T1 target");
    }

    #[test]
    fn loop_plus_scan_prefers_the_loop() {
        // A small loop re-touched every round (T2 material) survives a
        // long scan of single-touch blocks, which ARC confines to T1.
        let mut c = cache(16, 4);
        let loop_blocks: Vec<u64> = (0..32).collect();
        let mut scan = 1 << 20;
        for _ in 0..40 {
            for &b in &loop_blocks {
                c.access_block(b, &rd(b));
            }
            for _ in 0..64 {
                c.access_block(scan, &rd(scan));
                scan += 1;
            }
        }
        let before = c.stats().hits;
        for &b in &loop_blocks {
            c.access_block(b, &rd(b));
        }
        assert!(
            c.stats().hits - before >= 24,
            "loop working set largely resident, got {} of 32",
            c.stats().hits - before
        );
    }

    #[test]
    fn resident_lists_always_partition_the_set() {
        let mut c = cache(4, 4);
        let mut x = 7u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.access_block(x % 64, &rd(x % 64));
        }
        // Reach into the policy via a fresh replay to check invariants.
        let g = geom(4, 4);
        let mut p = ArcPolicy::new(&g);
        let mut filled = [0usize; 4];
        let mut x = 7u64;
        let mut resident: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let blk = x % 64;
            let set = g.set_of_block(blk);
            let ctx = rd(blk);
            if let Some(w) = resident[set].iter().position(|&b| b == blk) {
                p.on_hit(set, w, &ctx);
            } else {
                p.on_miss(set, &ctx);
                let w = if filled[set] < 4 {
                    resident[set].push(blk);
                    filled[set] += 1;
                    filled[set] - 1
                } else {
                    let w = p.victim(set, &ctx);
                    p.on_evict(set, w);
                    resident[set][w] = blk;
                    w
                };
                p.on_fill(set, w, &ctx);
            }
            let s = &p.lists[set];
            assert_eq!(s.t1.len() + s.t2.len(), filled[set]);
            for w in 0..filled[set] {
                assert_eq!(
                    s.t1.contains(&w) as usize + s.t2.contains(&w) as usize,
                    1,
                    "way {w} must be on exactly one list"
                );
            }
            assert!(s.b1.len() <= 4 && s.b2.len() <= 4);
            assert!(p.p <= 4 * P_SCALE);
        }
    }

    #[test]
    fn declared_shape_and_storage() {
        let g = geom(4, 16);
        let p = ArcPolicy::new(&g);
        assert_eq!(p.shard_affinity(), ShardAffinity::Global);
        assert_eq!(p.global_bits(), 16);
        assert_eq!(
            p.bits_per_set(),
            16 + sim_core::overhead::lru_bits_per_set(16) + 2 * 16 * 16
        );
    }
}

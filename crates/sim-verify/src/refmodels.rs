//! Naive reference implementations of the replacement state machines.
//!
//! Each type here re-derives its optimized counterpart's behaviour from the
//! paper's *specification*, using a deliberately different representation:
//!
//! * [`MirrorTree`] (from `sim-lint`) keeps one `bool` per tree node
//!   instead of packed `u64` bits, and derives positions by walking
//!   root → leaf (the optimized [`gippr::PlruTree`] walks leaf → root).
//! * [`RefRecencyStack`] keeps the MRU→LRU *ordering* as a list of ways
//!   (the optimized [`gippr::RecencyStack`] stores each way's integer
//!   position), so its shifting semantics fall out of `remove`/`insert`.
//! * [`RefLru`] orders ways by recency rather than comparing timestamps.
//! * [`RefAwrp`] re-derives the weight ranking in per-set touch units
//!   instead of the optimized way-packed, `ways`-strided clock.
//! * [`RefFifo`], [`RefSrrip`], and [`RefPdp`] are clarity-first ports of
//!   the published policy descriptions.
//! * [`RefPlruPolicy`], [`RefGippr`], and [`RefGiplr`] drive the naive
//!   structures through the [`ReplacementPolicy`] interface.

use gippr::Ipv;
use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy};
use sim_lint::{MirrorTree, PlruState};

/// A recency stack represented as the explicit MRU→LRU ordering of ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRecencyStack {
    /// `order[p]` is the way at position `p` (0 = MRU).
    order: Vec<usize>,
}

impl RefRecencyStack {
    /// Creates a stack where way `w` starts at position `w`.
    pub fn new(ways: usize) -> Self {
        assert!((2..=64).contains(&ways), "2..=64 ways, got {ways}");
        RefRecencyStack {
            order: (0..ways).collect(),
        }
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.order.len()
    }

    /// The position of `way` (0 = MRU).
    pub fn position(&self, way: usize) -> usize {
        self.order
            .iter()
            .position(|&w| w == way)
            .expect("every way appears in the ordering")
    }

    /// The way currently at `pos`.
    pub fn way_at(&self, pos: usize) -> usize {
        self.order[pos]
    }

    /// The way at the LRU position.
    pub fn lru_way(&self) -> usize {
        *self.order.last().expect("ways > 0")
    }

    /// Moves `way` to `target`; everything between slides over by one.
    pub fn move_to(&mut self, way: usize, target: usize) {
        assert!(target < self.ways(), "target {target} out of range");
        let current = self.position(way);
        self.order.remove(current);
        self.order.insert(target, way);
    }

    /// All positions, indexed by way.
    pub fn positions(&self) -> Vec<usize> {
        let mut by_way = vec![0; self.ways()];
        for (p, &w) in self.order.iter().enumerate() {
            by_way[w] = p;
        }
        by_way
    }
}

/// Reference true LRU: per-set MRU→LRU lists of *touched* ways.
///
/// Untouched ways sort before touched ones (they are infinitely old), ties
/// among them broken toward the lowest way index — matching the optimized
/// timestamp implementation's zero-initialized clock and way-packed `min`.
pub struct RefLru {
    /// Per-set list of touched ways, most recent first.
    recency: Vec<Vec<usize>>,
    ways: usize,
}

impl RefLru {
    /// Creates the reference LRU policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefLru {
            recency: vec![Vec::new(); geom.sets()],
            ways: geom.ways(),
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let list = &mut self.recency[set];
        list.retain(|&w| w != way);
        list.insert(0, way);
    }
}

impl ReplacementPolicy for RefLru {
    fn name(&self) -> &str {
        "ref-LRU"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        let list = &self.recency[set];
        match (0..self.ways).find(|w| !list.contains(w)) {
            Some(untouched) => untouched,
            None => *list.last().expect("set is full"),
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::lru_bits_per_set(self.ways)
    }
}

/// Reference AWRP: weight ranking re-derived in per-set *touch units*.
///
/// Where the optimized [`baselines::AwrpPolicy`] scales a per-set clock
/// by the associativity so it can pack way indices into timestamp low
/// bits, this model counts the set's touches directly (1 per touch) and
/// takes an explicit `min_by_key` over `(last_touch + FREQ_WEIGHT ×
/// freq, way)`. Untouched ways keep `(0, 0)` — infinitely old, ties to
/// the lowest way — matching the optimized zero-initialized state.
pub struct RefAwrp {
    ways: usize,
    touches: Vec<u64>,
    last_touch: Vec<Vec<u64>>,
    freq: Vec<Vec<u8>>,
}

impl RefAwrp {
    /// Creates the reference AWRP policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefAwrp {
            ways: geom.ways(),
            touches: vec![0; geom.sets()],
            last_touch: vec![vec![0; geom.ways()]; geom.sets()],
            freq: vec![vec![0; geom.ways()]; geom.sets()],
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.touches[set] += 1;
        self.last_touch[set][way] = self.touches[set];
    }
}

impl ReplacementPolicy for RefAwrp {
    fn name(&self) -> &str {
        "ref-AWRP"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        (0..self.ways)
            .min_by_key(|&w| {
                (
                    self.last_touch[set][w]
                        + u64::from(self.freq[set][w]) * baselines::awrp::FREQ_WEIGHT,
                    w,
                )
            })
            .expect("ways > 0")
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
        let f = &mut self.freq[set][way];
        *f = (*f + 1).min(baselines::awrp::FREQ_MAX);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
        self.freq[set][way] = 0;
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::lru_bits_per_set(self.ways) + self.ways as u64 * 4
    }

    fn shard_affinity(&self) -> sim_core::ShardAffinity {
        sim_core::ShardAffinity::SetLocal
    }
}

/// Reference FIFO: a per-set round-robin pointer, advanced only when a fill
/// consumes the pointed-to way (cold fills land in way order already).
pub struct RefFifo {
    next: Vec<usize>,
    ways: usize,
}

impl RefFifo {
    /// Creates the reference FIFO policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefFifo {
            next: vec![0; geom.sets()],
            ways: geom.ways(),
        }
    }
}

impl ReplacementPolicy for RefFifo {
    fn name(&self) -> &str {
        "ref-FIFO"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.next[set]
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessContext) {}

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        if self.next[set] == way {
            self.next[set] = (way + 1) % self.ways;
        }
    }

    fn bits_per_set(&self) -> u64 {
        u64::from(self.ways.trailing_zeros())
    }
}

/// Reference SRRIP (Jaleel et al., ISCA 2010) with 2-bit RRPVs: insert at
/// "long" (`max - 1`), promote hits to 0, victimize the first way at `max`,
/// aging everyone until one exists. Invalid lines start at `max`.
pub struct RefSrrip {
    rrpv: Vec<Vec<u8>>,
    max: u8,
    ways: usize,
}

impl RefSrrip {
    /// Creates the reference SRRIP policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        let max = (1u8 << baselines::rrip::RRPV_BITS) - 1;
        RefSrrip {
            rrpv: vec![vec![max; geom.ways()]; geom.sets()],
            max,
            ways: geom.ways(),
        }
    }
}

impl ReplacementPolicy for RefSrrip {
    fn name(&self) -> &str {
        "ref-SRRIP"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        loop {
            if let Some(w) = (0..self.ways).find(|&w| self.rrpv[set][w] == self.max) {
                return w;
            }
            for w in 0..self.ways {
                self.rrpv[set][w] += 1;
            }
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.rrpv[set][way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.rrpv[set][way] = self.max - 1;
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::rrip_bits_per_set(self.ways, baselines::rrip::RRPV_BITS)
    }
}

/// Reference plain tree PseudoLRU over [`MirrorTree`]s.
pub struct RefPlruPolicy {
    trees: Vec<MirrorTree>,
}

impl RefPlruPolicy {
    /// Creates the reference PLRU policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefPlruPolicy {
            trees: vec![MirrorTree::new(geom.ways()); geom.sets()],
        }
    }
}

impl ReplacementPolicy for RefPlruPolicy {
    fn name(&self) -> &str {
        "ref-PseudoLRU"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.trees[set].victim()
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.trees[set].set_position(way, 0);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.trees[set].set_position(way, 0);
    }

    fn bits_per_set(&self) -> u64 {
        self.trees[0].ways() as u64 - 1
    }
}

/// Reference GIPPR: [`MirrorTree`]s driven by an insertion/promotion
/// vector — a hit at position `p` moves to `V[p]`, a fill lands at `V[k]`.
pub struct RefGippr {
    ipv: Ipv,
    trees: Vec<MirrorTree>,
}

impl RefGippr {
    /// Creates the reference GIPPR policy; `ipv` must match `geom.ways()`.
    pub fn new(geom: &CacheGeometry, ipv: Ipv) -> Self {
        assert_eq!(ipv.assoc(), geom.ways(), "vector/geometry mismatch");
        RefGippr {
            ipv,
            trees: vec![MirrorTree::new(geom.ways()); geom.sets()],
        }
    }
}

impl ReplacementPolicy for RefGippr {
    fn name(&self) -> &str {
        "ref-GIPPR"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.trees[set].victim()
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let pos = self.trees[set].position(way);
        self.trees[set].set_position(way, self.ipv.promotion(pos));
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.trees[set].set_position(way, self.ipv.insertion());
    }

    fn bits_per_set(&self) -> u64 {
        self.trees[0].ways() as u64 - 1
    }
}

/// Reference GIPLR: [`RefRecencyStack`]s driven by an insertion/promotion
/// vector with true-LRU shifting semantics.
pub struct RefGiplr {
    ipv: Ipv,
    stacks: Vec<RefRecencyStack>,
}

impl RefGiplr {
    /// Creates the reference GIPLR policy; `ipv` must match `geom.ways()`.
    pub fn new(geom: &CacheGeometry, ipv: Ipv) -> Self {
        assert_eq!(ipv.assoc(), geom.ways(), "vector/geometry mismatch");
        RefGiplr {
            ipv,
            stacks: vec![RefRecencyStack::new(geom.ways()); geom.sets()],
        }
    }
}

impl ReplacementPolicy for RefGiplr {
    fn name(&self) -> &str {
        "ref-GIPLR"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.stacks[set].lru_way()
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let pos = self.stacks[set].position(way);
        self.stacks[set].move_to(way, self.ipv.promotion(pos));
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.stacks[set].move_to(way, self.ipv.insertion());
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::lru_bits_per_set(self.stacks[0].ways())
    }
}

/// Reference PDP (Duong et al., MICRO 2012), no-bypass configuration.
///
/// Same specification as [`baselines::PdpPolicy`] — reuse-distance sampler,
/// periodic protecting-distance recomputation, quantized per-set decay —
/// written with per-set `Vec`s and explicit loops rather than flat arrays.
pub struct RefPdp {
    cfg: baselines::PdpConfig,
    ways: usize,
    line_shift: u32,
    /// Per-set remaining protecting distance, per way.
    rpd: Vec<Vec<u8>>,
    /// Per-set reuse bit, per way.
    reused: Vec<Vec<bool>>,
    rpd_max: u8,
    tick: Vec<u8>,
    quantum: u8,
    hist: Vec<u64>,
    total_sampled: u64,
    /// Per sampled set: FIFO of (tag, last access count) pairs.
    sampler: Vec<Vec<(u64, u64)>>,
    set_access_count: Vec<u64>,
    accesses: u64,
    pd: usize,
}

impl RefPdp {
    /// Creates the reference PDP policy with default configuration.
    pub fn new(geom: &CacheGeometry) -> Self {
        let cfg = baselines::PdpConfig::default();
        let rpd_max = ((1u16 << cfg.rpd_bits) - 1) as u8;
        let sampled_sets = geom.sets().div_ceil(cfg.sampler_stride);
        let mut p = RefPdp {
            cfg,
            ways: geom.ways(),
            line_shift: geom.line_bytes().trailing_zeros(),
            rpd: vec![vec![0; geom.ways()]; geom.sets()],
            reused: vec![vec![false; geom.ways()]; geom.sets()],
            rpd_max,
            tick: vec![0; geom.sets()],
            quantum: 1,
            hist: vec![0; cfg.max_distance],
            total_sampled: 0,
            sampler: vec![Vec::new(); sampled_sets],
            set_access_count: vec![0; sampled_sets],
            accesses: 0,
            pd: cfg.initial_pd,
        };
        p.quantum = p.quantum_for(p.pd);
        p
    }

    /// Whether a line's remaining protecting distance is nonzero.
    pub fn is_protected(&self, set: usize, way: usize) -> bool {
        self.rpd[set][way] != 0
    }

    fn quantum_for(&self, pd: usize) -> u8 {
        pd.max(1).div_ceil(usize::from(self.rpd_max)).min(255) as u8
    }

    fn compute_pd(&self) -> usize {
        if self.total_sampled == 0 {
            return self.cfg.initial_pd;
        }
        let mut best_d = 1;
        let mut best_e = 0.0f64;
        let mut hits: u64 = 0;
        let mut weighted: u64 = 0;
        for d in 1..=self.cfg.max_distance {
            let n = self.hist[d - 1];
            hits += n;
            weighted += n * d as u64;
            let occupancy = weighted + (self.total_sampled - hits) * d as u64;
            if occupancy == 0 {
                continue;
            }
            let e = hits as f64 / occupancy as f64;
            if e > best_e {
                best_e = e;
                best_d = d;
            }
        }
        best_d
    }

    fn sample(&mut self, set: usize, ctx: &AccessContext) {
        if set % self.cfg.sampler_stride != 0 {
            return;
        }
        let idx = set / self.cfg.sampler_stride;
        self.set_access_count[idx] += 1;
        let now = self.set_access_count[idx];
        let tag = ctx.addr >> self.line_shift;
        let entries = &mut self.sampler[idx];
        if let Some(e) = entries.iter_mut().find(|e| e.0 == tag) {
            let rd = (now - e.1) as usize;
            let bucket = rd.clamp(1, self.cfg.max_distance) - 1;
            self.hist[bucket] += 1;
            self.total_sampled += 1;
            e.1 = now;
        } else {
            if entries.len() == self.cfg.sampler_depth {
                entries.remove(0);
            }
            entries.push((tag, now));
        }
    }

    fn on_any_access(&mut self, set: usize, ctx: &AccessContext) {
        self.sample(set, ctx);
        self.accesses += 1;
        if self.accesses % self.cfg.compute_period == 0 {
            self.pd = self.compute_pd();
            self.quantum = self.quantum_for(self.pd);
            for h in &mut self.hist {
                *h /= 2;
            }
            self.total_sampled /= 2;
        }
        self.tick[set] += 1;
        if self.tick[set] >= self.quantum {
            self.tick[set] = 0;
            for w in 0..self.ways {
                self.rpd[set][w] = self.rpd[set][w].saturating_sub(1);
            }
        }
    }
}

impl ReplacementPolicy for RefPdp {
    fn name(&self) -> &str {
        "ref-PDP"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        if let Some(w) = (0..self.ways).find(|&w| self.rpd[set][w] == 0) {
            return w;
        }
        (0..self.ways)
            .max_by_key(|&w| (!self.reused[set][w], self.rpd[set][w]))
            .expect("ways > 0")
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        self.on_any_access(set, ctx);
        self.rpd[set][way] = self.rpd_max;
        self.reused[set][way] = true;
    }

    fn on_miss(&mut self, set: usize, ctx: &AccessContext) {
        self.on_any_access(set, ctx);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.rpd[set][way] = self.rpd_max;
        self.reused[set][way] = false;
    }

    fn bits_per_set(&self) -> u64 {
        self.ways as u64 * (u64::from(self.cfg.rpd_bits) + 1) + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_stack_matches_documented_shifts() {
        let mut s = RefRecencyStack::new(4);
        s.move_to(2, 0);
        assert_eq!(s.positions(), vec![1, 2, 0, 3]);
        s.move_to(0, 3);
        assert_eq!(s.position(0), 3);
    }

    #[test]
    fn ref_lru_prefers_untouched_then_oldest() {
        let g = CacheGeometry::from_sets(2, 4, 64).unwrap();
        let mut p = RefLru::new(&g);
        let ctx = AccessContext::blank();
        p.on_fill(0, 2, &ctx);
        assert_eq!(p.victim(0, &ctx), 0, "lowest untouched way first");
        for w in [0usize, 1, 3] {
            p.on_fill(0, w, &ctx);
        }
        assert_eq!(p.victim(0, &ctx), 2, "way 2 is now the oldest touch");
    }
}

//! DGIPPR: dynamic GIPPR via set-dueling among evolved IPVs (Section 3.5).

use crate::ipv::Ipv;
use crate::plru::PlruTree;
use sim_core::dueling::{DuelController, DuelingError};
use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy};
use std::error::Error;
use std::fmt;

/// Number of leader sets dedicated to each candidate vector.
pub const DEFAULT_LEADERS_PER_VECTOR: usize = 32;

/// PSEL counter width used by the paper (Section 3.6: 11-bit counters).
pub const PSEL_BITS: u32 = 11;

/// Error constructing a [`DgipprPolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DgipprError {
    /// The number of candidate vectors must be 2 or 4.
    BadVectorCount(usize),
    /// A vector's associativity differs from the cache's.
    AssocMismatch {
        /// Index of the offending vector.
        index: usize,
        /// Its associativity.
        got: usize,
        /// The cache's associativity.
        expected: usize,
    },
    /// The dueling configuration could not be built.
    Dueling(DuelingError),
}

impl fmt::Display for DgipprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgipprError::BadVectorCount(n) => {
                write!(f, "DGIPPR duels between 2 or 4 vectors, got {n}")
            }
            DgipprError::AssocMismatch {
                index,
                got,
                expected,
            } => {
                write!(
                    f,
                    "vector {index} targets {got} ways but the cache has {expected}"
                )
            }
            DgipprError::Dueling(e) => write!(f, "dueling setup failed: {e}"),
        }
    }
}

impl Error for DgipprError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DgipprError::Dueling(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DuelingError> for DgipprError {
    fn from(e: DuelingError) -> Self {
        DgipprError::Dueling(e)
    }
}

/// Dynamic GIPPR: set-dueling among 2 (`2-DGIPPR`) or 4 (`4-DGIPPR`)
/// insertion/promotion vectors on shared PLRU state.
///
/// Per the paper:
///
/// * leader sets always apply their own candidate vector; follower sets
///   apply the current winner;
/// * a miss in a leader set feeds the PSEL counters (one 11-bit counter for
///   two vectors; two pair counters plus a meta counter for four);
/// * there is only **one** set of PseudoLRU bits per cache set regardless of
///   how many vectors duel, so storage stays at `k - 1` bits per set plus
///   11 or 33 counter bits for the whole cache.
///
/// # Example
///
/// ```
/// use gippr::{DgipprPolicy, vectors};
/// use sim_core::{CacheGeometry, ReplacementPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geom = CacheGeometry::new(4 * 1024 * 1024, 16, 64)?;
/// let two = DgipprPolicy::two_vector(&geom, vectors::wi_2dgippr())?;
/// assert_eq!(two.global_bits(), 11);
/// let four = DgipprPolicy::four_vector(&geom, vectors::wi_4dgippr())?;
/// assert_eq!(four.global_bits(), 33);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DgipprPolicy {
    vectors: Vec<Ipv>,
    trees: Vec<PlruTree>,
    duel: DuelController,
    /// Optional bypass duel (paper future-work item 1): when enabled, a
    /// second set-duel decides whether blocks that the active vector would
    /// insert at the PLRU position should bypass the cache entirely.
    bypass_duel: Option<DuelController>,
    /// PSEL counter width configured at construction; [`Self::with_bypass`]
    /// builds its duel at the same width so ablation sweeps vary both.
    psel_bits: u32,
    name: String,
}

impl DgipprPolicy {
    /// Creates a 2-vector DGIPPR with the paper's defaults (32 leader sets
    /// per vector, 11-bit PSEL).
    ///
    /// # Errors
    ///
    /// Returns [`DgipprError`] on associativity mismatch or an infeasible
    /// dueling layout.
    pub fn two_vector(geom: &CacheGeometry, vectors: [Ipv; 2]) -> Result<Self, DgipprError> {
        Self::with_config(
            geom,
            vectors.to_vec(),
            DEFAULT_LEADERS_PER_VECTOR,
            "2-DGIPPR",
        )
    }

    /// Creates a 4-vector DGIPPR with the paper's defaults.
    ///
    /// # Errors
    ///
    /// Returns [`DgipprError`] on associativity mismatch or an infeasible
    /// dueling layout.
    pub fn four_vector(geom: &CacheGeometry, vectors: [Ipv; 4]) -> Result<Self, DgipprError> {
        Self::with_config(
            geom,
            vectors.to_vec(),
            DEFAULT_LEADERS_PER_VECTOR,
            "4-DGIPPR",
        )
    }

    /// Fully configurable constructor.
    ///
    /// # Errors
    ///
    /// Returns [`DgipprError::BadVectorCount`] unless 2 or 4 vectors are
    /// given, [`DgipprError::AssocMismatch`] if any vector does not match
    /// the geometry, or [`DgipprError::Dueling`] if the leader layout does
    /// not fit the set count.
    pub fn with_config(
        geom: &CacheGeometry,
        vectors: Vec<Ipv>,
        leaders_per_vector: usize,
        name: &str,
    ) -> Result<Self, DgipprError> {
        Self::with_full_config(geom, vectors, leaders_per_vector, PSEL_BITS, name)
    }

    /// Like [`DgipprPolicy::with_config`] with an explicit PSEL counter
    /// width (the paper uses 11 bits; the ablation harness sweeps this).
    ///
    /// # Errors
    ///
    /// Same as [`DgipprPolicy::with_config`].
    pub fn with_full_config(
        geom: &CacheGeometry,
        vectors: Vec<Ipv>,
        leaders_per_vector: usize,
        psel_bits: u32,
        name: &str,
    ) -> Result<Self, DgipprError> {
        if vectors.len() != 2 && vectors.len() != 4 {
            return Err(DgipprError::BadVectorCount(vectors.len()));
        }
        for (index, v) in vectors.iter().enumerate() {
            if v.assoc() != geom.ways() {
                return Err(DgipprError::AssocMismatch {
                    index,
                    got: v.assoc(),
                    expected: geom.ways(),
                });
            }
        }
        let duel = if vectors.len() == 2 {
            DuelController::two(geom.sets(), leaders_per_vector, psel_bits)?
        } else {
            DuelController::four(geom.sets(), leaders_per_vector, psel_bits)?
        };
        Ok(DgipprPolicy {
            vectors,
            trees: vec![PlruTree::new(geom.ways()); geom.sets()],
            duel,
            bypass_duel: None,
            psel_bits,
            name: name.to_string(),
        })
    }

    /// Enables the bypass extension (paper Section 7, future-work item 1:
    /// "combining DGIPPR with a predictor that decides whether a block
    /// should bypass the cache").
    ///
    /// A second set-duel compares *bypassing* incoming blocks that the
    /// active vector would insert at the PLRU position (i.e. blocks the
    /// vector already predicts dead on arrival) against inserting them
    /// normally; followers adopt whichever side misses less. Costs one
    /// extra PSEL counter at the width configured at construction (11 bits
    /// at the paper's default). Note that bypass violates inclusion, so this
    /// configuration models a non-inclusive LLC (the same caveat the paper
    /// raises for PDP-with-bypass).
    ///
    /// # Errors
    ///
    /// Returns [`DgipprError::Dueling`] if the geometry cannot host the
    /// extra leader layout.
    pub fn with_bypass(mut self, leaders_per_side: usize) -> Result<Self, DgipprError> {
        let sets = self.trees.len();
        // Salted so the bypass leaders land on different sets than the
        // vector-duel leaders.
        self.bypass_duel = Some(DuelController::two_salted(
            sets,
            leaders_per_side,
            self.psel_bits,
            7,
        )?);
        self.name.push_str("+bypass");
        Ok(self)
    }

    /// The candidate vectors.
    pub fn vectors(&self) -> &[Ipv] {
        &self.vectors
    }

    /// Index of the vector follower sets currently adopt.
    pub fn winner(&self) -> usize {
        self.duel.winner()
    }

    /// The dueling mechanism (test/diagnostic aid).
    pub fn duel(&self) -> &DuelController {
        &self.duel
    }

    /// The bypass duel, if [`DgipprPolicy::with_bypass`] enabled it
    /// (test/diagnostic aid).
    pub fn bypass_duel(&self) -> Option<&DuelController> {
        self.bypass_duel.as_ref()
    }

    #[inline]
    fn active_vector(&self, set: usize) -> &Ipv {
        &self.vectors[self.duel.policy_for_set(set)]
    }
}

impl ReplacementPolicy for DgipprPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.trees[set].victim()
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let target = {
            let tree = &self.trees[set];
            self.active_vector(set).promotion(tree.position(way))
        };
        self.trees[set].set_position(way, target);
    }

    #[inline]
    fn on_miss(&mut self, set: usize, _ctx: &AccessContext) {
        self.duel.record_miss(set);
        if let Some(d) = &mut self.bypass_duel {
            d.record_miss(set);
        }
    }

    #[inline]
    fn should_bypass(&mut self, set: usize, _ctx: &AccessContext) -> bool {
        let Some(d) = &self.bypass_duel else {
            return false;
        };
        // Side 0 of the bypass duel bypasses dead-on-arrival insertions;
        // side 1 never bypasses.
        let ways = self.trees[set].ways();
        d.policy_for_set(set) == 0 && self.active_vector(set).insertion() == ways - 1
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let target = self.active_vector(set).insertion();
        self.trees[set].set_position(way, target);
    }

    fn bits_per_set(&self) -> u64 {
        self.trees[0].bit_count()
    }

    fn global_bits(&self) -> u64 {
        self.duel.counter_bits()
            + self
                .bypass_duel
                .as_ref()
                .map_or(0, DuelController::counter_bits)
    }

    // Explicitly `Global` (the trait default, restated for the record):
    // the PSEL counters are cache-global state fed by leader-set misses,
    // and *every* set — leader or follower — reads the duel winner on its
    // next fill. Replaying set ranges independently would let a follower
    // set observe a stale winner relative to sequential PSEL timing, so
    // DGIPPR advertises no slice kernel and always replays whole through
    // the monomorphized engine, which preserves exact PSEL semantics.
    fn shard_affinity(&self) -> sim_core::ShardAffinity {
        sim_core::ShardAffinity::Global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors;
    use sim_core::dueling::SetRole;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(4 * 1024 * 1024, 16, 64).unwrap()
    }

    fn ctx() -> AccessContext {
        AccessContext::blank()
    }

    #[test]
    fn storage_matches_paper_claims() {
        let g = geom();
        let two = DgipprPolicy::two_vector(&g, vectors::wi_2dgippr()).unwrap();
        assert_eq!(two.bits_per_set(), 15);
        assert_eq!(two.global_bits(), 11, "2-DGIPPR: a single 11-bit counter");
        let four = DgipprPolicy::four_vector(&g, vectors::wi_4dgippr()).unwrap();
        assert_eq!(four.bits_per_set(), 15);
        assert_eq!(four.global_bits(), 33, "4-DGIPPR: three 11-bit counters");
    }

    #[test]
    fn rejects_bad_vector_counts() {
        let g = geom();
        let v = vectors::wi_gippr();
        assert!(matches!(
            DgipprPolicy::with_config(&g, vec![v.clone()], 32, "x"),
            Err(DgipprError::BadVectorCount(1))
        ));
        assert!(matches!(
            DgipprPolicy::with_config(&g, vec![v.clone(), v.clone(), v], 32, "x"),
            Err(DgipprError::BadVectorCount(3))
        ));
    }

    #[test]
    fn rejects_assoc_mismatch() {
        let g = geom();
        let bad = Ipv::lru(8);
        let good = vectors::wi_gippr();
        assert!(matches!(
            DgipprPolicy::with_config(&g, vec![good, bad], 32, "x"),
            Err(DgipprError::AssocMismatch {
                index: 1,
                got: 8,
                expected: 16
            })
        ));
    }

    #[test]
    fn leaders_use_their_own_vector() {
        let g = geom();
        // Vector 0 = PMRU insertion (position 0), vector 1 = PLRU insertion.
        let v0 = Ipv::lru(16);
        let v1 = Ipv::lru_insertion(16);
        let mut p = DgipprPolicy::with_config(&g, vec![v0, v1], 32, "test-2d").unwrap();
        let map = *p.duel().leader_map();
        let mut checked = [false, false];
        for set in 0..g.sets() {
            if let SetRole::Leader(v) = map.role(set) {
                p.on_fill(set, 5, &ctx());
                let pos = p.trees[set].position(5);
                if v == 0 {
                    assert_eq!(pos, 0, "leader of vector 0 inserts at PMRU");
                } else {
                    assert_eq!(pos, 15, "leader of vector 1 inserts at PLRU");
                }
                checked[v] = true;
            }
        }
        assert_eq!(checked, [true, true]);
    }

    #[test]
    fn followers_track_the_winner() {
        let g = geom();
        let v0 = Ipv::lru(16);
        let v1 = Ipv::lru_insertion(16);
        let mut p = DgipprPolicy::with_config(&g, vec![v0, v1], 32, "test-2d").unwrap();
        let map = *p.duel().leader_map();
        // Make vector 0's leaders miss a lot: winner flips to 1.
        for _ in 0..100 {
            for set in 0..g.sets() {
                if map.role(set) == SetRole::Leader(0) {
                    p.on_miss(set, &ctx());
                }
            }
        }
        assert_eq!(p.winner(), 1);
        // A follower set now inserts at PLRU (vector 1's insertion).
        let follower = (0..g.sets())
            .find(|&s| map.role(s) == SetRole::Follower)
            .unwrap();
        p.on_fill(follower, 2, &ctx());
        assert_eq!(p.trees[follower].position(2), 15);
    }

    #[test]
    fn follower_misses_do_not_move_counters() {
        let g = geom();
        let mut p = DgipprPolicy::two_vector(&g, vectors::wi_2dgippr()).unwrap();
        let map = *p.duel().leader_map();
        let before = p.winner();
        for set in 0..g.sets() {
            if map.role(set) == SetRole::Follower {
                p.on_miss(set, &ctx());
            }
        }
        assert_eq!(p.winner(), before);
    }

    #[test]
    fn four_vector_tournament_converges() {
        let g = geom();
        let mut p = DgipprPolicy::four_vector(&g, vectors::wi_4dgippr()).unwrap();
        let map = *p.duel().leader_map();
        // Everyone misses except vector 3's leaders.
        for _ in 0..100 {
            for set in 0..g.sets() {
                match map.role(set) {
                    SetRole::Leader(3) | SetRole::Follower => {}
                    SetRole::Leader(_) => p.on_miss(set, &ctx()),
                }
            }
        }
        assert_eq!(p.winner(), 3);
    }

    #[test]
    fn single_tree_shared_across_vectors() {
        // Changing the winner must not reset PLRU state: fill under one
        // vector, flip winner, and the block's position must be unchanged.
        let g = geom();
        let v0 = Ipv::lru(16);
        let v1 = Ipv::lru_insertion(16);
        let mut p = DgipprPolicy::with_config(&g, vec![v0, v1], 32, "t").unwrap();
        let map = *p.duel().leader_map();
        let follower = (0..g.sets())
            .find(|&s| map.role(s) == SetRole::Follower)
            .unwrap();
        p.on_fill(follower, 9, &ctx());
        let pos_before = p.trees[follower].position(9);
        for _ in 0..100 {
            for set in 0..g.sets() {
                if map.role(set) == SetRole::Leader(1) {
                    p.on_miss(set, &ctx());
                }
            }
        }
        assert_eq!(p.trees[follower].position(9), pos_before);
    }

    #[test]
    fn bypass_extension_storage_and_naming() {
        let g = geom();
        let p = DgipprPolicy::four_vector(&g, vectors::wi_4dgippr())
            .unwrap()
            .with_bypass(32)
            .unwrap();
        assert_eq!(
            p.global_bits(),
            44,
            "three duel counters plus one bypass counter"
        );
        assert_eq!(p.name(), "4-DGIPPR+bypass");
    }

    #[test]
    fn bypass_duel_inherits_configured_psel_width() {
        // Regression: `with_bypass` used to hardcode `PSEL_BITS`, so the
        // ablation PSEL-width sweep never varied the bypass counter.
        let g = geom();
        let vs = vectors::wi_4dgippr().to_vec();
        for bits in [5u32, 8, 11] {
            let p = DgipprPolicy::with_full_config(&g, vs.clone(), 32, bits, "4-DGIPPR")
                .unwrap()
                .with_bypass(32)
                .unwrap();
            assert_eq!(
                p.bypass_duel().unwrap().counter_bits(),
                u64::from(bits),
                "bypass duel must use the configured {bits}-bit width"
            );
            assert_eq!(
                p.global_bits(),
                u64::from(4 * bits),
                "three duel counters plus one bypass counter, all {bits}-bit"
            );
        }
    }

    #[test]
    fn bypass_duel_moves_only_on_bypass_leader_misses() {
        let g = geom();
        let mut p = DgipprPolicy::four_vector(&g, vectors::wi_4dgippr())
            .unwrap()
            .with_bypass(32)
            .unwrap();
        let bypass_map = *p.bypass_duel().unwrap().leader_map();
        // Misses in sets that are followers of the *bypass* duel must not
        // move its winner, no matter what role they play in the vector duel.
        let before = p.bypass_duel().unwrap().winner();
        for _ in 0..200 {
            for set in 0..g.sets() {
                if bypass_map.role(set) == SetRole::Follower {
                    p.on_miss(set, &ctx());
                }
            }
        }
        assert_eq!(
            p.bypass_duel().unwrap().winner(),
            before,
            "bypass-duel PSEL movement comes only from bypass leader sets"
        );
        // Hammering one side's bypass leaders through the public `on_miss`
        // path does flip it.
        for _ in 0..200 {
            for set in 0..g.sets() {
                if bypass_map.role(set) == SetRole::Leader(0) {
                    p.on_miss(set, &ctx());
                }
            }
        }
        assert_eq!(
            p.bypass_duel().unwrap().winner(),
            1,
            "bypass leader misses recorded via on_miss move the duel"
        );
    }

    #[test]
    fn bypass_is_noop_without_plru_insertion() {
        // If no candidate vector inserts at the PLRU position, the bypass
        // predicate can never fire, so the +bypass policy must replay
        // identically to the bypass-free one.
        use sim_core::SetAssocCache;
        let g = CacheGeometry::from_sets(256, 16, 64).unwrap();
        // Insertions at positions 0 and 8: neither is ways-1.
        let v0 = Ipv::lru(16);
        let mut v1 = Ipv::lru(16);
        v1.set_entry(16, 8).unwrap();
        let plain = DgipprPolicy::with_config(&g, vec![v0.clone(), v1.clone()], 4, "t").unwrap();
        let with_bypass = DgipprPolicy::with_config(&g, vec![v0, v1], 4, "t")
            .unwrap()
            .with_bypass(4)
            .unwrap();
        let mut a = SetAssocCache::new(g, Box::new(plain));
        let mut b = SetAssocCache::new(g, Box::new(with_bypass));
        // Mixed rereference + streaming traffic.
        let mut blk = 0u64;
        for i in 0..200_000u64 {
            let addr = if i % 3 == 0 {
                i % 4096
            } else {
                blk += 1;
                1 << 20 | blk
            };
            let oa = a.access_block(addr, &ctx());
            let ob = b.access_block(addr, &ctx());
            assert_eq!(oa.hit, ob.hit, "access {i}: hit/miss must match");
            assert!(!ob.bypassed, "access {i}: bypass must never fire");
            assert_eq!(oa.evicted, ob.evicted, "access {i}: victims must match");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn bypass_only_triggers_on_plru_insertion() {
        let g = geom();
        // Vector 0 inserts at PMRU, vector 1 at PLRU.
        let v0 = Ipv::lru(16);
        let v1 = Ipv::lru_insertion(16);
        let mut p = DgipprPolicy::with_config(&g, vec![v0, v1], 32, "t")
            .unwrap()
            .with_bypass(32)
            .unwrap();
        let map = *p.duel().leader_map();
        // In a vector-0 leader set, insertion is at PMRU: never bypass.
        let v0_leader = (0..g.sets())
            .find(|&s| map.role(s) == SetRole::Leader(0))
            .unwrap();
        assert!(!p.should_bypass(v0_leader, &ctx()));
        // Flip the bypass duel toward side 0 by hammering side 1's leaders
        // with misses; then any vector-1 follower-or-leader set whose
        // bypass role resolves to side 0 must bypass.
        let bypass_map = *p.bypass_duel.as_ref().unwrap().leader_map();
        for _ in 0..100 {
            for s in 0..g.sets() {
                if bypass_map.role(s) == SetRole::Leader(1) {
                    p.bypass_duel.as_mut().unwrap().record_miss(s);
                }
            }
        }
        assert_eq!(p.bypass_duel.as_ref().unwrap().winner(), 0);
        let v1_set = (0..g.sets())
            .find(|&s| {
                map.role(s) == SetRole::Leader(1)
                    && p.bypass_duel.as_ref().unwrap().policy_for_set(s) == 0
            })
            .expect("some vector-1 leader resolves to the bypass side");
        assert!(p.should_bypass(v1_set, &ctx()));
    }

    #[test]
    fn bypassed_blocks_do_not_fill_the_cache() {
        use sim_core::SetAssocCache;
        let g = geom();
        let v0 = Ipv::lru_insertion(16);
        let v1 = Ipv::lru_insertion(16);
        let p = DgipprPolicy::with_config(&g, vec![v0, v1], 32, "t")
            .unwrap()
            .with_bypass(32)
            .unwrap();
        let mut cache = SetAssocCache::new(g, Box::new(p));
        let mut bypassed = 0u64;
        for blk in 0..100_000u64 {
            let out = cache.access_block(blk, &ctx());
            if out.bypassed {
                bypassed += 1;
                assert!(!cache.probe(blk), "bypassed block must not be resident");
            }
        }
        assert!(
            bypassed > 0,
            "streaming under PLRU insertion triggers bypass somewhere"
        );
    }

    #[test]
    fn error_display_and_source() {
        let e = DgipprError::BadVectorCount(3);
        assert!(!e.to_string().is_empty());
        let e: DgipprError = DuelingError::BadSetCount(3).into();
        assert!(std::error::Error::source(&e).is_some());
    }
}

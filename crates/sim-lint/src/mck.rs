//! The exhaustive PLRU battery.
//!
//! `sim-verify` spot-checks the simulator's invariants along
//! whatever states a replayed trace happens to visit. This module *proves*
//! them instead, by exhausting the state space of one cache set:
//!
//! 1. **Complete tree sweep** ([`sweep_trees`]) — a plain loop over every
//!    one of the `2^(k-1)` PLRU bit patterns, checking victim-selection
//!    totality (the victim walk lands on a real way sitting at position
//!    `k - 1`), the position↔tree bijection (per-way positions form a
//!    permutation of `0..k`), the position-write round-trip
//!    (`set_position` then `position` agree for every `(way, position)`
//!    pair), and the `bits`/`from_bits` encoding round-trip.
//! 2. **Reachable-space search** ([`check_reachable`]) — [`PlruModel`]
//!    exposes one set's `(tree, valid-mask)` state as a
//!    [`PolicyState`], and the bounded checker explores it from reset with
//!    no state or depth cap, so the run ends [`Exhausted`]. Every
//!    transition proves invalid-line-first filling keeps the valid mask
//!    prefix-closed, victim totality and the bijection on the state it
//!    lands in, and for plain PLRU the one-step promotion fixpoint. The
//!    checker's orbit pass then proves *promotion convergence*: repeating
//!    any single input from any reachable state settles into a cycle of
//!    bounded length. Counterexample trails are minimal because the search
//!    is breadth-first.
//!
//! The full `(tree × mask)` product space factors cleanly: no invariant
//! couples the tree bits to the valid mask (positions are defined for
//! invalid ways too; filling consults only the mask until the set is
//! full), so sweeping `2^(k-1)` trees plus searching the reachable product
//! covers everything the `2^(k-1) · 2^k` brute product would.
//!
//! Both phases are generic over [`PlruState`] so the production
//! `gippr::PlruTree` — not a model of it — is the object being checked;
//! [`MirrorTree`](crate::mirror::MirrorTree) exists to check the checker.
//!
//! [`Exhausted`]: crate::StopReason::Exhausted

use std::fmt;
use std::sync::Arc;

use crate::bounded::{BoundedChecker, BoundedReport, BoundedTrail, PolicyState};

/// One set's worth of PLRU replacement state, as the checker drives it.
///
/// `bits` is the canonical `u64` encoding (node `i` of the heap-indexed
/// tree at bit `i - 1`); two substrates agree on a state iff their `bits`
/// agree, which is what lets the checker cross-check implementations.
pub trait PlruState: Clone {
    /// Reconstructs a state from its canonical encoding.
    fn from_bits(ways: usize, bits: u64) -> Self;
    /// The canonical encoding of this state.
    fn bits(&self) -> u64;
    /// Associativity.
    fn ways(&self) -> usize;
    /// The way the victim walk selects.
    fn victim(&self) -> usize;
    /// `way`'s pseudo recency position (0 = MRU, `ways - 1` = victim).
    fn position(&self, way: usize) -> usize;
    /// Rewrites `way`'s root-to-leaf path so it occupies `position`.
    fn set_position(&mut self, way: usize, position: usize);
}

/// How hits and fills drive the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromotionRule {
    /// Plain tree PseudoLRU: promote to pseudo-MRU on hit and fill.
    Plru,
    /// GIPPR: an insertion/promotion vector `V[0..=k]` — a hit at
    /// position `p` rewrites to `V[p]`, a fill lands at `V[k]`.
    Ipv(Vec<u8>),
}

impl PromotionRule {
    /// A short display name for reports.
    pub fn name(&self) -> String {
        match self {
            PromotionRule::Plru => "plru".to_string(),
            PromotionRule::Ipv(v) => format!("ipv{v:?}"),
        }
    }

    fn on_hit<S: PlruState>(&self, state: &mut S, way: usize) {
        match self {
            PromotionRule::Plru => state.set_position(way, 0),
            PromotionRule::Ipv(v) => {
                let p = state.position(way);
                state.set_position(way, usize::from(v[p]));
            }
        }
    }

    fn on_fill<S: PlruState>(&self, state: &mut S, way: usize) {
        match self {
            PromotionRule::Plru => state.set_position(way, 0),
            PromotionRule::Ipv(v) => state.set_position(way, usize::from(v[v.len() - 1])),
        }
    }
}

/// A tree-sweep or cross-check failure, naming the offending tree state.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Associativity being checked.
    pub ways: usize,
    /// Which invariant broke.
    pub invariant: String,
    /// Tree bits of the offending state.
    pub state_bits: u64,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated at {} ways: bits {:#b}",
            self.invariant, self.ways, self.state_bits
        )
    }
}

/// Longest constant-input orbit tolerated before declaring
/// non-convergence. The hit orbit of a `k`-entry vector has preperiod +
/// period ≤ `k` tree-position steps, and a miss orbit fills at most `k`
/// invalid ways before cycling through the victims; double it for slack.
fn orbit_bound(ways: usize) -> usize {
    2 * ways + 2
}

fn assert_sweepable(ways: usize) {
    assert!(
        ways.is_power_of_two() && (2..=16).contains(&ways),
        "the PLRU battery sweeps ways 2..=16, got {ways}"
    );
}

/// Victim totality, victim at position `k - 1`, and the position
/// bijection for one tree state; `Err` names the broken invariant.
fn check_tree<S: PlruState>(s: &S) -> Result<(), &'static str> {
    let k = s.ways();
    let v = s.victim();
    if v >= k {
        return Err("victim totality");
    }
    if s.position(v) != k - 1 {
        return Err("victim at position k-1");
    }
    let mut seen = 0u64;
    for w in 0..k {
        let p = s.position(w);
        if p >= k || seen & (1 << p) != 0 {
            return Err("position bijection");
        }
        seen |= 1 << p;
    }
    Ok(())
}

/// The complete tree sweep: every one of the `2^(ways-1)` bit patterns of
/// substrate `S`, checked for the encoding round-trip, victim totality,
/// the position bijection, and every `(way, position)` write round-trip.
/// Returns the number of tree states swept.
///
/// # Errors
///
/// Returns a [`Counterexample`] naming the first offending tree bits.
///
/// # Panics
///
/// Panics unless `ways` is a power of two in `2..=16`.
pub fn sweep_trees<S: PlruState>(ways: usize) -> Result<u64, Box<Counterexample>> {
    assert_sweepable(ways);
    let fail = |invariant: String, bits: u64| {
        Box::new(Counterexample {
            ways,
            invariant,
            state_bits: bits,
        })
    };
    for bits in 0..(1u64 << (ways - 1)) {
        let s = S::from_bits(ways, bits);
        if s.bits() != bits {
            return Err(fail("bits/from_bits round-trip".to_string(), bits));
        }
        check_tree(&s).map_err(|inv| fail(inv.to_string(), bits))?;
        for way in 0..ways {
            for pos in 0..ways {
                let mut t = s.clone();
                t.set_position(way, pos);
                if t.position(way) != pos {
                    return Err(fail(
                        format!("position round-trip (way {way}, pos {pos})"),
                        bits,
                    ));
                }
            }
        }
    }
    Ok(1u64 << (ways - 1))
}

/// One cache set under a [`PromotionRule`], as a [`PolicyState`]: the
/// tree of substrate `S` plus the valid mask. Input 0 is a miss (fill the
/// lowest invalid way, else evict the victim); input `1 + w` is a hit on
/// way `w`, a no-op while `w` is invalid. The digest is `(bits, mask)`.
#[derive(Debug, Clone)]
pub struct PlruModel<S> {
    rule: Arc<PromotionRule>,
    tree: S,
    mask: u64,
}

impl<S: PlruState> PlruModel<S> {
    /// A model at reset: zero tree, empty set.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a power of two in `2..=16`, or if an
    /// [`PromotionRule::Ipv`] rule's length is not `ways + 1` or holds an
    /// out-of-range entry.
    pub fn new(ways: usize, rule: PromotionRule) -> Self {
        assert_sweepable(ways);
        if let PromotionRule::Ipv(v) = &rule {
            assert_eq!(v.len(), ways + 1, "IPV length must be ways + 1");
            assert!(
                v.iter().all(|&e| usize::from(e) < ways),
                "IPV entry out of range for {ways} ways"
            );
        }
        PlruModel {
            rule: Arc::new(rule),
            tree: S::from_bits(ways, 0),
            mask: 0,
        }
    }

    fn fail(&self, invariant: &str) -> String {
        format!(
            "{invariant} (rule {}, bits {:#b}, mask {:#b})",
            self.rule.name(),
            self.tree.bits(),
            self.mask
        )
    }
}

impl<S: PlruState + 'static> PolicyState for PlruModel<S> {
    fn reset(&mut self) {
        self.tree = S::from_bits(self.tree.ways(), 0);
        self.mask = 0;
    }

    fn num_inputs(&self) -> usize {
        self.tree.ways() + 1
    }

    fn input_label(&self, input: usize) -> String {
        match input {
            0 => "miss".to_string(),
            hit => format!("hit(way {})", hit - 1),
        }
    }

    fn apply(&mut self, input: usize) -> Result<(), String> {
        let k = self.tree.ways();
        if input == 0 {
            let way = if self.mask != (1 << k) - 1 {
                // Invalid-line-first: the cache model fills the lowest
                // invalid way without consulting the tree.
                let w = (!self.mask).trailing_zeros() as usize;
                if w >= k || self.mask & (1 << w) != 0 {
                    return Err(self.fail("invalid-first fill"));
                }
                w
            } else {
                let w = self.tree.victim();
                if w >= k {
                    return Err(self.fail("victim totality on miss"));
                }
                w
            };
            self.rule.on_fill(&mut self.tree, way);
            self.mask |= 1 << way;
            if (self.mask + 1) & self.mask != 0 {
                return Err(self.fail("valid-mask prefix closure"));
            }
        } else {
            let way = input - 1;
            if self.mask & (1 << way) == 0 {
                return Ok(());
            }
            self.rule.on_hit(&mut self.tree, way);
            if *self.rule == PromotionRule::Plru {
                let mut again = self.tree.clone();
                self.rule.on_hit(&mut again, way);
                if again.bits() != self.tree.bits() {
                    return Err(self.fail("plru promotion fixpoint"));
                }
            }
        }
        check_tree(&self.tree).map_err(|inv| self.fail(inv))
    }

    fn digest(&self) -> Vec<u8> {
        (self.tree.bits() | self.mask << 32).to_le_bytes().to_vec()
    }

    fn fork(&self) -> Option<Box<dyn PolicyState>> {
        Some(Box::new(self.clone()))
    }
}

/// Explores every `(tree, mask)` state of substrate `S` reachable from
/// reset under `rule`, with no state or depth cap, and checks promotion
/// convergence on every reachable `(state, input)` pair. The report's
/// `states` is the reachable-state count.
///
/// # Errors
///
/// Returns the minimal input trail reaching the first violation.
///
/// # Panics
///
/// As [`PlruModel::new`].
pub fn check_reachable<S: PlruState + 'static>(
    ways: usize,
    rule: PromotionRule,
) -> Result<BoundedReport, Box<BoundedTrail>> {
    BoundedChecker::new()
        .with_max_states(usize::MAX)
        .with_max_depth(usize::MAX)
        .with_orbits(orbit_bound(ways), usize::MAX)
        .run(&mut PlruModel::<S>::new(ways, rule))
}

/// Sweeps two substrates over the complete tree space and every
/// `(way, position)` write, returning the number of states compared or
/// the first disagreement. This is the exhaustive version of the
/// `sim-verify` PLRU differential pair.
///
/// # Errors
///
/// Returns a [`Counterexample`] naming the disagreeing operation.
///
/// # Panics
///
/// Panics unless `ways` is a power of two in `2..=16`.
pub fn cross_check<A: PlruState, B: PlruState>(ways: usize) -> Result<u64, Box<Counterexample>> {
    assert_sweepable(ways);
    let fail = |what: String, bits: u64| {
        Box::new(Counterexample {
            ways,
            invariant: format!("cross-check {what}"),
            state_bits: bits,
        })
    };
    for bits in 0..(1u64 << (ways - 1)) {
        let a = A::from_bits(ways, bits);
        let b = B::from_bits(ways, bits);
        if a.victim() != b.victim() {
            return Err(fail(
                format!("victim {} vs {}", a.victim(), b.victim()),
                bits,
            ));
        }
        for w in 0..ways {
            if a.position(w) != b.position(w) {
                return Err(fail(format!("position(way {w})"), bits));
            }
            for p in 0..ways {
                let mut ta = a.clone();
                let mut tb = b.clone();
                ta.set_position(w, p);
                tb.set_position(w, p);
                if ta.bits() != tb.bits() {
                    return Err(fail(format!("set_position(way {w}, pos {p})"), bits));
                }
            }
        }
    }
    Ok(1u64 << (ways - 1))
}

/// Seeded-defect substrates: each breaks one tree algorithm, and the
/// battery must catch it. Shared by the unit tests here, the `gippr`
/// integration tests, and the `xtask model-check` self-tests.
#[doc(hidden)]
pub mod seeded {
    use super::{check_reachable, cross_check, sweep_trees, PlruState, PromotionRule};
    use crate::mirror::MirrorTree;
    use std::fmt::Debug;

    /// A [`MirrorTree`] carrying the seeded defect `D`.
    #[derive(Clone)]
    pub struct Seeded<const D: u8>(MirrorTree);

    /// The victim walk always answers way 0, regardless of the tree.
    pub type BrokenVictim = Seeded<0>;
    /// The position write drops the low position bit: the compact-encoding
    /// bug trace tests rarely trip.
    pub type BrokenWrite = Seeded<1>;
    /// Correct except in tree state [`POISONED_BITS`], whose victim walk
    /// leaves the set: the sweep must reach that one state and name it.
    pub type PoisonedState = Seeded<2>;
    /// The tree bits [`PoisonedState`] misbehaves in.
    pub const POISONED_BITS: u64 = 0b011;

    impl<const D: u8> PlruState for Seeded<D> {
        fn from_bits(ways: usize, bits: u64) -> Self {
            Seeded(MirrorTree::from_bits(ways, bits))
        }
        fn bits(&self) -> u64 {
            self.0.bits()
        }
        fn ways(&self) -> usize {
            self.0.ways()
        }
        fn victim(&self) -> usize {
            match D {
                0 => 0,
                2 if self.0.bits() == POISONED_BITS => self.0.ways(),
                _ => self.0.victim(),
            }
        }
        fn position(&self, way: usize) -> usize {
            self.0.position(way)
        }
        fn set_position(&mut self, way: usize, position: usize) {
            let position = if D == 1 { position & !1 } else { position };
            self.0.set_position(way, position);
        }
    }

    /// Runs every seeded defect through the battery, with `S` as the sound
    /// substrate the cross-check compares against, and reports per defect
    /// `Ok` if it was caught or `Err` with what the battery said instead.
    pub fn catches<S: PlruState>() -> Vec<(&'static str, Result<(), String>)> {
        fn caught<T: Debug, E: Debug>(r: Result<T, E>, hit: fn(&E) -> bool) -> Result<(), String> {
            match r {
                Err(e) if hit(&e) => Ok(()),
                other => Err(format!("{other:?}")),
            }
        }
        vec![
            (
                "plru battery: constant victim walk",
                caught(sweep_trees::<BrokenVictim>(4), |c| {
                    c.invariant.contains("victim")
                })
                .and(caught(
                    check_reachable::<BrokenVictim>(4, PromotionRule::Plru),
                    |t| t.invariant.contains("victim"),
                )),
            ),
            (
                "plru battery: lossy position write",
                caught(sweep_trees::<BrokenWrite>(8), |c| {
                    c.invariant.contains("round-trip")
                }),
            ),
            (
                "plru battery: poisoned tree state 0b011",
                caught(sweep_trees::<PoisonedState>(4), |c| {
                    c.state_bits == POISONED_BITS
                }),
            ),
            (
                "plru cross-check: substrate disagreement",
                caught(cross_check::<S, BrokenWrite>(4), |c| {
                    c.invariant.contains("set_position")
                }),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::seeded::{BrokenVictim, BrokenWrite, PoisonedState};
    use super::*;
    use crate::mirror::MirrorTree;
    use crate::StopReason;

    fn clean(ways: usize, rule: PromotionRule) -> BoundedReport {
        let report = check_reachable::<MirrorTree>(ways, rule).unwrap_or_else(|t| panic!("{t}"));
        assert_eq!(report.stop, StopReason::Exhausted);
        report
    }

    #[test]
    fn plru_and_lip_clean_up_to_8_ways() {
        for ways in [2usize, 4, 8] {
            assert_eq!(sweep_trees::<MirrorTree>(ways).unwrap(), 1 << (ways - 1));
            let report = clean(ways, PromotionRule::Plru);
            assert_eq!(report.transitions, report.states * (ways + 1));
            assert_eq!(report.orbits_checked, report.states * (ways + 1));
            let mut lip = vec![0u8; ways + 1];
            lip[ways] = (ways - 1) as u8;
            clean(ways, PromotionRule::Ipv(lip));
        }
        // 8 tree states x 5 prefix masks bounds the 4-way product; the
        // masks alone give 5 states.
        assert!((5..=40).contains(&clean(4, PromotionRule::Plru).states));
    }

    #[test]
    fn oscillating_vector_still_converges_to_a_cycle() {
        // V[0] = 2, V[2] = 0 oscillates — a cycle, not a fixpoint, which
        // the convergence invariant (bounded cycle) accepts for IPVs.
        clean(4, PromotionRule::Ipv(vec![2, 1, 0, 3, 0]));
    }

    #[test]
    fn seeded_defects_are_caught() {
        for (label, caught) in super::seeded::catches::<MirrorTree>() {
            caught.unwrap_or_else(|detail| panic!("{label} not caught: {detail}"));
        }
        // The search trail is minimal, and sweep failures name the bits.
        let trail = check_reachable::<BrokenVictim>(4, PromotionRule::Plru).unwrap_err();
        assert_eq!(trail.trail, ["miss"], "one fill exposes it");
        let err = sweep_trees::<PoisonedState>(4).unwrap_err();
        assert!(err.to_string().contains("victim totality"), "{err}");
        assert!(err.to_string().contains("bits 0b11"), "{err}");
    }

    #[test]
    fn cross_check_agrees_with_itself_and_catches_disagreement() {
        for ways in [2usize, 4, 8] {
            let states = cross_check::<MirrorTree, MirrorTree>(ways).unwrap();
            assert_eq!(states, 1 << (ways - 1));
        }
        let err = cross_check::<MirrorTree, BrokenWrite>(4).expect_err("must disagree");
        assert!(err.invariant.contains("set_position"), "{err}");
        assert!(err.to_string().contains("bits 0b"), "{err}");
    }

    #[test]
    fn rejects_bad_configs() {
        let caught =
            std::panic::catch_unwind(|| PlruModel::<MirrorTree>::new(32, PromotionRule::Plru));
        assert!(caught.is_err(), "ways 32 exceeds the sweepable range");
        let caught = std::panic::catch_unwind(|| {
            PlruModel::<MirrorTree>::new(4, PromotionRule::Ipv(vec![0; 3]))
        });
        assert!(caught.is_err(), "short vector must be rejected");
        let caught = std::panic::catch_unwind(|| sweep_trees::<MirrorTree>(32));
        assert!(caught.is_err(), "the sweep shares the range check");
    }

    #[test]
    fn hit_on_an_invalid_way_is_a_no_op() {
        let mut m = PlruModel::<MirrorTree>::new(4, PromotionRule::Plru);
        let reset = m.digest();
        m.apply(3).unwrap();
        assert_eq!(m.digest(), reset);
        m.apply(0).unwrap();
        assert_ne!(m.digest(), reset, "a miss fills way 0");
    }
}

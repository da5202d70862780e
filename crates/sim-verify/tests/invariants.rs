//! Metamorphic invariants over the replacement state machines, checked
//! with randomized inputs (vendored proptest subset).
//!
//! These complement the differential driver: instead of comparing two whole
//! cache models, each property pins down one algebraic fact the paper's
//! mechanisms rely on — position round-trips, permutation preservation,
//! duel monotonicity, and PDP's protection contract.

use gippr::{PlruTree, RecencyStack};
use proptest::prelude::*;
use sim_core::dueling::DuelController;
use sim_core::{AccessContext, CacheGeometry, SetRole};
use sim_lint::{MirrorTree, PlruState};
use sim_verify::RefRecencyStack;

/// Strategy: a supported power-of-two associativity.
fn pow2_ways() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(4), Just(8), Just(16), Just(32), Just(64),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Paper Figures 7/9: writing a block's pseudo recency position and
    /// reading it back agrees, for every associativity — after arbitrary
    /// earlier churn, and identically in the packed tree and the naive one.
    #[test]
    fn plru_position_round_trips(
        ways in pow2_ways(),
        ops in proptest::collection::vec((0usize..64, 0usize..64), 1..40),
    ) {
        let mut tree = PlruTree::new(ways);
        let mut naive = MirrorTree::new(ways);
        for (w, p) in ops {
            let (w, p) = (w % ways, p % ways);
            tree.set_position(w, p);
            naive.set_position(w, p);
            prop_assert_eq!(tree.position(w), p);
            prop_assert_eq!(naive.position(w), p);
            // The two representations agree on every way, and on the victim.
            let naive_positions: Vec<usize> = (0..ways).map(|w| naive.position(w)).collect();
            prop_assert_eq!(tree.positions(), naive_positions);
            prop_assert_eq!(tree.victim(), naive.victim());
            // Positions always form a permutation of 0..ways.
            let mut ps = tree.positions();
            ps.sort_unstable();
            prop_assert_eq!(ps, (0..ways).collect::<Vec<_>>());
        }
    }

    /// Section 2.3: generalized recency-stack moves preserve the
    /// permutation property under arbitrary move sequences, and the
    /// position-array implementation matches the ordered-list one.
    #[test]
    fn recency_stack_moves_preserve_permutation(
        ways in prop_oneof![Just(2usize), Just(3), Just(5), Just(16), Just(64)],
        moves in proptest::collection::vec((0usize..64, 0usize..64), 1..60),
    ) {
        let mut stack = RecencyStack::new(ways);
        let mut naive = RefRecencyStack::new(ways);
        for (w, t) in moves {
            let (w, t) = (w % ways, t % ways);
            stack.move_to(w, t);
            naive.move_to(w, t);
            prop_assert!(stack.is_permutation());
            let stack_positions: Vec<usize> =
                stack.positions().iter().map(|&p| usize::from(p)).collect();
            prop_assert_eq!(stack_positions, naive.positions());
            prop_assert_eq!(stack.lru_way(), naive.lru_way());
        }
    }

    /// A one-sided miss stream moves the duel toward the other policy and
    /// never back: once the winner flips away from the losing side, it
    /// stays flipped for as long as only that side misses.
    #[test]
    fn duel_winner_is_monotone_under_one_sided_misses(
        loser in prop_oneof![Just(0usize), Just(1)],
        bits in 2u32..12,
        misses in 1usize..200,
    ) {
        let sets = 256;
        let mut duel = DuelController::two(sets, 16, bits).expect("leaders fit");
        let leader_sets: Vec<usize> = (0..sets)
            .filter(|&s| duel.leader_map().role(s) == SetRole::Leader(loser))
            .collect();
        prop_assert!(!leader_sets.is_empty());
        let settled = 1 - loser;
        let mut seen_settled = false;
        for i in 0..misses {
            duel.record_miss(leader_sets[i % leader_sets.len()]);
            if duel.winner() == settled {
                seen_settled = true;
            } else {
                prop_assert!(
                    !seen_settled,
                    "winner flipped back to the losing side after settling"
                );
            }
        }
        prop_assert!(seen_settled, "enough one-sided misses must flip the duel");
    }

    /// PDP's contract: the victim is never a protected line while an
    /// unprotected line exists in the set.
    #[test]
    fn pdp_victim_never_evicts_protected_over_unprotected(
        events in proptest::collection::vec((0usize..3, 0usize..16, 0u64..4096), 1..300),
    ) {
        let geom = CacheGeometry::from_sets(64, 16, 64).unwrap();
        let mut pdp = baselines::PdpPolicy::new(&geom);
        let set = 0usize;
        for (kind, way, block) in events {
            let ctx = AccessContext { pc: 0, addr: block << 6, is_write: false };
            match kind {
                0 => sim_core::ReplacementPolicy::on_fill(&mut pdp, set, way, &ctx),
                1 => sim_core::ReplacementPolicy::on_hit(&mut pdp, set, way, &ctx),
                _ => sim_core::ReplacementPolicy::on_miss(&mut pdp, set, &ctx),
            }
            let any_unprotected = (0..16).any(|w| !pdp.is_protected(set, w));
            if any_unprotected {
                let v = sim_core::ReplacementPolicy::victim(
                    &mut pdp,
                    set,
                    &AccessContext::blank(),
                );
                prop_assert!(
                    !pdp.is_protected(set, v),
                    "victim way {v} is protected while an unprotected line exists"
                );
            }
        }
    }
}

/// The duel settles at exactly the saturation boundary: with a `b`-bit
/// PSEL, at most `2^(b-1) + 1` one-sided misses are needed to flip and
/// hold the winner (deterministic companion to the monotonicity property).
#[test]
fn duel_settles_within_counter_range() {
    let sets = 256;
    for bits in [2u32, 5, 11] {
        let mut duel = DuelController::two(sets, 16, bits).expect("leaders fit");
        let side1_leaders: Vec<usize> = (0..sets)
            .filter(|&s| duel.leader_map().role(s) == SetRole::Leader(1))
            .collect();
        let budget = (1usize << (bits - 1)) + 1;
        for i in 0..budget {
            duel.record_miss(side1_leaders[i % side1_leaders.len()]);
        }
        assert_eq!(duel.winner(), 0, "{bits}-bit duel settled on policy 0");
    }
}

//! Exhaustive model checking of the production [`PlruTree`].
//!
//! The `sim-lint` PLRU battery is generic over its tree substrate, so these
//! tests prove the invariants — victim totality, the position↔tree
//! bijection, valid-mask prefix closure, promotion convergence — for the
//! bit-packed tree the simulator actually ships, not a model of it.
//! Debug-profile tests stop at 8 ways to stay fast; `cargo xtask
//! model-check` runs the same sweeps at 16 ways in release.

use gippr::{vectors, PlruTree};
use sim_core::SlicedTreeLane;
use sim_lint::mck::seeded;
use sim_lint::{
    check_reachable, cross_check, sweep_trees, MirrorTree, PlruState, PromotionRule, StopReason,
};

/// The battery's rules at `ways`: plain PLRU, the LRU and LIP vectors, and
/// the published paper vectors rescaled from 16 ways.
fn rules(ways: usize) -> Vec<(&'static str, PromotionRule)> {
    let mut lip = vec![0u8; ways + 1];
    lip[ways] = (ways - 1) as u8;
    let rescaled = |ipv: gippr::Ipv| {
        PromotionRule::Ipv(
            ipv.rescaled(ways)
                .expect("16 -> smaller rescale is valid")
                .entries()
                .to_vec(),
        )
    };
    vec![
        ("plru", PromotionRule::Plru),
        ("lru", PromotionRule::Ipv(vec![0; ways + 1])),
        ("lip", PromotionRule::Ipv(lip)),
        ("giplr-best", rescaled(vectors::giplr_best())),
        ("wi-gippr", rescaled(vectors::wi_gippr())),
        ("perlbench-wn1", rescaled(vectors::perlbench_wn1())),
    ]
}

/// Runs the whole battery for one substrate and returns the reachable
/// state count of each rule, in [`rules`] order.
fn battery<S: PlruState + 'static>(ways: usize) -> Vec<usize> {
    assert_eq!(
        sweep_trees::<S>(ways).unwrap_or_else(|ce| panic!("tree sweep at {ways} ways: {ce}")),
        1u64 << (ways - 1)
    );
    rules(ways)
        .into_iter()
        .map(|(name, rule)| {
            let report = check_reachable::<S>(ways, rule)
                .unwrap_or_else(|t| panic!("{name} at {ways} ways:\n{t}"));
            assert_eq!(report.stop, StopReason::Exhausted, "{name} at {ways} ways");
            report.states
        })
        .collect()
}

#[test]
fn battery_is_clean_and_explores_the_pinned_space() {
    // The whole battery, on the production tree and on the bit-sliced tree
    // at lane 3, with the reachable (tree, valid-mask) state count of each
    // rule in `rules` order. A changed count means the search no longer
    // covers the space it used to: investigate before re-pinning.
    let pinned: [(usize, [usize; 6]); 3] = [
        (2, [4, 4, 5, 5, 4, 4]),
        (4, [16, 16, 20, 20, 6, 20]),
        (8, [256, 256, 312, 370, 178, 49]),
    ];
    for (ways, counts) in pinned {
        assert_eq!(battery::<PlruTree>(ways), counts, "PlruTree at {ways} ways");
        assert_eq!(
            battery::<SlicedTreeLane<3>>(ways),
            counts,
            "SlicedTreeLane<3> at {ways} ways"
        );
    }
}

#[test]
fn production_tree_matches_naive_mirror_exhaustively() {
    // Complete-state-space differential check: every tree state, every
    // (way, position) write, both substrates must agree bit for bit.
    for ways in [2usize, 4, 8, 16] {
        let states = cross_check::<PlruTree, MirrorTree>(ways)
            .unwrap_or_else(|ce| panic!("substrate disagreement at {ways} ways:\n{ce}"));
        assert_eq!(states, 1u64 << (ways - 1));
    }
}

#[test]
fn seeded_substrate_defects_are_caught() {
    // The cross-check's sound side is the production tree.
    for (label, caught) in seeded::catches::<PlruTree>() {
        caught.unwrap_or_else(|detail| panic!("{label} not caught: {detail}"));
    }
}

#[test]
fn rejects_bad_configs() {
    let caught = std::panic::catch_unwind(|| check_reachable::<PlruTree>(32, PromotionRule::Plru));
    assert!(caught.is_err(), "ways 32 exceeds the sweepable range");
    let caught =
        std::panic::catch_unwind(|| check_reachable::<PlruTree>(4, PromotionRule::Ipv(vec![0; 3])));
    assert!(caught.is_err(), "short vector must be rejected");
}

#[test]
fn oscillating_vector_is_accepted() {
    // V[0] = 2, V[2] = 0: hitting one way forever oscillates between two
    // positions — a bounded cycle, which the orbit check accepts for IPVs.
    let report = check_reachable::<PlruTree>(4, PromotionRule::Ipv(vec![2, 1, 0, 3, 0]))
        .unwrap_or_else(|t| panic!("{t}"));
    assert_eq!(report.stop, StopReason::Exhausted);
}

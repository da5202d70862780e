//! A deliberately naive tree-PseudoLRU substrate.
//!
//! [`MirrorTree`] reimplements the paper's tree algorithms (victim walk,
//! position read, position write) over a `Vec<bool>` of node bits — no
//! packing, no bit tricks — and derives positions by walking root → leaf,
//! where the packed trees walk leaf → root. It is the one naive reference
//! tree of the workspace: the checker's self-tests run against it,
//! [`mck::cross_check`](crate::mck::cross_check) sweeps it against the
//! production bit-packed tree over the *complete* state space, the
//! slice-kernel soundness sweep compares packed lanes with it, and
//! `sim-verify`'s differential reference policies are built on it.

use crate::mck::PlruState;

/// A `Vec<bool>` tree-PLRU state for one set.
///
/// Node `i` (heap-indexed from 1, children `2i` and `2i + 1`) stores its
/// bit at `nodes[i]`; way `w`'s leaf is node `ways + w`. The canonical
/// `u64` encoding used by [`PlruState::bits`] places node `i` at bit
/// `i - 1`, matching `gippr::PlruTree::raw_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorTree {
    /// `nodes[0]` is unused padding so the heap indexing stays 1-based.
    nodes: Vec<bool>,
    ways: usize,
}

impl MirrorTree {
    /// Creates an all-zero tree.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a power of two in `2..=64`.
    pub fn new(ways: usize) -> Self {
        assert!(
            ways.is_power_of_two() && (2..=64).contains(&ways),
            "mirror tree needs a power-of-two associativity in 2..=64, got {ways}"
        );
        MirrorTree {
            nodes: vec![false; ways],
            ways,
        }
    }
}

impl PlruState for MirrorTree {
    fn from_bits(ways: usize, bits: u64) -> Self {
        let mut t = MirrorTree::new(ways);
        for node in 1..ways {
            t.nodes[node] = bits >> (node - 1) & 1 == 1;
        }
        t
    }

    fn bits(&self) -> u64 {
        let mut bits = 0u64;
        for node in 1..self.ways {
            if self.nodes[node] {
                bits |= 1 << (node - 1);
            }
        }
        bits
    }

    fn ways(&self) -> usize {
        self.ways
    }

    fn victim(&self) -> usize {
        let mut node = 1;
        while node < self.ways {
            node = 2 * node + usize::from(self.nodes[node]);
        }
        node - self.ways
    }

    /// At depth `d` (root = 0) the path to `way` branches on bit
    /// `levels - 1 - d` of `way`; the node contributes that same bit of the
    /// position when it points *toward* the block.
    fn position(&self, way: usize) -> usize {
        assert!(way < self.ways, "way {way} out of range");
        let levels = self.ways.trailing_zeros() as usize;
        let mut node = 1;
        let mut pos = 0;
        for bit in (0..levels).rev() {
            let branch = way >> bit & 1;
            if usize::from(self.nodes[node]) == branch {
                pos |= 1 << bit;
            }
            node = 2 * node + branch;
        }
        pos
    }

    fn set_position(&mut self, way: usize, position: usize) {
        assert!(way < self.ways, "way {way} out of range");
        assert!(position < self.ways, "position {position} out of range");
        let levels = self.ways.trailing_zeros() as usize;
        let mut node = 1;
        for bit in (0..levels).rev() {
            let branch = way >> bit & 1;
            // Point toward the block iff the position bit says so: a right
            // branch is "toward" when the node bit is 1, a left branch when
            // it is 0.
            self.nodes[node] = (branch == 1) == (position >> bit & 1 == 1);
            node = 2 * node + branch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_victimizes_way_zero() {
        let t = MirrorTree::new(8);
        assert_eq!(t.victim(), 0);
        assert_eq!(t.position(0), 7, "the victim sits at the bottom");
    }

    #[test]
    fn set_position_round_trips_at_every_width() {
        // `mck::sweep_trees` proves round-trips and the position bijection
        // for every tree state; this also reaches the 32- and 64-way trees
        // the differential reference policies run.
        for ways in [2usize, 4, 8, 16, 32, 64] {
            let mut t = MirrorTree::new(ways);
            for way in 0..ways {
                for pos in 0..ways {
                    t.set_position(way, pos);
                    assert_eq!(t.position(way), pos, "{ways}-way, way {way}, pos {pos}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_bad_ways() {
        let _ = MirrorTree::new(6);
    }
}

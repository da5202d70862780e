//! The tree PseudoLRU bit vector and the paper's position algebra.
//!
//! A `k`-way set keeps a complete binary tree with `k - 1` internal nodes,
//! each holding one *plru bit*. Walking from the root toward the bit
//! direction (0 = left, 1 = right) reaches the PseudoLRU victim. The paper's
//! key enabling observation (Section 3.2) is that this tree induces a
//! *pseudo recency stack*: each leaf occupies a distinct position in
//! `0..k-1`, where position 0 is pseudo-MRU and position `k - 1` (all plru
//! bits pointing at the block) is the PseudoLRU victim — and that a block's
//! position can be *written*, not just read, by rewriting the `log2 k` bits
//! on its root-to-leaf path (Figure 9). Writable positions are what make
//! arbitrary insertion/promotion vectors implementable on PLRU state.

use std::fmt;

/// A tree PseudoLRU state for one cache set of up to 64 ways.
///
/// Internal nodes are heap-indexed from 1 (the root); node `i` has children
/// `2i` and `2i + 1`, and way `w`'s leaf is node `k + w`. The bit for node
/// `i` is stored at bit `i - 1` of a `u64`, so a 16-way set consumes exactly
/// the paper's 15 bits.
///
/// # Example
///
/// ```
/// use gippr::PlruTree;
///
/// let mut t = PlruTree::new(16);
/// t.promote(3); // classic PLRU touch
/// assert_eq!(t.position(3), 0, "promoted block is pseudo-MRU");
/// assert_eq!(t.position(t.victim()), 15, "victim is pseudo-LRU");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlruTree {
    bits: u64,
    ways: usize,
}

impl PlruTree {
    /// Creates an all-zero tree for a `ways`-associative set.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a power of two in `2..=64`.
    pub fn new(ways: usize) -> Self {
        assert!(
            ways.is_power_of_two() && (2..=64).contains(&ways),
            "PLRU tree needs a power-of-two associativity in 2..=64, got {ways}"
        );
        PlruTree { bits: 0, ways }
    }

    /// Associativity this tree serves.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Tree depth (`log2 ways`), the number of bits in a position.
    pub fn levels(&self) -> u32 {
        self.ways.trailing_zeros()
    }

    /// Raw plru bits (bit `i - 1` holds node `i`), for diagnostics.
    pub fn raw_bits(&self) -> u64 {
        self.bits
    }

    /// Reconstructs a tree from raw plru bits (the inverse of
    /// [`raw_bits`](Self::raw_bits)), letting the `sim-lint` model checker
    /// enumerate the complete state space of *this* implementation.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported `ways` (see [`PlruTree::new`]) or if `bits`
    /// sets a bit beyond the tree's `ways - 1` nodes.
    pub fn from_raw_bits(ways: usize, bits: u64) -> Self {
        let mut t = PlruTree::new(ways);
        assert!(
            bits >> t.bit_count() == 0,
            "bits {bits:#x} exceed the {} plru bits of a {ways}-way tree",
            t.bit_count()
        );
        t.bits = bits;
        t
    }

    /// Number of plru bits stored (`ways - 1`).
    pub fn bit_count(&self) -> u64 {
        self.ways as u64 - 1
    }

    #[inline]
    fn node_bit(&self, node: usize) -> bool {
        debug_assert!((1..self.ways).contains(&node));
        self.bits >> (node - 1) & 1 == 1
    }

    #[inline]
    fn set_node_bit(&mut self, node: usize, value: bool) {
        debug_assert!((1..self.ways).contains(&node));
        let mask = 1u64 << (node - 1);
        if value {
            self.bits |= mask;
        } else {
            self.bits &= !mask;
        }
    }

    /// Finds the PseudoLRU victim way (paper Figure 5): follow plru bits
    /// from the root, 0 = left, 1 = right.
    #[inline]
    pub fn victim(&self) -> usize {
        let mut node = 1;
        while node < self.ways {
            node = 2 * node + usize::from(self.node_bit(node));
        }
        node - self.ways
    }

    /// Promotes `way` to the pseudo-MRU position (paper Figure 6): set every
    /// bit on the leaf-to-root path to point away from the block.
    ///
    /// Equivalent to `set_position(way, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[inline]
    pub fn promote(&mut self, way: usize) {
        self.set_position(way, 0);
    }

    /// Reads `way`'s position in the pseudo recency stack (paper Figure 7).
    ///
    /// Walking from the leaf upward, the `i`-th visited node contributes bit
    /// `i` of the position: the parent's plru bit if the node is a right
    /// child, its complement if a left child. Position `0` is pseudo-MRU;
    /// position `ways - 1` is the PseudoLRU victim.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[inline]
    pub fn position(&self, way: usize) -> usize {
        assert!(
            way < self.ways,
            "way {way} out of range for {}-way tree",
            self.ways
        );
        let mut node = self.ways + way;
        let mut pos = 0usize;
        let mut i = 0u32;
        while node > 1 {
            let parent = node / 2;
            let toward_block = if node % 2 == 1 {
                // Right child: a 1 bit leads here.
                self.node_bit(parent)
            } else {
                // Left child: a 0 bit leads here.
                !self.node_bit(parent)
            };
            if toward_block {
                pos |= 1 << i;
            }
            node = parent;
            i += 1;
        }
        pos
    }

    /// Writes `way`'s position in the pseudo recency stack (paper Figure 9),
    /// rewriting the `log2 ways` plru bits on its path to the root.
    ///
    /// As the paper notes, this changes *other* blocks' positions as a side
    /// effect — more drastically than true LRU shifting — which is why GIPPR
    /// vectors must be evolved specifically for PseudoLRU.
    ///
    /// # Panics
    ///
    /// Panics if `way` or `position` is out of range.
    #[inline]
    pub fn set_position(&mut self, way: usize, position: usize) {
        assert!(
            way < self.ways,
            "way {way} out of range for {}-way tree",
            self.ways
        );
        assert!(
            position < self.ways,
            "position {position} out of range for {}-way tree",
            self.ways
        );
        let mut node = self.ways + way;
        let mut i = 0u32;
        while node > 1 {
            let parent = node / 2;
            let bit = position >> i & 1 == 1;
            if node % 2 == 1 {
                self.set_node_bit(parent, bit);
            } else {
                self.set_node_bit(parent, !bit);
            }
            node = parent;
            i += 1;
        }
    }

    /// All ways' positions, indexed by way. Always a permutation of
    /// `0..ways` (each block holds a distinct pseudo recency position).
    pub fn positions(&self) -> Vec<usize> {
        (0..self.ways).map(|w| self.position(w)).collect()
    }
}

impl fmt::Debug for PlruTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PlruTree {{ ways: {}, bits: {:#b} }}",
            self.ways, self.bits
        )
    }
}

/// Exposes the production tree to the `sim-lint` PLRU battery — the tree
/// sweep, the cross-check, and `PlruModel` on the bounded checker — so the
/// invariants it proves (victim totality, position↔tree bijection,
/// promotion convergence) hold for *this* bit-packed implementation rather
/// than a model of it.
impl sim_lint::PlruState for PlruTree {
    fn from_bits(ways: usize, bits: u64) -> Self {
        PlruTree::from_raw_bits(ways, bits)
    }

    fn bits(&self) -> u64 {
        self.raw_bits()
    }

    fn ways(&self) -> usize {
        self.ways
    }

    fn victim(&self) -> usize {
        PlruTree::victim(self)
    }

    fn position(&self, way: usize) -> usize {
        PlruTree::position(self, way)
    }

    fn set_position(&mut self, way: usize, position: usize) {
        PlruTree::set_position(self, way, position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_victim_is_way_zero() {
        let t = PlruTree::new(16);
        assert_eq!(t.victim(), 0);
    }

    #[test]
    fn promote_points_victim_elsewhere() {
        let mut t = PlruTree::new(8);
        for w in 0..8 {
            t.promote(w);
            assert_ne!(t.victim(), w, "a just-promoted block is never the victim");
        }
    }

    #[test]
    fn victim_position_is_all_ones() {
        let mut t = PlruTree::new(16);
        // Arbitrary bit churn.
        for (i, w) in [3usize, 7, 1, 15, 8, 2, 9, 0, 12].iter().enumerate() {
            t.set_position(*w, (i * 5) % 16);
            assert_eq!(t.position(t.victim()), 15);
        }
    }

    #[test]
    fn positions_form_a_permutation() {
        let mut t = PlruTree::new(16);
        let churn = [(0usize, 13usize), (5, 2), (9, 9), (15, 0), (4, 7), (11, 15)];
        for &(w, p) in &churn {
            t.set_position(w, p);
            let mut ps = t.positions();
            ps.sort_unstable();
            assert_eq!(ps, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn set_position_round_trips() {
        let mut t = PlruTree::new(16);
        for w in 0..16 {
            for p in 0..16 {
                t.set_position(w, p);
                assert_eq!(
                    t.position(w),
                    p,
                    "set then read must agree (way {w}, pos {p})"
                );
            }
        }
    }

    #[test]
    fn promote_is_set_position_zero() {
        let mut a = PlruTree::new(32);
        let mut b = PlruTree::new(32);
        for w in [5usize, 31, 0, 17] {
            a.promote(w);
            b.set_position(w, 0);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn paper_figure8_example() {
        // Figure 8: a 16-way tree whose internal-node bits yield block
        // positions [5, 4, 7, 6, 1, 0, 2, 3, 11, 10, 8, 9, 14, 15, 13, 12].
        // Reconstruct the tree by setting each way's position, then check
        // the whole assignment is self-consistent.
        let fig8 = [5usize, 4, 7, 6, 1, 0, 2, 3, 11, 10, 8, 9, 14, 15, 13, 12];
        let mut t = PlruTree::new(16);
        for (w, &p) in fig8.iter().enumerate() {
            t.set_position(w, p);
        }
        assert_eq!(
            t.positions(),
            fig8,
            "figure 8's position assignment is realizable"
        );
        // The root bit in figure 8 is 1, so the victim lies in the right half.
        assert!(t.victim() >= 8);
        assert_eq!(t.position(t.victim()), 15);
    }

    #[test]
    fn two_way_tree_degenerates_to_single_bit() {
        let mut t = PlruTree::new(2);
        assert_eq!(t.victim(), 0);
        t.promote(0);
        assert_eq!(t.victim(), 1);
        t.promote(1);
        assert_eq!(t.victim(), 0);
        assert_eq!(t.bit_count(), 1);
    }

    #[test]
    fn sixty_four_way_tree_works() {
        let mut t = PlruTree::new(64);
        assert_eq!(t.bit_count(), 63);
        t.set_position(63, 0);
        assert_eq!(t.position(63), 0);
        assert_eq!(t.position(t.victim()), 63);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two_ways() {
        let _ = PlruTree::new(12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_way() {
        let t = PlruTree::new(8);
        let _ = t.position(8);
    }

    #[test]
    fn bit_budget_matches_paper() {
        assert_eq!(PlruTree::new(16).bit_count(), 15, "16-way: 15 bits per set");
    }
}

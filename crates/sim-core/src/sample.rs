//! Deterministic set-sampled sub-streams for cheap fitness fidelities.
//!
//! The GA's full-replay fitness pays for every set in the cache on every
//! candidate. For set-local policies (GIPPR/GIPLR substrates — proven
//! per-set independent by the shard-affinity model check), replaying only
//! a subset of sets is *exact* for those sets: the policy state of set `s`
//! depends only on the accesses routed to set `s`. A [`SampledStream`]
//! keeps every access whose set index satisfies
//! `set % every == offset` — a pure function of the stream and the cache
//! geometry, so the selected subset is identical no matter how many worker
//! threads evaluate the population, or whether the run was resumed from a
//! checkpoint.
//!
//! The sampled warmup is the number of *kept* accesses that fall inside
//! the full stream's warmup prefix, so the warm/measure boundary cuts the
//! sub-stream at the same point in program time as the full replay.

use crate::access::Access;
use crate::geometry::CacheGeometry;

/// A deterministic set-sampled sub-stream of a captured LLC stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledStream {
    stream: Vec<Access>,
    warmup: usize,
    every: usize,
    offset: usize,
    sampled_sets: usize,
    total_sets: usize,
}

impl SampledStream {
    /// Filters `stream` down to the sets selected by
    /// `set % every == offset` under `geom`'s set mapping. `warmup` is the
    /// full stream's warmup prefix length (in accesses).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0` or `offset >= every`.
    pub fn build(
        stream: &[Access],
        geom: &CacheGeometry,
        warmup: usize,
        every: usize,
        offset: usize,
    ) -> Self {
        assert!(every > 0, "sample period must be positive");
        assert!(offset < every, "sample offset {offset} >= period {every}");
        let mut kept = Vec::with_capacity(stream.len() / every + 1);
        let mut kept_warmup = 0;
        for (i, acc) in stream.iter().enumerate() {
            if geom.set_of(acc.addr) % every == offset {
                if i < warmup {
                    kept_warmup += 1;
                }
                kept.push(*acc);
            }
        }
        let total_sets = geom.sets();
        let sampled_sets = (0..total_sets).filter(|s| s % every == offset).count();
        SampledStream {
            stream: kept,
            warmup: kept_warmup,
            every,
            offset,
            sampled_sets,
            total_sets,
        }
    }

    /// The filtered accesses, in original stream order.
    pub fn stream(&self) -> &[Access] {
        &self.stream
    }

    /// Warmup prefix length of the filtered stream.
    pub fn warmup(&self) -> usize {
        self.warmup
    }

    /// The sampling period: one in `every` sets is kept.
    pub fn every(&self) -> usize {
        self.every
    }

    /// The sampled residue class (`set % every == offset`).
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of distinct sets selected by the filter.
    pub fn sampled_sets(&self) -> usize {
        self.sampled_sets
    }

    /// Fraction of the geometry's sets that the sample covers.
    pub fn fraction(&self) -> f64 {
        self.sampled_sets as f64 / self.total_sets.max(1) as f64
    }

    /// Number of kept accesses.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether the filter kept no accesses at all.
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(64, 4, 64).unwrap()
    }

    fn stream() -> Vec<Access> {
        // A deterministic mix touching every set with varying strides.
        let mut out = Vec::new();
        let mut addr = 0x1000u64;
        for i in 0..4096u64 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i) % (1 << 20);
            out.push(Access::read(addr, i));
        }
        out
    }

    #[test]
    fn keeps_exactly_the_selected_residue_class() {
        let g = geom();
        let s = stream();
        let sampled = SampledStream::build(&s, &g, 100, 4, 1);
        assert!(!sampled.is_empty());
        for acc in sampled.stream() {
            assert_eq!(g.set_of(acc.addr) % 4, 1);
        }
        assert_eq!(sampled.sampled_sets(), 16);
        assert_eq!(sampled.fraction(), 0.25);
        // Every kept access of the right class is present, in order.
        let expect: Vec<Access> = s
            .iter()
            .filter(|a| g.set_of(a.addr) % 4 == 1)
            .copied()
            .collect();
        assert_eq!(sampled.stream(), expect.as_slice());
    }

    #[test]
    fn warmup_counts_kept_accesses_in_the_full_warmup_prefix() {
        let g = geom();
        let s = stream();
        let sampled = SampledStream::build(&s, &g, 1000, 4, 0);
        let expect = s[..1000]
            .iter()
            .filter(|a| g.set_of(a.addr) % 4 == 0)
            .count();
        assert_eq!(sampled.warmup(), expect);
        assert!(sampled.warmup() <= sampled.len());
    }

    #[test]
    fn build_is_deterministic() {
        let g = geom();
        let s = stream();
        let a = SampledStream::build(&s, &g, 500, 8, 3);
        let b = SampledStream::build(&s, &g, 500, 8, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn residue_classes_partition_the_stream() {
        let g = geom();
        let s = stream();
        let total: usize = (0..4)
            .map(|off| SampledStream::build(&s, &g, 0, 4, off).len())
            .sum();
        assert_eq!(total, s.len());
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn rejects_offset_out_of_range() {
        let _ = SampledStream::build(&stream(), &geom(), 0, 4, 4);
    }
}

//! Per-stripe structural profiling.
//!
//! The preprocessing model (§4.2) needs two numbers per sparse stripe of a
//! node: `n_i`, the nonzeros the stripe holds, and `l_i`, the distinct dense
//! rows of `B` it requires. This module counts both in one walk of the
//! node's row slice: each nonzero bumps its stripe's count and sets its
//! column's bit in a bitset over `A`'s columns, with no test on either, and
//! each non-empty stripe's `l_i` is then the popcount of the bits over its
//! columns. No column ids are kept.

use crate::OneDimLayout;
use std::ops::Range;
use twoface_matrix::{CooMatrix, Entry};

/// Profile of one sparse stripe of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeProfile {
    /// Global stripe index.
    pub stripe: usize,
    /// `n_i`: nonzeros of this node falling in the stripe.
    pub nnz: usize,
    /// `l_i`: the number of distinct `B` rows an asynchronous transfer
    /// would fetch — the distinct columns of the node's nonzeros in the
    /// stripe. Only the count is profiled: nothing downstream of
    /// classification needs the ids, and the executor fetches from the rank
    /// structures' own `unique_cols`.
    pub rows_needed: usize,
}

impl StripeProfile {
    /// `l_i`: the number of distinct `B` rows the stripe requires.
    pub fn rows_needed(&self) -> usize {
        self.rows_needed
    }
}

/// Profile of all non-empty stripes of one node, plus which are local-input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile {
    /// The node this profile describes.
    pub rank: usize,
    /// Profiles of stripes with at least one nonzero, ascending by stripe
    /// index. Empty stripes need no communication or compute and are
    /// omitted.
    pub stripes: Vec<StripeProfile>,
}

impl NodeProfile {
    /// Builds the profile of `rank`'s local partition of `a`.
    ///
    /// `a` is the *global* matrix; its row-sorted triplets are binary-searched
    /// for `rank`'s row block, and only that slice is profiled, so profiling
    /// every rank walks each nonzero once.
    pub fn build(a: &CooMatrix, layout: &OneDimLayout, rank: usize) -> NodeProfile {
        let rows = layout.row_range(rank);
        let all = a.triplets();
        let lo = all.partition_point(|t| t.row < rows.start);
        let hi = lo + all[lo..].partition_point(|t| t.row < rows.end);
        Self::build_from_rows(&all[lo..hi], layout, rank)
    }

    /// Builds the profile of `rank` directly from its row shard — the
    /// normalized entries whose rows all fall in `rank`'s row block, as
    /// global rows or rebased to the block (the profile reads only the
    /// columns). The streamed runner profiles each rank from its spilled
    /// rank-local shard this way and never holds the global matrix;
    /// [`NodeProfile::build`] feeds it the resident matrix's row slice.
    pub fn build_from_rows<E: Entry>(
        rank_entries: &[E],
        layout: &OneDimLayout,
        rank: usize,
    ) -> NodeProfile {
        let rows = layout.row_range(rank);
        let mut nnz = vec![0usize; layout.num_stripes()];
        // One bit per column of A, set for every nonzero: a stripe's
        // `rows_needed` is the number of bits set over its columns.
        let mut seen = vec![0u64; layout.cols().div_ceil(64)];
        for t in rank_entries {
            debug_assert!(
                rows.contains(&t.row()) || t.row() < rows.len(),
                "entry outside rank's row block, in global or block-local rows"
            );
            let col = t.col();
            nnz[layout.stripe_of_col(col)] += 1;
            seen[col / 64] |= 1u64 << (col % 64);
        }
        let _ = rows;
        let stripes = nnz
            .into_iter()
            .enumerate()
            .filter(|&(_, nnz)| nnz > 0)
            .map(|(stripe, nnz)| StripeProfile {
                stripe,
                nnz,
                rows_needed: ones_in(&seen, layout.stripe_cols(stripe)),
            })
            .collect();
        NodeProfile { rank, stripes }
    }

    /// The profile of a specific stripe, if it is non-empty on this node.
    pub fn stripe(&self, stripe: usize) -> Option<&StripeProfile> {
        self.stripes.binary_search_by_key(&stripe, |p| p.stripe).ok().map(|i| &self.stripes[i])
    }

    /// Total nonzeros across all stripes (the node's local nnz).
    pub fn total_nnz(&self) -> usize {
        self.stripes.iter().map(|s| s.nnz).sum()
    }

    /// Iterates over stripes that are remote-input for this node (their
    /// dense stripe lives on another node).
    pub fn remote_stripes<'a>(
        &'a self,
        layout: &'a OneDimLayout,
    ) -> impl Iterator<Item = &'a StripeProfile> + 'a {
        self.stripes.iter().filter(move |s| layout.stripe_owner(s.stripe) != self.rank)
    }

    /// Iterates over stripes that are local-input for this node.
    pub fn local_stripes<'a>(
        &'a self,
        layout: &'a OneDimLayout,
    ) -> impl Iterator<Item = &'a StripeProfile> + 'a {
        self.stripes.iter().filter(move |s| layout.stripe_owner(s.stripe) == self.rank)
    }
}

/// The number of bits of `bits` set at the positions in `range`.
fn ones_in(bits: &[u64], range: Range<usize>) -> usize {
    if range.is_empty() {
        return 0;
    }
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    // Keep the bits from `range.start` up in the first word, and those up
    // to `range.end - 1` in the last.
    let low = !0u64 << (range.start % 64);
    let high = !0u64 >> (63 - (range.end - 1) % 64);
    if first == last {
        return (bits[first] & low & high).count_ones() as usize;
    }
    let inner: u32 = bits[first + 1..last].iter().map(|w| w.count_ones()).sum();
    ((bits[first] & low).count_ones() + inner + (bits[last] & high).count_ones()) as usize
}

/// Builds profiles for every node.
pub fn profile_all_nodes(a: &CooMatrix, layout: &OneDimLayout) -> Vec<NodeProfile> {
    (0..layout.nodes()).map(|rank| NodeProfile::build(a, layout, rank)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (CooMatrix, OneDimLayout) {
        // 8x8 matrix, 2 nodes, stripe width 2 => stripes: cols [0,2) [2,4)
        // owned by node 0; [4,6) [6,8) owned by node 1.
        let a = CooMatrix::from_triplets(
            8,
            8,
            vec![
                (0, 0, 1.0), // node 0, stripe 0 (local)
                (1, 1, 1.0), // node 0, stripe 0 (local)
                (2, 5, 1.0), // node 0, stripe 2 (remote)
                (3, 5, 1.0), // node 0, stripe 2 (remote), same col
                (4, 0, 1.0), // node 1, stripe 0 (remote)
                (7, 7, 1.0), // node 1, stripe 3 (local)
            ],
        )
        .unwrap();
        let layout = OneDimLayout::new(8, 8, 2, 2);
        (a, layout)
    }

    #[test]
    fn profiles_count_nnz_and_unique_cols() {
        let (a, layout) = fixture();
        let p0 = NodeProfile::build(&a, &layout, 0);
        assert_eq!(p0.stripes.len(), 2);
        let s0 = p0.stripe(0).unwrap();
        assert_eq!(s0.nnz, 2);
        assert_eq!(s0.rows_needed(), 2);
        let s2 = p0.stripe(2).unwrap();
        assert_eq!(s2.nnz, 2);
        assert_eq!(s2.rows_needed, 1, "duplicate columns deduplicated");
        assert_eq!(s2.rows_needed(), 1);
    }

    #[test]
    fn empty_stripes_are_omitted() {
        let (a, layout) = fixture();
        let p0 = NodeProfile::build(&a, &layout, 0);
        assert!(p0.stripe(1).is_none());
        assert!(p0.stripe(3).is_none());
    }

    #[test]
    fn local_and_remote_split() {
        let (a, layout) = fixture();
        let p1 = NodeProfile::build(&a, &layout, 1);
        let remote: Vec<usize> = p1.remote_stripes(&layout).map(|s| s.stripe).collect();
        let local: Vec<usize> = p1.local_stripes(&layout).map(|s| s.stripe).collect();
        assert_eq!(remote, vec![0]);
        assert_eq!(local, vec![3]);
    }

    #[test]
    fn totals_cover_the_matrix() {
        let (a, layout) = fixture();
        let profiles = profile_all_nodes(&a, &layout);
        let total: usize = profiles.iter().map(NodeProfile::total_nnz).sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn build_from_rows_matches_full_matrix_build() {
        let (a, layout) = fixture();
        for rank in 0..layout.nodes() {
            let rows = layout.row_range(rank);
            let shard: Vec<_> =
                a.triplets().iter().filter(|t| rows.contains(&t.row)).copied().collect();
            let from_shard = NodeProfile::build_from_rows(&shard, &layout, rank);
            assert_eq!(from_shard, NodeProfile::build(&a, &layout, rank), "rank {rank}");
        }
    }

    #[test]
    fn ones_in_counts_the_bits_of_a_range() {
        // Bits 3, 5, 62, 63 of word 0; 0, 1 and 40 of word 1; 0 and 63 of
        // word 2.
        let bits = [1 << 3 | 1 << 5 | 3 << 62, 3 | 1 << 40, 1 | 1 << 63];
        let by_bit = |range: Range<usize>| {
            range.clone().filter(|&i| bits[i / 64] >> (i % 64) & 1 == 1).count()
        };
        // Inside one word; crossing one or two word boundaries; ending on a
        // word boundary; starting on one; empty.
        for range in [3..6, 4..5, 6..62, 0..64, 62..66, 5..129, 64..128, 0..192, 63..64, 7..7] {
            assert_eq!(ones_in(&bits, range.clone()), by_bit(range.clone()), "{range:?}");
        }
        assert_eq!(ones_in(&bits, 3..6), 2);
        assert_eq!(ones_in(&bits, 62..66), 4);
        assert_eq!(ones_in(&bits, 0..64), 4);
        assert_eq!(ones_in(&bits, 0..192), 9);
    }

    #[test]
    fn node_with_no_nonzeros_has_empty_profile() {
        let a = CooMatrix::from_triplets(8, 8, vec![(0, 0, 1.0)]).unwrap();
        let layout = OneDimLayout::new(8, 8, 4, 2);
        let p3 = NodeProfile::build(&a, &layout, 3);
        assert!(p3.stripes.is_empty());
        assert_eq!(p3.total_nnz(), 0);
    }
}

//! Shard views over the graph's edge lists.
//!
//! A [`SrcRangeView`] restricts the per-label pair relations `⟦ℓ⟧` to pairs
//! whose *source* vertex falls in a contiguous id range. Because the label
//! faces are stored row by row in vertex order, the restriction of every
//! relation is a contiguous row window of each spanned chunk — shard views
//! are zero-copy and O(log + #chunks in range) to obtain.
//!
//! Source-contiguous shards are the unit of parallelism for the engine's
//! sharded index build: the set of s-t pairs `P≤k` partitions exactly by
//! source vertex (every path from `v` contributes only to pairs `(v, ·)`),
//! so per-shard refinements are independent, and concatenating shard
//! results in range order preserves global pair order without re-sorting.

use crate::graph::{Graph, PairList, VertexId};
use crate::label::ExtLabel;
use std::ops::Range;

/// A zero-copy view of a graph's edge lists restricted to source vertices
/// in `range` (see the module docs).
#[derive(Clone, Copy)]
pub struct SrcRangeView<'g> {
    graph: &'g Graph,
    range: (VertexId, VertexId),
}

impl<'g> SrcRangeView<'g> {
    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The source-vertex range of this shard.
    #[inline]
    pub fn range(&self) -> Range<VertexId> {
        self.range.0..self.range.1
    }

    /// The restriction of `⟦ℓ⟧` to pairs with source in this shard's range
    /// — a source-contiguous sub-view of the graph's sorted relation
    /// (zero-copy: the view only narrows the per-chunk row windows).
    pub fn edge_pairs(&self, l: ExtLabel) -> PairList<'g> {
        self.graph.edge_pairs(l).restrict_src(self.range.0, self.range.1)
    }

    /// Total restricted edge-pair entries across all extended labels (the
    /// shard's share of level-1 work; used for load balancing diagnostics).
    pub fn pair_count(&self) -> usize {
        self.graph.ext_labels().map(|l| self.edge_pairs(l).len()).sum()
    }
}

impl Graph {
    /// A zero-copy shard view restricted to source vertices in `range`.
    pub fn src_range_view(&self, range: Range<VertexId>) -> SrcRangeView<'_> {
        let hi = range.end.min(self.vertex_count());
        let lo = range.start.min(hi);
        SrcRangeView { graph: self, range: (lo, hi) }
    }

    /// Splits the vertex ids into at most `shards` contiguous ranges with
    /// approximately equal total extended degree (the dominant per-shard
    /// cost driver of level-1 refinement). Returns fewer ranges when the
    /// graph is too small to fill them; every returned range is non-empty
    /// and the ranges cover `0..vertex_count()` in ascending order.
    pub fn balanced_src_ranges(&self, shards: usize) -> Vec<Range<VertexId>> {
        balanced_ranges_by_weight(self.vertex_count(), shards, |v| self.ext_degree(v))
    }

    /// Like [`Graph::balanced_src_ranges`], but weighting each source
    /// vertex by its out-degree under the given extended labels only
    /// (labels may repeat; repeated labels count twice). This is the range
    /// geometry for **interest-aware** shard builds: a shard's work is
    /// driven by the expansions seeded at its sources, one per outgoing
    /// edge per indexed sequence starting with that edge's label — not by
    /// the vertex's total degree.
    pub fn balanced_src_ranges_for_labels(
        &self,
        labels: &[ExtLabel],
        shards: usize,
    ) -> Vec<Range<VertexId>> {
        // Fold repeats into per-distinct-label multiplicities up front:
        // callers pass one entry per indexed *sequence* (hundreds for
        // full-coverage interest sets), and the weight closure runs per
        // vertex — it must be O(distinct labels), not O(sequences).
        let mut counts: Vec<(ExtLabel, usize)> = Vec::new();
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        for l in sorted {
            match counts.last_mut() {
                Some((pl, c)) if *pl == l => *c += 1,
                _ => counts.push((l, 1)),
            }
        }
        balanced_ranges_by_weight(self.vertex_count(), shards, |v| {
            counts.iter().map(|&(l, c)| c * self.degree(v, l)).sum()
        })
    }
}

/// Splits `0..n` into at most `shards` contiguous ranges of approximately
/// equal total `weight` (each vertex counts at least 1 so empty vertices
/// still tile). The shared range balancer behind
/// [`Graph::balanced_src_ranges`] and the index builder's
/// refinement-weighted variant. Every returned range is non-empty and the
/// ranges tile `0..n` in ascending order; `n == 0` or `shards == 0` yields
/// no ranges.
pub fn balanced_ranges_by_weight(
    n: u32,
    shards: usize,
    weight: impl Fn(u32) -> usize,
) -> Vec<Range<u32>> {
    if n == 0 || shards == 0 {
        return Vec::new();
    }
    let shards = shards.min(n as usize);
    let total: usize = (0..n).map(|v| weight(v).max(1)).sum();
    let per_shard = total.div_ceil(shards);
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0u32;
    let mut acc = 0usize;
    for v in 0..n {
        acc += weight(v).max(1);
        let remaining_shards = shards - ranges.len();
        let remaining_vertices = n - v;
        // Close the shard when it is full — or when every remaining
        // vertex is needed to keep later ranges non-empty.
        if acc >= per_shard || remaining_vertices <= remaining_shards as u32 {
            if ranges.len() + 1 == shards {
                break; // last shard takes the tail
            }
            ranges.push(start..v + 1);
            start = v + 1;
            acc = 0;
        }
    }
    ranges.push(start..n);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::pair::Pair;
    use crate::GraphBuilder;

    #[test]
    fn view_slices_match_filtering() {
        let g = generate::gex();
        let n = g.vertex_count();
        for lo in 0..=n {
            for hi in lo..=n {
                let view = g.src_range_view(lo..hi);
                for l in g.ext_labels() {
                    let expected: Vec<Pair> =
                        g.edge_pairs(l).iter().filter(|p| (lo..hi).contains(&p.src())).collect();
                    assert_eq!(view.edge_pairs(l).to_vec(), expected, "label {l:?} [{lo},{hi})");
                    assert_eq!(view.edge_pairs(l).len(), expected.len());
                }
            }
        }
    }

    #[test]
    fn balanced_ranges_cover_and_are_nonempty() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(57, 300, 3, 1));
        for shards in [1, 2, 3, 7, 8, 57, 100] {
            let ranges = g.balanced_src_ranges(shards);
            assert!(ranges.len() <= shards);
            assert!(!ranges.is_empty());
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, g.vertex_count());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must tile");
            }
            for r in &ranges {
                assert!(r.start < r.end, "empty shard range {r:?} for {shards} shards");
            }
        }
    }

    #[test]
    fn balanced_ranges_roughly_balance_degree() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(400, 3_000, 3, 5));
        let ranges = g.balanced_src_ranges(4);
        assert_eq!(ranges.len(), 4);
        let loads: Vec<usize> =
            ranges.iter().map(|r| (r.start..r.end).map(|v| g.ext_degree(v)).sum()).collect();
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(*max <= min * 4 + 64, "shard loads far apart: {loads:?}");
    }

    #[test]
    fn label_weighted_ranges_balance_selected_labels_only() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(200, 1_500, 3, 3));
        let labels: Vec<ExtLabel> = g.ext_labels().take(2).collect();
        let ranges = g.balanced_src_ranges_for_labels(&labels, 4);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, g.vertex_count());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must tile");
        }
        let loads: Vec<usize> = ranges
            .iter()
            .map(|r| {
                (r.start..r.end)
                    .map(|v| labels.iter().map(|&l| g.degree(v, l)).sum::<usize>())
                    .sum()
            })
            .collect();
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(*max <= min * 4 + 64, "label-weighted shard loads far apart: {loads:?}");
        // Degenerate inputs behave like the unweighted variant.
        assert!(!g.balanced_src_ranges_for_labels(&[], 3).is_empty());
        assert!(GraphBuilder::new().build().balanced_src_ranges_for_labels(&labels, 3).is_empty());
    }

    #[test]
    fn degenerate_views() {
        let g = generate::gex();
        let v = g.src_range_view(0..0);
        assert_eq!(v.pair_count(), 0);
        // Out-of-range clamps.
        let v = g.src_range_view(0..u32::MAX);
        assert_eq!(v.range(), 0..g.vertex_count());
        let empty = GraphBuilder::new().build();
        assert!(empty.balanced_src_ranges(4).is_empty());
        assert!(g.balanced_src_ranges(0).is_empty());
    }

    #[test]
    fn whole_range_view_equals_graph() {
        let g = generate::random_graph(&generate::RandomGraphConfig::uniform(40, 200, 3, 9));
        let view = g.src_range_view(0..g.vertex_count());
        for l in g.ext_labels() {
            assert_eq!(view.edge_pairs(l).to_vec(), g.edge_pairs(l).to_vec());
        }
    }
}

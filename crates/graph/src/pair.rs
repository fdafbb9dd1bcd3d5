//! Source-target vertex pairs packed into a single machine word.

use crate::graph::VertexId;
use std::fmt;

/// An s-t vertex pair `(v, u)` packed as `v << 32 | u`.
///
/// The packing makes pair sets flat sorted `Vec<Pair>`s: sorting orders by
/// source first, then target, which is exactly what the index's sorted-merge
/// operators (Sec. IV-D) need. The type is `#[repr(transparent)]` over `u64`
/// so vectors of pairs have no overhead versus raw words.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Pair(pub u64);

impl Pair {
    /// Packs `(v, u)`.
    #[inline]
    pub fn new(v: VertexId, u: VertexId) -> Self {
        Pair(((v as u64) << 32) | u as u64)
    }

    /// The source vertex `v`.
    #[inline]
    pub fn src(self) -> VertexId {
        (self.0 >> 32) as u32
    }

    /// The target vertex `u`.
    #[inline]
    pub fn dst(self) -> VertexId {
        self.0 as u32
    }

    /// Whether the pair is cyclic (`v = u`), the paper's Def. 4.1 cond. 1.
    #[inline]
    pub fn is_loop(self) -> bool {
        self.src() == self.dst()
    }

    /// The reversed pair `(u, v)`.
    #[inline]
    pub fn swap(self) -> Pair {
        Pair::new(self.dst(), self.src())
    }
}

impl fmt::Debug for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.src(), self.dst())
    }
}

/// Sorts and deduplicates a pair vector in place (set normalization).
/// Uses the counting sort of [`sorted_concat`] when the source range is
/// no larger than the input.
pub fn normalize(pairs: &mut Vec<Pair>) {
    if let Some(sorted) = counting_sort(&[pairs.as_slice()], pairs.len()) {
        *pairs = sorted;
    } else {
        pairs.sort_unstable();
    }
    pairs.dedup();
}

/// Concatenates `parts` (holding `total` pairs) into one sorted vector
/// (duplicates kept). When the source range is no larger than `total`,
/// a counting sort by source replaces the comparison sort: `O(total +
/// range)` with a stable pre-pass by target when the target range is
/// small too, otherwise plus a sort of each source's bucket.
pub fn sorted_concat(parts: &[&[Pair]], total: usize) -> Vec<Pair> {
    counting_sort(parts, total).unwrap_or_else(|| {
        let mut out = Vec::with_capacity(total);
        for part in parts {
            out.extend_from_slice(part);
        }
        out.sort_unstable();
        out
    })
}

/// The counting sort behind [`sorted_concat`]; `None` when the source
/// range exceeds `total` (or there is nothing to sort).
fn counting_sort(parts: &[&[Pair]], total: usize) -> Option<Vec<Pair>> {
    let items = || parts.iter().flat_map(|part| part.iter().copied());
    let (mut src, mut dst) = ((VertexId::MAX, 0), (VertexId::MAX, 0));
    for p in items() {
        src = (src.0.min(p.src()), src.1.max(p.src()));
        dst = (dst.0.min(p.dst()), dst.1.max(p.dst()));
    }
    if total < 2 || (src.1 - src.0) as usize >= total {
        return None;
    }
    if ((dst.1 - dst.0) as usize) < total {
        // LSD radix: stable by target, then stable by source.
        let by_dst = scatter_by(items(), total, dst, Pair::dst);
        return Some(scatter_by(by_dst.iter().copied(), total, src, Pair::src));
    }
    let mut out = scatter_by(items(), total, src, Pair::src);
    for bucket in out.chunk_by_mut(|a, b| a.src() == b.src()) {
        bucket.sort_unstable();
    }
    Some(out)
}

/// Stable counting sort of `total` pairs by `key`, whose values lie in
/// the inclusive range `(lo, hi)`.
fn scatter_by(
    items: impl Iterator<Item = Pair> + Clone,
    total: usize,
    (lo, hi): (VertexId, VertexId),
    key: impl Fn(Pair) -> VertexId,
) -> Vec<Pair> {
    // starts[k + 1] counts key lo + k; the prefix sum turns starts[k]
    // into the first slot of key lo + k.
    let mut starts = vec![0usize; (hi - lo) as usize + 2];
    for p in items.clone() {
        starts[(key(p) - lo) as usize + 1] += 1;
    }
    for k in 1..starts.len() {
        starts[k] += starts[k - 1];
    }
    let mut out = vec![Pair(0); total];
    for p in items {
        let slot = &mut starts[(key(p) - lo) as usize];
        out[*slot] = p;
        *slot += 1;
    }
    out
}

/// Size-ratio threshold past which [`intersect_sorted`] switches from the
/// linear merge to the galloping search: with `|small| · 16 < |large|` the
/// `O(|small| · log |large|)` gallop beats walking the large side.
const GALLOP_RATIO: usize = 16;

/// Intersects two sorted, deduplicated slices (pairs, class ids — any
/// ordered element type).
///
/// Dispatches on the size ratio: balanced inputs take the linear
/// sorted-merge, skewed inputs (one side ≥ 16× the other) the galloping
/// variant [`intersect_gallop`] so the cost tracks the *smaller* operand.
pub fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    if a.len().saturating_mul(GALLOP_RATIO) < b.len() {
        return intersect_gallop(a, b, out);
    }
    if b.len().saturating_mul(GALLOP_RATIO) < a.len() {
        return intersect_gallop(b, a, out);
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping (exponential-search) intersection of two sorted deduplicated
/// slices: for each element of `small`, gallop forward in `large` —
/// doubling steps to bracket the element, then a binary search inside the
/// bracket. `O(|small| · log |large|)`, the right shape when one operand
/// dwarfs the other (skewed label frequencies, tiny class sets against
/// huge relations).
pub fn intersect_gallop<T: Ord + Copy>(small: &[T], large: &[T], out: &mut Vec<T>) {
    let mut lo = 0usize;
    for &x in small {
        if lo >= large.len() {
            break;
        }
        // Bracket: after the loop the first element >= x lies in
        // large[lo ..= lo + step].
        let mut step = 1usize;
        while lo + step < large.len() && large[lo + step] < x {
            step <<= 1;
        }
        let hi = (lo + step + 1).min(large.len());
        let at = lo + large[lo..hi].partition_point(|&y| y < x);
        if at < large.len() && large[at] == x {
            out.push(x);
            lo = at + 1;
        } else {
            lo = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let p = Pair::new(0xDEAD_BEEF, 0x0042_4242);
        assert_eq!(p.src(), 0xDEAD_BEEF);
        assert_eq!(p.dst(), 0x0042_4242);
        assert!(!p.is_loop());
        assert!(Pair::new(3, 3).is_loop());
        assert_eq!(p.swap().src(), p.dst());
    }

    #[test]
    fn ordering_is_source_major() {
        let a = Pair::new(1, 9);
        let b = Pair::new(2, 0);
        assert!(a < b);
        let c = Pair::new(1, 10);
        assert!(a < c);
    }

    #[test]
    fn normalize_dedups() {
        let mut v = vec![Pair::new(2, 1), Pair::new(1, 1), Pair::new(2, 1)];
        normalize(&mut v);
        assert_eq!(v, vec![Pair::new(1, 1), Pair::new(2, 1)]);
    }

    #[test]
    fn sorted_concat_matches_a_full_sort() {
        // Narrow ranges (radix by target, then source), a wide target
        // range (by source, then per-bucket sorts) and a wide source range
        // (full sort).
        for (ss, ts) in [(7u32, 1u32), (1, 1 << 26), (1 << 29, 1)] {
            let a: Vec<Pair> = (0..40u32).map(|i| Pair::new(i % 5 * ss, (40 - i) * ts)).collect();
            let b: Vec<Pair> = (0..25u32).map(|i| Pair::new(i % 3 * ss, i * ts)).collect();
            let mut want = [a.clone(), b.clone()].concat();
            want.sort_unstable();
            assert_eq!(sorted_concat(&[&a, &b], a.len() + b.len()), want);
            want.dedup();
            let mut v = [a, b].concat();
            normalize(&mut v);
            assert_eq!(v, want);
        }
        assert!(sorted_concat(&[], 0).is_empty());
    }

    #[test]
    fn gallop_matches_merge_on_skewed_inputs() {
        let large: Vec<Pair> = (0..1024u32).map(|i| Pair::new(i / 8, i % 8)).collect();
        let small = vec![Pair::new(3, 5), Pair::new(50, 2), Pair::new(500, 0)];
        let naive: Vec<Pair> = small.iter().copied().filter(|p| large.contains(p)).collect();
        let mut gallop = Vec::new();
        intersect_gallop(&small, &large, &mut gallop);
        assert_eq!(gallop, naive);
        assert_eq!(gallop, vec![Pair::new(3, 5), Pair::new(50, 2)]);
        // The dispatching entry point agrees regardless of argument order.
        let mut a = Vec::new();
        intersect_sorted(&small, &large, &mut a);
        let mut b = Vec::new();
        intersect_sorted(&large, &small, &mut b);
        assert_eq!(a, gallop);
        assert_eq!(b, gallop);
        // Generic over other ordered ids too.
        let mut ids = Vec::new();
        intersect_gallop(&[7u32, 900], &(0..800u32).collect::<Vec<_>>(), &mut ids);
        assert_eq!(ids, vec![7]);
    }

    #[test]
    fn intersection() {
        let a = vec![Pair::new(1, 1), Pair::new(1, 2), Pair::new(3, 1)];
        let b = vec![Pair::new(1, 2), Pair::new(2, 2), Pair::new(3, 1)];
        let mut out = Vec::new();
        intersect_sorted(&a, &b, &mut out);
        assert_eq!(out, vec![Pair::new(1, 2), Pair::new(3, 1)]);
    }
}

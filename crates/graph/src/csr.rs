//! Per-chunk, per-label **CSR faces** — the graph's only edge storage.
//!
//! A [`Graph`](crate::Graph)'s topology is a sequence of copy-on-write
//! [`ChunkCsr`]s, each covering a contiguous vertex range. For every
//! extended label with at least one edge whose source lies in the range,
//! a chunk holds a [`LabelFace`]: one `u32` offset per vertex row into a
//! flat sorted target array, so `targets(v, ℓ)` is two array loads after
//! one binary search over the labels present in the chunk. Faces are
//! bidirectional through the label alphabet: the reverse of `ℓ` is the
//! face of the extended label `ℓ⁻¹`, so every edge fact is stored once
//! per direction and both directions are answered from that copy.
//!
//! # Invariants
//!
//! * `labels` is strictly ascending and lists exactly the labels that
//!   have at least one target in the chunk; `faces[i]` is the face of
//!   `labels[i]`. A face that loses its last target is dropped, so
//!   walking a vertex's adjacency costs O(labels present + degree),
//!   never O(alphabet).
//! * Every face has `rows + 1` offsets; the targets of each row are
//!   strictly sorted. Concatenating a face's rows in row order yields the
//!   chunk's source-contiguous slice of the sorted relation `⟦ℓ⟧`.
//! * Writes go through `Graph::insert_edge` / `Graph::remove_edge` /
//!   `Graph::add_vertex`, which edit the faces of the (at most two)
//!   chunks that `Arc::make_mut` copies. An edit shifts one target array
//!   and one offset suffix — O(chunk), the same order as the copy.

use crate::graph::VertexId;
use crate::label::ExtLabel;

/// The CSR of one extended label inside one chunk (see the module docs
/// for the invariants).
#[derive(Clone)]
pub struct LabelFace {
    /// `offsets[r]..offsets[r + 1]` indexes `targets` with the sorted
    /// targets of vertex `start + r`. Length `rows + 1`.
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
}

impl LabelFace {
    /// Number of pairs the face covers.
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.targets.len()
    }

    /// Sorted targets of the vertex at in-chunk row `r`.
    #[inline]
    pub fn targets_of_row(&self, r: usize) -> &[VertexId] {
        &self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Number of targets in rows `r0..r1`.
    #[inline]
    fn count_rows(&self, r0: usize, r1: usize) -> usize {
        (self.offsets[r1] - self.offsets[r0]) as usize
    }

    /// Inserts `t` into row `r`; `false` if it was present.
    fn insert(&mut self, r: usize, t: VertexId) -> bool {
        let lo = self.offsets[r] as usize;
        match self.targets_of_row(r).binary_search(&t) {
            Ok(_) => false,
            Err(i) => {
                self.targets.insert(lo + i, t);
                self.offsets[r + 1..].iter_mut().for_each(|o| *o += 1);
                true
            }
        }
    }

    /// Removes `t` from row `r`; `false` if it was absent.
    fn remove(&mut self, r: usize, t: VertexId) -> bool {
        let lo = self.offsets[r] as usize;
        match self.targets_of_row(r).binary_search(&t) {
            Ok(i) => {
                self.targets.remove(lo + i);
                self.offsets[r + 1..].iter_mut().for_each(|o| *o -= 1);
                true
            }
            Err(_) => false,
        }
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<LabelFace>() + (self.offsets.capacity() + self.targets.capacity()) * 4
    }
}

/// One copy-on-write chunk of a graph's topology: a [`LabelFace`] per
/// extended label present among the edges leaving the chunk's vertex
/// range `start..start + rows`.
#[derive(Clone)]
pub struct ChunkCsr {
    start: VertexId,
    rows: u32,
    /// Present extended labels, strictly ascending.
    labels: Vec<u16>,
    /// `faces[i]` is the face of `labels[i]`.
    faces: Vec<LabelFace>,
}

impl ChunkCsr {
    /// Builds a chunk over `start..start + rows` from its extended edges
    /// as `(ext label, source, target)`, sorted and deduplicated, every
    /// source inside the range.
    pub(crate) fn from_sorted(
        start: VertexId,
        rows: usize,
        edges: &[(u16, VertexId, VertexId)],
    ) -> ChunkCsr {
        let mut labels = Vec::new();
        let mut faces = Vec::new();
        for group in edges.chunk_by(|a, b| a.0 == b.0) {
            let mut offsets = Vec::with_capacity(rows + 1);
            offsets.push(0);
            let mut i = 0;
            for r in 0..rows {
                let v = start + r as u32;
                while i < group.len() && group[i].1 == v {
                    i += 1;
                }
                offsets.push(i as u32);
            }
            debug_assert_eq!(i, group.len(), "edge sources outside chunk range");
            labels.push(group[0].0);
            faces.push(LabelFace { offsets, targets: group.iter().map(|e| e.2).collect() });
        }
        ChunkCsr { start, rows: rows as u32, labels, faces }
    }

    /// First vertex id of the chunk's range.
    #[inline]
    pub fn start(&self) -> VertexId {
        self.start
    }

    /// Number of vertex rows in the chunk.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The face of an extended label, if the chunk has pairs for it.
    #[inline]
    pub fn face(&self, l: ExtLabel) -> Option<&LabelFace> {
        self.labels.binary_search(&l.0).ok().map(|i| &self.faces[i])
    }

    /// Sorted targets of `(v, ℓ)` where `v` lies in this chunk's range.
    #[inline]
    pub fn targets(&self, v: VertexId, l: ExtLabel) -> &[VertexId] {
        debug_assert!(v >= self.start && v - self.start < self.rows);
        match self.face(l) {
            Some(f) => f.targets_of_row((v - self.start) as usize),
            None => &[],
        }
    }

    /// The extended adjacency of in-chunk row `r`, in `(label, target)`
    /// order.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (ExtLabel, VertexId)> + '_ {
        self.labels
            .iter()
            .zip(&self.faces)
            .flat_map(move |(&l, f)| f.targets_of_row(r).iter().map(move |&t| (ExtLabel(l), t)))
    }

    /// Extended degree of in-chunk row `r`.
    pub fn row_degree(&self, r: usize) -> usize {
        self.faces.iter().map(|f| f.count_rows(r, r + 1)).sum()
    }

    /// Number of `ℓ`-pairs whose source lies in `lo..hi` (clamped to the
    /// chunk's range).
    pub(crate) fn count_in(&self, l: ExtLabel, lo: VertexId, hi: VertexId) -> usize {
        let (r0, r1) = self.row_window(lo, hi);
        self.face(l).map_or(0, |f| f.count_rows(r0, r1))
    }

    /// The in-chunk rows `r0..r1` of the sources in `lo..hi`.
    #[inline]
    pub(crate) fn row_window(&self, lo: VertexId, hi: VertexId) -> (usize, usize) {
        let clamp = |v: VertexId| v.saturating_sub(self.start).min(self.rows) as usize;
        (clamp(lo), clamp(hi).max(clamp(lo)))
    }

    /// Inserts the extended edge `(v, ℓ, t)`; `false` if present.
    pub(crate) fn insert(&mut self, v: VertexId, l: ExtLabel, t: VertexId) -> bool {
        let r = (v - self.start) as usize;
        let i = match self.labels.binary_search(&l.0) {
            Ok(i) => i,
            Err(i) => {
                let offsets = vec![0; self.rows as usize + 1];
                self.labels.insert(i, l.0);
                self.faces.insert(i, LabelFace { offsets, targets: Vec::new() });
                i
            }
        };
        self.faces[i].insert(r, t)
    }

    /// Removes the extended edge `(v, ℓ, t)`; `false` if absent. A face
    /// left empty is dropped.
    pub(crate) fn remove(&mut self, v: VertexId, l: ExtLabel, t: VertexId) -> bool {
        let r = (v - self.start) as usize;
        let Ok(i) = self.labels.binary_search(&l.0) else { return false };
        let removed = self.faces[i].remove(r, t);
        if self.faces[i].targets.is_empty() {
            self.labels.remove(i);
            self.faces.remove(i);
        }
        removed
    }

    /// Appends one isolated vertex row.
    pub(crate) fn push_row(&mut self) {
        self.rows += 1;
        for f in &mut self.faces {
            f.offsets.push(f.targets.len() as u32);
        }
    }

    /// Deep memory footprint in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        std::mem::size_of::<ChunkCsr>()
            + self.labels.capacity() * 2
            + (self.faces.capacity() - self.faces.len()) * std::mem::size_of::<LabelFace>()
            + self.faces.iter().map(LabelFace::size_bytes).sum::<usize>()
    }
}

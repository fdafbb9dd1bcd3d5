//! The directed edge-labeled graph type and its builder.

use crate::csr::ChunkCsr;
use crate::label::{ExtLabel, Label};
use crate::pair::Pair;
use std::collections::HashMap;
use std::sync::Arc;

/// Dense vertex identifier (`u32`, per the small-integer-id guideline).
pub type VertexId = u32;

/// One decoded topology chunk as the store persists it: the chunk's
/// first vertex id plus one sorted `(ext_label, target)` adjacency row
/// per vertex — the row-major serialisation of a [`ChunkCsr`]'s faces.
pub type TopologyChunkParts = (VertexId, Vec<Vec<(u16, VertexId)>>);

/// Target total adjacency entries per copy-on-write chunk. Chunk
/// boundaries are computed with [`crate::view::balanced_ranges_by_weight`]
/// over the extended degrees, so every chunk carries roughly this much
/// data regardless of degree skew — the unit a write transaction copies.
/// Deliberately fine-grained: an edge op touches exactly two chunks, so
/// sharing quality is `1 − touched/total`, and cloning even hundreds of
/// thousands of `Arc`s is still orders of magnitude cheaper than one
/// deep copy.
const TARGET_CHUNK_WEIGHT: usize = 1 << 9;

/// Row count past which [`Graph::add_vertex`] opens a fresh chunk instead
/// of growing the last one (keeps append-heavy workloads from
/// concentrating all new vertices in one ever-growing chunk).
const CHUNK_SPLIT_ROWS: usize = 4096;

/// Structural-sharing report of [`Graph::cow_diff`] /
/// `CpqxIndex::cow_diff` (in `cpqx-core`): how many copy-on-write chunks
/// of a descendant state were freshly copied versus still shared with the
/// state it was cloned from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CowDiff {
    /// Chunks not shared with the predecessor (copied or newly created).
    pub chunks_copied: usize,
    /// Chunks physically shared (`Arc::ptr_eq`) with the predecessor.
    pub chunks_shared: usize,
}

impl CowDiff {
    /// Accumulates another diff into this one.
    pub fn merge(self, other: CowDiff) -> CowDiff {
        CowDiff {
            chunks_copied: self.chunks_copied + other.chunks_copied,
            chunks_shared: self.chunks_shared + other.chunks_shared,
        }
    }

    /// Classifies one chunked store positionally against its predecessor:
    /// an `Arc` at the same index that is `ptr_eq` counts as shared,
    /// anything else (copied by `Arc::make_mut`, newly created, or absent
    /// before) as copied. The single classification rule behind every
    /// `cow_diff` implementation.
    pub fn record_arcs<T>(&mut self, now: &[Arc<T>], before: &[Arc<T>]) {
        for (i, c) in now.iter().enumerate() {
            match before.get(i) {
                Some(b) if Arc::ptr_eq(b, c) => self.chunks_shared += 1,
                _ => self.chunks_copied += 1,
            }
        }
    }
}

/// A borrowed view of a (possibly source-restricted) per-label pair
/// relation `⟦ℓ⟧`, read from the label's face in each topology chunk.
///
/// Chunks cover ascending vertex ranges and face rows ascend within a
/// chunk, so [`PairList::iter`] yields the relation in sorted order; point
/// and bulk access goes through [`PairList::iter`] / [`PairList::to_vec`]
/// / [`PairList::contains`].
#[derive(Clone, Copy)]
pub struct PairList<'g> {
    chunks: &'g [Arc<ChunkCsr>],
    label: ExtLabel,
    /// Source-vertex bounds `[lo, hi)` of the view.
    lo: VertexId,
    hi: VertexId,
    len: usize,
}

impl<'g> PairList<'g> {
    /// Number of pairs in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunks whose vertex range intersects `[lo, hi)` (two partition
    /// points over the chunk starts), so narrow restrictions stay cheap on
    /// many-chunk graphs.
    fn spanned(&self) -> &'g [Arc<ChunkCsr>] {
        // First chunk whose range can reach lo … last whose start is
        // below hi (chunk i covers [start_i, start_{i+1})).
        let begin = self.chunks.partition_point(|c| c.start() <= self.lo).saturating_sub(1);
        let end = self.chunks.partition_point(|c| c.start() < self.hi).max(begin);
        &self.chunks[begin..end]
    }

    /// The non-empty rows of the view as `(source, sorted targets)`, in
    /// ascending source order.
    fn rows(self) -> impl Iterator<Item = (VertexId, &'g [VertexId])> {
        let (label, lo, hi) = (self.label, self.lo, self.hi);
        self.spanned().iter().flat_map(move |c| {
            let (r0, r1) = c.row_window(lo, hi);
            c.face(label).into_iter().flat_map(move |f| {
                (r0..r1).filter_map(move |r| {
                    let ts = f.targets_of_row(r);
                    (!ts.is_empty()).then(|| (c.start() + r as u32, ts))
                })
            })
        })
    }

    /// Iterates the pairs in ascending order.
    pub fn iter(self) -> impl Iterator<Item = Pair> + 'g {
        self.rows().flat_map(|(v, ts)| ts.iter().map(move |&t| Pair::new(v, t)))
    }

    /// Collects the view into an owned sorted vector.
    pub fn to_vec(self) -> Vec<Pair> {
        let mut out = Vec::with_capacity(self.len);
        for (v, ts) in self.rows() {
            out.extend(ts.iter().map(|&t| Pair::new(v, t)));
        }
        out
    }

    /// Whether the view contains `p`: the source vertex routes to the
    /// single chunk that can hold it (partition point over the chunk
    /// starts), followed by one binary search inside its face row.
    pub fn contains(self, p: Pair) -> bool {
        let v = p.src();
        if v < self.lo || v >= self.hi {
            return false;
        }
        let ci = self.chunks.partition_point(|c| c.start() <= v);
        if ci == 0 {
            return false;
        }
        let c = &self.chunks[ci - 1];
        v - c.start() < c.rows() && c.targets(v, self.label).binary_search(&p.dst()).is_ok()
    }

    /// The view restricted to pairs with source in `[lo, hi)`. Each
    /// spanned chunk contributes an offset difference of its face —
    /// O(log + #chunks in range).
    pub fn restrict_src(self, lo: VertexId, hi: VertexId) -> PairList<'g> {
        let lo = lo.max(self.lo);
        let hi = hi.min(self.hi).max(lo);
        let mut out = PairList { chunks: self.chunks, label: self.label, lo, hi, len: 0 };
        if lo < hi {
            out.len = out.spanned().iter().map(|c| c.count_in(self.label, lo, hi)).sum();
        }
        out
    }
}

impl<'g> IntoIterator for PairList<'g> {
    type Item = Pair;
    type IntoIter = Box<dyn Iterator<Item = Pair> + 'g>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl std::fmt::Debug for PairList<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A directed edge-labeled graph `G = (V, E, L)` in its *extended* form.
///
/// Every base edge `(v, u, ℓ)` is stored twice: as `(v, u, ℓ)` and as the
/// inverse extended edge `(u, v, ℓ⁻¹)`, mirroring the paper's extension of
/// `E` and `L` (Sec. III-A). The one stored form is the per-label CSR face
/// ([`crate::csr`]): per vertex and extended label, a sorted target row.
/// Every read is served from it:
///
/// * [`Graph::neighbors`] — one face row, two array loads after routing;
/// * [`Graph::adjacency`] — a vertex's rows across the labels present in
///   its chunk, in `(label, target)` order;
/// * [`Graph::edge_pairs`] — the sorted relation `⟦ℓ⟧` as a [`PairList`]
///   over the label's faces, used by index construction, LOOKUP leaves of
///   the baseline engines, and the matchers.
///
/// [`Graph::insert_edge`] / [`Graph::remove_edge`] edit both halves in
/// place (the maintenance experiments, Tables V–VII and Fig. 13, rely on
/// this). Multi-edges collapse (`E` is a set).
///
/// # Copy-on-write storage
///
/// All vertex-indexed state lives in contiguous-range chunks behind
/// `Arc`, with boundaries balanced by extended degree
/// ([`crate::view::balanced_ranges_by_weight`]): topology in
/// [`ChunkCsr`]s, display names in a parallel per-range store so edge
/// churn never copies `String`s. `Graph::clone` is therefore O(#chunks) —
/// pointer bumps — and an edge mutation copies only the two endpoint
/// topology chunks via `Arc::make_mut`. This is what makes the engine's
/// snapshot-per-write transaction O(changed) instead of O(graph);
/// [`Graph::cow_diff`] reports the sharing between two snapshots.
#[derive(Clone)]
pub struct Graph {
    label_names: Vec<String>,
    chunks: Vec<Arc<ChunkCsr>>,
    /// Display names in ranges parallel to `chunks` (same boundaries,
    /// same routing). Kept outside the topology chunks so edge mutations
    /// never copy `String`s — only [`Graph::add_vertex`] touches the
    /// last name chunk.
    names: Vec<Arc<Vec<String>>>,
    /// Ascending chunk start ids (`chunk_starts[i] == chunks[i].start()`);
    /// vertex → chunk routing is a partition point over this.
    chunk_starts: Vec<VertexId>,
    /// Per extended label: total pairs across all chunk faces (keeps
    /// [`PairList::len`] O(1) for unrestricted views).
    pair_counts: Vec<usize>,
    vertex_count: u32,
    base_edge_count: usize,
}

impl Graph {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> u32 {
        self.vertex_count
    }

    /// Number of *base* edges (the paper's Table II counts `|E|` with
    /// inverses; that is `2 ×` this value).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.base_edge_count
    }

    /// Number of base labels `|L|` (Table II's `|L|` is `2 ×` this).
    #[inline]
    pub fn base_label_count(&self) -> u16 {
        self.label_names.len() as u16
    }

    /// Number of extended labels (`2 × |L|`).
    #[inline]
    pub fn ext_label_count(&self) -> u16 {
        (self.label_names.len() * 2) as u16
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.vertex_count()
    }

    /// Iterates over all extended labels.
    pub fn ext_labels(&self) -> impl Iterator<Item = ExtLabel> + '_ {
        (0..self.ext_label_count()).map(ExtLabel)
    }

    /// Iterates over all base labels.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.base_label_count()).map(Label)
    }

    /// The chunk index and in-chunk offset of a vertex.
    #[inline]
    fn locate(&self, v: VertexId) -> (usize, usize) {
        debug_assert!(v < self.vertex_count, "vertex {v} out of range");
        let ci = self.chunk_starts.partition_point(|&s| s <= v) - 1;
        (ci, (v - self.chunk_starts[ci]) as usize)
    }

    /// The sorted relation `⟦ℓ⟧ = {(v, u) | (v, u, ℓ) ∈ E}` for an extended
    /// label, as a view over the label's faces.
    #[inline]
    pub fn edge_pairs(&self, l: ExtLabel) -> PairList<'_> {
        PairList {
            chunks: &self.chunks,
            label: l,
            lo: 0,
            hi: VertexId::MAX,
            len: self.pair_counts[l.0 as usize],
        }
    }

    /// Whether the extended edge `(v, u, ℓ)` exists.
    pub fn has_edge(&self, v: VertexId, u: VertexId, l: ExtLabel) -> bool {
        self.neighbors(v, l).binary_search(&u).is_ok()
    }

    /// The full extended adjacency of `v` as `(label, target)`, sorted by
    /// `(label, target)`. O(labels present in `v`'s chunk + degree).
    #[inline]
    pub fn adjacency(&self, v: VertexId) -> impl Iterator<Item = (ExtLabel, VertexId)> + '_ {
        let (ci, off) = self.locate(v);
        self.chunks[ci].row(off)
    }

    /// Sorted targets reachable from `v` via one extended edge labeled
    /// `l`: one face row of `v`'s chunk.
    #[inline]
    pub fn neighbors(&self, v: VertexId, l: ExtLabel) -> &[VertexId] {
        let (ci, _) = self.locate(v);
        self.chunks[ci].targets(v, l)
    }

    /// Out-degree of `v` restricted to extended label `l`.
    pub fn degree(&self, v: VertexId, l: ExtLabel) -> usize {
        self.neighbors(v, l).len()
    }

    /// Total extended degree of `v` (forward + inverse edges).
    #[inline]
    pub fn ext_degree(&self, v: VertexId) -> usize {
        let (ci, off) = self.locate(v);
        self.chunks[ci].row_degree(off)
    }

    /// Every vertex's extended degree, in vertex order.
    fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().flat_map(|c| (0..c.rows() as usize).map(|r| c.row_degree(r)))
    }

    /// Maximum extended degree `d` over all vertices (Thm. 4.3's `d`).
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// Iterates all topology chunks in vertex-range order.
    pub fn csr_chunks(&self) -> impl Iterator<Item = &ChunkCsr> + '_ {
        self.chunks.iter().map(|c| &**c)
    }

    /// Kept for callers written against lazily built faces: faces are the
    /// graph's storage and always built, so this does nothing.
    pub fn ensure_csr(&self) {}

    /// Adds an isolated vertex, returning its id.
    pub fn add_vertex(&mut self, name: impl Into<String>) -> VertexId {
        let id = self.vertex_count;
        match self.chunks.last_mut() {
            Some(c) if (c.rows() as usize) < CHUNK_SPLIT_ROWS => {
                Arc::make_mut(c).push_row();
                Arc::make_mut(self.names.last_mut().unwrap()).push(name.into());
            }
            _ => {
                self.chunks.push(Arc::new(ChunkCsr::from_sorted(id, 1, &[])));
                self.names.push(Arc::new(vec![name.into()]));
                self.chunk_starts.push(id);
            }
        }
        self.vertex_count += 1;
        id
    }

    /// Inserts the base edge `(v, u, ℓ)` together with its inverse extended
    /// edge. Returns `false` if it already existed.
    ///
    /// # Panics
    /// Panics if `v`, `u` or `ℓ` are out of range.
    pub fn insert_edge(&mut self, v: VertexId, u: VertexId, l: Label) -> bool {
        assert!(v < self.vertex_count() && u < self.vertex_count(), "vertex out of range");
        assert!(l.0 < self.base_label_count(), "label out of range");
        // Existence check before `make_mut`: a duplicate insert must not
        // copy any chunk.
        if self.has_edge(v, u, l.fwd()) {
            return false;
        }
        self.edge_halves(v, u, l, ChunkCsr::insert);
        self.pair_counts[l.fwd().0 as usize] += 1;
        self.pair_counts[l.inv().0 as usize] += 1;
        self.base_edge_count += 1;
        true
    }

    /// Removes the base edge `(v, u, ℓ)` and its inverse extended edge.
    /// Returns `false` if it did not exist.
    pub fn remove_edge(&mut self, v: VertexId, u: VertexId, l: Label) -> bool {
        if v >= self.vertex_count() || l.0 >= self.base_label_count() {
            return false;
        }
        if !self.has_edge(v, u, l.fwd()) {
            return false;
        }
        self.edge_halves(v, u, l, ChunkCsr::remove);
        self.pair_counts[l.fwd().0 as usize] -= 1;
        self.pair_counts[l.inv().0 as usize] -= 1;
        self.base_edge_count -= 1;
        true
    }

    /// Applies `edit` to both halves of the base edge `(v, u, ℓ)`: the
    /// forward half in `v`'s chunk and the inverse half in `u`'s chunk —
    /// the only chunks an edge mutation copies.
    fn edge_halves(
        &mut self,
        v: VertexId,
        u: VertexId,
        l: Label,
        edit: fn(&mut ChunkCsr, VertexId, ExtLabel, VertexId) -> bool,
    ) {
        for (x, y, el) in [(v, u, l.fwd()), (u, v, l.inv())] {
            let (ci, _) = self.locate(x);
            let changed = edit(Arc::make_mut(&mut self.chunks[ci]), x, el, y);
            assert!(changed, "edge halves out of sync at ({x}, {el:?}, {y})");
        }
    }

    /// Removes every edge incident to `v` (the paper's vertex-deletion
    /// procedure composes edge deletions) and returns the removed base
    /// edges as `(src, dst, label)` triples. The vertex id itself remains
    /// allocated but isolated.
    pub fn isolate_vertex(&mut self, v: VertexId) -> Vec<(VertexId, VertexId, Label)> {
        let incident: Vec<(ExtLabel, VertexId)> = self.adjacency(v).collect();
        let mut removed = Vec::with_capacity(incident.len());
        for (el, t) in incident {
            let (src, dst) = if el.is_inverse() { (t, v) } else { (v, t) };
            if self.remove_edge(src, dst, el.base()) {
                removed.push((src, dst, el.base()));
            }
        }
        removed
    }

    /// Iterates over all base edges as `(v, u, label)`.
    pub fn base_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Label)> + '_ {
        self.labels()
            .flat_map(move |l| self.edge_pairs(l.fwd()).iter().map(move |p| (p.src(), p.dst(), l)))
    }

    /// The display name of a vertex.
    pub fn vertex_name(&self, v: VertexId) -> &str {
        let (ci, off) = self.locate(v);
        &self.names[ci][off]
    }

    /// The display name of a base label.
    pub fn label_name(&self, l: Label) -> &str {
        &self.label_names[l.0 as usize]
    }

    /// The display form of an extended label (`name` or `name⁻¹`).
    pub fn ext_label_name(&self, l: ExtLabel) -> String {
        if l.is_inverse() {
            format!("{}⁻¹", self.label_name(l.base()))
        } else {
            self.label_name(l.base()).to_string()
        }
    }

    /// Looks up a vertex by name (linear scan; intended for examples/tests).
    pub fn vertex_named(&self, name: &str) -> Option<VertexId> {
        self.chunk_starts.iter().zip(&self.names).find_map(|(&start, names)| {
            names.iter().position(|n| n == name).map(|i| start + i as u32)
        })
    }

    /// Looks up a base label by name (linear scan over the small alphabet).
    pub fn label_named(&self, name: &str) -> Option<Label> {
        self.label_names.iter().position(|n| n == name).map(|i| Label(i as u16))
    }

    /// Looks up a vertex-tag label (`@tag`); see
    /// [`GraphBuilder::tag_vertex`].
    pub fn tag_label(&self, tag: &str) -> Option<Label> {
        self.label_named(&format!("@{tag}"))
    }

    /// Whether `v` carries the vertex tag.
    pub fn vertex_has_tag(&self, v: VertexId, tag: &str) -> bool {
        self.tag_label(tag).is_some_and(|l| self.has_edge(v, v, l.fwd()))
    }

    /// Number of copy-on-write units backing this graph (topology chunks
    /// plus the parallel name chunks).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len() + self.names.len()
    }

    /// Structural-sharing report against the graph this one was cloned
    /// from: per chunk position (topology chunks and name chunks),
    /// whether the `Arc` is still shared with `before` or was copied (by
    /// `Arc::make_mut`) / newly created.
    pub fn cow_diff(&self, before: &Graph) -> CowDiff {
        let mut diff = CowDiff::default();
        diff.record_arcs(&self.chunks, &before.chunks);
        diff.record_arcs(&self.names, &before.names);
        diff
    }

    /// The base label name table, in label-id order. Persistence surface:
    /// snapshot headers store this verbatim so recovered graphs resolve
    /// names to the same label ids.
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Number of topology chunks (the copy-on-write units carrying the
    /// label faces). Persistence surface: snapshot writers emit one
    /// record per topology chunk.
    pub fn topology_chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Number of name chunks (the per-range display-name stores parallel
    /// to the topology chunks).
    pub fn name_chunk_count(&self) -> usize {
        self.names.len()
    }

    /// The `i`-th topology chunk. A snapshot persists it row-major (see
    /// [`ChunkCsr::row`]); [`Graph::from_chunk_parts`] rebuilds the faces.
    pub fn topology_chunk(&self, i: usize) -> &ChunkCsr {
        &self.chunks[i]
    }

    /// The `i`-th name chunk: display names of the vertices in the
    /// parallel topology chunk's range.
    pub fn name_chunk(&self, i: usize) -> &[String] {
        &self.names[i]
    }

    /// Whether the `i`-th topology chunk is physically shared
    /// (`Arc::ptr_eq`) with the chunk at the same position of `before`.
    ///
    /// This is the incremental-snapshot change detector: all mutation
    /// goes through `Arc::make_mut`, and as long as `before` (the
    /// last-persisted state) is kept alive its chunks have refcount ≥ 2,
    /// so any mutation of a descendant must have copied the chunk —
    /// pointer equality therefore proves the chunk's bytes are unchanged.
    pub fn topology_chunk_shared_with(&self, before: &Graph, i: usize) -> bool {
        matches!(before.chunks.get(i), Some(b) if Arc::ptr_eq(b, &self.chunks[i]))
    }

    /// Name-chunk analogue of [`Graph::topology_chunk_shared_with`].
    pub fn name_chunk_shared_with(&self, before: &Graph, i: usize) -> bool {
        matches!(before.names.get(i), Some(b) if Arc::ptr_eq(b, &self.names[i]))
    }

    /// Reassembles a graph from persisted chunk parts, building the label
    /// faces and the derived totals (pair counts, chunk routing, edge
    /// count) exactly as [`GraphBuilder::build`] would.
    ///
    /// `topology[i]` is `(start, adjacency rows)` — chunk `i`'s rows in
    /// [`ChunkCsr::row`] order; `names[i]` is the parallel name chunk.
    /// The input is validated (contiguous chunk ranges, parallel name
    /// chunks, in-range sorted adjacency, forward/inverse symmetry of
    /// the pair totals) so a corrupt snapshot surfaces as an error
    /// instead of a graph that panics later.
    pub fn from_chunk_parts(
        label_names: Vec<String>,
        topology: Vec<TopologyChunkParts>,
        names: Vec<Vec<String>>,
    ) -> Result<Graph, &'static str> {
        let nl = label_names.len();
        if nl > (u16::MAX as usize).div_ceil(2) {
            return Err("label table too large");
        }
        if topology.len() != names.len() {
            return Err("topology/name chunk counts differ");
        }
        let mut next = 0u32;
        for ((start, adj), ns) in topology.iter().zip(&names) {
            if *start != next {
                return Err("chunk starts not contiguous");
            }
            if adj.is_empty() {
                return Err("empty topology chunk");
            }
            if adj.len() != ns.len() {
                return Err("name chunk rows differ from topology chunk");
            }
            next = match next.checked_add(adj.len() as u32) {
                Some(n) => n,
                None => return Err("vertex count overflows u32"),
            };
        }
        let vertex_count = next;
        let mut chunks = Vec::with_capacity(topology.len());
        let mut name_chunks = Vec::with_capacity(names.len());
        let mut chunk_starts = Vec::with_capacity(topology.len());
        let mut pair_counts = vec![0usize; nl * 2];
        for ((start, adj), ns) in topology.into_iter().zip(names) {
            let mut edges = Vec::with_capacity(adj.iter().map(Vec::len).sum());
            for (off, row) in adj.iter().enumerate() {
                let v = start + off as u32;
                if !row.windows(2).all(|w| w[0] < w[1]) {
                    return Err("adjacency row not strictly sorted");
                }
                for &(el, t) in row {
                    if el as usize >= nl * 2 {
                        return Err("adjacency label out of range");
                    }
                    if t >= vertex_count {
                        return Err("adjacency target out of range");
                    }
                    pair_counts[el as usize] += 1;
                    edges.push((el, v, t));
                }
            }
            // Rows ascend by vertex and entries by (label, target): a
            // stable sort by label alone yields (label, source, target).
            edges.sort_by_key(|e| e.0);
            chunk_starts.push(start);
            chunks.push(Arc::new(ChunkCsr::from_sorted(start, adj.len(), &edges)));
            name_chunks.push(Arc::new(ns));
        }
        let fwd_total: usize = (0..nl).map(|l| pair_counts[l * 2]).sum();
        let inv_total: usize = (0..nl).map(|l| pair_counts[l * 2 + 1]).sum();
        if fwd_total != inv_total {
            return Err("forward/inverse pair counts disagree");
        }
        Ok(Graph {
            label_names,
            chunks,
            names: name_chunks,
            chunk_starts,
            pair_counts,
            vertex_count,
            base_edge_count: fwd_total,
        })
    }

    /// Approximate deep memory footprint of the topology in bytes (graph
    /// accounting used by the experiment harness).
    pub fn size_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.size_bytes()).sum()
    }

    /// Summary statistics of the graph (degree distribution, label skew).
    pub fn stats(&self) -> GraphStats {
        let n = self.vertex_count() as usize;
        let mut degrees: Vec<usize> = self.degrees().collect();
        degrees.sort_unstable();
        let max_degree = degrees.last().copied().unwrap_or(0);
        let median_degree = if n == 0 { 0 } else { degrees[n / 2] };
        let avg_degree = if n == 0 { 0.0 } else { degrees.iter().sum::<usize>() as f64 / n as f64 };
        let mut label_counts: Vec<usize> =
            self.labels().map(|l| self.edge_pairs(l.fwd()).len()).collect();
        label_counts.sort_unstable_by(|a, b| b.cmp(a));
        let label_skew = match (label_counts.first(), label_counts.last()) {
            (Some(&hi), Some(&lo)) if lo > 0 => hi as f64 / lo as f64,
            _ => f64::INFINITY,
        };
        GraphStats {
            vertices: self.vertex_count(),
            base_edges: self.edge_count(),
            base_labels: self.base_label_count(),
            max_degree,
            median_degree,
            avg_degree,
            label_skew,
        }
    }
}

/// Summary statistics of a graph (extended-degree based).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphStats {
    /// `|V|`.
    pub vertices: u32,
    /// Base (non-extended) edge count.
    pub base_edges: usize,
    /// Base label count.
    pub base_labels: u16,
    /// Maximum extended degree (Thm. 4.3's `d`).
    pub max_degree: usize,
    /// Median extended degree.
    pub median_degree: usize,
    /// Mean extended degree.
    pub avg_degree: f64,
    /// Most-frequent / least-frequent base label ratio (∞ if a label is
    /// unused).
    pub label_skew: f64,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("vertices", &self.vertex_count())
            .field("base_edges", &self.edge_count())
            .field("base_labels", &self.base_label_count())
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// Vertices and labels can be interned by name ([`GraphBuilder::vertex`],
/// [`GraphBuilder::label`]) or created anonymously in bulk
/// ([`GraphBuilder::ensure_vertices`], [`GraphBuilder::ensure_labels`]).
#[derive(Default)]
pub struct GraphBuilder {
    vertex_names: Vec<String>,
    vertex_index: HashMap<String, VertexId>,
    label_names: Vec<String>,
    label_index: HashMap<String, Label>,
    edges: Vec<(VertexId, VertexId, Label)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a vertex by name, returning its id.
    pub fn vertex(&mut self, name: &str) -> VertexId {
        if let Some(&id) = self.vertex_index.get(name) {
            return id;
        }
        let id = self.vertex_names.len() as VertexId;
        self.vertex_names.push(name.to_string());
        self.vertex_index.insert(name.to_string(), id);
        id
    }

    /// Ensures at least `n` anonymous vertices (named by their index) exist.
    pub fn ensure_vertices(&mut self, n: u32) {
        while (self.vertex_names.len() as u32) < n {
            let id = self.vertex_names.len();
            self.vertex_names.push(id.to_string());
        }
    }

    /// Interns a base label by name.
    pub fn label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.label_index.get(name) {
            return l;
        }
        let l = Label(self.label_names.len() as u16);
        self.label_names.push(name.to_string());
        self.label_index.insert(name.to_string(), l);
        l
    }

    /// Ensures at least `n` anonymous labels (named `l0`, `l1`, …) exist.
    pub fn ensure_labels(&mut self, n: u16) {
        while (self.label_names.len() as u16) < n {
            let name = format!("l{}", self.label_names.len());
            self.label(&name);
        }
    }

    /// Adds a base edge by vertex/label ids.
    pub fn add_edge(&mut self, v: VertexId, u: VertexId, l: Label) {
        self.edges.push((v, u, l));
    }

    /// Adds a base edge by names, interning as needed.
    pub fn add_edge_named(&mut self, v: &str, u: &str, l: &str) {
        let (v, u, l) = (self.vertex(v), self.vertex(u), self.label(l));
        self.add_edge(v, u, l);
    }

    /// Tags a vertex with a (vertex-label) tag — the standard encoding for
    /// vertex labels the paper's footnote 5 alludes to: a self-loop edge
    /// carrying the reserved label `@tag`. A CPQ can then filter endpoints
    /// by composing with the tag atom, e.g. `@person ∘ f` finds `f`-edges
    /// whose source is tagged `person`, and `@person ∩ id` all tagged
    /// vertices.
    pub fn tag_vertex(&mut self, v: &str, tag: &str) {
        let v = self.vertex(v);
        self.tag_vertex_id(v, tag);
    }

    /// Tags a vertex by id; see [`GraphBuilder::tag_vertex`].
    pub fn tag_vertex_id(&mut self, v: VertexId, tag: &str) {
        let l = self.label(&format!("@{tag}"));
        self.add_edge(v, v, l);
    }

    /// Finalizes the graph with the default copy-on-write chunk
    /// granularity: collapses multi-edges, tiles the vertices into
    /// degree-balanced chunks, and builds each chunk's label faces.
    pub fn build(self) -> Graph {
        self.build_with_chunk_weight(TARGET_CHUNK_WEIGHT)
    }

    /// Like [`GraphBuilder::build`] with an explicit target adjacency
    /// weight per copy-on-write chunk — smaller targets mean more, finer
    /// chunks (more sharing under mutation, more `Arc`s to clone). Exposed
    /// for tests and benchmarks that need multi-chunk graphs at small
    /// sizes.
    pub fn build_with_chunk_weight(self, target_weight: usize) -> Graph {
        let n = self.vertex_names.len();
        let nl = self.label_names.len();
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        let mut deg = vec![0usize; n];
        for &(v, u, l) in &edges {
            assert!((v as usize) < n && (u as usize) < n, "edge endpoint out of range");
            assert!((l.0 as usize) < nl, "edge label out of range");
            deg[v as usize] += 1;
            deg[u as usize] += 1;
        }
        // Degree-balanced chunk boundaries, reusing the shard-range
        // balancer geometry (each vertex weighs at least 1 there, so the
        // target is honored against Σ max(deg, 1)).
        let total: usize = deg.iter().map(|&d| d.max(1)).sum();
        let shards = total.div_ceil(target_weight.max(1)).max(1);
        let ranges = crate::view::balanced_ranges_by_weight(n as u32, shards, |v| deg[v as usize]);
        let chunk_starts: Vec<VertexId> = ranges.iter().map(|r| r.start).collect();

        // Both halves of every edge, bucketed by the chunk of their source.
        let locate = |v: VertexId| chunk_starts.partition_point(|&s| s <= v) - 1;
        let mut halves: Vec<Vec<(u16, VertexId, VertexId)>> = ranges
            .iter()
            .map(|r| Vec::with_capacity((r.start..r.end).map(|v| deg[v as usize]).sum()))
            .collect();
        let mut pair_counts = vec![0usize; nl * 2];
        for &(v, u, l) in &edges {
            halves[locate(v)].push((l.fwd().0, v, u));
            halves[locate(u)].push((l.inv().0, u, v));
            pair_counts[l.fwd().0 as usize] += 1;
            pair_counts[l.inv().0 as usize] += 1;
        }

        let mut name_iter = self.vertex_names.into_iter();
        let mut chunks: Vec<Arc<ChunkCsr>> = Vec::with_capacity(ranges.len());
        let mut names: Vec<Arc<Vec<String>>> = Vec::with_capacity(ranges.len());
        for (r, mut h) in ranges.iter().zip(halves) {
            let rows = (r.end - r.start) as usize;
            h.sort_unstable();
            chunks.push(Arc::new(ChunkCsr::from_sorted(r.start, rows, &h)));
            names.push(Arc::new(name_iter.by_ref().take(rows).collect()));
        }
        Graph {
            label_names: self.label_names,
            chunks,
            names,
            chunk_starts,
            pair_counts,
            vertex_count: n as u32,
            base_edge_count: edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "b", "f");
        b.add_edge_named("b", "c", "f");
        b.add_edge_named("a", "c", "v");
        b.add_edge_named("c", "c", "f");
        b.build()
    }

    #[test]
    fn build_counts() {
        let g = tiny();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.base_label_count(), 2);
        assert_eq!(g.ext_label_count(), 4);
    }

    #[test]
    fn inverse_edges_are_materialized() {
        let g = tiny();
        let f = g.label_named("f").unwrap();
        let (a, b) = (g.vertex_named("a").unwrap(), g.vertex_named("b").unwrap());
        assert!(g.has_edge(a, b, f.fwd()));
        assert!(g.has_edge(b, a, f.inv()));
        assert!(!g.has_edge(b, a, f.fwd()));
        assert_eq!(g.edge_pairs(f.fwd()).len(), 3);
        assert_eq!(g.edge_pairs(f.inv()).len(), 3);
    }

    #[test]
    fn neighbors_are_label_scoped() {
        let g = tiny();
        let f = g.label_named("f").unwrap();
        let v = g.label_named("v").unwrap();
        let a = g.vertex_named("a").unwrap();
        assert_eq!(g.neighbors(a, f.fwd()), [g.vertex_named("b").unwrap()]);
        assert_eq!(g.neighbors(a, v.fwd()), [g.vertex_named("c").unwrap()]);
    }

    #[test]
    fn multi_edges_collapse() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "b", "f");
        b.add_edge_named("a", "b", "f");
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = tiny();
        let f = g.label_named("f").unwrap();
        let (a, c) = (g.vertex_named("a").unwrap(), g.vertex_named("c").unwrap());
        assert!(!g.has_edge(a, c, f.fwd()));
        assert!(g.insert_edge(a, c, f));
        assert!(!g.insert_edge(a, c, f), "duplicate insert must be a no-op");
        assert!(g.has_edge(a, c, f.fwd()));
        assert!(g.has_edge(c, a, f.inv()));
        assert_eq!(g.edge_count(), 5);
        assert!(g.remove_edge(a, c, f));
        assert!(!g.remove_edge(a, c, f));
        assert!(!g.has_edge(a, c, f.fwd()));
        assert!(!g.has_edge(c, a, f.inv()));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn insert_keeps_views_consistent() {
        let mut g = tiny();
        let f = g.label_named("f").unwrap();
        let (a, c) = (g.vertex_named("a").unwrap(), g.vertex_named("c").unwrap());
        g.insert_edge(a, c, f);
        let fwd = g.edge_pairs(f.fwd()).to_vec();
        assert!(fwd.windows(2).all(|w| w[0] < w[1]), "pair list stays sorted");
        assert!(g.edge_pairs(f.fwd()).contains(Pair::new(a, c)));
        assert!(g.edge_pairs(f.inv()).contains(Pair::new(c, a)));
        assert_eq!(g.edge_pairs(f.fwd()).len(), fwd.len());
    }

    #[test]
    fn isolate_vertex_removes_all_incident() {
        let mut g = tiny();
        let b = g.vertex_named("b").unwrap();
        let removed = g.isolate_vertex(b);
        assert_eq!(removed.len(), 2);
        assert_eq!(g.ext_degree(b), 0);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_loop_handling() {
        let g = tiny();
        let f = g.label_named("f").unwrap();
        let c = g.vertex_named("c").unwrap();
        assert!(g.has_edge(c, c, f.fwd()));
        assert!(g.has_edge(c, c, f.inv()));
        assert!(g.edge_pairs(f.fwd()).contains(Pair::new(c, c)));
    }

    #[test]
    fn add_vertex_grows() {
        let mut g = tiny();
        let d = g.add_vertex("d");
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.vertex_name(d), "d");
        assert_eq!(g.ext_degree(d), 0);
    }

    #[test]
    fn base_edges_iterates_forward_only() {
        let g = tiny();
        assert_eq!(g.base_edges().count(), g.edge_count());
    }

    #[test]
    fn vertex_tags_are_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("alice", "post1", "wrote");
        b.tag_vertex("alice", "person");
        b.tag_vertex("post1", "post");
        let g = b.build();
        let alice = g.vertex_named("alice").unwrap();
        let post = g.vertex_named("post1").unwrap();
        assert!(g.vertex_has_tag(alice, "person"));
        assert!(!g.vertex_has_tag(alice, "post"));
        assert!(g.vertex_has_tag(post, "post"));
        assert!(!g.vertex_has_tag(post, "person"));
        assert!(g.tag_label("person").is_some());
        assert!(g.tag_label("nosuch").is_none());
        // Tags are ordinary labels: the tag self-loop is a base edge.
        let tl = g.tag_label("person").unwrap();
        assert!(g.has_edge(alice, alice, tl.fwd()));
    }

    #[test]
    fn stats_summarize_structure() {
        let g = tiny();
        let s = g.stats();
        assert_eq!(s.vertices, 3);
        assert_eq!(s.base_edges, 4);
        assert_eq!(s.base_labels, 2);
        // c: f-in from b, self-loop f (both directions), v-in from a → 4.
        assert_eq!(s.max_degree, 4);
        assert!(s.avg_degree > 0.0);
        assert!(s.label_skew >= 1.0);
        // Empty graph: no panics, zeroed stats.
        let empty = GraphBuilder::new().build();
        let s = empty.stats();
        assert_eq!(s.vertices, 0);
        assert_eq!(s.max_degree, 0);
    }

    /// A multi-chunk graph built with a tiny chunk weight so chunk
    /// boundaries fall inside the data.
    fn chunky(n: u32, weight: usize) -> Graph {
        let mut b = GraphBuilder::new();
        b.ensure_vertices(n);
        let l = b.label("f");
        for v in 0..n {
            b.add_edge(v, (v + 1) % n, l);
            b.add_edge(v, (v + 7) % n, l);
        }
        b.build_with_chunk_weight(weight)
    }

    #[test]
    fn chunked_build_matches_monolithic() {
        let mono = chunky(64, usize::MAX);
        let multi = chunky(64, 8);
        assert_eq!(mono.chunk_count(), 2, "one topology chunk + one name chunk");
        assert!(multi.chunk_count() > 8, "weight 8 must split 64 vertices");
        assert_eq!(mono.edge_count(), multi.edge_count());
        for v in mono.vertices() {
            assert!(mono.adjacency(v).eq(multi.adjacency(v)), "adjacency of {v}");
            assert_eq!(mono.vertex_name(v), multi.vertex_name(v));
        }
        for l in mono.ext_labels() {
            assert_eq!(mono.edge_pairs(l).to_vec(), multi.edge_pairs(l).to_vec());
            assert_eq!(mono.edge_pairs(l).len(), multi.edge_pairs(l).len());
        }
    }

    #[test]
    fn clone_shares_chunks_and_mutation_copies_only_touched() {
        let base = chunky(64, 8);
        let mut g = base.clone();
        let d0 = g.cow_diff(&base);
        assert_eq!(d0.chunks_copied, 0, "a fresh clone shares everything");
        assert_eq!(d0.chunks_shared, base.chunk_count());
        let f = g.label_named("f").unwrap();
        assert!(g.insert_edge(3, 40, f));
        let d1 = g.cow_diff(&base);
        assert!(d1.chunks_copied >= 1 && d1.chunks_copied <= 2, "endpoint chunks only: {d1:?}");
        assert_eq!(d1.chunks_copied + d1.chunks_shared, g.chunk_count());
        // The original is untouched.
        assert!(!base.has_edge(3, 40, f.fwd()));
        assert_eq!(base.edge_count() + 1, g.edge_count());
    }

    #[test]
    fn noop_mutations_copy_nothing() {
        let base = chunky(64, 8);
        let mut g = base.clone();
        let f = g.label_named("f").unwrap();
        assert!(!g.insert_edge(0, 1, f), "edge exists");
        assert!(!g.remove_edge(0, 2, f), "edge absent");
        let d = g.cow_diff(&base);
        assert_eq!(d.chunks_copied, 0, "no-ops must not break sharing");
    }

    #[test]
    fn pair_list_views() {
        let g = chunky(64, 8);
        let f = g.label_named("f").unwrap();
        let all = g.edge_pairs(f.fwd());
        assert_eq!(all.len(), 128);
        assert_eq!(all.iter().count(), all.len());
        let flat = all.to_vec();
        assert!(flat.windows(2).all(|w| w[0] < w[1]), "chunk concat stays sorted");
        // Segmented restriction agrees with filtering.
        let sub = all.restrict_src(10, 30);
        let expect: Vec<Pair> =
            flat.iter().copied().filter(|p| (10..30).contains(&p.src())).collect();
        assert_eq!(sub.to_vec(), expect);
        assert_eq!(sub.len(), expect.len());
        for &p in &expect {
            assert!(sub.contains(p));
        }
        assert!(!sub.contains(Pair::new(40, 41)));
    }

    /// A graph's persistence parts: label table, row-major topology
    /// chunks, name chunks.
    fn parts(g: &Graph) -> (Vec<String>, Vec<TopologyChunkParts>, Vec<Vec<String>>) {
        let topo = (0..g.topology_chunk_count())
            .map(|i| {
                let c = g.topology_chunk(i);
                let rows = (0..c.rows() as usize)
                    .map(|r| c.row(r).map(|(l, t)| (l.0, t)).collect())
                    .collect();
                (c.start(), rows)
            })
            .collect();
        let names = (0..g.name_chunk_count()).map(|i| g.name_chunk(i).to_vec()).collect();
        (g.label_names().to_vec(), topo, names)
    }

    /// Disassembles a graph through the persistence accessors and
    /// reassembles it via `from_chunk_parts`.
    fn chunk_roundtrip(g: &Graph) -> Graph {
        let (labels, topo, names) = parts(g);
        Graph::from_chunk_parts(labels, topo, names).expect("valid parts")
    }

    #[test]
    fn chunk_parts_roundtrip_rebuilds_derived_state() {
        let mut g = chunky(64, 8);
        let f = g.label_named("f").unwrap();
        g.insert_edge(3, 40, f);
        g.remove_edge(0, 1, f);
        let d = g.add_vertex("extra");
        g.insert_edge(d, 5, f);
        let r = chunk_roundtrip(&g);
        assert_eq!(r.vertex_count(), g.vertex_count());
        assert_eq!(r.edge_count(), g.edge_count());
        assert_eq!(r.label_names(), g.label_names());
        for v in g.vertices() {
            assert!(r.adjacency(v).eq(g.adjacency(v)), "adjacency of {v}");
            assert_eq!(r.vertex_name(v), g.vertex_name(v));
        }
        for l in g.ext_labels() {
            assert_eq!(r.edge_pairs(l).to_vec(), g.edge_pairs(l).to_vec());
            assert_eq!(r.edge_pairs(l).len(), g.edge_pairs(l).len());
        }
        // The rebuilt graph is fully maintainable.
        let mut r = r;
        assert!(r.insert_edge(1, 2, f) || r.remove_edge(1, 2, f));
    }

    #[test]
    fn from_chunk_parts_rejects_corrupt_input() {
        let g = chunky(16, 8);
        let take = parts;
        // Non-contiguous starts.
        let (l, mut topo, names) = take(&g);
        topo.last_mut().unwrap().0 += 1;
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
        // Out-of-range target.
        let (l, mut topo, names) = take(&g);
        topo[0].1[0].push((0, 10_000));
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
        // Out-of-range label.
        let (l, mut topo, names) = take(&g);
        topo[0].1[0].insert(0, (0, 0));
        topo[0].1[0][0].0 = 99;
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
        // Name chunk length mismatch.
        let (l, topo, mut names) = take(&g);
        names[0].pop();
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
        // Asymmetric halves: drop one inverse entry.
        let (l, mut topo, names) = take(&g);
        let row = topo[0].1.iter_mut().find(|r| !r.is_empty()).unwrap();
        row.pop();
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
    }

    #[test]
    fn chunk_sharing_detects_mutation_positionally() {
        let base = chunky(64, 8);
        let mut g = base.clone();
        for i in 0..g.topology_chunk_count() {
            assert!(g.topology_chunk_shared_with(&base, i));
        }
        for i in 0..g.name_chunk_count() {
            assert!(g.name_chunk_shared_with(&base, i));
        }
        let f = g.label_named("f").unwrap();
        g.insert_edge(3, 40, f);
        let changed: Vec<usize> = (0..g.topology_chunk_count())
            .filter(|&i| !g.topology_chunk_shared_with(&base, i))
            .collect();
        assert!(!changed.is_empty() && changed.len() <= 2, "endpoint chunks only: {changed:?}");
        assert!((0..g.name_chunk_count()).all(|i| g.name_chunk_shared_with(&base, i)));
        // Appending a vertex grows past `before`: new positions count as
        // changed.
        let mut g2 = base.clone();
        g2.add_vertex("tail");
        let last = g2.topology_chunk_count() - 1;
        assert!(!g2.topology_chunk_shared_with(&base, last));
    }

    #[test]
    fn add_vertex_opens_chunks_past_split() {
        let mut g = GraphBuilder::new().build();
        assert_eq!(g.chunk_count(), 0);
        for i in 0..(CHUNK_SPLIT_ROWS + 10) {
            g.add_vertex(format!("v{i}"));
        }
        assert_eq!(g.vertex_count() as usize, CHUNK_SPLIT_ROWS + 10);
        assert_eq!(g.chunk_count(), 4, "split threshold opens a second chunk pair");
        assert_eq!(g.vertex_name(0), "v0");
        let last = g.vertex_count() - 1;
        assert_eq!(g.vertex_name(last), format!("v{}", last));
        assert_eq!(g.ext_degree(last), 0);
    }
}

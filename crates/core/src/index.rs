//! The runtime index structure `Ik = (Il2c, Ic2p)` of Def. 4.3, serving both
//! CPQx and iaCPQx (they differ only in how the partition is computed).

use crate::bisim::{cpq_path_partition, ClassId, Partition};
use crate::exec::Executor;
use crate::interest::{interest_partition, normalize_interests};
use cpqx_graph::{CowDiff, Graph, LabelSeq, Pair};
use cpqx_query::plan::{plan_query, Plan};
use cpqx_query::workload::SeqProbe;
use cpqx_query::Cpq;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Classes per copy-on-write chunk of the class partition store.
/// Fine-grained on purpose: a lazy update touches the chunks of the
/// affected pairs' (scattered) class ids plus the tail, so the shared
/// fraction improves directly with chunk count while the per-clone cost
/// stays a vector of `Arc` bumps.
pub(crate) const CLASS_CHUNK: usize = 1 << 8;

/// Source-vertex ids per copy-on-write shard of the pair → class map
/// (fine-grained for the same touched/total reason as [`CLASS_CHUNK`]).
const P2C_SHARD_BITS: u32 = 8;

/// One fixed-width class-id range of the index's partition storage: the
/// `Ic2p` rows, loop flags and sequence sets of up to [`CLASS_CHUNK`]
/// consecutive classes. Chunks sit behind `Arc` and mutate through
/// `Arc::make_mut`, so `CpqxIndex::clone` is O(#chunks) and a lazy
/// update copies only the chunks holding touched classes — fresh classes
/// append to the last chunk only.
#[derive(Clone, Default)]
pub(crate) struct ClassChunk {
    /// `Ic2p` rows: sorted s-t pairs per class.
    pub(crate) pairs: Vec<Vec<Pair>>,
    /// Per-class cyclicity flags.
    pub(crate) loops: Vec<bool>,
    /// Per-class sorted `L≤k` sequence sets.
    pub(crate) seqs: Vec<Vec<LabelSeq>>,
}

/// A CPQ-aware path index (CPQx, Sec. IV) or its interest-aware variant
/// (iaCPQx, Sec. V).
///
/// Two data structures, per Def. 4.3:
///
/// * `Il2c : L≤k → {c}` — label sequence to sorted class-id posting list,
/// * `Ic2p : c → P(c)` — class id to sorted s-t pair list,
///
/// plus the auxiliary structures the paper's maintenance procedures need:
/// per-class loop flags (O(1) IDENTITY), per-class sequence sets (to decide
/// whether an affected pair's `L≤k` changed), and the pair → class inverted
/// index of Sec. IV-E.
///
/// The type is `Clone` so a serving layer can snapshot it, apply
/// maintenance to the copy, and atomically publish the result without
/// blocking readers of the old version (see the `cpqx-engine` crate).
///
/// # Copy-on-write storage
///
/// The heavyweight stores are structurally shared between clones:
///
/// * the class partition (`Ic2p` rows, loop flags, sequence sets) lives
///   in fixed-width [`ClassChunk`]s behind `Arc`,
/// * the pair → class inverted index is sharded by source-vertex range
///   behind `Arc`,
/// * `Il2c` posting lists sit individually behind `Arc` (the key set is
///   small — O(|L|ᵏ) sequences — so the map itself clones cheaply).
///
/// Cloning is therefore O(#chunks + #shards + #sequences), and the lazy
/// maintenance procedures copy only what they touch via `Arc::make_mut`
/// — the property that makes the engine's per-transaction snapshot
/// O(changed) instead of O(index). [`CpqxIndex::cow_diff`] reports the
/// sharing between two descendants.
#[derive(Clone)]
pub struct CpqxIndex {
    pub(crate) k: usize,
    /// `None` for full CPQx; `Some(Lq)` for iaCPQx (length-1 sequences are
    /// implicit and not stored here).
    pub(crate) interests: Option<BTreeSet<LabelSeq>>,
    pub(crate) il2c: HashMap<LabelSeq, Arc<Vec<ClassId>>>,
    /// Class partition store, chunked by class-id range.
    pub(crate) classes: Vec<Arc<ClassChunk>>,
    /// Allocated class slots (tombstones included) across all chunks.
    pub(crate) class_count: usize,
    /// Pair → class map, sharded by source-vertex range.
    pub(crate) p2c: Vec<Arc<HashMap<Pair, ClassId>>>,
    /// Indexed pairs across all shards.
    pub(crate) pair_count: usize,
    pub(crate) frag: FragCounters,
}

/// Cumulative lazy-maintenance accounting, reset by every full build (see
/// [`CpqxIndex::fragmentation`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FragCounters {
    /// Class count of the full build this index descends from — the
    /// minimal-partition baseline fragmentation is measured against.
    pub(crate) baseline_classes: usize,
    /// Fresh classes created by lazy updates since that build.
    pub(crate) fresh_classes: u64,
    /// Pairs detached and regrouped by lazy updates since that build.
    pub(crate) refreshed_pairs: u64,
}

/// Point-in-time fragmentation report of a lazily maintained index.
///
/// The lazy update procedures (Secs. IV-E / V-C) never merge classes:
/// affected pairs are detached into *fresh* classes, so between full
/// builds the class-slot count only grows and detached-from classes may
/// become empty tombstones. This is exactly the degradation Table VII
/// measures as a size ratio; [`Fragmentation::ratio`] is its live,
/// class-count form, used by serving layers to decide when a
/// defragmenting rebuild pays off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fragmentation {
    /// Class count of the full build this index descends from.
    pub baseline_classes: usize,
    /// Allocated class slots right now, tombstones included.
    pub class_slots: usize,
    /// Classes with at least one member pair.
    pub live_classes: usize,
    /// Fresh classes created by lazy maintenance since the last build.
    pub fresh_classes: u64,
    /// Pairs detached and regrouped by lazy maintenance since the last
    /// build.
    pub refreshed_pairs: u64,
}

impl Fragmentation {
    /// `class_slots / baseline_classes` — 1.0 for a fresh build, growing
    /// monotonically under lazy maintenance (classes are never merged).
    ///
    /// An index built from an **empty** graph has `baseline_classes == 0`;
    /// such an index is treated as fresh (ratio 1.0) rather than
    /// infinitely fragmented — the first lazy update re-baselines it (see
    /// `CpqxIndex::refresh_pairs`), so an empty-seeded serving layer never
    /// trips its rebuild threshold on the very first insert.
    pub fn ratio(&self) -> f64 {
        if self.baseline_classes == 0 {
            return 1.0;
        }
        self.class_slots as f64 / self.baseline_classes as f64
    }

    /// Empty class slots left behind by detached pairs.
    pub fn tombstones(&self) -> usize {
        self.class_slots - self.live_classes
    }
}

/// Summary statistics used by the experiment harness (Tables III–IV).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexStats {
    /// `k`.
    pub k: usize,
    /// `|C|` — number of (non-empty) classes.
    pub classes: usize,
    /// `|P≤k|` — number of indexed s-t pairs.
    pub pairs: usize,
    /// Number of distinct label sequences keyed in `Il2c`.
    pub sequences: usize,
    /// Total posting-list entries in `Il2c` (≈ γ·|C|).
    pub postings: usize,
    /// γ — average `|L≤k(v,u)|` over indexed pairs.
    pub gamma: f64,
    /// Core index bytes: `Il2c` + `Ic2p` (Def. 4.3's structures, the
    /// quantity Thm. 4.2 bounds and Table IV reports).
    pub core_bytes: usize,
    /// Total bytes including the maintenance structures (`class_seqs`,
    /// `p2c`, loop flags).
    pub total_bytes: usize,
}

impl CpqxIndex {
    /// Builds the full CPQ-aware index of `g` with path-length parameter
    /// `k` (Algorithms 1 and 2).
    pub fn build(g: &Graph, k: usize) -> Self {
        Self::from_partition(k, None, cpq_path_partition(g, k))
    }

    /// Builds the interest-aware index (Sec. V). `interests` may contain
    /// sequences longer than `k`; they are normalized by prefix-splitting.
    /// All length-1 sequences are always indexed.
    pub fn build_interest_aware(
        g: &Graph,
        k: usize,
        interests: impl IntoIterator<Item = LabelSeq>,
    ) -> Self {
        let lq = normalize_interests(interests, k);
        let partition = interest_partition(g, k, &lq);
        Self::from_partition(k, Some(lq), partition)
    }

    /// Materializes the runtime index `(Il2c, Ic2p)` from an
    /// already-computed partition — the seam the sharded parallel builder
    /// plugs into (`cpqx-engine` merges per-shard partitions and hands the
    /// result here).
    ///
    /// `p` must be a valid partition of the graph's `P≤k`: pairs sorted
    /// ascending, every class homogeneous in `(cyclicity, L≤k)` — as
    /// produced by [`cpq_path_partition`], by
    /// [`crate::bisim::merge_partitions`] over a tiling of source ranges,
    /// or by [`crate::interest::interest_partition`].
    pub fn from_partition(k: usize, interests: Option<BTreeSet<LabelSeq>>, p: Partition) -> Self {
        let nc = p.class_count();
        let mut il2c: HashMap<LabelSeq, Arc<Vec<ClassId>>> = HashMap::new();
        for (c, seqs) in p.class_seqs.iter().enumerate() {
            for s in seqs {
                // Classes are visited in ascending id order: postings sorted.
                Arc::make_mut(il2c.entry(*s).or_default()).push(c as ClassId);
            }
        }
        let mut idx = CpqxIndex {
            k,
            interests,
            il2c,
            classes: Vec::with_capacity(nc.div_ceil(CLASS_CHUNK)),
            class_count: 0,
            p2c: Vec::new(),
            pair_count: 0,
            frag: FragCounters { baseline_classes: nc, ..FragCounters::default() },
        };
        for (lp, seqs) in p.class_loop.into_iter().zip(p.class_seqs) {
            idx.push_class(lp, seqs);
        }
        // `pair_classes` is sorted by pair, so per-class rows stay sorted
        // under plain appends.
        for &(pair, c) in &p.pair_classes {
            let (chunk, off) = idx.class_slot_mut(c);
            chunk.pairs[off].push(pair);
            idx.p2c_insert(pair, c);
        }
        idx
    }

    // ---------------------------------------- chunked-store primitives --

    /// The chunk and in-chunk offset of a class (read path).
    #[inline]
    fn class_slot(&self, c: ClassId) -> (&ClassChunk, usize) {
        (&self.classes[c as usize / CLASS_CHUNK], c as usize % CLASS_CHUNK)
    }

    /// The chunk and in-chunk offset of a class, copying the chunk if it
    /// is shared (the copy-on-write mutation seam).
    #[inline]
    pub(crate) fn class_slot_mut(&mut self, c: ClassId) -> (&mut ClassChunk, usize) {
        (Arc::make_mut(&mut self.classes[c as usize / CLASS_CHUNK]), c as usize % CLASS_CHUNK)
    }

    /// Appends a fresh (empty) class slot, returning its id. Only the last
    /// chunk is touched.
    pub(crate) fn push_class(&mut self, is_loop: bool, seqs: Vec<LabelSeq>) -> ClassId {
        let c = self.class_count as ClassId;
        if self.class_count.is_multiple_of(CLASS_CHUNK) {
            self.classes.push(Arc::new(ClassChunk::default()));
        }
        let chunk = Arc::make_mut(self.classes.last_mut().expect("chunk just ensured"));
        chunk.pairs.push(Vec::new());
        chunk.loops.push(is_loop);
        chunk.seqs.push(seqs);
        self.class_count += 1;
        c
    }

    /// The p2c shard index of a pair (by source-vertex range).
    #[inline]
    fn p2c_shard(p: Pair) -> usize {
        (p.src() >> P2C_SHARD_BITS) as usize
    }

    /// Inserts into the pair → class map, copying only the pair's shard.
    pub(crate) fn p2c_insert(&mut self, p: Pair, c: ClassId) {
        let s = Self::p2c_shard(p);
        if s >= self.p2c.len() {
            self.p2c.resize_with(s + 1, Default::default);
        }
        if Arc::make_mut(&mut self.p2c[s]).insert(p, c).is_none() {
            self.pair_count += 1;
        }
    }

    /// Removes from the pair → class map; absent pairs copy nothing.
    pub(crate) fn p2c_remove(&mut self, p: Pair) -> Option<ClassId> {
        let s = Self::p2c_shard(p);
        let shard = self.p2c.get_mut(s)?;
        if !shard.contains_key(&p) {
            return None;
        }
        self.pair_count -= 1;
        Arc::make_mut(shard).remove(&p)
    }

    /// Appends `c` to the posting list of `s`, copying only that list.
    pub(crate) fn il2c_push(&mut self, s: LabelSeq, c: ClassId) {
        Arc::make_mut(self.il2c.entry(s).or_default()).push(c);
    }

    /// The index path-length parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether this is the interest-aware variant.
    pub fn is_interest_aware(&self) -> bool {
        self.interests.is_some()
    }

    /// The interest set (iaCPQx only; length-1 sequences are implicit).
    pub fn interests(&self) -> Option<&BTreeSet<LabelSeq>> {
        self.interests.as_ref()
    }

    /// `Il2c(ℓ)` — the sorted class ids whose pairs match `seq`.
    pub fn lookup(&self, seq: &LabelSeq) -> &[ClassId] {
        self.il2c.get(seq).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// `Ic2p(c)` — the sorted s-t pairs of class `c`.
    pub fn class_pairs(&self, c: ClassId) -> &[Pair] {
        let (chunk, off) = self.class_slot(c);
        &chunk.pairs[off]
    }

    /// Whether all pairs of class `c` are cyclic (`v = u`) — the O(1)
    /// IDENTITY check (all members share cyclicity by construction).
    pub fn class_is_loop(&self, c: ClassId) -> bool {
        let (chunk, off) = self.class_slot(c);
        chunk.loops[off]
    }

    /// The label-sequence set shared by all pairs of class `c`.
    pub fn class_sequences(&self, c: ClassId) -> &[LabelSeq] {
        let (chunk, off) = self.class_slot(c);
        &chunk.seqs[off]
    }

    /// The class of an s-t pair, if indexed.
    pub fn class_of(&self, p: Pair) -> Option<ClassId> {
        self.p2c.get(Self::p2c_shard(p))?.get(&p).copied()
    }

    /// Whether one LOOKUP can answer `seq`: full indexes answer every
    /// sequence of length ≤ k; interest-aware indexes the interests plus all
    /// length-1 sequences (Sec. V-B — the planner consults this).
    pub fn is_indexed(&self, seq: &LabelSeq) -> bool {
        if seq.is_empty() || seq.len() > self.k {
            return false;
        }
        match &self.interests {
            None => true,
            Some(lq) => seq.len() == 1 || lq.contains(seq),
        }
    }

    /// Lowers `q` to a physical plan against this index.
    pub fn plan(&self, q: &Cpq) -> Plan {
        plan_query(q, self.k, &|s| self.is_indexed(s))
    }

    /// Evaluates `q`, returning the normalized pair set (Algorithm 3).
    pub fn evaluate(&self, g: &Graph, q: &Cpq) -> Vec<Pair> {
        Executor::new(self, g).run(&self.plan(q))
    }

    /// Evaluates `q` with explicit executor ablation switches (see
    /// [`crate::exec::ExecOptions`]). Results are identical to
    /// [`CpqxIndex::evaluate`]; only the work performed differs.
    pub fn evaluate_with_options(
        &self,
        g: &Graph,
        q: &Cpq,
        options: crate::exec::ExecOptions,
    ) -> Vec<Pair> {
        Executor::with_options(self, g, options).run(&self.plan(q))
    }

    /// Evaluates `q` but stops at the first result (Fig. 7's
    /// first-answer measurements). Returns `None` for empty answers.
    pub fn evaluate_first(&self, g: &Graph, q: &Cpq) -> Option<Pair> {
        Executor::new(self, g).run_first(&self.plan(q))
    }

    /// Evaluates `q` and reports the execution work counters alongside the
    /// answers (EXPLAIN ANALYZE-style; Table III's pruning-power numbers
    /// are `classes_touched` here versus pair volume on the Path index).
    pub fn explain(&self, g: &Graph, q: &Cpq) -> (Vec<Pair>, crate::exec::ExecStats) {
        Executor::new(self, g).run_explained(&self.plan(q))
    }

    /// Number of classes with at least one pair (freshly built indexes have
    /// no empty classes; lazy maintenance can leave tombstones behind).
    pub fn live_class_count(&self) -> usize {
        self.classes.iter().flat_map(|ch| ch.pairs.iter()).filter(|p| !p.is_empty()).count()
    }

    /// Total allocated class slots, including tombstones.
    pub fn class_slots(&self) -> usize {
        self.class_count
    }

    /// `class_slots / baseline_classes` in O(1) — the fragmentation
    /// trigger serving layers poll after every write transaction (see
    /// [`Fragmentation::ratio`]; the full report is
    /// [`CpqxIndex::fragmentation`]). A zero baseline (index built from an
    /// empty graph) reads as fresh: 1.0, never `class_slots` — the first
    /// lazy update re-baselines instead (see the module docs of
    /// `maintain`), so empty-seeded engines cannot thrash their
    /// auto-rebuild threshold.
    pub fn fragmentation_ratio(&self) -> f64 {
        if self.frag.baseline_classes == 0 {
            return 1.0;
        }
        self.class_count as f64 / self.frag.baseline_classes as f64
    }

    /// Class count of the full build this index descends from — the
    /// denominator of [`CpqxIndex::fragmentation_ratio`], in O(1).
    pub fn baseline_class_count(&self) -> usize {
        self.frag.baseline_classes
    }

    /// The full fragmentation report (O(classes): counts live classes).
    pub fn fragmentation(&self) -> Fragmentation {
        Fragmentation {
            baseline_classes: self.frag.baseline_classes,
            class_slots: self.class_slots(),
            live_classes: self.live_class_count(),
            fresh_classes: self.frag.fresh_classes,
            refreshed_pairs: self.frag.refreshed_pairs,
        }
    }

    /// Number of indexed s-t pairs.
    pub fn pair_count(&self) -> usize {
        self.pair_count
    }

    /// Index statistics (sizes follow Thm. 4.2's accounting; see
    /// [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        let postings: usize = self.il2c.values().map(|v| v.len()).sum();
        let pairs = self.pair_count();
        // γ = average |L≤k(v,u)| over pairs = Σ_c |seqs(c)|·|P(c)| / |P≤k|.
        let weighted: usize = self
            .classes
            .iter()
            .flat_map(|ch| ch.seqs.iter().zip(&ch.pairs))
            .map(|(s, p)| s.len() * p.len())
            .sum();
        let gamma = if pairs == 0 { 0.0 } else { weighted as f64 / pairs as f64 };
        // Packed (CSR-equivalent) accounting: keys + entries + offsets.
        // Container headers are an implementation detail, so sizes stay
        // comparable across index designs (Table IV's IS).
        let seq_bytes = std::mem::size_of::<LabelSeq>();
        let il2c_bytes: usize = self
            .il2c
            .values()
            .map(|v| seq_bytes + v.len() * std::mem::size_of::<ClassId>() + 4)
            .sum();
        let ic2p_bytes: usize = pairs * std::mem::size_of::<Pair>() + (self.class_count + 1) * 4;
        let core_bytes = il2c_bytes + ic2p_bytes;
        let class_seq_bytes: usize = self
            .classes
            .iter()
            .flat_map(|ch| ch.seqs.iter())
            .map(|v| v.len() * seq_bytes + 4)
            .sum();
        let p2c_bytes = pairs * (std::mem::size_of::<Pair>() + std::mem::size_of::<ClassId>());
        IndexStats {
            k: self.k,
            classes: self.live_class_count(),
            pairs,
            sequences: self.il2c.len(),
            postings,
            gamma,
            core_bytes,
            total_bytes: core_bytes + class_seq_bytes + p2c_bytes + self.class_count,
        }
    }

    /// Core index size in bytes (`Il2c` + `Ic2p`), the Table IV quantity.
    pub fn size_bytes(&self) -> usize {
        self.stats().core_bytes
    }

    /// Structural-sharing report against the index this one was cloned
    /// from, covering the two chunked stores (class chunks + p2c shards):
    /// per position, whether the `Arc` is still shared with `before` or
    /// was copied / newly created. The engine sums this into its
    /// `cow_chunks_copied` / `cow_chunks_shared` gauges after every write
    /// transaction.
    pub fn cow_diff(&self, before: &CpqxIndex) -> CowDiff {
        let mut diff = CowDiff::default();
        diff.record_arcs(&self.classes, &before.classes);
        diff.record_arcs(&self.p2c, &before.p2c);
        diff
    }

    /// Number of copy-on-write units backing this index (class chunks +
    /// p2c shards).
    pub fn chunk_count(&self) -> usize {
        self.classes.len() + self.p2c.len()
    }

    // ------------------------------------------- persistence surface --

    /// Maximum classes per class chunk — persistence readers use this to
    /// map class-id ranges onto chunk records (chunk `i` holds classes
    /// `i·span .. i·span + len`).
    pub fn class_chunk_span() -> usize {
        CLASS_CHUNK
    }

    /// Number of class chunks backing the partition store. Persistence
    /// surface: snapshot writers emit one record per class chunk (the
    /// p2c shards and `Il2c` postings are derived state, rebuilt on
    /// load).
    pub fn class_chunk_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of classes in the `i`-th class chunk (all chunks but the
    /// last hold exactly [`CpqxIndex::class_chunk_span`]).
    pub fn class_chunk_len(&self, i: usize) -> usize {
        self.classes[i].loops.len()
    }

    /// Whether the `i`-th class chunk is physically shared
    /// (`Arc::ptr_eq`) with the chunk at the same position of `before`.
    ///
    /// The incremental-snapshot change detector: mutation always goes
    /// through `Arc::make_mut`, so while `before` (the last-persisted
    /// state) is kept alive, pointer equality proves the chunk's classes
    /// are byte-identical (same rule as [`CpqxIndex::cow_diff`]).
    pub fn class_chunk_shared_with(&self, before: &CpqxIndex, i: usize) -> bool {
        matches!(before.classes.get(i), Some(b) if Arc::ptr_eq(b, &self.classes[i]))
    }
}

impl SeqProbe for CpqxIndex {
    fn seq_nonempty(&self, seq: &LabelSeq) -> bool {
        if self.is_indexed(seq) {
            self.lookup(seq).iter().any(|&c| !self.class_pairs(c).is_empty())
        } else {
            // Conservative: split into indexed chunks and check each piece.
            // (Non-empty pieces do not guarantee a non-empty whole, but the
            // workload filter only needs length-≤2 windows, which are always
            // indexed.)
            (0..seq.len()).all(|i| {
                let s = LabelSeq::single(seq.get(i));
                self.lookup(&s).iter().any(|&c| !self.class_pairs(c).is_empty())
            })
        }
    }
}

impl std::fmt::Debug for CpqxIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(if self.is_interest_aware() { "iaCPQx" } else { "CPQx" })
            .field("k", &self.k)
            .field("classes", &self.live_class_count())
            .field("pairs", &self.pair_count())
            .finish()
    }
}

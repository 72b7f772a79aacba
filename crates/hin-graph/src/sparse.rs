//! Sparse vector and matrix kernels.
//!
//! Neighbor vectors (`Φ_P(v)`, Definition 7 of the paper) are sparse: an
//! author connects to a handful of venues out of thousands. All outlierness
//! computation in the engine reduces to dot products and vector–matrix
//! products over these sparse structures, so they are kept deliberately
//! simple and cache-friendly: sorted coordinate lists for vectors and CSR for
//! matrices.

use crate::error::GraphError;
use crate::ids::VertexId;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, PoisonError};

/// A sparse vector over vertex ids with `f64` values.
///
/// Entries are stored sorted by vertex id with no duplicates and no explicit
/// zeros, which makes merges, dot products and equality `O(nnz)`.
///
/// Values are `f64` even though path counts are integral, because weighted
/// feature meta-paths and normalized scores require real arithmetic.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseVec {
    entries: Vec<(VertexId, f64)>,
}

impl SparseVec {
    /// The empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A vector with a single unit entry (`{v: 1.0}`), the seed of a
    /// meta-path propagation.
    pub fn unit(v: VertexId) -> Self {
        SparseVec {
            entries: vec![(v, 1.0)],
        }
    }

    /// Build from an arbitrary `(id, value)` list: entries are sorted,
    /// duplicates summed, zeros dropped.
    pub fn from_entries(mut entries: Vec<(VertexId, f64)>) -> Self {
        entries.sort_unstable_by_key(|(v, _)| *v);
        let mut out: Vec<(VertexId, f64)> = Vec::with_capacity(entries.len());
        for (v, x) in entries {
            match out.last_mut() {
                Some((lv, lx)) if *lv == v => *lx += x,
                _ => out.push((v, x)),
            }
        }
        out.retain(|(_, x)| *x != 0.0);
        SparseVec { entries: out }
    }

    /// Build from a hash-map accumulator.
    ///
    /// Retained for tests and IO paths only: internal propagation goes
    /// through [`DenseAccumulator`], which produces identical output without
    /// hashing or re-sorting overhead on the hot path.
    pub fn from_map(map: FxHashMap<VertexId, f64>) -> Self {
        let mut entries: Vec<(VertexId, f64)> =
            map.into_iter().filter(|(_, x)| *x != 0.0).collect();
        entries.sort_unstable_by_key(|(v, _)| *v);
        SparseVec { entries }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no non-zero entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value at `v` (`0.0` if absent). `O(log nnz)`.
    pub fn get(&self, v: VertexId) -> f64 {
        match self.entries.binary_search_by_key(&v, |(u, _)| *u) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Iterate `(id, value)` pairs in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The stored `(id, value)` pairs: ascending ids, no duplicates, no
    /// zeros.
    pub fn as_slice(&self) -> &[(VertexId, f64)] {
        &self.entries
    }

    /// The ids with non-zero values, in increasing order. This is the
    /// *neighborhood* `N_P(v)` of Definition 6 when the vector is `Φ_P(v)`.
    pub fn support(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.entries.iter().map(|(v, _)| *v)
    }

    /// Dot product with another sparse vector.
    ///
    /// Dispatches between a linear merge and a galloping search: when one
    /// operand's support is much larger than the other's (degree-skewed DBLP
    /// vectors — a prolific author against a niche one), probing the large
    /// side in `O(nnz_small · log nnz_large)` beats walking it linearly.
    /// Both paths accumulate matched products in ascending id order, so the
    /// result is bit-identical regardless of which path runs.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let (small, large) = if self.nnz() <= other.nnz() {
            (self, other)
        } else {
            (other, self)
        };
        if !small.is_empty() && large.nnz() >= GALLOP_FACTOR * small.nnz() {
            dot_gallop(&small.entries, &large.entries)
        } else {
            self.dot_merge(other)
        }
    }

    /// Dot product via the classic two-pointer merge: `O(nnz_a + nnz_b)`.
    ///
    /// The reference implementation [`SparseVec::dot`] dispatches to (and is
    /// property-tested against); exposed so benchmarks and tests can pin the
    /// kernel variant.
    pub fn dot_merge(&self, other: &SparseVec) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Squared Euclidean norm, `‖x‖²`. Equals the *visibility* `χ(v, v)` of
    /// Section 5.1 when the vector is `Φ_P(v)`.
    pub fn norm2_sq(&self) -> f64 {
        self.entries.iter().map(|(_, x)| x * x).sum()
    }

    /// Euclidean norm `‖x‖₂`.
    pub fn norm2(&self) -> f64 {
        self.norm2_sq().sqrt()
    }

    /// Sum of values, `‖x‖₁` for non-negative vectors (path counts).
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|(_, x)| x).sum()
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist2_sq(&self, other: &SparseVec) -> f64 {
        // ‖a‖² + ‖b‖² − 2·a·b computed entry-wise to avoid cancellation on
        // near-identical vectors.
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    acc += a[i].1 * a[i].1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    acc += b[j].1 * b[j].1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let d = a[i].1 - b[j].1;
                    acc += d * d;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc += a[i..].iter().map(|(_, x)| x * x).sum::<f64>();
        acc += b[j..].iter().map(|(_, x)| x * x).sum::<f64>();
        acc
    }

    /// `self += other` (sparse merge).
    pub fn add_assign(&mut self, other: &SparseVec) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.entries = other.entries.clone();
            return;
        }
        let mut out = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let x = a[i].1 + b[j].1;
                    if x != 0.0 {
                        out.push((a[i].0, x));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.entries = out;
    }

    /// `self *= s`. Scaling by zero empties the vector.
    pub fn scale(&mut self, s: f64) {
        if s == 0.0 {
            self.entries.clear();
        } else {
            for (_, x) in &mut self.entries {
                *x *= s;
            }
        }
    }

    /// Approximate heap footprint in bytes (used for index-size accounting,
    /// Figure 5b of the paper).
    pub fn size_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(VertexId, f64)>()
            + std::mem::size_of::<Self>()
    }
}

impl FromIterator<(VertexId, f64)> for SparseVec {
    fn from_iter<I: IntoIterator<Item = (VertexId, f64)>>(iter: I) -> Self {
        SparseVec::from_entries(iter.into_iter().collect())
    }
}

/// Nnz ratio above which [`SparseVec::dot`] switches from the linear merge
/// to galloping search of the larger operand.
const GALLOP_FACTOR: usize = 8;

/// Galloping dot product: for each entry of `small`, exponentially probe
/// forward in `large` from the last match position, then binary-search the
/// bracketed window. Matches are accumulated in ascending id order — the
/// same order as the merge — so the floating-point sum is identical.
fn dot_gallop(small: &[(VertexId, f64)], large: &[(VertexId, f64)]) -> f64 {
    let mut acc = 0.0;
    let mut base = 0usize;
    for &(id, x) in small {
        if base >= large.len() {
            break;
        }
        // Probe offsets base, base+1, base+3, base+7, … until we pass `id`
        // or run off the end. Invariant: every index below `lo` holds a
        // column id `< id`.
        let mut lo = base;
        let mut hi = base;
        let mut step = 1usize;
        while hi < large.len() && large[hi].0 < id {
            lo = hi + 1;
            hi = base + step;
            step = step.saturating_mul(2);
        }
        let upper = if hi < large.len() {
            hi + 1
        } else {
            large.len()
        };
        match large[lo..upper].binary_search_by_key(&id, |(u, _)| *u) {
            Ok(k) => {
                acc += x * large[lo + k].1;
                base = lo + k + 1;
            }
            Err(k) => base = lo + k,
        }
    }
    acc
}

/// Reusable dense scatter workspace for building [`SparseVec`]s on the hot
/// propagation path.
///
/// Additions scatter into a dense `values` array indexed by raw vertex id; a
/// `touched` list records which slots are live so [`DenseAccumulator::finish`]
/// can gather them back in sorted order without scanning the whole id space.
/// An epoch counter makes reuse O(touched) instead of O(id space): slots
/// stamped with an older epoch read as absent, so nothing needs re-zeroing
/// between queries.
///
/// Produces output identical to the [`SparseVecBuilder`] hash-map kernel
/// (same per-id addition order, id-sorted, exact zeros dropped) while
/// avoiding hashing and allocation once warm. [`PooledAccumulator`] hands
/// out warm ones.
#[derive(Debug, Clone)]
pub struct DenseAccumulator {
    /// Dense value per raw vertex id; valid only when the epoch matches.
    values: Vec<f64>,
    /// Epoch stamp per slot; `epochs[i] == epoch` means `values[i]` is live.
    epochs: Vec<u32>,
    /// Current generation. Starts at 1 so zero-initialized slots are stale.
    epoch: u32,
    /// Raw ids of live slots, in first-touch order (sorted on `finish`).
    touched: Vec<u32>,
}

impl Default for DenseAccumulator {
    fn default() -> Self {
        DenseAccumulator {
            values: Vec::new(),
            epochs: Vec::new(),
            epoch: 1,
            touched: Vec::new(),
        }
    }
}

impl DenseAccumulator {
    /// Create an empty workspace. Slots grow on demand as ids are touched.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create with slots preallocated for ids `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        DenseAccumulator {
            values: vec![0.0; n],
            epochs: vec![0; n],
            epoch: 1,
            touched: Vec::new(),
        }
    }

    /// `self[v] += x`.
    #[inline]
    pub fn add(&mut self, v: VertexId, x: f64) {
        let i = v.0 as usize;
        if i >= self.values.len() {
            self.values.resize(i + 1, 0.0);
            self.epochs.resize(i + 1, 0);
        }
        if self.epochs[i] == self.epoch {
            self.values[i] += x;
        } else {
            self.epochs[i] = self.epoch;
            self.values[i] = x;
            self.touched.push(v.0);
        }
    }

    /// `self[v] += w · x` for every `(v, x)` of `entries`, in slice order.
    /// Scattering the terms of a weighted sum of canonical vectors one
    /// after the other makes, per id, the additions a fold of
    /// [`SparseVec::scale`] and [`SparseVec::add_assign`] makes, in the same
    /// order, so [`finish`](DenseAccumulator::finish) returns the same bits
    /// — at a cost of the entries scattered, not of the running sum.
    pub fn add_scaled(&mut self, entries: &[(VertexId, f64)], w: f64) {
        for &(v, x) in entries {
            self.add(v, x * w);
        }
    }

    /// Dot product of `x` with what has been accumulated this generation,
    /// without gathering it: walks `x` in ascending id order and multiplies
    /// only live, non-zero slots — the matches [`SparseVec::dot_merge`]
    /// against the gathered vector would find, added in the same order, so
    /// the same bits at a cost of `x.nnz()`.
    pub fn dot(&self, x: &SparseVec) -> f64 {
        let mut acc = 0.0;
        for &(v, a) in &x.entries {
            let i = v.0 as usize;
            if self.epochs.get(i) == Some(&self.epoch) && self.values[i] != 0.0 {
                acc += a * self.values[i];
            }
        }
        acc
    }

    /// Number of distinct ids touched this generation. An upper bound on the
    /// nnz of the vector [`DenseAccumulator::finish`] would produce (touched
    /// slots that cancelled to exactly zero still count).
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether nothing has been accumulated this generation.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Gather the accumulated entries into a [`SparseVec`] (id-sorted, exact
    /// zeros dropped) and reset the workspace for reuse.
    pub fn finish(&mut self) -> SparseVec {
        self.touched.sort_unstable();
        let mut entries = Vec::with_capacity(self.touched.len());
        for &i in &self.touched {
            let x = self.values[i as usize];
            if x != 0.0 {
                entries.push((VertexId(i), x));
            }
        }
        self.clear();
        SparseVec { entries }
    }

    /// Discard everything accumulated this generation, making the workspace
    /// ready for reuse. O(touched), except once every `u32::MAX` generations
    /// when the epoch wraps and every stamp is rewritten.
    pub fn clear(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            for e in &mut self.epochs {
                *e = 0;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.epochs.capacity() * std::mem::size_of::<u32>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
            + std::mem::size_of::<Self>()
    }
}

/// Idle workspaces, most recently returned last. Process-wide rather than
/// thread-local because shard workers and index-build workers are scoped
/// threads that die with their stage; a thread-local list would be thrown
/// away with them.
static POOL: Mutex<Vec<DenseAccumulator>> = Mutex::new(Vec::new());

/// A [`DenseAccumulator`] checked out of the process-wide free list, so the
/// first scatter of a query, shard or index row lands in slots that an
/// earlier one already grew. Dereferences to the accumulator; dropping it —
/// on success, error or unwind alike — clears it and puts it back, or frees
/// it when the list already holds [`MAX_IDLE`](PooledAccumulator::MAX_IDLE)
/// workspaces.
#[derive(Debug)]
pub struct PooledAccumulator(DenseAccumulator);

impl PooledAccumulator {
    /// Most idle workspaces the process keeps: the engine's cap on threads
    /// per query, so one fully parallel query reuses every workspace it
    /// returned. Retained memory is at most `MAX_IDLE × 12 B ×` the largest
    /// id space scattered into (8 B value + 4 B epoch per id), plus the
    /// touched lists.
    pub const MAX_IDLE: usize = 16;

    /// Take the most recently returned idle workspace, or a new empty one.
    pub fn checkout() -> Self {
        // A poisoned lock is recovered: the list is only pushed to and
        // popped from, so it is valid whenever the lock is free.
        let idle = POOL.lock().unwrap_or_else(PoisonError::into_inner).pop();
        PooledAccumulator(idle.unwrap_or_default())
    }

    /// How many workspaces sit idle in the free list right now.
    pub fn idle_count() -> usize {
        POOL.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

impl Deref for PooledAccumulator {
    type Target = DenseAccumulator;
    fn deref(&self) -> &DenseAccumulator {
        &self.0
    }
}

impl DerefMut for PooledAccumulator {
    fn deref_mut(&mut self) -> &mut DenseAccumulator {
        &mut self.0
    }
}

impl Drop for PooledAccumulator {
    fn drop(&mut self) {
        let mut ws = std::mem::take(&mut self.0);
        ws.clear();
        let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < Self::MAX_IDLE {
            pool.push(ws);
        }
    }
}

/// Accumulator for building a [`SparseVec`] by scattered additions.
///
/// Uses a hash map internally and sorts once on
/// [`SparseVecBuilder::finish`]. Retained for tests and IO, where it is the
/// reference the [`DenseAccumulator`] kernel is checked against; propagation
/// uses the reusable workspace instead.
#[derive(Debug, Default)]
pub struct SparseVecBuilder {
    map: FxHashMap<VertexId, f64>,
}

impl SparseVecBuilder {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create with capacity for `n` distinct ids.
    pub fn with_capacity(n: usize) -> Self {
        SparseVecBuilder {
            map: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// `self[v] += x`.
    #[inline]
    pub fn add(&mut self, v: VertexId, x: f64) {
        *self.map.entry(v).or_insert(0.0) += x;
    }

    /// Number of distinct ids accumulated so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sort and freeze into a [`SparseVec`].
    pub fn finish(self) -> SparseVec {
        SparseVec::from_map(self.map)
    }
}

/// A sparse matrix in CSR form, mapping *row* vertex ids to sparse rows over
/// *column* vertex ids.
///
/// Rows are keyed by global vertex id but stored compactly: `row_index` maps
/// a vertex id to a row slot (dense `Vec` over the full id space would waste
/// memory for type-local matrices). Used to pre-materialize length-2
/// meta-path relations (Section 6.2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SparseMatrix {
    /// Sorted list of row vertex ids present in the matrix.
    rows: Vec<VertexId>,
    /// CSR offsets: row `i` occupies `cols_vals[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Concatenated (column id, value) pairs, sorted by column within a row.
    cols_vals: Vec<(VertexId, f64)>,
}

impl SparseMatrix {
    /// Build from per-row sparse vectors. `rows` need not be sorted;
    /// duplicate row ids are rejected by debug assertion.
    pub fn from_rows(mut rows: Vec<(VertexId, SparseVec)>) -> Self {
        rows.sort_unstable_by_key(|(v, _)| *v);
        debug_assert!(
            rows.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate row ids in SparseMatrix::from_rows"
        );
        let mut row_ids = Vec::with_capacity(rows.len());
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let total: usize = rows.iter().map(|(_, r)| r.nnz()).sum();
        let mut cols_vals = Vec::with_capacity(total);
        offsets.push(0u32);
        for (v, row) in rows {
            row_ids.push(v);
            cols_vals.extend(row.iter());
            offsets.push(cols_vals.len() as u32);
        }
        SparseMatrix {
            rows: row_ids,
            offsets,
            cols_vals,
        }
    }

    /// The raw columns backing this matrix, for serialization:
    /// `(row ids, offsets, (column, value) pairs)`. Row ids are sorted
    /// ascending; `offsets` has `row_count() + 1` entries delimiting each
    /// row's pairs; columns are sorted within each row.
    pub fn raw_parts(&self) -> (&[VertexId], &[u32], &[(VertexId, f64)]) {
        (&self.rows, &self.offsets, &self.cols_vals)
    }

    /// Rebuild a matrix from raw columns (the inverse of
    /// [`SparseMatrix::raw_parts`]), validating the structural invariants
    /// the accessors rely on: strictly ascending row ids, a monotone offsets
    /// column of length `rows + 1` starting at 0 and ending at
    /// `cols_vals.len()`, and within each row strictly ascending columns and
    /// no stored zero — a stored row is a canonical [`SparseVec`], which is
    /// what lets [`SparseMatrix::row_vec`] copy it as it is. Never panics on
    /// malformed input.
    pub fn from_raw_parts(
        rows: Vec<VertexId>,
        offsets: Vec<u32>,
        cols_vals: Vec<(VertexId, f64)>,
    ) -> Result<Self, GraphError> {
        let raw_err = |message: String| GraphError::Format { line: 0, message };
        if offsets.len() != rows.len() + 1 {
            return Err(raw_err(format!(
                "matrix offsets: expected {} entries, found {}",
                rows.len() + 1,
                offsets.len()
            )));
        }
        if rows.windows(2).any(|w| w[0] >= w[1]) {
            return Err(raw_err("matrix row ids not strictly ascending".into()));
        }
        if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(raw_err("matrix offsets not monotone from 0".into()));
        }
        if offsets[rows.len()] as usize != cols_vals.len() {
            return Err(raw_err(format!(
                "matrix offsets end at {} but {} pairs are stored",
                offsets[rows.len()],
                cols_vals.len()
            )));
        }
        for (i, w) in offsets.windows(2).enumerate() {
            let row = &cols_vals[w[0] as usize..w[1] as usize];
            if row.windows(2).any(|p| p[0].0 >= p[1].0) {
                return Err(raw_err(format!(
                    "matrix row {i}: columns not strictly ascending"
                )));
            }
            if row.iter().any(|&(_, x)| x == 0.0) {
                return Err(raw_err(format!("matrix row {i}: stored zero")));
            }
        }
        Ok(SparseMatrix {
            rows,
            offsets,
            cols_vals,
        })
    }

    /// Number of stored rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Total stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.cols_vals.len()
    }

    /// Whether the matrix stores a row for vertex `v`.
    pub fn has_row(&self, v: VertexId) -> bool {
        self.row_slot(v).is_some()
    }

    /// The position of vertex `v`'s row among the stored rows (ascending
    /// row id — the order of [`SparseMatrix::raw_parts`] and of any column
    /// kept parallel to the rows), or `None` if the row is not stored.
    pub fn row_slot(&self, v: VertexId) -> Option<usize> {
        self.rows.binary_search(&v).ok()
    }

    /// The stored row at position `slot < row_count()`.
    fn row_at(&self, slot: usize) -> &[(VertexId, f64)] {
        &self.cols_vals[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// The row of vertex `v` as a slice of `(column, value)` pairs, or `None`
    /// if the row is not stored. A stored-but-empty row returns `Some(&[])`.
    pub fn row(&self, v: VertexId) -> Option<&[(VertexId, f64)]> {
        self.row_slot(v).map(|slot| self.row_at(slot))
    }

    /// The row of vertex `v` as an owned [`SparseVec`]: one allocation and
    /// one copy of the stored slice, which every constructor keeps canonical.
    pub fn row_vec(&self, v: VertexId) -> Option<SparseVec> {
        self.row(v).map(|row| SparseVec {
            entries: row.to_vec(),
        })
    }

    /// Iterate stored rows as `(row id, row slice)`.
    pub fn iter_rows(&self) -> impl Iterator<Item = (VertexId, &[(VertexId, f64)])> + '_ {
        self.rows
            .iter()
            .enumerate()
            .map(move |(slot, v)| (*v, self.row_at(slot)))
    }

    /// Sparse vector–matrix product `x · M`: propagates a frontier one
    /// materialized hop. Rows of `M` absent from the index contribute
    /// nothing; callers that need exactness must ensure coverage (the SPM
    /// engine falls back to traversal instead).
    pub fn vec_mul(&self, x: &SparseVec) -> SparseVec {
        self.vec_mul_with(x, &mut DenseAccumulator::new())
    }

    /// [`SparseMatrix::vec_mul`] scattering through a caller-provided
    /// workspace, so repeated products reuse one allocation.
    pub fn vec_mul_with(&self, x: &SparseVec, ws: &mut DenseAccumulator) -> SparseVec {
        for (v, weight) in x.iter() {
            if let Some(row) = self.row(v) {
                for &(u, m) in row {
                    ws.add(u, weight * m);
                }
            }
        }
        ws.finish()
    }

    /// Approximate heap footprint in bytes (Figure 5b accounting).
    pub fn size_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<VertexId>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.cols_vals.capacity() * std::mem::size_of::<(VertexId, f64)>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> VertexId {
        VertexId(id)
    }

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_entries(pairs.iter().map(|&(i, x)| (v(i), x)).collect())
    }

    #[test]
    fn from_entries_sorts_merges_drops_zeros() {
        let x = sv(&[(3, 1.0), (1, 2.0), (3, 4.0), (2, 0.0)]);
        assert_eq!(x.nnz(), 2);
        assert_eq!(x.get(v(1)), 2.0);
        assert_eq!(x.get(v(3)), 5.0);
        assert_eq!(x.get(v(2)), 0.0);
        let ids: Vec<u32> = x.support().map(|u| u.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn unit_vector() {
        let x = SparseVec::unit(v(7));
        assert_eq!(x.nnz(), 1);
        assert_eq!(x.get(v(7)), 1.0);
        assert_eq!(x.sum(), 1.0);
    }

    #[test]
    fn dot_product_merge() {
        let a = sv(&[(1, 2.0), (3, 1.0), (5, 3.0)]);
        let b = sv(&[(1, 4.0), (2, 9.0), (5, 6.0)]);
        // 2*4 + 3*6 = 26
        assert_eq!(a.dot(&b), 26.0);
        assert_eq!(b.dot(&a), 26.0);
        assert_eq!(a.dot(&SparseVec::new()), 0.0);
    }

    #[test]
    fn norms() {
        let a = sv(&[(1, 3.0), (2, 4.0)]);
        assert_eq!(a.norm2_sq(), 25.0);
        assert_eq!(a.norm2(), 5.0);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    fn distance_squared() {
        let a = sv(&[(1, 1.0), (2, 2.0)]);
        let b = sv(&[(2, 2.0), (3, 3.0)]);
        // (1-0)² + (2-2)² + (0-3)² = 10
        assert_eq!(a.dist2_sq(&b), 10.0);
        assert_eq!(b.dist2_sq(&a), 10.0);
        assert_eq!(a.dist2_sq(&a), 0.0);
    }

    #[test]
    fn add_assign_merges_and_cancels() {
        let mut a = sv(&[(1, 1.0), (2, -3.0)]);
        let b = sv(&[(2, 3.0), (4, 5.0)]);
        a.add_assign(&b);
        assert_eq!(a, sv(&[(1, 1.0), (4, 5.0)]));

        let mut empty = SparseVec::new();
        empty.add_assign(&b);
        assert_eq!(empty, b);
    }

    #[test]
    fn scale_and_zero_scale() {
        let mut a = sv(&[(1, 2.0)]);
        a.scale(3.0);
        assert_eq!(a.get(v(1)), 6.0);
        a.scale(0.0);
        assert!(a.is_empty());
    }

    #[test]
    fn builder_accumulates() {
        let mut b = SparseVecBuilder::new();
        assert!(b.is_empty());
        b.add(v(5), 1.0);
        b.add(v(2), 2.0);
        b.add(v(5), 1.5);
        assert_eq!(b.len(), 2);
        let x = b.finish();
        assert_eq!(x, sv(&[(2, 2.0), (5, 2.5)]));
    }

    #[test]
    fn from_iterator() {
        let x: SparseVec = [(v(2), 1.0), (v(1), 1.0)].into_iter().collect();
        assert_eq!(x.nnz(), 2);
    }

    #[test]
    fn matrix_rows_and_lookup() {
        let m = SparseMatrix::from_rows(vec![
            (v(10), sv(&[(1, 1.0), (2, 2.0)])),
            (v(5), sv(&[(3, 3.0)])),
        ]);
        assert_eq!(m.row_count(), 2);
        assert_eq!(m.nnz(), 3);
        assert!(m.has_row(v(5)));
        assert!(!m.has_row(v(6)));
        assert_eq!(m.row(v(10)).unwrap(), &[(v(1), 1.0), (v(2), 2.0)]);
        assert_eq!(m.row_vec(v(5)).unwrap(), sv(&[(3, 3.0)]));
        assert!(m.row(v(99)).is_none());
    }

    #[test]
    fn matrix_stored_empty_row_distinct_from_missing() {
        let m = SparseMatrix::from_rows(vec![(v(1), SparseVec::new())]);
        assert_eq!(m.row(v(1)).unwrap(), &[]);
        assert!(m.row(v(2)).is_none());
    }

    #[test]
    fn vec_mul_propagates() {
        // M: row 1 -> {10:2}, row 2 -> {10:1, 11:3}
        let m = SparseMatrix::from_rows(vec![
            (v(1), sv(&[(10, 2.0)])),
            (v(2), sv(&[(10, 1.0), (11, 3.0)])),
        ]);
        let x = sv(&[(1, 1.0), (2, 2.0)]);
        let y = m.vec_mul(&x);
        // y[10] = 1*2 + 2*1 = 4 ; y[11] = 2*3 = 6
        assert_eq!(y, sv(&[(10, 4.0), (11, 6.0)]));
    }

    #[test]
    fn vec_mul_missing_rows_contribute_nothing() {
        let m = SparseMatrix::from_rows(vec![(v(1), sv(&[(10, 2.0)]))]);
        let x = sv(&[(1, 1.0), (99, 5.0)]);
        assert_eq!(m.vec_mul(&x), sv(&[(10, 2.0)]));
    }

    #[test]
    fn size_accounting_nonzero() {
        let m = SparseMatrix::from_rows(vec![(v(1), sv(&[(10, 2.0)]))]);
        assert!(m.size_bytes() > 0);
        assert!(sv(&[(1, 1.0)]).size_bytes() > 0);
    }

    #[test]
    fn dense_accumulator_matches_builder() {
        let adds = [(5u32, 1.0), (2, 2.0), (5, 1.5), (9, -4.0), (2, -2.0)];
        let mut dense = DenseAccumulator::new();
        let mut hashed = SparseVecBuilder::new();
        for &(i, x) in &adds {
            dense.add(v(i), x);
            hashed.add(v(i), x);
        }
        assert_eq!(dense.len(), 3);
        // id 2 cancelled to exactly zero: dropped by both kernels.
        assert_eq!(dense.finish(), hashed.finish());
    }

    #[test]
    fn dense_accumulator_reuse_is_clean() {
        let mut ws = DenseAccumulator::new();
        ws.add(v(3), 7.0);
        ws.add(v(1), 1.0);
        assert_eq!(ws.finish(), sv(&[(1, 1.0), (3, 7.0)]));
        // Second generation must not see first-generation residue.
        assert!(ws.is_empty());
        ws.add(v(3), 2.0);
        assert_eq!(ws.finish(), sv(&[(3, 2.0)]));
        // Cleared mid-accumulation: nothing leaks into the next finish.
        ws.add(v(5), 9.0);
        ws.clear();
        ws.add(v(6), 1.0);
        assert_eq!(ws.finish(), sv(&[(6, 1.0)]));
    }

    #[test]
    fn dense_accumulator_epoch_wrap() {
        let mut ws = DenseAccumulator::with_capacity(4);
        ws.add(v(2), 5.0);
        let _ = ws.finish();
        // Force the wrap: the next clear() must rewrite stale stamps so old
        // generations cannot alias the restarted epoch.
        ws.epoch = u32::MAX;
        ws.add(v(2), 1.0);
        ws.add(v(3), 2.0);
        assert_eq!(ws.finish(), sv(&[(2, 1.0), (3, 2.0)]));
        assert_eq!(ws.epoch, 1);
        ws.add(v(3), 4.0);
        assert_eq!(ws.finish(), sv(&[(3, 4.0)]));
    }

    #[test]
    fn pooled_accumulator_returns_clean_and_list_is_bounded() {
        // More workspaces out at once than the list keeps: returning them
        // all must not grow it past the cap.
        let mut out: Vec<PooledAccumulator> = (0..PooledAccumulator::MAX_IDLE + 4)
            .map(|_| PooledAccumulator::checkout())
            .collect();
        for (i, ws) in out.iter_mut().enumerate() {
            // Abandoned mid-scatter, as an unwinding caller would leave it.
            ws.add(v(i as u32), 1.0 + i as f64);
        }
        drop(out);
        assert!(PooledAccumulator::idle_count() <= PooledAccumulator::MAX_IDLE);
        // Whatever comes out next — one of those or a new one — is empty
        // and builds exactly what a fresh accumulator builds.
        for _ in 0..PooledAccumulator::MAX_IDLE + 4 {
            let mut ws = PooledAccumulator::checkout();
            assert!(ws.is_empty());
            let mut fresh = DenseAccumulator::new();
            for (i, x) in [(7u32, 0.5), (3, 2.0), (7, 0.25)] {
                ws.add(v(i), x);
                fresh.add(v(i), x);
            }
            assert_eq!(ws.finish(), fresh.finish());
        }
    }

    #[test]
    fn add_scaled_and_gather_dot_match_the_merge_kernels() {
        // −1.5·a cancels id 2 of b exactly; c brings id 2 back.
        let a = sv(&[(1, 2.0), (2, 2.0)]);
        let b = sv(&[(2, 3.0), (7, 0.25)]);
        let c = sv(&[(2, 0.5), (9, -4.0)]);
        let mut ws = DenseAccumulator::new();
        let mut folded = SparseVec::new();
        let probe = sv(&[(0, 9.0), (2, 3.0), (7, -2.0), (400, 1.0)]);
        for (x, w) in [(&b, 1.0), (&a, -1.5), (&c, 1.0)] {
            ws.add_scaled(x.as_slice(), w);
            let mut term = x.clone();
            term.scale(w);
            folded.add_assign(&term);
            // The gather sees the running sum: a slot that cancelled to zero
            // is skipped like the entry `add_assign` dropped, and an id past
            // the workspace's slots reads as absent.
            assert_eq!(ws.dot(&probe).to_bits(), probe.dot_merge(&folded).to_bits());
        }
        assert_eq!(ws.finish(), folded);
        assert_eq!(ws.dot(&probe), 0.0, "a finished workspace is empty");
    }

    #[test]
    fn row_vec_copies_the_stored_row() {
        let m = SparseMatrix::from_rows(vec![
            (v(4), sv(&[(1, 1.0), (9, 2.0)])),
            (v(2), SparseVec::new()),
        ]);
        assert_eq!(m.row_slot(v(2)), Some(0));
        assert_eq!(m.row_slot(v(4)), Some(1));
        assert_eq!(m.row_slot(v(3)), None);
        assert_eq!(m.row_at(1), m.row(v(4)).unwrap());
        assert_eq!(m.row_vec(v(4)).unwrap().as_slice(), m.row(v(4)).unwrap());
        assert_eq!(m.row_vec(v(2)).unwrap(), SparseVec::new());
        assert!(m.row_vec(v(3)).is_none());
    }

    #[test]
    fn from_raw_parts_rejects_rows_that_are_not_canonical() {
        let rows = vec![v(1), v(2)];
        let offsets = vec![0u32, 2, 3];
        let ok = vec![(v(5), 1.0), (v(6), 2.0), (v(5), 3.0)];
        let m = SparseMatrix::from_raw_parts(rows.clone(), offsets.clone(), ok.clone()).unwrap();
        assert_eq!(m.row_vec(v(1)).unwrap().as_slice(), m.row(v(1)).unwrap());
        // A repeated column would make `row()` and a re-canonicalised copy
        // disagree; so would a stored zero, positive or negative.
        for (at, bad) in [(1, (v(5), 2.0)), (1, (v(6), 0.0)), (2, (v(5), -0.0))] {
            let mut pairs = ok.clone();
            pairs[at] = bad;
            let err = SparseMatrix::from_raw_parts(rows.clone(), offsets.clone(), pairs);
            assert!(
                matches!(err, Err(GraphError::Format { .. })),
                "{bad:?} at {at}: {err:?}"
            );
        }
        // Descending columns were rejected before and still are.
        let pairs = vec![(v(6), 1.0), (v(5), 2.0), (v(5), 3.0)];
        assert!(SparseMatrix::from_raw_parts(rows, offsets, pairs).is_err());
    }

    #[test]
    fn vec_mul_with_reuses_workspace() {
        let m = SparseMatrix::from_rows(vec![
            (v(1), sv(&[(10, 2.0)])),
            (v(2), sv(&[(10, 1.0), (11, 3.0)])),
        ]);
        let mut ws = DenseAccumulator::new();
        let x = sv(&[(1, 1.0), (2, 2.0)]);
        assert_eq!(m.vec_mul_with(&x, &mut ws), m.vec_mul(&x));
        // Reuse for a different frontier.
        let y = sv(&[(2, 1.0)]);
        assert_eq!(m.vec_mul_with(&y, &mut ws), sv(&[(10, 1.0), (11, 3.0)]));
    }

    #[test]
    fn dot_gallop_matches_merge_on_skewed_operands() {
        // `large` has 128 entries, `small` has 3 → gallop path taken.
        let large = SparseVec::from_entries((0..128).map(|i| (v(i * 3), 0.5 + i as f64)).collect());
        let small = sv(&[(0, 2.0), (9, 1.0), (300, 4.0)]);
        assert!(large.nnz() >= GALLOP_FACTOR * small.nnz());
        let expected = small.dot_merge(&large);
        assert_eq!(small.dot(&large), expected);
        assert_eq!(large.dot(&small), expected);
        // Disjoint supports gallop to zero.
        let disjoint = sv(&[(1, 1.0), (2, 1.0), (400, 1.0)]);
        assert_eq!(disjoint.dot(&large), 0.0);
    }

    #[test]
    fn dot_gallop_small_past_end_of_large() {
        let large = SparseVec::from_entries((0..64).map(|i| (v(i), 1.0)).collect());
        // Entries beyond the large vector's id range must not probe out of
        // bounds; the one overlapping id still counts.
        let small = sv(&[(63, 2.0), (100, 5.0), (200, 5.0)]);
        assert_eq!(small.dot(&large), 2.0);
    }

    #[test]
    fn iter_rows_in_sorted_order() {
        let m = SparseMatrix::from_rows(vec![(v(9), sv(&[(1, 1.0)])), (v(3), sv(&[(2, 2.0)]))]);
        let order: Vec<u32> = m.iter_rows().map(|(r, _)| r.0).collect();
        assert_eq!(order, vec![3, 9]);
    }
}

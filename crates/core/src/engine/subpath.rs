//! A cross-query cache of meta-path *sub-product* vectors.
//!
//! The whole-vector [`VectorCache`](crate::engine::cache::VectorCache) only
//! pays off when two queries ask for the exact same `(meta-path, vertex)`
//! pair. Interactive workloads elaborate queries instead: consecutive
//! queries share anchors, templates, and meta-path *prefixes*, so their
//! propagations recompute the same intermediate chunk products from scratch.
//! [`SubpathCache`] memoizes those intermediates: every requested meta-path
//! is decomposed into its canonical length-2 chunks (the same
//! [`MetaPath::decompose_pairs`] decomposition the PM index materializes),
//! and both per-seed chunk products and completed prefix products are cached
//! across queries. A later query whose path shares a prefix resumes
//! propagation from the longest cached prefix instead of the seed vertex.
//!
//! # Cost-based admission, byte-budgeted eviction
//!
//! The cache is bounded by a byte budget, not an entry count: chunk products
//! range from a handful of entries to near-dense vectors, so counting
//! entries would make the footprint workload-dependent. Admission is
//! cost-based: a small frequency sketch tracks how often each sub-path key
//! has been requested, and a new product is admitted only if its *value
//! density* (observed frequency per byte) is at least that of the
//! least-recently-used entries it would displace. The comparison
//! `freq_in · bytes_victim ≥ freq_victim · bytes_in` is evaluated in integer
//! arithmetic, so admission decisions are exact and reproducible for a given
//! access sequence. Oversized products (more than 1/8 of the budget) are
//! rejected outright — one giant vector must not wipe the working set.
//!
//! # Bit-identical results, budget-equivalent hits
//!
//! Chunked evaluation sums per-seed chunk products instead of propagating
//! one whole frontier; both orders sum the same nonnegative integer path
//! counts, which f64 addition represents exactly (below 2⁵³), so cached and
//! uncached runs produce bit-identical vectors — the same invariant that
//! makes the PM index equal the baseline. Budgets are the subtler half: a
//! hit skips the propagation loop, so it would also skip the `max_nnz`
//! checks a miss performs. Each entry therefore stores the **peak frontier
//! `nnz` checked while computing it** (captured via
//! [`ExecCtx`] chunk-peak accounting), and every hit replays that peak
//! through [`ExecCtx::check_frontier`]. A frontier cap then fires on a hit
//! if and only if it would have fired recomputing the product, which keeps
//! degraded outcomes deterministic across thread counts even though cache
//! fill order races.

use crate::engine::budget::ExecCtx;
use crate::engine::source::{scatter_frontier, VectorSource};
use crate::error::EngineError;
use hin_graph::{MetaPath, SparseVec, VertexId};
use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHasher};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::time::Instant;

type Key = (MetaPath, VertexId);

/// Number of counters in the frequency sketch (power of two).
const SKETCH_SLOTS: usize = 4096;
/// Every `AGE_INTERVAL` recorded accesses all sketch counters are halved,
/// so stale popularity decays instead of pinning the cache forever.
const AGE_INTERVAL: u64 = 8 * SKETCH_SLOTS as u64;

/// Counters and gauges of a [`SubpathCache`], snapshotted together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubpathStats {
    /// Lookups served from the cache (chunk and prefix hits combined).
    pub hits: u64,
    /// Subset of `hits` that matched a multi-chunk prefix product, skipping
    /// at least two propagation steps.
    pub prefix_hits: u64,
    /// Lookups that found nothing cached.
    pub misses: u64,
    /// Products accepted by the admission policy.
    pub admitted: u64,
    /// Products rejected by the admission policy (too large, or less
    /// valuable per byte than the entries they would displace).
    pub rejected: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Bytes of cached products currently resident.
    pub bytes_resident: u64,
    /// Number of resident entries.
    pub entries: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
}

impl SubpathStats {
    /// Hit rate in `[0, 1]`; `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Counter-by-counter difference against an earlier snapshot (gauges are
    /// carried over from `self`). Used to report per-run deltas when one
    /// process executes several workload runs against a shared cache.
    pub fn since(&self, earlier: &SubpathStats) -> SubpathStats {
        SubpathStats {
            hits: self.hits.saturating_sub(earlier.hits),
            prefix_hits: self.prefix_hits.saturating_sub(earlier.prefix_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            admitted: self.admitted.saturating_sub(earlier.admitted),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bytes_resident: self.bytes_resident,
            entries: self.entries,
            budget_bytes: self.budget_bytes,
        }
    }
}

/// Monotonic counters kept under the lock (the public [`SubpathStats`]
/// snapshot adds the point-in-time gauges).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    prefix_hits: u64,
    misses: u64,
    admitted: u64,
    rejected: u64,
    evictions: u64,
}

/// A fixed-size frequency sketch: two hash-indexed saturating `u32`
/// counters per key, estimate = their minimum (a 2-row count-min). Counters
/// are halved every [`AGE_INTERVAL`] accesses so old popularity decays.
struct FreqSketch {
    counters: Vec<u32>,
    ops: u64,
}

impl FreqSketch {
    fn new() -> FreqSketch {
        FreqSketch {
            counters: vec![0; SKETCH_SLOTS],
            ops: 0,
        }
    }

    /// The two counter slots for a key hash: the low bits, and a
    /// multiply-shift remix of the whole hash (independent enough that two
    /// keys rarely collide in both).
    fn slots(h: u64) -> [usize; 2] {
        let a = (h as usize) & (SKETCH_SLOTS - 1);
        let b = ((h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (SKETCH_SLOTS - 1);
        [a, b]
    }

    fn record(&mut self, h: u64) {
        for s in Self::slots(h) {
            self.counters[s] = self.counters[s].saturating_add(1);
        }
        self.ops += 1;
        if self.ops.is_multiple_of(AGE_INTERVAL) {
            for c in &mut self.counters {
                *c /= 2;
            }
        }
    }

    fn estimate(&self, h: u64) -> u32 {
        let [a, b] = Self::slots(h);
        self.counters[a].min(self.counters[b])
    }

    fn reset(&mut self) {
        self.counters.fill(0);
        self.ops = 0;
    }
}

fn key_hash(key: &Key) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

struct Entry {
    vec: SparseVec,
    /// Peak frontier `nnz` that was checked while computing this product;
    /// replayed through [`ExecCtx::check_frontier`] on every hit so budget
    /// outcomes are identical whether the product is cached or recomputed.
    peak_nnz: usize,
    stamp: u64,
    /// Accounted size (vector heap footprint + key), fixed at admission.
    bytes: usize,
}

struct Inner {
    map: FxHashMap<Key, Entry>,
    /// Access log for amortized-O(1) LRU: stale `(key, stamp)` pairs are
    /// skipped during eviction.
    log: VecDeque<(Key, u64)>,
    next_stamp: u64,
    /// Sum of `Entry::bytes` over the map, maintained incrementally.
    bytes: usize,
    sketch: FreqSketch,
    stats: Counters,
}

/// A byte-budgeted, frequency-aware cache of sub-path products, safe to
/// share across engines and server workers (interior mutability via a
/// [`parking_lot::Mutex`]).
pub struct SubpathCache {
    budget_bytes: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for SubpathCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SubpathCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("bytes", &inner.bytes)
            .field("len", &inner.map.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl SubpathCache {
    /// A cache bounded by `budget_bytes` of product data (≥ 1).
    pub fn with_budget_bytes(budget_bytes: usize) -> SubpathCache {
        SubpathCache {
            budget_bytes: budget_bytes.max(1),
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                log: VecDeque::new(),
                next_stamp: 0,
                bytes: 0,
                sketch: FreqSketch::new(),
                stats: Counters::default(),
            }),
        }
    }

    /// A cache bounded by `mb` mebibytes (the CLI's `--subpath-cache-mb`).
    pub fn with_budget_mb(mb: usize) -> SubpathCache {
        SubpathCache::with_budget_bytes(mb.saturating_mul(1024 * 1024))
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Current number of cached products.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of cached products currently resident (maintained
    /// incrementally — O(1)).
    pub fn size_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Counters plus point-in-time gauges.
    pub fn stats(&self) -> SubpathStats {
        let inner = self.inner.lock();
        SubpathStats {
            hits: inner.stats.hits,
            prefix_hits: inner.stats.prefix_hits,
            misses: inner.stats.misses,
            admitted: inner.stats.admitted,
            rejected: inner.stats.rejected,
            evictions: inner.stats.evictions,
            bytes_resident: inner.bytes as u64,
            entries: inner.map.len() as u64,
            budget_bytes: self.budget_bytes as u64,
        }
    }

    /// Drop every entry and reset the frequency sketch, so subsequent use is
    /// indistinguishable from a fresh cache. Counters are preserved (report
    /// per-run numbers as deltas via [`SubpathStats::since`]).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.log.clear();
        inner.bytes = 0;
        inner.sketch.reset();
    }

    /// Look up a sub-path product. Every lookup — hit or miss — feeds the
    /// frequency sketch, which is how reuse frequency is learned before a
    /// product is ever admitted. `prefix` marks multi-chunk prefix probes
    /// for the `prefix_hits` counter.
    fn lookup(&self, key: &Key, prefix: bool) -> Option<(SparseVec, usize)> {
        let mut inner = self.inner.lock();
        let h = key_hash(key);
        inner.sketch.record(h);
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        let Some(entry) = inner.map.get_mut(key) else {
            inner.stats.misses += 1;
            return None;
        };
        entry.stamp = stamp;
        let out = (entry.vec.clone(), entry.peak_nnz);
        inner.log.push_back((key.clone(), stamp));
        inner.stats.hits += 1;
        if prefix {
            inner.stats.prefix_hits += 1;
        }
        Some(out)
    }

    /// Offer a freshly computed product to the admission policy.
    ///
    /// `peak_nnz` is the largest frontier `nnz` that was budget-checked
    /// while computing `vec` (see [`Entry::peak_nnz`]).
    fn admit(&self, key: Key, vec: SparseVec, peak_nnz: usize) {
        let bytes = vec.size_bytes() + std::mem::size_of::<Key>();
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&key) {
            // A racing engine already admitted this product (values are
            // identical by construction); keep the resident entry.
            return;
        }
        // One product may not displace the bulk of the working set.
        if bytes > self.budget_bytes / 8 {
            inner.stats.rejected += 1;
            return;
        }
        let incoming_freq = inner.sketch.estimate(key_hash(&key)) as u128;
        while inner.bytes + bytes > self.budget_bytes {
            let Some((vk, vstamp)) = inner.log.pop_front() else {
                break; // log drained; handled below
            };
            // Skip stale log records (the entry was touched again later).
            let Some(vbytes) = inner
                .map
                .get(&vk)
                .filter(|e| e.stamp == vstamp)
                .map(|e| e.bytes)
            else {
                continue;
            };
            let victim_freq = inner.sketch.estimate(key_hash(&vk)) as u128;
            // Evict only entries no denser (frequency per byte) than the
            // incoming product; cross-multiplied to stay in integers. Ties
            // go to the newcomer (recency breaks them).
            if incoming_freq * vbytes as u128 >= victim_freq * bytes as u128 {
                inner.map.remove(&vk);
                inner.bytes -= vbytes;
                inner.stats.evictions += 1;
            } else {
                // The LRU survivor is denser than the newcomer: put its log
                // record back and reject the admission.
                inner.log.push_front((vk, vstamp));
                inner.stats.rejected += 1;
                return;
            }
        }
        if inner.bytes + bytes > self.budget_bytes {
            inner.stats.rejected += 1;
            return;
        }
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.log.push_back((key.clone(), stamp));
        inner.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                vec,
                peak_nnz,
                stamp,
                bytes,
            },
        );
        inner.stats.admitted += 1;
    }
}

/// The canonical chunk decomposition a path is cached under — maximal
/// length-2 chunks plus a trailing single hop for odd lengths, exactly
/// [`MetaPath::decompose_pairs`]. Exposed so tests and tools can reason
/// about cache keys.
pub fn canonical_chunks(path: &MetaPath) -> Vec<MetaPath> {
    path.decompose_pairs()
}

/// The composable prefixes of a chunk decomposition: `prefixes[k-1]` is the
/// concatenation of `chunks[..k]`, so the last element reassembles the full
/// path (the decompose→recompose identity).
pub fn prefix_paths(chunks: &[MetaPath]) -> Vec<MetaPath> {
    let mut prefixes: Vec<MetaPath> = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let next = match prefixes.last() {
            // Invariant: each chunk starts with the previous chunk's last
            // type (`decompose_pairs` slices one contiguous sequence), so
            // concatenation cannot mismatch.
            #[allow(clippy::expect_used)]
            Some(prev) => prev
                .concat(chunk)
                .expect("adjacent chunks share their boundary type"),
            None => chunk.clone(),
        };
        prefixes.push(next);
    }
    prefixes
}

/// A [`VectorSource`] decorator that serves propagation from cached
/// sub-path products and resumes from the longest cached prefix.
///
/// Evaluation mirrors [`IndexedSource`](crate::engine::source::IndexedSource)
/// exactly — seed the first chunk, then propagate frontier-vertex-by-vertex
/// through the remaining chunks — so its results are bit-identical to the
/// undecorated strategy (see the module docs for why chunked summation is
/// exact).
pub struct SubpathSource<'a> {
    inner: Box<dyn VectorSource + 'a>,
    cache: &'a SubpathCache,
}

impl<'a> SubpathSource<'a> {
    /// Layer `cache` over `inner`.
    pub fn new(inner: Box<dyn VectorSource + 'a>, cache: &'a SubpathCache) -> Self {
        SubpathSource { inner, cache }
    }

    /// One chunk product for a single seed vertex: cache, else compute
    /// through the inner source and offer the result for admission.
    /// Single-hop tail chunks bypass the cache — they are one CSR row copy,
    /// cheaper than the lookup.
    fn chunk_product(
        &self,
        u: VertexId,
        chunk: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<SparseVec, EngineError> {
        if chunk.len() < 2 {
            return self.inner.neighbor_vector(u, chunk, ctx);
        }
        let key = (chunk.clone(), u);
        let t = Instant::now();
        if let Some((vec, peak)) = self.cache.lookup(&key, false) {
            ctx.stats.indexed_vectors += t.elapsed();
            ctx.stats.indexed_count += 1;
            // Replay the skipped computation's budget exposure.
            ctx.check_frontier(peak)?;
            return Ok(vec);
        }
        // Miss: compute through the inner source, capturing the peak
        // frontier nnz its internal checks observe.
        let saved = ctx.swap_chunk_peak(0);
        let out = self.inner.neighbor_vector(u, chunk, ctx);
        let peak = ctx.chunk_peak();
        ctx.set_chunk_peak(saved.max(peak));
        let vec = out?;
        self.cache.admit(key, vec.clone(), peak);
        Ok(vec)
    }
}

impl VectorSource for SubpathSource<'_> {
    fn neighbor_vector(
        &self,
        v: VertexId,
        path: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<SparseVec, EngineError> {
        if path.len() < 2 {
            // Nothing to chunk; single hops and degenerate paths go
            // straight through (and get the inner source's validation).
            return self.inner.neighbor_vector(v, path, ctx);
        }
        let chunks = canonical_chunks(path);
        let prefixes = prefix_paths(&chunks);
        // Collect this evaluation's peak under a fresh accumulator and fold
        // it back into any enclosing collector on the way out.
        let saved = ctx.swap_chunk_peak(0);
        let result = self.eval(v, &chunks, &prefixes, ctx);
        let peak = ctx.chunk_peak();
        ctx.set_chunk_peak(saved.max(peak));
        result
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn index_size_bytes(&self) -> usize {
        self.inner.index_size_bytes() + self.cache.size_bytes()
    }

    fn chunk_coverage(&self, chunk: &MetaPath) -> Option<(usize, usize)> {
        self.inner.chunk_coverage(chunk)
    }

    fn subpath_stats(&self) -> Option<SubpathStats> {
        Some(self.cache.stats())
    }
}

impl SubpathSource<'_> {
    /// The chunked evaluation: resume from the longest cached prefix
    /// (longest-first probing, whole path included), then propagate the
    /// remaining chunks, admitting each completed prefix product.
    fn eval(
        &self,
        v: VertexId,
        chunks: &[MetaPath],
        prefixes: &[MetaPath],
        ctx: &mut ExecCtx,
    ) -> Result<SparseVec, EngineError> {
        let mut start = 0usize;
        let mut resumed: Option<SparseVec> = None;
        for k in (1..=chunks.len()).rev() {
            let t = Instant::now();
            if let Some((vec, peak)) = self.cache.lookup(&(prefixes[k - 1].clone(), v), k > 1) {
                ctx.stats.indexed_vectors += t.elapsed();
                ctx.stats.indexed_count += 1;
                // Replay the skipped propagation's budget exposure.
                ctx.check_frontier(peak)?;
                resumed = Some(vec);
                start = k;
                break;
            }
        }
        let mut frontier = match resumed {
            Some(f) => f,
            None => {
                // Cold start: the first chunk seeds the frontier (this also
                // runs the inner source's start validation, so unknown
                // vertices and type mismatches error exactly like the
                // undecorated strategy).
                start = 1;
                self.chunk_product(v, &chunks[0], ctx)?
            }
        };
        for k in start..chunks.len() {
            if frontier.is_empty() {
                break;
            }
            ctx.check_frontier(frontier.nnz())?;
            // Seed by seed, the accumulation order of `IndexedSource`.
            frontier = scatter_frontier(&frontier, ctx, |u, w, ws, ctx| {
                let phi = self.chunk_product(u, &chunks[k], ctx)?;
                ws.add_scaled(phi.as_slice(), w);
                Ok(())
            })?;
            // The completed prefix product (chunks[..=k] from seed v) is a
            // resumption point for any longer path sharing it. The running
            // chunk peak at this moment is exactly the peak a fresh
            // evaluation of this prefix would have checked.
            self.cache
                .admit((prefixes[k].clone(), v), frontier.clone(), ctx.chunk_peak());
        }
        ctx.check_frontier(frontier.nnz())?;
        Ok(frontier)
    }
}

// Compile-time assertion: the cache is shareable across threads as-is —
// `hin-service` workers share one instance behind an `Arc`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SubpathCache>();
    assert_send_sync::<SubpathStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::budget::{Budget, BudgetLimit};
    use crate::engine::source::TraversalSource;
    use hin_datagen::toy;
    use hin_graph::traverse;

    fn toy_path(g: &hin_graph::HinGraph, spec: &str) -> MetaPath {
        MetaPath::parse(spec, g.schema()).unwrap()
    }

    fn author(g: &hin_graph::HinGraph, name: &str) -> VertexId {
        let t = g.schema().vertex_type_by_name("author").unwrap();
        g.vertex_by_name(t, name).unwrap()
    }

    #[test]
    fn chunked_equals_traversal_cold_and_warm() {
        let g = toy::figure1_network();
        let cache = SubpathCache::with_budget_mb(16);
        let source = SubpathSource::new(Box::new(TraversalSource::new(&g)), &cache);
        let t = g.schema().vertex_type_by_name("author").unwrap();
        for spec in [
            "author.paper.venue",
            "author.paper.venue.paper",
            "author.paper.venue.paper.author",
        ] {
            let path = toy_path(&g, spec);
            for &a in g.vertices_of_type(t) {
                let want = traverse::neighbor_vector(&g, a, &path).unwrap();
                let mut c1 = ExecCtx::unbounded();
                let cold = source.neighbor_vector(a, &path, &mut c1).unwrap();
                assert_eq!(cold, want, "cold {spec} {a:?}");
                let mut c2 = ExecCtx::unbounded();
                let warm = source.neighbor_vector(a, &path, &mut c2).unwrap();
                assert_eq!(warm, want, "warm {spec} {a:?}");
            }
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "warm pass must hit: {stats:?}");
        assert!(stats.admitted > 0);
        assert!(stats.bytes_resident > 0);
        assert!(stats.bytes_resident <= stats.budget_bytes);
    }

    #[test]
    fn prefix_product_resumes_longer_paths() {
        let g = toy::figure1_network();
        let cache = SubpathCache::with_budget_mb(16);
        let source = SubpathSource::new(Box::new(TraversalSource::new(&g)), &cache);
        let zoe = author(&g, "Zoe");
        // Three chunks: [APV, VPA, APV]; evaluating the whole path admits
        // the 2-chunk prefix (author.paper.venue.paper.author, zoe).
        let long = toy_path(&g, "author.paper.venue.paper.author.paper.venue");
        let mut ctx = ExecCtx::unbounded();
        let full = source.neighbor_vector(zoe, &long, &mut ctx).unwrap();
        assert_eq!(full, traverse::neighbor_vector(&g, zoe, &long).unwrap());
        let before = cache.stats();
        // The 2-chunk prefix is itself a meta-path; a query asking for it
        // directly must hit the stored prefix product.
        let prefix = toy_path(&g, "author.paper.venue.paper.author");
        let mut ctx2 = ExecCtx::unbounded();
        let resumed = source.neighbor_vector(zoe, &prefix, &mut ctx2).unwrap();
        assert_eq!(
            resumed,
            traverse::neighbor_vector(&g, zoe, &prefix).unwrap()
        );
        let after = cache.stats();
        assert_eq!(after.prefix_hits, before.prefix_hits + 1);
        // The prefix hit served the whole request: no extra traversal ran.
        assert_eq!(ctx2.stats.unindexed_count, 0);
    }

    #[test]
    fn budget_outcomes_identical_cold_and_warm() {
        let g = toy::figure1_network();
        let long = toy_path(&g, "author.paper.venue.paper.author");
        let zoe = author(&g, "Zoe");
        for cap in 1..=12usize {
            // Cold: fresh cache, tight cap.
            let cold_cache = SubpathCache::with_budget_mb(16);
            let cold_src = SubpathSource::new(Box::new(TraversalSource::new(&g)), &cold_cache);
            let mut c1 = ExecCtx::new(&Budget::default().with_max_nnz(cap));
            let cold = cold_src.neighbor_vector(zoe, &long, &mut c1);
            // Warm: the cache was filled by an unbounded run first.
            let warm_cache = SubpathCache::with_budget_mb(16);
            let warm_src = SubpathSource::new(Box::new(TraversalSource::new(&g)), &warm_cache);
            let mut cw = ExecCtx::unbounded();
            warm_src.neighbor_vector(zoe, &long, &mut cw).unwrap();
            let mut c2 = ExecCtx::new(&Budget::default().with_max_nnz(cap));
            let warm = warm_src.neighbor_vector(zoe, &long, &mut c2);
            match (cold, warm) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "cap {cap}");
                    // The peak the budget saw must match too.
                    assert_eq!(
                        c1.stats.peak_frontier_nnz, c2.stats.peak_frontier_nnz,
                        "cap {cap}"
                    );
                }
                (Err(EngineError::BudgetExceeded { limit: l1, .. }), Err(e2)) => {
                    assert_eq!(l1, BudgetLimit::FrontierNnz, "cap {cap}");
                    match e2 {
                        EngineError::BudgetExceeded { limit, .. } => {
                            assert_eq!(limit, BudgetLimit::FrontierNnz, "cap {cap}")
                        }
                        other => panic!("warm failed differently at cap {cap}: {other:?}"),
                    }
                }
                (cold, warm) => {
                    panic!("outcomes diverged at cap {cap}: cold {cold:?} vs warm {warm:?}")
                }
            }
        }
    }

    #[test]
    fn tiny_budget_rejects_and_stays_bounded() {
        let g = toy::figure1_network();
        // 256 bytes: almost every product is oversized (> budget/8) or
        // displaced; the cache must stay within budget and count rejections.
        let cache = SubpathCache::with_budget_bytes(256);
        let source = SubpathSource::new(Box::new(TraversalSource::new(&g)), &cache);
        let t = g.schema().vertex_type_by_name("author").unwrap();
        let path = toy_path(&g, "author.paper.venue.paper.author");
        for &a in g.vertices_of_type(t) {
            let mut ctx = ExecCtx::unbounded();
            let got = source.neighbor_vector(a, &path, &mut ctx).unwrap();
            assert_eq!(got, traverse::neighbor_vector(&g, a, &path).unwrap());
        }
        let stats = cache.stats();
        assert!(stats.rejected > 0, "{stats:?}");
        assert!(stats.bytes_resident <= 256, "{stats:?}");
        assert_eq!(stats.bytes_resident, cache.size_bytes() as u64);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let g = toy::figure1_network();
        // Every length-2 product rooted at an author or a paper.
        let mut products: Vec<(VertexId, MetaPath)> = Vec::new();
        for spec in [
            "author.paper.venue",
            "author.paper.author",
            "paper.author.paper",
            "paper.venue.paper",
        ] {
            let path = toy_path(&g, spec);
            for &v in g.vertices_of_type(path.source_type()) {
                products.push((v, path.clone()));
            }
        }
        let sizes: Vec<usize> = products
            .iter()
            .map(|(v, path)| {
                traverse::neighbor_vector(&g, *v, path)
                    .unwrap()
                    .size_bytes()
                    + std::mem::size_of::<Key>()
            })
            .collect();
        // Eight of the largest product: every product passes the
        // one-eighth-of-the-budget admission cap, yet all of them together
        // do not fit, so later admissions must displace or be refused.
        let budget = 8 * sizes.iter().max().unwrap();
        assert!(sizes.iter().sum::<usize>() > budget, "{sizes:?}");
        let cache = SubpathCache::with_budget_bytes(budget);
        let source = SubpathSource::new(Box::new(TraversalSource::new(&g)), &cache);
        for _ in 0..2 {
            for (v, path) in &products {
                let mut ctx = ExecCtx::unbounded();
                source.neighbor_vector(*v, path, &mut ctx).unwrap();
            }
        }
        let stats = cache.stats();
        assert!(stats.bytes_resident as usize <= budget, "{stats:?}");
        assert!(stats.admitted >= 8, "{stats:?}");
        assert!(stats.evictions > 0 || stats.rejected > 0, "{stats:?}");
    }

    #[test]
    fn sketch_estimates_and_ages() {
        let mut sketch = FreqSketch::new();
        let h = 0xDEAD_BEEF_u64;
        assert_eq!(sketch.estimate(h), 0);
        for _ in 0..10 {
            sketch.record(h);
        }
        assert_eq!(sketch.estimate(h), 10);
        // Fill the rest of the aging interval with a key that shares no
        // counter with `h` (a count-min estimate includes whatever collides
        // into its slots), so the one halving pass is all that moves it.
        let other = h ^ 1;
        assert!(FreqSketch::slots(other)
            .iter()
            .all(|s| !FreqSketch::slots(h).contains(s)));
        for _ in 10..AGE_INTERVAL {
            sketch.record(other);
        }
        assert_eq!(sketch.estimate(h), 5);
        sketch.reset();
        assert_eq!(sketch.estimate(h), 0);
    }

    #[test]
    fn clear_resets_entries_keeps_counters() {
        let g = toy::figure1_network();
        let cache = SubpathCache::with_budget_mb(4);
        let source = SubpathSource::new(Box::new(TraversalSource::new(&g)), &cache);
        let zoe = author(&g, "Zoe");
        let path = toy_path(&g, "author.paper.venue");
        let mut ctx = ExecCtx::unbounded();
        source.neighbor_vector(zoe, &path, &mut ctx).unwrap();
        let before = cache.stats();
        assert!(before.admitted > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.size_bytes(), 0);
        let after = cache.stats();
        assert_eq!(after.misses, before.misses, "counters survive clear");
        assert_eq!(after.entries, 0);
    }

    #[test]
    fn canonicalization_round_trips() {
        let g = toy::figure1_network();
        let path = toy_path(&g, "author.paper.venue.paper.author.paper");
        let chunks = canonical_chunks(&path);
        assert_eq!(chunks.len(), 3);
        let prefixes = prefix_paths(&chunks);
        assert_eq!(prefixes.last().map(|p| p.types()), Some(path.types()));
        // Symmetric single-link paths dedupe both halves into one chunk.
        let ap = toy_path(&g, "author.paper");
        let sym = ap.symmetric();
        let sym_chunks = canonical_chunks(&sym);
        assert_eq!(sym_chunks.len(), 1);
        assert!(sym_chunks[0].is_symmetric());
        assert_eq!(sym_chunks[0].types(), sym.types());
    }

    #[test]
    fn stats_hit_rate_and_delta() {
        let stats = SubpathStats {
            hits: 3,
            misses: 1,
            ..SubpathStats::default()
        };
        assert_eq!(stats.hit_rate(), Some(0.75));
        assert_eq!(SubpathStats::default().hit_rate(), None);
        let earlier = SubpathStats {
            hits: 1,
            misses: 1,
            ..SubpathStats::default()
        };
        let delta = stats.since(&earlier);
        assert_eq!(delta.hits, 2);
        assert_eq!(delta.misses, 0);
    }
}

//! A cross-query LRU cache of neighbor vectors.
//!
//! The paper's target user "elaborates their queries" interactively
//! (Section 1, challenge 3): consecutive queries usually revisit the same
//! anchors, candidates, and feature paths. [`VectorCache`] memoizes
//! `(meta-path, vertex) → Φ_P(v)` across queries with LRU eviction, and
//! [`CachedSource`] layers it over any [`VectorSource`] (baseline, PM, or
//! SPM).
//!
//! Cache hits are attributed to the `indexed_vectors` timing bucket — a hit
//! is an in-memory load, exactly like a pre-materialized row — and are
//! additionally counted in [`CacheStats`].

use crate::engine::budget::ExecCtx;
use crate::engine::source::VectorSource;
use crate::error::EngineError;
use hin_graph::{MetaPath, SparseVec, VertexId};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::time::Instant;

type Key = (MetaPath, VertexId);

/// Hit/miss counters for a [`VectorCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Vectors served from the cache.
    pub hits: u64,
    /// Vectors computed by the inner source (and then cached).
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

struct Entry {
    vec: SparseVec,
    /// `‖vec‖²` (the vertex's visibility along the key's path), computed
    /// once on insertion so CosSim/NetOut/PathSim denominators are never
    /// re-derived for a cached vector.
    norm2_sq: f64,
    stamp: u64,
    /// Accounted size (vector heap footprint + key), fixed at insertion so
    /// the running byte total can be maintained incrementally.
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
    stats: CacheStats,
}

/// A bounded LRU cache of neighbor vectors, safe to share across engines
/// (interior mutability via a [`parking_lot::Mutex`]).
///
/// The bound is a **byte budget** ([`VectorCache::with_budget_bytes`]):
/// vectors vary from a few entries to near-dense, so bounding bytes keeps
/// the footprint workload-independent. The entry-count constructor
/// ([`VectorCache::new`]) remains as a compatibility shim for callers that
/// still think in entries (`serve --cache-cap`).
pub struct VectorCache {
    /// Entry-count cap (`usize::MAX` when bounded by bytes alone).
    capacity: usize,
    /// Byte budget (`usize::MAX` when bounded by entries alone).
    budget_bytes: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for VectorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("VectorCache")
            .field("capacity", &self.capacity)
            .field("budget_bytes", &self.budget_bytes)
            .field("bytes", &inner.bytes)
            .field("len", &inner.map.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl VectorCache {
    fn with_limits(capacity: usize, budget_bytes: usize) -> Self {
        VectorCache {
            capacity,
            budget_bytes,
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                log: VecDeque::new(),
                next_stamp: 0,
                bytes: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// A cache holding at most `capacity` vectors (`capacity` ≥ 1).
    ///
    /// Deprecated shim: entry counts say nothing about memory, since vector
    /// sizes are workload-dependent. Prefer
    /// [`with_budget_bytes`](VectorCache::with_budget_bytes); this remains
    /// so `serve --cache-cap` and older callers keep working unchanged.
    pub fn new(capacity: usize) -> Self {
        VectorCache::with_limits(capacity.max(1), usize::MAX)
    }

    /// A cache bounded by `budget_bytes` of vector data (≥ 1), LRU-evicted
    /// using the same `size_bytes` accounting that
    /// [`size_bytes`](VectorCache::size_bytes) reports.
    pub fn with_budget_bytes(budget_bytes: usize) -> Self {
        VectorCache::with_limits(usize::MAX, budget_bytes.max(1))
    }

    /// Current number of cached vectors.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.log.clear();
        inner.bytes = 0;
    }

    /// Approximate heap footprint of the cached vectors (maintained
    /// incrementally — O(1)).
    pub fn size_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Cached vector plus its precomputed `‖Φ‖²`.
    fn get_with_norm(&self, key: &Key) -> Option<(SparseVec, f64)> {
        let mut inner = self.inner.lock();
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        let Some(entry) = inner.map.get_mut(key) else {
            inner.stats.misses += 1;
            return None;
        };
        entry.stamp = stamp;
        let vec = entry.vec.clone();
        let norm2_sq = entry.norm2_sq;
        inner.log.push_back((key.clone(), stamp));
        inner.stats.hits += 1;
        Some((vec, norm2_sq))
    }

    fn put_with_norm(&self, key: Key, vec: SparseVec, norm2_sq: f64) {
        let bytes = vec.size_bytes() + std::mem::size_of::<Key>();
        let mut inner = self.inner.lock();
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.log.push_back((key.clone(), stamp));
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                vec,
                norm2_sq,
                stamp,
                bytes,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        // Evict LRU-first until both bounds hold. An oversized vector can
        // evict even itself (the byte budget is a hard bound); the loop
        // terminates because every iteration shrinks the log.
        while inner.map.len() > self.capacity || inner.bytes > self.budget_bytes {
            let Some((old_key, old_stamp)) = inner.log.pop_front() else {
                break; // unreachable: map is non-empty so the log is too
            };
            // Skip stale log records (the entry was touched again later).
            let is_current = inner
                .map
                .get(&old_key)
                .is_some_and(|e| e.stamp == old_stamp);
            if is_current {
                if let Some(old) = inner.map.remove(&old_key) {
                    inner.bytes -= old.bytes;
                }
                inner.stats.evictions += 1;
            }
        }
    }
}

/// A [`VectorSource`] decorator that consults a [`VectorCache`] before its
/// inner source.
pub struct CachedSource<'a> {
    inner: Box<dyn VectorSource + 'a>,
    cache: &'a VectorCache,
}

impl<'a> CachedSource<'a> {
    /// Layer `cache` over `inner`.
    pub fn new(inner: Box<dyn VectorSource + 'a>, cache: &'a VectorCache) -> Self {
        CachedSource { inner, cache }
    }
}

impl VectorSource for CachedSource<'_> {
    fn neighbor_vector(
        &self,
        v: VertexId,
        path: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<SparseVec, EngineError> {
        self.neighbor_vector_with_norm(v, path, ctx)
            .map(|(vec, _)| vec)
    }

    fn neighbor_vector_with_norm(
        &self,
        v: VertexId,
        path: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<(SparseVec, f64), EngineError> {
        let key = (path.clone(), v);
        let t = Instant::now();
        if let Some((hit, norm2_sq)) = self.cache.get_with_norm(&key) {
            ctx.stats.indexed_vectors += t.elapsed();
            ctx.stats.indexed_count += 1;
            ctx.check_frontier(hit.nnz())?;
            return Ok((hit, norm2_sq));
        }
        // Miss: materialize through the inner source (which may itself have
        // the norm precomputed, e.g. a PM index row) and cache both.
        let (vec, norm2_sq) = self.inner.neighbor_vector_with_norm(v, path, ctx)?;
        self.cache.put_with_norm(key, vec.clone(), norm2_sq);
        Ok((vec, norm2_sq))
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

    fn subpath_stats(&self) -> Option<crate::engine::subpath::SubpathStats> {
        self.inner.subpath_stats()
    }
}

// Compile-time assertion: the cache is shareable across threads as-is
// (interior mutability is confined to the `parking_lot::Mutex`). Concurrent
// engines — e.g. the workers of `hin-service` — rely on this to share one
// instance behind an `Arc`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VectorCache>();
    assert_send_sync::<CacheStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::source::TraversalSource;
    use hin_datagen::toy;
    use hin_graph::traverse;

    impl VectorCache {
        fn get(&self, key: &Key) -> Option<SparseVec> {
            self.get_with_norm(key).map(|(vec, _)| vec)
        }

        fn put(&self, key: Key, vec: SparseVec) {
            let norm2_sq = vec.norm2_sq();
            self.put_with_norm(key, vec, norm2_sq);
        }
    }

    fn key(g: &hin_graph::HinGraph, name: &str, path: &str) -> Key {
        let author = g.schema().vertex_type_by_name("author").unwrap();
        (
            MetaPath::parse(path, g.schema()).unwrap(),
            g.vertex_by_name(author, name).unwrap(),
        )
    }

    #[test]
    fn cached_source_returns_same_vectors() {
        let g = toy::figure1_network();
        let cache = VectorCache::new(16);
        let source = CachedSource::new(Box::new(TraversalSource::new(&g)), &cache);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let mut ctx = ExecCtx::unbounded();
        let first = source.neighbor_vector(zoe, &apv, &mut ctx).unwrap();
        let second = source.neighbor_vector(zoe, &apv, &mut ctx).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, traverse::neighbor_vector(&g, zoe, &apv).unwrap());
        let cs = cache.stats();
        assert_eq!(cs.hits, 1);
        assert_eq!(cs.misses, 1);
        // The hit was attributed to the indexed bucket.
        assert_eq!(ctx.stats.indexed_count, 1);
        assert_eq!(ctx.stats.unindexed_count, 1);
    }

    #[test]
    fn cached_norms_round_trip() {
        let g = toy::figure1_network();
        let cache = VectorCache::new(16);
        let source = CachedSource::new(Box::new(TraversalSource::new(&g)), &cache);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let mut ctx = ExecCtx::unbounded();
        let (miss_vec, miss_norm) = source
            .neighbor_vector_with_norm(zoe, &apv, &mut ctx)
            .unwrap();
        let (hit_vec, hit_norm) = source
            .neighbor_vector_with_norm(zoe, &apv, &mut ctx)
            .unwrap();
        assert_eq!(miss_vec, hit_vec);
        assert_eq!(miss_norm.to_bits(), hit_norm.to_bits());
        assert_eq!(miss_norm.to_bits(), miss_vec.norm2_sq().to_bits());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn keys_distinguish_paths_and_vertices() {
        let g = toy::figure1_network();
        let cache = VectorCache::new(16);
        let source = CachedSource::new(Box::new(TraversalSource::new(&g)), &cache);
        let mut ctx = ExecCtx::unbounded();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let apa = MetaPath::parse("author.paper.author", g.schema()).unwrap();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let ava = g.vertex_by_name(author, "Ava").unwrap();
        source.neighbor_vector(zoe, &apv, &mut ctx).unwrap();
        source.neighbor_vector(zoe, &apa, &mut ctx).unwrap();
        source.neighbor_vector(ava, &apv, &mut ctx).unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let g = toy::figure1_network();
        let cache = VectorCache::new(2);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let phi = |name: &str| {
            let (_, v) = key(&g, name, "author.paper.venue");
            traverse::neighbor_vector(&g, v, &apv).unwrap()
        };
        let (kz, ka, kl) = (
            key(&g, "Zoe", "author.paper.venue"),
            key(&g, "Ava", "author.paper.venue"),
            key(&g, "Liam", "author.paper.venue"),
        );
        cache.put(kz.clone(), phi("Zoe"));
        cache.put(ka.clone(), phi("Ava"));
        // Touch Zoe so Ava becomes the LRU entry.
        assert!(cache.get(&kz).is_some());
        cache.put(kl.clone(), phi("Liam"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&ka).is_none(), "Ava was evicted");
        assert!(cache.get(&kz).is_some());
        assert!(cache.get(&kl).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_by_bytes() {
        let g = toy::figure1_network();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let phi = |name: &str| {
            let (_, v) = key(&g, name, "author.paper.venue");
            traverse::neighbor_vector(&g, v, &apv).unwrap()
        };
        let (vz, va, vl) = (phi("Zoe"), phi("Ava"), phi("Liam"));
        let sz = |v: &SparseVec| v.size_bytes() + std::mem::size_of::<Key>();
        // One byte short of all three: the third insert must evict.
        let budget = sz(&vz) + sz(&va) + sz(&vl) - 1;
        let cache = VectorCache::with_budget_bytes(budget);
        cache.put(key(&g, "Zoe", "author.paper.venue"), vz);
        cache.put(key(&g, "Ava", "author.paper.venue"), va);
        cache.put(key(&g, "Liam", "author.paper.venue"), vl);
        assert!(cache.size_bytes() <= budget);
        assert!(cache.stats().evictions >= 1);
        assert!(cache.len() < 3);
    }

    #[test]
    fn oversized_entry_does_not_stick() {
        let g = toy::figure1_network();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let (k, v) = {
            let k = key(&g, "Zoe", "author.paper.venue");
            let v = traverse::neighbor_vector(&g, k.1, &apv).unwrap();
            (k, v)
        };
        // A 1-byte budget can hold nothing; the hard byte bound wins over
        // the keep-the-newest behavior of the entry-count shim.
        let cache = VectorCache::with_budget_bytes(1);
        cache.put(k.clone(), v);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.size_bytes(), 0);
        assert!(cache.get(&k).is_none());
    }

    #[test]
    fn replacing_a_key_keeps_byte_accounting_exact() {
        let g = toy::figure1_network();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let k = key(&g, "Zoe", "author.paper.venue");
        let v = traverse::neighbor_vector(&g, k.1, &apv).unwrap();
        let one = v.size_bytes() + std::mem::size_of::<Key>();
        let cache = VectorCache::with_budget_bytes(one * 8);
        cache.put(k.clone(), v.clone());
        cache.put(k.clone(), v.clone());
        cache.put(k, v);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.size_bytes(), one, "replacement must not double-count");
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = VectorCache::new(4);
        cache.put(
            (
                MetaPath::parse("author.paper", toy::figure1_network().schema()).unwrap(),
                VertexId(0),
            ),
            SparseVec::unit(VertexId(1)),
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.size_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_minimum_is_one() {
        let cache = VectorCache::new(0);
        let path = MetaPath::parse("author.paper", toy::figure1_network().schema()).unwrap();
        cache.put((path.clone(), VertexId(0)), SparseVec::unit(VertexId(9)));
        cache.put((path.clone(), VertexId(1)), SparseVec::unit(VertexId(9)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let g = Arc::new(toy::figure1_network());
        let cache = Arc::new(VectorCache::new(64));
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                let cache = Arc::clone(&cache);
                let apv = apv.clone();
                std::thread::spawn(move || {
                    let source = CachedSource::new(Box::new(TraversalSource::new(&g)), &cache);
                    let mut ctx = ExecCtx::unbounded();
                    source.neighbor_vector(zoe, &apv, &mut ctx).unwrap()
                })
            })
            .collect();
        let vectors: Vec<SparseVec> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for v in &vectors[1..] {
            assert_eq!(v, &vectors[0]);
        }
        let cs = cache.stats();
        // Every thread asked for the same key; all lookups resolved through
        // one shared instance (hits + misses == 4, at least one of each
        // except in the degenerate all-raced case).
        assert_eq!(cs.hits + cs.misses, 4);
        assert!(cs.misses >= 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stats_hit_rate() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(stats.hit_rate(), Some(0.75));
        assert_eq!(CacheStats::default().hit_rate(), None);
    }
}

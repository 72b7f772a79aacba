//! Vector materialization strategies.
//!
//! A [`VectorSource`] produces neighbor vectors `Φ_P(v)` and records where
//! the time went (index hit vs. traversal), which is the data behind the
//! paper's Figures 3 and 4.
//!
//! Every strategy runs budget checkpoints through the [`ExecCtx`] at
//! **propagation-step granularity**: a wall-clock deadline or `nnz` cap
//! fires mid-meta-path, not only between whole vectors.

use crate::engine::budget::ExecCtx;
use crate::engine::index::PmIndex;
use crate::error::EngineError;
use hin_graph::{
    traverse, DenseAccumulator, HinGraph, MetaPath, SparseVec, VertexId, VertexTypeId,
};
use std::time::Instant;

/// A strategy for materializing neighbor vectors.
pub trait VectorSource: Send + Sync {
    /// Materialize `Φ_path(v)`, attributing elapsed time into `ctx.stats`
    /// and honouring the context's budget (deadline, `nnz` cap,
    /// cancellation) at propagation-step granularity.
    fn neighbor_vector(
        &self,
        v: VertexId,
        path: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<SparseVec, EngineError>;

    /// Materialize `Φ_path(v)` together with its visibility `‖Φ_path(v)‖²`.
    ///
    /// Sources that store norms alongside vectors (the LRU cache, the PM
    /// index) override this to return the precomputed value; the default
    /// computes it from the fresh vector, which is still once per vector —
    /// never once per candidate pair.
    fn neighbor_vector_with_norm(
        &self,
        v: VertexId,
        path: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<(SparseVec, f64), EngineError> {
        let phi = self.neighbor_vector(v, path, ctx)?;
        let norm2_sq = phi.norm2_sq();
        Ok((phi, norm2_sq))
    }

    /// Short strategy name for reports (`"baseline"`, `"pm"`, `"spm"`).
    fn name(&self) -> &'static str;

    /// Bytes of index memory backing this source (0 for the baseline).
    /// Reproduces the paper's Figure 5b accounting.
    fn index_size_bytes(&self) -> usize {
        0
    }

    /// How well the source's index covers one length-2 chunk:
    /// `Some((materialized rows, vertices of the chunk's source type))`, or
    /// `None` when the source has no index for it (always for the
    /// baseline). Used by `EXPLAIN`.
    fn chunk_coverage(&self, _chunk: &MetaPath) -> Option<(usize, usize)> {
        None
    }

    /// Live counters of the sub-path product cache in this source stack
    /// (`None` when no [`SubpathCache`](crate::engine::subpath::SubpathCache)
    /// is layered in). Decorators delegate; the executor snapshots this
    /// around materialization to annotate spans with per-stage hit/miss
    /// deltas.
    fn subpath_stats(&self) -> Option<crate::engine::subpath::SubpathStats> {
        None
    }
}

/// Sparse traversal along `types` with budget checks after every
/// propagation step, timed and counted as one unindexed vector.
///
/// Semantically identical to [`traverse::neighbor_vector`] (same start
/// validation, same propagation), but interleaved with
/// [`ExecCtx::check_frontier`] so a deadline, `nnz` cap, or cancellation
/// fires between hops of a long meta-path. Propagation scatters through the
/// context's pooled workspace
/// ([`PooledAccumulator`](hin_graph::PooledAccumulator)), so neither the
/// first materialization of a context (or shard) nor any later one grows a
/// scatter buffer.
fn guarded_traversal(
    graph: &HinGraph,
    v: VertexId,
    types: &[VertexTypeId],
    ctx: &mut ExecCtx,
) -> Result<SparseVec, EngineError> {
    let t = Instant::now();
    traverse::check_start(graph, v, types[0])?;
    let mut ws = ctx.take_workspace();
    let result = (|| -> Result<SparseVec, EngineError> {
        let mut frontier = SparseVec::unit(v);
        for link in types.windows(2) {
            ctx.check_frontier(frontier.nnz())?;
            frontier = traverse::propagate_step_with(graph, &frontier, link[1], &mut ws);
            if frontier.is_empty() {
                break;
            }
        }
        ctx.check_frontier(frontier.nnz())?;
        Ok(frontier)
    })();
    // Restore even on error: `restore_workspace` clears any abandoned
    // scatter so the next traversal starts clean.
    ctx.restore_workspace(ws);
    let phi = result?;
    ctx.stats.unindexed_vectors += t.elapsed();
    ctx.stats.unindexed_count += 1;
    Ok(phi)
}

/// One index fetch, timed and counted as an indexed vector when it hits.
fn indexed<T>(ctx: &mut ExecCtx, fetch: impl FnOnce() -> Option<T>) -> Option<T> {
    let t = Instant::now();
    let hit = fetch()?;
    ctx.stats.indexed_vectors += t.elapsed();
    ctx.stats.indexed_count += 1;
    Some(hit)
}

/// Propagate a frontier through one chunk: `add_row(u, w, ws, ctx)` scatters
/// `w × Φ_chunk(u)` into `ws` for every frontier vertex, in frontier order,
/// so per id the additions — and the bits — are those of scaling each row
/// and summing them in that order, at a cost of the non-zeros scattered.
/// Budget-checked per frontier vertex with the number of ids the sum has
/// reached (its `nnz`: path counts are positive and do not cancel), so a
/// huge frontier cannot run away between checkpoints.
///
/// The sum lives in the context's workspace; a traversal `add_row` starts
/// meanwhile checks a second one out and leaves it with the context, where
/// the next one finds it.
pub(crate) fn scatter_frontier(
    frontier: &SparseVec,
    ctx: &mut ExecCtx,
    mut add_row: impl FnMut(
        VertexId,
        f64,
        &mut DenseAccumulator,
        &mut ExecCtx,
    ) -> Result<(), EngineError>,
) -> Result<SparseVec, EngineError> {
    let mut ws = ctx.take_workspace();
    let scattered = frontier.iter().try_for_each(|(u, w)| {
        add_row(u, w, &mut ws, ctx)?;
        ctx.check_frontier(ws.len())
    });
    let result = scattered.map(|()| ws.finish());
    ctx.restore_workspace(ws);
    result
}

/// The baseline strategy (Section 6.1): materialize every vector by sparse
/// graph traversal, no precomputation.
pub struct TraversalSource<'g> {
    graph: &'g HinGraph,
}

impl<'g> TraversalSource<'g> {
    /// Create a baseline source over `graph`.
    pub fn new(graph: &'g HinGraph) -> Self {
        TraversalSource { graph }
    }
}

impl VectorSource for TraversalSource<'_> {
    fn neighbor_vector(
        &self,
        v: VertexId,
        path: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<SparseVec, EngineError> {
        guarded_traversal(self.graph, v, path.types(), ctx)
    }

    fn name(&self) -> &'static str {
        "baseline"
    }
}

/// The indexed strategy used by both PM and SPM (Section 6.2): decompose the
/// meta-path into length-2 chunks, serve each chunk from the index when the
/// needed row is materialized, and fall back to two-hop traversal per vertex
/// otherwise.
///
/// With a full PM index the fallback never fires; with a selective (SPM)
/// index both code paths run and are timed separately — exactly the
/// "Indexed" vs "Not indexed" split of Figure 4.
pub struct IndexedSource<'g> {
    graph: &'g HinGraph,
    index: &'g PmIndex,
    name: &'static str,
}

impl<'g> IndexedSource<'g> {
    /// Wrap a prebuilt index (borrowed, so one index can back many engines).
    /// `name` distinguishes PM from SPM in reports.
    pub fn new(graph: &'g HinGraph, index: &'g PmIndex, name: &'static str) -> Self {
        IndexedSource { graph, index, name }
    }

    /// Access the underlying index (for size reporting and tests).
    pub fn index(&self) -> &PmIndex {
        self.index
    }
}

impl VectorSource for IndexedSource<'_> {
    fn neighbor_vector(
        &self,
        v: VertexId,
        path: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<SparseVec, EngineError> {
        if path.len() < 2 {
            return guarded_traversal(self.graph, v, path.types(), ctx);
        }
        // Start validation up front, mirroring the traversal path's errors.
        traverse::check_start(self.graph, v, path.source_type())?;
        // The chunks of `decompose_pairs`, borrowed. The first seeds the
        // frontier from `v`: for a single-chunk path the whole answer is one
        // copied index row.
        let first = &path.types()[..3];
        let mut frontier = match indexed(ctx, || self.index.matrix(first)?.row_vec(v)) {
            Some(row) => row,
            None => guarded_traversal(self.graph, v, first, ctx)?,
        };
        for chunk in path.chunk_types().skip(1) {
            if frontier.is_empty() {
                break;
            }
            ctx.check_frontier(frontier.nnz())?;
            // Per frontier vertex: its index row, borrowed, when present
            // (a single-hop tail has no matrix), traversal otherwise.
            let matrix = self.index.matrix(chunk);
            frontier = scatter_frontier(&frontier, ctx, |u, w, ws, ctx| {
                match indexed(ctx, || matrix?.row(u)) {
                    Some(row) => ws.add_scaled(row, w),
                    None => {
                        let phi = guarded_traversal(self.graph, u, chunk, ctx)?;
                        ws.add_scaled(phi.as_slice(), w);
                    }
                }
                Ok(())
            })?;
        }
        ctx.check_frontier(frontier.nnz())?;
        Ok(frontier)
    }

    fn neighbor_vector_with_norm(
        &self,
        v: VertexId,
        path: &MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<(SparseVec, f64), EngineError> {
        // Single-chunk feature paths are the common case in the paper's
        // workloads; their norms were precomputed at index-build time.
        if path.len() == 2 {
            let hit = indexed(ctx, || {
                Some((self.index.row(path, v)?, self.index.row_norm(path, v)?))
            });
            if let Some(hit) = hit {
                return Ok(hit);
            }
        }
        let phi = self.neighbor_vector(v, path, ctx)?;
        let norm2_sq = phi.norm2_sq();
        Ok((phi, norm2_sq))
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn index_size_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    fn chunk_coverage(&self, chunk: &MetaPath) -> Option<(usize, usize)> {
        let rows = self.index.rows_for(chunk)?;
        let total = self.graph.count_of_type(chunk.source_type());
        Some((rows, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::budget::{Budget, BudgetLimit};
    use crate::engine::index::{ChunkSelection, PmIndex};
    use hin_datagen::toy;

    #[test]
    fn baseline_records_unindexed_time() {
        let g = toy::figure1_network();
        let src = TraversalSource::new(&g);
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let mut ctx = ExecCtx::unbounded();
        let phi = src.neighbor_vector(zoe, &apv, &mut ctx).unwrap();
        assert_eq!(phi.sum(), 5.0);
        assert_eq!(ctx.stats.unindexed_count, 1);
        assert_eq!(ctx.stats.indexed_count, 0);
        assert!(ctx.stats.peak_frontier_nnz >= 1);
        assert!(ctx.stats.budget_checks() > 0);
        assert_eq!(src.index_size_bytes(), 0);
        assert_eq!(src.name(), "baseline");
    }

    #[test]
    fn full_index_never_falls_back() {
        let g = toy::figure1_network();
        let index = PmIndex::build_full(&g, ChunkSelection::All, 1);
        let src = IndexedSource::new(&g, &index, "pm");
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let mut ctx = ExecCtx::unbounded();
        let phi = src.neighbor_vector(zoe, &apv, &mut ctx).unwrap();
        assert_eq!(phi.nnz(), 2);
        assert_eq!(ctx.stats.unindexed_count, 0);
        assert_eq!(ctx.stats.indexed_count, 1);
        assert!(src.index_size_bytes() > 0);
    }

    #[test]
    fn indexed_equals_traversal_on_long_paths() {
        let g = toy::figure1_network();
        let index = PmIndex::build_full(&g, ChunkSelection::All, 1);
        let idx_src = IndexedSource::new(&g, &index, "pm");
        let trv_src = TraversalSource::new(&g);
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let apvpa = MetaPath::parse("author.paper.venue.paper.author", g.schema()).unwrap();
        let apvp = MetaPath::parse("author.paper.venue.paper", g.schema()).unwrap();
        for &a in g.vertices_of_type(author) {
            for path in [&apvpa, &apvp] {
                let mut c1 = ExecCtx::unbounded();
                let mut c2 = ExecCtx::unbounded();
                let phi_i = idx_src.neighbor_vector(a, path, &mut c1).unwrap();
                let phi_t = trv_src.neighbor_vector(a, path, &mut c2).unwrap();
                assert_eq!(phi_i, phi_t, "path {path:?} vertex {a:?}");
            }
        }
    }

    #[test]
    fn odd_tail_uses_traversal_hop() {
        let g = toy::figure1_network();
        let index = PmIndex::build_full(&g, ChunkSelection::All, 1);
        let src = IndexedSource::new(&g, &index, "pm");
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        // Length-3 path: one indexed chunk + one single-hop tail.
        let apvp = MetaPath::parse("author.paper.venue.paper", g.schema()).unwrap();
        let mut ctx = ExecCtx::unbounded();
        src.neighbor_vector(zoe, &apvp, &mut ctx).unwrap();
        assert!(ctx.stats.indexed_count >= 1);
        assert!(ctx.stats.unindexed_count >= 1, "tail hop is traversal");
    }

    #[test]
    fn single_hop_path_traverses() {
        let g = toy::figure1_network();
        let index = PmIndex::build_full(&g, ChunkSelection::All, 1);
        let src = IndexedSource::new(&g, &index, "pm");
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let ap = MetaPath::parse("author.paper", g.schema()).unwrap();
        let mut ctx = ExecCtx::unbounded();
        let phi = src.neighbor_vector(zoe, &ap, &mut ctx).unwrap();
        assert_eq!(phi.sum(), 5.0);
        assert_eq!(ctx.stats.indexed_count, 0);
    }

    #[test]
    fn type_mismatch_error_matches_traversal() {
        let g = toy::figure1_network();
        let index = PmIndex::build_full(&g, ChunkSelection::All, 1);
        let src = IndexedSource::new(&g, &index, "pm");
        let venue = g.schema().vertex_type_by_name("venue").unwrap();
        let icde = g.vertex_by_name(venue, "ICDE").unwrap();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let mut ctx = ExecCtx::unbounded();
        assert!(src.neighbor_vector(icde, &apv, &mut ctx).is_err());
    }

    #[test]
    fn guarded_traversal_matches_unguarded() {
        let g = toy::figure1_network();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let apvpa = MetaPath::parse("author.paper.venue.paper.author", g.schema()).unwrap();
        for &a in g.vertices_of_type(author) {
            let mut ctx = ExecCtx::unbounded();
            let guarded = guarded_traversal(&g, a, apvpa.types(), &mut ctx).unwrap();
            let plain = traverse::neighbor_vector(&g, a, &apvpa).unwrap();
            assert_eq!(guarded, plain);
        }
    }

    #[test]
    fn with_norm_agrees_with_plain_materialization() {
        let g = toy::figure1_network();
        let index = PmIndex::build_full(&g, ChunkSelection::All, 1);
        let idx_src = IndexedSource::new(&g, &index, "pm");
        let trv_src = TraversalSource::new(&g);
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let apvpa = MetaPath::parse("author.paper.venue.paper.author", g.schema()).unwrap();
        for &a in g.vertices_of_type(author) {
            for path in [&apv, &apvpa] {
                let mut c1 = ExecCtx::unbounded();
                let mut c2 = ExecCtx::unbounded();
                let (phi_i, n_i) = idx_src.neighbor_vector_with_norm(a, path, &mut c1).unwrap();
                let (phi_t, n_t) = trv_src.neighbor_vector_with_norm(a, path, &mut c2).unwrap();
                assert_eq!(phi_i, phi_t);
                assert_eq!(n_i.to_bits(), n_t.to_bits());
                assert_eq!(n_i.to_bits(), phi_i.norm2_sq().to_bits());
            }
        }
        // The single-chunk path was served with its precomputed norm.
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let mut ctx = ExecCtx::unbounded();
        idx_src
            .neighbor_vector_with_norm(zoe, &apv, &mut ctx)
            .unwrap();
        assert_eq!(ctx.stats.indexed_count, 1);
        assert_eq!(ctx.stats.unindexed_count, 0);
    }

    #[test]
    fn nnz_cap_fires_mid_path() {
        let g = toy::figure1_network();
        let src = TraversalSource::new(&g);
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let apvpa = MetaPath::parse("author.paper.venue.paper.author", g.schema()).unwrap();
        let mut ctx = ExecCtx::new(&Budget::default().with_max_nnz(1));
        match src.neighbor_vector(zoe, &apvpa, &mut ctx).unwrap_err() {
            EngineError::BudgetExceeded {
                limit, observed, ..
            } => {
                assert_eq!(limit, BudgetLimit::FrontierNnz);
                assert!(observed > 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}

//! Pre-materialization indexes (Section 6.2 of the paper).
//!
//! A [`PmIndex`] stores, per length-2 meta-path `(T₀ T₁ T₂)`, a sparse
//! matrix whose row `v` is `Φ_{(T₀T₁T₂)}(v)`. Full pre-materialization (PM)
//! stores rows for every vertex of `T₀`; selective pre-materialization (SPM)
//! stores rows only for vertices whose *relative frequency* of appearance in
//! candidate sets of an initialization query workload reaches a threshold.

use crate::engine::budget::ExecCtx;
use crate::engine::set_eval::eval_set;
use crate::engine::source::TraversalSource;
use hin_graph::{
    traverse, HinGraph, MetaPath, PooledAccumulator, SparseMatrix, SparseVec, VertexId,
    VertexTypeId,
};
use hin_query::validate::BoundQuery;
use rustc_hash::{FxHashMap, FxHashSet};

/// Which length-2 meta-paths an index covers.
#[derive(Debug, Clone)]
pub enum ChunkSelection {
    /// Every schema-valid length-2 meta-path ("we may compute all length-2
    /// paths", Section 6.2).
    All,
    /// An explicit set of length-2 meta-paths — typically the chunks
    /// appearing in a known query workload ("or only a subset").
    Paths(Vec<MetaPath>),
}

impl ChunkSelection {
    /// Resolve to the concrete list of length-2 paths for `graph`'s schema.
    /// Non-length-2 paths in `Paths` are ignored (the index cannot serve
    /// them).
    pub fn resolve(&self, graph: &HinGraph) -> Vec<MetaPath> {
        match self {
            ChunkSelection::All => all_length2_paths(graph),
            ChunkSelection::Paths(paths) => {
                let mut out: Vec<MetaPath> =
                    paths.iter().filter(|p| p.len() == 2).cloned().collect();
                out.sort_by(|a, b| a.types().cmp(b.types()));
                out.dedup();
                out
            }
        }
    }
}

/// Every length-2 meta-path `(T₀ T₁ T₂)` such that both links exist in the
/// schema, in deterministic order.
pub fn all_length2_paths(graph: &HinGraph) -> Vec<MetaPath> {
    let schema = graph.schema();
    let mut out = Vec::new();
    for t0 in schema.vertex_type_ids() {
        for t1 in schema.vertex_type_ids() {
            if !schema.link_exists(t0, t1) {
                continue;
            }
            for t2 in schema.vertex_type_ids() {
                if !schema.link_exists(t1, t2) {
                    continue;
                }
                // Invariant: both links were checked against the schema just
                // above, so construction cannot fail.
                #[allow(clippy::expect_used)]
                out.push(MetaPath::new(vec![t0, t1, t2], schema).expect("links verified above"));
            }
        }
    }
    out
}

/// One indexed chunk: row `v` of `matrix` is `Φ_chunk(v)`, and `norms`
/// holds `‖Φ_chunk(v)‖²` per row, parallel to the matrix's rows (the layout
/// [`PmIndex::from_parts`] is handed and a snapshot stores), computed once
/// at build time so measure denominators (visibility) are never re-derived
/// from an indexed vector.
#[derive(Debug, Clone)]
struct IndexedChunk {
    matrix: SparseMatrix,
    norms: Vec<f64>,
}

impl IndexedChunk {
    fn from_rows(mut rows: Vec<(VertexId, SparseVec)>) -> Self {
        // The order `SparseMatrix::from_rows` stores, so the norms line up.
        rows.sort_unstable_by_key(|(v, _)| *v);
        let norms = rows.iter().map(|(_, phi)| phi.norm2_sq()).collect();
        IndexedChunk {
            matrix: SparseMatrix::from_rows(rows),
            norms,
        }
    }
}

/// A pre-materialized length-2 meta-path index.
#[derive(Debug, Clone, Default)]
pub struct PmIndex {
    chunks: FxHashMap<MetaPath, IndexedChunk>,
}

impl PmIndex {
    /// An empty index (every lookup misses — behaves like the baseline).
    pub fn empty() -> Self {
        PmIndex::default()
    }

    /// Build a **full PM** index: rows for every vertex of each chunk's
    /// source type. `threads` bounds build parallelism (1 = sequential).
    pub fn build_full(graph: &HinGraph, selection: ChunkSelection, threads: usize) -> Self {
        let chunks = selection
            .resolve(graph)
            .into_iter()
            .map(|chunk| {
                let vertices = graph.vertices_of_type(chunk.source_type());
                let rows = materialize_rows(graph, &chunk, vertices, threads);
                (chunk, IndexedChunk::from_rows(rows))
            })
            .collect();
        PmIndex { chunks }
    }

    /// Build a **selective (SPM)** index: rows only for `selected` vertices,
    /// for each chunk whose source type matches the vertex's type.
    pub fn build_selective(
        graph: &HinGraph,
        selection: ChunkSelection,
        selected: &FxHashSet<VertexId>,
        threads: usize,
    ) -> Self {
        // Bucket selected vertices by type once.
        let mut by_type: FxHashMap<VertexTypeId, Vec<VertexId>> = FxHashMap::default();
        for &v in selected {
            by_type.entry(graph.vertex_type(v)).or_default().push(v);
        }
        for list in by_type.values_mut() {
            list.sort_unstable();
        }
        let chunks = selection
            .resolve(graph)
            .into_iter()
            .map(|chunk| {
                let vertices = by_type
                    .get(&chunk.source_type())
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                let rows = materialize_rows(graph, &chunk, vertices, threads);
                (chunk, IndexedChunk::from_rows(rows))
            })
            .collect();
        PmIndex { chunks }
    }

    /// The matrix of the chunk with this type sequence (as
    /// [`MetaPath::chunk_types`] lends it: nothing is allocated to ask), or
    /// `None` when the chunk is not indexed.
    pub fn matrix(&self, chunk: &[VertexTypeId]) -> Option<&SparseMatrix> {
        self.chunks.get(chunk).map(|c| &c.matrix)
    }

    /// Look up `Φ_chunk(v)`. `None` when either the chunk or the row is not
    /// materialized.
    pub fn row(&self, chunk: &MetaPath, v: VertexId) -> Option<SparseVec> {
        self.matrix(chunk.types())?.row_vec(v)
    }

    /// Precomputed `‖Φ_chunk(v)‖²` for a materialized row. `None` exactly
    /// when [`PmIndex::row`] would be `None`.
    pub fn row_norm(&self, chunk: &MetaPath, v: VertexId) -> Option<f64> {
        let c = self.chunks.get(chunk)?;
        Some(c.norms[c.matrix.row_slot(v)?])
    }

    /// Number of materialized rows for `chunk`, or `None` when the chunk is
    /// not indexed at all.
    pub fn rows_for(&self, chunk: &MetaPath) -> Option<usize> {
        self.matrix(chunk.types()).map(SparseMatrix::row_count)
    }

    /// Whether the row is materialized (without copying it).
    pub fn has_row(&self, chunk: &MetaPath, v: VertexId) -> bool {
        self.matrix(chunk.types()).is_some_and(|m| m.has_row(v))
    }

    /// Number of indexed meta-paths.
    pub fn path_count(&self) -> usize {
        self.chunks.len()
    }

    /// Iterate every indexed chunk and its matrix in deterministic order
    /// (sorted by the chunk's type sequence) — the serialization order used
    /// by snapshot writers.
    pub fn chunks(&self) -> Vec<(&MetaPath, &SparseMatrix)> {
        let mut out: Vec<_> = self.chunks.iter().map(|(k, c)| (k, &c.matrix)).collect();
        out.sort_by(|(a, _), (b, _)| a.types().cmp(b.types()));
        out
    }

    /// Rebuild an index from per-chunk parts: each entry carries a chunk,
    /// its matrix, and row norms *parallel to the matrix's row order* (as
    /// produced by walking [`SparseMatrix::raw_parts`] row ids through
    /// [`PmIndex::row_norm`]). Duplicate chunks or a norms length that does
    /// not match the matrix's row count are rejected.
    pub fn from_parts(
        parts: Vec<(MetaPath, SparseMatrix, Vec<f64>)>,
    ) -> Result<Self, hin_graph::GraphError> {
        let raw_err = |message: String| hin_graph::GraphError::Format { line: 0, message };
        let mut chunks = FxHashMap::default();
        for (chunk, matrix, norms) in parts {
            if norms.len() != matrix.row_count() {
                return Err(raw_err(format!(
                    "index chunk has {} rows but {} norms",
                    matrix.row_count(),
                    norms.len()
                )));
            }
            if chunks
                .insert(chunk, IndexedChunk { matrix, norms })
                .is_some()
            {
                return Err(raw_err("duplicate index chunk".into()));
            }
        }
        Ok(PmIndex { chunks })
    }

    /// Total materialized rows across all meta-paths.
    pub fn total_rows(&self) -> usize {
        self.chunks.values().map(|c| c.matrix.row_count()).sum()
    }

    /// Total stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.chunks.values().map(|c| c.matrix.nnz()).sum()
    }

    /// Approximate heap footprint in bytes (the y-axis of Figure 5b): per
    /// chunk its key, its matrix and its column of row norms.
    pub fn size_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|(k, c)| {
                k.types().len()
                    + c.matrix.size_bytes()
                    + c.norms.capacity() * std::mem::size_of::<f64>()
            })
            .sum()
    }
}

/// Materialize `Φ_chunk(v)` for each vertex, optionally in parallel.
fn materialize_rows(
    graph: &HinGraph,
    chunk: &MetaPath,
    vertices: &[VertexId],
    threads: usize,
) -> Vec<(VertexId, SparseVec)> {
    // One pooled workspace per shard serves every hop of every row in it.
    let compute_shard = |shard: &[VertexId]| {
        let mut ws = PooledAccumulator::checkout();
        shard
            .iter()
            .map(|&v| {
                // Invariant: callers only pass vertices whose type matches
                // the chunk's source type, so traversal cannot fail.
                #[allow(clippy::expect_used)]
                let phi = traverse::neighbor_vector_with(graph, v, chunk, &mut ws)
                    .expect("chunk starts at the vertex's type by construction");
                (v, phi)
            })
            .collect::<Vec<_>>()
    };
    let threads = threads.max(1).min(vertices.len().max(1));
    if threads == 1 || vertices.len() < 256 {
        return compute_shard(vertices);
    }
    // Parallel build: split the vertex list into contiguous shards; each
    // shard's rows come back in order, so concatenation preserves global
    // order (from_rows sorts anyway, but this keeps merging cheap).
    let shard_len = vertices.len().div_ceil(threads);
    let mut out = Vec::with_capacity(vertices.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = vertices
            .chunks(shard_len)
            .map(|shard| scope.spawn(move || compute_shard(shard)))
            .collect();
        for h in handles {
            // Propagating a worker panic is the only sensible response here;
            // swallowing it would silently drop index rows.
            #[allow(clippy::expect_used)]
            out.extend(h.join().expect("row materialization panicked"));
        }
    });
    out
}

/// Count how frequently each vertex appears in the *candidate sets* of the
/// initialization workload, and return those whose relative frequency
/// (`appearances / number of queries`) is at least `threshold`.
///
/// This is the SPM vertex-selection rule of Section 6.2. Queries whose
/// anchors are missing from the graph are skipped (they contribute to the
/// denominator, matching "relative to the workload size").
pub fn select_frequent_vertices(
    graph: &HinGraph,
    queries: &[BoundQuery],
    threshold: f64,
) -> FxHashSet<VertexId> {
    let source = TraversalSource::new(graph);
    let mut counts: FxHashMap<VertexId, u32> = FxHashMap::default();
    for q in queries {
        let mut ctx = ExecCtx::unbounded();
        let Ok(members) = eval_set(graph, &source, &q.candidate, &mut ctx) else {
            continue;
        };
        for v in members {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let min_count = threshold * queries.len() as f64;
    counts
        .into_iter()
        .filter(|&(_, c)| c as f64 >= min_count)
        .map(|(v, _)| v)
        .collect()
}

/// The length-2 chunks a workload needs: decomposition chunks of every
/// feature meta-path, every set-retrieval walk, and every `COUNT` walk.
pub fn chunks_used_by(queries: &[BoundQuery]) -> Vec<MetaPath> {
    fn add_set(expr: &hin_query::validate::BoundSetExpr, out: &mut Vec<MetaPath>) {
        use hin_query::validate::{BoundCondition, BoundSetExpr};
        match expr {
            BoundSetExpr::Primary(p) => {
                out.extend(p.path.decompose_pairs());
                fn add_cond(c: &BoundCondition, out: &mut Vec<MetaPath>) {
                    match c {
                        BoundCondition::And(a, b) | BoundCondition::Or(a, b) => {
                            add_cond(a, out);
                            add_cond(b, out);
                        }
                        BoundCondition::Not(c) => add_cond(c, out),
                        BoundCondition::Count { path, .. } => out.extend(path.decompose_pairs()),
                    }
                }
                if let Some(c) = &p.filter {
                    add_cond(c, out);
                }
            }
            BoundSetExpr::Union(a, b)
            | BoundSetExpr::Intersect(a, b)
            | BoundSetExpr::Except(a, b) => {
                add_set(a, out);
                add_set(b, out);
            }
        }
    }
    let mut out = Vec::new();
    for q in queries {
        add_set(&q.candidate, &mut out);
        if let Some(r) = &q.reference {
            add_set(r, &mut out);
        }
        for f in &q.features {
            out.extend(f.path.decompose_pairs());
        }
    }
    out.retain(|p| p.len() == 2);
    out.sort_by(|a, b| a.types().cmp(b.types()));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hin_datagen::toy;
    use hin_query::validate::parse_and_bind;

    #[test]
    fn all_length2_paths_for_bibliographic_schema() {
        let g = toy::figure1_network();
        let paths = all_length2_paths(&g);
        // Links (undirected): A–P, P–V, P–T. Middle type T₁ must link both
        // ways: P links to A, V, T (and each of A,V,T links only to P).
        // Chunks through P: 3×3 = 9. Chunks through A, V, T: middle A links
        // to P only → (P A P); same for V and T → 3 more. Total 12.
        assert_eq!(paths.len(), 12);
        let schema = g.schema();
        let rendered: Vec<String> = paths
            .iter()
            .map(|p| p.display(schema).to_string())
            .collect();
        assert!(rendered.contains(&"author.paper.venue".to_string()));
        assert!(rendered.contains(&"paper.author.paper".to_string()));
        assert!(!rendered.contains(&"author.venue.paper".to_string()));
    }

    #[test]
    fn full_index_has_all_rows() {
        let g = toy::figure1_network();
        let idx = PmIndex::build_full(&g, ChunkSelection::All, 1);
        assert_eq!(idx.path_count(), 12);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        for &a in g.vertices_of_type(author) {
            assert!(idx.has_row(&apv, a));
            let row = idx.row(&apv, a).unwrap();
            let direct = traverse::neighbor_vector(&g, a, &apv).unwrap();
            assert_eq!(row, direct);
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // 300 authors and 1 200 papers: past the 256-row floor below which
        // a build stays on the calling thread, so the shards really run.
        let g = hin_datagen::dblp::generate(&hin_datagen::dblp::SyntheticConfig::tiny(5)).graph;
        let seq = PmIndex::build_full(&g, ChunkSelection::All, 1);
        for threads in [2, 7] {
            let par = PmIndex::build_full(&g, ChunkSelection::All, threads);
            assert_eq!(seq.path_count(), par.path_count());
            for ((chunk, m_seq), (chunk_par, m_par)) in seq.chunks().into_iter().zip(par.chunks()) {
                assert_eq!(chunk, chunk_par);
                assert_eq!(m_seq.raw_parts(), m_par.raw_parts(), "{chunk:?}");
                for &v in m_seq.raw_parts().0 {
                    assert_eq!(
                        seq.row_norm(chunk, v).map(f64::to_bits),
                        par.row_norm(chunk, v).map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn row_norms_match_recomputation() {
        let g = toy::figure1_network();
        let idx = PmIndex::build_full(&g, ChunkSelection::All, 1);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        for &a in g.vertices_of_type(author) {
            let row = idx.row(&apv, a).unwrap();
            let norm = idx.row_norm(&apv, a).unwrap();
            assert_eq!(norm.to_bits(), row.norm2_sq().to_bits());
        }
        // Missing rows have no norm either.
        assert!(idx.row_norm(&apv, VertexId(u32::MAX)).is_none());
        assert!(PmIndex::empty().row_norm(&apv, VertexId(0)).is_none());
    }

    #[test]
    fn restricted_selection_only_indexes_those_paths() {
        let g = toy::figure1_network();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let idx = PmIndex::build_full(&g, ChunkSelection::Paths(vec![apv.clone()]), 1);
        assert_eq!(idx.path_count(), 1);
        let apa = MetaPath::parse("author.paper.author", g.schema()).unwrap();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        assert!(idx.has_row(&apv, zoe));
        assert!(!idx.has_row(&apa, zoe));
    }

    #[test]
    fn selection_ignores_non_length2() {
        let g = toy::figure1_network();
        let long = MetaPath::parse("author.paper.venue.paper", g.schema()).unwrap();
        let idx = PmIndex::build_full(&g, ChunkSelection::Paths(vec![long]), 1);
        assert_eq!(idx.path_count(), 0);
        assert_eq!(idx.size_bytes(), 0);
    }

    #[test]
    fn selective_index_partial_rows() {
        let g = toy::figure1_network();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let selected: FxHashSet<VertexId> = [zoe].into_iter().collect();
        let idx = PmIndex::build_selective(&g, ChunkSelection::All, &selected, 1);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let ava = g.vertex_by_name(author, "Ava").unwrap();
        assert!(idx.has_row(&apv, zoe));
        assert!(!idx.has_row(&apv, ava));
        // Only author-rooted chunks have rows; the rest are empty matrices.
        assert_eq!(idx.total_rows(), 3); // A.P.A, A.P.V, A.P.T for Zoe
    }

    #[test]
    fn frequency_selection_threshold() {
        let g = toy::figure1_network();
        let schema = g.schema();
        // Workload: coauthor sets of each author. Zoe appears in all three
        // candidate sets (she coauthors with Ava and Liam and herself); Ava
        // appears in Ava's and Zoe's and Liam's (via p6)... compute:
        //   N(Ava)={Ava,Liam,Zoe}, N(Liam)={Ava,Liam,Zoe}, N(Zoe)={Ava,Liam,Zoe}.
        // All three authors appear 3/3 times.
        let queries: Vec<BoundQuery> = ["Ava", "Liam", "Zoe"]
            .iter()
            .map(|name| {
                parse_and_bind(
                    &format!(
                        "FIND OUTLIERS FROM author{{\"{name}\"}}.paper.author \
                         JUDGED BY author.paper.venue TOP 3;"
                    ),
                    schema,
                )
                .unwrap()
            })
            .collect();
        let selected = select_frequent_vertices(&g, &queries, 1.0);
        assert_eq!(selected.len(), 3);
        // An impossible threshold selects nothing.
        let selected = select_frequent_vertices(&g, &queries, 1.1);
        assert!(selected.is_empty());
    }

    #[test]
    fn frequency_selection_skips_missing_anchors() {
        let g = toy::figure1_network();
        let schema = g.schema();
        let queries: Vec<BoundQuery> = ["Zoe", "Ghost"]
            .iter()
            .map(|name| {
                parse_and_bind(
                    &format!(
                        "FIND OUTLIERS FROM author{{\"{name}\"}}.paper.author \
                         JUDGED BY author.paper.venue;"
                    ),
                    schema,
                )
                .unwrap()
            })
            .collect();
        // Zoe's set appears once over 2 queries → rel. freq 0.5.
        let selected = select_frequent_vertices(&g, &queries, 0.5);
        assert_eq!(selected.len(), 3);
        let selected = select_frequent_vertices(&g, &queries, 0.6);
        assert!(selected.is_empty());
    }

    #[test]
    fn chunks_used_by_collects_all_walks() {
        let g = toy::figure1_network();
        let schema = g.schema();
        let q = parse_and_bind(
            "FIND OUTLIERS FROM venue{\"KDD\"}.paper.author AS A WHERE COUNT(A.paper.venue) > 1 \
             COMPARED TO venue{\"ICDE\"}.paper.author \
             JUDGED BY author.paper.venue.paper.author TOP 5;",
            schema,
        )
        .unwrap();
        let chunks = chunks_used_by(&[q]);
        let rendered: Vec<String> = chunks
            .iter()
            .map(|p| p.display(schema).to_string())
            .collect();
        assert!(rendered.contains(&"venue.paper.author".to_string())); // set walks
        assert!(rendered.contains(&"author.paper.venue".to_string())); // feature + count
        assert!(rendered.contains(&"venue.paper.author".to_string())); // feature tail
        assert_eq!(chunks.len(), 2, "duplicates removed: {rendered:?}");
    }

    #[test]
    fn chunks_and_from_parts_roundtrip() {
        let g = toy::figure1_network();
        let idx = PmIndex::build_full(&g, ChunkSelection::All, 1);
        let parts: Vec<_> = idx
            .chunks()
            .into_iter()
            .map(|(chunk, matrix)| {
                let (row_ids, _, _) = matrix.raw_parts();
                let norms: Vec<f64> = row_ids
                    .iter()
                    .map(|&v| idx.row_norm(chunk, v).unwrap())
                    .collect();
                (chunk.clone(), matrix.clone(), norms)
            })
            .collect();
        let back = PmIndex::from_parts(parts).unwrap();
        assert_eq!(back.path_count(), idx.path_count());
        assert_eq!(back.total_rows(), idx.total_rows());
        assert_eq!(back.nnz(), idx.nnz());
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        for &a in g.vertices_of_type(author) {
            assert_eq!(back.row(&apv, a), idx.row(&apv, a));
            assert_eq!(
                back.row_norm(&apv, a).map(f64::to_bits),
                idx.row_norm(&apv, a).map(f64::to_bits)
            );
        }
        // Mismatched norms length is rejected.
        let chunk = apv.clone();
        let matrix = SparseMatrix::from_rows(vec![(VertexId(0), SparseVec::unit(VertexId(1)))]);
        assert!(PmIndex::from_parts(vec![(chunk.clone(), matrix.clone(), vec![])]).is_err());
        // Duplicate chunks are rejected.
        assert!(PmIndex::from_parts(vec![
            (chunk.clone(), matrix.clone(), vec![1.0]),
            (chunk, matrix, vec![1.0]),
        ])
        .is_err());
    }

    #[test]
    fn empty_index_misses_everything() {
        let g = toy::figure1_network();
        let idx = PmIndex::empty();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        assert!(idx.row(&apv, VertexId(0)).is_none());
        assert_eq!(idx.size_bytes(), 0);
        assert_eq!(idx.total_rows(), 0);
    }
}

//! End-to-end query execution: set retrieval → vector materialization →
//! scoring → top-k.

use crate::engine::budget::{Budget, BudgetPhase, Degraded, ExecCtx};
use crate::engine::parallel::run_sharded;
use crate::engine::set_eval::eval_set;
use crate::engine::source::{TraversalSource, VectorSource};
use crate::engine::stats::ExecBreakdown;
use crate::engine::topk::{top_k, ScoreOrder};
use crate::error::EngineError;
use crate::measures::{MeasureKind, OutlierMeasure};
use hin_graph::{HinGraph, SparseVec, VertexId};
use hin_query::validate::{parse_and_bind, BoundQuery};
use rustc_hash::FxHashMap;
use std::time::Instant;

/// How per-feature-meta-path scores combine into one score when a query
/// specifies several feature paths.
///
/// The paper leaves the best combination open (Section 5.1: "independent
/// outlier scores can be computed considering each feature meta-path
/// independently and then averaged"); weighted averaging is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineStrategy {
    /// `Σ wᵢ·Ωᵢ / Σ wᵢ` — the paper's suggestion, the default.
    #[default]
    WeightedAverage,
    /// `Σ wᵢ·Ωᵢ` (no normalization; equivalent ranking to the average, but
    /// scores scale with the weight mass).
    WeightedSum,
    /// Borda rank aggregation: each feature ranks candidates most-outlying
    /// first; the combined score is the weighted mean rank. Robust to
    /// per-path score scale differences.
    BordaRank,
}

/// One ranked outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierResult {
    /// The vertex.
    pub vertex: VertexId,
    /// Its name (resolved for display, as in the paper's result tables).
    pub name: String,
    /// The combined outlierness score (`Ω`-value for NetOut).
    pub score: f64,
}

/// The result of executing an outlier query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Top-k outliers, most outlying first. Only finite scores appear here.
    pub ranked: Vec<OutlierResult>,
    /// Size of the evaluated candidate set `S_c`.
    pub candidate_count: usize,
    /// Size of the evaluated reference set `S_r`.
    pub reference_count: usize,
    /// Candidates whose combined score is undefined — under NetOut, those
    /// with zero visibility (no path instances) along at least one
    /// weighted-in feature path. Excluded from `ranked` (NetOut treats them
    /// as least outlying) and reported here for inspection.
    pub zero_visibility: Vec<VertexId>,
    /// Timing breakdown of this execution.
    pub stats: ExecBreakdown,
    /// Name of the measure that produced the scores.
    pub measure: &'static str,
    /// `Some` when the execution ran out of budget after scoring only a
    /// prefix of the candidates: the ranking is best-effort, not exact.
    /// Always `None` for the strict [`QueryEngine::execute`] path, which
    /// returns [`EngineError::BudgetExceeded`] instead.
    pub degraded: Option<Degraded>,
}

impl QueryResult {
    /// Names of the ranked outliers, most outlying first.
    pub fn names(&self) -> Vec<&str> {
        self.ranked.iter().map(|r| r.name.as_str()).collect()
    }
}

/// One contiguous candidate shard's scores, produced by
/// [`QueryEngine::execute_shard`]: combined scores for the shard's
/// candidates **before** top-k selection, so a scatter-gather merger can
/// concatenate shards in order and apply the exact single-box ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardScores {
    /// Finite combined scores for this shard's candidates, in candidate
    /// order (no ranking applied).
    pub rows: Vec<OutlierResult>,
    /// How many candidates in this shard had a non-finite combined score.
    pub zero_visibility: usize,
    /// Candidate-set size of the *whole* query (all shards).
    pub candidate_count: usize,
    /// Reference-set size.
    pub reference_count: usize,
    /// The query's TOP clause, if any.
    pub top: Option<usize>,
    /// The order in which combined scores rank.
    pub order: ScoreOrder,
    /// Name of the measure that produced the scores.
    pub measure: &'static str,
    /// Timing breakdown of this shard's execution.
    pub stats: ExecBreakdown,
}

/// Executes bound queries over a graph with a chosen materialization
/// strategy, measure, and combination strategy.
pub struct QueryEngine<'g> {
    graph: &'g HinGraph,
    source: Box<dyn VectorSource + 'g>,
    combine: CombineStrategy,
    measure: MeasureKind,
    pub(crate) budget: Budget,
    pub(crate) threads: usize,
}

impl<'g> QueryEngine<'g> {
    /// An engine using baseline traversal (no index).
    pub fn baseline(graph: &'g HinGraph) -> Self {
        QueryEngine {
            graph,
            source: Box::new(TraversalSource::new(graph)),
            combine: CombineStrategy::default(),
            measure: MeasureKind::NetOut,
            budget: Budget::default(),
            threads: 1,
        }
    }

    /// An engine over a custom vector source (PM / SPM).
    pub fn with_source(graph: &'g HinGraph, source: Box<dyn VectorSource + 'g>) -> Self {
        QueryEngine {
            graph,
            source,
            combine: CombineStrategy::default(),
            measure: MeasureKind::NetOut,
            budget: Budget::default(),
            threads: 1,
        }
    }

    /// Set the multi-path combination strategy.
    pub fn combine_strategy(mut self, combine: CombineStrategy) -> Self {
        self.combine = combine;
        self
    }

    /// Set the outlierness measure.
    pub fn measure(mut self, measure: MeasureKind) -> Self {
        self.measure = measure;
        self
    }

    /// Set the number of worker threads used *within* one query (1 = fully
    /// serial, the default). Candidate materialization and scoring shard
    /// across a scoped thread pool; results are bit-identical to the serial
    /// run for any thread count (see [`crate::engine::parallel`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Set the execution budget applied to every query this engine runs
    /// (unbounded by default). The strict [`execute`](QueryEngine::execute)
    /// path fails hard with [`EngineError::BudgetExceeded`]; the
    /// progressive path degrades to a partial result when possible.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The graph this engine runs over.
    pub fn graph(&self) -> &'g HinGraph {
        self.graph
    }

    /// The active vector source's name (`"baseline"`, `"pm"`, `"spm"`).
    pub fn source_name(&self) -> &'static str {
        self.source.name()
    }

    /// The active vector source (used by progressive execution).
    pub(crate) fn source(&self) -> &dyn VectorSource {
        self.source.as_ref()
    }

    /// The configured measure kind.
    pub(crate) fn measure_kind(&self) -> MeasureKind {
        self.measure
    }

    /// Build a human-readable execution plan for `query` without running
    /// it (anchor resolution is checked; set sizes are not computed). See
    /// [`crate::engine::explain`].
    pub fn explain(
        &self,
        query: &hin_query::validate::BoundQuery,
    ) -> crate::engine::explain::Explain {
        let _span = hin_telemetry::span!("explain", features = query.features.len());
        crate::engine::explain::explain(self, query)
    }

    /// Start a progressive execution (Section 8's "approximate top-k while
    /// the query is being processed"): candidates are scored in batches of
    /// `batch_size` and each batch yields a [`crate::engine::progressive::ProgressSnapshot`]
    /// with the exact top-k over the processed prefix.
    ///
    /// Multi-feature queries are combined by weighted average regardless of
    /// the engine's [`CombineStrategy`] (rank aggregation needs the full
    /// candidate set and cannot stream).
    pub fn execute_progressive(
        &self,
        query: &hin_query::validate::BoundQuery,
        batch_size: usize,
    ) -> Result<crate::engine::progressive::ProgressiveRun<'_, 'g>, EngineError> {
        crate::engine::progressive::ProgressiveRun::start(self, query, batch_size)
    }

    /// Execute with graceful degradation: run the progressive path in
    /// batches of `batch_size` and, when the engine's [`Budget`] fires
    /// after at least one candidate was scored, return a **partial**
    /// best-effort result (with [`QueryResult::degraded`] set) instead of
    /// an error. Budget violations before anything was scored — and all
    /// non-budget errors — still fail.
    pub fn execute_best_effort(
        &self,
        query: &BoundQuery,
        batch_size: usize,
    ) -> Result<QueryResult, EngineError> {
        self.execute_progressive(query, batch_size)?.finish()
    }

    /// Bytes of index memory behind this engine (0 for baseline).
    pub fn index_size_bytes(&self) -> usize {
        self.source.index_size_bytes()
    }

    /// Parse, validate, and execute a query string.
    pub fn execute_str(&self, src: &str) -> Result<QueryResult, EngineError> {
        let bound = parse_and_bind(src, self.graph.schema())?;
        self.execute(&bound)
    }

    /// Execute a bound query with the engine's configured measure.
    pub fn execute(&self, query: &BoundQuery) -> Result<QueryResult, EngineError> {
        self.execute_measured(query, self.measure.instantiate().as_ref())
    }

    /// Execute a bound query with an explicit measure (used by the
    /// measure-comparison experiments).
    pub fn execute_measured(
        &self,
        query: &BoundQuery,
        measure: &dyn OutlierMeasure,
    ) -> Result<QueryResult, EngineError> {
        let mut ctx = ExecCtx::new(&self.budget);
        ctx.set_threads(self.threads);
        let mut query_span = hin_telemetry::span!("query", threads = self.threads);
        if query_span.recording() {
            query_span.field("source", self.source.name());
            query_span.field("measure", measure.name());
        }

        // 1. Retrieve S_c and S_r.
        ctx.set_phase(BudgetPhase::SetRetrieval);
        let retrieval_span = hin_telemetry::span!("set_retrieval");
        let candidates = eval_set(self.graph, self.source.as_ref(), &query.candidate, &mut ctx)?;
        if candidates.is_empty() {
            return Err(EngineError::EmptyCandidateSet);
        }
        ctx.check_candidates(candidates.len())?;
        let reference: Vec<VertexId> = match &query.reference {
            Some(r) => {
                let set = eval_set(self.graph, self.source.as_ref(), r, &mut ctx)?;
                if set.is_empty() {
                    return Err(EngineError::EmptyReferenceSet);
                }
                set
            }
            None => candidates.clone(),
        };
        ctx.check_reference(reference.len())?;
        drop(retrieval_span);
        query_span.field("candidates", candidates.len());
        query_span.field("reference", reference.len());

        // 2. Score per feature meta-path.
        let same_sets = reference == candidates;
        let mut per_feature: Vec<Vec<(VertexId, f64)>> = Vec::with_capacity(query.features.len());
        for (fi, feature) in query.features.iter().enumerate() {
            let mut feature_span = hin_telemetry::span!("feature", index = fi);
            if feature_span.recording() {
                feature_span.field(
                    "path",
                    feature.path.display(self.graph.schema()).to_string(),
                );
            }
            ctx.set_phase(BudgetPhase::Materialization);
            let cand_vecs = self.materialize(&candidates, &feature.path, &mut ctx)?;
            let scores = if same_sets {
                self.score_feature(measure, &cand_vecs, &cand_vecs, &mut ctx)?
            } else {
                let ref_vecs =
                    self.materialize_with_cache(&reference, &feature.path, &cand_vecs, &mut ctx)?;
                self.score_feature(measure, &cand_vecs, &ref_vecs, &mut ctx)?
            };
            per_feature.push(scores);
        }

        // 3. Combine, rank, split off undefined scores.
        ctx.set_phase(BudgetPhase::Scoring);
        ctx.checkpoint()?;
        let combine_span = hin_telemetry::span!("combine");
        let t = Instant::now();
        let weights: Vec<f64> = query.features.iter().map(|f| f.weight).collect();
        let (combined, order) =
            combine_scores(per_feature, &weights, self.combine, measure.order());
        let mut zero_visibility: Vec<VertexId> = combined
            .iter()
            .filter(|(_, s)| !s.is_finite())
            .map(|(v, _)| *v)
            .collect();
        zero_visibility.sort_unstable();
        let finite: Vec<(VertexId, f64)> = combined
            .into_iter()
            .filter(|(_, s)| s.is_finite())
            .collect();
        let ranked = top_k(finite, query.top, order);
        ctx.stats.scoring += t.elapsed();
        drop(combine_span);

        let ranked = ranked
            .into_iter()
            .map(|(vertex, score)| OutlierResult {
                vertex,
                name: self.graph.vertex_name(vertex).to_string(),
                score,
            })
            .collect();

        // The trace tree subsumes the breakdown: the root span carries the
        // same phase totals `ExecBreakdown` reports, so a trace alone
        // answers "where did the time go".
        if query_span.recording() {
            query_span.field(
                "set_retrieval_us",
                ctx.stats.set_retrieval.as_micros() as u64,
            );
            query_span.field(
                "unindexed_vectors_us",
                ctx.stats.unindexed_vectors.as_micros() as u64,
            );
            query_span.field(
                "indexed_vectors_us",
                ctx.stats.indexed_vectors.as_micros() as u64,
            );
            query_span.field("scoring_us", ctx.stats.scoring.as_micros() as u64);
            query_span.field("budget_checks", ctx.stats.budget_checks());
            query_span.field("peak_frontier_nnz", ctx.stats.peak_frontier_nnz);
        }

        Ok(QueryResult {
            ranked,
            candidate_count: candidates.len(),
            reference_count: reference.len(),
            zero_visibility,
            stats: ctx.stats,
            measure: measure.name(),
            degraded: None,
        })
    }

    /// Execute one contiguous candidate shard of a bound query: shard
    /// `shard_index` of `shard_count`, where shard boundaries follow the
    /// same `div_ceil` discipline as [`crate::engine::parallel::run_sharded`]
    /// so concatenating every shard's rows in shard order reproduces the
    /// exact pre-top-k score list of [`QueryEngine::execute`].
    ///
    /// Set retrieval runs in full (shard boundaries must agree across
    /// backends, and the measure's reference model needs the whole
    /// reference set), but materialization and scoring cover only the
    /// slice. Per-candidate scores are bit-identical to a single-box run:
    /// each score depends only on the candidate's own vector and the
    /// prepared reference model. Top-k is **not** applied — that is the
    /// merging caller's job (see `hin-service`'s coordinator).
    ///
    /// When the reference set equals the candidate set the full candidate
    /// vectors are still materialized (the reference model needs them);
    /// only scoring is sharded in that case. Multi-feature queries under
    /// [`CombineStrategy::BordaRank`] cannot be sharded (rank aggregation
    /// needs the full candidate set) and fail fast.
    pub fn execute_shard(
        &self,
        query: &BoundQuery,
        shard_index: usize,
        shard_count: usize,
    ) -> Result<ShardScores, EngineError> {
        if shard_count == 0 || shard_index >= shard_count {
            return Err(EngineError::BadMeasureParameter(format!(
                "shard {shard_index}/{shard_count} is out of range"
            )));
        }
        if query.features.len() > 1 && self.combine == CombineStrategy::BordaRank {
            return Err(EngineError::BadMeasureParameter(
                "BordaRank combination needs the full candidate set and cannot be sharded".into(),
            ));
        }
        let measure = self.measure.instantiate();
        let measure = measure.as_ref();
        let mut ctx = ExecCtx::new(&self.budget);
        ctx.set_threads(self.threads);
        let mut span = hin_telemetry::span!("query_shard", shard = shard_index);
        if span.recording() {
            span.field("of", shard_count);
        }

        ctx.set_phase(BudgetPhase::SetRetrieval);
        let candidates = eval_set(self.graph, self.source.as_ref(), &query.candidate, &mut ctx)?;
        if candidates.is_empty() {
            return Err(EngineError::EmptyCandidateSet);
        }
        ctx.check_candidates(candidates.len())?;
        let reference: Vec<VertexId> = match &query.reference {
            Some(r) => {
                let set = eval_set(self.graph, self.source.as_ref(), r, &mut ctx)?;
                if set.is_empty() {
                    return Err(EngineError::EmptyReferenceSet);
                }
                set
            }
            None => candidates.clone(),
        };
        ctx.check_reference(reference.len())?;

        let chunk = candidates.len().div_ceil(shard_count);
        let start = (shard_index * chunk).min(candidates.len());
        let end = ((shard_index + 1) * chunk).min(candidates.len());
        let slice = &candidates[start..end];
        let same_sets = reference == candidates;

        let mut per_feature: Vec<Vec<(VertexId, f64)>> = Vec::with_capacity(query.features.len());
        for feature in &query.features {
            ctx.set_phase(BudgetPhase::Materialization);
            let scores = if same_sets {
                let cand_vecs = self.materialize(&candidates, &feature.path, &mut ctx)?;
                self.score_feature(measure, &cand_vecs[start..end], &cand_vecs, &mut ctx)?
            } else {
                let slice_vecs = self.materialize(slice, &feature.path, &mut ctx)?;
                let ref_vecs =
                    self.materialize_with_cache(&reference, &feature.path, &slice_vecs, &mut ctx)?;
                self.score_feature(measure, &slice_vecs, &ref_vecs, &mut ctx)?
            };
            per_feature.push(scores);
        }

        ctx.set_phase(BudgetPhase::Scoring);
        ctx.checkpoint()?;
        let t = Instant::now();
        let weights: Vec<f64> = query.features.iter().map(|f| f.weight).collect();
        let (combined, order) =
            combine_scores(per_feature, &weights, self.combine, measure.order());
        let zero_visibility = combined.iter().filter(|(_, s)| !s.is_finite()).count();
        let rows: Vec<OutlierResult> = combined
            .into_iter()
            .filter(|(_, s)| s.is_finite())
            .map(|(vertex, score)| OutlierResult {
                vertex,
                name: self.graph.vertex_name(vertex).to_string(),
                score,
            })
            .collect();
        ctx.stats.scoring += t.elapsed();

        Ok(ShardScores {
            rows,
            zero_visibility,
            candidate_count: candidates.len(),
            reference_count: reference.len(),
            top: query.top,
            order,
            measure: measure.name(),
            stats: ctx.stats,
        })
    }

    /// Score one feature path: prepare the measure once against the
    /// reference vectors (serial — reference sums, k-NN models), then score
    /// the candidate vectors, sharded across the context's threads.
    pub(crate) fn score_feature(
        &self,
        measure: &dyn OutlierMeasure,
        cand_vecs: &[(VertexId, SparseVec)],
        ref_vecs: &[(VertexId, SparseVec)],
        ctx: &mut ExecCtx,
    ) -> Result<Vec<(VertexId, f64)>, EngineError> {
        ctx.set_phase(BudgetPhase::Scoring);
        ctx.checkpoint()?;
        // Shard spans from run_sharded attach under this span when tracing.
        let _span = hin_telemetry::span!(
            "score",
            candidates = cand_vecs.len(),
            reference = ref_vecs.len()
        );
        let t = Instant::now();
        let prepared = measure.prepare(ref_vecs)?;
        ctx.stats.scoring += t.elapsed();
        run_sharded(cand_vecs, ctx, |shard, sctx| {
            sctx.checkpoint()?;
            let t = Instant::now();
            let out = prepared.score_slice(shard);
            sctx.stats.scoring += t.elapsed();
            out
        })
    }

    /// Materialize feature vectors for `ids`, in order, sharded across the
    /// context's threads (the output is identical to the serial order — see
    /// [`crate::engine::parallel`]).
    pub(crate) fn materialize(
        &self,
        ids: &[VertexId],
        path: &hin_graph::MetaPath,
        ctx: &mut ExecCtx,
    ) -> Result<Vec<(VertexId, SparseVec)>, EngineError> {
        let mut span = hin_telemetry::span!("materialize", vertices = ids.len());
        let before = self.source.subpath_stats();
        let out = run_sharded(ids, ctx, |shard, sctx| {
            shard
                .iter()
                .map(|&v| Ok((v, self.source.neighbor_vector(v, path, sctx)?)))
                .collect()
        });
        self.record_subpath_delta(&mut span, before);
        out
    }

    /// Attach sub-path cache hit/miss deltas to a materialize span, if the
    /// source stack contains a [`crate::engine::subpath::SubpathSource`] and
    /// the span is being recorded.
    fn record_subpath_delta(
        &self,
        span: &mut hin_telemetry::trace::Span,
        before: Option<crate::engine::subpath::SubpathStats>,
    ) {
        if !span.recording() {
            return;
        }
        if let (Some(before), Some(after)) = (before, self.source.subpath_stats()) {
            let delta = after.since(&before);
            span.field("subpath_hits", delta.hits);
            span.field("subpath_misses", delta.misses);
        }
    }

    /// Materialize feature vectors for `ids`, reusing any vectors already
    /// computed for the candidate set (overlapping S_c / S_r).
    fn materialize_with_cache(
        &self,
        ids: &[VertexId],
        path: &hin_graph::MetaPath,
        cached: &[(VertexId, SparseVec)],
        ctx: &mut ExecCtx,
    ) -> Result<Vec<(VertexId, SparseVec)>, EngineError> {
        let lookup: FxHashMap<VertexId, &SparseVec> =
            cached.iter().map(|(v, phi)| (*v, phi)).collect();
        let mut span =
            hin_telemetry::span!("materialize", vertices = ids.len(), reusable = cached.len());
        let before = self.source.subpath_stats();
        let out = run_sharded(ids, ctx, |shard, sctx| {
            shard
                .iter()
                .map(|&v| {
                    if let Some(&phi) = lookup.get(&v) {
                        Ok((v, phi.clone()))
                    } else {
                        Ok((v, self.source.neighbor_vector(v, path, sctx)?))
                    }
                })
                .collect()
        });
        self.record_subpath_delta(&mut span, before);
        out
    }
}

/// Combine per-feature scores. Returns the combined scores plus the order in
/// which they rank (Borda always ranks ascending).
fn combine_scores(
    mut per_feature: Vec<Vec<(VertexId, f64)>>,
    weights: &[f64],
    strategy: CombineStrategy,
    measure_order: ScoreOrder,
) -> (Vec<(VertexId, f64)>, ScoreOrder) {
    debug_assert_eq!(per_feature.len(), weights.len());
    if per_feature.len() == 1 {
        // Single feature path: the measure's score is the final score under
        // every strategy (Borda over one list preserves the ranking but not
        // the Ω values, so short-circuit for friendlier output).
        return (per_feature.swap_remove(0), measure_order);
    }
    match strategy {
        CombineStrategy::WeightedAverage | CombineStrategy::WeightedSum => {
            let total_w: f64 = weights.iter().sum();
            let norm = if strategy == CombineStrategy::WeightedAverage {
                total_w
            } else {
                1.0
            };
            let combined = per_feature[0]
                .iter()
                .enumerate()
                .map(|(i, &(v, _))| {
                    let sum: f64 = per_feature
                        .iter()
                        .zip(weights)
                        .map(|(scores, w)| {
                            debug_assert_eq!(scores[i].0, v);
                            w * scores[i].1
                        })
                        .sum();
                    (v, sum / norm)
                })
                .collect();
            (combined, measure_order)
        }
        CombineStrategy::BordaRank => {
            let total_w: f64 = weights.iter().sum();
            let mut acc: FxHashMap<VertexId, f64> = FxHashMap::default();
            for (scores, &w) in per_feature.iter().zip(weights) {
                let ranked = top_k(scores.iter().copied(), None, measure_order);
                for (rank, (v, _)) in ranked.into_iter().enumerate() {
                    *acc.entry(v).or_insert(0.0) += w * rank as f64 / total_w;
                }
            }
            let combined = per_feature[0].iter().map(|&(v, _)| (v, acc[&v])).collect();
            (combined, ScoreOrder::AscendingIsOutlier)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hin_datagen::toy;

    #[test]
    fn figure2_normalized_connectivity_via_query() {
        // Figure 2: κ(Jim, Mary) = 0.5, κ(Mary, Jim) = 2, connectivity 28.
        // NetOut with S_r = {Mary} gives exactly κ(·, Mary).
        let g = toy::figure2_network();
        let engine = QueryEngine::baseline(&g);
        let r = engine
            .execute_str(
                "FIND OUTLIERS FROM author{\"Jim\"} COMPARED TO author{\"Mary\"} \
                 JUDGED BY author.paper.venue;",
            )
            .unwrap();
        assert_eq!(r.ranked.len(), 1);
        assert!((r.ranked[0].score - 0.5).abs() < 1e-12);
        let r = engine
            .execute_str(
                "FIND OUTLIERS FROM author{\"Mary\"} COMPARED TO author{\"Jim\"} \
                 JUDGED BY author.paper.venue;",
            )
            .unwrap();
        assert!((r.ranked[0].score - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table2_scores_via_query() {
        let g = toy::table1_network();
        let engine = QueryEngine::baseline(&g);
        let r = engine.execute_str(&toy::table1_query()).unwrap();
        // Full ranking, Ω ascending: Emma 3.33, Rob 6.24, Lucy 31.11,
        // Joe 50, Sarah 100, then the 100 reference authors at 100.
        assert_eq!(r.measure, "NetOut");
        assert_eq!(r.candidate_count, 105);
        let names = r.names();
        assert_eq!(&names[..4], &["Emma", "Rob", "Lucy", "Joe"]);
        let scores: Vec<f64> = r.ranked.iter().map(|o| o.score).collect();
        assert!((scores[0] - 3.33).abs() < 0.005);
        assert!((scores[1] - 6.24).abs() < 0.005);
        assert!((scores[2] - 31.11).abs() < 0.005);
        assert!((scores[3] - 50.0).abs() < 0.005);
    }

    #[test]
    fn top_k_limits_results() {
        let g = toy::table1_network();
        let engine = QueryEngine::baseline(&g);
        let query = toy::table1_query().replace(';', " TOP 2;");
        let r = engine.execute_str(&query).unwrap();
        assert_eq!(r.ranked.len(), 2);
        assert_eq!(r.names(), vec!["Emma", "Rob"]);
    }

    #[test]
    fn default_reference_is_candidate_set() {
        let g = toy::figure1_network();
        let engine = QueryEngine::baseline(&g);
        let r = engine
            .execute_str(
                "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author \
                 JUDGED BY author.paper.venue;",
            )
            .unwrap();
        assert_eq!(r.candidate_count, r.reference_count);
        assert_eq!(r.candidate_count, 3);
    }

    #[test]
    fn empty_candidate_set_is_error() {
        let g = toy::figure1_network();
        let engine = QueryEngine::baseline(&g);
        // Ava has no KDD papers and hence no KDD-coauthors... use an anchor
        // with a neighborhood that exists but filters to nothing.
        let err = engine
            .execute_str(
                "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author AS A \
                 WHERE COUNT(A.paper) > 99 JUDGED BY author.paper.venue;",
            )
            .unwrap_err();
        assert_eq!(err, EngineError::EmptyCandidateSet);
    }

    #[test]
    fn zero_visibility_candidates_reported_not_ranked() {
        let g = toy::lonely_author_network();
        let engine = QueryEngine::baseline(&g);
        let r = engine
            .execute_str(
                "FIND OUTLIERS FROM venue{\"V1\"}.paper.author UNION author{\"Loner\"} \
                 JUDGED BY author.paper.venue.paper.author;",
            )
            .unwrap();
        // Loner has a paper but it has no venue ⇒ Φ over APVPA is empty.
        assert_eq!(r.zero_visibility.len(), 1);
        let author = g.schema().vertex_type_by_name("author").unwrap();
        assert_eq!(
            r.zero_visibility[0],
            g.vertex_by_name(author, "Loner").unwrap()
        );
        assert!(r.names().iter().all(|n| *n != "Loner"));
    }

    #[test]
    fn multi_feature_weighted_average() {
        let g = toy::figure1_network();
        let engine = QueryEngine::baseline(&g);
        let both = engine
            .execute_str(
                "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author \
                 JUDGED BY author.paper.venue : 3.0, author.paper.author;",
            )
            .unwrap();
        let venue_only = engine
            .execute_str(
                "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author \
                 JUDGED BY author.paper.venue;",
            )
            .unwrap();
        let coauthor_only = engine
            .execute_str(
                "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author \
                 JUDGED BY author.paper.author;",
            )
            .unwrap();
        // Weighted average: (3·Ω_venue + 1·Ω_coauthor) / 4, per vertex.
        for o in &both.ranked {
            let sv = venue_only
                .ranked
                .iter()
                .find(|x| x.vertex == o.vertex)
                .unwrap();
            let sc = coauthor_only
                .ranked
                .iter()
                .find(|x| x.vertex == o.vertex)
                .unwrap();
            let want = (3.0 * sv.score + sc.score) / 4.0;
            assert!((o.score - want).abs() < 1e-9, "{} vs {want}", o.score);
        }
    }

    #[test]
    fn weighted_sum_scales_scores_not_order() {
        let g = toy::figure1_network();
        let q = "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author \
                 JUDGED BY author.paper.venue : 2.0, author.paper.author : 2.0;";
        let avg = QueryEngine::baseline(&g).execute_str(q).unwrap();
        let sum = QueryEngine::baseline(&g)
            .combine_strategy(CombineStrategy::WeightedSum)
            .execute_str(q)
            .unwrap();
        let avg_names = avg.names();
        assert_eq!(avg_names, sum.names());
        for (a, s) in avg.ranked.iter().zip(&sum.ranked) {
            assert!((s.score - 4.0 * a.score).abs() < 1e-9);
        }
    }

    #[test]
    fn borda_rank_combination() {
        let g = toy::figure1_network();
        let q = "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author \
                 JUDGED BY author.paper.venue, author.paper.author;";
        let r = QueryEngine::baseline(&g)
            .combine_strategy(CombineStrategy::BordaRank)
            .execute_str(q)
            .unwrap();
        // Scores are mean ranks: within [0, n-1].
        for o in &r.ranked {
            assert!((0.0..=2.0).contains(&o.score));
        }
    }

    #[test]
    fn measure_selection_via_engine() {
        let g = toy::table1_network();
        let r = QueryEngine::baseline(&g)
            .measure(MeasureKind::PathSim)
            .execute_str(&toy::table1_query())
            .unwrap();
        assert_eq!(r.measure, "PathSim");
        // Table 2 PathSim column: Joe (1.94) ranks before Emma (5.44).
        let names = r.names();
        let joe = names.iter().position(|n| *n == "Joe").unwrap();
        let emma = names.iter().position(|n| *n == "Emma").unwrap();
        assert!(joe < emma);
    }

    #[test]
    fn stats_buckets_populated() {
        let g = toy::table1_network();
        let r = QueryEngine::baseline(&g)
            .execute_str(&toy::table1_query())
            .unwrap();
        assert!(r.stats.unindexed_count > 0);
        assert_eq!(r.stats.indexed_count, 0);
        assert!(r.stats.total() > std::time::Duration::ZERO);
        assert!(r.stats.budget_checks() > 0);
        assert!(r.stats.peak_frontier_nnz > 0);
        assert!(r.degraded.is_none());
    }

    #[test]
    fn strict_execute_fails_hard_on_budget() {
        use crate::engine::budget::{Budget, BudgetLimit};
        let g = toy::table1_network();
        // 105 candidates against a cap of 10.
        let err = QueryEngine::baseline(&g)
            .budget(Budget::default().with_max_candidates(10))
            .execute_str(&toy::table1_query())
            .unwrap_err();
        match err {
            EngineError::BudgetExceeded {
                limit, observed, ..
            } => {
                assert_eq!(limit, BudgetLimit::Candidates);
                assert_eq!(observed, 105);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A zero deadline fires at the very first checkpoint.
        let err = QueryEngine::baseline(&g)
            .budget(Budget::default().with_timeout_ms(0))
            .execute_str(&toy::table1_query())
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                limit: BudgetLimit::WallClock,
                ..
            }
        ));
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        let g = toy::table1_network();
        let serial = QueryEngine::baseline(&g)
            .execute_str(&toy::table1_query())
            .unwrap();
        for threads in [2, 4, 9] {
            let parallel = QueryEngine::baseline(&g)
                .threads(threads)
                .execute_str(&toy::table1_query())
                .unwrap();
            assert_eq!(parallel.ranked.len(), serial.ranked.len());
            for (a, b) in serial.ranked.iter().zip(&parallel.ranked) {
                assert_eq!(a.vertex, b.vertex, "{threads} threads reordered");
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
            assert_eq!(parallel.zero_visibility, serial.zero_visibility);
            assert_eq!(parallel.candidate_count, serial.candidate_count);
        }
    }

    #[test]
    fn shard_execution_concatenates_to_the_exact_single_box_ranking() {
        // Both set shapes: S_c != S_r (Table 1 query) and S_c == S_r.
        let queries = [
            (toy::table1_network(), toy::table1_query()),
            (
                toy::figure1_network(),
                "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author \
                 JUDGED BY author.paper.venue TOP 2;"
                    .to_string(),
            ),
        ];
        for (g, query) in &queries {
            let bound = parse_and_bind(query, g.schema()).unwrap();
            let engine = QueryEngine::baseline(g);
            let whole = engine.execute(&bound).unwrap();
            for shard_count in [1usize, 2, 3, 7] {
                let mut rows: Vec<(VertexId, f64)> = Vec::new();
                let mut zero_visibility = 0;
                let mut order = None;
                for i in 0..shard_count {
                    let s = engine.execute_shard(&bound, i, shard_count).unwrap();
                    assert_eq!(s.candidate_count, whole.candidate_count);
                    assert_eq!(s.reference_count, whole.reference_count);
                    assert_eq!(s.top, bound.top);
                    zero_visibility += s.zero_visibility;
                    rows.extend(s.rows.iter().map(|r| (r.vertex, r.score)));
                    order = Some(s.order);
                }
                assert_eq!(zero_visibility, whole.zero_visibility.len());
                let merged = top_k(rows, bound.top, order.unwrap());
                assert_eq!(merged.len(), whole.ranked.len(), "{shard_count} shards");
                for (m, w) in merged.iter().zip(&whole.ranked) {
                    assert_eq!(m.0, w.vertex, "{shard_count} shards reordered");
                    assert_eq!(m.1.to_bits(), w.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn shard_execution_rejects_bad_shards_and_borda() {
        let g = toy::figure1_network();
        let q = "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author \
                 JUDGED BY author.paper.venue, author.paper.author;";
        let bound = parse_and_bind(q, g.schema()).unwrap();
        let engine = QueryEngine::baseline(&g);
        assert!(engine.execute_shard(&bound, 3, 3).is_err());
        assert!(engine.execute_shard(&bound, 0, 0).is_err());
        let borda = QueryEngine::baseline(&g).combine_strategy(CombineStrategy::BordaRank);
        let err = borda.execute_shard(&bound, 0, 2).unwrap_err();
        assert!(err.to_string().contains("sharded"), "{err}");
        // Weighted combines shard fine for multi-feature queries.
        let s = engine.execute_shard(&bound, 0, 2).unwrap();
        assert!(!s.rows.is_empty());
    }

    #[test]
    fn traced_execution_yields_phase_tree_and_identical_results() {
        let g = toy::table1_network();
        let untraced = QueryEngine::baseline(&g)
            .execute_str(&toy::table1_query())
            .unwrap();

        hin_telemetry::trace::install();
        let traced = QueryEngine::baseline(&g)
            .threads(4)
            .execute_str(&toy::table1_query())
            .unwrap();
        let buf = hin_telemetry::trace::take().expect("trace buffer installed");

        // Tracing observes, never perturbs: same ranking, same scores.
        assert_eq!(traced.names(), untraced.names());
        for (a, b) in untraced.ranked.iter().zip(&traced.ranked) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        let tree = buf.tree();
        assert_eq!(tree.len(), 1, "{tree:?}");
        let root = &tree[0];
        assert_eq!(root.name, "query");
        let phases: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(phases[0], "set_retrieval");
        assert!(phases.contains(&"feature"));
        assert!(phases.contains(&"combine"));
        let feature = root.children.iter().find(|c| c.name == "feature").unwrap();
        let stages: Vec<&str> = feature.children.iter().map(|c| c.name.as_str()).collect();
        // S_c != S_r in the Table 1 query, so the reference set gets its own
        // (cache-aware) materialization stage.
        assert_eq!(stages, ["materialize", "materialize", "score"]);
        // 105 candidates across 4 threads: shard spans under both stages.
        for stage in &feature.children {
            assert_eq!(stage.children.len(), 4, "{stage:?}");
            assert!(stage.children.iter().all(|c| c.name == "shard"));
        }
        // The root span carries the breakdown totals.
        assert!(root.fields.iter().any(|(k, _)| k == "budget_checks"));
        assert!(root.fields.iter().any(|(k, _)| k == "scoring_us"));
        assert!(root
            .fields
            .iter()
            .any(|(k, v)| k == "candidates" && v == "105"));
    }

    #[test]
    fn unbounded_budget_changes_nothing() {
        let g = toy::table1_network();
        let plain = QueryEngine::baseline(&g)
            .execute_str(&toy::table1_query())
            .unwrap();
        let budgeted = QueryEngine::baseline(&g)
            .budget(
                crate::engine::budget::Budget::default()
                    .with_timeout_ms(120_000)
                    .with_max_candidates(1_000_000)
                    .with_max_nnz(100_000_000),
            )
            .execute_str(&toy::table1_query())
            .unwrap();
        assert_eq!(plain.names(), budgeted.names());
        assert_eq!(plain.zero_visibility, budgeted.zero_visibility);
    }
}

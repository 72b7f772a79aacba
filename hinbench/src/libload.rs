//! The three in-process workloads: `lib_baseline_uniform`, `lib_pm_uniform`,
//! `lib_cached_zipf`. One thread, closed loop: `detector.query(text)` and
//! nothing else between two operations but the answer check.

use crate::data::ZipfStream;
use crate::metrics::Metrics;
use crate::oracle::Answer;
use crate::run::{Env, Phase};
use crate::trace::{Tracer, NO_PARENT};
use crate::util::{mean, median, quantile, ratio};
use hin_graph::{HinGraph, SparseVec, VertexId};
use hin_query::validate::parse_and_bind;
use netout::engine::index::{chunks_used_by, ChunkSelection, PmIndex};
use netout::engine::set_eval::eval_set;
use netout::engine::source::{IndexedSource, TraversalSource, VectorSource};
use netout::{
    top_k, Budget, BudgetPhase, CachedSource, EngineError, ExecCtx, MeasureKind, OutlierDetector,
    SubpathCache, SubpathSource, VectorCache,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibKind {
    Baseline,
    Pm,
    Cached,
}

/// Which query comes next: the `uniform` list in order, over and over, or the
/// endless `zipf` draw stream.
pub enum Cursor {
    Cycle { next: usize, len: usize },
    Zipf(ZipfStream),
}

impl Cursor {
    pub fn for_kind(kind: LibKind, env: &Env) -> Cursor {
        match kind {
            LibKind::Cached => Cursor::Zipf(ZipfStream::new(env.list.len() / 3, env.seed)),
            _ => Cursor::Cycle {
                next: 0,
                len: env.list.len(),
            },
        }
    }

    pub fn next_index(&mut self) -> usize {
        match self {
            Cursor::Cycle { next, len } => {
                let i = *next;
                *next = (i + 1) % *len;
                i
            }
            Cursor::Zipf(stream) => stream.next_index(),
        }
    }
}

/// The PM index over the chunks the three templates use and no others, as
/// `exp_scaling` builds it.
pub fn build_pm_index(graph: &HinGraph, env: &Env) -> PmIndex {
    let bound: Vec<_> = env.list.texts[..env.list.len().min(3)]
        .iter()
        .map(|q| parse_and_bind(q, graph.schema()).expect("list queries bind"))
        .collect();
    PmIndex::build_full(
        graph,
        ChunkSelection::Paths(chunks_used_by(&bound)),
        env.profile.index_build_threads,
    )
}

pub struct LibSetup {
    pub detector: OutlierDetector,
    pub cursor: Cursor,
    pub index_build_s: f64,
}

/// Graph in memory → ready for the first measured operation: detector (and
/// index) construction, then the warm-up pass.
pub fn setup(kind: LibKind, env: &Env) -> Result<LibSetup, String> {
    let graph = env.graph.graph.clone();
    let mut index_build_s = 0.0;
    let detector = match kind {
        LibKind::Baseline => OutlierDetector::new(graph),
        LibKind::Pm => {
            let t = Instant::now();
            let index = build_pm_index(&graph, env);
            index_build_s = t.elapsed().as_secs_f64();
            OutlierDetector::from_prebuilt(graph, Some(index))
        }
        LibKind::Cached => OutlierDetector::new(graph)
            .with_shared_subpath_cache(Arc::new(SubpathCache::with_budget_bytes(
                env.profile.subpath_cache_bytes,
            )))
            .with_vector_cache(env.profile.vector_cache_entries),
    }
    .with_threads(1);
    let mut cursor = Cursor::for_kind(kind, env);
    // The zipf warm-up consumes the stream the measured phase continues; the
    // uniform warm-up reads the head of the list, which is then measured
    // from its start.
    let warmup: Vec<usize> = match kind {
        LibKind::Cached => (0..env.profile.zipf_warmup)
            .map(|_| cursor.next_index())
            .collect(),
        _ => (0..env.profile.warmup_queries.min(env.list.len())).collect(),
    };
    for i in warmup {
        detector
            .query(&env.list.texts[i])
            .map_err(|e| format!("warm-up: {}: {e}", env.list.texts[i]))?;
    }
    Ok(LibSetup {
        detector,
        cursor,
        index_build_s,
    })
}

/// The measured phase with tracing off.
pub fn measure(setup: &mut LibSetup, env: &Env, seconds: f64) -> Phase {
    let mut phase = Phase::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    loop {
        let i = setup.cursor.next_index();
        let t = Instant::now();
        let result = setup.detector.query(&env.list.texts[i]);
        let latency = t.elapsed();
        let ok = matches!(&result, Ok(r) if r.degraded.is_none() && env.answers[i].matches(r));
        phase.record(latency, ok);
        env.observe(i, ok);
        if start.elapsed() >= budget {
            break;
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// What one stepwise execution hands back besides the answer.
struct Stepwise {
    answer: Answer,
    vectors: usize,
    vector_nnz: usize,
    indexed: u64,
    unindexed: u64,
}

/// One query through the public pieces `QueryEngine::execute` is made of, in
/// its order, each under a span: `parse_and_bind` → `eval_set` →
/// `neighbor_vector` per candidate on the same source stack → `prepare` /
/// `score_slice` → `top_k`. Per-vector times go to `vector_ns`.
fn stepwise(
    graph: &HinGraph,
    source: &dyn VectorSource,
    text: &str,
    tracer: &mut Tracer,
    query: u32,
    vector_ns: &mut Vec<f64>,
) -> Result<Stepwise, EngineError> {
    let root = tracer.begin("engine.executor", NO_PARENT, query);

    let span = tracer.begin("hin-query", root, query);
    let bound = parse_and_bind(text, graph.schema())?;
    tracer.end(span);

    let budget = Budget::default();
    let mut ctx = ExecCtx::new(&budget);
    ctx.set_threads(1);

    let span = tracer.begin("engine.set_eval", root, query);
    ctx.set_phase(BudgetPhase::SetRetrieval);
    let candidates = eval_set(graph, source, &bound.candidate, &mut ctx)?;
    if candidates.is_empty() {
        return Err(EngineError::EmptyCandidateSet);
    }
    let reference = match &bound.reference {
        Some(r) => eval_set(graph, source, r, &mut ctx)?,
        None => candidates.clone(),
    };
    tracer.end(span);
    let same_sets = reference == candidates;

    let measure = MeasureKind::NetOut.instantiate();
    let mut vectors = 0;
    let mut vector_nnz = 0;
    // The Table 4 templates carry one feature path; the executor's combine
    // step is the identity for one path, so the last path's scores stand.
    let mut scores = Vec::new();
    for feature in &bound.features {
        let span = tracer.begin("engine.source", root, query);
        ctx.set_phase(BudgetPhase::Materialization);
        let mut materialize = |ids: &[VertexId], ctx: &mut ExecCtx| {
            ids.iter()
                .map(|&v| {
                    let t = Instant::now();
                    let phi = source.neighbor_vector(v, &feature.path, ctx)?;
                    vector_ns.push(t.elapsed().as_nanos() as f64);
                    vectors += 1;
                    vector_nnz += phi.nnz();
                    Ok((v, phi))
                })
                .collect::<Result<Vec<(VertexId, SparseVec)>, EngineError>>()
        };
        let cand_vecs = materialize(&candidates, &mut ctx)?;
        let ref_vecs = if same_sets {
            None
        } else {
            Some(materialize(&reference, &mut ctx)?)
        };
        tracer.end(span);
        let ref_vecs = ref_vecs.as_deref().unwrap_or(&cand_vecs);

        let span = tracer.begin("measures.prepare", root, query);
        ctx.set_phase(BudgetPhase::Scoring);
        let prepared = measure.prepare(ref_vecs)?;
        tracer.end(span);

        let span = tracer.begin("measures.score", root, query);
        scores = prepared.score_slice(&cand_vecs)?;
        tracer.end(span);
    }

    let span = tracer.begin("engine.topk", root, query);
    let zero_visibility = scores.iter().filter(|(_, s)| !s.is_finite()).count();
    let finite: Vec<(VertexId, f64)> = scores.into_iter().filter(|(_, s)| s.is_finite()).collect();
    let ranked = top_k(finite, bound.top, measure.order())
        .into_iter()
        .map(|(v, score)| (graph.vertex_name(v).to_string(), score.to_bits()))
        .collect();
    tracer.end(span);

    tracer.end(root);
    Ok(Stepwise {
        answer: Answer {
            candidates: candidates.len(),
            reference: reference.len(),
            zero_visibility,
            ranked,
        },
        vectors,
        vector_nnz,
        indexed: ctx.stats.indexed_count,
        unindexed: ctx.stats.unindexed_count,
    })
}

/// The measured phase with tracing on: every query runs twice, once through
/// `detector.query` (timed as a whole) and once stepwise under spans on a
/// source stack built the same way (with caches of its own, filled by the
/// same stream, so both see the same hits). The stepwise answer must be the
/// detector's bit for bit. Fills the layers' metrics.
pub fn measure_traced(
    kind: LibKind,
    setup: &mut LibSetup,
    env: &Env,
    seconds: f64,
    tracer: &mut Tracer,
    layer: &mut Metrics,
) -> Result<Phase, String> {
    let detector = &setup.detector;
    let graph = detector.graph();
    let twin_subpath = SubpathCache::with_budget_bytes(env.profile.subpath_cache_bytes);
    let twin_cache = VectorCache::new(env.profile.vector_cache_entries);
    let source: Box<dyn VectorSource + '_> = match kind {
        LibKind::Baseline => Box::new(TraversalSource::new(graph)),
        LibKind::Pm => Box::new(IndexedSource::new(
            graph,
            detector.index().expect("pm detector has an index"),
            "pm",
        )),
        LibKind::Cached => Box::new(CachedSource::new(
            Box::new(SubpathSource::new(
                Box::new(TraversalSource::new(graph)),
                &twin_subpath,
            )),
            &twin_cache,
        )),
    };
    let mut vector_ns = Vec::new();
    if kind == LibKind::Cached {
        // Replay the warm-up the detector's caches saw.
        let mut warm = Cursor::for_kind(kind, env);
        let mut scratch = Tracer::new();
        for _ in 0..env.profile.zipf_warmup {
            let text = &env.list.texts[warm.next_index()];
            stepwise(
                graph,
                source.as_ref(),
                text,
                &mut scratch,
                0,
                &mut vector_ns,
            )
            .map_err(|e| format!("warm-up: {text}: {e}"))?;
        }
        vector_ns.clear();
    }

    let subpath_before = detector.subpath_stats();
    let cache_before = detector.cache_stats();
    let mut phase = Phase::default();
    let mut whole_us = Vec::new();
    let (mut candidates, mut vectors, mut vector_nnz) = (Vec::new(), 0usize, 0usize);
    let (mut indexed, mut unindexed, mut frontier_peak) = (0u64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut op = 0u32;
    loop {
        let i = setup.cursor.next_index();
        let text = &env.list.texts[i];
        let run_whole = || {
            let t = Instant::now();
            let result = detector.query(text);
            (result, t.elapsed())
        };
        let mut run_steps = || stepwise(graph, source.as_ref(), text, tracer, op, &mut vector_ns);
        // Whichever runs second finds the processor's caches warm; take
        // turns so neither side keeps the advantage.
        let ((whole, latency), steps) = if op.is_multiple_of(2) {
            let whole = run_whole();
            (whole, run_steps())
        } else {
            let steps = run_steps();
            (run_whole(), steps)
        };
        phase.record(latency, true);
        whole_us.push(*phase.latencies_us.last().expect("recorded"));
        let ok = match (&whole, &steps) {
            (Ok(w), Ok(s)) => {
                candidates.push(s.answer.candidates as f64);
                vectors += s.vectors;
                vector_nnz += s.vector_nnz;
                indexed += s.indexed;
                unindexed += s.unindexed;
                frontier_peak = frontier_peak.max(w.stats.peak_frontier_nnz);
                w.degraded.is_none() && env.answers[i].matches(w) && s.answer == env.answers[i]
            }
            _ => false,
        };
        if !ok {
            phase.failed += 1;
        }
        env.observe(i, ok);
        op += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();

    // Layer self times per query, from the spans.
    let own = tracer.self_times_ns();
    let by_name = |name: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect()
    };
    let root_us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "engine.executor")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let parse = by_name("hin-query");
    let set_eval = by_name("engine.set_eval");
    let materialize = by_name("engine.source");
    let prepare = by_name("measures.prepare");
    let score = by_name("measures.score");
    let topk = by_name("engine.topk");
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let whole_total = sum(&whole_us);
    let layers_total =
        sum(&parse) + sum(&set_eval) + sum(&materialize) + sum(&prepare) + sum(&score) + sum(&topk);
    let ops = op as f64;

    layer.set("query.parse_bind_us_p50", median(&parse));
    layer.set("query.parse_bind_share", ratio(sum(&parse), whole_total));
    layer.set("graph.frontier_nnz_peak", frontier_peak as f64);
    layer.set("set_eval.us_p50", median(&set_eval));
    layer.set("set_eval.candidates_mean", mean(&candidates));
    layer.set("set_eval.candidates_p95", quantile(&candidates, 0.95));
    layer.set("set_eval.share", ratio(sum(&set_eval), whole_total));
    layer.set("source.materialize_us_p50", median(&vector_ns) / 1e3);
    layer.set("source.vectors_per_query", vectors as f64 / ops);
    layer.set(
        "source.nnz_per_vector_mean",
        ratio(vector_nnz as f64, vectors as f64),
    );
    layer.set("source.indexed_count", indexed as f64 / ops);
    layer.set("source.unindexed_count", unindexed as f64 / ops);
    layer.set("source.share", ratio(sum(&materialize), whole_total));
    layer.set("measure.prepare_us_p50", median(&prepare));
    layer.set(
        "measure.score_ns_per_candidate",
        ratio(sum(&score) * 1e3, sum(&candidates)),
    );
    layer.set(
        "measure.share",
        ratio(sum(&prepare) + sum(&score), whole_total),
    );
    layer.set("topk.us_p50", median(&topk));
    // What `detector.query` spends that no layer's span accounts for. The
    // stepwise run's own glue is the benchmark's, not the program's, and is
    // left out of the layer sum.
    let unattributed: Vec<f64> = (0..whole_us.len())
        .map(|q| {
            whole_us[q]
                - (parse[q] + set_eval[q] + materialize[q] + prepare[q] + score[q] + topk[q])
        })
        .collect();
    layer.set("executor.unattributed_us_p50", median(&unattributed));
    layer.set("executor.layer_sum_ratio", ratio(layers_total, whole_total));
    layer.set(
        "bench.trace_overhead_share",
        ratio(sum(&root_us) - whole_total, whole_total),
    );

    if let (Some(before), Some(after)) = (subpath_before, detector.subpath_stats()) {
        let delta = after.since(&before);
        layer.set(
            "subpath.hit_ratio",
            ratio(delta.hits as f64, (delta.hits + delta.misses) as f64),
        );
        layer.set("subpath.prefix_hits", delta.prefix_hits as f64 / ops);
        layer.set("subpath.admitted", delta.admitted as f64 / ops);
        layer.set("subpath.rejected", delta.rejected as f64 / ops);
        layer.set("subpath.evictions", delta.evictions as f64 / ops);
        layer.set("subpath.bytes_resident", delta.bytes_resident as f64);
    }
    if let (Some(before), Some(after), Some(cache)) = (
        cache_before,
        detector.cache_stats(),
        detector.shared_cache(),
    ) {
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        layer.set(
            "cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        layer.set("cache.size_bytes", cache.size_bytes() as f64);
        layer.set("cache.entries", cache.len() as f64);
    }
    Ok(phase)
}

//! Property-based tests over randomly generated networks: every execution
//! strategy must agree, the Equation (1) rewrite must match the naive
//! definition, and the meta-path algebra must satisfy its laws.

use hin_datagen::dblp::{generate, SyntheticConfig};
use hin_datagen::toy;
use hin_datagen::workload::{generate_queries, QueryTemplate};
use hin_graph::{traverse, MetaPath, SparseVec, VertexId};
use hin_query::validate::parse_and_bind;
use netout::engine::index::{ChunkSelection, PmIndex};
use netout::engine::source::{IndexedSource, TraversalSource, VectorSource};
use netout::measures::netout::{netout_scores_naive, NetOut};
use netout::measures::OutlierMeasure;
use netout::{
    Budget, BudgetLimit, EngineError, ExecCtx, IndexPolicy, OutlierDetector, SubpathCache,
    SubpathSource,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Baseline, PM, and SPM produce identical rankings and scores on arbitrary
/// seeds and templates.
#[test]
fn strategies_agree_across_seeds_and_templates() {
    for seed in [1u64, 17, 3000] {
        let net = generate(&SyntheticConfig::tiny(seed));
        let baseline = OutlierDetector::new(net.graph.clone());
        let pm = OutlierDetector::with_index(net.graph.clone(), IndexPolicy::full()).unwrap();
        for template in QueryTemplate::ALL {
            let queries = generate_queries(&net.graph, template, 6, seed ^ 0xbeef);
            let spm = OutlierDetector::with_index(
                net.graph.clone(),
                IndexPolicy::selective(queries.clone(), 0.1),
            )
            .unwrap();
            for q in &queries {
                let bound = parse_and_bind(q, net.graph.schema()).unwrap();
                let rb = baseline.execute(&bound).unwrap();
                let rp = pm.execute(&bound).unwrap();
                let rs = spm.execute(&bound).unwrap();
                assert_eq!(rb.names(), rp.names(), "PM diverged on {q}");
                assert_eq!(rb.names(), rs.names(), "SPM diverged on {q}");
                for ((b, p), s) in rb.ranked.iter().zip(&rp.ranked).zip(&rs.ranked) {
                    assert!((b.score - p.score).abs() < 1e-9);
                    assert!((b.score - s.score).abs() < 1e-9);
                }
            }
        }
    }
}

/// Chunked evaluation as the engine did it before frontiers were scattered,
/// kept as the reference: seed the first chunk, then per later chunk copy
/// every frontier vertex's row, scale it, fold it into the running sum with
/// `add_assign`, and show the sum's `nnz` to the budget after each vertex.
/// `row` supplies one chunk's vector for one vertex (and runs whatever budget
/// checks producing it costs).
fn fold_reference(
    path: &MetaPath,
    v: VertexId,
    ctx: &mut ExecCtx,
    row: &mut dyn FnMut(VertexId, &MetaPath, &mut ExecCtx) -> Result<SparseVec, EngineError>,
) -> Result<SparseVec, EngineError> {
    let chunks = path.decompose_pairs();
    let mut frontier = row(v, &chunks[0], ctx)?;
    for chunk in &chunks[1..] {
        if frontier.is_empty() {
            break;
        }
        ctx.check_frontier(frontier.nnz())?;
        let mut acc = SparseVec::new();
        for (u, w) in frontier.iter() {
            let mut phi = row(u, chunk, ctx)?;
            phi.scale(w);
            acc.add_assign(&phi);
            ctx.check_frontier(acc.nnz())?;
        }
        frontier = acc;
    }
    ctx.check_frontier(frontier.nnz())?;
    Ok(frontier)
}

/// What one materialization came to, comparable bit for bit: the vector,
/// or which limit fired at which observed value; and what the budget saw on
/// the way (the largest frontier and the number of checkpoints).
type Outcome = (Result<Vec<(VertexId, u64)>, (BudgetLimit, u64)>, u64, u64);

fn outcome(result: Result<SparseVec, EngineError>, ctx: &ExecCtx) -> Outcome {
    let result = match result {
        Ok(phi) => Ok(phi.iter().map(|(v, x)| (v, x.to_bits())).collect()),
        Err(EngineError::BudgetExceeded {
            limit, observed, ..
        }) => Err((limit, observed)),
        Err(other) => panic!("unexpected error {other:?}"),
    };
    (
        result,
        ctx.stats.peak_frontier_nnz,
        ctx.stats.budget_checks(),
    )
}

/// Length-3/4/5 meta-paths through full PM, a partially covering SPM index
/// and the sub-path source equal traversal bit for bit, and under a frontier
/// cap each fails exactly where — `limit`, `observed` — the fold did.
#[test]
fn scattered_frontiers_equal_the_fold_and_traversal_bit_for_bit() {
    let net = generate(&SyntheticConfig::tiny(7));
    let g = &net.graph;
    let pm = PmIndex::build_full(g, ChunkSelection::All, 1);
    let init: Vec<String> = QueryTemplate::ALL
        .into_iter()
        .flat_map(|t| generate_queries(g, t, 6, 0xfeed))
        .collect();
    let spm_detector = OutlierDetector::with_index(
        g.clone(),
        IndexPolicy::Selective {
            selection: Some(ChunkSelection::All),
            threshold: 0.15,
            init_queries: init,
            threads: 1,
        },
    )
    .unwrap();
    let spm = spm_detector.index().unwrap();
    let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
    let authors = g.count_of_type(apv.source_type());
    let covered = spm.rows_for(&apv).unwrap();
    assert!(0 < covered && covered < authors, "{covered} of {authors}");

    let traversal = TraversalSource::new(g);
    let mut capped_failures = 0;
    for spec in [
        "author.paper.venue.paper",
        "author.paper.venue.paper.author",
        "author.paper.author.paper.author",
        "author.paper.term.paper.venue",
        "author.paper.venue.paper.author.paper",
        "venue.paper.author.paper.term.paper",
    ] {
        let path = MetaPath::parse(spec, g.schema()).unwrap();
        let starts = g.vertices_of_type(path.source_type());
        for &v in starts.iter().step_by(starts.len().div_ceil(5)) {
            let want: Vec<_> = traverse::neighbor_vector(g, v, &path)
                .unwrap()
                .iter()
                .map(|(u, x)| (u, x.to_bits()))
                .collect();
            for cap in [None, Some(1), Some(6), Some(30), Some(150), Some(600)] {
                let budget =
                    cap.map_or_else(Budget::default, |c| Budget::default().with_max_nnz(c));
                let mut outcomes = Vec::new();
                for (name, index) in [("pm", &pm), ("spm", spm)] {
                    let mut ctx = ExecCtx::new(&budget);
                    let got =
                        IndexedSource::new(g, index, name).neighbor_vector(v, &path, &mut ctx);
                    let got = outcome(got, &ctx);
                    let mut ctx = ExecCtx::new(&budget);
                    let fold = fold_reference(&path, v, &mut ctx, &mut |u, chunk, ctx| match index
                        .row(chunk, u)
                    {
                        Some(row) => Ok(row),
                        None => traversal.neighbor_vector(u, chunk, ctx),
                    });
                    assert_eq!(got, outcome(fold, &ctx), "{name} {spec} {v:?} cap {cap:?}");
                    outcomes.push(got);
                }

                // The sub-path source over traversal, cold: a chunk product
                // asked for twice in one evaluation is served from the cache
                // the second time, which replays the peak its computation
                // showed the budget instead of the computation.
                let cache = SubpathCache::with_budget_mb(16);
                let source = SubpathSource::new(Box::new(TraversalSource::new(g)), &cache);
                let mut ctx = ExecCtx::new(&budget);
                let got = source.neighbor_vector(v, &path, &mut ctx);
                let got = outcome(got, &ctx);
                let mut memo: HashMap<(MetaPath, VertexId), (SparseVec, usize)> = HashMap::new();
                let mut ctx = ExecCtx::new(&budget);
                let fold = fold_reference(&path, v, &mut ctx, &mut |u, chunk, ctx| {
                    if chunk.len() < 2 {
                        return traversal.neighbor_vector(u, chunk, ctx);
                    }
                    if let Some((phi, peak)) = memo.get(&(chunk.clone(), u)) {
                        ctx.check_frontier(*peak)?;
                        return Ok(phi.clone());
                    }
                    let phi = traversal.neighbor_vector(u, chunk, ctx)?;
                    let mut probe = ExecCtx::unbounded();
                    traversal.neighbor_vector(u, chunk, &mut probe)?;
                    let peak = probe.stats.peak_frontier_nnz as usize;
                    memo.insert((chunk.clone(), u), (phi.clone(), peak));
                    Ok(phi)
                });
                assert_eq!(got, outcome(fold, &ctx), "subpath {spec} {v:?} cap {cap:?}");
                outcomes.push(got);

                for (result, _, _) in outcomes {
                    match result {
                        Ok(bits) => assert_eq!(bits, want, "{spec} {v:?} cap {cap:?}"),
                        Err((limit, observed)) => {
                            assert_eq!(limit, BudgetLimit::FrontierNnz);
                            assert!(observed > cap.unwrap() as u64);
                            capped_failures += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        capped_failures > 50,
        "the caps must bite: {capped_failures}"
    );
}

/// NetOut through the executor (Equation (1): scattered reference sum,
/// gathered candidate dots) equals the literal Definition 10 double loop on
/// the Table 1 network, with the same bits on 1, 2 and 7 threads and with or
/// without the index.
#[test]
fn executor_netout_matches_naive_on_table1_across_thread_counts() {
    let g = toy::table1_network();
    let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
    let vectors: Vec<(VertexId, SparseVec)> = g
        .vertices_of_type(apv.source_type())
        .iter()
        .map(|&a| (a, traverse::neighbor_vector(&g, a, &apv).unwrap()))
        .collect();
    let reference: Vec<_> = vectors
        .iter()
        .filter(|(a, _)| g.vertex_name(*a).starts_with("ref_"))
        .cloned()
        .collect();
    assert_eq!((vectors.len(), reference.len()), (105, 100));
    let naive: HashMap<&str, f64> = netout_scores_naive(&vectors, &reference)
        .into_iter()
        .map(|(a, omega)| (g.vertex_name(a), omega))
        .collect();

    let mut fingerprints = Vec::new();
    for threads in [1, 2, 7] {
        for detector in [
            OutlierDetector::new(g.clone()),
            OutlierDetector::with_index(g.clone(), IndexPolicy::full()).unwrap(),
        ] {
            let result = detector
                .with_threads(threads)
                .query(&toy::table1_query())
                .unwrap();
            assert_eq!(result.ranked.len(), 105);
            for row in &result.ranked {
                let want = naive[row.name.as_str()];
                assert!(
                    (row.score - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "{}: {} vs naive {want}",
                    row.name,
                    row.score
                );
            }
            fingerprints.push(
                result
                    .ranked
                    .iter()
                    .map(|row| (row.name.clone(), row.score.to_bits()))
                    .collect::<Vec<_>>(),
            );
        }
    }
    assert!(fingerprints.windows(2).all(|w| w[0] == w[1]));
}

/// Strategy for small sparse vectors.
fn sparse_vec_strategy() -> impl Strategy<Value = SparseVec> {
    proptest::collection::vec((0u32..64, 0.0f64..50.0), 0..12)
        .prop_map(|pairs| pairs.into_iter().map(|(i, x)| (VertexId(i), x)).collect())
}

fn vector_set_strategy(max: usize) -> impl Strategy<Value = Vec<(VertexId, SparseVec)>> {
    proptest::collection::vec(sparse_vec_strategy(), 1..max).prop_map(|vecs| {
        vecs.into_iter()
            .enumerate()
            .map(|(i, phi)| (VertexId(1000 + i as u32), phi))
            .collect()
    })
}

proptest! {
    /// Equation (1) equals the literal Definition 10 double loop.
    #[test]
    fn netout_eq1_matches_naive(
        candidates in vector_set_strategy(12),
        reference in vector_set_strategy(12),
    ) {
        let fast = NetOut.scores(&candidates, &reference).unwrap();
        let slow = netout_scores_naive(&candidates, &reference);
        for ((v1, a), (v2, b)) in fast.iter().zip(&slow) {
            prop_assert_eq!(v1, v2);
            if a.is_finite() || b.is_finite() {
                prop_assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0),
                    "fast {} vs naive {}", a, b);
            }
        }
    }

    /// κ(v, v) = 1 whenever visibility is positive: a candidate that also
    /// sits alone in the reference set scores exactly 1.
    #[test]
    fn netout_self_reference_is_one(phi in sparse_vec_strategy()) {
        prop_assume!(!phi.is_empty());
        let set = vec![(VertexId(1), phi)];
        let scores = NetOut.scores(&set, &set).unwrap();
        prop_assert!((scores[0].1 - 1.0).abs() < 1e-12);
    }

    /// Sparse vector laws: dot symmetry, Cauchy–Schwarz, distance axioms.
    #[test]
    fn sparse_vector_laws(a in sparse_vec_strategy(), b in sparse_vec_strategy()) {
        prop_assert_eq!(a.dot(&b), b.dot(&a));
        let cs = a.dot(&b);
        prop_assert!(cs * cs <= a.norm2_sq() * b.norm2_sq() * (1.0 + 1e-9));
        prop_assert!(a.dist2_sq(&b) >= 0.0);
        prop_assert_eq!(a.dist2_sq(&a), 0.0);
        // ‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b
        let expanded = a.norm2_sq() + b.norm2_sq() - 2.0 * cs;
        prop_assert!((a.dist2_sq(&b) - expanded).abs() < 1e-6 * expanded.abs().max(1.0));
    }

    /// add_assign agrees with entry-wise addition.
    #[test]
    fn sparse_add_assign_law(a in sparse_vec_strategy(), b in sparse_vec_strategy()) {
        let mut sum = a.clone();
        sum.add_assign(&b);
        for v in (0u32..64).map(VertexId) {
            let want = a.get(v) + b.get(v);
            prop_assert!((sum.get(v) - want).abs() < 1e-12);
        }
    }
}

/// Meta-path algebra laws on the bibliographic schema.
#[test]
fn metapath_algebra_laws() {
    let schema = hin_graph::bibliographic_schema();
    let paths = [
        "author.paper",
        "author.paper.venue",
        "author.paper.author",
        "venue.paper.term",
        "author.paper.venue.paper.author",
    ];
    for p in paths {
        let mp = MetaPath::parse(p, &schema).unwrap();
        // Reversal is an involution.
        assert_eq!(mp.reversed().reversed(), mp);
        // Symmetrization is symmetric and starts/ends at the source type.
        let sym = mp.symmetric();
        assert!(sym.is_symmetric());
        assert_eq!(sym.source_type(), mp.source_type());
        assert_eq!(sym.target_type(), mp.source_type());
        assert_eq!(sym.len(), 2 * mp.len());
        // Decomposition reassembles to the original.
        let rebuilt = mp
            .decompose_pairs()
            .into_iter()
            .reduce(|a, b| a.concat(&b).unwrap());
        assert_eq!(rebuilt.unwrap(), mp);
    }
}

/// On real traversals, connectivity is symmetric (χ(u,v) = χ(v,u)) and
/// normalized connectivity respects the definition κ = χ/χ_self.
#[test]
fn connectivity_laws_on_synthetic_network() {
    let net = generate(&SyntheticConfig::tiny(99));
    let g = &net.graph;
    let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
    let author_t = g.schema().vertex_type_by_name("author").unwrap();
    let authors = g.vertices_of_type(author_t);
    let sample: Vec<_> = authors.iter().step_by(37).take(8).copied().collect();
    for &u in &sample {
        for &v in &sample {
            let chi_uv = traverse::connectivity(g, u, v, &apv).unwrap();
            let chi_vu = traverse::connectivity(g, v, u, &apv).unwrap();
            assert_eq!(chi_uv, chi_vu);
            let vis = traverse::visibility(g, u, &apv).unwrap();
            match traverse::normalized_connectivity(g, u, v, &apv).unwrap() {
                Some(kappa) => assert!((kappa - chi_uv / vis).abs() < 1e-12),
                None => assert_eq!(vis, 0.0),
            }
        }
    }
}

//! Layer measurements that replay inputs outside the measured phase: the
//! sparse kernels of `hin-graph`, the PM index, and the wire protocol. Each
//! takes a fixed sample of the run's own inputs, so the counts repeat.

use crate::libload::{LibKind, LibSetup};
use crate::metrics::Metrics;
use crate::run::Env;
use crate::util::{median, ratio};
use hin_graph::{traverse, DenseAccumulator, HinGraph, MetaPath, SparseVec, VertexId};
use hin_query::validate::{parse_and_bind, BoundSetExpr};
use hin_service::json;
use hin_service::protocol::{Request, Response, ResultBody};
use netout::engine::index::PmIndex;
use netout::{OutlierDetector, QueryResult};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Queries of the list whose candidates are replayed.
const REPLAY_QUERIES: usize = 45;
/// Queries of the list replayed through the cheap per-line layers.
pub const LINE_REPLAY_QUERIES: usize = 4 * REPLAY_QUERIES;

/// The anchored walk and feature path of a Table 4 query, with its candidate
/// set: what the engine materializes for it.
struct Replay {
    anchor: VertexId,
    walk: MetaPath,
    feature: MetaPath,
    candidates: Vec<VertexId>,
}

fn replays(graph: &HinGraph, env: &Env) -> Result<Vec<Replay>, String> {
    env.list.texts[..env.list.len().min(REPLAY_QUERIES)]
        .iter()
        .map(|text| {
            let bound = parse_and_bind(text, graph.schema()).map_err(|e| e.to_string())?;
            let (BoundSetExpr::Primary(p), [feature]) = (&bound.candidate, &bound.features[..])
            else {
                return Err(format!("not a Table 4 query: {text}"));
            };
            let anchor = graph
                .vertex_by_name(p.anchor_type(), &p.anchor_name)
                .ok_or_else(|| format!("unknown anchor: {text}"))?;
            let candidates =
                traverse::neighborhood(graph, anchor, &p.path).map_err(|e| e.to_string())?;
            Ok(Replay {
                anchor,
                walk: p.path.clone(),
                feature: feature.path.clone(),
                candidates,
            })
        })
        .collect()
}

/// Edges a traversal of `path` from `v` scans: Σ `step_degree` over every
/// frontier vertex of every hop.
fn edges_scanned(graph: &HinGraph, v: VertexId, path: &MetaPath, ws: &mut DenseAccumulator) -> u64 {
    let mut frontier = SparseVec::unit(v);
    let mut edges = 0u64;
    for link in path.types().windows(2) {
        edges += frontier
            .iter()
            .map(|(u, _)| graph.step_degree(u, link[1]) as u64)
            .sum::<u64>();
        frontier = traverse::propagate_step_with(graph, &frontier, link[1], ws);
    }
    edges
}

/// `hin-graph`: traversal and dot-product kernels on the vectors the first
/// queries of the list need.
fn graph_kernels(graph: &HinGraph, replays: &[Replay], layer: &mut Metrics) {
    let mut ws = DenseAccumulator::new();
    // `edges` counts every traversal a query needs (anchor walk included);
    // `timed_edges` only those of the vectors timed below.
    let (mut edges, mut timed_edges, mut traverse_ns) = (0u64, 0u64, 0.0);
    let mut per_vector_us = Vec::new();
    let (mut dot_ns, mut dot_nnz) = (0.0, 0usize);
    for r in replays {
        edges += edges_scanned(graph, r.anchor, &r.walk, &mut ws);
        let mut previous: Option<SparseVec> = None;
        for &v in &r.candidates {
            let scanned = edges_scanned(graph, v, &r.feature, &mut ws);
            edges += scanned;
            timed_edges += scanned;
            let t = Instant::now();
            let phi = traverse::neighbor_vector_with(graph, v, &r.feature, &mut ws)
                .expect("candidates start the feature path");
            let ns = t.elapsed().as_nanos() as f64;
            traverse_ns += ns;
            per_vector_us.push(ns / 1e3);
            if let Some(prev) = &previous {
                let t = Instant::now();
                black_box(black_box(prev).dot(black_box(&phi)));
                dot_ns += t.elapsed().as_nanos() as f64;
                dot_nnz += prev.nnz() + phi.nnz();
            }
            previous = Some(phi);
        }
    }
    layer.set(
        "graph.propagate_ns_per_edge",
        ratio(traverse_ns, timed_edges as f64),
    );
    layer.set(
        "graph.edges_scanned_per_query",
        ratio(edges as f64, replays.len() as f64),
    );
    layer.set("graph.traverse_us_per_vector_p50", median(&per_vector_us));
    layer.set("graph.dot_ns_per_nnz", ratio(dot_ns, dot_nnz as f64));
}

/// `engine.index`: what building the PM index cost and what it holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexFacts {
    build_s: f64,
    bytes: usize,
    rows: usize,
    nnz: usize,
}

impl IndexFacts {
    pub fn of(index: &PmIndex, build_s: f64) -> IndexFacts {
        IndexFacts {
            build_s,
            bytes: index.size_bytes(),
            rows: index.total_rows(),
            nnz: index.nnz(),
        }
    }

    pub fn report(&self, layer: &mut Metrics) {
        layer.set("index.build_s", self.build_s);
        layer.set("index.bytes", self.bytes as f64);
        layer.set("index.rows", self.rows as f64);
        layer.set("index.nnz", self.nnz as f64);
    }
}

/// The time to fetch the row of a candidate's first chunk.
fn index_row_fetch(index: &PmIndex, replays: &[Replay], layer: &mut Metrics) {
    let mut fetch_ns = Vec::new();
    for r in replays {
        let Some(chunk) = r.feature.decompose_pairs().into_iter().next() else {
            continue;
        };
        for &v in &r.candidates {
            let t = Instant::now();
            black_box(index.row(black_box(&chunk), v));
            fetch_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    layer.set("index.row_fetch_ns_p50", median(&fetch_ns));
}

/// The replays of the in-process workloads' traced runs.
pub fn lib_replays(
    kind: LibKind,
    setup: &LibSetup,
    env: &Env,
    layer: &mut Metrics,
) -> Result<(), String> {
    let graph = setup.detector.graph();
    match kind {
        LibKind::Baseline => graph_kernels(graph, &replays(graph, env)?, layer),
        LibKind::Pm => {
            let index = setup.detector.index().expect("pm detector has an index");
            IndexFacts::of(index, setup.index_build_s).report(layer);
            index_row_fetch(index, &replays(graph, env)?, layer);
            // The Fig. 3 shape: the same queries, Baseline time over PM time.
            let baseline = OutlierDetector::new(graph.clone()).with_threads(1);
            let total_us = |detector| -> Result<f64, String> {
                Ok(in_process_head(detector, env, REPLAY_QUERIES)?
                    .1
                    .iter()
                    .sum())
            };
            layer.set(
                "fig3.pm_speedup",
                ratio(total_us(&baseline)?, total_us(&setup.detector)?),
            );
        }
        LibKind::Cached => {}
    }
    Ok(())
}

/// In-process `detector.query` over the first `n` queries of the list: the
/// results and each one's latency in µs.
pub fn in_process_head(
    detector: &OutlierDetector,
    env: &Env,
    n: usize,
) -> Result<(Vec<QueryResult>, Vec<f64>), String> {
    let mut results = Vec::new();
    let mut us = Vec::new();
    for text in &env.list.texts[..env.list.len().min(n)] {
        let t = Instant::now();
        let r = detector.query(text).map_err(|e| format!("{text}: {e}"))?;
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        results.push(r);
    }
    Ok((results, us))
}

/// `hin-query` alone, on served workloads where it runs inside the server.
pub fn parse_bind_replay(graph: &HinGraph, env: &Env, layer: &mut Metrics) {
    let us: Vec<f64> = env.list.texts[..env.list.len().min(LINE_REPLAY_QUERIES)]
        .iter()
        .map(|text| {
            let t = Instant::now();
            black_box(parse_and_bind(black_box(text), graph.schema()).ok());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    layer.set("query.parse_bind_us_p50", median(&us));
}

/// `service.protocol`: captured request lines through `Request::parse`,
/// in-process results through `Response::to_json_line`, captured response
/// (or shard) lines through `json::parse_value`.
pub fn protocol_replays(
    requests: &[String],
    results: &[QueryResult],
    responses: &[String],
    shard_lines: &[String],
    layer: &mut Metrics,
) {
    let parse_ns: Vec<f64> = requests
        .iter()
        .map(|line| {
            let t = Instant::now();
            black_box(Request::parse(black_box(line.trim_end())).ok());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    layer.set("protocol.request_parse_ns_p50", median(&parse_ns));

    let encode_us: Vec<f64> = results
        .iter()
        .map(|r| {
            let t = Instant::now();
            let body = ResultBody::from_query_result(black_box(r), Duration::from_micros(100));
            black_box(Response::Result(body).to_json_line());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    layer.set("protocol.response_encode_us_p50", median(&encode_us));

    let mean_len = |lines: &[String]| {
        ratio(
            lines.iter().map(String::len).sum::<usize>() as f64,
            lines.len() as f64,
        )
    };
    layer.set("protocol.response_bytes_mean", mean_len(responses));
    layer.set("protocol.shard_bytes_mean", mean_len(shard_lines));

    // What the coordinator parses is shard bodies; a single server's wire is
    // only ever parsed by clients, so its result lines stand in.
    let parsed = if shard_lines.is_empty() {
        responses
    } else {
        shard_lines
    };
    let value_us: Vec<f64> = parsed
        .iter()
        .map(|line| {
            let t = Instant::now();
            black_box(json::parse_value(black_box(line)).ok());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    layer.set("json.parse_value_us_p50", median(&value_us));
}

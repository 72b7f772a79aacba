//! Intra-query parallel scaling (extension; backs the DESIGN.md §10
//! parallel-execution claims).
//!
//! Runs one NetOut Q1 workload over the synthetic DBLP network per thread
//! count through [`OutlierDetector::with_threads`], recording workload
//! latency and whether the ranked results (ids, score bits, zero-visibility
//! sets) are identical to the single-threaded run. They must be: sharding
//! is deterministic and merges preserve candidate order.
//!
//! The sparse propagation kernel itself is pinned by `hinbench`
//! (`graph.propagate_ns_per_edge`), not here.
//!
//! Results are printed as a table and written to `BENCH_parallel.json`.

use crate::report::Table;
use crate::setup;
use hin_datagen::dblp::SyntheticNetwork;
use hin_datagen::workload::{generate_queries, QueryTemplate};
use hin_graph::VertexId;
use hin_query::validate::{parse_and_bind, BoundQuery};
use netout::{OutlierDetector, QueryResult};
use serde::Serialize;
use std::time::Instant;

/// One thread-count measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadPoint {
    /// Worker threads each query ran with.
    pub threads: usize,
    /// Whole-workload wall time in milliseconds.
    pub total_ms: f64,
    /// Mean per-query latency in microseconds.
    pub mean_query_us: u64,
    /// Whether every result was bit-identical to the 1-thread run.
    pub identical: bool,
}

/// The `BENCH_parallel.json` document.
#[derive(Debug, Serialize)]
pub struct ParallelReport {
    /// Network scale factor the experiment ran at.
    pub scale: f64,
    /// Queries in the thread-sweep workload.
    pub queries: usize,
    /// One entry per thread count.
    pub threads: Vec<ThreadPoint>,
}

/// Everything about a [`QueryResult`] that must be invariant under thread
/// count: set sizes, the zero-visibility list, and the exact ranked order
/// with bit-exact scores. Timing stats are deliberately excluded.
fn fingerprint(r: &QueryResult) -> (usize, usize, Vec<VertexId>, Vec<(VertexId, u64)>) {
    (
        r.candidate_count,
        r.reference_count,
        r.zero_visibility.clone(),
        r.ranked
            .iter()
            .map(|o| (o.vertex, o.score.to_bits()))
            .collect(),
    )
}

/// Run the bound workload once per thread count; the first count is the
/// baseline every later run is fingerprint-compared against.
pub fn measure_threads(
    net: &SyntheticNetwork,
    bound: &[BoundQuery],
    thread_counts: &[usize],
) -> Vec<ThreadPoint> {
    let mut baseline: Option<Vec<_>> = None;
    thread_counts
        .iter()
        .map(|&threads| {
            let detector = OutlierDetector::new(net.graph.clone()).with_threads(threads);
            let t = Instant::now();
            let prints: Vec<_> = bound
                .iter()
                .map(|q| fingerprint(&detector.execute(q).expect("workload query executes")))
                .collect();
            let total = t.elapsed();
            let identical = match &baseline {
                Some(b) => *b == prints,
                None => {
                    baseline = Some(prints);
                    true
                }
            };
            ThreadPoint {
                threads,
                total_ms: total.as_secs_f64() * 1e3,
                mean_query_us: (total.as_micros() as u64) / bound.len().max(1) as u64,
                identical,
            }
        })
        .collect()
}

/// Serialize the report document to compact JSON.
pub fn to_json(report: &ParallelReport) -> String {
    hin_service::json::to_string(report).expect("report serializes")
}

/// Print the sweep and write `BENCH_parallel.json`. `quick` shrinks the
/// workload and thread grid for CI smoke runs.
pub fn run(quick: bool) {
    let net = setup::network();
    let n = setup::workload_size().min(if quick { 12 } else { 100 });
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };

    let queries = generate_queries(&net.graph, QueryTemplate::Q1, n, setup::seed());
    let bound: Vec<_> = queries
        .iter()
        .map(|q| parse_and_bind(q, net.graph.schema()).expect("binds"))
        .collect();
    let threads = measure_threads(&net, &bound, thread_counts);
    let mut t = Table::new(
        format!("Intra-query scaling — Q1 workload of {n} queries"),
        &[
            "threads",
            "total (ms)",
            "mean query (µs)",
            "identical to 1T",
        ],
    );
    for p in &threads {
        t.row(&[
            p.threads.to_string(),
            format!("{:.2}", p.total_ms),
            p.mean_query_us.to_string(),
            p.identical.to_string(),
        ]);
    }
    t.print();
    println!(
        "note: candidates are sharded contiguously and shard results are \
         concatenated in shard order, so every thread count must reproduce \
         the 1-thread ranking bit for bit\n"
    );

    let report = ParallelReport {
        scale: setup::scale(),
        queries: n,
        threads,
    };
    let path = "BENCH_parallel.json";
    match std::fs::write(path, to_json(&report) + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hin_datagen::dblp::{generate, SyntheticConfig};

    #[test]
    fn thread_sweep_is_identical_across_counts() {
        let net = generate(&SyntheticConfig::tiny(3));
        let queries = generate_queries(&net.graph, QueryTemplate::Q1, 4, 3);
        let bound: Vec<_> = queries
            .iter()
            .map(|q| parse_and_bind(q, net.graph.schema()).expect("binds"))
            .collect();
        let points = measure_threads(&net, &bound, &[1, 2, 4]);
        assert_eq!(points.len(), 3);
        assert!(
            points.iter().all(|p| p.identical),
            "parallel run diverged: {points:?}"
        );
    }

    #[test]
    fn report_serializes() {
        let json = to_json(&ParallelReport {
            scale: 0.1,
            queries: 0,
            threads: vec![ThreadPoint {
                threads: 1,
                total_ms: 1.5,
                mean_query_us: 10,
                identical: true,
            }],
        });
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"identical\":true"), "{json}");
    }
}

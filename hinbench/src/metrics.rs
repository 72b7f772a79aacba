//! The metric vocabulary. `BENCHMARK.json` lists exactly these names; the
//! smoke test checks the two against each other.

use crate::util::{json_number, json_string};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off. Each bound is
/// three times the widest spread over ten seeds measured on any workload
/// (`baseline.json` and `results/`), rounded up; `setup_s` has the widest
/// bound the benchmark's contract allows.
pub const END_TO_END: &[MetricDef] = &[
    e2e("qps", "ops/s", Higher, 0.12),
    e2e("latency_p50_us", "us", Lower, 0.12),
    e2e("latency_p95_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.12),
];

/// One layer each; measured in the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    layer("datagen.generate_s", "s", Lower),
    layer("datagen.vertices", "count", Higher),
    layer("datagen.edges", "count", Higher),
    layer("datagen.graph_hash", "hash", Higher),
    layer("query.parse_bind_us_p50", "us", Lower),
    layer("query.parse_bind_share", "ratio", Lower),
    layer("graph.propagate_ns_per_edge", "ns", Lower),
    layer("graph.edges_scanned_per_query", "count", Lower),
    layer("graph.traverse_us_per_vector_p50", "us", Lower),
    layer("graph.frontier_nnz_peak", "count", Lower),
    layer("graph.dot_ns_per_nnz", "ns", Lower),
    layer("set_eval.us_p50", "us", Lower),
    layer("set_eval.candidates_mean", "count", Lower),
    layer("set_eval.candidates_p95", "count", Lower),
    layer("set_eval.share", "ratio", Lower),
    layer("source.materialize_us_p50", "us", Lower),
    layer("source.vectors_per_query", "count", Lower),
    layer("source.nnz_per_vector_mean", "count", Lower),
    layer("source.indexed_count", "1/op", Higher),
    layer("source.unindexed_count", "1/op", Lower),
    layer("source.share", "ratio", Lower),
    layer("index.build_s", "s", Lower),
    layer("index.bytes", "bytes", Lower),
    layer("index.rows", "count", Lower),
    layer("index.nnz", "count", Lower),
    layer("index.row_fetch_ns_p50", "ns", Lower),
    layer("subpath.hit_ratio", "ratio", Higher),
    layer("subpath.prefix_hits", "1/op", Higher),
    layer("subpath.admitted", "1/op", Lower),
    layer("subpath.rejected", "1/op", Lower),
    layer("subpath.evictions", "1/op", Lower),
    layer("subpath.bytes_resident", "bytes", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.size_bytes", "bytes", Lower),
    layer("cache.entries", "count", Lower),
    layer("measure.prepare_us_p50", "us", Lower),
    layer("measure.score_ns_per_candidate", "ns", Lower),
    layer("measure.share", "ratio", Lower),
    layer("topk.us_p50", "us", Lower),
    layer("executor.unattributed_us_p50", "us", Lower),
    layer("executor.layer_sum_ratio", "ratio", Higher),
    layer("snapshot.encode_s", "s", Lower),
    layer("snapshot.bytes", "bytes", Lower),
    layer("snapshot.load_ms", "ms", Lower),
    layer("protocol.request_parse_ns_p50", "ns", Lower),
    layer("protocol.response_encode_us_p50", "us", Lower),
    layer("protocol.response_bytes_mean", "bytes", Lower),
    layer("protocol.shard_bytes_mean", "bytes", Lower),
    layer("json.parse_value_us_p50", "us", Lower),
    layer("server.queue_wait_us_p50", "us", Lower),
    layer("server.queue_wait_us_p95", "us", Lower),
    layer("server.exec_us_p50", "us", Lower),
    layer("server.overhead_us_p50", "us", Lower),
    layer("server.rejected_busy", "count", Lower),
    layer("server.expired", "count", Lower),
    layer("server.degraded", "count", Lower),
    layer("server.cost_rejected", "count", Lower),
    layer("server.connections", "count", Lower),
    layer("coordinator.overhead_us_p50", "us", Lower),
    layer("coordinator.backend_connections_per_query", "1/op", Lower),
    layer("coordinator.failovers", "count", Lower),
    layer("coordinator.hedges", "count", Lower),
    layer("coordinator.breaker_fastfails", "count", Lower),
    layer("coordinator.busy_storms", "count", Lower),
    layer("coordinator.degraded", "count", Lower),
    layer("client.latency_p99_us", "us", Lower),
    layer("client.latency_mean_us", "us", Lower),
    layer("client.samples", "count", Higher),
    layer("client.peak_rss_end_mb", "MiB", Lower),
    layer("client.late_share", "ratio", Lower),
    layer("client.max_lateness_us", "us", Lower),
    layer("client.open.p95_us.r30", "us", Lower),
    layer("client.open.p95_us.r85", "us", Lower),
    layer("client.open.max_rate_in_limit_qps", "ops/s", Higher),
    layer("fig3.pm_speedup", "ratio", Higher),
    layer("serve.overhead_vs_lib_us_p50", "us", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("check.failed_share", "ratio", Lower),
    layer("check.oracle_queries", "count", Higher),
    layer("check.result_fingerprint", "hash", Higher),
];

/// Measured values by name. Setting a name that is not in the vocabulary is
/// a bug in the benchmark, caught the first time the code runs.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"));
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|(d, _)| d.name == name)
            .map_or(0.0, |(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (def, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_string(&mut out, def.name);
            out.push_str(": {\"value\": ");
            json_number(&mut out, value);
            out.push_str(", \"unit\": ");
            json_string(&mut out, def.unit);
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A 64-bit hash as a metric value: its low 48 bits, which a double holds
/// exactly.
pub fn hash_value(hash: u64) -> f64 {
    (hash & 0xffff_ffff_ffff) as f64
}

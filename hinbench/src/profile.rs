//! Everything that is frozen: the graph, the list sizes, the cache budgets,
//! the open-loop rates. A later change to this repository is measured against
//! exactly these inputs, so none of them is read from the environment.

use hin_datagen::dblp::SyntheticConfig;

/// What the frozen graph must regenerate to; `hinbench` refuses to report
/// when it does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    pub vertices: usize,
    pub edges: usize,
    pub graph_hash: u64,
}

#[derive(Debug, Clone)]
pub struct Profile {
    pub graph: SyntheticConfig,
    pub pinned: Option<Pinned>,
    /// Length of the `uniform` list (Q1/Q2/Q3 round-robin; per template one
    /// active author from each of `uniform_queries / 3` paper-count strata).
    pub uniform_queries: usize,
    /// Anchors (popularity ranks) the `zipf` stream draws from, one active
    /// author from each of this many paper-count strata. Three templates
    /// each, so the stream has `3 × zipf_anchors` distinct queries whose
    /// expected answers are computed before timing.
    pub zipf_anchors: usize,
    /// Draws of the `zipf` stream that fill the caches before measuring.
    pub zipf_warmup: usize,
    /// `M`: byte budget of the sub-path product cache on `lib_cached_zipf`.
    pub subpath_cache_bytes: usize,
    /// `C`: entry capacity of the whole-vector cache on `lib_cached_zipf`.
    pub vector_cache_entries: usize,
    /// Queries of the list run once, unmeasured, at the end of every set-up.
    pub warmup_queries: usize,
    /// Rounds of an untraced run: each a set-up and an equal share of the
    /// measured phase; every end-to-end metric is the median over them.
    pub rounds: usize,
    /// Threads `PmIndex::build_full` may use during set-up.
    pub index_build_threads: usize,
    /// `r30`/`r60`/`r85`: offered rates of `serve_pm_open`, requests per
    /// second over both connections. Frozen at about 30/60/85 % of what the
    /// open loop sustained (some 4 400 req/s) when the benchmark was sized;
    /// see README.md, "Departures", for why not of the closed loop's.
    pub open_rates_qps: [f64; 3],
    /// Latency limit on the open loop's p95, for `max_rate_in_limit`: 4 × the
    /// `serve_pm_closed` p95 (525 µs) when the benchmark was sized.
    pub open_latency_limit_us: f64,
    /// `timeout-ms=` carried by every open-loop request. Far above the
    /// latency limit: the deadline machinery runs on every request, and no
    /// request is meant to trip it.
    pub open_timeout_ms: u64,
    /// Queries checked against the oracle built from the simplest
    /// primitives, split evenly over the three templates.
    pub oracle_sample: usize,
}

impl Profile {
    /// The benchmark proper. `default().scaled(4.0)` with papers tripled and
    /// slightly denser papers (6 authors, 8 terms at most): density, not
    /// size, is what separates Baseline from PM (EXPERIMENTS.md).
    pub fn frozen() -> Profile {
        Profile {
            graph: SyntheticConfig {
                seed: 42,
                areas: 8,
                venues_per_area: 4,
                authors: 8_000,
                papers: 96_000,
                terms_per_area: 240,
                shared_terms: 480,
                max_authors_per_paper: 6,
                terms_per_paper: 8,
                outlier_fraction: 0.01,
                crossover_prob: 0.05,
                outlier_strength: 0.9,
            },
            pinned: Some(Pinned {
                vertices: 106_432,
                edges: 1_098_505,
                graph_hash: 0x157a_79ee_2069_d171,
            }),
            uniform_queries: 1_500,
            zipf_anchors: 500,
            zipf_warmup: 2_000,
            subpath_cache_bytes: 2 << 20,
            vector_cache_entries: 2_500,
            warmup_queries: 150,
            rounds: 5,
            index_build_threads: 2,
            open_rates_qps: [1_300.0, 2_600.0, 3_700.0],
            open_latency_limit_us: 2_100.0,
            open_timeout_ms: 250,
            oracle_sample: 60,
        }
    }

    /// `SyntheticConfig::tiny` with a few dozen operations per list: the
    /// smoke test's profile. No pin: it guards the code, not the numbers.
    pub fn tiny() -> Profile {
        Profile {
            graph: SyntheticConfig::tiny(7),
            pinned: None,
            uniform_queries: 45,
            zipf_anchors: 12,
            zipf_warmup: 30,
            subpath_cache_bytes: 16 << 10,
            vector_cache_entries: 40,
            warmup_queries: 9,
            rounds: 2,
            index_build_threads: 1,
            open_rates_qps: [100.0, 200.0, 300.0],
            open_latency_limit_us: 50_000.0,
            open_timeout_ms: 2_000,
            oracle_sample: 6,
        }
    }
}

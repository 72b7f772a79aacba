//! `hinbench` — the benchmark of the query-outlier-hin workspace.
//!
//! Six workloads over one frozen synthetic bibliographic graph, measured end
//! to end (query text in → verified ranked answer out) and layer by layer
//! from the outside: by timing calls into each crate's public functions and
//! by reading the counters the public API already returns. See `README.md`.

pub mod compare;
pub mod data;
pub mod layers;
pub mod libload;
pub mod metrics;
pub mod oracle;
pub mod profile;
pub mod run;
pub mod served;
pub mod trace;
pub mod util;

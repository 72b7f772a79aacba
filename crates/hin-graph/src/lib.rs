//! # hin-graph
//!
//! Data model for **heterogeneous information networks** (HINs) as defined in
//! *Kuck et al., "Query-Based Outlier Detection in Heterogeneous Information
//! Networks", EDBT 2015* (Definitions 1–7).
//!
//! A HIN is a directed multigraph `G = (V, E; φ, T)` where every vertex
//! carries a type drawn from a small closed [`Schema`]. Relationships between
//! vertices that are several hops apart are described by [`MetaPath`]s —
//! ordered sequences of vertex types — and quantified by counting *path
//! instantiations* (Definition 5).
//!
//! The crate provides:
//!
//! * [`Schema`] / [`SchemaBuilder`] — vertex and edge type declarations,
//!   with name-based lookup.
//! * [`HinGraph`] / [`GraphBuilder`] — compact CSR adjacency per
//!   `(edge type, direction)`, name interning, and per-type vertex indexes.
//! * [`Hop`] — one meta-path link resolved once ([`HinGraph::hop`]): the
//!   adjacency lists a vertex of one type follows to reach another type, as
//!   plain slices in a fixed visiting order. Loops over many vertices walk
//!   a hop; [`HinGraph::step_neighbors`] is the one-vertex convenience.
//! * [`MetaPath`] — the meta-path algebra: reversal, concatenation,
//!   symmetrization (Definitions 3–4), parsing from `"author.paper.venue"`
//!   notation, and schema validation.
//! * [`SparseVec`] / [`SparseMatrix`] — the sparse kernels used to count path
//!   instantiations (`Φ_P(v)` of Definition 7) and to materialize length-2
//!   meta-path relations (Section 6.2 of the paper).
//! * [`DenseAccumulator`] / [`PooledAccumulator`] — the scatter workspace of
//!   a propagation step, and the bounded process-wide free list warm ones
//!   are checked out of.
//! * [`traverse`] — neighbor-vector computation, neighborhoods, and pairwise
//!   path counting: one kernel ([`traverse::propagate_step_with`]) that
//!   walks a [`Hop`] per step and scatters into a workspace, so a step costs
//!   its edges. Frontier order and list order fix the per-id addition
//!   order, hence every bit of a neighbor vector.
//! * [`io`] / [`binio`] — text and compact binary persistence (with
//!   format auto-detection via [`binio::load_graph_auto`]).
//! * [`store`] — the column storage layer ([`Store`], [`GraphStore`],
//!   [`GraphColumns`]) that lets a graph be backed either by heap
//!   allocations or by borrowed views into a memory-mapped snapshot
//!   (see the `hin-snapshot` crate).
//!
//! ## Quickstart
//!
//! ```
//! use hin_graph::{SchemaBuilder, GraphBuilder, MetaPath};
//!
//! // The bibliographic schema of the paper: A, P, V, T.
//! let mut sb = SchemaBuilder::new();
//! let author = sb.vertex_type("author");
//! let paper = sb.vertex_type("paper");
//! let venue = sb.vertex_type("venue");
//! sb.edge_type("writes", author, paper);
//! sb.edge_type("published_in", paper, venue);
//! let schema = sb.build().unwrap();
//!
//! let mut gb = GraphBuilder::new(schema);
//! let ava = gb.add_vertex(author, "Ava").unwrap();
//! let p1 = gb.add_vertex(paper, "p1").unwrap();
//! let kdd = gb.add_vertex(venue, "KDD").unwrap();
//! gb.add_edge(ava, p1).unwrap();
//! gb.add_edge(p1, kdd).unwrap();
//! let graph = gb.build();
//!
//! let apv = MetaPath::parse("author.paper.venue", graph.schema()).unwrap();
//! let phi = hin_graph::traverse::neighbor_vector(&graph, ava, &apv).unwrap();
//! assert_eq!(phi.get(kdd), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Library code paths must report failures as `GraphError`, never panic;
// tests are free to unwrap. Intentional invariants carry local `#[allow]`s
// with a justification comment.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod binio;
mod error;
mod graph;
mod ids;
pub mod io;
mod metapath;
mod schema;
pub mod sparse;
pub mod stats;
pub mod store;
pub mod traverse;

pub use error::GraphError;
pub use graph::{EdgeRef, GraphBuilder, HinGraph, Hop, VertexRef};
pub use ids::{EdgeTypeId, VertexId, VertexTypeId};
pub use metapath::MetaPath;
pub use schema::{bibliographic_schema, EdgeTypeInfo, Schema, SchemaBuilder, VertexTypeInfo};
pub use sparse::{DenseAccumulator, PooledAccumulator, SparseMatrix, SparseVec};
pub use store::{ByteRegion, CsrStore, GraphColumns, GraphStore, HeapRegion, Pod, Store};

//! The heterogeneous information network itself: typed vertices, named
//! lookup, and per-edge-type CSR adjacency in both directions.
//!
//! All persistent columns live behind [`Store`]s, so a graph is either
//! heap-owned (built with [`GraphBuilder`]) or a zero-copy view into a
//! memory-mapped snapshot (reconstructed through [`HinGraph::from_store`],
//! which re-validates every structural invariant so the accessors below can
//! stay panic-free on well-typed ids).

use crate::error::GraphError;
use crate::ids::{EdgeTypeId, VertexId, VertexTypeId};
use crate::schema::Schema;
use crate::store::{GraphColumns, GraphStore, Store};
use rustc_hash::FxHashMap;

/// Direction of an adjacency lookup relative to an edge type's declared
/// `src → dst` orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Reverse,
}

/// Compressed sparse row adjacency for one `(edge type, direction)`.
#[derive(Debug, Clone, Default)]
struct Csr {
    /// `offsets[v.index()]..offsets[v.index()+1]` indexes into `targets`.
    offsets: Store<u32>,
    targets: Store<VertexId>,
}

impl Csr {
    /// Resolve both columns to plain slices. For a mapped graph this is
    /// where the `dyn ByteRegion` call happens, so callers resolve once and
    /// reuse the view.
    fn view(&self) -> CsrView<'_> {
        CsrView {
            offsets: &self.offsets,
            targets: &self.targets,
        }
    }
}

/// One CSR's columns as plain slices.
#[derive(Clone, Copy)]
struct CsrView<'g> {
    offsets: &'g [u32],
    targets: &'g [VertexId],
}

impl<'g> CsrView<'g> {
    fn neighbors(&self, v: VertexId) -> &'g [VertexId] {
        let i = v.index();
        match self.offsets.get(i..i + 2) {
            Some(&[lo, hi]) => &self.targets[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// One meta-path link `from → to`, resolved once: the adjacency lists a
/// vertex of type `from` follows to reach its `to`-typed neighbors, as plain
/// slices in visiting order (forward edge types in schema order, then
/// reverse edge types).
///
/// Resolving costs a schema pair-table lookup, one small allocation and, on
/// a snapshot-backed graph, one `dyn ByteRegion` call per column; walking a
/// vertex's neighbors afterwards costs two offset loads per list and nothing
/// else. Propagation kernels therefore resolve a hop per step, not per
/// frontier vertex.
///
/// The visiting order is part of the floating-point contract: a frontier
/// walked in ascending id order through the lists in this order fixes the
/// order in which weights are added into each target id, hence every bit of
/// the resulting neighbor vector.
pub struct Hop<'g> {
    from: VertexTypeId,
    lists: Vec<CsrView<'g>>,
}

impl<'g> Hop<'g> {
    /// The vertex type this hop starts from.
    pub fn from_type(&self) -> VertexTypeId {
        self.from
    }

    /// The `to`-typed neighbors of `v` as one sorted slice per adjacency
    /// list, in visiting order; parallel edges repeat within a slice. Every
    /// slice is empty for a vertex that is not of
    /// [`from_type`](Hop::from_type). Hot loops nest over this directly.
    pub fn neighbor_lists(&self, v: VertexId) -> impl Iterator<Item = &'g [VertexId]> + '_ {
        self.lists.iter().map(move |list| list.neighbors(v))
    }

    /// The `to`-typed neighbors of `v`, list by list, with multiplicity.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbor_lists(v).flatten().copied()
    }

    /// Number of `to`-typed neighbors of `v`, with multiplicity.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbor_lists(v).map(<[VertexId]>::len).sum()
    }
}

/// An immutable heterogeneous information network (Definition 1).
///
/// Construct with [`GraphBuilder`], or rehydrate from persisted columns with
/// [`HinGraph::from_store`]. Every vertex has a type from the [`Schema`] and
/// a name unique within its type. Adjacency is stored per edge type in both
/// directions, so meta-path traversal can walk links either way (undirected
/// semantics, as the paper's bibliographic network uses).
///
/// Vertex names are interned into one blob plus an offset column, and the
/// per-type name lookup is a binary search over a name-sorted permutation —
/// both columns persist byte-for-byte into snapshots, so a mapped graph
/// needs no index rebuilding at load time.
#[derive(Debug, Clone)]
pub struct HinGraph {
    schema: Schema,
    vertex_types: Store<VertexTypeId>,
    /// All vertex names concatenated (UTF-8), indexed by `name_offsets`.
    name_blob: Store<u8>,
    /// `name_offsets[v]..name_offsets[v+1]` bounds `v`'s name. Length `n+1`.
    name_offsets: Store<u32>,
    /// Per type `t`: `by_type_offsets[t]..by_type_offsets[t+1]` bounds `t`'s
    /// segment in `by_type_ids` / `name_order`. Length `T+1`.
    by_type_offsets: Store<u32>,
    /// Vertex ids grouped by type, ascending within each segment.
    by_type_ids: Store<VertexId>,
    /// Vertex ids grouped by type, sorted by name within each segment.
    name_order: Store<VertexId>,
    /// Per edge type: forward CSR (src → dst).
    forward: Vec<Csr>,
    /// Per edge type: reverse CSR (dst → src).
    reverse: Vec<Csr>,
    edge_count: usize,
}

fn verr(message: impl Into<String>) -> GraphError {
    GraphError::Format {
        line: 0,
        message: message.into(),
    }
}

impl HinGraph {
    /// The schema this network conforms to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_types.len()
    }

    /// Total number of edges (each undirected link counted once).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The type of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn vertex_type(&self, v: VertexId) -> VertexTypeId {
        self.vertex_types[v.index()]
    }

    /// The name of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn vertex_name(&self, v: VertexId) -> &str {
        let lo = self.name_offsets[v.index()] as usize;
        let hi = self.name_offsets[v.index() + 1] as usize;
        // Both construction paths guarantee valid UTF-8 on name boundaries
        // (GraphBuilder interns `String`s; `from_store` validates every
        // slice), so the failure arm is unreachable.
        match std::str::from_utf8(&self.name_blob[lo..hi]) {
            Ok(s) => s,
            Err(_) => {
                debug_assert!(false, "name blob invariant violated for {v:?}");
                ""
            }
        }
    }

    /// Whether `v` is a valid vertex id in this graph.
    pub fn contains(&self, v: VertexId) -> bool {
        v.index() < self.vertex_types.len()
    }

    /// Look up a vertex by type and exact name (binary search over the
    /// name-sorted per-type permutation).
    pub fn vertex_by_name(&self, vtype: VertexTypeId, name: &str) -> Option<VertexId> {
        let seg = self.type_segment(vtype, &self.name_order)?;
        seg.binary_search_by(|&v| self.vertex_name(v).cmp(name))
            .ok()
            .map(|i| seg[i])
    }

    /// All vertices of a type, in ascending id order.
    pub fn vertices_of_type(&self, vtype: VertexTypeId) -> &[VertexId] {
        self.type_segment(vtype, &self.by_type_ids).unwrap_or(&[])
    }

    /// The segment of `column` belonging to `vtype`, or `None` for an
    /// out-of-range type.
    fn type_segment<'g>(
        &'g self,
        vtype: VertexTypeId,
        column: &'g Store<VertexId>,
    ) -> Option<&'g [VertexId]> {
        let t = vtype.index();
        if t + 1 >= self.by_type_offsets.len() {
            return None;
        }
        let lo = self.by_type_offsets[t] as usize;
        let hi = self.by_type_offsets[t + 1] as usize;
        Some(&column[lo..hi])
    }

    /// Number of vertices of a type.
    pub fn count_of_type(&self, vtype: VertexTypeId) -> usize {
        self.vertices_of_type(vtype).len()
    }

    /// Iterate all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_types.len()).map(|i| VertexId(i as u32))
    }

    /// Neighbors of `v` along one specific edge type, in its forward
    /// (`src → dst`) orientation.
    pub fn neighbors_forward(&self, v: VertexId, et: EdgeTypeId) -> &[VertexId] {
        self.forward[et.index()].view().neighbors(v)
    }

    /// Neighbors of `v` along one specific edge type, traversed backwards
    /// (`dst → src`).
    pub fn neighbors_reverse(&self, v: VertexId, et: EdgeTypeId) -> &[VertexId] {
        self.reverse[et.index()].view().neighbors(v)
    }

    /// Resolve the link `from → to` into a [`Hop`]: every edge type of the
    /// schema that connects the pair, in either orientation. A pair the
    /// schema does not link resolves to a hop with no lists.
    pub fn hop(&self, from: VertexTypeId, to: VertexTypeId) -> Hop<'_> {
        let forward = self.schema.edge_types_from_to(from, to);
        // For a self-typed edge type (from == to) the same edge type is in
        // both lists, which is required: a stored edge x→y appears in x's
        // forward list and y's reverse list only, so both directions are
        // needed for undirected semantics. Each edge is still seen exactly
        // once per endpoint (a literal self-loop x→x is seen twice, the
        // usual undirected-degree convention).
        let reverse = self.schema.edge_types_from_to(to, from);
        let mut lists = Vec::with_capacity(forward.len() + reverse.len());
        lists.extend(forward.iter().map(|et| self.forward[et.index()].view()));
        lists.extend(reverse.iter().map(|et| self.reverse[et.index()].view()));
        Hop { from, lists }
    }

    /// The type of every vertex, indexed by raw id.
    pub(crate) fn vertex_type_column(&self) -> &[VertexTypeId] {
        &self.vertex_types
    }

    /// Iterate all neighbors of `v` that have type `to_type`, across every
    /// connecting edge type (both orientations). Multiplicity is preserved:
    /// parallel edges yield repeated ids.
    ///
    /// Returns an empty iterator when the schema has no link between the
    /// types — callers validating meta-paths up front never hit that case.
    /// Loops over many vertices of one type should resolve [`HinGraph::hop`]
    /// once instead.
    pub fn step_neighbors<'g>(
        &'g self,
        v: VertexId,
        to_type: VertexTypeId,
    ) -> impl Iterator<Item = VertexId> + 'g {
        let hop = self.hop(self.vertex_type(v), to_type);
        hop.lists
            .into_iter()
            .flat_map(move |list| list.neighbors(v).iter().copied())
    }

    /// The number of `to_type`-typed neighbors of `v` (with multiplicity).
    pub fn step_degree(&self, v: VertexId, to_type: VertexTypeId) -> usize {
        self.hop(self.vertex_type(v), to_type).degree(v)
    }

    /// A lightweight display-friendly view of a vertex.
    pub fn vertex_ref(&self, v: VertexId) -> VertexRef<'_> {
        VertexRef { graph: self, id: v }
    }

    /// Whether this graph's columns are views into a mapped snapshot region
    /// (true) or heap-owned (false for builder-produced graphs).
    pub fn is_mapped(&self) -> bool {
        self.vertex_types.is_mapped()
    }

    /// A borrowed view of every persistent column, in the exact layout a
    /// snapshot writer serializes. CSR blocks come two per edge type in
    /// schema order: forward, then reverse.
    pub fn columns(&self) -> GraphColumns<'_> {
        let mut csrs = Vec::with_capacity(self.forward.len() * 2);
        for (f, r) in self.forward.iter().zip(&self.reverse) {
            csrs.push((&*f.offsets, &*f.targets));
            csrs.push((&*r.offsets, &*r.targets));
        }
        GraphColumns {
            schema: &self.schema,
            vertex_types: &self.vertex_types,
            name_blob: &self.name_blob,
            name_offsets: &self.name_offsets,
            by_type_offsets: &self.by_type_offsets,
            by_type_ids: &self.by_type_ids,
            name_order: &self.name_order,
            csrs,
            edge_count: self.edge_count as u64,
        }
    }

    /// Rebuild a graph from persisted columns, validating every structural
    /// invariant the accessors rely on — offset monotonicity and bounds,
    /// UTF-8 names, per-type segment coverage and ordering, CSR shape,
    /// endpoint types, and sorted neighbor lists. `O(n + e)` in the column
    /// sizes; never panics on malformed input (structured [`GraphError`]s).
    ///
    /// This is the trust boundary for snapshot-backed storage: once a
    /// [`GraphStore`] passes, owned and mapped graphs are interchangeable.
    pub fn from_store(store: GraphStore) -> Result<HinGraph, GraphError> {
        let GraphStore {
            schema,
            vertex_types,
            name_blob,
            name_offsets,
            by_type_offsets,
            by_type_ids,
            name_order,
            csrs,
            edge_count,
        } = store;
        let n = vertex_types.len();
        let type_count = schema.vertex_type_count();
        let et_count = schema.edge_type_count();

        if n > u32::MAX as usize {
            return Err(GraphError::TooManyVertices);
        }
        for (i, t) in vertex_types.iter().enumerate() {
            if t.index() >= type_count {
                return Err(verr(format!("vertex {i} has out-of-range type {t:?}")));
            }
        }

        // Name offsets: length n+1, starts at 0, monotone, ends at blob len.
        check_offsets(&name_offsets, n, name_blob.len(), "name_offsets")?;
        for i in 0..n {
            let lo = name_offsets[i] as usize;
            let hi = name_offsets[i + 1] as usize;
            if std::str::from_utf8(&name_blob[lo..hi]).is_err() {
                return Err(verr(format!("vertex {i} name is not valid UTF-8")));
            }
        }

        // Per-type segments: cover all n vertices with the right counts.
        check_offsets(&by_type_offsets, type_count, n, "by_type_offsets")?;
        let mut counts = vec![0u32; type_count];
        for t in vertex_types.iter() {
            counts[t.index()] += 1;
        }
        for t in 0..type_count {
            let lo = by_type_offsets[t] as usize;
            let hi = by_type_offsets[t + 1] as usize;
            if hi - lo != counts[t] as usize {
                return Err(verr(format!(
                    "type {t} segment holds {} ids but the graph has {} vertices of that type",
                    hi - lo,
                    counts[t]
                )));
            }
        }
        if by_type_ids.len() != n || name_order.len() != n {
            return Err(verr("per-type id columns must list every vertex once"));
        }
        for t in 0..type_count {
            let lo = by_type_offsets[t] as usize;
            let hi = by_type_offsets[t + 1] as usize;
            for (which, column) in [("by_type_ids", &by_type_ids), ("name_order", &name_order)] {
                for &v in &column[lo..hi] {
                    if v.index() >= n {
                        return Err(verr(format!("{which}: id {v:?} out of range")));
                    }
                    if vertex_types[v.index()].index() != t {
                        return Err(verr(format!("{which}: {v:?} is not of type {t}")));
                    }
                }
            }
            // Ascending ids in by_type_ids; strictly ascending names in
            // name_order (names are unique within a type, so equality means
            // a duplicated or conflicting entry).
            if by_type_ids[lo..hi].windows(2).any(|w| w[0] >= w[1]) {
                return Err(verr(format!("type {t}: by_type_ids not strictly ascending")));
            }
            let seg = &name_order[lo..hi];
            for w in seg.windows(2) {
                let (a, b) = (w[0].index(), w[1].index());
                let name = |v: usize| {
                    &name_blob[name_offsets[v] as usize..name_offsets[v + 1] as usize]
                };
                if name(a) >= name(b) {
                    return Err(verr(format!(
                        "type {t}: name_order not strictly ascending by name"
                    )));
                }
            }
        }

        // CSR blocks: two per edge type, valid shape, typed endpoints,
        // sorted rows.
        if csrs.len() != 2 * et_count {
            return Err(verr(format!(
                "expected {} CSR blocks for {et_count} edge types, found {}",
                2 * et_count,
                csrs.len()
            )));
        }
        let mut forward = Vec::with_capacity(et_count);
        let mut reverse = Vec::with_capacity(et_count);
        let mut forward_nnz = 0u64;
        for (block, csr) in csrs.into_iter().enumerate() {
            let et = EdgeTypeId((block / 2) as u16);
            let info = schema.edge_type(et);
            let is_forward = block % 2 == 0;
            let (row_type, col_type) = if is_forward {
                (info.src, info.dst)
            } else {
                (info.dst, info.src)
            };
            check_offsets(&csr.offsets, n, csr.targets.len(), "csr offsets")?;
            for v in 0..n {
                let lo = csr.offsets[v] as usize;
                let hi = csr.offsets[v + 1] as usize;
                if lo < hi && vertex_types[v] != row_type {
                    return Err(verr(format!(
                        "csr block {block}: vertex {v} has neighbors but wrong row type"
                    )));
                }
                let row = &csr.targets[lo..hi];
                for &u in row {
                    if u.index() >= n {
                        return Err(verr(format!("csr block {block}: target {u:?} out of range")));
                    }
                    if vertex_types[u.index()] != col_type {
                        return Err(verr(format!(
                            "csr block {block}: target {u:?} has wrong column type"
                        )));
                    }
                }
                if row.windows(2).any(|w| w[0] > w[1]) {
                    return Err(verr(format!(
                        "csr block {block}: row {v} neighbor list not sorted"
                    )));
                }
            }
            if is_forward {
                forward_nnz += csr.targets.len() as u64;
                forward.push(Csr {
                    offsets: csr.offsets,
                    targets: csr.targets,
                });
            } else {
                let fwd: &Csr = &forward[et.index()];
                if csr.targets.len() != fwd.targets.len() {
                    return Err(verr(format!(
                        "edge type {et:?}: forward and reverse CSRs disagree on edge count"
                    )));
                }
                reverse.push(Csr {
                    offsets: csr.offsets,
                    targets: csr.targets,
                });
            }
        }
        if forward_nnz != edge_count {
            return Err(verr(format!(
                "edge_count {edge_count} does not match stored adjacency ({forward_nnz})"
            )));
        }

        Ok(HinGraph {
            schema,
            vertex_types,
            name_blob,
            name_offsets,
            by_type_offsets,
            by_type_ids,
            name_order,
            forward,
            reverse,
            edge_count: edge_count as usize,
        })
    }
}

/// Validate an offsets column: `count + 1` entries, starting at 0, monotone
/// nondecreasing, ending exactly at `total`.
fn check_offsets(
    offsets: &Store<u32>,
    count: usize,
    total: usize,
    what: &str,
) -> Result<(), GraphError> {
    if offsets.len() != count + 1 {
        return Err(verr(format!(
            "{what}: expected {} entries, found {}",
            count + 1,
            offsets.len()
        )));
    }
    if offsets[0] != 0 {
        return Err(verr(format!("{what}: first offset must be 0")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(verr(format!("{what}: offsets must be nondecreasing")));
    }
    if offsets[count] as usize != total {
        return Err(verr(format!(
            "{what}: last offset {} does not match data length {total}",
            offsets[count]
        )));
    }
    Ok(())
}

/// A borrowed view of one vertex, carrying its graph for name/type access.
#[derive(Clone, Copy)]
pub struct VertexRef<'g> {
    graph: &'g HinGraph,
    /// The vertex id this view refers to.
    pub id: VertexId,
}

impl VertexRef<'_> {
    /// The vertex's name.
    pub fn name(&self) -> &str {
        self.graph.vertex_name(self.id)
    }

    /// The vertex's type id.
    pub fn vtype(&self) -> VertexTypeId {
        self.graph.vertex_type(self.id)
    }

    /// The vertex's type name.
    pub fn type_name(&self) -> &str {
        self.graph.schema().vertex_type_name(self.vtype())
    }
}

impl std::fmt::Debug for VertexRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{{{:?}}}", self.type_name(), self.name())
    }
}

/// A resolved edge occurrence (used by iteration helpers and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Source endpoint (in the edge type's declared orientation).
    pub src: VertexId,
    /// Destination endpoint.
    pub dst: VertexId,
    /// The edge's type.
    pub etype: EdgeTypeId,
}

/// Mutable builder for [`HinGraph`].
#[derive(Debug)]
pub struct GraphBuilder {
    schema: Schema,
    vertex_types: Vec<VertexTypeId>,
    vertex_names: Vec<String>,
    name_index: Vec<FxHashMap<String, VertexId>>,
    edges: Vec<EdgeRef>,
}

impl GraphBuilder {
    /// Start building a network over `schema`.
    pub fn new(schema: Schema) -> Self {
        let n = schema.vertex_type_count();
        GraphBuilder {
            schema,
            vertex_types: Vec::new(),
            vertex_names: Vec::new(),
            name_index: vec![FxHashMap::default(); n],
            edges: Vec::new(),
        }
    }

    /// The schema being built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vertex_types.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a vertex of `vtype` named `name`. Names must be unique within a
    /// type.
    pub fn add_vertex(
        &mut self,
        vtype: VertexTypeId,
        name: impl Into<String>,
    ) -> Result<VertexId, GraphError> {
        if vtype.index() >= self.schema.vertex_type_count() {
            return Err(GraphError::UnknownVertexTypeId(vtype));
        }
        if self.vertex_types.len() >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices);
        }
        let name = name.into();
        let id = VertexId(self.vertex_types.len() as u32);
        match self.name_index[vtype.index()].entry(name.clone()) {
            std::collections::hash_map::Entry::Occupied(_) => {
                Err(GraphError::DuplicateVertex { vtype, name })
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
                self.vertex_types.push(vtype);
                self.vertex_names.push(name);
                Ok(id)
            }
        }
    }

    /// Add the vertex if absent, otherwise return the existing id.
    pub fn get_or_add_vertex(
        &mut self,
        vtype: VertexTypeId,
        name: &str,
    ) -> Result<VertexId, GraphError> {
        if let Some(&id) = self.name_index.get(vtype.index()).and_then(|m| m.get(name)) {
            return Ok(id);
        }
        self.add_vertex(vtype, name)
    }

    /// Look up a vertex added earlier.
    pub fn vertex_by_name(&self, vtype: VertexTypeId, name: &str) -> Option<VertexId> {
        self.name_index.get(vtype.index())?.get(name).copied()
    }

    /// Add an edge between `u` and `v`, inferring the edge type from the
    /// endpoint types. Fails if the schema defines no edge type between the
    /// two types. If the schema declares the type as `type(v) → type(u)`, the
    /// edge is stored flipped so its orientation always matches its type.
    ///
    /// If multiple edge types connect the same type pair, the first declared
    /// one is used; call [`GraphBuilder::add_edge_typed`] to disambiguate.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeTypeId, GraphError> {
        let (ut, vt) = (self.vertex_type_of(u)?, self.vertex_type_of(v)?);
        if let Some(&et) = self.schema.edge_types_from_to(ut, vt).first() {
            self.edges.push(EdgeRef {
                src: u,
                dst: v,
                etype: et,
            });
            return Ok(et);
        }
        if let Some(&et) = self.schema.edge_types_from_to(vt, ut).first() {
            self.edges.push(EdgeRef {
                src: v,
                dst: u,
                etype: et,
            });
            return Ok(et);
        }
        Err(GraphError::NoEdgeTypeBetween { src: ut, dst: vt })
    }

    /// Add an edge with an explicit edge type. `u` must have the type's
    /// `src` type and `v` its `dst` type (or vice versa, in which case the
    /// edge is stored flipped).
    pub fn add_edge_typed(
        &mut self,
        u: VertexId,
        v: VertexId,
        etype: EdgeTypeId,
    ) -> Result<(), GraphError> {
        let (ut, vt) = (self.vertex_type_of(u)?, self.vertex_type_of(v)?);
        let info = self.schema.edge_type(etype);
        if info.src == ut && info.dst == vt {
            self.edges.push(EdgeRef {
                src: u,
                dst: v,
                etype,
            });
            Ok(())
        } else if info.src == vt && info.dst == ut {
            self.edges.push(EdgeRef {
                src: v,
                dst: u,
                etype,
            });
            Ok(())
        } else {
            Err(GraphError::NoEdgeTypeBetween { src: ut, dst: vt })
        }
    }

    fn vertex_type_of(&self, v: VertexId) -> Result<VertexTypeId, GraphError> {
        self.vertex_types
            .get(v.index())
            .copied()
            .ok_or(GraphError::UnknownVertex(v))
    }

    /// Freeze into an immutable [`HinGraph`] with CSR adjacency.
    pub fn build(self) -> HinGraph {
        let n = self.vertex_types.len();
        let et_count = self.schema.edge_type_count();
        let type_count = self.schema.vertex_type_count();

        // Per-edge-type CSRs, both directions, neighbor lists sorted.
        let mut forward = Vec::with_capacity(et_count);
        let mut reverse = Vec::with_capacity(et_count);
        for et in 0..et_count {
            for dir in [Direction::Forward, Direction::Reverse] {
                let mut deg = vec![0u32; n];
                for e in &self.edges {
                    if e.etype.index() != et {
                        continue;
                    }
                    let row = match dir {
                        Direction::Forward => e.src,
                        Direction::Reverse => e.dst,
                    };
                    deg[row.index()] += 1;
                }
                let mut offsets = Vec::with_capacity(n + 1);
                let mut total = 0u32;
                offsets.push(0);
                for &d in &deg {
                    total += d;
                    offsets.push(total);
                }
                let mut cursor = offsets.clone();
                let mut targets = vec![VertexId(0); total as usize];
                for e in &self.edges {
                    if e.etype.index() != et {
                        continue;
                    }
                    let (row, col) = match dir {
                        Direction::Forward => (e.src, e.dst),
                        Direction::Reverse => (e.dst, e.src),
                    };
                    targets[cursor[row.index()] as usize] = col;
                    cursor[row.index()] += 1;
                }
                // Keep neighbor lists sorted for deterministic iteration.
                for v in 0..n {
                    targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
                }
                let csr = Csr {
                    offsets: offsets.into(),
                    targets: targets.into(),
                };
                match dir {
                    Direction::Forward => forward.push(csr),
                    Direction::Reverse => reverse.push(csr),
                }
            }
        }

        // Intern names into one blob + offsets.
        let blob_len: usize = self.vertex_names.iter().map(String::len).sum();
        let mut name_blob = Vec::with_capacity(blob_len);
        let mut name_offsets = Vec::with_capacity(n + 1);
        name_offsets.push(0u32);
        for name in &self.vertex_names {
            name_blob.extend_from_slice(name.as_bytes());
            name_offsets.push(name_blob.len() as u32);
        }

        // Group vertices by type (ascending ids) and, in parallel, a
        // name-sorted permutation per type for binary-search lookup.
        let mut by_type: Vec<Vec<VertexId>> = vec![Vec::new(); type_count];
        for (i, t) in self.vertex_types.iter().enumerate() {
            by_type[t.index()].push(VertexId(i as u32));
        }
        let mut by_type_offsets = Vec::with_capacity(type_count + 1);
        let mut by_type_ids = Vec::with_capacity(n);
        let mut name_order = Vec::with_capacity(n);
        by_type_offsets.push(0u32);
        for ids in &by_type {
            by_type_ids.extend_from_slice(ids);
            let mut sorted = ids.clone();
            sorted.sort_unstable_by(|&a, &b| {
                self.vertex_names[a.index()].cmp(&self.vertex_names[b.index()])
            });
            name_order.extend_from_slice(&sorted);
            by_type_offsets.push(by_type_ids.len() as u32);
        }

        HinGraph {
            schema: self.schema,
            vertex_types: self.vertex_types.into(),
            name_blob: name_blob.into(),
            name_offsets: name_offsets.into(),
            by_type_offsets: by_type_offsets.into(),
            by_type_ids: by_type_ids.into(),
            name_order: name_order.into(),
            forward,
            reverse,
            edge_count: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::bibliographic_schema;
    use crate::store::CsrStore;

    /// Builds the instantiated network of Figure 1(b): authors Ava, Liam,
    /// Zoe; venues ICDE, KDD; and enough papers that
    /// |π_APA(Ava, Liam)| = 1, |π_APA(Liam, Zoe)| = 2,
    /// Φ_APA(Zoe) = [Ava:1, Liam:2, Zoe:5], Φ_APV(Zoe) = [ICDE:2, KDD:3].
    pub(crate) fn figure1_network() -> HinGraph {
        let schema = bibliographic_schema();
        let author = schema.vertex_type_by_name("author").unwrap();
        let paper = schema.vertex_type_by_name("paper").unwrap();
        let venue = schema.vertex_type_by_name("venue").unwrap();
        let mut gb = GraphBuilder::new(schema);
        let ava = gb.add_vertex(author, "Ava").unwrap();
        let liam = gb.add_vertex(author, "Liam").unwrap();
        let zoe = gb.add_vertex(author, "Zoe").unwrap();
        let icde = gb.add_vertex(venue, "ICDE").unwrap();
        let kdd = gb.add_vertex(venue, "KDD").unwrap();
        // Zoe's 5 papers: p1 with Ava+Liam? — pick a layout satisfying the
        // counts: p1 (Ava, Zoe) ICDE; p2, p3 (Liam, Zoe) in ICDE, KDD;
        // p4, p5 (Zoe) KDD. Then π_APA(Ava,Zoe)=1, π_APA(Liam,Zoe)=2,
        // Φ_APV(Zoe) = [ICDE:2, KDD:3]. For π_APA(Ava,Liam)=1 we need one
        // joint Ava–Liam paper not involving Zoe: p6 (Ava, Liam) ICDE.
        let mk = |gb: &mut GraphBuilder, name: &str, authors: &[VertexId], ven: VertexId| {
            let p = gb.add_vertex(paper, name).unwrap();
            for &a in authors {
                gb.add_edge(a, p).unwrap();
            }
            gb.add_edge(p, ven).unwrap();
            p
        };
        mk(&mut gb, "p1", &[ava, zoe], icde);
        mk(&mut gb, "p2", &[liam, zoe], icde);
        mk(&mut gb, "p3", &[liam, zoe], kdd);
        mk(&mut gb, "p4", &[zoe], kdd);
        mk(&mut gb, "p5", &[zoe], kdd);
        mk(&mut gb, "p6", &[ava, liam], icde);
        gb.build()
    }

    #[test]
    fn build_and_lookup() {
        let g = figure1_network();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let venue = g.schema().vertex_type_by_name("venue").unwrap();
        assert_eq!(g.vertex_count(), 11);
        assert_eq!(g.count_of_type(author), 3);
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        assert_eq!(g.vertex_name(zoe), "Zoe");
        assert_eq!(g.vertex_type(zoe), author);
        assert!(g.vertex_by_name(venue, "Zoe").is_none());
        assert!(g.vertex_by_name(author, "Nobody").is_none());
        assert!(!g.is_mapped());
    }

    #[test]
    fn step_neighbors_both_directions() {
        let g = figure1_network();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let paper = g.schema().vertex_type_by_name("paper").unwrap();
        let venue = g.schema().vertex_type_by_name("venue").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        // Zoe wrote 5 papers (author -> paper is reverse of writes? no,
        // forward: writes: author -> paper).
        let zoe_papers: Vec<_> = g.step_neighbors(zoe, paper).collect();
        assert_eq!(zoe_papers.len(), 5);
        // A paper's authors traverse writes backwards.
        let p2 = g.vertex_by_name(paper, "p2").unwrap();
        let p2_authors: Vec<_> = g.step_neighbors(p2, author).collect();
        assert_eq!(p2_authors.len(), 2);
        // Venue -> papers traverses published_in backwards.
        let kdd = g.vertex_by_name(venue, "KDD").unwrap();
        assert_eq!(g.step_degree(kdd, paper), 3);
        // No schema link author -> venue directly.
        assert_eq!(g.step_degree(zoe, venue), 0);
    }

    #[test]
    fn add_edge_infers_and_flips() {
        let schema = bibliographic_schema();
        let author = schema.vertex_type_by_name("author").unwrap();
        let paper = schema.vertex_type_by_name("paper").unwrap();
        let mut gb = GraphBuilder::new(schema);
        let a = gb.add_vertex(author, "A").unwrap();
        let p = gb.add_vertex(paper, "P").unwrap();
        // Add in "wrong" order: paper first, author second — still works.
        gb.add_edge(p, a).unwrap();
        let g = gb.build();
        assert_eq!(g.step_degree(a, paper), 1);
        assert_eq!(g.step_degree(p, author), 1);
    }

    #[test]
    fn add_edge_without_schema_link_fails() {
        let schema = bibliographic_schema();
        let author = schema.vertex_type_by_name("author").unwrap();
        let venue = schema.vertex_type_by_name("venue").unwrap();
        let mut gb = GraphBuilder::new(schema);
        let a = gb.add_vertex(author, "A").unwrap();
        let v = gb.add_vertex(venue, "V").unwrap();
        assert!(matches!(
            gb.add_edge(a, v),
            Err(GraphError::NoEdgeTypeBetween { .. })
        ));
    }

    #[test]
    fn duplicate_vertex_name_same_type_fails() {
        let schema = bibliographic_schema();
        let author = schema.vertex_type_by_name("author").unwrap();
        let mut gb = GraphBuilder::new(schema);
        gb.add_vertex(author, "A").unwrap();
        assert!(matches!(
            gb.add_vertex(author, "A"),
            Err(GraphError::DuplicateVertex { .. })
        ));
    }

    #[test]
    fn same_name_different_types_ok() {
        let schema = bibliographic_schema();
        let author = schema.vertex_type_by_name("author").unwrap();
        let term = schema.vertex_type_by_name("term").unwrap();
        let mut gb = GraphBuilder::new(schema);
        let a = gb.add_vertex(author, "graph").unwrap();
        let t = gb.add_vertex(term, "graph").unwrap();
        assert_ne!(a, t);
    }

    #[test]
    fn get_or_add_vertex_is_idempotent() {
        let schema = bibliographic_schema();
        let author = schema.vertex_type_by_name("author").unwrap();
        let mut gb = GraphBuilder::new(schema);
        let a1 = gb.get_or_add_vertex(author, "A").unwrap();
        let a2 = gb.get_or_add_vertex(author, "A").unwrap();
        assert_eq!(a1, a2);
        assert_eq!(gb.vertex_count(), 1);
    }

    #[test]
    fn parallel_edges_preserved() {
        let schema = bibliographic_schema();
        let author = schema.vertex_type_by_name("author").unwrap();
        let paper = schema.vertex_type_by_name("paper").unwrap();
        let mut gb = GraphBuilder::new(schema);
        let a = gb.add_vertex(author, "A").unwrap();
        let p = gb.add_vertex(paper, "P").unwrap();
        gb.add_edge(a, p).unwrap();
        gb.add_edge(a, p).unwrap();
        let g = gb.build();
        assert_eq!(g.step_degree(a, paper), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn add_edge_typed_validates_endpoints() {
        let schema = bibliographic_schema();
        let author = schema.vertex_type_by_name("author").unwrap();
        let paper = schema.vertex_type_by_name("paper").unwrap();
        let venue = schema.vertex_type_by_name("venue").unwrap();
        let writes = schema.edge_type_by_name("writes").unwrap();
        let mut gb = GraphBuilder::new(schema);
        let a = gb.add_vertex(author, "A").unwrap();
        let p = gb.add_vertex(paper, "P").unwrap();
        let v = gb.add_vertex(venue, "V").unwrap();
        gb.add_edge_typed(p, a, writes).unwrap(); // flipped ok
        assert!(gb.add_edge_typed(a, v, writes).is_err());
    }

    #[test]
    fn self_loop_edge_type_traversed_once() {
        let mut sb = crate::schema::SchemaBuilder::new();
        let person = sb.vertex_type("person");
        sb.edge_type("knows", person, person);
        let schema = sb.build().unwrap();
        let mut gb = GraphBuilder::new(schema);
        let x = gb.add_vertex(person, "x").unwrap();
        let y = gb.add_vertex(person, "y").unwrap();
        gb.add_edge(x, y).unwrap();
        let g = gb.build();
        // x -> y forward; y -> x only via reverse. Each seen exactly once.
        assert_eq!(g.step_neighbors(x, person).collect::<Vec<_>>(), vec![y]);
        assert_eq!(g.step_neighbors(y, person).collect::<Vec<_>>(), vec![x]);
    }

    #[test]
    fn vertex_ref_formats() {
        let g = figure1_network();
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let zoe = g.vertex_by_name(author, "Zoe").unwrap();
        let r = g.vertex_ref(zoe);
        assert_eq!(r.name(), "Zoe");
        assert_eq!(r.type_name(), "author");
        assert_eq!(format!("{r:?}"), "author{\"Zoe\"}");
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(bibliographic_schema()).build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    /// Reassemble a graph from its own columns (the writer→loader round
    /// trip minus serialization) and check behavior is identical.
    fn roundtrip_store(g: &HinGraph) -> GraphStore {
        let c = g.columns();
        GraphStore {
            schema: c.schema.clone(),
            vertex_types: c.vertex_types.to_vec().into(),
            name_blob: c.name_blob.to_vec().into(),
            name_offsets: c.name_offsets.to_vec().into(),
            by_type_offsets: c.by_type_offsets.to_vec().into(),
            by_type_ids: c.by_type_ids.to_vec().into(),
            name_order: c.name_order.to_vec().into(),
            csrs: c
                .csrs
                .iter()
                .map(|(o, t)| CsrStore {
                    offsets: o.to_vec().into(),
                    targets: t.to_vec().into(),
                })
                .collect(),
            edge_count: c.edge_count,
        }
    }

    #[test]
    fn from_store_roundtrip_preserves_everything() {
        let g = figure1_network();
        let h = HinGraph::from_store(roundtrip_store(&g)).unwrap();
        assert_eq!(g.vertex_count(), h.vertex_count());
        assert_eq!(g.edge_count(), h.edge_count());
        for v in g.vertices() {
            assert_eq!(g.vertex_name(v), h.vertex_name(v));
            assert_eq!(g.vertex_type(v), h.vertex_type(v));
        }
        for t in g.schema().vertex_type_ids() {
            assert_eq!(g.vertices_of_type(t), h.vertices_of_type(t));
            for &v in g.vertices_of_type(t) {
                assert_eq!(h.vertex_by_name(t, g.vertex_name(v)), Some(v));
            }
            for u in g.vertices() {
                assert_eq!(
                    g.step_neighbors(u, t).collect::<Vec<_>>(),
                    h.step_neighbors(u, t).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn from_store_rejects_tampered_columns() {
        let g = figure1_network();

        // Out-of-range vertex type.
        let mut s = roundtrip_store(&g);
        if let Store::Owned(v) = &mut s.vertex_types {
            v[0] = VertexTypeId(250);
        }
        assert!(HinGraph::from_store(s).is_err());

        // Broken name offsets (not monotone).
        let mut s = roundtrip_store(&g);
        if let Store::Owned(v) = &mut s.name_offsets {
            v[1] = u32::MAX;
        }
        assert!(HinGraph::from_store(s).is_err());

        // Invalid UTF-8 in the blob.
        let mut s = roundtrip_store(&g);
        if let Store::Owned(v) = &mut s.name_blob {
            v[0] = 0xFF;
        }
        assert!(HinGraph::from_store(s).is_err());

        // Wrong edge count.
        let mut s = roundtrip_store(&g);
        s.edge_count += 1;
        assert!(HinGraph::from_store(s).is_err());

        // CSR target out of range.
        let mut s = roundtrip_store(&g);
        if let Store::Owned(v) = &mut s.csrs[0].targets {
            v[0] = VertexId(u32::MAX);
        }
        assert!(HinGraph::from_store(s).is_err());

        // Missing CSR block.
        let mut s = roundtrip_store(&g);
        s.csrs.pop();
        assert!(HinGraph::from_store(s).is_err());

        // Shuffled name order breaks the sortedness invariant.
        let mut s = roundtrip_store(&g);
        if let Store::Owned(v) = &mut s.name_order {
            v.swap(0, 1);
        }
        assert!(HinGraph::from_store(s).is_err());

        // The untampered store still loads.
        assert!(HinGraph::from_store(roundtrip_store(&g)).is_ok());
    }
}

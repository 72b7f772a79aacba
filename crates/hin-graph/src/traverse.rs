//! Meta-path traversal: neighbor vectors, neighborhoods, path counting and
//! connectivity (Definitions 5–7 and Section 5.1 of the paper).
//!
//! All functions operate by sparse frontier propagation: the neighbor vector
//! `Φ_P(v)` is the row of the (implicit) product of per-link biadjacency
//! matrices, computed one hop at a time. This is exactly the identity the
//! paper uses in Section 6.2:
//!
//! ```text
//! Φ_{P₁P₂}(v) = Σ_u |π_{P₁}(v, u)| · Φ_{P₂}(u)
//! ```

use crate::error::GraphError;
use crate::graph::HinGraph;
use crate::ids::{VertexId, VertexTypeId};
use crate::metapath::MetaPath;
use crate::sparse::{DenseAccumulator, PooledAccumulator, SparseVec};

/// Check that `v` can be the start of an instantiation of a meta-path
/// whose first type is `source_type`: it exists and has that type.
pub fn check_start(
    graph: &HinGraph,
    v: VertexId,
    source_type: VertexTypeId,
) -> Result<(), GraphError> {
    if !graph.contains(v) {
        return Err(GraphError::UnknownVertex(v));
    }
    let actual = graph.vertex_type(v);
    if actual != source_type {
        return Err(GraphError::StartTypeMismatch {
            vertex: v,
            actual,
            expected: source_type,
        });
    }
    Ok(())
}

/// Propagate a sparse frontier one hop: every entry `(u, w)` scatters `w`
/// into each `to_type`-typed neighbor of `u` (with multiplicity).
///
/// Scatters through a workspace checked out of the process-wide free list
/// ([`PooledAccumulator`]); loops that already hold a [`DenseAccumulator`]
/// call [`propagate_step_with`] instead.
pub fn propagate_step(
    graph: &HinGraph,
    frontier: &SparseVec,
    to_type: crate::ids::VertexTypeId,
) -> SparseVec {
    propagate_step_with(graph, frontier, to_type, &mut PooledAccumulator::checkout())
}

/// [`propagate_step`] scattering through a caller-provided workspace, so
/// repeated hops reuse one allocation.
///
/// The link is resolved into a [`Hop`](crate::Hop) once per run of
/// same-typed frontier vertices — once per step for the single-typed
/// frontiers a meta-path produces — so the loop body is two offset loads
/// and the scatter per adjacency list. The frontier is walked in ascending
/// id order and each vertex's lists in the hop's order, which fixes the
/// per-id addition order and therefore every bit of the result.
pub fn propagate_step_with(
    graph: &HinGraph,
    frontier: &SparseVec,
    to_type: crate::ids::VertexTypeId,
    ws: &mut DenseAccumulator,
) -> SparseVec {
    let types = graph.vertex_type_column();
    let Some((first, _)) = frontier.iter().next() else {
        return ws.finish();
    };
    let mut hop = graph.hop(types[first.index()], to_type);
    for (u, w) in frontier.iter() {
        let from = types[u.index()];
        if from != hop.from_type() {
            hop = graph.hop(from, to_type);
        }
        for list in hop.neighbor_lists(u) {
            for &n in list {
                ws.add(n, w);
            }
        }
    }
    ws.finish()
}

/// The neighbor vector `Φ_P(v)` (Definition 7): entry `j` counts the path
/// instantiations of `P` from `v` to vertex `j`.
///
/// For the degenerate single-type path this is the unit vector `{v: 1}`.
pub fn neighbor_vector(
    graph: &HinGraph,
    v: VertexId,
    path: &MetaPath,
) -> Result<SparseVec, GraphError> {
    neighbor_vector_with(graph, v, path, &mut PooledAccumulator::checkout())
}

/// [`neighbor_vector`] propagating through a caller-provided workspace, so
/// one allocation serves every hop of every vertex in a batch.
pub fn neighbor_vector_with(
    graph: &HinGraph,
    v: VertexId,
    path: &MetaPath,
    ws: &mut DenseAccumulator,
) -> Result<SparseVec, GraphError> {
    check_start(graph, v, path.source_type())?;
    let mut frontier = SparseVec::unit(v);
    for link in path.types().windows(2) {
        frontier = propagate_step_with(graph, &frontier, link[1], ws);
        if frontier.is_empty() {
            break;
        }
    }
    Ok(frontier)
}

/// The neighborhood `N_P(v)` (Definition 6): vertices reachable by at least
/// one instantiation of `P`, in ascending id order.
pub fn neighborhood(
    graph: &HinGraph,
    v: VertexId,
    path: &MetaPath,
) -> Result<Vec<VertexId>, GraphError> {
    Ok(neighbor_vector(graph, v, path)?.support().collect())
}

/// `|π_P(u, v)|` — the number of instantiations of `P` between `u` and `v`
/// (Definition 5).
pub fn path_count(
    graph: &HinGraph,
    u: VertexId,
    v: VertexId,
    path: &MetaPath,
) -> Result<f64, GraphError> {
    Ok(neighbor_vector(graph, u, path)?.get(v))
}

/// Connectivity `χ(u, v) = |π_{P_sym}(u, v)|` along the symmetric path of a
/// feature meta-path `P` (Section 5.1). Computed as `Φ_P(u) · Φ_P(v)`,
/// which equals the symmetric path count because every instantiation of
/// `P_sym = (P P⁻¹)` factors through a unique pivot vertex.
pub fn connectivity(
    graph: &HinGraph,
    u: VertexId,
    v: VertexId,
    feature_path: &MetaPath,
) -> Result<f64, GraphError> {
    let pu = neighbor_vector(graph, u, feature_path)?;
    let pv = neighbor_vector(graph, v, feature_path)?;
    Ok(pu.dot(&pv))
}

/// Visibility `χ(v, v)` — a vertex's potential for connectivity
/// (Section 5.1). Equals `‖Φ_P(v)‖²`.
pub fn visibility(
    graph: &HinGraph,
    v: VertexId,
    feature_path: &MetaPath,
) -> Result<f64, GraphError> {
    Ok(neighbor_vector(graph, v, feature_path)?.norm2_sq())
}

/// Normalized connectivity `κ(u, v) = χ(u, v) / χ(u, u)` (Definition 9).
///
/// Returns `None` when `u` has zero visibility (no instantiations of the
/// feature path at all), in which case the measure is undefined; see the
/// NetOut implementation for how such vertices are ranked.
pub fn normalized_connectivity(
    graph: &HinGraph,
    u: VertexId,
    v: VertexId,
    feature_path: &MetaPath,
) -> Result<Option<f64>, GraphError> {
    let pu = neighbor_vector(graph, u, feature_path)?;
    let vis = pu.norm2_sq();
    if vis == 0.0 {
        return Ok(None);
    }
    let pv = neighbor_vector(graph, v, feature_path)?;
    Ok(Some(pu.dot(&pv) / vis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::schema::bibliographic_schema;
    use crate::sparse::SparseVecBuilder;

    /// The Figure 1(b) network (see `graph::tests` for the layout):
    /// π_APA(Ava,Liam)=1, π_APA(Liam,Zoe)=2, Φ_APA(Zoe)=[Ava:1,Liam:2,Zoe:5],
    /// Φ_APV(Zoe)=[ICDE:2,KDD:3].
    fn figure1() -> HinGraph {
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
        let papers: [(&str, &[VertexId], VertexId); 6] = [
            ("p1", &[ava, zoe], icde),
            ("p2", &[liam, zoe], icde),
            ("p3", &[liam, zoe], kdd),
            ("p4", &[zoe], kdd),
            ("p5", &[zoe], kdd),
            ("p6", &[ava, liam], icde),
        ];
        for (name, authors, ven) in papers {
            let p = gb.add_vertex(paper, name).unwrap();
            for &a in authors {
                gb.add_edge(a, p).unwrap();
            }
            gb.add_edge(p, ven).unwrap();
        }
        gb.build()
    }

    fn ids(g: &HinGraph) -> (VertexId, VertexId, VertexId, VertexId, VertexId) {
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let venue = g.schema().vertex_type_by_name("venue").unwrap();
        (
            g.vertex_by_name(author, "Ava").unwrap(),
            g.vertex_by_name(author, "Liam").unwrap(),
            g.vertex_by_name(author, "Zoe").unwrap(),
            g.vertex_by_name(venue, "ICDE").unwrap(),
            g.vertex_by_name(venue, "KDD").unwrap(),
        )
    }

    #[test]
    fn paper_example_coauthor_counts() {
        // |π_Pca(Ava, Liam)| = 1 and |π_Pca(Liam, Zoe)| = 2 (Definition 5
        // examples in Section 3).
        let g = figure1();
        let (ava, liam, zoe, _, _) = ids(&g);
        let pca = MetaPath::parse("author.paper.author", g.schema()).unwrap();
        assert_eq!(path_count(&g, ava, liam, &pca).unwrap(), 1.0);
        assert_eq!(path_count(&g, liam, zoe, &pca).unwrap(), 2.0);
    }

    #[test]
    fn paper_example_neighborhood() {
        // N_Pca(Zoe) = {Ava, Liam} — the paper's Definition 6 example
        // (plus Zoe herself: she coauthors with herself via her own papers;
        // the paper's Φ example indeed includes Zoe:5).
        let g = figure1();
        let (ava, liam, zoe, _, _) = ids(&g);
        let pca = MetaPath::parse("author.paper.author", g.schema()).unwrap();
        let nb = neighborhood(&g, zoe, &pca).unwrap();
        assert_eq!(nb, vec![ava, liam, zoe]);
    }

    #[test]
    fn paper_example_neighbor_vectors() {
        // Φ_Pca(Zoe) = [Ava:1, Liam:2, Zoe:5]; Φ_APV(Zoe) = [ICDE:2, KDD:3].
        let g = figure1();
        let (ava, liam, zoe, icde, kdd) = ids(&g);
        let pca = MetaPath::parse("author.paper.author", g.schema()).unwrap();
        let phi = neighbor_vector(&g, zoe, &pca).unwrap();
        assert_eq!(phi.get(ava), 1.0);
        assert_eq!(phi.get(liam), 2.0);
        assert_eq!(phi.get(zoe), 5.0);
        let pv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let phi = neighbor_vector(&g, zoe, &pv).unwrap();
        assert_eq!(phi.get(icde), 2.0);
        assert_eq!(phi.get(kdd), 3.0);
        assert_eq!(phi.nnz(), 2);
    }

    #[test]
    fn long_path_propagation() {
        // APVPA: Zoe -> venues [ICDE:2, KDD:3] -> papers -> authors.
        let g = figure1();
        let (_, _, zoe, _, _) = ids(&g);
        let apvpa = MetaPath::parse("author.paper.venue.paper.author", g.schema()).unwrap();
        let phi = neighbor_vector(&g, zoe, &apvpa).unwrap();
        // Equivalent to Φ_APV(Zoe) · Φ_APV(x) for each author x.
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let pz = neighbor_vector(&g, zoe, &apv).unwrap();
        for author in g.vertices_of_type(g.vertex_type(zoe)) {
            let px = neighbor_vector(&g, *author, &apv).unwrap();
            assert_eq!(phi.get(*author), pz.dot(&px));
        }
    }

    #[test]
    fn connectivity_matches_symmetric_path_count() {
        let g = figure1();
        let (ava, _, zoe, _, _) = ids(&g);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let sym = apv.symmetric();
        let chi = connectivity(&g, ava, zoe, &apv).unwrap();
        let direct = path_count(&g, ava, zoe, &sym).unwrap();
        assert_eq!(chi, direct);
    }

    #[test]
    fn visibility_is_self_connectivity() {
        let g = figure1();
        let (_, _, zoe, _, _) = ids(&g);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        let vis = visibility(&g, zoe, &apv).unwrap();
        assert_eq!(vis, connectivity(&g, zoe, zoe, &apv).unwrap());
        assert_eq!(vis, 4.0 + 9.0); // [ICDE:2, KDD:3]
    }

    #[test]
    fn normalized_connectivity_asymmetric() {
        let g = figure1();
        let (ava, _, zoe, _, _) = ids(&g);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        // Ava: [ICDE:2]; Zoe: [ICDE:2, KDD:3]. χ(Ava,Zoe)=4.
        let k_az = normalized_connectivity(&g, ava, zoe, &apv)
            .unwrap()
            .unwrap();
        let k_za = normalized_connectivity(&g, zoe, ava, &apv)
            .unwrap()
            .unwrap();
        assert_eq!(k_az, 4.0 / 4.0);
        assert_eq!(k_za, 4.0 / 13.0);
        assert_ne!(k_az, k_za);
        // κ(v, v) = 1 always (when defined).
        assert_eq!(
            normalized_connectivity(&g, zoe, zoe, &apv)
                .unwrap()
                .unwrap(),
            1.0
        );
    }

    #[test]
    fn zero_visibility_returns_none() {
        let g = {
            let schema = bibliographic_schema();
            let author = schema.vertex_type_by_name("author").unwrap();
            let mut gb = GraphBuilder::new(schema);
            gb.add_vertex(author, "loner").unwrap();
            gb.add_vertex(author, "other").unwrap();
            gb.build()
        };
        let author = g.schema().vertex_type_by_name("author").unwrap();
        let loner = g.vertex_by_name(author, "loner").unwrap();
        let other = g.vertex_by_name(author, "other").unwrap();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        assert_eq!(
            normalized_connectivity(&g, loner, other, &apv).unwrap(),
            None
        );
    }

    #[test]
    fn start_type_mismatch_rejected() {
        let g = figure1();
        let (_, _, _, icde, _) = ids(&g);
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        assert!(matches!(
            neighbor_vector(&g, icde, &apv),
            Err(GraphError::StartTypeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_vertex_rejected() {
        let g = figure1();
        let apv = MetaPath::parse("author.paper.venue", g.schema()).unwrap();
        assert!(matches!(
            neighbor_vector(&g, VertexId(9999), &apv),
            Err(GraphError::UnknownVertex(_))
        ));
    }

    /// One hop through the hash-map accumulator, list by list straight off
    /// the per-edge-type adjacency: the reference the workspace kernel and
    /// the hop cursor are checked against.
    fn propagate_step_reference(
        g: &HinGraph,
        frontier: &SparseVec,
        to: crate::ids::VertexTypeId,
    ) -> SparseVec {
        let mut acc = SparseVecBuilder::new();
        for (u, w) in frontier.iter() {
            let from = g.vertex_type(u);
            for &et in g.schema().edge_types_from_to(from, to) {
                g.neighbors_forward(u, et)
                    .iter()
                    .for_each(|&n| acc.add(n, w));
            }
            for &et in g.schema().edge_types_from_to(to, from) {
                g.neighbors_reverse(u, et)
                    .iter()
                    .for_each(|&n| acc.add(n, w));
            }
        }
        acc.finish()
    }

    #[test]
    fn workspace_kernel_matches_hashmap_reference() {
        // Bit-identical on every hop, including shared-workspace reuse
        // across vertices and paths.
        let g = figure1();
        let mut ws = DenseAccumulator::new();
        for path in [
            "author.paper.author",
            "author.paper.venue",
            "author.paper.venue.paper.author",
        ] {
            let p = MetaPath::parse(path, g.schema()).unwrap();
            for v in 0..g.vertex_count() as u32 {
                let v = VertexId(v);
                if g.vertex_type(v) != p.source_type() {
                    continue;
                }
                let dense = neighbor_vector_with(&g, v, &p, &mut ws).unwrap();
                let mut frontier = SparseVec::unit(v);
                for link in p.types().windows(2) {
                    frontier = propagate_step_reference(&g, &frontier, link[1]);
                    if frontier.is_empty() {
                        break;
                    }
                }
                assert_eq!(dense, frontier, "{path} Φ({v:?})");
            }
        }
    }

    #[test]
    fn identity_path_is_unit_vector() {
        let g = figure1();
        let (_, _, zoe, _, _) = ids(&g);
        let a = MetaPath::parse("author", g.schema()).unwrap();
        let phi = neighbor_vector(&g, zoe, &a).unwrap();
        assert_eq!(phi, SparseVec::unit(zoe));
    }
}

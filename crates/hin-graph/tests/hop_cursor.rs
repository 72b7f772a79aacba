//! The hop cursor against a brute-force path enumerator that never touches
//! it: the enumerator walks `neighbors_forward` / `neighbors_reverse` of
//! every connecting edge type straight off the schema's pair table, the way
//! Definition 5 reads. Covers the schema shapes the bibliographic fixtures
//! do not: parallel edge types, a self-typed edge type, mixed-type
//! frontiers, and snapshot-style mapped columns.

use hin_graph::{
    traverse, ByteRegion, CsrStore, DenseAccumulator, GraphBuilder, GraphStore, HeapRegion,
    HinGraph, MetaPath, SchemaBuilder, SparseVec, Store, VertexId, VertexTypeId,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Every `to`-typed neighbor of `v`, with multiplicity, from the raw lists.
fn raw_neighbors(g: &HinGraph, v: VertexId, to: VertexTypeId) -> Vec<VertexId> {
    let from = g.vertex_type(v);
    let mut out = Vec::new();
    for &et in g.schema().edge_types_from_to(from, to) {
        out.extend_from_slice(g.neighbors_forward(v, et));
    }
    for &et in g.schema().edge_types_from_to(to, from) {
        out.extend_from_slice(g.neighbors_reverse(v, et));
    }
    out
}

/// Brute-force `Φ_P(v)`: enumerate all instantiations by DFS.
fn enumerate_paths(g: &HinGraph, v: VertexId, path: &MetaPath) -> BTreeMap<VertexId, u64> {
    fn dfs(
        g: &HinGraph,
        current: VertexId,
        remaining: &[VertexTypeId],
        counts: &mut BTreeMap<VertexId, u64>,
    ) {
        match remaining.split_first() {
            None => *counts.entry(current).or_insert(0) += 1,
            Some((&next, rest)) => {
                for n in raw_neighbors(g, current, next) {
                    dfs(g, n, rest, counts);
                }
            }
        }
    }
    let mut counts = BTreeMap::new();
    dfs(g, v, &path.types()[1..], &mut counts);
    counts
}

fn as_counts(phi: &SparseVec) -> BTreeMap<VertexId, u64> {
    phi.iter().map(|(v, x)| (v, x as u64)).collect()
}

/// Check `Φ_P(v)` for every start vertex of every path, plus the per-vertex
/// accessors the cursor backs.
fn check_paths(g: &HinGraph, paths: &[&str]) {
    for spec in paths {
        let path = MetaPath::parse(spec, g.schema()).unwrap();
        for &v in g.vertices_of_type(path.source_type()) {
            let phi = traverse::neighbor_vector(g, v, &path).unwrap();
            assert_eq!(
                as_counts(&phi),
                enumerate_paths(g, v, &path),
                "{spec} from {v:?}"
            );
        }
    }
    for t in g.schema().vertex_type_ids() {
        for v in g.vertices() {
            let raw = raw_neighbors(g, v, t);
            assert_eq!(g.step_neighbors(v, t).collect::<Vec<_>>(), raw);
            assert_eq!(g.step_degree(v, t), raw.len());
            let hop = g.hop(g.vertex_type(v), t);
            assert_eq!(hop.neighbors(v).collect::<Vec<_>>(), raw);
            assert_eq!(hop.degree(v), raw.len());
        }
    }
}

/// A deterministic stream of small numbers (xorshift64*).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

/// Movies: `actor` and `film` joined by two edge types in opposite declared
/// orientations (`acted_in: actor → film`, `stars: film → actor`), plus
/// `film → studio`. Parallel edges within and across the two types.
fn movie_network(seed: u64) -> HinGraph {
    let mut sb = SchemaBuilder::new();
    let actor = sb.vertex_type("actor");
    let film = sb.vertex_type("film");
    let studio = sb.vertex_type("studio");
    let acted_in = sb.edge_type("acted_in", actor, film);
    let stars = sb.edge_type("stars", film, actor);
    let directed = sb.edge_type("directed", actor, film);
    sb.edge_type("made_by", film, studio);
    let mut gb = GraphBuilder::new(sb.build().unwrap());
    let actors: Vec<_> = (0..6)
        .map(|i| gb.add_vertex(actor, format!("a{i}")).unwrap())
        .collect();
    let films: Vec<_> = (0..5)
        .map(|i| gb.add_vertex(film, format!("f{i}")).unwrap())
        .collect();
    let studios: Vec<_> = (0..2)
        .map(|i| gb.add_vertex(studio, format!("s{i}")).unwrap())
        .collect();
    let mut rng = Rng(seed);
    for _ in 0..40 {
        let (a, f) = (actors[rng.below(6)], films[rng.below(5)]);
        let et = [acted_in, stars, directed][rng.below(3)];
        gb.add_edge_typed(a, f, et).unwrap();
    }
    for &f in &films {
        gb.add_edge(f, studios[rng.below(2)]).unwrap();
    }
    gb.build()
}

/// People who `know` each other (a self-typed edge type, self-loops
/// included) and `work_at` companies.
fn social_network(seed: u64) -> HinGraph {
    let mut sb = SchemaBuilder::new();
    let person = sb.vertex_type("person");
    let company = sb.vertex_type("company");
    sb.edge_type("knows", person, person);
    sb.edge_type("works_at", person, company);
    let mut gb = GraphBuilder::new(sb.build().unwrap());
    let people: Vec<_> = (0..7)
        .map(|i| gb.add_vertex(person, format!("p{i}")).unwrap())
        .collect();
    let companies: Vec<_> = (0..3)
        .map(|i| gb.add_vertex(company, format!("c{i}")).unwrap())
        .collect();
    let mut rng = Rng(seed);
    for _ in 0..18 {
        gb.add_edge(people[rng.below(7)], people[rng.below(7)])
            .unwrap();
    }
    gb.add_edge(people[0], people[0]).unwrap();
    for &p in &people {
        gb.add_edge(p, companies[rng.below(3)]).unwrap();
    }
    gb.build()
}

#[test]
fn two_edge_types_between_one_type_pair() {
    for seed in 1..=8 {
        let g = movie_network(seed);
        check_paths(
            &g,
            &[
                "actor.film",
                "film.actor",
                "actor.film.actor",
                "film.actor.film",
                "actor.film.studio",
                "studio.film.actor.film",
            ],
        );
    }
}

#[test]
fn self_typed_edge_type_walks_both_directions() {
    for seed in 1..=8 {
        let g = social_network(seed);
        check_paths(
            &g,
            &[
                "person.person",
                "person.person.person",
                "person.person.company",
                "company.person.person.company",
            ],
        );
        // The literal self-loop p0→p0 sits in p0's forward and reverse list:
        // seen twice, the undirected-degree convention.
        let person = g.schema().vertex_type_by_name("person").unwrap();
        let p0 = g.vertex_by_name(person, "p0").unwrap();
        let loops = g.step_neighbors(p0, person).filter(|&n| n == p0).count();
        assert!(loops >= 2 && loops % 2 == 0, "{loops}");
    }
}

#[test]
fn mixed_type_frontier_resolves_a_hop_per_type_run() {
    let g = movie_network(3);
    let film = g.schema().vertex_type_by_name("film").unwrap();
    // Actors and studios both link to films, and ids follow construction
    // order (actors, films, studios), so the frontier changes type midway.
    // Non-integral weights make the per-id addition order visible.
    let frontier: SparseVec = g
        .vertices()
        .filter(|&v| g.vertex_type(v) != film)
        .enumerate()
        .map(|(i, v)| (v, 0.1 + i as f64 / 3.0))
        .collect();
    let mut expected: BTreeMap<VertexId, f64> = BTreeMap::new();
    for (u, w) in frontier.iter() {
        for n in raw_neighbors(&g, u, film) {
            *expected.entry(n).or_insert(0.0) += w;
        }
    }
    let mut ws = DenseAccumulator::new();
    let got = traverse::propagate_step_with(&g, &frontier, film, &mut ws);
    assert_eq!(
        got.iter()
            .map(|(v, x)| (v, x.to_bits()))
            .collect::<Vec<_>>(),
        expected
            .iter()
            .map(|(&v, x)| (v, x.to_bits()))
            .collect::<Vec<_>>()
    );
    assert_eq!(traverse::propagate_step(&g, &frontier, film), got);
    // An empty frontier is an empty result, whatever the target type.
    assert!(traverse::propagate_step_with(&g, &SparseVec::new(), film, &mut ws).is_empty());
}

/// Lay every column of `g` out in one 8-aligned buffer and reopen it as
/// mapped stores, the way a snapshot loader does.
fn remap(g: &HinGraph) -> HinGraph {
    fn put<T: Copy>(
        buf: &mut Vec<u8>,
        items: &[T],
        bytes: impl Fn(T) -> Vec<u8>,
    ) -> (usize, usize) {
        buf.resize(buf.len().next_multiple_of(8), 0);
        let at = buf.len();
        for &item in items {
            buf.extend(bytes(item));
        }
        (at, items.len())
    }
    let c = g.columns();
    let mut buf = Vec::new();
    let id = |v: VertexId| v.0.to_ne_bytes().to_vec();
    let word = |x: u32| x.to_ne_bytes().to_vec();
    let vertex_types = put(&mut buf, c.vertex_types, |t| vec![t.0]);
    let name_blob = put(&mut buf, c.name_blob, |b| vec![b]);
    let name_offsets = put(&mut buf, c.name_offsets, word);
    let by_type_offsets = put(&mut buf, c.by_type_offsets, word);
    let by_type_ids = put(&mut buf, c.by_type_ids, id);
    let name_order = put(&mut buf, c.name_order, id);
    let csrs: Vec<_> = c
        .csrs
        .iter()
        .map(|(offsets, targets)| (put(&mut buf, offsets, word), put(&mut buf, targets, id)))
        .collect();
    let region: Arc<dyn ByteRegion> = Arc::new(HeapRegion::from_bytes(&buf));
    fn open<T: hin_graph::Pod>(
        region: &Arc<dyn ByteRegion>,
        (at, len): (usize, usize),
    ) -> Store<T> {
        Store::mapped(Arc::clone(region), at, len).unwrap()
    }
    HinGraph::from_store(GraphStore {
        schema: c.schema.clone(),
        vertex_types: open(&region, vertex_types),
        name_blob: open(&region, name_blob),
        name_offsets: open(&region, name_offsets),
        by_type_offsets: open(&region, by_type_offsets),
        by_type_ids: open(&region, by_type_ids),
        name_order: open(&region, name_order),
        csrs: csrs
            .into_iter()
            .map(|(offsets, targets)| CsrStore {
                offsets: open(&region, offsets),
                targets: open(&region, targets),
            })
            .collect(),
        edge_count: c.edge_count,
    })
    .unwrap()
}

#[test]
fn mapped_graph_propagates_like_the_owned_one() {
    for (owned, paths) in [
        (
            movie_network(5),
            &["actor.film.actor.film", "studio.film.actor"][..],
        ),
        (
            social_network(5),
            &["person.person.person", "company.person.person"][..],
        ),
    ] {
        let mapped = remap(&owned);
        assert!(mapped.is_mapped() && !owned.is_mapped());
        check_paths(&mapped, paths);
        for spec in paths {
            let path = MetaPath::parse(spec, owned.schema()).unwrap();
            for &v in owned.vertices_of_type(path.source_type()) {
                assert_eq!(
                    traverse::neighbor_vector(&mapped, v, &path).unwrap(),
                    traverse::neighbor_vector(&owned, v, &path).unwrap()
                );
            }
        }
    }
}

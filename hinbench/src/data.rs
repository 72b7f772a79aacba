//! The inputs: the graph (from the frozen config) and the two query lists
//! (from the workload seed).

use crate::profile::Profile;
use crate::util::{Fnv64, SplitMix64};
use hin_datagen::dblp::generate;
use hin_datagen::workload::QueryTemplate;
use hin_graph::{HinGraph, VertexId};
use std::time::Instant;

pub struct Graph {
    pub graph: HinGraph,
    pub generate_s: f64,
    pub hash: u64,
}

/// Generate the profile's graph and check it against the pin.
pub fn build_graph(profile: &Profile) -> Result<Graph, String> {
    let t = Instant::now();
    let graph = generate(&profile.graph).graph;
    let generate_s = t.elapsed().as_secs_f64();
    let hash = graph_hash(&graph);
    if let Some(pin) = profile.pinned {
        let got = (graph.vertex_count(), graph.edge_count(), hash);
        if got != (pin.vertices, pin.edges, pin.graph_hash) {
            return Err(format!(
                "the frozen graph drifted: expected {} vertices, {} edges, hash {:#018x}; \
                 generated {} vertices, {} edges, hash {:#018x}. Numbers measured on another \
                 graph do not compare; refusing to report.",
                pin.vertices, pin.edges, pin.graph_hash, got.0, got.1, got.2
            ));
        }
    }
    Ok(Graph {
        graph,
        generate_s,
        hash,
    })
}

/// Hash of every vertex (type, name) and, per vertex and neighbour type, its
/// adjacency list in stored order.
pub fn graph_hash(graph: &HinGraph) -> u64 {
    let types: Vec<_> = graph.schema().vertex_type_ids().collect();
    let mut h = Fnv64::default();
    for v in graph.vertices() {
        h.u64(u64::from(graph.vertex_type(v).0));
        h.str(graph.vertex_name(v));
        for &t in &types {
            h.u64(graph.step_degree(v, t) as u64);
            for n in graph.step_neighbors(v, t) {
                h.u64(u64::from(n.0));
            }
        }
    }
    h.0
}

/// A list of query texts. Entries may repeat; `distinct[i]` is the index of
/// the first entry with the same text, so answers are kept once per text.
pub struct QueryList {
    pub texts: Vec<String>,
    pub distinct: Vec<usize>,
}

impl QueryList {
    fn new(texts: Vec<String>) -> QueryList {
        let mut first = std::collections::HashMap::new();
        let distinct = texts
            .iter()
            .enumerate()
            .map(|(i, t)| *first.entry(t.as_str()).or_insert(i))
            .collect();
        QueryList { texts, distinct }
    }

    pub fn len(&self) -> usize {
        self.texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }
}

fn instantiate(graph: &HinGraph, anchors: &[VertexId]) -> Vec<String> {
    anchors
        .iter()
        .enumerate()
        .map(|(i, &a)| QueryTemplate::ALL[i % 3].instantiate(graph.vertex_name(a)))
        .collect()
}

/// Active authors (at least one paper) in `strata` groups of equal size by
/// paper count: group 0 the least prolific, the last group the hubs.
///
/// Both lists draw one author per group. Marginally that is still a uniform
/// draw over the active authors, but every seed's list has the same mix of
/// cheap and expensive anchors; drawn without strata, a list's mean cost
/// moved by several percent from seed to seed on this heavy-tailed graph,
/// which is more than the changes the benchmark is meant to resolve.
fn author_strata(graph: &HinGraph, strata: usize) -> Vec<Vec<VertexId>> {
    let schema = graph.schema();
    let author = schema
        .vertex_type_by_name("author")
        .expect("bibliographic schema");
    let paper = schema
        .vertex_type_by_name("paper")
        .expect("bibliographic schema");
    let mut active: Vec<(usize, VertexId)> = graph
        .vertices_of_type(author)
        .iter()
        .map(|&a| (graph.step_degree(a, paper), a))
        .filter(|&(papers, _)| papers > 0)
        .collect();
    assert!(!active.is_empty(), "network has no authors with papers");
    active.sort_unstable();
    let strata = strata.clamp(1, active.len());
    (0..strata)
        .map(|k| {
            active[k * active.len() / strata..(k + 1) * active.len() / strata]
                .iter()
                .map(|&(_, a)| a)
                .collect()
        })
        .collect()
}

/// Visit `0..n` with a stride coprime to `n`, so that every prefix of the
/// visit spreads evenly over the range (a warm-up pass over the head of a
/// list then sees the same mix as the whole list).
fn strided(n: usize) -> impl Iterator<Item = usize> {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let stride = (n * 2 / 5..n).find(|&s| gcd(s, n) == 1).unwrap_or(1);
    (0..n).map(move |i| i * stride % n)
}

/// `uniform`: Q1/Q2/Q3 (Table 4) round-robin; per template, one author drawn
/// by the seed from each paper-count stratum of the active authors.
pub fn uniform_list(profile: &Profile, graph: &HinGraph, seed: u64) -> QueryList {
    let per_template = (profile.uniform_queries / 3).max(1);
    let strata = author_strata(graph, per_template);
    let mut rng = SplitMix64::new(seed ^ 0x756e_6966);
    let anchors: Vec<VertexId> = strided(strata.len())
        .flat_map(|k| {
            let group = &strata[k];
            [(); 3].map(|()| group[rng.below(group.len())])
        })
        .collect();
    QueryList::new(instantiate(graph, &anchors))
}

/// Popularity ranks of the `zipf` stream whose anchor does not depend on the
/// seed. Under Zipf(1) over 500 ranks the ten hottest carry 43 % of the
/// draws; with a different author there under every seed, throughput moved
/// by ± 8 % from seed to seed.
const FIXED_HOT_RANKS: usize = 10;

/// `zipf`: every query the stream can draw, three templates per anchor, so
/// entry `3 × rank + template`. The anchor of each popularity rank comes from
/// a paper-count stratum fixed by the profile (a frozen shuffle of the
/// strata). For the hottest ranks it is the stratum's middle member; for all
/// others the seed decides which member it is.
pub fn zipf_universe(profile: &Profile, graph: &HinGraph, seed: u64) -> QueryList {
    let strata = author_strata(graph, profile.zipf_anchors);
    let mut order: Vec<usize> = (0..strata.len()).collect();
    let mut frozen = SplitMix64::new(profile.graph.seed ^ 0x7374_7261);
    for i in (1..order.len()).rev() {
        order.swap(i, frozen.below(i + 1));
    }
    let mut rng = SplitMix64::new(seed ^ 0x5a49_5046);
    let anchors: Vec<VertexId> = order
        .iter()
        .enumerate()
        .flat_map(|(rank, &k)| {
            let group = &strata[k];
            let a = if rank < FIXED_HOT_RANKS {
                group[group.len() / 2]
            } else {
                group[rng.below(group.len())]
            };
            [a, a, a]
        })
        .collect();
    QueryList::new(instantiate(graph, &anchors))
}

/// The `zipf` draw stream: templates round-robin, anchor ranks Zipf(s = 1)
/// by inversion over the cumulative weights `1/r`.
pub struct ZipfStream {
    cumulative: Vec<f64>,
    rng: SplitMix64,
    draws: usize,
}

impl ZipfStream {
    pub fn new(anchors: usize, seed: u64) -> ZipfStream {
        let mut total = 0.0;
        let cumulative = (1..=anchors)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        ZipfStream {
            cumulative,
            rng: SplitMix64::new(seed ^ 0x7a69_7066),
            draws: 0,
        }
    }

    /// Index into the list `zipf_universe` returned.
    pub fn next_index(&mut self) -> usize {
        let total = *self.cumulative.last().expect("at least one anchor");
        let x = self.rng.next_f64() * total;
        let rank = self
            .cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1);
        let template = self.draws % 3;
        self.draws += 1;
        3 * rank + template
    }
}

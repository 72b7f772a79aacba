//! Candidate/reference set retrieval (the `FROM` / `COMPARED TO` clauses).
//!
//! A set expression evaluates to a sorted, de-duplicated list of vertex ids.
//! Neighborhood walks go through the active [`VectorSource`], so set
//! retrieval also benefits from pre-materialization — the paper notes this
//! explicitly at the end of Section 6.2.

use crate::engine::budget::ExecCtx;
use crate::engine::source::VectorSource;
use crate::error::EngineError;
use hin_graph::{HinGraph, VertexId};
use hin_query::validate::{BoundCondition, BoundSetExpr, BoundSetPrimary};
use std::time::Instant;

/// Evaluate a set expression to its member vertices (ascending id order).
///
/// Set-algebra work is attributed to `ctx.stats.set_retrieval`; vector
/// materialization inside walks is attributed by the source as usual. The
/// context's budget is checked per set-algebra node, per filtered member,
/// and — through the source — per propagation step.
pub fn eval_set(
    graph: &HinGraph,
    source: &dyn VectorSource,
    expr: &BoundSetExpr,
    ctx: &mut ExecCtx,
) -> Result<Vec<VertexId>, EngineError> {
    ctx.checkpoint()?;
    match expr {
        BoundSetExpr::Primary(p) => eval_primary(graph, source, p, ctx),
        BoundSetExpr::Union(a, b) => {
            let left = eval_set(graph, source, a, ctx)?;
            let right = eval_set(graph, source, b, ctx)?;
            let t = Instant::now();
            let merged = union_sorted(&left, &right);
            ctx.stats.set_retrieval += t.elapsed();
            Ok(merged)
        }
        BoundSetExpr::Intersect(a, b) => {
            let left = eval_set(graph, source, a, ctx)?;
            let right = eval_set(graph, source, b, ctx)?;
            let t = Instant::now();
            let merged = intersect_sorted(&left, &right);
            ctx.stats.set_retrieval += t.elapsed();
            Ok(merged)
        }
        BoundSetExpr::Except(a, b) => {
            let left = eval_set(graph, source, a, ctx)?;
            let right = eval_set(graph, source, b, ctx)?;
            let t = Instant::now();
            let merged = difference_sorted(&left, &right);
            ctx.stats.set_retrieval += t.elapsed();
            Ok(merged)
        }
    }
}

fn eval_primary(
    graph: &HinGraph,
    source: &dyn VectorSource,
    p: &BoundSetPrimary,
    ctx: &mut ExecCtx,
) -> Result<Vec<VertexId>, EngineError> {
    let t = Instant::now();
    let anchor_type = p.anchor_type();
    let anchor = graph
        .vertex_by_name(anchor_type, &p.anchor_name)
        .ok_or_else(|| EngineError::UnknownAnchor {
            type_name: graph.schema().vertex_type_name(anchor_type).to_string(),
            name: p.anchor_name.clone(),
        })?;
    ctx.stats.set_retrieval += t.elapsed();

    // The neighborhood N_P(anchor) is the support of Φ_P(anchor). For the
    // identity path this is just the anchor itself.
    let members: Vec<VertexId> = if p.path.is_empty() {
        vec![anchor]
    } else {
        let phi = source.neighbor_vector(anchor, &p.path, ctx)?;
        phi.support().collect()
    };

    let Some(filter) = &p.filter else {
        return Ok(members);
    };
    let mut kept = Vec::with_capacity(members.len());
    for v in members {
        // Filtering can walk the graph per member; keep it cancellable.
        ctx.checkpoint()?;
        if eval_condition(graph, source, filter, v, ctx)? {
            kept.push(v);
        }
    }
    Ok(kept)
}

fn eval_condition(
    graph: &HinGraph,
    source: &dyn VectorSource,
    cond: &BoundCondition,
    v: VertexId,
    ctx: &mut ExecCtx,
) -> Result<bool, EngineError> {
    match cond {
        BoundCondition::And(a, b) => {
            Ok(eval_condition(graph, source, a, v, ctx)?
                && eval_condition(graph, source, b, v, ctx)?)
        }
        BoundCondition::Or(a, b) => {
            Ok(eval_condition(graph, source, a, v, ctx)?
                || eval_condition(graph, source, b, v, ctx)?)
        }
        BoundCondition::Not(c) => Ok(!eval_condition(graph, source, c, v, ctx)?),
        BoundCondition::Count { path, op, value } => {
            // COUNT(alias.path) counts *distinct* reachable vertices
            // ("published at least 10 papers" — papers, not author-paper
            // links).
            let count = if path.len() == 1 {
                // Single hop: distinct neighbors directly, cheaper than a
                // full vector build when multiplicity is 1 anyway.
                let t = Instant::now();
                let hop = graph.hop(path.source_type(), path.target_type());
                let mut ns: Vec<VertexId> = hop.neighbors(v).collect();
                ns.sort_unstable();
                ns.dedup();
                let n = ns.len();
                ctx.stats.set_retrieval += t.elapsed();
                n
            } else {
                source.neighbor_vector(v, path, ctx)?.nnz()
            };
            Ok(op.eval(count as f64, *value))
        }
    }
}

/// Union of two ascending id lists.
pub fn union_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Difference (`a \ b`) of two ascending id lists.
pub fn difference_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out
}

/// Intersection of two ascending id lists.
pub fn intersect_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::source::TraversalSource;
    use hin_datagen::toy;
    use hin_query::validate::parse_and_bind;

    fn eval(src: &str) -> Result<Vec<String>, EngineError> {
        let g = toy::figure1_network();
        let q = parse_and_bind(src, g.schema())?;
        let source = TraversalSource::new(&g);
        let mut ctx = ExecCtx::unbounded();
        let ids = eval_set(&g, &source, &q.candidate, &mut ctx)?;
        Ok(ids
            .into_iter()
            .map(|v| g.vertex_name(v).to_string())
            .collect())
    }

    #[test]
    fn neighborhood_walk() {
        // Authors with a KDD paper: Liam, Zoe.
        let names =
            eval("FIND OUTLIERS FROM venue{\"KDD\"}.paper.author JUDGED BY author.paper.venue;")
                .unwrap();
        assert_eq!(names, vec!["Liam", "Zoe"]);
    }

    #[test]
    fn anchor_only() {
        let names =
            eval("FIND OUTLIERS FROM author{\"Zoe\"} JUDGED BY author.paper.venue;").unwrap();
        assert_eq!(names, vec!["Zoe"]);
    }

    #[test]
    fn unknown_anchor_error() {
        let err = eval("FIND OUTLIERS FROM author{\"Nobody\"} JUDGED BY author.paper.venue;")
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownAnchor { .. }));
        assert!(err.to_string().contains("Nobody"));
    }

    #[test]
    fn union_of_venue_authors() {
        // ICDE authors: Ava, Liam, Zoe. KDD authors: Liam, Zoe.
        let names = eval(
            "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author UNION venue{\"KDD\"}.paper.author \
             JUDGED BY author.paper.venue;",
        )
        .unwrap();
        assert_eq!(names, vec!["Ava", "Liam", "Zoe"]);
    }

    #[test]
    fn intersect_of_venue_authors() {
        let names = eval(
            "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author INTERSECT venue{\"KDD\"}.paper.author \
             JUDGED BY author.paper.venue;",
        )
        .unwrap();
        assert_eq!(names, vec!["Liam", "Zoe"]);
    }

    #[test]
    fn where_count_filters() {
        // Authors of ICDE papers with more than 2 papers total: Zoe (5) and
        // Liam (3); Ava has 2.
        let names = eval(
            "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author AS A WHERE COUNT(A.paper) > 2 \
             JUDGED BY author.paper.venue;",
        )
        .unwrap();
        assert_eq!(names, vec!["Liam", "Zoe"]);
    }

    #[test]
    fn where_count_long_path() {
        // Count distinct venues: Ava has 1 (ICDE), Liam 2, Zoe 2.
        let names = eval(
            "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author AS A \
             WHERE COUNT(A.paper.venue) >= 2 JUDGED BY author.paper.venue;",
        )
        .unwrap();
        assert_eq!(names, vec!["Liam", "Zoe"]);
    }

    #[test]
    fn where_boolean_combinators() {
        let names = eval(
            "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author AS A \
             WHERE COUNT(A.paper) > 2 AND NOT COUNT(A.paper.venue) < 2 \
             JUDGED BY author.paper.venue;",
        )
        .unwrap();
        assert_eq!(names, vec!["Liam", "Zoe"]);
        let names = eval(
            "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author AS A \
             WHERE COUNT(A.paper) = 2 OR COUNT(A.paper) = 5 \
             JUDGED BY author.paper.venue;",
        )
        .unwrap();
        assert_eq!(names, vec!["Ava", "Zoe"]);
    }

    #[test]
    fn sorted_helpers() {
        let v = |xs: &[u32]| xs.iter().map(|&x| VertexId(x)).collect::<Vec<_>>();
        assert_eq!(
            union_sorted(&v(&[1, 3, 5]), &v(&[2, 3, 6])),
            v(&[1, 2, 3, 5, 6])
        );
        assert_eq!(intersect_sorted(&v(&[1, 3, 5]), &v(&[2, 3, 5])), v(&[3, 5]));
        assert_eq!(union_sorted(&v(&[]), &v(&[1])), v(&[1]));
        assert_eq!(intersect_sorted(&v(&[]), &v(&[1])), v(&[]));
        assert_eq!(
            difference_sorted(&v(&[1, 3, 5, 7]), &v(&[3, 4, 7])),
            v(&[1, 5])
        );
        assert_eq!(difference_sorted(&v(&[]), &v(&[1])), v(&[]));
        assert_eq!(difference_sorted(&v(&[2]), &v(&[])), v(&[2]));
    }

    #[test]
    fn except_removes_anchor_from_own_neighborhood() {
        // The motivating use: exclude the anchor from their coauthor set.
        let names = eval(
            "FIND OUTLIERS FROM author{\"Zoe\"}.paper.author EXCEPT author{\"Zoe\"} \
             JUDGED BY author.paper.venue;",
        )
        .unwrap();
        assert_eq!(names, vec!["Ava", "Liam"]);
    }

    #[test]
    fn except_type_mismatch_rejected() {
        let err = eval(
            "FIND OUTLIERS FROM author{\"Zoe\"}.paper.author EXCEPT venue{\"KDD\"}.paper \
             JUDGED BY author.paper.venue;",
        )
        .unwrap_err();
        assert!(err.to_string().contains("different member types"));
    }
}

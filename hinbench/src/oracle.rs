//! The correctness gate: what every measured answer is compared with.
//!
//! Expected answers come from the plain serial baseline engine
//! (`QueryEngine::baseline`, one thread, no index, no caches). A sample of
//! them is checked in turn against an oracle assembled from the simplest
//! primitives — `traverse::neighborhood`, `traverse::neighbor_vector`,
//! `netout_scores_naive` (the literal Definition 10 double loop) and a sort —
//! so a bug shared by every engine path does not pass unseen.

use crate::data::QueryList;
use crate::util::{json_string, Fnv64};
use hin_graph::{traverse, HinGraph, SparseVec, VertexId};
use hin_query::validate::{parse_and_bind, BoundSetExpr};
use netout::measures::netout::netout_scores_naive;
use netout::{QueryEngine, QueryResult};
use std::fmt::Write as _;

/// What a query returns, reduced to what must repeat bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub candidates: usize,
    pub reference: usize,
    pub zero_visibility: usize,
    /// Ranked names with the bits of their scores, most outlying first.
    pub ranked: Vec<(String, u64)>,
}

impl Answer {
    pub fn of(result: &QueryResult) -> Answer {
        Answer {
            candidates: result.candidate_count,
            reference: result.reference_count,
            zero_visibility: result.zero_visibility.len(),
            ranked: result
                .ranked
                .iter()
                .map(|r| (r.name.clone(), r.score.to_bits()))
                .collect(),
        }
    }

    /// Whether a fresh engine result is this answer, without building one.
    pub fn matches(&self, result: &QueryResult) -> bool {
        self.candidates == result.candidate_count
            && self.reference == result.reference_count
            && self.zero_visibility == result.zero_visibility.len()
            && self.ranked.len() == result.ranked.len()
            && self
                .ranked
                .iter()
                .zip(&result.ranked)
                .all(|((name, bits), r)| *bits == r.score.to_bits() && *name == r.name)
    }

    fn hash_into(&self, h: &mut Fnv64) {
        h.u64(self.candidates as u64);
        h.u64(self.reference as u64);
        h.u64(self.zero_visibility as u64);
        h.u64(self.ranked.len() as u64);
        for (name, bits) in &self.ranked {
            h.str(name);
            h.u64(*bits);
        }
    }

    /// The `result` line a server must send for this answer, up to the
    /// digits of `exec_us` (after which only `}}` may follow). Written out
    /// here, not produced by `hin-service`'s encoder, so the encoder is
    /// checked too. Scores print the way `f64::to_string` does: the shortest
    /// text that reads back to the same bits.
    pub fn wire_prefix(&self) -> String {
        let mut out = String::from("{\"result\":{\"measure\":\"NetOut\",\"candidates\":");
        let _ = write!(
            out,
            "{},\"reference\":{},\"ranked\":[",
            self.candidates, self.reference
        );
        for (i, (name, bits)) in self.ranked.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"rank\":{},\"name\":", i + 1);
            json_string(&mut out, name);
            let _ = write!(out, ",\"score\":{}}}", f64::from_bits(*bits));
        }
        let _ = write!(
            out,
            "],\"zero_visibility\":{},\"degraded\":null,\"exec_us\":",
            self.zero_visibility
        );
        out
    }
}

/// Check a `result` line against its expected prefix; `Some(exec_us)` when it
/// is the expected answer.
pub fn check_wire_line(line: &str, prefix: &str) -> Option<u64> {
    let digits = line.strip_prefix(prefix)?.strip_suffix("}}")?;
    digits.parse().ok()
}

/// Expected answers for every distinct text of `list`, on `threads` threads
/// that each run the serial engine over a contiguous part of the list.
pub fn expected_answers(
    graph: &HinGraph,
    list: &QueryList,
    threads: usize,
) -> Result<Vec<Answer>, String> {
    let n = list.len();
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let parts: Vec<Result<Vec<Option<Answer>>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                scope.spawn(move || {
                    let engine = QueryEngine::baseline(graph);
                    (start..(start + chunk).min(n))
                        .map(|i| {
                            if list.distinct[i] != i {
                                return Ok(None);
                            }
                            engine
                                .execute_str(&list.texts[i])
                                .map(|r| Some(Answer::of(&r)))
                                .map_err(|e| format!("oracle: {}: {e}", list.texts[i]))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("oracle thread panicked".into()))
            })
            .collect()
    });
    let mut firsts = Vec::with_capacity(n);
    for part in parts {
        firsts.extend(part?);
    }
    // Repeated texts share the first occurrence's answer.
    Ok((0..n)
        .map(|i| {
            firsts[list.distinct[i]]
                .clone()
                .expect("first occurrences are answered")
        })
        .collect())
}

/// One hash over the answers of the list's distinct queries, in list order;
/// it does not depend on how many operations a run performed.
pub fn fingerprint(list: &QueryList, answers: &[Answer]) -> u64 {
    let mut h = Fnv64::default();
    for (i, answer) in answers.iter().enumerate() {
        if list.distinct[i] == i {
            answer.hash_into(&mut h);
        }
    }
    h.0
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Recompute `text`'s answer from Definitions 6, 7 and 10 directly and
/// compare it with `expected`. Handles the Table 4 shape: one anchored
/// neighbourhood as candidate set, no reference clause, one feature path.
pub fn check_against_primitives(
    graph: &HinGraph,
    text: &str,
    expected: &Answer,
) -> Result<(), String> {
    let bound = parse_and_bind(text, graph.schema()).map_err(|e| e.to_string())?;
    let (BoundSetExpr::Primary(primary), None, [feature]) =
        (&bound.candidate, &bound.reference, &bound.features[..])
    else {
        return Err(format!("oracle handles Table 4 templates only: {text}"));
    };
    if primary.filter.is_some() {
        return Err(format!("oracle handles unfiltered sets only: {text}"));
    }
    let anchor = graph
        .vertex_by_name(primary.anchor_type(), &primary.anchor_name)
        .ok_or_else(|| format!("unknown anchor in {text}"))?;
    let members =
        traverse::neighborhood(graph, anchor, &primary.path).map_err(|e| e.to_string())?;
    let vectors: Vec<(VertexId, SparseVec)> = members
        .iter()
        .map(|&v| traverse::neighbor_vector(graph, v, &feature.path).map(|phi| (v, phi)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let scores = netout_scores_naive(&vectors, &vectors);
    let mut finite: Vec<(VertexId, f64)> = scores
        .iter()
        .copied()
        .filter(|(_, s)| s.is_finite())
        .collect();
    finite.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    finite.truncate(bound.top.unwrap_or(usize::MAX));

    let fail = |what: String| Err(format!("oracle disagrees on {text}: {what}"));
    if members.len() != expected.candidates || members.len() != expected.reference {
        return fail(format!(
            "{} members, engine says {}",
            members.len(),
            expected.candidates
        ));
    }
    if scores.len() - scores.iter().filter(|(_, s)| s.is_finite()).count()
        != expected.zero_visibility
    {
        return fail("zero-visibility counts differ".into());
    }
    if finite.len() != expected.ranked.len() {
        return fail(format!(
            "{} ranked, engine says {}",
            finite.len(),
            expected.ranked.len()
        ));
    }
    // Position by position the scores agree; name by name the engine's score
    // is the oracle's score for that vertex. Together these hold the ranking
    // fixed up to swaps among scores that differ by rounding only.
    for (i, ((name, bits), (_, oracle_score))) in expected.ranked.iter().zip(&finite).enumerate() {
        let engine_score = f64::from_bits(*bits);
        if !close(engine_score, *oracle_score) {
            return fail(format!("rank {}: {engine_score} vs {oracle_score}", i + 1));
        }
        let own = scores
            .iter()
            .find(|(v, _)| graph.vertex_name(*v) == name)
            .map(|(_, s)| *s);
        match own {
            Some(s) if close(engine_score, s) => {}
            _ => {
                return fail(format!(
                    "rank {}: {name} scores {own:?}, engine says {engine_score}",
                    i + 1
                ))
            }
        }
    }
    Ok(())
}

/// Check `sample` queries of `list`, spread evenly over the three templates
/// (entries are round-robin, so consecutive indices cycle through them).
/// Returns how many were checked.
pub fn check_sample(
    graph: &HinGraph,
    list: &QueryList,
    answers: &[Answer],
    sample: usize,
) -> Result<usize, String> {
    let checked = list.texts.iter().zip(answers).take(sample);
    let n = checked.len();
    for (text, answer) in checked {
        check_against_primitives(graph, text, answer)?;
    }
    Ok(n)
}

//! The [`OutlierMeasure`] trait and shared vector-set plumbing.

use crate::engine::topk::ScoreOrder;
use crate::error::EngineError;
use hin_graph::{PooledAccumulator, SparseVec, VertexId};

/// A set of vertices with their materialized feature vectors `Φ_P(·)`.
///
/// Materialization happens once in the executor; measures only read.
pub type VectorSet = [(VertexId, SparseVec)];

/// A measure that has absorbed its reference set and is ready to score
/// candidate shards independently.
///
/// `prepare` runs once per query (serially), doing all reference-side work:
/// summing reference vectors, building k-NN models, precomputing norms. The
/// resulting scorer is `Send + Sync` so the parallel executor can hand the
/// same prepared state to every shard; because each candidate is scored
/// purely from that shared immutable state, sharded execution is
/// bit-identical to serial execution by construction.
pub trait PreparedScorer: Send + Sync {
    /// Score a contiguous slice of candidates. Output order matches input
    /// order; concatenating shard outputs in shard order reproduces the
    /// serial output exactly.
    fn score_slice(&self, candidates: &VectorSet) -> Result<Vec<(VertexId, f64)>, EngineError>;
}

/// An outlierness measure: maps candidate vectors against a reference set of
/// vectors to one score per candidate.
pub trait OutlierMeasure: Send + Sync {
    /// Display name of the measure.
    fn name(&self) -> &'static str;

    /// Which end of the score scale is most outlying.
    fn order(&self) -> ScoreOrder;

    /// Absorb the reference set, performing all per-query precomputation
    /// (reference sums, k-NN models, cached norms), and return a scorer
    /// that can evaluate candidate shards independently.
    ///
    /// Errors that depend only on the measure's parameters or the reference
    /// set (e.g. `k == 0`, too few reference points) surface here, before
    /// any candidate work is spent.
    fn prepare<'a>(
        &'a self,
        reference: &'a VectorSet,
    ) -> Result<Box<dyn PreparedScorer + 'a>, EngineError>;

    /// Score every candidate. Output order matches input order.
    ///
    /// Implementations must tolerate empty vectors (vertices with no path
    /// instances); what score they assign is measure-specific and
    /// documented per measure.
    ///
    /// Provided in terms of [`OutlierMeasure::prepare`]; the parallel
    /// executor calls `prepare` directly so reference-side work happens
    /// once, not once per shard.
    fn scores(
        &self,
        candidates: &VectorSet,
        reference: &VectorSet,
    ) -> Result<Vec<(VertexId, f64)>, EngineError> {
        self.prepare(reference)?.score_slice(candidates)
    }
}

/// `Σ w·Φ` over `terms`, scattered term by term into a pooled workspace and
/// left there: per id the additions happen in term order, which is the
/// floating-point contract of the hoisted sums (DESIGN.md §10), and the cost
/// is the non-zeros scattered. A scorer keeps the loaded workspace and
/// scores each candidate with
/// [`DenseAccumulator::dot`](hin_graph::DenseAccumulator::dot) — read-only,
/// so it stays `Send + Sync` — until it is dropped and the workspace goes
/// back to the free list.
pub(crate) fn scatter_sum<'a>(
    terms: impl IntoIterator<Item = (&'a SparseVec, f64)>,
) -> PooledAccumulator {
    let mut sum = PooledAccumulator::checkout();
    for (phi, w) in terms {
        sum.add_scaled(phi.as_slice(), w);
    }
    sum
}

/// Sum of all reference vectors — the `Σ_{v_j ∈ S_r} Φ_P(v_j)` term that
/// Equation (1) hoists out of the per-candidate loop.
pub fn reference_sum(reference: &VectorSet) -> SparseVec {
    scatter_sum(reference.iter().map(|(_, phi)| (phi, 1.0))).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        pairs.iter().map(|&(i, x)| (VertexId(i), x)).collect()
    }

    #[test]
    fn reference_sum_accumulates() {
        let refs = vec![
            (VertexId(1), sv(&[(10, 1.0), (11, 2.0)])),
            (VertexId(2), sv(&[(11, 3.0), (12, 4.0)])),
        ];
        let sum = reference_sum(&refs);
        assert_eq!(sum, sv(&[(10, 1.0), (11, 5.0), (12, 4.0)]));
    }

    #[test]
    fn reference_sum_empty() {
        assert!(reference_sum(&[]).is_empty());
    }
}

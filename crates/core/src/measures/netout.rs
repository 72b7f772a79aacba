//! **NetOut** — the paper's outlierness measure (Section 5).
//!
//! For a candidate `v_i` and reference set `S_r`, with feature vectors
//! `Φ = Φ_P(·)` along the feature meta-path `P`:
//!
//! ```text
//! Ω_NetOut(v_i) = Σ_{v_j ∈ S_r} κ(v_i, v_j)
//!               = Σ_{v_j ∈ S_r} χ(v_i, v_j) / χ(v_i, v_i)
//!               = Φ(v_i) · ( Σ_{v_j ∈ S_r} Φ(v_j) ) / ‖Φ(v_i)‖²      (Eq. 1)
//! ```
//!
//! Smaller `Ω` ⇒ more outlying. The hoisted reference sum makes scoring all
//! candidates `O(|S_r| + |S_c|)` vector operations, the efficiency claim of
//! Section 6.1, and each operation costs the non-zeros of one vector: the
//! sum is scattered reference by reference into a dense workspace and a
//! candidate's dot product gathers its own non-zeros from it, so a query
//! costs `nnz(S_r) + nnz(S_c)` however wide the sum grows.
//! `benches/micro_ops.rs` times Eq. (1) against the naive double loop.
//!
//! **Zero-visibility candidates** (no instantiation of the feature path at
//! all, `χ(v,v) = 0`) have undefined normalized connectivity. We assign
//! `Ω = +∞`: such vertices have *no* information along the judged aspect, so
//! under NetOut's philosophy — which deliberately refuses to flag
//! low-visibility vertices (see the Joe example, Table 2) — they are ranked
//! least outlying, after every finite score. The executor also reports them
//! separately so an analyst can inspect them.

use super::common::{scatter_sum, OutlierMeasure, PreparedScorer, VectorSet};
use crate::engine::topk::ScoreOrder;
use crate::error::EngineError;
use hin_graph::{PooledAccumulator, VertexId};

/// The NetOut measure (Definition 10, computed via Equation (1)).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetOut;

/// NetOut with the Equation (1) reference sum hoisted out, still in the
/// workspace it was scattered into.
struct NetOutPrepared {
    ref_sum: PooledAccumulator,
}

impl PreparedScorer for NetOutPrepared {
    fn score_slice(&self, candidates: &VectorSet) -> Result<Vec<(VertexId, f64)>, EngineError> {
        Ok(candidates
            .iter()
            .map(|(v, phi)| {
                let visibility = phi.norm2_sq();
                let omega = if visibility == 0.0 {
                    f64::INFINITY
                } else {
                    self.ref_sum.dot(phi) / visibility
                };
                (*v, omega)
            })
            .collect())
    }
}

impl OutlierMeasure for NetOut {
    fn name(&self) -> &'static str {
        "NetOut"
    }

    fn order(&self) -> ScoreOrder {
        ScoreOrder::AscendingIsOutlier
    }

    fn prepare<'a>(
        &'a self,
        reference: &'a VectorSet,
    ) -> Result<Box<dyn PreparedScorer + 'a>, EngineError> {
        Ok(Box::new(NetOutPrepared {
            ref_sum: scatter_sum(reference.iter().map(|(_, phi)| (phi, 1.0))),
        }))
    }
}

/// Reference implementation: the literal Definition 10 double loop,
/// `O(|S_r| × |S_c|)`. Used to validate the Equation (1) rewrite (they must
/// agree to floating-point reassociation error) and by the baseline-cost
/// microbenchmark.
pub fn netout_scores_naive(candidates: &VectorSet, reference: &VectorSet) -> Vec<(VertexId, f64)> {
    candidates
        .iter()
        .map(|(v, phi)| {
            let visibility = phi.norm2_sq();
            if visibility == 0.0 {
                return (*v, f64::INFINITY);
            }
            let omega: f64 = reference
                .iter()
                .map(|(_, psi)| phi.dot(psi) / visibility)
                .sum();
            (*v, omega)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hin_graph::SparseVec;

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        pairs.iter().map(|&(i, x)| (VertexId(i), x)).collect()
    }

    /// The Table 1/2 toy workload, expressed directly as venue vectors:
    /// dims 0..4 = VLDB, KDD, STOC, SIGGRAPH.
    type Fixture = (Vec<(VertexId, SparseVec)>, Vec<(VertexId, SparseVec)>);

    fn table1() -> Fixture {
        let reference: Vec<_> = (0..100)
            .map(|i| {
                (
                    VertexId(100 + i),
                    sv(&[(0, 10.0), (1, 10.0), (2, 1.0), (3, 1.0)]),
                )
            })
            .collect();
        let candidates = vec![
            (VertexId(0), sv(&[(0, 10.0), (1, 10.0), (2, 1.0), (3, 1.0)])), // Sarah
            (VertexId(1), sv(&[(1, 1.0), (2, 20.0), (3, 20.0)])),           // Rob
            (VertexId(2), sv(&[(1, 5.0), (2, 10.0), (3, 10.0)])),           // Lucy
            (VertexId(3), sv(&[(3, 2.0)])),                                 // Joe
            (VertexId(4), sv(&[(3, 30.0)])),                                // Emma
        ];
        (candidates, reference)
    }

    #[test]
    fn reproduces_table2_netout_column() {
        // Table 2 of the paper: Ω_NetOut = 100, 6.24, 31.11, 50, 3.33.
        let (candidates, reference) = table1();
        let scores = NetOut.scores(&candidates, &reference).unwrap();
        let expected = [100.0, 6.24, 31.11, 50.0, 3.33];
        for ((_, omega), want) in scores.iter().zip(expected) {
            assert!(
                (omega - want).abs() < 0.005,
                "Ω = {omega}, paper says {want}"
            );
        }
    }

    #[test]
    fn efficient_matches_naive() {
        let (candidates, reference) = table1();
        let fast = NetOut.scores(&candidates, &reference).unwrap();
        let slow = netout_scores_naive(&candidates, &reference);
        for ((v1, a), (v2, b)) in fast.iter().zip(&slow) {
            assert_eq!(v1, v2);
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn zero_visibility_is_infinite() {
        let candidates = vec![(VertexId(0), SparseVec::new())];
        let reference = vec![(VertexId(1), sv(&[(0, 1.0)]))];
        let scores = NetOut.scores(&candidates, &reference).unwrap();
        assert!(scores[0].1.is_infinite());
        let naive = netout_scores_naive(&candidates, &reference);
        assert!(naive[0].1.is_infinite());
    }

    #[test]
    fn self_in_reference_contributes_one() {
        // κ(v, v) = 1: a candidate identical to the whole reference set of
        // size n scores exactly n.
        let phi = sv(&[(0, 3.0), (1, 4.0)]);
        let reference: Vec<_> = (0..7).map(|i| (VertexId(i), phi.clone())).collect();
        let candidates = vec![(VertexId(0), phi)];
        let scores = NetOut.scores(&candidates, &reference).unwrap();
        assert!((scores[0].1 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_reference_scores_zero() {
        // Degenerate but well-defined: Σ over an empty S_r is 0 for any
        // candidate with positive visibility.
        let candidates = vec![(VertexId(0), sv(&[(0, 1.0)]))];
        let scores = NetOut.scores(&candidates, &[]).unwrap();
        assert_eq!(scores[0].1, 0.0);
    }

    #[test]
    fn scale_invariance_of_direction_not_magnitude() {
        // Doubling a candidate's vector halves its Ω (visibility grows
        // quadratically, connectivity linearly) — the property that lets
        // NetOut flag high-visibility vertices PathSim misses (Emma vs Joe).
        let reference = vec![(VertexId(9), sv(&[(0, 1.0)]))];
        let once = vec![(VertexId(0), sv(&[(0, 1.0)]))];
        let twice = vec![(VertexId(0), sv(&[(0, 2.0)]))];
        let s1 = NetOut.scores(&once, &reference).unwrap()[0].1;
        let s2 = NetOut.scores(&twice, &reference).unwrap()[0].1;
        assert!((s1 - 2.0 * s2).abs() < 1e-12);
    }
}

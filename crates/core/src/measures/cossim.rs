//! `Ω_CosSim` — the cosine-similarity comparison measure of Section 5.2.
//!
//! ```text
//! Ω_CosSim(v_i) = Σ_{v_j ∈ S_r} Φ(v_i)·Φ(v_j) / (‖Φ(v_i)‖₂ ‖Φ(v_j)‖₂)
//! ```
//!
//! Cosine similarity ignores vector magnitude entirely, so two authors whose
//! venue distributions have the same *direction* are indistinguishable no
//! matter how much they published — Joe and Emma tie in Table 2, which is
//! exactly the failure mode the paper highlights.

use super::common::{scatter_sum, OutlierMeasure, PreparedScorer, VectorSet};
use crate::engine::topk::ScoreOrder;
use crate::error::EngineError;
use hin_graph::{PooledAccumulator, SparseVec, VertexId};

/// The `Ω_CosSim` measure.
#[derive(Debug, Clone, Copy, Default)]
pub struct CosSimMeasure;

/// Cosine similarity; 0 when either vector is empty.
pub fn cosine(phi_i: &SparseVec, phi_j: &SparseVec) -> f64 {
    let denom = phi_i.norm2() * phi_j.norm2();
    if denom == 0.0 {
        0.0
    } else {
        phi_i.dot(phi_j) / denom
    }
}

/// CosSim with the unit reference sum hoisted out.
struct CosSimPrepared {
    unit_sum: PooledAccumulator,
}

impl PreparedScorer for CosSimPrepared {
    fn score_slice(&self, candidates: &VectorSet) -> Result<Vec<(VertexId, f64)>, EngineError> {
        Ok(candidates
            .iter()
            .map(|(v, phi)| {
                let n = phi.norm2();
                let omega = if n == 0.0 {
                    0.0
                } else {
                    self.unit_sum.dot(phi) / n
                };
                (*v, omega)
            })
            .collect())
    }
}

impl OutlierMeasure for CosSimMeasure {
    fn name(&self) -> &'static str {
        "CosSim"
    }

    fn order(&self) -> ScoreOrder {
        ScoreOrder::AscendingIsOutlier
    }

    fn prepare<'a>(
        &'a self,
        reference: &'a VectorSet,
    ) -> Result<Box<dyn PreparedScorer + 'a>, EngineError> {
        // Cosine against each reference vector is a dot with the *unit*
        // reference vector, so the normalized reference sum can be hoisted —
        // unlike PathSim, CosSim admits the same O(|S_r|+|S_c|) trick.
        let unit_sum = scatter_sum(reference.iter().filter_map(|(_, psi)| {
            let n = psi.norm2();
            (n > 0.0).then(|| (psi, 1.0 / n))
        }));
        Ok(Box::new(CosSimPrepared { unit_sum }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        pairs.iter().map(|&(i, x)| (VertexId(i), x)).collect()
    }

    type Fixture = (Vec<(VertexId, SparseVec)>, Vec<(VertexId, SparseVec)>);

    fn table1() -> Fixture {
        let r = sv(&[(0, 10.0), (1, 10.0), (2, 1.0), (3, 1.0)]);
        let reference: Vec<_> = (0..100).map(|i| (VertexId(100 + i), r.clone())).collect();
        let candidates = vec![
            (VertexId(0), r),                                     // Sarah
            (VertexId(1), sv(&[(1, 1.0), (2, 20.0), (3, 20.0)])), // Rob
            (VertexId(2), sv(&[(1, 5.0), (2, 10.0), (3, 10.0)])), // Lucy
            (VertexId(3), sv(&[(3, 2.0)])),                       // Joe
            (VertexId(4), sv(&[(3, 30.0)])),                      // Emma
        ];
        (candidates, reference)
    }

    #[test]
    fn reproduces_table2_cossim_column() {
        // Table 2: Ω_CosSim = 100, 12.43, 32.83, 7.04, 7.04.
        let (candidates, reference) = table1();
        let scores = CosSimMeasure.scores(&candidates, &reference).unwrap();
        let expected = [100.0, 12.43, 32.83, 7.04, 7.04];
        for ((_, omega), want) in scores.iter().zip(expected) {
            assert!(
                (omega - want).abs() < 0.005,
                "Ω_CosSim = {omega}, paper says {want}"
            );
        }
    }

    #[test]
    fn magnitude_blindness_joe_equals_emma() {
        // Joe [SIGGRAPH:2] and Emma [SIGGRAPH:30] have identical directions,
        // hence identical Ω_CosSim — the bias the paper calls out.
        let (candidates, reference) = table1();
        let scores = CosSimMeasure.scores(&candidates, &reference).unwrap();
        assert!((scores[3].1 - scores[4].1).abs() < 1e-9);
    }

    #[test]
    fn cosine_basics() {
        let a = sv(&[(0, 1.0)]);
        let b = sv(&[(1, 1.0)]);
        assert_eq!(cosine(&a, &b), 0.0); // orthogonal
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12); // identical
        assert_eq!(cosine(&a, &SparseVec::new()), 0.0); // empty
    }

    #[test]
    fn hoisted_sum_matches_pairwise() {
        let (candidates, reference) = table1();
        let fast = CosSimMeasure.scores(&candidates, &reference).unwrap();
        for (i, (_, phi)) in candidates.iter().enumerate() {
            let slow: f64 = reference.iter().map(|(_, psi)| cosine(phi, psi)).sum();
            assert!((fast[i].1 - slow).abs() < 1e-9, "{} vs {slow}", fast[i].1);
        }
    }
}

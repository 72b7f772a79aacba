//! Property-based equivalence of the sparse kernel variants.
//!
//! The engine relies on all kernel variants being *bit-identical*, not just
//! approximately equal: N-thread query execution is only deterministic if
//! every path through `dot` and every accumulator produce the same floats.

use hin_graph::{DenseAccumulator, PooledAccumulator, SparseVec, VertexId};
use proptest::prelude::*;

/// Arbitrary sparse vector with up to `max_nnz` entries over ids `0..id_span`.
fn sparse_vec(max_nnz: usize, id_span: u32) -> impl Strategy<Value = SparseVec> {
    prop::collection::vec((0..id_span, -100.0f64..100.0), 0..=max_nnz).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(i, x)| (VertexId(i), x))
            .collect::<SparseVec>()
    })
}

/// A weighted sum whose terms cancel and come back: small integer values
/// and signed integer weights over few ids, so running sums hit exactly zero
/// (an entry `add_assign` drops, a slot the workspace keeps at `0.0`) and
/// later terms bring the id back; every fourth value and weight is an
/// arbitrary real, so rounding order matters too.
fn cancelling_terms() -> impl Strategy<Value = Vec<(SparseVec, f64)>> {
    let value = (0..4u32, -3.0f64..4.0, -50.0f64..50.0).prop_map(|(pick, int, real)| {
        if pick == 0 {
            real
        } else {
            int.trunc()
        }
    });
    let weight =
        (0..4u32, -2.0f64..3.0, -2.0f64..2.0)
            .prop_map(|(pick, int, real)| if pick == 0 { real } else { int.trunc() });
    let term = (prop::collection::vec((0..24u32, value), 0..=12), weight).prop_map(|(pairs, w)| {
        let phi: SparseVec = pairs.into_iter().map(|(i, x)| (VertexId(i), x)).collect();
        (phi, w)
    });
    prop::collection::vec(term, 0..=16)
}

/// The merge kernels the scatter replaces: scale a copy of each term, fold
/// with `add_assign`.
fn folded_sum(terms: &[(SparseVec, f64)]) -> SparseVec {
    let mut sum = SparseVec::new();
    for (phi, w) in terms {
        let mut term = phi.clone();
        term.scale(*w);
        sum.add_assign(&term);
    }
    sum
}

fn bits(x: &SparseVec) -> Vec<(VertexId, u64)> {
    x.iter().map(|(v, a)| (v, a.to_bits())).collect()
}

proptest! {
    /// Scattering `w × Φ` term by term builds the vector that scaling each
    /// term and folding `add_assign` builds, bit for bit — also while the
    /// sum is only partly built, when the gather `dot` must already equal
    /// `dot_merge` against the fold so far (zero slots skipped like dropped
    /// entries, ids outside the workspace absent).
    #[test]
    fn scattered_sum_and_gather_dot_match_the_fold(
        terms in cancelling_terms(),
        probe in sparse_vec(16, 40),
    ) {
        let mut ws = DenseAccumulator::new();
        for upto in 0..=terms.len() {
            if let Some((phi, w)) = upto.checked_sub(1).map(|i| &terms[i]) {
                ws.add_scaled(phi.as_slice(), *w);
            }
            let fold = folded_sum(&terms[..upto]);
            prop_assert_eq!(ws.dot(&probe).to_bits(), probe.dot_merge(&fold).to_bits());
            // What `SparseVec::dot` would have chosen (merge or gallop).
            prop_assert_eq!(ws.dot(&probe).to_bits(), probe.dot(&fold).to_bits());
        }
        prop_assert_eq!(bits(&ws.finish()), bits(&folded_sum(&terms)));
    }

    /// A pooled workspace that already carried one sum (returned to the free
    /// list loaded, as a dropped scorer returns it) builds the next sum, and
    /// answers the next gathers, with the bits of a new workspace.
    #[test]
    fn reused_pooled_workspace_matches_a_fresh_one(
        first in cancelling_terms(),
        second in cancelling_terms(),
        probe in sparse_vec(16, 40),
    ) {
        let mut pooled = PooledAccumulator::checkout();
        for (phi, w) in &first {
            pooled.add_scaled(phi.as_slice(), *w);
        }
        drop(pooled);
        let mut pooled = PooledAccumulator::checkout();
        let mut fresh = DenseAccumulator::new();
        for (phi, w) in &second {
            pooled.add_scaled(phi.as_slice(), *w);
            fresh.add_scaled(phi.as_slice(), *w);
        }
        prop_assert_eq!(pooled.dot(&probe).to_bits(), fresh.dot(&probe).to_bits());
        prop_assert_eq!(bits(&pooled.finish()), bits(&fresh.finish()));
    }

    /// `dot` (which dispatches to galloping on skewed operands) must equal
    /// the two-pointer merge bit-for-bit, in both argument orders.
    #[test]
    fn dot_dispatch_matches_merge(
        small in sparse_vec(6, 4096),
        large in sparse_vec(400, 4096),
    ) {
        let expected = small.dot_merge(&large);
        prop_assert_eq!(small.dot(&large).to_bits(), expected.to_bits());
        prop_assert_eq!(large.dot(&small).to_bits(), expected.to_bits());
    }

    /// Comparable-size operands (merge path) also agree — the dispatch
    /// boundary must not change results.
    #[test]
    fn dot_balanced_matches_merge(
        a in sparse_vec(64, 512),
        b in sparse_vec(64, 512),
    ) {
        prop_assert_eq!(a.dot(&b).to_bits(), a.dot_merge(&b).to_bits());
    }

    /// Scattering the same addition sequence through the dense workspace and
    /// through `from_entries` yields the same vector (the hash-map builder
    /// and `from_entries` agree by construction; the workspace must too),
    /// including across reuse generations.
    #[test]
    fn dense_accumulator_matches_from_entries(
        gen1 in prop::collection::vec((0..2048u32, -8.0f64..8.0), 0..200),
        gen2 in prop::collection::vec((0..2048u32, -8.0f64..8.0), 0..200),
    ) {
        let mut ws = DenseAccumulator::new();
        for adds in [&gen1, &gen2] {
            for &(i, x) in adds {
                ws.add(VertexId(i), x);
            }
            let got = ws.finish();
            let want = SparseVec::from_entries(
                adds.iter().map(|&(i, x)| (VertexId(i), x)).collect(),
            );
            // Sorted-id merge in `from_entries` and scatter order in the
            // workspace can differ in float addition order only when the
            // input has duplicate ids out of id order; restrict the check to
            // exact equality of supports plus value equality per id, which
            // for the generated magnitudes is still exact: addition of the
            // same multiset in different orders is only guaranteed bitwise
            // for <= 2 duplicates, so compare supports exactly and values
            // approximately.
            let gids: Vec<_> = got.support().collect();
            let wids: Vec<_> = want.support().collect();
            prop_assert_eq!(&gids, &wids);
            for v in gids {
                let (g, w) = (got.get(v), want.get(v));
                prop_assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{:?}: {} vs {}", v, g, w);
            }
        }
    }

    /// The workspace kernel must be bit-identical to the hash-map builder:
    /// both add duplicates in scatter order.
    #[test]
    fn dense_accumulator_matches_hashmap_builder(
        adds in prop::collection::vec((0..2048u32, -8.0f64..8.0), 0..200),
    ) {
        let mut ws = DenseAccumulator::new();
        let mut builder = hin_graph::sparse::SparseVecBuilder::new();
        for &(i, x) in &adds {
            ws.add(VertexId(i), x);
            builder.add(VertexId(i), x);
        }
        let got = ws.finish();
        let want = builder.finish();
        prop_assert_eq!(got.nnz(), want.nnz());
        for ((gv, gx), (wv, wx)) in got.iter().zip(want.iter()) {
            prop_assert_eq!(gv, wv);
            prop_assert_eq!(gx.to_bits(), wx.to_bits());
        }
    }
}

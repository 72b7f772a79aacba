//! Intra-query parallel execution: shard a slice of work items across a
//! scoped thread pool and merge the results deterministically.
//!
//! The engine's per-candidate work — neighbor-vector materialization and
//! measure scoring — is embarrassingly parallel: every item is evaluated
//! against immutable shared state (the graph, the index, a prepared
//! measure). [`run_sharded`] splits the item slice into at most
//! [`ExecCtx::threads`] contiguous shards, runs one worker per shard on a
//! [`std::thread::scope`] (no runtime, no detached threads), and
//! concatenates the per-shard outputs **in shard order**, which reproduces
//! the serial output exactly:
//!
//! * shards are contiguous, so concatenation preserves input order;
//! * every worker computes each item with the same bit-identical kernels
//!   and shared read-only state, so the floats match the serial run.
//!
//! ## Budget semantics under parallelism
//!
//! Each worker gets a [`fork`](ExecCtx::fork) of the query context: the
//! *absolute* wall-clock deadline, the shared [`CancelToken`], and all
//! cardinality/`nnz` caps carry over, and all shards additionally share a
//! [`ShardShared`] atomics block. A shard that hits a budget error raises
//! the shared stop flag so its siblings abandon work at their next
//! checkpoint instead of running to the common deadline. When workers are
//! joined (in shard order):
//!
//! * per-shard [`ExecBreakdown`](crate::engine::stats::ExecBreakdown)s are
//!   absorbed into the parent (durations and counters sum, peak `nnz`
//!   maxes);
//! * the reported error is the first error **by shard index** from a shard
//!   that was *not* stopped by a peer — peer-stop aborts are bookkeeping,
//!   not real violations, so error selection is deterministic and
//!   independent of thread scheduling.
//!
//! ## Panic isolation
//!
//! A panic inside shard work is caught at the shard boundary
//! (`catch_unwind`) and converted into a structured
//! [`EngineError::Panicked`] instead of unwinding across the scope join and
//! tearing down the calling thread. The shard raises the shared stop flag
//! first, so sibling shards abandon work promptly. **Unwind-safety audit**
//! (why `AssertUnwindSafe` is sound here): the closure touches only (a) the
//! shard's own `ExecCtx`, which is discarded wholesale on panic except for
//! its plain-counter stats, (b) immutable shared state (graph, index,
//! prepared measures), and (c) the `ShardShared` atomics, whose every write
//! is a single atomic store — no invariant can be observed half-updated.
//!
//! [`CancelToken`]: crate::engine::budget::CancelToken

use crate::engine::budget::{ExecCtx, ShardShared};
use crate::error::EngineError;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Run `work` over `items`, split into at most `ctx.threads()` contiguous
/// shards, and return the concatenated outputs in input order.
///
/// `work` is called once per shard with the shard's items and a forked
/// single-threaded [`ExecCtx`]; it must return one output per item, in
/// item order. With one effective thread (or one item), `work` runs inline
/// on the parent context — no threads are spawned and no atomics are
/// touched, so the serial path is exactly the pre-parallel engine.
pub(crate) fn run_sharded<T, R, F>(
    items: &[T],
    ctx: &mut ExecCtx,
    work: F,
) -> Result<Vec<R>, EngineError>
where
    T: Sync,
    R: Send,
    F: Fn(&[T], &mut ExecCtx) -> Result<Vec<R>, EngineError> + Sync,
{
    let threads = ctx.threads().min(items.len()).max(1);
    if threads == 1 {
        return work(items, ctx);
    }
    let shard_len = items.len().div_ceil(threads);
    let shared = Arc::new(ShardShared::default());

    // (result, shard context) per shard, in shard order.
    let outcomes: Vec<(Result<Vec<R>, EngineError>, ExecCtx)> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .chunks(shard_len)
            .enumerate()
            .map(|(shard_idx, chunk)| {
                let mut shard_ctx = ctx.fork(Arc::clone(&shared));
                scope.spawn(move || {
                    // A traced query traces its shards too: each worker
                    // records into its own thread-local buffer, parked on
                    // the shard context afterwards (even on error/panic) so
                    // the coordinator can merge buffers in shard order.
                    if shard_ctx.tracing() {
                        hin_telemetry::trace::install();
                    }
                    let span =
                        hin_telemetry::span!("shard", index = shard_idx, items = chunk.len());
                    // Panic isolation: a panicking shard becomes a
                    // structured error, never an unwind across the scope
                    // join (see the module-level unwind-safety audit).
                    let result =
                        std::panic::catch_unwind(AssertUnwindSafe(|| work(chunk, &mut shard_ctx)))
                            .unwrap_or_else(|payload| Err(EngineError::from_panic(payload)));
                    drop(span);
                    shard_ctx.set_trace_out(hin_telemetry::trace::take());
                    // A shard that failed on its own behalf tells the others
                    // to stop; a shard that was *told* to stop must not
                    // re-signal (it would mask nothing, but keep the intent
                    // clear: only genuine violations broadcast).
                    if result.is_err() && !shard_ctx.stopped_by_peer() {
                        shard_ctx.signal_peers();
                    }
                    (result, shard_ctx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                // Unreachable: the closure body is fully wrapped in
                // catch_unwind above. Kept as a defensive re-raise so a
                // future edit cannot silently swallow a panic.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut merged: Vec<R> = Vec::with_capacity(items.len());
    let mut first_err: Option<EngineError> = None;
    let mut peer_err: Option<EngineError> = None;
    for (result, mut shard_ctx) in outcomes {
        ctx.absorb(&mut shard_ctx);
        match result {
            Ok(mut part) => merged.append(&mut part),
            Err(e) => {
                if shard_ctx.stopped_by_peer() {
                    // Only reported if no genuine violation exists (which
                    // cannot happen by construction — the stop flag is only
                    // raised by a genuinely failing shard — but never
                    // swallow an error on a code path we cannot prove cold).
                    peer_err.get_or_insert(e);
                } else {
                    first_err.get_or_insert(e);
                }
            }
        }
    }
    match first_err.or(peer_err) {
        Some(e) => Err(e),
        None => Ok(merged),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::budget::{Budget, BudgetLimit, BudgetPhase, CancelToken};
    use hin_graph::{
        traverse, DenseAccumulator, HinGraph, MetaPath, PooledAccumulator, SparseVec, VertexId,
    };

    fn ctx_with_threads(threads: usize) -> ExecCtx {
        let mut ctx = ExecCtx::unbounded();
        ctx.set_threads(threads);
        ctx
    }

    #[test]
    fn sharded_output_matches_serial_in_order() {
        let items: Vec<u64> = (0..103).collect();
        let work = |chunk: &[u64], ctx: &mut ExecCtx| {
            chunk
                .iter()
                .map(|&x| {
                    ctx.checkpoint()?;
                    Ok(x * 3 + 1)
                })
                .collect::<Result<Vec<u64>, EngineError>>()
        };
        let serial = run_sharded(&items, &mut ctx_with_threads(1), work).unwrap();
        for threads in [2, 3, 4, 16] {
            let mut ctx = ctx_with_threads(threads);
            let parallel = run_sharded(&items, &mut ctx, work).unwrap();
            assert_eq!(parallel, serial, "{threads} threads diverged");
            // Same total work ⇒ same total checkpoint count.
            assert_eq!(ctx.stats.budget_checks(), items.len() as u64);
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2, 3];
        let out = run_sharded(&items, &mut ctx_with_threads(64), |chunk, _| {
            Ok(chunk.to_vec())
        })
        .unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_items_yield_empty_output() {
        let items: [u32; 0] = [];
        let out = run_sharded(&items, &mut ctx_with_threads(4), |chunk, _| {
            Ok(chunk.to_vec())
        })
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn error_selection_is_deterministic_by_shard_index() {
        // Every shard fails immediately (pre-cancelled token): the reported
        // error must be a genuine cancellation, never a peer-stop artifact,
        // regardless of scheduling.
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::default().with_cancel_token(token);
        for _ in 0..20 {
            let mut ctx = ExecCtx::new(&budget);
            ctx.set_threads(4);
            let items: Vec<u32> = (0..100).collect();
            let err = run_sharded(&items, &mut ctx, |chunk, sctx| {
                for _ in chunk {
                    sctx.checkpoint()?;
                }
                Ok(chunk.to_vec())
            })
            .unwrap_err();
            match err {
                EngineError::BudgetExceeded { limit, phase, .. } => {
                    assert_eq!(limit, BudgetLimit::Cancelled);
                    assert_eq!(phase, BudgetPhase::SetRetrieval);
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn failing_shard_stops_siblings() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Shard 0 fails on its first item; the other shards spin on
        // checkpoints until the stop flag reaches them. If peer-stop did not
        // work this test would hang.
        let done = AtomicU64::new(0);
        let items: Vec<u32> = (0..64).collect();
        let mut ctx = ctx_with_threads(4);
        let err = run_sharded::<u32, u32, _>(&items, &mut ctx, |chunk, sctx| {
            if chunk[0] == 0 {
                return Err(EngineError::EmptyCandidateSet);
            }
            loop {
                sctx.checkpoint()?;
                std::thread::yield_now();
                done.fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap_err();
        assert_eq!(err, EngineError::EmptyCandidateSet);
    }

    #[test]
    fn shard_panic_becomes_structured_error_and_stops_siblings() {
        // Shard 0 panics on its first item; the panic must surface as
        // EngineError::Panicked (not unwind), and the spinning siblings must
        // be stopped by the peer flag — if isolation or peer-stop failed,
        // this test would abort the process or hang.
        let items: Vec<u32> = (0..64).collect();
        for threads in [2, 4] {
            let mut ctx = ctx_with_threads(threads);
            let err = run_sharded::<u32, u32, _>(&items, &mut ctx, |chunk, sctx| {
                if chunk[0] == 0 {
                    panic!("injected shard panic");
                }
                loop {
                    sctx.checkpoint()?;
                    std::thread::yield_now();
                }
            })
            .unwrap_err();
            match err {
                EngineError::Panicked { message } => {
                    assert!(message.contains("injected shard panic"), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn serial_path_panics_propagate_unchanged() {
        // With one thread the work runs inline: no catch_unwind wrapper, so
        // the caller's own isolation boundary (e.g. a serving worker) sees
        // the raw panic. Pin that contract.
        let items = [0u32];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = ctx_with_threads(1);
            let _ = run_sharded(&items, &mut ctx, |_, _| -> Result<Vec<u32>, EngineError> {
                panic!("serial panic")
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn traced_runs_merge_shard_spans_in_index_order() {
        // Install a trace buffer *before* creating the context so the
        // tracing flag propagates to shard workers.
        hin_telemetry::trace::install();
        let items: Vec<u64> = (0..40).collect();
        let mut ctx = ctx_with_threads(4);
        let out = run_sharded(&items, &mut ctx, |chunk, _| Ok(chunk.to_vec())).unwrap();
        assert_eq!(out, items);
        let buf = hin_telemetry::trace::take().expect("buffer still installed");
        let tree = buf.tree();
        // One root per shard, merged in shard-index order regardless of
        // which worker finished first.
        assert_eq!(tree.len(), 4, "{tree:?}");
        for (i, node) in tree.iter().enumerate() {
            assert_eq!(node.name, "shard");
            assert_eq!(node.fields[0], ("index".to_string(), i.to_string()));
            assert_eq!(node.fields[1], ("items".to_string(), "10".to_string()));
        }
    }

    #[test]
    fn untraced_runs_record_nothing() {
        let items: Vec<u64> = (0..16).collect();
        let mut ctx = ctx_with_threads(4);
        let out = run_sharded(&items, &mut ctx, |chunk, _| Ok(chunk.to_vec())).unwrap();
        assert_eq!(out, items);
        assert!(hin_telemetry::trace::take().is_none());
    }

    /// Φ along a four-hop path for every author of the Figure 1 network.
    fn toy_traversals() -> (HinGraph, MetaPath, Vec<VertexId>) {
        let g = hin_datagen::toy::figure1_network();
        let path = MetaPath::parse("author.paper.venue.paper.author", g.schema()).unwrap();
        let authors = g.vertices_of_type(path.source_type()).to_vec();
        (g, path, authors)
    }

    #[test]
    fn workspaces_come_back_clean_after_abort_and_shard_panic() {
        use crate::engine::source::{TraversalSource, VectorSource};
        let (g, path, authors) = toy_traversals();
        let source = TraversalSource::new(&g);

        // Every shard aborts on the nnz cap between two hops.
        let mut ctx = ExecCtx::new(&Budget::default().with_max_nnz(1));
        ctx.set_threads(3);
        let err = run_sharded(&authors, &mut ctx, |chunk, sctx| {
            chunk
                .iter()
                .map(|&a| source.neighbor_vector(a, &path, sctx))
                .collect()
        })
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                limit: BudgetLimit::FrontierNnz,
                ..
            }
        ));
        drop(ctx);

        // Every shard panics holding its workspace, mid-scatter.
        let mut ctx = ctx_with_threads(3);
        let err = run_sharded::<_, u32, _>(&authors, &mut ctx, |chunk, sctx| {
            let mut ws = sctx.take_workspace();
            ws.add(chunk[0], 9.0);
            panic!("injected mid-scatter panic");
        })
        .unwrap_err();
        assert!(matches!(err, EngineError::Panicked { .. }));
        drop(ctx);

        // Whichever workspaces the next context is handed, its vectors are
        // those of a new accumulator, bit for bit.
        let mut ctx = ExecCtx::unbounded();
        for &a in &authors {
            let pooled = source.neighbor_vector(a, &path, &mut ctx).unwrap();
            let fresh =
                traverse::neighbor_vector_with(&g, a, &path, &mut DenseAccumulator::new()).unwrap();
            let bits =
                |phi: &SparseVec| -> Vec<_> { phi.iter().map(|(v, x)| (v, x.to_bits())).collect() };
            assert_eq!(bits(&pooled), bits(&fresh));
        }
    }

    #[test]
    fn free_list_stays_bounded_under_seven_shard_threads() {
        use crate::engine::source::{TraversalSource, VectorSource};
        let (g, path, authors) = toy_traversals();
        let source = TraversalSource::new(&g);
        let items: Vec<_> = authors.iter().cycle().take(70).copied().collect();
        // Workspaces held across the run: with the seven shards' own, more
        // are out at once than the list keeps.
        let held: Vec<_> = (0..PooledAccumulator::MAX_IDLE)
            .map(|_| PooledAccumulator::checkout())
            .collect();
        for _ in 0..3 {
            let mut ctx = ctx_with_threads(7);
            let out = run_sharded(&items, &mut ctx, |chunk, sctx| {
                chunk
                    .iter()
                    .map(|&a| source.neighbor_vector(a, &path, sctx))
                    .collect()
            })
            .unwrap();
            assert_eq!(out.len(), items.len());
            assert!(PooledAccumulator::idle_count() <= PooledAccumulator::MAX_IDLE);
        }
        drop(held);
        assert!(PooledAccumulator::idle_count() <= PooledAccumulator::MAX_IDLE);
    }

    #[test]
    fn stats_absorbed_from_all_shards_even_on_error() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Shard 0 fails only after every other shard has run all of its
        // checkpoints, so the stop flag it raises cannot cut their counts
        // short.
        let finished = AtomicUsize::new(0);
        let items: Vec<u32> = (0..40).collect();
        let mut ctx = ctx_with_threads(4);
        let err = run_sharded(&items, &mut ctx, |chunk, sctx| {
            for _ in chunk {
                sctx.checkpoint()?;
            }
            if chunk[0] == 0 {
                while finished.load(Ordering::Acquire) < 3 {
                    std::thread::yield_now();
                }
                return Err(EngineError::EmptyCandidateSet);
            }
            finished.fetch_add(1, Ordering::Release);
            Ok(chunk.to_vec())
        })
        .unwrap_err();
        assert_eq!(err, EngineError::EmptyCandidateSet);
        // The failed shard's checkpoints are counted along with the others'.
        assert_eq!(ctx.stats.budget_checks(), items.len() as u64);
    }
}

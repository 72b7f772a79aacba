//! Execution budgets and cooperative cancellation.
//!
//! The paper's pitch (Section 6) is making ad-hoc outlier queries cheap
//! enough to run interactively. In a serving setting that is not enough: a
//! runaway query — huge candidate set, dense length-4 meta-path, LOF with a
//! large `k` — must not be able to pin a core for minutes or exhaust memory.
//! This module provides the guardrails:
//!
//! * [`Budget`] — declarative per-query limits: a wall-clock deadline,
//!   maximum candidate/reference-set cardinality, a cap on intermediate
//!   sparse-vector population (`nnz`, a memory proxy), and an optional
//!   shared [`CancelToken`].
//! * [`ExecCtx`] — the per-execution context threaded through set
//!   evaluation, every [`VectorSource`](crate::engine::source::VectorSource)
//!   strategy, and scoring. It owns the timing breakdown
//!   ([`ExecBreakdown`]) and enforces the armed budget at
//!   **propagation-step granularity**, so a deadline fires mid-meta-path
//!   rather than only between phases.
//! * [`Degraded`] — the marker attached to a
//!   [`QueryResult`](crate::engine::executor::QueryResult) when the
//!   progressive executor ran out of budget after scoring a prefix of the
//!   candidates: callers get best-effort top-k instead of nothing.
//!
//! Violations surface as
//! [`EngineError::BudgetExceeded`](crate::error::EngineError::BudgetExceeded)
//! carrying which limit fired ([`BudgetLimit`]), the observed value, and the
//! execution phase ([`BudgetPhase`]).

use crate::engine::stats::ExecBreakdown;
use crate::error::EngineError;
use hin_graph::PooledAccumulator;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag for cooperative cancellation.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone observes the same
/// flag, so a serving layer can hand the engine a token and later cancel
/// the query from another thread. The engine polls the token at every
/// budget checkpoint — propagation steps, per-candidate set filtering, and
/// per-feature scoring — and aborts with
/// [`BudgetLimit::Cancelled`] once it is set.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Set the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](CancelToken::cancel) been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Which limit of a [`Budget`] was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetLimit {
    /// The wall-clock deadline passed.
    WallClock,
    /// The candidate set was larger than allowed.
    Candidates,
    /// The reference set was larger than allowed.
    Reference,
    /// An intermediate sparse vector grew beyond the `nnz` cap.
    FrontierNnz,
    /// The shared [`CancelToken`] was triggered.
    Cancelled,
}

impl fmt::Display for BudgetLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BudgetLimit::WallClock => "wall-clock deadline",
            BudgetLimit::Candidates => "candidate-set cardinality",
            BudgetLimit::Reference => "reference-set cardinality",
            BudgetLimit::FrontierNnz => "frontier nnz",
            BudgetLimit::Cancelled => "cooperative cancellation",
        };
        f.write_str(s)
    }
}

/// The execution phase a budget check ran in.
///
/// Mirrors the buckets of [`ExecBreakdown`]: candidate/reference set
/// retrieval, neighbor-vector materialization, and measure scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetPhase {
    /// Evaluating candidate/reference set expressions.
    #[default]
    SetRetrieval,
    /// Materializing neighbor vectors `Φ_P(v)`.
    Materialization,
    /// Computing outlierness scores.
    Scoring,
}

impl fmt::Display for BudgetPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BudgetPhase::SetRetrieval => "set retrieval",
            BudgetPhase::Materialization => "materialization",
            BudgetPhase::Scoring => "scoring",
        };
        f.write_str(s)
    }
}

/// Declarative per-query execution limits.
///
/// The default budget is unbounded — every limit is `None` — so existing
/// callers pay nothing. Limits compose; whichever fires first wins.
///
/// ```
/// use netout::engine::budget::{Budget, CancelToken};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let budget = Budget::default()
///     .with_timeout(Duration::from_millis(250))
///     .with_max_candidates(50_000)
///     .with_max_nnz(2_000_000)
///     .with_cancel_token(token.clone());
/// assert!(!budget.is_unbounded());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock limit for the whole execution (set retrieval through
    /// scoring). Checked at every checkpoint; granularity is one
    /// propagation step / one scored batch.
    pub timeout: Option<Duration>,
    /// Maximum candidate-set cardinality, checked right after candidate
    /// retrieval.
    pub max_candidates: Option<usize>,
    /// Maximum reference-set cardinality, checked right after reference
    /// retrieval. Defaults to `max_candidates` semantics: `None` = no cap.
    pub max_reference: Option<usize>,
    /// Maximum population (`nnz`) of any intermediate sparse vector during
    /// traversal — a proxy for peak memory.
    pub max_nnz: Option<usize>,
    /// Cooperative cancellation flag shared with the caller.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// An unbounded budget (the default).
    pub fn unbounded() -> Budget {
        Budget::default()
    }

    /// Set the wall-clock deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Budget {
        self.timeout = Some(timeout);
        self
    }

    /// Set the wall-clock deadline in milliseconds.
    pub fn with_timeout_ms(self, ms: u64) -> Budget {
        self.with_timeout(Duration::from_millis(ms))
    }

    /// Cap the candidate-set cardinality.
    pub fn with_max_candidates(mut self, max: usize) -> Budget {
        self.max_candidates = Some(max);
        self
    }

    /// Cap the reference-set cardinality.
    pub fn with_max_reference(mut self, max: usize) -> Budget {
        self.max_reference = Some(max);
        self
    }

    /// Cap intermediate sparse-vector `nnz`.
    pub fn with_max_nnz(mut self, max: usize) -> Budget {
        self.max_nnz = Some(max);
        self
    }

    /// Attach a cooperative cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Derive a child budget for one leg of a fan-out: the wall-clock
    /// deadline shrinks by `slack` (reserved for the caller's merge work),
    /// floored at 1 ms so the leg always gets a representable socket
    /// timeout. Cardinality/`nnz` caps and the cancellation token carry
    /// over unchanged; an unbounded deadline stays unbounded.
    pub fn carve(&self, slack: Duration) -> Budget {
        let mut child = self.clone();
        if let Some(t) = child.timeout {
            child.timeout = Some(t.saturating_sub(slack).max(Duration::from_millis(1)));
        }
        child
    }

    /// `true` when no limit of any kind is set.
    pub fn is_unbounded(&self) -> bool {
        self.timeout.is_none()
            && self.max_candidates.is_none()
            && self.max_reference.is_none()
            && self.max_nnz.is_none()
            && self.cancel.is_none()
    }
}

/// A [`Budget`] armed at a point in time: the relative timeout has been
/// converted into an absolute deadline.
#[derive(Debug, Clone, Default)]
struct ArmedBudget {
    deadline: Option<Instant>,
    max_candidates: Option<usize>,
    max_reference: Option<usize>,
    max_nnz: Option<usize>,
    cancel: Option<CancelToken>,
}

/// State shared by all shards of one parallel execution: the `stop` flag,
/// raised by a shard that hit a budget error so its siblings abandon work
/// early instead of running to their own deadline. (Each shard enforces
/// `max_nnz` against its own frontier, which is the per-vector semantics of
/// the serial engine; peaks are merged when shard stats are absorbed.)
#[derive(Debug, Default)]
pub(crate) struct ShardShared {
    stop: AtomicBool,
}

/// Per-execution context: the timing breakdown plus the armed budget.
///
/// One `ExecCtx` lives for the duration of one query execution and is
/// threaded by `&mut` through set evaluation, vector materialization, and
/// scoring. All strategy code records timings into [`ExecCtx::stats`] and
/// calls the `check*` methods at work-proportional intervals.
#[derive(Debug, Default)]
pub struct ExecCtx {
    /// Per-phase timing and counter breakdown, exposed on
    /// [`QueryResult`](crate::engine::executor::QueryResult).
    pub stats: ExecBreakdown,
    budget: ArmedBudget,
    phase: BudgetPhase,
    /// Worker-thread target for intra-query parallel stages (`0` = unset,
    /// treated as 1 by [`ExecCtx::threads`]).
    threads: usize,
    /// Scatter workspace for sparse propagation, checked out of the
    /// process-wide free list by the context's first traversal and handed
    /// back when the context drops. One per context, so every shard
    /// scatters into its own buffer.
    workspace: Option<PooledAccumulator>,
    /// Present only in forked shard contexts (and their parent while a
    /// parallel stage runs).
    shared: Option<Arc<ShardShared>>,
    /// Set when a checkpoint aborted because a *sibling* shard raised the
    /// stop flag; such errors are bookkeeping, not a real budget violation
    /// of this shard, and are filtered out during merge.
    stopped_by_peer: bool,
    /// Snapshot of `hin_telemetry::trace::installed()` taken when the
    /// context was created: the creating thread had a trace buffer, so
    /// forked shard workers must install one of their own and hand it back.
    tracing: bool,
    /// A finished shard's trace buffer, parked here by the shard worker for
    /// the coordinating thread to merge (in shard order) during absorb.
    trace_out: Option<hin_telemetry::trace::TraceBuf>,
    /// Running max of every `nnz` passed to [`check_frontier`]
    /// (ExecCtx::check_frontier) since the last [`swap_chunk_peak`]
    /// (ExecCtx::swap_chunk_peak). The sub-path cache stores this peak with
    /// each cached product so a later cache hit can replay the exact budget
    /// exposure of the computation it skipped (see `engine::subpath`).
    chunk_peak_nnz: usize,
}

impl ExecCtx {
    /// A context with no limits — checkpoints only count, never fail.
    pub fn unbounded() -> ExecCtx {
        ExecCtx {
            tracing: hin_telemetry::trace::installed(),
            ..ExecCtx::default()
        }
    }

    /// Arm `budget` now: the relative timeout becomes an absolute deadline.
    pub fn new(budget: &Budget) -> ExecCtx {
        ExecCtx {
            budget: ArmedBudget {
                // `checked_add` so an absurd user-supplied timeout saturates
                // to "no deadline" instead of panicking on Instant overflow.
                deadline: budget.timeout.and_then(|t| Instant::now().checked_add(t)),
                max_candidates: budget.max_candidates,
                max_reference: budget.max_reference,
                max_nnz: budget.max_nnz,
                cancel: budget.cancel.clone(),
            },
            tracing: hin_telemetry::trace::installed(),
            ..ExecCtx::default()
        }
    }

    /// Set the worker-thread target for intra-query parallel stages.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Worker-thread target for intra-query parallel stages (at least 1).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Detach the context's scatter workspace, checking one out of the free
    /// list on first use.
    ///
    /// Take/restore (rather than borrowing a field) lets callers pass the
    /// workspace to `hin-graph` kernels while still holding `&mut self` for
    /// budget checkpoints. A workspace that is never restored (the caller
    /// unwound) returns to the free list on its own.
    pub(crate) fn take_workspace(&mut self) -> PooledAccumulator {
        self.workspace
            .take()
            .unwrap_or_else(PooledAccumulator::checkout)
    }

    /// Return the workspace taken with [`ExecCtx::take_workspace`]. Clears
    /// it defensively: an error path may have abandoned a scatter midway.
    pub(crate) fn restore_workspace(&mut self, mut ws: PooledAccumulator) {
        ws.clear();
        self.workspace = Some(ws);
    }

    /// Create a single-threaded shard context for one worker of a parallel
    /// stage: same armed budget (the *absolute* deadline and the shared
    /// cancellation flag carry over), same phase, fresh stats, a workspace of
    /// its own, wired to `shared` for peer-stop signalling.
    pub(crate) fn fork(&self, shared: Arc<ShardShared>) -> ExecCtx {
        ExecCtx {
            stats: ExecBreakdown::default(),
            budget: self.budget.clone(),
            phase: self.phase,
            threads: 1,
            workspace: None,
            shared: Some(shared),
            stopped_by_peer: false,
            tracing: self.tracing,
            trace_out: None,
            chunk_peak_nnz: 0,
        }
    }

    /// Replace the chunk-peak accumulator with `value`, returning the old
    /// running max. Callers that need the peak of a nested computation save
    /// the current value with `swap_chunk_peak(0)`, run the computation, read
    /// [`chunk_peak`](ExecCtx::chunk_peak), and restore with
    /// `set_chunk_peak(saved.max(nested))` so enclosing collectors keep
    /// accumulating.
    pub(crate) fn swap_chunk_peak(&mut self, value: usize) -> usize {
        std::mem::replace(&mut self.chunk_peak_nnz, value)
    }

    /// The running max of frontier sizes checked since the last swap.
    pub(crate) fn chunk_peak(&self) -> usize {
        self.chunk_peak_nnz
    }

    /// Overwrite the chunk-peak accumulator (see
    /// [`swap_chunk_peak`](ExecCtx::swap_chunk_peak)).
    pub(crate) fn set_chunk_peak(&mut self, value: usize) {
        self.chunk_peak_nnz = value;
    }

    /// Merge a finished shard's accounting into this context: durations and
    /// counters sum, peak `nnz` maxes (see [`ExecBreakdown`]'s `Add`), and
    /// the shard's trace buffer (if any) attaches under the calling
    /// thread's currently-open span. Called in shard-index order, which is
    /// what keeps merged span trees deterministic.
    pub(crate) fn absorb(&mut self, shard: &mut ExecCtx) {
        self.stats += shard.stats;
        if let Some(buf) = shard.trace_out.take() {
            hin_telemetry::trace::absorb(buf);
        }
    }

    /// Is this execution being traced? Shard workers use this to decide
    /// whether to install a thread-local trace buffer of their own.
    pub(crate) fn tracing(&self) -> bool {
        self.tracing
    }

    /// Park a shard's finished trace buffer for the coordinator to merge.
    pub(crate) fn set_trace_out(&mut self, buf: Option<hin_telemetry::trace::TraceBuf>) {
        self.trace_out = buf;
    }

    /// Did this shard abort because a sibling raised the stop flag (rather
    /// than hitting a budget limit itself)?
    pub(crate) fn stopped_by_peer(&self) -> bool {
        self.stopped_by_peer
    }

    /// Raise the shared stop flag so sibling shards abandon work at their
    /// next checkpoint. No-op outside a parallel stage.
    pub(crate) fn signal_peers(&self) {
        if let Some(shared) = &self.shared {
            shared.stop.store(true, Ordering::Relaxed);
        }
    }

    /// Mark which execution phase subsequent checkpoints belong to.
    pub fn set_phase(&mut self, phase: BudgetPhase) {
        self.phase = phase;
    }

    /// The phase subsequent checkpoints will be attributed to.
    pub fn phase(&self) -> BudgetPhase {
        self.phase
    }

    /// One budget checkpoint: bump the per-phase check counter, then poll
    /// the cancellation token and the wall-clock deadline.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        match self.phase {
            BudgetPhase::SetRetrieval => self.stats.set_retrieval_checks += 1,
            BudgetPhase::Materialization => self.stats.materialization_checks += 1,
            BudgetPhase::Scoring => self.stats.scoring_checks += 1,
        }
        if let Some(token) = &self.budget.cancel {
            if token.is_cancelled() {
                return Err(EngineError::BudgetExceeded {
                    limit: BudgetLimit::Cancelled,
                    observed: 0,
                    phase: self.phase,
                });
            }
        }
        if let Some(deadline) = self.budget.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(EngineError::BudgetExceeded {
                    limit: BudgetLimit::WallClock,
                    observed: now.duration_since(deadline).as_millis() as u64,
                    phase: self.phase,
                });
            }
        }
        // Checked last so a genuine budget violation of this shard is never
        // misreported as a peer stop.
        if let Some(shared) = &self.shared {
            if shared.stop.load(Ordering::Relaxed) {
                self.stopped_by_peer = true;
                return Err(EngineError::BudgetExceeded {
                    limit: BudgetLimit::Cancelled,
                    observed: 0,
                    phase: self.phase,
                });
            }
        }
        Ok(())
    }

    /// Record an intermediate frontier of `nnz` populated entries, enforce
    /// the `max_nnz` cap, then run a regular [`checkpoint`](ExecCtx::checkpoint).
    pub fn check_frontier(&mut self, nnz: usize) -> Result<(), EngineError> {
        self.chunk_peak_nnz = self.chunk_peak_nnz.max(nnz);
        self.stats.peak_frontier_nnz = self.stats.peak_frontier_nnz.max(nnz as u64);
        if let Some(max) = self.budget.max_nnz {
            if nnz > max {
                return Err(EngineError::BudgetExceeded {
                    limit: BudgetLimit::FrontierNnz,
                    observed: nnz as u64,
                    phase: self.phase,
                });
            }
        }
        self.checkpoint()
    }

    /// Enforce the candidate-set cardinality cap.
    pub fn check_candidates(&mut self, n: usize) -> Result<(), EngineError> {
        if let Some(max) = self.budget.max_candidates {
            if n > max {
                return Err(EngineError::BudgetExceeded {
                    limit: BudgetLimit::Candidates,
                    observed: n as u64,
                    phase: BudgetPhase::SetRetrieval,
                });
            }
        }
        Ok(())
    }

    /// Enforce the reference-set cardinality cap.
    pub fn check_reference(&mut self, n: usize) -> Result<(), EngineError> {
        if let Some(max) = self.budget.max_reference {
            if n > max {
                return Err(EngineError::BudgetExceeded {
                    limit: BudgetLimit::Reference,
                    observed: n as u64,
                    phase: BudgetPhase::SetRetrieval,
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Unwind-safety audit. Serving layers (hin-service workers) and the parallel
// engine catch panics around code that holds these types. The assertions
// document — at compile time — that the budget machinery is structurally
// unwind-safe: `CancelToken` and `ShardShared` are bare atomics (every write
// is a single store, no half-updated invariant is observable), and `Budget`
// is plain data plus a token. `ExecCtx` is deliberately NOT asserted: it is
// per-request state that panic handlers must discard, never reuse.
const _: () = {
    const fn assert_unwind_safe<T: std::panic::UnwindSafe + std::panic::RefUnwindSafe>() {}
    const fn assert_all() {
        assert_unwind_safe::<CancelToken>();
        assert_unwind_safe::<Budget>();
        assert_unwind_safe::<ShardShared>();
    }
    let _ = assert_all;
};

/// Attached to a [`QueryResult`](crate::engine::executor::QueryResult) when
/// the progressive executor exhausted its budget after scoring a prefix of
/// the candidate set: the ranking is best-effort over `scored` of `total`
/// candidates rather than exact.
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded {
    /// Which limit ended the run.
    pub limit: BudgetLimit,
    /// The phase the limit fired in.
    pub phase: BudgetPhase,
    /// How many candidates had been scored when the budget fired.
    pub scored: usize,
    /// Total candidate-set cardinality.
    pub total: usize,
}

impl fmt::Display for Degraded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded: {} hit during {} after scoring {}/{} candidates",
            self.limit, self.phase, self.scored, self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_fails() {
        let mut ctx = ExecCtx::unbounded();
        for _ in 0..1000 {
            ctx.checkpoint().unwrap();
            ctx.check_frontier(usize::MAX).unwrap();
        }
        ctx.check_candidates(usize::MAX).unwrap();
        ctx.check_reference(usize::MAX).unwrap();
        assert_eq!(ctx.stats.peak_frontier_nnz, u64::MAX);
    }

    #[test]
    fn zero_timeout_fires_immediately() {
        let budget = Budget::default().with_timeout_ms(0);
        let mut ctx = ExecCtx::new(&budget);
        let err = ctx.checkpoint().unwrap_err();
        match err {
            EngineError::BudgetExceeded { limit, .. } => {
                assert_eq!(limit, BudgetLimit::WallClock);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());

        let budget = Budget::default().with_cancel_token(clone);
        let mut ctx = ExecCtx::new(&budget);
        ctx.set_phase(BudgetPhase::Scoring);
        match ctx.checkpoint().unwrap_err() {
            EngineError::BudgetExceeded { limit, phase, .. } => {
                assert_eq!(limit, BudgetLimit::Cancelled);
                assert_eq!(phase, BudgetPhase::Scoring);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn frontier_cap_enforced_and_peak_tracked() {
        let budget = Budget::default().with_max_nnz(10);
        let mut ctx = ExecCtx::new(&budget);
        ctx.set_phase(BudgetPhase::Materialization);
        ctx.check_frontier(10).unwrap();
        let err = ctx.check_frontier(11).unwrap_err();
        match err {
            EngineError::BudgetExceeded {
                limit, observed, ..
            } => {
                assert_eq!(limit, BudgetLimit::FrontierNnz);
                assert_eq!(observed, 11);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(ctx.stats.peak_frontier_nnz, 11);
        assert_eq!(ctx.stats.materialization_checks, 1);
    }

    #[test]
    fn cardinality_caps() {
        let budget = Budget::default()
            .with_max_candidates(5)
            .with_max_reference(3);
        let mut ctx = ExecCtx::new(&budget);
        ctx.check_candidates(5).unwrap();
        assert!(ctx.check_candidates(6).is_err());
        ctx.check_reference(3).unwrap();
        assert!(ctx.check_reference(4).is_err());
    }

    #[test]
    fn budget_builder_and_unbounded_flag() {
        assert!(Budget::unbounded().is_unbounded());
        assert!(!Budget::default().with_timeout_ms(1).is_unbounded());
        assert!(!Budget::default().with_max_candidates(1).is_unbounded());
        assert!(!Budget::default().with_max_nnz(1).is_unbounded());
        assert!(!Budget::default()
            .with_cancel_token(CancelToken::new())
            .is_unbounded());
    }

    #[test]
    fn fork_preserves_budget_and_phase() {
        let token = CancelToken::new();
        let budget = Budget::default()
            .with_timeout(Duration::from_secs(3600))
            .with_max_nnz(10)
            .with_cancel_token(token.clone());
        let mut parent = ExecCtx::new(&budget);
        parent.set_phase(BudgetPhase::Scoring);
        parent.set_threads(4);
        let shared = Arc::new(ShardShared::default());
        let mut shard = parent.fork(Arc::clone(&shared));
        assert_eq!(shard.phase(), BudgetPhase::Scoring);
        assert_eq!(shard.threads(), 1);
        // Limits carry over: the nnz cap still fires in the shard.
        assert!(shard.check_frontier(11).is_err());
        assert!(!shard.stopped_by_peer());
        // And so does the shared cancel token.
        token.cancel();
        assert!(shard.checkpoint().is_err());
        assert!(!shard.stopped_by_peer());
    }

    #[test]
    fn peer_stop_aborts_siblings_and_is_marked() {
        let parent = ExecCtx::unbounded();
        let shared = Arc::new(ShardShared::default());
        let mut a = parent.fork(Arc::clone(&shared));
        let mut b = parent.fork(Arc::clone(&shared));
        a.checkpoint().unwrap();
        b.checkpoint().unwrap();
        a.signal_peers();
        match b.checkpoint().unwrap_err() {
            EngineError::BudgetExceeded { limit, .. } => {
                assert_eq!(limit, BudgetLimit::Cancelled);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(b.stopped_by_peer());
    }

    #[test]
    fn peak_nnz_composes_across_shards() {
        let parent = ExecCtx::unbounded();
        let shared = Arc::new(ShardShared::default());
        let mut a = parent.fork(Arc::clone(&shared));
        let mut b = parent.fork(Arc::clone(&shared));
        a.check_frontier(100).unwrap();
        b.check_frontier(40).unwrap();
        assert_eq!(a.stats.peak_frontier_nnz, 100);
        assert_eq!(b.stats.peak_frontier_nnz, 40);
        // Parent absorb: counters sum, peaks max.
        let mut parent = parent;
        parent.absorb(&mut a);
        parent.absorb(&mut b);
        assert_eq!(parent.stats.peak_frontier_nnz, 100);
        assert_eq!(parent.stats.budget_checks(), 2);
    }

    #[test]
    fn fork_carries_tracing_flag_and_absorb_consumes_trace() {
        // No buffer installed: contexts are created untraced and forks agree.
        let ctx = ExecCtx::unbounded();
        assert!(!ctx.tracing());
        let shared = Arc::new(ShardShared::default());
        assert!(!ctx.fork(Arc::clone(&shared)).tracing());

        // With a buffer installed the flag propagates through fork, and
        // absorb drains the shard's parked buffer into the thread-local one.
        hin_telemetry::trace::install();
        let mut parent = ExecCtx::unbounded();
        assert!(parent.tracing());
        let mut shard = parent.fork(Arc::clone(&shared));
        assert!(shard.tracing());
        shard.set_trace_out(Some(hin_telemetry::trace::TraceBuf::new()));
        parent.absorb(&mut shard);
        assert!(shard.trace_out.is_none());
        let _ = hin_telemetry::trace::take();
    }

    #[test]
    fn workspace_take_restore_round_trips() {
        let mut ctx = ExecCtx::unbounded();
        let mut ws = ctx.take_workspace();
        ws.add(hin_graph::VertexId(3), 1.5);
        // Restore mid-scatter: the context must hand back a clean workspace
        // next time.
        ctx.restore_workspace(ws);
        let mut ws = ctx.take_workspace();
        assert!(ws.is_empty());
        ws.add(hin_graph::VertexId(7), 2.0);
        let v = ws.finish();
        assert_eq!(v.get(hin_graph::VertexId(7)), 2.0);
        assert_eq!(v.nnz(), 1);
        ctx.restore_workspace(ws);
    }

    #[test]
    fn threads_default_to_one() {
        let ctx = ExecCtx::unbounded();
        assert_eq!(ctx.threads(), 1);
        let mut ctx = ExecCtx::unbounded();
        ctx.set_threads(0);
        assert_eq!(ctx.threads(), 1);
        ctx.set_threads(8);
        assert_eq!(ctx.threads(), 8);
    }

    #[test]
    fn displays_are_informative() {
        let d = Degraded {
            limit: BudgetLimit::WallClock,
            phase: BudgetPhase::Materialization,
            scored: 12,
            total: 99,
        };
        let s = d.to_string();
        assert!(s.contains("wall-clock"));
        assert!(s.contains("12/99"));
        assert!(BudgetLimit::Cancelled.to_string().contains("cancellation"));
        assert!(BudgetPhase::Scoring.to_string().contains("scoring"));
    }

    #[test]
    fn carve_reserves_slack_and_floors_at_one_ms() {
        let parent = Budget::default()
            .with_timeout_ms(100)
            .with_max_candidates(7)
            .with_max_nnz(11);
        let child = parent.carve(Duration::from_millis(30));
        assert_eq!(child.timeout, Some(Duration::from_millis(70)));
        assert_eq!(child.max_candidates, Some(7));
        assert_eq!(child.max_nnz, Some(11));
        // Slack larger than the deadline floors at 1 ms, never zero.
        let starved = parent.carve(Duration::from_millis(500));
        assert_eq!(starved.timeout, Some(Duration::from_millis(1)));
        // An unbounded deadline stays unbounded.
        let free = Budget::unbounded().carve(Duration::from_millis(30));
        assert_eq!(free.timeout, None);
        assert!(free.is_unbounded());
        // The cancellation token carries over.
        let token = CancelToken::new();
        let cancellable = Budget::unbounded().with_cancel_token(token.clone());
        let child = cancellable.carve(Duration::from_millis(1));
        token.cancel();
        assert!(child.cancel.unwrap().is_cancelled());
    }
}

//! The long-running, multi-threaded query server.
//!
//! One process loads the graph (plus optional PM/SPM index) once and serves
//! many clients over newline-delimited TCP:
//!
//! * an **acceptor** loop blocks in `accept` and spawns one handler thread
//!   per connection;
//! * connection handlers parse request lines and either answer inline
//!   (`PING`, `STATS`, `SHUTDOWN`) or submit a [`Job`] to a **bounded
//!   crossbeam channel** feeding a fixed **worker pool**;
//! * **admission control**: when the queue is full, the request is rejected
//!   immediately with a structured `busy` response instead of queueing
//!   unboundedly;
//! * while a job is queued/executing, the connection handler keeps polling
//!   the socket; a client that hangs up trips the job's
//!   [`netout::CancelToken`], so abandoned queries stop consuming workers
//!   at the next budget checkpoint;
//! * `SHUTDOWN` drains: the acceptor is woken by a loopback connection and
//!   stops, queued jobs finish, workers exit, and [`Server::run`] returns
//!   the final statistics snapshot.
//!
//! ## Fault tolerance (DESIGN.md §11)
//!
//! * each request executes inside a `catch_unwind` boundary: a panic in
//!   engine/measure code becomes a structured `PANIC` error response and
//!   the worker keeps serving;
//! * a **supervisor** thread ([`crate::supervisor`]) owns the worker pool
//!   and respawns workers that die outright (or, optionally, hang), so the
//!   admission queue keeps draining no matter what happens to individual
//!   workers;
//! * a deterministic **fault-injection plan** ([`crate::fault`]) can be
//!   installed at startup (`ServerConfig::fault_plan`) or at runtime (the
//!   `FAULTS` verb) to drill exactly these paths;
//! * requests carrying an `id=N` option are **idempotent**: the serialized
//!   response is remembered in a small LRU and a retry of the same id is
//!   replayed byte-identically without re-executing.
//!
//! All execution state shared across threads is either immutable
//! (`HinGraph`, `PmIndex`), atomic (counters), or lock-protected
//! (`VectorCache`, histograms, the dedup cache) — see the compile-time
//! `Send + Sync` assertions at the bottom of this file.

use crate::fault::{DedupCache, FaultKind, FaultPlan, FaultState};
use crate::protocol::{
    BusyBody, ErrorCode, ExecMode, ExpiredBody, FaultCommand, FaultsBody, Request, RequestOptions,
    Response, ResultBody, ShardBody, TraceBody, TraceListEntry, DEFAULT_PRIORITY, MAX_LINE_BYTES,
};
use crate::stats::{CacheSnapshot, ServerStats, StatsSnapshot, SubpathSnapshot};
use crate::supervisor::{self, SupervisorConfig, WorkerSlot};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use netout::{Budget, BudgetLimit, CancelToken, CostModel, EngineError, OutlierDetector};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scoring batch size for best-effort execution (matches the detector's
/// internal default: small enough to notice cancellation promptly).
const BATCH: usize = 64;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries (≥ 1).
    pub workers: usize,
    /// Admission queue capacity; a full queue answers `busy` (≥ 1).
    pub queue_cap: usize,
    /// Intra-query worker threads for each executing query (≥ 1; default 1
    /// = serial queries). Overrides the detector's own thread setting. Total
    /// CPU parallelism is up to `workers × threads_per_query`, so keep the
    /// product near the core count: many concurrent queries want
    /// `workers = cores, threads_per_query = 1`; a few latency-sensitive
    /// clients want the opposite split. Results are bit-identical either
    /// way.
    pub threads_per_query: usize,
    /// Execution mode when a request does not say otherwise.
    pub default_mode: ExecMode,
    /// How often waiting connection handlers poll for client disconnect
    /// and shutdown. Smaller = faster cancellation, more syscalls.
    pub poll_interval: Duration,
    /// Deterministic fault-injection plan installed at startup (chaos
    /// drills; `None` in production). Swappable at runtime via `FAULTS`.
    pub fault_plan: Option<FaultPlan>,
    /// Capacity of the idempotent-request dedup cache (`id=N` responses
    /// replayed byte-identically on retry); `0` disables deduplication.
    pub dedup_cap: usize,
    /// Replace a worker stuck on a single job for longer than this (`None`
    /// disables hang detection — see
    /// [`SupervisorConfig`](crate::supervisor::SupervisorConfig)).
    pub hang_timeout: Option<Duration>,
    /// Slow-query threshold: worker-pool queries are span-traced and those
    /// whose admission-to-completion time reaches this land in the
    /// slow-query log (inspect with `TRACE`). `None` disables threshold
    /// tracing — the engine's span hooks reduce to one atomic load each,
    /// except for requests that opt in with `trace=1`, which are traced
    /// (and force-logged) regardless. `Some(ZERO)` traces and logs every
    /// query.
    pub slow_query: Option<Duration>,
    /// Slow-query ring capacity (`TRACE` serves the most recent entries;
    /// older ones are evicted oldest-first). `0` disables the log.
    pub slow_log_cap: usize,
    /// Overload-resilience knobs (DESIGN.md §16): deadline shedding is
    /// always on (it only fires for requests carrying a deadline); cost
    /// admission and the brownout controller are configured here.
    pub overload: OverloadConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_cap: 64,
            threads_per_query: 1,
            default_mode: ExecMode::BestEffort,
            poll_interval: Duration::from_millis(20),
            fault_plan: None,
            dedup_cap: 256,
            hang_timeout: None,
            slow_query: None,
            slow_log_cap: SLOW_LOG_CAP_DEFAULT,
            overload: OverloadConfig::default(),
        }
    }
}

/// Overload-resilience knobs (DESIGN.md §16): cost-based admission, the
/// brownout controller, and retry-after hint shaping.
///
/// The defaults are conservative: cost admission only acts once the cost
/// model has warmed up *and* the request carries a deadline, and the
/// brownout controller is disabled until an enter threshold is set — a
/// server configured like the pre-overload releases behaves identically.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Reject a query at admission when its estimated execution time
    /// exceeds `cost_reject_factor ×` its deadline (`0.0` disables
    /// rejection; down-tiering to best-effort at `1×` still applies).
    pub cost_reject_factor: f64,
    /// Cost-model observations required before admission trusts it.
    pub cost_min_observations: u64,
    /// Brownout enter threshold: when the rolling queue-wait p95 exceeds
    /// this, the controller raises the degradation level one step. `None`
    /// disables the controller entirely.
    pub brownout_enter: Option<Duration>,
    /// Brownout exit threshold (hysteresis): the level drops only once
    /// the rolling queue-wait p95 falls below this. Keep it well under
    /// the enter threshold so the controller cannot flap at the boundary.
    pub brownout_exit: Duration,
    /// Minimum dwell between brownout level transitions (either
    /// direction), so one noisy window cannot swing the level repeatedly.
    pub brownout_dwell: Duration,
    /// Frontier-nnz cap applied to every non-shard query at brownout
    /// level ≥ 1. Tightening only: a stricter per-request cap wins.
    pub brownout_max_nnz: usize,
    /// Candidate-set cap applied at brownout level ≥ 1 (tightening only).
    pub brownout_max_candidates: usize,
    /// At brownout level 3, shed queries whose priority (the `priority=`
    /// option, default [`DEFAULT_PRIORITY`]) is below this threshold.
    pub shed_below_priority: u8,
    /// Upper bound for `retry_after_ms` hints in busy/expired responses.
    pub retry_after_cap: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            cost_reject_factor: 8.0,
            cost_min_observations: 8,
            brownout_enter: None,
            brownout_exit: Duration::from_millis(5),
            brownout_dwell: Duration::from_millis(250),
            brownout_max_nnz: 1 << 20,
            brownout_max_candidates: 1 << 16,
            shed_below_priority: DEFAULT_PRIORITY,
            retry_after_cap: Duration::from_secs(5),
        }
    }
}

/// Default slow-query log capacity (`ServerConfig::slow_log_cap`,
/// `--slow-log-cap`): the `TRACE` verb serves the most recent entries;
/// older ones are evicted.
pub const SLOW_LOG_CAP_DEFAULT: usize = 32;

/// Queue-wait samples kept for the brownout controller's rolling p95.
const OVERLOAD_WINDOW: usize = 128;
/// Minimum window fill before the brownout controller acts on p95.
const OVERLOAD_MIN_SAMPLES: usize = 16;
/// Deepest brownout level: 0 normal, 1 cap shrink, 2 force best-effort,
/// 3 additionally shed low-priority requests.
const BROWNOUT_MAX_LEVEL: u8 = 3;
/// Per-queued-job drain estimate (µs) used for retry-after hints before
/// the execution-time EWMA has its first observation.
const RETRY_AFTER_COLD_US: u64 = 5_000;

/// Shared overload-control state (DESIGN.md §16): the execution cost
/// model, an execution-time EWMA shaping retry-after hints, and the
/// brownout controller fed by a rolling window of queue waits.
struct OverloadState {
    /// EWMA cost-units-per-microsecond model fed by completed queries.
    cost_model: CostModel,
    /// Integer EWMA of execution time (µs) for retry-after hints
    /// (α = 1/8); zero = no observation yet.
    exec_ewma_us: AtomicU64,
    /// Current brownout level (0–[`BROWNOUT_MAX_LEVEL`]).
    level: AtomicU8,
    window: Mutex<OverloadWindow>,
}

struct OverloadWindow {
    /// Most recent queue waits (µs), oldest first.
    samples: VecDeque<u64>,
    /// Last brownout transition (either direction), for dwell enforcement.
    last_transition: Instant,
}

impl OverloadState {
    fn new() -> OverloadState {
        OverloadState {
            cost_model: CostModel::new(),
            exec_ewma_us: AtomicU64::new(0),
            level: AtomicU8::new(0),
            window: Mutex::new(OverloadWindow {
                samples: VecDeque::with_capacity(OVERLOAD_WINDOW),
                last_transition: Instant::now(),
            }),
        }
    }

    /// Current brownout level (relaxed: admission decisions may lag a
    /// transition by one request).
    fn level(&self) -> u8 {
        self.level.load(Ordering::Relaxed)
    }

    /// Record one queue wait into the rolling window. Workers call this
    /// for every job they pick up — shed or executed — so the controller
    /// sees exactly the waits clients experienced.
    fn record_queue_wait(&self, wait: Duration) {
        let mut window = self.window.lock();
        if window.samples.len() >= OVERLOAD_WINDOW {
            window.samples.pop_front();
        }
        window.samples.push_back(wait.as_micros() as u64);
    }

    /// Feed one fully-executed query into the cost and execution-time
    /// models and refresh the exported rate gauge.
    fn observe_exec(&self, cost: u64, exec: Duration, stats: &ServerStats) {
        let micros = exec.as_micros() as u64;
        self.cost_model.observe(cost, micros);
        if let Some(rate) = self.cost_model.rate() {
            stats.cost_rate.set(rate);
        }
        // Racy read-modify-write is deliberate: the EWMA only shapes retry
        // hints, and a lost update just slows convergence by one sample.
        let old = self.exec_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            micros
        } else {
            old - old / 8 + micros / 8
        };
        self.exec_ewma_us.store(new.max(1), Ordering::Relaxed);
    }

    /// Estimated execution time for `cost` cost-units, once the model has
    /// enough observations to be trusted.
    fn estimate_micros(&self, cost: u64, min_observations: u64) -> Option<u64> {
        if self.cost_model.observations() < min_observations {
            return None;
        }
        self.cost_model.micros_for(cost)
    }

    /// How long a shed client should wait before retrying: roughly the
    /// time the current backlog needs to drain (queue depth × EWMA
    /// execution time), clamped to `[1, retry_after_cap]` ms — so a storm
    /// of rejected clients spreads its retries over the drain window
    /// instead of stampeding back at once.
    fn retry_after_ms(&self, queue_depth: usize, config: &OverloadConfig) -> u64 {
        let per_job_us = match self.exec_ewma_us.load(Ordering::Relaxed) {
            0 => RETRY_AFTER_COLD_US,
            us => us,
        };
        let drain_ms = (queue_depth as u64 + 1).saturating_mul(per_job_us) / 1_000;
        drain_ms.clamp(1, config.retry_after_cap.as_millis() as u64)
    }

    /// One brownout-controller evaluation: compute the rolling queue-wait
    /// p95 and move the level one step per dwell period, hysteretically
    /// (raise above `enter`, lower below `exit`, hold in between). Called
    /// on every admission; skips without blocking when another thread
    /// holds the window.
    fn maybe_transition(&self, config: &OverloadConfig, stats: &ServerStats) {
        let Some(enter) = config.brownout_enter else {
            return;
        };
        let Some(mut window) = self.window.try_lock() else {
            return;
        };
        if window.samples.len() < OVERLOAD_MIN_SAMPLES
            || window.last_transition.elapsed() < config.brownout_dwell
        {
            return;
        }
        let mut sorted: Vec<u64> = window.samples.iter().copied().collect();
        sorted.sort_unstable();
        let p95 = sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)];
        let level = self.level.load(Ordering::Relaxed);
        let next = if p95 >= enter.as_micros() as u64 && level < BROWNOUT_MAX_LEVEL {
            level + 1
        } else if p95 < config.brownout_exit.as_micros() as u64 && level > 0 {
            level - 1
        } else {
            return;
        };
        self.level.store(next, Ordering::Relaxed);
        window.last_transition = Instant::now();
        drop(window);
        stats.inc(&stats.brownout_transitions);
        stats.brownout_level.set(f64::from(next));
        hin_telemetry::logfmt!(
            "brownout_transition",
            from = level,
            to = next,
            queue_wait_p95_us = p95
        );
    }
}

/// A unit of work queued for the worker pool.
struct Job {
    request: Request,
    cancel: CancelToken,
    respond: Sender<Response>,
    admitted: Instant,
    /// Admission-time deadline for queue-wait shedding (the request's
    /// `timeout-ms=` or the server default budget's timeout); `None` for
    /// requests without a wall-clock budget (those never expire).
    deadline: Option<Duration>,
    /// Admission-time execution cost estimate (cost units; `0` for
    /// non-query work, which is not cost-modeled).
    cost: u64,
    /// Cost-based admission decided this request must run best-effort to
    /// have a chance of fitting its deadline.
    downtier: bool,
    /// Fault injected into this request (claimed at admission time from the
    /// plan's request sequence), if any.
    fault: Option<FaultKind>,
}

/// State shared by the acceptor, connection handlers, and workers.
struct Shared {
    detector: OutlierDetector,
    stats: ServerStats,
    config: ServerConfig,
    /// The listener's address: `SHUTDOWN` connects to it to wake the
    /// acceptor out of `accept`.
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Fault-injection plan + request sequence + injection counters.
    faults: FaultState,
    /// Idempotent-request response cache (`id=N` → serialized line).
    dedup: Mutex<DedupCache>,
    /// Server start instant; worker heartbeats are milliseconds since this.
    epoch: Instant,
    /// Receiver clone used only for queue-depth reporting (crossbeam
    /// channels are MPMC; holding a receiver does not keep the queue alive
    /// from the sender side).
    queue_probe: Receiver<Job>,
    /// Ring of the last `config.slow_log_cap` slow-query entries, oldest
    /// first.
    slow_log: Mutex<std::collections::VecDeque<TraceBody>>,
    /// Server-assigned entry ids for slow queries without an `id=N` option.
    slow_seq: std::sync::atomic::AtomicU64,
    /// Overload-resilience state: cost model, brownout controller, and the
    /// rolling queue-wait window feeding it.
    overload: OverloadState,
}

impl Shared {
    fn queue_depth(&self) -> usize {
        self.queue_probe.len()
    }

    fn cache_snapshot(&self) -> CacheSnapshot {
        match (self.detector.cache_stats(), self.detector.shared_cache()) {
            (Some(stats), Some(cache)) => {
                let mut snap = CacheSnapshot::from(stats);
                snap.len = cache.len();
                snap.size_bytes = cache.size_bytes();
                snap
            }
            _ => CacheSnapshot::default(),
        }
    }

    fn subpath_snapshot(&self) -> Option<SubpathSnapshot> {
        self.detector.subpath_stats().map(SubpathSnapshot::from)
    }

    fn stats_response(&self) -> Response {
        Response::Stats(self.stats.snapshot(
            self.queue_depth(),
            self.config.queue_cap,
            self.cache_snapshot(),
            self.subpath_snapshot(),
        ))
    }

    fn faults_response(&self) -> Response {
        Response::Faults(FaultsBody {
            spec: self.faults.spec(),
            requests_seen: self.faults.requests_seen(),
            injected: self.faults.counts(),
        })
    }

    /// The `METRICS` text form: Prometheus exposition of every metric.
    fn metrics_text(&self) -> String {
        self.stats.render_metrics(
            self.queue_depth(),
            self.config.queue_cap,
            self.cache_snapshot(),
            self.subpath_snapshot(),
        )
    }

    /// The `METRICS JSON` form.
    fn metrics_response(&self) -> Response {
        Response::Metrics(self.stats.metrics_snapshot(
            self.queue_depth(),
            self.config.queue_cap,
            self.cache_snapshot(),
            self.subpath_snapshot(),
        ))
    }

    /// Answer `TRACE` (list the slow-query log) or `TRACE <id>` (one entry
    /// with its span tree).
    fn trace_response(&self, id: Option<u64>) -> Response {
        let log = self.slow_log.lock();
        match id {
            None => Response::Traces {
                entries: log
                    .iter()
                    .map(|e| TraceListEntry {
                        id: e.id,
                        total_us: e.total_us,
                        request: e.request.clone(),
                    })
                    .collect(),
            },
            Some(id) => match log.iter().rev().find(|e| e.id == id) {
                Some(e) => Response::Trace(e.clone()),
                None => Response::err(
                    ErrorCode::Protocol,
                    format!("no slow-query entry with id {id} (TRACE lists available entries)"),
                ),
            },
        }
    }

    /// Append one slow query to the log (evicting the oldest past
    /// capacity) and emit a structured log line.
    fn log_slow_query(
        &self,
        request: &Request,
        queue_wait: Duration,
        exec: Duration,
        total: Duration,
        response: &Response,
        trace: hin_telemetry::TraceBuf,
    ) {
        let id = request.id().unwrap_or_else(|| {
            self.slow_seq
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        });
        let degraded = matches!(response, Response::Result(b) if b.degraded.is_some());
        let total_us = total.as_micros() as u64;
        let entry = TraceBody {
            id,
            request: request.to_line(),
            queue_wait_us: queue_wait.as_micros() as u64,
            exec_us: exec.as_micros() as u64,
            total_us,
            degraded,
            cache: self.cache_snapshot(),
            subpath: self.subpath_snapshot(),
            spans_dropped: trace.dropped(),
            spans: trace.tree(),
        };
        hin_telemetry::logfmt!(
            "slow_query",
            id = id,
            total_us = total_us,
            queue_wait_us = entry.queue_wait_us,
            exec_us = entry.exec_us,
            degraded = degraded,
            spans = entry.spans.len()
        );
        let cap = self.config.slow_log_cap;
        if cap == 0 {
            return;
        }
        let mut log = self.slow_log.lock();
        while log.len() >= cap {
            log.pop_front();
        }
        log.push_back(entry);
    }
}

/// A bound, not-yet-running query server. Construct with [`Server::bind`],
/// then call [`Server::run`] (blocking) — typically from a dedicated
/// thread when embedding (tests, benches).
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    job_tx: Sender<Job>,
    job_rx: Receiver<Job>,
    addr: SocketAddr,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and prepare
    /// the worker pool around `detector` (whose graph, index, cache, budget,
    /// and measure configuration the server serves).
    pub fn bind(
        detector: OutlierDetector,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Server::from_listener(detector, listener, config)
    }

    /// Like [`Server::bind`], but retry `AddrInUse` up to `attempts` times
    /// with doubling backoff (starting at `initial_backoff`, capped at 2 s).
    /// A restarting server often races its predecessor's socket still in
    /// `TIME_WAIT`; retrying with backoff rides that out. Other bind errors
    /// (permission, bad address) fail immediately.
    pub fn bind_retry(
        detector: OutlierDetector,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        attempts: usize,
        initial_backoff: Duration,
    ) -> std::io::Result<Server> {
        let listener = bind_listener_retry(addr, attempts, initial_backoff)?;
        Server::from_listener(detector, listener, config)
    }

    /// Wrap an already-bound listener (useful when the caller wants to
    /// manage socket options or binding strategy itself).
    pub fn from_listener(
        detector: OutlierDetector,
        listener: TcpListener,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let config = ServerConfig {
            workers: config.workers.max(1),
            queue_cap: config.queue_cap.max(1),
            threads_per_query: config.threads_per_query.max(1),
            ..config
        };
        let (job_tx, job_rx) = channel::bounded::<Job>(config.queue_cap);
        let faults = FaultState::new(config.fault_plan.clone());
        let dedup = Mutex::new(DedupCache::new(config.dedup_cap));
        let shared = Arc::new(Shared {
            detector,
            stats: ServerStats::new(),
            config,
            addr,
            shutdown: AtomicBool::new(false),
            faults,
            dedup,
            epoch: Instant::now(),
            queue_probe: job_rx.clone(),
            slow_log: Mutex::new(std::collections::VecDeque::new()),
            slow_seq: std::sync::atomic::AtomicU64::new(1),
            overload: OverloadState::new(),
        });
        Ok(Server {
            shared,
            listener,
            job_tx,
            job_rx,
            addr,
        })
    }

    /// The bound address (resolves the port when bound to `:0`).
    /// The live statistics block — lets the embedding process set startup
    /// gauges (e.g. `hin_snapshot_load_us`) before calling [`Server::run`].
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a client sends `SHUTDOWN`. Returns the final statistics
    /// snapshot after draining queued work and joining every worker.
    pub fn run(self) -> StatsSnapshot {
        let Server {
            shared,
            listener,
            job_tx,
            job_rx,
            addr,
        } = self;
        hin_telemetry::logfmt!(
            "server_start",
            addr = addr,
            workers = shared.config.workers,
            queue_cap = shared.config.queue_cap,
            slow_query_ms = shared
                .config
                .slow_query
                .map(|d| d.as_millis() as i64)
                .unwrap_or(-1)
        );

        // The supervisor thread owns the worker pool: it spawns the initial
        // workers, respawns any that die (worker-kill faults, engine bugs
        // escaping request isolation), replaces hung ones, and joins them
        // all once the job channel disconnects at drain.
        let supervisor = {
            let shared = Arc::clone(&shared);
            let rx = job_rx.clone();
            let sup_config = SupervisorConfig {
                poll: shared.config.poll_interval.min(Duration::from_millis(10)),
                hang_timeout: shared.config.hang_timeout,
                ..SupervisorConfig::default()
            };
            std::thread::Builder::new()
                .name("hin-supervisor".to_string())
                .spawn(move || {
                    supervisor::supervise(
                        shared.config.workers,
                        &sup_config,
                        shared.epoch,
                        &shared.stats,
                        |id, slot| {
                            let shared = Arc::clone(&shared);
                            let rx = rx.clone();
                            std::thread::Builder::new()
                                .name(format!("hin-worker-{id}"))
                                .spawn(move || worker_loop(&shared, &rx, &slot))
                        },
                    );
                })
                .unwrap_or_else(|e| {
                    // Thread spawn failing at startup is unrecoverable for
                    // a server; surface it loudly.
                    panic!("spawning supervisor: {e}")
                })
        };
        drop(job_rx);

        let mut handlers = Vec::new();
        loop {
            let accepted = listener.accept();
            // Checked after every return from `accept`: the connection
            // that `SHUTDOWN` makes to wake this loop ends it.
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    shared.stats.inc(&shared.stats.connections);
                    let shared = Arc::clone(&shared);
                    let tx = job_tx.clone();
                    if let Ok(h) = std::thread::Builder::new()
                        .name("hin-conn".to_string())
                        .spawn(move || handle_connection(&shared, stream, &tx))
                    {
                        handlers.push(h);
                    }
                    // Occasionally reap finished handler threads so a
                    // long-lived server does not accumulate join handles.
                    if handlers.len() >= 128 {
                        handlers.retain(|h| !h.is_finished());
                    }
                }
                // Out of descriptors, say: do not spin on it.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }

        // Drain: release our sender; the job channel disconnects once every
        // connection handler (each holding a clone) has finished its
        // in-flight work, workers then exit cleanly, and the supervisor —
        // seeing clean exits, not deaths — joins them and returns.
        drop(job_tx);
        for h in handlers {
            let _ = h.join();
        }
        let _ = supervisor.join();
        let snapshot = shared.stats.snapshot(
            shared.queue_depth(),
            shared.config.queue_cap,
            shared.cache_snapshot(),
            shared.subpath_snapshot(),
        );
        hin_telemetry::logfmt!(
            "server_stop",
            addr = addr,
            uptime_ms = snapshot.uptime_ms,
            requests = snapshot.requests,
            completed = snapshot.completed,
            errors = snapshot.errors
        );
        snapshot
    }
}

/// Bind `addr`, retrying `AddrInUse` up to `attempts` times with doubling
/// backoff (starting at `initial_backoff`, capped at 2 s). A restarting
/// process often races its predecessor's socket still in `TIME_WAIT`;
/// retrying with backoff rides that out. Other bind errors (permission,
/// bad address) fail immediately. Shared by [`Server::bind_retry`] and the
/// coordinator's front-end listener.
pub fn bind_listener_retry(
    addr: impl ToSocketAddrs,
    attempts: usize,
    initial_backoff: Duration,
) -> std::io::Result<TcpListener> {
    let attempts = attempts.max(1);
    let mut backoff = initial_backoff.max(Duration::from_millis(1));
    let mut attempt = 0;
    loop {
        match TcpListener::bind(&addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == ErrorKind::AddrInUse && attempt + 1 < attempts => {
                attempt += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Wake a listener blocked in `accept`, after its shutdown flag has been
/// set, by connecting to it once. A listener bound to the unspecified
/// address (`0.0.0.0`, `::`) is reached over loopback.
pub(crate) fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    if let Err(e) = TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
        hin_telemetry::logfmt!("acceptor_wake_failed", addr = addr, error = e);
    }
}

/// Atomically publish a bound address for scripts and tests binding port 0:
/// write `addr` to a temp file next to `path`, then rename it into place,
/// so a polling reader never observes a half-written file. Shared by the
/// `serve` and `coordinate` CLI verbs.
pub fn write_addr_file(path: &str, addr: SocketAddr) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, addr.to_string())?;
    std::fs::rename(&tmp, path)
}

/// The worker loop: execute jobs until the channel closes.
///
/// Liveness protocol with the supervisor: the loop heartbeats its
/// [`WorkerSlot`] on every queue poll, marks itself busy for the span of
/// each job, and sets the clean-exit flag as its very last act — so a
/// finished thread *without* that flag is a worker that died by panic and
/// must be respawned.
fn worker_loop(shared: &Shared, rx: &Receiver<Job>, slot: &WorkerSlot) {
    let epoch = shared.epoch;
    loop {
        slot.beat(epoch);
        let job = match rx.recv_timeout(shared.config.poll_interval) {
            Ok(job) => job,
            Err(channel::RecvTimeoutError::Timeout) => continue,
            Err(channel::RecvTimeoutError::Disconnected) => break,
        };
        slot.set_busy(epoch);
        let queue_wait = job.admitted.elapsed();
        shared.overload.record_queue_wait(queue_wait);
        // Deadline-aware shedding: a request whose deadline already passed
        // while it sat in the queue is answered with a structured `expired`
        // response and *never executed* — the client gets a retry-safe
        // answer immediately instead of a guaranteed budget failure after
        // burning a worker, and the freed capacity drains the backlog.
        if let Some(deadline) = job.deadline {
            if queue_wait >= deadline {
                shared.stats.inc(&shared.stats.expired);
                let body = ExpiredBody {
                    waited_ms: queue_wait.as_millis() as u64,
                    deadline_ms: deadline.as_millis() as u64,
                    retry_after_ms: shared
                        .overload
                        .retry_after_ms(shared.queue_depth(), &shared.config.overload),
                };
                hin_telemetry::logfmt!(
                    "request_expired",
                    waited_ms = body.waited_ms,
                    deadline_ms = body.deadline_ms,
                    retry_after_ms = body.retry_after_ms
                );
                // Not dedup-cached even with an id: the request never
                // executed, so a retry of the same id must be allowed to.
                let _ = job.respond.send(Response::Expired(body));
                slot.set_idle(epoch);
                continue;
            }
        }
        shared.stats.in_flight.inc();
        let exec_started = Instant::now();

        // Worker-kill fault: die *outside* the per-request isolation
        // boundary, exercising the supervisor's respawn path end to end.
        // The job is dropped first so its response channel disconnects and
        // the connection handler reports "worker dropped the request" to
        // that one client instead of waiting forever.
        if job.fault == Some(FaultKind::KillWorker) {
            shared.stats.in_flight.dec();
            drop(job);
            panic!("fault injection: worker killed");
        }
        // Delay fault: stall before executing, cancellation-aware so a
        // disconnected client still releases the worker promptly.
        if let Some(FaultKind::Delay(ms)) = job.fault {
            let _ = cancellable_sleep(
                Duration::from_millis(ms),
                &job.cancel,
                shared.config.poll_interval,
            );
        }

        // Span tracing: install a per-job trace buffer when the slow-query
        // log is enabled, so a query that turns out slow can be explained
        // after the fact. The engine picks the buffer up through its
        // thread-local hooks (shards report through fork/absorb). A
        // `trace=1` option opts one request in regardless of the server's
        // threshold — that is how the coordinator asks backends for the
        // span trees it stitches into cross-process traces.
        let requested_trace = match &job.request {
            Request::Query { options, .. } | Request::Explain { options, .. } => options.trace,
            _ => false,
        };
        let tracing = (shared.config.slow_query.is_some() || requested_trace)
            && matches!(job.request, Request::Query { .. } | Request::Explain { .. });
        if tracing {
            hin_telemetry::trace::install();
        }

        // Per-request panic isolation: a panic in measure/engine code (or
        // an injected one) must not kill the worker. It becomes a
        // structured `PANIC` error response and the worker keeps serving.
        // Unwind safety: request execution only touches immutable shared
        // state (graph, index), lock-protected caches whose guards restore
        // invariants on unwind, and per-request values dropped here.
        let mut response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_request(shared, &job, queue_wait)
        }))
        .unwrap_or_else(|payload| {
            shared.stats.inc(&shared.stats.panics);
            shared.stats.inc(&shared.stats.errors);
            let e = EngineError::from_panic(payload);
            hin_telemetry::logfmt!("request_panic_isolated", error = e);
            Response::from_engine_error(&e)
        });
        // Uninstall unconditionally (also after a panic, so a poisoned
        // buffer never leaks into the next job on this worker).
        let mut trace = if tracing {
            hin_telemetry::trace::take()
        } else {
            None
        };
        if let Some(buf) = &trace {
            shared.stats.trace_dropped.add(buf.dropped());
        }
        let exec = exec_started.elapsed();
        // Feed the cost model: full (non-degraded) executions give a clean
        // cost-per-microsecond sample; degraded runs were truncated by the
        // budget and would bias the rate upward.
        if job.cost > 0 {
            if let Response::Result(body) = &response {
                if body.degraded.is_none() {
                    shared.overload.observe_exec(job.cost, exec, &shared.stats);
                }
            }
        }

        // Trace propagation (DESIGN.md §17): a traced shard sub-request
        // carries its span tree home on the `shard` response itself, so
        // the coordinator can stitch it into the cross-process trace. The
        // attachment happens *before* the dedup insert below — a hedged
        // retry replayed from the cache must be byte-identical to the
        // original, trace payload included. Client-visible `result`
        // responses are never touched: their trace lands in the slow-query
        // ring instead (fetch it with `TRACE <id>`).
        if requested_trace {
            if let (Response::Shard(body), Some(buf)) = (&mut response, &trace) {
                body.trace = Some(crate::protocol::ShardTrace {
                    queue_wait_us: queue_wait.as_micros() as u64,
                    spans_dropped: buf.dropped(),
                    spans: buf.tree(),
                });
                // Consumed by the response; nothing left to ring-log.
                trace = None;
            }
        }

        // Idempotency: remember the serialized response before answering,
        // so a client retry of the same id replays it byte-identically —
        // even when the original response line is lost to a dropped
        // connection right after this.
        if let Some(id) = job.request.id() {
            shared.dedup.lock().insert(id, response.to_json_line());
        }
        let total = job.admitted.elapsed();
        shared.stats.record_latencies(queue_wait, exec, total);
        if let Some(buf) = trace {
            // `trace=1` force-logs; otherwise the threshold decides.
            let log = requested_trace
                || shared
                    .config
                    .slow_query
                    .is_some_and(|threshold| total >= threshold);
            if log {
                shared.log_slow_query(&job.request, queue_wait, exec, total, &response, buf);
            }
        }
        shared.stats.in_flight.dec();
        // The connection handler may have hung up; that is fine.
        let _ = job.respond.send(response);
        slot.set_idle(epoch);
    }
    slot.mark_clean_exit();
}

/// Sleep for `total`, polling `cancel` in small slices. Returns `false` if
/// the sleep was cut short by cancellation. Shared by the `SLEEP` verb and
/// the delay fault so both honor client disconnect the same way.
fn cancellable_sleep(total: Duration, cancel: &CancelToken, poll_interval: Duration) -> bool {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if cancel.is_cancelled() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2).min(poll_interval));
    }
    true
}

/// Execute one worker-pool request, updating outcome counters.
fn execute_request(shared: &Shared, job: &Job, queue_wait: Duration) -> Response {
    let (cancel, fault) = (&job.cancel, job.fault);
    // Request-panic fault: detonate inside the isolation boundary; the
    // caller's catch_unwind turns this into a structured PANIC response.
    if fault == Some(FaultKind::PanicRequest) {
        panic!("fault injection: request panic");
    }
    match &job.request {
        Request::Sleep { ms, .. } => {
            let started = Instant::now();
            let completed = cancellable_sleep(
                Duration::from_millis(*ms),
                cancel,
                shared.config.poll_interval,
            );
            if completed {
                shared.stats.inc(&shared.stats.completed);
            } else {
                shared.stats.inc(&shared.stats.cancelled);
            }
            Response::Slept {
                ms: started.elapsed().as_millis() as u64,
                cancelled: !completed,
            }
        }
        Request::Query { options, text } => {
            let exec_started = Instant::now();
            let budget = request_budget(shared, options, cancel, fault, queue_wait);
            // Shard sub-request (`shard=i/n`, sent by the coordinator):
            // score one contiguous candidate slice strictly and answer with
            // the raw rows — the coordinator's concatenate-then-top_k merge
            // reproduces the single-box ranking bit for bit, so the `mode`
            // option is ignored here (degradation is the coordinator's job).
            if let Some((index, count)) = options.shard {
                return match run_shard(shared, text, budget, index, count) {
                    Ok(scores) => {
                        shared.stats.record_breakdown(&scores.stats);
                        shared.stats.inc(&shared.stats.completed);
                        Response::Shard(ShardBody::from_shard_scores(
                            &scores,
                            index,
                            count,
                            exec_started.elapsed(),
                        ))
                    }
                    Err(e) => {
                        if matches!(
                            e,
                            EngineError::BudgetExceeded {
                                limit: BudgetLimit::Cancelled,
                                ..
                            }
                        ) {
                            shared.stats.inc(&shared.stats.cancelled);
                        }
                        shared.stats.inc(&shared.stats.errors);
                        Response::from_engine_error(&e)
                    }
                };
            }
            let outcome = run_query(shared, options, text, budget, job.downtier);
            match outcome {
                Ok(result) => {
                    shared.stats.record_breakdown(&result.stats);
                    if let Some(d) = &result.degraded {
                        shared.stats.inc(&shared.stats.degraded);
                        if d.limit == BudgetLimit::Cancelled {
                            shared.stats.inc(&shared.stats.cancelled);
                        }
                    }
                    shared.stats.inc(&shared.stats.completed);
                    Response::Result(ResultBody::from_query_result(
                        &result,
                        exec_started.elapsed(),
                    ))
                }
                Err(e) => {
                    if matches!(
                        e,
                        EngineError::BudgetExceeded {
                            limit: BudgetLimit::Cancelled,
                            ..
                        }
                    ) {
                        shared.stats.inc(&shared.stats.cancelled);
                    }
                    shared.stats.inc(&shared.stats.errors);
                    Response::from_engine_error(&e)
                }
            }
        }
        Request::Explain { options: _, text } => {
            match hin_query::validate::parse_and_bind(text, shared.detector.graph().schema()) {
                Ok(bound) => {
                    let plan = shared.detector.engine().explain(&bound).to_string();
                    shared.stats.inc(&shared.stats.completed);
                    Response::Explain { plan }
                }
                Err(e) => {
                    shared.stats.inc(&shared.stats.errors);
                    Response::err(ErrorCode::Query, e.to_string())
                }
            }
        }
        // Inline requests never reach the pool.
        Request::Ping
        | Request::Stats
        | Request::Metrics { .. }
        | Request::Trace { .. }
        | Request::Shutdown
        | Request::Faults(_) => {
            Response::err(ErrorCode::Internal, "inline request reached worker pool")
        }
    }
}

/// Assemble the per-request budget: server defaults + request overrides,
/// the cooperative cancellation token, the queue wait already spent carved
/// out of the deadline (so `timeout-ms=` bounds admission-to-answer, not
/// execution-to-answer), brownout caps at level ≥ 1, and the injected
/// allocation-cap fault.
fn request_budget(
    shared: &Shared,
    options: &RequestOptions,
    cancel: &CancelToken,
    fault: Option<FaultKind>,
    queue_wait: Duration,
) -> Budget {
    let mut budget = options
        .budget_over(shared.detector.current_budget())
        .with_cancel_token(cancel.clone())
        .carve(queue_wait);
    // Brownout level ≥ 1 tightens the work caps of top-level queries (a
    // stricter per-request cap wins). Shard sub-requests are exempt: their
    // caps were chosen by the coordinator and byte-identical merge depends
    // on them.
    if options.shard.is_none() && shared.overload.level() >= 1 {
        let o = &shared.config.overload;
        let nnz = budget
            .max_nnz
            .map_or(o.brownout_max_nnz, |n| n.min(o.brownout_max_nnz));
        let candidates = budget
            .max_candidates
            .map_or(o.brownout_max_candidates, |n| {
                n.min(o.brownout_max_candidates)
            });
        budget = budget.with_max_nnz(nnz).with_max_candidates(candidates);
    }
    // Allocation-cap fault: zero the frontier-nnz budget so the request
    // fails through the engine's *real* budget-enforcement path — the
    // failure mode is genuine, only its trigger is injected.
    if fault == Some(FaultKind::AllocCap) {
        budget = budget.with_max_nnz(0);
    }
    budget
}

/// Parse, bind, and execute one query with the per-request budget.
fn run_query(
    shared: &Shared,
    options: &RequestOptions,
    text: &str,
    budget: Budget,
    downtier: bool,
) -> Result<netout::QueryResult, EngineError> {
    let bound = hin_query::validate::parse_and_bind(text, shared.detector.graph().schema())?;
    let engine = shared
        .detector
        .engine()
        .budget(budget)
        .threads(shared.config.threads_per_query);
    let requested = options.mode.unwrap_or(shared.config.default_mode);
    // Overload down-tiering: cost admission (`downtier`) or brownout level
    // ≥ 2 forces best-effort so an oversized request yields a partial
    // ranking within its deadline instead of a strict failure.
    let effective = if requested == ExecMode::Strict && (downtier || shared.overload.level() >= 2) {
        shared.stats.inc(&shared.stats.downtiered);
        hin_telemetry::logfmt!(
            "request_downtiered",
            cost_admission = downtier,
            brownout_level = shared.overload.level()
        );
        ExecMode::BestEffort
    } else {
        requested
    };
    match effective {
        ExecMode::Strict => engine.execute(&bound),
        ExecMode::BestEffort => engine.execute_best_effort(&bound, BATCH),
    }
}

/// Score one candidate shard (`shard=i/n`) with the per-request budget;
/// strict semantics, no top-k — see [`netout::QueryEngine::execute_shard`].
fn run_shard(
    shared: &Shared,
    text: &str,
    budget: Budget,
    index: usize,
    count: usize,
) -> Result<netout::ShardScores, EngineError> {
    let bound = hin_query::validate::parse_and_bind(text, shared.detector.graph().schema())?;
    shared
        .detector
        .engine()
        .budget(budget)
        .threads(shared.config.threads_per_query)
        .execute_shard(&bound, index, count)
}

/// Buffered line framing over a [`TcpStream`] with timeout-based polling,
/// a line-length cap, and liveness probing.
pub(crate) struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Set while skipping the remainder of an over-long line.
    discarding: bool,
    eof: bool,
}

pub(crate) enum LineEvent {
    /// A complete request line (without the newline).
    Line(String),
    /// A complete line that was not valid UTF-8 or exceeded the cap —
    /// report an error to the client, framing stays synchronized.
    Malformed(&'static str),
    /// Client closed the connection (or a hard socket error).
    Eof,
    /// The server is shutting down.
    Shutdown,
}

impl LineReader {
    pub(crate) fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            discarding: false,
            eof: false,
        }
    }

    /// Pull the next buffered line, if a full one is present.
    fn take_buffered_line(&mut self) -> Option<LineEvent> {
        loop {
            let nl = self.buf.iter().position(|&b| b == b'\n');
            match nl {
                Some(i) => {
                    let line: Vec<u8> = self.buf.drain(..=i).collect();
                    if self.discarding {
                        self.discarding = false;
                        return Some(LineEvent::Malformed("request line too long"));
                    }
                    let line = &line[..line.len() - 1];
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    if line.is_empty() {
                        continue; // skip blank lines silently
                    }
                    return match std::str::from_utf8(line) {
                        Ok(s) => Some(LineEvent::Line(s.to_string())),
                        Err(_) => Some(LineEvent::Malformed("request line is not valid UTF-8")),
                    };
                }
                None => {
                    if self.buf.len() > MAX_LINE_BYTES {
                        // Cap exceeded without a newline: drop what we have
                        // and discard until the line ends.
                        self.buf.clear();
                        self.discarding = true;
                    }
                    return None;
                }
            }
        }
    }

    /// Read one byte chunk with `timeout`. Returns `false` on EOF/hard
    /// error, `true` otherwise (including "nothing arrived yet").
    fn fill(&mut self, timeout: Duration) -> bool {
        if self.eof {
            return false;
        }
        let _ = self
            .stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                self.eof = true;
                false
            }
            Ok(n) => {
                if self.discarding {
                    // While discarding we only care about the newline.
                    if let Some(i) = chunk[..n].iter().position(|&b| b == b'\n') {
                        self.buf.extend_from_slice(&chunk[i..n]);
                    }
                } else {
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                true
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => true,
            Err(e) if e.kind() == ErrorKind::Interrupted => true,
            Err(_) => {
                self.eof = true;
                false
            }
        }
    }

    /// Block until the next line, EOF, or shutdown, polling at
    /// `poll_interval`.
    pub(crate) fn next_line(
        &mut self,
        shutdown: &AtomicBool,
        poll_interval: Duration,
    ) -> LineEvent {
        loop {
            if let Some(event) = self.take_buffered_line() {
                return event;
            }
            if shutdown.load(Ordering::Relaxed) {
                return LineEvent::Shutdown;
            }
            if !self.fill(poll_interval) {
                return LineEvent::Eof;
            }
        }
    }

    /// Probe whether the client is still connected, consuming any pipelined
    /// bytes into the buffer. Used while a job is queued or executing.
    pub(crate) fn still_connected(&mut self) -> bool {
        if self.eof {
            return false;
        }
        self.fill(Duration::from_millis(1))
    }

    /// Write one pre-serialized response line (newline appended).
    pub(crate) fn write_line(&mut self, line: &str) -> bool {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream.write_all(framed.as_bytes()).is_ok() && self.stream.flush().is_ok()
    }

    pub(crate) fn write_response(&mut self, response: &Response) -> bool {
        self.write_line(&response.to_json_line())
    }

    /// Write a multi-line text block (each line already `\n`-terminated)
    /// followed by one blank line marking its end. Used by the `METRICS`
    /// text form — the single non-JSON response in the protocol.
    pub(crate) fn write_text_block(&mut self, text: &str) -> bool {
        let mut framed = String::with_capacity(text.len() + 2);
        framed.push_str(text);
        if !framed.ends_with('\n') {
            framed.push('\n');
        }
        framed.push('\n');
        self.stream.write_all(framed.as_bytes()).is_ok() && self.stream.flush().is_ok()
    }
}

/// Per-connection request loop.
fn handle_connection(shared: &Shared, stream: TcpStream, job_tx: &Sender<Job>) {
    let _ = stream.set_nodelay(true);
    let mut reader = LineReader::new(stream);
    loop {
        let line = match reader.next_line(&shared.shutdown, shared.config.poll_interval) {
            LineEvent::Line(line) => line,
            LineEvent::Malformed(why) => {
                shared.stats.inc(&shared.stats.requests);
                shared.stats.inc(&shared.stats.errors);
                if !reader.write_response(&Response::err(ErrorCode::Protocol, why)) {
                    return;
                }
                continue;
            }
            LineEvent::Eof | LineEvent::Shutdown => return,
        };
        shared.stats.inc(&shared.stats.requests);
        let request = match Request::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                shared.stats.inc(&shared.stats.errors);
                if !reader.write_response(&Response::err(ErrorCode::Protocol, e.to_string())) {
                    return;
                }
                continue;
            }
        };
        // METRICS text form: raw Prometheus exposition terminated by a
        // blank line — the one response that is not a single JSON line.
        if request == (Request::Metrics { json: false }) {
            if !reader.write_text_block(&shared.metrics_text()) {
                return;
            }
            continue;
        }
        let response = match &request {
            Request::Ping => Some(Response::Pong {
                uptime_ms: shared.stats.uptime().as_millis() as u64,
            }),
            Request::Stats => Some(shared.stats_response()),
            Request::Metrics { .. } => Some(shared.metrics_response()),
            Request::Trace { id } => Some(shared.trace_response(*id)),
            Request::Shutdown => {
                let draining = shared.queue_depth();
                shared.shutdown.store(true, Ordering::SeqCst);
                reader.write_response(&Response::Bye { draining });
                wake_acceptor(shared.addr);
                return;
            }
            Request::Faults(cmd) => {
                match cmd {
                    FaultCommand::Status => {}
                    FaultCommand::Clear => shared.faults.install(None),
                    FaultCommand::Install(plan) => shared.faults.install(Some(plan.clone())),
                }
                Some(shared.faults_response())
            }
            _ => None,
        };
        if let Some(response) = response {
            if !reader.write_response(&response) {
                return;
            }
            continue;
        }
        // Idempotency replay: a retry of an already-executed request id is
        // answered byte-identically from the dedup cache — no worker, no
        // fault-sequence index (so planned fault indices stay stable under
        // client retries).
        if let Some(id) = request.id() {
            let cached: Option<String> = shared.dedup.lock().get(id);
            if let Some(line) = cached {
                shared.stats.inc(&shared.stats.deduped);
                if !reader.write_line(&line) {
                    return;
                }
                continue;
            }
        }
        // Worker-pool requests: admission control, then wait for the
        // response while watching the socket for client disconnect.
        if !dispatch_job(shared, &mut reader, job_tx, request) {
            return;
        }
    }
}

/// Submit `request` to the pool and shepherd it to completion. Returns
/// `false` when the connection is done (client hung up or write failed).
fn dispatch_job(
    shared: &Shared,
    reader: &mut LineReader,
    job_tx: &Sender<Job>,
    request: Request,
) -> bool {
    debug_assert!(request.needs_worker());
    let overload = &shared.overload;
    let oconfig = &shared.config.overload;
    overload.maybe_transition(oconfig, &shared.stats);
    // Admission-time overload decisions apply to top-level queries only:
    // shard sub-requests already had their deadline carved (and their
    // priority weighed) by the coordinator, and SLEEP/EXPLAIN are cheap.
    let mut deadline = None;
    let mut cost = 0u64;
    let mut downtier = false;
    if let Request::Query { options, text } = &request {
        deadline = options
            .timeout_ms
            .map(Duration::from_millis)
            .or(shared.detector.current_budget().timeout);
        if options.shard.is_none() {
            // Priority shedding: at the deepest brownout level, requests
            // below the shed threshold get a structured busy + retry hint
            // instead of queue space, so the capacity that remains serves
            // the work the client fleet values most.
            let priority = options.priority.unwrap_or(DEFAULT_PRIORITY);
            if overload.level() >= BROWNOUT_MAX_LEVEL && priority < oconfig.shed_below_priority {
                shared.stats.inc(&shared.stats.priority_shed);
                let body = BusyBody {
                    queue_depth: shared.queue_depth(),
                    queue_cap: shared.config.queue_cap,
                    retry_after_ms: overload.retry_after_ms(shared.queue_depth(), oconfig),
                };
                hin_telemetry::logfmt!(
                    "priority_shed",
                    priority = priority,
                    retry_after_ms = body.retry_after_ms
                );
                return reader.write_response(&Response::Busy(body));
            }
            cost = netout::cost_estimate(
                text,
                shared.detector.index(),
                shared.detector.graph().edge_count(),
            );
            // Cost-based admission: once the model is warm and the request
            // carries a deadline, estimate whether it can fit. Hopeless
            // requests (estimate ≥ reject-factor × deadline) are refused
            // outright; merely oversized ones are down-tiered to
            // best-effort so they answer with a partial ranking in time.
            if let (Some(deadline), Some(est_us)) = (
                deadline,
                overload.estimate_micros(cost, oconfig.cost_min_observations),
            ) {
                let deadline_us = deadline.as_micros() as u64;
                let reject_at = (deadline_us as f64 * oconfig.cost_reject_factor) as u64;
                if oconfig.cost_reject_factor > 0.0 && est_us > reject_at {
                    shared.stats.inc(&shared.stats.cost_rejected);
                    let body = BusyBody {
                        queue_depth: shared.queue_depth(),
                        queue_cap: shared.config.queue_cap,
                        retry_after_ms: overload.retry_after_ms(shared.queue_depth(), oconfig),
                    };
                    hin_telemetry::logfmt!(
                        "cost_rejected",
                        cost = cost,
                        estimated_us = est_us,
                        deadline_us = deadline_us,
                        retry_after_ms = body.retry_after_ms
                    );
                    return reader.write_response(&Response::Busy(body));
                }
                if est_us > deadline_us {
                    downtier = true;
                }
            }
        }
    }
    // Claim this request's fault-sequence index. Claimed at admission time
    // — before the busy check — so the index order equals the order pool
    // requests arrive, independent of queue depth and worker scheduling.
    let fault = shared.faults.claim();
    let cancel = CancelToken::new();
    let (respond, response_rx) = channel::bounded::<Response>(1);
    let job = Job {
        request,
        cancel: cancel.clone(),
        respond,
        admitted: Instant::now(),
        deadline,
        cost,
        downtier,
        fault,
    };
    match job_tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            shared.stats.inc(&shared.stats.rejected_busy);
            return reader.write_response(&Response::Busy(BusyBody {
                queue_depth: shared.queue_depth(),
                queue_cap: shared.config.queue_cap,
                retry_after_ms: overload.retry_after_ms(shared.queue_depth(), oconfig),
            }));
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.stats.inc(&shared.stats.errors);
            return reader
                .write_response(&Response::err(ErrorCode::Engine, "server is shutting down"));
        }
    }
    let mut client_gone = false;
    loop {
        match response_rx.recv_timeout(shared.config.poll_interval) {
            Ok(response) => {
                // Connection-drop fault: the request executed (and its
                // response is dedup-cached when it carried an id), but the
                // response line is eaten and the socket closed — the
                // client sees a mid-request disconnect and must recover by
                // reconnect + retry.
                if fault == Some(FaultKind::DropConnection) {
                    shared.stats.inc(&shared.stats.dropped_conns);
                    return false;
                }
                if client_gone {
                    return false;
                }
                return reader.write_response(&response);
            }
            Err(channel::RecvTimeoutError::Timeout) => {
                if !client_gone && !reader.still_connected() {
                    // The client hung up: stop the query cooperatively, but
                    // keep waiting for the worker so accounting stays exact.
                    cancel.cancel();
                    client_gone = true;
                }
            }
            Err(channel::RecvTimeoutError::Disconnected) => {
                // Worker dropped the sender without responding — only
                // possible if the worker died mid-job.
                shared.stats.inc(&shared.stats.errors);
                return !client_gone
                    && reader.write_response(&Response::err(
                        ErrorCode::Internal,
                        "worker dropped the request",
                    ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compile-time thread-safety audit: everything shared across server threads
// must be Send + Sync. `QueryEngine` is built per-request inside one worker
// and only needs Send/Sync of its ingredients, but we assert it too so a
// future non-thread-safe `VectorSource` impl fails here, loudly.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_all() {
        assert_send_sync::<hin_graph::HinGraph>();
        assert_send_sync::<OutlierDetector>();
        assert_send_sync::<netout::VectorCache>();
        assert_send_sync::<netout::SubpathCache>();
        assert_send_sync::<netout::Budget>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<Shared>();
        assert_send_sync::<ServerStats>();
        assert_send_sync::<FaultState>();
        assert_send_sync::<Mutex<DedupCache>>();
        assert_send_sync::<WorkerSlot>();
    }
    let _ = assert_all;
};

#[cfg(test)]
mod tests {
    use super::*;
    use hin_datagen::toy;
    use netout::Budget;

    fn toy_server(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<StatsSnapshot>) {
        let detector = OutlierDetector::new(toy::figure1_network()).with_vector_cache(256);
        let server = Server::bind(detector, "127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut client = crate::client::Client::connect(addr).expect("connect");
        lines
            .iter()
            .map(|l| client.send_line(l).expect("request"))
            .collect()
    }

    #[test]
    fn ping_query_stats_shutdown_cycle() {
        let (addr, handle) = toy_server(ServerConfig {
            workers: 2,
            queue_cap: 4,
            ..ServerConfig::default()
        });
        let responses = send_lines(
            addr,
            &[
                "PING",
                "QUERY FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;",
                "NOT A VERB",
                "STATS",
            ],
        );
        assert!(responses[0].starts_with(r#"{"pong""#), "{}", responses[0]);
        assert!(responses[1].starts_with(r#"{"result""#), "{}", responses[1]);
        assert!(responses[1].contains(r#""measure":"NetOut""#));
        assert!(responses[2].starts_with(r#"{"err""#), "{}", responses[2]);
        assert!(responses[3].starts_with(r#"{"stats""#), "{}", responses[3]);
        let bye = send_lines(addr, &["SHUTDOWN"]);
        assert!(bye[0].starts_with(r#"{"bye""#), "{}", bye[0]);
        let final_stats = handle.join().expect("server thread");
        assert_eq!(final_stats.completed, 1);
        assert!(final_stats.errors >= 1);
        assert!(final_stats.connections >= 2);
    }

    #[test]
    fn per_request_budget_overrides_server_default() {
        let detector = OutlierDetector::new(toy::table1_network())
            .with_vector_cache(64)
            .budget(Budget::unbounded().with_timeout_ms(60_000));
        let server = Server::bind(
            detector,
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_cap: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let q = toy::table1_query();
        // Strict mode + tiny candidate cap → structured budget error.
        let responses = send_lines(
            addr,
            &[
                &format!("QUERY max-candidates=2 mode=strict {q}"),
                &format!("QUERY {q}"),
                "SHUTDOWN",
            ],
        );
        assert!(
            responses[0].contains(r#""code":"Budget""#),
            "{}",
            responses[0]
        );
        assert!(responses[1].starts_with(r#"{"result""#), "{}", responses[1]);
        handle.join().expect("server thread");
    }

    #[test]
    fn threads_per_query_matches_serial_results() {
        let q =
            "QUERY FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let extract = |response: &str| {
            // Strip the per-request timing field; everything else — scores
            // included — must be identical between thread counts.
            let mut s = response.to_string();
            if let Some(start) = s.find(r#""exec_us":"#) {
                let end = s[start..]
                    .find(|c: char| c == ',' || c == '}')
                    .map(|i| start + i)
                    .unwrap_or(s.len());
                s.replace_range(start..end, r#""exec_us":0"#);
            }
            s
        };
        let mut outputs = Vec::new();
        for threads in [1, 4] {
            let (addr, handle) = toy_server(ServerConfig {
                workers: 2,
                queue_cap: 4,
                threads_per_query: threads,
                ..ServerConfig::default()
            });
            let responses = send_lines(addr, &[q, "SHUTDOWN"]);
            assert!(responses[0].starts_with(r#"{"result""#), "{}", responses[0]);
            outputs.push(extract(&responses[0]));
            handle.join().expect("server thread");
        }
        assert_eq!(outputs[0], outputs[1], "thread count changed the ranking");
    }

    #[test]
    fn overload_retry_after_scales_with_backlog_and_clamps() {
        let state = OverloadState::new();
        let config = OverloadConfig {
            retry_after_cap: Duration::from_millis(100),
            ..OverloadConfig::default()
        };
        // Cold model: the conservative per-job default applies.
        assert_eq!(
            state.retry_after_ms(0, &config),
            RETRY_AFTER_COLD_US / 1_000
        );
        let stats = ServerStats::new();
        state.observe_exec(100, Duration::from_micros(2_000), &stats);
        // One queued job + the incoming one at ~2 ms each.
        assert_eq!(state.retry_after_ms(1, &config), 4);
        // A deep backlog clamps at the cap.
        assert_eq!(state.retry_after_ms(10_000, &config), 100);
    }

    #[test]
    fn overload_cost_estimates_gate_on_observation_count() {
        let state = OverloadState::new();
        let stats = ServerStats::new();
        assert_eq!(state.estimate_micros(100, 2), None);
        state.observe_exec(100, Duration::from_micros(1_000), &stats);
        assert_eq!(state.estimate_micros(100, 2), None, "model not warm yet");
        state.observe_exec(100, Duration::from_micros(1_000), &stats);
        let est = state.estimate_micros(100, 2).expect("model is warm");
        assert!((500..=2_000).contains(&est), "estimate off: {est}");
        assert!(stats.cost_rate.get() > 0.0, "rate gauge not exported");
    }

    #[test]
    fn brownout_controller_rises_hysteretically_and_recovers() {
        let state = OverloadState::new();
        let stats = ServerStats::new();
        let config = OverloadConfig {
            brownout_enter: Some(Duration::from_millis(10)),
            brownout_exit: Duration::from_millis(2),
            brownout_dwell: Duration::ZERO,
            ..OverloadConfig::default()
        };
        // Not enough samples: the controller holds at level 0.
        for _ in 0..OVERLOAD_MIN_SAMPLES - 1 {
            state.record_queue_wait(Duration::from_millis(50));
        }
        state.maybe_transition(&config, &stats);
        assert_eq!(state.level(), 0);
        // Window full of slow waits: one step up per evaluation, capped.
        state.record_queue_wait(Duration::from_millis(50));
        for expect in [1, 2, 3, 3] {
            state.maybe_transition(&config, &stats);
            assert_eq!(state.level(), expect);
        }
        // Waits between exit and enter: hysteresis holds the level.
        for _ in 0..OVERLOAD_WINDOW {
            state.record_queue_wait(Duration::from_millis(5));
        }
        state.maybe_transition(&config, &stats);
        assert_eq!(state.level(), BROWNOUT_MAX_LEVEL);
        // Fast waits: the controller steps back down to normal.
        for _ in 0..OVERLOAD_WINDOW {
            state.record_queue_wait(Duration::from_micros(100));
        }
        for expect in [2, 1, 0, 0] {
            state.maybe_transition(&config, &stats);
            assert_eq!(state.level(), expect);
        }
        assert_eq!(
            stats
                .snapshot(0, 1, CacheSnapshot::default(), None)
                .brownout_level,
            0
        );
    }

    #[test]
    fn expired_requests_are_shed_without_executing() {
        // One worker pinned by a long SLEEP; a queued query whose deadline
        // passes while it waits must answer `expired` without executing.
        let (addr, handle) = toy_server(ServerConfig {
            workers: 1,
            queue_cap: 8,
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        });
        let mut sleeper = crate::client::Client::connect(addr).expect("connect");
        sleeper.send_no_wait("SLEEP 400").expect("send");
        std::thread::sleep(Duration::from_millis(50));
        let q = "QUERY timeout-ms=100 FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let responses = send_lines(addr, &[q]);
        assert!(
            responses[0].starts_with(r#"{"expired""#),
            "{}",
            responses[0]
        );
        assert!(
            responses[0].contains(r#""retry_after_ms""#),
            "{}",
            responses[0]
        );
        let _ = sleeper.read_response();
        let stats = send_lines(addr, &["STATS", "SHUTDOWN"]);
        assert!(stats[0].contains(r#""expired":1"#), "{}", stats[0]);
        let final_stats = handle.join().expect("server thread");
        assert_eq!(final_stats.expired, 1);
        assert_eq!(final_stats.completed, 1, "only the sleep completed");
    }

    #[test]
    fn cancellable_sleep_completes_and_cancels() {
        let token = CancelToken::new();
        let started = Instant::now();
        assert!(cancellable_sleep(
            Duration::from_millis(20),
            &token,
            Duration::from_millis(5)
        ));
        assert!(started.elapsed() >= Duration::from_millis(20));
        token.cancel();
        let started = Instant::now();
        assert!(!cancellable_sleep(
            Duration::from_millis(5000),
            &token,
            Duration::from_millis(5)
        ));
        assert!(started.elapsed() < Duration::from_secs(2), "did not cancel");
    }

    #[test]
    fn bind_retry_rides_out_addr_in_use() {
        let occupant = TcpListener::bind("127.0.0.1:0").expect("occupy");
        let addr = occupant.local_addr().expect("addr");
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            drop(occupant);
        });
        let detector = OutlierDetector::new(toy::figure1_network());
        let server = Server::bind_retry(
            detector,
            addr,
            ServerConfig::default(),
            20,
            Duration::from_millis(10),
        )
        .expect("bind_retry should win once the occupant releases the port");
        assert_eq!(server.local_addr(), addr);
        release.join().expect("release thread");
        // A non-AddrInUse error fails immediately, no retry loop.
        let detector = OutlierDetector::new(toy::figure1_network());
        let started = Instant::now();
        let err = Server::bind_retry(
            detector,
            "203.0.113.1:1", // TEST-NET address: bind cannot succeed
            ServerConfig::default(),
            50,
            Duration::from_millis(100),
        )
        .err()
        .expect("binding a non-local address must fail");
        assert_ne!(err.kind(), ErrorKind::AddrInUse);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "retried a non-retryable error"
        );
    }

    #[test]
    fn faults_verb_installs_and_panic_is_isolated() {
        let (addr, handle) = toy_server(ServerConfig {
            workers: 2,
            queue_cap: 8,
            ..ServerConfig::default()
        });
        let q =
            "QUERY FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let responses = send_lines(
            addr,
            &[
                "FAULTS",
                "FAULTS seed=1;panic@0",
                q, // index 0 → panics inside the worker, isolated
                q, // index 1 → served normally by the same pool
                "FAULTS",
                "FAULTS OFF",
                "STATS",
            ],
        );
        assert!(responses[0].contains(r#""spec":null"#), "{}", responses[0]);
        assert!(
            responses[1].contains(r#""spec":"seed=1;panic@0""#),
            "{}",
            responses[1]
        );
        assert!(
            responses[2].contains(r#""code":"Panic""#) && responses[2].contains("fault injection"),
            "{}",
            responses[2]
        );
        assert!(responses[3].starts_with(r#"{"result""#), "{}", responses[3]);
        assert!(
            responses[4].contains(r#""panics":1"#) && responses[4].contains(r#""requests_seen":2"#),
            "{}",
            responses[4]
        );
        assert!(responses[5].contains(r#""spec":null"#), "{}", responses[5]);
        assert!(responses[6].contains(r#""panics":1"#), "{}", responses[6]);
        send_lines(addr, &["SHUTDOWN"]);
        let final_stats = handle.join().expect("server thread");
        assert_eq!(final_stats.panics, 1);
        assert_eq!(
            final_stats.respawns, 0,
            "isolated panic must not kill the worker"
        );
        assert_eq!(final_stats.completed, 1);
    }

    #[test]
    fn killed_worker_is_respawned_and_serving_continues() {
        let detector = OutlierDetector::new(toy::figure1_network()).with_vector_cache(256);
        let server = Server::bind(
            detector,
            "127.0.0.1:0",
            ServerConfig {
                workers: 1, // the kill takes out the whole pool
                queue_cap: 8,
                poll_interval: Duration::from_millis(5),
                fault_plan: Some(FaultPlan::parse("kill@0").expect("plan")),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let q =
            "QUERY FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let responses = send_lines(addr, &[q, q, q, "SHUTDOWN"]);
        assert!(
            responses[0].contains("worker dropped the request"),
            "{}",
            responses[0]
        );
        assert!(responses[1].starts_with(r#"{"result""#), "{}", responses[1]);
        assert!(responses[2].starts_with(r#"{"result""#), "{}", responses[2]);
        let final_stats = handle.join().expect("server thread");
        assert_eq!(final_stats.respawns, 1);
        assert_eq!(final_stats.completed, 2);
    }

    #[test]
    fn idempotent_requests_are_deduplicated_byte_identically() {
        let (addr, handle) = toy_server(ServerConfig {
            workers: 2,
            queue_cap: 8,
            ..ServerConfig::default()
        });
        let q = "QUERY id=42 FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let responses = send_lines(addr, &[q, q, q, "STATS", "SHUTDOWN"]);
        assert!(responses[0].starts_with(r#"{"result""#), "{}", responses[0]);
        // Replays are byte-identical — including exec_us, which would differ
        // had the query actually re-executed.
        assert_eq!(responses[0], responses[1]);
        assert_eq!(responses[0], responses[2]);
        assert!(responses[3].contains(r#""deduped":2"#), "{}", responses[3]);
        let final_stats = handle.join().expect("server thread");
        assert_eq!(final_stats.deduped, 2);
        assert_eq!(
            final_stats.completed, 1,
            "the query must execute exactly once"
        );
    }

    #[test]
    fn metrics_and_trace_verbs_surface_telemetry() {
        let (addr, handle) = toy_server(ServerConfig {
            workers: 2,
            queue_cap: 8,
            slow_query: Some(Duration::ZERO), // log every query
            ..ServerConfig::default()
        });
        let q =
            "QUERY FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let responses = send_lines(addr, &[q, "METRICS JSON", "TRACE"]);
        assert!(responses[0].starts_with(r#"{"result""#), "{}", responses[0]);
        assert!(
            responses[1].starts_with(r#"{"metrics""#)
                && responses[1].contains("hin_requests_total")
                && responses[1].contains("hin_queue_wait_us")
                && responses[1].contains("hin_engine_scoring_us_total"),
            "{}",
            responses[1]
        );
        assert!(
            responses[2].starts_with(r#"{"traces""#) && responses[2].contains(r#""entries":[{"#),
            "{}",
            responses[2]
        );
        // Fetch the logged entry and check its span tree reaches the
        // engine phases. The server's default mode is best-effort, whose
        // progressive executor records `materialize` and `score` spans;
        // the `query` root and its `set_retrieval` child belong to the
        // strict executor only.
        let id = crate::client::json_u64_field(&responses[2], "id").expect("entry id");
        let trace = send_lines(addr, &[&format!("TRACE {id}"), "TRACE 999999999"]);
        assert!(
            trace[0].starts_with(r#"{"trace""#)
                && trace[0].contains(r#""name":"materialize""#)
                && trace[0].contains(r#""name":"score""#),
            "{}",
            trace[0]
        );
        assert!(trace[1].contains(r#""code":"Protocol""#), "{}", trace[1]);

        // The bare METRICS form answers with raw Prometheus exposition
        // terminated by a blank line, not JSON.
        use std::io::BufRead;
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(b"METRICS\n").expect("send");
        let mut text = String::new();
        for line in std::io::BufReader::new(stream).lines() {
            let line = line.expect("read");
            if line.is_empty() {
                break;
            }
            text.push('\n');
            text.push_str(&line);
        }
        let samples = hin_telemetry::parse_exposition(&text).expect("valid exposition");
        for name in [
            "hin_requests_total",
            "hin_completed_total",
            "hin_queue_wait_us_count",
            "hin_exec_us_count",
            "hin_total_us_count",
            "hin_cache_hit_ratio",
            "hin_engine_set_retrieval_us_total",
        ] {
            assert!(
                samples.iter().any(|s| s.name == name),
                "missing {name} in:\n{text}"
            );
        }
        send_lines(addr, &["SHUTDOWN"]);
        handle.join().expect("server thread");
    }

    #[test]
    fn shard_option_returns_raw_rows_covering_the_candidate_set() {
        use crate::json::{parse_value, Value};
        let (addr, handle) = toy_server(ServerConfig {
            workers: 2,
            queue_cap: 8,
            ..ServerConfig::default()
        });
        let q = "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let responses = send_lines(
            addr,
            &[
                &format!("QUERY shard=0/2 {q}"),
                &format!("QUERY shard=1/2 {q}"),
                &format!("QUERY shard=0/9 mode=best-effort {q}"), // mode ignored
                "SHUTDOWN",
            ],
        );
        let bodies: Vec<Value> = responses[..3]
            .iter()
            .map(|line| {
                let v = parse_value(line).expect("valid JSON");
                assert!(v.get("shard").is_some(), "{line}");
                v.get("shard").cloned().expect("shard body")
            })
            .collect();
        assert_eq!(bodies[0].get("of").and_then(Value::as_u64), Some(2));
        assert_eq!(bodies[1].get("shard").and_then(Value::as_u64), Some(1));
        let candidates = bodies[0]
            .get("candidates")
            .and_then(Value::as_usize)
            .expect("candidates");
        // The two half shards partition the candidate set: row counts plus
        // zero-visibility counts sum to the whole set.
        let covered: usize = bodies[..2]
            .iter()
            .map(|b| {
                b.get("rows")
                    .and_then(Value::as_array)
                    .map_or(0, |r| r.len())
                    + b.get("zero_visibility")
                        .and_then(Value::as_usize)
                        .unwrap_or(0)
            })
            .sum();
        assert_eq!(covered, candidates);
        assert_eq!(
            bodies[2].get("measure").and_then(Value::as_str),
            Some("NetOut")
        );
        handle.join().expect("server thread");
    }

    /// Ids retained in a `TRACE` listing, oldest first.
    fn trace_ids(line: &str) -> Vec<u64> {
        let v = crate::json::parse_value(line).expect("valid JSON");
        v.get("traces")
            .and_then(|t| t.get("entries"))
            .and_then(crate::json::Value::as_array)
            .expect("entries array")
            .iter()
            .map(|e| {
                e.get("id")
                    .and_then(crate::json::Value::as_u64)
                    .expect("entry id")
            })
            .collect()
    }

    #[test]
    fn trace_option_force_logs_and_ring_evicts_oldest_first() {
        // slow_query stays None: only the trace=1 request option opts
        // queries into the ring, which keeps the 2 most recent entries.
        let (addr, handle) = toy_server(ServerConfig {
            workers: 2,
            queue_cap: 16,
            slow_log_cap: 2,
            ..ServerConfig::default()
        });
        let q = "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        // Concurrent traced queries from several clients: the ring must
        // stay bounded at capacity however the insertions interleave.
        let mut clients = Vec::new();
        for i in 0..4u64 {
            let line = format!("QUERY trace=1 id={} {q}", 100 + i);
            clients.push(std::thread::spawn(move || {
                send_lines(addr, &[line.as_str()])
            }));
        }
        for c in clients {
            let responses = c.join().expect("client thread");
            assert!(responses[0].starts_with(r#"{"result""#), "{}", responses[0]);
        }
        let listing = send_lines(addr, &["TRACE"]);
        assert_eq!(trace_ids(&listing[0]).len(), 2, "{}", listing[0]);
        // Sequential traced queries pin the eviction order: after ids
        // 1, 2, 3 pass through a cap-2 ring, only [2, 3] remain and the
        // evicted id answers with a structured error, not silence.
        let mut batch: Vec<String> = (1..=3u64)
            .map(|id| format!("QUERY trace=1 id={id} {q}"))
            .collect();
        batch.push("TRACE".to_string());
        batch.push("TRACE 1".to_string());
        batch.push("SHUTDOWN".to_string());
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let responses = send_lines(addr, &refs);
        for r in &responses[..3] {
            assert!(r.starts_with(r#"{"result""#), "{r}");
        }
        assert_eq!(trace_ids(&responses[3]), vec![2, 3], "{}", responses[3]);
        assert!(
            responses[4].contains(r#""code":"Protocol""#)
                && responses[4].contains("no slow-query entry with id 1"),
            "{}",
            responses[4]
        );
        handle.join().expect("server thread");
    }

    #[test]
    fn slow_query_log_disabled_without_threshold() {
        let (addr, handle) = toy_server(ServerConfig {
            workers: 1,
            queue_cap: 4,
            ..ServerConfig::default() // slow_query: None
        });
        let q =
            "QUERY FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let responses = send_lines(addr, &[q, "TRACE", "SHUTDOWN"]);
        assert!(responses[1].contains(r#""entries":[]"#), "{}", responses[1]);
        handle.join().expect("server thread");
    }

    #[test]
    fn cache_is_shared_across_requests() {
        let (addr, handle) = toy_server(ServerConfig {
            workers: 2,
            queue_cap: 8,
            ..ServerConfig::default()
        });
        let q =
            "QUERY FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";
        let _ = send_lines(addr, &[q, q, q]);
        let stats = send_lines(addr, &["STATS", "SHUTDOWN"]);
        // The second and third runs hit vectors cached by the first.
        let hits: u64 = crate::client::json_u64_field(&stats[0], "hits").unwrap_or(0);
        assert!(hits > 0, "shared cache saw no hits: {}", stats[0]);
        handle.join().expect("server thread");
    }
}

//! Sharded scatter-gather coordinator: a front-end that speaks the same
//! line-framed protocol as [`crate::server::Server`] and fans each `QUERY`
//! out to N backends by candidate-set sharding (`shard=i/n`), merging the
//! raw scored rows with the same in-order, deterministic discipline as a
//! single-box run — so a coordinator answer is byte-identical to asking one
//! backend directly (modulo `exec_us`).
//!
//! Robustness machinery layered on top of the scatter:
//!
//! * **Deadline carving** — each shard sub-request gets the request deadline
//!   minus a merge slack, via [`netout::Budget::carve`].
//! * **Failover** — a failed or retryable attempt (connect error, dropped
//!   connection, `busy`, `Internal`, `Panic`) re-routes the shard to the
//!   next replica, bounded by `attempts`.
//! * **Connection reuse** — each backend keeps a small stack of idle
//!   connections. An attempt checks one out (or dials), sends one request,
//!   and the connection goes back only after that request's one complete
//!   response line; anything else — timeout, error, cancellation, a lost
//!   race — drops it (DESIGN.md §13).
//! * **Hedging** — when a shard attempt is slower than `hedge_after`, a
//!   second attempt races it on another replica; first response wins, the
//!   loser is cancelled by disconnect. Duplicate execution is suppressed by
//!   the per-shard idempotency id (`fault::mix` over a per-boot nonce, so
//!   ids never collide with a previous coordinator run's).
//! * **Health registry** — a heartbeat thread `PING`s every backend,
//!   marking it down after `down_after` consecutive failures and probing
//!   half-open until it answers again. Routing prefers healthy replicas.
//! * **Circuit breakers** — each backend keeps a rolling window of
//!   request-path outcomes (failures and over-latency successes). When the
//!   failure ratio trips, the breaker opens: attempts fast-fail to the next
//!   replica instead of burning connect + read timeouts on a sick backend.
//!   After a cooldown the breaker half-opens, letting one request probe;
//!   success closes it, failure re-opens it. Heartbeats stay independent —
//!   they track connectivity, the breaker tracks request outcomes.
//! * **Busy-storm detection** — when a shard's replica attempts keep
//!   answering `busy`/`expired`, the coordinator stops cycling replicas at
//!   a threshold and answers `busy` itself, with a jittered
//!   `retry_after_ms` derived from the largest backend hint, so a
//!   load spike de-synchronizes retries instead of exhausting attempts.
//! * **Graceful degradation** — when a shard stays unrecoverable within the
//!   deadline, the merged ranking is flagged `degraded`, naming the missing
//!   shard; strict mode turns that into a `NoBackends` error instead.
//!
//! `STATS`/`METRICS` aggregate backend snapshots; `FAULTS <index> [spec]`
//! installs a fault plan on one chosen backend for chaos drills.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::Scope;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use serde::Serialize;

use crate::client::{json_u64_field, response_kind, CancelHandle, Client};
use crate::fault::{self, DedupCache};
use crate::json::{self, parse_value, Value};
use crate::protocol::{
    trace_node_from_value, BusyBody, DegradedInfo, ErrorCode, ExecMode, RankedRow, Request,
    RequestOptions, Response, ResultBody, ShardTrace, TraceBody, TraceListEntry,
};
use crate::server::{
    bind_listener_retry, wake_acceptor, LineEvent, LineReader, SLOW_LOG_CAP_DEFAULT,
};
use hin_graph::VertexId;
use hin_telemetry::{Sample, TraceNode};
use netout::{top_k, Budget, ScoreOrder};

const FAULTS_USAGE: &str = "coordinator FAULTS usage: FAULTS <backend-index> [OFF|<spec>] — \
                            inspects or changes the fault plan of one backend";

/// Tunables for a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Replicas eligible to serve each shard (clamped to the backend count).
    pub replicas: usize,
    /// Maximum attempts per shard across its replicas (failover bound).
    pub attempts: usize,
    /// Hedge a slow shard attempt after this long.
    pub hedge_after: Duration,
    /// Interval between heartbeat sweeps over the backends.
    pub heartbeat_interval: Duration,
    /// Consecutive failures before a backend is marked down.
    pub down_after: u32,
    /// Deadline slack reserved for the coordinator-side merge.
    pub merge_slack: Duration,
    /// Deadline applied when a request carries no `timeout-ms=`.
    pub default_deadline: Duration,
    /// TCP connect timeout for every backend dial.
    pub connect_timeout: Duration,
    /// Idempotency-cache capacity (client-visible `id=` replay).
    pub dedup_cap: usize,
    /// Extra seed mixed into per-shard idempotency ids, on top of the
    /// per-boot nonce (wall clock + PID) every coordinator derives at
    /// startup. Ids must differ across boots: backend dedup caches outlive
    /// a coordinator restart, and a replayed id would hand a new query the
    /// previous run's cached shard response.
    pub seed: u64,
    /// How often a connection handler waiting for a client's next line
    /// looks at the shutdown flag.
    pub poll_interval: Duration,
    /// Rolling outcome-window size per backend breaker.
    pub breaker_window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub breaker_min_samples: usize,
    /// Failure ratio over the window that opens the breaker.
    pub breaker_failure_ratio: f64,
    /// How long an open breaker fast-fails before half-opening.
    pub breaker_cooldown: Duration,
    /// A successful attempt slower than this counts as a breaker failure
    /// (the latency half of the outcome window).
    pub breaker_latency: Duration,
    /// `busy`/`expired` answers per shard before the coordinator stops
    /// cycling replicas and answers `busy` itself; `0` disables storm
    /// detection (replicas are cycled to exhaustion as before).
    pub busy_storm_threshold: u32,
    /// Floor for the jittered `retry_after_ms` a busy storm answers with;
    /// the largest backend-provided hint wins when bigger.
    pub busy_retry_after: Duration,
    /// Log scatter-gather queries slower than this to the coordinator's
    /// own slow-query ring (served by `TRACE` / `TRACE <id>` at the front
    /// door). `None` disables threshold logging; a request carrying
    /// `trace=1` is force-logged either way.
    pub slow_query: Option<Duration>,
    /// Capacity of the coordinator's slow-query ring; `0` disables it.
    pub slow_log_cap: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            replicas: 2,
            attempts: 3,
            hedge_after: Duration::from_millis(150),
            heartbeat_interval: Duration::from_millis(200),
            down_after: 2,
            merge_slack: Duration::from_millis(50),
            default_deadline: Duration::from_secs(10),
            connect_timeout: Duration::from_millis(250),
            dedup_cap: 256,
            seed: 1,
            poll_interval: Duration::from_millis(20),
            breaker_window: 16,
            breaker_min_samples: 4,
            breaker_failure_ratio: 0.5,
            breaker_cooldown: Duration::from_secs(1),
            breaker_latency: Duration::from_secs(2),
            busy_storm_threshold: 3,
            busy_retry_after: Duration::from_millis(100),
            slow_query: None,
            slow_log_cap: SLOW_LOG_CAP_DEFAULT,
        }
    }
}

/// One backend's health-registry entry plus its request-path circuit
/// breaker. The two are deliberately independent: heartbeats (`up`,
/// `failures`) track *connectivity*, the breaker tracks *request
/// outcomes* — a backend that answers `PING` but kills every query must
/// still trip the breaker, and a half-open probe is a real request, not a
/// heartbeat.
struct Backend {
    addr: SocketAddr,
    /// Idle connections, most recently used last. Invariant: a connection
    /// in here has no request outstanding and no unread bytes — it was put
    /// back right after the one complete response line to its one request.
    idle: Mutex<Vec<Client>>,
    up: AtomicBool,
    failures: AtomicU32,
    marked_down: AtomicU64,
    probes: AtomicU64,
    breaker: Mutex<BreakerState>,
    breaker_trips: AtomicU64,
}

/// Idle connections kept per backend; a burst beyond this redials.
const IDLE_CAP: usize = 8;

/// A socket timeout (the peer is slow), not a broken connection.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Rolling-window breaker: closed (window filling), open (fast-fail until
/// `open_until`), half-open (`probing` — one outcome decides).
struct BreakerState {
    /// Most recent request outcomes, `true` = fast success.
    window: std::collections::VecDeque<bool>,
    /// While `Some` and in the future, the breaker is open.
    open_until: Option<Instant>,
    /// Cooldown elapsed; the next recorded outcome closes or re-opens.
    probing: bool,
}

impl Backend {
    fn new(addr: SocketAddr) -> Backend {
        Backend {
            addr,
            idle: Mutex::new(Vec::new()),
            up: AtomicBool::new(true),
            failures: AtomicU32::new(0),
            marked_down: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            breaker: Mutex::new(BreakerState {
                window: std::collections::VecDeque::new(),
                open_until: None,
                probing: false,
            }),
            breaker_trips: AtomicU64::new(0),
        }
    }

    fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// A connection to send one request on: the most recently returned
    /// idle one (`true`: reused), else a fresh dial.
    fn checkout(&self, connect_timeout: Duration) -> io::Result<(Client, bool)> {
        if let Some(client) = self.idle.lock().pop() {
            return Ok((client, true));
        }
        Ok((Client::connect_timeout(&self.addr, connect_timeout)?, false))
    }

    /// Put back a connection whose one request has just been answered by
    /// one complete response line. Past [`IDLE_CAP`] it is closed instead.
    fn checkin(&self, client: Client) {
        let mut idle = self.idle.lock();
        if idle.len() < IDLE_CAP {
            idle.push(client);
        }
    }

    /// Whether the breaker currently fast-fails attempts (open, cooldown
    /// not yet elapsed). Pure read: never transitions state.
    fn breaker_is_open(&self) -> bool {
        let breaker = self.breaker.lock();
        matches!(breaker.open_until, Some(t) if Instant::now() < t)
    }

    /// Routing gate: `false` means fast-fail this attempt. When the
    /// cooldown has elapsed this transitions open → half-open and admits
    /// the attempt as the probe.
    fn breaker_allows(&self) -> bool {
        let mut breaker = self.breaker.lock();
        match breaker.open_until {
            Some(t) if Instant::now() < t => false,
            Some(_) => {
                breaker.open_until = None;
                breaker.probing = true;
                hin_telemetry::logfmt!("breaker_half_open", addr = self.addr);
                true
            }
            None => true,
        }
    }

    /// Record one request-path outcome. `ok` is the transport/answer
    /// verdict; a success slower than `breaker_latency` still counts as a
    /// failure (a saturated backend is as useless as a dead one).
    fn record_outcome(&self, ok: bool, latency: Duration, config: &CoordinatorConfig) {
        let success = ok && latency < config.breaker_latency;
        let mut breaker = self.breaker.lock();
        if breaker.probing {
            breaker.probing = false;
            if success {
                breaker.window.clear();
                hin_telemetry::logfmt!("breaker_close", addr = self.addr);
            } else {
                breaker.open_until = Some(Instant::now() + config.breaker_cooldown);
                self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                hin_telemetry::logfmt!("breaker_reopen", addr = self.addr);
            }
            return;
        }
        if breaker.open_until.is_some() {
            // A straggler attempt finishing after the trip: the window was
            // already cleared, don't let it pollute the next closed phase.
            return;
        }
        breaker.window.push_back(success);
        while breaker.window.len() > config.breaker_window.max(1) {
            breaker.window.pop_front();
        }
        if breaker.window.len() >= config.breaker_min_samples.max(1) {
            let failed = breaker.window.iter().filter(|&&s| !s).count();
            if failed as f64 >= config.breaker_failure_ratio * breaker.window.len() as f64 {
                breaker.open_until = Some(Instant::now() + config.breaker_cooldown);
                breaker.window.clear();
                self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                hin_telemetry::logfmt!(
                    "breaker_open",
                    addr = self.addr,
                    window_failures = failed,
                    cooldown_ms = config.breaker_cooldown.as_millis() as u64
                );
            }
        }
    }

    fn report_success(&self) {
        self.failures.store(0, Ordering::Relaxed);
        if !self.up.swap(true, Ordering::Relaxed) {
            hin_telemetry::logfmt!("backend_up", addr = self.addr);
        }
    }

    fn report_failure(&self, down_after: u32) {
        let failures = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= down_after.max(1) && self.up.swap(false, Ordering::Relaxed) {
            self.marked_down.fetch_add(1, Ordering::Relaxed);
            hin_telemetry::logfmt!(
                "backend_down",
                addr = self.addr,
                consecutive_failures = failures
            );
        }
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    degraded: AtomicU64,
    deduped: AtomicU64,
    failovers: AtomicU64,
    hedges: AtomicU64,
    no_backends: AtomicU64,
    breaker_fastfails: AtomicU64,
    busy_storms: AtomicU64,
}

impl Counters {
    fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Health and throughput of one backend, as reported by
/// [`CoordSnapshot::backends`].
#[derive(Debug, Clone, Serialize)]
pub struct BackendStatus {
    /// The backend's address.
    pub addr: String,
    /// Whether the health registry currently considers it serving.
    pub up: bool,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
    /// How many times it has been marked down over the coordinator's life.
    pub marked_down: u64,
    /// Heartbeat probes sent to it.
    pub heartbeats: u64,
    /// Whether its circuit breaker is currently open (fast-failing).
    pub breaker_open: bool,
    /// How many times its breaker has tripped open (including re-opens
    /// from a failed half-open probe).
    pub breaker_trips: u64,
}

/// A point-in-time snapshot of the coordinator's counters and backend
/// health; the `STATS`/`METRICS JSON` body and [`Coordinator::run`]'s
/// return value.
#[derive(Debug, Clone, Serialize)]
pub struct CoordSnapshot {
    /// Milliseconds since the coordinator started.
    pub uptime_ms: u64,
    /// Request lines received.
    pub requests: u64,
    /// Requests answered successfully (including degraded ones).
    pub completed: u64,
    /// Requests answered with an `err` response.
    pub errors: u64,
    /// Successful answers flagged `degraded`.
    pub degraded: u64,
    /// Responses replayed from the idempotency cache.
    pub deduped: u64,
    /// Shard attempts re-routed to another replica.
    pub failovers: u64,
    /// Hedged (duplicate) shard attempts launched.
    pub hedges: u64,
    /// Requests refused because no backend could serve any shard.
    pub no_backends: u64,
    /// Shard attempts fast-failed by an open circuit breaker.
    pub breaker_fastfails: u64,
    /// Requests answered `busy` because a shard's replicas hit the
    /// busy-storm threshold.
    pub busy_storms: u64,
    /// Per-backend health.
    pub backends: Vec<BackendStatus>,
}

struct CoordShared {
    config: CoordinatorConfig,
    backends: Vec<Backend>,
    /// The front door's address: `SHUTDOWN` connects to it to wake the
    /// acceptor out of `accept`.
    addr: SocketAddr,
    shutdown: AtomicBool,
    dedup: Mutex<DedupCache>,
    seq: AtomicU64,
    /// `config.seed` mixed with a per-boot nonce; the base of every
    /// generated idempotency id, so ids never repeat across restarts.
    id_seed: u64,
    epoch: Instant,
    counters: Counters,
    /// Ring of the last `config.slow_log_cap` assembled cross-process
    /// traces (slow or `trace=1` scatter-gather queries), oldest first.
    slow_log: Mutex<VecDeque<TraceBody>>,
    /// Ids for ring entries whose request carried no `id=`.
    slow_seq: AtomicU64,
}

impl CoordShared {
    /// Answer `TRACE` (list the coordinator's slow-query ring) or
    /// `TRACE <id>` (one assembled cross-process trace) — the same shape a
    /// backend serves, so front-door tooling works unchanged.
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

    /// Append one assembled trace to the ring, evicting oldest-first past
    /// capacity, and emit a structured log line.
    fn log_trace(&self, entry: TraceBody) {
        hin_telemetry::logfmt!(
            "coord_slow_query",
            id = entry.id,
            total_us = entry.total_us,
            degraded = entry.degraded,
            spans_dropped = entry.spans_dropped
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
    fn snapshot(&self) -> CoordSnapshot {
        CoordSnapshot {
            uptime_ms: self.epoch.elapsed().as_millis() as u64,
            requests: self.counters.requests.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            deduped: self.counters.deduped.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            hedges: self.counters.hedges.load(Ordering::Relaxed),
            no_backends: self.counters.no_backends.load(Ordering::Relaxed),
            breaker_fastfails: self.counters.breaker_fastfails.load(Ordering::Relaxed),
            busy_storms: self.counters.busy_storms.load(Ordering::Relaxed),
            backends: self
                .backends
                .iter()
                .map(|b| BackendStatus {
                    addr: b.addr.to_string(),
                    up: b.is_up(),
                    consecutive_failures: b.failures.load(Ordering::Relaxed),
                    marked_down: b.marked_down.load(Ordering::Relaxed),
                    heartbeats: b.probes.load(Ordering::Relaxed),
                    breaker_open: b.breaker_is_open(),
                    breaker_trips: b.breaker_trips.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// The scatter-gather front-end. Bind it to an address, hand it the backend
/// addresses, and [`run`](Coordinator::run) it; it serves the same protocol
/// as a single backend.
pub struct Coordinator {
    shared: Arc<CoordShared>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Coordinator {
    /// Bind the coordinator's listening socket.
    pub fn bind(
        backends: Vec<SocketAddr>,
        addr: impl ToSocketAddrs,
        config: CoordinatorConfig,
    ) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        Coordinator::from_listener(backends, listener, config)
    }

    /// Like [`bind`](Coordinator::bind), retrying `AddrInUse` with doubling
    /// backoff (shared with the backend server's restart path).
    pub fn bind_retry(
        backends: Vec<SocketAddr>,
        addr: impl ToSocketAddrs,
        config: CoordinatorConfig,
        attempts: usize,
        initial_backoff: Duration,
    ) -> io::Result<Coordinator> {
        let listener = bind_listener_retry(addr, attempts, initial_backoff)?;
        Coordinator::from_listener(backends, listener, config)
    }

    /// Wrap an already-bound listener.
    pub fn from_listener(
        backends: Vec<SocketAddr>,
        listener: TcpListener,
        config: CoordinatorConfig,
    ) -> io::Result<Coordinator> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a coordinator needs at least one backend",
            ));
        }
        let addr = listener.local_addr()?;
        let boot_nonce = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let shared = Arc::new(CoordShared {
            dedup: Mutex::new(DedupCache::new(config.dedup_cap)),
            backends: backends.into_iter().map(Backend::new).collect(),
            addr,
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(1),
            id_seed: fault::mix(config.seed, boot_nonce, u64::from(std::process::id())),
            epoch: Instant::now(),
            counters: Counters::default(),
            slow_log: Mutex::new(VecDeque::new()),
            slow_seq: AtomicU64::new(1),
            config,
        });
        Ok(Coordinator {
            shared,
            listener,
            addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a `SHUTDOWN` request arrives; returns the final counter
    /// snapshot.
    pub fn run(self) -> CoordSnapshot {
        hin_telemetry::logfmt!(
            "coordinator_start",
            addr = self.addr,
            backends = self.shared.backends.len()
        );
        let shared = self.shared;
        let heartbeat = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hin-coord-heartbeat".into())
                .spawn(move || heartbeat_loop(&shared))
        };
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let accepted = self.listener.accept();
            // Checked after every return from `accept`: the connection
            // that `SHUTDOWN` makes to wake this loop ends it.
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    if let Ok(handle) = std::thread::Builder::new()
                        .name("hin-coord-conn".into())
                        .spawn(move || handle_client(&shared, stream))
                    {
                        handlers.push(handle);
                    }
                    if handlers.len() >= 128 {
                        handlers.retain(|h| !h.is_finished());
                    }
                }
                // Out of descriptors, say: do not spin on it.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        for handle in handlers {
            let _ = handle.join();
        }
        if let Ok(handle) = heartbeat {
            let _ = handle.join();
        }
        hin_telemetry::logfmt!("coordinator_stop");
        shared.snapshot()
    }
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

fn heartbeat_loop(shared: &CoordShared) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        for backend in &shared.backends {
            // Down backends keep being probed: that IS the half-open state —
            // one successful PING marks them back up.
            backend.probes.fetch_add(1, Ordering::Relaxed);
            if probe(backend.addr, shared.config.connect_timeout) {
                backend.report_success();
            } else {
                backend.report_failure(shared.config.down_after);
            }
        }
        let mut slept = Duration::ZERO;
        while slept < shared.config.heartbeat_interval {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let step = Duration::from_millis(5).min(shared.config.heartbeat_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

fn probe(addr: SocketAddr, connect_timeout: Duration) -> bool {
    let Ok(mut client) = Client::connect_timeout(&addr, connect_timeout) else {
        return false;
    };
    let io_timeout = connect_timeout.max(Duration::from_millis(100));
    if client
        .set_io_timeouts(Some(io_timeout), Some(io_timeout))
        .is_err()
    {
        return false;
    }
    matches!(
        client.send_line("PING").as_deref().map(response_kind),
        Ok(Some("pong"))
    )
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn handle_client(shared: &Arc<CoordShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = LineReader::new(stream);
    loop {
        match reader.next_line(&shared.shutdown, shared.config.poll_interval) {
            LineEvent::Line(line) => {
                Counters::inc(&shared.counters.requests);
                let tokens: Vec<&str> = line.split_whitespace().collect();
                if tokens
                    .first()
                    .is_some_and(|t| t.eq_ignore_ascii_case("FAULTS"))
                {
                    // FAULTS is intercepted before Request::parse: the
                    // coordinator grammar inserts a backend index that the
                    // backend grammar does not know.
                    let response = route_faults(shared, &tokens);
                    note_response(&shared.counters, &response);
                    if !reader.write_line(&response) {
                        return;
                    }
                    continue;
                }
                if tokens
                    .first()
                    .is_some_and(|t| t.eq_ignore_ascii_case("TRACE"))
                    && tokens
                        .get(1)
                        .is_some_and(|t| t.eq_ignore_ascii_case("BACKEND"))
                {
                    // TRACE BACKEND <i> [id] reads one backend's ring,
                    // mirroring FAULTS <i>; it is intercepted before
                    // Request::parse because the backend grammar has no
                    // BACKEND token. A plain TRACE falls through to
                    // dispatch and reads the coordinator's own ring.
                    let response = route_trace_backend(shared, &tokens);
                    note_response(&shared.counters, &response);
                    if !reader.write_line(&response) {
                        return;
                    }
                    continue;
                }
                let request = match Request::parse(&line) {
                    Ok(r) => r,
                    Err(e) => {
                        let response =
                            Response::err(ErrorCode::Protocol, e.to_string()).to_json_line();
                        note_response(&shared.counters, &response);
                        if !reader.write_line(&response) {
                            return;
                        }
                        continue;
                    }
                };
                match request {
                    Request::Shutdown => {
                        shared.shutdown.store(true, Ordering::SeqCst);
                        Counters::inc(&shared.counters.completed);
                        let _ = reader.write_response(&Response::Bye { draining: 0 });
                        wake_acceptor(shared.addr);
                        return;
                    }
                    Request::Metrics { json: false } => {
                        Counters::inc(&shared.counters.completed);
                        if !reader.write_text_block(&merged_metrics_text(shared)) {
                            return;
                        }
                        continue;
                    }
                    _ => {}
                }
                if let Some(id) = request.id() {
                    if let Some(cached) = shared.dedup.lock().get(id) {
                        Counters::inc(&shared.counters.deduped);
                        if !reader.write_line(&cached) {
                            return;
                        }
                        continue;
                    }
                }
                let response = dispatch(shared, &request);
                if let Some(id) = request.id() {
                    if replayable(&response) {
                        shared.dedup.lock().insert(id, response.clone());
                    }
                }
                note_response(&shared.counters, &response);
                if !reader.write_line(&response) {
                    return;
                }
            }
            LineEvent::Malformed(msg) => {
                Counters::inc(&shared.counters.requests);
                let response = Response::err(ErrorCode::Protocol, msg).to_json_line();
                note_response(&shared.counters, &response);
                if !reader.write_line(&response) {
                    return;
                }
            }
            LineEvent::Eof | LineEvent::Shutdown => return,
        }
    }
}

fn note_response(counters: &Counters, line: &str) {
    match response_kind(line) {
        Some("err") => {
            Counters::inc(&counters.errors);
            if line.contains("\"code\":\"NoBackends\"") {
                Counters::inc(&counters.no_backends);
            }
        }
        Some("busy") | None => {}
        Some(_) => {
            Counters::inc(&counters.completed);
            if line.contains("\"degraded\":{") {
                Counters::inc(&counters.degraded);
            }
        }
    }
}

fn dispatch(shared: &Arc<CoordShared>, request: &Request) -> String {
    match request {
        Request::Ping => Response::Pong {
            uptime_ms: shared.epoch.elapsed().as_millis() as u64,
        }
        .to_json_line(),
        Request::Stats => stats_line(shared),
        Request::Metrics { json: true } => metrics_json_line(shared),
        Request::Metrics { json: false } | Request::Shutdown => {
            Response::err(ErrorCode::Internal, "request handled before dispatch").to_json_line()
        }
        Request::Trace { id } => shared.trace_response(*id).to_json_line(),
        Request::Faults(_) => Response::err(ErrorCode::Protocol, FAULTS_USAGE).to_json_line(),
        Request::Query { options, .. } if options.shard.is_some() => Response::err(
            ErrorCode::Protocol,
            "the shard= option is reserved for coordinator-to-backend sub-requests",
        )
        .to_json_line(),
        Request::Query { options, text } => scatter_gather_query(shared, options, text),
        Request::Explain { .. } | Request::Sleep { .. } => forward_with_failover(shared, request),
    }
}

// ---------------------------------------------------------------------------
// Scatter-gather QUERY path
// ---------------------------------------------------------------------------

fn scatter_gather_query(shared: &CoordShared, options: &RequestOptions, text: &str) -> String {
    let exec_started = Instant::now();
    // Assemble a cross-process trace when the client asked (`trace=1`) or
    // the coordinator's own slow-query ring is armed. Backends then attach
    // their span trees to the shard responses; the coordinator strips the
    // payload before merging rows, so the client-visible `result` stays
    // byte-identical to an untraced run.
    let tracing = options.trace || shared.config.slow_query.is_some();
    let n = shared.backends.len();
    let config = &shared.config;
    let deadline_total = options
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(config.default_deadline);
    // Carve the per-shard budget out of the request deadline, reserving
    // slack for the coordinator-side merge.
    let shard_budget = Budget::unbounded()
        .with_timeout_ms((deadline_total.as_millis().max(1)) as u64)
        .carve(config.merge_slack);
    let shard_timeout = shard_budget.timeout.unwrap_or(deadline_total);
    let shard_deadline = exec_started + shard_timeout;
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    let lines: Vec<String> = (0..n)
        .map(|i| {
            let mut sub = options.clone();
            // Shard execution is always strict on the backend; degradation
            // is decided here, at merge time.
            sub.mode = None;
            sub.timeout_ms = Some((shard_timeout.as_millis() as u64).max(1));
            // Per-shard idempotency id, unique per (boot, request, shard):
            // a hedged duplicate or a retry of the same shard replays
            // instead of re-executing, while a restarted coordinator can
            // never collide with a previous run's ids still held in a
            // backend's dedup cache.
            sub.id = Some(fault::mix(shared.id_seed, seq, i as u64));
            sub.shard = Some((i, n));
            sub.trace = tracing;
            Request::Query {
                options: sub,
                text: text.to_string(),
            }
            .to_line()
        })
        .collect();
    // Shard 0 is fetched on this thread, the others on one thread each;
    // attempt threads (hedges, reads that outlast the hedge mark) join the
    // same scope, so none outlives the query.
    let lines = &lines;
    let fetched: Vec<(ShardOutcome, Option<TracedShard>)> = std::thread::scope(|scope| {
        let fetch = move |i: usize| {
            fetch_shard(
                scope,
                shared,
                &lines[i],
                i,
                shard_deadline,
                exec_started,
                tracing,
            )
        };
        let handles: Vec<_> = (1..n).map(|i| scope.spawn(move || fetch(i))).collect();
        let mut fetched = vec![fetch(0)];
        fetched.extend(handles.into_iter().map(|h| {
            h.join().unwrap_or_else(|_| {
                (
                    ShardOutcome::Unavailable("coordinator worker panicked".to_string()),
                    None,
                )
            })
        }));
        fetched
    });
    let scatter_done = Instant::now();
    let mut outcomes = Vec::with_capacity(fetched.len());
    let mut shard_nodes = Vec::new();
    let mut backend_spans_dropped = 0u64;
    for (outcome, traced) in fetched {
        outcomes.push(outcome);
        if let Some(traced) = traced {
            backend_spans_dropped += traced.spans_dropped;
            shard_nodes.push(traced.node);
        }
    }
    // A busy storm on any shard means the fleet is load-shedding, not
    // broken: answer `busy` with a jittered retry hint instead of a
    // degraded ranking, so clients back off de-synchronized. A definitive
    // backend answer (what a single box would have said) still wins.
    let has_definitive = outcomes
        .iter()
        .any(|o| matches!(o, ShardOutcome::Definitive(_)));
    let storm_hint = outcomes
        .iter()
        .filter_map(|o| match o {
            ShardOutcome::Overloaded { retry_after_ms } if !has_definitive => Some(*retry_after_ms),
            _ => None,
        })
        .max();
    let response = if let Some(hint) = storm_hint {
        Counters::inc(&shared.counters.busy_storms);
        let base = hint.max(config.busy_retry_after.as_millis() as u64).max(1);
        // Deterministic per-request jitter in [base/2, base]: full-jitter
        // over the top half keeps the floor meaningful while spreading
        // synchronized retries.
        let mut rng = fault::XorShift64::new(fault::mix(shared.id_seed, seq, 0xB0B));
        let retry_after_ms = base / 2 + rng.next_below(base - base / 2 + 1);
        hin_telemetry::logfmt!("busy_storm", retry_after_ms = retry_after_ms);
        Response::Busy(BusyBody {
            // The coordinator has no admission queue of its own; zeros
            // mark this as a fleet-level shed.
            queue_depth: 0,
            queue_cap: 0,
            retry_after_ms,
        })
        .to_json_line()
    } else {
        merge_outcomes(options, &outcomes, exec_started)
    };
    if tracing {
        let total = exec_started.elapsed();
        let log = options.trace
            || shared
                .config
                .slow_query
                .is_some_and(|threshold| total >= threshold);
        if log {
            let entry = assemble_trace(
                shared,
                options,
                text,
                &response,
                AssemblyTimes {
                    total,
                    scatter_dur: scatter_done.duration_since(exec_started),
                    deadline_total,
                    shard_timeout,
                },
                shard_nodes,
                backend_spans_dropped,
            );
            shared.log_trace(entry);
        }
    }
    response
}

/// Phase durations of one scatter-gather execution, for the assembled
/// trace's carve/scatter/merge spans.
struct AssemblyTimes {
    total: Duration,
    scatter_dur: Duration,
    deadline_total: Duration,
    shard_timeout: Duration,
}

/// Stitch the coordinator's own phases and the collected per-shard nodes
/// (which carry the backend span trees) into one cross-process trace,
/// shaped as a backend `TraceBody` so front-door `TRACE` tooling works
/// unchanged. Fields a coordinator has no equivalent for (`queue_wait_us`,
/// cache counters) are zeroed: the coordinator admits requests straight
/// onto connection threads.
fn assemble_trace(
    shared: &CoordShared,
    options: &RequestOptions,
    text: &str,
    response: &str,
    times: AssemblyTimes,
    shard_nodes: Vec<TraceNode>,
    backend_spans_dropped: u64,
) -> TraceBody {
    let total_us = times.total.as_micros() as u64;
    let scatter_us = (times.scatter_dur.as_micros() as u64).min(total_us);
    let carve = TraceNode {
        name: "carve".to_string(),
        start_us: 0,
        dur_us: 0,
        fields: vec![
            (
                "deadline_ms".to_string(),
                (times.deadline_total.as_millis() as u64).to_string(),
            ),
            (
                "shard_timeout_ms".to_string(),
                (times.shard_timeout.as_millis() as u64).to_string(),
            ),
            (
                "merge_slack_ms".to_string(),
                (shared.config.merge_slack.as_millis() as u64).to_string(),
            ),
        ],
        children: Vec::new(),
    };
    let scatter = TraceNode {
        name: "scatter".to_string(),
        start_us: 0,
        dur_us: scatter_us,
        fields: vec![("shards".to_string(), shared.backends.len().to_string())],
        children: shard_nodes,
    };
    let merge = TraceNode {
        name: "merge".to_string(),
        start_us: scatter_us,
        dur_us: total_us.saturating_sub(scatter_us),
        fields: vec![(
            "outcome".to_string(),
            response_kind(response).unwrap_or("?").to_string(),
        )],
        children: Vec::new(),
    };
    let root = TraceNode {
        name: "query".to_string(),
        start_us: 0,
        dur_us: total_us,
        fields: Vec::new(),
        children: vec![carve, scatter, merge],
    };
    let id = options
        .id
        .unwrap_or_else(|| shared.slow_seq.fetch_add(1, Ordering::Relaxed));
    TraceBody {
        id,
        request: Request::Query {
            options: options.clone(),
            text: text.to_string(),
        }
        .to_line(),
        queue_wait_us: 0,
        exec_us: total_us,
        total_us,
        degraded: response.contains("\"degraded\":{"),
        cache: crate::stats::CacheSnapshot::default(),
        subpath: None,
        spans_dropped: backend_spans_dropped,
        spans: vec![root],
    }
}

/// What one shard's fetch resolved to.
enum ShardOutcome {
    /// A parsed `shard` body, ready to merge.
    Data(ShardData),
    /// A non-retryable backend answer (query error, budget error, …) that
    /// must be relayed to the client verbatim.
    Definitive(String),
    /// Every attempt failed within the deadline; the reason text names the
    /// last failure.
    Unavailable(String),
    /// The replicas kept answering `busy`/`expired` up to the storm
    /// threshold: the fleet is shedding load, stop burning attempts. The
    /// hint is the largest backend-provided `retry_after_ms` (0 if none).
    Overloaded { retry_after_ms: u64 },
}

#[derive(Debug)]
struct ShardData {
    measure: String,
    asc: bool,
    top: Option<usize>,
    candidates: usize,
    reference: usize,
    zero_visibility: usize,
    rows: Vec<(u32, String, f64)>,
    /// The backend's trace payload, present when the sub-request carried
    /// `trace=1`; taken (never merged) when grafting the assembled tree.
    trace: Option<ShardTrace>,
}

/// One shard's contribution to the assembled trace: its span node (with
/// the winning backend's spans grafted under the winning attempt) plus the
/// backend's span-buffer drop count.
struct TracedShard {
    node: TraceNode,
    spans_dropped: u64,
}

/// Trace bookkeeping for one shard attempt, kept regardless of tracing
/// (a handful of tiny records per request) and rendered only on demand.
struct AttemptRecord {
    backend: SocketAddr,
    /// Why this attempt launched: `first`, `failover`, `hedge`, or
    /// `fast-fail` (the breaker refused it without dialing).
    kind: &'static str,
    /// Microseconds since the request's scatter began.
    start_us: u64,
    /// `None` while in flight; filled when the attempt resolves.
    dur_us: Option<u64>,
    outcome: String,
}

fn fetch_shard<'scope>(
    scope: &'scope Scope<'scope, '_>,
    shared: &'scope CoordShared,
    line: &'scope str,
    shard: usize,
    deadline: Instant,
    epoch: Instant,
    tracing: bool,
) -> (ShardOutcome, Option<TracedShard>) {
    let of = shared.backends.len();
    // Breaker-open backends sort with the unhealthy ones: the breaker
    // fast-fails them anyway, so spend the early attempts elsewhere.
    let up: Vec<bool> = shared
        .backends
        .iter()
        .map(|b| b.is_up() && !b.breaker_is_open())
        .collect();
    let order = replica_order(&up, shard, shared.config.replicas, shared.config.attempts);
    if order.is_empty() {
        let outcome = ShardOutcome::Unavailable("no backends configured".to_string());
        let traced = tracing.then(|| TracedShard {
            node: shard_trace_node(shard, of, &outcome, Vec::new()),
            spans_dropped: 0,
        });
        return (outcome, traced);
    }
    let (tx, rx) = mpsc::channel();
    let fetch = ShardFetch {
        scope,
        shared,
        line,
        shard,
        of,
        deadline,
        epoch,
        order,
        next: 0,
        pending: 0,
        launched: 0,
        handles: Vec::new(),
        tx,
        inline: None,
        last_reason: String::new(),
        busy_seen: 0,
        retry_hint_ms: 0,
        attempts: Vec::new(),
        winner: None,
    };
    let (mut outcome, mut attempts, winner) = fetch.run(&rx);
    if !tracing {
        return (outcome, None);
    }
    // Graft the winning backend's span tree under its attempt node; the
    // payload is *taken* off the shard data so it can never leak into the
    // merged client response.
    let mut spans_dropped = 0;
    let mut attempt_nodes = Vec::with_capacity(attempts.len());
    for (i, record) in attempts.drain(..).enumerate() {
        let mut node = attempt_trace_node(record);
        if winner == Some(i) {
            if let ShardOutcome::Data(data) = &mut outcome {
                if let Some(payload) = data.trace.take() {
                    spans_dropped += payload.spans_dropped;
                    node.fields.push((
                        "backend_queue_wait_us".to_string(),
                        payload.queue_wait_us.to_string(),
                    ));
                    node.fields.push((
                        "backend_spans_dropped".to_string(),
                        payload.spans_dropped.to_string(),
                    ));
                    // Backend span timestamps are relative to the
                    // backend's own execution start, not the scatter
                    // epoch (DESIGN.md §17).
                    node.children = payload.spans;
                }
            }
        }
        attempt_nodes.push(node);
    }
    let traced = TracedShard {
        node: shard_trace_node(shard, of, &outcome, attempt_nodes),
        spans_dropped,
    };
    (outcome, Some(traced))
}

/// Render one [`AttemptRecord`] as a span node. An attempt still
/// unresolved when the shard settled lost a hedge race (or outlived the
/// deadline) and was cancelled by disconnect — annotated, not silent.
fn attempt_trace_node(record: AttemptRecord) -> TraceNode {
    let (dur_us, outcome) = match record.dur_us {
        Some(d) => (d, record.outcome),
        None => (0, "cancelled (lost the race)".to_string()),
    };
    TraceNode {
        name: "attempt".to_string(),
        start_us: record.start_us,
        dur_us,
        fields: vec![
            ("backend".to_string(), record.backend.to_string()),
            ("kind".to_string(), record.kind.to_string()),
            ("outcome".to_string(), outcome),
        ],
        children: Vec::new(),
    }
}

/// The per-shard span node: attempt children, extents spanning them.
fn shard_trace_node(
    shard: usize,
    of: usize,
    outcome: &ShardOutcome,
    children: Vec<TraceNode>,
) -> TraceNode {
    let outcome_text = match outcome {
        ShardOutcome::Data(_) => "ok".to_string(),
        ShardOutcome::Definitive(_) => "definitive".to_string(),
        ShardOutcome::Unavailable(reason) => format!("unavailable: {reason}"),
        ShardOutcome::Overloaded { retry_after_ms } => {
            format!("overloaded (retry_after_ms={retry_after_ms})")
        }
    };
    let start_us = children.iter().map(|c| c.start_us).min().unwrap_or(0);
    let end_us = children
        .iter()
        .map(|c| c.start_us + c.dur_us)
        .max()
        .unwrap_or(start_us);
    TraceNode {
        name: "shard".to_string(),
        start_us,
        dur_us: end_us - start_us,
        fields: vec![
            ("shard".to_string(), format!("{shard}/{of}")),
            ("outcome".to_string(), outcome_text),
        ],
        children,
    }
}

/// The replica attempt order for one shard: the `replicas` backends that own
/// it (wrapping from `shard`), healthy ones first, cycled out to `attempts`
/// entries.
fn replica_order(up: &[bool], shard: usize, replicas: usize, attempts: usize) -> Vec<usize> {
    let n = up.len();
    if n == 0 {
        return Vec::new();
    }
    let r = replicas.clamp(1, n);
    let set: Vec<usize> = (0..r).map(|k| (shard + k) % n).collect();
    let mut ordered: Vec<usize> = set.iter().copied().filter(|&i| up[i]).collect();
    ordered.extend(set.iter().copied().filter(|&i| !up[i]));
    let attempts = attempts.max(1);
    (0..attempts).map(|i| ordered[i % ordered.len()]).collect()
}

/// One attempt's connection, checked out for its one request.
struct AttemptConn {
    /// Index into [`ShardFetch::attempts`].
    attempt: usize,
    backend_index: usize,
    client: Client,
    /// Taken off the idle stack, not dialed: a failure short of a timeout
    /// may only mean that the backend closed it while it sat idle.
    reused: bool,
}

/// What an attempt reports to its shard's fetch loop: the connection, the
/// latency (request written → response read; excludes the dial), and the
/// response line. The connection comes along so that the loop — which
/// knows whether the shard is still undecided — is the one to pool it.
type AttemptMsg = (AttemptConn, Duration, io::Result<String>);

/// In-flight state of one shard's attempt fan-out: launches replica
/// attempts lazily, hedges slow ones, and cancels every loser once a
/// response wins.
struct ShardFetch<'scope, 'env> {
    /// The scatter's thread scope; attempt threads are spawned on it.
    scope: &'scope Scope<'scope, 'env>,
    shared: &'scope CoordShared,
    line: &'scope str,
    shard: usize,
    of: usize,
    deadline: Instant,
    /// The scatter's start instant; attempt timestamps are relative to it.
    epoch: Instant,
    order: Vec<usize>,
    next: usize,
    pending: usize,
    /// Attempts actually tried (including connect failures); distinguishes
    /// the shard's first launch from re-routes when counting metrics.
    launched: usize,
    /// Cancel handles of the attempts running on threads, by attempt index.
    handles: Vec<(usize, CancelHandle)>,
    tx: mpsc::Sender<AttemptMsg>,
    /// The attempt this thread does the I/O of itself: launched while
    /// nothing else was in flight, so there is nothing to watch meanwhile.
    inline: Option<AttemptConn>,
    last_reason: String,
    /// `busy`/`expired` answers seen across this shard's attempts.
    busy_seen: u32,
    /// Largest backend-provided `retry_after_ms` hint seen so far.
    retry_hint_ms: u64,
    /// One record per attempt (breaker fast-fails included), in launch
    /// order; channel messages carry the index into this vector.
    attempts: Vec<AttemptRecord>,
    /// Index of the attempt whose response settled the shard.
    winner: Option<usize>,
}

impl ShardFetch<'_, '_> {
    /// Launch the next attempt in the replica order. Returns `false` when
    /// the order (or the deadline) is exhausted.
    fn launch_next(&mut self) -> bool {
        while self.next < self.order.len() {
            let backend_index = self.order[self.next];
            self.next += 1;
            let backend = &self.shared.backends[backend_index];
            if self.deadline <= Instant::now() {
                return false;
            }
            let start_us = self.epoch.elapsed().as_micros() as u64;
            // An open breaker fast-fails the attempt: no connect, no read
            // timeout burned — straight to the next replica. (This call
            // also half-opens an expired cooldown, admitting the probe.)
            if !backend.breaker_allows() {
                Counters::inc(&self.shared.counters.breaker_fastfails);
                self.last_reason = format!("{}: breaker open", backend.addr);
                self.attempts.push(AttemptRecord {
                    backend: backend.addr,
                    kind: "fast-fail",
                    start_us,
                    dur_us: Some(0),
                    outcome: "breaker open".to_string(),
                });
                continue;
            }
            // Classify the attempt by its cause: a launch while another
            // attempt is still pending races it (hedge); a launch with
            // nothing in flight re-routes after a failure (failover). The
            // shard's very first attempt is neither.
            let kind = if self.launched == 0 {
                "first"
            } else if self.pending > 0 {
                Counters::inc(&self.shared.counters.hedges);
                "hedge"
            } else {
                Counters::inc(&self.shared.counters.failovers);
                "failover"
            };
            self.launched += 1;
            self.attempts.push(AttemptRecord {
                backend: backend.addr,
                kind,
                start_us,
                dur_us: None,
                outcome: String::new(),
            });
            if self.start(self.attempts.len() - 1, backend_index, false) {
                return true;
            }
        }
        false
    }

    /// Get `attempt` a connection to the backend — an idle one unless
    /// `fresh` — and put it in flight: on this thread when nothing else is
    /// pending, on a thread of its own when it races another attempt. A
    /// failed dial is the backend's failure; returns `false` for it.
    fn start(&mut self, attempt: usize, backend_index: usize, fresh: bool) -> bool {
        let backend = &self.shared.backends[backend_index];
        let dial_started = Instant::now();
        let connect = self
            .deadline
            .saturating_duration_since(dial_started)
            .min(self.shared.config.connect_timeout);
        let dialed = if fresh {
            Client::connect_timeout(&backend.addr, connect).map(|client| (client, false))
        } else {
            backend.checkout(connect)
        };
        let (client, reused) = match dialed {
            Ok(dialed) => dialed,
            Err(e) => {
                backend.report_failure(self.shared.config.down_after);
                backend.record_outcome(false, Duration::ZERO, &self.shared.config);
                self.last_reason = format!("{}: {e}", backend.addr);
                self.resolve(attempt, dial_started.elapsed(), format!("failed: {e}"));
                return false;
            }
        };
        let conn = AttemptConn {
            attempt,
            backend_index,
            client,
            reused,
        };
        self.pending += 1;
        if self.pending == 1 {
            self.inline = Some(conn);
        } else {
            self.run_on_thread(conn, None);
        }
        true
    }

    /// Move an attempt's I/O to a thread of its own, cancellable from here.
    /// With `sent` (when its request was written) the thread only reads
    /// on; otherwise it writes the request first. Failing to set the
    /// thread up fails the attempt, not the backend.
    fn run_on_thread(&mut self, mut conn: AttemptConn, sent: Option<Instant>) {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        let attempt = conn.attempt;
        let (tx, line) = (self.tx.clone(), self.line);
        let spawned = conn
            .client
            .set_io_timeouts(Some(remaining), Some(remaining))
            .and_then(|()| conn.client.cancel_handle())
            .and_then(|handle| {
                self.handles.push((attempt, handle));
                std::thread::Builder::new()
                    .name("hin-coord-attempt".into())
                    .spawn_scoped(self.scope, move || {
                        let started = sent.unwrap_or_else(Instant::now);
                        let result = match sent {
                            Some(_) => conn.client.read_response(),
                            None => conn.client.send_line(line),
                        };
                        let _ = tx.send((conn, started.elapsed(), result));
                    })
            });
        if let Err(e) = spawned {
            self.pending -= 1;
            self.handles.retain(|(a, _)| *a != attempt);
            self.last_reason = format!("attempt thread setup failed: {e}");
            self.resolve(attempt, Duration::ZERO, format!("failed: {e}"));
        }
    }

    /// Wait up to `wait` for an attempt to report. An inline attempt's
    /// exchange is that wait: write the request, read until `wait` passes.
    /// If it passes with a replica left to race, the connection reads on
    /// from a thread and this reports the channel's timeout.
    fn next_message(
        &mut self,
        rx: &mpsc::Receiver<AttemptMsg>,
        wait: Duration,
    ) -> Result<AttemptMsg, mpsc::RecvTimeoutError> {
        let Some(mut conn) = self.inline.take() else {
            return rx.recv_timeout(wait);
        };
        let started = Instant::now();
        let remaining = self.deadline.saturating_duration_since(started);
        let result = conn
            .client
            .set_io_timeouts(Some(wait), Some(remaining))
            .and_then(|()| conn.client.send_no_wait(self.line))
            .and_then(|()| conn.client.read_response());
        match result {
            Err(e)
                if is_timeout(&e)
                    && self.next < self.order.len()
                    && Instant::now() < self.deadline =>
            {
                self.run_on_thread(conn, Some(started));
                Err(mpsc::RecvTimeoutError::Timeout)
            }
            result => Ok((conn, started.elapsed(), result)),
        }
    }

    /// Disconnect every attempt still running on a thread: the backend
    /// observes the drop and cancels the in-flight execution; the attempt
    /// thread's blocked read fails and the thread exits. An attempt that
    /// has reported (the winner) is no longer in the list.
    fn cancel_all(&mut self) {
        for (_, handle) in self.handles.drain(..) {
            handle.cancel();
        }
    }

    fn reason(&self, what: &str) -> String {
        if self.last_reason.is_empty() {
            what.to_string()
        } else {
            format!("{what}; last error: {}", self.last_reason)
        }
    }

    /// Mark one launched attempt resolved, for the assembled trace.
    fn resolve(&mut self, attempt: usize, latency: Duration, outcome: String) {
        if let Some(record) = self.attempts.get_mut(attempt) {
            record.dur_us = Some(latency.as_micros() as u64);
            record.outcome = outcome;
        }
    }

    fn run(
        mut self,
        rx: &mpsc::Receiver<AttemptMsg>,
    ) -> (ShardOutcome, Vec<AttemptRecord>, Option<usize>) {
        let outcome = self.run_inner(rx);
        (outcome, self.attempts, self.winner)
    }

    fn run_inner(&mut self, rx: &mpsc::Receiver<AttemptMsg>) -> ShardOutcome {
        loop {
            while self.pending == 0 {
                if !self.launch_next() {
                    self.cancel_all();
                    return ShardOutcome::Unavailable(self.reason("all replica attempts failed"));
                }
            }
            let remaining = self.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.cancel_all();
                return ShardOutcome::Unavailable(self.reason("deadline exhausted"));
            }
            // With spare attempts left, wait only up to the hedge threshold
            // so a slow attempt gets raced; otherwise wait out the deadline.
            let wait = if self.next < self.order.len() {
                self.shared.config.hedge_after.min(remaining)
            } else {
                remaining
            };
            let (conn, latency, result) = match self.next_message(rx, wait) {
                Ok(msg) => msg,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.next < self.order.len() && Instant::now() < self.deadline {
                        // launch_next counts this as a hedge: the slow
                        // attempt is still pending, so the new one races it.
                        self.launch_next();
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.cancel_all();
                    return ShardOutcome::Unavailable(self.reason("all attempt channels closed"));
                }
            };
            let attempt = conn.attempt;
            self.pending -= 1;
            self.handles.retain(|(a, _)| *a != attempt);
            let backend = &self.shared.backends[conn.backend_index];
            let response = match result {
                Ok(response) => {
                    // One request, one complete response line, and the
                    // shard still undecided: as good as a new connection.
                    backend.checkin(conn.client);
                    response
                }
                Err(e) if conn.reused && !is_timeout(&e) => {
                    // A pooled connection the backend closed when it
                    // restarted says nothing about the backend now; one
                    // fresh dial does. The request keeps its `id=`: had the
                    // first copy executed, this one would be a dedup replay.
                    backend.idle.lock().clear();
                    self.start(attempt, conn.backend_index, true);
                    continue;
                }
                Err(e) => {
                    backend.report_failure(self.shared.config.down_after);
                    backend.record_outcome(false, latency, &self.shared.config);
                    self.last_reason = format!("{}: {e}", backend.addr);
                    self.resolve(attempt, latency, format!("failed: {e}"));
                    continue;
                }
            };
            match response_kind(&response) {
                Some("shard") => {
                    backend.report_success();
                    backend.record_outcome(true, latency, &self.shared.config);
                    self.winner = Some(attempt);
                    self.cancel_all();
                    return match parse_shard_body(&response, self.shard, self.of) {
                        Ok(data) => {
                            self.resolve(attempt, latency, "ok".to_string());
                            ShardOutcome::Data(data)
                        }
                        Err(e) => {
                            self.resolve(
                                attempt,
                                latency,
                                "failed: malformed shard body".to_string(),
                            );
                            ShardOutcome::Unavailable(format!(
                                "backend {} answered with a malformed shard body: {e}",
                                backend.addr
                            ))
                        }
                    };
                }
                _ if is_retryable(&response) => {
                    let shedding = matches!(response_kind(&response), Some("busy" | "expired"));
                    // Load-shedding answers leave the breaker alone
                    // (the backend is alive, just saturated); only
                    // retryable *errors* (Internal/Panic) count.
                    backend.record_outcome(shedding, latency, &self.shared.config);
                    self.last_reason = format!("{}: {}", backend.addr, summarize(&response));
                    self.resolve(attempt, latency, summarize(&response));
                    if shedding {
                        self.busy_seen += 1;
                        if let Some(hint) = json_u64_field(&response, "retry_after_ms") {
                            self.retry_hint_ms = self.retry_hint_ms.max(hint);
                        }
                        let threshold = self.shared.config.busy_storm_threshold;
                        if threshold > 0 && self.busy_seen >= threshold {
                            self.cancel_all();
                            return ShardOutcome::Overloaded {
                                retry_after_ms: self.retry_hint_ms,
                            };
                        }
                    }
                }
                _ => {
                    backend.report_success();
                    backend.record_outcome(true, latency, &self.shared.config);
                    self.winner = Some(attempt);
                    self.resolve(attempt, latency, "definitive answer".to_string());
                    self.cancel_all();
                    return ShardOutcome::Definitive(response);
                }
            }
        }
    }
}

fn parse_shard_body(line: &str, shard: usize, of: usize) -> Result<ShardData, String> {
    let value = parse_value(line)?;
    let body = value
        .get("shard")
        .ok_or_else(|| "missing \"shard\" body".to_string())?;
    let field_usize = |key: &str| -> Result<usize, String> {
        body.get(key)
            .and_then(Value::as_usize)
            .ok_or_else(|| format!("missing numeric field {key:?}"))
    };
    let echo_shard = field_usize("shard")?;
    let echo_of = field_usize("of")?;
    if echo_shard != shard || echo_of != of {
        return Err(format!(
            "shard echo mismatch: asked for {shard}/{of}, got {echo_shard}/{echo_of}"
        ));
    }
    let measure = body
        .get("measure")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"measure\"".to_string())?
        .to_string();
    let asc = body
        .get("asc")
        .and_then(Value::as_bool)
        .ok_or_else(|| "missing \"asc\"".to_string())?;
    let top = match body.get("top") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| "non-numeric \"top\"".to_string())?,
        ),
    };
    let rows_value = body
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing \"rows\"".to_string())?;
    let mut rows = Vec::with_capacity(rows_value.len());
    for row in rows_value {
        let v = row
            .get("v")
            .and_then(Value::as_u64)
            .ok_or_else(|| "row missing \"v\"".to_string())?;
        let v = u32::try_from(v).map_err(|_| "row \"v\" out of range".to_string())?;
        let name = row
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "row missing \"name\"".to_string())?
            .to_string();
        let score = row
            .get("score")
            .and_then(Value::as_f64)
            .ok_or_else(|| "row missing \"score\"".to_string())?;
        rows.push((v, name, score));
    }
    Ok(ShardData {
        measure,
        asc,
        top,
        candidates: field_usize("candidates")?,
        reference: field_usize("reference")?,
        zero_visibility: field_usize("zero_visibility")?,
        rows,
        // Trace payloads are observability, not truth: a malformed one is
        // dropped rather than failing the shard, so tracing can never turn
        // a mergeable answer into an unavailable one.
        trace: body.get("trace").and_then(parse_shard_trace),
    })
}

/// Decode the optional `trace` payload off a `shard` body; `None` on any
/// structural mismatch (see the leniency note at the call site).
fn parse_shard_trace(t: &Value) -> Option<ShardTrace> {
    let queue_wait_us = t.get("queue_wait_us").and_then(Value::as_u64)?;
    let spans_dropped = t.get("spans_dropped").and_then(Value::as_u64)?;
    let spans_value = t.get("spans").and_then(Value::as_array)?;
    let mut spans = Vec::with_capacity(spans_value.len());
    for span in spans_value {
        spans.push(trace_node_from_value(span).ok()?);
    }
    Some(ShardTrace {
        queue_wait_us,
        spans_dropped,
        spans,
    })
}

fn merge_outcomes(
    options: &RequestOptions,
    outcomes: &[ShardOutcome],
    exec_started: Instant,
) -> String {
    // A definitive backend error (bad query, budget trip, …) is what a
    // single box would have answered: relay it verbatim.
    for outcome in outcomes {
        if let ShardOutcome::Definitive(line) = outcome {
            return line.clone();
        }
    }
    let mut available: Vec<&ShardData> = Vec::new();
    let mut missing: Vec<(usize, &str)> = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            ShardOutcome::Data(data) => available.push(data),
            ShardOutcome::Unavailable(reason) => missing.push((i, reason.as_str())),
            ShardOutcome::Definitive(_) => {}
            // Storms short-circuit before the merge; this arm only fires
            // if another shard's Definitive answer raced the storm.
            ShardOutcome::Overloaded { .. } => missing.push((i, "replicas busy")),
        }
    }
    let n = outcomes.len();
    if available.is_empty() {
        let detail = missing
            .first()
            .map(|(_, reason)| (*reason).to_string())
            .unwrap_or_default();
        return Response::err(
            ErrorCode::NoBackends,
            format!("no backend could serve any shard: {detail}"),
        )
        .to_json_line();
    }
    if !missing.is_empty() && options.mode == Some(ExecMode::Strict) {
        return Response::err(
            ErrorCode::NoBackends,
            format!(
                "{} (strict mode forbids partial results)",
                describe_missing(&missing, n)
            ),
        )
        .to_json_line();
    }
    let template = available[0];
    let order = if template.asc {
        ScoreOrder::AscendingIsOutlier
    } else {
        ScoreOrder::DescendingIsOutlier
    };
    // Concatenating the shard rows in shard order reproduces exactly the
    // finite score list a single box feeds into top_k, so the merged
    // ranking is byte-identical (ties and float formatting included).
    let mut scores: Vec<(VertexId, f64)> = Vec::new();
    let mut names: HashMap<u32, String> = HashMap::new();
    let mut zero_visibility = 0usize;
    for data in &available {
        zero_visibility += data.zero_visibility;
        for (v, name, score) in &data.rows {
            scores.push((VertexId(*v), *score));
            names.insert(*v, name.clone());
        }
    }
    let scored = scores.len() + zero_visibility;
    let ranked: Vec<RankedRow> = top_k(scores, template.top, order)
        .into_iter()
        .enumerate()
        .map(|(i, (v, score))| RankedRow {
            rank: i + 1,
            name: names
                .get(&v.0)
                .cloned()
                .unwrap_or_else(|| format!("v{}", v.0)),
            score,
        })
        .collect();
    let degraded = if missing.is_empty() {
        None
    } else {
        Some(DegradedInfo {
            limit: describe_missing(&missing, n),
            phase: "scatter-gather".to_string(),
            scored,
            total: template.candidates,
        })
    };
    let body = ResultBody {
        measure: template.measure.clone(),
        candidates: template.candidates,
        reference: template.reference,
        ranked,
        zero_visibility,
        degraded,
        exec_us: exec_started.elapsed().as_micros() as u64,
    };
    Response::Result(body).to_json_line()
}

fn describe_missing(missing: &[(usize, &str)], of: usize) -> String {
    if missing.len() == 1 {
        let (i, reason) = missing[0];
        format!("shard {i}/{of} unavailable ({reason})")
    } else {
        let list: Vec<String> = missing.iter().map(|(i, _)| i.to_string()).collect();
        format!("shards {}/{of} unavailable", list.join(","))
    }
}

// ---------------------------------------------------------------------------
// Response classification
// ---------------------------------------------------------------------------

fn err_code(line: &str) -> Option<String> {
    let value = parse_value(line).ok()?;
    Some(value.get("err")?.get("code")?.as_str()?.to_string())
}

/// Whether a backend answer is worth re-routing to another replica.
/// `busy` (admission control), `expired` (the backend shed the request
/// from its queue without executing — retry-safe by construction) and
/// `Internal`/`Panic` (the request was killed by a fault, not by its own
/// content) are; query, budget, and protocol errors are definitive and
/// must be relayed.
fn is_retryable(line: &str) -> bool {
    match response_kind(line) {
        Some("busy" | "expired") => true,
        Some("err") => matches!(err_code(line).as_deref(), Some("Internal" | "Panic")),
        _ => false,
    }
}

/// Whether a response is an execution outcome worth replaying from the
/// idempotency cache. Transient infrastructure failures (`busy`,
/// `expired`, `NoBackends`, `Internal`, `Panic`) are not: a client
/// retrying the same `id=` after the fleet recovers must re-execute, not
/// be served the outage forever.
fn replayable(line: &str) -> bool {
    match response_kind(line) {
        Some("busy" | "expired") => false,
        Some("err") => !matches!(
            err_code(line).as_deref(),
            Some("NoBackends" | "Internal" | "Panic")
        ),
        _ => true,
    }
}

fn summarize(line: &str) -> String {
    match response_kind(line) {
        Some("busy") => "backend busy".to_string(),
        Some("expired") => "backend shed the request as expired".to_string(),
        Some("err") => format!(
            "backend error {}",
            err_code(line).unwrap_or_else(|| "?".to_string())
        ),
        other => format!("unexpected {} response", other.unwrap_or("?")),
    }
}

// ---------------------------------------------------------------------------
// Non-sharded forwarding (EXPLAIN, SLEEP)
// ---------------------------------------------------------------------------

fn forward_with_failover(shared: &CoordShared, request: &Request) -> String {
    let config = &shared.config;
    let mut request = request.clone();
    if request.id().is_none() {
        // Inject an idempotency id so a mid-response drop can be retried
        // on another backend without double execution.
        let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
        let id = fault::mix(shared.id_seed, seq, 0);
        match &mut request {
            Request::Query { options, .. } | Request::Explain { options, .. } => {
                options.id = Some(id);
            }
            Request::Sleep { id: slot, .. } => *slot = Some(id),
            _ => {}
        }
    }
    let line = request.to_line();
    // The forwarding deadline honours what the request itself asked for:
    // an explicit timeout-ms= wins, and a SLEEP must be given at least its
    // own duration (plus slack) or the coordinator would cut it off early.
    let total = match &request {
        Request::Query { options, .. } | Request::Explain { options, .. } => options
            .timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(config.default_deadline),
        Request::Sleep { ms, .. } => config
            .default_deadline
            .max(Duration::from_millis(*ms) + config.merge_slack),
        _ => config.default_deadline,
    };
    let deadline = Instant::now() + total;
    let n = shared.backends.len();
    let healthy = |i: &usize| shared.backends[*i].is_up() && !shared.backends[*i].breaker_is_open();
    let mut order: Vec<usize> = (0..n).filter(healthy).collect();
    order.extend((0..n).filter(|i| !healthy(i)));
    let mut last = String::from("no backends configured");
    for index in order {
        let backend = &shared.backends[index];
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            last = "deadline exhausted".to_string();
            break;
        }
        if !backend.breaker_allows() {
            Counters::inc(&shared.counters.breaker_fastfails);
            last = format!("{}: breaker open", backend.addr);
            continue;
        }
        let connect = remaining.min(config.connect_timeout);
        let started = Instant::now();
        match fetch_line_with(backend, &line, connect, remaining) {
            Ok(response) if is_retryable(&response) => {
                let shedding = matches!(response_kind(&response), Some("busy" | "expired"));
                backend.record_outcome(shedding, started.elapsed(), config);
                Counters::inc(&shared.counters.failovers);
                last = format!("{}: {}", backend.addr, summarize(&response));
            }
            Ok(response) => {
                backend.report_success();
                // Forwarded verbs set their own pace (a SLEEP legitimately
                // outlasts `breaker_latency`), so a success here never
                // counts as a latency failure.
                backend.record_outcome(true, Duration::ZERO, config);
                return response;
            }
            Err(e) => {
                backend.report_failure(config.down_after);
                backend.record_outcome(false, started.elapsed(), config);
                Counters::inc(&shared.counters.failovers);
                last = format!("{}: {e}", backend.addr);
            }
        }
    }
    Response::err(
        ErrorCode::NoBackends,
        format!("no healthy backend to forward to ({last})"),
    )
    .to_json_line()
}

// ---------------------------------------------------------------------------
// FAULTS routing (chaos drills)
// ---------------------------------------------------------------------------

fn route_faults(shared: &CoordShared, tokens: &[&str]) -> String {
    let forward = if tokens.len() > 2 {
        format!("FAULTS {}", tokens[2..].join(" "))
    } else {
        "FAULTS".to_string()
    };
    route_to_backend(shared, tokens.get(1), FAULTS_USAGE, &forward)
}

// ---------------------------------------------------------------------------
// TRACE BACKEND routing
// ---------------------------------------------------------------------------

const TRACE_BACKEND_USAGE: &str = "coordinator TRACE BACKEND usage: TRACE BACKEND <backend-index> \
                                   [id] — reads one backend's slow-query ring (a plain TRACE reads \
                                   the coordinator's own ring)";

fn route_trace_backend(shared: &CoordShared, tokens: &[&str]) -> String {
    if tokens.len() > 4 {
        return Response::err(ErrorCode::Protocol, TRACE_BACKEND_USAGE).to_json_line();
    }
    // The entry-id token is relayed untouched: the backend's own grammar
    // rejects a malformed id with the canonical error.
    let forward = match tokens.get(3) {
        Some(id) => format!("TRACE {id}"),
        None => "TRACE".to_string(),
    };
    route_to_backend(shared, tokens.get(2), TRACE_BACKEND_USAGE, &forward)
}

/// Send `forward` to the backend named by the index token and relay its
/// answer. Deliberately targets down backends too: installing or clearing
/// a fault plan, or reading a ring, is explicit operator intent.
fn route_to_backend(
    shared: &CoordShared,
    raw_index: Option<&&str>,
    usage: &str,
    forward: &str,
) -> String {
    let Some(Ok(index)) = raw_index.map(|raw| raw.parse::<usize>()) else {
        return Response::err(ErrorCode::Protocol, usage).to_json_line();
    };
    let Some(backend) = shared.backends.get(index) else {
        return Response::err(
            ErrorCode::Protocol,
            format!(
                "backend index {index} out of range (have {})",
                shared.backends.len()
            ),
        )
        .to_json_line();
    };
    match fetch_line(backend, forward, &shared.config) {
        Ok(response) => {
            backend.report_success();
            response
        }
        Err(e) => {
            backend.report_failure(shared.config.down_after);
            Response::err(
                ErrorCode::Engine,
                format!("backend {index} unreachable: {e}"),
            )
            .to_json_line()
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregated STATS / METRICS
// ---------------------------------------------------------------------------

/// One request, one response line, over a pooled connection when there
/// is one. A reused connection that fails short of a timeout was closed by
/// the backend while idle; one fresh dial then decides the outcome.
fn fetch_line_with(
    backend: &Backend,
    line: &str,
    connect: Duration,
    io_timeout: Duration,
) -> io::Result<String> {
    let exchange = |client: &mut Client| {
        client.set_io_timeouts(Some(io_timeout), Some(io_timeout))?;
        client.send_line(line)
    };
    let (mut client, reused) = backend.checkout(connect)?;
    let mut result = exchange(&mut client);
    if reused && matches!(&result, Err(e) if !is_timeout(e)) {
        backend.idle.lock().clear();
        client = Client::connect_timeout(&backend.addr, connect)?;
        result = exchange(&mut client);
    }
    let response = result?;
    backend.checkin(client);
    Ok(response)
}

fn fetch_line(backend: &Backend, line: &str, config: &CoordinatorConfig) -> io::Result<String> {
    let io_timeout = config.connect_timeout.max(Duration::from_millis(250));
    fetch_line_with(backend, line, config.connect_timeout, io_timeout)
}

fn stats_line(shared: &CoordShared) -> String {
    let aggregate = aggregate_backend_stats(shared);
    #[derive(Serialize)]
    struct StatsLine<'a> {
        coordinator: CoordSnapshot,
        aggregate: &'a BTreeMap<String, f64>,
    }
    let body = json::to_string(&StatsLine {
        coordinator: shared.snapshot(),
        aggregate: &aggregate,
    })
    .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
    format!("{{\"stats\":{body}}}")
}

fn aggregate_backend_stats(shared: &CoordShared) -> BTreeMap<String, f64> {
    let mut sums = BTreeMap::new();
    for backend in &shared.backends {
        if !backend.is_up() {
            continue;
        }
        let Ok(line) = fetch_line(backend, "STATS", &shared.config) else {
            backend.report_failure(shared.config.down_after);
            continue;
        };
        let Ok(value) = parse_value(&line) else {
            continue;
        };
        if let Some(stats) = value.get("stats") {
            sum_numeric_leaves("", stats, &mut sums);
        }
    }
    sums
}

/// Sum every numeric leaf of `value` into `sums` under its dotted path,
/// so heterogeneous backend snapshots aggregate without a schema.
fn sum_numeric_leaves(prefix: &str, value: &Value, sums: &mut BTreeMap<String, f64>) {
    match value {
        Value::Num(raw) => {
            if let Ok(v) = raw.parse::<f64>() {
                *sums.entry(prefix.to_string()).or_insert(0.0) += v;
            }
        }
        Value::Obj(fields) => {
            for (key, child) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                sum_numeric_leaves(&path, child, sums);
            }
        }
        _ => {}
    }
}

fn metrics_json_line(shared: &CoordShared) -> String {
    let body =
        json::to_string(&shared.snapshot()).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
    format!("{{\"metrics\":{body}}}")
}

fn merged_metrics_text(shared: &CoordShared) -> String {
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut reporting = 0usize;
    for backend in &shared.backends {
        if !backend.is_up() {
            continue;
        }
        match fetch_metrics_samples(backend.addr, &shared.config) {
            Ok(samples) => {
                reporting += 1;
                backend.report_success();
                for sample in samples {
                    *sums.entry(sample_key(&sample)).or_insert(0.0) += sample.value;
                }
            }
            Err(_) => backend.report_failure(shared.config.down_after),
        }
    }
    let snapshot = shared.snapshot();
    let mut out = String::new();
    out.push_str(&format!(
        "# coordinator aggregate over {reporting} reporting backend(s)\n"
    ));
    for (key, value) in &sums {
        out.push_str(&format!("{key} {value}\n"));
    }
    let up = snapshot.backends.iter().filter(|b| b.up).count();
    let breakers_open = snapshot.backends.iter().filter(|b| b.breaker_open).count();
    let breaker_trips: u64 = snapshot.backends.iter().map(|b| b.breaker_trips).sum();
    for (name, value) in [
        ("hin_coord_requests_total", snapshot.requests as f64),
        ("hin_coord_completed_total", snapshot.completed as f64),
        ("hin_coord_errors_total", snapshot.errors as f64),
        ("hin_coord_degraded_total", snapshot.degraded as f64),
        ("hin_coord_deduped_total", snapshot.deduped as f64),
        ("hin_coord_failovers_total", snapshot.failovers as f64),
        ("hin_coord_hedges_total", snapshot.hedges as f64),
        ("hin_coord_no_backends_total", snapshot.no_backends as f64),
        ("hin_coord_busy_storms_total", snapshot.busy_storms as f64),
        ("hin_coord_backends_up", up as f64),
        ("hin_coord_backends_total", snapshot.backends.len() as f64),
        ("hin_breaker_open", breakers_open as f64),
        ("hin_breaker_trips_total", breaker_trips as f64),
        (
            "hin_breaker_fastfails_total",
            snapshot.breaker_fastfails as f64,
        ),
    ] {
        out.push_str(&format!("{name} {value}\n"));
    }
    out
}

fn fetch_metrics_samples(addr: SocketAddr, config: &CoordinatorConfig) -> io::Result<Vec<Sample>> {
    let mut client = Client::connect_timeout(&addr, config.connect_timeout)?;
    let io_timeout = config.connect_timeout.max(Duration::from_millis(250));
    client.set_io_timeouts(Some(io_timeout), Some(io_timeout))?;
    client.send_no_wait("METRICS")?;
    let block = client.read_text_block()?;
    hin_telemetry::parse_exposition(&block)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The aggregation key of one exposition sample: `name` or
/// `name{k="v",...}` with label values re-escaped.
fn sample_key(sample: &Sample) -> String {
    if sample.labels.is_empty() {
        return sample.name.clone();
    }
    let mut key = format!("{}{{", sample.name);
    for (i, (k, v)) in sample.labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => key.push_str("\\\\"),
                '"' => key.push_str("\\\""),
                c => key.push(c),
            }
        }
        key.push('"');
    }
    key.push('}');
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::stats::StatsSnapshot;
    use hin_datagen::toy;
    use netout::OutlierDetector;

    const QTEXT: &str =
        "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;";

    fn spawn_backend() -> (SocketAddr, std::thread::JoinHandle<StatsSnapshot>) {
        let detector = OutlierDetector::new(toy::figure1_network()).with_vector_cache(256);
        let server = Server::bind(
            detector,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                queue_cap: 8,
                ..ServerConfig::default()
            },
        )
        .expect("bind backend");
        let addr = server.local_addr();
        (addr, std::thread::spawn(move || server.run()))
    }

    fn test_config() -> CoordinatorConfig {
        CoordinatorConfig {
            heartbeat_interval: Duration::from_millis(50),
            hedge_after: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(200),
            default_deadline: Duration::from_secs(5),
            ..CoordinatorConfig::default()
        }
    }

    fn spawn_coordinator(
        backends: Vec<SocketAddr>,
        config: CoordinatorConfig,
    ) -> (SocketAddr, std::thread::JoinHandle<CoordSnapshot>) {
        let coordinator =
            Coordinator::bind(backends, "127.0.0.1:0", config).expect("bind coordinator");
        let addr = coordinator.local_addr();
        (addr, std::thread::spawn(move || coordinator.run()))
    }

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut client = Client::connect(addr).expect("connect");
        lines
            .iter()
            .map(|l| client.send_line(l).expect("request"))
            .collect()
    }

    /// A protocol stub that answers every line with one fixed response;
    /// drives the breaker and busy-storm paths deterministically.
    fn spawn_stub(reply: &'static str) -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        listener.set_nonblocking(true).expect("stub nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        std::thread::spawn(move || {
                            let mut reader = std::io::BufReader::new(
                                stream.try_clone().expect("clone stub stream"),
                            );
                            let mut stream = stream;
                            let mut line = String::new();
                            loop {
                                line.clear();
                                match std::io::BufRead::read_line(&mut reader, &mut line) {
                                    Ok(0) | Err(_) => return,
                                    Ok(_) => {
                                        if std::io::Write::write_all(
                                            &mut stream,
                                            format!("{reply}\n").as_bytes(),
                                        )
                                        .is_err()
                                        {
                                            return;
                                        }
                                    }
                                }
                            }
                        });
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        (addr, stop)
    }

    fn strip_exec_us(line: &str) -> String {
        let Some(start) = line.find("\"exec_us\":") else {
            return line.to_string();
        };
        let rest = &line[start..];
        let end = rest
            .find([',', '}'])
            .map(|i| start + i)
            .unwrap_or(line.len());
        format!("{}\"exec_us\":0{}", &line[..start], &line[end..])
    }

    #[test]
    fn replica_order_is_healthy_first_and_cycles() {
        assert_eq!(
            replica_order(&[true, false, true], 1, 2, 4),
            vec![2, 1, 2, 1]
        );
        assert_eq!(replica_order(&[true, true], 0, 2, 3), vec![0, 1, 0]);
        assert_eq!(replica_order(&[false, false], 1, 2, 2), vec![1, 0]);
        assert_eq!(replica_order(&[true], 5, 3, 2), vec![0, 0]);
        assert!(replica_order(&[], 0, 2, 3).is_empty());
    }

    #[test]
    fn breaker_opens_half_opens_and_recovers() {
        let config = CoordinatorConfig {
            breaker_window: 8,
            breaker_min_samples: 2,
            breaker_failure_ratio: 0.5,
            breaker_cooldown: Duration::from_millis(40),
            breaker_latency: Duration::from_millis(100),
            ..CoordinatorConfig::default()
        };
        let backend = Backend::new("127.0.0.1:1".parse().expect("addr"));
        assert!(backend.breaker_allows());
        backend.record_outcome(false, Duration::ZERO, &config);
        assert!(!backend.breaker_is_open(), "one failure must not trip");
        backend.record_outcome(false, Duration::ZERO, &config);
        assert!(backend.breaker_is_open(), "failure ratio reached");
        assert!(!backend.breaker_allows(), "open breaker fast-fails");
        assert_eq!(backend.breaker_trips.load(Ordering::Relaxed), 1);

        std::thread::sleep(Duration::from_millis(50));
        assert!(!backend.breaker_is_open(), "cooldown elapsed");
        assert!(backend.breaker_allows(), "half-open admits the probe");
        // A slow success is a failed probe: re-opens immediately.
        backend.record_outcome(true, Duration::from_millis(200), &config);
        assert!(backend.breaker_is_open(), "failed probe re-opens");
        assert_eq!(backend.breaker_trips.load(Ordering::Relaxed), 2);

        std::thread::sleep(Duration::from_millis(50));
        assert!(backend.breaker_allows(), "second half-open probe");
        backend.record_outcome(true, Duration::ZERO, &config);
        assert!(!backend.breaker_is_open(), "successful probe closes");
        assert!(backend.breaker_allows());
        // The window restarts clean: one failure alone cannot re-trip.
        backend.record_outcome(false, Duration::ZERO, &config);
        assert!(!backend.breaker_is_open());
    }

    #[test]
    fn busy_storm_answers_busy_with_jittered_retry_after() {
        let busy = r#"{"busy":{"queue_depth":8,"queue_cap":8,"retry_after_ms":40}}"#;
        let (b0, stop0) = spawn_stub(busy);
        let (b1, stop1) = spawn_stub(busy);
        let config = CoordinatorConfig {
            attempts: 6,
            busy_storm_threshold: 2,
            busy_retry_after: Duration::from_millis(100),
            heartbeat_interval: Duration::from_secs(5),
            ..test_config()
        };
        let (coord, hc) = spawn_coordinator(vec![b0, b1], config);
        let query = format!("QUERY {QTEXT}");
        let responses = send_lines(coord, &[&query]);
        assert!(
            responses[0].starts_with(r#"{"busy""#),
            "a busy storm must answer busy, not degraded: {}",
            responses[0]
        );
        let hint = json_u64_field(&responses[0], "retry_after_ms").expect("retry hint");
        assert!(
            (50..=100).contains(&hint),
            "jitter must stay in [base/2, base]: {hint}"
        );
        send_lines(coord, &["SHUTDOWN"]);
        let snapshot = hc.join().expect("coordinator");
        assert!(snapshot.busy_storms >= 1, "{snapshot:?}");
        stop0.store(true, Ordering::Relaxed);
        stop1.store(true, Ordering::Relaxed);
    }

    #[test]
    fn breaker_trips_on_error_storm_and_fast_fails() {
        let internal = r#"{"err":{"code":"Internal","message":"injected"}}"#;
        let (b0, stop0) = spawn_stub(internal);
        let config = CoordinatorConfig {
            replicas: 1,
            attempts: 4,
            breaker_window: 8,
            breaker_min_samples: 2,
            breaker_failure_ratio: 0.5,
            breaker_cooldown: Duration::from_secs(30),
            busy_storm_threshold: 0,
            heartbeat_interval: Duration::from_secs(5),
            ..test_config()
        };
        let (coord, hc) = spawn_coordinator(vec![b0], config);
        let query = format!("QUERY {QTEXT}");
        // First query burns real attempts until the breaker trips; the
        // second fast-fails without ever dialing the backend.
        let responses = send_lines(coord, &[&query, &query]);
        for response in &responses {
            assert!(response.contains(r#""code":"NoBackends""#), "{response}");
        }
        let mut mclient = Client::connect(coord).expect("connect metrics");
        mclient.send_no_wait("METRICS").expect("send metrics");
        let block = mclient.read_text_block().expect("metrics block");
        assert!(block.contains("hin_breaker_open 1"), "{block}");
        assert!(block.contains("hin_breaker_trips_total 1"), "{block}");
        send_lines(coord, &["SHUTDOWN"]);
        let snapshot = hc.join().expect("coordinator");
        assert!(snapshot.breaker_fastfails >= 1, "{snapshot:?}");
        assert!(snapshot.backends[0].breaker_trips >= 1, "{snapshot:?}");
        assert!(snapshot.backends[0].breaker_open, "{snapshot:?}");
        stop0.store(true, Ordering::Relaxed);
    }

    #[test]
    fn retryable_classification() {
        assert!(is_retryable(r#"{"busy":{"queue_depth":4,"queue_cap":4}}"#));
        assert!(is_retryable(
            r#"{"expired":{"waited_ms":950,"deadline_ms":1000,"retry_after_ms":40}}"#
        ));
        assert!(is_retryable(
            r#"{"err":{"code":"Internal","message":"worker dropped the request"}}"#
        ));
        assert!(is_retryable(r#"{"err":{"code":"Panic","message":"boom"}}"#));
        assert!(!is_retryable(r#"{"err":{"code":"Query","message":"bad"}}"#));
        assert!(!is_retryable(
            r#"{"err":{"code":"Budget","message":"deadline"}}"#
        ));
        assert!(!is_retryable(r#"{"result":{"measure":"NetOut"}}"#));
        assert!(!is_retryable("garbage"));
    }

    #[test]
    fn replayable_classification() {
        assert!(replayable(r#"{"result":{"measure":"NetOut"}}"#));
        assert!(replayable(r#"{"explain":{}}"#));
        // Definitive errors are real execution outcomes: replay them.
        assert!(replayable(r#"{"err":{"code":"Query","message":"bad"}}"#));
        assert!(replayable(
            r#"{"err":{"code":"Budget","message":"deadline"}}"#
        ));
        // Transient infrastructure failures must re-execute on retry.
        assert!(!replayable(
            r#"{"err":{"code":"NoBackends","message":"down"}}"#
        ));
        assert!(!replayable(
            r#"{"err":{"code":"Internal","message":"dropped"}}"#
        ));
        assert!(!replayable(r#"{"err":{"code":"Panic","message":"boom"}}"#));
        assert!(!replayable(r#"{"busy":{"queue_depth":4,"queue_cap":4}}"#));
        assert!(!replayable(
            r#"{"expired":{"waited_ms":950,"deadline_ms":1000,"retry_after_ms":40}}"#
        ));
    }

    #[test]
    fn id_seed_differs_across_boots() {
        let make = || {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let backend: SocketAddr = "127.0.0.1:1".parse().expect("addr");
            Coordinator::from_listener(vec![backend], listener, CoordinatorConfig::default())
                .expect("coordinator")
        };
        let first = make();
        // Same process, same (default) config seed: only the wall-clock
        // part of the boot nonce separates the two "boots".
        std::thread::sleep(Duration::from_millis(2));
        let second = make();
        assert_ne!(
            first.shared.id_seed, second.shared.id_seed,
            "two coordinator boots with identical config must generate disjoint id streams"
        );
        assert_ne!(
            fault::mix(first.shared.id_seed, 1, 0),
            fault::mix(second.shared.id_seed, 1, 0)
        );
    }

    #[test]
    fn shard_body_parsing_rejects_mismatch_and_garbage() {
        let good = r#"{"shard":{"measure":"NetOut","asc":false,"top":null,"shard":1,"of":2,"candidates":5,"reference":3,"zero_visibility":1,"rows":[{"v":7,"name":"Emma","score":3.33}],"exec_us":12}}"#;
        let data = parse_shard_body(good, 1, 2).expect("parse");
        assert_eq!(data.measure, "NetOut");
        assert!(!data.asc);
        assert_eq!(data.top, None);
        assert_eq!(data.candidates, 5);
        assert_eq!(data.zero_visibility, 1);
        assert_eq!(data.rows, vec![(7, "Emma".to_string(), 3.33)]);
        assert!(parse_shard_body(good, 0, 2)
            .expect_err("echo mismatch")
            .contains("mismatch"));
        assert!(parse_shard_body(r#"{"result":{}}"#, 0, 2).is_err());
        assert!(parse_shard_body("not json", 0, 2).is_err());
    }

    #[test]
    fn coordinator_matches_single_box_and_aggregates() {
        let (b0, h0) = spawn_backend();
        let (b1, h1) = spawn_backend();
        let (coord, hc) = spawn_coordinator(vec![b0, b1], test_config());

        let query = format!("QUERY {QTEXT}");
        let direct = send_lines(b0, &[&query]);
        let explain = format!("EXPLAIN {QTEXT}");
        let via = send_lines(
            coord,
            &[
                "PING",
                &query,
                "STATS",
                "METRICS JSON",
                &explain,
                "FAULTS",
                "FAULTS 7",
                "FAULTS 1",
            ],
        );
        assert!(via[0].starts_with(r#"{"pong""#), "{}", via[0]);
        assert_eq!(
            strip_exec_us(&via[1]),
            strip_exec_us(&direct[0]),
            "coordinator merge must be byte-identical to a single box"
        );
        assert!(
            via[2].contains(r#""coordinator""#) && via[2].contains(r#""aggregate""#),
            "{}",
            via[2]
        );
        assert!(via[3].starts_with(r#"{"metrics""#), "{}", via[3]);
        assert!(via[4].starts_with(r#"{"explain""#), "{}", via[4]);
        assert!(via[5].contains(r#""code":"Protocol""#), "{}", via[5]);
        assert!(via[6].contains("out of range"), "{}", via[6]);
        assert!(via[7].starts_with(r#"{"faults""#), "{}", via[7]);

        // A successful id= response is cached: the replay is byte-identical
        // down to exec_us.
        let idq = format!("QUERY id=9001 {QTEXT}");
        let replayed = send_lines(coord, &[&idq, &idq]);
        assert_eq!(
            replayed[0], replayed[1],
            "id= replay must be byte-identical"
        );
        assert!(replayed[0].starts_with(r#"{"result""#), "{}", replayed[0]);

        let mut mclient = Client::connect(coord).expect("connect metrics");
        mclient.send_no_wait("METRICS").expect("send metrics");
        let block = mclient.read_text_block().expect("metrics block");
        assert!(block.starts_with("# coordinator aggregate"), "{block}");
        assert!(block.contains("hin_coord_requests_total"), "{block}");
        assert!(block.contains("hin_coord_backends_total 2"), "{block}");

        send_lines(coord, &["SHUTDOWN"]);
        let snapshot = hc.join().expect("coordinator");
        assert!(snapshot.completed >= 4, "{snapshot:?}");
        assert!(snapshot.deduped >= 1, "{snapshot:?}");
        send_lines(b0, &["SHUTDOWN"]);
        send_lines(b1, &["SHUTDOWN"]);
        h0.join().expect("backend 0");
        h1.join().expect("backend 1");
    }

    #[test]
    fn trace_assembles_cross_process_spans_and_routes_backend_rings() {
        let (b0, h0) = spawn_backend();
        let (b1, h1) = spawn_backend();
        let (coord, hc) = spawn_coordinator(vec![b0, b1], test_config());

        // Tracing must not perturb the merged answer: byte-identical to
        // the untraced run modulo the timing field.
        let plain = format!("QUERY {QTEXT}");
        let traced = format!("QUERY trace=1 {QTEXT}");
        let responses = send_lines(coord, &[&plain, &traced]);
        assert!(responses[1].starts_with(r#"{"result""#), "{}", responses[1]);
        assert!(
            !responses[1].contains("\"trace\""),
            "client-visible results must not carry trace payloads: {}",
            responses[1]
        );
        assert_eq!(strip_exec_us(&responses[0]), strip_exec_us(&responses[1]));

        // trace=1 force-logged the query into the coordinator's own ring
        // (slow_query is unset) — the assembled tree must hold the
        // coordinator's scatter/merge spans, per-shard attempt spans, and
        // both backends' engine spans grafted under the winners.
        let listing = send_lines(coord, &["TRACE"]);
        assert!(listing[0].starts_with(r#"{"traces""#), "{}", listing[0]);
        let id = json_u64_field(&listing[0], "id").expect("entry id");
        let body = send_lines(coord, &[&format!("TRACE {id}")]);
        for span in [
            "\"name\":\"carve\"",
            "\"name\":\"scatter\"",
            "\"name\":\"merge\"",
        ] {
            assert!(body[0].contains(span), "missing {span}: {}", body[0]);
        }
        assert_eq!(
            body[0].matches("\"name\":\"attempt\"").count(),
            2,
            "one first attempt per shard: {}",
            body[0]
        );
        // Shard execution records a `query_shard` root over `materialize`
        // and `score`; it has no `set_retrieval` span of its own.
        assert_eq!(
            body[0].matches("\"name\":\"query_shard\"").count(),
            2,
            "each backend's engine spans must be grafted: {}",
            body[0]
        );
        assert!(
            body[0].contains("\"shard\",\"0/2\"") && body[0].contains("\"shard\",\"1/2\""),
            "{}",
            body[0]
        );

        // TRACE BACKEND i routes to one backend's ring, not the
        // coordinator's (which holds the entry fetched above). That ring
        // is empty: a traced shard sub-request's spans travel home on its
        // `shard` response instead of being logged where they were
        // recorded. Bad forms answer structured errors.
        let routed = send_lines(
            coord,
            &["TRACE BACKEND 0", "TRACE BACKEND 9", "TRACE BACKEND x"],
        );
        assert_eq!(routed[0], r#"{"traces":{"entries":[]}}"#);
        assert!(routed[1].contains("out of range"), "{}", routed[1]);
        assert!(routed[2].contains("usage"), "{}", routed[2]);

        send_lines(coord, &["SHUTDOWN"]);
        hc.join().expect("coordinator");
        send_lines(b0, &["SHUTDOWN"]);
        send_lines(b1, &["SHUTDOWN"]);
        h0.join().expect("backend 0");
        h1.join().expect("backend 1");
    }

    /// Join `handle`, failing the test if the thread is still running
    /// after `limit`.
    fn join_within<T: Send + 'static>(handle: std::thread::JoinHandle<T>, limit: Duration) -> T {
        let (done, joined) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(handle.join());
        });
        joined
            .recv_timeout(limit)
            .unwrap_or_else(|_| panic!("still running {limit:?} after SHUTDOWN"))
            .expect("thread panicked")
    }

    #[test]
    fn stale_pooled_connection_is_redialed_without_blaming_the_backend() {
        let (b0, h0) = spawn_backend();
        let (b1, h1) = spawn_backend();
        let coordinator = Coordinator::bind(
            vec![b0, b1],
            "127.0.0.1:0",
            CoordinatorConfig {
                // One sweep at start-up, then none for the rest of the test.
                heartbeat_interval: Duration::from_secs(600),
                ..test_config()
            },
        )
        .expect("bind coordinator");
        let shared = Arc::clone(&coordinator.shared);
        let coord = coordinator.local_addr();
        let hc = std::thread::spawn(move || coordinator.run());

        let query = format!("QUERY {QTEXT}");
        let mut client = Client::connect(coord).expect("connect");
        let first = client.send_line(&query).expect("first answer");
        assert!(first.starts_with(r#"{"result""#), "{first}");
        assert_eq!(shared.backends[0].idle.lock().len(), 1);

        // Replace backend 0 by a new server on the same port. Joining the
        // old one closes its end of the pooled connection.
        send_lines(b0, &["SHUTDOWN"]);
        h0.join().expect("backend 0");
        let detector = OutlierDetector::new(toy::figure1_network()).with_vector_cache(256);
        let reborn = Server::bind_retry(
            detector,
            b0,
            ServerConfig::default(),
            50,
            Duration::from_millis(10),
        )
        .expect("rebind backend 0's port");
        let h0 = std::thread::spawn(move || reborn.run());

        // The query finds the dead connection, redials, and is answered —
        // and nothing of that is held against the backend.
        let second = client.send_line(&query).expect("second answer");
        assert_eq!(strip_exec_us(&second), strip_exec_us(&first));
        let snapshot = shared.snapshot();
        assert_eq!(snapshot.failovers, 0, "{snapshot:?}");
        assert_eq!(snapshot.hedges, 0, "{snapshot:?}");
        assert_eq!(snapshot.backends[0].marked_down, 0, "{snapshot:?}");
        assert_eq!(snapshot.backends[0].consecutive_failures, 0, "{snapshot:?}");
        assert_eq!(
            shared.backends[0].breaker.lock().window,
            [true, true],
            "one fast success per query and nothing else"
        );
        assert_eq!(shared.backends[0].idle.lock().len(), 1);
        let stats = send_lines(b0, &["STATS"]);
        assert!(stats[0].contains(r#""completed":1"#), "{}", stats[0]);

        drop(client);
        send_lines(coord, &["SHUTDOWN"]);
        hc.join().expect("coordinator");
        send_lines(b0, &["SHUTDOWN"]);
        send_lines(b1, &["SHUTDOWN"]);
        h0.join().expect("reborn backend 0");
        h1.join().expect("backend 1");
    }

    #[test]
    fn shutdown_wakes_blocked_acceptors_promptly() {
        const LIMIT: Duration = Duration::from_millis(250);
        let (b0, h0) = spawn_backend();
        let (b1, h1) = spawn_backend();
        let (coord, hc) = spawn_coordinator(vec![b0, b1], test_config());
        // Leave idle pooled connections between coordinator and backends.
        let responses = send_lines(coord, &[&format!("QUERY {QTEXT}")]);
        assert!(responses[0].starts_with(r#"{"result""#), "{}", responses[0]);

        // A backend whose peer (the coordinator, holding a connection to
        // it) is still up.
        send_lines(b0, &["SHUTDOWN"]);
        join_within(h0, LIMIT);
        // A coordinator holding an idle pooled connection (to backend 1).
        send_lines(coord, &["SHUTDOWN"]);
        join_within(hc, LIMIT);
        send_lines(b1, &["SHUTDOWN"]);
        join_within(h1, LIMIT);

        // A listener on the unspecified address is woken over loopback.
        let detector = OutlierDetector::new(toy::figure1_network());
        let server = Server::bind(detector, "0.0.0.0:0", ServerConfig::default()).expect("bind");
        let port = server.local_addr().port();
        let handle = std::thread::spawn(move || server.run());
        send_lines(SocketAddr::from(([127, 0, 0, 1], port)), &["SHUTDOWN"]);
        join_within(handle, LIMIT);
    }

    #[test]
    fn forwarded_sleep_outlives_default_deadline() {
        let (b0, h0) = spawn_backend();
        let config = CoordinatorConfig {
            default_deadline: Duration::from_millis(50),
            ..test_config()
        };
        let (coord, hc) = spawn_coordinator(vec![b0], config);
        // The forwarding deadline must stretch to cover the requested sleep
        // even though it exceeds the configured default deadline.
        let responses = send_lines(coord, &["SLEEP 200"]);
        assert!(responses[0].starts_with(r#"{"slept""#), "{}", responses[0]);
        send_lines(coord, &["SHUTDOWN"]);
        hc.join().expect("coordinator");
        send_lines(b0, &["SHUTDOWN"]);
        h0.join().expect("backend");
    }

    #[test]
    fn degraded_and_no_backends_paths() {
        let (b0, h0) = spawn_backend();
        let dead: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let config = CoordinatorConfig {
            replicas: 1, // shard 1 maps only to the dead backend
            attempts: 2,
            down_after: 1,
            ..test_config()
        };
        let (coord, hc) = spawn_coordinator(vec![b0, dead], config);
        let query = format!("QUERY {QTEXT}");
        let strict = format!("QUERY mode=strict {QTEXT}");
        let responses = send_lines(coord, &[&query, &strict]);
        assert!(responses[0].starts_with(r#"{"result""#), "{}", responses[0]);
        assert!(responses[0].contains(r#""degraded":{"#), "{}", responses[0]);
        assert!(responses[0].contains("shard 1/2"), "{}", responses[0]);
        assert!(
            responses[1].contains(r#""code":"NoBackends""#),
            "{}",
            responses[1]
        );

        // Every backend dead: NoBackends, but inline verbs still answer.
        let (coord2, hc2) = spawn_coordinator(
            vec![dead],
            CoordinatorConfig {
                attempts: 1,
                down_after: 1,
                ..test_config()
            },
        );
        // Transient NoBackends answers are never cached under the client's
        // id=: a retry after recovery must re-execute, so both attempts
        // here re-dispatch and the dedup counter stays at zero.
        let idq = format!("QUERY id=77 {QTEXT}");
        let responses2 = send_lines(coord2, &["PING", &query, &idq, &idq]);
        assert!(responses2[0].starts_with(r#"{"pong""#), "{}", responses2[0]);
        for response in &responses2[1..] {
            assert!(response.contains(r#""code":"NoBackends""#), "{response}");
        }
        send_lines(coord2, &["SHUTDOWN"]);
        let snapshot2 = hc2.join().expect("coordinator 2");
        assert_eq!(snapshot2.deduped, 0, "{snapshot2:?}");

        send_lines(coord, &["SHUTDOWN"]);
        let snapshot = hc.join().expect("coordinator");
        assert!(snapshot.degraded >= 1, "{snapshot:?}");
        send_lines(b0, &["SHUTDOWN"]);
        h0.join().expect("backend");
    }
}

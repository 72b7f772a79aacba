//! Blocking client for the wire protocol, plus a self-healing
//! [`RetryClient`] and a closed-loop load generator used by
//! `hin bench-client` and the `exp_service` benchmark.
//!
//! The retry layer (DESIGN.md §11) recovers from dropped connections and
//! transient failures without double-executing work: every request gets an
//! idempotency id, attempts are spaced by exponential backoff with **full
//! jitter** (deterministic, seeded — no wall-clock entropy), each attempt
//! gets a deadline carved out of the caller's overall budget, and a retry
//! of a request the server already executed is answered byte-identically
//! from the server's dedup cache.

use crate::fault::XorShift64;
use crate::json;
use crate::protocol::Request;
use serde::Serialize;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A blocking, single-connection protocol client.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Bytes of the response line read so far. Kept across a timed-out
    /// read, so the next [`read_response`](Client::read_response) resumes
    /// the same line instead of returning its tail as a torn one.
    partial: Vec<u8>,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connect with a bound on how long connection establishment may take.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout.max(Duration::from_millis(1)))?;
        Client::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            partial: Vec::new(),
        })
    }

    /// Bound how long a single read/write may block (`None` = forever).
    /// A timed-out [`read_response`](Client::read_response) may simply be
    /// called again; after any other failure the framing state is unknown —
    /// callers should drop and reconnect, as [`RetryClient`] does.
    pub fn set_io_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        let floor = |d: Duration| d.max(Duration::from_millis(1));
        self.stream.set_read_timeout(read.map(floor))?;
        self.stream.set_write_timeout(write.map(floor))
    }

    /// Send one raw request line and read one response line (the JSON,
    /// without the trailing newline).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<String> {
        self.send_no_wait(line)?;
        self.read_response()
    }

    /// Send a typed [`Request`].
    pub fn send(&mut self, request: &Request) -> std::io::Result<String> {
        self.send_line(&request.to_line())
    }

    /// Write a request line without waiting for the response (pipelining /
    /// abandonment tests).
    pub fn send_no_wait(&mut self, line: &str) -> std::io::Result<()> {
        // One write per request: on a `TCP_NODELAY` socket a separate
        // write of the newline is a second segment and a second wake-up
        // of the server's reader.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream.write_all(framed.as_bytes())
    }

    /// Read the next response line. After a timeout the bytes already
    /// consumed are kept, and calling again continues the same line.
    pub fn read_response(&mut self) -> std::io::Result<String> {
        self.reader.read_until(b'\n', &mut self.partial)?;
        if self.partial.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let line = String::from_utf8(std::mem::take(&mut self.partial))
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
        Ok(line.trim_end().to_string())
    }

    /// Read a blank-line-terminated text block — the framing of the raw
    /// Prometheus `METRICS` exposition. Returns the block without the
    /// terminating blank line (one trailing `\n` per content line).
    pub fn read_text_block(&mut self) -> std::io::Result<String> {
        let mut block = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-block",
                ));
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                return Ok(block);
            }
            block.push_str(line);
            block.push('\n');
        }
    }

    /// A handle that can abort this client's in-flight request from
    /// another thread. Used by the coordinator to cancel the loser of a
    /// hedged request pair: the disconnect fires the server-side cancel
    /// token of whatever that connection was running.
    pub fn cancel_handle(&self) -> std::io::Result<CancelHandle> {
        Ok(CancelHandle {
            stream: self.stream.try_clone()?,
        })
    }
}

/// Aborts a [`Client`]'s in-flight request by shutting its socket down
/// (see [`Client::cancel_handle`]).
pub struct CancelHandle {
    stream: TcpStream,
}

impl CancelHandle {
    /// Shut both directions of the connection down: the owning client's
    /// blocked read fails immediately and the server observes the
    /// disconnect. Idempotent; errors from an already-closed socket are
    /// ignored.
    pub fn cancel(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Retry behavior for [`RetryClient`]: bounded attempts under one overall
/// deadline, spaced by exponential backoff with full jitter.
///
/// All randomness comes from a seeded [`XorShift64`], so a retry schedule
/// is reproducible from `(policy, seed)` alone. **Give each concurrent
/// client a distinct `seed`** — the seed also drives idempotency-id
/// assignment, and two clients on the same seed would collide in the
/// server's dedup cache and receive each other's responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff envelope before attempt `n+1` is `base_backoff · 2ⁿ`…
    pub base_backoff: Duration,
    /// …capped at this.
    pub backoff_cap: Duration,
    /// Overall budget for one `send_idempotent` call: connects, request
    /// attempts, and backoff sleeps all draw from it.
    pub overall_deadline: Duration,
    /// Seed for jitter and idempotency ids.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            overall_deadline: Duration::from_secs(10),
            seed: 1,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff envelope for 0-based `attempt`:
    /// `min(backoff_cap, base_backoff · 2^attempt)`. Monotone
    /// non-decreasing in `attempt`.
    pub fn envelope(&self, attempt: u32) -> Duration {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let nanos = self
            .base_backoff
            .as_nanos()
            .saturating_mul(u128::from(factor));
        let envelope = if nanos > u128::from(u64::MAX) {
            Duration::from_nanos(u64::MAX)
        } else {
            Duration::from_nanos(nanos as u64)
        };
        envelope.min(self.backoff_cap)
    }

    /// Full jitter: a uniform draw from `[0, envelope(attempt)]`. Full (as
    /// opposed to partial) jitter decorrelates clients that fail at the
    /// same moment, so they do not retry in lockstep against a recovering
    /// server.
    pub fn jitter(&self, attempt: u32, rng: &mut XorShift64) -> Duration {
        let envelope_us = self.envelope(attempt).as_micros() as u64;
        Duration::from_micros(rng.next_below(envelope_us.saturating_add(1)))
    }

    /// Carve a per-attempt deadline out of the remaining overall budget:
    /// an even split across the attempts still available, floored at 1 ms
    /// (zero socket timeouts are rejected by the OS).
    pub fn attempt_timeout(remaining: Duration, attempts_left: u32) -> Duration {
        (remaining / attempts_left.max(1)).max(Duration::from_millis(1))
    }

    /// Backoff honoring a server-provided `retry_after_ms` hint: full
    /// jitter over the top half, `[hint/2, hint]`. The floor keeps the
    /// server's pacing meaningful (it sized the hint from its own
    /// backlog), while the jitter de-synchronizes clients that were shed
    /// at the same instant. A zero hint yields zero — callers fall back
    /// to the exponential [`envelope`](RetryPolicy::envelope).
    pub fn hint_jitter(&self, hint_ms: u64, rng: &mut XorShift64) -> Duration {
        if hint_ms == 0 {
            return Duration::ZERO;
        }
        let hint_us = hint_ms.saturating_mul(1_000);
        let half = hint_us / 2;
        Duration::from_micros(half + rng.next_below(hint_us - half + 1))
    }
}

/// A self-healing client: wraps [`Client`] with reconnect-on-drop,
/// deadline-bounded retries, and idempotency ids (see [`RetryPolicy`]).
pub struct RetryClient {
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    rng: XorShift64,
    conn: Option<Client>,
}

impl RetryClient {
    /// Resolve `addr` and prepare a client. Connection is lazy: the first
    /// `send_idempotent` connects (and reconnects whenever the transport
    /// fails mid-request).
    pub fn new(addr: impl ToSocketAddrs, policy: RetryPolicy) -> std::io::Result<RetryClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let rng = XorShift64::new(policy.seed);
        Ok(RetryClient {
            addrs,
            policy,
            rng,
            conn: None,
        })
    }

    /// Send one request line, retrying transport failures and `busy`/
    /// `expired` sheds until a definitive response arrives, the attempt
    /// budget is spent, or the overall deadline passes. A shed response
    /// carrying a `retry_after_ms` hint paces the next attempt with
    /// [`RetryPolicy::hint_jitter`] instead of the exponential envelope;
    /// backoffs are always clipped to the overall deadline, so a large
    /// hint can never stretch the call past its budget.
    ///
    /// Worker-pool requests (`QUERY`/`EXPLAIN`/`SLEEP`) that do not already
    /// carry an `id=` option get a fresh idempotency id, so a retry of a
    /// request the server already executed is replayed from the server's
    /// dedup cache **byte-identically** instead of running twice. Inline
    /// verbs are naturally idempotent and sent as-is.
    ///
    /// Transport errors are classified before replay: a failure to
    /// *connect* can never have executed anything and is always retried,
    /// but once the request bytes may have reached the server (a
    /// mid-response drop or read timeout), a retry is only attempted when
    /// the request is replay-safe — it carries an idempotency id the
    /// server's dedup cache honors, or it is a read-only inline verb.
    /// State-changing requests that cannot carry an id (`FAULTS OFF`,
    /// `FAULTS <spec>`, `SHUTDOWN`) fail fast with the transport error
    /// instead of being blindly re-executed.
    ///
    /// On deadline/attempt exhaustion: the last shed (`busy`/`expired`)
    /// response is returned if one was seen (the server was alive, just
    /// saturated), otherwise the last transport error.
    pub fn send_idempotent(&mut self, line: &str) -> std::io::Result<String> {
        let request_id = self.rng.next_u64();
        let line = inject_id(line, request_id);
        let replayable = replay_safe(&line);
        let deadline = Instant::now() + self.policy.overall_deadline;
        let max_attempts = self.policy.max_attempts.max(1);
        let mut last_err: Option<std::io::Error> = None;
        let mut last_shed: Option<String> = None;
        let mut retry_hint_ms: Option<u64> = None;
        for attempt in 0..max_attempts {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            let per_attempt = RetryPolicy::attempt_timeout(remaining, max_attempts - attempt);
            match self.try_once(&line, per_attempt) {
                Ok(response) => {
                    if matches!(response_kind(&response), Some("busy" | "expired")) {
                        // Both sheds are retry-safe by construction: busy
                        // was never admitted, expired was dropped from the
                        // queue without executing.
                        retry_hint_ms = json_u64_field(&response, "retry_after_ms");
                        last_shed = Some(response);
                    } else {
                        return Ok(response);
                    }
                }
                Err(e) => {
                    // The transport is suspect (dropped, timed out, framing
                    // unknown): heal by reconnecting on the next attempt.
                    self.conn = None;
                    if e.maybe_executed && !replayable {
                        // The server may already have acted on a request we
                        // cannot safely replay: surface the error instead
                        // of double-executing.
                        return Err(e.error);
                    }
                    last_err = Some(e.error);
                }
            }
            if attempt + 1 < max_attempts {
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                let backoff = match retry_hint_ms.take() {
                    Some(hint) if hint > 0 => self.policy.hint_jitter(hint, &mut self.rng),
                    _ => self.policy.jitter(attempt, &mut self.rng),
                }
                .min(remaining);
                std::thread::sleep(backoff);
            }
        }
        if let Some(shed) = last_shed {
            return Ok(shed);
        }
        Err(last_err
            .unwrap_or_else(|| std::io::Error::new(ErrorKind::TimedOut, "retry budget exhausted")))
    }

    /// One attempt under its own deadline slice: connect if needed, send,
    /// read one response line.
    fn try_once(&mut self, line: &str, per_attempt: Duration) -> Result<String, AttemptError> {
        let attempt_deadline = Instant::now() + per_attempt;
        if self.conn.is_none() {
            let mut connect_err: Option<std::io::Error> = None;
            for addr in &self.addrs {
                let budget = attempt_deadline
                    .checked_duration_since(Instant::now())
                    .unwrap_or(Duration::from_millis(1));
                match Client::connect_timeout(addr, budget) {
                    Ok(client) => {
                        self.conn = Some(client);
                        connect_err = None;
                        break;
                    }
                    Err(e) => connect_err = Some(e),
                }
            }
            if let Some(e) = connect_err {
                return Err(AttemptError::before_send(e));
            }
        }
        let Some(conn) = self.conn.as_mut() else {
            return Err(AttemptError::before_send(std::io::Error::new(
                ErrorKind::NotConnected,
                "no connection",
            )));
        };
        let io_budget = attempt_deadline
            .checked_duration_since(Instant::now())
            .unwrap_or(Duration::from_millis(1));
        conn.set_io_timeouts(Some(io_budget), Some(io_budget))
            .map_err(AttemptError::before_send)?;
        // From here on the request may reach the server even if the call
        // fails (a write can land before the connection drops, a read can
        // time out after execution started).
        conn.send_line(line).map_err(AttemptError::after_send)
    }
}

/// A failed attempt, classified by whether the request may have executed.
struct AttemptError {
    /// The underlying transport error.
    error: std::io::Error,
    /// `true` when the request bytes may have reached the server before
    /// the failure — a connect failure can never have executed anything,
    /// but a mid-response drop or read timeout may have.
    maybe_executed: bool,
}

impl AttemptError {
    fn before_send(error: std::io::Error) -> AttemptError {
        AttemptError {
            error,
            maybe_executed: false,
        }
    }

    fn after_send(error: std::io::Error) -> AttemptError {
        AttemptError {
            error,
            maybe_executed: true,
        }
    }
}

/// Whether retrying `line` after a possible partial execution is safe:
/// worker-pool requests carrying an `id=` replay byte-identically from the
/// server's dedup cache, and read-only inline verbs (`PING`, `STATS`,
/// `METRICS`, `TRACE`, bare `FAULTS`) have no effect to duplicate.
/// State-changing id-less requests (`FAULTS OFF`/`FAULTS <spec>`,
/// `SHUTDOWN`, pool verbs without an id) are not replay-safe. Unparseable
/// lines are: the server answers them with a protocol error either way.
fn replay_safe(line: &str) -> bool {
    use crate::protocol::FaultCommand;
    match Request::parse(line) {
        Ok(Request::Query { options, .. }) | Ok(Request::Explain { options, .. }) => {
            options.id.is_some()
        }
        Ok(Request::Sleep { id, .. }) => id.is_some(),
        Ok(Request::Ping)
        | Ok(Request::Stats)
        | Ok(Request::Metrics { .. })
        | Ok(Request::Trace { .. })
        | Ok(Request::Faults(FaultCommand::Status)) => true,
        Ok(Request::Shutdown)
        | Ok(Request::Faults(FaultCommand::Clear))
        | Ok(Request::Faults(FaultCommand::Install(_))) => false,
        Err(_) => true,
    }
}

/// Inject `id=<id>` into a worker-pool request line that does not already
/// carry one. Inline verbs and unparseable lines pass through untouched
/// (the server will answer the latter with a protocol error — retrying
/// that is harmless).
fn inject_id(line: &str, id: u64) -> String {
    match Request::parse(line) {
        Ok(mut request) => {
            match &mut request {
                Request::Query { options, .. } | Request::Explain { options, .. } => {
                    if options.id.is_none() {
                        options.id = Some(id);
                    }
                }
                Request::Sleep { id: slot, .. } => {
                    if slot.is_none() {
                        *slot = Some(id);
                    }
                }
                _ => return line.to_string(),
            }
            request.to_line()
        }
        Err(_) => line.to_string(),
    }
}

/// The kind tag of a response line (`"result"`, `"busy"`, `"err"`, …):
/// the first JSON object key. `None` when the line is not shaped like a
/// response.
pub fn response_kind(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"")?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Scan a flat JSON line for `"field":<integer>` and return the integer.
/// A shallow convenience for tests and load generators (first match wins);
/// not a JSON parser.
pub fn json_u64_field(line: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One slow-query ring entry fetched over the wire and decoded for
/// client-side rendering (`bench-client --trace`).
#[derive(Debug, Clone)]
pub struct FetchedTrace {
    /// Entry id (`TRACE <id>`).
    pub id: u64,
    /// The request line the server logged.
    pub request: String,
    /// Admission → response written, µs.
    pub total_us: u64,
    /// Spans dropped because a trace buffer was full (on a coordinator
    /// entry: summed over the backend payloads).
    pub spans_dropped: u64,
    /// The decoded span tree, renderable with
    /// [`hin_telemetry::trace::render_tree`].
    pub spans: Vec<hin_telemetry::TraceNode>,
}

/// Fetch the most recent slow-query ring entry from `addr`: `TRACE` lists
/// the ring (oldest first), the newest entry is fetched with `TRACE <id>`,
/// and its span tree is decoded. `Ok(None)` when the ring is empty.
pub fn fetch_latest_trace(addr: impl ToSocketAddrs) -> std::io::Result<Option<FetchedTrace>> {
    let bad = |msg: String| std::io::Error::new(ErrorKind::InvalidData, msg);
    let mut client = Client::connect(addr)?;
    let listing = client.send_line("TRACE")?;
    let value = json::parse_value(&listing).map_err(&bad)?;
    let entries = value
        .get("traces")
        .and_then(|t| t.get("entries"))
        .and_then(json::Value::as_array)
        .ok_or_else(|| bad(format!("unexpected TRACE listing: {listing}")))?;
    let Some(id) = entries
        .last()
        .and_then(|e| e.get("id"))
        .and_then(json::Value::as_u64)
    else {
        return Ok(None);
    };
    let line = client.send_line(&format!("TRACE {id}"))?;
    let value = json::parse_value(&line).map_err(&bad)?;
    let body = value
        .get("trace")
        .ok_or_else(|| bad(format!("unexpected TRACE {id} response: {line}")))?;
    let field = |key: &str| {
        body.get(key)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| bad(format!("trace entry missing {key:?}")))
    };
    let request = body
        .get("request")
        .and_then(json::Value::as_str)
        .ok_or_else(|| bad("trace entry missing \"request\"".to_string()))?
        .to_string();
    let mut spans = Vec::new();
    if let Some(roots) = body.get("spans").and_then(json::Value::as_array) {
        for root in roots {
            spans.push(crate::protocol::trace_node_from_value(root).map_err(&bad)?);
        }
    }
    Ok(Some(FetchedTrace {
        id,
        request,
        total_us: field("total_us")?,
        spans_dropped: field("spans_dropped")?,
        spans,
    }))
}

/// Closed-loop load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends before disconnecting.
    pub requests_per_client: usize,
    /// Request lines, assigned round-robin across the whole run.
    pub lines: Vec<String>,
    /// When set, each client sends through a [`RetryClient`] (seeded
    /// `policy.seed + client_index` so idempotency ids never collide)
    /// instead of a bare [`Client`]; transport failures are retried rather
    /// than ending the client's run.
    pub retry: Option<RetryPolicy>,
}

/// Aggregated result of a load-generation run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Concurrent connections used.
    pub clients: usize,
    /// Requests that received any response.
    pub requests: u64,
    /// `result`/`explain`/`slept` responses.
    pub ok: u64,
    /// `busy` rejections.
    pub busy: u64,
    /// `expired` sheds (deadline passed while queued; never executed).
    pub expired: u64,
    /// `err` responses.
    pub errors: u64,
    /// Degraded (partial) results among `ok`.
    pub degraded: u64,
    /// Transport failures (connect/read/write).
    pub io_errors: u64,
    /// Wall-clock duration of the whole run, milliseconds.
    pub elapsed_ms: u64,
    /// Completed requests per second (all response kinds).
    pub throughput_rps: f64,
    /// Client-observed latency percentiles, microseconds (exact, computed
    /// from the full sample set — unlike the server's bucketed histograms).
    pub p50_us: u64,
    /// 95th percentile latency (µs).
    pub p95_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// Mean latency (µs).
    pub mean_us: u64,
}

/// One load-generator connection: bare, or wrapped in the retry layer.
enum LoadConn {
    Plain(Client),
    Retry(RetryClient),
}

/// Run a closed loop: `clients` connections each send
/// `requests_per_client` lines back-to-back (next request only after the
/// previous response), then the per-request latencies are aggregated.
pub fn run_closed_loop(addr: impl ToSocketAddrs, spec: &LoadSpec) -> LoadReport {
    let addrs: Vec<_> = addr
        .to_socket_addrs()
        .map(|a| a.collect())
        .unwrap_or_default();
    let started = Instant::now();
    type ClientTally = (Vec<Duration>, u64, u64, u64, u64, u64, u64);
    let per_client: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let addrs = addrs.clone();
                let lines = &spec.lines;
                let n = spec.requests_per_client;
                let retry = spec.retry.clone();
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(n);
                    let (mut ok, mut busy, mut expired, mut errors, mut degraded, mut io_errors) =
                        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
                    let mut conn = match retry {
                        Some(policy) => {
                            // Distinct per-client seed: ids must not collide
                            // across clients (see `RetryPolicy::seed`).
                            let policy = RetryPolicy {
                                seed: policy.seed.wrapping_add(c as u64),
                                ..policy
                            };
                            match RetryClient::new(addrs.as_slice(), policy) {
                                Ok(rc) => LoadConn::Retry(rc),
                                Err(_) => {
                                    return (
                                        latencies, ok, busy, expired, errors, degraded, n as u64,
                                    );
                                }
                            }
                        }
                        None => match Client::connect(addrs.as_slice()) {
                            Ok(cl) => LoadConn::Plain(cl),
                            Err(_) => {
                                return (latencies, ok, busy, expired, errors, degraded, n as u64);
                            }
                        },
                    };
                    for i in 0..n {
                        let line = &lines[(c * n + i) % lines.len()];
                        let t = Instant::now();
                        let sent = match &mut conn {
                            LoadConn::Plain(client) => client.send_line(line),
                            LoadConn::Retry(client) => client.send_idempotent(line),
                        };
                        match sent {
                            Ok(response) => {
                                latencies.push(t.elapsed());
                                match response_kind(&response) {
                                    Some("busy") => busy += 1,
                                    Some("expired") => expired += 1,
                                    Some("err") => errors += 1,
                                    Some(_) => {
                                        ok += 1;
                                        if response.contains("\"degraded\":{") {
                                            degraded += 1;
                                        }
                                    }
                                    None => errors += 1,
                                }
                            }
                            Err(_) => {
                                io_errors += 1;
                                // A retrying client heals its own transport:
                                // keep going. A bare client's framing is
                                // unknown after an error: stop.
                                if matches!(conn, LoadConn::Plain(_)) {
                                    break;
                                }
                            }
                        }
                    }
                    (latencies, ok, busy, expired, errors, degraded, io_errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| (Vec::new(), 0, 0, 0, 0, 0, 1)))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut all: Vec<Duration> = Vec::new();
    let (mut ok, mut busy, mut expired, mut errors, mut degraded, mut io_errors) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (lat, o, b, x, e, d, io) in per_client {
        all.extend(lat);
        ok += o;
        busy += b;
        expired += x;
        errors += e;
        degraded += d;
        io_errors += io;
    }
    all.sort_unstable();
    // Nearest-rank quantiles over the exact sorted sample, via the shared
    // telemetry helper (the same definition the bucketed server histograms
    // approximate — see `hin_telemetry::histogram`).
    let all_us: Vec<u64> = all.iter().map(|d| d.as_micros() as u64).collect();
    let quantile = |q: f64| hin_telemetry::exact_quantile_us(&all_us, q).unwrap_or(0);
    let requests = all.len() as u64;
    let mean_us = if all.is_empty() {
        0
    } else {
        (all.iter().map(Duration::as_micros).sum::<u128>() / all.len() as u128) as u64
    };
    LoadReport {
        clients: spec.clients,
        requests,
        ok,
        busy,
        expired,
        errors,
        degraded,
        io_errors,
        elapsed_ms: elapsed.as_millis() as u64,
        throughput_rps: if elapsed.as_secs_f64() > 0.0 {
            requests as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        p50_us: quantile(0.50),
        p95_us: quantile(0.95),
        p99_us: quantile(0.99),
        mean_us,
    }
}

/// Render a [`LoadReport`] as a human-readable block (the JSON form is
/// [`json::to_string`]).
pub fn render_report(r: &LoadReport) -> String {
    format!(
        "clients {:>3} | {:>7} requests in {:>6} ms | {:>9.1} req/s | \
         ok {} busy {} expired {} err {} degraded {} io-err {}\n\
         latency µs: mean {} p50 {} p95 {} p99 {}\n",
        r.clients,
        r.requests,
        r.elapsed_ms,
        r.throughput_rps,
        r.ok,
        r.busy,
        r.expired,
        r.errors,
        r.degraded,
        r.io_errors,
        r.mean_us,
        r.p50_us,
        r.p95_us,
        r.p99_us
    )
}

/// Serialize a [`LoadReport`] to compact JSON.
pub fn report_to_json(r: &LoadReport) -> String {
    json::to_string(r).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_kind_extraction() {
        assert_eq!(response_kind(r#"{"pong":{"uptime_ms":1}}"#), Some("pong"));
        assert_eq!(response_kind(r#"{"err":{"code":"Query"}}"#), Some("err"));
        assert_eq!(response_kind("not json"), None);
        assert_eq!(response_kind(""), None);
    }

    #[test]
    fn u64_field_scan() {
        let line = r#"{"stats":{"cancelled":7,"completed":12}}"#;
        assert_eq!(json_u64_field(line, "cancelled"), Some(7));
        assert_eq!(json_u64_field(line, "completed"), Some(12));
        assert_eq!(json_u64_field(line, "missing"), None);
    }

    #[test]
    fn percentiles_nearest_rank() {
        // The client reports exact nearest-rank quantiles via the shared
        // telemetry helper; pin the definition here so the wire fields
        // (p50_us/p95_us/p99_us) keep their meaning.
        let sorted_us: Vec<u64> = (1..=100).collect();
        assert_eq!(hin_telemetry::exact_quantile_us(&sorted_us, 0.50), Some(50));
        assert_eq!(hin_telemetry::exact_quantile_us(&sorted_us, 0.95), Some(95));
        assert_eq!(hin_telemetry::exact_quantile_us(&sorted_us, 0.99), Some(99));
        assert_eq!(hin_telemetry::exact_quantile_us(&[], 0.5), None);
    }

    #[test]
    fn report_serializes() {
        let spec = LoadSpec {
            clients: 1,
            requests_per_client: 0,
            lines: vec!["PING".into()],
            retry: None,
        };
        // Closed loop against a dead address: all IO errors, no panic.
        let report = run_closed_loop("127.0.0.1:1", &spec);
        assert_eq!(report.requests, 0);
        let json = report_to_json(&report);
        assert!(json.contains("\"clients\":1"), "{json}");
        assert!(!render_report(&report).is_empty());
    }

    #[test]
    fn envelope_doubles_then_caps() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(70),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.envelope(0), Duration::from_millis(10));
        assert_eq!(policy.envelope(1), Duration::from_millis(20));
        assert_eq!(policy.envelope(2), Duration::from_millis(40));
        assert_eq!(policy.envelope(3), Duration::from_millis(70));
        assert_eq!(policy.envelope(40), Duration::from_millis(70));
        // Shift overflow saturates instead of wrapping back down.
        assert_eq!(policy.envelope(200), Duration::from_millis(70));
    }

    #[test]
    fn jitter_is_deterministic_and_within_envelope() {
        let policy = RetryPolicy::default();
        let mut a = XorShift64::new(9);
        let mut b = XorShift64::new(9);
        for attempt in 0..6 {
            let ja = policy.jitter(attempt, &mut a);
            assert_eq!(ja, policy.jitter(attempt, &mut b));
            assert!(ja <= policy.envelope(attempt), "attempt {attempt}: {ja:?}");
        }
    }

    #[test]
    fn hint_jitter_stays_in_top_half_and_is_deterministic() {
        let policy = RetryPolicy::default();
        let mut rng = XorShift64::new(5);
        for _ in 0..100 {
            let backoff = policy.hint_jitter(40, &mut rng);
            assert!(
                (Duration::from_millis(20)..=Duration::from_millis(40)).contains(&backoff),
                "hint jitter must stay in [hint/2, hint]: {backoff:?}"
            );
        }
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        assert_eq!(
            policy.hint_jitter(100, &mut a),
            policy.hint_jitter(100, &mut b)
        );
        // Zero hint defers to the exponential envelope.
        assert_eq!(policy.hint_jitter(0, &mut rng), Duration::ZERO);
    }

    #[test]
    fn shed_responses_are_retried_then_returned_verbatim() {
        use std::io::Read as _;
        use std::net::TcpListener;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // A saturated server: every request line draws an `expired` shed
        // with a small retry hint.
        let shed = "{\"expired\":{\"waited_ms\":9,\"deadline_ms\":5,\"retry_after_ms\":4}}\n";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hits);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut byte = [0u8; 1];
                    loop {
                        // Read one request line byte-by-byte (tiny volumes).
                        loop {
                            match stream.read(&mut byte) {
                                Ok(1) if byte[0] == b'\n' => break,
                                Ok(1) => {}
                                _ => return,
                            }
                        }
                        counter.fetch_add(1, Ordering::SeqCst);
                        if stream.write_all(shed.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            overall_deadline: Duration::from_secs(5),
            seed: 21,
        };
        let mut client = RetryClient::new(addr, policy).unwrap();
        let response = client.send_idempotent("QUERY FIND paper P1;").unwrap();
        // Every attempt was shed: the last shed response is surfaced so
        // the caller sees the structured body (and its retry hint).
        assert_eq!(response_kind(&response), Some("expired"));
        assert_eq!(json_u64_field(&response, "retry_after_ms"), Some(4));
        assert_eq!(
            hits.load(Ordering::SeqCst),
            3,
            "all attempts must be spent on shed responses"
        );
    }

    #[test]
    fn attempt_timeout_splits_budget_with_floor() {
        let t = RetryPolicy::attempt_timeout(Duration::from_millis(100), 4);
        assert_eq!(t, Duration::from_millis(25));
        // Exhausted budget still yields the 1 ms socket-timeout floor.
        assert_eq!(
            RetryPolicy::attempt_timeout(Duration::ZERO, 3),
            Duration::from_millis(1)
        );
        assert_eq!(
            RetryPolicy::attempt_timeout(Duration::from_secs(1), 0),
            Duration::from_secs(1)
        );
    }

    #[test]
    fn inject_id_covers_pool_verbs_only() {
        assert_eq!(inject_id("SLEEP 5", 7), "SLEEP id=7 5");
        let q = inject_id("QUERY FIND paper P1;", 7);
        assert!(q.contains("id=7"), "{q}");
        // An explicit id is the caller's: never overwritten.
        assert_eq!(inject_id("SLEEP id=3 5", 7), "SLEEP id=3 5");
        // Inline verbs and garbage pass through untouched.
        assert_eq!(inject_id("PING", 7), "PING");
        assert_eq!(inject_id("no such verb", 7), "no such verb");
    }

    #[test]
    fn replay_safety_classification() {
        // Read-only inline verbs have nothing to duplicate.
        for line in [
            "PING",
            "STATS",
            "METRICS",
            "METRICS JSON",
            "TRACE",
            "TRACE 7",
            "FAULTS",
        ] {
            assert!(replay_safe(line), "{line}");
        }
        // State-changing requests without an idempotency id must not be
        // blindly replayed.
        for line in [
            "FAULTS OFF",
            "FAULTS kill@1",
            "SHUTDOWN",
            "SLEEP 5",
            "QUERY FIND paper P1;",
        ] {
            assert!(!replay_safe(line), "{line}");
        }
        // With an id, the server's dedup cache makes the replay safe —
        // and `inject_id` always supplies one for pool verbs.
        assert!(replay_safe("SLEEP id=3 5"));
        assert!(replay_safe(&inject_id("QUERY FIND paper P1;", 9)));
        // Garbage draws a protocol error either way: replaying is harmless.
        assert!(replay_safe("no such verb"));
    }

    #[test]
    fn mid_response_drop_is_not_replayed_unless_safe() {
        use std::io::Read as _;
        use std::net::TcpListener;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // A hostile server: accepts, reads the request, hangs up without
        // answering — the client cannot know whether it executed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hits);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                counter.fetch_add(1, Ordering::SeqCst);
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
            }
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            overall_deadline: Duration::from_secs(10),
            seed: 11,
        };
        // FAULTS OFF mutates server state and cannot carry an id: exactly
        // one attempt, then the transport error surfaces.
        let mut client = RetryClient::new(addr, policy.clone()).unwrap();
        assert!(client.send_idempotent("FAULTS OFF").is_err());
        assert_eq!(hits.load(Ordering::SeqCst), 1, "FAULTS OFF was replayed");
        // A QUERY picks up an injected id, so every attempt is spent (the
        // server-side dedup cache would make the replays byte-identical).
        let mut client = RetryClient::new(addr, policy).unwrap();
        assert!(client.send_idempotent("QUERY FIND paper P1;").is_err());
        assert_eq!(hits.load(Ordering::SeqCst), 4, "QUERY was not retried");
    }

    #[test]
    fn cancel_handle_unblocks_a_pending_read() {
        use std::net::TcpListener;
        // A server that accepts and then never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client = Client::connect(addr).unwrap();
        let handle = client.cancel_handle().unwrap();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            handle.cancel();
        });
        // Without the cancel this read would block forever.
        assert!(client.send_line("PING").is_err());
        canceller.join().unwrap();
        drop(hold);
    }

    #[test]
    fn timed_out_read_resumes_the_same_line() {
        use std::io::Read as _;
        use std::net::TcpListener;
        use std::sync::mpsc;
        // A server that answers in two halves and writes the second only
        // once told that the client's read of the first has timed out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (timed_out, wait_for_timeout) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 5];
            stream.read_exact(&mut request).unwrap();
            stream.write_all(b"{\"pong\":{\"upti").unwrap();
            wait_for_timeout.recv().unwrap();
            stream.write_all(b"me_ms\":1}}\n{\"second\":2}\n").unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        client
            .set_io_timeouts(Some(Duration::from_millis(20)), None)
            .unwrap();
        let err = client
            .send_line("PING")
            .expect_err("half a line is no line");
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{err}"
        );
        timed_out.send(()).unwrap();
        client
            .set_io_timeouts(Some(Duration::from_secs(5)), None)
            .unwrap();
        assert_eq!(
            client.read_response().unwrap(),
            r#"{"pong":{"uptime_ms":1}}"#
        );
        assert_eq!(client.read_response().unwrap(), r#"{"second":2}"#);
        server.join().unwrap();
    }

    #[test]
    fn retry_client_reports_last_error_on_dead_server() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            overall_deadline: Duration::from_millis(300),
            seed: 3,
        };
        // TEST-NET address: connects fail fast and exercise the retry loop.
        let mut client = match RetryClient::new("127.0.0.1:1", policy) {
            Ok(c) => c,
            Err(e) => panic!("resolve failed: {e}"),
        };
        let err = match client.send_idempotent("PING") {
            Err(e) => e,
            Ok(r) => panic!("dead server answered: {r}"),
        };
        // Whatever the OS error, it must be the transport's, not our
        // "budget exhausted" placeholder (a real attempt was made).
        assert_ne!(err.to_string(), "retry budget exhausted");
    }
}

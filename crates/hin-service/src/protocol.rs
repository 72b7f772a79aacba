//! The newline-delimited request/response wire protocol.
//!
//! Requests are single lines of UTF-8 text; responses are single lines of
//! compact JSON (see [`crate::json`]). The grammar (§9 of DESIGN.md):
//!
//! ```text
//! request    := "PING" | "STATS" | "SHUTDOWN"
//!             | "METRICS" (SP "JSON")?
//!             | "TRACE" (SP id)?
//!             | "SLEEP" SP ms
//!             | "FAULTS" (SP ("OFF" | fault-spec))?
//!             | ("QUERY" | "EXPLAIN") (SP option)* SP oql-text
//! option     := key "=" value    ; keys: timeout-ms, max-candidates,
//!                                ;       max-nnz, mode (strict|best-effort),
//!                                ;       id (u64 idempotency key),
//!                                ;       shard (i/n candidate-range shard),
//!                                ;       priority (0-9, default 5; lower
//!                                ;       priorities are shed first under
//!                                ;       brownout)
//! oql-text   := the EDBT 2015 outlier query, ending with ";"
//! fault-spec := see [`crate::fault::FaultPlan`]
//! ```
//!
//! Option tokens are recognized only before the first token that is not a
//! `key=value` pair, so query text containing `=` is never misparsed.
//! `SLEEP` occupies a worker for the given duration (cancellable); it exists
//! for integration tests and operational drills (e.g. verifying `BUSY`
//! backpressure against a live deployment without crafting an expensive
//! query). `FAULTS` (answered inline) inspects, installs, or clears the
//! deterministic fault-injection plan — chaos drills against a live server
//! without restarting it. `METRICS` (answered inline) scrapes every
//! registered metric: the bare form answers with raw Prometheus text
//! exposition terminated by a blank line (the one non-JSON response in the
//! protocol, so a stock Prometheus scraper can consume it through a
//! one-line shim); `METRICS JSON` answers with a one-line JSON snapshot
//! like every other verb. `TRACE` lists the server's slow-query log;
//! `TRACE <id>` returns one logged entry with its full span tree. An
//! `id=N` option marks a request idempotent: the
//! server remembers the response under that id, and a retry carrying the
//! same id replays it byte-identically instead of re-executing.
//!
//! Every response is one of the [`Response`] variants, serialized
//! externally tagged: `{"result":{…}}`, `{"busy":{…}}`, `{"err":{…}}`, ….
//! Parsing failures yield a structured `err` response with a stable
//! [`ErrorCode`], never a panic.

use crate::fault::{FaultCounts, FaultPlan};
use netout::{Budget, Degraded, EngineError, QueryResult};
use serde::Serialize;
use std::fmt;
use std::time::Duration;

/// Hard cap on request line length, mirroring the text graph loader's
/// capped reader: a client cannot make the server buffer unboundedly.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Per-request budget overrides carried by `QUERY`/`EXPLAIN` options.
/// `None` fields fall back to the server's default budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// `timeout-ms=N` — wall-clock deadline override.
    pub timeout_ms: Option<u64>,
    /// `max-candidates=N` — candidate/reference cardinality cap override.
    pub max_candidates: Option<usize>,
    /// `max-nnz=N` — intermediate frontier population cap override.
    pub max_nnz: Option<usize>,
    /// `mode=strict|best-effort` — whether a tripped budget fails the
    /// request or degrades to a partial ranking (server default:
    /// best-effort).
    pub mode: Option<ExecMode>,
    /// `id=N` — client-chosen idempotency key. Responses are cached under
    /// the id and replayed byte-identically on retry.
    pub id: Option<u64>,
    /// `shard=i/n` — score only the i-th of n contiguous candidate ranges
    /// and answer with a `shard` response (raw scored rows, no top-k).
    /// Sent by the scatter-gather coordinator; `i < n` is enforced at
    /// parse time.
    pub shard: Option<(usize, usize)>,
    /// `priority=N` — scheduling priority 0–9 (default
    /// [`DEFAULT_PRIORITY`]). Under brownout the server sheds
    /// lower-priority requests first; validated `<= 9` at parse time.
    pub priority: Option<u8>,
    /// `trace=1` — span-trace this request even when the server's
    /// slow-query threshold would not. On a shard sub-request the backend
    /// attaches its serialized span tree to the `shard` response (the
    /// coordinator strips it before merging); on a direct query the entry
    /// is force-logged into the slow-query ring for `TRACE <id>`. The
    /// client-visible `result` bytes are never altered.
    pub trace: bool,
}

/// The priority assumed when a request carries no `priority=` option.
pub const DEFAULT_PRIORITY: u8 = 5;

impl RequestOptions {
    /// Apply these overrides on top of `default` (the server-wide budget).
    pub fn budget_over(&self, default: &Budget) -> Budget {
        let mut b = default.clone();
        if let Some(ms) = self.timeout_ms {
            b = b.with_timeout(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_candidates {
            b = b.with_max_candidates(n).with_max_reference(n);
        }
        if let Some(n) = self.max_nnz {
            b = b.with_max_nnz(n);
        }
        b
    }

    fn is_empty(&self) -> bool {
        *self == RequestOptions::default()
    }
}

/// Strict vs. best-effort execution (see
/// [`netout::OutlierDetector::query_best_effort`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ExecMode {
    /// A tripped budget fails the request with an `err` response.
    Strict,
    /// A tripped budget returns the partial ranking with a `degraded`
    /// marker when at least one candidate was scored.
    BestEffort,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline (never queued).
    Ping,
    /// Server statistics snapshot; answered inline.
    Stats,
    /// Metrics scrape; answered inline. `json` selects the one-line JSON
    /// snapshot; otherwise the server answers with raw Prometheus text
    /// exposition terminated by a blank line.
    Metrics {
        /// `METRICS JSON` — answer as a one-line JSON response.
        json: bool,
    },
    /// Slow-query log lookup; answered inline. `None` lists the logged
    /// entries; `Some(id)` returns one entry with its span tree.
    Trace {
        /// The slow-query entry to fetch.
        id: Option<u64>,
    },
    /// Graceful drain-and-shutdown.
    Shutdown,
    /// Occupy a worker for `ms` milliseconds (cancellable; for tests and
    /// operational drills).
    Sleep {
        /// How long to hold the worker.
        ms: u64,
        /// Idempotency key (`SLEEP` accepts `id=N` before the duration).
        id: Option<u64>,
    },
    /// Inspect or change the fault-injection plan; answered inline.
    Faults(FaultCommand),
    /// Execute an outlier query.
    Query {
        /// Budget/mode overrides.
        options: RequestOptions,
        /// The OQL text.
        text: String,
    },
    /// Plan a query without executing it.
    Explain {
        /// Budget/mode overrides (accepted for symmetry; unused).
        options: RequestOptions,
        /// The OQL text.
        text: String,
    },
}

/// What a `FAULTS` request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultCommand {
    /// `FAULTS` — report the active plan and injection counters.
    Status,
    /// `FAULTS OFF` — clear the plan (injection stops; counters reset).
    Clear,
    /// `FAULTS <spec>` — install a new plan (resets the request sequence
    /// and counters). The spec is validated at parse time.
    Install(FaultPlan),
}

/// Why a request line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

fn parse_err(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

impl Request {
    /// Parse one request line. Never panics: any malformed input — wrong
    /// verb, bad option value, over-long or empty line — is a [`ParseError`].
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        if line.len() > MAX_LINE_BYTES {
            return Err(parse_err(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        let line = line.trim();
        if line.is_empty() {
            return Err(parse_err("empty request line"));
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim_start()),
            None => (line, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            "PING" => Self::expect_no_args("PING", rest).map(|()| Request::Ping),
            "STATS" => Self::expect_no_args("STATS", rest).map(|()| Request::Stats),
            "METRICS" => match rest {
                "" => Ok(Request::Metrics { json: false }),
                j if j.eq_ignore_ascii_case("json") => Ok(Request::Metrics { json: true }),
                other => Err(parse_err(format!(
                    "METRICS takes no argument or JSON, got {other:?}"
                ))),
            },
            "TRACE" => match rest {
                "" => Ok(Request::Trace { id: None }),
                id_text => id_text
                    .parse()
                    .map(|id| Request::Trace { id: Some(id) })
                    .map_err(|_| {
                        parse_err(format!("TRACE expects a numeric entry id, got {id_text:?}"))
                    }),
            },
            "SHUTDOWN" => Self::expect_no_args("SHUTDOWN", rest).map(|()| Request::Shutdown),
            "SLEEP" => {
                let (options, ms_text) = parse_options(rest)?;
                if options.timeout_ms.is_some()
                    || options.max_candidates.is_some()
                    || options.max_nnz.is_some()
                    || options.mode.is_some()
                    || options.shard.is_some()
                    || options.priority.is_some()
                    || options.trace
                {
                    return Err(parse_err("SLEEP accepts only the id= option"));
                }
                let ms: u64 = ms_text.parse().map_err(|_| {
                    parse_err(format!("SLEEP expects milliseconds, got {ms_text:?}"))
                })?;
                Ok(Request::Sleep { ms, id: options.id })
            }
            "FAULTS" => match rest {
                "" => Ok(Request::Faults(FaultCommand::Status)),
                off if off.eq_ignore_ascii_case("off") => Ok(Request::Faults(FaultCommand::Clear)),
                spec => FaultPlan::parse(spec)
                    .map(|plan| Request::Faults(FaultCommand::Install(plan)))
                    .map_err(|e| parse_err(format!("bad fault plan: {e}"))),
            },
            "QUERY" => {
                let (options, text) = parse_options(rest)?;
                if text.is_empty() {
                    return Err(parse_err("QUERY expects a query text"));
                }
                Ok(Request::Query {
                    options,
                    text: text.to_string(),
                })
            }
            "EXPLAIN" => {
                let (options, text) = parse_options(rest)?;
                if text.is_empty() {
                    return Err(parse_err("EXPLAIN expects a query text"));
                }
                Ok(Request::Explain {
                    options,
                    text: text.to_string(),
                })
            }
            other => Err(parse_err(format!(
                "unknown verb {other:?} (PING|STATS|METRICS|TRACE|SHUTDOWN|SLEEP|FAULTS|QUERY|EXPLAIN)"
            ))),
        }
    }

    fn expect_no_args(verb: &str, rest: &str) -> Result<(), ParseError> {
        if rest.is_empty() {
            Ok(())
        } else {
            Err(parse_err(format!(
                "{verb} takes no arguments, got {rest:?}"
            )))
        }
    }

    /// Serialize back to a wire line. `Request::parse(&req.to_line())`
    /// round-trips (modulo whitespace normalization inside query text).
    pub fn to_line(&self) -> String {
        fn opts_prefix(options: &RequestOptions) -> String {
            let mut s = String::new();
            if let Some(ms) = options.timeout_ms {
                s.push_str(&format!("timeout-ms={ms} "));
            }
            if let Some(n) = options.max_candidates {
                s.push_str(&format!("max-candidates={n} "));
            }
            if let Some(n) = options.max_nnz {
                s.push_str(&format!("max-nnz={n} "));
            }
            if let Some(mode) = options.mode {
                s.push_str(&format!(
                    "mode={} ",
                    match mode {
                        ExecMode::Strict => "strict",
                        ExecMode::BestEffort => "best-effort",
                    }
                ));
            }
            if let Some(id) = options.id {
                s.push_str(&format!("id={id} "));
            }
            if let Some((i, n)) = options.shard {
                s.push_str(&format!("shard={i}/{n} "));
            }
            if let Some(p) = options.priority {
                s.push_str(&format!("priority={p} "));
            }
            if options.trace {
                s.push_str("trace=1 ");
            }
            s
        }
        match self {
            Request::Ping => "PING".to_string(),
            Request::Stats => "STATS".to_string(),
            Request::Metrics { json: false } => "METRICS".to_string(),
            Request::Metrics { json: true } => "METRICS JSON".to_string(),
            Request::Trace { id: None } => "TRACE".to_string(),
            Request::Trace { id: Some(id) } => format!("TRACE {id}"),
            Request::Shutdown => "SHUTDOWN".to_string(),
            Request::Sleep { ms, id: None } => format!("SLEEP {ms}"),
            Request::Sleep { ms, id: Some(id) } => format!("SLEEP id={id} {ms}"),
            Request::Faults(FaultCommand::Status) => "FAULTS".to_string(),
            Request::Faults(FaultCommand::Clear) => "FAULTS OFF".to_string(),
            Request::Faults(FaultCommand::Install(plan)) => {
                format!("FAULTS {}", plan.spec())
            }
            Request::Query { options, text } => {
                format!("QUERY {}{}", opts_prefix(options), text)
            }
            Request::Explain { options, text } => {
                format!("EXPLAIN {}{}", opts_prefix(options), text)
            }
        }
    }

    /// Whether this request is dispatched to the worker pool (vs. answered
    /// inline by the connection handler).
    pub fn needs_worker(&self) -> bool {
        matches!(
            self,
            Request::Query { .. } | Request::Explain { .. } | Request::Sleep { .. }
        )
    }

    /// The idempotency key, if the request carries one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Query { options, .. } | Request::Explain { options, .. } => options.id,
            Request::Sleep { id, .. } => *id,
            _ => None,
        }
    }
}

/// Split leading `key=value` option tokens off `rest`; the remainder is the
/// query text. An unknown option key or malformed value is an error; the
/// first token without `=` ends option parsing, so query text containing
/// `=` later on is untouched.
fn parse_options(rest: &str) -> Result<(RequestOptions, &str), ParseError> {
    let mut options = RequestOptions::default();
    let mut cursor = rest;
    loop {
        let trimmed = cursor.trim_start();
        let token = trimmed.split_whitespace().next().unwrap_or("");
        let Some((key, value)) = token.split_once('=') else {
            return Ok((options, trimmed));
        };
        // Query text never starts with a bare `key=value` token (OQL starts
        // with FIND), so a token with '=' before the text is an option.
        match key {
            "timeout-ms" => {
                options.timeout_ms = Some(parse_num(key, value)?);
            }
            "max-candidates" => {
                options.max_candidates = Some(parse_num(key, value)?);
            }
            "max-nnz" => {
                options.max_nnz = Some(parse_num(key, value)?);
            }
            "id" => {
                options.id = Some(parse_num(key, value)?);
            }
            "shard" => {
                let bad = || parse_err(format!("shard must be i/n with i < n, got {value:?}"));
                let (i_text, n_text) = value.split_once('/').ok_or_else(bad)?;
                let i: usize = i_text.parse().map_err(|_| bad())?;
                let n: usize = n_text.parse().map_err(|_| bad())?;
                if i >= n {
                    return Err(bad());
                }
                options.shard = Some((i, n));
            }
            "mode" => {
                options.mode = Some(match value {
                    "strict" => ExecMode::Strict,
                    "best-effort" => ExecMode::BestEffort,
                    other => {
                        return Err(parse_err(format!(
                            "mode must be strict or best-effort, got {other:?}"
                        )))
                    }
                });
            }
            "priority" => {
                let p: u8 = parse_num(key, value)?;
                if p > 9 {
                    return Err(parse_err(format!("priority must be 0-9, got {value:?}")));
                }
                options.priority = Some(p);
            }
            "trace" => {
                options.trace = match value {
                    "1" | "true" | "on" => true,
                    "0" | "false" | "off" => false,
                    other => {
                        return Err(parse_err(format!(
                            "trace must be 1/0, true/false, or on/off, got {other:?}"
                        )))
                    }
                };
            }
            other => {
                return Err(parse_err(format!(
                    "unknown option {other:?} \
                     (timeout-ms|max-candidates|max-nnz|mode|id|shard|priority|trace)"
                )))
            }
        }
        cursor = &trimmed[token.len()..];
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| parse_err(format!("bad value for option {key}: {value:?}")))
}

/// Stable machine-readable error classes for `err` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ErrorCode {
    /// The request line itself was malformed.
    Protocol,
    /// The query failed to parse or validate against the schema.
    Query,
    /// A budget limit fired before any candidate was scored (strict mode,
    /// or degradation impossible).
    Budget,
    /// Any other engine failure (empty sets, unknown anchors, …).
    Engine,
    /// Request execution panicked and was isolated: the request failed but
    /// the worker (or parallel shard) survived and keeps serving.
    Panic,
    /// A server-side invariant broke (bug); the request failed.
    Internal,
    /// The coordinator has no healthy backend left for any shard; the
    /// request cannot make progress until a backend recovers.
    NoBackends,
}

/// One ranked outlier row in a `result` response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RankedRow {
    /// 1-based rank, most outlying first.
    pub rank: usize,
    /// Vertex display name.
    pub name: String,
    /// Combined outlierness score.
    pub score: f64,
}

/// The degraded/partial-result marker on a `result` response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradedInfo {
    /// Which budget limit ended the run (display form of
    /// [`netout::BudgetLimit`]).
    pub limit: String,
    /// The phase it fired in.
    pub phase: String,
    /// Candidates scored before the budget fired.
    pub scored: usize,
    /// Total candidate-set cardinality.
    pub total: usize,
}

impl From<&Degraded> for DegradedInfo {
    fn from(d: &Degraded) -> Self {
        DegradedInfo {
            limit: d.limit.to_string(),
            phase: d.phase.to_string(),
            scored: d.scored,
            total: d.total,
        }
    }
}

/// A successful query execution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResultBody {
    /// The measure that produced the scores (`"NetOut"`, …).
    pub measure: String,
    /// Candidate-set cardinality.
    pub candidates: usize,
    /// Reference-set cardinality.
    pub reference: usize,
    /// Ranked outliers, most outlying first.
    pub ranked: Vec<RankedRow>,
    /// Candidates with undefined scores (zero visibility), count only.
    pub zero_visibility: usize,
    /// `Some` when the ranking is best-effort over a scored prefix.
    pub degraded: Option<DegradedInfo>,
    /// Server-side execution time in microseconds (queue wait excluded).
    pub exec_us: u64,
}

impl ResultBody {
    /// Build from an engine [`QueryResult`].
    pub fn from_query_result(r: &QueryResult, exec: Duration) -> ResultBody {
        ResultBody {
            measure: r.measure.to_string(),
            candidates: r.candidate_count,
            reference: r.reference_count,
            ranked: r
                .ranked
                .iter()
                .enumerate()
                .map(|(i, o)| RankedRow {
                    rank: i + 1,
                    name: o.name.clone(),
                    score: o.score,
                })
                .collect(),
            zero_visibility: r.zero_visibility.len(),
            degraded: r.degraded.as_ref().map(DegradedInfo::from),
            exec_us: exec.as_micros() as u64,
        }
    }
}

/// One scored candidate in a `shard` response: the raw combined score of
/// one vertex, before the coordinator's global top-k.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardRow {
    /// Vertex id (stable across backends serving the same graph).
    pub v: u64,
    /// Vertex display name.
    pub name: String,
    /// Combined outlierness score (finite by construction).
    pub score: f64,
}

/// A `shard` response: one backend's slice of a scatter-gather query.
/// Rows are in candidate-set order and un-truncated so the coordinator's
/// concatenate-then-`top_k` merge is byte-identical to a single-box run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardBody {
    /// The measure that produced the scores (`"NetOut"`, …).
    pub measure: String,
    /// Whether lower scores are more outlying (ascending order).
    pub asc: bool,
    /// The query's TOP k, when present (the coordinator re-applies it).
    pub top: Option<usize>,
    /// This shard's index (0-based).
    pub shard: usize,
    /// The total shard count the candidate range was split into.
    pub of: usize,
    /// Whole-query candidate-set cardinality (not just this slice).
    pub candidates: usize,
    /// Whole-query reference-set cardinality.
    pub reference: usize,
    /// Candidates in this slice with undefined scores, count only.
    pub zero_visibility: usize,
    /// Scored rows for this slice, candidate order, no top-k applied.
    pub rows: Vec<ShardRow>,
    /// Server-side execution time in microseconds (queue wait excluded).
    pub exec_us: u64,
    /// The backend's span tree for this shard execution, present only when
    /// the sub-request carried `trace=1`. Skipped (not `null`) when absent
    /// so untraced shard responses stay byte-identical to older servers.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<ShardTrace>,
}

/// The trace payload a backend attaches to a `shard` response when the
/// sub-request carried `trace=1`: the propagated span context of the wire
/// format (DESIGN.md §17). The coordinator grafts `spans` under its own
/// per-attempt span and strips the payload before merging rows, so the
/// client-visible `result` is unaffected.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardTrace {
    /// Admission → worker-pickup on the backend, µs (the one latency the
    /// coordinator cannot observe from outside).
    pub queue_wait_us: u64,
    /// Spans recorded but rejected because the backend's buffer was full.
    pub spans_dropped: u64,
    /// The backend's recorded span tree (roots in open order).
    pub spans: Vec<hin_telemetry::TraceNode>,
}

impl ShardBody {
    /// Build from an engine [`netout::ShardScores`]; `shard`/`of` echo the
    /// request's `shard=i/n` option.
    pub fn from_shard_scores(
        s: &netout::ShardScores,
        shard: usize,
        of: usize,
        exec: Duration,
    ) -> ShardBody {
        ShardBody {
            measure: s.measure.to_string(),
            asc: matches!(s.order, netout::ScoreOrder::AscendingIsOutlier),
            top: s.top,
            shard,
            of,
            candidates: s.candidate_count,
            reference: s.reference_count,
            zero_visibility: s.zero_visibility,
            rows: s
                .rows
                .iter()
                .map(|o| ShardRow {
                    v: o.vertex.0 as u64,
                    name: o.name.clone(),
                    score: o.score,
                })
                .collect(),
            exec_us: exec.as_micros() as u64,
            trace: None,
        }
    }
}

/// Decode a serialized [`hin_telemetry::TraceNode`] back from parsed JSON
/// (the inverse of its `Serialize` impl). Used by the coordinator to lift
/// backend span trees out of `shard` responses and by `bench-client
/// --trace` to render a fetched `TRACE <id>` entry. Structural errors are
/// reported, never panicked on; unknown fields are ignored so the decoder
/// tolerates additive evolution.
pub fn trace_node_from_value(v: &crate::json::Value) -> Result<hin_telemetry::TraceNode, String> {
    let name = v
        .get("name")
        .and_then(|n| n.as_str())
        .ok_or("span missing name")?
        .to_string();
    let start_us = v
        .get("start_us")
        .and_then(|n| n.as_u64())
        .ok_or("span missing start_us")?;
    let dur_us = v
        .get("dur_us")
        .and_then(|n| n.as_u64())
        .ok_or("span missing dur_us")?;
    let mut fields = Vec::new();
    if let Some(pairs) = v.get("fields").and_then(|f| f.as_array()) {
        for pair in pairs {
            let kv = pair.as_array().ok_or("span field is not a pair")?;
            match kv {
                [k, val] => {
                    let key = k.as_str().ok_or("span field key is not a string")?;
                    // Field values serialize as strings or numbers; keep
                    // the wire text either way.
                    let text = match val {
                        crate::json::Value::Str(s) => s.clone(),
                        crate::json::Value::Num(raw) => raw.clone(),
                        other => {
                            return Err(format!(
                                "span field value {other:?} is neither a string nor a number"
                            ))
                        }
                    };
                    fields.push((key.to_string(), text));
                }
                _ => return Err("span field is not a [key, value] pair".into()),
            }
        }
    }
    let mut children = Vec::new();
    if let Some(kids) = v.get("children").and_then(|c| c.as_array()) {
        for kid in kids {
            children.push(trace_node_from_value(kid)?);
        }
    }
    Ok(hin_telemetry::TraceNode {
        name,
        start_us,
        dur_us,
        fields,
        children,
    })
}

/// An `err` response body.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ErrBody {
    /// Stable machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// A `busy` (admission rejected) response body.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BusyBody {
    /// Jobs queued when admission was refused.
    pub queue_depth: usize,
    /// The configured queue capacity.
    pub queue_cap: usize,
    /// How long the client should wait before retrying, milliseconds
    /// (0 = retry immediately). Derived from queue depth × observed
    /// execution time, so a storm of rejected clients spreads out instead
    /// of stampeding back in lockstep.
    pub retry_after_ms: u64,
}

/// An `expired` (deadline-shed) response body: the request was admitted
/// but its deadline elapsed while it sat in the queue, so the server shed
/// it *without executing anything*. Retrying is always safe.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExpiredBody {
    /// How long the request waited in the queue, milliseconds.
    pub waited_ms: u64,
    /// The deadline it carried (explicit `timeout-ms=` or the server
    /// default), milliseconds.
    pub deadline_ms: u64,
    /// How long the client should wait before retrying, milliseconds.
    pub retry_after_ms: u64,
}

/// One slow-query log entry, as returned by `TRACE <id>`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceBody {
    /// Entry id (the request's idempotency id when present, else a
    /// server-assigned sequence number).
    pub id: u64,
    /// The request line as received.
    pub request: String,
    /// Admission → worker-pickup, µs.
    pub queue_wait_us: u64,
    /// Worker execution, µs.
    pub exec_us: u64,
    /// Admission → response written, µs.
    pub total_us: u64,
    /// Whether the response carried a degraded/partial marker.
    pub degraded: bool,
    /// Shared vector-cache counters when the entry was logged.
    pub cache: crate::stats::CacheSnapshot,
    /// Sub-path product-cache counters when the entry was logged; `null`
    /// when the server runs without a sub-path cache.
    pub subpath: Option<crate::stats::SubpathSnapshot>,
    /// Spans recorded but rejected because the trace buffer was full.
    pub spans_dropped: u64,
    /// The recorded span tree (roots in open order).
    pub spans: Vec<hin_telemetry::TraceNode>,
}

/// One row in the `TRACE` (no id) slow-query listing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceListEntry {
    /// Entry id, usable with `TRACE <id>`.
    pub id: u64,
    /// Admission → response written, µs.
    pub total_us: u64,
    /// The request line as received.
    pub request: String,
}

/// A `faults` response body: the fault-injection plan and its counters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultsBody {
    /// Canonical spec of the active plan; `null` when injection is off.
    pub spec: Option<String>,
    /// Worker-pool requests sequenced since the plan was (re)installed.
    pub requests_seen: u64,
    /// Faults injected since the plan was (re)installed, by kind.
    pub injected: FaultCounts,
}

/// One response line, externally tagged in JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[allow(clippy::large_enum_variant)] // responses are built once and serialized immediately
pub enum Response {
    /// Successful query execution (possibly degraded).
    #[serde(rename = "result")]
    Result(ResultBody),
    /// Successful shard execution (`shard=i/n` option): raw scored rows
    /// for one candidate slice, merged by the coordinator.
    #[serde(rename = "shard")]
    Shard(ShardBody),
    /// Successful EXPLAIN; the rendered plan.
    #[serde(rename = "explain")]
    Explain {
        /// Human-readable plan text.
        plan: String,
    },
    /// Liveness answer.
    #[serde(rename = "pong")]
    Pong {
        /// Server uptime in milliseconds.
        uptime_ms: u64,
    },
    /// Statistics snapshot (the body is
    /// [`crate::stats::StatsSnapshot`], pre-serialized).
    #[serde(rename = "stats")]
    Stats(crate::stats::StatsSnapshot),
    /// Admission control rejected the request: the queue is full (or the
    /// overload controller shed it before execution).
    #[serde(rename = "busy")]
    Busy(BusyBody),
    /// The request's deadline expired while it waited in the queue; it was
    /// shed without executing (retry-safe).
    #[serde(rename = "expired")]
    Expired(ExpiredBody),
    /// The request failed.
    #[serde(rename = "err")]
    Err(ErrBody),
    /// `SLEEP` completed (or was cancelled early).
    #[serde(rename = "slept")]
    Slept {
        /// Milliseconds actually slept.
        ms: u64,
        /// Whether the sleep was cut short by cancellation.
        cancelled: bool,
    },
    /// Shutdown acknowledged; the server is draining.
    #[serde(rename = "bye")]
    Bye {
        /// Jobs still queued at shutdown time (they will be drained).
        draining: usize,
    },
    /// `FAULTS` answer: the active plan (if any) and injection counters.
    #[serde(rename = "faults")]
    Faults(FaultsBody),
    /// `METRICS JSON` answer: every registered metric sample.
    #[serde(rename = "metrics")]
    Metrics(hin_telemetry::MetricsSnapshot),
    /// `TRACE <id>` answer: one slow-query log entry with its span tree.
    #[serde(rename = "trace")]
    Trace(TraceBody),
    /// `TRACE` answer: the slow-query log listing, most recent last.
    #[serde(rename = "traces")]
    Traces {
        /// Logged entries (bounded ring; oldest evicted first).
        entries: Vec<TraceListEntry>,
    },
}

impl Response {
    /// Build an `err` response.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Err(ErrBody {
            code,
            message: message.into(),
        })
    }

    /// Classify an [`EngineError`] into an `err` response.
    pub fn from_engine_error(e: &EngineError) -> Response {
        let code = match e {
            EngineError::Query(_) => ErrorCode::Query,
            EngineError::BudgetExceeded { .. } => ErrorCode::Budget,
            EngineError::Panicked { .. } => ErrorCode::Panic,
            _ => ErrorCode::Engine,
        };
        Response::err(code, e.to_string())
    }

    /// Serialize to one compact-JSON wire line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        crate::json::to_string(self).unwrap_or_else(|e| {
            // Serialization of our own derive'd types cannot fail, but the
            // wire must never go silent if it somehow does.
            format!("{{\"err\":{{\"code\":\"Internal\",\"message\":{}}}}}", {
                let mut s = String::new();
                crate::json::escape_into(&mut s, &e.to_string());
                s
            })
        })
    }

    /// The response kind tag as it appears on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Result(_) => "result",
            Response::Shard(_) => "shard",
            Response::Explain { .. } => "explain",
            Response::Pong { .. } => "pong",
            Response::Stats(_) => "stats",
            Response::Busy(_) => "busy",
            Response::Expired(_) => "expired",
            Response::Err(_) => "err",
            Response::Slept { .. } => "slept",
            Response::Bye { .. } => "bye",
            Response::Faults(_) => "faults",
            Response::Metrics(_) => "metrics",
            Response::Trace(_) => "trace",
            Response::Traces { .. } => "traces",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_verbs() {
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(Request::parse("  stats  ").unwrap(), Request::Stats);
        assert_eq!(Request::parse("Shutdown").unwrap(), Request::Shutdown);
        assert_eq!(
            Request::parse("SLEEP 250").unwrap(),
            Request::Sleep { ms: 250, id: None }
        );
        assert_eq!(
            Request::parse("SLEEP id=7 250").unwrap(),
            Request::Sleep {
                ms: 250,
                id: Some(7)
            }
        );
    }

    #[test]
    fn parses_metrics_and_trace_verbs() {
        assert_eq!(
            Request::parse("METRICS").unwrap(),
            Request::Metrics { json: false }
        );
        assert_eq!(
            Request::parse("metrics json").unwrap(),
            Request::Metrics { json: true }
        );
        assert_eq!(
            Request::parse("TRACE").unwrap(),
            Request::Trace { id: None }
        );
        assert_eq!(
            Request::parse("TRACE 42").unwrap(),
            Request::Trace { id: Some(42) }
        );
        assert!(Request::parse("METRICS yaml").is_err());
        assert!(Request::parse("TRACE abc").is_err());
        // Both are answered inline by the connection handler.
        assert!(!Request::Metrics { json: false }.needs_worker());
        assert!(!Request::Trace { id: Some(1) }.needs_worker());
    }

    #[test]
    fn parses_faults_verb() {
        assert_eq!(
            Request::parse("FAULTS").unwrap(),
            Request::Faults(FaultCommand::Status)
        );
        assert_eq!(
            Request::parse("FAULTS off").unwrap(),
            Request::Faults(FaultCommand::Clear)
        );
        match Request::parse("FAULTS seed=3;panic@1;delay~10:50").unwrap() {
            Request::Faults(FaultCommand::Install(plan)) => {
                assert_eq!(plan.spec(), "seed=3;panic@1;delay~10:50");
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = Request::parse("FAULTS frob@1").unwrap_err();
        assert!(err.message.contains("bad fault plan"), "{err}");
        // FAULTS never reaches the worker pool.
        assert!(!Request::parse("FAULTS").unwrap().needs_worker());
    }

    #[test]
    fn query_with_options() {
        let r = Request::parse(
            "QUERY timeout-ms=100 max-candidates=50 mode=strict FIND OUTLIERS FROM a.b JUDGED BY a.b;",
        )
        .unwrap();
        match r {
            Request::Query { options, text } => {
                assert_eq!(options.timeout_ms, Some(100));
                assert_eq!(options.max_candidates, Some(50));
                assert_eq!(options.mode, Some(ExecMode::Strict));
                assert_eq!(options.max_nnz, None);
                assert_eq!(text, "FIND OUTLIERS FROM a.b JUDGED BY a.b;");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shard_option_parses_and_round_trips() {
        let r = Request::parse("QUERY shard=1/4 FIND OUTLIERS FROM a.b JUDGED BY a.b;").unwrap();
        match &r {
            Request::Query { options, text } => {
                assert_eq!(options.shard, Some((1, 4)));
                assert_eq!(text, "FIND OUTLIERS FROM a.b JUDGED BY a.b;");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn priority_option_parses_validates_and_round_trips() {
        let r = Request::parse("QUERY priority=2 FIND OUTLIERS FROM a.b JUDGED BY a.b;").unwrap();
        match &r {
            Request::Query { options, .. } => assert_eq!(options.priority, Some(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
        for line in [
            "QUERY priority=10 FIND;",
            "QUERY priority=-1 FIND;",
            "QUERY priority=low FIND;",
            "SLEEP priority=3 10",
        ] {
            assert!(Request::parse(line).is_err(), "line {line:?} parsed");
        }
    }

    #[test]
    fn query_text_with_equals_sign_preserved() {
        // Options stop at the first non-option token; '=' later in the text
        // is query content. (OQL has no '=' today, but the framing must not
        // care.)
        let r = Request::parse("QUERY FIND OUTLIERS FROM x{\"a=b\"} JUDGED BY p;").unwrap();
        match r {
            Request::Query { options, text } => {
                assert!(options.is_empty());
                assert!(text.contains("a=b"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for line in [
            "",
            "   ",
            "FROB",
            "PING extra",
            "SLEEP",
            "SLEEP forever",
            "SLEEP -1",
            "SLEEP id=x 10",
            "SLEEP timeout-ms=5 10",
            "QUERY id=-3 FIND;",
            "FAULTS frob@1",
            "FAULTS panic@",
            "QUERY",
            "QUERY timeout-ms=abc FIND;",
            "QUERY frobs=1 FIND;",
            "QUERY mode=later FIND;",
            "QUERY shard=3 FIND;",
            "QUERY shard=3/3 FIND;",
            "QUERY shard=a/b FIND;",
            "SLEEP shard=0/2 10",
            "EXPLAIN   ",
        ] {
            assert!(Request::parse(line).is_err(), "line {line:?} parsed");
        }
    }

    #[test]
    fn round_trip_preserves_request() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Metrics { json: false },
            Request::Metrics { json: true },
            Request::Trace { id: None },
            Request::Trace { id: Some(9000) },
            Request::Shutdown,
            Request::Sleep { ms: 42, id: None },
            Request::Sleep {
                ms: 9,
                id: Some(u64::MAX),
            },
            Request::Faults(FaultCommand::Status),
            Request::Faults(FaultCommand::Clear),
            Request::Faults(FaultCommand::Install(
                FaultPlan::parse("seed=5;kill@2;drop~3").unwrap(),
            )),
            Request::Query {
                options: RequestOptions {
                    timeout_ms: Some(9),
                    max_candidates: None,
                    max_nnz: Some(1000),
                    mode: Some(ExecMode::BestEffort),
                    id: Some(77),
                    shard: Some((2, 5)),
                    priority: Some(9),
                    trace: true,
                },
                text: "FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY a.p.v;"
                    .to_string(),
            },
            Request::Explain {
                options: RequestOptions::default(),
                text: "FIND OUTLIERS FROM a.b JUDGED BY c.d;".to_string(),
            },
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn budget_overrides_layer_over_defaults() {
        let default = Budget::unbounded().with_timeout_ms(5000).with_max_nnz(10);
        let opts = RequestOptions {
            timeout_ms: Some(100),
            max_candidates: Some(7),
            max_nnz: None,
            mode: None,
            id: None,
            shard: None,
            priority: None,
            trace: false,
        };
        let b = opts.budget_over(&default);
        assert_eq!(b.timeout, Some(Duration::from_millis(100)));
        assert_eq!(b.max_candidates, Some(7));
        assert_eq!(b.max_reference, Some(7));
        assert_eq!(b.max_nnz, Some(10), "default survives");
    }

    #[test]
    fn responses_serialize_with_stable_tags() {
        let r = Response::Pong { uptime_ms: 12 };
        assert_eq!(r.to_json_line(), r#"{"pong":{"uptime_ms":12}}"#);
        let r = Response::Busy(BusyBody {
            queue_depth: 4,
            queue_cap: 4,
            retry_after_ms: 25,
        });
        assert_eq!(
            r.to_json_line(),
            r#"{"busy":{"queue_depth":4,"queue_cap":4,"retry_after_ms":25}}"#
        );
        let r = Response::Expired(ExpiredBody {
            waited_ms: 950,
            deadline_ms: 1000,
            retry_after_ms: 40,
        });
        assert_eq!(
            r.to_json_line(),
            r#"{"expired":{"waited_ms":950,"deadline_ms":1000,"retry_after_ms":40}}"#
        );
        assert_eq!(r.kind(), "expired");
        let r = Response::err(ErrorCode::Protocol, "bad verb");
        assert_eq!(
            r.to_json_line(),
            r#"{"err":{"code":"Protocol","message":"bad verb"}}"#
        );
        assert_eq!(r.kind(), "err");
        let r = Response::Faults(FaultsBody {
            spec: Some("seed=1;panic@0".to_string()),
            requests_seen: 4,
            injected: FaultCounts {
                panics: 1,
                ..FaultCounts::default()
            },
        });
        let line = r.to_json_line();
        assert!(
            line.starts_with(r#"{"faults":{"spec":"seed=1;panic@0","requests_seen":4"#),
            "{line}"
        );
        assert!(line.contains(r#""panics":1"#));
        assert_eq!(r.kind(), "faults");
        let off = Response::Faults(FaultsBody {
            spec: None,
            requests_seen: 0,
            injected: FaultCounts::default(),
        });
        assert!(off.to_json_line().contains(r#""spec":null"#));
    }

    #[test]
    fn shard_response_serializes_with_stable_tag() {
        let r = Response::Shard(ShardBody {
            measure: "NetOut".to_string(),
            asc: false,
            top: Some(5),
            shard: 1,
            of: 3,
            candidates: 10,
            reference: 4,
            zero_visibility: 1,
            rows: vec![ShardRow {
                v: 7,
                name: "Emma".to_string(),
                score: 3.33,
            }],
            exec_us: 12,
            trace: None,
        });
        let line = r.to_json_line();
        assert!(
            line.starts_with(
                r#"{"shard":{"measure":"NetOut","asc":false,"top":5,"shard":1,"of":3"#
            ),
            "{line}"
        );
        assert!(
            line.contains(r#""rows":[{"v":7,"name":"Emma","score":3.33}]"#),
            "{line}"
        );
        // An untraced shard response must not even mention the trace field:
        // older coordinators and the dedup cache see unchanged bytes.
        assert!(!line.contains("trace"), "{line}");
        assert_eq!(r.kind(), "shard");
    }

    #[test]
    fn traced_shard_response_appends_span_payload() {
        let node = hin_telemetry::TraceNode {
            name: "query".to_string(),
            start_us: 2,
            dur_us: 90,
            fields: vec![("mode".to_string(), "best-effort".to_string())],
            children: Vec::new(),
        };
        let r = Response::Shard(ShardBody {
            measure: "NetOut".to_string(),
            asc: false,
            top: None,
            shard: 0,
            of: 2,
            candidates: 4,
            reference: 2,
            zero_visibility: 0,
            rows: Vec::new(),
            exec_us: 7,
            trace: Some(ShardTrace {
                queue_wait_us: 11,
                spans_dropped: 0,
                spans: vec![node.clone()],
            }),
        });
        let line = r.to_json_line();
        assert!(
            line.contains(
                r#""trace":{"queue_wait_us":11,"spans_dropped":0,"spans":[{"name":"query""#
            ),
            "{line}"
        );
        // And the payload round-trips through the wire decoder.
        let value = crate::json::parse_value(&line).unwrap();
        let spans = value
            .get("shard")
            .and_then(|s| s.get("trace"))
            .and_then(|t| t.get("spans"))
            .and_then(|s| s.as_array())
            .unwrap();
        let decoded = trace_node_from_value(&spans[0]).unwrap();
        assert_eq!(decoded, node);
    }

    #[test]
    fn trace_node_decoder_rejects_malformed_spans() {
        for bad in [
            r#"{"start_us":1,"dur_us":2}"#,
            r#"{"name":"x","dur_us":2}"#,
            r#"{"name":"x","start_us":1,"dur_us":2,"fields":[["only-key"]]}"#,
            r#"{"name":"x","start_us":1,"dur_us":2,"children":[{"dur_us":1}]}"#,
        ] {
            let v = crate::json::parse_value(bad).unwrap();
            assert!(trace_node_from_value(&v).is_err(), "{bad} decoded");
        }
    }

    #[test]
    fn trace_option_parses_and_round_trips() {
        let r = Request::parse("QUERY trace=1 FIND OUTLIERS FROM a.b JUDGED BY a.b;").unwrap();
        match &r {
            Request::Query { options, .. } => assert!(options.trace),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
        for (line, want) in [
            ("QUERY trace=on FIND;", true),
            ("QUERY trace=true FIND;", true),
            ("QUERY trace=0 FIND;", false),
            ("QUERY trace=off FIND;", false),
        ] {
            match Request::parse(line).unwrap() {
                Request::Query { options, .. } => assert_eq!(options.trace, want, "{line}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        for line in [
            "QUERY trace=2 FIND;",
            "QUERY trace=yes FIND;",
            "SLEEP trace=1 10",
        ] {
            assert!(Request::parse(line).is_err(), "line {line:?} parsed");
        }
    }

    #[test]
    fn trace_responses_serialize_with_stable_tags() {
        let r = Response::Traces {
            entries: vec![TraceListEntry {
                id: 3,
                total_us: 1500,
                request: "QUERY FIND;".to_string(),
            }],
        };
        assert_eq!(
            r.to_json_line(),
            r#"{"traces":{"entries":[{"id":3,"total_us":1500,"request":"QUERY FIND;"}]}}"#
        );
        let r = Response::Trace(TraceBody {
            id: 3,
            request: "QUERY FIND;".to_string(),
            queue_wait_us: 10,
            exec_us: 1400,
            total_us: 1500,
            degraded: false,
            cache: crate::stats::CacheSnapshot::default(),
            subpath: None,
            spans_dropped: 0,
            spans: Vec::new(),
        });
        let line = r.to_json_line();
        assert!(line.starts_with(r#"{"trace":{"id":3"#), "{line}");
        assert!(line.contains(r#""spans":[]"#));
        assert_eq!(r.kind(), "trace");
    }

    #[test]
    fn engine_panic_maps_to_panic_code() {
        let e = EngineError::Panicked {
            message: "boom".into(),
        };
        match Response::from_engine_error(&e) {
            Response::Err(body) => {
                assert_eq!(body.code, ErrorCode::Panic);
                assert!(body.message.contains("boom"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn result_body_from_query_result_marks_degradation() {
        use netout::OutlierDetector;
        let d = OutlierDetector::new(hin_datagen::toy::figure1_network());
        let r = d
            .query("FIND OUTLIERS FROM venue{\"ICDE\"}.paper.author JUDGED BY author.paper.venue;")
            .unwrap();
        let body = ResultBody::from_query_result(&r, Duration::from_micros(55));
        assert_eq!(body.measure, "NetOut");
        assert_eq!(body.ranked.len(), r.ranked.len());
        assert_eq!(body.ranked[0].rank, 1);
        assert!(body.degraded.is_none());
        assert_eq!(body.exec_us, 55);
        let line = Response::Result(body).to_json_line();
        assert!(
            line.starts_with(r#"{"result":{"measure":"NetOut""#),
            "{line}"
        );
        assert!(line.contains(r#""degraded":null"#));
    }

    #[test]
    fn oversized_line_rejected() {
        let line = format!("QUERY {}", "x".repeat(MAX_LINE_BYTES + 1));
        assert!(Request::parse(&line).is_err());
    }
}

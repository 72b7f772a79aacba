//! The three served workloads: `serve_pm_closed`, `serve_pm_open`,
//! `coord_pm_closed`. Servers and coordinator are embedded (threads of this
//! process, loopback TCP); all load comes from this process too.

use crate::layers::{self, IndexFacts};
use crate::libload::build_pm_index;
use crate::metrics::Metrics;
use crate::oracle::check_wire_line;
use crate::run::{rounds, Env, Phase, Round};
use crate::trace::{Tracer, NO_PARENT};
use crate::util::{median, quantile, ratio, stay_on_first_cpu, SplitMix64};
use hin_service::json::{parse_value, Value};
use hin_service::{Coordinator, CoordinatorConfig, Server, ServerConfig, StatsSnapshot};
use hin_snapshot::{Snapshot, SnapshotWriter};
use netout::{OutlierDetector, QueryResult};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedKind {
    Closed,
    Open,
    Coordinator,
}

/// Connections (and, closed loop, generator threads) of every served
/// workload: the reference machine has 2 cores.
const CONNECTIONS: usize = 2;
/// Response lines kept for the protocol replays.
const CAPTURED_LINES: usize = 300;
/// A send this much after its due time counts as late.
const LATE: Duration = Duration::from_millis(1);

/// One blocking line-protocol connection. A request is one `write`.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A wedged server must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    fn send(&mut self, framed: &str) -> std::io::Result<()> {
        self.stream.write_all(framed.as_bytes())
    }

    /// The next response line, without its newline.
    fn receive(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    fn roundtrip(&mut self, framed: &str) -> std::io::Result<&str> {
        self.send(framed)?;
        self.receive()
    }
}

fn one_shot(addr: SocketAddr, framed: &str) -> Result<String, String> {
    let mut conn = Conn::connect(addr)?;
    conn.roundtrip(framed)
        .map(str::to_string)
        .map_err(|e| format!("{} to {addr}: {e}", framed.trim_end()))
}

fn stats(addr: SocketAddr) -> Result<Value, String> {
    let line = one_shot(addr, "STATS\n")?;
    let value = parse_value(&line).map_err(|e| format!("STATS answer: {e}"))?;
    value
        .get("stats")
        .cloned()
        .ok_or_else(|| format!("STATS answered {line}"))
}

/// A numeric field by dotted path (0 when absent).
fn num(value: &Value, path: &str) -> f64 {
    path.split('.')
        .try_fold(value, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

struct Backend {
    addr: SocketAddr,
    thread: JoinHandle<StatsSnapshot>,
}

fn start_backend(detector: OutlierDetector) -> Result<Backend, String> {
    let config = ServerConfig {
        workers: 1,
        threads_per_query: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(detector, "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let thread = std::thread::Builder::new()
        .name("hinbench-backend".into())
        .spawn(move || server.run())
        .map_err(|e| e.to_string())?;
    Ok(Backend { addr, thread })
}

/// What a set-up leaves behind besides running servers.
#[derive(Default)]
struct SetupFacts {
    index: IndexFacts,
    snapshot_encode_s: f64,
    snapshot_bytes: f64,
    snapshot_load_ms: f64,
    /// In-process results and median latency over the head of the list
    /// (traced runs only).
    in_process: Option<(Vec<QueryResult>, f64)>,
}

/// The serving tier of one workload: what clients connect to, and everything
/// that must be shut down afterwards.
struct Tier {
    front: SocketAddr,
    backends: Vec<Backend>,
    coordinator: Option<JoinHandle<hin_service::CoordSnapshot>>,
    scratch: Option<PathBuf>,
    facts: SetupFacts,
}

impl Tier {
    /// `SHUTDOWN` to the front door, then to every backend; join every
    /// thread. A thread that does not come back is an error, not a leak.
    fn shut_down(self) -> Result<(), String> {
        if let Some(handle) = self.coordinator {
            one_shot(self.front, "SHUTDOWN\n")?;
            handle
                .join()
                .map_err(|_| "coordinator thread panicked".to_string())?;
        }
        for backend in self.backends {
            one_shot(backend.addr, "SHUTDOWN\n")?;
            backend
                .thread
                .join()
                .map_err(|_| "backend thread panicked".to_string())?;
        }
        if let Some(dir) = self.scratch {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

/// Graph in memory → ready for the first measured request: index build,
/// (coordinator: snapshot write and two loads,) server start, warm-up pass.
fn set_up(kind: ServedKind, env: &Env, requests: &[String], trace: bool) -> Result<Tier, String> {
    let graph = env.graph.graph.clone();
    let mut facts = SetupFacts::default();
    let t = Instant::now();
    let index = build_pm_index(&graph, env);
    facts.index = IndexFacts::of(&index, t.elapsed().as_secs_f64());

    let tier = if kind == ServedKind::Coordinator {
        let dir = env
            .scratch_dir()
            .map_err(|e| format!("scratch directory: {e}"))?;
        let path = dir.join("graph.hsnp");
        let t = Instant::now();
        let bytes = SnapshotWriter::write(&path, &graph, Some(&index))
            .map_err(|e| format!("writing the snapshot: {e}"))?;
        facts.snapshot_encode_s = t.elapsed().as_secs_f64();
        facts.snapshot_bytes = bytes as f64;
        drop((graph, index));
        let mut load_ms = Vec::new();
        let mut backends = Vec::new();
        for _ in 0..2 {
            let t = Instant::now();
            let (graph, index) = Snapshot::load(&path)
                .map_err(|e| format!("loading the snapshot: {e}"))?
                .into_parts();
            load_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let detector = OutlierDetector::from_prebuilt(graph, index).with_threads(1);
            backends.push(start_backend(detector)?);
        }
        facts.snapshot_load_ms = median(&load_ms);
        let coordinator = Coordinator::bind(
            backends.iter().map(|b| b.addr).collect(),
            "127.0.0.1:0",
            CoordinatorConfig::default(),
        )
        .map_err(|e| format!("coordinator bind: {e}"))?;
        let front = coordinator.local_addr();
        let handle = std::thread::Builder::new()
            .name("hinbench-coordinator".into())
            .spawn(move || coordinator.run())
            .map_err(|e| e.to_string())?;
        Tier {
            front,
            backends,
            coordinator: Some(handle),
            scratch: Some(dir),
            facts,
        }
    } else {
        let detector = OutlierDetector::from_prebuilt(graph, Some(index)).with_threads(1);
        if trace {
            let (results, us) =
                layers::in_process_head(&detector, env, layers::LINE_REPLAY_QUERIES)?;
            facts.in_process = Some((results, median(&us)));
        }
        let backend = start_backend(detector)?;
        Tier {
            front: backend.addr,
            backends: vec![backend],
            coordinator: None,
            scratch: None,
            facts,
        }
    };

    // Warm-up pass through the front door, answers checked like any other.
    let mut conn = Conn::connect(tier.front)?;
    for (i, framed) in requests.iter().enumerate().take(env.profile.warmup_queries) {
        let line = conn
            .roundtrip(framed)
            .map_err(|e| format!("warm-up: {e}"))?;
        if check_wire_line(line, env.wire_prefix(i)).is_none() {
            let line = line.to_string();
            drop(conn);
            tier.shut_down()?;
            return Err(format!("warm-up: {} answered {line}", framed.trim_end()));
        }
    }
    Ok(tier)
}

/// What the generator threads bring back.
#[derive(Default)]
struct Load {
    phase: Phase,
    exec_us: Vec<f64>,
    captured: Vec<String>,
    tracer: Option<Tracer>,
}

impl Load {
    fn absorb(&mut self, other: Load, into: &mut Tracer) {
        self.phase.absorb(other.phase);
        self.exec_us.extend(other.exec_us);
        self.captured.extend(other.captured);
        if let Some(t) = other.tracer {
            into.absorb(t);
        }
    }
}

/// Check one response and book it.
fn book(load: &mut Load, env: &Env, i: usize, line: &str, latency: Duration) {
    let exec = check_wire_line(line, env.wire_prefix(i));
    load.phase.record(latency, exec.is_some());
    env.observe(i, exec.is_some());
    if let Some(us) = exec {
        load.exec_us.push(us as f64);
    }
    if load.captured.len() < CAPTURED_LINES / CONNECTIONS {
        load.captured.push(line.to_string());
    }
}

/// Closed loop: each connection sends its next request when the previous
/// answer has arrived. The connections share one cursor over the list.
fn closed_loop(
    front: SocketAddr,
    env: &Env,
    requests: &[String],
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Load, String> {
    let next = AtomicUsize::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let loads: Vec<Result<Load, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    stay_on_first_cpu();
                    let mut conn = Conn::connect(front)?;
                    let mut load = Load {
                        tracer: traced.then(Tracer::new),
                        ..Load::default()
                    };
                    while start.elapsed() < budget {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        let i = op % requests.len();
                        let span = load
                            .tracer
                            .as_mut()
                            .map(|t| t.begin("client.roundtrip", NO_PARENT, op as u32));
                        let t = Instant::now();
                        let line = conn
                            .roundtrip(&requests[i])
                            .map_err(|e| format!("{}: {e}", requests[i].trim_end()))?;
                        let latency = t.elapsed();
                        if let (Some(t), Some(id)) = (load.tracer.as_mut(), span) {
                            t.end(id);
                        }
                        book(&mut load, env, i, line, latency);
                    }
                    load.phase.elapsed_s = start.elapsed().as_secs_f64();
                    Ok(load)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut total = Load::default();
    for load in loads {
        total.absorb(load?, tracer);
    }
    Ok(total)
}

/// One request of the open loop's schedule.
struct Arrival {
    due: Duration,
    conn: usize,
    step: usize,
    list_index: usize,
}

/// Which rate steps an open-loop phase walks. The end-to-end latency is
/// defined at `r60`, so the untraced run spends its whole phase there; the
/// traced run walks all three for the `client.open.*` figures.
const R60_ONLY: &[usize] = &[1];
const ALL_STEPS: &[usize] = &[0, 1, 2];

/// Poisson arrivals: per step and connection, exponential gaps at half the
/// step's rate. Steps run back to back with a pause between them so that one
/// step's backlog does not become the next step's latency.
///
/// The arrival times are frozen with the profile, not drawn from the
/// workload seed (which picks the authors): where the bursts fall against
/// the expensive queries moved the 95th percentile by ± 10 % from seed to
/// seed, more than the changes the benchmark is meant to resolve.
fn schedule(env: &Env, requests: usize, seconds: f64, steps: &[usize]) -> Vec<Arrival> {
    // Of all three, r30 and r85 get a fifth of the phase each and r60 the
    // rest but two pauses of 2.5 %.
    let weights = [4.0, 11.0, 4.0];
    let pause = 0.025 * seconds;
    let busy = seconds - pause * (steps.len() - 1) as f64;
    let weight_sum: f64 = steps.iter().map(|&s| weights[s]).sum();
    let mut rng = SplitMix64::new(env.profile.graph.seed ^ 0x6f70_656e);
    let mut arrivals = Vec::new();
    let mut step_start = 0.0;
    for &step in steps {
        let length = busy * weights[step] / weight_sum;
        for conn in 0..CONNECTIONS {
            let rate = env.profile.open_rates_qps[step] / CONNECTIONS as f64;
            let mut at = 0.0;
            loop {
                at += -(1.0 - rng.next_f64()).ln() / rate;
                if at >= length {
                    break;
                }
                arrivals.push(Arrival {
                    due: Duration::from_secs_f64(step_start + at),
                    conn,
                    step,
                    list_index: 0,
                });
            }
        }
        step_start += length + pause;
    }
    arrivals.sort_by_key(|a| a.due);
    for (n, a) in arrivals.iter_mut().enumerate() {
        a.list_index = n % requests;
    }
    arrivals
}

/// What the open loop measures beyond a `Load`.
#[derive(Default)]
struct OpenLoad {
    /// Latency from due time, per step.
    step_latency_us: [Vec<f64>; 3],
    /// How long after its due time each request was sent, per step.
    step_lateness_us: [Vec<f64>; 3],
}

/// Open loop: one sender thread follows the schedule over both connections
/// whatever the server does; one reader thread per connection times each
/// answer from the request's due time.
fn open_loop(
    front: SocketAddr,
    env: &Env,
    requests: &[String],
    seconds: f64,
    steps: &[usize],
    traced: bool,
    tracer: &mut Tracer,
) -> Result<(Load, OpenLoad), String> {
    let arrivals = schedule(env, requests.len(), seconds, steps);
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..CONNECTIONS {
        let conn = Conn::connect(front)?;
        writers.push(conn.stream.try_clone().map_err(|e| e.to_string())?);
        readers.push(conn);
    }
    let start = Instant::now();
    type Sent = (usize, usize, Duration); // (step, list index, due)
    let mut open = OpenLoad::default();
    let mut total = Load::default();
    let outcome: Result<(), String> = std::thread::scope(|scope| {
        let mut feeds = Vec::new();
        let mut handles = Vec::new();
        for mut conn in readers {
            let (tx, rx) = mpsc::channel::<Sent>();
            feeds.push(tx);
            handles.push(scope.spawn(move || {
                let mut load = Load {
                    tracer: traced.then(Tracer::new),
                    ..Load::default()
                };
                let mut by_step: [Vec<f64>; 3] = Default::default();
                // Answers come back in the order requests went out.
                let mut op = 0u32;
                while let Ok((step, i, due)) = rx.recv() {
                    let span = load
                        .tracer
                        .as_mut()
                        .map(|t| t.begin("client.await", NO_PARENT, op));
                    let line = conn
                        .receive()
                        .map_err(|e| format!("{}: {e}", requests[i].trim_end()))?;
                    let latency = start.elapsed().saturating_sub(due);
                    if let (Some(t), Some(id)) = (load.tracer.as_mut(), span) {
                        t.end(id);
                    }
                    book(&mut load, env, i, line, latency);
                    by_step[step].push(latency.as_nanos() as f64 / 1e3);
                    op += 1;
                }
                Ok::<_, String>((load, by_step))
            }));
        }
        let mut sent = Ok(());
        for a in &arrivals {
            let now = start.elapsed();
            if a.due > now {
                std::thread::sleep(a.due - now);
            }
            let lateness = start.elapsed().saturating_sub(a.due);
            open.step_lateness_us[a.step].push(lateness.as_nanos() as f64 / 1e3);
            // Announce before writing: the reader must know what answer it
            // is about to see.
            if feeds[a.conn].send((a.step, a.list_index, a.due)).is_err() {
                sent = Err("a reader thread stopped early".to_string());
                break;
            }
            if let Err(e) = writers[a.conn].write_all(requests[a.list_index].as_bytes()) {
                sent = Err(format!("send: {e}"));
                break;
            }
        }
        drop(feeds);
        for handle in handles {
            let (load, by_step) = handle
                .join()
                .unwrap_or_else(|_| Err("reader thread panicked".into()))?;
            total.absorb(load, tracer);
            for (all, own) in open.step_latency_us.iter_mut().zip(by_step) {
                all.extend(own);
            }
        }
        sent
    });
    outcome?;
    total.phase.elapsed_s = start.elapsed().as_secs_f64();
    Ok((total, open))
}

/// One shard request per backend and sample query, sent to the backends
/// directly: the lines the coordinator reads, and each backend's own `exec_us`.
fn shard_sample(tier: &Tier, env: &Env) -> Result<(Vec<String>, Vec<Vec<f64>>), String> {
    let n = tier.backends.len();
    let mut lines = Vec::new();
    let mut exec_us = vec![Vec::new(); n];
    for (shard, backend) in tier.backends.iter().enumerate() {
        let mut conn = Conn::connect(backend.addr)?;
        for text in &env.list.texts[..env.list.len().min(CAPTURED_LINES / 2)] {
            let framed = format!("QUERY mode=strict shard={shard}/{n} {text}\n");
            let line = conn
                .roundtrip(&framed)
                .map_err(|e| e.to_string())?
                .to_string();
            let value = parse_value(&line).map_err(|e| format!("shard answer: {e}"))?;
            let body = value
                .get("shard")
                .ok_or_else(|| format!("{} answered {line}", framed.trim_end()))?;
            exec_us[shard].push(num(body, "exec_us"));
            lines.push(line);
        }
    }
    Ok((lines, exec_us))
}

/// Run one served workload: `setups` rounds of set-up and `seconds` of load
/// each, and (traced) the layer metrics.
pub fn run(
    kind: ServedKind,
    env: &Env,
    seconds: f64,
    setups: usize,
    trace: bool,
    tracer: &mut Tracer,
    layer: &mut Metrics,
) -> Result<Vec<Round>, String> {
    let options = match kind {
        ServedKind::Open => format!("timeout-ms={}", env.profile.open_timeout_ms),
        _ => "mode=strict".to_string(),
    };
    let requests: Vec<String> = env
        .list
        .texts
        .iter()
        .map(|q| format!("QUERY {options} {q}\n"))
        .collect();

    rounds(
        setups,
        || set_up(kind, env, &requests, trace),
        |tier| measure(kind, tier, env, &requests, seconds, trace, tracer, layer),
        Tier::shut_down,
    )
}

#[allow(clippy::too_many_arguments)]
fn measure(
    kind: ServedKind,
    tier: &Tier,
    env: &Env,
    requests: &[String],
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    layer: &mut Metrics,
) -> Result<Phase, String> {
    // `Some` open-loop figures exactly when the workload is the open loop.
    let load_once = |seconds: f64, traced: bool, tracer: &mut Tracer| match kind {
        ServedKind::Open => {
            let steps = if trace { ALL_STEPS } else { R60_ONLY };
            open_loop(tier.front, env, requests, seconds, steps, traced, tracer)
                .map(|(load, open)| (load, Some(open)))
        }
        _ => {
            closed_loop(tier.front, env, requests, seconds, traced, tracer).map(|load| (load, None))
        }
    };
    let finish = |phase: Phase, open: &Option<OpenLoad>| match open {
        Some(open) => open.phase(phase),
        None => Ok(phase),
    };
    if !trace {
        let (load, open) = load_once(seconds, false, tracer)?;
        return finish(load.phase, &open);
    }

    // Traced: blocks with and without spans take turns between two STATS
    // readings, so that drift over the run falls on both alike; their
    // throughputs differ by the tracing overhead. The open loop's schedule
    // needs its three steps, so it gets two blocks, not eight.
    let front_before = stats(tier.front)?;
    let backends_before: Vec<Value> = tier
        .backends
        .iter()
        .map(|b| stats(b.addr))
        .collect::<Result<_, _>>()?;
    let blocks = if kind == ServedKind::Open { 2 } else { 8 };
    let (mut plain, mut load, mut open) = (Phase::default(), Load::default(), None);
    for block in 0..blocks {
        let traced = block % 2 == 1;
        let (next, next_open) = load_once(seconds / blocks as f64, traced, tracer)?;
        if traced {
            load.phase.then(next.phase);
            load.exec_us.extend(next.exec_us);
            load.captured.extend(next.captured);
            open = next_open;
        } else {
            plain.then(next.phase);
        }
    }
    load.captured.truncate(CAPTURED_LINES);
    let front_after = stats(tier.front)?;
    let backends_after: Vec<Value> = tier
        .backends
        .iter()
        .map(|b| stats(b.addr))
        .collect::<Result<_, _>>()?;
    layer.set(
        "bench.trace_overhead_share",
        1.0 - ratio(load.phase.qps(), plain.qps()),
    );

    let client_p50 = quantile(&load.phase.latencies_us, 0.50);
    let delta = |name: &str| -> f64 {
        backends_before
            .iter()
            .zip(&backends_after)
            .map(|(b, a)| num(a, name) - num(b, name))
            .sum()
    };
    let slowest = |name: &str| -> f64 {
        backends_after
            .iter()
            .map(|a| num(a, name))
            .fold(0.0, f64::max)
    };
    layer.set("server.queue_wait_us_p50", slowest("queue_wait.p50_us"));
    layer.set("server.queue_wait_us_p95", slowest("queue_wait.p95_us"));
    layer.set("server.rejected_busy", delta("rejected_busy"));
    layer.set("server.expired", delta("expired"));
    layer.set("server.degraded", delta("degraded"));
    layer.set("server.cost_rejected", delta("cost_rejected"));
    layer.set("server.connections", delta("connections"));

    let facts = &tier.facts;
    facts.index.report(layer);
    layers::parse_bind_replay(&env.graph.graph, env, layer);

    let (shard_lines, results): (Vec<String>, &[QueryResult]) = if kind == ServedKind::Coordinator {
        let (lines, exec_us) = shard_sample(tier, env)?;
        let slower_exec = exec_us.iter().map(|us| median(us)).fold(0.0, f64::max);
        layer.set("server.exec_us_p50", slower_exec);
        layer.set("coordinator.overhead_us_p50", client_p50 - slower_exec);
        let c = |name: &str| {
            num(&front_after, &format!("coordinator.{name}"))
                - num(&front_before, &format!("coordinator.{name}"))
        };
        let heartbeats: f64 = (0..tier.backends.len())
            .map(|i| heartbeats_of(&front_after, i) - heartbeats_of(&front_before, i))
            .sum();
        // Connections the backends accepted, less the coordinator's
        // heartbeats and this function's own closing STATS readings, per
        // answer.
        let own = tier.backends.len() as f64;
        layer.set(
            "coordinator.backend_connections_per_query",
            ratio(delta("connections") - heartbeats - own, c("completed")),
        );
        layer.set("coordinator.failovers", c("failovers"));
        layer.set("coordinator.hedges", c("hedges"));
        layer.set("coordinator.breaker_fastfails", c("breaker_fastfails"));
        layer.set("coordinator.busy_storms", c("busy_storms"));
        layer.set("coordinator.degraded", c("degraded"));
        layer.set("snapshot.encode_s", facts.snapshot_encode_s);
        layer.set("snapshot.bytes", facts.snapshot_bytes);
        layer.set("snapshot.load_ms", facts.snapshot_load_ms);
        (lines, &[])
    } else {
        let exec_p50 = median(&load.exec_us);
        layer.set("server.exec_us_p50", exec_p50);
        layer.set("server.overhead_us_p50", client_p50 - exec_p50);
        let (results, lib_p50) = facts
            .in_process
            .as_ref()
            .expect("traced set-up ran in process");
        if kind == ServedKind::Closed {
            layer.set("serve.overhead_vs_lib_us_p50", client_p50 - lib_p50);
        }
        (Vec::new(), results)
    };
    layers::protocol_replays(
        &requests[..requests.len().min(CAPTURED_LINES)],
        results,
        &load.captured,
        &shard_lines,
        layer,
    );
    if let Some(open) = &open {
        open.report(env, layer);
    }
    finish(load.phase, &open)
}

fn heartbeats_of(front: &Value, backend: usize) -> f64 {
    front
        .get("coordinator")
        .and_then(|c| c.get("backends"))
        .and_then(Value::as_array)
        .and_then(|b| b.get(backend))
        .map_or(0.0, |b| num(b, "heartbeats"))
}

impl OpenLoad {
    /// Share of the `r60` requests sent more than [`LATE`] after they were due.
    fn r60_late_share(&self) -> f64 {
        let us = &self.step_lateness_us[1];
        let late = us.iter().filter(|&&l| l > LATE.as_micros() as f64).count();
        ratio(late as f64, us.len() as f64)
    }

    /// The open loop's phase as the end-to-end metrics read it: the counts
    /// of the whole run, the latencies of the `r60` step only. A run whose
    /// generator was late too often is not a measurement and fails.
    fn phase(&self, whole: Phase) -> Result<Phase, String> {
        let late = self.r60_late_share();
        if late > 0.05 {
            return Err(format!(
                "the open-loop generator sent {:.1} % of the r60 requests more than {LATE:?} late; \
                 the machine is too busy for this run to count",
                100.0 * late
            ));
        }
        Ok(Phase {
            latencies_us: self.step_latency_us[1].clone(),
            ..whole
        })
    }

    /// The other steps and the generator's lateness: the `client` layer.
    fn report(&self, env: &Env, layer: &mut Metrics) {
        let p95 = |step: usize| quantile(&self.step_latency_us[step], 0.95);
        layer.set("client.late_share", self.r60_late_share());
        layer.set(
            "client.max_lateness_us",
            self.step_lateness_us
                .iter()
                .flatten()
                .copied()
                .fold(0.0, f64::max),
        );
        layer.set("client.open.p95_us.r30", p95(0));
        layer.set("client.open.p95_us.r85", p95(2));
        let in_limit = (0..3)
            .filter(|&s| p95(s) <= env.profile.open_latency_limit_us)
            .map(|s| env.profile.open_rates_qps[s])
            .fold(0.0, f64::max);
        layer.set("client.open.max_rate_in_limit_qps", in_limit);
    }
}

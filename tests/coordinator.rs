//! Integration tests for the scatter-gather coordinator (DESIGN.md §13):
//! the three acceptance properties of scale-out serving.
//!
//! 1. A coordinator fronting N backends answers every query byte-identically
//!    to a single-box `serve` (only `exec_us` differs), across measures and
//!    the paper's Q1/Q2/Q3 workload templates.
//! 2. A seeded chaos plan killing one backend's workers mid-workload never
//!    surfaces to the client: retry/failover re-routes the shard and the
//!    results stay byte-identical, within the deadline.
//! 3. When every replica of a shard is down, the coordinator returns a
//!    degraded partial result naming the missing shard (strict mode: a
//!    structured `NoBackends` error), and never hangs or panics.

use hin_datagen::dblp::{generate, SyntheticConfig};
use hin_datagen::workload::{all_template_queries, generate_queries, QueryTemplate};
use hin_service::{Client, Coordinator, CoordinatorConfig, Server, ServerConfig, StatsSnapshot};
use netout::{MeasureKind, OutlierDetector};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Build the deterministic tiny DBLP network; every call with the same seed
/// yields an identical graph, so backends and the single-box control all
/// serve the same data.
fn detector(seed: u64, measure: MeasureKind) -> OutlierDetector {
    let net = generate(&SyntheticConfig::tiny(seed));
    OutlierDetector::new(net.graph)
        .with_vector_cache(1024)
        .measure(measure)
}

fn spawn_backend(
    detector: OutlierDetector,
    config: ServerConfig,
) -> (SocketAddr, std::thread::JoinHandle<StatsSnapshot>) {
    let server = Server::bind(detector, "127.0.0.1:0", config).expect("bind backend");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        heartbeat_interval: Duration::from_millis(100),
        connect_timeout: Duration::from_millis(300),
        default_deadline: Duration::from_secs(10),
        ..CoordinatorConfig::default()
    }
}

fn spawn_coordinator(
    backends: Vec<SocketAddr>,
    config: CoordinatorConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<hin_service::CoordSnapshot>,
) {
    let coordinator = Coordinator::bind(backends, "127.0.0.1:0", config).expect("bind coordinator");
    let addr = coordinator.local_addr();
    (addr, std::thread::spawn(move || coordinator.run()))
}

fn shutdown(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let bye = client.send_line("SHUTDOWN").expect("shutdown");
    assert!(bye.starts_with(r#"{"bye""#), "{bye}");
}

/// Replace the run-dependent `exec_us` value so responses can be compared
/// byte-for-byte.
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

/// The workload: a few instances of each paper template. All three
/// templates are single-feature queries, where the shard merge is exactly
/// the single-box score list (multi-feature best-effort runs may differ in
/// summation order and are rejected by strict shard execution).
fn workload_queries(seed: u64) -> Vec<String> {
    let net = generate(&SyntheticConfig::tiny(seed));
    QueryTemplate::ALL
        .iter()
        .flat_map(|&t| generate_queries(&net.graph, t, 2, 77))
        .collect()
}

#[test]
fn coordinator_matches_single_box_across_measures_and_templates() {
    let seed = 41;
    let queries = workload_queries(seed);
    assert_eq!(queries.len(), 6, "two instances of each template");
    for measure in [
        MeasureKind::NetOut,
        MeasureKind::PathSim,
        MeasureKind::CosSim,
        MeasureKind::Lof { k: 3 },
        MeasureKind::KnnDist { k: 3 },
    ] {
        let config = ServerConfig {
            workers: 2,
            queue_cap: 16,
            ..ServerConfig::default()
        };
        let (single, single_h) = spawn_backend(detector(seed, measure), config.clone());
        let (b0, b0_h) = spawn_backend(detector(seed, measure), config.clone());
        let (b1, b1_h) = spawn_backend(detector(seed, measure), config.clone());
        let (b2, b2_h) = spawn_backend(detector(seed, measure), config);
        let (coord, coord_h) = spawn_coordinator(vec![b0, b1, b2], coordinator_config());

        let mut direct = Client::connect(single).expect("connect single box");
        let mut merged = Client::connect(coord).expect("connect coordinator");
        for query in &queries {
            let line = format!("QUERY {query}");
            let want = direct.send_line(&line).expect("single-box response");
            let got = merged.send_line(&line).expect("coordinator response");
            assert!(
                want.starts_with(r#"{"result""#),
                "fixture query must succeed: {want}"
            );
            assert_eq!(
                strip_exec_us(&got),
                strip_exec_us(&want),
                "measure {measure:?}, query {query:?}"
            );
        }
        drop(direct);
        drop(merged);
        shutdown(coord);
        coord_h.join().expect("coordinator");
        for (addr, handle) in [(single, single_h), (b0, b0_h), (b1, b1_h), (b2, b2_h)] {
            shutdown(addr);
            handle.join().expect("backend");
        }
    }
}

#[test]
fn killed_backend_fails_over_without_client_visible_errors() {
    let seed = 43;
    let queries = workload_queries(seed);
    let config = ServerConfig {
        workers: 2,
        queue_cap: 16,
        ..ServerConfig::default()
    };
    let (b0, b0_h) = spawn_backend(detector(seed, MeasureKind::NetOut), config.clone());
    let (b1, b1_h) = spawn_backend(detector(seed, MeasureKind::NetOut), config);
    let (coord, coord_h) = spawn_coordinator(vec![b0, b1], coordinator_config());

    // Collect the expected answers before the chaos plan lands (backend 0
    // doubles as the single-box control; it serves the whole graph).
    let mut control = Client::connect(b0).expect("connect control");
    let expected: Vec<String> = queries
        .iter()
        .map(|q| {
            control
                .send_line(&format!("QUERY {q}"))
                .expect("control response")
        })
        .collect();
    drop(control);

    // Install a seeded kill plan on backend 1 *through the coordinator*:
    // the first six requests it executes each take down a worker mid-query
    // (the supervisor respawns them). The coordinator must fail the shard
    // over to backend 0 every time.
    let mut ops = Client::connect(coord).expect("connect ops");
    let faults = ops
        .send_line("FAULTS 1 seed=9;kill@0;kill@1;kill@2;kill@3;kill@4;kill@5")
        .expect("install fault plan");
    assert!(faults.starts_with(r#"{"faults""#), "{faults}");

    let started = Instant::now();
    let mut client = Client::connect(coord).expect("connect workload");
    for (query, want) in queries.iter().zip(&expected) {
        let got = client
            .send_line(&format!("QUERY {query}"))
            .expect("workload response");
        assert!(
            got.starts_with(r#"{"result""#),
            "client saw a non-result during failover: {got}"
        );
        assert!(
            !got.contains(r#""degraded""#) || got.contains(r#""degraded":null"#),
            "failover must recover the shard, not degrade: {got}"
        );
        assert_eq!(strip_exec_us(&got), strip_exec_us(want), "query {query:?}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "failover workload took {:?}",
        started.elapsed()
    );
    drop(client);

    // The coordinator observed the faults as failovers, not client errors.
    let metrics = ops.send_line("METRICS JSON").expect("metrics");
    assert!(metrics.contains(r#""failovers":"#), "{metrics}");
    drop(ops);

    shutdown(coord);
    let snapshot = coord_h.join().expect("coordinator");
    assert!(
        snapshot.failovers >= 1,
        "kill plan never triggered a failover: {snapshot:?}"
    );
    assert_eq!(snapshot.no_backends, 0, "{snapshot:?}");
    shutdown(b0);
    shutdown(b1);
    b0_h.join().expect("backend 0");
    b1_h.join().expect("backend 1");
}

/// PR 5's invariant extended across processes (DESIGN.md §17): `trace=1`
/// must never perturb the merged answer — not under aggressive hedging
/// (traced winners racing cancelled losers), not across failover (failed
/// attempts become annotated spans, not result changes) — and the
/// assembled tree must stitch coordinator and backend spans together.
#[test]
fn tracing_is_invisible_across_failover_and_hedging() {
    let seed = 53;
    let queries = workload_queries(seed);
    let config = ServerConfig {
        workers: 2,
        queue_cap: 16,
        ..ServerConfig::default()
    };
    let (b0, b0_h) = spawn_backend(detector(seed, MeasureKind::NetOut), config.clone());
    let (b1, b1_h) = spawn_backend(detector(seed, MeasureKind::NetOut), config);
    // Hedge almost immediately: every shard dials its second replica while
    // the first is still working, so traced span payloads ride both the
    // winning and the cancelled attempt.
    let (coord, coord_h) = spawn_coordinator(
        vec![b0, b1],
        CoordinatorConfig {
            hedge_after: Duration::from_millis(1),
            ..coordinator_config()
        },
    );

    // Untraced control answers from the same coordinator.
    let mut client = Client::connect(coord).expect("connect");
    let expected: Vec<String> = queries
        .iter()
        .map(|q| {
            let line = client
                .send_line(&format!("QUERY {q}"))
                .expect("control response");
            assert!(line.starts_with(r#"{"result""#), "{line}");
            line
        })
        .collect();

    // A seeded kill plan on backend 1 forces failovers mid-workload.
    let faults = client
        .send_line("FAULTS 1 seed=5;kill@0;kill@2")
        .expect("install fault plan");
    assert!(faults.starts_with(r#"{"faults""#), "{faults}");

    for (query, want) in queries.iter().zip(&expected) {
        let got = client
            .send_line(&format!("QUERY trace=1 {query}"))
            .expect("traced response");
        assert!(
            !got.contains("\"trace\""),
            "tracing leaked into a client-visible result: {got}"
        );
        assert_eq!(
            strip_exec_us(&got),
            strip_exec_us(want),
            "trace=1 perturbed the bytes of query {query:?}"
        );
    }
    drop(client);

    // Every traced query force-logged into the coordinator's ring; the
    // assembled tree must hold spans from both sides of the wire —
    // coordinator scatter/merge plus grafted backend engine phases.
    let trace = hin_service::fetch_latest_trace(coord)
        .expect("fetch trace")
        .expect("ring has entries");
    let rendered = hin_telemetry::trace::render_tree(&trace.spans);
    for span in ["carve", "scatter", "merge", "attempt", "query_shard"] {
        assert!(rendered.contains(span), "missing {span} in:\n{rendered}");
    }

    shutdown(coord);
    let snapshot = coord_h.join().expect("coordinator");
    assert!(
        snapshot.failovers + snapshot.hedges >= 1,
        "the kill plan and 1ms hedge trigger must have exercised extra attempts: {snapshot:?}"
    );
    shutdown(b0);
    shutdown(b1);
    b0_h.join().expect("backend 0");
    b1_h.join().expect("backend 1");
}

/// Connection reuse must never hand one query another query's answer
/// (DESIGN.md §13): the connection of an attempt that lost a hedge race
/// still has a response coming, so it is closed, not pooled.
#[test]
fn hedge_loser_connection_is_closed_and_answers_never_cross() {
    let seed = 59;
    let config = ServerConfig {
        workers: 2,
        queue_cap: 16,
        ..ServerConfig::default()
    };
    let (b0, b0_h) = spawn_backend(detector(seed, MeasureKind::NetOut), config.clone());
    let (b1, b1_h) = spawn_backend(detector(seed, MeasureKind::NetOut), config);
    let (coord, coord_h) = spawn_coordinator(
        vec![b0, b1],
        CoordinatorConfig {
            hedge_after: Duration::from_millis(20),
            ..coordinator_config()
        },
    );

    // One Q1 instance per active author, keeping 21 whose single-box
    // answers all differ: a swapped answer cannot pass for the right one.
    let net = generate(&SyntheticConfig::tiny(seed));
    let mut control = Client::connect(b1).expect("connect control");
    let mut workload: Vec<(String, String)> = Vec::new();
    for query in all_template_queries(&net.graph, QueryTemplate::Q1) {
        let want = control
            .send_line(&format!("QUERY {query}"))
            .expect("control response");
        if want.starts_with(r#"{"result""#)
            && workload
                .iter()
                .all(|(_, seen)| strip_exec_us(seen) != strip_exec_us(&want))
        {
            workload.push((query, want));
        }
        if workload.len() == 21 {
            break;
        }
    }
    assert_eq!(workload.len(), 21, "fixture has too few distinct answers");

    // Backend 0 stalls the next request it executes for far longer than the
    // hedge mark: shard 0's first attempt loses the race to its hedge on
    // backend 1 and is cancelled while its response is still to come.
    let mut client = Client::connect(coord).expect("connect");
    let faults = client
        .send_line("FAULTS 0 delay@0:2000")
        .expect("install fault plan");
    assert!(faults.starts_with(r#"{"faults""#), "{faults}");
    for (query, want) in &workload {
        let got = client
            .send_line(&format!("QUERY {query}"))
            .expect("response");
        assert_eq!(strip_exec_us(&got), strip_exec_us(want), "query {query:?}");
    }

    // The backend saw the loser's connection close: it cancelled the
    // stalled request instead of answering into a pooled connection.
    let mut probe = Client::connect(b0).expect("connect backend 0");
    let waited = Instant::now();
    loop {
        let stats = probe.send_line("STATS").expect("backend 0 stats");
        if hin_service::client::json_u64_field(&stats, "cancelled") == Some(1) {
            break;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "backend 0 never saw the hedge loser disconnect: {stats}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop((client, control, probe));

    shutdown(coord);
    let snapshot = coord_h.join().expect("coordinator");
    assert_eq!(snapshot.hedges, 1, "{snapshot:?}");
    assert_eq!(snapshot.failovers, 0, "{snapshot:?}");
    shutdown(b0);
    shutdown(b1);
    b0_h.join().expect("backend 0");
    b1_h.join().expect("backend 1");
}

#[test]
fn unrecoverable_shard_degrades_and_total_outage_errors() {
    let seed = 47;
    let query = workload_queries(seed).remove(0);
    let (b0, b0_h) = spawn_backend(
        detector(seed, MeasureKind::NetOut),
        ServerConfig {
            workers: 2,
            queue_cap: 16,
            ..ServerConfig::default()
        },
    );
    // Two dead replicas: shard 1 of 3 maps to {backend 1, backend 2}, both
    // unreachable, so it cannot be recovered; shards 0 and 2 reach the live
    // backend 0.
    let dead1: SocketAddr = "127.0.0.1:1".parse().expect("addr");
    let dead2: SocketAddr = "127.0.0.1:2".parse().expect("addr");
    let (coord, coord_h) = spawn_coordinator(
        vec![b0, dead1, dead2],
        CoordinatorConfig {
            attempts: 2,
            down_after: 1,
            ..coordinator_config()
        },
    );
    let started = Instant::now();
    let mut client = Client::connect(coord).expect("connect");
    let partial = client
        .send_line(&format!("QUERY timeout-ms=5000 {query}"))
        .expect("degraded response");
    assert!(partial.starts_with(r#"{"result""#), "{partial}");
    assert!(partial.contains(r#""degraded":{"#), "{partial}");
    assert!(
        partial.contains("shard 1/3"),
        "degraded marker must name the missing shard: {partial}"
    );
    let strict = client
        .send_line(&format!("QUERY timeout-ms=5000 mode=strict {query}"))
        .expect("strict response");
    assert!(
        strict.contains(r#""code":"NoBackends""#),
        "strict mode must refuse partial results: {strict}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "degraded path must respect the deadline, took {:?}",
        started.elapsed()
    );
    drop(client);
    shutdown(coord);
    let snapshot = coord_h.join().expect("coordinator");
    assert!(snapshot.degraded >= 1, "{snapshot:?}");

    // Total outage: every backend down. The request fails fast with a
    // structured NoBackends error; inline verbs still answer.
    let (coord2, coord2_h) = spawn_coordinator(
        vec![dead1, dead2],
        CoordinatorConfig {
            attempts: 1,
            down_after: 1,
            ..coordinator_config()
        },
    );
    let mut client = Client::connect(coord2).expect("connect");
    let pong = client.send_line("PING").expect("ping");
    assert!(pong.starts_with(r#"{"pong""#), "{pong}");
    let outage_started = Instant::now();
    let refused = client
        .send_line(&format!("QUERY timeout-ms=3000 {query}"))
        .expect("outage response");
    assert!(
        refused.contains(r#""code":"NoBackends""#),
        "total outage must be a structured error: {refused}"
    );
    assert!(
        outage_started.elapsed() < Duration::from_secs(10),
        "outage answer took {:?}",
        outage_started.elapsed()
    );
    drop(client);
    shutdown(coord2);
    let snapshot2 = coord2_h.join().expect("coordinator 2");
    assert!(snapshot2.no_backends >= 1, "{snapshot2:?}");

    shutdown(b0);
    b0_h.join().expect("backend");
}

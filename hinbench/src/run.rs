//! One run of one workload: inputs from the seed, set-up, measured phase,
//! answer check, metrics.

use crate::data::{build_graph, uniform_list, zipf_universe, Graph, QueryList};
use crate::layers;
use crate::libload::{self, LibKind};
use crate::metrics::{hash_value, Metrics, END_TO_END, PER_LAYER};
use crate::oracle::{check_sample, expected_answers, fingerprint, Answer};
use crate::profile::Profile;
use crate::served::{self, ServedKind};
use crate::trace::Tracer;
use crate::util::{mean, median, peak_rss_mb, quantile, Fnv64};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LibBaselineUniform,
    LibPmUniform,
    LibCachedZipf,
    ServePmClosed,
    ServePmOpen,
    CoordPmClosed,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::LibBaselineUniform,
        Workload::LibPmUniform,
        Workload::LibCachedZipf,
        Workload::ServePmClosed,
        Workload::ServePmOpen,
        Workload::CoordPmClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LibBaselineUniform => "lib_baseline_uniform",
            Workload::LibPmUniform => "lib_pm_uniform",
            Workload::LibCachedZipf => "lib_cached_zipf",
            Workload::ServePmClosed => "serve_pm_closed",
            Workload::ServePmOpen => "serve_pm_open",
            Workload::CoordPmClosed => "coord_pm_closed",
        }
    }

    /// Why the workload exists: the layer that does most of the work, and the
    /// layers that do little.
    pub fn why(self) -> &'static str {
        match self {
            Workload::LibBaselineUniform => "the paper's Baseline: in-process, no index, no caches, distinct uniform queries; time is hin-graph traversal and set retrieval, so kernel changes show here",
            Workload::LibPmUniform => "the paper's PM: same queries over a full index of the template chunks; time is index row fetch, NetOut scoring and top-k, traversal does almost nothing",
            Workload::LibCachedZipf => "baseline under the sub-path and vector caches on a Zipf stream larger than both: mostly cache hits with admission and eviction on the tail; the uniform workloads bypass the caches",
            Workload::ServePmClosed => "PM engine behind the TCP server, 2 closed-loop connections, 1 worker: same engine work as lib_pm_uniform, so the difference is line parse, admission, queue, hand-off, JSON encode",
            Workload::ServePmOpen => "same server, open loop with seeded Poisson arrivals at three frozen rates and live deadlines: idle gaps, queueing and wake-ups that a saturated closed loop hides",
            Workload::CoordPmClosed => "coordinator in front of 2 backends loaded from one snapshot file: carve, scatter (a connection and a thread per shard), shard-body parse, merge; slowest-shard effects show only here",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn zipf(self) -> bool {
        self == Workload::LibCachedZipf
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Latencies and counts of one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

impl Phase {
    pub fn record(&mut self, latency: Duration, ok: bool) {
        self.latencies_us.push(latency.as_nanos() as f64 / 1e3);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Merge a phase that ran at the same time (another generator thread's).
    pub fn absorb(&mut self, other: Phase) {
        self.latencies_us.extend(other.latencies_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Append a phase that ran after this one.
    pub fn then(&mut self, next: Phase) {
        let elapsed = self.elapsed_s + next.elapsed_s;
        self.absorb(next);
        self.elapsed_s = elapsed;
    }

    /// Verified-correct operations per second of measured phase.
    pub fn qps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s
    }
}

/// Everything a run needs that does not depend on the program under test.
pub struct Env {
    pub profile: Profile,
    pub seed: u64,
    pub graph: Graph,
    pub list: QueryList,
    pub answers: Vec<Answer>,
    /// Per list entry, the `result` line a server must answer with, up to the
    /// digits of `exec_us`.
    wire_prefixes: Vec<String>,
    pub oracle_checked: usize,
    /// Per list entry: 0 not yet answered, 1 answered as expected, 2 answered
    /// otherwise (sticky).
    seen: Vec<AtomicU8>,
}

impl Env {
    /// Generate the inputs and compute every expected answer. Not part of
    /// `setup_s`: none of it is work the program under test does.
    pub fn prepare(profile: &Profile, workload: Workload, seed: u64) -> Result<Env, String> {
        let graph = build_graph(profile)?;
        let list = if workload.zipf() {
            zipf_universe(profile, &graph.graph, seed)
        } else {
            uniform_list(profile, &graph.graph, seed)
        };
        let answers = expected_answers(&graph.graph, &list, 2)?;
        let oracle_checked = check_sample(&graph.graph, &list, &answers, profile.oracle_sample)?;
        let seen = (0..list.len()).map(|_| AtomicU8::new(0)).collect();
        reset_peak_rss();
        let wire_prefixes = answers.iter().map(Answer::wire_prefix).collect();
        Ok(Env {
            wire_prefixes,
            profile: profile.clone(),
            seed,
            graph,
            list,
            answers,
            oracle_checked,
            seen,
        })
    }

    pub fn wire_prefix(&self, i: usize) -> &str {
        &self.wire_prefixes[i]
    }

    /// Note how list entry `i` was answered.
    pub fn observe(&self, i: usize, ok: bool) {
        let slot = &self.seen[self.list.distinct[i]];
        if !ok {
            slot.store(2, Ordering::Relaxed);
        } else if slot.load(Ordering::Relaxed) == 0 {
            slot.store(1, Ordering::Relaxed);
        }
    }

    /// The fingerprint of the expected answers, changed by every distinct
    /// query that was answered otherwise. Runs that answered everything as
    /// expected print the same value whatever their operation counts.
    pub fn result_fingerprint(&self) -> u64 {
        let mut h = Fnv64(fingerprint(&self.list, &self.answers));
        for (i, slot) in self.seen.iter().enumerate() {
            if slot.load(Ordering::Relaxed) == 2 {
                h.u64(i as u64);
            }
        }
        h.0
    }

    /// A directory of this run's own under [`scratch_root`], for the
    /// snapshot file; whoever asks for it removes it.
    pub fn scratch_dir(&self) -> std::io::Result<PathBuf> {
        let dir = scratch_root().join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// Start `VmHWM` over, so that `peak_rss_mb` is the peak of the set-up and
/// not of the oracle's transient work, which differs from seed to seed.
/// Where the kernel does not allow it the metric keeps the whole process's
/// peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Where runs leave files: inside the benchmark's own directory, which is
/// inside the checkout the benchmark was built in.
fn scratch_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}

pub struct Outcome {
    pub workload: Workload,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The line the driver reads.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// One round of a run: a set-up of its own and the share of the measured
/// phase that ran on it.
#[derive(Debug, Clone)]
pub struct Round {
    /// Graph in memory → ready for the first measured operation.
    pub setup_s: f64,
    /// Peak resident memory of the process since the oracle finished, read
    /// when the set-up stood ready.
    pub ready_rss_mb: f64,
    pub phase: Phase,
}

/// Set up, measure and discard `count` times over. Memory holds one set-up
/// at a time.
///
/// Why the measured phase is split over the set-ups and not run on the last
/// one alone: where a set-up's memory lands and how its threads settle on
/// the two cores moves a whole phase by a few percent; the median over
/// several set-ups does not carry one placement's luck.
pub fn rounds<T>(
    count: usize,
    mut build: impl FnMut() -> Result<T, String>,
    mut measure: impl FnMut(&mut T) -> Result<Phase, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<Vec<Round>, String> {
    let mut done = Vec::new();
    for _ in 0..count.max(1) {
        let t = Instant::now();
        let mut built = build()?;
        let setup_s = t.elapsed().as_secs_f64();
        let ready_rss_mb = peak_rss_mb();
        let measured = measure(&mut built);
        let discarded = discard(built);
        let phase = measured?;
        discarded?;
        done.push(Round {
            setup_s,
            ready_rss_mb,
            phase,
        });
    }
    Ok(done)
}

/// Every timing is the median over the run's rounds. Memory is the first
/// round's: what a fresh process needs to stand ready. Later rounds also
/// hold whatever the allocator kept of the earlier ones, which came out
/// anywhere between 3 and 15 MiB.
fn end_to_end(rounds: &[Round]) -> Metrics {
    let over =
        |value: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(value).collect::<Vec<_>>());
    let mut m = Metrics::new(END_TO_END);
    m.set("qps", over(&|r| r.phase.qps()));
    m.set(
        "latency_p50_us",
        over(&|r| quantile(&r.phase.latencies_us, 0.50)),
    );
    m.set(
        "latency_p95_us",
        over(&|r| quantile(&r.phase.latencies_us, 0.95)),
    );
    m.set("setup_s", over(&|r| r.setup_s));
    m.set("peak_rss_mb", rounds[0].ready_rss_mb);
    m
}

/// Run one workload once.
pub fn run(profile: &Profile, args: &RunArgs) -> Result<Outcome, String> {
    let env = Env::prepare(profile, args.workload, args.seed)?;
    let mut layer = Metrics::new(PER_LAYER);
    let mut tracer = Tracer::new();

    let lib_kind = match args.workload {
        Workload::LibBaselineUniform => Some(LibKind::Baseline),
        Workload::LibPmUniform => Some(LibKind::Pm),
        Workload::LibCachedZipf => Some(LibKind::Cached),
        _ => None,
    };
    // A traced run is one round: its spans and counters describe one set-up.
    let count = if args.trace { 1 } else { env.profile.rounds };
    let seconds = args.seconds / count as f64;
    let rounds = if let Some(kind) = lib_kind {
        rounds(
            count,
            || libload::setup(kind, &env),
            |setup| {
                if !args.trace {
                    return Ok(libload::measure(setup, &env, seconds));
                }
                let phase =
                    libload::measure_traced(kind, setup, &env, seconds, &mut tracer, &mut layer)?;
                layers::lib_replays(kind, setup, &env, &mut layer)?;
                Ok(phase)
            },
            |setup| {
                drop(setup);
                Ok(())
            },
        )?
    } else {
        let kind = match args.workload {
            Workload::ServePmClosed => ServedKind::Closed,
            Workload::ServePmOpen => ServedKind::Open,
            _ => ServedKind::Coordinator,
        };
        served::run(
            kind,
            &env,
            seconds,
            count,
            args.trace,
            &mut tracer,
            &mut layer,
        )?
    };
    let mut phase = Phase::default();
    for round in &rounds {
        phase.then(round.phase.clone());
    }

    let metrics = if args.trace {
        layer.set("datagen.generate_s", env.graph.generate_s);
        layer.set("datagen.vertices", env.graph.graph.vertex_count() as f64);
        layer.set("datagen.edges", env.graph.graph.edge_count() as f64);
        layer.set("datagen.graph_hash", hash_value(env.graph.hash));
        layer.set("client.latency_p99_us", quantile(&phase.latencies_us, 0.99));
        layer.set("client.latency_mean_us", mean(&phase.latencies_us));
        layer.set("client.samples", phase.latencies_us.len() as f64);
        layer.set("client.peak_rss_end_mb", peak_rss_mb());
        layer.set(
            "check.failed_share",
            phase.failed as f64 / phase.attempted as f64,
        );
        layer.set("check.oracle_queries", env.oracle_checked as f64);
        layer.set(
            "check.result_fingerprint",
            hash_value(env.result_fingerprint()),
        );
        // One log per workload, replaced by the next traced run of it.
        let path = scratch_root().join(format!("spans-{}.jsonl", args.workload.name()));
        match std::fs::create_dir_all(scratch_root())
            .and_then(|()| tracer.write_jsonl(&path).map(|()| path))
        {
            Ok(p) => eprintln!(
                "hinbench: {} spans written to {}",
                tracer.spans().len(),
                p.display()
            ),
            Err(e) => return Err(format!("writing the span log: {e}")),
        }
        layer
    } else {
        end_to_end(&rounds)
    };
    Ok(Outcome {
        workload: args.workload,
        trace: args.trace,
        correct: phase.failed == 0 && phase.attempted > 0,
        attempted: phase.attempted,
        failed: phase.failed,
        fingerprint: env.result_fingerprint(),
        metrics,
    })
}

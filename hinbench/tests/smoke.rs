//! All six workloads, traced and untraced, on `SyntheticConfig::tiny` with a
//! few dozen operations: guards the benchmark's code, not its numbers.

use hin_service::json::{parse_value, Value};
use hinbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use hinbench::profile::Profile;
use hinbench::run::{run, RunArgs, Workload};

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn threads_of_this_process() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

#[test]
fn every_workload_reports_every_metric_and_answers_correctly() {
    let profile = Profile::tiny();
    let threads_before = threads_of_this_process();
    let mut uniform_fingerprints = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(
                &profile,
                &RunArgs {
                    workload,
                    seed: 11,
                    seconds: 0.3,
                    trace,
                },
            )
            .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name()));
            assert!(outcome.correct, "{} trace {trace}", workload.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            if workload != Workload::LibCachedZipf {
                uniform_fingerprints.push(outcome.fingerprint);
            }

            // The result line parses, and names every metric of the run's
            // kind with a finite value and a unit.
            let line = parse_value(&outcome.to_json()).expect("result line is JSON");
            let defs: &[MetricDef] = if trace { PER_LAYER } else { END_TO_END };
            let metrics = line.get("metrics").expect("metrics");
            let Value::Obj(fields) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(fields.len(), defs.len());
            for def in defs {
                let m = metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", workload.name(), def.name));
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{} {}", workload.name(), def.name);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
                assert!(trace || value > 0.0, "end-to-end {} is zero", def.name);
            }
            if trace {
                assert_eq!(outcome.metrics.get("check.failed_share"), 0.0);
                let ratio = outcome.metrics.get("executor.layer_sum_ratio");
                let in_process = matches!(
                    workload,
                    Workload::LibBaselineUniform | Workload::LibPmUniform | Workload::LibCachedZipf
                );
                assert_eq!(in_process, ratio > 0.0, "layer sum on {}", workload.name());
            }
        }
    }
    assert!(
        uniform_fingerprints.windows(2).all(|w| w[0] == w[1]),
        "uniform workloads disagree: {uniform_fingerprints:x?}"
    );
    // Every embedded server and coordinator was shut down and joined. (The
    // count taken first may include sibling tests still running, so it is
    // an upper bound.)
    assert!(
        threads_of_this_process() <= threads_before,
        "leaked threads"
    );
}

#[test]
fn vocabulary_is_well_formed_and_matches_the_manifest() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(def.name), "{}", def.name);
        assert!(!def.unit.is_empty() && def.unit.len() <= 16, "{}", def.name);
    }
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));

    // BENCHMARK.json, when the checkout has it, lists exactly this
    // vocabulary: names in order, units, directions, bounds and reasons.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let manifest = parse_value(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|e| {
                let Value::Obj(fields) = e else {
                    panic!("an entry of {key} is not an object")
                };
                fields
                    .iter()
                    .map(|(k, v)| match v {
                        Value::Str(s) => format!("{k}={s}"),
                        other => format!("{k}={}", other.as_f64().expect("string or number")),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    let of = |defs: &[MetricDef], bounded: bool| -> Vec<String> {
        defs.iter()
            .map(|d| {
                let better = match d.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                let bound = if bounded {
                    format!(" bound={}", d.bound)
                } else {
                    String::new()
                };
                format!("name={} unit={} better={better}{bound}", d.name, d.unit)
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), of(END_TO_END, true));
    assert_eq!(listed("per_layer"), of(PER_LAYER, false));
    assert_eq!(
        listed("workloads"),
        Workload::ALL
            .iter()
            .map(|w| format!("name={} why={}", w.name(), w.why()))
            .collect::<Vec<_>>()
    );
}

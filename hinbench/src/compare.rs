//! `hinbench compare A.json B.json`: per workload and metric, both medians,
//! the relative change, and the benchmark's bound. Inputs are the files
//! `hinbench all --out` writes; with `--repeat` they hold several rounds, and
//! the spread inside each input is judged too.
//!
//! B passes only if it is a complete, correct set of runs: every workload
//! and metric A has, every run `correct`, no larger share of failed
//! operations than A, and no end-to-end median worse than A's by more than
//! its bound.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::run::Workload;
use crate::util::median;
use hin_service::json::{parse_value, Value};
use std::fmt::Write as _;
use std::process::ExitCode;

/// First and third quartile the way Python's `statistics.quantiles(v, n=4)`
/// computes them (the rule the benchmark's acceptance uses); `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse than the parent's median by more than the bound.
    Regressed,
    /// The runs of one input disagree among themselves by more than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let noisy = |v: &[f64]| spread(v).is_some_and(|s| s > def.bound);
    if worsening(def, median(a), median(b)) > def.bound {
        Verdict::Regressed
    } else if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// The result lines of one workload in one file, traced or untraced.
struct Runs<'a> {
    results: Vec<&'a Value>,
}

impl<'a> Runs<'a> {
    fn of(file: &'a Value, workload: &str, trace: bool) -> Runs<'a> {
        let results = file
            .get("runs")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter(|run| {
                run.get("workload").and_then(Value::as_str) == Some(workload)
                    && run.get("trace").and_then(Value::as_bool) == Some(trace)
            })
            .filter_map(|run| run.get("result"))
            .collect();
        Runs { results }
    }

    /// Runs that do not say `"correct": true`.
    fn incorrect(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.get("correct").and_then(Value::as_bool) != Some(true))
            .count()
    }

    /// Failed operations over attempted ones, all runs together. A file
    /// that does not say counts as having failed everything.
    fn failed_share(&self) -> f64 {
        let sum = |key: &str| -> Option<f64> {
            self.results
                .iter()
                .map(|r| r.get(key).and_then(Value::as_f64))
                .sum()
        };
        match (sum("failed"), sum("attempted")) {
            (Some(failed), Some(attempted)) if attempted > 0.0 => failed / attempted,
            _ => 1.0,
        }
    }

    /// `metric` of every run that reports it.
    fn values(&self, metric: &str) -> Vec<f64> {
        self.results
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }
}

/// What a comparison found; anything but `unresolved` fails it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// End-to-end medians worse than the bound allows, and workloads whose
    /// share of failed operations rose.
    pub regressed: usize,
    /// End-to-end metrics whose spread inside an input exceeds the bound.
    pub unresolved: usize,
    /// Workloads without runs, and metrics a run does not report.
    pub missing: usize,
    /// Runs, of either input, that are not `correct`.
    pub incorrect: usize,
}

impl Tally {
    pub fn passed(&self) -> bool {
        self.regressed + self.missing + self.incorrect == 0
    }
}

/// Judge result file `b` against `a`; the report is appended to `out`.
pub fn compare(a: &Value, b: &Value, out: &mut String) -> Tally {
    let mut tally = Tally::default();
    for workload in Workload::ALL {
        let _ = writeln!(out, "== {}", workload.name());
        for (defs, trace) in [(END_TO_END, false), (PER_LAYER, true)] {
            let runs_a = Runs::of(a, workload.name(), trace);
            let runs_b = Runs::of(b, workload.name(), trace);
            for (side, runs) in [("A", &runs_a), ("B", &runs_b)] {
                if runs.results.is_empty() {
                    tally.missing += 1;
                    let _ = writeln!(
                        out,
                        "{side} has no run with trace {}: Missing",
                        u8::from(trace)
                    );
                }
                if runs.incorrect() > 0 {
                    tally.incorrect += runs.incorrect();
                    let _ = writeln!(
                        out,
                        "{side}: {} of {} runs with trace {} are not correct: Incorrect",
                        runs.incorrect(),
                        runs.results.len(),
                        u8::from(trace)
                    );
                }
            }
            if runs_a.results.is_empty() || runs_b.results.is_empty() {
                continue;
            }
            let (share_a, share_b) = (runs_a.failed_share(), runs_b.failed_share());
            let rose = share_b > share_a;
            tally.regressed += usize::from(rose);
            let _ = writeln!(
                out,
                "{:<44} {share_a:>16} -> {share_b:>16} {:<6} any rise fails  {}",
                if trace {
                    "check.failed_share (result lines)"
                } else {
                    "failed_share"
                },
                "ratio",
                if rose { "Regressed" } else { "Within" }
            );
            for def in defs {
                let (va, vb) = (runs_a.values(def.name), runs_b.values(def.name));
                if va.len() < runs_a.results.len() || vb.len() < runs_b.results.len() {
                    tally.missing += 1;
                    let _ = writeln!(
                        out,
                        "{:<44} reported by {} of {} runs of A, {} of {} of B: Missing",
                        def.name,
                        va.len(),
                        runs_a.results.len(),
                        vb.len(),
                        runs_b.results.len()
                    );
                    continue;
                }
                let (ma, mb) = (median(&va), median(&vb));
                let change = 100.0 * worsening(def, ma, mb);
                let verdict = if trace {
                    String::new()
                } else {
                    let spreads = [spread(&va), spread(&vb)]
                        .map(|s| s.map_or("n/a".to_string(), |s| format!("{:.1}%", 100.0 * s)));
                    let verdict = judge(def, &va, &vb);
                    match verdict {
                        Verdict::Regressed => tally.regressed += 1,
                        Verdict::Unresolved => tally.unresolved += 1,
                        Verdict::Within => {}
                    }
                    format!(
                        "  bound {:.0}%  spread {} / {}  {verdict:?}",
                        100.0 * def.bound,
                        spreads[0],
                        spreads[1]
                    )
                };
                let _ = writeln!(
                    out,
                    "{:<44} {ma:>16} -> {mb:>16} {:<6} worse by {change:+.1}%{verdict}",
                    def.name, def.unit
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "{} regressed, {} unresolved, {} missing, {} incorrect runs: {}",
        tally.regressed,
        tally.unresolved,
        tally.missing,
        tally.incorrect,
        if tally.passed() { "PASS" } else { "FAIL" }
    );
    tally
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: hinbench compare A.json B.json".into());
    };
    let mut report = String::new();
    let tally = compare(&load(a_path)?, &load(b_path)?, &mut report);
    print!("{report}");
    Ok(if tally.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const QPS: &MetricDef = &END_TO_END[0];

    /// A result file in which every workload ran `values.len()` times
    /// untraced, reporting `values[i]` for every end-to-end metric, and once
    /// traced, reporting 1 for every per-layer metric. `edit` may change or
    /// drop a run's text.
    fn file(values: &[f64], edit: &dyn Fn(&str, bool, String) -> Option<String>) -> Value {
        let metrics = |defs: &[MetricDef], value: f64| {
            let fields: Vec<String> = defs
                .iter()
                .map(|d| {
                    format!(
                        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                        d.name, d.unit
                    )
                })
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let mut runs = Vec::new();
        for workload in Workload::ALL {
            let one = |trace: bool, metrics: String| {
                let run = format!(
                    "{{\"workload\": \"{}\", \"trace\": {trace}, \"result\": {{\"correct\": true, \
                     \"attempted\": 100, \"failed\": 0, \"metrics\": {metrics}}}}}",
                    workload.name()
                );
                edit(workload.name(), trace, run)
            };
            runs.extend(
                values
                    .iter()
                    .filter_map(|&v| one(false, metrics(END_TO_END, v))),
            );
            runs.extend(one(true, metrics(PER_LAYER, 1.0)));
        }
        parse_value(&format!("{{\"runs\": [{}]}}", runs.join(", "))).expect("test file is JSON")
    }

    fn keep(_: &str, _: bool, run: String) -> Option<String> {
        Some(run)
    }

    fn tally(a: &Value, b: &Value) -> Tally {
        compare(a, b, &mut String::new())
    }

    #[test]
    fn a_file_agrees_with_itself() {
        let a = file(&[100.0, 101.0, 102.0], &keep);
        assert_eq!(tally(&a, &a), Tally::default());
        assert!(tally(&a, &a).passed());
    }

    #[test]
    fn judge_tells_regressed_unresolved_and_within() {
        assert_eq!(QPS.better, Better::Higher);
        let steady = [100.0, 100.5, 101.0, 100.2];
        let slower = steady.map(|v| v * (1.0 - QPS.bound - 0.02));
        let a_little_slower = steady.map(|v| v * (1.0 - QPS.bound / 2.0));
        let noisy = [100.0, 70.0, 130.0, 100.0, 75.0, 128.0];
        assert_eq!(judge(QPS, &steady, &slower), Verdict::Regressed);
        assert_eq!(judge(QPS, &steady, &a_little_slower), Verdict::Within);
        assert_eq!(judge(QPS, &slower, &steady), Verdict::Within);
        assert_eq!(judge(QPS, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(QPS, &noisy, &steady), Verdict::Unresolved);
        // A regression is a regression however noisy the inputs are.
        let noisy_and_slower = noisy.map(|v| v * 0.5);
        assert_eq!(judge(QPS, &steady, &noisy_and_slower), Verdict::Regressed);
    }

    #[test]
    fn a_worse_median_fails_and_a_noisy_one_is_unresolved() {
        let a = file(&[100.0, 101.0, 102.0], &keep);
        // Every metric at half: the higher-is-better one regressed.
        let t = tally(&a, &file(&[50.0, 50.5, 51.0], &keep));
        assert_eq!(t.regressed, Workload::ALL.len());
        assert!(!t.passed());
        // Every metric doubled: the lower-is-better ones regressed.
        let t = tally(&a, &file(&[200.0, 202.0, 204.0], &keep));
        assert_eq!(t.regressed, Workload::ALL.len() * (END_TO_END.len() - 1));
        let t = tally(&a, &file(&[60.0, 101.0, 140.0], &keep));
        assert_eq!(
            (t.regressed, t.unresolved),
            (0, Workload::ALL.len() * END_TO_END.len())
        );
        assert!(t.passed());
    }

    #[test]
    fn a_missing_workload_fails() {
        let a = file(&[100.0, 101.0], &keep);
        for dropped_trace in [false, true] {
            let b = file(&[100.0, 101.0], &|workload, trace, run| {
                (workload != "coord_pm_closed" || trace != dropped_trace).then_some(run)
            });
            let t = tally(&a, &b);
            assert_eq!((t.missing, t.regressed, t.incorrect), (1, 0, 0));
            assert!(!t.passed());
        }
    }

    #[test]
    fn a_missing_metric_fails() {
        let a = file(&[100.0, 101.0], &keep);
        let b = file(&[100.0, 101.0], &|workload, trace, run| {
            Some(if workload == "lib_pm_uniform" && !trace {
                run.replace("\"latency_p95_us\"", "\"latency_p96_us\"")
            } else {
                run
            })
        });
        let t = tally(&a, &b);
        assert_eq!(t.missing, 1);
        assert!(!t.passed());
    }

    #[test]
    fn failed_operations_and_incorrect_runs_fail() {
        let a = file(&[100.0, 101.0], &keep);
        let b = file(&[100.0, 101.0], &|workload, _, run| {
            Some(if workload == "serve_pm_open" {
                run.replace("\"failed\": 0", "\"failed\": 1")
            } else {
                run
            })
        });
        // One failed operation, in the untraced and in the traced runs.
        let t = tally(&a, &b);
        assert_eq!((t.regressed, t.incorrect), (2, 0));
        assert!(!t.passed());
        // The other way round the share fell: not a regression.
        assert!(tally(&b, &a).passed());

        let b = file(&[100.0, 101.0], &|_, _, run| {
            Some(run.replace("\"correct\": true", "\"correct\": false"))
        });
        let t = tally(&a, &b);
        assert_eq!(t.incorrect, Workload::ALL.len() * 3);
        assert!(!t.passed());
        // A result line without the counts is not a correct run either.
        let b = file(&[100.0, 101.0], &|_, trace, run| {
            Some(if trace {
                run
            } else {
                run.replace("\"correct\": true, \"attempted\": 100, \"failed\": 0, ", "")
            })
        });
        let t = tally(&a, &b);
        assert_eq!(t.incorrect, Workload::ALL.len() * 2);
        assert_eq!(t.regressed, Workload::ALL.len());
    }

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[4.0]), None);
    }
}

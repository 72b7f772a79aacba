//! `hinbench`: see README.md.
//!
//! ```text
//! hinbench --workload W --seed N --seconds S --trace 0|1       one run; last stdout line is the result
//! hinbench all [--seed N] [--seconds S] [--repeat R] [--out F] every workload, untraced and traced
//! hinbench compare A.json B.json                               judge B against A by the benchmark's bounds
//! ```

use hinbench::compare;
use hinbench::profile::Profile;
use hinbench::run::{run, Outcome, RunArgs, Workload};
use hinbench::util::{json_string, machine_facts};
use std::process::ExitCode;

/// Length of the measured phase when `--seconds` is not given; BENCHMARK.json's
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} {text}: not a valid value")),
    }
}

fn print_outcome(outcome: &Outcome) {
    println!(
        "== {} (trace {}) attempted {} failed {} result_fingerprint {:#018x}",
        outcome.workload.name(),
        u8::from(outcome.trace),
        outcome.attempted,
        outcome.failed,
        outcome.fingerprint
    );
    // Not among the metrics of the result line, which may not be 0; the
    // counts it is made of are.
    println!(
        "{:<44} {:>18} ratio",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (def, value) in outcome.metrics.iter() {
        println!("{:<44} {:>18} {}", def.name, value, def.unit);
    }
}

fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let run_args = RunArgs {
        workload,
        seed: parse(args, "--seed", 1)?,
        seconds: parse(args, "--seconds", DEFAULT_SECONDS)?,
        trace: match flag(args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
        },
    };
    if run_args.seconds.is_nan() || run_args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let outcome = run(&Profile::frozen(), &run_args)?;
    print_outcome(&outcome);
    println!("{}", outcome.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, `repeat` times untraced (round `r` with seed `seed + r`,
/// so the spread inside the file is the spread over seeds the benchmark is
/// accepted by) and once traced (per-layer metrics carry no bound); one JSON
/// file that `compare` reads. Each run is a process of its own, as under the
/// benchmark driver: resident memory, allocator state and warm caches of one
/// run must not reach the next.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = parse(args, "--seed", 1)?;
    let seconds: f64 = parse(args, "--seconds", DEFAULT_SECONDS)?;
    let repeat: u64 = parse(args, "--repeat", 1)?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut correct = true;
    let mut runs = Vec::new();
    for round in 0..repeat.max(1) {
        let round_seed = seed + round;
        // What the workloads over the `uniform` list printed this round.
        let mut uniform_fingerprints = Vec::new();
        for workload in Workload::ALL {
            for trace in [false, true] {
                if trace && round > 0 {
                    continue;
                }
                let output = std::process::Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &round_seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("starting {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let (report, result) = stdout.trim_end().rsplit_once('\n').ok_or_else(|| {
                    format!("{} (trace {trace}) printed no result", workload.name())
                })?;
                println!("{report}");
                correct &= output.status.success();
                let fingerprint = report
                    .split_whitespace()
                    .skip_while(|&word| word != "result_fingerprint")
                    .nth(1)
                    .unwrap_or("unknown")
                    .to_string();
                runs.push(format!(
                    "{{\"seed\": {round_seed}, \"workload\": \"{}\", \"trace\": {trace}, \
                     \"fingerprint\": \"{fingerprint}\", \"result\": {result}}}",
                    workload.name()
                ));
                if workload != Workload::LibCachedZipf {
                    uniform_fingerprints.push(fingerprint);
                }
            }
        }
        if uniform_fingerprints.windows(2).any(|w| w[0] != w[1]) {
            eprintln!(
                "hinbench: seed {round_seed}: the uniform workloads' result fingerprints \
                 disagree: {uniform_fingerprints:?}"
            );
            correct = false;
        }
    }
    let mut file = String::from("{\n");
    for (key, value) in machine_facts() {
        file.push_str(&format!("  \"{key}\": "));
        json_string(&mut file, &value);
        file.push_str(",\n");
    }
    file.push_str(&format!(
        "  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"runs\": [\n    {}\n  ]\n}}\n",
        runs.join(",\n    ")
    ));
    match flag(args, "--out") {
        Some(path) => std::fs::write(path, file).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{file}"),
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => one_run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("hinbench: {e}");
        ExitCode::from(2)
    })
}

//! Small self-contained pieces: a seeded generator, order statistics, JSON
//! text, and process facts. Written here because the crates registry cannot
//! be reached where the benchmark is built.

use std::fmt::Write as _;

/// splitmix64: the workload seed's only consumer. The program under test
/// never sees it, only the query lines it produces.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2⁻⁴⁰ for the list sizes
    /// used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a, 64 bit: graph hash and result fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Strings are length-prefixed so that ("ab", "c") ≠ ("a", "bc").
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work has no ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number with all its digits (Rust prints the shortest text that
/// reads back to the same bits); JSON has no NaN or infinity, so those become
/// `null` and fail the run's own checks.
pub fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Keep the calling thread on the first processor this process may use;
/// threads it spawns afterwards inherit that. Does nothing where the call is
/// missing or refused, or when there is one processor only.
///
/// The closed-loop load generators call this. Left to float, a generator thread now and
/// then settles on the processor the server's one worker runs on and takes
/// time from it for seconds on end; throughput then sits in one of two
/// states 15 % apart, and a run reports whichever mix it happened to see.
/// The program under test is not pinned: its threads go where the scheduler
/// puts them. Nor are the open loop's sender and readers: held on one
/// processor they delay each other's wake-ups, and the latency measured
/// becomes the generator's.
pub fn stay_on_first_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of `bytes` bytes, the
        // size passed; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return;
        }
        if allowed.iter().map(|w| w.count_ones()).sum::<u32>() < 2 {
            return;
        }
        let mut only = [0u64; 16];
        for (word, out) in allowed.iter().zip(only.iter_mut()) {
            if *word != 0 {
                *out = 1 << word.trailing_zeros();
                break;
            }
        }
        // SAFETY: `only` is a live buffer of `bytes` bytes, the size passed;
        // the call reads it and keeps no pointer. A refusal leaves the
        // thread where it was, which is the documented fallback.
        let _ = unsafe { sched_setaffinity(0, bytes, only.as_ptr()) };
    }
}

/// Facts about the machine and toolchain, recorded in every result file.
pub fn machine_facts() -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("git_rev", run("git", &["rev-parse", "HEAD"])),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("rustc", run("rustc", &["--version"])),
        // What was built, where it differs from what a user of the
        // repository builds: see README.md, "Offline build".
        ("hin_service_source", hin_service::SOURCE.to_string()),
        (
            "registry_crates",
            "stand-ins under hinbench/offline (rand, rustc-hash, parking_lot, crossbeam, bytes, \
             serde), not the published crates"
                .to_string(),
        ),
    ]
}

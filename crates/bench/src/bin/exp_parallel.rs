//! Intra-query parallel scaling (extension; backs DESIGN.md §10). Emits
//! BENCH_parallel.json. `--quick` shrinks the workload and thread grid for
//! CI smoke runs.
fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    bench::experiments::parallel::run(quick);
}

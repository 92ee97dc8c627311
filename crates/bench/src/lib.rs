//! Shared harness code for the benchmark binaries of the LOTEC
//! reproduction:
//!
//! | Binary | Purpose |
//! |--------|---------|
//! | `repro` | regenerates one figure, in-text claim or ablation of the paper's evaluation — a row of the [`experiments`] registry (`repro <name>`; `repro` alone lists them) |
//! | `smoke` | fast end-to-end sanity run (`BENCH_smoke.json`) |
//! | `chaos` | fault-injection sweep: drop rates and node crashes, oracle-checked (`BENCH_chaos.json`) |
//! | `perf` | wall-clock baseline: engine events/sec and parallel-sweep speedup (`BENCH_perf.json`) |
//! | `scenarios` | workload-zoo matrix: scenario families × protocols × static/adaptive, oracle-checked with success criteria (`BENCH_scenarios.json`; `--full` for production scale) |
//! | `obs_report` | re-summarizes a saved JSONL trace offline — span trees, per-root critical paths, and the metrics registry's top-K contention/transfer tables; `--demo` runs the seeded fig3 observability sweep that produces `BENCH_obs.json` |
//!
//! `repro` and `smoke` take the observability flags `--obs` and
//! `--trace-out [path]` (see [`experiments`]).

pub mod experiments;
pub mod harness;
pub mod obs;
pub mod runner;
pub mod scenarios;

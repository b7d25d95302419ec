//! The repository benchmark for the Ditto request path.
//!
//! One command runs a named workload from a seed, checks its output
//! against a single-engine reference and prints every end-to-end metric
//! (untraced) or every per-layer metric (traced) by name with its unit.
//! `BENCHMARK.json` at the repository root declares the workloads and
//! metrics; see `perfbench/README.md` for what each one means.

pub mod engine;
pub mod pace;
pub mod served;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod wireload;
pub mod workloads;

//! Benchmark of the elephants simulator: four workloads measured end to
//! end with tracing off, and layer by layer in a separate traced run.
//! See `README.md` in this directory for the metrics and how to run it.

pub mod cell;
pub mod trace;
pub mod workloads;

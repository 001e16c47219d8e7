//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! The bench target `perfbench` (`benches/perfbench/`) holds the four
//! workloads and the command line; this library holds what they share
//! and what is tested on its own: the runner, the statistics and
//! failure accounting, the span recorder with its self-time rule, and
//! the host block. See `README.md` beside this crate.

pub mod host;
pub mod runner;
pub mod stats;
pub mod trace;

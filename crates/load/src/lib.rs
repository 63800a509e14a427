//! `fc_load` — seeded workload generation for the fact-cleaning
//! planner's serving stack.
//!
//! Three std-only modules:
//!
//! 1. [`gen`] — deterministic seeded workload generators (Poisson,
//!    bursty, diurnal per-tenant arrivals) producing a…
//! 2. [`trace`] — plain-text, byte-stable request trace
//!    (`timestamp_ms tenant op spec budget`). The smoke trace is
//!    checked in as `fixtures/smoke.trace`; the root `tests/load.rs`
//!    pins it to its generator and replays it through a server and a
//!    router, and `perfbench` draws its serving workloads from `gen`.
//! 3. [`hist`] — log-bucketed HDR-style latency histograms.
//!
//! Generation is a pure function of `(spec, seed)`, so a trace fixture
//! pins a workload exactly.

pub mod gen;
pub mod hist;
pub mod trace;

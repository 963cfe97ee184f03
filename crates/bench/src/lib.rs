//! # hera-bench — the experiment harness
//!
//! One function per paper table/figure (see `DESIGN.md §5` for the
//! experiment index). The `figures` binary prints each experiment in the
//! paper's shape next to the paper's reported numbers. Host-time
//! regression tracking lives in the standalone `perfbench/` package.
//!
//! All experiments measure *virtual machine time* — the simulated cycle
//! counts from `hera-cell` — not host wall-clock, so results are
//! deterministic and host-independent.

pub mod experiments;

pub use experiments::*;

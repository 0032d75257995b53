//! # lbq-benchmark — the one benchmark of the lbq stack
//!
//! Open-loop loopback latency, closed-loop capacity and a moving
//! fleet, with a per-layer budget measured from outside. See
//! `README.md` beside this crate for the workloads, the metrics and how
//! the layers are expected to move them.

pub mod check;
pub mod fleet;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod tcp;
pub mod workload;

//! # lbq-bench — the experiment harness
//!
//! Regenerates **every figure of the paper's Section 6** (Figs. 22–35,
//! except the illustrative Fig. 33, which lives on as a unit test in
//! `lbq-core::window`). Each experiment is a plain function returning a
//! [`harness::Table`], so the test suite can assert the paper's *shapes*
//! (linear trends, ≈6 edges, 2+2 influence objects, buffer collapse)
//! and the `experiments` binary can print the tables for EXPERIMENTS.md.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p lbq-bench --bin experiments -- --all
//! cargo run --release -p lbq-bench --bin experiments -- --fig 22a --quick
//! ```
//!
//! `--quick` shrinks cardinalities and workloads ~10× for smoke runs;
//! EXPERIMENTS.md records full-scale numbers.

pub mod figures;
pub mod harness;
pub mod microbench;

pub use harness::{ExpConfig, Table};

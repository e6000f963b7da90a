//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! Each `exp_*` function runs one experiment from the per-experiment index in
//! `DESIGN.md` and returns a vector of [`Row`]s; the `src/bin/exp_*.rs`
//! binaries print them as plain-text tables (or JSON with `--json`), and
//! `EXPERIMENTS.md` records representative output next to the paper's
//! predicted shapes.  The Criterion benchmarks under `benches/` reuse the same
//! building blocks with smaller parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod reporting;

pub use experiments::*;
pub use reporting::{print_table, rows_to_json_pretty, run_cli, Row};

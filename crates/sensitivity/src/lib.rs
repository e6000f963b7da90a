//! Sensitivity machinery for counting join-size queries over multi-table
//! instances.
//!
//! The release algorithms of the paper never add noise calibrated to the raw
//! local sensitivity (which is itself sensitive); instead they rely on
//! *smooth upper bounds*, and concretely on **residual sensitivity**
//! (Definition 3.6, from Dong & Yi [15, 16]).  This crate implements:
//!
//! * maximum boundary queries `T_E` and general `q`-aggregate queries
//!   `T_{E,y}` ([`boundary`]),
//! * local sensitivity `LS_count(I) = max_i T_{[m]∖{i}}(I)` ([`local`]),
//! * worst-case/global sensitivity bounds ([`global`]),
//! * residual sensitivity `RS^β_count(I)` ([`residual`]),
//! * a brute-force smooth-upper-bound checker used by tests ([`smooth`]),
//! * the maximum-degree upper bound on `T_E` for hierarchical queries
//!   (Section 4.2.1, Lemma 4.8) ([`mdeg_bound`]),
//! * degree configurations (Definition 4.9) and the residual-sensitivity
//!   upper bound they induce ([`config`]).
//!
//! Every expensive entry point is a method of the [`SensitivityOps`]
//! extension trait on [`dpsyn_relational::ExecContext`]: the context supplies
//! the [`Parallelism`](dpsyn_relational::Parallelism) knob driving the subset
//! enumerations and probe loops through the relational engine's worker pool
//! ([`dpsyn_relational::exec`]), the small-instance sequential fallback
//! ([`ExecContext::min_par_instance`](dpsyn_relational::ExecContext::min_par_instance)),
//! and — on a long-lived context (`dpsyn::Session`) — a **slot memo** of
//! the boundary values and `RS^β`.  The boundary values come from one
//! [`SubJoinLattice`](dpsyn_relational::SubJoinLattice) built per cold call
//! and dropped on return; local sensitivity and every `RS^β` read the
//! memoised map, so a `β` sweep over one instance builds the lattice once.
//! Results are byte-identical at every parallelism level and on warm or
//! cold caches.  `ExecContext` is the only place
//! these execution settings live; the plain free functions use a throwaway
//! [`ExecContext::default`](dpsyn_relational::ExecContext::default).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundary;
pub mod config;
pub mod context_ext;
pub mod error;
pub mod global;
pub mod local;
pub mod mdeg_bound;
pub mod residual;
pub mod smooth;

pub use boundary::{aggregate_query, boundary_query};
pub use config::{DegreeConfiguration, UniformPartitionSpec};
pub use context_ext::SensitivityOps;
pub use error::SensitivityError;
pub use global::{global_sensitivity_bound, worst_case_error_exponent};
pub use local::{local_sensitivity, two_table_local_sensitivity};
pub use mdeg_bound::{lemma48_mdeg_terms, t_e_mdeg_upper_bound, MdegTerm};
pub use residual::{all_boundary_values, ls_hat_k, residual_sensitivity, ResidualSensitivity};
pub use smooth::{candidate_edits, is_smooth_upper_bound, smooth_sensitivity_bruteforce};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SensitivityError>;

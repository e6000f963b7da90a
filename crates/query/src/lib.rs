//! Linear queries over multi-table joins (Section 1.1 of the paper).
//!
//! A query `q = (q_1, …, q_m)` assigns a per-relation weight function
//! `q_i : D_i → [-1, 1]`; its answer on an instance `I` is
//!
//! ```text
//! q(I) = Σ_{t⃗ = (t_1,…,t_m)} ρ(t⃗) · Π_i q_i(t_i) · R_i(t_i)
//!      = Σ_{x ∈ dom(x)} Join_I(x) · Π_i q_i(π_{x_i} x)
//! ```
//!
//! and its answer on a released synthetic function `F : dom(x) → ℝ≥0` replaces
//! `Join_I` with `F`.  The counting join-size query is the special case where
//! every `q_i` is the all-ones function.
//!
//! The crate provides:
//!
//! * per-relation weight functions ([`linear`]),
//! * product queries and joint-domain evaluators ([`product`]),
//! * query families / workloads, including the random-sign and predicate
//!   workloads used by the experiments ([`family`]),
//! * evaluation over instances, join results and answer vectors, and the
//!   ℓ∞ error metric ([`answer`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod error;
pub mod family;
pub mod linear;
pub mod product;

pub use answer::{answer_on_join, linf_error, AnswerOps, AnswerSet};
pub use error::QueryError;
pub use family::QueryFamily;
pub use linear::RelationQuery;
pub use product::{JointEvaluator, ProductQuery};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, QueryError>;

/// Alias re-exported for downstream convenience: a linear query in this
/// library is always a [`ProductQuery`].
pub type LinearQuery = ProductQuery;

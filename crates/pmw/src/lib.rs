//! Single-table Private Multiplicative Weights (PMW) synthetic-data release —
//! Algorithm 2 of the paper (after Hardt–Ligett–McSherry \[25\]).
//!
//! The multi-table algorithms of the paper reduce to this primitive: they
//! compute the join, derive a private upper bound `Δ̃` on the relevant
//! sensitivity, and invoke `PMW_{ε,δ,Δ̃}` on the join result viewed as a single
//! table over the joint domain `dom(x)`.  PMW maintains a dense non-negative
//! function `F : dom(x) → ℝ≥0` (a [`Histogram`]), repeatedly selects a
//! badly-answered query with the exponential mechanism, measures it with
//! Laplace noise, and applies a multiplicative-weights update; the average of
//! the iterates is released.
//!
//! The guarantee (Theorem A.1): for neighbouring instances whose join sizes
//! differ by at most `Δ̃`, the release is `(ε, δ)`-DP, and with probability
//! `1 − 1/poly(|Q|)` every query is answered within
//! `O((√(count(I)·Δ̃) + Δ̃·√λ) · f_upper)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
mod factor;
pub mod histogram;
pub mod pmw;
pub mod theory;

pub use error::PmwError;
pub use histogram::Histogram;
pub use pmw::{Pmw, PmwConfig, PmwOutput};
pub use theory::{f_lower, f_upper, pmw_error_bound, recommended_iterations};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, PmwError>;

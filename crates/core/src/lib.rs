//! The paper's release algorithms: differentially private synthetic data over
//! multiple tables.
//!
//! This crate is the primary contribution of the reproduction — it implements
//! every algorithm of *"Differentially Private Data Release over Multiple
//! Tables"* (PODS 2023):
//!
//! | algorithm | paper | module |
//! |-----------|-------|--------|
//! | `TwoTable` | Algorithm 1 | [`two_table`] |
//! | `PMW` (sub-routine) | Algorithm 2 | `dpsyn-pmw` |
//! | `MultiTable` | Algorithm 3 | [`multi_table`] |
//! | `Uniformize` + `Partition-TwoTable` | Algorithms 4, 5 | [`uniformize`] |
//! | `Partition-Hierarchical` + `Decompose` | Algorithms 6, 7 | [`hierarchical`] |
//! | flawed strawmen of §3.1 | Figure 1 / Example 3.1 | [`flawed`] |
//! | per-query Laplace & global-sensitivity baselines | §1.2 motivation | [`baselines`] |
//! | closed-form bound predictions | Theorems 1.5, 3.3, 3.5, 4.4, 4.5, App. B.3 | [`bounds`] |
//!
//! The six releasing algorithms run only through the object-safe
//! [`Mechanism`] trait ([`mechanism`]): [`Mechanism::release`] takes the
//! caller's [`dpsyn_relational::ExecContext`], an explicit RNG and a
//! [`dpsyn_noise::PrivacyParams`] budget, and produces a
//! [`SyntheticRelease`] from which arbitrary linear queries can be answered
//! by post-processing.  `dpsyn::Session::release` calls it on the session's
//! context, whose slot memo makes repeated releases over one instance reuse
//! the sensitivity machinery's boundary values and `RS^β` instead of
//! re-enumerating the `2^m` subsets.  Outputs depend on the seed alone:
//! warm or fresh context, at any parallelism level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod bounds;
pub mod error;
pub mod flawed;
pub mod hierarchical;
pub mod mechanism;
pub mod multi_table;
#[cfg(test)]
mod pmw_oracle;
pub mod release;
pub mod two_table;
pub mod uniformize;

pub use baselines::{IndependentLaplaceBaseline, SensitivityChoice};
pub use error::ReleaseError;
pub use flawed::{FlawedJoinAsOne, FlawedPadAfter};
pub use hierarchical::{
    partition_hierarchical, verify_hierarchical_partition, HierarchicalConfig, HierarchicalPart,
    HierarchicalRelease,
};
pub use mechanism::Mechanism;
pub use multi_table::MultiTable;
pub use release::{ReleaseKind, SyntheticRelease};
pub use two_table::TwoTable;
pub use uniformize::{
    partition_two_table, verify_two_table_partition, PartitionBucket, UniformizedTwoTable,
};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ReleaseError>;

/// Runs `PMW_{ε,δ,Δ̃}` (Algorithm 2) for a mechanism, joining through `ctx`.
///
/// Unit tests can swap in the dense reference implementation
/// (`pmw_oracle`) to check that every mechanism's release bytes match it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pmw<R: rand::Rng>(
    config: dpsyn_pmw::PmwConfig,
    ctx: &dpsyn_relational::ExecContext,
    query: &dpsyn_relational::JoinQuery,
    instance: &dpsyn_relational::Instance,
    family: &dpsyn_query::QueryFamily,
    params: dpsyn_noise::PrivacyParams,
    delta_tilde: f64,
    rng: &mut R,
) -> Result<dpsyn_pmw::PmwOutput> {
    #[cfg(test)]
    if pmw_oracle::enabled() {
        return pmw_oracle::dense_run(config, query, instance, family, params, delta_tilde, rng);
    }
    Ok(dpsyn_pmw::Pmw::new(config).run(ctx, query, instance, family, params, delta_tilde, rng)?)
}

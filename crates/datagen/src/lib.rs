//! Instance generators: every figure/example instance of the paper plus
//! random and scenario-style workloads used by the examples and experiments.
//!
//! | module | contents |
//! |--------|----------|
//! | [`figures`] | Figure 1 neighbouring-style pair, Figure 2 lower-bound construction, Figure 3 non-uniform instance, Example 4.2 family, the Figure 4 hierarchical query |
//! | [`random`] | uniform and Zipf-skewed two-table / star / path instances |
//! | [`scenarios`] | realistic synthetic scenarios: a social network (users ⋈ follows), a retail star schema, an organisational hierarchy |
//! | [`stream`] | seeded insert/delete update streams over any generated instance, for exercising streaming updates |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod random;
pub mod scenarios;
pub mod stream;

pub use figures::{example42_instance, fig1_pair, fig2_hard_instance, fig3_nonuniform, fig4_query};
pub use random::{random_path, random_star, random_two_table, zipf_two_table};
pub use scenarios::{
    correlated_pair, heavy_hitter_star, org_hierarchy, retail_star, social_network,
};
pub use stream::{update_stream, UpdateStreamConfig};

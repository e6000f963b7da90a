//! Scenario: cross-table marginals over a private retail star schema.
//!
//! `Sales(product, store) ⋈ Inventory(product, warehouse) ⋈
//! Promotions(product, campaign)` — a three-relation hierarchical join.  The
//! example runs the residual-sensitivity-based `MultiTable` release
//! (Algorithm 3) and the hierarchical uniformized release (Algorithms 4+6+7)
//! through one [`Session`], whose memoised boundary values are shared by
//! the sensitivity diagnostics and the releases.
//!
//! Run with `cargo run --release --example retail_star`.

use dpsyn::prelude::*;
use dpsyn_core::{HierarchicalConfig, HierarchicalRelease};
use dpsyn_noise::seeded_rng;
use dpsyn_pmw::PmwConfig;

fn main() {
    let mut rng = seeded_rng(11);
    let (query, instance) = dpsyn::datagen::retail_star(24, 150, &mut rng);
    println!("products=24, rows per table=150");
    println!("hierarchical query : {}", query.is_hierarchical());

    let session = Session::new();
    println!(
        "join size          : {}",
        session.join_size(&query, &instance).unwrap()
    );

    let budget = PrivacyParams::new(2.0, 1e-4).unwrap();
    let beta = 1.0 / budget.lambda();
    // The residual-sensitivity diagnostic memoises the instance's boundary
    // values and RS^β in the session; the MultiTable release below reuses
    // them instead of re-enumerating the 2^m subsets.
    let rs = session
        .residual_sensitivity(&query, &instance, beta)
        .unwrap();
    println!(
        "residual sensitivity RS^β = {:.1} (local sensitivity {}, {} cached instances)",
        rs.value,
        session.local_sensitivity(&query, &instance).unwrap(),
        session.cached_instances()
    );

    let workload = QueryFamily::random_predicate(&query, 24, 0.5, &mut rng).unwrap();
    let truth = session.answer_truth(&query, &instance, &workload).unwrap();
    let request = ReleaseRequest::new(&query, &instance, &workload, budget).with_seed(11);

    let pmw = PmwConfig {
        max_iterations: 60,
        ..PmwConfig::default()
    };
    let multi = session.release(&MultiTable::new(pmw), &request).unwrap();
    let err_multi = multi
        .answer_all(&workload)
        .unwrap()
        .linf_distance(&truth)
        .unwrap();
    println!(
        "MultiTable     error: {err_multi:.2} (Δ̃ = {:.1})",
        multi.delta_tilde()
    );

    let hierarchical = session
        .release(
            &HierarchicalRelease::new(HierarchicalConfig {
                pmw,
                ..Default::default()
            }),
            &request,
        )
        .unwrap();
    let err_hier = hierarchical
        .answer_all(&workload)
        .unwrap()
        .linf_distance(&truth)
        .unwrap();
    println!(
        "Hierarchical   error: {err_hier:.2} across {} sub-instances",
        hierarchical.parts()
    );
    let (hits, misses) = session.cache_stats();
    println!("session cache      : {hits} hits / {misses} misses");
}

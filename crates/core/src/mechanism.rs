//! The [`Mechanism`] trait: one object-safe interface over every release
//! algorithm of the paper, and the only way to run one.
//!
//! The six concrete mechanisms — [`TwoTable`](crate::TwoTable)
//! (Algorithm 1), [`MultiTable`](crate::MultiTable) (Algorithm 3),
//! [`UniformizedTwoTable`](crate::UniformizedTwoTable) (Algorithms 4+5),
//! [`HierarchicalRelease`](crate::HierarchicalRelease) (Algorithms 4+6+7)
//! and the two deliberately broken strawmen
//! [`FlawedJoinAsOne`](crate::FlawedJoinAsOne) /
//! [`FlawedPadAfter`](crate::FlawedPadAfter) of Section 3.1 — all release a
//! [`SyntheticRelease`] from the same inputs (execution context, query,
//! instance, workload, privacy budget, RNG).  Each implements
//! [`Mechanism::release`] in its own module; there is no other release
//! method.  Callers hold `&dyn Mechanism` values, swap algorithms at run
//! time, and drive everything through one entry point
//! (`dpsyn::Session::release`, or `release` on their own [`ExecContext`]).
//!
//! The trait is **object-safe**: the RNG is taken as `&mut dyn Rng` (the
//! vendored trait's generic conveniences are `Self: Sized`, so the trait
//! object works).  Its one required method is `next_u64`, so a caller that
//! passes `&mut StdRng` draws the same stream as one that passes the
//! session's seeded RNG: the released bytes depend on the seed alone.
//!
//! Context use: the mechanisms whose cost is dominated by sensitivity
//! machinery ([`MultiTable`](crate::MultiTable),
//! [`HierarchicalRelease`](crate::HierarchicalRelease)) route their
//! residual sensitivity computation through the supplied [`ExecContext`],
//! so a warm long-lived context (a `dpsyn::Session`) reuses the memoised
//! boundary values and `RS^β` across repeated releases over the same
//! instance.  The two-table mechanisms' sensitivity is a cheap degree scan
//! with nothing worth caching.  Every mechanism's PMW step joins at the
//! context's parallelism, so a sequential context
//! (`dpsyn::Session::sequential`) spawns no thread.
//!
//! The per-query Laplace baseline (`IndependentLaplaceBaseline`) is *not* a
//! `Mechanism`: it answers a fixed workload directly and never materialises
//! a synthetic dataset, so it cannot return a [`SyntheticRelease`].  The
//! facade exposes it separately (`dpsyn::Session::answer_baseline`).

use dpsyn_noise::PrivacyParams;
use dpsyn_query::QueryFamily;
use dpsyn_relational::{ExecContext, Instance, JoinQuery};
use rand::Rng;

use crate::release::SyntheticRelease;
use crate::Result;

/// An object-safe release algorithm: consumes a join query, a private
/// instance, a query workload and a privacy budget, and produces a
/// differentially private [`SyntheticRelease`] (modulo the two deliberately
/// flawed strawmen, which exist to demonstrate the Section 3.1 attack).
///
/// Outputs depend only on the inputs and the RNG stream: the same seed
/// gives byte-identical releases on a warm or cold context, at any
/// parallelism level.
pub trait Mechanism {
    /// A short stable identifier for reporting and experiment output.
    fn name(&self) -> &'static str;

    /// Runs the release through the given execution context.
    fn release(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FlawedJoinAsOne, FlawedPadAfter, HierarchicalRelease, MultiTable, TwoTable,
        UniformizedTwoTable,
    };
    use dpsyn_noise::seeded_rng;

    fn two_table_fixture() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(8, 8, 8);
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..6u64 {
            inst.relation_mut(0).add(vec![a, a % 3], 1).unwrap();
            inst.relation_mut(1).add(vec![a % 3, a], 1).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn trait_objects_cover_all_six_mechanisms() {
        let (q, inst) = two_table_fixture();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let family = QueryFamily::counting(&q);
        let ctx = ExecContext::sequential();
        let mechanisms: Vec<Box<dyn Mechanism>> = vec![
            Box::new(TwoTable::default()),
            Box::new(MultiTable::default()),
            Box::new(UniformizedTwoTable::default()),
            Box::new(HierarchicalRelease::default()),
            Box::new(FlawedJoinAsOne::default()),
            Box::new(FlawedPadAfter::default()),
        ];
        let mut names = Vec::new();
        for mech in &mechanisms {
            let mut rng = seeded_rng(3);
            let release = mech
                .release(&ctx, &q, &inst, &family, params, &mut rng)
                .unwrap();
            assert!(release.histogram().total().is_finite(), "{}", mech.name());
            names.push(mech.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "mechanism names must be distinct");
    }
}

//! The [`Mechanism`] trait: one object-safe interface over every release
//! algorithm of the paper.
//!
//! The six concrete mechanisms — [`TwoTable`] (Algorithm 1), [`MultiTable`]
//! (Algorithm 3), [`UniformizedTwoTable`] (Algorithms 4+5),
//! [`HierarchicalRelease`] (Algorithms 4+6+7) and the two deliberately
//! broken strawmen [`FlawedJoinAsOne`] / [`FlawedPadAfter`] of Section 3.1 —
//! all release a [`SyntheticRelease`] from the same inputs (query, instance,
//! workload, privacy budget, RNG).  This trait erases the per-algorithm
//! types so callers can hold `&dyn Mechanism` values, swap algorithms at
//! run time, and drive everything through one entry point
//! (`dpsyn::Session::release`).
//!
//! The trait is **object-safe**: the RNG is taken as `&mut dyn Rng` (the
//! vendored trait's generic conveniences are `Self: Sized`, so the trait
//! object works), and every implementation forwards to the algorithm's
//! inherent `release`/`release_in` method with the identical RNG stream —
//! the released bytes match the direct per-algorithm call at the same seed
//! exactly.
//!
//! Context use: the mechanisms whose cost is dominated by sensitivity
//! machinery ([`MultiTable`], [`HierarchicalRelease`]) route their residual
//! sensitivity computation through the supplied [`ExecContext`], so a warm
//! long-lived context (a `dpsyn::Session`) reuses the memoised boundary
//! values and `RS^β` across repeated releases over the same instance.  The two-table mechanisms'
//! sensitivity is a cheap degree scan with nothing worth caching.  Every
//! mechanism's PMW step joins at the context's parallelism, so a
//! sequential context (`dpsyn::Session::sequential`) spawns no thread.
//!
//! The per-query Laplace baseline (`IndependentLaplaceBaseline`) is *not* a
//! `Mechanism`: it answers a fixed workload directly and never materialises
//! a synthetic dataset, so it cannot return a [`SyntheticRelease`].  The
//! facade exposes it separately (`dpsyn::Session::answer_baseline`).

use dpsyn_noise::PrivacyParams;
use dpsyn_query::QueryFamily;
use dpsyn_relational::{ExecContext, Instance, JoinQuery};
use rand::Rng;

use crate::flawed::{FlawedJoinAsOne, FlawedPadAfter};
use crate::hierarchical::HierarchicalRelease;
use crate::multi_table::MultiTable;
use crate::release::SyntheticRelease;
use crate::two_table::TwoTable;
use crate::uniformize::UniformizedTwoTable;
use crate::Result;

/// An object-safe release algorithm: consumes a join query, a private
/// instance, a query workload and a privacy budget, and produces a
/// differentially private [`SyntheticRelease`] (modulo the two deliberately
/// flawed strawmen, which exist to demonstrate the Section 3.1 attack).
///
/// Implementations guarantee that `release_ctx` draws the exact same RNG
/// stream as the algorithm's inherent `release` method, so outputs are
/// byte-identical between the two entry points at the same seed — warm or
/// cold context, at any parallelism level.
pub trait Mechanism {
    /// A short stable identifier for reporting and experiment output.
    fn name(&self) -> &'static str;

    /// Runs the release through the given execution context.
    fn release_ctx(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease>;
}

impl Mechanism for TwoTable {
    fn name(&self) -> &'static str {
        "two_table"
    }

    fn release_ctx(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        self.release_in(ctx, query, instance, family, params, &mut rng)
    }
}

impl Mechanism for MultiTable {
    fn name(&self) -> &'static str {
        "multi_table"
    }

    fn release_ctx(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        self.release_in(ctx, query, instance, family, params, &mut rng)
    }
}

impl Mechanism for UniformizedTwoTable {
    fn name(&self) -> &'static str {
        "uniformized_two_table"
    }

    fn release_ctx(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        self.release_in(ctx, query, instance, family, params, &mut rng)
    }
}

impl Mechanism for HierarchicalRelease {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn release_ctx(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        self.release_in(ctx, query, instance, family, params, &mut rng)
    }
}

impl Mechanism for FlawedJoinAsOne {
    fn name(&self) -> &'static str {
        "flawed_join_as_one"
    }

    fn release_ctx(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        self.release_in(ctx, query, instance, family, params, &mut rng)
    }
}

impl Mechanism for FlawedPadAfter {
    fn name(&self) -> &'static str {
        "flawed_pad_after"
    }

    fn release_ctx(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        self.release_in(ctx, query, instance, family, params, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                .release_ctx(&ctx, &q, &inst, &family, params, &mut rng)
                .unwrap();
            assert!(release.histogram().total().is_finite(), "{}", mech.name());
            names.push(mech.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "mechanism names must be distinct");
    }

    #[test]
    fn dyn_release_matches_direct_release_at_the_same_seed() {
        let (q, inst) = two_table_fixture();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let ctx = ExecContext::sequential();
        let mut rng = seeded_rng(7);
        let family = QueryFamily::random_sign(&q, 8, &mut rng).unwrap();

        let algo = MultiTable::default();
        let via_trait = {
            let mut rng = seeded_rng(11);
            let m: &dyn Mechanism = &algo;
            m.release_ctx(&ctx, &q, &inst, &family, params, &mut rng)
                .unwrap()
        };
        let direct = {
            let mut rng = seeded_rng(11);
            algo.release(&q, &inst, &family, params, &mut rng).unwrap()
        };
        assert_eq!(via_trait.delta_tilde(), direct.delta_tilde());
        assert_eq!(via_trait.noisy_total(), direct.noisy_total());
        assert_eq!(
            via_trait.answer_all(&family).unwrap().values(),
            direct.answer_all(&family).unwrap().values()
        );
    }
}

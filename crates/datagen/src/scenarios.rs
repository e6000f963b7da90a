//! Realistic synthetic scenarios used by the runnable examples.
//!
//! None of these use real data; they are parameterised generators whose shape
//! mimics the workloads the paper's introduction motivates (analytics over
//! joins of private tables).

use dpsyn_relational::{AttrId, Attribute, Instance, JoinQuery, Schema};
use rand::Rng;

use crate::random::zipf_two_table;

/// A "social network" two-table scenario:
/// `Follows(follower, user) ⋈ Posts(user, topic)` — a linear query over the
/// join asks weighted questions such as "how many (follower, post) exposure
/// pairs involve topic t".  Popular users are Zipf-distributed, so degrees are
/// heavily skewed (the regime where uniformization shines).
pub fn social_network<R: Rng>(
    users: u64,
    follows: usize,
    posts: usize,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    let schema = Schema::new(vec![
        Attribute::new("follower", users),
        Attribute::new("user", users),
        Attribute::new("topic", 16),
    ]);
    let query = JoinQuery::new(
        schema,
        vec![vec![AttrId(0), AttrId(1)], vec![AttrId(1), AttrId(2)]],
    )
    .expect("two-table query");
    let mut inst = Instance::empty_for(&query).expect("schema matches");
    for _ in 0..follows {
        let follower = rng.random_range(0..users);
        // Popularity is Zipf-like: low user ids are followed much more often.
        let user = popular(users, rng);
        inst.relation_mut(0)
            .add(vec![follower, user], 1)
            .expect("valid tuple");
    }
    for _ in 0..posts {
        let user = popular(users, rng);
        let topic = rng.random_range(0..16);
        inst.relation_mut(1)
            .add(vec![user, topic], 1)
            .expect("valid tuple");
    }
    (query, inst)
}

fn popular<R: Rng>(domain: u64, rng: &mut R) -> u64 {
    // Approximate Zipf(1.2) via rejection-free inverse power transform.
    let u: f64 = rng.random::<f64>().max(1e-9);
    let x = (u.powf(-0.8) - 1.0) * 3.0;
    (x as u64).min(domain - 1)
}

/// A "retail" star-schema scenario: `Sales(product, store)`,
/// `Inventory(product, warehouse)`, `Promotions(product, campaign)` joined on
/// `product` — a 3-relation hierarchical (star) join whose linear queries are
/// cross-table marginals.
pub fn retail_star<R: Rng>(
    products: u64,
    rows_per_table: usize,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    let schema = Schema::new(vec![
        Attribute::new("product", products),
        Attribute::new("store", 32),
        Attribute::new("warehouse", 8),
        Attribute::new("campaign", 8),
    ]);
    let query = JoinQuery::new(
        schema,
        vec![
            vec![AttrId(0), AttrId(1)],
            vec![AttrId(0), AttrId(2)],
            vec![AttrId(0), AttrId(3)],
        ],
    )
    .expect("star query");
    let mut inst = Instance::empty_for(&query).expect("schema matches");
    for _ in 0..rows_per_table {
        let p = popular(products, rng);
        inst.relation_mut(0)
            .add(vec![p, rng.random_range(0..32)], 1)
            .expect("valid tuple");
        let p = popular(products, rng);
        inst.relation_mut(1)
            .add(vec![p, rng.random_range(0..8)], 1)
            .expect("valid tuple");
        let p = popular(products, rng);
        inst.relation_mut(2)
            .add(vec![p, rng.random_range(0..8)], 1)
            .expect("valid tuple");
    }
    (query, inst)
}

/// An "organisational hierarchy" scenario built on the two-table query with a
/// department attribute shared between `Employees(employee, dept)` and
/// `Projects(dept, project)`; department sizes are heavy-tailed.
pub fn org_hierarchy<R: Rng>(
    departments: u64,
    employees: usize,
    projects: usize,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    // Reuse the Zipf two-table generator and relabel: attribute B plays the
    // department role.
    let (query, mut inst) = zipf_two_table(departments.max(4), 0, 0.0, rng);
    for _ in 0..employees {
        let e = rng.random_range(0..departments.max(4));
        let d = popular(departments.max(4), rng);
        inst.relation_mut(0)
            .add(vec![e, d], 1)
            .expect("valid tuple");
    }
    for _ in 0..projects {
        let d = popular(departments.max(4), rng);
        let p = rng.random_range(0..departments.max(4));
        inst.relation_mut(1)
            .add(vec![d, p], 1)
            .expect("valid tuple");
    }
    (query, inst)
}

/// A **heavy-hitter skewed star**: `m` petal relations `R_r(hub, petal_r)`
/// joined on `hub`, where a `hot_fraction` of every relation's rows land on
/// the single hub value `0` and the rest follow a Zipf-like tail over the
/// remaining hub domain.
///
/// This is the imbalance the work-stealing scheduler exists for: the probe
/// partition (and the lattice masks) containing hub `0` carries most of the
/// join work, so a fixed-stride split leaves all but one worker idle while
/// stealing rebalances.  Degrees are wildly non-uniform, so it doubles as a
/// uniformization stress shape.
pub fn heavy_hitter_star<R: Rng>(
    petals: usize,
    hub_domain: u64,
    rows_per_relation: usize,
    hot_fraction: f64,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    let hub_domain = hub_domain.max(2);
    let petal_domain = 64u64;
    let mut attrs = vec![Attribute::new("hub", hub_domain)];
    for r in 0..petals {
        attrs.push(Attribute::new(format!("petal{r}"), petal_domain));
    }
    let schema = Schema::new(attrs);
    let rel_attrs: Vec<Vec<AttrId>> = (0..petals)
        .map(|r| vec![AttrId(0), AttrId(1 + r as u16)])
        .collect();
    let query = JoinQuery::new(schema, rel_attrs).expect("star query");
    let mut inst = Instance::empty_for(&query).expect("schema matches");
    let hot_fraction = hot_fraction.clamp(0.0, 1.0);
    for r in 0..petals {
        for _ in 0..rows_per_relation {
            let hub = if rng.random::<f64>() < hot_fraction {
                0
            } else {
                1 + popular(hub_domain - 1, rng)
            };
            let petal = rng.random_range(0..petal_domain);
            inst.relation_mut(r)
                .add(vec![hub, petal], 1)
                .expect("valid tuple");
        }
    }
    (query, inst)
}

/// A **correlated pair star**: two "wide" relations
/// `R0(k, kk, p0)` and `R1(k, kk, p1)` sharing the join attributes
/// `(k, kk)`, plus `satellites` small relations `S_r(k, t_r)` joined on
/// `k` alone — where `kk = k mod fanout` is a **functional dependency**
/// of `k`.
///
/// This shape breaks the classical independence assumption of join-size
/// estimates: under independence the pair join is estimated as
/// `|R0|·|R1| / (v(k)·v(kk))`, dividing by *both* shared attributes'
/// distinct counts, but since `kk` is determined by `k` the second factor
/// is pure fiction — matching on `k` already implies matching on `kk`, so
/// the true cardinality is larger than the estimate by roughly
/// `fanout`×.  The fat, two-attribute-key `R0 ⋈ R1` pair makes this a
/// stress workload for the sub-join lattice's value checks against the
/// naive engine.
///
/// `pair_rows` rows are generated for each of `R0`/`R1` (keys uniform over
/// `0..keys`, payloads uniform over `0..payloads`); each satellite holds
/// one row per key.  The expected estimate error on the pair is
/// `≈ fanout`.
pub fn correlated_pair<R: Rng>(
    satellites: usize,
    keys: u64,
    fanout: u64,
    pair_rows: usize,
    payloads: u64,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    let keys = keys.max(1);
    let fanout = fanout.clamp(1, keys);
    let payloads = payloads.max(1);
    let mut attrs = vec![
        Attribute::new("k", keys),
        Attribute::new("kk", fanout),
        Attribute::new("p0", payloads),
        Attribute::new("p1", payloads),
    ];
    for r in 0..satellites {
        attrs.push(Attribute::new(format!("t{r}"), 16));
    }
    let schema = Schema::new(attrs);
    let mut rel_attrs = vec![
        vec![AttrId(0), AttrId(1), AttrId(2)],
        vec![AttrId(0), AttrId(1), AttrId(3)],
    ];
    for r in 0..satellites {
        rel_attrs.push(vec![AttrId(0), AttrId(4 + r as u16)]);
    }
    let query = JoinQuery::new(schema, rel_attrs).expect("correlated pair query");
    let mut inst = Instance::empty_for(&query).expect("schema matches");
    for side in 0..2 {
        for _ in 0..pair_rows {
            let k = rng.random_range(0..keys);
            let p = rng.random_range(0..payloads);
            inst.relation_mut(side)
                .add(vec![k, k % fanout, p], 1)
                .expect("valid tuple");
        }
    }
    for r in 0..satellites {
        for k in 0..keys {
            let t = rng.random_range(0..16);
            inst.relation_mut(2 + r)
                .add(vec![k, t], 1)
                .expect("valid tuple");
        }
    }
    (query, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_relational::join_size;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn social_network_is_valid_and_skewed() {
        let (q, inst) = social_network(64, 300, 200, &mut rng());
        assert!(inst.validate(&q).is_ok());
        assert_eq!(inst.input_size(), 500);
        // Popular users make the join noticeably larger than a uniform pairing
        // would suggest.
        assert!(join_size(&q, &inst).unwrap() > 300);
        // Skew: the local sensitivity is well above the average degree.
        let ls = dpsyn_sensitivity::local_sensitivity(&q, &inst).unwrap();
        assert!(ls >= 10, "ls = {ls}");
    }

    #[test]
    fn retail_star_shape() {
        let (q, inst) = retail_star(32, 100, &mut rng());
        assert_eq!(q.num_relations(), 3);
        assert!(q.is_hierarchical());
        assert!(inst.validate(&q).is_ok());
        assert_eq!(inst.input_size(), 300);
    }

    #[test]
    fn org_hierarchy_shape() {
        let (q, inst) = org_hierarchy(16, 120, 80, &mut rng());
        assert!(inst.validate(&q).is_ok());
        assert_eq!(inst.input_size(), 200);
        assert_eq!(q.num_relations(), 2);
    }

    #[test]
    fn scenarios_are_reproducible() {
        let (_, a) = social_network(64, 100, 100, &mut rng());
        let (_, b) = social_network(64, 100, 100, &mut rng());
        assert_eq!(a, b);
        let (_, a) = heavy_hitter_star(3, 32, 80, 0.6, &mut rng());
        let (_, b) = heavy_hitter_star(3, 32, 80, 0.6, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_hitter_star_is_heavily_imbalanced() {
        let (q, inst) = heavy_hitter_star(3, 32, 120, 0.5, &mut rng());
        assert_eq!(q.num_relations(), 3);
        assert!(q.is_hierarchical());
        assert!(inst.validate(&q).is_ok());
        // The heavy hitter (hub 0) absorbs far more than its uniform share
        // of every relation's weight.
        for r in 0..3 {
            let rel = inst.relation(r);
            let hot: u64 = rel.iter().filter(|(t, _)| t[0] == 0).map(|(_, f)| f).sum();
            let total: u64 = rel.iter().map(|(_, f)| f).sum();
            assert!(
                hot * 4 > total,
                "relation {r}: hot {hot} of {total} is not a heavy hitter"
            );
        }
        // Skew shows up in the join: far larger than a uniform star.
        assert!(join_size(&q, &inst).unwrap() > 10_000);
    }

    #[test]
    fn correlated_pair_breaks_independence_estimates() {
        let (q, inst) = correlated_pair(3, 64, 16, 512, 8, &mut rng());
        assert_eq!(q.num_relations(), 5);
        assert!(inst.validate(&q).is_ok());
        // Satellites: one row per key.
        for r in 2..5 {
            assert_eq!(inst.relation(r).distinct_count() as u64, 64);
        }
        // The independence estimate for R0 ⋈ R1 divides by the distinct
        // counts of BOTH shared attributes (k and kk), but kk = k mod 16 is
        // functionally dependent on k — so the true pair join must beat the
        // estimate by a wide margin (≈ fanout×).
        let r0 = inst.relation(0);
        let r1 = inst.relation(1);
        let distinct = |rel: &dpsyn_relational::Relation, pos: usize| {
            rel.iter()
                .map(|(t, _)| t[pos])
                .collect::<std::collections::BTreeSet<u64>>()
                .len() as f64
        };
        let est = (r0.distinct_count() as f64) * (r1.distinct_count() as f64)
            / (distinct(r0, 0).max(distinct(r1, 0)) * distinct(r0, 1).max(distinct(r1, 1)));
        let actual = dpsyn_relational::join_subset(&q, &inst, &[0, 1])
            .unwrap()
            .distinct_count() as f64;
        assert!(
            actual >= 8.0 * est,
            "pair join {actual} does not break the independence estimate {est}"
        );
        // Reproducible from the seed, like every other scenario.
        let (_, a) = correlated_pair(3, 64, 16, 512, 8, &mut rng());
        let (_, b) = correlated_pair(3, 64, 16, 512, 8, &mut rng());
        assert_eq!(a, b);
    }
}

//! Random instance generators (uniform and Zipf-skewed).

use dpsyn_relational::{Instance, JoinQuery, Value};
use rand::Rng;

/// Draws a value in `0..domain` from a Zipf-like distribution with exponent
/// `theta` (`theta = 0` is uniform; larger values are more skewed).  Uses the
/// standard inverse-CDF-by-table method over the (small) domain.
pub(crate) fn zipf_value<R: Rng>(domain: u64, theta: f64, rng: &mut R) -> Value {
    if theta <= 0.0 || domain <= 1 {
        return rng.random_range(0..domain.max(1));
    }
    // Cumulative weights 1/(i+1)^theta.
    let weights: Vec<f64> = (0..domain)
        .map(|i| 1.0 / ((i + 1) as f64).powf(theta))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut target = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if target < *w {
            return i as u64;
        }
        target -= w;
    }
    domain - 1
}

/// A uniform random two-table instance: `tuples_per_relation` tuples per
/// relation, attribute values drawn uniformly from domains of size
/// `domain_size`.
pub fn random_two_table<R: Rng>(
    domain_size: u64,
    tuples_per_relation: usize,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    zipf_two_table(domain_size, tuples_per_relation, 0.0, rng)
}

/// A Zipf-skewed two-table instance: the shared join attribute `B` is drawn
/// from a Zipf distribution with exponent `theta`, so a few join values carry
/// most of the degree mass (the regime where uniformization helps).
pub fn zipf_two_table<R: Rng>(
    domain_size: u64,
    tuples_per_relation: usize,
    theta: f64,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    let query = JoinQuery::two_table(domain_size, domain_size, domain_size);
    let mut inst = Instance::empty_for(&query).expect("schema matches");
    for _ in 0..tuples_per_relation {
        let a = rng.random_range(0..domain_size);
        let b = zipf_value(domain_size, theta, rng);
        inst.relation_mut(0)
            .add(vec![a, b], 1)
            .expect("valid tuple");
        let b2 = zipf_value(domain_size, theta, rng);
        let c = rng.random_range(0..domain_size);
        inst.relation_mut(1)
            .add(vec![b2, c], 1)
            .expect("valid tuple");
    }
    (query, inst)
}

/// A random path (chain) join `R_1(A_0, A_1) ⋈ … ⋈ R_m(A_{m-1}, A_m)`:
/// every shared attribute drawn Zipf(θ), end attributes uniform.  The chain
/// shape is the lattice's stress case — non-adjacent relation subsets are
/// attribute-disjoint, so the fixed-prefix decomposition routes lazy lattice
/// walks through cross products.
pub fn random_path<R: Rng>(
    m: usize,
    domain_size: u64,
    tuples_per_relation: usize,
    theta: f64,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    let query = JoinQuery::path(m, domain_size).expect("m >= 1");
    let mut inst = Instance::empty_for(&query).expect("schema matches");
    for rel in 0..m {
        for _ in 0..tuples_per_relation {
            let left = if rel == 0 {
                rng.random_range(0..domain_size)
            } else {
                zipf_value(domain_size, theta, rng)
            };
            let right = if rel + 1 == m {
                rng.random_range(0..domain_size)
            } else {
                zipf_value(domain_size, theta, rng)
            };
            inst.relation_mut(rel)
                .add(vec![left, right], 1)
                .expect("valid tuple");
        }
    }
    (query, inst)
}

/// A random star join with `m` petal relations sharing a hub attribute, hub
/// values drawn Zipf(θ).
pub fn random_star<R: Rng>(
    m: usize,
    domain_size: u64,
    tuples_per_relation: usize,
    theta: f64,
    rng: &mut R,
) -> (JoinQuery, Instance) {
    let query = JoinQuery::star(m, domain_size).expect("m >= 1");
    let mut inst = Instance::empty_for(&query).expect("schema matches");
    for rel in 0..m {
        for _ in 0..tuples_per_relation {
            let hub = zipf_value(domain_size, theta, rng);
            let petal = rng.random_range(0..domain_size);
            inst.relation_mut(rel)
                .add(vec![hub, petal], 1)
                .expect("valid tuple");
        }
    }
    (query, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn uniform_two_table_has_requested_size() {
        let (q, inst) = random_two_table(16, 100, &mut rng());
        assert!(inst.validate(&q).is_ok());
        assert_eq!(inst.relation(0).total(), 100);
        assert_eq!(inst.relation(1).total(), 100);
    }

    #[test]
    fn zipf_skew_concentrates_degrees() {
        let mut r = rng();
        let (q, uniform) = zipf_two_table(32, 400, 0.0, &mut r);
        let (_, skewed) = zipf_two_table(32, 400, 1.5, &mut r);
        let max_deg =
            |inst: &Instance| dpsyn_sensitivity::two_table_local_sensitivity(&q, inst).unwrap();
        assert!(
            max_deg(&skewed) > max_deg(&uniform),
            "skewed {} vs uniform {}",
            max_deg(&skewed),
            max_deg(&uniform)
        );
    }

    #[test]
    fn path_generator_matches_query_shape() {
        let (q, inst) = random_path(4, 16, 30, 1.0, &mut rng());
        assert_eq!(q.num_relations(), 4);
        assert!(inst.validate(&q).is_ok());
        assert_eq!(inst.input_size(), 120);
        // Reproducible from the seed.
        let (_, again) = random_path(4, 16, 30, 1.0, &mut rng());
        assert_eq!(inst, again);
    }

    #[test]
    fn star_generator_matches_query_shape() {
        let (q, inst) = random_star(3, 16, 50, 1.0, &mut rng());
        assert_eq!(q.num_relations(), 3);
        assert!(inst.validate(&q).is_ok());
        assert_eq!(inst.input_size(), 150);
    }

    #[test]
    fn generators_are_reproducible() {
        let (_, a) = zipf_two_table(16, 64, 1.0, &mut rng());
        let (_, b) = zipf_two_table(16, 64, 1.0, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_value_stays_in_domain() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(zipf_value(8, 2.0, &mut r) < 8);
            assert!(zipf_value(1, 2.0, &mut r) == 0);
        }
    }
}

//! Seeded streaming-update generators: insert/delete batches over any
//! generated instance, for exercising the engine's streaming updates
//! ([`dpsyn_relational::stream`]).
//!
//! [`update_stream`] produces a *sequence* of [`UpdateBatch`]es that are
//! valid when applied in order (every delete retracts a tuple that exists
//! at that point in the stream), over whatever shape the caller generated —
//! the chain/star/heavy-hitter scenarios of [`crate::scenarios`], the
//! random instances of [`crate::random`], or anything else.  Like every
//! generator in this crate, output is a pure function of the RNG seed.

use crate::random::zipf_value;
use dpsyn_relational::{apply_batch, Instance, JoinQuery, UpdateBatch, UpdateOp, Value};
use rand::Rng;

/// Knobs for [`update_stream`]: how many batches, how big, the
/// insert/delete mix and the value skew.
#[derive(Debug, Clone, Copy)]
pub struct UpdateStreamConfig {
    /// Number of batches in the stream.
    pub batches: usize,
    /// Ops per batch.
    pub batch_size: usize,
    /// Fraction of ops that delete an existing tuple (the rest insert);
    /// clamped to `[0, 1]`.  When nothing is left to delete, an op falls
    /// back to an insert.
    pub delete_fraction: f64,
    /// Zipf exponent for inserted attribute values and for which existing
    /// tuples get deleted (`0.0` = uniform; larger = more skew, piling
    /// updates onto the hot join values the scenario shapes already have).
    pub theta: f64,
}

impl Default for UpdateStreamConfig {
    /// Eight mixed batches of 16 ops, one-third deletes, mild skew.
    fn default() -> Self {
        UpdateStreamConfig {
            batches: 8,
            batch_size: 16,
            delete_fraction: 1.0 / 3.0,
            theta: 1.0,
        }
    }
}

/// Generates a seeded stream of insert/delete batches over `instance`.
///
/// Batches are valid **in sequence**: the generator tracks the evolving
/// instance internally, so the `k`-th batch only deletes tuples that exist
/// after batches `0..k` have been applied.  Inserts draw each attribute
/// value Zipf(`theta`) from its domain (so updates concentrate on hot
/// values under skew); deletes pick an existing tuple with Zipf(`theta`)
/// rank over the relation's sorted tuple order and retract one copy.
/// Callers replay the stream with [`dpsyn_relational::apply_batch`], or
/// with `ExecContext::apply_updates` / `Session::apply_updates` on a
/// context whose caches it then invalidates.
pub fn update_stream<R: Rng>(
    query: &JoinQuery,
    instance: &Instance,
    config: UpdateStreamConfig,
    rng: &mut R,
) -> Vec<UpdateBatch> {
    let m = query.num_relations();
    let schema = query.schema();
    let delete_fraction = config.delete_fraction.clamp(0.0, 1.0);
    let mut live = instance.clone();
    let mut stream = Vec::with_capacity(config.batches);
    for _ in 0..config.batches {
        let mut batch = UpdateBatch::new();
        for _ in 0..config.batch_size {
            let want_delete = rng.random::<f64>() < delete_fraction;
            // A delete needs a non-empty relation; fall back to an insert
            // when the stream has drained everything.
            let victim = if want_delete {
                pick_victim(&live, config.theta, rng)
            } else {
                None
            };
            let op = match victim {
                Some((relation, tuple)) => UpdateOp::Delete {
                    relation,
                    tuple,
                    count: 1,
                },
                None => {
                    let relation = rng.random_range(0..m);
                    let attrs = live.relation(relation).attrs().to_vec();
                    let tuple: Vec<Value> = attrs
                        .iter()
                        .map(|&a| {
                            let domain = schema.domain_size(a).expect("attr in schema");
                            zipf_value(domain, config.theta, rng)
                        })
                        .collect();
                    UpdateOp::Insert {
                        relation,
                        tuple,
                        count: 1 + rng.random_range(0..3),
                    }
                }
            };
            // Keep the tracked instance in lock-step so later ops in this
            // same batch (and later batches) stay valid.
            let mut single = UpdateBatch::new();
            single.push(op.clone());
            apply_batch(query, &mut live, &single).expect("generated op is valid by construction");
            batch.push(op);
        }
        stream.push(batch);
    }
    stream
}

/// Picks `(relation, tuple)` to delete: a uniformly random non-empty
/// relation, then a Zipf(`theta`)-ranked tuple of its sorted order.
fn pick_victim<R: Rng>(live: &Instance, theta: f64, rng: &mut R) -> Option<(usize, Vec<Value>)> {
    let non_empty: Vec<usize> = (0..live.num_relations())
        .filter(|&r| live.relation(r).distinct_count() > 0)
        .collect();
    if non_empty.is_empty() {
        return None;
    }
    let relation = non_empty[rng.random_range(0..non_empty.len())];
    let rel = live.relation(relation);
    let rank = zipf_value(rel.distinct_count() as u64, theta, rng) as usize;
    let (tuple, _) = rel.iter().nth(rank).expect("rank < distinct_count");
    Some((relation, tuple.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::heavy_hitter_star;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn stream_is_reproducible_and_valid_in_sequence() {
        let (q, inst) = crate::random::random_path(3, 16, 40, 1.0, &mut rng());
        let config = UpdateStreamConfig {
            batches: 6,
            batch_size: 10,
            delete_fraction: 0.5,
            theta: 1.2,
        };
        let stream = update_stream(&q, &inst, config, &mut rng());
        assert_eq!(stream.len(), 6);
        assert!(stream.iter().all(|b| b.len() == 10));
        // Reproducible from the seed.
        let again = update_stream(&q, &inst, config, &mut rng());
        assert_eq!(stream, again);
        // Every batch applies cleanly at its position in the stream.
        let mut live = inst.clone();
        for batch in &stream {
            apply_batch(&q, &mut live, batch).expect("valid in sequence");
        }
        assert!(live.validate(&q).is_ok());
    }

    #[test]
    fn delete_fraction_extremes_behave() {
        let (q, inst) = crate::random::random_star(3, 16, 30, 0.5, &mut rng());
        let all_inserts = update_stream(
            &q,
            &inst,
            UpdateStreamConfig {
                delete_fraction: 0.0,
                ..UpdateStreamConfig::default()
            },
            &mut rng(),
        );
        assert!(all_inserts
            .iter()
            .flat_map(|b| b.ops())
            .all(|op| matches!(op, UpdateOp::Insert { .. })));
        // Few enough deletes that the 90-copy instance never drains.
        let all_deletes = update_stream(
            &q,
            &inst,
            UpdateStreamConfig {
                batches: 4,
                batch_size: 10,
                delete_fraction: 1.0,
                theta: 1.0,
            },
            &mut rng(),
        );
        assert!(all_deletes
            .iter()
            .flat_map(|b| b.ops())
            .all(|op| matches!(op, UpdateOp::Delete { .. })));
        let mut live = inst.clone();
        for batch in &all_deletes {
            apply_batch(&q, &mut live, batch).expect("deletes target live tuples");
        }
    }

    #[test]
    fn drained_instance_falls_back_to_inserts() {
        // A tiny instance with fewer tuples than the delete stream wants:
        // once drained, ops must fall back to inserts instead of panicking.
        let q = JoinQuery::two_table(8, 8, 8);
        let mut inst = Instance::empty_for(&q).unwrap();
        inst.relation_mut(0).add(vec![1, 1], 1).unwrap();
        inst.relation_mut(1).add(vec![1, 1], 1).unwrap();
        let stream = update_stream(
            &q,
            &inst,
            UpdateStreamConfig {
                batches: 2,
                batch_size: 8,
                delete_fraction: 1.0,
                theta: 0.0,
            },
            &mut rng(),
        );
        let inserts = stream
            .iter()
            .flat_map(|b| b.ops())
            .filter(|op| matches!(op, UpdateOp::Insert { .. }))
            .count();
        assert!(inserts > 0, "drained stream must produce inserts");
        let mut live = inst.clone();
        for batch in &stream {
            apply_batch(&q, &mut live, batch).unwrap();
        }
    }

    #[test]
    fn streams_over_scenario_shapes_apply_cleanly() {
        let (q, inst) = heavy_hitter_star(3, 32, 200, 0.3, &mut rng());
        let stream = update_stream(&q, &inst, UpdateStreamConfig::default(), &mut rng());
        let mut live = inst.clone();
        for batch in &stream {
            apply_batch(&q, &mut live, batch).unwrap();
        }
        assert!(live.validate(&q).is_ok());
    }
}

//! Frequency-annotated relations `R_i : D_i → Z≥0`.
//!
//! Following Section 1.1 of the paper, a relation is a function from its tuple
//! domain to non-negative integers (tuple frequencies / annotations).  This is
//! strictly more general than a set-valued relation and is the object over
//! which neighbouring instances (Definition 1.1) are defined: two relations
//! are neighbours if exactly one tuple's frequency changes by exactly one.

use std::collections::{BTreeMap, BTreeSet};

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::hash::FxHashMap;
use crate::tuple::{project_into, project_positions, project_with_positions, TupleKey, Value};
use crate::Result;

/// A frequency-annotated relation over a sorted list of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    attrs: Vec<AttrId>,
    freqs: BTreeMap<Vec<Value>, u64>,
}

impl Relation {
    /// Creates an empty relation over the given attribute list.
    ///
    /// The list must be non-empty, sorted and duplicate-free.
    pub fn new(attrs: Vec<AttrId>) -> Result<Self> {
        if attrs.is_empty() {
            return Err(RelationalError::InvalidAttributeList(
                "relation must have at least one attribute".to_string(),
            ));
        }
        for w in attrs.windows(2) {
            if w[0] >= w[1] {
                return Err(RelationalError::InvalidAttributeList(format!(
                    "relation attributes must be strictly increasing, found {} then {}",
                    w[0], w[1]
                )));
            }
        }
        Ok(Relation {
            attrs,
            freqs: BTreeMap::new(),
        })
    }

    /// Creates a relation and inserts the given `(tuple, frequency)` pairs.
    pub fn from_tuples(
        attrs: Vec<AttrId>,
        tuples: impl IntoIterator<Item = (Vec<Value>, u64)>,
    ) -> Result<Self> {
        let mut rel = Relation::new(attrs)?;
        for (t, f) in tuples {
            rel.add(t, f)?;
        }
        Ok(rel)
    }

    /// The relation's attribute list `x_i` (sorted).
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Adds `freq` to the frequency of `tuple`.
    pub fn add(&mut self, tuple: Vec<Value>, freq: u64) -> Result<()> {
        if tuple.len() != self.attrs.len() {
            return Err(RelationalError::ArityMismatch {
                expected: self.attrs.len(),
                got: tuple.len(),
            });
        }
        if freq == 0 {
            return Ok(());
        }
        *self.freqs.entry(tuple).or_insert(0) += freq;
        Ok(())
    }

    /// Adds a single copy of `tuple` (frequency `+1`).
    pub fn add_one(&mut self, tuple: Vec<Value>) -> Result<()> {
        self.add(tuple, 1)
    }

    /// Removes a single copy of `tuple` (frequency `-1`).
    ///
    /// Fails with [`RelationalError::FrequencyUnderflow`] if the tuple has
    /// frequency zero.
    pub fn remove_one(&mut self, tuple: &[Value]) -> Result<()> {
        if tuple.len() != self.attrs.len() {
            return Err(RelationalError::ArityMismatch {
                expected: self.attrs.len(),
                got: tuple.len(),
            });
        }
        match self.freqs.get_mut(tuple) {
            Some(f) if *f > 1 => {
                *f -= 1;
                Ok(())
            }
            Some(_) => {
                self.freqs.remove(tuple);
                Ok(())
            }
            None => Err(RelationalError::FrequencyUnderflow),
        }
    }

    /// Sets the frequency of `tuple` to exactly `freq` (removing it if zero).
    pub fn set(&mut self, tuple: Vec<Value>, freq: u64) -> Result<()> {
        if tuple.len() != self.attrs.len() {
            return Err(RelationalError::ArityMismatch {
                expected: self.attrs.len(),
                got: tuple.len(),
            });
        }
        if freq == 0 {
            self.freqs.remove(&tuple);
        } else {
            self.freqs.insert(tuple, freq);
        }
        Ok(())
    }

    /// Frequency of a tuple (zero if absent).
    pub fn freq(&self, tuple: &[Value]) -> u64 {
        self.freqs.get(tuple).copied().unwrap_or(0)
    }

    /// Total frequency mass `Σ_t R(t)` — the relation's contribution to the
    /// input size `n`.
    pub fn total(&self) -> u64 {
        self.freqs.values().sum()
    }

    /// Number of distinct tuples with non-zero frequency.
    pub fn distinct_count(&self) -> usize {
        self.freqs.len()
    }

    /// Returns `true` when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Iterates over `(tuple, frequency)` pairs in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, u64)> {
        self.freqs.iter().map(|(t, &f)| (t, f))
    }

    /// The degree map onto attribute subset `y ⊆ x_i`:
    /// `deg_{i,y}(t) = Σ_{t' : π_y t' = t} R_i(t')`.
    ///
    /// For `y = ∅` the map has a single entry keyed by the empty tuple whose
    /// value is [`Relation::total`].
    pub fn degree_map(&self, onto: &[AttrId]) -> Result<BTreeMap<Vec<Value>, u64>> {
        // Accumulate in a hash map (O(1) probes), emit sorted.
        Ok(self
            .degree_map_key(onto)?
            .into_iter()
            .map(|(k, f)| (k.to_vec(), f))
            .collect())
    }

    /// The degree map as a hash map keyed by the projected [`TupleKey`] — the
    /// order-free fast path behind [`Relation::degree_map`] and
    /// [`Relation::max_degree`].
    pub fn degree_map_key(&self, onto: &[AttrId]) -> Result<FxHashMap<TupleKey, u64>> {
        let positions = project_positions(&self.attrs, onto)?;
        let mut out: FxHashMap<TupleKey, u64> = FxHashMap::default();
        let mut scratch: Vec<Value> = Vec::with_capacity(positions.len());
        for (t, f) in self.iter() {
            project_into(t, &positions, &mut scratch);
            match out.get_mut(scratch.as_slice()) {
                Some(total) => *total = total.saturating_add(f),
                None => {
                    out.insert(TupleKey::from_slice(&scratch), f);
                }
            }
        }
        if onto.is_empty() && out.is_empty() {
            out.insert(TupleKey::from_slice(&[]), 0);
        }
        Ok(out)
    }

    /// Maximum degree onto `y`: `max_t deg_{i,y}(t)` (zero for an empty relation).
    /// Never sorts: a pure fold over the hash groups.
    pub fn max_degree(&self, onto: &[AttrId]) -> Result<u64> {
        Ok(self
            .degree_map_key(onto)?
            .values()
            .copied()
            .max()
            .unwrap_or(0))
    }

    /// Restricts the relation to tuples whose projection onto `onto` lies in
    /// `allowed`.  This is the sub-relation `R_i^j` used by the partition
    /// procedures (Algorithms 5 and 7).
    pub fn restrict(&self, onto: &[AttrId], allowed: &BTreeSet<Vec<Value>>) -> Result<Relation> {
        let positions = project_positions(&self.attrs, onto)?;
        let mut out = Relation::new(self.attrs.clone())?;
        for (t, f) in self.iter() {
            let key = project_with_positions(t, &positions);
            if allowed.contains(&key) {
                out.add(t.clone(), f)?;
            }
        }
        Ok(out)
    }

    /// Retains only tuples satisfying `pred` (given the tuple and frequency).
    pub fn filter(&self, mut pred: impl FnMut(&[Value], u64) -> bool) -> Result<Relation> {
        let mut out = Relation::new(self.attrs.clone())?;
        for (t, f) in self.iter() {
            if pred(t, f) {
                out.add(t.clone(), f)?;
            }
        }
        Ok(out)
    }

    /// Validates every tuple's values against the per-attribute domain sizes.
    pub fn validate_domains(&self, domain_size_of: impl Fn(AttrId) -> u64) -> Result<()> {
        for (t, _) in self.iter() {
            for (pos, attr) in self.attrs.iter().enumerate() {
                let ds = domain_size_of(*attr);
                if t[pos] >= ds {
                    return Err(RelationalError::ValueOutOfDomain {
                        attr: attr.0,
                        value: t[pos],
                        domain_size: ds,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn sample() -> Relation {
        Relation::from_tuples(
            ids(&[0, 1]),
            vec![
                (vec![0, 0], 2),
                (vec![0, 1], 1),
                (vec![1, 1], 3),
                (vec![2, 0], 1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_attrs() {
        assert!(Relation::new(ids(&[0, 1])).is_ok());
        assert!(Relation::new(vec![]).is_err());
        assert!(Relation::new(ids(&[1, 0])).is_err());
        assert!(Relation::new(ids(&[1, 1])).is_err());
    }

    #[test]
    fn add_and_freq() {
        let r = sample();
        assert_eq!(r.freq(&[0, 0]), 2);
        assert_eq!(r.freq(&[5, 5]), 0);
        assert_eq!(r.total(), 7);
        assert_eq!(r.distinct_count(), 4);
    }

    #[test]
    fn arity_checked() {
        let mut r = sample();
        assert!(r.add(vec![1], 1).is_err());
        assert!(r.add(vec![1, 2, 3], 1).is_err());
    }

    #[test]
    fn add_remove_one_roundtrip() {
        let mut r = sample();
        r.add_one(vec![0, 0]).unwrap();
        assert_eq!(r.freq(&[0, 0]), 3);
        r.remove_one(&[0, 0]).unwrap();
        assert_eq!(r.freq(&[0, 0]), 2);
        r.remove_one(&[0, 1]).unwrap();
        assert_eq!(r.freq(&[0, 1]), 0);
        assert!(r.remove_one(&[0, 1]).is_err());
    }

    #[test]
    fn zero_frequency_not_stored() {
        let mut r = Relation::new(ids(&[0])).unwrap();
        r.add(vec![3], 0).unwrap();
        assert_eq!(r.distinct_count(), 0);
        r.set(vec![3], 5).unwrap();
        assert_eq!(r.distinct_count(), 1);
        r.set(vec![3], 0).unwrap();
        assert_eq!(r.distinct_count(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn degree_map_matches_definition() {
        let r = sample();
        // deg onto attribute 0
        let d = r.degree_map(&ids(&[0])).unwrap();
        assert_eq!(d.get(&vec![0]).copied(), Some(3));
        assert_eq!(d.get(&vec![1]).copied(), Some(3));
        assert_eq!(d.get(&vec![2]).copied(), Some(1));
        // deg onto attribute 1
        let d = r.degree_map(&ids(&[1])).unwrap();
        assert_eq!(d.get(&vec![0]).copied(), Some(3));
        assert_eq!(d.get(&vec![1]).copied(), Some(4));
        // empty projection sums everything
        let d = r.degree_map(&[]).unwrap();
        assert_eq!(d.get(&Vec::new()).copied(), Some(7));
        assert_eq!(r.max_degree(&ids(&[1])).unwrap(), 4);
    }

    #[test]
    fn restrict_keeps_only_allowed() {
        let r = sample();
        let mut allowed = BTreeSet::new();
        allowed.insert(vec![1u64]);
        let sub = r.restrict(&ids(&[1]), &allowed).unwrap();
        assert_eq!(sub.total(), 4);
        assert_eq!(sub.freq(&[0, 1]), 1);
        assert_eq!(sub.freq(&[1, 1]), 3);
        assert_eq!(sub.freq(&[0, 0]), 0);
    }

    #[test]
    fn filter_keeps_matching_tuples() {
        let r = sample();
        let only_heavy = r.filter(|_, f| f >= 2).unwrap();
        assert_eq!(only_heavy.total(), 5);
    }

    #[test]
    fn validate_domains_flags_violations() {
        let r = sample();
        assert!(r.validate_domains(|_| 10).is_ok());
        assert!(r.validate_domains(|_| 2).is_err());
    }
}

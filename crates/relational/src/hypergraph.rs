//! Join queries as hypergraphs `H = (x, {x_1, …, x_m})`.
//!
//! The hypergraph view of a natural join query (Section 1.1) drives every
//! structural computation in the paper: boundaries `∂E` of relation subsets
//! (Section 3.3), connectivity of residual joins (Section 4.2.1), the
//! hierarchical-query test (Section 4.2), and the fractional edge cover used
//! for the worst-case bound (Appendix B.3).

use crate::attr::{AttrId, Schema};
use crate::error::RelationalError;
use crate::tuple::{diff_attrs, intersect_attrs, union_attrs};
use crate::Result;

/// A natural join query over a schema: one hyperedge (attribute list) per
/// relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinQuery {
    schema: Schema,
    rel_attrs: Vec<Vec<AttrId>>,
}

impl JoinQuery {
    /// Builds a join query.  Each relation's attribute list must be non-empty,
    /// sorted, duplicate-free and refer only to schema attributes.
    pub fn new(schema: Schema, rel_attrs: Vec<Vec<AttrId>>) -> Result<Self> {
        if rel_attrs.is_empty() {
            return Err(RelationalError::EmptyQuery);
        }
        for attrs in &rel_attrs {
            schema.check_attr_list(attrs)?;
        }
        Ok(JoinQuery { schema, rel_attrs })
    }

    /// Convenience constructor for the canonical two-table query of Section 3.1:
    /// `x = {A, B, C}`, `x_1 = {A, B}`, `x_2 = {B, C}`.
    pub fn two_table(dom_a: u64, dom_b: u64, dom_c: u64) -> Self {
        let schema = Schema::new(vec![
            crate::attr::Attribute::new("A", dom_a),
            crate::attr::Attribute::new("B", dom_b),
            crate::attr::Attribute::new("C", dom_c),
        ]);
        JoinQuery::new(
            schema,
            vec![vec![AttrId(0), AttrId(1)], vec![AttrId(1), AttrId(2)]],
        )
        .expect("two-table query is always valid")
    }

    /// Path join `R_1(A_0, A_1) ⋈ R_2(A_1, A_2) ⋈ … ⋈ R_m(A_{m-1}, A_m)` with a
    /// uniform per-attribute domain size.
    pub fn path(m: usize, domain_size: u64) -> Result<Self> {
        if m == 0 {
            return Err(RelationalError::EmptyQuery);
        }
        let names: Vec<String> = (0..=m).map(|i| format!("A{i}")).collect();
        let attrs = names
            .iter()
            .map(|n| crate::attr::Attribute::new(n.clone(), domain_size))
            .collect();
        let schema = Schema::new(attrs);
        let rels = (0..m)
            .map(|i| vec![AttrId(i as u16), AttrId(i as u16 + 1)])
            .collect();
        JoinQuery::new(schema, rels)
    }

    /// Star join `R_1(B, A_1) ⋈ R_2(B, A_2) ⋈ … ⋈ R_m(B, A_m)`: every relation
    /// shares the hub attribute `B` (attribute 0).
    pub fn star(m: usize, domain_size: u64) -> Result<Self> {
        if m == 0 {
            return Err(RelationalError::EmptyQuery);
        }
        let mut attrs = vec![crate::attr::Attribute::new("B", domain_size)];
        for i in 1..=m {
            attrs.push(crate::attr::Attribute::new(format!("A{i}"), domain_size));
        }
        let schema = Schema::new(attrs);
        let rels = (1..=m).map(|i| vec![AttrId(0), AttrId(i as u16)]).collect();
        JoinQuery::new(schema, rels)
    }

    /// Triangle join `R_1(A,B) ⋈ R_2(B,C) ⋈ R_3(A,C)` — the classic
    /// non-hierarchical cyclic query.
    pub fn triangle(domain_size: u64) -> Self {
        let schema = Schema::uniform(&["A", "B", "C"], domain_size);
        JoinQuery::new(
            schema,
            vec![
                vec![AttrId(0), AttrId(1)],
                vec![AttrId(1), AttrId(2)],
                vec![AttrId(0), AttrId(2)],
            ],
        )
        .expect("triangle query is always valid")
    }

    /// The schema (global attribute set `x`).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of relations `m`.
    pub fn num_relations(&self) -> usize {
        self.rel_attrs.len()
    }

    /// Attribute list of relation `i` (the hyperedge `x_i`).
    pub fn relation_attrs(&self, i: usize) -> &[AttrId] {
        &self.rel_attrs[i]
    }

    /// All relation attribute lists.
    pub fn relations(&self) -> &[Vec<AttrId>] {
        &self.rel_attrs
    }

    /// All attributes of the query (sorted).
    pub fn all_attrs(&self) -> Vec<AttrId> {
        self.schema.all_ids()
    }

    /// `atom(x)`: the set of relation indices whose hyperedge contains `x`.
    pub fn atom(&self, x: AttrId) -> Vec<usize> {
        self.rel_attrs
            .iter()
            .enumerate()
            .filter(|(_, attrs)| attrs.binary_search(&x).is_ok())
            .map(|(i, _)| i)
            .collect()
    }

    /// Union of attribute lists of the relation subset `e`.
    pub fn union_attrs(&self, e: &[usize]) -> Result<Vec<AttrId>> {
        self.check_subset(e)?;
        let mut out: Vec<AttrId> = Vec::new();
        for &i in e {
            out = union_attrs(&out, &self.rel_attrs[i]);
        }
        Ok(out)
    }

    /// Intersection of attribute lists of the relation subset `e`
    /// (`⋂_{i∈E} x_i`).  Returns the empty list for an empty subset.
    pub fn intersect_attrs(&self, e: &[usize]) -> Result<Vec<AttrId>> {
        self.check_subset(e)?;
        let mut iter = e.iter();
        let first = match iter.next() {
            Some(&i) => self.rel_attrs[i].clone(),
            None => return Ok(Vec::new()),
        };
        Ok(iter.fold(first, |acc, &i| intersect_attrs(&acc, &self.rel_attrs[i])))
    }

    /// Boundary `∂E`: attributes shared between a relation inside `e` and a
    /// relation outside `e`.  For `e = [m]` (or `e = ∅`) the boundary is empty.
    pub fn boundary(&self, e: &[usize]) -> Result<Vec<AttrId>> {
        self.check_subset(e)?;
        let inside = self.union_attrs(e)?;
        let outside: Vec<usize> = (0..self.num_relations())
            .filter(|i| !e.contains(i))
            .collect();
        let outside_attrs = self.union_attrs_allow_empty(&outside);
        Ok(intersect_attrs(&inside, &outside_attrs))
    }

    fn union_attrs_allow_empty(&self, e: &[usize]) -> Vec<AttrId> {
        let mut out: Vec<AttrId> = Vec::new();
        for &i in e {
            out = union_attrs(&out, &self.rel_attrs[i]);
        }
        out
    }

    /// Connected components of the residual join `H_{E,y}`: the relation
    /// subset `e` where the attributes `removed` have been deleted from every
    /// hyperedge.  Two relations are adjacent when they still share an
    /// attribute outside `removed`.
    pub fn connected_components(&self, e: &[usize], removed: &[AttrId]) -> Result<Vec<Vec<usize>>> {
        self.check_subset(e)?;
        let residual: Vec<Vec<AttrId>> = e
            .iter()
            .map(|&i| diff_attrs(&self.rel_attrs[i], removed))
            .collect();
        let n = e.len();
        let mut component = vec![usize::MAX; n];
        let mut next = 0usize;
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let id = next;
            next += 1;
            let mut stack = vec![start];
            component[start] = id;
            while let Some(u) = stack.pop() {
                for v in 0..n {
                    if component[v] == usize::MAX
                        && !intersect_attrs(&residual[u], &residual[v]).is_empty()
                    {
                        component[v] = id;
                        stack.push(v);
                    }
                }
            }
        }
        let mut comps: Vec<Vec<usize>> = vec![Vec::new(); next];
        for (local, &c) in component.iter().enumerate() {
            comps[c].push(e[local]);
        }
        Ok(comps)
    }

    /// Whether the residual join `H_{E,y}` is connected.
    pub fn is_connected(&self, e: &[usize], removed: &[AttrId]) -> Result<bool> {
        Ok(self.connected_components(e, removed)?.len() <= 1)
    }

    /// The hierarchical-query test of Section 4.2: for every pair of
    /// attributes `x, y`, `atom(x)` and `atom(y)` must be nested or disjoint.
    pub fn is_hierarchical(&self) -> bool {
        let attrs = self.all_attrs();
        for (i, &x) in attrs.iter().enumerate() {
            let ax = self.atom(x);
            for &y in &attrs[i + 1..] {
                let ay = self.atom(y);
                let inter: Vec<usize> = ax.iter().filter(|v| ay.contains(v)).copied().collect();
                let nested_or_disjoint =
                    inter.is_empty() || inter.len() == ax.len() || inter.len() == ay.len();
                if !nested_or_disjoint {
                    return false;
                }
            }
        }
        true
    }

    /// Validates a relation-index subset (indices in range and strictly increasing).
    pub fn check_subset(&self, e: &[usize]) -> Result<()> {
        for w in e.windows(2) {
            if w[0] >= w[1] {
                return Err(RelationalError::InvalidRelationSubset(format!(
                    "relation subset must be strictly increasing, found {} then {}",
                    w[0], w[1]
                )));
            }
        }
        for &i in e {
            if i >= self.num_relations() {
                return Err(RelationalError::InvalidRelationSubset(format!(
                    "relation index {i} out of range (m = {})",
                    self.num_relations()
                )));
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

    #[test]
    fn two_table_shape() {
        let q = JoinQuery::two_table(4, 4, 4);
        assert_eq!(q.num_relations(), 2);
        assert_eq!(q.relation_attrs(0), ids(&[0, 1]).as_slice());
        assert_eq!(q.relation_attrs(1), ids(&[1, 2]).as_slice());
        assert_eq!(q.atom(AttrId(1)), vec![0, 1]);
        assert_eq!(q.atom(AttrId(0)), vec![0]);
    }

    #[test]
    fn boundary_of_subsets() {
        let q = JoinQuery::path(3, 4).unwrap(); // R1(A0,A1) R2(A1,A2) R3(A2,A3)
        assert_eq!(q.boundary(&[0]).unwrap(), ids(&[1]));
        assert_eq!(q.boundary(&[1]).unwrap(), ids(&[1, 2]));
        assert_eq!(q.boundary(&[0, 1]).unwrap(), ids(&[2]));
        assert_eq!(q.boundary(&[0, 1, 2]).unwrap(), Vec::<AttrId>::new());
        assert_eq!(q.boundary(&[]).unwrap(), Vec::<AttrId>::new());
    }

    #[test]
    fn union_and_intersection() {
        let q = JoinQuery::path(3, 4).unwrap();
        assert_eq!(q.union_attrs(&[0, 2]).unwrap(), ids(&[0, 1, 2, 3]));
        assert_eq!(q.intersect_attrs(&[0, 1]).unwrap(), ids(&[1]));
        assert_eq!(q.intersect_attrs(&[0, 2]).unwrap(), Vec::<AttrId>::new());
        assert_eq!(q.intersect_attrs(&[]).unwrap(), Vec::<AttrId>::new());
    }

    #[test]
    fn connectivity_of_residual_joins() {
        let q = JoinQuery::path(3, 4).unwrap();
        // Removing A1 disconnects {R1} from {R2}.
        assert!(!q.is_connected(&[0, 1], &ids(&[1])).unwrap());
        assert!(q.is_connected(&[0, 1], &[]).unwrap());
        // The full path is connected; removing the middle attribute A2 splits
        // {R1, R2} from {R3}.
        let comps = q.connected_components(&[0, 1, 2], &ids(&[2])).unwrap();
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![0, 1]));
        assert!(comps.contains(&vec![2]));
    }

    #[test]
    fn hierarchical_detection() {
        // Two-table join: atom(A)={0}, atom(B)={0,1}, atom(C)={1} — hierarchical.
        assert!(JoinQuery::two_table(4, 4, 4).is_hierarchical());
        // Star join is hierarchical.
        assert!(JoinQuery::star(3, 4).unwrap().is_hierarchical());
        // Path of length 3 is NOT hierarchical: atom(A1)={0,1}, atom(A2)={1,2}
        // overlap without nesting.
        assert!(!JoinQuery::path(3, 4).unwrap().is_hierarchical());
        // Triangle is not hierarchical either.
        assert!(!JoinQuery::triangle(4).is_hierarchical());
        // The Figure 4 query is hierarchical.
        let schema = Schema::uniform(&["A", "B", "C", "D", "F", "G", "K", "L"], 4);
        let q = JoinQuery::new(
            schema,
            vec![
                ids(&[0, 1, 3]),    // {A,B,D}
                ids(&[0, 1, 4]),    // {A,B,F}
                ids(&[0, 1, 5, 6]), // {A,B,G,K}
                ids(&[0, 1, 5, 7]), // {A,B,G,L}
                ids(&[0, 2]),       // {A,C}
            ],
        )
        .unwrap();
        assert!(q.is_hierarchical());
    }

    #[test]
    fn invalid_construction_rejected() {
        let schema = Schema::uniform(&["A", "B"], 4);
        assert!(JoinQuery::new(schema.clone(), vec![]).is_err());
        assert!(JoinQuery::new(schema.clone(), vec![ids(&[0, 5])]).is_err());
        let q = JoinQuery::new(schema, vec![ids(&[0, 1])]).unwrap();
        assert!(q.check_subset(&[0]).is_ok());
        assert!(q.check_subset(&[1]).is_err());
        assert!(q.check_subset(&[0, 0]).is_err());
    }
}

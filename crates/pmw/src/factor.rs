//! Factorized evaluation of product queries over the dense joint domain.
//!
//! A product query weighs a cell `x` of `dom(x)` by `Π_i q_i(π_{x_i} x)`, so
//! it never needs more than one value per tuple of each relation's own
//! domain `dom(x_i)` (the factorized-evaluation idea of Olteanu & Schleich,
//! "Factorized Databases", SIGMOD Record 2016):
//!
//! * a **factor table** holds `q_i` evaluated once over `dom(x_i)`, row-major
//!   over the relation's attributes — 64 entries for a relation over two
//!   attributes of domain 8, against 4,096 cells of the joint domain;
//! * a cell's **offset** into each table is `Σ v_a · stride_a` over the
//!   relation's attributes, maintained by stride arithmetic while
//!   [`Factorization::for_each_chunk`] walks the cells in row-major order;
//! * a cell's weight is the product of its table entries, multiplied left to
//!   right with the `+0.0` exit at the first zero partial product — the exact
//!   order of [`JointEvaluator::weight`], so every weight has the same bits.
//!
//! PMW keeps one weight per cell per query for its whole run.  Sign,
//! predicate and counting queries take at most three distinct values, so
//! [`QueryWeights`] stores a `u8` code per cell into a **palette** of the
//! query's distinct values (8× less memory than an `f64` per cell); only a
//! query with more than [`PALETTE_SIZE`] distinct products keeps a dense
//! `f64` vector.

use std::ops::Range;

use dpsyn_query::{JointEvaluator, ProductQuery, QueryFamily};
use dpsyn_relational::tuple::project_positions;
use dpsyn_relational::{AttrId, JoinQuery, JoinResult, Value};

use crate::Result;

/// Most distinct values a palette-coded query may take (one `u8` code).
pub(crate) const PALETTE_SIZE: usize = 256;

/// Cells per chunk of [`Factorization::for_each_chunk`].
const CHUNK: usize = 1024;

/// The factor-table layout of a join query over a histogram's cells.
#[derive(Debug, Clone)]
pub(crate) struct Factorization {
    /// Domain size of each histogram position (at least 1).
    dims: Vec<usize>,
    /// Per histogram position, per relation: the position's stride in that
    /// relation's factor table (0 when the relation lacks the attribute).
    strides: Vec<Vec<usize>>,
    /// Per relation: the domain sizes of its attributes, in relation order.
    rel_dims: Vec<Vec<usize>>,
    cells: usize,
}

impl Factorization {
    /// The layout of `query`'s relations over cells indexed row-major by
    /// `attrs` (sorted) with domain sizes `dims`.
    pub(crate) fn new(query: &JoinQuery, attrs: &[AttrId], dims: &[u64]) -> Result<Self> {
        let dims: Vec<usize> = dims.iter().map(|&d| d.max(1) as usize).collect();
        let m = query.num_relations();
        let mut strides = vec![vec![0usize; m]; dims.len()];
        let rel_dims = (0..m)
            .map(|i| {
                let positions = project_positions(attrs, query.relation_attrs(i))?;
                let mut stride = 1usize;
                for &p in positions.iter().rev() {
                    strides[p][i] += stride;
                    stride *= dims[p];
                }
                Ok(positions.iter().map(|&p| dims[p]).collect())
            })
            .collect::<Result<Vec<_>>>()?;
        let cells = dims.iter().product();
        Ok(Factorization {
            dims,
            strides,
            rel_dims,
            cells,
        })
    }

    /// Number of cells `|dom(x)|`.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// `q`'s factor tables: component `q_i` evaluated over every tuple of
    /// `dom(x_i)`, row-major over relation `i`'s attributes.
    pub(crate) fn tables(&self, query: &JoinQuery, q: &ProductQuery) -> Result<Vec<Vec<f64>>> {
        q.validate(query)?;
        Ok(self
            .rel_dims
            .iter()
            .zip(q.components())
            .map(|(dims, component)| {
                let size: usize = dims.iter().product();
                let mut tuple: Vec<Value> = vec![0; dims.len()];
                let mut table = Vec::with_capacity(size);
                for _ in 0..size {
                    table.push(component.eval(&tuple));
                    odometer(&mut tuple, dims);
                }
                table
            })
            .collect())
    }

    /// Walks the cells in row-major order, [`CHUNK`] at a time: calls
    /// `f(cells, offsets)` where `offsets[i][k]` is cell `cells.start + k`'s
    /// index into relation `i`'s factor table.  Each offset is computed once,
    /// by stride arithmetic along each row of the last attribute, and the
    /// buffers stay a few KiB at any domain size.
    pub(crate) fn for_each_chunk(&self, mut f: impl FnMut(Range<usize>, &[Vec<usize>])) {
        let m = self.rel_dims.len();
        let (row_len, step, prefix) = match self.dims.split_last() {
            Some((&row_len, prefix)) => (row_len, self.strides[prefix.len()].clone(), prefix),
            None => (1, vec![0; m], &[][..]),
        };
        // The first cell of the current row, and the walk's place in it.
        let mut tuple = vec![0usize; prefix.len()];
        let mut base = vec![0usize; m];
        let mut v = 0usize;
        let mut chunk = vec![Vec::with_capacity(CHUNK); m];
        for start in (0..self.cells).step_by(CHUNK) {
            let end = (start + CHUNK).min(self.cells);
            for c in &mut chunk {
                c.clear();
            }
            let mut x = start;
            while x < end {
                let n = (row_len - v).min(end - x);
                for ((c, &b), &s) in chunk.iter_mut().zip(&base).zip(&step) {
                    c.extend((v..v + n).map(|u| b + u * s));
                }
                x += n;
                v += n;
                if v == row_len {
                    v = 0;
                    self.next_row(&mut tuple, &mut base);
                }
            }
            f(start..end, &chunk);
        }
    }

    /// Steps the row prefix `tuple` to the next row (its last position
    /// fastest), moving each row's base offsets by the strides that changed.
    fn next_row(&self, tuple: &mut [usize], base: &mut [usize]) {
        for p in (0..tuple.len()).rev() {
            tuple[p] += 1;
            if tuple[p] < self.dims[p] {
                for (b, s) in base.iter_mut().zip(&self.strides[p]) {
                    *b += s;
                }
                return;
            }
            for (b, s) in base.iter_mut().zip(&self.strides[p]) {
                *b -= (self.dims[p] - 1) * s;
            }
            tuple[p] = 0;
        }
    }

    /// The cell of a tuple read at `positions`, or `None` when a value lies
    /// outside its attribute's domain.
    fn cell_of(&self, tuple: &[Value], positions: &[usize]) -> Option<usize> {
        let mut cell = 0usize;
        for (&p, &d) in positions.iter().zip(&self.dims) {
            let v = tuple[p];
            if v >= d as u64 {
                return None;
            }
            cell = cell * d + v as usize;
        }
        Some(cell)
    }
}

/// Row-major increment of `tuple` over `dims` (last position fastest).
fn odometer(tuple: &mut [Value], dims: &[usize]) {
    for p in (0..tuple.len()).rev() {
        tuple[p] += 1;
        if tuple[p] < dims[p] as u64 {
            return;
        }
        tuple[p] = 0;
    }
}

/// `Π_i tables[i][offsets[i][k]]`: the weight of a chunk's `k`-th cell.
#[inline]
pub(crate) fn cell_weight(tables: &[Vec<f64>], offsets: &[Vec<usize>], k: usize) -> f64 {
    product(tables.iter().zip(offsets).map(|(t, o)| t[o[k]]))
}

/// The product of `factors`, multiplied left to right with the `+0.0` exit
/// at the first zero partial product (see [`JointEvaluator::weight`]).
#[inline]
fn product(factors: impl Iterator<Item = f64>) -> f64 {
    let mut w = 1.0;
    for f in factors {
        w *= f;
        if w == 0.0 {
            return 0.0;
        }
    }
    w
}

/// The distinct values of `values` (by bits) and each value's code, or
/// `None` when there are more than [`PALETTE_SIZE`] of them.
fn palette_of(values: &[f64]) -> Option<(Vec<f64>, Vec<u8>)> {
    let mut bits: Vec<u64> = Vec::new();
    for v in values {
        if let Err(at) = bits.binary_search(&v.to_bits()) {
            if bits.len() == PALETTE_SIZE {
                return None;
            }
            bits.insert(at, v.to_bits());
        }
    }
    let codes = values
        .iter()
        .map(|v| {
            let (Ok(code) | Err(code)) = bits.binary_search(&v.to_bits());
            code as u8
        })
        .collect();
    Some((bits.into_iter().map(f64::from_bits).collect(), codes))
}

/// One query's per-cell weights `x ↦ Π_i q_i(π_{x_i} x)`, held for a PMW run.
#[derive(Debug, Clone)]
pub(crate) enum QueryWeights {
    /// Cell `x` weighs `palette[codes[x]]`.
    Palette {
        /// The query's distinct weights.
        palette: Vec<f64>,
        /// One code per cell.
        codes: Vec<u8>,
    },
    /// More than [`PALETTE_SIZE`] distinct weights: one `f64` per cell.
    Dense(Vec<f64>),
}

/// How one query's weights are filled during the shared cell walk.
enum Builder {
    /// Every relation's table takes few distinct values, so a cell's weight
    /// is a function of its per-relation codes: `codes[i] = (n_i, c_i)`
    /// holds relation `i`'s palette size and each table entry's code, and
    /// `combo` maps the mixed-radix number of a cell's codes (relation 0
    /// most significant) to its palette code.
    Combos {
        codes: Vec<(usize, Vec<u8>)>,
        combo: Vec<u8>,
        palette: Vec<f64>,
        out: Vec<u8>,
    },
    /// The general case: the product of the table entries, per cell.
    Direct {
        tables: Vec<Vec<f64>>,
        out: Vec<f64>,
    },
}

impl Builder {
    fn new(tables: Vec<Vec<f64>>, cells: usize) -> Self {
        Self::combos(&tables, cells).unwrap_or_else(|| Builder::Direct {
            tables,
            out: Vec::with_capacity(cells),
        })
    }

    /// The combination table, when the per-relation palettes span no more
    /// combinations than there are cells and at most [`PALETTE_SIZE`]
    /// distinct products.
    fn combos(tables: &[Vec<f64>], cells: usize) -> Option<Self> {
        let mut palettes = Vec::with_capacity(tables.len());
        let mut combos = 1usize;
        for table in tables {
            let (palette, codes) = palette_of(table)?;
            combos = combos.checked_mul(palette.len()).filter(|&c| c <= cells)?;
            palettes.push((palette, codes));
        }
        let mut products = Vec::with_capacity(combos);
        let mut digits = vec![0u64; palettes.len()];
        let radices: Vec<usize> = palettes.iter().map(|(p, _)| p.len()).collect();
        for _ in 0..combos {
            products.push(product(
                palettes
                    .iter()
                    .zip(&digits)
                    .map(|((p, _), &d)| p[d as usize]),
            ));
            odometer(&mut digits, &radices);
        }
        let (palette, combo) = palette_of(&products)?;
        let codes = palettes.into_iter().map(|(p, c)| (p.len(), c)).collect();
        Some(Builder::Combos {
            codes,
            combo,
            palette,
            out: Vec::with_capacity(cells),
        })
    }

    /// Appends the weights of one chunk of `len` cells.
    fn extend(&mut self, len: usize, offsets: &[Vec<usize>], index: &mut Vec<usize>) {
        match self {
            Builder::Combos {
                codes, combo, out, ..
            } => {
                index.clear();
                index.resize(len, 0);
                let mut radix = combo.len();
                for ((n, c), o) in codes.iter().zip(offsets) {
                    radix /= n;
                    for (i, &o) in index.iter_mut().zip(o) {
                        *i += c[o] as usize * radix;
                    }
                }
                out.extend(index.iter().map(|&i| combo[i]));
            }
            Builder::Direct { tables, out } => {
                out.extend((0..len).map(|k| cell_weight(tables, offsets, k)));
            }
        }
    }

    fn finish(self) -> QueryWeights {
        match self {
            Builder::Combos { palette, out, .. } => QueryWeights::Palette {
                palette,
                codes: out,
            },
            Builder::Direct { out, .. } => match palette_of(&out) {
                Some((palette, codes)) => QueryWeights::Palette { palette, codes },
                None => QueryWeights::Dense(out),
            },
        }
    }
}

impl QueryWeights {
    /// Every query's weights, filled in one walk over the cells.
    pub(crate) fn build(
        fz: &Factorization,
        query: &JoinQuery,
        family: &QueryFamily,
    ) -> Result<Vec<QueryWeights>> {
        let mut builders = family
            .iter()
            .map(|q| Ok(Builder::new(fz.tables(query, q)?, fz.cells())))
            .collect::<Result<Vec<_>>>()?;
        let mut index = Vec::new();
        fz.for_each_chunk(|cells, offsets| {
            for b in &mut builders {
                b.extend(cells.len(), offsets, &mut index);
            }
        });
        Ok(builders.into_iter().map(Builder::finish).collect())
    }

    /// The weight of cell `x`.
    #[inline]
    fn at(&self, x: usize) -> f64 {
        match self {
            QueryWeights::Palette { palette, codes } => palette[codes[x] as usize],
            QueryWeights::Dense(w) => w[x],
        }
    }

    /// Resident bytes of the per-cell weights.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        match self {
            QueryWeights::Palette { palette, codes } => 8 * palette.len() + codes.len(),
            QueryWeights::Dense(w) => 8 * w.len(),
        }
    }

    /// The multiplicative-weights step `F(x) ← F(x) · exp(q(x) · η)`, with
    /// one `exp` per palette entry; returns the new mass `Σ_x F(x)`, summed
    /// in cell order.
    pub(crate) fn reweight(&self, cells: &mut [f64], eta: f64) -> f64 {
        // -0.0 is the neutral element `Iterator::sum::<f64>` starts from.
        let mut mass = -0.0;
        match self {
            QueryWeights::Palette { palette, codes } => {
                let mut factors = [0.0; PALETTE_SIZE];
                for (e, w) in factors.iter_mut().zip(palette) {
                    *e = (w * eta).exp();
                }
                for (f, &c) in cells.iter_mut().zip(codes) {
                    *f *= factors[c as usize];
                    mass += *f;
                }
            }
            QueryWeights::Dense(weights) => {
                for (f, w) in cells.iter_mut().zip(weights) {
                    *f *= (w * eta).exp();
                    mass += *f;
                }
            }
        }
        mass
    }
}

/// Answers every query on the histogram `cells`: `out[j] = Σ_x F(x) · q_j(x)`
/// in cell order.  Palette-coded queries are scored [`BLOCK`] at a time in
/// one pass with one accumulator each, so the adds of different queries
/// overlap instead of running one latency-bound chain at a time.
pub(crate) fn answer_all(weights: &[QueryWeights], cells: &[f64], out: &mut [f64]) {
    let mut coded = Vec::with_capacity(weights.len());
    for (j, w) in weights.iter().enumerate() {
        match w {
            QueryWeights::Palette { palette, codes } => coded.push((j, palette, codes)),
            QueryWeights::Dense(w) => out[j] = cells.iter().zip(w).map(|(f, w)| f * w).sum(),
        }
    }
    let mut blocks = coded.chunks_exact(BLOCK);
    for block in &mut blocks {
        let sums = answer_block::<BLOCK>(
            cells,
            std::array::from_fn(|k| (&block[k].1[..], &block[k].2[..])),
        );
        for (&(j, _, _), s) in block.iter().zip(sums) {
            out[j] = s;
        }
    }
    for &(j, palette, codes) in blocks.remainder() {
        out[j] = answer_block::<1>(cells, [(&palette[..], &codes[..])])[0];
    }
}

/// Queries scored per pass by [`answer_all`].
const BLOCK: usize = 8;

/// `Σ_x F(x) · palette_k[codes_k[x]]` for each of `N` queries, each summed
/// in cell order from `-0.0`, the neutral element `Iterator::sum::<f64>`
/// starts from.
fn answer_block<const N: usize>(cells: &[f64], queries: [(&[f64], &[u8]); N]) -> [f64; N] {
    // Full-size palettes and codes cut to the cell count let the compiler
    // drop every bounds check from the inner loop.
    let palettes: [[f64; PALETTE_SIZE]; N] = std::array::from_fn(|k| padded(queries[k].0));
    let codes: [&[u8]; N] = std::array::from_fn(|k| &queries[k].1[..cells.len()]);
    let mut sums = [-0.0f64; N];
    for (x, &f) in cells.iter().enumerate() {
        for k in 0..N {
            sums[k] += f * palettes[k][codes[k][x] as usize];
        }
    }
    sums
}

/// `values` padded with zeros to [`PALETTE_SIZE`] entries.
fn padded(values: &[f64]) -> [f64; PALETTE_SIZE] {
    let mut out = [0.0; PALETTE_SIZE];
    out[..values.len()].copy_from_slice(values);
    out
}

/// The true answers `Σ_t J(t) · q_j(t)` over the join rows: one walk over
/// the rows with one accumulator per query, each summed in row order from
/// `0.0`.  An in-domain row reads its cell's weight from `weights`; a row
/// with a value outside its attribute's domain has no cell, and is
/// evaluated directly with [`JointEvaluator::weight`].
pub(crate) fn true_answers(
    fz: &Factorization,
    attrs: &[AttrId],
    query: &JoinQuery,
    join_result: &JoinResult,
    family: &QueryFamily,
    weights: &[QueryWeights],
) -> Result<Vec<f64>> {
    let positions = project_positions(join_result.attrs(), attrs)?;
    let evaluator = JointEvaluator::new(query, join_result.attrs())?;
    let mut scratch = Vec::new();
    let mut totals = vec![0.0; weights.len()];
    for (t, w) in join_result.iter_unordered() {
        let w = w as f64;
        match fz.cell_of(t, &positions) {
            Some(x) => {
                for (total, qw) in totals.iter_mut().zip(weights) {
                    *total += w * qw.at(x);
                }
            }
            None => {
                for (total, q) in totals.iter_mut().zip(family.iter()) {
                    *total += w * evaluator.weight(q, t, &mut scratch);
                }
            }
        }
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::{Histogram, DEFAULT_MAX_CELLS};
    use dpsyn_query::RelationQuery;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn layout(query: &JoinQuery) -> (Histogram, Factorization) {
        let h = Histogram::zeros(query, DEFAULT_MAX_CELLS).unwrap();
        let fz = h.factorization(query).unwrap();
        (h, fz)
    }

    /// Every walked offset equals the row-major index of the cell's
    /// projection, across chunk boundaries that split rows.
    #[test]
    fn walked_offsets_index_each_cells_projection() {
        for query in [
            JoinQuery::two_table(9, 11, 13),
            JoinQuery::star(3, 6).unwrap(),
            JoinQuery::triangle(5),
        ] {
            let (h, fz) = layout(&query);
            let mut next = 0;
            fz.for_each_chunk(|cells, offsets| {
                assert_eq!(cells.start, next);
                next = cells.end;
                for (k, x) in cells.enumerate() {
                    let t = h.tuple_of(x);
                    for (i, o) in offsets.iter().enumerate() {
                        let positions =
                            project_positions(h.attrs(), query.relation_attrs(i)).unwrap();
                        let expected = positions.iter().fold(0, |acc, &p| {
                            let d = query.schema().domain_size(h.attrs()[p]).unwrap();
                            acc * d as usize + t[p] as usize
                        });
                        assert_eq!(o[k], expected, "cell {x} relation {i}");
                    }
                }
            });
            assert_eq!(next, h.len());
        }
    }

    fn sparse(values: impl Iterator<Item = ((u64, u64), f64)>, default: f64) -> RelationQuery {
        let weights: BTreeMap<Vec<Value>, f64> =
            values.map(|((u, v), w)| (vec![u, v], w)).collect();
        RelationQuery::sparse(weights, default).unwrap()
    }

    /// Each representation holds every cell's weight bit for bit.
    #[test]
    fn weights_take_the_smallest_exact_representation() {
        let query = JoinQuery::two_table(6, 8, 7);
        let (h, fz) = layout(&query);
        let grid = |a: u64, b: u64| (0..a).flat_map(move |u| (0..b).map(move |v| (u, v)));
        let queries = vec![
            // Counting and sign products: one and two palette entries.
            ProductQuery::counting(2),
            ProductQuery::new(vec![
                RelationQuery::SignHash { seed: 1 },
                RelationQuery::SignHash { seed: 2 },
            ]),
            // 20 values per relation: 400 combinations outnumber the 336
            // cells, so products are taken per cell, and few are distinct.
            ProductQuery::new(vec![
                sparse(
                    grid(6, 8).map(|(u, v)| ((u, v), ((u * 8 + v) % 20) as f64 / 20.0)),
                    0.0,
                ),
                sparse(
                    grid(8, 7).map(|(u, v)| ((u, v), ((u * 7 + v) % 20) as f64 / 20.0)),
                    0.0,
                ),
            ]),
            // Every tuple its own weight: more than 256 distinct products.
            ProductQuery::new(vec![
                sparse(
                    grid(6, 8).map(|(u, v)| ((u, v), ((u * 8 + v) as f64 / 50.0).sin())),
                    0.0,
                ),
                sparse(
                    grid(8, 7).map(|(u, v)| ((u, v), ((u * 7 + v) as f64 / 60.0).cos())),
                    0.0,
                ),
            ]),
        ];
        let family = QueryFamily::new(&query, queries).unwrap();
        let weights = QueryWeights::build(&fz, &query, &family).unwrap();
        let palette_len: Vec<Option<usize>> = weights
            .iter()
            .map(|w| match w {
                QueryWeights::Palette { palette, .. } => Some(palette.len()),
                QueryWeights::Dense(_) => None,
            })
            .collect();
        assert_eq!(palette_len[0], Some(1));
        assert_eq!(palette_len[1], Some(2));
        assert!(palette_len[2].is_some_and(|n| n > 2 && n <= PALETTE_SIZE));
        assert_eq!(palette_len[3], None);

        let evaluator = JointEvaluator::full_domain(&query).unwrap();
        let mut scratch = Vec::new();
        for (q, w) in family.iter().zip(&weights) {
            for x in 0..h.len() {
                let got = match w {
                    QueryWeights::Palette { palette, codes } => palette[codes[x] as usize],
                    QueryWeights::Dense(d) => d[x],
                };
                let expected = evaluator.weight(q, &h.tuple_of(x), &mut scratch);
                assert_eq!(got.to_bits(), expected.to_bits(), "cell {x}");
            }
        }
    }

    /// A 16-query sign workload over 4,096 cells holds 64 KiB of codes
    /// where dense vectors would hold 512 KiB.
    #[test]
    fn sign_workloads_hold_one_byte_per_cell_per_query() {
        let query = JoinQuery::star(3, 8).unwrap();
        let (h, fz) = layout(&query);
        assert_eq!(h.len(), 4096);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let family = QueryFamily::random_sign(&query, 16, &mut rng).unwrap();
        let weights = QueryWeights::build(&fz, &query, &family).unwrap();
        let bytes: usize = weights.iter().map(QueryWeights::bytes).sum();
        let palettes = 8 * (1 + 2 * 15);
        assert_eq!(bytes, 16 * 4096 + palettes);
    }
}

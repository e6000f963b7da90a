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
//! predicate and counting queries take at most three distinct values, so a
//! query's weights are a **palette** of its distinct values and a palette
//! code per cell.  [`QueryWeights`] packs the codes of queries that fit in
//! one byte: consecutive palette-coded queries, at most eight, whose palette
//! sizes multiply to at most [`PALETTE_SIZE`] form a **group** with one
//! mixed-radix `u8` code per cell and a 256-row table whose row `b` holds
//! each member's weight under code `b`.  Sixteen sign queries over 4,096
//! cells are two groups: 8 KiB of codes and 32 KiB of tables, where an `f64`
//! per cell per query would take 512 KiB.  Only a query with more than
//! [`PALETTE_SIZE`] distinct products keeps a dense `f64` vector.
//!
//! A PMW round reads the groups:
//!
//! * **scoring** reads one table row per cell and group and adds
//!   `F(x) · row[l]` into lane `l`, one lane per member, so each query's
//!   answer is the same chain of IEEE operations, in cell order, as a
//!   per-query sum; the lanes vectorise, and several groups share a pass so
//!   that their chains overlap;
//! * the **mass lane** sums the histogram's mass in the scoring pass, as
//!   `-0.0 + F(0) · 1.0 + F(1) · 1.0 + …`, which is [`Histogram::total`]
//!   operation for operation (`F · 1.0 == F` exactly): the lane of a query
//!   whose palette is exactly `[1.0]` (the counting query), else one more
//!   chain `+= F(x)` beside the first pass's sums.  So scoring also yields
//!   the mass the round renormalises to;
//! * **reweighting** by one query reads its factor `exp(η · w)` through a
//!   256-entry table indexed by its group's code, filled from one `exp`
//!   per palette entry, and sums the new mass in cell order; the
//!   renormalising pass then scales each cell and adds it to the running
//!   sum of iterates, with no sum of its own.

use std::ops::Range;

use dpsyn_query::{JointEvaluator, ProductQuery, QueryFamily};
use dpsyn_relational::tuple::project_positions;
use dpsyn_relational::{AttrId, JoinQuery, JoinResult, Value};

use crate::histogram::Histogram;
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

/// One query's per-cell weights, as the shared cell walk leaves them.
enum Coded {
    /// Cell `x` weighs `palette[codes[x]]`.
    Palette { palette: Vec<f64>, codes: Vec<u8> },
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

    fn finish(self) -> Coded {
        match self {
            Builder::Combos { palette, out, .. } => Coded::Palette {
                palette,
                codes: out,
            },
            Builder::Direct { out, .. } => match palette_of(&out) {
                Some((palette, codes)) => Coded::Palette { palette, codes },
                None => Coded::Dense(out),
            },
        }
    }
}

/// Most queries one code byte packs.
const LANES: usize = 8;

/// Palette-coded queries, consecutive in family order, that share one code
/// byte per cell.
#[derive(Debug, Clone)]
struct Group {
    /// The members, in family order.
    members: Vec<Member>,
    /// One mixed-radix code per cell: the sum of each member's palette code
    /// times its place.
    codes: Vec<u8>,
    /// The lanes of a row: the member count rounded up to a power of two.
    width: usize,
    /// [`PALETTE_SIZE`] rows of `width` lanes: row `b` holds each member's
    /// weight under code `b`, in member order, padded with zeros.
    rows: Vec<f64>,
}

/// One query of a [`Group`].
#[derive(Debug, Clone)]
struct Member {
    /// The query's index in its family.
    query: usize,
    /// The product of the palette sizes of the members before it.
    place: usize,
    /// The query's distinct weights.
    palette: Vec<f64>,
}

impl Member {
    /// `per_entry` indexed by code: entry `b` is `per_entry[d]` for the
    /// member's digit `d = (b / place) % palette.len()` of `b`.
    fn expand(&self, per_entry: &[f64]) -> [f64; PALETTE_SIZE] {
        let mut out = [0.0; PALETTE_SIZE];
        let (mut digit, mut step) = (0, 0);
        for e in &mut out {
            *e = per_entry[digit];
            step += 1;
            if step == self.place {
                step = 0;
                digit += 1;
                if digit == self.palette.len() {
                    digit = 0;
                }
            }
        }
        out
    }
}

impl Group {
    /// Packs `queries` (index, palette, per-cell palette codes), whose
    /// palette sizes multiply to at most [`PALETTE_SIZE`], into one code
    /// per cell, the first query least significant.
    fn pack(queries: Vec<(usize, Vec<f64>, Vec<u8>)>, cells: usize) -> Group {
        let mut codes = vec![0u8; cells];
        let mut members = Vec::with_capacity(queries.len());
        let mut place = 1;
        for (query, palette, digits) in queries {
            for (code, &d) in codes.iter_mut().zip(&digits) {
                *code += (d as usize * place) as u8;
            }
            let radix = palette.len();
            members.push(Member {
                query,
                place,
                palette,
            });
            place *= radix;
        }
        let width = members.len().next_power_of_two();
        let mut rows = vec![0.0; PALETTE_SIZE * width];
        for (l, m) in members.iter().enumerate() {
            for (row, w) in rows.chunks_exact_mut(width).zip(m.expand(&m.palette)) {
                row[l] = w;
            }
        }
        Group {
            members,
            codes,
            width,
            rows,
        }
    }

    /// Row `b`: each member's weight under code `b`.
    fn row(&self, b: u8) -> &[f64] {
        &self.rows[b as usize * self.width..][..self.width]
    }
}

/// Where one query's weights live in a [`QueryWeights`].
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Lane `lane` of group `group`.
    Lane { group: usize, lane: usize },
    /// Entry `index` of the dense queries.
    Dense(usize),
}

/// The per-cell weights `x ↦ Π_i q_i(π_{x_i} x)` of every query of a
/// workload over a histogram's cells, as [`crate::Pmw::run`] holds them for
/// its rounds and memoises them in its context.
///
/// Palette-coded queries are packed, in family order, into groups of at
/// most eight whose palette sizes multiply to at most 256.  A group keeps
/// one mixed-radix `u8` code per cell and a 256-row table whose row `b`
/// holds each member's weight under code `b` (rows are as wide as the
/// member count rounded up to a power of two), so scoring a group reads
/// one row per cell.  A query with more than 256 distinct weights keeps a
/// dense `f64` per cell.  Scoring also sums the histogram's mass: the
/// counting query's answer, or one more chain in the first scoring pass
/// (see [`Self::answer_all`]).
#[derive(Debug, Clone)]
pub struct QueryWeights {
    cells: usize,
    groups: Vec<Group>,
    /// `(query index, weight per cell)` of each dense query.
    dense: Vec<(usize, Vec<f64>)>,
    /// Per query, in family order.
    places: Vec<Place>,
    /// The first query whose palette is exactly `[1.0]`: its answer is the
    /// histogram's mass.
    counting: Option<usize>,
}

impl QueryWeights {
    /// The weights of every query of `family` over `layout`'s cells: the
    /// same weights [`crate::Pmw::run`] memoises for that layout and family.
    /// They are filled in one walk over the cells, then packed into groups.
    pub fn new(query: &JoinQuery, layout: &Histogram, family: &QueryFamily) -> Result<Self> {
        let fz = layout.factorization(query)?;
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
        let mut weights = QueryWeights {
            cells: fz.cells(),
            groups: Vec::new(),
            dense: Vec::new(),
            places: Vec::with_capacity(builders.len()),
            counting: None,
        };
        let mut open = Vec::new();
        let mut combos = 1;
        for (query, builder) in builders.into_iter().enumerate() {
            match builder.finish() {
                Coded::Palette { palette, codes } => {
                    if open.len() == LANES || combos * palette.len() > PALETTE_SIZE {
                        let group = Group::pack(std::mem::take(&mut open), fz.cells());
                        weights.groups.push(group);
                        combos = 1;
                    }
                    weights.places.push(Place::Lane {
                        group: weights.groups.len(),
                        lane: open.len(),
                    });
                    combos *= palette.len();
                    if palette == [1.0] && weights.counting.is_none() {
                        weights.counting = Some(query);
                    }
                    open.push((query, palette, codes));
                }
                Coded::Dense(w) => {
                    weights.places.push(Place::Dense(weights.dense.len()));
                    weights.dense.push((query, w));
                }
            }
        }
        if !open.is_empty() {
            weights.groups.push(Group::pack(open, fz.cells()));
        }
        Ok(weights)
    }

    /// Answers every query on `histogram`: `out[j] = Σ_x F(x) · q_j(x)`,
    /// each summed in cell order from `-0.0`, the neutral element
    /// `Iterator::sum::<f64>` starts from.  Each answer equals
    /// [`Histogram::answer_all`]'s bit for bit.  Returns the histogram's
    /// mass as the mass lane sums it (see the module docs), which equals
    /// [`Histogram::total`] bit for bit: the mass a PMW round renormalises
    /// to.
    ///
    /// Groups are scored several per pass over the cells, reading one row
    /// per cell and group: two groups of eight lanes, four of four, four
    /// of two, or eight of one, so that the adds of different queries
    /// overlap instead of running one latency-bound chain at a time.
    /// Dense queries are scored first, one pass each.  Without a counting
    /// query, the first pass (a dense query's, else the first group pass)
    /// also sums the mass, so that chain overlaps with the pass's own.
    ///
    /// # Panics
    ///
    /// When `histogram` has another cell count than these weights, or `out`
    /// holds another number of answers than the family has queries.
    pub fn answer_all(&self, histogram: &Histogram, out: &mut [f64]) -> f64 {
        let cells = histogram.weights();
        assert_eq!(cells.len(), self.cells, "histogram over another layout");
        assert_eq!(out.len(), self.places.len(), "one answer per query");
        // Groups by row width (1, 2, 4 or 8).
        let mut widths: [Vec<&Group>; 4] = Default::default();
        for g in &self.groups {
            widths[g.width.trailing_zeros() as usize].push(g);
        }
        let mut mass = None;
        let mut dense = self.dense.iter();
        if self.counting.is_none() {
            if let Some((j, w)) = dense.next() {
                let (answer, m) = answer_dense::<true>(cells, w);
                (out[*j], mass) = (answer, Some(m));
            }
        }
        for (j, w) in dense {
            out[*j] = answer_dense::<false>(cells, w).0;
        }
        // Without a counting query or a dense one, the first width scored
        // (the widest) sums the mass in its first pass.
        let first = match (self.counting, mass) {
            (None, None) => widths.iter().rposition(|g| !g.is_empty()),
            _ => None,
        };
        let group_mass = [
            answer_groups::<2, 8>(cells, &widths[3], out, first == Some(3)),
            answer_groups::<4, 4>(cells, &widths[2], out, first == Some(2)),
            answer_groups::<4, 2>(cells, &widths[1], out, first == Some(1)),
            answer_groups::<8, 1>(cells, &widths[0], out, first == Some(0)),
        ];
        match self.counting {
            Some(j) => out[j],
            None => mass
                .or(group_mass.into_iter().flatten().next())
                .expect("a family has at least one query, so one pass"),
        }
    }

    /// One multiplicative-weights round of query `j` on `current`, followed
    /// by `average += current`; `total` is the mass of `current` before the
    /// round, as [`Self::answer_all`] returns it.
    ///
    /// Bit-identical to `current.multiplicative_update(w, eta)` followed by
    /// `average.accumulate(&current)`, where `w` is query `j`'s
    /// [`Histogram::query_weight_vector`]: the update computes one `exp`
    /// per palette entry and takes the renormalisation sum in cell order
    /// during the update pass.  The next round's mass is not summed here:
    /// the next scoring pass yields it.
    ///
    /// # Panics
    ///
    /// When either histogram has another cell count than these weights, or
    /// `j` is not a query of the family.
    pub fn update_and_accumulate(
        &self,
        j: usize,
        current: &mut Histogram,
        average: &mut Histogram,
        eta: f64,
        total: f64,
    ) {
        let cells = current.weights_mut();
        let sum = average.weights_mut();
        assert_eq!(cells.len(), self.cells, "histogram over another layout");
        assert_eq!(sum.len(), self.cells, "histogram over another layout");
        let mass = self.reweight(j, cells, eta);
        if mass > 0.0 && total >= 0.0 {
            let factor = total / mass;
            for (f, s) in cells.iter_mut().zip(sum.iter_mut()) {
                *f *= factor;
                *s += *f;
            }
        } else {
            for (f, s) in cells.iter().zip(sum.iter_mut()) {
                *s += f;
            }
        }
    }

    /// The step `F(x) ← F(x) · exp(q_j(x) · η)`; returns the new mass
    /// `Σ_x F(x)`, summed in cell order.  A palette-coded query reads its
    /// factor through a table indexed by its group's code, filled with one
    /// `exp` per palette entry.
    fn reweight(&self, j: usize, cells: &mut [f64], eta: f64) -> f64 {
        // -0.0 is the neutral element `Iterator::sum::<f64>` starts from.
        let mut mass = -0.0;
        match self.places[j] {
            Place::Lane { group, lane } => {
                let g = &self.groups[group];
                let m = &g.members[lane];
                let mut exps = [0.0; PALETTE_SIZE];
                for (e, w) in exps.iter_mut().zip(&m.palette) {
                    *e = (w * eta).exp();
                }
                let factors = m.expand(&exps);
                for (f, &c) in cells.iter_mut().zip(&g.codes) {
                    *f *= factors[c as usize];
                    mass += *f;
                }
            }
            Place::Dense(d) => {
                for (f, w) in cells.iter_mut().zip(&self.dense[d].1) {
                    *f *= (w * eta).exp();
                    mass += *f;
                }
            }
        }
        mass
    }

    /// The weight of query `j` at cell `x`.
    #[cfg(test)]
    fn weight(&self, j: usize, x: usize) -> f64 {
        match self.places[j] {
            Place::Lane { group, lane } => {
                let g = &self.groups[group];
                g.row(g.codes[x])[lane]
            }
            Place::Dense(d) => self.dense[d].1[x],
        }
    }

    /// The number of queries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.places.len()
    }

    /// Query `j`'s palette size, or `None` for a dense query.
    #[cfg(test)]
    fn palette_len(&self, j: usize) -> Option<usize> {
        match self.places[j] {
            Place::Lane { group, lane } => Some(self.groups[group].members[lane].palette.len()),
            Place::Dense(_) => None,
        }
    }

    /// Resident bytes of the per-cell weights: each group's codes, row
    /// table and palettes, and each dense query's vector.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        let groups = self.groups.iter().map(|g| {
            let palettes: usize = g.members.iter().map(|m| 8 * m.palette.len()).sum();
            g.codes.len() + 8 * g.rows.len() + palettes
        });
        let dense = self.dense.iter().map(|(_, w)| 8 * w.len());
        groups.chain(dense).sum()
    }
}

/// `Σ_x F(x) · w(x)` and, when `MASS`, `Σ_x F(x)` in the same loop, each
/// summed in cell order from `-0.0`: one dense query's pass.
fn answer_dense<const MASS: bool>(cells: &[f64], w: &[f64]) -> (f64, f64) {
    let (mut answer, mut mass) = (-0.0, -0.0);
    for (f, w) in cells.iter().zip(w) {
        answer += f * w;
        if MASS {
            mass += f;
        }
    }
    (answer, mass)
}

/// Scores `groups`, whose members fit in `N` lanes, `G` groups per pass
/// over the cells (the last few one at a time), into `out`.  With
/// `sum_mass`, the first pass also sums the mass, which is returned.
fn answer_groups<const G: usize, const N: usize>(
    cells: &[f64],
    groups: &[&Group],
    out: &mut [f64],
    sum_mass: bool,
) -> Option<f64> {
    let mut mass = None;
    let mut passes = groups.chunks_exact(G);
    for pass in &mut passes {
        let pass = std::array::from_fn(|k| pass[k]);
        let sums = if sum_mass && mass.is_none() {
            let (sums, m) = answer_rows::<G, N, true>(cells, pass);
            mass = Some(m);
            sums
        } else {
            answer_rows::<G, N, false>(cells, pass).0
        };
        scatter(&pass, &sums, out);
    }
    for &g in passes.remainder() {
        let sums = if sum_mass && mass.is_none() {
            let (sums, m) = answer_rows::<1, N, true>(cells, [g]);
            mass = Some(m);
            sums
        } else {
            answer_rows::<1, N, false>(cells, [g]).0
        };
        scatter(&[g], &sums, out);
    }
    mass
}

/// Writes each group's lane sums to its members' answers.
fn scatter<const N: usize>(groups: &[&Group], sums: &[[f64; N]], out: &mut [f64]) {
    for (g, sums) in groups.iter().zip(sums) {
        for (m, &s) in g.members.iter().zip(sums) {
            out[m.query] = s;
        }
    }
}

/// `Σ_x F(x) · rows_g[codes_g[x]][l]` for the first `N` lanes `l` of each
/// of `G` groups, each summed in cell order from `-0.0`, and, when `MASS`,
/// `Σ_x F(x)` beside them.  The lanes are independent chains of the same
/// IEEE operations as a per-query sum; the compiler vectorises each
/// group's lanes, and the `G` groups' chains overlap.
fn answer_rows<const G: usize, const N: usize, const MASS: bool>(
    cells: &[f64],
    groups: [&Group; G],
) -> ([[f64; N]; G], f64) {
    // Codes cut to the cell count and full-size row tables let the
    // compiler drop every bounds check from the inner loop.
    let codes: [&[u8]; G] = std::array::from_fn(|k| &groups[k].codes[..cells.len()]);
    let rows: [&[[f64; N]; PALETTE_SIZE]; G] = std::array::from_fn(|k| {
        let (rows, _) = groups[k].rows.as_chunks::<N>();
        rows.try_into()
            .expect("a group's rows are as wide as its lanes")
    });
    let mut sums = [[-0.0f64; N]; G];
    let mut mass = -0.0;
    for (x, &f) in cells.iter().enumerate() {
        for k in 0..G {
            for (s, w) in sums[k].iter_mut().zip(&rows[k][codes[k][x] as usize]) {
                *s += f * w;
            }
        }
        if MASS {
            mass += f;
        }
    }
    (sums, mass)
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
    weights: &QueryWeights,
) -> Result<Vec<f64>> {
    let positions = project_positions(join_result.attrs(), attrs)?;
    let evaluator = JointEvaluator::new(query, join_result.attrs())?;
    let mut scratch = Vec::new();
    let mut totals = vec![0.0; weights.places.len()];
    for (t, w) in join_result.iter_unordered() {
        let w = w as f64;
        match fz.cell_of(t, &positions) {
            Some(x) => {
                for g in &weights.groups {
                    for (m, qw) in g.members.iter().zip(g.row(g.codes[x])) {
                        totals[m.query] += w * qw;
                    }
                }
                for (j, d) in &weights.dense {
                    totals[*j] += w * d[x];
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
        let (h, _) = layout(&query);
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
        let weights = QueryWeights::new(&query, &h, &family).unwrap();
        let palette_len: Vec<Option<usize>> = (0..4).map(|j| weights.palette_len(j)).collect();
        assert_eq!(palette_len[0], Some(1));
        assert_eq!(palette_len[1], Some(2));
        assert!(palette_len[2].is_some_and(|n| n > 2 && n <= PALETTE_SIZE));
        assert_eq!(palette_len[3], None);

        let evaluator = JointEvaluator::full_domain(&query).unwrap();
        let mut scratch = Vec::new();
        for (j, q) in family.iter().enumerate() {
            for x in 0..h.len() {
                let expected = evaluator.weight(q, &h.tuple_of(x), &mut scratch);
                let got = weights.weight(j, x);
                assert_eq!(got.to_bits(), expected.to_bits(), "query {j} cell {x}");
            }
        }
    }

    /// A 16-query sign workload over 4,096 cells (the counting query and 15
    /// two-entry palettes) packs into two groups of eight: two code bytes
    /// per cell plus two 256-row tables, 40 KiB where one code byte per
    /// query held 64 KiB and dense vectors 512 KiB.
    #[test]
    fn sign_workloads_hold_two_code_bytes_per_cell_plus_group_tables() {
        let query = JoinQuery::star(3, 8).unwrap();
        let (h, _) = layout(&query);
        assert_eq!(h.len(), 4096);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let family = QueryFamily::random_sign(&query, 16, &mut rng).unwrap();
        let weights = QueryWeights::new(&query, &h, &family).unwrap();
        assert_eq!(weights.groups.len(), 2);
        assert!(weights.dense.is_empty());
        let palettes = 8 * (1 + 2 * 15);
        let tables = 2 * 256 * 8 * 8;
        assert_eq!(weights.bytes(), 2 * 4096 + tables + palettes);
    }

    /// A relation over `(B, A_i)` of `star(3, 8)` weighing `(b, a)` by
    /// `f(b, a)`.
    fn star_relation(f: impl Fn(u64, u64) -> f64) -> RelationQuery {
        let grid = (0..8).flat_map(|b| (0..8).map(move |a| (b, a)));
        sparse(grid.map(|(b, a)| ((b, a), f(b, a))), 0.0)
    }

    /// The mass [`QueryWeights::answer_all`] returns equals
    /// [`Histogram::total`] bit for bit, on a uniform histogram, along a run
    /// of updates, on an all-`+0.0` one (the update's `mass ≤ 0` branch) and
    /// on an all-`-0.0` one (where a sum from `+0.0` would differ), for the
    /// counting query's lane and for the chain beside a dense query's pass,
    /// a full group pass's and a lone group's with padded lanes; the
    /// answers stay the context-free ones.
    #[test]
    fn mass_lane_sums_the_histograms_total() {
        let query = JoinQuery::star(3, 8).unwrap();
        let (h, _) = layout(&query);
        let sign = |k: u64| {
            ProductQuery::new(
                (0..3)
                    .map(|i| RelationQuery::SignHash { seed: 3 * k + i })
                    .collect(),
            )
        };
        let palette16 = |k: u64| {
            ProductQuery::new(vec![
                star_relation(|b, a| generic(16 * k + (b * 8 + a) % 16)),
                RelationQuery::AllOne,
                RelationQuery::AllOne,
            ])
        };
        let dense257 = |k: u64| {
            ProductQuery::new(vec![
                star_relation(|b, a| generic(1000 + 64 * k + b * 8 + a)),
                star_relation(|_, a| generic(5000 + 4 * k + a % 4)),
                star_relation(|_, a| if a == 7 { 0.0 } else { 1.0 }),
            ])
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(28);
        let families = [
            (
                "random_sign",
                QueryFamily::random_sign(&query, 16, &mut rng).unwrap(),
                "query",
            ),
            (
                "16 signs",
                QueryFamily::new(&query, (0..16).map(sign).collect()).unwrap(),
                "group pass",
            ),
            (
                "5 signs",
                QueryFamily::new(&query, (0..5).map(sign).collect()).unwrap(),
                "group pass",
            ),
            (
                "palette16",
                QueryFamily::new(&query, (0..16).map(palette16).collect()).unwrap(),
                "group pass",
            ),
            (
                "dense257",
                QueryFamily::new(&query, (0..16).map(dense257).collect()).unwrap(),
                "dense pass",
            ),
            (
                "one dense",
                QueryFamily::new(&query, vec![dense257(0)]).unwrap(),
                "dense pass",
            ),
        ];
        for (name, family, placement) in &families {
            let weights = QueryWeights::new(&query, &h, family).unwrap();
            let summed_by = match (weights.counting, weights.dense.is_empty()) {
                (Some(_), _) => "query",
                (None, false) => "dense pass",
                (None, true) => "group pass",
            };
            assert_eq!(summed_by, *placement, "{name}");
            let palette = match *name {
                "palette16" => Some(Some(16)),
                "dense257" | "one dense" => Some(None),
                _ => None,
            };
            if let Some(expected) = palette {
                for j in 0..family.len() {
                    assert_eq!(weights.palette_len(j), expected, "{name}");
                }
            }
            let mut answers = vec![0.0; family.len()];
            let mut check = |current: &Histogram, step: &str| {
                let mass = weights.answer_all(current, &mut answers);
                assert_eq!(mass.to_bits(), current.total().to_bits(), "{name}, {step}");
                let expected = current.answer_all(&query, family).unwrap();
                assert_eq!(bits(&answers), bits(&expected), "{name}, {step}");
                mass
            };

            let mut current = Histogram::uniform(&query, 4096.0, DEFAULT_MAX_CELLS).unwrap();
            let mut average = Histogram::zeros(&query, DEFAULT_MAX_CELLS).unwrap();
            for round in 0..6 {
                let total = check(&current, &format!("round {round}"));
                let eta = if round % 2 == 0 { 0.7 } else { -0.4 };
                let j = round % family.len();
                weights.update_and_accumulate(j, &mut current, &mut average, eta, total);
            }
            check(&current, "after the updates");

            for zero in [0.0, -0.0] {
                let mut current = Histogram::zeros(&query, DEFAULT_MAX_CELLS).unwrap();
                current.weights_mut().fill(zero);
                let total = check(&current, &format!("all {zero:?}"));
                assert_eq!(total.to_bits(), zero.to_bits(), "{name}");
                weights.update_and_accumulate(0, &mut current, &mut average, 0.5, total);
                check(&current, &format!("all {zero:?}, updated"));
            }
        }
    }

    /// A weight in `[-0.9, 0.9]`, never zero, from a hash of `key`: products
    /// of different keys' weights are distinct.
    fn generic(key: u64) -> f64 {
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let u = (z ^ (z >> 31)) >> 11;
        let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
        sign * (0.1 + 0.8 * (u as f64 / (1u64 << 53) as f64))
    }

    /// A query whose weight takes exactly `n` distinct values over the cells
    /// of a layout whose relations 0 and 1 are `R_0(X, Y)` and `R_1(Y, Z)`
    /// (any others weigh 1), or `None` when the layout cannot hold `n`.
    ///
    /// For each `y`, the cells with `x < a_y` and `z < c_y` weigh a product
    /// of two generic values, distinct per cell, and every other cell
    /// weighs `0.0`; the `a_y · c_y` sum to `n - 1`.  When `n` is the cell
    /// count, every cell weighs its own product.
    fn with_distinct_weights(query: &JoinQuery, n: usize, salt: u64) -> Option<ProductQuery> {
        let domain = |a: AttrId| query.schema().domain_size(a).unwrap();
        let (r0, r1) = (query.relation_attrs(0), query.relation_attrs(1));
        let (dx, dy, dz) = (domain(r0[0]), domain(r0[1]), domain(r1[1]));
        let cells = (dx * dy * dz) as usize;
        if n == 1 {
            return Some(ProductQuery::counting(query.num_relations()));
        }
        let (mut a, mut c) = (vec![0; dy as usize], vec![0; dy as usize]);
        if n == cells {
            a.fill(dx);
            c.fill(dz);
        } else {
            let mut left = n.checked_sub(1)?;
            for y in 0..dy as usize {
                // The largest product of an `a ≤ dx` and a `c ≤ dz` that fits.
                let (best_a, best_c) = (1..=dx)
                    .flat_map(|a| (1..=dz).map(move |c| (a, c)))
                    .filter(|&(a, c)| (a * c) as usize <= left)
                    .max_by_key(|&(a, c)| a * c)
                    .unwrap_or((0, 0));
                (a[y], c[y]) = (best_a, best_c);
                left -= (best_a * best_c) as usize;
            }
            if left > 0 {
                return None;
            }
        }
        let mut components = vec![
            sparse(
                (0..dx)
                    .flat_map(|x| (0..dy).map(move |y| (x, y)))
                    .map(|(x, y)| {
                        let w = if x < a[y as usize] {
                            generic(salt ^ (x << 32 | y))
                        } else {
                            0.0
                        };
                        ((x, y), w)
                    }),
                0.0,
            ),
            sparse(
                (0..dy)
                    .flat_map(|y| (0..dz).map(move |z| (y, z)))
                    .map(|(y, z)| {
                        let w = if z < c[y as usize] {
                            generic(!salt ^ (y << 32 | z))
                        } else {
                            0.0
                        };
                        ((y, z), w)
                    }),
                0.0,
            ),
        ];
        components.resize(query.num_relations(), RelationQuery::AllOne);
        Some(ProductQuery::new(components))
    }

    /// Packing never changes a bit: on layouts of 336, 315 and 125 cells
    /// (the last two not multiples of 8), families of 1, 7, 8, 9 and 17 queries that mix
    /// palette sizes on both sides of every group boundary (1, 2, 3, 5, 16,
    /// 17, 128, 129, 256) with dense queries (257 and every-cell-distinct
    /// weights) score, reweight, renormalise, accumulate and take true
    /// answers exactly as the context-free paths do.
    #[test]
    fn grouped_weights_match_the_context_free_paths_at_group_boundaries() {
        use dpsyn_relational::Instance;
        use rand::Rng;
        const SIZES: [usize; 10] = [1, 2, 3, 5, 16, 17, 128, 129, 256, 257];
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let mut dense_seen = 0;
        for query in [
            JoinQuery::two_table(6, 8, 7),
            JoinQuery::two_table(5, 9, 7),
            JoinQuery::triangle(5),
        ] {
            let (h, fz) = layout(&query);
            let sizes: Vec<usize> = SIZES
                .into_iter()
                .chain([h.len()])
                .filter(|&n| with_distinct_weights(&query, n, 0).is_some())
                .collect();
            // Every size fits the two-table layouts; 125 cells hold up to 17.
            let expected = if h.len() > 257 { SIZES.len() + 1 } else { 7 };
            assert_eq!(sizes.len(), expected, "{sizes:?}");
            // Cells with a spread of weights, some of them zero.
            let mut cells = Histogram::zeros(&query, DEFAULT_MAX_CELLS).unwrap();
            for (x, f) in cells.weights_mut().iter_mut().enumerate() {
                *f = if x % 11 == 3 {
                    0.0
                } else {
                    rng.random::<f64>() * 9.0
                };
            }
            let mut sum = cells.clone();
            sum.scale(0.5);
            let mut instance = Instance::empty_for(&query).unwrap();
            for i in 0..query.num_relations() {
                for _ in 0..40 {
                    let tuple = query
                        .relation_attrs(i)
                        .iter()
                        .map(|&a| rng.random_range(0..query.schema().domain_size(a).unwrap()))
                        .collect();
                    instance
                        .relation_mut(i)
                        .add(tuple, rng.random_range(1..4))
                        .unwrap();
                }
            }
            let join = dpsyn_relational::join(&query, &instance).unwrap();
            assert!(join.distinct_count() > 0);
            for len in [1, 7, 8, 9, 17] {
                for trial in 0..6 {
                    // Trial 0 is all two-entry palettes: full groups of 8.
                    let pick: Vec<usize> = (0..len)
                        .map(|_| match trial {
                            0 => 2,
                            _ => sizes[rng.random_range(0..sizes.len())],
                        })
                        .collect();
                    let queries = pick
                        .iter()
                        .map(|&n| with_distinct_weights(&query, n, rng.random()).unwrap())
                        .collect();
                    let family = QueryFamily::new(&query, queries).unwrap();
                    let weights = QueryWeights::new(&query, &h, &family).unwrap();
                    for (j, &n) in pick.iter().enumerate() {
                        let expected = (n <= PALETTE_SIZE).then_some(n);
                        assert_eq!(weights.palette_len(j), expected, "query {j} of {pick:?}");
                        dense_seen += usize::from(expected.is_none());
                    }
                    let case = format!("{} cells, palettes {pick:?}", h.len());

                    let mut scores = vec![0.0; len];
                    let mass = weights.answer_all(&cells, &mut scores);
                    let expected = cells.answer_all(&query, &family).unwrap();
                    assert_eq!(bits(&scores), bits(&expected), "scores, {case}");
                    assert_eq!(mass.to_bits(), cells.total().to_bits(), "mass, {case}");

                    let truth = true_answers(&fz, h.attrs(), &query, &join, &family, &weights);
                    let expected = family.answer_all_on_join(&query, &join).unwrap();
                    assert_eq!(
                        bits(&truth.unwrap()),
                        bits(expected.values()),
                        "truth, {case}"
                    );

                    for (j, q) in family.iter().enumerate() {
                        let eta = rng.random::<f64>() * 2.0 - 1.0;
                        let (mut current, mut average) = (cells.clone(), sum.clone());
                        weights.update_and_accumulate(j, &mut current, &mut average, eta, mass);
                        let next = weights.answer_all(&current, &mut scores);
                        let mut expected = cells.clone();
                        expected.multiplicative_update(
                            &cells.query_weight_vector(&query, q).unwrap(),
                            eta,
                        );
                        let mut expected_sum = sum.clone();
                        expected_sum.accumulate(&expected).unwrap();
                        assert_eq!(
                            bits(current.weights()),
                            bits(expected.weights()),
                            "query {j}, {case}"
                        );
                        assert_eq!(
                            next.to_bits(),
                            expected.total().to_bits(),
                            "query {j}, {case}"
                        );
                        assert_eq!(
                            bits(average.weights()),
                            bits(expected_sum.weights()),
                            "query {j}, {case}"
                        );
                    }
                }
            }
        }
        assert!(dense_seen > 0);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }
}

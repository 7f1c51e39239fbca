//! Dense matrices over a finite [`Field`], with Gaussian elimination.
//!
//! This is the linear-algebra engine behind the RLNC decoder (rank tracking
//! and back-substitution) and the Reed–Solomon construction (Vandermonde
//! systems). It favors clarity and determinism over cache tricks; the bulk
//! per-packet work in the codec goes through [`crate::vec_ops`] instead.

use std::fmt;

use crate::field::Field;

/// A dense, row-major matrix over a finite field `F`.
///
/// # Example
///
/// ```
/// use curtain_gf::{Field, Gf256, Matrix};
///
/// let m = Matrix::<Gf256>::identity(3);
/// assert_eq!(m.rank(), 3);
/// assert_eq!(m.inverse().unwrap(), m);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix<F: Field> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// Creates a `rows × cols` zero matrix.
    #[must_use]
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![F::ZERO; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.set(i, i, F::ONE);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: &[Vec<F>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Builds a Vandermonde matrix: `m[i][j] = x_i^j` for the given evaluation
    /// points. Any `min(rows, cols)` rows are linearly independent when the
    /// points are distinct, which is the MDS property Reed–Solomon relies on.
    #[must_use]
    pub fn vandermonde(points: &[F], cols: usize) -> Self {
        let mut m = Self::zero(points.len(), cols);
        for (i, &x) in points.iter().enumerate() {
            let mut p = F::ONE;
            for j in 0..cols {
                m.set(i, j, p);
                p = p.mul(x);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> F {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: F) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[F] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [F] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()` (unless the matrix is empty).
    pub fn push_row(&mut self, row: &[F]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Matrix × column-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, v: &[F]) -> Vec<F> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(v)
                    .fold(F::ZERO, |acc, (&a, &b)| acc.add(a.mul(b)))
            })
            .collect()
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[must_use]
    pub fn mul_mat(&self, rhs: &Matrix<F>) -> Matrix<F> {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out: Matrix<F> = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for kk in 0..self.cols {
                let a = self.get(i, kk);
                if a.is_zero() {
                    continue;
                }
                F::axpy_slice(out.row_mut(i), a, rhs.row(kk));
            }
        }
        out
    }

    /// Borrows row `w` mutably and row `r` immutably at the same time.
    ///
    /// # Panics
    ///
    /// Panics if `w == r` or either index is out of bounds.
    fn two_rows_mut(&mut self, w: usize, r: usize) -> (&mut [F], &[F]) {
        assert_ne!(w, r, "two_rows_mut requires distinct rows");
        let cols = self.cols;
        if w < r {
            let (head, tail) = self.data.split_at_mut(r * cols);
            (&mut head[w * cols..(w + 1) * cols], &tail[..cols])
        } else {
            let (head, tail) = self.data.split_at_mut(w * cols);
            (&mut tail[..cols], &head[r * cols..(r + 1) * cols])
        }
    }

    /// In-place reduction to *reduced row-echelon form*; returns the rank and
    /// the pivot column of each pivot row (in order).
    pub fn rref(&mut self) -> (usize, Vec<usize>) {
        let mut pivots = Vec::new();
        let mut pivot_row = 0;
        for col in 0..self.cols {
            if pivot_row == self.rows {
                break;
            }
            // Find a row at or below pivot_row with a non-zero entry in col.
            let Some(src) = (pivot_row..self.rows).find(|&r| !self.get(r, col).is_zero()) else {
                continue;
            };
            self.swap_rows(pivot_row, src);
            // Normalize the pivot row.
            let inv = self.get(pivot_row, col).inv();
            F::scale_slice(&mut self.row_mut(pivot_row)[col..], inv);
            // Eliminate the column everywhere else. In characteristic 2,
            // add == sub, so a single axpy cancels the column entry.
            for r in 0..self.rows {
                if r == pivot_row {
                    continue;
                }
                let factor = self.get(r, col);
                if factor.is_zero() {
                    continue;
                }
                let (target, pivot) = self.two_rows_mut(r, pivot_row);
                F::axpy_slice(&mut target[col..], factor, &pivot[col..]);
            }
            pivots.push(col);
            pivot_row += 1;
        }
        (pivot_row, pivots)
    }

    /// Rank of the matrix (does not mutate `self`).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.clone().rref().0
    }

    /// Inverse of a square matrix, or `None` if singular.
    #[must_use]
    pub fn inverse(&self) -> Option<Matrix<F>> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        // Augment [self | I] and reduce.
        let mut aug = Matrix::zero(n, 2 * n);
        for i in 0..n {
            for j in 0..n {
                aug.set(i, j, self.get(i, j));
            }
            aug.set(i, n + i, F::ONE);
        }
        let (rank, pivots) = aug.rref();
        // [A | I] always has full row rank; A is invertible iff every pivot
        // lands inside A's columns.
        if rank < n || pivots.iter().any(|&p| p >= n) {
            return None;
        }
        let mut inv = Matrix::zero(n, n);
        for i in 0..n {
            for j in 0..n {
                inv.set(i, j, aug.get(i, n + j));
            }
        }
        Some(inv)
    }

    /// Solves `self · x = b` for square, non-singular `self`.
    ///
    /// Returns `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    #[must_use]
    pub fn solve(&self, b: &[F]) -> Option<Vec<F>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let mut aug = Matrix::zero(n, n + 1);
        for (i, &rhs) in b.iter().enumerate() {
            for j in 0..n {
                aug.set(i, j, self.get(i, j));
            }
            aug.set(i, n, rhs);
        }
        let (rank, pivots) = aug.rref();
        if rank < n || pivots.iter().any(|&p| p >= n) {
            return None;
        }
        Some((0..n).map(|i| aug.get(i, n)).collect())
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            let (x, y) = (self.get(a, j), self.get(b, j));
            self.set(a, j, y);
            self.set(b, j, x);
        }
    }
}

impl<F: Field> fmt::Debug for Matrix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{}) [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:?} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn random_matrix(n: usize, m: usize, seed: u64) -> Matrix<Gf256> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mat = Matrix::zero(n, m);
        for i in 0..n {
            for j in 0..m {
                mat.set(i, j, Gf256::random(&mut rng));
            }
        }
        mat
    }

    #[test]
    fn identity_properties() {
        let i = Matrix::<Gf256>::identity(4);
        assert_eq!(i.rank(), 4);
        let m = random_matrix(4, 4, 1);
        assert_eq!(i.mul_mat(&m), m);
        assert_eq!(m.mul_mat(&i), m);
    }

    #[test]
    fn inverse_round_trip() {
        for seed in 0..20 {
            let m = random_matrix(6, 6, seed);
            if let Some(inv) = m.inverse() {
                assert_eq!(m.mul_mat(&inv), Matrix::identity(6), "seed {seed}");
                assert_eq!(inv.mul_mat(&m), Matrix::identity(6), "seed {seed}");
            }
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let mut m = random_matrix(5, 5, 3);
        // Make row 4 a copy of row 0 -> singular.
        for j in 0..5 {
            let v = m.get(0, j);
            m.set(4, j, v);
        }
        assert!(m.inverse().is_none());
        assert!(m.rank() < 5);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let m = random_matrix(5, 5, rng.random::<u64>());
            if m.rank() < 5 {
                continue;
            }
            let x: Vec<Gf256> = (0..5).map(|_| Gf256::random(&mut rng)).collect();
            let b = m.mul_vec(&x);
            assert_eq!(m.solve(&b).unwrap(), x);
        }
    }

    #[test]
    fn vandermonde_distinct_points_full_rank() {
        let points: Vec<Gf256> = (1..=8u8).map(Gf256::new).collect();
        let v = Matrix::vandermonde(&points, 8);
        assert_eq!(v.rank(), 8);
        // Any square submatrix formed by a subset of rows is invertible only
        // in full-column generality; check a few row subsets of size 4.
        let sub = Matrix::from_rows(&[
            v.row(0).iter().take(4).copied().collect(),
            v.row(2).iter().take(4).copied().collect(),
            v.row(5).iter().take(4).copied().collect(),
            v.row(7).iter().take(4).copied().collect(),
        ]);
        assert_eq!(sub.rank(), 4, "Vandermonde minors must be non-singular");
    }

    #[test]
    fn rref_idempotent_and_rank_stable() {
        let m = random_matrix(6, 9, 11);
        let mut a = m.clone();
        let (rank1, pivots) = a.rref();
        let mut b = a.clone();
        let (rank2, pivots2) = b.rref();
        assert_eq!(rank1, rank2);
        assert_eq!(pivots, pivots2);
        assert_eq!(a, b, "rref must be idempotent");
        assert_eq!(m.rank(), rank1);
    }

    /// Element-wise rref, the pre-kernel reference implementation. Kept in
    /// tests to prove the slice-op-routed `rref` is byte-identical.
    fn rref_reference<F: Field>(m: &mut Matrix<F>) -> (usize, Vec<usize>) {
        let mut pivots = Vec::new();
        let mut pivot_row = 0;
        for col in 0..m.cols() {
            if pivot_row == m.rows() {
                break;
            }
            let Some(src) = (pivot_row..m.rows()).find(|&r| !m.get(r, col).is_zero()) else {
                continue;
            };
            m.swap_rows(pivot_row, src);
            let inv = m.get(pivot_row, col).inv();
            for j in col..m.cols() {
                let v = m.get(pivot_row, j).mul(inv);
                m.set(pivot_row, j, v);
            }
            for r in 0..m.rows() {
                if r == pivot_row {
                    continue;
                }
                let factor = m.get(r, col);
                if factor.is_zero() {
                    continue;
                }
                for j in col..m.cols() {
                    let v = m.get(r, j).add(factor.mul(m.get(pivot_row, j)));
                    m.set(r, j, v);
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        (pivot_row, pivots)
    }

    #[test]
    fn rref_matches_elementwise_reference() {
        for seed in 0..30u64 {
            let n = 1 + (seed as usize % 7);
            let m = 1 + ((seed as usize * 3) % 9);
            let orig = random_matrix(n, m, seed);
            let mut fast = orig.clone();
            let mut slow = orig.clone();
            let got = fast.rref();
            let want = rref_reference(&mut slow);
            assert_eq!(got, want, "rank/pivots diverge at seed {seed}");
            assert_eq!(fast, slow, "rref data diverges at seed {seed}");
        }
    }

    #[test]
    fn mul_mat_matches_elementwise_reference() {
        for seed in 0..10u64 {
            let a = random_matrix(4, 6, seed);
            let b = random_matrix(6, 5, seed.wrapping_add(99));
            let fast = a.mul_mat(&b);
            let mut slow = Matrix::zero(4, 5);
            for i in 0..4 {
                for j in 0..5 {
                    let mut acc = Gf256::ZERO;
                    for k in 0..6 {
                        acc = acc.add(a.get(i, k).mul(b.get(k, j)));
                    }
                    slow.set(i, j, acc);
                }
            }
            assert_eq!(fast, slow, "mul_mat diverges at seed {seed}");
        }
    }

    #[test]
    fn push_row_infers_width_for_empty_matrix() {
        let mut m = Matrix::<Gf256>::zero(0, 0);
        m.push_row(&[Gf256::ONE, Gf256::ZERO]);
        assert_eq!((m.rows(), m.cols()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn push_row_rejects_bad_width() {
        let mut m = Matrix::<Gf256>::identity(2);
        m.push_row(&[Gf256::ONE]);
    }

    #[test]
    fn rank_bounded_by_dims() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            let (n, m) = (rng.random_range(1usize..8), rng.random_range(1usize..8));
            let mat = random_matrix(n, m, rng.random());
            assert!(mat.rank() <= n.min(m));
        }
    }

    #[test]
    fn mat_mul_rank_no_increase() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..32 {
            let seed: u64 = rng.random();
            let a = random_matrix(5, 5, seed);
            let b = random_matrix(5, 5, seed.wrapping_add(1));
            let prod = a.mul_mat(&b);
            assert!(prod.rank() <= a.rank().min(b.rank()));
        }
    }

    #[test]
    fn solve_matches_mul() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..32 {
            let m = random_matrix(4, 4, rng.random());
            let x: Vec<Gf256> = (0..4).map(|_| Gf256::random(&mut rng)).collect();
            let b = m.mul_vec(&x);
            if let Some(sol) = m.solve(&b) {
                assert_eq!(m.mul_vec(&sol), b);
            }
        }
    }
}

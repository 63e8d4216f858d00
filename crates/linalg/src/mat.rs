//! Dense row-major matrix type.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64`.
///
/// Row-major storage keeps the inner loops of matrix products and
/// factorizations walking contiguous memory, which is the dominant
/// performance concern at the (≤ few hundred rows) sizes the calibration
/// stack uses.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows_flat(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "from_rows_flat: size mismatch");
        Mat { rows, cols, data: data.to_vec() }
    }

    /// Build from nested row vectors.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Mat { rows: r, cols: c, data }
    }

    /// A diagonal matrix from the given diagonal entries.
    pub fn diag(d: &[f64]) -> Self {
        let mut m = Mat::zeros(d.len(), d.len());
        for (i, &x) in d.iter().enumerate() {
            m[(i, i)] = x;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out as a `Vec`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the i-k-j loop order so the inner loop streams over contiguous
    /// rows of both the accumulator and `rhs` (see The Rust Performance
    /// Book's guidance on memory access patterns).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "matmul: dimension mismatch");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.ncols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec: dimension mismatch");
        (0..self.rows).map(|i| crate::dot(self.row(i), v)).collect()
    }

    /// Scale every entry by `s`.
    pub fn scale(&self, s: f64) -> Mat {
        Mat { rows: self.rows, cols: self.cols, data: self.data.iter().map(|x| x * s).collect() }
    }

    /// Maximum absolute entry (∞-norm of the flattened data).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// True when the matrix is square and symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add: shape mismatch");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub: shape mismatch");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Mat::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_rect() {
        let a = Mat::from_rows(&[vec![1.0, 0.0, 2.0]]);
        let b = Mat::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.nrows(), 1);
        assert_eq!(c.ncols(), 1);
        assert_eq!(c[(0, 0)], 7.0);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Mat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matvec_known() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Mat::from_rows(&[vec![1.0, 2.0]]);
        let b = Mat::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn symmetry_check() {
        let s = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = Mat::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]);
        assert!(!ns.is_symmetric(1e-9));
        let rect = Mat::zeros(2, 3);
        assert!(!rect.is_symmetric(1.0));
    }

    #[test]
    fn diag_and_col() {
        let d = Mat::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.col(1), vec![0.0, 2.0, 0.0]);
        assert_eq!(d[(2, 2)], 3.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}

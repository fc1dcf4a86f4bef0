//! Row-major 2-D `f32` matrix.

use rand::distributions::Distribution;
use rand::Rng;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing buffer (must have `rows · cols` elements).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Gaussian initialization with standard deviation `std`.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        let normal = rand::distributions::Uniform::new(-1.0f32, 1.0);
        // Sum of three uniforms ≈ bell-shaped; adequate for init and cheap.
        Matrix::from_fn(rows, cols, |_, _| {
            (normal.sample(rng) + normal.sample(rng) + normal.sample(rng)) * std * 0.577
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow one row mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw mutable data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Row `c` of the transpose is column `c` of `self`: every
        // `cols`-th element from `c` on.
        for (c, out_row) in out.data.chunks_exact_mut(self.rows.max(1)).enumerate() {
            let column = self.data[c..].iter().step_by(self.cols);
            for (o, &v) in out_row.iter_mut().zip(column) {
                *o = v;
            }
        }
        out
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scale all elements in place.
    pub fn scale(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// Horizontal slice of columns `[c0, c1)` as a new matrix.
    pub fn columns(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 <= c1 && c1 <= self.cols);
        let mut data = Vec::with_capacity(self.rows * (c1 - c0));
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[c0..c1]);
        }
        Matrix::from_vec(self.rows, c1 - c0, data)
    }

    /// Vertical slice of rows `[r0, r1)` as a new matrix.
    pub fn rows_slice(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows);
        Matrix::from_vec(
            r1 - r0,
            self.cols,
            self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        )
    }

    /// Concatenate matrices left-to-right (equal row counts).
    pub fn concat_cols(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows));
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                out.row_mut(r)[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Concatenate matrices top-to-bottom (equal column counts).
    pub fn concat_rows(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let cols = parts[0].cols;
        assert!(parts.iter().all(|p| p.cols == cols));
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Largest absolute element-wise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn basic_accessors() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), m.get(1, 2));
        assert_eq!(Matrix::zeros(0, 3).transpose(), Matrix::zeros(3, 0));
        assert_eq!(Matrix::zeros(3, 0).transpose(), Matrix::zeros(0, 3));
    }

    #[test]
    fn concat_and_slice_cols_inverse() {
        let m = Matrix::from_fn(2, 6, |r, c| (r * 6 + c) as f32);
        let a = m.columns(0, 3);
        let b = m.columns(3, 6);
        assert_eq!(Matrix::concat_cols(&[a, b]), m);
    }

    #[test]
    fn concat_and_slice_rows_inverse() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let a = m.rows_slice(0, 2);
        let b = m.rows_slice(2, 4);
        assert_eq!(Matrix::concat_rows(&[a, b]), m);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
        let a = Matrix::randn(4, 4, 0.02, &mut r1);
        let b = Matrix::randn(4, 4, 0.02, &mut r2);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn add_and_scale() {
        let mut a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = a.clone();
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a, b);
    }
}

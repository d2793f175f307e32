//! Row-major dense matrices, and the borrowed strided operand
//! ([`MatRef`]) the kernels read them through.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f64`, row-major.
///
/// ```
/// use pmm_dense::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
/// assert_eq!(m[(1, 2)], 12.0);
/// assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer (`data.len() == rows·cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length disagrees with shape");
        Matrix { rows, cols, data }
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

    /// Total number of elements (`rows·cols`) — the word count of this
    /// matrix in the communication model.
    #[inline]
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// The whole matrix as a borrowed GEMM operand (`stride == cols`).
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        self.view(0, 0, self.rows, self.cols)
    }

    /// The sub-block at rows `r0..r0+h`, cols `c0..c0+w`, borrowed in
    /// place: what [`Matrix::sub`] copies out.
    pub(crate) fn view(&self, r0: usize, c0: usize, h: usize, w: usize) -> MatRef<'_> {
        assert!(r0 + h <= self.rows && c0 + w <= self.cols, "sub-block out of range");
        let data = match h {
            0 => &[][..],
            _ => &self.data[r0 * self.cols + c0..][..(h - 1) * self.cols + w],
        };
        MatRef { data, rows: h, cols: w, stride: self.cols }
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy out the sub-block at rows `r0..r0+h`, cols `c0..c0+w`.
    pub fn sub(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix {
        assert!(r0 + h <= self.rows && c0 + w <= self.cols, "sub-block out of range");
        let mut out = Matrix::zeros(h, w);
        for r in 0..h {
            out.row_mut(r).copy_from_slice(&self.data[(r0 + r) * self.cols + c0..][..w]);
        }
        out
    }

    /// Paste `block` at position `(r0, c0)`.
    pub fn set_sub(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "sub-block out of range"
        );
        for r in 0..block.rows {
            self.data[(r0 + r) * self.cols + c0..][..block.cols].copy_from_slice(block.row(r));
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }
}

/// A borrowed `rows × cols` row-major operand whose rows lie `stride`
/// elements apart: a whole [`Matrix`] ([`Matrix::as_ref`], `stride ==
/// cols`) or a block of one read where it lies
/// ([`Block2::view`](crate::Block2::view), `stride` = the matrix's
/// column count). What [`gemm_acc`](crate::gemm_acc) multiplies.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    /// From the first element of row 0 to the last of row `rows − 1`.
    data: &'a [f64],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatRef<'a> {
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

    /// Distance in elements between the starts of consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f64] {
        &self.data[r * self.stride..][..self.cols]
    }

    /// The rows and the gaps between them: element `(r, c)` is
    /// `as_slice()[r·stride + c]`.
    #[inline]
    pub(crate) fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    #[inline]
    fn from(m: &'a Matrix) -> MatRef<'a> {
        m.as_ref()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            if self.cols > show_cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ⋮")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_indexing() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.words(), 12);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 3)], 11.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn sub_and_set_sub_roundtrip() {
        let m = Matrix::from_fn(5, 6, |r, c| (r * 6 + c) as f64);
        let b = m.sub(1, 2, 3, 2);
        assert_eq!(b.rows(), 3);
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(2, 1)], m[(3, 3)]);
        let mut z = Matrix::zeros(5, 6);
        z.set_sub(1, 2, &b);
        assert_eq!(z[(2, 3)], m[(2, 3)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c * 3) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_out_of_range_panics() {
        Matrix::zeros(2, 2).sub(1, 1, 2, 1);
    }

    #[test]
    #[should_panic(expected = "disagrees with shape")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}

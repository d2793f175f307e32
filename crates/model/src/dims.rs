//! Matrix-multiplication dimension triples and the paper's three-case
//! classification (Theorem 3).
//!
//! A classical matmul `C = A·B` with `A ∈ R^{n1×n2}`, `B ∈ R^{n2×n3}`,
//! `C ∈ R^{n1×n3}` has a 3D iteration space of `n1·n2·n3` scalar
//! multiplications. Each matrix is a *face* of that cuboid: `A` is the face
//! perpendicular to axis 3, `B` to axis 1, and `C` to axis 2.
//!
//! Theorem 3 is phrased in terms of the sorted dimensions
//! `m ≥ n ≥ k` (max / median / min of `{n1, n2, n3}`), and its three cases
//! split at `P = m/n` and `P = m·n/k²`.

use std::fmt;

/// Which of the three matrices of `C = A·B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixId {
    /// The `n1 × n2` input.
    A,
    /// The `n2 × n3` input.
    B,
    /// The `n1 × n3` output.
    C,
}

impl MatrixId {
    /// All three matrices, in `[A, B, C]` order.
    pub const ALL: [MatrixId; 3] = [MatrixId::A, MatrixId::B, MatrixId::C];

    /// The iteration-space axis this matrix's face is perpendicular to
    /// (the axis whose index does *not* appear in the matrix's entries):
    /// `A(i1,i2)` ⊥ axis 2, `B(i2,i3)` ⊥ axis 0, `C(i1,i3)` ⊥ axis 1.
    #[inline]
    pub fn missing_axis(self) -> usize {
        match self {
            MatrixId::A => 2,
            MatrixId::B => 0,
            MatrixId::C => 1,
        }
    }
}

impl fmt::Display for MatrixId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixId::A => write!(f, "A"),
            MatrixId::B => write!(f, "B"),
            MatrixId::C => write!(f, "C"),
        }
    }
}

/// The dimension triple `(n1, n2, n3)` of a multiplication
/// `(n1 × n2) · (n2 × n3)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatMulDims {
    /// Rows of `A` and of `C`.
    pub n1: u64,
    /// Columns of `A`, rows of `B` (the contracted dimension).
    pub n2: u64,
    /// Columns of `B` and of `C`.
    pub n3: u64,
}

impl MatMulDims {
    /// Create a dimension triple; all dimensions must be at least 1.
    pub fn new(n1: u64, n2: u64, n3: u64) -> MatMulDims {
        assert!(n1 >= 1 && n2 >= 1 && n3 >= 1, "matrix dimensions must be >= 1");
        MatMulDims { n1, n2, n3 }
    }

    /// Square `n × n × n` multiplication.
    pub fn square(n: u64) -> MatMulDims {
        MatMulDims::new(n, n, n)
    }

    /// The dimensions as an array indexed by iteration-space axis.
    #[inline]
    pub fn as_array(&self) -> [u64; 3] {
        [self.n1, self.n2, self.n3]
    }

    /// Number of scalar multiplications `n1·n2·n3` (as `f64`; may exceed
    /// `u64` in bound sweeps).
    #[inline]
    pub fn mults(&self) -> f64 {
        self.n1 as f64 * self.n2 as f64 * self.n3 as f64
    }

    /// Words in matrix `id`.
    #[inline]
    pub fn words_of(&self, id: MatrixId) -> f64 {
        let (r, c) = self.shape_of(id);
        r as f64 * c as f64
    }

    /// `(rows, cols)` of matrix `id`.
    #[inline]
    pub fn shape_of(&self, id: MatrixId) -> (u64, u64) {
        match id {
            MatrixId::A => (self.n1, self.n2),
            MatrixId::B => (self.n2, self.n3),
            MatrixId::C => (self.n1, self.n3),
        }
    }

    /// Total words across the three matrices:
    /// `n1n2 + n2n3 + n1n3 = mn + mk + nk`.
    #[inline]
    pub fn total_words(&self) -> f64 {
        MatrixId::ALL.iter().map(|&m| self.words_of(m)).sum()
    }

    /// Sort the dimensions into `m ≥ n ≥ k`, remembering which axis is
    /// which.
    pub fn sorted(&self) -> SortedDims {
        let a = self.as_array();
        // Stable sort of axis indices by dimension, descending; ties keep
        // axis order so the mapping is deterministic.
        let mut axes = [0usize, 1, 2];
        axes.sort_by(|&x, &y| a[y].cmp(&a[x]));
        SortedDims { m: a[axes[0]], n: a[axes[1]], k: a[axes[2]], axes }
    }

    /// Whether the grid `[p1, p2, p3]` divides every dimension evenly —
    /// the assumption under which Algorithm 1's cost matches eq. (3)
    /// exactly.
    pub fn divisible_by(&self, grid: [usize; 3]) -> bool {
        let a = self.as_array();
        (0..3).all(|i| a[i].is_multiple_of(grid[i] as u64))
    }
}

impl fmt::Display for MatMulDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}x{})·({}x{})", self.n1, self.n2, self.n2, self.n3)
    }
}

/// The paper's three cases (Theorem 3), named after the effective
/// dimensionality of the optimal processor grid (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Case {
    /// `1 ≤ P ≤ m/n`: 1D grid, leading term `nk`, constant 1.
    OneD,
    /// `m/n ≤ P ≤ mn/k²`: 2D grid, leading term `(mnk²/P)^{1/2}`, constant 2.
    TwoD,
    /// `mn/k² ≤ P`: 3D grid, leading term `(mnk/P)^{2/3}`, constant 3.
    ThreeD,
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Case::OneD => write!(f, "1D"),
            Case::TwoD => write!(f, "2D"),
            Case::ThreeD => write!(f, "3D"),
        }
    }
}

/// Dimensions sorted as `m ≥ n ≥ k`, with the permutation back to the
/// iteration-space axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortedDims {
    /// Maximum dimension.
    pub m: u64,
    /// Median dimension.
    pub n: u64,
    /// Minimum dimension.
    pub k: u64,
    /// `axes[0]` is the iteration-space axis (0 ⇒ n1, 1 ⇒ n2, 2 ⇒ n3)
    /// carrying `m`; `axes[1]` carries `n`; `axes[2]` carries `k`.
    pub axes: [usize; 3],
}

impl SortedDims {
    /// `m/n` — the 1D/2D threshold on `P`.
    #[inline]
    pub fn threshold_1d_2d(&self) -> f64 {
        self.m as f64 / self.n as f64
    }

    /// `m·n/k²` — the 2D/3D threshold on `P`.
    #[inline]
    pub fn threshold_2d_3d(&self) -> f64 {
        (self.m as f64 * self.n as f64) / (self.k as f64 * self.k as f64)
    }

    /// Which of Theorem 3's cases applies for `p` processors.
    ///
    /// At the thresholds the adjacent formulas coincide (the optimal
    /// solutions are continuous in `P`, see Lemma 2); we deterministically
    /// return the lower-dimensionality case there.
    pub fn classify(&self, p: f64) -> Case {
        assert!(p >= 1.0, "P must be >= 1");
        if p <= self.threshold_1d_2d() {
            Case::OneD
        } else if p <= self.threshold_2d_3d() {
            Case::TwoD
        } else {
            Case::ThreeD
        }
    }

    /// Product `m·n·k` as `f64`.
    #[inline]
    pub fn mults(&self) -> f64 {
        self.m as f64 * self.n as f64 * self.k as f64
    }

    /// `mn + mk + nk`, total words across the three matrices.
    #[inline]
    pub fn total_words(&self) -> f64 {
        let (m, n, k) = (self.m as f64, self.n as f64, self.k as f64);
        m * n + m * k + n * k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_orders_descending_with_axis_map() {
        let d = MatMulDims::new(2400, 600, 9600); // n1=2400, n2=600, n3=9600
        let s = d.sorted();
        assert_eq!((s.m, s.n, s.k), (9600, 2400, 600));
        assert_eq!(s.axes, [2, 0, 1]);
        // permuting back recovers the dims
        let arr = d.as_array();
        assert_eq!(arr[s.axes[0]], s.m);
        assert_eq!(arr[s.axes[1]], s.n);
        assert_eq!(arr[s.axes[2]], s.k);
    }

    #[test]
    fn sorted_ties_are_stable() {
        let s = MatMulDims::square(100).sorted();
        assert_eq!(s.axes, [0, 1, 2]);
        assert_eq!((s.m, s.n, s.k), (100, 100, 100));
    }

    #[test]
    fn paper_example_thresholds() {
        // §5.3: A is 9600x2400, B is 2400x600 → m/n = 4, mn/k² = 64.
        let d = MatMulDims::new(9600, 2400, 600);
        let s = d.sorted();
        assert_eq!(s.threshold_1d_2d(), 4.0);
        assert_eq!(s.threshold_2d_3d(), 64.0);
        assert_eq!(s.classify(3.0), Case::OneD);
        assert_eq!(s.classify(36.0), Case::TwoD);
        assert_eq!(s.classify(512.0), Case::ThreeD);
    }

    #[test]
    fn square_matrices_are_always_3d_case() {
        let s = MatMulDims::square(1000).sorted();
        assert_eq!(s.threshold_1d_2d(), 1.0);
        assert_eq!(s.threshold_2d_3d(), 1.0);
        for p in [1.0, 2.0, 8.0, 1e6] {
            assert_eq!(s.classify(p), if p <= 1.0 { Case::OneD } else { Case::ThreeD });
        }
    }

    #[test]
    fn boundaries_classify_to_lower_case() {
        let s = MatMulDims::new(9600, 2400, 600).sorted();
        assert_eq!(s.classify(4.0), Case::OneD);
        assert_eq!(s.classify(64.0), Case::TwoD);
    }

    #[test]
    fn matrix_shapes_and_words() {
        let d = MatMulDims::new(4, 5, 6);
        assert_eq!(d.shape_of(MatrixId::A), (4, 5));
        assert_eq!(d.shape_of(MatrixId::B), (5, 6));
        assert_eq!(d.shape_of(MatrixId::C), (4, 6));
        assert_eq!(d.words_of(MatrixId::A), 20.0);
        assert_eq!(d.total_words(), 20.0 + 30.0 + 24.0);
        assert_eq!(d.mults(), 120.0);
    }

    #[test]
    fn divisibility() {
        let d = MatMulDims::new(9600, 2400, 600);
        assert!(d.divisible_by([32, 8, 2]));
        assert!(d.divisible_by([12, 3, 1]));
        assert!(!d.divisible_by([7, 1, 1]));
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_dim_rejected() {
        MatMulDims::new(0, 1, 1);
    }

    #[test]
    fn display() {
        assert_eq!(MatMulDims::new(2, 3, 4).to_string(), "(2x3)·(3x4)");
        assert_eq!(Case::TwoD.to_string(), "2D");
    }
}

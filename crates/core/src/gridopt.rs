//! §5.1–§5.2 — Algorithm 1's cost formula (eq. 3) and optimal processor
//! grid selection.
//!
//! The communication cost of Algorithm 1 on a `p1 × p2 × p3` grid is
//!
//! ```text
//!   (1 − 1/p3)·n1n2/(p1p2)  +  (1 − 1/p1)·n2n3/(p2p3)  +  (1 − 1/p2)·n1n3/(p1p3)
//! ```
//!
//! which equals eq. (3). Choosing grid factors per Theorem 3's case —
//! 1D `(P,1,1)`, 2D `(√(Pm/n), √(Pn/m), 1)`, 3D dimensions proportional to
//! `(m, n, k)` — attains the lower bound exactly.
//!
//! [`best_grid`] performs the *exact* integer minimization of the formula
//! over all ordered factorizations of `P` (the ablation partner of the
//! continuous solution, and the right tool when `P` or the dimensions
//! don't divide nicely).

use pmm_model::{alg1_prediction, alg1_relayed, Case, Grid3, MatMulDims, SortedDims};

/// A chosen processor grid with its predicted Algorithm 1 cost.
#[derive(Debug, Clone, PartialEq)]
pub struct GridChoice {
    /// Grid dimensions in iteration-space order `[p1, p2, p3]` (aligned
    /// with `n1, n2, n3`).
    pub grid: [usize; 3],
    /// Predicted communication cost of Algorithm 1 on this grid, in words
    /// per processor along the critical path (eq. 3).
    pub cost_words: f64,
    /// The Theorem 3 case of the instance (for reporting).
    pub case: Case,
}

impl GridChoice {
    /// The grid as a [`Grid3`].
    pub fn grid3(&self) -> Grid3 {
        Grid3::from_dims(self.grid)
    }
}

/// The continuous (possibly fractional) optimal grid in **sorted order**
/// `(p, q, r)` aligned with `(m, n, k)` (§5.2).
pub fn continuous_grid(dims: SortedDims, p: u64) -> [f64; 3] {
    let (m, n, k) = (dims.m as f64, dims.n as f64, dims.k as f64);
    let case = dims.classify(p);
    let p = p as f64;
    match case {
        Case::OneD => [p, 1.0, 1.0],
        Case::TwoD => [(p * m / n).sqrt(), (p * n / m).sqrt(), 1.0],
        Case::ThreeD => {
            let t = (p / (m * n * k)).powf(1.0 / 3.0);
            [t * m, t * n, t * k]
        }
    }
}

/// Exact optimal integer grid: minimizes eq. (3)
/// ([`alg1_prediction`]`.total()`) over **all**
/// ordered factorizations `p1·p2·p3 = P`. Grids are compared by eq. (3)'s
/// integer numerator over their shared denominator `P` ([`alg1_relayed`]),
/// so equal-cost grids tie exactly, and a tie goes to the
/// lexicographically smallest `[p1, p2, p3]`.
///
/// ```
/// use pmm_core::gridopt::best_grid;
/// use pmm_core::MatMulDims;
/// // Fig. 2(b): P = 36 on the paper's instance → the 12x3x1 grid.
/// let choice = best_grid(MatMulDims::new(9600, 2400, 600), 36);
/// assert_eq!(choice.grid, [12, 3, 1]);
/// // [2, 3, 4] and [3, 2, 4] both cost 1024 words on a 64-cube.
/// assert_eq!(best_grid(MatMulDims::square(64), 24).grid, [2, 3, 4]);
/// ```
pub fn best_grid(dims: MatMulDims, p: usize) -> GridChoice {
    assert!(p >= 1, "P must be >= 1");
    best_factorization(dims, p, false).expect("at least one factorization")
}

/// Like [`best_grid`] but restricted to factorizations whose factors
/// divide the matrix dimensions — the regime where Algorithm 1's measured
/// cost equals eq. (3) *exactly*. Returns `None` if no divisible
/// factorization exists.
pub fn best_divisible_grid(dims: MatMulDims, p: usize) -> Option<GridChoice> {
    best_factorization(dims, p, true)
}

/// The cheapest factorization of `p` (one dividing the dimensions if
/// `divisible`), ties to the first in [`Grid3::factorizations`]'
/// (lexicographic) order.
fn best_factorization(dims: MatMulDims, p: usize, divisible: bool) -> Option<GridChoice> {
    let admitted =
        Grid3::factorizations(p).into_iter().filter(|&f| !divisible || dims.divisible_by(f));
    let grid = admitted.min_by_key(|&f| alg1_relayed(dims, f).iter().sum::<u128>())?;
    let case = dims.sorted().classify(p as u64);
    Some(GridChoice { grid, cost_words: alg1_prediction(dims, grid).total(), case })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem3::cmp_bound;
    use std::cmp::Ordering;

    const PAPER: MatMulDims = MatMulDims { n1: 9600, n2: 2400, n3: 600 };

    #[test]
    fn fig2_grids_are_recovered_exactly() {
        // Fig. 2: P = 3 → 3×1×1; P = 36 → 12×3×1; P = 512 → 32×8×2.
        assert_eq!(best_grid(PAPER, 3).grid, [3, 1, 1]);
        assert_eq!(best_grid(PAPER, 36).grid, [12, 3, 1]);
        assert_eq!(best_grid(PAPER, 512).grid, [32, 8, 2]);
    }

    #[test]
    fn fig2_cases_match() {
        assert_eq!(best_grid(PAPER, 3).case, Case::OneD);
        assert_eq!(best_grid(PAPER, 36).case, Case::TwoD);
        assert_eq!(best_grid(PAPER, 512).case, Case::ThreeD);
    }

    #[test]
    fn continuous_grid_matches_integer_grid_on_nice_instances() {
        let s = PAPER.sorted();
        assert_eq!(continuous_grid(s, 3), [3.0, 1.0, 1.0]);
        assert_eq!(continuous_grid(s, 36), [12.0, 3.0, 1.0]);
        let g = continuous_grid(s, 512);
        assert!((g[0] - 32.0).abs() < 1e-9);
        assert!((g[1] - 8.0).abs() < 1e-9);
        assert!((g[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn continuous_grid_multiplies_to_p() {
        let s = PAPER.sorted();
        for p in [1, 5, 17, 36, 100, 512, 9999] {
            let g = continuous_grid(s, p);
            let prod = g[0] * g[1] * g[2];
            assert!((prod - p as f64).abs() < 1e-6 * p as f64, "P={p}: product {prod}");
        }
    }

    /// Eq. (3) on `grid` against Theorem 3 at its `P`, exactly.
    fn eq3_vs_bound(grid: [usize; 3]) -> Ordering {
        let p = grid.iter().product::<usize>() as u64;
        cmp_bound(PAPER, p, alg1_relayed(PAPER, grid).iter().sum())
    }

    #[test]
    fn optimal_grid_cost_equals_lower_bound_when_divisible() {
        // The tightness claim at the formula level: with the §5.2 grid,
        // eq. (3) equals Theorem 3's bound.
        for p in [3usize, 36, 512] {
            let choice = best_grid(PAPER, p);
            let p_eq3: u128 = alg1_relayed(PAPER, choice.grid).iter().sum();
            assert_eq!(choice.cost_words * p as f64, p_eq3 as f64, "P={p}");
            assert_eq!(eq3_vs_bound(choice.grid), Ordering::Equal, "P={p}");
        }
    }

    #[test]
    fn eq3_cost_never_below_lower_bound() {
        // Any grid's predicted cost is ≥ the bound (Theorem 3 applies to
        // every parallelization).
        for p in [6usize, 24, 36, 60, 512, 729] {
            for f in Grid3::factorizations(p) {
                assert_ne!(eq3_vs_bound(f), Ordering::Less, "P={p} grid {f:?}");
            }
        }
    }

    #[test]
    fn eq3_special_cases() {
        // Single processor: no communication.
        assert_eq!(alg1_prediction(PAPER, [1, 1, 1]).total(), 0.0);
        // 1D grid (P,1,1): only B is all-gathered: (1-1/P)·n2·n3.
        let c = alg1_prediction(PAPER, [3, 1, 1]).total();
        let want = (1.0 - 1.0 / 3.0) * 2400.0 * 600.0;
        assert!((c - want).abs() < 1e-9);
    }

    #[test]
    fn best_divisible_grid_respects_divisibility() {
        let dims = MatMulDims::new(100, 100, 100);
        let g = best_divisible_grid(dims, 8).unwrap();
        assert_eq!(g.grid, [2, 2, 2]);
        // P = 7: 7×1×1 etc. don't divide 100 in any axis… 7 ∤ 100, so only
        // grids with a factor 7 fail; [7,1,1] has 7 ∤ 100 → None.
        assert!(best_divisible_grid(dims, 7).is_none());
        // P = 1 always works.
        assert_eq!(best_divisible_grid(dims, 1).unwrap().grid, [1, 1, 1]);
    }

    #[test]
    fn square_instance_prefers_cubic_grid() {
        let dims = MatMulDims::square(120);
        assert_eq!(best_grid(dims, 8).grid, [2, 2, 2]);
        assert_eq!(best_grid(dims, 27).grid, [3, 3, 3]);
        assert_eq!(best_grid(dims, 64).grid, [4, 4, 4]);
    }

    #[test]
    fn equal_cost_grids_tie_exactly_toward_the_smallest() {
        // 6·4096/24 = 1024 words on both; summed in f64 the later one
        // came out 1023.9999999999999.
        let cube = MatMulDims::square(64);
        assert_eq!(alg1_prediction(cube, [2, 3, 4]).total(), 1024.0);
        assert_eq!(best_grid(cube, 24).grid, [2, 3, 4]);
        let divisible = best_divisible_grid(MatMulDims::square(48), 24);
        assert_eq!(divisible.map(|c| c.grid), Some([2, 3, 4]));
    }

    #[test]
    fn tall_skinny_prefers_1d_grid() {
        // m/n huge → 1D grid along the long dimension.
        let dims = MatMulDims::new(100_000, 50, 50);
        let g = best_grid(dims, 16);
        assert_eq!(g.grid, [16, 1, 1]);
        assert_eq!(g.case, Case::OneD);
    }
}

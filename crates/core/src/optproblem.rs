//! Lemma 2 — the key constrained optimization problem.
//!
//! ```text
//!   minimize   x1 + x2 + x3
//!   subject to x1·x2·x3 ≥ (mnk/P)²     (Loomis–Whitney)
//!              x1 ≥ nk/P               (Lemma 1, smallest matrix)
//!              x2 ≥ mk/P               (Lemma 1, middle matrix)
//!              x3 ≥ mn/P               (Lemma 1, largest matrix)
//! ```
//!
//! `x_i` is the size of the projection of one processor's work onto the
//! `i`-th smallest matrix. The analytic solution has three regimes
//! depending on how many of the individual lower bounds are active; the
//! case thresholds `P = m/n` and `P = mn/k²` become the 1D/2D/3D
//! boundaries of Theorem 3.

use pmm_model::{Case, SortedDims};

/// An instance of the Lemma 2 optimization problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptProblem {
    /// Maximum dimension (`m ≥ n ≥ k ≥ 1`).
    pub m: f64,
    /// Median dimension.
    pub n: f64,
    /// Minimum dimension.
    pub k: f64,
    /// Number of processors (`P ≥ 1`).
    pub p: f64,
}

/// The solution of an [`OptProblem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptSolution {
    /// Optimal `(x1, x2, x3)`, ordered smallest-matrix first.
    pub x: [f64; 3],
    /// Which of the three regimes the instance falls into.
    pub case: Case,
}

impl OptSolution {
    /// The optimal objective value `x1 + x2 + x3` — the paper's `D`.
    pub fn objective(&self) -> f64 {
        self.x.iter().sum()
    }
}

impl OptProblem {
    /// Build an instance from raw dimensions; panics unless
    /// `m ≥ n ≥ k ≥ 1` and `p ≥ 1`.
    pub fn new(m: f64, n: f64, k: f64, p: f64) -> OptProblem {
        assert!(
            m >= n && n >= k && k >= 1.0,
            "dimensions must satisfy m >= n >= k >= 1 (got {m}, {n}, {k})"
        );
        assert!(p >= 1.0, "P must be >= 1");
        assert!(m.is_finite() && p.is_finite(), "inputs must be finite");
        OptProblem { m, n, k, p }
    }

    /// Instance for a dimension triple and processor count.
    pub fn from_dims(dims: SortedDims, p: f64) -> OptProblem {
        OptProblem::new(dims.m as f64, dims.n as f64, dims.k as f64, p)
    }

    /// The individual lower bounds `(nk/P, mk/P, mn/P)` on `(x1, x2, x3)`.
    pub fn lower_bounds(&self) -> [f64; 3] {
        [self.n * self.k / self.p, self.m * self.k / self.p, self.m * self.n / self.p]
    }

    /// The Loomis–Whitney product bound `(mnk/P)²`.
    pub fn product_bound(&self) -> f64 {
        let v = self.m * self.n * self.k / self.p;
        v * v
    }

    /// The objective `x1 + x2 + x3`.
    pub fn objective(&self, x: [f64; 3]) -> f64 {
        x.iter().sum()
    }

    /// Constraint values `g(x) ≤ 0` in the paper's order:
    /// `[L − x1x2x3, b1 − x1, b2 − x2, b3 − x3]`.
    pub fn constraints(&self, x: [f64; 3]) -> [f64; 4] {
        let b = self.lower_bounds();
        [self.product_bound() - x[0] * x[1] * x[2], b[0] - x[0], b[1] - x[1], b[2] - x[2]]
    }

    /// Is `x` feasible up to a relative tolerance?
    pub fn feasible(&self, x: [f64; 3], rel_tol: f64) -> bool {
        let scale = self.product_bound().max(1.0);
        let g = self.constraints(x);
        g[0] <= rel_tol * scale
            && (1..4).all(|i| g[i] <= rel_tol * self.lower_bounds()[i - 1].max(1.0))
    }

    /// Which case the instance falls in (boundaries resolve downward, where
    /// the adjacent formulas coincide): [`SortedDims::classify`] when `P`
    /// and the dimensions are whole, the same two comparisons in `f64`
    /// only for a fractional instance (the continuity probes).
    pub fn case(&self) -> Case {
        let whole = |x: f64| x.fract() == 0.0 && x < u64::MAX as f64;
        if [self.m, self.n, self.k, self.p].into_iter().all(whole) {
            let [m, n, k, p] = [self.m, self.n, self.k, self.p].map(|x| x as u64);
            return SortedDims { m, n, k, axes: [0, 1, 2] }.classify(p);
        }
        if self.p <= self.m / self.n {
            Case::OneD
        } else if self.p <= self.m * self.n / (self.k * self.k) {
            Case::TwoD
        } else {
            Case::ThreeD
        }
    }

    /// The analytic optimal solution (Lemma 2).
    ///
    /// ```
    /// use pmm_core::optproblem::OptProblem;
    /// use pmm_core::Case;
    /// // The paper's instance at P = 512 falls in the 3D case:
    /// let sol = OptProblem::new(9600.0, 2400.0, 600.0, 512.0).solve();
    /// assert_eq!(sol.case, Case::ThreeD);
    /// // x1* = x2* = x3* = (mnk/P)^(2/3)
    /// assert_eq!(sol.x[0], sol.x[2]);
    /// ```
    pub fn solve(&self) -> OptSolution {
        let (m, n, k, p) = (self.m, self.n, self.k, self.p);
        let case = self.case();
        let x = match case {
            Case::OneD => [n * k, m * k / p, m * n / p],
            Case::TwoD => {
                let x12 = (m * n * k * k / p).sqrt();
                [x12, x12, m * n / p]
            }
            Case::ThreeD => {
                let x = (m * n * k / p).powf(2.0 / 3.0);
                [x, x, x]
            }
        };
        OptSolution { x, case }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_model::MatMulDims;

    fn paper_instance(p: f64) -> OptProblem {
        // §5.3: m = 9600, n = 2400, k = 600; thresholds 4 and 64.
        OptProblem::new(9600.0, 2400.0, 600.0, p)
    }

    #[test]
    fn case_classification_matches_paper_example() {
        assert_eq!(paper_instance(3.0).case(), Case::OneD);
        assert_eq!(paper_instance(36.0).case(), Case::TwoD);
        assert_eq!(paper_instance(512.0).case(), Case::ThreeD);
    }

    #[test]
    fn solutions_are_feasible_in_all_cases() {
        for p in [1.0, 2.0, 4.0, 10.0, 36.0, 64.0, 100.0, 512.0, 1e6] {
            let prob = paper_instance(p);
            let sol = prob.solve();
            assert!(prob.feasible(sol.x, 1e-12), "P={p}: {:?} infeasible", sol.x);
        }
    }

    #[test]
    fn case1_solution_values() {
        let prob = paper_instance(3.0);
        let sol = prob.solve();
        assert_eq!(sol.x[0], 2400.0 * 600.0);
        assert_eq!(sol.x[1], 9600.0 * 600.0 / 3.0);
        assert_eq!(sol.x[2], 9600.0 * 2400.0 / 3.0);
    }

    #[test]
    fn case2_ties_x1_x2_and_pins_x3() {
        let prob = paper_instance(36.0);
        let sol = prob.solve();
        assert_eq!(sol.x[0], sol.x[1]);
        assert_eq!(sol.x[2], 9600.0 * 2400.0 / 36.0);
        let want = (9600.0f64 * 2400.0 * 600.0 * 600.0 / 36.0).sqrt();
        assert!((sol.x[0] - want).abs() < 1e-9 * want);
    }

    #[test]
    fn case3_is_symmetric() {
        let prob = paper_instance(512.0);
        let sol = prob.solve();
        assert_eq!(sol.x[0], sol.x[1]);
        assert_eq!(sol.x[1], sol.x[2]);
        let want = (9600.0f64 * 2400.0 * 600.0 / 512.0).powf(2.0 / 3.0);
        assert!((sol.x[0] - want).abs() < 1e-9 * want);
    }

    #[test]
    fn solution_is_continuous_at_case_boundaries() {
        // At P = m/n and P = mn/k² adjacent formulas must coincide.
        for (mnk, pb) in [((9600u64, 2400u64, 600u64), 4.0), ((9600, 2400, 600), 64.0)] {
            let dims = MatMulDims::new(mnk.0, mnk.1, mnk.2).sorted();
            let eps = 1e-9;
            let lo = OptProblem::from_dims(dims, pb * (1.0 - eps)).solve();
            let hi = OptProblem::from_dims(dims, pb * (1.0 + eps)).solve();
            for i in 0..3 {
                let rel = (lo.x[i] - hi.x[i]).abs() / lo.x[i];
                assert!(rel < 1e-6, "discontinuity at P={pb}, x{i}: {} vs {}", lo.x[i], hi.x[i]);
            }
        }
    }

    #[test]
    fn square_case_collapses_to_3d_for_p_gt_1() {
        let prob = OptProblem::new(100.0, 100.0, 100.0, 8.0);
        let sol = prob.solve();
        assert_eq!(sol.case, Case::ThreeD);
        let want = (1e6f64 / 8.0).powf(2.0 / 3.0);
        assert!((sol.x[0] - want).abs() < 1e-9 * want);
    }

    #[test]
    fn p_equals_one_gives_whole_matrices() {
        // With one processor the projections are the full matrices.
        let prob = OptProblem::new(30.0, 20.0, 10.0, 1.0);
        let sol = prob.solve();
        assert_eq!(sol.x, [200.0, 300.0, 600.0]);
        assert_eq!(sol.objective(), 1100.0);
    }

    #[test]
    fn objective_increases_with_decreasing_p() {
        let mut prev = f64::INFINITY;
        for p in [1024.0, 256.0, 64.0, 16.0, 4.0, 1.0] {
            let d = paper_instance(p).solve().objective();
            assert!(d >= prev * 0.999_999 || prev == f64::INFINITY, "D should grow as P shrinks");
            let _ = std::mem::replace(&mut prev, d);
        }
    }

    #[test]
    #[should_panic(expected = "m >= n >= k")]
    fn unsorted_dims_rejected() {
        OptProblem::new(10.0, 20.0, 5.0, 2.0);
    }
}

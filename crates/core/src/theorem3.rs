//! Theorem 3 and Corollary 4 — the memory-independent lower bounds.

use std::cmp::Ordering;

use pmm_model::{Case, MatMulDims};

use crate::optproblem::OptProblem;

/// The evaluated lower bound for one `(dims, P)` instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundReport {
    /// Which of the three cases applies.
    pub case: Case,
    /// `D`, the optimum of the Lemma 2 problem: the least possible
    /// `|φ_A| + |φ_B| + |φ_C|` for one processor.
    pub d: f64,
    /// `(mn + mk + nk)/P` — the data a processor may hold at start/end
    /// without violating the one-copy assumption.
    pub offset: f64,
    /// The communication lower bound `D − offset` in words. Zero exactly
    /// at `P = 1` (never negative).
    pub bound: f64,
    /// The case's leading term *without* its constant:
    /// `nk`, `(mnk²/P)^{1/2}`, or `(mnk/P)^{2/3}`.
    pub leading_term: f64,
    /// The tight constant on the leading term: 1, 2 or 3.
    pub constant: f64,
}

/// Evaluate the Theorem 3 lower bound for multiplying `n1×n2` by `n2×n3`
/// on `p` processors.
///
/// ```
/// use pmm_core::{lower_bound, MatMulDims};
/// // Square multiplication: Corollary 4's 3n²/P^{2/3} − 3n²/P.
/// let r = lower_bound(MatMulDims::square(1000), 8.0);
/// assert!((r.bound - (3.0 * 1e6 / 4.0 - 3.0 * 1e6 / 8.0)).abs() < 1e-6);
/// ```
pub fn lower_bound(dims: MatMulDims, p: f64) -> BoundReport {
    let s = dims.sorted();
    let prob = OptProblem::from_dims(s, p);
    let sol = prob.solve();
    let d = sol.objective();
    let offset = s.total_words() / p;
    let (m, n, k) = (s.m as f64, s.n as f64, s.k as f64);
    let (leading_term, constant) = match sol.case {
        Case::OneD => (n * k, 1.0),
        Case::TwoD => ((m * n * k * k / p).sqrt(), 2.0),
        Case::ThreeD => ((m * n * k / p).powf(2.0 / 3.0), 3.0),
    };
    BoundReport { case: sol.case, d, offset, bound: (d - offset).max(0.0), leading_term, constant }
}

/// Theorem 3 held exactly: `p_words` is `P × W` for a whole word count
/// `W` (a run's critical-path words, or [`alg1_relayed`]'s eq. (3)
/// numerator), and the result orders `W` against the bound
/// `D − (mn+mk+nk)/P` without taking a root. With `S = mn + mk + nk`, in
/// the case [`SortedDims::classify`] decides, it compares
///
/// - 1D: `P·W` with `(P−1)·nk`;
/// - 2D: `(P·W + mk + nk)²` with `4·P·mnk²`;
/// - 3D: `(P·W + S)³` with `27·P·(mnk)²`.
///
/// `Equal` is the paper's tightness. The arithmetic is `u128`: a left
/// side that overflows compares `Greater`, a right side that overflows
/// (the left in range) `Less`.
///
/// [`alg1_relayed`]: pmm_model::alg1_relayed
/// [`SortedDims::classify`]: pmm_model::SortedDims::classify
pub fn cmp_bound(dims: MatMulDims, p: u64, p_words: u128) -> Ordering {
    let s = dims.sorted();
    let [m, n, k, pp] = [s.m, s.n, s.k, p].map(u128::from);
    let product = |xs: &[u128]| xs.iter().try_fold(1u128, |acc, &x| acc.checked_mul(x));
    // The left side's offset, `mk + nk` (2D) or `S` (3D), plus `P·W`.
    let plus = |offset: Option<u128>| offset?.checked_add(p_words);
    let (left, right) = match s.classify(p) {
        Case::OneD => (Some(p_words), product(&[pp - 1, n, k])),
        Case::TwoD => {
            let x = plus(product(&[m + n, k]));
            (x.and_then(|x| product(&[x, x])), product(&[4 * pp, m * n, k * k]))
        }
        Case::ThreeD => {
            let x = plus(product(&[m + n, k]).and_then(|w| w.checked_add(m * n)));
            (x.and_then(|x| product(&[x, x, x])), product(&[27 * pp, m * n, k, m * n, k]))
        }
    };
    match (left, right) {
        (None, _) => Ordering::Greater,
        (Some(_), None) => Ordering::Less,
        (Some(l), Some(r)) => l.cmp(&r),
    }
}

/// Corollary 4: for square `n × n` multiplication the bound simplifies to
/// `3n²/P^{2/3} − 3n²/P`.
pub fn corollary4(n: u64, p: f64) -> f64 {
    assert!(p >= 1.0);
    let n2 = (n as f64) * (n as f64);
    3.0 * n2 / p.powf(2.0 / 3.0) - 3.0 * n2 / p
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: MatMulDims = MatMulDims { n1: 9600, n2: 2400, n3: 600 };

    #[test]
    fn case1_bound_matches_closed_form() {
        // 1 ≤ P ≤ 4: bound = (1 − 1/P)·nk.
        for p in [1.0, 2.0, 3.0, 4.0] {
            let r = lower_bound(PAPER, p);
            assert_eq!(r.case, Case::OneD);
            let want = (1.0 - 1.0 / p) * 2400.0 * 600.0;
            assert!((r.bound - want).abs() < 1e-6, "P={p}: {} vs {}", r.bound, want);
            assert_eq!(r.constant, 1.0);
        }
    }

    #[test]
    fn case2_bound_matches_closed_form() {
        for p in [9.0, 16.0, 36.0, 64.0] {
            let r = lower_bound(PAPER, p);
            assert_eq!(r.case, Case::TwoD);
            let (m, n, k) = (9600.0f64, 2400.0, 600.0);
            let want = 2.0 * (m * n * k * k / p).sqrt() - (m * k + n * k) / p;
            assert!((r.bound - want).abs() < 1e-6 * want, "P={p}: {} vs {}", r.bound, want);
            assert_eq!(r.constant, 2.0);
        }
    }

    #[test]
    fn case3_bound_matches_closed_form() {
        for p in [100.0, 512.0, 4096.0] {
            let r = lower_bound(PAPER, p);
            assert_eq!(r.case, Case::ThreeD);
            let (m, n, k) = (9600.0f64, 2400.0, 600.0);
            let want = 3.0 * (m * n * k / p).powf(2.0 / 3.0) - (m * n + m * k + n * k) / p;
            assert!((r.bound - want).abs() < 1e-6 * want, "P={p}");
            assert_eq!(r.constant, 3.0);
        }
    }

    #[test]
    fn an_overflowing_left_side_compares_greater() {
        let cube = MatMulDims::square(1 << 20);
        let tall = MatMulDims::new(1 << 40, 1 << 20, 1);
        assert_eq!(cmp_bound(cube, 8, u128::MAX), Ordering::Greater);
        assert_eq!(cmp_bound(tall, 1 << 21, u128::MAX), Ordering::Greater);
        // Corollary 4 near the top of the range: 27·P·(mnk)² is 2^127.8.
        assert_eq!(cmp_bound(cube, 8, 3 << 40), Ordering::Equal);
    }

    #[test]
    fn bound_is_zero_at_p_equals_one() {
        for dims in [PAPER, MatMulDims::square(100), MatMulDims::new(7, 5, 3)] {
            let r = lower_bound(dims, 1.0);
            assert_eq!(r.bound, 0.0, "{dims}");
        }
    }

    #[test]
    fn bound_is_continuous_across_thresholds() {
        for pb in [4.0, 64.0] {
            let lo = lower_bound(PAPER, pb * (1.0 - 1e-10));
            let hi = lower_bound(PAPER, pb * (1.0 + 1e-10));
            let rel = (lo.bound - hi.bound).abs() / lo.bound.max(1.0);
            assert!(rel < 1e-6, "jump at P={pb}: {} vs {}", lo.bound, hi.bound);
        }
    }

    #[test]
    fn corollary4_matches_theorem3_for_square() {
        for (n, p) in [(100u64, 8.0), (1000, 64.0), (256, 27.0)] {
            let via_thm = lower_bound(MatMulDims::square(n), p).bound;
            let via_cor = corollary4(n, p);
            assert!(
                (via_thm - via_cor).abs() < 1e-6 * via_cor.max(1.0),
                "n={n} P={p}: {via_thm} vs {via_cor}"
            );
        }
    }

    #[test]
    fn d_equals_leading_terms_composition() {
        // Case 1: D = (mn+mk)/P + nk; the non-leading part is (mn+mk)/P.
        let r = lower_bound(PAPER, 2.0);
        let (m, n, k) = (9600.0f64, 2400.0, 600.0);
        assert!((r.d - ((m * n + m * k) / 2.0 + n * k)).abs() < 1e-9);
        // Case 2: D = 2(mnk²/P)^{1/2} + mn/P.
        let r = lower_bound(PAPER, 16.0);
        assert!((r.d - (r.constant * r.leading_term + m * n / 16.0)).abs() < 1e-6);
        // Case 3: D = 3(mnk/P)^{2/3}.
        let r = lower_bound(PAPER, 1000.0);
        assert!((r.d - r.constant * r.leading_term).abs() < 1e-6 * r.d);
    }

    #[test]
    fn dims_order_does_not_matter() {
        let a = lower_bound(MatMulDims::new(9600, 2400, 600), 36.0);
        let b = lower_bound(MatMulDims::new(600, 2400, 9600), 36.0);
        let c = lower_bound(MatMulDims::new(2400, 9600, 600), 36.0);
        assert!((a.bound - b.bound).abs() < 1e-9);
        assert!((a.bound - c.bound).abs() < 1e-9);
    }

    #[test]
    fn data_accessed_d_is_monotone_nonincreasing_in_p() {
        // D — the least data one processor must access — shrinks (weakly)
        // as P grows. (The communication bound D − offset is NOT monotone:
        // in the 1D case (1 − 1/P)·nk grows with P.)
        let mut prev = f64::INFINITY;
        for p in [1.0, 2.0, 4.0, 8.0, 64.0, 512.0, 4096.0, 1e6] {
            let d = lower_bound(PAPER, p).d;
            assert!(d <= prev + 1e-9, "D should not increase with P (P={p})");
            prev = d;
        }
    }

    #[test]
    fn communication_bound_grows_through_case1() {
        // Sanity of the non-monotonicity note above: within the 1D case
        // the bound equals (1 − 1/P)·nk, increasing in P.
        let b2 = lower_bound(PAPER, 2.0).bound;
        let b4 = lower_bound(PAPER, 4.0).bound;
        assert!(b4 > b2);
    }
}

//! §6.2 — limited-memory scenarios.
//!
//! Theorem 3 holds for any local memory size `M`, but when `M` is small it
//! may not be the *tightest* bound: the memory-dependent bound
//! `2mnk/(P√M)` (Smith et al. 2019; Kwasniewski et al. 2019) can be
//! larger. §6.2 shows this happens only in the 3D case, precisely for
//! `mn/k² < P ≤ (8/27)·mnk/M^{3/2}`, and that in the 1D/2D cases the
//! memory-independent bound always dominates.
//!
//! This module evaluates both bounds, locates the crossover, and computes
//! Algorithm 1's memory footprint (the positive terms of eq. 3 — what the
//! processor must hold after the All-Gathers).

use pmm_model::MatMulDims;

use crate::prior::MemDependentBound;
use crate::theorem3::{lower_bound, BoundReport};

/// Which bound is the binding (larger) one at a given `(dims, P, M)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominant {
    /// The memory-independent bound of Theorem 3.
    MemoryIndependent,
    /// The memory-dependent bound `2mnk/(P√M)`.
    MemoryDependent,
}

/// Both bounds evaluated at `(dims, p, m_words)`.
#[derive(Debug, Clone, Copy)]
pub struct LimitedMemoryReport {
    /// The Theorem 3 report.
    pub independent: BoundReport,
    /// `2mnk/(P√M)` (leading term; tight constant 2).
    pub dependent: f64,
    /// Which bound binds.
    pub dominant: Dominant,
}

/// Minimum memory to hold one copy of the problem spread over `P`
/// processors: `(mn + mk + nk)/P` words.
pub fn min_memory_words(dims: MatMulDims, p: f64) -> f64 {
    dims.total_words() / p
}

/// Memory footprint of Algorithm 1 on `grid`: the data a processor holds
/// after both All-Gathers (the positive terms of eq. 3), in words.
///
/// In the 1D/2D cases this is within a constant factor of
/// [`min_memory_words`]; in the 3D case it asymptotically dominates it —
/// which is why Algorithm 1 needs the §6.2 memory assumption there.
pub fn alg1_memory_words(dims: MatMulDims, grid: [usize; 3]) -> f64 {
    let [p1, p2, p3] = grid.map(|x| x as f64);
    let (n1, n2, n3) = (dims.n1 as f64, dims.n2 as f64, dims.n3 as f64);
    n1 * n2 / (p1 * p2) + n2 * n3 / (p2 * p3) + n1 * n3 / (p1 * p3)
}

/// Evaluate both bounds and report the dominant one.
///
/// Following §6.2, the comparison is made between the *data-access*
/// quantities: the memory-dependent leading term `2mnk/(P√M)` against the
/// memory-independent `D` (both before subtracting the resident-data
/// offset, which is common to the two).
pub fn limited_memory_report(dims: MatMulDims, p: f64, m_words: f64) -> LimitedMemoryReport {
    let independent = lower_bound(dims, p);
    let dependent = MemDependentBound::SmithEtAl.evaluate(dims, p, m_words);
    let dominant = if dependent > independent.d {
        Dominant::MemoryDependent
    } else {
        Dominant::MemoryIndependent
    };
    LimitedMemoryReport { independent, dependent, dominant }
}

/// The `P` interval in which the memory-dependent bound dominates the 3D
/// memory-independent leading term `3(mnk/P)^{2/3}`:
/// `mn/k² < P ≤ (8/27)·mnk/M^{3/2}` (§6.2). Returns `None` when the
/// interval is empty (i.e. `M` is large enough that Theorem 3 is tight for
/// all `P`).
/// ```
/// use pmm_core::memlimit::memory_dependent_dominance_range;
/// use pmm_core::MatMulDims;
/// let dims = MatMulDims::new(9600, 2400, 600);
/// let (lo, hi) = memory_dependent_dominance_range(dims, 9_000.0).unwrap();
/// assert_eq!(lo, 64.0); // = mn/k²
/// assert!(hi > 4000.0 && hi < 5000.0);
/// assert!(memory_dependent_dominance_range(dims, 1e12).is_none());
/// ```
pub fn memory_dependent_dominance_range(dims: MatMulDims, m_words: f64) -> Option<(f64, f64)> {
    let s = dims.sorted();
    let lo = s.threshold_2d_3d();
    let hi = (8.0 / 27.0) * s.mults() / m_words.powf(1.5);
    (hi > lo).then_some((lo, hi))
}

/// The §6.2 memory threshold below which the 3D-case temporary space of
/// Algorithm 1 exceeds `M`: the dominance scenario implies
/// `M < (4/9)·(mnk/P)^{2/3}`.
pub fn three_d_memory_threshold(dims: MatMulDims, p: f64) -> f64 {
    (4.0 / 9.0) * (dims.mults() / p).powf(2.0 / 3.0)
}

/// The strong-scaling limit of §2.3 (Ballard et al. 2012b): while the
/// memory-dependent bound `2mnk/(P√M)` binds, communication scales
/// perfectly (∝ 1/P); once the memory-independent bound takes over,
/// per-processor communication falls only as `P^{-2/3}`. The handoff is
/// the upper end of [`memory_dependent_dominance_range`]:
/// `P* = (8/27)·mnk/M^{3/2}`.
///
/// Past `P*`, adding processors still reduces per-processor
/// communication, but the *total* volume (and the communication time at
/// fixed per-link bandwidth) grows as `P^{1/3}`.
pub fn perfect_strong_scaling_limit(dims: MatMulDims, m_words: f64) -> f64 {
    assert!(m_words > 0.0, "memory must be positive");
    (8.0 / 27.0) * dims.mults() / m_words.powf(1.5)
}

/// The binding (larger) of the two bounds at `(dims, p, m_words)`, as a
/// single number: `max(D_independent, 2mnk/(P√M))` at the data-access
/// level. This is the curve a strong-scaling plot should compare
/// measurements against.
pub fn combined_access_bound(dims: MatMulDims, p: f64, m_words: f64) -> f64 {
    let rep = limited_memory_report(dims, p, m_words);
    rep.independent.d.max(rep.dependent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridopt::best_grid;
    use pmm_model::Case;

    const PAPER: MatMulDims = MatMulDims { n1: 9600, n2: 2400, n3: 600 };

    #[test]
    fn min_memory_is_total_over_p() {
        let dims = MatMulDims::new(10, 10, 10);
        assert_eq!(min_memory_words(dims, 4.0), 300.0 / 4.0);
    }

    #[test]
    fn alg1_memory_on_optimal_grids() {
        // 1D grid (P,1,1): holds A-block + all of B + C-block — a constant
        // multiple of the minimum.
        let g = best_grid(PAPER, 3);
        let mem = alg1_memory_words(PAPER, g.grid);
        let minm = min_memory_words(PAPER, 3.0);
        assert!(mem < 3.0 * minm, "1D footprint {mem} should be O(min) {minm}");

        // 3D grid: footprint / min grows like P^{1/3}.
        let g = best_grid(PAPER, 512);
        let mem = alg1_memory_words(PAPER, g.grid);
        let minm = min_memory_words(PAPER, 512.0);
        assert!(mem > 4.0 * minm, "3D footprint {mem} must dominate min {minm}");
    }

    #[test]
    fn memory_footprint_equals_cost_plus_owned() {
        // §6.2: footprint = communication (eq. 3) + (mn+mk+nk)/P.
        use pmm_model::alg1_prediction;
        for p in [3usize, 36, 512] {
            let g = best_grid(PAPER, p).grid;
            let lhs = alg1_memory_words(PAPER, g);
            let rhs = alg1_prediction(PAPER, g).total() + min_memory_words(PAPER, p as f64);
            assert!((lhs - rhs).abs() < 1e-9 * lhs, "P={p}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn dependent_bound_dominates_only_past_the_3d_threshold() {
        // Choose (P, M) inside the dominance interval while keeping M
        // *feasible* (at least (mn+mk+nk)/P — the machine must be able to
        // hold one copy of the problem): P = 4096, M = 9000 works because
        // min memory = 30.24e6/4096 ≈ 7383 ≤ 9000 < (4/9)(mnk/P)^{2/3} = 10000.
        let m_words = 9_000.0;
        let (lo, hi) = memory_dependent_dominance_range(PAPER, m_words).expect("non-empty");
        assert!((lo - 64.0).abs() < 1e-9);
        assert!(hi > lo);

        let p = 4096.0;
        assert!(p > lo && p < hi, "probe P={p} must lie inside ({lo}, {hi})");
        assert!(m_words >= min_memory_words(PAPER, p), "M must be feasible");
        let inside = limited_memory_report(PAPER, p, m_words);
        assert_eq!(inside.dominant, Dominant::MemoryDependent);

        // Far above hi: memory-independent again (leading terms cross back).
        let above = limited_memory_report(PAPER, hi * 8.0, m_words);
        assert_eq!(above.dominant, Dominant::MemoryIndependent);
    }

    #[test]
    fn big_memory_has_empty_dominance_range() {
        // M big enough ⇒ Theorem 3 tight for every P.
        assert!(memory_dependent_dominance_range(PAPER, 1e12).is_none());
    }

    #[test]
    fn cases_one_and_two_never_dominated() {
        // §6.2: for P ≤ mn/k² the memory-independent bound always wins,
        // for any M ≥ mn/P (memory must at least hold the largest matrix).
        for p in [2.0, 4.0, 16.0, 36.0, 64.0] {
            let m_min = 9600.0 * 2400.0 / p; // > mn/P
            for m_words in [m_min, 2.0 * m_min, 10.0 * m_min] {
                let rep = limited_memory_report(PAPER, p, m_words);
                assert_eq!(
                    rep.dominant,
                    Dominant::MemoryIndependent,
                    "P={p}, M={m_words}: dependent {} vs independent {}",
                    rep.dependent,
                    rep.independent.bound
                );
            }
        }
    }

    #[test]
    fn dominance_implies_memory_below_threshold() {
        // §6.2: the dominance scenario implies M < (4/9)(mnk/P)^{2/3}.
        let m_words = 40_000.0;
        if let Some((lo, hi)) = memory_dependent_dominance_range(PAPER, m_words) {
            for frac in [0.1, 0.5, 0.9] {
                let p = lo + frac * (hi - lo);
                if p > lo {
                    let thresh = three_d_memory_threshold(PAPER, p);
                    assert!(m_words < thresh, "P={p}: M={m_words} should be < threshold {thresh}");
                }
            }
        }
    }

    #[test]
    fn perfect_scaling_limit_is_the_dominance_upper_end() {
        let m_words = 9_000.0;
        let (_, hi) = memory_dependent_dominance_range(PAPER, m_words).unwrap();
        assert_eq!(perfect_strong_scaling_limit(PAPER, m_words), hi);
    }

    #[test]
    fn combined_bound_is_continuous_and_bracketed() {
        // The combined curve equals the memory-dependent bound inside the
        // dominance interval and the independent D outside, and never dips
        // below either.
        let m_words = 9_000.0;
        for p in [4096.0, 16384.0, 65536.0] {
            let rep = limited_memory_report(PAPER, p, m_words);
            let c = combined_access_bound(PAPER, p, m_words);
            assert!(c >= rep.independent.d && c >= rep.dependent);
            assert!(c == rep.independent.d || c == rep.dependent);
        }
        // Scaling shape: combined · P is constant while memory-dependent
        // binds (perfect scaling), then grows.
        let lim = perfect_strong_scaling_limit(PAPER, m_words);
        let inside = combined_access_bound(PAPER, lim * 0.9, m_words) * lim * 0.9;
        let inside2 = combined_access_bound(PAPER, lim * 0.45, m_words) * lim * 0.45;
        assert!(
            (inside - inside2).abs() < 1e-6 * inside,
            "total volume constant in the perfect-scaling regime"
        );
        let outside = combined_access_bound(PAPER, lim * 8.0, m_words) * lim * 8.0;
        assert!(outside > inside, "total volume grows past the limit");
    }

    #[test]
    fn case_is_three_d_inside_dominance_range() {
        let m_words = 40_000.0;
        let (lo, hi) = memory_dependent_dominance_range(PAPER, m_words).unwrap();
        let rep = limited_memory_report(PAPER, (lo + hi) / 2.0, m_words);
        assert_eq!(rep.independent.case, Case::ThreeD);
    }
}

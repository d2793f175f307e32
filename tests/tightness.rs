//! End-to-end tightness: Theorem 3's bound (pmm-core) is attained exactly
//! by Algorithm 1 (pmm-algs) running on the metered simulator
//! (pmm-simnet) — across all three cases and several shapes.

use pmm::prelude::*;
use std::cmp::Ordering;

/// Algorithm 1 on `grid`, held to [`Inputs::check`] (which compares it
/// with Theorem 3 too): the measured per-rank critical-path words.
fn measure(inputs: &Inputs, grid: [usize; 3]) -> f64 {
    inputs.measure(&AlgPlan::Alg1 { grid }, false).critical_path_time()
}

#[test]
fn alg1_attains_theorem3_exactly_in_every_case() {
    // Instances with fully divisible blocks *and* fiber chunks, one per
    // case, and two shaped like 768×192×48 (m/n = 4, mn/k² = 64): that
    // one in all three cases, and 192×48×12 at both boundaries, P = m/n
    // and P = mn/k², where adjacent cases meet.
    let paper = Inputs::random_int(MatMulDims::new(768, 192, 48), 1);
    let other = |dims| Inputs::random_int(dims, 1);
    let quarter = other(MatMulDims::new(192, 48, 12));
    for (inputs, p, want_case) in [
        (&paper, 3usize, Case::OneD),
        (&paper, 36, Case::TwoD),
        (&paper, 512, Case::ThreeD),
        (&quarter, 4, Case::OneD),
        (&quarter, 64, Case::TwoD),
        // square instances are always 3D for P > 1
        (&other(MatMulDims::square(96)), 8, Case::ThreeD),
        (&other(MatMulDims::square(144)), 27, Case::ThreeD),
        // tall-skinny 1D instance
        (&other(MatMulDims::new(1024, 64, 64)), 8, Case::OneD),
        // 2D instance with distinct n and k
        (&other(MatMulDims::new(512, 128, 32)), 16, Case::TwoD),
    ] {
        let dims = inputs.dims;
        assert_eq!(dims.sorted().classify(p as u64), want_case, "{dims} P={p}");
        let grid = best_grid(dims, p).grid;
        assert!(dims.divisible_by(grid), "{dims} P={p}: chosen grid {grid:?} must divide");
        let measured = measure(inputs, grid);
        let tight = words_vs_bound(dims, p, measured);
        assert_eq!(tight, Ordering::Equal, "{dims} P={p} ({want_case}): measured {measured}");
    }
}

#[test]
fn no_grid_beats_the_bound() {
    // Theorem 3 applies to *every* parallelization: every factorization's
    // measured cost is ≥ the bound.
    let dims = MatMulDims::new(96, 48, 24);
    let inputs = Inputs::random_int(dims, 1);
    for p in [4usize, 8, 12] {
        for grid in Grid3::factorizations(p) {
            let measured = measure(&inputs, grid);
            let above = words_vs_bound(dims, p, measured).is_ge();
            assert!(above, "grid {grid:?} (P={p}) measured {measured} below the bound");
        }
    }
}

#[test]
fn measured_equals_eq3_prediction_on_divisible_grids() {
    let dims = MatMulDims::new(96, 48, 24);
    let inputs = Inputs::random_int(dims, 1);
    for grid in [[2usize, 2, 2], [4, 2, 1], [1, 3, 4], [6, 4, 2], [2, 6, 1]] {
        assert!(dims.divisible_by(grid));
        assert_eq!(measure(&inputs, grid), alg1_prediction(dims, grid).total(), "grid {grid:?}");
    }
}

#[test]
fn corollary4_is_attained_on_cubic_grids() {
    // n chosen so blocks *and* per-fiber chunks divide evenly (q³ = P and
    // q | (n/q)²), making the attainment exact to the word.
    for (n, p) in [(64u64, 8usize), (144, 27), (64, 64)] {
        let dims = MatMulDims::square(n);
        let q = (p as f64).cbrt().round() as usize;
        let measured = measure(&Inputs::random_int(dims, 1), [q, q, q]);
        let tight = words_vs_bound(dims, p, measured);
        assert_eq!(tight, Ordering::Equal, "n={n} P={p}: measured {measured}");
    }
}

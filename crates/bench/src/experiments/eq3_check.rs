//! **E6 — eq. (3)**: the §5.1 cost analysis of Algorithm 1 holds on *any*
//! grid, not just the optimal one: for every factorization of several `P`
//! on a divisible instance, the measured per-processor critical-path
//! words equal
//!
//! ```text
//! (1 − 1/p3)·n1n2/(p1p2) + (1 − 1/p1)·n2n3/(p2p3) + (1 − 1/p2)·n1n3/(p1p3)
//! ```
//!
//! exactly. This cross-validates the executed simulator against the
//! closed form the other experiments assert their runs against.

use crate::measure::Inputs;
use crate::{fnum, print_table, Checks};
use pmm_core::gridopt::alg1_cost_words;
use pmm_model::{AlgPlan, Grid3, MatMulDims};

pub fn run(checks: &mut Checks) {
    // 96 = 2^5·3, 48, 24: every factorization of the P values below gives
    // divisible blocks and fiber chunks.
    let dims = MatMulDims::new(96, 48, 24);
    println!("eq. (3) vs execution: {dims}, every factorization of P ∈ {{4, 8, 12, 24}}\n");

    let inputs = Inputs::random_int(dims, 3);
    let mut rows = Vec::new();
    let mut n_grids = 0;
    for p in [4usize, 8, 12, 24] {
        for grid in Grid3::factorizations(p) {
            if !dims.divisible_by(grid) {
                continue;
            }
            n_grids += 1;
            let predicted = alg1_cost_words(dims, grid);
            let measured = inputs.measure(&AlgPlan::Alg1 { grid }, false).critical_path_time();
            let exact = (measured - predicted).abs() < 1e-9;
            checks.check(format!("P={p} grid {grid:?}: measured == eq3"), exact);
            // Show a representative subset to keep the table readable.
            if grid[0] >= grid[1] && grid[1] >= grid[2] {
                rows.push(vec![
                    p.to_string(),
                    Grid3::from_dims(grid).to_string(),
                    fnum(predicted),
                    fnum(measured),
                    if exact { "exact".into() } else { "MISMATCH".into() },
                ]);
            }
        }
    }
    print_table(&["P", "grid (sorted reps)", "eq.(3)", "measured", "verdict"], &rows);
    println!(
        "\nchecked all {n_grids} divisible factorizations (table shows sorted representatives)"
    );
}

//! **E4 — Figure 2**: optimal parallelizations of the iteration space for
//! the paper's instance — multiplying a 9600×2400 matrix `A` by a
//! 2400×600 matrix `B` with `P ∈ {3, 36, 512}`.
//!
//! Reproduces the figure's content: the chosen grid (1D / 2D / 3D), the
//! per-axis tile shape, and which matrices are communicated. The
//! communication pattern is then *executed and measured* on a 12.5×-scaled
//! instance with identical aspect ratios (768×192×48 — same thresholds,
//! same grids), confirming the per-matrix traffic the figure describes.

use crate::{fnum, print_table, Checks};
use pmm_algs::Inputs;
use pmm_core::gridopt::best_grid;
use pmm_core::theorem3::lower_bound;
use pmm_model::{alg1_prediction, AlgPlan, MatMulDims};

pub fn run(checks: &mut Checks) {
    let dims = MatMulDims::new(9600, 2400, 600);
    println!("Figure 2: parallelizations of the {dims} iteration space\n");

    let mut rows = Vec::new();
    for p in [3usize, 36, 512] {
        let choice = best_grid(dims, p);
        let [p1, p2, p3] = choice.grid;
        let tile = [9600 / p1 as u64, 2400 / p2 as u64, 600 / p3 as u64];
        let w = alg1_prediction(dims, choice.grid).phases();
        let r = lower_bound(dims, p as f64);
        let dim_label = format!("{}D", choice.grid3().effective_dimensionality().max(1));
        rows.push(vec![
            p.to_string(),
            dim_label,
            choice.grid3().to_string(),
            format!("{}x{}x{}", tile[0], tile[1], tile[2]),
            fnum(w[0]),
            fnum(w[1]),
            fnum(w[2]),
            fnum(choice.cost_words),
            fnum(r.bound),
        ]);
        checks.check(
            format!("P={p}: grid cost equals bound"),
            (choice.cost_words - r.bound).abs() < 1e-6 * r.bound,
        );
    }
    print_table(
        &["P", "dim", "grid", "tile m×n×k", "A words", "B words", "C words", "total", "bound"],
        &rows,
    );

    // Paper's narrative checks (§5.3):
    let g3 = best_grid(dims, 3);
    checks.check("P=3 grid is 3x1x1", g3.grid == [3, 1, 1]);
    let w = alg1_prediction(dims, g3.grid).phases();
    checks.check("P=3: only B communicated", w[0] == 0.0 && w[1] > 0.0 && w[2] == 0.0);
    let (tile_m, tile_n) = (9600 / g3.grid[0] as u64, 2400 / g3.grid[1] as u64);
    checks.check("P=3: tile is not a cube (m/p ≠ n/q)", tile_m != tile_n);

    let g36 = best_grid(dims, 36);
    checks.check("P=36 grid is 12x3x1", g36.grid == [12, 3, 1]);
    let w = alg1_prediction(dims, g36.grid).phases();
    checks.check("P=36: B and C communicated, A not", w[0] == 0.0 && w[1] > 0.0 && w[2] > 0.0);
    let (tile_m, tile_n, tile_k) =
        (9600 / g36.grid[0] as u64, 2400 / g36.grid[1] as u64, 600 / g36.grid[2] as u64);
    checks.check("P=36: tile square in m,n (800=800), not k", tile_m == tile_n && tile_n != tile_k);

    let g512 = best_grid(dims, 512);
    checks.check("P=512 grid is 32x8x2", g512.grid == [32, 8, 2]);
    let w = alg1_prediction(dims, g512.grid).phases();
    checks.check("P=512: all three matrices communicated", w.iter().all(|&x| x > 0.0));
    let (tile_m, tile_n, tile_k) =
        (9600 / g512.grid[0] as u64, 2400 / g512.grid[1] as u64, 600 / g512.grid[2] as u64);
    checks.check("P=512: tile is a cube (300³)", tile_m == tile_n && tile_n == tile_k);

    // ---- executed confirmation on the scaled instance ----------------------
    println!("\nmeasured per-phase traffic on the 12.5x-scaled instance (768x192x48):");
    let small = MatMulDims::new(768, 192, 48);
    let inputs = Inputs::random_int(small, 1);
    let mut rows = Vec::new();
    for p in [3usize, 36, 512] {
        let choice = best_grid(small, p);
        let out = inputs.measure(&AlgPlan::Alg1 { grid: choice.grid }, false);
        // Traffic attributed per phase, max over ranks (balanced anyway).
        let mut per_phase = [0u64; 3];
        for v in &out.values {
            for (i, ph) in v.alg1().phases.iter().enumerate() {
                per_phase[i] = per_phase[i].max(ph.meter.duplex_words());
            }
        }
        let model = alg1_prediction(small, choice.grid).phases();
        for i in 0..3 {
            checks.check(
                format!("scaled P={p}: measured phase {i} == eq3 term"),
                per_phase[i] as f64 == model[i],
            );
        }
        rows.push(vec![
            p.to_string(),
            choice.grid3().to_string(),
            per_phase[0].to_string(),
            per_phase[1].to_string(),
            per_phase[2].to_string(),
        ]);
    }
    print_table(&["P", "grid", "A moved (meas.)", "B moved (meas.)", "C moved (meas.)"], &rows);

    println!("\nreading the tables (matches Fig. 2a–c):");
    println!(" (a) P=3, 1D 3x1x1: only B moves — every processor needs all of B;");
    println!(" (b) P=36, 2D 12x3x1: B and C move, each A entry used by one processor;");
    println!(" (c) P=512, 3D 32x8x2: all three matrices move, local tile is a cube.");
}

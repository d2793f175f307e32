//! **E3 — Theorem 3 / Corollary 4 tightness**: run Algorithm 1 with the
//! §5.2 optimal grid on the metered simulator and verify that the
//! measured per-processor critical-path communication **equals** the lower
//! bound, word for word, in all three cases.
//!
//! This is the executable version of the paper's headline claim: the
//! constants 1, 2, 3 are not just lower bounds — they are attained.
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin tightness
//! ```

use pmm_algs::{alg1, assemble_c, Alg1Config};
use pmm_bench::{fnum, print_table, Checks};
use pmm_core::gridopt::best_grid;
use pmm_core::theorem3::{corollary4, lower_bound};
use pmm_dense::{gemm, random_int_matrix, Kernel};
use pmm_model::{Grid3, MatMulDims};
use pmm_simnet::{MachineParams, World};

fn measure(dims: MatMulDims, grid: [usize; 3], checks: &mut Checks) -> f64 {
    let g = Grid3::from_dims(grid);
    let cfg = Alg1Config::new(dims, g);
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    let out = World::new(g.size(), MachineParams::BANDWIDTH_ONLY).run(move |rank| {
        let a = random_int_matrix(n1, n2, -2..3, 7);
        let b = random_int_matrix(n2, n3, -2..3, 8);
        alg1(rank, &cfg, &a, &b)
    });
    // Verify numerical correctness too — tight *and* right.
    let a = random_int_matrix(n1, n2, -2..3, 7);
    let b = random_int_matrix(n2, n3, -2..3, 8);
    let want = gemm(&a, &b, Kernel::Naive);
    let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    checks.check(
        format!("{dims} grid {grid:?}: product correct"),
        assemble_c(dims, g, &chunks) == want,
    );
    out.critical_path_time()
}

fn main() {
    println!("Tightness of Theorem 3: measured communication of Algorithm 1");
    println!("with the §5.2 grid vs. the lower bound (exact, divisible instances)\n");

    let mut checks = Checks::new();

    // Paper-shaped rectangular instance (m/n = 4, mn/k² = 64), all cases.
    // Exact attainment requires the continuous §5.2 grid to be integral
    // (the paper's analysis assumes integer grid dimensions dividing the
    // matrix dimensions); at other P we report the best integer grid's gap.
    let rect = MatMulDims::new(768, 192, 48);
    let mut rows = Vec::new();
    for p in [2usize, 3, 4, 8, 16, 36, 64, 128, 512] {
        let r = lower_bound(rect, p as f64);
        let choice = best_grid(rect, p);
        if !rect.divisible_by(choice.grid) {
            continue;
        }
        let cont = pmm_core::gridopt::continuous_grid(rect.sorted(), p as f64);
        let integral = cont.iter().all(|&x| (x - x.round()).abs() < 1e-9);
        let measured = measure(rect, choice.grid, &mut checks);
        let exact = (measured - r.bound).abs() <= 1e-9 * r.bound.max(1.0);
        if integral {
            checks.check(format!("{rect} P={p}: measured == bound"), exact);
        } else {
            checks.check(
                format!("{rect} P={p}: integer grid within 20% of bound"),
                measured <= 1.2 * r.bound && measured >= r.bound,
            );
        }
        rows.push(vec![
            p.to_string(),
            r.case.to_string(),
            choice.grid3().to_string(),
            fnum(r.bound),
            fnum(measured),
            if exact {
                "exact".into()
            } else {
                format!("+{:.1}% (non-integral optimal grid)", 100.0 * (measured / r.bound - 1.0))
            },
        ]);
    }
    println!("rectangular {rect}:");
    print_table(&["P", "case", "grid", "bound", "measured", "verdict"], &rows);

    // Square instances (Corollary 4) on cubic grids.
    println!("\nsquare instances (Corollary 4, 3n²/P^(2/3) − 3n²/P):");
    let mut rows = Vec::new();
    for (n, p) in [(64u64, 8usize), (144, 27), (64, 64), (160, 64), (144, 216)] {
        let dims = MatMulDims::square(n);
        let q = (p as f64).cbrt().round() as usize;
        let measured = measure(dims, [q, q, q], &mut checks);
        let bound = corollary4(n, p as f64);
        let exact = (measured - bound).abs() <= 1e-9 * bound.max(1.0);
        checks.check(format!("square n={n} P={p}: measured == corollary4"), exact);
        rows.push(vec![
            n.to_string(),
            p.to_string(),
            format!("{q}x{q}x{q}"),
            fnum(bound),
            fnum(measured),
            if exact { "exact".into() } else { format!("off by {:.2e}", measured - bound) },
        ]);
    }
    print_table(&["n", "P", "grid", "corollary4", "measured", "verdict"], &rows);

    checks.finish();
}

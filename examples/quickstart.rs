//! Quickstart: evaluate the Theorem 3 bound, pick the optimal grid, run
//! Algorithm 1 on the simulated machine, and check tightness.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pmm::prelude::*;
use std::sync::Arc;

fn main() {
    // The multiplication from the paper's §5.3 example, scaled down 12.5×
    // so the demo runs instantly (aspect ratios preserved: m/n = 4,
    // mn/k² = 64).
    let dims = MatMulDims::new(768, 192, 48);
    let p = 36usize;

    // --- 1. the lower bound -------------------------------------------------
    let report = lower_bound(dims, p as f64);
    println!("problem   : {dims} on P = {p}");
    println!(
        "case      : {} (thresholds: m/n = {}, mn/k² = {})",
        report.case,
        dims.sorted().threshold_1d_2d(),
        dims.sorted().threshold_2d_3d()
    );
    println!(
        "bound     : {:.1} words/processor (= {} × {:.1} leading − {:.1} offset)",
        report.bound, report.constant, report.leading_term, report.offset
    );

    // --- 2. the optimal processor grid (§5.2) --------------------------------
    let choice = best_grid(dims, p);
    println!("grid      : {} (predicted eq.3 cost {:.1})", choice.grid3(), choice.cost_words);

    // --- 3. run Algorithm 1 on a simulated 36-rank machine -------------------
    // The global inputs are generated once and shared by every rank, which
    // reads only its owned chunks; integer entries make the distributed
    // result exactly comparable. Each rank is an async program on the
    // simulator's event loop.
    let ab =
        Arc::new((random_int_matrix(768, 192, -4..5, 42), random_int_matrix(192, 48, -4..5, 43)));
    let cfg = Alg1Config::new(dims, choice.grid3());
    let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
        let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
        Box::pin(async move { alg1_a(rank, &cfg, &ab.0, &ab.1).await })
    });

    // --- 4. verify correctness against a serial reference --------------------
    let want = gemm(&ab.0, &ab.1, Kernel::Naive);
    let chunks: Vec<Vec<f64>> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    let got = assemble_c(dims, choice.grid3(), &chunks);
    assert_eq!(got, want, "distributed result must equal the serial product");
    println!("result    : correct ({}x{} product verified)", got.rows(), got.cols());

    // --- 5. tightness: measured communication == bound -----------------------
    let measured = out.critical_path_time();
    println!("measured  : {measured:.1} words/processor on the critical path");
    println!("bound     : {:.1}", report.bound);
    assert_eq!(
        words_vs_bound(dims, p, measured),
        std::cmp::Ordering::Equal,
        "Algorithm 1 with the optimal grid attains the bound exactly"
    );
    println!("tight     : measured == bound ✓ (constants 1/2/3 are attainable)");
}

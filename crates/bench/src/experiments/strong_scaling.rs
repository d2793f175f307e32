//! **E8 — strong scaling** (the Ballard et al. 2012b context of §2.3):
//! fix the problem, grow `P`, and watch how the per-processor and total
//! communication scale: every row is Algorithm 1 executed on the
//! simulator, to P = 262 144 (one rank per element of `C`), and asserted
//! equal to the closed form of eq. (3).
//!
//! Headline shape: total communication `P · W(P)` *grows* like `P^{1/3}`
//! in the 3D regime — perfect strong scaling of communication is
//! impossible once the memory-independent bound binds.

use crate::{fnum, print_table, Checks};
use pmm_algs::Inputs;
use pmm_core::gridopt::best_divisible_grid;
use pmm_core::theorem3::lower_bound;
use pmm_model::{alg1_prediction, AlgPlan, MatMulDims};

pub fn run(checks: &mut Checks) {
    let n = 512u64;
    let dims = MatMulDims::square(n);
    println!("strong scaling of square matmul, n = {n}\n");

    let inputs = Inputs::random_int(dims, 7);
    let mut rows = Vec::new();
    let mut prev_total = 0.0f64;
    for p in [1usize, 8, 64, 512, 4096, 32768, 262144] {
        let choice = best_divisible_grid(dims, p).expect("divisible grid");
        let predicted = alg1_prediction(dims, choice.grid).total();
        let bound = lower_bound(dims, p as f64).bound;

        let measured =
            inputs.measure(&AlgPlan::Alg1 { grid: choice.grid }, false).critical_path_time();
        checks
            .check(format!("P={p}: measured == closed form"), (measured - predicted).abs() < 1e-9);
        let total = predicted * p as f64;
        if p > 1 {
            checks.check(format!("P={p}: total communication grows"), total > prev_total);
        }
        prev_total = total;
        rows.push(vec![
            p.to_string(),
            choice.grid3().to_string(),
            fnum(measured),
            fnum(predicted),
            fnum(bound),
            fnum(total),
            fnum(total / (n as f64 * n as f64)),
        ]);
    }
    print_table(
        &["P", "grid", "measured W", "closed-form W", "bound", "P·W total", "total/n²"],
        &rows,
    );

    // The P^{1/3} law: between cubic P values, total/n² should scale by
    // (P2/P1)^{1/3} up to the lower-order offset.
    let t1 = alg1_prediction(dims, [8, 8, 8]).total() * 512.0;
    let t2 = alg1_prediction(dims, [16, 16, 16]).total() * 4096.0;
    let growth = t2 / t1;
    println!("\ntotal-communication growth 512 → 4096 (8× more processors): {growth:.3}x");
    println!("P^(1/3) law predicts ≈ 2x (plus lower-order effects)");
    checks.check("growth within 15% of 2x", (growth - 2.0).abs() < 0.3);

    println!("\ninterpretation: in the 3D regime communication per processor falls");
    println!("only as P^(-2/3), so the aggregate volume — and with it the");
    println!("communication *time* at fixed per-link bandwidth — rises as P^(1/3).");
    println!("This is the memory-independent limit on strong scaling (§2.3).");
}

//! **E9 — algorithm comparison** (§2.4): who wins where? Measured
//! critical-path words of Algorithm 1 (optimal grid) vs Cannon, SUMMA,
//! 2.5D, and the CARMA recursive cost model, across aspect-ratio regimes.
//!
//! Expected shape: Algorithm 1 never loses; square-grid 2D algorithms are
//! competitive only for square-ish problems in the 2D regime; the 1D
//! regime punishes anything that communicates the big matrix; crossovers
//! track `P = m/n` and `P = mn/k²`.

use crate::{fnum, print_table, Checks};
use pmm_algs::Inputs;
use pmm_core::gridopt::best_grid;
use pmm_core::theorem3::lower_bound;
use pmm_model::{plan_prediction, AlgPlan, MatMulDims};

/// Measured critical-path words of `plan`.
fn words(inputs: &Inputs, plan: AlgPlan) -> f64 {
    inputs.measure(&plan, false).critical_path_time()
}

pub fn run(checks: &mut Checks) {
    // Three regimes, P = 64 everywhere (Cannon/SUMMA on 8×8, 2.5D at c=4).
    let p = 64usize;
    let regimes = [
        ("1D (m/n = 128)", MatMulDims::new(2048, 16, 16)),
        ("2D (m/n = 4, mn/k² = 1024)", MatMulDims::new(768, 192, 12)),
        ("3D (square)", MatMulDims::new(96, 96, 96)),
    ];

    println!("measured critical-path words per processor, P = {p}\n");
    let mut rows = Vec::new();
    for (label, dims) in regimes {
        let bound = lower_bound(dims, p as f64).bound;
        let inputs = Inputs::random_int(dims, 50);
        let a1 = words(&inputs, AlgPlan::Alg1 { grid: best_grid(dims, p).grid });
        let ca = words(&inputs, AlgPlan::Cannon { q: 8 });
        let su = words(&inputs, AlgPlan::Summa { pr: 8, pc: 8 });
        let t25 = words(&inputs, AlgPlan::TwoFiveD { q: 4, c: 4 });
        let carma_model = plan_prediction(dims, &AlgPlan::Carma { p }).cost.words;
        let carma_meas = words(&inputs, AlgPlan::Carma { p });

        for (name, t) in [("cannon", ca), ("summa", su), ("2.5d", t25)] {
            checks.check(format!("{label}: alg1 <= {name}"), a1 <= t + 1e-9);
            checks.check(format!("{label}: {name} >= bound"), t >= bound - 1e-9);
        }
        checks.check(format!("{label}: alg1 within 1e-9 or above bound"), a1 >= bound - 1e-9);
        checks.check(format!("{label}: CARMA model >= bound"), carma_model >= bound * 0.999_999);
        checks.check(
            format!("{label}: executed CARMA == model"),
            (carma_meas - carma_model).abs() < 1e-9,
        );
        let carma = carma_meas;

        rows.push(vec![
            label.to_string(),
            fnum(bound),
            format!("{} ({:.2}x)", fnum(a1), a1 / bound.max(1.0)),
            format!("{} ({:.2}x)", fnum(ca), ca / bound.max(1.0)),
            format!("{} ({:.2}x)", fnum(su), su / bound.max(1.0)),
            format!("{} ({:.2}x)", fnum(t25), t25 / bound.max(1.0)),
            format!("{} ({:.2}x)", fnum(carma), carma / bound.max(1.0)),
        ]);
    }
    print_table(
        &[
            "regime",
            "bound",
            "Alg 1 (opt grid)",
            "Cannon 8x8",
            "SUMMA 8x8",
            "2.5D c=4",
            "CARMA (measured)",
        ],
        &rows,
    );

    // Crossover sweep: fix the paper-shaped instance, sweep P, and report
    // the Alg-1-vs-Cannon ratio — square-grid algorithms catch up as the
    // case moves toward 3D.
    println!("\ncrossover sweep on the paper-shaped instance (768x192x48):");
    let dims = MatMulDims::new(768, 192, 48);
    let inputs = Inputs::random_int(dims, 50);
    let mut rows = Vec::new();
    let mut prev_ratio = f64::INFINITY;
    for q in [2usize, 4, 8, 16] {
        let p = q * q;
        let a1 = words(&inputs, AlgPlan::Alg1 { grid: best_grid(dims, p).grid });
        let ca = words(&inputs, AlgPlan::Cannon { q });
        let ratio = ca / a1.max(1.0);
        rows.push(vec![
            p.to_string(),
            lower_bound(dims, p as f64).case.to_string(),
            fnum(a1),
            fnum(ca),
            format!("{ratio:.2}x"),
        ]);
        checks.check(
            format!("P={p}: Cannon's disadvantage shrinks toward 3D"),
            ratio <= prev_ratio * 1.05,
        );
        prev_ratio = ratio;
    }
    print_table(&["P", "case", "Alg 1", "Cannon", "Cannon/Alg1"], &rows);

    println!("\nreading the tables:");
    println!(" * Algorithm 1 with the §5.2 grid sits on the bound (1.00x) whenever");
    println!("   the optimal grid is integral, and never loses;");
    println!(" * square-grid algorithms pay large factors in skewed regimes and");
    println!("   approach Alg 1 as P enters the 3D case;");
    println!(" * 2.5D interpolates: better than 2D at the same P, still above the");
    println!("   optimal 3D grid;");
    println!(
        " * the CARMA recursion (executed, and exactly matching its cost model)
   also sits on the bound here: on instances whose"
    );
    println!("   dimensions and P are power-of-two aligned, its halving schedule is");
    println!("   equivalent to an optimal grid. Demmel et al. proved only asymptotic");
    println!("   optimality; Theorem 3 supplies the constants that certify runs like");
    println!("   these as exactly optimal (and quantifies the loss when alignment");
    println!("   fails — see the non-integral rows of the tightness experiment).");
}

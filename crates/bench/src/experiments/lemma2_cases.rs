//! **E2 — Lemma 2's case diagram**: sweep `P` across both thresholds for
//! the paper's instance and report the optimal `(x1*, x2*, x3*)`, which
//! constraints are active, the KKT certificate residuals, and the
//! agreement of the independent numeric solver.
//!
//! Regenerates the content of the Lemma 2 visualization (the three
//! regimes separated at `P = m/n` and `P = mn/k²`).

use crate::{fnum, print_table, Checks};
use pmm_core::kkt::{certificate_for, verify_kkt};
use pmm_core::numeric::solve_numeric;
use pmm_core::optproblem::OptProblem;

pub fn run(checks: &mut Checks) {
    let (m, n, k) = (9600.0, 2400.0, 600.0);
    println!("Lemma 2 optimization problem, (m, n, k) = ({m}, {n}, {k})");
    println!("thresholds: P = m/n = {}, P = mn/k² = {}\n", m / n, m * n / (k * k));

    let mut rows = Vec::new();
    for p in [1.0, 2.0, 4.0, 8.0, 16.0, 36.0, 64.0, 128.0, 512.0, 4096.0, 65536.0] {
        let prob = OptProblem::new(m, n, k, p);
        let sol = prob.solve();
        let g = prob.constraints(sol.x);
        let b = prob.lower_bounds();
        // Which individual lower bounds are active (tight within 1e-9)?
        let active: String = (0..3)
            .map(|i| if g[i + 1].abs() <= 1e-9 * b[i].max(1.0) { 'x' } else { '.' })
            .collect();
        let mu = certificate_for(&prob);
        let kkt = verify_kkt(&prob, sol.x, mu, 1e-9);
        let (_, numeric_obj) = solve_numeric(&prob, 8);
        let d = sol.objective();

        checks.check(format!("P={p}: KKT certificate verifies"), kkt.holds(1e-8));
        checks.check(
            format!("P={p}: numeric solver within 1e-4"),
            (numeric_obj - d).abs() <= 1e-4 * d,
        );
        checks
            .check(format!("P={p}: numeric never beats analytic"), numeric_obj >= d * (1.0 - 1e-9));

        rows.push(vec![
            fnum(p),
            sol.case.to_string(),
            fnum(sol.x[0]),
            fnum(sol.x[1]),
            fnum(sol.x[2]),
            active,
            fnum(d),
            format!("{:+.1e}", (numeric_obj - d) / d),
            format!("{:.1e}", kkt.stationarity_residual),
        ]);
    }

    print_table(
        &["P", "case", "x1*", "x2*", "x3*", "active(b1b2b3)", "D = Σx*", "numeric Δ", "KKT resid"],
        &rows,
    );

    println!("\nreading the table (matches the Lemma 2 diagram):");
    println!(" * P ≤ 4 (case 1, '.xx'): b2 and b3 are active — x2 = mk/P and");
    println!("   x3 = mn/P sit on their floors while x1 = nk is set by the");
    println!("   product constraint (at P = 1 all three floors coincide: 'xxx');");
    println!(" * 4 ≤ P ≤ 64 (case 2, '..x'): only b3 active — x1 = x2 =");
    println!("   (mnk²/P)^1/2, x3 = mn/P;");
    println!(" * P ≥ 64 (case 3, '...'): none active — x1 = x2 = x3 = (mnk/P)^2/3.");

    // Continuity at the boundaries.
    for pb in [m / n, m * n / (k * k)] {
        let lo = OptProblem::new(m, n, k, pb * (1.0 - 1e-12)).solve();
        let hi = OptProblem::new(m, n, k, pb * (1.0 + 1e-12)).solve();
        let jump = (0..3).map(|i| ((lo.x[i] - hi.x[i]) / lo.x[i]).abs()).fold(0.0f64, f64::max);
        println!("continuity at P = {pb}: max relative jump {jump:.2e}");
        checks.check(format!("continuous at P={pb}"), jump < 1e-9);
    }
}

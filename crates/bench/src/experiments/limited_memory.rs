//! **E7 — §6.2 limited-memory scenarios**: where the memory-dependent
//! bound `2mnk/(P√M)` overtakes Theorem 3, and what that means for
//! Algorithm 1's applicability.
//!
//! Reproduces the section's three quantitative claims:
//!  1. the dependent bound dominates exactly for
//!     `mn/k² < P ≤ (8/27)·mnk/M^{3/2}`;
//!  2. dominance implies `M < (4/9)(mnk/P)^{2/3}` — below Algorithm 1's
//!     3D-grid footprint, so the algorithm cannot run there;
//!  3. in the 1D/2D cases the memory-independent bound always dominates
//!     (given the problem fits at all), so Theorem 3 is unconditionally
//!     tight there.

use crate::{fnum, print_table, Checks};
use pmm_core::gridopt::best_grid;
use pmm_core::memlimit::{
    alg1_memory_words, limited_memory_report, memory_dependent_dominance_range, min_memory_words,
    three_d_memory_threshold, Dominant,
};
use pmm_model::MatMulDims;

pub fn run(checks: &mut Checks) {
    let dims = MatMulDims::new(9600, 2400, 600);
    let m_words = 9_000.0;

    println!("§6.2 limited-memory analysis: {dims}, M = {m_words} words/processor\n");

    let range = memory_dependent_dominance_range(dims, m_words);
    match range {
        Some((lo, hi)) => {
            println!("claim 1: memory-dependent bound dominates for {lo:.0} < P ≤ {hi:.0}");
            checks.check("dominance interval starts at mn/k²", (lo - 64.0).abs() < 1e-9);
        }
        None => println!("claim 1: interval empty at this M"),
    }

    println!();
    let mut rows = Vec::new();
    for p in [64.0, 512.0, 4096.0, 4600.0, 5000.0, 16384.0, 65536.0] {
        let feasible = min_memory_words(dims, p) <= m_words;
        if !feasible {
            rows.push(vec![
                fnum(p),
                "-".into(),
                "-".into(),
                "-".into(),
                "infeasible (M < data/P)".into(),
            ]);
            continue;
        }
        let rep = limited_memory_report(dims, p, m_words);
        let in_range = range.map(|(lo, hi)| p > lo && p <= hi).unwrap_or(false);
        let agrees = in_range == (rep.dominant == Dominant::MemoryDependent);
        checks.check(format!("P={p}: dominance matches the closed-form interval"), agrees);
        rows.push(vec![
            fnum(p),
            rep.independent.case.to_string(),
            fnum(rep.independent.d),
            fnum(rep.dependent),
            match rep.dominant {
                Dominant::MemoryIndependent => "Theorem 3".into(),
                Dominant::MemoryDependent => "2mnk/(P√M)".into(),
            },
        ]);
    }
    print_table(&["P", "case", "Theorem 3 D", "2mnk/(P√M)", "binding"], &rows);

    // Claim 2: inside the interval, M is below Algorithm 1's footprint.
    println!("\nclaim 2: inside the interval Algorithm 1 cannot run:");
    if let Some((lo, hi)) = range {
        let p = 4096.0;
        assert!(p > lo && p < hi);
        let thresh = three_d_memory_threshold(dims, p);
        let grid = best_grid(dims, p as usize);
        let footprint = alg1_memory_words(dims, grid.grid);
        println!(
            "  P = {p}: M = {m_words} < (4/9)(mnk/P)^(2/3) = {thresh:.0} \
             ≤ Alg 1 footprint {footprint:.0}"
        );
        checks.check("dominance ⇒ M below the 4/9 threshold", m_words < thresh);
        checks.check("4/9 threshold ≤ Alg 1 3D footprint", thresh <= footprint * 1.000001);
    }

    // Claim 3: cases 1 & 2 are never dominated when the problem fits.
    println!("\nclaim 3: 1D/2D cases are unconditionally tight:");
    let mut rows = Vec::new();
    for p in [2.0, 4.0, 16.0, 36.0, 64.0] {
        // Smallest feasible memory: one copy of the data spread over P.
        for mult in [1.0, 2.0, 8.0] {
            let m = min_memory_words(dims, p) * mult;
            let rep = limited_memory_report(dims, p, m);
            checks.check(
                format!("P={p} M={m:.0}: memory-independent dominates"),
                rep.dominant == Dominant::MemoryIndependent,
            );
            if mult == 1.0 {
                rows.push(vec![
                    fnum(p),
                    rep.independent.case.to_string(),
                    fnum(m),
                    fnum(rep.independent.d),
                    fnum(rep.dependent),
                ]);
            }
        }
    }
    print_table(&["P", "case", "M (min feasible)", "Theorem 3 D", "2mnk/(P√M)"], &rows);
}

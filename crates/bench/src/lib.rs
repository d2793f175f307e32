//! # pmm-bench — experiment harnesses
//!
//! One binary per table/figure/claim of the paper (see DESIGN.md §4):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — constants of prior vs. this work |
//! | `lemma2_cases` | Lemma 2 — the three solution regimes |
//! | `tightness` | Theorem 3 / Corollary 4 — measured == bound |
//! | `fig2` | Figure 2 — optimal grids for the §5.3 instance |
//! | `fig1` | Figure 1 — data/communication sets on a 3×3×3 grid |
//! | `eq3_check` | eq. (3) — Alg 1 cost formula vs. execution |
//! | `limited_memory` | §6.2 — bound crossover and memory footprints |
//! | `strong_scaling` | strong-scaling behavior (Ballard et al. 2012b) |
//! | `algo_compare` | §2.4 — Alg 1 vs Cannon/SUMMA/2.5D/CARMA |
//! | `collectives_cost` | §3.1/§5.1 — collective cost optimality |
//! | `phase_attribution` | eq. (3) per phase from the structured trace |
//! | `kernel_bench` | kernel tiers + calibrated α-β-γ-δ prediction gate |
//! | `calibrated_crossover` | §6.2 crossover re-expressed in calibrated seconds |
//!
//! Run all of them with `scripts/run_experiments.sh`. The [`calibrate`]
//! module holds the measured-hardware probes shared by `kernel_bench`,
//! `calibrated_crossover`, `pmm calibrate`, and `cargo xtask calibrate`
//! (see `docs/PERFORMANCE.md`).

pub mod calibrate;

use std::fmt::Display;

/// Render rows as a fixed-width aligned table with a header rule.
pub fn print_table<H: Display, C: Display>(headers: &[H], rows: &[Vec<C>]) {
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> =
        rows.iter().map(|r| r.iter().map(|c| c.to_string()).collect()).collect();
    let ncols = headers.len();
    let mut width = vec![0usize; ncols];
    for (i, h) in headers.iter().enumerate() {
        width[i] = width[i].max(h.chars().count());
    }
    for r in &rows {
        assert_eq!(r.len(), ncols, "row width disagrees with headers");
        for (i, c) in r.iter().enumerate() {
            width[i] = width[i].max(c.chars().count());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            let pad = width[i] - c.chars().count();
            for _ in 0..pad {
                s.push(' ');
            }
            s.push_str(c);
        }
        s
    };
    println!("{}", line(&headers));
    println!("{}", "-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
    for r in &rows {
        println!("{}", line(r));
    }
}

/// Track pass/fail of in-harness verification checks and summarize.
#[derive(Default)]
pub struct Checks {
    passed: usize,
    failed: Vec<String>,
}

impl Checks {
    /// New empty check set.
    pub fn new() -> Checks {
        Checks::default()
    }

    /// Record a named check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(name.into());
        }
    }

    /// Print a summary; exits nonzero on failure so harnesses can gate CI.
    pub fn finish(self) {
        if self.failed.is_empty() {
            println!("\n[checks] {} passed", self.passed);
        } else {
            println!("\n[checks] {} passed, {} FAILED:", self.passed, self.failed.len());
            for f in &self.failed {
                println!("  FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Format a float compactly (integers without decimals, large values in
/// scientific form).
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.fract() == 0.0 && x.abs() < 1e9 {
        format!("{x:.0}")
    } else if x.abs() >= 1e7 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(42.0), "42");
        assert_eq!(fnum(1.5), "1.500");
        assert_eq!(fnum(1e9), "1.000e9");
    }

    #[test]
    fn checks_pass_counting() {
        let mut c = Checks::new();
        c.check("a", true);
        c.check("b", true);
        assert_eq!(c.passed, 2);
        assert!(c.failed.is_empty());
        c.finish();
    }

    #[test]
    fn table_renders_without_panic() {
        print_table(&["x", "yy"], &[vec!["1".to_string(), "2".into()]]);
    }
}

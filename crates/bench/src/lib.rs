//! # pmm-bench — the experiment registry and the measuring harnesses
//!
//! * [`experiments`] — every table, figure and claim of the paper as one
//!   entry of [`experiments::EXPERIMENTS`] (`pmm experiment --list` prints
//!   the table; `cargo xtask experiments` holds each entry's output to
//!   `results/<name>.txt`);
//! * [`calibrate`] — the measured-hardware probes shared by `kernel_bench`,
//!   `calibrated_crossover`, `pmm calibrate` and `cargo xtask calibrate`
//!   (see `docs/PERFORMANCE.md`);
//! * `src/bin/` — the three gate emitters, whose numbers depend on the
//!   machine and a budget: `kernel_bench`, `calibrated_crossover`,
//!   `serve_chaos`.

pub mod calibrate;
pub mod experiments;

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
    /// Record a named check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(name.into());
        }
    }

    /// Print the summary and return the exit code it implies: 0 when
    /// every check held, 1 otherwise.
    pub fn finish(self) -> u8 {
        if self.failed.is_empty() {
            println!("\n[checks] {} passed", self.passed);
            return 0;
        }
        println!("\n[checks] {} passed, {} FAILED:", self.passed, self.failed.len());
        for f in &self.failed {
            println!("  FAIL: {f}");
        }
        1
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
        let mut c = Checks::default();
        c.check("a", true);
        c.check("b", true);
        assert_eq!(c.passed, 2);
        assert!(c.failed.is_empty());
        assert_eq!(c.finish(), 0);
    }

    #[test]
    fn table_renders_without_panic() {
        print_table(&["x", "yy"], &[vec!["1".to_string(), "2".into()]]);
    }
}

//! **E15 — §6.2 crossover with calibrated parameters**: re-express the
//! limited-memory bound comparison in *seconds* on the measured host.
//!
//! The §6.2 analysis (E7, `limited_memory`) compares the
//! memory-independent Theorem 3 bound against the memory-dependent
//! `2mnk/(P√M)` in words. This harness fits this host's calibration
//! (`pmm_bench::calibrate`) and reruns the comparison in predicted
//! wall-clock:
//!
//! 1. **invariance** — both bounds scale by the same β, so the
//!    dominance crossover `P` is exactly where the word comparison (and
//!    the closed-form §6.2 interval) puts it: calibration changes the
//!    units, never the winner;
//! 2. **compute-communication crossover** — a genuinely calibrated
//!    quantity: the `P` beyond which the *lower bound* on communication
//!    time (β × Theorem 3 words) exceeds the perfectly parallelized
//!    compute time (γ × mnk/P). Past that point the machine is
//!    communication-bound no matter the algorithm; the harness checks
//!    the sweep agrees with a closed-form bisection.
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin calibrated_crossover [budget-secs]
//! ```

use pmm_bench::calibrate::calibrate;
use pmm_bench::{fnum, print_table, Checks};
use pmm_core::memlimit::{limited_memory_report, memory_dependent_dominance_range, Dominant};
use pmm_core::theorem3::lower_bound;
use pmm_dense::{kernel_from_env, Kernel};
use pmm_model::MatMulDims;

fn main() -> std::process::ExitCode {
    let budget: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("budget must be a number of seconds"))
        .unwrap_or(5.0);
    let mut checks = Checks::default();

    // The paper's §5.3/§6.2 instance and memory budget.
    let dims = MatMulDims::new(9600, 2400, 600);
    let m_words = 9_000.0;
    let mnk = (dims.n1 * dims.n2 * dims.n3) as f64;

    let kernel = kernel_from_env(Kernel::default()).unwrap_or_else(|e| panic!("{e}"));
    let report = calibrate(budget, kernel);
    let cal = report.cal;
    println!(
        "§6.2 crossover in calibrated seconds: {dims}, M = {m_words} words/processor\n\
         calibration: alpha={:.3e}s beta={:.3e}s/word gamma={:.3e}s/madd\n",
        cal.alpha, cal.beta, cal.gamma
    );

    let range = memory_dependent_dominance_range(dims, m_words);
    let (lo, hi) = range.expect("the paper instance has a non-empty dominance interval");

    let mut rows = Vec::new();
    let mut words_winner_flips = Vec::new();
    let mut secs_winner_flips = Vec::new();
    let mut prev: Option<(bool, bool)> = None;
    let sweep: Vec<f64> = (6..=16).map(|e| (1u64 << e) as f64).collect();
    for &p in &sweep {
        let rep = limited_memory_report(dims, p, m_words);
        let indep_secs = cal.beta * rep.independent.d;
        let dep_secs = cal.beta * rep.dependent;
        let compute_secs = cal.gamma * mnk / p;
        let dep_wins_words = rep.dominant == Dominant::MemoryDependent;
        let dep_wins_secs = dep_secs > indep_secs;
        let comm_bound = indep_secs.max(dep_secs) > compute_secs;
        if let Some((w, s)) = prev {
            if w != dep_wins_words {
                words_winner_flips.push(p);
            }
            if s != dep_wins_secs {
                secs_winner_flips.push(p);
            }
        }
        prev = Some((dep_wins_words, dep_wins_secs));
        checks.check(
            format!("P={p}: seconds comparison agrees with the word comparison"),
            dep_wins_words == dep_wins_secs,
        );
        rows.push(vec![
            fnum(p),
            format!("{:.3e}", indep_secs),
            format!("{:.3e}", dep_secs),
            format!("{:.3e}", compute_secs),
            if dep_wins_secs { "2mnk/(P√M)".into() } else { "Theorem 3".into() },
            if comm_bound { "comm".into() } else { "compute".into() },
        ]);
    }
    print_table(
        &["P", "Thm 3 (s)", "mem-dep (s)", "compute (s)", "binding bound", "regime"],
        &rows,
    );

    // 1. Invariance: every winner flip in the seconds sweep must sit at a
    // boundary of the closed-form word interval (lo, hi].
    println!("\nclosed-form dominance interval: {lo:.0} < P <= {hi:.0}");
    checks.check("seconds sweep flips exactly where the words sweep flips", {
        words_winner_flips == secs_winner_flips
    });
    for p in &secs_winner_flips {
        let brackets_a_boundary = (p / 2.0 <= lo && lo < *p) || (p / 2.0 <= hi && hi < *p);
        checks.check(
            format!("flip at P={p} brackets a closed-form interval boundary"),
            brackets_a_boundary,
        );
    }

    // 2. The calibrated compute-communication crossover: bisect
    // β·bound(P) = γ·mnk/P over continuous P. The bound grows with P
    // while compute shrinks, so the crossing is unique.
    let comm_minus_compute = |p: f64| cal.beta * lower_bound(dims, p).bound - cal.gamma * mnk / p;
    let (mut a, mut b) = (1.0f64, 1e9f64);
    checks.check("comm < compute at P=1", comm_minus_compute(a) < 0.0);
    checks.check("comm > compute at P=1e9", comm_minus_compute(b) > 0.0);
    for _ in 0..200 {
        let mid = (a * b).sqrt();
        if comm_minus_compute(mid) < 0.0 {
            a = mid;
        } else {
            b = mid;
        }
    }
    let p_star = (a * b).sqrt();
    println!(
        "\ncalibrated compute-communication crossover: P* = {p_star:.0}\n\
         (beyond P*, even the Theorem 3 lower bound on communication time\n\
         exceeds gamma·mnk/P — this host is communication-bound there)"
    );
    let sweep_first_comm = sweep
        .iter()
        .copied()
        .find(|&p| cal.beta * lower_bound(dims, p).bound > cal.gamma * mnk / p);
    match sweep_first_comm {
        Some(p) => checks.check(
            format!("sweep's first comm-bound P={p} brackets P*={p_star:.0}"),
            p / 2.0 <= p_star && p_star <= p,
        ),
        None => checks.check(
            "no sweep point is comm-bound, so P* lies beyond the sweep",
            p_star > sweep[sweep.len() - 1],
        ),
    }

    checks.finish().into()
}

//! Implementations of the CLI commands. Each returns its output as a
//! `String` (printed by `main`), so commands are unit-testable.

use std::fmt::Write as _;

use pmm_algs::{check_alg1_price, CShare, Inputs, ALG1_PHASES};
use pmm_bench::calibrate::calibrate as run_probes;
use pmm_core::advisor::recommend;
use pmm_core::gridopt::{best_grid, continuous_grid};
use pmm_core::memlimit::{limited_memory_report, min_memory_words, Dominant};
use pmm_core::theorem3::{cmp_bound, lower_bound};
use pmm_dense::Kernel;
use pmm_model::{
    alg1_prediction, alg1_price, alg1_relayed, recovery_prediction, AlgPlan, Grid3, MachineParams,
    MatMulDims,
};
use pmm_serve::ServeConfig;
use pmm_simnet::{seed_from_env, FaultPlan, HostMem, World, WorldResult};

use crate::args::ServeOpts;

/// `pmm bound`.
pub fn bound(dims: MatMulDims, procs: f64, memory: Option<f64>) -> String {
    let r = lower_bound(dims, procs);
    let s = dims.sorted();
    let mut out = String::new();
    let _ = writeln!(out, "problem      : {dims} on P = {procs}");
    let _ = writeln!(
        out,
        "sorted dims  : m = {}, n = {}, k = {} (thresholds m/n = {}, mn/k² = {})",
        s.m,
        s.n,
        s.k,
        s.threshold_1d_2d(),
        s.threshold_2d_3d()
    );
    let _ = writeln!(out, "case         : {}", r.case);
    let _ = writeln!(
        out,
        "bound        : {:.3} words/processor  (= {} × {:.3} − {:.3})",
        r.bound, r.constant, r.leading_term, r.offset
    );
    if let Some(m) = memory {
        if min_memory_words(dims, procs) > m {
            let _ = writeln!(
                out,
                "memory       : INFEASIBLE — M = {m} < (mn+mk+nk)/P = {:.0}",
                min_memory_words(dims, procs)
            );
        } else {
            let rep = limited_memory_report(dims, procs, m);
            let _ = writeln!(out, "mem-dependent: {:.3} (2mnk/(P·sqrt(M)))", rep.dependent);
            let _ = writeln!(
                out,
                "binding bound: {}",
                match rep.dominant {
                    Dominant::MemoryIndependent => "memory-independent (Theorem 3)",
                    Dominant::MemoryDependent => "memory-dependent 2mnk/(P·sqrt(M)) (§6.2)",
                }
            );
        }
    }
    out
}

/// `pmm grid`.
pub fn grid(dims: MatMulDims, procs: usize) -> String {
    let choice = best_grid(dims, procs);
    let cont = continuous_grid(dims.sorted(), procs as u64);
    let bound = lower_bound(dims, procs as f64).bound;
    let mut out = String::new();
    let _ = writeln!(out, "problem          : {dims} on P = {procs}");
    let _ = writeln!(out, "optimal grid     : {} (iteration-space order p1xp2xp3)", choice.grid3());
    let _ = writeln!(
        out,
        "continuous optimum (sorted m,n,k order): {:.2} x {:.2} x {:.2}",
        cont[0], cont[1], cont[2]
    );
    let _ = writeln!(out, "predicted cost   : {:.3} words/processor (eq. 3)", choice.cost_words);
    let _ = writeln!(out, "lower bound      : {bound:.3}");
    let _ = writeln!(
        out,
        "gap              : {:.2}% {}",
        100.0 * (choice.cost_words / bound.max(1e-300) - 1.0),
        if cmp_bound(dims, procs as u64, alg1_relayed(dims, choice.grid).iter().sum()).is_eq() {
            "(attains the bound exactly)"
        } else {
            "(continuous grid not integral at this P)"
        }
    );
    let _ = writeln!(out, "divides dims     : {}", dims.divisible_by(choice.grid));
    out
}

/// `pmm advise`.
pub fn advise(
    dims: MatMulDims,
    procs: usize,
    memory: Option<f64>,
    alpha: f64,
    beta: f64,
    gamma: f64,
) -> String {
    let params = MachineParams::new(alpha, beta, gamma);
    let m = memory.unwrap_or(f64::INFINITY);
    let recs = recommend(dims, procs, m, params);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "problem: {dims}, P = {procs}, M = {}, (α, β, γ) = ({alpha}, {beta}, {gamma})",
        memory.map(|m| m.to_string()).unwrap_or_else(|| "∞".into())
    );
    if recs.is_empty() {
        let _ = writeln!(out, "no strategy fits in memory (need ≥ (mn+mk+nk)/P words)");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<4} {:<28} {:>14} {:>12} {:>8} {:>12}",
        "#", "plan", "pred. time", "words", "msgs", "mem (words)"
    );
    for (i, r) in recs.iter().take(6).enumerate() {
        let _ = writeln!(
            out,
            "{:<4} {:<28} {:>14.1} {:>12.0} {:>8.0} {:>12.0}",
            i,
            r.plan.to_string(),
            r.time,
            r.cost.words,
            r.cost.messages,
            r.memory_words
        );
    }
    out
}

/// `pmm simulate`, full form: returns the report and the process exit
/// code (`0` = the run passed its certificate, [`Inputs::check`] or
/// [`Inputs::check_recovered`]; `1` = it failed one, or a fault the run
/// could not recover from). `kernel` multiplies every rank's local
/// blocks.
pub fn simulate_run(
    dims: MatMulDims,
    procs: usize,
    grid: Option<[usize; 3]>,
    seed: u64,
    faults: Option<FaultPlan>,
    kernel: Kernel,
) -> (String, u8) {
    match faults {
        None => simulate_clean(dims, procs, grid, seed, kernel),
        Some(plan) => simulate_faulty(dims, procs, seed, plan, kernel),
    }
}

fn simulate_clean(
    dims: MatMulDims,
    procs: usize,
    grid: Option<[usize; 3]>,
    seed: u64,
    kernel: Kernel,
) -> (String, u8) {
    let grid = grid.unwrap_or_else(|| best_grid(dims, procs).grid);
    let g = Grid3::from_dims(grid);
    assert_eq!(g.size(), procs, "grid {} has {} processors but --procs is {procs}", g, g.size());
    let (inputs, plan) = (Inputs::random_int(dims, seed), AlgPlan::Alg1 { grid });
    // The data seed also seeds the schedule (overridable via PMM_SEED),
    // so a reported run replays rank interleaving and all.
    let sched_seed = seed_from_env(seed);
    let world = World::new(procs, MachineParams::BANDWIDTH_ONLY).with_seed(sched_seed);
    let host_before = HostMem::read();
    let out = inputs.run(&world, &plan, kernel);
    let schedule = schedule_line(sched_seed, &out, host_before);
    let certified = inputs.check(&plan, &out);

    let measured = out.critical_path_time();
    let priced = check_alg1_price(dims, &plan, out.values.iter().map(CShare::alg1), Some(measured));
    // Each phase's largest duplex price over the ranks: the closed form
    // is that price only where every rank pays the same.
    let price_max = (0..procs).fold([0u64; 3], |most, r| {
        let price = alg1_price(dims, grid, 1, r);
        std::array::from_fn(|i| most[i].max(price[i].duplex()))
    });
    let predicted = alg1_prediction(dims, grid).total();
    let bound = lower_bound(dims, procs as f64).bound;
    let mut s = String::new();
    let _ = writeln!(s, "simulated {dims} on grid {g} ({procs} ranks, seed {seed})");
    let _ = writeln!(s, "{schedule}");
    let _ = writeln!(s, "{}", certificate_line(&certified));
    let _ = match &priced {
        Ok(()) => writeln!(s, "per rank     : every rank's phases match the integer price ✓"),
        Err(mismatch) => writeln!(s, "per rank     : DIVERGES at {mismatch} ✗"),
    };
    let _ = writeln!(s, "measured     : {measured:.3} words/processor (critical path)");
    let [a, b, c] = price_max;
    let _ = writeln!(s, "price        : {a} / {b} / {c} words (A / B / C phase, max over ranks)");
    let _ = writeln!(s, "closed form  : {predicted:.3} words/processor (eq. (3))");
    let _ = writeln!(s, "lower bound  : {bound:.3}");
    let _ = writeln!(s, "peak memory  : {} words/rank (max)", out.max_peak_mem_words());
    (s, u8::from(certified.is_err() || priced.is_err()))
}

/// The `certificate` line of `pmm simulate` / `pmm trace`: whether the
/// run passed every check of its certificate, or the first it failed.
fn certificate_line<T>(certified: &Result<T, String>) -> String {
    match certified {
        Ok(_) => "certificate  : correct ✓".to_string(),
        Err(failed) => format!("certificate  : FAILS {failed} ✗"),
    }
}

/// The schedule summary line of `pmm simulate` / `pmm trace`: the replay
/// seed, the number of picks the scheduler made, and what the run cost
/// the host in memory — the process's peak RSS and the bytes per rank
/// the world run added to it (`host_before` is read ahead of the run;
/// `n/a` where `/proc` is missing).
fn schedule_line<T>(sched_seed: u64, out: &WorldResult<T>, host_before: Option<HostMem>) -> String {
    let (peak_mb, per_rank) = match HostMem::read().zip(host_before) {
        Some((after, before)) => (
            format!("{:.1}", after.peak_rss_bytes as f64 / 1e6),
            after.bytes_per_rank_since(&before, out.reports.len()).to_string(),
        ),
        None => ("n/a".to_string(), "n/a".to_string()),
    };
    format!(
        "schedule     : deterministic, seed {sched_seed} (replay with PMM_SEED={sched_seed}; \
         {} picks, host peak RSS {peak_mb} MB, host bytes/rank {per_rank})",
        out.picks
    )
}

fn simulate_faulty(
    dims: MatMulDims,
    procs: usize,
    seed: u64,
    plan: FaultPlan,
    kernel: Kernel,
) -> (String, u8) {
    let inputs = Inputs::random_int(dims, seed);
    let sched_seed = seed_from_env(seed);
    // Recovery re-picks the §5.2 grid per attempt from the survivor
    // count, so no --grid applies here. An unrecoverable run (e.g.
    // retransmissions exhausted, or every rank killed) aborts the world
    // with a report; surface it as output + exit 1, not a panic.
    let world = World::new(procs, MachineParams::BANDWIDTH_ONLY)
        .with_seed(sched_seed)
        .with_faults(plan.clone());
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        inputs.recover(&world, &AlgPlan::Alg1 { grid: [1, 1, 1] }, kernel)
    }));
    let mut s = String::new();
    let _ = writeln!(s, "simulated {dims} on {procs} ranks under faults [{plan}] (seed {seed})");
    let out = match run {
        Ok(out) => out,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".into());
            let _ = writeln!(s, "UNRECOVERED  : {detail}");
            return (s, 1);
        }
    };
    let _ = writeln!(
        s,
        "schedule     : deterministic, seed {sched_seed} (replay with PMM_SEED={sched_seed})"
    );
    let Some(ok) = out.values.iter().find_map(|v| v.as_ref().ok()) else {
        let _ = writeln!(s, "UNRECOVERED  : no rank survived the fault plan");
        return (s, 1);
    };
    for v in &out.values {
        if let Err(failed) = v {
            let _ = writeln!(s, "rank failure : {failed}");
        }
    }
    let _ = writeln!(
        s,
        "recovery     : {} attempt(s); survivors {:?} on layout {}",
        ok.attempts(),
        ok.survivors,
        ok.plan
    );
    let certified = inputs.check_recovered(&out);
    let _ = writeln!(s, "{}", certificate_line(&certified));
    let pred = recovery_prediction(dims, &ok.attempt_plans, &ok.attempt_survivors);
    let goodput = out.reports[ok.survivors[0]].meter.words_sent;
    let retry: u64 = out.reports.iter().map(|r| r.meter.retry_overhead_words()).sum();
    let _ =
        writeln!(s, "goodput      : {goodput} words on rank {} (all attempts)", ok.survivors[0]);
    let _ = writeln!(
        s,
        "model        : final attempt {:.0} words total across ranks (+{:.0} restore); \
         whole run ≤ {:.0}",
        pred.last().run_words_total,
        pred.last().restore_words_total,
        pred.total_upper_bound_words()
    );
    let _ = writeln!(s, "retry waste  : {retry} words total across ranks (separate from goodput)");
    (s, u8::from(certified.is_err()))
}

/// `pmm trace`: run Algorithm 1 with structured tracing on, report the
/// per-phase cost attribution against eq. (3) and the critical-path
/// breakdown, and (with `--out`) write the Chrome trace_event JSON.
///
/// Exit code: `0` = the run passed [`Inputs::check`] and (if requested)
/// the trace file was written; `1` = it failed a check or the trace file
/// could not be written.
/// `kernel` multiplies every rank's local blocks.
pub fn trace(
    dims: MatMulDims,
    procs: usize,
    grid: Option<[usize; 3]>,
    seed: u64,
    out_path: Option<&str>,
    kernel: Kernel,
) -> (String, u8) {
    let grid = grid.unwrap_or_else(|| best_grid(dims, procs).grid);
    let g = Grid3::from_dims(grid);
    assert_eq!(g.size(), procs, "grid {} has {} processors but --procs is {procs}", g, g.size());
    let (inputs, plan) = (Inputs::random_int(dims, seed), AlgPlan::Alg1 { grid });
    let sched_seed = seed_from_env(seed);
    let world =
        World::new(procs, MachineParams::BANDWIDTH_ONLY).with_seed(sched_seed).with_trace(true);
    let host_before = HostMem::read();
    let out = inputs.run(&world, &plan, kernel);
    let schedule = schedule_line(sched_seed, &out, host_before);
    let certified = inputs.check(&plan, &out);

    let tracer = out.tracer().expect("tracing was enabled");
    let attribution = tracer.attribution(ALG1_PHASES, |r| alg1_price(dims, grid, 1, r));
    let bound = lower_bound(dims, procs as f64).bound;
    let cp = tracer.critical_path();

    let mut s = String::new();
    let _ = writeln!(s, "traced {dims} on grid {g} ({procs} ranks, seed {seed})");
    let _ = writeln!(s, "{schedule}");
    let _ = writeln!(s, "{}", certificate_line(&certified));
    let _ = writeln!(s);
    let _ = write!(s, "{}", tracer.render_text());
    let _ = writeln!(s);
    let _ = writeln!(s, "per-phase attribution vs eq. (3), priced per rank:");
    let _ = write!(s, "{attribution}");
    let _ = writeln!(s);
    let _ = writeln!(s, "critical path: {:.3} words (lower bound {bound:.3})", cp.total);
    let mut code = u8::from(certified.is_err());
    if let Some(path) = out_path {
        match std::fs::write(path, tracer.chrome_json()) {
            Ok(()) => {
                let _ = writeln!(
                    s,
                    "trace        : wrote {path} (load in Perfetto or chrome://tracing)"
                );
            }
            Err(e) => {
                let _ = writeln!(s, "trace        : FAILED to write {path}: {e}");
                code = 1;
            }
        }
    }
    (s, code)
}

/// `pmm sweep`.
pub fn sweep(dims: MatMulDims, procs: &[f64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>5} {:>12} {:>16} {:>12} {:>8}",
        "P", "case", "grid", "bound (words)", "leading", "const"
    );
    for &p in procs {
        let r = lower_bound(dims, p);
        let g = if p.fract() == 0.0 && (1.0..1e7).contains(&p) {
            best_grid(dims, p as usize).grid3().to_string()
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "{:>10} {:>5} {:>12} {:>16.1} {:>12.1} {:>8}",
            p,
            r.case.to_string(),
            g,
            r.bound,
            r.leading_term,
            r.constant
        );
    }
    out
}

/// Resolve the effective [`ServeConfig`]: built-in defaults, overridden
/// by the `PMM_SERVE_*` environment, overridden by explicit flags.
pub fn serve_config(opts: &ServeOpts) -> ServeConfig {
    let mut config = ServeConfig::from_env();
    if let Some(v) = opts.workers {
        config.workers = v.max(1);
    }
    if let Some(v) = opts.queue_depth {
        config.queue_depth = v.max(1);
    }
    if let Some(v) = opts.deadline_ms {
        config.deadline = std::time::Duration::from_millis(v.max(1));
    }
    if let Some(v) = opts.read_timeout_ms {
        config.read_timeout = std::time::Duration::from_millis(v.max(1));
    }
    if let Some(v) = opts.max_line {
        config.max_line_bytes = v.max(16);
    }
    config
}

/// `pmm serve`: run the hardened advisor service on the requested
/// transport and return the process exit code.
///
/// * `--oneshot` answers one request from stdin (exit 0 iff `OK`);
/// * `--port N` / `PMM_SERVE_PORT` serves TCP in the foreground;
/// * otherwise the service speaks the line protocol on stdin/stdout and
///   drains gracefully at EOF.
pub fn serve(opts: &ServeOpts) -> u8 {
    let config = serve_config(opts);
    if opts.oneshot {
        let stdin = std::io::stdin();
        let (line, code) = pmm_serve::oneshot(config, &mut stdin.lock());
        print!("{line}");
        return code;
    }
    let port = opts
        .port
        .or_else(|| std::env::var("PMM_SERVE_PORT").ok().and_then(|v| v.trim().parse().ok()));
    match port {
        Some(port) => match pmm_serve::TcpService::bind(config, ("127.0.0.1", port)) {
            Ok(service) => {
                eprintln!("pmm serve: listening on {}", service.addr());
                // Foreground service: the accept loop owns the work; this
                // thread just keeps the process alive until it is killed.
                loop {
                    std::thread::park();
                }
            }
            Err(e) => {
                eprintln!("pmm serve: could not bind 127.0.0.1:{port}: {e}");
                1
            }
        },
        None => {
            let server = pmm_serve::Server::start(config);
            let snapshot = pmm_serve::serve_stdio(&server);
            eprintln!("pmm serve: drained; {}", snapshot.render());
            0
        }
    }
}

/// `pmm calibrate`: measure this host's α, β, γ and per-run setup cost
/// from the in-process probes (see `pmm_bench::calibrate` and
/// `docs/PERFORMANCE.md`), print the fitted constants, and optionally
/// write them as calibration JSON.
///
/// Exit code: `0` on success, `1` if `--out` could not be written.
/// `kernel` is the GEMM tier γ is fitted for.
pub fn calibrate(budget_secs: f64, out_path: Option<&str>, kernel: Kernel) -> (String, u8) {
    let report = run_probes(budget_secs, kernel);
    let cal = report.cal;
    let mut s = String::new();
    let _ = writeln!(s, "calibrated in-process machine constants (GEMM kernel: {kernel}):");
    let _ = writeln!(s, "  alpha     : {:.3e} s/message", cal.alpha);
    let _ = writeln!(s, "  beta      : {:.3e} s/word ({:.2} ns)", cal.beta, cal.beta * 1e9);
    let _ = writeln!(
        s,
        "  gamma     : {:.3e} s/madd ({:.2} GFLOP/s at 2 flops/madd)",
        cal.gamma,
        2.0 / cal.gamma / 1e9
    );
    let _ = writeln!(s, "  rank_secs : {:.3e} s/run", cal.rank_secs);
    let _ = writeln!(s, "  stream    : {:.1} GB/s (diagnostic, not fitted)", report.stream_gbps);
    let _ = writeln!(
        s,
        "  fma peak  : {:.1} GFLOP/s on one core at {} bit (diagnostic, not fitted)",
        report.fma_peak_gflops,
        pmm_dense::FMA_VECTOR_BITS
    );
    let _ = writeln!(
        s,
        "  fit       : ping-pong worst-point error {:.1}%",
        100.0 * report.pingpong_fit_error()
    );
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(path, cal.to_json()) {
            let _ = writeln!(s, "could not write {path}: {e}");
            return (s, 1);
        }
        let _ = writeln!(s, "  written   : {path}");
    }
    (s, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: MatMulDims = MatMulDims { n1: 9600, n2: 2400, n3: 600 };

    #[test]
    fn bound_reports_case_and_value() {
        let s = bound(PAPER, 512.0, None);
        assert!(s.contains("case         : 3D"));
        assert!(s.contains("210937.500"), "output was: {s}");
    }

    #[test]
    fn bound_with_memory_reports_binding() {
        let s = bound(PAPER, 4096.0, Some(9000.0));
        assert!(s.contains("memory-dependent"), "output was: {s}");
        let s = bound(PAPER, 65536.0, Some(9000.0));
        assert!(s.contains("memory-independent"), "output was: {s}");
        let s = bound(PAPER, 64.0, Some(9000.0));
        assert!(s.contains("INFEASIBLE"), "output was: {s}");
    }

    #[test]
    fn calibrate_reports_constants_and_writes_json() {
        let path = std::env::temp_dir().join("pmm_cli_calibrate_test.json");
        let (s, code) = calibrate(0.5, path.to_str(), Kernel::default());
        assert_eq!(code, 0, "output was: {s}");
        assert!(s.contains("alpha"), "output was: {s}");
        assert!(s.contains("gamma"), "output was: {s}");
        let json = std::fs::read_to_string(&path).expect("calibration file written");
        let parsed = pmm_model::MachineCalibration::from_json(&json)
            .expect("written calibration round-trips");
        assert!(parsed.gamma > 0.0);
        let _ = std::fs::remove_file(&path);
        // An unwritable path is a reported failure, not a panic.
        let (s, code) = calibrate(0.5, Some("/nonexistent-dir/c.json"), Kernel::default());
        assert_eq!(code, 1, "output was: {s}");
    }

    #[test]
    fn grid_reports_fig2_grids() {
        assert!(grid(PAPER, 36).contains("12x3x1"));
        assert!(grid(PAPER, 512).contains("32x8x2"));
        assert!(grid(PAPER, 512).contains("attains the bound exactly"));
    }

    #[test]
    fn advise_ranks_strategies() {
        let s = advise(MatMulDims::square(512), 64, None, 0.0, 1.0, 0.0);
        let first = s.lines().nth(2).expect("at least one recommendation");
        assert!(first.contains("alg1[4x4x4]"), "winner line: {first}");
    }

    #[test]
    fn simulate_verifies_and_measures() {
        let dims = MatMulDims::new(48, 24, 12);
        let (s, _) = simulate_run(dims, 8, Some([2, 2, 2]), 3, None, Kernel::default());
        assert!(s.contains("correct ✓"), "output was: {s}");
        assert!(s.contains("measured"));
    }

    #[test]
    fn simulate_defaults_to_best_grid() {
        let (s, _) = simulate_run(MatMulDims::new(96, 24, 6), 3, None, 1, None, Kernel::default());
        assert!(s.contains("3x1x1"), "output was: {s}");
    }

    #[test]
    fn trace_attributes_phases_exactly_on_the_optimal_grid() {
        // §5.2 optimal grid for this instance divides the dims, so the
        // measured per-phase words must equal eq. (3) exactly.
        let (s, code) = trace(MatMulDims::new(96, 24, 12), 8, None, 3, None, Kernel::default());
        assert_eq!(code, 0, "output was: {s}");
        assert!(s.contains("correct ✓"), "output was: {s}");
        assert!(s.contains("all phases match the prediction exactly"), "output was: {s}");
        assert!(s.contains("critical path:"), "output was: {s}");
    }

    #[test]
    fn sweep_covers_all_cases() {
        let s = sweep(PAPER, &[2.0, 36.0, 512.0]);
        assert!(s.contains("1D") && s.contains("2D") && s.contains("3D"), "{s}");
    }

    #[test]
    fn serve_config_flag_overrides_beat_defaults() {
        let opts = ServeOpts {
            workers: Some(2),
            queue_depth: Some(0),
            deadline_ms: Some(75),
            ..ServeOpts::default()
        };
        let c = serve_config(&opts);
        assert_eq!(c.workers, 2);
        assert_eq!(c.queue_depth, 1, "zero is clamped to a working minimum");
        assert_eq!(c.deadline, std::time::Duration::from_millis(75));
        // Untouched knobs keep their defaults.
        assert_eq!(c.max_line_bytes, ServeConfig::default().max_line_bytes);
        assert!(!c.chaos_verbs, "the CLI never enables chaos verbs");
    }
}

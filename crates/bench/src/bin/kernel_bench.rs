//! **E14 — local kernels + calibration**: measure every local GEMM tier,
//! fit the machine calibration, and validate that the calibrated α-β-γ
//! model predicts simulated Algorithm 1 wall-clock within tolerance.
//!
//! Three sections, each emitted as `KERNELS:` marker lines that
//! `cargo xtask kernel-bench` parses into `BENCH_kernels.json`:
//!
//! 1. **kernel table** — GFLOP/s per kernel tier × size (standard
//!    `2mnk` flop convention) and its share of the one-core FMA roofline
//!    (`pct_roofline`), plus the bitwise cross-tier identity check at
//!    each size;
//! 2. **calibration** — the fitted α, β, γ, `rank_secs` and the two
//!    roofline diagnostics, stream bandwidth and FMA peak with the vector
//!    width it was issued at (see `pmm_bench::calibrate`);
//! 3. **validation cells** — one per Theorem 3 regime: fit the
//!    shape's effective per-word cost δ from a *smaller probe run*
//!    (`fit_word_secs`), then run Algorithm 1 at full scale, predict its
//!    wall time as `α·Σmsgs + δ·Σwords + γ·Σflops + rank_secs` from the
//!    run's own meters, and compare against the measured wall time. The
//!    probe and validation runs share a grid shape but differ 1.3-2x in
//!    multiply-adds, so the check exercises extrapolation, not self-fit.
//!
//! Checks: `Blocked` reaches ≥ 40 % of the FMA roofline at n = 1024
//! (`pct_roofline`), all tiers produce bitwise-identical products, and
//! every validation cell's prediction lands within 25% of the measured
//! wall-clock.
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin kernel_bench [budget-secs]
//! ```

use std::time::Instant;

use pmm_bench::calibrate::{alg1_cell_run, calibrate, fit_word_secs, gemm_probe};
use pmm_bench::{print_table, Checks};
use pmm_dense::{gemm, random_matrix, Kernel};
use pmm_model::{MachineCalibration, MatMulDims};

/// Sizes for the per-kernel GFLOP/s table. The largest is the
/// acceptance size (the roofline check).
const SIZES: [usize; 3] = [256, 512, 1024];

/// The least share of the FMA roofline, in percent, `Blocked` must reach
/// at n = 1024. The seven runs behind the committed baseline read 49–80 %
/// with the zmm tile and a fall-back to ymm reads under 40 %. A ratio to
/// `Naive` would be no floor at all: it moves with the oracle.
const MIN_PCT_ROOFLINE: f64 = 40.0;

/// One Theorem 3 regime cell: a smaller probe problem that fits the
/// shape's per-word cost δ, and the full-scale problem the calibrated
/// prediction is validated against.
struct Cell {
    name: &'static str,
    probe_dims: MatMulDims,
    dims: MatMulDims,
    grid: [usize; 3],
}

/// The three regimes of the paper's case analysis: near-cubic (all three
/// matrices comparable), one dominant dimension (1D grid, only B moves),
/// and two large dimensions (2D grid). Local blocks stay ≥ the γ-probe
/// sizes so the fitted seconds-per-madd transfers, and probe problems
/// already exceed cache (per-word costs cliff when buffers first spill,
/// so a cache-resident probe would not extrapolate). The one-large cell
/// scales only the dominant dimension, which is exactly the regime's
/// point: the words moved (only B) stay fixed while compute grows.
///
/// The two-large and cubic probes sit close to full scale (5/6 and 11/12
/// per dimension): first-touch page faults are part of δ, and a smaller
/// probe's buffers can stay mapped between repetitions, so its best
/// repetition runs on warm pages the full-size run never sees. Whether
/// the allocator gives the pages back is a cliff in *bytes*, not in
/// scale: the calibration's 16 MiB stream buffers leave glibc's dynamic
/// trim threshold at 32 MiB, and a world whose freed blocks stay under
/// it keeps them. The two-large probe at 2/3 scale read δ 1.1–1.8e-8
/// where the full run pays 2.6e-8 (a 15–28 % miss). The cubic probe fell
/// under the cliff once Algorithm 1 freed its gathered blocks at last
/// use (a rank's live peak went from three blocks to two): at 768³ and
/// at 960³ (5/6) the process stays at its 50 MB peak between repetitions
/// and δ reads 3–7e-9 against the full run's 1.1–1.4e-8, a 10–23 % miss;
/// from 1056³ up the heap is trimmed between repetitions as at 1152³.
fn cells() -> [Cell; 3] {
    [
        Cell {
            name: "cubic",
            probe_dims: MatMulDims::new(1056, 1056, 1056),
            dims: MatMulDims::new(1152, 1152, 1152),
            grid: [2, 2, 2],
        },
        Cell {
            name: "one-large",
            probe_dims: MatMulDims::new(2048, 576, 576),
            dims: MatMulDims::new(4096, 576, 576),
            grid: [8, 1, 1],
        },
        Cell {
            name: "two-large",
            probe_dims: MatMulDims::new(1920, 1920, 240),
            dims: MatMulDims::new(2304, 2304, 288),
            grid: [4, 2, 1],
        },
    ]
}

/// The benchable tiers (Auto excluded — it resolves to one of these).
fn tiers() -> Vec<Kernel> {
    Kernel::ALL.into_iter().filter(|&k| k != Kernel::Auto).collect()
}

fn main() -> std::process::ExitCode {
    let budget: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("budget must be a number of seconds"))
        .unwrap_or(20.0);
    let mut checks = Checks::default();
    let mut markers: Vec<String> = Vec::new();

    // Warm-up: ~1s of sustained vector work before any timing, so every
    // probe and cell runs in the same CPU frequency state (cold starts
    // measure the governor, not the kernel).
    {
        let a = random_matrix(512, 512, 7);
        let b = random_matrix(512, 512, 8);
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < 1.0 {
            std::hint::black_box(gemm(&a, &b, Kernel::Blocked));
        }
    }

    // ---- 1. kernel table ------------------------------------------------
    println!("local GEMM kernels (GFLOP/s, 2·n³ flops):\n");
    let mut rows = Vec::new();
    let mut measured: Vec<(Kernel, usize, f64)> = Vec::new();
    let mut best_at_1024 = (Kernel::Naive, 0.0f64);
    let mut naive_at_1024 = 0.0f64;
    for &n in &SIZES {
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let oracle = gemm(&a, &b, Kernel::Naive);
        let mut identical = true;
        let mut row = vec![n.to_string()];
        for k in tiers() {
            identical &= gemm(&a, &b, k) == oracle;
            let (madds, secs) = gemm_probe(n, k);
            let gflops = 2.0 * madds / secs / 1e9;
            row.push(format!("{gflops:.2}"));
            measured.push((k, n, gflops));
            if n == 1024 {
                if k == Kernel::Naive {
                    naive_at_1024 = gflops;
                }
                if gflops > best_at_1024.1 {
                    best_at_1024 = (k, gflops);
                }
            }
        }
        rows.push(row);
        checks.check(format!("n={n}: all tiers bitwise-identical"), identical);
    }
    let headers: Vec<String> =
        std::iter::once("n".to_string()).chain(tiers().iter().map(|k| k.to_string())).collect();
    print_table(&headers, &rows);
    let (best_kernel, best_gflops) = best_at_1024;
    let speedup = best_gflops / naive_at_1024;
    println!("\nbest at n=1024: {best_kernel} at {best_gflops:.2} GFLOP/s = {speedup:.1}x naive");

    // ---- 2. calibration -------------------------------------------------
    // γ is fitted for the best tier — the one the validation cells run.
    let report = calibrate(budget * 0.5, best_kernel);
    let cal = report.cal;
    println!(
        "\ncalibration (kernel={best_kernel}): alpha={:.3e}s beta={:.3e}s/word \
         gamma={:.3e}s/madd rank_secs={:.3e}s stream={:.1}GB/s pingpong_fit_err={:.1}%",
        cal.alpha,
        cal.beta,
        cal.gamma,
        cal.rank_secs,
        report.stream_gbps,
        100.0 * report.pingpong_fit_error()
    );
    let fma_peak = report.fma_peak_gflops;
    let vector_bits = pmm_dense::FMA_VECTOR_BITS;
    println!("one-core FMA peak: {fma_peak:.1} GFLOP/s at {vector_bits} bit");
    for (k, n, gflops) in measured {
        let pct_roofline = 100.0 * gflops / fma_peak;
        markers.push(format!(
            "KERNELS: kernel label={k}-n{n} name={k} n={n} gflops={gflops:.3} \
             pct_roofline={pct_roofline:.1}"
        ));
        if (k, n) == (Kernel::Blocked, 1024) {
            checks.check(
                format!("blocked at n=1024: {pct_roofline:.1}% >= {MIN_PCT_ROOFLINE}% of roofline"),
                pct_roofline >= MIN_PCT_ROOFLINE,
            );
        }
    }
    markers.push(format!(
        "KERNELS: calibration kernel={best_kernel} alpha={:.6e} beta={:.6e} gamma={:.6e} \
         rank_secs={:.6e} stream_gbps={:.3} fma_peak_gflops={fma_peak:.3} \
         vector_bits={vector_bits}",
        cal.alpha, cal.beta, cal.gamma, cal.rank_secs, report.stream_gbps
    ));
    checks.check("calibration: beta > 0", cal.beta > 0.0);
    checks.check("calibration: gamma > 0", cal.gamma > 0.0);

    // ---- 3. validation cells --------------------------------------------
    println!("\ncalibrated prediction vs measured wall-clock (Algorithm 1):\n");
    let mut cell_rows = Vec::new();
    let mut max_err_pct = 0.0f64;
    for cell in &cells() {
        let (delta, predicted, measured) = run_cell(cell, cal, best_kernel);
        let err_pct = 100.0 * (predicted - measured).abs() / measured;
        max_err_pct = max_err_pct.max(err_pct);
        let [p1, p2, p3] = cell.grid;
        cell_rows.push(vec![
            cell.name.to_string(),
            cell.dims.to_string(),
            format!("{p1}x{p2}x{p3}"),
            format!("{:.2}", delta * 1e9),
            format!("{predicted:.4}"),
            format!("{measured:.4}"),
            format!("{err_pct:.1}%"),
        ]);
        markers.push(format!(
            "KERNELS: cell name={} dims={} grid={p1}x{p2}x{p3} delta={delta:.6e} \
             predicted={predicted:.6} measured={measured:.6} err_pct={err_pct:.2}",
            cell.name, cell.dims
        ));
        checks.check(
            format!("cell {}: prediction within 25% ({err_pct:.1}%)", cell.name),
            err_pct <= 25.0,
        );
    }
    print_table(
        &["cell", "dims", "grid", "delta ns/w", "predicted s", "measured s", "err"],
        &cell_rows,
    );

    markers.push(format!(
        "KERNELS: summary best_kernel={best_kernel} best_gflops={best_gflops:.3} \
         naive_gflops={naive_at_1024:.3} speedup={speedup:.3} max_err_pct={max_err_pct:.2}"
    ));

    println!();
    for m in &markers {
        println!("{m}");
    }

    checks.finish().into()
}

/// Run one cell: fit δ from the smaller probe, then predict and
/// measure the full-scale run. Returns `(delta, predicted, measured)`.
/// The prediction prices the run's own meter totals — not the analytic
/// eq. (3) — so the check isolates the *calibration*; the analytic word
/// counts are validated separately by `eq3_check`.
fn run_cell(cell: &Cell, cal: MachineCalibration, kernel: Kernel) -> (f64, f64, f64) {
    let probe = alg1_cell_run(cell.probe_dims, cell.grid, kernel, 2);
    let delta = fit_word_secs(&cal, &probe);
    let run = alg1_cell_run(cell.dims, cell.grid, kernel, 3);
    let predicted =
        cal.alpha * run.msgs + delta * run.words + cal.gamma * run.flops + cal.rank_secs;
    (delta, predicted, run.wall_secs)
}

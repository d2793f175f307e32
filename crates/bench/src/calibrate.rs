//! Measured-hardware calibration probes: fit the in-process α, β, γ of
//! [`pmm_model::MachineCalibration`] from timed runs.
//!
//! The simulator's cost model counts messages, words and flops; this
//! module measures what each of those *actually costs in wall-clock
//! seconds* on the current host, so `pmm-model` can turn eq. (3) word
//! counts into predicted seconds (see `docs/PERFORMANCE.md`):
//!
//! * **ping-pong** ([`pingpong_probe`]) — a 2-rank simnet world bounces
//!   payloads of increasing size; the per-message time is affine in the
//!   payload, and the least-squares fit yields `alpha` (intercept:
//!   per-message scheduling/matching overhead) and `beta` (slope:
//!   per-word channel cost, both endpoints included);
//! * **stream** ([`stream_probe`]) — a large `memcpy` loop reporting raw
//!   copy bandwidth in GB/s, a sanity diagnostic for `beta` (the channel
//!   cost is bounded below by the copy cost);
//! * **FMA peak** (`pmm_dense::fma_peak_gflops`) — the local-GEMM
//!   roofline: the fast tier's own multiply-add, at the vector width it
//!   issues, with nothing else in the way; a diagnostic for `gamma` as
//!   stream is for `beta`;
//! * **GEMM** ([`gemm_probe`]) — timed local multiplies fit `gamma`
//!   through the origin as seconds per *metered multiply-add* (the
//!   `n1·n2·n3` count the algorithms charge via `Rank::compute`, i.e.
//!   half the usual `2mnk` flop convention);
//! * an **empty world** run measures the fixed per-run setup cost that
//!   becomes [`MachineCalibration::rank_secs`];
//! * a **cell probe** ([`alg1_cell_run`] + [`fit_word_secs`]) — a small
//!   end-to-end Algorithm 1 run whose residual (after α, γ and
//!   `rank_secs`) fits the *effective* per-word cost δ of a given grid
//!   shape, which prices the staging copies and allocator traffic a bare
//!   ping-pong never sees.
//!
//! [`calibrate`] runs all of them under a wall-clock budget and returns the
//! fitted calibration plus the raw probe points, so harnesses (the
//! `kernel_bench` binary, `cargo xtask calibrate`, `pmm calibrate`) can
//! report fit quality alongside the constants.

use std::hint::black_box;
use std::time::Instant;

use pmm_algs::Inputs;
use pmm_dense::{gemm, random_matrix, Kernel};
use pmm_model::{
    fit_affine, fit_through_origin, AlgPlan, MachineCalibration, MachineParams, MatMulDims,
};
use pmm_simnet::{Meter, World};

/// Payload sizes (words) the ping-pong probe sweeps. Spread over two
/// orders of magnitude so the affine fit separates intercept from slope.
pub const PINGPONG_SIZES: [usize; 4] = [8, 256, 2048, 16384];

/// Matrix edges the GEMM probe times (square `n³` problems) — sized to
/// bracket the per-rank local blocks of the `kernel_bench` validation
/// cells, so the fitted γ transfers to distributed runs.
pub const GEMM_SIZES: [usize; 4] = [128, 192, 256, 384];

/// A fitted calibration plus the raw probe measurements it came from.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// The fitted constants (what `calibration.json` stores).
    pub cal: MachineCalibration,
    /// Ping-pong points: `(payload words, seconds per message)`.
    pub pingpong: Vec<(f64, f64)>,
    /// Raw memcpy bandwidth in GB/s (diagnostic; not a fitted constant).
    pub stream_gbps: f64,
    /// One core's multiply-add ceiling in GFLOP/s, issued at
    /// `pmm_dense::FMA_VECTOR_BITS` (diagnostic; `2 / gamma` over this is
    /// the fitted kernel's share of the roofline).
    pub fma_peak_gflops: f64,
    /// GEMM points: `(multiply-adds, seconds)` for the probed sizes.
    pub gemm: Vec<(f64, f64)>,
}

impl CalibrationReport {
    /// Worst relative error of the affine ping-pong fit over its own
    /// points — a fit-quality score (0 = perfect).
    pub fn pingpong_fit_error(&self) -> f64 {
        self.pingpong
            .iter()
            .map(|&(w, secs)| {
                let pred = self.cal.alpha + self.cal.beta * w;
                ((pred - secs) / secs).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// Median-of-runs wall time of `f` (repeated `reps` times, `trials`
/// samples). The median discards scheduler hiccups without the bias of
/// taking the minimum.
fn timed(trials: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..trials.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps.max(1) {
                f();
            }
            t0.elapsed().as_secs_f64() / reps.max(1) as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("probe times are finite"));
    samples[samples.len() / 2]
}

/// Wall time of one empty 2-rank world run — the fixed setup/teardown
/// cost every simulated run pays (`rank_secs`).
pub fn empty_world_probe(trials: usize) -> f64 {
    timed(trials, 1, || {
        let world = World::new(2, MachineParams::BANDWIDTH_ONLY);
        let out = world.run_async(|_rank| Box::pin(async {}));
        black_box(out.values.len());
    })
}

/// Time `rounds` ping-pong round trips of `words`-sized payloads on a
/// 2-rank world and return the wall time **per message** (2 messages per
/// round trip), with the empty-world setup cost subtracted.
pub fn pingpong_probe(words: usize, rounds: usize, world_secs: f64) -> f64 {
    let secs = timed(3, 1, || {
        let world = World::new(2, MachineParams::BANDWIDTH_ONLY);
        let out = world.run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let payload = vec![1.0f64; words];
                let mut acc = 0.0;
                for _ in 0..rounds {
                    if comm.index() == 0 {
                        rank.send_a(&comm, 1, &payload).await;
                        acc += rank.recv_a(&comm, 1).await.payload[0];
                    } else {
                        acc += rank.recv_a(&comm, 0).await.payload[0];
                        rank.send_a(&comm, 0, &payload).await;
                    }
                }
                acc
            })
        });
        black_box(out.values[0]);
    });
    ((secs - world_secs) / (2 * rounds) as f64).max(0.0)
}

/// Raw `memcpy` bandwidth in GB/s: repeatedly copy a `words`-sized
/// buffer and divide bytes moved by wall time.
pub fn stream_probe(words: usize, reps: usize) -> f64 {
    let src = vec![1.0f64; words];
    let mut dst = vec![0.0f64; words];
    let per_copy = timed(3, reps, || {
        dst.copy_from_slice(&src);
        black_box(dst[words / 2]);
    });
    (words * 8) as f64 / per_copy / 1e9
}

/// Time one `n × n × n` GEMM with `kernel` and return `(madds, secs)` —
/// the through-origin γ point for that size.
///
/// Each of the three trials multiplies a *fresh* matrix pair (generated
/// outside the timed region), so the median reflects the cold-data rate
/// a distributed run sees on newly received blocks, not the L3-warm
/// rerun rate — fitting γ warm underpredicts real runs by ~30%.
pub fn gemm_probe(n: usize, kernel: Kernel) -> (f64, f64) {
    let pairs: Vec<(pmm_dense::Matrix, pmm_dense::Matrix)> = (0..3)
        .map(|t| (random_matrix(n, n, 100 + 2 * t), random_matrix(n, n, 101 + 2 * t)))
        .collect();
    let mut trial = 0;
    let secs = timed(3, 1, || {
        let (a, b) = &pairs[trial % pairs.len()];
        trial += 1;
        black_box(gemm(black_box(a), black_box(b), kernel));
    });
    ((n * n * n) as f64, secs)
}

/// Best wall time and summed meter totals of an in-process Algorithm 1
/// run — the raw material for [`fit_word_secs`] and for the
/// `kernel_bench` validation cells.
#[derive(Debug, Clone, Copy)]
pub struct CellRun {
    /// Best-of-`reps` wall-clock seconds for the whole world run.
    pub wall_secs: f64,
    /// Messages sent, summed over ranks.
    pub msgs: f64,
    /// Words sent, summed over ranks.
    pub words: f64,
    /// Metered multiply-adds, summed over ranks.
    pub flops: f64,
}

/// Run Algorithm 1 on `dims` over `grid` in a simnet world and return
/// the best wall time plus the run's meter totals.
///
/// Inputs are generated once outside the timed region and shared across
/// ranks ([`Inputs::run`]), so the wall clock prices only the run itself.
/// The event-loop simulator is single-threaded, so meters *summed over
/// ranks* (not critical-path maxima) are the right predictor basis.
pub fn alg1_cell_run(dims: MatMulDims, grid: [usize; 3], kernel: Kernel, reps: usize) -> CellRun {
    let p: usize = grid.iter().product();
    let inputs = Inputs::new(
        dims,
        random_matrix(dims.n1 as usize, dims.n2 as usize, 11),
        random_matrix(dims.n2 as usize, dims.n3 as usize, 13),
    );
    let plan = AlgPlan::Alg1 { grid };
    let mut run = CellRun { wall_secs: f64::INFINITY, msgs: 0.0, words: 0.0, flops: 0.0 };
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = inputs.run(&World::new(p, MachineParams::BANDWIDTH_ONLY), &plan, kernel);
        run.wall_secs = run.wall_secs.min(t0.elapsed().as_secs_f64());
        let total = |of: fn(&Meter) -> f64| out.reports.iter().map(|r| of(&r.meter)).sum::<f64>();
        run.msgs = total(|m| m.msgs_sent as f64);
        run.words = total(|m| m.words_sent as f64);
        run.flops = total(|m| m.flops);
    }
    run
}

/// Fit the *end-to-end* per-word cost δ from a probe run's residual:
/// whatever wall time α, γ and `rank_secs` leave unexplained, divided by
/// the words sent.
///
/// The ping-pong β is the channel floor — what one word costs through a
/// bare send/recv pair. A real distributed run pays much more per word:
/// chunk extraction, v-collective assembly, fresh-buffer page faults and
/// the cache pressure all scale with the words moved, and *how much*
/// more depends on the communication pattern (fiber and chunk sizes), so
/// δ must be fitted per grid shape from a probe run of that shape and
/// only extrapolated along problem size (see `docs/PERFORMANCE.md`).
/// Clamped below by β: a run can hide per-word cost in cache warmth, but
/// the channel itself never gets cheaper than the probe floor.
pub fn fit_word_secs(cal: &MachineCalibration, probe: &CellRun) -> f64 {
    if probe.words <= 0.0 {
        return cal.beta;
    }
    let residual =
        probe.wall_secs - cal.gamma * probe.flops - cal.alpha * probe.msgs - cal.rank_secs;
    (residual / probe.words).max(cal.beta)
}

/// Run every probe under roughly `budget_secs` of wall clock and fit a
/// [`MachineCalibration`].
///
/// `kernel` selects the GEMM tier that γ describes — pass the same
/// kernel the runs you want to predict will use (normally
/// `pmm_dense::kernel_from_env(Kernel::default())`). The budget steers
/// the ping-pong round counts; the other probes are cheap and fixed.
pub fn calibrate(budget_secs: f64, kernel: Kernel) -> CalibrationReport {
    let budget = budget_secs.clamp(0.5, 120.0);

    let world_secs = empty_world_probe(5);

    // Ping-pong: pick a round count so each size costs ~1/8 of the
    // budget (4 sizes ≈ half the budget), from a quick 8-round pilot.
    let pilot = pingpong_probe(PINGPONG_SIZES[0], 8, world_secs).max(1e-8);
    let target_per_size = budget / 8.0;
    let rounds = ((target_per_size / (2.0 * pilot)) as usize).clamp(16, 4096);
    let pingpong: Vec<(f64, f64)> =
        PINGPONG_SIZES.iter().map(|&w| (w as f64, pingpong_probe(w, rounds, world_secs))).collect();
    let (alpha, beta) = fit_affine(&pingpong);

    let stream_gbps = stream_probe(1 << 21, 8); // 16 MiB copies
    let fma_peak_gflops = pmm_dense::fma_peak_gflops();

    let gemm: Vec<(f64, f64)> = GEMM_SIZES.iter().map(|&n| gemm_probe(n, kernel)).collect();
    let gamma = fit_through_origin(&gemm);

    let cal = MachineCalibration::new(alpha, beta, gamma).with_rank_secs(world_secs);
    CalibrationReport { cal, pingpong, stream_gbps, fma_peak_gflops, gemm }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_yields_positive_physical_constants() {
        let report = calibrate(0.5, Kernel::Naive);
        // β and γ are real measured rates — strictly positive on any
        // host. α can legitimately fit to ~0 (latency below noise).
        assert!(report.cal.beta > 0.0, "beta: {}", report.cal.beta);
        assert!(report.cal.gamma > 0.0, "gamma: {}", report.cal.gamma);
        assert!(report.cal.rank_secs > 0.0);
        assert!(report.stream_gbps > 0.0);
        assert!(report.fma_peak_gflops > 0.0);
        assert_eq!(report.pingpong.len(), PINGPONG_SIZES.len());
        assert_eq!(report.gemm.len(), GEMM_SIZES.len());
    }

    #[test]
    fn gemm_probe_scales_with_problem_size() {
        let (f1, _) = gemm_probe(32, Kernel::Naive);
        let (f2, _) = gemm_probe(64, Kernel::Naive);
        assert_eq!(f1, 32.0 * 32.0 * 32.0);
        assert_eq!(f2 / f1, 8.0);
    }

    #[test]
    fn cell_run_meters_match_analytic_counts() {
        let dims = MatMulDims::new(32, 32, 32);
        let run = alg1_cell_run(dims, [2, 1, 1], Kernel::Naive, 1);
        // Grid [2,1,1]: only B is all-gathered — each of the 2 ranks
        // sends its half of B once. Flops: n1·n2·n3 madds total.
        assert_eq!(run.words, 32.0 * 32.0);
        assert_eq!(run.flops, 32.0 * 32.0 * 32.0);
        assert!(run.wall_secs > 0.0 && run.wall_secs.is_finite());
    }

    #[test]
    fn word_secs_fit_is_clamped_below_by_beta() {
        let cal = MachineCalibration::new(0.0, 1e-9, 1e-10);
        // A probe fully explained by γ alone → residual ~0 → clamp to β.
        let warm = CellRun { wall_secs: 1e-4, msgs: 2.0, words: 1e3, flops: 1e6 };
        assert_eq!(fit_word_secs(&cal, &warm), cal.beta);
        // A probe with unexplained time → δ above the floor.
        let cold = CellRun { wall_secs: 1e-2, msgs: 2.0, words: 1e5, flops: 1e6 };
        assert!(fit_word_secs(&cal, &cold) > cal.beta);
        // No words sent (p = 1): nothing to fit, fall back to β.
        let serial = CellRun { wall_secs: 1e-3, msgs: 0.0, words: 0.0, flops: 1e6 };
        assert_eq!(fit_word_secs(&cal, &serial), cal.beta);
    }

    #[test]
    fn stream_probe_reports_plausible_bandwidth() {
        let gbps = stream_probe(1 << 16, 4);
        assert!(gbps > 0.1, "implausibly slow memcpy: {gbps} GB/s");
    }
}

//! Cross-algorithm conformance sweep (deterministic schedules).
//!
//! For a grid of `(m, n, k, P)` points spanning all three Theorem 3
//! regimes — strictly inside 1D (`P < m/n`), 2D (`m/n < P < mn/k²`) and
//! 3D (`P > mn/k²`), plus one point **on** each regime boundary
//! (`P = m/n` and `P = mn/k²`) — run every algorithm in the workspace and
//! assert, under a seeded deterministic schedule:
//!
//! (a) **bitwise** agreement with the serial dense reference (integer
//!     inputs make every f64 sum exact, so agreement is independent of
//!     summation order);
//! (b) per-rank, per-phase traffic of Algorithm 1 matches the eq. 3
//!     prediction from `pmm-model` exactly on evenly-chunked grids, and
//!     in aggregate on every divisible grid;
//! (c) no algorithm's measured critical-path words beat the Theorem 3
//!     lower bound, and Algorithm 1 on the §5.2 optimal grid attains it
//!     exactly wherever that grid is integral (including both regime
//!     boundaries).
//!
//! Every simulated run uses `World::with_seed` with a seed taken from
//! `PMM_SEED` (see `pmm_simnet::seed_from_env`), so a failure reported by
//! CI replays exactly with `PMM_SEED=<printed seed> cargo test --test
//! conformance`.

use pmm::prelude::*;
use std::sync::Arc;

/// Default schedule seed of the sweep; override with `PMM_SEED`.
const DEFAULT_SEED: u64 = 0x00C0_FFEE;

fn seed() -> u64 {
    let s = seed_from_env(DEFAULT_SEED);
    eprintln!("conformance: schedule seed {s} (replay with PMM_SEED={s})");
    s
}

fn inputs(dims: MatMulDims) -> Arc<(Matrix, Matrix)> {
    Arc::new((
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 11),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 22),
    ))
}

fn reference(dims: MatMulDims) -> Matrix {
    let ab = inputs(dims);
    gemm(&ab.0, &ab.1, Kernel::Naive)
}

/// One sweep point. `interior` is the Theorem 3 case strictly containing
/// `P`, or `None` when `P` sits exactly on a regime boundary. `tight`
/// marks points whose §5.2 optimal grid is integral and divides the
/// dimensions, where Algorithm 1 must attain the bound *exactly*.
struct Point {
    dims: MatMulDims,
    p: usize,
    interior: Option<Case>,
    tight: bool,
    label: &'static str,
}

/// `A = (96, 24, 12)` has `m/n = 4` and `mn/k² = 16`, so `P` in
/// `{2, 4, 8, 16, 64}` walks 1D-interior → boundary → 2D-interior →
/// boundary → 3D-interior. `B = (32, 16, 8)` at `P = 64` adds a
/// 3D-interior point whose continuous optimal grid `[8, 4, 2]` is
/// integral (`t = (P/mnk)^{1/3} = 1/4`), hence exactly tight.
fn sweep() -> Vec<Point> {
    let a = MatMulDims::new(96, 24, 12);
    let b = MatMulDims::new(32, 16, 8);
    vec![
        Point { dims: a, p: 2, interior: Some(Case::OneD), tight: true, label: "1D interior" },
        Point { dims: a, p: 4, interior: None, tight: true, label: "boundary P = m/n" },
        Point { dims: a, p: 8, interior: Some(Case::TwoD), tight: false, label: "2D interior" },
        Point { dims: a, p: 16, interior: None, tight: true, label: "boundary P = mn/k^2" },
        Point {
            dims: a,
            p: 64,
            interior: Some(Case::ThreeD),
            tight: false,
            label: "3D interior, fractional optimal grid",
        },
        Point {
            dims: b,
            p: 64,
            interior: Some(Case::ThreeD),
            tight: true,
            label: "3D interior, integral optimal grid",
        },
    ]
}

/// The grid each point runs Algorithm 1 on: the exact §5.2 optimum at
/// tight points, otherwise the best factorization that divides the
/// dimensions (where measured cost is still predictable).
fn chosen_grid(pt: &Point) -> (Grid3, [usize; 3], f64) {
    let choice = if pt.tight {
        let c = best_grid(pt.dims, pt.p);
        assert!(
            pt.dims.divisible_by(c.grid),
            "{} ({} P={}): tight point's grid {:?} must divide",
            pt.label,
            pt.dims,
            pt.p,
            c.grid
        );
        c
    } else {
        best_divisible_grid(pt.dims, pt.p)
            .unwrap_or_else(|| panic!("{}: no divisible factorization of {}", pt.label, pt.p))
    };
    (Grid3::from_dims(choice.grid), choice.grid, choice.cost_words)
}

/// Eq. 3 is phase-by-phase exact iff every fiber collective works on
/// even chunks: the gathered/reduced block of each phase must split
/// evenly over its fiber.
fn phase_exact(dims: MatMulDims, grid: [usize; 3]) -> bool {
    let [p1, p2, p3] = grid;
    if !dims.divisible_by(grid) {
        return false;
    }
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    let a_block = (n1 / p1) * (n2 / p2);
    let b_block = (n2 / p2) * (n3 / p3);
    let c_block = (n1 / p1) * (n3 / p3);
    a_block % p3 == 0 && b_block % p1 == 0 && c_block % p2 == 0
}

#[test]
fn sweep_spans_all_regimes_and_both_boundaries() {
    let a = MatMulDims::new(96, 24, 12);
    // The regime thresholds of instance A are exactly the swept P values.
    assert_eq!(a.n1 / a.n2, 4, "m/n boundary sits at P = 4");
    assert_eq!((a.n1 * a.n2) / (a.n3 * a.n3), 16, "mn/k^2 boundary sits at P = 16");
    assert_eq!(a.n1 * a.n2 % (a.n3 * a.n3), 0);
    let mut interior_cases = Vec::new();
    let mut boundaries = 0;
    for pt in sweep() {
        match pt.interior {
            Some(case) => {
                assert_eq!(
                    pt.dims.sorted().classify(pt.p as f64),
                    case,
                    "{} ({} P={})",
                    pt.label,
                    pt.dims,
                    pt.p
                );
                interior_cases.push(case);
            }
            None => boundaries += 1,
        }
    }
    for want in [Case::OneD, Case::TwoD, Case::ThreeD] {
        assert!(interior_cases.contains(&want), "missing strict-interior {want} point");
    }
    assert_eq!(boundaries, 2, "one point on each regime boundary");
}

#[test]
fn grid3d_traffic_matches_eq3_prediction_per_rank_and_phase() {
    let seed = seed();
    for pt in sweep() {
        let (grid, grid_arr, cost_words) = chosen_grid(&pt);
        let dims = pt.dims;
        let pred = alg1_prediction(dims, grid_arr);
        assert!(
            (pred.total() - cost_words).abs() <= 1e-12 * cost_words.max(1.0),
            "{}: prediction total disagrees with the grid optimizer",
            pt.label
        );
        let cfg =
            Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
        let ab = inputs(dims);
        let out =
            World::new(pt.p, MachineParams::BANDWIDTH_ONLY).with_seed(seed).run_async(move |r| {
                let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
                Box::pin(async move { alg1_a(r, &cfg, &ab.0, &ab.1).await })
            });
        let exact = phase_exact(dims, grid_arr);
        // Per-rank, per-phase: each fiber collective moves exactly the
        // eq. 3 term on evenly-chunked grids.
        if exact {
            for (r, v) in out.values.iter().enumerate() {
                for (phase, want) in v.phases.iter().zip(pred.phases()) {
                    assert_eq!(
                        phase.meter.duplex_words() as f64,
                        want,
                        "{} ({dims} P={} grid {grid_arr:?}): rank {r} phase '{}' \
                         [PMM_SEED={seed}]",
                        pt.label,
                        pt.p,
                        phase.label
                    );
                }
            }
        }
        // Aggregate (holds on every divisible grid, even with uneven
        // fiber chunks): total received words per phase are P times the
        // eq. 3 term.
        for (i, want) in pred.phases().iter().enumerate() {
            let got: u64 = out.values.iter().map(|v| v.phases[i].meter.words_recv).sum();
            assert!(
                (got as f64 - pt.p as f64 * want).abs() < 1e-6,
                "{} ({dims} P={}): phase {i} aggregate {got} vs {} [PMM_SEED={seed}]",
                pt.label,
                pt.p,
                pt.p as f64 * want
            );
        }
        if exact {
            let measured = out.critical_path_time();
            assert!(
                (measured - pred.total()).abs() <= 1e-9 * pred.total().max(1.0),
                "{} ({dims} P={}): measured {measured} vs eq3 {} [PMM_SEED={seed}]",
                pt.label,
                pt.p,
                pred.total()
            );
        }
    }
}

/// Every plan a sweep point runs: Algorithm 1 and its streamed variant
/// on the point's grid, and each baseline laid out by [`plan_for`] where
/// that layout fills all `P` ranks.
fn plans(pt: &Point, grid: [usize; 3]) -> Vec<AlgPlan> {
    let baselines = [
        AlgPlan::Summa { pr: 1, pc: 1 },
        AlgPlan::Cannon { q: 1 },
        AlgPlan::TwoFiveD { q: 1, c: 1 },
        AlgPlan::Carma { p: 1 },
    ]
    .map(|alg| plan_for(&alg, pt.dims, pt.p));
    let alg1 = [AlgPlan::Alg1 { grid }, AlgPlan::Alg1Streamed { grid, slabs: 2 }];
    alg1.into_iter().chain(baselines.into_iter().filter(|plan| plan.active() == pt.p)).collect()
}

/// Run `plan` at a sweep point: returns the assembled product and the
/// measured critical-path words (bandwidth-only machine).
fn run_plan(pt: &Point, plan: &AlgPlan, seed: u64) -> (Matrix, f64) {
    let (dims, ab) = (pt.dims, inputs(pt.dims));
    let out = World::new(pt.p, MachineParams::BANDWIDTH_ONLY).with_seed(seed).run_async(|r| {
        let (plan, ab) = (plan.clone(), Arc::clone(&ab));
        Box::pin(async move {
            let comm = r.world_comm();
            run_plan_a(r, &comm, &plan, dims, Kernel::Naive, &ab.0, &ab.1).await
        })
    });
    (assemble_recovered(dims, plan, &out.values), out.critical_path_time())
}

/// Algorithm 1 with the all-to-all assembly ablation, which no plan names.
fn run_alg1_all_to_all(pt: &Point, grid: Grid3, seed: u64) -> (Matrix, f64) {
    let dims = pt.dims;
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::AllToAllSum };
    let ab = inputs(dims);
    let out = World::new(pt.p, MachineParams::BANDWIDTH_ONLY).with_seed(seed).run_async(|r| {
        let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
        Box::pin(async move { alg1_a(r, &cfg, &ab.0, &ab.1).await })
    });
    let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    (assemble_c(dims, grid, &chunks), out.critical_path_time())
}

#[test]
fn all_algorithms_agree_bitwise_and_respect_theorem3() {
    let seed = seed();
    for pt in sweep() {
        let (grid, grid_arr, _) = chosen_grid(&pt);
        let want = reference(pt.dims);
        let report = lower_bound(pt.dims, pt.p as f64);
        let runs = plans(&pt, grid_arr)
            .into_iter()
            .map(|plan| (plan.to_string(), run_plan(&pt, &plan, seed)))
            .chain([("alg1/all-to-all".to_string(), run_alg1_all_to_all(&pt, grid, seed))]);
        let mut ran = 0;
        for (name, (got, measured)) in runs {
            ran += 1;
            // (a) bitwise agreement: integer inputs make f64 arithmetic
            // exact, so every schedule and summation order must produce
            // the same bits.
            assert_eq!(
                got, want,
                "{name} at {} ({} P={}) diverges from the dense reference [PMM_SEED={seed}]",
                pt.label, pt.dims, pt.p
            );
            // (c) the Theorem 3 floor.
            assert!(
                measured >= report.bound - 1e-9 * report.bound.max(1.0),
                "{name} at {} ({} P={}): measured {measured} beats the bound {} \
                 [PMM_SEED={seed}]",
                pt.label,
                pt.dims,
                pt.p,
                report.bound
            );
        }
        assert!(ran >= 4, "{}: only {ran} algorithms were runnable", pt.label);
        // Tight points: Algorithm 1 on the §5.2 grid attains the bound
        // exactly — the paper's constants 1/2/3, not just the Θ-class.
        if pt.tight {
            let (_, t) = run_plan(&pt, &AlgPlan::Alg1 { grid: grid_arr }, seed);
            assert!(
                (t - report.bound).abs() <= 1e-9 * report.bound.max(1.0),
                "{} ({} P={} grid {grid_arr:?}): measured {t} must equal the bound {} \
                 [PMM_SEED={seed}]",
                pt.label,
                pt.dims,
                pt.p,
                report.bound
            );
        }
    }
}

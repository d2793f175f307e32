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
//!     summation order), and every plan's goodput equal to its price
//!     (`Inputs::check`);
//! (b) per-rank, per-phase traffic of Algorithm 1, plain and streamed,
//!     equals its integer price (`pmm_model::alg1_price`: words sent,
//!     words received and messages) at every point and on four ragged
//!     layouts off the sweep, and where every rank pays the same price
//!     the critical path is that price;
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

/// The grid each point runs Algorithm 1 on: the best integer grid of
/// §5.2, which at tight points must divide the dimensions.
fn chosen_grid(pt: &Point) -> (Grid3, [usize; 3], f64) {
    let choice = best_grid(pt.dims, pt.p);
    assert!(
        !pt.tight || pt.dims.divisible_by(choice.grid),
        "{} ({} P={}): tight point's grid {:?} must divide",
        pt.label,
        pt.dims,
        pt.p,
        choice.grid
    );
    (Grid3::from_dims(choice.grid), choice.grid, choice.cost_words)
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
                    pt.dims.sorted().classify(pt.p as u64),
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

/// Run Algorithm 1, plain and streamed, on `grid` and hold each rank's
/// words sent, words received and messages to its integer price, phase
/// by phase, and the critical path where every rank pays the same price.
fn assert_priced(dims: MatMulDims, grid: [usize; 3], label: &str, seed: u64) {
    let inputs = Inputs::seeded(dims, [11, 22]);
    for plan in [AlgPlan::Alg1 { grid }, AlgPlan::Alg1Streamed { grid, slabs: 2 }] {
        let out = run(&inputs, &plan, seed);
        let outputs = out.values.iter().map(CShare::alg1);
        if let Err(mismatch) =
            check_alg1_price(dims, &plan, outputs, Some(out.critical_path_time()))
        {
            panic!("{label} ({dims} {plan}): {mismatch} [PMM_SEED={seed}]");
        }
    }
}

#[test]
fn grid3d_traffic_matches_eq3_prediction_per_rank_and_phase() {
    let seed = seed();
    for pt in sweep() {
        let (_, grid, cost_words) = chosen_grid(&pt);
        let pred = alg1_prediction(pt.dims, grid);
        assert_eq!(
            pred.total(),
            cost_words,
            "{}: prediction total vs the grid optimizer",
            pt.label
        );
        assert_priced(pt.dims, grid, pt.label, seed);
    }
}

/// Layouts on which eq. (3)'s closed form is no rank's price: grids that
/// do not divide the dimensions, a divisible grid whose blocks split
/// unevenly over their fibers (ring and recursive schedules), and
/// one-word blocks on fibers of three, where most chunks are empty — the
/// `p1m` scale cell's layout in small.
#[test]
fn ragged_layouts_meter_their_price_per_rank_and_phase() {
    let seed = seed();
    for (dims, grid, label) in [
        (MatMulDims::new(13, 7, 11), [2, 2, 2], "grid does not divide the dimensions"),
        (MatMulDims::new(25, 13, 17), [3, 2, 4], "grid does not divide, ring fibers"),
        (MatMulDims::new(10, 4, 9), [2, 2, 3], "divisible grid, blocks split unevenly"),
        (MatMulDims::new(3, 3, 3), [3, 3, 3], "one-word blocks, empty chunks"),
    ] {
        assert_priced(dims, grid, label, seed);
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

/// Run `plan` on a bandwidth-only world of its size under `seed`, held
/// to [`Inputs::check`]: bitwise product, priced goodput and, for
/// Algorithm 1, every rank's price.
fn run(inputs: &Inputs, plan: &AlgPlan, seed: u64) -> WorldResult<CShare> {
    let world = World::new(plan.active(), MachineParams::BANDWIDTH_ONLY).with_seed(seed);
    let out = inputs.run(&world, plan, Kernel::Naive);
    if let Err(failed) = inputs.check(plan, &out) {
        panic!("{plan} on {}: {failed} [PMM_SEED={seed}]", inputs.dims);
    }
    out
}

/// Algorithm 1 with the all-to-all assembly ablation, which no plan
/// names: its product is asserted, its critical-path words returned.
fn run_alg1_all_to_all(inputs: &Inputs, grid: Grid3, seed: u64) -> f64 {
    let dims = inputs.dims;
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::AllToAllSum };
    let world = World::new(grid.size(), MachineParams::BANDWIDTH_ONLY).with_seed(seed);
    let out = world.run_async(|r| {
        let (cfg, a, b) = (cfg.clone(), Arc::clone(&inputs.a), Arc::clone(&inputs.b));
        Box::pin(async move { alg1_a(r, &cfg, &a, &b).await })
    });
    let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    let c = assemble_c(dims, grid, &chunks);
    assert_eq!(c, *inputs.want(), "alg1/all-to-all on {dims} diverges [PMM_SEED={seed}]");
    out.critical_path_time()
}

#[test]
fn all_algorithms_agree_bitwise_and_respect_theorem3() {
    let seed = seed();
    for pt in sweep() {
        let (grid, grid_arr, _) = chosen_grid(&pt);
        let inputs = Inputs::seeded(pt.dims, [11, 22]);
        let report = lower_bound(pt.dims, pt.p as f64);
        // (a) bitwise agreement: integer inputs make f64 arithmetic exact,
        // so every schedule and summation order must produce the same
        // bits; `run` also holds goodput and prices.
        let runs = plans(&pt, grid_arr)
            .into_iter()
            .map(|plan| (plan.to_string(), run(&inputs, &plan, seed).critical_path_time()))
            .chain([("alg1/all-to-all".to_string(), run_alg1_all_to_all(&inputs, grid, seed))]);
        let mut ran = 0;
        for (name, measured) in runs {
            ran += 1;
            // (c) the Theorem 3 floor.
            assert!(
                words_vs_bound(pt.dims, pt.p, measured).is_ge(),
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
            let t = run(&inputs, &AlgPlan::Alg1 { grid: grid_arr }, seed).critical_path_time();
            assert!(
                words_vs_bound(pt.dims, pt.p, t).is_eq(),
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

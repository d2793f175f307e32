//! Structured-trace attribution gate (`cargo xtask trace-check`).
//!
//! Runs Algorithm 1 with tracing enabled over the same pinned sweep the
//! conformance suite uses ((m, n, k, P) points spanning all three
//! Theorem 3 regimes plus both boundaries) and asserts that the trace is
//! a faithful, deterministic account of the run:
//!
//! (a) every rank's per-phase words and messages, from the event trace
//!     (`Tracer::attribution` reports no divergent phase) and from the
//!     meter-diff phase accounting the algorithm itself reports, equal
//!     its integer price (`pmm_model::alg1_price`) **exactly** on every
//!     layout, ragged ones included;
//! (b) the trace's critical-path total reproduces the simulator's clock
//!     (`WorldResult::critical_path_time`) and is never below any rank's
//!     duplex goodput words;
//! (c) the Chrome trace_event JSON export is byte-stable for a pinned
//!     `(program, seed)` — goldens and CI diffs can rely on it.
//!
//! Every run is seeded via `PMM_SEED` (see `pmm_simnet::seed_from_env`),
//! so `cargo xtask trace-check` can sweep the pinned replay seeds.

use pmm::prelude::*;

/// Default schedule seed; override with `PMM_SEED`.
const DEFAULT_SEED: u64 = 0x00C0_FFEE;

fn seed() -> u64 {
    let s = seed_from_env(DEFAULT_SEED);
    eprintln!("trace_attribution: schedule seed {s} (replay with PMM_SEED={s})");
    s
}

/// The conformance sweep's (dims, P) points: instance A walks
/// 1D-interior → boundary → 2D-interior → boundary → 3D-interior,
/// instance B adds a 3D point whose §5.2 optimal grid is integral.
fn sweep() -> Vec<(MatMulDims, usize)> {
    let a = MatMulDims::new(96, 24, 12);
    let b = MatMulDims::new(32, 16, 8);
    vec![(a, 2), (a, 4), (a, 8), (a, 16), (a, 64), (b, 64)]
}

/// The grid a sweep point runs on: the best integer grid of §5.2.
fn grid_of(dims: MatMulDims, p: usize) -> [usize; 3] {
    best_grid(dims, p).grid
}

/// Algorithm 1 on `grid`, traced, on integer inputs (`A` from seed 11,
/// `B` from seed 22), held to [`Inputs::check`].
fn traced_run(dims: MatMulDims, grid: [usize; 3], seed: u64) -> WorldResult<CShare> {
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    let inputs = Inputs::new(
        dims,
        random_int_matrix(n1, n2, -3..4, 11),
        random_int_matrix(n2, n3, -3..4, 22),
    );
    let (world, plan) =
        (World::new(grid.iter().product(), MachineParams::BANDWIDTH_ONLY), AlgPlan::Alg1 { grid });
    let out = inputs.run(&world.with_seed(seed).with_trace(true), &plan, Kernel::default());
    assert_eq!(inputs.check(&plan, &out), Ok(()), "{dims} grid {grid:?} [PMM_SEED={seed}]");
    out
}

/// The sweep on its best grids, then a grid that does not divide the
/// dimensions and a divisible grid whose blocks split unevenly over their
/// fibers.
fn layouts() -> Vec<(MatMulDims, [usize; 3])> {
    let sweep = sweep().into_iter().map(|(dims, p)| (dims, grid_of(dims, p)));
    let ragged = [(MatMulDims::new(13, 7, 11), [2, 2, 2]), (MatMulDims::new(10, 4, 9), [2, 2, 3])];
    sweep.chain(ragged).collect()
}

#[test]
fn trace_phase_words_match_the_meter_diff_accounting() {
    let seed = seed();
    // The algorithm's own phase meters (and, where every rank pays the
    // same price, the clock) are held to every rank's integer price, and
    // the trace's per-phase totals to those meters.
    for (dims, grid) in layouts() {
        let out = traced_run(dims, grid, seed);
        let path = Some(out.critical_path_time());
        let outputs = out.values.iter().map(CShare::alg1);
        let metered = check_alg1_price(dims, &AlgPlan::Alg1 { grid }, outputs, path);
        assert_eq!(metered, Ok(()), "{dims} grid {grid:?} [PMM_SEED={seed}]");
        let totals = out.tracer().expect("tracing was on").phase_totals();
        for (i, label) in ALG1_PHASES.into_iter().enumerate() {
            let traced = totals.iter().find(|t| t.label == label).map(|t| &t.ranks);
            let metered: Vec<_> = out.values.iter().map(|v| v.alg1().traffic()[i]).collect();
            assert_eq!(traced, Some(&metered), "{dims} grid {grid:?}: '{label}' [PMM_SEED={seed}]");
        }
    }
}

/// Evenly chunked grids, and ragged ones too: the trace's per-phase words
/// and messages equal every rank's integer price on any layout.
#[test]
fn attribution_is_exact_on_evenly_chunked_grids() {
    let seed = seed();
    for (dims, grid) in layouts() {
        let out = traced_run(dims, grid, seed);
        let tracer = out.tracer().expect("tracing was on");
        let attribution = tracer.attribution(ALG1_PHASES, |r| alg1_price(dims, grid, 1, r));
        assert!(attribution.matches(), "{dims} grid {grid:?} [PMM_SEED={seed}]:\n{attribution}");
    }
}

#[test]
fn critical_path_reproduces_the_clock_and_dominates_goodput() {
    let seed = seed();
    for (dims, p) in sweep() {
        let grid = grid_of(dims, p);
        let out = traced_run(dims, grid, seed);
        let tracer = out.tracer().expect("tracing was on");
        let cp = tracer.critical_path();
        let clock = out.critical_path_time();
        assert!(
            (cp.total - clock).abs() <= 1e-9 * clock.max(1.0),
            "{dims} P={p} grid {grid:?}: trace critical path {} vs clock {clock} \
             [PMM_SEED={seed}]",
            cp.total
        );
        // On a bandwidth-only machine with blocking collectives, no
        // rank's duplex goodput can exceed the end-to-end critical path.
        for (r, rep) in out.reports.iter().enumerate() {
            let duplex = rep.meter.duplex_words();
            assert!(
                cp.total >= duplex as f64 - 1e-9,
                "{dims} P={p} grid {grid:?}: critical path {} < rank {r} duplex goodput \
                 {duplex} [PMM_SEED={seed}]",
                cp.total
            );
        }
    }
}

#[test]
fn chrome_json_export_is_byte_stable_for_a_pinned_run() {
    // Golden stability: the same (program, seed) must serialize to the
    // same bytes, run to run — CI and goldens diff this output.
    let dims = MatMulDims::new(96, 24, 12);
    let grid = grid_of(dims, 8);
    let seed = seed();
    let first = traced_run(dims, grid, seed).tracer().expect("tracing was on").chrome_json();
    let second = traced_run(dims, grid, seed).tracer().expect("tracing was on").chrome_json();
    assert_eq!(first, second, "chrome export must be byte-stable [PMM_SEED={seed}]");
    assert!(first.starts_with("{\"traceEvents\":["), "export must be a trace_event document");
    assert!(first.ends_with("]}\n") || first.ends_with("]}"), "export must close the document");
    // Loadability essentials: begin/end phase scopes and complete events
    // with timestamps and durations on every rank's track.
    for needle in ["\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"X\"", "\"ts\":", "\"dur\":"] {
        assert!(first.contains(needle), "export missing {needle}");
    }
    for rank in 0..8 {
        assert!(first.contains(&format!("\"tid\":{rank}")), "export missing rank {rank} track");
    }
}

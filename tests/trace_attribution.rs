//! Structured-trace attribution gate (`cargo xtask trace-check`).
//!
//! Runs Algorithm 1 with tracing enabled over the same pinned sweep the
//! conformance suite uses ((m, n, k, P) points spanning all three
//! Theorem 3 regimes plus both boundaries) and asserts that the trace is
//! a faithful, deterministic account of the run:
//!
//! (a) per-phase word totals extracted from the event trace equal the
//!     meter-diff phase accounting the algorithm itself reports, and on
//!     evenly-chunked grids equal the eq. (3) prediction **exactly**
//!     (`Tracer::attribution` reports no divergent phase);
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

fn inputs(dims: MatMulDims) -> (Matrix, Matrix) {
    (
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 11),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 22),
    )
}

/// The conformance sweep's (dims, P) points: instance A walks
/// 1D-interior → boundary → 2D-interior → boundary → 3D-interior,
/// instance B adds a 3D point whose §5.2 optimal grid is integral.
fn sweep() -> Vec<(MatMulDims, usize)> {
    let a = MatMulDims::new(96, 24, 12);
    let b = MatMulDims::new(32, 16, 8);
    vec![(a, 2), (a, 4), (a, 8), (a, 16), (a, 64), (b, 64)]
}

/// The grid a sweep point runs on: the best factorization that divides
/// the dimensions (always exists for these points).
fn divisible_grid(dims: MatMulDims, p: usize) -> [usize; 3] {
    best_divisible_grid(dims, p)
        .unwrap_or_else(|| panic!("no divisible factorization of {p} for {dims}"))
        .grid
}

/// Eq. (3) is phase-by-phase exact iff every fiber collective works on
/// even chunks (same predicate as the conformance suite).
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

fn traced_run(
    dims: MatMulDims,
    grid: [usize; 3],
    seed: u64,
) -> pmm::simnet::WorldResult<Alg1Output> {
    let g = Grid3::from_dims(grid);
    let cfg = Alg1Config::new(dims, g);
    let (a, b) = inputs(dims);
    World::new(g.size(), MachineParams::BANDWIDTH_ONLY)
        .with_seed(seed)
        .with_trace(true)
        .run(move |rank| alg1(rank, &cfg, &a, &b))
}

#[test]
fn trace_phase_words_match_the_meter_diff_accounting() {
    let seed = seed();
    for (dims, p) in sweep() {
        let grid = divisible_grid(dims, p);
        let out = traced_run(dims, grid, seed);
        let tracer = out.tracer().expect("tracing was on");
        let totals = tracer.phase_totals();
        // Every meter-diff phase the algorithm reports must appear in the
        // trace with identical per-rank sent/received words.
        for (r, v) in out.values.iter().enumerate() {
            for ph in &v.phases {
                let t = totals
                    .iter()
                    .find(|t| t.label == ph.label)
                    .unwrap_or_else(|| panic!("phase '{}' missing from trace", ph.label));
                assert_eq!(
                    (t.sent[r], t.recv[r]),
                    (ph.meter.words_sent, ph.meter.words_recv),
                    "{dims} P={p} grid {grid:?}: rank {r} phase '{}' [PMM_SEED={seed}]",
                    ph.label
                );
            }
        }
    }
}

#[test]
fn attribution_is_exact_on_evenly_chunked_grids() {
    let seed = seed();
    let mut exact_points = 0;
    for (dims, p) in sweep() {
        let grid = divisible_grid(dims, p);
        if !phase_exact(dims, grid) {
            continue;
        }
        exact_points += 1;
        let out = traced_run(dims, grid, seed);
        let tracer = out.tracer().expect("tracing was on");
        let pred = alg1_prediction(dims, grid);
        let attribution = tracer.attribution(&[
            ("all-gather A", pred.allgather_a),
            ("all-gather B", pred.allgather_b),
            ("reduce-scatter C", pred.reduce_c),
        ]);
        assert!(
            attribution.matches(),
            "{dims} P={p} grid {grid:?} [PMM_SEED={seed}]:\n{attribution}"
        );
    }
    assert!(exact_points >= 3, "sweep must retain enough evenly-chunked points");
}

#[test]
fn critical_path_reproduces_the_clock_and_dominates_goodput() {
    let seed = seed();
    for (dims, p) in sweep() {
        let grid = divisible_grid(dims, p);
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
    let grid = divisible_grid(dims, 8);
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

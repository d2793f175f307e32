//! Large-`P` scale conformance: Algorithm 1 *executed* (not predicted)
//! at P = 10^4 … 10^6 as continuations on the event loop.
//!
//! The paper's Fig. 1/Fig. 2 story spans `P` up to 10^6; with a thread
//! per rank anything past a few hundred ranks is out of reach, so the
//! tight eq. (3) constants were never checked where the three regimes
//! actually separate. These tests run Algorithm 1 end-to-end through
//! `World::run_async` at scale, on **integral §5.2 optimal grids**
//! (`best_grid` returns exactly the grid we pin, and it divides the
//! dimensions), and hold the *measured* per-rank, per-phase traffic to
//! the `pmm_model::alg1_prediction` eq. (3) terms exactly.
//!
//! Executed-path guarantees (no closed-form fallback): every rank
//! returns a real `Alg1Output` with per-phase meters from the run, the
//! world reports `P` per-rank meter/clock entries, and the verifier is
//! live throughout (it is part of the fabric under every host).
//!
//! Each test prints a `SCALE: key=value ...` line; `cargo xtask
//! scale-check` runs the `#[ignore]`d large cells in release mode and
//! collects those lines into `BENCH_scale.json`.

use std::time::Instant;

use pmm::prelude::*;

/// Peak resident set size of this test process in kB (Linux `VmHWM`),
/// or 0 where /proc is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Execute Algorithm 1 at `p` ranks on the event loop and check
/// eq. (3) attribution. `exact` additionally pins every rank's
/// per-phase duplex words to the prediction (requires evenly-chunked
/// fiber collectives); aggregate per-phase traffic is checked always.
/// `trace` runs with the structured tracer armed and cross-checks its
/// per-phase totals too.
fn scale_point(label: &str, dims: MatMulDims, grid_arr: [usize; 3], exact: bool, trace: bool) {
    let p: usize = grid_arr.iter().product();
    // The pinned grid must be the integral §5.2 optimum, not just some
    // divisible factorization.
    let choice = best_grid(dims, p);
    assert_eq!(choice.grid, grid_arr, "{label}: pinned grid is not the §5.2 optimum");
    assert!(dims.divisible_by(grid_arr), "{label}: §5.2 grid must divide the dimensions");
    let pred = alg1_prediction(dims, grid_arr);

    let cfg = Alg1Config {
        dims,
        grid: Grid3::from_dims(grid_arr),
        kernel: Kernel::Naive,
        assembly: Assembly::ReduceScatter,
    };
    // Inputs are generated once and shared (`Arc`) across all P rank
    // programs, keeping input setup O(n1·n2 + n2·n3) rather than
    // O(P · matrix size).
    let (a, b) = (
        std::sync::Arc::new(random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 11)),
        std::sync::Arc::new(random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 22)),
    );
    // Schedule recording snapshots the runnable set per pick (O(P) per
    // event) — off at scale; targeted wakeup keeps the runnable-set
    // bookkeeping proportional to the active ranks.
    let world = World::new(p, MachineParams::BANDWIDTH_ONLY)
        .with_schedule_recording(false)
        .with_targeted_wakeup(true)
        .with_trace(trace);
    let t0 = Instant::now();
    let out = world.run_async(|rank| {
        let cfg = cfg.clone();
        let (a, b) = (a.clone(), b.clone());
        Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
    });
    let secs = t0.elapsed().as_secs_f64();

    // Executed, not predicted: P live per-rank reports with real
    // meters and per-phase attribution from the run itself.
    assert_eq!(out.values.len(), p, "{label}: every rank must execute");
    assert_eq!(out.reports.len(), p, "{label}: every rank must report meters");
    assert!(out.total_words_sent() > 0.0, "{label}: an executed run moves real words");

    // Eq. (3), per rank and per phase where the fiber chunks are even.
    if exact {
        for (r, v) in out.values.iter().enumerate() {
            for (phase, want) in v.phases.iter().zip(pred.phases()) {
                assert_eq!(
                    phase.meter.duplex_words() as f64,
                    want,
                    "{label}: rank {r} phase '{}' missed the eq. (3) term",
                    phase.label
                );
            }
        }
        // On the §5.2 optimum the measured critical path *is* the
        // prediction total (and the Theorem 3 bound wherever tight).
        let measured = out.critical_path_time();
        assert!(
            (measured - pred.total()).abs() <= 1e-9 * pred.total().max(1.0),
            "{label}: measured critical path {measured} vs eq. (3) total {}",
            pred.total()
        );
    }
    // Aggregate per-phase traffic (holds on every divisible grid).
    for (i, want) in pred.phases().iter().enumerate() {
        let got: u64 = out.values.iter().map(|v| v.phases[i].meter.words_recv).sum();
        assert!(
            (got as f64 - p as f64 * want).abs() < 1e-6,
            "{label}: phase {i} aggregate words {got} vs eq. (3) {}",
            p as f64 * want
        );
    }
    if trace {
        let tracer = out.tracer().expect("traced run assembles a tracer");
        let totals = tracer.phase_totals();
        assert!(!totals.is_empty(), "{label}: traced run attributes per-phase goodput");
    }

    let rate = p as f64 / secs.max(1e-9);
    println!(
        "SCALE: label={label} p={p} grid={}x{}x{} dims={}x{}x{} exact={exact} trace={trace} \
         secs={secs:.3} ranks_per_sec={rate:.0} peak_rss_kb={}",
        grid_arr[0],
        grid_arr[1],
        grid_arr[2],
        dims.n1,
        dims.n2,
        dims.n3,
        peak_rss_kb()
    );
}

/// P = 10^4 on the integral §5.2 grid [25, 20, 20] of (250, 200, 200):
/// t = (P/mnk)^{1/3} = 0.1, blocks 10×10, every fiber chunk even — the
/// per-rank per-phase eq. (3) check applies to all 10^4 ranks. Runs in
/// the ordinary (debug) test suite.
#[test]
fn alg1_executes_at_p_10_4_with_exact_eq3_attribution() {
    scale_point("p10k", MatMulDims::new(250, 200, 200), [25, 20, 20], true, false);
}

/// Host seconds of one rendezvous-only world of `p` ranks at the
/// at-scale knobs: the three world-sized splits of Algorithm 1's fiber
/// set-up (row-major fibers of a `p/16 × 16` layout, then one
/// world-sized group) and a world barrier, no messages.
fn rendezvous_only_secs(p: usize) -> f64 {
    let world = World::new(p, MachineParams::BANDWIDTH_ONLY)
        .with_schedule_recording(false)
        .with_targeted_wakeup(true);
    let t0 = Instant::now();
    let out = world.run_async(|rank| {
        Box::pin(async move {
            let wc = rank.world_comm();
            let r = rank.world_rank() as i64;
            let rows = rank.split_a(&wc, r / 16, r).await.expect("row fiber");
            let cols = rank.split_a(&wc, r % 16, r).await.expect("column fiber");
            let all = rank.split_a(&wc, 0, r).await.expect("world-sized group");
            rank.hard_sync_a().await;
            (rows.size(), cols.size(), all.index())
        })
    });
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(out.values[p - 1], (16, p / 16, p - 1));
    secs
}

/// Complexity guard for the rendezvous paths: a split deposit, a
/// collective registration and a barrier arrival must cost O(1), so a
/// splits-plus-barrier world at 4P takes about 4× the host time of one
/// at P. An O(P) scan per deposit (what `split_try_complete` and
/// `register_collective` used to do) makes it 16×. A ratio of
/// best-of-three times, the two sizes measured alternately so a busy
/// host slows both — not a wall-clock bound; both sizes sit above the
/// 4096-rank cutoff of the wait lists.
#[test]
fn rendezvous_cost_is_linear_in_p() {
    let p = 6_000;
    let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        small = small.min(rendezvous_only_secs(p));
        large = large.min(rendezvous_only_secs(4 * p));
    }
    println!("SCALE: label=rendezvous p={p} secs={small:.4} secs_at_4p={large:.4}");
    assert!(
        large < 8.0 * small,
        "rendezvous-only world: {large:.3} s at P = {} vs {small:.3} s at P = {p} — a ratio of \
         {:.1}, linear is 4 and an O(P) scan per deposit is 16",
        4 * p,
        large / small
    );
}

/// P = 10^5 on the integral §5.2 grid [50, 50, 40] of
/// (1000, 1000, 800): t = 0.05, blocks 20×20, fiber chunks even. With
/// the structured tracer armed. Release-mode cell of `cargo xtask
/// scale-check`.
#[test]
#[ignore = "large-P release cell; run via cargo xtask scale-check"]
fn alg1_executes_at_p_10_5_with_exact_eq3_attribution() {
    scale_point("p100k", MatMulDims::new(1000, 1000, 800), [50, 50, 40], true, true);
}

/// P = 10^6 on the integral §5.2 grid [100, 100, 100] of
/// (100, 100, 100): t = 1, one element per block, so fiber chunks are
/// uneven and eq. (3) holds in aggregate (the per-rank exact check
/// needs even chunks). Release-mode cell of `cargo xtask scale-check`.
/// Needs ~24 GB of RSS; last measured (one core, ~6 640 s at ~151
/// ranks/sec) when every split deposit still scanned all 10^6 members,
/// and not re-measured since those scans went away.
#[test]
#[ignore = "million-rank release cell; run via cargo xtask scale-check"]
fn alg1_executes_at_p_10_6() {
    scale_point("p1m", MatMulDims::new(100, 100, 100), [100, 100, 100], false, false);
}

//! Deterministic-schedule guarantees of `pmm-simnet`.
//!
//! Three properties, each on real algorithm workloads (the same
//! configurations `tests/algorithms_agree.rs` runs):
//!
//! 1. **Replayability** — two runs of the same `(program, seed)` pair
//!    record byte-identical choice logs, checked both as rendered
//!    strings and pick-by-pick via `ChoiceLog::assert_matches` (the
//!    golden-log replay assertion).
//! 2. **Schedule-independence** — different seeds pick genuinely
//!    different rank interleavings, yet every numeric result, meter
//!    total, simulated time and peak memory is identical across seeds
//!    (`fuzz_schedules`). This is the invariant that makes the
//!    conformance sweep's bitwise assertions meaningful.
//! 3. **Reporting** — a divergence (simulated here, found never) names
//!    both seeds with a `PMM_SEED=` repro line; the short-budget fuzz
//!    entry point honours `PMM_SEED` as its base seed so CI failures
//!    replay locally with one env var.

use pmm::prelude::*;
use std::sync::{Arc, OnceLock};

/// The world of the `algorithms_agree` Algorithm 1 workload: P = 12.
fn alg1_world() -> World {
    World::new(12, MachineParams::BANDWIDTH_ONLY)
}

/// Its program: Algorithm 1 on a 2 × 3 × 2 grid, every rank reading the
/// one shared pair of inputs; returns the rank's C chunk.
fn alg1_program(rank: &mut Rank) -> LocalBoxFuture<'_, Vec<f64>> {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    let dims = MatMulDims::new(24, 12, 18);
    let inputs = INPUTS.get_or_init(|| Inputs::seeded(dims, [101, 202]));
    let (a, b) = (Arc::clone(&inputs.a), Arc::clone(&inputs.b));
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await.c_chunk })
}

#[test]
fn same_seed_replays_a_byte_identical_trace_on_alg1() {
    let world = alg1_world().with_seed(0xA11CE).with_schedule_recording(true);
    let (golden, replay) = (world.run_async(alg1_program), world.run_async(alg1_program));
    let golden_log = golden.choice_points.expect("recorded run keeps its choice log");
    let replay_log = replay.choice_points.expect("recorded run keeps its choice log");
    // Byte-identical renders, and the pick-level golden assertion.
    assert_eq!(golden_log.render(), replay_log.render());
    golden_log.assert_matches(&replay_log, &world.repro());
    assert!(golden_log.len() > 12, "a 12-rank run makes picks");
    // The replay also reproduces every value and meter bit-for-bit.
    assert_eq!(golden.values, replay.values);
}

#[test]
fn different_seeds_schedule_differently_but_compute_identically() {
    let world = alg1_world();
    let seeds: Vec<u64> = (0..6).collect();

    // fuzz_schedules: every seed must produce the same values, meters,
    // times and peak memories as the first.
    fuzz_schedules(&world, &seeds, alg1_program).unwrap_or_else(|d| panic!("{d}"));

    // ... while at least one seed actually picks a different
    // interleaving (otherwise the fuzzer would be vacuous).
    let logs: Vec<String> = seeds
        .iter()
        .map(|&s| {
            let out =
                world.clone().with_seed(s).with_schedule_recording(true).run_async(alg1_program);
            out.choice_points.expect("recorded").render()
        })
        .collect();
    assert!(
        logs.iter().any(|t| t != &logs[0]),
        "all {} seeds produced the same schedule — the fuzzer explores nothing",
        seeds.len()
    );
}

#[test]
fn fuzz_schedules_covers_the_other_agree_workloads() {
    // Cannon, P = 9 (torus exchanges stress the split + sendrecv paths);
    // SUMMA, P = 6 (broadcast pipelines); 2.5D, P = 8 (replicated layers
    // + reduction).
    let inputs = Inputs::seeded(MatMulDims::new(24, 12, 18), [101, 202]);
    for plan in [
        AlgPlan::Cannon { q: 3 },
        AlgPlan::Summa { pr: 2, pc: 3 },
        AlgPlan::TwoFiveD { q: 2, c: 2 },
    ] {
        let world = World::new(plan.active(), MachineParams::BANDWIDTH_ONLY);
        fuzz_schedules(&world, &[1, 2, 3], |rank| {
            let (plan, a, b) = (plan.clone(), Arc::clone(&inputs.a), Arc::clone(&inputs.b));
            let dims = inputs.dims;
            Box::pin(async move {
                let comm = rank.world_comm();
                run_plan_a(rank, &comm, &plan, dims, Kernel::Naive, &a, &b).await
            })
        })
        .unwrap_or_else(|d| panic!("{plan}: {d}"));
    }
}

/// Short-budget schedule-fuzz entry point (the `cargo xtask
/// fuzz-schedules` job runs this test in a loop with increasing
/// `PMM_SEED`). The base seed comes from the environment so a CI failure
/// line `PMM_SEED=<n>` replays exactly.
#[test]
fn schedule_fuzz_smoke() {
    let base = seed_from_env(0);
    eprintln!("schedule_fuzz_smoke: base seed {base} (replay with PMM_SEED={base})");
    let seeds: Vec<u64> = (0..4).map(|i| base.wrapping_add(i)).collect();
    fuzz_schedules(&alg1_world(), &seeds, alg1_program).unwrap_or_else(|d| panic!("{d}"));
}

#[test]
fn zero_fault_plan_is_meter_identical_to_no_plan() {
    // A `FaultPlan::none()` world (reliable-delivery machinery armed, but
    // every fault probability zero and no kills/stragglers) must be
    // indistinguishable from a plain world: same values, same meters, same
    // clocks, byte-identical choice log. This is the CI guard that the
    // fault layer costs nothing — in results *or* determinism — when off.
    let world = alg1_world().with_seed(0xC1EA4).with_schedule_recording(true);
    let plain = world.run_async(alg1_program);
    let armed = world.clone().with_faults(FaultPlan::none()).run_async(alg1_program);
    assert_eq!(plain.values, armed.values, "values must match bitwise");
    for (r, (p, a)) in plain.reports.iter().zip(&armed.reports).enumerate() {
        assert_eq!(p.meter, a.meter, "every meter field must match, rank {r}");
        assert_eq!(p.time, a.time, "per-rank clocks must match, rank {r}");
        assert_eq!(a.meter.retry_overhead_words(), 0, "no-fault run retransmits nothing");
    }
    let pl = plain.choice_points.expect("recorded");
    let al = armed.choice_points.expect("recorded");
    assert_eq!(pl.render(), al.render(), "choice logs must be byte-identical");
}

//! Fault-injection and rank-failure recovery, end to end.
//!
//! The headline scenario (the PR's acceptance criterion): a seeded run
//! with ≥5% message drops plus a kill of one non-root rank mid-All-Gather
//! completes on the surviving grid with a **bitwise-correct** product,
//! replays byte-identically from the printed seed, and its meters separate
//! retry overhead from goodput — with the goodput exactly matching the
//! eq. (3) per-phase prediction on the recovery grid.
//!
//! Around it:
//! * the certificate every recovered run here is held to
//!   ([`Inputs::check_recovered`]), and the check it names for each
//!   way of tampering with a recovered run;
//! * a fault-rate × seed sweep across the three Theorem 3 regimes (1D /
//!   2D / 3D-leaning processor counts), driven by `cargo xtask
//!   fault-sweep` via the `PMM_FAULT_RATE` env knob;
//! * property tests for exactly-once delivery under arbitrary
//!   drop/duplicate/corrupt schedules, and for the `--faults` SPEC
//!   grammar round-tripping through `Display`/`FromStr` (including the
//!   multi-fault `cascade=`/`part=`/`storm=` clauses);
//! * cross-seed schedule invariance (`fuzz_schedules`) with a pinned
//!   fault plan — fault decisions are schedule-independent by
//!   construction, so values *and* retry meters agree across seeds;
//! * SUMMA recovery on its near-square shrunken grid through the
//!   generic recovery wrapper ([`Inputs::recover`]);
//! * the uncaught-kill path: `try_run_async` reports a typed rank
//!   failure naming the kill site and the replay seed, never a deadlock
//!   (`tests/engine_equivalence.rs` holds the thread host's report to
//!   the same text).

use pmm::prelude::*;
use pmm_simnet::{FaultPlan, RankFailed};
use proptest::prelude::*;
use std::sync::Arc;

/// Fault rate for the sweep tests: `PMM_FAULT_RATE` (a float) when set —
/// the `cargo xtask fault-sweep` matrix exports it — else `default`.
fn fault_rate_from_env(default: f64) -> f64 {
    match std::env::var("PMM_FAULT_RATE") {
        Ok(s) => s.trim().parse().unwrap_or_else(|_| panic!("bad PMM_FAULT_RATE: {s:?}")),
        Err(_) => default,
    }
}

/// A faulty world of `p` ranks under schedule `sched_seed` that records
/// its schedule.
fn recovery_world(p: usize, sched_seed: u64, faults: FaultPlan) -> World {
    World::new(p, MachineParams::BANDWIDTH_ONLY)
        .with_seed(sched_seed)
        .with_schedule_recording(true)
        .with_faults(faults)
}

/// Run Algorithm 1 under the generic recovery wrapper on `world`.
fn recover_alg1(inputs: &Inputs, world: &World) -> WorldResult<Result<Recovered, RankFailed>> {
    inputs.recover(world, &AlgPlan::Alg1 { grid: [1, 1, 1] }, Kernel::Naive)
}

/// Algorithm 1 on 24×12×18 over a 2×3×2 grid on `world` (12 ranks):
/// every rank's `C` chunk.
fn alg1_chunks(world: World) -> WorldResult<Vec<f64>> {
    let dims = MatMulDims::new(24, 12, 18);
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let Inputs { a, b, .. } = Inputs::seeded(dims, [11, 22]);
    world.run_async(|rank: &mut Rank| {
        let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
        Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await.c_chunk })
    })
}

/// Hold a recovered run to [`Inputs::check_recovered`]; returns a
/// survivor's [`Recovered`].
fn certified<'a>(
    inputs: &Inputs,
    out: &'a WorldResult<Result<Recovered, RankFailed>>,
) -> &'a Recovered {
    inputs.check_recovered(out).unwrap_or_else(|failed| panic!("{}: {failed}", inputs.dims))
}

// ---------------------------------------------------------------------------
// The acceptance scenario
// ---------------------------------------------------------------------------

#[test]
fn killed_rank_mid_allgather_recovers_bitwise_on_surviving_grid() {
    // 9 ranks; op 1 is the checkpoint ring, ops 2–4 the three fiber
    // splits, so op 6 lands inside the All-Gather phase of the first
    // attempt. Rank 4 is not the root of anything special — a mid-grid
    // casualty.
    let inputs = Inputs::seeded(MatMulDims::new(24, 24, 24), [11, 22]);
    let plan = FaultPlan::none()
        .with_seed(0xFA)
        .with_drop(0.08)
        .with_duplicate(0.02)
        .with_corrupt(0.02)
        .with_delay(0.03)
        .with_kill(4, 6);
    let world = recovery_world(9, 7, plan);
    let out = recover_alg1(&inputs, &world);

    // The killed rank gets a typed error naming the fault-plan entry and
    // the replay seed — not a deadlock, not a panic.
    let failed = out.values[4].as_ref().expect_err("rank 4 was killed");
    assert_eq!(failed.rank, 4);
    assert!(failed.detail.contains("kill=4@6"), "{}", failed.detail);
    assert!(failed.detail.contains("PMM_SEED=7"), "{}", failed.detail);

    // Survivors agree, recover on the §5.2 grid for 8 ranks, and the
    // product is bitwise-correct.
    let ok = certified(&inputs, &out);
    assert_eq!(ok.survivors, vec![0, 1, 2, 3, 5, 6, 7, 8]);
    assert_eq!(ok.plan, AlgPlan::Alg1 { grid: [2, 2, 2] }, "best grid for 8 ranks on a cube");
    assert_eq!(ok.attempts(), 2, "one abandoned attempt, one successful");

    // Retry overhead is real (≥5% drops must retransmit something) and
    // strictly separated from goodput: the certificate held the
    // successful attempt's per-phase goodput to its price *exactly*.
    let total_retry: u64 = out.reports.iter().map(|r| r.meter.retry_overhead_words()).sum();
    assert!(total_retry > 0, "8% drops over 9 ranks must cause retransmissions");

    // Byte-identical replay from the printed seed: values, meters, times,
    // and choice logs all reproduce.
    let replay = recover_alg1(&inputs, &world);
    for (w, (x, y)) in out.values.iter().zip(&replay.values).enumerate() {
        match (x, y) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.share, b.share, "rank {w} share");
                assert_eq!(a.attempt_plans, b.attempt_plans, "rank {w} attempts");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "rank {w} failure"),
            _ => panic!("rank {w}: replay changed success/failure"),
        }
    }
    for (w, (x, y)) in out.reports.iter().zip(&replay.reports).enumerate() {
        assert_eq!(x.meter, y.meter, "rank {w} meter must replay exactly");
        assert_eq!(x.time, y.time, "rank {w} clock must replay exactly");
    }
    let (la, lb) = (out.choice_points.expect("recorded"), replay.choice_points.expect("recorded"));
    assert_eq!(la.render(), lb.render(), "schedule must replay byte-identically");
}

#[test]
fn recovery_goodput_matches_model_recovery_prediction() {
    // The certificate holds the redistribution ring and the algorithm
    // run to the model's totals exactly across survivors, every
    // survivor's per-phase goodput to its price, and whole-run goodput
    // (the abandoned attempt's partial traffic included) to the model's
    // upper bound.
    let inputs = Inputs::seeded(MatMulDims::new(24, 24, 24), [11, 22]);
    let faults = FaultPlan::none().with_seed(3).with_kill(4, 6);
    let mut out = recover_alg1(&inputs, &recovery_world(9, 1, faults));
    let ok = certified(&inputs, &out);
    let pred = recovery_prediction(inputs.dims, &ok.attempt_plans, &ok.attempt_survivors);
    assert_eq!(pred.attempts.len(), ok.attempts());
    // And it bites: each way of tampering with one survivor's result
    // fails the check that names it.
    for check in ["product:", "goodput:", "restore:", "survivors:"] {
        let kept = out.values[1].clone();
        let tampered = out.values[1].as_mut().expect("rank 1 survives");
        match check {
            "product:" => {
                if let CShare::Chunk(chunk) = &mut tampered.share {
                    chunk.c_chunk[0] += 1.0;
                }
            }
            "goodput:" => tampered.run_meter.words_sent += 1,
            "restore:" => tampered.restore_meter.words_sent += 1,
            _ => tampered.survivors.retain(|&w| w != 8),
        }
        let failed = inputs.check_recovered(&out).map(|_| ()).expect_err(check);
        assert!(failed.starts_with(check), "{check} {failed}");
        out.values[1] = kept;
    }
}

// ---------------------------------------------------------------------------
// Multi-fault plans: cascades, partitions, storms
// ---------------------------------------------------------------------------

#[test]
fn cascading_kills_shrink_the_grid_twice() {
    let inputs = Inputs::seeded(MatMulDims::new(24, 24, 24), [11, 22]);
    // Rank 4 dies by direct kill; rank 7 is armed to die once the fault
    // epoch reaches 1 (i.e. after the first death is detected).
    let plan = FaultPlan::none().with_seed(0xCA5).with_kill(4, 6).with_cascade(7, 1);
    let out = recover_alg1(&inputs, &recovery_world(9, 11, plan));
    assert!(out.values[4].is_err(), "rank 4 killed directly");
    let cascaded = out.values[7].as_ref().expect_err("rank 7 killed by cascade");
    assert!(cascaded.detail.contains("cascade=7@1"), "{}", cascaded.detail);
    let ok = certified(&inputs, &out);
    assert_eq!(ok.survivors, vec![0, 1, 2, 3, 5, 6, 8]);
    assert!(ok.attempts() >= 2, "at least one abandoned attempt");
    assert_eq!(ok.plan.active(), 7);
}

#[test]
fn healing_partition_delays_but_does_not_break_delivery() {
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(2);
    let clean = alg1_chunks(world.clone());
    // Ranks {0,1,2} cut off from the rest for seq window [0, 40), healing
    // at attempt 2: every cut-crossing copy with attempt < 2 blackholes.
    let cut = FaultPlan::none().with_seed(0x9A97).with_partition(vec![0, 1, 2], 0..40, 2);
    let parted = alg1_chunks(world.with_faults(cut));
    assert_eq!(clean.values, parted.values, "a healed partition must not change results");
    let retry: u64 = parted.reports.iter().map(|r| r.meter.retry_overhead_words()).sum();
    assert!(retry > 0, "cut-crossing copies must have been retransmitted");
    assert!(
        parted.critical_path_time() > clean.critical_path_time(),
        "blackholed attempts pay timeouts on the critical path"
    );
}

#[test]
fn straggler_storm_slows_the_clock_without_changing_traffic() {
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(1);
    let clean = alg1_chunks(world.clone());
    let stormed =
        alg1_chunks(world.with_faults(FaultPlan::none().with_seed(0x570).with_storm(0.5, 6.0)));
    assert_eq!(clean.values, stormed.values, "a storm must not change results");
    for (c, s) in clean.reports.iter().zip(&stormed.reports) {
        assert_eq!(c.meter, s.meter, "a storm must not change any meter");
    }
    assert!(
        stormed.critical_path_time() > clean.critical_path_time(),
        "half the ranks at 6× must stretch the critical path ({} vs {})",
        stormed.critical_path_time(),
        clean.critical_path_time()
    );
}

// ---------------------------------------------------------------------------
// Fault-rate sweep across the Theorem 3 regimes (xtask fault-sweep matrix)
// ---------------------------------------------------------------------------

/// One sweep cell: P ranks, a kill of `kill_rank` at `kill_op`, and
/// message faults at the env-controlled rate, across several seeds.
fn sweep_regime(p: usize, kill_rank: usize, kill_op: u64) {
    let inputs = Inputs::seeded(MatMulDims::new(96, 24, 12), [11, 22]);
    let rate = fault_rate_from_env(0.05);
    for sched_seed in [1u64, 0xC0FFEE] {
        let mut plan = FaultPlan::none()
            .with_seed(0xBAD5EED ^ p as u64)
            .with_drop(rate * 0.6)
            .with_duplicate(rate * 0.2)
            .with_corrupt(rate * 0.2)
            .with_kill(kill_rank, kill_op);
        plan.timeout = 4.0;
        let out = recover_alg1(&inputs, &recovery_world(p, sched_seed, plan));
        let failed = out.values[kill_rank].as_ref().expect_err("killed rank errors");
        assert_eq!(failed.rank, kill_rank);
        // Every survivor's goodput is its price on the recovery grid,
        // ragged or not.
        assert_eq!(certified(&inputs, &out).survivors.len(), p - 1);
    }
}

#[test]
fn fault_sweep_1d_regime() {
    // P = 3 on (96, 24, 12) is the 1D case; killing rank 2 shrinks to 2.
    sweep_regime(3, 2, 5);
}

#[test]
fn fault_sweep_2d_regime() {
    // P = 16 is the 2D case for these dims.
    sweep_regime(16, 5, 6);
}

#[test]
fn fault_sweep_3d_regime() {
    // P = 64 is deep in the 3D case.
    sweep_regime(64, 17, 7);
}

// ---------------------------------------------------------------------------
// Reliable delivery: exactly-once under arbitrary fault schedules
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Whatever mix of drops, duplicates, corruption, and delays the plan
    // throws at a 2-rank pipe, the receiver sees every message exactly
    // once, in order, with uncorrupted payloads — and the goodput meters
    // count each message exactly once while all waste lands in the
    // retry counters. (Plain `//` comment: the shimmed `proptest!` only
    // matches a bare `#[test]`, and a doc comment desugars to `#[doc]`.)
    #[test]
    fn delivery_is_exactly_once_in_order_and_uncorrupted(
        fault_seed in 0u64..1_000_000,
        drop in 0.0f64..0.45,
        dup in 0.0f64..0.15,
        corrupt in 0.0f64..0.15,
        delay in 0.0f64..0.15,
        n_msgs in 1usize..24,
    ) {
        let mut plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_drop(drop)
            .with_duplicate(dup)
            .with_corrupt(corrupt)
            .with_delay(delay);
        plan.max_retries = 64;
        let out = World::new(2, MachineParams::BANDWIDTH_ONLY)
            .with_seed(9)
            .with_faults(plan)
            .run_async(move |rank| {
                Box::pin(async move {
                    let wc = rank.world_comm();
                    if rank.world_rank() == 0 {
                        for i in 0..n_msgs {
                            // Distinct sizes and values so reordering,
                            // duplication, or corruption cannot cancel out.
                            let w = 1 + (i % 5);
                            rank.send_a(&wc, 1, &vec![i as f64 + 0.25; w]).await;
                        }
                        Vec::new()
                    } else {
                        let mut got = Vec::new();
                        for _ in 0..n_msgs {
                            got.push(rank.recv_a(&wc, 0).await.payload);
                        }
                        got
                    }
                })
            });
        let got = &out.values[1];
        prop_assert_eq!(got.len(), n_msgs);
        let mut goodput_words = 0u64;
        for (i, payload) in got.iter().enumerate() {
            prop_assert_eq!(payload.len(), 1 + (i % 5), "message {} size", i);
            prop_assert!(
                payload.iter().all(|&v| v == i as f64 + 0.25),
                "message {} corrupted: {:?}", i, payload
            );
            goodput_words += payload.len() as u64;
        }
        let m1 = out.reports[1].meter;
        prop_assert_eq!(m1.words_recv, goodput_words, "goodput counts each word once");
        prop_assert_eq!(m1.msgs_recv, n_msgs as u64, "goodput counts each message once");
    }

    // The full --faults SPEC grammar round-trips: any valid plan built
    // from rates, kills, stragglers, cascades, partitions, and a storm
    // prints to a spec that parses back to the identical plan (f64
    // Display in Rust is shortest-round-trip, so equality is exact).
    #[test]
    fn fault_plan_grammar_round_trips(
        pin_seed in 0u8..2,
        seed in 0u64..u64::MAX,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.2,
        corrupt in 0.0f64..0.2,
        delay in 0.0f64..0.2,
        kills in proptest::collection::vec((0usize..64, 1u64..100), 0..3),
        stragglers in proptest::collection::vec((0usize..64, 1.5f64..10.0), 0..2),
        cascades in proptest::collection::vec((0usize..64, 1u64..8), 0..3),
        partitions in proptest::collection::vec(
            (proptest::collection::vec(0usize..64, 1..4), 0u64..50, 1u64..50, 1u32..16),
            0..2,
        ),
        has_storm in 0u8..2,
        storm in (0.0f64..0.9, 1.5f64..10.0),
    ) {
        let mut plan = FaultPlan::none()
            .with_drop(drop)
            .with_duplicate(dup)
            .with_corrupt(corrupt)
            .with_delay(delay);
        if pin_seed == 1 {
            plan = plan.with_seed(seed);
        }
        for (r, at) in kills {
            plan = plan.with_kill(r, at);
        }
        for (r, f) in stragglers {
            plan = plan.with_straggler(r, f);
        }
        for (r, e) in cascades {
            plan = plan.with_cascade(r, e);
        }
        for (ranks, lo, len, heal) in partitions {
            plan = plan.with_partition(ranks, lo..lo + len, heal);
        }
        if has_storm == 1 {
            plan = plan.with_storm(storm.0, storm.1);
        }
        let spec = plan.to_string();
        let parsed: FaultPlan = spec.parse().unwrap_or_else(|e| {
            panic!("spec {spec:?} failed to parse: {e}")
        });
        prop_assert_eq!(parsed, plan, "spec was {}", spec);
    }
}

// ---------------------------------------------------------------------------
// Schedule independence with a pinned fault plan
// ---------------------------------------------------------------------------

#[test]
fn fault_decisions_are_schedule_independent_across_seeds() {
    // fuzz_schedules compares values, full meters (including the retry
    // counters), times, and peak memory across schedule seeds. Fault
    // decisions hash (fault seed, channel, seq, attempt) — never
    // arrival order — so a *pinned* fault seed must give identical
    // results under every interleaving. The plan includes a healing
    // partition and a storm: both are pure hashes too.
    let dims = MatMulDims::new(24, 12, 18);
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let plan = FaultPlan::none()
        .with_seed(0x5EED_FA17)
        .with_drop(0.10)
        .with_duplicate(0.05)
        .with_corrupt(0.05)
        .with_partition(vec![0, 1], 3..9, 2)
        .with_storm(0.25, 3.0);
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_faults(plan);
    let Inputs { a, b, .. } = Inputs::seeded(dims, [11, 22]);
    fuzz_schedules(&world, &[1, 2, 3, 4], |rank| {
        let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
        Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await.c_chunk })
    })
    .unwrap_or_else(|d| panic!("{d}"));
}

// ---------------------------------------------------------------------------
// SUMMA recovery (through the generic wrapper)
// ---------------------------------------------------------------------------

#[test]
fn summa_recovers_on_near_square_survivor_grid() {
    let dims = MatMulDims::new(12, 6, 8);
    // 3×2 grid of 6; kill rank 3 early — 5 survivors refactor to 1×5.
    let plan = FaultPlan::none().with_seed(0xF0).with_drop(0.05).with_kill(3, 3);
    let inputs = Inputs::seeded(dims, [11, 22]);
    let world = World::new(6, MachineParams::BANDWIDTH_ONLY).with_seed(5).with_faults(plan);
    let out = inputs.recover(&world, &AlgPlan::Summa { pr: 1, pc: 1 }, Kernel::Naive);
    assert!(out.values[3].is_err(), "killed rank reports failure");
    let ok = certified(&inputs, &out);
    let (pr, pc) = pmm_algs::near_square_factors(5);
    assert_eq!(ok.plan, AlgPlan::Summa { pr, pc });
    assert_eq!(ok.survivors, vec![0, 1, 2, 4, 5]);
    assert!(ok.attempts() >= 2);
}

// ---------------------------------------------------------------------------
// Failure reporting
// ---------------------------------------------------------------------------

#[test]
fn uncaught_kill_reports_rank_failure_not_deadlock() {
    // No fault-catching scope anywhere, so the kill must surface as a
    // typed world-level failure naming the fault-plan entry and the
    // replay seed — never as a deadlock or divergence abort.
    let msg = World::new(3, MachineParams::BANDWIDTH_ONLY)
        .with_seed(7)
        .with_faults(FaultPlan::none().with_kill(1, 1))
        .try_run_async(|rank| {
            Box::pin(async move {
                let wc = rank.world_comm();
                let me = rank.world_rank();
                rank.exchange_a(&wc, (me + 1) % 3, (me + 2) % 3, &[1.0]).await.payload[0]
            })
        })
        .expect_err("uncaught kill must fail the run")
        .to_string();
    // Two reporters exist: the verifier (if survivors block on the dead
    // rank first) or the runner (if the killed rank's panic surfaces
    // first). Both must name the fault, never a deadlock.
    assert!(msg.contains("rank failure"), "{msg}");
    assert!(msg.contains("kill=1@1"), "{msg}");
    assert!(!msg.contains("deadlock detected"), "must not misreport as deadlock: {msg}");
    assert!(!msg.contains("diverged"), "must not misreport as divergence: {msg}");
    assert!(msg.contains("PMM_SEED=7"), "report must carry the replay seed: {msg}");
}

#[test]
fn straggler_slows_the_clock_without_changing_traffic() {
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(1);
    let clean = alg1_chunks(world.clone());
    let slowed = alg1_chunks(world.with_faults(FaultPlan::none().with_straggler(5, 4.0)));
    assert_eq!(clean.values, slowed.values, "straggler must not change results");
    for (c, s) in clean.reports.iter().zip(&slowed.reports) {
        assert_eq!(c.meter, s.meter, "straggler must not change any meter");
    }
    assert!(
        slowed.critical_path_time() > clean.critical_path_time(),
        "a 4× straggler must stretch the critical path ({} vs {})",
        slowed.critical_path_time(),
        clean.critical_path_time()
    );
}

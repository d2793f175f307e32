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
//!   generic [`run_recoverable_a`] wrapper;
//! * the uncaught-kill path: `try_run_async` reports a typed rank
//!   failure naming the kill site and the replay seed, never a deadlock
//!   (`tests/engine_equivalence.rs` holds the thread host's report to
//!   the same text).

use pmm::prelude::*;
use pmm_simnet::{FaultPlan, RankFailed};
use proptest::prelude::*;
use std::sync::Arc;

/// Integer inputs of `dims`: `A` from seed 11, `B` from seed 22.
fn inputs(dims: MatMulDims) -> Inputs {
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    Inputs::new(dims, random_int_matrix(n1, n2, -3..4, 11), random_int_matrix(n2, n3, -3..4, 22))
}

/// Fault rate for the sweep tests: `PMM_FAULT_RATE` (a float) when set —
/// the `cargo xtask fault-sweep` matrix exports it — else `default`.
fn fault_rate_from_env(default: f64) -> f64 {
    match std::env::var("PMM_FAULT_RATE") {
        Ok(s) => s.trim().parse().unwrap_or_else(|_| panic!("bad PMM_FAULT_RATE: {s:?}")),
        Err(_) => default,
    }
}

/// Run Algorithm 1 under the generic recovery wrapper on a faulty world
/// that records its schedule, and return the per-rank results plus
/// reports and the choice log.
fn run_recovery(
    inputs: &Inputs,
    p: usize,
    sched_seed: u64,
    plan: FaultPlan,
) -> WorldResult<Result<Recovered, RankFailed>> {
    let dims = inputs.dims;
    World::new(p, MachineParams::BANDWIDTH_ONLY)
        .with_seed(sched_seed)
        .with_schedule_recording(true)
        .with_faults(plan)
        .run_async(|rank| {
            let (a, b) = (Arc::clone(&inputs.a), Arc::clone(&inputs.b));
            Box::pin(async move {
                let alg1 = AlgPlan::Alg1 { grid: [1, 1, 1] };
                run_recoverable_a(rank, &alg1, dims, Kernel::Naive, &a, &b).await
            })
        })
}

/// Assemble C from the survivors' shares and assert bitwise equality with
/// the oracle's product. For an Algorithm 1 plan, also hold every
/// survivor of the final attempt to its per-phase integer price (its
/// grid index is its index among the survivors): goodput words and
/// messages, whatever faults the run absorbed. Returns (survivors, final
/// plan, attempts).
fn check_recovered_product(
    inputs: &Inputs,
    out: &WorldResult<Result<Recovered, RankFailed>>,
) -> (Vec<usize>, AlgPlan, usize) {
    let dims = inputs.dims;
    let ok = out
        .values
        .iter()
        .find_map(|v| v.as_ref().ok())
        .expect("at least one rank must survive and succeed");
    let survivors = ok.survivors.clone();
    let plan = ok.plan.clone();
    for &w in &survivors {
        let v = out.values[w].as_ref().unwrap_or_else(|e| panic!("survivor {w} failed: {e}"));
        assert_eq!(v.survivors, survivors, "survivors disagree across ranks");
        assert_eq!(v.plan, plan, "recovery layouts disagree across ranks");
    }
    let shares: Vec<CShare> = survivors
        .iter()
        .map(|&w| out.values[w].as_ref().expect("survivor").share.clone())
        .collect();
    let c = assemble_recovered(dims, &plan, &shares);
    assert_eq!(c, *inputs.want(), "recovered product must be bitwise-correct");
    if let AlgPlan::Alg1 { .. } | AlgPlan::Alg1Streamed { .. } = plan {
        if let Err(mismatch) = check_alg1_price(dims, &plan, shares.iter().map(CShare::alg1), None)
        {
            panic!("{plan} on {dims}: {mismatch}");
        }
    }
    (survivors, plan, ok.attempts())
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
    let inputs = inputs(MatMulDims::new(24, 24, 24));
    let plan = FaultPlan::none()
        .with_seed(0xFA)
        .with_drop(0.08)
        .with_duplicate(0.02)
        .with_corrupt(0.02)
        .with_delay(0.03)
        .with_kill(4, 6);
    let out = run_recovery(&inputs, 9, 7, plan.clone());

    // The killed rank gets a typed error naming the fault-plan entry and
    // the replay seed — not a deadlock, not a panic.
    let failed = out.values[4].as_ref().expect_err("rank 4 was killed");
    assert_eq!(failed.rank, 4);
    assert!(failed.detail.contains("kill=4@6"), "{}", failed.detail);
    assert!(failed.detail.contains("PMM_SEED=7"), "{}", failed.detail);

    // Survivors agree, recover on the §5.2 grid for 8 ranks, and the
    // product is bitwise-correct.
    let (survivors, plan_used, attempts) = check_recovered_product(&inputs, &out);
    assert_eq!(survivors, vec![0, 1, 2, 3, 5, 6, 7, 8]);
    assert_eq!(plan_used, AlgPlan::Alg1 { grid: [2, 2, 2] }, "best grid for 8 ranks on a cube");
    assert_eq!(attempts, 2, "one abandoned attempt, one successful");

    // Retry overhead is real (≥5% drops must retransmit something) and
    // strictly separated from goodput: `check_recovered_product` held the
    // successful attempt's per-phase goodput to its price *exactly*.
    let total_retry: u64 = out.reports.iter().map(|r| r.meter.retry_overhead_words()).sum();
    assert!(total_retry > 0, "8% drops over 9 ranks must cause retransmissions");

    // Byte-identical replay from the printed seed: values, meters, times,
    // and choice logs all reproduce.
    let replay = run_recovery(&inputs, 9, 7, plan);
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
    let inputs = inputs(MatMulDims::new(24, 24, 24));
    let plan = FaultPlan::none().with_seed(3).with_kill(4, 6);
    let out = run_recovery(&inputs, 9, 1, plan);
    let ok = out.values[0].as_ref().expect("rank 0 survives");
    let pred = recovery_prediction(inputs.dims, &ok.attempt_plans, &ok.attempt_survivors);
    assert_eq!(pred.attempts.len(), ok.attempts());
    // Final attempt: every survivor's per-phase goodput is its price.
    check_recovered_product(&inputs, &out);
    // The redistribution ring and the algorithm run sum to the model's
    // totals exactly across survivors …
    let survivors: Vec<&Recovered> = out.values.iter().filter_map(|v| v.as_ref().ok()).collect();
    let restore: u64 = survivors.iter().map(|v| v.restore_meter.words_sent).sum();
    let run: u64 = survivors.iter().map(|v| v.run_meter.words_sent).sum();
    assert_eq!(restore as f64, pred.last().restore_words_total, "redistribution goodput");
    assert_eq!(run as f64, pred.last().run_words_total, "final-attempt run goodput");
    // … and whole-run goodput (including the abandoned attempt's partial
    // traffic) stays within the model's upper bound.
    let whole: u64 = ok.survivors.iter().map(|&w| out.reports[w].meter.words_sent).sum();
    assert!(
        (whole as f64) <= pred.total_upper_bound_words() + 1e-9,
        "{whole} goodput words exceed the recovery upper bound {}",
        pred.total_upper_bound_words()
    );
}

// ---------------------------------------------------------------------------
// Multi-fault plans: cascades, partitions, storms
// ---------------------------------------------------------------------------

#[test]
fn cascading_kills_shrink_the_grid_twice() {
    let inputs = inputs(MatMulDims::new(24, 24, 24));
    // Rank 4 dies by direct kill; rank 7 is armed to die once the fault
    // epoch reaches 1 (i.e. after the first death is detected).
    let plan = FaultPlan::none().with_seed(0xCA5).with_kill(4, 6).with_cascade(7, 1);
    let out = run_recovery(&inputs, 9, 11, plan);
    assert!(out.values[4].is_err(), "rank 4 killed directly");
    let cascaded = out.values[7].as_ref().expect_err("rank 7 killed by cascade");
    assert!(cascaded.detail.contains("cascade=7@1"), "{}", cascaded.detail);
    let (survivors, plan_used, attempts) = check_recovered_product(&inputs, &out);
    assert_eq!(survivors, vec![0, 1, 2, 3, 5, 6, 8]);
    assert!(attempts >= 2, "at least one abandoned attempt");
    assert_eq!(plan_used.active(), 7);
}

#[test]
fn healing_partition_delays_but_does_not_break_delivery() {
    let dims = MatMulDims::new(24, 12, 18);
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let Inputs { a, b, .. } = inputs(dims);
    let run = |plan: Option<FaultPlan>| {
        let mut world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(2);
        if let Some(p) = plan {
            world = world.with_faults(p);
        }
        world.run_async(|rank: &mut Rank| {
            let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
            Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await.c_chunk })
        })
    };
    let clean = run(None);
    // Ranks {0,1,2} cut off from the rest for seq window [0, 40), healing
    // at attempt 2: every cut-crossing copy with attempt < 2 blackholes.
    let parted =
        run(Some(FaultPlan::none().with_seed(0x9A97).with_partition(vec![0, 1, 2], 0..40, 2)));
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
    let dims = MatMulDims::new(24, 12, 18);
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let Inputs { a, b, .. } = inputs(dims);
    let run = |plan: Option<FaultPlan>| {
        let mut world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(1);
        if let Some(p) = plan {
            world = world.with_faults(p);
        }
        world.run_async(|rank: &mut Rank| {
            let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
            Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await.c_chunk })
        })
    };
    let clean = run(None);
    let stormed = run(Some(FaultPlan::none().with_seed(0x570).with_storm(0.5, 6.0)));
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
    let inputs = inputs(MatMulDims::new(96, 24, 12));
    let rate = fault_rate_from_env(0.05);
    for sched_seed in [1u64, 0xC0FFEE] {
        let mut plan = FaultPlan::none()
            .with_seed(0xBAD5EED ^ p as u64)
            .with_drop(rate * 0.6)
            .with_duplicate(rate * 0.2)
            .with_corrupt(rate * 0.2)
            .with_kill(kill_rank, kill_op);
        plan.timeout = 4.0;
        let out = run_recovery(&inputs, p, sched_seed, plan);
        let failed = out.values[kill_rank].as_ref().expect_err("killed rank errors");
        assert_eq!(failed.rank, kill_rank);
        // Every survivor's goodput is its price on the recovery grid,
        // ragged or not.
        let (survivors, _, _) = check_recovered_product(&inputs, &out);
        assert_eq!(survivors.len(), p - 1);
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
    let Inputs { a, b, .. } = inputs(dims);
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
    let inputs = inputs(dims);
    let out = World::new(6, MachineParams::BANDWIDTH_ONLY)
        .with_seed(5)
        .with_faults(plan)
        .run_async(|rank| {
            let (a, b) = (Arc::clone(&inputs.a), Arc::clone(&inputs.b));
            Box::pin(async move {
                let summa = AlgPlan::Summa { pr: 1, pc: 1 };
                run_recoverable_a(rank, &summa, dims, Kernel::Naive, &a, &b).await
            })
        });
    assert!(out.values[3].is_err(), "killed rank reports failure");
    let ok = out.values[0].as_ref().expect("rank 0 survives");
    let (pr, pc) = pmm_algs::near_square_factors(5);
    assert_eq!(ok.plan, AlgPlan::Summa { pr, pc });
    assert_eq!(ok.survivors, vec![0, 1, 2, 4, 5]);
    assert!(ok.attempts() >= 2);
    let (survivors, plan_used, _) = check_recovered_product(&inputs, &out);
    assert_eq!(survivors.len(), 5);
    assert_eq!(plan_used.algorithm(), "summa");
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
    let dims = MatMulDims::new(24, 12, 18);
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let Inputs { a, b, .. } = inputs(dims);
    let run = |plan: Option<FaultPlan>| {
        let mut world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(1);
        if let Some(p) = plan {
            world = world.with_faults(p);
        }
        world.run_async(|rank: &mut Rank| {
            let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
            Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await.c_chunk })
        })
    };
    let clean = run(None);
    let slowed = run(Some(FaultPlan::none().with_straggler(5, 4.0)));
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

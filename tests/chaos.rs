//! Chaos certification: every executable algorithm under multi-fault
//! plans, with model-exact recovery goodput.
//!
//! The tier-1 cell (`chaos_cert_all_six_algorithms`) arms one pinned
//! plan — a direct kill, a cascading kill, a healing partition, a
//! straggler storm, and background drops — against all six algorithms
//! through the generic recovery wrapper ([`Inputs::recover`]) and holds
//! each run to [`Inputs::check_recovered`]: the survivors agree, the
//! product reassembled from their shares is **bitwise** equal to the
//! serial reference, the final attempt's checkpoint/redistribution and
//! run goodput each equal `pmm_model::recovery_prediction` **exactly**
//! (to the word, across survivors), an Algorithm 1 survivor's per-phase
//! words and messages equal its `pmm_model::alg1_price`, and whole-run
//! goodput stays under the prediction's upper bound.
//!
//! The `#[ignore]`d release cells extend the certification to a
//! (algorithm × Theorem-3 regime × plan class) soak and to a
//! fault-armed Algorithm 1 run at P = 10^4 + 1 (one kill plus a healing partition, recovering onto the
//! integral §5.2 grid `[25, 20, 20]` of the 10^4 survivors). Each cell
//! prints a `CHAOS: key=value` line; `cargo xtask chaos-soak` runs the
//! whole file in release mode and collects those lines into
//! `BENCH_chaos.json`, gating on a 100% recovery success rate. Every
//! world here is loop-hosted (`run_async`); that a thread-hosted run of
//! the same recovery is byte-identical is `tests/engine_equivalence.rs`'s
//! job.

use std::time::Instant;

use pmm::prelude::*;

/// One plan per algorithm, in one-rank layouts (recovery lays out every
/// attempt itself).
fn all_plans() -> [AlgPlan; 6] {
    [
        AlgPlan::Alg1 { grid: [1, 1, 1] },
        AlgPlan::Alg1Streamed { grid: [1, 1, 1], slabs: 2 },
        AlgPlan::Summa { pr: 1, pc: 1 },
        AlgPlan::Cannon { q: 1 },
        AlgPlan::TwoFiveD { q: 1, c: 1 },
        AlgPlan::Carma { p: 1 },
    ]
}

/// A bandwidth-only world of `p` ranks under schedule `sched_seed` and
/// `faults`.
fn chaos_world(p: usize, sched_seed: u64, faults: FaultPlan) -> World {
    World::new(p, MachineParams::BANDWIDTH_ONLY).with_seed(sched_seed).with_faults(faults)
}

/// The pinned tier-1 multi-fault plan: a kill, a cascade armed on the
/// first death, a healing partition around ranks {0, 1}, a straggler
/// storm, and background message faults.
fn tier1_plan() -> FaultPlan {
    FaultPlan::none()
        .with_seed(0xC4A0_5CE7)
        .with_drop(0.05)
        .with_duplicate(0.02)
        .with_kill(2, 3)
        .with_cascade(7, 1)
        .with_partition(vec![0, 1], 2..30, 2)
        .with_storm(0.25, 2.0)
}

#[test]
fn chaos_cert_all_six_algorithms() {
    // P = 10 with two deaths → 8 survivors: best_grid gives [2, 2, 2],
    // SUMMA refactors
    // to 2 × 4, Cannon to a 2 × 2 torus with 4 idle survivors, 2.5D to
    // q = 2, c = 2 (exercising the layered reassembly), CARMA keeps all
    // 8 (power of two).
    let inputs = Inputs::random_int(MatMulDims::new(24, 24, 24), 31);
    for plan in all_plans() {
        let alg = plan.algorithm();
        let t0 = Instant::now();
        let out = inputs.recover(&chaos_world(10, 0xC0DE, tier1_plan()), &plan, Kernel::Naive);
        let killed = out.values[2].as_ref().expect_err("rank 2 was killed");
        assert!(killed.detail.contains("kill=2@3"), "{alg}: {}", killed.detail);
        let cascaded = out.values[7].as_ref().expect_err("rank 7 cascaded");
        assert!(cascaded.detail.contains("cascade=7@1"), "{alg}: {}", cascaded.detail);
        let ok = inputs.check_recovered(&out).unwrap_or_else(|e| panic!("{alg}: {e}"));
        let (attempts, nsurv, plan) = (ok.attempts(), ok.survivors.len(), &ok.plan);
        assert_eq!(nsurv, 8, "{alg}");
        assert!(attempts >= 2, "{alg}: the kills force at least one re-plan");
        println!(
            "CHAOS: cell=cert algorithm={alg} p=10 survivors={nsurv} attempts={attempts} \
             layout={plan} recovered=1 secs={:.3}",
            t0.elapsed().as_secs_f64()
        );
    }
}

#[test]
fn chaos_cert_replays_byte_identically() {
    // Same (program, seed, plan) triple twice: every per-rank Result,
    // meter, and clock must reproduce — multi-fault plans are pure
    // hashes, so the whole chaos run is a deterministic function of the
    // triple.
    let inputs = Inputs::random_int(MatMulDims::new(24, 24, 24), 31);
    let world = chaos_world(10, 0xC0DE, tier1_plan());
    let run = || inputs.recover(&world, &AlgPlan::Alg1 { grid: [1, 1, 1] }, Kernel::Naive);
    let (first, again) = (run(), run());
    assert_eq!(first.values, again.values, "per-rank results must replay byte-identically");
    for (w, (x, y)) in first.reports.iter().zip(&again.reports).enumerate() {
        assert_eq!(x.meter, y.meter, "rank {w} meter must replay exactly");
        assert_eq!(x.time, y.time, "rank {w} clock must replay exactly");
    }
}

/// One soak plan class: a named [`FaultPlan`] shape scaled to `p` ranks.
fn plan_classes(p: usize) -> Vec<(&'static str, FaultPlan)> {
    let seed = 0x50AB ^ p as u64;
    vec![
        ("kill", FaultPlan::none().with_seed(seed).with_drop(0.04).with_kill(1, 4)),
        ("cascade", FaultPlan::none().with_seed(seed).with_kill(1, 4).with_cascade(p - 1, 1)),
        (
            "partition",
            FaultPlan::none().with_seed(seed).with_drop(0.04).with_partition(vec![0, 1], 0..24, 2),
        ),
        (
            "storm",
            FaultPlan::none().with_seed(seed).with_drop(0.03).with_kill(1, 5).with_storm(0.5, 4.0),
        ),
    ]
}

/// The full soak: algorithm × Theorem-3 regime × plan class on the
/// conformance instance `(96, 24, 12)` (P = 3 in the 1D case, 16 in
/// 2D, 64 in 3D). Wall-clock capped by `PMM_CHAOS_BUDGET_SECS`
/// (default 240): cells past the budget are skipped and counted in the
/// summary line.
#[test]
#[ignore = "release soak; run via cargo xtask chaos-soak"]
fn chaos_soak_algorithms_by_regime_by_plan_class() {
    let budget = std::env::var("PMM_CHAOS_BUDGET_SECS").map_or(240, |s| {
        s.trim().parse::<u64>().unwrap_or_else(|_| {
            panic!("PMM_CHAOS_BUDGET_SECS={s:?} is not a whole number of seconds")
        })
    });
    let budget = std::time::Duration::from_secs(budget);
    let inputs = Inputs::random_int(MatMulDims::new(96, 24, 12), 31);
    let start = Instant::now();
    let (mut ran, mut skipped) = (0u32, 0u32);
    for plan in all_plans() {
        let alg = plan.algorithm();
        for p in [3usize, 16, 64] {
            for (class, faults) in plan_classes(p) {
                if start.elapsed() >= budget {
                    skipped += 1;
                    continue;
                }
                let label = format!("{alg}/p{p}/{class}");
                let t0 = Instant::now();
                let out = inputs.recover(&chaos_world(p, 0x50AB, faults), &plan, Kernel::Naive);
                let ok = inputs.check_recovered(&out).unwrap_or_else(|e| panic!("{label}: {e}"));
                let (attempts, nsurv, layout) = (ok.attempts(), ok.survivors.len(), &ok.plan);
                ran += 1;
                println!(
                    "CHAOS: cell=soak algorithm={alg} p={p} class={class} survivors={nsurv} \
                     attempts={attempts} layout={layout} recovered=1 secs={:.3}",
                    t0.elapsed().as_secs_f64()
                );
            }
        }
    }
    println!(
        "CHAOS: summary=soak cells={ran} skipped={skipped} failures=0 secs={:.1}",
        start.elapsed().as_secs_f64()
    );
    assert!(ran > 0, "the soak budget must admit at least one cell");
}

/// The scale acceptance cell: fault-armed Algorithm 1 end-to-end at
/// P = 10^4 + 1. Rank 10^4 is killed during the
/// first attempt and a partition around ranks {0..3} blackholes their
/// early traffic until it heals; the 10^4 survivors redistribute from
/// checkpoints onto the integral §5.2 grid `[25, 20, 20]` of
/// `(250, 200, 200)` and finish with model-exact goodput and a
/// bitwise-correct product.
#[test]
#[ignore = "release cell; run via cargo xtask chaos-soak"]
fn fault_armed_alg1_recovers_at_p_10_4_on_the_event_loop() {
    let inputs = Inputs::random_int(MatMulDims::new(250, 200, 200), 31);
    let p = 10_001;
    let plan = FaultPlan::none().with_seed(0xC0A7).with_kill(10_000, 2).with_partition(
        vec![0, 1, 2, 3],
        0..6,
        2,
    );
    let t0 = Instant::now();
    let out =
        inputs.recover(&chaos_world(p, 3, plan), &AlgPlan::Alg1 { grid: [1, 1, 1] }, Kernel::Naive);
    let secs = t0.elapsed().as_secs_f64();

    let killed = out.values[10_000].as_ref().expect_err("rank 10000 was killed");
    assert!(killed.detail.contains("kill=10000@2"), "{}", killed.detail);
    // The certificate holds every one of the 10^4 survivors to its
    // per-phase price on the recovery grid.
    let ok = inputs.check_recovered(&out).unwrap_or_else(|e| panic!("p10k: {e}"));
    let (attempts, nsurv, layout) = (ok.attempts(), ok.survivors.len(), &ok.plan);
    assert_eq!(nsurv, 10_000, "all other ranks survive");
    assert_eq!(*layout, AlgPlan::Alg1 { grid: [25, 20, 20] }, "the §5.2 grid of 10^4 survivors");
    assert_eq!(attempts, 2, "one abandoned attempt, one successful");
    let rate = nsurv as f64 * attempts as f64 / secs.max(1e-9);
    println!(
        "CHAOS: cell=p10k algorithm=alg1 p={p} survivors={nsurv} \
         attempts={attempts} layout={layout} recovered=1 secs={secs:.3} ranks_per_sec={rate:.0}"
    );
}

//! Cross-crate checks for the extension variants: streamed Algorithm 1,
//! executed CARMA, and the advisor — all against the Theorem 3 bound —
//! and the two plans that are special cases of others: Algorithm 1 is
//! streamed Algorithm 1 with one slab, Cannon is 2.5D with one layer,
//! each pinned to its recorded run.

use pmm::prelude::*;
use std::sync::Arc;

fn inputs(dims: MatMulDims) -> Arc<(Matrix, Matrix)> {
    Arc::new((
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 301),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 302),
    ))
}

/// Run `plan` on a bandwidth-only world of the plan's size.
fn run_plan(plan: &AlgPlan, dims: MatMulDims) -> WorldResult<CShare> {
    run_plan_on(plan, dims, MachineParams::BANDWIDTH_ONLY)
}

/// Run `plan` on a world of the plan's size under `params`.
fn run_plan_on(plan: &AlgPlan, dims: MatMulDims, params: MachineParams) -> WorldResult<CShare> {
    run_plan_in(&World::new(plan.active(), params), plan, dims)
}

/// Run `plan` on the world communicator of `world`.
fn run_plan_in(world: &World, plan: &AlgPlan, dims: MatMulDims) -> WorldResult<CShare> {
    let ab = inputs(dims);
    world.run_async(|rank| {
        let (plan, ab) = (plan.clone(), Arc::clone(&ab));
        Box::pin(async move {
            let comm = rank.world_comm();
            run_plan_a(rank, &comm, &plan, dims, Kernel::Naive, &ab.0, &ab.1).await
        })
    })
}

fn reference(dims: MatMulDims) -> Matrix {
    let ab = inputs(dims);
    gemm(&ab.0, &ab.1, Kernel::Naive)
}

#[test]
fn streamed_alg1_is_tight_too() {
    // The §6.2 low-memory variant moves exactly the same words, so it also
    // attains the bound on the optimal divisible grid.
    let dims = MatMulDims::new(768, 192, 48);
    let p = 36usize;
    let plan = AlgPlan::Alg1Streamed { grid: best_grid(dims, p).grid, slabs: 4 };
    let out = run_plan(&plan, dims);
    let bound = lower_bound(dims, p as f64).bound;
    let measured = out.critical_path_time();
    assert!(
        (measured - bound).abs() < 1e-9 * bound,
        "streamed measured {measured} vs bound {bound}"
    );
    // And the product is right.
    assert_eq!(assemble_recovered(dims, &plan, &out.values), reference(dims));
}

#[test]
fn carma_is_tight_on_pow2_square_instances() {
    // On power-of-two-aligned square instances, CARMA's halving schedule
    // equals the Corollary 4 bound exactly — the certification Theorem 3
    // enables.
    for (n, p) in [(64u64, 8usize), (64, 64), (128, 512)] {
        let dims = MatMulDims::square(n);
        let plan = AlgPlan::Carma { p };
        let out = run_plan(&plan, dims);
        let bound = corollary4(n, p as f64);
        let measured = out.critical_path_time();
        assert!(
            (measured - bound).abs() < 1e-9 * bound,
            "n={n} P={p}: CARMA measured {measured} vs bound {bound}"
        );
        // Reassembled product matches the serial reference.
        assert_eq!(assemble_recovered(dims, &plan, &out.values), reference(dims), "n={n} P={p}");
    }
}

#[test]
fn advisor_prediction_matches_execution_for_the_winner() {
    let dims = MatMulDims::new(256, 128, 64);
    let p = 32usize;
    let recs = recommend(dims, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
    let best = recs.first().expect("at least one plan");
    assert_eq!(best.plan.algorithm(), "alg1", "unlimited memory: Algorithm 1 wins");
    let measured = run_plan(&best.plan, dims).critical_path_time();
    assert!(
        (measured - best.cost.words).abs() < 1e-9,
        "advisor predicted {} words, measured {measured}",
        best.cost.words
    );
}

#[test]
fn advisor_prices_alg1_messages_and_words_as_executed() {
    // Algorithm 1's collectives run recursive doubling / halving on a
    // power-of-two fiber (log2 p messages) and the ring otherwise
    // (p − 1): the advisor must price each fiber by the same rule.
    let dims = MatMulDims::new(120, 24, 30);
    for grid in [[5, 1, 1], [6, 2, 1], [2, 2, 2], [3, 1, 1]] {
        let plan = AlgPlan::Alg1 { grid };
        let executed = run_plan(&plan, dims).critical_path_cost();
        let advised = plan_cost(dims, &plan).expect("the model prices Algorithm 1");
        assert_eq!(advised.messages, executed.messages, "grid {grid:?}: messages");
        assert!((advised.words - executed.words).abs() < 1e-9, "grid {grid:?}: words");
    }
}

#[test]
fn advisor_predicts_every_candidates_executed_makespan() {
    // Under a full α-β-γ machine every ranked plan — Algorithm 1 grids
    // and 2.5D layouts, c = 1, 2 and 4 — runs exactly as long as the
    // advisor predicts: its collectives are priced by the rules they
    // execute (binomial replication and reduction for 2.5D).
    let dims = MatMulDims::square(48);
    let params = MachineParams::new(4.0, 1.0, 0.25);
    let mut twofived = 0;
    for p in [32usize, 64] {
        for rec in recommend(dims, p, f64::INFINITY, params) {
            let measured = run_plan_on(&rec.plan, dims, params).critical_path_time();
            assert!(
                (measured - rec.time).abs() <= 1e-9 * rec.time,
                "P={p} {}: advisor predicted {}, executed {measured}",
                rec.plan,
                rec.time
            );
            twofived += usize::from(rec.plan.algorithm() == "twofived");
        }
    }
    assert_eq!(twofived, 3, "2.5D on 4x4x2, 8x8x1 and 4x4x4");
}

#[test]
fn streamed_variant_trades_latency_for_memory_monotonically() {
    let dims = MatMulDims::new(64, 96, 64);
    let mut prev_msgs = 0u64;
    let mut prev_peak = u64::MAX;
    for slabs in [1usize, 2, 4, 8] {
        let out = run_plan(&AlgPlan::Alg1Streamed { grid: [2, 2, 2], slabs }, dims);
        let msgs = out.reports[0].meter.msgs_sent;
        let peak = out.max_peak_mem_words();
        assert!(msgs >= prev_msgs, "slabs={slabs}: messages must not decrease");
        assert!(peak <= prev_peak, "slabs={slabs}: peak memory must not increase");
        prev_msgs = msgs;
        prev_peak = peak;
    }
}

/// FNV-1a (64 bit) of `s`: a fingerprint that no toolchain update moves.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Fingerprint of `plan` on `p` ranks (α = β = γ = 1, seeded schedule,
/// traced): hashes of the values (phase labels included), of every
/// rank's `(meter, clock, memory peak, event count)`, of the schedule
/// trace and of the Chrome export.
fn fingerprint(plan: &AlgPlan, dims: MatMulDims, p: usize) -> [u64; 4] {
    let world = World::new(p, MachineParams::new(1.0, 1.0, 1.0)).with_seed(11).with_trace(true);
    let out = run_plan_in(&world, plan, dims);
    let ranks: Vec<_> =
        out.reports.iter().map(|r| (r.meter, r.time, r.peak_mem_words, r.final_stamp)).collect();
    [
        fnv1a(&format!("{:?}", out.values)),
        fnv1a(&format!("{ranks:?}")),
        fnv1a(&out.schedule_trace.as_ref().expect("seeded").render()),
        fnv1a(&out.tracer().expect("traced").chrome_json()),
    ]
}

/// Assert each of `plans` runs on `p` ranks as the recorded program:
/// `want` is the [`fingerprint`] recorded while Cannon and streamed
/// Algorithm 1 still had bodies of their own. A change that moves a
/// fingerprint on purpose records the new one and says why.
fn assert_runs_as_recorded(plans: &[AlgPlan], dims: MatMulDims, p: usize, want: [u64; 4]) {
    for plan in plans {
        let got = fingerprint(plan, dims, p);
        for (part, (g, w)) in
            ["values", "ranks", "schedule", "chrome"].iter().zip(got.iter().zip(want))
        {
            assert_eq!(*g, w, "{plan} on {dims}, P = {p}: {part} fingerprint {g:#018x}");
        }
    }
}

#[test]
fn streamed_alg1_with_one_slab_is_alg1() {
    // Divisible, ragged, and a 1D grid whose A operand is read in place.
    let d = MatMulDims::new;
    let plans = |grid| [AlgPlan::Alg1 { grid }, AlgPlan::Alg1Streamed { grid, slabs: 1 }];
    #[rustfmt::skip]
    let recorded = [
        ([2, 3, 2], d(24, 12, 18),
         [0x4fc816d4b90819ff, 0x1fd2a35aac5d52f9, 0x42e91e489d5eb8ac, 0x3f3ea4f5e085ff34]),
        ([2, 2, 3], d(25, 13, 17),
         [0x12d938e37b77f45a, 0x743184345d710c9a, 0x2a2c21af93f6dff0, 0x819a6ff444602c39]),
        ([4, 1, 1], d(64, 16, 16),
         [0x84ad5d2068445b69, 0x583a6607fd169db1, 0x8303e68d6f6908e3, 0x0fdab8a32ae55fa1]),
    ];
    for (grid, dims, want) in recorded {
        assert_runs_as_recorded(&plans(grid), dims, grid.iter().product(), want);
    }
}

#[test]
fn twofived_with_one_layer_is_cannon() {
    // Divisible, ragged, and three idle members past the 2 × 2 torus.
    let d = MatMulDims::new;
    let plans = |q| [AlgPlan::Cannon { q }, AlgPlan::TwoFiveD { q, c: 1 }];
    #[rustfmt::skip]
    let recorded = [
        (3, d(24, 12, 18), 9,
         [0x6d308be7de022481, 0x0b97180d4d3bceb0, 0x0db1e90dbcb784b0, 0x51596a2a95cb80ec]),
        (3, d(25, 13, 17), 9,
         [0x1482275bddc25374, 0x3751b9dd5555d6ed, 0x99fe33a63718f0c2, 0xb82f2be16e0c18ee]),
        (2, d(10, 7, 9), 7,
         [0xbce42bce01823094, 0x004c349eef25bd64, 0xc2d62705be5ddfaf, 0x8d4e9e815fbbc4bc]),
    ];
    for (q, dims, p, want) in recorded {
        assert_runs_as_recorded(&plans(q), dims, p, want);
    }
}

#[test]
fn the_other_bodies_run_as_recorded() {
    // Folding Cannon into 2.5D and streaming into Algorithm 1 moves no
    // event of 2.5D with layers, SUMMA or CARMA.
    let d = MatMulDims::new;
    #[rustfmt::skip]
    let recorded = [
        (AlgPlan::TwoFiveD { q: 2, c: 2 }, d(16, 16, 16), 8,
         [0x1e04551af474528d, 0x147e6d2b5d167191, 0xdb4d0f70ca2e4201, 0x38a2e59a68a7d072]),
        (AlgPlan::Summa { pr: 2, pc: 3 }, d(24, 12, 18), 6,
         [0x4b1f4efd9dc7c6fc, 0xce01025d3d6dd4a1, 0x5131c0507c67623d, 0xd735d8dfdb68de0d]),
        (AlgPlan::Carma { p: 8 }, d(16, 16, 16), 8,
         [0x63bf00e7664fd4e3, 0x59d58bfd75fc1e11, 0xaa8fd6600a001e89, 0x4aabff3496937681]),
    ];
    for (plan, dims, p, want) in recorded {
        assert_runs_as_recorded(&[plan], dims, p, want);
    }
}

#[test]
fn streamed_phase_meters_keep_every_retransmitted_word() {
    // Under message drops the three phases of Algorithm 1, plain or
    // streamed, carry all of the run's traffic: goodput and retries.
    let dims = MatMulDims::new(24, 12, 18);
    let faults = FaultPlan::none().with_seed(9).with_drop(0.2);
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(3).with_faults(faults);
    let counters = |m: &Meter| {
        [
            m.words_sent,
            m.words_recv,
            m.msgs_sent,
            m.msgs_recv,
            m.retry_words_sent,
            m.retry_msgs_sent,
            m.retry_words_recv,
            m.retry_msgs_recv,
        ]
    };
    for plan in
        [AlgPlan::Alg1 { grid: [2, 3, 2] }, AlgPlan::Alg1Streamed { grid: [2, 3, 2], slabs: 2 }]
    {
        let out = run_plan_in(&world, &plan, dims);
        let (mut phases, mut meters) = (Meter::default(), Meter::default());
        for (share, report) in out.values.iter().zip(&out.reports) {
            let CShare::Chunk(alg1) = share else { panic!("{plan}: expected a chunk") };
            for phase in &alg1.phases {
                phases += phase.meter;
            }
            meters += report.meter;
        }
        assert!(meters.retry_words_sent > 0, "{plan}: the drops cost retransmissions");
        assert_eq!(counters(&phases), counters(&meters), "{plan}: phases vs meters");
    }
}

//! Cross-crate checks for the extension variants: streamed Algorithm 1,
//! executed CARMA, and the advisor — all against the Theorem 3 bound —
//! every plan kind against its predicted makespan and goodput, and the
//! two plans that are special cases of others: Algorithm 1 is
//! streamed Algorithm 1 with one slab, Cannon is 2.5D with one layer,
//! each pinned to its recorded run.

use pmm::prelude::*;
use std::cmp::Ordering;

/// Run `plan` on `world` with the naive kernel, held to
/// [`Inputs::check`]: the oracle's product, the plan's goodput and, for
/// Algorithm 1, every rank's price.
fn checked(inputs: &Inputs, world: &World, plan: &AlgPlan) -> WorldResult<CShare> {
    let out = inputs.run(world, plan, Kernel::Naive);
    assert_eq!(inputs.check(plan, &out), Ok(()), "{plan} on {}", inputs.dims);
    out
}

#[test]
fn streamed_alg1_is_tight_too() {
    // The §6.2 low-memory variant moves exactly the same words, so it also
    // attains the bound on the optimal divisible grid.
    let dims = MatMulDims::new(768, 192, 48);
    let p = 36usize;
    let plan = AlgPlan::Alg1Streamed { grid: best_grid(dims, p).grid, slabs: 4 };
    let measured = Inputs::random_int(dims, 301).measure(&plan, false).critical_path_time();
    assert_eq!(words_vs_bound(dims, p, measured), Ordering::Equal, "streamed: {measured} words");
}

#[test]
fn carma_is_tight_on_pow2_square_instances() {
    // On power-of-two-aligned square instances, CARMA's halving schedule
    // equals the Corollary 4 bound exactly — the certification Theorem 3
    // enables.
    for (n, p) in [(64u64, 8usize), (64, 64), (128, 512)] {
        let dims = MatMulDims::square(n);
        let plan = AlgPlan::Carma { p };
        // `measure` also holds the reassembled product to the oracle.
        let measured = Inputs::random_int(dims, 301).measure(&plan, false).critical_path_time();
        let tight = words_vs_bound(dims, p, measured);
        assert_eq!(tight, Ordering::Equal, "n={n} P={p}: CARMA measured {measured}");
    }
}

#[test]
fn advisor_prediction_matches_execution_for_the_winner() {
    let dims = MatMulDims::new(256, 128, 64);
    let p = 32usize;
    let recs = recommend(dims, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
    let best = recs.first().expect("at least one plan");
    assert_eq!(best.plan.algorithm(), "alg1", "unlimited memory: Algorithm 1 wins");
    let measured = Inputs::random_int(dims, 301).measure(&best.plan, false).critical_path_time();
    assert_eq!(measured, best.cost.words, "advisor predicted words vs measured");
}

#[test]
fn advisor_prices_alg1_messages_and_words_as_executed() {
    // Algorithm 1's collectives run recursive doubling / halving on a
    // power-of-two fiber (log2 p messages) and the ring otherwise
    // (p − 1): the advisor must price each fiber by the same rule.
    let dims = MatMulDims::new(120, 24, 30);
    let inputs = Inputs::random_int(dims, 301);
    for grid in [[5, 1, 1], [6, 2, 1], [2, 2, 2], [3, 1, 1]] {
        let plan = AlgPlan::Alg1 { grid };
        let executed = inputs.measure(&plan, false).critical_path_cost();
        let advised = plan_prediction(dims, &plan).cost;
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
    let inputs = Inputs::random_int(dims, 301);
    let mut twofived = 0;
    for p in [32usize, 64] {
        for rec in recommend(dims, p, f64::INFINITY, params) {
            let world = World::new(rec.plan.active(), params);
            let measured = checked(&inputs, &world, &rec.plan).critical_path_time();
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
fn every_plan_kind_is_priced_at_its_executed_makespan() {
    // Each of the six plan kinds at two layouts that divide the
    // dimensions: the predicted cost is the executed makespan under a
    // full α-β-γ machine, and (held by `checked`) the goodput total is
    // every rank's sent words to the word.
    let d = MatMulDims::new;
    let params = MachineParams::new(4.0, 1.0, 0.25);
    let run = |plan: &AlgPlan, dims| {
        checked(&Inputs::random_int(dims, 301), &World::new(plan.active(), params), plan)
    };
    let divisible = [
        (AlgPlan::Alg1 { grid: [2, 2, 2] }, d(24, 24, 24)),
        (AlgPlan::Alg1 { grid: [2, 3, 2] }, d(24, 12, 18)),
        (AlgPlan::Alg1Streamed { grid: [2, 2, 2], slabs: 3 }, d(24, 24, 24)),
        (AlgPlan::Alg1Streamed { grid: [4, 2, 1], slabs: 4 }, d(32, 32, 16)),
        (AlgPlan::Summa { pr: 2, pc: 3 }, d(24, 24, 24)),
        (AlgPlan::Summa { pr: 2, pc: 4 }, d(96, 24, 12)),
        (AlgPlan::Cannon { q: 2 }, d(24, 24, 24)),
        (AlgPlan::Cannon { q: 3 }, d(24, 12, 18)),
        (AlgPlan::TwoFiveD { q: 2, c: 2 }, d(24, 24, 24)),
        (AlgPlan::TwoFiveD { q: 4, c: 2 }, d(32, 16, 32)),
        (AlgPlan::Carma { p: 8 }, d(32, 32, 32)),
        (AlgPlan::Carma { p: 16 }, d(64, 16, 32)),
    ];
    for (plan, dims) in divisible {
        let out = run(&plan, dims);
        let pred = plan_prediction(dims, &plan);
        let (want, got) = (params.time(pred.cost), out.critical_path_time());
        assert!((got - want).abs() <= 1e-9 * want, "{plan} on {dims}: predicted {want}, ran {got}");
    }
    // One ragged layout per kind (CARMA: dimensions that are not powers
    // of two): the goodput total stays exact.
    let ragged = [
        AlgPlan::Alg1 { grid: [2, 2, 3] },
        AlgPlan::Alg1Streamed { grid: [2, 2, 3], slabs: 2 },
        AlgPlan::Summa { pr: 2, pc: 3 },
        AlgPlan::Cannon { q: 3 },
        AlgPlan::TwoFiveD { q: 2, c: 2 },
    ];
    let carma = (AlgPlan::Carma { p: 8 }, d(48, 20, 12));
    for (plan, dims) in ragged.into_iter().map(|plan| (plan, d(25, 13, 17))).chain([carma]) {
        run(&plan, dims);
    }
}

#[test]
fn streamed_variant_trades_latency_for_memory_monotonically() {
    let inputs = Inputs::random_int(MatMulDims::new(64, 96, 64), 301);
    let mut prev_msgs = 0u64;
    let mut prev_peak = u64::MAX;
    for slabs in [1usize, 2, 4, 8] {
        let out = inputs.measure(&AlgPlan::Alg1Streamed { grid: [2, 2, 2], slabs }, false);
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
/// recorded, traced): hashes of the values (phase labels included), of
/// every rank's `(meter, clock, memory peak, event count)`, of the
/// rendered `ChoiceLog` and of the Chrome export.
fn fingerprint(plan: &AlgPlan, dims: MatMulDims, p: usize) -> [u64; 4] {
    let world = World::new(p, MachineParams::new(1.0, 1.0, 1.0))
        .with_seed(11)
        .with_schedule_recording(true)
        .with_trace(true);
    let out = checked(&Inputs::random_int(dims, 301), &world, plan);
    let ranks: Vec<_> =
        out.reports.iter().map(|r| (r.meter, r.time, r.peak_mem_words, r.final_stamp)).collect();
    [
        fnv1a(&format!("{:?}", out.values)),
        fnv1a(&format!("{ranks:?}")),
        fnv1a(&out.choice_points.as_ref().expect("recorded").render()),
        fnv1a(&out.tracer().expect("traced").chrome_json()),
    ]
}

/// Assert each of `plans` runs on `p` ranks as the recorded program:
/// `want` is the [`fingerprint`] recorded while Cannon and streamed
/// Algorithm 1 still had bodies of their own (its schedule part
/// re-recorded as the choice-log hash on a tree where the hashes of the
/// former event log still held). A change that moves a fingerprint on
/// purpose records the new one and says why.
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
         [0x4fc816d4b90819ff, 0x1fd2a35aac5d52f9, 0x504c8eb6d75bdde5, 0x3f3ea4f5e085ff34]),
        ([2, 2, 3], d(25, 13, 17),
         [0x12d938e37b77f45a, 0x743184345d710c9a, 0xf0ff37bb6bc2eb48, 0x819a6ff444602c39]),
        ([4, 1, 1], d(64, 16, 16),
         [0x84ad5d2068445b69, 0x583a6607fd169db1, 0xfb1b549a650fd5a0, 0x0fdab8a32ae55fa1]),
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
         [0x6d308be7de022481, 0x0b97180d4d3bceb0, 0x607c45a630e251a8, 0x51596a2a95cb80ec]),
        (3, d(25, 13, 17), 9,
         [0x1482275bddc25374, 0x3751b9dd5555d6ed, 0x607c45a630e251a8, 0xb82f2be16e0c18ee]),
        (2, d(10, 7, 9), 7,
         [0xbce42bce01823094, 0x004c349eef25bd64, 0x5c888cd437e2603a, 0x8d4e9e815fbbc4bc]),
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
         [0x1e04551af474528d, 0x147e6d2b5d167191, 0xd46bfd0e25500861, 0x38a2e59a68a7d072]),
        (AlgPlan::Summa { pr: 2, pc: 3 }, d(24, 12, 18), 6,
         [0x4b1f4efd9dc7c6fc, 0xce01025d3d6dd4a1, 0x9a93ccfc8e381c72, 0xd735d8dfdb68de0d]),
        (AlgPlan::Carma { p: 8 }, d(16, 16, 16), 8,
         [0x63bf00e7664fd4e3, 0x59d58bfd75fc1e11, 0x902efb04e84a0fc0, 0x4aabff3496937681]),
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
    let inputs = Inputs::random_int(dims, 301);
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
        let out = checked(&inputs, &world, &plan);
        let (mut phases, mut meters) = (Meter::default(), Meter::default());
        for (share, report) in out.values.iter().zip(&out.reports) {
            for phase in &share.alg1().phases {
                phases += phase.meter;
            }
            meters += report.meter;
        }
        assert!(meters.retry_words_sent > 0, "{plan}: the drops cost retransmissions");
        assert_eq!(counters(&phases), counters(&meters), "{plan}: phases vs meters");
    }
}

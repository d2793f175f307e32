//! Host-differential suite: a loop-hosted `World::run_async` of a
//! program vs a thread-hosted `World::run` that drives the same `_a`
//! body through `poll_now` — the way the frozen benchmark's six sync
//! entry points run.
//!
//! Every primitive has one implementation and both hosts drive the one
//! deterministic scheduler, so the two runs must be *observationally
//! identical*: same values, same meters, same simulated clocks, same
//! memory peaks, same happens-before event counts, and a byte-identical
//! `ChoiceLog` for the same `(program, schedule)` pair. This suite pins
//! that on
//!
//! * the pinned `(program, seed)` workloads of `tests/determinism.rs`
//!   (Algorithm 1 P = 12, Cannon P = 9, SUMMA P = 6, 2.5D P = 8);
//! * all six algorithms of the workspace across the three Theorem 3
//!   regimes of the `tests/conformance.rs` sweep instance
//!   `(96, 24, 12)` — 1D interior (P = 2), 2D interior (P = 8), 3D
//!   interior (P = 64);
//! * property-sweeps with the fault layer armed (message drops,
//!   duplicates, delays): goodput *and* retry meters must agree
//!   bit-for-bit across hosts;
//! * kills, caught (`catch_failures_async!`), recovered from
//!   (`run_recoverable_a`), and uncaught (the failure report);
//! * the frozen benchmark's six sync entry points (`alg1`, …, `carma`)
//!   against `run_plan_a` of the same plan — the program
//!   `six_algs_small` runs.
//!
//! The same comparison, on each host, also holds two *programs* to one
//! run: Algorithm 1, plain and streamed, which multiplies an operand
//! whose fiber has one member where it lies in the global input, against
//! one test-local slab-loop program that copies it out and all-gathers
//! it as before.

use pmm::algs::{
    alg1, alg1_on_a, alg1_streamed, cannon, carma, fiber_comms_a, summa, twofived, PhaseMeter,
    PhaseProbe,
};
use pmm::collectives::{all_gather_v_a, reduce_scatter_v_a};
use pmm::dense::{block_range, chunk_of_block, gemm_acc, Block2};
use pmm::prelude::*;
use pmm::simnet::{phase, poll_now};
use proptest::prelude::*;
use std::sync::Arc;

/// `run_plan_a` of `plan` on the world communicator, every rank reading
/// the one shared copy of `inputs` — what [`Inputs::run`] runs on the
/// loop, as a program the thread host can run too.
fn plan_program(
    plan: AlgPlan,
    inputs: &Inputs,
) -> impl for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, CShare> + Send + Sync {
    let (dims, a, b) = (inputs.dims, Arc::clone(&inputs.a), Arc::clone(&inputs.b));
    move |rank| {
        let (plan, a, b) = (plan.clone(), Arc::clone(&a), Arc::clone(&b));
        Box::pin(async move {
            let comm = rank.world_comm();
            run_plan_a(rank, &comm, &plan, dims, Kernel::Naive, &a, &b).await
        })
    }
}

/// A world of `p` ranks that records its schedule.
fn recorded(p: usize) -> World {
    World::new(p, MachineParams::BANDWIDTH_ONLY).with_schedule_recording(true)
}

/// Assert every observable artifact of two runs of a recorded world
/// matches — a thread-hosted and a loop-hosted run of one program, or
/// two programs that must be indistinguishable: values, per-rank
/// meters/clocks/memory/event counts, the pick count, and the whole
/// `ChoiceLog` (chosen ranks, footprints and every runnable-set
/// transition), rendered and pick by pick.
fn assert_same_run<T>(label: &str, x: &WorldResult<T>, y: &WorldResult<T>)
where
    T: PartialEq + std::fmt::Debug,
{
    assert_same_outcome(label, x, y);
    assert_eq!(x.picks, y.picks, "{label}: pick counts diverge");
    let (t, e) = (
        x.choice_points.as_ref().expect("recorded runs keep a choice log"),
        y.choice_points.as_ref().expect("recorded runs keep a choice log"),
    );
    assert_eq!(t.render(), e.render(), "{label}: choice logs are not byte-identical");
    t.assert_matches(e, &Repro::Prefix(t.chosen().to_vec()));
}

/// The schedule-free half of [`assert_same_run`]: values and per-rank
/// meters, clocks, memory peaks and happens-before event counts.
fn assert_same_outcome<T>(label: &str, x: &WorldResult<T>, y: &WorldResult<T>)
where
    T: PartialEq + std::fmt::Debug,
{
    assert_eq!(x.values, y.values, "{label}: per-rank values diverge");
    assert_eq!(x.reports.len(), y.reports.len(), "{label}: rank count");
    for (r, (t, e)) in x.reports.iter().zip(&y.reports).enumerate() {
        assert_eq!(t.meter, e.meter, "{label}: rank {r} meter diverges");
        assert_eq!(t.time, e.time, "{label}: rank {r} clock diverges");
        assert_eq!(t.peak_mem_words, e.peak_mem_words, "{label}: rank {r} memory peak diverges");
        assert_eq!(
            t.final_stamp, e.final_stamp,
            "{label}: rank {r} happens-before event count diverges"
        );
    }
}

/// Run `program` on both hosts and assert the runs are the same;
/// returns the loop-hosted result for further checks. Polling the async
/// program once on a thread host is what the benchmark's sync entry
/// points (`alg1` = `poll_now(alg1_a(..))`, ...) do.
fn assert_hosts_agree<T, F>(label: &str, world: &World, program: F) -> WorldResult<T>
where
    T: Send + PartialEq + std::fmt::Debug,
    F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
{
    let threads = world.run(|rank| poll_now(program(rank)));
    let event = world.run_async(program);
    assert_same_run(label, &threads, &event);
    event
}

/// The determinism-suite Algorithm 1 workload: P = 12 on a 2 × 3 × 2
/// grid, seeds pinned to the same values `tests/determinism.rs` uses.
#[test]
fn engines_agree_on_the_pinned_alg1_workload() {
    let dims = MatMulDims::new(24, 12, 18);
    let cfg = Alg1Config {
        dims,
        grid: Grid3::new(2, 3, 2),
        kernel: Kernel::Naive,
        assembly: Assembly::ReduceScatter,
    };
    let Inputs { a, b, .. } = Inputs::seeded(dims, [101, 202]);
    for seed in [0xA11CE_u64, 0xC1EA4, 0, 5] {
        let world = recorded(12).with_seed(seed);
        // Compare the chunk bits *and* the per-phase meters.
        let view = |out: Alg1Output| -> (Vec<f64>, Vec<(String, Meter)>) {
            let phases = out.phases.iter().map(|ph| (ph.label.to_string(), ph.meter)).collect();
            (out.c_chunk, phases)
        };
        let threads = world.run(|rank| view(poll_now(alg1_a(rank, &cfg, &a, &b))));
        let out = world.run_async(|rank| {
            let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
            Box::pin(async move { view(alg1_a(rank, &cfg, &a, &b).await) })
        });
        assert_same_run(&format!("alg1 seed {seed}"), &threads, &out);
        assert!(out.picks > 12, "seed {seed}: a 12-rank Algorithm 1 run makes real picks");
    }
}

/// What licenses generating the inputs once per world: Algorithm 1 on
/// the loop host with every rank reading one shared `A` and `B`, and on
/// the thread host with a private copy per rank, are the same run —
/// meters, clocks, memory peaks, schedule and `c_chunk` bits.
#[test]
fn shared_inputs_on_the_loop_and_per_rank_copies_on_threads_are_the_same_run() {
    let dims = MatMulDims::new(24, 12, 18);
    let cfg = Alg1Config::new(dims, Grid3::new(2, 3, 2));
    let Inputs { a, b, .. } = Inputs::seeded(dims, [101, 202]);
    let world = recorded(12).with_seed(0xA11CE);
    let per_rank = world.run(|rank| {
        let (a, b) = (Matrix::clone(&a), Matrix::clone(&b));
        poll_now(alg1_a(rank, &cfg, &a, &b))
    });
    let shared = world.run_async(|rank| {
        let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
        Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
    });
    assert_same_run("alg1, shared vs per-rank inputs", &per_rank, &shared);
    assert_eq!(Arc::strong_count(&a), 1, "the shared run holds no copy past its end");
}

/// Algorithm 1 the way it ran before operands were read in place: every
/// rank copies its share of each slab of both blocks out of the global
/// inputs and all-gathers it — over a one-member fiber too — with the
/// library's slab clamp, memory rule and phase scopes. With one slab it
/// is the frozen ladder's rung-5 program.
async fn alg1_extracting(
    rank: &mut Rank,
    cfg: &Alg1Config,
    slabs: usize,
    a: &Matrix,
    b: &Matrix,
) -> Alg1Output {
    let [p1, p2, p3] = cfg.grid.dims();
    let coord = cfg.grid.coord_of(rank.world_rank());
    let comms = fiber_comms_a(rank, cfg.grid).await;
    let a_blk = Block2::of(a.rows(), a.cols(), p1, p2, coord[0], coord[1]);
    let b_blk = Block2::of(b.rows(), b.cols(), p2, p3, coord[1], coord[2]);
    let (h1, h2, h3) = (a_blk.height(), a_blk.width(), b_blk.width());
    let slabs = slabs.clamp(1, h2.max(1));
    let slabs: Vec<[Block2; 2]> = (0..slabs)
        .map(|s| {
            let r = block_range(h2, slabs, s);
            let inner = a_blk.cols.start + r.start..a_blk.cols.start + r.end;
            let a_slab = Block2 { rows: a_blk.rows.clone(), cols: inner.clone() };
            [a_slab, Block2 { rows: inner, cols: b_blk.cols.clone() }]
        })
        .collect();
    let owned: Vec<[Vec<f64>; 2]> = slabs
        .iter()
        .map(|[a_slab, b_slab]| [a_slab.chunk(a, p3, coord[2]), b_slab.chunk(b, p1, coord[0])])
        .collect();
    rank.mem_acquire(owned.iter().flatten().map(Vec::len).sum::<usize>() as u64);

    let mut d = Matrix::zeros(h1, h3);
    let mut meters = [Meter::default(); 2];
    let mut held = 0;
    for (s, (blocks, shares)) in slabs.iter().zip(owned).enumerate() {
        rank.mem_release(held);
        held = blocks.iter().map(Block2::words).sum::<usize>() as u64;
        let mut gathered = Vec::new();
        for (i, (blk, mine)) in blocks.iter().zip(shares).enumerate() {
            let (fiber, label) = [(&comms[2], "all-gather A"), (&comms[0], "all-gather B")][i];
            let (p, words) = (fiber.size(), blk.words());
            rank.mem_acquire(words as u64);
            let probe = PhaseProbe::begin(rank, label);
            let flat =
                all_gather_v_a(rank, fiber, mine, &counts(words, p), AllGatherAlgo::Auto).await;
            meters[i] += probe.finish(rank).meter;
            gathered.push(Matrix::from_vec(blk.height(), blk.width(), flat));
        }
        if s == 0 {
            rank.mem_acquire((h1 * h3) as u64);
        }
        phase!(rank, "local multiply", {
            gemm_acc(&mut d, &gathered[0], &gathered[1], cfg.kernel);
            rank.compute((blocks[0].words() * h3) as f64);
        });
    }
    let probe = PhaseProbe::begin(rank, "reduce-scatter C");
    let c_counts = counts(h1 * h3, p2);
    let c_chunk =
        reduce_scatter_v_a(rank, &comms[1], d.into_vec(), &c_counts, ReduceScatterAlgo::Auto).await;
    let ph_c = probe.finish(rank);
    rank.mem_acquire(c_chunk.len() as u64);
    rank.mem_release(held + (h1 * h3) as u64);
    let [ph_a, ph_b] = meters;
    let phases = [
        PhaseMeter { label: "all-gather A", meter: ph_a },
        PhaseMeter { label: "all-gather B", meter: ph_b },
        ph_c,
    ];
    Alg1Output { c_chunk, phases }
}

/// Chunk lengths of a `words`-word block split over `p` members.
fn counts(words: usize, p: usize) -> Vec<usize> {
    (0..p).map(|t| chunk_of_block(words, p, t).len()).collect()
}

/// Run `in_place` and `extracting` on both hosts of `world` (which must
/// be deterministic and traced) and assert the runs are indistinguishable,
/// down to the Chrome trace export.
fn assert_indistinguishable<T, F, G>(label: &str, world: &World, in_place: F, extracting: G)
where
    T: Send + PartialEq + std::fmt::Debug,
    F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
    G: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
{
    let runs = [
        ("run", world.run(|r| poll_now(extracting(r))), world.run(|r| poll_now(in_place(r)))),
        ("run_async", world.run_async(&extracting), world.run_async(&in_place)),
    ];
    for (host, want, got) in &runs {
        let label = format!("{label}, {host}: in place vs extracting");
        assert_same_run(&label, want, got);
        let chrome = |out: &WorldResult<T>| out.tracer().expect("traced world").chrome_json();
        assert!(chrome(want) == chrome(got), "{label}: Chrome JSON exports differ");
    }
}

/// What licenses reading an operand in place: on grids where `A`'s fiber
/// (p3 = 1) or `B`'s (p1 = 1) has one member, Algorithm 1 and its
/// streamed variant are the same run as the programs that copy the block
/// out and all-gather it — values, meters, clocks, memory peaks, event
/// counts, choice log and Chrome export — under a seeded
/// and the canonical schedule, on both hosts. A degenerate all-gather
/// entered with another word count, or not at all, fails here.
#[test]
fn operands_read_in_place_are_indistinguishable_from_the_gather() {
    let dims = MatMulDims::new(13, 7, 11);
    let Inputs { a, b, .. } = Inputs::seeded(dims, [101, 202]);
    for grid in [[4, 2, 1], [1, 3, 1], [2, 1, 1], [1, 2, 2]] {
        let grid = Grid3::from_dims(grid);
        let cfg =
            Alg1Config { dims, grid, kernel: Kernel::Blocked, assembly: Assembly::ReduceScatter };
        for schedule in [Schedule::Seeded(0xA11CE), Schedule::Prefix(vec![])] {
            let world = recorded(grid.size()).with_schedule(schedule.clone()).with_trace(true);
            let label = format!("{:?} under {schedule:?}", grid.dims());
            assert_indistinguishable(
                &format!("alg1 on {label}"),
                &world,
                |rank| {
                    let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
                    Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
                },
                |rank| {
                    let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
                    Box::pin(async move { alg1_extracting(rank, &cfg, 1, &a, &b).await })
                },
            );
            assert_indistinguishable(
                &format!("streamed on {label}"),
                &world,
                |rank| {
                    let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
                    Box::pin(async move {
                        let comm = rank.world_comm();
                        alg1_on_a(rank, &comm, &cfg, 3, &a, &b).await
                    })
                },
                |rank| {
                    let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
                    Box::pin(async move { alg1_extracting(rank, &cfg, 3, &a, &b).await })
                },
            );
        }
    }
}

#[test]
fn engines_agree_on_the_pinned_cannon_summa_and_twofived_workloads() {
    let inputs = Inputs::seeded(MatMulDims::new(24, 12, 18), [101, 202]);
    for plan in [
        AlgPlan::Cannon { q: 3 },
        AlgPlan::Summa { pr: 2, pc: 3 },
        AlgPlan::TwoFiveD { q: 2, c: 2 },
    ] {
        let world = recorded(plan.active()).with_seed(0xA11CE);
        assert_hosts_agree(&format!("{plan}"), &world, plan_program(plan, &inputs));
    }
}

/// One of the frozen benchmark's six sync entry points (`alg1`, …,
/// `carma`), called the way `six_algs_small` calls it, with its output
/// wrapped as the `CShare` that `run_plan_a` of the same plan returns.
type SyncEntry = Box<dyn Fn(&mut Rank, &Matrix, &Matrix) -> CShare + Send + Sync>;

/// The sync entry point that runs `plan` on `dims` with the `Naive` kernel.
fn sync_entry(plan: &AlgPlan, dims: MatMulDims) -> SyncEntry {
    let kernel = Kernel::Naive;
    match *plan {
        AlgPlan::Alg1 { grid } => {
            let grid = Grid3::from_dims(grid);
            let cfg = Alg1Config { dims, grid, kernel, assembly: Assembly::ReduceScatter };
            Box::new(move |r, a, b| CShare::Chunk(Box::new(alg1(r, &cfg, a, b))))
        }
        AlgPlan::Alg1Streamed { grid, slabs } => {
            let grid = Grid3::from_dims(grid);
            Box::new(move |r, a, b| {
                CShare::Chunk(Box::new(alg1_streamed(r, dims, grid, slabs, kernel, a, b)))
            })
        }
        AlgPlan::Cannon { q } => {
            let cfg = CannonConfig { dims, q, kernel };
            Box::new(move |r, a, b| CShare::Block(Some(cannon(r, &cfg, a, b).c_block)))
        }
        AlgPlan::Summa { pr, pc } => {
            let cfg = SummaConfig { dims, pr, pc, kernel };
            Box::new(move |r, a, b| CShare::Block(Some(summa(r, &cfg, a, b).c_block)))
        }
        AlgPlan::TwoFiveD { q, c } => {
            let cfg = TwoFiveDConfig { dims, q, c, kernel };
            Box::new(move |r, a, b| CShare::Block(twofived(r, &cfg, a, b).c_block))
        }
        AlgPlan::Carma { p } => Box::new(move |r, a, b| {
            let comm = r.world_comm();
            let (sa, sb) = carma_shares(p, comm.index(), a, b);
            CShare::Flat(Some(carma(r, &comm, dims, kernel, sa, sb)))
        }),
    }
}

/// What licenses driving the frozen benchmark's sync entry points
/// through the `_on_a` bodies: on the thread host, each of the six runs
/// the same program as `run_plan_a` of its plan on the loop — values (as
/// the executor's `CShare`), meters, clocks, memory peaks, event counts,
/// and the choice log. CARMA's log is exempt: the executor first
/// splits off its active sub-machine, one unmetered collective more.
#[test]
fn benchmark_sync_entry_points_run_the_executors_programs() {
    let dims = MatMulDims::new(24, 12, 18);
    let inputs = Inputs::seeded(dims, [101, 202]);
    for plan in [
        AlgPlan::Alg1 { grid: [2, 3, 2] },
        AlgPlan::Alg1Streamed { grid: [2, 3, 2], slabs: 2 },
        AlgPlan::Cannon { q: 3 },
        AlgPlan::Summa { pr: 2, pc: 3 },
        AlgPlan::TwoFiveD { q: 2, c: 2 },
        AlgPlan::Carma { p: 8 },
    ] {
        let world = recorded(plan.active()).with_seed(0xA11CE);
        let label = format!("{plan}: sync entry point vs run_plan_a");
        let sync_entry = sync_entry(&plan, dims);
        let threads = world.run(|rank| sync_entry(rank, &inputs.a, &inputs.b));
        let event = world.run_async(plan_program(plan.clone(), &inputs));
        if matches!(plan, AlgPlan::Carma { .. }) {
            assert_same_outcome(&label, &threads, &event);
        } else {
            assert_same_run(&label, &threads, &event);
        }
    }
}

/// The six sync entry points at `six_algs_small`'s largest point, 64³ at
/// P = 64, on the world that benchmark builds: unseeded (free-running
/// threads) on the default stack. Each assembled product must equal the
/// `Naive` reference bit for bit. In a debug build this is what catches a
/// default stack too small for the deepest entry point, and a wake-up the
/// free-running host loses at the size the benchmark runs.
#[test]
fn sync_entry_points_run_free_at_p64_on_the_default_stack() {
    let dims = MatMulDims::square(64);
    let inputs = Inputs::seeded(dims, [101, 202]);
    let world = World::new(64, MachineParams::BANDWIDTH_ONLY);
    for plan in [
        AlgPlan::Alg1 { grid: [4, 4, 4] },
        AlgPlan::Alg1Streamed { grid: [4, 4, 4], slabs: 2 },
        AlgPlan::Cannon { q: 8 },
        AlgPlan::Summa { pr: 8, pc: 8 },
        AlgPlan::TwoFiveD { q: 4, c: 4 },
        AlgPlan::Carma { p: 64 },
    ] {
        let sync_entry = sync_entry(&plan, dims);
        let out = world.run(|rank| sync_entry(rank, &inputs.a, &inputs.b));
        assert_eq!(inputs.check(&plan, &out), Ok(()), "{plan}");
    }
}

/// One Theorem 3 regime point of the conformance instance
/// `(96, 24, 12)`: run every algorithm that admits the processor count
/// on both hosts and cross-check all observables. The baselines run in
/// the layout [`plan_for`] gives them wherever it fills all `P` ranks.
fn regime_point(p: usize, seed: u64, label: &str) {
    let dims = MatMulDims::new(96, 24, 12);
    let grid = best_divisible_grid(dims, p)
        .unwrap_or_else(|| panic!("{label}: no divisible factorization of {p}"))
        .grid;
    let inputs = Inputs::seeded(dims, [101, 202]);
    let world = recorded(p).with_seed(seed);

    // Algorithm 1 with the all-to-all assembly ablation, which no plan
    // names.
    let grid3 = Grid3::from_dims(grid);
    let cfg =
        Alg1Config { dims, grid: grid3, kernel: Kernel::Naive, assembly: Assembly::AllToAllSum };
    assert_hosts_agree(&format!("{label}: alg1/all-to-all"), &world, |rank| {
        let (cfg, a, b) = (cfg.clone(), Arc::clone(&inputs.a), Arc::clone(&inputs.b));
        Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
    });

    let baselines = [
        AlgPlan::Summa { pr: 1, pc: 1 },
        AlgPlan::Cannon { q: 1 },
        AlgPlan::TwoFiveD { q: 1, c: 1 },
        AlgPlan::Carma { p: 1 },
    ]
    .map(|alg| plan_for(&alg, dims, p));
    let alg1 = [AlgPlan::Alg1 { grid }, AlgPlan::Alg1Streamed { grid, slabs: 2 }];
    for plan in alg1.into_iter().chain(baselines.into_iter().filter(|plan| plan.active() == p)) {
        assert_hosts_agree(&format!("{label}: {plan}"), &world, plan_program(plan, &inputs));
    }
}

#[test]
fn engines_agree_across_the_1d_regime() {
    // P = 2 < m/n = 4: strictly inside the 1D case.
    regime_point(2, 0xA11CE, "1D interior P=2");
}

#[test]
fn engines_agree_across_the_2d_regime() {
    // m/n = 4 < P = 8 < mn/k² = 16: strictly inside the 2D case.
    regime_point(8, 0xA11CE, "2D interior P=8");
}

#[test]
fn engines_agree_across_the_3d_regime() {
    // P = 64 > mn/k² = 16: strictly inside the 3D case.
    regime_point(64, 0xA11CE, "3D interior P=64");
}

#[test]
fn engines_agree_with_a_fault_plan_armed() {
    // Message faults are decided by hashing (fault seed, channel, seq,
    // attempt) — never by host or arrival order — so an armed plan
    // must leave the two hosts bit-identical, including the retry
    // (waste) counters.
    let dims = MatMulDims::new(24, 12, 18);
    let cfg = Alg1Config {
        dims,
        grid: Grid3::new(2, 3, 2),
        kernel: Kernel::Naive,
        assembly: Assembly::ReduceScatter,
    };
    let plan = FaultPlan::none()
        .with_seed(0x5EED_FA17)
        .with_drop(0.10)
        .with_duplicate(0.05)
        .with_delay(0.05);
    let world = recorded(12).with_seed(0xA11CE).with_faults(plan);
    let Inputs { a, b, .. } = Inputs::seeded(dims, [101, 202]);
    let out = assert_hosts_agree("alg1 with faults", &world, |rank| {
        let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
        Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await.c_chunk })
    });
    let retries: u64 = out.reports.iter().map(|r| r.meter.retry_overhead_words()).sum();
    assert!(retries > 0, "a 10% drop rate must force at least one retransmission");
}

#[test]
fn engines_agree_on_checkpointed_recovery_under_a_multi_fault_plan() {
    // The full robustness stack on one pinned (program, seed, plan)
    // triple: checkpoint ring, a direct kill, a cascading kill armed on
    // the first death, a healing partition, a straggler storm, and
    // background message faults. Every per-rank Result (typed
    // RankFailed on the casualties, full Recovered on the survivors),
    // every meter, clock, and the rendered choice log must be
    // byte-identical across hosts.
    let dims = MatMulDims::new(24, 24, 24);
    let plan = FaultPlan::none()
        .with_seed(0xFA17)
        .with_drop(0.06)
        .with_duplicate(0.02)
        .with_kill(4, 6)
        .with_cascade(7, 1)
        .with_partition(vec![0, 1], 5..20, 2)
        .with_storm(0.3, 2.0);
    let world = recorded(9).with_seed(0xA11CE).with_faults(plan);
    let Inputs { a, b, .. } = Inputs::seeded(dims, [101, 202]);
    let out = assert_hosts_agree("recovery multi-fault", &world, |rank| {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        Box::pin(async move {
            let alg1 = AlgPlan::Alg1 { grid: [1, 1, 1] };
            run_recoverable_a(rank, &alg1, dims, Kernel::Naive, &a, &b).await
        })
    });
    assert!(out.values[4].is_err() && out.values[7].is_err(), "both casualties report failure");
    let ok = out.values[0].as_ref().expect("rank 0 survives");
    assert_eq!(ok.survivors, vec![0, 1, 2, 3, 5, 6, 8]);
    assert!(ok.attempts() >= 2, "the kills force at least one re-plan");
    let retries: u64 = out.reports.iter().map(|r| r.meter.retry_overhead_words()).sum();
    assert!(retries > 0, "the partition and drops must force retransmissions");
}

#[test]
fn hosts_agree_on_a_kill_caught_and_rallied_from() {
    // Rank 2 dies entering its second exchange of a 4-rank ring, caught
    // with `catch_failures_async!` (`catch_fault_panics`). Survivors are
    // kicked out of the ring, rally at the barrier, rebuild a
    // communicator over themselves and finish a second ring on it.
    let plan = FaultPlan::none().with_seed(9).with_kill(2, 2);
    let world = recorded(4).with_seed(0xA11CE).with_faults(plan);
    let out = assert_hosts_agree("caught kill", &world, |rank| {
        Box::pin(async move {
            let wc = rank.world_comm();
            let (me, n) = (wc.index(), wc.size());
            let first = pmm::simnet::catch_failures_async!(rank, async {
                let mut sum = 0.0;
                for i in 0..3 {
                    let payload = [i as f64; 4];
                    sum += rank
                        .exchange_a(&wc, (me + 1) % n, (me + n - 1) % n, &payload)
                        .await
                        .payload[0];
                }
                sum
            });
            if first.as_ref().is_err_and(|f| f.rank == me) {
                return (first.map_err(|f| f.rank), Vec::new());
            }
            rank.hard_sync_a().await;
            let survivors = rank.recovery_split_a(0).await;
            let (i, k) = (survivors.index(), survivors.size());
            let m = rank.exchange_a(&survivors, (i + 1) % k, (i + k - 1) % k, &[me as f64]).await;
            (first.map_err(|f| f.rank), m.payload)
        })
    });
    assert_eq!(out.values[2], (Err(2), Vec::new()), "the victim reports its own death");
    for r in [0, 1, 3] {
        assert_eq!(out.values[r].0, Err(2), "rank {r} observes the death of rank 2");
    }
    let ring: Vec<f64> = [0, 1, 3].iter().map(|&r| out.values[r].1[0]).collect();
    assert_eq!(ring, vec![3.0, 0.0, 1.0], "the survivors' ring skips the corpse");
}

/// A 3-rank ring whose rank 1 is killed and nobody catches it.
fn uncaught_kill_ring(rank: &mut Rank) -> LocalBoxFuture<'_, f64> {
    Box::pin(async move {
        let wc = rank.world_comm();
        let me = rank.world_rank();
        rank.exchange_a(&wc, (me + 1) % 3, (me + 2) % 3, &[1.0]).await.payload[0]
    })
}

#[test]
fn hosts_agree_on_an_uncaught_kill_report() {
    // Same seed, same scheduler, same primitives: the thread host panics
    // with the loop's failure report, byte for byte.
    let world = World::new(3, MachineParams::BANDWIDTH_ONLY)
        .with_seed(7)
        .with_faults(FaultPlan::none().with_kill(1, 1));
    let event = world.try_run_async(uncaught_kill_ring).expect_err("uncaught kill fails the run");
    let threads = std::panic::catch_unwind(|| world.run(|rank| poll_now(uncaught_kill_ring(rank))))
        .expect_err("uncaught kill fails the thread-hosted run");
    let threads = threads.downcast_ref::<String>().expect("the report is a String");
    assert!(event.report.contains("kill=1@1"), "{event}");
    assert_eq!(*threads, event.to_string(), "the hosts report the uncaught kill differently");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Cross-host invariance as a property: arbitrary schedule seeds x
    // arbitrary armed fault mixes on a messaging-heavy 4-rank exchange
    // ring. Both hosts must agree on every payload, every goodput
    // counter, every retry counter, and the simulated clock.
    #[test]
    fn engines_agree_under_random_seeds_and_faults(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        drop in 0.0f64..0.30,
        dup in 0.0f64..0.15,
        delay in 0.0f64..0.15,
        rounds in 1usize..6,
    ) {
        let mut plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_drop(drop)
            .with_duplicate(dup)
            .with_delay(delay);
        plan.max_retries = 64;
        let world = recorded(4)
            .with_seed(seed)
            .with_faults(plan);
        assert_hosts_agree(
            &format!("ring seed {seed} faults {fault_seed}"),
            &world,
            move |rank| {
                Box::pin(async move {
                    let comm = rank.world_comm();
                    let me = rank.world_rank();
                    let n = comm.size();
                    let mut acc = vec![me as f64];
                    for round in 0..rounds {
                        let to = (me + 1) % n;
                        let from = (me + n - 1) % n;
                        let msg = rank
                            .exchange_a(&comm, to, from, &[acc[round] + 1.0])
                            .await;
                        acc.push(msg.payload[0]);
                    }
                    acc
                })
            },
        );
    }
}

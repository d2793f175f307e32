//! Host-differential suite: a thread-hosted `World::run` of the sync
//! form of a program vs a loop-hosted `World::run_async` of its `_a`
//! form.
//!
//! Every primitive has one implementation and both hosts drive the one
//! deterministic scheduler, so the two runs must be *observationally
//! identical*: same values, same meters, same simulated clocks, same
//! memory peaks, same happens-before event counts, and a byte-identical
//! `ScheduleTrace` and `ChoiceLog` for the same `(program, schedule)`
//! pair. This suite pins that on
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
//! * kills, caught (`catch_failures` vs `catch_failures_async!`) and
//!   recovered from (`run_recoverable`).
//!
//! The same comparison, on each host, also holds two *programs* to one
//! run: Algorithm 1 and its streamed variant, which multiply an operand
//! whose fiber has one member where it lies in the global input, against
//! test-local programs that copy it out and all-gather it as before.

use pmm::algs::{fiber_comms_a, PhaseMeter, PhaseProbe};
use pmm::collectives::{all_gather_v_a, reduce_scatter_v_a};
use pmm::dense::{block_range, chunk_of_block, gemm_acc, Block2};
use pmm::prelude::*;
use pmm::simnet::phase;
use proptest::prelude::*;
use std::sync::Arc;

/// The global inputs of a run, generated once and shared by every rank
/// of both hosts' worlds.
fn inputs(dims: MatMulDims) -> Arc<(Matrix, Matrix)> {
    Arc::new((
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 101),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 202),
    ))
}

/// Assert every observable artifact of two runs matches — a thread-hosted
/// and a loop-hosted run of one program, or two programs that must be
/// indistinguishable: values, per-rank meters/clocks/memory/event counts,
/// the rendered + event-level schedule trace, and the whole `ChoiceLog`.
fn assert_same_run<T>(label: &str, x: &WorldResult<T>, y: &WorldResult<T>)
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
    let (t, e) = (
        x.schedule_trace.as_ref().expect("deterministic runs record a trace"),
        y.schedule_trace.as_ref().expect("deterministic runs record a trace"),
    );
    assert_eq!(t.render(), e.render(), "{label}: schedule traces are not byte-identical");
    t.assert_matches(e);
    // Chosen ranks, footprints and every runnable-set transition.
    assert!(x.choice_points.is_some(), "{label}: deterministic runs record a choice log");
    assert!(x.choice_points == y.choice_points, "{label}: choice logs diverge");
}

/// Run `program` on both hosts and assert the runs are the same;
/// returns the loop-hosted result for further checks. The sync form of
/// every primitive, collective and algorithm is `poll_now(its _a form)`,
/// so polling the async program once on a thread host *is* running its
/// sync form (the cases below that spell a sync form out are the ones
/// where it is written differently).
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
    let ab = inputs(dims);
    for seed in [0xA11CE_u64, 0xC1EA4, 0, 5] {
        let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(seed);
        // Compare the chunk bits *and* the per-phase meters.
        let view = |out: Alg1Output| -> (Vec<f64>, Vec<(String, Meter)>) {
            let phases = out.phases.iter().map(|ph| (ph.label.to_string(), ph.meter)).collect();
            (out.c_chunk, phases)
        };
        let threads = world.run(|rank| view(alg1(rank, &cfg, &ab.0, &ab.1)));
        let out = world.run_async(|rank| {
            let cfg = cfg.clone();
            let ab = Arc::clone(&ab);
            Box::pin(async move {
                let (a, b) = &*ab;
                view(alg1_a(rank, &cfg, a, b).await)
            })
        });
        assert_same_run(&format!("alg1 seed {seed}"), &threads, &out);
        assert!(
            out.schedule_trace.expect("seeded run records a trace").events.len() > 12,
            "seed {seed}: a 12-rank Algorithm 1 run schedules real events"
        );
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
    let ab = inputs(dims);
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE);
    let per_rank = world.run(|rank| {
        let (a, b) = (ab.0.clone(), ab.1.clone());
        alg1(rank, &cfg, &a, &b)
    });
    let shared = world.run_async(|rank| {
        let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
        Box::pin(async move { alg1_a(rank, &cfg, &ab.0, &ab.1).await })
    });
    assert_same_run("alg1, shared vs per-rank inputs", &per_rank, &shared);
    assert_eq!(Arc::strong_count(&ab), 1, "the shared run holds no copy past its end");
}

/// Algorithm 1 the way it ran before operands were read in place (the
/// frozen ladder's rung-5 program, with the library's phase scopes):
/// every rank copies its share of both blocks out of the global inputs
/// and all-gathers it — over a one-member fiber too.
async fn alg1_extracting(rank: &mut Rank, cfg: &Alg1Config, a: &Matrix, b: &Matrix) -> Alg1Output {
    let [p1, p2, p3] = cfg.grid.dims();
    let coord = cfg.grid.coord_of(rank.world_rank());
    let comms = fiber_comms_a(rank, cfg.grid).await;
    let a_blk = Block2::of(a.rows(), a.cols(), p1, p2, coord[0], coord[1]);
    let b_blk = Block2::of(b.rows(), b.cols(), p2, p3, coord[1], coord[2]);
    let (h1, h2, h3) = (a_blk.height(), a_blk.width(), b_blk.width());
    let a_own = a_blk.chunk(a, p3, coord[2]);
    let b_own = b_blk.chunk(b, p1, coord[0]);
    rank.mem_acquire((a_own.len() + b_own.len()) as u64);

    let a_counts = counts(h1 * h2, p3);
    rank.mem_acquire((h1 * h2) as u64);
    let probe = PhaseProbe::begin(rank, "all-gather A");
    let a_flat = all_gather_v_a(rank, &comms[2], a_own, &a_counts, AllGatherAlgo::Auto).await;
    let ph_a = probe.finish(rank);

    let b_counts = counts(h2 * h3, p1);
    rank.mem_acquire((h2 * h3) as u64);
    let probe = PhaseProbe::begin(rank, "all-gather B");
    let b_flat = all_gather_v_a(rank, &comms[0], b_own, &b_counts, AllGatherAlgo::Auto).await;
    let ph_b = probe.finish(rank);

    rank.mem_acquire((h1 * h3) as u64);
    let d = phase!(rank, "local multiply", {
        let (a_block, b_block) =
            (Matrix::from_vec(h1, h2, a_flat), Matrix::from_vec(h2, h3, b_flat));
        let d = gemm(&a_block, &b_block, cfg.kernel);
        rank.compute((h1 * h2 * h3) as f64);
        d
    });
    let probe = PhaseProbe::begin(rank, "reduce-scatter C");
    let c_counts = counts(h1 * h3, p2);
    let c_chunk =
        reduce_scatter_v_a(rank, &comms[1], d.into_vec(), &c_counts, ReduceScatterAlgo::Auto).await;
    let ph_c = probe.finish(rank);
    rank.mem_acquire(c_chunk.len() as u64);
    rank.mem_release((h1 * h2 + h2 * h3 + h1 * h3) as u64);
    Alg1Output { c_chunk, phases: [ph_a, ph_b, ph_c] }
}

/// The streamed variant the same way: each slab's shares copied out and
/// all-gathered, over a one-member fiber too.
async fn streamed_extracting(
    rank: &mut Rank,
    dims: MatMulDims,
    grid: Grid3,
    slabs: usize,
    a: &Matrix,
    b: &Matrix,
) -> Alg1Output {
    let [p1, p2, p3] = grid.dims();
    let coord = grid.coord_of(rank.world_rank());
    let comms = fiber_comms_a(rank, grid).await;
    let rows_a = block_range(dims.n1 as usize, p1, coord[0]);
    let inner = block_range(dims.n2 as usize, p2, coord[1]);
    let cols_b = block_range(dims.n3 as usize, p3, coord[2]);
    let mut d = Matrix::zeros(rows_a.len(), cols_b.len());
    rank.mem_acquire(d.words() as u64);
    let (mut ph_a, mut ph_b) = (Meter::default(), Meter::default());
    for s in 0..slabs {
        let slab = block_range(inner.len(), slabs, s);
        if slab.is_empty() {
            continue;
        }
        let slab_inner = inner.start + slab.start..inner.start + slab.end;
        let a_slab = Block2 { rows: rows_a.clone(), cols: slab_inner.clone() };
        let b_slab = Block2 { rows: slab_inner, cols: cols_b.clone() };
        let mut gathered = Vec::new();
        for (blk, global, fiber, label, meter) in [
            (&a_slab, a, &comms[2], "all-gather A (streamed)", &mut ph_a),
            (&b_slab, b, &comms[0], "all-gather B (streamed)", &mut ph_b),
        ] {
            let (p, words) = (fiber.size(), blk.words());
            let mine = blk.chunk(global, p, fiber.index());
            rank.mem_acquire(words as u64);
            let before = rank.meter();
            let flat = phase!(rank, label, {
                all_gather_v_a(rank, fiber, mine, &counts(words, p), AllGatherAlgo::Auto).await
            });
            let delta = rank.meter().diff(&before);
            meter.words_sent += delta.words_sent;
            meter.words_recv += delta.words_recv;
            meter.msgs_sent += delta.msgs_sent;
            meter.msgs_recv += delta.msgs_recv;
            meter.flops += delta.flops;
            gathered.push(Matrix::from_vec(blk.height(), blk.width(), flat));
        }
        phase!(rank, "local multiply", {
            gemm_acc(&mut d, &gathered[0], &gathered[1], Kernel::Blocked);
            rank.compute((a_slab.words() * cols_b.len()) as f64);
        });
        rank.mem_release((a_slab.words() + b_slab.words()) as u64);
    }
    let c_words = d.words();
    let probe = PhaseProbe::begin(rank, "reduce-scatter C");
    let c_counts = counts(c_words, p2);
    let c_chunk =
        reduce_scatter_v_a(rank, &comms[1], d.into_vec(), &c_counts, ReduceScatterAlgo::Auto).await;
    let ph_c = probe.finish(rank);
    rank.mem_acquire(c_chunk.len() as u64);
    rank.mem_release(c_words as u64);
    let phases = [
        PhaseMeter { label: "all-gather A (streamed)", meter: ph_a },
        PhaseMeter { label: "all-gather B (streamed)", meter: ph_b },
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
/// counts, schedule trace, choice log and Chrome export — under a seeded
/// and the canonical schedule, on both hosts. A degenerate all-gather
/// entered with another word count, or not at all, fails here.
#[test]
fn operands_read_in_place_are_indistinguishable_from_the_gather() {
    let dims = MatMulDims::new(13, 7, 11);
    let ab = inputs(dims);
    for grid in [[4, 2, 1], [1, 3, 1], [2, 1, 1], [1, 2, 2]] {
        let grid = Grid3::from_dims(grid);
        let cfg =
            Alg1Config { dims, grid, kernel: Kernel::Blocked, assembly: Assembly::ReduceScatter };
        for schedule in [Schedule::Seeded(0xA11CE), Schedule::Prefix(vec![])] {
            let world = World::new(grid.size(), MachineParams::BANDWIDTH_ONLY)
                .with_schedule(schedule.clone())
                .with_trace(true);
            let label = format!("{:?} under {schedule:?}", grid.dims());
            assert_indistinguishable(
                &format!("alg1 on {label}"),
                &world,
                |rank| {
                    let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
                    Box::pin(async move { alg1_a(rank, &cfg, &ab.0, &ab.1).await })
                },
                |rank| {
                    let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
                    Box::pin(async move { alg1_extracting(rank, &cfg, &ab.0, &ab.1).await })
                },
            );
            assert_indistinguishable(
                &format!("streamed on {label}"),
                &world,
                |rank| {
                    let ab = Arc::clone(&ab);
                    Box::pin(async move {
                        alg1_streamed_a(rank, dims, grid, 3, Kernel::Blocked, &ab.0, &ab.1).await
                    })
                },
                |rank| {
                    let ab = Arc::clone(&ab);
                    Box::pin(
                        async move { streamed_extracting(rank, dims, grid, 3, &ab.0, &ab.1).await },
                    )
                },
            );
        }
    }
}

#[test]
fn engines_agree_on_the_pinned_cannon_summa_and_twofived_workloads() {
    let dims = MatMulDims::new(24, 12, 18);

    let ccfg = CannonConfig { dims, q: 3, kernel: Kernel::Naive };
    let world = World::new(9, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE);
    let ab = inputs(dims);
    assert_hosts_agree("cannon P=9", &world, |rank| {
        let ccfg = ccfg.clone();
        let ab = Arc::clone(&ab);
        Box::pin(async move {
            let (a, b) = &*ab;
            cannon_a(rank, &ccfg, a, b).await.c_block
        })
    });

    let scfg = SummaConfig { dims, pr: 2, pc: 3, kernel: Kernel::Naive };
    let world = World::new(6, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE);
    assert_hosts_agree("summa P=6", &world, |rank| {
        let scfg = scfg.clone();
        let ab = Arc::clone(&ab);
        Box::pin(async move {
            let (a, b) = &*ab;
            summa_a(rank, &scfg, a, b).await.c_block
        })
    });

    let tcfg = TwoFiveDConfig { dims, q: 2, c: 2, kernel: Kernel::Naive };
    let world = World::new(8, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE);
    assert_hosts_agree("2.5d P=8", &world, |rank| {
        let tcfg = tcfg.clone();
        let ab = Arc::clone(&ab);
        Box::pin(async move {
            let (a, b) = &*ab;
            twofived_a(rank, &tcfg, a, b).await.c_block
        })
    });
}

/// One Theorem 3 regime point of the conformance instance
/// `(96, 24, 12)`: run every algorithm that admits the processor count
/// on both hosts and cross-check all observables.
fn regime_point(p: usize, seed: u64, label: &str) {
    let dims = MatMulDims::new(96, 24, 12);
    let bw = MachineParams::BANDWIDTH_ONLY;
    let choice = best_divisible_grid(dims, p)
        .unwrap_or_else(|| panic!("{label}: no divisible factorization of {p}"));
    let grid = Grid3::from_dims(choice.grid);
    let ab = inputs(dims);

    // Algorithm 1, both assembly strategies.
    for assembly in [Assembly::ReduceScatter, Assembly::AllToAllSum] {
        let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly };
        let world = World::new(p, bw).with_seed(seed);
        assert_hosts_agree(&format!("{label}: alg1/{assembly:?}"), &world, |rank| {
            let cfg = cfg.clone();
            let ab = Arc::clone(&ab);
            Box::pin(async move {
                let (a, b) = &*ab;
                let out = alg1_a(rank, &cfg, a, b).await;
                let phases: Vec<(String, Meter)> =
                    out.phases.iter().map(|ph| (ph.label.to_string(), ph.meter)).collect();
                (out.c_chunk, phases)
            })
        });
    }

    // Streamed Algorithm 1 (double-buffered slabs).
    let world = World::new(p, bw).with_seed(seed);
    assert_hosts_agree(&format!("{label}: alg1/streamed"), &world, |rank| {
        let ab = Arc::clone(&ab);
        Box::pin(async move {
            let (a, b) = &*ab;
            alg1_streamed_a(rank, dims, grid, 2, Kernel::Naive, a, b).await.c_chunk
        })
    });

    // Cannon needs a square process grid.
    let q = (p as f64).sqrt() as usize;
    if q * q == p {
        let ccfg = CannonConfig { dims, q, kernel: Kernel::Naive };
        let world = World::new(p, bw).with_seed(seed);
        assert_hosts_agree(&format!("{label}: cannon"), &world, |rank| {
            let ccfg = ccfg.clone();
            let ab = Arc::clone(&ab);
            Box::pin(async move {
                let (a, b) = &*ab;
                cannon_a(rank, &ccfg, a, b).await.c_block
            })
        });
    }

    // SUMMA on a near-square factorization.
    let (pr, pc) = near_square_factors(p);
    let scfg = SummaConfig { dims, pr, pc, kernel: Kernel::Naive };
    let world = World::new(p, bw).with_seed(seed);
    assert_hosts_agree(&format!("{label}: summa"), &world, |rank| {
        let scfg = scfg.clone();
        let ab = Arc::clone(&ab);
        Box::pin(async move {
            let (a, b) = &*ab;
            summa_a(rank, &scfg, a, b).await.c_block
        })
    });

    // 2.5D wherever q²c = p has a solution with c ≤ q.
    if let Some((q, c)) = [(2usize, 2usize), (4, 1), (4, 4), (2, 1), (8, 1)]
        .into_iter()
        .find(|&(q, c)| q * q * c == p)
    {
        let tcfg = TwoFiveDConfig { dims, q, c, kernel: Kernel::Naive };
        let world = World::new(p, bw).with_seed(seed);
        assert_hosts_agree(&format!("{label}: 2.5d"), &world, |rank| {
            let tcfg = tcfg.clone();
            let ab = Arc::clone(&ab);
            Box::pin(async move {
                let (a, b) = &*ab;
                twofived_a(rank, &tcfg, a, b).await.c_block
            })
        });
    }

    // CARMA on power-of-two processor counts.
    if p.is_power_of_two() {
        let world = World::new(p, bw).with_seed(seed);
        assert_hosts_agree(&format!("{label}: carma"), &world, |rank| {
            let ab = Arc::clone(&ab);
            Box::pin(async move {
                let (a, b) = &*ab;
                let (sa, sb) = carma_shares(p, rank.world_rank(), a, b);
                let comm = rank.world_comm();
                carma_a(rank, &comm, dims, Kernel::Naive, sa, sb).await
            })
        });
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
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE).with_faults(plan);
    let ab = inputs(dims);
    let out = assert_hosts_agree("alg1 with faults", &world, |rank| {
        let cfg = cfg.clone();
        let ab = Arc::clone(&ab);
        Box::pin(async move {
            let (a, b) = &*ab;
            alg1_a(rank, &cfg, a, b).await.c_chunk
        })
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
    // every meter, clock, and the rendered schedule trace must be
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
    let world = World::new(9, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE).with_faults(plan);
    let ab = inputs(dims);
    let out = assert_hosts_agree("recovery multi-fault", &world, |rank| {
        let ab = Arc::clone(&ab);
        Box::pin(async move {
            let (a, b) = &*ab;
            let spec =
                Recoverable::Alg1 { kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
            run_recoverable_a(rank, &spec, dims, a, b).await
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
    // Rank 2 dies entering its second exchange of a 4-rank ring; the
    // sync form catches it with `catch_failures`, the async form with
    // `catch_failures_async!` (`catch_fault_panics`). Survivors are
    // kicked out of the ring, rally at the barrier, rebuild a
    // communicator over themselves and finish a second ring on it.
    let plan = FaultPlan::none().with_seed(9).with_kill(2, 2);
    let world = World::new(4, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE).with_faults(plan);
    let threads = world.run(|rank| {
        let wc = rank.world_comm();
        let (me, n) = (wc.index(), wc.size());
        let first = rank.catch_failures(|rank| {
            (0..3)
                .map(|i| rank.exchange(&wc, (me + 1) % n, (me + n - 1) % n, &[i as f64; 4]))
                .map(|m| m.payload[0])
                .sum::<f64>()
        });
        if first.as_ref().is_err_and(|f| f.rank == me) {
            return (first.map_err(|f| f.rank), Vec::new());
        }
        rank.hard_sync();
        let survivors = rank.recovery_split(0);
        let (i, k) = (survivors.index(), survivors.size());
        let m = rank.exchange(&survivors, (i + 1) % k, (i + k - 1) % k, &[me as f64]);
        (first.map_err(|f| f.rank), m.payload)
    });
    let out = world.run_async(|rank| {
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
    assert_same_run("caught kill", &threads, &out);
    assert_eq!(out.values[2], (Err(2), Vec::new()), "the victim reports its own death");
    for r in [0, 1, 3] {
        assert_eq!(out.values[r].0, Err(2), "rank {r} observes the death of rank 2");
    }
    let ring: Vec<f64> = [0, 1, 3].iter().map(|&r| out.values[r].1[0]).collect();
    assert_eq!(ring, vec![3.0, 0.0, 1.0], "the survivors' ring skips the corpse");
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
        let world = World::new(4, MachineParams::BANDWIDTH_ONLY)
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

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

use pmm::prelude::*;
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

/// Assert every observable artifact of a thread-hosted and a loop-hosted
/// run matches: values, per-rank meters/clocks/memory/event counts, the
/// rendered + event-level schedule trace, and the whole `ChoiceLog`.
fn assert_same_run<T>(label: &str, threads: &WorldResult<T>, event: &WorldResult<T>)
where
    T: PartialEq + std::fmt::Debug,
{
    assert_eq!(threads.values, event.values, "{label}: per-rank values diverge across hosts");
    assert_eq!(threads.reports.len(), event.reports.len(), "{label}: rank count");
    for (r, (t, e)) in threads.reports.iter().zip(&event.reports).enumerate() {
        assert_eq!(t.meter, e.meter, "{label}: rank {r} meter diverges across hosts");
        assert_eq!(t.time, e.time, "{label}: rank {r} clock diverges across hosts");
        assert_eq!(
            t.peak_mem_words, e.peak_mem_words,
            "{label}: rank {r} memory peak diverges across hosts"
        );
        assert_eq!(
            t.final_stamp, e.final_stamp,
            "{label}: rank {r} happens-before event count diverges across hosts"
        );
    }
    let (t, e) = (
        threads.schedule_trace.as_ref().expect("seeded thread-hosted runs record a trace"),
        event.schedule_trace.as_ref().expect("loop-hosted runs record a trace"),
    );
    assert_eq!(t.render(), e.render(), "{label}: schedule traces are not byte-identical");
    t.assert_matches(e);
    // Chosen ranks, footprints and every runnable-set transition.
    assert!(threads.choice_points.is_some(), "{label}: seeded runs record a choice log");
    assert!(
        threads.choice_points == event.choice_points,
        "{label}: choice logs diverge across hosts"
    );
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

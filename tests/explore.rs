//! Schedule-space exploration gate (`cargo xtask dpor` entry point).
//!
//! Pins the DPOR-lite explorer against a fixed workload matrix:
//!
//! * **Exhaustiveness certificates** — for two small collective
//!   workloads the exhaustive walk visits *every* interleaving of the
//!   deterministic scheduler and the schedule count is pinned, so any
//!   change to the scheduler's pick-point structure is caught here.
//!   Every certified schedule must also replay from its pick stream
//!   alone to the outcome it was explored with.
//! * **Pruning soundness** — the sleep-set walk must reach exactly the
//!   same set of distinct outcomes as the exhaustive walk, while
//!   visiting fewer schedules.
//! * **Schedule independence of Algorithm 1** — on a budgeted frontier
//!   of a 4-rank grid run, every explored schedule must produce bitwise
//!   identical results/meters and per-phase traffic matching the eq. 3
//!   integer price (`pmm_model::alg1_price`).
//! * **Generator soak** — synthesized valid-and-invalid rank programs
//!   are run against the verifier; the intent oracle tolerates zero
//!   false positives and zero false negatives. `PMM_EXPLORE_PROGRAMS`
//!   scales the batch (CI runs ≥ 1000).
//!
//! Tests print `DPOR: key=value ...` metric lines that `cargo xtask
//! dpor` collects into `BENCH_explore.json`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmm::explore::{
    generate, soak, verdict, world_for, GenOutcome, Intent, ScheduleOutcome, Strategy,
};
use pmm::prelude::*;
use pmm::simnet::{probe_ready_sets, CollectiveOp};
use proptest::prelude::*;

/// Per-CI-run program batch for the generator soak; `cargo xtask dpor`
/// raises it to ≥ 1000.
const DEFAULT_SOAK_PROGRAMS: u64 = 300;

/// `default` when `name` is unset; a value that is set but does not
/// parse fails naming it (a typo must not quietly run the default soak).
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).map_or(default, |s| {
        s.trim().parse().unwrap_or_else(|_| panic!("{name}={s:?} is not a non-negative integer"))
    })
}

/// A stable digest of one explored schedule's outcome: per-rank values,
/// traffic meters, clocks, and memory peaks (or the failure report).
fn fingerprint<T: std::fmt::Debug>(outcome: ScheduleOutcome<'_, T>) -> String {
    match outcome {
        Ok(out) => {
            let reports: Vec<String> = out
                .reports
                .iter()
                .map(|r| format!("{:?}|{}|{}", r.meter, r.time, r.peak_mem_words))
                .collect();
            format!("ok values={:?} reports={reports:?}", out.values)
        }
        Err(fail) => format!("err {}", fail.report),
    }
}

/// Explore with both strategies, asserting the sleep-set walk covers
/// exactly the distinct outcomes of the exhaustive one. Returns the two
/// reports.
fn certify<T, F>(label: &str, world: &World, program: F) -> (ExploreReport, ExploreReport)
where
    T: Send + std::fmt::Debug,
    F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync + Copy,
{
    let mut exhaustive_fps = BTreeSet::new();
    let t0 = Instant::now();
    let full = explore_outcomes(world, program, &ExploreConfig::exhaustive(), |_, outcome| {
        exhaustive_fps.insert(fingerprint(outcome));
        Ok(())
    })
    .unwrap_or_else(|f| panic!("{label} exhaustive walk failed: {f}"));
    let full_secs = t0.elapsed().as_secs_f64();
    assert!(full.complete, "{label}: exhaustive walk must drain the frontier");
    assert_eq!(full.pruned, 0, "{label}: exhaustive walk must not prune");
    assert_eq!(full.runs, full.schedules, "{label}: every exhaustive run is a schedule");

    let mut sleep_fps = BTreeSet::new();
    let t1 = Instant::now();
    let pruned = explore_outcomes(world, program, &ExploreConfig::sleep_sets(), |_, outcome| {
        sleep_fps.insert(fingerprint(outcome));
        Ok(())
    })
    .unwrap_or_else(|f| panic!("{label} sleep-set walk failed: {f}"));
    let pruned_secs = t1.elapsed().as_secs_f64();
    assert!(pruned.complete, "{label}: sleep-set walk must drain the frontier");
    assert_eq!(
        sleep_fps, exhaustive_fps,
        "{label}: sleep-set pruning must cover every distinct outcome"
    );
    assert!(
        pruned.schedules <= full.schedules,
        "{label}: pruning may not enlarge the schedule count"
    );

    println!(
        "DPOR: workload={label} strategy=exhaustive schedules={} runs={} pruned=0 \
         complete=true secs={full_secs:.3}",
        full.schedules, full.runs
    );
    println!(
        "DPOR: workload={label} strategy=sleep-sets schedules={} runs={} pruned={} \
         complete=true secs={pruned_secs:.3}",
        pruned.schedules, pruned.runs, pruned.pruned
    );
    (full, pruned)
}

/// Replay every schedule of the exhaustive walk from its recorded pick
/// stream alone, as a `PMM_SCHEDULE=prefix:...` recipe would, on a fresh
/// event-loop run. Each replay must reproduce the explored outcome and
/// the same pick stream, and the streams must be pairwise distinct (the
/// certificate counts interleavings, not repeats). Returns the number
/// of schedules replayed.
fn replay_certificate<T, F>(label: &str, world: &World, program: F) -> u64
where
    T: Send + std::fmt::Debug,
    F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync + Copy,
{
    let mut explored: Vec<(Vec<usize>, String)> = Vec::new();
    let full =
        explore_outcomes(world, program, &ExploreConfig::exhaustive(), |choices, outcome| {
            explored.push((choices.to_vec(), fingerprint(outcome)));
            Ok(())
        })
        .unwrap_or_else(|f| panic!("{label} exhaustive walk failed: {f}"));
    assert!(full.complete, "{label}: exhaustive walk must drain the frontier");
    assert_eq!(explored.len() as u64, full.schedules, "{label}: one callback per schedule");

    let distinct: BTreeSet<&[usize]> = explored.iter().map(|(c, _)| c.as_slice()).collect();
    assert_eq!(distinct.len(), explored.len(), "{label}: explored pick streams must be distinct");

    for (choices, want_fp) in &explored {
        let replay = world
            .clone()
            .with_schedule(Schedule::Prefix(choices.clone()))
            .with_schedule_recording(true)
            .try_run_async(program);
        assert_eq!(
            fingerprint(replay.as_ref()),
            *want_fp,
            "{label}: replay of {choices:?} diverged from the explored run"
        );
        let log = match &replay {
            Ok(out) => out.choice_points.as_ref(),
            Err(fail) => fail.choice_points.as_ref(),
        }
        .expect("scheduled runs record their picks");
        assert_eq!(log.chosen(), &choices[..], "{label}: replay left its recorded pick stream");
    }
    full.schedules
}

/// The gather3 workload: ranks 1 and 2 send to rank 0, which sums.
fn gather3(rank: &mut Rank) -> LocalBoxFuture<'_, f64> {
    Box::pin(async move {
        let comm = rank.world_comm();
        let me = rank.world_rank();
        if me == 0 {
            let mut sum = 0.0;
            for from in 1..comm.size() {
                sum += rank.recv_a(&comm, from).await.payload[0];
            }
            sum
        } else {
            rank.send_a(&comm, 0, &[me as f64]).await;
            0.0
        }
    })
}

/// The barrier4 workload: a registered barrier collective followed by
/// the barrier itself.
fn barrier4(rank: &mut Rank) -> LocalBoxFuture<'_, usize> {
    Box::pin(async move {
        let comm = rank.world_comm();
        rank.collective_begin_a(&comm, CollectiveOp::Barrier, 0).await;
        rank.hard_sync_a().await;
        rank.world_rank()
    })
}

/// A 3-rank exchange ring.
fn ring3(rank: &mut Rank) -> LocalBoxFuture<'_, f64> {
    Box::pin(async move {
        let comm = rank.world_comm();
        let me = rank.world_rank();
        let n = comm.size();
        let msg = rank.exchange_a(&comm, (me + 1) % n, (me + n - 1) % n, &[me as f64]).await;
        msg.payload[0]
    })
}

/// A rank that only reaches the world barrier.
fn hard_sync_only(rank: &mut Rank) -> LocalBoxFuture<'_, usize> {
    Box::pin(async move {
        rank.hard_sync_a().await;
        rank.world_rank()
    })
}

#[test]
fn exhaustive_certificate_pins_the_gather3_schedule_space() {
    let world = World::new(3, MachineParams::BANDWIDTH_ONLY);
    let (full, pruned) = certify("gather3", &world, gather3);
    // The certificate: a 3-rank root gather has exactly 72 maximal
    // interleavings under the cooperative scheduler's pick points.
    assert_eq!(full.schedules, 72, "gather3 interleaving certificate drifted");
    assert!(pruned.pruned > 0, "gather3 must give sleep sets something to prune");
}

#[test]
fn exhaustive_certificate_pins_the_barrier4_schedule_space() {
    // The pinned 4-rank collective workload of `cargo xtask dpor`.
    let world = World::new(4, MachineParams::BANDWIDTH_ONLY);
    let (full, pruned) = certify("barrier4", &world, barrier4);
    // The certificate: all 15120 interleavings explored, every one
    // bitwise equivalent (the fingerprint sets collapse to size 1 via
    // `certify`'s cross-check, and the counts below pin the space).
    assert_eq!(full.schedules, 15120, "barrier4 interleaving certificate drifted");
    assert!(
        pruned.schedules < full.schedules / 10,
        "sleep sets should prune the barrier4 space by at least 10x \
         (got {} of {})",
        pruned.schedules,
        full.schedules
    );
}

#[test]
fn event_loop_reproduces_the_gather3_certificate() {
    // Every one of the 72 certified interleavings is its own repro: a
    // fresh run from its pick stream lands on the explored outcome.
    let world = World::new(3, MachineParams::BANDWIDTH_ONLY);
    let replayed = replay_certificate("gather3/replay", &world, gather3);
    assert_eq!(replayed, 72, "gather3 certificate drifted under replay");
}

#[test]
fn event_loop_reproduces_the_barrier4_certificate() {
    // All 15120 barrier4 interleavings, each replayed from its recorded
    // pick stream as a resumable continuation on the event loop.
    let world = World::new(4, MachineParams::BANDWIDTH_ONLY);
    let replayed = replay_certificate("barrier4/replay", &world, barrier4);
    assert_eq!(replayed, 15120, "barrier4 certificate drifted under replay");
}

#[test]
fn alg1_traffic_matches_eq3_on_every_explored_schedule() {
    // A real Algorithm 1 run on a 4-rank [2,2,1] grid, explored on a
    // budgeted frontier: every schedule must reproduce the same values
    // and meters, and every rank's per-phase traffic must be its integer
    // price, `pmm_model::alg1_price`.
    let dims = MatMulDims::new(4, 4, 2);
    let grid = [2usize, 2, 1];
    let p = 4usize;
    let cfg = Alg1Config {
        dims,
        grid: Grid3::from_dims(grid),
        kernel: Kernel::Naive,
        assembly: Assembly::ReduceScatter,
    };
    let world = World::new(p, MachineParams::BANDWIDTH_ONLY);
    let budget = Duration::from_secs(env_u64("PMM_EXPLORE_BUDGET_SECS", 60).max(10) / 2);
    let ab = Arc::new((
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 11),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 22),
    ));
    let t0 = Instant::now();
    let report = explore_checked(
        &world,
        |rank| {
            let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
            Box::pin(async move {
                let out = alg1_a(rank, &cfg, &ab.0, &ab.1).await;
                // Digest: C chunk bits + per-phase traffic (bitwise
                // comparable across schedules).
                let c_bits: Vec<u64> = out.c_chunk.iter().map(|x| x.to_bits()).collect();
                (c_bits, out.traffic())
            })
        },
        &ExploreConfig::budgeted(48, budget),
        |out| {
            for (r, (_, traffic)) in out.values.iter().enumerate() {
                let price = alg1_price(dims, grid, 1, r);
                if *traffic != price {
                    return Err(format!("rank {r} traffic {traffic:?} vs its price {price:?}"));
                }
            }
            Ok(())
        },
    )
    .unwrap_or_else(|f| panic!("alg1 exploration failed: {f}"));
    assert!(report.schedules >= 1);
    assert!(
        report.complete || report.schedules == 48,
        "budgeted walk stops at the cap or drains: {report:?}"
    );
    println!(
        "DPOR: workload=alg1-2x2x1 strategy=budgeted schedules={} runs={} pruned={} \
         complete={} secs={:.3}",
        report.schedules,
        report.runs,
        report.pruned,
        report.complete,
        t0.elapsed().as_secs_f64()
    );
}

#[test]
fn budget_caps_the_frontier_sweep() {
    let world = World::new(4, MachineParams::BANDWIDTH_ONLY);
    let report = explore(
        &world,
        hard_sync_only,
        &ExploreConfig {
            strategy: Strategy::Exhaustive,
            max_schedules: Some(25),
            wall_clock: None,
        },
    )
    .expect("capped walk must not fail");
    assert_eq!(report.schedules, 25, "the schedule budget is a hard cap");
    assert!(!report.complete, "a capped walk must not claim completeness");
    assert!(report.frontier > 0, "a capped walk must report the abandoned frontier");
}

#[test]
fn a_failing_schedule_names_its_choice_prefix() {
    let world = World::new(2, MachineParams::BANDWIDTH_ONLY);
    let mut seen = 0u64;
    let failure = explore_outcomes(&world, hard_sync_only, &ExploreConfig::exhaustive(), |_, _| {
        seen += 1;
        if seen == 2 {
            Err("synthetic oracle failure".to_string())
        } else {
            Ok(())
        }
    })
    .expect_err("the failing oracle must surface");
    assert!(!failure.prefix.is_empty(), "failure must carry the full choice sequence");
    let shown = failure.to_string();
    assert!(shown.contains("synthetic oracle failure"), "{shown}");
    assert!(shown.contains("PMM_SCHEDULE=prefix:"), "repro must be env-var form: {shown}");
}

#[test]
fn deadlocking_programs_are_explored_not_hung() {
    // Both ranks receive first: every schedule deadlocks. The explorer
    // must still walk the whole (tiny) tree, handing each deadlock to
    // the callback as a captured failure rather than hanging or
    // panicking.
    let world = World::new(2, MachineParams::BANDWIDTH_ONLY);
    let mut outcomes = 0u64;
    let report = explore_outcomes(
        &world,
        |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let peer = 1 - rank.world_rank();
                let got = rank.recv_a(&comm, peer).await.payload[0];
                rank.send_a(&comm, peer, &[got]).await;
            })
        },
        &ExploreConfig::exhaustive(),
        |prefix, outcome| {
            outcomes += 1;
            let fail = outcome.expect_err("mutual recv must deadlock on every schedule");
            if !fail.report.contains("deadlock detected") {
                return Err(format!("prefix {prefix:?}: unexpected failure: {}", fail.report));
            }
            Ok(())
        },
    )
    .expect("deadlock exploration must complete");
    assert!(report.complete);
    assert_eq!(report.schedules, outcomes);
    assert!(outcomes >= 1);
}

#[test]
fn generator_soak_has_zero_false_reports() {
    let programs = env_u64("PMM_EXPLORE_PROGRAMS", DEFAULT_SOAK_PROGRAMS);
    let seed0 = seed_from_env(0xD15C_0000);
    let t0 = Instant::now();
    let stats = soak(seed0, programs).unwrap_or_else(|e| panic!("soak oracle violation: {e}"));
    assert_eq!(stats.programs, programs);
    // The batch must actually exercise every defect class.
    for (class, n) in [
        ("valid", stats.valid),
        ("mismatch", stats.mismatch),
        ("deadlock", stats.deadlock),
        ("disorder", stats.disorder),
        ("undrained", stats.undrained),
    ] {
        assert!(n > 0, "soak batch of {programs} never produced a {class} program");
    }
    println!(
        "DPOR: workload=soak programs={} valid={} mismatch={} deadlock={} disorder={} \
         undrained={} secs={:.3}",
        stats.programs,
        stats.valid,
        stats.mismatch,
        stats.deadlock,
        stats.disorder,
        stats.undrained,
        t0.elapsed().as_secs_f64()
    );
}

#[test]
fn pmm_schedule_prefix_replays_on_the_event_loop() {
    // A `PMM_SCHEDULE=prefix:...` recipe (parsed through the same
    // `FromStr` that `schedule_from_env` uses) must replay an explored
    // branch exactly on the event loop: same values, same meters, same
    // recorded choice stream.
    let world = World::new(3, MachineParams::BANDWIDTH_ONLY);
    // Pick one explored schedule and remember its full choice prefix.
    let mut recipe: Option<(Vec<usize>, String)> = None;
    explore_outcomes(&world, ring3, &ExploreConfig::exhaustive(), |prefix, outcome| {
        if recipe.is_none() && !prefix.is_empty() {
            recipe = Some((prefix.to_vec(), fingerprint(outcome)));
        }
        Ok(())
    })
    .expect("exhaustive walk of the 3-rank exchange must succeed");
    let (prefix, want_fp) = recipe.expect("at least one schedule has a non-empty prefix");

    // Round-trip the prefix through the PMM_SCHEDULE string form.
    let env_value = format!("{}", Schedule::Prefix(prefix.clone()));
    let parsed: Schedule = env_value.parse().expect("rendered schedule must parse back");
    assert_eq!(parsed, Schedule::Prefix(prefix.clone()), "PMM_SCHEDULE round-trip");

    let replay = world
        .clone()
        .with_schedule(parsed)
        .with_schedule_recording(true)
        .try_run_async(ring3)
        .expect("prefix replay must succeed");
    assert_eq!(fingerprint(Ok(&replay)), want_fp, "prefix replay diverged from the explored run");
    let log = replay.choice_points.expect("deterministic run records picks");
    assert_eq!(
        log.chosen()[..prefix.len()],
        prefix[..],
        "the replayed pick stream must start with the prefix"
    );
}

#[test]
fn explorer_cross_checks_generated_programs() {
    // Close the loop between the generator and the explorer: for
    // fault-free generated programs on small worlds, sweep a budgeted
    // frontier of schedules and hold the verifier to the intent oracle
    // on *every* explored schedule, not just the seeded one.
    let mut checked_valid = 0u32;
    let mut checked_defective = 0u32;
    let mut seed = 0x5EED_BA5E_u64;
    while checked_valid < 2 || checked_defective < 3 {
        seed = seed.wrapping_add(1);
        let prog = Arc::new(generate(seed));
        if prog.world_size > 4 || prog.faults.is_some() {
            continue;
        }
        let wants_valid = prog.intent == Intent::Valid;
        if wants_valid && checked_valid >= 2 {
            continue;
        }
        if !wants_valid && checked_defective >= 3 {
            continue;
        }
        let world = world_for(&prog);
        let cfg = ExploreConfig::budgeted(20, Duration::from_secs(20));
        let report = explore_outcomes(
            &world,
            |rank| {
                let prog = Arc::clone(&prog);
                Box::pin(async move { pmm::explore::interpret(&prog, rank).await })
            },
            &cfg,
            |prefix, outcome| {
                let gen_outcome = GenOutcome {
                    flagged: match outcome {
                        Ok(_) => None,
                        Err(fail) => Some(fail.report.clone()),
                    },
                };
                verdict(&prog, &gen_outcome).map_err(|e| {
                    format!("generated seed {seed} at schedule prefix {prefix:?}: {e}")
                })
            },
        )
        .unwrap_or_else(|f| panic!("exploring generated program seed {seed} failed: {f}"));
        assert!(report.schedules >= 1);
        if wants_valid {
            checked_valid += 1;
        } else {
            checked_defective += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// The delta-encoded choice log against the scheduler's live runnable set
// ---------------------------------------------------------------------------

/// Run `prog` on `world` with the runnable-set probe armed and hold the
/// recorded `ChoiceLog` to it: the iterator must rebuild, pick by pick,
/// exactly the sets the scheduler held, and `ready_at` must agree with
/// the iterator. Returns the log, whether the run succeeded or failed.
fn assert_log_matches_probe(
    label: &str,
    world: &World,
    prog: &pmm::explore::GenProgram,
) -> ChoiceLog {
    let (outcome, probed) = probe_ready_sets(|| {
        world.try_run_async(|rank| {
            let prog = prog.clone();
            Box::pin(async move { pmm::explore::interpret(&prog, rank).await })
        })
    });
    let log = match outcome {
        Ok(out) => out.choice_points,
        Err(failure) => failure.choice_points,
    }
    .expect("scheduled runs record their picks");
    assert_eq!(log.len(), probed.len(), "{label}: one probed set per recorded pick");
    assert_eq!(log.iter().count(), log.len(), "{label}: the iterator yields every pick");
    for (i, (cp, want)) in log.iter().zip(&probed).enumerate() {
        assert_eq!(&cp.ready, want, "{label}: runnable set at pick {i}");
        assert_eq!(log.ready_at(i), cp.ready, "{label}: ready_at({i}) vs the iterator");
        assert_eq!(cp.chosen, log.chosen()[i], "{label}: pick {i}");
        assert_eq!(cp.touched, log.touched(i), "{label}: footprint of pick {i}");
        assert!(cp.ready.contains(&cp.chosen), "{label}: pick {i} chose a blocked rank: {cp:?}");
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Synthesized programs (valid and defective, so some runs end in a
    // deadlock or a verifier abort) x seeded and prefix schedules x
    // fault plans: none, or a kill plus a healing partition — the kill
    // retires a runnable rank (`mark_done`) and its death re-readies
    // every blocked rank (`unblock_all`).
    #[test]
    fn choice_log_rebuilds_the_runnable_set_of_every_pick(
        prog_seed in 0u64..1_000_000,
        sched_seed in 0u64..1_000_000,
        faulty in 0u8..2,
        victim in 0usize..6,
        kill_at in 1u64..6,
        prefix_quarters in 0usize..5,
    ) {
        let prog = generate(prog_seed);
        let mut world = world_for(&prog).with_seed(sched_seed).with_schedule_recording(true);
        if faulty == 1 {
            let plan = FaultPlan::none()
                .with_seed(prog_seed)
                .with_kill(victim % prog.world_size, kill_at)
                .with_partition(vec![0], 0..2, 2);
            world = world.with_strict_drain(false).with_faults(plan);
        }
        let label = format!(
            "program {prog_seed} ({:?}, P = {}), schedule seed {sched_seed}, \
             faulty {faulty} (kill {victim}@{kill_at})",
            prog.intent, prog.world_size
        );
        let seeded = assert_log_matches_probe(&label, &world, &prog);

        // Replay a prefix of that run and complete it canonically.
        let cut = seeded.len() * prefix_quarters / 4;
        let prefix = seeded.chosen()[..cut].to_vec();
        let replay = world.with_schedule(Schedule::Prefix(prefix.clone()));
        let replayed = assert_log_matches_probe(&format!("{label}, prefix {cut}"), &replay, &prog);
        prop_assert_eq!(&replayed.chosen()[..cut], &prefix[..], "{}: the replay left its prefix", label);
        for i in 0..cut {
            prop_assert_eq!(replayed.touched(i), seeded.touched(i), "{}: footprint {}", label, i);
        }
    }
}

//! Generative rank-program synthesis with an intent oracle.
//!
//! A seeded generator assembles random rank programs from a small AST of
//! communication patterns — collective sequences, communicator splits,
//! point-to-point shifts and exchanges, optional fault plans — and labels
//! each program with an [`Intent`]: either `Valid` (the program is
//! well-formed and must pass every check) or one of four deliberately
//! injected defect classes the verifier is expected to flag. Running the
//! program and comparing the verifier's verdict against the intent gives
//! an end-to-end oracle for the static checks:
//!
//! * a **false positive** is a `Valid` program that gets flagged;
//! * a **false negative** is a defective program that runs clean;
//! * a **misclassification** is a defective program flagged with a
//!   report that does not describe the injected defect.
//!
//! [`soak`] runs a batch of generated programs and fails on the first of
//! any of the three, printing the generator seed so the exact program can
//! be replayed. The defect classes:
//!
//! | intent | injection | expected report |
//! |---|---|---|
//! | [`Intent::CollectiveMismatch`] | one member registers a different op (or element count on a uniform-count op) | `collective mismatch` |
//! | [`Intent::Deadlock`] | a gather whose root waits on a member that never sends | `deadlock detected` |
//! | [`Intent::SplitDisorder`] | one member reorders a collective against a `split` on the same communicator | `collective mismatch` |
//! | [`Intent::UndrainedTraffic`] | a message sent that no one receives, under strict drain | `undrained` / conservation |

use pmm_simnet::{CollectiveOp, Comm, FaultPlan, MachineParams, Rank, Schedule, World};

/// What a generated program is *supposed* to do — the oracle label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Well-formed: must complete with no verifier report on every
    /// schedule (results and meters schedule-independent).
    Valid,
    /// One member registers a mismatched collective (different op kind,
    /// or different element count on a count-uniform op).
    CollectiveMismatch,
    /// A gather root waits forever on a member that skips its send.
    Deadlock,
    /// One member issues a collective and a `split` on the same
    /// communicator in the opposite order from the others.
    SplitDisorder,
    /// A message is sent that no receiver ever drains (the program runs
    /// under strict drain checking).
    UndrainedTraffic,
}

/// One step of a generated rank program. Programs are SPMD: every rank
/// interprets the same step list over its own communicator position.
#[derive(Debug, Clone)]
pub enum GStep {
    /// Local flops.
    Compute(u32),
    /// Every member sends `words` to `(i + 1) % n` and receives from
    /// `(i + n - 1) % n` as one full-duplex exchange. No-op on
    /// communicators smaller than 2.
    RingShift {
        /// Payload size in words.
        words: usize,
    },
    /// Members send `words` to `root`; the root receives from every
    /// other member in index order. `skip_sender: Some(s)` makes member
    /// `s` skip its send — the root then waits forever (the
    /// [`Intent::Deadlock`] injection).
    GatherToRoot {
        /// Receiving member index.
        root: usize,
        /// Payload size in words.
        words: usize,
        /// Member that withholds its contribution, if any.
        skip_sender: Option<usize>,
    },
    /// Members pair up `(0,1)(2,3)…` and exchange `words`; a trailing
    /// odd member sits out.
    PairExchange {
        /// Payload size in words.
        words: usize,
    },
    /// Every member registers `op`/`elems` with the collective-matching
    /// lint — except member `odd_one.0`, which registers its own op and
    /// count (the [`Intent::CollectiveMismatch`] injection when they
    /// differ).
    Register {
        /// Op the members agree on.
        op: CollectiveOp,
        /// Element count the members agree on.
        elems: u64,
        /// `(member index, op, elems)` for the one defector, if any.
        odd_one: Option<(usize, CollectiveOp, u64)>,
    },
    /// World-wide barrier.
    Barrier,
    /// Split the current communicator into evens and odds (by member
    /// index) and interpret `steps` inside the sub-communicator. With
    /// `disorder`, member 0 registers an `AllReduce` on the parent
    /// *before* splitting while everyone else registers it *after* — a
    /// program-order violation the ledger lint must flag (the
    /// [`Intent::SplitDisorder`] injection).
    SplitPhase {
        /// Steps run inside the sub-communicator.
        steps: Vec<GStep>,
        /// Reorder member 0's collective against the split.
        disorder: bool,
    },
    /// The highest-index member sends `words` to member 0; nobody
    /// receives it (the [`Intent::UndrainedTraffic`] injection — only
    /// ever generated as the final step).
    OrphanSend {
        /// Payload size in words.
        words: usize,
    },
}

/// A generated SPMD rank program with its oracle label.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// Generator seed that produced this program (replay key).
    pub seed: u64,
    /// World size the program is built for.
    pub world_size: usize,
    /// Oracle label.
    pub intent: Intent,
    /// Top-level steps, interpreted over the world communicator.
    pub steps: Vec<GStep>,
    /// Message-fault plan to run under, if any (only attached to
    /// `Valid` programs).
    pub faults: Option<FaultPlan>,
}

// Local SplitMix64 so generation is seed-reproducible without depending
// on the fabric's (private) generator.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, bound: u64) -> u64 {
    mix(state) % bound
}

const UNIFORM_OPS: [CollectiveOp; 4] = [
    CollectiveOp::AllReduce,
    CollectiveOp::ReduceScatter,
    CollectiveOp::AllToAll,
    CollectiveOp::Barrier,
];

/// One random well-formed step for a communicator of (at least) `size`
/// members. `depth` limits split nesting.
fn valid_step(s: &mut u64, size: usize, depth: usize) -> GStep {
    let kinds = if depth == 0 && size >= 2 { 7 } else { 6 };
    match pick(s, kinds) {
        0 => GStep::Compute(1 + pick(s, 64) as u32),
        1 => GStep::RingShift { words: 1 + pick(s, 8) as usize },
        2 => GStep::GatherToRoot {
            root: pick(s, size as u64) as usize,
            words: 1 + pick(s, 8) as usize,
            skip_sender: None,
        },
        3 => GStep::PairExchange { words: 1 + pick(s, 8) as usize },
        4 => GStep::Register {
            op: UNIFORM_OPS[pick(s, UNIFORM_OPS.len() as u64) as usize],
            elems: 1 + pick(s, 64),
            odd_one: None,
        },
        5 => GStep::Barrier,
        _ => {
            let inner_size = size / 2; // the smaller half
            let n = 1 + pick(s, 2) as usize;
            let steps = (0..n).map(|_| valid_step(s, inner_size.max(1), depth + 1)).collect();
            GStep::SplitPhase { steps, disorder: false }
        }
    }
}

/// Generate the program for `seed`. Roughly half the programs are
/// `Valid`; the rest carry exactly one injected defect. A third of the
/// valid programs additionally run under a seeded drop/duplicate fault
/// plan (exercising the reliable-delivery layer under generation).
pub fn generate(seed: u64) -> GenProgram {
    let mut state = seed;
    let s = &mut state;
    let world_size = 2 + pick(s, 5) as usize; // 2..=6
    let mut steps: Vec<GStep> = (0..1 + pick(s, 4)).map(|_| valid_step(s, world_size, 0)).collect();

    let intent = match pick(s, 16) {
        0..=7 => Intent::Valid,
        8..=10 => Intent::CollectiveMismatch,
        11..=12 => Intent::Deadlock,
        13 => Intent::SplitDisorder,
        _ => Intent::UndrainedTraffic,
    };

    match intent {
        Intent::Valid => {}
        Intent::CollectiveMismatch => {
            let victim = pick(s, world_size as u64) as usize;
            let elems = 1 + pick(s, 64);
            let odd_one = if pick(s, 2) == 0 {
                // Different op kind.
                (victim, CollectiveOp::AllToAll, elems)
            } else {
                // Same (count-uniform) op, skewed element count.
                (victim, CollectiveOp::AllReduce, elems + 1 + pick(s, 16))
            };
            let at = pick(s, steps.len() as u64 + 1) as usize;
            steps.insert(
                at,
                GStep::Register { op: CollectiveOp::AllReduce, elems, odd_one: Some(odd_one) },
            );
        }
        Intent::Deadlock => {
            let root = pick(s, world_size as u64) as usize;
            let mut skip = pick(s, world_size as u64 - 1) as usize;
            if skip >= root {
                skip += 1; // any member but the root
            }
            let at = pick(s, steps.len() as u64 + 1) as usize;
            steps.insert(
                at,
                GStep::GatherToRoot {
                    root,
                    words: 1 + pick(s, 8) as usize,
                    skip_sender: Some(skip),
                },
            );
        }
        Intent::SplitDisorder => {
            steps.push(GStep::SplitPhase { steps: Vec::new(), disorder: true });
        }
        Intent::UndrainedTraffic => {
            // Must stay last: nothing may receive after it.
            steps.push(GStep::OrphanSend { words: 1 + pick(s, 8) as usize });
        }
    }

    let faults = if intent == Intent::Valid && pick(s, 3) == 0 {
        Some(FaultPlan::none().with_seed(mix(s)).with_drop(0.15).with_duplicate(0.1))
    } else {
        None
    };

    GenProgram { seed, world_size, intent, steps, faults }
}

/// Interpret `steps` over `comm`, returning a checksum of received
/// payloads (so results are comparable across schedules).
fn run_steps(rank: &mut Rank, comm: &Comm, steps: &[GStep]) -> f64 {
    let me = comm.index();
    let n = comm.size();
    let mut acc = 0.0;
    for step in steps {
        match step {
            GStep::Compute(flops) => rank.compute(f64::from(*flops)),
            GStep::RingShift { words } => {
                if n >= 2 {
                    let to = (me + 1) % n;
                    let from = (me + n - 1) % n;
                    let payload = vec![me as f64 + 1.0; *words];
                    acc += rank.exchange(comm, to, from, &payload).payload.iter().sum::<f64>();
                }
            }
            GStep::GatherToRoot { root, words, skip_sender } => {
                let root = root % n;
                if me == root {
                    // The root receives from every member — including a
                    // skipped sender, whose missing message is the
                    // injected deadlock.
                    for from in (0..n).filter(|f| *f != root) {
                        acc += rank.recv(comm, from).payload.iter().sum::<f64>();
                    }
                } else if *skip_sender != Some(me) {
                    rank.send(comm, root, &vec![me as f64 + 1.0; *words]);
                }
            }
            GStep::PairExchange { words } => {
                let partner = if me.is_multiple_of(2) { me + 1 } else { me - 1 };
                if partner < n {
                    let payload = vec![me as f64 + 1.0; *words];
                    acc +=
                        rank.exchange(comm, partner, partner, &payload).payload.iter().sum::<f64>();
                }
            }
            GStep::Register { op, elems, odd_one } => match odd_one {
                Some((victim, vop, velems)) if *victim % n == me => {
                    rank.collective_begin(comm, *vop, *velems);
                }
                _ => rank.collective_begin(comm, *op, *elems),
            },
            GStep::Barrier => rank.hard_sync(),
            GStep::SplitPhase { steps, disorder } => {
                if n < 2 {
                    acc += run_steps(rank, comm, steps);
                    continue;
                }
                if *disorder && me == 0 {
                    rank.collective_begin(comm, CollectiveOp::AllReduce, 8);
                }
                let sub = rank.split(comm, (me % 2) as i64, me as i64);
                if *disorder && me != 0 {
                    rank.collective_begin(comm, CollectiveOp::AllReduce, 8);
                }
                if let Some(sub) = sub {
                    acc += run_steps(rank, &sub, steps);
                }
            }
            GStep::OrphanSend { words } => {
                if n >= 2 && me == n - 1 {
                    rank.send(comm, 0, &vec![1.0; *words]);
                }
            }
        }
    }
    acc
}

/// Run `prog` as an SPMD program on a rank (the entry point handed to
/// [`World::run`] / the explorer).
pub fn interpret(prog: &GenProgram, rank: &mut Rank) -> f64 {
    let world = rank.world_comm();
    run_steps(rank, &world, &prog.steps)
}

/// Build the world a generated program is meant to run under: the
/// deterministic scheduler (seeded from the program seed), strict drain
/// checking (off when a fault plan is attached — retransmission
/// duplicates may legitimately linger), and the program's fault plan.
pub fn world_for(prog: &GenProgram) -> World {
    let mut world = World::new(prog.world_size, MachineParams::BANDWIDTH_ONLY)
        .with_schedule(Schedule::Seeded(prog.seed))
        .with_strict_drain(prog.faults.is_none());
    if let Some(plan) = &prog.faults {
        world = world.with_faults(plan.clone());
    }
    world
}

/// What happened when a generated program ran.
#[derive(Debug, Clone)]
pub struct GenOutcome {
    /// The verifier/runtime report, if the run was flagged.
    pub flagged: Option<String>,
}

/// Execute `prog` once under [`world_for`] and capture whether any check
/// flagged it.
pub fn run_generated(prog: &GenProgram) -> GenOutcome {
    match world_for(prog).try_run(|rank| interpret(prog, rank)) {
        Ok(_) => GenOutcome { flagged: None },
        Err(failure) => GenOutcome { flagged: Some(failure.report) },
    }
}

fn report_matches(intent: Intent, report: &str) -> bool {
    match intent {
        Intent::Valid => false,
        Intent::CollectiveMismatch | Intent::SplitDisorder => {
            report.contains("collective mismatch")
        }
        Intent::Deadlock => report.contains("deadlock detected"),
        Intent::UndrainedTraffic => {
            report.contains("undrained") || report.contains("conservation violated")
        }
    }
}

/// Compare a run outcome against the program's intent: `Err` describes a
/// false positive (valid program flagged), false negative (defective
/// program clean), or misclassification (flagged for the wrong reason).
pub fn verdict(prog: &GenProgram, outcome: &GenOutcome) -> Result<(), String> {
    match (&prog.intent, &outcome.flagged) {
        (Intent::Valid, None) => Ok(()),
        (Intent::Valid, Some(report)) => {
            Err(format!("false positive: valid program flagged:\n{report}"))
        }
        (intent, None) => Err(format!("false negative: {intent:?} program was not flagged")),
        (intent, Some(report)) => {
            if report_matches(*intent, report) {
                Ok(())
            } else {
                Err(format!(
                    "misclassified: {intent:?} program flagged for the wrong reason:\n{report}"
                ))
            }
        }
    }
}

/// Per-intent tallies from a [`soak`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakStats {
    /// Programs executed.
    pub programs: u64,
    /// `Valid` programs (all ran clean).
    pub valid: u64,
    /// `CollectiveMismatch` programs (all flagged correctly).
    pub mismatch: u64,
    /// `Deadlock` programs (all flagged correctly).
    pub deadlock: u64,
    /// `SplitDisorder` programs (all flagged correctly).
    pub disorder: u64,
    /// `UndrainedTraffic` programs (all flagged correctly).
    pub undrained: u64,
}

/// Generate and run `count` programs from consecutive seeds starting at
/// `seed0`, checking every verdict against the intent oracle. Returns
/// tallies, or the first oracle violation (naming the generator seed so
/// `generate(seed)` reproduces the exact program).
pub fn soak(seed0: u64, count: u64) -> Result<SoakStats, String> {
    let mut stats = SoakStats::default();
    for i in 0..count {
        let seed = seed0.wrapping_add(i);
        let prog = generate(seed);
        let outcome = run_generated(&prog);
        verdict(&prog, &outcome).map_err(|e| {
            format!("generated program seed {seed} ({:?}, P={}): {e}", prog.intent, prog.world_size)
        })?;
        stats.programs += 1;
        match prog.intent {
            Intent::Valid => stats.valid += 1,
            Intent::CollectiveMismatch => stats.mismatch += 1,
            Intent::Deadlock => stats.deadlock += 1,
            Intent::SplitDisorder => stats.disorder += 1,
            Intent::UndrainedTraffic => stats.undrained += 1,
        }
    }
    Ok(stats)
}

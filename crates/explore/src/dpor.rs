//! DPOR-lite: depth-first exploration of the deterministic scheduler's
//! choice tree with sleep-set pruning.
//!
//! ## The choice tree
//!
//! A deterministic [`World`] run is fully determined by the sequence of
//! scheduler picks — the [`ChoiceLog`] the fabric records. The
//! schedule space of a program is therefore a tree: each node is a choice
//! prefix (the ranks picked so far), each edge one runnable rank picked
//! next. [`Schedule::Prefix`] replays any prefix exactly and then
//! completes *canonically* (always the smallest runnable rank), so every
//! node of the tree can be visited by an ordinary `World` run — including
//! nodes whose subtree ends in a deadlock or verifier abort, because
//! [`World::try_run_async`] hands back the recorded choice log even when
//! the run fails.
//!
//! ## Pruning
//!
//! Exploring *every* interleaving ([`Strategy::Exhaustive`]) is the
//! certificate mode: the reported schedule count is exactly the number of
//! maximal schedules of the program. For bigger worlds,
//! [`Strategy::SleepSets`] prunes Godefroid-style: when an alternative
//! `t` at a state has been fully explored, `t` goes to sleep in the
//! sibling branches and is woken only by a step whose *resource
//! footprint* overlaps `t`'s — two segments with disjoint footprints
//! commute, so re-exploring `t` before a dependent step would only
//! reproduce an already-explored Mazurkiewicz trace. Footprints come from
//! the fabric's own instrumentation ([`ChoiceLog::touched`]): mailbox
//! posts/pops (including failed emptiness checks), split-cell deposits,
//! barrier arrivals, and collective-ledger registrations.
//!
//! Every explored schedule is handed to a caller-supplied check; the
//! convenience wrappers assert bitwise schedule-independence of results
//! and meters against the first explored schedule. Failures carry the
//! choice prefix in canonical `PMM_SCHEDULE=prefix:...` form.
//!
//! [`World`]: pmm_simnet::World
//! [`World::try_run_async`]: pmm_simnet::World::try_run_async
//! [`Schedule::Prefix`]: pmm_simnet::Schedule

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use pmm_simnet::{
    rank_divergence, ChoiceLog, LocalBoxFuture, Rank, RankReport, Repro, Resource, RunFailure,
    Schedule, World, WorldResult,
};

/// How the explorer walks the choice tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Visit literally every maximal schedule — no pruning. The reported
    /// [`ExploreReport::schedules`] is then an exhaustiveness
    /// certificate: the program has exactly that many interleavings
    /// under the cooperative scheduler.
    Exhaustive,
    /// Sleep-set pruning: skip branches provably equivalent (by resource
    /// footprint commutativity) to an already-explored schedule. Covers
    /// every Mazurkiewicz trace while visiting far fewer schedules.
    SleepSets,
}

/// Exploration limits and strategy.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Walk strategy.
    pub strategy: Strategy,
    /// Stop after this many explored (maximal) schedules, if set.
    pub max_schedules: Option<u64>,
    /// Stop after this much wall-clock time, if set.
    pub wall_clock: Option<Duration>,
}

impl ExploreConfig {
    /// Exhaustive exploration with no budget — certificate mode.
    pub fn exhaustive() -> ExploreConfig {
        ExploreConfig { strategy: Strategy::Exhaustive, max_schedules: None, wall_clock: None }
    }

    /// Sleep-set pruning with no budget.
    pub fn sleep_sets() -> ExploreConfig {
        ExploreConfig { strategy: Strategy::SleepSets, max_schedules: None, wall_clock: None }
    }

    /// Budgeted frontier exploration: sleep-set pruning, stopping at
    /// `max_schedules` schedules or `wall_clock`, whichever first.
    pub fn budgeted(max_schedules: u64, wall_clock: Duration) -> ExploreConfig {
        ExploreConfig {
            strategy: Strategy::SleepSets,
            max_schedules: Some(max_schedules),
            wall_clock: Some(wall_clock),
        }
    }
}

/// What an exploration did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Maximal schedules explored (and checked).
    pub schedules: u64,
    /// World executions performed (≥ `schedules`; redundant suffixes cut
    /// by sleep sets execute but do not count as schedules).
    pub runs: u64,
    /// Redundant suffixes cut by sleep-set pruning.
    pub pruned: u64,
    /// Deepest choice prefix explored.
    pub max_depth: usize,
    /// Whether the frontier was exhausted (`false` means a budget
    /// stopped the walk first). Under [`Strategy::Exhaustive`] with
    /// `complete == true`, `schedules` is the exact interleaving count.
    pub complete: bool,
    /// Nodes still on the frontier when the walk stopped (0 iff
    /// `complete`).
    pub frontier: usize,
}

/// A failing schedule found by exploration: the choice prefix that
/// reaches it (a complete, canonical repro) and what went wrong.
#[derive(Debug)]
pub struct ScheduleFailure {
    /// Choices of the failing run, from the root.
    pub prefix: Vec<usize>,
    /// What failed (check diff, verifier report, rank panic, ...).
    pub detail: String,
}

impl ScheduleFailure {
    /// The canonical replay recipe for the failing schedule.
    pub fn repro(&self) -> Repro {
        Repro::Prefix(self.prefix.clone())
    }
}

impl std::fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule exploration failed: {}\n[{}]", self.detail, self.repro().hint())
    }
}

impl std::error::Error for ScheduleFailure {}

/// The outcome of one explored schedule, as seen by the per-schedule
/// callback of [`explore_outcomes`].
pub type ScheduleOutcome<'a, T> = Result<&'a WorldResult<T>, &'a RunFailure>;

type Footprint = BTreeSet<Resource>;

fn footprint(touched: &[Resource]) -> Footprint {
    touched.iter().copied().collect()
}

fn dependent(a: &Footprint, b: &Footprint) -> bool {
    a.intersection(b).next().is_some()
}

/// A rank put to sleep at some state. Footprints of earlier same-state
/// siblings are not known at push time; they are resolved from the memo
/// (keyed by the sleep state) when the node is popped — the LIFO walk
/// order guarantees the sibling's branch has executed by then.
#[derive(Debug, Clone)]
struct SleepEntry {
    rank: usize,
    fp: Option<Footprint>,
    state: Vec<usize>,
}

#[derive(Debug)]
struct Node {
    prefix: Vec<usize>,
    sleep: Vec<SleepEntry>,
}

/// Explore the schedule space of the async `program` on `world`,
/// invoking `on_schedule` once per explored maximal schedule with the
/// full choice sequence and the run's outcome — a [`WorldResult`] or, for
/// schedules that end in a verifier abort / deadlock / rank panic, the
/// captured [`RunFailure`]. Returning `Err` from the callback stops the
/// walk and surfaces a [`ScheduleFailure`] naming the choice prefix.
/// Every explored schedule is one [`World::run_async`] under a
/// [`Schedule::Prefix`].
///
/// This is the engine; [`explore`] and [`explore_checked`] wrap it with
/// the standard schedule-independence checks. `world` must **not**
/// already carry a schedule — the explorer owns that knob.
///
/// [`World::run_async`]: pmm_simnet::World::run_async
pub fn explore_outcomes<T, F, C>(
    world: &World,
    program: F,
    cfg: &ExploreConfig,
    mut on_schedule: C,
) -> Result<ExploreReport, ScheduleFailure>
where
    T: Send,
    F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
    C: FnMut(&[usize], ScheduleOutcome<'_, T>) -> Result<(), String>,
{
    let started = Instant::now();
    let mut report = ExploreReport {
        schedules: 0,
        runs: 0,
        pruned: 0,
        max_depth: 0,
        complete: true,
        frontier: 0,
    };
    // (state, rank) -> footprint of rank's segment when chosen at state.
    let mut memo: HashMap<(Vec<usize>, usize), Footprint> = HashMap::new();
    let mut stack: Vec<Node> = vec![Node { prefix: Vec::new(), sleep: Vec::new() }];

    while let Some(node) = stack.pop() {
        if cfg.max_schedules.is_some_and(|m| report.schedules >= m)
            || cfg.wall_clock.is_some_and(|w| started.elapsed() >= w)
        {
            report.complete = false;
            report.frontier = stack.len() + 1;
            return Ok(report);
        }

        let schedule = Schedule::Prefix(node.prefix.clone());
        let outcome = world
            .clone()
            .with_schedule(schedule)
            .with_schedule_recording(true)
            .try_run_async(&program);
        report.runs += 1;

        let unrecorded = ChoiceLog::default();
        let log: &ChoiceLog = match &outcome {
            Ok(out) => out.choice_points.as_ref().unwrap_or(&unrecorded),
            Err(fail) => {
                if fail.report.contains("schedule prefix diverged") {
                    return Err(ScheduleFailure {
                        prefix: node.prefix,
                        detail: format!(
                            "prefix replay diverged — the program is schedule-nondeterministic \
                             in its communication structure: {}",
                            fail.report
                        ),
                    });
                }
                fail.choice_points.as_ref().unwrap_or(&unrecorded)
            }
        };
        let choices = log.chosen();
        if choices.len() < node.prefix.len() || choices[..node.prefix.len()] != node.prefix[..] {
            return Err(ScheduleFailure {
                prefix: node.prefix,
                detail: format!(
                    "replayed run did not follow its own prefix (made {} choices) — \
                     schedule-nondeterministic program or explorer bug",
                    choices.len()
                ),
            });
        }
        report.max_depth = report.max_depth.max(choices.len());

        let sleeping = cfg.strategy == Strategy::SleepSets;
        if sleeping {
            for (i, &chosen) in choices.iter().enumerate() {
                memo.entry((choices[..i].to_vec(), chosen))
                    .or_insert_with(|| footprint(log.touched(i)));
            }
        }

        // Resolve the node's sleep set, then wake entries dependent with
        // the step that created this node (the last prefix choice).
        let mut sleep: Vec<(usize, Footprint)> = Vec::new();
        if sleeping {
            for e in &node.sleep {
                let fp = match &e.fp {
                    Some(fp) => Some(fp.clone()),
                    None => memo.get(&(e.state.clone(), e.rank)).cloned(),
                };
                // An unresolvable entry is dropped (= woken): that only
                // costs extra exploration, never soundness.
                if let Some(fp) = fp {
                    sleep.push((e.rank, fp));
                }
            }
            if let Some(d) = node.prefix.len().checked_sub(1) {
                let own = footprint(log.touched(d));
                sleep.retain(|(_, fp)| !dependent(fp, &own));
            }
        }

        // Walk the run's choice points from this node's depth, pushing
        // unexplored siblings and advancing the sleep set step by step.
        let mut counted = true;
        for (i, cp) in log.iter().enumerate().skip(node.prefix.len()) {
            let state = &choices[..i];
            let fp_c = footprint(&cp.touched);
            if sleep.iter().any(|(r, _)| *r == cp.chosen) {
                // The canonical completion walked into a sleeping rank:
                // this suffix replays an already-explored trace. Push the
                // genuinely-new alternatives and cut.
                let alts: Vec<usize> = cp
                    .ready
                    .iter()
                    .copied()
                    .filter(|r| *r != cp.chosen && !sleep.iter().any(|(s, _)| s == r))
                    .collect();
                push_siblings(&mut stack, state, &alts, &sleep, None, sleeping);
                report.pruned += 1;
                counted = false;
                break;
            }
            let alts: Vec<usize> = cp
                .ready
                .iter()
                .copied()
                .filter(|r| *r != cp.chosen && !sleep.iter().any(|(s, _)| s == r))
                .collect();
            push_siblings(&mut stack, state, &alts, &sleep, Some((cp.chosen, &fp_c)), sleeping);
            if sleeping {
                sleep.retain(|(_, fp)| !dependent(fp, &fp_c));
            }
        }

        if counted {
            report.schedules += 1;
            if let Err(detail) = on_schedule(choices, outcome.as_ref()) {
                return Err(ScheduleFailure { prefix: choices.to_vec(), detail });
            }
        }
    }
    Ok(report)
}

/// Push one child node per unexplored alternative at `state`. In sleep
/// mode each sibling's sleep set carries the current sleep entries, the
/// canonically-chosen rank (footprint known from this run), and every
/// earlier sibling (footprint resolved later via the memo). Siblings are
/// pushed in reverse so the smallest alternative is explored first —
/// the order the memo resolution relies on.
fn push_siblings(
    stack: &mut Vec<Node>,
    state: &[usize],
    alts: &[usize],
    sleep: &[(usize, Footprint)],
    chosen: Option<(usize, &Footprint)>,
    sleeping: bool,
) {
    for (k, &t) in alts.iter().enumerate().rev() {
        let mut prefix = state.to_vec();
        prefix.push(t);
        let mut entries: Vec<SleepEntry> = Vec::new();
        if sleeping {
            entries.extend(sleep.iter().map(|(r, fp)| SleepEntry {
                rank: *r,
                fp: Some(fp.clone()),
                state: state.to_vec(),
            }));
            if let Some((c, fp_c)) = chosen {
                entries.push(SleepEntry { rank: c, fp: Some(fp_c.clone()), state: state.to_vec() });
            }
            entries.extend(alts[..k].iter().map(|&s| SleepEntry {
                rank: s,
                fp: None,
                state: state.to_vec(),
            }));
        }
        stack.push(Node { prefix, sleep: entries });
    }
}

/// Explore and assert, on every explored schedule, that the program
/// produced bitwise-identical per-rank values, meters, clocks, and
/// memory peaks as the first explored schedule, that no schedule fails
/// (verifier report, deadlock, panic), and that the caller's `check`
/// oracle holds. Returns the exploration report, or the first failing
/// schedule with its choice-prefix repro.
pub fn explore_checked<T, F, C>(
    world: &World,
    program: F,
    cfg: &ExploreConfig,
    mut check: C,
) -> Result<ExploreReport, ScheduleFailure>
where
    T: Send + PartialEq + std::fmt::Debug,
    F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
    C: FnMut(&WorldResult<T>) -> Result<(), String>,
{
    // The first explored schedule's values (as printed: `T` need not be
    // `Clone`) and reports are the baseline every later one is diffed against.
    let mut baseline: Option<(Vec<String>, Vec<RankReport>)> = None;
    explore_outcomes(world, program, cfg, |_choices, outcome| {
        let out = outcome.map_err(|fail| format!("schedule fails: {}", fail.report))?;
        let values: Vec<String> = out.values.iter().map(|v| format!("{v:?}")).collect();
        let (base_values, base) =
            baseline.get_or_insert_with(|| (values.clone(), out.reports.clone()));
        if let Some(detail) = rank_divergence((base_values, base), (&values, &out.reports)) {
            return Err(format!("schedule-dependent result: {detail}"));
        }
        check(out)
    })
}

/// [`explore_checked`] with no extra oracle: schedule-independence and
/// failure-freedom only.
pub fn explore<T, F>(
    world: &World,
    program: F,
    cfg: &ExploreConfig,
) -> Result<ExploreReport, ScheduleFailure>
where
    T: Send + PartialEq + std::fmt::Debug,
    F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
{
    explore_checked(world, program, cfg, |_| Ok(()))
}

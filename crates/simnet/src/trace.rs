//! Deterministic-schedule event traces: recording, canonical rendering,
//! golden-trace replay assertions, and a schedule fuzzer.
//!
//! When a [`World`] is built with [`World::with_seed`], the fabric runs a
//! cooperative seeded scheduler (see `fabric.rs`): exactly one rank
//! executes at a time, the baton is handed over at every blocking point
//! (mailbox receive, split rendezvous, barrier) and at every send /
//! collective entry, and ties among runnable ranks are broken with a
//! seeded PRNG. Every scheduling decision and every fabric event is
//! appended to a totally-ordered log — the [`ScheduleTrace`] returned in
//! [`WorldResult::schedule_trace`] — so identical `(program, seed)` pairs
//! produce **byte-identical** traces ([`ScheduleTrace::render`]).
//!
//! On top of that this module provides:
//!
//! * [`ScheduleTrace::assert_matches`] — golden-trace replay: assert a
//!   re-run reproduced a recorded schedule, reporting the first
//!   divergence with seed and repro command on failure;
//! * [`fuzz_schedules`] — re-run one program under N seeds and diff the
//!   final values and [`RankReport`] accounting, catching
//!   schedule-dependent results;
//! * [`seed_from_env`] — the `PMM_SEED` environment knob every
//!   deterministic test reads, so a failure printed by one run can be
//!   replayed exactly by the next.
//!
//! [`World`]: crate::World
//! [`World::with_seed`]: crate::World::with_seed
//! [`WorldResult::schedule_trace`]: crate::WorldResult
//! [`RankReport`]: crate::RankReport

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::fabric::Ctx;
use crate::rank::Rank;
use crate::verify::CollectiveOp;
use crate::world::World;

/// Environment variable consulted by [`seed_from_env`].
pub const SEED_ENV: &str = "PMM_SEED";

/// Environment variable consulted by [`schedule_from_env`]: a full
/// [`Schedule`] in its `Display` syntax (`seed:N` or `prefix:0,2,1`),
/// taking precedence over [`SEED_ENV`].
pub const SCHEDULE_ENV: &str = "PMM_SCHEDULE";

/// A fabric resource read or written by one scheduled execution segment
/// (the slice of a rank's run between two scheduler picks). Two segments
/// whose resource footprints are disjoint commute: swapping their order
/// cannot change any rank's observations — the independence relation
/// DPOR-style exploration ([`pmm-explore`]) prunes with.
///
/// [`pmm-explore`]: https://docs.rs/pmm-explore
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// One member's mailbox queue on one communicator context (posts,
    /// pops, and failed emptiness checks all touch it).
    Mailbox {
        /// Communicator context of the mailbox.
        ctx: Ctx,
        /// Owner's member index within the communicator.
        index: usize,
    },
    /// A split rendezvous cell (deposits and result reads).
    SplitCell {
        /// Parent communicator context.
        ctx: Ctx,
        /// Per-parent split sequence number.
        seq: u64,
    },
    /// The zero-cost world barrier (arrivals and generation checks).
    Barrier,
    /// A communicator context's collective-matching ledger
    /// (registrations from `collective_begin`).
    Ledger {
        /// Communicator context of the ledger.
        ctx: Ctx,
    },
}

/// One deterministic-scheduler pick, first-class: the runnable set the
/// scheduler chose from, the rank it handed the baton to, and the fabric
/// resources the chosen rank's segment touched before the next pick.
/// The scheduler does not store these: it records a [`ChoiceLog`], and
/// [`ChoiceLog::iter`] materializes one `ChoicePoint` per pick for
/// whoever asks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Runnable ranks at the pick, ascending.
    pub ready: Vec<usize>,
    /// The rank picked.
    pub chosen: usize,
    /// Resources touched by the chosen rank's segment (deduplicated,
    /// in first-touch order).
    pub touched: Vec<Resource>,
}

/// One change of the runnable set, as the scheduler made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transition {
    /// Picks made before the change: pick `pick` and every later one
    /// choose from a set that includes it.
    pick: usize,
    rank: u32,
    /// Whether `rank` became runnable (else it blocked or finished).
    ready: bool,
}

/// The pick stream of one deterministic run, delta-encoded: the chosen
/// rank and the resource footprint of every pick, plus every change of
/// the runnable set against the initial all-runnable one. Recording a
/// pick is O(1) — nothing here is proportional to the world size — and
/// the runnable set of any pick is rebuilt on demand ([`ChoiceLog::iter`],
/// [`ChoiceLog::ready_at`]).
///
/// [`WorldResult::choice_points`] returns the log of a deterministic
/// run; replaying a *prefix* of [`ChoiceLog::chosen`] (see
/// [`Schedule::Prefix`]) steers a re-run down the same branch and then
/// completes canonically — the substrate for schedule-space exploration.
///
/// [`WorldResult::choice_points`]: crate::WorldResult
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChoiceLog {
    world_size: usize,
    chosen: Vec<usize>,
    /// Every pick's footprint, back to back.
    touched: Vec<Resource>,
    /// Where pick `i`'s footprint starts in `touched` (it ends where the
    /// next one starts).
    touched_start: Vec<usize>,
    /// In the order the scheduler made them, so ascending in `pick`.
    transitions: Vec<Transition>,
}

impl ChoiceLog {
    pub(crate) fn new(world_size: usize) -> ChoiceLog {
        assert!(u32::try_from(world_size).is_ok(), "choice log ranks are stored as u32");
        ChoiceLog { world_size, ..ChoiceLog::default() }
    }

    /// Record a pick of `rank`; its footprint starts empty.
    pub(crate) fn push_pick(&mut self, rank: usize) {
        self.touched_start.push(self.touched.len());
        self.chosen.push(rank);
    }

    /// Add `res` to the latest pick's footprint unless it is already
    /// there. No-op before the first pick.
    pub(crate) fn push_touch(&mut self, res: Resource) {
        let Some(&start) = self.touched_start.last() else { return };
        if !self.touched[start..].contains(&res) {
            self.touched.push(res);
        }
    }

    /// Record that `rank` joined (`ready`) or left the runnable set.
    pub(crate) fn push_transition(&mut self, rank: usize, ready: bool) {
        // `new` checked that every rank of the world fits.
        self.transitions.push(Transition { pick: self.chosen.len(), rank: rank as u32, ready });
    }

    /// Number of picks recorded.
    pub fn len(&self) -> usize {
        self.chosen.len()
    }

    /// Whether no pick was recorded.
    pub fn is_empty(&self) -> bool {
        self.chosen.is_empty()
    }

    /// The rank chosen at every pick, in order — what
    /// [`Schedule::Prefix`] replays.
    pub fn chosen(&self) -> &[usize] {
        &self.chosen
    }

    /// Resources touched by the segment pick `i` started (deduplicated,
    /// in first-touch order). Panics if `i >= len()`.
    pub fn touched(&self, i: usize) -> &[Resource] {
        let end = self.touched_start.get(i + 1).copied().unwrap_or(self.touched.len());
        &self.touched[self.touched_start[i]..end]
    }

    /// The runnable ranks pick `i` chose from, ascending. Replays the
    /// transitions from the start, so O(world size + transitions before
    /// `i`); walk [`ChoiceLog::iter`] to visit every pick. Panics if
    /// `i >= len()`.
    pub fn ready_at(&self, i: usize) -> Vec<usize> {
        assert!(i < self.len(), "pick {i} of a {}-pick choice log", self.len());
        let mut ready = vec![true; self.world_size];
        for t in self.transitions.iter().take_while(|t| t.pick <= i) {
            ready[t.rank as usize] = t.ready;
        }
        ready.iter().enumerate().filter_map(|(r, &is)| is.then_some(r)).collect()
    }

    /// Materialize one [`ChoicePoint`] per pick, in order. The runnable
    /// set is carried from pick to pick, so a full walk costs the
    /// transitions once plus the size of every set it yields.
    pub fn iter(&self) -> ChoicePoints<'_> {
        ChoicePoints { log: self, pick: 0, applied: 0, ready: (0..self.world_size).collect() }
    }

    /// Bytes this log holds on the heap (reserved capacity included).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.chosen.capacity() * size_of::<usize>()
            + self.touched.capacity() * size_of::<Resource>()
            + self.touched_start.capacity() * size_of::<usize>()
            + self.transitions.capacity() * size_of::<Transition>()
    }
}

/// Forward iterator over the picks of a [`ChoiceLog`]; see
/// [`ChoiceLog::iter`].
#[derive(Debug, Clone)]
pub struct ChoicePoints<'a> {
    log: &'a ChoiceLog,
    /// Next pick to yield.
    pick: usize,
    /// Transitions already folded into `ready`.
    applied: usize,
    ready: BTreeSet<usize>,
}

impl Iterator for ChoicePoints<'_> {
    type Item = ChoicePoint;

    fn next(&mut self) -> Option<ChoicePoint> {
        let i = self.pick;
        let &chosen = self.log.chosen.get(i)?;
        while let Some(t) = self.log.transitions.get(self.applied).filter(|t| t.pick <= i) {
            if t.ready {
                self.ready.insert(t.rank as usize);
            } else {
                self.ready.remove(&(t.rank as usize));
            }
            self.applied += 1;
        }
        self.pick += 1;
        Some(ChoicePoint {
            ready: self.ready.iter().copied().collect(),
            chosen,
            touched: self.log.touched(i).to_vec(),
        })
    }
}

/// How the deterministic scheduler resolves its pick points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Break ties with a SplitMix64 stream seeded with the value — the
    /// classic [`World::with_seed`] mode.
    ///
    /// [`World::with_seed`]: crate::World::with_seed
    Seeded(u64),
    /// Follow the recorded choice prefix (one chosen rank per pick); once
    /// the prefix is exhausted, complete canonically by always picking
    /// the smallest runnable rank. A prefix of ranks actually chosen by
    /// a prior run replays that run's branch exactly; the empty prefix
    /// is the fully-canonical schedule.
    Prefix(Vec<usize>),
}

impl Schedule {
    /// The canonical repro hint for runs under this schedule.
    pub fn repro(&self) -> Repro {
        match self {
            Schedule::Seeded(s) => Repro::Seed(*s),
            Schedule::Prefix(p) => Repro::Prefix(p.clone()),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::Seeded(s) => write!(f, "seed:{s}"),
            Schedule::Prefix(p) => {
                write!(f, "prefix:")?;
                for (i, r) in p.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Schedule, String> {
        let t = s.trim();
        let parse_u64 = |v: &str| -> Result<u64, String> {
            let v = v.trim();
            match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| format!("{v:?} is not a u64 (decimal or 0x-prefixed hex)"))
        };
        if let Some(v) = t.strip_prefix("seed:") {
            return Ok(Schedule::Seeded(parse_u64(v)?));
        }
        if let Some(v) = t.strip_prefix("prefix:") {
            let v = v.trim();
            if v.is_empty() {
                return Ok(Schedule::Prefix(Vec::new()));
            }
            let ranks: Result<Vec<usize>, String> = v
                .split(',')
                .map(|r| r.trim().parse().map_err(|_| format!("{r:?} is not a rank id (usize)")))
                .collect();
            return Ok(Schedule::Prefix(ranks?));
        }
        Ok(Schedule::Seeded(parse_u64(t)?))
    }
}

/// The canonical replay recipe for one run — *the* single place failure
/// paths get their repro hint from, whether the run was seeded, was
/// steered by a choice prefix, or ran free. Every schedule-sensitive
/// failure message in this workspace renders one of these (via
/// [`Repro::hint`] for the one-line recipe or [`Repro::note`] for the
/// bracketed context suffix) instead of hand-formatting env vars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Repro {
    /// The run was not deterministic; there is nothing to replay.
    Unseeded,
    /// Replay by seed: `PMM_SEED=<seed>`.
    Seed(u64),
    /// Replay by choice prefix: `PMM_SCHEDULE=prefix:<r0,r1,...>`.
    Prefix(Vec<usize>),
}

impl Repro {
    /// The bare environment-variable assignment that replays this
    /// schedule (`PMM_SEED=7`, `PMM_SCHEDULE=prefix:0,2,1`), or `None`
    /// when the run was not deterministic. The single source of truth
    /// every repro-printing failure path formats from.
    pub fn env(&self) -> Option<String> {
        match self {
            Repro::Unseeded => None,
            Repro::Seed(seed) => Some(format!("{SEED_ENV}={seed}")),
            Repro::Prefix(p) => Some(format!("{SCHEDULE_ENV}={}", Schedule::Prefix(p.clone()))),
        }
    }

    /// One-line replay recipe in env-var form.
    pub fn hint(&self) -> String {
        match self.env() {
            None => "use World::with_seed(..) to make this run replayable".to_string(),
            Some(env) => format!("re-run with {env} to replay this schedule"),
        }
    }

    /// The bracketed context note world-level failure messages append:
    /// what kind of schedule ran, plus the replay recipe.
    pub fn note(&self) -> String {
        match self {
            Repro::Unseeded => format!("nondeterministic schedule (no seed); {}", self.hint()),
            Repro::Seed(seed) => format!("schedule seed {seed}; {}", self.hint()),
            Repro::Prefix(p) => {
                format!("deterministic schedule prefix ({} choices); {}", p.len(), self.hint())
            }
        }
    }
}

impl std::fmt::Display for Repro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hint())
    }
}

/// Read the full schedule from the `PMM_SCHEDULE` environment variable
/// (`seed:N`, `prefix:0,2,1`, or a bare integer meaning a seed), falling
/// back to `PMM_SEED`, falling back to `default`. The schedule analogue
/// of [`seed_from_env`] for tools that also accept choice prefixes.
pub fn schedule_from_env(default: Schedule) -> Schedule {
    match std::env::var(SCHEDULE_ENV) {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|e| panic!("{SCHEDULE_ENV}={s:?} is not a valid schedule: {e}")),
        Err(_) => match std::env::var(SEED_ENV) {
            Ok(_) => Schedule::Seeded(seed_from_env(0)),
            Err(_) => default,
        },
    }
}

/// The blocking point a rank yielded the scheduler baton at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPoint {
    /// Blocked in a directed mailbox receive.
    Recv {
        /// Communicator context of the receive.
        ctx: Ctx,
        /// This rank's mailbox index within the communicator.
        index: usize,
    },
    /// Blocked in a communicator-split rendezvous.
    Split {
        /// Parent communicator context.
        ctx: Ctx,
        /// Per-parent split sequence number.
        seq: u64,
    },
    /// Blocked in the zero-cost world barrier.
    Barrier {
        /// Barrier generation the rank entered on.
        generation: u64,
    },
}

/// One event of a deterministic schedule, in global order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// The scheduler handed the baton to `rank`.
    Pick {
        /// World rank now running.
        rank: usize,
    },
    /// `rank` released the baton at a blocking point.
    Block {
        /// World rank that blocked.
        rank: usize,
        /// Where it blocked.
        point: BlockPoint,
    },
    /// A message was posted (and the sender yielded the baton).
    Post {
        /// Sender's world rank.
        from_world: usize,
        /// Communicator context the message travels on.
        ctx: Ctx,
        /// Receiver's world rank.
        to_world: usize,
        /// Message size in words.
        words: u64,
    },
    /// A rank entered a collective (hook at every collective entry point).
    Collective {
        /// World rank entering.
        rank: usize,
        /// Communicator context of the collective.
        ctx: Ctx,
        /// Operation kind.
        op: CollectiveOp,
        /// Element count the rank brought.
        elems: u64,
    },
    /// `rank`'s program finished (normally or by panic).
    Done {
        /// World rank that finished.
        rank: usize,
    },
}

impl std::fmt::Display for SchedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedEvent::Pick { rank } => write!(f, "pick r{rank}"),
            SchedEvent::Block { rank, point } => match point {
                BlockPoint::Recv { ctx, index } => {
                    write!(f, "block r{rank} recv ctx{ctx} idx{index}")
                }
                BlockPoint::Split { ctx, seq } => {
                    write!(f, "block r{rank} split ctx{ctx} seq{seq}")
                }
                BlockPoint::Barrier { generation } => {
                    write!(f, "block r{rank} barrier gen{generation}")
                }
            },
            SchedEvent::Post { from_world, ctx, to_world, words } => {
                write!(f, "post r{from_world}->r{to_world} ctx{ctx} w{words}")
            }
            SchedEvent::Collective { rank, ctx, op, elems } => {
                write!(f, "coll r{rank} ctx{ctx} {op}[{elems}]")
            }
            SchedEvent::Done { rank } => write!(f, "done r{rank}"),
        }
    }
}

/// The totally-ordered event log of one deterministic run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// The scheduler seed the run used.
    pub seed: u64,
    /// Events in global schedule order.
    pub events: Vec<SchedEvent>,
}

impl ScheduleTrace {
    /// Bytes the event log holds on the heap (reserved capacity
    /// included).
    pub fn heap_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<SchedEvent>()
    }

    /// Canonical text rendering: a seed header plus one line per event.
    /// Two runs of the same `(program, seed)` pair render to identical
    /// bytes — the determinism contract tests compare these strings.
    pub fn render(&self) -> String {
        let mut out =
            format!("# schedule seed {:#018x} ({} events)\n", self.seed, self.events.len());
        for e in &self.events {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// Index of the first event where `self` and `other` differ, or the
    /// shorter length on a prefix match, or `None` when identical.
    pub fn first_divergence(&self, other: &ScheduleTrace) -> Option<usize> {
        let n = self.events.len().min(other.events.len());
        (0..n)
            .find(|&i| self.events[i] != other.events[i])
            .or((self.events.len() != other.events.len()).then_some(n))
    }

    /// Golden-trace replay assertion: panic with the first divergence
    /// (and a seed repro command) unless `replay` reproduced this trace
    /// event for event.
    #[track_caller]
    pub fn assert_matches(&self, replay: &ScheduleTrace) {
        assert_eq!(
            self.seed,
            replay.seed,
            "golden-trace replay compared runs with different seeds; {}",
            repro_hint(self.seed)
        );
        if let Some(i) = self.first_divergence(replay) {
            let show = |t: &ScheduleTrace| {
                t.events.get(i).map_or("<end of trace>".to_string(), |e| e.to_string())
            };
            panic!(
                "schedule replay diverged from the golden trace at event {i}:\n  \
                 golden: {}\n  replay: {}\n\
                 golden has {} events, replay has {}; {}",
                show(self),
                show(replay),
                self.events.len(),
                replay.events.len(),
                repro_hint(self.seed)
            );
        }
    }
}

/// One-line repro command for a failing seed — printed in every
/// deterministic-mode failure message. Shorthand for
/// [`Repro::Seed`]`(seed).hint()`.
pub fn repro_hint(seed: u64) -> String {
    Repro::Seed(seed).hint()
}

/// Read the schedule seed from the `PMM_SEED` environment variable
/// (decimal, or hex with an `0x` prefix), falling back to `default`.
/// Deterministic tests use this so a failure report's seed can be pinned
/// on the next run without editing code.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var(SEED_ENV) {
        Err(_) => default,
        Ok(s) => {
            let t = s.trim();
            let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => t.parse(),
            };
            parsed.unwrap_or_else(|_| {
                panic!("{SEED_ENV}={s:?} is not a u64 (decimal or 0x-prefixed hex)")
            })
        }
    }
}

/// A schedule-dependent result found by [`fuzz_schedules`]: the program
/// produced different values or accounting under two seeds.
#[derive(Debug)]
pub struct ScheduleDivergence {
    /// The first seed run (the baseline every other seed is diffed against).
    pub baseline_seed: u64,
    /// The seed whose run diverged from the baseline.
    pub failing_seed: u64,
    /// Human-readable description of the first difference.
    pub detail: String,
}

impl std::fmt::Display for ScheduleDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule-dependent result: seed {} disagrees with baseline seed {}: {}\n\
             [{} vs {}]",
            self.failing_seed,
            self.baseline_seed,
            self.detail,
            repro_hint(self.baseline_seed),
            repro_hint(self.failing_seed)
        )
    }
}

impl std::error::Error for ScheduleDivergence {}

/// Schedule fuzzer: run `program` on (a clone of) `world` once per seed
/// and diff the final per-rank values, meters, clocks, and memory peaks
/// against the first seed's run. A correct program's *results* must not
/// depend on the schedule even though its event trace does; any
/// divergence is returned with the failing seed and a repro command.
pub fn fuzz_schedules<T, F>(
    world: &World,
    seeds: &[u64],
    program: F,
) -> Result<(), ScheduleDivergence>
where
    T: Send + PartialEq + std::fmt::Debug,
    F: Fn(&mut Rank) -> T + Send + Sync,
{
    assert!(!seeds.is_empty(), "fuzz_schedules needs at least one seed");
    let mut baseline: Option<(u64, crate::world::WorldResult<T>)> = None;
    for &seed in seeds {
        let out = world.clone().with_seed(seed).run(&program);
        let Some((seed0, base)) = &baseline else {
            baseline = Some((seed, out));
            continue;
        };
        let fail = |detail: String| ScheduleDivergence {
            baseline_seed: *seed0,
            failing_seed: seed,
            detail,
        };
        for r in 0..out.values.len() {
            if out.values[r] != base.values[r] {
                return Err(fail(format!(
                    "rank {r} value {:?} vs baseline {:?}",
                    out.values[r], base.values[r]
                )));
            }
            let (a, b) = (&out.reports[r], &base.reports[r]);
            if a.meter != b.meter {
                return Err(fail(format!(
                    "rank {r} meter [{}] vs baseline [{}]",
                    a.meter, b.meter
                )));
            }
            if a.time != b.time {
                return Err(fail(format!("rank {r} clock {} vs baseline {}", a.time, b.time)));
            }
            if a.peak_mem_words != b.peak_mem_words {
                return Err(fail(format!(
                    "rank {r} peak memory {} vs baseline {} words",
                    a.peak_mem_words, b.peak_mem_words
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seed: u64, events: Vec<SchedEvent>) -> ScheduleTrace {
        ScheduleTrace { seed, events }
    }

    #[test]
    fn render_is_one_line_per_event_with_seed_header() {
        let t = trace(
            7,
            vec![
                SchedEvent::Pick { rank: 0 },
                SchedEvent::Post { from_world: 0, ctx: 2, to_world: 3, words: 16 },
                SchedEvent::Block { rank: 1, point: BlockPoint::Recv { ctx: 0, index: 1 } },
                SchedEvent::Collective { rank: 2, ctx: 1, op: CollectiveOp::AllGather, elems: 5 },
                SchedEvent::Done { rank: 0 },
            ],
        );
        let s = t.render();
        assert!(s.starts_with("# schedule seed 0x0000000000000007 (5 events)\n"), "{s}");
        assert!(s.contains("pick r0\n"), "{s}");
        assert!(s.contains("post r0->r3 ctx2 w16\n"), "{s}");
        assert!(s.contains("block r1 recv ctx0 idx1\n"), "{s}");
        assert!(s.contains("coll r2 ctx1 all_gather[5]\n"), "{s}");
        assert!(s.contains("done r0\n"), "{s}");
    }

    #[test]
    fn first_divergence_finds_edits_and_length_changes() {
        let a = trace(1, vec![SchedEvent::Pick { rank: 0 }, SchedEvent::Done { rank: 0 }]);
        assert_eq!(a.first_divergence(&a), None);
        let edited = trace(1, vec![SchedEvent::Pick { rank: 1 }, SchedEvent::Done { rank: 0 }]);
        assert_eq!(a.first_divergence(&edited), Some(0));
        let truncated = trace(1, vec![SchedEvent::Pick { rank: 0 }]);
        assert_eq!(a.first_divergence(&truncated), Some(1));
    }

    #[test]
    fn assert_matches_panics_with_seed_and_divergence() {
        let golden = trace(9, vec![SchedEvent::Pick { rank: 0 }]);
        let replay = trace(9, vec![SchedEvent::Pick { rank: 2 }]);
        let err = std::panic::catch_unwind(|| golden.assert_matches(&replay))
            .expect_err("diverging replay must panic");
        let msg = err.downcast_ref::<String>().expect("panic message is a String");
        assert!(msg.contains("event 0"), "{msg}");
        assert!(msg.contains("PMM_SEED=9"), "{msg}");
    }

    #[test]
    fn schedule_display_parse_round_trips() {
        for sched in [
            Schedule::Seeded(0),
            Schedule::Seeded(0xDEAD_BEEF),
            Schedule::Prefix(vec![]),
            Schedule::Prefix(vec![3]),
            Schedule::Prefix(vec![0, 2, 1, 1]),
        ] {
            let rendered = sched.to_string();
            let parsed: Schedule = rendered.parse().unwrap_or_else(|e| panic!("{rendered}: {e}"));
            assert_eq!(parsed, sched, "{rendered}");
        }
    }

    #[test]
    fn schedule_parses_bare_and_hex_seeds() {
        assert_eq!("42".parse::<Schedule>().unwrap(), Schedule::Seeded(42));
        assert_eq!("seed:0x2a".parse::<Schedule>().unwrap(), Schedule::Seeded(42));
        assert_eq!("prefix: 1, 2 ,3".parse::<Schedule>().unwrap(), Schedule::Prefix(vec![1, 2, 3]));
        assert!("prefix:1,x".parse::<Schedule>().is_err());
        assert!("seed:zebra".parse::<Schedule>().is_err());
    }

    #[test]
    fn repro_hints_name_the_env_var_form() {
        assert!(Repro::Seed(7).hint().contains("PMM_SEED=7"));
        let p = Repro::Prefix(vec![0, 2, 1]);
        assert!(p.hint().contains("PMM_SCHEDULE=prefix:0,2,1"), "{}", p.hint());
        assert!(Repro::Unseeded.hint().contains("with_seed"));
        assert!(Repro::Seed(9).note().contains("schedule seed 9"));
        assert!(Repro::Prefix(vec![1]).note().contains("1 choices"));
    }

    #[test]
    fn divergence_display_names_both_seeds() {
        let d = ScheduleDivergence {
            baseline_seed: 3,
            failing_seed: 11,
            detail: "rank 0 value 1 vs baseline 2".into(),
        };
        let s = d.to_string();
        assert!(s.contains("seed 11"), "{s}");
        assert!(s.contains("PMM_SEED=3"), "{s}");
        assert!(s.contains("PMM_SEED=11"), "{s}");
    }
}

//! pmm-verify: communication-correctness checking for the simulator.
//!
//! The simulator executes schedules with real blocking — a mismatched or
//! misordered collective would, like under MPI, hang every rank forever,
//! and a hang in `cargo test` is indistinguishable from a slow run. This
//! module makes communication correctness a *checked* property:
//!
//! 1. **Waiting-on registry + watchdog.** Every blocking point in the
//!    fabric (mailbox receive, split rendezvous, the hard-sync barrier)
//!    registers a `WaitInfo` naming what the rank waits in; which world
//!    ranks could unblock it is read from the rendezvous state when a
//!    scan or a report needs it. A watchdog thread (enabled by default
//!    in debug builds; see [`World::with_watchdog`]) builds the wait-for
//!    graph, runs a can-any-rank-progress fixpoint, and — when a set of
//!    blocked ranks is provably stuck across two consecutive scans —
//!    aborts the world with a report naming each blocked rank, the
//!    operation kind, the communicator context, and the call site,
//!    instead of hanging.
//!
//! 2. **Collective-matching lint.** Every collective registers a
//!    `CallDesc` (op kind, element count, call site) against a
//!    per-communicator ledger; the `n`-th collective on a communicator
//!    must agree on the op kind (and, for symmetric ops, the element
//!    count) across all members. Disagreement aborts the world
//!    *deterministically* — before the mismatch turns into a hang — with
//!    a diff of the disagreeing descriptors.
//!
//! 3. **Happens-before audit.** Each rank counts its own communication
//!    events (posted copies and accepted receives) and stamps every
//!    message with the count; receipt asserts that the stamps arriving on
//!    one channel — one sender, one communicator — strictly increase
//!    (catching duplication or reordering inside the fabric), at every
//!    world size. Strict-drain worlds additionally verify at exit that
//!    every metered send was matched by a metered receive — i.e. that
//!    cost accounting only merges along communication edges.
//!
//! [`World::with_watchdog`]: crate::World::with_watchdog

use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::fabric::Ctx;

/// Lock a mutex, ignoring poisoning: verify state must stay readable
/// while rank threads are being torn down by an abort panic.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The kind of collective operation, as registered with the
/// collective-matching lint by [`Rank::collective_begin`].
///
/// [`Rank::collective_begin`]: crate::Rank::collective_begin
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// All-Gather (uniform or `v`-variant; per-rank contributions may
    /// legitimately differ in size).
    AllGather,
    /// All-Reduce (element counts must agree).
    AllReduce,
    /// All-to-All (element counts must agree).
    AllToAll,
    /// Barrier.
    Barrier,
    /// Broadcast.
    Bcast,
    /// Gather (root collects; per-rank contributions may differ).
    Gather,
    /// Reduce to a root (element counts must agree).
    Reduce,
    /// Reduce-Scatter (every rank contributes a full vector; element
    /// counts must agree).
    ReduceScatter,
    /// Inclusive scan (element counts must agree).
    Scan,
    /// Exclusive scan (element counts must agree).
    ExScan,
    /// Scatter from a root (per-rank shares may differ).
    Scatter,
    /// Communicator split (a collective over the parent communicator).
    Split,
}

impl CollectiveOp {
    /// Whether all members must register the same element count.
    fn uniform_elems(self) -> bool {
        matches!(
            self,
            CollectiveOp::AllReduce
                | CollectiveOp::AllToAll
                | CollectiveOp::Barrier
                | CollectiveOp::Reduce
                | CollectiveOp::ReduceScatter
                | CollectiveOp::Scan
                | CollectiveOp::ExScan
        )
    }
}

impl std::fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CollectiveOp::AllGather => "all_gather",
            CollectiveOp::AllReduce => "all_reduce",
            CollectiveOp::AllToAll => "all_to_all",
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::Bcast => "bcast",
            CollectiveOp::Gather => "gather",
            CollectiveOp::Reduce => "reduce",
            CollectiveOp::ReduceScatter => "reduce_scatter",
            CollectiveOp::Scan => "scan",
            CollectiveOp::ExScan => "exscan",
            CollectiveOp::Scatter => "scatter",
            CollectiveOp::Split => "split",
        };
        f.write_str(name)
    }
}

/// One member's registered collective call, for the matching lint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallDesc {
    pub op: CollectiveOp,
    /// Element count the member brought to the collective (op-specific;
    /// 0 for barriers and splits).
    pub elems: u64,
    /// World rank of the registrant.
    pub world_rank: usize,
    /// Source location of the user-level call.
    pub site: &'static Location<'static>,
}

/// What a blocked rank is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum WaitKind {
    /// Blocked in a directed receive.
    Recv {
        /// Sender's world rank.
        from_world: usize,
        /// This rank's index within the communicator (mailbox key).
        ctx_index: usize,
    },
    /// Blocked in a communicator-split rendezvous.
    Split {
        /// Per-parent split sequence number (rendezvous key).
        seq: u64,
    },
    /// Blocked in the zero-cost world barrier.
    Barrier {
        /// Barrier generation the rank entered on.
        generation: u64,
    },
}

impl std::fmt::Display for WaitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitKind::Recv { from_world, .. } => write!(f, "recv(from world rank {from_world})"),
            WaitKind::Split { seq } => write!(f, "comm split rendezvous (split #{seq})"),
            WaitKind::Barrier { .. } => write!(f, "world barrier"),
        }
    }
}

/// A registered blocking wait.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitInfo {
    pub kind: WaitKind,
    /// Communicator context of the blocking operation.
    pub ctx: Ctx,
    /// Source location of the user-level blocking call.
    pub site: &'static Location<'static>,
}

/// Per rendezvous wait `(ctx, kind)` of a snapshot: the world ranks it
/// still misses, read from the rendezvous state when a scan or a report
/// needs them; `None` once it has released its waiters.
pub(crate) type Missing = HashMap<(Ctx, WaitKind), Option<Vec<usize>>>;

impl WaitInfo {
    /// World ranks whose action could unblock this rank: the sender of a
    /// directed receive, the members a rendezvous still misses.
    pub fn waiting_on<'a>(&'a self, missing: &'a Missing) -> &'a [usize] {
        match &self.kind {
            WaitKind::Recv { from_world, .. } => std::slice::from_ref(from_world),
            _ => missing.get(&(self.ctx, self.kind)).and_then(|m| m.as_deref()).unwrap_or(&[]),
        }
    }
}

/// Per-rank verify slot (the watchdog works on copies). `gen` counts
/// wait-state transitions; the watchdog uses it to distinguish "still
/// stuck in the same wait" from "briefly blocked again".
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RankSlot {
    pub wait: Option<WaitInfo>,
    pub gen: u64,
    pub done: bool,
}

/// Panic payload used when a rank is torn down by a verifier abort. The
/// world run distinguishes these from genuine program panics and
/// re-raises the verifier report instead.
pub(crate) struct AbortPanic(pub String);

/// Shared verify state; owned by the fabric, one per world.
pub(crate) struct VerifyState {
    slots: Vec<Mutex<RankSlot>>,
    aborted: AtomicBool,
    report: Mutex<Option<String>>,
    ledger: Mutex<HashMap<Ctx, CommLedger>>,
    /// One line per injected rank death, naming the fault-plan entry and
    /// the replay seed. Consulted by the watchdog and scheduler so a kill
    /// is reported as a rank failure, never as a spurious deadlock.
    fault_notes: Mutex<Vec<String>>,
}

impl VerifyState {
    pub fn new(world_size: usize) -> VerifyState {
        VerifyState {
            slots: (0..world_size).map(|_| Mutex::new(RankSlot::default())).collect(),
            aborted: AtomicBool::new(false),
            report: Mutex::new(None),
            ledger: Mutex::new(HashMap::new()),
            fault_notes: Mutex::new(Vec::new()),
        }
    }

    /// Record an injected rank death (fault layer use).
    pub fn note_rank_failure(&self, line: String) {
        lock_unpoisoned(&self.fault_notes).push(line);
    }

    /// Lines describing injected rank deaths so far, in death order.
    pub fn rank_failures(&self) -> Vec<String> {
        lock_unpoisoned(&self.fault_notes).clone()
    }

    pub fn world_size(&self) -> usize {
        self.slots.len()
    }

    /// Register that `world_rank` is about to block.
    pub fn set_wait(&self, world_rank: usize, info: WaitInfo) {
        let mut slot = lock_unpoisoned(&self.slots[world_rank]);
        slot.wait = Some(info);
        slot.gen += 1;
    }

    /// Clear `world_rank`'s wait registration (it made progress).
    pub fn clear_wait(&self, world_rank: usize) {
        let mut slot = lock_unpoisoned(&self.slots[world_rank]);
        slot.wait = None;
        slot.gen += 1;
    }

    /// Mark `world_rank` finished (normally or by panic) — it will take
    /// no further fabric actions.
    pub fn mark_done(&self, world_rank: usize) {
        let mut slot = lock_unpoisoned(&self.slots[world_rank]);
        slot.wait = None;
        slot.done = true;
        slot.gen += 1;
    }

    /// Whether the world has been aborted by the verifier.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// First abort wins; returns whether this call set the flag.
    pub fn try_set_aborted(&self, report: String) -> bool {
        let mut stored = lock_unpoisoned(&self.report);
        if self.aborted.swap(true, Ordering::SeqCst) {
            return false;
        }
        *stored = Some(report);
        true
    }

    /// The abort report, if any.
    pub fn report_text(&self) -> Option<String> {
        lock_unpoisoned(&self.report).clone()
    }

    /// Panic this rank out of a blocking wait after an abort.
    pub fn abort_panic(&self, world_rank: usize) -> ! {
        self.mark_done(world_rank);
        let report = self
            .report_text()
            .unwrap_or_else(|| "pmm-verify: world aborted with no stored report".to_string());
        std::panic::panic_any(AbortPanic(format!(
            "pmm-verify: rank {world_rank} torn down by verifier abort\n{report}"
        )));
    }

    /// Snapshot all slots (watchdog use; slot locks are leaves, taken one
    /// at a time).
    pub fn snapshot(&self) -> Vec<RankSlot> {
        self.slots.iter().map(|s| *lock_unpoisoned(s)).collect()
    }

    /// Register the next collective call of member `member_index` of the
    /// communicator `ctx` and cross-check it against the other members'
    /// registrations for the same per-communicator sequence number.
    ///
    /// Returns the mismatch report if the descriptors disagree.
    #[allow(clippy::too_many_arguments)] // a call descriptor genuinely carries all of these
    pub fn register_collective(
        &self,
        ctx: Ctx,
        comm_size: usize,
        member_index: usize,
        world_rank: usize,
        op: CollectiveOp,
        elems: u64,
        site: &'static Location<'static>,
    ) -> Result<(), String> {
        let mut ledger = lock_unpoisoned(&self.ledger);
        let cl = ledger.entry(ctx).or_insert_with(|| CommLedger::new(comm_size));
        assert_eq!(
            cl.size, comm_size,
            "communicator ctx {ctx} registered with two different sizes — fabric bug"
        );
        let seq = cl.next_seq[member_index];
        cl.next_seq[member_index] += 1;
        let round = cl.rounds.entry(seq).or_insert_with(|| Round::new(comm_size));
        let desc = CallDesc { op, elems, world_rank, site };

        // Agreement is transitive and every earlier registrant agreed
        // with the round's first (or the world aborted), so comparing
        // with that one descriptor decides. Only a mismatch pays for the
        // member-order scan, which names the lowest conflicting member.
        let conflicts =
            |prev: &CallDesc| prev.op != op || (op.uniform_elems() && prev.elems != elems);
        let conflict = match round.first {
            Some(first) if conflicts(&first) => round.descs.iter().flatten().find(|p| conflicts(p)),
            _ => None,
        };
        if let Some(prev) = conflict {
            let mut report = format!(
                "pmm-verify: collective mismatch on communicator ctx {ctx} \
                 (collective #{seq} of this communicator)\n\
                 world rank {world_rank} entered `{op}` with {elems} element(s) at {site}, but \
                 world rank {} had entered `{}` with {} element(s) at {}\n\
                 descriptors registered so far for collective #{seq} on ctx {ctx}:\n",
                prev.world_rank, prev.op, prev.elems, prev.site
            );
            round.descs[member_index] = Some(desc);
            round.registered += 1;
            for (idx, d) in round.descs.iter().enumerate() {
                match d {
                    Some(d) => report.push_str(&format!(
                        "  member {idx} (world rank {}): {} [{} elems] at {}\n",
                        d.world_rank, d.op, d.elems, d.site
                    )),
                    None => report.push_str(&format!("  member {idx}: not yet entered\n")),
                }
            }
            return Err(report);
        }

        round.descs[member_index] = Some(desc);
        round.first.get_or_insert(desc);
        round.registered += 1;
        if round.registered == comm_size {
            cl.rounds.remove(&seq);
        }
        Ok(())
    }

    /// Human-readable lines describing partially-entered collectives on
    /// every communicator (for deadlock reports).
    pub fn all_pending_collectives(&self) -> Vec<String> {
        let ctxs: Vec<Ctx> = {
            let ledger = lock_unpoisoned(&self.ledger);
            let mut ctxs: Vec<Ctx> = ledger.keys().copied().collect();
            ctxs.sort_unstable();
            ctxs
        };
        ctxs.into_iter().flat_map(|ctx| self.pending_collectives(ctx)).collect()
    }

    /// Human-readable lines describing partially-entered collectives on
    /// `ctx` (for deadlock reports).
    pub fn pending_collectives(&self, ctx: Ctx) -> Vec<String> {
        let ledger = lock_unpoisoned(&self.ledger);
        let mut lines = Vec::new();
        if let Some(cl) = ledger.get(&ctx) {
            let mut seqs: Vec<u64> = cl.rounds.keys().copied().collect();
            seqs.sort_unstable();
            for seq in seqs {
                let round = &cl.rounds[&seq];
                let entered: Vec<String> = round
                    .descs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, d)| {
                        d.as_ref().map(|d| format!("member {i}=world {} ({})", d.world_rank, d.op))
                    })
                    .collect();
                let missing: Vec<usize> = round
                    .descs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, d)| d.is_none().then_some(i))
                    .collect();
                lines.push(format!(
                    "  ctx {ctx} collective #{seq}: {}/{} entered [{}]; missing members {:?}",
                    round.registered,
                    round.descs.len(),
                    entered.join(", "),
                    missing
                ));
            }
        }
        lines
    }
}

/// Per-communicator collective ledger.
struct CommLedger {
    size: usize,
    /// Per-member count of collectives registered so far.
    next_seq: Vec<u64>,
    /// Partially-entered collectives, keyed by sequence number.
    rounds: HashMap<u64, Round>,
}

impl CommLedger {
    fn new(size: usize) -> CommLedger {
        CommLedger { size, next_seq: vec![0; size], rounds: HashMap::new() }
    }
}

/// One collective's registrations across members.
struct Round {
    descs: Vec<Option<CallDesc>>,
    /// The first descriptor registered (the witness newcomers are
    /// checked against).
    first: Option<CallDesc>,
    registered: usize,
}

impl Round {
    fn new(size: usize) -> Round {
        Round { descs: vec![None; size], first: None, registered: 0 }
    }
}

/// Watchdog configuration of a [`World`](crate::World).
#[derive(Debug, Clone, Copy)]
pub struct VerifyConfig {
    /// Scan interval of the deadlock watchdog, or `None` to disable.
    /// A confirmed deadlock is reported after two consecutive stable
    /// scans, i.e. within roughly three intervals.
    pub watchdog: Option<Duration>,
    /// When set, the world additionally fails if any message was sent
    /// but never received (undrained mailboxes or stashes at exit), and
    /// verifies global meter conservation.
    pub strict_drain: bool,
}

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig {
            // Debug builds (which is what `cargo test` runs) get hang
            // protection by default; release/bench runs opt in.
            watchdog: if cfg!(debug_assertions) { Some(Duration::from_secs(2)) } else { None },
            strict_drain: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn matching_collectives_pass_and_rounds_are_cleaned() {
        let v = VerifyState::new(2);
        for round in 0..3u64 {
            for member in 0..2 {
                v.register_collective(0, 2, member, member, CollectiveOp::AllReduce, 8, site())
                    .unwrap_or_else(|e| panic!("round {round} member {member}: {e}"));
            }
        }
        assert!(v.pending_collectives(0).is_empty(), "completed rounds must be dropped");
    }

    #[test]
    fn op_kind_mismatch_is_reported_with_both_descriptors() {
        let v = VerifyState::new(3);
        v.register_collective(7, 3, 0, 10, CollectiveOp::AllGather, 4, site())
            .expect("first registration is vacuously consistent");
        let err = v
            .register_collective(7, 3, 2, 12, CollectiveOp::ReduceScatter, 4, site())
            .expect_err("op-kind mismatch must be flagged");
        assert!(err.contains("collective mismatch"), "{err}");
        assert!(err.contains("all_gather"), "{err}");
        assert!(err.contains("reduce_scatter"), "{err}");
        assert!(err.contains("ctx 7"), "{err}");
        assert!(err.contains("world rank 10"), "{err}");
        assert!(err.contains("world rank 12"), "{err}");
        assert!(err.contains("member 1: not yet entered"), "{err}");
    }

    #[test]
    fn mismatch_report_names_the_lowest_conflicting_member_not_the_witness() {
        // Members 3 then 1 agree; member 2 disagrees. The newcomer is
        // checked against the first registrant (member 3) only, but the
        // report must read exactly as a member-order scan wrote it: the
        // conflict it names is member 1, neither the witness nor member 0.
        let v = VerifyState::new(4);
        let s = site();
        v.register_collective(5, 4, 3, 13, CollectiveOp::AllReduce, 8, s).expect("first");
        v.register_collective(5, 4, 1, 11, CollectiveOp::AllReduce, 8, s).expect("agrees");
        let err = v
            .register_collective(5, 4, 2, 12, CollectiveOp::AllReduce, 9, s)
            .expect_err("element-count skew must be flagged");
        let want = format!(
            "pmm-verify: collective mismatch on communicator ctx 5 (collective #0 of this \
             communicator)\n\
             world rank 12 entered `all_reduce` with 9 element(s) at {s}, but world rank 11 had \
             entered `all_reduce` with 8 element(s) at {s}\n\
             descriptors registered so far for collective #0 on ctx 5:\n\
             \x20 member 0: not yet entered\n\
             \x20 member 1 (world rank 11): all_reduce [8 elems] at {s}\n\
             \x20 member 2 (world rank 12): all_reduce [9 elems] at {s}\n\
             \x20 member 3 (world rank 13): all_reduce [8 elems] at {s}\n"
        );
        assert_eq!(err, want);
    }

    #[test]
    fn uniform_ops_flag_element_count_skew() {
        let v = VerifyState::new(2);
        v.register_collective(1, 2, 0, 0, CollectiveOp::AllReduce, 10, site())
            .expect("first registration");
        let err = v
            .register_collective(1, 2, 1, 1, CollectiveOp::AllReduce, 11, site())
            .expect_err("all_reduce element counts must agree");
        assert!(err.contains("10 element"), "{err}");
        assert!(err.contains("11 element"), "{err}");
    }

    #[test]
    fn non_uniform_ops_allow_element_count_skew() {
        let v = VerifyState::new(2);
        v.register_collective(2, 2, 0, 0, CollectiveOp::AllGather, 5, site())
            .expect("first registration");
        v.register_collective(2, 2, 1, 1, CollectiveOp::AllGather, 9, site())
            .expect("all_gather contributions may be uneven");
    }

    #[test]
    fn sequence_skew_shows_up_as_pending_rounds() {
        let v = VerifyState::new(2);
        // Member 0 runs two barriers; member 1 has only run one.
        for _ in 0..2 {
            v.register_collective(0, 2, 0, 0, CollectiveOp::Barrier, 0, site())
                .expect("member 0 registrations");
        }
        v.register_collective(0, 2, 1, 1, CollectiveOp::Barrier, 0, site())
            .expect("member 1 registration");
        let pending = v.pending_collectives(0);
        assert_eq!(pending.len(), 1, "exactly the skewed round is pending: {pending:?}");
        assert!(pending[0].contains("collective #1"), "{}", pending[0]);
        assert!(pending[0].contains("missing members [1]"), "{}", pending[0]);
    }

    #[test]
    fn abort_is_first_writer_wins() {
        let v = VerifyState::new(1);
        assert!(v.try_set_aborted("first".into()));
        assert!(!v.try_set_aborted("second".into()));
        assert_eq!(v.report_text().as_deref(), Some("first"));
        assert!(v.is_aborted());
    }
}

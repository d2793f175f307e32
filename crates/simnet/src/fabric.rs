//! The communication fabric shared by all ranks of a [`World`].
//!
//! Every communicator context has one mailbox per member (a FIFO queue
//! behind a mutex), allocated as one slab when the context is created —
//! by `Fabric::new` for the world, by the split rendezvous for a group —
//! and carried by every member's [`Comm`](crate::Comm), so a post or a
//! take indexes the slab directly. The fabric keeps one map entry per
//! *context* (never per message) for the cold paths that must see every
//! mailbox: the strict-drain audit and the watchdog's wake-up hint.
//! Directed receive (`recv(from)`) is implemented by the receiving rank
//! stashing out-of-order messages — messages from one sender to one
//! receiver stay FIFO because they travel through a single queue and a
//! FIFO stash.
//!
//! The fabric also hosts the rendezvous state for **communicator splits**
//! (the MPI `comm_split` equivalent): a split is a collective, so all
//! members of the parent communicator deposit their `(color, key)` and the
//! last one to arrive partitions the members into groups, allocates one
//! fresh context (and mailbox slab) per group, and wakes everyone.
//!
//! ## One implementation of every blocking primitive
//!
//! A blocking primitive (mailbox take, split rendezvous, world barrier)
//! is one `async` body: check the condition under the primitive's lock,
//! register the wait with the [`verify`](crate::verify) layer, then loop
//! `yield_block(..).await` → re-check. Sends and collective entries
//! yield the same way (`yield_post`, `yield_collective`). What a yield
//! *does* depends on who hosts the rank, and `BatonYield::poll` is the
//! only code that knows:
//!
//! - **loop-hosted** (`World::run_async`): the continuation returns
//!   `Pending`; the executor polls whoever the scheduler's pick named.
//! - **thread-hosted under a schedule** (`World::run` with a seed or a
//!   prefix): the pick unparks the thread of the rank it named, and the
//!   yielding thread parks until the baton comes back.
//! - **thread-hosted free-running** (`World::run` without a schedule):
//!   there is no baton; a block parks the thread until a progress event
//!   — a post unparks the mailbox owner, a split completion or barrier
//!   release unparks its members, an abort or a death unparks everyone —
//!   and the body re-checks its condition.
//!
//! `thread::park` keeps a token, so an unpark that lands between a
//! failed check and the park is not lost; parks carry a timeout only as
//! a safety net. `Fabric::watchdog_scan` implements the deadlock
//! detector for free-running worlds (under a schedule a deadlock is
//! proven at pick time).
//!
//! Lock ordering (to keep the fabric itself deadlock-free): any
//! primitive lock (mailbox queue, split state, barrier state) → verify
//! slot or scheduler state, never the reverse; splits map → split state
//! → (state dropped) → splits map; split state → mailbox map (a leaf,
//! never held while taking another lock). The watchdog never holds a
//! verify slot while taking a fabric lock — it snapshots the slots first.
//! Nothing waits while holding a lock: hosts park on their own thread
//! handle, with no lock held.
//!
//! [`World`]: crate::world::World

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::future::Future;
use std::panic::Location;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::task::{Context, Poll};
use std::thread::{self, Thread};
use std::time::Duration;

use crate::fault::{FaultKick, FaultPlan, FaultState, MsgMeta};
use crate::readyset::ReadySet;
use crate::trace::{BlockPoint, ChoiceLog, Repro, Resource, SchedEvent, Schedule, ScheduleTrace};
use crate::verify::{
    lock_unpoisoned, CollectiveOp, Missing, RankSlot, VerifyState, WaitInfo, WaitKind,
};

/// Identifier of a communicator context. Every communicator created during
/// a run has a distinct context, so traffic on different communicators can
/// never be confused.
pub type Ctx = u64;

/// Context id of the world communicator (created by [`Fabric::new`]).
pub(crate) const WORLD_CTX: Ctx = 0;

/// Safety-net timeout of a thread host's park. Every progress event,
/// baton hand-off and abort unparks the threads it concerns, so this only
/// bounds the delay if an unpark were ever missed — it is not a busy-wait
/// interval.
const ABORT_POLL: Duration = Duration::from_millis(100);

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender's index *within the communicator* the message was sent on.
    pub from: usize,
    /// Sender's clock when the send was posted (used for critical-path
    /// accounting on the receiving side).
    pub sent_at: f64,
    /// The data; its length is the metered word count.
    pub payload: Vec<f64>,
    /// Sender's event count at send time (happens-before audit; see
    /// `crate::verify`).
    pub(crate) stamp: u64,
    /// Reliable-delivery metadata (sequence number + checksum); present
    /// iff the world runs with a fault plan.
    pub(crate) meta: Option<MsgMeta>,
}

/// One member's receive queue on one communicator context. Only its
/// owner ever takes from (and so blocks on) it.
pub(crate) struct Mailbox {
    q: Mutex<VecDeque<Message>>,
}

/// The mailboxes of one communicator context, indexed by member.
pub(crate) type Mailboxes = Arc<[Mailbox]>;

/// Result of a communicator split for a single color.
///
/// `members` and `mailboxes` are shared behind `Arc`s: the group is
/// computed once at the rendezvous and every member's `Comm` points at
/// the same allocations, so a world-sized split costs one member list per
/// *group*, not one per rank (an O(P^2) memory term at 10^5–10^6 ranks
/// otherwise).
#[derive(Clone)]
pub(crate) struct SplitGroup {
    pub ctx: Ctx,
    /// World ranks of the members, ordered by `(key, parent index)`.
    pub members: Arc<Vec<usize>>,
    /// The group's mailboxes, in member order.
    pub mailboxes: Mailboxes,
}

/// What a completed rendezvous computed.
struct SplitResult {
    /// color -> group.
    groups: HashMap<i64, SplitGroup>,
    /// Each depositor's index within its group, by parent index (unread
    /// for members that opted out or never deposited).
    index_in_group: Vec<usize>,
}

struct SplitState {
    /// `(color, key, world_rank)` per parent index; `None` until deposited.
    entries: Vec<Option<(i64, i64, usize)>>,
    /// Parent communicator's world ranks (so the fault layer can count
    /// which members are still alive).
    parent_members: Vec<usize>,
    arrived: usize,
    consumed: usize,
    /// Dead parent members that never deposited, counted at fault epoch
    /// `dead_epoch` (a corpse cannot deposit later, so the count holds
    /// until the epoch moves).
    dead_missing: usize,
    dead_epoch: u64,
    /// Populated by the last live rank to arrive.
    result: Option<Arc<SplitResult>>,
}

type SplitCell = Mutex<SplitState>;

struct BarrierState {
    /// Which world ranks have arrived in the current generation.
    arrived: Vec<bool>,
    count: usize,
    generation: u64,
    /// Fault epoch up to which corpses were counted into this
    /// generation (0 = none yet; reset at every release).
    swept_epoch: u64,
}

/// SplitMix64 step — the scheduler's tie-breaking PRNG, also the mixer
/// behind every fault-injection decision (see [`crate::fault`]). Tiny,
/// seedable, and fully deterministic, which is all either client needs.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

thread_local! {
    /// `Some` while this thread is inside [`probe_ready_sets`]; holds the
    /// sets of the last world it finished there.
    static READY_PROBE: RefCell<Option<Vec<Vec<usize>>>> = const { RefCell::new(None) };
}

/// Test hook: run `run`, which starts and finishes one scheduled world on
/// the calling thread, and also return the runnable set (ascending) the
/// scheduler held at each of that world's picks — read from its live
/// state, independently of the [`ChoiceLog`] the world records.
#[doc(hidden)]
pub fn probe_ready_sets<R>(run: impl FnOnce() -> R) -> (R, Vec<Vec<usize>>) {
    READY_PROBE.set(Some(Vec::new()));
    let out = run();
    (out, READY_PROBE.take().unwrap_or_default())
}

/// A rank's state in the deterministic scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankStatus {
    /// Runnable (or currently running, when it also holds the baton).
    Ready,
    /// Parked at a blocking point whose condition was unmet when checked.
    Blocked,
    /// Program finished (normally or by unwinding).
    Done,
}

struct SchedInner {
    /// SplitMix64 state, seeded from the schedule seed (untouched in
    /// prefix-replay mode).
    rng: u64,
    /// Next index into the prefix when the schedule is
    /// [`Schedule::Prefix`]; counts picks either way.
    cursor: usize,
    status: Vec<RankStatus>,
    /// The rank holding the execution baton, if any.
    current: Option<usize>,
    /// Whether to keep the event log and the [`ChoiceLog`]: O(1) work
    /// per pick and per status transition, O(picks) memory — which is
    /// all that turning it off saves.
    record: bool,
    /// Order-statistics mirror of the `Ready` entries of `status`;
    /// `select(k)` is the k-th smallest runnable rank.
    ready: ReadySet,
    /// Number of `Blocked` entries of `status`.
    blocked: usize,
    /// What each blocked rank blocks on (wake-key; `Some` exactly while
    /// the rank is `Blocked`). Guards stale `waiters` registrations, and
    /// *is* the wake list of a mailbox: only its owner ever blocks on
    /// one.
    blocked_on: Vec<Option<Resource>>,
    /// Wake lists of the shared resources (split cells, the barrier),
    /// keyed by blocking resource.
    waiters: HashMap<Resource, Vec<usize>>,
    /// Totally-ordered event log (appended under this mutex).
    events: Vec<SchedEvent>,
    /// First-class pick stream: the rank chosen at every pick, the
    /// fabric resources its segment touched (filled in as it executes),
    /// and every change `mark_blocked` / `mark_unblocked` / `mark_done`
    /// made to the runnable set. Stays empty when `record` is off.
    choices: ChoiceLog,
    /// Test probe: the runnable set at every pick, read back from
    /// `ready` member by member; `Some` iff the world was started inside
    /// [`probe_ready_sets`].
    ready_probe: Option<Vec<Vec<usize>>>,
}

impl SchedInner {
    fn push_event(&mut self, ev: SchedEvent) {
        if self.record {
            self.events.push(ev);
        }
    }

    /// Log that `r` joined (`ready`) or left the runnable set.
    fn log_transition(&mut self, r: usize, ready: bool) {
        if self.record {
            self.choices.push_transition(r, ready);
        }
    }

    fn mark_blocked(&mut self, r: usize, key: Resource) {
        debug_assert_eq!(self.status[r], RankStatus::Ready);
        self.status[r] = RankStatus::Blocked;
        self.ready.remove(r);
        self.log_transition(r, false);
        self.blocked += 1;
        self.blocked_on[r] = Some(key);
        if !matches!(key, Resource::Mailbox { .. }) {
            self.waiters.entry(key).or_default().push(r);
        }
    }

    fn mark_unblocked(&mut self, r: usize) {
        debug_assert_eq!(self.status[r], RankStatus::Blocked);
        self.status[r] = RankStatus::Ready;
        self.ready.insert(r);
        self.log_transition(r, true);
        self.blocked -= 1;
        self.blocked_on[r] = None;
    }

    fn mark_done(&mut self, r: usize) {
        match self.status[r] {
            RankStatus::Ready => {
                self.ready.remove(r);
                self.log_transition(r, false);
            }
            RankStatus::Blocked => {
                self.blocked -= 1;
                self.blocked_on[r] = None;
            }
            RankStatus::Done => {}
        }
        self.status[r] = RankStatus::Done;
    }

    /// Re-ready every blocked rank (a rank died, so any wait may have
    /// become hopeless). Rare: scan instead of keeping a list that every
    /// mailbox block would have to maintain. Unblock order is irrelevant
    /// — readiness is a set, and the next pick is a function of the set.
    fn unblock_all(&mut self) {
        self.waiters.clear();
        for r in 0..self.blocked_on.len() {
            if self.blocked_on[r].is_some() {
                self.mark_unblocked(r);
            }
        }
    }

    /// Re-ready the ranks blocked on the shared resource `key` (a
    /// mailbox has no list: see [`Fabric::sched_delivered`]).
    fn unblock_key(&mut self, key: Resource) {
        if let Some(list) = self.waiters.remove(&key) {
            for r in list {
                if self.blocked_on[r] == Some(key) {
                    self.mark_unblocked(r);
                }
            }
        }
    }
}

/// Cooperative deterministic scheduler: present iff the world was built
/// with [`World::with_seed`](crate::World::with_seed) or
/// [`World::with_schedule`](crate::World::with_schedule). Exactly one
/// rank runs at a time; the baton changes hands at every blocking point
/// and at every send / collective entry. Ties among runnable ranks are
/// resolved by the [`Schedule`]: a [`splitmix64`] draw when seeded, or
/// by following a recorded choice prefix (then always picking the
/// smallest runnable rank — the *canonical completion*) when replaying.
/// All scheduling decisions and fabric events are appended to `events`
/// under one mutex, so the log is totally ordered and identical
/// `(program, schedule)` pairs replay byte-identically.
struct DetState {
    schedule: Schedule,
    /// Copy of [`SchedInner::record`], readable without the lock.
    record: bool,
    st: Mutex<SchedInner>,
}

/// What [`Fabric::sched_pick_locked`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PickOutcome {
    /// The baton was handed to a runnable rank.
    Picked,
    /// Nobody is runnable, but nobody is blocked either (everyone is
    /// done) — nothing to do.
    Idle,
    /// Provable deadlock: nobody runnable, at least one rank blocked.
    Deadlock,
    /// Prefix replay named a rank that is not runnable at this pick —
    /// the prefix does not correspond to a reachable branch of this
    /// program's schedule tree.
    Diverged {
        /// The rank the prefix demanded.
        wanted: usize,
        /// Zero-based pick index at which it diverged.
        at: usize,
    },
}

/// What a [`BatonYield`] does on its first poll (the scheduler-visible
/// event of the yield point it encodes).
#[derive(Debug, Clone, Copy)]
enum YieldAction {
    Post { ctx: Ctx, to_world: usize, words: u64 },
    Collective { ctx: Ctx, op: CollectiveOp, elems: u64 },
    Block(BlockPoint),
}

/// The one suspension point of every rank program: a future whose first
/// poll performs a scheduler yield (recording the event and handing the
/// baton to the next pick) and which completes when `rank` may run again.
///
/// This `poll` is the only code that knows how a rank is hosted (see the
/// module docs). The loop executor upholds the invariant that only the
/// rank named by the scheduler's `current` is ever polled, and a thread
/// host under a schedule runs only between receiving the baton and its
/// next yield, so observing `current == Some(rank)` *is* baton
/// possession on both.
pub(crate) struct BatonYield<'f> {
    fabric: &'f Fabric,
    rank: usize,
    action: Option<YieldAction>,
}

impl Future for BatonYield<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        // All fields are Unpin, so plain mutable access is fine.
        let me = &mut *self;
        let (fabric, rank) = (me.fabric, me.rank);
        let action = me.action.take();
        let Some(det) = &fabric.det else {
            // Free-running thread host: there is no baton and nothing to
            // record. A block sleeps until a progress event unparks this
            // thread (or the safety-net timeout) and hands control back
            // so the caller re-checks its condition.
            if matches!(action, Some(YieldAction::Block(_))) {
                fabric.check_abort(rank);
                thread::park_timeout(ABORT_POLL);
                fabric.check_abort(rank);
            }
            return Poll::Ready(());
        };
        let holds_baton = match action {
            Some(action) => fabric.sched_yield_action(det, rank, action),
            None => fabric.sched_baton_ready(det, rank),
        };
        if holds_baton {
            return Poll::Ready(());
        }
        if fabric.hosts.is_empty() {
            // Loop-hosted: suspend; the executor polls the pick.
            return Poll::Pending;
        }
        // Thread-hosted under a schedule: the pick unparked the thread of
        // the rank it named; sleep until a later pick names this one.
        while !fabric.sched_baton_ready(det, rank) {
            thread::park_timeout(ABORT_POLL);
        }
        Poll::Ready(())
    }
}

/// The shared fabric. One per [`World`](crate::world::World); ranks hold it
/// behind an `Arc`.
pub struct Fabric {
    next_ctx: AtomicU64,
    /// Every context's mailbox slab — written once per communicator,
    /// read only by the cold paths (drain audit, watchdog hint);
    /// messages go through the slab a `Comm` carries.
    mailboxes: Mutex<HashMap<Ctx, Mailboxes>>,
    splits: Mutex<HashMap<(Ctx, u64), Arc<SplitCell>>>,
    /// Zero-cost world barrier, for callers that need to delimit phases
    /// without perturbing the metered costs.
    barrier: Mutex<BarrierState>,
    /// Communication-correctness state (wait registry, collective ledger,
    /// abort flag).
    pub(crate) verify: VerifyState,
    /// Deterministic scheduler; `None` in free-running (default) mode.
    det: Option<DetState>,
    /// Fault-injection state; `None` when the world has no fault plan
    /// (the default), in which case every fault hook is a no-op and the
    /// fabric behaves byte-identically to the pre-fault-layer code.
    fault: Option<FaultState>,
    /// The OS thread hosting each world rank, registered by the thread
    /// itself when it starts ([`Fabric::register_host`]). Empty when the
    /// world's ranks are continuations on the event loop.
    hosts: Box<[OnceLock<Thread>]>,
}

impl Fabric {
    pub(crate) fn new(world_size: usize) -> Fabric {
        let fabric = Fabric {
            next_ctx: AtomicU64::new(1),
            mailboxes: Mutex::new(HashMap::new()),
            splits: Mutex::new(HashMap::new()),
            barrier: Mutex::new(BarrierState {
                arrived: vec![false; world_size],
                count: 0,
                generation: 0,
                swept_epoch: 0,
            }),
            verify: VerifyState::new(world_size),
            det: None,
            fault: None,
            hosts: Box::default(),
        };
        fabric.new_mailboxes(WORLD_CTX, world_size);
        fabric
    }

    /// Allocate and register the mailbox slab of the `size`-member
    /// context `ctx`.
    fn new_mailboxes(&self, ctx: Ctx, size: usize) -> Mailboxes {
        let slab: Mailboxes =
            (0..size).map(|_| Mailbox { q: Mutex::new(VecDeque::new()) }).collect();
        lock_unpoisoned(&self.mailboxes).insert(ctx, slab.clone());
        slab
    }

    /// The registered mailbox slab of `ctx`, if the context exists.
    fn mailboxes_of(&self, ctx: Ctx) -> Option<Mailboxes> {
        lock_unpoisoned(&self.mailboxes).get(&ctx).cloned()
    }

    /// The world communicator's mailboxes.
    pub(crate) fn world_mailboxes(&self) -> Mailboxes {
        self.mailboxes_of(WORLD_CTX).expect("the world's mailboxes are created with the fabric")
    }

    /// Give every rank of this world an OS thread as host (sync-closure
    /// worlds). Must run before any rank starts; each thread then
    /// registers itself with [`Fabric::register_host`].
    pub(crate) fn host_on_threads(&mut self) {
        self.hosts = (0..self.verify.world_size()).map(|_| OnceLock::new()).collect();
    }

    /// Record the calling thread as the host of world rank `r`. A host
    /// registers before its first condition check, so a progress event
    /// that finds no handle has nobody to wake: the rank has not looked
    /// yet and will see the event's effect when it does.
    pub(crate) fn register_host(&self, r: usize) {
        let fresh = self.hosts[r].set(thread::current()).is_ok();
        debug_assert!(fresh, "rank {r} registered two host threads");
    }

    /// Unpark the thread hosting world rank `r`, if there is one.
    fn unpark(&self, r: usize) {
        if let Some(host) = self.hosts.get(r).and_then(OnceLock::get) {
            host.unpark();
        }
    }

    /// Unpark every host thread so parked ranks re-check their state (and
    /// observe an abort or a moved fault epoch).
    fn unpark_all(&self) {
        self.hosts.iter().filter_map(OnceLock::get).for_each(Thread::unpark);
    }

    /// Tear rank `r` down with an `AbortPanic` if the world has aborted.
    pub(crate) fn check_abort(&self, r: usize) {
        if self.verify.is_aborted() {
            self.verify.abort_panic(r);
        }
    }

    /// Attach a fault plan (validated) with its resolved decision seed.
    /// Like [`Fabric::enable_det`], must run before any rank starts.
    pub(crate) fn enable_faults(&mut self, plan: FaultPlan, seed: u64) {
        plan.validate();
        self.fault = Some(FaultState::new(plan, seed, self.verify.world_size()));
    }

    /// The attached fault state, if any.
    pub(crate) fn fault(&self) -> Option<&FaultState> {
        self.fault.as_ref()
    }

    /// Current fault epoch (0 when no plan is attached or nobody died).
    pub(crate) fn fault_epoch(&self) -> u64 {
        self.fault.as_ref().map_or(0, FaultState::epoch)
    }

    /// World ranks killed so far (empty without a plan).
    pub(crate) fn dead_ranks(&self) -> Vec<usize> {
        self.fault.as_ref().map_or_else(Vec::new, FaultState::dead_ranks)
    }

    fn is_dead_rank(&self, world_rank: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.is_dead(world_rank))
    }

    /// Record the death of `world_rank` and propagate it: note it for the
    /// failure report, bump the fault epoch, count the corpse as arrived
    /// in the world barrier, complete any split rendezvous that was only
    /// waiting on dead ranks, and wake every blocked primitive so
    /// survivors re-check their conditions (and observe the new epoch).
    pub(crate) fn mark_rank_dead(&self, world_rank: usize, note: String) {
        let Some(fault) = &self.fault else { return };
        if !fault.mark_dead(world_rank) {
            return;
        }
        self.verify.note_rank_failure(note);
        {
            let mut st = lock_unpoisoned(&self.barrier);
            self.barrier_sweep_dead_locked(&mut st);
        }
        let cells: Vec<Arc<SplitCell>> = lock_unpoisoned(&self.splits).values().cloned().collect();
        for cell in cells {
            self.split_try_complete(&mut lock_unpoisoned(&cell));
        }
        self.unpark_all();
        self.sched_unblock_all();
    }

    /// Mark every dead, not-yet-arrived rank as arrived in the current
    /// barrier generation; release the barrier if that completes it.
    /// No-op without a fault plan.
    ///
    /// The O(P) scan runs only when the fault epoch moved since this
    /// generation's last sweep — every corpse of an unmoved epoch is
    /// already counted.
    fn barrier_sweep_dead_locked(&self, st: &mut BarrierState) {
        let Some(fault) = &self.fault else { return };
        // Read the epoch before the dead set: a death is flagged before
        // its epoch bump, so every death up to `epoch` is visible below.
        let epoch = fault.epoch();
        if epoch == st.swept_epoch {
            return;
        }
        st.swept_epoch = epoch;
        let n = st.arrived.len();
        for r in 0..n {
            if !st.arrived[r] && fault.is_dead(r) {
                st.arrived[r] = true;
                st.count += 1;
            }
        }
        if st.count == n && n > 0 {
            Self::barrier_release_locked(st);
        }
    }

    /// Open the next barrier generation (the caller wakes the waiters
    /// of this one).
    fn barrier_release_locked(st: &mut BarrierState) {
        st.count = 0;
        st.arrived.iter_mut().for_each(|a| *a = false);
        st.generation += 1;
        st.swept_epoch = 0;
    }

    /// Whether a rank inside a failure-catching scope (watching from
    /// `watch`) should be kicked out of a blocking wait because the fault
    /// epoch moved under it.
    fn fault_kicked(&self, fault_watch: Option<u64>) -> bool {
        fault_watch.is_some_and(|watch| self.fault_epoch() > watch)
    }

    /// Whether a watched directed receive must abandon its wait: the
    /// fault epoch moved past the watermark, **or** the awaited peer is
    /// already dead. The second arm matters when the peer died between
    /// this rank's last dead-set read and the arming of its catch scope
    /// — that death never bumps the epoch again, so the watermark alone
    /// would leave the receiver blocked on a corpse forever.
    fn recv_fault_kicked(&self, fault_watch: Option<u64>, from_world: usize) -> bool {
        fault_watch.is_some() && (self.fault_kicked(fault_watch) || self.is_dead_rank(from_world))
    }

    /// Switch this fabric into deterministic scheduling mode under a
    /// [`Schedule`]. Must be called before any rank starts (the world
    /// does this between constructing the fabric and starting its
    /// hosts); every rank begins runnable and [`Fabric::sched_start`]
    /// makes the first pick. `record` controls whether the event log and
    /// the [`ChoiceLog`] are kept — see the `SchedInner` field docs.
    pub(crate) fn enable_schedule(&mut self, schedule: Schedule, record: bool) {
        let n = self.verify.world_size();
        let rng = match &schedule {
            Schedule::Seeded(seed) => *seed,
            Schedule::Prefix(_) => 0,
        };
        let mut ready = ReadySet::new(n);
        (0..n).for_each(|r| ready.insert(r));
        self.det = Some(DetState {
            schedule,
            record,
            st: Mutex::new(SchedInner {
                rng,
                cursor: 0,
                status: vec![RankStatus::Ready; n],
                current: None,
                record,
                ready,
                blocked: 0,
                blocked_on: vec![None; n],
                waiters: HashMap::new(),
                events: Vec::new(),
                choices: ChoiceLog::new(n),
                ready_probe: READY_PROBE.with_borrow(Option::is_some).then(Vec::new),
            }),
        });
    }

    /// The canonical replay recipe for this fabric's schedule, if
    /// deterministic mode is on. In prefix mode the recipe names the
    /// choices *actually made so far* (not just the configured prefix),
    /// so a failure deep in the canonical completion still replays.
    pub(crate) fn sched_repro(&self) -> Option<Repro> {
        let det = self.det.as_ref()?;
        let st = lock_unpoisoned(&det.st);
        Some(Self::sched_repro_locked(det, &st))
    }

    fn sched_repro_locked(det: &DetState, st: &SchedInner) -> Repro {
        match &det.schedule {
            Schedule::Seeded(seed) => Repro::Seed(*seed),
            Schedule::Prefix(_) => Repro::Prefix(st.choices.chosen().to_vec()),
        }
    }

    /// Extract the recorded schedule trace (deterministic mode only).
    /// Prefix-replay runs report seed 0 in the trace header; their
    /// identity is the choice prefix, not a seed.
    pub(crate) fn take_sched_trace(&self) -> Option<ScheduleTrace> {
        let det = self.det.as_ref()?;
        let mut st = lock_unpoisoned(&det.st);
        if !st.record {
            return None;
        }
        let seed = match &det.schedule {
            Schedule::Seeded(seed) => *seed,
            Schedule::Prefix(_) => 0,
        };
        Some(ScheduleTrace { seed, events: std::mem::take(&mut st.events) })
    }

    /// Extract the recorded [`ChoiceLog`] (deterministic mode only), and
    /// hand the probed runnable sets, if any, to [`probe_ready_sets`].
    pub(crate) fn take_choice_log(&self) -> Option<ChoiceLog> {
        let det = self.det.as_ref()?;
        let mut st = lock_unpoisoned(&det.st);
        if let Some(sets) = st.ready_probe.take() {
            READY_PROBE.set(Some(sets));
        }
        if !st.record {
            return None;
        }
        Some(std::mem::take(&mut st.choices))
    }

    /// Record that the currently-running segment touched `res` — the
    /// resource-footprint hook behind every mailbox post/pop, split
    /// deposit, barrier arrival, and collective registration. Appends to
    /// the latest pick's footprint in the [`ChoiceLog`] (deduplicated).
    /// No-op in free-running mode and when schedule recording is off
    /// (there is no pick to append to). Callers may hold a primitive lock:
    /// the established lock order is primitive → scheduler, never the
    /// reverse.
    pub(crate) fn det_touch(&self, res: Resource) {
        let Some(det) = &self.det else { return };
        if det.record {
            lock_unpoisoned(&det.st).choices.push_touch(res);
        }
    }

    // ----- deterministic scheduler ------------------------------------------

    /// Make the first pick: every rank is runnable and none has run, so
    /// whoever holds the baton afterwards is the first to execute. The
    /// loop executor then polls that rank; a thread host finds the baton
    /// waiting (or parks for it) when it starts.
    pub(crate) fn sched_start(&self) {
        if let Some(det) = &self.det {
            self.sched_pick(det, lock_unpoisoned(&det.st));
        }
    }

    /// Re-ready every blocked rank after a death. The caller keeps the
    /// baton; the re-readied ranks re-check their conditions when next
    /// picked.
    fn sched_unblock_all(&self) {
        let Some(det) = &self.det else { return };
        lock_unpoisoned(&det.st).unblock_all();
    }

    /// Progress event on the shared resource `key` (a split cell or the
    /// barrier), whose members are the world ranks `members`: the ranks
    /// blocked on `key` are re-readied. Without a schedule the members'
    /// host threads are unparked instead.
    fn sched_wake(&self, key: Resource, members: impl IntoIterator<Item = usize>) {
        let Some(det) = &self.det else {
            members.into_iter().for_each(|r| self.unpark(r));
            return;
        };
        lock_unpoisoned(&det.st).unblock_key(key);
    }

    /// A message landed in mailbox `index` of `ctx`, owned by world rank
    /// `owner`: charge the mailbox to the running segment's footprint
    /// and re-ready the owner — the one rank that can be blocked on a
    /// mailbox — under one scheduler lock. Without a schedule the
    /// owner's host thread is unparked instead.
    fn sched_delivered(&self, ctx: Ctx, index: usize, owner: usize) {
        let Some(det) = &self.det else {
            self.unpark(owner);
            return;
        };
        let key = Resource::Mailbox { ctx, index };
        let mut st = lock_unpoisoned(&det.st);
        st.choices.push_touch(key);
        if st.blocked_on[owner] == Some(key) {
            st.mark_unblocked(owner);
        }
    }

    /// Retire rank `r` once its program has finished or unwound: hand
    /// the baton on, then mark the rank done in the verify registry (so
    /// the watchdog treats it as inert — anyone blocked on it is then
    /// provably deadlocked, not "maybe about to be served"). If the
    /// departing rank held the baton and everyone left is blocked, that
    /// is a deadlock — abort so the blocked ranks tear down instead of
    /// waiting on a rank that no longer exists.
    pub(crate) fn retire(&self, r: usize) {
        self.sched_finish(r);
        self.verify.mark_done(r);
    }

    fn sched_finish(&self, r: usize) {
        let Some(det) = &self.det else { return };
        let mut st = lock_unpoisoned(&det.st);
        st.mark_done(r);
        st.push_event(SchedEvent::Done { rank: r });
        if st.current == Some(r) {
            st.current = None;
            // On a failed pick the rank is already gone, so nobody is
            // torn down here: the blocked ranks observe the abort flag
            // when they are woken and tear themselves down.
            if !self.verify.is_aborted() {
                self.sched_pick(det, st);
            }
        }
    }

    /// Hand the baton to the next runnable rank — drawn from the seeded
    /// PRNG, or dictated by the prefix (then the smallest runnable rank,
    /// the canonical completion) — and unpark its host thread, if it has
    /// one. Records the pick in the [`ChoiceLog`]: O(1), the runnable set
    /// it chose from is implied by the transitions logged since the last
    /// pick.
    ///
    /// The pick is a deterministic function of (ready set, schedule
    /// state): `ReadySet::select(k)` is the k-th smallest runnable rank,
    /// exactly what indexing the old ascending `ready` vector was, so
    /// pick streams are bit-identical to the seed-era O(P)-per-pick
    /// implementation.
    fn sched_pick_locked(&self, det: &DetState, st: &mut SchedInner) -> PickOutcome {
        let count = st.ready.len();
        if count == 0 {
            st.current = None;
            return if st.blocked == 0 { PickOutcome::Idle } else { PickOutcome::Deadlock };
        }
        let r = match &det.schedule {
            Schedule::Seeded(_) => {
                st.ready.select((splitmix64(&mut st.rng) % count as u64) as usize)
            }
            Schedule::Prefix(prefix) => match prefix.get(st.cursor) {
                Some(&want) if want < st.status.len() && st.status[want] == RankStatus::Ready => {
                    want
                }
                Some(&want) => return PickOutcome::Diverged { wanted: want, at: st.cursor },
                None => st.ready.select(0),
            },
        };
        st.cursor += 1;
        if st.record {
            st.choices.push_pick(r);
            st.events.push(SchedEvent::Pick { rank: r });
        }
        if let Some(sets) = &mut st.ready_probe {
            sets.push(st.ready.members());
        }
        st.current = Some(r);
        self.unpark(r);
        PickOutcome::Picked
    }

    /// Build the abort report for a [`PickOutcome::Diverged`] prefix.
    fn diverged_report(det: &DetState, st: &SchedInner, wanted: usize, at: usize) -> String {
        let repro = Self::sched_repro_locked(det, st);
        format!(
            "pmm-simnet: schedule prefix diverged at choice #{at}: the prefix demands rank \
             {wanted}, which is not runnable there — the prefix does not name a reachable \
             branch of this program's schedule tree\n\
             choices made before the divergence: {}\n",
            repro.hint()
        )
    }

    /// Hand the baton on ([`Fabric::sched_pick_locked`]) and return its
    /// new holder. When no pick is possible — a provable deadlock, or a
    /// prefix naming a rank that is not runnable — abort the world with
    /// the report instead.
    fn sched_pick(&self, det: &DetState, mut st: MutexGuard<'_, SchedInner>) -> Option<usize> {
        let report = match self.sched_pick_locked(det, &mut st) {
            PickOutcome::Picked | PickOutcome::Idle => return st.current,
            PickOutcome::Diverged { wanted, at } => {
                let report = Self::diverged_report(det, &st, wanted, at);
                drop(st);
                report
            }
            PickOutcome::Deadlock => {
                let stuck: Vec<usize> = st
                    .status
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &s)| (s == RankStatus::Blocked).then_some(i))
                    .collect();
                let repro = Self::sched_repro_locked(det, &st);
                drop(st);
                let mut report = self.deadlock_report(&self.verify.snapshot(), &stuck);
                report.push_str(&format!("deterministic schedule — {}\n", repro.hint()));
                report
            }
        };
        self.abort(report);
        None
    }

    /// The rank currently holding the baton (the loop executor's poll
    /// target). `None` after the last rank finishes or when the world
    /// aborted mid-pick.
    pub(crate) fn sched_current(&self) -> Option<usize> {
        let det = self.det.as_ref()?;
        lock_unpoisoned(&det.st).current
    }

    /// Wait for the baton without yielding it first — how a thread host
    /// starts its rank (ready at once without a schedule).
    pub(crate) fn baton(&self, rank: usize) -> BatonYield<'_> {
        BatonYield { fabric: self, rank, action: None }
    }

    /// Record a message post in the schedule trace and yield the baton
    /// (the sender stays runnable and may be re-picked immediately).
    pub(crate) fn yield_post(
        &self,
        from_world: usize,
        ctx: Ctx,
        to_world: usize,
        words: u64,
    ) -> BatonYield<'_> {
        BatonYield {
            fabric: self,
            rank: from_world,
            action: Some(YieldAction::Post { ctx, to_world, words }),
        }
    }

    /// Record a collective entry in the schedule trace and yield the
    /// baton, exactly like [`Fabric::yield_post`]. The ledger
    /// registration that precedes this call is part of the segment's
    /// footprint.
    pub(crate) fn yield_collective(
        &self,
        rank: usize,
        ctx: Ctx,
        op: CollectiveOp,
        elems: u64,
    ) -> BatonYield<'_> {
        BatonYield { fabric: self, rank, action: Some(YieldAction::Collective { ctx, op, elems }) }
    }

    /// Release the baton at a blocking point whose condition is unmet.
    /// The await completes once this rank may run again; the caller then
    /// re-checks its condition and re-blocks if still unmet. Under a
    /// schedule this detects deadlock synchronously: if no rank is
    /// runnable while some rank is blocked, every blocked rank has
    /// re-checked its condition since the last event that could have met
    /// it (a post re-readies the mailbox owner, a split completion or
    /// barrier release its waiters, a death everyone), so no wake-up can
    /// ever come — abort with a deadlock report.
    pub(crate) fn yield_block(&self, rank: usize, point: BlockPoint) -> BatonYield<'_> {
        BatonYield { fabric: self, rank, action: Some(YieldAction::Block(point)) }
    }

    /// First-poll action of a [`BatonYield`]: log the event, update rank
    /// state, and hand the baton to the next pick. Returns whether the
    /// pick handed the baton straight back to the yielding rank.
    fn sched_yield_action(&self, det: &DetState, rank: usize, action: YieldAction) -> bool {
        let mut st = lock_unpoisoned(&det.st);
        match action {
            YieldAction::Post { ctx, to_world, words } => {
                st.push_event(SchedEvent::Post { from_world: rank, ctx, to_world, words });
            }
            YieldAction::Collective { ctx, op, elems } => {
                st.push_event(SchedEvent::Collective { rank, ctx, op, elems });
                st.choices.push_touch(Resource::Ledger { ctx });
            }
            YieldAction::Block(point) => {
                // The failed condition check *read* the blocking
                // resource: a reordering against whoever writes it would
                // change what this segment observed, so it belongs to the
                // footprint.
                let res = match point {
                    BlockPoint::Recv { ctx, index } => Resource::Mailbox { ctx, index },
                    BlockPoint::Split { ctx, seq } => Resource::SplitCell { ctx, seq },
                    BlockPoint::Barrier { .. } => Resource::Barrier,
                };
                st.mark_blocked(rank, res);
                st.push_event(SchedEvent::Block { rank, point });
                st.choices.push_touch(res);
            }
        }
        let holder = self.sched_pick(det, st);
        // A failed pick aborted the world: tear the yielding rank down
        // (the panic unwinds out of `poll` into its host's `catch_unwind`).
        self.check_abort(rank);
        holder == Some(rank)
    }

    /// Does `r` hold the baton? Tears the rank down with an `AbortPanic`
    /// if the world aborted (its host's `catch_unwind` classifies it).
    fn sched_baton_ready(&self, det: &DetState, r: usize) -> bool {
        self.check_abort(r);
        lock_unpoisoned(&det.st).current == Some(r)
    }

    /// Take the next message from member `index`'s mailbox on context
    /// `ctx`, waiting for one if none is queued (in arrival order;
    /// directed matching is done by the rank's stash). `mailboxes` is the
    /// context's slab; `from_world` is the world rank of the sender the
    /// caller is ultimately waiting for (deadlock-report metadata).
    ///
    /// `fault_watch` is the caller's fault-epoch watermark when it is
    /// inside a failure-catching scope: if a rank dies while we wait
    /// (epoch moves past the watermark) the wait returns `None` — after
    /// draining anything already queued — so the caller can surface a
    /// typed failure instead of hanging on a corpse.
    #[allow(clippy::too_many_arguments)] // the mailbox plus its deadlock-report metadata
    pub(crate) async fn take_any_a(
        &self,
        mailboxes: &[Mailbox],
        ctx: Ctx,
        index: usize,
        me_world: usize,
        from_world: usize,
        site: &'static Location<'static>,
        fault_watch: Option<u64>,
    ) -> Option<Message> {
        let mb = &mailboxes[index];
        {
            let mut q = lock_unpoisoned(&mb.q);
            if let Some(m) = q.pop_front() {
                self.det_touch(Resource::Mailbox { ctx, index });
                return Some(m);
            }
            if self.recv_fault_kicked(fault_watch, from_world) {
                return None;
            }
        }
        self.verify.set_wait(
            me_world,
            WaitInfo { kind: WaitKind::Recv { from_world, ctx_index: index }, ctx, site },
        );
        loop {
            self.yield_block(me_world, BlockPoint::Recv { ctx, index }).await;
            let mut q = lock_unpoisoned(&mb.q);
            if let Some(m) = q.pop_front() {
                self.det_touch(Resource::Mailbox { ctx, index });
                self.verify.clear_wait(me_world);
                return Some(m);
            }
            if self.recv_fault_kicked(fault_watch, from_world) {
                self.verify.clear_wait(me_world);
                return None;
            }
        }
    }

    fn alloc_ctx(&self) -> Ctx {
        self.next_ctx.fetch_add(1, Ordering::Relaxed)
    }

    /// Post `msg` to member `to` (world rank `to_world`) of context `ctx`,
    /// whose mailboxes are `mailboxes`. Never blocks (mailboxes are
    /// unbounded).
    pub(crate) fn post(
        &self,
        mailboxes: &[Mailbox],
        ctx: Ctx,
        to: usize,
        to_world: usize,
        msg: Message,
    ) {
        lock_unpoisoned(&mailboxes[to].q).push_back(msg);
        // A delivery is a progress event: let the owner re-check its
        // condition.
        self.sched_delivered(ctx, to, to_world);
    }

    /// Arrive at the barrier: sweep corpses, deposit this rank, and
    /// either release the barrier (returns `None`, waiters woken) or
    /// register the verify wait and return the generation to wait out.
    fn barrier_arrive(&self, me_world: usize, site: &'static Location<'static>) -> Option<u64> {
        let world_size = self.verify.world_size();
        let mut st = lock_unpoisoned(&self.barrier);
        // Dead ranks can never arrive; count them so survivors are not
        // stuck waiting for a corpse (no-op without a fault plan).
        self.barrier_sweep_dead_locked(&mut st);
        let entered_gen = st.generation;
        st.arrived[me_world] = true;
        st.count += 1;
        self.det_touch(Resource::Barrier);
        if st.count == world_size {
            Self::barrier_release_locked(&mut st);
            self.sched_wake(Resource::Barrier, 0..world_size);
            return None;
        }
        let kind = WaitKind::Barrier { generation: entered_gen };
        self.verify.set_wait(me_world, WaitInfo { kind, ctx: WORLD_CTX, site });
        Some(entered_gen)
    }

    /// Zero-cost synchronization of all world ranks (not metered; test and
    /// phase-delimiting use only).
    pub(crate) async fn hard_sync_a(&self, me_world: usize, site: &'static Location<'static>) {
        if self.verify.world_size() <= 1 || self.is_dead_rank(me_world) {
            return;
        }
        let Some(entered_gen) = self.barrier_arrive(me_world, site) else { return };
        loop {
            self.yield_block(me_world, BlockPoint::Barrier { generation: entered_gen }).await;
            if lock_unpoisoned(&self.barrier).generation != entered_gen {
                break;
            }
        }
        self.verify.clear_wait(me_world);
    }

    /// Complete a split rendezvous if every still-alive parent member has
    /// deposited (with at least one deposit): partition the deposited
    /// entries into groups and allocate their contexts and mailboxes.
    /// Without a fault plan "every alive member" is "every member", which
    /// is exactly the pre-fault-layer completion rule.
    ///
    /// Decided from counts, so a deposit costs O(1): the per-member scan
    /// for corpses runs only when the fault epoch moved since this
    /// cell's last scan (a death is the only way a rendezvous completes
    /// short of full attendance).
    fn split_try_complete(&self, st: &mut SplitState) {
        if st.result.is_some() || st.arrived == 0 {
            return;
        }
        // Epoch before dead set, as in `barrier_sweep_dead_locked`.
        let epoch = self.fault_epoch();
        if epoch != st.dead_epoch {
            st.dead_epoch = epoch;
            st.dead_missing = st
                .parent_members
                .iter()
                .enumerate()
                .filter(|&(i, &w)| st.entries[i].is_none() && self.is_dead_rank(w))
                .count();
        }
        if st.arrived + st.dead_missing < st.parent_members.len() {
            return;
        }
        let mut by_color: HashMap<i64, Vec<(i64, usize, usize)>> = HashMap::new();
        for (parent_idx, e) in st.entries.iter().enumerate() {
            // Entries of dead members stay `None` and simply do not join
            // any group — the survivors' groups shrink around them.
            let Some((c, k, w)) = *e else { continue };
            if c >= 0 {
                by_color.entry(c).or_default().push((k, parent_idx, w));
            }
        }
        let mut groups = HashMap::new();
        let mut index_in_group = vec![0; st.entries.len()];
        let mut colors: Vec<i64> = by_color.keys().copied().collect();
        colors.sort_unstable(); // deterministic ctx assignment
        for c in colors {
            let mut v = by_color.remove(&c).unwrap_or_else(|| {
                panic!("split rendezvous: color {c} vanished while grouping — fabric bug")
            });
            v.sort_unstable(); // by (key, parent index)
            for (i, &(_, parent_idx, _)) in v.iter().enumerate() {
                index_in_group[parent_idx] = i;
            }
            let members: Vec<usize> = v.into_iter().map(|(_, _, w)| w).collect();
            let ctx = self.alloc_ctx();
            let mailboxes = self.new_mailboxes(ctx, members.len());
            groups.insert(c, SplitGroup { ctx, members: Arc::new(members), mailboxes });
        }
        st.result = Some(Arc::new(SplitResult { groups, index_in_group }));
    }

    /// Collective communicator split. Called by every member of the parent
    /// context; `seq` is the caller's per-parent split sequence number
    /// (all members must call splits in the same order). `parent_members`
    /// are the parent communicator's world ranks in communicator order.
    ///
    /// `color < 0` means "no new communicator for me" (MPI_UNDEFINED).
    /// Returns the group for `color` with the caller's index in it, or
    /// `None` for negative colors.
    /// `fault_watch` works as in [`Fabric::take_any_a`]: `Err(FaultKick)`
    /// means a rank died mid-rendezvous while the caller was inside a
    /// failure-catching scope.
    #[allow(clippy::too_many_arguments)] // a rendezvous genuinely needs all of these
    pub(crate) async fn split_a(
        &self,
        parent_ctx: Ctx,
        parent_members: &[usize],
        seq: u64,
        my_parent_index: usize,
        my_world_rank: usize,
        color: i64,
        key: i64,
        site: &'static Location<'static>,
        fault_watch: Option<u64>,
    ) -> Result<Option<(SplitGroup, usize)>, FaultKick> {
        let cell = self.split_cell(parent_ctx, parent_members, seq);
        let completed = self.split_deposit(
            &cell,
            parent_ctx,
            seq,
            my_parent_index,
            my_world_rank,
            color,
            key,
            site,
        );
        if !completed {
            while !self.fault_kicked(fault_watch) {
                self.yield_block(my_world_rank, BlockPoint::Split { ctx: parent_ctx, seq }).await;
                if lock_unpoisoned(&cell).result.is_some() {
                    break;
                }
            }
            self.verify.clear_wait(my_world_rank);
        }
        // Kicked out of the wait — or a death is what completed the
        // rendezvous (the dead member discounted), and the group is short
        // of what a watched caller laid out. Unwatched callers (recovery
        // splits) keep the survivors-only group.
        if self.fault_kicked(fault_watch) {
            return Err(FaultKick);
        }
        Ok(self.split_finish(&cell, parent_ctx, seq, my_parent_index, my_world_rank, color))
    }

    /// Find or create the rendezvous cell for split `seq` of
    /// `parent_ctx`.
    fn split_cell(&self, parent_ctx: Ctx, parent_members: &[usize], seq: u64) -> Arc<SplitCell> {
        let mut splits = lock_unpoisoned(&self.splits);
        splits
            .entry((parent_ctx, seq))
            .or_insert_with(|| {
                Arc::new(Mutex::new(SplitState {
                    entries: vec![None; parent_members.len()],
                    parent_members: parent_members.to_vec(),
                    arrived: 0,
                    consumed: 0,
                    dead_missing: 0,
                    dead_epoch: 0,
                    result: None,
                }))
            })
            .clone()
    }

    /// Deposit one member's `(color, key)` into the rendezvous. Returns
    /// `true` if the split completed (waiters woken); on `false` the
    /// caller's verify wait is registered and it must wait for the
    /// result. Aborts the world on a double deposit.
    #[allow(clippy::too_many_arguments)]
    fn split_deposit(
        &self,
        cell: &SplitCell,
        parent_ctx: Ctx,
        seq: u64,
        my_parent_index: usize,
        my_world_rank: usize,
        color: i64,
        key: i64,
        site: &'static Location<'static>,
    ) -> bool {
        let mut st = lock_unpoisoned(cell);
        if st.entries[my_parent_index].is_some() {
            drop(st);
            self.abort(format!(
                "pmm-verify: world rank {my_world_rank} deposited twice into split #{seq} of \
                 ctx {parent_ctx} at {site} — members issued splits in different orders"
            ));
            self.verify.abort_panic(my_world_rank);
        }
        st.entries[my_parent_index] = Some((color, key, my_world_rank));
        st.arrived += 1;
        self.det_touch(Resource::SplitCell { ctx: parent_ctx, seq });
        self.split_try_complete(&mut st);
        if st.result.is_some() {
            let key = Resource::SplitCell { ctx: parent_ctx, seq };
            self.sched_wake(key, st.parent_members.iter().copied());
            true
        } else {
            self.verify.set_wait(
                my_world_rank,
                WaitInfo { kind: WaitKind::Split { seq }, ctx: parent_ctx, site },
            );
            false
        }
    }

    /// Read the completed result, retire this consumer (freeing the
    /// rendezvous slot once every depositor has read it), and project out
    /// the caller's color group and its index in it.
    fn split_finish(
        &self,
        cell: &SplitCell,
        parent_ctx: Ctx,
        seq: u64,
        my_parent_index: usize,
        my_world_rank: usize,
        color: i64,
    ) -> Option<(SplitGroup, usize)> {
        let mut st = lock_unpoisoned(cell);
        let result = st
            .result
            .as_ref()
            .unwrap_or_else(|| {
                panic!("split #{seq} on ctx {parent_ctx}: woke without a result — fabric bug")
            })
            .clone();
        st.consumed += 1;
        // Once the result is set no further deposits are accepted, so
        // `arrived` is frozen and "everyone who deposited has read it" is
        // the cleanup condition (equal to the old `== parent size` rule in
        // fault-free worlds). A member kicked out mid-wait never consumes;
        // its cell is left behind, which only an injected death can cause.
        let everyone_done = st.consumed == st.arrived;
        drop(st); // splits-map lock is taken next; never hold state across it
        if everyone_done {
            // Everyone has read the result; free the rendezvous slot so
            // long runs don't accumulate split state.
            lock_unpoisoned(&self.splits).remove(&(parent_ctx, seq));
        }

        if color < 0 {
            return None;
        }
        let group = result.groups.get(&color).unwrap_or_else(|| {
            panic!(
                "split #{seq} on ctx {parent_ctx}: world rank {my_world_rank}'s color {color} \
                 missing from the computed groups — fabric bug"
            )
        });
        Some((group.clone(), result.index_in_group[my_parent_index]))
    }

    /// Abort the world: store `report`, set the abort flag, and wake every
    /// parked host so ranks tear themselves down promptly (a suspended
    /// continuation is dropped by the loop executor). First abort wins;
    /// later calls are no-ops.
    pub(crate) fn abort(&self, report: String) {
        if self.verify.try_set_aborted(report) {
            self.unpark_all();
        }
    }

    /// Count of messages posted but never taken, per mailbox (strict-drain
    /// audit).
    pub(crate) fn residual_messages(&self) -> Vec<(Ctx, usize, usize)> {
        let map = lock_unpoisoned(&self.mailboxes);
        let mut out: Vec<(Ctx, usize, usize)> = map
            .iter()
            .flat_map(|(&ctx, slab)| slab.iter().enumerate().map(move |(i, mb)| (ctx, i, mb)))
            .filter_map(|(ctx, index, mb)| {
                let n = lock_unpoisoned(&mb.q).len();
                (n > 0).then_some((ctx, index, n))
            })
            .collect();
        out.sort_unstable();
        out
    }

    // ----- deadlock watchdog ------------------------------------------------

    /// One watchdog pass over the wait registry. Returns a deadlock report
    /// when the same non-empty set of ranks is blocked with no possible
    /// progress for two consecutive scans (`prev` carries the candidate
    /// set between scans as `(rank, wait-generation)` pairs).
    ///
    /// "Possible progress" is computed as a fixpoint: running ranks can
    /// progress; a blocked rank whose wait already has its wake-up
    /// condition satisfied (message queued, split result computed, barrier
    /// generation advanced) can progress; and a blocked rank waiting on
    /// any rank that can progress might still be served. Only ranks
    /// outside that closure are deadlocked — so the detector never flags a
    /// slow-but-live schedule.
    pub(crate) fn watchdog_scan(&self, prev: &mut Option<Vec<(usize, u64)>>) -> Option<String> {
        if self.verify.is_aborted() {
            return None;
        }
        let views = self.verify.snapshot();
        let missing = self.missing_members(&views);
        let n = views.len();
        // Running ranks can progress, and so can blocked ranks whose wait
        // condition is already met (the wake-up hints).
        let mut progressable = vec![false; n];
        for (r, v) in views.iter().enumerate() {
            progressable[r] = match &v.wait {
                None => !v.done,
                Some(WaitInfo { kind: WaitKind::Recv { ctx_index, .. }, ctx, .. }) => self
                    .mailboxes_of(*ctx)
                    .is_some_and(|slab| !lock_unpoisoned(&slab[*ctx_index].q).is_empty()),
                Some(w) => missing[&(w.ctx, w.kind)].is_none(),
            };
        }
        // Propagate progress potential along wait-for edges.
        loop {
            let mut changed = false;
            for (r, v) in views.iter().enumerate() {
                if progressable[r] {
                    continue;
                }
                let Some(w) = &v.wait else { continue };
                if w.waiting_on(&missing).iter().any(|&o| o < n && progressable[o]) {
                    progressable[r] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let deadlocked: Vec<(usize, u64)> = views
            .iter()
            .enumerate()
            .filter(|&(r, v)| v.wait.is_some() && !progressable[r])
            .map(|(r, v)| (r, v.gen))
            .collect();
        if deadlocked.is_empty() {
            *prev = None;
            return None;
        }
        if prev.as_ref() != Some(&deadlocked) {
            // New candidate set (or a rank re-blocked, bumping its
            // generation): require one more stable scan before aborting.
            *prev = Some(deadlocked);
            return None;
        }
        let stuck: Vec<usize> = deadlocked.iter().map(|&(r, _)| r).collect();
        Some(self.deadlock_report(&views, &stuck))
    }

    /// For every rendezvous some rank in `views` waits in, who is still
    /// missing from it now — one lock and one member scan per rendezvous,
    /// however many ranks wait in it (a blocked arrival records nothing).
    fn missing_members(&self, views: &[RankSlot]) -> Missing {
        let mut missing = Missing::new();
        for w in views.iter().filter_map(|v| v.wait.as_ref()) {
            let list = match w.kind {
                WaitKind::Recv { .. } => continue,
                _ if missing.contains_key(&(w.ctx, w.kind)) => continue,
                // A cell every depositor has consumed is gone from the map.
                WaitKind::Split { seq } => {
                    let cell = lock_unpoisoned(&self.splits).get(&(w.ctx, seq)).cloned();
                    cell.and_then(|cell| {
                        let st = lock_unpoisoned(&cell);
                        let members = st.parent_members.iter().zip(&st.entries);
                        let waited = members.filter_map(|(&w, e)| e.is_none().then_some(w));
                        st.result.is_none().then(|| waited.collect())
                    })
                }
                WaitKind::Barrier { generation } => {
                    let st = lock_unpoisoned(&self.barrier);
                    let waited = (0..st.arrived.len()).filter(|&r| !st.arrived[r]);
                    (st.generation == generation).then(|| waited.collect())
                }
            };
            missing.insert((w.ctx, w.kind), list);
        }
        missing
    }

    fn deadlock_report(&self, views: &[RankSlot], stuck: &[usize]) -> String {
        let missing = self.missing_members(views);
        // When the fault plan killed a rank, blocked survivors are the
        // *consequence* of that injected failure, not a communication bug:
        // report the rank failure (naming the plan entry and replay seed)
        // and never the word "deadlock" or a wait-for cycle.
        let failures = self.verify.rank_failures();
        let mut report = if failures.is_empty() {
            format!(
                "pmm-verify: deadlock detected — {} rank(s) blocked with no possible progress\n",
                stuck.len()
            )
        } else {
            let mut r = format!(
                "pmm-verify: rank failure — {} rank(s) killed by the fault plan; {} surviving \
                 rank(s) blocked on communication that can never complete\n",
                failures.len(),
                stuck.len()
            );
            for line in &failures {
                r.push_str("  ");
                r.push_str(line);
                r.push('\n');
            }
            r
        };
        for &r in stuck {
            if let Some(w) = &views[r].wait {
                report.push_str(&format!(
                    "  rank {r}: blocked in {} on ctx {} at {}, waiting on ranks {:?}\n",
                    w.kind,
                    w.ctx,
                    w.site,
                    w.waiting_on(&missing)
                ));
            }
        }
        if failures.is_empty() {
            let stuck_set: HashSet<usize> = stuck.iter().copied().collect();
            if let Some(cycle) = wait_cycle(views, &missing, &stuck_set) {
                let path: Vec<String> = cycle.iter().map(|r| format!("rank {r}")).collect();
                report.push_str(&format!("wait-for cycle: {}\n", path.join(" -> ")));
            }
        }
        let pending = self.verify.all_pending_collectives();
        if !pending.is_empty() {
            report.push_str("partially-entered collectives:\n");
            for line in pending {
                report.push_str(&line);
                report.push('\n');
            }
        }
        report
    }
}

/// Walk wait-for edges inside the stuck set from its smallest member and
/// return the first cycle found, closed (first element repeated at the
/// end).
fn wait_cycle(views: &[RankSlot], missing: &Missing, stuck: &HashSet<usize>) -> Option<Vec<usize>> {
    let start = *stuck.iter().min()?;
    let mut path: Vec<usize> = vec![start];
    let mut cur = start;
    loop {
        let w = views[cur].wait.as_ref()?;
        let next = *w.waiting_on(missing).iter().find(|o| stuck.contains(o))?;
        if let Some(pos) = path.iter().position(|&r| r == next) {
            let mut cycle = path[pos..].to_vec();
            cycle.push(next);
            return Some(cycle);
        }
        path.push(next);
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::poll_now;

    fn here() -> &'static Location<'static> {
        Location::caller()
    }

    /// A free-running fabric of `n` thread-hosted ranks, with the empty
    /// fault plan attached when `faults` is set.
    fn hosted(n: usize, faults: bool) -> Arc<Fabric> {
        let mut fabric = Fabric::new(n);
        fabric.host_on_threads();
        if faults {
            fabric.enable_faults(FaultPlan::none(), 0);
        }
        Arc::new(fabric)
    }

    /// Run `body` as world rank `r` on a host thread of its own.
    fn host<T: Send + 'static>(
        fabric: &Arc<Fabric>,
        r: usize,
        body: impl FnOnce(&Fabric) -> T + Send + 'static,
    ) -> thread::JoinHandle<T> {
        let fabric = fabric.clone();
        thread::spawn(move || {
            fabric.register_host(r);
            body(&fabric)
        })
    }

    /// Spin until every rank in `ranks` has registered a wait — it is
    /// then parked or about to park, and the park token covers both.
    fn until_blocked(fabric: &Fabric, ranks: &[usize]) {
        while !ranks.iter().all(|&r| fabric.verify.snapshot()[r].wait.is_some()) {
            thread::yield_now();
        }
    }

    fn take_now(
        fabric: &Fabric,
        slab: &Mailboxes,
        ctx: Ctx,
        watch: Option<u64>,
    ) -> Option<Message> {
        poll_now(fabric.take_any_a(slab, ctx, 0, 0, 1, here(), watch))
    }

    fn split_now(
        fabric: &Fabric,
        members: &[usize],
        seq: u64,
        r: usize,
        color: i64,
        key: i64,
    ) -> Option<(SplitGroup, usize)> {
        poll_now(fabric.split_a(WORLD_CTX, members, seq, r, r, color, key, here(), None))
            .expect("no fault watch, so no kick")
    }

    fn msg(from: usize, sent_at: f64, payload: Vec<f64>) -> Message {
        Message { from, sent_at, payload, stamp: 0, meta: None }
    }

    /// A directed-receive wait registration of `me` on world rank `from`.
    fn recv_wait(from_world: usize, ctx_index: usize) -> WaitInfo {
        WaitInfo { kind: WaitKind::Recv { from_world, ctx_index }, ctx: WORLD_CTX, site: here() }
    }

    #[test]
    fn post_and_take_roundtrip() {
        let fabric = Fabric::new(1);
        let world = fabric.world_mailboxes();
        fabric.post(&world, WORLD_CTX, 0, 0, msg(3, 1.5, vec![1.0, 2.0]));
        let m = take_now(&fabric, &world, WORLD_CTX, None).unwrap();
        assert_eq!(m.from, 3);
        assert_eq!(m.sent_at, 1.5);
        assert_eq!(m.payload, vec![1.0, 2.0]);
    }

    #[test]
    fn messages_between_contexts_are_isolated() {
        let fabric = Fabric::new(1);
        let (seven, eight) = (fabric.new_mailboxes(7, 1), fabric.new_mailboxes(8, 1));
        fabric.post(&seven, 7, 0, 0, msg(0, 0.0, vec![7.0]));
        fabric.post(&eight, 8, 0, 0, msg(0, 0.0, vec![8.0]));
        assert_eq!(take_now(&fabric, &eight, 8, None).unwrap().payload, vec![8.0]);
        assert_eq!(take_now(&fabric, &seven, 7, None).unwrap().payload, vec![7.0]);
    }

    #[test]
    fn split_partitions_by_color_and_orders_by_key() {
        // 4 "ranks" split into color = rank % 2, key = -rank (reverse order).
        let fabric = hosted(4, false);
        let members = [0usize, 1, 2, 3];
        let handles: Vec<_> = (0..4usize)
            .map(|r| {
                host(&fabric, r, move |f| split_now(f, &members, 0, r, (r % 2) as i64, -(r as i64)))
            })
            .collect();
        let (groups, indices): (Vec<_>, Vec<_>) =
            handles.into_iter().map(|h| h.join().unwrap().unwrap()).unzip();
        // ranks 0 and 2 share color 0; members sorted by key (descending rank)
        assert_eq!(*groups[0].members, vec![2, 0]);
        assert_eq!(*groups[2].members, vec![2, 0]);
        assert_eq!(*groups[1].members, vec![3, 1]);
        assert_eq!(*groups[3].members, vec![3, 1]);
        // each member is handed its own index in that order
        assert_eq!(indices, vec![1, 1, 0, 0]);
        // distinct colors got distinct contexts
        assert_ne!(groups[0].ctx, groups[1].ctx);
        assert_eq!(groups[0].ctx, groups[2].ctx);
        // one mailbox per member, one slab per group, registered under its ctx
        assert_eq!(groups[0].mailboxes.len(), 2);
        assert!(Arc::ptr_eq(&groups[0].mailboxes, &groups[2].mailboxes));
        assert!(Arc::ptr_eq(&groups[1].mailboxes, &fabric.mailboxes_of(groups[1].ctx).unwrap()));
    }

    #[test]
    fn split_with_negative_color_yields_none() {
        let fabric = hosted(2, false);
        let h0 = host(&fabric, 0, |f| split_now(f, &[0, 1], 0, 0, 0, 0));
        let h1 = host(&fabric, 1, |f| split_now(f, &[0, 1], 0, 1, -1, 0));
        assert!(h1.join().unwrap().is_none());
        assert_eq!(*h0.join().unwrap().unwrap().0.members, vec![0]);
    }

    #[test]
    fn split_state_is_cleaned_up() {
        let fabric = hosted(2, false);
        let handles =
            [0usize, 1].map(|r| host(&fabric, r, move |f| split_now(f, &[0, 1], 5, r, 0, 0)));
        handles.into_iter().for_each(|h| drop(h.join().unwrap()));
        assert!(lock_unpoisoned(&fabric.splits).is_empty());
    }

    #[test]
    fn watchdog_scan_flags_mutual_recv_after_two_stable_scans() {
        // Two ranks each blocked receiving from the other, nothing queued.
        let fabric = Fabric::new(2);
        fabric.verify.set_wait(0, recv_wait(1, 0));
        fabric.verify.set_wait(1, recv_wait(0, 1));
        let mut prev = None;
        assert!(fabric.watchdog_scan(&mut prev).is_none(), "first scan only arms the candidate");
        let report = fabric.watchdog_scan(&mut prev).expect("second stable scan must confirm");
        assert!(report.contains("deadlock detected"), "{report}");
        assert!(report.contains("rank 0"), "{report}");
        assert!(report.contains("rank 1"), "{report}");
        assert!(report.contains("wait-for cycle"), "{report}");
    }

    #[test]
    fn watchdog_scan_spares_recv_with_queued_message() {
        // Rank 0 waits on rank 1, but a message is already queued for it:
        // rank 0 is progressable, and rank 1 (waiting on rank 0) inherits
        // that via the fixpoint.
        let fabric = Fabric::new(2);
        fabric.post(&fabric.world_mailboxes(), WORLD_CTX, 0, 0, msg(1, 0.0, vec![1.0]));
        fabric.verify.set_wait(0, recv_wait(1, 0));
        fabric.verify.set_wait(1, recv_wait(0, 1));
        let mut prev = None;
        for _ in 0..3 {
            assert!(fabric.watchdog_scan(&mut prev).is_none());
        }
    }

    #[test]
    fn watchdog_scan_spares_blocked_ranks_while_any_rank_runs() {
        // Rank 0 blocked on rank 1; rank 1 is running (no wait) — no
        // deadlock, however many scans pass.
        let fabric = Fabric::new(2);
        fabric.verify.set_wait(0, recv_wait(1, 0));
        let mut prev = None;
        for _ in 0..3 {
            assert!(fabric.watchdog_scan(&mut prev).is_none());
        }
    }

    #[test]
    fn watchdog_scan_flags_recv_from_finished_rank() {
        // Rank 1 exited without sending; rank 0 still waits on it.
        let fabric = Fabric::new(2);
        fabric.verify.set_wait(0, recv_wait(1, 0));
        fabric.verify.mark_done(1);
        let mut prev = None;
        assert!(fabric.watchdog_scan(&mut prev).is_none());
        let report = fabric.watchdog_scan(&mut prev).expect("recv from exited rank is a deadlock");
        assert!(report.contains("rank 0"), "{report}");
        assert!(report.contains("waiting on ranks [1]"), "{report}");
    }

    #[test]
    fn watchdog_requires_stability_across_generations() {
        // The candidate set is armed, but the rank re-blocks (generation
        // bump) before the second scan: the confirmation must start over.
        let fabric = Fabric::new(1);
        let block = |f: &Fabric| f.verify.set_wait(0, recv_wait(0, 0));
        block(&fabric);
        let mut prev = None;
        assert!(fabric.watchdog_scan(&mut prev).is_none());
        block(&fabric); // same wait, new generation
        assert!(fabric.watchdog_scan(&mut prev).is_none(), "generation changed: re-arm");
        let report = fabric.watchdog_scan(&mut prev);
        assert!(report.is_some(), "stable for two scans now");
    }

    #[test]
    fn abort_wakes_blocked_take_any() {
        let fabric = hosted(2, false);
        let h = host(&fabric, 0, |f| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                take_now(f, &f.world_mailboxes(), WORLD_CTX, None);
            }));
            caught.expect_err("take_any_a must panic out of an aborted world")
        });
        until_blocked(&fabric, &[0]);
        fabric.abort("test abort".to_string());
        let payload = h.join().expect("receiver thread joins");
        let abort = payload
            .downcast_ref::<crate::verify::AbortPanic>()
            .expect("panic payload is AbortPanic");
        assert!(abort.0.contains("test abort"), "{}", abort.0);
    }

    #[test]
    fn residual_messages_reports_undrained_mailboxes() {
        let fabric = Fabric::new(2);
        let (world, three) = (fabric.world_mailboxes(), fabric.new_mailboxes(3, 2));
        fabric.post(&world, WORLD_CTX, 1, 1, msg(0, 0.0, vec![1.0]));
        fabric.post(&world, WORLD_CTX, 1, 1, msg(0, 0.0, vec![2.0]));
        fabric.post(&three, 3, 0, 0, msg(1, 0.0, vec![3.0]));
        assert_eq!(fabric.residual_messages(), vec![(WORLD_CTX, 1, 2), (3, 0, 1)]);
        take_now(&fabric, &three, 3, None);
        assert_eq!(fabric.residual_messages(), vec![(WORLD_CTX, 1, 2)]);
    }

    #[test]
    fn dead_rank_completes_pending_split_with_survivors_only() {
        // Three ranks; rank 2 dies after ranks 0 and 1 have deposited.
        let fabric = hosted(3, true);
        let members = [0usize, 1, 2];
        let handles = [0usize, 1]
            .map(|r| host(&fabric, r, move |f| split_now(f, &members, 0, r, 0, r as i64)));
        until_blocked(&fabric, &[0, 1]);
        fabric.mark_rank_dead(2, "rank 2 killed by fault-plan entry kill=2@1".to_string());
        for h in handles {
            let (group, _) = h.join().unwrap().unwrap();
            assert_eq!(*group.members, vec![0, 1], "dead member must be excluded");
        }
    }

    #[test]
    fn dead_rank_completes_split_with_survivors_only_on_the_event_loop() {
        // Under the canonical schedule rank 0 runs first: as the victim it
        // dies before anyone deposits, so the last survivor's deposit must
        // count it out; victim 2 dies after both survivors deposited and
        // blocked, so its death must complete the rendezvous.
        for victim in [0usize, 2] {
            let out = crate::World::new(3, pmm_model::MachineParams::BANDWIDTH_ONLY)
                .with_faults(FaultPlan::none().with_kill(victim, 1))
                .run_async(move |rank| {
                    Box::pin(async move {
                        let wc = rank.world_comm();
                        let key = rank.world_rank() as i64;
                        if rank.world_rank() == victim {
                            let died =
                                crate::catch_failures_async!(rank, rank.split_a(&wc, 0, key));
                            assert!(died.is_err(), "the victim is killed entering the split");
                            return None;
                        }
                        let comm = rank.split_a(&wc, 0, key).await.expect("color 0 joins a group");
                        Some((comm.members().to_vec(), comm.index()))
                    })
                });
            let survivors: Vec<usize> = (0..3).filter(|&r| r != victim).collect();
            for (i, &r) in survivors.iter().enumerate() {
                assert_eq!(
                    out.values[r],
                    Some((survivors.clone(), i)),
                    "victim {victim}, rank {r}"
                );
            }
            assert_eq!(out.values[victim], None);
        }
    }

    #[test]
    fn watched_split_completed_by_a_death_raises_the_failure() {
        // Rank 2 is killed entering the split; ranks 0 and 1 split inside
        // a catching scope armed before the death. Canonical schedule:
        // both survivors have deposited and blocked, and the death
        // completes the rendezvous that wakes them. Second schedule: the
        // kill lands between the two deposits, so rank 1's own deposit
        // completes it. Either way the group is short of the layout, and
        // a watched caller must get the failure, never the group.
        for prefix in [vec![], vec![0, 0, 1, 2]] {
            let out = crate::World::new(3, pmm_model::MachineParams::BANDWIDTH_ONLY)
                .with_schedule(Schedule::Prefix(prefix.clone()))
                .with_faults(FaultPlan::none().with_kill(2, 1))
                .run_async(|rank| {
                    Box::pin(async move {
                        let wc = rank.world_comm();
                        let key = rank.world_rank() as i64;
                        let split = crate::catch_failures_async!(rank, rank.split_a(&wc, 0, key));
                        split.map(|comm| comm.map(|c| c.members().to_vec()))
                    })
                });
            for (r, split) in out.values.iter().enumerate() {
                assert!(split.is_err(), "prefix {prefix:?}, rank {r}: got {split:?}");
            }
        }
    }

    #[test]
    fn fault_kick_interrupts_blocked_take_any() {
        let fabric = hosted(2, true);
        let watch = Some(fabric.fault_epoch());
        let h = host(&fabric, 0, move |f| take_now(f, &f.world_mailboxes(), WORLD_CTX, watch));
        until_blocked(&fabric, &[0]);
        fabric.mark_rank_dead(1, "rank 1 killed by fault-plan entry kill=1@1".to_string());
        assert!(h.join().unwrap().is_none(), "wait must be kicked, not served");
    }

    #[test]
    fn deadlock_report_with_rank_failure_names_the_kill_not_a_cycle() {
        let fabric = Fabric::new(2);
        fabric.verify.note_rank_failure(
            "rank 1 killed by fault-plan entry kill=1@3 (replay: PMM_SEED=7)".to_string(),
        );
        fabric.verify.set_wait(0, recv_wait(1, 0));
        fabric.verify.mark_done(1);
        let mut prev = None;
        assert!(fabric.watchdog_scan(&mut prev).is_none());
        let report = fabric.watchdog_scan(&mut prev).expect("stuck survivor is reported");
        assert!(report.contains("rank failure"), "{report}");
        assert!(report.contains("kill=1@3"), "{report}");
        assert!(report.contains("PMM_SEED=7"), "{report}");
        assert!(!report.contains("deadlock detected"), "{report}");
        assert!(!report.contains("wait-for cycle"), "{report}");
    }
}

//! The per-rank handle: messaging, clocks, meters, memory.
//!
//! Every communication primitive has two forms sharing one body: the
//! async `_a` form (what [`World::run_async`](crate::World::run_async)
//! programs and the async collectives call) and a sync wrapper that
//! drives the same future to completion in a single poll via
//! [`poll_now`]. Nothing here knows how the rank is hosted: the body
//! awaits the fabric's yield points, which park the thread of a
//! [`World::run`](crate::World::run) rank inside the poll and suspend the
//! continuation of a `run_async` rank (where only the `_a` forms may be
//! used).

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::panic::Location;
use std::sync::Arc;
use std::task::Poll;

use pmm_model::MachineParams;

use crate::comm::Comm;
use crate::engine::poll_now;
use crate::fabric::{Ctx, Fabric, Message, WORLD_CTX};
use crate::fault::{self, FaultAction, FaultKick, FaultPanic, MsgMeta, RankFailed};
use crate::meter::{MemTracker, Meter};
use crate::tracer::{TraceEvent, TraceOp};
use crate::verify::CollectiveOp;

/// Base sequence number of [`Rank::recovery_split`] rendezvous, far above
/// any per-communicator split counter a program could reach, so recovery
/// splits can never collide with a rendezvous abandoned at a kill.
const RECOVERY_SPLIT_SEQ_BASE: u64 = 1 << 32;

thread_local! {
    /// Set by the event-loop executor while it drops the continuations of
    /// ranks torn down by a world abort — the analogue of
    /// `std::thread::panicking()` during a thread-hosted rank's unwind,
    /// which is what keeps the leak checks in `Drop` impls quiet there.
    static ABORT_TEARDOWN: Cell<bool> = const { Cell::new(false) };
}

pub(crate) fn begin_abort_teardown() {
    ABORT_TEARDOWN.with(|t| t.set(true));
}

pub(crate) fn end_abort_teardown() {
    ABORT_TEARDOWN.with(|t| t.set(false));
}

fn in_abort_teardown() -> bool {
    ABORT_TEARDOWN.with(Cell::get)
}

/// Error returned by [`Rank::try_mem_acquire`] when the configured local
/// memory `M` would be exceeded (§6.2 limited-memory scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLimitExceeded {
    /// Words that would have been resident after the acquire.
    pub requested_total: u64,
    /// The configured capacity.
    pub limit: u64,
}

impl std::fmt::Display for MemoryLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "local memory limit exceeded: need {} words, capacity {}",
            self.requested_total, self.limit
        )
    }
}

impl std::error::Error for MemoryLimitExceeded {}

/// A pending nonblocking receive (see [`Rank::irecv`]). Dropping a
/// never-redeemed request panics in debug form via the `Drop` check —
/// a leaked request means a message is silently never accounted.
#[derive(Debug)]
pub struct RecvRequest {
    ctx: u64,
    from: usize,
    #[allow(dead_code)]
    comm_size: usize,
    redeemed: bool,
}

impl Drop for RecvRequest {
    fn drop(&mut self) {
        debug_assert!(
            self.redeemed || std::thread::panicking() || in_abort_teardown(),
            "RecvRequest dropped without wait() — a message from {} on ctx {} was leaked",
            self.from,
            self.ctx
        );
    }
}

/// Token of an open fault-catching scope (see [`Rank::fault_watch_arm`]).
/// Holds the enclosing scope's watermark so scopes nest correctly.
#[must_use = "an armed fault watch must be restored with Rank::fault_watch_restore"]
pub struct FaultWatch {
    prev: Option<u64>,
}

/// Classify an unwind payload caught around a fault-catching scope:
/// injected-failure panics become the typed [`RankFailed`]; anything else
/// (assertion failures, verifier aborts) resumes unwinding unchanged.
fn fault_panic_payload(payload: Box<dyn std::any::Any + Send>) -> RankFailed {
    match payload.downcast::<FaultPanic>() {
        Ok(fp) => {
            let FaultPanic(failed) = *fp;
            failed
        }
        Err(other) => std::panic::resume_unwind(other),
    }
}

/// Poll `fut` to completion, converting an injected rank failure raised
/// during any poll — this rank killed by the fault plan, or a peer dying
/// while it was suspended — into a typed [`RankFailed`] error. Panics
/// that are not injected faults propagate unchanged. The caller must have
/// armed the scope with [`Rank::fault_watch_arm`] first; see that method
/// for the full bracketing pattern (or use
/// [`catch_failures_async!`](crate::catch_failures_async)).
pub async fn catch_fault_panics<T>(fut: impl Future<Output = T>) -> Result<T, RankFailed> {
    let mut fut = std::pin::pin!(fut);
    let result = std::future::poll_fn(|cx| {
        let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.as_mut().poll(cx)));
        match poll {
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => Poll::Ready(Err(payload)),
        }
    })
    .await;
    match result {
        Ok(v) => Ok(v),
        Err(payload) => Err(fault_panic_payload(payload)),
    }
}

/// Async form of [`Rank::catch_failures`]: run a future-producing
/// expression in a fault-catching scope on `rank`, yielding
/// `Result<T, RankFailed>`.
///
/// ```
/// use pmm_simnet::{catch_failures_async, FaultPlan, MachineParams, World};
///
/// let out = World::new(2, MachineParams::BANDWIDTH_ONLY)
///     .with_faults(FaultPlan::none().with_kill(1, 1))
///     .run_async(|rank| {
///         Box::pin(async move {
///             let wc = rank.world_comm();
///             let me = rank.world_rank();
///             let r = catch_failures_async!(rank, async {
///                 if me == 0 {
///                     rank.recv_a(&wc, 1).await; // blocks on the killed rank
///                 } else {
///                     rank.send_a(&wc, 0, &[1.0]).await; // killed here
///                 }
///             });
///             r.is_err()
///         })
///     });
/// assert_eq!(out.values, vec![true, true]);
/// ```
///
/// The expansion brackets the body with [`Rank::fault_watch_arm`] /
/// [`Rank::fault_watch_restore`] and polls it through
/// [`catch_fault_panics`], so the scope semantics match the sync form
/// exactly.
#[macro_export]
macro_rules! catch_failures_async {
    ($rank:expr, $body:expr) => {{
        let __pmm_watch = $rank.fault_watch_arm();
        let __pmm_result = $crate::catch_fault_panics($body).await;
        $rank.fault_watch_restore(__pmm_watch);
        __pmm_result
    }};
}

/// A simulated processor: a continuation on the event loop
/// ([`World::run_async`](crate::World::run_async)) or an OS thread of its
/// own ([`World::run`](crate::World::run)). The rank program receives
/// `&mut Rank` and may keep arbitrary private state — the only inter-rank
/// data path is [`Rank::send`] / [`Rank::recv`].
pub struct Rank {
    world_rank: usize,
    /// The world communicator. [`Rank::world_comm`] hands out clones, so
    /// every handle shares one split sequence.
    world: Comm,
    fabric: Arc<Fabric>,
    params: MachineParams,
    time: f64,
    meter: Meter,
    mem: MemTracker,
    /// Out-of-order stash for directed receives, keyed by (ctx, from index).
    pending: HashMap<(Ctx, usize), VecDeque<Message>>,
    trace: Option<Vec<TraceEvent>>,
    /// Happens-before event count (see `crate::verify`): ticks on every
    /// posted copy and every accepted receive; its value after a send's
    /// tick is the stamp that message carries.
    stamp: u64,
    /// Last sender stamp observed per (ctx, sender index), to assert
    /// per-channel monotonicity (no duplicated or reordered delivery).
    last_seen: HashMap<(Ctx, usize), u64>,
    /// Operation index at which the fault plan kills this rank, if any.
    kill_at: Option<u64>,
    /// Fault epoch at which a cascade entry kills this rank, if any
    /// (checked at every communication operation).
    cascade_at: Option<u64>,
    /// Straggler factor from the fault plan (1.0 = full speed; multiplies
    /// every local busy-time advance).
    slowdown: f64,
    /// Communication operations entered so far (the kill schedule's
    /// clock; only ticked when a fault plan is attached).
    op_count: u64,
    /// Fault-epoch watermark while inside [`Rank::catch_failures`]; when
    /// the fabric's epoch moves past it, blocking operations raise a
    /// typed failure instead of waiting on a dead rank.
    fault_watch: Option<u64>,
    /// Reliable-delivery send sequence numbers per (ctx, receiver index).
    send_seq: HashMap<(Ctx, usize), u64>,
    /// Next expected receive sequence number per (ctx, sender index).
    recv_seq: HashMap<(Ctx, usize), u64>,
}

impl Rank {
    pub(crate) fn new(
        world_rank: usize,
        world_members: Arc<Vec<usize>>,
        fabric: Arc<Fabric>,
        params: MachineParams,
        mem_limit: Option<u64>,
        trace: bool,
    ) -> Rank {
        let world = Comm::new(WORLD_CTX, world_members, fabric.world_mailboxes(), world_rank);
        let (kill_at, cascade_at, slowdown) = match fabric.fault() {
            Some(f) => (
                f.plan.kill_at(world_rank),
                f.plan.cascade_at(world_rank),
                f.plan.slowdown_of(f.seed, world_rank),
            ),
            None => (None, None, 1.0),
        };
        Rank {
            world_rank,
            world,
            fabric,
            params,
            time: 0.0,
            meter: Meter::default(),
            mem: MemTracker::new(mem_limit),
            pending: HashMap::new(),
            trace: if trace { Some(Vec::new()) } else { None },
            stamp: 0,
            last_seen: HashMap::new(),
            kill_at,
            cascade_at,
            slowdown,
            op_count: 0,
            fault_watch: None,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
        }
    }

    /// Tear this rank down if the verifier has aborted the world (called
    /// at every communication entry point so even compute-only ranks
    /// notice promptly once they next touch the fabric).
    fn check_abort(&self) {
        self.fabric.check_abort(self.world_rank);
    }

    // ----- fault injection ---------------------------------------------------

    /// Fault hook at the entry of every communication operation (send,
    /// receive, exchange, wait, split, barrier): observe peer deaths when
    /// inside a catching scope, advance the kill clock, and die here if
    /// the fault plan says so. No-op without a fault plan.
    fn fault_tick(&mut self) {
        if self.fabric.fault().is_none() {
            return;
        }
        // Cascade entries fire before peer-death observation: a rank
        // slated to die *because* the epoch moved must die, not merely
        // observe the death that armed it.
        if let Some(at_epoch) = self.cascade_at {
            if self.fabric.fault_epoch() >= at_epoch {
                let seed_note = match self.fabric.sched_repro().and_then(|r| r.env()) {
                    Some(env) => format!("{env}, "),
                    None => String::new(),
                };
                let fault_seed = self.fabric.fault().map_or(0, |f| f.seed);
                let detail = format!(
                    "rank {} killed by fault-plan entry cascade={}@{} (replay: {}fault seed {:#x})",
                    self.world_rank, self.world_rank, at_epoch, seed_note, fault_seed
                );
                self.fabric.mark_rank_dead(self.world_rank, detail.clone());
                std::panic::panic_any(FaultPanic(RankFailed { rank: self.world_rank, detail }));
            }
        }
        if self.fault_kicked() {
            self.raise_peer_failure();
        }
        self.op_count += 1;
        if self.kill_at == Some(self.op_count) {
            let seed_note = match self.fabric.sched_repro().and_then(|r| r.env()) {
                Some(env) => format!("{env}, "),
                None => String::new(),
            };
            let fault_seed = self.fabric.fault().map_or(0, |f| f.seed);
            let detail = format!(
                "rank {} killed by fault-plan entry kill={}@{} (replay: {}fault seed {:#x})",
                self.world_rank, self.world_rank, self.op_count, seed_note, fault_seed
            );
            self.fabric.mark_rank_dead(self.world_rank, detail.clone());
            std::panic::panic_any(FaultPanic(RankFailed { rank: self.world_rank, detail }));
        }
    }

    /// Whether the fault epoch moved past this rank's catching-scope
    /// watermark (a rank died while we were working).
    fn fault_kicked(&self) -> bool {
        self.fault_watch.is_some_and(|watch| self.fabric.fault_epoch() > watch)
    }

    /// Unwind to the nearest [`Rank::catch_failures`] boundary because a
    /// peer died under us.
    fn raise_peer_failure(&self) -> ! {
        let dead = self.fabric.dead_ranks();
        let rank = dead.first().copied().unwrap_or(self.world_rank);
        let detail = format!(
            "rank {} observed the death of rank(s) {dead:?} injected by the fault plan",
            self.world_rank
        );
        std::panic::panic_any(FaultPanic(RankFailed { rank, detail }));
    }

    /// Run `f`, converting an injected rank failure — this rank killed by
    /// the plan, or a peer dying while this rank was blocked on it — into
    /// a typed [`RankFailed`] error instead of a thread panic. While the
    /// scope is active, every blocking operation watches the fault epoch
    /// and is kicked out promptly when any rank dies; outside a scope a
    /// death surfaces through the watchdog / scheduler failure report.
    /// Panics that are not injected faults propagate unchanged.
    ///
    /// After an `Err` the program must not reuse communicators that may
    /// have been abandoned mid-collective: synchronize the survivors with
    /// [`Rank::hard_sync`] and rebuild communicators from a
    /// [`Rank::recovery_split`].
    pub fn catch_failures<T>(&mut self, f: impl FnOnce(&mut Rank) -> T) -> Result<T, RankFailed> {
        let watch = self.fault_watch_arm();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        self.fault_watch_restore(watch);
        match result {
            Ok(v) => Ok(v),
            Err(payload) => Err(fault_panic_payload(payload)),
        }
    }

    /// Open a fault-catching scope by hand: the async counterpart of
    /// [`Rank::catch_failures`]. A closure-based async scope cannot be
    /// expressed without `'static` bounds (the scoped future would have
    /// to borrow both the rank and the closure's captures), so async
    /// programs bracket the scope explicitly:
    ///
    /// ```text
    /// let watch = rank.fault_watch_arm();
    /// let result = catch_fault_panics(body_a(&mut *rank, ...)).await;
    /// rank.fault_watch_restore(watch);
    /// ```
    ///
    /// or use the [`catch_failures_async!`](crate::catch_failures_async)
    /// macro, which expands to exactly that. The scope contract (armed
    /// ranks are kicked out of blocking operations promptly when a peer
    /// dies) is identical to the sync form.
    pub fn fault_watch_arm(&mut self) -> FaultWatch {
        let prev = self.fault_watch;
        self.fault_watch = Some(self.fabric.fault_epoch());
        FaultWatch { prev }
    }

    /// Open a fault-catching scope whose watermark is an explicit death
    /// count rather than the current fault epoch. [`Rank::fault_watch_arm`]
    /// snapshots `fault_epoch()` at arm time, which is correct for a scope
    /// that only cares about deaths *after* it opens — but a rank joining
    /// a multi-rank protocol round late would then never be kicked by the
    /// death that its peers already reacted to, and could strand in a
    /// collective its (live) peers have abandoned. Arming at the round's
    /// agreed basis — the number of deaths when the round's membership was
    /// fixed — makes any newer death kick this rank out immediately, no
    /// matter when it armed relative to the kill.
    pub fn fault_watch_arm_at(&mut self, deaths_at_basis: u64) -> FaultWatch {
        let prev = self.fault_watch;
        self.fault_watch = Some(deaths_at_basis);
        FaultWatch { prev }
    }

    /// Close a fault-catching scope opened by [`Rank::fault_watch_arm`],
    /// restoring the enclosing scope's watermark (scopes nest).
    pub fn fault_watch_restore(&mut self, watch: FaultWatch) {
        self.fault_watch = watch.prev;
    }

    /// World ranks killed by the fault plan so far (empty without one).
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.fabric.dead_ranks()
    }

    /// Post `payload` to member `to` of `comm`, running the reliable-
    /// delivery protocol when a fault plan is attached: each transmission
    /// attempt is dropped / corrupted / duplicated / delayed according to
    /// the plan's seeded decision function, failed attempts cost the
    /// sender `α + βw` plus the (exponentially backed-off, capped)
    /// retransmission timeout and are metered as retry overhead, and the
    /// accepted copy's transmit start is returned — the `sent_at` the
    /// receiver will see and the base for the sender's own clock advance.
    /// Without a plan this is a single un-sequenced post at `self.time`.
    fn transmit(&mut self, comm: &Comm, to: usize, payload: &[f64]) -> f64 {
        let fabric = self.fabric.clone();
        let start = self.time;
        let from = comm.index();
        let to_world = comm.world_rank_of(to);
        let post = |stamp, sent_at, payload: Vec<f64>, meta| {
            let msg = Message { from, sent_at, payload, stamp, meta };
            fabric.post(&comm.mailboxes, comm.ctx, to, to_world, msg);
        };
        let Some(fstate) = fabric.fault() else {
            post(self.next_stamp(), start, payload.to_vec(), None);
            return start;
        };
        let w = payload.len() as u64;
        let seq = {
            let counter = self.send_seq.entry((comm.ctx, to)).or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        let meta = Some(MsgMeta { seq, check: fault::checksum(payload) });
        let plan = &fstate.plan;
        let per_copy = self.slowdown * (self.params.alpha + self.params.beta * w as f64);
        let mut sent_at = start;
        for attempt in 0..=plan.max_retries {
            let tx = fault::Transmission {
                ctx: comm.ctx,
                from_world: self.world_rank,
                to_world,
                seq,
                attempt,
            };
            match plan.decide(fstate.seed, tx) {
                FaultAction::Deliver => {
                    post(self.next_stamp(), sent_at, payload.to_vec(), meta);
                    return sent_at;
                }
                FaultAction::Delay(d) => {
                    // The copy loiters in flight; the sender's own clock
                    // is unaffected (the delay stays under the timeout).
                    post(self.next_stamp(), sent_at + d, payload.to_vec(), meta);
                    return sent_at;
                }
                FaultAction::Duplicate => {
                    // Both copies arrive; the receiver's sequence check
                    // discards the second. The extra copy is overhead.
                    let stamp = self.next_stamp();
                    post(stamp, sent_at, payload.to_vec(), meta);
                    post(stamp, sent_at, payload.to_vec(), meta);
                    self.meter.retry_words_sent += w;
                    self.meter.retry_msgs_sent += 1;
                    return sent_at;
                }
                FaultAction::Drop => {
                    // Nothing arrives; the sender pays the transmit plus
                    // the timeout before the next attempt.
                    self.meter.retry_words_sent += w;
                    self.meter.retry_msgs_sent += 1;
                    sent_at += per_copy + plan.rto(attempt);
                }
                FaultAction::Corrupt => {
                    // A damaged copy arrives (the receiver's checksum
                    // rejects it); the sender times out and retransmits.
                    let (word, bit) = plan.corrupt_site(fstate.seed, tx, payload.len());
                    let mut damaged = payload.to_vec();
                    if let Some(v) = damaged.get_mut(word) {
                        *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
                    }
                    post(self.next_stamp(), sent_at, damaged, meta);
                    self.meter.retry_words_sent += w;
                    self.meter.retry_msgs_sent += 1;
                    sent_at += per_copy + plan.rto(attempt);
                }
            }
        }
        let report = format!(
            "pmm-fault: rank {} exhausted {} retransmission(s) of message #{seq} to world rank \
             {to_world} on ctx {} — delivery failed under fault plan [{plan}] (fault seed {:#x})",
            self.world_rank, plan.max_retries, comm.ctx, fstate.seed
        );
        fabric.abort(report);
        fabric.verify.abort_panic(self.world_rank);
    }

    /// Receiver half of the reliable-delivery protocol: accept a message
    /// iff it carries the next expected sequence number for its channel
    /// and its checksum matches. Rejected copies (duplicates, corruption)
    /// are metered as retry overhead, cost the receiver the transfer time
    /// it wasted examining them, and never reach the happens-before audit
    /// or the goodput meters. Messages without metadata (no fault plan)
    /// are always accepted.
    fn fault_accept(&mut self, ctx: Ctx, msg: &Message) -> bool {
        let Some(meta) = msg.meta else { return true };
        let expected = self.recv_seq.entry((ctx, msg.from)).or_insert(0);
        if meta.seq == *expected && fault::checksum(&msg.payload) == meta.check {
            *expected += 1;
            return true;
        }
        let w = msg.payload.len() as u64;
        self.meter.retry_words_recv += w;
        self.meter.retry_msgs_recv += 1;
        self.time = self.time.max(msg.sent_at)
            + self.slowdown * (self.params.alpha + self.params.beta * w as f64);
        false
    }

    /// Tick the event count for a posted copy; the new count is the
    /// stamp the copy carries.
    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Audit an accepted message against its channel: the sender's stamps
    /// must strictly increase (per-channel FIFO, no duplication). Ticks
    /// the event count.
    fn observe_stamp(&mut self, ctx: Ctx, from_index: usize, sender_world: usize, stamp: u64) {
        let last = self.last_seen.insert((ctx, from_index), stamp);
        assert!(
            last.is_none_or(|l| stamp > l),
            "pmm-verify: happens-before violation at rank {}: sender clock {stamp} from world \
             rank {sender_world} on ctx {ctx} did not increase (last seen {last:?})",
            self.world_rank
        );
        self.stamp += 1;
    }

    /// Final happens-before event count (for
    /// [`RankReport`](crate::RankReport)).
    pub(crate) fn final_stamp(&self) -> u64 {
        self.stamp
    }

    // ----- identity --------------------------------------------------------

    /// This rank's id in the world communicator.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.world.size()
    }

    /// The world communicator (all ranks, identity ordering). Every call
    /// returns a handle to the same communicator: splits issued through
    /// any of them count in one sequence.
    pub fn world_comm(&self) -> Comm {
        self.world.clone()
    }

    /// The machine parameters this world was created with.
    #[inline]
    pub fn params(&self) -> MachineParams {
        self.params
    }

    // ----- accounting ------------------------------------------------------

    /// Current critical-path clock of this rank.
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Snapshot of the traffic/compute meter (cheap; `Copy`).
    #[inline]
    pub fn meter(&self) -> Meter {
        self.meter
    }

    /// The memory tracker (peak, current, limit).
    #[inline]
    pub fn mem(&self) -> &MemTracker {
        &self.mem
    }

    /// Declare `words` of working memory resident. Panics if the limit is
    /// exceeded — use [`Rank::try_mem_acquire`] when overflow is an
    /// expected outcome (limited-memory experiments).
    pub fn mem_acquire(&mut self, words: u64) {
        self.try_mem_acquire(words).unwrap_or_else(|e| panic!("rank {}: {}", self.world_rank, e));
    }

    /// Fallible version of [`Rank::mem_acquire`]; on failure nothing is
    /// acquired.
    pub fn try_mem_acquire(&mut self, words: u64) -> Result<(), MemoryLimitExceeded> {
        self.mem
            .acquire(words)
            .map_err(|(requested_total, limit)| MemoryLimitExceeded { requested_total, limit })
    }

    /// Release previously acquired working memory.
    pub fn mem_release(&mut self, words: u64) {
        self.mem.release(words);
    }

    /// Place a marker in the trace (no cost, no-op when tracing is off).
    pub fn mark(&mut self, label: impl Into<String>) {
        if self.trace.is_some() {
            let now = self.time;
            self.trace_event(WORLD_CTX, TraceOp::Mark(label.into()), 0, 0, now, now);
        }
    }

    /// Open a named phase scope in the trace (no cost, no-op when tracing
    /// is off). Scopes must nest and close via [`Rank::phase_end`] with
    /// the same label; the [`phase!`](crate::phase) macro wraps a block in
    /// a balanced pair. The [`Tracer`](crate::Tracer) analyses attribute
    /// every message and every critical-path word to the innermost open
    /// scope.
    pub fn phase_begin(&mut self, label: &'static str) {
        if self.trace.is_some() {
            let now = self.time;
            self.trace_event(WORLD_CTX, TraceOp::PhaseBegin { label }, 0, 0, now, now);
        }
    }

    /// Close the innermost phase scope (see [`Rank::phase_begin`]).
    pub fn phase_end(&mut self, label: &'static str) {
        if self.trace.is_some() {
            let now = self.time;
            self.trace_event(WORLD_CTX, TraceOp::PhaseEnd { label }, 0, 0, now, now);
        }
    }

    /// Append an event to the trace buffer (call sites gate on
    /// `self.trace.is_some()` first, so the disabled path costs one branch).
    fn trace_event(
        &mut self,
        ctx: Ctx,
        op: TraceOp,
        words: u64,
        retry_words: u64,
        t0: f64,
        t1: f64,
    ) {
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent { ctx, op, words, retry_words, t0, t1 });
        }
    }

    pub(crate) fn take_trace(&mut self) -> Option<Vec<TraceEvent>> {
        self.trace.take()
    }

    // ----- computation -----------------------------------------------------

    /// Account `flops` scalar operations of local computation
    /// (advances the clock by `γ · flops`).
    pub fn compute(&mut self, flops: f64) {
        debug_assert!(flops >= 0.0);
        let t0 = self.time;
        self.meter.flops += flops;
        // `slowdown` is exactly 1.0 without a straggler entry, keeping
        // fault-free clocks bitwise-identical to the unfaulted model.
        self.time += self.slowdown * (self.params.gamma * flops);
        if self.trace.is_some() {
            let t1 = self.time;
            self.trace_event(WORLD_CTX, TraceOp::Compute { flops }, 0, 0, t0, t1);
        }
    }

    // ----- point-to-point messaging ----------------------------------------

    /// Send `payload` to member `to` of `comm`.
    ///
    /// Cost model (eager/postal): the sender is busy for `α + βw`; the
    /// message arrives at `send_start + α + βw`, and the receiver is busy
    /// for `α + βw` after the later of (its own readiness, the send start).
    pub fn send(&mut self, comm: &Comm, to: usize, payload: &[f64]) {
        poll_now(self.send_a(comm, to, payload));
    }

    /// Async form of [`Rank::send`].
    pub async fn send_a(&mut self, comm: &Comm, to: usize, payload: &[f64]) {
        self.check_abort();
        self.fault_tick();
        assert!(to < comm.size(), "send target {to} out of communicator of size {}", comm.size());
        assert_ne!(to, comm.index(), "send to self is not allowed (use local state)");
        let w = payload.len() as u64;
        let t0 = self.time;
        let retry_before = self.meter.retry_words_sent;
        self.meter.words_sent += w;
        self.meter.msgs_sent += 1;
        let sent_at = self.transmit(comm, to, payload);
        self.time = sent_at + self.slowdown * (self.params.alpha + self.params.beta * w as f64);
        if self.trace.is_some() {
            let (t1, retry) = (self.time, self.meter.retry_words_sent - retry_before);
            let op = TraceOp::Send { to_world: comm.world_rank_of(to) };
            self.trace_event(comm.ctx, op, w, retry, t0, t1);
        }
        // Under a schedule: record the post and yield the baton.
        self.fabric.yield_post(self.world_rank, comm.ctx, comm.world_rank_of(to), w).await;
    }

    /// Blockingly receive the next message from member `from` of `comm`.
    #[track_caller]
    pub fn recv(&mut self, comm: &Comm, from: usize) -> Message {
        poll_now(self.recv_a(comm, from))
    }

    /// Async form of [`Rank::recv`].
    #[track_caller]
    pub fn recv_a<'r>(
        &'r mut self,
        comm: &'r Comm,
        from: usize,
    ) -> impl Future<Output = Message> + 'r {
        // `#[track_caller]` does not reach into an async body, so the
        // call site is captured here, at construction.
        let site = Location::caller();
        async move {
            self.check_abort();
            self.fault_tick();
            assert!(from < comm.size(), "recv source {from} out of communicator");
            assert_ne!(from, comm.index(), "recv from self is not allowed");
            let t0 = self.time;
            let retry_before = self.meter.retry_words_recv;
            let msg = self.match_directed(comm, from, site).await;
            self.observe_stamp(comm.ctx, from, comm.world_rank_of(from), msg.stamp);
            let w = msg.payload.len() as u64;
            self.meter.words_recv += w;
            self.meter.msgs_recv += 1;
            // Transfer occupies the receiver from when both sides are ready.
            self.time = self.time.max(msg.sent_at)
                + self.slowdown * (self.params.alpha + self.params.beta * w as f64);
            if self.trace.is_some() {
                let (t1, retry) = (self.time, self.meter.retry_words_recv - retry_before);
                let op = TraceOp::Recv { from_world: comm.world_rank_of(from) };
                self.trace_event(comm.ctx, op, w, retry, t0, t1);
            }
            msg
        }
    }

    /// Full-duplex exchange with `partner`: send `payload` and receive the
    /// partner's message *in the same transfer step*.
    ///
    /// Both sides must call `sendrecv` for the duplex costing to be
    /// symmetric. Cost: `α + β·max(w_sent, w_recv)` starting when both
    /// sides are ready — this is the §3.1 "pair of processors can exchange
    /// data with no contention" rule, and what bandwidth-optimal collectives
    /// (recursive doubling/halving, bidirectional ring) rely on.
    #[track_caller]
    pub fn sendrecv(&mut self, comm: &Comm, partner: usize, payload: &[f64]) -> Message {
        self.exchange(comm, partner, partner, payload)
    }

    /// Async form of [`Rank::sendrecv`].
    #[track_caller]
    pub fn sendrecv_a<'r>(
        &'r mut self,
        comm: &'r Comm,
        partner: usize,
        payload: &'r [f64],
    ) -> impl Future<Output = Message> + 'r {
        self.exchange_a(comm, partner, partner, payload)
    }

    /// Full-duplex exchange with distinct peers: send `payload` to `to`
    /// while receiving from `from` (ring shifts, pairwise all-to-all).
    ///
    /// Cost: `α + β·max(w_sent, w_recv)` starting when both this rank and
    /// the incoming message are ready — §3.1 allows simultaneous send and
    /// receive on the bidirectional links, and every rank is engaged in at
    /// most one send and one receive.
    #[track_caller]
    pub fn exchange(&mut self, comm: &Comm, to: usize, from: usize, payload: &[f64]) -> Message {
        poll_now(self.exchange_a(comm, to, from, payload))
    }

    /// Async form of [`Rank::exchange`].
    #[track_caller]
    pub fn exchange_a<'r>(
        &'r mut self,
        comm: &'r Comm,
        to: usize,
        from: usize,
        payload: &'r [f64],
    ) -> impl Future<Output = Message> + 'r {
        let site = Location::caller();
        async move {
            self.check_abort();
            self.fault_tick();
            assert!(to < comm.size() && from < comm.size(), "exchange peer out of communicator");
            assert_ne!(to, comm.index(), "exchange send-to-self is not allowed");
            assert_ne!(from, comm.index(), "exchange recv-from-self is not allowed");
            let ws = payload.len() as u64;
            let t_entry = self.time;
            let retry_sent_before = self.meter.retry_words_sent;
            let retry_recv_before = self.meter.retry_words_recv;
            self.meter.words_sent += ws;
            self.meter.msgs_sent += 1;
            let tx_start = self.transmit(comm, to, payload);
            if self.trace.is_some() {
                // The send half occupies no exclusive time of its own — the
                // duplex transfer is charged once, on the receive half below.
                let retry = self.meter.retry_words_sent - retry_sent_before;
                let op = TraceOp::Send { to_world: comm.world_rank_of(to) };
                self.trace_event(comm.ctx, op, ws, retry, t_entry, t_entry);
            }
            self.fabric.yield_post(self.world_rank, comm.ctx, comm.world_rank_of(to), ws).await;
            let msg = self.match_directed(comm, from, site).await;
            self.observe_stamp(comm.ctx, from, comm.world_rank_of(from), msg.stamp);
            let wr = msg.payload.len() as u64;
            self.meter.words_recv += wr;
            self.meter.msgs_recv += 1;
            let wmax = ws.max(wr) as f64;
            self.time = tx_start.max(msg.sent_at)
                + self.slowdown * (self.params.alpha + self.params.beta * wmax);
            if self.trace.is_some() {
                let (t1, retry) = (self.time, self.meter.retry_words_recv - retry_recv_before);
                let op = TraceOp::Recv { from_world: comm.world_rank_of(from) };
                self.trace_event(comm.ctx, op, wr, retry, t_entry, t1);
            }
            msg
        }
    }

    /// Post a nonblocking receive for the next message from member `from`
    /// of `comm`. The returned handle must be redeemed with
    /// [`Rank::wait`]; handles from the same `(comm, from)` pair redeem in
    /// FIFO order.
    ///
    /// The point of the nonblocking form is **overlap**: computation
    /// performed between `irecv` and `wait` hides the transfer. At `wait`
    /// the clock advances to `max(now, sent_at + α + βw)` — the receiver
    /// pays only the part of the transfer not already covered by its own
    /// elapsed work, instead of the full `α + βw` the blocking
    /// [`Rank::recv`] charges after the rendezvous.
    pub fn irecv(&mut self, comm: &Comm, from: usize) -> RecvRequest {
        assert!(from < comm.size(), "irecv source out of communicator");
        assert_ne!(from, comm.index(), "irecv from self is not allowed");
        RecvRequest { ctx: comm.ctx(), from, comm_size: comm.size(), redeemed: false }
    }

    /// Complete a nonblocking receive (see [`Rank::irecv`]).
    #[track_caller]
    pub fn wait(&mut self, req: RecvRequest, comm: &Comm) -> Message {
        poll_now(self.wait_a(req, comm))
    }

    /// Async form of [`Rank::wait`].
    #[track_caller]
    pub fn wait_a<'r>(
        &'r mut self,
        req: RecvRequest,
        comm: &'r Comm,
    ) -> impl Future<Output = Message> + 'r {
        let site = Location::caller();
        async move {
            // Rebind to move the whole request into the continuation —
            // disjoint field capture would copy out the `Copy` fields and
            // drop the request (unredeemed) at future construction.
            let mut req = req;
            self.check_abort();
            self.fault_tick();
            assert_eq!(req.ctx, comm.ctx(), "wait called with a different communicator");
            req.redeemed = true;
            let t0 = self.time;
            let retry_before = self.meter.retry_words_recv;
            let msg = self.match_directed(comm, req.from, site).await;
            self.observe_stamp(comm.ctx, req.from, comm.world_rank_of(req.from), msg.stamp);
            let w = msg.payload.len() as u64;
            self.meter.words_recv += w;
            self.meter.msgs_recv += 1;
            let arrival = msg.sent_at + self.params.alpha + self.params.beta * w as f64;
            self.time = self.time.max(arrival);
            if self.trace.is_some() {
                let (t1, retry) = (self.time, self.meter.retry_words_recv - retry_before);
                let op = TraceOp::Recv { from_world: comm.world_rank_of(req.from) };
                self.trace_event(comm.ctx, op, w, retry, t0, t1);
            }
            msg
        }
    }

    async fn match_directed(
        &mut self,
        comm: &Comm,
        from: usize,
        site: &'static Location<'static>,
    ) -> Message {
        if let Some(q) = self.pending.get_mut(&(comm.ctx, from)) {
            if let Some(m) = q.pop_front() {
                return m;
            }
        }
        let from_world = comm.world_rank_of(from);
        loop {
            let taken = self
                .fabric
                .take_any_a(
                    &comm.mailboxes,
                    comm.ctx,
                    comm.index(),
                    self.world_rank,
                    from_world,
                    site,
                    self.fault_watch,
                )
                .await;
            let Some(msg) = taken else {
                // Kicked out of the blocking wait: a rank died while we
                // were waiting inside a catch_failures scope.
                self.raise_peer_failure();
            };
            if !self.fault_accept(comm.ctx, &msg) {
                continue;
            }
            if msg.from == from {
                return msg;
            }
            self.pending.entry((comm.ctx, msg.from)).or_default().push_back(msg);
        }
    }

    // ----- communicator management -----------------------------------------

    /// Collective split of `comm` into sub-communicators by `color`
    /// (members with equal color land in the same sub-communicator, ordered
    /// by `(key, parent index)`). Negative color opts out and yields
    /// `None`. All members of `comm` must call `split` the same number of
    /// times in the same order.
    ///
    /// Splits are bookkeeping, not communication: they are **not** metered
    /// and do not advance the clock (an implementation on a real machine
    /// would piggyback the group agreement on the setup phase).
    #[track_caller]
    pub fn split(&mut self, comm: &Comm, color: i64, key: i64) -> Option<Comm> {
        poll_now(self.split_a(comm, color, key))
    }

    /// Async form of [`Rank::split`].
    #[track_caller]
    pub fn split_a<'r>(
        &'r mut self,
        comm: &'r Comm,
        color: i64,
        key: i64,
    ) -> impl Future<Output = Option<Comm>> + 'r {
        let site = Location::caller();
        async move {
            self.fault_tick();
            // A split is a collective over the parent communicator: register
            // it with the matching lint so members that issue splits in
            // different orders (relative to other collectives) are flagged.
            self.collective_begin_at(comm, CollectiveOp::Split, 0, site).await;
            let seq = comm.next_split_seq();
            let result = self
                .fabric
                .split_a(
                    comm.ctx,
                    comm.members(),
                    seq,
                    comm.index(),
                    self.world_rank,
                    color,
                    key,
                    site,
                    self.fault_watch,
                )
                .await;
            match result {
                Err(FaultKick) => self.raise_peer_failure(),
                Ok(None) => None,
                Ok(Some((group, my_index))) => {
                    Some(Comm::new(group.ctx, group.members, group.mailboxes, my_index))
                }
            }
        }
    }

    /// Rebuild a communicator over the **surviving** world ranks after a
    /// fault (color 0, ordered by world rank). Unlike [`Rank::split`] this
    /// rendezvous lives outside the regular split-sequence and collective
    /// ledgers — survivors of a kill may have diverged arbitrarily in how
    /// many splits they issued before the failure, so recovery must not
    /// depend on any pre-failure counter. `round` distinguishes successive
    /// recoveries (use an incrementing counter).
    ///
    /// All survivors must call this with the same `round`; dead ranks are
    /// counted as opted out.
    #[track_caller]
    pub fn recovery_split(&mut self, round: u64) -> Comm {
        poll_now(self.recovery_split_a(round))
    }

    /// Async form of [`Rank::recovery_split`].
    #[track_caller]
    pub fn recovery_split_a(&mut self, round: u64) -> impl Future<Output = Comm> + '_ {
        let site = Location::caller();
        async move {
            self.check_abort();
            let wc = self.world_comm();
            let result = self
                .fabric
                .split_a(
                    wc.ctx,
                    wc.members(),
                    RECOVERY_SPLIT_SEQ_BASE + round,
                    wc.index(),
                    self.world_rank,
                    0,
                    self.world_rank as i64,
                    site,
                    None,
                )
                .await;
            match result {
                Ok(Some((group, my_index))) => {
                    Comm::new(group.ctx, group.members, group.mailboxes, my_index)
                }
                Ok(None) | Err(FaultKick) => panic!(
                    "rank {}: recovery split round {round} failed — fabric bug (color 0 cannot \
                     opt out, and recovery splits do not watch the fault epoch)",
                    self.world_rank
                ),
            }
        }
    }

    /// Zero-cost synchronization of **all world ranks** (not metered). For
    /// delimiting test phases; real synchronization should use the metered
    /// barrier collective from `pmm-collectives`. Ranks killed by a fault
    /// plan are counted as arrived, so survivors can rally here after a
    /// failure.
    #[track_caller]
    pub fn hard_sync(&mut self) {
        poll_now(self.hard_sync_a());
    }

    /// Async form of [`Rank::hard_sync`].
    #[track_caller]
    pub fn hard_sync_a(&mut self) -> impl Future<Output = ()> + '_ {
        let site = Location::caller();
        async move {
            self.check_abort();
            self.fault_tick();
            self.fabric.hard_sync_a(self.world_rank, site).await;
        }
    }

    // ----- communication-correctness hooks ----------------------------------

    /// Register entry into a collective on `comm` with the matching lint
    /// (see `crate::verify`): the `n`-th collective on a communicator must
    /// agree on `op` (and on `elems`, for symmetric ops) across all
    /// members. On disagreement the world is aborted with a report diffing
    /// the registered descriptors — deterministically, before the mismatch
    /// can turn into a hang or silent corruption.
    ///
    /// Collective implementations (e.g. `pmm-collectives`) call this once
    /// at their entry point; user programs composed of raw sends/receives
    /// don't need it.
    #[track_caller]
    pub fn collective_begin(&mut self, comm: &Comm, op: CollectiveOp, elems: u64) {
        poll_now(self.collective_begin_a(comm, op, elems));
    }

    /// Async form of [`Rank::collective_begin`] (what the async collective
    /// implementations in `pmm-collectives` call).
    #[track_caller]
    pub fn collective_begin_a<'r>(
        &'r mut self,
        comm: &'r Comm,
        op: CollectiveOp,
        elems: u64,
    ) -> impl Future<Output = ()> + 'r {
        self.collective_begin_at(comm, op, elems, Location::caller())
    }

    /// [`Rank::collective_begin_a`] with an explicit call site.
    ///
    /// Collective libraries whose public entry points are
    /// `#[track_caller]` functions returning futures (the `_a` pattern:
    /// capture `Location::caller()` before the `async move` block) use
    /// this to attribute the collective to the *user's* call site rather
    /// than a line inside the library.
    pub async fn collective_begin_at(
        &mut self,
        comm: &Comm,
        op: CollectiveOp,
        elems: u64,
        site: &'static Location<'static>,
    ) {
        self.check_abort();
        if let Err(report) = self.fabric.verify.register_collective(
            comm.ctx,
            comm.size(),
            comm.index(),
            self.world_rank,
            op,
            elems,
            site,
        ) {
            self.fabric.abort(report);
            self.fabric.verify.abort_panic(self.world_rank);
        }
        if self.trace.is_some() {
            let now = self.time;
            self.trace_event(comm.ctx, TraceOp::Collective { op, elems }, 0, 0, now, now);
        }
        // Under a schedule: collective entries are trace events and
        // yield points, so schedules interleave across collectives too.
        self.fabric.yield_collective(self.world_rank, comm.ctx(), op, elems).await;
    }

    /// Description of messages received but never consumed by a directed
    /// receive (strict-drain audit), or `None` if the stash is clean.
    pub(crate) fn undrained_stash(&self) -> Option<String> {
        let mut leftovers: Vec<String> = self
            .pending
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&(ctx, from), q)| {
                format!("{} message(s) from index {from} on ctx {ctx}", q.len())
            })
            .collect();
        if leftovers.is_empty() {
            return None;
        }
        leftovers.sort();
        Some(leftovers.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn bw() -> MachineParams {
        MachineParams::BANDWIDTH_ONLY
    }

    #[test]
    fn ping_pong_content_and_meters() {
        let out = World::new(2, bw()).run(|rank| {
            let wc = rank.world_comm();
            if rank.world_rank() == 0 {
                rank.send(&wc, 1, &[1.0, 2.0, 3.0]);
                let m = rank.recv(&wc, 1);
                m.payload.iter().sum::<f64>()
            } else {
                let m = rank.recv(&wc, 0);
                let back: Vec<f64> = m.payload.iter().map(|x| x * 10.0).collect();
                rank.send(&wc, 0, &back);
                0.0
            }
        });
        assert_eq!(out.values[0], 60.0);
        assert_eq!(out.reports[0].meter.words_sent, 3);
        assert_eq!(out.reports[0].meter.words_recv, 3);
        assert_eq!(out.reports[1].meter.words_sent, 3);
        assert_eq!(out.reports[1].meter.msgs_recv, 1);
    }

    #[test]
    fn clock_ping_pong_bandwidth_only() {
        // 0 sends 5 words (t: 0→5); 1 receives (t = max(0,0)+5 = 5), sends
        // 7 words back (t: 5→12); 0 receives (t = max(5,5)+7 = 12).
        let out = World::new(2, bw()).run(|rank| {
            let wc = rank.world_comm();
            if rank.world_rank() == 0 {
                rank.send(&wc, 1, &[0.0; 5]);
                rank.recv(&wc, 1);
            } else {
                rank.recv(&wc, 0);
                rank.send(&wc, 0, &[0.0; 7]);
            }
            rank.time()
        });
        assert_eq!(out.values[0], 12.0);
        assert_eq!(out.values[1], 12.0);
    }

    #[test]
    fn clock_includes_latency_and_flops() {
        let params = MachineParams::new(100.0, 1.0, 0.5);
        let out = World::new(2, params).run(|rank| {
            let wc = rank.world_comm();
            rank.compute(10.0); // t = 5
            if rank.world_rank() == 0 {
                rank.send(&wc, 1, &[0.0; 20]); // t = 5 + 100 + 20 = 125
            } else {
                rank.recv(&wc, 0); // t = max(5, 5) + 120 = 125
            }
            rank.time()
        });
        assert_eq!(out.values[0], 125.0);
        assert_eq!(out.values[1], 125.0);
    }

    #[test]
    fn sendrecv_duplex_costs_once() {
        // Symmetric 8-word exchange: each side's clock advances by β·8 once.
        let out = World::new(2, bw()).run(|rank| {
            let wc = rank.world_comm();
            let partner = 1 - rank.world_rank();
            let m = rank.sendrecv(&wc, partner, &[rank.world_rank() as f64; 8]);
            (rank.time(), m.payload[0])
        });
        assert_eq!(out.values[0], (8.0, 1.0));
        assert_eq!(out.values[1], (8.0, 0.0));
    }

    #[test]
    fn irecv_overlaps_compute_with_transfer() {
        // Sender ships 100 words at t = 0; receiver computes 100 flops.
        // Blocking: t = max(100, 0) + 100 = 200. Overlapped: the transfer
        // (arrival t = 100) hides behind the compute (t = 100) → t = 100.
        let params = MachineParams::new(0.0, 1.0, 1.0);
        let run = |overlap: bool| {
            World::new(2, params).run(move |rank| {
                let wc = rank.world_comm();
                if rank.world_rank() == 0 {
                    rank.send(&wc, 1, &[0.0; 100]);
                } else if overlap {
                    let req = rank.irecv(&wc, 0);
                    rank.compute(100.0);
                    rank.wait(req, &wc);
                } else {
                    rank.recv(&wc, 0);
                    rank.compute(100.0);
                }
                rank.time()
            })
        };
        let blocking = run(false);
        let overlapped = run(true);
        assert_eq!(blocking.values[1], 200.0);
        assert_eq!(overlapped.values[1], 100.0);
        // Meters are identical either way.
        assert_eq!(blocking.reports[1].meter.words_recv, overlapped.reports[1].meter.words_recv);
    }

    #[test]
    fn irecv_requests_redeem_in_fifo_order() {
        let out = World::new(2, bw()).run(|rank| {
            let wc = rank.world_comm();
            if rank.world_rank() == 0 {
                rank.send(&wc, 1, &[1.0]);
                rank.send(&wc, 1, &[2.0]);
                Vec::new()
            } else {
                let r1 = rank.irecv(&wc, 0);
                let r2 = rank.irecv(&wc, 0);
                let a = rank.wait(r1, &wc).payload[0];
                let b = rank.wait(r2, &wc).payload[0];
                vec![a, b]
            }
        });
        assert_eq!(out.values[1], vec![1.0, 2.0]);
    }

    #[test]
    fn wait_still_blocks_until_arrival() {
        // If the receiver has done less work than the transfer takes, wait
        // charges the remainder: compute 30 then wait on a 100-word message
        // ⇒ t = max(30, 100) = 100.
        let params = MachineParams::new(0.0, 1.0, 1.0);
        let out = World::new(2, params).run(|rank| {
            let wc = rank.world_comm();
            if rank.world_rank() == 0 {
                rank.send(&wc, 1, &[0.0; 100]);
            } else {
                let req = rank.irecv(&wc, 0);
                rank.compute(30.0);
                rank.wait(req, &wc);
            }
            rank.time()
        });
        assert_eq!(out.values[1], 100.0);
    }

    #[test]
    fn exchange_shifts_around_a_ring() {
        // Each of 5 ranks sends to the right, receives from the left; the
        // duplex clock advances by one β·w step.
        let out = World::new(5, bw()).run(|rank| {
            let wc = rank.world_comm();
            let p = wc.size();
            let me = wc.index();
            let m = rank.exchange(&wc, (me + 1) % p, (me + p - 1) % p, &[me as f64; 4]);
            (m.payload[0] as usize, rank.time())
        });
        for r in 0..5 {
            assert_eq!(out.values[r].0, (r + 4) % 5);
            assert_eq!(out.values[r].1, 4.0);
        }
    }

    #[test]
    fn out_of_order_senders_are_matched_by_source() {
        let out = World::new(3, bw()).run(|rank| {
            let wc = rank.world_comm();
            match rank.world_rank() {
                0 => {
                    // Receive from 2 first even though 1 may arrive earlier.
                    let a = rank.recv(&wc, 2).payload[0];
                    let b = rank.recv(&wc, 1).payload[0];
                    a * 100.0 + b
                }
                r => {
                    rank.send(&wc, 0, &[r as f64]);
                    0.0
                }
            }
        });
        assert_eq!(out.values[0], 201.0);
    }

    #[test]
    fn fifo_per_sender_is_preserved() {
        let out = World::new(2, bw()).run(|rank| {
            let wc = rank.world_comm();
            if rank.world_rank() == 1 {
                for i in 0..10 {
                    rank.send(&wc, 0, &[i as f64]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| rank.recv(&wc, 1).payload[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(out.values[0], (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn split_into_rows_and_exchange() {
        // 4 ranks in a 2x2 grid; split by row, exchange within row.
        let out = World::new(4, bw()).run(|rank| {
            let wc = rank.world_comm();
            let row = (rank.world_rank() / 2) as i64;
            let comm = rank.split(&wc, row, rank.world_rank() as i64).unwrap();
            assert_eq!(comm.size(), 2);
            let partner = 1 - comm.index();
            let m = rank.sendrecv(&comm, partner, &[rank.world_rank() as f64]);
            m.payload[0]
        });
        assert_eq!(out.values, vec![1.0, 0.0, 3.0, 2.0]);
    }

    #[test]
    fn nested_splits() {
        // 8 ranks → split into halves → split each half into pairs.
        let out = World::new(8, bw()).run(|rank| {
            let wc = rank.world_comm();
            let r = rank.world_rank();
            let half = rank.split(&wc, (r / 4) as i64, r as i64).unwrap();
            assert_eq!(half.size(), 4);
            let pair = rank.split(&half, (half.index() / 2) as i64, half.index() as i64).unwrap();
            assert_eq!(pair.size(), 2);
            let m = rank.sendrecv(&pair, 1 - pair.index(), &[r as f64]);
            m.payload[0] as usize
        });
        assert_eq!(out.values, vec![1, 0, 3, 2, 5, 4, 7, 6]);
    }

    #[test]
    fn split_opt_out_with_negative_color() {
        let out = World::new(4, bw()).run(|rank| {
            let wc = rank.world_comm();
            let color = if rank.world_rank() < 2 { 0 } else { -1 };
            rank.split(&wc, color, 0).map(|c| c.size())
        });
        assert_eq!(out.values, vec![Some(2), Some(2), None, None]);
    }

    #[test]
    fn memory_tracking_and_limit() {
        let out = World::new(1, bw()).with_memory_limit(Some(1000)).run(|rank| {
            rank.mem_acquire(600);
            let err = rank.try_mem_acquire(500).unwrap_err();
            assert_eq!(err.limit, 1000);
            rank.mem_acquire(400);
            rank.mem_release(1000);
            rank.mem().peak()
        });
        assert_eq!(out.values[0], 1000);
    }

    #[test]
    fn compute_meters_flops() {
        let out = World::new(1, MachineParams::new(0.0, 0.0, 2.0)).run(|rank| {
            rank.compute(21.0);
            (rank.meter().flops, rank.time())
        });
        assert_eq!(out.values[0], (21.0, 42.0));
    }

    #[test]
    fn traces_record_sends_and_recvs() {
        let out = World::new(2, bw()).with_trace(true).run(|rank| {
            let wc = rank.world_comm();
            rank.mark("phase-1");
            if rank.world_rank() == 0 {
                rank.send(&wc, 1, &[1.0, 2.0]);
            } else {
                rank.recv(&wc, 0);
            }
        });
        let t0 = out.reports[0].trace.as_ref().unwrap();
        assert_eq!(t0[0].op, TraceOp::Mark("phase-1".into()));
        assert_eq!(
            t0[1],
            TraceEvent {
                ctx: 0,
                op: TraceOp::Send { to_world: 1 },
                words: 2,
                retry_words: 0,
                t0: 0.0,
                t1: 2.0,
            }
        );
        let t1 = out.reports[1].trace.as_ref().unwrap();
        assert_eq!(t1[1].op, TraceOp::Recv { from_world: 0 });
        assert_eq!(t1[1].words, 2);
        assert_eq!(t1[1].t1, 2.0);
    }

    #[test]
    fn phase_scopes_bracket_events_at_no_cost() {
        let out = World::new(2, bw()).with_trace(true).run(|rank| {
            let wc = rank.world_comm();
            let partner = 1 - rank.world_rank();
            crate::phase!(rank, "swap", rank.sendrecv(&wc, partner, &[0.0; 3]));
            rank.time()
        });
        assert_eq!(out.values[0], 3.0, "phase scopes must not advance the clock");
        let t0 = out.reports[0].trace.as_ref().unwrap();
        assert_eq!(t0[0].op, TraceOp::PhaseBegin { label: "swap" });
        assert!(matches!(t0.last().unwrap().op, TraceOp::PhaseEnd { label: "swap" }));
        // The duplex exchange traces a zero-width send and a full-width recv.
        assert_eq!((t0[1].t0, t0[1].t1), (0.0, 0.0));
        assert_eq!((t0[2].t0, t0[2].t1), (0.0, 3.0));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let out = World::new(1, bw()).run(|rank| {
            rank.phase_begin("p");
            rank.compute(4.0);
            rank.phase_end("p");
        });
        assert!(out.reports[0].trace.is_none(), "tracing off ⇒ no buffer at all");
    }

    #[test]
    fn duplicated_delivery_trips_the_happens_before_audit_at_any_p() {
        // Rank 1 posts one stamped message twice below the fault layer (no
        // `MsgMeta`, so `fault_accept` lets both copies through); rank 0's
        // second receive must trip the audit, at P = 8192 as at P = 8.
        for p in [8, 8192] {
            let failure = World::new(p, bw())
                .try_run_async(|rank| {
                    Box::pin(async move {
                        let wc = rank.world_comm();
                        if rank.world_rank() == 0 {
                            rank.recv_a(&wc, 1).await;
                            rank.recv_a(&wc, 1).await;
                        } else if rank.world_rank() == 1 {
                            let m = Message {
                                from: 1,
                                sent_at: 0.0,
                                payload: vec![1.0],
                                stamp: rank.next_stamp(),
                                meta: None,
                            };
                            rank.fabric.post(&wc.mailboxes, wc.ctx, 0, 0, m.clone());
                            rank.fabric.post(&wc.mailboxes, wc.ctx, 0, 0, m);
                        }
                    })
                })
                .expect_err("a duplicated stamp must fail the run");
            let want = "happens-before violation at rank 0: sender clock 1 from world rank 1";
            assert!(failure.report.contains(want), "P = {p}: {}", failure.report);
        }
    }
}

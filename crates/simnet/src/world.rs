//! World construction: give every rank of a program a slot on the
//! single-threaded deterministic event loop ([`World::run_async`]), run
//! it, and collect reports. [`World::run`] hosts a sync closure on OS
//! threads instead; it is kept only for the frozen benchmark's sync
//! entry points (see [`crate::engine`]).

use std::any::Any;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use pmm_model::{Cost, MachineParams};

use crate::engine::{poll_now, LocalBoxFuture};
use crate::fabric::Fabric;
use crate::fault::{FaultPanic, FaultPlan};
use crate::meter::Meter;
use crate::rank::Rank;
use crate::trace::{ChoiceLog, Repro, Schedule};
use crate::tracer::{TraceEvent, Tracer};
use crate::verify::{lock_unpoisoned, AbortPanic, VerifyConfig};

/// Ranks torn down by a verifier abort die via a sentinel
/// [`AbortPanic`] that the runner filters out — but each such death
/// would also print the default "thread panicked" message and backtrace,
/// burying the one report that matters under per-rank teardown noise.
/// Chain a process-wide panic hook (installed once; everything that is
/// not the sentinel is delegated to the previously installed hook) that
/// swallows exactly that sentinel.
fn silence_abort_teardown_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // FaultPanic is the injected-kill sentinel: either the program
            // converts it to a typed error via catch_failures_async!, or
            // the runner raises a single rank-failure report once every
            // rank has finished. Per-rank noise helps neither case.
            if info.payload().downcast_ref::<AbortPanic>().is_none()
                && info.payload().downcast_ref::<FaultPanic>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Configuration for a simulated machine run.
///
/// ```
/// use pmm_simnet::{World, MachineParams};
/// let result = World::new(8, MachineParams::BANDWIDTH_ONLY)
///     .run_async(|rank| Box::pin(async move { rank.world_rank() * 2 }));
/// assert_eq!(result.values[3], 6);
/// ```
#[derive(Clone)]
pub struct World {
    size: usize,
    params: MachineParams,
    mem_limit: Option<u64>,
    trace: bool,
    verify: VerifyConfig,
    schedule: Option<Schedule>,
    faults: Option<FaultPlan>,
    record_schedule: bool,
}

/// Stack of the thread hosting each rank of a sync-closure run
/// ([`World::run`]; unused by [`World::run_async`]). 512 KiB is about
/// 6.7× the deepest of the benchmark's six sync entry points at P = 64
/// in a debug build (CARMA, 72–76 KiB; the other five need at most
/// 46 KiB), and small enough that the stacks of a 64-rank world
/// (64 × 516 KiB with the guard page) fit glibc's 40 MiB cache of thread
/// stacks: a world's threads then reuse the stacks of the previous
/// world's instead of each paying an `mmap`, a guard-page `mprotect` and
/// an `munmap`. A program that recurses deeper runs on
/// [`World::run_async`].
const DEFAULT_STACK_BYTES: usize = 512 << 10;

/// One rank's resumable continuation on the event loop: `Some` while the
/// program is still suspended, `None` once it has produced its value and
/// report.
type RankCell<'f, T> = Option<Pin<Box<dyn Future<Output = (T, RankReport)> + 'f>>>;

impl World {
    /// A world of `size` ranks with machine parameters `params`.
    ///
    /// A sync-closure run ([`World::run`]) hosts each rank on a thread
    /// with a 512 KiB stack.
    pub fn new(size: usize, params: MachineParams) -> World {
        assert!(size >= 1, "world size must be >= 1");
        World {
            size,
            params,
            mem_limit: None,
            trace: false,
            verify: VerifyConfig::default(),
            schedule: None,
            faults: None,
            record_schedule: false,
        }
    }

    /// Run under the seeded deterministic scheduler: rank progress is
    /// serialized at every blocking point (mailbox receive, split
    /// rendezvous, barrier) and at every send / collective entry, with
    /// ties among runnable ranks broken by a PRNG seeded with `seed`.
    /// Identical `(program, seed)` pairs make identical picks (recorded
    /// on request: [`World::with_schedule_recording`]); failure reports
    /// name the seed and a `PMM_SEED=` repro command. See also
    /// [`seed_from_env`](crate::trace::seed_from_env) and
    /// [`fuzz_schedules`](crate::trace::fuzz_schedules).
    #[must_use]
    pub fn with_seed(self, seed: u64) -> World {
        self.with_schedule(Schedule::Seeded(seed))
    }

    /// Run under the deterministic scheduler with an explicit
    /// [`Schedule`]: either [`Schedule::Seeded`] (what [`World::with_seed`]
    /// is sugar for) or [`Schedule::Prefix`] — replay a recorded choice
    /// prefix pick by pick, then complete canonically by always picking
    /// the smallest runnable rank. Prefix runs record the same
    /// [`ChoiceLog`] as seeded runs ([`WorldResult::choice_points`]),
    /// which is what schedule-space exploration (`pmm-explore`) drives:
    /// each explored branch is just a `World` run with a longer prefix.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> World {
        self.schedule = Some(schedule);
        self
    }

    /// Toggle recording of the [`ChoiceLog`] on deterministic runs (off
    /// by default). Recording costs O(1) host time per pick, touch and
    /// runnable-set change, and tens of bytes of memory per pick, which
    /// only the explorer, replays and the tests that read the log need.
    /// With recording off, [`WorldResult::choice_points`] is `None` even
    /// on seeded runs; [`WorldResult::picks`] counts the picks either
    /// way.
    #[must_use]
    pub fn with_schedule_recording(mut self, record: bool) -> World {
        self.record_schedule = record;
        self
    }

    /// Sets nothing: the scheduler has one wake-up rule (a blocked rank
    /// becomes runnable when the resource it blocks on is touched). Kept
    /// only because the frozen `benchmark/` package calls it.
    #[doc(hidden)]
    #[must_use]
    pub fn with_targeted_wakeup(self, _: bool) -> World {
        self
    }

    /// Attach a fault plan: message-level faults (drop / duplicate /
    /// corrupt / delay, absorbed by the reliable-delivery layer and
    /// metered as retry overhead), stragglers, and rank kills. Fault
    /// decisions draw from the plan's own seed when set, otherwise from
    /// the schedule seed's SplitMix64 stream — either way
    /// `(program, seed, plan)` replays byte-identically.
    ///
    /// The run panics (from [`World::run_async`], as from [`World::run`])
    /// if the plan is malformed — rates outside `[0, 1)`, nonpositive
    /// straggler factors, etc.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> World {
        self.faults = Some(plan);
        self
    }

    /// Set a per-rank local memory capacity `M` in words (§6.2). `None`
    /// models the memory-independent setting (M = ∞).
    #[must_use]
    pub fn with_memory_limit(mut self, limit: Option<u64>) -> World {
        self.mem_limit = limit;
        self
    }

    /// Enable per-rank structured event traces (see [`crate::tracer`]):
    /// every message, compute call, collective entry, and phase scope is
    /// recorded with its word counts and clock interval, and
    /// [`WorldResult::tracer`] assembles the per-world [`Tracer`]
    /// analyses. Off by default — and genuinely zero-cost when off: no
    /// buffer exists and no emission site does more than one branch.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> World {
        self.trace = trace;
        self
    }

    /// Run the deadlock watchdog with the given scan interval. In debug
    /// builds (which is what `cargo test` exercises) the watchdog is on by
    /// default with a 2 s interval; release builds opt in with this
    /// method. A confirmed deadlock aborts the run with a report naming
    /// every blocked rank, its operation, communicator context, and call
    /// site — instead of hanging.
    ///
    /// The watchdog thread exists only for free-running worlds
    /// ([`World::run`] without a schedule). Under a schedule —
    /// [`World::with_seed`], [`World::with_schedule`], and every
    /// [`World::run_async`] — deadlock and prefix divergence are proven
    /// at pick time with the same report, so no watchdog is started and
    /// this setting has no effect.
    #[must_use]
    pub fn with_watchdog(mut self, interval: Duration) -> World {
        self.verify.watchdog = Some(interval);
        self
    }

    /// Additionally fail the run if any message was sent but never
    /// received (undrained mailboxes or receive stashes at exit), and
    /// verify that the meters conserve traffic globally (Σ sent = Σ
    /// received). Off by default: programs are allowed to exit with
    /// traffic in flight.
    #[must_use]
    pub fn with_strict_drain(mut self, strict: bool) -> World {
        self.verify.strict_drain = strict;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The canonical replay recipe for runs of this world configuration.
    pub fn repro(&self) -> Repro {
        self.schedule.as_ref().map_or(Repro::Unseeded, Schedule::repro)
    }

    /// Run the sync closure `program` on every rank, each hosted by an OS
    /// thread of its own, and collect the results. This host exists for
    /// the frozen benchmark's sync entry points (`alg1`, `cannon`, ...,
    /// each one [`poll_now`] over its `_a` body); everything else runs on
    /// [`World::run_async`]. Without a schedule the threads free-run
    /// (interleavings differ between runs; meters and clocks do not);
    /// with [`World::with_seed`] / [`World::with_schedule`] they pass the
    /// scheduler baton, one running at a time, and reproduce
    /// [`World::run_async`]'s schedule byte for byte.
    ///
    /// Panics in any rank propagate (with the rank id) after all threads
    /// are joined. If the verifier aborts the run (deadlock, collective
    /// mismatch), `run` panics with the verifier's report. A world with
    /// more ranks than the OS grants threads fails the same way, with a
    /// report naming the rank whose thread could not be spawned and
    /// pointing at [`World::run_async`] (when the OS refuses only inside
    /// the new thread's start-up, the Rust runtime aborts the process
    /// before this crate sees an error).
    ///
    /// Thread creation is this host's main cost at small `P`: each
    /// rank's 512 KiB stack is sized so that a world of up to 64 ranks
    /// draws its stacks from glibc's cache. A free-running
    /// rank that blocks yields the CPU a few times before it parks, so a
    /// wait of microseconds costs no futex sleep.
    pub fn run<T, F>(&self, program: F) -> WorldResult<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Send + Sync,
    {
        Self::unwrap_run(self.run_on_threads(program, DEFAULT_STACK_BYTES))
    }

    /// Panic with the canonical failure formatting (what [`World::run`]
    /// and [`World::run_async`] do with a failed raw run).
    fn unwrap_run<T>(result: Result<WorldResult<T>, RunFailureRaw>) -> WorldResult<T> {
        match result {
            Ok(out) => out,
            Err(raw) => {
                let note = raw.repro.note();
                match raw.error {
                    RunError::Report(report) => panic!("{report}\n[{note}]"),
                    RunError::RankPanic { rank, payload } => {
                        eprintln!("pmm-simnet: rank {rank} panicked [{note}]");
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    }

    /// Convert a raw failure into the public [`RunFailure`] value (what
    /// the `try_` runners return).
    fn raw_failure(raw: RunFailureRaw) -> RunFailure {
        let report = match raw.error {
            RunError::Report(r) => r,
            RunError::RankPanic { rank, payload } => {
                format!("pmm-simnet: rank {rank} panicked: {}", panic_message(&*payload))
            }
        };
        RunFailure { report, repro: raw.repro, choice_points: raw.choice_points }
    }

    /// Run an **async** rank program: every rank is a resumable
    /// continuation on a single-threaded deterministic event loop — this
    /// is what executes worlds of 10^5–10^6 ranks for real. The run is
    /// always deterministic: without an explicit schedule it uses the
    /// canonical [`Schedule::Prefix`]`(vec![])` (smallest runnable rank
    /// at every pick). Schedules, traces, meters, and clocks are
    /// byte-identical to a [`World::run`] that drives the same program
    /// through [`poll_now`] under the same [`Schedule`].
    ///
    /// `program` is a boxing closure:
    /// `world.run_async(|rank| Box::pin(async move { ... }))`.
    pub fn run_async<T, F>(&self, program: F) -> WorldResult<T>
    where
        T: Send,
        F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
    {
        Self::unwrap_run(self.run_on_loop(&program))
    }

    /// Like [`World::run_async`], but capture every failure — rank
    /// panic, verifier abort, unhandled rank failure, strict-drain
    /// violation — as a [`RunFailure`] value instead of panicking. The
    /// failure carries whatever the scheduler recorded before the run
    /// died ([`ChoiceLog`], replay recipe), which is what lets
    /// schedule-space exploration keep walking the choice tree through
    /// failing branches.
    pub fn try_run_async<T, F>(&self, program: F) -> Result<WorldResult<T>, RunFailure>
    where
        T: Send,
        F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
    {
        self.run_on_loop(&program).map_err(Self::raw_failure)
    }

    /// Start a run: build the fabric — schedule (which makes its first
    /// pick here), fault plan, thread-host table — and bundle it with
    /// what every rank is constructed from. No explicit fault seed:
    /// derive one from the schedule seed's SplitMix64 stream (0 for
    /// unseeded and prefix-replay worlds), so a single PMM_SEED pins both
    /// the interleaving and the fault pattern.
    fn start_run(&self, schedule: Option<Schedule>, on_threads: bool) -> Run {
        silence_abort_teardown_panics();
        let mut fabric = Fabric::new(self.size);
        if let Some(schedule) = schedule {
            fabric.enable_schedule(schedule, self.record_schedule);
        }
        if let Some(plan) = &self.faults {
            let fault_seed = plan.seed.unwrap_or_else(|| {
                let mut s = match &self.schedule {
                    Some(Schedule::Seeded(seed)) => *seed,
                    _ => 0,
                };
                crate::fabric::splitmix64(&mut s)
            });
            fabric.enable_faults(plan.clone(), fault_seed);
        }
        if on_threads {
            fabric.host_on_threads();
        }
        fabric.sched_start();
        Run {
            fabric: Arc::new(fabric),
            params: self.params,
            mem_limit: self.mem_limit,
            trace: self.trace,
            strict_drain: self.verify.strict_drain,
        }
    }

    /// Host every rank of a sync program on an OS thread of its own.
    /// Each thread registers itself with the fabric, waits for the baton
    /// (at once without a schedule), and runs the program; the sync
    /// primitives park the thread at their yield points. Each thread
    /// gets a stack of `stack_bytes`.
    fn run_on_threads<T, F>(
        &self,
        program: F,
        stack_bytes: usize,
    ) -> Result<WorldResult<T>, RunFailureRaw>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Send + Sync,
    {
        let run = self.start_run(self.schedule.clone(), true);
        let (run, program, fabric) = (&run, &program, &run.fabric);
        let mut outcomes = Outcomes::new(self.size);
        // Under a schedule deadlock is proven at pick time; only
        // free-running threads need the watchdog.
        let watchdog_interval = self.verify.watchdog.filter(|_| self.schedule.is_none());

        std::thread::scope(|scope| {
            // Stop signal for the watchdog: flag + condvar so shutdown is
            // immediate rather than waiting out a scan interval.
            let watchdog_stop = Arc::new((Mutex::new(false), Condvar::new()));
            let watchdog = watchdog_interval.map(|interval| {
                let stop = watchdog_stop.clone();
                std::thread::Builder::new()
                    .name("pmm-watchdog".to_string())
                    .spawn_scoped(scope, move || {
                        let (lock, cv) = &*stop;
                        let mut candidate = None;
                        let mut stopped = lock_unpoisoned(lock);
                        while !*stopped {
                            let (guard, timeout) = cv
                                .wait_timeout(stopped, interval)
                                .unwrap_or_else(PoisonError::into_inner);
                            stopped = guard;
                            if *stopped || !timeout.timed_out() {
                                continue;
                            }
                            drop(stopped);
                            if let Some(report) = fabric.watchdog_scan(&mut candidate) {
                                fabric.abort(report);
                            }
                            stopped = lock_unpoisoned(lock);
                        }
                    })
                    .expect("failed to spawn watchdog thread")
            });

            let mut handles = Vec::with_capacity(self.size);
            for r in 0..self.size {
                let spawned = std::thread::Builder::new()
                    .name(format!("pmm-rank-{r}"))
                    .stack_size(stack_bytes)
                    .spawn_scoped(scope, move || {
                        fabric.register_host(r);
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            poll_now(fabric.baton(r));
                            let mut rank = run.rank(r);
                            let value = program(&mut rank);
                            run.finish(rank, value)
                        }));
                        fabric.retire(r);
                        result
                    });
                match spawned {
                    Ok(handle) => handles.push(handle),
                    Err(e) => {
                        // The ranks already started can never be joined
                        // by the missing ones: abort so they tear down.
                        fabric.abort(format!(
                            "pmm-simnet: could not spawn the thread hosting rank {r} of {}: {e}\n\
                             (a sync-closure run needs one OS thread per rank; write the program \
                             with the async `_a` primitives and use World::run_async, which \
                             executes 10^5 ranks on a single thread)",
                            self.size
                        ));
                        break;
                    }
                }
            }
            for (r, handle) in handles.into_iter().enumerate() {
                outcomes.record(r, handle.join().and_then(|result| result));
            }

            // All ranks are done; retire the watchdog before deciding the
            // run's fate so it cannot fire on a finished world.
            if let Some(h) = watchdog {
                *lock_unpoisoned(&watchdog_stop.0) = true;
                watchdog_stop.1.notify_all();
                h.join().expect("watchdog thread panicked");
            }
        });

        self.collect(fabric, outcomes)
    }

    /// Host every rank of an async program as a pinned continuation in a
    /// slab ([`RankCell`]s) on the calling thread. The loop polls exactly
    /// the rank the scheduler's baton names, so a blocked rank costs one
    /// suspended future, not a parked OS thread.
    fn run_on_loop<T, F>(&self, program: &F) -> Result<WorldResult<T>, RunFailureRaw>
    where
        T: Send,
        F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
    {
        // The event loop *is* the deterministic scheduler; without an
        // explicit schedule, run under the canonical one (empty prefix:
        // smallest runnable rank at every pick).
        let schedule = self.schedule.clone().unwrap_or(Schedule::Prefix(Vec::new()));
        let run = self.start_run(Some(schedule), false);
        let (run, fabric) = (&run, &run.fabric);
        let mut outcomes = Outcomes::new(self.size);
        let mut cells: Vec<RankCell<'_, T>> = (0..self.size)
            .map(|r| -> RankCell<'_, T> {
                Some(Box::pin(async move {
                    let mut rank = run.rank(r);
                    let value = program(&mut rank).await;
                    run.finish(rank, value)
                }))
            })
            .collect();

        let mut remaining = self.size;
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        while remaining > 0 && !fabric.verify.is_aborted() {
            let Some(r) = fabric.sched_current() else {
                if fabric.verify.is_aborted() {
                    break;
                }
                panic!(
                    "pmm-simnet: event loop stalled with {remaining} unfinished rank(s) and \
                     no baton holder — scheduler bug"
                );
            };
            let cell = cells[r].as_mut().expect("baton held by a finished rank");
            let result =
                match std::panic::catch_unwind(AssertUnwindSafe(|| cell.as_mut().poll(&mut cx))) {
                    // The continuation yielded the baton; the pick it made
                    // on the way out tells the next iteration whom to poll.
                    Ok(Poll::Pending) => continue,
                    Ok(Poll::Ready(done)) => Ok(done),
                    Err(payload) => Err(payload),
                };
            cells[r] = None;
            remaining -= 1;
            outcomes.record(r, result);
            fabric.retire(r);
        }

        // Continuations of ranks that never ran to completion (the world
        // aborted) are dropped here.
        drop(cells);

        self.collect(fabric, outcomes)
    }

    /// Shared epilogue: classify how the run ended, harvest the
    /// scheduler's artifacts and the canonical replay recipe exactly once on every failure path
    /// (prefix replays report the choices actually made, seeded runs
    /// their seed), run the strict-drain audits, and assemble the
    /// [`WorldResult`].
    fn collect<T>(
        &self,
        fabric: &Fabric,
        outcomes: Outcomes<T>,
    ) -> Result<WorldResult<T>, RunFailureRaw> {
        let fail = |error: RunError| RunFailureRaw {
            error,
            repro: fabric.sched_repro().unwrap_or(Repro::Unseeded),
            choice_points: fabric.take_choice_log(),
        };
        // A genuine panic is the program's own and wins; then the
        // verifier's report; then an injected kill nobody caught.
        if let Some((rank, payload)) = outcomes.first_panic {
            return Err(fail(RunError::RankPanic { rank, payload }));
        }
        if fabric.verify.is_aborted() {
            let report = fabric
                .verify
                .report_text()
                .or(outcomes.abort_note)
                .unwrap_or_else(|| "pmm-verify: world aborted with no stored report".into());
            return Err(fail(RunError::Report(report)));
        }
        if let Some(detail) = outcomes.fault_note {
            return Err(fail(RunError::Report(format!(
                "pmm-fault: rank failure was not handled by the program — {detail}\n\
                 (wrap the failable region in catch_failures_async! to recover)"
            ))));
        }

        let strict_drain = self.verify.strict_drain;
        if strict_drain {
            let residual = fabric.residual_messages();
            if !residual.is_empty() {
                return Err(fail(RunError::Report(format!(
                    "pmm-verify: world finished with {} undrained mailbox(es) \
                     [(ctx, member, messages)]: {residual:?}",
                    residual.len()
                ))));
            }
        }

        let (values, reports): (Vec<T>, Vec<RankReport>) = outcomes
            .slots
            .into_iter()
            .map(|s| s.expect("rank completed without panicking"))
            .unzip();

        if strict_drain {
            let sent: u64 = reports.iter().map(|r| r.meter.words_sent).sum();
            let recv: u64 = reports.iter().map(|r| r.meter.words_recv).sum();
            let msent: u64 = reports.iter().map(|r| r.meter.msgs_sent).sum();
            let mrecv: u64 = reports.iter().map(|r| r.meter.msgs_recv).sum();
            if sent != recv || msent != mrecv {
                return Err(fail(RunError::Report(format!(
                    "pmm-verify: meter conservation violated: {sent} words sent vs {recv} \
                     received, {msent} messages sent vs {mrecv} received"
                ))));
            }
        }
        Ok(WorldResult {
            params: self.params,
            values,
            reports,
            picks: fabric.sched_picks(),
            choice_points: fabric.take_choice_log(),
        })
    }
}

/// What one run shares among its ranks' hosts: the fabric, and what each
/// [`Rank`] is built from and closed with — the part of a rank's life
/// that is the same on every host.
struct Run {
    fabric: Arc<Fabric>,
    params: MachineParams,
    mem_limit: Option<u64>,
    trace: bool,
    strict_drain: bool,
}

impl Run {
    fn rank(&self, r: usize) -> Rank {
        Rank::new(r, self.fabric.clone(), self.params, self.mem_limit, self.trace)
    }

    /// Close a rank whose program returned `value`: run the per-rank
    /// strict-drain audit and take its report.
    fn finish<T>(&self, mut rank: Rank, value: T) -> (T, RankReport) {
        if self.strict_drain {
            if let Some(desc) = rank.undrained_stash() {
                // A verifier abort, not a rank panic: the violation
                // surfaces as a report and the AbortPanic teardown stays
                // quiet.
                let r = rank.world_rank();
                self.fabric.abort(format!(
                    "pmm-verify: rank {r} finished with undrained receive stash: {desc}"
                ));
                self.fabric.verify.abort_panic(r);
            }
        }
        let report = RankReport {
            meter: rank.meter(),
            time: rank.time(),
            peak_mem_words: rank.mem().peak(),
            trace: rank.take_trace(),
            final_stamp: rank.final_stamp(),
        };
        (value, report)
    }
}

/// How the ranks of one run ended, as their hosts saw it.
struct Outcomes<T> {
    /// Value and report of every rank that ran to completion.
    slots: Vec<Option<(T, RankReport)>>,
    first_panic: Option<(usize, Box<dyn Any + Send>)>,
    abort_note: Option<String>,
    fault_note: Option<String>,
}

impl<T> Outcomes<T> {
    fn new(size: usize) -> Outcomes<T> {
        Outcomes {
            slots: (0..size).map(|_| None).collect(),
            first_panic: None,
            abort_note: None,
            fault_note: None,
        }
    }

    /// Record how rank `r` ended. Ranks torn down by a verifier abort
    /// carry an [`AbortPanic`]; the report is raised once, by
    /// [`World::collect`]. A [`FaultPanic`] is an injected kill the
    /// program chose not to catch — reported once, after genuine panics.
    /// Any other panic is the program's own.
    fn record(&mut self, r: usize, result: Result<(T, RankReport), Box<dyn Any + Send>>) {
        match result {
            Ok(done) => self.slots[r] = Some(done),
            Err(payload) => {
                if let Some(AbortPanic(note)) = payload.downcast_ref::<AbortPanic>() {
                    self.abort_note.get_or_insert_with(|| note.clone());
                } else if let Some(FaultPanic(failed)) = payload.downcast_ref::<FaultPanic>() {
                    self.fault_note.get_or_insert_with(|| failed.to_string());
                } else {
                    self.first_panic.get_or_insert((r, payload));
                }
            }
        }
    }
}

/// How a run died, before formatting.
enum RunError {
    /// A report-shaped failure (verifier abort, unhandled rank failure,
    /// strict-drain violation).
    Report(String),
    /// A rank's program panicked with its own payload.
    RankPanic { rank: usize, payload: Box<dyn Any + Send> },
}

/// A failed run before formatting: the failure plus the scheduler artifacts
/// harvested from the fabric.
struct RunFailureRaw {
    error: RunError,
    repro: Repro,
    choice_points: Option<ChoiceLog>,
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(AbortPanic(s)) = payload.downcast_ref::<AbortPanic>() {
        s.clone()
    } else if let Some(FaultPanic(f)) = payload.downcast_ref::<FaultPanic>() {
        f.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A failed [`World::try_run_async`], as a value: the failure report, the
/// canonical replay recipe ([`Repro`]), and the schedule artifacts
/// recorded before the run died.
#[derive(Debug)]
pub struct RunFailure {
    /// The failure report (verifier report, rank panic text, fault note,
    /// strict-drain violation, ...).
    pub report: String,
    /// Canonical replay recipe for this run's schedule.
    pub repro: Repro,
    /// [`ChoiceLog`] recorded up to the failure; `Some` iff the run was
    /// deterministic and recorded its schedule.
    pub choice_points: Option<ChoiceLog>,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n[{}]", self.report, self.repro.note())
    }
}

impl std::error::Error for RunFailure {}

/// Final accounting for one rank.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Cumulative traffic/compute counters.
    pub meter: Meter,
    /// Final critical-path clock.
    pub time: f64,
    /// Memory high-water mark in words.
    pub peak_mem_words: u64,
    /// Structured event trace, if the world ran with
    /// [`World::with_trace`]`(true)`.
    pub trace: Option<Vec<TraceEvent>>,
    /// Final happens-before event count (see `crate::verify`): the
    /// copies this rank posted plus the messages it accepted, i.e.
    /// `msgs_sent + msgs_recv` in a fault-free world.
    pub final_stamp: u64,
}

/// Results of a world run: per-rank return values and reports, plus
/// aggregate views.
#[derive(Debug)]
pub struct WorldResult<T> {
    /// Machine parameters of the run.
    pub params: MachineParams,
    /// Per-rank return values, indexed by world rank.
    pub values: Vec<T>,
    /// Per-rank reports, indexed by world rank.
    pub reports: Vec<RankReport>,
    /// Number of picks the deterministic scheduler made, recorded or
    /// not; 0 for a free-running [`World::run`].
    pub picks: usize,
    /// The recorded scheduler pick stream; `Some` iff the world ran
    /// deterministically with [`World::with_schedule_recording`]`(true)`.
    /// Byte-identical across runs of the same `(program, schedule)` pair
    /// (see [`ChoiceLog::render`]). Per pick: the chosen rank, the fabric
    /// resources the chosen segment touched, and (rebuilt on demand from
    /// the logged transitions) the runnable set — the raw material for
    /// schedule-space exploration (replay any prefix of
    /// [`ChoiceLog::chosen`] via [`Schedule::Prefix`] to steer a re-run
    /// down the same branch).
    pub choice_points: Option<ChoiceLog>,
}

impl<T> WorldResult<T> {
    /// The simulated makespan: the maximum final clock over ranks. Under
    /// [`MachineParams::BANDWIDTH_ONLY`] this is the bandwidth cost along
    /// the critical path — the quantity Theorem 3 lower-bounds.
    pub fn critical_path_time(&self) -> f64 {
        self.reports.iter().map(|r| r.time).fold(0.0, f64::max)
    }

    /// Total words sent across all ranks (each word counted once at the
    /// sender).
    pub fn total_words_sent(&self) -> f64 {
        self.reports.iter().map(|r| r.meter.words_sent as f64).sum()
    }

    /// Maximum flops performed by any rank.
    pub fn max_flops(&self) -> f64 {
        self.reports.iter().map(|r| r.meter.flops).fold(0.0, f64::max)
    }

    /// Maximum memory high-water mark over ranks, in words.
    pub fn max_peak_mem_words(&self) -> u64 {
        self.reports.iter().map(|r| r.peak_mem_words).max().unwrap_or(0)
    }

    /// Assemble the per-world [`Tracer`] from the per-rank event streams;
    /// `Some` iff the world ran with [`World::with_trace`]`(true)`. The
    /// tracer provides per-phase goodput totals, the critical-path
    /// attribution, and the Chrome JSON / text exports (see
    /// [`crate::tracer`]).
    pub fn tracer(&self) -> Option<Tracer> {
        let streams: Option<Vec<Vec<TraceEvent>>> =
            self.reports.iter().map(|r| r.trace.clone()).collect();
        streams.map(Tracer::from_streams)
    }

    /// Aggregate critical-path [`Cost`] view: message/word/flop maxima are
    /// taken per rank and the largest is reported (exact for the
    /// symmetric schedules used throughout this workspace).
    pub fn critical_path_cost(&self) -> Cost {
        let mut c = Cost::ZERO;
        for r in &self.reports {
            c = c.par(Cost {
                messages: r.meter.msgs_sent.max(r.meter.msgs_recv) as f64,
                words: r.meter.duplex_words() as f64,
                flops: r.meter.flops,
            });
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw() -> MachineParams {
        MachineParams::BANDWIDTH_ONLY
    }

    #[test]
    fn values_are_indexed_by_world_rank() {
        let out = World::new(5, bw()).run_async(|r| Box::pin(async move { r.world_rank() }));
        assert_eq!(out.values, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.reports.len(), 5);
    }

    #[test]
    fn aggregates_on_idle_world_are_zero() {
        let out = World::new(3, bw()).run_async(|_| Box::pin(async {}));
        assert_eq!(out.critical_path_time(), 0.0);
        assert_eq!(out.total_words_sent(), 0.0);
        assert_eq!(out.max_peak_mem_words(), 0);
    }

    #[test]
    fn critical_path_is_max_over_ranks() {
        let out = World::new(4, MachineParams::new(0.0, 0.0, 1.0))
            .run_async(|r| Box::pin(async move { r.compute((r.world_rank() * 10) as f64) }));
        assert_eq!(out.critical_path_time(), 30.0);
        assert_eq!(out.max_flops(), 30.0);
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        World::new(2, bw()).run_async(|r| {
            Box::pin(async move {
                if r.world_rank() == 1 {
                    panic!("boom");
                }
            })
        });
    }

    #[test]
    #[should_panic(expected = "fault plan names rank 2, outside a world of 2")]
    fn a_fault_plan_naming_a_rank_outside_the_world_is_malformed() {
        let plan = FaultPlan::none().with_straggler(1, 2.0).with_kill(2, 1);
        World::new(2, bw()).with_faults(plan).run_async(|_| Box::pin(async {}));
    }

    #[test]
    fn many_ranks_spawn_and_join() {
        let out = World::new(128, bw()).run(|r| r.world_rank());
        assert_eq!(out.values.len(), 128);
    }

    #[test]
    fn hard_sync_allows_phase_delimiting() {
        let out = World::new(4, bw()).run_async(|r| {
            Box::pin(async move {
                r.hard_sync_a().await;
                r.time()
            })
        });
        assert_eq!(out.values, vec![0.0; 4], "hard_sync is not metered");
    }

    /// An all-to-one program with enough concurrency for schedules to
    /// actually differ between seeds.
    fn gather_program(rank: &mut Rank) -> LocalBoxFuture<'_, f64> {
        Box::pin(async move {
            let wc = rank.world_comm();
            if rank.world_rank() == 0 {
                let mut sum = 0.0;
                for from in 1..wc.size() {
                    sum += rank.recv_a(&wc, from).await.payload[0];
                }
                sum
            } else {
                rank.send_a(&wc, 0, &[rank.world_rank() as f64]).await;
                0.0
            }
        })
    }

    /// A world of `p` ranks that records its schedule.
    fn recorded(p: usize) -> World {
        World::new(p, bw()).with_schedule_recording(true)
    }

    #[test]
    fn same_seed_gives_byte_identical_choice_logs() {
        let world = recorded(6).with_seed(42);
        let (a, b) = (world.run_async(gather_program), world.run_async(gather_program));
        let la = a.choice_points.expect("recorded run keeps its choice log");
        let lb = b.choice_points.expect("recorded run keeps its choice log");
        assert!(!la.is_empty());
        assert_eq!(la.render(), lb.render(), "same (program, seed) must replay byte-identically");
        la.assert_matches(&lb, &world.repro());
    }

    #[test]
    fn different_seeds_change_the_schedule_but_not_the_result() {
        let run = |s| recorded(6).with_seed(s).run_async(gather_program);
        let outs: Vec<_> = (0u64..8).map(run).collect();
        assert!(
            outs.windows(2).any(|w| {
                let (x, y) = (w[0].choice_points.as_ref(), w[1].choice_points.as_ref());
                x.expect("recorded") != y.expect("recorded")
            }),
            "8 seeds on a 6-rank gather should exercise more than one schedule"
        );
        for o in &outs {
            assert_eq!(o.values[0], 15.0, "result must not depend on the schedule");
        }
    }

    #[test]
    fn free_running_threads_record_no_schedule() {
        let out = recorded(2).run(|r| poll_now(gather_program(r)));
        assert!(out.choice_points.is_none());
        assert_eq!(out.picks, 0);
    }

    #[test]
    fn choice_points_record_ready_sets_and_footprints() {
        let out = recorded(4).with_seed(11).run_async(gather_program);
        let choices = out.choice_points.expect("deterministic run records choice points");
        assert!(!choices.is_empty());
        assert_eq!(choices.iter().count(), choices.len());
        assert_eq!(choices.ready_at(0), vec![0, 1, 2, 3], "every rank starts runnable");
        for (i, cp) in choices.iter().enumerate() {
            assert!(cp.ready.contains(&cp.chosen), "{cp:?}");
            assert!(cp.ready.windows(2).all(|w| w[0] < w[1]), "ready must be ascending: {cp:?}");
            assert_eq!(cp.chosen, choices.chosen()[i]);
            assert_eq!(cp.touched, choices.touched(i));
            assert_eq!(cp.ready, choices.ready_at(i), "pick {i}");
        }
        assert!(
            choices.iter().any(|cp| !cp.touched.is_empty()),
            "a gather must touch mailboxes somewhere"
        );
    }

    #[test]
    fn full_prefix_replay_reproduces_the_seeded_run() {
        let seeded = recorded(5).with_seed(3).run_async(gather_program);
        let golden = seeded.choice_points.expect("choices");
        let world = recorded(5).with_schedule(Schedule::Prefix(golden.chosen().to_vec()));
        let replay = world.run_async(gather_program);
        assert_eq!(replay.values, seeded.values);
        // Chosen ranks, footprints and runnable-set changes all reproduce.
        golden.assert_matches(&replay.choice_points.expect("choices"), &world.repro());
    }

    #[test]
    fn empty_prefix_is_the_canonical_schedule_and_is_deterministic() {
        let world = recorded(4).with_schedule(Schedule::Prefix(Vec::new()));
        let (a, b) = (world.run_async(gather_program), world.run_async(gather_program));
        assert_eq!(a.values, b.values);
        let canonical = a.choice_points.expect("choices");
        canonical.assert_matches(&b.choice_points.expect("choices"), &world.repro());
        assert_eq!(a.picks, canonical.len());
        assert_eq!(b.picks, canonical.len());
        // The canonical schedule picks the smallest runnable rank.
        assert!(canonical.iter().all(|cp| cp.chosen == cp.ready[0]));
    }

    #[test]
    fn diverging_prefix_aborts_with_a_prefix_repro() {
        // With recording off no pick is logged, so the recipe must be the
        // configured prefix: the empty one would replay the canonical
        // schedule, which does not diverge.
        for record in [true, false] {
            let err = std::panic::catch_unwind(|| {
                World::new(2, bw())
                    .with_schedule(Schedule::Prefix(vec![1, 1, 1, 1, 1, 1, 1, 1]))
                    .with_schedule_recording(record)
                    .run_async(|_| Box::pin(async {}))
            })
            .expect_err("a prefix that demands a finished rank must abort");
            let msg = err.downcast_ref::<String>().expect("panic message is a String");
            assert!(msg.contains("schedule prefix diverged"), "record {record}: {msg}");
            assert!(msg.contains("PMM_SCHEDULE=prefix:1"), "record {record}: {msg}");
        }
    }

    /// Rank 0 receives from rank 1, which never sends.
    fn recv_from_silent_peer(r: &mut Rank) -> LocalBoxFuture<'_, ()> {
        Box::pin(async move {
            let wc = r.world_comm();
            if r.world_rank() == 0 {
                r.recv_a(&wc, 1).await;
            }
        })
    }

    #[test]
    fn try_run_async_captures_deadlock_as_a_value_with_choices() {
        let failure =
            recorded(2).try_run_async(recv_from_silent_peer).expect_err("deadlocked run must fail");
        assert!(failure.report.contains("deadlock detected"), "{}", failure.report);
        assert!(matches!(failure.repro, crate::trace::Repro::Prefix(_)), "{:?}", failure.repro);
        assert!(failure.to_string().contains("PMM_SCHEDULE=prefix:"), "{failure}");
        let choices = failure.choice_points.expect("choices recorded up to the failure");
        // Rank 0 blocks on the receive, rank 1 finishes, nobody is left.
        assert_eq!(choices.chosen(), [0, 1]);
        assert_eq!(choices.ready_at(1), vec![1]);
    }

    #[test]
    fn deadlock_report_names_the_members_a_split_still_misses_at_any_p() {
        // Everyone but `absent` deposits into a world-sized split. Each
        // waiter's line must name who is missing when the report is
        // written — not what the waiter saw on arrival (rank 0, first in,
        // saw every other rank missing), and not nothing at large P.
        for (p, absent) in [(4usize, 3usize), (8192, 5000)] {
            let failure = World::new(p, bw())
                .try_run_async(move |r: &mut Rank| {
                    Box::pin(async move {
                        if r.world_rank() != absent {
                            let wc = r.world_comm();
                            r.split_a(&wc, 0, 0).await;
                        }
                    }) as LocalBoxFuture<'_, ()>
                })
                .expect_err("a split one member never enters must deadlock");
            let waiters: Vec<&str> =
                failure.report.lines().filter(|l| l.contains("comm split rendezvous")).collect();
            assert_eq!(waiters.len(), p - 1, "P = {p}");
            let want = format!("waiting on ranks [{absent}]");
            assert!(waiters.iter().all(|l| l.ends_with(&want)), "P = {p}: {}", waiters[0]);
        }
    }

    #[test]
    fn schedule_recording_is_off_by_default_and_drops_the_log_but_not_results() {
        let out = World::new(6, bw()).with_seed(9).run_async(gather_program);
        assert_eq!(out.values[0], 15.0);
        assert!(out.choice_points.is_none());
        let logged = recorded(6).with_seed(9).run_async(gather_program);
        assert_eq!(out.picks, logged.choice_points.expect("recorded").len());
    }

    #[test]
    fn failed_thread_spawn_is_a_report_not_a_process_abort() {
        // No OS grants a stack of half the address space, so the very
        // first host thread cannot be created — under a schedule and
        // free-running alike.
        for world in [World::new(3, bw()), World::new(3, bw()).with_seed(1)] {
            let run =
                || World::unwrap_run(world.run_on_threads(|r| r.world_rank(), usize::MAX / 2));
            let err = std::panic::catch_unwind(run)
                .expect_err("a world whose host threads cannot be spawned must fail");
            let report = err.downcast_ref::<String>().expect("panic message is a String");
            assert!(report.contains("hosting rank 0 of 3"), "{report}");
            assert!(report.contains("os error"), "{report}");
            assert!(report.contains("World::run_async"), "{report}");
        }
    }

    #[test]
    fn det_mode_detects_deadlock_synchronously_and_names_the_seed() {
        // The scheduler proves the deadlock at pick time — no watchdog
        // interval has to elapse.
        let err = std::panic::catch_unwind(|| {
            World::new(2, bw()).with_seed(7).run_async(recv_from_silent_peer)
        })
        .expect_err("deadlocked deterministic run must abort");
        let msg = err.downcast_ref::<String>().expect("panic message is a String");
        assert!(msg.contains("deadlock detected"), "{msg}");
        assert!(msg.contains("PMM_SEED=7"), "{msg}");
    }
}

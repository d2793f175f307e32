//! Seeded fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] (attached with [`World::with_faults`]) makes the
//! fabric lossy: messages can be dropped, duplicated, corrupted
//! (single-bit flip, caught by a per-message checksum), or delayed; a
//! rank can be slowed into a straggler or killed outright at a chosen
//! operation. Every per-copy decision is a pure hash of
//! `(fault seed, ctx, sender, receiver, channel sequence, attempt)`
//! through the same SplitMix64 mixer the deterministic scheduler uses —
//! so outcomes are independent of the interleaving, and the triple
//! `(program, seed, plan)` replays byte-identically.
//!
//! Beyond the single-copy faults, a plan composes three multi-fault
//! clauses:
//!
//! - **Cascading kills** ([`CascadeSpec`], `cascade=R@E`): rank `R`
//!   dies at its next communication operation once the fault epoch
//!   (deaths observed so far) reaches `E` — correlated failures that
//!   strike *because* an earlier rank died.
//! - **Healing partitions** ([`Partition`], `part=R1+R2@LO..HI#HEAL`):
//!   every copy crossing the cut between the listed ranks and the rest
//!   of the world is blackholed while its channel sequence lies in
//!   `[LO, HI)` and its attempt number is `< HEAL`. Reliable delivery
//!   retransmits through the outage; the link "heals" at attempt
//!   `HEAL`, so the payload still lands and the outage cost shows up
//!   in the `retry_*` meters. A pure function of (channel, seq,
//!   attempt) — schedule-independent like every other decision.
//! - **Straggler storms** ([`Storm`], `storm=RATExFACTOR`): each rank
//!   is independently slowed by `FACTOR` with probability `RATE`,
//!   drawn from a pure hash of (fault seed, rank).
//!
//! On top of the lossy fabric, [`Rank::send_a`] runs a reliable-delivery
//! protocol: sends are sequence-numbered and acknowledged, with a
//! configurable retransmission timeout and capped exponential backoff.
//! The receive side discards duplicates (by sequence number) and
//! corrupted copies (by checksum); only the accepted copy counts toward
//! the goodput meters that eq. (3) predicts, while every extra copy is
//! accounted in the `retry_*` fields of [`Meter`] — the overhead faults
//! add on top of the tight bound.
//!
//! Rank death is surfaced as a typed [`RankFailed`] error through
//! [`catch_failures_async!`] instead of a hang: survivors blocked on the
//! dead rank are kicked out of their waits, and the scheduler
//! report the failure (naming the fault-plan entry and replay seed)
//! rather than a spurious deadlock.
//!
//! [`World::with_faults`]: crate::World::with_faults
//! [`Rank::send_a`]: crate::Rank::send_a
//! [`catch_failures_async!`]: crate::catch_failures_async
//! [`Meter`]: crate::Meter

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fabric::{splitmix64, Ctx};
use crate::verify::lock_unpoisoned;

/// Kill world rank `rank` when it enters its `at_op`-th communication
/// operation (send, receive, exchange, wait, split, or barrier —
/// counted per rank, starting at 1). Operation counts are local to the
/// rank, so the kill strikes at the same logical point under every
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// World rank to kill.
    pub rank: usize,
    /// 1-based communication-operation index at which it dies.
    pub at_op: u64,
}

/// Slow world rank `rank` by `factor`: all of its clock advances
/// (transfers and flops) are multiplied by `factor`. A factor of `1.0`
/// is bitwise identical to no straggler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// World rank to slow down.
    pub rank: usize,
    /// Time multiplier (≥ 1.0 models a slow node; must be > 0).
    pub factor: f64,
}

/// Kill world rank `rank` at its next communication operation once the
/// fault epoch (number of deaths so far) reaches `at_epoch` — a
/// correlated kill that triggers *because* earlier ranks died. Under a
/// fixed `(program, seed, plan)` triple the deterministic scheduler
/// makes the trigger point exact, so cascades replay byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeSpec {
    /// World rank to kill.
    pub rank: usize,
    /// Fault epoch (≥ 1) at which the kill arms.
    pub at_epoch: u64,
}

/// A healing link-level partition: every transmitted copy crossing the
/// cut between `ranks` and the rest of the world is blackholed while
/// its channel sequence number lies in `[from_seq, until_seq)` and its
/// attempt number is below `heal_attempt`. Reliable delivery
/// retransmits through the outage and succeeds once the link heals, so
/// partitions cost retries (and backoff time) but never goodput.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// World ranks on the isolated side of the cut.
    pub ranks: Vec<usize>,
    /// First channel sequence number affected (inclusive).
    pub from_seq: u64,
    /// First channel sequence number no longer affected (exclusive).
    pub until_seq: u64,
    /// Attempt index at which the link heals: copies with
    /// `attempt < heal_attempt` are blackholed. Must stay ≤
    /// `max_retries` so delivery still completes.
    pub heal_attempt: u32,
}

impl Partition {
    /// Whether this partition blackholes the given copy.
    fn blackholes(&self, tx: Transmission) -> bool {
        let from_in = self.ranks.contains(&tx.from_world);
        let to_in = self.ranks.contains(&tx.to_world);
        from_in != to_in
            && (self.from_seq..self.until_seq).contains(&tx.seq)
            && tx.attempt < self.heal_attempt
    }
}

/// A straggler storm: each rank is independently slowed by `factor`
/// with probability `rate`, drawn from a pure hash of
/// (fault seed, rank). Explicit [`Straggler`] entries take precedence
/// for the ranks they name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Storm {
    /// Per-rank probability of being slowed, in `[0, 1)`.
    pub rate: f64,
    /// Time multiplier applied to slowed ranks (must be > 0).
    pub factor: f64,
}

/// A seeded fault-injection plan (see the module docs). All rates are
/// per-transmission probabilities in `[0, 1)`; their sum must stay ≤ 1.
///
/// The canonical serialization ([`std::fmt::Display`] /
/// [`FaultPlan::parse`]) round-trips, so a failure report's plan line
/// plus `PMM_SEED` is a complete repro.
///
/// # Example
///
/// Reliable delivery hides a lossy fabric from the program — the result
/// is unchanged, the overhead shows up in the `retry_*` meters:
///
/// ```
/// use pmm_simnet::{FaultPlan, MachineParams, World};
///
/// let plan = FaultPlan::none().with_seed(7).with_drop(0.2).with_duplicate(0.1);
/// assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
///
/// let out = World::new(2, MachineParams::BANDWIDTH_ONLY)
///     .with_seed(42)
///     .with_faults(plan)
///     .run_async(|rank| {
///         Box::pin(async move {
///             let wc = rank.world_comm();
///             let mine = [rank.world_rank() as f64; 4];
///             rank.sendrecv_a(&wc, 1 - wc.index(), &mine).await.payload
///         })
///     });
/// assert_eq!(out.values[0], vec![1.0; 4]); // payload intact despite drops
/// assert_eq!(out.reports[0].meter.words_sent, 4); // goodput excludes retries
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fault-decision seed. `None` derives one from the world's schedule
    /// seed (the next draw of the same SplitMix64 stream), so a single
    /// printed seed replays both the schedule and the faults.
    pub seed: Option<u64>,
    /// Probability a transmitted copy is dropped in flight.
    pub drop: f64,
    /// Probability the fabric delivers an extra duplicate copy.
    pub duplicate: f64,
    /// Probability a copy arrives with one payload bit flipped (always
    /// caught by the checksum and discarded by the receiver).
    pub corrupt: f64,
    /// Probability a copy is delayed by a fraction of the timeout.
    pub delay: f64,
    /// Base retransmission timeout, in simulated time units.
    pub timeout: f64,
    /// Cap on the exponential backoff (`timeout · 2^attempt` is clamped
    /// to this).
    pub backoff_cap: f64,
    /// Retransmissions before the sender declares delivery failed.
    pub max_retries: u32,
    /// Ranks to kill, each at a chosen operation index.
    pub kills: Vec<KillSpec>,
    /// Ranks to slow down.
    pub stragglers: Vec<Straggler>,
    /// Correlated kills that arm when the fault epoch reaches a
    /// threshold (see [`CascadeSpec`]).
    pub cascades: Vec<CascadeSpec>,
    /// Healing link-level partitions (see [`Partition`]).
    pub partitions: Vec<Partition>,
    /// Probabilistic straggler storm (see [`Storm`]).
    pub storm: Option<Storm>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: None,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            timeout: 8.0,
            backoff_cap: 64.0,
            max_retries: 16,
            kills: Vec::new(),
            stragglers: Vec::new(),
            cascades: Vec::new(),
            partitions: Vec::new(),
            storm: None,
        }
    }
}

/// Identity of one transmitted copy — the complete hash input every
/// fault decision is a pure function of. Scheduling never contributes,
/// which is what makes fault outcomes schedule-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transmission {
    /// Communicator context of the channel.
    pub ctx: Ctx,
    /// Sender's world rank.
    pub from_world: usize,
    /// Receiver's world rank.
    pub to_world: usize,
    /// Channel sequence number of the message.
    pub seq: u64,
    /// 0-based retransmission attempt.
    pub attempt: u32,
}

impl Transmission {
    fn parts(self) -> [u64; 5] {
        [self.ctx, self.from_world as u64, self.to_world as u64, self.seq, self.attempt as u64]
    }
}

/// Outcome of one transmission attempt, drawn by [`FaultPlan::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultAction {
    /// The copy arrives intact.
    Deliver,
    /// The copy vanishes; the sender retransmits after the timeout.
    Drop,
    /// An extra identical copy arrives (discarded by sequence dedup).
    Duplicate,
    /// The copy arrives with one bit flipped (discarded by checksum).
    Corrupt,
    /// The copy arrives late by the given amount (within the timeout,
    /// so no retransmission is triggered).
    Delay(f64),
}

impl FaultPlan {
    /// The all-zero plan: attached fault machinery, no injected faults.
    /// Runs with this plan are meter- and trace-identical to runs with
    /// no plan at all (asserted by `tests/determinism.rs`).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Pin the fault-decision seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = Some(seed);
        self
    }

    /// Set the drop rate.
    #[must_use]
    pub fn with_drop(mut self, rate: f64) -> FaultPlan {
        self.drop = rate;
        self
    }

    /// Set the duplicate rate.
    #[must_use]
    pub fn with_duplicate(mut self, rate: f64) -> FaultPlan {
        self.duplicate = rate;
        self
    }

    /// Set the corruption rate.
    #[must_use]
    pub fn with_corrupt(mut self, rate: f64) -> FaultPlan {
        self.corrupt = rate;
        self
    }

    /// Set the delay rate.
    #[must_use]
    pub fn with_delay(mut self, rate: f64) -> FaultPlan {
        self.delay = rate;
        self
    }

    /// Add a rank kill (see [`KillSpec`]).
    #[must_use]
    pub fn with_kill(mut self, rank: usize, at_op: u64) -> FaultPlan {
        self.kills.push(KillSpec { rank, at_op });
        self
    }

    /// Add a straggler (see [`Straggler`]).
    #[must_use]
    pub fn with_straggler(mut self, rank: usize, factor: f64) -> FaultPlan {
        self.stragglers.push(Straggler { rank, factor });
        self
    }

    /// Add a cascading kill (see [`CascadeSpec`]).
    #[must_use]
    pub fn with_cascade(mut self, rank: usize, at_epoch: u64) -> FaultPlan {
        self.cascades.push(CascadeSpec { rank, at_epoch });
        self
    }

    /// Add a healing partition (see [`Partition`]).
    #[must_use]
    pub fn with_partition(
        mut self,
        ranks: Vec<usize>,
        seqs: std::ops::Range<u64>,
        heal_attempt: u32,
    ) -> FaultPlan {
        self.partitions.push(Partition {
            ranks,
            from_seq: seqs.start,
            until_seq: seqs.end,
            heal_attempt,
        });
        self
    }

    /// Arm a straggler storm (see [`Storm`]).
    #[must_use]
    pub fn with_storm(mut self, rate: f64, factor: f64) -> FaultPlan {
        self.storm = Some(Storm { rate, factor });
        self
    }

    /// Whether any per-message fault rate is nonzero.
    pub(crate) fn lossy(&self) -> bool {
        self.drop + self.duplicate + self.corrupt + self.delay > 0.0
    }

    /// The rules a plan must satisfy to build a world: rates in `[0, 1)`
    /// summing to at most 1, non-negative timeouts, positive straggler
    /// factors, 1-based kill and cascade points, non-empty partitions
    /// that heal within `max_retries`, and a storm rate in `[0, 1)` with
    /// a positive factor. [`FaultPlan::parse`] returns the first broken
    /// rule; building a world with a plan that breaks one panics.
    pub(crate) fn check(&self) -> Result<(), String> {
        let rule = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(msg.to_string()) };
        let rates = [self.drop, self.duplicate, self.corrupt, self.delay];
        rule(rates.iter().all(|r| (0.0..1.0).contains(r)), "fault rates must be in [0, 1)")?;
        rule(rates.iter().sum::<f64>() <= 1.0, "fault rates must sum to at most 1")?;
        rule(self.timeout >= 0.0 && self.backoff_cap >= 0.0, "timeouts must be non-negative")?;
        rule(self.stragglers.iter().all(|s| s.factor > 0.0), "straggler factors must be positive")?;
        rule(
            self.kills.iter().all(|k| k.at_op >= 1),
            "kill operation indices are 1-based (at_op >= 1)",
        )?;
        rule(
            self.cascades.iter().all(|c| c.at_epoch >= 1),
            "cascade epochs are 1-based (at_epoch >= 1)",
        )?;
        for p in &self.partitions {
            rule(!p.ranks.is_empty(), "a partition must name at least one rank")?;
            rule(p.from_seq < p.until_seq, "partition sequence window must be non-empty")?;
            rule(p.heal_attempt >= 1, "partition heal attempt is 1-based (>= 1)")?;
            if p.heal_attempt > self.max_retries {
                return Err(format!(
                    "partition must heal within max_retries ({} > {}) or delivery cannot complete",
                    p.heal_attempt, self.max_retries
                ));
            }
        }
        if let Some(s) = self.storm {
            rule((0.0..1.0).contains(&s.rate), "storm rate must be in [0, 1)")?;
            rule(s.factor > 0.0, "storm factor must be positive")?;
        }
        Ok(())
    }

    /// Whether every rank the plan's `kill`, `cascade`, `slow` and `part`
    /// entries name is a rank of a world of `p`. An entry naming another
    /// never fires, so the run would pass for a recovered one while being
    /// the fault-free run.
    pub fn check_ranks(&self, p: usize) -> Result<(), String> {
        let named = (self.kills.iter().map(|k| k.rank))
            .chain(self.cascades.iter().map(|c| c.rank))
            .chain(self.stragglers.iter().map(|s| s.rank))
            .chain(self.partitions.iter().flat_map(|q| q.ranks.iter().copied()));
        match named.max() {
            Some(r) if r >= p => Err(format!("fault plan names rank {r}, outside a world of {p}")),
            _ => Ok(()),
        }
    }

    /// Panic on a plan that breaks a rule of [`FaultPlan::check`] or
    /// names a rank outside a world of `p` ([`FaultPlan::check_ranks`]).
    pub(crate) fn validate(&self, p: usize) {
        if let Err(e) = self.check().and_then(|()| self.check_ranks(p)) {
            panic!("{e}");
        }
    }

    /// Draw the fate of one transmitted copy. A pure function of its
    /// arguments — never of scheduling — so fault outcomes are identical
    /// across interleavings and replay exactly under a fixed plan.
    pub(crate) fn decide(&self, seed: u64, tx: Transmission) -> FaultAction {
        // Partitions blackhole deterministically, before any random
        // draw: the cut is a property of the channel, not of chance.
        if self.partitions.iter().any(|p| p.blackholes(tx)) {
            return FaultAction::Drop;
        }
        if !self.lossy() {
            return FaultAction::Deliver;
        }
        let parts = tx.parts();
        let u = unit_interval(fault_hash(seed, parts));
        let mut acc = self.drop;
        if u < acc {
            return FaultAction::Drop;
        }
        acc += self.corrupt;
        if u < acc {
            return FaultAction::Corrupt;
        }
        acc += self.duplicate;
        if u < acc {
            return FaultAction::Duplicate;
        }
        acc += self.delay;
        if u < acc {
            // A second independent draw sizes the delay within [0, timeout)
            // so a delayed copy never looks lost to the sender.
            let frac = unit_interval(fault_hash(seed ^ 0x0DE1_A0DE_1A0D_E1A0, parts));
            return FaultAction::Delay(frac * self.timeout);
        }
        FaultAction::Deliver
    }

    /// Which payload bit a [`FaultAction::Corrupt`] outcome flips:
    /// `(word index, bit index)`, drawn from the same hash family.
    pub(crate) fn corrupt_site(&self, seed: u64, tx: Transmission, words: usize) -> (usize, u32) {
        let z = fault_hash(seed ^ 0xB17F_11B1_7F11_B17F, tx.parts());
        ((z % words.max(1) as u64) as usize, ((z >> 32) % 64) as u32)
    }

    /// Retransmission timeout for `attempt`: `timeout · 2^attempt`,
    /// clamped to `backoff_cap`.
    pub(crate) fn rto(&self, attempt: u32) -> f64 {
        let exp = attempt.min(60) as i32;
        (self.timeout * f64::powi(2.0, exp)).min(self.backoff_cap)
    }

    /// Per-rank straggler factor (1.0 when the rank is not listed). An
    /// explicit [`Straggler`] entry wins; otherwise an armed [`Storm`]
    /// draws the rank's fate from a pure hash of (fault seed, rank).
    pub(crate) fn slowdown_of(&self, seed: u64, rank: usize) -> f64 {
        if let Some(s) = self.stragglers.iter().find(|s| s.rank == rank) {
            return s.factor;
        }
        if let Some(storm) = self.storm {
            let draw =
                unit_interval(fault_hash(seed ^ 0x5708_3057_0830_5708, [rank as u64, 0, 0, 0, 0]));
            if draw < storm.rate {
                return storm.factor;
            }
        }
        1.0
    }

    /// Per-rank kill point, if any (first matching entry wins).
    pub(crate) fn kill_at(&self, rank: usize) -> Option<u64> {
        self.kills.iter().find(|k| k.rank == rank).map(|k| k.at_op)
    }

    /// Per-rank cascade trigger epoch, if any (first matching entry
    /// wins).
    pub(crate) fn cascade_at(&self, rank: usize) -> Option<u64> {
        self.cascades.iter().find(|c| c.rank == rank).map(|c| c.at_epoch)
    }

    /// Parse the canonical serialization produced by `Display`:
    /// comma-separated `key=value` pairs (`drop`, `dup`, `corrupt`,
    /// `delay`, `timeout`, `cap`, `retries`, `seed`, `storm=RATExFACTOR`,
    /// repeatable `kill=R@OP`, `slow=RxFACTOR`, `cascade=R@EPOCH` and
    /// `part=R1+R2@LO..HI#HEAL`), or the literal `none`. A spec whose
    /// plan could not build a world (a rate outside `[0, 1)`, an empty
    /// partition window, …) is an error too.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for part in spec.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {part:?} is not key=value"))?;
            let rate = |v: &str| {
                v.parse::<f64>().map_err(|_| format!("fault spec {key}={v:?} is not a number"))
            };
            match key.trim() {
                "drop" => plan.drop = rate(value)?,
                "dup" => plan.duplicate = rate(value)?,
                "corrupt" => plan.corrupt = rate(value)?,
                "delay" => plan.delay = rate(value)?,
                "timeout" => plan.timeout = rate(value)?,
                "cap" => plan.backoff_cap = rate(value)?,
                "retries" => {
                    plan.max_retries = value
                        .parse()
                        .map_err(|_| format!("fault spec retries={value:?} is not a u32"))?;
                }
                "seed" => plan.seed = Some(parse_u64(value)?),
                "kill" => {
                    let (r, op) = value
                        .split_once('@')
                        .ok_or_else(|| format!("fault spec kill={value:?} is not RANK@OP"))?;
                    plan.kills.push(KillSpec {
                        rank: r
                            .parse()
                            .map_err(|_| format!("fault spec kill rank {r:?} is not a usize"))?,
                        at_op: op
                            .parse()
                            .map_err(|_| format!("fault spec kill op {op:?} is not a u64"))?,
                    });
                }
                "slow" => {
                    let (r, f) = value
                        .split_once('x')
                        .ok_or_else(|| format!("fault spec slow={value:?} is not RANKxFACTOR"))?;
                    plan.stragglers.push(Straggler {
                        rank: r
                            .parse()
                            .map_err(|_| format!("fault spec slow rank {r:?} is not a usize"))?,
                        factor: rate(f)?,
                    });
                }
                "cascade" => {
                    let (r, e) = value
                        .split_once('@')
                        .ok_or_else(|| format!("fault spec cascade={value:?} is not RANK@EPOCH"))?;
                    plan.cascades.push(CascadeSpec {
                        rank: r
                            .parse()
                            .map_err(|_| format!("fault spec cascade rank {r:?} is not a usize"))?,
                        at_epoch: e
                            .parse()
                            .map_err(|_| format!("fault spec cascade epoch {e:?} is not a u64"))?,
                    });
                }
                "part" => {
                    let (ranks, window) = value.split_once('@').ok_or_else(|| {
                        format!("fault spec part={value:?} is not R1+R2@LO..HI#HEAL")
                    })?;
                    let (seqs, heal) = window.split_once('#').ok_or_else(|| {
                        format!("fault spec part window {window:?} is not LO..HI#HEAL")
                    })?;
                    let (lo, hi) = seqs.split_once("..").ok_or_else(|| {
                        format!("fault spec part sequence window {seqs:?} is not LO..HI")
                    })?;
                    let parse_rank = |r: &str| {
                        r.parse::<usize>()
                            .map_err(|_| format!("fault spec part rank {r:?} is not a usize"))
                    };
                    plan.partitions.push(Partition {
                        ranks: ranks.split('+').map(parse_rank).collect::<Result<_, _>>()?,
                        from_seq: lo
                            .parse()
                            .map_err(|_| format!("fault spec part sequence {lo:?} is not a u64"))?,
                        until_seq: hi
                            .parse()
                            .map_err(|_| format!("fault spec part sequence {hi:?} is not a u64"))?,
                        heal_attempt: heal.parse().map_err(|_| {
                            format!("fault spec part heal attempt {heal:?} is not a u32")
                        })?,
                    });
                }
                "storm" => {
                    let (r, f) = value
                        .split_once('x')
                        .ok_or_else(|| format!("fault spec storm={value:?} is not RATExFACTOR"))?;
                    plan.storm = Some(Storm { rate: rate(r)?, factor: rate(f)? });
                }
                other => return Err(format!("fault spec key {other:?} is not recognized")),
            }
        }
        plan.check().map_err(|e| format!("fault spec {spec:?}: {e}"))?;
        Ok(plan)
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    /// Alias for [`FaultPlan::parse`], so `--faults` specs work with
    /// `str::parse` and argument parsers.
    fn from_str(spec: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse(spec)
    }
}

fn parse_u64(v: &str) -> Result<u64, String> {
    let t = v.trim();
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    }
    .map_err(|_| format!("fault spec seed {v:?} is not a u64 (decimal or 0x hex)"))
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = FaultPlan::default();
        let mut parts: Vec<String> = Vec::new();
        if let Some(s) = self.seed {
            parts.push(format!("seed={s:#x}"));
        }
        for (key, mine, default) in [
            ("drop", self.drop, d.drop),
            ("dup", self.duplicate, d.duplicate),
            ("corrupt", self.corrupt, d.corrupt),
            ("delay", self.delay, d.delay),
            ("timeout", self.timeout, d.timeout),
            ("cap", self.backoff_cap, d.backoff_cap),
        ] {
            if mine != default {
                parts.push(format!("{key}={mine}"));
            }
        }
        if self.max_retries != d.max_retries {
            parts.push(format!("retries={}", self.max_retries));
        }
        for k in &self.kills {
            parts.push(format!("kill={}@{}", k.rank, k.at_op));
        }
        for s in &self.stragglers {
            parts.push(format!("slow={}x{}", s.rank, s.factor));
        }
        for c in &self.cascades {
            parts.push(format!("cascade={}@{}", c.rank, c.at_epoch));
        }
        for p in &self.partitions {
            let ranks = p.ranks.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("+");
            parts.push(format!("part={ranks}@{}..{}#{}", p.from_seq, p.until_seq, p.heal_attempt));
        }
        if let Some(s) = self.storm {
            parts.push(format!("storm={}x{}", s.rate, s.factor));
        }
        if parts.is_empty() {
            f.write_str("none")
        } else {
            f.write_str(&parts.join(","))
        }
    }
}

/// Mix `seed` and `parts` through SplitMix64 into one draw. Each part
/// perturbs the generator state before the next advance, so every field
/// changes the outcome.
fn fault_hash(seed: u64, parts: [u64; 5]) -> u64 {
    let mut state = seed;
    let mut z = splitmix64(&mut state);
    for p in parts {
        state ^= p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = splitmix64(&mut state);
    }
    z
}

/// Map a draw to `[0, 1)` with 53 bits of precision.
fn unit_interval(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a over the payload's bit patterns. Per word the state is XORed
/// then multiplied by an odd constant — both bijections — so any
/// single-bit corruption always changes the digest.
pub(crate) fn checksum(payload: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in payload {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Reliable-delivery metadata carried by every message when a fault plan
/// is attached: the per-channel sequence number and the payload checksum
/// stamped at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MsgMeta {
    pub seq: u64,
    pub check: u64,
}

/// Typed error surfaced when a rank dies under the fault plan: returned
/// by [`catch_failures_async!`](crate::catch_failures_async) both on the
/// killed rank itself and on survivors whose communication can no longer
/// complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailed {
    /// World rank of the failed rank this error reports.
    pub rank: usize,
    /// Human-readable detail naming the fault-plan entry and replay seed.
    pub detail: String,
}

impl std::fmt::Display for RankFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.detail)
    }
}

impl std::error::Error for RankFailed {}

/// Panic payload used to unwind a rank to its
/// fault-catching scope ([`catch_fault_panics`](crate::catch_fault_panics))
/// on a fault. The runners convert an uncaught one into a typed failure report
/// instead of a bare "rank panicked".
pub(crate) struct FaultPanic(pub(crate) RankFailed);

/// Marker returned by fabric waits that were interrupted because a rank
/// died while the caller was inside a failure-catching scope.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultKick;

/// Shared fault-injection state, owned by the fabric. The epoch counter
/// bumps on every death; ranks inside a catching scope compare it
/// against the epoch they entered with to learn that the world changed
/// under them.
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) seed: u64,
    epoch: AtomicU64,
    dead: Mutex<Vec<bool>>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, seed: u64, world_size: usize) -> FaultState {
        FaultState {
            plan,
            seed,
            epoch: AtomicU64::new(0),
            dead: Mutex::new(vec![false; world_size]),
        }
    }

    /// Current fault epoch (number of deaths so far).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether world rank `r` has been killed.
    pub(crate) fn is_dead(&self, r: usize) -> bool {
        lock_unpoisoned(&self.dead)[r]
    }

    /// World ranks killed so far, ascending.
    pub(crate) fn dead_ranks(&self) -> Vec<usize> {
        let dead = lock_unpoisoned(&self.dead);
        dead.iter().enumerate().filter_map(|(r, &d)| d.then_some(r)).collect()
    }

    /// Record the death of `r`. The dead flag is set before the epoch
    /// bump, so any rank that observes the new epoch also sees the
    /// updated dead set. Returns false if `r` was already dead.
    pub(crate) fn mark_dead(&self, r: usize) -> bool {
        let mut dead = lock_unpoisoned(&self.dead);
        if dead[r] {
            return false;
        }
        dead[r] = true;
        drop(dead);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(ctx: Ctx, seq: u64, attempt: u32) -> Transmission {
        Transmission { ctx, from_world: 0, to_world: 1, seq, attempt }
    }

    #[test]
    fn decide_is_a_pure_function_of_its_arguments() {
        let plan = FaultPlan::none().with_drop(0.3).with_duplicate(0.1).with_corrupt(0.1);
        for seq in 0..50u64 {
            let a = plan.decide(42, tx(3, seq, 0));
            let b = plan.decide(42, tx(3, seq, 0));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn decide_rates_are_roughly_respected() {
        let plan = FaultPlan::none().with_drop(0.25);
        let drops =
            (0..4000u64).filter(|&seq| plan.decide(7, tx(0, seq, 0)) == FaultAction::Drop).count();
        // 4000 draws at p = 0.25: expect ~1000; allow a generous band.
        assert!((800..1200).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn zero_rate_plan_always_delivers() {
        let plan = FaultPlan::none();
        for seq in 0..100u64 {
            assert_eq!(plan.decide(9, tx(1, seq, 0)), FaultAction::Deliver);
        }
    }

    #[test]
    fn different_attempts_draw_independently() {
        let plan = FaultPlan::none().with_drop(0.5);
        let outcomes: Vec<FaultAction> =
            (0..64).map(|attempt| plan.decide(3, tx(0, 0, attempt))).collect();
        assert!(outcomes.contains(&FaultAction::Deliver), "some attempt must get through");
        assert!(outcomes.contains(&FaultAction::Drop), "some attempt must drop at p = 0.5");
    }

    #[test]
    fn checksum_catches_any_single_bit_flip() {
        let payload = vec![1.5, -2.25, 0.0, 1e300];
        let base = checksum(&payload);
        for word in 0..payload.len() {
            for bit in [0u32, 17, 52, 63] {
                let mut flipped = payload.clone();
                flipped[word] = f64::from_bits(flipped[word].to_bits() ^ (1u64 << bit));
                assert_ne!(checksum(&flipped), base, "flip word {word} bit {bit}");
            }
        }
    }

    #[test]
    fn rto_backs_off_exponentially_with_cap() {
        let plan = FaultPlan { timeout: 2.0, backoff_cap: 10.0, ..FaultPlan::default() };
        assert_eq!(plan.rto(0), 2.0);
        assert_eq!(plan.rto(1), 4.0);
        assert_eq!(plan.rto(2), 8.0);
        assert_eq!(plan.rto(3), 10.0, "capped");
        assert_eq!(plan.rto(60), 10.0, "large attempts stay capped");
    }

    #[test]
    fn display_parse_round_trips() {
        let plan = FaultPlan::none()
            .with_seed(0xAB)
            .with_drop(0.05)
            .with_duplicate(0.01)
            .with_corrupt(0.02)
            .with_kill(4, 12)
            .with_straggler(2, 3.0);
        let line = plan.to_string();
        let back = FaultPlan::parse(&line).expect("canonical form parses");
        assert_eq!(back, plan, "round-trip through {line:?}");
    }

    #[test]
    fn display_parse_round_trips_multi_fault_clauses() {
        let plan = FaultPlan::none()
            .with_seed(0xFA)
            .with_drop(0.08)
            .with_kill(4, 5)
            .with_cascade(7, 1)
            .with_cascade(2, 3)
            .with_partition(vec![1, 2, 3], 4..64, 3)
            .with_storm(0.25, 4.0);
        let line = plan.to_string();
        let back: FaultPlan = line.parse().expect("canonical form parses via FromStr");
        assert_eq!(back, plan, "round-trip through {line:?}");
    }

    #[test]
    fn partition_blackholes_exactly_the_cut_window_and_heals() {
        let plan = FaultPlan::none().with_partition(vec![1, 2], 4..8, 3);
        let tx = |from, to, seq, attempt| Transmission {
            ctx: 0,
            from_world: from,
            to_world: to,
            seq,
            attempt,
        };
        // Crossing the cut inside the window, before the heal: dropped.
        assert_eq!(plan.decide(7, tx(0, 1, 4, 0)), FaultAction::Drop);
        assert_eq!(plan.decide(7, tx(2, 5, 7, 2)), FaultAction::Drop);
        // Attempt at the heal index gets through.
        assert_eq!(plan.decide(7, tx(0, 1, 4, 3)), FaultAction::Deliver);
        // Outside the sequence window: unaffected.
        assert_eq!(plan.decide(7, tx(0, 1, 3, 0)), FaultAction::Deliver);
        assert_eq!(plan.decide(7, tx(0, 1, 8, 0)), FaultAction::Deliver);
        // Both endpoints on the same side of the cut: unaffected.
        assert_eq!(plan.decide(7, tx(1, 2, 5, 0)), FaultAction::Deliver);
        assert_eq!(plan.decide(7, tx(0, 3, 5, 0)), FaultAction::Deliver);
    }

    #[test]
    fn storm_draw_is_pure_and_respects_the_rate() {
        let plan = FaultPlan::none().with_storm(0.25, 4.0);
        let slowed = (0..4000).filter(|&r| plan.slowdown_of(7, r) == 4.0).count();
        assert!((800..1200).contains(&slowed), "slowed = {slowed}");
        for r in 0..64 {
            assert_eq!(plan.slowdown_of(7, r), plan.slowdown_of(7, r), "pure per (seed, rank)");
        }
        // An explicit straggler entry overrides the storm draw.
        let pinned = plan.clone().with_straggler(3, 9.0);
        assert_eq!(pinned.slowdown_of(7, 3), 9.0);
    }

    #[test]
    fn cascade_at_reports_the_first_matching_entry() {
        let plan = FaultPlan::none().with_cascade(5, 2).with_cascade(5, 9);
        assert_eq!(plan.cascade_at(5), Some(2));
        assert_eq!(plan.cascade_at(4), None);
    }

    #[test]
    fn default_plan_displays_and_parses_as_none() {
        assert_eq!(FaultPlan::default().to_string(), "none");
        assert_eq!(FaultPlan::parse("none").expect("parses"), FaultPlan::default());
        assert_eq!(FaultPlan::parse("").expect("parses"), FaultPlan::default());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=x").is_err());
        assert!(FaultPlan::parse("kill=4").is_err());
        assert!(FaultPlan::parse("slow=2").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("cascade=4").is_err());
        assert!(FaultPlan::parse("part=1+2@4..64").is_err(), "missing heal attempt");
        assert!(FaultPlan::parse("part=1+2@4#3").is_err(), "missing sequence window");
        assert!(FaultPlan::parse("part=x@4..64#3").is_err(), "non-numeric rank");
        assert!(FaultPlan::parse("storm=0.25").is_err(), "missing factor");
        assert!(FaultPlan::parse("drop=1.5").is_err(), "rate above 1");
        assert!(FaultPlan::parse("part=0+9@2..1#0").is_err(), "empty window, heal attempt 0");
        assert!(FaultPlan::parse("drop=0.5,dup=0.3,delay=0.4").is_err(), "rates sum past 1");
    }

    #[test]
    fn check_ranks_holds_every_named_rank_to_the_world() {
        let within = "kill=7@1,cascade=6@1,slow=5x2,part=0+4@1..9#1";
        assert_eq!(FaultPlan::parse(within).expect("parses").check_ranks(8), Ok(()));
        for spec in ["kill=8@1", "cascade=99@1", "slow=8x2", "part=0+8@1..9#1"] {
            let plan = FaultPlan::parse(spec).expect("parses: P is not known yet");
            let e = plan.check_ranks(8).expect_err(spec);
            assert!(e.contains("outside a world of 8"), "{spec}: {e}");
        }
    }

    #[test]
    fn fault_state_tracks_deaths_and_epochs() {
        let st = FaultState::new(FaultPlan::none(), 0, 4);
        assert_eq!(st.epoch(), 0);
        assert!(st.mark_dead(2));
        assert!(!st.mark_dead(2), "second death of the same rank is a no-op");
        assert_eq!(st.epoch(), 1);
        assert!(st.is_dead(2));
        assert_eq!(st.dead_ranks(), vec![2]);
    }
}

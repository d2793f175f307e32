//! Structured per-rank event tracing and per-phase cost attribution.
//!
//! When a [`World`](crate::World) is built with
//! [`with_trace(true)`](crate::World::with_trace), every communication
//! operation, compute call, collective entry, and algorithm phase scope
//! emits a [`TraceEvent`] carrying the payload words, the retransmission
//! overhead words, and the logical-clock interval `[t0, t1]` the
//! operation occupied on its rank. The per-world [`Tracer`] collects the
//! per-rank streams and builds three artifacts on top:
//!
//! * [`Tracer::phase_totals`] — per-phase, per-rank goodput words and
//!   messages (the quantity eq. (3) of the paper predicts phase by phase);
//! * [`Tracer::critical_path`] — a backward walk over the dependency
//!   chain that realized the final clock, attributing every word of the
//!   longest chain to the phase that spent it;
//! * [`Tracer::chrome_json`] / [`Tracer::render_text`] — a Chrome
//!   `trace_event` JSON export loadable in `chrome://tracing` / Perfetto,
//!   and a compact text rendering for CI logs.
//!
//! Tracing is zero-cost when disabled (every emission site is gated on
//! the per-rank trace buffer existing, and never touches meters or
//! clocks) and deterministic under a seeded scheduler: the event streams
//! and their timestamps are part of the golden replay artifact.
//!
//! ```
//! use pmm_model::MachineParams;
//! use pmm_simnet::{Tracer, World};
//!
//! // Rank 0 streams 4 words to rank 1 inside a labelled phase.
//! let out = World::new(2, MachineParams::BANDWIDTH_ONLY).with_trace(true).run_async(|rank| {
//!     Box::pin(async move {
//!         let wc = rank.world_comm();
//!         rank.phase_begin("exchange");
//!         if rank.world_rank() == 0 {
//!             rank.send_a(&wc, 1, &[1.0; 4]).await;
//!         } else {
//!             rank.recv_a(&wc, 0).await;
//!         }
//!         rank.phase_end("exchange");
//!     })
//! });
//! let tracer = Tracer::from_streams(
//!     out.reports.iter().map(|r| r.trace.clone().unwrap()).collect(),
//! );
//! let phases = tracer.phase_totals();
//! assert_eq!(phases[0].label, "exchange");
//! assert_eq!((phases[0].ranks[0].sent, phases[0].ranks[1].recv), (4, 4));
//! // The longest dependency chain is the one 4-word transfer.
//! assert_eq!(tracer.critical_path().total, 4.0);
//! ```

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use pmm_model::Traffic;

use crate::fabric::Ctx;
use crate::verify::CollectiveOp;

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// A send; `to_world` is the receiver's world rank.
    Send {
        /// Receiver's world rank.
        to_world: usize,
    },
    /// A receive (blocking, duplex, or redeemed nonblocking); `from_world`
    /// is the sender's world rank.
    Recv {
        /// Sender's world rank.
        from_world: usize,
    },
    /// Local computation accounted via [`Rank::compute`](crate::Rank::compute).
    Compute {
        /// Scalar operations accounted.
        flops: f64,
    },
    /// Entry into a collective (emitted by
    /// [`Rank::collective_begin_a`](crate::Rank::collective_begin_a), which every
    /// `pmm-collectives` entry point calls).
    Collective {
        /// The collective kind.
        op: CollectiveOp,
        /// Element count registered with the matching lint.
        elems: u64,
    },
    /// Opening of a named phase scope (see
    /// [`Rank::phase_begin`](crate::Rank::phase_begin) and the
    /// [`phase!`](crate::phase) macro).
    PhaseBegin {
        /// The phase label.
        label: &'static str,
    },
    /// Closing of a named phase scope.
    PhaseEnd {
        /// The phase label (must match the open scope).
        label: &'static str,
    },
}

/// One entry of a rank's structured trace: the operation, the
/// communicator context it ran on, its payload and retransmission-overhead
/// word counts, and the logical-clock interval it occupied.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Communicator context the operation ran on (`0` = world; phase
    /// events use the world context).
    pub ctx: Ctx,
    /// The operation.
    pub op: TraceOp,
    /// Goodput payload words moved by this operation (0 for non-message
    /// events).
    pub words: u64,
    /// Retransmission-overhead words charged to this operation by the
    /// reliable-delivery layer (0 without a fault plan).
    pub retry_words: u64,
    /// Rank-local clock when the operation started.
    pub t0: f64,
    /// Rank-local clock when the operation finished (`t0 == t1` for
    /// instantaneous events: collectives entries, marks, phase edges).
    pub t1: f64,
}

/// Per-phase goodput totals extracted from a trace: for one phase label,
/// what each rank sent and received while that phase was open.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotals {
    /// The phase label (innermost open scope wins for nested phases).
    pub label: String,
    /// Per world rank: words sent, words received and messages sent
    /// inside this phase.
    pub ranks: Vec<Traffic>,
}

impl PhaseTotals {
    /// Maximum duplex words over all ranks (the per-processor cost a
    /// balanced phase charges every rank equally).
    pub fn max_duplex(&self) -> u64 {
        self.ranks.iter().map(Traffic::duplex).max().unwrap_or(0)
    }
}

/// Result of the critical-path walk: the longest dependency chain that
/// realized the final clock, attributed per phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Total cost of the chain — equals the world's final
    /// critical-path clock ([`WorldResult::critical_path_time`]) on a
    /// fault-free traced run.
    ///
    /// [`WorldResult::critical_path_time`]: crate::WorldResult::critical_path_time
    pub total: f64,
    /// World rank whose clock finished last (where the walk starts).
    pub end_rank: usize,
    /// Cost attributed to each phase, in execution order. Cost spent
    /// outside any phase scope lands under the label `"(unphased)"`.
    pub per_phase: Vec<(String, f64)>,
    /// Number of cross-rank hops the chain took (each hop follows a
    /// message from its receive back to its send).
    pub hops: usize,
}

impl CriticalPath {
    /// Cost attributed to `label`, or 0 if the phase never appears on the
    /// chain.
    pub fn phase_cost(&self, label: &str) -> f64 {
        self.per_phase.iter().find(|(l, _)| l == label).map_or(0.0, |(_, c)| *c)
    }
}

/// One row of a per-phase [`Attribution`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDiff {
    /// The phase label.
    pub label: String,
    /// Maximum predicted duplex words over all ranks.
    pub predicted_max: u64,
    /// Maximum measured duplex words over all ranks.
    pub measured_max: u64,
    /// Number of ranks whose measured traffic (words sent, received and
    /// messages) differs from the prediction.
    pub ranks_diverging: usize,
}

impl PhaseDiff {
    /// Whether any rank diverged from the prediction in this phase.
    pub fn diverges(&self) -> bool {
        self.ranks_diverging > 0
    }
}

/// A per-phase diff of measured goodput against a model prediction (see
/// [`Tracer::attribution`]). [`Display`](fmt::Display) renders the table
/// and names the first divergent phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// One row per predicted phase, in the order given.
    pub rows: Vec<PhaseDiff>,
    /// Label of the first phase where any rank's measurement differs from
    /// the prediction, or `None` when every phase matches exactly.
    pub first_divergent: Option<String>,
}

impl Attribution {
    /// Whether every phase of every rank matched the prediction exactly.
    pub fn matches(&self) -> bool {
        self.first_divergent.is_none()
    }
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let wid = self.rows.iter().map(|r| r.label.len()).max().unwrap_or(5).max(5);
        writeln!(f, "{:wid$}  {:>14}  {:>14}  verdict", "phase", "predicted", "measured")?;
        for row in &self.rows {
            let verdict = if row.diverges() {
                format!("DIVERGES ({} rank(s))", row.ranks_diverging)
            } else {
                "exact".to_string()
            };
            writeln!(
                f,
                "{:wid$}  {:>14}  {:>14}  {verdict}",
                row.label, row.predicted_max, row.measured_max
            )?;
        }
        match &self.first_divergent {
            Some(label) => write!(f, "first divergent phase: {label}"),
            None => write!(f, "all phases match the prediction exactly"),
        }
    }
}

/// The per-world trace: one [`TraceEvent`] stream per rank, indexed by
/// world rank, plus the analyses built on top (see the module docs).
#[derive(Debug, Clone)]
pub struct Tracer {
    streams: Vec<Vec<TraceEvent>>,
}

impl Tracer {
    /// Build a tracer from per-rank event streams (index = world rank).
    /// [`WorldResult::tracer`](crate::WorldResult::tracer) does this for a
    /// finished traced run.
    pub fn from_streams(streams: Vec<Vec<TraceEvent>>) -> Tracer {
        Tracer { streams }
    }

    /// Number of ranks in the traced world.
    pub fn ranks(&self) -> usize {
        self.streams.len()
    }

    /// The event stream of world rank `r`.
    pub fn events(&self, r: usize) -> &[TraceEvent] {
        &self.streams[r]
    }

    /// Innermost open phase label for every event of every rank
    /// (`None` outside any scope).
    fn phase_labels(&self) -> Vec<Vec<Option<&'static str>>> {
        self.streams
            .iter()
            .map(|stream| {
                let mut stack: Vec<&'static str> = Vec::new();
                stream
                    .iter()
                    .map(|e| match e.op {
                        TraceOp::PhaseBegin { label } => {
                            stack.push(label);
                            Some(label)
                        }
                        TraceOp::PhaseEnd { label } => {
                            let open = stack.pop();
                            assert_eq!(
                                open,
                                Some(label),
                                "phase scopes must nest (phase_end without matching begin)"
                            );
                            Some(label)
                        }
                        _ => stack.last().copied(),
                    })
                    .collect()
            })
            .collect()
    }

    /// Per-phase, per-rank goodput totals, with phases ordered by first
    /// appearance (scanning ranks in order). Repeated scopes with the same
    /// label (e.g. the per-slab gathers of the streamed variant)
    /// accumulate into one entry.
    pub fn phase_totals(&self) -> Vec<PhaseTotals> {
        let p = self.streams.len();
        let labels = self.phase_labels();
        let mut order: Vec<String> = Vec::new();
        let mut by_label: HashMap<String, PhaseTotals> = HashMap::new();
        for (r, stream) in self.streams.iter().enumerate() {
            for (i, e) in stream.iter().enumerate() {
                let Some(label) = labels[r][i] else { continue };
                let entry = by_label.entry(label.to_string()).or_insert_with(|| {
                    order.push(label.to_string());
                    PhaseTotals { label: label.to_string(), ranks: vec![Traffic::default(); p] }
                });
                let moved = &mut entry.ranks[r];
                match e.op {
                    TraceOp::Send { .. } => *moved += Traffic { sent: e.words, recv: 0, msgs: 1 },
                    TraceOp::Recv { .. } => moved.recv += e.words,
                    _ => {}
                }
            }
        }
        order.into_iter().map(|l| by_label.remove(&l).expect("ordered label exists")).collect()
    }

    /// FIFO-match every receive event to its send event. Returns, per
    /// rank, per event index: `Some((sender_rank, send_event_index))` for
    /// matched receives, `None` otherwise. Matching is per channel
    /// `(ctx, sender_world, receiver_world)` — the fabric delivers each
    /// channel in FIFO order (asserted by the happens-before audit), so
    /// the k-th receive pairs with the k-th send.
    fn match_messages(&self) -> Vec<Vec<Option<(usize, usize)>>> {
        // channel -> ordered send sites
        let mut sends: HashMap<(Ctx, usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for (r, stream) in self.streams.iter().enumerate() {
            for (i, e) in stream.iter().enumerate() {
                if let TraceOp::Send { to_world } = e.op {
                    sends.entry((e.ctx, r, to_world)).or_default().push((r, i));
                }
            }
        }
        let mut cursor: HashMap<(Ctx, usize, usize), usize> = HashMap::new();
        self.streams
            .iter()
            .enumerate()
            .map(|(r, stream)| {
                stream
                    .iter()
                    .map(|e| {
                        let TraceOp::Recv { from_world } = e.op else { return None };
                        let key = (e.ctx, from_world, r);
                        let k = cursor.entry(key).or_insert(0);
                        let site = sends.get(&key).and_then(|v| v.get(*k)).copied();
                        *k += 1;
                        site
                    })
                    .collect()
            })
            .collect()
    }

    /// Walk the longest dependency chain backward from the last-finishing
    /// rank and attribute its cost per phase.
    ///
    /// Each rank's clock already *is* the length of its longest dependency
    /// chain (every operation advances it by the α-β-γ rule from the later
    /// of its local and remote predecessors), so the walk is pure
    /// attribution: at each event the charge is
    /// `t1 − max(previous local t1, matched send t0)`, and the walk
    /// follows whichever predecessor was binding (ties prefer the local
    /// one, deterministically). The charges sum to exactly the final
    /// clock. On fault-injected runs retransmission timeouts shift send
    /// starts, so the attribution is exact only for fault-free runs —
    /// which is what the eq. (3) conformance gate runs.
    pub fn critical_path(&self) -> CriticalPath {
        let matches = self.match_messages();
        let labels = self.phase_labels();
        let (end_rank, mut t) = self
            .streams
            .iter()
            .enumerate()
            .map(|(r, s)| (r, s.last().map_or(0.0, |e| e.t1)))
            // max_by on (t1, rank): deterministic winner on clock ties.
            .max_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).expect("finite clocks"))
            .unwrap_or((0, 0.0));
        let total = t;
        let mut rank = end_rank;
        let mut idx = self.streams[rank].len() as isize - 1;
        let mut order: Vec<String> = Vec::new();
        let mut cost: HashMap<String, f64> = HashMap::new();
        let mut hops = 0usize;
        let mut charge = |label: Option<&'static str>, c: f64, order: &mut Vec<String>| {
            if c <= 0.0 {
                return;
            }
            let key = label.unwrap_or("(unphased)").to_string();
            if !cost.contains_key(&key) {
                order.push(key.clone());
            }
            *cost.entry(key).or_insert(0.0) += c;
        };
        while t > 0.0 && idx >= 0 {
            let i = idx as usize;
            let pred_local = if i > 0 { self.streams[rank][i - 1].t1 } else { 0.0 };
            let remote = matches[rank][i].map(|(sr, si)| (self.streams[sr][si].t0, sr, si));
            let pred_remote = remote.map_or(f64::NEG_INFINITY, |(t0, _, _)| t0);
            let pred = pred_local.max(pred_remote).max(0.0);
            charge(labels[rank][i], t - pred, &mut order);
            t = pred;
            match remote {
                Some((t0, sr, si)) if t0 > pred_local => {
                    // The message was the binding dependency: hop to the
                    // sender, resuming just before its send.
                    rank = sr;
                    idx = si as isize - 1;
                    hops += 1;
                }
                _ => idx -= 1,
            }
        }
        // Execution order = reverse of discovery order (the walk runs
        // backward in time).
        order.reverse();
        let per_phase = order.into_iter().map(|l| (l.clone(), cost[&l])).collect();
        CriticalPath { total, end_rank, per_phase, hops }
    }

    /// Diff measured per-phase goodput against a model prediction:
    /// `labels` names the phases, and `expected(r)` gives world rank
    /// `r`'s predicted traffic in each, in the same order (e.g.
    /// `|r| pmm_model::alg1_price(dims, grid, 1, r)`). A phase diverges
    /// if *any* rank's words sent, words received or messages differ
    /// from its prediction; the report names the first divergent phase
    /// in the order given.
    pub fn attribution<const N: usize>(
        &self,
        labels: [&str; N],
        expected: impl Fn(usize) -> [Traffic; N],
    ) -> Attribution {
        let totals = self.phase_totals();
        let expected: Vec<[Traffic; N]> = (0..self.streams.len()).map(expected).collect();
        let rows: Vec<PhaseDiff> = labels
            .iter()
            .enumerate()
            .map(|(i, &label)| {
                let predicted_max = expected.iter().map(|e| e[i].duplex()).max().unwrap_or(0);
                let found = totals.iter().find(|t| t.label == label);
                let (measured_max, ranks_diverging) = match found {
                    Some(t) => (
                        t.max_duplex(),
                        t.ranks.iter().zip(&expected).filter(|(moved, e)| **moved != e[i]).count(),
                    ),
                    // A predicted phase that never ran diverges on every rank.
                    None => (0, self.streams.len()),
                };
                PhaseDiff { label: label.to_string(), predicted_max, measured_max, ranks_diverging }
            })
            .collect();
        let first_divergent = rows.iter().find(|r| r.diverges()).map(|r| r.label.clone());
        Attribution { rows, first_divergent }
    }

    /// Export the trace in Chrome `trace_event` JSON format — load the
    /// file in `chrome://tracing` or <https://ui.perfetto.dev>. One track
    /// (`tid`) per rank; phases render as nested duration slices,
    /// messages and compute as complete events, collectives and marks as
    /// instants. Timestamps are the simulator's logical clock (words at
    /// β = 1), passed through unscaled.
    ///
    /// The output is byte-deterministic for a given trace: floats render
    /// via Rust's shortest-round-trip `Display`, and events keep their
    /// per-rank order.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (r, stream) in self.streams.iter().enumerate() {
            for e in stream {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                self.chrome_event(&mut out, r, e);
            }
        }
        out.push_str("\n]}\n");
        out
    }

    fn chrome_event(&self, out: &mut String, rank: usize, e: &TraceEvent) {
        let common = |out: &mut String, ts: f64| {
            let _ = write!(out, "\"ts\":{ts},\"pid\":0,\"tid\":{rank}");
        };
        out.push('{');
        match &e.op {
            TraceOp::PhaseBegin { label } => {
                let _ = write!(out, "\"name\":{},\"cat\":\"phase\",\"ph\":\"B\",", json_str(label));
                common(out, e.t0);
            }
            TraceOp::PhaseEnd { label } => {
                let _ = write!(out, "\"name\":{},\"cat\":\"phase\",\"ph\":\"E\",", json_str(label));
                common(out, e.t1);
            }
            TraceOp::Send { to_world } => {
                let _ =
                    write!(out, "\"name\":\"send to {to_world}\",\"cat\":\"comm\",\"ph\":\"X\",");
                common(out, e.t0);
                let _ = write!(
                    out,
                    ",\"dur\":{},\"args\":{{\"ctx\":{},\"words\":{},\"retry_words\":{}}}",
                    e.t1 - e.t0,
                    e.ctx,
                    e.words,
                    e.retry_words
                );
            }
            TraceOp::Recv { from_world } => {
                let _ = write!(
                    out,
                    "\"name\":\"recv from {from_world}\",\"cat\":\"comm\",\"ph\":\"X\","
                );
                common(out, e.t0);
                let _ = write!(
                    out,
                    ",\"dur\":{},\"args\":{{\"ctx\":{},\"words\":{},\"retry_words\":{}}}",
                    e.t1 - e.t0,
                    e.ctx,
                    e.words,
                    e.retry_words
                );
            }
            TraceOp::Compute { flops } => {
                let _ = write!(out, "\"name\":\"compute\",\"cat\":\"compute\",\"ph\":\"X\",");
                common(out, e.t0);
                let _ = write!(out, ",\"dur\":{},\"args\":{{\"flops\":{flops}}}", e.t1 - e.t0);
            }
            TraceOp::Collective { op, elems } => {
                let _ = write!(
                    out,
                    "\"name\":\"{op}\",\"cat\":\"collective\",\"ph\":\"i\",\"s\":\"t\","
                );
                common(out, e.t0);
                let _ = write!(out, ",\"args\":{{\"ctx\":{},\"elems\":{elems}}}", e.ctx);
            }
        }
        out.push('}');
    }

    /// Compact text rendering for CI logs: per-phase word totals and the
    /// critical-path attribution, one line each.
    pub fn render_text(&self) -> String {
        let totals = self.phase_totals();
        let cp = self.critical_path();
        let mut out = String::new();
        let _ = writeln!(out, "# trace: {} rank(s), {} phase(s)", self.ranks(), totals.len());
        let wid = totals.iter().map(|t| t.label.len()).max().unwrap_or(5).max(5);
        let _ = writeln!(
            out,
            "{:wid$}  {:>16}  {:>18}",
            "phase", "max duplex w/rank", "critical-path cost"
        );
        for t in &totals {
            let _ = writeln!(
                out,
                "{:wid$}  {:>16}  {:>18}",
                t.label,
                t.max_duplex(),
                cp.phase_cost(&t.label)
            );
        }
        let unphased = cp.phase_cost("(unphased)");
        if unphased > 0.0 {
            let _ = writeln!(out, "{:wid$}  {:>16}  {:>18}", "(unphased)", "-", unphased);
        }
        let _ = writeln!(
            out,
            "critical path: {} (ends at rank {}, {} cross-rank hop(s))",
            cp.total, cp.end_rank, cp.hops
        );
        out
    }
}

/// Minimal JSON string escaping (labels are programmer-chosen ASCII; the
/// escapes cover the mandatory set).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run a block as a named phase scope on `rank`: emits
/// [`TraceOp::PhaseBegin`]/[`TraceOp::PhaseEnd`] trace events around the
/// block (no cost, no-op when tracing is off) and evaluates to the
/// block's value. The block may `.await`.
///
/// ```
/// use pmm_model::MachineParams;
/// use pmm_simnet::{phase, World};
///
/// let out = World::new(2, MachineParams::BANDWIDTH_ONLY).with_trace(true).run_async(|rank| {
///     Box::pin(async move {
///         let wc = rank.world_comm();
///         let partner = 1 - rank.world_rank();
///         phase!(rank, "swap", rank.sendrecv_a(&wc, partner, &[1.0; 4]).await.payload.len())
///     })
/// });
/// assert_eq!(out.values, [4, 4]);
/// assert_eq!(out.tracer().expect("traced").phase_totals()[0].label, "swap");
/// ```
#[macro_export]
macro_rules! phase {
    ($rank:expr, $label:expr, $body:expr) => {{
        $rank.phase_begin($label);
        let __pmm_phase_value = $body;
        $rank.phase_end($label);
        __pmm_phase_value
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ctx: Ctx, op: TraceOp, words: u64, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent { ctx, op, words, retry_words: 0, t0, t1 }
    }

    /// Rank 0 sends 10 words inside phase "p"; rank 1 receives them.
    fn two_rank_trace() -> Tracer {
        Tracer::from_streams(vec![
            vec![
                ev(0, TraceOp::PhaseBegin { label: "p" }, 0, 0.0, 0.0),
                ev(0, TraceOp::Send { to_world: 1 }, 10, 0.0, 10.0),
                ev(0, TraceOp::PhaseEnd { label: "p" }, 0, 10.0, 10.0),
            ],
            vec![
                ev(0, TraceOp::PhaseBegin { label: "p" }, 0, 0.0, 0.0),
                ev(0, TraceOp::Recv { from_world: 0 }, 10, 0.0, 10.0),
                ev(0, TraceOp::PhaseEnd { label: "p" }, 0, 10.0, 10.0),
            ],
        ])
    }

    #[test]
    fn phase_totals_split_words_by_scope() {
        let t = two_rank_trace();
        let totals = t.phase_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].label, "p");
        let t = |sent, recv, msgs| Traffic { sent, recv, msgs };
        assert_eq!(totals[0].ranks, vec![t(10, 0, 1), t(0, 10, 0)]);
        assert_eq!(totals[0].max_duplex(), 10);
    }

    #[test]
    fn critical_path_attributes_the_transfer_once() {
        let t = two_rank_trace();
        let cp = t.critical_path();
        assert_eq!(cp.total, 10.0);
        assert_eq!(cp.per_phase, vec![("p".to_string(), 10.0)]);
        // The receiver's charge covers the transfer; the chain never needs
        // to hop (the send started at t = 0).
        assert_eq!(cp.hops, 0);
    }

    #[test]
    fn critical_path_hops_through_a_relay() {
        // 0 sends 5w to 1 (t 0→5); 1 relays 5w to 2 (t 5→10); 2 was idle.
        let t = Tracer::from_streams(vec![
            vec![ev(0, TraceOp::Send { to_world: 1 }, 5, 0.0, 5.0)],
            vec![
                ev(0, TraceOp::Recv { from_world: 0 }, 5, 0.0, 5.0),
                ev(0, TraceOp::Send { to_world: 2 }, 5, 5.0, 10.0),
            ],
            vec![ev(0, TraceOp::Recv { from_world: 1 }, 5, 0.0, 10.0)],
        ]);
        let cp = t.critical_path();
        assert_eq!(cp.total, 10.0);
        assert_eq!(cp.end_rank, 2);
        // 2's receive charges 10 − send.t0 = 5 … then hops to rank 1,
        // whose receive charges 5.
        assert_eq!(cp.hops, 1);
        assert_eq!(cp.per_phase, vec![("(unphased)".to_string(), 10.0)]);
    }

    #[test]
    fn attribution_flags_the_first_divergent_phase() {
        let t = two_rank_trace();
        let sends = |sent, recv, msgs| [Traffic { sent, recv, msgs }];
        let exact =
            t.attribution(["p"], |r| if r == 0 { sends(10, 0, 1) } else { sends(0, 10, 0) });
        assert!(exact.matches(), "{exact}");
        assert_eq!(exact.rows[0].predicted_max, 10);
        // Rank 1 is expected to send what it received: it alone diverges.
        let off = t.attribution(["p"], |_| sends(10, 0, 1));
        assert_eq!(off.first_divergent.as_deref(), Some("p"));
        assert_eq!(off.rows[0].ranks_diverging, 1);
        assert!(off.to_string().contains("first divergent phase: p"), "{off}");
        let missing = t.attribution(["q"], |_| sends(0, 0, 0));
        assert_eq!(missing.first_divergent.as_deref(), Some("q"));
    }

    #[test]
    fn chrome_json_is_wellformed_and_stable() {
        let t = two_rank_trace();
        let a = t.chrome_json();
        let b = t.chrome_json();
        assert_eq!(a, b, "export must be deterministic");
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.trim_end().ends_with("]}"));
        assert!(a.contains("\"ph\":\"B\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"send to 1\""));
        // One JSON object per event.
        assert_eq!(a.matches("\"tid\":").count(), 6);
    }

    #[test]
    fn json_str_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn render_text_names_each_phase() {
        let text = two_rank_trace().render_text();
        assert!(text.contains("p"), "{text}");
        assert!(text.contains("critical path: 10"), "{text}");
    }

    #[test]
    #[should_panic(expected = "must nest")]
    fn mismatched_phase_scopes_panic() {
        let t = Tracer::from_streams(vec![vec![
            ev(0, TraceOp::PhaseBegin { label: "a" }, 0, 0.0, 0.0),
            ev(0, TraceOp::PhaseEnd { label: "b" }, 0, 0.0, 0.0),
        ]]);
        let _ = t.phase_totals();
    }
}

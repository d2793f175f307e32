//! Request execution: one parsed line in, one [`Response`] out.
//!
//! The engine owns the service counters and answers `ADVISE` straight
//! from the advisor, but knows nothing about transports, queues, or
//! threads — `server.rs` wraps it in the bounded-queue worker pool.
//! [`Engine::handle`] is *allowed to panic* (that is the point of the
//! `__PANIC` chaos verb); the worker pool calls it under `catch_unwind`
//! and turns a panic into a structured `ERR internal` while the worker
//! survives.

use std::time::Instant;

use pmm_core::advisor::{try_recommend, Recommendation};
use pmm_model::AlgPlan;

use crate::protocol::{parse_request, Request, Response};
use crate::stats::Stats;
use crate::ServeConfig;

/// The transport-independent request handler.
#[derive(Debug)]
pub struct Engine {
    config: ServeConfig,
    stats: Stats,
    started: Instant,
}

/// Render an advised plan as wire tokens (`algo=alg1 grid=…` /
/// `algo=2.5d q=… c=…`, the two kinds the advisor ranks).
fn plan_tokens(plan: &AlgPlan) -> String {
    match *plan {
        AlgPlan::Alg1 { grid: [p1, p2, p3] } => format!("algo=alg1 grid={p1}x{p2}x{p3}"),
        AlgPlan::TwoFiveD { q, c } => format!("algo=2.5d q={q} c={c}"),
        _ => format!("algo={} plan={plan}", plan.algorithm()),
    }
}

impl Engine {
    /// An engine with zeroed counters.
    pub fn new(config: ServeConfig) -> Engine {
        Engine { config, stats: Stats::default(), started: Instant::now() }
    }

    /// The live counters (shared with transports, which tally responses
    /// and connection events).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serve one raw request line (no trailing newline).
    ///
    /// Total except for the chaos verbs: every malformed or invalid
    /// input returns a typed `ERR`. `__PANIC` panics **by design** —
    /// callers that must survive hostile traffic wrap this in
    /// `catch_unwind`, as the worker pool does.
    pub fn handle(&self, line: &[u8]) -> Response {
        let request = match parse_request(line, self.config.chaos_verbs) {
            Ok(r) => r,
            Err(e) => return e.into(),
        };
        match request {
            Request::Advise { n1, n2, n3, p, m_words, params } => {
                match try_recommend(n1, n2, n3, p, m_words, params) {
                    Ok(recs) => Response::Ok(render_advice(&recs, n1, n2, n3, p)),
                    Err(e) => e.into(),
                }
            }
            Request::Stats => {
                let snap = self.stats.snapshot();
                Response::Ok(format!(
                    "{} workers={} queue_depth={} deadline_ms={} uptime_ms={}",
                    snap.render(),
                    self.config.workers,
                    self.config.queue_depth,
                    self.config.deadline.as_millis(),
                    self.started.elapsed().as_millis(),
                ))
            }
            Request::Ping => Response::Ok("pong".to_string()),
            Request::ChaosPanic(msg) => panic!("chaos verb: {msg}"),
            Request::ChaosSleep(ms) => {
                // Cap so a hostile sleep cannot pin a worker for longer
                // than a handful of deadlines even in chaos mode.
                let cap = (self.config.deadline.as_millis() as u64).saturating_mul(20).max(1000);
                std::thread::sleep(std::time::Duration::from_millis(ms.min(cap)));
                Response::Ok(format!("slept ms={}", ms.min(cap)))
            }
        }
    }
}

/// The `OK advise …` payload: the winning plan, its full predicted
/// cost, the regime, and how many alternatives were ranked.
fn render_advice(recs: &[Recommendation], n1: u64, n2: u64, n3: u64, p: u64) -> String {
    let best = &recs[0];
    let case = pmm_model::MatMulDims::new(n1, n2, n3).sorted().classify(p as f64);
    format!(
        "advise case={case} {} time={} words={} msgs={} flops={} mem={} alts={}",
        plan_tokens(&best.plan),
        best.time,
        best.cost.words,
        best.cost.messages,
        best.cost.flops,
        best.memory_words,
        recs.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrCode;

    fn engine(chaos: bool) -> Engine {
        Engine::new(ServeConfig { chaos_verbs: chaos, ..ServeConfig::default() })
    }

    #[test]
    fn advise_round_trip_reports_case_and_strategy() {
        let e = engine(false);
        match e.handle(b"ADVISE 96 24 6 36 inf 0 1 0") {
            Response::Ok(p) => {
                assert!(p.contains("case=2D"), "{p}");
                assert!(p.contains("algo="), "{p}");
                assert!(!p.contains("cache="), "{p}");
            }
            other => panic!("expected OK, got {other:?}"),
        }
    }

    #[test]
    fn invalid_queries_get_typed_advisor_errors() {
        let e = engine(false);
        match e.handle(b"ADVISE 0 8 8 4 inf") {
            Response::Err { code, detail } => {
                assert_eq!(code, ErrCode::Advisor);
                assert!(detail.contains("n1"), "{detail}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        match e.handle(b"ADVISE 4096 4096 4096 8 10") {
            Response::Err { code, detail } => {
                assert_eq!(code, ErrCode::Advisor);
                assert!(detail.contains("floor"), "{detail}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
    }

    #[test]
    fn any_processor_count_is_answered_in_bounded_time() {
        // A highly composite P has 1.8 million grids and is ranked; a P
        // past the advisor's 2^40 is a typed error, not a divisor search
        // up to 2^32.
        let e = engine(false);
        let t0 = std::time::Instant::now();
        match e.handle(b"ADVISE 4096 4096 4096 963761198400 inf") {
            Response::Ok(p) => assert!(p.contains("algo="), "{p}"),
            other => panic!("expected OK, got {other:?}"),
        }
        match e.handle(b"ADVISE 4096 4096 4096 18446744073709551615 inf") {
            Response::Err { code, detail } => {
                assert_eq!(code, ErrCode::Advisor);
                assert!(detail.contains("largest plannable P"), "{detail}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        let secs = t0.elapsed().as_secs_f64();
        assert!(secs < 20.0, "two queries took {secs:.1} s");
    }

    #[test]
    fn stats_verb_reports_counters_and_config() {
        let e = engine(false);
        let _ = e.handle(b"ADVISE 8 8 8 4 inf");
        match e.handle(b"STATS") {
            Response::Ok(p) => {
                assert!(p.starts_with("stats "), "{p}");
                assert!(p.contains("workers=4"), "{p}");
                assert!(p.contains("queue_depth="), "{p}");
                assert!(p.contains("deadline_ms="), "{p}");
            }
            other => panic!("expected OK, got {other:?}"),
        }
    }

    #[test]
    fn ping_pongs() {
        assert_eq!(engine(false).handle(b"PING"), Response::Ok("pong".into()));
    }

    #[test]
    fn chaos_panic_panics_only_when_enabled() {
        let quiet = engine(false);
        assert!(matches!(
            quiet.handle(b"__PANIC boom"),
            Response::Err { code: ErrCode::UnknownVerb, .. }
        ));
        let chaotic = engine(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaotic.handle(b"__PANIC boom")
        }));
        assert!(caught.is_err(), "__PANIC must actually panic in chaos mode");
    }
}

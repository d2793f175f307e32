//! # pmm-serve — the hardened advisor service
//!
//! ROADMAP item 2 made flesh, robustness-first: a long-running
//! line-protocol query service answering "given `(n1, n2, n3, P, M)`,
//! which algorithm, which grid, what cost?" — the Theorem 3 / Lemma 2
//! classification of Al Daas et al. served as a hot path — built so that
//! overload, malformed input, slow clients, and mid-request panics
//! degrade *gracefully* instead of taking the process down:
//!
//! * **Bounded queue, explicit backpressure.** Requests sit in a
//!   fixed-depth queue; when it is full the service answers `SHED`
//!   immediately rather than buffering without bound.
//! * **Per-request deadlines.** Every accepted request is answered
//!   within its deadline budget or with a typed `TIMEOUT`.
//! * **Read timeouts.** A slow or stalled (slowloris) client is
//!   disconnected after the read timeout; it can pin only its own
//!   connection thread, never a queue worker.
//! * **Panic isolation.** Worker threads run each request under
//!   `catch_unwind`: a poisoned request returns `ERR internal` and the
//!   worker survives to serve the next one.
//! * **Observable.** Request, shed, timeout and panic counters are
//!   exposed over the wire via the `STATS` verb.
//! * **Graceful shutdown.** Draining completes every in-flight query
//!   before the workers exit.
//!
//! The protocol is one request line in, exactly one response line out
//! (see [`protocol`]); transports are stdin/stdout and TCP
//! ([`TcpService`]). The chaos load harness in `pmm-bench`
//! (`serve_chaos`) drives all of the above adversarially and emits the
//! `BENCH_serve.json` throughput/latency trajectory.
//!
//! ```
//! use pmm_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default());
//! let response = server.submit(b"ADVISE 96 24 6 36 inf".to_vec());
//! assert!(response.render().starts_with("OK advise case=2D"));
//! server.shutdown();
//! ```

#![warn(missing_docs)]

use std::time::Duration;

pub mod engine;
pub mod protocol;
pub mod server;
pub mod stats;

pub use engine::Engine;
pub use protocol::{parse_request, ErrCode, Request, Response};
pub use server::{oneshot, read_line_bounded, serve_stdio, LineRead, Server, TcpService};
pub use stats::{Stats, StatsSnapshot};

/// Tuning knobs of the service. Every knob has a `PMM_SERVE_*`
/// environment override (see [`ServeConfig::from_env`]); defaults are
/// sized for an interactive local service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded request-queue depth; a full queue sheds.
    pub queue_depth: usize,
    /// Per-request deadline budget (enqueue → response).
    pub deadline: Duration,
    /// Per-connection read timeout (TCP): the longest a client may
    /// stall mid-line or sit idle between lines.
    pub read_timeout: Duration,
    /// Maximum request-line length in bytes; longer lines are answered
    /// with `ERR line-too-long` and streamed to the bin unbuffered.
    pub max_line_bytes: usize,
    /// Enable the `__PANIC`/`__SLEEP` chaos verbs (test harnesses only;
    /// off by default so production traffic cannot trigger them).
    pub chaos_verbs: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 128,
            deadline: Duration::from_millis(250),
            read_timeout: Duration::from_secs(5),
            max_line_bytes: protocol::DEFAULT_MAX_LINE_BYTES,
            chaos_verbs: false,
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

impl ServeConfig {
    /// Defaults overridden by the `PMM_SERVE_*` environment:
    /// `PMM_SERVE_WORKERS`, `PMM_SERVE_QUEUE_DEPTH`,
    /// `PMM_SERVE_DEADLINE_MS`, `PMM_SERVE_READ_TIMEOUT_MS` and
    /// `PMM_SERVE_MAX_LINE`. Unset or unparsable variables keep the
    /// default (the service must come up even with a hostile
    /// environment).
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        if let Some(v) = env_parse::<usize>("PMM_SERVE_WORKERS") {
            cfg.workers = v.max(1);
        }
        if let Some(v) = env_parse::<usize>("PMM_SERVE_QUEUE_DEPTH") {
            cfg.queue_depth = v.max(1);
        }
        if let Some(v) = env_parse::<u64>("PMM_SERVE_DEADLINE_MS") {
            cfg.deadline = Duration::from_millis(v.max(1));
        }
        if let Some(v) = env_parse::<u64>("PMM_SERVE_READ_TIMEOUT_MS") {
            cfg.read_timeout = Duration::from_millis(v.max(1));
        }
        if let Some(v) = env_parse::<usize>("PMM_SERVE_MAX_LINE") {
            cfg.max_line_bytes = v.max(16);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_depth >= 1);
        assert!(c.deadline > Duration::ZERO);
        assert!(!c.chaos_verbs, "chaos verbs must be opt-in");
    }
}

//! Service counters, exposed over the wire via the `STATS` verb.
//!
//! All counters are relaxed atomics: they are monotonically increasing
//! tallies used for observability and for the chaos harness's
//! invariants (shed rate, zero lost requests), not for synchronization.
//! A [`StatsSnapshot`] is a plain copy taken at one moment; `received ==
//! ok + errors + shed + timeouts` holds once the queue is drained.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$meta:meta])* $name:ident),+ $(,)?) => {
        /// Live counters shared by every connection and worker thread.
        #[derive(Debug, Default)]
        pub struct Stats {
            $($(#[$meta])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`Stats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$meta])* pub $name: u64,)+
        }

        impl Stats {
            /// Copy every counter (relaxed; counters may advance between
            /// loads, totals are reconciled only after a drain).
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl StatsSnapshot {
            /// Render as the `key=value` payload of the `STATS` response.
            pub fn render(&self) -> String {
                let mut out = String::from("stats");
                $(
                    out.push(' ');
                    out.push_str(concat!(stringify!($name), "="));
                    out.push_str(&self.$name.to_string());
                )+
                out
            }
        }
    };
}

counters! {
    /// Request lines read off a connection or stdin (including ones that
    /// fail to parse).
    received,
    /// `OK` responses sent.
    ok,
    /// `ERR` responses sent (parse, advisor, internal…).
    errors,
    /// `SHED` responses sent because the bounded queue was full.
    shed,
    /// `TIMEOUT` responses sent because a deadline expired.
    timeouts,
    /// Worker panics caught by the isolation boundary (each also counts
    /// one `errors`).
    panics,
    /// Connections accepted (TCP mode).
    connections,
    /// Connections dropped for stalling past the read timeout.
    read_timeouts,
    /// Lines rejected (and streamed to the bin) for exceeding the length
    /// cap.
    oversized_lines,
}

impl Stats {
    /// Bump a counter by one.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally a response at the moment it is written to a client: exactly
    /// one of `ok`/`errors`/`shed`/`timeouts` per line sent.
    pub fn count_response(&self, response: &crate::protocol::Response) {
        use crate::protocol::Response;
        let counter = match response {
            Response::Ok(_) => &self.ok,
            Response::Err { .. } => &self.errors,
            Response::Shed { .. } => &self.shed,
            Response::Timeout { .. } => &self.timeouts,
        };
        Stats::bump(counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_and_renders_every_counter() {
        let s = Stats::default();
        s.received.store(10, Ordering::Relaxed);
        s.shed.store(3, Ordering::Relaxed);
        s.panics.store(7, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.received, 10);
        assert_eq!(snap.shed, 3);
        let rendered = snap.render();
        assert!(rendered.starts_with("stats "));
        assert!(rendered.contains("received=10"));
        assert!(rendered.contains("shed=3"));
        assert!(rendered.contains("panics=7"));
        assert!(rendered.contains("timeouts=0"));
        // One token per counter plus the leading word.
        assert_eq!(rendered.split_whitespace().count(), 10);
    }
}

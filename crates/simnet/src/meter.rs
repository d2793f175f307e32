//! Per-rank accounting: traffic meters and memory high-water marks (the
//! structured event trace lives in [`crate::tracer`]).

use std::fmt;
use std::ops::AddAssign;

use pmm_model::Traffic;

/// Cumulative traffic and compute counters for one rank.
///
/// Word counts are exact integers (one `f64` element = one word, following
/// the paper's convention of counting matrix elements). Snapshots are
/// `Copy`, so phase attribution is just a subtraction:
///
/// ```
/// # use pmm_simnet::Meter;
/// let before = Meter::default();
/// let mut m = before;
/// m.words_sent += 100;
/// let phase = m.diff(&before);
/// assert_eq!(phase.words_sent, 100);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Meter {
    /// Words this rank has sent.
    pub words_sent: u64,
    /// Words this rank has received.
    pub words_recv: u64,
    /// Messages this rank has sent.
    pub msgs_sent: u64,
    /// Messages this rank has received.
    pub msgs_recv: u64,
    /// Scalar operations this rank has performed.
    pub flops: f64,
    /// Retransmitted words charged to this sender by the reliable-delivery
    /// layer (dropped, corrupted, or duplicated copies) — fault-injection
    /// overhead on top of the goodput in `words_sent`.
    pub retry_words_sent: u64,
    /// Retransmitted messages charged to this sender.
    pub retry_msgs_sent: u64,
    /// Words received and then discarded (stale sequence number or failed
    /// checksum) — never counted in `words_recv`.
    pub retry_words_recv: u64,
    /// Messages received and then discarded.
    pub retry_msgs_recv: u64,
}

impl Meter {
    /// Counter-wise difference `self − earlier` (panics on counter
    /// regression, which would indicate snapshots from different ranks).
    pub fn diff(&self, earlier: &Meter) -> Meter {
        assert!(
            self.words_sent >= earlier.words_sent
                && self.words_recv >= earlier.words_recv
                && self.msgs_sent >= earlier.msgs_sent
                && self.msgs_recv >= earlier.msgs_recv
                && self.retry_words_sent >= earlier.retry_words_sent
                && self.retry_msgs_sent >= earlier.retry_msgs_sent
                && self.retry_words_recv >= earlier.retry_words_recv
                && self.retry_msgs_recv >= earlier.retry_msgs_recv,
            "meter snapshots out of order"
        );
        Meter {
            words_sent: self.words_sent - earlier.words_sent,
            words_recv: self.words_recv - earlier.words_recv,
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            msgs_recv: self.msgs_recv - earlier.msgs_recv,
            flops: self.flops - earlier.flops,
            retry_words_sent: self.retry_words_sent - earlier.retry_words_sent,
            retry_msgs_sent: self.retry_msgs_sent - earlier.retry_msgs_sent,
            retry_words_recv: self.retry_words_recv - earlier.retry_words_recv,
            retry_msgs_recv: self.retry_msgs_recv - earlier.retry_msgs_recv,
        }
    }

    /// `max(words_sent, words_recv)` — under the model's full-duplex links
    /// this is the bandwidth term a balanced schedule pays, and the natural
    /// per-rank volume to compare against the lower bounds.
    pub fn duplex_words(&self) -> u64 {
        self.words_sent.max(self.words_recv)
    }

    /// The goodput words sent and received and messages sent, as the
    /// model prices one rank's phase (`pmm_model::alg1_price`).
    pub fn traffic(&self) -> Traffic {
        Traffic { sent: self.words_sent, recv: self.words_recv, msgs: self.msgs_sent }
    }

    /// Total words moved in either direction.
    ///
    /// Goodput only: retransmissions live in the `retry_*` counters, so
    /// this (and [`Meter::duplex_words`]) stays the quantity the eq. (3)
    /// prediction and the Theorem 3 lower bounds talk about.
    pub fn total_words(&self) -> u64 {
        self.words_sent + self.words_recv
    }

    /// Total fault-injection overhead words (retransmitted plus
    /// received-and-discarded) — the price of reliability on top of the
    /// goodput that [`Meter::total_words`] reports.
    pub fn retry_overhead_words(&self) -> u64 {
        self.retry_words_sent + self.retry_words_recv
    }
}

/// Counter-wise sum over all nine counters: the traffic of a phase that
/// runs in several pieces (one per slab of a streamed run) is the sum of
/// the pieces' [`Meter::diff`]s.
impl AddAssign for Meter {
    fn add_assign(&mut self, rhs: Meter) {
        self.words_sent += rhs.words_sent;
        self.words_recv += rhs.words_recv;
        self.msgs_sent += rhs.msgs_sent;
        self.msgs_recv += rhs.msgs_recv;
        self.flops += rhs.flops;
        self.retry_words_sent += rhs.retry_words_sent;
        self.retry_msgs_sent += rhs.retry_msgs_sent;
        self.retry_words_recv += rhs.retry_words_recv;
        self.retry_msgs_recv += rhs.retry_msgs_recv;
    }
}

impl fmt::Display for Meter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {}w/{}m, recv {}w/{}m, {} flops",
            self.words_sent, self.msgs_sent, self.words_recv, self.msgs_recv, self.flops
        )?;
        // Only fault-injected runs mention retries, so fault-free output
        // stays byte-identical to the pre-fault-layer format.
        if self.retry_overhead_words() > 0 || self.retry_msgs_sent > 0 || self.retry_msgs_recv > 0 {
            write!(
                f,
                ", retry sent {}w/{}m recv {}w/{}m",
                self.retry_words_sent,
                self.retry_msgs_sent,
                self.retry_words_recv,
                self.retry_msgs_recv
            )?;
        }
        Ok(())
    }
}

/// Per-rank memory accounting with a high-water mark.
///
/// The simulator does not intercept allocations; algorithm code declares
/// the working buffers it holds (in words) via
/// [`Rank::mem_acquire`](crate::Rank::mem_acquire) /
/// [`Rank::mem_release`](crate::Rank::mem_release). The tracker enforces an
/// optional capacity `M` — the local-memory size of §3.1 / §6.2.
#[derive(Debug, Clone)]
pub struct MemTracker {
    current: u64,
    peak: u64,
    limit: Option<u64>,
}

impl MemTracker {
    pub(crate) fn new(limit: Option<u64>) -> MemTracker {
        MemTracker { current: 0, peak: 0, limit }
    }

    /// Try to acquire `words`; fails (without acquiring) if a limit is set
    /// and would be exceeded.
    pub(crate) fn acquire(&mut self, words: u64) -> Result<(), (u64, u64)> {
        let new = self.current + words;
        if let Some(limit) = self.limit {
            if new > limit {
                return Err((new, limit));
            }
        }
        self.current = new;
        self.peak = self.peak.max(new);
        Ok(())
    }

    pub(crate) fn release(&mut self, words: u64) {
        assert!(words <= self.current, "releasing more memory than acquired");
        self.current -= words;
    }

    /// Currently acquired words.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// High-water mark of acquired words.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// The configured capacity, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_subtracts_counterwise() {
        let a = Meter {
            words_sent: 10,
            words_recv: 4,
            msgs_sent: 2,
            msgs_recv: 1,
            flops: 5.0,
            retry_words_sent: 3,
            retry_msgs_sent: 1,
            ..Meter::default()
        };
        let b = Meter {
            words_sent: 25,
            words_recv: 10,
            msgs_sent: 5,
            msgs_recv: 3,
            flops: 9.0,
            retry_words_sent: 7,
            retry_msgs_sent: 2,
            ..Meter::default()
        };
        let d = b.diff(&a);
        assert_eq!(
            d,
            Meter {
                words_sent: 15,
                words_recv: 6,
                msgs_sent: 3,
                msgs_recv: 2,
                flops: 4.0,
                retry_words_sent: 4,
                retry_msgs_sent: 1,
                ..Meter::default()
            }
        );
    }

    #[test]
    fn add_assign_undoes_diff_on_every_counter() {
        let earlier = Meter { words_sent: 3, flops: 1.0, retry_msgs_recv: 2, ..Meter::default() };
        let later = Meter {
            words_sent: 9,
            words_recv: 8,
            msgs_sent: 7,
            msgs_recv: 6,
            flops: 5.0,
            retry_words_sent: 4,
            retry_msgs_sent: 3,
            retry_words_recv: 2,
            retry_msgs_recv: 5,
        };
        let mut sum = earlier;
        sum += later.diff(&earlier);
        assert_eq!(sum, later);
    }

    #[test]
    fn display_mentions_retries_only_when_nonzero() {
        let clean = Meter { words_sent: 4, msgs_sent: 1, ..Meter::default() };
        assert!(!clean.to_string().contains("retry"), "{clean}");
        let retried = Meter { retry_words_recv: 8, retry_msgs_recv: 1, ..clean };
        assert!(retried.to_string().contains("retry sent 0w/0m recv 8w/1m"), "{retried}");
        assert_eq!(retried.retry_overhead_words(), 8);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn diff_detects_regression() {
        let a = Meter { words_sent: 10, ..Meter::default() };
        let _ = Meter::default().diff(&a);
    }

    #[test]
    fn duplex_words_takes_max_direction() {
        let m = Meter { words_sent: 7, words_recv: 12, ..Meter::default() };
        assert_eq!(m.duplex_words(), 12);
        assert_eq!(m.total_words(), 19);
    }

    #[test]
    fn mem_tracker_peak_and_limit() {
        let mut t = MemTracker::new(Some(100));
        t.acquire(60).unwrap();
        t.acquire(40).unwrap();
        assert_eq!(t.current(), 100);
        assert_eq!(t.acquire(1), Err((101, 100)));
        assert_eq!(t.current(), 100, "failed acquire must not change state");
        t.release(50);
        assert_eq!(t.current(), 50);
        assert_eq!(t.peak(), 100);
        t.acquire(30).unwrap();
        assert_eq!(t.peak(), 100, "peak only grows");
    }

    #[test]
    fn mem_tracker_unlimited() {
        let mut t = MemTracker::new(None);
        t.acquire(u64::MAX / 4).unwrap();
        assert_eq!(t.peak(), u64::MAX / 4);
    }

    #[test]
    #[should_panic(expected = "more memory than acquired")]
    fn over_release_panics() {
        let mut t = MemTracker::new(None);
        t.release(1);
    }
}

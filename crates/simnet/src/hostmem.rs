//! Host memory of this process — what the *simulator* holds, as opposed
//! to the simulated machine's [`MemTracker`](crate::MemTracker) words.
//!
//! One reader of `/proc/self/status` for everything that reports host
//! memory: `pmm simulate` / `pmm trace`, `tests/scale.rs` and through it
//! `cargo xtask scale-check`. The figure it yields for a world run —
//! (`VmHWM` after − `VmRSS` before) ÷ P — is the first row of the
//! host-bytes ledger: everything a rank costs the host at the run's peak,
//! not yet split by structure.

/// Resident set size of this process, now and at its peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMem {
    /// `VmRSS`: bytes resident now.
    pub rss_bytes: u64,
    /// `VmHWM`: the most bytes ever resident (monotone over the process).
    pub peak_rss_bytes: u64,
}

impl HostMem {
    /// Read this process's figures; `None` where `/proc` is missing.
    pub fn read() -> Option<HostMem> {
        HostMem::parse(&std::fs::read_to_string("/proc/self/status").ok()?)
    }

    /// The two figures out of the text of a `/proc/<pid>/status`.
    fn parse(status: &str) -> Option<HostMem> {
        let kb = |key: &str| -> Option<u64> {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        };
        Some(HostMem { rss_bytes: kb("VmRSS:")? << 10, peak_rss_bytes: kb("VmHWM:")? << 10 })
    }

    /// Host bytes per rank of a `p`-rank world run that `before` was read
    /// ahead of and `self` after: what the run added to the process at
    /// its peak, over `p` (zero rather than a wrap if that is negative).
    pub fn bytes_per_rank_since(&self, before: &HostMem, p: usize) -> u64 {
        self.peak_rss_bytes.saturating_sub(before.rss_bytes) / p.max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_two_lines_of_a_status_file() {
        let status = "Name:\tpmm\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        let m = HostMem::parse(status).expect("both lines present");
        assert_eq!(m, HostMem { rss_bytes: 1 << 20, peak_rss_bytes: 2 << 20 });
        assert_eq!(HostMem::parse("Name:\tpmm\nVmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn bytes_per_rank_is_peak_after_minus_resident_before() {
        let before = HostMem { rss_bytes: 100 << 20, peak_rss_bytes: 120 << 20 };
        let after = HostMem { rss_bytes: 110 << 20, peak_rss_bytes: 356 << 20 };
        assert_eq!(after.bytes_per_rank_since(&before, 1024), 256 << 10);
        let low = HostMem { rss_bytes: 1, peak_rss_bytes: 1 };
        assert_eq!(low.bytes_per_rank_since(&after, 4), 0);
    }

    #[test]
    fn this_process_has_a_resident_set_where_proc_exists() {
        if let Some(m) = HostMem::read() {
            assert!(m.rss_bytes > 0 && m.peak_rss_bytes >= m.rss_bytes);
        }
    }
}

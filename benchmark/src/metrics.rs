//! The metric tables: names, units, direction and regression bounds. The
//! same lists, in the same order, are in `../BENCHMARK.json`; a test in
//! `main.rs` holds the two together.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `before` the value `after` is worse (negative
    /// when it is better).
    pub fn worsening(self, before: f64, after: f64) -> f64 {
        match self {
            Better::Lower => (after - before) / before,
            Better::Higher => (before - after) / before,
        }
    }
}

/// `(name, unit, direction, bound)`: every workload reports all eight
/// from the untraced pass. `bound` is the share of the parent's median by
/// which the metric may worsen.
///
/// The host-time bounds are the widest the contract allows: on the shared
/// reference VM the same binary drifts by up to 9 % between two sets of
/// ten runs and spreads by 5–16 % within one (README.md, "Baseline").
/// `pass_frac` and `bound_ratio` are exactly 1 on every run (the harness
/// exits nonzero otherwise); their bound is nominal.
pub const END_TO_END: [(&str, &str, Better, f64); 8] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("run_s", "s", Better::Lower, 0.25),
    ("ranks_per_s", "ranks/s", Better::Higher, 0.25),
    ("words_per_s", "words/s", Better::Higher, 0.25),
    ("gflops", "GFLOP/s", Better::Higher, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.10),
    ("pass_frac", "ratio", Better::Higher, 0.001),
    ("bound_ratio", "ratio", Better::Lower, 0.001),
];

/// `(name, unit, direction)`: the traced pass reports all of them on
/// every workload, 0 where a metric does not apply (ladder metrics on
/// `six_algs_small`, per-algorithm world times on the Alg 1 workloads).
pub const PER_LAYER: [(&str, &str, Better); 45] = [
    ("core.plan_us", "us", Better::Lower),
    ("model.predict_us", "us", Better::Lower),
    ("dense.gemm_s", "s", Better::Lower),
    ("dense.gemm_gflops", "GFLOP/s", Better::Higher),
    ("dense.gemm_share", "ratio", Better::Lower),
    ("dense.stream_gbps", "GB/s", Better::Higher),
    ("dense.ops_per_byte", "flop/byte", Better::Higher),
    ("dense.inputs_s", "s", Better::Lower),
    ("simnet.world_run_s", "s", Better::Lower),
    ("simnet.spawn_s", "s", Better::Lower),
    ("simnet.spawn_us_per_rank", "us/rank", Better::Lower),
    ("simnet.split_s", "s", Better::Lower),
    ("simnet.bytes_per_rank", "bytes/rank", Better::Lower),
    ("simnet.tracer_overhead_frac", "ratio", Better::Lower),
    ("simnet.msgs", "count", Better::Lower),
    ("simnet.words", "words", Better::Lower),
    ("simnet.madds", "count", Better::Lower),
    ("simnet.retry_words", "words", Better::Lower),
    ("simnet.crit_path_words", "words", Better::Lower),
    ("simnet.peak_mem_words", "words", Better::Lower),
    ("simnet.world_ms_free", "ms", Better::Lower),
    ("simnet.world_ms_p99", "ms", Better::Lower),
    ("simnet.world_ms_seeded", "ms", Better::Lower),
    ("collectives.gather_a_s", "s", Better::Lower),
    ("collectives.gather_b_s", "s", Better::Lower),
    ("collectives.reduce_c_s", "s", Better::Lower),
    ("collectives.ns_per_word", "ns/word", Better::Lower),
    ("collectives.words_gather_a", "words", Better::Lower),
    ("collectives.words_gather_b", "words", Better::Lower),
    ("collectives.words_reduce_c", "words", Better::Lower),
    ("algs.residual_s", "s", Better::Lower),
    ("algs.assemble_s", "s", Better::Lower),
    ("algs.world_ms.alg1", "ms", Better::Lower),
    ("algs.world_ms.streamed", "ms", Better::Lower),
    ("algs.world_ms.cannon", "ms", Better::Lower),
    ("algs.world_ms.summa", "ms", Better::Lower),
    ("algs.world_ms.twofived", "ms", Better::Lower),
    ("algs.world_ms.carma", "ms", Better::Lower),
    ("verify.eq3_s", "s", Better::Lower),
    ("verify.product_s", "s", Better::Lower),
    ("verify.checks", "count", Better::Higher),
    ("verify.fail_frac", "ratio", Better::Lower),
    ("trace.cover_frac", "ratio", Better::Higher),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("noise.iqr_frac", "ratio", Better::Lower),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

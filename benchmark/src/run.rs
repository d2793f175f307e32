//! One process, one workload: the untraced pass (end-to-end metrics) and
//! the traced pass (per-layer metrics, spans, the ladder).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::host;
use crate::ladder::{run_rung, RUNGS};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{iqr_frac, median, quantile};
use crate::workloads::{
    small_world, spec, Alg1Prepared, Checks, Counts, IterOutcome, SixPrepared, Spec, ALGS,
    SCHEDULE_SEED,
};

/// Set-ups per untraced run; `setup_s` is their median, so the cold
/// first one (fresh pages, 2–7× slower) does not decide it.
const SETUP_REPEATS: usize = 3;
/// Fewest timed iterations of an untraced run, however short `--seconds`.
const MIN_ITERATIONS: usize = 3;
/// Fewest passes over the ladder (each rung's time is a median).
const MIN_LADDER_PASSES: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Test hook: corrupt one element of the reference product after
    /// set-up, so every product check must fail.
    pub perturb_reference: bool,
}

/// What one run measured.
pub struct RunReport {
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Wall time of every timed iteration.
    pub run_samples: Vec<f64>,
    /// Traced pass: `trace.cover_frac` left [0.8, 1.2], so the ladder
    /// does not account for the run and the layer split is not a fact.
    pub unresolved: bool,
    /// Traced pass: the spans, for the Chrome trace file.
    pub spans: Spans,
}

/// A workload with its inputs and reference products in memory.
enum Prepared {
    Alg1(Alg1Prepared),
    Six(SixPrepared),
}

impl Prepared {
    fn new(spec: &Spec, seed: u64) -> Prepared {
        match spec {
            Spec::Alg1(s) => Prepared::Alg1(Alg1Prepared::new(s, seed)),
            Spec::SixAlgs(points) => Prepared::Six(SixPrepared::new(points, seed)),
        }
    }

    fn iterate(&self, spans: &mut Spans, iter: usize) -> IterOutcome {
        match self {
            Prepared::Alg1(p) => p.iterate(spans, iter),
            Prepared::Six(p) => p.iterate(spans, iter),
        }
    }

    fn perturb_reference(&mut self) {
        let reference = match self {
            Prepared::Alg1(p) => &mut p.reference,
            Prepared::Six(p) => &mut p.points[0].reference,
        };
        reference.as_mut_slice()[0] += 1.0;
    }

    fn inputs_s(&self) -> f64 {
        match self {
            Prepared::Alg1(p) => p.inputs_s,
            Prepared::Six(p) => p.inputs_s,
        }
    }
}

/// Set up once: inputs, reference products, one discarded warm-up
/// iteration (whose outcome the caller may still inspect).
fn set_up(spec: &Spec, args: &RunArgs, spans: &mut Spans) -> (Prepared, IterOutcome) {
    let mut prepared = Prepared::new(spec, args.seed);
    if args.perturb_reference {
        prepared.perturb_reference();
    }
    let warm_up = prepared.iterate(spans, 0);
    (prepared, warm_up)
}

/// Accumulates the per-iteration checks shared by both passes: the
/// iteration's own checks plus "its counts equal the warm-up's".
struct Tally {
    checks: Checks,
    bound_ratio: f64,
    baseline: Counts,
}

impl Tally {
    fn new(warm_up: &IterOutcome) -> Tally {
        Tally { checks: Checks::default(), bound_ratio: 0.0, baseline: warm_up.counts.clone() }
    }

    fn add(&mut self, outcome: &IterOutcome) {
        self.checks.merge(outcome.checks);
        self.checks.check(outcome.counts == self.baseline);
        self.bound_ratio = self.bound_ratio.max(outcome.bound_ratio);
    }
}

/// Run one workload once, untraced or traced. `Err` names a bad argument.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let spec =
        spec(&args.workload, args.smoke).ok_or(format!("unknown workload {:?}", args.workload))?;
    Ok(if args.trace { run_traced(&spec, args) } else { run_untraced(&spec, args) })
}

fn run_untraced(spec: &Spec, args: &RunArgs) -> RunReport {
    let mut spans = Spans::new(false);

    let mut setup_samples = Vec::with_capacity(SETUP_REPEATS);
    let mut current = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first: two live copies would double
        // the inputs' share of `peak_rss_mb`.
        drop(current.take());
        let t0 = Instant::now();
        current = Some(set_up(spec, args, &mut spans));
        setup_samples.push(t0.elapsed().as_secs_f64());
    }
    let (prepared, warm_up) = current.expect("SETUP_REPEATS >= 1");

    let mut tally = Tally::new(&warm_up);
    let mut run_samples = Vec::new();
    let clock = Instant::now();
    while run_samples.len() < MIN_ITERATIONS || clock.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let outcome = prepared.iterate(&mut spans, run_samples.len() + 1);
        run_samples.push(t0.elapsed().as_secs_f64());
        tally.add(&outcome);
    }

    let counts = &warm_up.counts;
    let run_s = median(&run_samples);
    let Checks { attempted, failed } = tally.checks;
    let values = [
        median(&setup_samples),
        run_s,
        counts.ranks as f64 / run_s,
        counts.words as f64 / run_s,
        2.0 * counts.madds / run_s / 1e9,
        host::peak_rss_bytes() as f64 / 1e6,
        (attempted - failed) as f64 / attempted as f64,
        tally.bound_ratio,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| Metric { name, value, unit })
        .collect();
    RunReport { metrics, checks: tally.checks, run_samples, unresolved: false, spans }
}

fn run_traced(spec: &Spec, args: &RunArgs) -> RunReport {
    let mut spans = Spans::new(true);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let (prepared, warm_up) = set_up(spec, args, &mut spans);
    let mut tally = Tally::new(&warm_up);
    let clock = Instant::now();
    let left = |share: f64| clock.elapsed().as_secs_f64() < share * args.seconds;

    // Real iterations, spans on and off in turn: the on ones feed the
    // per-layer table, the pair gives the harness's own overhead.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut worlds: Vec<(usize, f64)> = Vec::new();
    let iteration_share = if matches!(prepared, Prepared::Six(_)) { 0.8 } else { 0.3 };
    while on.len() < 3 || left(iteration_share) {
        let record = on.len() == off.len();
        spans.set_enabled(record);
        let t0 = Instant::now();
        let outcome = prepared.iterate(&mut spans, 1 + on.len() + off.len());
        (if record { &mut on } else { &mut off }).push(t0.elapsed().as_secs_f64());
        tally.add(&outcome);
        worlds.extend(outcome.worlds);
    }
    spans.set_enabled(true);

    let counts = &warm_up.counts;
    let us = |name: &str| median(&spans.durations(name)) * 1e6;
    m.insert("core.plan_us", us("core.plan"));
    m.insert("dense.inputs_s", prepared.inputs_s());
    m.insert("dense.stream_gbps", stream_gbps());
    m.insert("simnet.msgs", counts.msgs as f64);
    m.insert("simnet.words", counts.words as f64);
    m.insert("simnet.madds", counts.madds);
    m.insert("simnet.retry_words", counts.retry_words as f64);
    m.insert("simnet.crit_path_words", counts.crit_path_words);
    m.insert("simnet.peak_mem_words", counts.peak_mem_words as f64);
    m.insert("collectives.words_gather_a", counts.phase_words[0] as f64);
    m.insert("collectives.words_gather_b", counts.phase_words[1] as f64);
    m.insert("collectives.words_reduce_c", counts.phase_words[2] as f64);
    m.insert("algs.assemble_s", median(&spans.per_iteration("algs.assemble")));
    m.insert("verify.product_s", median(&spans.per_iteration("verify.product")));
    m.insert("trace.overhead_frac", median(&on) / median(&off) - 1.0);
    m.insert("noise.iqr_frac", iqr_frac(&on));

    let mut unresolved = false;
    match &prepared {
        Prepared::Alg1(prep) => {
            m.insert("model.predict_us", us("model.predict"));
            m.insert("verify.eq3_s", median(&spans.durations("verify.eq3")));
            if let Some((before, after)) = warm_up.rss_around_world {
                let grown = after.saturating_sub(before) as f64;
                m.insert("simnet.bytes_per_rank", grown / prep.spec.p() as f64);
            }

            // The ladder, on the same world configuration and P. Every
            // pass ends with the real run, tracer off and on, so the runs
            // the rungs are compared with see the same host state.
            let mut rung_s = vec![Vec::new(); RUNGS];
            let mut tracer_on_s = Vec::new();
            let mut passes = 0;
            while passes < MIN_LADDER_PASSES || left(0.9) {
                passes += 1;
                for (rung, samples) in rung_s.iter_mut().enumerate() {
                    let (out, secs) = spans
                        .scope(&format!("ladder.rung{rung}"), passes, |_| run_rung(prep, rung));
                    samples.push(secs);
                    if rung == RUNGS - 1 {
                        // Rung 5 is Algorithm 1 again: same meters, same
                        // memory peaks, same clocks, on every rank.
                        let same = out.reports.len() == warm_up.ledger.len()
                            && out
                                .reports
                                .iter()
                                .zip(&warm_up.ledger)
                                .all(|(r, want)| (r.meter, r.peak_mem_words, r.time) == *want);
                        tally.checks.check(same);
                    }
                    black_box(out);
                }
                black_box(spans.scope("simnet.world_run", passes, |_| prep.run_world(false)));
                // The simulator's own structured tracer.
                let (out, secs) =
                    spans.scope("simnet.world_run.tracer_on", passes, |_| prep.run_world(true));
                tracer_on_s.push(secs);
                black_box(out);
            }
            let world_run_s = median(&spans.durations("simnet.world_run"));
            m.insert("simnet.world_run_s", world_run_s);
            m.insert("simnet.tracer_overhead_frac", median(&tracer_on_s) / world_run_s - 1.0);
            let rung: Vec<f64> = rung_s.iter().map(|s| median(s)).collect();
            let p = prep.spec.p() as f64;
            let [gather_a, gather_b, gemm_s, reduce_c] =
                [rung[2] - rung[1], rung[3] - rung[2], rung[4] - rung[3], rung[5] - rung[4]];
            m.insert("simnet.spawn_s", rung[0]);
            m.insert("simnet.spawn_us_per_rank", rung[0] * 1e6 / p);
            m.insert("simnet.split_s", rung[1] - rung[0]);
            m.insert("collectives.gather_a_s", gather_a);
            m.insert("collectives.gather_b_s", gather_b);
            m.insert("dense.gemm_s", gemm_s);
            m.insert("collectives.reduce_c_s", reduce_c);
            let moved: u64 = counts.phase_words.iter().sum();
            m.insert(
                "collectives.ns_per_word",
                (gather_a + gather_b + reduce_c) * 1e9 / moved as f64,
            );
            m.insert("dense.gemm_gflops", 2.0 * counts.madds / gemm_s / 1e9);
            m.insert("dense.gemm_share", gemm_s / world_run_s);
            // Computed, not measured: each rank's multiply reads its A and
            // B blocks and writes its C block once.
            let d = prep.spec.dims;
            let [p1, p2, p3] = prep.spec.grid.map(|x| x as f64);
            let (h1, h2, h3) = (d.n1 as f64 / p1, d.n2 as f64 / p2, d.n3 as f64 / p3);
            m.insert(
                "dense.ops_per_byte",
                2.0 * h1 * h2 * h3 / (8.0 * (h1 * h2 + h2 * h3 + h1 * h3)),
            );
            m.insert("algs.residual_s", world_run_s - rung[5]);
            let cover = rung[5] / world_run_s;
            m.insert("trace.cover_frac", cover);
            unresolved = !(0.8..=1.2).contains(&cover);
        }
        Prepared::Six(prep) => {
            // A sweep's share spent inside `World::run`, all 36 worlds.
            m.insert(
                "simnet.world_run_s",
                worlds.iter().map(|w| w.1).sum::<f64>() / (on.len() + off.len()) as f64,
            );
            let ms: Vec<f64> = worlds.iter().map(|w| w.1 * 1e3).collect();
            m.insert("simnet.world_ms_free", median(&ms));
            m.insert("simnet.world_ms_p99", quantile(&ms, 0.99));
            for (alg, name) in ALGS.iter().enumerate() {
                let ms: Vec<f64> =
                    worlds.iter().filter(|w| w.0 == alg).map(|w| w.1 * 1e3).collect();
                let key = PER_LAYER
                    .iter()
                    .map(|e| e.0)
                    .find(|k| k.strip_prefix("algs.world_ms.") == Some(name))
                    .expect("every algorithm has a world_ms metric");
                m.insert(key, median(&ms));
            }

            // Rung 0 of this workload: the same 36 worlds, empty programs.
            let mut spawn = Vec::new();
            while spawn.len() < MIN_LADDER_PASSES || left(0.9) {
                let (_, secs) = spans.scope("ladder.rung0", spawn.len() + 1, |_| {
                    for pt in &prep.points {
                        for _ in 0..ALGS.len() {
                            black_box(small_world(pt.p).run(|_| ()));
                        }
                    }
                });
                spawn.push(secs);
            }
            m.insert("simnet.spawn_s", median(&spawn));
            m.insert(
                "simnet.spawn_us_per_rank",
                median(&spawn) * 1e6 / prep.ranks_per_sweep() as f64,
            );

            // Algorithm 1 on a *seeded* sync world (the deterministic
            // thread scheduler) at every P = 64 point: reported only, it
            // is sys-time dominated and swings with host load.
            let seeded: Vec<f64> = prep
                .points
                .iter()
                .filter(|pt| pt.p == 64)
                .map(|pt| {
                    let world = small_world(pt.p).with_seed(SCHEDULE_SEED);
                    let program = pt.alg1_program();
                    spans.scope("simnet.world_run.seeded", 1, |_| black_box(world.run(program))).1
                        * 1e3
                })
                .collect();
            if !seeded.is_empty() {
                m.insert("simnet.world_ms_seeded", median(&seeded));
            }
        }
    }

    let Checks { attempted, failed } = tally.checks;
    m.insert("verify.checks", attempted as f64);
    m.insert("verify.fail_frac", failed as f64 / attempted as f64);

    debug_assert!(
        m.keys().all(|k| PER_LAYER.iter().any(|e| e.0 == *k)),
        "a measured name is missing from PER_LAYER"
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric { name, value: m.get(name).copied().unwrap_or(0.0), unit })
        .collect();
    RunReport { metrics, checks: tally.checks, run_samples: on, unresolved, spans }
}

/// Sustained memory bandwidth of one core: a triad `a = b + s·c` over
/// three 64 MiB arrays (16× the 4 MiB L2; the reference VM's shared
/// 260 MiB L3 is larger, so this is no DRAM figure — README.md).
fn stream_gbps() -> f64 {
    const WORDS: usize = 8 << 20;
    let b = vec![1.0f64; WORDS];
    let c = vec![2.0f64; WORDS];
    let mut a = vec![0.0f64; WORDS];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + 3.0 * *z;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (3 * WORDS * 8) as f64 / best / 1e9
}

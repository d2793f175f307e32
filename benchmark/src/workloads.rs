//! The four workloads: what runs per iteration, on which world, and how
//! every output is checked. See README.md for why each one exists.

use std::sync::Arc;
use std::time::Instant;

use crate::api::*;
use crate::host;
use crate::spans::Spans;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] =
    ["alg1_scale_3d", "alg1_gemm_1d", "alg1_words_2d", "six_algs_small"];

/// The six algorithms of a `six_algs_small` sweep, in execution order
/// (the suffixes of the `algs.world_ms.*` metrics).
pub const ALGS: [&str; 6] = ["alg1", "streamed", "cannon", "summa", "twofived", "carma"];

/// How an Algorithm 1 workload configures its world.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorldKind {
    /// The documented at-scale configuration of `tests/scale.rs`:
    /// schedule recording off, targeted wakeup on.
    AtScale,
    /// What `pmm simulate` builds: a seeded world, every default on
    /// (schedule recording, vector-clock audit).
    Seeded,
}

/// The schedule seed of every seeded world. Pinned, not taken from
/// `--seed`: the interleaving decides how many ranks hold their gathered
/// blocks at once, and with it host memory (`alg1_gemm_1d` peaked between
/// 300 and 374 MB across schedule seeds 1–10) and host time — variance
/// that would say nothing about the code. `--seed` makes the inputs.
pub const SCHEDULE_SEED: u64 = 0x5eed;

/// One Algorithm 1 workload: a pinned integral §5.2 grid.
#[derive(Clone, Debug)]
pub struct Alg1Spec {
    pub dims: MatMulDims,
    pub grid: [usize; 3],
    pub kernel: Kernel,
    pub world: WorldKind,
}

impl Alg1Spec {
    pub fn p(&self) -> usize {
        self.grid.iter().product()
    }
}

/// What a workload name stands for.
pub enum Spec {
    Alg1(Alg1Spec),
    /// `(dims, P)` points; every point runs all six algorithms.
    SixAlgs(Vec<(MatMulDims, usize)>),
}

/// The workload `name` at full or `--smoke` size (smoke: `P <= 64`).
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let alg1 = |d: [u64; 3], grid, kernel, world| {
        Some(Spec::Alg1(Alg1Spec { dims: MatMulDims::new(d[0], d[1], d[2]), grid, kernel, world }))
    };
    match (name, smoke) {
        ("alg1_scale_3d", false) => {
            alg1([500, 500, 500], [25, 25, 25], Kernel::Naive, WorldKind::AtScale)
        }
        ("alg1_scale_3d", true) => alg1([40, 40, 40], [4, 4, 4], Kernel::Naive, WorldKind::AtScale),
        ("alg1_gemm_1d", false) => {
            alg1([8192, 768, 768], [8, 1, 1], Kernel::Blocked, WorldKind::Seeded)
        }
        ("alg1_gemm_1d", true) => {
            alg1([512, 48, 48], [8, 1, 1], Kernel::Blocked, WorldKind::Seeded)
        }
        ("alg1_words_2d", false) => {
            alg1([4096, 4096, 64], [32, 32, 1], Kernel::Blocked, WorldKind::Seeded)
        }
        ("alg1_words_2d", true) => {
            alg1([256, 256, 8], [8, 8, 1], Kernel::Blocked, WorldKind::Seeded)
        }
        ("six_algs_small", false) => Some(Spec::SixAlgs(
            [
                ([96, 24, 12], 4),
                ([96, 24, 12], 16),
                ([96, 24, 12], 64),
                ([32, 16, 8], 64),
                ([64, 64, 64], 16),
                ([64, 64, 64], 64),
            ]
            .map(|(d, p): ([u64; 3], usize)| (MatMulDims::new(d[0], d[1], d[2]), p))
            .to_vec(),
        )),
        ("six_algs_small", true) => Some(Spec::SixAlgs(vec![
            (MatMulDims::new(96, 24, 12), 4),
            (MatMulDims::new(32, 16, 8), 64),
            (MatMulDims::new(64, 64, 64), 16),
        ])),
        _ => None,
    }
}

/// Counts of one iteration. Every field is a property of the simulated
/// machine, so it repeats exactly across iterations, seeds, and commits
/// that only change host time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Simulated ranks executed.
    pub ranks: u64,
    /// Σ `meter.msgs_sent`.
    pub msgs: u64,
    /// Σ `meter.words_sent`.
    pub words: u64,
    /// Σ `meter.flops` (scalar multiply-adds; integral, so exact in f64).
    pub madds: f64,
    /// Σ retry overhead words (zero: no workload injects faults).
    pub retry_words: u64,
    /// Σ over worlds of the critical-path clock (words, bandwidth-only).
    pub crit_path_words: f64,
    /// Max over ranks and worlds of the memory high-water mark.
    pub peak_mem_words: u64,
    /// Σ `words_sent` per Algorithm 1 phase (all-gather A, all-gather B,
    /// reduce-scatter C), from `Alg1Output.phases` of plain `alg1` runs.
    pub phase_words: [u64; 3],
}

impl Counts {
    fn add_world<T>(&mut self, out: &WorldResult<T>) {
        self.ranks += out.reports.len() as u64;
        for r in &out.reports {
            self.msgs += r.meter.msgs_sent;
            self.words += r.meter.words_sent;
            self.madds += r.meter.flops;
            self.retry_words += r.meter.retry_words_sent + r.meter.retry_words_recv;
            self.peak_mem_words = self.peak_mem_words.max(r.peak_mem_words);
        }
        self.crit_path_words += out.critical_path_time();
    }
}

/// Checks attempted and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Per-rank accounting of one world run, for the ladder's rung-5 check.
pub type RankLedger = Vec<(Meter, u64, f64)>;

fn ledger<T>(out: &WorldResult<T>) -> RankLedger {
    out.reports.iter().map(|r| (r.meter, r.peak_mem_words, r.time)).collect()
}

/// What one iteration produced.
#[derive(Default)]
pub struct IterOutcome {
    pub counts: Counts,
    pub checks: Checks,
    /// Max over Algorithm 1 runs of critical-path words ÷ Theorem 3 bound.
    pub bound_ratio: f64,
    /// `(index into ALGS, seconds)` of every world run, in order.
    pub worlds: Vec<(usize, f64)>,
    /// Per-rank ledger of the Algorithm 1 run; kept only while spans are
    /// recorded (Alg 1 workloads only).
    pub ledger: RankLedger,
    /// `(VmRSS before, VmHWM after)` the world run, bytes; read only
    /// while spans are recorded (Alg 1 workloads only).
    pub rss_around_world: Option<(u64, u64)>,
}

/// Word counts are integers below 2^53; the closed forms they are held
/// to come out of floating-point formulas, so "equal" is to within a
/// billionth — far less than one word at these sizes.
fn same_to_the_word(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

/// Critical-path words over the Theorem 3 bound: exactly 1 when the two
/// agree to the word.
fn bound_ratio(crit_path: f64, bound: f64) -> f64 {
    if same_to_the_word(crit_path, bound) {
        1.0
    } else {
        crit_path / bound
    }
}

/// The integer inputs `A` (`n1 × n2`) and `B` (`n2 × n3`) made from
/// `seed`, shared by `Arc`, and the seconds generating them took.
fn generate_inputs(dims: MatMulDims, seed: u64) -> (Arc<Matrix>, Arc<Matrix>, f64) {
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    let t0 = Instant::now();
    let a = Arc::new(random_int_matrix(n1, n2, -3..4, seed));
    let b = Arc::new(random_int_matrix(n2, n3, -3..4, seed ^ 0x9e37_79b9_7f4a_7c15));
    (a, b, t0.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------
// Algorithm 1 workloads
// ---------------------------------------------------------------------

/// Inputs and reference product of an Algorithm 1 workload.
pub struct Alg1Prepared {
    pub spec: Alg1Spec,
    pub a: Arc<Matrix>,
    pub b: Arc<Matrix>,
    pub reference: Matrix,
    /// Seconds spent generating `a` and `b` (`dense.inputs_s`).
    pub inputs_s: f64,
}

/// The world of an Algorithm 1 workload (real runs and ladder rungs).
pub fn alg1_world(spec: &Alg1Spec, tracer: bool) -> World {
    let world = World::new(spec.p(), MachineParams::BANDWIDTH_ONLY);
    let world = match spec.world {
        WorldKind::AtScale => world.with_schedule_recording(false).with_targeted_wakeup(true),
        WorldKind::Seeded => world.with_seed(SCHEDULE_SEED),
    };
    world.with_trace(tracer)
}

impl Alg1Prepared {
    /// Generate the integer inputs from `seed` and compute the reference
    /// product with the kernel the run does *not* use.
    pub fn new(spec: &Alg1Spec, seed: u64) -> Alg1Prepared {
        let (a, b, inputs_s) = generate_inputs(spec.dims, seed);
        let oracle = if spec.kernel == Kernel::Naive { Kernel::Blocked } else { Kernel::Naive };
        let reference = gemm(&a, &b, oracle);
        Alg1Prepared { spec: spec.clone(), a, b, reference, inputs_s }
    }

    pub fn config(&self) -> Alg1Config {
        Alg1Config {
            dims: self.spec.dims,
            grid: Grid3::from_dims(self.spec.grid),
            kernel: self.spec.kernel,
            assembly: Assembly::ReduceScatter,
        }
    }

    /// Run Algorithm 1 once on this workload's world.
    pub fn run_world(&self, tracer: bool) -> WorldResult<Alg1Output> {
        let cfg = self.config();
        alg1_world(&self.spec, tracer).run_async(|rank| {
            let cfg = cfg.clone();
            let (a, b) = (self.a.clone(), self.b.clone());
            Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
        })
    }

    /// One iteration: plan → predict → run → assemble → verify. Its wall
    /// time is the time to a *verified* product.
    pub fn iterate(&self, spans: &mut Spans, iter: usize) -> IterOutcome {
        let dims = self.spec.dims;
        let p = self.spec.p();
        let mut checks = Checks::default();
        let ((bound, choice), _) =
            spans.scope("core.plan", iter, |_| (lower_bound(dims, p as f64), best_grid(dims, p)));
        checks.check(choice.grid == self.spec.grid);
        let (pred, _) =
            spans.scope("model.predict", iter, |_| alg1_prediction(dims, self.spec.grid));

        let rss_before = spans.enabled().then(host::rss_bytes);
        let (out, world_s) = spans.scope("simnet.world_run", iter, |_| self.run_world(false));
        let rss_around_world = rss_before.map(|before| (before, host::peak_rss_bytes()));

        let mut counts = Counts::default();
        counts.add_world(&out);
        let crit_path = out.critical_path_time();
        let ledger = if spans.enabled() { ledger(&out) } else { RankLedger::new() };
        let (chunks, phases): (Vec<Vec<f64>>, Vec<_>) =
            out.values.into_iter().map(|v| (v.c_chunk, v.phases)).unzip();

        let (c, _) = spans.scope("algs.assemble", iter, |_| {
            assemble_c(dims, Grid3::from_dims(self.spec.grid), &chunks)
        });
        let (product_ok, _) = spans.scope("verify.product", iter, |_| c == self.reference);
        checks.check(product_ok);

        spans.scope("verify.eq3", iter, |_| {
            // Eq. (3) per rank and per phase: exact, because every fiber
            // chunk of these grids is even.
            for rank_phases in &phases {
                for (phase, want) in rank_phases.iter().zip(pred.phases()) {
                    checks.check(same_to_the_word(phase.meter.duplex_words() as f64, want));
                }
            }
            for (i, want) in pred.phases().iter().enumerate() {
                let sent: u64 = phases.iter().map(|ph| ph[i].meter.words_sent).sum();
                let recv: u64 = phases.iter().map(|ph| ph[i].meter.words_recv).sum();
                counts.phase_words[i] = sent;
                checks.check(sent == recv && same_to_the_word(recv as f64, p as f64 * want));
            }
            checks.check(same_to_the_word(crit_path, pred.total()));
            // Tightness: on the integral §5.2 grid the run moves exactly
            // the Theorem 3 words.
            checks.check(same_to_the_word(crit_path, bound.bound));
        });

        IterOutcome {
            counts,
            checks,
            bound_ratio: bound_ratio(crit_path, bound.bound),
            worlds: vec![(0, world_s)],
            ledger,
            rss_around_world,
        }
    }
}

// ---------------------------------------------------------------------
// six_algs_small
// ---------------------------------------------------------------------

/// One `(dims, P)` point of the sweep with its inputs and reference.
pub struct SixPoint {
    pub dims: MatMulDims,
    pub p: usize,
    pub a: Arc<Matrix>,
    pub b: Arc<Matrix>,
    pub reference: Matrix,
    /// Whether Algorithm 1 attains the Theorem 3 bound exactly here: the
    /// §5.2 grid divides the dimensions and its eq. (3) cost equals the
    /// bound (`bound_ratio` is taken over these points).
    pub tight: bool,
}

/// Inputs and references of every point of the sweep.
pub struct SixPrepared {
    pub points: Vec<SixPoint>,
    pub inputs_s: f64,
}

/// The unseeded free-running world of the README quick start. Never
/// built at `P >= 1024`: with default knobs that configuration was
/// OOM-killed at 16 GB while this benchmark was sized.
pub fn small_world(p: usize) -> World {
    assert!(p < 1024, "six_algs_small builds default-knob worlds only below P = 1024");
    World::new(p, MachineParams::BANDWIDTH_ONLY)
}

fn isqrt(p: usize) -> usize {
    let q = (p as f64).sqrt().round() as usize;
    assert_eq!(q * q, p, "six_algs_small points use square P");
    q
}

/// 2.5D layout with `c·q² = P` and the largest replication `c | q`.
fn twofived_layout(p: usize) -> (usize, usize) {
    (1..=p)
        .flat_map(|q| (1..=q).map(move |c| (q, c)))
        .filter(|&(q, c)| c * q * q == p && q % c == 0)
        .max_by_key(|&(_, c)| c)
        .expect("c = 1, q = sqrt(P) is always a layout for square P")
}

impl SixPoint {
    /// The §5.2 grid Algorithm 1 runs on at this point.
    fn grid(&self) -> Grid3 {
        best_grid(self.dims, self.p).grid3()
    }

    /// Plain Algorithm 1 at this point, as a sync rank program.
    pub fn alg1_program(&self) -> impl Fn(&mut Rank) -> Alg1Output + Send + Sync {
        let cfg = Alg1Config {
            dims: self.dims,
            grid: self.grid(),
            kernel: Kernel::Naive,
            assembly: Assembly::ReduceScatter,
        };
        let (a, b) = (self.a.clone(), self.b.clone());
        move |rank| alg1(rank, &cfg, &a, &b)
    }
}

impl SixPrepared {
    pub fn new(points: &[(MatMulDims, usize)], seed: u64) -> SixPrepared {
        let mut inputs_s = 0.0;
        let points = points
            .iter()
            .enumerate()
            .map(|(i, &(dims, p))| {
                let (a, b, secs) = generate_inputs(dims, seed.wrapping_add(i as u64));
                inputs_s += secs;
                let reference = gemm(&a, &b, Kernel::Blocked);
                let choice = best_grid(dims, p);
                let tight = best_divisible_grid(dims, p).is_some_and(|d| d.grid == choice.grid)
                    && same_to_the_word(choice.cost_words, lower_bound(dims, p as f64).bound);
                SixPoint { dims, p, a, b, reference, tight }
            })
            .collect();
        SixPrepared { points, inputs_s }
    }

    /// Ranks one sweep executes (every point runs six worlds).
    pub fn ranks_per_sweep(&self) -> u64 {
        self.points.iter().map(|pt| 6 * pt.p as u64).sum()
    }

    /// One sweep: every algorithm at every point on an unseeded sync
    /// world, each product assembled and compared with the reference.
    pub fn iterate(&self, spans: &mut Spans, iter: usize) -> IterOutcome {
        let mut o = IterOutcome { bound_ratio: 0.0, ..IterOutcome::default() };
        for pt in &self.points {
            for (alg, name) in ALGS.iter().enumerate() {
                let (ok, _) = spans.scope(&format!("algs.point.{name}"), iter, |spans| {
                    run_small(pt, alg, spans, iter, &mut o)
                });
                o.checks.check(ok);
            }
        }
        o
    }
}

/// The distributed output of one small world, ready to assemble.
enum Parts {
    /// Alg 1 chunks on a grid (`assemble_c`).
    Chunks(Grid3, Vec<Vec<f64>>),
    /// The `q × q` C blocks of ranks `0..q²` (`assemble_from_blocks`).
    Blocks(usize, Vec<Option<Matrix>>),
    /// CARMA shares (`carma_assemble_c`).
    Shares(Vec<Vec<f64>>),
}

/// Run algorithm `alg` at point `pt`; returns whether its assembled
/// product equals the reference bit for bit.
fn run_small(
    pt: &SixPoint,
    alg: usize,
    spans: &mut Spans,
    iter: usize,
    o: &mut IterOutcome,
) -> bool {
    let SixPoint { dims, p, .. } = *pt;
    let (a, b) = (pt.a.clone(), pt.b.clone());
    let kernel = Kernel::Naive;
    let world = small_world(p);
    let span = format!("simnet.world_run.{}", ALGS[alg]);
    // Run the world (timed) and account it.
    macro_rules! timed_world {
        ($program:expr) => {{
            let (out, secs) = spans.scope(&span, iter, |_| world.run($program));
            o.counts.add_world(&out);
            o.worlds.push((alg, secs));
            out
        }};
    }
    let parts = match alg {
        0 => {
            let grid = spans.scope("core.plan", iter, |_| pt.grid()).0;
            let out = timed_world!(pt.alg1_program());
            for v in &out.values {
                for (i, ph) in v.phases.iter().enumerate() {
                    o.counts.phase_words[i] += ph.meter.words_sent;
                }
            }
            if pt.tight {
                let bound = lower_bound(dims, p as f64).bound;
                let crit_path = out.critical_path_time();
                o.checks.check(same_to_the_word(crit_path, bound));
                o.bound_ratio = o.bound_ratio.max(bound_ratio(crit_path, bound));
            }
            Parts::Chunks(grid, out.values.into_iter().map(|v| v.c_chunk).collect())
        }
        1 => {
            let grid = spans.scope("core.plan", iter, |_| pt.grid()).0;
            let out = timed_world!(move |rank: &mut Rank| alg1_streamed(
                rank, dims, grid, 2, kernel, &a, &b
            ));
            Parts::Chunks(grid, out.values.into_iter().map(|v| v.c_chunk).collect())
        }
        2 => {
            let cfg = CannonConfig { dims, q: isqrt(p), kernel };
            let out = timed_world!(move |rank: &mut Rank| cannon(rank, &cfg, &a, &b));
            Parts::Blocks(isqrt(p), out.values.into_iter().map(|v| Some(v.c_block)).collect())
        }
        3 => {
            let cfg = SummaConfig { dims, pr: isqrt(p), pc: isqrt(p), kernel };
            let out = timed_world!(move |rank: &mut Rank| summa(rank, &cfg, &a, &b));
            Parts::Blocks(isqrt(p), out.values.into_iter().map(|v| Some(v.c_block)).collect())
        }
        4 => {
            let (q, c) = twofived_layout(p);
            let cfg = TwoFiveDConfig { dims, q, c, kernel };
            let out = timed_world!(move |rank: &mut Rank| twofived(rank, &cfg, &a, &b));
            // Layer 0 (the first q² ranks) holds the summed C blocks.
            Parts::Blocks(q, out.values.into_iter().map(|v| v.c_block).collect())
        }
        _ => {
            let out = timed_world!(move |rank: &mut Rank| {
                let comm = rank.world_comm();
                let (sa, sb) = carma_shares(p, comm.index(), &a, &b);
                carma(rank, &comm, dims, kernel, sa, sb)
            });
            Parts::Shares(out.values)
        }
    };
    let (c, _) = spans.scope("algs.assemble", iter, |_| match parts {
        Parts::Chunks(grid, chunks) => assemble_c(dims, grid, &chunks),
        Parts::Blocks(q, mut blocks) => {
            assemble_from_blocks(dims.n1 as usize, dims.n3 as usize, q, q, |i, j| {
                blocks[i * q + j].take().expect("each C block is placed once")
            })
        }
        Parts::Shares(shares) => carma_assemble_c(dims, p, &shares),
    });
    spans.scope("verify.product", iter, |_| c == pt.reference).0
}

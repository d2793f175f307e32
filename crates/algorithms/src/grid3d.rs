//! **Algorithm 1** — communication-optimal parallel matrix multiplication
//! on a `p1 × p2 × p3` logical processor grid (§5 of the paper).
//!
//! ```text
//! 1:  (p1', p2', p3') is my processor ID
//! 2:  // Gather input matrix data
//! 3:  A_{p1'p2'} = All-Gather(A_{p1'p2'p3'}, (p1', p2', :))
//! 4:  B_{p2'p3'} = All-Gather(B_{p1'p2'p3'}, (:, p2', p3'))
//! 5:  // Perform local computation
//! 6:  D_{p1'p2'p3'} = A_{p1'p2'} · B_{p2'p3'}
//! 7:  // Sum results to compute C_{p1'p3'}
//! 8:  C_{p1'p2'p3'} = Reduce-Scatter(D_{p1'p2'p3'}, (p1', :, p3'))
//! ```
//!
//! Initial distribution (§5): block `A_{p1'p2'}` of the `p1 × p2` block
//! partition of `A` is spread evenly (contiguous runs of its row-major
//! elements) over the `p3` processors of fiber `(p1', p2', :)`; likewise
//! `B_{p2'p3'}` over `(:, p2', p3')`. On output, `C_{p1'p3'}` is spread
//! evenly over `(p1', :, p3')`.
//!
//! **Operands read in place.** A fiber with one member gathers nothing:
//! its all-gather moves zero words and hands back the one chunk, which is
//! the whole block. On every 1D and 2D grid of §5.2 that is `A`'s fiber
//! (`p3 = 1`, so eq. (3)'s `A` term is zero); `B`'s is one member when
//! `p1 = 1`. There the rank multiplies the block where it lies in the
//! global input ([`Block2::view`], a strided GEMM operand) instead of
//! copying it out, and still enters the degenerate all-gather with the
//! block's word count, so every meter, clock, trace and schedule is the
//! one the gather produces. The choice is read off the fiber's size —
//! nothing selects it.
//!
//! With bandwidth-optimal collectives, the per-processor cost is exactly
//! eq. (3):
//!
//! ```text
//! (1 − 1/p3)·n1n2/(p1p2) + (1 − 1/p1)·n2n3/(p2p3) + (1 − 1/p2)·n1n3/(p1p3)
//! ```
//!
//! and with the §5.2 optimal grid this *equals* the Theorem 3 bound.
//!
//! **One body, `t` slabs.** Lines 3–6 run once per slab of the contracted
//! dimension (`A`-columns / `B`-rows of the blocks), accumulating into
//! `D`; line 8 runs once. [`alg1_on_a`] with one slab is the algorithm
//! above; with `t` it is the §6.2 streamed variant
//! ([`alg1_streamed`](crate::streamed::alg1_streamed)), with the same
//! words and `t×` the gather messages.

use std::future::Future;

use pmm_collectives::{reduce_scatter_a, ReduceScatterAlgo};

use pmm_dense::{block_range, chunk_of_block, gemm_acc, Block2, Kernel, Matrix};
use pmm_model::{alg1_price, AlgPlan, Grid3, MatMulDims, Traffic};
use pmm_simnet::{poll_now, CollectiveOp, Comm, Meter, Rank};

use crate::common::{assert_inputs_match, fiber_comms_on_a, gather_block, PhaseMeter, PhaseProbe};

/// How the partial products `D` are combined into `C` (line 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Assembly {
    /// Reduce-Scatter (the paper's Algorithm 1): bandwidth-optimal and
    /// latency `O(log p2)`.
    #[default]
    ReduceScatter,
    /// All-to-All followed by local summation (Agarwal et al. 1995 style):
    /// same bandwidth, `p2 − 1` latency, and `p2×` more temporary memory.
    /// Kept as an ablation of the design choice §5.1 calls out.
    AllToAllSum,
}

/// Configuration of one Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct Alg1Config {
    /// Problem dimensions.
    pub dims: MatMulDims,
    /// Logical processor grid (its size must equal the world size).
    pub grid: Grid3,
    /// Local compute kernel.
    pub kernel: Kernel,
    /// Output assembly strategy.
    pub assembly: Assembly,
}

impl Alg1Config {
    /// Convenience constructor with the default kernel and assembly.
    pub fn new(dims: MatMulDims, grid: Grid3) -> Alg1Config {
        Alg1Config { dims, grid, kernel: Kernel::default(), assembly: Assembly::default() }
    }
}

/// Per-rank result of [`alg1`].
#[derive(Debug, Clone, PartialEq)]
pub struct Alg1Output {
    /// This rank's chunk of `C_{p1'p3'}` (a contiguous run of the block's
    /// row-major elements; chunk index = `p2'`).
    pub c_chunk: Vec<f64>,
    /// Traffic per phase: `[All-Gather A, All-Gather B, assemble C]`, the
    /// two gathers summed over the slabs of a streamed run.
    pub phases: [PhaseMeter; 3],
}

/// The labels of Algorithm 1's three phases, in [`Alg1Output::phases`]
/// order: the phase scopes a traced run records.
pub const ALG1_PHASES: [&str; 3] = ["all-gather A", "all-gather B", "reduce-scatter C"];

impl Alg1Output {
    /// Each phase's metered goodput, in [`Alg1Output::phases`] order: what
    /// [`alg1_price`] prices.
    pub fn traffic(&self) -> [Traffic; 3] {
        self.phases.each_ref().map(|phase| phase.meter.traffic())
    }
}

/// Hold an Algorithm 1 run of `plan` (plain or streamed) to its integer
/// price, rank by rank and phase by phase, on any layout. `outputs`
/// yields each rank's output in its index order in the communicator the
/// plan ran on. The error names the first rank and phase whose words
/// sent, words received or messages differ from [`alg1_price`].
///
/// Given the run's `critical_path`, a plain run on which every rank pays
/// the same price is also held to it: its phases run in lockstep, so the
/// critical path is that price's duplex words. (The critical path of a
/// ragged layout is not priced.)
///
/// Panics if `plan` is not an Algorithm 1 plan.
pub fn check_alg1_price<'a>(
    dims: MatMulDims,
    plan: &AlgPlan,
    outputs: impl IntoIterator<Item = &'a Alg1Output>,
    critical_path: Option<f64>,
) -> Result<(), String> {
    let (grid, slabs) = match *plan {
        AlgPlan::Alg1 { grid } => (grid, 1),
        AlgPlan::Alg1Streamed { grid, slabs } => (grid, slabs),
        _ => panic!("{plan} is not an Algorithm 1 plan"),
    };
    let price = |rank| alg1_price(dims, grid, slabs, rank);
    for (rank, out) in outputs.into_iter().enumerate() {
        for ((phase, metered), price) in out.phases.iter().zip(out.traffic()).zip(price(rank)) {
            if metered != price {
                let label = phase.label;
                return Err(format!(
                    "rank {rank} phase '{label}': metered {metered:?}, priced {price:?}"
                ));
            }
        }
    }
    let plain = matches!(plan, AlgPlan::Alg1 { .. });
    if let Some(path) = critical_path.filter(|_| plain) {
        if (1..plan.active()).all(|r| price(r) == price(0)) {
            let words: u64 = price(0).iter().map(Traffic::duplex).sum();
            if path != words as f64 {
                return Err(format!("critical path {path}, priced {words} on every rank"));
            }
        }
    }
    Ok(())
}

/// Extract the chunk of `A` owned initially by the processor at `coord`:
/// the `p3`-way even split (by `coord[2]`) of block `A_{coord0, coord1}`.
pub fn owned_a_chunk(dims: MatMulDims, grid: Grid3, coord: [usize; 3], a: &Matrix) -> Vec<f64> {
    assert_eq!((a.rows() as u64, a.cols() as u64), (dims.n1, dims.n2), "A disagrees with dims");
    let [p1, p2, p3] = grid.dims();
    Block2::of(a.rows(), a.cols(), p1, p2, coord[0], coord[1]).chunk(a, p3, coord[2])
}

/// Extract the chunk of `B` owned initially by the processor at `coord`:
/// the `p1`-way even split (by `coord[0]`) of block `B_{coord1, coord2}`.
pub fn owned_b_chunk(dims: MatMulDims, grid: Grid3, coord: [usize; 3], b: &Matrix) -> Vec<f64> {
    assert_eq!((b.rows() as u64, b.cols() as u64), (dims.n2, dims.n3), "B disagrees with dims");
    let [p1, p2, p3] = grid.dims();
    Block2::of(b.rows(), b.cols(), p2, p3, coord[1], coord[2]).chunk(b, p1, coord[0])
}

/// [`alg1_a`] driven to completion in one [`poll_now`]: the sync entry
/// point of a [`World::run`](pmm_simnet::World::run) thread host, kept only
/// for the frozen benchmark.
pub fn alg1(rank: &mut Rank, cfg: &Alg1Config, a: &Matrix, b: &Matrix) -> Alg1Output {
    poll_now(alg1_a(rank, cfg, a, b))
}

/// Run Algorithm 1 on the world communicator. `a` and `b` are the
/// *global* inputs (available to the closure only as a convenient source
/// of this rank's owned chunks — the algorithm reads nothing else from
/// them, except on a one-member fiber, where the chunk is the whole block
/// and is read in place).
#[allow(clippy::manual_async_fn)] // an `async fn` holds its arguments twice
pub fn alg1_a<'a>(
    rank: &'a mut Rank,
    cfg: &'a Alg1Config,
    a: &'a Matrix,
    b: &'a Matrix,
) -> impl Future<Output = Alg1Output> + 'a {
    async move {
        let world = rank.world_comm();
        alg1_on_a(rank, &world, cfg, 1, a, b).await
    }
}

/// The one body of Algorithm 1 (see the [module docs](self)), on an
/// arbitrary base communicator (whose size must equal the grid size):
/// this rank's grid position is its index in `base`, and all three fiber
/// communicators are split from `base`. This is what
/// [`crate::recovery::run_plan_a`] runs for an Algorithm 1 plan, plain or
/// streamed, on the world or on the surviving ranks of a recovery attempt.
///
/// `slabs` is clamped to `[1, max(h2, 1)]` (`h2` = this rank's inner
/// extent), so no slab is empty; one slab is the paper's Algorithm 1.
/// The footprint is declared as the §5 one: the owned chunks of every
/// slab first, then each slab's two gather buffers before its gathers
/// (released when the next slab's are acquired), `D` after the first
/// slab's gathers, and the last slab's buffers released with `D` after
/// assembly.
#[allow(clippy::manual_async_fn)] // an `async fn` holds its arguments twice
pub fn alg1_on_a<'a>(
    rank: &'a mut Rank,
    base: &'a Comm,
    cfg: &'a Alg1Config,
    slabs: usize,
    a: &'a Matrix,
    b: &'a Matrix,
) -> impl Future<Output = Alg1Output> + 'a {
    // An `async` block behind a plain `fn`, not an `async fn`, here and
    // down the gather and reduce-scatter chain: an `async fn` keeps its
    // arguments twice in its state (as passed, and moved into the body),
    // and every rank of a world is one suspended copy of this state.
    async move {
        assert_inputs_match(cfg.dims, a, b);
        let comms = fiber_comms_on_a(rank, base, cfg.grid).await;

        // What the rank holds across its awaits is its continuation, so
        // the layout is worked out in scopes that end before the first
        // gather: a local whose address is taken keeps its bytes until its
        // scope ends.
        let (a_blk, b_blk, slabs) = {
            let [p1, p2, p3] = cfg.grid.dims();
            let coord = cfg.grid.coord_of(base.index());
            // Blocks `A_{p1'p2'}` and `B_{p2'p3'}` of the global inputs, cut
            // into `slabs` slabs of `A`-columns / `B`-rows.
            let a_blk = Block2::of(a.rows(), a.cols(), p1, p2, coord[0], coord[1]);
            let b_blk = Block2::of(b.rows(), b.cols(), p2, p3, coord[1], coord[2]);
            let slabs = slabs.clamp(1, a_blk.width().max(1));

            // ----- owned input chunks (initial distribution) -------------------
            // The §5 footprint: this rank's share of each slab of each block.
            // The host copies a share out only where a gather needs it (see
            // `gather_block`).
            let owned_words: usize = (0..slabs)
                .map(|s| {
                    let (a_slab, b_slab) = slab_of(&a_blk, &b_blk, slabs, s);
                    chunk_of_block(a_slab.words(), p3, coord[2]).len()
                        + chunk_of_block(b_slab.words(), p1, coord[0]).len()
                })
                .sum();
            rank.mem_acquire(owned_words as u64);
            (a_blk, b_blk, slabs)
        };
        let (h1, h3) = (a_blk.height(), b_blk.width());
        let c_block_words = h1 * h3;

        // D is allocated once the first slab's operands are in hand: a rank
        // waiting in its gathers holds no accumulator.
        let mut d = None;
        let (mut meter_a, mut meter_b) = (Meter::default(), Meter::default());
        let mut held = 0;
        for s in 0..slabs {
            let (a_words, b_words) = {
                let (a_slab, b_slab) = slab_of(&a_blk, &b_blk, slabs, s);
                (a_slab.words(), b_slab.words())
            };
            rank.mem_release(held);
            held = (a_words + b_words) as u64;

            // ----- line 3: All-Gather A over fiber (p1', p2', :) ---------------
            // A one-member fiber (p3 = 1, every 1D and 2D grid of §5.2) moves
            // nothing, and the slab is multiplied where it lies in `a`.
            rank.mem_acquire(a_words as u64);
            let probe = PhaseProbe::begin(rank, ALG1_PHASES[0]);
            let a_op = gather_block(rank, &comms[2], slab_of(&a_blk, &b_blk, slabs, s).0, a).await;
            meter_a += probe.finish(rank).meter;

            // ----- line 4: All-Gather B over fiber (:, p2', p3') ---------------
            // Read in place when p1 = 1.
            rank.mem_acquire(b_words as u64);
            let probe = PhaseProbe::begin(rank, ALG1_PHASES[1]);
            let b_op = gather_block(rank, &comms[0], slab_of(&a_blk, &b_blk, slabs, s).1, b).await;
            meter_b += probe.finish(rank).meter;

            // ----- line 6: local computation D += A_slab · B_slab --------------
            let d = d.get_or_insert_with(|| {
                rank.mem_acquire(c_block_words as u64);
                Matrix::zeros(h1, h3)
            });
            pmm_simnet::phase!(rank, "local multiply", {
                gemm_acc(d, &a_op, &b_op, cfg.kernel);
                // The model meters scalar multiplications, matching the
                // paper's n1n2n3/P count (h1·h2·h3 of them over all slabs).
                rank.compute((a_words * h3) as f64);
            });
            // Last use of the slab's operands: the host frees them here,
            // before line 8, which never reads them. (The simulated machine's
            // footprint is metered by `mem_acquire`/`mem_release`.)
        }

        // ----- line 8: assemble C over fiber (p1', :, p3') ---------------------
        // Member t of the fiber ends with chunk `chunk_of_block(h1·h3, p2, t)`
        // of the C block: an even split.
        let d = d.expect("at least one slab");
        let (c_chunk, ph_c) = match cfg.assembly {
            Assembly::ReduceScatter => {
                let probe = PhaseProbe::begin(rank, ALG1_PHASES[2]);
                let c =
                    reduce_scatter_a(rank, &comms[1], d.into_vec(), ReduceScatterAlgo::Auto).await;
                (c, probe.finish(rank))
            }
            Assembly::AllToAllSum => {
                let probe = PhaseProbe::begin(rank, "all-to-all C");
                let c = all_to_all_sum(rank, &comms[1], d.as_slice()).await;
                (c, probe.finish(rank))
            }
        };

        // Release the last slab's buffers and D; retain owned inputs + owned
        // C chunk.
        rank.mem_acquire(c_chunk.len() as u64);
        rank.mem_release(held + c_block_words as u64);

        let phases = [
            PhaseMeter { label: ALG1_PHASES[0], meter: meter_a },
            PhaseMeter { label: ALG1_PHASES[1], meter: meter_b },
            ph_c,
        ];
        Alg1Output { c_chunk, phases }
    }
}

/// Slab `s` of `slabs` of the blocks `A_{p1'p2'}` and `B_{p2'p3'}`: the
/// `s`-th [`block_range`] of `A`'s columns and the same rows of `B`.
fn slab_of(a_blk: &Block2, b_blk: &Block2, slabs: usize, s: usize) -> (Block2, Block2) {
    let r = block_range(a_blk.width(), slabs, s);
    let inner = a_blk.cols.start + r.start..a_blk.cols.start + r.end;
    (
        Block2 { rows: a_blk.rows.clone(), cols: inner.clone() },
        Block2 { rows: inner, cols: b_blk.cols.clone() },
    )
}

/// Reduce-scatter semantics via All-to-All + local summation (the
/// [`Assembly::AllToAllSum`] ablation): member `t` ends with the sum of
/// everyone's chunk `chunk_of_block(data.len(), p, t)`, exchanged pairwise
/// (`p − 1` rounds), on any split. Registered as an All-to-All, so the
/// collective-matching lint checks every member's call.
async fn all_to_all_sum(rank: &mut Rank, comm: &pmm_simnet::Comm, data: &[f64]) -> Vec<f64> {
    rank.collective_begin_a(comm, CollectiveOp::AllToAll, data.len() as u64).await;
    let p = comm.size();
    let me = comm.index();
    let chunk = |t: usize| chunk_of_block(data.len(), p, t);
    let mut acc: Vec<f64> = data[chunk(me)].to_vec();
    // Temporary memory for the p−1 received chunks (the ablation's cost).
    rank.mem_acquire((data.len() - acc.len()) as u64);
    for s in 1..p {
        let to = (me + s) % p;
        let from = (me + p - s) % p;
        let msg = rank.exchange_a(comm, to, from, &data[chunk(to)]).await;
        assert_eq!(msg.payload.len(), acc.len());
        for (a, &v) in acc.iter_mut().zip(&msg.payload) {
            *a += v;
        }
        rank.compute(acc.len() as f64);
    }
    rank.mem_release((data.len() - acc.len()) as u64);
    acc
}

/// Assemble the global `C` from every rank's [`Alg1Output::c_chunk`]
/// (test/harness helper; runs outside the simulated machine).
pub fn assemble_c(dims: MatMulDims, grid: Grid3, chunks: &[Vec<f64>]) -> Matrix {
    let [p1, p2, p3] = grid.dims();
    assert_eq!(chunks.len(), grid.size());
    let (n1, n3) = (dims.n1 as usize, dims.n3 as usize);
    let mut c = Matrix::zeros(n1, n3);
    for i in 0..p1 {
        for l in 0..p3 {
            let block = Block2::of(n1, n3, p1, p3, i, l);
            for j in 0..p2 {
                block.put_chunk(&mut c, p2, j, &chunks[grid.rank_of([i, j, l])]);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Inputs;
    use pmm_dense::random_int_matrix;
    use pmm_simnet::{MachineParams, World, WorldResult};
    use std::sync::Arc;

    /// Run Algorithm 1 with `assembly` on a world sized to `grid` and hold
    /// its product to the oracle.
    fn run(inputs: &Inputs, grid: [usize; 3], assembly: Assembly) -> WorldResult<Alg1Output> {
        let (dims, grid) = (inputs.dims, Grid3::from_dims(grid));
        let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly };
        let out = World::new(grid.size(), MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let (cfg, a, b) = (cfg.clone(), Arc::clone(&inputs.a), Arc::clone(&inputs.b));
            Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
        });
        let chunks: Vec<Vec<f64>> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
        assert_eq!(assemble_c(dims, grid, &chunks), *inputs.want(), "{assembly:?} on {grid:?}");
        out
    }

    #[test]
    #[should_panic(expected = "A disagrees with dims")]
    fn owned_a_chunk_rejects_a_matrix_of_other_dims() {
        // 12 × 8 under dims that say 8 × 12: same word count, another
        // partition — silently accepted before.
        let a = random_int_matrix(12, 8, -3..4, 1);
        owned_a_chunk(MatMulDims::new(8, 12, 6), Grid3::new(2, 2, 3), [0, 0, 0], &a);
    }

    #[test]
    #[should_panic(expected = "B disagrees with dims")]
    fn owned_b_chunk_rejects_a_matrix_of_other_dims() {
        let b = random_int_matrix(6, 8, -3..4, 2);
        owned_b_chunk(MatMulDims::new(12, 8, 6), Grid3::new(2, 2, 3), [0, 0, 0], &b);
    }

    #[test]
    fn correct_on_divisible_3d_grid() {
        run(
            &Inputs::seeded(MatMulDims::new(12, 8, 6), [11, 22]),
            [2, 2, 3],
            Assembly::ReduceScatter,
        );
    }

    #[test]
    fn correct_on_1d_and_2d_grids() {
        let inputs = Inputs::seeded(MatMulDims::new(12, 9, 5), [11, 22]);
        for grid in [[4, 1, 1], [1, 3, 1], [1, 1, 5], [3, 3, 1], [2, 1, 5]] {
            run(&inputs, grid, Assembly::ReduceScatter);
        }
    }

    #[test]
    fn correct_on_non_divisible_dims() {
        let inputs = Inputs::seeded(MatMulDims::new(13, 7, 11), [11, 22]);
        for grid in [[2, 2, 2], [3, 2, 1], [2, 3, 4]] {
            run(&inputs, grid, Assembly::ReduceScatter);
        }
    }

    #[test]
    fn correct_with_all_to_all_assembly() {
        let inputs = Inputs::seeded(MatMulDims::new(12, 8, 6), [11, 22]);
        for grid in [[2, 2, 3], [1, 4, 1], [2, 3, 2]] {
            run(&inputs, grid, Assembly::AllToAllSum);
        }
    }

    #[test]
    fn single_processor_no_communication() {
        let out = run(
            &Inputs::seeded(MatMulDims::new(6, 5, 4), [11, 22]),
            [1, 1, 1],
            Assembly::ReduceScatter,
        );
        assert_eq!(out.total_words_sent(), 0.0);
    }

    #[test]
    fn alltoall_assembly_same_bandwidth_more_latency() {
        let inputs = Inputs::seeded(MatMulDims::new(16, 16, 16), [11, 22]);
        let grid = [2, 4, 2];
        let rs = run(&inputs, grid, Assembly::ReduceScatter);
        let aa = run(&inputs, grid, Assembly::AllToAllSum);
        assert_eq!(
            rs.reports[0].meter.words_sent, aa.reports[0].meter.words_sent,
            "assembly variants move the same words"
        );
        // p2 = 4: reduce-scatter (recursive halving) needs log2(4) = 2
        // messages; all-to-all needs p2 − 1 = 3.
        let rs_msgs = rs.values[0].phases[2].meter.msgs_sent;
        let aa_msgs = aa.values[0].phases[2].meter.msgs_sent;
        assert!(aa_msgs > rs_msgs, "all-to-all {aa_msgs} vs reduce-scatter {rs_msgs}");
    }

    #[test]
    fn memory_peak_tracks_eq3_footprint() {
        use pmm_core::memlimit::alg1_memory_words;
        let dims = MatMulDims::new(24, 24, 24);
        let grid = [2, 2, 2];
        let out = run(&Inputs::seeded(dims, [11, 22]), grid, Assembly::ReduceScatter);
        let want = alg1_memory_words(dims, grid);
        for rep in &out.reports {
            let peak = rep.peak_mem_words as f64;
            // Peak includes the owned input chunks (counted once more than
            // the analytic footprint) but must stay within ~1.5× of it.
            assert!(peak >= want && peak <= 1.5 * want, "peak {peak} vs analytic footprint {want}");
        }
    }

    #[test]
    fn an_alg1_continuation_stays_within_its_bytes() {
        // Every rank of an Algorithm 1 world is one suspended `alg1_a`
        // future, so a byte here is a megabyte at P = 10^6: see
        // docs/PERFORMANCE.md §4, "Bytes a rank holds, by structure".
        const CEILING: usize = 1264;
        let dims = MatMulDims::new(4, 4, 4);
        let cfg = Alg1Config::new(dims, Grid3::from_dims([2, 1, 1]));
        let ab = Arc::new((Matrix::zeros(4, 4), Matrix::zeros(4, 4)));
        let out = World::new(2, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
            Box::pin(async move {
                let future = alg1_a(rank, &cfg, &ab.0, &ab.1);
                let bytes = std::mem::size_of_val(&future);
                future.await;
                bytes
            })
        });
        for bytes in out.values {
            assert!(
                bytes <= CEILING,
                "an alg1_a future is {bytes} B, over its {CEILING} B ceiling: see \
                 docs/PERFORMANCE.md §4 before growing what Algorithm 1 holds across an await"
            );
        }
    }
}

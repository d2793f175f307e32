//! Shared infrastructure for the distributed algorithms: fiber
//! communicators, phase metering, Algorithm 1's operand gathers, and
//! output reassembly for verification.

use pmm_collectives::{all_gather_v_a, AllGatherAlgo};
use pmm_dense::{block_range, chunk_of_block, Block2, MatRef, Matrix};
use pmm_model::{Grid3, MatMulDims};
use pmm_simnet::{poll_now, CollectiveOp, Comm, Meter, Rank};

/// Traffic attributed to one named phase of an algorithm (diff of two
/// meter snapshots).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMeter {
    /// Phase label (e.g. `"all-gather A"`).
    pub label: &'static str,
    /// Traffic and flops during the phase.
    pub meter: Meter,
}

impl PhaseMeter {
    /// Measure `f` as a phase on `rank`: the returned [`PhaseMeter`] is
    /// the meter diff across `f`, and when tracing is on the phase is
    /// additionally emitted as a labelled scope into the structured trace
    /// (see `pmm_simnet::tracer`).
    pub fn measure<T>(
        rank: &mut Rank,
        label: &'static str,
        f: impl FnOnce(&mut Rank) -> T,
    ) -> (T, PhaseMeter) {
        let probe = PhaseProbe::begin(rank, label);
        let out = f(rank);
        (out, probe.finish(rank))
    }
}

/// An in-flight phase measurement. [`PhaseMeter::measure`] wraps the
/// phase body in a closure, which cannot hold the rank borrow across an
/// `.await`; async algorithm bodies instead bracket the phase manually:
/// [`PhaseProbe::begin`], run the body (awaiting freely), then
/// [`PhaseProbe::finish`]. Both paths emit the same trace scope and meter
/// diff.
#[must_use = "a phase probe measures nothing until finished"]
pub struct PhaseProbe {
    label: &'static str,
    before: Meter,
}

impl PhaseProbe {
    /// Snapshot the meter and open the labelled phase scope.
    pub fn begin(rank: &mut Rank, label: &'static str) -> PhaseProbe {
        let before = rank.meter();
        rank.phase_begin(label);
        PhaseProbe { label, before }
    }

    /// Close the phase scope and return the meter diff across it.
    pub fn finish(self, rank: &mut Rank) -> PhaseMeter {
        rank.phase_end(self.label);
        let meter = rank.meter().diff(&self.before);
        PhaseMeter { label: self.label, meter }
    }
}

/// Create the three fiber communicators of `grid` for the calling rank:
/// `comms[axis]` spans the fiber through this rank's coordinate along
/// `axis`, ordered by that coordinate (so communicator index equals
/// `coord[axis]`).
///
/// Every world rank must call this exactly once, and the world size must
/// equal the grid size.
pub fn fiber_comms(rank: &mut Rank, grid: Grid3) -> [Comm; 3] {
    let world = rank.world_comm();
    fiber_comms_on(rank, &world, grid)
}

/// Async form of [`fiber_comms`] (event-loop programs).
pub async fn fiber_comms_a(rank: &mut Rank, grid: Grid3) -> [Comm; 3] {
    let world = rank.world_comm();
    fiber_comms_on_a(rank, &world, grid).await
}

/// [`fiber_comms`] generalized to an arbitrary base communicator: this
/// rank's grid coordinate is derived from its index *in `base`*, whose
/// size must equal the grid size. This is what failure recovery needs —
/// after a rank dies, the survivors' communicator is no longer the world,
/// and the shrunken grid is laid out over it.
pub fn fiber_comms_on(rank: &mut Rank, base: &Comm, grid: Grid3) -> [Comm; 3] {
    poll_now(fiber_comms_on_a(rank, base, grid))
}

/// Async form of [`fiber_comms_on`] (event-loop programs).
pub async fn fiber_comms_on_a(rank: &mut Rank, base: &Comm, grid: Grid3) -> [Comm; 3] {
    assert_eq!(base.size(), grid.size(), "base communicator size must equal grid size");
    let coord = grid.coord_of(base.index());
    async fn make(
        rank: &mut Rank,
        base: &Comm,
        grid: Grid3,
        coord: [usize; 3],
        axis: usize,
    ) -> Comm {
        let color = grid.fiber_color(coord, axis) as i64;
        let key = coord[axis] as i64;
        let comm = rank
            .split_a(base, color, key)
            .await
            .expect("non-negative color always yields a communicator");
        assert_eq!(comm.size(), grid.dims()[axis]);
        assert_eq!(comm.index(), coord[axis]);
        comm
    }
    [
        make(rank, base, grid, coord, 0).await,
        make(rank, base, grid, coord, 1).await,
        make(rank, base, grid, coord, 2).await,
    ]
}

/// Panic unless the global inputs are `n1 × n2` and `n2 × n3`: Algorithm 1
/// reads its blocks of them by `dims`, and a same-size mis-shaped input
/// would otherwise be read as another partition.
pub(crate) fn assert_inputs_match(dims: MatMulDims, a: &Matrix, b: &Matrix) {
    let shapes = [a.rows(), a.cols(), b.rows(), b.cols()].map(|d| d as u64);
    assert_eq!(shapes, [dims.n1, dims.n2, dims.n2, dims.n3], "global inputs disagree with dims");
}

/// One operand of Algorithm 1's local multiply: the block all-gathered
/// over its fiber, or the block of the global input itself, read in place.
pub(crate) enum Operand<'m> {
    Gathered(Matrix),
    InPlace(MatRef<'m>),
}

impl<'a> From<&'a Operand<'_>> for MatRef<'a> {
    fn from(op: &'a Operand<'_>) -> MatRef<'a> {
        match op {
            Operand::Gathered(m) => m.as_ref(),
            Operand::InPlace(v) => *v,
        }
    }
}

/// Lines 3–4 of Algorithm 1 for one operand: all-gather `block` of
/// `global` over `fiber`, each member contributing its [`Block2::chunk`]
/// (chunk index = fiber index) of the §5 initial distribution.
///
/// On a one-member fiber the gather moves nothing and would hand back the
/// one chunk — the whole block — so the block is read in place instead of
/// copied out. The collective is still entered exactly as
/// `all_gather_v_a` enters it there (verifier registration, `Collective`
/// trace event, scheduler yield, with the block's word count), so meters,
/// clocks, traces and schedules are those of the gather.
pub(crate) async fn gather_block<'m>(
    rank: &mut Rank,
    fiber: &Comm,
    block: Block2,
    global: &'m Matrix,
) -> Operand<'m> {
    let (p, words) = (fiber.size(), block.words());
    if p == 1 {
        rank.collective_begin_a(fiber, CollectiveOp::AllGather, words as u64).await;
        return Operand::InPlace(block.view(global));
    }
    let counts: Vec<usize> = (0..p).map(|t| chunk_of_block(words, p, t).len()).collect();
    let mine = block.chunk(global, p, fiber.index());
    let flat = all_gather_v_a(rank, fiber, mine, &counts, AllGatherAlgo::Auto).await;
    Operand::Gathered(Matrix::from_vec(block.height(), block.width(), flat))
}

/// Reassemble a global matrix from per-coordinate owned blocks.
///
/// `block_of(i, j)` must return the `(i, j)` block of the `pr × pc` block
/// partition of an `rows × cols` matrix (uneven partitions follow
/// [`block_range`]). Used by tests and experiment harnesses to verify
/// distributed outputs; reassembly happens *outside* the simulated
/// machine, so it does not perturb any meter.
pub fn assemble_from_blocks(
    rows: usize,
    cols: usize,
    pr: usize,
    pc: usize,
    mut block_of: impl FnMut(usize, usize) -> Matrix,
) -> Matrix {
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..pr {
        for j in 0..pc {
            let r = block_range(rows, pr, i);
            let c = block_range(cols, pc, j);
            let blk = block_of(i, j);
            assert_eq!(
                (blk.rows(), blk.cols()),
                (r.len(), c.len()),
                "block ({i},{j}) has wrong shape"
            );
            out.set_sub(r.start, c.start, &blk);
        }
    }
    out
}

/// Flatten the `(i, j)` block of `m` under a `pr × pc` partition into a
/// row-major vector (the wire/storage format used by the distributed
/// algorithms).
pub fn flatten_block(m: &Matrix, pr: usize, pc: usize, i: usize, j: usize) -> Vec<f64> {
    let r = block_range(m.rows(), pr, i);
    let c = block_range(m.cols(), pc, j);
    m.sub(r.start, c.start, r.len(), c.len()).into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_simnet::{MachineParams, World};

    #[test]
    fn fiber_comms_have_right_shape_and_order() {
        let grid = Grid3::new(2, 3, 2);
        let out = World::new(12, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comms = fiber_comms(rank, grid);
            let coord = grid.coord_of(rank.world_rank());
            (0..3).map(|a| (comms[a].size(), comms[a].index() == coord[a])).collect::<Vec<_>>()
        });
        for v in &out.values {
            assert_eq!(v[0].0, 2);
            assert_eq!(v[1].0, 3);
            assert_eq!(v[2].0, 2);
            assert!(v.iter().all(|&(_, ok)| ok));
        }
    }

    #[test]
    fn fiber_comm_members_match_grid_fibers() {
        let grid = Grid3::new(3, 3, 3);
        let out = World::new(27, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comms = fiber_comms(rank, grid);
            let coord = grid.coord_of(rank.world_rank());
            (0..3).map(|a| (comms[a].members().to_vec(), grid.fiber(coord, a))).collect::<Vec<_>>()
        });
        for v in &out.values {
            for (got, want) in v {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn assemble_round_trips_a_partition() {
        let m = Matrix::from_fn(7, 9, |r, c| (r * 9 + c) as f64);
        let got = assemble_from_blocks(7, 9, 3, 2, |i, j| {
            let r = block_range(7, 3, i);
            let c = block_range(9, 2, j);
            m.sub(r.start, c.start, r.len(), c.len())
        });
        assert_eq!(got, m);
    }

    #[test]
    fn flatten_block_is_row_major() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let v = flatten_block(&m, 2, 2, 1, 0);
        assert_eq!(v, vec![8.0, 9.0, 12.0, 13.0]);
    }

    #[test]
    fn phase_meter_attributes_traffic() {
        let out = World::new(2, MachineParams::BANDWIDTH_ONLY).run(|rank| {
            let wc = rank.world_comm();
            let partner = 1 - wc.index();
            let (_, p1) = PhaseMeter::measure(rank, "x", |r| {
                r.sendrecv(&wc, partner, &[1.0; 5]);
            });
            let (_, p2) = PhaseMeter::measure(rank, "y", |r| {
                r.sendrecv(&wc, partner, &[1.0; 7]);
            });
            (p1.meter.words_sent, p2.meter.words_sent)
        });
        assert_eq!(out.values[0], (5, 7));
    }
}

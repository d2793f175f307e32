//! Packed-panel GEMM with a register-tiled microkernel
//! ([`Kernel::Blocked`](crate::Kernel::Blocked)).
//!
//! Classic three-level blocking (the BLIS/GotoBLAS loop nest):
//!
//! * `jc` walks `NC`-column panels of `B`/`C`;
//! * `pc` walks `KC`-deep slabs of the contracted dimension — each slab
//!   of `B` is packed once into micro-panels of `NR` columns;
//! * `ic` walks `MC`-row panels of `A`/`C` — each panel of `A` is packed
//!   into micro-panels of `MR` rows;
//! * `jr`/`ir` walk the packed micro-panels and hand each `MR × NR`
//!   output tile to the microkernel, which keeps the whole tile in
//!   registers and streams the packed panels with unit stride.
//!
//! There are two microkernels, chosen by the build target and by nothing
//! else. Where the target has `avx512f` and `fma` it is the explicit
//! 8×24 tile of the `avx512` module: 24 zmm accumulators fed by
//! `_mm512_fmadd_pd`. Everywhere else it is the safe, autovectorised
//! [`microkernel`] of this file on a 6×8 tile (12 ymm accumulators of 16
//! with AVX2 — the classic f64 shape — and correct, if slower, on any
//! target). The safe one is not used to *reach* 512 bits because the
//! autovectoriser will not go there: LLVM's tuning for the AVX-512 Xeons
//! prefers 256-bit vectors, so under `-C target-cpu=native` it emits
//! `vfmadd231pd %ymm` for any tile shape (see `docs/PERFORMANCE.md` §1).
//! On AVX-512 builds the safe microkernel stays compiled into the test
//! binary as the explicit tile's bitwise oracle.
//!
//! Edge tiles are zero-padded at pack time, so the microkernel is the
//! only compute path; padded lanes are discarded at store time.
//!
//! `A` and `B` are strided operands ([`MatRef`]): packing is where every
//! element of both is copied anyway, so `pack_a` / `pack_b` read their
//! source rows through the operand's row stride, and a block of a larger
//! matrix is packed straight from where it lies. The packed panels, and
//! everything downstream of them, are the same as for the block copied
//! out.
//!
//! **Bitwise contract** (shared by every tier, see
//! [`kernels`](crate::kernels)): the microkernel loads the live `C` tile
//! into its accumulators before the `k` loop and stores it back after,
//! and the `pc` loop visits `k` slabs in increasing order — so each
//! output element sees exactly the same sequence of
//! [`madd`](crate::kernels::madd) terms, in the same order, as the naive
//! oracle.

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "fma"))]
use crate::avx512 as tile;
use crate::matrix::MatRef;

/// The portable tile: the safe [`microkernel`] at the shape that suits 16
/// vector registers, and the roofline probe built from it.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "fma")))]
mod tile {
    pub(super) use super::microkernel;
    pub(super) const MR: usize = 6;
    pub(super) const NR: usize = 8;
    /// What the autovectoriser is offered: ymm with AVX, 128-bit vectors
    /// (SSE2, NEON) otherwise.
    pub(super) const VECTOR_BITS: u32 = if cfg!(target_feature = "avx") { 256 } else { 128 };
    /// Multiply-adds per [`fma_burst`] step: one tile.
    pub(super) const BURST_MADDS: usize = MR * NR;

    /// The roofline probe in safe Rust: `steps` steps of the tier's own
    /// inner loop — the safe microkernel — over packed panels short
    /// enough to stay in L1. Safe code cannot name a vector width, and
    /// whether a free-standing accumulator loop is vectorised depends on
    /// its shape (built for AVX2 on the reference host, 12×8 lanes read
    /// 41 GFLOP/s, 24×8 read 25 and 6×8 read 13), so the probe is the
    /// loop whose ceiling it reports.
    pub(super) fn fma_burst(steps: usize, x: f64, y: f64) -> f64 {
        const DEPTH: usize = 128;
        // Out of line and on opaque panels, as the loop nest calls it: in
        // line, on panels known to hold one value each, it is scalarised.
        #[inline(never)]
        fn one_panel(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
            microkernel(DEPTH, ap, bp, acc);
        }
        let ap = std::hint::black_box([x; DEPTH * MR]);
        let bp = std::hint::black_box([y; DEPTH * NR]);
        let mut acc = [[0.0f64; NR]; MR];
        for _ in 0..steps / DEPTH {
            one_panel(&ap, &bp, &mut acc);
        }
        acc.iter().flatten().sum()
    }
}

/// Microkernel tile height and width (rows and columns of `C` per
/// register tile).
use tile::{MR, NR};
/// Rows of `A` packed per `ic` panel: a multiple of both tile heights (6
/// and 8), so only the last panel of a matrix ends in a padded
/// micro-panel; a packed `MC × KC` panel of `A` is 480 KB, inside L2.
const MC: usize = 120;
/// Depth of the contracted-dimension slab packed per `pc` step. The `B`
/// micro-panel of the 8×24 tile is then `KC·NR·8` = 96 KB, twice a 48 KB
/// L1d, and it does not matter: `KC` ∈ {192, 256, 384, 512} × `MC` ∈
/// {48, 96, 120, 240} measured flat within noise (the table is in
/// `docs/PERFORMANCE.md` §1), because a deeper slab saves as many loads
/// and stores of the `C` tile as it costs in L1 misses on `B`.
const KC: usize = 512;
/// Columns of `B` packed per `jc` panel.
const NC: usize = 2048;

/// Width in bits of the fused multiply-add the fast tier issues on this
/// build target: 512 for the explicit AVX-512 tile, otherwise what the
/// autovectoriser is offered.
pub const FMA_VECTOR_BITS: u32 = tile::VECTOR_BITS;

/// One core's multiply-add ceiling in GFLOP/s (`2` flops per
/// multiply-add, the convention of every GFLOP/s figure in this
/// workspace): the best of a few short bursts of the microkernel's own
/// FMA — same primitive, same width. On the explicit tile that is 24
/// independent accumulator registers and no memory traffic at all; on
/// the portable one, the safe microkernel over L1-resident panels.
/// `Blocked`'s rate over this is its share of the roofline.
pub fn fma_peak_gflops() -> f64 {
    const STEPS: usize = 1 << 17;
    let flops = (2 * STEPS * tile::BURST_MADDS) as f64;
    let best_secs = (0..8)
        .map(|_| {
            let t0 = std::time::Instant::now();
            // |x| < 1 keeps every chain c ← x·c + y bounded.
            std::hint::black_box(tile::fma_burst(
                STEPS,
                std::hint::black_box(0.999_999),
                std::hint::black_box(1e-6),
            ));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    flops / best_secs / 1e9
}

/// `C += A·B`: `c` is the densely packed row-major `m × n` output, `a`
/// (`m × k`) and `b` (`k × n`) are read through their row strides.
///
/// This is the engine behind [`Kernel::Blocked`](crate::Kernel::Blocked).
pub(crate) fn gemm_blocked(c: &mut [f64], a: MatRef<'_>, b: MatRef<'_>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let kc_max = KC.min(k);
    let mc_max = MC.min(m);
    let nc_max = NC.min(n);
    let mut apack = vec![0.0f64; kc_max * mc_max.div_ceil(MR) * MR];
    let mut bpack = vec![0.0f64; kc_max * nc_max.div_ceil(NR) * NR];

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(&mut bpack, b.as_slice(), b.stride(), pc, jc, kc, nc);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(&mut apack, a.as_slice(), a.stride(), ic, pc, mc, kc);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * kc * NR..][..kc * NR];
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * kc * MR..][..kc * MR];
                        // Load the live C tile (zero-padded lanes are
                        // discarded at store time).
                        let mut acc = [[0.0f64; NR]; MR];
                        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                            let row = &c[(ic + ir + r) * n + jc + jr..][..nr];
                            // A full-width row is a fixed-size copy, not
                            // a `memcpy` call.
                            match <&[f64; NR]>::try_from(row) {
                                Ok(full) => *accr = *full,
                                Err(_) => accr[..nr].copy_from_slice(row),
                            }
                        }
                        tile::microkernel(kc, ap, bp, &mut acc);
                        for (r, accr) in acc.iter().enumerate().take(mr) {
                            let row = &mut c[(ic + ir + r) * n + jc + jr..][..nr];
                            match <&mut [f64; NR]>::try_from(&mut *row) {
                                Ok(full) => *full = *accr,
                                Err(_) => row.copy_from_slice(&accr[..nr]),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The safe register tile: `acc[r][c] += ap[l·MR + r] · bp[l·NR + c]`
/// for `l` in `0..kc`, in that order. Working on a by-value copy keeps
/// the tile in registers. The microkernel of every target without the
/// explicit tile, and the oracle of that tile's differential test.
#[cfg(any(
    test,
    not(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "fma"))
))]
#[inline]
fn microkernel<const MR: usize, const NR: usize>(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    let mut t = *acc;
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (tr, &ar) in t.iter_mut().zip(av) {
            for (tv, &bc) in tr.iter_mut().zip(bv) {
                *tv = crate::kernels::madd(ar, bc, *tv);
            }
        }
    }
    *acc = t;
}

/// A row of zeros `pack_a` reads for the rows past `mc`.
static ZERO_ROW: [f64; KC] = [0.0; KC];

/// Pack the `mc × kc` block of `A` at `(ic, pc)` into micro-panels of
/// `MR` rows, k-major within each panel (`apack[q·kc·MR + l·MR + r]` =
/// `A[ic + q·MR + r][pc + l]`, row `i` of `A` starting at `a[i·lda]`),
/// zero-padding rows past `mc`. Each micro-panel is written front to
/// back, `MR` contiguous elements at a time gathered from `MR` row
/// streams.
fn pack_a(apack: &mut [f64], a: &[f64], lda: usize, ic: usize, pc: usize, mc: usize, kc: usize) {
    for q in 0..mc.div_ceil(MR) {
        let panel = &mut apack[q * kc * MR..][..kc * MR];
        let rows: [&[f64]; MR] = std::array::from_fn(|r| {
            if q * MR + r < mc {
                &a[(ic + q * MR + r) * lda + pc..][..kc]
            } else {
                &ZERO_ROW[..kc]
            }
        });
        for (l, dst) in panel.chunks_exact_mut(MR).enumerate() {
            for (d, row) in dst.iter_mut().zip(&rows) {
                *d = row[l];
            }
        }
    }
}

/// Pack the `kc × nc` block of `B` at `(pc, jc)` into micro-panels of
/// `NR` columns (`bpack[q·kc·NR + l·NR + c]` = `B[pc + l][jc + q·NR + c]`,
/// row `l` of `B` starting at `b[l·ldb]`), zero-padding columns past `nc`.
fn pack_b(bpack: &mut [f64], b: &[f64], ldb: usize, pc: usize, jc: usize, kc: usize, nc: usize) {
    for q in 0..nc.div_ceil(NR) {
        let panel = &mut bpack[q * kc * NR..][..kc * NR];
        let cols = NR.min(nc - q * NR);
        for l in 0..kc {
            let brow = &b[(pc + l) * ldb + jc + q * NR..][..cols];
            let dst = &mut panel[l * NR..][..NR];
            dst[..cols].copy_from_slice(brow);
            for d in dst.iter_mut().skip(cols) {
                *d = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;
    use crate::kernels::madd;
    use crate::matrix::Matrix;

    /// Direct strided oracle for the raw-slice entry point.
    fn oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for l in 0..a.cols() {
                let ail = a[(i, l)];
                for j in 0..b.cols() {
                    c[(i, j)] = madd(ail, b[(l, j)], c[(i, j)]);
                }
            }
        }
        c
    }

    #[test]
    fn matches_oracle_bitwise_across_edge_shapes() {
        // Shapes straddling every blocking boundary: one short of, exactly
        // and one past the tile in each direction, a row past `MC`, a slab
        // past `KC`, outputs narrower than one vector, single rows/cols.
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 9, 7),
            (MR - 1, 3, NR - 1),
            (MR, 5, NR),
            (MR + 1, 2 * MR, NR + 1),
            (2 * MR, 33, 3),
            (MC, 16, 2 * NR),
            (MC + 1, 17, NR + 5),
            (3, KC + 1, 11),
            (MR + 1, 2 * KC + 1, NR + 1),
            (129, 257, 9),
            (131, 2, 259),
        ] {
            let a = random_matrix(m, k, 11);
            let b = random_matrix(k, n, 13);
            let want = oracle(&a, &b);
            let mut c = Matrix::zeros(m, n);
            gemm_blocked(c.as_mut_slice(), a.as_ref(), b.as_ref());
            assert_eq!(c, want, "blocked diverges for {m}x{k}x{n}");
        }
    }

    /// The explicit tile against the safe microkernel it replaces, on the
    /// same packed panels and the same live accumulator.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "fma"))]
    #[test]
    fn explicit_tile_matches_the_safe_microkernel_bitwise() {
        for (kc, seed) in [(0usize, 1u64), (1, 2), (7, 3), (KC, 4)] {
            let ap = random_matrix(kc, MR, seed);
            let bp = random_matrix(kc, NR, seed + 10);
            let live = random_matrix(MR, NR, seed + 20);
            let mut want = [[0.0f64; NR]; MR];
            for (row, src) in want.iter_mut().zip(live.as_slice().chunks_exact(NR)) {
                row.copy_from_slice(src);
            }
            let mut got = want;
            microkernel(kc, ap.as_slice(), bp.as_slice(), &mut want);
            tile::microkernel(kc, ap.as_slice(), bp.as_slice(), &mut got);
            assert_eq!(got, want, "tile diverges from the safe microkernel at kc = {kc}");
            assert!(
                kc == 0 || got[MR - 1][NR - 1] != live[(MR - 1, NR - 1)],
                "nothing accumulated"
            );
        }
    }

    #[test]
    fn the_roofline_probe_reads_the_width_the_tier_issues() {
        // A probe the autovectoriser compiles reads the 256-bit peak on an
        // AVX-512 Xeon — about half the real one.
        if cfg!(target_feature = "avx512f") {
            assert_eq!(FMA_VECTOR_BITS, 512);
        }
        let peak = fma_peak_gflops();
        assert!(peak.is_finite() && peak > 0.0, "{peak}");
    }

    /// A fall-back to ymm — 37 of ~90 GFLOP/s on the reference host —
    /// fails this; a loaded VM does not.
    #[cfg(target_feature = "avx512f")]
    #[cfg_attr(debug_assertions, ignore = "throughput is a property of the release build")]
    #[test]
    fn blocked_reaches_half_the_fma_roofline_at_256_cubed() {
        let n = 256;
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let best_secs = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                gemm_blocked(c.as_mut_slice(), a.as_ref(), b.as_ref());
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let gflops = 2.0 * (n * n * n) as f64 / best_secs / 1e9;
        let peak = fma_peak_gflops();
        assert!(gflops >= 0.5 * peak, "Blocked {gflops:.1} GFLOP/s of a {peak:.1} peak");
    }

    #[test]
    fn accumulates_into_live_c() {
        let (m, k, n) = (37, 65, 33);
        let a = random_matrix(m, k, 1);
        let b = random_matrix(k, n, 2);
        let mut c = random_matrix(m, n, 3);
        let mut want = c.clone();
        for i in 0..m {
            for l in 0..k {
                let ail = a[(i, l)];
                for j in 0..n {
                    want[(i, j)] = madd(ail, b[(l, j)], want[(i, j)]);
                }
            }
        }
        gemm_blocked(c.as_mut_slice(), a.as_ref(), b.as_ref());
        assert_eq!(c, want);
    }
}

//! The explicit AVX-512 register tile of [`Kernel::Blocked`](crate::Kernel::Blocked)
//! and the FMA roofline probe that issues the same instruction.
//!
//! Compiled only where the build target has `avx512f` and `fma` (see
//! `lib.rs`); every other target runs the safe autovectorised microkernel
//! in [`blocked`](crate::blocked), which is also the oracle this tile is
//! tested against, bitwise.
//!
//! Why it exists: LLVM's tuning for the AVX-512 Xeons prefers 256-bit
//! vectors, so under `-C target-cpu=native` the safe microkernel compiles
//! to `vfmadd231pd %ymm` whatever its tile shape, and one core's 512-bit
//! FMA throughput is about twice its 256-bit throughput. The intrinsics
//! name the width.
//!
//! **This is the one module of the workspace that says `unsafe`**
//! (`cargo xtask audit` allows the token in this path only, and fails a
//! block here without a `SAFETY` comment). What needs it: unaligned
//! vector loads and stores through raw pointers, each into a slice or
//! array whose length is asserted or fixed by its type, and the call into
//! a `#[target_feature]` function.
//!
//! **Bitwise contract.** `_mm512_fmadd_pd` is lane-wise `f64::mul_add`,
//! which is what [`madd`](crate::kernels::madd) compiles to on a target
//! with `fma`; the tile is loaded from the live `C` values and `k` runs in
//! increasing order, one fused multiply-add per term, so every element
//! sees the sequence of operations the naive oracle applies.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m512d, _mm512_add_pd, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_reduce_add_pd, _mm512_set1_pd,
    _mm512_storeu_pd,
};

/// Lanes of one zmm register.
const LANES: usize = 8;
/// zmm registers per tile row.
const VECS: usize = 3;
/// Tile height: 8 rows × 3 vectors = 24 accumulators, leaving 3 registers
/// for a row of `B` and one for the broadcast element of `A` (28 of 32).
pub(crate) const MR: usize = 8;
/// Tile width.
pub(crate) const NR: usize = VECS * LANES;
/// Width in bits of the FMA this tier issues.
pub(crate) const VECTOR_BITS: u32 = 512;

/// The register tile: `acc[r][c] += ap[l·MR + r] · bp[l·NR + c]` for
/// `l` in `0..kc`, in that order.
#[inline]
pub(crate) fn microkernel(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    assert!(ap.len() >= kc * MR && bp.len() >= kc * NR, "packed panel shorter than kc steps");
    // SAFETY: this module is compiled only with avx512f and fma enabled
    // for the whole build, so the CPU features `tile` names are present.
    unsafe { tile(kc, ap, bp, acc) }
}

#[target_feature(enable = "avx512f,fma")]
fn tile(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    let mut c = [[_mm512_set1_pd(0.0); VECS]; MR];
    for (cr, row) in c.iter_mut().zip(acc.iter()) {
        for (v, cv) in cr.iter_mut().enumerate() {
            // SAFETY: `row` is `[f64; NR]` and `v·LANES + LANES <= NR`.
            *cv = unsafe { _mm512_loadu_pd(row.as_ptr().add(v * LANES)) };
        }
    }
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        let mut bv = [_mm512_set1_pd(0.0); VECS];
        for (v, bvec) in bv.iter_mut().enumerate() {
            // SAFETY: `b` is a `chunks_exact(NR)` chunk, so it holds `NR`
            // elements and `v·LANES + LANES <= NR`.
            *bvec = unsafe { _mm512_loadu_pd(b.as_ptr().add(v * LANES)) };
        }
        for (cr, &ar) in c.iter_mut().zip(a) {
            let av = _mm512_set1_pd(ar);
            for (cv, &bvec) in cr.iter_mut().zip(&bv) {
                *cv = _mm512_fmadd_pd(av, bvec, *cv);
            }
        }
    }
    for (cr, row) in c.iter().zip(acc.iter_mut()) {
        for (v, &cv) in cr.iter().enumerate() {
            // SAFETY: `row` is `[f64; NR]` and `v·LANES + LANES <= NR`.
            unsafe { _mm512_storeu_pd(row.as_mut_ptr().add(v * LANES), cv) };
        }
    }
}

/// Fused multiply-adds one [`fma_burst`] step issues: the tile's 24
/// independent accumulator registers, once each.
pub(crate) const BURST_MADDS: usize = MR * NR;

/// `steps` rounds of one `_mm512_fmadd_pd` on each of 24 independent
/// accumulators, with no memory traffic: what the microkernel's inner
/// loop would reach if loads were free. Returns a value that depends on
/// every accumulator, so the work cannot be removed.
pub(crate) fn fma_burst(steps: usize, x: f64, y: f64) -> f64 {
    // SAFETY: as in `microkernel` — avx512f and fma are enabled for the
    // whole build wherever this module is compiled.
    unsafe { burst(steps, x, y) }
}

#[target_feature(enable = "avx512f,fma")]
fn burst(steps: usize, x: f64, y: f64) -> f64 {
    let (xv, yv) = (_mm512_set1_pd(x), _mm512_set1_pd(y));
    let mut c: [__m512d; MR * VECS] = std::array::from_fn(|i| _mm512_set1_pd(i as f64));
    for _ in 0..steps {
        for cv in &mut c {
            *cv = _mm512_fmadd_pd(xv, *cv, yv);
        }
    }
    let sum = c.into_iter().reduce(|s, cv| _mm512_add_pd(s, cv)).expect("24 accumulators");
    _mm512_reduce_add_pd(sum)
}

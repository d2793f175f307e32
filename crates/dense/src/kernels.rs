//! Local matmul kernels: the tiered dispatch.
//!
//! These perform the per-processor computation of every parallel algorithm
//! (line 6 of Algorithm 1). The tiers, from pinned oracle to fastest:
//!
//! * [`Kernel::Naive`] — `i-k-j` over groups of four rows of `C`: each
//!   pass over a row of `B` (contiguous, as are the rows of `C`) updates
//!   four rows, so `B` is read once per four rows of `A` rather than once
//!   per row. It stays the **pinned oracle** because it is still the
//!   textbook sum — one `madd` per term, `k` increasing, nothing packed,
//!   padded or re-associated — and every other tier must produce a
//!   bitwise-identical product (see below).
//! * [`Kernel::Blocked`] — packed-panel GEMM with a register-tiled
//!   microkernel (BLIS-style `jc`/`pc`/`ic`/`jr`/`ir` loop nest in the
//!   `blocked` module): an explicit AVX-512 tile where the build target
//!   has one, a safe autovectorised tile everywhere else. The fast tier.
//! * [`Kernel::Auto`] — runtime selection by arithmetic intensity:
//!   `Naive` up to [`AUTO_NAIVE_MAX_INTENSITY`] multiply-adds per matrix
//!   element touched, `Blocked` above it.
//!
//! # Bitwise identity across tiers
//!
//! Every tier accumulates each output element `C[i][j]` over the
//! contracted index `k` in **strictly increasing order**, one `madd`
//! per term — a single fused multiply-add where the build target has
//! hardware FMA, a `mul` then an `add` where it has not, and the same one
//! of the two in every tier of a build — with no private re-associated
//! partial sums (the blocked microkernel loads the live `C` tile into its
//! accumulator registers before the `k` loop and stores it back after).
//! IEEE-754 arithmetic is deterministic, so all tiers produce
//! **bitwise-identical** products for arbitrary `f64` inputs — not merely
//! for the exact integer matrices used by the conformance tests.
//! `tests/proptests.rs` pins this on fractional inputs and the
//! kernel-invariance suite pins that tier choice never alters simulator
//! meters or traces.
//!
//! # Strided operands
//!
//! [`gemm_acc`] reads `A` and `B` as [`MatRef`]s — rows `stride`
//! elements apart — so a block of a larger matrix is multiplied where it
//! lies ([`Block2::view`](crate::Block2::view)) instead of being copied
//! out first. `Naive` steps through the operand's rows by its stride;
//! `Blocked` already copies every element into packed panels and reads
//! the source rows through the stride while packing. Neither body
//! changes which `madd` terms an element sees or their order, so a block
//! read in place and the same block copied out give bitwise-identical
//! products. [`gemm`] is the `stride == cols` case on two matrices.
//!
//! # Selecting a tier
//!
//! Algorithm configs carry a `Kernel`; the CLI resolves the one its runs
//! use from the [`KERNEL_ENV`] (`PMM_KERNEL`) environment variable via
//! [`kernel_from_env`] and rejects a name that is not a tier.
//!
//! ```
//! use pmm_dense::{gemm, random_matrix, Kernel};
//!
//! let a = random_matrix(33, 65, 1); // fractional entries
//! let b = random_matrix(65, 17, 2);
//! let oracle = gemm(&a, &b, Kernel::Naive);
//! for tier in Kernel::ALL {
//!     assert_eq!(gemm(&a, &b, tier), oracle); // bitwise, not approximate
//! }
//! assert_eq!("blocked".parse::<Kernel>(), Ok(Kernel::Blocked));
//! assert_eq!(Kernel::Blocked.to_string(), "blocked");
//! ```

use std::fmt;
use std::str::FromStr;

use crate::blocked::gemm_blocked;
use crate::matrix::{MatRef, Matrix};

/// [`Kernel::Auto`] stays on `Naive` while the product does at most
/// this many multiply-adds per element of `A`, `B` and `C`
/// (`m·k·n / (m·k + k·n + m·n)`; `n/3` for a cube) and switches to
/// `Blocked` above it. `Blocked` copies every element of `A` and `B`
/// into a packed panel and pads `m` up to its register tile, which only
/// pays off once each element is reused: the measured crossover of the
/// sweep in `docs/PERFORMANCE.md` (cubes from n = 10 up; a 1 × k × n or
/// m × 1 × n product never). `Naive` reads `B` once per four rows of
/// `C`, which keeps it 1.3–2.3× ahead of `Blocked` on every product of
/// intensity 2–3 in that sweep.
pub const AUTO_NAIVE_MAX_INTENSITY: f64 = 3.0;

/// Environment variable selecting the default kernel tier
/// (`naive | blocked | auto`), consulted by
/// [`kernel_from_env`]. An explicit `Kernel` in an algorithm config
/// always wins.
pub const KERNEL_ENV: &str = "PMM_KERNEL";

/// The one multiply-add every kernel tier uses per
/// accumulated term. On targets with hardware FMA it compiles to a single
/// fused `vfmadd` (one rounding); elsewhere it is a plain IEEE
/// `mul`-then-`add` (two roundings) — `f64::mul_add` without hardware
/// support would fall back to a slow soft-float routine, so the `cfg!`
/// (resolved at compile time) keeps that path out. Because every tier
/// funnels through this helper, products stay bitwise identical across
/// tiers on *any* build; the exact bits depend on the build target's FMA
/// capability.
#[inline(always)]
pub(crate) fn madd(a: f64, b: f64, c: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Kernel selector. See the [module docs](self) for the tier guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// `i-k-j` over groups of four rows of `C` — the pinned oracle.
    Naive,
    /// Packed-panel microkernel GEMM (the fast tier).
    Blocked,
    /// Pick `Naive` or `Blocked` from the product's shape at run time.
    #[default]
    Auto,
}

impl Kernel {
    /// Every selectable tier, oracle first (handy for sweeps and
    /// conformance loops).
    pub const ALL: [Kernel; 3] = [Kernel::Naive, Kernel::Blocked, Kernel::Auto];

    /// The concrete tier `Auto` resolves to for an `m·k·n`-flop product.
    pub fn resolve(self, m: usize, k: usize, n: usize) -> Kernel {
        match self {
            Kernel::Auto => {
                // Elements touched per multiply-add: (mk + kn + mn) / mkn.
                let touched_per_madd = 1.0 / m as f64 + 1.0 / k as f64 + 1.0 / n as f64;
                if AUTO_NAIVE_MAX_INTENSITY * touched_per_madd < 1.0 {
                    Kernel::Blocked
                } else {
                    Kernel::Naive
                }
            }
            other => other,
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Naive => "naive",
            Kernel::Blocked => "blocked",
            Kernel::Auto => "auto",
        })
    }
}

impl FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Kernel, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Ok(Kernel::Naive),
            "blocked" | "micro" | "microkernel" => Ok(Kernel::Blocked),
            "auto" => Ok(Kernel::Auto),
            other => {
                Err(format!("unrecognized kernel {other:?}: expected one of naive|blocked|auto"))
            }
        }
    }
}

/// Resolve the kernel tier from [`KERNEL_ENV`]: `default` when the
/// variable is unset, otherwise the tier it names. A value that names no
/// tier is an error (naming the variable, the value and the accepted
/// names), never a silent fall-back to `default` — the caller asked for
/// a specific kernel and would otherwise measure or verify another.
pub fn kernel_from_env(default: Kernel) -> Result<Kernel, String> {
    match std::env::var_os(KERNEL_ENV) {
        None => Ok(default),
        Some(v) => v.to_string_lossy().parse().map_err(|e| format!("{KERNEL_ENV}: {e}")),
    }
}

/// `C = A·B` (allocates the result).
pub fn gemm(a: &Matrix, b: &Matrix, kernel: Kernel) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_acc(&mut c, a, b, kernel);
    c
}

/// `C += A·B`. `A` and `B` are a `&Matrix` or a [`MatRef`] — a block read
/// in place through its row stride ([`Block2::view`](crate::Block2::view)),
/// multiplied with the same `madd` sequence as the block copied out.
///
/// Panics if shapes are incompatible.
pub fn gemm_acc<'a, 'b>(
    c: &mut Matrix,
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'b>>,
    kernel: Kernel,
) {
    let (a, b) = (a.into(), b.into());
    assert_eq!(a.cols(), b.rows(), "inner dimensions disagree");
    assert_eq!(c.rows(), a.rows(), "C rows disagree");
    assert_eq!(c.cols(), b.cols(), "C cols disagree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match kernel.resolve(m, k, n) {
        Kernel::Naive | Kernel::Auto => naive(c, a, b),
        Kernel::Blocked => gemm_blocked(c.as_mut_slice(), a, b),
    }
}

/// Rows of `C` the oracle updates per pass over a row of `B`: the pass
/// reads `B` once per this many rows of `A` instead of once per row.
const NAIVE_ROWS: usize = 4;

/// The oracle: `i-k-j` over groups of [`NAIVE_ROWS`] rows of `C`. For
/// each `k`, one pass over row `k` of `B` adds `A[i][k]·B[k][j]` to every
/// row `i` of the group; the `m mod 4` rows left at the bottom take the
/// same loop one row at a time. Either way each `C[i][j]` sees one `madd`
/// per term in strictly increasing `k` — the textbook loop's sequence.
fn naive(c: &mut Matrix, a: MatRef<'_>, b: MatRef<'_>) {
    let n = b.cols();
    let b_rows = || (0..b.rows()).map(|l| b.row(l));
    let mut groups = c.as_mut_slice().chunks_exact_mut(NAIVE_ROWS * n);
    for (g, cg) in (&mut groups).enumerate() {
        let i = g * NAIVE_ROWS;
        let (c0, rest) = cg.split_at_mut(n);
        let (c1, rest) = rest.split_at_mut(n);
        let (c2, c3) = rest.split_at_mut(n);
        let a_cols = a.row(i).iter().zip(a.row(i + 1)).zip(a.row(i + 2)).zip(a.row(i + 3));
        for ((((&x0, &x1), &x2), &x3), brow) in a_cols.zip(b_rows()) {
            let cols = c0.iter_mut().zip(c1.iter_mut()).zip(c2.iter_mut()).zip(c3.iter_mut());
            for ((((y0, y1), y2), y3), &bj) in cols.zip(brow) {
                *y0 = madd(x0, bj, *y0);
                *y1 = madd(x1, bj, *y1);
                *y2 = madd(x2, bj, *y2);
                *y3 = madd(x3, bj, *y3);
            }
        }
    }
    let rest = groups.into_remainder();
    let first = a.rows() - rest.len() / n;
    for (i, crow) in (first..).zip(rest.chunks_exact_mut(n)) {
        for (&aik, brow) in a.row(i).iter().zip(b_rows()) {
            for (y, &bj) in crow.iter_mut().zip(brow) {
                *y = madd(aik, bj, *y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_int_matrix, random_matrix};
    use crate::Block2;

    /// The one-row textbook loop `naive` replaced — its oracle.
    fn textbook(c: &mut Matrix, a: MatRef<'_>, b: MatRef<'_>) {
        let n = b.cols();
        for i in 0..a.rows() {
            for (l, &aik) in a.row(i).iter().enumerate() {
                let brow = b.row(l);
                let crow = c.row_mut(i);
                for j in 0..n {
                    crow[j] = madd(aik, brow[j], crow[j]);
                }
            }
        }
    }

    #[test]
    fn naive_is_the_textbook_loop_bitwise() {
        // Every remainder of m mod 4, strided operands (blocks of wider
        // matrices read in place) and a live fractional C.
        for m in 0..=9usize {
            for k in [1usize, 3, 8, 33] {
                for n in [1usize, 3, 8, 33] {
                    let seed = (100 * m + 10 * k + n) as u64;
                    let big_a = random_matrix(m + 2, k + 5, seed);
                    let big_b = random_matrix(k + 1, n + 7, seed + 1);
                    let a = Block2 { rows: 1..m + 1, cols: 2..k + 2 }.view(&big_a);
                    let b = Block2 { rows: 1..k + 1, cols: 3..n + 3 }.view(&big_b);
                    assert!(a.stride() > a.cols() && b.stride() > b.cols());
                    let init = random_matrix(m, n, seed + 2);
                    let mut want = init.clone();
                    textbook(&mut want, a, b);
                    let mut got = init;
                    gemm_acc(&mut got, a, b, Kernel::Naive);
                    assert_eq!(got, want, "naive is not the textbook loop at {m}x{k}x{n}");
                }
            }
        }
    }

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|l| a[(i, l)] * b[(l, j)]).sum()
        })
    }

    #[test]
    fn tiny_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = gemm(&a, &b, Kernel::Naive);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn kernels_agree_with_reference_on_integer_matrices() {
        // Integer-valued entries ⇒ exact f64 arithmetic ⇒ strict equality.
        for (m, k, n, seed) in
            [(5usize, 7usize, 3usize, 1u64), (64, 64, 64, 2), (65, 130, 67, 3), (1, 100, 1, 4)]
        {
            let a = random_int_matrix(m, k, -4..5, seed);
            let b = random_int_matrix(k, n, -4..5, seed + 100);
            let want = reference(&a, &b);
            for kern in Kernel::ALL {
                let got = gemm(&a, &b, kern);
                assert_eq!(got, want, "{kern:?} disagrees for {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn all_tiers_bitwise_identical_on_fractional_matrices() {
        // The stronger guarantee: identical accumulation order makes the
        // tiers agree bitwise even where f64 arithmetic rounds.
        for (m, k, n, seed) in [
            (130usize, 257usize, 129usize, 1u64),
            (97, 301, 64, 2),
            (1, 500, 9, 3),
            (260, 3, 260, 4),
        ] {
            let a = random_matrix(m, k, seed);
            let b = random_matrix(k, n, seed + 100);
            let oracle = gemm(&a, &b, Kernel::Naive);
            for kern in Kernel::ALL {
                let got = gemm(&a, &b, kern);
                assert_eq!(got, oracle, "{kern:?} not bitwise for {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = random_int_matrix(10, 10, 0..3, 7);
        let b = random_int_matrix(10, 10, 0..3, 8);
        let mut c = Matrix::from_fn(10, 10, |_, _| 1.0);
        gemm_acc(&mut c, &a, &b, Kernel::Blocked);
        let mut want = reference(&a, &b);
        for x in want.as_mut_slice() {
            *x += 1.0;
        }
        assert_eq!(c, want);
    }

    #[test]
    fn gemm_acc_starts_from_live_c_in_every_tier() {
        // The blocked microkernel must load the live C tile before its k
        // loop — seed C with fractional values so a kernel that zeroes or
        // re-associates would diverge bitwise.
        let a = random_matrix(150, 70, 1);
        let b = random_matrix(70, 140, 2);
        let init = random_matrix(150, 140, 3);
        let mut oracle = init.clone();
        gemm_acc(&mut oracle, &a, &b, Kernel::Naive);
        for kern in Kernel::ALL {
            let mut c = init.clone();
            gemm_acc(&mut c, &a, &b, kern);
            assert_eq!(c, oracle, "{kern:?} diverges when accumulating into live C");
        }
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        for kern in Kernel::ALL {
            let c = gemm(&a, &b, kern);
            assert_eq!((c.rows(), c.cols()), (0, 3));
        }

        let a = Matrix::from_vec(1, 1, vec![3.0]);
        let b = Matrix::from_vec(1, 1, vec![4.0]);
        for kern in Kernel::ALL {
            assert_eq!(gemm(&a, &b, kern).as_slice(), &[12.0]);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        gemm(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2), Kernel::Naive);
    }

    #[test]
    fn display_from_str_round_trip() {
        for kern in Kernel::ALL {
            assert_eq!(kern.to_string().parse::<Kernel>(), Ok(kern));
        }
        assert!("fused".parse::<Kernel>().is_err());
        // The retired tiers' names are errors, not aliases of a survivor.
        for gone in ["tiled", "recursive", "oblivious", "parallel", "rayon"] {
            let err = gone.parse::<Kernel>().expect_err("retired tier name must not parse");
            assert!(err.contains("naive|blocked|auto"), "{err}");
        }
    }

    #[test]
    fn auto_resolves_by_intensity() {
        assert_eq!(Kernel::Auto.resolve(9, 9, 9), Kernel::Naive);
        assert_eq!(Kernel::Auto.resolve(10, 10, 10), Kernel::Blocked);
        assert_eq!(Kernel::Auto.resolve(64, 3, 64), Kernel::Naive);
        assert_eq!(Kernel::Auto.resolve(512, 512, 512), Kernel::Blocked);
        // No reuse to pay for packing, whatever the volume.
        assert_eq!(Kernel::Auto.resolve(1, 4096, 4096), Kernel::Naive);
        assert_eq!(Kernel::Auto.resolve(4096, 2, 4096), Kernel::Naive);
        assert_eq!(Kernel::Auto.resolve(usize::MAX, usize::MAX, 1), Kernel::Naive);
        assert_eq!(Kernel::Auto.resolve(0, 64, 64), Kernel::Naive);
        // Non-auto tiers resolve to themselves.
        assert_eq!(Kernel::Blocked.resolve(2, 2, 2), Kernel::Blocked);
    }

    #[test]
    fn env_selection_parses_all_names() {
        // `kernel_from_env` itself reads the process environment (covered
        // by the CLI tests); here pin the parser it relies on.
        for (name, want) in
            [("naive", Kernel::Naive), (" BLOCKED ", Kernel::Blocked), ("auto", Kernel::Auto)]
        {
            assert_eq!(name.parse::<Kernel>(), Ok(want));
        }
    }
}

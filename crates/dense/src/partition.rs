//! Block partitioning of index ranges and matrices.
//!
//! Everything the parallel algorithms need to agree on ownership without
//! communicating: which rows/columns of a global matrix belong to which
//! grid coordinate, and how a 2D block is further chopped into the
//! per-rank chunks of the initial/final data distributions of
//! Algorithm 1.
//!
//! A [`Block2`] of a global matrix is read three ways: copied out whole
//! ([`Block2::extract`]), as one fiber member's contiguous share of its
//! row-major elements ([`Block2::chunk`], the initial distribution;
//! [`Block2::put_chunk`] writes a share back, which is how `C` is
//! assembled), or in place ([`Block2::view`], a strided operand the
//! kernels multiply without a copy — what Algorithm 1 does with an
//! operand whose gathering fiber has one member).
//!
//! Conventions: `block_range(n, parts, i)` splits `0..n` into `parts`
//! nearly-equal contiguous ranges, giving the first `n % parts` ranges one
//! extra element. When `parts` divides `n` this is the exact uniform
//! partition assumed by the paper's §5 analysis.

use std::ops::Range;

use crate::matrix::{MatRef, Matrix};

/// The contiguous index range of part `i` of `0..n` split into `parts`.
pub fn block_range(n: usize, parts: usize, i: usize) -> Range<usize> {
    assert!(parts >= 1, "parts must be >= 1");
    assert!(i < parts, "part index out of range");
    let base = n / parts;
    let rem = n % parts;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    start..start + len
}

/// Length of part `i` of `0..n` split into `parts`.
pub fn block_len(n: usize, parts: usize, i: usize) -> usize {
    block_range(n, parts, i).len()
}

/// A 2D block of a global matrix: row and column ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block2 {
    /// Global row range.
    pub rows: Range<usize>,
    /// Global column range.
    pub cols: Range<usize>,
}

impl Block2 {
    /// The `(i, j)` block of an `rows × cols` matrix partitioned into
    /// `pr × pc` blocks.
    pub fn of(rows: usize, cols: usize, pr: usize, pc: usize, i: usize, j: usize) -> Block2 {
        Block2 { rows: block_range(rows, pr, i), cols: block_range(cols, pc, j) }
    }

    /// Block height.
    pub fn height(&self) -> usize {
        self.rows.len()
    }

    /// Block width.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Words in the block.
    pub fn words(&self) -> usize {
        self.height() * self.width()
    }

    /// Extract this block from `m` as an owned matrix.
    pub fn extract(&self, m: &Matrix) -> Matrix {
        m.sub(self.rows.start, self.cols.start, self.height(), self.width())
    }

    /// This block of `m` read where it lies — what [`Block2::extract`]
    /// copies out, as a [`MatRef`] the kernels multiply in place.
    pub fn view<'m>(&self, m: &'m Matrix) -> MatRef<'m> {
        m.view(self.rows.start, self.cols.start, self.height(), self.width())
    }

    /// Copy out member `idx`'s [`chunk_of_block`] share of this block of
    /// `m` — `self.extract(m).into_vec()[chunk_of_block(self.words(),
    /// chunks, idx)]` without materializing the block: only the chunk's
    /// elements are read, one run per block row it touches.
    pub fn chunk(&self, m: &Matrix, chunks: usize, idx: usize) -> Vec<f64> {
        self.assert_within(m);
        let mut out = Vec::with_capacity(chunk_of_block(self.words(), chunks, idx).len());
        for (r, cols) in self.chunk_runs(chunks, idx) {
            out.extend_from_slice(&m.row(r)[cols]);
        }
        out
    }

    /// Write member `idx`'s share back into this block of `m`, one run
    /// per block row it touches: the inverse of [`Block2::chunk`].
    pub fn put_chunk(&self, m: &mut Matrix, chunks: usize, idx: usize, chunk: &[f64]) {
        self.assert_within(m);
        let want = chunk_of_block(self.words(), chunks, idx).len();
        assert_eq!(chunk.len(), want, "chunk {idx} of {chunks} has the wrong length");
        let mut rest = chunk;
        for (r, cols) in self.chunk_runs(chunks, idx) {
            let (run, tail) = rest.split_at(cols.len());
            m.row_mut(r)[cols].copy_from_slice(run);
            rest = tail;
        }
    }

    fn assert_within(&self, m: &Matrix) {
        assert!(self.rows.end <= m.rows() && self.cols.end <= m.cols(), "block out of range");
    }

    /// Member `idx`'s share as `(global row, global column range)` runs,
    /// in the block's row-major order.
    fn chunk_runs(
        &self,
        chunks: usize,
        idx: usize,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let w = self.width();
        let range = chunk_of_block(self.words(), chunks, idx);
        let mut e = range.start;
        std::iter::from_fn(move || {
            (e < range.end).then(|| {
                let (r, c) = (e / w, e % w);
                let run = (w - c).min(range.end - e);
                e += run;
                let c0 = self.cols.start + c;
                (self.rows.start + r, c0..c0 + run)
            })
        })
    }

    /// Paste `block` into `m` at this block's position.
    pub fn insert(&self, m: &mut Matrix, block: &Matrix) {
        assert_eq!((block.rows(), block.cols()), (self.height(), self.width()));
        m.set_sub(self.rows.start, self.cols.start, block);
    }
}

/// The chunk of a flattened (row-major) 2D block assigned to member
/// `chunk_idx` of `chunks` — the initial distribution of Algorithm 1, in
/// which block `A_{p1',p2'}` is "distributed evenly across processors
/// `(p1', p2', :)`" (§5): each fiber member holds a contiguous run of the
/// block's row-major elements.
pub fn chunk_of_block(block_words: usize, chunks: usize, chunk_idx: usize) -> Range<usize> {
    block_range(block_words, chunks, chunk_idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_exact_division() {
        assert_eq!(block_range(12, 3, 0), 0..4);
        assert_eq!(block_range(12, 3, 1), 4..8);
        assert_eq!(block_range(12, 3, 2), 8..12);
    }

    #[test]
    fn block_range_with_remainder_spreads_extras_first() {
        // 10 into 3: 4, 3, 3
        assert_eq!(block_range(10, 3, 0), 0..4);
        assert_eq!(block_range(10, 3, 1), 4..7);
        assert_eq!(block_range(10, 3, 2), 7..10);
    }

    #[test]
    fn block_ranges_tile_the_interval() {
        for n in [0usize, 1, 7, 12, 100] {
            for parts in [1usize, 2, 3, 5, 12] {
                let mut next = 0usize;
                for i in 0..parts {
                    let r = block_range(n, parts, i);
                    assert_eq!(r.start, next, "n={n} parts={parts} i={i}");
                    next = r.end;
                    assert!(r.len() >= n / parts && r.len() <= n / parts + 1);
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn more_parts_than_elements_gives_empty_tail() {
        assert_eq!(block_range(2, 4, 0), 0..1);
        assert_eq!(block_range(2, 4, 1), 1..2);
        assert_eq!(block_range(2, 4, 2), 2..2);
        assert_eq!(block_len(2, 4, 3), 0);
    }

    #[test]
    fn block2_extract_insert_roundtrip() {
        let m = Matrix::from_fn(6, 8, |r, c| (r * 8 + c) as f64);
        let b = Block2::of(6, 8, 2, 2, 1, 0);
        assert_eq!(b.rows, 3..6);
        assert_eq!(b.cols, 0..4);
        assert_eq!(b.words(), 12);
        let sub = b.extract(&m);
        assert_eq!(sub[(0, 0)], m[(3, 0)]);
        let mut z = Matrix::zeros(6, 8);
        b.insert(&mut z, &sub);
        assert_eq!(z[(4, 2)], m[(4, 2)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn chunk_crosses_rows_mid_run() {
        // Block rows 3..6 × cols 4..8 of a 6 × 8 matrix: 12 words in 5
        // chunks of 3, 3, 2, 2, 2 — chunk 1 is elements 3..6, the last
        // of block row 0 and the first two of block row 1.
        let m = Matrix::from_fn(6, 8, |r, c| (r * 8 + c) as f64);
        let b = Block2::of(6, 8, 2, 2, 1, 1);
        assert_eq!(b.chunk(&m, 5, 1), vec![31.0, 36.0, 37.0]);
        let all: Vec<f64> = (0..5).flat_map(|i| b.chunk(&m, 5, i)).collect();
        assert_eq!(all, b.extract(&m).into_vec());
    }

    #[test]
    fn put_chunk_inverts_chunk_on_ragged_blocks() {
        // 13 × 11 in ragged 3 × 2 blocks (5/4/4 rows, 6/5 cols); chunk
        // counts that divide no block, one that splits rows mid-run, and
        // more chunks than a small block has words.
        let m = Matrix::from_fn(13, 11, |r, c| (r * 11 + c) as f64 + 0.5);
        for p2 in [1usize, 3, 7] {
            let mut re = Matrix::zeros(13, 11);
            for i in 0..3 {
                for j in 0..2 {
                    let b = Block2::of(13, 11, 3, 2, i, j);
                    for idx in 0..p2 {
                        b.put_chunk(&mut re, p2, idx, &b.chunk(&m, p2, idx));
                    }
                }
            }
            assert_eq!(re, m, "p2 = {p2}");
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn put_chunk_rejects_a_share_of_the_wrong_length() {
        let b = Block2::of(6, 8, 2, 2, 1, 1);
        b.put_chunk(&mut Matrix::zeros(6, 8), 5, 1, &[0.0; 2]);
    }

    #[test]
    fn view_reads_the_block_in_place() {
        let m = Matrix::from_fn(6, 8, |r, c| (r * 8 + c) as f64);
        let v = Block2::of(6, 8, 2, 2, 1, 1).view(&m);
        assert_eq!((v.rows(), v.cols(), v.stride()), (3, 4, 8));
        assert_eq!(v.row(2), &m.row(5)[4..]);
        // An empty block on the bottom-right edge is an empty view.
        let e = Block2 { rows: 6..6, cols: 8..8 }.view(&m);
        assert_eq!((e.rows(), e.cols()), (0, 0));
    }

    #[test]
    fn blocks_tile_the_matrix() {
        let (rows, cols, pr, pc) = (10usize, 7usize, 3usize, 2usize);
        let mut covered = vec![vec![0u32; cols]; rows];
        for i in 0..pr {
            for j in 0..pc {
                let b = Block2::of(rows, cols, pr, pc, i, j);
                for r in b.rows.clone() {
                    for c in b.cols.clone() {
                        covered[r][c] += 1;
                    }
                }
            }
        }
        assert!(covered.iter().flatten().all(|&x| x == 1));
    }

    #[test]
    fn chunks_tile_a_block() {
        let total = 17usize;
        let chunks = 5usize;
        let mut next = 0;
        for i in 0..chunks {
            let r = chunk_of_block(total, chunks, i);
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, total);
    }
}

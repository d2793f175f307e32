//! The per-member word counts of the v-collectives, and where each
//! member's block lies in the concatenation.

use std::ops::Range;

/// How many words each member of a communicator contributes to (or is
/// left with after) a v-collective, in communicator order. Every member
/// passes the same counts (the MPI convention).
///
/// Algorithm 1 and the uniform wrappers pass [`Counts::Even`], which
/// costs no memory per member; a `&[usize]` or `&Vec<usize>` converts to
/// [`Counts::Each`]. An even split and the explicit vector of the same
/// counts give the same values, meters and clocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counts<'c> {
    /// `total` words split evenly over the `p` members: `total / p` each,
    /// the first `total % p` members one more — the split of
    /// `pmm_dense::block_range(total, p, i)`, Algorithm 1's §5
    /// distribution of a block over its fiber.
    Even(usize),
    /// One count per member (`len() == p`).
    Each(&'c [usize]),
}

impl<'c> From<&'c [usize]> for Counts<'c> {
    fn from(counts: &'c [usize]) -> Counts<'c> {
        Counts::Each(counts)
    }
}

impl<'c> From<&'c Vec<usize>> for Counts<'c> {
    fn from(counts: &'c Vec<usize>) -> Counts<'c> {
        Counts::Each(counts)
    }
}

impl<'c, const N: usize> From<&'c [usize; N]> for Counts<'c> {
    fn from(counts: &'c [usize; N]) -> Counts<'c> {
        Counts::Each(counts)
    }
}

/// [`Counts`] resolved for a `p`-member communicator: the word range of
/// any member's block in O(1). An even split stores its base and
/// remainder, not a vector; explicit counts store their prefix offsets.
pub(crate) enum Layout {
    Even { base: usize, rem: usize, total: usize },
    Each(Vec<usize>),
}

impl Layout {
    /// Panics if explicit counts do not name `p` members.
    pub(crate) fn new(counts: Counts<'_>, p: usize) -> Layout {
        match counts {
            Counts::Even(total) => Layout::Even { base: total / p, rem: total % p, total },
            Counts::Each(counts) => {
                assert_eq!(counts.len(), p, "counts length must equal communicator size");
                Layout::Each(offsets(counts))
            }
        }
    }

    /// Words ahead of member `i`'s block; `start(p)` is the total.
    pub(crate) fn start(&self, i: usize) -> usize {
        match self {
            Layout::Even { base, rem, .. } => i * base + i.min(*rem),
            Layout::Each(off) => off[i],
        }
    }

    /// The words of members `lo..hi`, contiguous in the concatenation.
    pub(crate) fn span(&self, lo: usize, hi: usize) -> Range<usize> {
        self.start(lo)..self.start(hi)
    }

    /// The words of member `i`'s block.
    pub(crate) fn block(&self, i: usize) -> Range<usize> {
        self.span(i, i + 1)
    }

    /// Member `i`'s count.
    pub(crate) fn len(&self, i: usize) -> usize {
        self.block(i).len()
    }

    /// The sum of the counts.
    pub(crate) fn total(&self) -> usize {
        match self {
            Layout::Even { total, .. } => *total,
            Layout::Each(off) => off[off.len() - 1],
        }
    }
}

/// Prefix offsets of a `counts` array: `offsets(&[2,3,1]) == [0,2,5,6]`.
/// The last element is the total.
fn offsets(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_accumulate() {
        assert_eq!(offsets(&[2, 3, 1]), vec![0, 2, 5, 6]);
        assert_eq!(offsets(&[]), vec![0]);
        assert_eq!(offsets(&[0, 0, 4]), vec![0, 0, 0, 4]);
    }

    #[test]
    fn an_even_split_lays_out_as_its_explicit_counts() {
        for p in 1..12 {
            for total in [0, 1, p - 1, p, p + 1, 3 * p + 2, 100] {
                let counts: Vec<usize> =
                    (0..p).map(|i| total / p + usize::from(i < total % p)).collect();
                let (even, each) =
                    (Layout::new(Counts::Even(total), p), Layout::new(Counts::from(&counts), p));
                assert_eq!(even.total(), each.total(), "p={p} total={total}");
                for lo in 0..=p {
                    assert_eq!(even.start(lo), each.start(lo), "p={p} total={total} start({lo})");
                }
            }
        }
    }
}

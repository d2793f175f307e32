//! Logical 3-dimensional processor grids (§5).
//!
//! Algorithm 1 organizes `P` processors into a `p1 × p2 × p3` grid with
//! `p1·p2·p3 = P`. Axis `i` of the grid is aligned with matrix dimension
//! `n_i` of the multiplication `(n1 × n2) · (n2 × n3)`:
//!
//! * matrix `A` lives on the `(1,2)`-face — it is partitioned across the
//!   grid's axes 0 and 1 and replicated (gathered) along axis 2;
//! * matrix `B` lives on the `(2,3)`-face — partitioned across axes 1 and 2,
//!   gathered along axis 0;
//! * matrix `C` lives on the `(1,3)`-face — partitioned across axes 0 and 2,
//!   reduce-scattered along axis 1.
//!
//! A **fiber** of the grid is the set of processors obtained by fixing two
//! coordinates and letting the third vary — exactly the communicator of one
//! collective in Algorithm 1 (the arrows of Fig. 1).

use std::fmt;

/// A coordinate in a 3D processor grid, `0`-based in each axis.
pub type Coord3 = [usize; 3];

/// A `p1 × p2 × p3` logical processor grid.
///
/// Ranks are assigned in row-major (lexicographic) order of coordinates:
/// rank = `c[0]·p2·p3 + c[1]·p3 + c[2]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grid3 {
    dims: [usize; 3],
}

impl Grid3 {
    /// Create a grid; every dimension must be at least 1.
    pub fn new(p1: usize, p2: usize, p3: usize) -> Grid3 {
        assert!(p1 >= 1 && p2 >= 1 && p3 >= 1, "grid dimensions must be >= 1");
        Grid3 { dims: [p1, p2, p3] }
    }

    /// Grid from a dimension array.
    pub fn from_dims(dims: [usize; 3]) -> Grid3 {
        Grid3::new(dims[0], dims[1], dims[2])
    }

    /// The grid dimensions `[p1, p2, p3]`.
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total number of processors `P = p1·p2·p3`.
    #[inline]
    pub fn size(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// How many of the three grid dimensions exceed 1 (3 ⇒ "3D grid",
    /// 2 ⇒ "2D", 1 ⇒ "1D", 0 ⇒ a single processor).
    pub fn effective_dimensionality(&self) -> usize {
        self.dims.iter().filter(|&&d| d > 1).count()
    }

    /// Rank of the processor at `coord` (row-major order).
    ///
    /// Panics if any coordinate is out of range.
    #[inline]
    pub fn rank_of(&self, coord: Coord3) -> usize {
        for a in 0..3 {
            assert!(coord[a] < self.dims[a], "coordinate {coord:?} out of grid {self}");
        }
        (coord[0] * self.dims[1] + coord[1]) * self.dims[2] + coord[2]
    }

    /// Coordinate of processor `rank`.
    ///
    /// Panics if `rank >= self.size()`.
    #[inline]
    pub fn coord_of(&self, rank: usize) -> Coord3 {
        assert!(rank < self.size(), "rank {rank} out of grid {self}");
        let c2 = rank % self.dims[2];
        let r = rank / self.dims[2];
        let c1 = r % self.dims[1];
        let c0 = r / self.dims[1];
        [c0, c1, c2]
    }

    /// Iterate over all coordinates in rank order.
    pub fn coords(&self) -> impl Iterator<Item = Coord3> + '_ {
        (0..self.size()).map(move |r| self.coord_of(r))
    }

    /// The ranks of the fiber through `coord` along `axis`: all processors
    /// agreeing with `coord` on the other two axes. The result has length
    /// `dims[axis]` and is sorted by the varying coordinate, so position
    /// `i` holds the processor whose `axis`-coordinate is `i`.
    pub fn fiber(&self, coord: Coord3, axis: usize) -> Vec<usize> {
        assert!(axis < 3, "axis must be 0, 1 or 2");
        (0..self.dims[axis])
            .map(|i| {
                let mut c = coord;
                c[axis] = i;
                self.rank_of(c)
            })
            .collect()
    }

    /// A stable color identifying the fiber through `coord` along `axis`:
    /// processors share a color iff they share a fiber. Useful as a
    /// communicator-split key.
    pub fn fiber_color(&self, coord: Coord3, axis: usize) -> usize {
        let mut c = coord;
        c[axis] = 0;
        self.rank_of(c)
    }

    /// All distinct fibers along `axis`, each a sorted rank list.
    pub fn fibers(&self, axis: usize) -> Vec<Vec<usize>> {
        assert!(axis < 3, "axis must be 0, 1 or 2");
        let (u, v) = match axis {
            0 => (1, 2),
            1 => (0, 2),
            _ => (0, 1),
        };
        let mut out = Vec::with_capacity(self.dims[u] * self.dims[v]);
        for cu in 0..self.dims[u] {
            for cv in 0..self.dims[v] {
                let mut c = [0usize; 3];
                c[u] = cu;
                c[v] = cv;
                out.push(self.fiber(c, axis));
            }
        }
        out
    }

    /// All ordered factorizations `[p1, p2, p3]` of `p` into three positive
    /// factors, in lexicographic order. The search space for the exact
    /// optimal-grid selection of §5.2.
    pub fn factorizations(p: usize) -> Vec<[usize; 3]> {
        assert!(p >= 1, "P must be >= 1");
        let mut out = Vec::new();
        for d1 in divisors(p) {
            let rest = p / d1;
            for d2 in divisors(rest) {
                out.push([d1, d2, rest / d2]);
            }
        }
        out.sort_unstable();
        out
    }
}

impl fmt::Display for Grid3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.dims[0], self.dims[1], self.dims[2])
    }
}

/// All positive divisors of `n`, sorted ascending.
pub fn divisors(n: usize) -> Vec<usize> {
    assert!(n >= 1, "divisors of zero are not defined here");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1usize;
    while d.saturating_mul(d) <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coord_roundtrip() {
        let g = Grid3::new(3, 4, 5);
        assert_eq!(g.size(), 60);
        for r in 0..g.size() {
            assert_eq!(g.rank_of(g.coord_of(r)), r);
        }
    }

    #[test]
    fn ranks_are_row_major() {
        let g = Grid3::new(2, 3, 4);
        assert_eq!(g.rank_of([0, 0, 0]), 0);
        assert_eq!(g.rank_of([0, 0, 1]), 1);
        assert_eq!(g.rank_of([0, 1, 0]), 4);
        assert_eq!(g.rank_of([1, 0, 0]), 12);
        assert_eq!(g.rank_of([1, 2, 3]), 23);
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn bad_coord_panics() {
        Grid3::new(2, 2, 2).rank_of([2, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn bad_rank_panics() {
        Grid3::new(2, 2, 2).coord_of(8);
    }

    #[test]
    fn fiber_varies_exactly_one_axis() {
        let g = Grid3::new(3, 3, 3);
        let c = [0, 2, 0]; // paper's processor (1,3,1) in 0-based coords
        for axis in 0..3 {
            let fiber = g.fiber(c, axis);
            assert_eq!(fiber.len(), 3);
            assert!(fiber.contains(&g.rank_of(c)));
            for (i, &r) in fiber.iter().enumerate() {
                let fc = g.coord_of(r);
                assert_eq!(fc[axis], i);
                for a in 0..3 {
                    if a != axis {
                        assert_eq!(fc[a], c[a]);
                    }
                }
            }
        }
    }

    #[test]
    fn fibers_partition_the_grid() {
        let g = Grid3::new(2, 3, 4);
        for axis in 0..3 {
            let fibers = g.fibers(axis);
            assert_eq!(fibers.len(), g.size() / g.dims()[axis]);
            let mut seen = vec![false; g.size()];
            for f in &fibers {
                assert_eq!(f.len(), g.dims()[axis]);
                for &r in f {
                    assert!(!seen[r], "rank {r} appears in two fibers");
                    seen[r] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn fiber_color_identifies_fibers() {
        let g = Grid3::new(2, 3, 4);
        for axis in 0..3 {
            for a in g.coords() {
                for b in g.coords() {
                    let same_fiber = (0..3).all(|x| x == axis || a[x] == b[x]);
                    let same_color = g.fiber_color(a, axis) == g.fiber_color(b, axis);
                    assert_eq!(same_fiber, same_color, "axis {axis}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn effective_dimensionality_counts_nontrivial_axes() {
        assert_eq!(Grid3::new(1, 1, 1).effective_dimensionality(), 0);
        assert_eq!(Grid3::new(3, 1, 1).effective_dimensionality(), 1);
        assert_eq!(Grid3::new(12, 3, 1).effective_dimensionality(), 2);
        assert_eq!(Grid3::new(32, 8, 2).effective_dimensionality(), 3);
    }

    #[test]
    fn divisors_basic() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(36), vec![1, 2, 3, 4, 6, 9, 12, 18, 36]);
        assert_eq!(divisors(97), vec![1, 97]); // prime
    }

    #[test]
    fn factorizations_cover_and_multiply_back() {
        for p in [1usize, 2, 6, 12, 36, 64] {
            let fs = Grid3::factorizations(p);
            for f in &fs {
                assert_eq!(f[0] * f[1] * f[2], p);
            }
            // count = sum over divisors d1 of number of divisors of p/d1
            let expected: usize = divisors(p).iter().map(|&d| divisors(p / d).len()).sum();
            assert_eq!(fs.len(), expected);
            // distinct
            let mut sorted = fs.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), fs.len());
        }
    }

    #[test]
    fn factorizations_of_36_contain_paper_grid() {
        // Fig. 2(b) uses grid 12x3x1 for P = 36.
        assert!(Grid3::factorizations(36).contains(&[12, 3, 1]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Grid3::new(32, 8, 2).to_string(), "32x8x2");
    }
}

//! Deterministic matrix generators for tests and benchmarks.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::matrix::Matrix;

/// Uniform random matrix in `[0, 1)`, deterministic in `seed`.
pub fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.random::<f64>())
}

/// Random *integer-valued* matrix with entries drawn uniformly from
/// `range`. Integer-valued f64 arithmetic is exact for the magnitudes used
/// in tests, so distributed results can be compared with `==` instead of
/// tolerances.
pub fn random_int_matrix(rows: usize, cols: usize, range: Range<i64>, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(range.clone()) as f64)
}

/// The `n × n` identity.
pub fn identity(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gemm, Kernel};

    #[test]
    fn random_is_deterministic_in_seed() {
        let a = random_matrix(4, 4, 42);
        let b = random_matrix(4, 4, 42);
        let c = random_matrix(4, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn int_matrix_has_integer_values_in_range() {
        let m = random_int_matrix(10, 10, -3..4, 7);
        for &x in m.as_slice() {
            assert_eq!(x, x.trunc());
            assert!((-3.0..4.0).contains(&x));
        }
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = random_int_matrix(6, 6, -5..6, 1);
        let i = identity(6);
        assert_eq!(gemm(&a, &i, Kernel::Naive), a);
        assert_eq!(gemm(&i, &a, Kernel::Naive), a);
    }
}

//! Small shared helpers for the collective implementations.

/// Prefix offsets of a `counts` array: `offsets(&[2,3,1]) == [0,2,5,6]`.
/// The last element is the total.
pub(crate) fn offsets(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

/// Element-wise `acc[i] += src[i]`; panics on length mismatch.
#[inline]
pub(crate) fn axpy1(acc: &mut [f64], src: &[f64]) {
    assert_eq!(acc.len(), src.len(), "reduction length mismatch");
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += s;
    }
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
    fn axpy1_adds() {
        let mut a = vec![1.0, 2.0];
        axpy1(&mut a, &[10.0, 20.0]);
        assert_eq!(a, vec![11.0, 22.0]);
    }
}

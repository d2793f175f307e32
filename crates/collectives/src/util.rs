//! Small shared helpers for the collective implementations.

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
    fn axpy1_adds() {
        let mut a = vec![1.0, 2.0];
        axpy1(&mut a, &[10.0, 20.0]);
        assert_eq!(a, vec![11.0, 22.0]);
    }
}

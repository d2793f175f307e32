//! Order-statistics set of runnable ranks.
//!
//! The deterministic scheduler picks "the `k`-th smallest runnable rank"
//! at every scheduling point. The seed-era implementation materialized an
//! ascending `Vec<usize>` of ready ranks per pick — O(P) work and O(P)
//! allocation at every baton hand-off, which is what capped executed
//! worlds at a few hundred ranks. [`ReadySet`] keeps the same set as a
//! Fenwick (binary-indexed) tree of 0/1 memberships, so membership flips
//! and `select(k)` are O(log P) and the pick stream is **bitwise
//! identical** to indexing the old ascending vector: `select(k)` returns
//! exactly `ready[k]`.

/// A set over `0..n` supporting O(log n) insert/remove and O(log n)
/// selection of the `k`-th smallest member.
#[derive(Debug)]
pub(crate) struct ReadySet {
    /// 1-indexed Fenwick tree over membership counts (0 or 1 per slot).
    tree: Vec<u32>,
    /// Number of members currently in the set.
    len: usize,
    /// Domain size.
    n: usize,
    /// Largest power of two `<= n` (descent start for `select`).
    top: usize,
}

impl ReadySet {
    pub(crate) fn new(n: usize) -> ReadySet {
        let top = if n == 0 { 0 } else { usize::pow(2, n.ilog2()) };
        ReadySet { tree: vec![0; n + 1], len: 0, n, top }
    }

    /// Number of members.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Add `i` to the set. Callers guarantee `i` is absent (the scheduler
    /// status vector is the authority; debug builds assert).
    pub(crate) fn insert(&mut self, i: usize) {
        debug_assert!(!self.contains(i), "ReadySet::insert({i}) of a present member");
        self.len += 1;
        let mut idx = i + 1;
        while idx <= self.n {
            self.tree[idx] += 1;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Remove `i` from the set. Callers guarantee `i` is present.
    pub(crate) fn remove(&mut self, i: usize) {
        debug_assert!(self.contains(i), "ReadySet::remove({i}) of an absent member");
        self.len -= 1;
        let mut idx = i + 1;
        while idx <= self.n {
            self.tree[idx] -= 1;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Number of members `< i` (prefix count; exposed for the debug
    /// assertions).
    fn rank_below(&self, i: usize) -> usize {
        let mut idx = i; // prefix [1..=i] covers members 0..i
        let mut sum = 0usize;
        while idx > 0 {
            sum += self.tree[idx] as usize;
            idx -= idx & idx.wrapping_neg();
        }
        sum
    }

    /// Whether `i` is a member.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.rank_below(i + 1) > self.rank_below(i)
    }

    /// Every member, ascending, by asking each slot in turn (the test
    /// probe's brute-force view; O(n log n)).
    pub(crate) fn members(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| self.contains(i)).collect()
    }

    /// The `k`-th smallest member (0-indexed). Panics if `k >= len`.
    pub(crate) fn select(&self, k: usize) -> usize {
        assert!(k < self.len, "ReadySet::select({k}) with only {} member(s)", self.len);
        let mut rem = (k + 1) as u32;
        let mut pos = 0usize; // 1-indexed position walked so far
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next <= self.n && self.tree[next] < rem {
                rem -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // 1-indexed slot pos+1 holds the member; member id = pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_matches_ascending_vector_semantics() {
        let mut s = ReadySet::new(10);
        for i in [7usize, 2, 9, 0, 4] {
            s.insert(i);
        }
        // Ascending membership: [0, 2, 4, 7, 9]
        assert_eq!(s.len(), 5);
        for (k, want) in [0usize, 2, 4, 7, 9].into_iter().enumerate() {
            assert_eq!(s.select(k), want, "select({k})");
        }
        s.remove(4);
        for (k, want) in [0usize, 2, 7, 9].into_iter().enumerate() {
            assert_eq!(s.select(k), want, "after remove, select({k})");
        }
    }

    #[test]
    fn contains_tracks_membership() {
        let mut s = ReadySet::new(5);
        assert!(!s.contains(3));
        s.insert(3);
        assert!(s.contains(3));
        assert!(!s.contains(2));
        s.remove(3);
        assert!(!s.contains(3));
    }

    #[test]
    fn exhaustive_against_reference_model() {
        // Deterministic pseudo-random insert/remove churn, diffed against
        // a sorted-Vec reference at every step.
        let n = 37usize;
        let mut s = ReadySet::new(n);
        let mut model: Vec<usize> = Vec::new();
        let mut state = 0x9E37_79B9u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % n;
            if let Ok(pos) = model.binary_search(&i) {
                model.remove(pos);
                s.remove(i);
            } else {
                model.insert(model.binary_search(&i).unwrap_err(), i);
                s.insert(i);
            }
            assert_eq!(s.len(), model.len());
            for (k, &want) in model.iter().enumerate() {
                assert_eq!(s.select(k), want);
            }
        }
    }

    #[test]
    fn single_element_domain() {
        let mut s = ReadySet::new(1);
        s.insert(0);
        assert_eq!(s.select(0), 0);
        s.remove(0);
        assert_eq!(s.len(), 0);
    }
}

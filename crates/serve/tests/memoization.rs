//! Memoization correctness: cache hits must be *bitwise identical* to
//! cold computation in all three Theorem 3 regimes and on both regime
//! boundaries, and the cache key must respect the case classification —
//! no false sharing between cases, memory budgets, or machine models.
//!
//! The probe dims are `(96, 24, 6)`: sorted they give the thresholds
//! `m/n = 4` (1D/2D boundary) and `mn/k² = 64` (2D/3D boundary), so the
//! five processor counts below cover 1D, the 1D/2D boundary, 2D, the
//! 2D/3D boundary, and 3D.

use std::sync::Mutex;

use pmm_core::advisor::{try_recommend, Recommendation};
use pmm_model::{Case, MachineParams, MatMulDims};
use pmm_serve::cache::{cached_recommend, CacheKey, CacheOutcome, RecCache};

const DIMS: (u64, u64, u64) = (96, 24, 6);

/// `(P, expected regime)` spanning all three cases and both boundaries
/// (`classify` uses `<=`, so a boundary P lands in the sparser regime).
const REGIME_PROBES: [(u64, Case); 5] = [
    (2, Case::OneD),
    (4, Case::OneD), // P = m/n exactly: 1D/2D boundary
    (36, Case::TwoD),
    (64, Case::TwoD), // P = mn/k² exactly: 2D/3D boundary
    (512, Case::ThreeD),
];

/// Equality down to the bit pattern of every float — `==` on `f64`
/// would also accept `-0.0 == 0.0`, which is not "the cached bytes".
fn assert_bitwise_identical(cold: &[Recommendation], hot: &[Recommendation]) {
    assert_eq!(cold.len(), hot.len(), "ranking lengths differ");
    for (c, h) in cold.iter().zip(hot) {
        assert_eq!(c.plan, h.plan);
        assert_eq!(c.time.to_bits(), h.time.to_bits(), "time differs for {}", c.plan);
        assert_eq!(c.cost.words.to_bits(), h.cost.words.to_bits());
        assert_eq!(c.cost.messages.to_bits(), h.cost.messages.to_bits());
        assert_eq!(c.cost.flops.to_bits(), h.cost.flops.to_bits());
        assert_eq!(c.memory_words.to_bits(), h.memory_words.to_bits());
    }
}

#[test]
fn probes_cover_all_three_regimes_and_both_boundaries() {
    let (n1, n2, n3) = DIMS;
    let sorted = MatMulDims::new(n1, n2, n3).sorted();
    for (p, case) in REGIME_PROBES {
        assert_eq!(sorted.classify(p as f64), case, "P={p} classified wrong");
    }
    // All three regimes are actually present in the probe set.
    for case in [Case::OneD, Case::TwoD, Case::ThreeD] {
        assert!(REGIME_PROBES.iter().any(|&(_, c)| c == case), "{case:?} not probed");
    }
}

#[test]
fn hits_are_bitwise_identical_to_cold_computation_in_every_regime() {
    let (n1, n2, n3) = DIMS;
    let cache = Mutex::new(RecCache::new(64));
    for (p, _) in REGIME_PROBES {
        let cold = try_recommend(n1, n2, n3, p, f64::INFINITY, MachineParams::TYPICAL_CLUSTER)
            .expect("probe query is feasible");
        let (warm, o1) =
            cached_recommend(&cache, n1, n2, n3, p, f64::INFINITY, MachineParams::TYPICAL_CLUSTER);
        assert_eq!(o1, CacheOutcome::Miss, "first query for P={p} must compute");
        let (hot, o2) =
            cached_recommend(&cache, n1, n2, n3, p, f64::INFINITY, MachineParams::TYPICAL_CLUSTER);
        assert_eq!(o2, CacheOutcome::Hit, "second query for P={p} must hit");
        assert_bitwise_identical(&cold, &warm.expect("warm"));
        assert_bitwise_identical(&cold, &hot.expect("hot"));
    }
}

#[test]
fn hits_are_bitwise_identical_under_finite_memory_budgets() {
    let (n1, n2, n3) = DIMS;
    let cache = Mutex::new(RecCache::new(64));
    for (p, _) in REGIME_PROBES {
        // A finite budget comfortably above the §6.2 floor, so the
        // memory constraint actually participates in the ranking.
        let m = 4.0 * (n1 * n2 + n1 * n3 + n2 * n3) as f64 / p as f64;
        let cold = try_recommend(n1, n2, n3, p, m, MachineParams::TYPICAL_CLUSTER)
            .expect("budgeted probe is feasible");
        let (_, o1) = cached_recommend(&cache, n1, n2, n3, p, m, MachineParams::TYPICAL_CLUSTER);
        assert_eq!(o1, CacheOutcome::Miss);
        let (hot, o2) = cached_recommend(&cache, n1, n2, n3, p, m, MachineParams::TYPICAL_CLUSTER);
        assert_eq!(o2, CacheOutcome::Hit);
        assert_bitwise_identical(&cold, &hot.expect("hot"));
    }
}

#[test]
fn cache_key_has_no_false_sharing_between_cases() {
    let (n1, n2, n3) = DIMS;
    let keys: Vec<CacheKey> = REGIME_PROBES
        .iter()
        .map(|&(p, case)| {
            let key =
                CacheKey::try_new(n1, n2, n3, p, f64::INFINITY, MachineParams::TYPICAL_CLUSTER)
                    .expect("probe key");
            assert_eq!(key.case, case, "key must embed the P={p} classification");
            key
        })
        .collect();
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(keys[i], keys[j], "distinct probes must have distinct keys");
        }
    }
    // Populate all five and read each back: every probe gets *its own*
    // ranking, not a neighbor's from another regime.
    let cache = Mutex::new(RecCache::new(64));
    let mut rankings = Vec::new();
    for (p, _) in REGIME_PROBES {
        let (r, _) =
            cached_recommend(&cache, n1, n2, n3, p, f64::INFINITY, MachineParams::TYPICAL_CLUSTER);
        rankings.push(r.expect("probe"));
    }
    for ((p, _), expected) in REGIME_PROBES.iter().zip(&rankings) {
        let (r, o) =
            cached_recommend(&cache, n1, n2, n3, *p, f64::INFINITY, MachineParams::TYPICAL_CLUSTER);
        assert_eq!(o, CacheOutcome::Hit);
        assert_bitwise_identical(expected, &r.expect("hit"));
    }
}

#[test]
fn cache_key_separates_memory_budgets_and_machines() {
    let (n1, n2, n3) = DIMS;
    let p = 36;
    let inf = CacheKey::try_new(n1, n2, n3, p, f64::INFINITY, MachineParams::TYPICAL_CLUSTER)
        .expect("key");
    let tight =
        CacheKey::try_new(n1, n2, n3, p, 1.0e4, MachineParams::TYPICAL_CLUSTER).expect("key");
    let bw = CacheKey::try_new(n1, n2, n3, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY)
        .expect("key");
    assert_ne!(inf, tight, "memory budget must be part of the key");
    assert_ne!(inf, bw, "machine model must be part of the key");
    // Same classification, still distinct entries.
    assert_eq!(inf.case, tight.case);
    assert_eq!(inf.case, bw.case);
}

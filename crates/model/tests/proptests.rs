//! Property-based tests for the model vocabulary: cost algebra laws, grid
//! combinatorics, dimension sorting and case classification, and the
//! integer price of Algorithm 1 against its closed forms.

use pmm_model::{
    alg1_prediction, alg1_price, plan_prediction, AlgPlan, Case, Cost, Grid3, MachineParams,
    MatMulDims,
};
use proptest::prelude::*;

fn cost() -> impl Strategy<Value = Cost> {
    (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6).prop_map(|(messages, words, flops)| Cost {
        messages,
        words,
        flops,
    })
}

proptest! {
    #[test]
    fn then_is_associative_and_commutative(a in cost(), b in cost(), c in cost()) {
        let left = a.then(b).then(c);
        let right = a.then(b.then(c));
        prop_assert!((left.words - right.words).abs() < 1e-6);
        prop_assert!((left.messages - right.messages).abs() < 1e-6);
        let ab = a.then(b);
        let ba = b.then(a);
        prop_assert_eq!(ab.words, ba.words);
    }

    #[test]
    fn par_is_idempotent_monotone_and_commutative(a in cost(), b in cost()) {
        prop_assert_eq!(a.par(a), a);
        let p = a.par(b);
        prop_assert!(p.words >= a.words && p.words >= b.words);
        prop_assert!(p.messages >= a.messages && p.flops >= b.flops.min(p.flops));
        prop_assert_eq!(a.par(b), b.par(a));
    }

    #[test]
    fn par_never_exceeds_then(a in cost(), b in cost()) {
        let p = a.par(b);
        let t = a.then(b);
        prop_assert!(p.words <= t.words && p.messages <= t.messages && p.flops <= t.flops);
    }

    #[test]
    fn time_is_linear_in_cost(a in cost(), b in cost()) {
        let params = MachineParams::TYPICAL_CLUSTER;
        let direct = params.time(a.then(b));
        let split = params.time(a) + params.time(b);
        prop_assert!((direct - split).abs() <= 1e-9 * direct.abs().max(1.0));
    }

    #[test]
    fn grid_rank_coord_roundtrip(p1 in 1usize..8, p2 in 1usize..8, p3 in 1usize..8) {
        let g = Grid3::new(p1, p2, p3);
        for r in 0..g.size() {
            prop_assert_eq!(g.rank_of(g.coord_of(r)), r);
        }
    }

    #[test]
    fn grid_fibers_partition(p1 in 1usize..6, p2 in 1usize..6, p3 in 1usize..6, axis in 0usize..3) {
        let g = Grid3::new(p1, p2, p3);
        let mut seen = vec![0u32; g.size()];
        for f in g.fibers(axis) {
            for r in f {
                seen[r] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn factorizations_are_exactly_the_triples(p in 1usize..200) {
        let fs = Grid3::factorizations(p);
        for f in &fs {
            prop_assert_eq!(f[0] * f[1] * f[2], p);
        }
        // sorted + deduplicated by construction
        let mut sorted = fs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&sorted, &fs);
    }

    #[test]
    fn sorting_dims_is_idempotent(a in 1u64..10_000, b in 1u64..10_000, c in 1u64..10_000) {
        let s = MatMulDims::new(a, b, c).sorted();
        prop_assert!(s.m >= s.n && s.n >= s.k);
        let arr = MatMulDims::new(a, b, c).as_array();
        // axes is a permutation
        let mut axes = s.axes;
        axes.sort_unstable();
        prop_assert_eq!(axes, [0, 1, 2]);
        prop_assert_eq!(arr[s.axes[0]], s.m);
    }

    #[test]
    fn classification_is_monotone_in_p(a in 1u64..5_000, b in 1u64..5_000, c in 1u64..5_000) {
        // As P grows the case can only move 1D → 2D → 3D.
        let s = MatMulDims::new(a, b, c).sorted();
        let order = |case: Case| match case { Case::OneD => 0, Case::TwoD => 1, Case::ThreeD => 2 };
        let mut prev = 0;
        for p in [1.0, 2.0, 4.0, 16.0, 256.0, 65536.0, 1e9] {
            let cur = order(s.classify(p));
            prop_assert!(cur >= prev, "case regressed at P={p}");
            prev = cur;
        }
    }

    #[test]
    fn total_words_matches_sorted_total(a in 1u64..3_000, b in 1u64..3_000, c in 1u64..3_000) {
        let d = MatMulDims::new(a, b, c);
        let s = d.sorted();
        prop_assert!((d.total_words() - s.total_words()).abs() < 1e-9);
        prop_assert!((d.mults() - s.mults()).abs() < 1e-9);
    }

    #[test]
    fn alg1_price_is_eq3_on_every_rank_of_an_even_layout(
        b1 in 1u64..4, b2 in 1u64..4, b3 in 1u64..4,
        p1 in 1usize..5, p2 in 1usize..5, p3 in 1usize..5,
    ) {
        // Blocks that are multiples of P split evenly over every fiber.
        let pall = (p1 * p2 * p3) as u64;
        let grid = [p1, p2, p3];
        let dims = MatMulDims::new(
            p1 as u64 * b1 * pall, p2 as u64 * b2 * pall, p3 as u64 * b3 * pall,
        );
        // The closed form is a whole number of words here, and exact.
        let eq3 = alg1_prediction(dims, grid).phases();
        for r in 0..Grid3::from_dims(grid).size() {
            let price = alg1_price(dims, grid, 1, r).map(|t| [t.sent as f64, t.recv as f64]);
            prop_assert_eq!(price, eq3.map(|w| [w, w]), "rank {}", r);
        }
    }

    #[test]
    fn alg1_price_sums_to_the_plan_goodput_on_any_layout(
        n1 in 1u64..40, n2 in 1u64..40, n3 in 1u64..40,
        p1 in 1usize..6, p2 in 1usize..6, p3 in 1usize..6,
        slabs in 1usize..6,
    ) {
        let (dims, grid) = (MatMulDims::new(n1, n2, n3), [p1, p2, p3]);
        for (plan, t) in [
            (AlgPlan::Alg1 { grid }, 1),
            (AlgPlan::Alg1Streamed { grid, slabs }, slabs),
        ] {
            let (mut sent, mut recv) = ([0u64; 3], [0u64; 3]);
            for r in 0..Grid3::from_dims(grid).size() {
                for (i, phase) in alg1_price(dims, grid, t, r).iter().enumerate() {
                    sent[i] += phase.sent;
                    recv[i] += phase.recv;
                }
            }
            // Every word sent is received, phase by phase.
            prop_assert_eq!(sent, recv, "{} on {}", plan, dims);
            let total: u64 = sent.iter().sum();
            prop_assert_eq!(total as f64, plan_prediction(dims, &plan).words_total, "{}", plan);
        }
    }
}

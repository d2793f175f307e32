//! Property-based tests for the collectives: correctness on random
//! communicator sizes, block profiles (including empty blocks), roots and
//! payload values — integer-valued data so results are exact.

use std::borrow::Cow;

use pmm_collectives::{
    all_gather_v, all_reduce, all_to_all, bcast, gather_v, reduce, reduce_scatter_v, scatter_v,
    AllGatherAlgo, AllReduceAlgo, BcastAlgo, ReduceScatterAlgo,
};
use pmm_simnet::{MachineParams, Rank, World, WorldResult};
use proptest::prelude::*;

fn counts(p: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..8, p)
}

fn block(owner: usize, c: usize) -> Vec<f64> {
    (0..c).map(|e| (owner * 64 + e) as f64).collect()
}

/// `buf` as a collective argument: handed over (the collective owns a
/// `Vec`) or lent (it sees a slice).
fn hand_or_lend(buf: &[f64], hand: bool) -> Cow<'_, [f64]> {
    if hand {
        Cow::Owned(buf.to_vec())
    } else {
        Cow::Borrowed(buf)
    }
}

/// Run `program` twice on the same seeded, traced world — lending every
/// rank's buffer, then handing it over, from one call site so the
/// recorded collective site is the same — and hold everything the two
/// runs expose against each other: values, per-rank meters, clocks,
/// memory peaks and event counts, and the rendered schedule and event
/// traces.
fn assert_handing_over_changes_nothing<F>(label: &str, p: usize, seed: u64, program: F)
where
    F: Fn(&mut Rank, bool) -> Vec<f64> + Send + Sync,
{
    // α, β, γ all non-zero: the clock sees messages, words and flops.
    let world = World::new(p, MachineParams::new(3.0, 1.0, 0.5)).with_seed(seed).with_trace(true);
    let lent = world.run(|rank| program(rank, false));
    let handed = world.run(|rank| program(rank, true));
    assert_eq!(lent.values, handed.values, "{label}: values");
    for (r, (l, h)) in lent.reports.iter().zip(&handed.reports).enumerate() {
        assert_eq!(
            (l.meter, l.time, l.peak_mem_words, l.final_stamp),
            (h.meter, h.time, h.peak_mem_words, h.final_stamp),
            "{label}: rank {r} meter / clock / memory peak / event count"
        );
    }
    let rendered = |out: &WorldResult<Vec<f64>>| {
        (
            out.schedule_trace.as_ref().expect("seeded runs record a schedule").render(),
            out.tracer().expect("traced run").chrome_json(),
        )
    };
    assert_eq!(rendered(&lent), rendered(&handed), "{label}: rendered traces");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn handing_a_buffer_over_is_the_same_run_as_lending_it(
        p in 2usize..9,
        cs in proptest::collection::vec(0usize..8, 8),
        seed in 0u64..1000,
    ) {
        let cs = &cs[..p];
        let total: usize = cs.iter().sum();
        let contribution = |r: usize| -> Vec<f64> { (0..total).map(|e| (r * total + e) as f64).collect() };

        // Every selector valid at this p.
        let mut gathers = vec![AllGatherAlgo::Ring, AllGatherAlgo::Bruck, AllGatherAlgo::Auto];
        let mut scatters = vec![ReduceScatterAlgo::Ring, ReduceScatterAlgo::Auto];
        let mut reduces = vec![AllReduceAlgo::ReduceScatterAllGather, AllReduceAlgo::Auto];
        if p.is_power_of_two() {
            gathers.push(AllGatherAlgo::RecursiveDoubling);
            scatters.push(ReduceScatterAlgo::RecursiveHalving);
            reduces.push(AllReduceAlgo::RecursiveDoubling);
        }
        for algo in gathers {
            let label = format!("all_gather_v {algo:?} counts {cs:?}");
            assert_handing_over_changes_nothing(&label, p, seed, |rank, hand| {
                let comm = rank.world_comm();
                let mine = block(rank.world_rank(), cs[rank.world_rank()]);
                all_gather_v(rank, &comm, hand_or_lend(&mine, hand), cs, algo)
            });
        }
        for algo in scatters {
            let label = format!("reduce_scatter_v {algo:?} counts {cs:?}");
            assert_handing_over_changes_nothing(&label, p, seed, |rank, hand| {
                let comm = rank.world_comm();
                let data = contribution(rank.world_rank());
                reduce_scatter_v(rank, &comm, hand_or_lend(&data, hand), cs, algo)
            });
        }
        for algo in reduces {
            let label = format!("all_reduce {algo:?} len {total}");
            assert_handing_over_changes_nothing(&label, p, seed, |rank, hand| {
                let comm = rank.world_comm();
                let data = contribution(rank.world_rank());
                all_reduce(rank, &comm, hand_or_lend(&data, hand), algo)
            });
        }
    }

    #[test]
    fn all_gather_v_any_profile(p in 2usize..9, cs in (2usize..9).prop_flat_map(counts)) {
        let cs = &cs[..p.min(cs.len())];
        if cs.len() != p { return Ok(()); }
        let cs = cs.to_vec();
        let want: Vec<f64> = (0..p).flat_map(|i| block(i, cs[i])).collect();
        for algo in [AllGatherAlgo::Ring, AllGatherAlgo::Bruck] {
            let cs2 = cs.clone();
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
                let comm = rank.world_comm();
                let mine = block(rank.world_rank(), cs2[rank.world_rank()]);
                all_gather_v(rank, &comm, &mine, &cs2, algo)
            });
            for v in &out.values {
                prop_assert_eq!(v, &want, "{:?}", algo);
            }
        }
    }

    #[test]
    fn reduce_scatter_v_any_profile(p in 2usize..9, seed in 0u64..100) {
        let cs: Vec<usize> = (0..p).map(|i| (seed as usize + i * 3) % 5).collect();
        let total: usize = cs.iter().sum();
        let cs2 = cs.clone();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let data: Vec<f64> =
                (0..total).map(|e| (rank.world_rank() * total + e) as f64).collect();
            let comm = rank.world_comm();
            reduce_scatter_v(rank, &comm, &data, &cs2, ReduceScatterAlgo::Auto)
        });
        let mut off = 0usize;
        for (r, c) in cs.iter().enumerate() {
            let want: Vec<f64> = (off..off + c)
                .map(|e| (0..p).map(|q| (q * total + e) as f64).sum())
                .collect();
            prop_assert_eq!(&out.values[r], &want, "rank {}", r);
            off += c;
        }
    }

    #[test]
    fn gather_scatter_roundtrip_any_profile(
        p in 2usize..9,
        root in 0usize..9,
        seed in 0u64..100,
    ) {
        let root = root % p;
        let cs: Vec<usize> = (0..p).map(|i| (seed as usize + i) % 4).collect();
        let full: Vec<f64> = (0..p).flat_map(|i| block(i, cs[i])).collect();
        let want = full.clone();
        let cs2 = cs.clone();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            let data = if rank.world_rank() == root { full.clone() } else { Vec::new() };
            let mine = scatter_v(rank, &comm, &data, &cs2, root);
            gather_v(rank, &comm, &mine, &cs2, root)
        });
        prop_assert_eq!(&out.values[root], &want);
    }

    #[test]
    fn bcast_from_any_root(p in 2usize..9, root in 0usize..9, w in 0usize..12) {
        let root = root % p;
        let msg: Vec<f64> = (0..w).map(|e| e as f64 * 3.0).collect();
        let want = msg.clone();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            let data = if rank.world_rank() == root { msg.clone() } else { vec![0.0; w] };
            bcast(rank, &comm, &data, root, BcastAlgo::Binomial)
        });
        for v in &out.values {
            prop_assert_eq!(v, &want);
        }
    }

    #[test]
    fn reduce_to_any_root(p in 2usize..9, root in 0usize..9, w in 1usize..10) {
        let root = root % p;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            let data: Vec<f64> = (0..w).map(|e| (rank.world_rank() + e) as f64).collect();
            reduce(rank, &comm, &data, root)
        });
        let sum_r = (p * (p - 1) / 2) as f64;
        let want: Vec<f64> = (0..w).map(|e| sum_r + (p * e) as f64).collect();
        prop_assert_eq!(&out.values[root], &want);
        for (r, v) in out.values.iter().enumerate() {
            if r != root {
                prop_assert!(v.is_empty());
            }
        }
    }

    #[test]
    fn all_to_all_is_a_transpose(p in 2usize..9, w in 1usize..6) {
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let me = rank.world_rank();
            let data: Vec<f64> =
                (0..p).flat_map(|d| std::iter::repeat_n((me * p + d) as f64, w)).collect();
            let comm = rank.world_comm();
            all_to_all(rank, &comm, &data)
        });
        for (r, v) in out.values.iter().enumerate() {
            let want: Vec<f64> =
                (0..p).flat_map(|s| std::iter::repeat_n((s * p + r) as f64, w)).collect();
            prop_assert_eq!(v, &want);
        }
    }

    #[test]
    fn measured_equals_cost_model_for_all_collectives(
        p in 2usize..10,
        w in 1usize..24,
    ) {
        use pmm_collectives::{costs, all_gather, reduce_scatter, all_reduce, barrier};
        use pmm_collectives::AllReduceAlgo;

        // All-Gather (every algorithm valid at this p).
        let mut algos = vec![AllGatherAlgo::Ring, AllGatherAlgo::Bruck];
        if p.is_power_of_two() {
            algos.push(AllGatherAlgo::RecursiveDoubling);
        }
        for algo in algos {
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
                let comm = rank.world_comm();
                all_gather(rank, &comm, vec![1.0; w], algo);
                rank.time()
            });
            let model = costs::all_gather_cost(algo, p, w);
            for (r, &t) in out.values.iter().enumerate() {
                prop_assert!(
                    (t - model.words).abs() < 1e-9,
                    "{:?} p={} w={} rank {}: {} vs {}", algo, p, w, r, t, model.words
                );
            }
        }

        // Reduce-Scatter (auto) — words and flops.
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            reduce_scatter(rank, &comm, vec![1.0; p * w], ReduceScatterAlgo::Auto);
            (rank.time(), rank.meter().flops)
        });
        let model = costs::reduce_scatter_cost(ReduceScatterAlgo::Auto, p, w);
        for (r, &(t, f)) in out.values.iter().enumerate() {
            prop_assert!((t - model.words).abs() < 1e-9, "RS p={} rank {}", p, r);
            prop_assert!((f - model.flops).abs() < 1e-9, "RS flops p={} rank {}", p, r);
        }

        // All-Reduce Rabenseifner when p | total (always true here).
        let total = p * w;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            all_reduce(rank, &comm, vec![1.0; total], AllReduceAlgo::ReduceScatterAllGather);
            rank.time()
        });
        let model = costs::all_reduce_cost(AllReduceAlgo::ReduceScatterAllGather, p, total);
        for &t in &out.values {
            prop_assert!((t - model.words).abs() < 1e-9, "AR p={}", p);
        }

        // Barrier: latency only.
        let out = World::new(p, MachineParams::new(1.0, 1.0, 1.0)).run(|rank| {
            let comm = rank.world_comm();
            barrier(rank, &comm);
            rank.time()
        });
        let model = costs::barrier_cost(p);
        for &t in &out.values {
            prop_assert!((t - model.messages).abs() < 1e-9, "barrier p={}", p);
        }
    }

    #[test]
    fn conservation_of_words_across_any_collective(p in 2usize..8, w in 1usize..10) {
        // Whatever the collective, globally sent == received.
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            let mine = vec![1.0; w];
            all_gather_v(rank, &comm, &mine, &vec![w; p], AllGatherAlgo::Ring);
            let data = vec![1.0; p * w];
            reduce_scatter_v(rank, &comm, &data, &vec![w; p], ReduceScatterAlgo::Auto);
            rank.meter()
        });
        let sent: u64 = out.values.iter().map(|m| m.words_sent).sum();
        let recv: u64 = out.values.iter().map(|m| m.words_recv).sum();
        prop_assert_eq!(sent, recv);
    }
}

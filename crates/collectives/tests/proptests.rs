//! Property-based tests for the collectives: correctness on random
//! communicator sizes, block profiles (including empty blocks), roots and
//! payload values — integer-valued data so results are exact.

use std::borrow::Cow;

use pmm_collectives::{
    all_gather_v_a, all_reduce_a, all_to_all_a, bcast_a, reduce_a, reduce_scatter_v_a,
    AllGatherAlgo, BcastAlgo, Counts, ReduceScatterAlgo,
};
use pmm_dense::block_range;
use pmm_simnet::{LocalBoxFuture, MachineParams, Rank, World, WorldResult};
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

/// Run `program` twice on the same seeded, recorded, traced world — lending every
/// rank's buffer, then handing it over, from one call site so the
/// recorded collective site is the same — and hold everything the two
/// runs expose against each other: values, per-rank meters, clocks,
/// memory peaks and event counts, the rendered choice log and the
/// rendered event trace.
fn assert_handing_over_changes_nothing<F>(label: &str, p: usize, seed: u64, program: F)
where
    F: for<'a> Fn(&'a mut Rank, bool) -> LocalBoxFuture<'a, Vec<f64>> + Send + Sync,
{
    // α, β, γ all non-zero: the clock sees messages, words and flops.
    let world = World::new(p, MachineParams::new(3.0, 1.0, 0.5))
        .with_seed(seed)
        .with_schedule_recording(true)
        .with_trace(true);
    let lent = world.run_async(|rank| program(rank, false));
    let handed = world.run_async(|rank| program(rank, true));
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
            out.choice_points.as_ref().expect("recorded runs keep their choice log").render(),
            out.tracer().expect("traced run").chrome_json(),
        )
    };
    assert_eq!(rendered(&lent), rendered(&handed), "{label}: rendered traces");
}

/// Run `program` twice on the same seeded world — handed `None`, it passes
/// `Counts::Even(total)`; handed the explicit `block_range(total, p, i)`
/// counts, it passes those — and hold the values, per-rank meters, clocks
/// and event counts of the two runs against each other.
fn assert_even_is_explicit<F>(label: &str, p: usize, total: usize, program: F)
where
    F: for<'a> Fn(&'a mut Rank, Option<Vec<usize>>) -> LocalBoxFuture<'a, Vec<f64>> + Send + Sync,
{
    let explicit: Vec<usize> = (0..p).map(|i| block_range(total, p, i).len()).collect();
    let world = World::new(p, MachineParams::new(3.0, 1.0, 0.5)).with_seed(total as u64);
    let even = world.run_async(|rank| program(rank, None));
    let each = world.run_async(|rank| program(rank, Some(explicit.clone())));
    assert_eq!(even.values, each.values, "{label}: values");
    for (r, (e, x)) in even.reports.iter().zip(&each.reports).enumerate() {
        assert_eq!(
            (e.meter, e.time, e.final_stamp),
            (x.meter, x.time, x.final_stamp),
            "{label}: rank {r} meter / clock / event count"
        );
    }
}

/// All-gather of every member's `block_range(total, p, me)` share.
fn even_gather(p: usize, total: usize, algo: AllGatherAlgo) {
    let label = format!("all_gather_v {algo:?} {total} over {p}");
    assert_even_is_explicit(&label, p, total, move |rank, explicit| {
        Box::pin(async move {
            let comm = rank.world_comm();
            let me = rank.world_rank();
            let mine = block(me, block_range(total, p, me).len());
            let counts = explicit.as_deref().map_or(Counts::Even(total), Counts::from);
            all_gather_v_a(rank, &comm, &mine, counts, algo).await
        })
    });
}

/// Reduce-scatter of a `total`-word buffer into `block_range` segments.
fn even_scatter(p: usize, total: usize, algo: ReduceScatterAlgo) {
    let label = format!("reduce_scatter_v {algo:?} {total} over {p}");
    assert_even_is_explicit(&label, p, total, move |rank, explicit| {
        Box::pin(async move {
            let comm = rank.world_comm();
            let data = block(rank.world_rank(), total);
            let counts = explicit.as_deref().map_or(Counts::Even(total), Counts::from);
            reduce_scatter_v_a(rank, &comm, &data, counts, algo).await
        })
    });
}

#[test]
fn an_even_split_over_a_wide_fiber_is_its_explicit_counts() {
    // One word over 100 members (Algorithm 1's blocks at P = 10^6 on
    // the 100^3 grid), and the splits around it.
    for total in [0, 1, 99, 100, 101, 250] {
        even_gather(100, total, AllGatherAlgo::Ring);
        even_scatter(100, total, ReduceScatterAlgo::Ring);
    }
    for total in [1, 63, 65] {
        even_gather(64, total, AllGatherAlgo::RecursiveDoubling);
        even_scatter(64, total, ReduceScatterAlgo::RecursiveHalving);
    }
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
        let contribution =
            move |r: usize| -> Vec<f64> { (0..total).map(|e| (r * total + e) as f64).collect() };

        // Every selector valid at this p.
        let mut gathers = vec![AllGatherAlgo::Ring, AllGatherAlgo::Auto];
        let mut scatters = vec![ReduceScatterAlgo::Ring, ReduceScatterAlgo::Auto];
        if p.is_power_of_two() {
            gathers.push(AllGatherAlgo::RecursiveDoubling);
            scatters.push(ReduceScatterAlgo::RecursiveHalving);
        }
        for algo in gathers {
            let label = format!("all_gather_v {algo:?} counts {cs:?}");
            assert_handing_over_changes_nothing(&label, p, seed, |rank, hand| {
                let cs = cs.to_vec();
                Box::pin(async move {
                    let comm = rank.world_comm();
                    let mine = block(rank.world_rank(), cs[rank.world_rank()]);
                    all_gather_v_a(rank, &comm, hand_or_lend(&mine, hand), &cs, algo).await
                })
            });
        }
        for algo in scatters {
            let label = format!("reduce_scatter_v {algo:?} counts {cs:?}");
            assert_handing_over_changes_nothing(&label, p, seed, |rank, hand| {
                let cs = cs.to_vec();
                Box::pin(async move {
                    let comm = rank.world_comm();
                    let data = contribution(rank.world_rank());
                    reduce_scatter_v_a(rank, &comm, hand_or_lend(&data, hand), &cs, algo).await
                })
            });
        }
        let label = format!("all_reduce len {total}");
        assert_handing_over_changes_nothing(&label, p, seed, |rank, hand| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let data = contribution(rank.world_rank());
                all_reduce_a(rank, &comm, hand_or_lend(&data, hand)).await
            })
        });
    }

    #[test]
    fn all_gather_v_any_profile(
        p in 2usize..9,
        cs in (2usize..9).prop_flat_map(counts),
        total in 0usize..40,
    ) {
        // An even split — remainders and empty chunks included — is the
        // same run as its explicit counts.
        let mut algos = vec![AllGatherAlgo::Ring, AllGatherAlgo::Auto];
        if p.is_power_of_two() {
            algos.push(AllGatherAlgo::RecursiveDoubling);
        }
        for algo in algos {
            even_gather(p, total, algo);
        }

        let cs = &cs[..p.min(cs.len())];
        if cs.len() != p { return Ok(()); }
        let cs = cs.to_vec();
        let want: Vec<f64> = (0..p).flat_map(|i| block(i, cs[i])).collect();
        let mut algos = vec![AllGatherAlgo::Ring];
        if p.is_power_of_two() {
            algos.push(AllGatherAlgo::RecursiveDoubling);
        }
        for algo in algos {
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
                let cs = cs.clone();
                Box::pin(async move {
                    let comm = rank.world_comm();
                    let mine = block(rank.world_rank(), cs[rank.world_rank()]);
                    all_gather_v_a(rank, &comm, &mine, &cs, algo).await
                })
            });
            for v in &out.values {
                prop_assert_eq!(v, &want, "{:?}", algo);
            }
        }
    }

    #[test]
    fn reduce_scatter_v_any_profile(p in 2usize..9, seed in 0u64..100, total in 0usize..40) {
        let mut algos = vec![ReduceScatterAlgo::Ring, ReduceScatterAlgo::Auto];
        if p.is_power_of_two() {
            algos.push(ReduceScatterAlgo::RecursiveHalving);
        }
        for algo in algos {
            even_scatter(p, total, algo);
        }

        let cs: Vec<usize> = (0..p).map(|i| (seed as usize + i * 3) % 5).collect();
        let total: usize = cs.iter().sum();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let cs = cs.clone();
            Box::pin(async move {
                let data: Vec<f64> =
                    (0..total).map(|e| (rank.world_rank() * total + e) as f64).collect();
                let comm = rank.world_comm();
                reduce_scatter_v_a(rank, &comm, &data, &cs, ReduceScatterAlgo::Auto).await
            })
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
    fn bcast_from_any_root(p in 2usize..9, root in 0usize..9, w in 0usize..12) {
        let root = root % p;
        let msg: Vec<f64> = (0..w).map(|e| e as f64 * 3.0).collect();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let msg = msg.clone();
            Box::pin(async move {
                let comm = rank.world_comm();
                let data = if rank.world_rank() == root { msg } else { vec![0.0; w] };
                bcast_a(rank, &comm, &data, root, BcastAlgo::Binomial).await
            })
        });
        for v in &out.values {
            prop_assert_eq!(v, &msg);
        }
    }

    #[test]
    fn reduce_to_any_root(p in 2usize..9, root in 0usize..9, w in 1usize..10) {
        let root = root % p;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let data: Vec<f64> = (0..w).map(|e| (rank.world_rank() + e) as f64).collect();
                reduce_a(rank, &comm, &data, root).await
            })
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
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let me = rank.world_rank();
                let data: Vec<f64> =
                    (0..p).flat_map(|d| std::iter::repeat_n((me * p + d) as f64, w)).collect();
                let comm = rank.world_comm();
                all_to_all_a(rank, &comm, &data).await
            })
        });
        for (r, v) in out.values.iter().enumerate() {
            let want: Vec<f64> =
                (0..p).flat_map(|s| std::iter::repeat_n((s * p + r) as f64, w)).collect();
            prop_assert_eq!(v, &want);
        }
    }

    #[test]
    fn every_member_moves_the_model_member_traffic_on_any_even_split(
        p in 1usize..10,
        total in 0usize..30,
    ) {
        use pmm_model::collective::{all_gather_cost, reduce_scatter_cost};

        // `total` need not divide by `p`, and may be below it (empty
        // blocks): each member's words sent, words received and messages
        // are `member_traffic`'s, and a reduce-scatter adds every word it
        // receives. The closed-form costs take uniform blocks; on those,
        // each member's clock is the cost's words and its flops the cost's.
        let uniform = total.is_multiple_of(p).then_some(total / p);
        let mut gathers = vec![AllGatherAlgo::Ring];
        let mut scatters = vec![ReduceScatterAlgo::Ring];
        if p.is_power_of_two() {
            gathers.push(AllGatherAlgo::RecursiveDoubling);
            scatters.push(ReduceScatterAlgo::RecursiveHalving);
        }
        let world = World::new(p, MachineParams::BANDWIDTH_ONLY);
        for algo in gathers {
            let out = world.run_async(move |rank| {
                Box::pin(async move {
                    let (comm, me) = (rank.world_comm(), rank.world_rank());
                    let mine = block(me, block_range(total, p, me).len());
                    all_gather_v_a(rank, &comm, mine, Counts::Even(total), algo).await;
                    (rank.meter(), rank.time())
                })
            });
            let cost = uniform.map(|w| all_gather_cost(algo, p, w));
            for (me, &(meter, time)) in out.values.iter().enumerate() {
                let want = algo.member_traffic(p, total as u64, me);
                prop_assert_eq!(meter.traffic(), want, "{:?} {}/{}: member {}", algo, total, p, me);
                prop_assert!(
                    cost.is_none_or(|c| (c.words, c.flops) == (time, meter.flops)),
                    "{:?} clock {} flops {}", algo, time, meter.flops
                );
            }
        }
        for algo in scatters {
            let out = world.run_async(move |rank| {
                Box::pin(async move {
                    let comm = rank.world_comm();
                    let data = block(rank.world_rank(), total);
                    reduce_scatter_v_a(rank, &comm, data, Counts::Even(total), algo).await;
                    (rank.meter(), rank.time())
                })
            });
            let cost = uniform.map(|w| reduce_scatter_cost(algo, p, w));
            for (me, &(meter, time)) in out.values.iter().enumerate() {
                let want = algo.member_traffic(p, total as u64, me);
                prop_assert_eq!(meter.traffic(), want, "{:?} {}/{}: member {}", algo, total, p, me);
                prop_assert_eq!(meter.flops, want.recv as f64, "{:?} additions", algo);
                prop_assert!(
                    cost.is_none_or(|c| (c.words, c.flops) == (time, meter.flops)),
                    "{:?} clock {} flops {}", algo, time, meter.flops
                );
            }
        }
    }

    #[test]
    fn measured_all_reduce_equals_cost_model(p in 2usize..10, w in 1usize..24) {
        use pmm_model::collective;

        // All-Reduce Rabenseifner when p | total (always true here).
        let total = p * w;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                all_reduce_a(rank, &comm, vec![1.0; total]).await;
                rank.time()
            })
        });
        let model = collective::all_reduce_cost(p, total);
        for &t in &out.values {
            prop_assert_eq!(t, model.words, "AR p={}", p);
        }
    }
}

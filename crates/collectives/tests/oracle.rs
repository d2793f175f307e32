//! Serial-reference oracles and cost-meter checks for the collectives
//! beyond Algorithm 1's All-Gather and Reduce-Scatter: `all_to_all`,
//! `bcast` and `all_reduce`.
//!
//! Each test compares a simulated run against an oracle computed
//! serially from the full input set, then holds the per-rank meters
//! against the closed forms in `pmm_model::collective`. Runs use
//! `World::with_seed`, so the collectives are also exercised under the
//! deterministic scheduler (and any failure names a replayable seed).

use pmm_collectives::{all_reduce_a, all_to_all_a, bcast_a, BcastAlgo};
use pmm_model::collective;
use pmm_simnet::{LocalBoxFuture, MachineParams, Meter, Rank, World};

const SEED: u64 = 0x5EED;

/// Integer-valued contribution of `rank`, `w` words — exact in f64.
fn contribution(rank: usize, w: usize) -> Vec<f64> {
    (0..w).map(|e| ((rank * 31 + e * 7) % 100) as f64 - 17.0).collect()
}

fn run_collective<T, F>(p: usize, program: F) -> (Vec<T>, Vec<Meter>)
where
    T: Send,
    F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T> + Send + Sync,
{
    let out = World::new(p, MachineParams::BANDWIDTH_ONLY).with_seed(SEED).run_async(program);
    (out.values, out.reports.iter().map(|r| r.meter).collect())
}

#[test]
fn alltoall_transposes_blocks_and_every_rank_meets_the_cost_model() {
    for p in [2usize, 4, 6, 8] {
        let w = 3;
        let (values, meters) = run_collective(p, move |rank| {
            Box::pin(async move {
                let me = rank.world_rank();
                // Block destined for rank j carries (me, j)-tagged values.
                let data: Vec<f64> =
                    (0..p * w).map(|i| (me * 1000 + (i / w) * 10 + i % w) as f64).collect();
                let comm = rank.world_comm();
                all_to_all_a(rank, &comm, &data).await
            })
        });
        let model = collective::all_to_all_cost(p, w);
        for (r, v) in values.iter().enumerate() {
            // Oracle: slot j of rank r's output is rank j's block for r.
            let want: Vec<f64> =
                (0..p * w).map(|i| ((i / w) * 1000 + r * 10 + i % w) as f64).collect();
            assert_eq!(v, &want, "alltoall p={p} rank {r}");
            // Pairwise exchange is perfectly symmetric: every rank sends
            // and receives exactly (p−1)·w words.
            assert_eq!(meters[r].words_sent as f64, model.words, "p={p} rank {r} sent");
            assert_eq!(meters[r].words_recv as f64, model.words, "p={p} rank {r} recv");
            assert_eq!(meters[r].msgs_sent as f64, model.messages, "p={p} rank {r} msgs");
        }
    }
}

#[test]
fn bcast_delivers_root_data_from_any_root_and_meets_the_cost_model() {
    for p in [2usize, 3, 5, 8] {
        for root in [0, p / 2, p - 1] {
            let w = p * 2; // p | w, so both algorithms are legal.
            for algo in [BcastAlgo::Binomial, BcastAlgo::ScatterAllGather] {
                let (values, meters) = run_collective(p, move |rank| {
                    Box::pin(async move {
                        let comm = rank.world_comm();
                        bcast_a(rank, &comm, contribution(root, w), root, algo).await
                    })
                });
                let want = contribution(root, w);
                for (r, v) in values.iter().enumerate() {
                    assert_eq!(v, &want, "bcast {algo:?} p={p} root={root} rank {r}");
                }
                // The model reports the critical-path rank: the root for
                // the binomial tree (⌈log2 p⌉ sends of w), any rank for
                // scatter–all-gather (duplex (p−1)/p·2w).
                let model = collective::bcast_cost(algo, p, w);
                let max_duplex = meters.iter().map(Meter::duplex_words).max().unwrap_or(0);
                assert_eq!(
                    max_duplex as f64, model.words,
                    "bcast {algo:?} p={p} root={root} duplex vs model"
                );
            }
        }
    }
}

#[test]
fn allreduce_matches_the_serial_sum() {
    // Power-of-two p with p | w.
    for p in [2usize, 4, 8] {
        let w = p * 3;
        let (values, meters) = run_collective(p, move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                all_reduce_a(rank, &comm, contribution(rank.world_rank(), w)).await
            })
        });
        let want: Vec<f64> = (0..w).map(|e| (0..p).map(|q| contribution(q, w)[e]).sum()).collect();
        for (r, v) in values.iter().enumerate() {
            assert_eq!(v, &want, "allreduce p={p} rank {r}");
        }
        // Rank-symmetric: every rank's duplex volume equals the model
        // exactly.
        let model = collective::all_reduce_cost(p, w);
        for (r, m) in meters.iter().enumerate() {
            assert_eq!(m.duplex_words() as f64, model.words, "allreduce p={p} rank {r} duplex");
        }
    }
    // Rabenseifner runs at every `p` and length, uneven segments
    // included, and is priced by that schedule: every message counted,
    // the makespan exact on the ring (any `p`) and on `p | w`, never
    // under-priced otherwise.
    let params = MachineParams::new(1000.0, 1.0, 0.5);
    for p in 2usize..=8 {
        for w in [1, 3 * p, 3 * p + 1, 4 * p - 1] {
            let out = World::new(p, params).with_seed(SEED).run_async(move |rank| {
                Box::pin(async move {
                    let comm = rank.world_comm();
                    let mine = contribution(rank.world_rank(), w);
                    all_reduce_a(rank, &comm, mine).await
                })
            });
            let want: Vec<f64> =
                (0..w).map(|e| (0..p).map(|q| contribution(q, w)[e]).sum()).collect();
            assert!(out.values.iter().all(|v| v == &want), "allreduce p={p} w={w}");
            let model = collective::all_reduce_cost(p, w);
            let (measured, predicted) = (out.critical_path_time(), params.time(model));
            let label = format!("p={p} w={w}: measured {measured}, model {predicted}");
            assert_eq!(out.critical_path_cost().messages, model.messages, "{label}");
            if w.is_multiple_of(p) || !p.is_power_of_two() {
                assert!((measured - predicted).abs() <= 1e-9 * predicted, "{label}");
            } else {
                assert!(measured <= predicted * (1.0 + 1e-9), "{label}");
            }
        }
    }
}

#[test]
fn collectives_on_split_subcommunicators_use_local_sizes() {
    // Two color groups of different sizes (4 and 2): each runs its own
    // all-reduce + bcast; oracles and meters are per-subcommunicator.
    let p = 6usize;
    let w = 2usize;
    let (values, meters) = run_collective(p, move |rank| {
        Box::pin(async move {
            let world = rank.world_comm();
            let me = rank.world_rank();
            let color = usize::from(me >= 4);
            let sub =
                rank.split_a(&world, color as i64, me as i64).await.expect("member of a color");
            let s = all_reduce_a(rank, &sub, contribution(me, w)).await;
            let b = bcast_a(rank, &sub, contribution(100 + color, w), 0, BcastAlgo::Binomial).await;
            (s, b)
        })
    });
    for (r, (s, b)) in values.iter().enumerate() {
        let group = if r < 4 { 0..4 } else { 4..6 };
        let want_sum: Vec<f64> =
            (0..w).map(|e| group.clone().map(|q| contribution(q, w)[e]).sum()).collect();
        assert_eq!(s, &want_sum, "sub-all-reduce rank {r}");
        let color = usize::from(r >= 4);
        assert_eq!(b, &contribution(100 + color, w), "sub-bcast rank {r}");
    }
    // Meters reflect the subgroup size, not the world size: the largest
    // duplex in the 2-rank group is the 2-rank model, not the 6-rank one.
    let small_model =
        collective::all_reduce_cost(2, w) + collective::bcast_cost(BcastAlgo::Binomial, 2, w);
    let small_max = meters[4..].iter().map(Meter::duplex_words).max().unwrap_or(0);
    assert_eq!(small_max as f64, small_model.words);
}

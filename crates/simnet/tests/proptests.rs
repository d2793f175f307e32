//! Property-based tests for the simulator core: random point-to-point
//! schedules are delivered correctly, meters conserve words, clocks are
//! deterministic, and splits compose under arbitrary colorings.

use pmm_simnet::{MachineParams, World};
use proptest::prelude::*;

/// A random schedule: for each (round, sender) a target and a payload
/// size. Every rank executes the same schedule so receives can be posted
/// deterministically.
#[derive(Debug, Clone)]
struct Schedule {
    p: usize,
    /// rounds × p entries: (target, words)
    rounds: Vec<Vec<(usize, usize)>>,
}

fn schedule() -> impl Strategy<Value = Schedule> {
    (2usize..7).prop_flat_map(|p| {
        let round = proptest::collection::vec((0usize..p, 0usize..16), p);
        proptest::collection::vec(round, 1..5).prop_map(move |rounds| Schedule { p, rounds })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_schedules_deliver_exactly(s in schedule()) {
        // Round r: every rank sends to its scheduled target (skipping
        // self-sends), then receives everything destined to it that round,
        // in sender order. Payload encodes (sender, round) so content is
        // verifiable.
        let p = s.p;
        let rounds = s.rounds.clone();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            let rounds = rounds.clone();
            Box::pin(async move {
                let comm = rank.world_comm();
                let me = rank.world_rank();
                let mut received: Vec<(usize, usize, usize)> = Vec::new(); // (round, from, words)
                for (ri, round) in rounds.iter().enumerate() {
                    let (target, words) = round[me];
                    if target != me {
                        let payload: Vec<f64> =
                            std::iter::repeat_n((me * 1000 + ri) as f64, words).collect();
                        rank.send_a(&comm, target, &payload).await;
                    }
                    for (src, &(tgt, w)) in round.iter().enumerate() {
                        if src != me && tgt == me {
                            let m = rank.recv_a(&comm, src).await;
                            assert_eq!(m.payload.len(), w, "payload length");
                            if w > 0 {
                                assert_eq!(m.payload[0], (src * 1000 + ri) as f64, "payload tag");
                            }
                            received.push((ri, src, w));
                        }
                    }
                }
                (received, rank.meter())
            })
        });
        let results = out.values;

        // Conservation.
        let sent: u64 = results.iter().map(|(_, m)| m.words_sent).sum();
        let recv: u64 = results.iter().map(|(_, m)| m.words_recv).sum();
        prop_assert_eq!(sent, recv);

        // Expected per-rank receive sets match the schedule.
        for (me, result) in results.iter().enumerate() {
            let mut want: Vec<(usize, usize, usize)> = Vec::new();
            for (ri, round) in s.rounds.iter().enumerate() {
                for (src, &(tgt, w)) in round.iter().enumerate() {
                    if src != me && tgt == me {
                        want.push((ri, src, w));
                    }
                }
            }
            prop_assert_eq!(&result.0, &want, "rank {} receive log", me);
        }
    }

    #[test]
    fn clocks_are_deterministic_over_reruns(s in schedule()) {
        let run = |s: &Schedule| {
            let rounds = s.rounds.clone();
            let p = s.p;
            World::new(p, MachineParams::TYPICAL_CLUSTER)
                .run_async(move |rank| {
                    let rounds = rounds.clone();
                    Box::pin(async move {
                        let comm = rank.world_comm();
                        let me = rank.world_rank();
                        for round in &rounds {
                            let (target, words) = round[me];
                            if target != me {
                                rank.send_a(&comm, target, &vec![0.0; words]).await;
                            }
                            for (src, &(tgt, _)) in round.iter().enumerate() {
                                if src != me && tgt == me {
                                    rank.recv_a(&comm, src).await;
                                }
                            }
                        }
                        rank.time()
                    })
                })
                .values
        };
        let a = run(&s);
        let b = run(&s);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn arbitrary_colorings_split_consistently(
        p in 2usize..8,
        colors in proptest::collection::vec(0i64..4, 8),
    ) {
        let colors = colors[..p].to_vec();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let color = colors[rank.world_rank()];
            Box::pin(async move {
                let comm = rank.world_comm();
                let me = rank.world_rank();
                let sub = rank.split_a(&comm, color, me as i64).await.unwrap();
                (sub.size(), sub.index(), sub.members().to_vec())
            })
        });
        for me in 0..p {
            let group: Vec<usize> =
                (0..p).filter(|&r| colors[r] == colors[me]).collect();
            let (size, index, members) = &out.values[me];
            prop_assert_eq!(*size, group.len());
            prop_assert_eq!(&members[..], &group[..], "rank {} group", me);
            prop_assert_eq!(group[*index], me);
        }
    }

    #[test]
    fn memory_meter_is_exact_under_random_programs(
        ops in proptest::collection::vec((0usize..2, 1u64..100), 1..30)
    ) {
        // Replay acquire/release ops; peak must equal the running max.
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let ops = ops.clone();
            Box::pin(async move {
                let mut cur = 0u64;
                let mut peak = 0u64;
                let mut held = Vec::new();
                for &(kind, w) in &ops {
                    if kind == 0 {
                        rank.mem_acquire(w);
                        held.push(w);
                        cur += w;
                        peak = peak.max(cur);
                    } else if let Some(w) = held.pop() {
                        rank.mem_release(w);
                        cur -= w;
                    }
                }
                (rank.mem().peak(), peak, rank.mem().current(), cur)
            })
        });
        let (got_peak, want_peak, got_cur, want_cur) = out.values[0];
        prop_assert_eq!(got_peak, want_peak);
        prop_assert_eq!(got_cur, want_cur);
    }
}

//! **E10 — collective cost optimality** (§3.1 / §5.1): the All-Gather and
//! Reduce-Scatter implementations used by Algorithm 1 move exactly
//! `(1 − 1/p)·w` words per processor (Thakur et al. 2005; Chan et al.
//! 2007) — the property §5.1's cost analysis, and hence the tightness
//! claim, relies on.
//!
//! Sweeps `p` and `w`, measures every algorithm variant, and compares to
//! the closed forms. Also shows the latency ablation (ring vs recursive
//! doubling: same bandwidth, `p−1` vs `log2 p` messages).

use crate::{fnum, print_table, Checks};
use pmm_collectives::{
    all_gather, all_reduce, all_to_all, bcast, costs, reduce_scatter, AllGatherAlgo, AllReduceAlgo,
    BcastAlgo, ReduceScatterAlgo,
};
use pmm_simnet::{Comm, MachineParams, Rank, World};

/// Critical-path cost of one collective, called by every rank of a
/// `p`-rank world on the world communicator.
fn cost(p: usize, params: MachineParams, op: impl Fn(&mut Rank, &Comm) + Send + Sync) -> f64 {
    let out = World::new(p, params).run(|rank| {
        let comm = rank.world_comm();
        op(rank, &comm);
    });
    out.critical_path_time()
}

pub fn run(checks: &mut Checks) {
    println!("collective bandwidth per processor (measured on the simulator)");
    println!("vs the (1 − 1/p)·W optimum, W = total data\n");

    let mut rows = Vec::new();
    for p in [2usize, 3, 4, 7, 8, 16, 32] {
        let w = 120usize; // per-rank block; W = p·w for AG/RS

        // All-Gather (both algorithms where applicable).
        for (name, algo) in [
            ("all-gather/ring", AllGatherAlgo::Ring),
            ("all-gather/recdoubling", AllGatherAlgo::RecursiveDoubling),
        ] {
            if matches!(algo, AllGatherAlgo::RecursiveDoubling) && !p.is_power_of_two() {
                continue;
            }
            let measured = cost(p, MachineParams::BANDWIDTH_ONLY, |rank, comm| {
                all_gather(rank, comm, vec![1.0; w], algo);
            });
            let optimal = (1.0 - 1.0 / p as f64) * (p * w) as f64;
            let model = costs::all_gather_cost(algo, p, w);
            checks.check(format!("{name} p={p}: measured == model"), measured == model.words);
            checks.check(
                format!("{name} p={p}: bandwidth-optimal"),
                (measured - optimal).abs() < 1e-9,
            );
            rows.push(vec![name.into(), p.to_string(), fnum(measured), fnum(optimal)]);
        }

        // Reduce-Scatter.
        let measured = cost(p, MachineParams::BANDWIDTH_ONLY, |rank, comm| {
            reduce_scatter(rank, comm, vec![1.0; p * w], ReduceScatterAlgo::Auto);
        });
        let optimal = (1.0 - 1.0 / p as f64) * (p * w) as f64;
        checks.check(
            format!("reduce-scatter p={p}: bandwidth-optimal"),
            (measured - optimal).abs() < 1e-9,
        );
        rows.push(vec!["reduce-scatter/auto".into(), p.to_string(), fnum(measured), fnum(optimal)]);

        // All-Reduce (Rabenseifner): optimal 2(1 − 1/p)·w.
        let measured = cost(p, MachineParams::BANDWIDTH_ONLY, |rank, comm| {
            all_reduce(rank, comm, vec![1.0; p * w], AllReduceAlgo::ReduceScatterAllGather);
        });
        let optimal = 2.0 * (1.0 - 1.0 / p as f64) * (p * w) as f64;
        checks.check(format!("all-reduce p={p}: 2(1-1/p)w"), (measured - optimal).abs() < 1e-9);
        rows.push(vec!["all-reduce/rsag".into(), p.to_string(), fnum(measured), fnum(optimal)]);

        // All-to-All (pairwise): (p−1)·w.
        let measured = cost(p, MachineParams::BANDWIDTH_ONLY, |rank, comm| {
            all_to_all(rank, comm, &vec![1.0; p * w]);
        });
        let optimal = ((p - 1) * w) as f64;
        checks.check(format!("all-to-all p={p}: (p-1)w"), (measured - optimal).abs() < 1e-9);
        rows.push(vec!["all-to-all/pairwise".into(), p.to_string(), fnum(measured), fnum(optimal)]);
    }
    print_table(&["collective", "p", "measured words", "optimal"], &rows);

    // ---- latency ablation ---------------------------------------------------
    println!("\nlatency ablation (α = 1, β = γ = 0): messages on the critical path");
    let params = MachineParams::new(1.0, 0.0, 0.0);
    let mut rows = Vec::new();
    for p in [4usize, 8, 16, 32] {
        let ring = cost(p, params, |rank, comm| {
            all_gather(rank, comm, &[1.0; 4], AllGatherAlgo::Ring);
        });
        let rd = cost(p, params, |rank, comm| {
            all_gather(rank, comm, &[1.0; 4], AllGatherAlgo::RecursiveDoubling);
        });
        checks.check(format!("latency p={p}: ring == p-1"), ring == (p - 1) as f64);
        checks.check(format!("latency p={p}: recdoubling == log2 p"), rd == (p.ilog2()) as f64);
        rows.push(vec![p.to_string(), fnum(ring), fnum(rd)]);
    }
    print_table(&["p", "ring (p-1 msgs)", "recursive doubling (log2 p)"], &rows);

    // ---- bcast variants -----------------------------------------------------
    println!("\nbroadcast bandwidth: binomial log2(p)·w vs scatter-allgather 2(1-1/p)·w");
    let mut rows = Vec::new();
    for p in [4usize, 8, 16] {
        let w = 160usize;
        let run = |algo: BcastAlgo| {
            cost(p, MachineParams::BANDWIDTH_ONLY, |rank, comm| {
                bcast(rank, comm, vec![1.0; w], 0, algo);
            })
        };
        let bin = run(BcastAlgo::Binomial);
        let sag = run(BcastAlgo::ScatterAllGather);
        checks.check(format!("bcast p={p}: SAG beats binomial at large w"), sag < bin);
        checks.check(
            format!("bcast p={p}: SAG == 2(1-1/p)w"),
            (sag - 2.0 * (1.0 - 1.0 / p as f64) * w as f64).abs() < 1e-9,
        );
        rows.push(vec![p.to_string(), fnum(bin), fnum(sag)]);
    }
    print_table(&["p", "binomial", "scatter-allgather"], &rows);
}

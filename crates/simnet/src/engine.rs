//! How rank programs are driven: continuations and their hosts.
//!
//! Every rank program is a resumable continuation: a plain Rust future
//! built from the async `_a` primitives (`Rank::recv_a` etc.), which
//! suspend at exactly one kind of point — a scheduler yield
//! (`BatonYield` in `fabric.rs`). Everything the workspace runs is
//! hosted by [`World::run_async`](crate::World::run_async): the
//! continuations live in a slab and the calling thread polls exactly the
//! rank that holds the scheduler baton, so a world of P ranks costs P
//! futures, not P OS threads, and worlds of 10^5–10^6 ranks execute for
//! real.
//!
//! A second host, [`World::run`](crate::World::run), gives every rank of
//! a *sync* closure an OS thread. It is kept only as the compatibility
//! host of the frozen benchmark, whose six sync algorithm entry points
//! (`alg1`, `alg1_streamed`, `cannon`, `summa`, `twofived`, `carma`)
//! are each [`poll_now`] over their `_a` body: on a thread host a yield
//! *parks the thread* inside the poll instead of returning `Pending`, so
//! the same body completes in one poll. With
//! [`with_seed`](crate::World::with_seed) /
//! [`with_schedule`](crate::World::with_schedule) the threads pass the
//! scheduler baton among themselves; without, they free-run.
//!
//! There is one implementation of every primitive and one deterministic
//! scheduler (`SchedInner` in `fabric.rs`): picks, the `ChoiceLog`,
//! meters, and simulated clocks are byte-identical
//! between a loop-hosted and a thread-hosted run of the same program
//! under the same `Schedule` (`tests/engine_equivalence.rs`).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// A boxed, possibly non-`Send` future borrowing its rank — the shape of
/// an async rank program. `Rank` handles are deliberately not `Send`
/// across awaits, so this is the local (non-`Send`) analogue of the usual
/// boxed-future alias.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Drive `fut` to completion in a single poll.
///
/// This is how the benchmark's sync algorithm entry points (e.g.
/// `pmm_algs::alg1` wrapping `alg1_a`) execute their async body on a
/// [`World::run`](crate::World::run) thread: the yield points park the
/// thread *inside* `poll`, so the future always completes in one poll.
///
/// # Panics
///
/// Panics if the future suspends, which means a sync entry point was
/// called from a continuation on the event loop
/// ([`World::run_async`](crate::World::run_async)) — a bug in the caller.
pub fn poll_now<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "pmm-simnet: future suspended outside the event loop (a sync algorithm entry \
             point was called inside World::run_async; await its async `_a` form instead)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_now_completes_ready_futures() {
        assert_eq!(poll_now(async { 41 + 1 }), 42);
    }

    #[test]
    #[should_panic(expected = "suspended outside the event loop")]
    fn poll_now_rejects_suspension() {
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        poll_now(Never);
    }
}

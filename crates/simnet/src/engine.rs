//! How rank programs are driven: continuations, their hosts, and the
//! bridge from sync code.
//!
//! Every rank program is a resumable continuation: a plain Rust future
//! built from the async `_a` primitives (`Rank::recv_a` etc.), which
//! suspend at exactly one kind of point — a scheduler yield
//! (`BatonYield` in `fabric.rs`). A [`World`](crate::World) gives each
//! continuation a *host*, chosen by the form of the program, never by a
//! knob:
//!
//! - [`World::run_async`](crate::World::run_async) (an async closure)
//!   stores the continuations in a slab and polls, on the calling
//!   thread, exactly the rank that holds the scheduler baton — a world
//!   of P ranks costs P futures, not P OS threads, so worlds of
//!   10^5–10^6 ranks execute for real.
//! - [`World::run`](crate::World::run) (a sync closure, which cannot
//!   suspend) gives every rank an OS thread. The sync primitives
//!   (`Rank::recv` etc.) are `poll_now(self.recv_a(..))`: on a thread
//!   host a yield *parks the thread* inside the poll instead of
//!   returning `Pending`, so the same body completes in one poll. With
//!   [`with_seed`](crate::World::with_seed) /
//!   [`with_schedule`](crate::World::with_schedule) the threads pass the
//!   scheduler baton among themselves; without, they free-run.
//!
//! There is one implementation of every primitive and one deterministic
//! scheduler (`SchedInner` in `fabric.rs`): picks, `SchedEvent` logs,
//! the `ChoiceLog`, meters, and simulated clocks are byte-identical
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
/// This is how every sync wrapper (e.g. [`Rank::recv`](crate::Rank::recv)
/// wrapping `recv_a`) executes its async body: on a thread host the
/// yield points park the thread *inside* `poll`, so the future always
/// completes in one poll.
///
/// # Panics
///
/// Panics if the future suspends, which means a sync primitive was
/// called from a continuation on the event loop
/// ([`World::run_async`](crate::World::run_async)) — a bug in the caller.
pub fn poll_now<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "pmm-simnet: future suspended outside the event loop (a sync primitive was \
             called inside World::run_async; use the async `_a` form of it and await it)"
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

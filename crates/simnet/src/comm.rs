//! Communicator descriptors.
//!
//! A [`Comm`] names a group of ranks and a context on the fabric; it is a
//! cheap, clonable handle (the member list and the context's mailboxes
//! are shared). All messaging goes through [`Rank`](crate::Rank) methods
//! that take a `&Comm`, because the rank owns the meters and the clock.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use crate::fabric::{Ctx, Mailboxes};

/// A communicator: an ordered group of world ranks sharing a context.
///
/// Indices *within* the communicator (`0..size()`) are the addressing used
/// by [`Rank::send_a`](crate::Rank::send_a) and friends, exactly like MPI
/// ranks within a sub-communicator.
#[derive(Clone)]
pub struct Comm {
    pub(crate) ctx: Ctx,
    /// World ranks of the members, in communicator order.
    pub(crate) members: Arc<Vec<usize>>,
    /// The context's mailboxes, in member order.
    pub(crate) mailboxes: Mailboxes,
    /// This rank's index within `members`.
    pub(crate) my_index: usize,
    /// This rank's count of splits issued on the context, shared by every
    /// clone of the handle, so successive splits on the same parent
    /// rendezvous correctly (all members must issue splits in the same
    /// order).
    pub(crate) split_seq: Rc<Cell<u64>>,
}

impl Comm {
    pub(crate) fn new(
        ctx: Ctx,
        members: Arc<Vec<usize>>,
        mailboxes: Mailboxes,
        my_index: usize,
    ) -> Comm {
        debug_assert!(my_index < members.len());
        debug_assert_eq!(mailboxes.len(), members.len());
        Comm { ctx, members, mailboxes, my_index, split_seq: Rc::new(Cell::new(0)) }
    }

    /// Number of members.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn index(&self) -> usize {
        self.my_index
    }

    /// The context id (diagnostics, trace filtering).
    #[inline]
    pub fn ctx(&self) -> Ctx {
        self.ctx
    }

    /// World rank of member `index`.
    #[inline]
    pub fn world_rank_of(&self, index: usize) -> usize {
        self.members[index]
    }

    /// The members' world ranks in communicator order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    pub(crate) fn next_split_seq(&self) -> u64 {
        let s = self.split_seq.get();
        self.split_seq.set(s + 1);
        s
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("ctx", &self.ctx)
            .field("size", &self.size())
            .field("index", &self.my_index)
            .finish()
    }
}

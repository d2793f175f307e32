//! Communicator descriptors.
//!
//! A [`Comm`] names a group of ranks and a context on the fabric; it is a
//! cheap, clonable handle (the context's id, member list and mailboxes
//! are one shared group). All messaging goes through
//! [`Rank`](crate::Rank) methods that take a `&Comm`, because the rank
//! owns the meters and the clock.

use std::sync::Arc;

use crate::fabric::{Ctx, Group, Mailbox};

/// A communicator: an ordered group of world ranks sharing a context.
///
/// Indices *within* the communicator (`0..size()`) are the addressing used
/// by [`Rank::send_a`](crate::Rank::send_a) and friends, exactly like MPI
/// ranks within a sub-communicator.
#[derive(Clone)]
pub struct Comm {
    /// The context, its members and their mailboxes.
    group: Arc<Group>,
    /// This rank's index within the group.
    my_index: usize,
}

impl Comm {
    pub(crate) fn new(group: Arc<Group>, my_index: usize) -> Comm {
        debug_assert!(my_index < group.members.len());
        Comm { group, my_index }
    }

    /// Number of members.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.members.len()
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn index(&self) -> usize {
        self.my_index
    }

    /// The context id (diagnostics, trace filtering).
    #[inline]
    pub fn ctx(&self) -> Ctx {
        self.group.ctx
    }

    /// World rank of member `index`.
    #[inline]
    pub fn world_rank_of(&self, index: usize) -> usize {
        self.group.members[index]
    }

    /// The members' world ranks in communicator order.
    pub fn members(&self) -> &[usize] {
        &self.group.members
    }

    /// The context's mailboxes, in member order.
    pub(crate) fn mailboxes(&self) -> &[Mailbox] {
        &self.group.mailboxes
    }

    /// The sequence number of this member's next split of the context;
    /// every handle of the member counts in one sequence.
    pub(crate) fn next_split_seq(&self) -> u64 {
        self.group.mailboxes[self.my_index].next_split_seq()
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("ctx", &self.ctx())
            .field("size", &self.size())
            .field("index", &self.my_index)
            .finish()
    }
}

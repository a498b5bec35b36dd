//! Multiplexed completion: wait on *any* of many in-flight tickets from
//! one client thread.
//!
//! A [`CompletionSet`] owns tickets and a shared ready-list. When a
//! ticket is inserted, its response slot is given a one-shot **watcher**;
//! the worker that fulfils (or abandons) the slot pushes the ticket's key
//! onto the ready-list and signals the set's condvar — so
//! [`wait_any`](CompletionSet::wait_any) blocks on one condvar for
//! hundreds of in-flight requests instead of one thread per ticket, with
//! no polling and no lost wakeups (the ready check and the wait happen
//! under the same lock). Hand-rolled on `std::sync` like the rest of the
//! workspace's offline dependency stack — no async runtime.
//!
//! Every resolution path returns the same [`Completed`] a blocking
//! [`Ticket::wait`] would have: the output tensor is moved, never
//! recomputed or copied, so multiplexed completion is trivially
//! bit-identical (and `tests/completion_stress.rs` pins it anyway).

use crate::queue::{Completed, Ticket};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The shared ready-list a slot watcher pushes into when its ticket
/// resolves.
pub(crate) struct ReadyList {
    ready: Mutex<VecDeque<usize>>,
    cv: Condvar,
}

impl ReadyList {
    fn new() -> Self {
        Self {
            ready: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    /// Marks `key` resolved and wakes the waiting client. Called by the
    /// fulfilling worker (or by the insertion itself when the ticket was
    /// already resolved).
    pub(crate) fn push(&self, key: usize) {
        self.ready.lock().unwrap().push_back(key);
        self.cv.notify_all();
    }
}

/// Key of one ticket inside a [`CompletionSet`], returned by
/// [`insert`](CompletionSet::insert) and handed back on resolution so the
/// client can map completions to its own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TicketKey(usize);

impl TicketKey {
    /// The key as a dense index: keys count up from 0 in insertion order,
    /// so they can index client-side metadata directly.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Owns many in-flight [`Ticket`]s and resolves them in completion order
/// from a single client thread.
///
/// Completions are delivered exactly once each, in the order workers
/// resolved them (ties broken by wakeup order). A ticket that was
/// **abandoned** (its worker panicked) propagates the panic from the
/// `wait_any`/`try_any` call that drains it — same contract as
/// [`Ticket::wait`].
///
/// The set is single-threaded on the client side (`&mut self` methods);
/// workers only touch the internal ready-list. Keys are never reused, so
/// memory grows with the total number of inserted tickets — recreate the
/// set per replay/session if that matters.
pub struct CompletionSet {
    list: Arc<ReadyList>,
    /// Slot `k` holds the pending ticket for key `k`; taken on resolution.
    pending: Vec<Option<Ticket>>,
    outstanding: usize,
}

impl Default for CompletionSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CompletionSet {
    /// An empty set.
    pub fn new() -> Self {
        Self {
            list: Arc::new(ReadyList::new()),
            pending: Vec::new(),
            outstanding: 0,
        }
    }

    /// Adds a ticket to the set, returning its key. A ticket that already
    /// resolved is immediately ready.
    pub fn insert(&mut self, ticket: Ticket) -> TicketKey {
        let key = self.pending.len();
        ticket.watch(self.list.clone(), key);
        self.pending.push(Some(ticket));
        self.outstanding += 1;
        TicketKey(key)
    }

    /// Tickets not yet drained by `wait_any`/`try_any`.
    pub fn len(&self) -> usize {
        self.outstanding
    }

    /// Whether every inserted ticket has been drained.
    pub fn is_empty(&self) -> bool {
        self.outstanding == 0
    }

    /// Drains one resolved ticket without blocking; `None` when nothing
    /// has resolved yet (or the set is empty).
    ///
    /// # Panics
    ///
    /// Panics if the drained ticket was abandoned by a panicking worker.
    pub fn try_any(&mut self) -> Option<(TicketKey, Completed)> {
        let key = self.list.ready.lock().unwrap().pop_front()?;
        Some(self.resolve(key))
    }

    /// Blocks until any in-flight ticket resolves and drains it; `None`
    /// iff the set is empty (so `while let Some(..) = set.wait_any()`
    /// drains everything).
    ///
    /// # Panics
    ///
    /// Panics if the drained ticket was abandoned by a panicking worker.
    pub fn wait_any(&mut self) -> Option<(TicketKey, Completed)> {
        if self.outstanding == 0 {
            return None;
        }
        let mut ready = self.list.ready.lock().unwrap();
        loop {
            if let Some(key) = ready.pop_front() {
                drop(ready);
                return Some(self.resolve(key));
            }
            ready = self.list.cv.wait(ready).unwrap();
        }
    }

    /// Like [`wait_any`](CompletionSet::wait_any) but gives up after
    /// `timeout`: `None` means the set is empty **or** nothing resolved in
    /// time — check [`is_empty`](CompletionSet::is_empty) to tell them
    /// apart. Bounding every wait keeps a scheduler regression from
    /// hanging a replay loop (it fails loudly instead).
    ///
    /// # Panics
    ///
    /// Panics if the drained ticket was abandoned by a panicking worker.
    pub fn wait_any_timeout(&mut self, timeout: Duration) -> Option<(TicketKey, Completed)> {
        if self.outstanding == 0 {
            return None;
        }
        let start = Instant::now();
        let mut ready = self.list.ready.lock().unwrap();
        loop {
            if let Some(key) = ready.pop_front() {
                drop(ready);
                return Some(self.resolve(key));
            }
            // Elapsed against `timeout` (no `now + timeout` overflow).
            let waited = start.elapsed();
            if waited >= timeout {
                return None;
            }
            ready = self
                .list
                .cv
                .wait_timeout(ready, timeout - waited)
                .unwrap()
                .0;
        }
    }

    /// Takes the resolved ticket for `key` out of the pending table and
    /// completes it (non-blocking: its slot is already resolved).
    fn resolve(&mut self, key: usize) -> (TicketKey, Completed) {
        let ticket = self.pending[key]
            .take()
            .expect("completion key delivered twice");
        self.outstanding -= 1;
        (TicketKey(key), ticket.wait())
    }
}

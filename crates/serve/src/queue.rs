//! The bounded request queue, admission control, and FIFO batch
//! scheduler of the serving front-end.
//!
//! Clients [`submit`](crate::ServeSession::submit) requests into one
//! shared [`RequestQueue`]; each request may carry a deadline. Worker
//! threads each drive a [`BatchScheduler`] that pops FIFO runs of
//! same-model, same-shape requests and coalesces them into sweeps under
//! the `max_batch` / `max_wait` policy. Admission is enforced at the
//! queue: when it is full, a submission either blocks until a worker
//! frees space or is rejected immediately with the input handed back.
//!
//! On the client side, a [`Ticket`] is a **pollable** completion handle:
//! blocking [`wait`](Ticket::wait), non-blocking
//! [`try_wait`](Ticket::try_wait), bounded
//! [`wait_timeout`](Ticket::wait_timeout), and — through
//! [`CompletionSet`](crate::CompletionSet) — a condvar-backed
//! wait-on-any over hundreds of in-flight tickets. Every path hands over
//! the same moved output tensor, so resolution style never affects the
//! served bits.

use crate::completion::ReadyList;
use crate::metrics::{LatencyHistogram, ModelStats};
use cq_core::BackendKind;
use cq_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a submission does when the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Block the submitting thread until a worker frees space.
    Block,
    /// Reject immediately, handing the input back to the caller.
    Reject,
}

/// Why a submission was not admitted.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue was full under [`Admission::Reject`]; the input is handed
    /// back so the caller can retry or shed the request.
    QueueFull(Tensor),
    /// No **live** model with this id is registered (never registered, or
    /// evicted from the running session).
    UnknownModel(String),
    /// The [`Request`](crate::Request) was built without
    /// [`batch`](crate::Request::batch) — there is nothing to run.
    MissingInput,
    /// The input is not a rank-4 `[B, C, H, W]` tensor, or its `C` is
    /// not the channel count the model's first convolution expects; it
    /// is handed back.
    InvalidInput(Tensor),
    /// The server is shutting down; the input is handed back.
    Closed(Tensor),
}

/// A fulfilled request: the model output plus end-to-end latency
/// (submission call to worker fulfilment, including any admission
/// blocking and queueing time) and the deadline outcome.
#[derive(Debug)]
pub struct Completed {
    /// The model output for this request (`[b, ...]`, matching the
    /// request's batch dimension).
    pub output: Tensor,
    /// Submission-to-fulfilment latency.
    pub latency: Duration,
    /// `true` when the request had a deadline and fulfilment happened
    /// after it. Deadline-expired requests are still served (outputs stay
    /// bit-exact and every admitted ticket resolves) — `missed` records
    /// the violation.
    pub missed: bool,
}

/// Where a worker parks one request's output; the client side waits on it
/// through a [`Ticket`].
pub(crate) struct ResponseSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

struct SlotState {
    result: Option<SlotResult>,
    /// One-shot notification target registered by
    /// [`CompletionSet::insert`](crate::CompletionSet::insert); fired
    /// exactly once, by whichever of fulfil/abandon resolves the slot (or
    /// by registration itself when already resolved).
    watcher: Option<(Arc<ReadyList>, usize)>,
}

enum SlotResult {
    Done(Tensor, Instant),
    /// The worker holding this request panicked before fulfilling it;
    /// every `Ticket` resolution path propagates the failure instead of
    /// hanging.
    Abandoned,
}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(SlotState {
                result: None,
                watcher: None,
            }),
            ready: Condvar::new(),
        }
    }

    /// Parks `output`, wakes the waiting client, and fires the watcher (if
    /// any), returning the stamped completion instant (the same instant
    /// every `Ticket` resolution path will see, so queue-side and
    /// client-side deadline accounting agree).
    pub(crate) fn fulfill(&self, output: Tensor) -> Instant {
        let at = Instant::now();
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.result.is_none(), "slot fulfilled twice");
        st.result = Some(SlotResult::Done(output, at));
        let watcher = st.watcher.take();
        drop(st);
        self.ready.notify_all();
        if let Some((list, key)) = watcher {
            list.push(key);
        }
        at
    }

    /// Marks the slot abandoned *unless already fulfilled* — called while
    /// a worker unwinds so waiting clients fail loudly instead of hanging.
    pub(crate) fn abandon(&self) {
        let mut st = self.state.lock().unwrap();
        if st.result.is_none() {
            st.result = Some(SlotResult::Abandoned);
            let watcher = st.watcher.take();
            drop(st);
            self.ready.notify_all();
            if let Some((list, key)) = watcher {
                list.push(key);
            }
        }
    }

    /// Registers the one-shot watcher; fires it immediately when the slot
    /// already resolved (so a late insertion is never missed).
    fn watch(&self, list: Arc<ReadyList>, key: usize) {
        let mut st = self.state.lock().unwrap();
        if st.result.is_some() {
            drop(st);
            list.push(key);
        } else {
            debug_assert!(st.watcher.is_none(), "slot watched twice");
            st.watcher = Some((list, key));
        }
    }

    fn is_ready(&self) -> bool {
        self.state.lock().unwrap().result.is_some()
    }

    fn take(st: &mut SlotState) -> Option<(Tensor, Instant)> {
        match st.result.take() {
            Some(SlotResult::Done(output, at)) => Some((output, at)),
            Some(SlotResult::Abandoned) => {
                panic!("serving worker panicked before fulfilling this request")
            }
            None => None,
        }
    }

    fn wait(&self) -> (Tensor, Instant) {
        let mut st = self.state.lock().unwrap();
        loop {
            match Self::take(&mut st) {
                Some(done) => return done,
                None => st = self.ready.wait(st).unwrap(),
            }
        }
    }

    fn try_take(&self) -> Option<(Tensor, Instant)> {
        Self::take(&mut self.state.lock().unwrap())
    }

    fn take_timeout(&self, timeout: Duration) -> Option<(Tensor, Instant)> {
        let start = Instant::now();
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(done) = Self::take(&mut st) {
                return Some(done);
            }
            // Elapsed time against the timeout, never `now + timeout`,
            // which overflows for a "forever" timeout such as
            // `Duration::MAX`.
            let waited = start.elapsed();
            if waited >= timeout {
                return None;
            }
            st = self.ready.wait_timeout(st, timeout - waited).unwrap().0;
        }
    }
}
/// Pollable handle to one in-flight request, returned by a successful
/// submission.
///
/// Resolution paths — all returning the **same** [`Completed`] (the
/// output tensor is moved, never recomputed):
///
/// * [`wait`](Ticket::wait) — block until fulfilled (consumes the
///   ticket);
/// * [`try_wait`](Ticket::try_wait) — non-blocking poll; hands the ticket
///   back when still in flight;
/// * [`wait_timeout`](Ticket::wait_timeout) — bounded block; hands the
///   ticket back on timeout;
/// * [`CompletionSet`](crate::CompletionSet) — multiplex many tickets
///   through one condvar-backed wait-on-any.
///
/// Tickets outlive their session: a ticket resolved before
/// [`ServeSession::shutdown`](crate::ServeSession::shutdown) can still be
/// waited afterwards (shutdown resolves every admitted ticket first).
pub struct Ticket {
    slot: Arc<ResponseSlot>,
    submitted_at: Instant,
    deadline: Option<Instant>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("deadline", &self.deadline)
            .field("ready", &self.is_ready())
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Stamps the submission instant; created **before** admission so the
    /// measured latency includes any [`Admission::Block`] backpressure.
    /// A deadline too far away to represent as an [`Instant`] can never
    /// be missed, so it is dropped rather than overflowing.
    pub(crate) fn new(slot: Arc<ResponseSlot>, deadline: Option<Duration>) -> Self {
        let submitted_at = Instant::now();
        Self {
            slot,
            submitted_at,
            deadline: deadline.and_then(|d| submitted_at.checked_add(d)),
        }
    }

    /// The absolute deadline, if one was set at submission (and is
    /// representable).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The instant the submission call was made (before any admission
    /// blocking) — the zero point of [`Completed::latency`].
    pub fn submitted_at(&self) -> Instant {
        self.submitted_at
    }

    /// Whether the request has resolved — a following
    /// [`try_wait`](Ticket::try_wait) will not block. Note that an
    /// **abandoned** ticket (its worker panicked) also reads ready: the
    /// resolution call is what propagates the panic.
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }

    /// Blocks until a worker fulfils the request.
    ///
    /// # Panics
    ///
    /// Panics if the worker serving this request panicked (e.g. the input
    /// shape did not match the model) — the failure propagates to the
    /// waiting client instead of hanging it.
    pub fn wait(self) -> Completed {
        let (output, at) = self.slot.wait();
        self.complete(output, at)
    }

    /// Non-blocking poll: `Ok(done)` when the request has resolved,
    /// `Err(self)` — the ticket handed back, still valid — when it is
    /// still in flight.
    ///
    /// # Panics
    ///
    /// Panics if the worker serving this request panicked (see
    /// [`wait`](Ticket::wait)).
    pub fn try_wait(self) -> Result<Completed, Ticket> {
        match self.slot.try_take() {
            Some((output, at)) => Ok(self.complete(output, at)),
            None => Err(self),
        }
    }

    /// Blocks for at most `timeout`: `Ok(done)` when the request resolved
    /// in time, `Err(self)` — the ticket handed back, still valid — on
    /// timeout. `Duration::ZERO` behaves like
    /// [`try_wait`](Ticket::try_wait).
    ///
    /// # Panics
    ///
    /// Panics if the worker serving this request panicked (see
    /// [`wait`](Ticket::wait)).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Completed, Ticket> {
        match self.slot.take_timeout(timeout) {
            Some((output, at)) => Ok(self.complete(output, at)),
            None => Err(self),
        }
    }

    /// Registers this ticket with a [`CompletionSet`](crate::CompletionSet)
    /// ready-list under `key`.
    pub(crate) fn watch(&self, list: Arc<ReadyList>, key: usize) {
        self.slot.watch(list, key);
    }

    /// The single completion constructor every resolution path funnels
    /// through — one latency formula, one `missed` rule, one moved output.
    fn complete(self, output: Tensor, at: Instant) -> Completed {
        Completed {
            output,
            latency: at.saturating_duration_since(self.submitted_at),
            missed: self.deadline.is_some_and(|d| at > d),
        }
    }
}

/// One admitted request waiting in the queue.
pub(crate) struct QueuedRequest {
    /// Registry index of the target model.
    pub model: usize,
    /// The input `[b, C, H, W]`.
    pub input: Tensor,
    /// Where the output goes.
    pub slot: Arc<ResponseSlot>,
    /// Absolute completion deadline, if any.
    pub deadline: Option<Instant>,
    /// When the request was submitted (before admission blocking).
    pub submitted_at: Instant,
}

/// Per-execution-backend serving counters (one slot per
/// [`BackendKind`], indexed by [`BackendKind::index`] in
/// [`ServeStats::backends`]). Sweeps are attributed to the target model's
/// **primary** backend — the backend most of its active frozen
/// convolutions resolved to — while `active_layers` counts layers
/// exactly, so mixed-backend models show up in both columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Coalesced sweeps served by models primarily on this backend.
    pub sweeps: u64,
    /// Images (batch rows) swept through such models.
    pub images: u64,
    /// Active frozen convolutions resolved onto this backend across the
    /// live resident models when the stats were taken (a gauge that
    /// follows register and evict, not a counter).
    pub active_layers: usize,
}

/// Aggregate serving counters, snapshotted live via
/// [`ServeSession::stats`](crate::ServeSession::stats) and finally by
/// [`ServeSession::shutdown`](crate::ServeSession::shutdown).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests turned away by [`Admission::Reject`].
    pub rejected: u64,
    /// Requests handed to a model sweep (every admitted request is served
    /// before the session shuts down).
    pub served: u64,
    /// Coalesced sweeps formed by the schedulers.
    pub batches: u64,
    /// Total images across all sweeps.
    pub rows_swept: u64,
    /// Largest single sweep handed to a model (may exceed `max_batch`
    /// when one oversized request is swept alone — the model chunks it
    /// internally).
    pub max_sweep_rows: usize,
    /// Deepest the queue ever got (sampled after each admission).
    pub peak_queue_depth: usize,
    /// Mean queue depth over those samples.
    pub mean_queue_depth: f64,
    /// Fulfilments that carried a deadline.
    pub with_deadline: u64,
    /// Fulfilments that happened after the request's deadline.
    pub missed: u64,
    /// Per-backend counters, indexed by [`BackendKind::index`]
    /// (`scalar`, `simd-f32`, `int-panels`).
    pub backends: [BackendStats; 3],
    /// Models registered onto the **live** session
    /// ([`ServeSession::register`](crate::ServeSession::register)) —
    /// models resident at `start()` are not counted.
    pub hot_registered: u64,
    /// Models evicted from the live session
    /// ([`ServeSession::evict`](crate::ServeSession::evict)).
    pub evictions: u64,
    /// Log-bucketed submission-to-fulfilment latency histogram of every
    /// fulfilment.
    pub latency_hist: LatencyHistogram,
    /// Always empty: every fulfilment lands in
    /// [`latency_hist`](ServeStats::latency_hist). Kept only because the
    /// repository benchmark still merges it into `latency_hist`; it goes
    /// when the benchmark reads `latency_hist` alone.
    pub bulk_hist: LatencyHistogram,
    /// Per-model counters in registry slot order (evicted models keep
    /// their row). Names and eviction flags are filled by the session
    /// snapshot; a raw queue snapshot carries empty names.
    pub models: Vec<ModelStats>,
    /// The session's worker-thread count (filled by the session
    /// snapshot).
    pub workers: usize,
}

impl ServeStats {
    /// Images swept per quantization scheme, aggregated over
    /// [`models`](ServeStats::models) in first-seen (slot) order — the
    /// per-scheme attribution the scheme zoo's A/B serving runs read.
    /// Evicted models keep contributing to their scheme's total. Empty on
    /// a raw queue snapshot (scheme names are overlaid by the session,
    /// like model names).
    pub fn images_by_scheme(&self) -> Vec<(String, u64)> {
        let mut totals: Vec<(String, u64)> = Vec::new();
        for m in &self.models {
            if m.scheme.is_empty() {
                continue;
            }
            match totals.iter_mut().find(|(s, _)| *s == m.scheme) {
                Some((_, n)) => *n += m.images,
                None => totals.push((m.scheme.clone(), m.images)),
            }
        }
        totals
    }
}

/// Per-model-slot counters (names/eviction flags live in the registry and
/// are overlaid by the session snapshot).
#[derive(Default, Clone, Copy)]
struct ModelCounters {
    served: u64,
    sweeps: u64,
    images: u64,
}

#[derive(Default)]
struct QueueState {
    /// Admitted requests in arrival order.
    queue: VecDeque<QueuedRequest>,
    closed: bool,
    submitted: u64,
    rejected: u64,
    served: u64,
    batches: u64,
    rows_swept: u64,
    max_sweep_rows: usize,
    peak_depth: usize,
    depth_sum: u64,
    depth_samples: u64,
    with_deadline: u64,
    missed: u64,
    latency_hist: LatencyHistogram,
    backend_stats: [BackendStats; 3],
    models: Vec<ModelCounters>,
    hot_registered: u64,
    evictions: u64,
}

impl QueueState {
    fn model_mut(&mut self, model: usize) -> &mut ModelCounters {
        if self.models.len() <= model {
            self.models.resize(model + 1, ModelCounters::default());
        }
        &mut self.models[model]
    }
}

/// The bounded multi-producer queue shared by clients and workers.
pub(crate) struct RequestQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl RequestQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Admits `req` under `admission` (see [`Admission`]).
    pub(crate) fn submit(
        &self,
        req: QueuedRequest,
        admission: Admission,
    ) -> Result<(), SubmitError> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(SubmitError::Closed(req.input));
            }
            if st.queue.len() < self.capacity {
                break;
            }
            match admission {
                Admission::Reject => {
                    st.rejected += 1;
                    return Err(SubmitError::QueueFull(req.input));
                }
                Admission::Block => st = self.not_full.wait(st).unwrap(),
            }
        }
        st.submitted += 1;
        st.queue.push_back(req);
        let depth = st.queue.len();
        st.peak_depth = st.peak_depth.max(depth);
        st.depth_sum += depth as u64;
        st.depth_samples += 1;
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Records one fulfilment: deadline accounting and the latency
    /// histogram.
    pub(crate) fn note_served(&self, had_deadline: bool, missed: bool, latency: Duration) {
        let mut st = self.state.lock().unwrap();
        st.with_deadline += u64::from(had_deadline);
        st.missed += u64::from(missed);
        st.latency_hist.record(latency);
    }

    /// Attributes one executed sweep of `images` rows to `kind`.
    pub(crate) fn note_backend_sweep(&self, kind: BackendKind, images: u64) {
        let mut st = self.state.lock().unwrap();
        let bs = &mut st.backend_stats[kind.index()];
        bs.sweeps += 1;
        bs.images += images;
    }

    /// Counts one model registered onto the live session.
    pub(crate) fn note_hot_register(&self) {
        self.state.lock().unwrap().hot_registered += 1;
    }

    /// Counts one model evicted from the live session.
    pub(crate) fn note_evicted(&self) {
        self.state.lock().unwrap().evictions += 1;
    }

    /// Marks the queue closed: workers drain what is left and exit, and
    /// further submissions fail with [`SubmitError::Closed`].
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Snapshot of the counters. Model names/eviction flags and the
    /// worker count are not known at the queue — the session snapshot
    /// overlays them.
    pub(crate) fn stats(&self) -> ServeStats {
        let st = self.state.lock().unwrap();
        ServeStats {
            submitted: st.submitted,
            rejected: st.rejected,
            served: st.served,
            batches: st.batches,
            rows_swept: st.rows_swept,
            max_sweep_rows: st.max_sweep_rows,
            peak_queue_depth: st.peak_depth,
            mean_queue_depth: if st.depth_samples == 0 {
                0.0
            } else {
                st.depth_sum as f64 / st.depth_samples as f64
            },
            with_deadline: st.with_deadline,
            missed: st.missed,
            backends: st.backend_stats,
            hot_registered: st.hot_registered,
            evictions: st.evictions,
            latency_hist: st.latency_hist.clone(),
            bulk_hist: LatencyHistogram::new(),
            models: st
                .models
                .iter()
                .map(|m| ModelStats {
                    name: String::new(),
                    scheme: String::new(),
                    served: m.served,
                    sweeps: m.sweeps,
                    images: m.images,
                    evicted: false,
                })
                .collect(),
            workers: 0,
        }
    }
}

/// Forms coalesced sweeps from the shared queue under the
/// `max_batch` / `max_wait` policy. Each worker thread owns one.
pub(crate) struct BatchScheduler<'q> {
    queue: &'q RequestQueue,
    max_batch: Option<usize>,
    max_wait: Duration,
}

impl<'q> BatchScheduler<'q> {
    pub(crate) fn new(
        queue: &'q RequestQueue,
        max_batch: Option<usize>,
        max_wait: Duration,
    ) -> Self {
        assert!(max_batch != Some(0), "max_batch must be positive");
        Self {
            queue,
            max_batch,
            max_wait,
        }
    }

    /// Blocks for the next sweep: pops the queue head and coalesces the
    /// following FIFO run of same-model, same-shape requests under
    /// `max_batch`. While the sweep is unfilled and the queue empty, it
    /// lingers up to `max_wait` (from when the sweep started forming) for
    /// more arrivals; a closed queue ends the linger. A different model
    /// or shape, or a request that would overflow the cap, ends the sweep
    /// — the scheduler never serves around the head. A single request
    /// larger than the cap is swept alone (the model chunks it
    /// internally). Returns `None` once the queue is closed and drained.
    pub(crate) fn next_sweep(&self) -> Option<Vec<QueuedRequest>> {
        let cap = self.max_batch.unwrap_or(usize::MAX);
        let mut st = self.queue.state.lock().unwrap();
        let first = loop {
            if let Some(first) = st.queue.pop_front() {
                break first;
            }
            if st.closed {
                return None;
            }
            st = self.queue.not_empty.wait(st).unwrap();
        };
        // Every pop frees capacity *now* — wake blocked submitters before
        // lingering, or they would stall a full `max_wait` behind us.
        self.queue.not_full.notify_all();
        let model = first.model;
        let inner: Vec<usize> = first.input.shape()[1..].to_vec();
        let mut rows = first.input.dim(0);
        let mut batch = vec![first];
        // Elapsed time is compared with `max_wait`, never added to an
        // `Instant`, so any `max_wait` (even `Duration::MAX`) is safe.
        let formed_at = Instant::now();
        while rows < cap {
            match st.queue.front() {
                Some(next)
                    if next.model == model
                        && next.input.shape()[1..] == inner[..]
                        && rows + next.input.dim(0) <= cap =>
                {
                    let q = st.queue.pop_front().unwrap();
                    rows += q.input.dim(0);
                    batch.push(q);
                    self.queue.not_full.notify_all();
                }
                Some(_) => break,
                None => {
                    let waited = formed_at.elapsed();
                    if st.closed || waited >= self.max_wait {
                        break;
                    }
                    st = self
                        .queue
                        .not_empty
                        .wait_timeout(st, self.max_wait - waited)
                        .unwrap()
                        .0;
                }
            }
        }
        st.batches += 1;
        st.rows_swept += rows as u64;
        st.max_sweep_rows = st.max_sweep_rows.max(rows);
        st.served += batch.len() as u64;
        let m = st.model_mut(model);
        m.sweeps += 1;
        m.images += rows as u64;
        m.served += batch.len() as u64;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompletionSet;

    fn req(model: usize, rows: usize) -> QueuedRequest {
        shaped_req(model, &[rows, 1, 1, 1])
    }

    fn shaped_req(model: usize, shape: &[usize]) -> QueuedRequest {
        QueuedRequest {
            model,
            input: Tensor::zeros(shape),
            slot: Arc::new(ResponseSlot::new()),
            deadline: None,
            submitted_at: Instant::now(),
        }
    }

    /// Reject admission must turn requests away exactly when the queue is
    /// full, handing the input back.
    #[test]
    fn reject_admission_bounds_the_queue() {
        let q = RequestQueue::new(2);
        q.submit(req(0, 1), Admission::Reject).unwrap();
        q.submit(req(0, 1), Admission::Reject).unwrap();
        match q.submit(req(0, 3), Admission::Reject) {
            Err(SubmitError::QueueFull(t)) => assert_eq!(t.dim(0), 3, "input handed back"),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let s = q.stats();
        assert_eq!((s.submitted, s.rejected), (2, 1));
        assert_eq!(s.peak_queue_depth, 2);
    }

    /// Block admission must wait for space instead of rejecting.
    #[test]
    fn block_admission_waits_for_space() {
        let q = Arc::new(RequestQueue::new(1));
        q.submit(req(0, 1), Admission::Block).unwrap();
        let q2 = q.clone();
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let sched = BatchScheduler::new(&q2, Some(4), Duration::ZERO);
            sched.next_sweep().unwrap().len()
        });
        // Blocks until the drainer frees the single slot.
        q.submit(req(0, 1), Admission::Block).unwrap();
        assert_eq!(drainer.join().unwrap(), 1);
        let s = q.stats();
        assert_eq!((s.submitted, s.rejected), (2, 0));
    }

    /// The scheduler coalesces FIFO runs of one model under the cap,
    /// breaks on model switches, and sweeps oversized requests alone.
    #[test]
    fn scheduler_batches_under_cap_and_model() {
        let q = RequestQueue::new(16);
        for (m, b) in [(0, 2), (0, 2), (0, 1), (1, 1), (0, 7), (0, 1)] {
            q.submit(req(m, b), Admission::Block).unwrap();
        }
        q.close();
        let sched = BatchScheduler::new(&q, Some(4), Duration::ZERO);
        let sizes: Vec<(usize, usize)> = std::iter::from_fn(|| sched.next_sweep())
            .map(|b| {
                let rows: usize = b.iter().map(|r| r.input.dim(0)).sum();
                (b[0].model, rows)
            })
            .collect();
        // [2+2] (cap), [1] (model switch), [1], [7] (oversized, alone), [1].
        assert_eq!(sizes, vec![(0, 4), (0, 1), (1, 1), (0, 7), (0, 1)]);
        let s = q.stats();
        assert_eq!(s.batches, 5);
        assert_eq!(s.rows_swept, 14);
        assert_eq!(s.max_sweep_rows, 7);
        assert_eq!(s.served, 6);
    }

    /// An unfilled sweep lingers for late arrivals until the cap fills,
    /// and a close ends the linger at once — neither waits out
    /// `max_wait`, here one too long to add to an `Instant`.
    #[test]
    fn linger_ends_when_the_cap_fills_or_the_queue_closes() {
        let q = Arc::new(RequestQueue::new(16));
        let sched = BatchScheduler::new(&q, Some(2), Duration::MAX);
        q.submit(req(0, 1), Admission::Block).unwrap();
        let q2 = q.clone();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            q2.submit(req(0, 1), Admission::Block).unwrap();
        });
        let t0 = Instant::now();
        assert_eq!(sched.next_sweep().unwrap().len(), 2, "late arrival rides");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cap did not end the linger"
        );
        late.join().unwrap();

        q.submit(req(0, 1), Admission::Block).unwrap();
        let q2 = q.clone();
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            q2.close();
        });
        let t0 = Instant::now();
        assert_eq!(sched.next_sweep().unwrap().len(), 1);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "close did not end the linger"
        );
        closer.join().unwrap();
        assert!(sched.next_sweep().is_none());
    }

    /// Requests with mismatched `[C, H, W]` must never ride one sweep —
    /// they cannot be concatenated — even when the model id matches.
    #[test]
    fn scheduler_never_mixes_shapes_in_a_sweep() {
        let q = RequestQueue::new(8);
        q.submit(req(0, 1), Admission::Block).unwrap();
        q.submit(shaped_req(0, &[1, 2, 3, 3]), Admission::Block)
            .unwrap();
        q.submit(req(0, 1), Admission::Block).unwrap();
        q.close();
        let sched = BatchScheduler::new(&q, Some(8), Duration::ZERO);
        let shapes: Vec<Vec<Vec<usize>>> = std::iter::from_fn(|| sched.next_sweep())
            .map(|b| b.iter().map(|r| r.input.shape().to_vec()).collect())
            .collect();
        assert_eq!(
            shapes,
            vec![
                vec![vec![1, 1, 1, 1]],
                vec![vec![1, 2, 3, 3]],
                vec![vec![1, 1, 1, 1]],
            ]
        );
    }

    /// Abandoning a slot makes its waiter panic instead of hanging;
    /// abandoning after fulfilment is a no-op.
    #[test]
    fn abandoned_slot_fails_loudly_fulfilled_slot_ignores_abandon() {
        let slot = Arc::new(ResponseSlot::new());
        slot.fulfill(Tensor::zeros(&[1]));
        slot.abandon(); // no-op: already fulfilled
        let ticket = Ticket::new(slot, None);
        assert_eq!(ticket.wait().output, Tensor::zeros(&[1]));

        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), None);
        slot.abandon();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()));
        assert!(err.is_err(), "waiting on an abandoned slot must panic");
    }

    /// The pollable paths: `try_wait` hands the ticket back while in
    /// flight and resolves once ready; `wait_timeout` times out cleanly
    /// and later resolves; `is_ready` flips exactly at fulfilment.
    #[test]
    fn pollable_ticket_paths_resolve_without_blocking() {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), None);
        assert!(!ticket.is_ready());
        let ticket = ticket.try_wait().expect_err("nothing fulfilled yet");
        let t0 = Instant::now();
        let ticket = ticket
            .wait_timeout(Duration::from_millis(10))
            .expect_err("timeout must hand the ticket back");
        assert!(t0.elapsed() >= Duration::from_millis(10));
        slot.fulfill(Tensor::zeros(&[2]));
        assert!(ticket.is_ready());
        let done = ticket.try_wait().expect("fulfilled: try_wait resolves");
        assert_eq!(done.output, Tensor::zeros(&[2]));
    }

    /// `Duration::MAX` is a usable "wait forever": `wait_timeout` blocks
    /// until a later fulfilment instead of overflowing `Instant + timeout`.
    /// The result is the same whichever side runs first; the pause only
    /// makes the wait usually block.
    #[test]
    fn ticket_wait_timeout_accepts_duration_max() {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), None);
        let fulfiller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.fulfill(Tensor::zeros(&[2]));
        });
        let done = ticket
            .wait_timeout(Duration::MAX)
            .expect("a forever wait never times out");
        assert_eq!(done.output, Tensor::zeros(&[2]));
        fulfiller.join().unwrap();
    }

    /// An abandoned ticket panics through `try_wait` too — pollable paths
    /// share the loud-failure contract.
    #[test]
    fn abandoned_slot_panics_through_try_wait() {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), None);
        slot.abandon();
        assert!(ticket.is_ready(), "abandoned reads ready");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.try_wait()));
        assert!(err.is_err(), "try_wait on an abandoned slot must panic");
    }

    /// CompletionSet fundamentals at the queue level: already-resolved
    /// tickets are immediately ready, resolution arrives in completion
    /// order, and an abandoned member panics the drain.
    #[test]
    fn completion_set_delivers_in_completion_order() {
        let slots: Vec<Arc<ResponseSlot>> = (0..3).map(|_| Arc::new(ResponseSlot::new())).collect();
        let mut set = CompletionSet::new();
        // Insert the first ticket pre-resolved: it must surface first.
        slots[0].fulfill(Tensor::zeros(&[1]));
        let keys: Vec<_> = slots
            .iter()
            .map(|s| set.insert(Ticket::new(s.clone(), None)))
            .collect();
        assert_eq!(set.len(), 3);
        slots[2].fulfill(Tensor::zeros(&[3]));
        slots[1].fulfill(Tensor::zeros(&[2]));
        let order: Vec<usize> = std::iter::from_fn(|| set.wait_any())
            .map(|(k, done)| {
                assert_eq!(done.output.dim(0), k.index() + 1, "key maps to its ticket");
                k.index()
            })
            .collect();
        assert_eq!(order, vec![0, 2, 1], "completion order, not insertion");
        assert!(set.is_empty());
        assert_eq!(keys.len(), 3);
        assert!(set.try_any().is_none(), "drained set yields nothing");
    }

    /// `wait_any_timeout(Duration::MAX)` blocks until a member resolves
    /// instead of overflowing `Instant + timeout` (either order of the
    /// two threads gives the same result).
    #[test]
    fn completion_set_wait_any_timeout_accepts_duration_max() {
        let slot = Arc::new(ResponseSlot::new());
        let mut set = CompletionSet::new();
        let key = set.insert(Ticket::new(slot.clone(), None));
        let fulfiller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.fulfill(Tensor::zeros(&[3]));
        });
        let (got, done) = set
            .wait_any_timeout(Duration::MAX)
            .expect("a forever wait never times out");
        assert_eq!((got, done.output), (key, Tensor::zeros(&[3])));
        assert!(set.is_empty());
        fulfiller.join().unwrap();
    }

    /// `wait_any_timeout` gives up when nothing resolves, then delivers
    /// once something does; an abandoned ticket panics the drain.
    #[test]
    fn completion_set_timeout_and_abandon() {
        let slot = Arc::new(ResponseSlot::new());
        let mut set = CompletionSet::new();
        set.insert(Ticket::new(slot.clone(), None));
        assert!(
            set.wait_any_timeout(Duration::from_millis(5)).is_none(),
            "nothing resolved inside the timeout"
        );
        assert_eq!(set.len(), 1, "timeout does not drain");
        slot.abandon();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.wait_any_timeout(Duration::from_secs(1))
        }));
        assert!(err.is_err(), "abandoned member must panic the drain");
    }

    /// An expired deadline stamps the completion `missed` without losing
    /// the output; a generous deadline does not.
    #[test]
    fn deadlines_stamp_missed_on_late_fulfilment() {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), Some(Duration::ZERO));
        assert!(ticket.deadline().is_some(), "deadline introspectable");
        std::thread::sleep(Duration::from_millis(2));
        slot.fulfill(Tensor::zeros(&[1]));
        let done = ticket.wait();
        assert!(done.missed, "expired deadline must stamp missed");
        assert_eq!(done.output, Tensor::zeros(&[1]), "output still delivered");

        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), Some(Duration::from_secs(600)));
        slot.fulfill(Tensor::zeros(&[1]));
        assert!(!ticket.wait().missed);
    }

    /// The queue snapshot carries the latency histogram, the deadline
    /// counters and per-model counters keyed by slot index.
    #[test]
    fn stats_snapshot_carries_histograms_series_and_models() {
        let q = RequestQueue::new(8);
        q.submit(req(1, 2), Admission::Block).unwrap();
        q.submit(req(1, 1), Admission::Block).unwrap();
        let sched = BatchScheduler::new(&q, Some(8), Duration::ZERO);
        sched.next_sweep().unwrap();
        q.note_served(true, false, Duration::from_micros(700));
        q.note_served(false, false, Duration::from_millis(3));
        let s = q.stats();
        assert_eq!(s.latency_hist.count(), 2, "every fulfilment recorded");
        assert!(s.bulk_hist.is_empty());
        assert!(
            s.latency_hist.quantile(0.5).unwrap() >= Duration::from_micros(700),
            "quantile upper-bounds the observation"
        );
        assert_eq!((s.with_deadline, s.missed), (1, 0));
        assert_eq!(s.models.len(), 2, "model vec grown to slot index 1");
        assert_eq!(s.models[1].served, 2);
        assert_eq!(s.models[1].sweeps, 1);
        assert_eq!(s.models[1].images, 3);
        let prom = s.render_prometheus();
        assert!(prom.contains("cq_serve_served_total"));
        assert!(prom.contains("cq_serve_latency_seconds_count 2\n"));
    }

    /// Closing wakes blocked submitters with `Closed` and lets schedulers
    /// drain to `None`.
    #[test]
    fn close_drains_and_rejects_new_work() {
        let q = RequestQueue::new(4);
        q.submit(req(0, 1), Admission::Block).unwrap();
        q.close();
        assert!(matches!(
            q.submit(req(0, 1), Admission::Block),
            Err(SubmitError::Closed(_))
        ));
        let sched = BatchScheduler::new(&q, None, Duration::ZERO);
        assert_eq!(sched.next_sweep().unwrap().len(), 1);
        assert!(sched.next_sweep().is_none());
    }
}

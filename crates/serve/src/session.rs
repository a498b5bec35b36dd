//! The owned, non-blocking serving session: the fixed worker pool, the
//! sweep execution path, live model hot-swap, and the client-side
//! submission surface.
//!
//! A [`ServeSession`] is created by
//! [`CimServer::start`](crate::CimServer::start); `shutdown` hands the
//! resident models back. Its worker threads are **owned**
//! `std::thread::spawn` threads sharing the session state through `Arc` —
//! no scope borrow, so the session can be moved, stored, and shut down
//! from anywhere, and clients never block inside a closure unless they
//! choose to.
//!
//! **Hot-swap.** [`register`](ServeSession::register) and
//! [`evict`](ServeSession::evict) mutate the resident model set while the
//! session serves. Eviction drains: in-flight requests against the old
//! model complete bit-exactly, new submissions fail with a recoverable
//! [`SubmitError::UnknownModel`], and the returned
//! [`EvictTicket`](crate::EvictTicket) resolves with the reclaimed
//! [`PreparedCimModel`] once the last in-flight request lands.

use crate::config::ServeConfig;
use crate::metrics::ModelStats;
use crate::queue::{
    BatchScheduler, QueuedRequest, RequestQueue, ResponseSlot, ServeStats, SubmitError, Ticket,
};
use crate::registry::{EvictTicket, ModelId, ModelRegistry, SwapError};
use crate::request::{Request, Target};
use cq_core::{BackendKind, PreparedCimModel};
use std::any::Any;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Everything one session's workers share.
struct SessionShared {
    registry: ModelRegistry,
    queue: RequestQueue,
    cfg: ServeConfig,
}

/// Live session internals; `Option`-wrapped in [`ServeSession`] so both
/// `shutdown(self)` and `Drop` can take them exactly once.
struct SessionInner {
    shared: Arc<SessionShared>,
    /// The worker threads, all spawned at start.
    workers: Vec<JoinHandle<()>>,
}

/// An owned, running serving session: worker threads are spawned at
/// creation and drain the queue until [`shutdown`](ServeSession::shutdown).
///
/// * [`submit`](ServeSession::submit) is the **single** submission entry
///   point, taking a [`Request`] built fluently
///   (`Request::to("m").batch(x).deadline(..)`).
/// * Tickets are pollable ([`Ticket::try_wait`], [`Ticket::wait_timeout`])
///   and multiplexable ([`CompletionSet`](crate::CompletionSet)), so one
///   client thread can keep hundreds of requests in flight — nothing
///   about the session ever forces a block.
/// * [`register`](ServeSession::register) / [`evict`](ServeSession::evict)
///   hot-swap the resident model set without stopping the session.
/// * A fixed pool of [`ServeConfig::workers`] threads drains the queue.
/// * [`shutdown`](ServeSession::shutdown) closes the queue, drains every
///   admitted request (each outstanding ticket resolves — fulfilment or a
///   propagated worker panic, never a hang), joins the workers, and
///   returns the final [`ServeStats`] together with the resident models.
///
/// Dropping a session without `shutdown` (e.g. while a client panic
/// unwinds) closes the queue and joins the workers too, so worker threads
/// never leak; worker panics are swallowed in that path (the client's own
/// panic is already propagating).
pub struct ServeSession {
    inner: Option<SessionInner>,
}

impl ServeSession {
    /// Spawns the session's `workers` worker threads over `registry`
    /// under `cfg` (validated by the caller).
    pub(crate) fn spawn(registry: ModelRegistry, cfg: ServeConfig) -> Self {
        let shared = Arc::new(SessionShared {
            queue: RequestQueue::new(cfg.queue_capacity),
            registry,
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|index| {
                let worker_shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cq-serve-{index}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .expect("spawn serving worker")
            })
            .collect();
        Self {
            inner: Some(SessionInner { shared, workers }),
        }
    }

    fn inner(&self) -> &SessionInner {
        self.inner.as_ref().expect("session already shut down")
    }

    /// Submits one request, returning its pollable [`Ticket`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`] for an unregistered (or evicted)
    /// target; [`SubmitError::MissingInput`] for a request built without
    /// [`Request::batch`]; [`SubmitError::InvalidInput`] for an input
    /// that is not rank 4, or whose channel count is not the model's
    /// [`in_channels`](PreparedCimModel::in_channels) (the input
    /// is handed back); [`SubmitError::QueueFull`] when
    /// full under [`Admission::Reject`](crate::Admission) (the input is
    /// handed back); [`SubmitError::Closed`] once shutdown has begun.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        let shared = &self.inner().shared;
        let registry = &shared.registry;
        let input = request.input.ok_or(SubmitError::MissingInput)?;
        if input.rank() != 4 {
            return Err(SubmitError::InvalidInput(input));
        }
        // The ticket stamps the submission instant before admission, so
        // the latency covers admission; it cannot fail, so nothing
        // admitted below is left unreleased.
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), request.deadline);
        // Admission against the model slot is atomic with liveness: a
        // successful admit means the slot's eviction (if any) will wait
        // for this request to drain.
        let (model, in_channels) = match request.target {
            Target::Id(id) => (id, registry.admit(id)?),
            Target::Name(name) => registry.admit_name(&name)?,
        };
        if in_channels.is_some_and(|c| c != input.dim(1)) {
            registry.release(model);
            return Err(SubmitError::InvalidInput(input));
        }
        let queued = shared.queue.submit(
            QueuedRequest {
                model: model.0,
                input,
                slot,
                deadline: ticket.deadline(),
                submitted_at: ticket.submitted_at(),
            },
            shared.cfg.admission,
        );
        if let Err(err) = queued {
            registry.release(model);
            return Err(err);
        }
        Ok(ticket)
    }

    /// Registers `model` under `name` on the **running** session: the
    /// session's sweep cap (`max_batch`) is installed on it, and new
    /// submissions can route to it the moment this returns. The model
    /// keeps the execution backends its layers resolved at freeze. Names
    /// are reusable after eviction — lookup always resolves to the newest
    /// live model.
    ///
    /// # Errors
    ///
    /// [`SwapError::DuplicateName`] when a live model already holds
    /// `name` (same or different quantization scheme — never a silent
    /// overwrite); the model is handed back.
    pub fn register(
        &self,
        name: impl Into<String>,
        mut model: PreparedCimModel,
    ) -> Result<ModelId, SwapError> {
        let shared = &self.inner().shared;
        model.set_max_batch(shared.cfg.max_batch);
        let id = shared.registry.register_live(name, model)?;
        shared.queue.note_hot_register();
        Ok(id)
    }

    /// Evicts the newest live model named `name` from the running
    /// session. New submissions against the name fail immediately with a
    /// recoverable [`SubmitError::UnknownModel`]; requests already
    /// admitted drain to completion, and the returned
    /// [`EvictTicket`](crate::EvictTicket) resolves with the reclaimed
    /// [`PreparedCimModel`] once the last one lands (immediately, when
    /// the model is idle; at [`shutdown`](ServeSession::shutdown) at the
    /// latest).
    ///
    /// # Errors
    ///
    /// [`SwapError::UnknownModel`] when no live model holds `name`.
    pub fn evict(&self, name: &str) -> Result<EvictTicket, SwapError> {
        let shared = &self.inner().shared;
        let ticket = shared.registry.evict(name)?;
        shared.queue.note_evicted();
        Ok(ticket)
    }

    /// Resolves a model name to its registry handle (for
    /// [`Request::to_id`] hot paths).
    pub fn model_id(&self, name: &str) -> Option<ModelId> {
        self.inner().shared.registry.id(name)
    }

    /// The resident model set.
    pub fn registry(&self) -> &ModelRegistry {
        &self.inner().shared.registry
    }

    /// The policy this session was started under.
    pub fn config(&self) -> &ServeConfig {
        &self.inner().shared.cfg
    }

    /// Live counter snapshot — safe to call concurrently with serving and
    /// hot-swapping (the final numbers come from
    /// [`shutdown`](ServeSession::shutdown)).
    pub fn stats(&self) -> ServeStats {
        let shared = &self.inner().shared;
        let mut stats = shared.queue.stats();
        finalize_stats(shared, &mut stats);
        stats
    }

    /// Shuts the session down: closes the queue (further submissions fail
    /// with [`SubmitError::Closed`]), lets the workers drain every
    /// already-admitted request, joins them, delivers any still-pending
    /// [`EvictTicket`](crate::EvictTicket), and returns the final stats
    /// together with the **live** resident models — ready to re-register
    /// for the next session ([`ModelRegistry::from_models`]). Evicted
    /// models are not in the returned set; they belong to their evict
    /// tickets.
    ///
    /// Every ticket obtained from this session is resolved by the time
    /// `shutdown` returns: fulfilled, or — when its worker panicked —
    /// abandoned so that resolving it propagates the panic.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic (after all workers joined), so a
    /// failed sweep cannot be silently dropped.
    pub fn shutdown(mut self) -> (ServeStats, Vec<(String, PreparedCimModel)>) {
        let inner = self.inner.take().expect("session already shut down");
        let (shared, panic) = close_and_join(inner);
        if let Some(panic) = panic {
            std::panic::resume_unwind(panic);
        }
        let mut stats = shared.queue.stats();
        finalize_stats(&shared, &mut stats);
        let shared = Arc::try_unwrap(shared)
            .ok()
            .expect("workers joined but session state still shared");
        (stats, shared.registry.into_models())
    }
}

impl Drop for ServeSession {
    fn drop(&mut self) {
        // Unwind path (shutdown takes `inner` on the normal path): close
        // so workers exit, join so threads never leak, swallow worker
        // panics — the client's panic is already propagating and a double
        // panic would abort.
        if let Some(inner) = self.inner.take() {
            let _ = close_and_join(inner);
        }
    }
}

/// Closes the queue, joins every worker, and delivers any eviction still
/// waiting on a drain; returns the shared state and the first worker
/// panic.
fn close_and_join(inner: SessionInner) -> (Arc<SessionShared>, Option<Box<dyn Any + Send>>) {
    inner.shared.queue.close();
    let mut first_panic = None;
    for worker in inner.workers {
        if let Err(panic) = worker.join() {
            first_panic.get_or_insert(panic);
        }
    }
    // Workers joined: nothing is in flight, so an eviction still waiting
    // on a drain (e.g. its worker panicked before releasing) resolves now
    // rather than hanging its ticket.
    inner.shared.registry.deliver_pending_evictions();
    (inner.shared, first_panic)
}

/// Overlays what only the session knows onto a queue counter snapshot:
/// model names / scheme attribution / eviction flags and active layers
/// per backend (registry) and the worker count.
fn finalize_stats(shared: &SessionShared, stats: &mut ServeStats) {
    let names = shared.registry.slot_names();
    while stats.models.len() < names.len() {
        stats.models.push(ModelStats::default());
    }
    for (m, (name, scheme, evicted)) in stats.models.iter_mut().zip(names) {
        m.name = name;
        m.scheme = scheme;
        m.evicted = evicted;
    }
    let layers = shared.registry.backend_layer_counts();
    for (bs, n) in stats.backends.iter_mut().zip(layers) {
        bs.active_layers = n;
    }
    stats.workers = shared.cfg.workers;
}

/// One worker: form sweeps and fulfil their tickets until the queue is
/// closed and drained.
fn worker_loop(shared: &SessionShared) {
    let sched = BatchScheduler::new(&shared.queue, shared.cfg.max_batch, shared.cfg.max_wait);
    while let Some(batch) = sched.next_sweep() {
        serve_sweep(shared, batch);
    }
}

/// Serves one formed sweep: runs it, splits the output back per request,
/// and fulfils the tickets with latency and deadline accounting,
/// releasing each request's model admission (the eviction drain count).
fn serve_sweep(shared: &SessionShared, batch: Vec<QueuedRequest>) {
    // If anything below panics, abandon the unfulfilled tickets on unwind
    // so their waiters fail loudly instead of hanging.
    struct AbandonOnDrop(Vec<Arc<ResponseSlot>>);
    impl Drop for AbandonOnDrop {
        fn drop(&mut self) {
            for slot in &self.0 {
                slot.abandon();
            }
        }
    }
    let model = ModelId(batch[0].model);
    let mut inputs = Vec::with_capacity(batch.len());
    let mut metas = Vec::with_capacity(batch.len());
    let mut slots = Vec::with_capacity(batch.len());
    for q in batch {
        inputs.push(q.input);
        metas.push((q.deadline, q.submitted_at));
        slots.push(q.slot);
    }
    let guard = AbandonOnDrop(slots);
    let rows: usize = inputs.iter().map(|t| t.dim(0)).sum();
    // No lock is held across the sweep; the clone is dropped before the
    // releases below so a drained eviction can unwrap the model.
    let pm = shared.registry.model(model);
    let outputs = pm.infer_batch(&inputs);
    let kind = pm.primary_backend().unwrap_or(BackendKind::SimdF32);
    drop(pm);
    shared.queue.note_backend_sweep(kind, rows as u64);
    debug_assert_eq!(outputs.len(), guard.0.len());
    for ((slot, output), (deadline, submitted_at)) in guard.0.iter().zip(outputs).zip(&metas) {
        let at = slot.fulfill(output);
        shared.queue.note_served(
            deadline.is_some(),
            deadline.is_some_and(|d| at > d),
            at.saturating_duration_since(*submitted_at),
        );
        shared.registry.release(model);
    }
    // All fulfilled; the guard's abandon() calls are now no-ops.
}

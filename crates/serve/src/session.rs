//! The owned, non-blocking serving session: the autoscaling worker pool,
//! the sweep execution path, live model hot-swap, and the client-side
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
//! **Autoscaling.** The pool starts at `min_workers` and grows toward
//! `max_workers` when the queue stays deeper than the live worker count
//! for `scale_up_after` (measured across submissions, so a one-off burst
//! that drains immediately never grows the pool). Workers above
//! `min_workers` retire after sitting idle for `scale_down_idle`. Resizes
//! only change who *pops* the shared queue — admitted work is never
//! dropped or reordered by a resize.
//!
//! **Hot-swap.** [`register`](ServeSession::register) and
//! [`evict`](ServeSession::evict) mutate the resident model set while the
//! session serves. Eviction drains: in-flight requests against the old
//! model complete bit-exactly, new submissions fail with a recoverable
//! [`SubmitError::UnknownModel`], and the returned
//! [`EvictTicket`](crate::EvictTicket) resolves with the reclaimed
//! [`PreparedCimModel`] once the last in-flight request lands.

use crate::config::ServeConfig;
use crate::metrics::{ModelStats, WorkerStats};
use crate::queue::BatchScheduler;
use crate::queue::{
    QueuedRequest, RequestQueue, ResponseSlot, ServeStats, SubmitError, Ticket, WorkPoll,
};
use crate::registry::{install_policy, EvictTicket, ModelId, ModelRegistry, SwapError};
use crate::request::{Request, Target};
use cq_core::{BackendKind, PreparedCimModel};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The worker pool's mutable state (behind one mutex — touched on
/// spawn/retire/snapshot, never on the per-request hot path beyond the
/// depth probe in `maybe_scale_up`).
struct PoolState {
    /// Workers currently running (spawned and not retired/exited).
    live: usize,
    /// Most workers ever live at once.
    peak: usize,
    /// Threads spawned over the session, the initial set included.
    spawned: u64,
    /// Grow + shrink events after the initial spawn.
    resizes: u64,
    /// Monotonic worker-name counter.
    next_index: usize,
    /// Since when the queue has been continuously deeper than the live
    /// worker count (the scale-up sustain filter).
    high_since: Option<Instant>,
    /// Join handles of every spawned worker — retired workers' handles
    /// stay here (joining a finished thread is instant) so shutdown joins
    /// every thread ever spawned.
    handles: Vec<JoinHandle<()>>,
}

/// Everything one session's workers share.
struct SessionShared {
    registry: ModelRegistry,
    queue: RequestQueue,
    cfg: ServeConfig,
    pool: Mutex<PoolState>,
}

/// Live session internals; `Option`-wrapped in [`ServeSession`] so both
/// `shutdown(self)` and `Drop` can take them exactly once.
struct SessionInner {
    shared: Arc<SessionShared>,
}

/// An owned, running serving session: worker threads are spawned at
/// creation and drain the queue until [`shutdown`](ServeSession::shutdown).
///
/// * [`submit`](ServeSession::submit) is the **single** submission entry
///   point, taking a [`Request`] built fluently
///   (`Request::to("m").batch(x).slo(..).deadline(..).weight(..).tenant(..)`).
/// * Tickets are pollable ([`Ticket::try_wait`], [`Ticket::wait_timeout`])
///   and multiplexable ([`CompletionSet`](crate::CompletionSet)), so one
///   client thread can keep hundreds of requests in flight — nothing
///   about the session ever forces a block.
/// * [`register`](ServeSession::register) / [`evict`](ServeSession::evict)
///   hot-swap the resident model set without stopping the session.
/// * The worker pool autoscales between `min_workers..=max_workers`
///   against observed queue depth (see the module docs).
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
    /// Spawns the session's initial `min_workers` worker threads over
    /// `registry` under `cfg` (validated by the caller).
    pub(crate) fn spawn(registry: ModelRegistry, cfg: ServeConfig) -> Self {
        let shared = Arc::new(SessionShared {
            queue: RequestQueue::with_tenants(cfg.queue_capacity, &cfg.tenants),
            registry,
            pool: Mutex::new(PoolState {
                live: 0,
                peak: 0,
                spawned: 0,
                resizes: 0,
                next_index: 0,
                high_since: None,
                handles: Vec::new(),
            }),
            cfg,
        });
        {
            let mut pool = shared.pool.lock().unwrap();
            for _ in 0..shared.cfg.min_workers {
                spawn_worker(&shared, &mut pool);
            }
        }
        Self {
            inner: Some(SessionInner { shared }),
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
    /// is handed back);
    /// [`SubmitError::QuotaExceeded`] when the request's tenant is at a
    /// quota (the input is handed back); [`SubmitError::QueueFull`] when
    /// full under [`Admission::Reject`](crate::Admission) (the input is
    /// handed back); [`SubmitError::Closed`] once shutdown has begun.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        let shared = &self.inner().shared;
        let registry = &shared.registry;
        let input = request.input.ok_or(SubmitError::MissingInput)?;
        if input.rank() != 4 {
            return Err(SubmitError::InvalidInput(input));
        }
        let tenant = match &request.tenant {
            None => 0,
            Some(t) => shared.queue.resolve_tenant(t.name()),
        };
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
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), request.slo, request.deadline);
        let queued = shared.queue.submit(
            QueuedRequest {
                model: model.0,
                input,
                slot,
                slo: request.slo,
                deadline: ticket.deadline(),
                submitted_at: ticket.submitted_at(),
                weight: request.weight,
                tenant,
            },
            shared.cfg.admission,
        );
        if let Err(err) = queued {
            registry.release(model);
            return Err(err);
        }
        maybe_scale_up(shared);
        Ok(ticket)
    }

    /// Registers `model` under `name` on the **running** session: the
    /// session's freeze-time knobs (`max_batch`, the backend chain) are
    /// installed on it, and new submissions can route to it the moment
    /// this returns. Names are reusable after eviction — lookup always
    /// resolves to the newest live model.
    ///
    /// # Errors
    ///
    /// [`SwapError::DuplicateName`] when a live model already holds
    /// `name` (same or different quantization scheme — never a silent
    /// overwrite), [`SwapError::SchemeNotAllowed`] when the session's
    /// [`ServeConfig::scheme_allowlist`] refuses the model's scheme, and
    /// [`SwapError::Backend`] when the session's backend chain cannot
    /// execute the model — all hand the model back.
    pub fn register(
        &self,
        name: impl Into<String>,
        mut model: PreparedCimModel,
    ) -> Result<ModelId, SwapError> {
        let shared = &self.inner().shared;
        let allowlist = &shared.cfg.scheme_allowlist;
        if !allowlist.is_empty() && !allowlist.iter().any(|s| s == model.scheme()) {
            let scheme = model.scheme().to_string();
            return Err(SwapError::SchemeNotAllowed { scheme, model });
        }
        if let Err(error) = install_policy(&mut model, &shared.cfg) {
            return Err(SwapError::Backend { error, model });
        }
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

    /// Live worker threads right now (between `min_workers` and
    /// `max_workers`).
    pub fn live_workers(&self) -> usize {
        self.inner().shared.pool.lock().unwrap().live
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
        let mut stats = close_and_join(&inner.shared);
        // Workers joined: nothing is in flight, so any eviction still
        // waiting on a drain (e.g. its worker panicked before releasing)
        // resolves now rather than hanging its ticket.
        inner.shared.registry.deliver_pending_evictions();
        finalize_stats(&inner.shared, &mut stats);
        let shared = Arc::try_unwrap(inner.shared)
            .ok()
            .expect("workers joined but session state still shared");
        (stats, shared.registry.into_models())
    }
}

impl Drop for ServeSession {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            // Unwind path (shutdown takes `inner` on the normal path):
            // close so workers exit, join so threads never leak, swallow
            // worker panics — the client's panic is already propagating
            // and a double panic would abort.
            inner.shared.queue.close();
            loop {
                let handles: Vec<_> = {
                    let mut pool = inner.shared.pool.lock().unwrap();
                    pool.handles.drain(..).collect()
                };
                if handles.is_empty() {
                    break;
                }
                for worker in handles {
                    let _ = worker.join();
                }
            }
            inner.shared.registry.deliver_pending_evictions();
        }
    }
}

/// Spawns one worker thread and records it in the pool (caller holds the
/// pool lock).
fn spawn_worker(shared: &Arc<SessionShared>, pool: &mut PoolState) {
    let index = pool.next_index;
    pool.next_index += 1;
    pool.live += 1;
    pool.peak = pool.peak.max(pool.live);
    pool.spawned += 1;
    let worker_shared = shared.clone();
    let handle = std::thread::Builder::new()
        .name(format!("cq-serve-{index}"))
        .spawn(move || worker_loop(&worker_shared))
        .expect("spawn serving worker");
    pool.handles.push(handle);
}

/// The submit-path scale-up probe: when the queue has stayed deeper than
/// the live worker count for `scale_up_after`, grow the pool by one
/// (up to `max_workers`).
fn maybe_scale_up(shared: &Arc<SessionShared>) {
    if shared.cfg.max_workers <= shared.cfg.min_workers {
        return;
    }
    let depth = shared.queue.depth();
    let mut pool = shared.pool.lock().unwrap();
    if pool.live >= shared.cfg.max_workers || depth <= pool.live {
        pool.high_since = None;
        return;
    }
    let now = Instant::now();
    let since = *pool.high_since.get_or_insert(now);
    if now.duration_since(since) >= shared.cfg.scale_up_after {
        pool.high_since = None;
        spawn_worker(shared, &mut pool);
        pool.resizes += 1;
    }
}

/// Retires the calling worker if the pool is above `min_workers`; returns
/// whether it retired.
fn try_retire(shared: &SessionShared) -> bool {
    let mut pool = shared.pool.lock().unwrap();
    if pool.live > shared.cfg.min_workers {
        pool.live -= 1;
        pool.resizes += 1;
        true
    } else {
        false
    }
}

/// Closes the queue, joins every worker ever spawned, and snapshots the
/// final stats; re-raises the first worker panic after all workers
/// joined. Joins in rounds: a scale-up racing the close can add a handle
/// after the first drain, and that worker exits promptly on the closed
/// queue.
fn close_and_join(shared: &SessionShared) -> ServeStats {
    shared.queue.close();
    let mut first_panic = None;
    loop {
        let handles: Vec<_> = {
            let mut pool = shared.pool.lock().unwrap();
            pool.handles.drain(..).collect()
        };
        if handles.is_empty() {
            break;
        }
        for worker in handles {
            if let Err(panic) = worker.join() {
                first_panic.get_or_insert(panic);
            }
        }
    }
    let stats = shared.queue.stats();
    if let Some(panic) = first_panic {
        std::panic::resume_unwind(panic);
    }
    stats
}

/// Overlays what only the session knows onto a queue counter snapshot:
/// model names / scheme attribution / eviction flags and active layers
/// per backend (registry) and the worker-pool gauges.
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
    let pool = shared.pool.lock().unwrap();
    stats.workers = WorkerStats {
        min: shared.cfg.min_workers,
        max: shared.cfg.max_workers,
        live: pool.live,
        peak: pool.peak,
        spawned: pool.spawned,
        resizes: pool.resizes,
    };
}

/// One worker: form sweeps, fulfil tickets — and, in an autoscaling
/// pool, retire after `scale_down_idle` without work.
fn worker_loop(shared: &SessionShared) {
    let sched = BatchScheduler::new(
        &shared.queue,
        shared.cfg.max_batch,
        shared.cfg.max_wait,
        shared.cfg.policy,
    );
    let idle_after =
        (shared.cfg.max_workers > shared.cfg.min_workers).then_some(shared.cfg.scale_down_idle);
    loop {
        match sched.poll_work(idle_after) {
            WorkPoll::Ready(batch) => serve_sweep(shared, batch),
            WorkPoll::Idle => {
                if try_retire(shared) {
                    return;
                }
            }
            WorkPoll::Closed => {
                shared.pool.lock().unwrap().live -= 1;
                return;
            }
        }
    }
}

/// Serves one formed sweep: runs it, splits the output back per request,
/// and fulfils the tickets with per-class, per-tenant latency and
/// deadline accounting, releasing each request's model admission (the
/// eviction drain count).
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
        metas.push((q.slo, q.deadline, q.submitted_at, q.tenant));
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
    for ((slot, output), (slo, deadline, submitted_at, tenant)) in
        guard.0.iter().zip(outputs).zip(&metas)
    {
        let at = slot.fulfill(output);
        shared.queue.note_served(
            *slo,
            *tenant,
            deadline.is_some(),
            deadline.is_some_and(|d| at > d),
            at.saturating_duration_since(*submitted_at),
        );
        shared.registry.release(model);
    }
    // All fulfilled; the guard's abandon() calls are now no-ops.
}

//! The bounded request queue, admission control, and SLO-aware batch
//! scheduler of the serving front-end.
//!
//! Clients [`submit`](crate::ServeSession::submit) requests into one
//! shared [`RequestQueue`]; each request carries an [`Slo`] class, an
//! optional deadline, and an aging weight. Worker threads each drive a
//! [`BatchScheduler`] that pops runs of same-model, same-class requests
//! and coalesces them into sweeps under the `max_batch` / `max_wait`
//! policy, with class priority: [`Slo::Latency`] work schedules before
//! [`Slo::Bulk`] work and **preempts** bulk batch formation (a lingering
//! bulk sweep closes the moment a latency request lands). Under
//! [`SchedulerPolicy::Aging`](crate::SchedulerPolicy), a bulk head whose
//! weighted queue age reaches `bulk_max_age` outranks new latency
//! arrivals — the starvation bound. Admission is enforced at the queue:
//! when it is full, a submission either blocks until a worker frees space
//! or is rejected immediately with the input handed back.
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
use crate::config::{SchedulerPolicy, TenantSpec};
use crate::metrics::{
    DepthSample, DepthSeries, LatencyHistogram, ModelStats, TenantStats, WorkerStats,
};
use cq_core::BackendKind;
use cq_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service-level-objective class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slo {
    /// Latency-sensitive: schedules before any bulk work and preempts
    /// bulk batch formation.
    Latency,
    /// Throughput-oriented: serves in FIFO order whenever no latency work
    /// is pending (or when aged past the
    /// [`SchedulerPolicy::Aging`](crate::SchedulerPolicy) threshold). The
    /// default class.
    Bulk,
}

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
    /// The request's tenant is at one of its admission quotas
    /// (`max_queued` or `max_in_flight`); the input is handed back.
    /// Quota rejection is always immediate — it never blocks, even under
    /// [`Admission::Block`] — because a quota is a policy limit, not
    /// transient backpressure.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
        /// The input, handed back for retry or shedding.
        input: Tensor,
    },
    /// The [`Request`](crate::Request) was built without
    /// [`batch`](crate::Request::batch) — there is nothing to run.
    MissingInput,
    /// The server is shutting down; the input is handed back.
    Closed(Tensor),
}

/// A fulfilled request: the model output plus end-to-end latency
/// (submission call to worker fulfilment, including any admission
/// blocking and queueing time) and the SLO outcome.
#[derive(Debug)]
pub struct Completed {
    /// The model output for this request (`[b, ...]`, matching the
    /// request's batch dimension).
    pub output: Tensor,
    /// Submission-to-fulfilment latency.
    pub latency: Duration,
    /// The class the request was submitted under.
    pub slo: Slo,
    /// `true` when the request had a deadline and fulfilment happened
    /// after it. Deadline-expired requests are still served (outputs stay
    /// bit-exact and every admitted ticket resolves) — `missed` records
    /// the SLO violation.
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
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(done) = Self::take(&mut st) {
                return Some(done);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            st = self.ready.wait_timeout(st, deadline - now).unwrap().0;
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
    slo: Slo,
    deadline: Option<Instant>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("slo", &self.slo)
            .field("deadline", &self.deadline)
            .field("ready", &self.is_ready())
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Stamps the submission instant; created **before** admission so the
    /// measured latency includes any [`Admission::Block`] backpressure.
    pub(crate) fn new(slot: Arc<ResponseSlot>, slo: Slo, deadline: Option<Duration>) -> Self {
        let submitted_at = Instant::now();
        Self {
            slot,
            submitted_at,
            slo,
            deadline: deadline.map(|d| submitted_at + d),
        }
    }

    /// The absolute deadline, if one was set at submission.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The [`Slo`] class this request was submitted under.
    pub fn slo(&self) -> Slo {
        self.slo
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
            slo: self.slo,
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
    /// Priority class.
    pub slo: Slo,
    /// Absolute completion deadline, if any.
    pub deadline: Option<Instant>,
    /// When the request was submitted (before admission blocking) — the
    /// zero point of its aging clock.
    pub submitted_at: Instant,
    /// Aging-rate multiplier (weighted age = elapsed × weight).
    pub weight: f32,
    /// Queue-side tenant index (0 = the default tenant, for untagged
    /// requests).
    pub tenant: usize,
}

impl QueuedRequest {
    /// The request's weighted queue age at `now`.
    fn weighted_age(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.submitted_at)
            .mul_f64(self.weight as f64)
    }
}

/// Per-[`Slo`]-class counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests admitted into the queue under this class.
    pub submitted: u64,
    /// Requests fulfilled (every admitted request is fulfilled before the
    /// session shuts down).
    pub served: u64,
    /// Fulfilments that carried a deadline.
    pub with_deadline: u64,
    /// Fulfilments that happened after the request's deadline.
    pub missed: u64,
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
    /// resident model set (a session-start snapshot, not a counter).
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
    /// Counters for [`Slo::Latency`] requests.
    pub latency: ClassStats,
    /// Counters for [`Slo::Bulk`] requests.
    pub bulk: ClassStats,
    /// Bulk sweeps served **ahead of pending latency work** because their
    /// head crossed the [`SchedulerPolicy::Aging`](crate::SchedulerPolicy)
    /// threshold — the starvation-bound mechanism firing.
    pub aged_promotions: u64,
    /// Per-backend counters, indexed by [`BackendKind::index`]
    /// (`scalar`, `simd-f32`, `int-panels`).
    pub backends: [BackendStats; 3],
    /// Submissions turned away because a tenant quota was at its limit
    /// (counted separately from capacity [`rejected`](ServeStats::rejected)).
    pub quota_rejected: u64,
    /// Models registered onto the **live** session
    /// ([`ServeSession::register`](crate::ServeSession::register)) —
    /// models resident at `start()` are not counted.
    pub hot_registered: u64,
    /// Models evicted from the live session
    /// ([`ServeSession::evict`](crate::ServeSession::evict)).
    pub evictions: u64,
    /// Log-bucketed submission-to-fulfilment latency histogram of
    /// [`Slo::Latency`] fulfilments.
    pub latency_hist: LatencyHistogram,
    /// Log-bucketed latency histogram of [`Slo::Bulk`] fulfilments.
    pub bulk_hist: LatencyHistogram,
    /// Bounded queue-depth time series (sampled after admissions,
    /// decimated to stay O(1) over long sessions); offsets are relative
    /// to the first admission.
    pub queue_depth_series: Vec<DepthSample>,
    /// Per-tenant counters and histograms, index 0 = the default tenant.
    pub tenants: Vec<TenantStats>,
    /// Per-model counters in registry slot order (evicted models keep
    /// their row). Names and eviction flags are filled by the session
    /// snapshot; a raw queue snapshot carries empty names.
    pub models: Vec<ModelStats>,
    /// Worker-pool gauges (filled by the session snapshot).
    pub workers: WorkerStats,
}

impl ServeStats {
    /// Fraction of deadline-carrying fulfilments that missed (`0.0` when
    /// no fulfilment carried a deadline) — deadline-less traffic does not
    /// dilute the rate.
    pub fn deadline_miss_rate(&self) -> f64 {
        let with_deadline = self.latency.with_deadline + self.bulk.with_deadline;
        if with_deadline == 0 {
            0.0
        } else {
            (self.latency.missed + self.bulk.missed) as f64 / with_deadline as f64
        }
    }

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

/// One tenant's queue-side state: its own per-class FIFO deques, its
/// weighted-fair virtual clock, its admission quotas, and its counters.
struct TenantState {
    name: String,
    weight: f32,
    max_queued: Option<usize>,
    max_in_flight: Option<usize>,
    latency: VecDeque<QueuedRequest>,
    bulk: VecDeque<QueuedRequest>,
    /// Weighted-fair virtual time: advanced by `rows / weight` per sweep
    /// served, so at saturation each tenant's served-row share converges
    /// to its weight share. Bumped to the queue's virtual floor on
    /// (re)activation so idle time never banks scheduling credit.
    vtime: f64,
    /// Admitted-but-not-yet-fulfilled requests (the `max_in_flight`
    /// quota's meter).
    in_flight: usize,
    peak_in_flight: usize,
    submitted: u64,
    served: u64,
    rows: u64,
    quota_rejected: u64,
    histogram: LatencyHistogram,
}

impl TenantState {
    fn new(spec: &TenantSpec, vtime: f64) -> Self {
        Self {
            name: spec.name.clone(),
            weight: spec.weight,
            max_queued: spec.max_queued,
            max_in_flight: spec.max_in_flight,
            latency: VecDeque::new(),
            bulk: VecDeque::new(),
            vtime,
            in_flight: 0,
            peak_in_flight: 0,
            submitted: 0,
            served: 0,
            rows: 0,
            quota_rejected: 0,
            histogram: LatencyHistogram::new(),
        }
    }

    fn queued(&self) -> usize {
        self.latency.len() + self.bulk.len()
    }

    fn class_queue(&mut self, class: Slo) -> &mut VecDeque<QueuedRequest> {
        match class {
            Slo::Latency => &mut self.latency,
            Slo::Bulk => &mut self.bulk,
        }
    }

    fn class_len(&self, class: Slo) -> usize {
        match class {
            Slo::Latency => self.latency.len(),
            Slo::Bulk => self.bulk.len(),
        }
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
    /// Index 0 is always the default tenant (untagged requests); further
    /// tenants come from the config or are created on first submission.
    tenants: Vec<TenantState>,
    closed: bool,
    /// Cached queued-request counts (depth checks and class-priority
    /// decisions are O(1), not O(tenants)).
    latency_queued: usize,
    bulk_queued: usize,
    /// Virtual-time floor: the highest virtual time any sweep was picked
    /// at. A tenant (re)activating bumps its clock at least here.
    vfloor: f64,
    submitted: u64,
    rejected: u64,
    quota_rejected: u64,
    served: u64,
    batches: u64,
    rows_swept: u64,
    max_sweep_rows: usize,
    peak_depth: usize,
    depth_sum: u64,
    depth_samples: u64,
    latency_stats: ClassStats,
    bulk_stats: ClassStats,
    latency_hist: LatencyHistogram,
    bulk_hist: LatencyHistogram,
    depth_series: DepthSeries,
    started: Option<Instant>,
    aged_promotions: u64,
    backend_stats: [BackendStats; 3],
    models: Vec<ModelCounters>,
    hot_registered: u64,
    evictions: u64,
}

impl QueueState {
    fn depth(&self) -> usize {
        self.latency_queued + self.bulk_queued
    }

    fn class_stats_mut(&mut self, slo: Slo) -> &mut ClassStats {
        match slo {
            Slo::Latency => &mut self.latency_stats,
            Slo::Bulk => &mut self.bulk_stats,
        }
    }

    fn class_hist_mut(&mut self, slo: Slo) -> &mut LatencyHistogram {
        match slo {
            Slo::Latency => &mut self.latency_hist,
            Slo::Bulk => &mut self.bulk_hist,
        }
    }

    fn model_mut(&mut self, model: usize) -> &mut ModelCounters {
        if self.models.len() <= model {
            self.models.resize(model + 1, ModelCounters::default());
        }
        &mut self.models[model]
    }

    /// The tenant with the lowest virtual time among those with `class`
    /// work queued (ties break to the lowest index — the default tenant,
    /// then configuration order). Caller guarantees the class is
    /// non-empty. Advances the virtual floor to the winning clock.
    fn wfq_pick(&mut self, class: Slo) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (i, t) in self.tenants.iter().enumerate() {
            if t.class_len(class) == 0 {
                continue;
            }
            if best.map_or(true, |(_, v)| t.vtime < v) {
                best = Some((i, t.vtime));
            }
        }
        let (idx, vtime) = best.expect("wfq_pick on an empty class");
        if vtime > self.vfloor {
            self.vfloor = vtime;
        }
        idx
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
    /// A queue with only the built-in default tenant (the unit-test
    /// shorthand; sessions use [`with_tenants`](RequestQueue::with_tenants)).
    #[cfg(test)]
    pub(crate) fn new(capacity: usize) -> Self {
        Self::with_tenants(capacity, &[])
    }

    /// A queue with the default tenant (index 0, weight 1, no quotas —
    /// untagged requests land here) plus one [`TenantState`] per
    /// configured [`TenantSpec`], in configuration order.
    pub(crate) fn with_tenants(capacity: usize, specs: &[TenantSpec]) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let mut state = QueueState::default();
        state
            .tenants
            .push(TenantState::new(&TenantSpec::new("default"), 0.0));
        for spec in specs {
            state.tenants.push(TenantState::new(spec, 0.0));
        }
        Self {
            capacity,
            state: Mutex::new(state),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Resolves a tenant name to its queue-side index, creating an
    /// unconfigured tenant (weight 1, no quotas) on first sight.
    pub(crate) fn resolve_tenant(&self, name: &str) -> usize {
        let mut st = self.state.lock().unwrap();
        if let Some(i) = st.tenants.iter().position(|t| t.name == name) {
            return i;
        }
        let vtime = st.vfloor;
        st.tenants
            .push(TenantState::new(&TenantSpec::new(name), vtime));
        st.tenants.len() - 1
    }

    /// Admits `req` under `admission` (see [`Admission`]). The capacity
    /// bound covers both classes together. Tenant quotas are checked
    /// first and reject immediately — a quota-capped submission never
    /// parks on a full queue.
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
            let tenant = &mut st.tenants[req.tenant];
            let quota_hit = tenant.max_queued.is_some_and(|q| tenant.queued() >= q)
                || tenant.max_in_flight.is_some_and(|q| tenant.in_flight >= q);
            if quota_hit {
                tenant.quota_rejected += 1;
                let name = tenant.name.clone();
                st.quota_rejected += 1;
                return Err(SubmitError::QuotaExceeded {
                    tenant: name,
                    input: req.input,
                });
            }
            if st.depth() < self.capacity {
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
        st.class_stats_mut(req.slo).submitted += 1;
        match req.slo {
            Slo::Latency => st.latency_queued += 1,
            Slo::Bulk => st.bulk_queued += 1,
        }
        let vfloor = st.vfloor;
        let tenant = &mut st.tenants[req.tenant];
        // (Re)activation bump: an idle tenant rejoins at the virtual
        // floor, so idle time never banks scheduling credit.
        if tenant.queued() == 0 && tenant.vtime < vfloor {
            tenant.vtime = vfloor;
        }
        tenant.submitted += 1;
        tenant.in_flight += 1;
        tenant.peak_in_flight = tenant.peak_in_flight.max(tenant.in_flight);
        tenant.class_queue(req.slo).push_back(req);
        let depth = st.depth();
        st.peak_depth = st.peak_depth.max(depth);
        st.depth_sum += depth as u64;
        st.depth_samples += 1;
        let now = Instant::now();
        let started = *st.started.get_or_insert(now);
        st.depth_series
            .record(now.saturating_duration_since(started), depth);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Records one fulfilment: per-class accounting, the class and tenant
    /// latency histograms, and the tenant's in-flight meter.
    pub(crate) fn note_served(
        &self,
        slo: Slo,
        tenant: usize,
        had_deadline: bool,
        missed: bool,
        latency: Duration,
    ) {
        let mut st = self.state.lock().unwrap();
        let cs = st.class_stats_mut(slo);
        cs.served += 1;
        cs.with_deadline += u64::from(had_deadline);
        cs.missed += u64::from(missed);
        st.class_hist_mut(slo).record(latency);
        let t = &mut st.tenants[tenant];
        t.served += 1;
        t.in_flight = t.in_flight.saturating_sub(1);
        t.histogram.record(latency);
        drop(st);
        // In-flight quota space freed: a blocked submitter never waits on
        // this (quotas reject immediately), but wake capacity waiters in
        // case a fulfilment races a capacity pop notification.
        self.not_full.notify_all();
    }

    /// Attributes one executed sweep of `images` rows to `kind`.
    pub(crate) fn note_backend_sweep(&self, kind: BackendKind, images: u64) {
        let mut st = self.state.lock().unwrap();
        let bs = &mut st.backend_stats[kind.index()];
        bs.sweeps += 1;
        bs.images += images;
    }

    /// Current queued-request depth (both classes) — the autoscaler's
    /// load signal.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().depth()
    }

    /// Counts one model registered onto the live session.
    pub(crate) fn note_hot_register(&self) {
        self.state.lock().unwrap().hot_registered += 1;
    }

    /// Counts one model evicted from the live session.
    pub(crate) fn note_evicted(&self) {
        self.state.lock().unwrap().evictions += 1;
    }

    /// Installs the session-start snapshot of active frozen-layer counts
    /// per backend (see [`BackendStats::active_layers`]).
    pub(crate) fn set_backend_layers(&self, layers: [usize; 3]) {
        let mut st = self.state.lock().unwrap();
        for (bs, n) in st.backend_stats.iter_mut().zip(layers) {
            bs.active_layers = n;
        }
    }

    /// Marks the queue closed: workers drain what is left and exit, and
    /// further submissions fail with [`SubmitError::Closed`].
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Snapshot of the counters. Model names/eviction flags and worker
    /// gauges are not known at the queue — the session snapshot overlays
    /// them.
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
            latency: st.latency_stats,
            bulk: st.bulk_stats,
            aged_promotions: st.aged_promotions,
            backends: st.backend_stats,
            quota_rejected: st.quota_rejected,
            hot_registered: st.hot_registered,
            evictions: st.evictions,
            latency_hist: st.latency_hist.clone(),
            bulk_hist: st.bulk_hist.clone(),
            queue_depth_series: st.depth_series.snapshot(),
            tenants: st
                .tenants
                .iter()
                .map(|t| TenantStats {
                    name: t.name.clone(),
                    weight: t.weight,
                    submitted: t.submitted,
                    served: t.served,
                    rows: t.rows,
                    quota_rejected: t.quota_rejected,
                    peak_in_flight: t.peak_in_flight,
                    histogram: t.histogram.clone(),
                })
                .collect(),
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
            workers: WorkerStats::default(),
        }
    }
}

/// Outcome of a bounded scheduler poll
/// ([`BatchScheduler::poll_work`]).
pub(crate) enum WorkPoll {
    /// A coalesced sweep of whole requests (one model, one class) to
    /// execute.
    Ready(Vec<QueuedRequest>),
    /// Nothing arrived within the idle bound — the autoscaler's
    /// retirement signal.
    Idle,
    /// The queue is closed and fully drained.
    Closed,
}

/// Forms coalesced sweeps from the shared queue under the
/// `max_batch` / `max_wait` policy with [`Slo`] priority (strict, or
/// strict-with-aging). Each worker thread owns one.
pub(crate) struct BatchScheduler<'q> {
    queue: &'q RequestQueue,
    max_batch: Option<usize>,
    max_wait: Duration,
    policy: SchedulerPolicy,
}

impl<'q> BatchScheduler<'q> {
    pub(crate) fn new(
        queue: &'q RequestQueue,
        max_batch: Option<usize>,
        max_wait: Duration,
        policy: SchedulerPolicy,
    ) -> Self {
        assert!(max_batch != Some(0), "max_batch must be positive");
        Self {
            queue,
            max_batch,
            max_wait,
            policy,
        }
    }

    /// The tenant holding the **stalest** queued bulk request — the one
    /// with the highest weighted age at or past the aging threshold —
    /// or `None` when nothing is stale (always `None` under
    /// [`SchedulerPolicy::Strict`](crate::SchedulerPolicy)). Scanning
    /// every deque — not just the heads — keeps the starvation bound
    /// per-request even with heterogeneous weights: a weight-1.0 request
    /// queued behind a slow-aging weight-0.1 head still trips the
    /// promotion on its own clock (its tenant's bulk then drains FIFO
    /// from the head, so it is reached within the requests ahead of it —
    /// bounded by the queue capacity). The scan is O(queue depth) under
    /// the lock, and the depth is bounded by `queue_capacity`.
    fn stale_bulk_tenant(&self, st: &QueueState) -> Option<usize> {
        let limit = self.policy.bulk_max_age()?;
        let now = Instant::now();
        let mut stalest: Option<(usize, Duration)> = None;
        for (i, t) in st.tenants.iter().enumerate() {
            for r in &t.bulk {
                let age = r.weighted_age(now);
                if age >= limit && stalest.map_or(true, |(_, a)| age > a) {
                    stalest = Some((i, age));
                }
            }
        }
        stalest.map(|(i, _)| i)
    }

    /// Blocks for the next sweep, in priority order:
    ///
    /// 1. **Aged bulk sweeps** (only under
    ///    [`SchedulerPolicy::Aging`](crate::SchedulerPolicy)) — when any
    ///    queued bulk request's weighted age has reached `bulk_max_age`,
    ///    the bulk class outranks new latency arrivals (served FIFO from
    ///    its head). This is the starvation bound: under a sustained
    ///    latency flood, every admitted bulk request is picked up within
    ///    `bulk_max_age / weight` of submission, plus the sweep a worker
    ///    already has in flight and the (capacity-bounded) bulk requests
    ///    queued ahead of it.
    /// 2. **Latency sweeps** — a maximal FIFO run of same-model,
    ///    same-shape [`Slo::Latency`] requests under `max_batch`. Latency
    ///    sweeps never linger: they coalesce only what is already queued.
    /// 3. **Bulk sweeps** — lingering up to `max_wait` for more
    ///    same-model arrivals while unfilled, but the linger (and sweep
    ///    growth) aborts the moment latency work arrives — that is the
    ///    preemption of bulk batch formation.
    ///
    /// A single request larger than the cap is swept alone — the model
    /// chunks it internally. Returns `None` once the queue is closed and
    /// drained. (Unit-test shorthand; the worker loop polls
    /// [`poll_work`](BatchScheduler::poll_work).)
    #[cfg(test)]
    pub(crate) fn next_sweep(&self) -> Option<Vec<QueuedRequest>> {
        match self.poll_work(None) {
            WorkPoll::Ready(sweep) => Some(sweep),
            WorkPoll::Closed => None,
            WorkPoll::Idle => unreachable!("unbounded poll never idles out"),
        }
    }

    /// [`next_sweep`](BatchScheduler::next_sweep) with an optional idle
    /// bound: when no work arrives within `idle_after` of the call, the
    /// poll returns [`WorkPoll::Idle`] instead of blocking forever — the
    /// hook the autoscaler uses to retire surplus workers.
    pub(crate) fn poll_work(&self, idle_after: Option<Duration>) -> WorkPoll {
        let cap = self.max_batch.unwrap_or(usize::MAX);
        let idle_deadline = idle_after.map(|d| Instant::now() + d);
        let mut st = self.queue.state.lock().unwrap();
        loop {
            // Aged bulk outranks *pending* latency work; when no latency
            // work is queued, the normal order below serves bulk anyway
            // (and the promotion counter only counts real overtakes). The
            // promoted sweep comes from the tenant holding the stalest
            // request — the starvation bound is per-request, so weighted
            // fairness yields to it.
            if st.latency_queued > 0 {
                if let Some(tenant) = self.stale_bulk_tenant(&st) {
                    st.aged_promotions += 1;
                    return WorkPoll::Ready(self.form_sweep(st, Slo::Bulk, tenant, cap));
                }
                let tenant = st.wfq_pick(Slo::Latency);
                return WorkPoll::Ready(self.form_sweep(st, Slo::Latency, tenant, cap));
            }
            if st.bulk_queued > 0 {
                let tenant = st.wfq_pick(Slo::Bulk);
                return WorkPoll::Ready(self.form_sweep(st, Slo::Bulk, tenant, cap));
            }
            if st.closed {
                return WorkPoll::Closed;
            }
            match idle_deadline {
                None => st = self.queue.not_empty.wait(st).unwrap(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return WorkPoll::Idle;
                    }
                    st = self
                        .queue
                        .not_empty
                        .wait_timeout(st, deadline - now)
                        .unwrap()
                        .0;
                }
            }
        }
    }

    /// Pops the head of `tenant`'s `class` deque and coalesces the
    /// following same-model, same-shape run under `cap` (strict FIFO
    /// within the tenant's class: never serves around the head; sweeps
    /// never mix tenants, so per-tenant row accounting stays exact). Only
    /// bulk sweeps linger, and a linger also breaks when **another**
    /// tenant has bulk queued — one tenant's quiet period must not stall
    /// the others.
    fn form_sweep(
        &self,
        mut st: std::sync::MutexGuard<'_, QueueState>,
        class: Slo,
        tenant: usize,
        cap: usize,
    ) -> Vec<QueuedRequest> {
        fn pop(st: &mut QueueState, class: Slo, tenant: usize) -> Option<QueuedRequest> {
            let q = st.tenants[tenant].class_queue(class).pop_front()?;
            match class {
                Slo::Latency => st.latency_queued -= 1,
                Slo::Bulk => st.bulk_queued -= 1,
            }
            st.tenants[tenant].rows += q.input.dim(0) as u64;
            Some(q)
        }
        let first = pop(&mut st, class, tenant).expect("form_sweep on an empty class");
        // Every pop frees capacity *now* — wake blocked submitters before
        // lingering, or they would stall a full `max_wait` behind us.
        self.queue.not_full.notify_all();
        let model = first.model;
        let inner: Vec<usize> = first.input.shape()[1..].to_vec();
        let mut rows = first.input.dim(0);
        let mut batch = vec![first];
        let deadline = Instant::now() + self.max_wait;
        while rows < cap {
            match st.tenants[tenant].class_queue(class).front() {
                Some(next)
                    if next.model == model
                        && next.input.shape()[1..] == inner[..]
                        && rows + next.input.dim(0) <= cap =>
                {
                    let q = pop(&mut st, class, tenant).unwrap();
                    rows += q.input.dim(0);
                    batch.push(q);
                    self.queue.not_full.notify_all();
                }
                // A different model/shape or an overflowing request ends
                // the sweep (strict FIFO: never serve around the head).
                Some(_) => break,
                None => {
                    // Latency sweeps never linger; bulk linger aborts the
                    // moment higher-priority work shows up — or another
                    // tenant queues bulk work of its own.
                    let other_bulk = st.bulk_queued > st.tenants[tenant].bulk.len();
                    if class == Slo::Latency || st.closed || st.latency_queued > 0 || other_bulk {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    st = self
                        .queue
                        .not_empty
                        .wait_timeout(st, deadline - now)
                        .unwrap()
                        .0;
                }
            }
        }
        st.batches += 1;
        st.rows_swept += rows as u64;
        st.max_sweep_rows = st.max_sweep_rows.max(rows);
        st.served += batch.len() as u64;
        // Advance the serving tenant's weighted-fair clock by the rows it
        // just consumed, normalized by its weight.
        let t = &mut st.tenants[tenant];
        t.vtime += rows as f64 / f64::from(t.weight.max(f32::EPSILON));
        let m = st.model_mut(model);
        m.sweeps += 1;
        m.images += rows as u64;
        m.served += batch.len() as u64;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompletionSet;

    fn req(model: usize, rows: usize) -> QueuedRequest {
        class_req(model, rows, Slo::Bulk)
    }

    fn class_req(model: usize, rows: usize, slo: Slo) -> QueuedRequest {
        QueuedRequest {
            model,
            input: Tensor::zeros(&[rows, 1, 1, 1]),
            slot: Arc::new(ResponseSlot::new()),
            slo,
            deadline: None,
            submitted_at: Instant::now(),
            weight: 1.0,
            tenant: 0,
        }
    }

    fn strict(
        queue: &RequestQueue,
        max_batch: Option<usize>,
        max_wait: Duration,
    ) -> BatchScheduler<'_> {
        BatchScheduler::new(queue, max_batch, max_wait, SchedulerPolicy::Strict)
    }

    /// Reject admission must turn requests away exactly when the queue is
    /// full, handing the input back.
    #[test]
    fn reject_admission_bounds_the_queue() {
        let q = RequestQueue::new(2);
        q.submit(req(0, 1), Admission::Reject).unwrap();
        q.submit(class_req(0, 1, Slo::Latency), Admission::Reject)
            .unwrap();
        match q.submit(req(0, 3), Admission::Reject) {
            Err(SubmitError::QueueFull(t)) => assert_eq!(t.dim(0), 3, "input handed back"),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let s = q.stats();
        assert_eq!((s.submitted, s.rejected), (2, 1));
        assert_eq!(s.peak_queue_depth, 2, "both classes share the bound");
        assert_eq!(s.latency.submitted, 1);
        assert_eq!(s.bulk.submitted, 1);
    }

    /// Block admission must wait for space instead of rejecting.
    #[test]
    fn block_admission_waits_for_space() {
        let q = Arc::new(RequestQueue::new(1));
        q.submit(req(0, 1), Admission::Block).unwrap();
        let q2 = q.clone();
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let sched = strict(&q2, Some(4), Duration::ZERO);
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
        let sched = strict(&q, Some(4), Duration::ZERO);
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

    /// Latency-class work always schedules before bulk work, even when the
    /// bulk requests were submitted first, and the two classes never ride
    /// one sweep.
    #[test]
    fn latency_class_schedules_before_earlier_bulk() {
        let q = RequestQueue::new(16);
        q.submit(class_req(0, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        q.submit(class_req(0, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        q.submit(class_req(0, 1, Slo::Latency), Admission::Block)
            .unwrap();
        q.submit(class_req(0, 1, Slo::Latency), Admission::Block)
            .unwrap();
        q.close();
        let sched = strict(&q, Some(8), Duration::ZERO);
        let classes: Vec<Vec<Slo>> = std::iter::from_fn(|| sched.next_sweep())
            .map(|b| b.iter().map(|r| r.slo).collect())
            .collect();
        assert_eq!(
            classes,
            vec![vec![Slo::Latency, Slo::Latency], vec![Slo::Bulk, Slo::Bulk],]
        );
    }

    /// Under the aging policy, a bulk head older than `bulk_max_age`
    /// outranks latency work that arrived after it — and the promotion is
    /// counted. Fresh bulk still yields to latency.
    #[test]
    fn aged_bulk_head_outranks_pending_latency() {
        let q = RequestQueue::new(16);
        let mut stale = class_req(0, 1, Slo::Bulk);
        // Backdate the bulk head far past the threshold (no sleeping).
        stale.submitted_at = Instant::now() - Duration::from_secs(60);
        q.submit(stale, Admission::Block).unwrap();
        q.submit(class_req(0, 1, Slo::Latency), Admission::Block)
            .unwrap();
        q.submit(class_req(0, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        q.close();
        let sched = BatchScheduler::new(
            &q,
            Some(1),
            Duration::ZERO,
            SchedulerPolicy::Aging {
                bulk_max_age: Duration::from_secs(30),
            },
        );
        let classes: Vec<Slo> = std::iter::from_fn(|| sched.next_sweep())
            .map(|b| b[0].slo)
            .collect();
        // Stale bulk first (promoted), then latency, then the fresh bulk.
        assert_eq!(classes, vec![Slo::Bulk, Slo::Latency, Slo::Bulk]);
        assert_eq!(q.stats().aged_promotions, 1, "exactly one real overtake");
    }

    /// The stale scan covers the whole bulk deque, not just its head: a
    /// fast-aging request queued behind a slow-aging head trips the
    /// promotion on its own clock, and bulk then drains FIFO from the
    /// head — no per-request starvation behind a low-weight head.
    #[test]
    fn stale_bulk_behind_slow_aging_head_still_promotes() {
        let q = RequestQueue::new(16);
        let mut slow_head = class_req(0, 1, Slo::Bulk);
        // Head: 40 s old but weight 0.1 → weighted age 4 s, not stale.
        slow_head.submitted_at = Instant::now() - Duration::from_secs(40);
        slow_head.weight = 0.1;
        q.submit(slow_head, Admission::Block).unwrap();
        let mut fast_second = class_req(0, 1, Slo::Bulk);
        // Behind it: 35 s old at weight 1.0 → stale past the 30 s limit.
        fast_second.submitted_at = Instant::now() - Duration::from_secs(35);
        q.submit(fast_second, Admission::Block).unwrap();
        q.submit(class_req(0, 1, Slo::Latency), Admission::Block)
            .unwrap();
        q.close();
        let sched = BatchScheduler::new(
            &q,
            Some(1),
            Duration::ZERO,
            SchedulerPolicy::Aging {
                bulk_max_age: Duration::from_secs(30),
            },
        );
        let classes: Vec<Slo> = std::iter::from_fn(|| sched.next_sweep())
            .map(|b| b[0].slo)
            .collect();
        // Both bulk sweeps outrank the latency arrival (FIFO within the
        // class: the slow head rides the first promoted sweep).
        assert_eq!(classes, vec![Slo::Bulk, Slo::Bulk, Slo::Latency]);
        assert_eq!(q.stats().aged_promotions, 2);
    }

    /// Per-request weights scale the aging clock: at equal queue age, a
    /// heavy bulk head crosses the threshold while a weight-1 head does
    /// not.
    #[test]
    fn aging_weight_scales_the_clock() {
        let age = Duration::from_secs(10);
        let policy = SchedulerPolicy::Aging {
            bulk_max_age: Duration::from_secs(30),
        };
        for (weight, promoted) in [(1.0f32, false), (4.0, true)] {
            let q = RequestQueue::new(16);
            let mut head = class_req(0, 1, Slo::Bulk);
            head.submitted_at = Instant::now() - age;
            head.weight = weight;
            q.submit(head, Admission::Block).unwrap();
            q.submit(class_req(0, 1, Slo::Latency), Admission::Block)
                .unwrap();
            q.close();
            let sched = BatchScheduler::new(&q, Some(1), Duration::ZERO, policy);
            let first = sched.next_sweep().unwrap();
            let want = if promoted { Slo::Bulk } else { Slo::Latency };
            assert_eq!(
                first[0].slo, want,
                "weight {weight} at age {age:?} promoted={promoted}"
            );
            assert_eq!(q.stats().aged_promotions, u64::from(promoted));
        }
    }

    /// A latency arrival preempts bulk batch formation: the lingering bulk
    /// sweep stops immediately instead of waiting out `max_wait`.
    #[test]
    fn latency_arrival_preempts_bulk_linger() {
        let q = Arc::new(RequestQueue::new(16));
        q.submit(class_req(0, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        let q2 = q.clone();
        let poker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            q2.submit(class_req(0, 1, Slo::Latency), Admission::Block)
                .unwrap();
        });
        // A very generous linger: without preemption this would block for
        // 10 s; with it, the sweep closes as soon as the latency request
        // lands.
        let sched = strict(&q, Some(4), Duration::from_secs(10));
        let t0 = Instant::now();
        let first = sched.next_sweep().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "bulk linger was not preempted"
        );
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].slo, Slo::Bulk);
        let second = sched.next_sweep().unwrap();
        assert_eq!(second[0].slo, Slo::Latency);
        poker.join().unwrap();
    }

    /// Requests with mismatched `[C, H, W]` must never ride one sweep —
    /// they cannot be concatenated — even when the model id matches.
    #[test]
    fn scheduler_never_mixes_shapes_in_a_sweep() {
        let q = RequestQueue::new(8);
        let wide = QueuedRequest {
            model: 0,
            input: Tensor::zeros(&[1, 2, 3, 3]),
            slot: Arc::new(ResponseSlot::new()),
            slo: Slo::Bulk,
            deadline: None,
            submitted_at: Instant::now(),
            weight: 1.0,
            tenant: 0,
        };
        q.submit(req(0, 1), Admission::Block).unwrap();
        q.submit(wide, Admission::Block).unwrap();
        q.submit(req(0, 1), Admission::Block).unwrap();
        q.close();
        let sched = strict(&q, Some(8), Duration::ZERO);
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
        let ticket = Ticket::new(slot, Slo::Bulk, None);
        assert_eq!(ticket.wait().output, Tensor::zeros(&[1]));

        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), Slo::Latency, None);
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
        let ticket = Ticket::new(slot.clone(), Slo::Bulk, None);
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

    /// An abandoned ticket panics through `try_wait` too — pollable paths
    /// share the loud-failure contract.
    #[test]
    fn abandoned_slot_panics_through_try_wait() {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), Slo::Bulk, None);
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
            .map(|s| set.insert(Ticket::new(s.clone(), Slo::Bulk, None)))
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

    /// `wait_any_timeout` gives up when nothing resolves, then delivers
    /// once something does; an abandoned ticket panics the drain.
    #[test]
    fn completion_set_timeout_and_abandon() {
        let slot = Arc::new(ResponseSlot::new());
        let mut set = CompletionSet::new();
        set.insert(Ticket::new(slot.clone(), Slo::Bulk, None));
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
        let ticket = Ticket::new(slot.clone(), Slo::Latency, Some(Duration::ZERO));
        assert_eq!(ticket.slo(), Slo::Latency);
        assert!(ticket.deadline().is_some(), "deadline introspectable");
        std::thread::sleep(Duration::from_millis(2));
        slot.fulfill(Tensor::zeros(&[1]));
        let done = ticket.wait();
        assert!(done.missed, "expired deadline must stamp missed");
        assert_eq!(done.slo, Slo::Latency);
        assert_eq!(done.output, Tensor::zeros(&[1]), "output still delivered");

        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket::new(slot.clone(), Slo::Latency, Some(Duration::from_secs(600)));
        slot.fulfill(Tensor::zeros(&[1]));
        assert!(!ticket.wait().missed);
    }

    fn tenant_req(tenant: usize, rows: usize, slo: Slo) -> QueuedRequest {
        let mut r = class_req(0, rows, slo);
        r.tenant = tenant;
        r
    }

    /// A `max_queued` quota rejects immediately — even under Block — and
    /// hands the input back; draining reopens admission.
    #[test]
    fn max_queued_quota_rejects_immediately() {
        let q = RequestQueue::new(16);
        let a = q.resolve_tenant("a");
        // Unconfigured tenants get no quotas; pin one on directly.
        q.state.lock().unwrap().tenants[a].max_queued = Some(2);
        q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        match q.submit(tenant_req(a, 3, Slo::Bulk), Admission::Block) {
            Err(SubmitError::QuotaExceeded { tenant, input }) => {
                assert_eq!(tenant, "a");
                assert_eq!(input.dim(0), 3, "input handed back");
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // Other tenants are unaffected by a's quota.
        q.submit(req(0, 1), Admission::Block).unwrap();
        let sched = strict(&q, Some(1), Duration::ZERO);
        // Drain the default tenant's request (vtime tie breaks to index
        // 0), then one of a's.
        sched.next_sweep().unwrap();
        sched.next_sweep().unwrap();
        // One slot freed below the quota: admission reopens.
        q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        let s = q.stats();
        assert_eq!(s.quota_rejected, 1);
        let ts = s.tenants.iter().find(|t| t.name == "a").unwrap();
        assert_eq!(ts.quota_rejected, 1);
        assert_eq!(ts.submitted, 3);
    }

    /// A `max_in_flight` quota meters admitted-but-unfulfilled requests:
    /// scheduling alone does not free it — only fulfilment
    /// (`note_served`) does — and `peak_in_flight` never exceeds it.
    #[test]
    fn max_in_flight_quota_waits_for_fulfilment() {
        let q = RequestQueue::new(16);
        let a = q.resolve_tenant("a");
        q.state.lock().unwrap().tenants[a].max_in_flight = Some(1);
        q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        assert!(matches!(
            q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Reject),
            Err(SubmitError::QuotaExceeded { .. })
        ));
        let sched = strict(&q, Some(1), Duration::ZERO);
        sched.next_sweep().unwrap();
        // Scheduled but not fulfilled: still in flight, still capped.
        assert!(matches!(
            q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Reject),
            Err(SubmitError::QuotaExceeded { .. })
        ));
        q.note_served(Slo::Bulk, a, false, false, Duration::from_micros(50));
        q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        let ts = q.stats().tenants[a].clone();
        assert_eq!(ts.peak_in_flight, 1, "never exceeded the quota");
        assert_eq!(ts.served, 1);
        assert!(!ts.histogram.is_empty(), "fulfilment recorded a latency");
    }

    /// Weighted-fair scheduling: under saturation, served-row shares
    /// follow tenant weights (a 3:1 weight split serves 3:1 rows), with
    /// ties breaking to the lower tenant index.
    #[test]
    fn wfq_serves_rows_proportional_to_weight() {
        let q = RequestQueue::with_tenants(
            16,
            &[TenantSpec::new("a"), TenantSpec::new("b").weight(3.0)],
        );
        let (a, b) = (q.resolve_tenant("a"), q.resolve_tenant("b"));
        for _ in 0..4 {
            q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Block)
                .unwrap();
        }
        for _ in 0..12 {
            q.submit(tenant_req(b, 1, Slo::Bulk), Admission::Block)
                .unwrap();
        }
        q.close();
        let sched = strict(&q, Some(1), Duration::ZERO);
        let order: Vec<usize> = std::iter::from_fn(|| sched.next_sweep())
            .map(|batch| batch[0].tenant)
            .collect();
        assert_eq!(order.len(), 16);
        // Saturated prefix (both tenants backlogged through sweep 8 —
        // a's 4 requests at weight 1 drain one per 4 sweeps): exactly
        // weight-share interleave, a first on the vtime=0 tie.
        assert_eq!(&order[..8], &[a, b, b, b, a, b, b, b]);
        let s = q.stats();
        assert_eq!(s.tenants[a].rows, 4);
        assert_eq!(s.tenants[b].rows, 12);
    }

    /// An idle tenant must not bank scheduling credit: after sitting out
    /// a busy period it rejoins at the virtual floor and shares from
    /// there, rather than monopolizing until its stale clock catches up.
    #[test]
    fn reactivating_tenant_rejoins_at_the_virtual_floor() {
        let q = RequestQueue::with_tenants(16, &[TenantSpec::new("a"), TenantSpec::new("b")]);
        let (a, b) = (q.resolve_tenant("a"), q.resolve_tenant("b"));
        let sched = strict(&q, Some(1), Duration::ZERO);
        // b serves 6 rows alone; its clock runs ahead while a idles.
        for _ in 0..6 {
            q.submit(tenant_req(b, 1, Slo::Bulk), Admission::Block)
                .unwrap();
            sched.next_sweep().unwrap();
        }
        // a wakes up with a backlog; both now saturated.
        for _ in 0..6 {
            q.submit(tenant_req(a, 1, Slo::Bulk), Admission::Block)
                .unwrap();
            q.submit(tenant_req(b, 1, Slo::Bulk), Admission::Block)
                .unwrap();
        }
        q.close();
        let order: Vec<usize> = std::iter::from_fn(|| sched.next_sweep())
            .map(|batch| batch[0].tenant)
            .collect();
        let a_in_first_half = order[..6].iter().filter(|&&t| t == a).count();
        assert!(
            (2..=4).contains(&a_in_first_half),
            "a must share, not monopolize or starve: {order:?}"
        );
    }

    /// The queue snapshot carries the new observability surfaces: class
    /// histograms, the depth series, and per-model counters keyed by
    /// slot index.
    #[test]
    fn stats_snapshot_carries_histograms_series_and_models() {
        let q = RequestQueue::new(8);
        q.submit(class_req(1, 2, Slo::Latency), Admission::Block)
            .unwrap();
        q.submit(class_req(1, 1, Slo::Bulk), Admission::Block)
            .unwrap();
        let sched = strict(&q, Some(8), Duration::ZERO);
        sched.next_sweep().unwrap();
        sched.next_sweep().unwrap();
        q.note_served(Slo::Latency, 0, true, false, Duration::from_micros(700));
        q.note_served(Slo::Bulk, 0, false, false, Duration::from_millis(3));
        let s = q.stats();
        assert_eq!(s.latency_hist.count(), 1);
        assert_eq!(s.bulk_hist.count(), 1);
        assert!(
            s.latency_hist.quantile(1.0).unwrap() >= Duration::from_micros(700),
            "quantile upper-bounds the observation"
        );
        assert_eq!(s.queue_depth_series.len(), 2, "one sample per admission");
        assert_eq!(s.models.len(), 2, "model vec grown to slot index 1");
        assert_eq!(s.models[1].served, 2);
        assert_eq!(s.models[1].sweeps, 2);
        assert_eq!(s.models[1].images, 3);
        let prom = s.render_prometheus();
        assert!(prom.contains("cq_serve_served_total"));
        assert!(prom.contains("cq_serve_latency_seconds_bucket{class=\"latency\","));
        assert!(prom.contains("cq_serve_tenant_served_total{tenant=\"default\"}"));
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
        let sched = strict(&q, None, Duration::ZERO);
        assert_eq!(sched.next_sweep().unwrap().len(), 1);
        assert!(sched.next_sweep().is_none());
    }
}

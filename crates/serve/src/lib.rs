//! # cq-serve
//!
//! The **queued, multi-model serving front-end** over the frozen CIM
//! inference engine — the layer where CIM throughput is won or lost
//! (scheduling and batching, not array arithmetic):
//!
//! ```text
//!  client (one thread,         CimServer::start() -> ServeSession
//!  many in-flight)          ┌──────────────────────────────────────────────┐
//!  ───────────────────┐     │ RequestQueue (bounded; Block | Reject)       │
//!  session.submit(    ├────►│  ├ Latency deque   (priority)                │
//!   Request::to(..)   │     │  └ Bulk deque      (FIFO + aging; linger     │
//!    .batch(x).slo(..)│     │                     ≤ max_wait)              │
//!    .deadline(..)    │     └───────────────┬──────────────────────────────┘
//!    .weight(..))     │                     │ BatchScheduler per worker:
//!  ───────────────────┘                     │ aged bulk ≻ latency ≻ bulk;
//!        │ Ticket                           │ latency arrivals preempt
//!        ▼                                  │ bulk linger
//!  CompletionSet::wait_any()                │
//!  try_wait / wait_timeout / wait           │
//!              ┌────────────────────────────┴─┐
//!              ▼                              ▼
//!        worker thread  …               worker thread    (owned threads)
//!              │ one locked sweep per worker  │
//!              ▼                              ▼
//!  ┌──────────────────────────────────────────────────┐
//!  │ ModelRegistry: id → Mutex<PreparedCimModel>      │
//!  │ (frozen weights; a sweep's pipeline waves and    │
//!  │  kernel work items run on the cq_tensor::exec    │
//!  │  pool, capped at CQ_THREADS)                     │
//!  └──────────────────────────────────────────────────┘
//!              │ outputs split back per request
//!              ▼
//!   Completed { output, latency, slo, missed }
//!   ServeSession::shutdown() -> (ServeStats, models)
//! ```
//!
//! Every serving-path output — coalesced, chunked oversized requests,
//! multi-model — is **bit-identical** to calling the standalone
//! [`PreparedCimModel`] on the same input: the front-end only reorders
//! *which sweep* a request rides in, and every layer processes batch
//! elements independently with a fixed f32 operation order
//! (`tests/serving.rs`, `tests/slo_stress.rs`, and the `cq-core`
//! `engine_equivalence` / `prepared_inference` tests pin this). The same
//! holds across **resolution paths**: [`Ticket::wait`],
//! [`Ticket::try_wait`], [`Ticket::wait_timeout`], and
//! [`CompletionSet::wait_any`] all hand over the same moved output tensor.
//!
//! **Sessions.** [`CimServer::start`] consumes the server and returns an
//! owned [`ServeSession`]: worker threads are plain `std::thread::spawn`
//! threads sharing the session state through `Arc` (no scope borrow, no
//! async runtime — hand-rolled on `std::sync` like the rest of the
//! offline dependency stack). Submission is **non-blocking by default**:
//! [`ServeSession::submit`] takes a fluent [`Request`] and returns a
//! pollable [`Ticket`]; a [`CompletionSet`] multiplexes hundreds of
//! in-flight tickets through one condvar. [`ServeSession::shutdown`]
//! drains every admitted request, joins the workers, and returns the
//! final [`ServeStats`] with the resident models.
//!
//! **Parallelism.** Serve workers parallelise *across* sweeps (different
//! models, or queued work for one model while another sweep runs). Inside
//! a sweep there is exactly one mechanism: the frozen engine splits the
//! rows into cross-layer pipeline waves
//! ([`PreparedCimModel::set_pipeline_depth`]) and every conv schedules its
//! `image × row-tile` work items, all as tasks on the one
//! `CQ_THREADS`-capped `cq_tensor::exec` pool, so compute never
//! oversubscribes the host however many workers run.
//!
//! **Hot-swap.** A *running* session is reconfigurable:
//! [`ServeSession::register`] installs a new model (routable the moment
//! it returns) and [`ServeSession::evict`] removes one — in-flight
//! requests against the evicted model drain to completion bit-exactly,
//! new submissions fail with a recoverable [`SubmitError::UnknownModel`],
//! and the returned [`EvictTicket`] resolves with the reclaimed
//! [`PreparedCimModel`] once the last admitted request lands. Names are
//! reusable immediately: re-registering an evicted name atomically routes
//! new work to the replacement (`tests/churn_stress.rs` hammers this
//! under multi-producer load).
//!
//! **Tenancy.** Requests optionally carry a [`TenantId`]
//! ([`Request::tenant`]); tenants declared via
//! [`TenantSpec`] get weighted-fair scheduling — per-class virtual-time
//! fair queueing, so each tenant's served row share converges to its
//! weight share under saturation, with idle periods banking no credit —
//! and admission quotas (`max_queued`, `max_in_flight`) enforced at the
//! queue with the recoverable [`SubmitError::QuotaExceeded`]. Untagged
//! requests ride the built-in `"default"` tenant; with a single tenant
//! the scheduler is exactly the PR 4 class scheduler.
//!
//! **Autoscaling.** The worker pool floats between
//! [`ServeConfig::min_workers`] and [`ServeConfig::max_workers`]: the
//! pool grows when the queue stays deeper than the live worker count for
//! `scale_up_after`, and workers above the floor retire after
//! `scale_down_idle` without work. Resizes never drop or reorder
//! admitted work — they only change who pops the shared queue.
//!
//! **Observability.** [`ServeStats`] carries log-bucketed latency
//! histograms per class and per tenant ([`LatencyHistogram`]), a
//! decimating queue-depth time series, per-model and worker-pool
//! counters, and renders the whole snapshot in Prometheus text
//! exposition format via [`ServeStats::render_prometheus`].
//!
//! **SLO scheduling.** Requests carry an [`Slo`] class, an optional
//! deadline, and an aging weight: [`Slo::Latency`] work schedules before
//! [`Slo::Bulk`] work and preempts bulk batch formation (a lingering
//! bulk sweep closes the moment a latency request lands); bulk keeps its
//! FIFO coalescing behaviour. Under
//! [`SchedulerPolicy::Aging`], once any queued bulk request's weighted
//! age reaches `bulk_max_age` the bulk class outranks new latency
//! arrivals (served FIFO from its head), giving bulk a provable
//! per-request starvation bound under sustained latency floods. Deadline-
//! expired tickets are **still served** — bit-exactness and the
//! every-ticket-resolves guarantee are never traded away — but complete
//! with [`Completed::missed`] set, and [`ServeStats`] reports per-class
//! served/missed counters plus [`ServeStats::aged_promotions`].
//!
//! [`StreamSpec`] generates seeded Poisson-ish open-loop request streams
//! with a configurable latency-class fraction; the `cq-bench` `serving`
//! experiment replays them through a multiplexed [`CompletionSet`]
//! client and reports per-class p50/p99 latency, deadline-miss rate,
//! images/sec, and queue depth (`BENCH_serving.json`).
//!
//! ## Example
//!
//! ```
//! use cq_cim::CimConfig;
//! use cq_core::{build_cim_resnet, PreparedCimModel, QuantScheme};
//! use cq_nn::{Layer, Mode, ResNetSpec};
//! use cq_serve::{CimServer, CompletionSet, ModelRegistry, Request, ServeConfig};
//! use cq_tensor::CqRng;
//!
//! // Freeze a (here: untrained but warmed) model for serving.
//! let mut net = build_cim_resnet(
//!     ResNetSpec::resnet8(4, 4),
//!     &CimConfig::tiny(),
//!     &QuantScheme::ours(),
//!     0,
//! );
//! let warm = CqRng::new(1).normal_tensor(&[1, 3, 12, 12], 1.0);
//! let _ = net.forward(&warm, Mode::Eval);
//!
//! let mut registry = ModelRegistry::new();
//! registry.register("resnet8", PreparedCimModel::new(Box::new(net)));
//! let cfg = ServeConfig::builder().workers(2).build().unwrap();
//!
//! // Owned session: no closure scope, nothing blocks the client.
//! let session = CimServer::new(registry, cfg).start();
//! let mut inflight = CompletionSet::new();
//! for i in 0..4 {
//!     let x = CqRng::new(10 + i).normal_tensor(&[1, 3, 12, 12], 1.0);
//!     inflight.insert(session.submit(Request::to("resnet8").batch(x)).unwrap());
//! }
//! let mut outputs = Vec::new();
//! while let Some((_key, done)) = inflight.wait_any() {
//!     outputs.push(done.output);
//! }
//! let (stats, models) = session.shutdown();
//! assert_eq!(outputs.len(), 4);
//! assert_eq!(stats.served, 4);
//! assert_eq!(models.len(), 1, "resident models handed back");
//! ```

#![warn(missing_docs)]

mod completion;
mod config;
mod metrics;
mod queue;
mod registry;
mod request;
mod server;
mod session;
mod stream;

pub use completion::{CompletionSet, TicketKey};
pub use config::{ConfigError, SchedulerPolicy, ServeConfig, ServeConfigBuilder, TenantSpec};
// Re-exported so `ServeSession::shutdown`'s return type is nameable from
// this crate alone.
pub use cq_core::{BackendError, BackendKind, BackendSet, PreparedCimModel};
pub use metrics::{
    DepthSample, LatencyHistogram, ModelStats, TenantStats, WorkerStats, HISTOGRAM_BUCKETS,
};
pub use queue::{
    Admission, BackendStats, ClassStats, Completed, ServeStats, Slo, SubmitError, Ticket,
};
pub use registry::{EvictTicket, ModelId, ModelRegistry, SwapError};
pub use request::{Request, TenantId};
pub use server::CimServer;
pub use session::ServeSession;
pub use stream::{StreamRequest, StreamSpec};

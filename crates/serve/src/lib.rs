//! # cq-serve
//!
//! The **queued, multi-model serving front-end** over the frozen CIM
//! inference engine — the layer where CIM throughput is won or lost
//! (scheduling and batching, not array arithmetic):
//!
//! ```text
//!  client (one thread,         CimServer::start() -> ServeSession
//!  many in-flight)          ┌──────────────────────────────────────────────┐
//!  ───────────────────┐     │ RequestQueue: one bounded FIFO               │
//!  session.submit(    ├────►│ (full: Block | Reject)                       │
//!   Request::to(..)   │     └───────────────┬──────────────────────────────┘
//!    .batch(x)        │                     │ BatchScheduler per worker:
//!    .deadline(..))   │                     │ FIFO run of same-model,
//!  ───────────────────┘                     │ same-shape requests, ≤ max_batch
//!        │ Ticket                           │ rows, lingering ≤ max_wait
//!        ▼                                  │
//!  CompletionSet::wait_any()                │
//!  try_wait / wait_timeout / wait           │
//!              ┌────────────────────────────┴─┐
//!              ▼                              ▼
//!        worker thread  …               worker thread    (workers(n), fixed)
//!              │ one sweep per worker, no lock│
//!              ▼                              ▼
//!  ┌──────────────────────────────────────────────────┐
//!  │ ModelRegistry: id → Arc<PreparedCimModel>        │
//!  │ (frozen weights; a sweep's pipeline waves and    │
//!  │  kernel work items run on the cq_tensor::exec    │
//!  │  pool, capped at CQ_THREADS)                     │
//!  └──────────────────────────────────────────────────┘
//!              │ outputs split back per request
//!              ▼
//!   Completed { output, latency, missed }
//!   ServeSession::shutdown() -> (ServeStats, models)
//! ```
//!
//! Every serving-path output — coalesced, chunked oversized requests,
//! multi-model — is **bit-identical** to calling the standalone
//! [`PreparedCimModel`] on the same input: the front-end only reorders
//! *which sweep* a request rides in, and every layer processes batch
//! elements independently with a fixed f32 operation order
//! (`tests/serving.rs`, `tests/completion_stress.rs`, and the `cq-core`
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
//! **Parallelism.** Serve workers parallelise *across* sweeps, into one
//! model or different ones: a frozen model serves through `&self`, so no
//! worker waits on another's sweep. Inside
//! a sweep there is exactly one mechanism: the frozen engine splits the
//! rows into two cross-layer pipeline waves (see
//! [`PreparedCimModel::infer`]) and every conv schedules its
//! `image × row-tile` work items, all as tasks on the one
//! `CQ_THREADS`-capped `cq_tensor::exec` pool, so compute never
//! oversubscribes the host however many workers run. Each frozen layer
//! runs the execution backend it resolved at freeze; serving never
//! re-selects it.
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
//! **Scheduling.** One FIFO queue feeds a fixed pool of
//! [`ServeConfig::workers`] threads. Each worker pops the queue head and
//! coalesces the FIFO run of same-model, same-shape requests behind it
//! into one sweep of at most [`ServeConfig::max_batch`] rows, lingering
//! up to [`ServeConfig::max_wait`] for more arrivals while the sweep is
//! unfilled. A request may carry a deadline: an expired ticket is
//! **still served** — bit-exactness and the every-ticket-resolves
//! guarantee are never traded away — but completes with
//! [`Completed::missed`] set, and [`ServeStats`] counts deadline-carrying
//! and missed fulfilments.
//!
//! **Observability.** [`ServeStats`] carries a log-bucketed latency
//! histogram of every fulfilment ([`LatencyHistogram`]), queue-depth,
//! per-model, per-scheme and per-backend counters, and renders the whole
//! snapshot in Prometheus text exposition format via
//! [`ServeStats::render_prometheus`].
//!
//! The repository benchmark's `serve-open` workload (`perfbench/`)
//! drives a session with seeded open-loop Poisson load through a
//! multiplexed [`CompletionSet`] client and reports latency, images/sec
//! and queue depth.
//!
//! ## Example
//!
//! ```
//! use cq_cim::CimConfig;
//! use cq_core::{build_cim_resnet, PreparedCimModel, QuantScheme};
//! use cq_nn::{Layer, Mode, ResNetSpec};
//! use cq_serve::{CimServer, CompletionSet, ModelRegistry, Request, ServeConfig};
//! use cq_tensor::CqRng;
//! use std::time::Duration;
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
//!     let request = Request::to("resnet8").batch(x).deadline(Duration::from_secs(60));
//!     inflight.insert(session.submit(request).unwrap());
//! }
//! let mut outputs = Vec::new();
//! while let Some((_key, done)) = inflight.wait_any() {
//!     assert!(!done.missed, "served well inside its deadline");
//!     outputs.push(done.output);
//! }
//! let (stats, models) = session.shutdown();
//! assert_eq!(outputs.len(), 4);
//! assert_eq!(stats.served, 4);
//! assert_eq!((stats.with_deadline, stats.missed), (4, 0));
//! assert_eq!(stats.latency_hist.count(), 4, "one histogram, every fulfilment");
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

pub use completion::{CompletionSet, TicketKey};
pub use config::{ConfigError, ServeConfig, ServeConfigBuilder};
// Re-exported so `ServeSession::shutdown`'s return type and the
// per-backend counters are nameable from this crate alone.
pub use cq_core::{BackendKind, PreparedCimModel};
pub use metrics::{LatencyHistogram, ModelStats, HISTOGRAM_BUCKETS};
pub use queue::{Admission, BackendStats, Completed, ServeStats, SubmitError, Ticket};
pub use registry::{EvictTicket, ModelId, ModelRegistry, SwapError};
pub use request::Request;
pub use server::CimServer;
pub use session::ServeSession;

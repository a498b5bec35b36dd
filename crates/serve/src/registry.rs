//! Multi-model residency: a registry mapping model ids to independently
//! frozen [`PreparedCimModel`]s — **mutable on a live session**.
//!
//! Each resident model sits in a slot as an `Arc<PreparedCimModel>` with
//! its own frozen weights. A frozen model serves through `&self`, so a
//! worker clones the `Arc` out of the slot and sweeps without holding any
//! lock: workers serve one model or different models concurrently, and a
//! sweep that panics poisons nothing. Inside a sweep the model's kernels
//! and pipeline waves fan out on the shared `cq_tensor::exec` pool.
//! Outputs are bit-identical to calling the standalone `PreparedCimModel`
//! directly — residency changes scheduling only.
//!
//! **Hot-swap.** The slot list itself sits behind a `RwLock`, so
//! [`ServeSession::register`](crate::ServeSession::register) and
//! [`ServeSession::evict`](crate::ServeSession::evict) mutate the
//! resident set while workers serve. Eviction is *draining*: the slot is
//! atomically hidden from name lookup (new submissions get
//! [`SubmitError::UnknownModel`](crate::SubmitError)), in-flight requests
//! against it complete normally, and the returned [`EvictTicket`]
//! resolves with the reclaimed model once the last one drains. Workers
//! drop their `Arc` clone before releasing a request, so the drained
//! model unwraps back into an owned one. Slots are
//! never removed mid-session — a [`ModelId`] is a stable slot index — and
//! a name can be re-registered after eviction (lookup resolves to the
//! newest live slot).

use crate::queue::SubmitError;
use cq_core::{BackendKind, PreparedCimModel};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Opaque handle to a registered model (a stable slot index — eviction
/// tombstones a slot, it never shifts later ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelId(pub(crate) usize);

/// Why a live registry mutation ([`ServeSession::register`](crate::ServeSession::register)
/// / [`ServeSession::evict`](crate::ServeSession::evict)) was refused.
/// Recoverable: variants that consumed a model hand it back.
pub enum SwapError {
    /// A live model already holds this name; the offered model is handed
    /// back untouched. Registering the same name under a *different*
    /// quantization scheme is deliberately this same recoverable error —
    /// never a silent overwrite — and `existing_scheme` names the scheme
    /// of the live holder so the caller can tell the two cases apart.
    DuplicateName {
        /// The contested name.
        name: String,
        /// Scheme of the live model already holding the name.
        existing_scheme: String,
        /// The model that was not registered.
        model: PreparedCimModel,
    },
    /// No live model with this name (already evicted, or never
    /// registered).
    UnknownModel(String),
}

impl std::fmt::Debug for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::DuplicateName {
                name,
                existing_scheme,
                ..
            } => f
                .debug_struct("DuplicateName")
                .field("name", name)
                .field("existing_scheme", existing_scheme)
                .finish_non_exhaustive(),
            SwapError::UnknownModel(name) => f.debug_tuple("UnknownModel").field(name).finish(),
        }
    }
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::DuplicateName {
                name,
                existing_scheme,
                ..
            } => {
                write!(
                    f,
                    "a live model named '{name}' (scheme '{existing_scheme}') is already registered"
                )
            }
            SwapError::UnknownModel(name) => write!(f, "no live model named '{name}'"),
        }
    }
}

/// Where an eviction delivers the reclaimed model.
struct EvictState {
    model: Mutex<Option<PreparedCimModel>>,
    ready: Condvar,
}

/// Resolves with the reclaimed [`PreparedCimModel`] once every in-flight
/// request against the evicted model has drained. Returned by
/// [`ServeSession::evict`](crate::ServeSession::evict).
///
/// Mirrors the request [`Ticket`](crate::Ticket) surface: blocking
/// [`wait`](EvictTicket::wait), non-blocking
/// [`try_wait`](EvictTicket::try_wait), bounded
/// [`wait_timeout`](EvictTicket::wait_timeout). The ticket outlives its
/// session — [`ServeSession::shutdown`](crate::ServeSession::shutdown)
/// drains everything, so an unresolved ticket resolves at shutdown at the
/// latest.
pub struct EvictTicket {
    state: Arc<EvictState>,
    name: String,
}

impl std::fmt::Debug for EvictTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvictTicket")
            .field("name", &self.name)
            .field("ready", &self.is_ready())
            .finish_non_exhaustive()
    }
}

impl EvictTicket {
    /// The evicted model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the model has drained — a following
    /// [`try_wait`](EvictTicket::try_wait) will not block.
    pub fn is_ready(&self) -> bool {
        self.state.model.lock().unwrap().is_some()
    }

    /// Blocks until every in-flight request against the model has drained,
    /// then hands the model back.
    pub fn wait(self) -> PreparedCimModel {
        let mut slot = self.state.model.lock().unwrap();
        loop {
            match slot.take() {
                Some(model) => return model,
                None => slot = self.state.ready.wait(slot).unwrap(),
            }
        }
    }

    /// Non-blocking poll: `Ok(model)` once drained, `Err(self)` — the
    /// ticket handed back, still valid — while requests are in flight.
    pub fn try_wait(self) -> Result<PreparedCimModel, EvictTicket> {
        let taken = self.state.model.lock().unwrap().take();
        match taken {
            Some(model) => Ok(model),
            None => Err(self),
        }
    }

    /// Blocks for at most `timeout`: `Ok(model)` when it drained in time,
    /// `Err(self)` on timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<PreparedCimModel, EvictTicket> {
        let start = Instant::now();
        let mut slot = self.state.model.lock().unwrap();
        loop {
            if let Some(model) = slot.take() {
                return Ok(model);
            }
            // Elapsed against `timeout` (no `now + timeout` overflow).
            let waited = start.elapsed();
            if waited >= timeout {
                drop(slot);
                return Err(self);
            }
            slot = self
                .state
                .ready
                .wait_timeout(slot, timeout - waited)
                .unwrap()
                .0;
        }
    }
}

/// Liveness bookkeeping of one slot.
struct SlotLife {
    /// Requests admitted against this slot and not yet fulfilled.
    in_flight: u64,
    /// Set by eviction: hidden from lookup, draining.
    evicted: bool,
    /// Where to deliver the model once `in_flight` hits zero after
    /// eviction.
    reclaim: Option<Arc<EvictState>>,
}

/// One residency slot: name, quantization-scheme attribution, the model
/// (absent once reclaimed) and liveness.
struct Slot {
    name: String,
    /// The model's [`QuantScheme`](cq_core::QuantScheme) name
    /// ([`PreparedCimModel::scheme`]) — immutable per slot, so stats
    /// scrapes read it without touching the model.
    scheme: String,
    /// [`PreparedCimModel::in_channels`], kept beside the model so
    /// admission checks a request without touching it.
    in_channels: Option<usize>,
    /// Locked only to clone, read or take the `Arc` — never across a
    /// sweep.
    model: Mutex<Option<Arc<PreparedCimModel>>>,
    life: Mutex<SlotLife>,
}

impl Slot {
    fn new(name: String, model: PreparedCimModel) -> Arc<Self> {
        Arc::new(Slot {
            name,
            scheme: model.scheme().to_string(),
            in_channels: model.in_channels(),
            model: Mutex::new(Some(Arc::new(model))),
            life: Mutex::new(SlotLife {
                in_flight: 0,
                evicted: false,
                reclaim: None,
            }),
        })
    }

    fn is_live(&self) -> bool {
        !self.life.lock().unwrap().evicted
    }

    /// Pulls the model out of the slot and delivers it to the evict
    /// ticket. Caller guarantees no in-flight work references the model.
    fn deliver(&self, reclaim: &EvictState) {
        let model = self
            .model
            .lock()
            .unwrap()
            .take()
            .expect("evicted slot delivered twice");
        let model = Arc::try_unwrap(model)
            .ok()
            .expect("drained model still held by a worker");
        *reclaim.model.lock().unwrap() = Some(model);
        reclaim.ready.notify_all();
    }

    /// Reads the live model through `f` (`None` once reclaimed).
    fn read<T>(&self, f: impl FnOnce(&PreparedCimModel) -> T) -> Option<T> {
        self.model.lock().unwrap().as_deref().map(f)
    }
}

/// The newest live slot named `name`, with its index.
fn newest_live<'a>(slots: &'a [Arc<Slot>], name: &str) -> Option<(usize, &'a Arc<Slot>)> {
    slots
        .iter()
        .enumerate()
        .rev()
        .find(|(_, s)| s.name == name && s.is_live())
}

/// The resident model set of a [`CimServer`](crate::CimServer) — and, on
/// a live [`ServeSession`](crate::ServeSession), a hot-swappable one (see
/// the module docs).
#[derive(Default)]
pub struct ModelRegistry {
    slots: RwLock<Vec<Arc<Slot>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a registry from the `(name, model)` pairs a
    /// [`ServeSession::shutdown`](crate::ServeSession::shutdown) (or
    /// [`into_models`](ModelRegistry::into_models)) handed back,
    /// preserving order — so, when no model was evicted mid-session,
    /// [`ModelId`]s resolved against the dissolved registry stay valid
    /// against the rebuilt one (evictions compact the handed-back list,
    /// shifting later ids).
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn from_models(models: Vec<(String, PreparedCimModel)>) -> Self {
        let mut registry = Self::new();
        for (name, model) in models {
            registry.register(name, model);
        }
        registry
    }

    /// A snapshot of the slot list (so callers never hold the list lock
    /// while taking a model lock).
    fn slots(&self) -> Vec<Arc<Slot>> {
        self.slots.read().unwrap().clone()
    }

    fn slot(&self, id: ModelId) -> Arc<Slot> {
        self.slots.read().unwrap()[id.0].clone()
    }

    /// Registers `model` under `name` and returns its handle
    /// (pre-session surface; panics on conflict like a bad config would).
    ///
    /// # Panics
    ///
    /// Panics if a live model already holds `name`.
    pub fn register(&mut self, name: impl Into<String>, model: PreparedCimModel) -> ModelId {
        match self.register_live(name, model) {
            Ok(id) => id,
            Err(SwapError::DuplicateName { name, .. }) => {
                panic!("model id '{name}' already registered")
            }
            Err(_) => unreachable!(),
        }
    }

    /// Shared-path registration — the hot-swap seam used by
    /// [`ServeSession::register`](crate::ServeSession::register).
    ///
    /// # Errors
    ///
    /// [`SwapError::DuplicateName`] (model handed back, attributing the
    /// live holder's scheme) when a live model already holds `name` —
    /// including the same name offered under a different scheme.
    pub(crate) fn register_live(
        &self,
        name: impl Into<String>,
        model: PreparedCimModel,
    ) -> Result<ModelId, SwapError> {
        let name = name.into();
        let mut slots = self.slots.write().unwrap();
        if let Some((_, held)) = newest_live(&slots, &name) {
            return Err(SwapError::DuplicateName {
                name,
                existing_scheme: held.scheme.clone(),
                model,
            });
        }
        slots.push(Slot::new(name, model));
        Ok(ModelId(slots.len() - 1))
    }

    /// Evicts the newest live model named `name`: hides it from lookup
    /// (new submissions fail with
    /// [`SubmitError::UnknownModel`](crate::SubmitError)) and returns a
    /// ticket that resolves with the model once its in-flight requests
    /// drain — immediately, when it is idle.
    ///
    /// # Errors
    ///
    /// [`SwapError::UnknownModel`] when no live model holds `name`.
    pub(crate) fn evict(&self, name: &str) -> Result<EvictTicket, SwapError> {
        let slot = {
            let slots = self.slots.read().unwrap();
            match newest_live(&slots, name) {
                Some((_, slot)) => slot.clone(),
                None => return Err(SwapError::UnknownModel(name.to_string())),
            }
        };
        let state = Arc::new(EvictState {
            model: Mutex::new(None),
            ready: Condvar::new(),
        });
        let deliver_now = {
            let mut life = slot.life.lock().unwrap();
            if life.evicted {
                // Lost a race with a concurrent evict of the same name.
                return Err(SwapError::UnknownModel(name.to_string()));
            }
            life.evicted = true;
            if life.in_flight == 0 {
                true
            } else {
                life.reclaim = Some(state.clone());
                false
            }
        };
        if deliver_now {
            slot.deliver(&state);
        }
        Ok(EvictTicket {
            state,
            name: name.to_string(),
        })
    }

    /// Delivers any eviction still waiting on drained work — the shutdown
    /// backstop: after workers joined, nothing is in flight, so a reclaim
    /// left pending (e.g. by a panicked worker that never released its
    /// requests) must not leave its ticket hanging.
    pub(crate) fn deliver_pending_evictions(&self) {
        for slot in self.slots() {
            let reclaim = {
                let mut life = slot.life.lock().unwrap();
                life.in_flight = 0;
                life.reclaim.take()
            };
            if let Some(reclaim) = reclaim {
                if slot.model.lock().unwrap().is_some() {
                    slot.deliver(&reclaim);
                }
            }
        }
    }

    /// Counts one admitted request against slot `id`, atomically checking
    /// liveness — the eviction drain barrier — and returns the model's
    /// [`in_channels`](PreparedCimModel::in_channels).
    ///
    /// # Errors
    ///
    /// The evicted/unknown model's name, for
    /// [`SubmitError::UnknownModel`](crate::SubmitError).
    pub(crate) fn admit(&self, id: ModelId) -> Result<Option<usize>, SubmitError> {
        let slot = match self.slots.read().unwrap().get(id.0) {
            Some(slot) => slot.clone(),
            None => return Err(SubmitError::UnknownModel(format!("#{}", id.0))),
        };
        let mut life = slot.life.lock().unwrap();
        if life.evicted {
            return Err(SubmitError::UnknownModel(slot.name.clone()));
        }
        life.in_flight += 1;
        Ok(slot.in_channels)
    }

    /// Resolves a name to a live slot and admits one request against it
    /// in the same breath (no lookup-then-evict race), like
    /// [`admit`](ModelRegistry::admit).
    pub(crate) fn admit_name(&self, name: &str) -> Result<(ModelId, Option<usize>), SubmitError> {
        let (idx, slot) = {
            let slots = self.slots.read().unwrap();
            match newest_live(&slots, name) {
                Some((i, slot)) => (i, slot.clone()),
                None => return Err(SubmitError::UnknownModel(name.to_string())),
            }
        };
        let mut life = slot.life.lock().unwrap();
        if life.evicted {
            return Err(SubmitError::UnknownModel(name.to_string()));
        }
        life.in_flight += 1;
        Ok((ModelId(idx), slot.in_channels))
    }

    /// Releases one admitted request against slot `id` (fulfilment or a
    /// failed submission), delivering the model to a waiting eviction
    /// when this was the last one.
    pub(crate) fn release(&self, id: ModelId) {
        let slot = self.slot(id);
        let reclaim = {
            let mut life = slot.life.lock().unwrap();
            life.in_flight = life.in_flight.saturating_sub(1);
            if life.in_flight == 0 {
                life.reclaim.take()
            } else {
                None
            }
        };
        if let Some(reclaim) = reclaim {
            slot.deliver(&reclaim);
        }
    }

    /// Looks up the newest **live** model id by name.
    pub fn id(&self, name: &str) -> Option<ModelId> {
        newest_live(&self.slots.read().unwrap(), name).map(|(i, _)| ModelId(i))
    }

    /// Name of a registered model (evicted slots keep their name).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this registry.
    pub fn name(&self, id: ModelId) -> String {
        self.slots.read().unwrap()[id.0].name.clone()
    }

    /// Number of **live** resident models.
    pub fn len(&self) -> usize {
        self.slots
            .read()
            .unwrap()
            .iter()
            .filter(|s| s.is_live())
            .count()
    }

    /// Whether no model is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(name, scheme, evicted)` of every slot, in slot (= [`ModelId`])
    /// order — the naming/attribution side of per-model stats.
    pub(crate) fn slot_names(&self) -> Vec<(String, String, bool)> {
        self.slots()
            .iter()
            .map(|s| (s.name.clone(), s.scheme.clone(), !s.is_live()))
            .collect()
    }

    /// Quantization-scheme name of a registered model (evicted slots keep
    /// theirs) — the key [`ServeStats`](crate::ServeStats) aggregates
    /// per-scheme image counts under.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this registry.
    pub fn scheme(&self, id: ModelId) -> String {
        self.slots.read().unwrap()[id.0].scheme.clone()
    }

    /// A shared handle to model `id` for one sweep. The caller drops it
    /// before [`release`](ModelRegistry::release)-ing the sweep's
    /// requests, so a drained eviction can unwrap the model.
    ///
    /// # Panics
    ///
    /// Panics if the model was already reclaimed, which admission rules
    /// out while requests against it are in flight.
    pub(crate) fn model(&self, id: ModelId) -> Arc<PreparedCimModel> {
        self.slot(id)
            .model
            .lock()
            .unwrap()
            .clone()
            .expect("model evicted with requests in flight")
    }

    /// Sets every resident model's sweep cap before a session starts; a
    /// live registration sets it on the incoming model (see
    /// [`ServeSession::register`](crate::ServeSession::register)).
    pub(crate) fn set_max_batch(&mut self, max_batch: Option<usize>) {
        for slot in self.slots() {
            if let Some(model) = slot.model.lock().unwrap().as_mut() {
                Arc::get_mut(model)
                    .expect("model shared before its session started")
                    .set_max_batch(max_batch);
            }
        }
    }

    /// The primary (most-common active) backend of each **live** resident
    /// model, in slot order — [`BackendKind::SimdF32`] for a model with
    /// no frozen CIM convolutions (its layers run the plain f32 ops).
    /// Used to attribute per-backend serving counters.
    ///
    /// Takes `&self` (per-slot locks, no exclusive registry access), so a
    /// live stats scrape can run concurrently with serving.
    pub fn primary_backends(&self) -> Vec<BackendKind> {
        self.slots()
            .iter()
            .filter(|s| s.is_live())
            .filter_map(|s| s.read(|m| m.primary_backend().unwrap_or(BackendKind::SimdF32)))
            .collect()
    }

    /// Active frozen-convolution counts per [`BackendKind::index`],
    /// summed over every live resident model.
    ///
    /// Takes `&self` (per-slot locks, no exclusive registry access), so a
    /// live stats scrape can run concurrently with serving.
    pub fn backend_layer_counts(&self) -> [usize; 3] {
        let mut totals = [0usize; 3];
        for slot in self.slots() {
            if !slot.is_live() {
                continue;
            }
            let layers = slot.read(|m| m.backend_layer_counts()).unwrap_or([0; 3]);
            for (t, c) in totals.iter_mut().zip(layers) {
                *t += c;
            }
        }
        totals
    }

    /// Dissolves the registry, returning the **live** resident models in
    /// slot order.
    pub fn into_models(self) -> Vec<(String, PreparedCimModel)> {
        self.slots
            .into_inner()
            .unwrap()
            .into_iter()
            .filter_map(|slot| {
                let slot = Arc::try_unwrap(slot)
                    .ok()
                    .expect("registry dissolved while a worker holds a slot");
                let name = slot.name;
                let model = slot.model.into_inner().unwrap()?;
                let model = Arc::try_unwrap(model)
                    .ok()
                    .expect("registry dissolved while a worker holds a model");
                Some((name, model))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> PreparedCimModel {
        tiny_model_with(&cq_core::QuantScheme::ours())
    }

    fn tiny_model_with(scheme: &cq_core::QuantScheme) -> PreparedCimModel {
        use cq_nn::{Layer, Mode};
        let mut net = cq_core::build_cim_resnet(
            cq_nn::ResNetSpec::resnet8(2, 2),
            &cq_cim::CimConfig::tiny(),
            scheme,
            7,
        );
        let warm = cq_tensor::CqRng::new(1).normal_tensor(&[1, 3, 8, 8], 1.0);
        let _ = net.forward(&warm, Mode::Eval);
        PreparedCimModel::new(Box::new(net))
    }

    #[test]
    fn evict_idle_model_resolves_immediately_and_hides_name() {
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", tiny_model());
        assert_eq!(registry.id("m"), Some(id));
        let ticket = registry.evict("m").unwrap();
        assert!(ticket.is_ready(), "idle model delivers immediately");
        assert_eq!(registry.id("m"), None, "evicted name hidden from lookup");
        assert!(registry.is_empty());
        assert_eq!(registry.name(id), "m", "slot keeps its name");
        assert_eq!(
            registry.scheme(id),
            "paper-lsq-column",
            "slot keeps its sniffed scheme"
        );
        let model = ticket.wait();
        assert_eq!(
            registry.into_models().len(),
            0,
            "reclaimed model no longer in the registry"
        );
        drop(model);
    }

    #[test]
    fn evict_waits_for_in_flight_admissions() {
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", tiny_model());
        registry.admit(id).unwrap();
        let ticket = registry.evict("m").unwrap();
        assert!(!ticket.is_ready(), "one request still in flight");
        let ticket = match ticket.try_wait() {
            Err(t) => t,
            Ok(_) => panic!("still draining"),
        };
        assert!(matches!(
            registry.admit(id),
            Err(SubmitError::UnknownModel(_))
        ));
        registry.release(id);
        let model = ticket
            .wait_timeout(Duration::from_secs(5))
            .expect("drained after release");
        drop(model);
    }

    /// `Duration::MAX` is a usable "wait forever": the evict ticket blocks
    /// until the last in-flight request drains instead of overflowing
    /// `Instant + timeout` (either order of the two threads gives the
    /// same result).
    #[test]
    fn evict_ticket_wait_timeout_accepts_duration_max() {
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", tiny_model());
        registry.admit(id).unwrap();
        let ticket = registry.evict("m").unwrap();
        std::thread::scope(|sc| {
            sc.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                registry.release(id);
            });
            let model = ticket
                .wait_timeout(Duration::MAX)
                .expect("a forever wait never times out");
            assert_eq!(model.scheme(), "paper-lsq-column");
        });
    }

    #[test]
    fn reregistering_an_evicted_name_routes_to_the_new_slot() {
        let mut registry = ModelRegistry::new();
        let v1 = registry.register("m", tiny_model());
        let t = registry.evict("m").unwrap();
        let v2 = registry.register_live("m", t.wait()).unwrap();
        assert_ne!(v1, v2, "fresh slot");
        assert_eq!(registry.id("m"), Some(v2), "lookup finds the newest live");
        assert!(matches!(
            registry.admit(v1),
            Err(SubmitError::UnknownModel(_))
        ));
        registry.admit(v2).unwrap();
        registry.release(v2);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn swap_errors_hand_the_model_back() {
        let mut registry = ModelRegistry::new();
        registry.register("m", tiny_model());
        let bwma = tiny_model_with(&cq_core::QuantScheme::bwma());
        assert_eq!(bwma.scheme(), "bwma");
        match registry.register_live("m", bwma) {
            Err(SwapError::DuplicateName {
                name,
                existing_scheme,
                model,
            }) => {
                assert_eq!(name, "m");
                assert_eq!(
                    existing_scheme, "paper-lsq-column",
                    "error attributes the live holder's scheme, not the offered one"
                );
                drop(model); // handed back, reusable
            }
            other => panic!("expected DuplicateName, got {other:?}"),
        }
        assert!(matches!(
            registry.evict("ghost"),
            Err(SwapError::UnknownModel(_))
        ));
    }
}

//! Serving policy configuration: [`ServeConfig`], its validating
//! [`ServeConfigBuilder`], and the [`SchedulerPolicy`] that governs how
//! the strict Latency≻Bulk priority order is tempered by aging.

use crate::queue::Admission;
use cq_core::{BackendError, BackendSet};
use std::fmt;
use std::time::Duration;

/// How the batch scheduler orders [`Slo::Latency`](crate::Slo) work
/// against [`Slo::Bulk`](crate::Slo) work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Strict priority: latency work always schedules before bulk work.
    /// Under a sustained latency flood, bulk requests can starve for the
    /// whole flood duration. The default.
    #[default]
    Strict,
    /// Strict priority **with aging**: once *any* queued bulk request's
    /// weighted age reaches `bulk_max_age`, the bulk class outranks new
    /// latency arrivals (and is served FIFO from its head), so bulk
    /// traffic has a provable starvation bound — every admitted bulk
    /// request is picked up within `bulk_max_age / weight` of submission,
    /// plus the sweep a worker is already executing and the bulk requests
    /// queued ahead of it (bounded by
    /// [`ServeConfig::queue_capacity`]). The whole bulk deque is
    /// scanned — not just its head — so a fast-aging request queued
    /// behind a slow-aging one still trips the promotion on its own
    /// clock.
    ///
    /// A request's weighted age is `elapsed × weight` (see
    /// [`Request::weight`](crate::Request::weight)): weight `2.0` crosses
    /// the threshold twice as fast, weight `0.5` half as fast. Latency
    /// work keeps absolute priority until the threshold trips, so the
    /// latency-class p99 win over FIFO is preserved for any
    /// `bulk_max_age` larger than the latency burst scale.
    Aging {
        /// Weighted queue age at which a queued bulk request makes its
        /// class outrank new latency arrivals. Must be non-zero.
        bulk_max_age: Duration,
    },
}

impl SchedulerPolicy {
    /// The aging threshold, if this policy ages bulk work.
    pub fn bulk_max_age(&self) -> Option<Duration> {
        match self {
            SchedulerPolicy::Strict => None,
            SchedulerPolicy::Aging { bulk_max_age } => Some(*bulk_max_age),
        }
    }
}

/// Per-tenant scheduling weight and admission quotas, configured via
/// [`ServeConfigBuilder::tenant`]. Requests opt in with
/// [`Request::tenant`](crate::Request::tenant); untagged requests ride
/// the built-in `"default"` tenant (weight 1, no quotas).
///
/// ```
/// use cq_serve::TenantSpec;
/// let spec = TenantSpec::new("acme").weight(3.0).max_queued(32).max_in_flight(64);
/// assert_eq!(spec.weight, 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name, matched against [`Request::tenant`](crate::Request::tenant).
    pub name: String,
    /// Weighted-fair share: under saturation each tenant's served-row
    /// share converges to `weight / Σ weights` of the active tenants.
    /// Must be finite and positive.
    pub weight: f32,
    /// Most requests this tenant may have **queued** (admitted, not yet
    /// scheduled) at once; the quota rejects with
    /// [`SubmitError::QuotaExceeded`](crate::SubmitError) — immediately,
    /// never blocking. `None` = unlimited.
    pub max_queued: Option<usize>,
    /// Most requests this tenant may have **in flight** (admitted, not
    /// yet fulfilled) at once. `None` = unlimited.
    pub max_in_flight: Option<usize>,
}

impl TenantSpec {
    /// A tenant with weight 1 and no quotas.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1.0,
            max_queued: None,
            max_in_flight: None,
        }
    }

    /// Sets the weighted-fair share (validated by the config builder).
    pub fn weight(mut self, weight: f32) -> Self {
        self.weight = weight;
        self
    }

    /// Caps queued requests (admitted, not yet scheduled).
    pub fn max_queued(mut self, max: usize) -> Self {
        self.max_queued = Some(max);
        self
    }

    /// Caps in-flight requests (admitted, not yet fulfilled).
    pub fn max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = Some(max);
        self
    }
}

/// Why a [`ServeConfig`] was rejected, by the builder or by
/// [`CimServer::set_config`](crate::CimServer::set_config).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `min_workers` (or both worker bounds, via
    /// [`workers`](ServeConfigBuilder::workers)) was zero.
    ZeroWorkers,
    /// `max_workers` was below `min_workers`.
    WorkerBounds {
        /// The configured lower bound.
        min: usize,
        /// The configured (smaller) upper bound.
        max: usize,
    },
    /// Two [`TenantSpec`]s share a name, or one claims the built-in
    /// `"default"` tenant.
    DuplicateTenant(String),
    /// A tenant's weight was zero, negative, or non-finite.
    TenantWeight {
        /// The offending tenant.
        name: String,
        /// The rejected weight.
        weight: f32,
    },
    /// A tenant quota was `Some(0)` — it would reject every submission.
    ZeroTenantQuota(String),
    /// `queue_capacity` was zero.
    ZeroQueueCapacity,
    /// `max_batch` was `Some(0)`.
    ZeroMaxBatch,
    /// [`SchedulerPolicy::Aging`] carried a zero `bulk_max_age`.
    ZeroBulkMaxAge,
    /// A [`ServeConfig::scheme_allowlist`] entry was the empty string —
    /// it could never match a scheme name.
    EmptySchemeAllowlistEntry,
    /// The configured [`ServeConfig::backends`] chain cannot execute some
    /// resident model layer (see [`BackendError`]) — e.g. a bare
    /// `BackendSet::int()` over a model frozen under device variation.
    Backend(BackendError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::ZeroWorkers => "need at least one worker",
            ConfigError::WorkerBounds { min, max } => {
                return write!(
                    f,
                    "max_workers ({max}) must be at least min_workers ({min})"
                )
            }
            ConfigError::DuplicateTenant(name) => {
                return write!(
                    f,
                    "tenant '{name}' configured twice (or shadows the built-in default tenant)"
                )
            }
            ConfigError::TenantWeight { name, weight } => {
                return write!(
                    f,
                    "tenant '{name}' weight must be finite and positive, got {weight}"
                )
            }
            ConfigError::ZeroTenantQuota(name) => {
                return write!(
                    f,
                    "tenant '{name}' has a zero quota — it would reject everything"
                )
            }
            ConfigError::ZeroQueueCapacity => "queue capacity must be positive",
            ConfigError::ZeroMaxBatch => "max_batch must be positive",
            ConfigError::ZeroBulkMaxAge => "bulk_max_age must be positive",
            ConfigError::EmptySchemeAllowlistEntry => {
                "scheme_allowlist entries must be non-empty scheme names"
            }
            ConfigError::Backend(err) => return write!(f, "backend chain rejected: {err}"),
        })
    }
}

impl From<BackendError> for ConfigError {
    fn from(err: BackendError) -> Self {
        ConfigError::Backend(err)
    }
}

impl std::error::Error for ConfigError {}

/// Serving policy knobs. Build one with [`ServeConfig::builder`], which
/// validates every invariant and returns [`ConfigError`] instead of
/// panicking deep inside the server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded queue capacity, in requests (both
    /// [`Slo`](crate::Slo) classes share it).
    pub queue_capacity: usize,
    /// What a submission does when the queue is full.
    pub admission: Admission,
    /// Images per coalesced sweep (`None` = unbounded). Also installed as
    /// every resident model's `max_batch`, so even a single oversized
    /// request is executed in ≤ cap chunks.
    pub max_batch: Option<usize>,
    /// How long a scheduler lingers for more same-model arrivals while a
    /// **bulk** sweep is unfilled (measured from when the sweep starts
    /// forming). Latency sweeps never linger, and a latency arrival
    /// aborts an in-progress bulk linger.
    pub max_wait: Duration,
    /// Lower bound of the worker pool: the session starts with this many
    /// workers and the autoscaler never shrinks below it.
    pub min_workers: usize,
    /// Upper bound of the worker pool. Equal to `min_workers` (the
    /// [`workers`](ServeConfigBuilder::workers) shorthand) for a fixed
    /// pool; larger to let the autoscaler grow it against sustained
    /// queue depth.
    pub max_workers: usize,
    /// How long the queue must stay deeper than the live worker count
    /// before the autoscaler spawns another worker (sustained-depth
    /// filter: a single burst that drains immediately does not grow the
    /// pool).
    pub scale_up_after: Duration,
    /// How long a worker must sit idle (no work arriving) before it
    /// retires, down to `min_workers`.
    pub scale_down_idle: Duration,
    /// Per-tenant weights and quotas (see [`TenantSpec`]). Requests from
    /// tenants not listed here — including untagged requests — get
    /// weight 1 and no quotas.
    pub tenants: Vec<TenantSpec>,
    /// How latency work is ordered against bulk work (strict priority, or
    /// strict-with-aging for a bulk starvation bound).
    pub policy: SchedulerPolicy,
    /// Execution-backend fallback chain installed on every resident model
    /// (see [`cq_core::PreparedCimModel::set_backends`]): each frozen
    /// convolution resolves the first chain entry whose capability probe
    /// accepts its profile. With the default [`BackendSet::standard`]
    /// (`CQ_BACKEND`-overridable auto chain) a layer runs the repacked
    /// `i8×i8→i32` panel kernels when its slices are integer-exact and
    /// the blocked f32 kernels otherwise. Outputs are bit-identical
    /// across backends — the knob exists for A/B benchmarking and
    /// forcing; an unsatisfiable chain (e.g. bare `int` under variation)
    /// is a [`ConfigError::Backend`] at install time.
    pub backends: BackendSet,
    /// Quantization-scheme admission policy for **live** registration
    /// ([`ServeSession::register`](crate::ServeSession::register)): when
    /// non-empty, a model whose sniffed
    /// [`QuantScheme`](cq_core::QuantScheme) name
    /// ([`cq_core::PreparedCimModel::scheme`]) is not listed is refused
    /// with the recoverable
    /// [`SwapError::SchemeNotAllowed`](crate::SwapError) — the model is
    /// handed back untouched. Empty (the default) admits every scheme.
    /// Pre-session
    /// [`ModelRegistry::register`](crate::ModelRegistry::register) is not
    /// gated (the registry is built before its config in many flows); the
    /// allowlist governs hot-swaps only.
    pub scheme_allowlist: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            admission: Admission::Block,
            max_batch: Some(8),
            max_wait: Duration::from_micros(200),
            min_workers: 2,
            max_workers: 2,
            scale_up_after: Duration::from_millis(2),
            scale_down_idle: Duration::from_millis(50),
            tenants: Vec::new(),
            policy: SchedulerPolicy::Strict,
            backends: BackendSet::standard(),
            scheme_allowlist: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// A validating builder seeded with [`ServeConfig::default`].
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Checks every invariant the server relies on.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.min_workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.max_workers < self.min_workers {
            return Err(ConfigError::WorkerBounds {
                min: self.min_workers,
                max: self.max_workers,
            });
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name == "default" || self.tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(ConfigError::DuplicateTenant(t.name.clone()));
            }
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return Err(ConfigError::TenantWeight {
                    name: t.name.clone(),
                    weight: t.weight,
                });
            }
            if t.max_queued == Some(0) || t.max_in_flight == Some(0) {
                return Err(ConfigError::ZeroTenantQuota(t.name.clone()));
            }
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.max_batch == Some(0) {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if self.policy.bulk_max_age() == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroBulkMaxAge);
        }
        if self.scheme_allowlist.iter().any(|s| s.is_empty()) {
            return Err(ConfigError::EmptySchemeAllowlistEntry);
        }
        Ok(())
    }
}

/// Builder for [`ServeConfig`]; every setter mirrors the field of the
/// same name, and [`build`](ServeConfigBuilder::build) validates the
/// result.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Bounded queue capacity, in requests.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity;
        self
    }

    /// What a submission does when the queue is full.
    pub fn admission(mut self, admission: Admission) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Images per coalesced sweep (`None` = unbounded).
    pub fn max_batch(mut self, max_batch: Option<usize>) -> Self {
        self.cfg.max_batch = max_batch;
        self
    }

    /// Bulk-sweep linger budget.
    pub fn max_wait(mut self, max_wait: Duration) -> Self {
        self.cfg.max_wait = max_wait;
        self
    }

    /// A **fixed** worker pool: sets `min_workers = max_workers =
    /// workers` (no autoscaling — the pre-autoscaler behavior).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.min_workers = workers;
        self.cfg.max_workers = workers;
        self
    }

    /// An **autoscaling** worker pool: starts at `min` workers, grows up
    /// to `max` against sustained queue depth, and shrinks back on idle.
    pub fn autoscale(mut self, min: usize, max: usize) -> Self {
        self.cfg.min_workers = min;
        self.cfg.max_workers = max;
        self
    }

    /// Sustained-depth window before the autoscaler grows the pool.
    pub fn scale_up_after(mut self, window: Duration) -> Self {
        self.cfg.scale_up_after = window;
        self
    }

    /// Idle window before a worker above `min_workers` retires.
    pub fn scale_down_idle(mut self, window: Duration) -> Self {
        self.cfg.scale_down_idle = window;
        self
    }

    /// Adds one tenant's weight and quotas (validated by
    /// [`build`](ServeConfigBuilder::build)).
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.cfg.tenants.push(spec);
        self
    }

    /// Execution-backend fallback chain for every resident model.
    pub fn backends(mut self, backends: BackendSet) -> Self {
        self.cfg.backends = backends;
        self
    }

    /// Quantization-scheme allowlist for live registration (empty admits
    /// every scheme); entries are validated non-empty by
    /// [`build`](ServeConfigBuilder::build).
    pub fn scheme_allowlist<I, S>(mut self, schemes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.cfg.scheme_allowlist = schemes.into_iter().map(Into::into).collect();
        self
    }

    /// Scheduling policy (strict priority or strict-with-aging).
    pub fn policy(mut self, policy: SchedulerPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Shorthand for `policy(SchedulerPolicy::Aging { bulk_max_age })`.
    pub fn bulk_max_age(self, bulk_max_age: Duration) -> Self {
        self.policy(SchedulerPolicy::Aging { bulk_max_age })
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`ConfigError`].
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let cfg = ServeConfig::builder().build().unwrap();
        assert_eq!(cfg.queue_capacity, 64);
        assert_eq!(cfg.policy, SchedulerPolicy::Strict);
        // The default chain follows the process default (CQ_BACKEND), so
        // the assertion is env-robust rather than pinned to Auto.
        assert_eq!(cfg.backends, BackendSet::standard());
    }

    #[test]
    fn backends_setter_installs_the_chain() {
        let cfg = ServeConfig::builder()
            .backends(BackendSet::scalar())
            .build()
            .unwrap();
        assert_eq!(cfg.backends, BackendSet::scalar());
    }

    #[test]
    fn builder_rejects_every_zero_invariant() {
        let cases: Vec<(ServeConfigBuilder, ConfigError)> = vec![
            (ServeConfig::builder().workers(0), ConfigError::ZeroWorkers),
            (
                ServeConfig::builder().queue_capacity(0),
                ConfigError::ZeroQueueCapacity,
            ),
            (
                ServeConfig::builder().max_batch(Some(0)),
                ConfigError::ZeroMaxBatch,
            ),
            (
                ServeConfig::builder().bulk_max_age(Duration::ZERO),
                ConfigError::ZeroBulkMaxAge,
            ),
            (
                ServeConfig::builder().scheme_allowlist(["bwma", ""]),
                ConfigError::EmptySchemeAllowlistEntry,
            ),
        ];
        for (builder, want) in cases {
            assert_eq!(builder.build().unwrap_err(), want);
        }
    }

    #[test]
    fn workers_shorthand_fixes_the_pool_and_autoscale_sets_bounds() {
        let fixed = ServeConfig::builder().workers(3).build().unwrap();
        assert_eq!((fixed.min_workers, fixed.max_workers), (3, 3));
        let scaled = ServeConfig::builder().autoscale(1, 6).build().unwrap();
        assert_eq!((scaled.min_workers, scaled.max_workers), (1, 6));
        assert_eq!(
            ServeConfig::builder().autoscale(4, 2).build().unwrap_err(),
            ConfigError::WorkerBounds { min: 4, max: 2 }
        );
        assert_eq!(
            ServeConfig::builder().autoscale(0, 2).build().unwrap_err(),
            ConfigError::ZeroWorkers
        );
    }

    #[test]
    fn tenant_specs_are_validated() {
        let ok = ServeConfig::builder()
            .tenant(TenantSpec::new("a").weight(2.0).max_queued(8))
            .tenant(TenantSpec::new("b").max_in_flight(4))
            .build()
            .unwrap();
        assert_eq!(ok.tenants.len(), 2);
        assert_eq!(ok.tenants[0].max_queued, Some(8));
        let dup = ServeConfig::builder()
            .tenant(TenantSpec::new("a"))
            .tenant(TenantSpec::new("a"))
            .build()
            .unwrap_err();
        assert_eq!(dup, ConfigError::DuplicateTenant("a".into()));
        assert_eq!(
            ServeConfig::builder()
                .tenant(TenantSpec::new("default"))
                .build()
                .unwrap_err(),
            ConfigError::DuplicateTenant("default".into())
        );
        assert!(matches!(
            ServeConfig::builder()
                .tenant(TenantSpec::new("a").weight(-1.0))
                .build()
                .unwrap_err(),
            ConfigError::TenantWeight { .. }
        ));
        assert_eq!(
            ServeConfig::builder()
                .tenant(TenantSpec::new("a").max_queued(0))
                .build()
                .unwrap_err(),
            ConfigError::ZeroTenantQuota("a".into())
        );
    }

    #[test]
    fn scheme_allowlist_defaults_open_and_accepts_names() {
        let open = ServeConfig::builder().build().unwrap();
        assert!(
            open.scheme_allowlist.is_empty(),
            "default admits everything"
        );
        let gated = ServeConfig::builder()
            .scheme_allowlist(["paper-lsq-column", "bwma"])
            .build()
            .unwrap();
        assert_eq!(gated.scheme_allowlist, ["paper-lsq-column", "bwma"]);
    }

    #[test]
    fn aging_shorthand_sets_the_policy() {
        let cfg = ServeConfig::builder()
            .bulk_max_age(Duration::from_millis(50))
            .build()
            .unwrap();
        assert_eq!(
            cfg.policy.bulk_max_age(),
            Some(Duration::from_millis(50)),
            "bulk_max_age shorthand must install the aging policy"
        );
    }
}

//! Serving policy configuration: [`ServeConfig`] and its validating
//! [`ServeConfigBuilder`].

use crate::queue::Admission;
use cq_core::{BackendError, BackendSet};
use std::fmt;
use std::time::Duration;

/// Why a [`ServeConfig`] was rejected, by the builder or by
/// [`CimServer::set_config`](crate::CimServer::set_config).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `workers` was zero.
    ZeroWorkers,
    /// `queue_capacity` was zero.
    ZeroQueueCapacity,
    /// `max_batch` was `Some(0)`.
    ZeroMaxBatch,
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
            ConfigError::ZeroQueueCapacity => "queue capacity must be positive",
            ConfigError::ZeroMaxBatch => "max_batch must be positive",
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
    /// Bounded queue capacity, in requests.
    pub queue_capacity: usize,
    /// What a submission does when the queue is full.
    pub admission: Admission,
    /// Images per coalesced sweep (`None` = unbounded). Also installed as
    /// every resident model's `max_batch`, so even a single oversized
    /// request is executed in ≤ cap chunks.
    pub max_batch: Option<usize>,
    /// How long a scheduler lingers for more same-model arrivals while a
    /// sweep is unfilled (measured from when the sweep starts forming).
    pub max_wait: Duration,
    /// Worker threads the session runs, each forming and executing its
    /// own sweeps; spawned at start and joined at shutdown.
    pub workers: usize,
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
            workers: 2,
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
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.max_batch == Some(0) {
            return Err(ConfigError::ZeroMaxBatch);
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

    /// Sweep linger budget.
    pub fn max_wait(mut self, max_wait: Duration) -> Self {
        self.cfg.max_wait = max_wait;
        self
    }

    /// Worker threads the session runs.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
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
        assert_eq!(cfg.workers, 2);
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
                ServeConfig::builder().scheme_allowlist(["bwma", ""]),
                ConfigError::EmptySchemeAllowlistEntry,
            ),
        ];
        for (builder, want) in cases {
            assert_eq!(builder.build().unwrap_err(), want);
        }
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
}

//! The serving front-end entry point: [`CimServer`] holds the resident
//! models and the active policy, and turns into running
//! [`ServeSession`]s.

use crate::config::ServeConfig;
use crate::registry::ModelRegistry;
use crate::session::ServeSession;

/// A serving front-end over a set of resident frozen models: a bounded
/// FIFO request queue with admission control, per-worker batch
/// schedulers, and a fixed pool of owned worker threads draining sweeps
/// into the registry (see crate docs for the full picture).
///
/// [`start`](CimServer::start) consumes the server and returns a
/// [`ServeSession`] whose worker threads run until
/// [`shutdown`](ServeSession::shutdown) hands back the final
/// [`ServeStats`](crate::ServeStats) and the resident models. Tickets are
/// pollable and multiplexable.
pub struct CimServer {
    registry: ModelRegistry,
    cfg: ServeConfig,
}

impl CimServer {
    /// Creates a server over `registry`; every resident model's sweep cap
    /// is set to `cfg.max_batch`. Each model keeps the execution backends
    /// its layers resolved at freeze. A different policy means a new
    /// server over [`into_models`](CimServer::into_models).
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty or `cfg` is invalid (see
    /// [`ServeConfig::validate`] — [`ServeConfig::builder`] surfaces the
    /// same violations as recoverable
    /// [`ConfigError`](crate::ConfigError)s instead).
    pub fn new(mut registry: ModelRegistry, cfg: ServeConfig) -> Self {
        assert!(!registry.is_empty(), "registry has no models");
        cfg.validate().expect("invalid serve config");
        registry.set_max_batch(cfg.max_batch);
        Self { registry, cfg }
    }

    /// The resident model set.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The active policy.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Starts an owned serving session: spawns the worker threads and
    /// hands the whole server over to the returned [`ServeSession`].
    /// Submit with [`ServeSession::submit`]; finish with
    /// [`ServeSession::shutdown`], which drains every admitted request
    /// and returns the final stats plus the resident models.
    pub fn start(self) -> ServeSession {
        ServeSession::spawn(self.registry, self.cfg)
    }

    /// Dissolves the server, returning the resident models.
    pub fn into_models(self) -> Vec<(String, cq_core::PreparedCimModel)> {
        self.registry.into_models()
    }
}

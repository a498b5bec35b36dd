//! The serving front-end entry point: [`CimServer`] holds the resident
//! models and the active policy, and turns into running
//! [`ServeSession`]s.

use crate::config::{ConfigError, ServeConfig};
use crate::registry::ModelRegistry;
use crate::session::ServeSession;

/// A serving front-end over a set of resident frozen models: a bounded
/// request queue with admission control, [`Slo`](crate::Slo) priority
/// classes (optionally aging-weighted), per-worker batch schedulers, and
/// owned worker threads draining sweeps into the registry (see crate docs
/// for the full picture).
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
    /// is set to `cfg.max_batch` and its execution-backend chain to
    /// `cfg.backends`.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty, `cfg` is invalid (see
    /// [`ServeConfig::validate`] — [`ServeConfig::builder`] surfaces the
    /// same violations as recoverable [`ConfigError`]s instead), or the
    /// backend chain cannot execute some resident layer (e.g. a bare
    /// `int` chain over a model frozen under variation).
    pub fn new(mut registry: ModelRegistry, cfg: ServeConfig) -> Self {
        assert!(!registry.is_empty(), "registry has no models");
        cfg.validate().expect("invalid serve config");
        registry
            .install(&cfg)
            .expect("configured backend chain cannot execute a resident model");
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

    /// Swaps the serving policy **between sessions** (e.g. a benchmark
    /// sweeping admission modes over one resident model set); resident
    /// models get the new sweep cap and backend chain.
    ///
    /// The new policy takes effect for the next session only: a session
    /// snapshots the policy when it starts (its queue, workers, and
    /// schedulers are built from that snapshot), and
    /// [`start`](CimServer::start) consumes the server, so a running
    /// session can never be reconfigured.
    ///
    /// # Errors
    ///
    /// The violated invariant for an invalid `cfg`, or
    /// [`ConfigError::Backend`] when the new backend chain cannot execute
    /// some resident layer (models already re-chained keep the new chain;
    /// re-install a satisfiable one to restore uniformity).
    pub fn set_config(&mut self, cfg: ServeConfig) -> Result<(), ConfigError> {
        cfg.validate()?;
        self.registry.install(&cfg)?;
        self.cfg = cfg;
        Ok(())
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

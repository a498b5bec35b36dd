//! Serving policy configuration: [`ServeConfig`] and its validating
//! [`ServeConfigBuilder`].

use crate::queue::Admission;
use std::fmt;
use std::time::Duration;

/// Why a [`ServeConfig`] was rejected by the builder.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `workers` was zero.
    ZeroWorkers,
    /// `queue_capacity` was zero.
    ZeroQueueCapacity,
    /// `max_batch` was `Some(0)`.
    ZeroMaxBatch,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::ZeroWorkers => "need at least one worker",
            ConfigError::ZeroQueueCapacity => "queue capacity must be positive",
            ConfigError::ZeroMaxBatch => "max_batch must be positive",
        })
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            admission: Admission::Block,
            max_batch: Some(8),
            max_wait: Duration::from_micros(200),
            workers: 2,
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
        ];
        for (builder, want) in cases {
            assert_eq!(builder.build().unwrap_err(), want);
        }
    }
}

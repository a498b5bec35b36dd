//! The unified request builder: one submission type instead of a
//! `submit`/`submit_with`/`submit_to`/`submit_to_with` method explosion.
//!
//! ```text
//! Request::to("resnet8")        // or Request::to_id(model_id)
//!     .batch(input)             // [B, C, H, W] tensor (required)
//!     .deadline(d)              // default: none
//! ```
//!
//! A `Request` is inert until handed to
//! [`ServeSession::submit`](crate::ServeSession::submit), which resolves
//! the target against the registry and admits it into the queue.

use crate::registry::ModelId;
use cq_tensor::Tensor;
use std::time::Duration;

/// Where a request is going: a model name (resolved at submission) or a
/// pre-resolved registry handle (skips the name lookup on hot paths).
#[derive(Debug, Clone)]
pub(crate) enum Target {
    /// Resolved against the registry by `ServeSession::submit`.
    Name(String),
    /// Already resolved (from [`ServeSession::model_id`](crate::ServeSession::model_id)
    /// or [`ModelRegistry::register`](crate::ModelRegistry::register)).
    Id(ModelId),
}

/// One serving request, built fluently and submitted through
/// [`ServeSession::submit`](crate::ServeSession::submit).
///
/// Defaults: no deadline. The input batch is **required** — submitting
/// without one fails with
/// [`SubmitError::MissingInput`](crate::SubmitError).
#[derive(Debug, Clone)]
pub struct Request {
    pub(crate) target: Target,
    pub(crate) input: Option<Tensor>,
    pub(crate) deadline: Option<Duration>,
}

impl Request {
    fn with_target(target: Target) -> Self {
        Self {
            target,
            input: None,
            deadline: None,
        }
    }

    /// Starts a request to the named model (resolved at submission;
    /// unknown names fail with
    /// [`SubmitError::UnknownModel`](crate::SubmitError)).
    pub fn to(model: impl Into<String>) -> Self {
        Self::with_target(Target::Name(model.into()))
    }

    /// Starts a request to a pre-resolved [`ModelId`] (skips the name
    /// lookup — use for hot submission loops).
    pub fn to_id(model: ModelId) -> Self {
        Self::with_target(Target::Id(model))
    }

    /// The input batch, `[B, C, H, W]`. Required.
    pub fn batch(mut self, input: Tensor) -> Self {
        self.input = Some(input);
        self
    }

    /// Completion deadline relative to submission. A deadline-expired
    /// request is still served bit-exactly — the violation is recorded in
    /// [`Completed::missed`](crate::Completed) and
    /// [`ServeStats::missed`](crate::ServeStats). A deadline too far away
    /// to represent as an [`Instant`](std::time::Instant) can never be
    /// missed and counts as none.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let r = Request::to("m");
        assert!(matches!(&r.target, Target::Name(n) if n == "m"));
        assert!(r.input.is_none());
        assert_eq!(r.deadline, None);

        let r = Request::to_id(ModelId(3))
            .batch(Tensor::zeros(&[1, 1, 1, 1]))
            .deadline(Duration::from_millis(5));
        assert!(matches!(r.target, Target::Id(ModelId(3))));
        assert!(r.input.is_some());
        assert_eq!(r.deadline, Some(Duration::from_millis(5)));
    }
}

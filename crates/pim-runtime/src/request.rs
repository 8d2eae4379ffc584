//! Requests, responses, and the ticket a client waits on.

use crate::error::RuntimeError;
use pim_device::{Energy, Latency};
use pim_nn::tensor::Tensor;
use std::fmt;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Handle to a model registered with the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(pub(crate) usize);

impl ModelId {
    /// Position in registration order.
    ///
    /// Registration order is the cross-runtime coordination key: fleets
    /// that register the same models in the same order share handles.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a registration index — for coordinators
    /// (e.g. a cluster) that mirror the same registration order across
    /// several runtimes. A forged index is harmless: the runtime answers
    /// [`UnknownModel`](crate::RuntimeError::UnknownModel) for any id it
    /// never registered.
    pub fn from_index(index: usize) -> Self {
        ModelId(index)
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model#{}", self.0)
    }
}

/// The one admission rule for a single-sample request input, shared by
/// every serving layer (a runtime, a cluster, a governor): the input must
/// be `[C, H, W]` or `[1, C, H, W]` for the model's `expected` `[C, H, W]`
/// shape, and every element must be finite.
///
/// # Errors
///
/// * [`RuntimeError::BadInput`] — shape mismatch (batched inputs are
///   rejected; batching is the runtime's job).
/// * [`RuntimeError::NonFiniteInput`] — a NaN or infinite element, named
///   by its flat index. Served, it would poison the per-row activation
///   scale and turn the logits into NaN.
pub fn validate_input(expected: &[usize], input: &Tensor) -> Result<(), RuntimeError> {
    let shape = input.shape();
    let shape_ok = shape == expected
        || (shape.len() == expected.len() + 1 && shape[0] == 1 && &shape[1..] == expected);
    if !shape_ok {
        return Err(RuntimeError::BadInput {
            expected: expected.to_vec(),
            actual: shape.to_vec(),
        });
    }
    match input.as_slice().iter().position(|v| !v.is_finite()) {
        Some(index) => Err(RuntimeError::NonFiniteInput { index }),
        None => Ok(()),
    }
}

/// One queued inference request (internal).
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    pub id: u64,
    pub model: ModelId,
    /// Normalized to `[1, C, H, W]`.
    pub input: Tensor,
    pub enqueued: Instant,
    pub reply: mpsc::Sender<InferResponse>,
}

/// The answer to one request, with its share of the batch's cost.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// The id `submit` returned for this request.
    pub request_id: u64,
    /// Raw classifier outputs for this sample.
    pub logits: Vec<f32>,
    /// Argmax class.
    pub prediction: usize,
    /// How many requests rode in the same PE batch.
    pub batch_size: usize,
    /// Wall-clock time the request sat in the queue plus compute.
    pub queue_wait: Duration,
    /// Simulated PE latency of the whole batch (every rider completes
    /// when its batch completes).
    pub latency: Latency,
    /// This request's share (1/batch) of the batch's simulated energy.
    pub energy: Energy,
}

/// A claim on a future [`InferResponse`].
#[derive(Debug)]
pub struct Ticket {
    pub(crate) request_id: u64,
    pub(crate) rx: mpsc::Receiver<InferResponse>,
}

impl Ticket {
    /// The id the response will carry.
    pub fn id(&self) -> u64 {
        self.request_id
    }

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Disconnected`] if the serving side hung up
    /// (a worker panicked) before answering.
    pub fn wait(self) -> Result<InferResponse, RuntimeError> {
        self.rx.recv().map_err(|_| RuntimeError::Disconnected)
    }

    /// Returns the response if it is already available.
    pub fn try_wait(&self) -> Option<InferResponse> {
        self.rx.try_recv().ok()
    }
}

//! Typed failures of the serving runtime.

use crate::request::ModelId;
use pim_pe::PeError;
use std::fmt;

/// Why a runtime operation could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The bounded request queue is at capacity — backpressure. The
    /// caller should retry later or shed load; `submit` never blocks.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The runtime is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The request named a model the runtime does not serve.
    UnknownModel {
        /// The offending handle.
        id: ModelId,
    },
    /// The request input does not match the model's expected shape.
    BadInput {
        /// Shape the compiled model was lowered for (`[C, H, W]`).
        expected: Vec<usize>,
        /// Shape the request carried.
        actual: Vec<usize>,
    },
    /// The request input holds a NaN or infinite element.
    NonFiniteInput {
        /// Flat (row-major) index of the first non-finite element.
        index: usize,
    },
    /// A hot swap offered a replacement model whose interface does not
    /// match the slot it targets. Clients keep their [`ModelId`] across
    /// swaps, so the replacement must accept the same inputs and emit the
    /// same number of classes.
    IncompatibleSwap {
        /// Input shape the serving slot was registered with (`[C, H, W]`).
        expected_input: Vec<usize>,
        /// Input shape the replacement expects.
        actual_input: Vec<usize>,
        /// Classifier outputs the serving slot was registered with.
        expected_classes: usize,
        /// Classifier outputs of the replacement.
        actual_classes: usize,
    },
    /// The request's model slot is over its per-model admission quota
    /// (set by [`Runtime::set_queue_quota`](crate::Runtime::set_queue_quota),
    /// typically by a governor throttling one tenant). The shared queue
    /// may still have room — only this slot is being held back.
    Throttled {
        /// The throttled slot.
        model: ModelId,
        /// Its current per-model quota.
        quota: usize,
    },
    /// The serving side hung up before answering (a worker panicked).
    Disconnected,
    /// Lowering a model onto the PEs failed.
    Compile(PeError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            Self::ShuttingDown => write!(f, "runtime is shutting down"),
            Self::UnknownModel { id } => write!(f, "unknown model {id}"),
            Self::BadInput { expected, actual } => write!(
                f,
                "input shape {actual:?} does not match model input {expected:?}"
            ),
            Self::NonFiniteInput { index } => {
                write!(f, "input element {index} is not finite")
            }
            Self::IncompatibleSwap {
                expected_input,
                actual_input,
                expected_classes,
                actual_classes,
            } => write!(
                f,
                "swap rejected: slot serves input {expected_input:?} -> {expected_classes} \
                 classes but replacement is {actual_input:?} -> {actual_classes}"
            ),
            Self::Throttled { model, quota } => {
                write!(f, "model {model} is over its admission quota ({quota})")
            }
            Self::Disconnected => write!(f, "worker disconnected before replying"),
            Self::Compile(e) => write!(f, "model failed to compile onto PEs: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PeError> for RuntimeError {
    fn from(e: PeError) -> Self {
        Self::Compile(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        let e = RuntimeError::QueueFull { capacity: 4 };
        assert!(e.to_string().contains("capacity 4"));
        assert!(RuntimeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        let b = RuntimeError::BadInput {
            expected: vec![3, 8, 8],
            actual: vec![1, 8, 8],
        };
        assert!(b.to_string().contains("[3, 8, 8]"));
        assert!(RuntimeError::NonFiniteInput { index: 5 }
            .to_string()
            .contains("element 5"));
        let s = RuntimeError::IncompatibleSwap {
            expected_input: vec![3, 8, 8],
            actual_input: vec![3, 8, 8],
            expected_classes: 10,
            actual_classes: 7,
        };
        assert!(s.to_string().contains("swap rejected"));
        assert!(s.to_string().contains("-> 7"));
    }
}

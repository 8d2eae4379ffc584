//! Minimal DNN substrate for the hybrid-PIM reproduction.
//!
//! The paper's algorithm-side evaluation (Table 1) needs a real, trainable
//! network stack: a frozen convolutional **backbone**, the tiny learnable
//! **Rep-Net** adaptor path (pool + 3×3 conv + 1×1 conv per module, joined
//! to the backbone through activation connectors), a shared classifier,
//! N:M-sparse fine-tuning, and INT8 post-training quantization. This crate
//! implements all of it from scratch:
//!
//! * [`tensor`] — a small NCHW [`Tensor`] with the handful of ops the
//!   layers need.
//! * [`init`] — seeded Kaiming/Xavier initializers (deterministic runs).
//! * [`layers`] — `Linear`, `Conv2d`, pooling, `ReLU`, `BatchNorm2d`,
//!   flatten; every layer implements explicit [`layers::Layer`] forward /
//!   backward (the paper's eqs. 1–3: error propagation through `Wᵀ`,
//!   gradient `a·eᵀ`, SGD update).
//! * [`sparse`] — N:M-masked variants of `Linear`/`Conv2d` whose gradients
//!   respect the mask during fine-tuning.
//! * [`quant`] — symmetric per-tensor INT8 PTQ with a fake-quant forward
//!   mode plus bit-true integer kernels for PE cross-validation.
//! * [`models`] — the backbone and Rep-Net assemblies used in experiments,
//!   and the one frozen-backbone activation cache
//!   ([`models::BackboneOutput`]) every Rep-Net training path reads.
//! * [`train`] — SGD, the training loop, and accuracy evaluation.
//! * [`checkpoint`] — binary save/restore of parameters and BN state.
//!
//! # Example
//!
//! ```
//! use pim_nn::tensor::Tensor;
//! use pim_nn::layers::{Layer, Linear};
//!
//! let mut fc = Linear::new(4, 2, 42);
//! let x = Tensor::from_vec(vec![1, 4], (0..4).map(|v| v as f32).collect())?;
//! let y = fc.forward(&x, true);
//! assert_eq!(y.shape(), &[1, 2]);
//! let grad_in = fc.backward(&Tensor::ones(&[1, 2]));
//! assert_eq!(grad_in.shape(), &[1, 4]);
//! # Ok::<(), pim_nn::tensor::TensorError>(())
//! ```

pub mod checkpoint;
pub mod init;
pub mod layers;
pub mod models;
pub mod quant;
pub mod sparse;
pub mod tensor;
pub mod train;

pub use tensor::Tensor;

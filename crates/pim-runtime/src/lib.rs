//! # pim-runtime — concurrent batched inference serving over the PEs
//!
//! The rest of the workspace answers "what does one forward pass cost on
//! the MRAM–SRAM hybrid?"; this crate answers "what does *serving* look
//! like?". It is a multi-threaded batch-serving engine built only on
//! `std` primitives (`std::thread`, `mpsc`, `Mutex`/`Condvar`):
//!
//! * **Compile once, serve many** — [`CompiledModel::compile`] lowers a
//!   trained `RepNet` through INT8 quantization, N:M CSC compression,
//!   and column tiling exactly once, caching the loaded SRAM PE tile
//!   programs for reuse across every subsequent request.
//! * **Sharded worker pool** — each worker thread owns a private
//!   [`replica`](CompiledModel) of every registered model (its own
//!   simulated PEs), so serving never contends on PE state; workers
//!   drain one shared bounded request queue.
//! * **Coalescing batcher** — compatible requests (same model, same
//!   shape) riding the queue together are merged into one PE batch, up
//!   to a [`BatchPolicy`] `max_batch` / `max_wait`. Batched results are
//!   bit-exact with sequential execution: the backbone runs in eval mode
//!   (BatchNorm running stats) and the PE path is per-sample
//!   independent.
//! * **Hot model swap** — [`Runtime::swap_model`] atomically publishes a
//!   replacement artifact into a serving slot (RCU-style): batches
//!   already collected finish on the old model, later batches see the
//!   new one, and clients keep their [`ModelId`] across the swap. This
//!   is the seam `pim-learn` uses to push continually-trained weights
//!   into live serving.
//! * **Backpressure & graceful shutdown** — a full queue makes
//!   [`Runtime::submit`] return [`RuntimeError::QueueFull`] immediately
//!   (it never blocks); [`Runtime::shutdown`] stops intake, drains every
//!   in-flight request so all tickets get answers, and joins the pool.
//! * **Accounting** — per-batch simulated energy and EDP from the
//!   `pim-device`/`pim-pe` cost models, plus the per-request modelled
//!   latency as a bounded, mergeable `pim-telemetry` histogram
//!   ([`RuntimeStats::modelled_latency`]), rolled up into a
//!   [`RuntimeStats`] snapshot ([`Runtime::stats`]).
//! * **Telemetry** — [`RuntimeBuilder::telemetry`] attaches a shared
//!   [`Telemetry`] bundle: per-stage latency histograms
//!   (`queue`/`batch_form`/`compute`/`reply`), queue-depth and
//!   batch-size distributions, request/rejection/swap counters, a
//!   per-replica PE energy mirror (`source="serve"`), and
//!   per-request/batch/swap spans — Prometheus-renderable mid-run.
//!
//! See `examples/serving.rs` for an end-to-end tour and
//! `examples/telemetry.rs` for the instrumented one.

mod compiled;
mod engine;
mod error;
mod queue;
mod request;
mod stats;
pub mod telemetry;

pub use compiled::CompiledModel;
pub use engine::{BatchPolicy, Runtime, RuntimeBuilder, RuntimeConfig};
pub use error::RuntimeError;
pub use pim_par::PoolCounters;
pub use pim_telemetry::Telemetry;
pub use request::{validate_input, InferResponse, ModelId, Ticket};
pub use stats::RuntimeStats;

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
    use pim_nn::tensor::Tensor;
    use std::sync::Arc;
    use std::time::Duration;

    fn tiny_model() -> RepNet {
        tiny_model_seeded(11)
    }

    fn tiny_model_seeded(seed: u64) -> RepNet {
        RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 5,
                seed,
            },
        )
    }

    #[test]
    fn compile_once_then_serve() {
        let model = tiny_model();
        let compiled = CompiledModel::compile("tiny", &model).expect("compile");
        assert!(compiled.tile_count() > 0);
        assert!(compiled.compile_stats().loads > 0);

        // A macro-group deal changes no logit and no run ledger, at any
        // group count (past the tile count too) and pool width, and on a
        // warmed replica as on a fresh one.
        let batch = Tensor::from_vec(
            vec![4, 1, 8, 8],
            (0..256)
                .map(|i| ((i * 37 % 113) as f32 / 56.5) - 1.0)
                .collect(),
        )
        .expect("probe batch");
        let (want_logits, want_stats) = compiled.replica().infer_batch(&batch);
        for groups in [1, 2, 3, 5, compiled.tile_count() + 3] {
            for threads in [1, 4] {
                let mut sharded = compiled.clone().shard(groups);
                assert_eq!(sharded.macro_groups(), groups);
                assert_eq!(sharded.tile_count(), compiled.tile_count());
                assert_eq!(sharded.compile_stats(), compiled.compile_stats());
                assert_eq!(
                    sharded.to_string().contains("macro groups"),
                    groups > 1,
                    "{sharded}"
                );
                sharded.attach_pool(Arc::new(pim_par::WorkPool::with_forced_threads(threads)));
                let mut replica = sharded.replica();
                for round in 0..2 {
                    let (logits, stats) = replica.infer_batch(&batch);
                    let bits = |t: &Tensor| -> Vec<u32> {
                        t.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&logits),
                        bits(&want_logits),
                        "G={groups} threads={threads} round={round}: logits diverged"
                    );
                    assert_eq!(
                        stats, want_stats,
                        "G={groups} threads={threads} round={round}: run ledger diverged"
                    );
                }
            }
        }
        assert_eq!(compiled.clone().shard(4).shard(0).macro_groups(), 1);

        let mut builder = Runtime::builder().workers(2);
        let id = builder.register(compiled);
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());
        let response = runtime.infer(id, &input).expect("infer");
        assert_eq!(response.logits.len(), 5);
        assert!(response.prediction < 5);
        assert!(response.latency.as_ns() > 0.0);
        assert!(response.energy.as_pj() > 0.0);

        let stats = runtime.shutdown();
        assert_eq!(stats.requests_completed, 1);
        assert!(stats.total_energy.as_pj() > 0.0);
    }

    #[test]
    fn submit_validates_model_and_shape() {
        let mut builder = Runtime::builder().workers(1);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();

        let bad_model = ModelId(7);
        assert!(matches!(
            runtime.submit(bad_model, &Tensor::ones(&[1, 8, 8])),
            Err(RuntimeError::UnknownModel { .. })
        ));
        assert!(matches!(
            runtime.submit(id, &Tensor::ones(&[2, 8, 8])),
            Err(RuntimeError::BadInput { .. })
        ));
        // A [1, C, H, W] input with unit batch is accepted too.
        let shape = runtime.models()[0].input_shape().to_vec();
        let mut batched = vec![1];
        batched.extend_from_slice(&shape);
        assert!(runtime.submit(id, &Tensor::ones(&batched)).is_ok());
        runtime.shutdown();
    }

    #[test]
    fn non_finite_inputs_are_refused_and_the_worker_stays_healthy() {
        let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();
        let shape = runtime.models()[0].input_shape().to_vec();
        let poisoned = |index: usize, value: f32| {
            Tensor::from_fn(&shape, |i| if i == index { value } else { 0.5 })
        };

        for (index, value) in [(0, f32::INFINITY), (3, f32::NAN)] {
            assert_eq!(
                runtime.submit(id, &poisoned(index, value)).map(|_| ()),
                Err(RuntimeError::NonFiniteInput { index })
            );
        }
        assert!(runtime.healthy(), "a refused input never reaches a worker");
        let ok = runtime.infer(id, &Tensor::ones(&shape)).expect("answered");
        assert_eq!(ok.logits.len(), 5);
        assert!(runtime.healthy());
        let stats = runtime.shutdown();
        assert_eq!(stats.requests_completed, 1);
        assert_eq!(stats.requests_rejected, 0, "validation is not admission");
    }

    #[test]
    fn hot_swap_serves_the_replacement_bit_exactly() {
        let compiled_a = CompiledModel::compile("v0", &tiny_model()).expect("compile a");
        let model_b = tiny_model_seeded(77);
        let compiled_b = CompiledModel::compile("v1", &model_b).expect("compile b");

        let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
        let id = builder.register(compiled_a);
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());
        let before = runtime.infer(id, &input).expect("infer before swap");

        let version = runtime.swap_model(id, compiled_b.clone()).expect("swap");
        assert_eq!(version, 1);
        assert_eq!(runtime.models()[0].name(), "v1");

        let after = runtime.infer(id, &input).expect("infer after swap");
        assert_ne!(before.logits, after.logits, "replacement has new weights");

        // The served logits must be bit-exact with a cold replica of the
        // swapped-in artifact.
        let mut batched_shape = vec![1];
        batched_shape.extend_from_slice(input.shape());
        let batched = input.reshaped(batched_shape).expect("unit batch axis");
        let (reference, _) = compiled_b.replica().infer_batch(&batched);
        assert_eq!(after.logits, reference.as_slice().to_vec());

        let stats = runtime.shutdown();
        assert_eq!(stats.model_swaps, 1);
        assert_eq!(stats.requests_completed, 2);
    }

    #[test]
    fn swap_rejects_incompatible_and_unknown_models() {
        let mut builder = Runtime::builder().workers(1);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();

        let wrong_classes = RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 7,
                seed: 3,
            },
        );
        let wrong = CompiledModel::compile("wrong", &wrong_classes).expect("compile");
        assert!(matches!(
            runtime.swap_model(id, wrong.clone()),
            Err(RuntimeError::IncompatibleSwap {
                expected_classes: 5,
                actual_classes: 7,
                ..
            })
        ));
        assert!(matches!(
            runtime.swap_model(ModelId(9), wrong),
            Err(RuntimeError::UnknownModel { .. })
        ));
        assert_eq!(runtime.stats().model_swaps, 0);
        runtime.shutdown();
    }

    #[test]
    fn queue_quota_throttles_one_slot_and_clears() {
        let mut builder = Runtime::builder().workers(1);
        let id_a = builder.register(CompiledModel::compile("a", &tiny_model()).expect("compile"));
        let id_b =
            builder.register(CompiledModel::compile("b", &tiny_model_seeded(7)).expect("compile"));
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());

        assert!(matches!(
            runtime.set_queue_quota(ModelId(9), Some(1)),
            Err(RuntimeError::UnknownModel { .. })
        ));
        // Quota 0 sheds slot A outright; slot B is untouched.
        runtime.set_queue_quota(id_a, Some(0)).expect("known slot");
        assert!(matches!(
            runtime.submit(id_a, &input),
            Err(RuntimeError::Throttled { quota: 0, .. })
        ));
        let ok = runtime.infer(id_b, &input).expect("slot b unaffected");
        assert_eq!(ok.logits.len(), 5);
        // Clearing the quota re-admits slot A.
        runtime.set_queue_quota(id_a, None).expect("known slot");
        runtime.infer(id_a, &input).expect("slot a re-admitted");
        assert_eq!(runtime.queued_per_model(), vec![0, 0], "queue drained");
        let stats = runtime.shutdown();
        assert_eq!(stats.requests_rejected, 1, "throttle counts as rejection");
    }

    #[test]
    fn batch_policy_retunes_live_without_changing_results() {
        let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());
        let before = runtime.infer(id, &input).expect("infer before");

        let wide = BatchPolicy {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
        };
        runtime.set_batch_policy(wide);
        assert_eq!(runtime.batch_policy(), wide);
        let after = runtime.infer(id, &input).expect("infer after");
        assert_eq!(before.logits, after.logits, "batching is result-neutral");
        runtime.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());
        // Drop uses the same close path as shutdown; rebuild to test the
        // explicit closed-queue error via a second runtime handle.
        let _ = runtime.infer(id, &input).expect("infer");
        let stats = runtime.stats();
        assert!(stats.requests_completed >= 1);
        runtime.shutdown();
    }
}

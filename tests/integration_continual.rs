//! End-to-end continual learning: online training, differential SRAM
//! write-back under the hybrid write policy, and hot model swap into the
//! live serving runtime.
//!
//! Covers the subsystem's two acceptance invariants:
//!
//! (a) after N online steps and a publish, the *served* output is
//!     bit-exact with a cold `PeRepNet::compile` of the learner's current
//!     weights — the differential write-back and zero-recompile swap path
//!     introduces no drift;
//! (b) the MRAM backbone write counter stays zero while the SRAM
//!     endurance meter is nonzero and within budget — the hybrid memory
//!     contract holds under real operation.

use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_learn::{LearnEngine, OnlineLearnerConfig, WritePolicy};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::Runtime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

const NUM_CLASSES: usize = 5;

fn tiny_model(seed: u64) -> RepNet {
    RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: NUM_CLASSES,
            seed,
        },
    )
}

fn engine(seed: u64) -> LearnEngine {
    LearnEngine::new(
        "live",
        tiny_model(seed),
        OnlineLearnerConfig {
            replay_capacity: 64,
            batch_size: 4,
            seed: 100 + seed,
            ..OnlineLearnerConfig::default()
        },
        WritePolicy::hybrid_dac24(1 << 22),
    )
    .expect("tiny model fits the PEs")
}

fn stream_task() -> pim_data::Task {
    SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(4, 2)
        .generate()
        .expect("synthetic task")
}

#[test]
fn online_steps_then_hot_swap_serve_bit_exact_within_budget() {
    let mut engine = engine(9);
    let task = stream_task();
    // Labels above NUM_CLASSES-1 exist in the 10-class task; fold them.
    for i in 0..task.train.len() {
        let (x, labels) = task.train.batch(&[i]);
        engine.observe(&x, labels[0] % NUM_CLASSES);
    }

    let mut builder = Runtime::builder().workers(2).max_wait(Duration::ZERO);
    let id = builder.register(engine.compiled());
    let runtime = builder.start();

    // Three train→publish rounds of online continual learning.
    let mut slot_version = 0;
    for _ in 0..3 {
        for _ in 0..4 {
            engine.step().expect("online step");
        }
        slot_version = engine.publish(&runtime, id).expect("publish");
    }
    assert_eq!(slot_version, 3);
    assert_eq!(engine.version(), 3);

    // (a) Serving is bit-exact with a cold recompile of the learner's
    // current weights, for every test sample.
    let mut cold_model = engine.learner().model().clone();
    let mut cold_branch = PeRepNet::compile(&cold_model).expect("cold recompile");
    for i in 0..task.test.len() {
        let (x, _) = task.test.batch(&[i]);
        let served = runtime.infer(id, &x).expect("serve");
        let (cold_logits, _) = cold_branch.predict(&mut cold_model, &x);
        assert_eq!(
            served.logits,
            cold_logits.as_slice().to_vec(),
            "sample {i}: served logits differ from cold recompile"
        );
    }

    // (b) The hybrid contract held: backbone untouched, adaptor metered
    // and within budget.
    let report = engine.report();
    assert_eq!(report.mram_write_bits, 0, "MRAM backbone was written");
    assert!(report.sram_write_bits > 0, "SRAM meter never moved");
    assert!(report.within_budget());
    assert_eq!(report.publishes, 3);

    let stats = runtime.shutdown();
    assert_eq!(stats.model_swaps, 3);
    assert_eq!(stats.requests_completed, task.test.len() as u64);
}

#[test]
fn hot_swaps_under_concurrent_traffic_answer_every_request() {
    let mut engine = engine(4);
    let task = stream_task();
    for i in 0..task.train.len() {
        let (x, labels) = task.train.batch(&[i]);
        engine.observe(&x, labels[0] % NUM_CLASSES);
    }

    let mut builder = Runtime::builder().workers(2).queue_capacity(512);
    let id = builder.register(engine.compiled());
    let runtime = builder.start();

    let answered = AtomicUsize::new(0);
    let requests_per_client = 25;
    thread::scope(|scope| {
        for c in 0..3 {
            let runtime = &runtime;
            let answered = &answered;
            let input = {
                let (x, _) = task.test.batch(&[c % task.test.len()]);
                x
            };
            scope.spawn(move || {
                for _ in 0..requests_per_client {
                    let response = runtime.infer(id, &input).expect("serve under swaps");
                    assert!(response.prediction < NUM_CLASSES);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Publish new model versions while the clients hammer the queue.
        for _ in 0..4 {
            engine.step().expect("online step");
            engine.publish(&runtime, id).expect("publish under load");
        }
    });
    assert_eq!(answered.load(Ordering::Relaxed), 3 * requests_per_client);

    let stats = runtime.shutdown();
    assert_eq!(stats.model_swaps, 4);
    assert_eq!(stats.requests_completed, 3 * requests_per_client as u64);
}

#[test]
fn memo_runs_the_backbone_once_per_sample_in_a_publish_block() {
    // The benchmark's learn block: 8 rounds of observe 4, step 4 and
    // publish, batches of 8. Without memos every step re-ran the
    // backbone on its 8 draws: 32 steps x 8 = 256 images. With them the
    // backbone sees each of the 32 samples at most once.
    const ROUNDS: usize = 8;
    const OBSERVE: usize = 4;
    let mut engine = LearnEngine::new(
        "memo",
        tiny_model(4),
        OnlineLearnerConfig {
            replay_capacity: 64,
            batch_size: 8,
            seed: 104,
            ..OnlineLearnerConfig::default()
        },
        WritePolicy::hybrid_dac24(1 << 22),
    )
    .expect("tiny model fits the PEs");
    let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
    let id = builder.register(engine.compiled());
    let runtime = builder.start();
    for round in 0..ROUNDS {
        for i in round * OBSERVE..(round + 1) * OBSERVE {
            let x = Tensor::from_fn(&[1, 1, 8, 8], |v| ((v * 5 + i * 11) % 13) as f32 / 13.0);
            engine.observe(&x, i % NUM_CLASSES);
        }
        for _ in 0..4 {
            engine.step().expect("online step");
        }
        engine.publish(&runtime, id).expect("publish");
    }
    let images = engine.learner().backbone_images();
    assert!(images > 0, "steps ran the backbone");
    assert!(
        images <= (ROUNDS * OBSERVE) as u64,
        "{images} backbone images for {} samples",
        ROUNDS * OBSERVE
    );
    assert_eq!(runtime.shutdown().model_swaps, ROUNDS as u64);
}

#[test]
fn checkpoint_restores_and_write_back_republishes_the_restored_weights() {
    let mut engine = engine(2);
    let task = stream_task();
    for i in 0..task.train.len() {
        let (x, labels) = task.train.batch(&[i]);
        engine.observe(&x, labels[0] % NUM_CLASSES);
    }
    for _ in 0..3 {
        engine.step().expect("step");
    }
    engine.write_back().expect("write back");

    // Snapshot the learner state, then keep training past it.
    let mut saved = Vec::new();
    engine
        .learner_mut()
        .save_checkpoint(&mut saved)
        .expect("save");
    let reference = {
        let mut model = engine.learner().model().clone();
        let mut branch = PeRepNet::compile(&model).expect("reference compile");
        let (x, _) = task.test.batch(&[0]);
        let (logits, _) = branch.predict(&mut model, &x);
        logits.as_slice().to_vec()
    };
    for _ in 0..3 {
        engine.step().expect("step");
    }
    engine.write_back().expect("write back");

    // Restore and write back: the resident tiles must converge to the
    // checkpointed weights, bit-exactly.
    engine
        .learner_mut()
        .load_checkpoint(saved.as_slice())
        .expect("load");
    engine.write_back().expect("write back restored weights");
    let restored = engine.compiled();
    let mut cold_model = engine.learner().model().clone();
    let mut cold_branch = PeRepNet::compile(&cold_model).expect("cold recompile");
    let (x, _) = task.test.batch(&[0]);
    let (cold_logits, _) = cold_branch.predict(&mut cold_model, &x);
    assert_eq!(cold_logits.as_slice().to_vec(), reference);
    assert_eq!(restored.name(), "live@v3");
}

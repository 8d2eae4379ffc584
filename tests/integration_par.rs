//! End-to-end determinism tests for the `pim-par` work pool: the
//! parallel forward path must be **bit-exact** with serial execution —
//! identical logits, identical f64 `PeStats` ledgers — at both the
//! `PeRepNet` level and through the serving runtime. CI runs this as the
//! threads=1 vs threads=4 smoke in the regression gate.

use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use pim_runtime::{CompiledModel, Runtime};
use std::sync::Arc;
use std::time::Duration;

fn tiny_model(seed: u64) -> RepNet {
    RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 5,
            seed,
        },
    )
}

/// Deterministic single-sample inputs matching `BackboneConfig::tiny()`.
fn tiny_inputs(count: usize) -> Vec<Tensor> {
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(1, count.div_ceil(10))
        .generate()
        .expect("synthetic task");
    (0..count)
        .map(|i| task.test.inputs().batch_item(i))
        .collect()
}

/// A deterministic `[N, C, H, W]` batch from the same generator.
fn tiny_batch(count: usize) -> Tensor {
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(1, count.div_ceil(10))
        .generate()
        .expect("synthetic task");
    let indices: Vec<usize> = (0..count).collect();
    let (x, _) = task.test.batch(&indices);
    x
}

fn logit_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn parallel_predict_is_bit_exact_with_serial() {
    let model = tiny_model(3);

    let mut model_s = model.clone();
    let mut serial = PeRepNet::compile(&model_s).expect("compile");
    let mut model_p = model.clone();
    let mut parallel = serial.clone();
    parallel.attach_pool(Arc::new(WorkPool::with_forced_threads(4)));

    let x = tiny_batch(8);
    let (logits_s, stats_s) = serial.predict(&mut model_s, &x);
    let (logits_p, stats_p) = parallel.predict(&mut model_p, &x);

    assert_eq!(
        logit_bits(&logits_s),
        logit_bits(&logits_p),
        "4-thread logits diverged from serial at the bit level"
    );
    assert_eq!(stats_s, stats_p, "run ledgers must replay identically");
    assert_eq!(
        serial.cumulative_stats(),
        parallel.cumulative_stats(),
        "cumulative per-tile ledgers must agree bit-exactly"
    );
}

#[test]
fn runtime_threads_1_and_4_serve_identical_answers() {
    let model = tiny_model(9);
    let inputs = tiny_inputs(12);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serve = |par_threads: usize| {
        let mut builder = Runtime::builder()
            .workers(1)
            .queue_capacity(32)
            .max_batch(4)
            .max_wait(Duration::from_millis(20))
            // An eager threshold so a genuinely wide pool must dispatch
            // even this tiny model's fan-outs.
            .spawn_threshold(1)
            .par_threads(par_threads);
        let id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
        let runtime = builder.start();
        // The runtime clamps the requested width to the physical cores.
        assert_eq!(runtime.par_threads(), par_threads.min(cores));
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| runtime.submit(id, x).expect("submit"))
            .collect();
        let answers: Vec<(Vec<u32>, usize)> = tickets
            .into_iter()
            .map(|t| {
                let r = t.wait().expect("response");
                let bits = r.logits.iter().map(|v| v.to_bits()).collect();
                (bits, r.prediction)
            })
            .collect();
        let counters = runtime.pool_counters();
        let stats = runtime.shutdown();
        assert_eq!(stats.requests_completed, inputs.len() as u64);
        (answers, counters)
    };

    let (serial_answers, serial_counters) = serve(1);
    let (parallel_answers, parallel_counters) = serve(4);

    assert_eq!(
        serial_answers, parallel_answers,
        "served logits must be independent of the pool width"
    );

    // A serial pool never dispatches to workers. A 4-wide pool must have
    // actually fanned work out (and the caller always participates) —
    // unless the host has a single core, where the requested width
    // degrades to the pure-inline path with no dispatch at all.
    assert_eq!(serial_counters.worker_tasks, 0);
    // A serial pool has no deques: nothing to steal, split, or park on.
    assert_eq!(
        (
            serial_counters.steals,
            serial_counters.parks,
            serial_counters.splits
        ),
        (0, 0, 0),
        "serial pool must never touch the work-stealing machinery"
    );
    if cores >= 2 {
        assert!(parallel_counters.jobs > 0, "no parallel jobs ran");
        assert!(
            parallel_counters.caller_tasks + parallel_counters.worker_tasks > 0,
            "jobs ran but no tasks were attributed"
        );
        // Stolen work only exists as split-off ranges: a steal without a
        // recorded split would mean the deques invented tasks.
        if parallel_counters.steals > 0 {
            assert!(
                parallel_counters.splits > 0,
                "steals require split-off ranges to exist"
            );
        }
    } else {
        assert_eq!(parallel_counters.jobs, 0, "clamped pool must not dispatch");
        assert_eq!(parallel_counters.worker_tasks, 0);
        assert_eq!(parallel_counters.steals, 0);
        assert!(parallel_counters.inline_jobs > 0, "inline path must run");
    }
}

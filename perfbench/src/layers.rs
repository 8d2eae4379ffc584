//! Per-layer probes of the forward pass (`pim-nn`, `pim-core`, `pim-pe`),
//! timed from outside on the workload's own batch-8 inputs.

use crate::models::{bit_equal, CLASSES};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use pim_core::pe_inference::PeRepNet;
use pim_nn::layers::Layer;
use pim_nn::models::RepNet;
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Adaptor modules named in the per-layer metric set; a model with fewer
/// stages reads 0 for the missing ones.
const MODULES: usize = 3;

/// Times `RepNet::backbone_outputs`, `PeRepNet::predict` and
/// `PeRepNet::conv3_stage_forward` on `batch` (8 of the workload's
/// inputs) for at least `budget`, on a compute pool `pool_width` wide,
/// and reads the modelled PE counts of one predict. Returns whether the
/// predicted logits are bit-equal to `reference` (the served artifact's
/// answers for the same inputs).
pub fn probe(
    model: &RepNet,
    batch: &[Tensor],
    reference: &[Vec<f32>],
    pool_width: usize,
    budget: Duration,
    tracer: &Tracer,
    m: &mut Metrics,
) -> bool {
    let mut model = model.clone();
    let mut branch = PeRepNet::compile(&mut model).expect("benchmark models fit the PEs");
    let pool = Arc::new(WorkPool::new(pool_width));
    branch.attach_pool(Arc::clone(&pool));
    model.attach_pool(&pool);
    let images = batch.len();
    let batch = Tensor::stack_batch(batch).expect("inputs share a shape");

    // The first module's 3x3 stage input: ReLU of the f32 connector over
    // the first backbone tap.
    let taps = model.backbone_outputs(&batch);
    let mut connector = model.modules()[0].connector().clone();
    let mut conv3_input = connector.forward(&taps.taps[0], false);
    for v in conv3_input.as_mut_slice() {
        *v = v.max(0.0);
    }

    // Warm caches and scratch arenas; check the answers once.
    let mut correct = true;
    for _ in 0..3 {
        let (logits, _) = branch.predict(&mut model, &batch);
        correct &= logits
            .as_slice()
            .chunks(CLASSES)
            .zip(reference)
            .all(|(got, want)| bit_equal(got, want));
    }

    // Modelled counts of exactly one predict.
    let before = branch.layer_stats();
    let (_, run) = branch.predict(&mut model, &batch);
    let after = branch.layer_stats();
    let per_image = |v: f64| v / images as f64;
    m.layer(
        "pe.matvecs_per_image",
        per_image(run.matvecs as f64),
        "count",
        1,
    );
    m.layer("pe.macs_per_image", per_image(run.macs as f64), "count", 1);
    m.layer(
        "pe.cycles_per_image",
        per_image(run.cycles as f64),
        "cycles",
        1,
    );
    m.layer(
        "pe.energy_pj_per_image",
        per_image(run.total_energy().as_pj()),
        "pJ",
        1,
    );
    let mut names: Vec<String> = (0..MODULES)
        .flat_map(|i| ["proj", "conv3", "conv1"].map(|l| format!("rep{i}.{l}")))
        .collect();
    names.push("classifier".into());
    for name in names {
        let delta = after
            .iter()
            .zip(&before)
            .find(|((n, _), _)| *n == name)
            .map(|((_, a), (_, b))| a.since(b));
        let (cycles, energy) =
            delta.map_or((0.0, 0.0), |d| (d.cycles as f64, d.total_energy().as_pj()));
        m.layer(format!("pe.{name}.cycles"), cycles, "cycles", 1);
        m.layer(format!("pe.{name}.energy_pj"), energy, "pJ", 1);
    }

    // Host wall time of each call, alternating so drift hits all three.
    let started = Instant::now();
    let mut iters = 0u64;
    while iters < 5 || started.elapsed() < budget {
        let t0 = Instant::now();
        std::hint::black_box(model.backbone_outputs(std::hint::black_box(&batch)));
        let t1 = Instant::now();
        std::hint::black_box(branch.predict(&mut model, std::hint::black_box(&batch)));
        let t2 = Instant::now();
        std::hint::black_box(branch.conv3_stage_forward(std::hint::black_box(&conv3_input)));
        let t3 = Instant::now();
        tracer.record("nn.backbone_outputs", t0, t1, None, Some(iters));
        tracer.record("core.predict", t1, t2, None, Some(iters));
        tracer.record("core.conv3_stage_forward", t2, t3, None, Some(iters));
        iters += 1;
    }
    let backbone = median(&tracer.durations_us("nn.backbone_outputs"));
    let predict = median(&tracer.durations_us("core.predict"));
    let conv3 = median(&tracer.durations_us("core.conv3_stage_forward"));
    m.layer("nn.backbone_us", backbone, "us", iters);
    m.layer("core.predict_us", predict, "us", iters);
    m.layer("core.branch_us", predict - backbone, "us", iters);
    m.layer("core.conv3_us", conv3, "us", iters);
    m.layer("core.backbone_share", backbone / predict, "ratio", iters);
    m.layer(
        "pe.host_ns_per_matvec",
        (predict - backbone) * 1e3 / run.matvecs.max(1) as f64,
        "ns",
        iters,
    );
    correct
}

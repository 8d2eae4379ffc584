//! Model construction, generated inputs and reference answers.
//!
//! Models are fixed (their weights never depend on the workload seed),
//! so set-up does the same work on every run; only the inputs, labels
//! and arrival times come from the seed.

use crate::stats::Rng;
use pim_governor::CompiledModel;
use pim_learn::{LearnEngine, OnlineLearnerConfig, WritePolicy};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_sparse::NmPattern;

/// Classifier outputs of every benchmark model.
pub const CLASSES: usize = 10;

/// Which backbone a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `BackboneConfig::tiny()`: 1×8×8 input, widths 4/8, rep width 4.
    Tiny,
    /// `BackboneConfig::default()`: 3×16×16 input, widths 16/32/64,
    /// two blocks per stage, rep width 8.
    Default,
}

impl Size {
    fn backbone(self) -> BackboneConfig {
        match self {
            Size::Tiny => BackboneConfig::tiny(),
            Size::Default => BackboneConfig::default(),
        }
    }

    /// Per-sample input shape `[C, H, W]`.
    pub fn input_shape(self) -> [usize; 3] {
        let c = self.backbone();
        [c.in_channels, c.image_size, c.image_size]
    }
}

/// A Rep-Net with its adaptor sparsified to the paper's 1:4 pattern.
pub fn repnet(size: Size, seed: u64) -> RepNet {
    let rep_channels = match size {
        Size::Tiny => 4,
        Size::Default => 8,
    };
    let mut model = RepNet::new(
        Backbone::new(size.backbone()),
        RepNetConfig {
            rep_channels,
            num_classes: CLASSES,
            seed,
        },
    );
    model.apply_pattern(NmPattern::one_of_four());
    model
}

/// An online-learning engine over `repnet(size, seed)`; its branch is
/// compiled onto resident SRAM tiles here.
pub fn engine(name: &str, size: Size, seed: u64) -> LearnEngine {
    LearnEngine::new(
        name,
        repnet(size, seed),
        OnlineLearnerConfig {
            replay_capacity: 64,
            batch_size: 8,
            seed,
            ..OnlineLearnerConfig::default()
        },
        WritePolicy::hybrid_dac24(1 << 22),
    )
    .expect("benchmark models fit the PEs")
}

/// The tenant artifact pair: full 1:4 tier and degraded 1:8 tier, from
/// one training state.
pub fn tenant_pair(name: &str, size: Size, seed: u64) -> (CompiledModel, CompiledModel) {
    engine(name, size, seed)
        .compiled_pair(NmPattern::one_of_eight())
        .expect("degraded tier compiles")
}

/// `count` inputs of shape `[1, C, H, W]`, uniform in `[-1, 1)`.
pub fn inputs(rng: &mut Rng, shape: &[usize], count: usize) -> Vec<Tensor> {
    let len: usize = shape.iter().product();
    let mut batched = vec![1];
    batched.extend_from_slice(shape);
    (0..count)
        .map(|_| {
            let data = (0..len).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect();
            Tensor::from_vec(batched.clone(), data).expect("shape matches data")
        })
        .collect()
}

/// `CompiledModel::infer_reference` logits for every input, one row per
/// input.
pub fn references(model: &CompiledModel, inputs: &[Tensor]) -> Vec<Vec<f32>> {
    let batch = Tensor::stack_batch(inputs).expect("inputs share a shape");
    let (logits, _) = model.infer_reference(&batch);
    logits
        .as_slice()
        .chunks(model.num_classes())
        .map(<[f32]>::to_vec)
        .collect()
}

/// Bitwise equality of two logit rows.
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

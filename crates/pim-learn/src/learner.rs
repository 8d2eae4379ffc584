//! The incremental trainer: replay buffer + online SGD steps.
//!
//! Continual learning on-device is a stream, not a dataset: labelled
//! samples trickle in, and each arrival may trigger a small number of
//! optimization steps over a bounded **replay buffer** (the streaming
//! stand-in for an epoch).
//!
//! The backbone is frozen, so a replay sample's backbone output (the
//! per-stage taps and pooled features) cannot change while the sample
//! sits in the buffer. Each entry therefore **memoizes** it — its row of
//! a [`BackboneOutput`], the activation cache every Rep-Net training path
//! reads — the first time a step draws the sample, and every step trains
//! the adaptor from the stacked memos through
//! [`RepNet::predict_from_taps`] — the paper's "saved activation"
//! buffers. A step is one
//! [`pim_nn::train::train_step_with`], the same clear → forward → loss →
//! backprop → SGD body the offline [`pim_nn::train::train_step`] runs, so
//! given the same draws the memoized step is bit-exact with
//! `train_step` on the raw inputs.

use crate::error::LearnError;
use pim_nn::checkpoint::{self, CheckpointError};
use pim_nn::models::{BackboneOutput, RepNet};
use pim_nn::tensor::Tensor;
use pim_nn::train::{train_step_with, Dataset, Sgd, StepStats};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::io::{Read, Write};

/// Hyperparameters of the online trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineLearnerConfig {
    /// Bounded replay capacity; the oldest sample is evicted when full.
    pub replay_capacity: usize,
    /// Samples drawn (with replacement) per training step.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Replay-sampling seed (runs are deterministic per seed).
    pub seed: u64,
}

impl Default for OnlineLearnerConfig {
    fn default() -> Self {
        Self {
            replay_capacity: 256,
            batch_size: 8,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 7,
        }
    }
}

/// One replay-buffer entry.
struct Sample {
    /// The raw `[1, C, H, W]` input.
    input: Tensor,
    label: usize,
    /// The frozen backbone's output for `input` (`[1, ..]` taps and
    /// features); filled the first time a step draws the sample.
    memo: Option<BackboneOutput>,
}

/// Incremental Rep-Net trainer over a labelled sample stream.
///
/// Only the adaptor path and classifier learn — the backbone parameters
/// are frozen inside the [`RepNet`], matching the hybrid deployment where
/// backbone weights sit in write-protected MRAM.
///
/// **Backbone memo.** Each replay sample keeps its frozen-backbone output
/// (a one-row [`BackboneOutput`], split from the batched run with
/// [`BackboneOutput::gather`]) once a step has drawn it, so the backbone
/// runs at most once per sample while the sample stays in the buffer
/// ([`backbone_images`] counts the runs). A step joins the drawn memos
/// with [`BackboneOutput::stack`]. A memo holds one sample's taps and
/// features: 7,232 floats (≈28 KiB) on `BackboneConfig::default()`, so
/// at most `replay_capacity` × that per learner. A memo is dropped with
/// its sample on eviction, and every memo is dropped when the backbone
/// may have changed: by [`model_mut`] and by [`load_checkpoint`].
///
/// [`backbone_images`]: Self::backbone_images
/// [`model_mut`]: Self::model_mut
/// [`load_checkpoint`]: Self::load_checkpoint
pub struct OnlineLearner {
    model: RepNet,
    sgd: Sgd,
    rng: StdRng,
    /// Replay samples, oldest first.
    replay: VecDeque<Sample>,
    config: OnlineLearnerConfig,
    steps: u64,
    samples_observed: u64,
    backbone_images: u64,
}

impl std::fmt::Debug for OnlineLearner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Sgd keeps opaque velocity state; summarize instead of deriving.
        f.debug_struct("OnlineLearner")
            .field("config", &self.config)
            .field("replay_len", &self.replay.len())
            .field("steps", &self.steps)
            .field("samples_observed", &self.samples_observed)
            .field("backbone_images", &self.backbone_images)
            .finish_non_exhaustive()
    }
}

impl OnlineLearner {
    /// Wraps `model` for online training.
    ///
    /// # Panics
    ///
    /// Panics if the config's capacity or batch size is zero.
    pub fn new(model: RepNet, config: OnlineLearnerConfig) -> Self {
        assert!(
            config.replay_capacity > 0,
            "replay capacity must be nonzero"
        );
        assert!(config.batch_size > 0, "batch size must be nonzero");
        Self {
            model,
            sgd: fresh_sgd(&config),
            rng: StdRng::seed_from_u64(config.seed),
            replay: VecDeque::with_capacity(config.replay_capacity),
            config,
            steps: 0,
            samples_observed: 0,
            backbone_images: 0,
        }
    }

    /// Admits one labelled sample (`[C, H, W]` or `[1, C, H, W]`) into
    /// the replay buffer, evicting the oldest (and its memo) when full.
    ///
    /// # Panics
    ///
    /// Panics if the input is not a single sample.
    pub fn observe(&mut self, input: &Tensor, label: usize) {
        let shape = input.shape();
        let input = if shape.len() == 4 && shape[0] == 1 {
            input.clone()
        } else {
            assert_eq!(shape.len(), 3, "expected a [C, H, W] sample, got {shape:?}");
            let mut with_batch = vec![1];
            with_batch.extend_from_slice(shape);
            input
                .reshaped(with_batch)
                .expect("adding a unit batch axis preserves the element count")
        };
        if self.replay.len() == self.config.replay_capacity {
            self.replay.pop_front();
        }
        self.replay.push_back(Sample {
            input,
            label,
            memo: None,
        });
        self.samples_observed += 1;
    }

    /// Streams every sample of `data` through [`observe`](Self::observe)
    /// in index order.
    pub fn observe_dataset(&mut self, data: &Dataset) {
        for i in 0..data.len() {
            let (x, labels) = data.batch(&[i]);
            self.observe(&x, labels[0]);
        }
    }

    /// Performs one incremental training step on a batch drawn (with
    /// replacement) from the replay buffer. Drawn samples without a memo
    /// go through the backbone together, once; the adaptor then trains
    /// from the stacked memos.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::EmptyReplay`] before any sample arrived.
    pub fn step(&mut self) -> Result<StepStats, LearnError> {
        if self.replay.is_empty() {
            return Err(LearnError::EmptyReplay);
        }
        let n = self.config.batch_size.min(self.replay.len());
        let drawn: Vec<usize> = (0..n)
            .map(|_| self.rng.random_range(0..self.replay.len()))
            .collect();
        self.memoize(&drawn);
        let batch = BackboneOutput::stack(
            drawn
                .iter()
                .map(|&i| self.replay[i].memo.as_ref().expect("memoized above")),
        )
        .expect("memos share one shape");
        let labels: Vec<usize> = drawn.iter().map(|&i| self.replay[i].label).collect();
        let stats = train_step_with(&mut self.model, &mut self.sgd, &labels, |model| {
            model.predict_from_taps(&batch.taps, &batch.features, true)
        });
        self.steps += 1;
        Ok(stats)
    }

    /// Runs the backbone once over the drawn samples that have no memo
    /// yet (each distinct sample once) and stores every sample's rows.
    fn memoize(&mut self, drawn: &[usize]) {
        let mut missing: Vec<usize> = drawn
            .iter()
            .copied()
            .filter(|&i| self.replay[i].memo.is_none())
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            return;
        }
        let inputs = Tensor::stack_batch(missing.iter().map(|&i| &self.replay[i].input))
            .expect("replay samples share one shape");
        let out = self.model.backbone_outputs(&inputs);
        self.backbone_images += missing.len() as u64;
        for (row, &i) in missing.iter().enumerate() {
            self.replay[i].memo = Some(out.gather(&[row]));
        }
    }

    /// Drops every backbone memo (the replay samples stay).
    fn forget_memos(&mut self) {
        for sample in &mut self.replay {
            sample.memo = None;
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &RepNet {
        &self.model
    }

    /// Mutable model access. The caller may change the backbone, so this
    /// drops every backbone memo; the next steps recompute them.
    pub fn model_mut(&mut self) -> &mut RepNet {
        self.forget_memos();
        &mut self.model
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Samples observed so far (admitted to replay, including evicted).
    pub fn samples_observed(&self) -> u64 {
        self.samples_observed
    }

    /// Samples currently held in the replay buffer.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Images the learner has run through the backbone so far — one per
    /// memo filled. At most one per sample while it stays in the buffer
    /// and the backbone is unchanged.
    pub fn backbone_images(&self) -> u64 {
        self.backbone_images
    }

    /// Serializes the model parameters and BatchNorm state through
    /// [`pim_nn::checkpoint`]. Optimizer momentum and the backbone memos
    /// are transient and restart cold after a restore.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn save_checkpoint<W: Write>(&mut self, writer: W) -> std::io::Result<()> {
        checkpoint::save(&mut self.model, writer)
    }

    /// Restores model parameters and BatchNorm state saved by
    /// [`save_checkpoint`](Self::save_checkpoint). On success the
    /// optimizer momentum restarts from zero and every backbone memo is
    /// dropped (the restored backbone may differ); the replay samples and
    /// the sampling RNG carry on. On error nothing changes.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointError`] on format or shape mismatch.
    pub fn load_checkpoint<R: Read>(&mut self, reader: R) -> Result<(), CheckpointError> {
        checkpoint::load(&mut self.model, reader)?;
        self.sgd = fresh_sgd(&self.config);
        self.forget_memos();
        Ok(())
    }
}

/// A zero-momentum optimizer with `config`'s hyperparameters.
fn fresh_sgd(config: &OnlineLearnerConfig) -> Sgd {
    Sgd::new(config.lr, config.momentum, config.weight_decay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nn::models::{Backbone, BackboneConfig, RepNetConfig};
    use pim_nn::train::{train_step, Model};
    use pim_sparse::NmPattern;

    fn tiny_learner(seed: u64) -> OnlineLearner {
        let model = RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 3,
                seed: 5,
            },
        );
        OnlineLearner::new(
            model,
            OnlineLearnerConfig {
                replay_capacity: 8,
                batch_size: 4,
                seed,
                ..OnlineLearnerConfig::default()
            },
        )
    }

    fn feed(learner: &mut OnlineLearner, samples: usize) {
        for i in 0..samples {
            let x = Tensor::from_vec(
                vec![1, 8, 8],
                (0..64).map(|v| ((v + i) % 7) as f32 / 7.0).collect(),
            )
            .expect("sample shape");
            learner.observe(&x, i % 3);
        }
    }

    #[test]
    fn step_before_any_sample_is_an_error() {
        let mut learner = tiny_learner(0);
        assert_eq!(learner.step(), Err(LearnError::EmptyReplay));
    }

    #[test]
    fn replay_is_bounded_and_steps_count() {
        let mut learner = tiny_learner(1);
        feed(&mut learner, 20);
        assert_eq!(learner.replay_len(), 8);
        assert_eq!(learner.samples_observed(), 20);
        let stats = learner.step().expect("step");
        assert_eq!(stats.batch, 4);
        assert!(stats.loss.is_finite());
        assert_eq!(learner.steps(), 1);
    }

    #[test]
    fn same_seed_and_stream_is_deterministic() {
        let (mut a, mut b) = (tiny_learner(9), tiny_learner(9));
        feed(&mut a, 10);
        feed(&mut b, 10);
        for _ in 0..3 {
            let (sa, sb) = (a.step().unwrap(), b.step().unwrap());
            assert_eq!(sa, sb);
        }
        let x = Tensor::ones(&[1, 1, 8, 8]);
        assert_eq!(
            a.model_mut().predict(&x, false).as_slice(),
            b.model_mut().predict(&x, false).as_slice()
        );
    }

    #[test]
    fn checkpoint_round_trips_the_model() {
        let mut learner = tiny_learner(3);
        feed(&mut learner, 10);
        for _ in 0..3 {
            learner.step().expect("step");
        }
        let mut saved = Vec::new();
        learner.save_checkpoint(&mut saved).expect("save");
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let reference = learner.model_mut().predict(&x, false);

        // Diverge, then restore.
        for _ in 0..3 {
            learner.step().expect("step");
        }
        assert_ne!(
            learner.model_mut().predict(&x, false).as_slice(),
            reference.as_slice(),
            "training moved the weights"
        );
        learner.load_checkpoint(saved.as_slice()).expect("load");
        assert_eq!(
            learner.model_mut().predict(&x, false).as_slice(),
            reference.as_slice(),
            "restore is bit-exact"
        );
    }

    /// The online step without memos: raw replay inputs and one
    /// `train_step` per step, so the backbone re-runs on every draw. For
    /// the same seed it draws exactly what the learner draws.
    struct Reference {
        model: RepNet,
        sgd: Sgd,
        rng: StdRng,
        replay: VecDeque<(Tensor, usize)>,
        config: OnlineLearnerConfig,
    }

    impl Reference {
        fn new(model: RepNet, config: OnlineLearnerConfig) -> Self {
            Self {
                model,
                sgd: fresh_sgd(&config),
                rng: StdRng::seed_from_u64(config.seed),
                replay: VecDeque::new(),
                config,
            }
        }

        fn observe(&mut self, input: &Tensor, label: usize) {
            if self.replay.len() == self.config.replay_capacity {
                self.replay.pop_front();
            }
            self.replay.push_back((input.clone(), label));
        }

        fn step(&mut self) -> StepStats {
            let n = self.config.batch_size.min(self.replay.len());
            let (inputs, labels): (Vec<Tensor>, Vec<usize>) = (0..n)
                .map(|_| self.replay[self.rng.random_range(0..self.replay.len())].clone())
                .unzip();
            let batch = Tensor::stack_batch(&inputs).expect("one sample shape");
            train_step(&mut self.model, &mut self.sgd, &batch, &labels)
        }

        fn load(&mut self, bytes: &[u8]) {
            checkpoint::load(&mut self.model, bytes).expect("load");
            self.sgd = fresh_sgd(&self.config);
        }
    }

    /// A memoizing learner and its reference over one 1:4-masked model.
    /// The replay holds fewer samples than the tests feed, so samples
    /// (and their memos) are evicted along the way.
    fn memo_pair(backbone: BackboneConfig) -> (OnlineLearner, Reference) {
        let mut model = RepNet::new(
            Backbone::new(backbone),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 3,
                seed: 5,
            },
        );
        model.apply_pattern(NmPattern::one_of_four());
        let config = OnlineLearnerConfig {
            replay_capacity: 6,
            batch_size: 8,
            seed: 11,
            ..OnlineLearnerConfig::default()
        };
        (
            OnlineLearner::new(model.clone(), config),
            Reference::new(model, config),
        )
    }

    /// Feeds both sides `count` identical `[1, C, H, W]` samples.
    fn observe_both(
        learner: &mut OnlineLearner,
        reference: &mut Reference,
        from: usize,
        count: usize,
    ) {
        let cfg = learner.model().backbone().config().clone();
        let shape = [1, cfg.in_channels, cfg.image_size, cfg.image_size];
        for i in from..from + count {
            let x = Tensor::from_fn(&shape, |v| ((v * 7 + i * 13) % 17) as f32 / 17.0 - 0.5);
            learner.observe(&x, i % 3);
            reference.observe(&x, i % 3);
        }
    }

    fn param_bits(model: &mut RepNet) -> Vec<Vec<u32>> {
        let mut bits = Vec::new();
        model.params(&mut |p| bits.push(p.value.as_slice().iter().map(|v| v.to_bits()).collect()));
        bits
    }

    /// Steps both sides once and checks the stats and every parameter bit
    /// for bit.
    fn step_both(learner: &mut OnlineLearner, reference: &mut Reference, what: &str) {
        let memo = learner.step().expect("step");
        let raw = reference.step();
        assert_eq!(memo, raw, "{what}: step stats");
        assert_eq!(memo.loss.to_bits(), raw.loss.to_bits(), "{what}: loss bits");
        assert!(
            param_bits(&mut learner.model) == param_bits(&mut reference.model),
            "{what}: parameters drifted from train_step"
        );
    }

    /// Rounds of observe 4 / step 3 with eviction (capacity 6).
    fn memo_rounds(learner: &mut OnlineLearner, reference: &mut Reference, rounds: usize) {
        for round in 0..rounds {
            observe_both(learner, reference, 4 * round, 4);
            for step in 0..3 {
                step_both(learner, reference, &format!("round {round} step {step}"));
            }
        }
    }

    #[test]
    fn memo_step_is_bit_exact_with_train_step_on_the_tiny_backbone() {
        let (mut learner, mut reference) = memo_pair(BackboneConfig::tiny());
        memo_rounds(&mut learner, &mut reference, 6);
        assert!(learner.backbone_images() <= learner.samples_observed());
    }

    #[test]
    fn memo_step_is_bit_exact_with_train_step_on_the_default_backbone() {
        let (mut learner, mut reference) = memo_pair(BackboneConfig::default());
        memo_rounds(&mut learner, &mut reference, 4);
        assert!(learner.backbone_images() <= learner.samples_observed());
    }

    #[test]
    fn memo_is_dropped_when_the_backbone_is_pruned() {
        let (mut learner, mut reference) = memo_pair(BackboneConfig::tiny());
        memo_rounds(&mut learner, &mut reference, 2);
        let before = learner.backbone_images();
        learner
            .model_mut()
            .backbone_mut()
            .apply_pattern(NmPattern::one_of_four());
        reference
            .model
            .backbone_mut()
            .apply_pattern(NmPattern::one_of_four());
        for step in 0..3 {
            step_both(&mut learner, &mut reference, &format!("pruned step {step}"));
        }
        assert!(learner.backbone_images() > before, "memos were rebuilt");
    }

    #[test]
    fn memo_is_dropped_when_a_checkpoint_brings_another_backbone() {
        let (mut learner, mut reference) = memo_pair(BackboneConfig::tiny());
        memo_rounds(&mut learner, &mut reference, 2);
        let (mut other, _) = memo_pair(BackboneConfig {
            seed: 99,
            ..BackboneConfig::tiny()
        });
        let mut bytes = Vec::new();
        other.save_checkpoint(&mut bytes).expect("save");
        learner.load_checkpoint(bytes.as_slice()).expect("load");
        reference.load(&bytes);
        for step in 0..3 {
            step_both(
                &mut learner,
                &mut reference,
                &format!("restored step {step}"),
            );
        }
    }

    #[test]
    fn restore_restarts_momentum_cold() {
        let (mut learner, mut reference) = memo_pair(BackboneConfig::tiny());
        memo_rounds(&mut learner, &mut reference, 1);
        let mut saved = Vec::new();
        learner.save_checkpoint(&mut saved).expect("save");
        memo_rounds(&mut learner, &mut reference, 1);
        // A restore that kept the abandoned trajectory's velocity.
        let mut stale = Reference {
            model: reference.model.clone(),
            sgd: std::mem::replace(&mut reference.sgd, fresh_sgd(&reference.config)),
            rng: reference.rng.clone(),
            replay: reference.replay.clone(),
            config: reference.config,
        };
        checkpoint::load(&mut stale.model, saved.as_slice()).expect("load");
        learner.load_checkpoint(saved.as_slice()).expect("load");
        reference.load(&saved);
        step_both(&mut learner, &mut reference, "first step after restore");
        stale.step();
        assert!(
            param_bits(&mut stale.model) != param_bits(&mut learner.model),
            "stale momentum would have moved the weights differently"
        );
    }
}

//! The user-facing hybrid continual-learning system.
//!
//! [`HybridSystem`] owns the full paper pipeline:
//!
//! 1. a backbone pretrained on the upstream task (the ImageNet stand-in),
//!    frozen and conceptually resident in **MRAM sparse PEs**;
//! 2. the Rep-Net adaptor path + shared classifier, learnable, conceptually
//!    resident in **SRAM sparse PEs**;
//! 3. N:M structured sparsity applied to the learnable path via the
//!    one-epoch saliency calibration (and to the backbone by magnitude);
//! 4. per-task learning with a fresh classifier head, and both FP32 and
//!    PTQ-INT8 evaluation;
//! 5. architecture-level deployment reports (area, power, EDP) for the
//!    exact network that was trained, and PE-level bit-exactness checks.

use crate::profile::{profile_backbone, profile_repnet};
use crate::verify::{
    verify_conv_on_mram, verify_error_propagation, verify_linear_on_sram, VerifyError, VerifyReport,
};
use pim_arch::mapper::{HybridDeployment, MapError, Mapper};
use pim_data::Task;
use pim_nn::models::{Backbone, BackboneConfig, PretrainNet, RepNet, RepNetConfig};
use pim_nn::train::{evaluate, fit, Dataset, EpochStats, FitConfig, Model};
use pim_sparse::NmPattern;
use std::fmt;

/// Configuration of a hybrid system instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Backbone shape.
    pub backbone: BackboneConfig,
    /// Rep-path channel width.
    pub rep_channels: usize,
    /// N:M pattern for the learnable path (and the backbone). `None` is
    /// the dense Rep-Net baseline.
    pub pattern: Option<NmPattern>,
    /// Seed for rep path / classifier initialization.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            backbone: BackboneConfig::default(),
            rep_channels: 8,
            pattern: Some(NmPattern::one_of_four()),
            seed: 17,
        }
    }
}

/// Result of learning one downstream task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// Task name.
    pub task: String,
    /// Test accuracy of the trained FP32 model.
    pub accuracy_fp32: f64,
    /// Test accuracy after INT8 post-training quantization.
    pub accuracy_int8: f64,
    /// Training curve.
    pub history: Vec<EpochStats>,
    /// Fraction of parameters that trained.
    pub learnable_fraction: f64,
}

impl fmt::Display for TaskReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: fp32 {:.2}%, int8 {:.2}% ({:.1}% of weights trained)",
            self.task,
            100.0 * self.accuracy_fp32,
            100.0 * self.accuracy_int8,
            100.0 * self.learnable_fraction
        )
    }
}

/// The hybrid MRAM-SRAM sparse PIM continual learner.
pub struct HybridSystem {
    model: RepNet,
    config: SystemConfig,
    upstream_reference: Option<PretrainNet>,
    mapper: Mapper,
}

impl HybridSystem {
    /// Pretrains a backbone on `upstream` and assembles the system around
    /// it. If the config carries a pattern, the backbone is magnitude-pruned
    /// after pretraining (the paper's PTQ + N:M assessment of the frozen
    /// branch).
    pub fn pretrain(config: SystemConfig, upstream: &Task, fit_cfg: &FitConfig) -> Self {
        let backbone = Backbone::new(config.backbone.clone());
        let mut net = PretrainNet::new(backbone, upstream.train.classes(), config.seed);
        fit(&mut net, &upstream.train, fit_cfg);
        let mut system = Self::with_pretrained(config, net);
        // Pruning shifts activation statistics; restore the frozen BN
        // calibration on the upstream data (weights stay untouched).
        system.recalibrate_backbone(&upstream.train);
        system
    }

    /// Assembles the system around an already-pretrained backbone wrapper
    /// (keeps the upstream head for the `backbone@upstream` metric).
    pub fn with_pretrained(config: SystemConfig, pretrained: PretrainNet) -> Self {
        let mut system = Self::with_backbone(config, pretrained.backbone().clone());
        system.upstream_reference = Some(pretrained);
        system
    }

    /// Builds a system around an explicit backbone with no upstream head
    /// (e.g. from a checkpoint).
    pub fn with_backbone(config: SystemConfig, mut backbone: Backbone) -> Self {
        if let Some(pattern) = config.pattern {
            backbone.apply_pattern(pattern);
        }
        let model = RepNet::new(
            backbone,
            RepNetConfig {
                rep_channels: config.rep_channels,
                num_classes: 2, // replaced per task
                seed: config.seed,
            },
        );
        Self {
            model,
            config,
            upstream_reference: None,
            mapper: Mapper::dac24(),
        }
    }

    /// Re-estimates the frozen backbone's BatchNorm running statistics on
    /// `data` (a must after N:M pruning — see
    /// [`Backbone::recalibrate_bn`]). Weights are untouched.
    pub fn recalibrate_backbone(&mut self, data: &Dataset) {
        if self.config.pattern.is_some() {
            self.model.backbone_mut().recalibrate_bn(data, 32, 20);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The underlying model.
    pub fn model(&self) -> &RepNet {
        &self.model
    }

    /// Mutable access to the underlying model.
    pub fn model_mut(&mut self) -> &mut RepNet {
        &mut self.model
    }

    /// Accuracy of the frozen backbone (with its N:M / PTQ treatment) on
    /// the upstream task — the paper's `backbone@imagenet` column. Returns
    /// `None` when the system was built without the upstream head, and the
    /// accuracies as `(fp32, int8)` otherwise.
    pub fn upstream_accuracy(&self, upstream_test: &Dataset) -> Option<(f64, f64)> {
        let reference = self.upstream_reference.as_ref()?;
        // FP32 with the treated backbone: swap in this system's backbone.
        let mut treated = reference.clone();
        *treated.backbone_mut() = self.model.backbone().clone();
        let fp32 = evaluate(&mut treated, upstream_test, 64);
        treated.backbone_mut().quantize_weights_int8();
        let int8 = evaluate(&mut treated, upstream_test, 64);
        Some((fp32, int8))
    }

    /// Learns one downstream task: resets the classifier head, applies the
    /// one-epoch saliency calibration + N:M pruning (if configured),
    /// fine-tunes the rep path, and evaluates FP32 and PTQ-INT8 accuracy.
    ///
    /// The train split goes through the frozen backbone once
    /// ([`RepNet::backbone_cache`]); calibration and every epoch read
    /// that cache. The test split is evaluated on raw inputs: the INT8
    /// clone quantizes the backbone weights too, so FP32 activations
    /// would not match it.
    pub fn learn_task(&mut self, task: &Task, fit_cfg: &FitConfig) -> TaskReport {
        self.model
            .reset_classifier(task.train.classes(), self.config.seed.wrapping_add(1));
        self.model.set_int8_eval(false);
        let cache = self.model.backbone_cache(&task.train);
        let labels = task.train.labels();
        if let Some(pattern) = self.config.pattern {
            self.model
                .calibrate_and_prune(&cache, labels, fit_cfg.batch_size, pattern);
        }
        let history = self.model.fit_cached(&cache, labels, fit_cfg);
        drop(cache);
        let accuracy_fp32 = evaluate(&mut self.model, &task.test, 64);

        // PTQ evaluation on a quantized clone (training state untouched).
        let mut quantized = self.model.clone();
        quantized.quantize_weights_int8();
        quantized.set_int8_eval(true);
        let accuracy_int8 = evaluate(&mut quantized, &task.test, 64);

        TaskReport {
            task: task.name.clone(),
            accuracy_fp32,
            accuracy_int8,
            history,
            learnable_fraction: self.model.learnable_fraction(),
        }
    }

    /// Clones the current task's classifier head (for later re-evaluation
    /// of an earlier task — each task owns its head in Rep-Net).
    pub fn snapshot_head(&self) -> pim_nn::sparse::SparseLinear {
        self.model.classifier().clone()
    }

    /// Evaluates `data` with a previously snapshotted head while keeping
    /// the *current* shared rep-path weights — the interference (a.k.a.
    /// forgetting) measurement for the shared adaptor. The active head is
    /// restored afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the head's output width differs from the dataset's class
    /// count.
    pub fn evaluate_with_head(
        &mut self,
        head: &pim_nn::sparse::SparseLinear,
        data: &Dataset,
    ) -> f64 {
        assert_eq!(
            head.inner().out_features(),
            data.classes(),
            "head does not match the task"
        );
        let current = self.model.classifier().clone();
        self.model.set_classifier(head.clone());
        let accuracy = evaluate(&mut self.model, data, 64);
        self.model.set_classifier(current);
        accuracy
    }

    /// Classifies a batch, returning predicted labels.
    pub fn infer(&mut self, inputs: &pim_nn::Tensor) -> Vec<usize> {
        let logits = self.model.predict(inputs, false);
        pim_nn::layers::predictions(&logits)
    }

    /// Architecture-level deployment of this exact system: the backbone
    /// profile mapped to MRAM sparse PEs, the rep path to SRAM sparse PEs.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if a profile is empty (cannot happen for a
    /// constructed system).
    pub fn deployment(&self) -> Result<HybridDeployment, MapError> {
        let pattern = self
            .config
            .pattern
            .unwrap_or_else(|| NmPattern::new(4, 4).expect("dense encoding"));
        let backbone = profile_backbone(self.model.backbone());
        let repnet = profile_repnet(&self.model);
        self.mapper.map_hybrid(&backbone, &repnet, pattern)
    }

    /// Verifies every learnable layer of the current model bit-exactly on
    /// the cycle-level PEs (rep convolutions on MRAM and SRAM semantics,
    /// classifier on SRAM, error propagation through the transposed
    /// buffer).
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] encountered.
    pub fn verify_on_pes(&self) -> Result<Vec<VerifyReport>, VerifyError> {
        let mut reports = Vec::new();
        for (i, module) in self.model.modules().iter().enumerate() {
            let [conv3, conv1] = module.sparse_convs();
            reports.push(verify_conv_on_mram(
                &format!("rep{i}.conv3"),
                conv3,
                40 + i as u64,
            )?);
            reports.push(verify_conv_on_mram(
                &format!("rep{i}.conv1"),
                conv1,
                80 + i as u64,
            )?);
        }
        reports.push(verify_linear_on_sram(
            "classifier",
            self.model.classifier(),
            7,
        )?);
        reports.push(verify_error_propagation(
            "classifier",
            self.model.classifier(),
            8,
        )?);
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_data::SyntheticSpec;

    fn tiny_config(pattern: Option<NmPattern>) -> SystemConfig {
        SystemConfig {
            backbone: BackboneConfig {
                in_channels: 3,
                image_size: 8,
                stage_widths: vec![8, 16],
                blocks_per_stage: 1,
                seed: 1,
            },
            rep_channels: 4,
            pattern,
            seed: 5,
        }
    }

    fn tiny_fit() -> FitConfig {
        FitConfig {
            epochs: 10,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 3,
        }
    }

    fn upstream() -> Task {
        SyntheticSpec::upstream_pretraining()
            .with_geometry(8, 3)
            .with_samples(10, 5)
            .generate()
            .expect("valid spec")
    }

    #[test]
    fn end_to_end_learning_beats_chance() {
        let up = upstream();
        let mut system = HybridSystem::pretrain(
            tiny_config(Some(NmPattern::one_of_four())),
            &up,
            &tiny_fit(),
        );
        let task = SyntheticSpec::cifar10_like()
            .with_geometry(8, 3)
            .with_samples(8, 4)
            .with_difficulty(0.4)
            .generate()
            .expect("valid spec");
        let report = system.learn_task(&task, &tiny_fit());
        assert!(
            report.accuracy_fp32 > 0.25,
            "10-class accuracy {}",
            report.accuracy_fp32
        );
        // INT8 stays within a reasonable band of FP32.
        assert!(report.accuracy_int8 > report.accuracy_fp32 - 0.25);
        // Rep path is a minority of the parameters.
        assert!(report.learnable_fraction < 0.75);
    }

    #[test]
    fn upstream_accuracy_reports_backbone_quality() {
        let up = upstream();
        let system = HybridSystem::pretrain(tiny_config(None), &up, &tiny_fit());
        let (fp32, int8) = system.upstream_accuracy(&up.test).expect("head retained");
        assert!(fp32 > 1.0 / 16.0, "beats 16-class chance: {fp32}");
        assert!(int8 > fp32 - 0.3);
    }

    #[test]
    fn sparse_system_prunes_learnable_path() {
        let up = upstream();
        let mut system = HybridSystem::pretrain(
            tiny_config(Some(NmPattern::one_of_eight())),
            &up,
            &tiny_fit(),
        );
        let task = SyntheticSpec::cifar10_like()
            .with_geometry(8, 3)
            .with_samples(4, 2)
            .generate()
            .expect("valid spec");
        system.learn_task(&task, &tiny_fit());
        for module in system.model().modules() {
            for conv in module.sparse_convs() {
                // Bound accounts for partial tail groups.
                let mask = conv.mask().expect("pattern applied");
                let (rows, _) = mask.shape();
                let pattern = mask.pattern();
                let bound = pattern.groups_for(rows) as f64 * pattern.n() as f64 / rows as f64;
                assert!(
                    conv.density() <= bound + 1e-9,
                    "{} > {bound}",
                    conv.density()
                );
            }
        }
    }

    #[test]
    fn deployment_report_is_consistent() {
        let up = upstream();
        let system = HybridSystem::pretrain(
            tiny_config(Some(NmPattern::one_of_four())),
            &up,
            &tiny_fit(),
        );
        let dep = system.deployment().expect("mappable");
        assert!(dep.mram.pe_count > 0);
        assert!(dep.sram.pe_count > 0);
        assert!(dep.total_area().as_mm2() > 0.0);
        // Backbone storage dwarfs the rep path.
        assert!(dep.mram.storage_bits > dep.sram.storage_bits);
    }

    #[test]
    fn trained_system_verifies_bit_exactly_on_pes() {
        let up = upstream();
        let mut system = HybridSystem::pretrain(
            tiny_config(Some(NmPattern::one_of_four())),
            &up,
            &tiny_fit(),
        );
        let task = SyntheticSpec::cifar10_like()
            .with_geometry(8, 3)
            .with_samples(4, 2)
            .generate()
            .expect("valid spec");
        system.learn_task(&task, &tiny_fit());
        let reports = system.verify_on_pes().expect("all layers verify");
        assert!(!reports.is_empty());
        for report in &reports {
            assert!(report.is_exact(), "{report}");
        }
    }

    #[test]
    fn infer_produces_one_label_per_item() {
        let up = upstream();
        let mut system = HybridSystem::pretrain(tiny_config(None), &up, &tiny_fit());
        let task = SyntheticSpec::cifar10_like()
            .with_geometry(8, 3)
            .with_samples(2, 2)
            .generate()
            .expect("valid spec");
        system.learn_task(&task, &tiny_fit());
        let (batch, _) = task.test.batch(&[0, 1, 2]);
        let labels = system.infer(&batch);
        assert_eq!(labels.len(), 3);
        assert!(labels.iter().all(|&l| l < 10));
    }

    /// `learn_task` without the backbone cache: per-batch `predict` on raw
    /// inputs for the calibration, then the saliency prune, then `fit`,
    /// then the same evaluations.
    fn raw_input_learn_task(
        model: &mut RepNet,
        config: &SystemConfig,
        task: &Task,
        fit_cfg: &FitConfig,
    ) -> TaskReport {
        model.reset_classifier(task.train.classes(), config.seed.wrapping_add(1));
        model.set_int8_eval(false);
        if let Some(pattern) = config.pattern {
            model.clear_grads();
            let indices: Vec<usize> = (0..task.train.len()).collect();
            for chunk in indices.chunks(fit_cfg.batch_size) {
                let (x, labels) = task.train.batch(chunk);
                let logits = model.predict(&x, true);
                let (_, grad) = pim_nn::layers::softmax_cross_entropy(&logits, &labels);
                model.backprop(&grad);
            }
            model.apply_saliency_pattern(pattern);
        }
        let history = fit(model, &task.train, fit_cfg);
        let accuracy_fp32 = evaluate(model, &task.test, 64);
        let mut quantized = model.clone();
        quantized.quantize_weights_int8();
        quantized.set_int8_eval(true);
        let accuracy_int8 = evaluate(&mut quantized, &task.test, 64);
        TaskReport {
            task: task.name.clone(),
            accuracy_fp32,
            accuracy_int8,
            history,
            learnable_fraction: model.learnable_fraction(),
        }
    }

    /// Every float of a report, as bits.
    fn report_bits(report: &TaskReport) -> Vec<u64> {
        let mut bits = vec![
            report.accuracy_fp32.to_bits(),
            report.accuracy_int8.to_bits(),
            report.learnable_fraction.to_bits(),
        ];
        for epoch in &report.history {
            bits.push(u64::from(epoch.loss.to_bits()));
            bits.push(epoch.accuracy.to_bits());
        }
        bits
    }

    fn param_bits(model: &mut RepNet) -> Vec<Vec<u32>> {
        let mut bits = Vec::new();
        model.params(&mut |p| bits.push(p.value.as_slice().iter().map(|v| v.to_bits()).collect()));
        bits
    }

    /// Two tasks in sequence through `learn_task` and through the
    /// raw-input reference, dense and 1:4, compared bit for bit.
    fn assert_cached_learn_task_is_bit_exact(backbone: BackboneConfig) {
        let (size, channels) = (backbone.image_size, backbone.in_channels);
        let tasks: Vec<Task> = [SyntheticSpec::cifar10_like(), SyntheticSpec::pets_like()]
            .into_iter()
            .map(|spec| {
                spec.with_geometry(size, channels)
                    .with_samples(3, 2)
                    .generate()
                    .expect("valid spec")
            })
            .collect();
        let fit_cfg = FitConfig {
            epochs: 2,
            ..tiny_fit()
        };
        for pattern in [None, Some(NmPattern::one_of_four())] {
            let config = SystemConfig {
                backbone: backbone.clone(),
                rep_channels: 4,
                pattern,
                seed: 5,
            };
            let mut system =
                HybridSystem::with_backbone(config.clone(), Backbone::new(backbone.clone()));
            let mut reference = system.model().clone();
            for task in &tasks {
                let cached = system.learn_task(task, &fit_cfg);
                let raw = raw_input_learn_task(&mut reference, &config, task, &fit_cfg);
                let what = format!("{pattern:?} {}", task.name);
                assert_eq!(cached.history.len(), fit_cfg.epochs, "{what}");
                assert_eq!(report_bits(&cached), report_bits(&raw), "{what}: report");
                assert_eq!(cached.task, raw.task);
                assert!(
                    param_bits(system.model_mut()) == param_bits(&mut reference),
                    "{what}: parameters drifted from raw-input training"
                );
            }
        }
    }

    #[test]
    fn cached_learn_task_is_bit_exact_with_raw_input_training_on_the_tiny_backbone() {
        assert_cached_learn_task_is_bit_exact(BackboneConfig::tiny());
    }

    #[test]
    fn cached_learn_task_is_bit_exact_with_raw_input_training_on_the_table1_backbone() {
        assert_cached_learn_task_is_bit_exact(crate::experiments::Table1Config::quick().backbone);
    }
}

//! Table 1 — continual-learning accuracy across sparsity and precision.
//!
//! Reproduces the paper's grid: rows {Dense Rep-Net FP32, Sparse 1:8
//! FP32/INT8, Sparse 1:4 FP32/INT8}, columns {backbone@upstream, the five
//! downstream tasks}. The backbone is pretrained once on the synthetic
//! upstream task; each sparse configuration prunes a backbone copy by
//! magnitude (the paper's PTQ + N:M assessment) and selects Rep-Net masks
//! with the one-epoch saliency calibration before fine-tuning.
//!
//! Training uses the frozen backbone's **cached activations** (the paper's
//! saved-activation buffers): the backbone runs once per dataset and the
//! rep path trains from the cache, which is numerically identical to the
//! full forward because the backbone never updates.
//!
//! Expected shape (paper): dense ≥ 1:4 ≳ 1:8; INT8 within ~2% of FP32;
//! higher sparsity costs more backbone accuracy (1:8 drops >5%, 1:4
//! ~1.5%).

use crate::system::{HybridSystem, SystemConfig};
use pim_data::{downstream_suite, SyntheticSpec, Task};
use pim_nn::layers::predictions;
use pim_nn::models::{Backbone, BackboneConfig, PretrainNet, RepNet};
use pim_nn::tensor::Tensor;
use pim_nn::train::{fit, train_step_with, Dataset, FitConfig, Model, Sgd};
use pim_sparse::NmPattern;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Configuration for the Table 1 run.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Backbone shape (datasets are generated at its geometry).
    pub backbone: BackboneConfig,
    /// Rep-path width.
    pub rep_channels: usize,
    /// Upstream pretraining schedule.
    pub upstream_fit: FitConfig,
    /// Per-task fine-tuning schedule.
    pub task_fit: FitConfig,
    /// Train samples per class for the downstream tasks.
    pub train_per_class: usize,
    /// Test samples per class for the downstream tasks.
    pub test_per_class: usize,
    /// Sparse configurations evaluated after the dense reference row
    /// (each contributes an FP32 and an INT8 row).
    pub patterns: Vec<NmPattern>,
    /// Master seed.
    pub seed: u64,
}

impl Default for Table1Config {
    /// The full experiment (minutes of CPU time).
    fn default() -> Self {
        Self {
            backbone: BackboneConfig::default(),
            rep_channels: 8,
            upstream_fit: FitConfig {
                epochs: 10,
                batch_size: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 1,
            },
            task_fit: FitConfig {
                epochs: 8,
                batch_size: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 2,
            },
            train_per_class: 8,
            test_per_class: 4,
            patterns: vec![NmPattern::one_of_eight(), NmPattern::one_of_four()],
            seed: 42,
        }
    }
}

impl Table1Config {
    /// A fast configuration for tests (seconds of CPU time).
    pub fn quick() -> Self {
        Self {
            backbone: BackboneConfig {
                in_channels: 3,
                image_size: 8,
                stage_widths: vec![8, 16],
                blocks_per_stage: 1,
                seed: 1,
            },
            rep_channels: 4,
            upstream_fit: FitConfig {
                epochs: 3,
                batch_size: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 1,
            },
            task_fit: FitConfig {
                epochs: 3,
                batch_size: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 2,
            },
            train_per_class: 3,
            test_per_class: 2,
            patterns: vec![NmPattern::one_of_eight(), NmPattern::one_of_four()],
            seed: 42,
        }
    }

    /// The paper grid plus NVIDIA's 2:4 pattern as an extension row.
    pub fn extended() -> Self {
        Self {
            patterns: vec![
                NmPattern::one_of_eight(),
                NmPattern::one_of_four(),
                NmPattern::two_of_four(),
            ],
            ..Self::default()
        }
    }
}

/// One row of the accuracy grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Row label, e.g. `"Sparse RepNet (1:4) INT8"`.
    pub label: String,
    /// `backbone@upstream` accuracy under this row's treatment.
    pub backbone_accuracy: f64,
    /// Accuracy per downstream dataset (column order of
    /// [`pim_data::downstream_suite`]).
    pub dataset_accuracy: Vec<f64>,
}

/// The regenerated Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Dataset column names.
    pub datasets: Vec<String>,
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Looks up a row by label substring.
    pub fn row(&self, label: &str) -> Option<&Table1Row> {
        self.rows.iter().find(|r| r.label.contains(label))
    }

    /// Renders the grid as CSV (fractions, not percentages) for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("configure,backbone");
        for d in &self.datasets {
            out.push(',');
            out.push_str(d);
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.label);
            out.push_str(&format!(",{:.4}", row.backbone_accuracy));
            for &a in &row.dataset_accuracy {
                out.push_str(&format!(",{a:.4}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: Accuracy Evaluation Result")?;
        write!(f, "{:<28} {:>16}", "Configure", "backbone@up")?;
        for d in &self.datasets {
            write!(f, " {d:>12}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(
                f,
                "{:<28} {:>15.2}%",
                row.label,
                100.0 * row.backbone_accuracy
            )?;
            for &acc in &row.dataset_accuracy {
                write!(f, " {:>11.2}%", 100.0 * acc)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Gathers batch rows of a batch-first tensor.
fn gather(t: &Tensor, indices: &[usize]) -> Tensor {
    let items: Vec<Tensor> = indices.iter().map(|&i| t.batch_item(i)).collect();
    Tensor::stack_batch(&items).expect("uniform item shapes")
}

/// Trains the rep path from cached backbone activations — numerically
/// identical to full-forward training because the backbone is frozen.
fn train_rep_cached(model: &mut RepNet, data: &Dataset, fit_cfg: &FitConfig) {
    // Precompute taps and features over the whole training set.
    let n = data.len();
    let mut tap_chunks: Vec<Vec<Tensor>> = Vec::new();
    let mut feat_chunks: Vec<Tensor> = Vec::new();
    let all: Vec<usize> = (0..n).collect();
    for chunk in all.chunks(64) {
        let (x, _) = data.batch(chunk);
        let out = model.backbone_outputs(&x);
        tap_chunks.push(out.taps);
        feat_chunks.push(out.features);
    }
    let num_taps = tap_chunks[0].len();
    let taps: Vec<Tensor> = (0..num_taps)
        .map(|t| {
            let parts: Vec<Tensor> = tap_chunks.iter().map(|c| c[t].clone()).collect();
            Tensor::stack_batch(&parts).expect("uniform tap shapes")
        })
        .collect();
    let features = Tensor::stack_batch(&feat_chunks).expect("uniform feature shapes");

    let mut sgd = Sgd::new(fit_cfg.lr, fit_cfg.momentum, fit_cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(fit_cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..fit_cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(fit_cfg.batch_size) {
            let tap_batch: Vec<Tensor> = taps.iter().map(|t| gather(t, chunk)).collect();
            let feat_batch = gather(&features, chunk);
            let labels: Vec<usize> = chunk.iter().map(|&i| data.labels()[i]).collect();
            train_step_with(model, &mut sgd, &labels, |m| {
                m.predict_from_taps(&tap_batch, &feat_batch, true)
            });
        }
    }
}

/// Evaluates accuracy with a full forward (used for test splits, which are
/// small).
fn test_accuracy(model: &mut RepNet, data: &Dataset) -> f64 {
    let indices: Vec<usize> = (0..data.len()).collect();
    let mut correct = 0;
    for chunk in indices.chunks(64) {
        let (x, labels) = data.batch(chunk);
        let logits = model.predict(&x, false);
        correct += predictions(&logits)
            .iter()
            .zip(&labels)
            .filter(|(p, l)| p == l)
            .count();
    }
    correct as f64 / data.len() as f64
}

/// Runs the full Table 1 experiment.
pub fn run_table1(cfg: &Table1Config) -> Table1 {
    // Upstream pretraining (once).
    let upstream = SyntheticSpec::upstream_pretraining()
        .with_geometry(cfg.backbone.image_size, cfg.backbone.in_channels)
        .generate()
        .expect("valid upstream spec");
    let mut pretrained = PretrainNet::new(
        Backbone::new(cfg.backbone.clone()),
        upstream.train.classes(),
        cfg.seed,
    );
    fit(&mut pretrained, &upstream.train, &cfg.upstream_fit);

    // Downstream tasks (once, shared across configurations).
    let tasks: Vec<Task> = downstream_suite()
        .into_iter()
        .map(|spec| {
            spec.with_geometry(cfg.backbone.image_size, cfg.backbone.in_channels)
                .with_samples(cfg.train_per_class, cfg.test_per_class)
                .generate()
                .expect("valid downstream spec")
        })
        .collect();
    let datasets: Vec<String> = tasks.iter().map(|t| t.name.clone()).collect();

    let mut rows = Vec::new();
    let mut configs: Vec<(String, Option<NmPattern>)> = vec![("Dense RepNet".to_owned(), None)];
    configs.extend(
        cfg.patterns
            .iter()
            .map(|&p| (format!("Sparse RepNet ({p})"), Some(p))),
    );
    for (label, pattern) in configs {
        let system_cfg = SystemConfig {
            backbone: cfg.backbone.clone(),
            rep_channels: cfg.rep_channels,
            pattern,
            seed: cfg.seed,
        };
        let mut system = HybridSystem::with_pretrained(system_cfg, pretrained.clone());
        system.recalibrate_backbone(&upstream.train);
        let (backbone_fp32, backbone_int8) = system
            .upstream_accuracy(&upstream.test)
            .expect("upstream head retained");

        let mut fp32_accs = Vec::new();
        let mut int8_accs = Vec::new();
        for task in &tasks {
            let model = system.model_mut();
            model.reset_classifier(task.train.classes(), cfg.seed.wrapping_add(1));
            model.set_int8_eval(false);
            if let Some(p) = pattern {
                model.calibrate_and_prune(&task.train, cfg.task_fit.batch_size, p);
            }
            train_rep_cached(model, &task.train, &cfg.task_fit);
            fp32_accs.push(test_accuracy(model, &task.test));
            let mut quantized = model.clone();
            quantized.quantize_weights_int8();
            quantized.set_int8_eval(true);
            int8_accs.push(test_accuracy(&mut quantized, &task.test));
        }

        rows.push(Table1Row {
            label: format!("{label} FP32"),
            backbone_accuracy: backbone_fp32,
            dataset_accuracy: fp32_accs,
        });
        if pattern.is_some() {
            rows.push(Table1Row {
                label: format!("{label} INT8"),
                backbone_accuracy: backbone_int8,
                dataset_accuracy: int8_accs,
            });
        }
    }

    Table1 { datasets, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_has_paper_structure_and_shape() {
        let table = run_table1(&Table1Config::quick());
        assert_eq!(table.datasets.len(), 5);
        assert_eq!(table.rows.len(), 5, "dense + 2 sparse × 2 precisions");
        assert!(table.row("Dense").is_some());
        assert!(table.row("(1:8) INT8").is_some());

        // Dense backbone accuracy ≥ sparse backbone accuracy (pruning can
        // only hurt the frozen branch).
        let dense_bb = table.row("Dense").unwrap().backbone_accuracy;
        let sparse18_bb = table.row("(1:8) FP32").unwrap().backbone_accuracy;
        assert!(
            dense_bb >= sparse18_bb - 0.05,
            "dense {dense_bb} vs 1:8 {sparse18_bb}"
        );

        // Every accuracy is a valid probability and beats nothing-learned
        // (0) on at least one dataset for the dense row.
        for row in &table.rows {
            for &a in &row.dataset_accuracy {
                assert!((0.0..=1.0).contains(&a));
            }
        }
        let dense_row = table.row("Dense").unwrap();
        assert!(dense_row.dataset_accuracy.iter().any(|&a| a > 0.05));
    }

    #[test]
    fn display_renders_all_rows_and_columns() {
        let table = run_table1(&Table1Config::quick());
        let s = table.to_string();
        assert!(s.contains("flowers102"));
        assert!(s.contains("cifar100"));
        assert!(s.contains("Dense RepNet FP32"));
        assert!(s.contains("Sparse RepNet (1:4) INT8"));
        assert!(s.contains('%'));
    }
}

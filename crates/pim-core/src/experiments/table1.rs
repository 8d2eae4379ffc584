//! Table 1 — continual-learning accuracy across sparsity and precision.
//!
//! Reproduces the paper's grid: rows {Dense Rep-Net FP32, Sparse 1:8
//! FP32/INT8, Sparse 1:4 FP32/INT8}, columns {backbone@upstream, the five
//! downstream tasks}. The backbone is pretrained once on the synthetic
//! upstream task; each configuration is a [`HybridSystem`] around a copy
//! of it, whose sparse variants prune the copy by magnitude (the paper's
//! PTQ + N:M assessment). Every downstream task is one
//! [`HybridSystem::learn_task`]: fresh head, one-epoch saliency
//! calibration (sparse rows), fine-tuning, FP32 and PTQ-INT8 test
//! accuracy.
//!
//! Training reads the frozen backbone's **cached activations** (the
//! paper's saved-activation buffers): `learn_task` runs the backbone once
//! over each train split, and calibration and every epoch train the rep
//! path from that cache, bit-exactly as a full forward would because the
//! backbone never updates.
//!
//! Expected shape (paper): dense ≥ 1:4 ≳ 1:8; INT8 within ~2% of FP32;
//! higher sparsity costs more backbone accuracy (1:8 drops >5%, 1:4
//! ~1.5%).

use crate::system::{HybridSystem, SystemConfig};
use pim_data::{downstream_suite, SyntheticSpec, Task};
use pim_nn::models::{Backbone, BackboneConfig, PretrainNet};
use pim_nn::train::{fit, FitConfig};
use pim_sparse::NmPattern;
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

        let (fp32_accs, int8_accs): (Vec<f64>, Vec<f64>) = tasks
            .iter()
            .map(|task| {
                let report = system.learn_task(task, &cfg.task_fit);
                (report.accuracy_fp32, report.accuracy_int8)
            })
            .unzip();

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

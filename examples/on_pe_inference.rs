//! Runs a trained Rep-Net's learnable branch end-to-end on the
//! cycle-level SRAM PEs and compares against the NN-side INT8 model.
//!
//! Run with: `cargo run --release --example on_pe_inference`

use pim_core::pe_inference::PeRepNet;
use pim_core::{HybridSystem, SystemConfig};
use pim_data::SyntheticSpec;
use pim_nn::layers::predictions;
use pim_nn::models::BackboneConfig;
use pim_nn::train::{FitConfig, Model};
use pim_sparse::NmPattern;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let fit = FitConfig {
        epochs: 10,
        batch_size: 32,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 3,
    };
    let upstream = SyntheticSpec::upstream_pretraining()
        .with_geometry(8, 3)
        .generate()?;
    let mut system = HybridSystem::pretrain(
        SystemConfig {
            backbone: BackboneConfig {
                in_channels: 3,
                image_size: 8,
                stage_widths: vec![8, 16],
                blocks_per_stage: 1,
                seed: 1,
            },
            rep_channels: 4,
            pattern: Some(NmPattern::new(1, 4)?),
            seed: 7,
        },
        &upstream,
        &fit,
    );
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 3)
        .with_samples(10, 8)
        .generate()?;
    let report = system.learn_task(&task, &fit);
    println!("trained model: {report}");

    println!("\n== compiling the learnable branch onto SRAM PEs ==");
    let mut compiled = PeRepNet::compile(system.model())?;
    println!("{compiled}");

    let indices: Vec<usize> = (0..task.test.len()).collect();
    let (x, labels) = task.test.batch(&indices);
    let (pe_preds, stats) = compiled.classify(system.model_mut(), &x);
    let pe_correct = pe_preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
    println!(
        "\nPE-executed accuracy: {:.2}% over {} samples",
        100.0 * pe_correct as f64 / labels.len() as f64,
        labels.len()
    );
    println!(
        "PE work: {} matvecs, {} total tile-cycles",
        stats.matvecs, stats.cycles
    );

    // Agreement with the NN-side INT8 reference.
    let mut quantized = system.model().clone();
    quantized.quantize_weights_int8();
    quantized.set_int8_eval(true);
    let nn_preds = predictions(&quantized.predict(&x, false));
    let agree = pe_preds
        .iter()
        .zip(&nn_preds)
        .filter(|(a, b)| a == b)
        .count();
    println!(
        "agreement with quantized NN reference: {:.1}%",
        100.0 * agree as f64 / labels.len() as f64
    );
    Ok(())
}

//! Design-space exploration: sweep, prune, write `TUNED.json`.
//!
//! Enumerates the dac24 neighborhood of the architecture grid (N:M
//! pattern × SRAM tile × weight precision), evaluates every valid point
//! with the analytic `pim-arch` roll-up, prunes to the {latency, energy,
//! area, EDP} Pareto frontier, and writes the result as `TUNED.json`.
//! Each frontier row also shows the inference power split (leakage vs
//! read) and the EDP of one continual-learning training step.
//!
//! Every input is deterministic, so the written file is byte-identical
//! across runs and machines; CI fails when it differs from the committed
//! copy.
//!
//! Run with: `cargo run --release --example dse`

use pim_arch::edp::hybrid_training_step;
use pim_dse::{run_sweep, SweepSpace, TunedDoc, Workload};
use pim_telemetry::TelemetryRegistry;
use std::path::Path;

fn main() {
    println!("=== pim-dse: design-space exploration ===\n");

    // -- Sweep -------------------------------------------------------------
    let space = SweepSpace::dac24_neighborhood();
    let workload = Workload::resnet50_repnet();
    let registry = TelemetryRegistry::new();
    println!(
        "sweeping {} grid points on `{}`...",
        space.grid_size(),
        workload.name
    );
    let outcome = run_sweep(&space, &workload, &registry).expect("sweep of the dac24 neighborhood");
    println!(
        "evaluated {} valid points ({} invalid), frontier size {}\n",
        outcome.evaluated,
        outcome.invalid,
        outcome.frontier.len()
    );

    // -- Frontier table ----------------------------------------------------
    println!(
        "{:<28} {:>12} {:>12} {:>10} {:>14} {:>10} {:>10} {:>14}",
        "config", "latency", "energy", "area", "EDP", "leak", "read", "train EDP"
    );
    for p in &outcome.frontier {
        let mapper = p.config.mapper().expect("frontier points are valid");
        let hybrid = mapper
            .map_hybrid(&workload.backbone, &workload.repnet, p.config.pattern)
            .expect("frontier points map");
        let step = hybrid_training_step(
            &mapper,
            &workload.backbone,
            &workload.repnet,
            p.config.pattern,
        )
        .expect("frontier points map");
        println!(
            "{:<28} {:>9.1} us {:>9.1} uJ {:>6.2} mm2 {:>8.3e} pJ.ns {:>7.1} mW {:>7.1} mW {:>8.3e} pJ.ns",
            p.label,
            p.cost.latency_ns / 1e3,
            p.cost.energy_pj / 1e6,
            p.cost.area_mm2,
            p.edp(),
            hybrid.leakage_power().as_mw(),
            hybrid.read_power().as_mw(),
            step.edp(),
        );
    }
    println!("\nbest EDP: {}", outcome.doc.best.label);

    // -- TUNED.json round-trip ---------------------------------------------
    let path = Path::new("TUNED.json");
    outcome.doc.save(path).expect("write TUNED.json");
    let reloaded = TunedDoc::load(path)
        .expect("readable")
        .expect("present and valid");
    assert_eq!(
        reloaded.best.config, outcome.doc.best.config,
        "the winning configuration survives the JSON round-trip exactly"
    );
    println!(
        "wrote TUNED.json ({} frontier points) and verified the round-trip",
        reloaded.frontier.len()
    );
}

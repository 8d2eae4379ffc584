//! Smoke + shape tests for every experiment driver (the benches print the
//! full artifacts; these tests pin the structure and orderings).

use pim_core::experiments::ablation::{
    csc_vs_csr, index_width_sweep, transpose_pool_sweep, write_fault_sweep,
};
use pim_core::experiments::{run_fig7, run_fig8, run_table1, run_table2, Table1Config};
use pim_sparse::NmPattern;

#[test]
fn table2_reprints_the_paper_constants() {
    let t = run_table2();
    let s = t.to_string();
    // Spot-check the published values appear verbatim.
    assert!(s.contains("0.04400"), "adder tree area\n{s}");
    assert!(s.contains("16.300"), "adder tree power\n{s}");
    assert!(s.contains("4408"), "P resistance\n{s}");
    assert!((t.sram_total_area_mm2() - 0.26839).abs() < 1e-9);
}

#[test]
fn fig7_series_is_ordered_like_the_paper() {
    let fig = run_fig7().expect("profile maps");
    let areas: Vec<f64> = fig.points.iter().map(|p| p.area_norm).collect();
    // SRAM = 1.0 ≥ MRAM ≥ hybrid 1:4 ≥ hybrid 1:8.
    assert!(areas[0] >= areas[1]);
    assert!(areas[1] >= areas[2]);
    assert!(areas[2] >= areas[3]);
    // Power: the SRAM baseline dominates everything else.
    let p: Vec<f64> = fig.points.iter().map(|x| x.total_power_norm()).collect();
    assert!(p[1] < p[0] && p[2] < p[0] && p[3] < p[0], "{p:?}");
}

#[test]
fn fig8_series_is_ordered_like_the_paper() {
    let fig = run_fig8().expect("profile maps");
    let finetune_sram = fig.bar("SRAM[29] finetune-all").expect("bar");
    let finetune_mram = fig.bar("MRAM[30] finetune-all").expect("bar");
    let ours_14 = fig.bar("1:4").expect("bar");
    let ours_18 = fig.bar("1:8").expect("bar");
    assert!(finetune_mram > finetune_sram);
    assert!(ours_14 < finetune_sram && ours_18 < finetune_sram);
    assert!((ours_18 - 1.0).abs() < 1e-9, "normalization point");
}

#[test]
fn quick_table1_produces_the_five_rows() {
    let table = run_table1(&Table1Config::quick());
    assert_eq!(table.rows.len(), 5);
    assert_eq!(table.datasets.len(), 5);
    // Dense backbone should not be worse than heavily pruned backbone.
    let dense = table.row("Dense").expect("row").backbone_accuracy;
    let pruned = table.row("(1:8) FP32").expect("row").backbone_accuracy;
    assert!(
        dense + 1e-9 >= pruned - 0.05,
        "dense {dense} pruned {pruned}"
    );
    // The quick grid is deterministic; pinned byte for byte.
    assert_eq!(
        table.to_csv(),
        "configure,backbone,flowers102,pets,food101,cifar10,cifar100
Dense RepNet FP32,0.9938,0.0833,0.1486,0.0743,0.1500,0.1000
Sparse RepNet (1:8) FP32,0.2875,0.0294,0.0541,0.0198,0.1500,0.0200
Sparse RepNet (1:8) INT8,0.2812,0.0294,0.0541,0.0198,0.1500,0.0200
Sparse RepNet (1:4) FP32,0.5500,0.0294,0.0541,0.0396,0.0000,0.0300
Sparse RepNet (1:4) INT8,0.5500,0.0294,0.0676,0.0446,0.0000,0.0300
"
    );
}

#[test]
fn ablation_csc_wins_storage_at_every_pattern() {
    for pattern in [
        NmPattern::one_of_four(),
        NmPattern::one_of_eight(),
        NmPattern::two_of_four(),
    ] {
        let cmp = csc_vs_csr(256, 64, pattern);
        assert!(cmp.csc_bits < cmp.csr_bits, "{cmp}");
        assert!(cmp.csc_bits < cmp.dense_bits, "{cmp}");
    }
}

#[test]
fn ablation_index_sweep_shows_throughput_rising_with_sparsity() {
    let sweep = index_width_sweep();
    let one_four = sweep
        .iter()
        .find(|p| p.pattern.to_string() == "1:4")
        .expect("1:4");
    let one_sixteen = sweep
        .iter()
        .find(|p| p.pattern.to_string() == "1:16")
        .expect("1:16");
    assert!(one_sixteen.effective_macs_per_cycle > one_four.effective_macs_per_cycle);
    assert!(one_sixteen.storage_ratio < one_four.storage_ratio);
}

#[test]
fn ablation_transpose_pool_has_diminishing_returns() {
    let sweep = transpose_pool_sweep(&[1, 2, 4, 8, 16]);
    let first_gain = sweep[0].step_latency_ns / sweep[1].step_latency_ns;
    let last_gain = sweep[3].step_latency_ns / sweep[4].step_latency_ns;
    assert!(first_gain >= last_gain - 1e-9, "{sweep:?}");
}

#[test]
fn fig7_golden_values_are_stable() {
    // Regression pins (10% relative tolerance): these are the numbers
    // EXPERIMENTS.md reports; model changes that move them should be
    // deliberate.
    let fig = run_fig7().expect("profile maps");
    let close = |got: f64, expect: f64| (got / expect - 1.0).abs() < 0.10;
    assert!(close(fig.point("MRAM").unwrap().area_norm, 0.134), "{fig}");
    assert!(close(fig.point("1:4").unwrap().area_norm, 0.070), "{fig}");
    assert!(close(fig.point("1:8").unwrap().area_norm, 0.049), "{fig}");
    assert!(
        close(fig.point("SRAM").unwrap().leakage_power_norm, 0.915),
        "{fig}"
    );
}

#[test]
fn fig8_golden_values_are_stable() {
    let fig = run_fig8().expect("profile maps");
    let close = |got: f64, expect: f64| (got / expect - 1.0).abs() < 0.10;
    assert!(
        close(fig.bar("SRAM[29] finetune-all").unwrap(), 10.37),
        "{fig}"
    );
    assert!(
        close(fig.bar("MRAM[30] finetune-all").unwrap(), 96.84),
        "{fig}"
    );
    assert!(close(fig.bar("SRAM[29] RepNet").unwrap(), 1.375), "{fig}");
    assert!(close(fig.bar("MRAM[30] RepNet").unwrap(), 12.83), "{fig}");
    assert!(close(fig.bar("1:4").unwrap(), 0.608), "{fig}");
}

#[test]
fn write_fault_sweep_is_deterministic() {
    let a = write_fault_sweep(&[1e-3], &[1]);
    let b = write_fault_sweep(&[1e-3], &[1]);
    assert_eq!(a, b);
}

#[test]
fn scheduler_wave_model_matches_mapper_ceiling_arithmetic() {
    // The SIMT wave model of a layer streamed over P PEs costs
    // passes·(⌈rows/P⌉ + 3) cycles: each PE holds at most ⌈rows/P⌉ rows
    // and the pipeline adds 3 fill cycles per pass. Pin the mapper's own
    // dense-MRAM roll-up (`Deployment::latency`) to it.
    use pim_arch::baseline::DenseMacro;
    use pim_arch::workload::{LayerShape, ModelProfile};
    use pim_arch::Mapper;
    use pim_device::Latency;
    let dense = DenseMacro::iscas23_mram();
    let node = dense.node();
    let passes = 2u64;
    for (total_rows, pes) in [(4096u64, 8u64), (1000, 16), (128, 128)] {
        let wave = passes * (total_rows.div_ceil(pes) + 3);
        // A reduction of one PE row width stores one row per output, so
        // `outputs` is the layer's row count.
        let layer = LayerShape::new(
            "wave",
            dense.cols_per_pe(),
            total_rows as usize,
            passes as usize,
        );
        let model = ModelProfile::new("wave", vec![layer]);
        // A budget a sliver above the wave makespan provisions exactly P
        // PEs: ⌈rows / (⌈rows/P⌉ + sliver)⌉ = P for every case here.
        let budget = Latency::from_ns((wave as f64 + 1e-3) * node.cycle_ns());
        let deployment = Mapper::dac24()
            .map_dense_mram(&model, budget)
            .expect("one-layer model maps");
        assert_eq!(deployment.pe_count as u64, pes, "{total_rows}/{pes}");
        assert_eq!(
            deployment.latency,
            Latency::from_cycles(wave, node.clock_mhz()),
            "{total_rows}/{pes}"
        );
    }
}

//! Micro-benchmarks of the computational kernels underlying everything:
//! reference GEMMs, CSC compression, PE cycle simulation (flat compiled
//! kernels, single and batched), the NN layers' forward/backward, and an
//! end-to-end `PeRepNet::predict`. Also emits `BENCH_kernels.json`, the
//! machine-readable baseline tracking the compiled-kernel speedups.

use criterion::{criterion_group, criterion_main, Criterion};
use pim_bench::{banner, measure_ns, measure_ns_best, merge_bench_json, BenchRecord};
use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_nn::layers::{Conv2d, Layer};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use pim_pe::{MramSparsePe, SparsePe, SramSparsePe};
use pim_sparse::gemm::{bit_serial_matvec, dense_matvec};
use pim_sparse::prune::prune_magnitude;
use pim_sparse::{CscMatrix, Matrix, NmPattern};
use std::hint::black_box;
use std::path::Path;

fn bench(c: &mut Criterion) {
    banner("Kernel micro-benchmarks");
    let dense = Matrix::from_fn(512, 64, |r, c| {
        (((r * 31 + c * 7) % 251) as i32 - 125) as i8
    });
    let pattern = NmPattern::one_of_four();
    let mask = prune_magnitude(&dense, pattern).expect("non-empty");
    let masked = mask.apply(&dense).expect("fits");
    let csc = CscMatrix::compress(&masked, &mask).expect("fits");
    let x8: Vec<i8> = (0..512).map(|i| (i % 200) as i8).collect();
    let x32: Vec<i32> = x8.iter().map(|&v| v as i32).collect();

    let mut g = c.benchmark_group("kernels");
    g.bench_function("dense_matvec_512x64", |b| {
        b.iter(|| black_box(dense_matvec(&dense, &x32).expect("len")))
    });
    g.bench_function("bit_serial_matvec_512x64", |b| {
        b.iter(|| black_box(bit_serial_matvec(&dense, &x8).expect("len")))
    });
    g.bench_function("csc_compress_512x64_1of4", |b| {
        b.iter(|| black_box(CscMatrix::compress(&masked, &mask).expect("fits")))
    });
    g.bench_function("csc_matvec_512x64_1of4", |b| {
        b.iter(|| black_box(csc.matvec(&x32).expect("len")))
    });
    g.bench_function("prune_magnitude_512x64", |b| {
        b.iter(|| black_box(prune_magnitude(&dense, pattern).expect("non-empty")))
    });

    // Cycle-level PEs on a PE-sized tile: the flat compiled kernel vs the
    // bit-serial reference walk over the SAME masked matrix, then single
    // vs batched execution of the compiled kernel.
    let tile_dense = Matrix::from_fn(512, 8, |r, c| (((r * 17 + c * 3) % 251) as i32 - 125) as i8);
    let tile_mask = prune_magnitude(&tile_dense, pattern).expect("non-empty");
    let tile_masked = tile_mask.apply(&tile_dense).expect("fits");
    let tile = CscMatrix::compress(&tile_masked, &tile_mask).expect("fits");
    let tx: Vec<i8> = (0..512).map(|i| (i % 100) as i8).collect();
    let batch = 8usize;
    let txs: Vec<i8> = (0..batch)
        .flat_map(|b| tx.iter().map(move |&v| v.wrapping_add(b as i8)))
        .collect();
    g.bench_function("bit_serial_matvec_tile_512x8", |b| {
        b.iter(|| black_box(bit_serial_matvec(&tile_masked, &tx).expect("len")))
    });
    g.bench_function("sram_pe_matvec_tile", |b| {
        let mut pe = SramSparsePe::new();
        pe.load(&tile).expect("capacity");
        b.iter(|| black_box(pe.matvec(&tx).expect("loaded").outputs))
    });
    g.bench_function("sram_pe_matvec_into_tile", |b| {
        let mut pe = SramSparsePe::new();
        pe.load(&tile).expect("capacity");
        let mut y = vec![0i32; 8];
        b.iter(|| {
            pe.matvec_into(&tx, &mut y).expect("loaded");
            black_box(y[0])
        })
    });
    g.bench_function("sram_pe_matvec_batch8_tile", |b| {
        let mut pe = SramSparsePe::new();
        pe.load(&tile).expect("capacity");
        let mut y = vec![0i32; batch * 8];
        b.iter(|| {
            pe.matvec_batch(&txs, batch, &mut y).expect("loaded");
            black_box(y[0])
        })
    });
    g.bench_function("mram_pe_matvec_tile", |b| {
        let mut pe = MramSparsePe::new();
        pe.load(&tile).expect("capacity");
        b.iter(|| black_box(pe.matvec(&tx).expect("loaded").outputs))
    });
    g.bench_function("mram_pe_matvec_batch8_tile", |b| {
        let mut pe = MramSparsePe::new();
        pe.load(&tile).expect("capacity");
        let mut y = vec![0i32; batch * 8];
        b.iter(|| {
            pe.matvec_batch(&txs, batch, &mut y).expect("loaded");
            black_box(y[0])
        })
    });

    // Bit-plane packed kernel vs the flat gather on the SAME tile and the
    // SAME inputs — the packed path's target regime: dense **ternary**
    // weights (128×8, 1024 slots, filling the array exactly) driven by
    // **binary** activations, i.e. one live weight magnitude plane per
    // sign and one live activation plane. The load-time profitability
    // heuristic must select the popcount path on its own.
    let dense_pattern = NmPattern::new(4, 4).expect("4:4 keeps every slot");
    let ternary = Matrix::from_fn(128, 8, |r, c| if (r + c) % 2 == 0 { 1i8 } else { -1 });
    let ternary_mask = prune_magnitude(&ternary, dense_pattern).expect("non-empty");
    let ternary_csc = CscMatrix::compress(&ternary, &ternary_mask).expect("fits");
    let mut packed_pe = SramSparsePe::new();
    packed_pe.load(&ternary_csc).expect("capacity");
    assert_eq!(
        packed_pe.kernel_backend(),
        "packed",
        "profitability heuristic must pick the bit-plane path for dense ternary"
    );
    let mut flat_ternary_pe = packed_pe.clone();
    flat_ternary_pe.set_packed_enabled(false);
    assert_eq!(flat_ternary_pe.kernel_backend(), "flat");
    let bxs: Vec<i8> = (0..batch * 128).map(|i| (i % 2) as i8).collect();
    let mut y2 = vec![0i32; batch * 8];
    g.bench_function("packed_matvec_batch8_ternary_binary_acts", |b| {
        b.iter(|| {
            packed_pe
                .matvec_batch(&bxs, batch, &mut y2)
                .expect("loaded");
            black_box(y2[0])
        })
    });
    g.bench_function("flat_matvec_batch8_ternary_binary_acts", |b| {
        b.iter(|| {
            flat_ternary_pe
                .matvec_batch(&bxs, batch, &mut y2)
                .expect("loaded");
            black_box(y2[0])
        })
    });

    // NN substrate: conv forward + backward.
    let mut conv = Conv2d::new(8, 16, 3, 1, 1, 3);
    let input = Tensor::from_fn(&[4, 8, 12, 12], |i| (i as f32 * 0.01).sin());
    g.bench_function("conv2d_forward_4x8x12x12", |b| {
        b.iter(|| black_box(conv.forward(&input, false)))
    });
    let out = conv.forward(&input, true);
    let upstream = Tensor::ones(out.shape());
    g.bench_function("conv2d_backward_4x8x12x12", |b| {
        b.iter(|| {
            conv.forward(&input, true);
            black_box(conv.backward(&upstream))
        })
    });

    // End-to-end: a compiled Rep-Net classifying a batch of 8 images —
    // frozen f32 backbone plus the batched PE branch (rep layer +
    // classifier on the cycle-level simulators).
    let backbone_cfg = BackboneConfig {
        in_channels: 3,
        image_size: 8,
        stage_widths: vec![8, 16],
        blocks_per_stage: 1,
        seed: 1,
    };
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 3)
        .with_samples(32, 8)
        .with_difficulty(0.4)
        .generate()
        .expect("valid spec");
    let mut model = RepNet::new(
        Backbone::new(backbone_cfg),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 10,
            seed: 3,
        },
    );
    model.apply_pattern(NmPattern::one_of_four());
    let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
    let indices: Vec<usize> = (0..8).collect();
    let (images, _) = task.test.batch(&indices);
    g.bench_function("pe_repnet_predict_batch8", |b| {
        b.iter(|| black_box(compiled.predict(&mut model, &images).0))
    });
    // Same predict with the pim-par pool fanned out over a 1/2/4/8
    // scaling sweep (`new` clamps to the host's cores, so the sweep is
    // honest about the hardware it ran on). Bit-exact with the serial run
    // by construction (the ledger replay is serial either way); only
    // wall-clock differs.
    for threads in [1usize, 2, 4, 8] {
        let mut model_par = model.clone();
        let mut par = compiled.clone();
        par.attach_pool(std::sync::Arc::new(WorkPool::new(threads)));
        g.bench_function(format!("pe_repnet_predict_batch8_par{threads}"), |b| {
            b.iter(|| black_box(par.predict(&mut model_par, &images).0))
        });
    }
    // The direct sparse conv in isolation: the first module's 3×3 stage
    // over a pooled feature batch, no f32 backbone in front.
    let feat = Tensor::from_fn(&[8, 4, 8, 8], |i| ((i % 23) as f32 - 11.0) / 11.0);
    g.bench_function("direct_conv3_batch8_4x8x8", |b| {
        b.iter(|| black_box(compiled.conv3_stage_forward(&feat).0))
    });
    g.finish();

    // Machine-readable baseline for the perf trajectory. Re-measures the
    // headline kernels (the vendored criterion exposes
    // no timings) — best-of-passes for the macro kernels so one noise
    // spike can't poison a recorded baseline — and derives the speedup
    // ratios the compiled-kernel design is accountable for.
    let mut flat_pe = SramSparsePe::new();
    flat_pe.load(&tile).expect("capacity");
    let mut y1 = vec![0i32; 8];
    let mut yb = vec![0i32; batch * 8];
    let bit_serial_ns = measure_ns(200, || bit_serial_matvec(&tile_masked, &tx).expect("len"));
    let flat_single_ns = measure_ns(2000, || {
        flat_pe.matvec_into(&tx, &mut y1).expect("loaded");
        y1[0]
    });
    let flat_batch_ns = measure_ns(500, || {
        flat_pe.matvec_batch(&txs, batch, &mut yb).expect("loaded");
        yb[0]
    });
    let mut mram_pe = MramSparsePe::new();
    mram_pe.load(&tile).expect("capacity");
    let mram_batch_ns = measure_ns(500, || {
        mram_pe.matvec_batch(&txs, batch, &mut yb).expect("loaded");
        yb[0]
    });
    let packed_batch_ns = measure_ns_best(3, 200, || {
        packed_pe
            .matvec_batch(&bxs, batch, &mut y2)
            .expect("loaded");
        y2[0]
    });
    let flat_ternary_ns = measure_ns_best(3, 200, || {
        flat_ternary_pe
            .matvec_batch(&bxs, batch, &mut y2)
            .expect("loaded");
        y2[0]
    });
    let direct_conv_ns = measure_ns_best(4, 15, || compiled.conv3_stage_forward(&feat).0);
    let predict_ns = measure_ns_best(4, 10, || compiled.predict(&mut model, &images).0);
    // The scaling sweep keeps each pool around so its scheduler counters
    // (steals, splits, parks) can be read back after the timed runs.
    let predict_par = |threads: usize| {
        let mut model_par = model.clone();
        let mut par = compiled.clone();
        let pool = std::sync::Arc::new(WorkPool::new(threads));
        par.attach_pool(std::sync::Arc::clone(&pool));
        let ns = measure_ns_best(4, 10, || par.predict(&mut model_par, &images).0);
        (ns, pool.counters())
    };
    let (predict_par1_ns, _) = predict_par(1);
    let (predict_par2_ns, _) = predict_par(2);
    let (predict_par4_ns, par4_counters) = predict_par(4);
    let (predict_par8_ns, _) = predict_par(8);
    // Cost-aware granularity on a genuinely 2-wide pool (forced past the
    // core clamp so 1-core CI still dispatches): an eager threshold spawns
    // every fan-out; the shipped cost model keeps sub-threshold jobs
    // inline and skips the synchronization bill.
    let predict_threshold_ns = |ops: u64| {
        let mut model_thr = model.clone();
        let mut thr = compiled.clone();
        thr.attach_pool(std::sync::Arc::new(
            WorkPool::with_forced_threads(2).with_spawn_threshold(ops),
        ));
        measure_ns_best(4, 10, || thr.predict(&mut model_thr, &images).0)
    };
    let eager_ns = predict_threshold_ns(1);
    let costed_ns = predict_threshold_ns(pim_par::DEFAULT_SPAWN_THRESHOLD);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as f64;
    let records = [
        BenchRecord::new("bit_serial_matvec_tile_512x8", bit_serial_ns),
        BenchRecord::new("sram_pe_matvec_into_tile", flat_single_ns),
        BenchRecord::new("sram_pe_matvec_batch8_tile", flat_batch_ns),
        BenchRecord::new("mram_pe_matvec_batch8_tile", mram_batch_ns),
        BenchRecord::new("packed_matvec_batch8_ternary_binary_acts", packed_batch_ns),
        BenchRecord::new("flat_matvec_batch8_ternary_binary_acts", flat_ternary_ns),
        BenchRecord::new("direct_conv3_batch8_4x8x8", direct_conv_ns),
        BenchRecord::new("pe_repnet_predict_batch8", predict_ns),
        BenchRecord::new("pe_repnet_predict_batch8_par1", predict_par1_ns),
        BenchRecord::new("pe_repnet_predict_batch8_par2", predict_par2_ns),
        BenchRecord::new("pe_repnet_predict_batch8_par4", predict_par4_ns),
        BenchRecord::new("pe_repnet_predict_batch8_par8", predict_par8_ns),
        BenchRecord::new("pe_repnet_predict_batch8_2t_eager", eager_ns),
        BenchRecord::new("pe_repnet_predict_batch8_2t_costed", costed_ns),
    ];
    let derived = [
        // Bit-plane popcount kernel vs the flat gather on the same dense
        // ternary tile under binary activations — the packed path's
        // target regime; the bench-gate enforces >= 1.0 here.
        ("packed_vs_flat_speedup", flat_ternary_ns / packed_batch_ns),
        ("direct_conv3_batch8_us", direct_conv_ns / 1e3),
        // Cost-model payoff on a forced 2-wide pool: eager dispatch of
        // every fan-out vs inlining jobs below the tuned threshold.
        ("granularity_costed_vs_eager_speedup", eager_ns / costed_ns),
        // Compiled flat kernel vs the bit-serial reference walk of the
        // same masked tile — the per-matvec speedup of the decoupling.
        ("flat_vs_bit_serial_speedup", bit_serial_ns / flat_single_ns),
        (
            "batch8_vs_single_speedup_sram",
            flat_single_ns / (flat_batch_ns / batch as f64),
        ),
        ("pe_repnet_predict_batch8_ms", predict_ns / 1e6),
        // End-to-end pool speedup across the scaling sweep. Only
        // meaningful alongside `par_available_cores`: on a 1-core runner
        // every ratio sits at ~1.0 by design (the pool degrades to inline
        // execution), so the gate reads the core count before enforcing a
        // floor. `par_speedup_1t` is the scheduler's overhead sanity check
        // — a 1-wide pool must track the serial path.
        ("par_speedup_1t", predict_ns / predict_par1_ns),
        ("par_speedup_2t", predict_ns / predict_par2_ns),
        ("par_speedup_4t", predict_ns / predict_par4_ns),
        ("par_speedup_8t", predict_ns / predict_par8_ns),
        // Per-thread efficiency: speedup divided by the executors the
        // host could actually grant (`new` clamps the request to cores).
        (
            "par_efficiency_2t",
            (predict_ns / predict_par2_ns) / 2f64.min(cores),
        ),
        (
            "par_efficiency_4t",
            (predict_ns / predict_par4_ns) / 4f64.min(cores),
        ),
        (
            "par_efficiency_8t",
            (predict_ns / predict_par8_ns) / 8f64.min(cores),
        ),
        // Deque steals per dispatched job on the 4-wide sweep pool: how
        // much cross-worker traffic the work-stealing scheduler needed to
        // balance the predict fan-outs (0.0 on a 1-core host, where the
        // clamped pool never dispatches).
        (
            "steal_ratio_4t",
            par4_counters.steals as f64 / par4_counters.jobs.max(1) as f64,
        ),
        ("par_available_cores", cores),
    ];
    // Benches run with CWD at the crate; anchor the artifact at the
    // workspace root next to EXPERIMENTS.md. Merged, not overwritten: the
    // telemetry_overhead bench shares this baseline file.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    merge_bench_json(&out, "kernels", &records, &derived).expect("writable workspace root");
}

criterion_group!(benches, bench);
criterion_main!(benches);

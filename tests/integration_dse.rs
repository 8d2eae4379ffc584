//! Integration tests for the `pim-dse` design-space exploration stack.
//!
//! The load-bearing contracts:
//!
//! 1. The analytic tile cost models the sweep evaluator prunes on are
//!    **bit-exact** against the real `pim-pe` cycle-simulator ledgers —
//!    not merely close — across sampled configurations and patterns
//!    (proptests). The PEs accumulate stats with field-wise `+=`, so the
//!    pinned form is `baseline + analytic_cost == after`, which is the
//!    exact f64 operation the simulator performs.
//! 2. Pareto pruning never drops a non-dominated point (proptest).
//! 3. An end-to-end sweep produces a non-empty, non-dominated frontier
//!    whose `TUNED.json` round-trips exactly, and the committed
//!    `TUNED.json` is byte-equal to a fresh render of the sweep.

use pim_arch::pe_model::{MramTileModel, SramTileModel};
use pim_arch::ArchConfig;
use pim_dse::{
    dominates, pareto_frontier, run_sweep, AnalyticCost, DesignPoint, SweepSpace, TunedDoc,
    Workload,
};
use pim_pe::{MramSparsePe, SparsePe, SramSparsePe};
use pim_sparse::prune::prune_magnitude;
use pim_sparse::{CscMatrix, Matrix, NmPattern};
use pim_telemetry::TelemetryRegistry;
use proptest::prelude::*;

/// Deterministic dense tile → N:M pruned CSC (seeded by position).
fn sparse_tile(rows: usize, cols: usize, pattern: NmPattern, seed: usize) -> CscMatrix {
    let dense = Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 17 + seed) % 251) as i32 - 125) as i8
    });
    let mask = prune_magnitude(&dense, pattern).expect("non-empty tile");
    CscMatrix::compress(&dense, &mask).expect("shapes match")
}

/// Sampled sweep-space corners: the knobs `SweepSpace::dac24_neighborhood`
/// actually varies.
fn arb_config() -> impl Strategy<Value = ArchConfig> {
    let patterns = prop_oneof![
        Just(NmPattern::one_of_four()),
        Just(NmPattern::one_of_eight()),
        Just(NmPattern::new(2, 4).expect("2:4")),
    ];
    let tiles = prop_oneof![Just((128usize, 8usize)), Just((128, 4)), Just((64, 8))];
    let bits = prop_oneof![Just(8u32), Just(4)];
    (patterns, tiles, bits).prop_map(|(p, (rows, groups), w)| {
        ArchConfig::dac24()
            .with_pattern(p)
            .with_sram_tile(rows, groups)
            .with_weight_bits(w)
            .validated()
            .expect("sampled corner is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SRAM analytic matvec cost is the exact ledger delta of the
    /// cycle simulator: cycles, busy time, and every energy channel.
    #[test]
    fn sram_analytic_cost_is_bit_exact_against_the_pe_ledger(
        cfg in arb_config(),
        row_groups in 2usize..6,
        cols in 1usize..4,
        seed in 0usize..64,
    ) {
        let pattern = cfg.pattern;
        let rows = row_groups * pattern.m();
        let csc = sparse_tile(rows, cols, pattern, seed);
        let mut pe = SramSparsePe::with_config(cfg.sram.clone());
        pe.load(&csc).expect("sampled tile fits the sampled PE");

        let baseline = *pe.stats();
        let x: Vec<i8> = (0..rows).map(|i| ((i * 37 + seed) % 256) as u8 as i8).collect();
        let report = pe.matvec(&x).expect("loaded");
        let after = *pe.stats();

        let model = SramTileModel::new(cfg.sram.clone());
        let cost = model.matvec_cost(pattern.m(), rows);

        // The per-op report itself matches the model, field for field.
        prop_assert_eq!(cost.cycles, report.cycles);
        prop_assert_eq!(cost.latency, report.latency);
        prop_assert_eq!(cost.energy, report.energy);
        // And the cumulative ledger advanced by exactly the analytic cost,
        // in the simulator's own `+=` operation order.
        prop_assert_eq!(after.cycles - baseline.cycles, cost.cycles);
        prop_assert_eq!(baseline.busy_time + cost.latency, after.busy_time);
        prop_assert_eq!(baseline.energy + cost.energy, after.energy);
    }

    /// Same pin for the MRAM PE: `rows_used` and total stored pairs are
    /// derived from the CSC layout exactly as `load` packs it.
    #[test]
    fn mram_analytic_cost_is_bit_exact_against_the_pe_ledger(
        cfg in arb_config(),
        row_groups in 2usize..8,
        cols in 1usize..4,
        seed in 0usize..64,
    ) {
        let pattern = cfg.pattern;
        let rows = row_groups * pattern.m();
        let csc = sparse_tile(rows, cols, pattern, seed);
        let mut pe = MramSparsePe::with_config(cfg.mram.clone());
        pe.load(&csc).expect("sampled tile fits the sampled PE");

        let baseline = *pe.stats();
        let x: Vec<i8> = (0..rows).map(|i| ((i * 41 + seed) % 256) as u8 as i8).collect();
        let report = pe.matvec(&x).expect("loaded");
        let after = *pe.stats();

        // One packed row never mixes logical columns, so each column
        // occupies ceil(slots / pairs_per_row) rows and contributes all
        // of its slots (occupied or not) to the sensed bits.
        let rows_used =
            (csc.slots_per_col().div_ceil(cfg.mram.pairs_per_row) * csc.cols()) as u64;
        let pairs = (csc.slots_per_col() * csc.cols()) as u64;
        let model = MramTileModel::new(cfg.mram.clone());
        let cost = model.matvec_cost(rows_used, pairs);

        prop_assert_eq!(cost.cycles, report.cycles);
        prop_assert_eq!(cost.latency, report.latency);
        prop_assert_eq!(cost.energy, report.energy);
        prop_assert_eq!(after.cycles - baseline.cycles, cost.cycles);
        prop_assert_eq!(baseline.busy_time + cost.latency, after.busy_time);
        prop_assert_eq!(baseline.energy + cost.energy, after.energy);
    }
}

fn point(lat: f64, energy: f64, area: f64) -> DesignPoint {
    DesignPoint::analytic(
        ArchConfig::dac24(),
        AnalyticCost {
            latency_ns: lat,
            energy_pj: energy,
            area_mm2: area,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frontier extraction is lossless for non-dominated points: every
    /// input either survives or is dominated by a survivor, and no two
    /// survivors dominate each other.
    #[test]
    fn pareto_pruning_never_drops_a_non_dominated_point(
        objectives in proptest::collection::vec((1u32..40, 1u32..40, 1u32..40), 1..24),
    ) {
        let points: Vec<DesignPoint> = objectives
            .iter()
            .map(|&(l, e, a)| point(l as f64, e as f64, a as f64))
            .collect();
        let frontier = pareto_frontier(&points);
        prop_assert!(!frontier.is_empty());

        for p in &points {
            let survives = frontier.iter().any(|f| f.objectives() == p.objectives());
            let dominated = frontier.iter().any(|f| dominates(f, p));
            prop_assert!(
                survives || dominated,
                "point {:?} neither survived nor is dominated",
                p.objectives()
            );
            // A dominated point must not survive.
            prop_assert!(!(survives && points.iter().any(|o| dominates(o, p))));
        }
        for f in &frontier {
            prop_assert!(!frontier.iter().any(|other| dominates(other, f)));
        }
    }
}

#[test]
fn end_to_end_sweep_round_trips_its_frontier() {
    // A trimmed neighborhood keeps this test fast.
    let mut space = SweepSpace::dac24_neighborhood();
    space.sram_tiles.truncate(1);
    space.weight_bits.truncate(1);
    let registry = TelemetryRegistry::new();
    let outcome =
        run_sweep(&space, &Workload::resnet50_repnet(), &registry).expect("sweep succeeds");

    // A non-empty frontier, ascending in EDP and free of dominated points.
    assert!(!outcome.frontier.is_empty());
    assert_eq!(outcome.doc.best, outcome.frontier[0]);
    for pair in outcome.frontier.windows(2) {
        assert!(pair[0].edp() <= pair[1].edp());
    }
    for p in &outcome.frontier {
        assert!(!outcome.frontier.iter().any(|other| dominates(other, p)));
    }

    // TUNED.json round-trips with the winning config intact.
    let text = outcome.doc.render();
    let parsed = TunedDoc::parse(&text).expect("own render parses");
    assert_eq!(parsed.best.config, outcome.doc.best.config);
    assert_eq!(parsed.frontier.len(), outcome.frontier.len());
}

/// The sweep is a pure function of its grid and workload, so the
/// committed document must be exactly what a fresh sweep renders —
/// `cargo run --release --example dse` regenerates it.
#[test]
fn committed_tuned_json_is_a_fresh_render_of_the_sweep() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../TUNED.json"))
            .expect("TUNED.json is committed at the workspace root");
    let outcome = run_sweep(
        &SweepSpace::dac24_neighborhood(),
        &Workload::resnet50_repnet(),
        &TelemetryRegistry::new(),
    )
    .expect("sweep succeeds");
    assert_eq!(
        committed,
        outcome.doc.render(),
        "TUNED.json is stale: rerun `cargo run --release --example dse`"
    );
}

//! The MRAM-SRAM hybrid sparse PIM system for on-device continual learning
//! — the top of the reproduction stack (DAC'24, Zhang et al.).
//!
//! This crate glues the substrates together into the system the paper
//! proposes and evaluates:
//!
//! * [`HybridSystem`] — a continual learner whose frozen backbone lives on
//!   MRAM sparse PEs and whose Rep-Net adaptor path learns in SRAM sparse
//!   PEs, with N:M structured sparsity end-to-end;
//! * [`profile`] — extracts architecture-level workload profiles from live
//!   `pim-nn` models so the `pim-arch` mapper can size real deployments;
//! * [`verify`] — the functional bridge: quantizes real trained layers,
//!   compresses them to CSC, tiles them over the actual cycle-level PEs,
//!   and checks bit-exactness against the NN-side integer reference;
//! * [`pe_inference`] — the learnable branch compiled into loaded SRAM PE
//!   tiles and executed end-to-end on the cycle simulators; a MARS-style
//!   multi-macro deployment is a ledger partition of the same tiles
//!   (`PeRepNet::group_stats`: tile *i* of each layer bills macro group
//!   *i mod G*), not a second execution path;
//! * [`experiments`] — drivers regenerating every table and figure of the
//!   paper's evaluation (Table 1/2, Fig. 7/8, plus ablations).
//!
//! # Quickstart
//!
//! ```no_run
//! use pim_core::{HybridSystem, SystemConfig};
//! use pim_data::SyntheticSpec;
//! use pim_nn::train::FitConfig;
//!
//! let upstream = SyntheticSpec::upstream_pretraining().generate()?;
//! let mut system = HybridSystem::pretrain(
//!     SystemConfig::default(),
//!     &upstream,
//!     &FitConfig::default(),
//! );
//! let task = SyntheticSpec::cifar10_like().generate()?;
//! let report = system.learn_task(&task, &FitConfig::default());
//! println!("{}: {:.1}% (INT8 {:.1}%)", report.task,
//!          100.0 * report.accuracy_fp32,
//!          100.0 * report.accuracy_int8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod experiments;
pub mod pe_inference;
pub mod profile;
pub mod system;
pub mod verify;

pub use system::{HybridSystem, SystemConfig, TaskReport};
// Re-exported so downstream examples can pick a sparsity pattern for
// `SystemConfig` without depending on `pim-sparse` directly.
pub use pim_sparse::NmPattern;

/// Checks of the MARS-style multi-macro deployment. Dealing a branch over
/// `G` macro groups is a partition of one compiled branch's ledger
/// ([`PeRepNet::group_stats`](pe_inference::PeRepNet::group_stats)), so
/// these pin that partition against the single-macro run.
#[cfg(test)]
mod shard {
    mod tests {
        use crate::pe_inference::PeRepNet;
        use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
        use pim_nn::tensor::Tensor;
        use pim_par::WorkPool;
        use pim_pe::PeStats;
        use pim_sparse::NmPattern;
        use std::sync::Arc;

        fn compiled_tiny() -> (RepNet, PeRepNet) {
            let mut model = RepNet::new(
                Backbone::new(BackboneConfig::tiny()),
                RepNetConfig {
                    rep_channels: 4,
                    num_classes: 10,
                    seed: 21,
                },
            );
            model.apply_pattern(NmPattern::one_of_four());
            let branch = PeRepNet::compile(&model).expect("fits PEs");
            (model, branch)
        }

        fn probe(batch: usize) -> Tensor {
            let mut t = Tensor::zeros(&[batch, 1, 8, 8]);
            for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 37 % 113) as f32 / 56.5) - 1.0;
            }
            t
        }

        fn bits(t: &Tensor) -> Vec<u32> {
            t.as_slice().iter().map(|v| v.to_bits()).collect()
        }

        /// Asserts that `groups` sum to `total`: the integer counters
        /// exactly, the f64 fields (added in a different order) to 1e-9.
        fn assert_partitions(groups: &[PeStats], total: &PeStats, ctx: &str) {
            let sum: PeStats = groups.iter().copied().sum();
            let ints = |s: &PeStats| (s.cycles, s.loads, s.matvecs, s.macs, s.write_bits);
            assert_eq!(ints(&sum), ints(total), "{ctx}");
            let (a, b) = (sum.total_energy().as_pj(), total.total_energy().as_pj());
            assert!((a - b).abs() <= 1e-9 * b, "{ctx}: {a} vs {b} pJ");
            let (a, b) = (sum.busy_time.as_ns(), total.busy_time.as_ns());
            assert!((a - b).abs() <= 1e-9 * b, "{ctx}: {a} vs {b} ns");
        }

        #[test]
        fn sharding_partitions_every_tile_without_duplication() {
            let (_, branch) = compiled_tiny();
            let tiles = branch.tile_count();
            for groups in [1, 2, 3, 5] {
                let per_group = branch.group_stats(groups);
                assert_eq!(per_group.len(), groups);
                // Every tile is loaded once at compile time, so the
                // groups' loads count each tile exactly once.
                assert_eq!(
                    per_group.iter().map(|g| g.loads).sum::<u64>() as usize,
                    tiles,
                    "G={groups}"
                );
                assert!(
                    per_group[0].loads > 0,
                    "every layer deals its tile 0 to group 0"
                );
                assert_partitions(
                    &per_group,
                    &branch.cumulative_stats(),
                    &format!("G={groups}"),
                );
            }
            assert_eq!(branch.group_stats(0).len(), 1, "clamped to one group");
        }

        #[test]
        fn sharded_predict_is_bit_exact_with_single_macro() {
            let (model, branch) = compiled_tiny();
            let x = probe(4);
            let (want_logits, want_stats) = branch.clone().predict(&mut model.clone(), &x);
            for groups in [1, 2, 3, 5] {
                let mut deployed = branch.clone();
                let mut m = model.clone();
                // Twice: the second call exercises warmed scratch reuse.
                for round in 0..2 {
                    let before = deployed.group_stats(groups);
                    let (logits, stats) = deployed.predict(&mut m, &x);
                    let after = deployed.group_stats(groups);
                    let ctx = format!("groups={groups} round={round}");
                    assert_eq!(bits(&want_logits), bits(&logits), "{ctx}: logits diverged");
                    assert_eq!(want_stats, stats, "{ctx}: run ledger diverged");
                    // The groups' ledgers grow by exactly this run's bills.
                    let grew = |field: fn(&PeStats) -> u64| -> u64 {
                        after
                            .iter()
                            .zip(&before)
                            .map(|(a, b)| field(a) - field(b))
                            .sum()
                    };
                    assert_eq!(grew(|s| s.matvecs), stats.matvecs, "{ctx}");
                    assert_eq!(grew(|s| s.macs), stats.macs, "{ctx}");
                    assert_eq!(grew(|s| s.cycles), stats.cycles, "{ctx}");
                }
            }
        }

        #[test]
        fn sharded_parallel_pool_is_bit_exact_with_serial() {
            let (model, branch) = compiled_tiny();
            let x = probe(6);
            let mut serial = branch.clone();
            serial.attach_pool(Arc::new(WorkPool::with_forced_threads(1)));
            let mut parallel = branch;
            parallel.attach_pool(Arc::new(
                WorkPool::with_forced_threads(4).with_spawn_threshold(1),
            ));
            let (a, sa) = serial.predict(&mut model.clone(), &x);
            let (b, sb) = parallel.predict(&mut model.clone(), &x);
            assert_eq!(bits(&a), bits(&b));
            assert_eq!(sa, sb);
            assert_eq!(
                serial.group_stats(3),
                parallel.group_stats(3),
                "per-group ledgers do not depend on the pool width"
            );
        }

        #[test]
        fn more_groups_than_tiles_still_serves() {
            let (model, mut branch) = compiled_tiny();
            let groups = branch.tile_count() + 3;
            let x = probe(2);
            let (logits, stats) = branch.predict(&mut model.clone(), &x);
            assert_eq!(logits.shape(), &[2, 10]);
            assert!(stats.matvecs > 0);
            let per_group = branch.group_stats(groups);
            assert_eq!(per_group.len(), groups);
            assert!(
                per_group.iter().any(|g| *g == PeStats::new()),
                "some groups must be empty"
            );
            assert_partitions(&per_group, &branch.cumulative_stats(), "G > tiles");
        }

        #[test]
        fn group_stats_sum_to_cumulative() {
            let (model, mut branch) = compiled_tiny();
            let _ = branch.predict(&mut model.clone(), &probe(1));
            let groups = branch.group_stats(2);
            assert_eq!(groups.len(), 2);
            assert_partitions(&groups, &branch.cumulative_stats(), "G=2");
            let total: PeStats = groups.into_iter().sum();
            assert!(total.matvecs > 0);
            assert!(total.loads > 0, "group ledgers keep the compile-time loads");
        }
    }
}

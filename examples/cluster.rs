//! Sharded, replicated cluster serving under an open-loop bursty load.
//!
//! Starts a 3-replica fleet (each replica sharded across 2 simulated
//! macro groups), then drives it with an **open-loop** arrival process:
//! requests fire on a precomputed exponential-inter-arrival schedule that
//! alternates calm and burst phases, regardless of how fast the fleet
//! answers — exactly the regime where bounded-queue admission control
//! and queue-depth-aware routing earn their keep. Mid-run, a canary
//! rollout swaps the model fleet-wide under live traffic.
//!
//! The run's wall-clock p99 serving latency and cluster rejection
//! fraction are merged into `BENCH_kernels.json` as the derived
//! `cluster_p99_ms` / `cluster_rejection_frac` keys, where `bench-gate`
//! enforces their SLO ceilings in CI.
//!
//! Run with: `cargo run --release --example cluster`

use pim_bench::merge_bench_json;
use pim_cluster::{ClusterBuilder, ClusterError};
use pim_data::SyntheticSpec;
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::{CompiledModel, Telemetry};
use pim_telemetry::{Histogram, LATENCY_BUCKETS};
use std::path::Path;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const MACRO_GROUPS: usize = 2;
const NUM_CLASSES: usize = 10;
/// Requests per phase; phases alternate calm and burst.
const PHASE_LEN: usize = 60;
const PHASES: usize = 6;
/// Mean inter-arrival gap per phase kind.
const CALM_GAP_US: f64 = 900.0;
const BURST_GAP_US: f64 = 120.0;

/// SLO ceilings (mirrored by `bench-gate`): the open-loop run must hold
/// p99 wall latency and the rejection fraction under these.
const SLO_P99_MS: f64 = 250.0;
const SLO_REJECTION_FRAC: f64 = 0.10;

fn tiny_model(seed: u64) -> RepNet {
    RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: NUM_CLASSES,
            seed,
        },
    )
}

/// xorshift64 → uniform in (0, 1].
fn uniform(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    ((*state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Exponential inter-arrival gaps: the open-loop Poisson schedule.
fn exp_gap_us(state: &mut u64, mean_us: f64) -> f64 {
    -mean_us * uniform(state).ln()
}

fn main() {
    let total_requests = PHASE_LEN * PHASES;
    println!("=== pim-cluster: sharded, replicated serving under open-loop load ===\n");

    // -- Fleet ------------------------------------------------------------
    let telemetry = Telemetry::new();
    let compiled =
        CompiledModel::compile("repnet-v1", &tiny_model(42)).expect("model fits the PEs");
    println!("compiled {compiled}");
    let mut builder = ClusterBuilder::new()
        .replicas(REPLICAS)
        .macro_groups(MACRO_GROUPS)
        .workers(1)
        .queue_capacity(32)
        .max_batch(8)
        .max_wait(Duration::from_micros(500))
        .telemetry(telemetry.clone());
    let id = builder.register(compiled);
    let cluster = builder.start();
    println!(
        "fleet: {} replicas x {} macro groups, {} healthy\n",
        cluster.replica_count(),
        cluster.macro_groups(),
        cluster.healthy_replicas()
    );

    // -- Open-loop schedule ----------------------------------------------
    // Precomputed arrival offsets: requests fire at their scheduled time
    // whether or not earlier ones have completed (no closed-loop
    // self-throttling), alternating calm and burst phases.
    let mut rng = 0x0b5e_55ed_10adu64;
    let mut arrivals_us = Vec::with_capacity(total_requests);
    let mut clock_us = 0.0;
    for phase in 0..PHASES {
        let mean = if phase % 2 == 0 {
            CALM_GAP_US
        } else {
            BURST_GAP_US
        };
        for _ in 0..PHASE_LEN {
            clock_us += exp_gap_us(&mut rng, mean);
            arrivals_us.push(clock_us);
        }
    }

    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(1, total_requests.div_ceil(NUM_CLASSES))
        .generate()
        .expect("synthetic task");
    let inputs: Vec<Tensor> = (0..total_requests)
        .map(|i| task.test.inputs().batch_item(i))
        .collect();

    // -- Drive ------------------------------------------------------------
    // The dispatcher fires submissions on schedule; waiter threads absorb
    // the tickets so a slow response never delays the next arrival.
    let wall_latency = Histogram::new(&LATENCY_BUCKETS);
    let mut dropped = 0u64;
    let mut routed_per_replica = vec![0u64; REPLICAS];
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, (input, due_us)) in inputs.iter().zip(&arrivals_us).enumerate() {
            // Open loop: sleep until this request's scheduled arrival.
            let due = Duration::from_nanos((due_us * 1e3) as u64);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            // Canary rollout mid-run, under live traffic.
            if i == total_requests / 2 {
                let v2 = CompiledModel::compile("repnet-v2", &tiny_model(43)).expect("v2 compiles");
                let report = cluster.swap_model(id, v2).expect("rollout");
                println!(
                    "mid-run rollout: canary on replica {}, fleet now at versions {:?}",
                    report.canary_replica, report.versions
                );
            }
            match cluster.submit(id, input) {
                Ok(ticket) => {
                    routed_per_replica[ticket.replica()] += 1;
                    let wall_latency = &wall_latency;
                    scope.spawn(move || {
                        let response = ticket.wait().expect("accepted ticket answered");
                        wall_latency.observe(response.queue_wait.as_secs_f64());
                    });
                }
                // Open loop drops rejected arrivals — no retry.
                Err(ClusterError::Saturated { .. }) => dropped += 1,
                Err(e) => panic!("submit failed: {e}"),
            }
        }
    });
    let stats = cluster.shutdown();

    // -- SLO check --------------------------------------------------------
    // Bucketed quantiles over-estimate by at most 4.4%, so the SLO check
    // below is, if anything, stricter than on the raw samples.
    let p50_ms = wall_latency.quantile(0.50) * 1e3;
    let p99_ms = wall_latency.quantile(0.99) * 1e3;
    let rejection_frac = stats.rejection_fraction();

    assert_eq!(stats.submitted, total_requests as u64);
    assert_eq!(stats.accepted + stats.rejected, stats.submitted);
    assert_eq!(stats.rejected, dropped);
    // +1: the rollout's canary verification probe is served by replica 0
    // directly, outside the cluster's admission ledger.
    assert_eq!(stats.total.requests_completed, stats.accepted + 1);
    assert_eq!(stats.total.model_swaps as usize, REPLICAS);

    println!("\n{stats}");
    println!("\nopen-loop workload ({PHASES} phases x {PHASE_LEN} requests):");
    println!("  wall time            : {:?}", start.elapsed());
    println!("  routed per replica   : {routed_per_replica:?}");
    println!("  wall latency p50     : {p50_ms:.3} ms");
    println!("  wall latency p99     : {p99_ms:.3} ms  (SLO {SLO_P99_MS} ms)");
    println!("  rejection fraction   : {rejection_frac:.4}  (SLO {SLO_REJECTION_FRAC})");
    assert!(
        p99_ms <= SLO_P99_MS,
        "p99 wall latency {p99_ms:.3} ms exceeds the {SLO_P99_MS} ms SLO"
    );
    assert!(
        rejection_frac <= SLO_REJECTION_FRAC,
        "rejection fraction {rejection_frac:.4} exceeds the {SLO_REJECTION_FRAC} SLO"
    );
    println!("  SLOs                 : PASS");

    // -- Publish for bench-gate -------------------------------------------
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    merge_bench_json::<&str>(
        &out,
        "kernels",
        &[],
        &[
            ("cluster_p99_ms", p99_ms),
            ("cluster_rejection_frac", rejection_frac),
        ],
    )
    .expect("writable workspace root");
}

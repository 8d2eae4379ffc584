//! SLO-aware adaptive governance over a mixed-priority bursty workload.
//!
//! Three tenants share a 2-replica fleet: an `interactive` tenant
//! (High priority, tight p99 SLO) and two background tenants (`batch`
//! at Normal, `best-effort` at Low). Each tenant's branch pair — the
//! full-quality 1:4 artifact and its cheaper 1:8 sibling — is published
//! together by `pim-learn`'s `compiled_pair`, from one training state.
//!
//! The load runs open-loop in three wall-clock phases: calm, a burst
//! that floods the background tenants far past the fleet's service
//! rate, then calm again. A governor ticks on a fixed period the whole
//! time, sampling pressure from the telemetry the stack already emits:
//! under the burst it demotes the Low tenant first, then Normal, widens
//! batch coalescing, and finally sheds at admission — and when the
//! burst clears it unwinds every rung in exact reverse order.
//!
//! Outcomes asserted (and merged into `BENCH_kernels.json` for
//! `bench-gate`):
//! * `governor_p99_ms_hi_prio` — the interactive tenant's p99 wall
//!   latency held under its SLO through the burst,
//! * `governor_shed_frac` — the fraction of all governed submissions
//!   refused at admission (bounded, not runaway),
//! * `governor_recovery_ticks` — ticks from end-of-load until the
//!   ladder fully unwinds (bounded recovery time).
//!
//! The high-priority tenant is never demoted — its SLO is what the
//! ladder is defending. Set `GOVERNOR_REDUCED=1` for the CI smoke
//! variant (same shape, smaller counts).
//!
//! Run with: `cargo run --release --example governor`

use pim_bench::merge_bench_json;
use pim_cluster::ClusterBuilder;
use pim_data::SyntheticSpec;
use pim_governor::{
    Governor, GovernorConfig, GovernorError, GovernorEvent, LadderConfig, Priority, TenantSlo,
    TenantSpec, Tier,
};
use pim_learn::{LearnEngine, OnlineLearnerConfig, WritePolicy};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::Telemetry;
use pim_sparse::NmPattern;
use pim_telemetry::{Histogram, LATENCY_BUCKETS};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const NUM_CLASSES: usize = 10;
const REPLICAS: usize = 2;
const TICK_MS: u64 = 15;

/// SLO ceilings (mirrored by `bench-gate`).
const SLO_HI_PRIO_P99_MS: f64 = 250.0;
const SLO_SHED_FRAC: f64 = 0.90;
const SLO_RECOVERY_TICKS: f64 = 400.0;

/// One tenant's open-loop schedule: mean inter-arrival gaps in µs, plus
/// how many requests arrive back-to-back per burst wakeup (sleep
/// granularity alone cannot out-pace the fleet's batched service rate,
/// so bursting tenants arrive in clumps — as real queue floods do).
struct TenantLoad {
    name: &'static str,
    priority: Priority,
    slo: TenantSlo,
    seed: u64,
    calm_gap_us: f64,
    burst_gap_us: f64,
    burst_group: usize,
}

/// xorshift64 → uniform in (0, 1].
fn uniform(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    ((*state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

fn exp_gap_us(state: &mut u64, mean_us: f64) -> f64 {
    -mean_us * uniform(state).ln()
}

fn tenant_pair(name: &str, seed: u64) -> (pim_runtime::CompiledModel, pim_runtime::CompiledModel) {
    let mut model = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: NUM_CLASSES,
            seed,
        },
    );
    // Full-quality branch: the paper's 1:4 scheme.
    model.apply_pattern(NmPattern::one_of_four());
    let engine = LearnEngine::new(
        name,
        model,
        OnlineLearnerConfig {
            replay_capacity: 64,
            batch_size: 8,
            seed,
            ..OnlineLearnerConfig::default()
        },
        WritePolicy::hybrid_dac24(1 << 22),
    )
    .expect("model fits the PEs");
    engine
        .compiled_pair(NmPattern::one_of_eight())
        .expect("degraded branch compiles")
}

fn main() {
    let reduced = std::env::var("GOVERNOR_REDUCED").is_ok_and(|v| v == "1");
    // Wall-clock phase lengths. The reduced variant keeps the same shape
    // (calm → saturating burst → calm) at half the duration.
    let (calm_ms, burst_ms, cooldown_ms) = if reduced {
        (200u64, 500u64, 300u64)
    } else {
        (400u64, 1_000u64, 600u64)
    };
    println!("=== pim-governor: adaptive SLO governance under a mixed-priority burst ===");
    println!(
        "scenario: {} (calm {calm_ms} ms, burst {burst_ms} ms, cooldown {cooldown_ms} ms)\n",
        if reduced { "reduced" } else { "full" }
    );

    // -- Tenants -----------------------------------------------------------
    let loads = [
        TenantLoad {
            name: "interactive",
            priority: Priority::High,
            slo: TenantSlo {
                p99_latency: Duration::from_millis(SLO_HI_PRIO_P99_MS as u64),
                energy_per_request_pj: f64::INFINITY,
            },
            seed: 11,
            calm_gap_us: 4_000.0,
            burst_gap_us: 4_000.0, // steady — the burst comes from the others
            burst_group: 1,
        },
        TenantLoad {
            name: "batch",
            priority: Priority::Normal,
            slo: TenantSlo::default(),
            seed: 22,
            calm_gap_us: 8_000.0,
            burst_gap_us: 600.0,
            burst_group: 16,
        },
        TenantLoad {
            name: "best-effort",
            priority: Priority::Low,
            slo: TenantSlo::default(),
            seed: 33,
            calm_gap_us: 8_000.0,
            burst_gap_us: 400.0,
            burst_group: 24,
        },
    ];

    let telemetry = Telemetry::new();
    let mut builder = Governor::builder()
        .config(GovernorConfig {
            ladder: LadderConfig {
                high_watermark: 0.5,
                low_watermark: 0.2,
                demote_after: 2,
                promote_after: 2,
                dwell_ticks: 2,
            },
            ..GovernorConfig::default()
        })
        .telemetry(telemetry.clone());
    let ids: Vec<_> = loads
        .iter()
        .map(|l| {
            let (full, degraded) = tenant_pair(l.name, l.seed);
            println!(
                "tenant {:<12} {:<7} full={full} degraded={degraded}",
                l.name, l.priority
            );
            builder.tenant(TenantSpec {
                name: l.name.into(),
                priority: l.priority,
                slo: l.slo,
                full,
                degraded,
            })
        })
        .collect();
    let governor = builder
        .start(
            ClusterBuilder::new()
                .replicas(REPLICAS)
                .workers(1)
                .queue_capacity(8)
                .max_batch(8)
                .max_wait(Duration::from_micros(500)),
        )
        .expect("compatible tenant pairs");
    println!(
        "\nfleet: {} replicas, {} healthy; tick period {TICK_MS} ms\n",
        governor.cluster().replica_count(),
        governor.cluster().healthy_replicas()
    );

    // -- Drive -------------------------------------------------------------
    let total_ms = calm_ms + burst_ms + cooldown_ms;
    let hi_wall_latency = Histogram::new(&LATENCY_BUCKETS);
    let drivers_done = AtomicBool::new(false);
    let recovery_ticks: Mutex<Option<u64>> = Mutex::new(None);
    let start = Instant::now();
    std::thread::scope(|scope| {
        // One open-loop driver per tenant.
        for (load, &id) in loads.iter().zip(&ids) {
            let governor = &governor;
            let hi_wall_latency = &hi_wall_latency;
            scope.spawn(move || {
                let input: Tensor = SyntheticSpec::cifar10_like()
                    .with_geometry(8, 1)
                    .with_samples(1, 4)
                    .generate()
                    .expect("synthetic task")
                    .test
                    .inputs()
                    .batch_item(0);
                let mut rng = load.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                loop {
                    let elapsed_ms = start.elapsed().as_millis() as u64;
                    if elapsed_ms >= total_ms {
                        break;
                    }
                    let in_burst = elapsed_ms >= calm_ms && elapsed_ms < calm_ms + burst_ms;
                    let gap = if in_burst {
                        load.burst_gap_us
                    } else {
                        load.calm_gap_us
                    };
                    std::thread::sleep(Duration::from_micros(exp_gap_us(&mut rng, gap) as u64));
                    let group = if in_burst { load.burst_group } else { 1 };
                    for _ in 0..group {
                        match governor.submit(id, &input) {
                            Ok(ticket) if load.priority == Priority::High => {
                                let submitted = Instant::now();
                                scope.spawn(move || {
                                    ticket.wait().expect("accepted ticket answered");
                                    hi_wall_latency.observe(submitted.elapsed().as_secs_f64());
                                });
                            }
                            // Background tickets are fire-and-forget; the
                            // fleet serves (or drops the reply of) each.
                            Ok(_ticket) => {}
                            // Open loop: shed/saturated arrivals are
                            // dropped, never retried (they're in the
                            // ledger).
                            Err(GovernorError::Shed { .. }) | Err(GovernorError::Cluster(_)) => {}
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    }
                }
            });
        }
        // The governor tick loop: fixed period, live pressure sampling;
        // after the drivers stop, keep ticking until the ladder fully
        // unwinds and record how many ticks that recovery took.
        let governor = &governor;
        let drivers_done = &drivers_done;
        let recovery_ticks = &recovery_ticks;
        scope.spawn(move || {
            let mut ticks_after_load = 0u64;
            loop {
                std::thread::sleep(Duration::from_millis(TICK_MS));
                governor.tick();
                if start.elapsed().as_millis() as u64 >= total_ms {
                    drivers_done.store(true, Ordering::Relaxed);
                    ticks_after_load += 1;
                    if governor.report().ladder_depth == 0 {
                        *recovery_ticks.lock().expect("recovery lock") = Some(ticks_after_load);
                        break;
                    }
                    assert!(
                        ticks_after_load < 2_000,
                        "ladder failed to unwind after the burst"
                    );
                }
            }
        });
    });

    let recovery = recovery_ticks
        .lock()
        .expect("recovery lock")
        .expect("tick loop recorded recovery");
    let (stats, report) = governor.shutdown();

    // -- Outcomes ----------------------------------------------------------
    assert!(
        hi_wall_latency.count() > 0,
        "interactive tenant saw traffic"
    );
    // The bucketed p99 over-estimates by at most 4.4%: a stricter check.
    let hi_p99_ms = hi_wall_latency.quantile(0.99) * 1e3;
    let shed_frac = report.shed_frac();

    println!("{report}");
    println!("decision trace:");
    for e in &report.events {
        println!("  {e}");
    }
    println!("\ncluster admission: {:?}", stats.rejection_fraction());
    println!("hi-prio wall p99     : {hi_p99_ms:.3} ms  (SLO {SLO_HI_PRIO_P99_MS} ms)");
    println!("shed fraction        : {shed_frac:.4}  (ceiling {SLO_SHED_FRAC})");
    println!("recovery ticks       : {recovery}  (ceiling {SLO_RECOVERY_TICKS})");

    // The ladder moved: background tenants demoted under the burst and
    // the fleet fully recovered afterwards.
    let hi_idx = ids[0].index();
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, GovernorEvent::Demoted { .. })),
        "the burst must demote at least one background tenant"
    );
    assert!(
        !report
            .events
            .iter()
            .any(|e| matches!(e, GovernorEvent::Demoted { tenant, .. } if *tenant == hi_idx)),
        "the high-priority tenant must never demote"
    );
    assert_eq!(report.ladder_depth, 0, "full recovery");
    for (l, &id) in loads.iter().zip(&ids) {
        assert_eq!(
            governor_tier(&report, id.index()),
            Tier::Full,
            "{} back at full quality",
            l.name
        );
    }
    assert!(report.conserves(), "per-tenant ledgers conserve");
    assert!(
        hi_p99_ms <= SLO_HI_PRIO_P99_MS,
        "hi-prio p99 {hi_p99_ms:.3} ms exceeds the {SLO_HI_PRIO_P99_MS} ms SLO"
    );
    assert!(
        shed_frac <= SLO_SHED_FRAC,
        "shed fraction {shed_frac:.4} exceeds the {SLO_SHED_FRAC} ceiling"
    );
    assert!(
        (recovery as f64) <= SLO_RECOVERY_TICKS,
        "recovery took {recovery} ticks, ceiling {SLO_RECOVERY_TICKS}"
    );
    println!("SLOs                 : PASS");

    // -- Publish for bench-gate -------------------------------------------
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    merge_bench_json::<&str>(
        &out,
        "kernels",
        &[],
        &[
            ("governor_p99_ms_hi_prio", hi_p99_ms),
            ("governor_shed_frac", shed_frac),
            ("governor_recovery_ticks", recovery as f64),
        ],
    )
    .expect("writable workspace root");
}

fn governor_tier(report: &pim_governor::GovernorReport, tenant: usize) -> Tier {
    report.tenants[tenant].tier
}

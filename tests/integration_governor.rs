//! Integration: the adaptive governor's determinism contract.
//!
//! * The decision trace is a pure function of the pressure schedule —
//!   an exact demote/promote/shed event sequence is pinned here.
//! * Post-recovery serving is bit-exact with a never-degraded fleet for
//!   every tenant (promotion swaps the same full artifact back in).
//! * The per-tenant admission ledger conserves under arbitrary
//!   interleavings of submissions and ladder movement (proptest).

use pim_cluster::ClusterBuilder;
use pim_governor::{
    Governor, GovernorConfig, GovernorError, GovernorEvent, LadderConfig, PressureSample, Priority,
    TenantId, TenantSlo, TenantSpec, Tier,
};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::{CompiledModel, RuntimeError};
use pim_sparse::NmPattern;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

const NUM_CLASSES: usize = 5;

/// One tenant's branch pair: the 1:4 full artifact and its 1:8 sibling,
/// both from the same seeded weights.
fn branch_pair(name: &str, seed: u64) -> (CompiledModel, CompiledModel) {
    let mut model = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: NUM_CLASSES,
            seed,
        },
    );
    model.apply_pattern(NmPattern::one_of_four());
    let full = CompiledModel::compile(format!("{name}-full"), &model).expect("compile full");
    model.apply_pattern(NmPattern::one_of_eight());
    let degraded =
        CompiledModel::compile(format!("{name}-degraded"), &model).expect("compile degraded");
    (full, degraded)
}

/// Compiled once, cloned into every test's governor.
fn pairs() -> &'static [(CompiledModel, CompiledModel); 3] {
    static PAIRS: OnceLock<[(CompiledModel, CompiledModel); 3]> = OnceLock::new();
    PAIRS.get_or_init(|| {
        [
            branch_pair("interactive", 101),
            branch_pair("batch", 202),
            branch_pair("best-effort", 303),
        ]
    })
}

/// High, Normal, Low — in that registration order. Returns the governor
/// plus the three tenant handles in the same order.
fn governor(queue_capacity: usize) -> (Governor, Vec<TenantId>) {
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let mut builder = Governor::builder().config(GovernorConfig {
        ladder: LadderConfig {
            high_watermark: 0.75,
            low_watermark: 0.25,
            demote_after: 2,
            promote_after: 2,
            dwell_ticks: 1,
        },
        ..GovernorConfig::default()
    });
    let ids: Vec<TenantId> = pairs()
        .iter()
        .zip(priorities)
        .map(|((full, degraded), priority)| {
            builder.tenant(TenantSpec {
                name: format!("{priority}"),
                priority,
                slo: TenantSlo::default(),
                full: full.clone(),
                degraded: degraded.clone(),
            })
        })
        .collect();
    let g = builder
        .start(
            ClusterBuilder::new()
                .replicas(1)
                .workers(1)
                .queue_capacity(queue_capacity)
                .max_wait(Duration::ZERO),
        )
        .expect("compatible pairs");
    (g, ids)
}

fn probe(full: &CompiledModel) -> Tensor {
    let mut shape = vec![1];
    shape.extend_from_slice(full.input_shape());
    Tensor::ones(&shape)
}

/// Drives `governor` with a pressure-score schedule, returning the
/// events it emitted.
fn drive(governor: &Governor, schedule: &[f64]) -> Vec<GovernorEvent> {
    schedule
        .iter()
        .filter_map(|&p| governor.tick_with(PressureSample::from_score(p)))
        .collect()
}

#[test]
fn seeded_pressure_schedule_pins_the_exact_decision_trace() {
    // 8 hot ticks walk the full descent one rung at a time; 8 calm
    // ticks unwind it in exact reverse order.
    let schedule: Vec<f64> = std::iter::repeat_n(1.0, 8)
        .chain(std::iter::repeat_n(0.0, 8))
        .collect();
    let expected = vec![
        GovernorEvent::Demoted { tick: 2, tenant: 2 }, // Low first
        GovernorEvent::Demoted { tick: 4, tenant: 1 }, // then Normal
        GovernorEvent::BatchWidened { tick: 6 },
        GovernorEvent::ShedStarted { tick: 8, tenant: 2 },
        GovernorEvent::ShedStopped {
            tick: 10,
            tenant: 2,
        },
        GovernorEvent::BatchRestored { tick: 12 },
        GovernorEvent::Promoted {
            tick: 14,
            tenant: 1,
        },
        GovernorEvent::Promoted {
            tick: 16,
            tenant: 2,
        },
    ];
    let (g1, _) = governor(16);
    let trace1 = drive(&g1, &schedule);
    assert_eq!(trace1, expected, "the trace is pinned");
    let report = g1.report();
    assert_eq!(report.events, expected);
    assert_eq!(report.ladder_depth, 0, "fully unwound");
    assert_eq!(report.ticks, 16);
    assert_eq!(report.tenants[1].demotions, 1);
    assert_eq!(report.tenants[1].promotions, 1);
    assert_eq!(report.tenants[0].demotions, 0, "High is never demoted");

    // Same schedule, fresh governor: identical trace (determinism).
    let (g2, _) = governor(16);
    assert_eq!(drive(&g2, &schedule), trace1);
}

#[test]
fn mid_band_pressure_holds_the_ladder_still() {
    let (g, _) = governor(16);
    // Two hot ticks demote once; then mid-band pressure (between the
    // watermarks) must neither demote further nor recover.
    drive(&g, &[1.0, 1.0]);
    assert_eq!(g.report().ladder_depth, 1);
    let moved = drive(&g, &[0.5; 12]);
    assert!(moved.is_empty(), "hysteresis band holds the status quo");
    assert_eq!(g.report().ladder_depth, 1);
}

#[test]
fn degraded_then_recovered_serving_is_bit_exact_per_tier() {
    let (g, ids) = governor(16);
    let (hi, lo) = (ids[0], ids[2]);
    let (hi_full, _) = &pairs()[0];
    let (lo_full, lo_degraded) = &pairs()[2];

    // Descend far enough to demote the Low tenant (2 hot ticks).
    drive(&g, &[1.0, 1.0]);
    assert_eq!(g.tier(lo).expect("known"), Tier::Degraded);
    assert_eq!(g.tier(hi).expect("known"), Tier::Full);

    // While degraded, the Low tenant serves its degraded branch
    // bit-exactly; the High tenant is untouched.
    let lo_probe = probe(lo_full);
    let served = g.infer(lo, &lo_probe).expect("served");
    let (expect_degraded, _) = lo_degraded.infer_reference(&lo_probe);
    assert_eq!(served.logits, expect_degraded.as_slice().to_vec());

    let hi_probe = probe(hi_full);
    let hi_served = g.infer(hi, &hi_probe).expect("served");
    let (expect_hi, _) = hi_full.infer_reference(&hi_probe);
    assert_eq!(hi_served.logits, expect_hi.as_slice().to_vec());

    // Recover fully; post-recovery serving is bit-exact with a fleet
    // that never degraded (it's the same full artifact again).
    drive(&g, &[0.0; 4]);
    assert_eq!(g.tier(lo).expect("known"), Tier::Full);
    let recovered = g.infer(lo, &lo_probe).expect("served");
    let (expect_full, _) = lo_full.infer_reference(&lo_probe);
    assert_eq!(recovered.logits, expect_full.as_slice().to_vec());
    assert_eq!(
        g.infer(hi, &hi_probe).expect("served").logits,
        expect_hi.as_slice().to_vec(),
        "high-priority serving identical before, during, and after"
    );
}

#[test]
fn shed_tenant_is_refused_at_admission_and_readmitted() {
    let (g, ids) = governor(16);
    let lo = ids[2];
    let (lo_full, _) = &pairs()[2];
    let input = probe(lo_full);
    // Full descent: demote x2, widen, shed Low.
    drive(&g, &[1.0; 8]);
    assert_eq!(g.tier(lo).expect("known"), Tier::Shed);
    assert!(matches!(
        g.submit(lo, &input),
        Err(GovernorError::Shed { .. })
    ));
    // Validation failures are not counted against the ledger.
    assert!(matches!(
        g.submit(lo, &Tensor::ones(&[2, 8, 8])),
        Err(GovernorError::BadInput { .. })
    ));
    let nan = Tensor::from_fn(input.shape(), |i| if i == 1 { f32::NAN } else { 0.0 });
    assert!(matches!(
        g.submit(lo, &nan),
        Err(GovernorError::BadInput(RuntimeError::NonFiniteInput {
            index: 1
        }))
    ));
    // Recovery re-admits.
    drive(&g, &[0.0; 4]);
    assert_eq!(g.tier(lo).expect("known"), Tier::Degraded);
    g.infer(lo, &input).expect("re-admitted");
    let report = g.report();
    assert_eq!(report.tenants[2].shed, 1);
    assert!(report.conserves());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under arbitrary interleavings of per-tenant submissions and
    /// ladder movement, every tenant's ledger conserves:
    /// `accepted + shed + rejected == submitted`, and the counts match
    /// what the caller observed.
    #[test]
    fn admission_ledger_conserves_per_tenant(
        ops in proptest::collection::vec((0usize..4, 0.0f64..1.2), 30..120)
    ) {
        // Tiny queue so cluster rejections actually happen.
        let (g, ids) = governor(2);
        let inputs: Vec<Tensor> = pairs().iter().map(|(full, _)| probe(full)).collect();
        let mut observed = [[0u64; 3]; 3]; // [tenant][accepted, shed, rejected]
        let mut tickets = Vec::new();
        for (op, pressure) in ops {
            if op < 3 {
                match g.submit(ids[op], &inputs[op]) {
                    Ok(t) => { observed[op][0] += 1; tickets.push(t); }
                    Err(GovernorError::Shed { .. }) => observed[op][1] += 1,
                    Err(GovernorError::Cluster(_)) => observed[op][2] += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            } else {
                // Ladder movement interleaved with traffic. A rung whose
                // hot-swap canary finds no queue room defers and retries;
                // occasionally drain so progress happens either way.
                g.tick_with(PressureSample::from_score(pressure));
                for t in tickets.drain(..) { let _ = t.wait(); }
            }
        }
        for t in tickets.drain(..) { let _ = t.wait(); }
        let report = g.report();
        prop_assert!(report.conserves(), "ledger must conserve: {report}");
        for (i, tr) in report.tenants.iter().enumerate() {
            prop_assert_eq!(tr.accepted, observed[i][0]);
            prop_assert_eq!(tr.shed, observed[i][1]);
            prop_assert_eq!(tr.rejected, observed[i][2]);
            prop_assert_eq!(
                tr.submitted,
                observed[i].iter().sum::<u64>(),
                "tenant {}: submitted must equal the observed outcomes", i
            );
        }
    }
}

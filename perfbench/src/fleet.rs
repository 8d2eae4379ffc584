//! Governed fleets shared by the two serving workloads: timed set-up,
//! reference answers per tenant tier, and the serving-side layer
//! readings.

use crate::models::{self, bit_equal, Size};
use crate::report::Metrics;
use crate::stats::{self, Rng};
use crate::trace::{timed, Tracer};
use pim_governor::{
    ClusterBuilder, ClusterStats, CompiledModel, Governor, GovernorReport, Priority, TenantId,
    TenantSlo, TenantSpec,
};
use pim_nn::tensor::Tensor;
use pim_runtime::PoolCounters;
use pim_telemetry::Telemetry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 31;

/// Inputs generated per tenant.
pub const POOL: usize = 64;

/// One tenant of a workload.
#[derive(Debug, Clone, Copy)]
pub struct TenantDef {
    pub name: &'static str,
    pub priority: Priority,
    /// Model weight seed (fixed, not the workload seed).
    pub model_seed: u64,
    pub p99_limit: Duration,
}

/// A started fleet plus everything needed to check its answers.
pub struct Fleet {
    pub governor: Governor,
    pub ids: Vec<TenantId>,
    /// Per tenant: generated inputs.
    pub pools: Vec<Vec<Tensor>>,
    /// Per tenant: reference logits of the full and degraded tiers.
    pub refs: Vec<[Vec<Vec<f32>>; 2]>,
    /// Wall seconds of each set-up: compile, and compile plus start.
    pub compile_s: Vec<f64>,
    pub setup_s: Vec<f64>,
}

impl Fleet {
    /// Compiles every tenant's tier pair and starts the governed fleet,
    /// [`SETUPS`] times; all but the last are shut down again. Inputs and
    /// reference answers are prepared after the timed set-ups.
    pub fn start(
        size: Size,
        tenants: &[TenantDef],
        cluster: impl Fn() -> ClusterBuilder,
        telemetry: Option<&Arc<Telemetry>>,
        seed: u64,
    ) -> Fleet {
        let mut compile_s = Vec::with_capacity(SETUPS);
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut last = None;
        for i in 0..SETUPS {
            let t0 = Instant::now();
            let pairs: Vec<(CompiledModel, CompiledModel)> = tenants
                .iter()
                .map(|t| models::tenant_pair(t.name, size, t.model_seed))
                .collect();
            let compiled = t0.elapsed();
            let mut builder = Governor::builder();
            if let Some(tel) = telemetry.filter(|_| i + 1 == SETUPS) {
                builder = builder.telemetry(Arc::clone(tel));
            }
            let ids: Vec<TenantId> = tenants
                .iter()
                .zip(&pairs)
                .map(|(t, (full, degraded))| {
                    builder.tenant(TenantSpec {
                        name: t.name.into(),
                        priority: t.priority,
                        slo: TenantSlo {
                            p99_latency: t.p99_limit,
                            ..TenantSlo::default()
                        },
                        full: full.clone(),
                        degraded: degraded.clone(),
                    })
                })
                .collect();
            let governor = builder.start(cluster()).expect("tier pairs are compatible");
            setup_s.push(t0.elapsed().as_secs_f64());
            compile_s.push(compiled.as_secs_f64());
            if i + 1 < SETUPS {
                governor.shutdown();
            } else {
                last = Some((governor, ids, pairs));
            }
        }
        let (governor, ids, pairs) = last.expect("at least one set-up");
        let mut pools = Vec::with_capacity(tenants.len());
        let mut refs = Vec::with_capacity(tenants.len());
        for (i, (full, degraded)) in pairs.iter().enumerate() {
            let mut rng = Rng::new(seed, 100 + i as u64);
            let pool = models::inputs(&mut rng, full.input_shape(), POOL);
            refs.push([
                models::references(full, &pool),
                models::references(degraded, &pool),
            ]);
            pools.push(pool);
        }
        Fleet {
            governor,
            ids,
            pools,
            refs,
            compile_s,
            setup_s,
        }
    }

    /// Whether `logits` is tenant `tenant`'s full- or degraded-tier
    /// answer for input `input`.
    pub fn check(&self, tenant: usize, input: usize, logits: &[f32]) -> bool {
        self.refs[tenant]
            .iter()
            .any(|tier| bit_equal(&tier[input], logits))
    }

    /// Median set-up and compile times.
    pub fn setup_medians(&self) -> (f64, f64) {
        (stats::median(&self.setup_s), stats::median(&self.compile_s))
    }

    pub fn shutdown(self) -> (ClusterStats, GovernorReport) {
        self.governor.shutdown()
    }
}

/// Per-request observations the serving layers are summarised from.
#[derive(Debug, Default)]
pub struct ServeSamples {
    pub batch_sizes: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    /// Requests accepted per replica (from `GovernorTicket::replica`).
    pub per_replica: Vec<u64>,
    pub queue_depths: Vec<f64>,
}

impl ServeSamples {
    pub fn new(replicas: usize) -> Self {
        Self {
            per_replica: vec![0; replicas],
            ..Self::default()
        }
    }
}

/// Stage names of `pim_runtime_stage_seconds`.
const STAGES: [&str; 4] = ["queue", "batch_form", "compute", "reply"];

/// `pim-cluster` and `pim-runtime` readings of a serving run. Stage
/// times are the mean of the runtime's own stage histograms (their
/// buckets are a factor of 4 apart, too coarse for a percentile).
pub fn serve_layers(
    m: &mut Metrics,
    s: &ServeSamples,
    stats: &ClusterStats,
    telemetry: Option<&Arc<Telemetry>>,
) {
    let accepted: u64 = s.per_replica.iter().sum();
    let mean = accepted as f64 / s.per_replica.len().max(1) as f64;
    let max = s.per_replica.iter().copied().max().unwrap_or(0) as f64;
    m.layer(
        "cluster.route_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
        accepted,
    );
    m.layer(
        "cluster.queue_depth_mean",
        stats::mean(&s.queue_depths),
        "count",
        s.queue_depths.len() as u64,
    );
    runtime_layers(m, &s.batch_sizes, &s.queue_wait_ms, stats.total.model_swaps);
    stage_layers(m, telemetry, stats.replicas);
}

/// `pim-runtime` readings taken from `InferResponse`s.
pub fn runtime_layers(m: &mut Metrics, batch_sizes: &[f64], queue_wait_ms: &[f64], swaps: u64) {
    let n = queue_wait_ms.len() as u64;
    let waits = stats::sorted(queue_wait_ms);
    m.layer(
        "runtime.batch_size_mean",
        stats::mean(batch_sizes),
        "count",
        n,
    );
    m.layer(
        "runtime.queue_wait_ms_p50",
        stats::nearest_rank(&waits, 0.5).unwrap_or(0.0),
        "ms",
        n,
    );
    m.layer(
        "runtime.queue_wait_ms_p99",
        stats::tail_percentile(&waits, 0.99).unwrap_or(0.0),
        "ms",
        n,
    );
    m.layer("runtime.swaps", swaps as f64, "count", 1);
}

/// Mean stage times from the runtime's `pim_runtime_stage_seconds`
/// histograms, pooled over `replicas` labelled replicas (0 = one
/// unlabelled runtime).
pub fn stage_layers(m: &mut Metrics, telemetry: Option<&Arc<Telemetry>>, replicas: usize) {
    let labels: Vec<Option<String>> = if replicas == 0 {
        vec![None]
    } else {
        (0..replicas).map(|r| Some(r.to_string())).collect()
    };
    for stage in STAGES {
        let (mut sum, mut count) = (0.0, 0u64);
        for (tel, replica) in telemetry
            .iter()
            .flat_map(|t| labels.iter().map(move |r| (t, r)))
        {
            let mut l = vec![("stage", stage)];
            l.extend(replica.as_deref().map(|r| ("replica", r)));
            if let Some(h) = tel.registry.find_histogram("pim_runtime_stage_seconds", &l) {
                let snap = h.snapshot();
                sum += snap.sum();
                count += snap.count();
            }
        }
        let mean_ms = if count > 0 {
            sum / count as f64 * 1e3
        } else {
            0.0
        };
        m.layer(
            format!("runtime.stage_{stage}_ms_mean"),
            mean_ms,
            "ms",
            count,
        );
    }
}

/// The compute-pool counters summed over every replica of the fleet.
pub fn pool_counters(governor: &Governor) -> PoolCounters {
    let cluster = governor.cluster();
    sum_counters((0..cluster.replica_count()).map(|r| cluster.runtime(r).pool_counters()))
}

/// Field-wise sum of pool counter snapshots.
pub fn sum_counters(all: impl IntoIterator<Item = PoolCounters>) -> PoolCounters {
    let mut sum = PoolCounters::default();
    for c in all {
        sum.jobs += c.jobs;
        sum.inline_jobs += c.inline_jobs;
        sum.steals += c.steals;
        sum.splits += c.splits;
        sum.parks += c.parks;
    }
    sum
}

/// `pim-par` readings: pool activity between two counter snapshots.
pub fn par_layers(m: &mut Metrics, before: &PoolCounters, after: &PoolCounters) {
    let jobs = after.jobs - before.jobs;
    let steals = after.steals - before.steals;
    m.layer("par.jobs", jobs as f64, "count", 1);
    m.layer(
        "par.inline_jobs",
        (after.inline_jobs - before.inline_jobs) as f64,
        "count",
        1,
    );
    m.layer("par.steals", steals as f64, "count", 1);
    m.layer(
        "par.splits",
        (after.splits - before.splits) as f64,
        "count",
        1,
    );
    m.layer("par.parks", (after.parks - before.parks) as f64, "count", 1);
    m.layer(
        "par.steal_ratio",
        steals as f64 / jobs.max(1) as f64,
        "ratio",
        jobs,
    );
}

/// Generator readings: how late requests were sent (open loop: after
/// their due time; closed loop: after the slot they refill freed up),
/// and the most requests outstanding at once.
pub fn generator_layers(l: &mut Metrics, lateness_ms: &[f64], max_backlog: usize) {
    let sorted = stats::sorted(lateness_ms);
    l.layer(
        "gen.lateness_p99_ms",
        stats::tail_percentile(&sorted, 0.99).unwrap_or(0.0),
        "ms",
        sorted.len() as u64,
    );
    l.layer("gen.max_backlog", max_backlog as f64, "count", 1);
}

/// `pim-governor` call timings from the `governor.submit` and
/// `governor.tick` spans.
pub fn governor_layers(l: &mut Metrics, tr: &Tracer) {
    let submits = stats::sorted(&tr.durations_us("governor.submit"));
    let n = submits.len() as u64;
    let p50 = stats::nearest_rank(&submits, 0.5).unwrap_or(0.0);
    let p99 = stats::tail_percentile(&submits, 0.99).unwrap_or(0.0);
    l.layer("governor.submit_us_p50", p50, "us", n);
    l.layer("governor.submit_us_p99", p99, "us", n);
    let ticks = tr.durations_us("governor.tick");
    let n = ticks.len() as u64;
    l.layer("governor.tick_us_p50", stats::median(&ticks), "us", n);
}

/// For a workload that serves without a governor: starts a one-tenant,
/// one-replica governed fleet on `tenant`'s model, and records
/// `PROBE_CALLS` sequential `submit` + `wait` and `PROBE_CALLS` `tick`
/// calls as spans. Returns the governor's report.
pub fn governor_probe(
    size: Size,
    tenant: TenantDef,
    inputs: &[Tensor],
    tr: &Tracer,
) -> GovernorReport {
    const PROBE_CALLS: usize = 1_000;
    let (full, degraded) = models::tenant_pair(tenant.name, size, tenant.model_seed);
    let mut builder = Governor::builder();
    let id = builder.tenant(TenantSpec {
        name: tenant.name.into(),
        priority: tenant.priority,
        slo: TenantSlo {
            p99_latency: tenant.p99_limit,
            ..TenantSlo::default()
        },
        full,
        degraded,
    });
    let cluster = ClusterBuilder::new().replicas(1).workers(1).par_threads(1);
    let governor = builder.start(cluster).expect("tier pair is compatible");
    for i in 0..PROBE_CALLS {
        let input = &inputs[i % inputs.len()];
        let ticket = timed(Some(tr), "governor.submit", None, Some(i as u64), || {
            governor.submit(id, input)
        })
        .expect("an idle fleet admits the request");
        ticket
            .wait()
            .expect("the fleet answers every admitted request");
        timed(Some(tr), "governor.tick", None, None, || governor.tick());
    }
    governor.shutdown().1
}

/// `pim-governor` readings: admission refusals and ladder events.
pub fn governor_counts(m: &mut Metrics, report: &GovernorReport) {
    let shed: u64 = report.tenants.iter().map(|t| t.shed).sum();
    let rejected: u64 = report.tenants.iter().map(|t| t.rejected).sum();
    m.layer("governor.shed", shed as f64, "count", 1);
    m.layer("governor.rejected", rejected as f64, "count", 1);
    m.layer("governor.events", report.events.len() as f64, "count", 1);
}

//! The cluster: N replicated runtimes behind one router.

use crate::error::ClusterError;
use crate::router::Router;
use crate::stats::ClusterStats;
use crate::telemetry::ClusterTelemetry;
use pim_nn::tensor::Tensor;
use pim_runtime::{
    validate_input, BatchPolicy, CompiledModel, InferResponse, ModelId, Runtime, RuntimeError,
    Telemetry, Ticket,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configures and starts a [`Cluster`].
///
/// Every registered model is set to the fleet's `macro_groups` simulated
/// macro groups **once** ([`CompiledModel::shard`], which overrides any
/// group count the artifact already carried), then cloned into each of
/// `replicas` independent [`Runtime`]s — so the fleet is
/// `replicas × macro_groups` macros of simulated silicon serving
/// `replicas` copies of the model.
#[derive(Debug)]
pub struct ClusterBuilder {
    replicas: usize,
    macro_groups: usize,
    workers: usize,
    queue_capacity: usize,
    max_batch: usize,
    max_wait: Duration,
    par_threads: usize,
    router_seed: u64,
    telemetry: Option<Arc<Telemetry>>,
    models: Vec<CompiledModel>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    pub fn new() -> Self {
        Self {
            replicas: 2,
            macro_groups: 1,
            workers: 1,
            queue_capacity: 64,
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            // Each replica owns a full runtime (workers + compute pool);
            // default the intra-request pool to width 1 so an N-replica
            // cluster does not multiply `cores` threads per replica.
            par_threads: 1,
            router_seed: 0xc1a5_7e12_5eed_0001,
            telemetry: None,
            models: Vec::new(),
        }
    }

    /// Number of full model replicas (min 1).
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// Simulated macro groups each replica shards its tiles across
    /// (min 1 = unsharded).
    pub fn macro_groups(mut self, n: usize) -> Self {
        self.macro_groups = n.max(1);
        self
    }

    /// Worker threads per replica (min 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Bounded queue capacity per replica (admission-control limit).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Per-batch rider cap per replica.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Batch-collection wait per replica.
    pub fn max_wait(mut self, wait: Duration) -> Self {
        self.max_wait = wait;
        self
    }

    /// Intra-request compute pool width per replica (min 1; defaults to
    /// 1 so replicas do not multiply pool threads).
    pub fn par_threads(mut self, n: usize) -> Self {
        self.par_threads = n.max(1);
        self
    }

    /// Seeds the router's power-of-two-choices draws (reproducibility).
    pub fn router_seed(mut self, seed: u64) -> Self {
        self.router_seed = seed;
        self
    }

    /// Attaches a shared [`Telemetry`] bundle: each replica registers the
    /// runtime families labelled `replica="<i>"`, and the cluster adds
    /// its own `pim_cluster_*` families on top.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Registers a compiled model with every replica; requests name it by
    /// the returned id. The artifact is sharded per `macro_groups` at
    /// [`start`](Self::start) time.
    pub fn register(&mut self, model: CompiledModel) -> ModelId {
        self.models.push(model);
        // Registration order is identical on every replica, so the id the
        // first replica will assign is valid fleet-wide.
        ModelId::from_index(self.models.len() - 1)
    }

    /// Shards the registered artifacts, spawns the replica runtimes, and
    /// opens the cluster for traffic.
    pub fn start(self) -> Cluster {
        let groups = self.macro_groups;
        let artifacts: Vec<CompiledModel> =
            self.models.into_iter().map(|m| m.shard(groups)).collect();
        let input_shapes: Vec<Vec<usize>> =
            artifacts.iter().map(|a| a.input_shape().to_vec()).collect();
        let mut replicas = Vec::with_capacity(self.replicas);
        for r in 0..self.replicas {
            let mut builder = Runtime::builder()
                .workers(self.workers)
                .queue_capacity(self.queue_capacity)
                .max_batch(self.max_batch)
                .max_wait(self.max_wait)
                .par_threads(self.par_threads);
            if let Some(tel) = &self.telemetry {
                builder = builder
                    .telemetry(Arc::clone(tel))
                    .replica_label(r.to_string());
            }
            for artifact in &artifacts {
                builder.register(artifact.clone());
            }
            replicas.push(builder.start());
        }
        let telemetry = self
            .telemetry
            .as_ref()
            .map(|tel| ClusterTelemetry::register(tel, replicas.len()));
        Cluster {
            replicas,
            input_shapes,
            macro_groups: groups,
            router: Router::new(self.router_seed),
            submitted: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            telemetry,
        }
    }
}

/// A ticket for a request accepted by some replica; resolves to the
/// response exactly like a runtime [`Ticket`], plus records which replica
/// took the request.
#[derive(Debug)]
pub struct ClusterTicket {
    replica: usize,
    inner: Ticket,
}

impl ClusterTicket {
    /// The replica index the router placed this request on.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// The accepting replica's request id.
    pub fn id(&self) -> u64 {
        self.inner.id()
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<InferResponse, ClusterError> {
        self.inner.wait().map_err(ClusterError::from)
    }

    /// Non-blocking poll; `Some` exactly once when the response is ready.
    pub fn try_wait(&self) -> Option<InferResponse> {
        self.inner.try_wait()
    }
}

/// Outcome of a successful [`Cluster::swap_model`] rollout.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// The replica the canary ran on.
    pub canary_replica: usize,
    /// Post-rollout slot version on every replica, in replica order.
    pub versions: Vec<u64>,
}

/// `replicas` independent [`Runtime`]s — each serving the same sharded
/// artifacts — behind queue-depth-aware routing with bounded-queue
/// admission control, plus coordinated canary rollouts.
///
/// Request conservation: every request that passes validation is counted
/// `submitted`, and ends up in exactly one of `accepted` (some replica
/// issued a ticket) or `rejected` (every candidate refused). Requests
/// failing validation (unknown model, bad shape) error out **before**
/// the `submitted` count and are excluded from the invariant.
pub struct Cluster {
    replicas: Vec<Runtime>,
    /// Expected `[C, H, W]` per registered model, for pre-route checks.
    input_shapes: Vec<Vec<usize>>,
    macro_groups: usize,
    router: Router,
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    telemetry: Option<ClusterTelemetry>,
}

impl Cluster {
    /// Fleet size.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Simulated macro groups each replica shards its tiles across.
    pub fn macro_groups(&self) -> usize {
        self.macro_groups
    }

    /// Direct access to one replica's runtime (tests, drains, probes).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn runtime(&self, idx: usize) -> &Runtime {
        &self.replicas[idx]
    }

    /// Replicas currently passing their health probe.
    pub fn healthy_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.healthy()).count()
    }

    /// Per-replica queue depths, in replica order.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.replicas.iter().map(|r| r.queue_depth()).collect()
    }

    /// The bounded queue capacity each replica admits up to (they are all
    /// built alike), for normalizing queue depths into a pressure signal.
    pub fn queue_capacity(&self) -> usize {
        self.replicas.first().map_or(0, |r| r.queue_capacity())
    }

    /// Queued-but-undispatched requests per model slot, summed across the
    /// fleet (registration order) — the per-tenant pressure readout.
    pub fn queued_per_model(&self) -> Vec<usize> {
        let mut totals = vec![0usize; self.input_shapes.len()];
        for r in &self.replicas {
            for (t, q) in totals.iter_mut().zip(r.queued_per_model()) {
                *t += q;
            }
        }
        totals
    }

    /// Broadcasts a live batching-policy retune to every replica (each
    /// picks it up at its next batch boundary). Result-neutral: batching
    /// only changes scheduling, never served logits or ledgers.
    pub fn set_batch_policy(&self, policy: BatchPolicy) {
        for r in &self.replicas {
            r.set_batch_policy(policy);
        }
    }

    /// Broadcasts a per-model admission quota (`None` clears it) to every
    /// replica: while a replica has `quota` requests of this slot queued,
    /// further submits for the slot are refused there. The cluster router
    /// treats those refusals like any other candidate rejection, so a
    /// fully throttled slot surfaces as [`ClusterError::Saturated`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownModel`] (wrapped) if `model` was never
    /// registered; the fleet is unchanged.
    pub fn set_queue_quota(
        &self,
        model: ModelId,
        quota: Option<usize>,
    ) -> Result<(), ClusterError> {
        self.slot_index(model)?;
        for r in &self.replicas {
            r.set_queue_quota(model, quota)?;
        }
        Ok(())
    }

    /// The admission ledger so far: `(submitted, accepted, rejected)`.
    /// Conserving at every instant: `submitted == accepted + rejected`
    /// once in-flight submits settle.
    pub fn admission_counts(&self) -> (u64, u64, u64) {
        (
            self.submitted.load(Ordering::Relaxed),
            self.accepted.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
        )
    }

    /// The serving slot's version on every replica, in replica order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownModel`] (wrapped) if `model` was never
    /// registered.
    pub fn model_versions(&self, model: ModelId) -> Result<Vec<u64>, ClusterError> {
        let idx = self.slot_index(model)?;
        Ok(self
            .replicas
            .iter()
            .map(|r| r.model_versions()[idx])
            .collect())
    }

    fn slot_index(&self, model: ModelId) -> Result<usize, ClusterError> {
        let idx = model.index();
        if idx >= self.input_shapes.len() {
            return Err(RuntimeError::UnknownModel { id: model }.into());
        }
        Ok(idx)
    }

    /// Validates cluster-side, with the runtime's own
    /// [`validate_input`] rule, so malformed requests never count against
    /// the admission-control ledger.
    fn validate(&self, model: ModelId, input: &Tensor) -> Result<(), ClusterError> {
        let idx = self.slot_index(model)?;
        Ok(validate_input(&self.input_shapes[idx], input)?)
    }

    /// Routes one request: health probe, queue-depth plan, then tries
    /// candidates in order until one admits it.
    ///
    /// # Errors
    ///
    /// - [`ClusterError::Runtime`] — validation failed (not counted
    ///   against `submitted`).
    /// - [`ClusterError::NoHealthyReplica`] — the fleet is down.
    /// - [`ClusterError::Saturated`] — every candidate refused (counted
    ///   as a cluster rejection).
    pub fn submit(&self, model: ModelId, input: &Tensor) -> Result<ClusterTicket, ClusterError> {
        self.validate(model, input)?;
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let depths: Vec<Option<usize>> = self
            .replicas
            .iter()
            .map(|r| r.healthy().then(|| r.queue_depth()))
            .collect();
        let mut order = Vec::with_capacity(self.replicas.len());
        self.router.plan(&depths, &mut order);
        if let Some(tel) = &self.telemetry {
            tel.submitted.inc();
            tel.observe_probe(&depths);
        }
        if order.is_empty() {
            self.reject();
            return Err(ClusterError::NoHealthyReplica);
        }
        let candidates = order.len();
        for ri in order {
            match self.replicas[ri].submit(model, input) {
                Ok(ticket) => {
                    self.accepted.fetch_add(1, Ordering::Relaxed);
                    if let Some(tel) = &self.telemetry {
                        tel.accepted.inc();
                        tel.queue_depth[ri].set(self.replicas[ri].queue_depth() as f64);
                    }
                    return Ok(ClusterTicket {
                        replica: ri,
                        inner: ticket,
                    });
                }
                // QueueFull, or a replica that closed between the probe
                // and the submit: fall through to the next candidate.
                Err(_) => continue,
            }
        }
        self.reject();
        Err(ClusterError::Saturated {
            replicas: candidates,
        })
    }

    fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = &self.telemetry {
            tel.rejected.inc();
        }
    }

    /// Submit + wait: the blocking convenience path.
    pub fn infer(&self, model: ModelId, input: &Tensor) -> Result<InferResponse, ClusterError> {
        self.submit(model, input)?.wait()
    }

    /// Coordinated canary rollout of `replacement` into every replica's
    /// serving slot.
    ///
    /// The replacement is set to the fleet's macro-group count (whatever
    /// count it carried before), its
    /// **reference answer** on a deterministic probe input is computed
    /// offline ([`CompiledModel::infer_reference`]), and the new version
    /// is swapped into replica 0 only. A live inference through that
    /// canary must reproduce the reference logits bit-for-bit; then the
    /// rollout proceeds fleet-wide (each remaining replica RCU-swaps at
    /// its next batch boundary). If the canary diverges, replica 0 is
    /// rolled back to the previous artifact and the fleet keeps serving
    /// the old version.
    ///
    /// # Errors
    ///
    /// - [`ClusterError::Runtime`] — the swap itself was refused
    ///   (unknown model, shape/class mismatch, shutdown).
    /// - [`ClusterError::CanaryRejected`] — the canary's answer diverged;
    ///   the fleet is unchanged (canary rolled back).
    pub fn swap_model(
        &self,
        model: ModelId,
        replacement: CompiledModel,
    ) -> Result<RolloutReport, ClusterError> {
        let idx = self.slot_index(model)?;
        let artifact = replacement.shard(self.macro_groups);
        let probe = probe_input(&self.input_shapes[idx]);
        let (reference, _) = artifact.infer_reference(&probe);

        // Keep the old artifact for rollback before touching the canary.
        let canary = 0;
        let previous: CompiledModel = (*self.replicas[canary].models()[idx]).clone();
        self.replicas[canary].swap_model(model, artifact.clone())?;

        let verdict = self.replicas[canary].infer(model, &probe);
        let verified = match &verdict {
            Ok(resp) => resp.logits == reference.as_slice(),
            Err(_) => false,
        };
        if !verified {
            // Roll back; if even the rollback fails the runtime error wins.
            self.replicas[canary].swap_model(model, previous)?;
            if let Some(tel) = &self.telemetry {
                tel.canary_rejections.inc();
            }
            return match verdict {
                Err(e) => Err(e.into()),
                Ok(_) => Err(ClusterError::CanaryRejected { replica: canary }),
            };
        }

        for r in self.replicas.iter().skip(1) {
            r.swap_model(model, artifact.clone())?;
        }
        if let Some(tel) = &self.telemetry {
            tel.rollouts.inc();
        }
        Ok(RolloutReport {
            canary_replica: canary,
            versions: self.model_versions(model)?,
        })
    }

    /// A point-in-time roll-up: per-replica snapshots, their exact merge,
    /// and the cluster's admission ledger.
    pub fn stats(&self) -> ClusterStats {
        let per_replica: Vec<_> = self.replicas.iter().map(|r| r.stats()).collect();
        self.roll_up(per_replica)
    }

    /// Graceful shutdown: drains every replica (all tickets get answers)
    /// and returns the final roll-up.
    pub fn shutdown(self) -> ClusterStats {
        let submitted = self.submitted.load(Ordering::Relaxed);
        let accepted = self.accepted.load(Ordering::Relaxed);
        let rejected = self.rejected.load(Ordering::Relaxed);
        let per_replica: Vec<_> = self.replicas.into_iter().map(|r| r.shutdown()).collect();
        ClusterStats::roll_up(
            per_replica,
            submitted,
            accepted,
            rejected,
            self.macro_groups,
        )
    }

    fn roll_up(&self, per_replica: Vec<pim_runtime::RuntimeStats>) -> ClusterStats {
        ClusterStats::roll_up(
            per_replica,
            self.submitted.load(Ordering::Relaxed),
            self.accepted.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.macro_groups,
        )
    }
}

/// Deterministic pseudo-random probe input for canary verification:
/// a `[1, C, H, W]` tensor whose values sweep `[-1, 1)` in a fixed
/// pattern, exercising every input position.
fn probe_input(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|i| ((i * 37 % 113) as f32 / 56.5) - 1.0)
        .collect();
    let mut full = Vec::with_capacity(shape.len() + 1);
    full.push(1);
    full.extend_from_slice(shape);
    Tensor::from_vec(full, data).expect("probe data matches probe shape")
}

//! Compile-once model artifacts and their per-worker replicas.

use crate::error::RuntimeError;
use pim_core::pe_inference::PeRepNet;
use pim_nn::models::RepNet;
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use pim_pe::{PeStats, PeTelemetry};
use std::fmt;
use std::sync::Arc;

/// A model lowered onto the PEs **once** — INT8 quantization, N:M CSC
/// compression, and column tiling all happen at [`CompiledModel::compile`]
/// time, and the loaded SRAM tile programs are cached inside. Serving a
/// request replays the cached tiles; nothing is recompiled per request.
///
/// The artifact is the unit of registration with the runtime: each worker
/// thread takes a replica (its own set of
/// simulated PEs plus a frozen-backbone clone), so workers never contend
/// on shared PE state.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    name: String,
    /// Frozen backbone + reference branch; cloned per worker because the
    /// forward pass needs `&mut` (activation workspaces).
    model: RepNet,
    /// The learnable branch as loaded PE tiles.
    branch: PeRepNet,
    /// Simulated macro groups the branch's tiles are dealt across (see
    /// [`CompiledModel::shard`]).
    macro_groups: usize,
    /// Expected per-sample input shape `[C, H, W]`.
    input_shape: Vec<usize>,
    num_classes: usize,
    /// PE ledger of the compile-time tile loads.
    compile_stats: PeStats,
}

impl CompiledModel {
    /// Lowers `model` through quantization, CSC compression, and tile
    /// mapping, caching the loaded PE programs.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Compile`] if a layer tile exceeds PE
    /// capacity.
    pub fn compile(name: impl Into<String>, model: &RepNet) -> Result<Self, RuntimeError> {
        let model = model.clone();
        let branch = PeRepNet::compile(&model)?;
        let cfg = model.backbone().config().clone();
        let num_classes = model.classifier().inner().weight_matrix().cols();
        let compile_stats = branch.cumulative_stats();
        Ok(Self {
            name: name.into(),
            model,
            branch,
            macro_groups: 1,
            input_shape: vec![cfg.in_channels, cfg.image_size, cfg.image_size],
            num_classes,
            compile_stats,
        })
    }

    /// Wraps an **already-lowered** branch into a servable artifact
    /// without recompiling: the caller hands over a model and the PE tile
    /// programs it maintains itself (e.g. `pim-learn` keeps a resident
    /// branch up to date with cheap differential SRAM writes and publishes
    /// it here for a hot swap).
    ///
    /// The tiles are cloned as-is — bit patterns, quantization scales,
    /// and cumulative PE ledgers included — so serving from this artifact
    /// is bit-exact with serving from the caller's branch.
    ///
    /// # Panics
    ///
    /// Panics if the branch holds no tiles (an empty branch cannot serve).
    pub fn from_branch(name: impl Into<String>, model: &RepNet, branch: &PeRepNet) -> Self {
        assert!(
            branch.tile_count() > 0,
            "cannot build a servable artifact from an empty branch"
        );
        let cfg = model.backbone().config().clone();
        let num_classes = model.classifier().inner().weight_matrix().cols();
        // The artifact will be served under the runtime's own telemetry
        // (attached at registration/swap); drop whatever the caller had
        // attached — a published clone must not keep feeding e.g. the
        // learn-side `source="learn"` counters from serving traffic.
        let mut branch = branch.clone();
        branch.detach_telemetry();
        let compile_stats = branch.cumulative_stats();
        Self {
            name: name.into(),
            model: model.clone(),
            branch,
            macro_groups: 1,
            input_shape: vec![cfg.in_channels, cfg.image_size, cfg.image_size],
            num_classes,
            compile_stats,
        }
    }

    /// Deploys the artifact across `groups` simulated macro groups
    /// (MARS-style), replacing any earlier count; `groups` is clamped to at
    /// least one. Each layer's column tiles are dealt round-robin, tile
    /// *i* to group *i mod G*. Column tiles partition the output space, so
    /// the groups' outputs are disjoint placement and the artifact still
    /// runs its one execution path: logits and run ledgers are those of
    /// the single-macro artifact, bit for bit. The groups only partition
    /// the cumulative tile ledger ([`PeRepNet::group_stats`]); no group's
    /// SRAM capacity is checked.
    pub fn shard(mut self, groups: usize) -> Self {
        self.macro_groups = groups.max(1);
        self
    }

    /// Number of simulated macro groups serving this artifact (1 when
    /// unsharded).
    pub fn macro_groups(&self) -> usize {
        self.macro_groups
    }

    /// Reference inference on a private clone of the artifact: runs a
    /// `[N, C, H, W]` batch through the cached tiles and returns logits
    /// plus the per-run PE ledger, without touching the artifact's own
    /// state or any runtime. This is the ground truth a canary rollout
    /// compares a live replica's answer against.
    pub fn infer_reference(&self, batch: &Tensor) -> (Tensor, PeStats) {
        let mut replica = self.replica();
        replica.infer_batch(batch)
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected per-sample input shape `[C, H, W]`.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of classifier outputs.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Loaded PE tiles cached in the artifact.
    pub fn tile_count(&self) -> usize {
        self.branch.tile_count()
    }

    /// PE ledger of the one-time lowering (tile writes dominate).
    pub fn compile_stats(&self) -> PeStats {
        self.compile_stats
    }

    /// Routes the artifact's per-run PE ledger deltas — and those of every
    /// [`replica`](Self::replica) cloned afterwards, which share the same
    /// underlying counters — into `telemetry`.
    pub(crate) fn attach_pe_telemetry(&mut self, telemetry: PeTelemetry) {
        self.branch.attach_telemetry(telemetry);
    }

    /// Hands the artifact (and every replica cloned afterwards) the
    /// runtime's shared intra-request compute pool.
    pub(crate) fn attach_pool(&mut self, pool: Arc<WorkPool>) {
        self.branch.attach_pool(pool);
    }

    /// A worker-private copy: its own simulated PEs and backbone.
    pub(crate) fn replica(&self) -> ModelReplica {
        ModelReplica {
            model: self.model.clone(),
            branch: self.branch.clone(),
        }
    }
}

impl fmt::Display for CompiledModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: input {:?} -> {} classes, {} PE tiles cached",
            self.name,
            self.input_shape,
            self.num_classes,
            self.tile_count()
        )?;
        if self.macro_groups() > 1 {
            write!(f, " across {} macro groups", self.macro_groups())?;
        }
        Ok(())
    }
}

/// One worker's private copy of a compiled model.
#[derive(Debug)]
pub(crate) struct ModelReplica {
    model: RepNet,
    branch: PeRepNet,
}

impl ModelReplica {
    /// Runs a `[N, C, H, W]` batch through the cached tiles, returning
    /// logits and the per-run PE ledger.
    pub fn infer_batch(&mut self, batch: &Tensor) -> (Tensor, PeStats) {
        self.branch.predict(&mut self.model, batch)
    }
}

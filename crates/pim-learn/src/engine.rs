//! The continual-learning engine: train → differential write-back → hot
//! swap into serving.

use crate::error::LearnError;
use crate::learner::{OnlineLearner, OnlineLearnerConfig};
use crate::policy::{Region, WritePolicy};
use crate::stats::{LearnReport, LearnStats};
use crate::telemetry::LearnTelemetry;
use pim_core::experiments::Fig8;
use pim_core::pe_inference::PeRepNet;
use pim_device::edp;
use pim_device::mtj::MtjParams;
use pim_nn::models::RepNet;
use pim_nn::tensor::Tensor;
use pim_nn::train::{Dataset, Model, StepStats};
use pim_par::WorkPool;
use pim_pe::PeStats;
use pim_runtime::{CompiledModel, ModelId, Runtime};
use pim_telemetry::Telemetry;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Online continual learning with live publication into a serving
/// [`Runtime`].
///
/// The engine owns three things and keeps them consistent:
///
/// 1. an [`OnlineLearner`] taking incremental SGD steps on the Rep-Net
///    adaptor (backbone frozen),
/// 2. a **resident** [`PeRepNet`] — the adaptor as loaded SRAM PE tiles,
///    kept up to date by *differential* write-back: on
///    [`write_back`](Self::write_back) every tile re-quantizes its weight
///    block and toggles only the bit-cells that changed, charging real
///    SRAM write energy from `pim-device` (never more than a full
///    reload),
/// 3. a [`WritePolicy`] guard — the MRAM backbone is write-protected and
///    every adaptor write is pre-authorized against the endurance budget
///    **before** any bit toggles, using the **exact** pending bit count
///    ([`PeRepNet::pending_write_bits`]): the tiles are diffed without
///    being written, so authorization meters precisely what the rewrite
///    will bill.
///
/// [`publish`](Self::publish) then wraps the resident branch into a
/// [`CompiledModel`] (no recompile — the tiles are cloned bit-for-bit)
/// and hot-swaps it into the runtime, so serving output is bit-exact with
/// a cold compile of the learner's current weights.
#[derive(Debug)]
pub struct LearnEngine {
    name: String,
    learner: OnlineLearner,
    branch: PeRepNet,
    policy: WritePolicy,
    stats: LearnStats,
    /// Bits a full (non-differential) reload of every resident tile
    /// writes — the compile-time load bill, kept as the reference
    /// worst-case bound a differential write-back can never exceed.
    full_load_bits: u64,
    version: u64,
    /// Pre-registered metric handles; `None` leaves the engine
    /// uninstrumented.
    telemetry: Option<LearnTelemetry>,
}

impl LearnEngine {
    /// Compiles `model`'s learnable branch onto resident SRAM PE tiles
    /// and wraps it for online learning under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::Pe`] if a layer tile exceeds PE capacity.
    pub fn new(
        name: impl Into<String>,
        model: RepNet,
        learner_config: OnlineLearnerConfig,
        policy: WritePolicy,
    ) -> Result<Self, LearnError> {
        let learner = OnlineLearner::new(model, learner_config);
        let branch = PeRepNet::compile(learner.model())?;
        let full_load_bits = branch.cumulative_stats().write_bits;
        Ok(Self {
            name: name.into(),
            learner,
            branch,
            policy,
            stats: LearnStats::new(policy.budget_bits()),
            full_load_bits,
            version: 0,
            telemetry: None,
        })
    }

    /// Attaches a [`Telemetry`] bundle: the engine registers per-stage
    /// latency histograms (`pim_learn_stage_seconds{stage=step|preflight|
    /// write_back|swap}`), step/publish counters, the
    /// `pim_learn_budget_used_ratio` endurance gauge, and the
    /// `source="learn"` [`PeStats`](pim_pe::PeStats) energy mirror on the
    /// resident branch — and records `learn.*` spans into the bundle's
    /// tracer. Pass the same bundle to the serving runtime's builder and
    /// both sides render from one registry. Published artifacts
    /// ([`compiled`](Self::compiled)) detach the learn-side counters, so
    /// serving traffic never lands in them.
    pub fn attach_telemetry(&mut self, bundle: &Arc<Telemetry>) {
        let tel = LearnTelemetry::register(Arc::clone(bundle));
        self.branch.attach_telemetry(tel.pe.clone());
        self.telemetry = Some(tel);
    }

    /// Admits one labelled sample into the learner's replay buffer.
    pub fn observe(&mut self, input: &Tensor, label: usize) {
        self.learner.observe(input, label);
    }

    /// Streams a whole dataset into the replay buffer.
    pub fn observe_dataset(&mut self, data: &Dataset) {
        self.learner.observe_dataset(data);
    }

    /// Takes one incremental training step (model weights move; the
    /// resident tiles stay put until the next write-back).
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::EmptyReplay`] before any sample arrived.
    pub fn step(&mut self) -> Result<StepStats, LearnError> {
        let started = Instant::now();
        let stats = self.learner.step()?;
        self.stats.record_step(&stats);
        if let Some(tel) = &self.telemetry {
            tel.stage_step.observe(started.elapsed().as_secs_f64());
            tel.steps_total.inc();
            tel.bundle.tracer.record_span_ending_now(
                "learn.sgd_step",
                started.elapsed(),
                &[
                    ("loss", format!("{:.6}", stats.loss)),
                    ("batch", stats.batch.to_string()),
                ],
            );
        }
        Ok(stats)
    }

    /// Differentially rewrites the resident SRAM tiles with the learner's
    /// current weights, metering the write against the policy budget.
    /// Returns the PE ledger delta (cycles, write bits, write energy) of
    /// the rewrite.
    ///
    /// The policy check happens first, against the **exact** pending bit
    /// count: [`PeRepNet::pending_write_bits`] diffs every resident tile
    /// against the learner's weights without writing (tile-parallel over
    /// the attached pool), so authorization meters precisely what the
    /// rewrite will bill — a denial leaves the tiles untouched, and an
    /// update that fits the remaining budget is never refused for being
    /// over-estimated. The MRAM backbone is never written on this path —
    /// the ledger's MRAM counter stays zero by measurement.
    ///
    /// # Errors
    ///
    /// * [`LearnError::Policy`] — the adaptor budget cannot cover this
    ///   write-back's pending bits.
    /// * [`LearnError::Pe`] — a rewritten layer no longer fits its PEs
    ///   (cannot happen while shapes are unchanged).
    pub fn write_back(&mut self) -> Result<PeStats, LearnError> {
        let preflight_started = Instant::now();
        let pending = self.branch.pending_write_bits(self.learner.model())?;
        let authorized =
            self.policy
                .authorize(Region::SramAdaptor, self.stats.sram_write_bits(), pending);
        if let Some(tel) = &self.telemetry {
            let preflight = preflight_started.elapsed();
            tel.stage_preflight.observe(preflight.as_secs_f64());
            tel.bundle.tracer.record_span_ending_now(
                "learn.preflight",
                preflight,
                &[
                    ("authorized", authorized.is_ok().to_string()),
                    ("pending_bits", pending.to_string()),
                ],
            );
        }
        authorized?;
        let write_started = Instant::now();
        let delta = self.branch.refresh(self.learner.model())?;
        debug_assert_eq!(
            delta.write_bits, pending,
            "preflight diff must match the rewrite bill exactly"
        );
        self.version += 1;
        self.stats.record_publish(&delta);
        if let Some(tel) = &self.telemetry {
            // The PE ledger delta already landed in the `source="learn"`
            // energy counters via the branch's attached PeTelemetry; here
            // only host-side timing and budget use are recorded.
            let wall = write_started.elapsed();
            tel.stage_write_back.observe(wall.as_secs_f64());
            tel.publishes_total.inc();
            tel.budget_used.set(self.stats.report().budget_used());
            tel.bundle.tracer.record_span_ending_now(
                "learn.write_back",
                wall,
                &[
                    ("version", self.version.to_string()),
                    ("write_bits", delta.write_bits.to_string()),
                    ("energy_pj", format!("{:.3}", delta.energy.write.as_pj())),
                ],
            );
        }
        Ok(delta)
    }

    /// Classifies `input` on the **resident** PE tiles — the same tiles
    /// write-backs rewrite in place (each rewrite recompiles the tile's
    /// flat execution kernel into its existing arrays, so steady-state
    /// refreshes never touch the allocator). Useful for spot-checking the
    /// resident branch between publishes without building a serving
    /// artifact. Goes through [`OnlineLearner::model_mut`], so the
    /// learner's backbone memos are dropped and the next step rebuilds
    /// them.
    pub fn predict(&mut self, input: &Tensor) -> (Tensor, pim_core::pe_inference::PeRunStats) {
        self.branch.predict(self.learner.model_mut(), input)
    }

    /// [`write_back`](Self::write_back), then hot-swap the updated model
    /// into serving slot `id` of `runtime`. Returns the slot's new
    /// version. In-flight batches finish on the previous model; requests
    /// batched after the swap are served by this one.
    ///
    /// # Errors
    ///
    /// Propagates [`write_back`](Self::write_back) errors (nothing is
    /// written or published), plus [`LearnError::Runtime`] if the swap is
    /// rejected — the write-back has happened by then (the resident tiles
    /// are updated), but serving keeps the old model.
    pub fn publish(&mut self, runtime: &Runtime, id: ModelId) -> Result<u64, LearnError> {
        self.write_back()?;
        let swap_started = Instant::now();
        let version = runtime.swap_model(id, self.compiled())?;
        if let Some(tel) = &self.telemetry {
            let wall = swap_started.elapsed();
            tel.stage_swap.observe(wall.as_secs_f64());
            tel.bundle.tracer.record_span_ending_now(
                "learn.swap",
                wall,
                &[("slot_version", version.to_string())],
            );
        }
        Ok(version)
    }

    /// Snapshots the resident branch as a servable artifact (bit-for-bit
    /// tile clones, no recompile), named `{name}@v{version}`. Use this to
    /// register the engine's model with a runtime before the first
    /// publish.
    pub fn compiled(&self) -> CompiledModel {
        CompiledModel::from_branch(
            format!("{}@v{}", self.name, self.version),
            self.learner.model(),
            &self.branch,
        )
    }

    /// Snapshots the resident branch **twice**: the full-quality artifact
    /// ([`compiled`](Self::compiled)) plus a degraded sibling whose
    /// adaptor weights are re-masked under `degraded_pattern` (e.g.
    /// [`NmPattern::one_of_eight`](pim_sparse::NmPattern::one_of_eight))
    /// and recompiled onto fresh tiles. Both carry the same version
    /// stamp (`{name}@v{n}` / `{name}@v{n}-degraded`), so a governor can
    /// publish the pair together and hot-swap between them knowing they
    /// came from one training state. The degraded branch keeps the
    /// client-visible interface (input shape, class count) — it is a
    /// valid [`Runtime::swap_model`] replacement for the full one.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::Pe`] if the degraded branch fails to lower
    /// onto the PEs (it never should — masking only zeroes weights).
    pub fn compiled_pair(
        &self,
        degraded_pattern: pim_sparse::NmPattern,
    ) -> Result<(CompiledModel, CompiledModel), LearnError> {
        let full = self.compiled();
        let mut degraded_model = self.learner.model().clone();
        degraded_model.apply_pattern(degraded_pattern);
        let degraded_branch = PeRepNet::compile(&degraded_model)?;
        let degraded = CompiledModel::from_branch(
            format!("{}@v{}-degraded", self.name, self.version),
            &degraded_model,
            &degraded_branch,
        );
        Ok((full, degraded))
    }

    /// Models the EDP a **finetune-all** deployment would pay for the
    /// same number of publishes: every weight of the whole network (frozen
    /// backbone included) rewritten through MTJ write pulses, 512 bits per
    /// row pulse — the paper's Figure-8 worst bar, scaled to this run.
    /// Computed for one publish when none happened yet. Counts the
    /// weights through [`OnlineLearner::model_mut`], which drops the
    /// learner's backbone memos.
    pub fn finetune_all_edp(&mut self) -> f64 {
        let mut weights = 0usize;
        self.learner
            .model_mut()
            .params(&mut |p| weights += p.value.len());
        let bits = weights as u64 * 8;
        let publishes = self.stats.report().publishes.max(1);
        let mtj = MtjParams::dac24();
        let energy = mtj.write_energy * (bits * publishes) as f64;
        let pulses = (bits as f64 / 512.0).ceil() * publishes as f64;
        edp(energy, mtj.write_latency * pulses)
    }

    /// A live Figure-8-style EDP comparison — this run's measured hybrid
    /// write-back cost against the modelled finetune-all deployment.
    /// `None` before the first write-back (nothing measured yet).
    pub fn fig8(&mut self, label: &str) -> Option<Fig8> {
        let finetune_all = self.finetune_all_edp();
        self.stats.report().live_fig8(label, finetune_all)
    }

    /// Point-in-time learning report.
    pub fn report(&self) -> LearnReport {
        self.stats.report()
    }

    /// The write-authorization policy in force.
    pub fn policy(&self) -> &WritePolicy {
        &self.policy
    }

    /// The online learner (replay buffer, optimizer, model).
    pub fn learner(&self) -> &OnlineLearner {
        &self.learner
    }

    /// Mutable learner access (e.g. checkpointing).
    pub fn learner_mut(&mut self) -> &mut OnlineLearner {
        &mut self.learner
    }

    /// Resident SRAM PE tiles backing the published model.
    pub fn tile_count(&self) -> usize {
        self.branch.tile_count()
    }

    /// Model versions produced (write-backs performed).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bits a full reload of the resident tiles writes (the upper bound
    /// no differential write-back can exceed).
    pub fn full_load_bits(&self) -> u64 {
        self.full_load_bits
    }

    /// The exact number of SRAM bits the next
    /// [`write_back`](Self::write_back) would toggle — the figure the
    /// policy preflight authorizes against. Computed by diffing the
    /// resident tiles without writing; zero when the learner hasn't moved
    /// any quantized code since the last write-back.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::Pe`] on a tile validation failure (cannot
    /// happen while shapes are unchanged).
    pub fn pending_write_bits(&self) -> Result<u64, LearnError> {
        Ok(self.branch.pending_write_bits(self.learner.model())?)
    }

    /// Hands the resident branch a shared [`WorkPool`]: tile compute in
    /// [`predict`](Self::predict) and the per-tile write-back preflight
    /// diff fan out over it. Results and ledgers are bit-identical at any
    /// width; a 1-thread pool is the serial path.
    pub fn attach_pool(&mut self, pool: Arc<WorkPool>) {
        self.branch.attach_pool(pool);
    }
}

impl fmt::Display for LearnEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@v{}: {} resident tiles, {}",
            self.name,
            self.version,
            self.tile_count(),
            self.stats.report()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nn::models::{Backbone, BackboneConfig, RepNetConfig};

    fn tiny_engine(policy: WritePolicy) -> LearnEngine {
        let model = RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 3,
                seed: 5,
            },
        );
        LearnEngine::new(
            "tiny",
            model,
            OnlineLearnerConfig {
                replay_capacity: 16,
                batch_size: 4,
                seed: 21,
                ..OnlineLearnerConfig::default()
            },
            policy,
        )
        .expect("compile")
    }

    fn feed(engine: &mut LearnEngine, samples: usize) {
        for i in 0..samples {
            let x = Tensor::from_vec(
                vec![1, 8, 8],
                (0..64).map(|v| ((v * 3 + i) % 11) as f32 / 11.0).collect(),
            )
            .expect("sample shape");
            engine.observe(&x, i % 3);
        }
    }

    #[test]
    fn write_back_is_differential_and_metered() {
        let mut engine = tiny_engine(WritePolicy::hybrid_dac24(1 << 20));
        feed(&mut engine, 12);
        for _ in 0..4 {
            engine.step().expect("step");
        }
        let delta = engine.write_back().expect("write back");
        assert!(delta.write_bits > 0, "training changed resident weights");
        assert!(
            delta.write_bits < engine.full_load_bits(),
            "differential rewrite beats a full reload ({} vs {})",
            delta.write_bits,
            engine.full_load_bits()
        );
        assert!(delta.energy.write.as_pj() > 0.0);
        assert_eq!(engine.version(), 1);
        let report = engine.report();
        assert_eq!(report.publishes, 1);
        assert_eq!(report.sram_write_bits, delta.write_bits);
        assert_eq!(report.mram_write_bits, 0, "backbone untouched");
        assert!(report.within_budget());
    }

    #[test]
    fn repeated_write_backs_keep_resident_kernels_bit_exact() {
        // Every write-back recompiles the tiles' flat execution kernels
        // in place; after each one the resident branch must classify
        // exactly like a cold recompile of the learner's current weights.
        let mut engine = tiny_engine(WritePolicy::hybrid_dac24(1 << 20));
        feed(&mut engine, 12);
        let x = Tensor::from_vec(
            vec![2, 1, 8, 8],
            (0..128).map(|v| ((v * 7) % 13) as f32 / 13.0).collect(),
        )
        .expect("batch shape");
        for round in 0..3 {
            engine.step().expect("step");
            engine.write_back().expect("write back");
            let (resident, _) = engine.predict(&x);
            let mut model = engine.learner().model().clone();
            let mut cold = PeRepNet::compile(&model).expect("fits PEs");
            let (reference, _) = cold.predict(&mut model, &x);
            assert_eq!(
                resident.as_slice(),
                reference.as_slice(),
                "round {round}: resident kernels drifted from a cold compile"
            );
        }
    }

    #[test]
    fn unchanged_write_back_toggles_nothing() {
        let mut engine = tiny_engine(WritePolicy::hybrid_dac24(1 << 20));
        assert_eq!(engine.pending_write_bits().expect("diff"), 0);
        let delta = engine.write_back().expect("write back");
        assert_eq!(delta.write_bits, 0);
        assert_eq!(delta.energy.write.as_pj(), 0.0);
    }

    #[test]
    fn preflight_diff_matches_the_write_back_bill_exactly() {
        let mut engine = tiny_engine(WritePolicy::hybrid_dac24(1 << 20));
        engine.attach_pool(Arc::new(WorkPool::with_forced_threads(2)));
        feed(&mut engine, 12);
        for _ in 0..3 {
            engine.step().expect("step");
        }
        let pending = engine.pending_write_bits().expect("diff");
        assert!(pending > 0, "training moved quantized codes");
        assert!(pending < engine.full_load_bits());
        let delta = engine.write_back().expect("write back");
        assert_eq!(pending, delta.write_bits, "exact preflight");
        // After the rewrite the diff collapses to zero again.
        assert_eq!(engine.pending_write_bits().expect("diff"), 0);
    }

    #[test]
    fn exhausted_budget_blocks_the_write_before_it_happens() {
        let mut engine = tiny_engine(WritePolicy::hybrid_dac24(1 << 20).with_bit_budget(1.0));
        feed(&mut engine, 8);
        engine.step().expect("step");
        let err = engine.write_back().expect_err("policy must refuse");
        assert!(matches!(err, LearnError::Policy(_)));
        assert_eq!(engine.version(), 0, "denied write-back changed nothing");
        assert_eq!(engine.report().publishes, 0);
    }

    #[test]
    fn fig8_shows_the_hybrid_winning_after_a_publish() {
        let mut engine = tiny_engine(WritePolicy::hybrid_dac24(1 << 20));
        assert!(engine.fig8("1:4").is_none(), "nothing measured yet");
        feed(&mut engine, 12);
        for _ in 0..3 {
            engine.step().expect("step");
        }
        engine.write_back().expect("write back");
        let fig = engine.fig8("1:4").expect("measured");
        let ours = fig.bar("Ours 1:4").expect("hybrid bar");
        let finetune = fig.bar("finetune-all").expect("baseline bar");
        assert!((ours - 1.0).abs() < 1e-12);
        assert!(
            finetune > 1.0,
            "rewriting every weight in NVM must cost more (got {finetune})"
        );
    }

    #[test]
    fn compiled_snapshot_is_versioned() {
        let mut engine = tiny_engine(WritePolicy::hybrid_dac24(1 << 20));
        assert_eq!(engine.compiled().name(), "tiny@v0");
        feed(&mut engine, 8);
        engine.step().expect("step");
        engine.write_back().expect("write back");
        assert_eq!(engine.compiled().name(), "tiny@v1");
        assert_eq!(engine.compiled().tile_count(), engine.tile_count());
    }

    #[test]
    fn compiled_pair_publishes_both_branches_from_one_state() {
        use pim_nn::tensor::Tensor;
        use pim_sparse::NmPattern;

        let engine = tiny_engine(WritePolicy::hybrid_dac24(1 << 20));
        let (full, degraded) = engine
            .compiled_pair(NmPattern::one_of_eight())
            .expect("pair");
        assert_eq!(full.name(), "tiny@v0");
        assert_eq!(degraded.name(), "tiny@v0-degraded");
        // Swap-compatible: same client-visible interface.
        assert_eq!(full.input_shape(), degraded.input_shape());
        assert_eq!(full.num_classes(), degraded.num_classes());
        // The degraded branch is a genuinely different artifact (1:8
        // masking zeroes weights the 1:4 branch keeps), and both are
        // deterministic snapshots of one training state.
        let mut shape = vec![1];
        shape.extend_from_slice(full.input_shape());
        let probe = Tensor::ones(&shape);
        let (full_logits, _) = full.infer_reference(&probe);
        let (degraded_logits, _) = degraded.infer_reference(&probe);
        assert_ne!(full_logits.as_slice(), degraded_logits.as_slice());
        let (full_again, degraded_again) = engine
            .compiled_pair(NmPattern::one_of_eight())
            .expect("pair again");
        let (f2, _) = full_again.infer_reference(&probe);
        let (d2, _) = degraded_again.infer_reference(&probe);
        assert_eq!(full_logits.as_slice(), f2.as_slice());
        assert_eq!(degraded_logits.as_slice(), d2.as_slice());
    }
}

//! The Rep-Net continual-learning architecture (paper §4, Fig. 6).
//!
//! A **fixed main branch** (the [`Backbone`], mapped to MRAM PEs) runs in
//! inference mode; a tiny, parallel **reprogramming path** learns new tasks.
//! Each [`RepNetModule`] is, per the paper, "1 pooling layer and 2
//! convolution layers where one of the convolution kernels is 1×1"; modules
//! receive the backbone's intermediate activations through 1×1 **activation
//! connectors** and pass a running rep-state to the next module. A shared
//! classifier consumes the concatenated backbone + rep features.
//!
//! Only the rep path and the classifier train (≈5% of the parameters, the
//! paper's figure for Rep-Net); the backbone stays frozen, which is exactly
//! the property the hybrid MRAM/SRAM mapping exploits.
//!
//! Simplification noted in DESIGN.md: the activation connector is one-way
//! (backbone → rep). The bidirectional variant changes what the *backbone*
//! computes, which is impossible anyway once the backbone is frozen in
//! MRAM.

use crate::layers::{AvgPool2d, Conv2d, GlobalAvgPool, Layer, Param, Relu};
use crate::models::backbone::Backbone;
use crate::models::BackboneOutput;
use crate::quant::fake_quant_auto;
use crate::sparse::{SparseConv2d, SparseLinear};
use crate::tensor::Tensor;
use crate::train::{fit_with, gather_labels, Dataset, EpochStats, FitConfig, Model};
use pim_sparse::NmPattern;
use std::borrow::Cow;

/// Examples per backbone batch when [`RepNet::backbone_cache`] fills a
/// cache (bounds the backbone's transient working set).
const CACHE_CHUNK: usize = 64;

/// One reprogramming module: activation connector (1×1 conv from the tap),
/// optional 2× average pool on the carried state, then 3×3 conv + 1×1 conv.
#[derive(Debug, Clone)]
pub struct RepNetModule {
    pool: Option<AvgPool2d>,
    proj: Conv2d,
    conv3: SparseConv2d,
    conv1: SparseConv2d,
    relu_mix: Relu,
    relu_mid: Relu,
    relu_out: Relu,
}

impl RepNetModule {
    /// Creates a module consuming a `tap_channels`-wide backbone tap.
    /// `pool_prev` halves the carried rep-state spatially (used whenever the
    /// backbone stage halved its own resolution).
    pub fn new(tap_channels: usize, rep_channels: usize, pool_prev: bool, seed: u64) -> Self {
        Self {
            pool: pool_prev.then(|| AvgPool2d::new(2)),
            proj: Conv2d::new(tap_channels, rep_channels, 1, 1, 0, seed),
            conv3: SparseConv2d::new(rep_channels, rep_channels, 3, 1, 1, seed.wrapping_add(1)),
            conv1: SparseConv2d::new(rep_channels, rep_channels, 1, 1, 0, seed.wrapping_add(2)),
            relu_mix: Relu::new(),
            relu_mid: Relu::new(),
            relu_out: Relu::new(),
        }
    }

    /// Runs the module: mixes the (pooled) carried state with the projected
    /// tap, then applies the two convolutions.
    pub fn forward(&mut self, prev: Option<&Tensor>, tap: &Tensor, train: bool) -> Tensor {
        let projected = self.proj.forward(tap, train);
        let mix = match (prev, &mut self.pool) {
            (Some(r), Some(pool)) => {
                let pooled = pool.forward(r, train);
                projected.add(&pooled).expect("rep shapes align")
            }
            (Some(r), None) => projected.add(r).expect("rep shapes align"),
            (None, _) => projected,
        };
        let a = self.relu_mix.forward(&mix, train);
        let h = self.conv3.forward(&a, train);
        let h = self.relu_mid.forward(&h, train);
        let out = self.conv1.forward(&h, train);
        self.relu_out.forward(&out, train)
    }

    /// Backpropagates through the module. Returns the gradient with respect
    /// to the carried rep-state (`None` for the first module); the gradient
    /// toward the frozen backbone tap is computed for the connector weights
    /// but not returned (the backbone does not train).
    pub fn backward(&mut self, grad_output: &Tensor, has_prev: bool) -> Option<Tensor> {
        let g = self.relu_out.backward(grad_output);
        let g = self.conv1.backward(&g);
        let g = self.relu_mid.backward(&g);
        let g = self.conv3.backward(&g);
        let g_mix = self.relu_mix.backward(&g);
        // The connector accumulates its weight gradient; the tap-side
        // gradient is discarded (frozen backbone).
        let _ = self.proj.backward(&g_mix);
        if has_prev {
            Some(match &mut self.pool {
                Some(pool) => pool.backward(&g_mix),
                None => g_mix,
            })
        } else {
            None
        }
    }

    /// Applies an N:M pattern to the two sparse convolutions by magnitude.
    pub fn apply_pattern(&mut self, pattern: NmPattern) {
        self.conv3.apply_pattern(pattern);
        self.conv1.apply_pattern(pattern);
    }

    /// Applies an N:M pattern using accumulated saliency (the one-epoch
    /// gradient pass).
    pub fn apply_saliency_pattern(&mut self, pattern: NmPattern) {
        self.conv3.apply_saliency_pattern(pattern);
        self.conv1.apply_saliency_pattern(pattern);
    }

    /// The two sparse convolutions (3×3 then 1×1).
    pub fn sparse_convs(&self) -> [&SparseConv2d; 2] {
        [&self.conv3, &self.conv1]
    }

    /// The activation-connector convolution.
    pub fn connector(&self) -> &Conv2d {
        &self.proj
    }

    /// Visits the module's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.proj.visit_params(f);
        self.conv3.visit_params(f);
        self.conv1.visit_params(f);
    }
}

/// Configuration of the rep path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepNetConfig {
    /// Channel width of the rep path (small — this is the 5%).
    pub rep_channels: usize,
    /// Output classes of the shared classifier.
    pub num_classes: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for RepNetConfig {
    fn default() -> Self {
        Self {
            rep_channels: 8,
            num_classes: 10,
            seed: 1,
        }
    }
}

/// The full continual-learning model: frozen backbone + rep path +
/// classifier.
///
/// # Example
///
/// ```
/// use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
/// use pim_nn::train::Model;
/// use pim_nn::tensor::Tensor;
///
/// let backbone = Backbone::new(BackboneConfig::tiny());
/// let mut net = RepNet::new(backbone, RepNetConfig { rep_channels: 4, num_classes: 5, seed: 2 });
/// let logits = net.predict(&Tensor::ones(&[2, 1, 8, 8]), false);
/// assert_eq!(logits.shape(), &[2, 5]);
/// // Only the rep path and classifier are trainable.
/// assert!(net.learnable_fraction() < 0.6);
/// ```
#[derive(Debug, Clone)]
pub struct RepNet {
    backbone: Backbone,
    modules: Vec<RepNetModule>,
    rep_gap: GlobalAvgPool,
    classifier: SparseLinear,
    int8_eval: bool,
    feature_width: usize,
    rep_channels: usize,
}

impl RepNet {
    /// Builds the model around an existing (typically pretrained) backbone,
    /// freezing the backbone's parameters.
    pub fn new(mut backbone: Backbone, cfg: RepNetConfig) -> Self {
        Layer::set_frozen(&mut backbone, true);
        let widths = backbone.config().stage_widths.clone();
        let mut modules = Vec::with_capacity(widths.len());
        for (i, &w) in widths.iter().enumerate() {
            modules.push(RepNetModule::new(
                w,
                cfg.rep_channels,
                i > 0,
                cfg.seed.wrapping_add(100 + 10 * i as u64),
            ));
        }
        let feature_width = backbone.config().feature_width();
        let classifier = SparseLinear::new(
            feature_width + cfg.rep_channels,
            cfg.num_classes,
            cfg.seed.wrapping_add(999),
        );
        Self {
            backbone,
            modules,
            rep_gap: GlobalAvgPool::new(),
            classifier,
            int8_eval: false,
            feature_width,
            rep_channels: cfg.rep_channels,
        }
    }

    /// The frozen backbone.
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// Mutable backbone access (e.g. to apply backbone-side pruning/PTQ).
    pub fn backbone_mut(&mut self) -> &mut Backbone {
        &mut self.backbone
    }

    /// Hands the backbone convolutions a shared compute pool (the rep
    /// branch runs on the PE simulators during inference, so only the
    /// frozen f32 backbone benefits). Bit-identical to the serial path.
    pub fn attach_pool(&mut self, pool: &std::sync::Arc<pim_par::WorkPool>) {
        self.backbone.attach_pool(pool);
    }

    /// The rep modules.
    pub fn modules(&self) -> &[RepNetModule] {
        &self.modules
    }

    /// The shared classifier.
    pub fn classifier(&self) -> &SparseLinear {
        &self.classifier
    }

    /// Enables/disables INT8 fake-quant evaluation of activations at the
    /// branch boundaries (weights are quantized separately with
    /// [`quantize_weights_int8`](Self::quantize_weights_int8)).
    pub fn set_int8_eval(&mut self, on: bool) {
        self.int8_eval = on;
    }

    /// Fake-quantizes every weight in the model (PTQ).
    pub fn quantize_weights_int8(&mut self) {
        Model::params(self, &mut |p: &mut Param| {
            p.value = fake_quant_auto(&p.value);
        });
    }

    /// Applies an N:M pattern to the whole learnable path (rep convolutions
    /// and classifier) by magnitude.
    pub fn apply_pattern(&mut self, pattern: NmPattern) {
        for m in &mut self.modules {
            m.apply_pattern(pattern);
        }
        self.classifier.apply_pattern(pattern);
    }

    /// Runs the paper's one-epoch gradient calibration (forward and
    /// backward in index order, **no optimizer step**) from `cache`, the
    /// [`backbone_cache`](Self::backbone_cache) of the examples labelled
    /// `labels`, and then applies `pattern` by first-order saliency.
    ///
    /// # Panics
    ///
    /// Panics if `cache` and `labels` differ in length.
    pub fn calibrate_and_prune(
        &mut self,
        cache: &BackboneOutput,
        labels: &[usize],
        batch_size: usize,
        pattern: NmPattern,
    ) {
        assert_eq!(
            cache.features.shape()[0],
            labels.len(),
            "one cache row per label"
        );
        self.clear_grads();
        let indices: Vec<usize> = (0..labels.len()).collect();
        for chunk in indices.chunks(batch_size.max(1)) {
            let rows = cache.gather(chunk);
            let logits = self.predict_from_taps(&rows.taps, &rows.features, true);
            let (_, grad) =
                crate::layers::softmax_cross_entropy(&logits, &gather_labels(labels, chunk));
            Model::backprop(self, &grad);
        }
        self.apply_saliency_pattern(pattern);
    }

    /// Applies `pattern` to the whole learnable path (rep convolutions and
    /// classifier) by the saliency accumulated in the gradients since the
    /// last clear, then clears the gradients.
    pub fn apply_saliency_pattern(&mut self, pattern: NmPattern) {
        for m in &mut self.modules {
            m.apply_saliency_pattern(pattern);
        }
        self.classifier.apply_saliency_pattern(pattern);
        self.clear_grads();
    }

    /// Trains the rep path and classifier from `cache` (see
    /// [`backbone_cache`](Self::backbone_cache)) with the epoch loop of
    /// [`fit`](crate::train::fit), every batch gathering its rows from the
    /// cache and running only [`predict_from_taps`](Self::predict_from_taps).
    /// The backbone is frozen, so this is bit-exact with `fit` on the raw
    /// inputs, which re-runs the backbone on every batch of every epoch.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty, the batch size is zero, or `cache`
    /// and `labels` differ in length.
    pub fn fit_cached(
        &mut self,
        cache: &BackboneOutput,
        labels: &[usize],
        cfg: &FitConfig,
    ) -> Vec<EpochStats> {
        assert_eq!(
            cache.features.shape()[0],
            labels.len(),
            "one cache row per label"
        );
        fit_with(self, labels, cfg, |m, batch| {
            let rows = cache.gather(batch);
            m.predict_from_taps(&rows.taps, &rows.features, true)
        })
    }

    /// Fraction of parameters that are trainable (the rep path +
    /// classifier over everything) — the paper reports ≈5% for Rep-Net on
    /// ResNet-50.
    pub fn learnable_fraction(&mut self) -> f64 {
        let mut total = 0usize;
        let mut learnable = 0usize;
        Model::params(self, &mut |p: &mut Param| {
            total += p.value.len();
            if !p.frozen {
                learnable += p.value.len();
            }
        });
        learnable as f64 / total.max(1) as f64
    }

    /// Resets the classifier for a new task with `num_classes` outputs
    /// (each continual-learning task trains a fresh classifier head).
    pub fn reset_classifier(&mut self, num_classes: usize, seed: u64) {
        self.classifier =
            SparseLinear::new(self.feature_width + self.rep_channels, num_classes, seed);
    }

    /// Installs an existing classifier head (e.g. a snapshot from an
    /// earlier task).
    ///
    /// # Panics
    ///
    /// Panics if the head's input width does not match the feature width.
    pub fn set_classifier(&mut self, head: SparseLinear) {
        assert_eq!(
            head.inner().in_features(),
            self.feature_width + self.rep_channels,
            "classifier input width mismatch"
        );
        self.classifier = head;
    }

    /// Runs only the frozen backbone (always in inference mode), returning
    /// its per-stage taps and pooled features — the first half of
    /// [`Model::predict`]. Because the backbone never trains, the output
    /// for a given input stays valid until the backbone's weights change,
    /// so callers can cache it (the paper's "saved activation" buffers)
    /// and train the rep path from the cache via [`predict_from_taps`].
    /// Each row depends only on its own input, so rows can be gathered
    /// and stacked freely ([`BackboneOutput::gather`],
    /// [`BackboneOutput::stack`]). [`backbone_cache`] builds the cache
    /// for a whole dataset; `pim-learn`'s `OnlineLearner` keeps one row
    /// per replay sample.
    ///
    /// [`predict_from_taps`]: Self::predict_from_taps
    /// [`backbone_cache`]: Self::backbone_cache
    pub fn backbone_outputs(&mut self, input: &Tensor) -> BackboneOutput {
        self.backbone.forward_with_taps(input, false)
    }

    /// The frozen backbone's output for every example of `data`, one row
    /// per example in index order, computed in batches of
    /// `CACHE_CHUNK` (64) through
    /// [`backbone_outputs`](Self::backbone_outputs). This is the cache
    /// [`calibrate_and_prune`](Self::calibrate_and_prune) and
    /// [`fit_cached`](Self::fit_cached) read; it stays valid until the
    /// backbone's weights or BatchNorm statistics change.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn backbone_cache(&mut self, data: &Dataset) -> BackboneOutput {
        let indices: Vec<usize> = (0..data.len()).collect();
        let chunks: Vec<BackboneOutput> = indices
            .chunks(CACHE_CHUNK)
            .map(|chunk| self.backbone_outputs(&data.inputs().gather_batch(chunk)))
            .collect();
        BackboneOutput::stack(&chunks).expect("cannot cache an empty dataset")
    }

    /// Forward pass of the learnable path from backbone outputs — the
    /// second half of [`Model::predict`]. Produces exactly the same logits
    /// as [`Model::predict`] on the original input (the backbone is
    /// frozen), without re-running the backbone. With `train = true` the
    /// rep path caches what [`Model::backprop`] needs.
    ///
    /// # Panics
    ///
    /// Panics if `taps.len()` differs from the module count.
    pub fn predict_from_taps(&mut self, taps: &[Tensor], features: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            taps.len(),
            self.modules.len(),
            "one tap per rep module required"
        );
        let int8_eval = self.int8_eval;
        let features = maybe_quant(int8_eval, features);
        let mut rep: Option<Tensor> = None;
        for (module, tap) in self.modules.iter_mut().zip(taps) {
            let tap = maybe_quant(int8_eval, tap);
            let next = module.forward(rep.as_ref(), &tap, train);
            rep = Some(if int8_eval {
                fake_quant_auto(&next)
            } else {
                next
            });
        }
        let rep_state = rep.expect("at least one rep module");
        let rep_feat = self.rep_gap.forward(&rep_state, train);
        let combined = concat_cols(&features, &rep_feat);
        Layer::forward(&mut self.classifier, &combined, train)
    }
}

impl Model for RepNet {
    fn predict(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = self.backbone_outputs(input);
        self.predict_from_taps(&out.taps, &out.features, train)
    }

    fn backprop(&mut self, grad_logits: &Tensor) {
        let g_combined = Layer::backward(&mut self.classifier, grad_logits);
        let (_g_backbone_feat, g_rep_feat) = split_cols(&g_combined, self.feature_width);
        let mut g = Some(self.rep_gap.backward(&g_rep_feat));
        for (i, module) in self.modules.iter_mut().enumerate().rev() {
            let upstream = g.take().expect("gradient present while unwinding");
            g = module.backward(&upstream, i > 0);
        }
        debug_assert!(g.is_none(), "first module returns no carried gradient");
    }

    fn params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        Layer::visit_params(&mut self.backbone, f);
        for m in &mut self.modules {
            m.visit_params(f);
        }
        Layer::visit_params(&mut self.classifier, f);
    }

    fn buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        Layer::visit_buffers(&mut self.backbone, f);
    }
}

/// INT8 fake-quant of a branch-boundary activation when `int8_eval` is
/// on (see [`RepNet::set_int8_eval`]); borrowed unchanged when off.
fn maybe_quant(int8_eval: bool, t: &Tensor) -> Cow<'_, Tensor> {
    if int8_eval {
        Cow::Owned(fake_quant_auto(t))
    } else {
        Cow::Borrowed(t)
    }
}

/// Concatenates two `[N, C]` tensors along the feature dimension.
fn concat_cols(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    assert_eq!(a.shape()[0], b.shape()[0], "batch sizes differ");
    let (n, ca, cb) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let mut out = Tensor::zeros(&[n, ca + cb]);
    let o = out.as_mut_slice();
    for i in 0..n {
        o[i * (ca + cb)..i * (ca + cb) + ca].copy_from_slice(&a.as_slice()[i * ca..(i + 1) * ca]);
        o[i * (ca + cb) + ca..(i + 1) * (ca + cb)]
            .copy_from_slice(&b.as_slice()[i * cb..(i + 1) * cb]);
    }
    out
}

/// Splits an `[N, Ca+Cb]` tensor back into `[N, Ca]` and `[N, Cb]`.
fn split_cols(t: &Tensor, ca: usize) -> (Tensor, Tensor) {
    assert_eq!(t.rank(), 2);
    let (n, c) = (t.shape()[0], t.shape()[1]);
    assert!(ca <= c, "split point beyond width");
    let cb = c - ca;
    let mut a = Tensor::zeros(&[n, ca]);
    let mut b = Tensor::zeros(&[n, cb]);
    for i in 0..n {
        a.as_mut_slice()[i * ca..(i + 1) * ca].copy_from_slice(&t.as_slice()[i * c..i * c + ca]);
        b.as_mut_slice()[i * cb..(i + 1) * cb]
            .copy_from_slice(&t.as_slice()[i * c + ca..(i + 1) * c]);
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::backbone::BackboneConfig;
    use crate::train::{evaluate, fit, FitConfig};

    fn tiny_net(classes: usize) -> RepNet {
        RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: classes,
                seed: 3,
            },
        )
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net(5);
        let y = net.predict(&Tensor::ones(&[3, 1, 8, 8]), false);
        assert_eq!(y.shape(), &[3, 5]);
    }

    #[test]
    fn backbone_is_frozen_and_rep_path_is_small() {
        let mut net = tiny_net(5);
        let frac = net.learnable_fraction();
        assert!(frac > 0.0 && frac < 0.75, "learnable fraction {frac}");
        let mut frozen_untouched = true;
        Model::params(&mut net, &mut |p: &mut Param| {
            if p.frozen && p.grad.max_abs() != 0.0 {
                frozen_untouched = false;
            }
        });
        assert!(frozen_untouched);
    }

    #[test]
    fn backward_accumulates_gradients_only_on_rep_path() {
        let mut net = tiny_net(4);
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i as f32 * 0.03).sin());
        let logits = net.predict(&x, true);
        let (_, grad) = crate::layers::softmax_cross_entropy(&logits, &[0, 1]);
        net.backprop(&grad);
        let mut rep_grads = 0.0f32;
        let mut backbone_grads = 0.0f32;
        Model::params(&mut net, &mut |p: &mut Param| {
            if p.frozen {
                backbone_grads += p.grad.max_abs();
            } else {
                rep_grads += p.grad.max_abs();
            }
        });
        assert!(rep_grads > 0.0, "rep path received gradient");
        assert_eq!(backbone_grads, 0.0, "frozen backbone got no gradient");
    }

    #[test]
    fn repnet_learns_a_small_task() {
        let mut net = tiny_net(2);
        // Two blob classes distinguishable by mean intensity.
        let n = 32;
        let inputs = Tensor::from_fn(&[n, 1, 8, 8], |i| {
            let item = i / 64;
            let base = if item % 2 == 0 { 0.2 } else { -0.2 };
            base + ((i * 29) % 17) as f32 * 0.01
        });
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let data = Dataset::new(inputs, labels, 2).unwrap();
        let before = evaluate(&mut net, &data, 16);
        fit(
            &mut net,
            &data,
            &FitConfig {
                epochs: 20,
                batch_size: 8,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
                seed: 7,
            },
        );
        let after = evaluate(&mut net, &data, 16);
        assert!(after >= before, "accuracy regressed {before} -> {after}");
        assert!(after > 0.9, "task not learned: {after}");
    }

    #[test]
    fn sparsity_pattern_applies_to_whole_learnable_path() {
        let mut net = tiny_net(3);
        net.apply_pattern(NmPattern::one_of_four());
        for m in net.modules() {
            for conv in m.sparse_convs() {
                assert!(conv.density() <= 0.25 + 1e-9);
            }
        }
        assert!(net.classifier().density() <= 0.25 + 1e-9);
    }

    #[test]
    fn calibrate_and_prune_uses_saliency() {
        let mut net = tiny_net(2);
        let inputs = Tensor::from_fn(&[8, 1, 8, 8], |i| (i as f32 * 0.05).cos());
        let labels = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let data = Dataset::new(inputs, labels, 2).unwrap();
        let cache = net.backbone_cache(&data);
        net.calibrate_and_prune(&cache, data.labels(), 4, NmPattern::one_of_four());
        for m in net.modules() {
            for conv in m.sparse_convs() {
                assert!(conv.mask().is_some());
            }
        }
        // Gradients were cleared after calibration.
        let mut any_grad = 0.0f32;
        Model::params(&mut net, &mut |p: &mut Param| any_grad += p.grad.max_abs());
        assert_eq!(any_grad, 0.0);
    }

    #[test]
    fn int8_eval_changes_but_does_not_destroy_outputs() {
        let mut net = tiny_net(4);
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i as f32 * 0.11).sin());
        let fp = net.predict(&x, false);
        net.quantize_weights_int8();
        net.set_int8_eval(true);
        let q = net.predict(&x, false);
        assert_eq!(fp.shape(), q.shape());
        // Outputs stay correlated with the FP32 reference.
        let diff: f32 = fp
            .as_slice()
            .iter()
            .zip(q.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / fp.len() as f32;
        assert!(diff < 0.5 * fp.max_abs().max(1e-3), "mean diff {diff}");
    }

    #[test]
    fn reset_classifier_changes_head_width() {
        let mut net = tiny_net(4);
        net.reset_classifier(7, 42);
        let y = net.predict(&Tensor::ones(&[1, 1, 8, 8]), false);
        assert_eq!(y.shape(), &[1, 7]);
    }

    #[test]
    fn predict_from_taps_matches_full_predict() {
        let mut net = tiny_net(4);
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i as f32 * 0.09).sin());
        let full = net.predict(&x, false);
        let out = net.backbone_outputs(&x);
        let cached = net.predict_from_taps(&out.taps, &out.features, false);
        assert_eq!(full, cached);
    }

    fn param_bits(net: &mut RepNet) -> Vec<Vec<u32>> {
        let mut bits = Vec::new();
        Model::params(net, &mut |p: &mut Param| {
            bits.push(p.value.as_slice().iter().map(|v| v.to_bits()).collect())
        });
        bits
    }

    fn history_bits(history: &[EpochStats]) -> Vec<(u32, u64)> {
        history
            .iter()
            .map(|e| (e.loss.to_bits(), e.accuracy.to_bits()))
            .collect()
    }

    /// Calibration and training from the backbone cache against the same
    /// run on raw inputs (per-batch `predict`, then the saliency prune,
    /// then `fit`). 70 examples cross the cache's 64-example chunk.
    #[test]
    fn cached_calibration_and_fit_are_bit_exact_with_raw_input_training() {
        let n = 70;
        let inputs = Tensor::from_fn(&[n, 1, 8, 8], |i| ((i * 37) % 23) as f32 / 23.0 - 0.4);
        let data = Dataset::new(inputs, (0..n).map(|i| (i * 7) % 3).collect(), 3).unwrap();
        let cfg = FitConfig {
            epochs: 3,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 4,
        };
        for pattern in [None, Some(NmPattern::one_of_four())] {
            let mut raw = tiny_net(3);
            let mut cached = raw.clone();
            if let Some(p) = pattern {
                raw.clear_grads();
                let indices: Vec<usize> = (0..n).collect();
                for chunk in indices.chunks(cfg.batch_size) {
                    let (x, labels) = data.batch(chunk);
                    let logits = raw.predict(&x, true);
                    let (_, grad) = crate::layers::softmax_cross_entropy(&logits, &labels);
                    raw.backprop(&grad);
                }
                raw.apply_saliency_pattern(p);
            }
            let raw_history = fit(&mut raw, &data, &cfg);

            let cache = cached.backbone_cache(&data);
            assert_eq!(cache.features.shape()[0], n);
            if let Some(p) = pattern {
                cached.calibrate_and_prune(&cache, data.labels(), cfg.batch_size, p);
            }
            let cached_history = cached.fit_cached(&cache, data.labels(), &cfg);

            assert_eq!(
                history_bits(&cached_history),
                history_bits(&raw_history),
                "{pattern:?}: epoch stats"
            );
            assert!(
                param_bits(&mut cached) == param_bits(&mut raw),
                "{pattern:?}: parameters drifted from raw-input training"
            );
        }
    }

    #[test]
    fn concat_and_split_are_inverses() {
        let a = Tensor::from_fn(&[3, 2], |i| i as f32);
        let b = Tensor::from_fn(&[3, 4], |i| 100.0 + i as f32);
        let joined = concat_cols(&a, &b);
        assert_eq!(joined.shape(), &[3, 6]);
        let (a2, b2) = split_cols(&joined, 2);
        assert_eq!(a2, a);
        assert_eq!(b2, b);
    }
}

//! End-to-end inference of the learnable branch **on the cycle-level PEs**.
//!
//! [`PeRepNet`] compiles a trained [`RepNet`]'s Rep-Net path and classifier
//! into weight-stationary [`SramSparsePe`] tiles — exactly the SRAM-side
//! deployment of the paper — and executes the forward pass through them:
//! every multiply-accumulate of the learnable branch happens inside a
//! simulated PE array with INT8 weights, CSC-compressed indices, and
//! bit-serial arithmetic. Elementwise glue (bias add, ReLU, average
//! pooling, dequantization) runs in the digital periphery the paper's PE
//! already contains (global ReLU, shift accumulators).
//!
//! The frozen backbone taps come from the NN backbone (the MRAM-side
//! layers are verified bit-exactly against the MRAM PE in
//! [`crate::verify`]); the compiled branch re-quantizes activations per
//! layer with calibrated per-tensor scales, which is the standard INT8
//! deployment flow. Tests check that PE-executed predictions agree with
//! the NN-side fake-quant model on the overwhelming majority of inputs.

use pim_nn::layers::predictions;
use pim_nn::models::RepNet;
use pim_nn::quant::QuantParams;
use pim_nn::tensor::Tensor;
use pim_par::{ScratchArena, SharedSliceMut, WorkPool};
use pim_pe::{MatvecCost, PeError, PeStats, PeTelemetry, SparsePe, SramSparsePe};
use pim_sparse::prune::prune_magnitude;
use pim_sparse::{CscMatrix, Matrix, NmPattern};
use std::fmt;
use std::sync::Arc;

/// Aggregate execution statistics of one PE-executed forward pass.
///
/// This is the full [`pim_pe::PeStats`] ledger — cycles, busy time,
/// itemized energy, and MAC counts folded with
/// [`PeStats::record_matvec`] exactly as the PEs themselves account it —
/// so callers (the verifier, the serving runtime) no longer recompute
/// cycle/energy totals ad hoc. Tiles run in parallel on real hardware;
/// these are the summed per-tile figures.
pub type PeRunStats = PeStats;

/// One loaded PE column tile of a layer.
#[derive(Debug, Clone)]
struct PeTile {
    pe: SramSparsePe,
    /// Output-column range `[col_start, col_end)` this tile covers.
    col_start: usize,
    col_end: usize,
    /// Occupied CSC slots — the MACs one matvec on this tile performs.
    nnz: u64,
}

/// Reusable per-layer working buffers — quantized inputs, PE
/// accumulators, classifier row staging, and the per-tile cost replay
/// list. Buffers grow to the layer's steady-state sizes on first use and
/// are reused thereafter, so the per-row / per-matvec hot loop performs
/// no heap allocation after warmup (the input rows are filled in a
/// per-executor [`ScratchArena`], reused across jobs).
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `rows × reduction` quantized activations.
    x_q: Vec<i8>,
    /// Per-row dequantization scale (`weight_scale × activation_scale`).
    scales: Vec<f32>,
    /// `rows × tile_cols` raw PE accumulators, one region per tile.
    acc: Vec<i32>,
    /// Staged input rows (the classifier's pooled feature batch).
    patches: Vec<f32>,
    /// Per-tile `(cost, nnz)` of the last call, replayed into the run
    /// ledger in the sequential (row-major, tile-minor) order.
    costs: Vec<(MatvecCost, u64)>,
    /// Prefix offsets of each tile's region in the shared `acc` arena
    /// (`tiles + 1` entries) — lets parallel tile tasks write disjointly.
    tile_off: Vec<usize>,
    /// Per-executor `reduction`-sized input rows for the quantize
    /// fan-out: tasks run on whichever executor steals them, so the row
    /// staging is keyed by executor slot instead of being reallocated
    /// inside every chunk closure.
    row_bufs: ScratchArena<Vec<f32>>,
}

/// Rows per parallel batch block: enough blocks to feed every executor
/// roughly twice (for load balance against uneven tile sizes), never
/// smaller than one row. A serial pool keeps the whole batch in one block.
fn par_block(batch: usize, threads: usize) -> usize {
    if threads <= 1 {
        batch
    } else {
        batch.div_ceil(threads * 2).max(1)
    }
}

/// Row-block size of a tile × row-block compute grid: when the layer
/// already holds enough tiles to feed every executor roughly twice, the
/// batch stays whole (tile-level split — fewer, larger tasks); otherwise
/// the rows split into [`par_block`] blocks (batch-level split) to
/// manufacture enough grid cells. Either way the split is
/// bit-transparent: each cell computes outputs that depend only on its
/// own (input row, column) pairs.
fn grid_block(batch: usize, tiles: usize, threads: usize) -> usize {
    if threads <= 1 || tiles >= threads * 2 {
        batch
    } else {
        par_block(batch, threads)
    }
}

/// Lowers a reduction-first weight matrix for the PEs: quantizes it once
/// under its calibrated per-tensor scale and returns that scale with the
/// per-tile step, which N:M-prunes column block `[c, end)` by magnitude
/// under `pattern` and CSC-compresses it into the program a tile loads.
/// Compile, differential update and the write preflight all lower through
/// here, so their tile programs agree bit for bit.
fn lower_weights(
    w: &Matrix<f32>,
    pattern: NmPattern,
) -> (f32, impl Fn(usize, usize) -> CscMatrix + Sync) {
    let params = QuantParams::calibrate(w.as_slice());
    let quantized = w.map(|v| params.quantize_value(v));
    let lower = move |c: usize, end: usize| {
        let block = Matrix::from_fn(quantized.rows(), end - c, |r, j| quantized[(r, c + j)]);
        let mask = prune_magnitude(&block, pattern).expect("non-empty block");
        CscMatrix::compress(&block, &mask).expect("mask fits block")
    };
    (params.scale(), lower)
}

/// A conv or linear layer compiled into weight-stationary SRAM PE tiles.
#[derive(Debug, Clone)]
struct PeLayer {
    name: String,
    tiles: Vec<PeTile>,
    weight_scale: f32,
    bias: Vec<f32>,
    reduction: usize,
    outputs: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    scratch: Scratch,
}

impl PeLayer {
    /// Compiles a layer's reduction-first weights under its pattern.
    fn compile(src: &LayerWeights) -> Result<Self, PeError> {
        let (w, pattern) = (&src.weights, src.pattern);
        let (kernel, stride, padding) = src.geometry;
        let slots_per_col = pattern.slots_for(w.rows());
        let groups_per_col = slots_per_col.div_ceil(128).max(1);
        let cols_per_tile = (8 / groups_per_col).max(1);
        let (weight_scale, lower) = lower_weights(w, pattern);
        let mut tiles = Vec::new();
        for c in (0..w.cols()).step_by(cols_per_tile) {
            let end = (c + cols_per_tile).min(w.cols());
            let csc = lower(c, end);
            let mut pe = SramSparsePe::new();
            pe.load(&csc)?;
            tiles.push(PeTile {
                pe,
                col_start: c,
                col_end: end,
                nnz: csc.nnz() as u64,
            });
        }
        Ok(Self {
            name: src.name.clone(),
            tiles,
            weight_scale,
            bias: src.bias.to_vec(),
            reduction: w.rows(),
            outputs: w.cols(),
            kernel,
            stride,
            padding,
            scratch: Scratch::default(),
        })
    }

    /// Differentially re-targets the loaded tiles at new weights: each
    /// tile re-lowers its column block and rewrites only the changed
    /// bit-cells via [`SramSparsePe::update`]. The tile geometry is fixed
    /// at compile time (shapes and pattern don't change between updates),
    /// so the resulting programs are identical to a cold
    /// [`compile`](PeLayer::compile) of the same weights. Returns the PE
    /// ledger delta of the rewrite (the online-learning write bill).
    fn update(&mut self, src: &LayerWeights) -> Result<PeStats, PeError> {
        self.assert_shape(&src.weights);
        let (weight_scale, lower) = lower_weights(&src.weights, src.pattern);
        let mut delta = PeStats::new();
        for tile in &mut self.tiles {
            let csc = lower(tile.col_start, tile.col_end);
            let before = *tile.pe.stats();
            tile.pe.update(&csc)?;
            delta += tile.pe.stats().since(&before);
            tile.nnz = csc.nnz() as u64;
        }
        self.weight_scale = weight_scale;
        self.bias = src.bias.to_vec();
        Ok(delta)
    }

    /// Batched quantized matvecs through the tiles:
    /// `out[b] = deq(PE(q(xs[b]))) + bias` for each of the `batch`
    /// row-major input rows, activations quantized **per input** exactly
    /// as sequential execution does. Runs the one tile × row-block grid
    /// ([`run_grid`](PeLayer::run_grid)), so outputs and the f64 run
    /// ledger are bit-identical to one-at-a-time calls regardless of
    /// thread count or interleaving. Zero heap allocation after the layer
    /// scratch has warmed up.
    fn forward_batch(
        &mut self,
        xs: &[f32],
        batch: usize,
        out: &mut [f32],
        stats: &mut PeRunStats,
        pool: &WorkPool,
    ) {
        debug_assert_eq!(xs.len(), batch * self.reduction);
        let (reduction, outputs) = (self.reduction, self.outputs);
        self.quantize_rows(batch, pool, |b, row| {
            row.copy_from_slice(&xs[b * reduction..(b + 1) * reduction]);
        });
        // SAFETY: `b * outputs + co` with `co < outputs` is injective.
        unsafe { self.run_grid(batch, out, stats, pool, |b, co| b * outputs + co) };
    }

    /// Direct sparse convolution over an NCHW tensor — **no im2col
    /// round-trip**. Each of the `n × oh×ow` output positions streams
    /// through the pipeline whole: its window is gathered into a
    /// task-local row, calibrated and quantized immediately (same values
    /// as the staged path, so the per-row scale is bit-identical), the
    /// tile × row-block grid runs over the quantized rows, and each cell
    /// dequantizes its accumulators **directly into the strided NCHW
    /// output** — no `rows × reduction` f32 patch arena and no
    /// `rows × outputs` staged arena is ever written. The flat
    /// `(position, tile)` cost replay is the same sequence the im2col
    /// oracle bills, so the ledgers agree.
    fn conv_forward(&mut self, input: &Tensor, stats: &mut PeRunStats, pool: &WorkPool) -> Tensor {
        let s = input.shape();
        let (n, cin, h, w) = (s[0], s[1], s[2], s[3]);
        let (k, stride, padding) = (self.kernel, self.stride, self.padding);
        assert_eq!(cin * k * k, self.reduction, "layer {}: geometry", self.name);
        let (oh, ow) = conv_out_dims(h, w, k, stride, padding);
        let positions = oh * ow;
        let outputs = self.outputs;
        let x = input.as_slice();
        let mut out = Tensor::zeros(&[n, outputs, oh, ow]);
        self.quantize_rows(n * positions, pool, |p, row| {
            let (ni, pos) = (p / positions, p % positions);
            let (oy, ox) = (pos / ow, pos % ow);
            row.fill(0.0);
            gather_patch_into(x, row, ni, oy, ox, cin, h, w, k, stride, padding);
        });
        // SAFETY: row p is (image ni, position pos) with pos < positions,
        // and NCHW `(ni * outputs + co) * positions + pos` with
        // co < outputs is injective over (ni, co, pos).
        unsafe {
            self.run_grid(n * positions, out.as_mut_slice(), stats, pool, |p, co| {
                let (ni, pos) = (p / positions, p % positions);
                (ni * outputs + co) * positions + pos
            })
        };
        out
    }

    /// Fills, calibrates and quantizes `rows` input rows into the layer
    /// scratch, fanned out over `pool`: `fill(p, row)` writes every value
    /// of row `p` into a per-executor `reduction`-sized buffer, which
    /// leaves as INT8 codes plus its dequantization scale. Rows are
    /// independent, so the chunking never changes a code or a scale.
    fn quantize_rows(
        &mut self,
        rows: usize,
        pool: &WorkPool,
        fill: impl Fn(usize, &mut [f32]) + Sync,
    ) {
        let reduction = self.reduction;
        let weight_scale = self.weight_scale;
        self.scratch.x_q.resize(rows * reduction, 0);
        self.scratch.scales.resize(rows, 0.0);
        self.scratch.row_bufs.ensure_slots(pool.threads());
        let x_q = SharedSliceMut::new(&mut self.scratch.x_q);
        let scales = SharedSliceMut::new(&mut self.scratch.scales);
        let row_bufs = &self.scratch.row_bufs;
        let est = (rows * reduction) as u64;
        pool.for_each_chunk_costed(rows, par_block(rows, pool.threads()), est, |range| {
            // SAFETY: chunk row ranges are disjoint, so the x_q and
            // scales regions they map to are disjoint too.
            let (q, sc) = unsafe {
                (
                    x_q.slice(range.start * reduction..range.end * reduction),
                    scales.slice(range.clone()),
                )
            };
            row_bufs.with(|row_buf| {
                row_buf.resize(reduction, 0.0);
                for (i, p) in range.enumerate() {
                    fill(p, row_buf);
                    let x_params = QuantParams::calibrate(row_buf);
                    sc[i] = weight_scale * x_params.scale();
                    x_params.quantize_into(row_buf, &mut q[i * reduction..(i + 1) * reduction]);
                }
            });
        });
    }

    /// The layer's one tile × row-block compute grid over the `rows` rows
    /// [`quantize_rows`](PeLayer::quantize_rows) left in the scratch. Each
    /// cell runs [`SramSparsePe::matvec_batch_compute`] into its own
    /// region of the accumulator arena and writes the dequantized value of
    /// each of its (row, column) pairs, `acc · scale[row] + bias[column]`,
    /// to `out[place(row, column)]`. Integer kernel outputs depend only on
    /// their own (row, column) pair, so the block split is
    /// bit-transparent.
    ///
    /// The `rows × tiles` matvec bills are folded **after the join,
    /// serially**: each tile's own ledger folds its `rows` matvecs (the
    /// tile-local f64 order of the fused call), then `stats` replays them
    /// row-major, tile-minor — the exact sequential-execution order.
    ///
    /// # Safety
    ///
    /// `place` must map distinct (row, column) pairs, `row < rows` and
    /// `column < outputs`, to distinct indices: cells write `out`
    /// concurrently through those indices. (An index past `out` panics.)
    unsafe fn run_grid(
        &mut self,
        rows: usize,
        out: &mut [f32],
        stats: &mut PeRunStats,
        pool: &WorkPool,
        place: impl Fn(usize, usize) -> usize + Sync,
    ) {
        let reduction = self.reduction;
        let Scratch {
            x_q,
            scales,
            acc,
            tile_off,
            costs,
            ..
        } = &mut self.scratch;
        tile_off.clear();
        tile_off.push(0);
        for tile in &self.tiles {
            let last = *tile_off.last().expect("seeded with 0");
            tile_off.push(last + (tile.col_end - tile.col_start) * rows);
        }
        acc.resize(*tile_off.last().expect("seeded with 0"), 0);
        let block = grid_block(rows, self.tiles.len(), pool.threads());
        let n_blocks = rows.div_ceil(block);
        {
            let tiles = &self.tiles;
            let bias = &self.bias;
            let x_q = &*x_q;
            let scales = &*scales;
            let tile_off = &*tile_off;
            let acc_view = SharedSliceMut::new(acc);
            let out_view = SharedSliceMut::new(out);
            let est = tiles.iter().map(|t| t.nnz).sum::<u64>() * rows as u64;
            pool.run_costed(tiles.len() * n_blocks, est, |t| {
                let (ti, blk) = (t / n_blocks, t % n_blocks);
                let tile = &tiles[ti];
                let tc = tile.col_end - tile.col_start;
                let (b0, b1) = (blk * block, ((blk + 1) * block).min(rows));
                // SAFETY: tile ti owns acc[tile_off[ti]..tile_off[ti+1]],
                // sliced by disjoint row blocks — pairwise disjoint across
                // the grid.
                let acc_region =
                    unsafe { acc_view.slice(tile_off[ti] + b0 * tc..tile_off[ti] + b1 * tc) };
                tile.pe
                    .matvec_batch_compute(&x_q[b0 * reduction..b1 * reduction], b1 - b0, acc_region)
                    .expect("tile loaded at compile time");
                for b in b0..b1 {
                    let scale = scales[b];
                    for (j, &a) in acc_region[(b - b0) * tc..(b - b0 + 1) * tc]
                        .iter()
                        .enumerate()
                    {
                        let co = tile.col_start + j;
                        // SAFETY: rows are private to this block and
                        // columns private to this tile, and the caller
                        // guarantees `place` keeps distinct (row, column)
                        // pairs distinct.
                        unsafe { out_view.write(place(b, co), a as f32 * scale + bias[co]) };
                    }
                }
            });
        }

        costs.clear();
        for tile in &mut self.tiles {
            let cost = tile
                .pe
                .record_matvecs(rows)
                .expect("tile loaded at compile time");
            costs.push((cost, tile.nnz));
        }
        for _ in 0..rows {
            for &(cost, nnz) in costs.iter() {
                stats.record_matvec_cost(&cost, nnz);
            }
        }
    }

    /// Cumulative statistics of this layer's tiles, as the PEs account
    /// them (includes the compile-time tile load).
    fn cumulative_stats(&self) -> PeStats {
        self.tiles.iter().map(|t| *t.pe.stats()).sum()
    }

    /// Reference im2col convolution — gather the full patch matrix, run
    /// one merged batched call, scatter the staged rows into NCHW. Kept
    /// as the differential oracle the streaming
    /// [`conv_forward`](PeLayer::conv_forward) is tested against.
    #[cfg(test)]
    fn conv_forward_im2col(
        &mut self,
        input: &Tensor,
        stats: &mut PeRunStats,
        pool: &WorkPool,
    ) -> Tensor {
        let s = input.shape();
        let (n, h, w) = (s[0], s[2], s[3]);
        let k = self.kernel;
        let (oh, ow) = conv_out_dims(h, w, k, self.stride, self.padding);
        let positions = oh * ow;
        let rows = n * positions;
        let mut out = Tensor::zeros(&[n, self.outputs, oh, ow]);
        let mut patches = Vec::new();
        let mut staged = vec![0.0; rows * self.outputs];
        gather_patches(
            input,
            self.reduction,
            k,
            self.stride,
            self.padding,
            oh,
            ow,
            &mut patches,
            pool,
        );
        self.forward_batch(&patches, rows, &mut staged, stats, pool);
        scatter_staged(
            &staged,
            out.as_mut_slice(),
            n,
            self.outputs,
            positions,
            pool,
        );
        out
    }

    /// The exact bit-toggle bill an [`update`](PeLayer::update) to `src`
    /// would pay, computed **without writing anything**: per tile,
    /// re-lower the column block and XOR-count it against the resident
    /// program ([`SramSparsePe::diff_bits`]). Tiles are independent and
    /// the u64 sum is order-free, so the diff fans out over the pool while
    /// still matching the sequential rewrite's bill exactly.
    fn pending_write_bits(&self, src: &LayerWeights, pool: &WorkPool) -> Result<u64, PeError> {
        self.assert_shape(&src.weights);
        let (_, lower) = lower_weights(&src.weights, src.pattern);
        let mut bits: Vec<Result<u64, PeError>> = vec![Ok(0); self.tiles.len()];
        {
            let tiles = &self.tiles;
            let lower = &lower;
            let view = SharedSliceMut::new(&mut bits);
            pool.run(tiles.len(), |ti| {
                let tile = &tiles[ti];
                let csc = lower(tile.col_start, tile.col_end);
                // SAFETY: each task owns exactly slot ti.
                unsafe { view.slice(ti..ti + 1)[0] = tile.pe.diff_bits(&csc) };
            });
        }
        bits.into_iter().try_fold(0u64, |acc, b| Ok(acc + b?))
    }

    /// Re-lowering keeps the compiled tile geometry, so new weights must
    /// have the compiled shape.
    fn assert_shape(&self, w: &Matrix<f32>) {
        assert_eq!(w.rows(), self.reduction, "layer {}: reduction", self.name);
        assert_eq!(w.cols(), self.outputs, "layer {}: outputs", self.name);
    }
}

/// Output height/width of a `k×k` conv with `stride`/`padding` over `h×w`.
fn conv_out_dims(h: usize, w: usize, k: usize, stride: usize, padding: usize) -> (usize, usize) {
    (
        (h + 2 * padding - k) / stride + 1,
        (w + 2 * padding - k) / stride + 1,
    )
}

/// Gathers the whole batch's `n·oh·ow × reduction` im2col patch matrix in
/// position-major row order; patch rows fan out over the pool. `patches`
/// is resized to fit. Only the reference
/// [`conv_forward_im2col`](PeLayer::conv_forward_im2col) oracle still
/// stages the full matrix — production conv streams patches directly.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn gather_patches(
    input: &Tensor,
    reduction: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    patches: &mut Vec<f32>,
    pool: &WorkPool,
) {
    let s = input.shape();
    let (n, cin, h, w) = (s[0], s[1], s[2], s[3]);
    debug_assert_eq!(cin * k * k, reduction);
    let positions = oh * ow;
    let rows = n * positions;
    let x = input.as_slice();
    patches.resize(rows * reduction, 0.0);
    // Every patch row is an independent gather from the input.
    let patches_view = SharedSliceMut::new(patches);
    pool.for_each_chunk(rows, par_block(rows, pool.threads()), |range| {
        // SAFETY: chunk row ranges are disjoint.
        let dst = unsafe { patches_view.slice(range.start * reduction..range.end * reduction) };
        dst.iter_mut().for_each(|v| *v = 0.0);
        for (i, p) in range.enumerate() {
            let (ni, pos) = (p / positions, p % positions);
            let (oy, ox) = (pos / ow, pos % ow);
            let patch = &mut dst[i * reduction..(i + 1) * reduction];
            gather_patch_into(x, patch, ni, oy, ox, cin, h, w, k, stride, padding);
        }
    });
}

/// Gathers the single im2col patch row of output position `(oy, ox)` in
/// image `ni` into `patch` (length `cin·k·k`, **pre-zeroed** by the
/// caller — out-of-bounds window cells keep the zero padding). Shared by
/// the batched [`gather_patches`] staging and the direct-conv streaming
/// path so both produce bit-identical rows.
#[allow(clippy::too_many_arguments)]
fn gather_patch_into(
    x: &[f32],
    patch: &mut [f32],
    ni: usize,
    oy: usize,
    ox: usize,
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
) {
    for ci in 0..cin {
        for ky in 0..k {
            let iy = (oy * stride + ky) as isize - padding as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            for kx in 0..k {
                let ix = (ox * stride + kx) as isize - padding as isize;
                if ix < 0 || ix >= w as isize {
                    continue;
                }
                patch[(ci * k + ky) * k + kx] =
                    x[((ni * cin + ci) * h + iy as usize) * w + ix as usize];
            }
        }
    }
}

/// Scatters position-major staged rows (`n·positions × outputs`) into the
/// NCHW output slice; each image owns a contiguous output region. Like
/// [`gather_patches`], only the im2col test oracle still needs this.
#[cfg(test)]
fn scatter_staged(
    staged: &[f32],
    os: &mut [f32],
    n: usize,
    outputs: usize,
    positions: usize,
    pool: &WorkPool,
) {
    let os_view = SharedSliceMut::new(os);
    pool.run(n, |ni| {
        // SAFETY: image ni owns os[ni·C·P .. (ni+1)·C·P].
        let img =
            unsafe { os_view.slice(ni * outputs * positions..(ni + 1) * outputs * positions) };
        for p in 0..positions {
            for (co, &v) in staged[(ni * positions + p) * outputs..][..outputs]
                .iter()
                .enumerate()
            {
                img[co * positions + p] = v;
            }
        }
    });
}

/// One learnable layer of a [`RepNet`] as the PEs take it: its name,
/// reduction-first weights, bias, compile pattern and `(kernel, stride,
/// padding)` geometry (`(1, 1, 0)` for the classifier).
struct LayerWeights<'a> {
    name: String,
    weights: Matrix<f32>,
    bias: &'a [f32],
    pattern: NmPattern,
    geometry: (usize, usize, usize),
}

/// Every learnable layer of `model` in branch order — each module's
/// proj (dense `4:4`), conv3 and conv1, then the classifier — each under
/// its mask's pattern, or dense `4:4` when unmasked. Compile, refresh and
/// the write preflight all walk this one list.
fn learnable_layers(model: &RepNet) -> Vec<LayerWeights<'_>> {
    let dense = NmPattern::new(4, 4).expect("dense encoding");
    let mut layers = Vec::with_capacity(3 * model.modules().len() + 1);
    for (i, module) in model.modules().iter().enumerate() {
        let proj = module.connector();
        layers.push(LayerWeights {
            name: format!("rep{i}.proj"),
            weights: proj.weight_matrix(),
            bias: proj.bias_values(),
            pattern: dense,
            geometry: (proj.kernel(), proj.stride(), proj.padding()),
        });
        for (conv, tag) in module.sparse_convs().into_iter().zip(["conv3", "conv1"]) {
            let inner = conv.inner();
            layers.push(LayerWeights {
                name: format!("rep{i}.{tag}"),
                weights: inner.weight_matrix(),
                bias: inner.bias_values(),
                pattern: conv.mask().map_or(dense, |m| m.pattern()),
                geometry: (inner.kernel(), inner.stride(), inner.padding()),
            });
        }
    }
    let clf = model.classifier();
    layers.push(LayerWeights {
        name: "classifier".to_owned(),
        weights: clf.inner().weight_matrix(),
        bias: clf.inner().bias_values(),
        pattern: clf.mask().map_or(dense, |m| m.pattern()),
        geometry: (1, 1, 0),
    });
    layers
}

/// One Rep-Net module compiled onto PEs.
#[derive(Debug, Clone)]
struct PeModule {
    pools_prev: bool,
    proj: PeLayer,
    conv3: PeLayer,
    conv1: PeLayer,
}

/// The Rep-Net learnable branch compiled onto SRAM sparse PEs.
///
/// # Example
///
/// ```no_run
/// use pim_core::pe_inference::PeRepNet;
/// # use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
/// # use pim_nn::tensor::Tensor;
/// let mut model = RepNet::new(
///     Backbone::new(BackboneConfig::tiny()),
///     RepNetConfig { rep_channels: 4, num_classes: 5, seed: 2 },
/// );
/// let mut compiled = PeRepNet::compile(&model)?;
/// let x = Tensor::ones(&[1, 1, 8, 8]);
/// let (logits, stats) = compiled.predict(&mut model, &x);
/// assert_eq!(logits.shape(), &[1, 5]);
/// assert!(stats.matvecs > 0);
/// # Ok::<(), pim_pe::PeError>(())
/// ```
///
/// Cloning a compiled branch duplicates every loaded tile, so replicas
/// can serve concurrently (each owning its simulated PEs) without
/// recompiling — this is what `pim-runtime` fans out across workers.
#[derive(Debug, Clone)]
pub struct PeRepNet {
    modules: Vec<PeModule>,
    classifier: PeLayer,
    feature_width: usize,
    /// Live counter mirror: when attached, every `predict`/`refresh`
    /// ledger delta is also folded into the shared telemetry counters
    /// (clones share the same counters, so a worker pool aggregates).
    telemetry: Option<PeTelemetry>,
    /// Intra-request compute pool. Defaults to a serial pool; clones share
    /// the same pool (serving replicas time-share one set of threads).
    pool: Arc<WorkPool>,
}

impl PeRepNet {
    /// Compiles the learnable branch of `model` into loaded PE tiles.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] if a layer tile exceeds PE capacity.
    pub fn compile(model: &RepNet) -> Result<Self, PeError> {
        let mut layers = learnable_layers(model)
            .iter()
            .map(PeLayer::compile)
            .collect::<Result<Vec<_>, _>>()?
            .into_iter();
        let mut next = || {
            layers
                .next()
                .expect("three layers per module, then the classifier")
        };
        let modules = (0..model.modules().len())
            .map(|i| PeModule {
                pools_prev: i > 0,
                proj: next(),
                conv3: next(),
                conv1: next(),
            })
            .collect();
        let classifier = next();
        let feature_width = model.backbone().config().feature_width();
        Ok(Self {
            modules,
            classifier,
            feature_width,
            telemetry: None,
            pool: Arc::new(WorkPool::serial()),
        })
    }

    /// Attaches a shared [`WorkPool`]: from now on `predict` and
    /// [`pending_write_bits`](PeRepNet::pending_write_bits) fan their
    /// tile/row grids out over it. Outputs and ledgers are bit-identical
    /// at every thread count (see the module docs of `pim_par`); a
    /// 1-thread pool **is** the serial path. Clones made after attachment
    /// share the pool.
    pub fn attach_pool(&mut self, pool: Arc<WorkPool>) {
        self.pool = pool;
    }

    /// The attached compute pool (serial by default).
    pub fn pool(&self) -> &Arc<WorkPool> {
        &self.pool
    }

    /// Attaches a [`PeTelemetry`] counter bundle: from now on every
    /// [`predict`](PeRepNet::predict) run ledger and every
    /// [`refresh`](PeRepNet::refresh) write-back delta is also recorded
    /// into its registry, making read/write/leakage energy observable
    /// mid-run. Replaces any previous attachment; clones of the branch
    /// share the same counters.
    pub fn attach_telemetry(&mut self, telemetry: PeTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Detaches the telemetry bundle (recording stops; counters keep
    /// their values in the registry).
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Differentially rewrites the resident SRAM tiles with `model`'s
    /// current learnable weights — the on-device learning write-back path:
    /// only changed bit-cells toggle and pay write energy, while the tile
    /// geometry (and the frozen backbone) stays put. Afterwards the branch
    /// is indistinguishable from a cold [`compile`](PeRepNet::compile) of
    /// the same model: predictions are bit-exact.
    ///
    /// Returns the PE ledger delta of the rewrite (loads, cycles, write
    /// bits and energy), which `pim-learn` meters against the endurance
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] if a rewritten layer no longer fits its PEs
    /// (cannot happen while shapes and patterns are unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `model` is structurally different from the model this
    /// branch was compiled from.
    pub fn refresh(&mut self, model: &RepNet) -> Result<PeStats, PeError> {
        assert_eq!(
            self.modules.len(),
            model.modules().len(),
            "branch was compiled from a different model"
        );
        let mut delta = PeStats::new();
        for (layer, src) in self.layers_mut().zip(learnable_layers(model)) {
            delta += layer.update(&src)?;
        }
        if let Some(t) = &self.telemetry {
            t.record(&delta);
        }
        Ok(delta)
    }

    /// The exact number of SRAM bits a [`refresh`](PeRepNet::refresh) to
    /// `model`'s current weights would toggle, **without writing
    /// anything** — the write-back preflight `pim-learn` authorizes
    /// against its endurance budget. Per-tile diffs fan out over the
    /// attached pool; the u64 sum is order-independent, so the figure is
    /// identical to what the sequential rewrite will bill.
    ///
    /// # Errors
    ///
    /// Same conditions as [`refresh`](PeRepNet::refresh).
    ///
    /// # Panics
    ///
    /// Panics if `model` is structurally different from the model this
    /// branch was compiled from.
    pub fn pending_write_bits(&self, model: &RepNet) -> Result<u64, PeError> {
        assert_eq!(
            self.modules.len(),
            model.modules().len(),
            "branch was compiled from a different model"
        );
        let mut total = 0u64;
        for (layer, src) in self.layers().zip(learnable_layers(model)) {
            total += layer.pending_write_bits(&src, &self.pool)?;
        }
        Ok(total)
    }

    /// Runs the compiled branch: backbone taps from the (frozen) NN
    /// backbone, every learnable MAC on the PEs. Returns logits and PE
    /// execution statistics.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model this branch was compiled from
    /// (shape mismatches).
    pub fn predict(&mut self, model: &mut RepNet, input: &Tensor) -> (Tensor, PeRunStats) {
        let mut stats = PeRunStats::default();
        let pool = Arc::clone(&self.pool);
        // The frozen backbone shares the branch's pool: its conv rows fan
        // out bit-identically to serial. Attaching is a handful of Arc
        // stores — cheap enough to do per call, and it keeps the model
        // consistent with whatever pool this branch currently holds.
        model.attach_pool(&pool);
        let out = model.backbone_outputs(input);
        let batch = input.shape()[0];
        let mut rep: Option<Tensor> = None;
        for (module, tap) in self.modules.iter_mut().zip(&out.taps) {
            // Activation connector on PE.
            let projected = module.proj.conv_forward(tap, &mut stats, &pool);
            // Mix with the (pooled) carried state; digital periphery.
            let mix = match (&rep, module.pools_prev) {
                (Some(r), true) => projected.add(&avg_pool2(r)).expect("rep shapes align"),
                (Some(r), false) => projected.add(r).expect("rep shapes align"),
                (None, _) => projected,
            };
            let mut a = mix;
            relu_in_place(&mut a); // global ReLU, no fresh tensor
            let mut h = module.conv3.conv_forward(&a, &mut stats, &pool);
            relu_in_place(&mut h);
            let mut o = module.conv1.conv_forward(&h, &mut stats, &pool);
            relu_in_place(&mut o);
            rep = Some(o);
        }
        let rep_state = rep.expect("at least one module");
        let rep_feat = global_avg_pool(&rep_state);
        // Classifier on PE: stage the feature rows in the classifier's
        // scratch and run the whole batch as one batched call per tile.
        let rc = rep_feat.shape()[1];
        let width = self.classifier.reduction;
        debug_assert_eq!(self.feature_width + rc, width);
        let mut rows = std::mem::take(&mut self.classifier.scratch.patches);
        rows.resize(batch * width, 0.0);
        for b in 0..batch {
            let dst = &mut rows[b * width..(b + 1) * width];
            dst[..self.feature_width].copy_from_slice(
                &out.features.as_slice()[b * self.feature_width..(b + 1) * self.feature_width],
            );
            dst[self.feature_width..].copy_from_slice(&rep_feat.as_slice()[b * rc..(b + 1) * rc]);
        }
        let mut logits = Tensor::zeros(&[batch, self.classifier.outputs]);
        self.classifier
            .forward_batch(&rows, batch, logits.as_mut_slice(), &mut stats, &pool);
        self.classifier.scratch.patches = rows;
        if let Some(t) = &self.telemetry {
            t.record(&stats);
        }
        (logits, stats)
    }

    /// Convenience: classify a batch on the PEs.
    pub fn classify(&mut self, model: &mut RepNet, input: &Tensor) -> (Vec<usize>, PeRunStats) {
        let (logits, stats) = self.predict(model, input);
        (predictions(&logits), stats)
    }

    /// Runs only the first module's compiled 3×3 conv stage — the direct
    /// sparse convolution (fused gather → quantize → PE tile grid →
    /// strided dequant) without the f32 backbone in front of it.
    /// `features` must be `[N, C, H, W]` with `C` equal to the module's
    /// rep width. Bench/diagnostic hook: this is the kernel
    /// `BENCH_kernels.json` tracks as `direct_conv_*`; the full pipeline
    /// is [`predict`](Self::predict).
    pub fn conv3_stage_forward(&mut self, features: &Tensor) -> (Tensor, PeRunStats) {
        let mut stats = PeRunStats::default();
        let pool = Arc::clone(&self.pool);
        let module = self
            .modules
            .first_mut()
            .expect("compiled branch is non-empty");
        let out = module.conv3.conv_forward(features, &mut stats, &pool);
        (out, stats)
    }

    /// Number of PE tiles loaded across the branch.
    pub fn tile_count(&self) -> usize {
        self.layers().map(|l| l.tiles.len()).sum()
    }

    /// Per-layer cumulative statistics, straight from each tile's own
    /// [`PeStats`] ledger (so cycle/energy counters are never recomputed
    /// outside the PEs). Includes the compile-time tile loads.
    pub fn layer_stats(&self) -> Vec<(String, PeStats)> {
        self.layers()
            .map(|l| (l.name.clone(), l.cumulative_stats()))
            .collect()
    }

    /// Cumulative ledger of each of `groups` macro groups (at least one)
    /// in a MARS-style multi-macro deployment: every layer's column tiles
    /// are dealt round-robin, tile *i* of a layer billing group *i mod G*.
    /// Column tiles partition the output space and one request's tiles
    /// run the same way wherever they sit, so deployment across groups
    /// changes no logit and no run ledger — it only partitions this
    /// ledger. The entries sum to
    /// [`cumulative_stats`](Self::cumulative_stats); a group past every
    /// layer's tile count stays empty.
    pub fn group_stats(&self, groups: usize) -> Vec<PeStats> {
        let groups = groups.max(1);
        let mut totals = vec![PeStats::new(); groups];
        for layer in self.layers() {
            for (i, tile) in layer.tiles.iter().enumerate() {
                totals[i % groups] += *tile.pe.stats();
            }
        }
        totals
    }

    /// Cumulative statistics over the whole branch (loads + matvecs).
    pub fn cumulative_stats(&self) -> PeStats {
        self.layer_stats().into_iter().map(|(_, s)| s).sum()
    }

    /// Every compiled layer in branch order (the order of
    /// [`learnable_layers`]).
    fn layers(&self) -> impl Iterator<Item = &PeLayer> {
        self.modules
            .iter()
            .flat_map(|m| [&m.proj, &m.conv3, &m.conv1])
            .chain(std::iter::once(&self.classifier))
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut PeLayer> {
        self.modules
            .iter_mut()
            .flat_map(|m| [&mut m.proj, &mut m.conv3, &mut m.conv1])
            .chain(std::iter::once(&mut self.classifier))
    }
}

impl fmt::Display for PeRepNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PeRepNet: {} modules + classifier across {} SRAM PE tiles",
            self.modules.len(),
            self.tile_count()
        )
    }
}

/// In-place ReLU (digital periphery — the PE's global ReLU unit).
fn relu_in_place(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// 2×2 average pooling (digital periphery — shift-add).
fn avg_pool2(t: &Tensor) -> Tensor {
    let s = t.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let x = t.as_slice();
    let mut out = Tensor::zeros(&[n, c, h / 2, w / 2]);
    let os = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..h / 2 {
                for ox in 0..w / 2 {
                    let mut acc = 0.0;
                    for ky in 0..2 {
                        for kx in 0..2 {
                            acc += x[((ni * c + ci) * h + oy * 2 + ky) * w + ox * 2 + kx];
                        }
                    }
                    os[((ni * c + ci) * (h / 2) + oy) * (w / 2) + ox] = acc * 0.25;
                }
            }
        }
    }
    out
}

/// Global average pooling NCHW → `[N, C]`.
fn global_avg_pool(t: &Tensor) -> Tensor {
    let s = t.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let x = t.as_slice();
    let mut out = Tensor::zeros(&[n, c]);
    let os = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            os[ni * c + ci] = x[base..base + h * w].iter().sum::<f32>() / (h * w) as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_data::SyntheticSpec;
    use pim_nn::models::{Backbone, BackboneConfig, RepNetConfig};
    use pim_nn::train::{fit, FitConfig, Model};
    use proptest::prelude::*;

    fn trained_model(pattern: Option<NmPattern>) -> (RepNet, pim_data::Task) {
        let backbone_cfg = BackboneConfig {
            in_channels: 3,
            image_size: 8,
            stage_widths: vec![8, 16],
            blocks_per_stage: 1,
            seed: 1,
        };
        let task = SyntheticSpec::cifar10_like()
            .with_geometry(8, 3)
            .with_samples(8, 6)
            .with_difficulty(0.4)
            .generate()
            .expect("valid spec");
        let mut model = RepNet::new(
            Backbone::new(backbone_cfg),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 10,
                seed: 3,
            },
        );
        if let Some(p) = pattern {
            model.apply_pattern(p);
        }
        fit(
            &mut model,
            &task.train,
            &FitConfig {
                epochs: 8,
                batch_size: 16,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 5,
            },
        );
        (model, task)
    }

    #[test]
    fn pe_executed_branch_agrees_with_the_quantized_nn() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");

        // Reference: the NN model under fake-quant evaluation.
        let mut quantized = model.clone();
        quantized.quantize_weights_int8();
        quantized.set_int8_eval(true);

        let indices: Vec<usize> = (0..task.test.len()).collect();
        let (x, _) = task.test.batch(&indices);
        let (pe_preds, stats) = compiled.classify(&mut model, &x);
        let nn_logits = quantized.predict(&x, false);
        let nn_preds = predictions(&nn_logits);
        let agree = pe_preds
            .iter()
            .zip(&nn_preds)
            .filter(|(a, b)| a == b)
            .count();
        let frac = agree as f64 / pe_preds.len() as f64;
        assert!(
            frac > 0.7,
            "PE vs quantized-NN prediction agreement only {frac}"
        );
        assert!(stats.matvecs > 0);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn pe_executed_branch_retains_task_accuracy() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let indices: Vec<usize> = (0..task.test.len()).collect();
        let (x, labels) = task.test.batch(&indices);
        let (preds, _) = compiled.classify(&mut model, &x);
        let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        let acc = correct as f64 / labels.len() as f64;
        // Must stay meaningfully above 10-class chance.
        assert!(acc > 0.2, "PE-executed accuracy {acc}");
    }

    #[test]
    fn dense_model_also_compiles_under_4_of_4() {
        let (model, _) = trained_model(None);
        let compiled = PeRepNet::compile(&model).expect("dense encoding fits");
        assert!(compiled.tile_count() > 0);
        assert!(compiled.to_string().contains("SRAM PE tiles"));
    }

    #[test]
    fn run_stats_carry_energy_and_latency() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let (x, _) = task.test.batch(&[0]);
        let (_, stats) = compiled.predict(&mut model, &x);
        assert!(stats.total_energy().as_pj() > 0.0);
        assert!(stats.busy_time.as_ns() > 0.0);
        assert!(stats.macs > 0);
        assert_eq!(stats.loads, 0, "predict never reloads tiles");
        // Per-layer ledgers cover compile-time loads plus this run.
        let layers = compiled.layer_stats();
        assert_eq!(layers.len(), 3 * 2 + 1);
        let total = compiled.cumulative_stats();
        assert!(total.loads as usize >= compiled.tile_count());
        assert!(total.matvecs >= stats.matvecs);
    }

    #[test]
    fn refresh_matches_cold_recompile_bit_exactly() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        // Move the learnable weights, as online steps would.
        fit(
            &mut model,
            &task.train,
            &FitConfig {
                epochs: 1,
                batch_size: 16,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 9,
            },
        );
        let delta = compiled.refresh(&model).expect("geometry unchanged");
        assert_eq!(delta.loads as usize, compiled.tile_count());
        assert!(delta.write_bits > 0, "training must have moved some codes");

        let mut cold_model = model.clone();
        let mut cold = PeRepNet::compile(&cold_model).expect("fits PEs");
        let (x, _) = task.test.batch(&[0, 1, 2, 3]);
        let (a, _) = compiled.predict(&mut model, &x);
        let (b, _) = cold.predict(&mut cold_model, &x);
        assert_eq!(a.as_slice(), b.as_slice());

        // Differential write bill is bounded by a full reprogram.
        let cold_compile = cold.cumulative_stats();
        assert!(delta.energy.write.as_pj() <= cold_compile.energy.write.as_pj() + 1e-9);
        assert!(delta.write_bits <= cold_compile.write_bits);
    }

    #[test]
    fn unchanged_refresh_writes_nothing() {
        let (model, _) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let delta = compiled.refresh(&model).expect("geometry unchanged");
        assert_eq!(delta.write_bits, 0);
        assert!(delta.energy.write.is_zero());
    }

    #[test]
    fn cloned_branch_replays_bit_exactly() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let mut replica = compiled.clone();
        let mut model2 = model.clone();
        let (x, _) = task.test.batch(&[0, 1, 2]);
        let (a, _) = compiled.predict(&mut model, &x);
        let (b, _) = replica.predict(&mut model2, &x);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn parallel_pool_is_bit_exact_with_serial() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut serial = PeRepNet::compile(&model).expect("fits PEs");
        let mut model_par = model.clone();
        let mut parallel = serial.clone();
        parallel.attach_pool(Arc::new(WorkPool::with_forced_threads(4)));
        assert_eq!(parallel.pool().threads(), 4);

        let (x, _) = task.test.batch(&[0, 1, 2, 3, 4, 5]);
        let (logits_s, stats_s) = serial.predict(&mut model, &x);
        let (logits_p, stats_p) = parallel.predict(&mut model_par, &x);
        // Bit-level equality on outputs AND on the full f64 run ledger.
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&logits_s), bits(&logits_p));
        assert_eq!(stats_s, stats_p, "run ledgers agree bit-exactly");
        assert_eq!(
            serial.cumulative_stats(),
            parallel.cumulative_stats(),
            "per-tile cumulative ledgers agree bit-exactly"
        );
    }

    #[test]
    fn pending_write_bits_predicts_the_refresh_delta() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        compiled.attach_pool(Arc::new(WorkPool::with_forced_threads(2)));
        assert_eq!(
            compiled.pending_write_bits(&model).expect("same geometry"),
            0,
            "freshly compiled branch has nothing pending"
        );
        fit(
            &mut model,
            &task.train,
            &FitConfig {
                epochs: 1,
                batch_size: 16,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 11,
            },
        );
        let pending = compiled.pending_write_bits(&model).expect("same geometry");
        let delta = compiled.refresh(&model).expect("geometry unchanged");
        assert_eq!(pending, delta.write_bits, "preflight is exact");
        assert!(pending > 0, "training must have moved some codes");
    }

    #[test]
    fn run_stats_scale_with_batch() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_eight()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let (x1, _) = task.test.batch(&[0]);
        let (x4, _) = task.test.batch(&[0, 1, 2, 3]);
        let (_, s1) = compiled.predict(&mut model, &x1);
        let (_, s4) = compiled.predict(&mut model, &x4);
        assert!((3 * s1.matvecs..=5 * s1.matvecs).contains(&s4.matvecs));
    }

    /// A standalone conv layer with deterministic pseudo-random weights.
    fn conv_layer(
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        padding: usize,
        pattern: NmPattern,
        seed: usize,
    ) -> PeLayer {
        let w = Matrix::from_fn(cin * k * k, cout, |r, c| {
            let t = (r * 31 + c * 17 + seed * 101) % 23;
            (t as f32 - 11.0) / 11.0
        });
        let bias: Vec<f32> = (0..cout).map(|c| (c as f32 - 1.5) * 0.05).collect();
        PeLayer::compile(&LayerWeights {
            name: "conv".to_owned(),
            weights: w,
            bias: &bias,
            pattern,
            geometry: (k, stride, padding),
        })
        .expect("tile fits PE")
    }

    /// A deterministic NCHW probe tensor with varied magnitudes.
    fn probe_input(n: usize, cin: usize, h: usize, w: usize, seed: usize) -> Tensor {
        let mut t = Tensor::zeros(&[n, cin, h, w]);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            let u = (i * 37 + seed * 13) % 29;
            *v = (u as f32 - 14.0) / 10.0;
        }
        t
    }

    fn tensor_bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn direct_conv_matches_the_im2col_oracle_bitwise() {
        // Strides/paddings that exercise zero-padded borders, and both a
        // serial pool and a forced 4-wide pool with an eager threshold.
        for (stride, padding, threads) in [(1, 1, 1), (2, 1, 4), (1, 0, 4)] {
            let pool = WorkPool::with_forced_threads(threads).with_spawn_threshold(1);
            let mut direct = conv_layer(3, 8, 3, stride, padding, NmPattern::one_of_four(), 7);
            let mut oracle = direct.clone();
            let x = probe_input(2, 3, 8, 8, 11);
            let mut stats_d = PeRunStats::new();
            let mut stats_o = PeRunStats::new();
            let out_d = direct.conv_forward(&x, &mut stats_d, &pool);
            let out_o = oracle.conv_forward_im2col(&x, &mut stats_o, &pool);
            assert_eq!(out_d.shape(), out_o.shape());
            assert_eq!(tensor_bits(&out_d), tensor_bits(&out_o));
            assert_eq!(stats_d, stats_o, "run ledgers replay identically");
            assert_eq!(
                direct.cumulative_stats(),
                oracle.cumulative_stats(),
                "per-tile cumulative ledgers agree bit-exactly"
            );
        }
    }

    #[test]
    fn spawn_threshold_does_not_change_conv_results() {
        let eager = WorkPool::with_forced_threads(3).with_spawn_threshold(1);
        let lazy = WorkPool::with_forced_threads(3).with_spawn_threshold(u64::MAX);
        let mut a = conv_layer(2, 6, 3, 1, 1, NmPattern::two_of_four(), 3);
        let mut b = a.clone();
        let x = probe_input(3, 2, 6, 6, 5);
        let mut stats_a = PeRunStats::new();
        let mut stats_b = PeRunStats::new();
        let out_a = a.conv_forward(&x, &mut stats_a, &eager);
        let out_b = b.conv_forward(&x, &mut stats_b, &lazy);
        assert_eq!(tensor_bits(&out_a), tensor_bits(&out_b));
        assert_eq!(
            stats_a, stats_b,
            "granularity choice never leaks into ledgers"
        );
    }

    proptest! {
        // The direct streaming conv is a pure refactor of the im2col
        // round-trip: same gathered values, same per-row calibration,
        // same kernel calls, same replay order — so logits AND the f64
        // ledgers must agree bit-for-bit over random geometry, sparsity
        // pattern, batch, and pool width.
        #[test]
        fn direct_conv_is_a_bitwise_refactor_of_im2col(
            (cin, cout, k, stride, padding) in prop_oneof![
                Just((3usize, 8usize, 3usize, 1usize, 1usize)),
                Just((2, 4, 3, 2, 1)),
                Just((1, 6, 3, 1, 0)),
                Just((4, 4, 1, 1, 0)),
            ],
            pattern in prop_oneof![
                Just(NmPattern::one_of_four()),
                Just(NmPattern::two_of_four()),
                Just(NmPattern::one_of_eight()),
            ],
            n in 1usize..=3,
            hw in 4usize..=9,
            threads in prop_oneof![Just(1usize), Just(4usize)],
            seed in 0usize..64,
        ) {
            let pool = WorkPool::with_forced_threads(threads).with_spawn_threshold(1);
            let mut direct = conv_layer(cin, cout, k, stride, padding, pattern, seed);
            let mut oracle = direct.clone();
            let x = probe_input(n, cin, hw, hw, seed + 1);
            let mut stats_d = PeRunStats::new();
            let mut stats_o = PeRunStats::new();
            let out_d = direct.conv_forward(&x, &mut stats_d, &pool);
            let out_o = oracle.conv_forward_im2col(&x, &mut stats_o, &pool);
            prop_assert_eq!(tensor_bits(&out_d), tensor_bits(&out_o));
            prop_assert_eq!(stats_d, stats_o);
            prop_assert_eq!(direct.cumulative_stats(), oracle.cumulative_stats());
        }
    }
}

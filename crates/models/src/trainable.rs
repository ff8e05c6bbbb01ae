//! Tiny trainable counterparts of the paper's workloads.
//!
//! Architectures here are *structure-preserving scale-downs*: a CIFAR
//! ResNet-20 becomes a 2-stage residual CNN on 16×16 synthetic images, a
//! BERT becomes a 2-block encoder over a 64-token vocabulary. Every matrix
//! multiplication flows through a [`DenseUnit`], whose inner [`GemmOp`] box
//! is the seam where LUTBoost swaps a plain weight matrix for a LUT
//! operator — so the baseline network and its LUT-converted form share all
//! non-GEMM structure (batch norm, residuals, attention) exactly.

use std::cell::RefCell;

use lutdla_tensor::{Conv2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lutdla_nn::{
    BatchNorm2d, Embedding, Graph, ImageModel, LayerNorm, Module, NodeId, ParamId, ParamSet,
    SeqModel,
};

/// A pluggable GEMM: maps `[M, K] → [M, N]` activations.
///
/// The plain implementation is a weight matrix ([`PlainGemm`]); LUTBoost
/// provides a lookup-table implementation with a straight-through gradient.
pub trait GemmOp {
    /// Records the GEMM on the tape.
    fn forward_gemm(&self, g: &mut Graph, ps: &ParamSet, x: NodeId) -> NodeId;

    /// Parameters owned by this op.
    fn params(&self) -> Vec<ParamId>;

    /// Input features `K`.
    fn in_dim(&self) -> usize;

    /// Output features `N`.
    fn out_dim(&self) -> usize;

    /// Takes (and clears) the auxiliary loss produced by the most recent
    /// forward, if any (LUT ops emit their reconstruction loss here).
    fn take_aux(&self) -> Option<NodeId> {
        None
    }

    /// The dense weight parameter, when the op is backed by one (both the
    /// plain GEMM and the LUT operator are; custom ops may not be).
    fn weight_param(&self) -> Option<ParamId> {
        None
    }

    /// Downcast support, so converters can recover the concrete type.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A dense projection backed by a single weight parameter `[K, N]`.
#[derive(Debug)]
pub struct PlainGemm {
    weight: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl PlainGemm {
    /// Creates a plain GEMM with Kaiming initialisation.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let weight = ps.add(
            format!("{name}.weight"),
            Tensor::kaiming(rng, &[in_dim, out_dim], in_dim),
        );
        Self {
            weight,
            in_dim,
            out_dim,
        }
    }

    /// The weight handle.
    pub fn weight(&self) -> ParamId {
        self.weight
    }
}

impl GemmOp for PlainGemm {
    fn forward_gemm(&self, g: &mut Graph, ps: &ParamSet, x: NodeId) -> NodeId {
        let w = g.param(ps, self.weight);
        g.matmul(x, w)
    }

    fn params(&self) -> Vec<ParamId> {
        vec![self.weight]
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn weight_param(&self) -> Option<ParamId> {
        Some(self.weight)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A GEMM plus optional bias — the unit LUTBoost converts.
pub struct DenseUnit {
    /// The projection (plain weight or LUT operator).
    pub gemm: Box<dyn GemmOp>,
    /// Optional bias of length `N`.
    pub bias: Option<ParamId>,
    /// Name for reporting.
    pub name: String,
}

impl DenseUnit {
    /// Creates a plain dense unit.
    pub fn plain<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let gemm = Box::new(PlainGemm::new(ps, rng, name, in_dim, out_dim));
        let bias = bias.then(|| ps.add(format!("{name}.bias"), Tensor::zeros(&[out_dim])));
        Self {
            gemm,
            bias,
            name: name.to_string(),
        }
    }

    /// Forward over `[M, K]` activations.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: NodeId) -> NodeId {
        let y = self.gemm.forward_gemm(g, ps, x);
        match self.bias {
            Some(b) => {
                let bn = g.param(ps, b);
                g.add_bias(y, bn)
            }
            None => y,
        }
    }

    /// All parameters (gemm + bias).
    pub fn params(&self) -> Vec<ParamId> {
        let mut p = self.gemm.params();
        p.extend(self.bias);
        p
    }
}

impl std::fmt::Debug for DenseUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseUnit")
            .field("name", &self.name)
            .field("in_dim", &self.gemm.in_dim())
            .field("out_dim", &self.gemm.out_dim())
            .field("bias", &self.bias.is_some())
            .finish()
    }
}

/// A model that a whole-model serving session can drive: an **ordered
/// dense-unit walk** plus a batched eval-mode forward over single examples.
///
/// The contract that makes sessions correct:
///
/// 1. [`ServableModel::unit_walk`] returns every [`DenseUnit`] in exactly
///    the order the forward consumes them — the same order
///    `capture_gemm_inputs` records calibration activations, so a serving
///    plan compiled over the walk (LUT engine per converted unit, dense
///    GEMM otherwise) replays precisely what the eval forward computes.
/// 2. [`ServableModel::forward_logits`] is the eval-mode forward
///    (`Graph::new(false)`), whose per-example logits are independent of
///    how examples are grouped into batches (eval-mode batch norm uses
///    running stats; every other op is example-local). That independence is
///    what lets a session coalesce submissions freely while staying
///    bit-identical to any other batching of the same examples.
pub trait ServableModel {
    /// One inference request: a single image (`[C, H, W]` tensor) or a
    /// single token sequence.
    type Input: Clone;

    /// Every dense unit in forward order.
    fn unit_walk(&self) -> Vec<&DenseUnit>;

    /// Checks one request's shape/content before it joins a batch.
    fn validate_input(&self, input: &Self::Input) -> Result<(), String>;

    /// Whether two requests may share one forward batch (e.g. equal
    /// sequence lengths). Defaults to "always".
    fn batch_compatible(&self, _a: &Self::Input, _b: &Self::Input) -> bool {
        true
    }

    /// Eval-mode forward over a non-empty batch of validated, mutually
    /// [`batch_compatible`](ServableModel::batch_compatible) requests;
    /// returns `[batch, classes]` logits.
    fn forward_logits(&self, ps: &ParamSet, inputs: &[Self::Input]) -> Tensor;

    /// Output width of [`ServableModel::forward_logits`].
    fn num_classes(&self) -> usize;

    /// Whether the model honours the **incremental-forward contract** an
    /// autoregressive decode session relies on: inputs are growing
    /// position sequences ([`ServableModel::extend_input`] appends), and
    /// every per-position activation is **bitwise** independent of later
    /// positions — so [`ServableModel::decode_step`] can run only a step's
    /// new positions and still match a whole-prefix forward. A causal
    /// transformer ([`TransformerConfig::causal`]) satisfies this; image
    /// models and bidirectional encoders do not. The default declines
    /// with a reason.
    fn decode_contract(&self) -> Result<(), String> {
        Err("model has no incremental-forward contract (decode needs per-position prefix stability)"
            .to_string())
    }

    /// One incremental decode step: runs only `step`'s new positions
    /// through the model, reading the earlier positions' state from
    /// `cache`, and returns the `[1, classes]` logits of the whole grown
    /// sequence — **bitwise** equal to
    /// [`forward_logits`](ServableModel::forward_logits) over that
    /// sequence. Every dense unit sees only the new positions' rows.
    ///
    /// `cache` grows by the step's positions only when the forward
    /// returns; a rejected step (`Err`) or an unwind leaves it as it was.
    /// Only meaningful when [`ServableModel::decode_contract`] holds; the
    /// default declines.
    fn decode_step(
        &self,
        ps: &ParamSet,
        cache: &mut DecodeCache,
        step: &Self::Input,
    ) -> Result<Tensor, String> {
        let _ = (ps, cache, step);
        Err("model has no incremental-forward contract".to_string())
    }

    /// Appends a decode step's tokens onto a growing prefix, validating
    /// the combined input. Only meaningful when
    /// [`ServableModel::decode_contract`] holds; the default declines.
    fn extend_input(
        &self,
        prefix: &Self::Input,
        step: &Self::Input,
    ) -> Result<Self::Input, String> {
        let _ = (prefix, step);
        Err("model has no incremental-forward contract".to_string())
    }

    /// Decode positions carried by one input (tokens of a sequence). Image
    /// requests are a single position.
    fn input_positions(&self, input: &Self::Input) -> usize {
        let _ = input;
        1
    }
}

/// Rearranges GEMM conv output `[batch·oh·ow, cout]` into NCHW.
fn nchw_from_gemm(
    g: &mut Graph,
    y: NodeId,
    batch: usize,
    cout: usize,
    oh: usize,
    ow: usize,
) -> NodeId {
    let r = g.reshape(y, &[batch, oh * ow, cout]);
    let t = g.transpose_last2(r);
    g.reshape(t, &[batch, cout, oh, ow])
}

/// Convolution + batch norm, GEMM exposed through a [`DenseUnit`].
#[derive(Debug)]
pub struct ConvUnit {
    /// Convolution geometry.
    pub geom: Conv2dGeometry,
    /// The `im2col`-GEMM.
    pub dense: DenseUnit,
    /// Post-conv batch norm.
    pub bn: BatchNorm2d,
}

impl ConvUnit {
    fn new(ps: &mut ParamSet, rng: &mut StdRng, name: &str, geom: Conv2dGeometry) -> Self {
        let dense = DenseUnit::plain(ps, rng, name, geom.gemm_k(), geom.out_channels, false);
        let bn = BatchNorm2d::new(ps, &format!("{name}.bn"), geom.out_channels);
        Self { geom, dense, bn }
    }

    /// Forward; optionally records the `im2col` GEMM input in `sink`
    /// (LUTBoost calibration).
    pub fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        x: NodeId,
        sink: &mut Option<&mut Vec<Tensor>>,
    ) -> NodeId {
        let batch = g.value(x).dims()[0];
        let cols = g.im2col(x, self.geom);
        if let Some(s) = sink.as_deref_mut() {
            s.push(g.value(cols).clone());
        }
        let y = self.dense.forward(g, ps, cols);
        let (oh, ow) = self.geom.out_hw();
        let nchw = nchw_from_gemm(g, y, batch, self.geom.out_channels, oh, ow);
        self.bn.forward(g, ps, nchw)
    }

    fn params(&self) -> Vec<ParamId> {
        let mut p = self.dense.params();
        p.extend(self.bn.params());
        p
    }
}

/// A pre-activation-free basic residual block (two 3×3 convs + shortcut).
#[derive(Debug)]
pub struct BasicBlock {
    conv1: ConvUnit,
    conv2: ConvUnit,
    downsample: Option<ConvUnit>,
}

impl BasicBlock {
    fn new(
        ps: &mut ParamSet,
        rng: &mut StdRng,
        name: &str,
        cin: usize,
        cout: usize,
        hw: usize,
        stride: usize,
    ) -> Self {
        let g1 = Conv2dGeometry::new(cin, cout, (hw, hw), (3, 3), stride, 1);
        let (oh, _) = g1.out_hw();
        let g2 = Conv2dGeometry::new(cout, cout, (oh, oh), (3, 3), 1, 1);
        let downsample = (stride != 1 || cin != cout).then(|| {
            ConvUnit::new(
                ps,
                rng,
                &format!("{name}.down"),
                Conv2dGeometry::new(cin, cout, (hw, hw), (1, 1), stride, 0),
            )
        });
        Self {
            conv1: ConvUnit::new(ps, rng, &format!("{name}.conv1"), g1),
            conv2: ConvUnit::new(ps, rng, &format!("{name}.conv2"), g2),
            downsample,
        }
    }

    fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        x: NodeId,
        sink: &mut Option<&mut Vec<Tensor>>,
    ) -> NodeId {
        let h = self.conv1.forward(g, ps, x, sink);
        let h = g.relu(h);
        let h = self.conv2.forward(g, ps, h, sink);
        let skip = match &self.downsample {
            Some(d) => d.forward(g, ps, x, sink),
            None => x,
        };
        let sum = g.add(h, skip);
        g.relu(sum)
    }

    fn params(&self) -> Vec<ParamId> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
        if let Some(d) = &self.downsample {
            p.extend(d.params());
        }
        p
    }
}

/// Configuration of a tiny residual CNN.
#[derive(Debug, Clone, Copy)]
pub struct ConvNetConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Input spatial size (square).
    pub image_size: usize,
    /// Stem / stage-1 width.
    pub width: usize,
    /// Residual blocks per stage (2 stages; stage 2 doubles the width).
    pub blocks_per_stage: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Initialisation seed.
    pub seed: u64,
}

/// A 2-stage residual CNN — the trainable proxy for the CIFAR ResNets.
pub struct ConvNet {
    stem: ConvUnit,
    blocks: Vec<BasicBlock>,
    head: DenseUnit,
    cfg: ConvNetConfig,
    aux: RefCell<Vec<NodeId>>,
}

impl ConvNet {
    /// Builds the network, registering all parameters in `ps`.
    pub fn new(ps: &mut ParamSet, cfg: ConvNetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let s = cfg.image_size;
        let w = cfg.width;
        let stem = ConvUnit::new(
            ps,
            &mut rng,
            "stem",
            Conv2dGeometry::new(cfg.in_channels, w, (s, s), (3, 3), 1, 1),
        );
        let mut blocks = Vec::new();
        for b in 0..cfg.blocks_per_stage {
            blocks.push(BasicBlock::new(
                ps,
                &mut rng,
                &format!("s1.b{b}"),
                w,
                w,
                s,
                1,
            ));
        }
        for b in 0..cfg.blocks_per_stage {
            let (cin, stride, hw) = if b == 0 { (w, 2, s) } else { (2 * w, 1, s / 2) };
            blocks.push(BasicBlock::new(
                ps,
                &mut rng,
                &format!("s2.b{b}"),
                cin,
                2 * w,
                hw,
                stride,
            ));
        }
        let head = DenseUnit::plain(ps, &mut rng, "head", 2 * w, cfg.num_classes, true);
        Self {
            stem,
            blocks,
            head,
            cfg,
            aux: RefCell::new(Vec::new()),
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &ConvNetConfig {
        &self.cfg
    }

    /// Forward pass; `sink`, when provided, receives every GEMM input
    /// (in [`ConvNet::dense_units_mut`] order) for LUTBoost calibration.
    pub fn forward_collect(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        images: Tensor,
        mut sink: Option<&mut Vec<Tensor>>,
    ) -> NodeId {
        self.aux.borrow_mut().clear();
        let x = g.input(images);
        let h = self.stem.forward(g, ps, x, &mut sink);
        let mut h = g.relu(h);
        for b in &self.blocks {
            h = b.forward(g, ps, h, &mut sink);
        }
        let pooled = g.global_avg_pool(h);
        if let Some(s) = sink {
            s.push(g.value(pooled).clone());
        }
        let logits = self.head.forward(g, ps, pooled);
        // Collect aux losses emitted by LUT gemms during this forward.
        let mut aux = self.aux.borrow_mut();
        for unit in self.dense_units() {
            if let Some(a) = unit.gemm.take_aux() {
                aux.push(a);
            }
        }
        logits
    }

    /// All dense units in forward order (stem, block convs, head).
    pub fn dense_units(&self) -> Vec<&DenseUnit> {
        let mut units = vec![&self.stem.dense];
        for b in &self.blocks {
            units.push(&b.conv1.dense);
            units.push(&b.conv2.dense);
            if let Some(d) = &b.downsample {
                units.push(&d.dense);
            }
        }
        units.push(&self.head);
        units
    }

    /// Mutable dense units in the same order (LUTBoost conversion seam).
    pub fn dense_units_mut(&mut self) -> Vec<&mut DenseUnit> {
        let mut units: Vec<&mut DenseUnit> = vec![&mut self.stem.dense];
        for b in &mut self.blocks {
            units.push(&mut b.conv1.dense);
            units.push(&mut b.conv2.dense);
            if let Some(d) = &mut b.downsample {
                units.push(&mut d.dense);
            }
        }
        units.push(&mut self.head);
        units
    }

    /// Runs a calibration forward and returns each GEMM's input matrix, in
    /// [`ConvNet::dense_units_mut`] order.
    pub fn capture_gemm_inputs(&self, ps: &ParamSet, images: Tensor) -> Vec<Tensor> {
        let mut g = Graph::new(false);
        let mut captured = Vec::new();
        let _ = self.forward_collect(&mut g, ps, images, Some(&mut captured));
        captured
    }

    /// All parameters.
    pub fn params(&self) -> Vec<ParamId> {
        let mut p = self.stem.params();
        for b in &self.blocks {
            p.extend(b.params());
        }
        p.extend(self.head.params());
        p
    }
}

impl std::fmt::Debug for ConvNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConvNet")
            .field("cfg", &self.cfg)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl ImageModel for ConvNet {
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: Tensor) -> NodeId {
        self.forward_collect(g, ps, images, None)
    }

    fn aux_loss(&self, g: &mut Graph, _ps: &ParamSet) -> Option<NodeId> {
        let aux = self.aux.borrow();
        let mut it = aux.iter().copied();
        let first = it.next()?;
        Some(it.fold(first, |acc, n| g.add(acc, n)))
    }
}

impl ServableModel for ConvNet {
    type Input = Tensor;

    fn unit_walk(&self) -> Vec<&DenseUnit> {
        self.dense_units()
    }

    fn validate_input(&self, input: &Self::Input) -> Result<(), String> {
        let want = [
            self.cfg.in_channels,
            self.cfg.image_size,
            self.cfg.image_size,
        ];
        if input.dims() == want {
            Ok(())
        } else {
            Err(format!(
                "image dims {:?}, model expects {:?}",
                input.dims(),
                want
            ))
        }
    }

    fn forward_logits(&self, ps: &ParamSet, inputs: &[Self::Input]) -> Tensor {
        assert!(!inputs.is_empty(), "empty forward batch");
        let (c, s) = (self.cfg.in_channels, self.cfg.image_size);
        let mut data = Vec::with_capacity(inputs.len() * c * s * s);
        for image in inputs {
            data.extend_from_slice(image.data());
        }
        let batch = Tensor::from_vec(data, &[inputs.len(), c, s, s]);
        let mut g = Graph::new(false);
        let node = ImageModel::logits(self, &mut g, ps, batch);
        g.value(node).clone()
    }

    fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }
}

/// ResNet-20 proxy: 1 block per stage, width 8.
pub fn resnet20_mini(ps: &mut ParamSet, num_classes: usize) -> ConvNet {
    ConvNet::new(
        ps,
        ConvNetConfig {
            in_channels: 3,
            image_size: 16,
            width: 8,
            blocks_per_stage: 1,
            num_classes,
            seed: 101,
        },
    )
}

/// ResNet-32 proxy: 2 blocks per stage, width 8.
pub fn resnet32_mini(ps: &mut ParamSet, num_classes: usize) -> ConvNet {
    ConvNet::new(
        ps,
        ConvNetConfig {
            in_channels: 3,
            image_size: 16,
            width: 8,
            blocks_per_stage: 2,
            num_classes,
            seed: 102,
        },
    )
}

/// ResNet-56 proxy: 3 blocks per stage, width 8.
pub fn resnet56_mini(ps: &mut ParamSet, num_classes: usize) -> ConvNet {
    ConvNet::new(
        ps,
        ConvNetConfig {
            in_channels: 3,
            image_size: 16,
            width: 8,
            blocks_per_stage: 3,
            num_classes,
            seed: 103,
        },
    )
}

/// ResNet-18 proxy: wider (12 → 24 channels), 2 blocks per stage.
pub fn resnet18_mini(ps: &mut ParamSet, num_classes: usize) -> ConvNet {
    ConvNet::new(
        ps,
        ConvNetConfig {
            in_channels: 3,
            image_size: 16,
            width: 12,
            blocks_per_stage: 2,
            num_classes,
            seed: 104,
        },
    )
}

/// VGG-11 proxy: width 10, 1 block per stage (no residual benefit at this
/// scale; the residual structure is retained for implementation symmetry).
pub fn vgg11_mini(ps: &mut ParamSet, num_classes: usize) -> ConvNet {
    ConvNet::new(
        ps,
        ConvNetConfig {
            in_channels: 3,
            image_size: 16,
            width: 10,
            blocks_per_stage: 1,
            num_classes,
            seed: 105,
        },
    )
}

/// LeNet proxy: single channel input, width 6.
pub fn lenet_mini(ps: &mut ParamSet, num_classes: usize) -> ConvNet {
    ConvNet::new(
        ps,
        ConvNetConfig {
            in_channels: 1,
            image_size: 16,
            width: 6,
            blocks_per_stage: 1,
            num_classes,
            seed: 106,
        },
    )
}

// ---------------------------------------------------------------------
// Transformer classifier
// ---------------------------------------------------------------------

/// Configuration of the tiny transformer encoder.
#[derive(Debug, Clone, Copy)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (positional table size).
    pub max_seq: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN expansion width.
    pub d_ff: usize,
    /// Encoder blocks.
    pub layers: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Initialisation seed.
    pub seed: u64,
    /// Causal (autoregressive) attention: position `t` attends only to
    /// positions `≤ t`. The mask is additive `-1e30` pre-softmax, which
    /// absorbs any finite score exactly in f32 and underflows `exp` to
    /// `0.0` — so every per-position activation is **bitwise** independent
    /// of later tokens, the invariant an incremental decode step relies on
    /// ([`ServableModel::decode_contract`], [`ServableModel::decode_step`]).
    pub causal: bool,
}

/// Rows of width `d`, one per position, stored transposed —
/// `data[c·cap + p]` — so the first `keys` positions read out as the
/// `[d, keys]` matrix attention's `Kᵀ` and the mean-pool consume.
#[derive(Debug, Clone, Default)]
struct ColumnRows {
    data: Vec<f32>,
    cap: usize,
}

impl ColumnRows {
    fn new(d: usize, cap: usize) -> Self {
        Self {
            data: vec![0.0; d * cap],
            cap,
        }
    }

    /// Writes `rows` (`[t, d]`) at positions `at..at + t`.
    fn write(&mut self, at: usize, rows: &[f32]) {
        let d = self.data.len() / self.cap;
        for (i, row) in rows.chunks_exact(d).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                self.data[c * self.cap + at + i] = x;
            }
        }
    }

    /// The first `keys` positions as a row-major `[d, keys]` matrix.
    fn read(&self, keys: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.data.len() / self.cap * keys);
        for row in self.data.chunks_exact(self.cap) {
            out.extend_from_slice(&row[..keys]);
        }
        out
    }
}

/// One encoder block's cached attention rows, kept in the layouts
/// attention reads them in, so a step copies each out once: keys per head
/// and transposed (`[H·dh, cap]`, i.e. `Kᵀ` per head), values per head,
/// `v[(h·cap + p)·dh + j]`.
#[derive(Debug, Clone)]
struct KvRows {
    kt: ColumnRows,
    v: Vec<f32>,
}

impl KvRows {
    fn new(d: usize, cap: usize) -> Self {
        Self {
            kt: ColumnRows::new(d, cap),
            v: vec![0.0; cap * d],
        }
    }

    /// Writes rows `past..past + t` (`new_k`, `new_v`: `[t, H·dh]`) and
    /// returns the first `past + t` positions as attention inputs:
    /// `(Kᵀ [H, dh, keys], V [H, keys, dh])`.
    fn append_and_read(
        &mut self,
        past: usize,
        new_k: &[f32],
        new_v: &[f32],
        heads: usize,
    ) -> (Tensor, Tensor) {
        let cap = self.kt.cap;
        let d = self.v.len() / cap;
        let (dh, keys) = (d / heads, past + new_k.len() / d);
        self.kt.write(past, new_k);
        for (i, row) in new_v.chunks_exact(d).enumerate() {
            for (h, head) in row.chunks_exact(dh).enumerate() {
                let at = (h * cap + past + i) * dh;
                self.v[at..at + dh].copy_from_slice(head);
            }
        }
        let mut v = Vec::with_capacity(keys * d);
        for head in self.v.chunks_exact(cap * dh) {
            v.extend_from_slice(&head[..keys * dh]);
        }
        (
            Tensor::from_vec(self.kt.read(keys), &[heads, dh, keys]),
            Tensor::from_vec(v, &[heads, keys, dh]),
        )
    }
}

/// Per-sequence state of an incremental decode
/// ([`ServableModel::decode_step`]): every encoder block's key and value
/// rows, and the final hidden row of every position — the input of the
/// mean-pool — sized for the model's whole context on the first step
/// (about 0.3 MiB at 256 positions, width 64, two blocks). A fresh
/// (default) cache holds no positions. A step writes its rows past the
/// served positions and counts them only when its forward returns, so a
/// rejected or unwound step leaves the served positions untouched.
#[derive(Debug, Clone, Default)]
pub struct DecodeCache {
    blocks: Vec<KvRows>,
    hidden: ColumnRows,
    positions: usize,
}

impl DecodeCache {
    /// Positions (tokens) served so far.
    pub fn positions(&self) -> usize {
        self.positions
    }
}

struct EncoderBlock {
    wq: DenseUnit,
    wk: DenseUnit,
    wv: DenseUnit,
    wo: DenseUnit,
    ff1: DenseUnit,
    ff2: DenseUnit,
    ln1: LayerNorm,
    ln2: LayerNorm,
    heads: usize,
    causal: bool,
}

impl EncoderBlock {
    fn new(
        ps: &mut ParamSet,
        rng: &mut StdRng,
        name: &str,
        d: usize,
        d_ff: usize,
        heads: usize,
        causal: bool,
    ) -> Self {
        Self {
            wq: DenseUnit::plain(ps, rng, &format!("{name}.wq"), d, d, true),
            wk: DenseUnit::plain(ps, rng, &format!("{name}.wk"), d, d, true),
            wv: DenseUnit::plain(ps, rng, &format!("{name}.wv"), d, d, true),
            wo: DenseUnit::plain(ps, rng, &format!("{name}.wo"), d, d, true),
            ff1: DenseUnit::plain(ps, rng, &format!("{name}.ff1"), d, d_ff, true),
            ff2: DenseUnit::plain(ps, rng, &format!("{name}.ff2"), d_ff, d, true),
            ln1: LayerNorm::new(ps, &format!("{name}.ln1"), d),
            ln2: LayerNorm::new(ps, &format!("{name}.ln2"), d),
            heads,
            causal,
        }
    }

    /// The block over `x: [B, T, D]`, the `T` rows following `past`'s
    /// cached positions. With no past (training, whole-sequence serving)
    /// the keys and values are this call's own rows; with a past (`B = 1`,
    /// an incremental decode step) this call's key and value rows are
    /// written into the cache after its first `past` positions, and
    /// attention reads all `past + T` of them. Either way the ops are the
    /// same: project, `bmm` → `scale` → `+mask` → `softmax` → `bmm`,
    /// project, two norms.
    fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        x: NodeId,
        past: Option<(&mut KvRows, usize)>,
        sink: &mut Option<&mut Vec<Tensor>>,
    ) -> NodeId {
        let dims = g.value(x).dims().to_vec();
        let (b, t, d) = (dims[0], dims[1], dims[2]);
        let flat = g.reshape(x, &[b * t, d]);
        let grab = |g: &mut Graph, node: NodeId, sink: &mut Option<&mut Vec<Tensor>>| {
            if let Some(s) = sink.as_deref_mut() {
                s.push(g.value(node).clone());
            }
        };
        grab(g, flat, sink);
        let q = self.wq.forward(g, ps, flat);
        grab(g, flat, sink);
        let k = self.wk.forward(g, ps, flat);
        grab(g, flat, sink);
        let v = self.wv.forward(g, ps, flat);

        let q3 = g.reshape(q, &[b, t, d]);
        let qh = g.split_heads(q3, self.heads);
        let (kt, vh, past_len) = match past {
            Some((kv, past_len)) => {
                debug_assert_eq!(b, 1, "a decode step serves one sequence");
                let (kt, vh) =
                    kv.append_and_read(past_len, g.value(k).data(), g.value(v).data(), self.heads);
                (g.input(kt), g.input(vh), past_len)
            }
            None => {
                let k3 = g.reshape(k, &[b, t, d]);
                let v3 = g.reshape(v, &[b, t, d]);
                let kh = g.split_heads(k3, self.heads);
                let vh = g.split_heads(v3, self.heads);
                (g.transpose_last2(kh), vh, 0)
            }
        };
        let keys = past_len + t;
        let scores = g.bmm(qh, kt);
        let dh = d / self.heads;
        let scaled = g.scale(scores, 1.0 / (dh as f32).sqrt());
        let masked = if self.causal {
            // Additive causal mask over `[B·H, T, past + T]` score blocks:
            // query row `i` sits at position `past + i` and masks every
            // later key. The f32 ulp at 1e30 is ~1.2e23, so
            // `score + (-1e30)` rounds to exactly -1e30 for any realistic
            // score, and after the row-max subtraction `exp` underflows to
            // exactly +0.0 — masked columns contribute bitwise nothing to
            // softmax or to the value mix, whatever the future tokens
            // hold. The mask enters as a gradient-free input leaf, so
            // training backprops through the add unchanged on the
            // unmasked entries.
            let bh = b * self.heads;
            let mut mask = vec![0.0f32; bh * t * keys];
            for block in mask.chunks_exact_mut(t * keys) {
                for i in 0..t {
                    for slot in block[i * keys + past_len + i + 1..(i + 1) * keys].iter_mut() {
                        *slot = -1e30;
                    }
                }
            }
            let mask_node = g.input(Tensor::from_vec(mask, &[bh, t, keys]));
            g.add(scaled, mask_node)
        } else {
            scaled
        };
        let att = g.softmax(masked);
        let ctx = g.bmm(att, vh);
        let merged = g.merge_heads(ctx, self.heads);
        let mflat = g.reshape(merged, &[b * t, d]);
        grab(g, mflat, sink);
        let proj = self.wo.forward(g, ps, mflat);
        let proj3 = g.reshape(proj, &[b, t, d]);
        let res1 = g.add(x, proj3);
        let norm1 = self.ln1.forward(g, ps, res1);

        let nflat = g.reshape(norm1, &[b * t, d]);
        grab(g, nflat, sink);
        let h = self.ff1.forward(g, ps, nflat);
        let h = g.gelu(h);
        grab(g, h, sink);
        let h = self.ff2.forward(g, ps, h);
        let h3 = g.reshape(h, &[b, t, d]);
        let res2 = g.add(norm1, h3);
        self.ln2.forward(g, ps, res2)
    }

    fn dense_units(&self) -> Vec<&DenseUnit> {
        vec![&self.wq, &self.wk, &self.wv, &self.wo, &self.ff1, &self.ff2]
    }

    fn dense_units_mut(&mut self) -> Vec<&mut DenseUnit> {
        vec![
            &mut self.wq,
            &mut self.wk,
            &mut self.wv,
            &mut self.wo,
            &mut self.ff1,
            &mut self.ff2,
        ]
    }

    fn params(&self) -> Vec<ParamId> {
        let mut p: Vec<ParamId> = self.dense_units().iter().flat_map(|u| u.params()).collect();
        p.extend(self.ln1.params());
        p.extend(self.ln2.params());
        p
    }
}

/// A tiny transformer encoder classifier (BERT/DistilBERT/OPT proxy).
pub struct TransformerClassifier {
    emb: Embedding,
    pos: ParamId,
    blocks: Vec<EncoderBlock>,
    head: DenseUnit,
    cfg: TransformerConfig,
    aux: RefCell<Vec<NodeId>>,
}

impl TransformerClassifier {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(ps: &mut ParamSet, cfg: TransformerConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let emb = Embedding::new(ps, &mut rng, "emb", cfg.vocab, cfg.d_model);
        let pos = ps.add(
            "pos",
            Tensor::randn(&mut rng, &[cfg.max_seq, cfg.d_model], 0.02),
        );
        let blocks = (0..cfg.layers)
            .map(|i| {
                EncoderBlock::new(
                    ps,
                    &mut rng,
                    &format!("block{i}"),
                    cfg.d_model,
                    cfg.d_ff,
                    cfg.heads,
                    cfg.causal,
                )
            })
            .collect();
        let head = DenseUnit::plain(ps, &mut rng, "cls", cfg.d_model, cfg.num_classes, true);
        Self {
            emb,
            pos,
            blocks,
            head,
            cfg,
            aux: RefCell::new(Vec::new()),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Forward with optional GEMM-input capture.
    pub fn forward_collect(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        tokens: &[usize],
        batch: usize,
        seq_len: usize,
        mut sink: Option<&mut Vec<Tensor>>,
    ) -> NodeId {
        assert!(seq_len <= self.cfg.max_seq, "sequence too long");
        assert_eq!(tokens.len(), batch * seq_len, "token buffer mismatch");
        self.aux.borrow_mut().clear();
        let mut h = self.embed(g, ps, tokens, batch, seq_len, 0);
        for b in &self.blocks {
            h = b.forward(g, ps, h, None, &mut sink);
        }
        let d = self.cfg.d_model;
        let ht = g.transpose_last2(h); // [B, D, T]
        let flat = g.reshape(ht, &[batch * d, seq_len]);
        let pooled2 = self.mean_pool(g, flat, batch);
        if let Some(s) = sink {
            s.push(g.value(pooled2).clone());
        }
        let logits = self.head.forward(g, ps, pooled2);
        let mut aux = self.aux.borrow_mut();
        for unit in self.dense_units() {
            if let Some(a) = unit.gemm.take_aux() {
                aux.push(a);
            }
        }
        logits
    }

    /// Token plus positional embedding of `batch` sequences of `seq_len`
    /// tokens at positions `offset..offset + seq_len`, as `[B, T, D]`.
    fn embed(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        tokens: &[usize],
        batch: usize,
        seq_len: usize,
        offset: usize,
    ) -> NodeId {
        let e = self.emb.lookup(g, ps, tokens); // [B·T, D]
        let d = self.cfg.d_model;
        // positional add: tile pos[offset..offset + T] across the batch
        let pos_v = &ps.value(self.pos).data()[offset * d..(offset + seq_len) * d];
        let mut tiled = Vec::with_capacity(batch * seq_len * d);
        for _ in 0..batch {
            tiled.extend_from_slice(pos_v);
        }
        let pos_node = g.input(Tensor::from_vec(tiled, &[batch * seq_len, d]));
        let x = g.add(e, pos_node);
        g.reshape(x, &[batch, seq_len, d])
    }

    /// Mean-pool over tokens: the transposed hidden rows `[B·D, T]` →
    /// `[B, D]`.
    fn mean_pool(&self, g: &mut Graph, flat: NodeId, batch: usize) -> NodeId {
        let pooled = g.mean_last_axis_node(flat); // [B·D]
        g.reshape(pooled, &[batch, self.cfg.d_model])
    }

    /// All dense units in forward order (per block: q,k,v,o,ff1,ff2; head).
    pub fn dense_units(&self) -> Vec<&DenseUnit> {
        let mut units: Vec<&DenseUnit> = self.blocks.iter().flat_map(|b| b.dense_units()).collect();
        units.push(&self.head);
        units
    }

    /// Mutable dense units in the same order.
    pub fn dense_units_mut(&mut self) -> Vec<&mut DenseUnit> {
        let mut units: Vec<&mut DenseUnit> = self
            .blocks
            .iter_mut()
            .flat_map(|b| b.dense_units_mut())
            .collect();
        units.push(&mut self.head);
        units
    }

    /// Calibration capture of every GEMM input.
    pub fn capture_gemm_inputs(
        &self,
        ps: &ParamSet,
        tokens: &[usize],
        batch: usize,
        seq_len: usize,
    ) -> Vec<Tensor> {
        let mut g = Graph::new(false);
        let mut captured = Vec::new();
        let _ = self.forward_collect(&mut g, ps, tokens, batch, seq_len, Some(&mut captured));
        captured
    }

    /// All parameters.
    pub fn params(&self) -> Vec<ParamId> {
        let mut p = vec![self.emb.table(), self.pos];
        for b in &self.blocks {
            p.extend(b.params());
        }
        p.extend(self.head.params());
        p
    }
}

impl std::fmt::Debug for TransformerClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformerClassifier")
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl SeqModel for TransformerClassifier {
    fn logits(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        tokens: &[usize],
        batch: usize,
        seq_len: usize,
    ) -> NodeId {
        self.forward_collect(g, ps, tokens, batch, seq_len, None)
    }

    fn aux_loss(&self, g: &mut Graph, _ps: &ParamSet) -> Option<NodeId> {
        let aux = self.aux.borrow();
        let mut it = aux.iter().copied();
        let first = it.next()?;
        Some(it.fold(first, |acc, n| g.add(acc, n)))
    }
}

impl ServableModel for TransformerClassifier {
    type Input = Vec<usize>;

    fn unit_walk(&self) -> Vec<&DenseUnit> {
        self.dense_units()
    }

    fn validate_input(&self, input: &Self::Input) -> Result<(), String> {
        if input.is_empty() || input.len() > self.cfg.max_seq {
            return Err(format!(
                "sequence length {} outside 1..={}",
                input.len(),
                self.cfg.max_seq
            ));
        }
        match input.iter().find(|&&t| t >= self.cfg.vocab) {
            Some(&t) => Err(format!("token {t} outside vocab of {}", self.cfg.vocab)),
            None => Ok(()),
        }
    }

    /// Sequences of different lengths cannot share one `[B, T, D]` batch.
    fn batch_compatible(&self, a: &Self::Input, b: &Self::Input) -> bool {
        a.len() == b.len()
    }

    fn forward_logits(&self, ps: &ParamSet, inputs: &[Self::Input]) -> Tensor {
        assert!(!inputs.is_empty(), "empty forward batch");
        let seq_len = inputs[0].len();
        debug_assert!(
            inputs.iter().all(|s| s.len() == seq_len),
            "batch mixes sequence lengths"
        );
        let mut tokens = Vec::with_capacity(inputs.len() * seq_len);
        for seq in inputs {
            tokens.extend_from_slice(seq);
        }
        let mut g = Graph::new(false);
        let node = SeqModel::logits(self, &mut g, ps, &tokens, inputs.len(), seq_len);
        g.value(node).clone()
    }

    fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }

    fn decode_contract(&self) -> Result<(), String> {
        if self.cfg.causal {
            Ok(())
        } else {
            Err("transformer attention is bidirectional; build with \
                 TransformerConfig::causal = true for decode serving"
                .to_string())
        }
    }

    /// The step's tokens run through the same `EncoderBlock::forward`
    /// as a whole-sequence forward, with each block's cached key and value
    /// rows as its past, so attention scores `[H, n_new, past + n_new]`
    /// under the same causal mask. The cached final hidden rows plus the
    /// new ones feed the same mean-pool, at O(positions · d) per step.
    ///
    /// Why this is bitwise equal to the whole-sequence forward: every
    /// output row of the workspace kernels is bitwise independent of the
    /// other rows. `matmul_slices` accumulates each output row over `k`
    /// in ascending order and skips `a == 0.0`; that covers the
    /// projections, each Q·Kᵀ score, and att·V, where masked weights are
    /// exactly `0.0` and skipped. Masked scores add
    /// `exp(-1e30 - max) = +0.0` to a positive softmax sum, after every
    /// unmasked term. `layer_norm`, `gelu`, bias and residual adds are
    /// row-local, and LUT engines encode and look up each row on its own.
    /// So the rows of the earlier positions, computed when they were new,
    /// equal what a whole-sequence forward computes for them, and so do
    /// the new rows.
    fn decode_step(
        &self,
        ps: &ParamSet,
        cache: &mut DecodeCache,
        step: &Self::Input,
    ) -> Result<Tensor, String> {
        self.decode_contract()?;
        self.validate_input(step)?;
        let (past, t, d) = (cache.positions, step.len(), self.cfg.d_model);
        if past + t > self.cfg.max_seq {
            return Err(format!(
                "sequence length {} outside 1..={}",
                past + t,
                self.cfg.max_seq
            ));
        }
        let cap = self.cfg.max_seq;
        if past == 0 {
            cache.blocks = vec![KvRows::new(d, cap); self.blocks.len()];
            cache.hidden = ColumnRows::new(d, cap);
        } else if cache.blocks.len() != self.blocks.len()
            || cache.hidden.cap != cap
            || cache.hidden.data.len() != d * cap
        {
            return Err("decode cache was built by a different model".to_string());
        }

        let mut g = Graph::new(false);
        let mut h = self.embed(&mut g, ps, step, 1, t, past);
        for (block, kv) in self.blocks.iter().zip(&mut cache.blocks) {
            h = block.forward(&mut g, ps, h, Some((kv, past)), &mut None);
        }
        // The mean-pool's `[D, past + T]` input: every position's final
        // hidden row, transposed.
        let keys = past + t;
        cache.hidden.write(past, g.value(h).data());
        let flat = g.input(Tensor::from_vec(cache.hidden.read(keys), &[d, keys]));
        let pooled = self.mean_pool(&mut g, flat, 1);
        let logits = self.head.forward(&mut g, ps, pooled);
        cache.positions = keys;
        Ok(g.value(logits).clone())
    }

    fn extend_input(
        &self,
        prefix: &Self::Input,
        step: &Self::Input,
    ) -> Result<Self::Input, String> {
        if step.is_empty() {
            return Err("decode step carries no tokens".to_string());
        }
        let mut next = prefix.clone();
        next.extend_from_slice(step);
        self.validate_input(&next)?;
        Ok(next)
    }

    fn input_positions(&self, input: &Self::Input) -> usize {
        input.len()
    }
}

/// BERT proxy: 2 encoder blocks, d=32.
pub fn bert_mini(ps: &mut ParamSet, num_classes: usize) -> TransformerClassifier {
    TransformerClassifier::new(
        ps,
        TransformerConfig {
            vocab: 64,
            max_seq: 16,
            d_model: 32,
            heads: 4,
            d_ff: 64,
            layers: 2,
            num_classes,
            seed: 201,
            causal: false,
        },
    )
}

/// DistilBERT proxy: 1 encoder block, d=32.
pub fn distilbert_mini(ps: &mut ParamSet, num_classes: usize) -> TransformerClassifier {
    TransformerClassifier::new(
        ps,
        TransformerConfig {
            vocab: 64,
            max_seq: 16,
            d_model: 32,
            heads: 4,
            d_ff: 64,
            layers: 1,
            num_classes,
            seed: 202,
            causal: false,
        },
    )
}

/// OPT-125M proxy: 2 encoder blocks, d=40.
pub fn opt125m_mini(ps: &mut ParamSet, num_classes: usize) -> TransformerClassifier {
    TransformerClassifier::new(
        ps,
        TransformerConfig {
            vocab: 64,
            max_seq: 16,
            d_model: 40,
            heads: 4,
            d_ff: 80,
            layers: 2,
            num_classes,
            seed: 203,
            causal: false,
        },
    )
}

/// GPT-style causal proxy: 1 decoder block, d=32, causal attention — the
/// model a token-streaming decode session serves
/// ([`ServableModel::decode_contract`] holds).
pub fn gpt_mini(ps: &mut ParamSet, num_classes: usize) -> TransformerClassifier {
    TransformerClassifier::new(
        ps,
        TransformerConfig {
            vocab: 64,
            max_seq: 16,
            d_model: 32,
            heads: 4,
            d_ff: 64,
            layers: 1,
            num_classes,
            seed: 204,
            causal: true,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lutdla_nn::data::{synthetic_images, synthetic_sequences, ImageTaskConfig, SeqTaskConfig};
    use lutdla_nn::{
        eval_images, eval_seq, train_epoch_images, train_epoch_seq, Adam, Optimizer, Sgd,
    };

    #[test]
    fn convnet_shapes() {
        let mut ps = ParamSet::new();
        let net = resnet20_mini(&mut ps, 10);
        let mut g = Graph::new(false);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&mut rng, &[2, 3, 16, 16], 1.0);
        let y = net.logits(&mut g, &ps, x);
        assert_eq!(g.value(y).dims(), &[2, 10]);
    }

    #[test]
    fn convnet_dense_unit_order_matches_capture() {
        let mut ps = ParamSet::new();
        let net = resnet20_mini(&mut ps, 10);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&mut rng, &[2, 3, 16, 16], 1.0);
        let captured = net.capture_gemm_inputs(&ps, x);
        let units = net.dense_units();
        assert_eq!(captured.len(), units.len());
        for (c, u) in captured.iter().zip(&units) {
            assert_eq!(
                c.dims()[1],
                u.gemm.in_dim(),
                "capture/unit mismatch for {}",
                u.name
            );
        }
    }

    #[test]
    fn convnet_learns() {
        let cfg = ImageTaskConfig {
            num_classes: 4,
            n_train: 96,
            n_test: 48,
            noise: 0.25,
            ..ImageTaskConfig::cifar10_proxy()
        };
        let (train, test) = synthetic_images(&cfg);
        let mut ps = ParamSet::new();
        let net = resnet20_mini(&mut ps, 4);
        let mut opt = Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4));
        for _ in 0..6 {
            train_epoch_images(&net, &mut ps, &mut opt, &train, 32);
        }
        let acc = eval_images(&net, &ps, &test, 32);
        assert!(acc > 0.5, "test accuracy {acc}");
    }

    #[test]
    fn transformer_shapes() {
        let mut ps = ParamSet::new();
        let net = bert_mini(&mut ps, 3);
        let mut g = Graph::new(false);
        let tokens: Vec<usize> = (0..2 * 16).map(|i| i % 64).collect();
        let y = net.logits(&mut g, &ps, &tokens, 2, 16);
        assert_eq!(g.value(y).dims(), &[2, 3]);
    }

    #[test]
    fn transformer_capture_matches_units() {
        let mut ps = ParamSet::new();
        let net = bert_mini(&mut ps, 3);
        let tokens: Vec<usize> = (0..2 * 16).map(|i| i % 64).collect();
        let captured = net.capture_gemm_inputs(&ps, &tokens, 2, 16);
        let units = net.dense_units();
        assert_eq!(captured.len(), units.len());
        for (c, u) in captured.iter().zip(&units) {
            assert_eq!(c.dims()[1], u.gemm.in_dim(), "mismatch for {}", u.name);
        }
    }

    #[test]
    fn transformer_learns() {
        let cfg = SeqTaskConfig {
            n_train: 192,
            n_test: 96,
            ..SeqTaskConfig::glue_proxy(9, 2)
        };
        let (train, test) = synthetic_sequences(&cfg);
        let mut ps = ParamSet::new();
        let net = distilbert_mini(&mut ps, 2);
        let mut opt = Optimizer::Adam(Adam::new(3e-3));
        for _ in 0..8 {
            train_epoch_seq(&net, &mut ps, &mut opt, &train, 32);
        }
        let acc = eval_seq(&net, &ps, &test, 32);
        assert!(acc > 0.7, "test accuracy {acc}");
    }

    #[test]
    fn servable_walk_is_the_dense_unit_order() {
        let mut ps = ParamSet::new();
        let net = resnet20_mini(&mut ps, 10);
        let walk = ServableModel::unit_walk(&net);
        let units = net.dense_units();
        assert_eq!(walk.len(), units.len());
        for (w, u) in walk.iter().zip(&units) {
            assert!(std::ptr::eq(*w, *u), "walk reordered {}", u.name);
        }
    }

    #[test]
    fn servable_logits_are_independent_of_batch_grouping() {
        // The contract a serving session relies on: coalescing requests into
        // any batch grouping yields bit-identical per-example logits.
        let mut ps = ParamSet::new();
        let net = resnet20_mini(&mut ps, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let images: Vec<Tensor> = (0..5)
            .map(|_| Tensor::randn(&mut rng, &[3, 16, 16], 1.0))
            .collect();
        for im in &images {
            net.validate_input(im).expect("valid image");
        }
        let whole = net.forward_logits(&ps, &images);
        let n = net.num_classes();
        let mut regrouped = Vec::new();
        regrouped.extend(net.forward_logits(&ps, &images[..2]).into_vec());
        regrouped.extend(net.forward_logits(&ps, &images[2..]).into_vec());
        assert_eq!(whole.data(), &regrouped[..], "batch grouping leaked");
        assert_eq!(whole.dims(), &[5, n]);

        let mut ps = ParamSet::new();
        let net = bert_mini(&mut ps, 3);
        let seqs: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..16).map(|t| (i * 7 + t * 3) % 64).collect())
            .collect();
        for s in &seqs {
            net.validate_input(s).expect("valid sequence");
        }
        let whole = net.forward_logits(&ps, &seqs);
        let mut regrouped = Vec::new();
        for s in &seqs {
            regrouped.extend(net.forward_logits(&ps, std::slice::from_ref(s)).into_vec());
        }
        assert_eq!(whole.data(), &regrouped[..], "batch grouping leaked");
    }

    #[test]
    fn servable_input_validation_rejects_bad_shapes() {
        let mut ps = ParamSet::new();
        let net = resnet20_mini(&mut ps, 10);
        let bad = Tensor::zeros(&[3, 8, 8]);
        assert!(net.validate_input(&bad).is_err());

        let mut ps = ParamSet::new();
        let net = bert_mini(&mut ps, 3);
        assert!(net.validate_input(&vec![]).is_err(), "empty sequence");
        assert!(net.validate_input(&vec![0; 17]).is_err(), "too long");
        assert!(net.validate_input(&vec![64; 4]).is_err(), "out of vocab");
        assert!(net.validate_input(&vec![0; 8]).is_ok());
        // Unequal lengths must not share a batch; equal lengths may.
        assert!(!net.batch_compatible(&vec![0; 8], &vec![0; 9]));
        assert!(net.batch_compatible(&vec![0; 8], &vec![1; 8]));
    }

    /// The incremental-forward invariant decode sessions rely on: with
    /// causal attention, every per-position stage input for a prefix is
    /// **bitwise** unchanged by later tokens — or by the sequence simply
    /// being shorter.
    #[test]
    fn causal_prefix_stage_rows_are_bitwise_stable() {
        let mut ps = ParamSet::new();
        let net = gpt_mini(&mut ps, 3);
        let full: Vec<usize> = (0..16).map(|i| (i * 7 + 2) % 64).collect();
        let mut diverged = full.clone();
        diverged[12] = (diverged[12] + 11) % 64;
        let cap_full = net.capture_gemm_inputs(&ps, &full, 1, 16);
        let cap_div = net.capture_gemm_inputs(&ps, &diverged, 1, 16);
        let cap_short = net.capture_gemm_inputs(&ps, &full[..12], 1, 12);
        let mut per_position = 0;
        for (s, ((a, b), c)) in cap_full.iter().zip(&cap_div).zip(&cap_short).enumerate() {
            if a.dims()[0] != 16 {
                continue; // the mean-pooled head row depends on every token
            }
            per_position += 1;
            let d = a.dims()[1];
            assert_eq!(
                &a.data()[..12 * d],
                &b.data()[..12 * d],
                "stage {s}: a future token leaked into the prefix"
            );
            assert_eq!(c.dims(), &[12, d]);
            assert_eq!(
                &a.data()[..12 * d],
                c.data(),
                "stage {s}: prefix rows depend on sequence length"
            );
        }
        assert!(per_position >= 6, "captures missing per-position stages");

        // Counterexample: bidirectional attention does *not* hold the
        // invariant — a future token perturbs post-attention prefix rows.
        let mut ps = ParamSet::new();
        let net = distilbert_mini(&mut ps, 3);
        let cap_full = net.capture_gemm_inputs(&ps, &full, 1, 16);
        let cap_div = net.capture_gemm_inputs(&ps, &diverged, 1, 16);
        let leaked = cap_full
            .iter()
            .zip(&cap_div)
            .filter(|(a, _)| a.dims()[0] == 16)
            .any(|(a, b)| {
                let d = a.dims()[1];
                a.data()[..12 * d] != b.data()[..12 * d]
            });
        assert!(leaked, "bidirectional prefix rows unexpectedly stable");
    }

    /// `decode_step` over a plain (unconverted) causal transformer with
    /// two blocks: one-token steps match the whole-sequence forward
    /// bitwise at every prefix length, and so does a multi-token step.
    #[test]
    fn decode_step_matches_whole_sequence_forward_bitwise() {
        let mut ps = ParamSet::new();
        let net = TransformerClassifier::new(
            &mut ps,
            TransformerConfig {
                layers: 2,
                ..*gpt_mini(&mut ParamSet::new(), 3).config()
            },
        );
        let tokens: Vec<usize> = (0..16).map(|i| (i * 7 + 2) % 64).collect();
        let mut cache = DecodeCache::default();
        for n in 1..=16 {
            let got = net
                .decode_step(&ps, &mut cache, &vec![tokens[n - 1]])
                .expect("valid step");
            let want = net.forward_logits(&ps, &[tokens[..n].to_vec()]);
            assert_eq!(got.data(), want.data(), "prefix {n} diverged");
            assert_eq!(cache.positions(), n);
        }
        let mut cache = DecodeCache::default();
        let _ = net.decode_step(&ps, &mut cache, &tokens[..2].to_vec());
        let got = net
            .decode_step(&ps, &mut cache, &tokens[2..7].to_vec())
            .expect("valid step");
        let want = net.forward_logits(&ps, &[tokens[..7].to_vec()]);
        assert_eq!(got.data(), want.data(), "multi-token step diverged");
    }

    #[test]
    fn decode_step_rejects_bad_steps_without_touching_the_cache() {
        let mut ps = ParamSet::new();
        let net = gpt_mini(&mut ps, 3);
        let mut cache = DecodeCache::default();
        for tok in 0..15 {
            net.decode_step(&ps, &mut cache, &vec![tok]).expect("valid");
        }
        for bad in [vec![], vec![64], vec![1, 2]] {
            assert!(net.decode_step(&ps, &mut cache, &bad).is_err(), "{bad:?}");
            assert_eq!(cache.positions(), 15, "{bad:?} grew the cache");
        }
        let mut ps = ParamSet::new();
        let bert = bert_mini(&mut ps, 3);
        let err = bert
            .decode_step(&ps, &mut DecodeCache::default(), &vec![1])
            .expect_err("bidirectional");
        assert!(err.contains("causal"), "{err}");
        let mut ps = ParamSet::new();
        let conv = resnet20_mini(&mut ps, 4);
        assert!(conv
            .decode_step(
                &ps,
                &mut DecodeCache::default(),
                &Tensor::zeros(&[3, 16, 16])
            )
            .is_err());
    }

    #[test]
    fn decode_contract_accepts_causal_transformers_only() {
        let mut ps = ParamSet::new();
        let gpt = gpt_mini(&mut ps, 3);
        gpt.decode_contract().expect("causal transformer decodes");

        let mut ps = ParamSet::new();
        let bert = bert_mini(&mut ps, 3);
        assert!(bert.decode_contract().is_err(), "bidirectional decoded");

        let mut ps = ParamSet::new();
        let conv = resnet20_mini(&mut ps, 4);
        assert!(conv.decode_contract().is_err(), "image model decoded");
        assert!(conv
            .extend_input(&Tensor::zeros(&[3, 16, 16]), &Tensor::zeros(&[3, 16, 16]))
            .is_err());
        assert_eq!(conv.input_positions(&Tensor::zeros(&[3, 16, 16])), 1);
    }

    #[test]
    fn extend_input_appends_and_validates() {
        let mut ps = ParamSet::new();
        let net = gpt_mini(&mut ps, 3);
        let prefix = vec![1usize, 2, 3];
        let next = net.extend_input(&prefix, &vec![4]).expect("fits");
        assert_eq!(next, vec![1, 2, 3, 4]);
        assert_eq!(net.input_positions(&next), 4);
        assert!(net.extend_input(&prefix, &vec![]).is_err(), "empty step");
        assert!(net.extend_input(&prefix, &vec![64]).is_err(), "bad token");
        let full: Vec<usize> = vec![0; 16];
        assert!(net.extend_input(&full, &vec![1]).is_err(), "over max_seq");
    }

    #[test]
    fn causal_transformer_trains() {
        let cfg = SeqTaskConfig {
            n_train: 128,
            n_test: 64,
            ..SeqTaskConfig::glue_proxy(9, 2)
        };
        let (train, test) = synthetic_sequences(&cfg);
        let mut ps = ParamSet::new();
        let net = TransformerClassifier::new(
            &mut ps,
            TransformerConfig {
                causal: true,
                ..*distilbert_mini(&mut ParamSet::new(), 2).config()
            },
        );
        let mut opt = Optimizer::Adam(Adam::new(3e-3));
        for _ in 0..8 {
            train_epoch_seq(&net, &mut ps, &mut opt, &train, 32);
        }
        let acc = eval_seq(&net, &ps, &test, 32);
        assert!(acc > 0.6, "causal test accuracy {acc}");
    }

    #[test]
    fn param_counts_scale_with_depth() {
        let mut ps20 = ParamSet::new();
        let _ = resnet20_mini(&mut ps20, 10);
        let mut ps56 = ParamSet::new();
        let _ = resnet56_mini(&mut ps56, 10);
        assert!(ps56.num_scalars() > 2 * ps20.num_scalars());
    }
}

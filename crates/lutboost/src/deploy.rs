//! Deployment numerics and model-level deploy/undeploy helpers: freeze a
//! converted model into lookup tables and evaluate it exactly as the IMM
//! hardware would execute it (Table IV's FP32/BF16+INT8 columns).
//!
//! Engine construction, caching, and serving live in [`crate::LutRuntime`];
//! this module provides the numeric configuration ([`DeployConfig`]), the
//! single iterator ([`lut_layers`]) every architecture's deploy path funnels
//! through, the runtime-backed evaluation entry points, and the compiled
//! per-unit plans of the serving sessions: [`UnitPlan`] (a LUT unit's
//! [`EngineStage`], called directly by the layer's eval forward) and
//! [`DecodePlan`] (a LUT unit's [`DecodeStageCache`], which reuses the
//! prefix's packed codes across decode steps).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use lutdla_nn::data::{ImageDataset, SeqDataset};
use lutdla_nn::ParamSet;
use lutdla_tensor::Tensor;
use lutdla_vq::{
    lock_engine, CodeWidth, EncodeMemo, EngineStage, FloatPrecision, LutEngine, LutQuant,
    PackedCodes, SharedEngine, StageStats,
};

use lutdla_models::trainable::{ConvNet, DenseUnit, TransformerClassifier};

use crate::convert::as_lut;
use crate::lut_gemm::LutGemm;
use crate::runtime::LutRuntime;

/// Numeric configuration of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployConfig {
    /// Precision of the stored LUT entries.
    pub lut_quant: LutQuant,
    /// Precision of the similarity (distance) datapath.
    pub precision: FloatPrecision,
}

impl DeployConfig {
    /// Full-precision deployment (paper's "FP32+FP32").
    pub fn fp32() -> Self {
        Self {
            lut_quant: LutQuant::F32,
            precision: FloatPrecision::Fp32,
        }
    }

    /// The paper's efficient deployment: BF16 distances + INT8 tables.
    pub fn bf16_int8() -> Self {
        Self {
            lut_quant: LutQuant::Int8,
            precision: FloatPrecision::Bf16,
        }
    }
}

/// The converted LUT layers among a model's dense units, in unit order.
///
/// Both `ConvNet::dense_units()` and
/// `TransformerClassifier::dense_units()` feed straight in, so every
/// deploy/undeploy path — any architecture — shares this one call site.
pub fn lut_layers<'a>(
    units: impl IntoIterator<Item = &'a DenseUnit>,
) -> impl Iterator<Item = &'a LutGemm> {
    units.into_iter().filter_map(as_lut)
}

/// Reverts every LUT layer among `units` to training-mode forwards. Cached
/// engines survive in whichever [`LutRuntime`] built them, so a later
/// re-deploy at an unchanged parameter version is free.
pub fn undeploy_units<'a>(units: impl IntoIterator<Item = &'a DenseUnit>) {
    for lut in lut_layers(units) {
        lut.clear_deploy();
    }
}

/// One dense unit's compiled execution route in a whole-model serving
/// session ([`crate::ModelSession`]): LUT engine or dense path. Compiled
/// once per session by [`crate::SessionBuilder::build_model`]; the session
/// replays the plan on every flush.
pub enum UnitPlan {
    /// A converted layer: its engine (resolved through the runtime's LRU
    /// cache), called directly by the layer's eval forward.
    Lut {
        /// Unit name, for reporting.
        name: String,
        /// The stage the layer's forwards run through: it pins the cached
        /// engine for the session's lifetime (independently of the cache's
        /// LRU eviction) and counts every call.
        stage: Arc<EngineStage>,
    },
    /// A unit the convert policy kept dense: served by the plain GEMM
    /// inside the model's eval forward.
    Dense {
        /// Unit name, for reporting.
        name: String,
    },
}

impl UnitPlan {
    /// Whether this unit runs on a LUT engine.
    pub fn is_lut(&self) -> bool {
        matches!(self, UnitPlan::Lut { .. })
    }

    /// The unit's name.
    pub fn name(&self) -> &str {
        match self {
            UnitPlan::Lut { name, .. } | UnitPlan::Dense { name } => name,
        }
    }

    /// Snapshot of this stage's counters (engine calls, rows, widest call,
    /// service time, memo traffic) — the per-stage observability surface
    /// of a [`crate::ModelSession`]. `None` for units on the dense path.
    pub fn stage_stats(&self) -> Option<StageStats> {
        match self {
            UnitPlan::Lut { stage, .. } => Some(stage.stats()),
            UnitPlan::Dense { .. } => None,
        }
    }
}

impl std::fmt::Debug for UnitPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnitPlan::Lut { name, stage } => f
                .debug_struct("Lut")
                .field("name", name)
                .field("stage", stage)
                .finish(),
            UnitPlan::Dense { name } => f.debug_struct("Dense").field("name", name).finish(),
        }
    }
}

/// Prefix-reuse counters of one [`DecodeStageCache`], cumulative over a
/// [`crate::DecodeSession`]'s lifetime. On a causal model every step after
/// the first should mostly `reuse`: only the new token's rows re-walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStageStats {
    /// Rows whose packed codes were spliced from the cached prefix — no
    /// similarity walk.
    pub reused_rows: u64,
    /// Rows that went through the similarity walk (new or changed rows).
    pub walked_rows: u64,
}

/// Per-stage prefix cache of a [`crate::DecodeSession`]: the previous
/// step's activation rows (as exact bit-images) together with their packed
/// code stream ([`PackedCodes`]). On the next step, the longest bitwise-
/// common row prefix reuses its codes verbatim — [`PackedCodes::truncate_rows`]
/// plus [`PackedCodes::append`] splice the cached prefix to a freshly
/// encoded suffix — so only new rows pay the similarity walk. Because
/// packed codes fully determine the lookup ([`LutEngine::run_from_packed`]
/// is bit-identical to `run_batch` on the same rows), reuse never changes
/// a single output bit.
pub struct DecodeStageCache {
    engine: SharedEngine,
    /// Optional cross-step encode memo ([`crate::RuntimeOptions::memo_rows`]):
    /// fresh rows that hash-match a previously walked row skip the walk too.
    memo: Option<Arc<EncodeMemo>>,
    inner: RefCell<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    /// Bit-image of the previous eval's activation rows (`rows × k`).
    rows: Vec<f32>,
    /// Row width of `rows`; `0` until the first eval.
    k: usize,
    /// The previous eval's packed code stream (same row count as `rows`).
    packed: Option<PackedCodes>,
    /// Packed-stream geometry `(n_sub, width, row_stride)`, learned from
    /// the first encode; needed to size memo lookups without walking.
    geometry: Option<(usize, CodeWidth, usize)>,
    reused_rows: u64,
    walked_rows: u64,
}

impl DecodeStageCache {
    pub(crate) fn new(engine: SharedEngine, memo: Option<Arc<EncodeMemo>>) -> Self {
        Self {
            engine,
            memo,
            inner: RefCell::new(CacheInner::default()),
        }
    }

    /// The engine this stage runs on.
    pub fn engine(&self) -> &SharedEngine {
        &self.engine
    }

    /// Cumulative reuse/walk row counters.
    pub fn stats(&self) -> DecodeStageStats {
        let inner = self.inner.borrow();
        DecodeStageStats {
            reused_rows: inner.reused_rows,
            walked_rows: inner.walked_rows,
        }
    }

    /// Serves one eval-mode forward through the prefix cache; bit-identical
    /// to `run_batch(x)` on the same engine. See the type docs.
    pub(crate) fn eval(&self, x: &Tensor) -> Tensor {
        let mut eng = lock_engine(&self.engine);
        let (m, k) = (x.dims()[0], x.dims()[1]);
        let data = x.data();
        let mut inner = self.inner.borrow_mut();
        // Longest bitwise-common row prefix against the previous eval.
        let mut common = 0usize;
        if inner.k == k && k > 0 {
            let limit = (inner.rows.len() / k).min(m);
            while common < limit
                && bits_eq(
                    &inner.rows[common * k..(common + 1) * k],
                    &data[common * k..(common + 1) * k],
                )
            {
                common += 1;
            }
        }
        let mut stream = match inner.packed.take() {
            Some(mut p) if common > 0 => {
                p.truncate_rows(common);
                Some(p)
            }
            _ => {
                common = 0;
                None
            }
        };
        let fresh = m - common;
        if fresh > 0 {
            let suffix = self.encode_suffix(
                &mut eng,
                &data[common * k..m * k],
                fresh,
                k,
                &mut inner.geometry,
            );
            match stream.as_mut() {
                Some(s) => s.append(&suffix),
                None => stream = Some(suffix),
            }
        }
        inner.reused_rows += common as u64;
        inner.walked_rows += fresh as u64;
        inner.k = k;
        inner.rows.clear();
        inner.rows.extend_from_slice(&data[..m * k]);
        let y = match stream.as_ref().map(|s| eng.run_from_packed(s)) {
            Some(Ok(y)) => y,
            // Structurally unreachable — the spliced stream always holds
            // `m ≥ 1` rows of this engine's geometry — but the serving path
            // degrades to a plain (still bit-identical) batch run rather
            // than panicking.
            _ => eng.run_batch(x),
        };
        inner.packed = stream;
        y
    }

    /// Encodes `fresh` new rows, through the per-stage memo when present:
    /// memo hits paste their verified packed bytes; misses walk one row and
    /// seed the memo for later steps (and streams).
    fn encode_suffix(
        &self,
        eng: &mut LutEngine,
        rows: &[f32],
        fresh: usize,
        k: usize,
        geometry: &mut Option<(usize, CodeWidth, usize)>,
    ) -> PackedCodes {
        let Some(memo) = &self.memo else {
            return eng.encode_packed(&Tensor::from_vec(rows.to_vec(), &[fresh, k]));
        };
        let mut bytes = Vec::new();
        for r in 0..fresh {
            let row = &rows[r * k..(r + 1) * k];
            if let Some((_, _, stride)) = *geometry {
                let start = bytes.len();
                bytes.resize(start + stride, 0u8);
                if memo.lookup(row, &mut bytes[start..]) {
                    continue;
                }
                bytes.truncate(start);
            }
            let one = eng.encode_packed(&Tensor::from_vec(row.to_vec(), &[1, k]));
            memo.insert(row, one.row_bytes(0));
            *geometry = Some((one.n_sub(), one.width(), one.row_stride()));
            bytes.extend_from_slice(one.bytes());
        }
        match *geometry {
            Some((n_sub, width, _)) => PackedCodes::from_bytes(bytes, fresh, n_sub, width),
            // Unreachable: `fresh > 0`, and any first row is a memo miss
            // (lookups need the geometry this arm lacks), which sets it.
            None => eng.encode_packed(&Tensor::from_vec(rows.to_vec(), &[fresh, k])),
        }
    }
}

impl std::fmt::Debug for DecodeStageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("DecodeStageCache")
            .field("reused_rows", &s.reused_rows)
            .field("walked_rows", &s.walked_rows)
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

/// Bitwise row equality — the prefix cache keys on the exact activation
/// image, so `-0.0 ≠ 0.0` and any NaN payload change invalidates reuse
/// (strictly conservative: a false negative only costs a re-walk).
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One dense unit's compiled route in a [`crate::DecodeSession`] — the
/// decode twin of [`UnitPlan`]: LUT stages route through a per-stage
/// prefix cache instead of calling the engine directly.
pub enum DecodePlan {
    /// A converted layer: its step-to-step prefix cache over the cached
    /// engine, installed on the layer for the span of each step.
    Lut {
        /// Unit name, for reporting.
        name: String,
        /// The stage's prefix cache (it holds the stage's engine).
        cache: Rc<DecodeStageCache>,
    },
    /// A unit the convert policy kept dense: served by the plain GEMM
    /// inside the model's eval forward.
    Dense {
        /// Unit name, for reporting.
        name: String,
    },
}

impl DecodePlan {
    /// Whether this unit runs on a LUT engine.
    pub fn is_lut(&self) -> bool {
        matches!(self, DecodePlan::Lut { .. })
    }

    /// The unit's name.
    pub fn name(&self) -> &str {
        match self {
            DecodePlan::Lut { name, .. } | DecodePlan::Dense { name } => name,
        }
    }

    /// This stage's prefix-reuse counters; `None` for dense units.
    pub fn stage_stats(&self) -> Option<DecodeStageStats> {
        match self {
            DecodePlan::Lut { cache, .. } => Some(cache.stats()),
            DecodePlan::Dense { .. } => None,
        }
    }
}

impl std::fmt::Debug for DecodePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodePlan::Lut { name, cache, .. } => f
                .debug_struct("Lut")
                .field("name", name)
                .field("cache", cache)
                .finish(),
            DecodePlan::Dense { name } => f.debug_struct("Dense").field("name", name).finish(),
        }
    }
}

/// Evaluates a converted [`ConvNet`] through the table-lookup path, using
/// (and warming) the runtime's engine cache at the given numerics.
///
/// A thin wrapper over [`crate::ModelSession`]: every test image is
/// submitted through the whole-model front door (flushed in `batch_size`
/// groups), which is bit-identical to the batched eval forward because
/// per-example logits are independent of batch grouping.
pub fn eval_images_deployed(
    rt: &mut LutRuntime,
    net: &ConvNet,
    ps: &ParamSet,
    data: &ImageDataset,
    batch_size: usize,
    cfg: DeployConfig,
) -> f32 {
    let session = rt.serve(net, ps).config(cfg).build_model();
    let mut correct = 0usize;
    let mut pending = Vec::with_capacity(batch_size.max(1));
    for i in 0..data.len() {
        let (image, label) = data.example(i);
        let handle = session.submit(image).expect("dataset example is valid");
        pending.push((handle, label));
        if pending.len() == batch_size.max(1) || i + 1 == data.len() {
            session.flush();
            correct += drain_correct(&mut pending);
        }
    }
    correct as f32 / data.len().max(1) as f32
}

/// Evaluates a converted [`TransformerClassifier`] through the table-lookup
/// path, using (and warming) the runtime's engine cache.
///
/// A thin wrapper over [`crate::ModelSession`]; see
/// [`eval_images_deployed`].
pub fn eval_seq_deployed(
    rt: &mut LutRuntime,
    net: &TransformerClassifier,
    ps: &ParamSet,
    data: &SeqDataset,
    batch_size: usize,
    cfg: DeployConfig,
) -> f32 {
    let session = rt.serve(net, ps).config(cfg).build_model();
    let mut correct = 0usize;
    let mut pending = Vec::with_capacity(batch_size.max(1));
    for i in 0..data.len() {
        let (tokens, label) = data.sequence(i);
        let handle = session
            .submit(tokens.to_vec())
            .expect("dataset sequence is valid");
        pending.push((handle, label));
        if pending.len() == batch_size.max(1) || i + 1 == data.len() {
            session.flush();
            correct += drain_correct(&mut pending);
        }
    }
    correct as f32 / data.len().max(1) as f32
}

/// Resolves a flushed group of handles and counts argmax hits.
fn drain_correct(pending: &mut Vec<(lutdla_vq::Pending, usize)>) -> usize {
    pending
        .drain(..)
        .filter(|(handle, label)| {
            let logits = handle
                .try_wait()
                .expect("session alive")
                .expect("handle was flushed");
            // First-wins tie-break, matching `Tensor::argmax_last_axis`
            // (so accuracies agree with the batched eval loops exactly).
            let mut best = 0;
            for (j, &v) in logits.iter().enumerate() {
                if v > logits[best] {
                    best = j;
                }
            }
            best == *label
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{lutify_convnet, CentroidInit, ConvertPolicy};
    use crate::lut_gemm::LutConfig;
    use lutdla_models::trainable::resnet20_mini;
    use lutdla_nn::data::{synthetic_images, ImageTaskConfig};
    use lutdla_nn::{Graph, ImageModel};
    use lutdla_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deployed_fp32_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(110);
        let mut ps = ParamSet::new();
        let mut net = resnet20_mini(&mut ps, 4);
        let images = Tensor::randn(&mut rng, &[4, 3, 16, 16], 1.0);
        let _ = lutify_convnet(
            &mut net,
            &mut ps,
            LutConfig::default(),
            CentroidInit::Kmeans,
            ConvertPolicy::default(),
            images.clone(),
            &mut rng,
        );

        // Eval forward (quantized path, no deploy) …
        let mut g = Graph::new(false);
        let node = net.logits(&mut g, &ps, images.clone());
        let base = g.value(node).clone();
        // … must equal the FP32-deployed table path.
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        rt.deploy(net.dense_units(), &ps);
        let mut g = Graph::new(false);
        let node = net.logits(&mut g, &ps, images.clone());
        let deployed = g.value(node).clone();
        undeploy_units(net.dense_units());
        assert!(
            deployed.allclose(&base, 1e-3),
            "rel err {}",
            deployed.rel_error(&base)
        );
    }

    #[test]
    fn bf16_int8_deployment_stays_close() {
        let (train, test) = synthetic_images(&ImageTaskConfig {
            num_classes: 4,
            n_train: 64,
            n_test: 48,
            noise: 0.25,
            ..ImageTaskConfig::cifar10_proxy()
        });
        let mut rng = StdRng::seed_from_u64(111);
        let mut ps = ParamSet::new();
        let mut net = resnet20_mini(&mut ps, 4);
        let calib = train.batch(0, 32).0;
        let _ = lutify_convnet(
            &mut net,
            &mut ps,
            LutConfig {
                c: 32,
                ..Default::default()
            },
            CentroidInit::Kmeans,
            ConvertPolicy::default(),
            calib,
            &mut rng,
        );
        let mut rt = LutRuntime::new(DeployConfig::bf16_int8());
        let fp32 = eval_images_deployed(&mut rt, &net, &ps, &test, 32, DeployConfig::fp32());
        let int8 = eval_images_deployed(&mut rt, &net, &ps, &test, 32, DeployConfig::bf16_int8());
        // Paper: BF16+INT8 costs < 1% accuracy; allow a generous margin on
        // the toy task (untrained conversion → near-chance accuracy is fine,
        // but the two paths must not diverge wildly).
        assert!(
            (fp32 - int8).abs() < 0.25,
            "fp32 {fp32} vs bf16+int8 {int8}"
        );
        // One runtime served both sweeps: each numeric config was built
        // exactly once per layer.
        let stats = rt.stats();
        assert_eq!(stats.hits, 0);
        assert!(stats.misses > 0);
        // Re-running one config is now all hits.
        let _ = eval_images_deployed(&mut rt, &net, &ps, &test, 32, DeployConfig::fp32());
        assert_eq!(rt.stats().misses, stats.misses, "re-eval re-tiled tables");
        assert!(rt.stats().hits > 0);
    }
}

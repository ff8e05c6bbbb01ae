//! Deployment numerics and model-level deploy/undeploy helpers: freeze a
//! converted model into lookup tables and evaluate it exactly as the IMM
//! hardware would execute it (Table IV's FP32/BF16+INT8 columns).
//!
//! Engine construction, caching, and serving live in [`crate::LutRuntime`];
//! this module provides the numeric configuration ([`DeployConfig`]), the
//! single iterator ([`lut_layers`]) every architecture's deploy path funnels
//! through, the runtime-backed evaluation entry points, and the compiled
//! per-unit plan every serving session runs: [`UnitPlan`], a LUT unit's
//! [`EngineStage`] called directly by the layer's eval forward. A
//! [`crate::ModelSession`] and a [`crate::DecodeSession`] compile the same
//! plan; a decode step simply feeds each stage only its new rows.

use std::sync::Arc;

use lutdla_nn::data::{ImageDataset, SeqDataset};
use lutdla_nn::ParamSet;
use lutdla_vq::{EngineStage, FloatPrecision, LutQuant, Pending, ServeError, StageStats};

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

/// One dense unit's compiled execution route in a serving session
/// ([`crate::ModelSession`] or [`crate::DecodeSession`]): LUT engine or
/// dense path. Compiled once per session by
/// [`crate::SessionBuilder::build_model`] or
/// [`crate::SessionBuilder::build_decode`]; the session replays the plan
/// on every flush or step.
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
    /// of a session. `None` for units on the dense path.
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

/// Evaluates a converted [`ConvNet`] through the table-lookup path, using
/// (and warming) the runtime's engine cache at the given numerics.
///
/// A thin wrapper over [`crate::ModelSession`]: every test image is
/// submitted through the whole-model front door (flushed in `batch_size`
/// groups), which is bit-identical to the batched eval forward because
/// per-example logits are independent of batch grouping. An example the
/// session fails to accept or resolve counts as incorrect.
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
        pending.push((session.submit(image), label));
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
        pending.push((session.submit(tokens.to_vec()), label));
        if pending.len() == batch_size.max(1) || i + 1 == data.len() {
            session.flush();
            correct += drain_correct(&mut pending);
        }
    }
    correct as f32 / data.len().max(1) as f32
}

/// Resolves a flushed group of handles and counts argmax hits; a failed
/// submit or an unresolved handle is a miss.
fn drain_correct(pending: &mut Vec<(Result<Pending, ServeError>, usize)>) -> usize {
    pending
        .drain(..)
        .filter(|(handle, label)| {
            let Some(logits) = handle
                .as_ref()
                .ok()
                .and_then(|h| h.try_wait().ok().flatten())
            else {
                return false;
            };
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

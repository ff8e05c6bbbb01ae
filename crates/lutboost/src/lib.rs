//! LUTBoost: the lightweight multistage converter that turns trained neural
//! networks into LUT-based models (paper §V).
//!
//! The crate provides:
//!
//! * [`LutGemm`] — the lookup-table GEMM operator with straight-through
//!   gradient estimation and the symmetric reconstruction loss;
//! * conversion ([`lutify_convnet`] / [`lutify_transformer`]) — operator
//!   replacement over the `lutdla-models` trainable architectures (stage ➀
//!   of Fig. 6);
//! * training ([`convert_and_train_images`] / [`convert_and_train_seq`]) —
//!   the multistage schedule (stage ➁ centroid calibration, stage ➂ joint
//!   training) plus the single-stage / from-scratch baselines used in
//!   Figs. 7 & 12 and Table II;
//! * deployment ([`DeployConfig`], [`eval_images_deployed`] /
//!   [`eval_seq_deployed`]) — deployment numerics and the model-level
//!   deploy/undeploy helpers (Table IV's FP32/BF16+INT8 columns);
//! * [`LutRuntime`] — the deployment/serving session object:
//!   a cached-engine store (keyed on parameter identity/version and the
//!   deployment numerics), a persistent worker pool shared by every engine,
//!   and the builders of every serving session, including the single-layer
//!   micro-batched front door that coalesces single-row `submit` calls
//!   into batched engine runs;
//! * [`ModelSession`] — the whole-model serving front door:
//!   `submit(input)` queues one request, and each flush runs every layer
//!   over the queued batch (cached LUT engines called directly for
//!   converted units, the dense eval path otherwise) and resolves a
//!   `Pending` handle per request with its logits, bit-identical to the
//!   batched `deploy` + eval path;
//! * [`ServeGateway`] — the multi-tenant serving front door: N registered
//!   models, one session each, with tenants in SLO classes ([`SloClass`])
//!   and bounded-queue admission control, so concurrent tenants of one
//!   model coalesce into shared engine calls while staying bit-identical
//!   to solo sessions;
//! * [`DecodeSession`] — token-streaming autoregressive serving
//!   ([`SessionBuilder::build_decode`]): each `step` runs only the new
//!   token's rows through the model — every LUT stage encodes and looks up
//!   just those rows, and attention reads a per-session key/value cache —
//!   bit-identical to a full-sequence re-eval. It compiles the same
//!   [`UnitPlan`] as a [`ModelSession`] and reports the same per-stage
//!   counters.
//!
//! All serving sessions are built through one front door,
//! [`LutRuntime::serve`] (whole-model) / [`LutRuntime::serve_layer`]
//! (single layer), returning a [`SessionBuilder`] /
//! [`LayerSessionBuilder`]; errors across session, gateway, and decode
//! surfaces share [`ServeError`]. A session's LUT stages call their cached
//! engines on the thread that runs the forward, so building a
//! [`ModelSession`] or [`DecodeSession`], or registering a gateway model,
//! starts no thread; only the single-layer front door runs a collector.
//!
//! # Example: convert a tiny ResNet, deploy at BF16+INT8, serve rows
//!
//! ```no_run
//! use lutdla_lutboost::{
//!     convert_and_train_images, eval_images_deployed, lut_layers, DeployConfig, LutConfig,
//!     LutRuntime, Strategy, ConvertPolicy, TrainSchedule,
//! };
//! use lutdla_models::trainable::resnet20_mini;
//! use lutdla_nn::data::{synthetic_images, ImageTaskConfig};
//! use lutdla_nn::ParamSet;
//!
//! let (train, test) = synthetic_images(&ImageTaskConfig::cifar10_proxy());
//! let mut ps = ParamSet::new();
//! let mut net = resnet20_mini(&mut ps, 10);
//! // … pretrain `net` …
//! let outcome = convert_and_train_images(
//!     &mut net, &mut ps, Strategy::Multistage, LutConfig::default(),
//!     ConvertPolicy::default(), &TrainSchedule::default(), &train, &test, 0,
//! );
//! let mut rt = LutRuntime::new(DeployConfig::bf16_int8());
//! let acc = eval_images_deployed(&mut rt, &net, &ps, &test, 32, DeployConfig::bf16_int8());
//! println!("LUT model accuracy: {acc} (train-path: {})", outcome.test_accuracy);
//!
//! // Serve single rows through a micro-batched session on one LUT layer.
//! let lut = lut_layers(net.dense_units()).next().expect("a converted layer");
//! let session = rt.serve_layer(lut, &ps).build(); // engine comes from the cache
//! let pending = session.submit(&vec![0.0; session.input_dim()]).expect("row");
//! let _row_out = pending.wait().expect("served");
//!
//! // …or serve the WHOLE model: one submit = one end-to-end inference.
//! let serve = rt.serve(&net, &ps).build_model(); // same cache, every layer planned
//! let (image, _label) = test.example(0);
//! let pending = serve.submit(image).expect("image");
//! serve.flush();
//! let _logits = pending.wait().expect("served");
//! ```

mod convert;
mod deploy;
mod fold;
mod gateway;
mod lut_gemm;
mod runtime;
mod session;
mod trainer;

pub use convert::{
    as_lut, as_lut_mut, lutify_convnet, lutify_transformer, CentroidInit, ConvertPolicy, LutHandles,
};
pub use deploy::{
    eval_images_deployed, eval_seq_deployed, lut_layers, undeploy_units, DeployConfig, UnitPlan,
};
pub use fold::{fold_bn_into_weight, fold_bn_param, BnParams};
pub use gateway::{
    ClassPolicy, GatewayOptions, GatewayStats, ModelId, ServeGateway, SloClass, TenantId,
    TenantStats,
};
pub use lut_gemm::{LutConfig, LutGemm};
pub use lutdla_vq::ServeError;
pub use runtime::{CacheStats, LayerSessionBuilder, LutRuntime, RuntimeOptions, SessionBuilder};
pub use session::{DecodeSession, ModelSession};
pub use trainer::{
    convert_and_train_images, convert_and_train_seq, fresh_pretrained_convnet,
    fresh_pretrained_transformer, ConversionOutcome, Strategy, TrainSchedule,
};

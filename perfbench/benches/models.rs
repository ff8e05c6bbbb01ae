//! The converted models and runtimes every workload serves.
//!
//! Model weights and calibration data depend on fixed seeds only, so the
//! serving state (and the set-up time) is the same for every workload
//! seed; `--seed` drives the request inputs alone.

use lutdla_lutboost::{
    lutify_convnet, lutify_transformer, CentroidInit, ConvertPolicy, DeployConfig, LutConfig,
    LutRuntime, RuntimeOptions,
};
use lutdla_models::trainable::{ConvNet, ConvNetConfig, TransformerClassifier, TransformerConfig};
use lutdla_nn::ParamSet;
use lutdla_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// Numerics of every deployment: BF16 similarity, INT8 tables.
pub fn deploy_config() -> DeployConfig {
    DeployConfig::bf16_int8()
}

/// The `resnet20_mini` shape: 3×16×16 input, width 8, one block per stage.
pub fn convnet_config(seed: u64) -> ConvNetConfig {
    ConvNetConfig {
        in_channels: 3,
        image_size: 16,
        width: 8,
        blocks_per_stage: 1,
        num_classes: 10,
        seed,
    }
}

/// Images fed to k-means at conversion time.
const CALIB_IMAGES: usize = 16;

/// Builds a ConvNet and converts it with k-means centroids. The
/// conversion runs inside a `convert` span.
pub fn convnet(seed: u64, tracer: &mut Tracer, op: u64) -> (ConvNet, ParamSet) {
    let cfg = convnet_config(seed);
    let mut ps = ParamSet::new();
    let mut net = ConvNet::new(&mut ps, cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let calib = Tensor::randn(
        &mut rng,
        &[
            CALIB_IMAGES,
            cfg.in_channels,
            cfg.image_size,
            cfg.image_size,
        ],
        1.0,
    );
    tracer.span("convert", op, || {
        lutify_convnet(
            &mut net,
            &mut ps,
            LutConfig::default(),
            CentroidInit::Kmeans,
            ConvertPolicy::default(),
            calib,
            &mut rng,
        )
    });
    (net, ps)
}

/// The causal decoder served by `decode_long`.
pub fn transformer_config() -> TransformerConfig {
    TransformerConfig {
        vocab: 64,
        max_seq: 256,
        d_model: 64,
        heads: 4,
        d_ff: 128,
        layers: 2,
        num_classes: 10,
        seed: 301,
        causal: true,
    }
}

/// Calibration batch for the transformer: sequences × length.
const CALIB_SEQS: usize = 4;
const CALIB_LEN: usize = 64;

/// Builds the causal transformer and converts it with k-means centroids,
/// inside a `convert` span.
pub fn transformer(tracer: &mut Tracer, op: u64) -> (TransformerClassifier, ParamSet) {
    let cfg = transformer_config();
    let mut ps = ParamSet::new();
    let mut net = TransformerClassifier::new(&mut ps, cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FFEE);
    let calib: Vec<usize> = (0..CALIB_SEQS * CALIB_LEN)
        .map(|_| rng.gen_range(0..cfg.vocab))
        .collect();
    tracer.span("convert", op, || {
        lutify_transformer(
            &mut net,
            &mut ps,
            LutConfig::default(),
            CentroidInit::Kmeans,
            ConvertPolicy::default(),
            &calib,
            CALIB_SEQS,
            CALIB_LEN,
            &mut rng,
        )
    });
    (net, ps)
}

/// A single-worker runtime: with one client thread at most two threads
/// are ever runnable, which the 2-vCPU hosts this runs on can hold.
pub fn runtime(memo_rows: usize) -> LutRuntime {
    LutRuntime::with_options(
        deploy_config(),
        RuntimeOptions {
            workers: 1,
            memo_rows,
            ..RuntimeOptions::default()
        },
    )
}

/// `n` seeded 3×16×16 images.
pub fn image_pool(rng: &mut StdRng, n: usize) -> Vec<Tensor> {
    let cfg = convnet_config(0);
    (0..n)
        .map(|_| Tensor::randn(rng, &[cfg.in_channels, cfg.image_size, cfg.image_size], 1.0))
        .collect()
}

/// Stacks `[C, H, W]` images into one `[B, C, H, W]` batch.
pub fn stack(images: &[&Tensor]) -> Tensor {
    let mut dims = vec![images.len()];
    dims.extend_from_slice(images[0].dims());
    let data = images
        .iter()
        .flat_map(|t| t.data().iter().copied())
        .collect();
    Tensor::from_vec(data, &dims)
}

/// `k` distinct indices out of `0..n` (partial Fisher–Yates).
pub fn distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

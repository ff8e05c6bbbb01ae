//! The incremental-decode contract, in the root test suite: a
//! `DecodeSession` step runs only the new token's rows through a converted
//! causal transformer (LUT stages plus attention over a per-session
//! key/value cache), and its logits must equal a fresh whole-prefix
//! `ModelSession` evaluation bit for bit.
//!
//! Prefixes reach 80 positions, past the 64-wide `k` block of the dense
//! matmul kernel that attention's weighted value sum runs through.

use lutdla_lutboost::{
    lutify_transformer, CentroidInit, ConvertPolicy, DeployConfig, LutConfig, LutRuntime,
};
use lutdla_models::trainable::{TransformerClassifier, TransformerConfig};
use lutdla_nn::ParamSet;
use lutdla_vq::{FloatPrecision, LutQuant};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Longest prefix checked; below the model's `max_seq` of 96.
const STEPS: usize = 80;

/// A converted causal transformer: 2 blocks, 4 heads, 96-token context.
fn converted_model() -> (ParamSet, TransformerClassifier, Vec<usize>) {
    let cfg = TransformerConfig {
        vocab: 64,
        max_seq: 96,
        d_model: 32,
        heads: 4,
        d_ff: 64,
        layers: 2,
        num_classes: 5,
        seed: 515,
        causal: true,
    };
    let mut ps = ParamSet::new();
    let mut net = TransformerClassifier::new(&mut ps, cfg);
    let calib: Vec<usize> = (0..2 * 96).map(|i| (i * 23 + 9) % 64).collect();
    let _ = lutify_transformer(
        &mut net,
        &mut ps,
        LutConfig::default(),
        CentroidInit::Kmeans,
        ConvertPolicy::default(),
        &calib,
        2,
        96,
        &mut StdRng::seed_from_u64(516),
    );
    let tokens = (0..STEPS).map(|i| (i * 37 + 11) % 64).collect();
    (ps, net, tokens)
}

/// Every `LutQuant × FloatPrecision` deployment combo.
fn all_combos() -> Vec<DeployConfig> {
    let precisions = [
        FloatPrecision::Fp32,
        FloatPrecision::Bf16,
        FloatPrecision::Fp16,
    ];
    [LutQuant::F32, LutQuant::F16, LutQuant::Int8]
        .into_iter()
        .flat_map(|lut_quant| {
            precisions.map(|precision| DeployConfig {
                lut_quant,
                precision,
            })
        })
        .collect()
}

/// Steps one token at a time through `STEPS` tokens and checks the
/// logits at every prefix length in `checked` against a whole-prefix
/// `ModelSession` run.
fn check_prefixes(
    ps: &ParamSet,
    net: &TransformerClassifier,
    tokens: &[usize],
    cfg: DeployConfig,
    checked: &[usize],
) {
    let mut rt = LutRuntime::new(cfg);
    let decode = rt
        .serve(net, ps)
        .config(cfg)
        .build_decode()
        .expect("causal model");
    assert!(decode.lut_stages() > 0, "nothing planned on engines");
    let reference = rt.serve(net, ps).config(cfg).build_model();
    for n in 1..=STEPS {
        let got = decode
            .step(vec![tokens[n - 1]])
            .expect("valid step")
            .wait()
            .expect("step resolved");
        if checked.contains(&n) {
            let want = reference.run([tokens[..n].to_vec()]).expect("valid prefix");
            assert_eq!(
                got.as_slice(),
                want.data(),
                "{cfg:?}: prefix {n} diverged from a full re-eval"
            );
        }
    }
    // Every LUT stage saw exactly one row per one-token step.
    for (name, stats) in decode.stage_stats() {
        assert_eq!(stats.rows_served, STEPS, "stage {name}");
    }
}

#[test]
fn decode_matches_full_reeval_at_every_prefix() {
    let (ps, net, tokens) = converted_model();
    let every: Vec<usize> = (1..=STEPS).collect();
    check_prefixes(&ps, &net, &tokens, DeployConfig::bf16_int8(), &every);
}

#[test]
fn decode_matches_full_reeval_across_all_combos() {
    let (ps, net, tokens) = converted_model();
    for cfg in all_combos() {
        check_prefixes(&ps, &net, &tokens, cfg, &[1, 17, 64, 65, 80]);
    }
}

#[test]
fn multi_token_step_equals_single_token_steps() {
    let (ps, net, tokens) = converted_model();
    let mut rt = LutRuntime::new(DeployConfig::bf16_int8());
    let mut run = |steps: &[&[usize]]| {
        let decode = rt.serve(&net, &ps).build_decode().expect("causal model");
        let mut last = Vec::new();
        for step in steps {
            last = decode
                .step(step.to_vec())
                .expect("valid step")
                .wait()
                .expect("step resolved");
        }
        (last, decode.prefix_positions())
    };
    let (prefix, rest) = tokens[..20].split_at(17);
    let singles: Vec<&[usize]> = std::iter::once(prefix).chain(rest.chunks(1)).collect();
    let (one_by_one, positions) = run(&singles);
    let (together, same_positions) = run(&[prefix, rest]);
    assert_eq!(rest.len(), 3);
    assert_eq!((positions, same_positions), (20, 20));
    assert_eq!(together, one_by_one, "a 3-token step diverged");
}

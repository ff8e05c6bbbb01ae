//! Property-based tests of the quantization stack.

use lutdla_tensor::Tensor;
use lutdla_vq::{
    amm_error, approx_matmul, approx_matmul_from_codes, approx_matmul_with_precision, bf16_round,
    fp16_round, kmeans, share, BatchOptions, CodeWidth, Distance, EngineError, EngineOptions,
    FloatPrecision, Int8Block, KmeansConfig, LutEngine, LutQuant, LutTable, MicroBatcher,
    PackedCodes, ProductQuantizer,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Distances satisfy the metric axioms we rely on (identity, symmetry,
    /// non-negativity).
    #[test]
    fn distance_axioms(
        v in prop::collection::vec(-10.0f32..10.0, 1..16),
        w in prop::collection::vec(-10.0f32..10.0, 1..16),
    ) {
        prop_assume!(v.len() == w.len());
        for d in Distance::ALL {
            prop_assert!(d.eval(&v, &w) >= 0.0);
            prop_assert_eq!(d.eval(&v, &v), 0.0);
            prop_assert!((d.eval(&v, &w) - d.eval(&w, &v)).abs() < 1e-5);
        }
    }

    /// argmin returns the index whose distance is truly minimal.
    #[test]
    fn argmin_is_minimal(
        seed in 0u64..2000,
        dim in 1usize..8,
        c in 1usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&mut rng, &[dim], -1.0, 1.0);
        let cents = Tensor::rand_uniform(&mut rng, &[c * dim], -1.0, 1.0);
        for d in Distance::ALL {
            let best = d.argmin(x.data(), cents.data());
            let best_d = d.eval(x.data(), &cents.data()[best * dim..(best + 1) * dim]);
            for i in 0..c {
                let di = d.eval(x.data(), &cents.data()[i * dim..(i + 1) * dim]);
                prop_assert!(best_d <= di + 1e-6, "{d}: {best_d} > {di}");
            }
        }
    }

    /// K-means inertia never exceeds the one-cluster (mean) baseline.
    #[test]
    fn kmeans_beats_single_mean(seed in 0u64..500, n in 8usize..64, k in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 3;
        let data = Tensor::rand_uniform(&mut rng, &[n * dim], -1.0, 1.0);
        let multi = kmeans(data.data(), dim, &KmeansConfig { k, ..Default::default() }, &mut rng);
        let single = kmeans(data.data(), dim, &KmeansConfig { k: 1, ..Default::default() }, &mut rng);
        prop_assert!(multi.inertia <= single.inertia + 1e-6);
    }

    /// PQ reconstruction error is bounded by the worst per-subspace
    /// assignment distance (definitional sanity).
    #[test]
    fn pq_reconstruction_error_bounded(seed in 0u64..500, v in 2usize..5, c_pow in 1u32..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = v * 3;
        let data = Tensor::rand_uniform(&mut rng, &[32, k], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&data, v, 2usize.pow(c_pow), Distance::L2, &mut rng);
        let codes = pq.encode(&data);
        let rec = pq.decode(&codes, 32);
        // The decoded rows must be the *closest* centroids: re-encoding the
        // reconstruction must reproduce the codes.
        let codes2 = pq.encode(&rec);
        prop_assert_eq!(codes, codes2);
    }

    /// AMM with the exact (FP32) table equals decode-then-matmul.
    #[test]
    fn amm_equals_decode_matmul(seed in 0u64..500, v in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = v * 2;
        let a = Tensor::rand_uniform(&mut rng, &[16, k], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, 6], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&a, v, 8, Distance::L2, &mut rng);
        let lut = LutTable::build(&pq, &b, LutQuant::F32);
        let via_lut = approx_matmul(&a, &pq, &lut);
        let codes = pq.encode(&a);
        let via_decode = pq.decode(&codes, 16).matmul(&b);
        prop_assert!(via_lut.allclose(&via_decode, 1e-3));
    }

    /// AMM error report is self-consistent: rel_frobenius ≥ 0, and zero only
    /// if outputs match.
    #[test]
    fn amm_error_consistent(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[24, 8], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[8, 4], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&a, 4, 16, Distance::L1, &mut rng);
        let lut = LutTable::build(&pq, &b, LutQuant::F32);
        let e = amm_error(&a, &b, &pq, &lut);
        prop_assert!(e.rel_frobenius >= 0.0);
        prop_assert!(e.max_abs >= 0.0);
    }

    /// Precision rounders are idempotent and monotone-preserving.
    #[test]
    fn rounders_idempotent(x in -1e6f32..1e6) {
        prop_assert_eq!(bf16_round(bf16_round(x)), bf16_round(x));
        prop_assert_eq!(fp16_round(fp16_round(x)), fp16_round(x));
    }

    /// INT8 quantize/dequantize error stays within half a step.
    #[test]
    fn int8_error_within_half_step(
        xs in prop::collection::vec(-100.0f32..100.0, 1..64),
    ) {
        let q = Int8Block::quantize(&xs);
        let back = q.dequantize();
        let max_abs = xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let step = max_abs / 127.0;
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!((a - b).abs() <= step / 2.0 + 1e-6);
        }
    }

    /// The batched engine is bit-identical to the scalar encode→lookup→
    /// accumulate path for random shapes — including ragged `K` (`v ∤ K`),
    /// every table precision, every similarity precision, ragged output
    /// tiles, and multiple workers.
    #[test]
    fn engine_bit_identical_to_scalar_path(
        seed in 0u64..400,
        m in 1usize..33,
        v in 2usize..6,
        n_sub in 1usize..5,
        ragged in 0usize..4,
        n in 1usize..96,
        c_pow in 1u32..5,
        tile_sel in 0usize..5,
        workers in 1usize..5,
        quant_sel in 0usize..3,
        prec_sel in 0usize..3,
        metric_sel in 0usize..3,
    ) {
        // K = n_sub·v minus a ragged remainder keeps K ≥ 1 and exercises
        // both the divisible and the padded-tail cases.
        prop_assume!(ragged < v);
        let k = n_sub * v - ragged.min(n_sub * v - 1);
        // Include the default width (64) so the register-blocked fast path
        // and its hand-off to the generic ragged tail are sampled.
        let tile_n = [3, 7, 16, 33, lutdla_vq::DEFAULT_TILE_N][tile_sel];
        let quant = [LutQuant::F32, LutQuant::F16, LutQuant::Int8][quant_sel];
        let precision =
            [FloatPrecision::Fp32, FloatPrecision::Bf16, FloatPrecision::Fp16][prec_sel];
        let metric = Distance::ALL[metric_sel];

        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&a, v, 2usize.pow(c_pow), metric, &mut rng);
        let lut = LutTable::build(&pq, &b, quant);

        let reference = approx_matmul_with_precision(&a, &pq, &lut, precision);
        let mut engine = LutEngine::with_opts(
            pq,
            &lut,
            EngineOptions { tile_n, workers, precision },
        );
        let got = engine.run_batch(&a);
        prop_assert!(
            got.allclose(&reference, 0.0),
            "engine diverged: m={m} k={k} n={n} v={v} tile_n={tile_n} \
             workers={workers} quant={quant:?} precision={precision:?} {metric}"
        );
    }

    /// The code-driven engine entry point matches the scalar
    /// lookup/accumulate for valid codes, and rejects out-of-range codes
    /// with a structured error instead of panicking.
    #[test]
    fn engine_codes_path_matches_and_rejects_malformed(
        seed in 0u64..300,
        m in 1usize..17,
        v in 2usize..5,
        n in 1usize..16,
        bad_row in 0usize..17,
        bad_sub in 0usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = v * 2 + 1; // always ragged
        let c = 8usize;
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&a, v, c, Distance::L2, &mut rng);
        let lut = LutTable::build(&pq, &b, LutQuant::F32);
        let n_sub = pq.num_subspaces();
        let codes = pq.encode(&a);

        let reference = approx_matmul_from_codes(&codes, m, &pq, &lut);
        let mut engine = LutEngine::new(pq, &lut).with_workers(2);
        let got = engine.run_from_codes(&codes, m).expect("valid codes");
        prop_assert!(got.allclose(&reference, 0.0));

        // Corrupt one entry: the engine must refuse the whole batch.
        let mut bad = codes.clone();
        let pos = (bad_row % m) * n_sub + (bad_sub % n_sub);
        bad[pos] = c as u16;
        let err = engine.run_from_codes(&bad, m);
        prop_assert!(
            matches!(err, Err(EngineError::CodeOutOfRange { .. })),
            "expected CodeOutOfRange, got {err:?}"
        );

        // A truncated buffer is a shape error, not a panic.
        let err = engine.run_from_codes(&codes[..codes.len() - 1], m);
        prop_assert!(matches!(err, Err(EngineError::CodeBufferShape { .. })));
    }

    /// A micro-batcher is bit-identical to a direct `run_batch` for every
    /// `LutQuant × FloatPrecision` combo, whatever the window or the block
    /// mix of the request stream: how blocks coalesce is purely a
    /// throughput decision.
    #[test]
    fn block_serving_bit_identical_to_run_batch(
        seed in 0u64..200,
        m in 1usize..25,
        window_pow in 0u32..7,
        block in 1usize..6,
        quant_sel in 0usize..3,
        prec_sel in 0usize..3,
    ) {
        let quant = [LutQuant::F32, LutQuant::F16, LutQuant::Int8][quant_sel];
        let precision =
            [FloatPrecision::Fp32, FloatPrecision::Bf16, FloatPrecision::Fp16][prec_sel];
        let (k, n, v, c) = (10usize, 9usize, 4usize, 8usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&a, v, c, Distance::L2, &mut rng);
        let table = LutTable::build(&pq, &b, quant);
        let mut engine = LutEngine::new(pq, &table).with_precision(precision);
        let reference = engine.run_batch(&a);

        let batcher =
            MicroBatcher::new(share(engine), BatchOptions::immediate(2usize.pow(window_pow)));
        // Mixed stream: blocks of `block` rows with a ragged tail.
        let mut handles = Vec::new();
        let mut row0 = 0;
        while row0 < m {
            let rows = block.min(m - row0);
            handles.push((
                row0,
                rows,
                batcher
                    .submit_rows(&a.data()[row0 * k..(row0 + rows) * k])
                    .expect("valid block"),
            ));
            row0 += rows;
        }
        for (row0, rows, handle) in handles {
            let out = handle.wait().expect("batcher alive");
            prop_assert_eq!(
                out.as_slice(),
                &reference.data()[row0 * n..(row0 + rows) * n],
                "rows {}..{} diverged under block serving ({:?}+{:?})",
                row0, row0 + rows, quant, precision
            );
        }
    }

    /// Packing codes at the minimal width and unpacking them is the
    /// identity, for every centroid count `c ∈ 2..=256` (4- and 8-bit
    /// packs), the 16-bit fallback, ragged subspace counts that leave a
    /// partial final byte, and both per-element (`code`) and bulk
    /// (`unpack`) readback.
    #[test]
    fn packed_codes_roundtrip(
        m in 1usize..24,
        n_sub in 1usize..10,
        c in 2usize..257,
        seed in 0u64..1000,
        w16_sel in 0usize..2,
    ) {
        let width = if w16_sel == 1 {
            CodeWidth::W16
        } else {
            CodeWidth::for_centroids(c)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let codes: Vec<u16> = (0..m * n_sub)
            .map(|_| rng.gen_range(0..c.min(width.capacity())) as u16)
            .collect();
        let packed = PackedCodes::pack(&codes, m, n_sub, width);
        prop_assert_eq!(packed.rows(), m);
        prop_assert_eq!(packed.n_sub(), n_sub);
        prop_assert_eq!(packed.size_bytes(), packed.expected_bytes());
        prop_assert_eq!(packed.row_stride() % lutdla_vq::ROW_BLOCK_ALIGN, 0);
        prop_assert_eq!(&packed.unpack(), &codes);
        for r in 0..m {
            for s in 0..n_sub {
                prop_assert_eq!(packed.code(r, s), codes[r * n_sub + s]);
            }
        }
    }

    /// `run_from_packed` is bit-identical to `run_from_codes` on the same
    /// code stream for random shapes, every packable centroid count, and
    /// ragged `K`/output tiles — the packed representation is a pure
    /// storage change, never a numeric one.
    #[test]
    fn packed_execution_matches_u16_codes(
        seed in 0u64..300,
        m in 1usize..17,
        v in 2usize..5,
        n in 1usize..24,
        c_pow in 1u32..7,
        quant_sel in 0usize..3,
        prec_sel in 0usize..3,
    ) {
        let quant = [LutQuant::F32, LutQuant::F16, LutQuant::Int8][quant_sel];
        let precision =
            [FloatPrecision::Fp32, FloatPrecision::Bf16, FloatPrecision::Fp16][prec_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let k = v * 2 + 1; // always ragged
        let c = 2usize.pow(c_pow);
        let a = Tensor::rand_uniform(&mut rng, &[m.max(2 * c), k], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&a, v, c, Distance::L2, &mut rng);
        let lut = LutTable::build(&pq, &b, quant);
        let x = Tensor::from_vec(a.data()[..m * k].to_vec(), &[m, k]);
        let codes = pq.encode(&x);

        let mut engine = LutEngine::new(pq, &lut).with_precision(precision);
        let reference = engine.run_from_codes(&codes, m).expect("valid codes");
        let packed = engine.encode_packed(&x);
        prop_assert_eq!(packed.unpack(), codes);
        prop_assert_eq!(packed.width(), CodeWidth::for_centroids(c));
        let got = engine.run_from_packed(&packed).expect("valid packed codes");
        prop_assert!(
            got.allclose(&reference, 0.0),
            "packed path diverged: m={m} k={k} n={n} c={c} {quant:?}+{precision:?}"
        );
    }

    /// Equivalent bits match the definitional formula for all (v, c).
    #[test]
    fn equivalent_bits_formula(v in 1usize..10, c_pow in 1u32..8, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = 2usize.pow(c_pow);
        let data = Tensor::rand_uniform(&mut rng, &[c.max(8), v * 2], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&data, v, c, Distance::L2, &mut rng);
        prop_assert!((pq.equivalent_bits() - c_pow as f64 / v as f64).abs() < 1e-12);
    }
}

//! LUT-GEMM deploy-path throughput benchmark: the scalar reference
//! (`approx_matmul_with_precision`) versus the batched [`LutEngine`] (at
//! one and several worker threads) versus the micro-batched serving front
//! door ([`MicroBatcher`], single-row submits coalesced back into batches),
//! across representative `M×K×N×c×v` points — plus a **whole-model**
//! serving measurement (`model_serve`: a `ModelSession` running submitted
//! images through every layer of a converted ResNet proxy), so cross-layer
//! amortization shows up next to the per-layer numbers. Emits
//! `BENCH_lutgemm.json` so every CI run leaves a perf data point on the
//! record.
//!
//! Usage:
//!
//! ```text
//! bench_lutgemm [--smoke] [--out PATH] [--check PATH]
//! ```
//!
//! `--smoke` runs one tiny point with a single timing pass (the CI mode);
//! the default runs the full grid, including the acceptance point
//! `M=256, K=1024, N=1024, v=4, c=16`. `--check PATH` runs no benchmark:
//! it validates an existing artifact against the expected schema (all
//! fields present, every `*_rows_per_s` strictly positive, `model_serve`
//! and `encode_once` blocks in place) and exits non-zero
//! on any problem — the CI gate that keeps the artifact from silently
//! rotting.
//!
//! The `encode_once` block measures the encode-once execution paths:
//! packed (4-bit) versus `u16` code streaming on one table, a four-table
//! sweep with one shared encode (`run_many_from_packed`) versus the walk
//! repeated per table, and the cross-request encode memo's cold-vs-warm
//! hit path.

use std::time::{Duration, Instant};

use lutdla_lutboost::{
    lutify_convnet, undeploy_units, CentroidInit, ConvertPolicy, DeployConfig, LutConfig,
    LutRuntime,
};
use lutdla_models::trainable::resnet20_mini;
use lutdla_nn::{Graph, ImageModel, ParamSet};
use lutdla_tensor::Tensor;
use lutdla_vq::{
    approx_matmul_with_precision, default_workers, share, BatchOptions, Distance, EncodeMemo,
    EngineOptions, FloatPrecision, LutEngine, LutQuant, LutTable, MicroBatcher, Pending,
    ProductQuantizer, TileTables,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Submitter threads pushing single rows through the micro-batcher.
const SERVE_SUBMITTERS: usize = 2;

#[derive(Clone, Copy)]
struct Point {
    m: usize,
    k: usize,
    n: usize,
    v: usize,
    c: usize,
}

struct Measurement {
    point: Point,
    scalar_rows_per_s: f64,
    engine1_rows_per_s: f64,
    engine_mt_rows_per_s: f64,
    serve_rows_per_s: f64,
    speedup_1t: f64,
    speedup_mt: f64,
    /// Micro-batched single-row serving vs handing the engine the whole
    /// batch directly: the coalescing overhead tax (1.0 = free).
    serve_vs_batch: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--check needs a path to a BENCH_lutgemm.json artifact");
            std::process::exit(2);
        });
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        match lutdla_bench::artifact::check_artifact_text(&text) {
            Ok(()) => {
                println!("bench-check OK: {path}");
                return;
            }
            Err(problems) => {
                eprintln!("bench-check FAILED for {path}:\n{problems}");
                std::process::exit(1);
            }
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_lutgemm.json".to_string());

    let (points, iters): (Vec<Point>, usize) = if smoke {
        (
            vec![Point {
                m: 48,
                k: 64,
                n: 64,
                v: 4,
                c: 16,
            }],
            2,
        )
    } else {
        (
            vec![
                // The acceptance point (ISSUE 2): ≥3× single-thread.
                Point {
                    m: 256,
                    k: 1024,
                    n: 1024,
                    v: 4,
                    c: 16,
                },
                Point {
                    m: 512,
                    k: 512,
                    n: 512,
                    v: 4,
                    c: 16,
                },
                Point {
                    m: 256,
                    k: 768,
                    n: 384,
                    v: 8,
                    c: 64,
                },
            ],
            5,
        )
    };

    let mt_workers = default_workers().clamp(2, 4);
    let mut results = Vec::new();
    for p in points {
        results.push(run_point(p, iters, mt_workers));
    }
    let encode_once = run_encode_once(smoke, iters);
    let model = run_model_serve(smoke, iters);

    let json = to_json(&results, &encode_once, &model, smoke, mt_workers);
    std::fs::write(&out_path, &json).expect("write BENCH_lutgemm.json");
    println!("wrote {out_path}");
}

struct ModelMeasurement {
    model: &'static str,
    images: usize,
    lut_stages: usize,
    dense_stages: usize,
    serve_rows_per_s: f64,
}

/// Whole-model serving: images submitted through a `ModelSession` (cached
/// engines called directly for converted units, the dense path for the
/// rest), against a LUTBoost-converted ResNet-20 proxy.
fn run_model_serve(smoke: bool, iters: usize) -> ModelMeasurement {
    let images = if smoke { 16 } else { 96 };
    let flush_every = 32;
    println!("model serve: resnet20_mini, {images} images");
    let mut rng = StdRng::seed_from_u64(0x0de1);
    let mut ps = ParamSet::new();
    let mut net = resnet20_mini(&mut ps, 10);
    let batch = Tensor::randn(&mut rng, &[images, 3, 16, 16], 1.0);
    let _ = lutify_convnet(
        &mut net,
        &mut ps,
        LutConfig::default(),
        CentroidInit::Kmeans,
        ConvertPolicy::default(),
        batch.clone(),
        &mut rng,
    );
    let per = 3 * 16 * 16;
    let image =
        |i: usize| Tensor::from_vec(batch.data()[i * per..(i + 1) * per].to_vec(), &[3, 16, 16]);

    let mut rt = LutRuntime::new(DeployConfig::bf16_int8());
    // Bit-identity guard: the session must reproduce the plain deploy +
    // batched eval forward exactly.
    rt.deploy(net.dense_units(), &ps);
    let mut g = Graph::new(false);
    let node = ImageModel::logits(&net, &mut g, &ps, batch.clone());
    let reference = g.value(node).clone();
    undeploy_units(net.dense_units());
    let session = rt.serve(&net, &ps).build_model();
    let served = session.run((0..images).map(image)).expect("valid images");
    assert!(
        served.allclose(&reference, 0.0),
        "whole-model session is not bit-identical to the deployed eval path"
    );

    let serve_s = best_of(iters, || {
        let mut handles = Vec::with_capacity(flush_every);
        for i in 0..images {
            handles.push(session.submit(image(i)).expect("valid image"));
            if handles.len() == flush_every || i + 1 == images {
                session.flush();
                for h in handles.drain(..) {
                    std::hint::black_box(h.wait().expect("session alive"));
                }
            }
        }
    });
    let meas = ModelMeasurement {
        model: "resnet20_mini",
        images,
        lut_stages: session.lut_stages(),
        dense_stages: session.plan().len() - session.lut_stages(),
        serve_rows_per_s: images as f64 / serve_s,
    };
    println!(
        "  {} LUT stages + {} dense | whole-model serve {:>8.0} images/s",
        meas.lut_stages, meas.dense_stages, meas.serve_rows_per_s,
    );
    meas
}

struct EncodeOnceMeasurement {
    m: usize,
    k: usize,
    n: usize,
    v: usize,
    c: usize,
    /// Bits per code in the packed stream (4 here, since c = 16).
    code_width_bits: usize,
    /// Single-table lookup throughput streaming pre-encoded `u16` codes.
    u16_rows_per_s: f64,
    /// Single-table lookup throughput streaming the packed code blocks.
    packed_rows_per_s: f64,
    /// `packed / u16` — the bandwidth win of the minimal-width stream.
    packed_speedup: f64,
    /// Tables sharing the codebook in the many-table measurement.
    tables: usize,
    /// Sweep throughput paying the similarity walk once **per table**.
    repeated_rows_per_s: f64,
    /// Sweep throughput paying the walk once, replaying packed codes
    /// against every table.
    many_table_rows_per_s: f64,
    /// `many_table / repeated` — the encode-once win over the sweep.
    many_table_speedup: f64,
    /// Rows in the memo measurement's batch.
    memo_rows: usize,
    /// `run_batch_memo` throughput against an empty memo (walk + insert).
    memo_cold_rows_per_s: f64,
    /// `run_batch_memo` throughput once every row hits (no walk at all).
    memo_warm_rows_per_s: f64,
    /// `warm / cold` — what a duplicate-heavy stream gains from the memo.
    memo_warm_speedup: f64,
}

/// The encode-once measurements: packed-vs-`u16` code streaming on one
/// table, a 4-table sweep with one shared encode (the multi-head /
/// quant-sweep shape), and the cross-request memo's cold-vs-warm hit path.
/// Every path is checked bit-identical to `run_batch` before it is timed.
fn run_encode_once(smoke: bool, iters: usize) -> EncodeOnceMeasurement {
    const TABLES: usize = 4;
    let (m, k, n) = if smoke {
        (256, 64, 64)
    } else {
        (4096, 512, 64)
    };
    let (v, c) = (8, 16);
    println!("encode-once M={m} K={k} N={n}x{TABLES} v={v} c={c}");
    let mut rng = StdRng::seed_from_u64(0xe0ce);
    let a = Tensor::rand_uniform(&mut rng, &[m, k], -1.0, 1.0);
    let pq = ProductQuantizer::fit(&a.rows(0, 256.min(m)), v, c, Distance::L2, &mut rng);
    // Four tables over one codebook — the many-table shape (think QKV+O
    // projections, or a LutQuant sweep): codes depend on the input and the
    // codebook only, so one stream serves all four.
    let luts: Vec<LutTable> = (0..TABLES)
        .map(|_| {
            let b = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
            LutTable::build(&pq, &b, LutQuant::F32)
        })
        .collect();
    let mut engines: Vec<LutEngine> = luts
        .iter()
        .map(|t| {
            LutEngine::with_opts(
                pq.clone(),
                t,
                EngineOptions {
                    workers: 1,
                    ..EngineOptions::default()
                },
            )
        })
        .collect();

    // Reference outputs (encode + run per table) for the identity checks.
    let solo: Vec<Tensor> = engines.iter_mut().map(|e| e.run_batch(&a)).collect();
    let repeated_s = best_of(iters, || {
        for e in engines.iter_mut() {
            std::hint::black_box(e.run_batch(&a));
        }
    });

    let (first, rest) = engines.split_at_mut(1);
    let first = &mut first[0];

    // Single-table lookup: pre-encoded u16 codes vs the packed stream.
    let codes = pq.encode(&a);
    let packed = first.encode_packed(&a);
    assert_eq!(
        packed.unpack(),
        codes,
        "packed stream disagrees with encode"
    );
    let from_u16 = first.run_from_codes(&codes, m).expect("codes fit");
    let from_packed = first.run_from_packed(&packed).expect("stream fits");
    assert!(
        from_u16.allclose(&solo[0], 0.0) && from_packed.allclose(&solo[0], 0.0),
        "code-stream paths are not bit-identical to run_batch"
    );
    // These two regions are sub-millisecond at the full-mode point, so a
    // handful of samples is hostage to scheduler noise — take the best of
    // many more to recover the clean-run minimum.
    let lookup_iters = iters * 8;
    let u16_s = best_of(lookup_iters, || {
        std::hint::black_box(first.run_from_codes(&codes, m).expect("codes fit"));
    });
    let packed_s = best_of(lookup_iters, || {
        std::hint::black_box(first.run_from_packed(&packed).expect("stream fits"));
    });

    // Many-table sweep: encode once, replay against every table.
    let shared_tables: Vec<&TileTables> = rest.iter().map(|e| e.tables()).collect();
    let tail = first
        .run_many_from_packed(&packed, &shared_tables)
        .expect("tables share the codebook");
    for (s, t) in solo[1..].iter().zip(&tail) {
        assert!(
            t.allclose(s, 0.0),
            "run_many_from_packed diverged from the solo engines"
        );
    }
    let many_s = best_of(iters, || {
        let p = first.encode_packed(&a);
        std::hint::black_box(first.run_from_packed(&p).expect("stream fits"));
        std::hint::black_box(
            first
                .run_many_from_packed(&p, &shared_tables)
                .expect("tables share the codebook"),
        );
    });

    // Cross-request memo: cold pass (walk + insert) vs warm pass (every
    // row verified-hit, no walk). Capacity 8× the batch so even a skewed
    // shard distribution cannot evict.
    let memo_rows = if smoke { 128 } else { 1024 };
    let xm = a.rows(0, memo_rows);
    let memo_ref = first.run_batch(&xm);
    // Sub-millisecond warm passes get the same extra-sample treatment as
    // the lookup timings above.
    let cold_s = best_of(lookup_iters, || {
        let memo = EncodeMemo::new(8 * memo_rows);
        std::hint::black_box(first.run_batch_memo(&xm, &memo));
    });
    let memo = EncodeMemo::new(8 * memo_rows);
    let warmed = first.run_batch_memo(&xm, &memo);
    assert!(
        warmed.allclose(&memo_ref, 0.0),
        "memo path is not bit-identical to run_batch"
    );
    let warm_s = best_of(lookup_iters, || {
        std::hint::black_box(first.run_batch_memo(&xm, &memo));
    });
    assert!(memo.stats().hits > 0, "warm passes never hit the memo");

    let meas = EncodeOnceMeasurement {
        m,
        k,
        n,
        v,
        c,
        code_width_bits: first.code_width().bits(),
        u16_rows_per_s: m as f64 / u16_s,
        packed_rows_per_s: m as f64 / packed_s,
        packed_speedup: u16_s / packed_s,
        tables: TABLES,
        repeated_rows_per_s: m as f64 / repeated_s,
        many_table_rows_per_s: m as f64 / many_s,
        many_table_speedup: repeated_s / many_s,
        memo_rows,
        memo_cold_rows_per_s: memo_rows as f64 / cold_s,
        memo_warm_rows_per_s: memo_rows as f64 / warm_s,
        memo_warm_speedup: cold_s / warm_s,
    };
    println!(
        "  u16 {:>10.0} rows/s | packed {:>10.0} rows/s ({:.2}x) | sweep x{TABLES}: repeated {:>8.0} rows/s -> shared {:>8.0} rows/s ({:.2}x) | memo cold {:>8.0} -> warm {:>8.0} rows/s ({:.2}x)",
        meas.u16_rows_per_s,
        meas.packed_rows_per_s,
        meas.packed_speedup,
        meas.repeated_rows_per_s,
        meas.many_table_rows_per_s,
        meas.many_table_speedup,
        meas.memo_cold_rows_per_s,
        meas.memo_warm_rows_per_s,
        meas.memo_warm_speedup,
    );
    meas
}

fn run_point(p: Point, iters: usize, mt_workers: usize) -> Measurement {
    let Point { m, k, n, v, c } = p;
    println!("point M={m} K={k} N={n} v={v} c={c}");
    let mut rng = StdRng::seed_from_u64(0x10c0 + (m + k + n) as u64);
    let a = Tensor::rand_uniform(&mut rng, &[m, k], -1.0, 1.0);
    let b = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
    let pq = ProductQuantizer::fit(&a, v, c, Distance::L2, &mut rng);
    let lut = LutTable::build(&pq, &b, LutQuant::F32);

    let scalar_out = approx_matmul_with_precision(&a, &pq, &lut, FloatPrecision::Fp32);
    let scalar_s = best_of(iters, || {
        std::hint::black_box(approx_matmul_with_precision(
            &a,
            &pq,
            &lut,
            FloatPrecision::Fp32,
        ));
    });

    let mut engine1 = LutEngine::with_opts(
        pq.clone(),
        &lut,
        EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        },
    );
    assert!(
        engine1.run_batch(&a).allclose(&scalar_out, 0.0),
        "engine output is not bit-identical to the scalar path"
    );
    let engine1_s = best_of(iters, || {
        std::hint::black_box(engine1.run_batch(&a));
    });

    let mut engine_mt = LutEngine::with_opts(
        pq,
        &lut,
        EngineOptions {
            workers: mt_workers,
            ..EngineOptions::default()
        },
    );
    assert!(engine_mt.run_batch(&a).allclose(&scalar_out, 0.0));
    let engine_mt_s = best_of(iters, || {
        std::hint::black_box(engine_mt.run_batch(&a));
    });

    // Serving path: the same multithreaded engine behind a MicroBatcher,
    // fed single rows from SERVE_SUBMITTERS concurrent submitter threads.
    let batcher = MicroBatcher::new(
        share(engine_mt),
        BatchOptions {
            max_batch: 64.min(m),
            max_delay: Duration::from_millis(1),
        },
    );
    // Coalesced single-row results must stay bit-identical to the batch.
    for i in 0..m.min(8) {
        let out = batcher
            .submit(&a.data()[i * k..(i + 1) * k])
            .expect("valid row")
            .wait()
            .expect("batcher alive");
        assert_eq!(
            out.as_slice(),
            &scalar_out.data()[i * n..(i + 1) * n],
            "serve path is not bit-identical to the scalar path"
        );
    }
    let serve_s = best_of(iters, || {
        std::thread::scope(|s| {
            for t in 0..SERVE_SUBMITTERS {
                let batcher = &batcher;
                let a = &a;
                s.spawn(move || {
                    let rows = (t * m / SERVE_SUBMITTERS)..((t + 1) * m / SERVE_SUBMITTERS);
                    let pending: Vec<Pending> = rows
                        .map(|i| {
                            batcher
                                .submit(&a.data()[i * k..(i + 1) * k])
                                .expect("valid row")
                        })
                        .collect();
                    for p in pending {
                        std::hint::black_box(p.wait().expect("batcher alive"));
                    }
                });
            }
        });
    });

    let meas = Measurement {
        point: p,
        scalar_rows_per_s: m as f64 / scalar_s,
        engine1_rows_per_s: m as f64 / engine1_s,
        engine_mt_rows_per_s: m as f64 / engine_mt_s,
        serve_rows_per_s: m as f64 / serve_s,
        speedup_1t: scalar_s / engine1_s,
        speedup_mt: scalar_s / engine_mt_s,
        serve_vs_batch: engine_mt_s / serve_s,
    };
    println!(
        "  scalar {:>10.0} rows/s | engine x1 {:>10.0} rows/s ({:.2}x) | engine x{} {:>10.0} rows/s ({:.2}x) | serve {:>10.0} rows/s ({:.2}x of batch)",
        meas.scalar_rows_per_s,
        meas.engine1_rows_per_s,
        meas.speedup_1t,
        mt_workers,
        meas.engine_mt_rows_per_s,
        meas.speedup_mt,
        meas.serve_rows_per_s,
        meas.serve_vs_batch,
    );
    meas
}

/// Best (minimum) wall time over `iters` runs, in seconds.
fn best_of(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn to_json(
    results: &[Measurement],
    encode_once: &EncodeOnceMeasurement,
    model: &ModelMeasurement,
    smoke: bool,
    mt_workers: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"lutgemm\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!("  \"mt_workers\": {mt_workers},\n"));
    s.push_str(&format!("  \"serve_submitters\": {SERVE_SUBMITTERS},\n"));
    s.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    s.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let Point { m, k, n, v, c } = r.point;
        // Keys are host-independent (the worker count behind "mt" is the
        // top-level "mt_workers" field) so tooling can diff artifacts
        // produced on differently-sized runners.
        s.push_str(&format!(
            "    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"v\": {v}, \"c\": {c}, \
             \"scalar_rows_per_s\": {:.1}, \"engine_1t_rows_per_s\": {:.1}, \
             \"engine_mt_rows_per_s\": {:.1}, \"serve_rows_per_s\": {:.1}, \
             \"speedup_1t\": {:.3}, \"speedup_mt\": {:.3}, \"serve_vs_batch\": {:.3}}}{}",
            r.scalar_rows_per_s,
            r.engine1_rows_per_s,
            r.engine_mt_rows_per_s,
            r.serve_rows_per_s,
            r.speedup_1t,
            r.speedup_mt,
            r.serve_vs_batch,
            if i + 1 == results.len() { "" } else { "," },
        ));
        s.push('\n');
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"encode_once\": {{\"m\": {}, \"k\": {}, \"n\": {}, \"v\": {}, \"c\": {}, \
         \"code_width_bits\": {}, \"u16_rows_per_s\": {:.1}, \"packed_rows_per_s\": {:.1}, \
         \"packed_speedup\": {:.3}, \"tables\": {}, \"repeated_rows_per_s\": {:.1}, \
         \"many_table_rows_per_s\": {:.1}, \"many_table_speedup\": {:.3}, \"memo_rows\": {}, \
         \"memo_cold_rows_per_s\": {:.1}, \"memo_warm_rows_per_s\": {:.1}, \
         \"memo_warm_speedup\": {:.3}}},\n",
        encode_once.m,
        encode_once.k,
        encode_once.n,
        encode_once.v,
        encode_once.c,
        encode_once.code_width_bits,
        encode_once.u16_rows_per_s,
        encode_once.packed_rows_per_s,
        encode_once.packed_speedup,
        encode_once.tables,
        encode_once.repeated_rows_per_s,
        encode_once.many_table_rows_per_s,
        encode_once.many_table_speedup,
        encode_once.memo_rows,
        encode_once.memo_cold_rows_per_s,
        encode_once.memo_warm_rows_per_s,
        encode_once.memo_warm_speedup,
    ));
    s.push_str(&format!(
        "  \"model_serve\": {{\"model\": \"{}\", \"images\": {}, \"lut_stages\": {}, \
         \"dense_stages\": {}, \"serve_rows_per_s\": {:.1}}}\n",
        model.model, model.images, model.lut_stages, model.dense_stages, model.serve_rows_per_s,
    ));
    s.push_str("}\n");
    s
}

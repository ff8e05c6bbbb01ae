//! Open-loop serving latency benchmark: a deterministic arrival process
//! (seeded Poisson by default, `--fixed` for evenly spaced) replayed
//! against whole-model [`ModelSession`]s across the scenario matrix
//! model (`convnet`/`transformer`) × load (`low`/`overload`), reporting p50/p95/p99 latency from *scheduled*
//! arrival to resolution, achieved vs offered rate, SLO-conformance, and
//! final per-stage counters. A second `gateway_*` scenario family drives
//! the multi-tenant [`ServeGateway`] (2 models × 3 SLO-class tenants each,
//! one persistent gateway across both loads) and additionally reports
//! admission-control outcomes and per-class latency percentiles. A third
//! `decode_*` family streams tokens through [`DecodeSession`]s (N
//! autoregressive streams over a causal transformer, one step per new
//! token) and reports per-token latency percentiles, decode throughput
//! against a full-re-eval baseline (`prefix_speedup`, both rates
//! service-only), and the rows the LUT stages served. A `decode_sweep`
//! block times the closed-loop per-token p50 at prefix positions 16, 64
//! and 256 on a 256-context causal transformer. Emits `BENCH_serve.json`
//! so every CI run leaves a serving-latency data point on the record.
//!
//! Usage:
//!
//! ```text
//! bench_serve [--smoke] [--fixed] [--seed N] [--out PATH] [--check PATH]
//! ```
//!
//! `--smoke` shrinks the per-scenario request count and decode stream
//! matrix (the CI mode) — every family, including a decode scenario per
//! load, still runs. `--check PATH` runs no benchmark: it validates an
//! existing artifact against the expected schema plus the sanity ordering
//! (p50 ≤ p95 ≤ p99, overload p99 > p50, low-load SLO conformance
//! ≥ 0.5), the gateway admission gates (`shed_ratio` in
//! `[0, 1]` and consistent with `shed / requests`, admitted + shed =
//! requests, every admitted request served, latency-class p99 ≤
//! best-effort p99 under overload), and the decode gates (per-token
//! percentiles monotone, `steps == streams * seq_len` accounting,
//! `stage_rows == steps * lut_stages`, `prefix_speedup` > 0 — and > 1 in
//! full mode — and a sweep whose `p50_ratio_256_16` is ≤ 3 in full
//! mode). Each failed field is printed with its path, any failing
//! scenario is echoed back as a compact JSON snippet, and the exit code
//! is non-zero on any problem.
//!
//! [`ModelSession`]: lutdla_lutboost::ModelSession
//! [`ServeGateway`]: lutdla_lutboost::ServeGateway
//! [`DecodeSession`]: lutdla_lutboost::DecodeSession

use lutdla_bench::serve_bench::{run, to_json, ServeBenchConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--check needs a path to a BENCH_serve.json artifact");
            std::process::exit(2);
        });
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        match lutdla_bench::artifact::check_serve_artifact_text(&text) {
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
    let poisson = !args.iter().any(|a| a == "--fixed");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("--seed needs an unsigned integer, got {s:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(0x5e7e);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let report = run(ServeBenchConfig {
        smoke,
        poisson,
        seed,
    });
    let json = to_json(&report);
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");
}

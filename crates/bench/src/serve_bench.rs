//! Open-loop serving benchmark behind the `bench_serve` binary.
//!
//! Sweeps a scenario matrix — model (`convnet`/`transformer`) × offered
//! load (`low`/`overload`) — against builder-constructed [`ModelSession`]s
//! ([`LutRuntime::serve`]). Each scenario
//! replays a deterministic arrival schedule ([`ArrivalProcess`]) and
//! submits requests at their *scheduled* instants regardless of server
//! progress, so queueing delay lands in the measured latency rather than
//! silently throttling the offered rate (no coordinated omission). Per
//! request latency is `resolved_at − scheduled_arrival`, taken from the
//! [`ServeTiming`] stamps the serving layer records once per coalesced
//! flush; per-stage service time comes from
//! [`StageStats::service_nanos`].
//!
//! [`ServeTiming`]: lutdla_vq::ServeTiming
//! [`StageStats::service_nanos`]: lutdla_vq::StageStats::service_nanos
//!
//! Rates are calibrated per model: a closed-loop batch-1 pass measures the
//! base service latency, then `low` offers a quarter of that service rate
//! (the server keeps up; SLO conformance should be high) and `overload`
//! offers 8× (the queue grows without bound; the latency ramp makes
//! p99 ≫ p50). The SLO is `max(3 × base latency, 1 ms)`.
//!
//! A second family of scenarios (`gateway_*`) drives the multi-tenant
//! [`ServeGateway`]: two registered models × three SLO-class tenants each,
//! behind one persistent gateway swept across the same low/overload
//! levels. Those scenarios report admission-control outcomes (admitted /
//! shed / `shed_ratio`) and per-class latency percentiles alongside the
//! interval-delta stage counters ([`StageStats::delta`]), the runtime's
//! engine-cache totals, and the per-stage encode-memo counters — the
//! latter exercised by a duplicate-heavy `gateway_memo_dup_low` scenario
//! that replays one image against cold memos.
//!
//! A third family (`decode_*`) measures token-streaming decode sessions
//! ([`LutRuntime::decode_session`]): several sequential streams each feed
//! one token per step at a paced arrival schedule, reporting per-token
//! latency percentiles, three step rates on one basis (wall-clock,
//! service-only, and the closed-loop full-re-eval baseline — every step
//! re-running the whole prefix through a fresh [`ModelSession`] submit),
//! and the rows the LUT stages served
//! ([`DecodeSession::stage_stats`]). A `decode_sweep` block times the
//! closed-loop per-token p50 at prefix positions 16, 64 and 256 on a
//! 256-context causal transformer: incremental decode keeps that curve
//! near flat.
//!
//! [`StageStats::delta`]: lutdla_vq::StageStats::delta
//! [`DecodeSession::stage_stats`]: lutdla_lutboost::DecodeSession::stage_stats

use std::time::{Duration, Instant};

use crate::arrival::ArrivalProcess;
use crate::histogram::LatencyHistogram;
use lutdla_lutboost::{
    lutify_convnet, lutify_transformer, CentroidInit, ClassPolicy, ConvertPolicy, GatewayOptions,
    LutConfig, LutRuntime, ModelSession, RuntimeOptions, ServeGateway, SloClass, TenantId,
};
use lutdla_models::trainable::{
    distilbert_mini, gpt_mini, resnet20_mini, ConvNet, ServableModel, TransformerClassifier,
    TransformerConfig,
};
use lutdla_nn::ParamSet;
use lutdla_tensor::Tensor;
use lutdla_vq::{Pending, ServeError, StageStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Submitted-but-unflushed backlog that forces a flush under overload, so
/// the session's front door coalesces real batches.
const BURST: usize = 8;

/// The gateway drive's backlog threshold. Larger than [`BURST`] on
/// purpose: with six tenants round-robined, a 24-submit window lands ~4
/// requests on each 2-deep best-effort queue between pump rounds, so
/// overload produces real admission sheds — and admitted best-effort
/// requests (round quota 1) demonstrably wait extra rounds behind the
/// latency class.
const GATEWAY_BURST: usize = 24;

/// Per-stage encode-memo capacity (rows) for the gateway runtime. 8× the
/// distinct-row population a stage sees (≤ 8 images × 256 patches), so
/// even a fully skewed shard distribution cannot evict and the
/// duplicate-heavy scenario's hit counters are deterministic.
const GATEWAY_MEMO_ROWS: usize = 16384;

/// Harness configuration, straight from the CLI.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    /// CI mode: fewer requests per scenario.
    pub smoke: bool,
    /// `true` = seeded Poisson arrivals, `false` = fixed-rate.
    pub poisson: bool,
    /// Base seed; each scenario offsets it so traces decorrelate.
    pub seed: u64,
}

impl ServeBenchConfig {
    fn requests(&self) -> usize {
        if self.smoke {
            40
        } else {
            256
        }
    }

    fn arrival(&self, scenario_idx: u64) -> ArrivalProcess {
        if self.poisson {
            ArrivalProcess::Poisson {
                seed: self.seed.wrapping_add(scenario_idx),
            }
        } else {
            ArrivalProcess::Fixed
        }
    }
}

/// Offered-load level, calibrated against the measured service rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// 0.25× the batch-1 service rate: the server keeps up.
    Low,
    /// 8× the batch-1 service rate: the queue grows without bound.
    Overload,
}

impl Load {
    /// Artifact label.
    pub fn name(&self) -> &'static str {
        match self {
            Load::Low => "low",
            Load::Overload => "overload",
        }
    }

    fn rate(&self, service_rps: f64) -> f64 {
        match self {
            Load::Low => service_rps * 0.25,
            Load::Overload => service_rps * 8.0,
        }
    }
}

/// Final counters of one pipeline stage, flattened for the artifact.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name from the session plan.
    pub stage: String,
    /// Coalesced batches run.
    pub batches_run: usize,
    /// Rows served.
    pub rows_served: usize,
    /// Widest engine call observed, in rows.
    pub queued_high_water: usize,
    /// Mean engine service time per call, in microseconds.
    pub mean_service_us: f64,
}

/// One cell of the scenario matrix, measured.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// `{model}_{load}`.
    pub name: String,
    /// `convnet` or `transformer`.
    pub model: &'static str,
    /// `low` or `overload`.
    pub load: &'static str,
    /// `poisson` or `fixed`.
    pub arrival: &'static str,
    /// Requests submitted (all are resolved).
    pub requests: usize,
    /// Scheduled arrival rate, requests/s.
    pub offered_rps: f64,
    /// Resolved requests over total wall time, requests/s.
    pub achieved_rps: f64,
    /// Latency percentiles from scheduled arrival to resolution, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Exact observed maximum, ms.
    pub max_ms: f64,
    /// Exact mean, ms.
    pub mean_ms: f64,
    /// The latency SLO this scenario was judged against, ms.
    pub slo_ms: f64,
    /// Fraction of requests with latency ≤ SLO, in `[0, 1]`.
    pub slo_conformance: f64,
    /// Final per-stage counters.
    pub stages: Vec<StageRow>,
}

/// Per-class latency/admission summary inside a gateway scenario.
#[derive(Debug, Clone)]
pub struct GatewayClassRow {
    /// `latency`, `throughput`, or `best_effort`.
    pub class: &'static str,
    /// Requests offered to tenants of this class.
    pub requests: usize,
    /// Of those, admitted past the bounded queues.
    pub admitted: usize,
    /// Of those, turned away at admission.
    pub shed: usize,
    /// Median latency of the admitted requests, ms (0 if none admitted).
    pub p50_ms: f64,
    /// 99th percentile, ms (0 if none admitted).
    pub p99_ms: f64,
}

/// One measured `gateway_*` scenario: mixed SLO classes over two models
/// behind one [`ServeGateway`], at one offered-load level.
#[derive(Debug, Clone)]
pub struct GatewayScenarioResult {
    /// `gateway_mixed_{load}`.
    pub name: String,
    /// `low` or `overload`.
    pub load: &'static str,
    /// `poisson` or `fixed`.
    pub arrival: &'static str,
    /// Registered models behind the gateway.
    pub models: usize,
    /// Registered tenants.
    pub tenants: usize,
    /// Requests offered across all tenants.
    pub requests: usize,
    /// Requests admitted (all of these are served: the scenario drains).
    pub admitted: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// `shed / requests`, in `[0, 1]`.
    pub shed_ratio: f64,
    /// Whole-model coalesced batches this scenario ran (interval delta,
    /// not gateway-lifetime totals — the gateway persists across loads).
    pub batches_run: u64,
    /// Requests served this scenario (interval delta).
    pub rows_served: u64,
    /// Engine-cache hits of the backing runtime ([`LutRuntime::stats`]),
    /// lifetime totals: the gateway registers two models that share a
    /// calibration session's engines, so hits + misses must be nonzero.
    pub engine_cache_hits: u64,
    /// Engine-cache misses (engines built) of the backing runtime.
    pub engine_cache_misses: u64,
    /// Engine-cache evictions of the backing runtime.
    pub engine_cache_evictions: u64,
    /// Encode-memo hits this scenario (interval delta summed over every
    /// stage of every registered model).
    pub memo_hits: usize,
    /// Encode-memo misses this scenario (interval delta, summed).
    pub memo_misses: usize,
    /// Encode-memo evictions this scenario (interval delta, summed).
    pub memo_evictions: usize,
    /// The latency SLO the per-class percentiles are judged against, ms.
    pub slo_ms: f64,
    /// Per-class admission/latency summaries, drain-priority order.
    pub classes: Vec<GatewayClassRow>,
    /// Per-stage counters for this scenario's interval
    /// ([`StageStats::delta`] against the scenario-start snapshot), stage
    /// names prefixed `model/stage`.
    pub stages: Vec<StageRow>,
}

/// One measured `decode_*` scenario: sequential token-streaming decode
/// sessions over a causal transformer, at one offered step-rate level.
#[derive(Debug, Clone)]
pub struct DecodeScenarioResult {
    /// `decode_{load}`.
    pub name: String,
    /// Always `gpt` (the causal-transformer proxy).
    pub model: &'static str,
    /// `low` or `overload`.
    pub load: &'static str,
    /// `poisson` or `fixed`.
    pub arrival: &'static str,
    /// Sequential decode streams (one `DecodeSession` each).
    pub streams: usize,
    /// Tokens decoded per stream.
    pub seq_len: usize,
    /// Steps served — must equal `streams * seq_len` (the artifact
    /// checker gates this accounting).
    pub steps: usize,
    /// Scheduled arrival rate, steps/s.
    pub offered_sps: f64,
    /// Per-token latency from scheduled arrival to resolution, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Exact observed maximum, ms.
    pub max_ms: f64,
    /// Exact mean, ms.
    pub mean_ms: f64,
    /// Steps served over total wall time (pacing included), steps/s.
    pub steps_per_s: f64,
    /// Decode service rate: steps over the summed in-call step times
    /// (pacing excluded), steps/s — the numerator of `prefix_speedup`.
    pub service_steps_per_s: f64,
    /// Closed-loop baseline: every step re-running its whole prefix
    /// through a fresh `ModelSession` submit, steps/s — service-only, like
    /// `service_steps_per_s`.
    pub full_reeval_steps_per_s: f64,
    /// `service_steps_per_s / full_reeval_steps_per_s`. > 1 means the
    /// incremental step beat re-running the whole prefix.
    pub prefix_speedup: f64,
    /// LUT stages of the decode model's plan.
    pub lut_stages: usize,
    /// Rows the LUT stages served, summed over every stage of every
    /// stream ([`StageStats::rows_served`]). Incremental decode feeds each
    /// stage one row per one-token step: `steps × lut_stages`.
    pub stage_rows: usize,
}

/// The `decode_sweep` block: closed-loop per-token step latency at a few
/// prefix positions on a 256-context causal transformer.
#[derive(Debug, Clone)]
pub struct DecodeSweepResult {
    /// The swept model's shape.
    pub cfg: TransformerConfig,
    /// Sessions decoded from position 1 to `max_seq`.
    pub streams: usize,
    /// Steps timed per stream at each point: the ones ending at positions
    /// `prefix - window + 1 ..= prefix`.
    pub window: usize,
    /// `(prefix position, p50 ms)`, ascending.
    pub points: Vec<(usize, f64)>,
}

/// The whole artifact, pre-serialization.
#[derive(Debug)]
pub struct ServeReport {
    /// `smoke` or `full`.
    pub mode: &'static str,
    /// Arrival-process label shared by every scenario.
    pub arrival: &'static str,
    /// Base seed.
    pub seed: u64,
    /// Requests per scenario.
    pub requests_per_scenario: usize,
    /// All measured scenarios, matrix order.
    pub scenarios: Vec<ScenarioResult>,
    /// The multi-tenant gateway scenarios (one gateway across all loads).
    pub gateway_scenarios: Vec<GatewayScenarioResult>,
    /// The token-streaming decode scenarios.
    pub decode_scenarios: Vec<DecodeScenarioResult>,
    /// The per-token latency sweep over prefix positions.
    pub decode_sweep: DecodeSweepResult,
}

/// Runs the full scenario matrix and returns the report.
pub fn run(cfg: ServeBenchConfig) -> ServeReport {
    let mut scenarios = Vec::new();
    run_convnet(cfg, &mut scenarios);
    run_transformer(cfg, &mut scenarios);
    let mut gateway_scenarios = Vec::new();
    run_gateway(cfg, &mut gateway_scenarios);
    let mut decode_scenarios = Vec::new();
    run_decode(cfg, &mut decode_scenarios);
    let decode_sweep = run_decode_sweep(cfg);
    ServeReport {
        mode: if cfg.smoke { "smoke" } else { "full" },
        arrival: if cfg.poisson { "poisson" } else { "fixed" },
        seed: cfg.seed,
        requests_per_scenario: cfg.requests(),
        scenarios,
        gateway_scenarios,
        decode_scenarios,
        decode_sweep,
    }
}

fn run_convnet(cfg: ServeBenchConfig, out: &mut Vec<ScenarioResult>) {
    let images = 16;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc0e);
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
    let inputs: Vec<Tensor> = (0..images)
        .map(|i| Tensor::from_vec(batch.data()[i * per..(i + 1) * per].to_vec(), &[3, 16, 16]))
        .collect();
    run_model(cfg, "convnet", &net, &ps, &inputs, out);
}

fn run_transformer(cfg: ServeBenchConfig, out: &mut Vec<ScenarioResult>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7f0);
    let mut ps = ParamSet::new();
    let mut net = distilbert_mini(&mut ps, 3);
    let tokens: Vec<usize> = (0..6 * 16).map(|i| (i * 5 + 3) % 64).collect();
    let _ = lutify_transformer(
        &mut net,
        &mut ps,
        LutConfig::default(),
        CentroidInit::Kmeans,
        ConvertPolicy::default(),
        &tokens,
        6,
        16,
        &mut rng,
    );
    let inputs: Vec<Vec<usize>> = (0..6)
        .map(|i| tokens[i * 16..(i + 1) * 16].to_vec())
        .collect();
    run_model(cfg, "transformer", &net, &ps, &inputs, out);
}

/// Calibrates the model's batch-1 service latency, then measures every
/// load level.
fn run_model<M: ServableModel>(
    cfg: ServeBenchConfig,
    model_name: &'static str,
    net: &M,
    ps: &ParamSet,
    inputs: &[M::Input],
    out: &mut Vec<ScenarioResult>,
) {
    let mut rt = LutRuntime::new(lutdla_lutboost::DeployConfig::bf16_int8());

    // Closed-loop batch-1 calibration: min submit→resolve wall time.
    let base = {
        let session = rt.serve(net, ps).build_model();
        let mut best = Duration::MAX;
        for i in 0..8 {
            let t0 = Instant::now();
            let h = session
                .submit(inputs[i % inputs.len()].clone())
                .expect("valid input");
            session.flush();
            h.wait().expect("session alive");
            let dt = t0.elapsed();
            if i >= 2 {
                best = best.min(dt); // skip cache-warming iterations
            }
        }
        best
    };
    let service_rps = 1.0 / base.as_secs_f64().max(1e-9);
    let slo = (base * 3).max(Duration::from_millis(1));
    println!(
        "{model_name}: batch-1 latency {:.3} ms → service {:.0} req/s, SLO {:.3} ms",
        base.as_secs_f64() * 1e3,
        service_rps,
        slo.as_secs_f64() * 1e3,
    );

    for load in [Load::Low, Load::Overload] {
        let idx = out.len() as u64;
        let arrival = cfg.arrival(idx);
        let rate = load.rate(service_rps);
        let offsets = arrival.schedule(cfg.requests(), rate);
        let session = rt.serve(net, ps).build_model();
        let scenario = drive(
            &session,
            inputs,
            &offsets,
            slo,
            ScenarioLabel {
                model: model_name,
                load: load.name(),
                arrival: arrival.name(),
                offered_rps: rate,
                slo_ms: slo.as_secs_f64() * 1e3,
            },
        );
        println!(
            "  {:<28} offered {:>7.0} req/s | achieved {:>7.0} | p50 {:>8.3} ms | p99 {:>8.3} ms | SLO-conformance {:.2}",
            scenario.name,
            scenario.offered_rps,
            scenario.achieved_rps,
            scenario.p50_ms,
            scenario.p99_ms,
            scenario.slo_conformance,
        );
        out.push(scenario);
    }
}

struct ScenarioLabel {
    model: &'static str,
    load: &'static str,
    arrival: &'static str,
    offered_rps: f64,
    slo_ms: f64,
}

/// Replays one arrival schedule against a session: open-loop submits at
/// the scheduled instants, flushing the backlog while idle (and whenever
/// it reaches [`BURST`] when the schedule never lets the loop go idle).
fn drive<M: ServableModel>(
    session: &ModelSession<'_, M>,
    inputs: &[M::Input],
    offsets: &[Duration],
    slo: Duration,
    label: ScenarioLabel,
) -> ScenarioResult {
    let t0 = Instant::now();
    let mut pending = Vec::with_capacity(offsets.len());
    for (i, off) in offsets.iter().enumerate() {
        // Hold to the schedule; service the open batch while waiting.
        loop {
            let now = t0.elapsed();
            if now >= *off {
                break;
            }
            if session.queued() > 0 {
                session.flush();
            } else {
                std::thread::sleep(*off - now);
            }
        }
        pending.push(
            session
                .submit(inputs[i % inputs.len()].clone())
                .expect("valid input"),
        );
        if session.queued() >= BURST {
            session.flush();
        }
    }
    session.flush();
    let total = t0.elapsed();

    let mut hist = LatencyHistogram::new();
    let mut conforming = 0usize;
    for (off, p) in offsets.iter().zip(pending) {
        let (_rows, timing) = p.wait_timed().expect("session alive");
        // Latency from the *scheduled* arrival, not the submit instant:
        // time the request spent queued behind the schedule counts too.
        let lat = timing.latency_since(t0 + *off);
        hist.record(lat);
        if lat <= slo {
            conforming += 1;
        }
    }

    let ms = |d: Option<Duration>| d.map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0);
    let stages = session
        .stage_stats()
        .into_iter()
        .map(|(name, st)| StageRow {
            stage: name.to_string(),
            batches_run: st.batches_run,
            rows_served: st.rows_served,
            queued_high_water: st.queued_high_water,
            mean_service_us: st.service_nanos as f64 / st.batches_run.max(1) as f64 / 1e3,
        })
        .collect();
    ScenarioResult {
        name: format!("{}_{}", label.model, label.load),
        model: label.model,
        load: label.load,
        arrival: label.arrival,
        requests: offsets.len(),
        offered_rps: label.offered_rps,
        achieved_rps: offsets.len() as f64 / total.as_secs_f64().max(1e-9),
        p50_ms: ms(hist.percentile(0.50)),
        p95_ms: ms(hist.percentile(0.95)),
        p99_ms: ms(hist.percentile(0.99)),
        max_ms: ms(hist.max()),
        mean_ms: ms(hist.mean()),
        slo_ms: label.slo_ms,
        slo_conformance: conforming as f64 / offsets.len().max(1) as f64,
        stages,
    }
}

/// One converted convnet for the gateway scenarios (the "two models" are
/// two instances with independent parameters).
fn gateway_convnet(seed: u64) -> (ParamSet, ConvNet, Vec<Tensor>) {
    let images = 8;
    let mut rng = StdRng::seed_from_u64(seed);
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
    let inputs = (0..images)
        .map(|i| Tensor::from_vec(batch.data()[i * per..(i + 1) * per].to_vec(), &[3, 16, 16]))
        .collect();
    (ps, net, inputs)
}

/// Measures the `gateway_*` scenarios: 2 models × 3 SLO classes (6
/// tenants) behind **one** [`ServeGateway`] that persists across the
/// low/overload sweep — per-scenario counters are interval deltas
/// ([`StageStats::delta`]), which is exactly the snapshot-diff idiom the
/// helper exists for. The `BestEffort` tenants run a deliberately tight
/// admission policy (2-deep queue, per-round quota 1) so overload shows
/// the shed-and-fairness asymmetry the artifact checker gates: best-effort
/// sheds while latency admits, and latency p99 stays at or below
/// best-effort p99.
///
/// A third scenario, `gateway_memo_dup_low`, replays the *same* image for
/// every request. It runs first, while the per-stage encode memos
/// ([`RuntimeOptions::memo_rows`]) are cold, so its interval delta shows
/// both memo misses (first encounter of each row) and hits (every repeat
/// skips the similarity walk) — the cross-request encode-memo path under
/// a duplicate-heavy serving load.
fn run_gateway(cfg: ServeBenchConfig, out: &mut Vec<GatewayScenarioResult>) {
    let (ps_a, net_a, inputs) = gateway_convnet(cfg.seed ^ 0x6a7e);
    let (ps_b, net_b, _) = gateway_convnet(cfg.seed ^ 0x6a7f);
    // The gateway runtime runs with per-stage encode memos enabled: the
    // duplicate-heavy `gateway_memo_dup_low` scenario (run first, while
    // the memos are cold) must show both misses and hits.
    let mut rt = LutRuntime::with_options(
        lutdla_lutboost::DeployConfig::bf16_int8(),
        RuntimeOptions {
            memo_rows: GATEWAY_MEMO_ROWS,
            ..RuntimeOptions::default()
        },
    );

    // Closed-loop batch-1 calibration on one model (both are the same
    // architecture).
    let base = {
        let session = rt.serve(&net_a, &ps_a).build_model();
        let mut best = Duration::MAX;
        for i in 0..8 {
            let t0 = Instant::now();
            let h = session
                .submit(inputs[i % inputs.len()].clone())
                .expect("valid input");
            session.flush();
            h.wait().expect("session alive");
            let dt = t0.elapsed();
            if i >= 2 {
                best = best.min(dt);
            }
        }
        best
    };
    let service_rps = 1.0 / base.as_secs_f64().max(1e-9);
    let slo = (base * 3).max(Duration::from_millis(1));
    println!(
        "gateway: batch-1 latency {:.3} ms → service {:.0} req/s, SLO {:.3} ms",
        base.as_secs_f64() * 1e3,
        service_rps,
        slo.as_secs_f64() * 1e3,
    );

    let mut gw = ServeGateway::new(GatewayOptions::new(rt.config()));
    let models = [
        ("cnn_a", gw.register_model(&mut rt, "cnn_a", &net_a, &ps_a)),
        ("cnn_b", gw.register_model(&mut rt, "cnn_b", &net_b, &ps_b)),
    ];
    let mut tenants: Vec<(TenantId, SloClass)> = Vec::new();
    for (mname, mid) in models {
        for class in SloClass::ALL {
            let policy = if class == SloClass::BestEffort {
                ClassPolicy {
                    max_queue: 2,
                    quota: 1,
                    shed_deadline: None,
                }
            } else {
                class.default_policy()
            };
            let name = format!("{mname}_{class}");
            tenants.push((gw.register_tenant_with(&name, mid, class, policy), class));
        }
    }

    for (load, dup) in [
        (Load::Low, true),
        (Load::Low, false),
        (Load::Overload, false),
    ] {
        // Offset the arrival seed past the per-model scenarios so traces
        // stay decorrelated from the session matrix.
        let arrival = cfg.arrival(0x40 + out.len() as u64);
        let rate = load.rate(service_rps);
        let offsets = arrival.schedule(cfg.requests(), rate);

        // Interval baselines: the gateway persists across loads, so every
        // reported counter is a delta against this snapshot.
        let prev = gw.stats();
        let prev_stages: Vec<Vec<StageStats>> = models
            .iter()
            .map(|(_, mid)| gw.stage_stats(*mid).into_iter().map(|(_, s)| s).collect())
            .collect();

        let t0 = Instant::now();
        let mut admitted: Vec<(SloClass, Duration, Pending)> = Vec::new();
        let mut offered = [0usize; 3];
        let mut shed = [0usize; 3];
        for (i, off) in offsets.iter().enumerate() {
            // Hold to the schedule; serve the backlog while waiting.
            loop {
                let now = t0.elapsed();
                if now >= *off {
                    break;
                }
                if gw.queued() > 0 {
                    gw.pump();
                } else {
                    std::thread::sleep(*off - now);
                }
            }
            let (tenant, class) = tenants[i % tenants.len()];
            offered[class.index()] += 1;
            // The memo scenario is duplicate-heavy on purpose: one image.
            let input = if dup {
                &inputs[0]
            } else {
                &inputs[i % inputs.len()]
            };
            match gw.submit(tenant, input.clone()) {
                Ok(h) => admitted.push((class, *off, h)),
                Err(ServeError::Shed { .. }) => shed[class.index()] += 1,
                Err(e) => panic!("gateway rejected a valid request: {e}"),
            }
            if gw.queued() >= GATEWAY_BURST {
                gw.pump();
            }
        }
        gw.drain();

        let mut hists = [
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        ];
        let admitted_total = admitted.len();
        for (class, off, h) in admitted {
            let (_rows, timing) = h.wait_timed().expect("gateway alive");
            hists[class.index()].record(timing.latency_since(t0 + off));
        }

        let ms = |d: Option<Duration>| d.map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0);
        let classes: Vec<GatewayClassRow> = SloClass::ALL
            .iter()
            .map(|&class| {
                let i = class.index();
                GatewayClassRow {
                    class: class.as_str(),
                    requests: offered[i],
                    admitted: offered[i] - shed[i],
                    shed: shed[i],
                    p50_ms: ms(hists[i].percentile(0.50)),
                    p99_ms: ms(hists[i].percentile(0.99)),
                }
            })
            .collect();
        let stats = gw.stats();
        let cache = rt.stats();
        let mut stages = Vec::new();
        let (mut memo_hits, mut memo_misses, mut memo_evictions) = (0usize, 0usize, 0usize);
        for ((mname, mid), prev_model) in models.iter().zip(&prev_stages) {
            for ((stage, now), prev) in gw.stage_stats(*mid).iter().zip(prev_model) {
                let d = now.delta(prev);
                memo_hits += d.memo_hits;
                memo_misses += d.memo_misses;
                memo_evictions += d.memo_evictions;
                stages.push(StageRow {
                    stage: format!("{mname}/{stage}"),
                    batches_run: d.batches_run,
                    rows_served: d.rows_served,
                    queued_high_water: d.queued_high_water,
                    mean_service_us: d.service_nanos as f64 / d.batches_run.max(1) as f64 / 1e3,
                });
            }
        }
        let requests = offsets.len();
        let total_shed: usize = shed.iter().sum();
        let scenario = GatewayScenarioResult {
            name: if dup {
                format!("gateway_memo_dup_{}", load.name())
            } else {
                format!("gateway_mixed_{}", load.name())
            },
            load: load.name(),
            arrival: arrival.name(),
            models: models.len(),
            tenants: tenants.len(),
            requests,
            admitted: admitted_total,
            shed: total_shed,
            shed_ratio: total_shed as f64 / requests.max(1) as f64,
            batches_run: (stats.batches_run - prev.batches_run),
            rows_served: stats.rows_served - prev.rows_served,
            engine_cache_hits: cache.hits,
            engine_cache_misses: cache.misses,
            engine_cache_evictions: cache.evictions,
            memo_hits,
            memo_misses,
            memo_evictions,
            slo_ms: slo.as_secs_f64() * 1e3,
            classes,
            stages,
        };
        println!(
            "  {:<28} offered {:>7.0} req/s | admitted {:>3} | shed {:>3} | batches {:>4} | memo {:>5}h/{:>5}m | lat p99 {:>8.3} ms | be p99 {:>8.3} ms",
            scenario.name,
            rate,
            scenario.admitted,
            scenario.shed,
            scenario.batches_run,
            scenario.memo_hits,
            scenario.memo_misses,
            scenario.classes[0].p99_ms,
            scenario.classes[2].p99_ms,
        );
        out.push(scenario);
    }
}

/// Measures the `decode_*` scenarios: a converted causal transformer
/// (`gpt_mini`) decoded token by token through [`LutRuntime::decode_session`],
/// one stream after another, with arrivals paced at `low`/`overload`
/// multiples of the measured closed-loop step rate.
///
/// Two service rates frame the claim. `full_reeval_steps_per_s` is the
/// do-nothing baseline — every step submits its whole prefix to a plain
/// [`ModelSession`], so every stage re-runs every row every step.
/// `service_steps_per_s` is the decode session's rate over the same
/// steps (sum of per-step service times, pacing sleeps excluded), and
/// `prefix_speedup` is their ratio: a decode step runs only the new
/// token's row through the model, so every LUT stage serves one row per
/// step — `stage_rows` counts them.
fn run_decode(cfg: ServeBenchConfig, out: &mut Vec<DecodeScenarioResult>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdec0);
    let mut ps = ParamSet::new();
    let mut net = gpt_mini(&mut ps, 16);
    let tokens: Vec<usize> = (0..6 * 16).map(|i| (i * 13 + 7) % 64).collect();
    let _ = lutify_transformer(
        &mut net,
        &mut ps,
        LutConfig::default(),
        CentroidInit::Kmeans,
        ConvertPolicy::default(),
        &tokens,
        6,
        16,
        &mut rng,
    );
    let (streams, seq_len) = if cfg.smoke { (3, 8) } else { (8, 12) };
    let steps = streams * seq_len;
    let tok = |s: usize, t: usize| tokens[(s * seq_len + t) % tokens.len()];
    let mut rt = LutRuntime::new(lutdla_lutboost::DeployConfig::bf16_int8());

    // Closed-loop full-re-eval baseline: every step re-encodes its whole
    // prefix from scratch through a plain session submit.
    let full_reeval = {
        let session = rt.serve(&net, &ps).build_model();
        let t0 = Instant::now();
        for s in 0..streams {
            let mut prefix = Vec::with_capacity(seq_len);
            for t in 0..seq_len {
                prefix.push(tok(s, t));
                let h = session.submit(prefix.clone()).expect("valid prefix");
                session.flush();
                h.wait().expect("session alive");
            }
        }
        t0.elapsed()
    };
    let full_reeval_sps = steps as f64 / full_reeval.as_secs_f64().max(1e-9);

    // Closed-loop decode calibration: one throwaway stream sets the step
    // service rate the load levels are multiples of.
    let service_sps = {
        let session = rt.decode_session(&net, &ps).expect("causal model");
        let t0 = Instant::now();
        for t in 0..seq_len {
            let h = session.step(vec![tok(0, t)]).expect("valid step");
            h.wait().expect("step resolved");
        }
        seq_len as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    };
    println!(
        "decode: closed-loop {service_sps:.0} steps/s | full re-eval {full_reeval_sps:.0} steps/s",
    );

    for load in [Load::Low, Load::Overload] {
        // Offset the arrival seed past the session and gateway scenarios.
        let arrival = cfg.arrival(0x80 + out.len() as u64);
        let rate = load.rate(service_sps);
        let offsets = arrival.schedule(steps, rate);

        let t0 = Instant::now();
        let mut hist = LatencyHistogram::new();
        let mut service_total = Duration::ZERO;
        let (mut stage_rows, mut lut_stages) = (0usize, 0usize);
        let mut i = 0usize;
        for s in 0..streams {
            // One `DecodeSession` per stream; its key/value cache (and
            // stage counters) live for exactly this stream's prefix.
            let session = rt.decode_session(&net, &ps).expect("causal model");
            for t in 0..seq_len {
                let off = offsets[i];
                loop {
                    let now = t0.elapsed();
                    if now >= off {
                        break;
                    }
                    std::thread::sleep(off - now);
                }
                let t1 = Instant::now();
                let h = session.step(vec![tok(s, t)]).expect("valid step");
                let (_rows, timing) = h.wait_timed().expect("step resolved");
                service_total += t1.elapsed();
                // Latency from the *scheduled* arrival: schedule slip under
                // overload counts, exactly as in the session scenarios.
                hist.record(timing.latency_since(t0 + off));
                i += 1;
            }
            lut_stages = session.lut_stages();
            stage_rows += session
                .stage_stats()
                .iter()
                .map(|(_, st)| st.rows_served)
                .sum::<usize>();
        }
        let total = t0.elapsed();

        let ms = |d: Option<Duration>| d.map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0);
        let decode_service_sps = steps as f64 / service_total.as_secs_f64().max(1e-9);
        let scenario = DecodeScenarioResult {
            name: format!("decode_{}", load.name()),
            model: "gpt",
            load: load.name(),
            arrival: arrival.name(),
            streams,
            seq_len,
            steps: i,
            offered_sps: rate,
            p50_ms: ms(hist.percentile(0.50)),
            p95_ms: ms(hist.percentile(0.95)),
            p99_ms: ms(hist.percentile(0.99)),
            max_ms: ms(hist.max()),
            mean_ms: ms(hist.mean()),
            steps_per_s: steps as f64 / total.as_secs_f64().max(1e-9),
            service_steps_per_s: decode_service_sps,
            full_reeval_steps_per_s: full_reeval_sps,
            prefix_speedup: decode_service_sps / full_reeval_sps.max(1e-9),
            lut_stages,
            stage_rows,
        };
        println!(
            "  {:<28} offered {:>7.0} st/s | served {:>7.0} | service {:>7.0} | p50 {:>8.3} ms | p99 {:>8.3} ms | speedup {:.2}x | stage rows {:>5}",
            scenario.name,
            scenario.offered_sps,
            scenario.steps_per_s,
            scenario.service_steps_per_s,
            scenario.p50_ms,
            scenario.p99_ms,
            scenario.prefix_speedup,
            scenario.stage_rows,
        );
        out.push(scenario);
    }
}

/// Measures the `decode_sweep` block: a converted causal transformer of
/// the `decode_long` shape (vocab 64, context 256, width 64, 4 heads,
/// FFN 128, 2 blocks) decoded closed-loop from position 1 to 256, one
/// token per step, timing each step. A point's p50 pools the
/// `SWEEP_WINDOW` steps ending at its prefix position over every stream.
fn run_decode_sweep(cfg: ServeBenchConfig) -> DecodeSweepResult {
    const POINTS: [usize; 3] = [16, 64, 256];
    const SWEEP_WINDOW: usize = 8;
    let model_cfg = TransformerConfig {
        vocab: 64,
        max_seq: 256,
        d_model: 64,
        heads: 4,
        d_ff: 128,
        layers: 2,
        num_classes: 16,
        seed: cfg.seed ^ 0x5eed,
        causal: true,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e3e);
    let mut ps = ParamSet::new();
    let mut net = TransformerClassifier::new(&mut ps, model_cfg);
    let calib: Vec<usize> = (0..2 * 64).map(|i| (i * 29 + 5) % 64).collect();
    let _ = lutify_transformer(
        &mut net,
        &mut ps,
        LutConfig::default(),
        CentroidInit::Kmeans,
        ConvertPolicy::default(),
        &calib,
        2,
        64,
        &mut rng,
    );
    let streams = if cfg.smoke { 2 } else { 8 };
    let mut rt = LutRuntime::new(lutdla_lutboost::DeployConfig::bf16_int8());
    // step_ms[p] holds every stream's time for the step ending at p + 1.
    let mut step_ms = vec![Vec::with_capacity(streams); model_cfg.max_seq];
    for s in 0..streams {
        let session = rt.decode_session(&net, &ps).expect("causal model");
        for (p, times) in step_ms.iter_mut().enumerate() {
            let token = (s * 131 + p * 17 + 3) % model_cfg.vocab;
            let t0 = Instant::now();
            let h = session.step(vec![token]).expect("valid step");
            h.wait().expect("step resolved");
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let points: Vec<(usize, f64)> = POINTS
        .iter()
        .map(|&prefix| {
            let mut window: Vec<f64> = step_ms[prefix - SWEEP_WINDOW..prefix]
                .iter()
                .flatten()
                .copied()
                .collect();
            window.sort_by(f64::total_cmp);
            (prefix, window[window.len() / 2])
        })
        .collect();
    println!(
        "decode sweep: per-token p50 {}",
        points
            .iter()
            .map(|(p, ms)| format!("@{p} {ms:.3} ms"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    DecodeSweepResult {
        cfg: model_cfg,
        streams,
        window: SWEEP_WINDOW,
        points,
    }
}

/// Serializes the report into the `BENCH_serve.json` schema checked by
/// [`crate::artifact::check_serve_artifact_text`].
pub fn to_json(report: &ServeReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"serve\",\n");
    s.push_str(&format!("  \"mode\": \"{}\",\n", report.mode));
    s.push_str(&format!("  \"arrival\": \"{}\",\n", report.arrival));
    s.push_str(&format!("  \"seed\": {},\n", report.seed));
    s.push_str(&format!(
        "  \"requests_per_scenario\": {},\n",
        report.requests_per_scenario
    ));
    s.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in report.scenarios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"model\": \"{}\", \"load\": \"{}\", \
             \"arrival\": \"{}\", \"requests\": {}, \"offered_rps\": {:.1}, \
             \"achieved_rps\": {:.1}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"max_ms\": {:.4}, \"mean_ms\": {:.4}, \"slo_ms\": {:.4}, \
             \"slo_conformance\": {:.4}, \"stages\": [\n",
            sc.name,
            sc.model,
            sc.load,
            sc.arrival,
            sc.requests,
            sc.offered_rps,
            sc.achieved_rps,
            sc.p50_ms,
            sc.p95_ms,
            sc.p99_ms,
            sc.max_ms,
            sc.mean_ms,
            sc.slo_ms,
            sc.slo_conformance,
        ));
        for (j, st) in sc.stages.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"stage\": \"{}\", \"batches_run\": {}, \"rows_served\": {}, \
                 \"queued_high_water\": {}, \"mean_service_us\": {:.2}}}{}\n",
                st.stage,
                st.batches_run,
                st.rows_served,
                st.queued_high_water,
                st.mean_service_us,
                if j + 1 == sc.stages.len() { "" } else { "," },
            ));
        }
        s.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == report.scenarios.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"gateway_scenarios\": [\n");
    for (i, sc) in report.gateway_scenarios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"load\": \"{}\", \"arrival\": \"{}\", \"models\": {}, \
             \"tenants\": {}, \"requests\": {}, \"admitted\": {}, \"shed\": {}, \
             \"shed_ratio\": {:.4}, \"batches_run\": {}, \"rows_served\": {}, \
             \"engine_cache_hits\": {}, \"engine_cache_misses\": {}, \
             \"engine_cache_evictions\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
             \"memo_evictions\": {}, \"slo_ms\": {:.4}, \"classes\": [\n",
            sc.name,
            sc.load,
            sc.arrival,
            sc.models,
            sc.tenants,
            sc.requests,
            sc.admitted,
            sc.shed,
            sc.shed_ratio,
            sc.batches_run,
            sc.rows_served,
            sc.engine_cache_hits,
            sc.engine_cache_misses,
            sc.engine_cache_evictions,
            sc.memo_hits,
            sc.memo_misses,
            sc.memo_evictions,
            sc.slo_ms,
        ));
        for (j, cl) in sc.classes.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"class\": \"{}\", \"requests\": {}, \"admitted\": {}, \"shed\": {}, \
                 \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}{}\n",
                cl.class,
                cl.requests,
                cl.admitted,
                cl.shed,
                cl.p50_ms,
                cl.p99_ms,
                if j + 1 == sc.classes.len() { "" } else { "," },
            ));
        }
        s.push_str("    ], \"stages\": [\n");
        for (j, st) in sc.stages.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"stage\": \"{}\", \"batches_run\": {}, \"rows_served\": {}, \
                 \"queued_high_water\": {}, \"mean_service_us\": {:.2}}}{}\n",
                st.stage,
                st.batches_run,
                st.rows_served,
                st.queued_high_water,
                st.mean_service_us,
                if j + 1 == sc.stages.len() { "" } else { "," },
            ));
        }
        s.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == report.gateway_scenarios.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"decode_scenarios\": [\n");
    for (i, sc) in report.decode_scenarios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"model\": \"{}\", \"load\": \"{}\", \
             \"arrival\": \"{}\", \"streams\": {}, \"seq_len\": {}, \"steps\": {}, \
             \"offered_sps\": {:.1}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
             \"p99_ms\": {:.4}, \"max_ms\": {:.4}, \"mean_ms\": {:.4}, \
             \"steps_per_s\": {:.1}, \"service_steps_per_s\": {:.1}, \
             \"full_reeval_steps_per_s\": {:.1}, \"prefix_speedup\": {:.4}, \
             \"lut_stages\": {}, \"stage_rows\": {}}}{}\n",
            sc.name,
            sc.model,
            sc.load,
            sc.arrival,
            sc.streams,
            sc.seq_len,
            sc.steps,
            sc.offered_sps,
            sc.p50_ms,
            sc.p95_ms,
            sc.p99_ms,
            sc.max_ms,
            sc.mean_ms,
            sc.steps_per_s,
            sc.service_steps_per_s,
            sc.full_reeval_steps_per_s,
            sc.prefix_speedup,
            sc.lut_stages,
            sc.stage_rows,
            if i + 1 == report.decode_scenarios.len() {
                ""
            } else {
                ","
            },
        ));
    }
    s.push_str("  ],\n");
    let sw = &report.decode_sweep;
    let p50 = |prefix: usize| {
        sw.points
            .iter()
            .find(|&&(p, _)| p == prefix)
            .map_or(0.0, |&(_, ms)| ms)
    };
    s.push_str(&format!(
        "  \"decode_sweep\": {{\"model\": \"causal_transformer\", \"vocab\": {}, \
         \"max_seq\": {}, \"d_model\": {}, \"heads\": {}, \"d_ff\": {}, \"layers\": {}, \
         \"streams\": {}, \"window\": {}, \"points\": [{}], \"p50_ratio_256_16\": {:.4}}}\n",
        sw.cfg.vocab,
        sw.cfg.max_seq,
        sw.cfg.d_model,
        sw.cfg.heads,
        sw.cfg.d_ff,
        sw.cfg.layers,
        sw.streams,
        sw.window,
        sw.points
            .iter()
            .map(|(p, ms)| format!("{{\"prefix\": {p}, \"p50_ms\": {ms:.4}}}"))
            .collect::<Vec<_>>()
            .join(", "),
        p50(256) / p50(16).max(1e-9),
    ));
    s.push_str("}\n");
    s
}

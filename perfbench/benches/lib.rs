//! Closed-loop benchmark of the LUT-DLA serving stack.
//!
//! Three workloads, each run from one process with one client thread:
//!
//! * `cnn_batch` — offline batch inference of a converted ConvNet through
//!   a whole-model session ([`cnn`]);
//! * `gateway_mixed` — two converted ConvNets behind one multi-tenant
//!   gateway with the encode memo on ([`gateway`]);
//! * `decode_long` — token streaming over a 256-token prefix through
//!   decode sessions ([`decode`]).
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics, timed by spans the
//! benchmark opens around its calls into each layer, and writes the spans
//! out. See `perfbench/README.md` for the metric definitions.

mod cnn;
mod decode;
mod gateway;
mod models;
pub mod pin;
pub mod replay;
pub mod report;
mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use report::{Metric, Report, END_TO_END};
use stats::{median, peak_rss_mb, quantile};
use trace::Tracer;

/// Op ids of spans outside the measured ops: set-up build `r` uses
/// `SETUP_OP + r`, engine replays and re-evaluations use `REPLAY_OP`.
pub const SETUP_OP: u64 = 1 << 40;
pub const REPLAY_OP: u64 = 1 << 41;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CnnBatch,
    GatewayMixed,
    DecodeLong,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CnnBatch,
        Workload::GatewayMixed,
        Workload::DecodeLong,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnBatch => "cnn_batch",
            Workload::GatewayMixed => "gateway_mixed",
            Workload::DecodeLong => "decode_long",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seconds of set-up builds after the measured phase. Builds of every
/// workload take 0.05 to 0.9 s, so this leaves tens of them, spread over
/// several of the host's fast and slow spells.
pub const SETUP_SECONDS: f64 = 10.0;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// Seeds the request inputs (never the models).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Seconds of set-up builds after the measured one (which is always
    /// timed).
    pub setup_seconds: f64,
}

impl Args {
    pub const USAGE: &'static str =
        "usage: perfbench --workload <cnn_batch|gateway_mixed|decode_long> \
                                     --seed <u64> --seconds <secs> --trace <0|1>";

    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, all
    /// required.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| matches!(*k, "workload" | "seed" | "seconds" | "trace"))
                .ok_or_else(|| format!("unknown argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            flags.insert(key.to_string(), value);
        }
        let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
        let workload = get("workload")?;
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let seed = get("seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?;
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} outside (0, 600]"));
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (0 or 1)")),
        };
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            setup_seconds: SETUP_SECONDS,
        })
    }
}

/// A run's report plus what the traced run recorded.
#[derive(Debug)]
pub struct Outcome {
    pub report: Report,
    pub tracer: Tracer,
    pub replays: Vec<replay::Replay>,
}

/// Runs one workload.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::CnnBatch => run_bench(&cnn::Cnn::new(args.seed), args),
        Workload::GatewayMixed => run_bench(&gateway::Gateway::new(args.seed), args),
        Workload::DecodeLong => run_bench(&decode::Decode::new(args.seed), args),
    }
}

/// Ops of one measured phase.
#[derive(Debug)]
pub struct Phase {
    /// Index of the phase's first op.
    pub first: u64,
    /// Every attempted op in order, with its end time in seconds since
    /// the phase started.
    pub ops: Vec<(f64, OpResult)>,
}

impl Phase {
    pub fn new(first: u64) -> Self {
        Self {
            first,
            ops: Vec::new(),
        }
    }

    pub fn record(&mut self, end_s: f64, r: OpResult) {
        self.ops.push((end_s, r));
    }

    /// Index of the op after the phase's last.
    pub fn end(&self) -> u64 {
        self.first + self.attempted()
    }

    /// Seconds from the phase's start to its last op's end.
    pub fn wall_s(&self) -> f64 {
        self.ops.last().map_or(0.0, |(t, _)| *t)
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|(_, r)| !r.ok).count() as u64
    }

    /// Ops that completed: the sample count behind the phase's figures.
    pub fn completed(&self) -> usize {
        self.ops.iter().filter(|(_, r)| r.ok).count()
    }

    /// Index and latency in ms of every op that completed.
    pub fn op_ms(&self) -> Vec<(u64, f64)> {
        (self.first..)
            .zip(&self.ops)
            .filter(|(_, (_, r))| r.ok)
            .map(|(i, (_, r))| (i, r.ms))
            .collect()
    }

    /// The `q`-quantile latency over every completed op.
    fn latency(&self, q: f64) -> f64 {
        let ms: Vec<f64> = self.op_ms().into_iter().map(|(_, ms)| ms).collect();
        quantile(&ms, q)
    }

    pub fn p50(&self) -> f64 {
        self.latency(0.5)
    }

    pub fn p90(&self) -> f64 {
        self.latency(0.9)
    }

    /// Items completed per second of the phase's wall time.
    pub fn items_per_s(&self) -> f64 {
        let items: u64 = self
            .ops
            .iter()
            .filter(|(_, r)| r.ok)
            .map(|(_, r)| r.items)
            .sum();
        items as f64 / self.wall_s().max(1e-9)
    }
}

/// What one client op reports back to [`closed_loop`].
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Latency in ms.
    pub ms: f64,
    /// Model inputs the op completed.
    pub items: u64,
    /// Served without error.
    pub ok: bool,
}

/// Runs `op(i)` for `i = first, first + 1, …` back to back until
/// `seconds` have passed and the last round of `round` ops is whole (at
/// least one round).
pub fn closed_loop(
    seconds: f64,
    round: usize,
    first: u64,
    mut op: impl FnMut(u64) -> OpResult,
) -> Phase {
    let mut phase = Phase::new(first);
    let start = Instant::now();
    while phase.ops.is_empty()
        || !phase.ops.len().is_multiple_of(round.max(1))
        || start.elapsed().as_secs_f64() < seconds
    {
        let r = op(phase.end());
        phase.record(start.elapsed().as_secs_f64(), r);
    }
    phase
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A digest of the logits an op returned. The check keeps this instead
/// of the logits, so what it keeps does not grow the memory the run
/// measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// FNV-1a over the bit patterns of `rows`, in order.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in rows.into_iter().flatten() {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        Self(h)
    }
}

/// Digests of the served ops' outputs, by op index.
pub type Outputs = Vec<(u64, Digest)>;

/// Digests to make room for up front: more than any run keeps.
const OUTPUTS_CAP: usize = 1 << 15;

/// One workload: how to build its serving state and check its outputs.
trait Bench {
    /// Ops per round: a measured phase ends on a whole round.
    const ROUND: usize;

    /// Builds the serving state from nothing, runs one warm-up op, and
    /// hands the warm state to `then`. Returns the set-up time, which
    /// excludes `then`, and the result of `then`.
    fn serve<R>(
        &self,
        tracer: &mut Tracer,
        op: u64,
        then: impl FnOnce(&mut dyn Served, &mut Tracer) -> R,
    ) -> Result<(f64, R), String>;

    /// Compares the served ops' digests with references computed on an
    /// independently built copy of the model (which also checks that
    /// building is deterministic). Returns the number of mismatched ops,
    /// or an error if a reference run failed.
    fn check(&self, outputs: &Outputs) -> Result<u64, String>;
}

/// A warm serving state.
trait Served {
    /// Runs client op `i`, keeping the digest of what the check compares
    /// in `outputs`.
    fn op(&mut self, tracer: &mut Tracer, i: u64, outputs: &mut Outputs) -> OpResult;

    /// The traced run's workload-specific per-layer metrics, after its
    /// `plain` (untraced) and `traced` phases.
    fn layers(
        &mut self,
        tracer: &mut Tracer,
        plain: &Phase,
        traced: &Phase,
        layers: &mut Layers,
        outputs: &mut Outputs,
    ) -> Result<Extra, String>;
}

/// What a traced run measures besides its two phases.
#[derive(Debug, Default)]
struct Extra {
    replays: Vec<replay::Replay>,
    /// Further measured phases, whose ops count as attempted.
    phases: Vec<Phase>,
}

/// Runs one workload: the measured build, its untraced phase and, in a
/// traced run, its traced phase and per-layer extras; then the output
/// check and the remaining set-up builds.
fn run_bench<B: Bench>(bench: &B, args: &Args) -> Outcome {
    let mut tracer = Tracer::new(args.trace);
    // A traced run splits its time between an untraced and a traced
    // phase.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut outputs = Outputs::with_capacity(OUTPUTS_CAP);
    // The measured build comes first: builds before it would leave heap
    // fragments behind that make `peak_rss_mb` vary from run to run.
    let measured = bench.serve(&mut tracer, SETUP_OP, |served, tracer| {
        tracer.set_enabled(false);
        let plain = closed_loop(secs, B::ROUND, 0, |i| served.op(tracer, i, &mut outputs));
        let rss = peak_rss_mb();
        if !args.trace {
            return Ok((plain, rss, None));
        }
        tracer.set_enabled(true);
        let traced = closed_loop(secs, B::ROUND, plain.end(), |i| {
            served.op(tracer, i, &mut outputs)
        });
        let mut layers = Layers::default();
        let extra = served.layers(tracer, &plain, &traced, &mut layers, &mut outputs)?;
        Ok((plain, rss, Some((traced, layers, extra))))
    });
    let (setup0, (plain, rss, traced)) = match measured {
        Ok((s, Ok(m))) => (s, m),
        Ok((_, Err(e))) | Err(e) => return failed_setup(&e, tracer),
    };
    let mismatched = match bench.check(&outputs) {
        Ok(n) => n,
        Err(e) => return failed_setup(&e, tracer),
    };
    let mut setup_s = vec![setup0];
    let setup_start = Instant::now();
    while setup_start.elapsed().as_secs_f64() < args.setup_seconds {
        let op = SETUP_OP + setup_s.len() as u64;
        match bench.serve(&mut tracer, op, |_, _| ()) {
            Ok((s, ())) => setup_s.push(s),
            Err(e) => return failed_setup(&e, tracer),
        }
    }
    let Some((traced, mut layers, extra)) = traced else {
        let metrics = end_to_end(&setup_s, &plain, rss);
        return finish(metrics, &[&plain], mismatched, tracer, Vec::new());
    };
    layers.setup(&tracer);
    layers.engine(&extra.replays, &traced);
    layers.overhead(&plain, &traced);
    let mut phases = vec![&plain, &traced];
    phases.extend(&extra.phases);
    let metrics = Report::per_layer(layers.0);
    finish(metrics, &phases, mismatched, tracer, extra.replays)
}

/// The five end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: &[f64], phase: &Phase, peak_rss_mb: f64) -> Vec<Metric> {
    let ops = phase.completed();
    let values = [
        (median(setup_s), setup_s.len()),
        (phase.items_per_s(), ops),
        (phase.p50(), ops),
        (phase.p90(), ops),
        (peak_rss_mb, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        })
        .collect()
}

/// Per-layer values shared by every workload's traced run.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, (f64, usize)>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.0.insert(name.into(), (value, samples));
    }

    /// `convert.s` and `runtime.build_s` from the set-up spans: the time
    /// each set-up build spent in them, median over builds.
    pub fn setup(&mut self, tracer: &Tracer) {
        for (span, metric) in [
            ("convert", "convert.s"),
            ("runtime.build", "runtime.build_s"),
        ] {
            let mut per_build: BTreeMap<u64, f64> = BTreeMap::new();
            for s in tracer.spans().iter().filter(|s| s.name == span) {
                *per_build.entry(s.op).or_default() += s.duration_ns() as f64 / 1e9;
            }
            let d: Vec<f64> = per_build.into_values().collect();
            self.set(metric, median(&d), d.len());
        }
    }

    /// Engine totals and per-stage times from the replays, and
    /// `forward.other_ms`: the traced op p50 minus encode and lookup.
    pub fn engine(&mut self, replays: &[replay::Replay], traced: &Phase) {
        let enc: f64 = replays.iter().map(|r| r.encode_ms).sum();
        let look: f64 = replays.iter().map(|r| r.lookup_ms).sum();
        for r in replays {
            self.set(format!("engine.encode_ms.{}", r.stage), r.encode_ms, 1);
            self.set(format!("engine.lookup_ms.{}", r.stage), r.lookup_ms, 1);
        }
        self.set("engine.encode_ms", enc, replays.len());
        self.set("engine.lookup_ms", look, replays.len());
        let ops = traced.completed();
        self.set("forward.other_ms", traced.p50() - enc - look, ops);
    }

    /// `trace.overhead`: traced minus untraced op p50.
    pub fn overhead(&mut self, untraced: &Phase, traced: &Phase) {
        let ops = traced.completed();
        self.set("trace.overhead", traced.p50() - untraced.p50(), ops);
    }
}

/// Assembles the outcome of a run from its measured phases; `mismatched`
/// served ops whose logits differed from their references count as
/// failed too.
pub fn finish(
    metrics: Vec<Metric>,
    phases: &[&Phase],
    mismatched: u64,
    tracer: Tracer,
    replays: Vec<replay::Replay>,
) -> Outcome {
    let attempted = phases.iter().map(|p| p.attempted()).sum();
    let failed = phases.iter().map(|p| p.failed()).sum::<u64>() + mismatched;
    Outcome {
        report: Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
        tracer,
        replays,
    }
}

/// The outcome of a run whose set-up failed: one attempted op, failed.
pub fn failed_setup(why: &str, tracer: Tracer) -> Outcome {
    eprintln!("{why}");
    let mut phase = Phase::new(0);
    phase.record(
        0.0,
        OpResult {
            ms: 0.0,
            items: 0,
            ok: false,
        },
    );
    finish(Vec::new(), &[&phase], 0, tracer, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(latencies: &[f64]) -> Phase {
        let mut p = Phase::new(0);
        let mut t = 0.0;
        for &ms in latencies {
            t += ms / 1e3;
            p.record(
                t,
                OpResult {
                    ms,
                    items: 2,
                    ok: true,
                },
            );
        }
        p
    }

    #[test]
    fn figures_cover_every_op_of_the_phase() {
        // Ten ops of 10 ms and ten of 30 ms: every op counts, the slow
        // ones included.
        let mut ms_in = vec![10.0; 10];
        ms_in.extend([30.0; 10]);
        let p = phase(&ms_in);
        assert_eq!(p.completed(), 20);
        assert_eq!(p.p50(), 20.0);
        assert!((p.p90() - 30.0).abs() < 1e-9);
        assert!((p.items_per_s() - 40.0 / 0.4).abs() < 1e-6);
    }

    #[test]
    fn closed_loop_ends_on_a_whole_round() {
        let p = closed_loop(0.0, 4, 8, |i| OpResult {
            ms: i as f64,
            items: 2,
            ok: i != 9,
        });
        assert_eq!((p.first, p.end()), (8, 12));
        assert_eq!(p.failed(), 1);
        let ms: Vec<f64> = p.op_ms().into_iter().map(|(_, ms)| ms).collect();
        assert_eq!(ms, vec![8.0, 10.0, 11.0]);
    }

    #[test]
    fn digest_follows_bits_not_row_boundaries() {
        let a = Digest::of([&[1.0f32, 2.0][..], &[3.0][..]]);
        assert_eq!(a, Digest::of([&[1.0f32, 2.0, 3.0][..]]));
        assert_ne!(a, Digest::of([&[1.0f32, 2.0, -3.0][..]]));
        assert_ne!(Digest::of([&[0.0f32][..]]), Digest::of([&[-0.0f32][..]]));
    }

    #[test]
    fn failed_ops_count_but_leave_the_figures() {
        let mut p = phase(&[5.0, 7.0]);
        p.record(
            0.02,
            OpResult {
                ms: 1.0,
                items: 1,
                ok: false,
            },
        );
        assert_eq!((p.attempted(), p.failed()), (3, 1));
        assert_eq!(p.p50(), 6.0);
        assert_eq!(p.completed(), 2);
        assert!((p.items_per_s() - 4.0 / 0.02).abs() < 1e-6);
    }
}

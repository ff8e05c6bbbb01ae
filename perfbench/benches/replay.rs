//! Standalone engine replays: one op's captured stage inputs, pushed
//! through freshly built engines so the similarity-walk encode (the CCM)
//! and the table lookup (the IMM) are timed apart.

use std::time::Instant;

use lutdla_lutboost::{lut_layers, DeployConfig};
use lutdla_models::trainable::DenseUnit;
use lutdla_nn::ParamSet;
use lutdla_tensor::Tensor;
use lutdla_vq::{EngineOptions, LutEngine, LutTable};

use crate::stats::median;
use crate::trace::Tracer;

/// Timed repetitions per stage; the median is reported.
const REPS: usize = 9;

/// The replay of one LUT stage.
#[derive(Debug)]
pub struct Replay {
    pub stage: String,
    /// Rows of the stage input (and of the lookup).
    pub rows: usize,
    /// Stage input width.
    pub k: usize,
    /// Rows the timed encode walks: all of them, or only the newest for a
    /// decode step.
    pub encode_rows: usize,
    /// Rows of the packed codes the encode produced.
    pub code_rows: usize,
    /// Output shape of the lookup: `[rows, n]`.
    pub out_dims: Vec<usize>,
    pub encode_ms: f64,
    pub lookup_ms: f64,
}

/// Replays every converted unit among `units` on its captured input
/// (`captured[i]` feeds `units[i]`). With `encode_tail = Some(t)` only the
/// last `t` rows are encoded in the timed encode, as a decode step does;
/// the lookup always covers every row. Each timed call runs in a span
/// named `engine.encode.<stage>` / `engine.lookup.<stage>` under `op`.
pub fn replay_units(
    units: &[&DenseUnit],
    captured: &[Tensor],
    ps: &ParamSet,
    cfg: DeployConfig,
    encode_tail: Option<usize>,
    tracer: &mut Tracer,
    op: u64,
) -> Vec<Replay> {
    let mut out = Vec::new();
    for (unit, x) in units.iter().zip(captured) {
        let Some(lut) = lut_layers(std::iter::once(*unit)).next() else {
            continue;
        };
        let (pq, weight) = lut.export(ps);
        let table = LutTable::build(&pq, &weight, cfg.lut_quant);
        let mut engine = LutEngine::with_opts(
            pq,
            &table,
            EngineOptions {
                workers: 1,
                precision: cfg.precision,
                ..EngineOptions::default()
            },
        );
        let (rows, k) = (x.dims()[0], x.dims()[1]);
        let encode_rows = encode_tail.map_or(rows, |t| t.min(rows));
        let encode_x = if encode_rows == rows {
            x.clone()
        } else {
            Tensor::from_vec(
                x.data()[(rows - encode_rows) * k..].to_vec(),
                &[encode_rows, k],
            )
        };
        let codes = engine.encode_packed(x);
        let encode_name = format!("engine.encode.{}", unit.name);
        let lookup_name = format!("engine.lookup.{}", unit.name);
        let mut enc = Vec::with_capacity(REPS);
        let mut look = Vec::with_capacity(REPS);
        let mut out_dims = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            let c = tracer.span(&encode_name, op, || engine.encode_packed(&encode_x));
            enc.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(c);
            let t = Instant::now();
            let y = tracer.span(&lookup_name, op, || engine.run_from_packed(&codes));
            look.push(t.elapsed().as_secs_f64() * 1e3);
            out_dims = y.map(|y| y.dims().to_vec()).unwrap_or_default();
        }
        out.push(Replay {
            stage: unit.name.clone(),
            rows,
            k,
            encode_rows,
            code_rows: codes.rows(),
            out_dims,
            encode_ms: median(&enc),
            lookup_ms: median(&look),
        });
    }
    out
}

/// Adds `more` into `into`, summing stages of the same name (the gateway
/// replays two models with the same unit names).
pub fn merge(into: &mut Vec<Replay>, more: Vec<Replay>) {
    for r in more {
        match into.iter_mut().find(|x| x.stage == r.stage) {
            Some(x) => {
                x.encode_ms += r.encode_ms;
                x.lookup_ms += r.lookup_ms;
            }
            None => into.push(r),
        }
    }
}

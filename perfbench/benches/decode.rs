//! `decode_long`: token streaming over a long prefix. A causal
//! transformer (vocab 64, max_seq 256, d_model 64, 4 heads, d_ff 128, 2
//! layers) serves sequential decode sessions of 256 single-token steps
//! each; one op is one step. A statistics block is one whole session, so
//! every block covers positions 1..=256 equally.
//!
//! Loads: the per-step forward over the whole prefix (attention grows with
//! position), the prefix diff, and the encode of the new rows.
//! Bypasses: stage batchers, the gateway, the memo.

use std::time::Instant;

use lutdla_lutboost::{DecodeSession, LutRuntime};
use lutdla_models::trainable::TransformerClassifier;
use lutdla_nn::ParamSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::models;
use crate::replay::replay_units;
use crate::report::{band_name, BANDS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{ms_since, Bench, Digest, Extra, Layers, OpResult, Outputs, Phase, Served, REPLAY_OP};

/// Steps per session: the model's whole context.
pub const SEQ: usize = 256;
/// Sequences drawn up front; a run that gets further wraps around.
const SEQS: usize = 32;
/// Prefix lengths whose logits are checked against a full re-evaluation:
/// the band boundaries.
const CHECKED: [usize; 4] = [64, 128, 192, 256];
/// Prefix length of the engine replay: the median step position.
const REPLAY_POS: usize = 128;
/// Re-evaluated prefix lengths per band, evenly spaced.
const REEVAL_PER_BAND: usize = 8;

/// The workload's seeded request inputs: one token sequence per session.
pub struct Decode {
    seqs: Vec<Vec<usize>>,
}

impl Decode {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = models::transformer_config().vocab;
        let seqs = (0..SEQS)
            .map(|_| (0..SEQ).map(|_| rng.gen_range(0..vocab)).collect())
            .collect();
        Self { seqs }
    }

    fn seq(&self, s: usize) -> &[usize] {
        &self.seqs[s % SEQS]
    }
}

/// Op `i` is step `i % SEQ` (0-based) of session `i / SEQ`.
fn session_step(i: u64) -> (usize, usize) {
    ((i / SEQ as u64) as usize, (i % SEQ as u64) as usize)
}

/// One step and its wait, or `None` if either failed.
fn step(
    dec: &DecodeSession<'_, TransformerClassifier>,
    token: usize,
    tracer: &mut Tracer,
    i: u64,
) -> Option<Vec<f32>> {
    let pending = match tracer.span("decode.step", i, || dec.step(vec![token])) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("decode_long: op {i} step failed: {e:?}");
            return None;
        }
    };
    match tracer.span("decode.wait", i, || pending.wait()) {
        Ok(row) => Some(row),
        Err(e) => {
            eprintln!("decode_long: op {i} wait failed: {e:?}");
            None
        }
    }
}

impl Bench for Decode {
    /// One whole session, so every position weighs the same.
    const ROUND: usize = SEQ;

    /// Model, conversion, runtime, a decode session and one warm-up step;
    /// the session is closed before `then`.
    fn serve<R>(
        &self,
        tracer: &mut Tracer,
        op: u64,
        then: impl FnOnce(&mut dyn Served, &mut Tracer) -> R,
    ) -> Result<(f64, R), String> {
        let t0 = Instant::now();
        let (net, ps) = models::transformer(tracer, op);
        let mut rt = models::runtime(0);
        let dec = tracer
            .span("runtime.build", op, || rt.serve(&net, &ps).build_decode())
            .map_err(|e| format!("decode_long: {e:?}"))?;
        step(&dec, self.seq(0)[0], tracer, op).ok_or("decode_long: warm-up step failed")?;
        drop(dec);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut served = DecodeServed {
            inputs: self,
            rt,
            net: &net,
            ps: &ps,
            dec: None,
        };
        Ok((setup_s, then(&mut served, tracer)))
    }

    /// The logits at every checked position must equal a fresh
    /// full-prefix `ModelSession` evaluation.
    fn check(&self, outputs: &Outputs) -> Result<u64, String> {
        let (net, ps) = models::transformer(&mut Tracer::new(false), 0);
        let mut rt = models::runtime(0);
        let session = rt.serve(&net, &ps).build_model();
        let mut mismatched = 0;
        for &(i, got) in outputs {
            let (s, p) = session_step(i);
            let prefix = self.seq(s)[..=p].to_vec();
            let want = session
                .run([prefix])
                .map_err(|e| format!("decode_long: reference evaluation failed: {e:?}"))?;
            if got != Digest::of([want.data()]) {
                eprintln!(
                    "decode_long: session {s} position {} differs from a full re-eval",
                    p + 1
                );
                mismatched += 1;
            }
        }
        Ok(mismatched)
    }
}

struct DecodeServed<'m> {
    inputs: &'m Decode,
    rt: LutRuntime,
    net: &'m TransformerClassifier,
    ps: &'m ParamSet,
    /// The open session; a new one opens at every session's first step.
    dec: Option<DecodeSession<'m, TransformerClassifier>>,
}

impl Served for DecodeServed<'_> {
    fn op(&mut self, tracer: &mut Tracer, i: u64, outputs: &mut Outputs) -> OpResult {
        let (s, p) = session_step(i);
        if p == 0 {
            // Close the last session first: dropping a session hands its
            // model's layers back to training-mode forwards, which would
            // silently change the logits of a session opened before it.
            self.dec = None;
            self.dec = self
                .rt
                .serve(self.net, self.ps)
                .build_decode()
                .map_err(|e| eprintln!("decode_long: session {s} refused: {e:?}"))
                .ok();
        }
        let token = self.inputs.seq(s)[p];
        let span = tracer.begin("op", i);
        let t = Instant::now();
        let row = self
            .dec
            .as_ref()
            .and_then(|dec| step(dec, token, tracer, i));
        let ms = ms_since(t);
        tracer.end(span);
        if let Some(row) = &row {
            if CHECKED.contains(&(p + 1)) {
                outputs.push((i, Digest::of([&row[..]])));
            }
        }
        OpResult {
            ms,
            items: 1,
            ok: row.is_some(),
        }
    }

    /// Step time per prefix band against a fresh full-prefix evaluation,
    /// and engine replays of the step at position [`REPLAY_POS`].
    fn layers(
        &mut self,
        tracer: &mut Tracer,
        _plain: &Phase,
        traced: &Phase,
        layers: &mut Layers,
        _outputs: &mut Outputs,
    ) -> Result<Extra, String> {
        self.dec = None;
        self.bands(tracer, traced, layers)?;
        // The encode walks only the new token's row; the lookup covers
        // the whole prefix.
        let prefix = &self.inputs.seq(0)[..REPLAY_POS];
        let captured = self.net.capture_gemm_inputs(self.ps, prefix, 1, REPLAY_POS);
        let replays = replay_units(
            &self.net.dense_units(),
            &captured,
            self.ps,
            models::deploy_config(),
            Some(1),
            tracer,
            REPLAY_OP,
        );
        Ok(Extra {
            replays,
            phases: Vec::new(),
        })
    }
}

impl DecodeServed<'_> {
    /// Per band: the median step time of the `traced` phase, the median
    /// time of a fresh full-prefix evaluation at evenly spaced prefix
    /// lengths in the band, and their ratio. A failed evaluation fails
    /// the run.
    fn bands(
        &mut self,
        tracer: &mut Tracer,
        traced: &Phase,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let session = self.rt.serve(self.net, self.ps).build_model();
        let seq = self.inputs.seq(0);
        let steps = traced.op_ms();
        for band in BANDS {
            let step_ms: Vec<f64> = steps
                .iter()
                .filter(|&&(i, _)| (band.0..=band.1).contains(&(session_step(i).1 + 1)))
                .map(|&(_, ms)| ms)
                .collect();
            let stride = (band.1 - band.0 + 1) / REEVAL_PER_BAND;
            let mut reeval_ms = Vec::with_capacity(REEVAL_PER_BAND);
            for j in 0..REEVAL_PER_BAND {
                let prefix = seq[..band.0 + stride * j + stride - 1].to_vec();
                let t = Instant::now();
                tracer
                    .span("decode.reeval", REPLAY_OP, || session.run([prefix]))
                    .map_err(|e| format!("decode_long: full-prefix evaluation failed: {e:?}"))?;
                reeval_ms.push(ms_since(t));
            }
            let name = band_name(band);
            let (step, reeval) = (median(&step_ms), median(&reeval_ms));
            layers.set(format!("decode.step_ms.{name}"), step, step_ms.len());
            layers.set(format!("decode.reeval_ms.{name}"), reeval, reeval_ms.len());
            layers.set(
                format!("decode.reuse_speedup.{name}"),
                reeval / step.max(1e-9),
                step_ms.len(),
            );
        }
        Ok(())
    }
}

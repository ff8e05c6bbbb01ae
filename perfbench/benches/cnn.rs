//! `cnn_batch`: offline batch inference. One op is one
//! `ModelSession::run` over 32 distinct images from a seeded pool of 512,
//! through a converted ConvNet at BF16+INT8 with the encode memo off.
//!
//! Loads: LUT encode and lookup, the dense conv path, session glue.
//! Bypasses: the gateway, the memo, decode.

use std::time::Instant;

use lutdla_lutboost::ModelSession;
use lutdla_models::trainable::ConvNet;
use lutdla_nn::ParamSet;
use lutdla_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::models;
use crate::replay::replay_units;
use crate::trace::Tracer;
use crate::{ms_since, Bench, Digest, Extra, Layers, OpResult, Outputs, Phase, Served, REPLAY_OP};

pub const POOL: usize = 512;
pub const BATCH: usize = 32;
/// Ops drawn up front; a run that gets further wraps around.
const SCHEDULE: usize = 2048;
const MODEL_SEED: u64 = 101;

/// The workload's seeded request inputs: an image pool and, per op,
/// which images.
pub struct Cnn {
    pool: Vec<Tensor>,
    ops: Vec<Vec<usize>>,
}

impl Cnn {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = models::image_pool(&mut rng, POOL);
        let ops = (0..SCHEDULE)
            .map(|_| models::distinct(&mut rng, POOL, BATCH))
            .collect();
        Self { pool, ops }
    }

    fn op(&self, i: u64) -> &[usize] {
        &self.ops[i as usize % SCHEDULE]
    }

    fn images(&self, i: u64) -> Vec<Tensor> {
        self.op(i).iter().map(|&j| self.pool[j].clone()).collect()
    }
}

impl Bench for Cnn {
    const ROUND: usize = 1;

    /// Model, conversion, runtime, session, one warm-up op.
    fn serve<R>(
        &self,
        tracer: &mut Tracer,
        op: u64,
        then: impl FnOnce(&mut dyn Served, &mut Tracer) -> R,
    ) -> Result<(f64, R), String> {
        let t0 = Instant::now();
        let (net, ps) = models::convnet(MODEL_SEED, tracer, op);
        let mut rt = models::runtime(0);
        let session = tracer.span("runtime.build", op, || rt.serve(&net, &ps).build_model());
        session
            .run(self.images(op))
            .map_err(|e| format!("cnn_batch: warm-up op failed: {e:?}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        let mut served = CnnServed {
            inputs: self,
            session,
            net: &net,
            ps: &ps,
        };
        Ok((setup_s, then(&mut served, tracer)))
    }

    /// Every op's logits must equal, row by row, solo (batch-1) runs of
    /// the same images.
    fn check(&self, outputs: &Outputs) -> Result<u64, String> {
        let (net, ps) = models::convnet(MODEL_SEED, &mut Tracer::new(false), 0);
        let mut rt = models::runtime(0);
        let session = rt.serve(&net, &ps).build_model();
        let refs: Vec<Vec<f32>> = self
            .pool
            .iter()
            .map(|img| session.run([img.clone()]).map(|t| t.data().to_vec()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cnn_batch: reference run failed: {e:?}"))?;
        let mut mismatched = 0;
        for &(i, got) in outputs {
            if got != Digest::of(self.op(i).iter().map(|&img| &refs[img][..])) {
                eprintln!("cnn_batch: op {i} logits differ from solo runs");
                mismatched += 1;
            }
        }
        Ok(mismatched)
    }
}

struct CnnServed<'m> {
    inputs: &'m Cnn,
    session: ModelSession<'m, ConvNet>,
    net: &'m ConvNet,
    ps: &'m ParamSet,
}

impl Served for CnnServed<'_> {
    fn op(&mut self, tracer: &mut Tracer, i: u64, outputs: &mut Outputs) -> OpResult {
        let images = self.inputs.images(i);
        let span = tracer.begin("op", i);
        let t = Instant::now();
        let res = tracer.span("session.run", i, || self.session.run(images));
        let ms = ms_since(t);
        tracer.end(span);
        let ok = match res {
            Ok(logits) => {
                outputs.push((i, Digest::of([logits.data()])));
                true
            }
            Err(e) => {
                eprintln!("cnn_batch: op {i} failed: {e:?}");
                false
            }
        };
        OpResult {
            ms,
            items: BATCH as u64,
            ok,
        }
    }

    /// Replays op 0's captured stage inputs through standalone engines.
    fn layers(
        &mut self,
        tracer: &mut Tracer,
        _plain: &Phase,
        _traced: &Phase,
        _layers: &mut Layers,
        _outputs: &mut Outputs,
    ) -> Result<Extra, String> {
        let pool = &self.inputs.pool;
        let images: Vec<&Tensor> = self.inputs.op(0).iter().map(|&j| &pool[j]).collect();
        let captured = self
            .net
            .capture_gemm_inputs(self.ps, models::stack(&images));
        let replays = replay_units(
            &self.net.dense_units(),
            &captured,
            self.ps,
            models::deploy_config(),
            None,
            tracer,
            REPLAY_OP,
        );
        Ok(Extra {
            replays,
            phases: Vec::new(),
        })
    }
}

//! `gateway_mixed`: online multi-tenant serving. Two independently seeded
//! converted ConvNets sit behind one `ServeGateway`, each with three
//! tenants (one per SLO class, default policies), on a runtime whose
//! per-stage encode memo holds 16384 rows. One op submits one request to
//! each of the six tenants, drains, and waits for all six. Half of the
//! requests repeat one of four hot images; the other half come from a
//! pool of 512 fresh images.
//!
//! Loads: admission, pump rounds, stage hand-offs, memo probes, and the
//! engines at small batch (three images per model per flush).
//! Bypasses: decode.

use std::time::Instant;

use lutdla_lutboost::{GatewayOptions, LutRuntime, ModelId, ServeGateway, SloClass, TenantId};
use lutdla_models::trainable::ConvNet;
use lutdla_nn::ParamSet;
use lutdla_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::models;
use crate::replay::{merge, replay_units};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{
    closed_loop, ms_since, Bench, Digest, Extra, Layers, OpResult, Outputs, Phase, Served,
    REPLAY_OP,
};

pub const MEMO_ROWS: usize = 16384;
const POOL: usize = 512;
const HOT: usize = 4;
/// Requests per op: one per tenant.
const TENANTS: usize = 6;
const SCHEDULE: usize = 8192;
const MODEL_SEEDS: [u64; 2] = [101, 102];

/// The workload's seeded request inputs.
pub struct Gateway {
    /// The hot set (`0..HOT`), then the fresh pool.
    images: Vec<Tensor>,
    /// Per op, the image index of each tenant's request.
    ops: Vec<[usize; TENANTS]>,
}

impl Gateway {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let images = models::image_pool(&mut rng, HOT + POOL);
        let ops = (0..SCHEDULE)
            .map(|_| {
                // Exactly half of the tenants get a hot image.
                let hot = models::distinct(&mut rng, TENANTS, TENANTS / 2);
                std::array::from_fn(|t| {
                    if hot.contains(&t) {
                        rng.gen_range(0..HOT)
                    } else {
                        HOT + rng.gen_range(0..POOL)
                    }
                })
            })
            .collect();
        Self { images, ops }
    }

    fn op(&self, i: u64) -> &[usize; TENANTS] {
        &self.ops[i as usize % SCHEDULE]
    }

    /// [`Bench::serve`] on a runtime whose encode memo holds `memo_rows`
    /// rows per stage: both models, conversion, the gateway and its
    /// tenants, one warm-up op.
    fn serve_memo<R>(
        &self,
        memo_rows: usize,
        tracer: &mut Tracer,
        op: u64,
        then: impl FnOnce(&mut dyn Served, &mut Tracer) -> R,
    ) -> Result<(f64, R), String> {
        let t0 = Instant::now();
        let nets: Vec<(ConvNet, ParamSet)> = MODEL_SEEDS
            .iter()
            .map(|&s| models::convnet(s, tracer, op))
            .collect();
        let mut rt = models::runtime(memo_rows);
        let (gw, tenants) = gateway(&mut rt, &nets, tracer, op);
        let mut served = GatewayServed {
            inputs: self,
            gw,
            tenants,
            nets: &nets,
        };
        served
            .serve_op(tracer, op)
            .ok_or("gateway_mixed: warm-up op failed")?;
        let setup_s = t0.elapsed().as_secs_f64();
        Ok((setup_s, then(&mut served, tracer)))
    }

    /// Share of the requests of ops `0..ops` that repeat a hot image.
    fn dup_share(&self, ops: u64) -> f64 {
        let (mut hot, mut all) = (0usize, 0usize);
        for i in 0..ops {
            for &r in self.op(i) {
                hot += usize::from(r < HOT);
                all += 1;
            }
        }
        hot as f64 / all.max(1) as f64
    }
}

/// The tenants in registration order: three per model, one per class.
fn tenant_model(t: usize) -> usize {
    t / 3
}

/// Registers both models and their six tenants, inside `runtime.build`
/// spans around each `register_model`.
fn gateway<'m>(
    rt: &mut LutRuntime,
    nets: &'m [(ConvNet, ParamSet)],
    tracer: &mut Tracer,
    op: u64,
) -> (ServeGateway<'m, ConvNet>, Vec<TenantId>) {
    let mut gw = ServeGateway::new(GatewayOptions::new(models::deploy_config()));
    let ids: Vec<ModelId> = nets
        .iter()
        .enumerate()
        .map(|(m, (net, ps))| {
            tracer.span("runtime.build", op, || {
                gw.register_model(rt, &format!("convnet{m}"), net, ps)
            })
        })
        .collect();
    let tenants = (0..TENANTS)
        .map(|t| {
            let class = SloClass::ALL[t % 3];
            gw.register_tenant(&format!("tenant{t}"), ids[tenant_model(t)], class)
        })
        .collect();
    (gw, tenants)
}

impl Bench for Gateway {
    const ROUND: usize = 1;

    fn serve<R>(
        &self,
        tracer: &mut Tracer,
        op: u64,
        then: impl FnOnce(&mut dyn Served, &mut Tracer) -> R,
    ) -> Result<(f64, R), String> {
        self.serve_memo(MEMO_ROWS, tracer, op, then)
    }

    /// Every request's logits must equal a solo (batch-1) run of its
    /// image on a memo-off copy of its model.
    fn check(&self, outputs: &Outputs) -> Result<u64, String> {
        let refs: Vec<Vec<Vec<f32>>> = MODEL_SEEDS
            .iter()
            .map(|&seed| {
                let (net, ps) = models::convnet(seed, &mut Tracer::new(false), 0);
                let mut rt = models::runtime(0);
                let session = rt.serve(&net, &ps).build_model();
                self.images
                    .iter()
                    .map(|img| session.run([img.clone()]).map(|t| t.data().to_vec()))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("gateway_mixed: reference run failed: {e:?}"))?;
        let mut mismatched = 0;
        for &(i, got) in outputs {
            let want = self
                .op(i)
                .iter()
                .enumerate()
                .map(|(t, &img)| &refs[tenant_model(t)][img][..]);
            if got != Digest::of(want) {
                eprintln!("gateway_mixed: op {i} logits differ from solo runs");
                mismatched += 1;
            }
        }
        Ok(mismatched)
    }
}

struct GatewayServed<'m> {
    inputs: &'m Gateway,
    gw: ServeGateway<'m, ConvNet>,
    tenants: Vec<TenantId>,
    nets: &'m [(ConvNet, ParamSet)],
}

impl GatewayServed<'_> {
    /// Six submits, a drain, six waits. Returns the six logits rows, or
    /// `None` if a request was refused or lost.
    fn serve_op(&self, tracer: &mut Tracer, i: u64) -> Option<Vec<Vec<f32>>> {
        let images: Vec<Tensor> = self
            .inputs
            .op(i)
            .iter()
            .map(|&r| self.inputs.images[r].clone())
            .collect();
        let span = tracer.begin("op", i);
        let mut handles = Vec::with_capacity(TENANTS);
        for (&tenant, image) in self.tenants.iter().zip(images) {
            match tracer.span("gateway.submit", i, || self.gw.submit(tenant, image)) {
                Ok(h) => handles.push(h),
                Err(e) => eprintln!("gateway_mixed: op {i} submit refused: {e:?}"),
            }
        }
        tracer.span("gateway.drain", i, || self.gw.drain());
        let mut rows = Vec::with_capacity(TENANTS);
        for h in handles {
            match tracer.span("gateway.wait", i, || h.wait()) {
                Ok(r) => rows.push(r),
                Err(e) => eprintln!("gateway_mixed: op {i} wait failed: {e:?}"),
            }
        }
        tracer.end(span);
        (rows.len() == TENANTS).then_some(rows)
    }
}

impl Served for GatewayServed<'_> {
    fn op(&mut self, tracer: &mut Tracer, i: u64, outputs: &mut Outputs) -> OpResult {
        let t = Instant::now();
        let rows = self.serve_op(tracer, i);
        let ms = ms_since(t);
        if let Some(rows) = &rows {
            outputs.push((i, Digest::of(rows.iter().map(|r| &r[..]))));
        }
        OpResult {
            ms,
            items: TENANTS as u64,
            ok: rows.is_some(),
        }
    }

    /// The gateway call spans, the memo's saving against the same op
    /// sequence on a memo-off runtime, and engine replays of op 0 for
    /// both models.
    fn layers(
        &mut self,
        tracer: &mut Tracer,
        plain: &Phase,
        _traced: &Phase,
        layers: &mut Layers,
        outputs: &mut Outputs,
    ) -> Result<Extra, String> {
        for (span, metric, scale) in [
            ("gateway.submit", "gateway.submit_us", 1e3),
            ("gateway.drain", "gateway.drain_ms", 1.0),
            ("gateway.wait", "gateway.wait_us", 1e3),
        ] {
            let d = tracer.durations_ms(span);
            layers.set(metric, median(&d) * scale, d.len());
        }
        let secs = plain.wall_s();
        tracer.set_enabled(false);
        let (_, off) = self
            .inputs
            .serve_memo(0, tracer, REPLAY_OP, |served, tracer| {
                closed_loop(secs, Gateway::ROUND, 0, |i| served.op(tracer, i, outputs))
            })?;
        tracer.set_enabled(true);
        layers.set("memo.saved_ms", off.p50() - plain.p50(), off.completed());
        let requests = plain.attempted() as usize * TENANTS;
        layers.set(
            "memo.dup_share",
            self.inputs.dup_share(plain.attempted()),
            requests,
        );
        let mut replays = Vec::new();
        for (m, (net, ps)) in self.nets.iter().enumerate() {
            let images: Vec<&Tensor> = self
                .inputs
                .op(0)
                .iter()
                .enumerate()
                .filter(|(t, _)| tenant_model(*t) == m)
                .map(|(_, &r)| &self.inputs.images[r])
                .collect();
            let captured = net.capture_gemm_inputs(ps, models::stack(&images));
            let units = net.dense_units();
            let more = replay_units(
                &units,
                &captured,
                ps,
                models::deploy_config(),
                None,
                tracer,
                REPLAY_OP,
            );
            merge(&mut replays, more);
        }
        Ok(Extra {
            replays,
            phases: vec![off],
        })
    }
}

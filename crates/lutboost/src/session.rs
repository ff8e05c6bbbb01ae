//! `ModelSession`: the whole-model serving front door — one `submit(input)`
//! queues a single request, and each flush runs **every** layer of the
//! model over the queued batch and resolves a [`Pending`] handle per
//! request with its logits.
//!
//! [`crate::LutRuntime::serve_layer`] serves one layer's engine;
//! `ModelSession` closes the loop on the paper's end-to-end story (every
//! dense unit of a model lowered onto the LUTMM fabric) by compiling a
//! model's ordered unit walk into a [`UnitPlan`] per dense unit:
//!
//! * **LUT units** resolve their engine through the runtime's LRU cache
//!   (zero re-tiling at an unchanged parameter version) and call it
//!   directly, on the flushing thread, through one
//!   [`lutdla_vq::EngineStage`] per stage — each layer's encode feeds its
//!   lookup with no queue in between, as in LUT-DLA's CCM→IMM datapath.
//!   The stage counts every call ([`ModelSession::stage_stats`]).
//! * **Dense units** (stem/head layers the convert policy kept dense, bias
//!   adds, batch norm, residuals, attention, pooling) run through the
//!   model's own eval forward, so the session replays *exactly* what
//!   `eval_images`/`eval_seq` compute over a deployed model.
//!
//! Submissions coalesce at the front door: requests queue until 64 are
//! pending (or [`ModelSession::flush`] / a batch-incompatible request /
//! session drop forces a flush), then one eval-mode forward serves the
//! whole batch. Because every per-example computation is batch-grouping
//! independent (see [`ServableModel::forward_logits`]), the logits a handle
//! resolves with are **bit-identical** to any other batching of the same
//! example — including the plain `deploy` + `eval_*` path.
//!
//! [`DecodeSession`] is the token-streaming twin over the same compiled
//! plan: each step runs only the new tokens' rows through the model
//! ([`ServableModel::decode_step`]), so every LUT stage encodes and looks
//! up just those rows while attention reads the session's key/value
//! cache of earlier positions.
//!
//! A session installs its routes on the model's LUT layers only for the
//! span of one forward: each flush (and each [`DecodeSession::step`])
//! swaps the session's routes in and restores whatever the layers held
//! before, also when the forward unwinds. Building a session starts no
//! thread and touches no layer, so any number of sessions — at different
//! numerics, next to a live [`crate::LutRuntime::deploy`] — can serve one
//! model side by side.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use lutdla_models::trainable::{DecodeCache, ServableModel};
use lutdla_nn::ParamSet;
use lutdla_tensor::Tensor;
use lutdla_vq::{EngineStage, Pending, PendingResolver, ServeError, StageStats};

use crate::deploy::UnitPlan;
use crate::lut_gemm::{InstalledRoutes, LutGemm};

/// Front-door coalescing width of a [`ModelSession`], in requests.
const MAX_BATCH: usize = 64;

/// The whole-model serving session. See the module docs.
pub struct ModelSession<'m, M: ServableModel> {
    model: &'m M,
    ps: &'m ParamSet,
    plan: Vec<UnitPlan>,
    /// The route of every LUT layer, installed for each flush's forward.
    routes: Vec<(&'m LutGemm, Arc<EngineStage>)>,
    classes: usize,
    queue: RefCell<Vec<(M::Input, PendingResolver)>>,
    batches: Cell<usize>,
    rows: Cell<usize>,
}

impl<'m, M: ServableModel> ModelSession<'m, M> {
    /// Called by [`crate::SessionBuilder::build_model`] with the compiled
    /// plan and the LUT layers' routes (engines already resolved through
    /// the cache).
    pub(crate) fn new(
        model: &'m M,
        ps: &'m ParamSet,
        plan: Vec<UnitPlan>,
        routes: Vec<(&'m LutGemm, Arc<EngineStage>)>,
    ) -> Self {
        Self {
            model,
            ps,
            plan,
            routes,
            classes: model.num_classes(),
            queue: RefCell::new(Vec::new()),
            batches: Cell::new(0),
            rows: Cell::new(0),
        }
    }

    /// Submits one inference request; returns a handle that resolves with
    /// the final logits row (length [`ModelSession::num_classes`]) once a
    /// forward batch containing it has run.
    ///
    /// The request joins the open batch unless it cannot share one forward
    /// with what is queued (e.g. a different sequence length), in which
    /// case the open batch flushes first. Reaching 64 queued requests
    /// flushes automatically; [`ModelSession::flush`] forces a
    /// partial batch out.
    pub fn submit(&self, input: M::Input) -> Result<Pending, ServeError> {
        self.model
            .validate_input(&input)
            .map_err(ServeError::InvalidInput)?;
        let incompatible = {
            let q = self.queue.borrow();
            q.first()
                .is_some_and(|(first, _)| !self.model.batch_compatible(first, &input))
        };
        if incompatible {
            self.flush();
        }
        let (resolver, pending) = Pending::channel();
        let full = {
            let mut q = self.queue.borrow_mut();
            q.push((input, resolver));
            q.len() >= MAX_BATCH
        };
        if full {
            self.flush();
        }
        Ok(pending)
    }

    /// Runs the queued requests through one eval-mode forward and resolves
    /// their handles. A no-op on an empty queue.
    pub fn flush(&self) {
        let drained: Vec<(M::Input, PendingResolver)> = self.queue.borrow_mut().drain(..).collect();
        if drained.is_empty() {
            return;
        }
        let (inputs, resolvers): (Vec<M::Input>, Vec<PendingResolver>) =
            drained.into_iter().unzip();
        let logits = {
            let _routes = InstalledRoutes::install(&self.routes, self.ps.version());
            self.model.forward_logits(self.ps, &inputs)
        };
        debug_assert_eq!(logits.dims(), &[inputs.len(), self.classes]);
        self.batches.set(self.batches.get() + 1);
        self.rows.set(self.rows.get() + inputs.len());
        let n = self.classes;
        // One resolution stamp per coalesced batch: every handle in this
        // flush reports the same resolve instant in its `ServeTiming`.
        let resolved_at = std::time::Instant::now();
        for (i, resolver) in resolvers.into_iter().enumerate() {
            resolver.resolve_at(logits.data()[i * n..(i + 1) * n].to_vec(), resolved_at);
        }
    }

    /// Convenience batch entry point: submits every input, flushes, and
    /// returns the stacked `[batch, classes]` logits. Errors on an empty
    /// input set ([`ServeError::EmptyRun`]).
    pub fn run(&self, inputs: impl IntoIterator<Item = M::Input>) -> Result<Tensor, ServeError> {
        let handles: Vec<Pending> = inputs
            .into_iter()
            .map(|input| self.submit(input))
            .collect::<Result<_, _>>()?;
        if handles.is_empty() {
            return Err(ServeError::EmptyRun);
        }
        self.flush();
        let mut data = Vec::with_capacity(handles.len() * self.classes);
        let m = handles.len();
        for h in handles {
            // `flush` resolves every queued handle, so a lost one means a
            // forward unwound mid-flush: propagate instead of panicking on
            // the serving path.
            data.extend(h.wait().map_err(|_| ServeError::Lost)?);
        }
        Ok(Tensor::from_vec(data, &[m, self.classes]))
    }

    /// The compiled per-unit plan, in forward order.
    pub fn plan(&self) -> &[UnitPlan] {
        &self.plan
    }

    /// Per-stage serving counters, in forward order: `(unit name, stats)`
    /// for every LUT stage ([`UnitPlan::stage_stats`]); dense units are
    /// skipped.
    pub fn stage_stats(&self) -> Vec<(&str, StageStats)> {
        stage_stats(&self.plan)
    }

    /// How many stages run on LUT engines (the rest take the dense path).
    pub fn lut_stages(&self) -> usize {
        self.plan.iter().filter(|p| p.is_lut()).count()
    }

    /// Final logits width.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Requests queued but not yet flushed.
    pub fn queued(&self) -> usize {
        self.queue.borrow().len()
    }

    /// Coalesced forward batches run so far.
    pub fn batches_run(&self) -> usize {
        self.batches.get()
    }

    /// Requests served so far.
    pub fn rows_served(&self) -> usize {
        self.rows.get()
    }
}

impl<M: ServableModel> Drop for ModelSession<'_, M> {
    fn drop(&mut self) {
        // Serve what is still queued. The session left nothing on the
        // layers, and its engines survive in the runtime cache, so the next
        // session at this parameter version re-tiles nothing.
        self.flush();
    }
}

/// Per-stage counters of a compiled plan, in forward order: `(unit name,
/// stats)` for every LUT stage; dense units are skipped.
fn stage_stats(plan: &[UnitPlan]) -> Vec<(&str, StageStats)> {
    plan.iter()
        .filter_map(|p| p.stage_stats().map(|s| (p.name(), s)))
        .collect()
}

/// Incremental autoregressive serving session: the token-streaming
/// counterpart of [`ModelSession`], built by
/// [`crate::SessionBuilder::build_decode`] over the same compiled plan.
///
/// [`DecodeSession::step`] runs only the step's new token(s) through the
/// model ([`ServableModel::decode_step`]): every LUT stage encodes and
/// looks up only the new rows, and attention reads the session's
/// [`DecodeCache`] of earlier positions' key and value rows. The cost of
/// a step therefore grows only with the O(positions · d) attention and
/// pooling over the cached rows, not with a whole-prefix forward.
///
/// Step `N`'s logits are **bit-identical** to a fresh full-sequence
/// [`ModelSession`] eval of the same `N`-token prefix — for every prefix
/// length and every deployment numerics combo (the argument is in
/// [`ServableModel::decode_step`]'s docs). Only models with an
/// incremental-forward contract ([`ServableModel::decode_contract`], e.g.
/// a causal transformer) can be served.
///
/// Like [`ModelSession`], a decode session installs its routes only for
/// the span of each step's forward, so it can share its model with other
/// live sessions.
pub struct DecodeSession<'m, M: ServableModel> {
    model: &'m M,
    ps: &'m ParamSet,
    plan: Vec<UnitPlan>,
    /// The route of every LUT layer, installed for each step's forward.
    routes: Vec<(&'m LutGemm, Arc<EngineStage>)>,
    classes: usize,
    cache: RefCell<DecodeCache>,
    steps: Cell<usize>,
}

impl<'m, M: ServableModel> DecodeSession<'m, M> {
    /// Called by [`crate::SessionBuilder::build_decode`] with the compiled
    /// plan and the LUT layers' routes (engines resolved through the
    /// cache).
    pub(crate) fn new(
        model: &'m M,
        ps: &'m ParamSet,
        plan: Vec<UnitPlan>,
        routes: Vec<(&'m LutGemm, Arc<EngineStage>)>,
    ) -> Self {
        Self {
            model,
            ps,
            plan,
            routes,
            classes: model.num_classes(),
            cache: RefCell::new(DecodeCache::default()),
            steps: Cell::new(0),
        }
    }

    /// Extends the sequence with `step` (one or more new tokens) and runs
    /// one incremental forward over just those positions. The returned
    /// handle is already resolved — with the grown prefix's logits row
    /// (length [`DecodeSession::num_classes`]) and this step's timing
    /// stamp — so `wait()` never blocks; the `Pending` form keeps decode
    /// steps composable with the rest of the serving surface
    /// ([`Pending::chain`], gateway relays, latency accounting).
    ///
    /// A step the model rejects (an empty step, an out-of-vocabulary
    /// token, a sequence past the model's maximum length) fails with
    /// [`ServeError::InvalidInput`] and leaves the prefix unchanged: the
    /// session's cache grows only once the forward has returned.
    pub fn step(&self, step: M::Input) -> Result<Pending, ServeError> {
        let logits = {
            let _routes = InstalledRoutes::install(&self.routes, self.ps.version());
            let mut cache = self.cache.borrow_mut();
            self.model
                .decode_step(self.ps, &mut cache, &step)
                .map_err(ServeError::InvalidInput)?
        };
        debug_assert_eq!(logits.dims(), &[1, self.classes]);
        self.steps.set(self.steps.get() + 1);
        let (resolver, pending) = Pending::channel();
        resolver.resolve_at(
            logits.data()[..self.classes].to_vec(),
            std::time::Instant::now(),
        );
        Ok(pending)
    }

    /// Steps served so far.
    pub fn steps(&self) -> usize {
        self.steps.get()
    }

    /// Positions (tokens) in the current prefix — `0` before the first
    /// step.
    pub fn prefix_positions(&self) -> usize {
        self.cache.borrow().positions()
    }

    /// The compiled per-unit plan, in forward order.
    pub fn plan(&self) -> &[UnitPlan] {
        &self.plan
    }

    /// How many stages run on LUT engines (the rest take the dense path).
    pub fn lut_stages(&self) -> usize {
        self.plan.iter().filter(|p| p.is_lut()).count()
    }

    /// Final logits width.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Per-stage serving counters, in forward order — the same shape as
    /// [`ModelSession::stage_stats`]. A one-token step adds exactly one
    /// row to every LUT stage.
    pub fn stage_stats(&self) -> Vec<(&str, StageStats)> {
        stage_stats(&self.plan)
    }
}

impl<M: ServableModel> std::fmt::Debug for DecodeSession<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeSession")
            .field("units", &self.plan.len())
            .field("lut_stages", &self.lut_stages())
            .field("classes", &self.classes)
            .field("steps", &self.steps())
            .field("prefix_positions", &self.prefix_positions())
            .finish()
    }
}

impl<M: ServableModel> std::fmt::Debug for ModelSession<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSession")
            .field("units", &self.plan.len())
            .field("lut_stages", &self.lut_stages())
            .field("classes", &self.classes)
            .field("queued", &self.queued())
            .field("batches_run", &self.batches_run())
            .field("rows_served", &self.rows_served())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{lutify_convnet, lutify_transformer, CentroidInit, ConvertPolicy};
    use crate::deploy::{undeploy_units, DeployConfig};
    use crate::lut_gemm::LutConfig;
    use crate::runtime::LutRuntime;
    use lutdla_models::trainable::{
        distilbert_mini, gpt_mini, resnet20_mini, ConvNet, TransformerClassifier,
    };
    use lutdla_nn::{Graph, ImageModel, SeqModel};
    use lutdla_vq::{FloatPrecision, LutQuant};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every deployment-numerics combination the paper's Table IV spans.
    fn all_combos() -> Vec<DeployConfig> {
        let quants = [LutQuant::F32, LutQuant::F16, LutQuant::Int8];
        let precisions = [
            FloatPrecision::Fp32,
            FloatPrecision::Bf16,
            FloatPrecision::Fp16,
        ];
        quants
            .iter()
            .flat_map(|&lut_quant| {
                precisions.iter().map(move |&precision| DeployConfig {
                    lut_quant,
                    precision,
                })
            })
            .collect()
    }

    fn converted_convnet() -> (ParamSet, ConvNet, Tensor) {
        let mut rng = StdRng::seed_from_u64(130);
        let mut ps = ParamSet::new();
        let mut net = resnet20_mini(&mut ps, 4);
        let images = Tensor::randn(&mut rng, &[6, 3, 16, 16], 1.0);
        let _ = lutify_convnet(
            &mut net,
            &mut ps,
            LutConfig::default(),
            CentroidInit::Kmeans,
            ConvertPolicy::default(),
            images.clone(),
            &mut rng,
        );
        (ps, net, images)
    }

    fn converted_transformer() -> (ParamSet, TransformerClassifier, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(131);
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
        (ps, net, tokens)
    }

    fn converted_gpt() -> (ParamSet, TransformerClassifier, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(141);
        let mut ps = ParamSet::new();
        let mut net = gpt_mini(&mut ps, 5);
        let tokens: Vec<usize> = (0..6 * 16).map(|i| (i * 11 + 2) % 64).collect();
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
        (ps, net, tokens)
    }

    fn image(images: &Tensor, i: usize) -> Tensor {
        let per = 3 * 16 * 16;
        Tensor::from_vec(images.data()[i * per..(i + 1) * per].to_vec(), &[3, 16, 16])
    }

    /// Acceptance property: `ModelSession::submit` output is bit-identical
    /// to the pre-existing deploy + eval forward for **every**
    /// `LutQuant × FloatPrecision` combo, whether requests share the
    /// reference's batch grouping or arrive one by one.
    #[test]
    fn convnet_session_bit_identical_to_deployed_eval_all_combos() {
        let (ps, net, images) = converted_convnet();
        let m = images.dims()[0];
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        for cfg in all_combos() {
            // Reference: the plain deploy path + batched eval forward.
            rt.deploy_with(net.dense_units(), &ps, cfg);
            let mut g = Graph::new(false);
            let node = ImageModel::logits(&net, &mut g, &ps, images.clone());
            let reference = g.value(node).clone();
            undeploy_units(net.dense_units());
            let n = reference.dims()[1];

            // Whole-model session, same batch grouping.
            let session = rt.serve(&net, &ps).config(cfg).build_model();
            assert!(session.lut_stages() > 0, "nothing planned on engines");
            let grouped = session
                .run((0..m).map(|i| image(&images, i)))
                .expect("valid images");
            assert_eq!(
                grouped.data(),
                reference.data(),
                "{cfg:?}: grouped session diverged"
            );

            // One-by-one submits (each its own forward batch) must still be
            // bit-identical: per-example logits are grouping-independent.
            for i in [0usize, m - 1] {
                let handle = session.submit(image(&images, i)).expect("valid image");
                session.flush();
                let row = handle.wait().expect("session alive");
                assert_eq!(
                    row.as_slice(),
                    &reference.data()[i * n..(i + 1) * n],
                    "{cfg:?}: single-row submit diverged on image {i}"
                );
            }
            drop(session);
        }
    }

    /// The transformer twin of the acceptance property, across all combos.
    #[test]
    fn transformer_session_bit_identical_to_deployed_eval_all_combos() {
        let (ps, net, tokens) = converted_transformer();
        let (batch, seq_len) = (6usize, 16usize);
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        for cfg in all_combos() {
            rt.deploy_with(net.dense_units(), &ps, cfg);
            let mut g = Graph::new(false);
            let node = SeqModel::logits(&net, &mut g, &ps, &tokens, batch, seq_len);
            let reference = g.value(node).clone();
            undeploy_units(net.dense_units());
            let n = reference.dims()[1];

            let session = rt.serve(&net, &ps).config(cfg).build_model();
            assert!(session.lut_stages() > 0, "nothing planned on engines");
            let grouped = session
                .run((0..batch).map(|i| tokens[i * seq_len..(i + 1) * seq_len].to_vec()))
                .expect("valid sequences");
            assert_eq!(
                grouped.data(),
                reference.data(),
                "{cfg:?}: grouped session diverged"
            );

            let handle = session
                .submit(tokens[..seq_len].to_vec())
                .expect("valid sequence");
            session.flush();
            let row = handle.wait().expect("session alive");
            assert_eq!(
                row.as_slice(),
                &reference.data()[..n],
                "{cfg:?}: single submit diverged"
            );
        }
    }

    /// Satellite (ISSUE 5): with N concurrent submitters feeding the
    /// session, every LUT stage's `rows_served` accounts for exactly the
    /// total submitted examples (`images · r_s` rows at stage `s`), and
    /// the per-stage sums stay consistent with the front door and with the
    /// LUT/dense split of the plan.
    #[test]
    fn concurrent_submitters_account_rows_per_stage() {
        let (ps, net, images) = converted_convnet();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let session = rt.serve(&net, &ps).build_model();

        // Calibration: one image's per-stage row footprint.
        let _ = session.run([image(&images, 0)]).expect("valid image");
        let per_image: Vec<usize> = session
            .stage_stats()
            .iter()
            .map(|(_, s)| s.rows_served)
            .collect();

        // N producer threads push images concurrently into a channel; the
        // session thread (below) drains them into submit/flush. The front
        // door itself serializes submits — ModelSession is deliberately
        // !Sync — so what this proves is exact per-stage row accounting
        // under an interleaved multi-producer arrival stream.
        let submitters = 3usize;
        let per_submitter = 4usize;
        let total = submitters * per_submitter;
        let mut handles = Vec::with_capacity(total);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel::<Tensor>();
            for t in 0..submitters {
                let tx = tx.clone();
                let images = &images;
                s.spawn(move || {
                    for i in 0..per_submitter {
                        let idx = (t * per_submitter + i) % images.dims()[0];
                        tx.send(image(images, idx)).expect("session loop alive");
                    }
                });
            }
            drop(tx);
            for input in rx {
                handles.push(session.submit(input).expect("valid image"));
                if handles.len().is_multiple_of(5) {
                    session.flush();
                }
            }
            session.flush();
        });
        for h in handles {
            assert_eq!(h.wait().expect("alive").len(), session.num_classes());
        }

        // Front door: every request served, nothing left queued.
        assert_eq!(session.queued(), 0);
        assert_eq!(session.rows_served(), 1 + total);
        // Per stage: rows_served == images · r_s, exactly.
        let stats = session.stage_stats();
        assert_eq!(stats.len(), session.lut_stages());
        assert_eq!(
            stats.len()
                + session
                    .plan()
                    .iter()
                    .filter(|p| p.stage_stats().is_none())
                    .count(),
            session.plan().len(),
            "every unit is either a LUT stage or dense"
        );
        for ((name, s), &r) in stats.iter().zip(&per_image) {
            assert_eq!(
                s.rows_served,
                (1 + total) * r,
                "stage {name}: lost or double-counted rows"
            );
        }
        // Stage sums are consistent: totals line up across the whole plan.
        let stage_total: usize = stats.iter().map(|(_, s)| s.rows_served).sum();
        let expected_total: usize = per_image.iter().map(|r| (1 + total) * r).sum();
        assert_eq!(stage_total, expected_total);
    }

    #[test]
    fn session_handles_carry_one_resolve_stamp_per_flush() {
        let (ps, net, images) = converted_convnet();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let session = rt.serve(&net, &ps).build_model();
        let before = std::time::Instant::now();
        let h1 = session.submit(image(&images, 0)).expect("valid image");
        let h2 = session.submit(image(&images, 1)).expect("valid image");
        session.flush();
        let (r1, t1) = h1.wait_timed().expect("alive");
        let (r2, t2) = h2.wait_timed().expect("alive");
        assert_eq!(r1.len(), session.num_classes());
        assert_eq!(r2.len(), session.num_classes());
        // Both requests resolved in the same flush: one shared stamp.
        assert_eq!(t1.resolved_at, t2.resolved_at);
        assert!(t1.submitted_at >= before);
        assert!(t1.submitted_at <= t2.submitted_at, "submit order preserved");
        assert!(t2.submitted_at <= t2.resolved_at);
        // Open-loop accounting from an earlier arrival instant only grows.
        assert!(t1.latency_since(before) >= t1.latency());
        // The LUT stages accounted engine service time for the flush.
        for (name, stats) in session.stage_stats() {
            assert!(stats.service_nanos > 0, "stage {name} recorded no time");
        }
    }

    #[test]
    fn session_compiles_lut_and_dense_stages_in_walk_order() {
        let (ps, net, _) = converted_convnet();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let session = rt.serve(&net, &ps).build_model();
        let units = net.dense_units();
        assert_eq!(session.plan().len(), units.len());
        for (plan, unit) in session.plan().iter().zip(&units) {
            assert_eq!(plan.name(), unit.name, "plan order diverged from walk");
            assert_eq!(
                plan.is_lut(),
                crate::convert::as_lut(unit).is_some(),
                "{}: wrong execution route",
                unit.name
            );
        }
        // Default policy keeps stem + head dense: both routes are present.
        assert!(session.lut_stages() > 0);
        assert!(session.lut_stages() < units.len());
    }

    #[test]
    fn submissions_coalesce_until_max_batch_and_stages_serve_blocks() {
        let (ps, net, images) = converted_convnet();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let session = rt.serve(&net, &ps).build_model();
        let handles: Vec<Pending> = (0..3)
            .map(|i| session.submit(image(&images, i)).expect("valid image"))
            .collect();
        // Below max_batch (default 64): nothing has run yet.
        assert_eq!(session.queued(), 3);
        assert_eq!(session.batches_run(), 0);
        session.flush();
        assert_eq!(session.queued(), 0);
        assert_eq!(session.batches_run(), 1, "one coalesced forward expected");
        assert_eq!(session.rows_served(), 3);
        for h in handles {
            assert_eq!(h.wait().expect("alive").len(), session.num_classes());
        }
        // Every LUT stage served its activation block in one engine call —
        // rows flowed through the whole pipeline.
        for plan in session.plan() {
            if let UnitPlan::Lut { name, stage } = plan {
                let stats = stage.stats();
                assert!(
                    stats.rows_served > 0,
                    "stage {name} was bypassed by the pipeline"
                );
                assert_eq!(stats.batches_run, 1, "stage {name}: one call per flush");
            }
        }
    }

    #[test]
    fn incompatible_sequence_lengths_split_batches_transparently() {
        let (ps, net, tokens) = converted_transformer();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let session = rt.serve(&net, &ps).build_model();
        let short = session.submit(tokens[..8].to_vec()).expect("valid");
        // A 16-token request cannot share the 8-token batch: the open batch
        // flushes first, then the new request queues.
        let long = session.submit(tokens[..16].to_vec()).expect("valid");
        assert_eq!(session.batches_run(), 1, "length change must flush");
        assert_eq!(session.queued(), 1);
        session.flush();
        assert_eq!(session.batches_run(), 2);
        assert_eq!(short.wait().expect("alive").len(), 3);
        assert_eq!(long.wait().expect("alive").len(), 3);
    }

    #[test]
    fn drop_flushes_outstanding_requests_and_leaves_layers_untouched() {
        let (ps, net, images) = converted_convnet();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let session = rt.serve(&net, &ps).build_model();
        let deployed = || {
            crate::deploy::lut_layers(net.dense_units())
                .filter(|l| l.deployed_engine().is_some())
                .count()
        };
        // Building the session installed nothing on the layers …
        assert_eq!(deployed(), 0);
        let handle = session.submit(image(&images, 0)).expect("valid image");
        drop(session);
        // … flush-on-drop resolved the handle …
        assert_eq!(handle.wait().expect("resolved on drop").len(), 4);
        // … and the flush put the layers back the way it found them.
        assert_eq!(deployed(), 0, "a flush left its routes installed");
    }

    /// Two live sessions over one model at different numerics never see
    /// each other's routes: interleaved flushes and dropping the older
    /// session leave both bit-identical to their solo references, and a
    /// live `rt.deploy` is still in place after every session flush.
    #[test]
    fn live_sessions_over_one_model_keep_their_own_routes() {
        let (ps, net, images) = converted_convnet();
        let m = images.dims()[0];
        let inputs = || (0..m).map(|i| image(&images, i));
        let (cfg_a, cfg_b) = (DeployConfig::fp32(), DeployConfig::bf16_int8());
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let solo = |rt: &mut LutRuntime, cfg| {
            let session = rt.serve(&net, &ps).config(cfg).build_model();
            session.run(inputs()).expect("valid images")
        };
        let (want_a, want_b) = (solo(&mut rt, cfg_a), solo(&mut rt, cfg_b));
        assert_ne!(want_a.data(), want_b.data(), "configs must differ");

        // A live plain deploy at a third numerics config.
        let cfg_c = DeployConfig {
            lut_quant: LutQuant::F16,
            precision: FloatPrecision::Fp16,
        };
        rt.deploy_with(net.dense_units(), &ps, cfg_c);
        let deployed: Vec<_> = crate::deploy::lut_layers(net.dense_units())
            .map(|l| l.deployed_engine().expect("deployed"))
            .collect();

        let a = rt.serve(&net, &ps).config(cfg_a).build_model();
        let b = rt.serve(&net, &ps).config(cfg_b).build_model();
        for round in 0..2 {
            let got_b = b.run(inputs()).expect("valid images");
            let got_a = a.run(inputs()).expect("valid images");
            assert_eq!(
                got_a.data(),
                want_a.data(),
                "round {round}: session A diverged"
            );
            assert_eq!(
                got_b.data(),
                want_b.data(),
                "round {round}: session B diverged"
            );
        }
        drop(a);
        let got_b = b.run(inputs()).expect("valid images");
        assert_eq!(
            got_b.data(),
            want_b.data(),
            "dropping session A changed session B's logits"
        );
        // The plain deploy survived every flush, engine for engine.
        for (lut, engine) in crate::deploy::lut_layers(net.dense_units()).zip(&deployed) {
            let now = lut.deployed_engine().expect("rt.deploy still in place");
            assert!(std::sync::Arc::ptr_eq(&now, engine), "deploy was replaced");
        }
        undeploy_units(net.dense_units());
    }

    /// A memo-backed runtime serves every `LutQuant × FloatPrecision`
    /// combo bit-identically to a memo-off one, and a repeated image hits
    /// every stage's memo.
    #[test]
    fn memo_backed_session_bit_identical_all_combos_and_hits_on_repeats() {
        let (ps, net, images) = converted_convnet();
        let batch = || [0usize, 1, 0].map(|i| image(&images, i));
        for cfg in all_combos() {
            let mut plain_rt = LutRuntime::new(cfg);
            let want = plain_rt
                .serve(&net, &ps)
                .build_model()
                .run(batch())
                .expect("valid images");
            let mut memo_rt = LutRuntime::with_options(
                cfg,
                crate::runtime::RuntimeOptions {
                    memo_rows: 4096,
                    ..crate::runtime::RuntimeOptions::default()
                },
            );
            let session = memo_rt.serve(&net, &ps).build_model();
            for pass in 0..2 {
                let got = session.run(batch()).expect("valid images");
                assert_eq!(
                    got.data(),
                    want.data(),
                    "{cfg:?}: memo-backed pass {pass} diverged"
                );
            }
            for (name, stats) in session.stage_stats() {
                assert!(stats.memo_misses > 0, "{cfg:?}: stage {name} never walked");
                assert!(
                    stats.memo_hits > 0,
                    "{cfg:?}: stage {name}: repeated image produced no memo hits"
                );
            }
        }
    }

    #[test]
    fn invalid_inputs_are_rejected_before_queueing() {
        let (ps, net, _) = converted_convnet();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let session = rt.serve(&net, &ps).build_model();
        let err = session
            .submit(Tensor::zeros(&[3, 8, 8]))
            .expect_err("wrong spatial size");
        assert!(matches!(err, ServeError::InvalidInput(_)));
        assert_eq!(session.queued(), 0);
        // An empty run() is an error, not a zero-row tensor (the tensor
        // crate rejects zero-sized dimensions) and not a panic.
        let err = session.run(Vec::new()).expect_err("empty input set");
        assert_eq!(err, ServeError::EmptyRun);
    }

    /// Tentpole acceptance: after N decode steps, the logits of **every**
    /// step are bit-identical to a fresh full-sequence `ModelSession` eval
    /// of the same prefix — at every prefix length, for every
    /// `LutQuant × FloatPrecision` combo. Running only the new positions
    /// is a pure cost optimization; it must never change a bit.
    #[test]
    fn decode_bit_identical_to_full_sequence_eval_all_combos_all_prefixes() {
        let (ps, net, tokens) = converted_gpt();
        let steps = 8;
        for cfg in all_combos() {
            let mut rt = LutRuntime::new(cfg);
            let stepped: Vec<Vec<f32>> = {
                let decode = rt.decode_session(&net, &ps).expect("causal model");
                assert!(decode.lut_stages() > 0, "nothing planned on engines");
                (0..steps)
                    .map(|i| {
                        let h = decode.step(vec![tokens[i]]).expect("valid step");
                        h.wait().expect("step resolved")
                    })
                    .collect()
            };
            for (i, step_logits) in stepped.iter().enumerate() {
                let fresh = rt.serve(&net, &ps).config(cfg).build_model();
                let h = fresh.submit(tokens[..=i].to_vec()).expect("valid prefix");
                fresh.flush();
                let reference = h.wait().expect("session alive");
                assert_eq!(
                    step_logits, &reference,
                    "step {i} diverged from full-sequence eval at {cfg:?}"
                );
            }
        }
    }

    /// The economics of incremental decode: a step feeds every LUT stage
    /// only its new positions' rows, one engine call per stage per step —
    /// so each stage's row counter equals the number of tokens stepped.
    #[test]
    fn decode_stage_rows_equal_the_tokens_stepped() {
        let (ps, net, tokens) = converted_gpt();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let decode = rt.decode_session(&net, &ps).expect("causal model");
        assert_eq!((decode.steps(), decode.prefix_positions()), (0, 0));
        assert_eq!(decode.stage_stats().len(), decode.lut_stages());

        let steps = 6;
        for &tok in &tokens[..steps] {
            let _ = decode.step(vec![tok]).expect("valid step");
        }
        let _ = decode
            .step(tokens[steps..steps + 3].to_vec())
            .expect("valid step");
        assert_eq!(
            (decode.steps(), decode.prefix_positions()),
            (steps + 1, steps + 3)
        );
        for (name, s) in decode.stage_stats() {
            assert_eq!(s.rows_served, steps + 3, "stage {name}: rows != tokens");
            assert_eq!(s.batches_run, steps + 1, "stage {name}: one call per step");
            assert_eq!(s.queued_high_water, 3, "stage {name}: widest call");
        }
    }

    /// Decode steps route through the same engine encode-memo plumbing as
    /// batched sessions: a memo-backed runtime must stay bit-identical.
    #[test]
    fn decode_with_encode_memo_stays_bit_identical() {
        let (ps, net, tokens) = converted_gpt();
        let cfg = DeployConfig::bf16_int8();
        let mut plain_rt = LutRuntime::new(cfg);
        let mut memo_rt = LutRuntime::with_options(
            cfg,
            crate::runtime::RuntimeOptions {
                memo_rows: 4096,
                ..crate::runtime::RuntimeOptions::default()
            },
        );
        let plain = plain_rt.decode_session(&net, &ps).expect("causal model");
        let steps = 5;
        let want: Vec<Vec<f32>> = (0..steps)
            .map(|i| {
                let h = plain.step(vec![tokens[i]]).expect("valid step");
                h.wait().expect("resolved")
            })
            .collect();
        drop(plain);
        let memo = memo_rt.decode_session(&net, &ps).expect("causal model");
        for (i, want) in want.iter().enumerate() {
            let h = memo.step(vec![tokens[i]]).expect("valid step");
            let got = h.wait().expect("resolved");
            assert_eq!(&got, want, "memo-backed decode diverged at step {i}");
        }
    }

    /// Front-door rejections: a bad first step, a bad later step, and an
    /// overgrown sequence all fail with [`ServeError::InvalidInput`] and
    /// leave the prefix exactly where it was.
    #[test]
    fn decode_rejects_invalid_steps_without_growing_the_prefix() {
        let (ps, net, tokens) = converted_gpt();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let decode = rt.decode_session(&net, &ps).expect("causal model");

        // First step must pass full input validation.
        assert!(matches!(
            decode.step(vec![999]),
            Err(ServeError::InvalidInput(_))
        ));
        assert!(matches!(
            decode.step(vec![]),
            Err(ServeError::InvalidInput(_))
        ));
        assert_eq!((decode.steps(), decode.prefix_positions()), (0, 0));

        let _ = decode.step(vec![tokens[0]]).expect("valid seed");
        assert!(matches!(
            decode.step(vec![999]),
            Err(ServeError::InvalidInput(_))
        ));
        assert_eq!(
            decode.prefix_positions(),
            1,
            "rejected step grew the prefix"
        );

        // Growing past max_seq is rejected by `extend_input`'s validation.
        for &tok in &tokens[1..16] {
            let _ = decode.step(vec![tok]).expect("still in range");
        }
        assert!(matches!(
            decode.step(vec![tokens[0]]),
            Err(ServeError::InvalidInput(_))
        ));
        assert_eq!(decode.prefix_positions(), 16);
    }

    /// After 16 valid steps on a converted causal transformer with room to
    /// grow, an out-of-vocabulary step, an empty step and a step past
    /// `max_seq` each fail with [`ServeError::InvalidInput`] and leave the
    /// prefix where it was; the next valid step still matches a full
    /// re-eval bitwise.
    #[test]
    fn decode_rejected_steps_leave_the_cache_and_later_steps_bit_identical() {
        let mut rng = StdRng::seed_from_u64(142);
        let mut ps = ParamSet::new();
        let cfg = lutdla_models::trainable::TransformerConfig {
            max_seq: 32,
            ..*gpt_mini(&mut ParamSet::new(), 5).config()
        };
        let mut net = TransformerClassifier::new(&mut ps, cfg);
        let tokens: Vec<usize> = (0..4 * 32).map(|i| (i * 11 + 2) % 64).collect();
        let _ = lutify_transformer(
            &mut net,
            &mut ps,
            LutConfig::default(),
            CentroidInit::Kmeans,
            ConvertPolicy::default(),
            &tokens,
            4,
            32,
            &mut rng,
        );
        let mut rt = LutRuntime::new(DeployConfig::bf16_int8());
        let decode = rt.decode_session(&net, &ps).expect("causal model");
        for &tok in &tokens[..16] {
            let _ = decode.step(vec![tok]).expect("valid step");
        }
        for bad in [vec![64], vec![], tokens[..17].to_vec()] {
            assert!(
                matches!(decode.step(bad.clone()), Err(ServeError::InvalidInput(_))),
                "{bad:?} was not rejected as invalid input"
            );
            assert_eq!(decode.prefix_positions(), 16, "{bad:?} grew the prefix");
        }
        assert_eq!(decode.steps(), 16);
        let got = decode
            .step(vec![tokens[16]])
            .expect("valid step")
            .wait()
            .expect("resolved");
        let want = rt
            .serve(&net, &ps)
            .build_model()
            .run([tokens[..17].to_vec()])
            .expect("valid prefix");
        assert_eq!(
            got.as_slice(),
            want.data(),
            "step after rejections diverged"
        );
    }
}

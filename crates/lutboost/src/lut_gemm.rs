//! The LUT operator with straight-through-estimator training
//! (paper §V: operator replace, STE, reconstruction loss).
//!
//! [`LutGemm`] implements [`lutdla_models::trainable::GemmOp`], so it can be
//! swapped into any architecture built on `DenseUnit`s. During training the
//! forward path quantizes activations to their nearest centroids
//! (`Â = gather(argmin distance(A, Z))`) and multiplies by the dense weight;
//! the backward path:
//!
//! * routes `∂L/∂Â` to the activations unchanged (STE — paper Eq. for
//!   `∂L/∂A ≈ ∂L/∂Â`),
//! * scatter-adds `∂L/∂Â` into the selected centroids,
//! * adds the symmetric reconstruction loss
//!   `Lre = ‖SG(ÂW) − AW‖² + ‖ÂW − SG(AW)‖²` weighted by `recon_weight`.

use std::cell::RefCell;
use std::sync::Arc;

use lutdla_nn::{CustomOp, Graph, NodeId, ParamId, ParamSet};
use lutdla_tensor::Tensor;
use lutdla_vq::{Codebook, Distance, EngineStage, ProductQuantizer, SharedEngine};
use rand::Rng;

use lutdla_models::trainable::GemmOp;

/// Hyper-parameters of a LUT operator.
#[derive(Debug, Clone, Copy)]
pub struct LutConfig {
    /// Subvector length `v`.
    pub v: usize,
    /// Centroids per codebook `c`.
    pub c: usize,
    /// Similarity metric.
    pub distance: Distance,
    /// Weight of the reconstruction loss (paper uses 0.01–1 depending on
    /// stage/model).
    pub recon_weight: f32,
}

impl Default for LutConfig {
    fn default() -> Self {
        Self {
            v: 4,
            c: 16,
            distance: Distance::L2,
            recon_weight: 0.05,
        }
    }
}

/// A lookup-table GEMM: centroid codebooks + the original dense weight.
///
/// Centroids are ordinary parameters (one `[c, v]` tensor per subspace), so
/// the freeze/unfreeze dance of multistage training is just
/// [`ParamSet::set_trainable`] over [`LutGemm::centroid_params`].
pub struct LutGemm {
    weight: ParamId,
    centroids: Vec<ParamId>,
    cfg: LutConfig,
    in_dim: usize,
    out_dim: usize,
    aux: RefCell<Option<NodeId>>,
    /// When false, the reconstruction loss is skipped (ablation switch).
    recon_enabled: bool,
    deploy: RefCell<Option<DeployState>>,
}

/// Frozen inference artifacts: the stage a deployed layer's eval forwards
/// run through — the engine, called on the caller's thread and counted,
/// bit-identical to `run_batch` on the same rows — stamped with the
/// parameter version the engine's tables were built at so serving stale
/// tables is caught in debug builds. [`crate::LutRuntime::deploy`] and
/// every session stage use this one route.
struct DeployState {
    params_version: u64,
    stage: Arc<EngineStage>,
}

/// One session's routes, installed on its layers for the span of one
/// forward. Construction swaps each route in; drop puts back whatever each
/// layer held before — also when the forward unwinds — so a session never
/// disturbs another session's routes or a live [`crate::LutRuntime::deploy`].
pub(crate) struct InstalledRoutes<'a> {
    saved: Vec<(&'a LutGemm, Option<DeployState>)>,
}

impl<'a> InstalledRoutes<'a> {
    /// Installs `routes` (all frozen at `params_version`).
    pub(crate) fn install(routes: &[(&'a LutGemm, Arc<EngineStage>)], params_version: u64) -> Self {
        let saved = routes
            .iter()
            .map(|(lut, stage)| {
                let state = DeployState {
                    params_version,
                    stage: Arc::clone(stage),
                };
                (*lut, lut.deploy.replace(Some(state)))
            })
            .collect();
        Self { saved }
    }
}

impl Drop for InstalledRoutes<'_> {
    fn drop(&mut self) {
        // Reverse order, so a layer listed twice ends on its original state.
        for (lut, prev) in self.saved.drain(..).rev() {
            *lut.deploy.borrow_mut() = prev;
        }
    }
}

impl LutGemm {
    /// Wraps an existing dense weight (`[K, N]` parameter) with randomly
    /// initialised centroids (the single-stage baseline's starting point).
    pub fn from_weight_random<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        weight: ParamId,
        cfg: LutConfig,
    ) -> Self {
        let (in_dim, out_dim) = {
            let w = ps.value(weight);
            (w.dims()[0], w.dims()[1])
        };
        let n_sub = in_dim.div_ceil(cfg.v);
        let centroids = (0..n_sub)
            .map(|s| {
                ps.add(
                    format!("{name}.centroids{s}"),
                    Tensor::randn(rng, &[cfg.c, cfg.v], 0.5),
                )
            })
            .collect();
        Self {
            weight,
            centroids,
            cfg,
            in_dim,
            out_dim,
            aux: RefCell::new(None),
            recon_enabled: true,
            deploy: RefCell::new(None),
        }
    }

    /// Wraps an existing dense weight with centroids initialised by k-means
    /// over calibration activations `calib: [n, K]` (LUTBoost stage ➀).
    pub fn from_weight_kmeans<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        weight: ParamId,
        cfg: LutConfig,
        calib: &Tensor,
    ) -> Self {
        let (in_dim, out_dim) = {
            let w = ps.value(weight);
            (w.dims()[0], w.dims()[1])
        };
        assert_eq!(calib.dims()[1], in_dim, "calibration K mismatch");
        let pq = ProductQuantizer::fit(calib, cfg.v, cfg.c, cfg.distance, rng);
        let centroids = pq
            .codebooks()
            .iter()
            .enumerate()
            .map(|(s, cb)| {
                ps.add(
                    format!("{name}.centroids{s}"),
                    Tensor::from_vec(cb.as_slice().to_vec(), &[cfg.c, cfg.v]),
                )
            })
            .collect();
        Self {
            weight,
            centroids,
            cfg,
            in_dim,
            out_dim,
            aux: RefCell::new(None),
            recon_enabled: true,
            deploy: RefCell::new(None),
        }
    }

    /// The operator's configuration.
    pub fn config(&self) -> &LutConfig {
        &self.cfg
    }

    /// The dense weight handle (shared with the pre-conversion layer).
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// The centroid parameter handles (one per subspace).
    pub fn centroid_params(&self) -> &[ParamId] {
        &self.centroids
    }

    /// Enables/disables the reconstruction loss (ablation).
    pub fn set_recon_enabled(&mut self, enabled: bool) {
        self.recon_enabled = enabled;
    }

    /// Exports the trained codebooks as a [`ProductQuantizer`] plus the
    /// current weight, for LUT-table construction and deployment.
    pub fn export(&self, ps: &ParamSet) -> (ProductQuantizer, Tensor) {
        let codebooks = self
            .centroids
            .iter()
            .map(|&cid| Codebook::new(ps.value(cid).data().to_vec(), self.cfg.c, self.cfg.v))
            .collect();
        let pq = ProductQuantizer::from_codebooks(codebooks, self.in_dim, self.cfg.distance);
        (pq, ps.value(self.weight).clone())
    }

    /// Freezes the operator for deployment by installing a shared engine
    /// handle, stamped with the [`ParamSet::version`] the engine's tables
    /// were built at.
    ///
    /// This is the runtime's half of deployment: [`crate::LutRuntime`]
    /// resolves (or builds) the engine through its cache and installs it
    /// here — the layer itself never constructs engines. While deployed,
    /// eval-mode forwards run the engine directly on the caller's thread
    /// (the functional twin of the IMM hardware); training forwards are
    /// unaffected. Serving after further training trips a `debug_assert`,
    /// and the trainer's stage transitions call [`LutGemm::clear_deploy`].
    pub fn install_deploy(&self, engine: SharedEngine, params_version: u64) {
        *self.deploy.borrow_mut() = Some(DeployState {
            params_version,
            stage: Arc::new(EngineStage::new(engine, None)),
        });
    }

    /// Leaves deployment mode. The engine itself stays alive in any
    /// [`crate::LutRuntime`] cache that built it, ready for a free
    /// re-deploy at the same parameter version.
    pub fn clear_deploy(&self) {
        *self.deploy.borrow_mut() = None;
    }

    /// The installed engine handle, if the layer is deployed.
    pub fn deployed_engine(&self) -> Option<SharedEngine> {
        self.deploy
            .borrow()
            .as_ref()
            .map(|d| Arc::clone(d.stage.engine()))
    }

    /// Quantizes activations `x: [M, K]` to `(Â, assignments)`.
    ///
    /// For a ragged final subspace (`v ∤ K`) only the leading `K mod v`
    /// dimensions enter the distance: the trailing centroid slots never
    /// receive gradient ([`LutQuantizeOp::backward`] scatters `j < len`
    /// only), so counting them would bias every argmin by whatever their
    /// initialisation left behind.
    fn quantize(&self, x: &Tensor, ps: &ParamSet) -> (Tensor, Vec<u32>) {
        let (m, k) = (x.dims()[0], x.dims()[1]);
        let v = self.cfg.v;
        let n_sub = self.centroids.len();
        let mut ahat = Tensor::zeros(&[m, k]);
        let mut assign = vec![0u32; m * n_sub];
        for s in 0..n_sub {
            let cents = ps.value(self.centroids[s]);
            let lo = s * v;
            let hi = ((s + 1) * v).min(k);
            let len = hi - lo;
            for i in 0..m {
                let sub = &x.data()[i * k + lo..i * k + hi];
                let idx = self.cfg.distance.argmin_masked(sub, cents.data(), v);
                assign[i * n_sub + s] = idx as u32;
                let cent = &cents.data()[idx * v..idx * v + len];
                ahat.data_mut()[i * k + lo..i * k + hi].copy_from_slice(cent);
            }
        }
        (ahat, assign)
    }
}

impl std::fmt::Debug for LutGemm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LutGemm")
            .field("in_dim", &self.in_dim)
            .field("out_dim", &self.out_dim)
            .field("v", &self.cfg.v)
            .field("c", &self.cfg.c)
            .field("distance", &self.cfg.distance)
            .finish()
    }
}

/// The STE quantization op recorded on the tape.
struct LutQuantizeOp {
    /// `[m·n_sub]` chosen centroid per (row, subspace).
    assignments: Vec<u32>,
    v: usize,
    c: usize,
    k: usize,
    n_sub: usize,
}

impl CustomOp for LutQuantizeOp {
    fn name(&self) -> &str {
        "lut_quantize"
    }

    fn backward(
        &self,
        grad_out: &Tensor,
        parent_values: &[&Tensor],
        _value: &Tensor,
    ) -> Vec<Option<Tensor>> {
        // parents: [x, centroids_0, .., centroids_{n_sub-1}]
        let m = parent_values[0].dims()[0];
        let mut grads: Vec<Option<Tensor>> = Vec::with_capacity(1 + self.n_sub);
        // STE: gradient flows to the activations unchanged.
        grads.push(Some(grad_out.clone()));
        for s in 0..self.n_sub {
            let mut gc = Tensor::zeros(&[self.c, self.v]);
            let lo = s * self.v;
            let hi = ((s + 1) * self.v).min(self.k);
            let len = hi - lo;
            for i in 0..m {
                let idx = self.assignments[i * self.n_sub + s] as usize;
                for j in 0..len {
                    gc.data_mut()[idx * self.v + j] += grad_out.data()[i * self.k + lo + j];
                }
            }
            grads.push(Some(gc));
        }
        grads
    }
}

impl GemmOp for LutGemm {
    fn forward_gemm(&self, g: &mut Graph, ps: &ParamSet, x: NodeId) -> NodeId {
        if !g.is_train() {
            if let Some(d) = self.deploy.borrow().as_ref() {
                debug_assert_eq!(
                    d.params_version,
                    ps.version(),
                    "stale DeployState: parameters changed since deployment \
                     (re-deploy, or let the trainer's stage transitions clear it)"
                );
                let y = d.stage.run(g.value(x));
                return g.input(y);
            }
        }
        let (ahat, assignments) = self.quantize(g.value(x), ps);
        let n_sub = self.centroids.len();

        // Parents: activation + every centroid table, so gradients reach all.
        let mut parents = vec![x];
        for &cid in &self.centroids {
            parents.push(g.param(ps, cid));
        }
        let op = LutQuantizeOp {
            assignments,
            v: self.cfg.v,
            c: self.cfg.c,
            k: self.in_dim,
            n_sub,
        };
        let ahat_node = g.custom(&parents, ahat, Box::new(op));

        let w = g.param(ps, self.weight);
        let yq = g.matmul(ahat_node, w);

        if g.is_train() && self.recon_enabled && self.cfg.recon_weight > 0.0 {
            // Lre = ‖SG(ÂW) − AW‖² + ‖ÂW − SG(AW)‖² (means, then weighted).
            let yf = g.matmul(x, w);
            let sg_yq = g.stop_gradient(yq);
            let sg_yf = g.stop_gradient(yf);
            let commit = g.mse_loss(sg_yq, yf);
            let codebook_term = g.mse_loss(yq, sg_yf);
            let sum = g.add(commit, codebook_term);
            let weighted = g.scale(sum, self.cfg.recon_weight);
            let mut aux = self.aux.borrow_mut();
            *aux = Some(match aux.take() {
                Some(prev) => g.add(prev, weighted),
                None => weighted,
            });
        }
        yq
    }

    fn params(&self) -> Vec<ParamId> {
        let mut p = vec![self.weight];
        p.extend_from_slice(&self.centroids);
        p
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn take_aux(&self) -> Option<NodeId> {
        self.aux.borrow_mut().take()
    }

    fn weight_param(&self) -> Option<ParamId> {
        Some(self.weight)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(cfg: LutConfig) -> (ParamSet, LutGemm, Tensor) {
        let mut rng = StdRng::seed_from_u64(90);
        let mut ps = ParamSet::new();
        let calib = Tensor::rand_uniform(&mut rng, &[64, 8], -1.0, 1.0);
        let w = ps.add("w", Tensor::randn(&mut rng, &[8, 4], 0.5));
        let lut = LutGemm::from_weight_kmeans(&mut ps, &mut rng, "lut", w, cfg, &calib);
        (ps, lut, calib)
    }

    #[test]
    fn forward_output_shape() {
        let (ps, lut, calib) = setup(LutConfig::default());
        let mut g = Graph::new(false);
        let x = g.input(calib.rows(0, 8));
        let y = lut.forward_gemm(&mut g, &ps, x);
        assert_eq!(g.value(y).dims(), &[8, 4]);
    }

    #[test]
    fn forward_matches_quantized_matmul() {
        let (ps, lut, calib) = setup(LutConfig::default());
        let x = calib.rows(0, 16);
        let (ahat, _) = lut.quantize(&x, &ps);
        let expect = ahat.matmul(ps.value(lut.weight()));
        let mut g = Graph::new(false);
        let xn = g.input(x);
        let y = lut.forward_gemm(&mut g, &ps, xn);
        assert!(g.value(y).allclose(&expect, 1e-5));
    }

    #[test]
    fn ste_passes_gradient_to_input() {
        let (ps, lut, calib) = setup(LutConfig {
            recon_weight: 0.0,
            ..Default::default()
        });
        let mut g = Graph::new(true);
        let xn = g.input(calib.rows(0, 4));
        let y = lut.forward_gemm(&mut g, &ps, xn);
        let s = g.square(y);
        let loss = g.sum_all(s);
        g.backward(loss);
        // STE: dL/dx = dL/dÂ = (dL/dy)·Wᵀ — nonzero in general.
        let gx = g.grad(xn).expect("input grad");
        assert!(gx.norm() > 0.0);
        assert_eq!(gx.dims(), &[4, 8]);
    }

    #[test]
    fn centroids_receive_scattered_gradient() {
        let (mut ps, lut, calib) = setup(LutConfig {
            recon_weight: 0.0,
            ..Default::default()
        });
        let mut g = Graph::new(true);
        let xn = g.input(calib.rows(0, 16));
        let y = lut.forward_gemm(&mut g, &ps, xn);
        let s = g.square(y);
        let loss = g.sum_all(s);
        g.backward(loss);
        g.apply_param_grads(&mut ps);
        let total: f32 = lut
            .centroid_params()
            .iter()
            .map(|&cid| ps.grad(cid).norm())
            .sum();
        assert!(total > 0.0, "no gradient reached the centroids");
    }

    #[test]
    fn recon_loss_emitted_in_train_mode_only() {
        let (ps, lut, calib) = setup(LutConfig::default());
        let mut g = Graph::new(true);
        let xn = g.input(calib.rows(0, 4));
        let _ = lut.forward_gemm(&mut g, &ps, xn);
        assert!(lut.take_aux().is_some());

        let mut g = Graph::new(false);
        let xn = g.input(calib.rows(0, 4));
        let _ = lut.forward_gemm(&mut g, &ps, xn);
        assert!(lut.take_aux().is_none());
    }

    #[test]
    fn recon_loss_trains_centroids_toward_activations() {
        // Minimizing only the recon loss should reduce quantization error.
        let mut rng = StdRng::seed_from_u64(91);
        let mut ps = ParamSet::new();
        let calib = Tensor::rand_uniform(&mut rng, &[64, 8], -1.0, 1.0);
        let w = ps.add("w", Tensor::randn(&mut rng, &[8, 4], 0.5));
        let lut = LutGemm::from_weight_random(
            &mut ps,
            &mut rng,
            "lut",
            w,
            LutConfig {
                recon_weight: 1.0,
                c: 8,
                v: 4,
                ..Default::default()
            },
        );
        ps.set_trainable(w, false);

        // The reconstruction loss acts in the W-projected output space, so
        // measure ‖ÂW − AW‖ there.
        let projected_err = |lut: &LutGemm, ps: &ParamSet| {
            let (ahat, _) = lut.quantize(&calib, ps);
            let w = ps.value(lut.weight());
            ahat.matmul(w).rel_error(&calib.matmul(w))
        };
        let initial_err = projected_err(&lut, &ps);
        let mut opt = lutdla_nn::Sgd::new(0.05, 0.9, 0.0);
        for _ in 0..60 {
            let mut g = Graph::new(true);
            let xn = g.input(calib.clone());
            let _ = lut.forward_gemm(&mut g, &ps, xn);
            let loss = lut.take_aux().expect("recon loss");
            ps.zero_grad();
            g.backward(loss);
            g.apply_param_grads(&mut ps);
            opt.step(&mut ps);
        }
        let final_err = projected_err(&lut, &ps);
        assert!(
            final_err < initial_err * 0.8,
            "recon training did not improve quantization: {initial_err} -> {final_err}"
        );
    }

    #[test]
    fn export_round_trips_centroids() {
        let (ps, lut, calib) = setup(LutConfig::default());
        let (pq, w) = lut.export(&ps);
        assert_eq!(pq.num_subspaces(), 2);
        assert_eq!(w.dims(), &[8, 4]);
        // Quantization through the exported PQ matches the layer's own path.
        let x = calib.rows(0, 8);
        let (ahat, _) = lut.quantize(&x, &ps);
        let codes = pq.encode(&x);
        let decoded = pq.decode(&codes, 8);
        assert!(ahat.allclose(&decoded, 1e-6));
    }

    #[test]
    fn deployed_forward_uses_engine_and_matches_quantize_path() {
        let (ps, lut, calib) = setup(LutConfig::default());
        let x = calib.rows(0, 16);
        let (ahat, _) = lut.quantize(&x, &ps);
        let expect = ahat.matmul(ps.value(lut.weight()));
        let mut rt = crate::LutRuntime::new(crate::DeployConfig::fp32());
        rt.deploy_layers([&lut], &ps);
        assert!(lut.deployed_engine().is_some());
        let mut g = Graph::new(false);
        let xn = g.input(x);
        let y = lut.forward_gemm(&mut g, &ps, xn);
        lut.clear_deploy();
        assert!(lut.deployed_engine().is_none());
        assert!(g.value(y).allclose(&expect, 1e-5));
    }

    #[test]
    fn installed_routes_restore_the_previous_route_even_on_unwind() {
        let (ps, lut, _) = setup(LutConfig::default());
        let mut rt = crate::LutRuntime::new(crate::DeployConfig::fp32());
        rt.deploy_layers([&lut], &ps);
        let deployed = lut.deployed_engine().expect("deployed");
        let other = rt.engine_with(&lut, &ps, crate::DeployConfig::bf16_int8());
        let route = Arc::new(EngineStage::new(Arc::clone(&other), None));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _routes = InstalledRoutes::install(&[(&lut, route)], ps.version());
            let live = lut.deployed_engine().expect("route installed");
            assert!(Arc::ptr_eq(&live, &other), "session route not installed");
            panic!("forward unwound mid-flush");
        }));
        assert!(unwound.is_err());
        let restored = lut.deployed_engine().expect("deploy restored");
        assert!(Arc::ptr_eq(&restored, &deployed), "unwind lost the deploy");
        // Without a prior deploy, the guard leaves the layer undeployed.
        lut.clear_deploy();
        let route = Arc::new(EngineStage::new(other, None));
        drop(InstalledRoutes::install(&[(&lut, route)], ps.version()));
        assert!(lut.deployed_engine().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale DeployState")]
    fn stale_deploy_state_is_caught() {
        let (mut ps, lut, calib) = setup(LutConfig::default());
        let mut rt = crate::LutRuntime::new(crate::DeployConfig::fp32());
        rt.deploy_layers([&lut], &ps);

        // One training step after deployment: gradients flow, version bumps.
        let mut g = Graph::new(true);
        let xn = g.input(calib.rows(0, 4));
        let y = lut.forward_gemm(&mut g, &ps, xn);
        let s = g.square(y);
        let loss = g.sum_all(s);
        g.backward(loss);
        g.apply_param_grads(&mut ps);

        // Serving the frozen table now would use outdated parameters.
        let mut g = Graph::new(false);
        let xn = g.input(calib.rows(0, 4));
        let _ = lut.forward_gemm(&mut g, &ps, xn);
    }

    #[test]
    fn ragged_k_quantize_agrees_with_exported_encode() {
        // K = 10, v = 4 → the last subspace holds 2 real dims and 2 padded
        // slots. Random init leaves garbage in the padded slots (and backward
        // never writes them), so both the layer's own path and the exported
        // quantizer must mask them out of the distance.
        let mut rng = StdRng::seed_from_u64(93);
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::randn(&mut rng, &[10, 4], 0.5));
        let cfg = LutConfig {
            v: 4,
            c: 8,
            ..Default::default()
        };
        let lut = LutGemm::from_weight_random(&mut ps, &mut rng, "lut", w, cfg);
        let x = Tensor::rand_uniform(&mut rng, &[32, 10], -1.0, 1.0);

        let (_, assign) = lut.quantize(&x, &ps);
        let (pq, _) = lut.export(&ps);
        let codes = pq.encode(&x);
        let assign16: Vec<u16> = assign.iter().map(|&a| a as u16).collect();
        assert_eq!(assign16, codes, "layer path and exported PQ disagree");
    }

    #[test]
    fn ragged_k_assignments_ignore_centroid_tail_slots() {
        let mut rng = StdRng::seed_from_u64(94);
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::randn(&mut rng, &[10, 4], 0.5));
        let cfg = LutConfig {
            v: 4,
            c: 8,
            ..Default::default()
        };
        let calib = Tensor::rand_uniform(&mut rng, &[64, 10], -1.0, 1.0);
        let lut = LutGemm::from_weight_kmeans(&mut ps, &mut rng, "lut", w, cfg, &calib);
        let x = Tensor::rand_uniform(&mut rng, &[24, 10], -1.0, 1.0);
        let (_, before) = lut.quantize(&x, &ps);

        // Vandalise the padded tail slots of the last subspace's centroids:
        // the assignment must not move (they are outside the masked window).
        let tail_cid = *lut.centroid_params().last().expect("subspaces");
        let cents = ps.value_mut(tail_cid);
        for ci in 0..cfg.c {
            for j in 2..4 {
                cents.set(&[ci, j], 1e6 * (ci as f32 + 1.0));
            }
        }
        let (_, after) = lut.quantize(&x, &ps);
        assert_eq!(before, after, "tail slots biased the assignments");
    }

    #[test]
    fn kmeans_init_beats_random_init_error() {
        let mut rng = StdRng::seed_from_u64(92);
        let mut ps = ParamSet::new();
        let calib = Tensor::rand_uniform(&mut rng, &[128, 8], -1.0, 1.0);
        let w = ps.add("w", Tensor::randn(&mut rng, &[8, 4], 0.5));
        let cfg = LutConfig::default();
        let km = LutGemm::from_weight_kmeans(&mut ps, &mut rng, "km", w, cfg, &calib);
        let rnd = LutGemm::from_weight_random(&mut ps, &mut rng, "rnd", w, cfg);
        let (a_km, _) = km.quantize(&calib, &ps);
        let (a_rnd, _) = rnd.quantize(&calib, &ps);
        assert!(a_km.rel_error(&calib) < a_rnd.rel_error(&calib));
    }
}

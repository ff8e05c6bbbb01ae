//! `LutRuntime`: the deployment/serving session object (paper §IV's
//! amortization argument turned into an API).
//!
//! LUTBoost's whole premise is that one expensive table build is amortized
//! over many inferences. The original per-layer
//! `prepare_deploy`/`clear_deploy` pattern fought that premise: every
//! deploy call re-exported the quantizer, rebuilt the lookup table, and
//! re-tiled a fresh `LutEngine` — even when nothing had changed — and every
//! `run_batch` spawned its worker threads from scratch. `LutRuntime` makes
//! the deployed model a first-class, long-lived object owning three pieces
//! of reusable state:
//!
//! 1. **An engine cache** keyed on `(ParamSet::uid, weight ParamId, layer
//!    identity, ParamSet::version, LutQuant, FloatPrecision)`.
//!    Re-deploying a layer
//!    whose parameters have not changed — or sweeping deployment precisions
//!    Table-IV style and returning to one already built — reuses the tiled
//!    engine with **zero re-tiling** (observable via [`CacheStats`]).
//!    Bounded capacity with LRU eviction keeps sweeps from hoarding memory.
//! 2. **A persistent worker pool** ([`WorkerPool`], spawned once,
//!    channel-fed) shared by every engine the runtime builds, replacing
//!    per-call thread spawns and keeping a many-layer model from
//!    oversubscribing the machine.
//! 3. **Session builders** — [`LutRuntime::serve`] compiles a whole-model
//!    [`ModelSession`] or a token-streaming [`DecodeSession`] — one plan
//!    shape for both, whose LUT stages call their cached engines directly
//!    on the caller's thread (a decode step feeds them only its new
//!    rows) — and [`LutRuntime::serve_layer`] builds a single-layer
//!    [`MicroBatcher`] front door that coalesces single-row `submit` calls
//!    into batched `run_batch` calls. Every path is bit-identical to
//!    direct batching.
//!
//! # Example
//!
//! ```no_run
//! use lutdla_lutboost::{DeployConfig, LutRuntime};
//! # fn demo(net: &lutdla_models::trainable::ConvNet, ps: &lutdla_nn::ParamSet) {
//! let mut rt = LutRuntime::new(DeployConfig::bf16_int8());
//! rt.deploy(net.dense_units(), ps); // builds engines (cache misses)
//! // … evaluate, undeploy, train nothing, come back …
//! rt.deploy(net.dense_units(), ps); // pure cache hits: zero re-tiling
//! assert_eq!(rt.stats().hits, rt.stats().misses);
//! # }
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use lutdla_models::trainable::{DenseUnit, ServableModel};
use lutdla_nn::{ParamId, ParamSet};
use lutdla_vq::{
    default_workers, share, BatchOptions, EncodeMemo, EngineOptions, EngineStage, FloatPrecision,
    LutEngine, LutQuant, LutTable, MicroBatcher, ServeError, SharedEngine, WorkerPool,
};

use crate::convert::as_lut;
use crate::deploy::{lut_layers, DeployConfig, UnitPlan};
use crate::lut_gemm::LutGemm;
use crate::session::{DecodeSession, ModelSession};

/// What uniquely identifies a tiled engine: whose weights (set identity +
/// weight handle), which LUT layer (`centroid0` — the first centroid
/// parameter, unique per `LutGemm` since every instance registers its own
/// centroid tensors, so two layers wrapping the *same* weight with
/// different codebooks/configs never collide), at which parameter version,
/// frozen at which table/datapath precisions. Any parameter mutation bumps
/// the version and changes the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    set_uid: u64,
    weight: ParamId,
    centroid0: ParamId,
    version: u64,
    quant: LutQuant,
    precision: FloatPrecision,
}

struct CacheEntry {
    engine: SharedEngine,
    last_used: u64,
}

/// Engine-cache hit/miss/eviction counters. A deploy whose `misses` did not
/// advance performed zero table re-tiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Engine requests served from the cache.
    pub hits: u64,
    /// Engine requests that built (exported, tabled, tiled) a new engine.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

/// Construction-time options for [`LutRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// Worker threads in the shared pool (and per-engine dispatch width).
    /// Defaults to [`default_workers`], which honours `LUTDLA_WORKERS`.
    pub workers: usize,
    /// Maximum cached engines before LRU eviction (at least 1).
    pub cache_capacity: usize,
    /// Capacity, in rows, of the cross-request [`EncodeMemo`] fronting
    /// every session stage and layer front door this runtime builds (`0`,
    /// the default, disables the memo). Each stage gets its **own** memo —
    /// stages serve different codebooks, so sharing one pool would only
    /// mix key spaces. Duplicate rows re-submitted to a stage skip the
    /// similarity walk; the hit/miss/evict counters surface through
    /// [`lutdla_vq::StageStats`].
    pub memo_rows: usize,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            workers: default_workers(),
            cache_capacity: 16,
            memo_rows: 0,
        }
    }
}

/// The deployment/serving session object. See the module docs.
pub struct LutRuntime {
    cfg: DeployConfig,
    opts: RuntimeOptions,
    pool: Arc<WorkerPool>,
    cache: HashMap<CacheKey, CacheEntry>,
    /// Logical clock for LRU ordering; advanced on every cache access.
    tick: u64,
    stats: CacheStats,
}

impl LutRuntime {
    /// A runtime with the given default deployment numerics and default
    /// [`RuntimeOptions`].
    pub fn new(cfg: DeployConfig) -> Self {
        Self::with_options(cfg, RuntimeOptions::default())
    }

    /// A runtime with explicit pool/cache/memo options.
    pub fn with_options(cfg: DeployConfig, opts: RuntimeOptions) -> Self {
        let workers = opts.workers.max(1);
        Self {
            cfg,
            opts: RuntimeOptions { workers, ..opts },
            pool: Arc::new(WorkerPool::new(workers)),
            cache: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The default deployment numerics (`deploy` and the session builders
    /// use these; the `*_with` variants and `.config(cfg)` override them).
    pub fn config(&self) -> DeployConfig {
        self.cfg
    }

    /// Engine-cache counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of engines currently cached.
    pub fn cached_engines(&self) -> usize {
        self.cache.len()
    }

    /// The worker pool shared by every engine this runtime builds.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Resolves the engine for `lut` at the runtime's default numerics.
    pub fn engine_for(&mut self, lut: &LutGemm, ps: &ParamSet) -> SharedEngine {
        self.engine_with(lut, ps, self.cfg)
    }

    /// Resolves the engine for `lut` at explicit numerics: a cache hit
    /// returns the existing tiled engine (zero rebuild work); a miss
    /// exports the quantizer, precomputes the table, tiles an engine on the
    /// shared pool, and caches it (evicting the least-recently-used entry
    /// at capacity).
    pub fn engine_with(&mut self, lut: &LutGemm, ps: &ParamSet, cfg: DeployConfig) -> SharedEngine {
        let key = CacheKey {
            set_uid: ps.uid(),
            weight: lut.weight(),
            centroid0: lut.centroid_params()[0],
            version: ps.version(),
            quant: cfg.lut_quant,
            precision: cfg.precision,
        };
        self.tick += 1;
        if let Some(entry) = self.cache.get_mut(&key) {
            entry.last_used = self.tick;
            self.stats.hits += 1;
            return Arc::clone(&entry.engine);
        }
        self.stats.misses += 1;
        let (pq, weight) = lut.export(ps);
        let table = LutTable::build(&pq, &weight, cfg.lut_quant);
        let engine = LutEngine::with_opts(
            pq,
            &table,
            EngineOptions {
                precision: cfg.precision,
                workers: self.opts.workers,
                ..EngineOptions::default()
            },
        )
        .with_pool(Arc::clone(&self.pool));
        let engine = share(engine);
        if self.cache.len() >= self.opts.cache_capacity.max(1) {
            let lru = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            if let Some(lru) = lru {
                self.cache.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.cache.insert(
            key,
            CacheEntry {
                engine: Arc::clone(&engine),
                last_used: self.tick,
            },
        );
        engine
    }

    /// Deploys every LUT layer in `layers` at the runtime's default
    /// numerics (cache-aware; see [`LutRuntime::engine_with`]).
    pub fn deploy_layers<'a>(
        &mut self,
        layers: impl IntoIterator<Item = &'a LutGemm>,
        ps: &ParamSet,
    ) {
        self.deploy_layers_with(layers, ps, self.cfg);
    }

    /// Deploys every LUT layer in `layers` at explicit numerics.
    pub fn deploy_layers_with<'a>(
        &mut self,
        layers: impl IntoIterator<Item = &'a LutGemm>,
        ps: &ParamSet,
        cfg: DeployConfig,
    ) {
        for lut in layers {
            let engine = self.engine_with(lut, ps, cfg);
            lut.install_deploy(engine, ps.version());
        }
    }

    /// Deploys every converted layer of a model, given its dense units
    /// (both `ConvNet::dense_units()` and
    /// `TransformerClassifier::dense_units()` feed straight in). One call
    /// site for every architecture — non-LUT units pass through untouched.
    pub fn deploy<'a>(&mut self, units: impl IntoIterator<Item = &'a DenseUnit>, ps: &ParamSet) {
        self.deploy_layers(lut_layers(units), ps);
    }

    /// [`LutRuntime::deploy`] at explicit numerics (precision sweeps).
    pub fn deploy_with<'a>(
        &mut self,
        units: impl IntoIterator<Item = &'a DenseUnit>,
        ps: &ParamSet,
        cfg: DeployConfig,
    ) {
        self.deploy_layers_with(lut_layers(units), ps, cfg);
    }

    /// Starts a [`SessionBuilder`] for whole-model serving.
    ///
    /// ```no_run
    /// # fn demo(rt: &mut lutdla_lutboost::LutRuntime,
    /// #         net: &lutdla_models::trainable::ConvNet, ps: &lutdla_nn::ParamSet) {
    /// let session = rt.serve(net, ps).build_model();            // batch serving
    /// # }
    /// ```
    ///
    /// Chain [`SessionBuilder::config`] to override the runtime's default
    /// numerics, then finish with [`SessionBuilder::build_model`] (a
    /// batch-coalescing [`ModelSession`]) or
    /// [`SessionBuilder::build_decode`] (a token-streaming
    /// [`DecodeSession`]).
    pub fn serve<'rt, 'm, M: ServableModel>(
        &'rt mut self,
        model: &'m M,
        ps: &'m ParamSet,
    ) -> SessionBuilder<'rt, 'm, M> {
        SessionBuilder {
            cfg: self.cfg,
            rt: self,
            model,
            ps,
        }
    }

    /// Starts a [`LayerSessionBuilder`] for single-layer serving: a
    /// micro-batched front door over one layer's engine (see
    /// [`MicroBatcher`]). The engine comes from the cache, so a front door
    /// over an already-deployed layer shares its tables.
    pub fn serve_layer<'rt, 'l>(
        &'rt mut self,
        lut: &'l LutGemm,
        ps: &'l ParamSet,
    ) -> LayerSessionBuilder<'rt, 'l> {
        LayerSessionBuilder {
            cfg: self.cfg,
            rt: self,
            lut,
            ps,
        }
    }

    /// Opens a token-streaming [`DecodeSession`] at the runtime's default
    /// numerics — shorthand for `rt.serve(model, ps).build_decode()`.
    /// Fails with [`ServeError::Invalid`] unless the model has an
    /// incremental-forward contract
    /// ([`ServableModel::decode_contract`], e.g. a causal transformer).
    pub fn decode_session<'m, M: ServableModel>(
        &mut self,
        model: &'m M,
        ps: &'m ParamSet,
    ) -> Result<DecodeSession<'m, M>, ServeError> {
        self.serve(model, ps).build_decode()
    }

    /// A fresh per-stage encode memo, or `None` when
    /// [`RuntimeOptions::memo_rows`] is zero.
    fn stage_memo(&self) -> Option<Arc<EncodeMemo>> {
        (self.opts.memo_rows > 0).then(|| Arc::new(EncodeMemo::new(self.opts.memo_rows)))
    }

    /// Groups the cached engines by **code identity**: the key fields that
    /// determine the similarity walk's output (parameter-set uid, weight,
    /// layer, version, datapath precision) — everything except the table
    /// quantization. Engines in one group share a codebook, so one packed
    /// stream from [`LutEngine::encode_packed`] drives all of them via
    /// [`LutEngine::run_many_from_packed`]; that is the encode-once seam a
    /// Table-IV-style [`LutQuant`] sweep exploits. Groups — and engines
    /// within a group — come back in least-recently-used-first order;
    /// singleton groups are included.
    pub fn engines_sharing_codes(&self) -> Vec<Vec<SharedEngine>> {
        let mut groups: HashMap<_, Vec<(u64, SharedEngine)>> = HashMap::new();
        for (key, entry) in &self.cache {
            groups
                .entry((
                    key.set_uid,
                    key.weight,
                    key.centroid0,
                    key.version,
                    key.precision,
                ))
                .or_default()
                .push((entry.last_used, Arc::clone(&entry.engine)));
        }
        // `last_used` ticks are unique, so the order is deterministic even
        // though the map walk is not.
        let mut out: Vec<Vec<(u64, SharedEngine)>> = groups.into_values().collect();
        for group in &mut out {
            group.sort_by_key(|(tick, _)| *tick);
        }
        out.sort_by_key(|group| group[0].0);
        out.into_iter()
            .map(|group| group.into_iter().map(|(_, engine)| engine).collect())
            .collect()
    }

    /// Drops every cached engine (counters are kept).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

impl std::fmt::Debug for LutRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LutRuntime")
            .field("cfg", &self.cfg)
            .field("workers", &self.opts.workers)
            .field("cached_engines", &self.cache.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Builder for whole-model serving sessions, started by
/// [`LutRuntime::serve`]. The numerics default to [`LutRuntime::config`];
/// the two `build_*` terminals pick the session kind:
///
/// * [`SessionBuilder::build_model`] — a batch-coalescing
///   [`ModelSession`].
/// * [`SessionBuilder::build_decode`] — a token-streaming
///   [`DecodeSession`] for autoregressive decode.
#[must_use = "a session builder does nothing until `build_model()` or `build_decode()`"]
pub struct SessionBuilder<'rt, 'm, M: ServableModel> {
    rt: &'rt mut LutRuntime,
    model: &'m M,
    ps: &'m ParamSet,
    cfg: DeployConfig,
}

impl<'m, M: ServableModel> SessionBuilder<'_, 'm, M> {
    /// Overrides the deployment numerics (defaults to
    /// [`LutRuntime::config`]).
    pub fn config(mut self, cfg: DeployConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Builds the batch-coalescing [`ModelSession`]: `submit(input)`
    /// queues a request, and each flush runs one eval forward over the
    /// queued batch — cached LUT engines for converted units (one
    /// [`EngineStage`] each, called on the flushing thread), the dense
    /// path for everything else — resolving a `Pending` handle per request
    /// with its logits.
    ///
    /// Compiling the session resolves every LUT unit's engine through the
    /// runtime cache ([`LutRuntime::stats`] counts the hits/misses). It
    /// installs nothing on the model: each flush swaps the session's
    /// routes onto the layers and restores the previous ones afterwards,
    /// so any number of sessions (and a live [`LutRuntime::deploy`]) can
    /// coexist over one model.
    pub fn build_model(mut self) -> ModelSession<'m, M> {
        let (plan, routes) = self.compile();
        ModelSession::new(self.model, self.ps, plan, routes)
    }

    /// Builds the token-streaming [`DecodeSession`]: `step(tokens)` grows
    /// the sequence and serves the prefix's logits, running only the new
    /// positions through the model (see [`DecodeSession`]). Its plan is the
    /// one [`SessionBuilder::build_model`] compiles.
    ///
    /// Fails with [`ServeError::Invalid`] when the model has no
    /// incremental-forward contract ([`ServableModel::decode_contract`] —
    /// e.g. a bidirectional transformer, whose every row changes each
    /// step).
    pub fn build_decode(mut self) -> Result<DecodeSession<'m, M>, ServeError> {
        self.model
            .decode_contract()
            .map_err(|reason| ServeError::Invalid { reason })?;
        let (plan, routes) = self.compile();
        Ok(DecodeSession::new(self.model, self.ps, plan, routes))
    }

    /// Compiles the model's unit walk: one [`UnitPlan`] per dense unit, and
    /// for every LUT unit the [`EngineStage`] route its eval forwards take
    /// (engine resolved through the runtime cache, with a fresh per-stage
    /// memo when enabled).
    fn compile(&mut self) -> (Vec<UnitPlan>, Vec<(&'m LutGemm, Arc<EngineStage>)>) {
        let walk = self.model.unit_walk();
        let mut plan = Vec::with_capacity(walk.len());
        let mut routes = Vec::new();
        for unit in walk {
            let name = unit.name.clone();
            match as_lut(unit) {
                Some(lut) => {
                    let engine = self.rt.engine_with(lut, self.ps, self.cfg);
                    let stage = Arc::new(EngineStage::new(engine, self.rt.stage_memo()));
                    routes.push((lut, Arc::clone(&stage)));
                    plan.push(UnitPlan::Lut { name, stage });
                }
                None => plan.push(UnitPlan::Dense { name }),
            }
        }
        (plan, routes)
    }
}

impl<M: ServableModel> std::fmt::Debug for SessionBuilder<'_, '_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("cfg", &self.cfg)
            .finish()
    }
}

/// Builder for single-layer serving front doors, started by
/// [`LutRuntime::serve_layer`].
#[must_use = "a layer-session builder does nothing until `build()`"]
pub struct LayerSessionBuilder<'rt, 'l> {
    rt: &'rt mut LutRuntime,
    lut: &'l LutGemm,
    ps: &'l ParamSet,
    cfg: DeployConfig,
}

impl LayerSessionBuilder<'_, '_> {
    /// Overrides the deployment numerics (defaults to
    /// [`LutRuntime::config`]).
    pub fn config(mut self, cfg: DeployConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Builds the micro-batched front door: `submit(row)` calls coalesce
    /// into batched engine runs under the default window
    /// ([`BatchOptions::default`]: 64 rows, 2 ms), with a fresh per-door
    /// encode memo when [`RuntimeOptions::memo_rows`] is set. For another
    /// window, build the batcher over [`LutRuntime::engine_with`] with
    /// [`MicroBatcher::with_memo`].
    pub fn build(self) -> MicroBatcher {
        let memo = self.rt.stage_memo();
        MicroBatcher::with_memo(
            self.rt.engine_with(self.lut, self.ps, self.cfg),
            BatchOptions::default(),
            memo,
        )
    }
}

impl std::fmt::Debug for LayerSessionBuilder<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerSessionBuilder")
            .field("cfg", &self.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{lutify_convnet, CentroidInit, ConvertPolicy};
    use crate::deploy::{lut_layers, undeploy_units};
    use crate::lut_gemm::LutConfig;
    use lutdla_models::trainable::resnet20_mini;
    use lutdla_nn::{Graph, ImageModel};
    use lutdla_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_setup() -> (ParamSet, LutGemm, Tensor) {
        let mut rng = StdRng::seed_from_u64(120);
        let mut ps = ParamSet::new();
        let calib = Tensor::rand_uniform(&mut rng, &[64, 8], -1.0, 1.0);
        let w = ps.add("w", Tensor::randn(&mut rng, &[8, 4], 0.5));
        let lut =
            LutGemm::from_weight_kmeans(&mut ps, &mut rng, "lut", w, LutConfig::default(), &calib);
        (ps, lut, calib)
    }

    #[test]
    fn redeploy_at_same_version_is_a_pure_cache_hit() {
        let (ps, lut, _) = layer_setup();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        rt.deploy_layers([&lut], &ps);
        assert_eq!(
            rt.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        let first = lut.deployed_engine().expect("deployed");

        // Undeploy and re-deploy with the ParamSet untouched: the engine
        // must come back from the cache — zero table re-tiling.
        lut.clear_deploy();
        rt.deploy_layers([&lut], &ps);
        assert_eq!(
            rt.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        let second = lut.deployed_engine().expect("re-deployed");
        assert!(Arc::ptr_eq(&first, &second), "got a rebuilt engine");
    }

    #[test]
    fn parameter_mutation_bumps_version_and_misses() {
        let (mut ps, lut, _) = layer_setup();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        rt.deploy_layers([&lut], &ps);
        let first = lut.deployed_engine().expect("deployed");

        // Any mutable access bumps ParamSet::version → the cached engine no
        // longer matches and a fresh one must be built.
        ps.value_mut(lut.weight()).fill_mut(0.25);
        rt.deploy_layers([&lut], &ps);
        assert_eq!(rt.stats().misses, 2, "stale engine was served");
        let second = lut.deployed_engine().expect("re-deployed");
        assert!(!Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn precision_sweep_reuses_engines_per_config() {
        let (ps, lut, _) = layer_setup();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        // Table-IV-style sweep: fp32 → bf16+int8 → fp32 → bf16+int8.
        for _ in 0..2 {
            rt.deploy_layers_with([&lut], &ps, DeployConfig::fp32());
            rt.deploy_layers_with([&lut], &ps, DeployConfig::bf16_int8());
        }
        // Two distinct configs built once each; the second round is hits.
        assert_eq!(rt.stats().misses, 2);
        assert_eq!(rt.stats().hits, 2);
        assert_eq!(rt.cached_engines(), 2);
    }

    #[test]
    fn bounded_capacity_evicts_least_recently_used() {
        let (ps, lut, _) = layer_setup();
        let mut rt = LutRuntime::with_options(
            DeployConfig::fp32(),
            RuntimeOptions {
                cache_capacity: 1,
                ..RuntimeOptions::default()
            },
        );
        rt.deploy_layers_with([&lut], &ps, DeployConfig::fp32());
        rt.deploy_layers_with([&lut], &ps, DeployConfig::bf16_int8());
        assert_eq!(rt.cached_engines(), 1, "capacity bound not enforced");
        assert_eq!(rt.stats().evictions, 1);
        // The evicted fp32 engine must be rebuilt on the next request.
        rt.deploy_layers_with([&lut], &ps, DeployConfig::fp32());
        assert_eq!(rt.stats().misses, 3);
    }

    #[test]
    fn lru_eviction_follows_recency_of_use_not_insertion() {
        let (ps, lut, _) = layer_setup();
        let mut rt = LutRuntime::with_options(
            DeployConfig::fp32(),
            RuntimeOptions {
                cache_capacity: 2,
                ..RuntimeOptions::default()
            },
        );
        let fp32 = DeployConfig::fp32();
        let bf16 = DeployConfig::bf16_int8();
        let f16 = DeployConfig {
            lut_quant: LutQuant::F16,
            precision: FloatPrecision::Fp16,
        };
        // Build fp32 then bf16 (cache full), then *touch fp32 again* — the
        // least recently used entry is now bf16, despite fp32 being older.
        let _ = rt.engine_with(&lut, &ps, fp32);
        let _ = rt.engine_with(&lut, &ps, bf16);
        let _ = rt.engine_with(&lut, &ps, fp32);
        assert_eq!(rt.stats().hits, 1);
        // Inserting a third config must evict bf16, not the recently-used
        // fp32.
        let _ = rt.engine_with(&lut, &ps, f16);
        assert_eq!(rt.stats().evictions, 1);
        let misses = rt.stats().misses;
        let _ = rt.engine_with(&lut, &ps, fp32);
        assert_eq!(rt.stats().misses, misses, "fp32 was wrongly evicted");
        let _ = rt.engine_with(&lut, &ps, bf16);
        assert_eq!(
            rt.stats().misses,
            misses + 1,
            "bf16 should have been the victim"
        );
    }

    #[test]
    fn model_session_deploy_undeploy_cycle_reuses_cached_engines() {
        let mut rng = StdRng::seed_from_u64(123);
        let mut ps = ParamSet::new();
        let mut net = resnet20_mini(&mut ps, 4);
        let images = Tensor::randn(&mut rng, &[4, 3, 16, 16], 1.0);
        let _ = lutify_convnet(
            &mut net,
            &mut ps,
            LutConfig::default(),
            CentroidInit::Kmeans,
            ConvertPolicy::default(),
            images,
            &mut rng,
        );
        let mut rt = LutRuntime::new(DeployConfig::fp32());

        // First session: every LUT stage is a build (miss), nothing evicts.
        let session = rt.serve(&net, &ps).build_model();
        let lut_stages = session.lut_stages();
        assert!(lut_stages > 0);
        assert_eq!(
            rt.stats(),
            CacheStats {
                hits: 0,
                misses: lut_stages as u64,
                evictions: 0
            }
        );
        drop(session); // undeploys; engines stay cached
        assert_eq!(rt.cached_engines(), lut_stages);

        // Second session at the same parameter version: pure cache hits —
        // the whole model re-deploys with zero re-tiling.
        let session = rt.serve(&net, &ps).build_model();
        assert_eq!(
            rt.stats(),
            CacheStats {
                hits: lut_stages as u64,
                misses: lut_stages as u64,
                evictions: 0
            }
        );
        drop(session);

        // A sweep to a second numerics config doubles the builds; returning
        // to the first is hits again (both configs fit the default cache).
        let session = rt
            .serve(&net, &ps)
            .config(DeployConfig::bf16_int8())
            .build_model();
        drop(session);
        let session = rt.serve(&net, &ps).build_model();
        drop(session);
        assert_eq!(rt.stats().misses, 2 * lut_stages as u64);
        assert_eq!(rt.stats().hits, 2 * lut_stages as u64);
        assert_eq!(rt.stats().evictions, 0);
        assert_eq!(rt.cached_engines(), 2 * lut_stages);

        // A parameter mutation invalidates every cached engine for the new
        // version: the next session rebuilds everything.
        let weight = lut_layers(net.dense_units()).next().expect("lut").weight();
        ps.value_mut(weight).scale_mut(1.0);
        let session = rt.serve(&net, &ps).build_model();
        drop(session);
        assert_eq!(rt.stats().misses, 3 * lut_stages as u64);
    }

    #[test]
    fn two_layers_over_one_weight_never_share_engines() {
        // Ablation shape: two LutGemm instances wrap the same dense weight
        // with different configs/codebooks. Their engines encode against
        // different centroids, so a shared cache entry would serve silently
        // wrong numerics — the key must discriminate by layer.
        let mut rng = StdRng::seed_from_u64(122);
        let mut ps = ParamSet::new();
        let calib = Tensor::rand_uniform(&mut rng, &[64, 8], -1.0, 1.0);
        let w = ps.add("w", Tensor::randn(&mut rng, &[8, 4], 0.5));
        let lut_a =
            LutGemm::from_weight_kmeans(&mut ps, &mut rng, "a", w, LutConfig::default(), &calib);
        let lut_b = LutGemm::from_weight_kmeans(
            &mut ps,
            &mut rng,
            "b",
            w,
            LutConfig {
                c: 8,
                ..LutConfig::default()
            },
            &calib,
        );
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        rt.deploy_layers([&lut_a, &lut_b], &ps);
        assert_eq!(rt.stats().misses, 2, "layers collided in the cache");
        let ea = lut_a.deployed_engine().expect("a deployed");
        let eb = lut_b.deployed_engine().expect("b deployed");
        assert!(!Arc::ptr_eq(&ea, &eb), "one engine served both layers");
    }

    #[test]
    fn distinct_param_sets_never_share_engines() {
        let (ps, lut, _) = layer_setup();
        // A clone has identical ids/version but its own uid: engines built
        // for one must not be served for the other (their values diverge
        // silently otherwise).
        let ps2 = ps.clone();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        rt.deploy_layers([&lut], &ps);
        rt.deploy_layers([&lut], &ps2);
        assert_eq!(rt.stats().misses, 2, "cross-ParamSet cache collision");
    }

    #[test]
    fn session_serves_rows_bit_identical_to_the_deployed_engine() {
        let (ps, lut, calib) = layer_setup();
        let x = calib.rows(0, 8);
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        rt.deploy_layers([&lut], &ps);
        let engine = lut.deployed_engine().expect("deployed");
        let reference = lutdla_vq::lock_engine(&engine).run_batch(&x);

        let session = rt.serve_layer(&lut, &ps).build();
        // The session shares the deployed engine through the cache.
        assert_eq!(rt.stats().hits, 1);
        let (m, k) = (x.dims()[0], x.dims()[1]);
        let n = reference.dims()[1];
        let handles: Vec<_> = (0..m)
            .map(|i| session.submit(&x.data()[i * k..(i + 1) * k]).expect("row"))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.wait().expect("session alive");
            assert_eq!(out.as_slice(), &reference.data()[i * n..(i + 1) * n]);
        }
    }

    #[test]
    fn engines_sharing_codes_groups_by_everything_but_quant() {
        let (ps, lut, _) = layer_setup();
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        // Two quantizations at the same datapath precision share codes;
        // a third config at a different precision encodes differently.
        let f32_fp32 = DeployConfig::fp32();
        let f16_fp32 = DeployConfig {
            lut_quant: LutQuant::F16,
            precision: FloatPrecision::Fp32,
        };
        let int8_bf16 = DeployConfig::bf16_int8();
        let a = rt.engine_with(&lut, &ps, f32_fp32);
        let b = rt.engine_with(&lut, &ps, f16_fp32);
        let c = rt.engine_with(&lut, &ps, int8_bf16);
        let groups = rt.engines_sharing_codes();
        assert_eq!(groups.len(), 2, "quant-only variants must share a group");
        assert_eq!(groups[0].len(), 2, "fp32-datapath group holds both quants");
        assert!(Arc::ptr_eq(&groups[0][0], &a) && Arc::ptr_eq(&groups[0][1], &b));
        assert_eq!(groups[1].len(), 1);
        assert!(Arc::ptr_eq(&groups[1][0], &c));
    }

    #[test]
    fn memo_enabled_session_is_bit_identical_and_counts_hits() {
        let (ps, lut, calib) = layer_setup();
        let x = calib.rows(0, 6);
        let (m, k) = (x.dims()[0], x.dims()[1]);
        let mut rt = LutRuntime::with_options(
            DeployConfig::fp32(),
            RuntimeOptions {
                memo_rows: 64 * 8,
                ..RuntimeOptions::default()
            },
        );
        let engine = rt.engine_with(&lut, &ps, DeployConfig::fp32());
        let reference = lutdla_vq::lock_engine(&engine).run_batch(&x);
        let n = reference.dims()[1];

        let session = rt.serve_layer(&lut, &ps).build();
        for pass in 0..2 {
            for i in 0..m {
                let out = session
                    .submit(&x.data()[i * k..(i + 1) * k])
                    .expect("row")
                    .wait()
                    .expect("session alive");
                assert_eq!(
                    out.as_slice(),
                    &reference.data()[i * n..(i + 1) * n],
                    "pass {pass} row {i} diverged through the memo"
                );
            }
        }
        let stats = session.stats();
        assert_eq!(stats.memo_misses, m, "first pass populated the memo");
        assert_eq!(stats.memo_hits, m, "second pass re-encoded");
    }

    #[test]
    fn whole_net_deploy_via_dense_units_matches_eval_forward() {
        let mut rng = StdRng::seed_from_u64(121);
        let mut ps = ParamSet::new();
        let mut net = resnet20_mini(&mut ps, 4);
        let images = Tensor::randn(&mut rng, &[4, 3, 16, 16], 1.0);
        let _ = lutify_convnet(
            &mut net,
            &mut ps,
            LutConfig::default(),
            CentroidInit::Kmeans,
            ConvertPolicy::default(),
            images.clone(),
            &mut rng,
        );
        let mut g = Graph::new(false);
        let node = net.logits(&mut g, &ps, images.clone());
        let base = g.value(node).clone();

        let mut rt = LutRuntime::new(DeployConfig::fp32());
        rt.deploy(net.dense_units(), &ps);
        let deployed_layers = rt.stats().misses;
        assert!(deployed_layers > 0, "nothing deployed");
        let mut g = Graph::new(false);
        let node = net.logits(&mut g, &ps, images);
        let deployed = g.value(node).clone();
        undeploy_units(net.dense_units());
        assert!(
            deployed.allclose(&base, 1e-3),
            "rel err {}",
            deployed.rel_error(&base)
        );

        // Re-deploying the whole net at the same version re-tiles nothing.
        rt.deploy(net.dense_units(), &ps);
        assert_eq!(rt.stats().misses, deployed_layers);
        assert_eq!(rt.stats().hits, deployed_layers);
    }

    fn converted_net(seed: u64) -> (ParamSet, lutdla_models::trainable::ConvNet, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        let mut net = resnet20_mini(&mut ps, 4);
        let images = Tensor::randn(&mut rng, &[2, 3, 16, 16], 1.0);
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

    /// `build_decode` is gated on the model's incremental-forward
    /// contract; a failed build leaves nothing deployed.
    #[test]
    fn build_decode_rejects_models_without_a_contract() {
        let (ps, net, _) = converted_net(129);
        let mut rt = LutRuntime::new(DeployConfig::fp32());
        let err = rt
            .serve(&net, &ps)
            .build_decode()
            .expect_err("convnets have no incremental-forward contract");
        assert!(
            matches!(&err, ServeError::Invalid { reason } if reason.contains("incremental")),
            "wrong rejection: {err}"
        );
        assert!(
            lut_layers(net.dense_units()).all(|l| l.deployed_engine().is_none()),
            "failed decode build left deploy state behind"
        );
    }
}

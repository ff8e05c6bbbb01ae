//! `ServeGateway`: the multi-tenant serving front door.
//!
//! LUT-DLA's throughput hinges on keeping the table-lookup datapath fed
//! with wide batches, but a [`ModelSession`] is a *single-consumer* front
//! door: every caller that builds its own session flushes its own
//! batches, so two clients of the same model never share an engine call.
//! The gateway closes that gap — it holds one session per registered model
//! and routes requests from many **tenants** through it, so two tenants
//! hitting the same model coalesce into one forward, and every LUT stage
//! of that forward runs one engine call over both tenants' rows (the
//! paper's amortize-one-pass-over-many-consumers argument applied across
//! clients instead of across rows).
//!
//! Three serving concerns layer on top of the routing:
//!
//! * **SLO classes** — each tenant registers under a [`SloClass`]
//!   (`Latency`, `Throughput`, `BestEffort`) that maps onto a per-class
//!   [`ClassPolicy`]: how deep its admission queue runs, how many requests
//!   one drain round may take from it, and an optional shed deadline for
//!   requests that grew stale in the queue.
//! * **Admission control** — [`ServeGateway::submit`] is shed-or-queue:
//!   a full bounded queue turns the request away with the structured
//!   [`ServeError::Shed`] (nothing enqueued, caller may retry), and
//!   shutdown is graceful — [`ServeGateway::close`] and `Drop` drain every
//!   admitted request before the sessions go away.
//! * **Decode streams** — a tenant serving an autoregressive model
//!   ([`ServableModel::decode_contract`]) can open a [`StreamId`] and feed
//!   it token steps ([`ServeGateway::submit_step`]): the gateway grows the
//!   stream's prefix ([`ServableModel::extend_input`]) and routes each
//!   grown prefix through the same admission/drain machinery as plain
//!   submits — many small correlated requests exercising the tenant's SLO
//!   class, each resolving with that prefix's logits. A shed step leaves
//!   the prefix untouched, so `admitted + shed` still accounts for every
//!   step offered.
//! * **Fairness** — each drain round ([`ServeGateway::pump`]) visits
//!   classes in priority order (`Latency` → `Throughput` → `BestEffort`)
//!   and the tenants within a class round-robin from a rotating start, so
//!   no same-class tenant is structurally first. Per-tenant
//!   [`TenantStats`] and the aggregate [`GatewayStats`] sit over the
//!   per-stage [`StageStats`] the sessions already expose.
//!
//! Registering a model builds its session and starts no thread.
//!
//! The gateway is single-thread-driven like the session under it (`!Sync`
//! by construction: interior `Cell`/`RefCell` state): callers submit and
//! pump from one serving thread, and concurrency between tenants means
//! interleaved in-flight requests, not parallel mutation. Results are
//! bit-identical to each tenant running a solo [`ModelSession`], for every
//! `LutQuant × FloatPrecision` combo — coalescing changes batch grouping
//! only, and per-example logits are grouping-independent.
//!
//! # Example
//!
//! ```no_run
//! use lutdla_lutboost::{DeployConfig, GatewayOptions, LutRuntime, ServeGateway, SloClass};
//! # fn demo(net: &lutdla_models::trainable::ConvNet, ps: &lutdla_nn::ParamSet,
//! #         image: lutdla_tensor::Tensor) {
//! let mut rt = LutRuntime::new(DeployConfig::bf16_int8());
//! let mut gw = ServeGateway::new(GatewayOptions::new(DeployConfig::bf16_int8()));
//! let model = gw.register_model(&mut rt, "resnet", net, ps);
//! let web = gw.register_tenant("web", model, SloClass::Latency);
//! let batch = gw.register_tenant("nightly", model, SloClass::BestEffort);
//! let h1 = gw.submit(web, image.clone()).expect("admitted");
//! let h2 = gw.submit(batch, image).expect("admitted");
//! gw.pump(); // both tenants coalesce into one engine batch
//! let (_logits1, _logits2) = (h1.wait(), h2.wait());
//! # }
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

use lutdla_models::trainable::ServableModel;
use lutdla_nn::ParamSet;
use lutdla_vq::{Pending, PendingResolver, ServeError, StageStats};

use crate::deploy::DeployConfig;
use crate::runtime::LutRuntime;
use crate::session::ModelSession;

/// Handle to a model registered with [`ServeGateway::register_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(usize);

impl ModelId {
    /// The model's registration index (its position in registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a tenant registered with [`ServeGateway::register_tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a decode stream opened with [`ServeGateway::open_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

impl StreamId {
    /// The stream's open-order index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A tenant's service-level objective class. Classes are drained in
/// declaration order each [`ServeGateway::pump`]: `Latency` first,
/// `BestEffort` last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Interactive traffic: drained first, generous queue, wide per-round
    /// quota so admitted requests clear in few rounds.
    Latency,
    /// Bulk traffic that cares about rows/s, not tail latency: deepest
    /// queue, widest quota, drained after `Latency`.
    Throughput,
    /// Scavenger traffic: smallest queue (sheds first under overload) and
    /// a tiny per-round quota, drained last.
    BestEffort,
}

impl SloClass {
    /// All classes, in drain-priority order.
    pub const ALL: [SloClass; 3] = [
        SloClass::Latency,
        SloClass::Throughput,
        SloClass::BestEffort,
    ];

    /// Stable snake_case name (the form `BENCH_serve.json` uses).
    pub fn as_str(self) -> &'static str {
        match self {
            SloClass::Latency => "latency",
            SloClass::Throughput => "throughput",
            SloClass::BestEffort => "best_effort",
        }
    }

    /// Position in [`SloClass::ALL`] (drain-priority order) — handy for
    /// per-class accumulator arrays in reporting layers.
    pub fn index(self) -> usize {
        match self {
            SloClass::Latency => 0,
            SloClass::Throughput => 1,
            SloClass::BestEffort => 2,
        }
    }

    /// The class's default admission/drain knobs. The asymmetry is the
    /// point: `BestEffort`'s queue is 4× shallower than `Latency`'s (so it
    /// sheds first when both are offered the same overload) and its
    /// per-round quota 8× narrower (so admitted scavenger work trickles
    /// out behind interactive work instead of riding its batches).
    pub fn default_policy(self) -> ClassPolicy {
        match self {
            SloClass::Latency => ClassPolicy {
                max_queue: 64,
                quota: 16,
                shed_deadline: None,
            },
            SloClass::Throughput => ClassPolicy {
                max_queue: 256,
                quota: 64,
                shed_deadline: None,
            },
            SloClass::BestEffort => ClassPolicy {
                max_queue: 16,
                quota: 2,
                shed_deadline: None,
            },
        }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-tenant admission/drain knobs, defaulted from the tenant's
/// [`SloClass`] (see [`SloClass::default_policy`]) and overridable per
/// tenant via [`ServeGateway::register_tenant_with`].
#[derive(Debug, Clone, Copy)]
pub struct ClassPolicy {
    /// Bounded admission-queue depth: a submit finding the queue at this
    /// depth is turned away with [`ServeError::Shed`]. Clamped to ≥ 1.
    pub max_queue: usize,
    /// How many requests one [`ServeGateway::pump`] round may take from
    /// this tenant's queue. Clamped to ≥ 1.
    pub quota: usize,
    /// If set, a request older than this when a pump reaches it is shed
    /// instead of served (its waiter observes [`ServeError::Closed`]
    /// through the dropped handle, and [`TenantStats::expired`] counts
    /// it). `None` (the class defaults) never expires admitted work.
    pub shed_deadline: Option<Duration>,
}

/// Construction-time options for [`ServeGateway`].
#[derive(Debug, Clone, Copy)]
pub struct GatewayOptions {
    /// Deployment numerics every registered model's engines are tiled at.
    pub cfg: DeployConfig,
}

impl GatewayOptions {
    /// Options with the given numerics.
    pub fn new(cfg: DeployConfig) -> Self {
        Self { cfg }
    }
}

/// Per-tenant serving counters. `admitted + shed` is every submit the
/// tenant ever offered; `rows_served + expired + queued` accounts for
/// every admitted request (served, deadline-shed, or still waiting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's registration name.
    pub name: String,
    /// The tenant's SLO class.
    pub class: SloClass,
    /// Requests that passed admission control into the queue.
    pub admitted: u64,
    /// Requests turned away at admission ([`ServeError::Shed`]).
    pub shed: u64,
    /// Admitted requests shed later by the shed deadline.
    pub expired: u64,
    /// Admitted requests served to completion.
    pub rows_served: u64,
    /// Deepest the admission queue ever got.
    pub queue_high_water: usize,
    /// Requests admitted but not yet pumped.
    pub queued: usize,
}

/// Gateway-wide aggregate counters (sum over tenants and sessions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Registered models.
    pub models: usize,
    /// Registered tenants.
    pub tenants: usize,
    /// Requests admitted across all tenants.
    pub admitted: u64,
    /// Requests shed at admission across all tenants.
    pub shed: u64,
    /// Admitted requests later shed by a deadline.
    pub expired: u64,
    /// Requests served to completion.
    pub rows_served: u64,
    /// Coalesced whole-model forward batches run across all sessions —
    /// *the* coalescing observable: two tenants sharing a model advance
    /// this less than the sum of their solo runs would.
    pub batches_run: u64,
}

/// One registered model: the session every tenant of this model routes
/// through.
struct GatewayModel<'m, M: ServableModel> {
    name: String,
    model: &'m M,
    session: ModelSession<'m, M>,
    /// Round-robin start cursor per SLO class, rotated every pump so no
    /// same-class tenant is structurally drained first.
    cursors: [Cell<usize>; 3],
}

/// One admitted, not-yet-pumped request.
struct Queued<I> {
    input: I,
    resolver: PendingResolver,
    /// Stamped at admission only when the tenant has a shed deadline, so
    /// deadline-free tenants (the defaults) read no clock on submit.
    enqueued_at: Option<Instant>,
}

/// One open decode stream: the tenant it bills to and the token prefix
/// grown so far. The prefix only advances when a step is *admitted* — a
/// shed or rejected step leaves it untouched, so retrying the same step
/// is always sound.
struct DecodeStream<I> {
    tenant: TenantId,
    prefix: RefCell<Option<I>>,
    steps: Cell<usize>,
}

struct Tenant<I> {
    name: String,
    model: ModelId,
    class: SloClass,
    policy: ClassPolicy,
    queue: RefCell<VecDeque<Queued<I>>>,
    admitted: Cell<u64>,
    shed: Cell<u64>,
    expired: Cell<u64>,
    rows_served: Cell<u64>,
    queue_high_water: Cell<usize>,
}

/// The multi-tenant serving front door. See the module docs.
pub struct ServeGateway<'m, M: ServableModel> {
    opts: GatewayOptions,
    models: Vec<GatewayModel<'m, M>>,
    tenants: Vec<Tenant<M::Input>>,
    streams: Vec<DecodeStream<M::Input>>,
    closed: Cell<bool>,
}

impl<'m, M: ServableModel> ServeGateway<'m, M> {
    /// An empty gateway; register models, then tenants, then serve.
    pub fn new(opts: GatewayOptions) -> Self {
        Self {
            opts,
            models: Vec::new(),
            tenants: Vec::new(),
            streams: Vec::new(),
            closed: Cell::new(false),
        }
    }

    /// Registers a model: builds the gateway's session over it through the
    /// runtime's engine cache ([`crate::SessionBuilder::build_model`] at
    /// [`GatewayOptions::cfg`]). Every tenant bound to the returned
    /// [`ModelId`] drains through this one session.
    pub fn register_model(
        &mut self,
        rt: &mut LutRuntime,
        name: &str,
        model: &'m M,
        ps: &'m ParamSet,
    ) -> ModelId {
        let session = rt.serve(model, ps).config(self.opts.cfg).build_model();
        let id = ModelId(self.models.len());
        self.models.push(GatewayModel {
            name: name.to_string(),
            model,
            session,
            cursors: [Cell::new(0), Cell::new(0), Cell::new(0)],
        });
        id
    }

    /// Registers a tenant on a model under a class's default policy.
    pub fn register_tenant(&mut self, name: &str, model: ModelId, class: SloClass) -> TenantId {
        self.register_tenant_with(name, model, class, class.default_policy())
    }

    /// [`ServeGateway::register_tenant`] with explicit per-tenant knobs.
    pub fn register_tenant_with(
        &mut self,
        name: &str,
        model: ModelId,
        class: SloClass,
        policy: ClassPolicy,
    ) -> TenantId {
        assert!(
            model.0 < self.models.len(),
            "tenant `{name}` registered on unknown model id {}",
            model.0
        );
        let id = TenantId(self.tenants.len());
        self.tenants.push(Tenant {
            name: name.to_string(),
            model,
            class,
            policy: ClassPolicy {
                max_queue: policy.max_queue.max(1),
                quota: policy.quota.max(1),
                ..policy
            },
            queue: RefCell::new(VecDeque::new()),
            admitted: Cell::new(0),
            shed: Cell::new(0),
            expired: Cell::new(0),
            rows_served: Cell::new(0),
            queue_high_water: Cell::new(0),
        });
        id
    }

    /// Shed-or-queue admission: validates the request at the front door
    /// (unknown tenant / bad input → [`ServeError::Invalid`], closed
    /// gateway → [`ServeError::Closed`]), then either turns it away with
    /// [`ServeError::Shed`] — the tenant's bounded queue is full, nothing
    /// was enqueued — or admits it and returns the [`Pending`] handle the
    /// next [`ServeGateway::pump`] will resolve.
    pub fn submit(&self, tenant: TenantId, input: M::Input) -> Result<Pending, ServeError> {
        if self.closed.get() {
            return Err(ServeError::Closed);
        }
        let Some(t) = self.tenants.get(tenant.0) else {
            return Err(ServeError::Invalid {
                reason: format!("unknown tenant id {}", tenant.0),
            });
        };
        let gm = &self.models[t.model.0];
        if let Err(reason) = gm.model.validate_input(&input) {
            return Err(ServeError::Invalid { reason });
        }
        let mut queue = t.queue.borrow_mut();
        if queue.len() >= t.policy.max_queue {
            t.shed.set(t.shed.get() + 1);
            return Err(ServeError::Shed {
                queue_depth: queue.len(),
            });
        }
        let (resolver, pending) = Pending::channel();
        queue.push_back(Queued {
            input,
            resolver,
            enqueued_at: t.policy.shed_deadline.map(|_| Instant::now()),
        });
        t.admitted.set(t.admitted.get() + 1);
        if queue.len() > t.queue_high_water.get() {
            t.queue_high_water.set(queue.len());
        }
        Ok(pending)
    }

    /// Opens a decode stream billed to `tenant`. The tenant's model must
    /// honour the incremental-forward contract
    /// ([`ServableModel::decode_contract`], e.g. a causal transformer) —
    /// anything else is [`ServeError::Invalid`], as is an unknown tenant;
    /// a closed gateway is [`ServeError::Closed`].
    pub fn open_stream(&mut self, tenant: TenantId) -> Result<StreamId, ServeError> {
        if self.closed.get() {
            return Err(ServeError::Closed);
        }
        let Some(t) = self.tenants.get(tenant.0) else {
            return Err(ServeError::Invalid {
                reason: format!("unknown tenant id {}", tenant.0),
            });
        };
        self.models[t.model.0]
            .model
            .decode_contract()
            .map_err(|reason| ServeError::Invalid { reason })?;
        let id = StreamId(self.streams.len());
        self.streams.push(DecodeStream {
            tenant,
            prefix: RefCell::new(None),
            steps: Cell::new(0),
        });
        Ok(id)
    }

    /// Feeds one token step to a decode stream: grows the stream's prefix
    /// ([`ServableModel::extend_input`]; the first step *is* the prefix)
    /// and submits the grown prefix through the stream's tenant — same
    /// admission control, same SLO class, same pump rounds as
    /// [`ServeGateway::submit`]. The returned handle resolves with the
    /// grown prefix's logits.
    ///
    /// On any error — shed, closed, invalid step — the prefix does **not**
    /// advance, so the caller may retry the same step after backing off;
    /// a shed step still counts in the tenant's `shed` tally, keeping
    /// `admitted + shed` equal to the steps offered.
    pub fn submit_step(&self, stream: StreamId, step: M::Input) -> Result<Pending, ServeError> {
        let Some(s) = self.streams.get(stream.0) else {
            return Err(ServeError::Invalid {
                reason: format!("unknown stream id {}", stream.0),
            });
        };
        let grown = match s.prefix.borrow().as_ref() {
            Some(prefix) => self.models[self.tenants[s.tenant.0].model.0]
                .model
                .extend_input(prefix, &step)
                .map_err(|reason| ServeError::Invalid { reason })?,
            None => step,
        };
        let pending = self.submit(s.tenant, grown.clone())?;
        *s.prefix.borrow_mut() = Some(grown);
        s.steps.set(s.steps.get() + 1);
        Ok(pending)
    }

    /// Steps admitted on a stream so far (`None` for an unknown id).
    pub fn stream_steps(&self, stream: StreamId) -> Option<usize> {
        self.streams.get(stream.0).map(|s| s.steps.get())
    }

    /// Positions in a stream's grown prefix (`None` for an unknown id,
    /// `0` before the first admitted step).
    pub fn stream_positions(&self, stream: StreamId) -> Option<usize> {
        let s = self.streams.get(stream.0)?;
        let model = self.models[self.tenants[s.tenant.0].model.0].model;
        Some(
            s.prefix
                .borrow()
                .as_ref()
                .map_or(0, |p| model.input_positions(p)),
        )
    }

    /// One drain round: for every model, gathers up to each tenant's
    /// per-round quota — classes in priority order, same-class tenants
    /// round-robin from a rotating start — submits the gathered requests
    /// through the model's shared session, flushes **once** (so everything
    /// gathered this round coalesces), and resolves each tenant handle
    /// with its logits, reusing the flush's single resolution stamp.
    /// Returns how many requests were served.
    pub fn pump(&self) -> usize {
        // One clock read per round, and only if some tenant can expire.
        let now = self
            .tenants
            .iter()
            .any(|t| t.policy.shed_deadline.is_some())
            .then(Instant::now);
        let mut served = 0;
        for (mid, gm) in self.models.iter().enumerate() {
            served += self.pump_model(mid, gm, now);
        }
        served
    }

    fn pump_model(&self, mid: usize, gm: &GatewayModel<'m, M>, now: Option<Instant>) -> usize {
        let mut gathered: Vec<(usize, PendingResolver, Pending)> = Vec::new();
        for class in SloClass::ALL {
            let ids: Vec<usize> = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| t.model.0 == mid && t.class == class)
                .map(|(i, _)| i)
                .collect();
            if ids.is_empty() {
                continue;
            }
            let cursor = &gm.cursors[class.index()];
            let start = cursor.get() % ids.len();
            cursor.set(start + 1);
            for off in 0..ids.len() {
                let tid = ids[(start + off) % ids.len()];
                let t = &self.tenants[tid];
                let mut taken = 0;
                while taken < t.policy.quota {
                    let entry = t.queue.borrow_mut().pop_front();
                    let Some(entry) = entry else { break };
                    if let (Some(deadline), Some(at), Some(now)) =
                        (t.policy.shed_deadline, entry.enqueued_at, now)
                    {
                        if now.saturating_duration_since(at) > deadline {
                            // Stale: drop the resolver (the waiter observes
                            // `Closed`) and account it as expired, not served.
                            t.expired.set(t.expired.get() + 1);
                            continue;
                        }
                    }
                    match gm.session.submit(entry.input) {
                        Ok(pending) => {
                            // The session resolves this handle at flush; the
                            // tenant's own handle resolves from it below.
                            gathered.push((tid, entry.resolver, pending));
                            taken += 1;
                        }
                        Err(_) => {
                            // Unreachable in practice: the input passed
                            // `validate_input` at admission. Dropping the
                            // resolver reports `Closed` to the waiter.
                        }
                    }
                }
            }
        }
        if gathered.is_empty() {
            return 0;
        }
        gm.session.flush();
        let mut served = 0;
        for (tid, resolver, pending) in gathered {
            if let Ok((rows, timing)) = pending.wait_timed() {
                resolver.resolve_at(rows, timing.resolved_at);
                let t = &self.tenants[tid];
                t.rows_served.set(t.rows_served.get() + 1);
                served += 1;
            }
        }
        served
    }

    /// Serves until every admission queue is empty (requests admitted
    /// *during* the drain — there is no new submitter on this thread —
    /// are not a concern; the loop simply runs until queues are dry).
    pub fn drain(&self) {
        loop {
            let before = self.queued();
            if before == 0 {
                return;
            }
            let _ = self.pump();
            if self.queued() >= before {
                // Defensive: no progress this round (cannot happen — a pump
                // always consumes from every non-empty visited queue).
                return;
            }
        }
    }

    /// Graceful shutdown: drains every admitted request, then refuses
    /// further submits with [`ServeError::Closed`]. Dropping the gateway
    /// closes it the same way.
    pub fn close(&self) {
        if !self.closed.get() {
            self.drain();
            self.closed.set(true);
        }
    }

    /// Requests admitted but not yet pumped, across all tenants.
    pub fn queued(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.borrow().len()).sum()
    }

    /// The named model's registration handle, if registered.
    pub fn model_id(&self, name: &str) -> Option<ModelId> {
        self.models.iter().position(|m| m.name == name).map(ModelId)
    }

    /// One tenant's counters, or `None` for an unknown id.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.tenants.get(tenant.0).map(|t| TenantStats {
            name: t.name.clone(),
            class: t.class,
            admitted: t.admitted.get(),
            shed: t.shed.get(),
            expired: t.expired.get(),
            rows_served: t.rows_served.get(),
            queue_high_water: t.queue_high_water.get(),
            queued: t.queue.borrow().len(),
        })
    }

    /// Every tenant's counters, in registration order.
    pub fn all_tenant_stats(&self) -> Vec<TenantStats> {
        (0..self.tenants.len())
            .filter_map(|i| self.tenant_stats(TenantId(i)))
            .collect()
    }

    /// Gateway-wide aggregates (see [`GatewayStats`]).
    pub fn stats(&self) -> GatewayStats {
        GatewayStats {
            models: self.models.len(),
            tenants: self.tenants.len(),
            admitted: self.tenants.iter().map(|t| t.admitted.get()).sum(),
            shed: self.tenants.iter().map(|t| t.shed.get()).sum(),
            expired: self.tenants.iter().map(|t| t.expired.get()).sum(),
            rows_served: self.tenants.iter().map(|t| t.rows_served.get()).sum(),
            batches_run: self
                .models
                .iter()
                .map(|m| m.session.batches_run() as u64)
                .sum(),
        }
    }

    /// Per-stage counters of one model's session (accumulating across the
    /// gateway's whole lifetime; diff two snapshots with
    /// [`StageStats::delta`] for per-interval views). Empty for an
    /// unknown id.
    pub fn stage_stats(&self, model: ModelId) -> Vec<(&str, StageStats)> {
        self.models
            .get(model.0)
            .map(|m| m.session.stage_stats())
            .unwrap_or_default()
    }
}

impl<M: ServableModel> Drop for ServeGateway<'_, M> {
    fn drop(&mut self) {
        // Graceful: admitted work is served before the sessions go away.
        self.close();
    }
}

impl<M: ServableModel> std::fmt::Debug for ServeGateway<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeGateway")
            .field("models", &self.models.len())
            .field("tenants", &self.tenants.len())
            .field("queued", &self.queued())
            .field("closed", &self.closed.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{lutify_convnet, lutify_transformer, CentroidInit, ConvertPolicy};
    use crate::lut_gemm::LutConfig;
    use lutdla_models::trainable::{gpt_mini, resnet20_mini, ConvNet, TransformerClassifier};
    use lutdla_tensor::Tensor;
    use lutdla_vq::{FloatPrecision, LutQuant};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn converted_convnet(seed: u64) -> (ParamSet, ConvNet, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
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

    fn converted_gpt(seed: u64) -> (ParamSet, TransformerClassifier, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        let mut net = gpt_mini(&mut ps, 8);
        let tokens: Vec<usize> = (0..6 * 16).map(|i| (i * 7 + 5) % 64).collect();
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
        let i = i % images.dims()[0];
        Tensor::from_vec(images.data()[i * per..(i + 1) * per].to_vec(), &[3, 16, 16])
    }

    /// Each request's logits from a solo `ModelSession` — the bit-identity
    /// reference every gateway result must equal exactly. Built while the
    /// gateway's own session over the same model is live.
    fn solo_reference(
        rt: &mut LutRuntime,
        cfg: DeployConfig,
        net: &ConvNet,
        ps: &ParamSet,
        inputs: &[Tensor],
    ) -> Vec<Vec<f32>> {
        let session = rt.serve(net, ps).config(cfg).build_model();
        let handles: Vec<_> = inputs
            .iter()
            .map(|x| session.submit(x.clone()).expect("valid image"))
            .collect();
        session.flush();
        handles
            .into_iter()
            .map(|h| h.wait().expect("solo session alive"))
            .collect()
    }

    /// Acceptance property (tentpole §4): gateway results are bit-identical
    /// to per-tenant solo sessions for every LutQuant × FloatPrecision
    /// combo — coalescing across tenants only changes batch grouping.
    #[test]
    fn gateway_matches_solo_sessions_across_all_combos() {
        let (ps, net, images) = converted_convnet(130);
        let inputs: Vec<Tensor> = (0..6).map(|i| image(&images, i)).collect();
        for cfg in all_combos() {
            let mut rt = LutRuntime::new(cfg);
            let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
            let model = gw.register_model(&mut rt, "resnet", &net, &ps);
            let a = gw.register_tenant("a", model, SloClass::Latency);
            let b = gw.register_tenant("b", model, SloClass::Throughput);
            // The two tenants interleave their in-flight requests.
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let tenant = if i % 2 == 0 { a } else { b };
                    gw.submit(tenant, x.clone()).expect("admitted")
                })
                .collect();
            let reference = solo_reference(&mut rt, cfg, &net, &ps, &inputs);
            gw.drain();
            for (i, h) in handles.into_iter().enumerate() {
                let rows = h.wait().expect("gateway alive");
                assert_eq!(
                    rows, reference[i],
                    "request {i} diverged from solo at {cfg:?}"
                );
            }
        }
    }

    /// Acceptance property (tentpole §1/§3 + criteria): two tenants
    /// submitting concurrently coalesce into strictly fewer whole-model
    /// batches than the sum of two solo runs.
    #[test]
    fn concurrent_tenants_coalesce_into_fewer_batches_than_solo_runs() {
        let (ps, net, images) = converted_convnet(132);
        let cfg = DeployConfig::fp32();
        let mut rt = LutRuntime::new(cfg);
        let a_inputs: Vec<Tensor> = (0..3).map(|i| image(&images, i)).collect();
        let b_inputs: Vec<Tensor> = (3..6).map(|i| image(&images, i)).collect();

        // Solo baselines: each tenant alone flushes (at least) one batch.
        let mut solo_batches = 0;
        let mut solo_logits = Vec::new();
        for inputs in [&a_inputs, &b_inputs] {
            let session = rt.serve(&net, &ps).config(cfg).build_model();
            let logits = session.run(inputs.iter().cloned()).expect("solo run");
            solo_batches += session.batches_run();
            solo_logits.push(logits);
        }
        assert_eq!(solo_batches, 2);

        let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
        let model = gw.register_model(&mut rt, "resnet", &net, &ps);
        let a = gw.register_tenant("a", model, SloClass::Latency);
        let b = gw.register_tenant("b", model, SloClass::Latency);
        let mut handles = Vec::new();
        for (xa, xb) in a_inputs.iter().zip(&b_inputs) {
            handles.push((a, gw.submit(a, xa.clone()).expect("admitted")));
            handles.push((b, gw.submit(b, xb.clone()).expect("admitted")));
        }
        assert_eq!(gw.pump(), 6);

        let stats = gw.stats();
        assert_eq!(stats.rows_served, 6);
        assert!(
            (stats.batches_run as usize) < solo_batches,
            "no cross-tenant coalescing: gateway ran {} batches vs {solo_batches} solo",
            stats.batches_run
        );
        assert_eq!(stats.batches_run, 1, "one pump, one coalesced flush");

        // …and the coalesced logits still equal the solo ones, bitwise.
        let (mut ia, mut ib) = (0, 0);
        for (tenant, h) in handles {
            let rows = h.wait().expect("gateway alive");
            let (solo, idx) = if tenant == a {
                (&solo_logits[0], &mut ia)
            } else {
                (&solo_logits[1], &mut ib)
            };
            let n = solo.dims()[1];
            assert_eq!(rows.as_slice(), &solo.data()[*idx * n..(*idx + 1) * n]);
            *idx += 1;
        }

        // Every LUT stage served all 6 requests' rows in one engine call.
        for (name, s) in gw.stage_stats(model) {
            assert!(s.rows_served > 0, "stage {name} served nothing");
            assert_eq!(s.batches_run, 1, "stage {name}: one call per flush");
        }
    }

    /// Satellite: deterministic overload. Equal offered load, default-style
    /// asymmetric queues → `BestEffort` sheds (with the structured error)
    /// while `Latency` still admits, and every admitted request is served
    /// bit-identically — no rows lost.
    #[test]
    fn best_effort_sheds_before_latency_and_admitted_rows_survive() {
        let (ps, net, images) = converted_convnet(133);
        let cfg = DeployConfig::fp32();
        let mut rt = LutRuntime::new(cfg);
        let inputs: Vec<Tensor> = (0..10).map(|i| image(&images, i)).collect();
        let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
        let model = gw.register_model(&mut rt, "resnet", &net, &ps);
        let reference = solo_reference(&mut rt, cfg, &net, &ps, &inputs);
        let lat = gw.register_tenant_with(
            "interactive",
            model,
            SloClass::Latency,
            ClassPolicy {
                max_queue: 12,
                ..SloClass::Latency.default_policy()
            },
        );
        let be = gw.register_tenant_with(
            "scavenger",
            model,
            SloClass::BestEffort,
            ClassPolicy {
                max_queue: 3,
                ..SloClass::BestEffort.default_policy()
            },
        );

        // Offer the same 10 requests to both, alternating, without pumping:
        // BestEffort's shallower queue must shed first (and Latency not at
        // all).
        let mut admitted: Vec<(usize, Pending)> = Vec::new();
        let mut be_sheds = Vec::new();
        for (i, x) in inputs.iter().enumerate() {
            match gw.submit(lat, x.clone()) {
                Ok(h) => admitted.push((i, h)),
                Err(e) => panic!("latency request {i} rejected: {e}"),
            }
            match gw.submit(be, x.clone()) {
                Ok(h) => admitted.push((i, h)),
                Err(e) => be_sheds.push((i, e)),
            }
        }
        assert_eq!(be_sheds.len(), 7, "3-deep queue admits 3 of 10");
        assert_eq!(
            be_sheds[0],
            (3, ServeError::Shed { queue_depth: 3 }),
            "first shed: the 4th best-effort request, at the bound"
        );
        let lat_stats = gw.tenant_stats(lat).expect("registered");
        let be_stats = gw.tenant_stats(be).expect("registered");
        assert_eq!((lat_stats.admitted, lat_stats.shed), (10, 0));
        assert_eq!((be_stats.admitted, be_stats.shed), (3, 7));
        assert_eq!(be_stats.queue_high_water, 3);

        // Graceful drain: every admitted request resolves, bit-identical.
        gw.drain();
        for (i, h) in admitted {
            let rows = h.wait().expect("admitted request lost");
            assert_eq!(rows, reference[i], "admitted request {i} diverged");
        }
        let stats = gw.stats();
        assert_eq!(stats.rows_served, 13);
        assert_eq!(stats.shed, 7);
        assert_eq!(gw.queued(), 0);
    }

    /// A shed deadline expires stale admitted work at pump time instead of
    /// serving it; deadline-free tenants are untouched.
    #[test]
    fn shed_deadline_expires_stale_queued_requests() {
        let (ps, net, images) = converted_convnet(134);
        let cfg = DeployConfig::fp32();
        let mut rt = LutRuntime::new(cfg);
        let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
        let model = gw.register_model(&mut rt, "resnet", &net, &ps);
        let stale = gw.register_tenant_with(
            "stale",
            model,
            SloClass::BestEffort,
            ClassPolicy {
                shed_deadline: Some(Duration::ZERO),
                ..SloClass::BestEffort.default_policy()
            },
        );
        let fresh = gw.register_tenant("fresh", model, SloClass::Latency);

        let h_stale = gw.submit(stale, image(&images, 0)).expect("admitted");
        let h_fresh = gw.submit(fresh, image(&images, 1)).expect("admitted");
        // Let the zero deadline lapse unambiguously.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(gw.pump(), 1, "only the fresh request is served");

        assert_eq!(
            h_stale.wait(),
            Err(ServeError::Closed),
            "expired handle reports closed"
        );
        assert!(h_fresh.wait().is_ok());
        let s = gw.tenant_stats(stale).expect("registered");
        assert_eq!((s.admitted, s.expired, s.rows_served), (1, 1, 0));
        assert_eq!(gw.stats().expired, 1);
    }

    /// Front-door rejection paths: unknown tenants and invalid inputs
    /// never reach a queue; a closed gateway refuses everything.
    #[test]
    fn front_door_rejects_unknown_tenants_bad_inputs_and_closed_submits() {
        let (ps, net, images) = converted_convnet(135);
        let cfg = DeployConfig::fp32();
        let mut rt = LutRuntime::new(cfg);
        let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
        let model = gw.register_model(&mut rt, "resnet", &net, &ps);
        let t = gw.register_tenant("t", model, SloClass::Latency);

        match gw.submit(TenantId(99), image(&images, 0)) {
            Err(ServeError::Invalid { reason }) => assert!(reason.contains("unknown tenant")),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let bad = Tensor::from_vec(vec![0.0; 4], &[2, 2]);
        assert!(matches!(gw.submit(t, bad), Err(ServeError::Invalid { .. })));
        assert_eq!(gw.stats().admitted, 0, "rejections never enqueue");

        // close() drains admitted work, then refuses new submits.
        let h = gw.submit(t, image(&images, 0)).expect("admitted");
        gw.close();
        assert!(h.wait().is_ok(), "close lost an admitted request");
        assert_eq!(
            gw.submit(t, image(&images, 1)).map(|_| ()),
            Err(ServeError::Closed)
        );
        gw.close(); // idempotent
    }

    /// Fairness: same-class tenants under a narrow per-round quota get
    /// served in lock-step — neither can starve the other.
    #[test]
    fn same_class_tenants_share_rounds_equally_under_quota() {
        let (ps, net, images) = converted_convnet(136);
        let cfg = DeployConfig::fp32();
        let mut rt = LutRuntime::new(cfg);
        let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
        let model = gw.register_model(&mut rt, "resnet", &net, &ps);
        let quota1 = ClassPolicy {
            max_queue: 8,
            quota: 1,
            shed_deadline: None,
        };
        let a = gw.register_tenant_with("a", model, SloClass::Throughput, quota1);
        let b = gw.register_tenant_with("b", model, SloClass::Throughput, quota1);
        let mut handles = Vec::new();
        for i in 0..4 {
            handles.push(gw.submit(a, image(&images, i)).expect("admitted"));
            handles.push(gw.submit(b, image(&images, i)).expect("admitted"));
        }
        for round in 1..=4 {
            assert_eq!(gw.pump(), 2, "round {round} must serve one per tenant");
            let sa = gw.tenant_stats(a).expect("a").rows_served;
            let sb = gw.tenant_stats(b).expect("b").rows_served;
            assert_eq!((sa, sb), (round, round), "unequal service in round {round}");
        }
        for h in handles {
            assert!(h.wait().is_ok());
        }
    }

    /// Multi-model routing: tenants on different registered models get
    /// their own model's logits (each bit-identical to that model's solo
    /// session), through one gateway.
    #[test]
    fn tenants_route_to_their_registered_model() {
        let (ps1, net1, images) = converted_convnet(137);
        let (ps2, net2, _) = converted_convnet(138);
        let cfg = DeployConfig::fp32();
        let mut rt = LutRuntime::new(cfg);
        let inputs: Vec<Tensor> = (0..4).map(|i| image(&images, i)).collect();
        let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
        let m1 = gw.register_model(&mut rt, "resnet-a", &net1, &ps1);
        let m2 = gw.register_model(&mut rt, "resnet-b", &net2, &ps2);
        let ref1 = solo_reference(&mut rt, cfg, &net1, &ps1, &inputs);
        let ref2 = solo_reference(&mut rt, cfg, &net2, &ps2, &inputs);
        assert_eq!(gw.model_id("resnet-a"), Some(m1));
        assert_eq!(gw.model_id("resnet-b"), Some(m2));
        assert_eq!(gw.model_id("nope"), None);
        let t1 = gw.register_tenant("on-a", m1, SloClass::Latency);
        let t2 = gw.register_tenant("on-b", m2, SloClass::Latency);

        let mut handles = Vec::new();
        for x in &inputs {
            handles.push((t1, gw.submit(t1, x.clone()).expect("admitted")));
            handles.push((t2, gw.submit(t2, x.clone()).expect("admitted")));
        }
        gw.drain();
        let (mut i1, mut i2) = (0, 0);
        for (tenant, h) in handles {
            let rows = h.wait().expect("gateway alive");
            if tenant == t1 {
                assert_eq!(rows, ref1[i1], "model-a request {i1} diverged");
                i1 += 1;
            } else {
                assert_eq!(rows, ref2[i2], "model-b request {i2} diverged");
                i2 += 1;
            }
        }
        assert_eq!(gw.stats().models, 2);
        assert_eq!(gw.stats().rows_served, 8);
    }

    /// Dropping the gateway is a graceful close: queued work is served,
    /// not abandoned.
    #[test]
    fn drop_drains_admitted_requests() {
        let (ps, net, images) = converted_convnet(139);
        let cfg = DeployConfig::fp32();
        let mut rt = LutRuntime::new(cfg);
        let handle = {
            let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
            let model = gw.register_model(&mut rt, "resnet", &net, &ps);
            let t = gw.register_tenant("t", model, SloClass::Latency);
            gw.submit(t, image(&images, 0)).expect("admitted")
            // `gw` drops here with the request still queued.
        };
        assert!(handle.wait().is_ok(), "drop abandoned an admitted request");
    }

    /// Satellite: a decode stream with in-flight steps survives graceful
    /// shutdown — `close()` drains every admitted step (none lost, each
    /// bit-identical to a solo session over the same grown prefix), shed
    /// steps never advance the prefix, and `admitted + shed` accounts for
    /// every step offered.
    #[test]
    fn close_drains_in_flight_decode_steps_and_accounts_every_step() {
        let (ps, net, tokens) = converted_gpt(140);
        let cfg = DeployConfig::fp32();
        let mut rt = LutRuntime::new(cfg);
        let mut gw = ServeGateway::new(GatewayOptions::new(cfg));
        let model = gw.register_model(&mut rt, "gpt", &net, &ps);
        let t = gw.register_tenant_with(
            "decoder",
            model,
            SloClass::BestEffort,
            ClassPolicy {
                max_queue: 4,
                ..SloClass::BestEffort.default_policy()
            },
        );
        let stream = gw.open_stream(t).expect("gpt_mini is causal");

        // Offer 7 single-token steps without pumping: the 4-deep queue
        // admits 4 in flight, sheds 3, and a shed step must not grow the
        // prefix.
        let offered = 7u64;
        let mut admitted: Vec<(Vec<usize>, Pending)> = Vec::new();
        let mut shed = 0u64;
        let mut prefix: Vec<usize> = Vec::new();
        for (i, &tok) in tokens.iter().enumerate().take(offered as usize) {
            match gw.submit_step(stream, vec![tok]) {
                Ok(h) => {
                    prefix.push(tok);
                    admitted.push((prefix.clone(), h));
                }
                Err(ServeError::Shed { .. }) => shed += 1,
                Err(e) => panic!("step {i} rejected unexpectedly: {e}"),
            }
        }
        assert_eq!((admitted.len(), shed), (4, 3));
        let st = gw.tenant_stats(t).expect("registered");
        assert_eq!(st.admitted + st.shed, offered, "a step went unaccounted");
        assert_eq!((st.admitted, st.shed), (4, 3));
        assert_eq!(gw.stream_steps(stream), Some(4));
        assert_eq!(gw.stream_positions(stream), Some(4));

        // Close with all four steps still in flight: the drain serves them.
        gw.close();
        assert_eq!(gw.queued(), 0);
        assert_eq!(gw.stats().rows_served, 4);
        // A post-close step is refused without touching the prefix.
        assert_eq!(
            gw.submit_step(stream, vec![tokens[0]]).map(|_| ()),
            Err(ServeError::Closed)
        );
        assert_eq!(gw.stream_positions(stream), Some(4));

        let solo = rt.serve(&net, &ps).build_model();
        for (i, (prefix, h)) in admitted.into_iter().enumerate() {
            let rows = h.wait().expect("admitted step lost in drain");
            let want = solo.submit(prefix).expect("valid prefix");
            solo.flush();
            let want = want.wait().expect("solo session alive");
            assert_eq!(rows, want, "decode step {i} diverged from solo eval");
        }
    }
}

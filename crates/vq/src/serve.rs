//! The engine-calling seam every serving path shares: [`EngineStage`] runs
//! one engine call on the caller's thread and accounts it, and
//! [`MicroBatcher`] is the single-layer front door that coalesces row
//! requests into those calls.
//!
//! **`EngineStage`** is what a deployed LUT layer calls during its eval
//! forward, with no queue in between — the CPU twin of LUT-DLA feeding
//! each layer's CCM encode straight into its IMM lookup. One
//! [`EngineStage::run`] locks the engine, runs the block through
//! [`LutEngine::run_batch`] (or [`LutEngine::run_batch_memo`] when the
//! stage carries an [`EncodeMemo`]), and records the call in the stage's
//! [`StageStats`]: calls, rows, widest call, and engine service time.
//!
//! **`MicroBatcher`** serves one engine to many single-row submitters. It
//! runs one collector thread: the first request opens a batch and starts a
//! deadline clock, further requests join until either
//! [`BatchOptions::max_batch`] rows are pending or
//! [`BatchOptions::max_delay`] elapses, then the whole batch runs through
//! the batcher's own `EngineStage` and each caller's [`Pending`] handle
//! resolves with its own output rows. Requests may carry one row
//! ([`MicroBatcher::submit`]) or a whole block
//! ([`MicroBatcher::submit_rows`]).
//!
//! Two degenerate windows are first-class: `max_batch == 1` flushes every
//! request the moment it arrives, and `max_delay == 0` drains only what is
//! already queued — neither ever touches the deadline clock, so
//! latency-critical single-row serving never sleeps. Every resolved request
//! carries its own submit→resolve [`ServeTiming`] ([`Pending::wait_timed`])
//! — the hooks a latency-percentile harness builds histograms from.
//!
//! Because the engine computes every output row independently (encode and
//! accumulate never mix rows), a row's result is **bit-identical** whether
//! it was submitted alone, coalesced with others, or part of a direct
//! `run_batch` call — batching is purely a throughput decision.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lutdla_tensor::Tensor;

use crate::codes::EncodeMemo;
use crate::engine::LutEngine;

/// An engine behind a lock, shareable between deployed layers, a cache,
/// and a [`MicroBatcher`] collector thread.
pub type SharedEngine = Arc<Mutex<LutEngine>>;

/// Wraps an engine for shared ownership.
pub fn share(engine: LutEngine) -> SharedEngine {
    Arc::new(Mutex::new(engine))
}

/// Locks a shared engine, recovering from poison: a panic while the lock
/// was held (e.g. a shape assert on one caller's bad input) only ever
/// leaves per-call scratch buffers in a stale-but-valid state — the
/// quantizer and tiled table are immutable after construction — so the
/// engine stays perfectly usable and one caller's mistake must not brick
/// every cached handle to it.
pub fn lock_engine(engine: &SharedEngine) -> std::sync::MutexGuard<'_, LutEngine> {
    engine.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Coalescing window of a [`MicroBatcher`].
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Flush as soon as this many rows are pending. `0` is normalized to
    /// `1` at batcher construction ([`BatchOptions::normalized`]) — a
    /// window of zero rows could never flush anything.
    pub max_batch: usize,
    /// Flush a partial batch this long after its first row arrived.
    pub max_delay: Duration,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_delay: Duration::from_millis(2),
        }
    }
}

impl BatchOptions {
    /// A zero-latency window: every flush drains only what is already
    /// queued (up to `max_batch` rows) and never waits on the deadline
    /// clock. Concurrent submitters still coalesce opportunistically; a
    /// lone submitter gets an immediate run.
    pub fn immediate(max_batch: usize) -> Self {
        Self {
            max_batch,
            max_delay: Duration::ZERO,
        }
    }

    /// The same options with degenerate fields clamped to servable values:
    /// `max_batch == 0` becomes `1`. Applied by [`MicroBatcher::new`] /
    /// [`MicroBatcher::with_memo`], so a zero window is an explicit
    /// construction-time contract rather than a silent clamp deep in the
    /// collector loop.
    pub fn normalized(self) -> Self {
        Self {
            max_batch: self.max_batch.max(1),
            max_delay: self.max_delay,
        }
    }
}

/// A point-in-time snapshot of one [`EngineStage`]'s counters — the
/// per-stage observability surface of a whole-model session and of a
/// [`MicroBatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Engine calls run so far (one per eval forward through a deployed
    /// layer, one per coalesced flush of a batcher).
    pub batches_run: usize,
    /// Rows served so far.
    pub rows_served: usize,
    /// Widest engine call so far, in rows.
    pub queued_high_water: usize,
    /// Cumulative wall time spent inside the engine across every call, in
    /// nanoseconds. `service_nanos / batches_run` is the stage's mean
    /// per-call service latency — the per-stage signal a latency harness
    /// reads next to the per-request [`ServeTiming`] timestamps.
    pub service_nanos: u64,
    /// Encode-memo hits so far: rows whose similarity walk was skipped via
    /// the stage's cross-request [`EncodeMemo`]. Zero without a memo.
    pub memo_hits: usize,
    /// Encode-memo misses so far (rows that paid the walk and were
    /// inserted). Zero without a memo.
    pub memo_misses: usize,
    /// Encode-memo evictions so far (rows dropped to stay within the memo
    /// bound). Zero without a memo.
    pub memo_evictions: usize,
}

impl StageStats {
    /// The counters accumulated *since* an earlier snapshot of the same
    /// stage — what a periodic reporter (the serve bench, a gateway's
    /// per-scenario stats) emits instead of process-lifetime totals.
    ///
    /// The monotone counters subtract saturating, so a mismatched or stale
    /// `prev` (from a different stage, or taken *after* `self`) yields
    /// zeros rather than wrapped-around garbage. The gauge
    /// (`queued_high_water`) is a point-in-time reading, not a counter: the
    /// delta carries `self`'s current value unchanged.
    pub fn delta(&self, prev: &StageStats) -> StageStats {
        StageStats {
            batches_run: self.batches_run.saturating_sub(prev.batches_run),
            rows_served: self.rows_served.saturating_sub(prev.rows_served),
            queued_high_water: self.queued_high_water,
            service_nanos: self.service_nanos.saturating_sub(prev.service_nanos),
            memo_hits: self.memo_hits.saturating_sub(prev.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(prev.memo_misses),
            memo_evictions: self.memo_evictions.saturating_sub(prev.memo_evictions),
        }
    }
}

/// The one error surface every serving front door speaks — micro-batchers,
/// whole-model sessions, decode sessions, and multi-tenant gateways all
/// return `ServeError`, so callers match a single enum whether a request
/// died at engine-level validation, at model-level validation, or in the
/// serving machinery. The `Display` text of every variant is stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The submitted row does not have the engine's input width `K`.
    RowShape {
        /// Engine input width.
        expected: usize,
        /// Submitted row length.
        got: usize,
    },
    /// A submitted block is empty or not a whole number of `K`-wide rows.
    BlockShape {
        /// Engine input width (block length must be a non-zero multiple).
        row_width: usize,
        /// Submitted block length.
        got: usize,
    },
    /// The serving path shut down before the request could be served.
    Closed,
    /// Admission control turned the request away: the serving layer's
    /// bounded queue was already holding `queue_depth` requests. The
    /// caller may retry later or fail fast — nothing was enqueued.
    Shed {
        /// Queue depth observed at the shed decision (the configured
        /// bound, for a full bounded queue).
        queue_depth: usize,
    },
    /// The request never reached a queue: it failed validation at the
    /// front door (unknown tenant, malformed stream, …).
    Invalid {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// The request failed the model's input validation.
    InvalidInput(String),
    /// A batch entry point was handed no inputs.
    EmptyRun,
    /// A handle's resolver was dropped before resolving it (a forward
    /// panicked mid-flush and unwound past the queue).
    Lost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::RowShape { expected, got } => {
                write!(f, "row holds {got} values, engine expects K = {expected}")
            }
            ServeError::BlockShape { row_width, got } => write!(
                f,
                "block holds {got} values, expected a non-zero multiple of K = {row_width}"
            ),
            ServeError::Closed => write!(f, "micro-batcher is shut down"),
            ServeError::Shed { queue_depth } => write!(
                f,
                "request shed by admission control (bounded queue at depth {queue_depth})"
            ),
            ServeError::Invalid { reason } => write!(f, "invalid request: {reason}"),
            ServeError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            ServeError::EmptyRun => write!(f, "run() needs at least one input"),
            ServeError::Lost => write!(f, "request handle dropped unresolved"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Submit→resolve timestamps of one served request, returned by
/// [`Pending::wait_timed`].
///
/// `submitted_at` is stamped when the request is created (one
/// `Instant::now` per submit); `resolved_at` is stamped by whoever resolved
/// it — once per coalesced flush, not per request — so the serving hot path
/// never pays more than two clock reads per batch. An open-loop load
/// generator measures from its own *scheduled* arrival instant
/// ([`ServeTiming::latency_since`]) so queueing delay ahead of the submit
/// call (coordinated omission) is not dropped from the record.
#[derive(Debug, Clone, Copy)]
pub struct ServeTiming {
    /// When the request entered its front door's queue.
    pub submitted_at: Instant,
    /// When the flush that computed the request's output resolved it.
    pub resolved_at: Instant,
}

impl ServeTiming {
    /// Queueing + service latency: submit → resolve.
    pub fn latency(&self) -> Duration {
        self.resolved_at
            .saturating_duration_since(self.submitted_at)
    }

    /// Latency measured from an earlier reference instant — typically an
    /// open-loop generator's scheduled arrival time, which may precede the
    /// actual submit call when the serving thread was busy.
    pub fn latency_since(&self, arrival: Instant) -> Duration {
        self.resolved_at.saturating_duration_since(arrival)
    }
}

/// Future-style handle to a submitted request's output rows.
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<(Vec<f32>, Instant)>,
    submitted_at: Instant,
}

/// The resolving half of a [`Pending`] handle minted by
/// [`Pending::channel`]: whoever computes the output calls
/// [`PendingResolver::resolve`] exactly once.
///
/// This is what lets layers *above* the engine (a whole-model serving
/// session, say) hand out the same `Pending` handles the micro-batcher
/// does, so one `wait`/`try_wait` contract covers every serving front door.
#[derive(Debug)]
pub struct PendingResolver {
    tx: Sender<(Vec<f32>, Instant)>,
}

impl PendingResolver {
    /// Resolves the paired [`Pending`] with `rows`, stamped now. A dropped
    /// handle is fine — the caller lost interest.
    pub fn resolve(self, rows: Vec<f32>) {
        self.resolve_at(rows, Instant::now());
    }

    /// Resolves with an explicit resolution stamp, so a front door
    /// resolving a whole coalesced batch reads the clock once per flush
    /// instead of once per request.
    pub fn resolve_at(self, rows: Vec<f32>, resolved_at: Instant) {
        let _ = self.tx.send((rows, resolved_at));
    }
}

impl Pending {
    /// Mints an unresolved handle plus its resolver (for serving layers
    /// that compute outputs themselves rather than through a
    /// [`MicroBatcher`]). Dropping the resolver unresolved makes
    /// [`Pending::wait`] report [`ServeError::Closed`].
    pub fn channel() -> (PendingResolver, Pending) {
        let (tx, rx) = channel();
        (
            PendingResolver { tx },
            Pending {
                rx,
                submitted_at: Instant::now(),
            },
        )
    }

    /// Blocks until the batch containing this request has run; returns the
    /// output rows (length `rows · N`). Errors with [`ServeError::Closed`]
    /// only if the resolver died first.
    pub fn wait(self) -> Result<Vec<f32>, ServeError> {
        self.rx
            .recv()
            .map(|(rows, _)| rows)
            .map_err(|_| ServeError::Closed)
    }

    /// [`Pending::wait`] plus the request's [`ServeTiming`] — when it was
    /// submitted and when its flush resolved it. The latency a waiter
    /// would measure around `wait` includes its own scheduling delay
    /// picking the result up; the timing here is the serving path's own.
    pub fn wait_timed(self) -> Result<(Vec<f32>, ServeTiming), ServeError> {
        let submitted_at = self.submitted_at;
        self.rx
            .recv()
            .map(|(rows, resolved_at)| {
                (
                    rows,
                    ServeTiming {
                        submitted_at,
                        resolved_at,
                    },
                )
            })
            .map_err(|_| ServeError::Closed)
    }

    /// Blocks until this request resolves, then resolves `next` with the
    /// same rows **and the same resolution stamp** — the step-granular
    /// relay a serving layer uses when it waits on an inner handle while
    /// owning an outer handle of its own: the outer waiter's
    /// [`ServeTiming`] then reports when the work actually finished, not
    /// when the relay got scheduled. Propagates [`ServeError::Closed`] if
    /// the inner resolver died first.
    pub fn chain(self, next: PendingResolver) -> Result<(), ServeError> {
        let (rows, timing) = self.wait_timed()?;
        next.resolve_at(rows, timing.resolved_at);
        Ok(())
    }

    /// Non-blocking poll: `Ok(Some(row))` once the batch has run,
    /// `Ok(None)` while it has not flushed yet, and
    /// `Err(`[`ServeError::Closed`]`)` if the resolver died first — so a
    /// poll loop observes the same terminal condition [`Pending::wait`]
    /// reports instead of spinning forever.
    pub fn try_wait(&self) -> Result<Option<Vec<f32>>, ServeError> {
        match self.rx.try_recv() {
            Ok((row, _)) => Ok(Some(row)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ServeError::Closed),
        }
    }
}

/// One engine plus the counters of every call made through it: the seam a
/// deployed LUT layer's eval forward and a [`MicroBatcher`] flush both run
/// their engine calls through. See the module docs.
pub struct EngineStage {
    engine: SharedEngine,
    memo: Option<Arc<EncodeMemo>>,
    calls: AtomicUsize,
    rows: AtomicUsize,
    widest: AtomicUsize,
    service_nanos: AtomicU64,
}

impl EngineStage {
    /// A stage over `engine`. With a `memo`, every call goes through
    /// [`LutEngine::run_batch_memo`], so rows this stage has already seen
    /// skip the similarity walk; the memo's hit/miss/evict counters
    /// surface in [`EngineStage::stats`].
    pub fn new(engine: SharedEngine, memo: Option<Arc<EncodeMemo>>) -> Self {
        Self {
            engine,
            memo,
            calls: AtomicUsize::new(0),
            rows: AtomicUsize::new(0),
            widest: AtomicUsize::new(0),
            service_nanos: AtomicU64::new(0),
        }
    }

    /// Runs `x: [M, K]` through the engine on the caller's thread and
    /// records the call. Bit-identical to `run_batch(x)` on the engine.
    pub fn run(&self, x: &Tensor) -> Tensor {
        self.run_stamped(x).0
    }

    /// [`EngineStage::run`] plus the instant the engine call finished, so
    /// a batcher flush resolves its handles with the same clock read that
    /// closed the service interval (two clock reads per call).
    fn run_stamped(&self, x: &Tensor) -> (Tensor, Instant) {
        let m = x.dims()[0];
        let start = Instant::now();
        let y = match self.memo.as_deref() {
            Some(memo) => lock_engine(&self.engine).run_batch_memo(x, memo),
            None => lock_engine(&self.engine).run_batch(x),
        };
        let end = Instant::now();
        self.service_nanos.fetch_add(
            end.duration_since(start).as_nanos() as u64,
            Ordering::Release,
        );
        self.calls.fetch_add(1, Ordering::Release);
        self.rows.fetch_add(m, Ordering::Release);
        self.widest.fetch_max(m, Ordering::AcqRel);
        (y, end)
    }

    /// The engine this stage runs on.
    pub fn engine(&self) -> &SharedEngine {
        &self.engine
    }

    /// Snapshot of this stage's counters.
    pub fn stats(&self) -> StageStats {
        let memo = self.memo.as_ref().map(|m| m.stats()).unwrap_or_default();
        StageStats {
            batches_run: self.calls.load(Ordering::Acquire),
            rows_served: self.rows.load(Ordering::Acquire),
            queued_high_water: self.widest.load(Ordering::Acquire),
            service_nanos: self.service_nanos.load(Ordering::Acquire),
            memo_hits: memo.hits as usize,
            memo_misses: memo.misses as usize,
            memo_evictions: memo.evictions as usize,
        }
    }
}

impl std::fmt::Debug for EngineStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineStage")
            .field("stats", &self.stats())
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

struct Request {
    /// `nrows · K` activation values.
    rows: Vec<f32>,
    /// Row count of this request (1 for `submit`, the block height for
    /// `submit_rows`).
    nrows: usize,
    done: Sender<(Vec<f32>, Instant)>,
}

/// The single-layer serving front door over one [`SharedEngine`]. See the
/// module docs.
pub struct MicroBatcher {
    tx: Option<Sender<Request>>,
    collector: Option<JoinHandle<()>>,
    k: usize,
    n: usize,
    window: usize,
    stage: Arc<EngineStage>,
}

impl MicroBatcher {
    /// Spawns the collector thread for `engine` with the given coalescing
    /// window. `opts` is normalized first ([`BatchOptions::normalized`]):
    /// `max_batch == 0` is served as a window of 1.
    pub fn new(engine: SharedEngine, opts: BatchOptions) -> Self {
        Self::with_memo(engine, opts, None)
    }

    /// [`MicroBatcher::new`] with a cross-request [`EncodeMemo`] fronting
    /// the engine's encode phase (see [`EngineStage::new`]).
    pub fn with_memo(
        engine: SharedEngine,
        opts: BatchOptions,
        memo: Option<Arc<EncodeMemo>>,
    ) -> Self {
        let opts = opts.normalized();
        let (k, n) = {
            let e = lock_engine(&engine);
            (e.input_dim(), e.output_dim())
        };
        let stage = Arc::new(EngineStage::new(engine, memo));
        let (tx, rx) = channel::<Request>();
        let collector_stage = Arc::clone(&stage);
        let collector = std::thread::Builder::new()
            .name("lutdla-microbatch".to_string())
            .spawn(move || collect_loop(&collector_stage, &rx, opts, k, n))
            // If the OS refuses the collector thread the batcher is born
            // closed: `tx` is dropped, so every submit reports
            // `ServeError::Closed` instead of panicking the caller.
            .ok();
        Self {
            tx: collector.is_some().then_some(tx),
            collector,
            k,
            n,
            window: opts.max_batch,
            stage,
        }
    }

    /// Submits one activation row (length `K`); returns a handle that
    /// resolves with the output row (length `N`) once its batch has run.
    pub fn submit(&self, row: &[f32]) -> Result<Pending, ServeError> {
        if row.len() != self.k {
            return Err(ServeError::RowShape {
                expected: self.k,
                got: row.len(),
            });
        }
        self.send(row.to_vec(), 1)
    }

    /// Submits a block of rows (`rows.len()` must be a non-zero multiple of
    /// `K`) as **one** request; the handle resolves with the whole output
    /// block (`nrows · N` values) once a batch containing it has run.
    pub fn submit_rows(&self, rows: &[f32]) -> Result<Pending, ServeError> {
        if rows.is_empty() || !rows.len().is_multiple_of(self.k) {
            return Err(ServeError::BlockShape {
                row_width: self.k,
                got: rows.len(),
            });
        }
        self.send(rows.to_vec(), rows.len() / self.k)
    }

    fn send(&self, rows: Vec<f32>, nrows: usize) -> Result<Pending, ServeError> {
        let (done, rx) = channel();
        let submitted_at = Instant::now();
        // `tx` is None only after drop took it or when the collector never
        // spawned — both are "this batcher no longer serves", not a bug in
        // the caller, so they surface as `Closed` rather than a panic.
        let tx = self.tx.as_ref().ok_or(ServeError::Closed)?;
        tx.send(Request { rows, nrows, done })
            .map_err(|_| ServeError::Closed)?;
        Ok(Pending { rx, submitted_at })
    }

    /// Engine input width `K`.
    pub fn input_dim(&self) -> usize {
        self.k
    }

    /// Engine output width `N`.
    pub fn output_dim(&self) -> usize {
        self.n
    }

    /// How many coalesced batches have run so far.
    pub fn batches_run(&self) -> usize {
        self.stage.stats().batches_run
    }

    /// How many rows have been served so far.
    pub fn rows_served(&self) -> usize {
        self.stage.stats().rows_served
    }

    /// The flush window, in rows (the normalized `max_batch`).
    pub fn current_window(&self) -> usize {
        self.window
    }

    /// Snapshot of this batcher's serving counters.
    pub fn stats(&self) -> StageStats {
        self.stage.stats()
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        // Closing the request channel lets the collector flush what is
        // pending and exit; join so no thread outlives the batcher.
        drop(self.tx.take());
        if let Some(t) = self.collector.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for MicroBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroBatcher")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("window", &self.window)
            .field("stage", &self.stage)
            .finish()
    }
}

/// The collector loop (`opts` already normalized, so `max_batch >= 1`).
fn collect_loop(
    stage: &EngineStage,
    rx: &Receiver<Request>,
    opts: BatchOptions,
    k: usize,
    n: usize,
) {
    let max_rows = opts.max_batch;
    let mut open = true;
    while open {
        // Block for the first request of the next batch.
        let first = match rx.recv() {
            Ok(req) => req,
            Err(_) => break,
        };
        let mut queued = first.nrows;
        let mut pending = vec![first];
        // Grow the batch — but only if the first request left room. A full
        // first request (always true for `max_batch == 1`) flushes without
        // ever consulting the clock, and a zero-delay window drains only
        // what is already queued: both degenerate cases serve immediately,
        // with no deadline sleeps.
        if queued < max_rows && opts.max_delay.is_zero() {
            open = drain_queued(rx, &mut pending, &mut queued, max_rows);
        } else if queued < max_rows {
            open = wait_for_window(rx, &mut pending, &mut queued, max_rows, opts.max_delay);
        }
        flush(stage, pending, queued, k, n);
    }
}

/// Drains already-queued requests into `pending` until the window fills or
/// the queue is empty. Returns `false` once the channel is disconnected.
fn drain_queued(
    rx: &Receiver<Request>,
    pending: &mut Vec<Request>,
    queued: &mut usize,
    window: usize,
) -> bool {
    loop {
        match rx.try_recv() {
            Ok(req) => {
                *queued += req.nrows;
                pending.push(req);
                if *queued >= window {
                    return true;
                }
            }
            Err(TryRecvError::Empty) => return true,
            Err(TryRecvError::Disconnected) => return false,
        }
    }
}

/// Waits for the window to fill, sleeping at most `max_delay` past the
/// first arrival. Returns `false` once the channel is disconnected.
fn wait_for_window(
    rx: &Receiver<Request>,
    pending: &mut Vec<Request>,
    queued: &mut usize,
    window: usize,
    max_delay: Duration,
) -> bool {
    let deadline = Instant::now() + max_delay;
    while *queued < window {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match rx.recv_timeout(deadline - now) {
            Ok(req) => {
                *queued += req.nrows;
                pending.push(req);
            }
            Err(RecvTimeoutError::Timeout) => break,
            Err(RecvTimeoutError::Disconnected) => return false,
        }
    }
    true
}

/// Runs one coalesced batch of `m` rows through the stage and resolves
/// every caller's handle with its own slice of the output, stamped with
/// the instant the engine call finished.
fn flush(stage: &EngineStage, pending: Vec<Request>, m: usize, k: usize, n: usize) {
    let mut data = Vec::with_capacity(m * k);
    for req in &pending {
        data.extend_from_slice(&req.rows);
    }
    let (y, resolved_at) = stage.run_stamped(&Tensor::from_vec(data, &[m, k]));
    let mut row0 = 0;
    for req in pending {
        // A dropped Pending is fine — the caller lost interest.
        let _ = req.done.send((
            y.data()[row0 * n..(row0 + req.nrows) * n].to_vec(),
            resolved_at,
        ));
        row0 += req.nrows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::ProductQuantizer;
    use crate::distance::Distance;
    use crate::lut::{LutQuant, LutTable};
    use crate::precision::FloatPrecision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(quant: LutQuant, precision: FloatPrecision, seed: u64) -> (Tensor, LutEngine, Tensor) {
        let (m, k, n, v, c) = (24, 10, 9, 4, 8);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
        let pq = ProductQuantizer::fit(&a, v, c, Distance::L2, &mut rng);
        let table = LutTable::build(&pq, &b, quant);
        let mut engine = LutEngine::new(pq, &table).with_precision(precision);
        let reference = engine.run_batch(&a);
        (a, engine, reference)
    }

    #[test]
    fn concurrent_single_row_submits_match_run_batch_bitwise() {
        let (a, engine, reference) = setup(LutQuant::F32, FloatPrecision::Fp32, 60);
        let m = a.dims()[0];
        let k = a.dims()[1];
        let n = reference.dims()[1];
        let batcher = MicroBatcher::new(
            share(engine),
            BatchOptions {
                max_batch: m,
                max_delay: Duration::from_millis(200),
            },
        );
        let mut outs = vec![Vec::new(); m];
        std::thread::scope(|s| {
            for (i, out) in outs.iter_mut().enumerate() {
                let batcher = &batcher;
                let a = &a;
                s.spawn(move || {
                    let row = &a.data()[i * k..(i + 1) * k];
                    *out = batcher
                        .submit(row)
                        .expect("row shape is valid")
                        .wait()
                        .expect("batcher alive");
                });
            }
        });
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(
                out.as_slice(),
                &reference.data()[i * n..(i + 1) * n],
                "row {i} diverged from run_batch"
            );
        }
    }

    #[test]
    fn full_batch_coalesces_into_one_engine_call() {
        let (a, engine, reference) = setup(LutQuant::F32, FloatPrecision::Fp32, 61);
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let batcher = MicroBatcher::new(
            share(engine),
            BatchOptions {
                max_batch: m,
                // Generous deadline: the collector must flush on max_batch,
                // not the clock.
                max_delay: Duration::from_secs(5),
            },
        );
        let handles: Vec<Pending> = (0..m)
            .map(|i| {
                batcher
                    .submit(&a.data()[i * k..(i + 1) * k])
                    .expect("valid row")
            })
            .collect();
        let n = reference.dims()[1];
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.wait().expect("batcher alive");
            assert_eq!(out.as_slice(), &reference.data()[i * n..(i + 1) * n]);
        }
        assert_eq!(batcher.batches_run(), 1, "rows did not coalesce");
        assert_eq!(batcher.rows_served(), m);
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let (a, engine, _) = setup(LutQuant::F32, FloatPrecision::Fp32, 62);
        let k = a.dims()[1];
        let batcher = MicroBatcher::new(
            share(engine),
            BatchOptions {
                max_batch: 1000, // never reached: only the deadline can flush
                max_delay: Duration::from_millis(20),
            },
        );
        let handles: Vec<Pending> = (0..3)
            .map(|i| {
                batcher
                    .submit(&a.data()[i * k..(i + 1) * k])
                    .expect("valid row")
            })
            .collect();
        for h in handles {
            h.wait().expect("deadline flush must resolve the handle");
        }
        assert!(batcher.batches_run() >= 1, "no batch ran");
        assert_eq!(batcher.rows_served(), 3);
    }

    #[test]
    fn bit_identical_across_all_quant_precision_combos() {
        let quants = [LutQuant::F32, LutQuant::F16, LutQuant::Int8];
        let precisions = [
            FloatPrecision::Fp32,
            FloatPrecision::Bf16,
            FloatPrecision::Fp16,
        ];
        for (qi, &quant) in quants.iter().enumerate() {
            for (pi, &precision) in precisions.iter().enumerate() {
                let (a, engine, reference) = setup(quant, precision, 63 + (qi * 3 + pi) as u64);
                let (m, k) = (a.dims()[0], a.dims()[1]);
                let n = reference.dims()[1];
                let batcher = MicroBatcher::new(share(engine), BatchOptions::default());
                let handles: Vec<Pending> = (0..m)
                    .map(|i| {
                        batcher
                            .submit(&a.data()[i * k..(i + 1) * k])
                            .expect("valid row")
                    })
                    .collect();
                for (i, h) in handles.into_iter().enumerate() {
                    let out = h.wait().expect("batcher alive");
                    assert_eq!(
                        out.as_slice(),
                        &reference.data()[i * n..(i + 1) * n],
                        "{quant:?}+{precision:?}: row {i} not bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn poisoned_engine_lock_recovers_instead_of_bricking_the_handle() {
        let (a, engine, reference) = setup(LutQuant::F32, FloatPrecision::Fp32, 65);
        let shared = share(engine);
        // One caller panics while holding the lock (the shape assert a bad
        // input would trip): the mutex is now poisoned.
        let bad = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = bad.lock().expect("first lock");
            panic!("simulated bad-input panic under the engine lock");
        })
        .join();
        assert!(shared.is_poisoned(), "test setup: lock must be poisoned");
        // Every shared handle — direct locks and batcher flushes — must
        // keep serving correct results.
        let got = lock_engine(&shared).run_batch(&a);
        assert!(got.allclose(&reference, 0.0));
        let batcher = MicroBatcher::new(shared, BatchOptions::default());
        let k = a.dims()[1];
        let n = reference.dims()[1];
        let out = batcher
            .submit(&a.data()[..k])
            .expect("valid row")
            .wait()
            .expect("batcher alive despite earlier poison");
        assert_eq!(out.as_slice(), &reference.data()[..n]);
    }

    #[test]
    fn try_wait_distinguishes_not_ready_from_closed() {
        let (a, engine, _) = setup(LutQuant::F32, FloatPrecision::Fp32, 66);
        let k = a.dims()[1];
        let batcher = MicroBatcher::new(
            share(engine),
            BatchOptions {
                max_batch: 1000,
                max_delay: Duration::from_millis(100),
            },
        );
        let pending = batcher.submit(&a.data()[..k]).expect("valid row");
        // Polling before the deadline flush usually sees "not ready" —
        // and must never see Closed while the batcher lives.
        assert!(!matches!(pending.try_wait(), Err(ServeError::Closed)));
        // Dropping the batcher flushes outstanding rows, so the handle
        // resolves with data …
        drop(batcher);
        let served = loop {
            match pending.try_wait() {
                Ok(Some(row)) => break row,
                Ok(None) => std::thread::yield_now(),
                Err(e) => panic!("flush-on-drop lost the row: {e}"),
            }
        };
        assert_eq!(served.len(), 9);
        // … and a handle drained after resolution reports Closed, not an
        // eternal Ok(None).
        assert_eq!(pending.try_wait(), Err(ServeError::Closed));
    }

    #[test]
    fn block_submissions_coalesce_with_single_rows_bitwise() {
        let (a, engine, reference) = setup(LutQuant::F32, FloatPrecision::Fp32, 70);
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = reference.dims()[1];
        let batcher = MicroBatcher::new(
            share(engine),
            BatchOptions {
                max_batch: m,
                max_delay: Duration::from_secs(5),
            },
        );
        // One 10-row block, one single row, one 13-row block: 24 rows total
        // coalesce into exactly one engine call, each handle getting its own
        // slice.
        let b1 = batcher.submit_rows(&a.data()[..10 * k]).expect("block");
        let r1 = batcher.submit(&a.data()[10 * k..11 * k]).expect("row");
        let b2 = batcher
            .submit_rows(&a.data()[11 * k..24 * k])
            .expect("block");
        assert_eq!(b1.wait().expect("alive"), &reference.data()[..10 * n]);
        assert_eq!(r1.wait().expect("alive"), &reference.data()[10 * n..11 * n]);
        assert_eq!(b2.wait().expect("alive"), &reference.data()[11 * n..24 * n]);
        assert_eq!(batcher.batches_run(), 1, "requests did not coalesce");
        assert_eq!(batcher.rows_served(), m, "max_batch must count rows");
    }

    #[test]
    fn max_batch_one_serves_immediately_without_deadline_sleep() {
        let (a, engine, reference) = setup(LutQuant::F32, FloatPrecision::Fp32, 71);
        let k = a.dims()[1];
        let n = reference.dims()[1];
        // A pathologically long deadline: if the collector consulted the
        // clock at all, this test would hang for minutes.
        let batcher = MicroBatcher::new(
            share(engine),
            BatchOptions {
                max_batch: 1,
                max_delay: Duration::from_secs(600),
            },
        );
        let t0 = Instant::now();
        for i in 0..4 {
            let out = batcher
                .submit(&a.data()[i * k..(i + 1) * k])
                .expect("valid row")
                .wait()
                .expect("batcher alive");
            assert_eq!(out.as_slice(), &reference.data()[i * n..(i + 1) * n]);
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "max_batch == 1 slept on the deadline clock"
        );
        assert_eq!(batcher.batches_run(), 4, "each row must run immediately");
        assert_eq!(batcher.rows_served(), 4);
    }

    #[test]
    fn zero_delay_runs_single_rows_immediately() {
        let (a, engine, reference) = setup(LutQuant::F32, FloatPrecision::Fp32, 72);
        let k = a.dims()[1];
        let n = reference.dims()[1];
        // max_batch leaves plenty of room, so only the zero-delay policy
        // (drain what is queued, never wait) can flush a lone row.
        let batcher = MicroBatcher::new(share(engine), BatchOptions::immediate(1000));
        let out = batcher
            .submit(&a.data()[..k])
            .expect("valid row")
            .wait()
            .expect("batcher alive");
        assert_eq!(out.as_slice(), &reference.data()[..n]);
        assert!(batcher.batches_run() >= 1);
        assert_eq!(batcher.rows_served(), 1);
    }

    #[test]
    fn malformed_blocks_are_rejected_immediately() {
        let (_, engine, _) = setup(LutQuant::F32, FloatPrecision::Fp32, 75);
        let batcher = MicroBatcher::new(share(engine), BatchOptions::default());
        // Not a multiple of K = 10.
        let err = batcher.submit_rows(&[0.0; 15]).expect_err("ragged block");
        assert_eq!(
            err,
            ServeError::BlockShape {
                row_width: 10,
                got: 15
            }
        );
        let err = batcher.submit_rows(&[]).expect_err("empty block");
        assert_eq!(
            err,
            ServeError::BlockShape {
                row_width: 10,
                got: 0
            }
        );
    }

    #[test]
    fn wait_timed_reports_submit_to_resolve_latency() {
        let (a, engine, reference) = setup(LutQuant::F32, FloatPrecision::Fp32, 67);
        let k = a.dims()[1];
        let n = reference.dims()[1];
        let batcher = MicroBatcher::new(share(engine), BatchOptions::immediate(8));
        let before = Instant::now();
        let (out, timing) = batcher
            .submit(&a.data()[..k])
            .expect("valid row")
            .wait_timed()
            .expect("batcher alive");
        let after = Instant::now();
        assert_eq!(out.as_slice(), &reference.data()[..n]);
        // The stamps bracket the serving work and never run backwards.
        assert!(timing.submitted_at >= before);
        assert!(timing.resolved_at >= timing.submitted_at);
        assert!(timing.resolved_at <= after);
        assert!(timing.latency() <= after.duration_since(before));
        // Measuring from an earlier arrival instant can only lengthen the
        // observed latency (open-loop accounting), never shorten it.
        assert!(timing.latency_since(before) >= timing.latency());
        // The flush accounted its engine service time.
        let stats = batcher.stats();
        assert_eq!(stats.batches_run, 1);
        assert!(stats.service_nanos > 0, "flush did not record service time");
    }

    #[test]
    fn resolve_at_stamps_the_given_instant() {
        let (resolver, pending) = Pending::channel();
        let stamp = Instant::now();
        resolver.resolve_at(vec![3.0], stamp);
        let (rows, timing) = pending.wait_timed().expect("resolved");
        assert_eq!(rows, vec![3.0]);
        assert_eq!(timing.resolved_at, stamp);
        assert!(timing.submitted_at <= stamp);
    }

    #[test]
    fn pending_channel_resolves_through_the_same_contract() {
        let (resolver, pending) = Pending::channel();
        assert_eq!(pending.try_wait(), Ok(None), "unresolved must be pending");
        resolver.resolve(vec![1.0, 2.0]);
        assert_eq!(pending.wait().expect("resolved"), vec![1.0, 2.0]);

        // A resolver dropped unresolved surfaces Closed, not a hang.
        let (resolver, pending) = Pending::channel();
        drop(resolver);
        assert_eq!(pending.wait(), Err(ServeError::Closed));
    }

    #[test]
    fn zero_max_batch_is_normalized_at_construction() {
        // The contract lives at construction, not as a silent clamp deep in
        // the collector loop.
        assert_eq!(
            BatchOptions {
                max_batch: 0,
                max_delay: Duration::ZERO
            }
            .normalized()
            .max_batch,
            1
        );
        // A zero-window batcher serves as a window of 1 — and says so.
        let (a, engine, reference) = setup(LutQuant::F32, FloatPrecision::Fp32, 80);
        let k = a.dims()[1];
        let n = reference.dims()[1];
        let batcher = MicroBatcher::new(
            share(engine),
            BatchOptions {
                max_batch: 0,
                // Pathological deadline: a window of 1 must never consult it.
                max_delay: Duration::from_secs(600),
            },
        );
        assert_eq!(batcher.current_window(), 1);
        let out = batcher
            .submit(&a.data()[..k])
            .expect("valid row")
            .wait()
            .expect("batcher alive");
        assert_eq!(out.as_slice(), &reference.data()[..n]);
        assert_eq!(batcher.batches_run(), 1);
    }

    #[test]
    fn stage_stats_delta_subtracts_counters_and_carries_gauges() {
        let prev = StageStats {
            batches_run: 10,
            rows_served: 400,
            queued_high_water: 32,
            service_nanos: 9_000,
            memo_hits: 100,
            memo_misses: 40,
            memo_evictions: 2,
        };
        let now = StageStats {
            batches_run: 13,
            rows_served: 460,
            queued_high_water: 48,
            service_nanos: 12_500,
            memo_hits: 160,
            memo_misses: 55,
            memo_evictions: 6,
        };
        let d = now.delta(&prev);
        // Monotone counters: the interval's own increments.
        assert_eq!(d.batches_run, 3);
        assert_eq!(d.rows_served, 60);
        assert_eq!(d.service_nanos, 3_500);
        assert_eq!(d.memo_hits, 60);
        assert_eq!(d.memo_misses, 15);
        assert_eq!(d.memo_evictions, 4);
        // The gauge: the latest point-in-time reading, not a subtraction.
        assert_eq!(d.queued_high_water, 48);
        // A snapshot differenced against itself is all-zero counters.
        let z = now.delta(&now);
        assert_eq!((z.batches_run, z.rows_served, z.service_nanos), (0, 0, 0));
    }

    #[test]
    fn stage_stats_delta_is_wraparound_free_on_stale_snapshots() {
        // `prev` taken *after* `self` (or from a different batcher): the
        // subtraction must saturate to zero, never wrap.
        let older = StageStats {
            batches_run: 2,
            rows_served: 50,
            queued_high_water: 8,
            service_nanos: 1_000,
            memo_hits: 10,
            memo_misses: 5,
            memo_evictions: 1,
        };
        let newer = StageStats {
            batches_run: 7,
            rows_served: 300,
            queued_high_water: 24,
            service_nanos: 8_000,
            memo_hits: 90,
            memo_misses: 30,
            memo_evictions: 3,
        };
        let d = older.delta(&newer);
        assert_eq!(d.batches_run, 0);
        assert_eq!(d.rows_served, 0);
        assert_eq!(d.service_nanos, 0);
        assert_eq!(
            (d.memo_hits, d.memo_misses, d.memo_evictions),
            (0, 0, 0),
            "memo counters must saturate like the other counters"
        );
        assert_eq!(d.queued_high_water, 8, "gauge must come from self");
    }

    #[test]
    fn stage_stats_delta_tracks_a_live_batcher_interval() {
        let (a, engine, _) = setup(LutQuant::F32, FloatPrecision::Fp32, 90);
        let k = a.dims()[1];
        let batcher = MicroBatcher::new(share(engine), BatchOptions::immediate(8));
        batcher
            .submit(&a.data()[..k])
            .expect("valid row")
            .wait()
            .expect("batcher alive");
        let snap = batcher.stats();
        batcher
            .submit_rows(&a.data()[..3 * k])
            .expect("valid block")
            .wait()
            .expect("batcher alive");
        let d = batcher.stats().delta(&snap);
        assert_eq!(d.batches_run, 1, "exactly the interval's flush");
        assert_eq!(d.rows_served, 3, "exactly the interval's rows");
        assert!(d.service_nanos > 0, "interval accounted engine time");
    }

    #[test]
    fn memo_backed_batcher_is_bit_identical_and_reports_memo_counters() {
        let (a, engine, reference) = setup(LutQuant::Int8, FloatPrecision::Bf16, 91);
        let m = a.dims()[0];
        // Capacity of `8 * m` rows means even a fully skewed shard
        // distribution cannot evict (each shard holds `m`).
        let memo = Arc::new(EncodeMemo::new(8 * m));
        let batcher = MicroBatcher::with_memo(
            share(engine),
            BatchOptions::immediate(8),
            Some(Arc::clone(&memo)),
        );
        // Two passes over the same block: the first is all misses, the
        // second is all hits — and both must match the memo-less reference
        // bit for bit.
        for pass in 0..2 {
            let out = batcher
                .submit_rows(a.data())
                .expect("valid block")
                .wait()
                .expect("batcher alive");
            assert_eq!(
                out.as_slice(),
                reference.data(),
                "pass {pass} not bit-identical through the memo"
            );
        }
        let stats = batcher.stats();
        assert_eq!(stats.memo_misses, m, "first pass populated the memo");
        assert_eq!(stats.memo_hits, m, "second pass was served from the memo");
        assert_eq!(stats.memo_evictions, 0, "memo was sized to hold the batch");
        assert_eq!(stats.rows_served, 2 * m);
    }

    #[test]
    fn memoless_batcher_reports_zero_memo_counters() {
        let (a, engine, _) = setup(LutQuant::F32, FloatPrecision::Fp32, 92);
        let k = a.dims()[1];
        let batcher = MicroBatcher::new(share(engine), BatchOptions::immediate(4));
        batcher
            .submit(&a.data()[..k])
            .expect("valid row")
            .wait()
            .expect("batcher alive");
        let stats = batcher.stats();
        assert_eq!(
            (stats.memo_hits, stats.memo_misses, stats.memo_evictions),
            (0, 0, 0),
            "no memo, no memo traffic"
        );
    }

    #[test]
    fn shed_and_invalid_errors_format_their_context() {
        let shed = ServeError::Shed { queue_depth: 16 };
        assert_eq!(
            shed.to_string(),
            "request shed by admission control (bounded queue at depth 16)"
        );
        let invalid = ServeError::Invalid {
            reason: "unknown tenant id 7".to_string(),
        };
        assert_eq!(invalid.to_string(), "invalid request: unknown tenant id 7");
        // Structured matching stays available to retry logic.
        assert!(matches!(shed, ServeError::Shed { queue_depth: 16 }));
        // The engine-level variants keep their stable text too.
        assert_eq!(
            ServeError::RowShape {
                expected: 8,
                got: 3,
            }
            .to_string(),
            "row holds 3 values, engine expects K = 8"
        );
        assert_eq!(
            ServeError::BlockShape {
                row_width: 8,
                got: 12,
            }
            .to_string(),
            "block holds 12 values, expected a non-zero multiple of K = 8"
        );
        assert_eq!(ServeError::Closed.to_string(), "micro-batcher is shut down");
        // And the session-level variants.
        assert_eq!(
            ServeError::InvalidInput("token 99 outside vocab".to_string()).to_string(),
            "invalid input: token 99 outside vocab"
        );
        assert_eq!(
            ServeError::EmptyRun.to_string(),
            "run() needs at least one input"
        );
        assert_eq!(
            ServeError::Lost.to_string(),
            "request handle dropped unresolved"
        );
    }

    #[test]
    fn chain_relays_rows_and_the_inner_resolution_stamp() {
        let (inner_resolver, inner) = Pending::channel();
        let (outer_resolver, outer) = Pending::channel();
        let stamp = Instant::now();
        inner_resolver.resolve_at(vec![1.0, 2.0], stamp);
        inner.chain(outer_resolver).expect("inner resolved");
        let (rows, timing) = outer.wait_timed().expect("outer resolved");
        assert_eq!(rows, vec![1.0, 2.0]);
        // The relay preserves the *inner* resolution instant, so an outer
        // waiter's latency excludes relay scheduling slack.
        assert_eq!(timing.resolved_at, stamp);

        // A dead inner resolver surfaces as the unified Closed error.
        let (dead, never) = Pending::channel();
        drop(dead);
        let (outer_resolver, outer) = Pending::channel();
        assert_eq!(never.chain(outer_resolver), Err(ServeError::Closed));
        assert_eq!(outer.wait(), Err(ServeError::Closed));
    }

    #[test]
    fn wrong_row_width_is_rejected_immediately() {
        let (_, engine, _) = setup(LutQuant::F32, FloatPrecision::Fp32, 64);
        let batcher = MicroBatcher::new(share(engine), BatchOptions::default());
        let err = batcher.submit(&[1.0, 2.0]).expect_err("short row");
        assert_eq!(
            err,
            ServeError::RowShape {
                expected: 10,
                got: 2
            }
        );
    }

    #[test]
    fn engine_stage_runs_bit_identical_across_all_combos_and_accounts_calls() {
        let quants = [LutQuant::F32, LutQuant::F16, LutQuant::Int8];
        let precisions = [
            FloatPrecision::Fp32,
            FloatPrecision::Bf16,
            FloatPrecision::Fp16,
        ];
        for (qi, &quant) in quants.iter().enumerate() {
            for (pi, &precision) in precisions.iter().enumerate() {
                let (a, engine, reference) = setup(quant, precision, 93 + (qi * 3 + pi) as u64);
                let m = a.dims()[0];
                let stage = EngineStage::new(share(engine), None);
                assert_eq!(stage.stats(), StageStats::default());
                let whole = stage.run(&a);
                assert_eq!(
                    whole.data(),
                    reference.data(),
                    "{quant:?}+{precision:?}: stage call not bit-identical"
                );
                let head = stage.run(&a.rows(0, 5));
                assert_eq!(head.data(), &reference.data()[..5 * reference.dims()[1]]);
                let stats = stage.stats();
                assert_eq!(stats.batches_run, 2, "one count per call");
                assert_eq!(stats.rows_served, m + 5);
                assert_eq!(stats.queued_high_water, m, "widest call");
                assert!(stats.service_nanos > 0, "calls recorded no engine time");
            }
        }
    }

    #[test]
    fn memo_backed_engine_stage_skips_repeat_walks_bit_identically() {
        let (a, engine, reference) = setup(LutQuant::Int8, FloatPrecision::Bf16, 102);
        let m = a.dims()[0];
        let stage = EngineStage::new(share(engine), Some(Arc::new(EncodeMemo::new(8 * m))));
        for pass in 0..2 {
            assert_eq!(
                stage.run(&a).data(),
                reference.data(),
                "pass {pass} not bit-identical through the memo"
            );
        }
        let stats = stage.stats();
        assert_eq!((stats.memo_misses, stats.memo_hits), (m, m));
        assert_eq!(stats.rows_served, 2 * m);
    }
}

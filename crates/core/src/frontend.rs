//! TCP FrontEnd: remote request submission plus the "external"
//! optimizations.
//!
//! "A FrontEnd is used to submit prediction requests to the system"
//! (paper §4); the end-to-end experiments (Figures 11 and 14) measure a
//! client talking to it over the network. The FrontEnd also implements the
//! two *external*, black-box-compatible optimizations of §4.3 — prediction
//! results caching (LRU) and delayed batching — which are "orthogonal to
//! PRETZEL's techniques, so both are applicable in a complementary manner".
//!
//! **Serving paths** — one per platform, chosen by the target, not by a
//! knob:
//!
//! * **Reactor pool** (linux/x86-64): a fixed pool of event-loop threads
//!   ([`FrontEndConfig::reactor_threads`]) drives every connection over
//!   non-blocking sockets via epoll. A connection belongs to the reactor
//!   that accepted it, for good: its state sits in that reactor's own
//!   table (a slot per connection, a generation per slot), touched by no
//!   other thread. Frames assemble incrementally from readiness events,
//!   and batch/delayed completions are *pushed* back to the owning reactor
//!   through a completion queue + eventfd wake instead of parking a thread
//!   per request. Thousands of idle or pipelined connections cost a table
//!   slot each, not a thread stack. The only count the reactors share is
//!   the open-connection gauge, which doubles as the
//!   [`FrontEndConfig::max_connections`] cap.
//! * **Thread-per-connection** (every other target): the blocking loop —
//!   one spawned thread per accepted socket, one request at a time.
//!
//! Both speak the same frames and produce bitwise-identical scores.
//!
//! **Wire protocol** — see [`wire`] for the codec:
//!
//! ```text
//! frame := magic "PZW\xB2" · u8 version · u8 flags · u16 reserved ·
//!          u32 request_id · u32 body_len · body
//! ```
//!
//! A connection may pipeline many requests; responses carry the request's
//! `request_id` and may return **out of order** (a delayed-batch request
//! does not block a fast inline request behind it). A head that is not the
//! magic, an unknown version or a body longer than [`MAX_FRAME_BYTES`] is
//! answered with one error frame and the connection closes. Bodies:
//!
//! ```text
//! body     := u32 plan_id · u8 kind · u8 flags · u16 n_records ·
//!             (alias?) · record*                     (kinds 0-2)
//!           | u32 plan_id · u8 kind · u8 flags · u16 0 · admin_body
//!                                                    (kinds 0x10-0x15)
//! alias    := u32 len · bytes              (present iff flags & 0b100)
//! record   := u32 len · bytes            (kind 0: UTF-8 text)
//!           | u32 n   · f32*             (kind 1: dense)
//!           | u32 dim · u32 nnz ·
//!             u32*nnz · f32*nnz          (kind 2: sparse CSR triple)
//! response := u8 status ·
//!             (status 0: u32 n · f32*) | (status 1: error) |
//!             (status 2: admin payload)
//! error    := u8 code · fields                  (DataError::encode)
//! ```
//!
//! Every failure travels as status 1 and arrives as the [`DataError`]
//! variant the server raised: a client matches `PlanRetired`,
//! `ExecutionFault` or `BadInput` over a socket exactly as in process.
//!
//! **Client surface** — [`PredictRequest`] is the typed request builder
//! ([`Record`](crate::scheduler::Record)s + [`Target`] + cache/delay
//! toggles); [`Client::predict`] / [`Client::predict_many`] serve it
//! sequentially, and [`Session::submit`] pipelines it, resolving each
//! [`PendingPredict`] independently of submission order.
//!
//! **Model lifecycle over the wire**: the admin verbs `DEPLOY` /
//! `UNDEPLOY` / `SWAP` / `ROLLBACK` / `LIST` ride the same frame format (distinct
//! `kind` values), so the whole lifecycle — push a serialized model file,
//! flip an alias to the new version, retire the old one — is driveable
//! remotely through [`Client::deploy`], [`Client::undeploy`],
//! [`Client::swap`] and [`Client::list`]. Prediction requests may address
//! a plan **by alias** ([`FLAG_PLAN_ALIAS`]): the server resolves the
//! alias per attempt and transparently retries when the bound version
//! retires mid-request, so `swap` + `undeploy(old)` never loses an
//! alias-addressed request.

pub mod wire;

mod client;
mod reactor;
#[allow(unsafe_code)] // raw epoll/eventfd system calls
mod sys;

pub use client::{Client, PendingPredict, PredictRequest, Session, Target};
pub use wire::{
    FLAG_DELAYED_BATCH, FLAG_PLAN_ALIAS, FLAG_RESULT_CACHE, MAX_FRAME_BYTES, WIRE_MAGIC, WIRE_V2,
};

use crate::lru::LruCache;
use crate::physical::SourceRef;
use crate::runtime::{PlanId, RrSession, Runtime};
use parking_lot::Mutex;
use pretzel_data::batch::ColRef;
use pretzel_data::ingest::{check_finite, hash_row, validate_sparse_indices};
use pretzel_data::serde_bin::{le_f32s, le_u32s, Cursor};
use pretzel_data::{BatchAssembler, ColumnType, DataError, Result, Vector};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;
use wire::{
    ADMIN_DEPLOY, ADMIN_LIST, ADMIN_ROLLBACK, ADMIN_STATS, ADMIN_SWAP, ADMIN_UNDEPLOY, KIND_DENSE,
    KIND_SPARSE, KIND_TEXT,
};

/// FrontEnd configuration.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// Byte budget of the prediction-result cache; 0 disables it.
    pub result_cache_bytes: usize,
    /// Flush interval of the delayed batcher; `None` disables it.
    pub batch_delay: Option<Duration>,
    /// Event-loop reactor threads serving every connection; 0 is treated
    /// as 1. The default is the machine's available parallelism, clamped
    /// to `1..=4` — reactors are I/O-bound; the scheduler's executors own
    /// the compute. Unused on targets without the raw-syscall reactor.
    pub reactor_threads: usize,
    /// The most sockets held open at once, across every reactor. An accept
    /// beyond it is refused (the socket closes at once, counted in
    /// [`FrontEndStats::refused`]) rather than queued, and a closed
    /// connection frees its seat for the next one.
    /// Unused on targets without the reactor.
    pub max_connections: usize,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            result_cache_bytes: 0,
            batch_delay: None,
            reactor_threads: default_reactor_threads(),
            max_connections: 4096,
        }
    }
}

fn default_reactor_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

/// Connection-plane counters, exposed for tests. All monotone except
/// `open_connections`.
#[derive(Debug, Default)]
pub struct FrontEndStats {
    open: AtomicUsize,
    accepted: AtomicU64,
    refused: AtomicU64,
    protocol_errors: AtomicU64,
}

impl FrontEndStats {
    /// Sockets currently held open. Under the reactor this is also the
    /// count [`FrontEndConfig::max_connections`] caps: an accept takes a
    /// seat here, or is refused, and every close gives its seat back.
    pub fn open_connections(&self) -> usize {
        self.open.load(Ordering::Acquire)
    }

    /// Connections accepted since the front end started.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Acquire)
    }

    /// Accepted connections closed at once because
    /// [`FrontEndConfig::max_connections`] were open: the cap biting.
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Acquire)
    }

    /// Framing violations that closed a connection (oversized prefix,
    /// unknown version, duplicate in-flight request id, ...).
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Acquire)
    }

    fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::AcqRel);
    }

    /// Counts one more open connection unless `max` are open already, in
    /// which case it counts a refusal.
    fn take_seat(&self, max: usize) -> bool {
        let seated = self
            .open
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |open| {
                (open < max).then_some(open + 1)
            })
            .is_ok();
        if !seated {
            self.refused.fetch_add(1, Ordering::AcqRel);
        }
        seated
    }

    /// Counts one connection closed.
    fn leave_seat(&self) {
        self.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The prediction-result cache: a score per `(plan, row)`. It is keyed by
/// the row's content hash, and each entry keeps a copy of its row, so a
/// hit is confirmed against the row's bytes: rows whose hashes collide
/// never share a score.
struct ResultCache(Mutex<LruCache<(PlanId, u64), (Vector, f32)>>);

impl ResultCache {
    /// The score cached for `row` under `plan`, if its entry holds `row`.
    fn get(&self, plan: PlanId, row: ColRef<'_>) -> Option<f32> {
        let mut lru = self.0.lock();
        let (held, score) = lru.get(&(plan, key_hash(row)))?;
        same_row(ColRef::from_vector(held), row).then_some(*score)
    }

    /// Caches `score` for the owned copy `row`, which costs its bytes.
    fn insert(&self, plan: PlanId, row: Vector, score: f32) {
        let key = (plan, key_hash(ColRef::from_vector(&row)));
        let cost = row.heap_bytes() + 16;
        self.0.lock().insert(key, (row, score), cost);
    }
}

/// The result cache's key hash: the row's content hash, narrowed to 8 bits
/// in unit tests so that distinct rows collide.
fn key_hash(row: ColRef<'_>) -> u64 {
    let hash = hash_row(row);
    if cfg!(test) {
        hash & 0xff
    } else {
        hash
    }
}

/// True if `a` and `b` are the same row, bit for bit.
fn same_row(a: ColRef<'_>, b: ColRef<'_>) -> bool {
    let bits = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    match (a, b) {
        (ColRef::Text(x), ColRef::Text(y)) => x == y,
        (ColRef::Dense(x), ColRef::Dense(y)) => bits(x, y),
        (
            ColRef::Sparse {
                indices: i,
                values: v,
                dim: d,
            },
            ColRef::Sparse {
                indices: j,
                values: w,
                dim: e,
            },
        ) => d == e && i == j && bits(v, w),
        _ => false,
    }
}

/// Everything one request dispatch needs, shared by both serving paths.
struct ServerShared {
    runtime: Arc<Runtime>,
    cache: Option<Arc<ResultCache>>,
    batcher: Option<Arc<Batcher>>,
    /// Connection counters; the `STATS` verb folds them into its snapshot.
    stats: Arc<FrontEndStats>,
}

/// Where a request's eventual result goes.
///
/// The fallback loop computes in place and returns [`Dispatch::Ready`];
/// the reactor path hands asynchronous work a [`reactor::CompletionHandle`]
/// — built from the frame's [`reactor::Route`] only then, so a request
/// answered inline never pays for one — and returns [`Dispatch::Pending`]:
/// the completion re-enters the owning reactor through its queue instead
/// of parking this thread.
enum Responder<'a> {
    /// The thread-per-connection loop: block until the result exists.
    Blocking,
    /// Reactor: push the encoded response to the connection's reactor.
    Reactor(reactor::Route<'a>),
}

/// Outcome of dispatching one request frame.
#[derive(Debug, PartialEq)]
enum Dispatch {
    /// The response body was appended to the caller's output buffer.
    Ready,
    /// The response will arrive later through the [`Responder`]'s
    /// completion handle (reactor only); nothing was appended.
    Pending,
}

/// A lane times the decode of one in this many single-row requests (the
/// first included): two clock reads cost about what the decode itself does.
const DECODE_SAMPLE: u32 = 64;

/// What one serving thread (a reactor, or a blocking connection thread)
/// keeps for the single-row fast lane: its own request-response session,
/// so an inline request shares nothing with other threads, and the
/// scratch a dense or sparse wire row is copied into once (the frame's
/// bytes are unaligned; a text row is borrowed from the frame as it is).
struct Lane {
    session: RrSession,
    dense: Vec<f32>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Single-row requests decoded so far ([`DECODE_SAMPLE`]).
    decodes: u32,
}

impl Lane {
    fn new(runtime: &Runtime) -> Lane {
        Lane {
            session: runtime.rr_session(),
            dense: Vec::new(),
            indices: Vec::new(),
            values: Vec::new(),
            decodes: 0,
        }
    }
}

/// One plan's accumulated delayed-batch requests between flushes: rows
/// append to one per-plan column batch as they arrive; the flush submits it
/// without any re-packing.
struct PendingBatch {
    assembler: BatchAssembler,
    waiters: Vec<DelayedWaiter>,
}

/// One delayed-batch requester awaiting the next flush.
struct DelayedWaiter {
    sink: ResultSink,
    /// A copy of the row, when the requester asked to cache its score.
    cache_row: Option<Vector>,
}

/// How a flushed delayed-batch score reaches its requester.
enum ResultSink {
    /// A blocked connection thread waiting on the channel.
    Channel(mpsc::Sender<Result<f32>>),
    /// A reactor connection; the flush pushes the encoded response.
    Reactor(reactor::CompletionHandle),
}

impl ResultSink {
    /// Delivers the result; `false` means the requester is gone.
    fn deliver(self, result: Result<f32>) -> bool {
        match self {
            ResultSink::Channel(tx) => tx.send(result).is_ok(),
            ResultSink::Reactor(handle) => {
                handle.complete_single(result);
                true
            }
        }
    }
}

struct Batcher {
    pending: Mutex<HashMap<PlanId, PendingBatch>>,
    /// The front end's result cache: flush-time inserts for delayed
    /// requests that asked for caching.
    cache: Option<Arc<ResultCache>>,
}

/// A running TCP front end.
pub struct FrontEnd {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    reactor: Option<reactor::ReactorPool>,
    flush_thread: Option<JoinHandle<()>>,
    stats: Arc<FrontEndStats>,
}

impl std::fmt::Debug for FrontEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("addr", &self.addr)
            .field("reactor", &self.reactor.is_some())
            .finish()
    }
}

impl FrontEnd {
    /// Binds a loopback listener and starts serving `runtime`, on the
    /// reactor pool where the target has one and thread-per-connection
    /// elsewhere.
    pub fn serve(runtime: Arc<Runtime>, config: FrontEndConfig) -> std::io::Result<FrontEnd> {
        Self::start(runtime, config, sys::SUPPORTED)
    }

    /// [`Self::serve`] on the path `reactor` names.
    fn start(
        runtime: Arc<Runtime>,
        config: FrontEndConfig,
        reactor: bool,
    ) -> std::io::Result<FrontEnd> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(FrontEndStats::default());
        let cache = (config.result_cache_bytes > 0).then(|| {
            Arc::new(ResultCache(Mutex::new(LruCache::new(
                config.result_cache_bytes,
            ))))
        });
        let batcher = config.batch_delay.map(|_| {
            Arc::new(Batcher {
                pending: Mutex::new(HashMap::new()),
                cache: cache.clone(),
            })
        });
        let shared = Arc::new(ServerShared {
            runtime: Arc::clone(&runtime),
            cache,
            batcher: batcher.clone(),
            stats: Arc::clone(&stats),
        });

        // Delayed-batching flusher: every tick, drain pending requests per
        // plan and submit them as one batch (paper §4.3). `stop` cuts the
        // wait short. The first tick is stamped before `start` returns.
        let flush_thread = match (&batcher, config.batch_delay) {
            (Some(batcher), Some(delay)) => {
                let batcher = Arc::clone(batcher);
                let runtime = Arc::clone(&runtime);
                let stop = Arc::clone(&stop);
                let mut tick = runtime.clock().now() + delay;
                Some(std::thread::spawn(move || {
                    let clock = runtime.clock();
                    while clock.wait_until(tick, &stop) {
                        flush_pending(&batcher, &runtime);
                        tick = clock.now() + delay;
                    }
                    flush_pending(&batcher, &runtime);
                }))
            }
            _ => None,
        };

        let (accept_thread, reactor) = if reactor {
            let pool = reactor::ReactorPool::start(
                listener,
                shared,
                Arc::clone(&stats),
                config.reactor_threads,
                config.max_connections,
            )?;
            (None, Some(pool))
        } else {
            let stop = Arc::clone(&stop);
            let handle = std::thread::spawn(move || accept_loop(&listener, &shared, &stop));
            (Some(handle), None)
        };

        Ok(FrontEnd {
            addr,
            stop,
            accept_thread,
            reactor,
            flush_thread,
            stats,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection-plane counters.
    pub fn stats(&self) -> &FrontEndStats {
        &self.stats
    }

    /// Stops accepting and joins the service threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The flusher's last pass answers every parked delayed request: it
        // runs while the serving threads can still deliver those answers.
        if let Some(h) = self.flush_thread.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        if let Some(pool) = self.reactor.take() {
            pool.stop();
        }
        if self.accept_thread.is_some() {
            // Unblock the accept loop.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn flush_pending(batcher: &Batcher, runtime: &Runtime) {
    let drained: Vec<(PlanId, PendingBatch)> = {
        let mut pending = batcher.pending.lock();
        pending.drain().collect()
    };
    for (plan, PendingBatch { assembler, waiters }) in drained {
        let (rows, hashes) = assembler.finish();
        let outcome = runtime.predict_batch_assembled_wait(plan, rows, hashes);
        // A delivery failure means that client disconnected mid-flush.
        // That is its problem alone: log it and keep delivering to the
        // rest of the flush instead of dropping the error (or the flush)
        // on the floor.
        let mut dropped = 0usize;
        match outcome {
            Ok(scores) => {
                for (s, waiter) in scores.into_iter().zip(waiters) {
                    if let (Some(row), Some(cache)) = (waiter.cache_row, &batcher.cache) {
                        cache.insert(plan, row, s);
                    }
                    if !waiter.sink.deliver(Ok(s)) {
                        dropped += 1;
                    }
                }
            }
            Err(e) => {
                for waiter in waiters {
                    if !waiter.sink.deliver(Err(e.clone())) {
                        dropped += 1;
                    }
                }
            }
        }
        if dropped > 0 {
            runtime
                .metrics_registry()
                .note_delayed_drops(dropped as u64);
            crate::log_warn!(
                "dropped {dropped} delayed-batch result(s) for plan {plan}: \
                 client(s) disconnected mid-flush"
            );
        }
    }
}

/// The thread-per-connection path: accepts until `stop` is raised, one
/// thread serving each accepted socket.
fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        shared.stats.accepted.fetch_add(1, Ordering::AcqRel);
        shared.stats.open.fetch_add(1, Ordering::AcqRel);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &shared);
            shared.stats.open.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

/// One connection of the thread-per-connection path: a request at a time,
/// each answered before the next is read.
fn serve_connection(mut stream: TcpStream, shared: &ServerShared) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut frames = wire::FrameReader::default();
    let mut lane = Lane::new(&shared.runtime);
    let mut out = Vec::new();
    loop {
        wire::clear_buffer(&mut out);
        match frames.read_next(&mut stream)? {
            None => return Ok(()),
            Some(wire::Frame::Complete { request_id, body }) => {
                let body_start = wire::begin_v2(&mut out, request_id);
                let dispatch = serve_frame(shared, &mut lane, body, &mut out, &Responder::Blocking);
                debug_assert_eq!(
                    dispatch,
                    Dispatch::Ready,
                    "blocking dispatch resolves in place"
                );
                wire::end_frame(&mut out, body_start);
                stream.write_all(&out)?;
            }
            Some(wire::Frame::Reject(msg)) => {
                // Refuse with a protocol error instead of allocating. The
                // stream cannot be resynchronized past an unread body, so
                // reply and close.
                shared.stats.note_protocol_error();
                wire::encode_connection_error(&mut out, &msg);
                let _ = stream.write_all(&out);
                return Ok(());
            }
        }
    }
}

/// Dispatches one request frame. On [`Dispatch::Ready`] the response body
/// — the result, or the error the request ran into — has been appended to
/// `out`; on [`Dispatch::Pending`] a reactor responder will receive it
/// asynchronously and `out` is as it was.
fn serve_frame(
    shared: &ServerShared,
    lane: &mut Lane,
    body: &[u8],
    out: &mut Vec<u8>,
    responder: &Responder<'_>,
) -> Dispatch {
    let mark = out.len();
    match handle_request(shared, lane, body, out, responder) {
        Ok(dispatch) => dispatch,
        Err(e) => {
            out.truncate(mark);
            wire::put_err(out, &e);
            Dispatch::Ready
        }
    }
}

/// Decoded request header fields.
#[derive(Clone, Copy)]
struct RequestHead {
    plan: PlanId,
    kind: u8,
    flags: u8,
    n: usize,
}

fn handle_request(
    shared: &ServerShared,
    lane: &mut Lane,
    body: &[u8],
    out: &mut Vec<u8>,
    responder: &Responder<'_>,
) -> Result<Dispatch> {
    let mut cur = Cursor::new(body);
    let plan = cur.u32()?;
    let kind_flags = cur.u32()?;
    let head = RequestHead {
        plan,
        kind: (kind_flags & 0xff) as u8,
        flags: ((kind_flags >> 8) & 0xff) as u8,
        n: (kind_flags >> 16) as usize,
    };
    if head.kind == ADMIN_STATS {
        // The runtime fills everything it owns; the FrontEnd overlays the
        // connection-plane section only it can see.
        let mut snap = shared.runtime.metrics();
        snap.frontend = Some(crate::telemetry::FrontEndSnapshot {
            open_connections: shared.stats.open_connections() as u64,
            accepted: shared.stats.accepted(),
            refused: shared.stats.refused(),
            protocol_errors: shared.stats.protocol_errors(),
        });
        out.push(wire::STATUS_ADMIN);
        snap.encode(out);
        return Ok(Dispatch::Ready);
    }
    if matches!(
        head.kind,
        ADMIN_DEPLOY | ADMIN_UNDEPLOY | ADMIN_SWAP | ADMIN_LIST | ADMIN_ROLLBACK
    ) {
        out.push(wire::STATUS_ADMIN);
        handle_admin(&head, cur, &shared.runtime, out)?;
        return Ok(Dispatch::Ready);
    }
    if head.flags & FLAG_PLAN_ALIAS != 0 {
        // Alias addressing: resolve per attempt; a request that loses the
        // race with a concurrent undeploy of the swapped-from version
        // re-resolves and lands on the alias's current binding. Admission
        // for batch submissions is synchronous, so a `Pending` dispatch is
        // already past the retirement race by the time it returns.
        let alias = cur.str_ref()?;
        return shared.runtime.with_alias(alias, |id| {
            let head = RequestHead {
                plan: id,
                flags: head.flags & !FLAG_PLAN_ALIAS,
                ..head
            };
            serve_records(head, cur.clone(), shared, lane, out, responder)
        });
    }
    serve_records(head, cur, shared, lane, out, responder)
}

/// Executes one admin verb, appending the verb-specific payload.
fn handle_admin(
    head: &RequestHead,
    mut cur: Cursor<'_>,
    runtime: &Runtime,
    payload: &mut Vec<u8>,
) -> Result<()> {
    use pretzel_data::serde_bin::wire;
    match head.kind {
        ADMIN_DEPLOY => {
            let alias = cur.str()?;
            let reserved = cur.u32()? != 0;
            let image = cur.bytes()?;
            let id = runtime.deploy(
                image,
                crate::lifecycle::DeployOptions {
                    alias: (!alias.is_empty()).then_some(alias),
                    reserved,
                },
            )?;
            wire::put_u32(payload, id);
        }
        ADMIN_UNDEPLOY => {
            let report = runtime.undeploy(head.plan)?;
            wire::put_u64(payload, report.freed_param_bytes as u64);
            wire::put_u32(payload, report.freed_params as u32);
            wire::put_u32(payload, report.dropped_stages as u32);
            wire::put_u32(payload, report.dropped_aliases as u32);
        }
        ADMIN_SWAP => {
            let alias = cur.str()?;
            let previous = runtime.swap(&alias, head.plan)?;
            wire::put_u32(payload, previous.unwrap_or(u32::MAX));
        }
        ADMIN_ROLLBACK => {
            let alias = cur.str()?;
            let now_bound = runtime.rollback(&alias)?;
            wire::put_u32(payload, now_bound.unwrap_or(u32::MAX));
        }
        ADMIN_LIST => {
            let plans = runtime.list_plans();
            wire::put_u32(payload, plans.len() as u32);
            for info in plans {
                wire::put_u32(payload, info.id);
                wire::put_u32(payload, u32::from(info.retired));
                wire::put_u32(payload, u32::from(info.quarantined));
                wire::put_u32(payload, info.in_flight as u32);
                wire::put_u32(payload, info.aliases.len() as u32);
                for alias in &info.aliases {
                    wire::put_str(payload, alias);
                }
            }
        }
        k => return Err(DataError::BadInput(format!("bad admin kind {k:#x}"))),
    }
    Ok(())
}

/// The slot-0 batch type a request's records assemble into. Dense and
/// sparse requests carry per-record dimensions; the first record's fixes
/// the batch shape (later records must match it).
///
/// The peeked dimension is untrusted wire input and (for dense rows)
/// drives the batch's capacity hint, so a prefix claiming more floats
/// than the body holds is rejected here — before anything allocates,
/// like every other hostile length prefix.
fn wire_batch_type(kind: u8, cur: &Cursor<'_>) -> Result<ColumnType> {
    match kind {
        KIND_TEXT => Ok(ColumnType::Text),
        KIND_DENSE => Ok(ColumnType::F32Dense {
            len: dense_len(&mut cur.clone())?,
        }),
        KIND_SPARSE => {
            let mut peek = cur.clone();
            Ok(ColumnType::F32Sparse {
                len: peek.u32()? as usize,
            })
        }
        k => Err(DataError::BadInput(format!("bad record kind {k}"))),
    }
}

/// Reads a dense record's length prefix, rejecting a claim of more floats
/// than the body holds.
fn dense_len(cur: &mut Cursor<'_>) -> Result<usize> {
    let len = cur.u32()? as usize;
    if len.saturating_mul(4) > cur.remaining() {
        return Err(DataError::Codec(format!(
            "dense record claims {len} features, body holds {} bytes",
            cur.remaining()
        )));
    }
    Ok(len)
}

/// Rows to size the assembler's batch lease for: enough for the request,
/// but never hinting more storage than the body's bytes could actually
/// fill (`n` itself is wire input; dense hints multiply by the row width).
fn assembler_rows_hint(ty: &ColumnType, n: usize, body_remaining: usize) -> usize {
    match ty {
        ColumnType::F32Dense { len } => n.min(body_remaining / (4 * (*len).max(1))),
        _ => n,
    }
}

/// Serves a (plan-id-addressed) prediction request through the engine its
/// shape and flags select: the inline lane for one row, the batch engine
/// (or the delayed batcher) for rows assembled into a pool-leased batch.
fn serve_records(
    head: RequestHead,
    mut cur: Cursor<'_>,
    shared: &ServerShared,
    lane: &mut Lane,
    out: &mut Vec<u8>,
    responder: &Responder<'_>,
) -> Result<Dispatch> {
    let RequestHead {
        plan,
        kind,
        flags,
        n,
    } = head;
    let runtime = &*shared.runtime;
    if n == 0 {
        // An empty batch still validates its plan id.
        let _ = runtime.plan(plan)?;
        wire::put_ok(out, &[]);
        return Ok(Dispatch::Ready);
    }
    let delayed = flags & FLAG_DELAYED_BATCH != 0 && n == 1;
    if n == 1 && !delayed {
        return serve_single(head, cur, shared, lane, out);
    }
    let pool = Arc::clone(runtime.ingest_pool());
    let ty = wire_batch_type(kind, &cur)?;
    let rows_hint = assembler_rows_hint(&ty, n, cur.remaining());
    let lease = pool.acquire_batch(ty, rows_hint);
    let mut asm = BatchAssembler::new_unhashed(lease).reject_non_finite(true);
    let release = |asm: BatchAssembler| pool.release_batch(asm.finish().0);
    let clock = runtime.clock();
    let decode_start = clock.now();
    for _ in 0..n {
        let decoded = match kind {
            KIND_TEXT => asm.decode_text_row(&mut cur),
            KIND_DENSE => asm.decode_dense_row(&mut cur),
            _ => asm.decode_sparse_row(&mut cur),
        };
        if let Err(e) = decoded {
            release(asm);
            return Err(e);
        }
    }
    runtime
        .metrics_registry()
        .record_decode(clock.since(decode_start).as_nanos() as u64);

    if delayed {
        // Prediction-result cache, when the request asks and one is
        // configured: the one row is the key, as on the inline lane.
        let cache = shared
            .cache
            .as_ref()
            .filter(|_| flags & FLAG_RESULT_CACHE != 0);
        if let Some(cache) = cache {
            if let Some(score) = cache.get(plan, asm.batch().row(0)) {
                release(asm);
                wire::put_ok(out, &[score]);
                return Ok(Dispatch::Ready);
            }
        }
        let cache_row = cache.map(|_| asm.batch().row(0).to_vector());
        let Some(batcher) = &shared.batcher else {
            release(asm);
            return Err(DataError::BadInput(
                "delayed batching not enabled on this front end".into(),
            ));
        };
        let (sink, rx) = match responder {
            Responder::Blocking => {
                let (tx, rx) = mpsc::channel();
                (ResultSink::Channel(tx), Some(rx))
            }
            Responder::Reactor(route) => (ResultSink::Reactor(route.handle()), None),
        };
        let waiter = DelayedWaiter { sink, cache_row };
        let appended = {
            let mut pending = batcher.pending.lock();
            let entry = pending.entry(plan).or_insert_with(|| {
                // The per-plan accumulator leases its own batch; rows of
                // the same plan pack together until the next flush.
                let lease = pool.acquire_batch(asm.column_type(), 16);
                PendingBatch {
                    assembler: BatchAssembler::new_unhashed(lease),
                    waiters: Vec::new(),
                }
            });
            entry
                .assembler
                .append_assembled(&asm)
                .map(|()| entry.waiters.push(waiter))
        };
        release(asm);
        appended?;
        return match rx {
            Some(rx) => {
                let score = rx
                    .recv()
                    .map_err(|_| DataError::Runtime("batcher dropped request".into()))??;
                wire::put_ok(out, &[score]);
                Ok(Dispatch::Ready)
            }
            None => Ok(Dispatch::Pending),
        };
    }

    // Batch engine: the assembled batch is the submission — the lease
    // returns to the ingest pool when the request completes.
    let (rows, hashes) = asm.finish();
    match responder {
        Responder::Blocking => {
            let scores = runtime.predict_batch_assembled_wait(plan, rows, hashes)?;
            wire::put_ok(out, &scores);
            Ok(Dispatch::Ready)
        }
        Responder::Reactor(route) => {
            let handle = route.handle();
            runtime
                .predict_batch_assembled(plan, rows, hashes)?
                .on_complete(move |result| handle.complete_result(result));
            Ok(Dispatch::Pending)
        }
    }
}

/// The single-row fast lane: one record, not delayed. The row is scored
/// where it lies — a text row borrowed from the frame, a dense or sparse
/// row copied once into the lane's scratch — on the calling thread's own
/// request-response session: no ingest lease, no assembler, no copy into
/// slot 0, and the score is encoded straight into the output buffer.
fn serve_single(
    head: RequestHead,
    mut cur: Cursor<'_>,
    shared: &ServerShared,
    lane: &mut Lane,
    out: &mut Vec<u8>,
) -> Result<Dispatch> {
    let runtime = &*shared.runtime;
    let Lane {
        session,
        dense,
        indices,
        values,
        decodes,
    } = lane;
    let sampled = *decodes % DECODE_SAMPLE == 0;
    *decodes = decodes.wrapping_add(1);
    let decode_start = sampled.then(|| runtime.clock().now());
    let source = match head.kind {
        KIND_TEXT => SourceRef::Text(cur.str_ref()?),
        KIND_DENSE => {
            let len = dense_len(&mut cur)?;
            dense.clear();
            dense.extend(le_f32s(cur.words(len)?));
            check_finite(dense)?;
            SourceRef::Dense(dense)
        }
        KIND_SPARSE => {
            let dim = cur.u32()?;
            let nnz = cur.u32()? as usize;
            if nnz.saturating_mul(8) > cur.remaining() {
                return Err(DataError::Codec(format!(
                    "sparse record claims {nnz} entries, body holds {} bytes",
                    cur.remaining()
                )));
            }
            indices.clear();
            indices.extend(le_u32s(cur.words(nnz)?));
            validate_sparse_indices(indices, dim)?;
            values.clear();
            values.extend(le_f32s(cur.words(nnz)?));
            check_finite(values)?;
            SourceRef::Sparse {
                indices,
                values,
                dim,
            }
        }
        k => return Err(DataError::BadInput(format!("bad record kind {k}"))),
    };
    if let Some(t0) = decode_start {
        runtime
            .metrics_registry()
            .record_decode(runtime.clock().since(t0).as_nanos() as u64);
    }
    // Prediction-result cache, when the request asks and one is configured.
    let cache = shared
        .cache
        .as_ref()
        .filter(|_| head.flags & FLAG_RESULT_CACHE != 0);
    if let Some(score) = cache.and_then(|c| c.get(head.plan, source.as_row())) {
        wire::put_ok(out, &[score]);
        return Ok(Dispatch::Ready);
    }
    let score = runtime.predict_source_in(session, head.plan, source)?;
    if let Some(cache) = cache {
        cache.insert(head.plan, source.as_row().to_vector(), score);
    }
    wire::put_ok(out, &[score]);
    Ok(Dispatch::Ready)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::flour::FlourContext;
    use crate::runtime::RuntimeConfig;
    use crate::scheduler::tests::quiet_fault_panics;
    use crate::scheduler::Record;
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::synth;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    fn serve_sa(config: FrontEndConfig) -> (Arc<Runtime>, FrontEnd, PlanId) {
        serve_sa_on(config, sys::SUPPORTED, Clock::real())
    }

    /// [`serve_sa`] on the serving path `reactor` names, reading `clock`.
    fn serve_sa_on(
        config: FrontEndConfig,
        reactor: bool,
        clock: Clock,
    ) -> (Arc<Runtime>, FrontEnd, PlanId) {
        let rt = Arc::new(Runtime::with_clock(
            RuntimeConfig {
                n_executors: 2,
                ..RuntimeConfig::default()
            },
            clock,
        ));
        let id = rt.register(sa_flour(false).plan().unwrap()).unwrap();
        let fe = FrontEnd::start(Arc::clone(&rt), config, reactor).unwrap();
        (rt, fe, id)
    }

    /// A small SA pipeline; `faulting` puts the panic injector (marker
    /// `boom`) on every record's path.
    fn sa_flour(faulting: bool) -> crate::flour::Flour {
        let vocab = synth::vocabulary(0, 64);
        let ctx = FlourContext::new();
        let mut text = ctx.csv(',').select_text(1);
        if faulting {
            let fault = pretzel_ops::fault::FaultParams::new("boom");
            text = text.apply(pretzel_ops::Op::FaultInjector(Arc::new(fault)));
        }
        let tokens = text.tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 64)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 64, &vocab)));
        c.concat(&w)
            .classifier_linear(Arc::new(synth::linear(3, 128, LinearKind::Logistic)))
    }

    #[test]
    fn every_error_class_reaches_a_socket_client_as_itself() {
        quiet_fault_panics();
        for reactor in [true, false] {
            // A manual clock: the fault window never slides past a fault.
            let rt = Arc::new(Runtime::with_clock(
                RuntimeConfig {
                    n_executors: 1,
                    ..RuntimeConfig::default() // quarantine after 3 faults
                },
                Clock::manual(),
            ));
            let sa = rt.register(sa_flour(false).plan().unwrap()).unwrap();
            let retired = rt.register(sa_flour(false).plan().unwrap()).unwrap();
            rt.undeploy(retired).unwrap();
            let faulty = rt.register(sa_flour(true).plan().unwrap()).unwrap();
            let fe = FrontEnd::start(Arc::clone(&rt), FrontEndConfig::default(), reactor).unwrap();
            let mut client = Client::connect_v2(fe.addr()).unwrap();
            let session = Session::connect(fe.addr()).unwrap();
            // The in-process error, then the same request through the
            // client and through the session.
            let mut check = |request: PredictRequest, local: DataError| {
                let via_client = client.predict_many(&request);
                let via_session = session.submit(&request).unwrap().wait();
                assert_eq!(via_client, Err(local.clone()), "reactor {reactor}");
                assert_eq!(via_session, Err(local), "reactor {reactor}");
            };
            let text = |line: &str, plan| PredictRequest::text(line).plan(plan);
            let local = |plan, line: &str| rt.predict_source(plan, SourceRef::Text(line));

            let err = local(999, "1,x").unwrap_err();
            assert_eq!(err, DataError::UnknownPlan(999));
            check(text("1,x", 999), err);
            let err = local(retired, "1,x").unwrap_err();
            assert_eq!(err, DataError::PlanRetired(retired));
            check(text("1,x", retired), err);
            let err = local(sa, "no separator").unwrap_err();
            assert!(matches!(err, DataError::BadInput(_)), "{err}");
            check(text("no separator", sa), err);
            let batch = ["4,fine", "no separator"].map(|l| Record::Text(l.into()));
            let err = rt.predict_batch_wait(sa, batch.to_vec()).unwrap_err();
            assert!(matches!(err, DataError::BadInput(_)), "{err}");
            check(PredictRequest::batch(batch.to_vec()).plan(sa), err);
            let err = rt
                .predict_source(sa, SourceRef::Dense(&[1.0, 2.0]))
                .unwrap_err();
            assert!(matches!(err, DataError::SchemaMismatch { .. }), "{err}");
            check(PredictRequest::dense(vec![1.0, 2.0]).plan(sa), err);
            // Three faults — one in process, two remote — close the gate.
            let err = local(faulty, "1,boom").unwrap_err();
            assert!(matches!(err, DataError::ExecutionFault(_)), "{err}");
            check(text("1,boom", faulty), err);
            let err = local(faulty, "1,boom").unwrap_err();
            assert_eq!(err, DataError::PlanQuarantined(faulty));
            check(text("1,boom", faulty), err);

            // A corrupted model image, deployed in process and remotely.
            let mut image = sa_flour(false).graph().to_model_image();
            let mid = image.len() / 2;
            image[mid] ^= 0xff;
            let err = rt.deploy(&image, Default::default()).unwrap_err();
            assert!(matches!(err, DataError::Codec(_)), "{err}");
            assert_eq!(client.deploy(&image, None, false), Err(err));
            fe.stop();
        }
    }

    #[test]
    fn client_server_round_trip_matches_local() {
        let (rt, fe, id) = serve_sa(FrontEndConfig::default());
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let remote = client
            .predict(&PredictRequest::text("5,a nice product").plan(id))
            .unwrap();
        let local = rt.predict(id, "5,a nice product").unwrap();
        assert!((remote - local).abs() < 1e-6);
        fe.stop();
    }

    /// Opening bytes no front end may allocate for or hang on: heads that
    /// are not the magic, and headers announcing a body over the limit.
    fn hostile_heads() -> Vec<Vec<u8>> {
        let mut heads: Vec<Vec<u8>> = [u32::MAX, 8, 0]
            .iter()
            .map(|head| head.to_le_bytes().to_vec())
            .collect();
        for len in [u32::MAX, (64 << 20) + 1, 0x8000_0000] {
            let mut head = wire::WIRE_MAGIC.to_vec();
            head.extend_from_slice(&[wire::WIRE_V2, 0, 0, 0]);
            head.extend_from_slice(&7u32.to_le_bytes());
            head.extend_from_slice(&len.to_le_bytes());
            heads.push(head);
        }
        heads
    }

    /// Reads the one connection-level error frame a framing violation
    /// earns and the close after it; returns the server's message.
    fn read_connection_error(stream: &mut TcpStream) -> String {
        let mut header = [0u8; wire::V2_HEADER_BYTES];
        stream.read_exact(&mut header).unwrap();
        assert_eq!(header[..4], wire::WIRE_MAGIC);
        let id = u32::from_le_bytes(header[8..12].try_into().unwrap());
        assert_eq!(id, wire::CONNECTION_ERROR_ID);
        let len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        assert!(len < 1 << 10, "error reply should be small, got {len}");
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        let mut probe = [0u8; 1];
        assert_eq!(
            stream.read(&mut probe).unwrap(),
            0,
            "closed after the error"
        );
        wire::decode_response(&body).unwrap_err().to_string()
    }

    /// Both serving paths — on linux the fallback loop is driven directly —
    /// answer every request shape alike and survive the same hostile set.
    #[test]
    fn both_serving_paths_serve_and_survive_hostile_framing() {
        let paths: &[bool] = if sys::SUPPORTED {
            &[true, false]
        } else {
            &[false]
        };
        for &reactor in paths {
            let (rt, fe, id) = serve_sa_on(
                FrontEndConfig {
                    batch_delay: Some(Duration::from_millis(2)),
                    ..FrontEndConfig::default()
                },
                reactor,
                Clock::real(),
            );
            let line = "5,a nice product";
            let local = rt.predict(id, line).unwrap();
            let mut client = Client::connect_v2(fe.addr()).unwrap();
            let single = client
                .predict(&PredictRequest::text(line).plan(id))
                .unwrap();
            let delayed = client
                .predict(&PredictRequest::text(line).plan(id).delayed())
                .unwrap();
            let batch = client
                .predict_many(&PredictRequest::text_batch([line, line]).plan(id))
                .unwrap();
            for score in [single, delayed, batch[0], batch[1]] {
                assert_eq!(score.to_bits(), local.to_bits(), "reactor {reactor}");
            }

            let heads = hostile_heads();
            for head in &heads {
                let mut stream = TcpStream::connect(fe.addr()).unwrap();
                stream.write_all(head).unwrap();
                let msg = read_connection_error(&mut stream);
                let want = if head[..4] == wire::WIRE_MAGIC {
                    "exceeds"
                } else {
                    "magic"
                };
                assert!(msg.contains(want), "reactor {reactor}: {msg}");
            }
            // A session hears the server's reason, not just a closed socket.
            let session = Session::connect(fe.addr()).unwrap();
            let ok = session
                .submit(&PredictRequest::text(line).plan(id))
                .unwrap();
            assert_eq!(ok.wait_one().unwrap().to_bits(), local.to_bits());
            let mut raw = Vec::new();
            wire::encode_v2_into(&mut raw, 0, b"");
            raw[4] = 9; // an unknown version
            session.queue_raw(&raw);
            let behind = session
                .submit(&PredictRequest::text(line).plan(id))
                .unwrap();
            let err = behind.wait().unwrap_err().to_string();
            assert!(err.contains("version 9"), "reactor {reactor}: {err}");

            assert_eq!(fe.stats().protocol_errors(), heads.len() as u64 + 1);
            let again = client
                .predict(&PredictRequest::text(line).plan(id))
                .unwrap();
            assert_eq!(again.to_bits(), local.to_bits(), "still serving");
            fe.stop();
        }
    }

    #[test]
    fn batch_request_over_the_wire() {
        let (rt, fe, id) = serve_sa(FrontEndConfig::default());
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let lines = ["1,bad product", "5,wonderful thing", "3,meh"];
        let scores = client
            .predict_many(&PredictRequest::text_batch(lines).plan(id))
            .unwrap();
        assert_eq!(scores.len(), 3);
        for (line, s) in lines.iter().zip(&scores) {
            assert!((rt.predict(id, line).unwrap() - s).abs() < 1e-6);
        }
        fe.stop();
    }

    #[test]
    fn server_reports_errors_for_unknown_plan() {
        let (_rt, fe, _id) = serve_sa(FrontEndConfig::default());
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let err = client
            .predict(&PredictRequest::text("1,x").plan(99))
            .unwrap_err();
        assert_eq!(err, DataError::UnknownPlan(99));
        fe.stop();
    }

    #[test]
    fn result_cache_hits_are_confirmed_against_the_row() {
        // Unit tests narrow the cache key's hash to 8 bits, so 300 distinct
        // rows collide by pigeonhole: every cached score must still be its
        // own row's, bitwise the cache-off runtime's.
        let (rt, fe, id) = serve_sa(FrontEndConfig {
            result_cache_bytes: 1 << 20,
            batch_delay: Some(Duration::from_millis(1)),
            ..FrontEndConfig::default()
        });
        let vocab = synth::vocabulary(0, 64);
        let word = |i: usize| vocab[i % vocab.len()].as_str();
        let lines: Vec<String> = (0..300)
            .map(|i| {
                format!(
                    "5,{} {} {} {}",
                    word(i),
                    word(i / 8),
                    word(5 * i + 1),
                    word(i / 64)
                )
            })
            .collect();
        let want: Vec<f32> = lines.iter().map(|l| rt.predict(id, l).unwrap()).collect();
        let mut distinct: Vec<u32> = want.iter().map(|s| s.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() > 100,
            "rows must score apart: {}",
            distinct.len()
        );
        // Rows the runtime scored, by either engine: a hit scores none.
        let scored = || -> u64 {
            let plans = rt.metrics().plans;
            plans.iter().map(|p| p.rr_requests + p.records).sum()
        };
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        // The first pass fills the cache and the second reads it. A row
        // takes the delayed path in one pass and the inline lane in the
        // other, so every second-pass hit crosses paths.
        for pass in 0..2 {
            let before = scored();
            for (i, line) in lines.iter().enumerate() {
                let mut request = PredictRequest::text(line.as_str()).plan(id).cached();
                if (i + pass) % 2 == 0 {
                    request = request.delayed();
                }
                let got = client.predict(&request).unwrap();
                assert_eq!(
                    got.to_bits(),
                    want[i].to_bits(),
                    "pass {pass} row {i}: {line}"
                );
            }
            let hits = lines.len() as u64 - (scored() - before);
            assert!(pass == 0 || hits > 0, "the second pass hits the cache");
        }
        fe.stop();
    }

    #[test]
    fn result_cache_serves_repeats() {
        let (_rt, fe, id) = serve_sa(FrontEndConfig {
            result_cache_bytes: 1 << 16,
            ..FrontEndConfig::default()
        });
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let a = client
            .predict(&PredictRequest::text("5,same line").plan(id).cached())
            .unwrap();
        let b = client
            .predict(&PredictRequest::text("5,same line").plan(id).cached())
            .unwrap();
        assert_eq!(a, b);
        fe.stop();
    }

    #[test]
    fn delayed_batching_returns_correct_scores() {
        let (rt, fe, id) = serve_sa(FrontEndConfig {
            batch_delay: Some(Duration::from_millis(2)),
            ..FrontEndConfig::default()
        });
        let addr = fe.addr();
        let local = rt.predict(id, "4,pretty good").unwrap();
        // Several concurrent clients ride the same flush.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect_v2(addr).unwrap();
                    c.predict(&PredictRequest::text("4,pretty good").plan(id).delayed())
                        .unwrap()
                })
            })
            .collect();
        for h in handles {
            assert!((h.join().unwrap() - local).abs() < 1e-6);
        }
        fe.stop();
    }

    #[test]
    fn dense_records_over_the_wire() {
        let dim = 8;
        let ctx = FlourContext::new();
        let logical = ctx
            .dense_source(dim)
            .scale(Arc::new(synth::scaler(1, dim)))
            .regressor_tree(Arc::new(synth::ensemble(
                2,
                dim,
                2,
                2,
                pretzel_ops::tree::EnsembleMode::Sum,
            )))
            .plan()
            .unwrap();
        let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
        let id = rt.register(logical).unwrap();
        let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let x = vec![0.25f32; dim];
        let remote = client
            .predict(&PredictRequest::dense(x.clone()).plan(id))
            .unwrap();
        assert!((remote - rt.predict_dense(id, &x).unwrap()).abs() < 1e-6);
        fe.stop();
    }

    #[test]
    fn sparse_records_over_the_wire() {
        let dim = 16u32;
        let ctx = FlourContext::new();
        let logical = ctx
            .sparse_source(dim as usize)
            .classifier_linear(Arc::new(synth::linear(
                5,
                dim as usize,
                LinearKind::Logistic,
            )))
            .plan()
            .unwrap();
        let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
        let id = rt.register(logical).unwrap();
        let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let (indices, values) = (vec![1u32, 7, 12], vec![0.5f32, -2.0, 1.25]);
        let remote = client
            .predict(&PredictRequest::sparse(indices.clone(), values.clone(), dim).plan(id))
            .unwrap();
        let local = rt.predict_sparse(id, &indices, &values, dim).unwrap();
        assert_eq!(remote.to_bits(), local.to_bits());
        // Batch sparse too.
        let rows = vec![
            Record::Sparse {
                indices,
                values,
                dim,
            },
            Record::Sparse {
                indices: vec![0, 3],
                values: vec![1.0, 2.0],
                dim,
            },
        ];
        let scores = client
            .predict_many(&PredictRequest::batch(rows).plan(id))
            .unwrap();
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0].to_bits(), local.to_bits());
        fe.stop();
    }

    #[test]
    fn malformed_sparse_record_is_protocol_error() {
        let dim = 8u32;
        let ctx = FlourContext::new();
        let logical = ctx
            .sparse_source(dim as usize)
            .classifier_linear(Arc::new(synth::linear(
                6,
                dim as usize,
                LinearKind::Regression,
            )))
            .plan()
            .unwrap();
        let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
        let id = rt.register(logical).unwrap();
        let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        // Out-of-dim index: rejected, connection stays usable.
        let err = client
            .predict(&PredictRequest::sparse(vec![99], vec![1.0], dim).plan(id))
            .unwrap_err();
        assert!(
            matches!(&err, DataError::BadInput(m) if m.contains("out of dim")),
            "{err}"
        );
        let ok = client.predict(&PredictRequest::sparse(vec![2], vec![1.0], dim).plan(id));
        assert!(ok.is_ok());
        fe.stop();
    }

    #[test]
    fn lifecycle_admin_verbs_over_the_wire() {
        let (rt, fe, seed_id) = serve_sa(FrontEndConfig::default());
        let mut client = Client::connect_v2(fe.addr()).unwrap();

        // DEPLOY: push two versions of a model file.
        let image_of = |seed: u64| {
            let vocab = synth::vocabulary(0, 64);
            let ctx = FlourContext::new();
            let tokens = ctx.csv(',').select_text(1).tokenize();
            let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 64)));
            let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 64, &vocab)));
            c.concat(&w)
                .classifier_linear(Arc::new(synth::linear(seed, 128, LinearKind::Logistic)))
                .graph()
                .to_model_image()
        };
        let v1 = client.deploy(&image_of(100), Some("sa"), false).unwrap();
        let line = "5,a really nice product";
        let v1_score = client
            .predict(&PredictRequest::text(line).alias("sa"))
            .unwrap();
        assert_eq!(
            v1_score.to_bits(),
            rt.predict(v1, line).unwrap().to_bits(),
            "alias serves the deployed version"
        );

        // SWAP: deploy v2, repoint, retire v1.
        let v2 = client.deploy(&image_of(101), None, false).unwrap();
        assert_eq!(client.swap("sa", v2).unwrap(), Some(v1));
        let v2_score = client
            .predict(&PredictRequest::text(line).alias("sa"))
            .unwrap();
        assert_eq!(v2_score.to_bits(), rt.predict(v2, line).unwrap().to_bits());

        // UNDEPLOY v1: frees its unique weights, keeps shared featurizers.
        let report = client.undeploy(v1).unwrap();
        assert!(report.freed_param_bytes > 0, "v1's linear weights freed");
        let err = client
            .predict(&PredictRequest::text(line).plan(v1))
            .unwrap_err();
        assert_eq!(err, DataError::PlanRetired(v1));
        // The alias still serves v2 without a gap.
        let again = client
            .predict(&PredictRequest::text(line).alias("sa"))
            .unwrap();
        assert_eq!(again.to_bits(), v2_score.to_bits());

        // LIST reflects the lifecycle state.
        let plans = client.list().unwrap();
        let find = |id| plans.iter().find(|p| p.id == id).unwrap();
        assert!(!find(seed_id).retired);
        assert!(find(v1).retired);
        assert!(find(v1).aliases.is_empty());
        assert_eq!(find(v2).aliases, vec!["sa".to_string()]);
        fe.stop();
    }

    #[test]
    fn alias_requests_survive_swap_and_undeploy_churn() {
        let (rt, fe, v1) = serve_sa(FrontEndConfig::default());
        rt.swap("live", v1).unwrap();
        let line = "4,steady request stream";
        let addr = fe.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let scored = Arc::new(AtomicUsize::new(0));
        let scorers: Vec<_> = (0..3)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let scored = Arc::clone(&scored);
                std::thread::spawn(move || {
                    let mut c = Client::connect_v2(addr).unwrap();
                    let mut scores = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        scores.push(
                            c.predict(&PredictRequest::text(line).alias("live"))
                                .unwrap(),
                        );
                        scored.fetch_add(1, Ordering::Relaxed);
                    }
                    scores
                })
            })
            .collect();
        // Churn versions under the scorers: each version is an identical
        // pipeline with fresh weights; every response must match one of
        // the deployed versions bitwise.
        let mut references = vec![rt.predict(v1, line).unwrap()];
        let mut current = v1;
        let mut admin = Client::connect_v2(addr).unwrap();
        for seed in 0..6u64 {
            // Gate each round on scorer progress so churn overlaps traffic.
            let floor = scored.load(Ordering::Relaxed) + 3;
            while scored.load(Ordering::Relaxed) < floor {
                std::thread::yield_now();
            }
            let vocab = synth::vocabulary(0, 64);
            let ctx = FlourContext::new();
            let tokens = ctx.csv(',').select_text(1).tokenize();
            let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 64)));
            let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 64, &vocab)));
            let image = c
                .concat(&w)
                .classifier_linear(Arc::new(synth::linear(
                    500 + seed,
                    128,
                    LinearKind::Logistic,
                )))
                .graph()
                .to_model_image();
            let next = admin.deploy(&image, None, false).unwrap();
            references.push(rt.predict(next, line).unwrap());
            assert_eq!(admin.swap("live", next).unwrap(), Some(current));
            admin.undeploy(current).unwrap();
            current = next;
        }
        stop.store(true, Ordering::Relaxed);
        let mut total = 0usize;
        for s in scorers {
            for score in s.join().unwrap() {
                total += 1;
                assert!(
                    references.iter().any(|r| r.to_bits() == score.to_bits()),
                    "score {score} matches no deployed version"
                );
            }
        }
        assert!(total > 0, "scorers made progress during churn");
        fe.stop();
    }

    #[test]
    fn dropped_handles_leave_nothing_filed() {
        let (rt, fe, id) = serve_sa(FrontEndConfig::default());
        let session = Session::connect(fe.addr()).unwrap();
        let request = PredictRequest::text("5,a nice product").plan(id);
        // Nobody waits on any of these: each response must be discarded,
        // on arrival or when its handle drops, whichever comes later.
        for _ in 0..10_000 {
            drop(session.submit(&request).unwrap());
        }
        // Inline responses come back in order, so once this one is in,
        // every earlier one has been read.
        let score = session.submit(&request).unwrap().wait_one().unwrap();
        let local = rt.predict(id, "5,a nice product").unwrap();
        assert_eq!(score.to_bits(), local.to_bits());
        assert_eq!(session.filed(), 0, "abandoned responses stayed filed");
        fe.stop();
    }

    /// Single-row requests the runtime has served for `id` (the `STATS`
    /// counter), polled up to `want` for at most five seconds of real time.
    #[allow(clippy::disallowed_methods)] // bounds a poll of another thread
    fn await_rr_requests(rt: &Runtime, id: PlanId, want: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let seen = rt.metrics().plan(id).map_or(0, |p| p.rr_requests);
            if seen == want {
                return;
            }
            assert!(
                seen < want && std::time::Instant::now() < deadline,
                "server saw {seen} requests, expected {want}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn unwaited_submits_reach_the_server_on_flush_and_on_drop() {
        let (rt, fe, id) = serve_sa(FrontEndConfig::default());
        let session = Session::connect(fe.addr()).unwrap();
        let request = PredictRequest::text("3,fewer than a group").plan(id);
        let held: Vec<_> = (0..3).map(|_| session.submit(&request).unwrap()).collect();
        session.flush().unwrap();
        await_rr_requests(&rt, id, 3);
        // Read those answers: a socket closed over unread bytes resets the
        // connection, and the server may then drop what it has not read.
        for pending in held {
            pending.wait_one().unwrap();
        }
        // Two more, then every handle on the session goes away unwaited.
        for _ in 0..2 {
            session.submit(&request).unwrap();
        }
        drop(session);
        await_rr_requests(&rt, id, 5);
        fe.stop();
    }

    /// Delayed-batch submissions `id` has flushed (the `STATS` counter).
    fn batch_requests(rt: &Runtime, id: PlanId) -> u64 {
        rt.metrics().plan(id).map_or(0, |p| p.batch_requests)
    }

    /// A front end whose delayed batcher ticks every `delay` of a manual
    /// clock, which the test alone moves.
    fn serve_sa_manual(delay: Duration) -> (Arc<Runtime>, FrontEnd, PlanId, Clock) {
        let clock = Clock::manual();
        let config = FrontEndConfig {
            batch_delay: Some(delay),
            ..FrontEndConfig::default()
        };
        let (rt, fe, id) = serve_sa_on(config, sys::SUPPORTED, clock.clone());
        (rt, fe, id, clock)
    }

    #[test]
    fn a_waiter_flushes_before_it_parks_behind_the_reader() {
        let delay = Duration::from_millis(800);
        let (rt, fe, id, clock) = serve_sa_manual(delay);
        let line = "4,pretty good";
        let local = rt.predict(id, line).unwrap();
        let session = Session::connect(fe.addr()).unwrap();
        let slow = session
            .submit(&PredictRequest::text(line).plan(id).delayed())
            .unwrap();
        std::thread::scope(|scope| {
            // This thread takes the read turn and blocks in `read` until
            // the delayed batch flushes.
            let reader = scope.spawn(|| slow.wait_one().unwrap());
            while !session.reading() {
                std::thread::yield_now();
            }
            // Fewer than a group, so the request sits in the write buffer
            // until something flushes it — and the reader, blocked on the
            // socket, will not.
            let fast = session
                .submit(&PredictRequest::text(line).plan(id))
                .unwrap();
            let score = fast.wait_one().unwrap();
            assert_eq!(score.to_bits(), local.to_bits());
            // The clock stood still, so the reader's own response cannot
            // exist yet: the inline reply did not wait for it.
            assert_eq!(batch_requests(&rt, id), 0, "flushed before the tick");
            assert!(!reader.is_finished());
            clock.advance(delay);
            assert_eq!(reader.join().unwrap().to_bits(), local.to_bits());
        });
        fe.stop();
    }

    #[test]
    fn stop_interrupts_the_batch_tick_and_still_flushes() {
        // An hour-long tick on a clock that never moves: `stop` returns only
        // because it interrupts the flusher's wait.
        let (rt, fe, id, _clock) = serve_sa_manual(Duration::from_secs(3600));
        let session = Session::connect(fe.addr()).unwrap();
        let request = PredictRequest::text("2,parked until stop").plan(id);
        let parked = session.submit(&request.clone().delayed()).unwrap();
        // A connection's frames are served in order: once the inline reply
        // is in, the delayed request is parked in the batcher.
        let inline = session.submit(&request).unwrap().wait_one().unwrap();
        fe.stop();
        // The final flush ran the parked request before the reactors
        // stopped, and its answer left before the connection closed.
        assert_eq!(batch_requests(&rt, id), 1);
        assert_eq!(parked.wait_one().unwrap().to_bits(), inline.to_bits());
    }

    #[test]
    fn a_dead_socket_fails_every_current_and_future_wait() {
        let (_rt, fe, id, _clock) = serve_sa_manual(Duration::from_millis(500));
        let session = Session::connect(fe.addr()).unwrap();
        let request = PredictRequest::text("2,never answered").plan(id);
        let parked: Vec<_> = (0..2)
            .map(|_| session.submit(&request.clone().delayed()).unwrap())
            .collect();
        session.flush().unwrap();
        // Queued after the flush: its bytes leave only after the close.
        let unflushed = session.submit(&request).unwrap();
        fe.stop();
        // A parked request is answered by the batcher's last flush if the
        // server read it before the stop, and failed by the close if not:
        // either way its wait returns.
        for pending in parked {
            let _ = pending.wait();
        }
        assert!(unflushed.wait().is_err());
        // Later submits may or may not get their bytes out; none resolves.
        for _ in 0..20 {
            if let Ok(pending) = session.submit(&request) {
                assert!(pending.wait().is_err());
            }
        }
    }

    /// Polls the open-connection gauge to `want` for at most five seconds
    /// of real time: a close reaches the reactor as its next wake.
    #[allow(clippy::disallowed_methods)] // bounds a poll of another thread
    fn await_open_connections(fe: &FrontEnd, want: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while fe.stats().open_connections() != want {
            assert!(
                std::time::Instant::now() < deadline,
                "open connections stuck at {} (want {want})",
                fe.stats().open_connections()
            );
            std::thread::yield_now();
        }
    }

    /// `request` as one frame tagged `request_id`.
    fn frame(request_id: u32, request: &PredictRequest) -> Vec<u8> {
        let mut body = Vec::new();
        request.encode_into(&mut body).unwrap();
        let mut frame = Vec::new();
        wire::encode_v2_into(&mut frame, request_id, &body);
        frame
    }

    /// Reads the next frame, a one-score reply: its request id and score.
    fn receive(frames: &mut wire::FrameReader, stream: &mut TcpStream) -> (u32, f32) {
        match frames.read_next(stream).unwrap() {
            Some(wire::Frame::Complete { request_id, body }) => {
                let scores = wire::decode_response(body).unwrap();
                assert_eq!(scores.len(), 1);
                (request_id, scores[0])
            }
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    /// `max_connections` caps the sockets open at once: the server closes
    /// one past the cap, and a close frees its seat for the next.
    #[test]
    fn connections_past_the_cap_are_closed_until_a_seat_frees() {
        if !sys::SUPPORTED {
            return; // the cap is the reactor pool's
        }
        let (rt, fe, id) = serve_sa(FrontEndConfig {
            reactor_threads: 1,
            max_connections: 2,
            ..FrontEndConfig::default()
        });
        let line = "4,pretty good";
        let local = rt.predict(id, line).unwrap();
        let request = PredictRequest::text(line).plan(id);
        let mut a = Client::connect_v2(fe.addr()).unwrap();
        let mut b = Client::connect_v2(fe.addr()).unwrap();
        for client in [&mut a, &mut b] {
            assert_eq!(client.predict(&request).unwrap().to_bits(), local.to_bits());
        }
        // A third asks too: a served one would hear its answer, a refused
        // one reads the close (a reset when the request was never read).
        let mut refused = TcpStream::connect(fe.addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = refused.write_all(&frame(1, &request));
        let mut probe = [0u8; 1];
        let read = refused.read(&mut probe);
        assert!(
            matches!(&read, Ok(0))
                || matches!(&read, Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset),
            "the third connection was not closed: {read:?}"
        );
        assert_eq!(fe.stats().accepted(), 3);
        assert_eq!(fe.stats().open_connections(), 2);
        assert_eq!(fe.stats().refused(), 1);
        // STATS tells the refusal apart from the connections it serves.
        let remote = a.stats().unwrap().frontend.unwrap();
        assert_eq!((remote.refused, remote.open_connections), (1, 2));
        drop(a);
        await_open_connections(&fe, 1);
        let mut c = Client::connect_v2(fe.addr()).unwrap();
        assert_eq!(c.predict(&request).unwrap().to_bits(), local.to_bits());
        assert_eq!(fe.stats().open_connections(), 2);
        let stats = Arc::clone(&fe.stats);
        fe.stop();
        assert_eq!(stats.open_connections(), 0, "stop closes every connection");
        drop((b, c));
    }

    /// A completion for a closed connection dies at the generation check,
    /// also when the next connection holds the same slot and reuses the
    /// same request id.
    #[test]
    fn a_stale_completion_never_reaches_the_slot_s_next_connection() {
        let delay = Duration::from_millis(500);
        let clock = Clock::manual();
        let config = FrontEndConfig {
            batch_delay: Some(delay),
            reactor_threads: 1,
            max_connections: 1,
            ..FrontEndConfig::default()
        };
        let (rt, fe, id) = serve_sa_on(config, sys::SUPPORTED, clock.clone());
        // B's row is words of the plan's vocabulary, so its dictionary
        // hits give it another score than A's.
        let line_a = "4,pretty good";
        let line_b = &format!("5,{}", synth::vocabulary(0, 64)[..8].join(" "));
        let score_a = rt.predict(id, line_a).unwrap();
        let score_b = rt.predict(id, line_b).unwrap();
        assert_ne!(score_a.to_bits(), score_b.to_bits());
        const DELAYED: u32 = 7;

        let (ask_a, ask_b) = (
            PredictRequest::text(line_a).plan(id),
            PredictRequest::text(line_b).plan(id),
        );

        // A parks a delayed request and hangs up. A connection's frames
        // are served in order, so the inline reply behind it means parked.
        let mut a = TcpStream::connect(fe.addr()).unwrap();
        let mut frames = wire::FrameReader::default();
        a.write_all(&frame(DELAYED, &ask_a.clone().delayed()))
            .unwrap();
        a.write_all(&frame(8, &ask_a)).unwrap();
        assert_eq!(receive(&mut frames, &mut a), (8, score_a));
        drop(a);
        await_open_connections(&fe, 0);

        // B takes the one slot and parks the same request id on its row.
        let mut b = TcpStream::connect(fe.addr()).unwrap();
        let mut frames = wire::FrameReader::default();
        b.write_all(&frame(DELAYED, &ask_b.clone().delayed()))
            .unwrap();
        b.write_all(&frame(9, &ask_b)).unwrap();
        assert_eq!(receive(&mut frames, &mut b), (9, score_b));
        assert_eq!(batch_requests(&rt, id), 0, "flushed before the tick");

        // One flush answers both: A's answer must vanish, B's arrive once.
        clock.advance(delay);
        let (request_id, score) = receive(&mut frames, &mut b);
        assert_eq!(request_id, DELAYED);
        assert_eq!(score.to_bits(), score_b.to_bits());
        b.write_all(&frame(10, &ask_b)).unwrap();
        assert_eq!(
            receive(&mut frames, &mut b),
            (10, score_b),
            "a stray reply reached the slot's next owner"
        );
        fe.stop();
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let (_rt, fe, _id) = serve_sa(FrontEndConfig::default());
        let mut stream = TcpStream::connect(fe.addr()).unwrap();
        // A hostile body length: ~4 GiB. The server must answer with a
        // protocol error (not attempt the allocation) and close cleanly.
        let mut head = wire::WIRE_MAGIC.to_vec();
        head.extend_from_slice(&[wire::WIRE_V2, 0, 0, 0]);
        head.extend_from_slice(&1u32.to_le_bytes());
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&head).unwrap();
        let msg = read_connection_error(&mut stream);
        assert!(msg.contains("exceeds"), "{msg}");
        assert_eq!(fe.stats().protocol_errors(), 1);
        fe.stop();
    }
}

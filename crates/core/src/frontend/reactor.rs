//! Event-loop reactor pool: how the FrontEnd serves on linux/x86-64.
//!
//! A fixed set of reactor threads shares one non-blocking listener and a
//! lock-free [`ConnSlab`] of per-connection state. Each reactor owns an
//! epoll instance; readiness events drive each connection — read into its
//! [`FrameReader`], parse frames in place, dispatch through the same
//! request logic the fallback loop uses, and drain a write-back queue under
//! `EPOLLOUT`. Requests whose results materialize later (batch engine,
//! delayed batcher) get a [`CompletionHandle`]; the completing thread
//! pushes the encoded response onto the owning reactor's queue and pokes
//! its eventfd, so no thread ever parks per request. Every reply echoes
//! its request's id, so completions emit in whatever order they arrive.
//!
//! **Per wake** a connection costs one `read` (a second only when the
//! first filled the buffer) and one `write` for every reply the wake
//! produced. **Per frame** an inline request costs a header parse, the
//! request itself, and its reply encoded straight into the write queue —
//! no completion handle, no in-flight bookkeeping, no intermediate reply
//! buffer: those exist only for a dispatch that goes [`Dispatch::Pending`].
//!
//! Completion routing is independent of the scheduler's execution plane:
//! the handle is keyed by connection token, not by executor, so a chunk
//! whose final stage ran on a *stealing* worker completes
//! through exactly the same path as one that never migrated. Ingest
//! buffers leased here return to the runtime's ingest arena from whichever
//! executor finished the request — the pool's cross-thread return path.
//!
//! Connection identity is the slab token `(slot, generation)` packed into
//! the epoll user-data word. The generation check makes every stale
//! reference — a late completion for a closed connection, a readiness
//! event harvested in the same batch as the close — drop harmlessly
//! instead of touching a recycled slot.

use super::slab::ConnSlab;
use super::sys::{self, Epoll, EpollEvent, EventFd};
use super::wire::{self, Frame, FrameReader};
use super::{encode_error, serve_frame, Dispatch, FrontEndStats, Lane, Responder, ServerShared};
use parking_lot::Mutex;
use pretzel_data::Result;
use std::collections::HashSet;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Epoll user-data word for the shared listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll user-data word for a reactor's wake eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Cap on unanswered pipelined requests per connection; beyond it the peer
/// is violating flow control and the connection closes.
const MAX_IN_FLIGHT: usize = 4096;

/// Compact the write queue once this many bytes are already flushed.
const WRITE_COMPACT_BYTES: usize = 64 * 1024;

fn pack_token(slot: u32, generation: u32) -> u64 {
    (u64::from(generation) << 32) | u64::from(slot)
}

#[cfg(unix)]
fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_stream: &TcpStream) -> i32 {
    -1 // unreachable: `sys::SUPPORTED` gates pool construction
}

/// A finished request's encoded response, en route to its reactor.
struct Completion {
    slot: u32,
    generation: u32,
    request_id: u32,
    body: Vec<u8>,
    /// When the completing thread queued this (telemetry on only): the
    /// drain records queue-to-flush latency against it.
    enqueued: Option<Instant>,
}

/// One reactor's inbound completion lane.
struct ReactorIo {
    /// Multi-producer, drained whole by the owning reactor (it swaps in an
    /// empty vector and works through the batch outside the lock).
    completions: Mutex<Vec<Completion>>,
    wake: EventFd,
}

/// State shared by every reactor thread and every completion handle.
struct ReactorShared {
    slab: ConnSlab<Conn>,
    ios: Vec<ReactorIo>,
    stop: AtomicBool,
    stats: Arc<FrontEndStats>,
    server: Arc<ServerShared>,
    listener: TcpListener,
}

/// Where one frame's response goes, as known while the frame is being
/// dispatched on its reactor. Borrowed and free to build; a dispatch that
/// completes later turns it into an owned [`CompletionHandle`].
pub(super) struct Route<'a> {
    shared: &'a Arc<ReactorShared>,
    reactor: usize,
    token: u64,
    request_id: u32,
}

impl Route<'_> {
    pub(super) fn handle(&self) -> CompletionHandle {
        CompletionHandle {
            shared: Arc::clone(self.shared),
            reactor: self.reactor,
            slot: (self.token & 0xffff_ffff) as u32,
            generation: (self.token >> 32) as u32,
            request_id: self.request_id,
        }
    }
}

/// Routes one request's eventual response back to the reactor that owns
/// its connection. Valid across connection close: a stale handle fails
/// the slab generation check and the completion is dropped.
pub(super) struct CompletionHandle {
    shared: Arc<ReactorShared>,
    reactor: usize,
    slot: u32,
    generation: u32,
    request_id: u32,
}

impl CompletionHandle {
    /// Queues an encoded response body and wakes the owning reactor — with
    /// a syscall only when the queue was empty: a reactor that has been
    /// signalled takes everything queued by the time it drains, and one
    /// that has drained finds the queue empty again.
    fn complete(&self, body: Vec<u8>) {
        let io = &self.shared.ios[self.reactor];
        let enqueued = self
            .shared
            .server
            .runtime
            .metrics_registry()
            .map(|_| Instant::now());
        let was_empty = {
            let mut queue = io.completions.lock();
            let was_empty = queue.is_empty();
            queue.push(Completion {
                slot: self.slot,
                generation: self.generation,
                request_id: self.request_id,
                body,
                enqueued,
            });
            was_empty
        };
        if was_empty {
            io.wake.signal();
        }
    }

    /// Completes with a whole-batch outcome.
    pub(super) fn complete_result(&self, result: Result<Vec<f32>>) {
        let body = match result {
            Ok(scores) => wire::encode_ok(&scores),
            Err(e) => encode_error(&e),
        };
        self.complete(body);
    }

    /// Completes with a single-record outcome (delayed batcher).
    pub(super) fn complete_single(&self, result: Result<f32>) {
        self.complete_result(result.map(|s| vec![s]));
    }
}

impl std::fmt::Debug for CompletionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionHandle")
            .field("reactor", &self.reactor)
            .field("slot", &self.slot)
            .field("generation", &self.generation)
            .field("request_id", &self.request_id)
            .finish()
    }
}

/// Per-connection state machine, owned by exactly one reactor thread.
struct Conn {
    stream: TcpStream,
    fd: i32,
    token: u64,
    frames: FrameReader,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Whether `EPOLLOUT` is currently in the epoll interest set.
    want_write: bool,
    /// Ids of requests whose dispatch went [`Dispatch::Pending`] and has
    /// not completed; responses emit as they complete, tagged by id. An
    /// inline request has answered before the next frame is parsed, so it
    /// can never be in flight beside a later frame and is never entered.
    in_flight: HashSet<u32>,
    /// Set on a fatal protocol error: flush queued bytes, then close.
    close_after_flush: bool,
    /// A completion drain queued output here and has yet to flush it.
    flush_due: bool,
}

/// What to do with a connection after handling an event.
#[derive(PartialEq)]
enum Action {
    Keep,
    Close,
}

/// The running reactor pool.
pub(super) struct ReactorPool {
    shared: Arc<ReactorShared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorPool")
            .field("threads", &self.threads.len())
            .field("slab", &self.shared.slab)
            .finish()
    }
}

impl ReactorPool {
    /// Spawns `threads` reactors sharing `listener` and the request
    /// dispatch state. Fails fast if any epoll/eventfd cannot be created.
    pub(super) fn start(
        listener: TcpListener,
        server: Arc<ServerShared>,
        stats: Arc<FrontEndStats>,
        threads: usize,
        max_connections: usize,
    ) -> std::io::Result<ReactorPool> {
        listener.set_nonblocking(true)?;
        let threads = threads.max(1);
        let mut epolls = Vec::with_capacity(threads);
        let mut ios = Vec::with_capacity(threads);
        let listener_fd = {
            #[cfg(unix)]
            {
                use std::os::fd::AsRawFd;
                listener.as_raw_fd()
            }
            #[cfg(not(unix))]
            {
                -1
            }
        };
        for _ in 0..threads {
            let ep = Epoll::new()?;
            let wake = EventFd::new()?;
            // Level-triggered: every reactor polls the shared listener and
            // races to accept; losers see `WouldBlock`.
            ep.add(listener_fd, sys::EPOLLIN, TOKEN_LISTENER)?;
            ep.add(wake.raw(), sys::EPOLLIN, TOKEN_WAKE)?;
            epolls.push(ep);
            ios.push(ReactorIo {
                completions: Mutex::new(Vec::new()),
                wake,
            });
        }
        let shared = Arc::new(ReactorShared {
            slab: ConnSlab::new(max_connections.max(1)),
            ios,
            stop: AtomicBool::new(false),
            stats,
            server,
            listener,
        });
        let threads = epolls
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pretzel-reactor-{i}"))
                    .spawn(move || run_reactor(shared, ep, i))
                    .expect("spawn reactor thread")
            })
            .collect();
        Ok(ReactorPool { shared, threads })
    }

    /// Signals every reactor and joins them; open connections close.
    pub(super) fn stop(self) {
        self.shared.stop.store(true, Ordering::Release);
        for io in &self.shared.ios {
            io.wake.signal();
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn run_reactor(shared: Arc<ReactorShared>, ep: Epoll, me: usize) {
    let mut events = [EpollEvent::zeroed(); 256];
    // Slots this thread accepted; connections never migrate between
    // reactors, which is what makes `slab.with` access exclusive.
    let mut owned: HashSet<u32> = HashSet::new();
    let mut lane = Lane::new(&shared.server.runtime);
    let mut drain = CompletionDrain::default();
    while !shared.stop.load(Ordering::Acquire) {
        let n = match ep.wait(&mut events, 100) {
            Ok(n) => n,
            Err(_) => continue,
        };
        for event in events.iter().take(n) {
            // Copy out of the packed struct before taking references.
            let data = event.data;
            let readiness = event.events;
            match data {
                TOKEN_WAKE => shared.ios[me].wake.drain(),
                TOKEN_LISTENER => accept_ready(&shared, &ep, &mut owned),
                token => {
                    let slot = (token & 0xffff_ffff) as u32;
                    let generation = (token >> 32) as u32;
                    if !owned.contains(&slot) || shared.slab.generation(slot) != generation {
                        continue; // stale event for a recycled slot
                    }
                    // Safety: this thread accepted the slot and is its only
                    // accessor until `teardown`.
                    let action = unsafe {
                        shared.slab.with(slot, |conn| {
                            conn_event(&shared, &ep, me, readiness, conn, &mut lane)
                        })
                    };
                    if action == Action::Close {
                        teardown(&shared, &ep, &mut owned, slot);
                    }
                }
            }
        }
        drain_completions(&shared, &ep, me, &mut owned, &mut drain);
    }
    // Shutdown: close everything this reactor owns.
    for slot in owned.drain() {
        // Safety: owner teardown; no other accessor exists.
        let conn = unsafe { shared.slab.remove(slot) };
        let _ = ep.delete(conn.fd);
        shared.stats.open.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_ready(shared: &Arc<ReactorShared>, ep: &Epoll, owned: &mut HashSet<u32>) {
    loop {
        let stream = match shared.listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(_) => return,
        };
        shared.stats.accepted.fetch_add(1, Ordering::AcqRel);
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            continue;
        }
        let fd = raw_fd(&stream);
        let conn = Conn {
            stream,
            fd,
            token: 0,
            frames: FrameReader::default(),
            write_buf: Vec::new(),
            write_pos: 0,
            want_write: false,
            in_flight: HashSet::new(),
            close_after_flush: false,
            flush_due: false,
        };
        let Some((slot, generation)) = shared.slab.insert(conn) else {
            // Slab full: refuse by dropping (closing) the socket.
            continue;
        };
        let token = pack_token(slot, generation);
        // Safety: we just claimed the slot; nobody else references it.
        unsafe { shared.slab.with(slot, |c| c.token = token) };
        if ep.add(fd, sys::EPOLLIN | sys::EPOLLRDHUP, token).is_err() {
            unsafe { shared.slab.remove(slot) };
            continue;
        }
        owned.insert(slot);
        shared.stats.open.fetch_add(1, Ordering::AcqRel);
    }
}

fn teardown(shared: &Arc<ReactorShared>, ep: &Epoll, owned: &mut HashSet<u32>, slot: u32) {
    owned.remove(&slot);
    // Safety: owner teardown, outside any `with` on this slot.
    let conn = unsafe { shared.slab.remove(slot) };
    let _ = ep.delete(conn.fd);
    shared.stats.open.fetch_sub(1, Ordering::AcqRel);
    // Dropping `conn` closes the socket. In-flight completions for it
    // fail the generation check and vanish — same outcome as a blocking
    // connection thread exiting with results undelivered.
}

fn conn_event(
    shared: &Arc<ReactorShared>,
    ep: &Epoll,
    me: usize,
    readiness: u32,
    conn: &mut Conn,
    lane: &mut Lane,
) -> Action {
    if readiness & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
        return Action::Close;
    }
    if readiness & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
        if read_ready(shared, me, conn, lane) == Action::Close {
            return Action::Close;
        }
        // Replies queued by inline dispatch flush eagerly; most round
        // trips never arm `EPOLLOUT` at all.
        if flush(ep, conn) == Action::Close {
            return Action::Close;
        }
    }
    if readiness & sys::EPOLLOUT != 0 {
        return flush(ep, conn);
    }
    Action::Keep
}

/// Reads what the socket holds into the connection's buffer and dispatches
/// every complete frame, stopping at the first short read: the poller is
/// level-triggered, so anything that arrives later raises a new event.
fn read_ready(shared: &Arc<ReactorShared>, me: usize, conn: &mut Conn, lane: &mut Lane) -> Action {
    loop {
        let filled = match conn.frames.fill(&mut conn.stream) {
            Ok(filled) => filled,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Action::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Action::Close,
        };
        if filled.bytes == 0 {
            return Action::Close;
        }
        dispatch_frames(shared, me, conn, lane);
        if !filled.more || conn.close_after_flush {
            return Action::Keep;
        }
    }
}

/// Parses and dispatches every complete frame in the read buffer. An
/// inline reply is encoded in place at the tail of the write queue, behind
/// a frame header opened before the dispatch and closed after it.
fn dispatch_frames(shared: &Arc<ReactorShared>, me: usize, conn: &mut Conn, lane: &mut Lane) {
    let Conn {
        frames,
        write_buf,
        in_flight,
        close_after_flush,
        token,
        ..
    } = conn;
    while !*close_after_flush {
        let violation = match frames.next_frame() {
            None => return,
            Some(Frame::Reject(msg)) => msg,
            Some(Frame::Complete { .. }) if in_flight.len() >= MAX_IN_FLIGHT => {
                format!("more than {MAX_IN_FLIGHT} pipelined requests in flight")
            }
            Some(Frame::Complete { request_id, .. }) if in_flight.contains(&request_id) => {
                format!("duplicate in-flight request id {request_id}")
            }
            Some(Frame::Complete { request_id, body }) => {
                let frame_start = write_buf.len();
                let body_start = wire::begin_v2(write_buf, request_id);
                let route = Route {
                    shared,
                    reactor: me,
                    token: *token,
                    request_id,
                };
                let dispatch = serve_frame(
                    &shared.server,
                    lane,
                    body,
                    write_buf,
                    &Responder::Reactor(route),
                );
                match dispatch {
                    Dispatch::Pending => {
                        write_buf.truncate(frame_start);
                        in_flight.insert(request_id);
                    }
                    Dispatch::Ready => wire::end_frame(write_buf, body_start),
                }
                continue;
            }
        };
        // The stream is unrecoverable past a violation: answer it on behalf
        // of the connection, close once that is sent.
        shared.stats.note_protocol_error();
        wire::encode_connection_error(write_buf, &violation);
        *close_after_flush = true;
    }
    frames.discard();
}

/// Writes as much queued output as the socket accepts, arming or
/// disarming `EPOLLOUT` interest as the backlog requires.
fn flush(ep: &Epoll, conn: &mut Conn) -> Action {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Action::Close,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Action::Close,
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        wire::clear_buffer(&mut conn.write_buf);
        conn.write_pos = 0;
        if conn.close_after_flush {
            return Action::Close;
        }
        if conn.want_write {
            conn.want_write = false;
            let _ = ep.modify(conn.fd, sys::EPOLLIN | sys::EPOLLRDHUP, conn.token);
        }
    } else {
        if !conn.want_write {
            conn.want_write = true;
            let _ = ep.modify(
                conn.fd,
                sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT,
                conn.token,
            );
        }
        if conn.write_pos >= WRITE_COMPACT_BYTES {
            conn.write_buf.drain(..conn.write_pos);
            conn.write_pos = 0;
        }
    }
    Action::Keep
}

/// Buffers one reactor reuses across completion drains.
#[derive(Default)]
struct CompletionDrain {
    batch: Vec<Completion>,
    /// Slots with output queued by the drain in progress.
    touched: Vec<u32>,
}

/// Applies queued completions to their connections' write queues, then
/// flushes each connection touched once, however many of its requests
/// completed together.
fn drain_completions(
    shared: &Arc<ReactorShared>,
    ep: &Epoll,
    me: usize,
    owned: &mut HashSet<u32>,
    drain: &mut CompletionDrain,
) {
    let CompletionDrain { batch, touched } = drain;
    std::mem::swap(&mut *shared.ios[me].completions.lock(), batch);
    for c in batch.drain(..) {
        if let (Some(reg), Some(t0)) = (shared.server.runtime.metrics_registry(), c.enqueued) {
            reg.record_completion_flush(t0.elapsed().as_nanos() as u64);
        }
        if !owned.contains(&c.slot) || shared.slab.generation(c.slot) != c.generation {
            continue; // connection closed while the request ran
        }
        // Safety: this thread owns the slot (checked above).
        unsafe {
            shared.slab.with(c.slot, |conn| {
                conn.in_flight.remove(&c.request_id);
                wire::encode_v2_into(&mut conn.write_buf, c.request_id, &c.body);
                if !std::mem::replace(&mut conn.flush_due, true) {
                    touched.push(c.slot);
                }
            })
        };
    }
    for slot in touched.drain(..) {
        // Safety: still this thread's slot — only the owner tears a slot
        // down, and nothing above did.
        let action = unsafe {
            shared.slab.with(slot, |conn| {
                conn.flush_due = false;
                flush(ep, conn)
            })
        };
        if action == Action::Close {
            teardown(shared, ep, owned, slot);
        }
    }
}

//! Client surface for the FrontEnd protocol.
//!
//! [`PredictRequest`] is the typed request builder: a [`Record`] (or batch
//! of records), a [`Target`] (plan id or alias), and the external-optimization
//! toggles as methods. [`Client`] serves it sequentially, one request in
//! flight, and [`Session`] pipelines it:
//! [`Session::submit`] returns immediately with a [`PendingPredict`], and
//! responses resolve **out of submission order** as the server completes
//! them, matched by request id.

use super::wire::{self, Frame, FrameReader};
use super::{FLAG_DELAYED_BATCH, FLAG_PLAN_ALIAS, FLAG_RESULT_CACHE};
use crate::lifecycle::{PlanInfo, UndeployReport};
use crate::runtime::PlanId;
use crate::scheduler::Record;
use crate::telemetry::MetricsSnapshot;
use parking_lot::{Condvar, Mutex};
use pretzel_data::serde_bin::Cursor;
use pretzel_data::{DataError, Result};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn io_err(e: std::io::Error) -> DataError {
    DataError::Runtime(format!("frontend io: {e}"))
}

/// The server answers one score per record: none means the request held
/// no record.
fn no_record() -> DataError {
    DataError::BadInput("a single-record wait on a request with no records".into())
}

fn closed() -> DataError {
    DataError::Runtime("frontend closed connection".into())
}

fn bad_frame(msg: &str) -> DataError {
    DataError::Codec(format!("frontend sent a bad frame: {msg}"))
}

/// The wire encoding of a record: its kind byte and its body.
impl Record {
    fn kind(&self) -> u8 {
        match self {
            Record::Text(_) => wire::KIND_TEXT,
            Record::Dense(_) => wire::KIND_DENSE,
            Record::Sparse { .. } => wire::KIND_SPARSE,
        }
    }

    fn encode_into(&self, req: &mut Vec<u8>) {
        match self {
            Record::Text(line) => {
                req.extend_from_slice(&(line.len() as u32).to_le_bytes());
                req.extend_from_slice(line.as_bytes());
            }
            Record::Dense(x) => {
                req.extend_from_slice(&(x.len() as u32).to_le_bytes());
                for v in x {
                    req.extend_from_slice(&v.to_le_bytes());
                }
            }
            Record::Sparse {
                indices,
                values,
                dim,
            } => {
                req.extend_from_slice(&dim.to_le_bytes());
                req.extend_from_slice(&(indices.len() as u32).to_le_bytes());
                for i in indices {
                    req.extend_from_slice(&i.to_le_bytes());
                }
                for v in values {
                    req.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
}

/// Which plan a request addresses.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A concrete plan id.
    Plan(PlanId),
    /// An alias: the server resolves its current binding per attempt and
    /// retries transparently across concurrent `swap`/`undeploy`.
    Alias(String),
}

/// A typed prediction request: record(s), target, and the external
/// optimizations as toggles.
///
/// ```no_run
/// # use pretzel_core::frontend::{Client, PredictRequest};
/// # let mut client: Client = unimplemented!();
/// let score = client.predict(
///     &PredictRequest::text("5,a nice product").plan(3).cached(),
/// )?;
/// let scores = client.predict_many(
///     &PredictRequest::dense_batch(vec![vec![0.5; 8], vec![0.25; 8]]).alias("ranker"),
/// )?;
/// # Ok::<(), pretzel_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    target: Option<Target>,
    records: Vec<Record>,
    cached: bool,
    delayed: bool,
}

impl PredictRequest {
    /// A request over explicit records (may mix batch sizes, not kinds).
    pub fn batch(records: Vec<Record>) -> PredictRequest {
        PredictRequest {
            target: None,
            records,
            cached: false,
            delayed: false,
        }
    }

    /// A single text record.
    pub fn text(line: impl Into<String>) -> PredictRequest {
        Self::batch(vec![Record::Text(line.into())])
    }

    /// A batch of text records.
    pub fn text_batch<S: Into<String>>(lines: impl IntoIterator<Item = S>) -> PredictRequest {
        Self::batch(lines.into_iter().map(|l| Record::Text(l.into())).collect())
    }

    /// A single dense record.
    pub fn dense(x: Vec<f32>) -> PredictRequest {
        Self::batch(vec![Record::Dense(x)])
    }

    /// A batch of dense records.
    pub fn dense_batch(rows: impl IntoIterator<Item = Vec<f32>>) -> PredictRequest {
        Self::batch(rows.into_iter().map(Record::Dense).collect())
    }

    /// A single sparse record.
    pub fn sparse(indices: Vec<u32>, values: Vec<f32>, dim: u32) -> PredictRequest {
        Self::batch(vec![Record::Sparse {
            indices,
            values,
            dim,
        }])
    }

    /// Addresses the request at a concrete plan id.
    pub fn plan(mut self, id: PlanId) -> PredictRequest {
        self.target = Some(Target::Plan(id));
        self
    }

    /// Addresses the request at an alias (resolved server-side per
    /// attempt, riding through concurrent swaps and undeploys).
    pub fn alias(mut self, alias: impl Into<String>) -> PredictRequest {
        self.target = Some(Target::Alias(alias.into()));
        self
    }

    /// Consults/populates the server's prediction-result cache
    /// (single-record requests only; ignored for batches server-side).
    pub fn cached(mut self) -> PredictRequest {
        self.cached = true;
        self
    }

    /// Submits through the server's delayed batcher (paper §4.3).
    pub fn delayed(mut self) -> PredictRequest {
        self.delayed = true;
        self
    }

    /// Appends the request body to `out` (shared by every transport).
    /// Nothing is written when the request is malformed.
    pub(super) fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        let target = self.target.as_ref().ok_or_else(|| {
            DataError::BadInput("predict request needs a target: .plan(id) or .alias(name)".into())
        })?;
        let kind = match self.records.first() {
            Some(first) => {
                let kind = first.kind();
                if self.records.iter().any(|p| p.kind() != kind) {
                    return Err(DataError::BadInput(
                        "predict request mixes record kinds; batches are homogeneous".into(),
                    ));
                }
                kind
            }
            // An empty batch still validates its target server-side; kind
            // is irrelevant without records.
            None => wire::KIND_TEXT,
        };
        let mut flags = 0u8;
        if self.cached {
            flags |= FLAG_RESULT_CACHE;
        }
        if self.delayed {
            flags |= FLAG_DELAYED_BATCH;
        }
        let (plan, alias) = match target {
            Target::Plan(id) => (*id, None),
            Target::Alias(a) => {
                flags |= FLAG_PLAN_ALIAS;
                (0, Some(a.as_str()))
            }
        };
        wire::put_request_header(out, plan, kind, flags, self.records.len());
        if let Some(alias) = alias {
            pretzel_data::serde_bin::wire::put_str(out, alias);
        }
        for p in &self.records {
            p.encode_into(out);
        }
        Ok(())
    }
}

/// A blocking, sequential client for the FrontEnd protocol (and for the
/// Clipper-style baseline front end, which speaks the same frames).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u32,
    /// The request frame being built or sent.
    out: Vec<u8>,
    frames: FrameReader,
}

impl Client {
    /// Connects. Every request carries a request id and the response
    /// echoes it; still sequential — use [`Session`] for pipelining.
    pub fn connect_v2(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            next_id: 0,
            out: Vec::new(),
            frames: FrameReader::default(),
        })
    }

    /// Scores a single-record request.
    pub fn predict(&mut self, request: &PredictRequest) -> Result<f32> {
        let scores = self.predict_many(request)?;
        scores.first().copied().ok_or_else(no_record)
    }

    /// Scores a request with any number of records.
    pub fn predict_many(&mut self, request: &PredictRequest) -> Result<Vec<f32>> {
        wire::decode_response(self.roundtrip_with(|out| request.encode_into(out))?)
    }

    /// One request, one response: frames the body `encode` appends into
    /// the client's write buffer, sends it with a single `write`, and
    /// returns the response body, borrowed from the read buffer.
    fn roundtrip_with(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<&[u8]> {
        wire::clear_buffer(&mut self.out);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let body_start = wire::begin_v2(&mut self.out, id);
        encode(&mut self.out)?;
        wire::end_frame(&mut self.out, body_start);
        self.stream.write_all(&self.out).map_err(io_err)?;
        match self.frames.read_next(&mut self.stream).map_err(io_err)? {
            Some(Frame::Complete { request_id, .. })
                if request_id != id && request_id != wire::CONNECTION_ERROR_ID =>
            {
                // Sequential client: exactly one request in flight, so the
                // echoed id must be the one just assigned.
                Err(DataError::Runtime(format!(
                    "response for request {request_id} arrived out of turn"
                )))
            }
            Some(Frame::Complete { body, .. }) => Ok(body),
            Some(Frame::Reject(msg)) => Err(bad_frame(&msg)),
            None => Err(closed()),
        }
    }

    /// One admin verb: the request header, then whatever `encode` appends
    /// (written straight into the frame buffer); `decode` reads the verb's
    /// payload where the response frame landed, without a copy.
    fn roundtrip_admin<T>(
        &mut self,
        plan: PlanId,
        kind: u8,
        encode: impl FnOnce(&mut Vec<u8>),
        decode: impl FnOnce(&mut Cursor<'_>) -> Result<T>,
    ) -> Result<T> {
        let body = self.roundtrip_with(|out| {
            wire::put_request_header(out, plan, kind, 0, 0);
            encode(out);
            Ok(())
        })?;
        if let Some((&wire::STATUS_ADMIN, payload)) = body.split_first() {
            return decode(&mut Cursor::new(payload));
        }
        wire::decode_response(body)?;
        Err(DataError::Codec(
            "an admin verb was answered with scores".into(),
        ))
    }

    /// Deploys a serialized model file on the server; optionally binds an
    /// alias and reserves a dedicated executor. Returns the new plan id.
    pub fn deploy(&mut self, image: &[u8], alias: Option<&str>, reserved: bool) -> Result<PlanId> {
        use pretzel_data::serde_bin::wire as w;
        self.roundtrip_admin(
            0,
            wire::ADMIN_DEPLOY,
            |out| {
                w::put_str(out, alias.unwrap_or(""));
                w::put_u32(out, u32::from(reserved));
                w::put_u64(out, image.len() as u64);
                out.extend_from_slice(image);
            },
            |cur| cur.u32(),
        )
    }

    /// Undeploys a plan on the server (retire, drain, reclaim); returns
    /// what was freed.
    pub fn undeploy(&mut self, plan: PlanId) -> Result<UndeployReport> {
        self.roundtrip_admin(
            plan,
            wire::ADMIN_UNDEPLOY,
            |_| {},
            |cur| {
                Ok(UndeployReport {
                    freed_param_bytes: cur.u64()? as usize,
                    freed_params: cur.u32()? as usize,
                    dropped_stages: cur.u32()? as usize,
                    dropped_aliases: cur.u32()? as usize,
                })
            },
        )
    }

    /// Atomically repoints `alias` to `plan` on the server; returns the
    /// previously bound plan, if any.
    pub fn swap(&mut self, alias: &str, plan: PlanId) -> Result<Option<PlanId>> {
        use pretzel_data::serde_bin::wire as w;
        let previous = self.roundtrip_admin(
            plan,
            wire::ADMIN_SWAP,
            |out| w::put_str(out, alias),
            |cur| cur.u32(),
        )?;
        Ok((previous != u32::MAX).then_some(previous))
    }

    /// Rolls `alias` back to its previous live version on the server;
    /// returns the plan now bound, or `None` if there was no predecessor
    /// to roll back to (the binding is left unchanged).
    pub fn rollback(&mut self, alias: &str) -> Result<Option<PlanId>> {
        use pretzel_data::serde_bin::wire as w;
        let bound = self.roundtrip_admin(
            0,
            wire::ADMIN_ROLLBACK,
            |out| w::put_str(out, alias),
            |cur| cur.u32(),
        )?;
        Ok((bound != u32::MAX).then_some(bound))
    }

    /// Lists every plan the server knows (tombstones included) with
    /// lifecycle state and bound aliases.
    pub fn list(&mut self) -> Result<Vec<PlanInfo>> {
        self.roundtrip_admin(0, wire::ADMIN_LIST, |_| {}, decode_plan_list)
    }

    /// `STATS`: one merged telemetry snapshot of the serving runtime —
    /// per-plan latency histograms, pool/lifecycle/store counters, and
    /// the FrontEnd's connection-plane section. Render it with
    /// [`MetricsSnapshot::to_json`].
    pub fn stats(&mut self) -> Result<MetricsSnapshot> {
        self.roundtrip_admin(0, wire::ADMIN_STATS, |_| {}, MetricsSnapshot::decode)
    }
}

/// The `LIST` payload: every plan's id, lifecycle state and aliases.
fn decode_plan_list(cur: &mut Cursor<'_>) -> Result<Vec<PlanInfo>> {
    let n = cur.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = cur.u32()?;
        let retired = cur.u32()? != 0;
        let quarantined = cur.u32()? != 0;
        let in_flight = cur.u32()? as usize;
        let n_aliases = cur.u32()? as usize;
        let mut aliases = Vec::with_capacity(n_aliases.min(64));
        for _ in 0..n_aliases {
            aliases.push(cur.str()?);
        }
        out.push(PlanInfo {
            id,
            retired,
            quarantined,
            in_flight,
            aliases,
        });
    }
    Ok(out)
}

/// Requests queued on a [`Session`] leave in one `write` once this many are
/// waiting (or [`FLUSH_BYTES`], or a waiter is about to block — see
/// [`Session`]). Swept over {4, 8, 16} on `sa_single`: see CHANGES.md, PR 19.
const FLUSH_REQUESTS: usize = 8;
/// ... or once this many bytes are queued. A 256-row batch frame is larger,
/// so batch traffic leaves per request.
const FLUSH_BYTES: usize = 16 * 1024;

struct WriteHalf {
    stream: TcpStream,
    next_id: u32,
    /// Encoded request frames not yet written to the socket.
    buf: Vec<u8>,
    /// How many requests `buf` holds.
    queued: usize,
}

impl WriteHalf {
    fn flush(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.buf);
        // Sent or lost, the bytes are spent: a failed write kills the
        // session, it is never retried.
        wire::clear_buffer(&mut self.buf);
        self.queued = 0;
        sent
    }
}

struct ReadHalf {
    stream: TcpStream,
    frames: FrameReader,
    /// Responses decoded by the reader turn in progress, moved under the
    /// state lock in one go when it ends.
    turn: Vec<(u32, Result<Vec<f32>>)>,
}

/// A response slot, keyed by request id.
enum Filed {
    /// Decoded, not yet claimed by its waiter.
    Response(Result<Vec<f32>>),
    /// The handle was dropped before the response arrived: discard it.
    Abandoned,
}

struct SessionState {
    filed: HashMap<u32, Filed>,
    /// Whether some waiter currently holds the read side.
    reading: bool,
    /// Set once the socket dies; every current and future wait fails
    /// with this error.
    dead: Option<DataError>,
}

struct SessionInner {
    writer: Mutex<WriteHalf>,
    reader: Mutex<ReadHalf>,
    state: Mutex<SessionState>,
    cv: Condvar,
}

impl SessionInner {
    /// Marks the session dead (first cause wins) and wakes every waiter.
    fn kill(&self, why: DataError) {
        self.state.lock().dead.get_or_insert(why);
        self.cv.notify_all();
    }

    /// Writes out whatever is queued; a failure kills the session.
    fn flush(&self) -> Result<()> {
        let flushed = self.writer.lock().flush();
        flushed.map_err(|e| {
            let e = io_err(e);
            self.kill(e.clone());
            e
        })
    }

    /// One reader turn: files every complete frame already buffered; with
    /// none buffered, flushes (the responses awaited may be to requests
    /// still queued here) and blocks in one `read` first.
    fn read_turn(&self) {
        let mut rd = self.reader.lock();
        let rd = &mut *rd;
        let dead = loop {
            match rd.frames.next_frame() {
                Some(Frame::Complete {
                    request_id: wire::CONNECTION_ERROR_ID,
                    body,
                }) => {
                    // A framing violation: the server closes after this.
                    break Some(match wire::decode_response(body) {
                        Err(e) => e,
                        Ok(_) => DataError::Runtime("frontend closed the connection".into()),
                    });
                }
                Some(Frame::Complete { request_id, body }) => {
                    rd.turn.push((request_id, wire::decode_response(body)));
                }
                Some(Frame::Reject(msg)) => break Some(bad_frame(&msg)),
                None if !rd.turn.is_empty() => break None,
                None => {
                    if let Err(e) = self.flush() {
                        break Some(e);
                    }
                    match rd.frames.fill(&mut rd.stream) {
                        Ok(filled) if filled.bytes == 0 => break Some(closed()),
                        Ok(_) => {}
                        Err(e) => break Some(io_err(e)),
                    }
                }
            }
        };
        let mut st = self.state.lock();
        for (id, response) in rd.turn.drain(..) {
            match st.filed.entry(id) {
                Entry::Occupied(slot) => {
                    // Only `Abandoned` can be waiting here: the server
                    // answers an id once.
                    slot.remove();
                }
                Entry::Vacant(slot) => {
                    slot.insert(Filed::Response(response));
                }
            }
        }
        st.reading = false;
        if let Some(why) = dead {
            st.dead.get_or_insert(why);
        }
        drop(st);
        self.cv.notify_all();
    }
}

impl Drop for SessionInner {
    fn drop(&mut self) {
        // Last handle gone: what was submitted still reaches the server.
        let _ = self.writer.get_mut().flush();
    }
}

/// A pipelined connection: submit many requests without waiting,
/// resolve each [`PendingPredict`] in any order.
///
/// Waiting is cooperative: whichever waiter needs a response next takes
/// the read side, files every response one `read` brought in by request
/// id, and wakes the others — no dedicated reader thread.
///
/// **When bytes leave.** `submit` encodes into a session-owned buffer; the
/// buffer is written to the socket, in one `write`,
///
/// * when 8 requests or 16 KiB are queued,
/// * before any waiter blocks — on the socket, or behind another thread
///   that is reading,
/// * on [`Session::flush`], and
/// * when the last handle on the session (the `Session` and every
///   `PendingPredict`) is dropped.
///
/// So a submitted request is never held back by a caller that waits,
/// flushes or goes away; it is held back, by at most seven later submits,
/// only while its caller keeps submitting without doing any of those.
///
/// ```no_run
/// # use pretzel_core::frontend::{PredictRequest, Session};
/// # let session: Session = unimplemented!();
/// let a = session.submit(&PredictRequest::text("1,slow").plan(3).delayed())?;
/// let b = session.submit(&PredictRequest::text("5,fast").plan(3))?;
/// let fast = b.wait_one()?; // resolves before `a`'s flush
/// let slow = a.wait_one()?;
/// # Ok::<(), pretzel_data::DataError>(())
/// ```
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish()
    }
}

impl Session {
    /// Connects a pipelined session.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(Session {
            inner: Arc::new(SessionInner {
                writer: Mutex::new(WriteHalf {
                    stream,
                    next_id: 0,
                    buf: Vec::new(),
                    queued: 0,
                }),
                reader: Mutex::new(ReadHalf {
                    stream: reader,
                    frames: FrameReader::default(),
                    turn: Vec::new(),
                }),
                state: Mutex::new(SessionState {
                    filed: HashMap::new(),
                    reading: false,
                    dead: None,
                }),
                cv: Condvar::new(),
            }),
        })
    }

    /// Queues the request without waiting; the returned handle resolves
    /// it. See the type's docs for when queued requests are written.
    pub fn submit(&self, request: &PredictRequest) -> Result<PendingPredict> {
        let mut w = self.inner.writer.lock();
        let id = w.next_id;
        let frame_start = w.buf.len();
        let body_start = wire::begin_v2(&mut w.buf, id);
        if let Err(e) = request.encode_into(&mut w.buf) {
            w.buf.truncate(frame_start);
            return Err(e);
        }
        wire::end_frame(&mut w.buf, body_start);
        // Ids skip the one that marks connection-level errors.
        w.next_id = match id.wrapping_add(1) {
            wire::CONNECTION_ERROR_ID => 0,
            next => next,
        };
        w.queued += 1;
        let group_full = w.queued >= FLUSH_REQUESTS || w.buf.len() >= FLUSH_BYTES;
        drop(w);
        if group_full {
            self.inner.flush()?;
        }
        Ok(PendingPredict {
            inner: Arc::clone(&self.inner),
            id,
            claimed: false,
        })
    }

    /// Writes every queued request to the socket now.
    pub fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    /// Response slots currently filed (decoded or abandoned).
    #[cfg(test)]
    pub(super) fn filed(&self) -> usize {
        self.inner.state.lock().filed.len()
    }

    /// Queues bytes as they are, frame or not, behind what is queued.
    #[cfg(test)]
    pub(super) fn queue_raw(&self, bytes: &[u8]) {
        self.inner.writer.lock().buf.extend_from_slice(bytes);
    }

    /// Whether some waiter currently holds the read side.
    #[cfg(test)]
    pub(super) fn reading(&self) -> bool {
        self.inner.state.lock().reading
    }
}

/// One in-flight pipelined request; resolves independently of submission
/// order. Dropping it unwaited discards its response when that arrives.
pub struct PendingPredict {
    inner: Arc<SessionInner>,
    id: u32,
    /// `wait` took the response; nothing is left for `drop` to retire.
    claimed: bool,
}

impl std::fmt::Debug for PendingPredict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingPredict")
            .field("id", &self.id)
            .finish()
    }
}

impl PendingPredict {
    /// The request id this handle resolves.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Blocks until this request's response arrives (other waiters'
    /// responses are filed for them along the way).
    pub fn wait(mut self) -> Result<Vec<f32>> {
        self.claimed = true;
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        loop {
            if let Some(Filed::Response(result)) = st.filed.remove(&self.id) {
                return result;
            }
            if let Some(e) = &st.dead {
                return Err(e.clone());
            }
            if st.reading {
                // About to park behind the reader: this request may still
                // sit in the write buffer, and the reader cannot know.
                drop(st);
                inner.flush()?;
                st = inner.state.lock();
                if st.reading && st.dead.is_none() && !st.filed.contains_key(&self.id) {
                    inner.cv.wait(&mut st);
                }
            } else {
                st.reading = true;
                drop(st);
                inner.read_turn();
                st = inner.state.lock();
            }
        }
    }

    /// Like [`Self::wait`], for single-record requests.
    pub fn wait_one(self) -> Result<f32> {
        let scores = self.wait()?;
        scores.first().copied().ok_or_else(no_record)
    }
}

impl Drop for PendingPredict {
    fn drop(&mut self) {
        if self.claimed {
            return;
        }
        // Retire the id: discard the response if it is already filed,
        // otherwise leave word for the reader to discard it on arrival. On
        // a dead session nothing more arrives and the map no longer matters.
        let mut st = self.inner.state.lock();
        if st.filed.remove(&self.id).is_none() && st.dead.is_none() {
            st.filed.insert(self.id, Filed::Abandoned);
        }
    }
}

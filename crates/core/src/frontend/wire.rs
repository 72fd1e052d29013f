//! Frame codec for the FrontEnd protocol: wire v2, a fixed header that
//! carries a per-request `request_id`, so one connection can pipeline many
//! predicts and receive responses out of order.
//!
//! ```text
//! frame := magic[4] · u8 version · u8 flags · u16 reserved ·
//!          u32 request_id · u32 body_len · body
//! ```
//!
//! Every frame opens with [`WIRE_MAGIC`] (`50 5A 57 B2`, "PZW·"): a stream
//! whose first four bytes are anything else is rejected as soon as they are
//! buffered. A response echoes the `request_id` of the request it answers;
//! an error that concerns the connection rather than one request (a
//! framing violation) carries [`CONNECTION_ERROR_ID`].

use pretzel_data::{DataError, Result};
use std::io::Read;

/// Record kind tag on the wire.
pub(crate) const KIND_TEXT: u8 = 0;
/// Dense record kind tag.
pub(crate) const KIND_DENSE: u8 = 1;
/// Sparse (CSR triple) record kind tag.
pub(crate) const KIND_SPARSE: u8 = 2;
/// Admin verb: deploy a serialized model file.
pub(crate) const ADMIN_DEPLOY: u8 = 0x10;
/// Admin verb: undeploy (retire + drain + reclaim) a plan.
pub(crate) const ADMIN_UNDEPLOY: u8 = 0x11;
/// Admin verb: atomically repoint an alias to a plan.
pub(crate) const ADMIN_SWAP: u8 = 0x12;
/// Admin verb: list deployed plans and aliases.
pub(crate) const ADMIN_LIST: u8 = 0x13;
/// Admin verb: snapshot runtime telemetry (the `STATS` verb).
pub(crate) const ADMIN_STATS: u8 = 0x14;
/// Admin verb: roll an alias back one version in its history.
pub(crate) const ADMIN_ROLLBACK: u8 = 0x15;

/// Request flag: consult/populate the prediction-result cache.
pub const FLAG_RESULT_CACHE: u8 = 0b01;
/// Request flag: submit through the delayed batcher.
pub const FLAG_DELAYED_BATCH: u8 = 0b10;
/// Request flag: the body starts with an alias string; the header's
/// `plan_id` is ignored and the alias's current binding serves the
/// request (retrying across concurrent swaps/undeploys).
pub const FLAG_PLAN_ALIAS: u8 = 0b100;

/// Upper bound on one frame body. A length prefix above this is rejected
/// with a clean protocol error *before* any allocation happens — a garbage
/// or hostile prefix must never turn into a multi-gigabyte `vec![0; len]`.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// The four bytes every frame opens with.
pub const WIRE_MAGIC: [u8; 4] = [0x50, 0x5A, 0x57, 0xB2];
/// Protocol version carried in byte 4 of the header.
pub const WIRE_V2: u8 = 2;
/// Fixed header size: magic(4) + version(1) + flags(1) + reserved(2) +
/// request_id(4) + body_len(4).
pub const V2_HEADER_BYTES: usize = 16;
/// The `request_id` of a reply that answers no one request: a framing
/// violation, after which the server closes the connection.
pub const CONNECTION_ERROR_ID: u32 = u32::MAX;

/// How far a buffer grows by doubling while reads keep filling it; only a
/// single frame longer than this grows one further.
const IO_CHUNK: usize = 64 * 1024;

/// A drained buffer holding more than this shrinks back to [`IO_CHUNK`]:
/// one large frame does not pin its size for the life of the connection.
const RETAIN_BYTES: usize = 1 << 20;

/// Read-buffer size a connection starts with (an idle connection that never
/// sent a byte holds none at all).
const MIN_READ: usize = 4 * 1024;

/// What a [`FrameReader`] hands out from the head of its buffer.
#[derive(Debug)]
pub(crate) enum Frame<'a> {
    /// One complete frame, consumed from the buffer; `body` stays valid
    /// until the reader is next touched.
    Complete { request_id: u32, body: &'a [u8] },
    /// Unrecoverable framing violation (see [`Parse::Reject`]).
    Reject(String),
}

/// Outcome of one [`FrameReader::fill`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Filled {
    /// Bytes read; 0 is end of stream.
    pub bytes: usize,
    /// The read filled all the space it was offered, so the socket may
    /// hold more. A short read means the socket is drained: a
    /// level-triggered poller can go back to waiting without a second
    /// `read` that only fetches `EAGAIN`.
    pub more: bool,
}

/// The one buffered frame codec every connection end reads through: one
/// growable buffer, one `read` per refill, frames parsed in place with
/// [`parse_frame`].
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    /// `buf.len()` is the space in use; `buf[pos..end]` holds unparsed bytes.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl FrameReader {
    /// Drops every buffered byte (the stream cannot be resynchronized).
    pub(crate) fn discard(&mut self) {
        self.pos = self.end;
    }

    /// Parses the next complete frame already buffered and consumes it;
    /// `None` when a whole frame is not buffered yet.
    pub(crate) fn next_frame(&mut self) -> Option<Frame<'_>> {
        self.rewind_if_drained();
        Some(match parse_frame(&self.buf[self.pos..self.end]) {
            Parse::NeedMore => return None,
            Parse::Reject(msg) => Frame::Reject(msg),
            Parse::Frame {
                request_id,
                body,
                consumed,
            } => {
                let at = self.pos;
                self.pos += consumed;
                Frame::Complete {
                    request_id,
                    body: &self.buf[at + body.start..at + body.end],
                }
            }
        })
    }

    /// With nothing left unparsed, starts the buffer over at its front and
    /// gives back what a large frame grew it to past [`RETAIN_BYTES`].
    fn rewind_if_drained(&mut self) {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
            if self.buf.len() > RETAIN_BYTES {
                self.buf.truncate(IO_CHUNK);
                self.buf.shrink_to_fit();
            }
        }
    }

    /// Bytes the buffer holds on to, used or not.
    #[cfg(test)]
    fn retained(&self) -> usize {
        self.buf.capacity()
    }

    /// Issues one `read` into the buffer's free space, first making room:
    /// an empty buffer rewinds, a partial frame moves to the front when the
    /// tail is short, and a frame announced longer than the buffer grows it
    /// to fit — never past what [`parse_frame`] accepts. Call it only when
    /// [`Self::next_frame`] has nothing complete left to hand out.
    pub(crate) fn fill(&mut self, stream: &mut impl Read) -> std::io::Result<Filled> {
        self.rewind_if_drained();
        let want = announced_len(&self.buf[self.pos..self.end])
            .map_or(MIN_READ, |total| {
                total.min(MAX_FRAME_BYTES + V2_HEADER_BYTES)
            })
            .max(self.buf.len());
        if self.buf.len() - self.end < MIN_READ.min(want) || want > self.buf.len() {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if want > self.buf.len() {
                self.buf.resize(want, 0);
            }
        }
        let offered = self.buf.len() - self.end;
        let bytes = stream.read(&mut self.buf[self.end..])?;
        self.end += bytes;
        let more = bytes == offered;
        if more && self.buf.len() < IO_CHUNK {
            // Reads keep filling the buffer: offer twice as much next time.
            let doubled = (self.buf.len() * 2).min(IO_CHUNK);
            self.buf.resize(doubled, 0);
        }
        Ok(Filled { bytes, more })
    }

    /// Blocks until one whole frame is buffered, then consumes it. `None`
    /// is a clean end of stream at a frame boundary; end of stream inside a
    /// frame is an [`std::io::ErrorKind::UnexpectedEof`] error.
    pub(crate) fn read_next(
        &mut self,
        stream: &mut impl Read,
    ) -> std::io::Result<Option<Frame<'_>>> {
        while matches!(parse_frame(&self.buf[self.pos..self.end]), Parse::NeedMore) {
            match self.fill(stream) {
                Ok(Filled { bytes: 0, .. }) if self.pos == self.end => return Ok(None),
                Ok(Filled { bytes: 0, .. }) => {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.next_frame())
    }
}

/// Total size (header + body) the frame at the head of `buf` announces, once
/// its header is buffered. Sizing only — [`parse_frame`] validates.
fn announced_len(buf: &[u8]) -> Option<usize> {
    let len = buf.get(12..V2_HEADER_BYTES)?;
    Some(V2_HEADER_BYTES + u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize)
}

/// Clears an outbound buffer, giving back what a large frame grew it to
/// past [`RETAIN_BYTES`].
pub(crate) fn clear_buffer(out: &mut Vec<u8>) {
    out.clear();
    if out.capacity() > RETAIN_BYTES {
        out.shrink_to(IO_CHUNK);
    }
}

/// Opens a frame at the end of `out` with the body length left blank; the
/// body is then encoded in place behind it and [`end_frame`] closes it.
/// Returns the offset the body starts at.
pub(crate) fn begin_v2(out: &mut Vec<u8>, request_id: u32) -> usize {
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&[WIRE_V2, 0, 0, 0]); // version, flags, reserved
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.len()
}

/// Closes the frame whose body started at `body_start`: the body length is
/// the header's last four bytes.
pub(crate) fn end_frame(out: &mut [u8], body_start: usize) {
    let len = (out.len() - body_start) as u32;
    out[body_start - 4..body_start].copy_from_slice(&len.to_le_bytes());
}

/// Appends one encoded frame to `out` (the reactor's write queue).
pub(crate) fn encode_v2_into(out: &mut Vec<u8>, request_id: u32, body: &[u8]) {
    let body_start = begin_v2(out, request_id);
    out.extend_from_slice(body);
    end_frame(out, body_start);
}

/// Appends the error reply to a framing violation, tagged
/// [`CONNECTION_ERROR_ID`]; the connection closes once it is sent.
pub(crate) fn encode_connection_error(out: &mut Vec<u8>, msg: &str) {
    let body_start = begin_v2(out, CONNECTION_ERROR_ID);
    put_err(out, &DataError::Codec(msg.into()));
    end_frame(out, body_start);
}

/// Outcome of scanning a connection's read buffer for the next frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Parse {
    /// Not enough buffered bytes yet.
    NeedMore,
    /// One complete frame: its request id, the body's byte range within
    /// the scanned slice, and how many bytes the frame consumed.
    Frame {
        request_id: u32,
        body: std::ops::Range<usize>,
        consumed: usize,
    },
    /// Unrecoverable framing violation (bad magic, unknown version,
    /// oversized body): the stream cannot be resynchronized — reply and
    /// close.
    Reject(String),
}

/// Incremental, allocation-free frame scan for the reactor's per-connection
/// read buffers. Never blocks: returns [`Parse::NeedMore`] until a whole
/// frame is buffered.
pub(crate) fn parse_frame(buf: &[u8]) -> Parse {
    if buf.len() < 4 {
        return Parse::NeedMore;
    }
    if buf[..4] != WIRE_MAGIC {
        return Parse::Reject(format!("bad frame magic {:02x?}", &buf[..4]));
    }
    if buf.len() < V2_HEADER_BYTES {
        return Parse::NeedMore;
    }
    let version = buf[4];
    if version != WIRE_V2 {
        return Parse::Reject(format!("unsupported wire version {version}"));
    }
    let request_id = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let len = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Parse::Reject(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"
        ));
    }
    if buf.len() < V2_HEADER_BYTES + len {
        return Parse::NeedMore;
    }
    Parse::Frame {
        request_id,
        body: V2_HEADER_BYTES..V2_HEADER_BYTES + len,
        consumed: V2_HEADER_BYTES + len,
    }
}

// ---- Request/response body codecs (shared by clients and the server) ----

/// Appends a request header: plan id plus packed kind/flags/record count.
pub(crate) fn put_request_header(out: &mut Vec<u8>, plan: u32, kind: u8, flags: u8, n: usize) {
    out.extend_from_slice(&plan.to_le_bytes());
    let kind_flags = u32::from(kind) | (u32::from(flags) << 8) | ((n as u32) << 16);
    out.extend_from_slice(&kind_flags.to_le_bytes());
}

/// Status byte of a success response: the scores follow.
const STATUS_OK: u8 = 0;
/// Status byte of an error response: the [`DataError`] follows, in its own
/// encoding ([`DataError::encode`]), whatever its variant.
const STATUS_ERR: u8 = 1;
/// Status byte that opens an admin response body; the verb-specific
/// payload follows it.
pub(crate) const STATUS_ADMIN: u8 = 2;

/// Appends a success response body (status 0 + scores).
pub(crate) fn put_ok(out: &mut Vec<u8>, scores: &[f32]) {
    out.push(STATUS_OK);
    out.extend_from_slice(&(scores.len() as u32).to_le_bytes());
    for &s in scores {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

/// Appends an error response body (status 1 + the error).
pub(crate) fn put_err(out: &mut Vec<u8>, e: &DataError) {
    out.push(STATUS_ERR);
    e.encode(out);
}

/// A response body as an owned buffer: completions cross threads, and a
/// model container answers over a hop of its own.
pub fn encode_response(result: &Result<Vec<f32>>) -> Vec<u8> {
    let mut body = Vec::new();
    match result {
        Ok(scores) => {
            body.reserve_exact(5 + scores.len() * 4);
            put_ok(&mut body, scores);
        }
        Err(e) => put_err(&mut body, e),
    }
    body
}

/// Decodes a response body into its scores, or into the error the server
/// sent, as the variant it was.
pub(crate) fn decode_response(body: &[u8]) -> Result<Vec<f32>> {
    let mut cur = pretzel_data::serde_bin::Cursor::new(body);
    match cur.u8()? {
        STATUS_OK => cur.f32s(),
        STATUS_ERR => Err(DataError::decode(&mut cur)?),
        s => Err(DataError::Codec(format!("bad response status {s}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_parse_v2_roundtrip() {
        let mut buf = Vec::new();
        encode_v2_into(&mut buf, 42, b"hello");
        encode_v2_into(&mut buf, 43, b"world!");
        // Every prefix short of the first full frame needs more bytes.
        for cut in 0..V2_HEADER_BYTES + 5 {
            assert_eq!(parse_frame(&buf[..cut]), Parse::NeedMore, "cut {cut}");
        }
        let Parse::Frame {
            request_id,
            body,
            consumed,
        } = parse_frame(&buf)
        else {
            panic!("expected a frame");
        };
        assert_eq!(request_id, 42);
        assert_eq!(&buf[body], b"hello");
        let Parse::Frame {
            request_id, body, ..
        } = parse_frame(&buf[consumed..])
        else {
            panic!("expected second frame");
        };
        assert_eq!(request_id, 43);
        assert_eq!(&buf[consumed..][body], b"world!");
    }

    #[test]
    fn hostile_prefixes_reject_without_allocation() {
        // A head that is not the magic: rejected once four bytes are in,
        // whatever they would have announced as a length.
        for head in [u32::MAX, 8, 0] {
            let head = head.to_le_bytes();
            assert_eq!(parse_frame(&head[..3]), Parse::NeedMore);
            match parse_frame(&head) {
                Parse::Reject(msg) => assert!(msg.contains("magic"), "{msg}"),
                other => panic!("expected reject, got {other:?}"),
            }
        }
        // Oversized body lengths.
        for len in [u32::MAX, (64 << 20) + 1, 0x8000_0000] {
            let mut v2 = WIRE_MAGIC.to_vec();
            v2.extend_from_slice(&[WIRE_V2, 0, 0, 0]);
            v2.extend_from_slice(&7u32.to_le_bytes());
            v2.extend_from_slice(&len.to_le_bytes());
            match parse_frame(&v2) {
                Parse::Reject(msg) => assert!(msg.contains("exceeds"), "{msg}"),
                other => panic!("expected reject, got {other:?}"),
            }
        }
        // Unknown version byte.
        let mut bad = WIRE_MAGIC.to_vec();
        bad.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        match parse_frame(&bad) {
            Parse::Reject(msg) => assert!(msg.contains("version 9"), "{msg}"),
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn frame_reader_matches_incremental_parser() {
        let mut wire = Vec::new();
        encode_v2_into(&mut wire, 6, b"one");
        encode_v2_into(&mut wire, 7, b"two");
        // A body longer than the reader's first buffer forces the grow path.
        let big = vec![0xABu8; 3 * MIN_READ + 17];
        encode_v2_into(&mut wire, 8, &big);
        let mut cursor = std::io::Cursor::new(wire);
        let mut frames = FrameReader::default();
        for (id, want) in [(6, &b"one"[..]), (7, b"two"), (8, &big)] {
            match frames.read_next(&mut cursor).unwrap() {
                Some(Frame::Complete { request_id, body }) => {
                    assert_eq!((request_id, body), (id, want));
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(frames.read_next(&mut cursor).unwrap().is_none());
    }

    /// Hands out at most `step` bytes per `read`, like a socket delivering
    /// a stream in arbitrary pieces.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_is_indifferent_to_how_the_stream_is_cut() {
        let mut wire = Vec::new();
        let bodies: Vec<Vec<u8>> = (0..40usize)
            .map(|i| vec![i as u8; (i * 397) % 9000])
            .collect();
        for (i, body) in bodies.iter().enumerate() {
            encode_v2_into(&mut wire, i as u32, body);
        }
        for step in [1, 3, 15, 16, 17, 4095, 4096, 4097, 70_000] {
            let mut stream = Trickle { data: &wire, step };
            let mut frames = FrameReader::default();
            for (i, want) in bodies.iter().enumerate() {
                match frames.read_next(&mut stream).unwrap() {
                    Some(Frame::Complete { request_id, body }) => {
                        assert_eq!(request_id, i as u32, "step {step}");
                        assert_eq!(body, &want[..], "step {step} frame {i}");
                    }
                    other => panic!("step {step} frame {i}: {other:?}"),
                }
            }
            assert!(frames.read_next(&mut stream).unwrap().is_none());
        }
    }

    #[test]
    fn a_large_frame_is_not_retained_once_read() {
        let mut wire = Vec::new();
        let big = vec![0x5Au8; 8 << 20];
        encode_v2_into(&mut wire, 1, &big);
        encode_v2_into(&mut wire, 2, b"small");
        let mut cursor = std::io::Cursor::new(wire);
        let mut frames = FrameReader::default();
        match frames.read_next(&mut cursor).unwrap() {
            Some(Frame::Complete {
                request_id: 1,
                body,
            }) => assert_eq!(body.len(), big.len()),
            other => panic!("{other:?}"),
        }
        assert!(
            frames.retained() > RETAIN_BYTES,
            "the big frame was buffered whole"
        );
        match frames.read_next(&mut cursor).unwrap() {
            Some(Frame::Complete {
                request_id: 2,
                body,
            }) => assert_eq!(body, b"small"),
            other => panic!("{other:?}"),
        }
        assert!(
            frames.retained() <= RETAIN_BYTES,
            "still holding {} bytes",
            frames.retained()
        );

        let mut out = Vec::with_capacity(8 << 20);
        clear_buffer(&mut out);
        assert!(out.capacity() <= RETAIN_BYTES);
    }

    #[test]
    fn end_of_stream_inside_a_frame_is_an_error() {
        let mut wire = Vec::new();
        encode_v2_into(&mut wire, 1, b"whole");
        wire.truncate(wire.len() - 2);
        let mut cursor = std::io::Cursor::new(wire);
        let err = FrameReader::default().read_next(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}

//! Frame codecs for the FrontEnd protocol: v1 (length-prefixed, one
//! request in flight) and v2 (versioned header carrying a per-request
//! `request_id`, so one connection can pipeline many predicts and receive
//! responses out of order).
//!
//! ```text
//! v1 frame := u32 body_len · body
//! v2 frame := magic[4] · u8 version · u8 flags · u16 reserved ·
//!             u32 request_id · u32 body_len · body
//! ```
//!
//! The two are self-describing on one socket: the v2 magic
//! `50 5A 57 B2` ("PZW·"), read as a little-endian u32, is `0xB2575A50` —
//! far above [`MAX_FRAME_BYTES`] — so no valid v1 length prefix can ever
//! alias it, and the parser needs no out-of-band negotiation. Responses
//! use the frame format of the request they answer; v2 responses echo the
//! request's `request_id`.

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

/// v2 frame magic. Its little-endian u32 value (`0xB2575A50`) exceeds
/// [`MAX_FRAME_BYTES`], so a v1 parser sees it as an oversized prefix and
/// a version-aware parser can branch on the first four bytes alone.
pub const WIRE_MAGIC: [u8; 4] = [0x50, 0x5A, 0x57, 0xB2];
/// Current protocol version carried in byte 4 of a v2 header.
pub const WIRE_V2: u8 = 2;
/// Fixed v2 header size: magic(4) + version(1) + flags(1) + reserved(2) +
/// request_id(4) + body_len(4).
pub const V2_HEADER_BYTES: usize = 16;

/// How far a read buffer grows by doubling while reads keep filling it;
/// only a single frame longer than this grows one further.
const IO_CHUNK: usize = 64 * 1024;

/// Read-buffer size a connection starts with (an idle connection that never
/// sent a byte holds none at all).
const MIN_READ: usize = 4 * 1024;

/// What a [`FrameReader`] hands out from the head of its buffer.
#[derive(Debug)]
pub(crate) enum Frame<'a> {
    /// One complete frame, consumed from the buffer; `body` stays valid
    /// until the reader is next touched. v1 frames carry no id
    /// (`request_id` 0).
    Complete {
        version: u8,
        request_id: u32,
        body: &'a [u8],
    },
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
        Some(match parse_frame(&self.buf[self.pos..self.end]) {
            Parse::NeedMore => return None,
            Parse::Reject(msg) => Frame::Reject(msg),
            Parse::Frame {
                version,
                request_id,
                body,
                consumed,
            } => {
                let at = self.pos;
                self.pos += consumed;
                Frame::Complete {
                    version,
                    request_id,
                    body: &self.buf[at + body.start..at + body.end],
                }
            }
        })
    }

    /// Issues one `read` into the buffer's free space, first making room:
    /// an empty buffer rewinds, a partial frame moves to the front when the
    /// tail is short, and a frame announced longer than the buffer grows it
    /// to fit — never past what [`parse_frame`] accepts. Call it only when
    /// [`Self::next_frame`] has nothing complete left to hand out.
    pub(crate) fn fill(&mut self, stream: &mut impl Read) -> std::io::Result<Filled> {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
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
/// its length prefix is buffered. Sizing only — [`parse_frame`] validates.
fn announced_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    if buf[..4] == WIRE_MAGIC {
        let len = buf.get(12..V2_HEADER_BYTES)?;
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
        return Some(V2_HEADER_BYTES + len);
    }
    Some(4 + u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize)
}

/// Opens a v2 frame at the end of `out` with the body length left blank;
/// the body is then encoded in place behind it and [`end_frame`] closes it.
/// Returns the offset the body starts at.
pub(crate) fn begin_v2(out: &mut Vec<u8>, request_id: u32) -> usize {
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&[WIRE_V2, 0, 0, 0]); // version, flags, reserved
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.len()
}

/// Opens a v1 frame at the end of `out`; see [`begin_v2`].
pub(crate) fn begin_v1(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0; 4]);
    out.len()
}

/// Closes the frame whose body started at `body_start`: both versions keep
/// the body length in the last four header bytes.
pub(crate) fn end_frame(out: &mut [u8], body_start: usize) {
    let len = (out.len() - body_start) as u32;
    out[body_start - 4..body_start].copy_from_slice(&len.to_le_bytes());
}

/// Appends one encoded v2 frame to `out` (the reactor's write queue).
pub(crate) fn encode_v2_into(out: &mut Vec<u8>, request_id: u32, body: &[u8]) {
    let body_start = begin_v2(out, request_id);
    out.extend_from_slice(body);
    end_frame(out, body_start);
}

/// Appends one encoded v1 frame to `out`.
pub(crate) fn encode_v1_into(out: &mut Vec<u8>, body: &[u8]) {
    let body_start = begin_v1(out);
    out.extend_from_slice(body);
    end_frame(out, body_start);
}

/// Outcome of scanning a connection's read buffer for the next frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Parse {
    /// Not enough buffered bytes yet.
    NeedMore,
    /// One complete frame: protocol version (1 or 2), the request id
    /// (0 for v1 frames, which carry none), the body's byte range within
    /// the scanned slice, and how many bytes the frame consumed.
    Frame {
        version: u8,
        request_id: u32,
        body: std::ops::Range<usize>,
        consumed: usize,
    },
    /// Unrecoverable framing violation (oversized prefix, unknown
    /// version): the stream cannot be resynchronized — reply and close.
    Reject(String),
}

/// Incremental, allocation-free frame scan for the reactor's per-connection
/// read buffers. Never blocks: returns [`Parse::NeedMore`] until a whole
/// frame is buffered.
pub(crate) fn parse_frame(buf: &[u8]) -> Parse {
    if buf.len() < 4 {
        return Parse::NeedMore;
    }
    if buf[..4] == WIRE_MAGIC {
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
        return Parse::Frame {
            version: WIRE_V2,
            request_id,
            body: V2_HEADER_BYTES..V2_HEADER_BYTES + len,
            consumed: V2_HEADER_BYTES + len,
        };
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Parse::Reject(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"
        ));
    }
    if buf.len() < 4 + len {
        return Parse::NeedMore;
    }
    Parse::Frame {
        version: 1,
        request_id: 0,
        body: 4..4 + len,
        consumed: 4 + len,
    }
}

// ---- Request/response body codecs (shared by clients and the server) ----

/// Appends a request header: plan id plus packed kind/flags/record count.
pub(crate) fn put_request_header(out: &mut Vec<u8>, plan: u32, kind: u8, flags: u8, n: usize) {
    out.extend_from_slice(&plan.to_le_bytes());
    let kind_flags = u32::from(kind) | (u32::from(flags) << 8) | ((n as u32) << 16);
    out.extend_from_slice(&kind_flags.to_le_bytes());
}

/// Appends a success response body (status 0 + scores).
pub(crate) fn put_ok(out: &mut Vec<u8>, scores: &[f32]) {
    out.push(0u8);
    out.extend_from_slice(&(scores.len() as u32).to_le_bytes());
    for &s in scores {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

/// A success response as an owned body (completions cross threads).
pub(crate) fn encode_ok(scores: &[f32]) -> Vec<u8> {
    let mut body = Vec::with_capacity(5 + scores.len() * 4);
    put_ok(&mut body, scores);
    body
}

/// Encodes an error response body (status 1 + message).
pub(crate) fn encode_err(msg: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(5 + msg.len());
    body.push(1u8);
    body.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    body.extend_from_slice(msg.as_bytes());
    body
}

/// Status byte that opens an admin response body; the verb-specific
/// payload follows it.
pub(crate) const STATUS_ADMIN: u8 = 2;

/// Encodes an execution-fault response body (status 3 + panic message).
/// Distinct from status 1 so clients can tell "the operator crashed on
/// this request" (retryable elsewhere, counts against the plan's fault
/// budget) from ordinary request errors.
pub(crate) fn encode_fault(msg: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(5 + msg.len());
    body.push(3u8);
    body.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    body.extend_from_slice(msg.as_bytes());
    body
}

/// Encodes a plan-quarantined response body (status 4 + plan id): the
/// plan's fault budget is exhausted and its gate is closed.
pub(crate) fn encode_quarantined(plan: u32) -> Vec<u8> {
    let mut body = Vec::with_capacity(5);
    body.push(4u8);
    body.extend_from_slice(&plan.to_le_bytes());
    body
}

/// Decodes a response body into scores (or the server's error, mapped
/// back onto the typed [`DataError`] variants the statuses carry).
pub(crate) fn decode_response(body: &[u8]) -> Result<Vec<f32>> {
    use pretzel_data::serde_bin::Cursor;
    let (&status, rest) = body
        .split_first()
        .ok_or_else(|| DataError::Runtime("empty frame".into()))?;
    let mut cur = Cursor::new(rest);
    match status {
        0 => cur.f32s(),
        1 => {
            let len = cur.u32()? as usize;
            let msg = String::from_utf8_lossy(&rest[4..(4 + len).min(rest.len())]).into_owned();
            Err(DataError::Runtime(format!("server error: {msg}")))
        }
        3 => {
            let len = cur.u32()? as usize;
            let msg = String::from_utf8_lossy(&rest[4..(4 + len).min(rest.len())]).into_owned();
            Err(DataError::ExecutionFault(msg))
        }
        4 => Err(DataError::PlanQuarantined(cur.u32()?)),
        s => Err(DataError::Runtime(format!("bad response status {s}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_cannot_alias_a_valid_v1_prefix() {
        let as_len = u32::from_le_bytes(WIRE_MAGIC) as usize;
        assert!(
            as_len > MAX_FRAME_BYTES,
            "magic {as_len:#x} must exceed MAX_FRAME_BYTES so v1/v2 detection is unambiguous"
        );
    }

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
            version,
            request_id,
            body,
            consumed,
        } = parse_frame(&buf)
        else {
            panic!("expected a frame");
        };
        assert_eq!((version, request_id), (WIRE_V2, 42));
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
    fn incremental_parse_v1_roundtrip() {
        let mut buf = Vec::new();
        encode_v1_into(&mut buf, b"abc");
        let Parse::Frame {
            version,
            request_id,
            body,
            consumed,
        } = parse_frame(&buf)
        else {
            panic!("expected a frame");
        };
        assert_eq!((version, request_id, consumed), (1, 0, 7));
        assert_eq!(&buf[body], b"abc");
    }

    #[test]
    fn hostile_prefixes_reject_without_allocation() {
        // v1 oversized prefix.
        let huge = (u32::MAX).to_le_bytes();
        assert!(matches!(parse_frame(&huge), Parse::Reject(_)));
        // v2 oversized body length.
        let mut v2 = WIRE_MAGIC.to_vec();
        v2.extend_from_slice(&[WIRE_V2, 0, 0, 0]);
        v2.extend_from_slice(&7u32.to_le_bytes());
        v2.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse_frame(&v2), Parse::Reject(_)));
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
        encode_v1_into(&mut wire, b"one");
        encode_v2_into(&mut wire, 7, b"two");
        // A body longer than the reader's first buffer forces the grow path.
        let big = vec![0xABu8; 3 * MIN_READ + 17];
        encode_v2_into(&mut wire, 8, &big);
        let mut cursor = std::io::Cursor::new(wire);
        let mut frames = FrameReader::default();
        match frames.read_next(&mut cursor).unwrap() {
            Some(Frame::Complete {
                version: 1, body, ..
            }) => assert_eq!(body, b"one"),
            other => panic!("{other:?}"),
        }
        match frames.read_next(&mut cursor).unwrap() {
            Some(Frame::Complete {
                version: WIRE_V2,
                request_id: 7,
                body,
            }) => assert_eq!(body, b"two"),
            other => panic!("{other:?}"),
        }
        match frames.read_next(&mut cursor).unwrap() {
            Some(Frame::Complete {
                request_id: 8,
                body,
                ..
            }) => assert_eq!(body, &big[..]),
            other => panic!("{other:?}"),
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
                    Some(Frame::Complete {
                        request_id, body, ..
                    }) => {
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
    fn end_of_stream_inside_a_frame_is_an_error() {
        let mut wire = Vec::new();
        encode_v2_into(&mut wire, 1, b"whole");
        wire.truncate(wire.len() - 2);
        let mut cursor = std::io::Cursor::new(wire);
        let err = FrameReader::default().read_next(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}

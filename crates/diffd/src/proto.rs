//! The `diffd` wire protocol: length-prefixed frames carrying RLE images.
//!
//! The paper's compressed representation survives from client to kernel —
//! image payloads are exactly the `rle::serialize` container (`RLI1`), so
//! the server never densifies at the boundary. Framing is deliberately
//! minimal and hostile-input-first:
//!
//! ```text
//! frame   := magic "DFD1" | kind:u8 | len:u32le | payload[len]
//! ```
//!
//! Hardening rules, mirroring `rle::serialize`'s plausibility caps:
//!
//! * The header is fixed-size ([`FRAME_HEADER_LEN`]) and validated —
//!   magic, known kind, `len <= max_frame_len` — **before** any payload
//!   byte is read or any buffer sized from `len` is allocated.
//! * Payload buffers start at most [`PREALLOC_CAP`] bytes and grow with
//!   *received* bytes, so an attacker's claimed length can never reserve
//!   memory it did not pay for on the wire.
//! * Image payloads go through [`rle::serialize::decode_image`], which
//!   pre-sizes each row only after capping its run count by the bytes
//!   left in the payload.
//!
//! Outgoing `Diff` and `DiffOk` frames are built in place: the header is
//! written with a placeholder length, the images are encoded from borrowed
//! [`RleImage`]s straight behind it, and the frame length and `a_len` are
//! patched afterwards ([`encode_diff_request_frame`],
//! [`encode_diff_reply_frame`]). Client and server sessions reuse one
//! frame buffer across requests. The payload-only encoders
//! ([`encode_diff_request`], [`encode_diff_reply`]) are thin wrappers over
//! the same writers, so both paths produce identical bytes.
//!
//! Every malformed input maps to a typed [`ProtoError`]; nothing in this
//! module panics on wire data.

use std::io::Read;

use rle::serialize::{self, DecodeError};
use rle::RleImage;

/// Frame magic: protocol "DFD", version 1.
pub const FRAME_MAGIC: [u8; 4] = *b"DFD1";

/// Fixed frame header size: 4-byte magic, 1-byte kind, 4-byte payload
/// length (little endian).
pub const FRAME_HEADER_LEN: usize = 9;

/// Default ceiling on a frame's declared payload length. Large enough for
/// a pair of pathological megapixel RLE images, small enough that one
/// connection cannot claim unbounded memory.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Largest buffer capacity ever reserved from a *claimed* (unreceived)
/// length. Everything beyond this is allocated only as bytes arrive.
pub const PREALLOC_CAP: usize = 64 * 1024;

/// Capacity a connection keeps in the frame buffer it reuses between
/// requests; a larger frame's buffer is trimmed back after it is sent.
pub(crate) const REUSED_BUFFER_CAP: usize = 1024 * 1024;

/// Frame discriminants. Requests live below `0x80`, responses above.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: diff two images (payload: [`DiffRequest`]).
    Diff = 0x01,
    /// Client → server: liveness probe (empty payload).
    Ping = 0x02,
    /// Client → server: fetch the Prometheus exposition (empty payload).
    Metrics = 0x03,
    /// Server → client: successful diff (payload: [`DiffReply`]).
    DiffOk = 0x81,
    /// Server → client: typed failure (payload: [`ErrorReply`]).
    Error = 0x82,
    /// Server → client: answer to [`FrameKind::Ping`] (empty payload).
    Pong = 0x83,
    /// Server → client: Prometheus text (payload: UTF-8).
    MetricsText = 0x84,
}

impl FrameKind {
    /// Decodes a kind byte; unknown values are a protocol error, never a
    /// panic.
    pub fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            0x01 => Self::Diff,
            0x02 => Self::Ping,
            0x03 => Self::Metrics,
            0x81 => Self::DiffOk,
            0x82 => Self::Error,
            0x83 => Self::Pong,
            0x84 => Self::MetricsText,
            other => return Err(ProtoError::UnknownKind(other)),
        })
    }

    /// True for the kinds a *client* may send.
    #[must_use]
    pub fn is_request(self) -> bool {
        (self as u8) < 0x80
    }
}

/// Failure classes a [`FrameKind::Error`] reply carries. The code is the
/// contract; the message is advisory detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request violated the wire protocol; the server closes the
    /// connection after sending this.
    Protocol = 1,
    /// Admission control shed the request (or connection) under load.
    /// Retry later, ideally with backoff.
    Overloaded = 2,
    /// The request's deadline expired before the batch finished; its rows
    /// were abandoned behind the pipeline's ticket watermark.
    DeadlineExceeded = 3,
    /// A row exhausted its retry budget (`SystolicError::RowFailed`).
    RowFailed = 4,
    /// The two images have different widths or heights.
    Mismatch = 5,
    /// Any other server-side failure.
    Internal = 6,
    /// The server is draining for shutdown and admits no new requests.
    ShuttingDown = 7,
}

impl ErrorCode {
    /// Decodes a code byte.
    pub fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => Self::Protocol,
            2 => Self::Overloaded,
            3 => Self::DeadlineExceeded,
            4 => Self::RowFailed,
            5 => Self::Mismatch,
            6 => Self::Internal,
            7 => Self::ShuttingDown,
            other => return Err(ProtoError::UnknownErrorCode(other)),
        })
    }
}

/// Every way wire input can be rejected. All variants are produced by
/// validation — adversarial bytes can reach any of them but none panics.
#[derive(Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// Declared payload length exceeds the negotiated ceiling. Raised
    /// before any allocation or payload read.
    FrameTooLarge {
        /// Length the header claimed.
        declared: u32,
        /// Ceiling the receiver enforces.
        max: u32,
    },
    /// The stream ended (or the slice ran out) before the declared bytes
    /// arrived.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// A structurally invalid payload (bad internal lengths or layout).
    Malformed(&'static str),
    /// The embedded RLE image failed `rle::serialize`'s hardened decoder.
    Image(DecodeError),
    /// An error reply carried an unknown code byte.
    UnknownErrorCode(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            Self::FrameTooLarge { declared, max } => {
                write!(f, "declared payload of {declared} bytes exceeds cap {max}")
            }
            Self::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
            Self::Image(e) => write!(f, "embedded image rejected: {e}"),
            Self::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> Self {
        Self::Image(e)
    }
}

/// A `Diff` request: a caller-chosen correlation id, a deadline, and the
/// two images still in their wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRequest {
    /// Echoed verbatim in the response so clients can pipeline requests.
    pub request_id: u64,
    /// Wall-clock budget in milliseconds; `0` asks for the server default.
    /// The server clamps it to its configured maximum.
    pub deadline_ms: u32,
    /// First operand.
    pub a: RleImage,
    /// Second operand.
    pub b: RleImage,
}

/// A successful diff: the request id it answers, the pipeline ticket range
/// `[ticket_lo, ticket_hi)` the batch occupied (one ticket per row — the
/// connection-to-pipeline mapping made visible), and the diff image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffReply {
    /// The [`DiffRequest::request_id`] this answers.
    pub request_id: u64,
    /// First pipeline ticket of the batch.
    pub ticket_lo: u64,
    /// One past the last pipeline ticket of the batch.
    pub ticket_hi: u64,
    /// Nanoseconds this request's job waited between submission and its
    /// first chunk checkout — executor queueing, not compute. Per-request,
    /// so load tools can split their latency percentiles without scraping
    /// the server-wide histograms.
    pub queue_wait_ns: u64,
    /// Nanoseconds from admission to completion minus the queue wait: the
    /// time the request spent actually being diffed (plus result
    /// collection).
    pub compute_ns: u64,
    /// The XOR difference image, RLE-encoded.
    pub image: RleImage,
}

/// A typed failure reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// The request id this answers (`0` when no request was parsed, e.g. a
    /// protocol error mid-header).
    pub request_id: u64,
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

fn u32le(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn u64le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn need(data: &[u8], n: usize) -> Result<(), ProtoError> {
    if data.len() < n {
        return Err(ProtoError::Truncated {
            needed: n,
            have: data.len(),
        });
    }
    Ok(())
}

/// Assembles a full frame (header + payload).
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes — a programming error on
/// the sending side, unreachable from wire input.
#[must_use]
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_into(&mut out, kind, payload);
    out
}

/// Appends a full frame to `out` (see [`encode_frame`]).
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes.
pub fn encode_frame_into(out: &mut Vec<u8>, kind: FrameKind, payload: &[u8]) {
    frame_into(out, kind, |out| out.extend_from_slice(payload));
}

/// Appends one frame to `out`: the header goes first with a placeholder
/// length, `payload` writes the body straight after it, and the length is
/// patched in place — no intermediate payload buffer.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes (see [`encode_frame`]).
fn frame_into(out: &mut Vec<u8>, kind: FrameKind, payload: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&[0; 4]);
    payload(out);
    patch_len(out, header + 5, header + FRAME_HEADER_LEN);
}

/// Writes `out.len() - from` as a `u32le` at `out[at..at + 4]`.
fn patch_len(out: &mut [u8], at: usize, from: usize) {
    let len = u32::try_from(out.len() - from).expect("payload fits a u32 length prefix");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Validates a frame header. Called on exactly [`FRAME_HEADER_LEN`] bytes;
/// returns the kind and the declared payload length.
pub fn decode_header(header: &[u8], max_frame_len: u32) -> Result<(FrameKind, u32), ProtoError> {
    need(header, FRAME_HEADER_LEN)?;
    if header[..4] != FRAME_MAGIC {
        return Err(ProtoError::BadMagic(
            header[..4].try_into().expect("4 bytes"),
        ));
    }
    let kind = FrameKind::from_u8(header[4])?;
    let len = u32le(&header[5..9]);
    if len > max_frame_len {
        return Err(ProtoError::FrameTooLarge {
            declared: len,
            max: max_frame_len,
        });
    }
    Ok((kind, len))
}

/// Encodes a [`DiffRequest`] payload:
/// `request_id:u64le | deadline_ms:u32le | a_len:u32le | a | b`.
#[must_use]
pub fn encode_diff_request(req: &DiffRequest) -> Vec<u8> {
    let mut out = Vec::new();
    put_diff_request(&mut out, req.request_id, req.deadline_ms, &req.a, &req.b);
    out
}

/// Appends a complete `Diff` frame for the borrowed images `a` and `b` to
/// `out`, byte-identical to
/// `encode_frame(FrameKind::Diff, &encode_diff_request(..))` but built in
/// one pass with no copy of either image.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn encode_diff_request_frame(
    out: &mut Vec<u8>,
    request_id: u64,
    deadline_ms: u32,
    a: &RleImage,
    b: &RleImage,
) {
    frame_into(out, FrameKind::Diff, |out| {
        put_diff_request(out, request_id, deadline_ms, a, b);
    });
}

fn put_diff_request(
    out: &mut Vec<u8>,
    request_id: u64,
    deadline_ms: u32,
    a: &RleImage,
    b: &RleImage,
) {
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    let a_len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    serialize::encode_image_into(a, out);
    patch_len(out, a_len_at, a_len_at + 4);
    serialize::encode_image_into(b, out);
}

/// Decodes a [`DiffRequest`] payload, enforcing the internal length split
/// before touching image bytes. The embedded images inherit every
/// plausibility cap of `rle::serialize::decode_image`.
pub fn decode_diff_request(payload: &[u8]) -> Result<DiffRequest, ProtoError> {
    need(payload, 16)?;
    let request_id = u64le(&payload[0..8]);
    let deadline_ms = u32le(&payload[8..12]);
    let a_len = u32le(&payload[12..16]) as usize;
    let rest = &payload[16..];
    if a_len > rest.len() {
        return Err(ProtoError::Truncated {
            needed: 16 + a_len,
            have: payload.len(),
        });
    }
    let a = serialize::decode_image(&rest[..a_len])?;
    let b = serialize::decode_image(&rest[a_len..])?;
    Ok(DiffRequest {
        request_id,
        deadline_ms,
        a,
        b,
    })
}

/// Encodes a [`DiffReply`] payload:
/// `request_id:u64le | ticket_lo:u64le | ticket_hi:u64le |
/// queue_wait_ns:u64le | compute_ns:u64le | image`.
#[must_use]
pub fn encode_diff_reply(reply: &DiffReply) -> Vec<u8> {
    let mut out = Vec::new();
    put_diff_reply(&mut out, reply);
    out
}

/// Appends a complete `DiffOk` frame for `reply` to `out`, built in place
/// like [`encode_diff_request_frame`].
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn encode_diff_reply_frame(out: &mut Vec<u8>, reply: &DiffReply) {
    frame_into(out, FrameKind::DiffOk, |out| put_diff_reply(out, reply));
}

fn put_diff_reply(out: &mut Vec<u8>, reply: &DiffReply) {
    out.extend_from_slice(&reply.request_id.to_le_bytes());
    out.extend_from_slice(&reply.ticket_lo.to_le_bytes());
    out.extend_from_slice(&reply.ticket_hi.to_le_bytes());
    out.extend_from_slice(&reply.queue_wait_ns.to_le_bytes());
    out.extend_from_slice(&reply.compute_ns.to_le_bytes());
    serialize::encode_image_into(&reply.image, out);
}

/// Decodes a [`DiffReply`] payload.
pub fn decode_diff_reply(payload: &[u8]) -> Result<DiffReply, ProtoError> {
    need(payload, 40)?;
    Ok(DiffReply {
        request_id: u64le(&payload[0..8]),
        ticket_lo: u64le(&payload[8..16]),
        ticket_hi: u64le(&payload[16..24]),
        queue_wait_ns: u64le(&payload[24..32]),
        compute_ns: u64le(&payload[32..40]),
        image: serialize::decode_image(&payload[40..])?,
    })
}

/// Encodes an [`ErrorReply`] payload: `request_id:u64le | code:u8 | msg`.
#[must_use]
pub fn encode_error_reply(reply: &ErrorReply) -> Vec<u8> {
    let msg = reply.message.as_bytes();
    let mut out = Vec::with_capacity(9 + msg.len());
    out.extend_from_slice(&reply.request_id.to_le_bytes());
    out.push(reply.code as u8);
    out.extend_from_slice(msg);
    out
}

/// Decodes an [`ErrorReply`] payload. The message is decoded lossily so a
/// mangled reply still surfaces its code.
pub fn decode_error_reply(payload: &[u8]) -> Result<ErrorReply, ProtoError> {
    need(payload, 9)?;
    Ok(ErrorReply {
        request_id: u64le(&payload[0..8]),
        code: ErrorCode::from_u8(payload[8])?,
        message: String::from_utf8_lossy(&payload[9..]).into_owned(),
    })
}

/// Reads one frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean EOF *at a frame boundary* (the peer hung
/// up between frames); EOF anywhere inside a frame is
/// [`ProtoError::Truncated`]. The payload buffer's initial capacity is
/// capped at [`PREALLOC_CAP`] and grows only as bytes actually arrive.
pub fn read_frame(
    stream: &mut impl Read,
    max_frame_len: u32,
) -> Result<Option<(FrameKind, Vec<u8>)>, FrameReadError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < header.len() {
        let n = stream
            .read(&mut header[got..])
            .map_err(FrameReadError::Io)?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(FrameReadError::Proto(ProtoError::Truncated {
                needed: FRAME_HEADER_LEN,
                have: got,
            }));
        }
        got += n;
    }
    let (kind, len) = decode_header(&header, max_frame_len).map_err(FrameReadError::Proto)?;
    let payload = read_payload(stream, len)?;
    Ok(Some((kind, payload)))
}

/// Reads a declared-length payload with capped pre-allocation (see
/// [`PREALLOC_CAP`]).
pub(crate) fn read_payload(stream: &mut impl Read, len: u32) -> Result<Vec<u8>, FrameReadError> {
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(PREALLOC_CAP));
    let read = stream
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(FrameReadError::Io)?;
    if read < len {
        return Err(FrameReadError::Proto(ProtoError::Truncated {
            needed: len,
            have: read,
        }));
    }
    Ok(payload)
}

/// I/O-or-protocol failure while reading a frame.
#[derive(Debug)]
pub enum FrameReadError {
    /// Transport failure.
    Io(std::io::Error),
    /// Wire-format violation.
    Proto(ProtoError),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error reading frame: {e}"),
            Self::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rle::RleRow;

    fn image() -> RleImage {
        let rows = vec![
            RleRow::from_pairs(24, &[(0, 3), (10, 5)]).unwrap(),
            RleRow::from_pairs(24, &[(4, 4)]).unwrap(),
        ];
        RleImage::from_rows(24, rows).unwrap()
    }

    #[test]
    fn diff_request_round_trips() {
        let req = DiffRequest {
            request_id: 7,
            deadline_ms: 1500,
            a: image(),
            b: image(),
        };
        let payload = encode_diff_request(&req);
        assert_eq!(decode_diff_request(&payload).unwrap(), req);
    }

    #[test]
    fn diff_reply_and_error_round_trip() {
        let reply = DiffReply {
            request_id: 9,
            ticket_lo: 40,
            ticket_hi: 42,
            queue_wait_ns: 12_345,
            compute_ns: 678_900,
            image: image(),
        };
        let payload = encode_diff_reply(&reply);
        assert_eq!(decode_diff_reply(&payload).unwrap(), reply);

        let err = ErrorReply {
            request_id: 9,
            code: ErrorCode::Overloaded,
            message: "busy".into(),
        };
        assert_eq!(decode_error_reply(&encode_error_reply(&err)).unwrap(), err);
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let bytes = encode_frame(FrameKind::Ping, &[]);
        let mut cur = std::io::Cursor::new(bytes);
        let (kind, payload) = read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!(kind, FrameKind::Ping);
        assert!(payload.is_empty());
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversize_claim_is_rejected_before_any_payload_read() {
        let mut header = Vec::new();
        header.extend_from_slice(&FRAME_MAGIC);
        header.push(FrameKind::Diff as u8);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_header(&header, DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert_eq!(
            err,
            ProtoError::FrameTooLarge {
                declared: u32::MAX,
                max: DEFAULT_MAX_FRAME_LEN
            }
        );
    }
}

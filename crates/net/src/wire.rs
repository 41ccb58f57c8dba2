//! The wire protocol: length-prefixed, checksummed binary framing for the
//! service's request/response vocabulary.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       2     magic  "WZ" (0x57 0x5A)
//! 2       1     version (currently 3)
//! 3       1     frame kind (1 request, 2 response, 3 error, 4 rejected)
//! 4       8     request id (little-endian u64, chosen by the client)
//! 12      4     payload length (little-endian u32)
//! 16      n     payload (kind-specific encoding, see below)
//! 16+n    8     FNV-1a-64 checksum over header + payload (little-endian)
//! ```
//!
//! Everything is little-endian; floats travel as their IEEE-754 bit
//! patterns ([`f64::to_bits`]), so every value — including NaN payloads —
//! roundtrips bit-exactly. The codec is hand-rolled over `std` in the
//! spirit of the vendored no-dependency crates.
//!
//! ## Robustness contract
//!
//! Decoding **never panics and never over-allocates**, no matter the
//! input:
//!
//! * the payload length is validated against the receiver's cap *before*
//!   any allocation ([`TransportError::FrameTooLarge`]);
//! * every internal length field (strings, point vectors) is checked
//!   against the bytes actually remaining before a buffer is reserved;
//! * the checksum is verified before the payload is interpreted, so a
//!   flipped bit anywhere in the frame surfaces as
//!   [`TransportError::ChecksumMismatch`], not as a garbage decode;
//! * unknown tags, invalid UTF-8 and trailing bytes are typed
//!   [`TransportError`] values, not aborts.
//!
//! The adversarial half of `tests/codec_robustness.rs` drives exactly this
//! contract: truncation at every byte offset, a bit flip at every position,
//! lying length prefixes.
//!
//! ## Losslessness
//!
//! [`ServiceError`] (with its nested [`EngineError`] and [`IndexError`])
//! serialises losslessly, so a remote caller matches on the *same* typed
//! failure an in-process submitter would see. Both enums are
//! `#[non_exhaustive]`; a variant this codec does not know yet is encoded
//! as a reserved tag carrying its display text, and decoding that tag
//! yields a typed [`TransportError::Protocol`] rather than a silently
//! wrong variant.

use std::io::{Read, Write};
use std::time::Duration;

use wazi_core::{
    CostEstimate, EngineError, IndexError, PartitionDecision, Query, QueryOutput, QueryReport,
    RangeMode, StrategyDecisions, UpdateOp,
};
use wazi_geom::{Point, Rect};
use wazi_service::{BatchSummary, QueryResponse, ServiceError, SubmitOptions};
use wazi_storage::ExecStats;

use crate::error::TransportError;

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"WZ";
/// Protocol version carried in byte 2 of the header.
pub const VERSION: u8 = 3;
/// Fixed header size in bytes (magic + version + kind + request id + len).
pub const HEADER_LEN: usize = 16;
/// Trailing checksum size in bytes.
pub const CHECKSUM_LEN: usize = 8;
/// Default payload-size cap: generous for any realistic response (a 1 MiB
/// payload holds ~65k result points) while bounding what a malicious
/// length prefix can make the receiver allocate.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Frame kind tags (byte 3 of the header).
mod kind {
    pub const REQUEST: u8 = 1;
    pub const RESPONSE: u8 = 2;
    pub const ERROR: u8 = 3;
    pub const REJECTED: u8 = 4;
}

/// One decoded protocol frame: a request id plus a typed body.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Client-chosen correlation id echoed back by the server, so a client
    /// can detect a duplicate or stale response after a retry.
    pub request_id: u64,
    /// The typed body.
    pub body: FrameBody,
}

/// The typed body of a [`Frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum FrameBody {
    /// Client → server: execute this query under these options.
    Request {
        /// The query plan.
        query: Query,
        /// Per-submission options (deadline).
        options: SubmitOptions,
    },
    /// Server → client: the query's full [`QueryResponse`], boxed to keep
    /// the enum small (it dwarfs every other variant).
    Response(Box<QueryResponse>),
    /// Server → client: the query (or the frame carrying it) failed.
    Error(WireError),
    /// Server → client: the service shed the query under load — the wire
    /// form of [`wazi_service::Submit::Rejected`], this protocol's "429".
    Rejected,
}

/// Body of an error frame: what went wrong on the server's side of the
/// conversation.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The service answered with a typed error; relayed losslessly.
    Service(ServiceError),
    /// The server could not act on the frame at the transport level (e.g.
    /// a request payload that framed correctly but failed to decode). The
    /// string is the server's diagnosis; the client surfaces it as
    /// [`TransportError::PeerReported`].
    Transport(String),
}

impl Frame {
    /// Convenience constructor for a request frame.
    pub fn request(request_id: u64, query: Query, options: SubmitOptions) -> Self {
        Frame {
            request_id,
            body: FrameBody::Request { query, options },
        }
    }

    /// Encodes the frame into a self-contained byte vector (header,
    /// payload, checksum).
    pub fn encode(&self) -> Vec<u8> {
        let (kind, payload) = encode_body(&self.body);
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(kind);
        bytes.extend_from_slice(&self.request_id.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Decodes one complete frame from `bytes` (which must contain exactly
    /// one frame — trailing bytes are a protocol violation).
    pub fn decode(bytes: &[u8], max_payload: u32) -> Result<Frame, TransportError> {
        let header: &[u8; HEADER_LEN] = bytes
            .get(..HEADER_LEN)
            .and_then(|h| h.try_into().ok())
            .ok_or(TransportError::Truncated("frame header"))?;
        let (kind, request_id, payload_len) = parse_header(header, max_payload)?;
        let frame_len = HEADER_LEN + payload_len + CHECKSUM_LEN;
        if bytes.len() < frame_len {
            return Err(TransportError::Truncated("frame payload or checksum"));
        }
        if bytes.len() > frame_len {
            return Err(TransportError::Protocol(format!(
                "{} trailing bytes after the frame",
                bytes.len() - frame_len
            )));
        }
        let declared = u64::from_le_bytes(bytes[frame_len - CHECKSUM_LEN..].try_into().unwrap());
        if checksum(&bytes[..frame_len - CHECKSUM_LEN]) != declared {
            return Err(TransportError::ChecksumMismatch);
        }
        let body = decode_body(kind, &bytes[HEADER_LEN..frame_len - CHECKSUM_LEN])?;
        Ok(Frame { request_id, body })
    }
}

/// Validates a raw header and extracts (kind, request id, payload length).
fn parse_header(
    header: &[u8; HEADER_LEN],
    max_payload: u32,
) -> Result<(u8, u64, usize), TransportError> {
    if header[..2] != MAGIC {
        return Err(TransportError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(TransportError::BadVersion(header[2]));
    }
    let kind = header[3];
    if !(kind::REQUEST..=kind::REJECTED).contains(&kind) {
        return Err(TransportError::UnknownKind(kind));
    }
    let request_id = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let payload_len = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if payload_len > max_payload {
        return Err(TransportError::FrameTooLarge {
            len: payload_len,
            max: max_payload,
        });
    }
    Ok((kind, request_id, payload_len as usize))
}

/// Writes one frame to `writer` (encode + `write_all` + flush).
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<(), TransportError> {
    let bytes = frame.encode();
    writer.write_all(&bytes)?;
    writer.flush()?;
    Ok(())
}

/// A frame whose framing (magic, version, kind, length, checksum) has been
/// validated but whose payload has not yet been interpreted.
///
/// The split matters for fault handling: a [`RawFrame`] that fails
/// [`RawFrame::body`] arrived *in sync* — the receiver knows its request id
/// and exactly where the next frame starts, so a server can answer it with
/// a typed error frame and keep the connection, whereas a failure in
/// [`read_raw_frame`] itself means the stream can no longer be trusted.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrame {
    /// The kind byte (already validated to be a known kind).
    pub kind: u8,
    /// The correlation id from the header.
    pub request_id: u64,
    /// The checksum-verified, not-yet-decoded payload.
    pub payload: Vec<u8>,
}

impl RawFrame {
    /// Decodes the payload into a typed [`FrameBody`].
    pub fn body(&self) -> Result<FrameBody, TransportError> {
        decode_body(self.kind, &self.payload)
    }
}

/// Reads one checksum-verified frame from `reader` without decoding its
/// payload.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary* (the
/// peer closed between frames); an EOF in the middle of a frame is
/// [`TransportError::ConnectionLost`]. The payload length is validated
/// against `max_payload` before the payload buffer is allocated.
pub fn read_raw_frame<R: Read>(
    reader: &mut R,
    max_payload: u32,
) -> Result<Option<RawFrame>, TransportError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(TransportError::ConnectionLost),
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err.into()),
        }
    }
    let (kind, request_id, payload_len) = parse_header(&header, max_payload)?;
    let mut rest = vec![0u8; payload_len + CHECKSUM_LEN];
    reader.read_exact(&mut rest)?;
    let declared = u64::from_le_bytes(rest[payload_len..].try_into().unwrap());
    let mut sum = checksum_init();
    checksum_update(&mut sum, &header);
    checksum_update(&mut sum, &rest[..payload_len]);
    if sum != declared {
        return Err(TransportError::ChecksumMismatch);
    }
    rest.truncate(payload_len);
    Ok(Some(RawFrame {
        kind,
        request_id,
        payload: rest,
    }))
}

/// Reads and fully decodes one frame from `reader`
/// ([`read_raw_frame`] + [`RawFrame::body`]).
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_payload: u32,
) -> Result<Option<Frame>, TransportError> {
    match read_raw_frame(reader, max_payload)? {
        None => Ok(None),
        Some(raw) => Ok(Some(Frame {
            request_id: raw.request_id,
            body: raw.body()?,
        })),
    }
}

/// FNV-1a 64-bit checksum. Not cryptographic — the threat model is bit rot
/// and framing bugs, not an adversary forging frames — but a single flipped
/// bit anywhere in header or payload changes it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = checksum_init();
    checksum_update(&mut sum, bytes);
    sum
}

fn checksum_init() -> u64 {
    0xcbf2_9ce4_8422_2325
}

fn checksum_update(sum: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *sum ^= u64::from(byte);
        *sum = sum.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

// ---------------------------------------------------------------------------
// Body encodings
// ---------------------------------------------------------------------------

fn encode_body(body: &FrameBody) -> (u8, Vec<u8>) {
    let mut payload = Vec::new();
    match body {
        FrameBody::Request { query, options } => {
            put_query(&mut payload, query);
            put_opt_u64(
                &mut payload,
                options
                    .deadline
                    .map(|d| d.as_nanos().min(u64::MAX as u128) as u64),
            );
            (kind::REQUEST, payload)
        }
        FrameBody::Response(response) => {
            put_response(&mut payload, response);
            (kind::RESPONSE, payload)
        }
        FrameBody::Error(error) => {
            match error {
                WireError::Service(err) => {
                    payload.push(0);
                    put_service_error(&mut payload, err);
                }
                WireError::Transport(message) => {
                    payload.push(1);
                    put_str(&mut payload, message);
                }
            }
            (kind::ERROR, payload)
        }
        FrameBody::Rejected => (kind::REJECTED, payload),
    }
}

fn decode_body(kind: u8, payload: &[u8]) -> Result<FrameBody, TransportError> {
    let mut reader = Reader::new(payload);
    let body = match kind {
        kind::REQUEST => {
            let query = reader.query()?;
            let deadline = reader
                .opt_u64("request deadline")?
                .map(Duration::from_nanos);
            let mut options = SubmitOptions::new();
            options.deadline = deadline;
            FrameBody::Request { query, options }
        }
        kind::RESPONSE => FrameBody::Response(Box::new(reader.response()?)),
        kind::ERROR => match reader.u8("error class")? {
            0 => FrameBody::Error(WireError::Service(reader.service_error()?)),
            1 => FrameBody::Error(WireError::Transport(reader.string("transport message")?)),
            tag => {
                return Err(TransportError::Protocol(format!(
                    "unknown error class tag {tag}"
                )))
            }
        },
        kind::REJECTED => FrameBody::Rejected,
        other => return Err(TransportError::UnknownKind(other)),
    };
    reader.finish()?;
    Ok(body)
}

// --- primitive writers -----------------------------------------------------

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, value: usize) {
    put_u64(out, value as u64);
}

fn put_f64(out: &mut Vec<u8>, value: f64) {
    put_u64(out, value.to_bits());
}

fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

fn put_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        None => out.push(0),
        Some(value) => {
            out.push(1);
            put_u64(out, value);
        }
    }
}

fn put_str(out: &mut Vec<u8>, value: &str) {
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value.as_bytes());
}

fn put_point(out: &mut Vec<u8>, point: &Point) {
    put_f64(out, point.x);
    put_f64(out, point.y);
}

fn put_points(out: &mut Vec<u8>, points: &[Point]) {
    out.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for point in points {
        put_point(out, point);
    }
}

fn put_query(out: &mut Vec<u8>, query: &Query) {
    match query {
        Query::Range { rect, mode } => {
            out.push(0);
            out.push(match mode {
                RangeMode::Collect => 0,
                RangeMode::Count => 1,
                RangeMode::Stream => 2,
            });
            put_point(out, &rect.lo);
            put_point(out, &rect.hi);
        }
        Query::Point(point) => {
            out.push(1);
            put_point(out, point);
        }
        Query::Knn { q, k } => {
            out.push(2);
            put_point(out, q);
            put_usize(out, *k);
        }
    }
}

fn put_output(out: &mut Vec<u8>, output: &QueryOutput) {
    match output {
        QueryOutput::Points(points) => {
            out.push(0);
            put_points(out, points);
        }
        QueryOutput::Count(count) => {
            out.push(1);
            put_u64(out, *count);
        }
        QueryOutput::Streamed(count) => {
            out.push(2);
            put_u64(out, *count);
        }
        QueryOutput::Found(found) => {
            out.push(3);
            put_bool(out, *found);
        }
        QueryOutput::Neighbors(points) => {
            out.push(4);
            put_points(out, points);
        }
    }
}

fn put_exec_stats(out: &mut Vec<u8>, stats: &ExecStats) {
    put_u64(out, stats.nodes_visited);
    put_u64(out, stats.bbs_checked);
    put_u64(out, stats.pages_scanned);
    put_u64(out, stats.points_scanned);
    put_u64(out, stats.results);
    put_u64(out, stats.leaves_skipped);
    put_u64(out, stats.projection_ns);
    put_u64(out, stats.scan_ns);
}

fn put_report(out: &mut Vec<u8>, report: &QueryReport) {
    put_output(out, &report.output);
    put_exec_stats(out, &report.stats);
    put_u64(out, report.latency_ns);
}

fn put_decision(out: &mut Vec<u8>, decision: &PartitionDecision) {
    put_usize(out, decision.queries);
    put_usize(out, decision.shards);
    put_u64(out, decision.shared_visits);
    match &decision.estimate {
        None => out.push(0),
        Some(estimate) => {
            out.push(1);
            put_u64(out, estimate.fused_ns);
            put_opt_u64(out, estimate.fused_parallel_ns);
            put_usize(out, estimate.shards);
        }
    }
    put_u64(out, decision.actual_ns);
}

fn put_opt_decision(out: &mut Vec<u8>, decision: &Option<PartitionDecision>) {
    match decision {
        None => out.push(0),
        Some(decision) => {
            out.push(1);
            put_decision(out, decision);
        }
    }
}

fn put_response(out: &mut Vec<u8>, response: &QueryResponse) {
    put_report(out, &response.report);
    let batch = &response.batch;
    put_usize(out, batch.size);
    put_u64(out, batch.latency_ns);
    put_usize(out, batch.fused_queries);
    put_usize(out, batch.fused_points);
    put_usize(out, batch.fused_knn);
    put_usize(out, batch.shards_used);
    put_exec_stats(out, &batch.shared_stats);
    put_opt_decision(out, &batch.decisions.range);
    put_opt_decision(out, &batch.decisions.point);
    put_opt_decision(out, &batch.decisions.knn);
    put_u64(out, batch.epoch);
    put_bool(out, batch.degraded);
    put_u64(out, response.queue_ns);
    put_u64(out, response.total_ns);
}

fn put_service_error(out: &mut Vec<u8>, error: &ServiceError) {
    match error {
        ServiceError::Engine(err) => {
            out.push(0);
            put_engine_error(out, err);
        }
        ServiceError::Closed => out.push(1),
        ServiceError::WorkerDied => out.push(2),
        ServiceError::ExecutionPanicked { message } => {
            out.push(3);
            put_str(out, message);
        }
        ServiceError::DeadlineExceeded => out.push(4),
        ServiceError::WritesUnsupported => out.push(5),
        // `ServiceError` is #[non_exhaustive]: a future variant this codec
        // does not know travels as the reserved tag with its display text,
        // and decodes to a typed protocol error instead of a wrong variant.
        other => {
            out.push(u8::MAX);
            put_str(out, &other.to_string());
        }
    }
}

fn put_engine_error(out: &mut Vec<u8>, error: &EngineError) {
    match error {
        EngineError::Index(err) => {
            out.push(0);
            match err {
                IndexError::Unsupported(op) => {
                    out.push(0);
                    put_str(out, op.as_str());
                }
                IndexError::InvalidInput(msg) => {
                    out.push(1);
                    put_str(out, msg);
                }
                IndexError::UpdateUnsupported { index, op } => {
                    out.push(2);
                    put_str(out, index);
                    put_str(out, op.as_str());
                }
                other => {
                    out.push(u8::MAX);
                    put_str(out, &other.to_string());
                }
            }
        }
        EngineError::InvalidQuery(msg) => {
            out.push(1);
            put_str(out, msg);
        }
        EngineError::ExecutionPanicked(msg) => {
            out.push(2);
            put_str(out, msg);
        }
        other => {
            out.push(u8::MAX);
            put_str(out, &other.to_string());
        }
    }
}

// --- the cursor-style reader ----------------------------------------------

/// A bounds-checked cursor over a payload. Every accessor returns a typed
/// error instead of panicking, and every variable-length read validates the
/// declared length against the bytes actually remaining before allocating.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], TransportError> {
        if self.remaining() < n {
            return Err(TransportError::Truncated(context));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, TransportError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, TransportError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, TransportError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    fn usize(&mut self, context: &'static str) -> Result<usize, TransportError> {
        self.u64(context)?
            .try_into()
            .map_err(|_| TransportError::Protocol(format!("{context} does not fit in usize")))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, TransportError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    fn bool(&mut self, context: &'static str) -> Result<bool, TransportError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(TransportError::Protocol(format!(
                "invalid boolean byte {other} in {context}"
            ))),
        }
    }

    fn opt_u64(&mut self, context: &'static str) -> Result<Option<u64>, TransportError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(context)?)),
            other => Err(TransportError::Protocol(format!(
                "invalid option byte {other} in {context}"
            ))),
        }
    }

    fn string(&mut self, context: &'static str) -> Result<String, TransportError> {
        let len = self.u32(context)? as usize;
        // The length check happens before any allocation: a lying prefix
        // costs nothing.
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TransportError::Protocol(format!("invalid UTF-8 in {context}")))
    }

    /// An [`UpdateOp`], sent by its name.
    fn update_op(&mut self, context: &'static str) -> Result<UpdateOp, TransportError> {
        match self.string(context)?.as_str() {
            "insert" => Ok(UpdateOp::Insert),
            "delete" => Ok(UpdateOp::Delete),
            other => Err(TransportError::Protocol(format!(
                "unknown {context} {other:?}"
            ))),
        }
    }

    fn point(&mut self, context: &'static str) -> Result<Point, TransportError> {
        let x = self.f64(context)?;
        let y = self.f64(context)?;
        Ok(Point::new(x, y))
    }

    fn points(&mut self, context: &'static str) -> Result<Vec<Point>, TransportError> {
        let len = self.u32(context)? as usize;
        // 16 bytes per point: validate against the remaining payload before
        // reserving, so a lying count cannot force an over-allocation.
        if len
            .checked_mul(16)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(TransportError::Truncated(context));
        }
        let mut points = Vec::with_capacity(len);
        for _ in 0..len {
            points.push(self.point(context)?);
        }
        Ok(points)
    }

    fn query(&mut self) -> Result<Query, TransportError> {
        match self.u8("query tag")? {
            0 => {
                let mode = match self.u8("range mode")? {
                    0 => RangeMode::Collect,
                    1 => RangeMode::Count,
                    2 => RangeMode::Stream,
                    other => {
                        return Err(TransportError::Protocol(format!(
                            "unknown range mode {other}"
                        )))
                    }
                };
                let lo = self.point("range rectangle")?;
                let hi = self.point("range rectangle")?;
                // Constructed as a literal: `Rect::new` debug-asserts corner
                // order, and the decoder must stay panic-free on any input.
                // Degenerate geometry is the service's problem to reject,
                // exactly as it is for an in-process submitter.
                Ok(Query::Range {
                    rect: Rect { lo, hi },
                    mode,
                })
            }
            1 => Ok(Query::Point(self.point("point query")?)),
            2 => {
                let q = self.point("knn centre")?;
                let k = self.usize("knn k")?;
                Ok(Query::Knn { q, k })
            }
            other => Err(TransportError::Protocol(format!(
                "unknown query tag {other}"
            ))),
        }
    }

    fn output(&mut self) -> Result<QueryOutput, TransportError> {
        match self.u8("output tag")? {
            0 => Ok(QueryOutput::Points(self.points("output points")?)),
            1 => Ok(QueryOutput::Count(self.u64("output count")?)),
            2 => Ok(QueryOutput::Streamed(self.u64("output streamed")?)),
            3 => Ok(QueryOutput::Found(self.bool("output found")?)),
            4 => Ok(QueryOutput::Neighbors(self.points("output neighbors")?)),
            other => Err(TransportError::Protocol(format!(
                "unknown output tag {other}"
            ))),
        }
    }

    fn exec_stats(&mut self) -> Result<ExecStats, TransportError> {
        Ok(ExecStats {
            nodes_visited: self.u64("exec stats")?,
            bbs_checked: self.u64("exec stats")?,
            pages_scanned: self.u64("exec stats")?,
            points_scanned: self.u64("exec stats")?,
            results: self.u64("exec stats")?,
            leaves_skipped: self.u64("exec stats")?,
            projection_ns: self.u64("exec stats")?,
            scan_ns: self.u64("exec stats")?,
        })
    }

    fn report(&mut self) -> Result<QueryReport, TransportError> {
        Ok(QueryReport {
            output: self.output()?,
            stats: self.exec_stats()?,
            latency_ns: self.u64("report latency")?,
        })
    }

    fn decision(&mut self) -> Result<PartitionDecision, TransportError> {
        let queries = self.usize("decision queries")?;
        let shards = self.usize("decision shards")?;
        if shards == 0 {
            return Err(TransportError::Protocol(
                "a decision with 0 shards".to_string(),
            ));
        }
        let shared_visits = self.u64("decision shared visits")?;
        let estimate = match self.u8("estimate option")? {
            0 => None,
            1 => Some(CostEstimate {
                fused_ns: self.u64("estimate")?,
                fused_parallel_ns: self.opt_u64("estimate")?,
                shards: self.usize("estimate shards")?,
            }),
            other => {
                return Err(TransportError::Protocol(format!(
                    "invalid option byte {other} in estimate"
                )))
            }
        };
        Ok(PartitionDecision {
            queries,
            shards,
            shared_visits,
            estimate,
            actual_ns: self.u64("decision actual")?,
        })
    }

    fn opt_decision(&mut self) -> Result<Option<PartitionDecision>, TransportError> {
        match self.u8("decision option")? {
            0 => Ok(None),
            1 => Ok(Some(self.decision()?)),
            other => Err(TransportError::Protocol(format!(
                "invalid option byte {other} in decision"
            ))),
        }
    }

    fn response(&mut self) -> Result<QueryResponse, TransportError> {
        let report = self.report()?;
        let batch = BatchSummary {
            size: self.usize("batch size")?,
            latency_ns: self.u64("batch latency")?,
            fused_queries: self.usize("batch fused queries")?,
            fused_points: self.usize("batch fused points")?,
            fused_knn: self.usize("batch fused knn")?,
            shards_used: self.usize("batch shards")?,
            shared_stats: self.exec_stats()?,
            decisions: StrategyDecisions {
                range: self.opt_decision()?,
                point: self.opt_decision()?,
                knn: self.opt_decision()?,
            },
            epoch: self.u64("batch epoch")?,
            degraded: self.bool("batch degraded")?,
        };
        Ok(QueryResponse {
            report,
            batch,
            queue_ns: self.u64("response queue time")?,
            total_ns: self.u64("response total time")?,
        })
    }

    fn service_error(&mut self) -> Result<ServiceError, TransportError> {
        match self.u8("service error tag")? {
            0 => Ok(ServiceError::Engine(self.engine_error()?)),
            1 => Ok(ServiceError::Closed),
            2 => Ok(ServiceError::WorkerDied),
            3 => Ok(ServiceError::ExecutionPanicked {
                message: self.string("panic message")?,
            }),
            4 => Ok(ServiceError::DeadlineExceeded),
            5 => Ok(ServiceError::WritesUnsupported),
            u8::MAX => {
                let message = self.string("unknown service error")?;
                Err(TransportError::Protocol(format!(
                    "peer sent a service error this version does not know: {message}"
                )))
            }
            other => Err(TransportError::Protocol(format!(
                "unknown service error tag {other}"
            ))),
        }
    }

    fn engine_error(&mut self) -> Result<EngineError, TransportError> {
        match self.u8("engine error tag")? {
            0 => match self.u8("index error tag")? {
                0 => Ok(EngineError::Index(IndexError::Unsupported(
                    self.update_op("unsupported operation")?,
                ))),
                1 => Ok(EngineError::Index(IndexError::InvalidInput(
                    self.string("invalid input message")?,
                ))),
                2 => Ok(EngineError::Index(IndexError::UpdateUnsupported {
                    index: self.string("update-unsupported index")?,
                    op: self.update_op("update-unsupported operation")?,
                })),
                u8::MAX => {
                    let message = self.string("unknown index error")?;
                    Err(TransportError::Protocol(format!(
                        "peer sent an index error this version does not know: {message}"
                    )))
                }
                other => Err(TransportError::Protocol(format!(
                    "unknown index error tag {other}"
                ))),
            },
            1 => Ok(EngineError::InvalidQuery(
                self.string("invalid query message")?,
            )),
            2 => Ok(EngineError::ExecutionPanicked(
                self.string("panic message")?,
            )),
            u8::MAX => {
                let message = self.string("unknown engine error")?;
                Err(TransportError::Protocol(format!(
                    "peer sent an engine error this version does not know: {message}"
                )))
            }
            other => Err(TransportError::Protocol(format!(
                "unknown engine error tag {other}"
            ))),
        }
    }

    /// Asserts the whole payload was consumed (trailing bytes are a
    /// protocol violation, usually a sign of version skew).
    fn finish(self) -> Result<(), TransportError> {
        if self.remaining() > 0 {
            return Err(TransportError::Protocol(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        Frame::decode(&frame.encode(), DEFAULT_MAX_FRAME_LEN).expect("roundtrip decode")
    }

    #[test]
    fn request_roundtrips_with_and_without_deadline() {
        let query = Query::range(Rect::from_coords(0.1, 0.2, 0.3, 0.4));
        let frame = Frame::request(7, query.clone(), SubmitOptions::new());
        assert_eq!(roundtrip(&frame), frame);
        let frame = Frame::request(
            8,
            query,
            SubmitOptions::new().deadline(Duration::from_millis(250)),
        );
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn nan_coordinates_roundtrip_bit_exactly() {
        let quiet_nan = f64::from_bits(0x7FF8_0000_0000_0001);
        let frame = Frame::request(
            1,
            Query::Point(Point::new(quiet_nan, f64::NEG_INFINITY)),
            SubmitOptions::new(),
        );
        let decoded = roundtrip(&frame);
        match decoded.body {
            FrameBody::Request {
                query: Query::Point(p),
                ..
            } => {
                assert_eq!(p.x.to_bits(), quiet_nan.to_bits());
                assert_eq!(p.y.to_bits(), f64::NEG_INFINITY.to_bits());
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn rejected_frame_is_empty_payload() {
        let frame = Frame {
            request_id: 42,
            body: FrameBody::Rejected,
        };
        let bytes = frame.encode();
        assert_eq!(bytes.len(), HEADER_LEN + CHECKSUM_LEN);
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn stream_reader_matches_buffer_decoder_and_detects_clean_eof() {
        let frame = Frame::request(3, Query::knn(Point::new(0.5, 0.5), 4), SubmitOptions::new());
        let bytes = frame.encode();
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let read = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .expect("stream decode")
            .expect("one frame");
        assert_eq!(read, frame);
        // Nothing left: a clean EOF at the frame boundary is Ok(None).
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap(),
            None
        );
        // EOF in the middle of a frame is ConnectionLost.
        let mut cursor = std::io::Cursor::new(bytes[..10].to_vec());
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
            TransportError::ConnectionLost
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Frame {
            request_id: 0,
            body: FrameBody::Rejected,
        }
        .encode();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        match Frame::decode(&bytes, DEFAULT_MAX_FRAME_LEN) {
            Err(TransportError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_FRAME_LEN);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn service_errors_roundtrip_losslessly() {
        let errors = vec![
            ServiceError::Closed,
            ServiceError::WorkerDied,
            ServiceError::DeadlineExceeded,
            ServiceError::ExecutionPanicked {
                message: "index out of bounds".into(),
            },
            ServiceError::Engine(EngineError::InvalidQuery("non-finite point".into())),
            ServiceError::Engine(EngineError::Index(IndexError::Unsupported(
                UpdateOp::Insert,
            ))),
            ServiceError::Engine(EngineError::Index(IndexError::UpdateUnsupported {
                index: "QUASII".into(),
                op: UpdateOp::Insert,
            })),
            ServiceError::Engine(EngineError::Index(IndexError::InvalidInput("nan".into()))),
            ServiceError::Engine(EngineError::ExecutionPanicked("boom".into())),
            ServiceError::WritesUnsupported,
        ];
        for error in errors {
            let frame = Frame {
                request_id: 9,
                body: FrameBody::Error(WireError::Service(error.clone())),
            };
            match roundtrip(&frame).body {
                FrameBody::Error(WireError::Service(decoded)) => assert_eq!(decoded, error),
                other => panic!("wrong body: {other:?}"),
            }
        }
    }
}

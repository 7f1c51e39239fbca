//! The data-plane wire format, as pure byte functions.
//!
//! Everything here is sans-io: encoders append to caller-owned buffers,
//! decoders parse caller-supplied slices, and nothing touches a socket.
//! [`crate::framing`] wraps these functions with blocking stream I/O for
//! the TCP driver; the vnet transport consumes them directly — one
//! message per frame — so both backends speak byte-identical frames by
//! construction.
//!
//! Two encodings live here:
//!
//! * **Stream frames** — `[u32 LE length | flags][extensions][packet]`,
//!   the length-prefixed format TCP writes back-to-back on a connection
//!   (see [`TRACE_FLAG`] / [`WINDOW_FLAG`] for the optional extensions).
//! * **Handshake lines** — the one-line JSON [`Subscribe`] handshake and
//!   the coordinator's resync nudge ([`RESYNC_NUDGE_LINE`]).

use curtain_overlay::{NodeId, ThreadId};
use curtain_rlnc::{BufPool, CodedPacket};
use curtain_telemetry::json::{self, JsonValue};
use curtain_telemetry::TraceContext;

/// Upper bound on a frame (coefficients + payload); guards against
/// corrupted length prefixes.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// High bit of the length prefix: the frame body starts with a 16-byte
/// [`TraceContext`] before the packet bytes.
///
/// `MAX_FRAME` keeps real lengths far below this bit, so flagged and
/// unflagged frames can never be confused. Untraced frames are written
/// byte-identically to the pre-tracing format, and readers that predate
/// the flag reject a flagged frame as a bad length instead of
/// misparsing it — tracing is opt-in per sender, old receivers keep
/// interoperating with untraced senders unchanged.
pub const TRACE_FLAG: u32 = 1 << 31;

/// Bit 30 of the length prefix: the frame body carries a 4-byte
/// little-endian *window base* — the oldest generation the sender still
/// serves — placed after the trace context when both flags are set.
///
/// A windowed source advances the base as it cuts generations; peers
/// that understand the flag stop recoding generations behind the base
/// and re-stamp their own frames, so the active window propagates down
/// the overlay. Like [`TRACE_FLAG`], the bit sits far above `MAX_FRAME`,
/// so readers that predate it reject a flagged frame as a bad length
/// instead of misparsing it, and unflagged frames stay byte-identical —
/// windowed and pre-window nodes interoperate as long as the sender
/// does not window.
pub const WINDOW_FLAG: u32 = 1 << 30;

/// Width of the wire window base.
pub(crate) const WINDOW_BASE_LEN: usize = 4;

/// Upper bound on the subscribe line; anything longer is garbage.
pub(crate) const MAX_SUBSCRIBE_LINE: usize = 512;

/// Upper bound on a control-port request line. The largest request is a
/// `Resync` naming `d` parents — hundreds of bytes — so anything near
/// this is a peer streaming bytes without a newline.
pub(crate) const MAX_REQUEST_LINE: u64 = 64 * 1024;

/// The one-line handshake a subscriber sends after connecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscribe {
    /// The subscribing peer (for the publisher's bookkeeping/logging).
    pub node: NodeId,
    /// The overlay thread this subscription carries.
    pub thread: ThreadId,
}

impl Subscribe {
    /// Renders the handshake as its JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(self) -> String {
        let mut out = String::from("{\"node\":");
        out.push_str(&self.node.0.to_string());
        out.push_str(",\"thread\":");
        out.push_str(&self.thread.to_string());
        out.push('}');
        out
    }

    /// Parses a handshake line.
    ///
    /// # Errors
    ///
    /// Describes the malformed field.
    pub fn parse_json_line(line: &str) -> Result<Self, String> {
        let obj = json::parse_flat_object(line.trim())?;
        let node = obj
            .fields
            .get("node")
            .and_then(JsonValue::as_u64)
            .ok_or("missing or bad node")?;
        let thread = obj
            .fields
            .get("thread")
            .and_then(JsonValue::as_u64)
            .and_then(|t| ThreadId::try_from(t).ok())
            .ok_or("missing or bad thread")?;
        Ok(Subscribe { node: NodeId(node), thread })
    }
}

/// The first line on a freshly accepted data connection: either a
/// subscriber's handshake or a coordinator's resync nudge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataHello {
    /// A peer subscribing to one overlay thread.
    Subscribe(Subscribe),
    /// A recovering coordinator asking this peer to re-announce itself
    /// via the `Resync` control verb (the proactive sweep).
    ResyncNudge,
}

/// The one-line resync nudge a sweeping coordinator sends on the data
/// port. Deliberately *not* a valid subscribe line: pre-sweep peers
/// reject it as a bad handshake and close, which is harmless.
pub const RESYNC_NUDGE_LINE: &str = "{\"nudge\":\"resync\"}";

/// Parses one data-plane hello line (already stripped of its newline).
///
/// # Errors
///
/// Describes the malformed line.
pub fn parse_data_hello(line: &str) -> Result<DataHello, String> {
    if line.trim() == RESYNC_NUDGE_LINE {
        return Ok(DataHello::ResyncNudge);
    }
    Subscribe::parse_json_line(line).map(DataHello::Subscribe)
}

/// Appends one encoded frame to `out`: the length prefix (with extension
/// flags), the optional 16-byte trace context, the optional 4-byte window
/// base, then the packet's wire bytes. With both extensions `None` the
/// bytes are identical to the original unflagged format.
pub fn encode_frame_tagged_into(
    out: &mut Vec<u8>,
    packet: &CodedPacket,
    ctx: Option<TraceContext>,
    window_base: Option<u32>,
) {
    let mut len = packet.wire_len() as u32;
    let mut flags = 0u32;
    if ctx.is_some() {
        len += TraceContext::WIRE_LEN as u32;
        flags |= TRACE_FLAG;
    }
    if window_base.is_some() {
        len += WINDOW_BASE_LEN as u32;
        flags |= WINDOW_FLAG;
    }
    out.extend_from_slice(&(len | flags).to_le_bytes());
    if let Some(ctx) = ctx {
        out.extend_from_slice(&ctx.to_wire());
    }
    if let Some(base) = window_base {
        out.extend_from_slice(&base.to_le_bytes());
    }
    packet.to_wire_into(out);
}

/// One encoded frame as a fresh buffer (see [`encode_frame_tagged_into`]).
#[must_use]
pub fn encode_frame_tagged(
    packet: &CodedPacket,
    ctx: Option<TraceContext>,
    window_base: Option<u32>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + packet.wire_len() + 20);
    encode_frame_tagged_into(&mut out, packet, ctx, window_base);
    out
}

/// A parsed frame with its optional extensions: the packet, the trace
/// context (if [`TRACE_FLAG`] was set) and the window base (if
/// [`WINDOW_FLAG`] was set).
pub type TaggedFrame = (CodedPacket, Option<TraceContext>, Option<u32>);

/// Decodes exactly one frame from `buf` (prefix included), parsing the
/// packet into pool-recycled buffers. The message-oriented counterpart of
/// the stream reader: trailing bytes after the frame are an error, so a
/// vnet message carries one frame and nothing else.
///
/// # Errors
///
/// Describes the corruption (bad length, truncation, trailing garbage,
/// malformed packet).
pub fn decode_frame_message(buf: &[u8], pool: &BufPool) -> Result<TaggedFrame, String> {
    let (frame, used) = decode_frame_prefix(buf, pool)?;
    if used != buf.len() {
        return Err(format!("{} trailing bytes after frame", buf.len() - used));
    }
    Ok(frame)
}

/// A validated length prefix: the body length in bytes and which
/// extensions ([`TRACE_FLAG`] / [`WINDOW_FLAG`]) the body carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePrefix {
    /// Body length in bytes (extensions included, prefix excluded).
    pub len: usize,
    /// Body starts with a 16-byte trace context.
    pub traced: bool,
    /// Body carries a 4-byte window base (after the context, if any).
    pub windowed: bool,
}

/// Validates a raw little-endian length prefix: strips the extension
/// flags, bounds the length against [`MAX_FRAME`], and rejects bodies too
/// short to hold the extensions they claim.
///
/// # Errors
///
/// Describes the corrupt prefix.
pub fn parse_prefix(raw: u32) -> Result<FramePrefix, String> {
    let traced = raw & TRACE_FLAG != 0;
    let windowed = raw & WINDOW_FLAG != 0;
    let len = raw & !(TRACE_FLAG | WINDOW_FLAG);
    if len == 0 || len > MAX_FRAME {
        return Err("bad frame length".to_string());
    }
    let mut header = 0;
    if traced {
        header += TraceContext::WIRE_LEN;
    }
    if windowed {
        header += WINDOW_BASE_LEN;
    }
    if (len as usize) <= header {
        return Err("tagged frame too short".to_string());
    }
    Ok(FramePrefix { len: len as usize, traced, windowed })
}

/// Splits a frame body (already length-validated by [`parse_prefix`])
/// into its extensions and the packet bytes.
#[must_use]
pub fn split_body(prefix: FramePrefix, body: &[u8]) -> (Option<TraceContext>, Option<u32>, &[u8]) {
    debug_assert_eq!(body.len(), prefix.len);
    let mut rest = body;
    let ctx = if prefix.traced {
        let mut wire = [0u8; TraceContext::WIRE_LEN];
        wire.copy_from_slice(&rest[..TraceContext::WIRE_LEN]);
        rest = &rest[TraceContext::WIRE_LEN..];
        Some(TraceContext::from_wire(&wire))
    } else {
        None
    };
    let base = if prefix.windowed {
        let mut wire = [0u8; WINDOW_BASE_LEN];
        wire.copy_from_slice(&rest[..WINDOW_BASE_LEN]);
        rest = &rest[WINDOW_BASE_LEN..];
        Some(u32::from_le_bytes(wire))
    } else {
        None
    };
    (ctx, base, rest)
}

/// Decodes one frame from the front of `buf`, returning it and the number
/// of bytes consumed — the incremental form stream decoders build on.
///
/// # Errors
///
/// Describes the corruption; a buffer that merely ends early reports
/// `"truncated frame"` (callers feeding a stream can wait for more bytes).
pub fn decode_frame_prefix(buf: &[u8], pool: &BufPool) -> Result<(TaggedFrame, usize), String> {
    if buf.len() < 4 {
        return Err("truncated frame".to_string());
    }
    let raw = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let prefix = parse_prefix(raw)?;
    let total = 4 + prefix.len;
    if buf.len() < total {
        return Err("truncated frame".to_string());
    }
    let (ctx, base, rest) = split_body(prefix, &buf[4..total]);
    let packet = CodedPacket::from_wire_pooled(rest, pool).map_err(|e| e.to_string())?;
    Ok(((packet, ctx, base), total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CTX: TraceContext = TraceContext { trace: 0xDEAD, span: 0xBEEF };

    /// Every `(ctx, window_base)` combination a frame can carry.
    const FLAG_CASES: [(Option<TraceContext>, Option<u32>); 4] =
        [(None, None), (Some(CTX), None), (None, Some(5)), (Some(CTX), Some(9))];

    fn packet(generation: u32, payload_len: usize) -> CodedPacket {
        CodedPacket::new(
            generation,
            vec![1, 2, 3],
            (0..payload_len).map(|i| (i % 251) as u8).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn message_decode_round_trips_every_flag_combination() {
        let pool = BufPool::default();
        let p = packet(7, 24);
        for (c, b) in FLAG_CASES {
            let bytes = encode_frame_tagged(&p, c, b);
            let (got, got_ctx, got_base) = decode_frame_message(&bytes, &pool).unwrap();
            assert_eq!(got, p);
            assert_eq!(got_ctx, c);
            assert_eq!(got_base, b);
        }
    }

    #[test]
    fn message_decode_rejects_trailing_bytes_and_truncation() {
        let pool = BufPool::default();
        let mut bytes = encode_frame_tagged(&packet(0, 16), None, None);
        bytes.push(0);
        assert!(decode_frame_message(&bytes, &pool).unwrap_err().contains("trailing"));
        bytes.pop();
        bytes.pop();
        assert!(decode_frame_message(&bytes, &pool).unwrap_err().contains("truncated"));
    }

    #[test]
    fn prefix_decode_walks_a_concatenated_stream() {
        let pool = BufPool::default();
        let mut buf = Vec::new();
        for g in 0..4u32 {
            encode_frame_tagged_into(&mut buf, &packet(g, 16), None, Some(g));
        }
        let mut off = 0;
        let mut seen = Vec::new();
        while off < buf.len() {
            let ((p, _, base), used) = decode_frame_prefix(&buf[off..], &pool).unwrap();
            seen.push((p.generation(), base));
            off += used;
        }
        assert_eq!(seen, vec![(0, Some(0)), (1, Some(1)), (2, Some(2)), (3, Some(3))]);
    }

    /// Feeds `bytes` to every decoder of untrusted input. Each call must
    /// come back `Ok` or `Err` — a panic fails the test — and none may
    /// size a buffer past [`MAX_FRAME`].
    fn feed_every_decoder(bytes: &[u8], pool: &BufPool, scratch: &mut Vec<u8>) {
        if let Some(head) = bytes.first_chunk::<4>() {
            if let Ok(prefix) = parse_prefix(u32::from_le_bytes(*head)) {
                assert!(prefix.len <= MAX_FRAME as usize, "prefix admits {}", prefix.len);
            }
        }
        if let Ok((_, used)) = decode_frame_prefix(bytes, pool) {
            assert!(used <= bytes.len(), "consumed {used} of {}", bytes.len());
        }
        let _ = decode_frame_message(bytes, pool);
        let text = String::from_utf8_lossy(bytes);
        let _ = parse_data_hello(&text);
        let _ = Subscribe::parse_json_line(&text);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = crate::framing::read_frame_tagged_pooled(&mut cursor, pool, scratch);
        assert!(scratch.len() <= MAX_FRAME as usize, "scratch grew to {}", scratch.len());
    }

    #[test]
    fn untrusted_bytes_never_panic_a_decoder() {
        let mut rng = StdRng::seed_from_u64(0xF022);
        let pool = BufPool::default();
        let mut scratch = Vec::new();

        // (i) Arbitrary byte strings.
        for _ in 0..4000 {
            let len = rng.random_range(0..=96);
            let bytes: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            feed_every_decoder(&bytes, &pool, &mut scratch);
        }

        for (c, b) in FLAG_CASES {
            let frame = encode_frame_tagged(&packet(3, 40), c, b);
            // (ii) Valid frames with one to three bytes flipped.
            for _ in 0..500 {
                let mut bent = frame.clone();
                for _ in 0..rng.random_range(1..=3) {
                    let at = rng.random_range(0..bent.len());
                    bent[at] ^= rng.random_range(1..=255u8);
                }
                feed_every_decoder(&bent, &pool, &mut scratch);
            }
            // (iii) Valid frames truncated at every length.
            for cut in 0..frame.len() {
                feed_every_decoder(&frame[..cut], &pool, &mut scratch);
            }
        }
    }

    #[test]
    fn data_hello_lines_parse() {
        let sub = Subscribe { node: NodeId(42), thread: 7 };
        assert_eq!(
            parse_data_hello(&sub.to_json_line()),
            Ok(DataHello::Subscribe(sub))
        );
        assert_eq!(parse_data_hello(RESYNC_NUDGE_LINE), Ok(DataHello::ResyncNudge));
        assert!(parse_data_hello("junk").is_err());
    }
}

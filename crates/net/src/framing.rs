//! Data-plane framing over blocking streams: the thin I/O shell around
//! the pure wire format in [`crate::core::wire`].
//!
//! All byte layouts — length prefixes, extension flags, handshake lines
//! — are defined (and re-exported from) the sans-io core; this module
//! only adds the socket concerns: blocking reads and writes, read
//! deadlines, stop-flag polling, and clean-EOF detection.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use curtain_rlnc::{BufPool, CodedPacket};
use curtain_telemetry::TraceContext;

pub use crate::core::wire::{
    DataHello, Subscribe, MAX_FRAME, RESYNC_NUDGE_LINE, TRACE_FLAG, WINDOW_FLAG,
};
use crate::core::wire::{self, MAX_SUBSCRIBE_LINE};

/// Writes the subscribe line.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_subscribe(mut stream: &TcpStream, sub: &Subscribe) -> io::Result<()> {
    let mut line = sub.to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Writes the resync-nudge line (see [`RESYNC_NUDGE_LINE`]).
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_resync_nudge(mut stream: &TcpStream) -> io::Result<()> {
    let mut line = String::from(RESYNC_NUDGE_LINE);
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Reads the subscribe line without ever blocking longer than ~100 ms at a
/// time, so a serving thread stays responsive to `stop` (and can be
/// joined promptly) even when a client connects and then stalls.
///
/// Tolerates the line arriving in arbitrarily small pieces — each read
/// timeout just re-checks `stop` and the deadline, keeping whatever bytes
/// already arrived.
///
/// # Errors
///
/// `TimedOut` when `deadline` passes or `stop` is raised before a full
/// line arrives; otherwise propagates socket and parse errors.
pub fn read_subscribe_deadline(
    stream: &TcpStream,
    stop: &AtomicBool,
    deadline: Duration,
) -> io::Result<Subscribe> {
    match read_data_hello_deadline(stream, stop, deadline)? {
        DataHello::Subscribe(sub) => Ok(sub),
        DataHello::ResyncNudge => {
            Err(io::Error::new(io::ErrorKind::InvalidData, "resync nudge, not a subscribe"))
        }
    }
}

/// Like [`read_subscribe_deadline`], but also accepts the coordinator's
/// resync nudge — the reader a sweep-aware peer runs on every accepted
/// data connection.
///
/// # Errors
///
/// See [`read_subscribe_deadline`].
pub fn read_data_hello_deadline(
    stream: &TcpStream,
    stop: &AtomicBool,
    deadline: Duration,
) -> io::Result<DataHello> {
    let until = Instant::now() + deadline;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut reader = stream.try_clone()?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if stop.load(Ordering::SeqCst) || Instant::now() >= until {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no subscribe line"));
        }
        // One byte at a time: the line is short and sent once, and this
        // guarantees we never consume bytes past the newline (the frame
        // channel runs the other way, but keep the invariant anyway).
        match reader.read(&mut byte) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed before subscribe",
                ))
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    let text = std::str::from_utf8(&line)
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad utf-8"))?;
                    return wire::parse_data_hello(text)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
                }
                line.push(byte[0]);
                if line.len() > MAX_SUBSCRIBE_LINE {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "subscribe line too long",
                    ));
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes one frame carrying any combination of the optional extensions:
/// a trace context ([`TRACE_FLAG`]) and a window base ([`WINDOW_FLAG`]).
/// With both `None` the output is the original unflagged format: the
/// length prefix followed by the packet's wire bytes.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame_tagged_into(
    stream: &mut impl Write,
    packet: &CodedPacket,
    ctx: Option<TraceContext>,
    window_base: Option<u32>,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    scratch.clear();
    wire::encode_frame_tagged_into(scratch, packet, ctx, window_base);
    stream.write_all(scratch)?;
    stream.flush()
}

pub use crate::core::wire::TaggedFrame;

/// Reads one frame that may carry any combination of the trace-context
/// and window-base extensions, parsing the packet into pool-recycled
/// buffers. `Ok(None)` signals clean EOF at a frame boundary; frames
/// without a given extension return `None` in its slot.
///
/// # Errors
///
/// Propagates socket errors; corrupt frames map to `InvalidData`.
pub fn read_frame_tagged_pooled(
    stream: &mut impl Read,
    pool: &BufPool,
    scratch: &mut Vec<u8>,
) -> io::Result<Option<TaggedFrame>> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(stream, &mut len_buf)? {
        return Ok(None);
    }
    let raw = u32::from_le_bytes(len_buf);
    let prefix =
        wire::parse_prefix(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    scratch.clear();
    scratch.resize(prefix.len, 0);
    stream.read_exact(scratch)?;
    let (ctx, base, rest) = wire::split_body(prefix, scratch);
    CodedPacket::from_wire_pooled(rest, pool)
        .map(|p| Some((p, ctx, base)))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Reads exactly `buf.len()` bytes; returns `false` on EOF *before the
/// first byte* (a clean close), errors on EOF mid-buffer.
fn read_exact_or_eof(stream: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame"));
            }
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use curtain_overlay::NodeId;
    use std::net::TcpListener;

    const CTX: TraceContext = TraceContext { trace: 0xDEAD, span: 0xBEEF };

    /// Every `(ctx, window_base)` combination the one writer can emit.
    const FLAG_CASES: [(Option<TraceContext>, Option<u32>); 4] =
        [(None, None), (Some(CTX), None), (None, Some(5)), (Some(CTX), Some(9))];

    #[test]
    fn frame_round_trips_every_flag_combination() {
        let pool = BufPool::default();
        let mut scratch = Vec::new();
        let p = CodedPacket::new(7, vec![1, 2, 3], vec![4u8; 24]);
        for (ctx, base) in FLAG_CASES {
            let mut buf = Vec::new();
            write_frame_tagged_into(&mut buf, &p, ctx, base, &mut scratch).unwrap();
            let mut cursor = io::Cursor::new(buf);
            let got = read_frame_tagged_pooled(&mut cursor, &pool, &mut scratch).unwrap().unwrap();
            assert_eq!(got, (p.clone(), ctx, base));
            // Clean EOF after the frame.
            assert!(read_frame_tagged_pooled(&mut cursor, &pool, &mut scratch).unwrap().is_none());
        }
    }

    #[test]
    fn pooled_round_trip_reuses_buffers() {
        let pool = BufPool::default();
        let mut scratch = Vec::new();
        let mut wire_scratch = Vec::new();
        let mut buf = Vec::new();
        let p = CodedPacket::new(1, vec![4, 5, 6], vec![7u8; 48]);
        write_frame_tagged_into(&mut buf, &p, None, None, &mut wire_scratch).unwrap();
        write_frame_tagged_into(&mut buf, &p, None, None, &mut wire_scratch).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let (first, _, _) =
            read_frame_tagged_pooled(&mut cursor, &pool, &mut scratch).unwrap().unwrap();
        assert_eq!(first, p);
        drop(first);
        let (second, _, _) =
            read_frame_tagged_pooled(&mut cursor, &pool, &mut scratch).unwrap().unwrap();
        assert_eq!(second, p);
        assert!(pool.stats().hits >= 1, "second frame reuses the first frame's buffers");
        assert!(read_frame_tagged_pooled(&mut cursor, &pool, &mut scratch).unwrap().is_none());
    }

    #[test]
    fn unflagged_frame_is_length_prefix_plus_packet_wire_bytes() {
        // The format every pre-extension node speaks; it must never drift.
        let p = CodedPacket::new(2, vec![9, 9], vec![1u8; 32]);
        let wire = p.to_wire();
        let mut want = (wire.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&wire);
        let mut got = Vec::new();
        let mut scratch = vec![0xFF; 512]; // dirty scratch must not leak
        write_frame_tagged_into(&mut got, &p, None, None, &mut scratch).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn multiple_frames_stream_with_mixed_flags() {
        let pool = BufPool::default();
        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        for i in 0..8u8 {
            let p = CodedPacket::new(0, vec![i + 1, 0], vec![i; 16]);
            let (ctx, base) = FLAG_CASES[usize::from(i) % FLAG_CASES.len()];
            write_frame_tagged_into(&mut buf, &p, ctx, base, &mut scratch).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        let mut count = 0u8;
        while let Some((p, ctx, base)) =
            read_frame_tagged_pooled(&mut cursor, &pool, &mut scratch).unwrap()
        {
            assert_eq!(p.payload()[0], count);
            assert_eq!((ctx, base), FLAG_CASES[usize::from(count) % FLAG_CASES.len()]);
            count += 1;
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn truncated_frame_is_an_error_for_every_flag_combination() {
        let pool = BufPool::default();
        let mut scratch = Vec::new();
        let p = CodedPacket::new(0, vec![1], vec![5u8; 8]);
        for (ctx, base) in FLAG_CASES {
            let mut buf = Vec::new();
            write_frame_tagged_into(&mut buf, &p, ctx, base, &mut scratch).unwrap();
            buf.truncate(buf.len() - 3);
            let err = read_frame_tagged_pooled(&mut io::Cursor::new(buf), &pool, &mut scratch)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        }
    }

    #[test]
    fn bad_lengths_rejected_for_every_flag_combination() {
        // Zero, oversize, and bodies too short to hold the extensions
        // their flags claim (a length equal to the extension bytes leaves
        // no room for a packet).
        let pool = BufPool::default();
        let mut scratch = Vec::new();
        for (flags, ext_len) in
            [(0, 0u32), (TRACE_FLAG, 16), (WINDOW_FLAG, 4), (TRACE_FLAG | WINDOW_FLAG, 20)]
        {
            for len in [0, ext_len, MAX_FRAME + 1] {
                let mut wire = (len | flags).to_le_bytes().to_vec();
                wire.resize(4 + ext_len as usize, 0);
                let err =
                    read_frame_tagged_pooled(&mut io::Cursor::new(wire), &pool, &mut scratch)
                        .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {len} flags {flags:#x}");
            }
        }
    }

    #[test]
    fn subscribe_line_round_trips() {
        let sub = Subscribe { node: NodeId(42), thread: 7 };
        let back = Subscribe::parse_json_line(&sub.to_json_line()).unwrap();
        assert_eq!(back, sub);
        assert!(Subscribe::parse_json_line("{}").is_err());
        assert!(Subscribe::parse_json_line("junk").is_err());
    }

    /// A connected localhost socket pair.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn partial_write_then_close_mid_frame_is_an_error() {
        // The fault a truncating proxy (or a crash mid-write) produces:
        // the length prefix promises more bytes than ever arrive.
        let (client, mut server) = tcp_pair();
        let p = CodedPacket::new(0, vec![1, 2], vec![3u8; 256]);
        let wire = p.to_wire();
        {
            let mut w = &client;
            w.write_all(&(wire.len() as u32).to_le_bytes()).unwrap();
            w.write_all(&wire[..wire.len() / 2]).unwrap();
            w.flush().unwrap();
        }
        drop(client); // hard close mid-frame
        let err = read_frame_tagged_pooled(&mut server, &BufPool::default(), &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn close_mid_length_prefix_is_an_error() {
        let (client, mut server) = tcp_pair();
        {
            let mut w = &client;
            w.write_all(&[7u8, 0]).unwrap(); // half a length prefix
            w.flush().unwrap();
        }
        drop(client);
        let err = read_frame_tagged_pooled(&mut server, &BufPool::default(), &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn subscribe_line_longer_than_one_read_still_parses() {
        // The line trickles in over several writes with pauses; the
        // deadline reader must assemble it across its internal timeouts.
        let (client, server) = tcp_pair();
        let stop = AtomicBool::new(false);
        let writer = std::thread::spawn(move || {
            let line = Subscribe { node: NodeId(9), thread: 3 }.to_json_line() + "\n";
            let bytes = line.as_bytes();
            let mut w = &client;
            for chunk in bytes.chunks(4) {
                w.write_all(chunk).unwrap();
                w.flush().unwrap();
                std::thread::sleep(Duration::from_millis(30));
            }
            client
        });
        let sub = read_subscribe_deadline(&server, &stop, Duration::from_secs(5)).unwrap();
        assert_eq!(sub, Subscribe { node: NodeId(9), thread: 3 });
        drop(writer.join().unwrap());
    }

    #[test]
    fn subscribe_deadline_honors_stop_flag() {
        use std::sync::Arc;
        let (_client, server) = tcp_pair(); // client never writes
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            read_subscribe_deadline(&server, &stop2, Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::SeqCst);
        let started = Instant::now();
        let err = t.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // The reader noticed the flag within its ~100 ms poll interval,
        // not the 30 s deadline.
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn resync_nudge_parses_as_data_hello_but_not_as_subscribe() {
        let (client, server) = tcp_pair();
        let stop = AtomicBool::new(false);
        write_resync_nudge(&client).unwrap();
        let hello = read_data_hello_deadline(&server, &stop, Duration::from_secs(5)).unwrap();
        assert_eq!(hello, DataHello::ResyncNudge);

        // A pre-sweep peer (subscribe-only reader) rejects it cleanly.
        let (client, server) = tcp_pair();
        write_resync_nudge(&client).unwrap();
        let err =
            read_subscribe_deadline(&server, &stop, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn data_hello_reader_accepts_plain_subscribe() {
        let (client, server) = tcp_pair();
        let stop = AtomicBool::new(false);
        let sub = Subscribe { node: NodeId(5), thread: 2 };
        write_subscribe(&client, &sub).unwrap();
        let hello = read_data_hello_deadline(&server, &stop, Duration::from_secs(5)).unwrap();
        assert_eq!(hello, DataHello::Subscribe(sub));
    }

    #[test]
    fn oversized_subscribe_line_rejected() {
        let (client, server) = tcp_pair();
        let stop = AtomicBool::new(false);
        {
            let mut w = &client;
            w.write_all(&vec![b'x'; MAX_SUBSCRIBE_LINE + 10]).unwrap();
            w.flush().unwrap();
        }
        let err =
            read_subscribe_deadline(&server, &stop, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

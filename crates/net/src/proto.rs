//! Control-plane messages at `SocketAddr`, plus the blocking TCP call
//! helpers.
//!
//! The protocol itself — message shapes, JSON wire form, parsing — lives
//! in the sans-io core ([`crate::core::ctrl`]), generic over the address
//! type. This module pins it to `std::net::SocketAddr` for the TCP
//! driver (the type aliases keep every existing call site compiling
//! unchanged) and adds the I/O: one JSON line per request, one per
//! response, any number of exchanges per connection, in order.
//!
//! * The client is [`call`]: each calling thread keeps the one control
//!   connection it used last and sends its next request down it. Its
//!   documentation states the reuse rule — when a kept connection is
//!   replaced, and which failures are never retried.
//! * The server side is [`read_request`] / [`write_response`] over one
//!   buffered reader per accepted connection (a reader per *request*
//!   would swallow whatever followed the first newline). A client that
//!   sends one request and closes is served as before.

use std::cell::RefCell;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::core::ctrl::{CtrlParent, CtrlRequest, CtrlResponse, WireAddr};
use crate::core::wire::MAX_REQUEST_LINE;
use crate::transport::tcp;
use crate::wal::MAX_RECORD;

/// Upper bound on a response line. The largest response is a `Snapshot`,
/// whose one checkpoint record is at most [`MAX_RECORD`] bytes, and JSON
/// string escaping can double each of them.
const MAX_RESPONSE_LINE: u64 = 2 * MAX_RECORD as u64 + 1024;

impl WireAddr for SocketAddr {
    fn render(&self) -> String {
        self.to_string()
    }
    fn parse(s: &str) -> Result<Self, String> {
        s.parse().map_err(|e| format!("bad socket address: {e}"))
    }
}

/// Where a stream comes from: the source host or a peer.
pub type ParentAddr = CtrlParent<SocketAddr>;

/// Requests a client may send to the coordinator.
pub type Request = CtrlRequest<SocketAddr>;

/// Responses from the coordinator.
pub type Response = CtrlResponse<SocketAddr>;

fn invalid(e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Reads one line of at most `cap` bytes from a connection's reader: a
/// peer that streams bytes without a newline must not grow this
/// process's heap without bound. End of stream before the first byte is
/// `UnexpectedEof` — the other side hung up between exchanges.
fn read_line_capped(reader: &mut impl BufRead, cap: u64) -> io::Result<String> {
    let mut buf = String::new();
    reader.take(cap).read_line(&mut buf)?;
    if buf.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    if buf.len() as u64 >= cap && !buf.ends_with('\n') {
        return Err(invalid(format!("control line exceeds {cap} bytes")));
    }
    Ok(buf)
}

thread_local! {
    /// The calling thread's kept control connection and where it leads.
    static KEPT: RefCell<Option<(SocketAddr, BufReader<TcpStream>)>> =
        const { RefCell::new(None) };
}

fn connect(coordinator: SocketAddr, timeout: Duration) -> io::Result<BufReader<TcpStream>> {
    let stream = tcp::dial(coordinator, timeout)?;
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// One exchange on `conn`: arm the per-call timeout, write the request
/// line, read the response line.
fn exchange(
    conn: &mut BufReader<TcpStream>,
    line: &str,
    timeout: Duration,
) -> io::Result<Response> {
    let stream = conn.get_mut();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(line.as_bytes())?;
    let buf = read_line_capped(conn, MAX_RESPONSE_LINE)?;
    Response::parse_json_line(&buf).map_err(invalid)
}

/// Whether `e` on a *reused* connection means the server had hung up
/// before it read the request: end of stream before any response byte,
/// or the reset / broken pipe of writing into a closed socket.
fn hung_up(e: &io::Error) -> bool {
    use io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    matches!(e.kind(), UnexpectedEof | ConnectionReset | BrokenPipe | ConnectionAborted)
}

/// Sends one request and reads one response, over the control connection
/// this thread kept from its previous call when that leads to
/// `coordinator`, over a fresh one otherwise. A successful exchange
/// leaves the connection kept (one per thread: calling another address
/// closes it); any failure closes it.
///
/// **The reuse rule.** A *reused* connection that fails with end of
/// stream before any response byte, `ConnectionReset`, `BrokenPipe` or
/// `ConnectionAborted` is dropped and the request is sent once more on a
/// fresh connection: the server only hangs up on an idle connection, or
/// because it died — in which case the caller's own retry would have
/// done the same — so a request is still applied at most once per
/// `call`. A **timeout is never retried**: the mutation may be parked in
/// the coordinator's commit queue. A failure on a fresh connection is
/// returned as it is. An unparseable response closes the connection.
///
/// A call made while the thread's locals are being torn down uses a
/// one-shot connection.
///
/// # Errors
///
/// Propagates socket and serialization errors; `timeout` guards the
/// connect and, re-armed on every call, each write and read.
pub fn call(coordinator: SocketAddr, request: &Request, timeout: Duration) -> io::Result<Response> {
    let mut line = request.to_json_line();
    line.push('\n');
    let kept = KEPT
        .try_with(|slot| slot.borrow_mut().take())
        .ok()
        .flatten()
        .and_then(|(addr, conn)| (addr == coordinator).then_some(conn));
    let mut conn = match kept {
        Some(mut conn) => match exchange(&mut conn, &line, timeout) {
            Err(e) if hung_up(&e) => connect(coordinator, timeout)?,
            result => return keep(coordinator, conn, result),
        },
        None => connect(coordinator, timeout)?,
    };
    let result = exchange(&mut conn, &line, timeout);
    keep(coordinator, conn, result)
}

/// Keeps `conn` for this thread's next call if the exchange on it
/// succeeded; closes it otherwise.
fn keep(
    coordinator: SocketAddr,
    conn: BufReader<TcpStream>,
    result: io::Result<Response>,
) -> io::Result<Response> {
    if result.is_ok() {
        let _ = KEPT.try_with(|slot| *slot.borrow_mut() = Some((coordinator, conn)));
    }
    result
}

/// Reads the next request line from an accepted control connection's
/// reader (one reader per connection, so pipelined lines survive).
///
/// # Errors
///
/// Propagates socket and parse errors; end of stream between requests is
/// `UnexpectedEof`, a line over the request cap is `InvalidData`.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let buf = read_line_capped(reader, MAX_REQUEST_LINE)?;
    Request::parse_json_line(&buf).map_err(invalid)
}

/// Writes one response line to an accepted control connection.
///
/// # Errors
///
/// Propagates socket and serialization errors.
pub fn write_response(mut stream: &TcpStream, response: &Response) -> io::Result<()> {
    let mut line = response.to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use curtain_overlay::NodeId;
    use curtain_telemetry::TraceContext;

    use std::net::TcpListener;

    fn ok_line() -> String {
        format!("{}\n", Response::Ok.to_json_line())
    }

    #[test]
    fn a_timeout_on_a_kept_connection_is_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers the first line, then reads on in silence.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut lines = BufReader::new(&stream).lines();
            let mut seen = 0;
            while let Some(Ok(_)) = lines.next() {
                seen += 1;
                if seen == 1 {
                    (&stream).write_all(ok_line().as_bytes()).unwrap();
                }
            }
            (listener, seen)
        });
        let timeout = Duration::from_millis(200);
        assert_eq!(call(addr, &Request::Stats, timeout).unwrap(), Response::Ok);
        let started = std::time::Instant::now();
        let err = call(addr, &Request::Stats, timeout).unwrap_err();
        let elapsed = started.elapsed();
        assert!(
            matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "{err:?}"
        );
        assert!(elapsed >= timeout && elapsed < 2 * timeout, "one timeout, not two: {elapsed:?}");
        // The timed-out connection was closed, which is what ends the
        // server's read loop: one connection, two lines, no third.
        let (listener, seen) = server.join().unwrap();
        assert_eq!(seen, 2);
        listener.set_nonblocking(true).unwrap();
        assert!(listener.accept().is_err(), "the timed-out request was sent again");
    }

    #[test]
    fn a_server_that_closes_after_every_response_is_still_served() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The pre-keep-alive coordinator: one request, one response, close.
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (stream, _) = listener.accept().unwrap();
                let mut line = String::new();
                BufReader::new(&stream).read_line(&mut line).unwrap();
                assert_eq!(Request::parse_json_line(&line).unwrap(), Request::Stats);
                (&stream).write_all(ok_line().as_bytes()).unwrap();
            }
        });
        for _ in 0..3 {
            assert_eq!(call(addr, &Request::Stats, Duration::from_secs(2)).unwrap(), Response::Ok);
        }
        server.join().unwrap();
    }

    #[test]
    fn round_trip_json() {
        let reqs = vec![
            Request::RegisterSource {
                data_addr: "127.0.0.1:9000".parse().unwrap(),
                generations: 3,
                generation_size: 16,
                packet_len: 1024,
                content_len: 40_000,
            },
            Request::Hello { data_addr: "127.0.0.1:1234".parse().unwrap() },
            Request::Goodbye { node: NodeId(3) },
            Request::Complaint {
                child: NodeId(4),
                failed_parent: Some(NodeId(1)),
                thread: 7,
                ctx: None,
            },
            Request::Complaint {
                child: NodeId(4),
                failed_parent: None,
                thread: 0,
                ctx: Some(TraceContext { trace: 0x1234_5678_9abc, span: 42 }),
            },
            Request::Completed { node: NodeId(9) },
            Request::Resync {
                node: NodeId(17),
                data_addr: "127.0.0.1:4444".parse().unwrap(),
                parents: vec![(0, Some(NodeId(2))), (3, None)],
                ctx: Some(TraceContext { trace: 7, span: 9 }),
            },
            Request::Resync {
                node: NodeId(0),
                data_addr: "127.0.0.1:4445".parse().unwrap(),
                parents: vec![],
                ctx: None,
            },
            Request::Stats,
            Request::SnapshotFetch,
            Request::WalTail { after: 0 },
            Request::WalTail { after: u64::MAX >> 1 },
        ];
        for r in reqs {
            let s = r.to_json_line();
            let back = Request::parse_json_line(&s).expect(&s);
            assert_eq!(back, r, "line: {s}");
        }
        let resps = vec![
            Response::Welcome {
                node: NodeId(1),
                generations: 3,
                generation_size: 16,
                packet_len: 1024,
                content_len: 40_000,
                parents: vec![
                    (0, ParentAddr::Source("127.0.0.1:9".parse().unwrap())),
                    (5, ParentAddr::Node(NodeId(2), "127.0.0.1:10".parse().unwrap())),
                ],
            },
            Response::Redirect {
                thread: 7,
                new_parent: ParentAddr::Node(NodeId(8), "127.0.0.1:11".parse().unwrap()),
            },
            Response::Stats { members: 4, completed: 2, repairs: 9 },
            Response::Ok,
            Response::Unavailable { reason: "wal degraded".into() },
            Response::Snapshot {
                seq: 41,
                record: r#"{"rec":"checkpoint","server":"{\"k\":4}"}"#.into(),
            },
            Response::WalSegment {
                last: 44,
                records: vec![
                    r#"{"rec":"goodbye","node":1}"#.into(),
                    r#"{"rec":"splice","node":2}"#.into(),
                ],
            },
            Response::WalSegment { last: 0, records: vec![] },
            Response::Error { reason: "no \"source\" yet\n".into() },
        ];
        for r in resps {
            let s = r.to_json_line();
            let back = Response::parse_json_line(&s).expect(&s);
            assert_eq!(back, r, "line: {s}");
        }
    }

    #[test]
    fn pre_tracing_lines_parse_with_no_context() {
        // A complaint emitted by an older (or untraced) peer carries no
        // trace/span fields; it must keep parsing, as "no context".
        let line = r#"{"req":"complaint","child":4,"failed_parent":1,"thread":7}"#;
        let parsed = Request::parse_json_line(line).unwrap();
        assert_eq!(
            parsed,
            Request::Complaint {
                child: NodeId(4),
                failed_parent: Some(NodeId(1)),
                thread: 7,
                ctx: None,
            }
        );
        // And a traced line round-trips its ids without loss.
        let traced = Request::Complaint {
            child: NodeId(4),
            failed_parent: Some(NodeId(1)),
            thread: 7,
            ctx: Some(TraceContext { trace: u64::MAX >> 1, span: 3 }),
        };
        let s = traced.to_json_line();
        assert!(s.contains("\"trace\""), "line: {s}");
        assert_eq!(Request::parse_json_line(&s).unwrap(), traced);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Request::parse_json_line("not json").is_err());
        assert!(Request::parse_json_line(r#"{"req":"wat"}"#).is_err());
        assert!(Request::parse_json_line(r#"{"node":1}"#).is_err(), "missing tag");
        assert!(Request::parse_json_line(r#"{"req":"goodbye"}"#).is_err(), "missing node");
        assert!(Response::parse_json_line(r#"{"resp":"redirect","thread":1}"#).is_err());
        assert!(
            Request::parse_json_line(r#"{"req":"hello","data_addr":"nonsense"}"#).is_err(),
            "bad addr"
        );
    }

    #[test]
    fn ipv6_addresses_round_trip() {
        let r = Request::Hello { data_addr: "[::1]:8080".parse().unwrap() };
        assert_eq!(Request::parse_json_line(&r.to_json_line()).unwrap(), r);
    }

    #[test]
    fn parent_addr_accessors() {
        let a: SocketAddr = "127.0.0.1:80".parse().unwrap();
        assert_eq!(ParentAddr::Source(a).addr(), a);
        assert_eq!(ParentAddr::Source(a).node(), None);
        assert_eq!(ParentAddr::Node(NodeId(5), a).node(), Some(NodeId(5)));
    }
}

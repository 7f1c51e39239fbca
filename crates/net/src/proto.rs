//! Control-plane messages at `SocketAddr`, plus the blocking TCP call
//! helpers.
//!
//! The protocol itself — message shapes, JSON wire form, parsing — lives
//! in the sans-io core ([`crate::core::ctrl`]), generic over the address
//! type. This module pins it to `std::net::SocketAddr` for the TCP
//! driver (the type aliases keep every existing call site compiling
//! unchanged) and adds the one-connection-per-request I/O:
//! [`call`], [`read_request`], [`write_response`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::core::ctrl::{CtrlParent, CtrlRequest, CtrlResponse, WireAddr};
use crate::core::wire::MAX_REQUEST_LINE;
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

/// Reads one line of at most `cap` bytes: a peer that streams bytes
/// without a newline must not grow this process's heap without bound.
fn read_line_capped(stream: &TcpStream, cap: u64) -> io::Result<String> {
    let mut buf = String::new();
    BufReader::new(stream.take(cap)).read_line(&mut buf)?;
    if buf.len() as u64 >= cap && !buf.ends_with('\n') {
        return Err(invalid(format!("control line exceeds {cap} bytes")));
    }
    Ok(buf)
}

/// Sends one request and reads one response over a fresh connection.
///
/// # Errors
///
/// Propagates socket and serialization errors; the per-call timeout guards
/// both connect and read.
pub fn call(coordinator: SocketAddr, request: &Request, timeout: Duration) -> io::Result<Response> {
    let stream = TcpStream::connect_timeout(&coordinator, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    let mut line = request.to_json_line();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()?;
    let buf = read_line_capped(&stream, MAX_RESPONSE_LINE)?;
    if buf.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "empty response"));
    }
    Response::parse_json_line(&buf).map_err(invalid)
}

/// Reads one request line from an accepted control connection.
///
/// # Errors
///
/// Propagates socket and parse errors; a line over the request cap is
/// `InvalidData`.
pub fn read_request(stream: &TcpStream) -> io::Result<Request> {
    let buf = read_line_capped(stream, MAX_REQUEST_LINE)?;
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
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use curtain_overlay::NodeId;
    use curtain_telemetry::TraceContext;

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

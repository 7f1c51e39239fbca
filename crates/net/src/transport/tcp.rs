//! The blocking TCP backend: thread-per-connection, production-shaped.
//!
//! This is the transport the `curtain_peer`/`curtain_coordinator`/
//! `curtain_source` bins and every pre-existing soak run on. The peer,
//! source, and coordinator drivers each own an accept loop and a set of
//! per-connection worker threads; the protocol decisions those workers
//! make all live in [`crate::core`] — what remains here is the socket
//! idiom they share:
//!
//! * data-plane listeners are loopback-bound, non-blocking, and polled
//!   via [`poll_accept`] so `stop` flags interrupt the loop promptly;
//! * upstream links dial with a bounded [`dial`] timeout and read with a
//!   short socket timeout so liveness checks (see
//!   [`crate::core::peer::LinkLiveness`]) run even on a silent link.
//!
//! Frames on a TCP stream use the length-prefixed stream framing from
//! [`crate::framing`].

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// How long the accept poll sleeps when no connection is pending.
pub const ACCEPT_IDLE: Duration = Duration::from_millis(2);

/// How long a serve loop sleeps when its link is owed nothing (or its
/// holder has rank 0 yet) before asking the link's
/// [`SendLedger`](crate::core::peer::SendLedger) again — the idle
/// interval after which the ledger hands out one un-booked trickle frame.
pub const SERVE_IDLE: Duration = Duration::from_millis(2);

/// Binds a fresh loopback data-plane listener and switches it to
/// non-blocking accepts.
///
/// # Errors
///
/// Propagates bind failures.
pub fn bind_data_listener() -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    Ok((listener, addr))
}

/// One non-blocking accept poll: `Ok(Some)` on a connection, `Ok(None)`
/// after sleeping [`ACCEPT_IDLE`] when none is pending (so callers can
/// re-check their stop flag), `Err` on a dead listener.
///
/// # Errors
///
/// Propagates accept failures other than `WouldBlock`.
pub fn poll_accept(listener: &TcpListener) -> io::Result<Option<TcpStream>> {
    match listener.accept() {
        Ok((stream, _)) => Ok(Some(stream)),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            std::thread::sleep(ACCEPT_IDLE);
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Dials a data-plane peer with a bounded connect timeout.
///
/// # Errors
///
/// Propagates connect failures and timeouts.
pub fn dial(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    TcpStream::connect_timeout(&addr, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_accept_is_nonblocking_and_delivers_connections() {
        let (listener, addr) = bind_data_listener().expect("bind");
        assert!(poll_accept(&listener).expect("poll").is_none(), "nothing pending yet");
        let _client = dial(addr, Duration::from_secs(2)).expect("dial");
        // The connection may need a beat to land in the accept queue.
        let mut accepted = None;
        for _ in 0..100 {
            if let Some(s) = poll_accept(&listener).expect("poll") {
                accepted = Some(s);
                break;
            }
        }
        assert!(accepted.is_some(), "dialed connection never surfaced");
    }
}

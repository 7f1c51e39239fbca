//! The blocking TCP backend: thread-per-connection, production-shaped.
//!
//! This is the transport the `curtain_peer`/`curtain_coordinator`/
//! `curtain_source` bins and every pre-existing soak run on. The peer,
//! source, and coordinator drivers each own an accept loop and a set of
//! per-connection worker threads; the protocol decisions those workers
//! make all live in [`crate::core`] — what remains here is the socket
//! idiom they share:
//!
//! * listeners block: an accept loop sits in [`accept_next`] and costs
//!   nothing while no one dials. Stopping one is a flag plus a
//!   self-connect ([`stop_accept_loop`]): the loop re-reads its `stop`
//!   flag after every accept and drops the waking connection unserved.
//!   An accept *error* never ends a loop — only `stop` does;
//! * upstream links dial with a bounded [`dial`] timeout and read with a
//!   short socket timeout so liveness checks (see
//!   [`crate::core::peer::LinkLiveness`]) run even on a silent link.
//!
//! Frames on a TCP stream use the length-prefixed stream framing from
//! [`crate::framing`].

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use curtain_telemetry::SharedRecorder;

/// How long a serve loop sleeps when its link is owed nothing (or its
/// holder has rank 0 yet) before asking the link's
/// [`SendLedger`](crate::core::peer::SendLedger) again — the idle
/// interval after which the ledger hands out one un-booked trickle frame.
pub const SERVE_IDLE: Duration = Duration::from_millis(2);

/// How long an accept loop waits before retrying after an error that
/// does not clear by itself (descriptor or memory exhaustion): long
/// enough not to spin, short enough that a join storm barely notices.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on the self-connect that wakes a blocked accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Binds a fresh loopback data-plane listener (blocking).
///
/// # Errors
///
/// Propagates bind failures.
pub fn bind_data_listener() -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// Whether a failed `accept` may be retried at once. A connection that
/// died in the backlog (`ECONNABORTED`, or the pending network errors
/// Linux reports through `accept`) and a signal (`EINTR`) say nothing
/// about the listener; everything else — `EMFILE`/`ENFILE`/`ENOBUFS`/
/// `ENOMEM` and whatever this list does not know — waits out
/// [`ACCEPT_BACKOFF`] first rather than spin.
fn retry_at_once(kind: io::ErrorKind) -> bool {
    use io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted};
    matches!(kind, ConnectionAborted | ConnectionReset | Interrupted)
}

/// Blocks until the next connection to serve, or `None` once `stop` is
/// set (see [`stop_accept_loop`]) — the only way an accept loop ends.
/// `stop` is re-read after every accept, so the waking connection, or a
/// real one racing it, is dropped unserved. Accept errors are counted
/// (`accept_errors`) and retried, at once or after a short fixed
/// back-off by kind: one aborted handshake or a descriptor shortage
/// during a join storm must not end a listener for good.
pub fn accept_next(
    listener: &TcpListener,
    stop: &AtomicBool,
    recorder: &SharedRecorder,
) -> Option<TcpStream> {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match accepted {
            Ok((stream, _)) => return Some(stream),
            Err(e) => {
                recorder.counter("accept_errors", 1);
                if !retry_at_once(e.kind()) {
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    }
}

/// Stops the accept loop on the listener bound at `listener_addr`: sets
/// `stop`, then wakes the blocked [`accept_next`] with one throw-away
/// connection. `listener_addr` must be the listener's own
/// `local_addr()`, never an advertised address a proxy may front. Only
/// the first call dials, so a `shutdown` followed by `Drop` does not
/// poke a port that may have a new owner by then. A failed dial is
/// ignored: the loop it was meant for is then not blocked in `accept`
/// either (backlog full, or out of descriptors and backing off).
pub fn stop_accept_loop(stop: &AtomicBool, listener_addr: SocketAddr) {
    if !stop.swap(true, Ordering::SeqCst) {
        let _ = dial(listener_addr, WAKE_TIMEOUT);
    }
}

/// One blocking accept in the shape the benchmark's ladder calls
/// (`perf/src/ladder.rs`, which only a `benchmark` PR may edit). On a
/// blocking listener it never returns `Ok(None)`. Nothing in the
/// workspace calls it; it goes when the ladder moves to `accept`.
///
/// # Errors
///
/// Propagates accept failures.
pub fn poll_accept(listener: &TcpListener) -> io::Result<Option<TcpStream>> {
    listener.accept().map(|(stream, _)| Some(stream))
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
    use std::sync::Arc;

    #[test]
    fn a_blocked_accept_returns_the_dialled_connection_and_nothing_after_stop() {
        let (listener, addr) = bind_data_listener().expect("bind");
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let recorder = SharedRecorder::null();
                while let Some(stream) = accept_next(&listener, &stop, &recorder) {
                    tx.send(stream.peer_addr().expect("peer addr")).expect("send");
                }
            })
        };
        let client = dial(addr, Duration::from_secs(2)).expect("dial");
        let seen = rx.recv_timeout(Duration::from_secs(5)).expect("accept never returned");
        assert_eq!(seen, client.local_addr().expect("local addr"));
        stop_accept_loop(&stop, addr);
        acceptor.join().expect("accept thread");
        assert!(rx.try_recv().is_err(), "the waking connection must not be served");
    }

    #[test]
    fn accept_errors_are_retried_at_once_or_after_a_back_off() {
        use io::ErrorKind as K;
        let table = [
            (K::ConnectionAborted, true),
            (K::ConnectionReset, true),
            (K::Interrupted, true),
            // A listener someone switched to non-blocking must not spin.
            (K::WouldBlock, false),
            (K::OutOfMemory, false),
            (K::Other, false),
            (K::InvalidInput, false),
        ];
        for (kind, at_once) in table {
            assert_eq!(retry_at_once(kind), at_once, "{kind:?}");
        }
        // EMFILE and ENFILE have no stable `ErrorKind` of their own; they
        // must back off whatever std calls them.
        for errno in [24, 23] {
            let kind = io::Error::from_raw_os_error(errno).kind();
            assert!(!retry_at_once(kind), "errno {errno}: {kind:?}");
        }
    }
}

//! Fault injection for the data and control planes: a TCP proxy that can
//! drop, delay, truncate mid-frame, partition, or hard-close any link.
//!
//! Wrap any peer/source data listener — or the coordinator's control
//! port — behind a [`FaultProxy`] and the traffic flows through a pair of
//! pump threads per connection. The active [`Fault`] is consulted on
//! every forwarded chunk, so faults can be switched on and off while
//! connections are live:
//!
//! ```no_run
//! use curtain_net::{Fault, FaultProxy};
//! use std::time::Duration;
//!
//! # fn main() -> std::io::Result<()> {
//! let upstream = "127.0.0.1:9000".parse().unwrap();
//! let proxy = FaultProxy::start(upstream)?;
//! // ... point clients at proxy.addr() instead of `upstream` ...
//! proxy.set_fault(Fault::Blackhole);          // partition: silence, sockets stay up
//! std::thread::sleep(Duration::from_millis(200));
//! proxy.set_fault(Fault::None);               // heal — byte stream resumes intact
//! proxy.cut();                                // crash: hard-close every live link
//! # Ok(())
//! # }
//! ```
//!
//! `Blackhole` deliberately stops *reading* rather than reading-and-
//! discarding: TCP backpressure holds the in-flight bytes, so healing the
//! partition resumes the stream without corrupting frame boundaries.
//! `Truncate` does the opposite — it forwards a bounded number of bytes
//! and then hard-closes, which lands mid-frame unless the bound happens
//! to align, exercising the `UnexpectedEof` repair path.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::lock;

/// What the proxy currently does to traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward everything (the healthy state).
    None,
    /// Refuse service: new connections are accepted and immediately
    /// closed, existing pumps keep running.
    Refuse,
    /// Partition: connections stay open but no bytes move in either
    /// direction until the fault is cleared.
    Blackhole,
    /// Add this much latency to every forwarded chunk.
    Delay(Duration),
    /// Forward at most this many more bytes per direction, then
    /// hard-close the connection (typically mid-frame).
    Truncate(u64),
}

struct ProxyShared {
    upstream: SocketAddr,
    stop: AtomicBool,
    /// Bumped by [`FaultProxy::cut`]; pumps bound to an older epoch
    /// close their sockets and exit.
    epoch: AtomicU64,
    fault: Mutex<Fault>,
    /// Live sockets, so `cut` can wake pumps blocked in reads/writes.
    live: Mutex<Vec<TcpStream>>,
    forwarded: AtomicU64,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// A running fault-injecting TCP proxy in front of one upstream address.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds `127.0.0.1:0` and starts proxying to `upstream` with no
    /// fault active.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(upstream: SocketAddr) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ProxyShared {
            upstream,
            stop: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            fault: Mutex::new(Fault::None),
            live: Mutex::new(Vec::new()),
            forwarded: AtomicU64::new(0),
            pumps: Mutex::new(Vec::new()),
        });
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(FaultProxy { addr, shared, accept_handle: Some(accept_handle) })
    }

    /// The address clients dial instead of the upstream.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switches the active fault (applies to live and future connections).
    /// Live pumps consult the fault once per cycle, so a switch takes
    /// effect within ~50ms; a chunk already in flight may still be
    /// forwarded under the previous fault.
    pub fn set_fault(&self, fault: Fault) {
        *lock(&self.shared.fault) = fault;
    }

    /// The currently active fault.
    #[must_use]
    pub fn fault(&self) -> Fault {
        *lock(&self.shared.fault)
    }

    /// Hard-closes every live proxied connection (new ones still accept
    /// under the current fault) — the "parent crashed" signal.
    pub fn cut(&self) {
        self.shared.epoch.fetch_add(1, Ordering::SeqCst);
        let mut live = lock(&self.shared.live);
        for s in live.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Total bytes accepted for forwarding (both directions, across all
    /// connections): a chunk is counted just before it is written on,
    /// so a reader downstream never observes bytes this has not counted.
    #[must_use]
    pub fn forwarded_bytes(&self) -> u64 {
        self.shared.forwarded.load(Ordering::SeqCst)
    }

    /// Stops accepting, closes every connection, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.cut();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let pumps: Vec<_> = lock(&self.shared.pumps).drain(..).collect();
        for h in pumps {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop_now();
    }
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy")
            .field("addr", &self.addr)
            .field("upstream", &self.shared.upstream)
            .field("fault", &self.fault())
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                if matches!(*lock(&shared.fault), Fault::Refuse) {
                    drop(client); // immediate close: connection refused-ish
                    continue;
                }
                let Ok(upstream) =
                    TcpStream::connect_timeout(&shared.upstream, Duration::from_secs(2))
                else {
                    drop(client);
                    continue;
                };
                let epoch = shared.epoch.load(Ordering::SeqCst);
                spawn_pumps(shared, client, upstream, epoch);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Starts the two one-directional pump threads for a proxied connection.
fn spawn_pumps(
    shared: &Arc<ProxyShared>,
    client: TcpStream,
    upstream: TcpStream,
    epoch: u64,
) {
    let register = |s: &TcpStream| s.try_clone().ok();
    {
        let mut live = lock(&shared.live);
        if let Some(c) = register(&client) {
            live.push(c);
        }
        if let Some(u) = register(&upstream) {
            live.push(u);
        }
    }
    let pairs = [
        (client.try_clone(), upstream.try_clone()),
        (Ok(upstream), Ok(client)),
    ];
    let mut pumps = lock(&shared.pumps);
    for (from, to) in pairs {
        let (Ok(from), Ok(to)) = (from, to) else { continue };
        let shared = Arc::clone(shared);
        pumps.push(std::thread::spawn(move || {
            pump(&shared, &from, &to, epoch);
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
        }));
    }
}

/// Copies bytes `from → to`, consulting the active fault per chunk.
fn pump(shared: &ProxyShared, mut from: &TcpStream, mut to: &TcpStream, epoch: u64) {
    if from.set_read_timeout(Some(Duration::from_millis(50))).is_err() {
        return;
    }
    let _ = to.set_write_timeout(Some(Duration::from_secs(2)));
    let mut remaining_budget: Option<u64> = None; // engaged by Truncate
    let mut buf = [0u8; 8 * 1024];
    loop {
        if shared.stop.load(Ordering::SeqCst)
            || shared.epoch.load(Ordering::SeqCst) != epoch
        {
            return;
        }
        let fault = *lock(&shared.fault);
        if matches!(fault, Fault::Blackhole) {
            // Stop pulling; TCP backpressure parks the stream intact.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        match from.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                let mut n = n;
                match fault {
                    Fault::Delay(d) => std::thread::sleep(d),
                    Fault::Truncate(limit) => {
                        let left = *remaining_budget.get_or_insert(limit);
                        if left == 0 {
                            return; // budget exhausted: hard-close (mid-frame)
                        }
                        n = n.min(usize::try_from(left).unwrap_or(usize::MAX));
                        remaining_budget = Some(left - n as u64);
                    }
                    _ => {}
                }
                // Account before the write: whoever sees these bytes
                // downstream must already find them counted.
                shared.forwarded.fetch_add(n as u64, Ordering::SeqCst);
                if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial line-echo upstream; returns its address.
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut out = stream;
                    let mut line = String::new();
                    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                        if out.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        addr
    }

    fn roundtrip(stream: &TcpStream, msg: &str) -> io::Result<String> {
        let mut w = stream;
        w.write_all(msg.as_bytes())?;
        w.flush()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        Ok(line)
    }

    #[test]
    fn passthrough_echoes() {
        let proxy = FaultProxy::start(echo_server()).unwrap();
        let stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(roundtrip(&stream, "hi\n").unwrap(), "hi\n");
        assert!(proxy.forwarded_bytes() >= 6);
        proxy.shutdown();
    }

    #[test]
    fn refuse_drops_new_connections_only() {
        let proxy = FaultProxy::start(echo_server()).unwrap();
        let existing = TcpStream::connect(proxy.addr()).unwrap();
        existing.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // A round-trip proves the accept loop has picked this connection
        // up; a kernel-accepted-but-not-yet-pumped socket would be
        // dropped by the Refuse check below.
        assert_eq!(roundtrip(&existing, "pre\n").unwrap(), "pre\n");
        proxy.set_fault(Fault::Refuse);
        // A new connection gets no service: reads hit EOF.
        let refused = TcpStream::connect(proxy.addr()).unwrap();
        refused.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(roundtrip(&refused, "hello\n").is_err());
        // The pre-existing connection still works.
        assert_eq!(roundtrip(&existing, "still\n").unwrap(), "still\n");
        proxy.shutdown();
    }

    #[test]
    fn cut_hard_closes_live_connections() {
        let proxy = FaultProxy::start(echo_server()).unwrap();
        let stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(roundtrip(&stream, "a\n").unwrap(), "a\n");
        proxy.cut();
        std::thread::sleep(Duration::from_millis(100));
        assert!(roundtrip(&stream, "b\n").is_err(), "cut link still echoed");
        // New connections work again (cut is not a lasting fault).
        let fresh = TcpStream::connect(proxy.addr()).unwrap();
        fresh.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(roundtrip(&fresh, "c\n").unwrap(), "c\n");
        proxy.shutdown();
    }

    #[test]
    fn blackhole_stalls_then_heals_without_corruption() {
        let proxy = FaultProxy::start(echo_server()).unwrap();
        let stream = TcpStream::connect(proxy.addr()).unwrap();
        assert_eq!(roundtrip(&stream, "pre\n").unwrap(), "pre\n");
        proxy.set_fault(Fault::Blackhole);
        // Let every pump complete its current ≤50ms cycle and observe
        // the fault before any more bytes are offered.
        std::thread::sleep(Duration::from_millis(120));
        // Nothing comes back while partitioned.
        {
            let mut w = &stream;
            w.write_all(b"during\n").unwrap();
            w.flush().unwrap();
        }
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        assert!(reader.read_line(&mut line).is_err(), "partition leaked: {line:?}");
        // Heal: the byte written during the partition arrives intact.
        proxy.set_fault(Fault::None);
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "during\n");
        proxy.shutdown();
    }

    #[test]
    fn truncate_closes_mid_stream() {
        let proxy = FaultProxy::start(echo_server()).unwrap();
        proxy.set_fault(Fault::Truncate(4));
        let stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        {
            let mut w = &stream;
            w.write_all(b"0123456789\n").unwrap();
            w.flush().unwrap();
        }
        // At most 4 bytes of the 11 survive in each direction; then the
        // connection is hard-closed.
        let mut got = Vec::new();
        let mut r = stream.try_clone().unwrap();
        let _ = r.read_to_end(&mut got);
        assert!(got.len() <= 4, "truncation leaked {} bytes", got.len());
        proxy.shutdown();
    }
}

//! The source: splits content into generations and streams coded packets
//! to every subscriber.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;


use curtain_rlnc::pipeline::ObjectEncoder;
use curtain_rlnc::Content;
use curtain_telemetry::trace::{wall_micros, NO_PARENT, SOURCE_NODE};
use curtain_telemetry::{Event, SharedRecorder, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::core::peer::{Pick, SendLedger};
use crate::core::source::{self, Window};
use crate::transport::tcp;
use crate::framing;
use crate::lock;
use crate::proto::{self, Request, Response};

/// A source that has bound its data port but not yet registered with a
/// coordinator.
///
/// Splitting the lifecycle lets tests interpose a [`crate::FaultProxy`]
/// between the registration and the data plane: bind first, learn
/// [`PendingSource::data_addr`], start a proxy in front of it, then
/// [`PendingSource::register_as`] the *proxy's* address. The coordinator
/// rejects re-registration at a different address (a hijack guard), so the
/// advertised address must be chosen before the first registration.
pub struct PendingSource {
    listener: TcpListener,
    data_addr: SocketAddr,
    encoder: Arc<ObjectEncoder>,
    generations: usize,
    generation_size: usize,
    packet_len: usize,
    content_len: usize,
    pace: Duration,
    recorder: SharedRecorder,
    trace: bool,
    window: Option<usize>,
}

impl PendingSource {
    /// Binds a data port for `content`, cut into one generation of
    /// `generation_size` packets (convenience for small objects).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics if `content` is empty or `generation_size == 0`.
    pub fn bind(content: &[u8], generation_size: usize, pace: Duration) -> io::Result<Self> {
        assert!(!content.is_empty(), "content must be non-empty");
        assert!(generation_size > 0, "generation size must be positive");
        let packet_len = content.len().div_ceil(generation_size);
        Self::bind_with_shape(content, generation_size, packet_len, pace)
    }

    /// Binds a data port with an explicit `(generation_size, packet_len)`
    /// shape; the object becomes `ceil(len / (g·s))` generations.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics on empty content or zero shape parameters.
    pub fn bind_with_shape(
        content: &[u8],
        generation_size: usize,
        packet_len: usize,
        pace: Duration,
    ) -> io::Result<Self> {
        assert!(!content.is_empty(), "content must be non-empty");
        let split = Content::split(content, generation_size, packet_len);
        let generations = split.generations().len();
        let content_len = content.len();
        let encoder = Arc::new(ObjectEncoder::new(split));
        let (listener, data_addr) = tcp::bind_data_listener()?;
        Ok(PendingSource {
            listener,
            data_addr,
            encoder,
            generations,
            generation_size,
            packet_len,
            content_len,
            pace,
            recorder: SharedRecorder::null(),
            trace: false,
            window: None,
        })
    }

    /// Serves a sliding window of `window` generations instead of
    /// round-robinning the whole object: each subscriber stream cuts
    /// generations in order, mixes only the window's generations, and
    /// stamps every frame with the window base
    /// ([`crate::framing::WINDOW_FLAG`]) so peers recode within the
    /// active window. The window parks over the object's tail once it
    /// reaches the end.
    ///
    /// Peers that predate the flag reject the stamped frames as a framing
    /// error, so only enable this on overlays where every node speaks it.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn windowed(mut self, window: usize) -> Self {
        assert!(window > 0, "window must cover at least one generation");
        self.window = Some(window);
        self
    }

    /// Attaches a telemetry recorder and (optionally) turns on causal
    /// tracing: every packet leaving the source is stamped with a fresh
    /// root [`TraceContext`] carried as a frame extension, plus a
    /// `HopSend` event labelled [`SOURCE_NODE`]. With `trace` off the
    /// wire format is byte-identical to an unobserved source.
    #[must_use]
    pub fn observed(mut self, recorder: SharedRecorder, trace: bool) -> Self {
        self.recorder = recorder;
        self.trace = trace;
        self
    }

    /// The bound data-plane address (children dial this — or a proxy in
    /// front of it).
    #[must_use]
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// Registers the bound address with the coordinator and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// Propagates registration failures.
    pub fn register(self, coordinator: SocketAddr) -> io::Result<Source> {
        let advertised = self.data_addr;
        self.register_as(coordinator, advertised)
    }

    /// Registers `advertised` (e.g. a fault-proxy front) as this source's
    /// address with the coordinator, then starts serving on the bound
    /// port.
    ///
    /// # Errors
    ///
    /// Propagates registration failures (including the coordinator's
    /// duplicate-source rejection).
    pub fn register_as(self, coordinator: SocketAddr, advertised: SocketAddr) -> io::Result<Source> {
        // Register before serving so the first Hello already has us.
        let request = Request::RegisterSource {
            data_addr: advertised,
            generations: self.generations,
            generation_size: self.generation_size,
            packet_len: self.packet_len,
            content_len: self.content_len,
        };
        let resp = proto::call(coordinator, &request, Duration::from_secs(5))?;
        if resp != Response::Ok {
            return Err(io::Error::other(format!("registration rejected: {resp:?}")));
        }

        let stop = Arc::new(AtomicBool::new(false));
        let subscribers = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let listener = self.listener;
            let stop = Arc::clone(&stop);
            let encoder = Arc::clone(&self.encoder);
            let subscribers = Arc::clone(&subscribers);
            let pace = self.pace;
            let seed = Arc::new(AtomicU64::new(0x50u64));
            let recorder = self.recorder.clone();
            let trace = self.trace;
            let generation_size = self.generation_size;
            let window = self.window.map(|w| Window { span: w, generation_size });
            std::thread::spawn(move || {
                while let Some(stream) = tcp::accept_next(&listener, &stop, &recorder) {
                    let worker_stop = Arc::clone(&stop);
                    let encoder = Arc::clone(&encoder);
                    let s = seed.fetch_add(1, Ordering::SeqCst);
                    let recorder = recorder.clone();
                    let handle = std::thread::spawn(move || {
                        let _ = serve_subscriber(
                            &stream,
                            &encoder,
                            generation_size,
                            &worker_stop,
                            pace,
                            s,
                            &recorder,
                            trace,
                            window,
                        );
                    });
                    let mut subs = lock(&subscribers);
                    subs.retain(|h: &JoinHandle<()>| !h.is_finished());
                    subs.push(handle);
                }
            })
        };
        Ok(Source {
            coordinator,
            advertised,
            data_addr: self.data_addr,
            stop,
            accept_handle: Some(accept_handle),
            subscribers,
            generations: self.generations,
            generation_size: self.generation_size,
            packet_len: self.packet_len,
            content_len: self.content_len,
        })
    }
}

impl std::fmt::Debug for PendingSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingSource")
            .field("data_addr", &self.data_addr)
            .field("generation_size", &self.generation_size)
            .finish()
    }
}

/// A running source (the content origin).
///
/// Registers with the coordinator, then serves an unbounded stream of
/// fresh random combinations to every child that subscribes — the server
/// side of the curtain's `k` threads. Content is split into generations
/// ([CWJ03]) so decoding cost stays bounded for arbitrarily large objects;
/// each subscriber is sent every generation whole, round-robin, and then a
/// slow trickle (see [`crate::core::source`]).
pub struct Source {
    coordinator: SocketAddr,
    advertised: SocketAddr,
    data_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    subscribers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    generations: usize,
    generation_size: usize,
    packet_len: usize,
    content_len: usize,
}

impl Source {
    /// Starts a source for `content`, cut into one generation of
    /// `generation_size` packets (convenience for small objects).
    ///
    /// # Errors
    ///
    /// Propagates bind/registration failures.
    ///
    /// # Panics
    ///
    /// Panics if `content` is empty or `generation_size == 0`.
    pub fn start(
        coordinator: SocketAddr,
        content: &[u8],
        generation_size: usize,
        pace: Duration,
    ) -> io::Result<Self> {
        PendingSource::bind(content, generation_size, pace)?.register(coordinator)
    }

    /// Starts a source with an explicit `(generation_size, packet_len)`
    /// shape; the object becomes `ceil(len / (g·s))` generations — the
    /// production path for large files.
    ///
    /// # Errors
    ///
    /// Propagates bind/registration failures.
    ///
    /// # Panics
    ///
    /// Panics on empty content or zero shape parameters.
    pub fn start_with_shape(
        coordinator: SocketAddr,
        content: &[u8],
        generation_size: usize,
        packet_len: usize,
        pace: Duration,
    ) -> io::Result<Self> {
        PendingSource::bind_with_shape(content, generation_size, packet_len, pace)?
            .register(coordinator)
    }

    /// Re-sends the original registration — for a coordinator that was
    /// restarted *without* its WAL and therefore forgot the source. The
    /// same advertised address is used, so a coordinator that still knows
    /// it treats this as an idempotent restart.
    ///
    /// # Errors
    ///
    /// Propagates call failures and coordinator rejections.
    pub fn reregister(&self) -> io::Result<()> {
        let resp = proto::call(
            self.coordinator,
            &Request::RegisterSource {
                data_addr: self.advertised,
                generations: self.generations,
                generation_size: self.generation_size,
                packet_len: self.packet_len,
                content_len: self.content_len,
            },
            Duration::from_secs(5),
        )?;
        if resp != Response::Ok {
            return Err(io::Error::other(format!("re-registration rejected: {resp:?}")));
        }
        Ok(())
    }

    /// The data-plane address children dial.
    #[must_use]
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// The address the coordinator hands to children (differs from
    /// [`Source::data_addr`] when a proxy fronts the source).
    #[must_use]
    pub fn advertised_addr(&self) -> SocketAddr {
        self.advertised
    }

    /// Number of generations.
    #[must_use]
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// Packets per generation.
    #[must_use]
    pub fn generation_size(&self) -> usize {
        self.generation_size
    }

    /// Bytes per packet (after padding).
    #[must_use]
    pub fn packet_len(&self) -> usize {
        self.packet_len
    }

    /// Stops serving (children will complain and be told the source is
    /// still the registered parent — use this to emulate source departure).
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        // The bound address, not the advertised one: a fault proxy may
        // front the latter, and the wake must reach the listener itself.
        tcp::stop_accept_loop(&self.stop, self.data_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Accept loop is joined, so the subscriber list is final; join
        // every serving thread so shutdown really quiesces the source.
        let subs: Vec<_> = lock(&self.subscribers).drain(..).collect();
        for h in subs {
            let _ = h.join();
        }
    }
}

impl Drop for Source {
    fn drop(&mut self) {
        self.stop_now();
    }
}

impl std::fmt::Debug for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Source")
            .field("data_addr", &self.data_addr)
            .field("generation_size", &self.generation_size)
            .finish()
    }
}

/// Serves one subscriber stream — one of the server's `k` unit threads.
///
/// A plain stream is the same send ledger a peer's child link runs, with
/// `rank ≡ generation_size` ([`source::pick`]): every generation is sent
/// whole once (the plain round-robin, one frame per `pace`), after which
/// nothing is owed and the stream drops to one un-booked trickle frame per
/// [`tcp::SERVE_IDLE`]. A windowed stream follows [`Window`] instead.
/// Every stream mixes from the one shared encoder; only the ledger (or the
/// emission counter) is per subscriber.
#[allow(clippy::too_many_arguments)]
fn serve_subscriber(
    stream: &TcpStream,
    encoder: &ObjectEncoder,
    generation_size: usize,
    stop: &AtomicBool,
    pace: Duration,
    seed: u64,
    recorder: &SharedRecorder,
    trace: bool,
    window: Option<Window>,
) -> io::Result<()> {
    let _sub = framing::read_subscribe_deadline(stream, stop, Duration::from_secs(5))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let generations = encoder.generation_count();
    let mut link = SendLedger::new(generations);
    let mut idled = false;
    let mut out = stream.try_clone()?;
    out.set_write_timeout(Some(Duration::from_secs(2)))?;
    let tracing = trace && recorder.is_enabled();
    let mut scratch = Vec::new();
    let mut emitted: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        // A windowed stream cuts generations in order and mixes only the
        // active window, stamping each frame with the base; the plain
        // path asks its ledger and goes out unstamped.
        let (pick, base) = match window {
            Some(w) => {
                let base = w.base(emitted, generations) as u32;
                // Scheduled by the window, not a ledger; counted with the
                // owed frames because it is not a trickle.
                (Pick::Owed(w.pick(emitted, generations)), Some(base))
            }
            None => match source::pick(&mut link, generation_size, idled) {
                Some(pick) => (pick, None),
                None => {
                    recorder.counter("serve_idle_ticks", 1);
                    // A trickling stream no longer pushes its own events
                    // out of the trace writer's buffer; without this the
                    // `HopSend` of a frame a peer has long received sits
                    // there until the process is killed, and that peer's
                    // chain never stitches back to the source.
                    let _ = recorder.flush();
                    std::thread::sleep(tcp::SERVE_IDLE);
                    idled = true;
                    continue;
                }
            },
        };
        idled = false;
        let packet = encoder.packet_for(pick.generation() as u32, &mut rng);
        emitted += 1;
        // Packet birth: mint the root of a fresh causal chain. Stitching
        // later declares a delivery chain complete exactly when its parent
        // walk reaches one of these SOURCE_NODE hops.
        let ctx = if tracing {
            let ctx = TraceContext::root();
            recorder.record(&Event::HopSend {
                trace: ctx.trace,
                span: ctx.span,
                parent: NO_PARENT,
                node: SOURCE_NODE,
                generation: packet.generation(),
                t_us: wall_micros(),
            });
            Some(ctx)
        } else {
            None
        };
        if framing::write_frame_tagged_into(&mut out, &packet, ctx, base, &mut scratch).is_err() {
            break; // subscriber went away
        }
        recorder.counter(pick.counter(), 1);
        std::thread::sleep(pace);
    }
    Ok(())
}

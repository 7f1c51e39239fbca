//! Warm-standby coordinator: snapshot bootstrap, WAL tailing, and
//! promotion on primary failure.
//!
//! The standby owns a WAL of its *own* — there is no shared filesystem.
//! It bootstraps by fetching a full checkpoint over the control port
//! (`Request::SnapshotFetch`), then polls `Request::WalTail` to stream
//! every durable mutation into its log. When the primary stops
//! answering for [`StandbyOptions::fail_threshold`] consecutive polls,
//! the standby promotes itself: it replays its shipped log *at the
//! primary's address* (so surviving peers keep dialing the same
//! coordinator address), fences the id allocator with an epoch bump
//! (see [`Coordinator::fenced_next_id`] — shipped history may be
//! missing grants the primary admitted but never shipped), and kicks
//! off a proactive resync sweep to repopulate anything the shipped
//! history missed.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use curtain_overlay::OverlayConfig;
use curtain_telemetry::{Event, SharedRecorder};

use crate::coordinator::Coordinator;
use crate::core::standby::{FollowDirective, FollowEvent, FollowStep, FollowerCore};
use crate::lock;
use crate::proto::{self, Request, Response};
use crate::wal::{Wal, WalOptions, WalRecord};

/// Per-request timeout when talking to the primary.
const CALL_TIMEOUT: Duration = Duration::from_secs(2);

/// How a warm standby follows (and eventually replaces) a primary.
#[derive(Debug, Clone)]
pub struct StandbyOptions {
    /// The primary's control address — polled while it lives, inherited
    /// when it dies.
    pub primary: SocketAddr,
    /// The standby's own log (shipped records land here).
    pub wal: WalOptions,
    /// Overlay shape; must match the primary's.
    pub config: OverlayConfig,
    /// RNG seed for the promoted coordinator's thread assignments.
    pub seed: u64,
    /// Delay between `WalTail` polls.
    pub poll_interval: Duration,
    /// Consecutive failed polls before the standby declares the primary
    /// dead and promotes itself.
    pub fail_threshold: u32,
}

impl StandbyOptions {
    /// Defaults: 100 ms polls, promotion after 5 consecutive failures
    /// (~½ s of primary silence).
    pub fn new(primary: SocketAddr, wal: WalOptions, config: OverlayConfig) -> Self {
        StandbyOptions {
            primary,
            wal,
            config,
            seed: 0xC0DE,
            poll_interval: Duration::from_millis(100),
            fail_threshold: 5,
        }
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the poll cadence.
    #[must_use]
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Overrides the failure threshold.
    #[must_use]
    pub fn with_fail_threshold(mut self, n: u32) -> Self {
        self.fail_threshold = n;
        self
    }
}

/// State shared between the follower thread and the [`Standby`] handle.
struct Shared {
    stop: AtomicBool,
    /// Operator-requested promotion (failover drills, planned switchover).
    force_promote: AtomicBool,
    /// Last shipped (and locally fsynced) sequence number.
    last_seq: AtomicU64,
    /// The promoted coordinator, once failover happened.
    promoted: Mutex<Option<io::Result<Coordinator>>>,
    promoted_cond: Condvar,
}

/// A running warm standby (the follower loop lives on its own thread).
pub struct Standby {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Standby {
    /// Starts following `options.primary`. Bootstraps via snapshot
    /// shipping on the follower thread, so this returns immediately
    /// even when the primary is busy.
    pub fn start(options: StandbyOptions, recorder: SharedRecorder) -> Self {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            force_promote: AtomicBool::new(false),
            last_seq: AtomicU64::new(0),
            promoted: Mutex::new(None),
            promoted_cond: Condvar::new(),
        });
        let handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || follow(&shared, &options, &recorder))
        };
        Standby { shared, handle: Some(handle) }
    }

    /// Last WAL sequence number shipped from the primary and fsynced
    /// into the standby's own log.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.shared.last_seq.load(Ordering::SeqCst)
    }

    /// Whether promotion has happened (successfully or not).
    #[must_use]
    pub fn is_promoted(&self) -> bool {
        lock(&self.shared.promoted).is_some()
    }

    /// Requests immediate promotion (planned switchover / drill) without
    /// waiting for the failure detector.
    pub fn promote_now(&self) {
        self.shared.force_promote.store(true, Ordering::SeqCst);
    }

    /// Blocks until promotion happens or `timeout` passes.
    pub fn wait_promoted(&self, timeout: Duration) -> bool {
        let (promoted, _) = self
            .shared
            .promoted_cond
            .wait_timeout_while(lock(&self.shared.promoted), timeout, |p| p.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        promoted.is_some()
    }

    /// Takes the promoted coordinator, if failover has happened.
    ///
    /// # Errors
    ///
    /// Returns the recovery error if promotion was attempted and failed.
    pub fn take_promoted(&mut self) -> Option<io::Result<Coordinator>> {
        lock(&self.shared.promoted).take()
    }

    /// Stops the follower thread (and any promoted coordinator still
    /// held — take it first to keep it serving).
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.stop_now();
    }
}

impl std::fmt::Debug for Standby {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Standby")
            .field("last_seq", &self.last_seq())
            .field("promoted", &self.is_promoted())
            .finish()
    }
}

/// Fetches a snapshot and rewrites the local log as that one checkpoint.
/// Returns the sequence number the snapshot covers.
fn bootstrap(primary: SocketAddr, wal: &mut Wal) -> io::Result<u64> {
    match proto::call(primary, &Request::SnapshotFetch, CALL_TIMEOUT)? {
        Response::Snapshot { seq, record } => {
            let ck = WalRecord::parse_json(&record)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            wal.compact(&ck)?;
            Ok(seq)
        }
        other => Err(io::Error::other(format!("bad snapshot response: {other:?}"))),
    }
}

/// One tail poll: ship records after `after` into the local log (one
/// fsync per shipped batch). `Ok(None)` means the primary demands a
/// fresh snapshot (the standby fell behind its retained ring, or the
/// primary restarted).
fn tail_once(primary: SocketAddr, wal: &mut Wal, after: u64) -> io::Result<Option<u64>> {
    match proto::call(primary, &Request::WalTail { after }, CALL_TIMEOUT)? {
        Response::WalSegment { last, records } => {
            for payload in &records {
                let record = WalRecord::parse_json(payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                wal.append(&record)?;
            }
            if !records.is_empty() {
                wal.sync()?;
            }
            Ok(Some(last))
        }
        Response::Error { reason } if reason.contains("snapshot required") => Ok(None),
        other => Err(io::Error::other(format!("bad tail response: {other:?}"))),
    }
}

/// The follower loop: bootstrap, tail, and eventually promote.
fn follow(shared: &Arc<Shared>, options: &StandbyOptions, recorder: &SharedRecorder) {
    // The standby's log never compacts on its own: it IS the shipped
    // history, and the primary re-anchors it with snapshots as needed.
    let mut wal = match Wal::create(&options.wal.path, u64::MAX) {
        Ok(w) => w,
        Err(e) => {
            publish(shared, Err(e));
            return;
        }
    };
    // All follow/failover *decisions* live in the sans-io core; this
    // loop just issues the step it asks for and books the outcome.
    let mut core = FollowerCore::new(options.poll_interval, options.fail_threshold);
    while !shared.stop.load(Ordering::SeqCst) {
        if shared.force_promote.load(Ordering::SeqCst) {
            promote(shared, options, recorder, wal);
            return;
        }
        let event = match core.next_step() {
            FollowStep::Tail { after } => match tail_once(options.primary, &mut wal, after) {
                Ok(Some(last)) => FollowEvent::Tailed { last },
                // Fell off the retained ring — re-anchor.
                Ok(None) => FollowEvent::SnapshotRequired,
                Err(_) => FollowEvent::Failed,
            },
            FollowStep::Bootstrap => match bootstrap(options.primary, &mut wal) {
                Ok(seq) => {
                    recorder.counter("standby_bootstraps", 1);
                    FollowEvent::Bootstrapped { seq }
                }
                Err(_) => FollowEvent::Failed,
            },
        };
        if matches!(event, FollowEvent::Failed) {
            recorder.counter("standby_poll_failures", 1);
        }
        match core.on(event) {
            FollowDirective::Promote => {
                // The primary has been silent long enough: take over.
                promote(shared, options, recorder, wal);
                return;
            }
            FollowDirective::Continue { sleep } => {
                if matches!(event, FollowEvent::Bootstrapped { .. } | FollowEvent::Tailed { .. })
                {
                    shared.last_seq.store(core.last_seq(), Ordering::SeqCst);
                    recorder.gauge("standby_last_seq", core.last_seq() as f64);
                }
                std::thread::sleep(sleep);
            }
        }
    }
}

/// Promotes this standby: replays the shipped log at the primary's
/// address with the id fence applied, announces `StandbyPromoted`, and
/// starts the proactive resync sweep.
fn promote(shared: &Arc<Shared>, options: &StandbyOptions, recorder: &SharedRecorder, wal: Wal) {
    // Release our writer handle before recovery reopens the same path.
    drop(wal);
    let result = Coordinator::promote_at(
        options.primary,
        options.wal.clone(),
        options.config,
        options.seed,
        recorder.clone(),
    );
    if let Ok(c) = &result {
        recorder.record(&Event::StandbyPromoted {
            seq: shared.last_seq.load(Ordering::SeqCst),
            members: c.members() as u64,
        });
        recorder.counter("standby_promotions", 1);
        // Repopulate whatever the shipped history missed: nudge every
        // survivor to resync, splice the ones that are really gone.
        drop(c.spawn_resync_sweep());
    }
    publish(shared, result);
}

fn publish(shared: &Arc<Shared>, result: io::Result<Coordinator>) {
    *lock(&shared.promoted) = Some(result);
    shared.promoted_cond.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ParentAddr;
    use std::time::Instant;

    const T: Duration = Duration::from_secs(2);

    fn register(addr: SocketAddr, source_port: u16) -> Response {
        proto::call(
            addr,
            &Request::RegisterSource {
                data_addr: format!("127.0.0.1:{source_port}").parse().unwrap(),
                generations: 1,
                generation_size: 4,
                packet_len: 16,
                content_len: 64,
            },
            T,
        )
        .unwrap()
    }

    /// Joins with a *live* data listener backing the address, so the
    /// promoted coordinator's resync sweep nudges this "peer" instead of
    /// splicing it out as dead.
    fn hello_live(addr: SocketAddr) -> (curtain_overlay::NodeId, std::net::TcpListener) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let resp = proto::call(
            addr,
            &Request::Hello { data_addr: listener.local_addr().unwrap() },
            T,
        )
        .unwrap();
        let Response::Welcome { node, .. } = resp else {
            panic!("expected welcome, got {resp:?}");
        };
        (node, listener)
    }

    fn wal_dir() -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("curtain-standby-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn standby_tails_the_primary_and_promotes_on_failure() {
        use curtain_telemetry::MemorySink;

        let config = OverlayConfig::new(4, 2);
        let primary_path = wal_dir().join("failover_primary.wal");
        let standby_path = wal_dir().join("failover_standby.wal");
        let primary = Coordinator::start_durable(
            config,
            41,
            SharedRecorder::null(),
            &WalOptions::new(&primary_path),
        )
        .unwrap();
        let primary_addr = primary.addr();
        assert_eq!(register(primary_addr, 9900), Response::Ok);
        let (n0, _l0) = hello_live(primary_addr);

        let sink = MemorySink::new();
        let mut standby = Standby::start(
            StandbyOptions::new(primary_addr, WalOptions::new(&standby_path), config)
                .with_poll_interval(Duration::from_millis(20))
                .with_fail_threshold(3),
            SharedRecorder::wall_clock(sink.clone()),
        );
        // Mutations made while the standby follows are shipped to it.
        let (n1, _l1) = hello_live(primary_addr);
        let deadline = Instant::now() + Duration::from_secs(5);
        while standby.last_seq() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(standby.last_seq() >= 3, "standby never caught up");

        // Primary dies; the standby notices and takes over at the SAME
        // control address.
        let rows = primary.matrix_rows();
        primary.kill();
        assert!(standby.wait_promoted(Duration::from_secs(10)), "no promotion");
        let promoted = standby.take_promoted().unwrap().unwrap();
        assert_eq!(promoted.addr(), primary_addr);
        assert_eq!(promoted.matrix_rows(), rows, "shipped history rebuilt M exactly");

        // The promoted coordinator serves at the old address with fenced
        // fresh ids.
        let (fresh, _lf) = hello_live(primary_addr);
        assert!(fresh.0 > n0.0 && fresh.0 > n1.0);
        let kinds: Vec<String> =
            sink.events().iter().map(|(_, e)| e.kind().to_string()).collect();
        assert!(kinds.contains(&"standby_promoted".to_string()), "{kinds:?}");
        assert_eq!(sink.metrics().snapshot().counters["standby_promotions"], 1);

        // Its complaint path still works end to end.
        let resp = proto::call(
            primary_addr,
            &Request::Complaint { child: fresh, failed_parent: None, thread: 0, ctx: None },
            T,
        )
        .unwrap();
        assert!(
            matches!(resp, Response::Redirect { .. } | Response::Error { .. }),
            "{resp:?}"
        );
        drop(promoted);
        let _ = std::fs::remove_file(&primary_path);
        let _ = std::fs::remove_file(&standby_path);
    }

    #[test]
    fn forced_promotion_is_a_planned_switchover() {
        let config = OverlayConfig::new(4, 2);
        let primary_path = wal_dir().join("switchover_primary.wal");
        let standby_path = wal_dir().join("switchover_standby.wal");
        let primary = Coordinator::start_durable(
            config,
            42,
            SharedRecorder::null(),
            &WalOptions::new(&primary_path),
        )
        .unwrap();
        let primary_addr = primary.addr();
        assert_eq!(register(primary_addr, 9910), Response::Ok);
        let (_n, _live) = hello_live(primary_addr);

        let mut standby = Standby::start(
            StandbyOptions::new(primary_addr, WalOptions::new(&standby_path), config)
                .with_poll_interval(Duration::from_millis(20)),
            SharedRecorder::null(),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while standby.last_seq() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Planned switchover: stop the primary first (frees the port),
        // then promote without waiting for the failure detector.
        let members = primary.members();
        primary.kill();
        standby.promote_now();
        assert!(standby.wait_promoted(Duration::from_secs(10)));
        let promoted = standby.take_promoted().unwrap().unwrap();
        assert_eq!(promoted.members(), members);
        // The welcome's parents still point at the registered source.
        let resp = proto::call(
            primary_addr,
            &Request::Hello { data_addr: "127.0.0.1:9912".parse().unwrap() },
            T,
        )
        .unwrap();
        let Response::Welcome { parents, .. } = resp else { panic!("{resp:?}") };
        assert!(parents
            .iter()
            .any(|(_, p)| matches!(p, ParentAddr::Source(a) if a.port() == 9910)));
        drop(promoted);
        let _ = std::fs::remove_file(&primary_path);
        let _ = std::fs::remove_file(&standby_path);
    }
}

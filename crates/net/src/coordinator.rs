//! The coordinator: the paper's server-side matrix behind a TCP port.
//!
//! The matrix `M` is durable when the coordinator is started with a
//! [`WalOptions`]: every mutation (source registration, hello, good-bye,
//! splice, completion, resync) is appended to a write-ahead log before the
//! response leaves, and [`Coordinator::recover`] replays checkpoint + WAL
//! to resurrect the exact state after a crash. When the WAL itself is
//! lost, the resync protocol rebuilds `M` from the peers: an "unknown
//! child" complaint response makes the peer send [`Request::Resync`] with
//! its thread→parent view, and the coordinator re-inserts the row.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use curtain_overlay::{NodeId, OverlayConfig, ThreadId};
use curtain_telemetry::trace::COORDINATOR_NODE;
use curtain_telemetry::{Event, SharedRecorder, TraceContext};

use crate::core::backoff::Backoff;
use crate::core::coordinator::{ControlCore, CoreOutcome};
use crate::framing;
use crate::lock;
use crate::proto::{self, Request, Response};
use crate::transport::tcp;
use crate::wal::{Wal, WalOptions, WalRecord, WalStore};

/// Committed-but-recent WAL records kept in memory so a tailing standby
/// can catch up without a second log reader.
const TAIL_RETAIN: usize = 1024;
/// How long a connection handler waits for its mutation's batch to fsync
/// before giving up on durability for that response.
const COMMIT_WAIT: Duration = Duration::from_secs(10);
/// Base backoff after a failed compaction (doubles per failure, capped).
const COMPACT_BACKOFF_BASE_MS: u64 = 100;
/// How long a control connection may sit without a request before its
/// handler hangs up (and the socket's write timeout). A caller whose kept
/// connection was reaped reconnects on its next call (`proto::call`).
const CONTROL_IDLE: Duration = Duration::from_secs(5);
/// Per-member connect timeout for the proactive resync sweep. Short on
/// purpose: a sweep that hangs on one slow peer delays nudging the rest.
const SWEEP_PROBE_TIMEOUT: Duration = Duration::from_millis(400);

/// One parked operation on the commit queue.
enum CommitOp {
    /// A mutation record awaiting its batch fsync.
    Append(u64, WalRecord),
    /// A threshold-crossing compaction with its pre-built checkpoint.
    Compact(WalRecord),
}

/// Mutable commit-path state, guarded by [`CommitShared::inner`].
///
/// Lock order is `State` → `CommitInner`, everywhere: handlers hold the
/// state lock when they enqueue, the committer never touches `State`.
struct CommitInner {
    /// The log. `None` while the committer holds it for batch I/O (so
    /// appenders only ever block on the queue push, never on fsync) or
    /// when the coordinator runs without a WAL.
    wal: Option<Box<dyn WalStore>>,
    /// Whether a WAL was configured at all (stays `true` while the
    /// committer has temporarily taken the handle out).
    enabled: bool,
    /// Degraded coordinators refuse mutations instead of serving from
    /// memory.
    strict: bool,
    /// Parked operations, drained by the committer in arrival order.
    queue: Vec<CommitOp>,
    /// Sequence number of the last admitted (not necessarily durable)
    /// mutation.
    appended_seq: u64,
    /// Sequence number of the last fsynced mutation.
    durable_seq: u64,
    /// Sticky: a WAL append/fsync failed and the log can no longer be
    /// trusted. Appends stop; the coordinator serves from memory (or
    /// refuses, under `strict`).
    degraded: bool,
    /// Shutdown latch for the committer and any durability waiters.
    stop: bool,
    /// A compaction is already queued or running — do not enqueue
    /// another for the same threshold crossing.
    compact_inflight: bool,
    /// Consecutive compaction failures (drives the backoff below).
    compact_failures: u32,
    /// No compaction attempts before this instant (set after a failure
    /// so a sick disk is not hammered with full-log rewrites).
    compact_backoff_until: Option<Instant>,
    /// Ring of the most recent durable records, for `Request::WalTail`.
    tail: VecDeque<(u64, WalRecord)>,
}

impl CommitInner {
    /// Enters (sticky) degraded mode, announcing it exactly once.
    fn enter_degraded(&mut self, recorder: &SharedRecorder, reason: &str) {
        recorder.counter("wal_errors", 1);
        if !self.degraded {
            self.degraded = true;
            recorder.record(&Event::CoordinatorDegraded { reason: reason.to_string() });
            recorder.gauge("coordinator_durable", 0.0);
        }
    }

    /// Whether a compaction should be attempted now: over threshold, none
    /// in flight, and past any failure backoff.
    fn wants_compaction(&self) -> bool {
        if self.compact_inflight {
            return false;
        }
        if self.compact_backoff_until.is_some_and(|until| Instant::now() < until) {
            return false;
        }
        self.wal.as_ref().is_some_and(|w| w.needs_compaction())
    }

    /// Books a compaction outcome: success resets the backoff, failure
    /// doubles it. Either way the in-flight latch opens so the *next*
    /// threshold crossing (or backoff expiry) may try again — exactly
    /// once, instead of once per mutation.
    fn note_compact_result(&mut self, ok: bool, recorder: &SharedRecorder) {
        self.compact_inflight = false;
        if ok {
            self.compact_failures = 0;
            self.compact_backoff_until = None;
        } else {
            self.compact_failures += 1;
            // Shared doubling-with-cap schedule; same curve as the old
            // inline shift (100ms · 2^n, capped at 100ms · 2^6).
            let schedule = Backoff::new(
                Duration::from_millis(COMPACT_BACKOFF_BASE_MS),
                Duration::from_millis(COMPACT_BACKOFF_BASE_MS << 6),
            );
            let backoff = schedule.base_delay(self.compact_failures);
            self.compact_backoff_until = Some(Instant::now() + backoff);
            recorder.counter("wal_compact_errors", 1);
        }
    }

    /// Retains `(seq, record)` in the tail ring for standby shipping.
    fn push_tail(&mut self, seq: u64, record: WalRecord) {
        self.tail.push_back((seq, record));
        while self.tail.len() > TAIL_RETAIN {
            self.tail.pop_front();
        }
    }
}

/// The commit queue shared by request handlers (producers), the committer
/// thread (consumer), and durability waiters.
struct CommitShared {
    inner: Mutex<CommitInner>,
    cond: Condvar,
    recorder: SharedRecorder,
}

/// How a waited-on mutation resolved.
enum DurableWait {
    /// Its batch fsynced.
    Durable,
    /// The WAL degraded (or the coordinator stopped) before the fsync.
    Degraded,
    /// [`COMMIT_WAIT`] elapsed — the disk is wedged but not yet erroring.
    TimedOut,
}

impl CommitShared {
    fn new(wal: Option<Box<dyn WalStore>>, strict: bool, recorder: SharedRecorder) -> Arc<Self> {
        let enabled = wal.is_some();
        Arc::new(CommitShared {
            inner: Mutex::new(CommitInner {
                wal,
                enabled,
                strict,
                queue: Vec::new(),
                appended_seq: 0,
                durable_seq: 0,
                degraded: false,
                stop: false,
                compact_inflight: false,
                compact_failures: 0,
                compact_backoff_until: None,
                tail: VecDeque::new(),
            }),
            cond: Condvar::new(),
            recorder,
        })
    }

    /// Blocks until `seq` is durable, the WAL degrades, or `timeout`.
    fn wait_durable(&self, seq: u64, timeout: Duration) -> DurableWait {
        let pending = |inner: &mut CommitInner| {
            inner.durable_seq < seq && !inner.degraded && !inner.stop
        };
        let (inner, _) = self
            .cond
            .wait_timeout_while(lock(&self.inner), timeout, pending)
            .unwrap_or_else(PoisonError::into_inner);
        if inner.durable_seq >= seq {
            DurableWait::Durable
        } else if inner.degraded || inner.stop {
            DurableWait::Degraded
        } else {
            DurableWait::TimedOut
        }
    }

    /// Whether this coordinator refuses non-durable mutations.
    fn strict(&self) -> bool {
        lock(&self.inner).strict
    }
}

/// How long the committer lingers after the first parked mutation before
/// paying the fsync, so concurrently-admitted mutations coalesce into one
/// batch instead of alternating single-record syncs (the classic group-
/// commit leader wait). Well under any real fsync cost, so the window
/// only ever *saves* syncs.
const COMMIT_COALESCE: Duration = Duration::from_micros(500);

/// The committer: drains the queue, appends the batch with the WAL taken
/// *out* of the lock (so producers never block on disk), fsyncs once,
/// then publishes durability and wakes the waiters.
fn committer_loop(shared: &Arc<CommitShared>) {
    loop {
        let ops = {
            let inner = shared
                .cond
                .wait_while(lock(&shared.inner), |inner| inner.queue.is_empty() && !inner.stop)
                .unwrap_or_else(PoisonError::into_inner);
            if inner.queue.is_empty() {
                return; // stop requested and fully drained
            }
            // Accumulation window: producers notifying during the wait
            // just re-enter it; the batch closes at the deadline (or
            // immediately on stop, where latency no longer matters).
            let (mut inner, _) = shared
                .cond
                .wait_timeout_while(inner, COMMIT_COALESCE, |inner| !inner.stop)
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut inner.queue)
        };
        let Some(mut wal) = lock(&shared.inner).wal.take() else {
            return; // unreachable: only this thread takes the handle
        };
        let started = Instant::now();
        let mut appended: Vec<(u64, WalRecord)> = Vec::new();
        let mut compact_attempted = false;
        let mut compact_ok = false;
        let mut failed = false;
        // Strictly in queue order: a checkpoint built after mutation N is
        // enqueued after N's append, so replay order stays consistent
        // whether or not the compaction between them succeeds.
        for op in ops {
            match op {
                CommitOp::Append(seq, record) => {
                    if !failed {
                        failed = wal.append(&record).is_err();
                    }
                    appended.push((seq, record));
                }
                CommitOp::Compact(checkpoint) => {
                    compact_attempted = true;
                    if !failed {
                        compact_ok = wal.compact(&checkpoint).is_ok();
                    }
                }
            }
        }
        if !failed && !appended.is_empty() {
            failed = wal.sync().is_err();
        }
        let sync_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let batch = appended.len() as u64;
        let (bytes, records) = (wal.bytes(), wal.records());
        {
            let mut inner = lock(&shared.inner);
            if compact_attempted {
                inner.note_compact_result(compact_ok, &shared.recorder);
            }
            if failed {
                inner.enter_degraded(&shared.recorder, "wal append/sync failed");
            } else if let Some(&(last, _)) = appended.last() {
                inner.durable_seq = last;
                for (seq, record) in appended {
                    inner.push_tail(seq, record);
                }
                shared.recorder.record(&Event::BatchCommit { records: batch, sync_us });
                shared.recorder.histogram("commit_latency_ms", sync_us as f64 / 1000.0);
                shared.recorder.histogram("commit_batch_records", batch as f64);
                shared.recorder.gauge("wal_bytes", bytes as f64);
                shared.recorder.gauge("wal_records", records as f64);
            }
            inner.wal = Some(wal);
        }
        shared.cond.notify_all();
    }
}

/// The TCP driver around the sans-io [`ControlCore`]: the core decides,
/// this wraps its decisions in the WAL/commit machinery and the strict-
/// mode refusals durability brings along.
struct State {
    core: ControlCore<SocketAddr>,
    recorder: SharedRecorder,
    commit: Arc<CommitShared>,
    /// Sequence number the in-flight request must wait on before its
    /// response leaves (set by [`State::log`], collected by
    /// [`State::handle`]).
    pending_wait: Option<u64>,
    /// Control connections with a live handler (`/health`'s
    /// `control_connections`, the `ctrl_connections_live` gauge).
    connections: u64,
}

impl State {
    /// Admits one mutation to the WAL: parks it on the commit queue and
    /// records the sequence number the handler must wait on
    /// ([`State::pending_wait`]) — the committer fsyncs the whole admitted
    /// batch at once.
    ///
    /// WAL I/O failures must not take the control plane down
    /// mid-broadcast: the committer enters (sticky) degraded mode —
    /// announced by `CoordinatorDegraded`, visible as `"durable": false`
    /// in `/health` — after which nothing more is admitted here and the
    /// coordinator keeps serving from memory, unless `strict` makes it
    /// refuse mutations instead.
    fn log(&mut self, record: WalRecord) {
        let commit = Arc::clone(&self.commit);
        let mut inner = lock(&commit.inner);
        if !inner.enabled || inner.degraded {
            return;
        }
        inner.appended_seq += 1;
        let seq = inner.appended_seq;
        inner.queue.push(CommitOp::Append(seq, record));
        self.maybe_enqueue_compaction(&mut inner);
        drop(inner);
        commit.cond.notify_all();
        self.pending_wait = Some(seq);
    }

    /// Queues a compaction if the log crossed its threshold. At most one
    /// per crossing: `compact_inflight` latches until the committer books
    /// the result.
    fn maybe_enqueue_compaction(&self, inner: &mut CommitInner) {
        if !inner.wants_compaction() {
            return;
        }
        match self.core.checkpoint() {
            Ok(ck) => {
                inner.queue.push(CommitOp::Compact(ck));
                inner.compact_inflight = true;
                self.recorder.counter("wal_compact_attempts", 1);
            }
            Err(_) => self.recorder.counter("wal_errors", 1),
        }
    }


    /// Whether this request would mutate `M` (and therefore needs WAL
    /// durability). Complaints count: answering one may splice.
    fn is_mutation(request: &Request) -> bool {
        matches!(
            request,
            Request::RegisterSource { .. }
                | Request::Hello { .. }
                | Request::Goodbye { .. }
                | Request::Complaint { .. }
                | Request::Completed { .. }
                | Request::Resync { .. }
        )
    }

    /// Books a control connection opening or closing.
    fn note_connection(&mut self, opened: bool) {
        if opened {
            self.connections += 1;
            self.recorder.counter("ctrl_connections_accepted", 1);
        } else {
            self.connections -= 1;
        }
        self.recorder.gauge("ctrl_connections_live", self.connections as f64);
    }

    /// Whether strict mode is refusing mutations right now.
    fn refuses_mutations(&self) -> bool {
        let inner = lock(&self.commit.inner);
        inner.enabled && inner.strict && inner.degraded
    }

    /// Handles one request. The second return is the commit sequence the
    /// connection handler must wait on before the response may leave —
    /// waiting happens *outside* the state lock.
    fn handle(&mut self, request: Request) -> (Response, Option<u64>) {
        if self.refuses_mutations() && Self::is_mutation(&request) {
            return (unavailable(), None);
        }
        self.pending_wait = None;
        let response = match self.core.dispatch(request) {
            CoreOutcome::Done { response, effects } => {
                for record in effects {
                    self.log(record);
                }
                response
            }
            CoreOutcome::Driver(request) => self.answer_durability(request),
        };
        (response, self.pending_wait.take())
    }

    /// Answers the durability verbs the core hands back: they read the
    /// commit queue's sequence numbers and tail ring, which only this
    /// driver has.
    fn answer_durability(&self, request: Request) -> Response {
        match request {
            Request::SnapshotFetch => match self.core.checkpoint() {
                Ok(ck) => {
                    // The snapshot covers the full *memory* state, i.e.
                    // everything up to the last admitted mutation — tailing
                    // after this seq never replays a covered record.
                    let seq = lock(&self.commit.inner).appended_seq;
                    Response::Snapshot { seq, record: ck.to_json() }
                }
                Err(reason) => Response::Error { reason },
            },
            Request::WalTail { after } => {
                let inner = lock(&self.commit.inner);
                if !inner.enabled {
                    return Response::Error { reason: "coordinator has no wal".into() };
                }
                let durable = inner.durable_seq;
                if after > inner.appended_seq {
                    // The standby is ahead of this incarnation's history
                    // (we restarted and renumbered) — only a fresh
                    // snapshot can re-anchor it.
                    return Response::Error { reason: "snapshot required".into() };
                }
                if after >= durable {
                    // Nothing durable past the cursor yet (a batch may
                    // still be committing) — an empty segment, not an
                    // error: the standby just polls again.
                    return Response::WalSegment { last: after, records: vec![] };
                }
                match inner.tail.front().map(|(s, _)| *s) {
                    // An empty ring with history behind it means the
                    // records the standby needs were never retained.
                    None => Response::Error { reason: "snapshot required".into() },
                    Some(first) if after + 1 < first => {
                        Response::Error { reason: "snapshot required".into() }
                    }
                    Some(_) => {
                        let records = inner
                            .tail
                            .iter()
                            .filter(|(s, _)| *s > after)
                            .map(|(_, r)| r.to_json())
                            .collect::<Vec<_>>();
                        let last = inner.tail.back().map_or(after, |(s, _)| *s);
                        Response::WalSegment { last, records }
                    }
                }
            }
            other => unreachable!("core handles {other:?} itself"),
        }
    }
}

/// The strict-mode refusal all degraded mutation paths share.
fn unavailable() -> Response {
    Response::Unavailable {
        reason: "wal degraded: this coordinator refuses non-durable mutations".into(),
    }
}

/// A running coordinator bound to a local TCP port.
///
/// The accept loop blocks in `accept` on a background thread; each control
/// connection gets a handler thread that answers request lines in order
/// until the caller hangs up or sends nothing for 5 s (`CONTROL_IDLE`). Drop,
/// [`Coordinator::kill`] or [`Coordinator::shutdown`] stop it: idle
/// connections are closed at once, a request already being served still
/// gets its response.
pub struct Coordinator {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<State>>,
    commit: Arc<CommitShared>,
    handle: Option<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Binds `127.0.0.1:0` and starts serving the control protocol.
    ///
    /// # Errors
    ///
    /// Propagates bind errors and configuration errors.
    pub fn start(config: OverlayConfig) -> io::Result<Self> {
        Self::start_seeded(config, 0xC0DE)
    }

    /// Like [`Coordinator::start`] with an explicit RNG seed for the thread
    /// assignments (tests).
    ///
    /// # Errors
    ///
    /// Propagates bind errors and configuration errors.
    pub fn start_seeded(config: OverlayConfig, seed: u64) -> io::Result<Self> {
        Self::start_traced(config, seed, SharedRecorder::null())
    }

    /// Like [`Coordinator::start_seeded`] with a telemetry recorder
    /// (typically [`SharedRecorder::wall_clock`] — timestamps are unix
    /// milliseconds out here, not sim-ticks). The recorder sees the full
    /// protocol lifecycle: `Hello`/`GoodBye`/`Complain`/`Splice`/
    /// `RepairComplete`/`ThreadDefect` from the embedded
    /// [`CurtainServer`], plus `PeerConnect`/`PeerDisconnect` and a
    /// `coordinator_members` gauge from the connection handlers.
    ///
    /// # Errors
    ///
    /// Propagates bind errors and configuration errors.
    pub fn start_traced(
        config: OverlayConfig,
        seed: u64,
        recorder: SharedRecorder,
    ) -> io::Result<Self> {
        let core = ControlCore::new(config, seed, recorder.clone()).map_err(io::Error::other)?;
        let commit = CommitShared::new(None, false, recorder.clone());
        let state = State { core, recorder, commit, pending_wait: None, connections: 0 };
        Self::serve(TcpListener::bind("127.0.0.1:0")?, state)
    }

    /// Like [`Coordinator::start_traced`], but every matrix mutation is
    /// made durable in a write-ahead log first (see [`crate::wal`]) so a
    /// crashed coordinator can be resurrected with
    /// [`Coordinator::recover`]. A fresh start truncates any existing log
    /// at `wal.path` — use `recover` to continue one. Mutations are group-
    /// committed: each response leaves only after the batch holding its
    /// record is fsynced. Strict mode follows `wal.strict`.
    ///
    /// # Errors
    ///
    /// Propagates bind, configuration, and WAL-creation errors.
    pub fn start_durable(
        config: OverlayConfig,
        seed: u64,
        recorder: SharedRecorder,
        wal: &WalOptions,
    ) -> io::Result<Self> {
        let store: Box<dyn WalStore> = Box::new(Wal::create(&wal.path, wal.compact_threshold)?);
        Self::start_durable_with_store(config, seed, recorder, store, wal.strict)
    }

    /// [`Coordinator::start_durable`] with an explicit [`WalStore`] — the
    /// fault-injection and latency-simulation seam (tests wrap a [`Wal`]
    /// in a store that fails or sleeps on demand).
    ///
    /// # Errors
    ///
    /// Propagates bind and configuration errors.
    pub fn start_durable_with_store(
        config: OverlayConfig,
        seed: u64,
        recorder: SharedRecorder,
        store: Box<dyn WalStore>,
        strict: bool,
    ) -> io::Result<Self> {
        let core = ControlCore::new(config, seed, recorder.clone()).map_err(io::Error::other)?;
        let commit = CommitShared::new(Some(store), strict, recorder.clone());
        let state = State { core, recorder, commit, pending_wait: None, connections: 0 };
        Self::serve(TcpListener::bind("127.0.0.1:0")?, state)
    }

    /// Replays the WAL at `path` (checkpoint + tail) and serves the
    /// rebuilt matrix from a fresh port. The rebuilt `M` is asserted
    /// before serving: every row carries exactly `config.d` distinct
    /// threads, node ids are unique, and every member has a data-plane
    /// address (so every holder a redirect can name is dialable).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and reports corrupt-state errors
    /// (`InvalidData`) when the replayed state violates the invariants.
    pub fn recover(path: impl AsRef<Path>, config: OverlayConfig) -> io::Result<Self> {
        Self::recover_traced(
            WalOptions::new(path.as_ref()),
            config,
            0xC0DE,
            SharedRecorder::null(),
        )
    }

    /// Pure id-fence arithmetic for post-recovery grant allocation:
    /// `max(wall-clock ms, max observed id + 1, persisted epoch + 1)`.
    ///
    /// Each leg covers a failure the others do not — `observed_next`
    /// (already "max id + 1" form) covers ids still present in the
    /// replayed `M`; `persisted_epoch` covers ids granted before the last
    /// checkpoint but spliced since (and survives a backwards-stepping
    /// clock); the wall clock covers grants that never reached any
    /// durable record at all (the amnesiac and failover cases).
    #[must_use]
    pub fn fenced_next_id(wall_ms: u64, observed_next: u64, persisted_epoch: u64) -> u64 {
        wall_ms.max(observed_next).max(persisted_epoch.saturating_add(1))
    }

    /// [`Coordinator::recover`] with explicit seed and telemetry; emits
    /// `CoordinatorRecovered{replayed, resynced}` once serving resumes.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::recover`].
    pub fn recover_traced(
        wal: WalOptions,
        config: OverlayConfig,
        seed: u64,
        recorder: SharedRecorder,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        Self::recover_on(listener, wal, config, seed, recorder, false)
    }

    /// Recovers *at a fixed address* — the kill-and-restart case, where
    /// surviving peers keep complaining at the old coordinator address
    /// and must find the recovered one there. Binding retries briefly:
    /// control connections closed by the dying server can linger in
    /// TIME_WAIT on the listening port.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::recover`]; also fails if `addr` stays
    /// unbindable for ~5 s.
    pub fn recover_at(
        addr: SocketAddr,
        wal: WalOptions,
        config: OverlayConfig,
        seed: u64,
        recorder: SharedRecorder,
    ) -> io::Result<Self> {
        let listener = Self::bind_retrying(addr)?;
        Self::recover_on(listener, wal, config, seed, recorder, false)
    }

    /// [`Coordinator::recover_at`] with the id-allocation fence applied —
    /// the failover case: a promoting standby replays its *shipped* WAL,
    /// which may be missing grants the primary admitted but never
    /// shipped, so `next_id` is additionally bumped past
    /// [`Coordinator::fenced_next_id`] to keep fresh grants from
    /// colliding with un-shipped ones still alive in the overlay.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::recover_at`].
    pub fn promote_at(
        addr: SocketAddr,
        wal: WalOptions,
        config: OverlayConfig,
        seed: u64,
        recorder: SharedRecorder,
    ) -> io::Result<Self> {
        let listener = Self::bind_retrying(addr)?;
        Self::recover_on(listener, wal, config, seed, recorder, true)
    }

    fn bind_retrying(addr: SocketAddr) -> io::Result<TcpListener> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpListener::bind(addr) {
                Ok(l) => return Ok(l),
                Err(e) if e.kind() == io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn recover_on(
        listener: TcpListener,
        wal: WalOptions,
        config: OverlayConfig,
        seed: u64,
        recorder: SharedRecorder,
        fence: bool,
    ) -> io::Result<Self> {
        // Replay is its own root span: nothing upstream caused it (the
        // crash did), and stitched reports should show its duration next
        // to the repair episodes it races against.
        let replay_ctx = TraceContext::root();
        recorder.record(&Event::SpanStart {
            trace: replay_ctx.trace,
            span: replay_ctx.span,
            parent: curtain_telemetry::trace::NO_PARENT,
            name: "wal_replay".to_string(),
            node: COORDINATOR_NODE,
        });
        let replay = replay_wal(wal, config, seed, recorder.clone(), fence);
        recorder.record(&Event::SpanEnd {
            trace: replay_ctx.trace,
            span: replay_ctx.span,
            ok: replay.is_ok(),
        });
        let (state, replayed, resynced) = replay?;
        recorder.record(&Event::CoordinatorRecovered { replayed, resynced });
        recorder.gauge("coordinator_members", state.core.server().matrix().len() as f64);
        {
            let inner = lock(&state.commit.inner);
            if let Some(w) = inner.wal.as_ref() {
                recorder.gauge("wal_bytes", w.bytes() as f64);
                recorder.gauge("wal_records", w.records() as f64);
            }
        }
        Self::serve(listener, state)
    }

    fn serve(listener: TcpListener, state: State) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let commit = Arc::clone(&state.commit);
        let state = Arc::new(Mutex::new(state));
        {
            // Publish the members gauge before the first connection so a
            // scrape of a freshly started coordinator sees an explicit zero
            // rather than an empty exposition.
            let st = lock(&state);
            st.recorder.gauge("coordinator_members", st.core.server().matrix().len() as f64);
        }
        // A durable coordinator always has a committer; a WAL-less one
        // never queues anything for it.
        let wal_configured = lock(&commit.inner).enabled;
        let committer = wal_configured.then(|| {
            let commit = Arc::clone(&commit);
            std::thread::spawn(move || committer_loop(&commit))
        });
        let handle = {
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&state);
            let commit = Arc::clone(&commit);
            std::thread::spawn(move || accept_loop(&listener, &stop, &state, &commit))
        };
        Ok(Coordinator { addr, stop, state, commit, handle: Some(handle), committer })
    }

    /// The control-plane address peers dial.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current member count.
    #[must_use]
    pub fn members(&self) -> usize {
        lock(&self.state).core.server().matrix().len()
    }

    /// Peers that reported full decode.
    #[must_use]
    pub fn completed(&self) -> usize {
        lock(&self.state).core.completed().len()
    }

    /// Repairs executed so far.
    #[must_use]
    pub fn repairs(&self) -> u64 {
        lock(&self.state).core.server().metrics().repairs
    }

    /// The matrix rows — `(node id, threads)` in matrix order — a plain
    /// view of `M` for assertions and operator tooling.
    #[must_use]
    pub fn matrix_rows(&self) -> Vec<(u64, Vec<ThreadId>)> {
        lock(&self.state)
            .core
            .server()
            .matrix()
            .rows()
            .iter()
            .map(|r| (r.node().0, r.threads().to_vec()))
            .collect()
    }

    /// One-line JSON health document for the `/health` endpoint: matrix
    /// size, defect totals, completion and repair counts, and WAL
    /// occupancy. Built with the telemetry crate's own writer so the
    /// shape matches the rest of the observability surface.
    #[must_use]
    pub fn health_json(&self) -> String {
        health_json_of(&self.state)
    }

    /// A `'static` closure producing [`Coordinator::health_json`] — the
    /// callback shape [`curtain_telemetry::ExposeServer::bind`] wants.
    pub fn health_handle(&self) -> impl Fn() -> String + Send + Sync + 'static {
        let state = Arc::clone(&self.state);
        move || health_json_of(&state)
    }

    /// Checkpoint of the coordinator's overlay state as JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization errors.
    pub fn checkpoint_json(&self) -> io::Result<String> {
        lock(&self.state).core.server().to_json().map_err(io::Error::other)
    }

    /// Proactive resync sweep (blocking): probes every known
    /// `data_addr`, nudging reachable peers to re-announce via `Resync`
    /// and splicing out peers that actively refuse the connection.
    /// After an amnesiac restart or failover this repopulates the
    /// matrix without waiting for the complaint path to discover each
    /// hole one repair at a time.
    ///
    /// Probes run without the state lock (one slow peer must not stall
    /// admissions); membership is re-checked under the lock before any
    /// splice so a peer that re-announced mid-sweep is kept.
    pub fn resync_sweep(&self) -> SweepReport {
        resync_sweep(&self.state)
    }

    /// [`Coordinator::resync_sweep`] on a background thread — the shape
    /// recovery paths want: start serving immediately, let the sweep
    /// fill the matrix in parallel with organic resyncs.
    pub fn spawn_resync_sweep(&self) -> JoinHandle<SweepReport> {
        let state = Arc::clone(&self.state);
        std::thread::spawn(move || resync_sweep(&state))
    }

    /// Stops the accept loop and joins the thread; a durable coordinator
    /// additionally collapses its WAL to a single checkpoint record (so
    /// the next [`Coordinator::recover`] replays O(1) records).
    pub fn shutdown(mut self) {
        self.stop_now();
        let st = lock(&self.state);
        let ck = st.core.checkpoint();
        let mut inner = lock(&st.commit.inner);
        if inner.enabled && !inner.degraded {
            if let (Ok(ck), Some(wal)) = (ck, inner.wal.as_mut()) {
                let _ = wal.compact(&ck);
            }
        }
    }

    /// Kills the coordinator abruptly — the crash under test: the accept
    /// loop stops and the WAL is left exactly as the last fsync left it
    /// (no final checkpoint, possibly mid-epoch). Recovery must cope.
    pub fn kill(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        tcp::stop_accept_loop(&self.stop, self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
            // Drain the committer after the accept loop: no new mutations
            // can arrive, so once the queue empties every admitted batch
            // has been fsynced (or the coordinator is degraded).
            if let Some(c) = self.committer.take() {
                {
                    let mut inner = lock(&self.commit.inner);
                    inner.stop = true;
                }
                self.commit.cond.notify_all();
                let _ = c.join();
            }
            let st = lock(&self.state);
            st.recorder.record(&Event::CoordinatorDown {
                members: st.core.server().matrix().len() as u64,
            });
            let _ = st.recorder.flush();
        }
    }
}

/// Renders the coordinator's health document (shared by
/// [`Coordinator::health_json`] and the `'static` handle the expose
/// server holds).
fn health_json_of(state: &Mutex<State>) -> String {
    use curtain_telemetry::json::JsonValue;
    use std::collections::BTreeMap;
    let st = lock(state);
    let metrics = st.core.server().metrics();
    let mut doc = BTreeMap::new();
    doc.insert("role".to_string(), JsonValue::Str("coordinator".to_string()));
    doc.insert("ok".to_string(), JsonValue::Bool(true));
    doc.insert("matrix_rows".to_string(), JsonValue::Int(st.core.server().matrix().len() as i64));
    doc.insert("control_connections".to_string(), JsonValue::Int(st.connections as i64));
    let defect = curtain_overlay::defect::exact(st.core.server().matrix(), st.core.server().config().d);
    doc.insert("total_defect".to_string(), JsonValue::Int(defect.total_defect() as i64));
    doc.insert("completed".to_string(), JsonValue::Int(st.core.completed().len() as i64));
    doc.insert("repairs".to_string(), JsonValue::Int(metrics.repairs as i64));
    doc.insert("source_registered".to_string(), JsonValue::Bool(st.core.source().is_some()));
    let inner = lock(&st.commit.inner);
    doc.insert("wal_enabled".to_string(), JsonValue::Bool(inner.enabled));
    // `durable` is the headline bit operators alert on: true only while
    // every acknowledged mutation is known fsynced. A WAL-less
    // coordinator is *explicitly* not durable; a degraded one has lost
    // the guarantee mid-run.
    doc.insert("durable".to_string(), JsonValue::Bool(inner.enabled && !inner.degraded));
    if let Some(wal) = inner.wal.as_ref() {
        doc.insert("wal_bytes".to_string(), JsonValue::Int(wal.bytes() as i64));
        doc.insert("wal_records".to_string(), JsonValue::Int(wal.records() as i64));
    }
    drop(inner);
    JsonValue::Object(doc).render()
}

/// What one proactive resync sweep did: peers probed, peers nudged to
/// re-announce, and unreachable peers spliced out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// Members whose data address was probed.
    pub probed: usize,
    /// Probes that connected and carried a resync nudge.
    pub nudged: usize,
    /// Members that refused the connection and were spliced out.
    pub spliced: usize,
}

fn resync_sweep(state: &Mutex<State>) -> SweepReport {
    // Snapshot the member list first; probing under the state lock would
    // stall every admission behind the slowest peer's connect timeout.
    let members: Vec<(NodeId, SocketAddr)> = {
        let st = lock(state);
        st.core.addrs().iter().map(|(n, a)| (*n, *a)).collect()
    };
    let mut report = SweepReport { probed: 0, nudged: 0, spliced: 0 };
    for (node, addr) in members {
        report.probed += 1;
        match TcpStream::connect_timeout(&addr, SWEEP_PROBE_TIMEOUT) {
            Ok(stream) => {
                if framing::write_resync_nudge(&stream).is_ok() {
                    report.nudged += 1;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                let mut st = lock(state);
                // The peer may have re-announced (new address) or left
                // while we probed unlocked — only splice if the stale
                // address is still the one on file.
                if st.core.addrs().get(&node) == Some(&addr) {
                    let record = st.core.splice_out(node, None);
                    st.log(record);
                    report.spliced += 1;
                }
            }
            // Timeouts and odd errors are left to the complaint path:
            // a slow peer is not evidence of death.
            Err(_) => {}
        }
    }
    let st = lock(state);
    st.recorder.counter("sweep_probes", report.probed as u64);
    st.recorder.counter("sweep_nudged", report.nudged as u64);
    st.recorder.counter("sweep_spliced", report.spliced as u64);
    report
}

/// Rebuilds coordinator state from the WAL at `wal.path`, returning the
/// state plus `(records replayed, resync records among them)`. What the
/// records do to `M`, and the invariants the result must satisfy, are
/// [`ControlCore::replay`]'s; this side owns the file and the wall clock.
fn replay_wal(
    wal: WalOptions,
    config: OverlayConfig,
    seed: u64,
    recorder: SharedRecorder,
    fence: bool,
) -> io::Result<(State, u64, u64)> {
    let strict = wal.strict;
    let (records, wal) = Wal::open(&wal.path, wal.compact_threshold)?;
    let replayed = records.len() as u64;
    let resynced = records.iter().filter(|r| matches!(r, WalRecord::Resync { .. })).count() as u64;

    // A lost WAL (zero records) means every id the dead incarnation ever
    // granted is unknown — if allocation restarted at 0, fresh grants
    // would collide with survivors' old ids and poison the resync
    // protocol (readmit would reject the rightful owner as "already a
    // member"). The same hole exists on failover: a promoting standby
    // replays only what was *shipped*, not what the primary admitted.
    // Fence allocation in both cases — wall clock alone is not enough
    // (clocks step backwards), so the fence is the max of all three
    // signals (see `Coordinator::fenced_next_id`).
    let next_id_floor = |observed_next, persisted_epoch| {
        if fence || replayed == 0 {
            Coordinator::fenced_next_id(wall_clock_ms(), observed_next, persisted_epoch)
        } else {
            observed_next
        }
    };
    let core = ControlCore::replay(config, seed, recorder.clone(), records, next_id_floor)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let commit = CommitShared::new(Some(Box::new(wal)), strict, recorder.clone());
    Ok((State { core, recorder, commit, pending_wait: None, connections: 0 }, replayed, resynced))
}

/// Milliseconds since the unix epoch, with a fixed large fallback when
/// the system clock reads before 1970 (so the fence never collapses).
fn wall_clock_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(1 << 40, |d| u64::try_from(d.as_millis()).unwrap_or(1 << 40))
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop_now();
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("addr", &self.addr)
            .field("members", &self.members())
            .finish()
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    state: &Arc<Mutex<State>>,
    commit: &Arc<CommitShared>,
) {
    // Every connection handler is tracked, next to a clone of its socket,
    // and joined: finished handlers are reaped as new connections arrive
    // (so the list tracks the live set, not the total served), and the
    // stragglers are joined on the way out — a stopped coordinator leaves
    // no thread of its own behind.
    let mut children: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    while let Some(stream) = tcp::accept_next(listener, stop, &commit.recorder) {
        reap_finished(&mut children);
        let Ok(registered) = stream.try_clone() else {
            // Out of descriptors. Without the clone, stop could not close
            // this connection, so it is not served.
            commit.recorder.counter("accept_errors", 1);
            continue;
        };
        lock(state).note_connection(true);
        let state = Arc::clone(state);
        let commit = Arc::clone(commit);
        let handler = std::thread::spawn(move || {
            let _ = handle_connection(&stream, &state, &commit);
            // The registry's clone must not hold a finished connection
            // open: hang up now, whoever drops its descriptor last.
            let _ = stream.shutdown(Shutdown::Both);
            lock(&state).note_connection(false);
        });
        children.push((handler, registered));
    }
    // Closing the read half ends an idle handler at once (its blocked
    // read sees end of stream) while one in the middle of a request still
    // writes its response before it finds the same.
    for (_, conn) in &children {
        let _ = conn.shutdown(Shutdown::Read);
    }
    for (handler, _) in children {
        let _ = handler.join();
    }
}

/// Joins (without blocking) every handler that has already returned.
fn reap_finished(children: &mut Vec<(JoinHandle<()>, TcpStream)>) {
    let mut i = 0;
    while i < children.len() {
        if children[i].0.is_finished() {
            let _ = children.swap_remove(i).0.join();
        } else {
            i += 1;
        }
    }
}

/// Serves one control connection: request lines in, response lines out,
/// in order, until the caller hangs up, sends something unreadable, or
/// stays silent for [`CONTROL_IDLE`].
fn handle_connection(
    stream: &TcpStream,
    state: &Mutex<State>,
    commit: &Arc<CommitShared>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CONTROL_IDLE))?;
    stream.set_write_timeout(Some(CONTROL_IDLE))?;
    let mut reader = BufReader::new(stream);
    loop {
        let request = proto::read_request(&mut reader)?;
        commit.recorder.counter("ctrl_requests", 1);
        let (mut response, wait) = lock(state).handle(request);
        // The response computed above is not released until the batch
        // holding this mutation's WAL record is fsynced. The
        // state lock is NOT held here — other mutations pile into the same
        // batch while we wait, which is the whole point.
        if let Some(seq) = wait {
            match commit.wait_durable(seq, COMMIT_WAIT) {
                DurableWait::Durable => {}
                DurableWait::Degraded | DurableWait::TimedOut => {
                    if commit.strict() {
                        response = unavailable();
                    }
                    // Lenient mode serves the non-durable response; degraded
                    // mode has already been entered and telemetered.
                }
            }
        }
        proto::write_response(stream, &response)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ParentAddr;
    use curtain_overlay::{CurtainServer, Holder};
    use std::time::Duration;

    const T: Duration = Duration::from_secs(2);

    #[test]
    fn hello_requires_a_source() {
        let c = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
        let resp = proto::call(
            c.addr(),
            &Request::Hello { data_addr: "127.0.0.1:1".parse().unwrap() },
            T,
        )
        .unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn an_over_limit_request_line_is_dropped_not_buffered() {
        use crate::core::wire::MAX_REQUEST_LINE;
        use std::io::{Read, Write};

        let c = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
        assert_eq!(register(c.addr(), 9050), Response::Ok);
        let _ = hello(c.addr(), 9051);
        let mut raw = TcpStream::connect(c.addr()).unwrap();
        raw.set_read_timeout(Some(T)).unwrap();
        // The handler may hang up (and reset) before the last byte lands.
        let _ = raw.write_all(&vec![b'x'; MAX_REQUEST_LINE as usize + 1]);
        // The handler returns at the cap instead of waiting for a newline:
        // the connection closes well inside the 5 s socket timeout.
        let mut byte = [0u8; 1];
        match raw.read(&mut byte) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("handler kept the connection open: {other:?}"),
        }
        assert_eq!(c.members(), 1);
        let resp = proto::call(c.addr(), &Request::Stats, T).unwrap();
        assert_eq!(resp, Response::Stats { members: 1, completed: 0, repairs: 0 });
    }

    fn traced(seed: u64) -> (Coordinator, curtain_telemetry::MemorySink) {
        let sink = curtain_telemetry::MemorySink::new();
        let recorder = SharedRecorder::wall_clock(sink.clone());
        let c = Coordinator::start_traced(OverlayConfig::new(4, 2), seed, recorder).unwrap();
        (c, sink)
    }

    fn counter(sink: &curtain_telemetry::MemorySink, name: &str) -> u64 {
        sink.metrics().snapshot().counters.get(name).copied().unwrap_or(0)
    }

    #[test]
    fn fifty_calls_from_one_thread_are_one_accepted_connection() {
        let (c, sink) = traced(41);
        for _ in 0..50 {
            let resp = proto::call(c.addr(), &Request::Stats, T).unwrap();
            assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        }
        assert_eq!(counter(&sink, "ctrl_connections_accepted"), 1);
        assert_eq!(counter(&sink, "ctrl_requests"), 50);
        assert_eq!(sink.metrics().snapshot().gauges["ctrl_connections_live"], 1.0);
        assert!(c.health_json().contains("\"control_connections\":1"), "{}", c.health_json());
    }

    #[test]
    fn a_quiet_coordinator_answers_without_a_poll_wait() {
        let c = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
        let started = Instant::now();
        for _ in 0..200 {
            proto::call(c.addr(), &Request::Stats, T).unwrap();
        }
        // A coordinator that sleeps 5 ms between polls of `accept` needs
        // a second for these.
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(500), "200 calls took {elapsed:?}");
    }

    #[test]
    fn a_kept_connection_to_a_dead_coordinator_is_replaced_once() {
        let path = wal_dir().join("kept_connection_successor.wal");
        let wal = WalOptions::new(&path);
        let c = Coordinator::start_durable(OverlayConfig::new(4, 2), 42, SharedRecorder::null(), &wal)
            .unwrap();
        let addr = c.addr();
        assert_eq!(register(addr, 9890), Response::Ok);
        c.kill();
        let sink = curtain_telemetry::MemorySink::new();
        let recorder = SharedRecorder::wall_clock(sink.clone());
        let r = Coordinator::recover_at(addr, wal, OverlayConfig::new(4, 2), 42, recorder).unwrap();
        // This thread still holds its connection to the dead incarnation:
        // the call finds it closed and goes through on a fresh one.
        let _ = hello(addr, 9891);
        let _ = hello(addr, 9892);
        assert_eq!(r.members(), 2);
        assert_eq!(counter(&sink, "ctrl_connections_accepted"), 1);
        drop(r);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_idle_connection_is_reaped_and_the_next_call_still_succeeds() {
        let (c, sink) = traced(43);
        proto::call(c.addr(), &Request::Stats, T).unwrap();
        let live = || sink.metrics().snapshot().gauges["ctrl_connections_live"];
        assert_eq!(live(), 1.0);
        let deadline = Instant::now() + CONTROL_IDLE + Duration::from_secs(2);
        while live() != 0.0 {
            assert!(Instant::now() < deadline, "idle handler still alive after CONTROL_IDLE");
            std::thread::sleep(Duration::from_millis(50));
        }
        let resp = proto::call(c.addr(), &Request::Stats, T).unwrap();
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        assert_eq!(counter(&sink, "ctrl_connections_accepted"), 2);
    }

    #[test]
    fn kill_returns_promptly_with_idle_connections_open() {
        let c = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
        proto::call(c.addr(), &Request::Stats, T).unwrap();
        // The test thread keeps its connection; its handler sits in a read
        // with `CONTROL_IDLE` to go.
        let started = Instant::now();
        c.kill();
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "kill took {elapsed:?}");
    }

    /// A [`WalStore`] whose fsync takes a fixed, long time.
    struct SlowSync(Wal, Duration);

    impl WalStore for SlowSync {
        fn append(&mut self, record: &WalRecord) -> io::Result<()> {
            self.0.append(record)
        }
        fn sync(&mut self) -> io::Result<()> {
            std::thread::sleep(self.1);
            self.0.sync()
        }
        fn compact(&mut self, checkpoint: &WalRecord) -> io::Result<()> {
            self.0.compact(checkpoint)
        }
        fn bytes(&self) -> u64 {
            self.0.bytes()
        }
        fn records(&self) -> u64 {
            self.0.records()
        }
        fn needs_compaction(&self) -> bool {
            self.0.needs_compaction()
        }
    }

    #[test]
    fn a_request_in_flight_at_shutdown_still_gets_its_response() {
        let path = wal_dir().join("in_flight_at_shutdown.wal");
        let store = SlowSync(Wal::create(&path, u64::MAX).unwrap(), Duration::from_millis(300));
        let c = Coordinator::start_durable_with_store(
            OverlayConfig::new(4, 2),
            44,
            SharedRecorder::null(),
            Box::new(store),
            true,
        )
        .unwrap();
        let addr = c.addr();
        assert_eq!(register(addr, 9895), Response::Ok);
        let joiner = std::thread::spawn(move || {
            proto::call(addr, &Request::Hello { data_addr: "127.0.0.1:9896".parse().unwrap() }, T)
        });
        // The row is in `M` as soon as the hello is dispatched; its
        // response then waits out the slow fsync — which is when the
        // coordinator is told to stop.
        let deadline = Instant::now() + T;
        while c.members() == 0 {
            assert!(Instant::now() < deadline, "hello never reached the coordinator");
            std::thread::yield_now();
        }
        c.kill();
        let resp = joiner.join().unwrap().unwrap();
        assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_requests_in_one_write_get_two_responses_in_order() {
        use std::io::{BufRead, Write};

        let c = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
        let mut raw = TcpStream::connect(c.addr()).unwrap();
        raw.set_read_timeout(Some(T)).unwrap();
        let hello = Request::Hello { data_addr: "127.0.0.1:9897".parse().unwrap() };
        let both = format!("{}\n{}\n", Request::Stats.to_json_line(), hello.to_json_line());
        raw.write_all(both.as_bytes()).unwrap();
        let mut lines = BufReader::new(&raw).lines();
        let first = Response::parse_json_line(&lines.next().unwrap().unwrap()).unwrap();
        assert_eq!(first, Response::Stats { members: 0, completed: 0, repairs: 0 });
        // No source yet: the hello is refused — but it is answered, not
        // swallowed with the first request's read buffer.
        let second = Response::parse_json_line(&lines.next().unwrap().unwrap()).unwrap();
        assert!(matches!(second, Response::Error { .. }), "{second:?}");
    }

    #[test]
    fn a_one_request_then_close_client_is_served_as_before() {
        use std::io::{Read, Write};

        let c = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
        let mut raw = TcpStream::connect(c.addr()).unwrap();
        raw.set_read_timeout(Some(T)).unwrap();
        raw.write_all(format!("{}\n", Request::Stats.to_json_line()).as_bytes()).unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        // One response line, then the server's side closes too.
        let mut all = String::new();
        raw.read_to_string(&mut all).unwrap();
        assert_eq!(all.matches('\n').count(), 1, "{all:?}");
        let resp = Response::parse_json_line(&all).unwrap();
        assert_eq!(resp, Response::Stats { members: 0, completed: 0, repairs: 0 });
    }

    #[test]
    fn register_then_hello_then_stats() {
        let c = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
        let resp = proto::call(
            c.addr(),
            &Request::RegisterSource {
                data_addr: "127.0.0.1:9999".parse().unwrap(),
                generations: 1,
                generation_size: 8,
                packet_len: 64,
                content_len: 512,
            },
            T,
        )
        .unwrap();
        assert_eq!(resp, Response::Ok);
        let resp = proto::call(
            c.addr(),
            &Request::Hello { data_addr: "127.0.0.1:10000".parse().unwrap() },
            T,
        )
        .unwrap();
        let Response::Welcome { node, generation_size, content_len, parents, .. } = resp else {
            panic!("expected welcome, got {resp:?}");
        };
        assert_eq!(generation_size, 8);
        assert_eq!(content_len, 512);
        assert_eq!(parents.len(), 2);
        assert!(parents.iter().all(|(_, p)| matches!(p, ParentAddr::Source(_))));
        // Stats reflect the join.
        let resp = proto::call(c.addr(), &Request::Stats, T).unwrap();
        assert_eq!(resp, Response::Stats { members: 1, completed: 0, repairs: 0 });
        // Completion is recorded.
        proto::call(c.addr(), &Request::Completed { node }, T).unwrap();
        assert_eq!(c.completed(), 1);
    }

    #[test]
    fn complaint_splices_and_redirects() {
        let c = Coordinator::start_seeded(OverlayConfig::new(4, 2), 7).unwrap();
        proto::call(
            c.addr(),
            &Request::RegisterSource {
                data_addr: "127.0.0.1:9000".parse().unwrap(),
                generations: 1,
                generation_size: 4,
                packet_len: 16,
                content_len: 64,
            },
            T,
        )
        .unwrap();
        // Two peers; the second may hang below the first.
        let mut nodes = Vec::new();
        for port in [9001u16, 9002] {
            let resp = proto::call(
                c.addr(),
                &Request::Hello {
                    data_addr: format!("127.0.0.1:{port}").parse().unwrap(),
                },
                T,
            )
            .unwrap();
            let Response::Welcome { node, .. } = resp else { panic!() };
            nodes.push(node);
        }
        // Find a (child, thread, parent) relation from the checkpoint.
        let snapshot = c.checkpoint_json().unwrap();
        let restored = CurtainServer::from_json(&snapshot).unwrap();
        let pos1 = restored.matrix().position_of(nodes[1]).unwrap();
        let parents = restored.matrix().parents_of_position(pos1);
        let (thread, holder) = parents[0];
        let failed = match holder {
            Holder::Node(n) => Some(n),
            Holder::Server => None,
        };
        let resp = proto::call(
            c.addr(),
            &Request::Complaint { child: nodes[1], failed_parent: failed, thread, ctx: None },
            T,
        )
        .unwrap();
        let Response::Redirect { thread: t2, new_parent } = resp else {
            panic!("expected redirect, got {resp:?}");
        };
        assert_eq!(t2, thread);
        if failed.is_some() {
            // The accused is gone; member count dropped and the redirect
            // points somewhere that is not the failed node.
            assert_eq!(c.members(), 1);
            assert_eq!(c.repairs(), 1);
            assert_ne!(new_parent.node(), failed);
        } else {
            assert!(matches!(new_parent, ParentAddr::Source(_)));
        }
    }

    #[test]
    fn duplicate_complaint_returns_current_parent() {
        let c = Coordinator::start_seeded(OverlayConfig::new(4, 2), 3).unwrap();
        proto::call(
            c.addr(),
            &Request::RegisterSource {
                data_addr: "127.0.0.1:9300".parse().unwrap(),
                generations: 1,
                generation_size: 4,
                packet_len: 16,
                content_len: 64,
            },
            T,
        )
        .unwrap();
        let mut nodes = Vec::new();
        for port in 9301u16..9307 {
            let resp = proto::call(
                c.addr(),
                &Request::Hello {
                    data_addr: format!("127.0.0.1:{port}").parse().unwrap(),
                },
                T,
            )
            .unwrap();
            let Response::Welcome { node, .. } = resp else { panic!() };
            nodes.push(node);
        }
        // Find a (child, thread, parent) relation where the parent is a
        // node (straight from the in-process matrix — no checkpoint).
        let (child, thread, failed) = {
            let st = lock(&c.state);
            let mut found = None;
            'outer: for &n in &nodes {
                let pos = st.core.server().matrix().position_of(n).unwrap();
                for (t, holder) in st.core.server().matrix().parents_of_position(pos) {
                    if let Holder::Node(p) = holder {
                        found = Some((n, t, p));
                        break 'outer;
                    }
                }
            }
            found.expect("with six members some thread has a node parent")
        };
        let resp = proto::call(
            c.addr(),
            &Request::Complaint { child, failed_parent: Some(failed), thread, ctx: None },
            T,
        )
        .unwrap();
        let Response::Redirect { new_parent: first, .. } = resp else {
            panic!("expected redirect, got {resp:?}");
        };
        assert_ne!(first.node(), Some(failed));
        assert_eq!(c.repairs(), 1);
        // A duplicate complaint against the already-spliced parent (e.g.
        // from a retrying child whose first response was lost) must not
        // trigger a second repair, and must name the child's *current*
        // parent on that thread.
        let resp = proto::call(
            c.addr(),
            &Request::Complaint { child, failed_parent: Some(failed), thread, ctx: None },
            T,
        )
        .unwrap();
        let Response::Redirect { thread: t2, new_parent: second } = resp else {
            panic!("expected redirect, got {resp:?}");
        };
        assert_eq!(t2, thread);
        assert_eq!(c.repairs(), 1, "duplicate complaint must not re-repair");
        assert_ne!(second.node(), Some(failed));
        let expected = lock(&c.state).core.current_parent(child, thread).unwrap();
        assert_eq!(second, expected);
    }

    #[test]
    fn traced_coordinator_records_connection_lifecycle() {
        use curtain_telemetry::MemorySink;

        let sink = MemorySink::new();
        let c = Coordinator::start_traced(
            OverlayConfig::new(4, 2),
            11,
            SharedRecorder::wall_clock(sink.clone()),
        )
        .unwrap();
        proto::call(
            c.addr(),
            &Request::RegisterSource {
                data_addr: "127.0.0.1:9200".parse().unwrap(),
                generations: 1,
                generation_size: 4,
                packet_len: 16,
                content_len: 64,
            },
            T,
        )
        .unwrap();
        let resp = proto::call(
            c.addr(),
            &Request::Hello { data_addr: "127.0.0.1:9201".parse().unwrap() },
            T,
        )
        .unwrap();
        let Response::Welcome { node, .. } = resp else { panic!() };
        proto::call(c.addr(), &Request::Goodbye { node }, T).unwrap();

        let events = sink.events();
        // Overlay-level Hello/GoodBye plus net-level connect/disconnect,
        // all wall-stamped (after 2020-01-01 in unix-ms terms).
        assert!(events.iter().all(|(at, _)| *at > 1_577_836_800_000));
        let kinds: Vec<&str> = events.iter().map(|(_, e)| e.kind()).collect();
        assert!(kinds.contains(&"hello"));
        assert!(kinds.contains(&"peer_connect"));
        assert!(kinds.contains(&"good_bye"));
        assert!(kinds.contains(&"peer_disconnect"));
        assert_eq!(sink.metrics().snapshot().gauges["coordinator_members"], 0.0);
    }

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

    fn hello(addr: SocketAddr, data_port: u16) -> (curtain_overlay::NodeId, Vec<(u16, ParentAddr)>) {
        let resp = proto::call(
            addr,
            &Request::Hello { data_addr: format!("127.0.0.1:{data_port}").parse().unwrap() },
            T,
        )
        .unwrap();
        let Response::Welcome { node, parents, .. } = resp else {
            panic!("expected welcome, got {resp:?}");
        };
        (node, parents)
    }

    #[test]
    fn second_source_at_other_addr_is_rejected() {
        use curtain_telemetry::MemorySink;

        let sink = MemorySink::new();
        let c = Coordinator::start_traced(
            OverlayConfig::new(4, 2),
            5,
            SharedRecorder::wall_clock(sink.clone()),
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9400), Response::Ok);
        // Same address again: the restart case, idempotent.
        assert_eq!(register(c.addr(), 9400), Response::Ok);
        // Different address while the first is live: refused loudly.
        let resp = register(c.addr(), 9401);
        let Response::Error { reason } = resp else {
            panic!("expected rejection, got {resp:?}");
        };
        assert!(reason.contains("already registered"), "{reason}");
        let kinds: Vec<String> =
            sink.events().iter().map(|(_, e)| e.kind().to_string()).collect();
        assert!(kinds.contains(&"source_register_rejected".to_string()));
        assert_eq!(sink.metrics().snapshot().counters["source_register_rejected"], 1);
        // The original registration still stands.
        let (_, parents) = hello(c.addr(), 9402);
        assert!(parents
            .iter()
            .all(|(_, p)| matches!(p, ParentAddr::Source(a) if a.port() == 9400)));
    }

    #[test]
    fn resync_readmits_forgotten_peer() {
        let c = Coordinator::start_seeded(OverlayConfig::new(4, 2), 9).unwrap();
        assert_eq!(register(c.addr(), 9500), Response::Ok);
        let (node, parents) = hello(c.addr(), 9501);
        // Simulate total amnesia: goodbye wipes the row, then the peer
        // resyncs its old id and thread set back in.
        proto::call(c.addr(), &Request::Goodbye { node }, T).unwrap();
        assert_eq!(c.members(), 0);
        let view: Vec<(u16, Option<NodeId>)> =
            parents.iter().map(|(t, p)| (*t, p.node())).collect();
        let resp = proto::call(
            c.addr(),
            &Request::Resync {
                node,
                data_addr: "127.0.0.1:9501".parse().unwrap(),
                parents: view.clone(),
                ctx: None,
            },
            T,
        )
        .unwrap();
        assert_eq!(resp, Response::Ok);
        assert_eq!(c.members(), 1);
        // Idempotent: a duplicate resync refreshes, never duplicates.
        let resp = proto::call(
            c.addr(),
            &Request::Resync {
                node,
                data_addr: "127.0.0.1:9501".parse().unwrap(),
                parents: view,
                ctx: None,
            },
            T,
        )
        .unwrap();
        assert_eq!(resp, Response::Ok);
        assert_eq!(c.members(), 1);
        // The readmitted row answers complaints again.
        let (t, _) = parents[0];
        let resp = proto::call(
            c.addr(),
            &Request::Complaint { child: node, failed_parent: None, thread: t, ctx: None },
            T,
        )
        .unwrap();
        assert!(matches!(resp, Response::Redirect { .. }), "{resp:?}");
        // New ids never collide with the resynced one.
        let (fresh, _) = hello(c.addr(), 9502);
        assert!(fresh.0 > node.0);
    }

    #[test]
    fn recover_replays_wal_to_identical_state() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recover_replays.wal");
        let wal = WalOptions::new(&path);

        let c = Coordinator::start_durable(
            OverlayConfig::new(4, 2),
            21,
            SharedRecorder::null(),
            &wal,
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9600), Response::Ok);
        let mut nodes = Vec::new();
        for port in 9601u16..9606 {
            nodes.push(hello(c.addr(), port).0);
        }
        proto::call(c.addr(), &Request::Goodbye { node: nodes[1] }, T).unwrap();
        proto::call(c.addr(), &Request::Completed { node: nodes[2] }, T).unwrap();
        let before = c.matrix_rows();
        let (members, completed) = (c.members(), c.completed());
        c.kill();

        let r = Coordinator::recover(&path, OverlayConfig::new(4, 2)).unwrap();
        assert_eq!(r.members(), members);
        assert_eq!(r.completed(), completed);
        // The rebuilt matrix is *identical* — same rows in the same order
        // (so every holder relation is preserved too). Cumulative metrics
        // are not replayed; only `M` is load-bearing.
        assert_eq!(r.matrix_rows(), before);
        // The recovered coordinator keeps serving: a new hello works and
        // the id is strictly fresher than every pre-crash id.
        let (fresh, _) = hello(r.addr(), 9609);
        assert!(nodes.iter().all(|n| fresh.0 > n.0));
        // Tidy shutdown compacts; a second recovery replays one record.
        r.shutdown();
        let (records, _) = Wal::open(&path, u64::MAX).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0], WalRecord::Checkpoint { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_rejects_mismatched_config() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recover_mismatch.wal");
        let c = Coordinator::start_durable(
            OverlayConfig::new(4, 2),
            1,
            SharedRecorder::null(),
            &WalOptions::new(&path),
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9700), Response::Ok);
        let _ = hello(c.addr(), 9701);
        // Force a checkpoint record into the log.
        c.shutdown();
        let err = Coordinator::recover(&path, OverlayConfig::new(8, 3)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn goodbye_removes_member() {
        let c = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
        proto::call(
            c.addr(),
            &Request::RegisterSource {
                data_addr: "127.0.0.1:9100".parse().unwrap(),
                generations: 1,
                generation_size: 4,
                packet_len: 16,
                content_len: 64,
            },
            T,
        )
        .unwrap();
        let resp = proto::call(
            c.addr(),
            &Request::Hello { data_addr: "127.0.0.1:9101".parse().unwrap() },
            T,
        )
        .unwrap();
        let Response::Welcome { node, .. } = resp else { panic!() };
        assert_eq!(c.members(), 1);
        let resp = proto::call(c.addr(), &Request::Goodbye { node }, T).unwrap();
        assert_eq!(resp, Response::Ok);
        assert_eq!(c.members(), 0);
        // Double good-bye is an error, not a crash.
        let resp = proto::call(c.addr(), &Request::Goodbye { node }, T).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    use std::sync::atomic::{AtomicU64, Ordering};

    /// Fault-injecting [`WalStore`]: flips append/sync/compact between
    /// healthy delegation and injected errors, and counts compaction
    /// attempts (the write-amplification regression watches that count).
    struct FlakyStore {
        inner: Wal,
        fail_sync: Arc<AtomicBool>,
        fail_compact: Arc<AtomicBool>,
        compacts: Arc<AtomicU64>,
    }

    impl FlakyStore {
        fn create(
            path: &Path,
            compact_threshold: u64,
        ) -> (Box<dyn WalStore>, Arc<AtomicBool>, Arc<AtomicBool>, Arc<AtomicU64>) {
            let fail_sync = Arc::new(AtomicBool::new(false));
            let fail_compact = Arc::new(AtomicBool::new(false));
            let compacts = Arc::new(AtomicU64::new(0));
            let store = FlakyStore {
                inner: Wal::create(path, compact_threshold).unwrap(),
                fail_sync: Arc::clone(&fail_sync),
                fail_compact: Arc::clone(&fail_compact),
                compacts: Arc::clone(&compacts),
            };
            (Box::new(store), fail_sync, fail_compact, compacts)
        }
    }

    impl WalStore for FlakyStore {
        fn append(&mut self, record: &WalRecord) -> io::Result<()> {
            self.inner.append(record)
        }

        fn sync(&mut self) -> io::Result<()> {
            if self.fail_sync.load(Ordering::SeqCst) {
                return Err(io::Error::other("injected sync failure"));
            }
            self.inner.sync()
        }

        fn compact(&mut self, checkpoint: &WalRecord) -> io::Result<()> {
            self.compacts.fetch_add(1, Ordering::SeqCst);
            if self.fail_compact.load(Ordering::SeqCst) {
                return Err(io::Error::other("injected compact failure"));
            }
            self.inner.compact(checkpoint)
        }

        fn bytes(&self) -> u64 {
            self.inner.bytes()
        }

        fn records(&self) -> u64 {
            self.inner.records()
        }

        fn needs_compaction(&self) -> bool {
            self.inner.needs_compaction()
        }
    }

    fn wal_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_failure_enters_degraded_mode_and_keeps_serving_lenient() {
        use curtain_telemetry::MemorySink;

        let path = wal_dir().join("degraded_lenient.wal");
        let (store, fail_sync, _, _) = FlakyStore::create(&path, u64::MAX);
        let sink = MemorySink::new();
        let c = Coordinator::start_durable_with_store(
            OverlayConfig::new(4, 2),
            31,
            SharedRecorder::wall_clock(sink.clone()),
            store,
            false, // lenient: serve from memory, loudly
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9800), Response::Ok);
        let _ = hello(c.addr(), 9801);
        assert!(c.health_json().contains("\"durable\":true"), "{}", c.health_json());

        // Disk goes bad: the mutation whose batch hits the failing fsync is
        // still served (lenient) but the coordinator announces degradation
        // and flips /health before that response leaves.
        fail_sync.store(true, Ordering::SeqCst);
        let _ = hello(c.addr(), 9802);
        let health = c.health_json();
        assert!(health.contains("\"durable\":false"), "{health}");
        assert!(health.contains("\"wal_enabled\":true"), "{health}");

        // More mutations still serve (members grow in memory)...
        let _ = hello(c.addr(), 9803);
        assert_eq!(c.members(), 3);
        // ...and the degradation event fired exactly once.
        let degraded = sink
            .events()
            .iter()
            .filter(|(_, e)| e.kind() == "coordinator_degraded")
            .count();
        assert_eq!(degraded, 1, "degraded mode announces once, not per mutation");
        assert!(sink.metrics().snapshot().counters["wal_errors"] >= 1);
        drop(c);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strict_mode_refuses_mutations_after_wal_failure() {
        let path = wal_dir().join("degraded_strict.wal");
        let (store, fail_sync, _, _) = FlakyStore::create(&path, u64::MAX);
        let c = Coordinator::start_durable_with_store(
            OverlayConfig::new(4, 2),
            32,
            SharedRecorder::null(),
            store,
            true, // strict: refuse non-durable mutations
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9810), Response::Ok);
        let (node, _) = hello(c.addr(), 9811);

        fail_sync.store(true, Ordering::SeqCst);
        // The in-flight mutation whose batch hits the bad disk is refused.
        let resp = proto::call(
            c.addr(),
            &Request::Hello { data_addr: "127.0.0.1:9812".parse().unwrap() },
            T,
        )
        .unwrap();
        assert!(matches!(resp, Response::Unavailable { .. }), "{resp:?}");
        // So is every later mutation (upfront, without touching memory).
        let members_before = c.members();
        let resp = proto::call(c.addr(), &Request::Goodbye { node }, T).unwrap();
        assert!(matches!(resp, Response::Unavailable { .. }), "{resp:?}");
        assert_eq!(c.members(), members_before, "refused mutation must not apply");
        // Reads still serve: operators can inspect a degraded coordinator.
        let resp = proto::call(c.addr(), &Request::Stats, T).unwrap();
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        assert!(c.health_json().contains("\"durable\":false"));
        drop(c);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_batches_survive_kill_and_recover() {
        let path = wal_dir().join("commit_batches_recover.wal");
        let wal = WalOptions::new(&path);
        let c = Coordinator::start_durable(
            OverlayConfig::new(4, 2),
            33,
            SharedRecorder::null(),
            &wal,
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9820), Response::Ok);
        // Concurrent joins pile into shared batches.
        let addr = c.addr();
        let joins: Vec<_> = (0..4u16)
            .map(|i| std::thread::spawn(move || hello(addr, 9821 + i).0))
            .collect();
        let mut nodes: Vec<NodeId> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        nodes.sort_unstable();
        proto::call(c.addr(), &Request::Completed { node: nodes[0] }, T).unwrap();
        let before = c.matrix_rows();
        c.kill();

        // Every acknowledged mutation was durable when its response left:
        // replay rebuilds the exact same matrix.
        let r = Coordinator::recover(&path, OverlayConfig::new(4, 2)).unwrap();
        assert_eq!(r.matrix_rows(), before);
        assert_eq!(r.completed(), 1);
        r.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_compaction_backs_off_instead_of_retrying_every_mutation() {
        let path = wal_dir().join("compact_backoff.wal");
        // Tiny threshold: every mutation is over it from the start.
        let (store, _, fail_compact, compacts) = FlakyStore::create(&path, 1);
        let c = Coordinator::start_durable_with_store(
            OverlayConfig::new(4, 2),
            34,
            SharedRecorder::null(),
            store,
            false,
        )
        .unwrap();
        fail_compact.store(true, Ordering::SeqCst);
        assert_eq!(register(c.addr(), 9830), Response::Ok);
        // A storm of mutations while compaction keeps failing: without
        // the backoff latch every one retries a full-log rewrite.
        for port in 9831u16..9841 {
            let _ = hello(c.addr(), port);
        }
        let attempts = compacts.load(Ordering::SeqCst);
        assert!(
            attempts <= 2,
            "failed compaction must back off, not retry per mutation (got {attempts})"
        );
        // The disk heals and the backoff expires: compaction succeeds on
        // a later crossing instead of being latched off forever.
        fail_compact.store(false, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(450));
        let _ = hello(c.addr(), 9841);
        assert!(compacts.load(Ordering::SeqCst) > attempts, "compaction retries after backoff");
        drop(c);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fenced_next_id_dominates_clock_ids_and_epoch() {
        // Healthy case: wall clock dominates a small id space.
        assert_eq!(Coordinator::fenced_next_id(1_000_000, 42, 0), 1_000_000);
        // Backwards-stepping clock: the persisted epoch holds the line.
        assert_eq!(Coordinator::fenced_next_id(5, 10, 1_000_000), 1_000_001);
        // Observed ids above both: max id + 1 form wins.
        assert_eq!(Coordinator::fenced_next_id(5, 2_000_000, 1_000_000), 2_000_000);
        // Epoch saturates instead of wrapping.
        assert_eq!(Coordinator::fenced_next_id(0, 0, u64::MAX), u64::MAX);
    }

    #[test]
    fn recovery_never_allocates_below_the_persisted_epoch() {
        let path = wal_dir().join("epoch_fence.wal");
        let c = Coordinator::start_durable(
            OverlayConfig::new(4, 2),
            35,
            SharedRecorder::null(),
            &WalOptions::new(&path),
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9850), Response::Ok);
        let (node, _) = hello(c.addr(), 9851);
        // Checkpoint (persisting the epoch), then splice the member out:
        // its id now lives only in the checkpoint's epoch.
        c.shutdown();
        let far_future = wall_clock_ms() + 365 * 24 * 3600 * 1000;
        {
            // Simulate a dead incarnation that had granted far more ids
            // than the matrix shows (e.g. heavy churn since checkpoint)
            // by rewriting the checkpoint with an artificially *high*
            // epoch and no members — while the wall clock is "low".
            let (records, _) = Wal::open(&path, u64::MAX).unwrap();
            let [WalRecord::Checkpoint { server, source, .. }] = &records[..] else {
                panic!("expected one checkpoint, got {}", records.len());
            };
            let mut wal = Wal::create(&path, u64::MAX).unwrap();
            wal.append(&WalRecord::Checkpoint {
                server: server.clone(),
                addrs: vec![(node.0, "127.0.0.1:9851".parse().unwrap())],
                source: *source,
                completed: vec![],
                epoch: far_future,
            })
            .unwrap();
            wal.sync().unwrap();
        }
        let r = Coordinator::recover(&path, OverlayConfig::new(4, 2)).unwrap();
        let (fresh, _) = hello(r.addr(), 9852);
        assert!(
            fresh.0 >= far_future,
            "fresh id {} must clear the persisted epoch {far_future}",
            fresh.0
        );
        drop(r);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_only_wal_path_degrades_instead_of_lying() {
        // The satellite regression: the WAL's directory turns read-only
        // mid-run. Appends keep flowing through the already-open fd (fd
        // permissions are fixed at open), but compaction — which must
        // create `<log>.wal.tmp` — fails. The coordinator must survive,
        // keep the old log intact, and keep serving.
        let dir = wal_dir().join("ro-case");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("readonly.wal");
        let c = Coordinator::start_durable(
            OverlayConfig::new(4, 2),
            36,
            SharedRecorder::null(),
            &WalOptions::new(&path).with_compact_threshold(1),
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9860), Response::Ok);
        let mut perms = std::fs::metadata(&dir).unwrap().permissions();
        perms.set_readonly(true);
        std::fs::set_permissions(&dir, perms.clone()).unwrap();
        // Root bypasses directory permission bits entirely; in that case
        // the fault cannot be induced this way, so only assert liveness.
        let induced = std::fs::File::create(dir.join("probe.tmp")).is_err();
        for port in 9861u16..9864 {
            let _ = hello(c.addr(), port);
        }
        assert_eq!(c.members(), 3, "read-only path must not take the control plane down");
        #[allow(clippy::permissions_set_readonly_false)]
        perms.set_readonly(false);
        std::fs::set_permissions(&dir, perms).unwrap();
        drop(c);
        // The original log survived the failed compactions: replay works.
        if induced {
            let (records, _) = Wal::open(&path, u64::MAX).unwrap();
            assert!(!records.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_fetch_and_wal_tail_ship_state_over_the_control_port() {
        let path = wal_dir().join("snapshot_fetch.wal");
        let c = Coordinator::start_durable(
            OverlayConfig::new(4, 2),
            37,
            SharedRecorder::null(),
            &WalOptions::new(&path),
        )
        .unwrap();
        assert_eq!(register(c.addr(), 9870), Response::Ok);
        let _ = hello(c.addr(), 9871);
        let resp = proto::call(c.addr(), &Request::SnapshotFetch, T).unwrap();
        let Response::Snapshot { seq, record } = resp else {
            panic!("expected snapshot, got {resp:?}");
        };
        let ck = WalRecord::parse_json(&record).unwrap();
        assert!(matches!(ck, WalRecord::Checkpoint { .. }));
        // Tailing from the snapshot's seq returns nothing new...
        let resp = proto::call(c.addr(), &Request::WalTail { after: seq }, T).unwrap();
        let Response::WalSegment { last, records } = resp else {
            panic!("expected segment, got {resp:?}");
        };
        assert_eq!(last, seq);
        assert!(records.is_empty());
        // ...until another mutation lands.
        let _ = hello(c.addr(), 9872);
        let resp = proto::call(c.addr(), &Request::WalTail { after: seq }, T).unwrap();
        let Response::WalSegment { last, records } = resp else {
            panic!("expected segment, got {resp:?}");
        };
        assert_eq!(last, seq + 1);
        assert_eq!(records.len(), 1);
        assert!(matches!(
            WalRecord::parse_json(&records[0]).unwrap(),
            WalRecord::Hello { .. }
        ));
        // A tail from far behind the retained ring demands a snapshot.
        let resp = proto::call(c.addr(), &Request::SnapshotFetch, T).unwrap();
        assert!(matches!(resp, Response::Snapshot { .. }));
        drop(c);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resync_sweep_nudges_live_peers_and_splices_dead_ones() {
        use std::net::TcpListener as RawListener;

        let c = Coordinator::start_seeded(OverlayConfig::new(4, 2), 38).unwrap();
        assert_eq!(register(c.addr(), 9880), Response::Ok);
        // A live "peer": a raw listener we can watch for the nudge.
        let live = RawListener::bind("127.0.0.1:0").unwrap();
        let live_addr = live.local_addr().unwrap();
        let resp = proto::call(c.addr(), &Request::Hello { data_addr: live_addr }, T).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }));
        // A dead peer: an address nothing listens on (bind then drop).
        let dead_addr = {
            let l = RawListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let resp = proto::call(c.addr(), &Request::Hello { data_addr: dead_addr }, T).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }));
        assert_eq!(c.members(), 2);

        let nudge_reader = std::thread::spawn(move || {
            let (stream, _) = live.accept().unwrap();
            let stop = AtomicBool::new(false);
            framing::read_data_hello_deadline(&stream, &stop, Duration::from_secs(5)).unwrap()
        });
        let report = c.resync_sweep();
        assert_eq!(report.probed, 2);
        assert_eq!(report.nudged, 1);
        assert_eq!(report.spliced, 1);
        assert_eq!(c.members(), 1, "the unreachable peer is spliced out");
        assert_eq!(nudge_reader.join().unwrap(), framing::DataHello::ResyncNudge);
    }
}

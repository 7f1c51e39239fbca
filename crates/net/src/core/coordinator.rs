//! The coordinator's control-plane brain, sans io.
//!
//! [`ControlCore`] owns everything the protocol needs to answer a
//! request — the paper's matrix `M` (a [`CurtainServer`]), the member
//! address book, the registered source, the completion set — and nothing
//! it does not: no sockets, no WAL, no locks, no threads. It is also the
//! one place that knows what a [`Record`] does to `M`:
//!
//! * [`ControlCore::dispatch`] turns a [`CtrlRequest`] into a
//!   [`CoreOutcome`]: [`CoreOutcome::Done`] carries the response to send
//!   plus the [`Record`]s the request caused (the TCP driver appends them
//!   to its WAL as they are and runs its commit machinery; the vnet
//!   driver drops them — a simulated coordinator keeps no log);
//!   [`CoreOutcome::Driver`] hands back a request that touches commit
//!   state the core deliberately does not model (`SnapshotFetch`,
//!   `WalTail`), so the driver answers it from its commit queue.
//! * [`ControlCore::checkpoint`] renders the whole state as one record.
//! * [`ControlCore::replay`] folds a record stream back into a core and
//!   checks the row invariants before anything is served from it.
//!
//! The core is generic over the address type, so the same dispatch logic
//! serves real `SocketAddr`s over TCP and vnet endpoint ids inside
//! the simulator — the same grants, splices, and redirects either way.

use std::collections::{HashMap, HashSet};

use curtain_overlay::snapshot::RowSnapshot;
use curtain_overlay::{CurtainServer, Holder, NodeId, NodeStatus, OverlayConfig, ThreadId};
use curtain_telemetry::trace::{fresh_id, COORDINATOR_NODE};
use curtain_telemetry::{Event, SharedRecorder, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::core::ctrl::{CtrlParent, CtrlRequest, CtrlRequest as Request, CtrlResponse, WireAddr};
use crate::core::record::{Record, SourceInfo};

/// What [`ControlCore::dispatch`] decided.
#[derive(Debug)]
pub enum CoreOutcome<A: WireAddr> {
    /// The core handled the request: send `response` after making the
    /// `effects` durable (in order — a complaint's splice record must
    /// land before anything that observes the repaired matrix).
    Done {
        /// The response to write back.
        response: CtrlResponse<A>,
        /// Matrix mutations this request caused, in application order.
        /// Applied to memory already; the driver only persists them.
        effects: Vec<Record<A>>,
    },
    /// A durability verb (`SnapshotFetch` / `WalTail`) the driver must
    /// answer from its commit state; the core has no opinion.
    Driver(CtrlRequest<A>),
}

/// The sans-io coordinator state machine. See the module docs.
pub struct ControlCore<A: WireAddr> {
    server: CurtainServer,
    rng: StdRng,
    addrs: HashMap<NodeId, A>,
    source: Option<SourceInfo<A>>,
    completed: HashSet<NodeId>,
    recorder: SharedRecorder,
}

impl<A: WireAddr> ControlCore<A> {
    /// A fresh core: empty matrix for `config`, thread assignments drawn
    /// from a `seed`ed RNG, protocol telemetry onto `recorder`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the overlay server.
    pub fn new(config: OverlayConfig, seed: u64, recorder: SharedRecorder) -> Result<Self, String> {
        let mut server = CurtainServer::new(config).map_err(|e| e.to_string())?;
        server.set_recorder(recorder.clone());
        Ok(ControlCore {
            server,
            rng: StdRng::seed_from_u64(seed),
            addrs: HashMap::new(),
            source: None,
            completed: HashSet::new(),
            recorder,
        })
    }

    /// Rebuilds a core by folding a record stream — the recovery path.
    ///
    /// Replay is pure data manipulation over a
    /// [`curtain_overlay::snapshot`]: a checkpoint record resets the fold,
    /// each mutation record edits the snapshot's row list, and the final
    /// snapshot goes through the public `CurtainServer::restore` round
    /// trip — no RNG, no insert policy, no re-derivation of decisions the
    /// dead coordinator already made.
    ///
    /// `fence(observed_next, persisted_epoch)` names the id below which
    /// the rebuilt core must not allocate; it can only raise the floor.
    /// The driver owns it because the wall clock is one of its inputs.
    ///
    /// # Errors
    ///
    /// Describes a configuration error, a checkpoint for another `(k, d)`,
    /// or a replayed `M` that violates the row invariants: unique ids,
    /// exactly `d` distinct in-range threads per row, an address per
    /// member, every id below `next_id`.
    pub fn replay(
        config: OverlayConfig,
        seed: u64,
        recorder: SharedRecorder,
        records: impl IntoIterator<Item = Record<A>>,
        fence: impl FnOnce(u64, u64) -> u64,
    ) -> Result<Self, String> {
        let mut core = Self::new(config, seed, recorder.clone())?;
        let mut snap = core.server.snapshot();
        let mut persisted_epoch = 0u64;
        let working = |node, threads| RowSnapshot { node, threads, status: NodeStatus::Working };

        for record in records {
            match record {
                Record::Checkpoint { server, addrs, source, completed, epoch } => {
                    persisted_epoch = persisted_epoch.max(epoch);
                    let restored = CurtainServer::from_json(&server)
                        .map_err(|e| format!("bad checkpoint: {e}"))?;
                    let ck = restored.config();
                    if ck.k != config.k || ck.d != config.d {
                        return Err(format!(
                            "checkpoint is for k={}, d={}, not k={}, d={}",
                            ck.k, ck.d, config.k, config.d
                        ));
                    }
                    snap = restored.snapshot();
                    core.addrs = addrs.into_iter().map(|(n, a)| (NodeId(n), a)).collect();
                    core.source = source;
                    core.completed = completed.into_iter().map(NodeId).collect();
                }
                Record::RegisterSource(info) => core.source = Some(info),
                Record::Hello { node, position, threads, data_addr } => {
                    let pos = usize::try_from(position).map_err(|e| e.to_string())?;
                    if pos > snap.matrix.rows.len() {
                        return Err(format!(
                            "hello for node {node} at position {pos} of {}",
                            snap.matrix.rows.len()
                        ));
                    }
                    snap.matrix.rows.insert(pos, working(NodeId(node), threads));
                    snap.next_id = snap.next_id.max(node.saturating_add(1));
                    core.addrs.insert(NodeId(node), data_addr);
                }
                Record::Resync { node, threads, data_addr } => {
                    snap.matrix.rows.push(working(NodeId(node), threads));
                    snap.next_id = snap.next_id.max(node.saturating_add(1));
                    core.addrs.insert(NodeId(node), data_addr);
                }
                Record::Goodbye { node } | Record::Splice { node } => {
                    let node = NodeId(node);
                    snap.matrix.rows.retain(|r| r.node != node);
                    core.addrs.remove(&node);
                    core.completed.remove(&node);
                }
                Record::Completed { node } => {
                    core.completed.insert(NodeId(node));
                }
            }
        }

        // The checkpointed epoch is an id-allocation high-water mark: ids
        // granted before the checkpoint but spliced since leave no trace in
        // the replayed matrix, yet may still be alive in a partitioned
        // peer's view. Never allocate below it.
        snap.next_id = snap.next_id.max(persisted_epoch);
        snap.next_id = snap.next_id.max(fence(snap.next_id, persisted_epoch));

        // Assert the rebuilt M *before* restore (whose internal inserts
        // would panic on violations).
        let mut seen = HashSet::new();
        for row in &snap.matrix.rows {
            if !seen.insert(row.node) {
                return Err(format!("duplicate row for node {}", row.node));
            }
            let mut threads = row.threads.clone();
            threads.sort_unstable();
            threads.dedup();
            if threads.len() != config.d || threads.iter().any(|&t| (t as usize) >= config.k) {
                return Err(format!(
                    "row for node {} does not hold exactly d={} distinct threads",
                    row.node, config.d
                ));
            }
            if !core.addrs.contains_key(&row.node) {
                return Err(format!("member {} has no data address", row.node));
            }
            if row.node.0 >= snap.next_id {
                return Err(format!("node {} at or above next_id", row.node));
            }
        }
        let mut server = CurtainServer::restore(snap).map_err(|e| e.to_string())?;
        server.matrix().assert_invariants();
        server.set_recorder(recorder);
        core.addrs.retain(|n, _| server.matrix().position_of(*n).is_some());
        core.completed.retain(|n| server.matrix().position_of(*n).is_some());
        core.server = server;
        Ok(core)
    }

    /// The full state as one record — what compaction rewrites the log to
    /// and what a bootstrapping standby fetches. The embedded epoch is the
    /// id-allocation high-water mark, which fences post-recovery grants
    /// against clock steps.
    ///
    /// # Errors
    ///
    /// Propagates overlay serialization errors.
    pub fn checkpoint(&self) -> Result<Record<A>, String> {
        let server = self.server.to_json().map_err(|e| e.to_string())?;
        let mut addrs: Vec<(u64, A)> = self.addrs.iter().map(|(n, a)| (n.0, *a)).collect();
        addrs.sort_unstable_by_key(|(n, _)| *n);
        let mut completed: Vec<u64> = self.completed.iter().map(|n| n.0).collect();
        completed.sort_unstable();
        Ok(Record::Checkpoint {
            server,
            addrs,
            source: self.source,
            completed,
            epoch: self.server.next_node_id(),
        })
    }

    /// The embedded overlay server (the matrix `M` and its metrics).
    #[must_use]
    pub fn server(&self) -> &CurtainServer {
        &self.server
    }

    /// Data-plane address per member.
    #[must_use]
    pub fn addrs(&self) -> &HashMap<NodeId, A> {
        &self.addrs
    }

    /// The registered source, if any.
    #[must_use]
    pub fn source(&self) -> Option<&SourceInfo<A>> {
        self.source.as_ref()
    }

    /// Nodes that reported full decode.
    #[must_use]
    pub fn completed(&self) -> &HashSet<NodeId> {
        &self.completed
    }

    fn parent_addr(&self, holder: Holder) -> Option<CtrlParent<A>> {
        match holder {
            Holder::Server => self.source.as_ref().map(|s| CtrlParent::Source(s.addr)),
            Holder::Node(n) => self.addrs.get(&n).map(|a| CtrlParent::Node(n, *a)),
        }
    }

    /// Opens a coordinator-side span hanging off a request's causal
    /// context. Returns `None` (and records nothing) when the request was
    /// untraced — span bookkeeping must stay free for old/untraced peers.
    fn span_start(&self, ctx: Option<TraceContext>, name: &str) -> Option<TraceContext> {
        let ctx = ctx?;
        let child = TraceContext { trace: ctx.trace, span: fresh_id() };
        self.recorder.record(&Event::SpanStart {
            trace: child.trace,
            span: child.span,
            parent: ctx.span,
            name: name.to_string(),
            node: COORDINATOR_NODE,
        });
        Some(child)
    }

    /// Closes a span opened by [`ControlCore::span_start`] (no-op on `None`).
    fn span_end(&self, span: Option<TraceContext>, ok: bool) {
        if let Some(span) = span {
            self.recorder.record(&Event::SpanEnd { trace: span.trace, span: span.span, ok });
        }
    }

    /// The child's current parent on `thread`, after any necessary repair.
    ///
    /// # Errors
    ///
    /// Describes an unknown child (the one reason [`super::ctrl::Reply::of`]
    /// reads: amnesia), a thread the child does not hold, or a missing
    /// source registration.
    pub fn current_parent(
        &mut self,
        child: NodeId,
        thread: ThreadId,
    ) -> Result<CtrlParent<A>, String> {
        let pos = self
            .server
            .matrix()
            .position_of(child)
            .ok_or_else(|| format!("unknown child {child}"))?;
        let (_, holder) = self
            .server
            .matrix()
            .parents_of_position(pos)
            .into_iter()
            .find(|(t, _)| *t == thread)
            .ok_or_else(|| format!("{child} does not hold thread {thread}"))?;
        self.parent_addr(holder)
            .ok_or_else(|| "no source registered".to_string())
    }

    /// Marks `failed` failed and splices it out of `M` — report, repair,
    /// telemetry — returning the record the driver must persist. Shared
    /// by the complaint handler and the proactive resync sweep.
    pub fn splice_out(&mut self, failed: NodeId, ctx: Option<TraceContext>) -> Record<A> {
        let splice_span = self.span_start(ctx, "splice");
        let _ = self.server.report_failure(failed);
        let _ = self.server.repair(failed);
        self.addrs.remove(&failed);
        self.completed.remove(&failed);
        self.recorder.record(&Event::PeerDisconnect { peer: failed.0 });
        self.recorder.gauge("coordinator_members", self.server.matrix().len() as f64);
        self.span_end(splice_span, true);
        Record::Splice { node: failed.0 }
    }

    /// Handles one control request. Durability verbs come back as
    /// [`CoreOutcome::Driver`]; everything else is decided here, with the
    /// memory state already mutated and the needed persistence listed in
    /// the outcome's effects.
    pub fn dispatch(&mut self, request: CtrlRequest<A>) -> CoreOutcome<A> {
        let mut effects = Vec::new();
        let response = match request {
            Request::RegisterSource {
                data_addr,
                generations,
                generation_size,
                packet_len,
                content_len,
            } => {
                // A second registration at a *different* address while a
                // session is live is a hijack, not a restart — refuse it.
                // (Same-address re-registration is the restart case and
                // stays idempotent.)
                if let Some(existing) = self.source {
                    if existing.addr != data_addr {
                        self.recorder.record(&Event::SourceRegisterRejected);
                        self.recorder.counter("source_register_rejected", 1);
                        return CoreOutcome::Done {
                            response: CtrlResponse::Error {
                                reason: format!(
                                    "source already registered at {}",
                                    existing.addr.render()
                                ),
                            },
                            effects,
                        };
                    }
                }
                let info = SourceInfo {
                    addr: data_addr,
                    generations,
                    generation_size,
                    packet_len,
                    content_len,
                };
                self.source = Some(info);
                effects.push(Record::RegisterSource(info));
                CtrlResponse::Ok
            }
            Request::Hello { data_addr } => {
                let Some(info) = self.source else {
                    return CoreOutcome::Done {
                        response: CtrlResponse::Error {
                            reason: "no source registered yet".into(),
                        },
                        effects,
                    };
                };
                let grant = self.server.hello(&mut self.rng);
                self.addrs.insert(grant.node, data_addr);
                effects.push(Record::Hello {
                    node: grant.node.0,
                    position: grant.position as u64,
                    threads: grant.parents.iter().map(|(t, _)| *t).collect(),
                    data_addr,
                });
                self.recorder.record(&Event::PeerConnect { peer: grant.node.0 });
                self.recorder.gauge("coordinator_members", self.server.matrix().len() as f64);
                let mut parents = Vec::with_capacity(grant.parents.len());
                for (thread, holder) in grant.parents {
                    match self.parent_addr(holder) {
                        Some(p) => parents.push((thread, p)),
                        None => {
                            return CoreOutcome::Done {
                                response: CtrlResponse::Error {
                                    reason: format!(
                                        "no address for parent of thread {thread}"
                                    ),
                                },
                                effects,
                            }
                        }
                    }
                }
                CtrlResponse::Welcome {
                    node: grant.node,
                    generations: info.generations,
                    generation_size: info.generation_size,
                    packet_len: info.packet_len,
                    content_len: info.content_len,
                    parents,
                }
            }
            Request::Goodbye { node } => match self.server.goodbye(node) {
                Ok(_) => {
                    self.addrs.remove(&node);
                    effects.push(Record::Goodbye { node: node.0 });
                    self.recorder.record(&Event::PeerDisconnect { peer: node.0 });
                    self.recorder
                        .gauge("coordinator_members", self.server.matrix().len() as f64);
                    CtrlResponse::Ok
                }
                Err(e) => CtrlResponse::Error { reason: e.to_string() },
            },
            Request::Complaint { child, failed_parent, thread, ctx } => {
                // If the accused is still a member, mark it failed and
                // splice it out (report + repair merged: the coordinator is
                // the repair interval here). Duplicate complaints are fine:
                // the node is already gone and we just return the child's
                // current parent.
                if let Some(failed) = failed_parent {
                    if self.server.matrix().position_of(failed).is_some() {
                        // When the complaint carries a causal context, the
                        // splice work becomes a child span of it — the
                        // stitched repair-episode tree then shows the
                        // coordinator-side step between complain and
                        // repair-complete.
                        effects.push(self.splice_out(failed, ctx));
                    }
                }
                match self.current_parent(child, thread) {
                    Ok(new_parent) => CtrlResponse::Redirect { thread, new_parent },
                    Err(reason) => CtrlResponse::Error { reason },
                }
            }
            Request::Completed { node } => {
                if self.completed.insert(node) {
                    effects.push(Record::Completed { node: node.0 });
                }
                CtrlResponse::Ok
            }
            Request::Resync { node, data_addr, parents, ctx } => {
                if self.server.matrix().position_of(node).is_some() {
                    // Already known — a duplicate resync (the first Ok was
                    // lost), or the WAL had the row all along. Refresh the
                    // address and move on.
                    self.addrs.insert(node, data_addr);
                    return CoreOutcome::Done { response: CtrlResponse::Ok, effects };
                }
                let resync_span = self.span_start(ctx, "resync");
                let mut threads: Vec<ThreadId> = parents.iter().map(|(t, _)| *t).collect();
                threads.sort_unstable();
                match self.server.readmit(node, threads.clone(), NodeStatus::Working) {
                    Ok(_) => {
                        self.addrs.insert(node, data_addr);
                        effects.push(Record::Resync {
                            node: node.0,
                            threads: threads.clone(),
                            data_addr,
                        });
                        self.recorder.record(&Event::PeerResync {
                            peer: node.0,
                            threads: threads.len() as u32,
                        });
                        self.recorder.counter("resynced_rows", 1);
                        self.recorder
                            .gauge("coordinator_members", self.server.matrix().len() as f64);
                        self.span_end(resync_span, true);
                        CtrlResponse::Ok
                    }
                    Err(e) => {
                        self.span_end(resync_span, false);
                        CtrlResponse::Error { reason: e.to_string() }
                    }
                }
            }
            Request::Stats => CtrlResponse::Stats {
                members: self.server.matrix().len(),
                completed: self.completed.len(),
                repairs: self.server.metrics().repairs,
            },
            request @ (Request::SnapshotFetch | Request::WalTail { .. }) => {
                return CoreOutcome::Driver(request)
            }
        };
        CoreOutcome::Done { response, effects }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curtain_telemetry::SharedRecorder;

    /// A toy address: vnet-style endpoint slots, no `std::net` anywhere.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Slot(u64);

    impl WireAddr for Slot {
        fn render(&self) -> String {
            format!("slot:{}", self.0)
        }
        fn parse(s: &str) -> Result<Self, String> {
            s.strip_prefix("slot:")
                .and_then(|n| n.parse().ok())
                .map(Slot)
                .ok_or_else(|| format!("bad slot {s:?}"))
        }
    }

    fn core() -> ControlCore<Slot> {
        ControlCore::new(OverlayConfig::new(4, 2), 7, SharedRecorder::null()).unwrap()
    }

    fn done(outcome: CoreOutcome<Slot>) -> (CtrlResponse<Slot>, Vec<Record<Slot>>) {
        match outcome {
            CoreOutcome::Done { response, effects } => (response, effects),
            CoreOutcome::Driver(r) => panic!("unexpected driver outcome for {r:?}"),
        }
    }

    fn register(core: &mut ControlCore<Slot>) {
        let (resp, effects) = done(core.dispatch(Request::RegisterSource {
            data_addr: Slot(1000),
            generations: 1,
            generation_size: 8,
            packet_len: 64,
            content_len: 512,
        }));
        assert_eq!(resp, CtrlResponse::Ok);
        assert_eq!(effects.len(), 1);
        assert!(matches!(effects[0], Record::RegisterSource(_)));
    }

    #[test]
    fn hello_without_a_source_is_refused_with_no_effects() {
        let mut core = core();
        let (resp, effects) = done(core.dispatch(Request::Hello { data_addr: Slot(1) }));
        assert!(matches!(resp, CtrlResponse::Error { .. }));
        assert!(effects.is_empty());
    }

    #[test]
    fn register_hello_complete_flow_emits_matching_mutations() {
        let mut core = core();
        register(&mut core);
        let (resp, effects) = done(core.dispatch(Request::Hello { data_addr: Slot(1) }));
        let CtrlResponse::Welcome { node, generation_size, parents, .. } = resp else {
            panic!("expected welcome, got {resp:?}");
        };
        assert_eq!(generation_size, 8);
        assert_eq!(parents.len(), 2);
        assert!(parents.iter().all(|(_, p)| matches!(p, CtrlParent::Source(Slot(1000)))));
        let [Record::Hello { node: n, threads, data_addr, .. }] = &effects[..] else {
            panic!("expected one hello mutation, got {effects:?}");
        };
        assert_eq!(*n, node.0);
        assert_eq!(threads.len(), 2);
        assert_eq!(*data_addr, Slot(1));
        // Completion books once, then goes idempotent (no second record).
        let (_, effects) = done(core.dispatch(Request::Completed { node }));
        assert_eq!(effects, vec![Record::Completed { node: node.0 }]);
        let (_, effects) = done(core.dispatch(Request::Completed { node }));
        assert!(effects.is_empty());
    }

    #[test]
    fn hijacking_register_is_refused() {
        let mut core = core();
        register(&mut core);
        let (resp, effects) = done(core.dispatch(Request::RegisterSource {
            data_addr: Slot(2000),
            generations: 1,
            generation_size: 8,
            packet_len: 64,
            content_len: 512,
        }));
        let CtrlResponse::Error { reason } = resp else { panic!("expected refusal") };
        assert!(reason.contains("slot:1000"), "reason: {reason}");
        assert!(effects.is_empty());
        // Same-address re-registration stays idempotent.
        register(&mut core);
    }

    #[test]
    fn complaint_splices_then_redirects() {
        let mut core = core();
        register(&mut core);
        let mut nodes = Vec::new();
        for slot in [1u64, 2] {
            let (resp, _) = done(core.dispatch(Request::Hello { data_addr: Slot(slot) }));
            let CtrlResponse::Welcome { node, .. } = resp else { panic!() };
            nodes.push(node);
        }
        // Find a (child, thread, parent) relation to complain about.
        let pos1 = core.server().matrix().position_of(nodes[1]).unwrap();
        let (thread, holder) = core.server().matrix().parents_of_position(pos1)[0];
        let failed = match holder {
            Holder::Node(n) => n,
            Holder::Server => {
                // Child of the source: complaints about the source carry
                // no failed_parent and splice nothing.
                let (resp, effects) = done(core.dispatch(Request::Complaint {
                    child: nodes[1],
                    failed_parent: None,
                    thread,
                    ctx: None,
                }));
                assert!(matches!(resp, CtrlResponse::Redirect { .. }));
                assert!(effects.is_empty());
                return;
            }
        };
        let (resp, effects) = done(core.dispatch(Request::Complaint {
            child: nodes[1],
            failed_parent: Some(failed),
            thread,
            ctx: None,
        }));
        let CtrlResponse::Redirect { thread: t, new_parent } = resp else {
            panic!("expected redirect, got {resp:?}");
        };
        assert_eq!(t, thread);
        assert_ne!(new_parent.node(), Some(failed), "redirected back at the corpse");
        assert_eq!(effects, vec![Record::Splice { node: failed.0 }]);
        assert!(core.server().matrix().position_of(failed).is_none());
        // A duplicate complaint finds the node gone: redirect, no splice.
        let (resp, effects) = done(core.dispatch(Request::Complaint {
            child: nodes[1],
            failed_parent: Some(failed),
            thread,
            ctx: None,
        }));
        assert!(matches!(resp, CtrlResponse::Redirect { .. }));
        assert!(effects.is_empty());
    }

    #[test]
    fn resync_readmits_an_unknown_row() {
        let mut core = core();
        register(&mut core);
        let (resp, _) = done(core.dispatch(Request::Hello { data_addr: Slot(1) }));
        let CtrlResponse::Welcome { node, parents, .. } = resp else { panic!() };
        let row: Vec<(ThreadId, Option<NodeId>)> =
            parents.iter().map(|(t, p)| (*t, p.node())).collect();
        // Known node: address refresh only, no mutation.
        let (resp, effects) = done(core.dispatch(Request::Resync {
            node,
            data_addr: Slot(9),
            parents: row.clone(),
            ctx: None,
        }));
        assert_eq!(resp, CtrlResponse::Ok);
        assert!(effects.is_empty());
        assert_eq!(core.addrs().get(&node), Some(&Slot(9)));
        // Amnesiac path: splice it, then readmit from the peer's view.
        let _ = core.splice_out(node, None);
        assert!(core.server().matrix().position_of(node).is_none());
        let (resp, effects) = done(core.dispatch(Request::Resync {
            node,
            data_addr: Slot(9),
            parents: row,
            ctx: None,
        }));
        assert_eq!(resp, CtrlResponse::Ok);
        assert!(matches!(&effects[..], [Record::Resync { node: n, .. }] if *n == node.0));
        assert!(core.server().matrix().position_of(node).is_some());
    }

    fn replay(records: Vec<Record<Slot>>) -> Result<ControlCore<Slot>, String> {
        let config = OverlayConfig::new(4, 2);
        ControlCore::replay(config, 99, SharedRecorder::null(), records, |next, _| next)
    }

    /// `M`'s rows in matrix order — position is load-bearing (it decides
    /// every holder relation), so replay must reproduce it exactly.
    fn rows(core: &ControlCore<Slot>) -> Vec<(NodeId, Vec<ThreadId>)> {
        core.server().matrix().rows().iter().map(|r| (r.node(), r.threads().to_vec())).collect()
    }

    #[test]
    fn replaying_what_dispatch_emitted_rebuilds_the_same_core() {
        type Log = Vec<Record<Slot>>;
        fn drive(
            live: &mut ControlCore<Slot>,
            log: &mut Log,
            request: Request<Slot>,
        ) -> CtrlResponse<Slot> {
            let (response, effects) = done(live.dispatch(request));
            log.extend(effects);
            response
        }
        let (mut live, mut log) = (core(), Log::new());
        drive(
            &mut live,
            &mut log,
            Request::RegisterSource {
                data_addr: Slot(1000),
                generations: 1,
                generation_size: 8,
                packet_len: 64,
                content_len: 512,
            },
        );
        let mut members = Vec::new();
        for slot in 1..=6u64 {
            let resp = drive(&mut live, &mut log, Request::Hello { data_addr: Slot(slot) });
            let CtrlResponse::Welcome { node, parents, .. } = resp else { panic!("{resp:?}") };
            members.push((node, parents));
        }
        let (leaver, leaver_parents) = members.remove(1);
        let resp = drive(&mut live, &mut log, Request::Goodbye { node: leaver });
        assert_eq!(resp, CtrlResponse::Ok);
        // A checkpoint taken here is spliced into the stream further down.
        let (checkpoint, checkpoint_at) = (live.checkpoint().unwrap(), log.len());
        // Complain about some member's node parent: the accused is spliced.
        let (child, thread, accused) = members
            .iter()
            .find_map(|(n, _)| {
                let pos = live.server().matrix().position_of(*n)?;
                live.server().matrix().parents_of_position(pos).into_iter().find_map(
                    |(t, holder)| match holder {
                        Holder::Node(p) => Some((*n, t, p)),
                        Holder::Server => None,
                    },
                )
            })
            .expect("with five members some thread has a node parent");
        let complaint =
            Request::Complaint { child, failed_parent: Some(accused), thread, ctx: None };
        let resp = drive(&mut live, &mut log, complaint);
        assert!(matches!(resp, CtrlResponse::Redirect { .. }), "{resp:?}");
        drive(&mut live, &mut log, Request::Completed { node: child });
        // The leaver comes back through the amnesia path, keeping its id.
        let view = leaver_parents.iter().map(|(t, p)| (*t, p.node())).collect();
        let resync =
            Request::Resync { node: leaver, data_addr: Slot(77), parents: view, ctx: None };
        assert_eq!(drive(&mut live, &mut log, resync), CtrlResponse::Ok);
        assert!(matches!(
            &log[..],
            [Record::RegisterSource(_), Record::Hello { .. }, .., Record::Goodbye { .. },
             Record::Splice { .. }, Record::Completed { .. }, Record::Resync { .. }]
        ));

        let mut with_checkpoint = log.clone();
        with_checkpoint.insert(checkpoint_at, checkpoint);
        for stream in [log, with_checkpoint] {
            let rebuilt = replay(stream).unwrap();
            assert_eq!(rows(&rebuilt), rows(&live));
            assert_eq!(rebuilt.addrs(), live.addrs());
            assert_eq!(rebuilt.source(), live.source());
            assert_eq!(rebuilt.completed(), live.completed());
            assert!(rebuilt.server().next_node_id() >= live.server().next_node_id());
        }
    }

    #[test]
    fn replay_rejects_streams_that_break_the_row_invariants() {
        let hello = |node, position, threads: &[ThreadId]| Record::Hello {
            node,
            position,
            threads: threads.to_vec(),
            data_addr: Slot(node),
        };
        let mut member = core();
        register(&mut member);
        let _ = member.dispatch(Request::Hello { data_addr: Slot(1) });
        let Record::Checkpoint { server, source, completed, epoch, .. } =
            member.checkpoint().unwrap()
        else {
            panic!("checkpoint() returned another variant");
        };
        // A checkpoint arrives from disk or from a primary: a well-formed
        // document whose row cannot be in `M` is an error, not a panic.
        let one_row = |threads: &str| Record::Checkpoint {
            server: format!(
                r#"{{"config":{{"k":4,"d":2,"insert_policy":"Append"}},"matrix":{{"k":4,"rows":[{{"node":0,"threads":{threads},"status":"Working"}}]}},"next_id":1}}"#
            ),
            addrs: vec![(0, Slot(0))],
            source: None,
            completed: vec![],
            epoch: 0,
        };
        let unaddressed = Record::Checkpoint { server, addrs: vec![], source, completed, epoch };
        let other_shape: ControlCore<Slot> =
            ControlCore::new(OverlayConfig::new(8, 3), 7, SharedRecorder::null()).unwrap();
        let cases: [(&str, Vec<Record<Slot>>, &str); 9] = [
            ("hello past the end of M", vec![hello(0, 1, &[0, 1])], "position 1 of 0"),
            ("duplicate node", vec![hello(0, 0, &[0, 1]), hello(0, 1, &[2, 3])], "duplicate row"),
            ("d-1 threads", vec![hello(0, 0, &[2])], "exactly d=2 distinct threads"),
            ("thread >= k", vec![hello(0, 0, &[0, 4])], "exactly d=2 distinct threads"),
            ("member without address", vec![unaddressed], "has no data address"),
            ("checkpoint for another (k, d)", vec![other_shape.checkpoint().unwrap()], "k=8, d=3"),
            ("checkpoint row without threads", vec![one_row("[]")], "bad checkpoint: "),
            ("checkpoint row with a thread >= k", vec![one_row("[200,1]")], "bad checkpoint: "),
            ("checkpoint row with a repeated thread", vec![one_row("[1,1]")], "bad checkpoint: "),
        ];
        for (name, stream, needle) in cases {
            match replay(stream) {
                Ok(_) => panic!("{name}: replay accepted the stream"),
                Err(reason) => assert!(reason.contains(needle), "{name}: {reason}"),
            }
        }
        // The well-formed neighbours of those streams are accepted.
        assert_eq!(rows(&replay(vec![hello(0, 0, &[0, 3])]).unwrap()).len(), 1);
        assert_eq!(rows(&replay(vec![one_row("[0,3]")]).unwrap()).len(), 1);
    }

    /// [`Reply::of`] is pinned to what a complaint really gets back, not
    /// to a literal copy of the reason string.
    #[test]
    fn reply_classifies_what_a_complaint_actually_gets() {
        use crate::core::ctrl::Reply;
        let mut core = core();
        let complaint =
            |child, thread| Request::Complaint { child, failed_parent: None, thread, ctx: None };
        // A fresh core has never seen the child.
        let (resp, _) = done(core.dispatch(complaint(NodeId(77), 0)));
        assert_eq!(Reply::of(&resp), Reply::UnknownChild);
        register(&mut core);
        let (resp, _) = done(core.dispatch(Request::Hello { data_addr: Slot(1) }));
        let CtrlResponse::Welcome { node, parents, .. } = resp else { panic!() };
        let (held, parent) = parents[0];
        let (resp, _) = done(core.dispatch(complaint(node, held)));
        assert_eq!(Reply::of(&resp), Reply::Redirect(parent));
        // A known child on a thread it does not hold: an error, not amnesia.
        let unheld = (0..).find(|t| parents.iter().all(|(h, _)| h != t)).unwrap();
        let (resp, _) = done(core.dispatch(complaint(node, unheld)));
        assert!(matches!(resp, CtrlResponse::Error { .. }), "{resp:?}");
        assert_eq!(Reply::of(&resp), Reply::Unanswered);
    }

    #[test]
    fn durability_verbs_defer_to_the_driver() {
        let mut core = core();
        assert!(matches!(
            core.dispatch(Request::SnapshotFetch),
            CoreOutcome::Driver(Request::SnapshotFetch)
        ));
        assert!(matches!(
            core.dispatch(Request::WalTail { after: 3 }),
            CoreOutcome::Driver(Request::WalTail { after: 3 })
        ));
    }

    #[test]
    fn stats_track_the_membership() {
        let mut core = core();
        register(&mut core);
        for slot in 0..3u64 {
            let _ = core.dispatch(Request::Hello { data_addr: Slot(slot) });
        }
        let (resp, effects) = done(core.dispatch(Request::Stats));
        assert_eq!(resp, CtrlResponse::Stats { members: 3, completed: 0, repairs: 0 });
        assert!(effects.is_empty());
    }
}

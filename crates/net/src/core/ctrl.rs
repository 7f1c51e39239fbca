//! The control-plane protocol, generic over the address type.
//!
//! Every message the coordinator speaks — join, leave, complaint,
//! completion, resync, stats, snapshot/WAL shipping — is defined here
//! once, parameterized by [`WireAddr`]. The TCP driver instantiates it
//! at `std::net::SocketAddr` ([`crate::proto`] is that alias layer); the
//! vnet instantiates it at its own synthetic address type. The sans-io
//! core never names `std::net`.
//!
//! The wire codec is hand-rolled over [`curtain_telemetry::json`] — the
//! same dependency-free JSON layer the trace format uses — so the control
//! plane carries no serialization dependency and its wire form is
//! explicit: every message is a flat-ish tagged object, e.g.
//! `{"req":"complaint","child":4,"failed_parent":1,"thread":7}`.

use std::collections::BTreeMap;
use std::fmt::Debug;

use curtain_overlay::{NodeId, ThreadId};
use curtain_telemetry::json::{self, JsonValue};
use curtain_telemetry::TraceContext;

/// An address the control plane can carry on the wire as a string.
///
/// The core treats addresses as opaque tokens: it renders them into
/// JSON, parses them back, and hands them to whatever driver dialed in.
/// `SocketAddr` implements this in the driver layer; the vnet's
/// synthetic addresses implement it in the vnet.
pub trait WireAddr: Copy + Eq + Debug {
    /// Renders the address for the wire.
    fn render(&self) -> String;
    /// Parses a rendered address.
    ///
    /// # Errors
    ///
    /// Describes the malformed address.
    fn parse(s: &str) -> Result<Self, String>;
}

/// Where a stream comes from: the source host or a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlParent<A> {
    /// The source's data listener.
    Source(A),
    /// A peer's data listener.
    Node(NodeId, A),
}

impl<A: WireAddr> CtrlParent<A> {
    /// The address to dial.
    #[must_use]
    pub fn addr(&self) -> A {
        match self {
            CtrlParent::Source(a) | CtrlParent::Node(_, a) => *a,
        }
    }

    /// The peer id, if this is a peer.
    #[must_use]
    pub fn node(&self) -> Option<NodeId> {
        match self {
            CtrlParent::Source(_) => None,
            CtrlParent::Node(n, _) => Some(*n),
        }
    }

    fn to_json(self) -> JsonValue {
        let mut fields = BTreeMap::new();
        match self {
            CtrlParent::Source(a) => {
                fields.insert("kind".into(), JsonValue::Str("source".into()));
                fields.insert("addr".into(), JsonValue::Str(a.render()));
            }
            CtrlParent::Node(n, a) => {
                fields.insert("kind".into(), JsonValue::Str("node".into()));
                fields.insert("node".into(), JsonValue::Int(n.0 as i64));
                fields.insert("addr".into(), JsonValue::Str(a.render()));
            }
        }
        JsonValue::Object(fields)
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let addr = parse_addr_field(v, "addr")?;
        match v.get("kind").and_then(JsonValue::as_str) {
            Some("source") => Ok(CtrlParent::Source(addr)),
            Some("node") => Ok(CtrlParent::Node(NodeId(field_u64(v, "node")?), addr)),
            other => Err(format!("bad parent kind {other:?}")),
        }
    }
}

/// Requests a client may send to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlRequest<A> {
    /// The source announces itself and the content shape.
    RegisterSource {
        /// Source data-plane listener.
        data_addr: A,
        /// Number of generations the object is split into.
        generations: usize,
        /// Packets per generation.
        generation_size: usize,
        /// Bytes per packet.
        packet_len: usize,
        /// Original (unpadded) object length in bytes.
        content_len: usize,
    },
    /// A new peer asks to join (the hello protocol).
    Hello {
        /// The peer's data-plane listener (where its children will dial).
        data_addr: A,
    },
    /// A peer leaves gracefully (the good-bye protocol).
    Goodbye {
        /// The departing peer.
        node: NodeId,
    },
    /// A child reports that its parent for `thread` stopped serving and
    /// asks where to resubscribe (failure report + repair).
    Complaint {
        /// The complaining child.
        child: NodeId,
        /// The parent that died (`None` = it was the source).
        failed_parent: Option<NodeId>,
        /// The thread whose stream broke.
        thread: ThreadId,
        /// Causal context of the repair episode's complain span, when
        /// the child traces: the coordinator hangs its splice span off
        /// it. Optional on the wire — untraced complainants omit the
        /// fields and old coordinators ignore them.
        ctx: Option<TraceContext>,
    },
    /// A peer announces it decoded the full generation.
    Completed {
        /// The peer.
        node: NodeId,
    },
    /// A peer answers an "unknown child" rejection with its full
    /// thread→parent view so an amnesiac coordinator (restarted without
    /// its WAL) can re-insert the row instead of stranding the peer.
    Resync {
        /// The peer re-introducing itself (keeps its old id).
        node: NodeId,
        /// The peer's data-plane listener.
        data_addr: A,
        /// `(thread, last-known parent)` per upstream thread (`None` =
        /// the source). The threads are the row; the parents are a hint
        /// the coordinator may audit but does not need.
        parents: Vec<(ThreadId, Option<NodeId>)>,
        /// Causal context for the resync, when the peer traces; the
        /// coordinator's readmit span becomes its child. Optional on the
        /// wire for the same reasons as `Complaint::ctx`.
        ctx: Option<TraceContext>,
    },
    /// Asks for progress counters (used by tests and operators).
    Stats,
    /// A warm standby asks for a full-state snapshot to bootstrap from
    /// (snapshot shipping over the control port — no shared filesystem).
    SnapshotFetch,
    /// A warm standby asks for the WAL records committed after `after`
    /// (its last applied sequence number). The primary answers from its
    /// in-memory tail ring, or with an error telling the standby to
    /// refetch a snapshot if the ring no longer reaches back that far.
    WalTail {
        /// The last commit sequence number the standby has applied.
        after: u64,
    },
}

impl<A: WireAddr> CtrlRequest<A> {
    /// The single-line JSON wire form (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut fields = BTreeMap::new();
        let tag = |fields: &mut BTreeMap<String, JsonValue>, t: &str| {
            fields.insert("req".into(), JsonValue::Str(t.into()));
        };
        match self {
            CtrlRequest::RegisterSource {
                data_addr,
                generations,
                generation_size,
                packet_len,
                content_len,
            } => {
                tag(&mut fields, "register_source");
                fields.insert("data_addr".into(), JsonValue::Str(data_addr.render()));
                fields.insert("generations".into(), JsonValue::Int(*generations as i64));
                fields
                    .insert("generation_size".into(), JsonValue::Int(*generation_size as i64));
                fields.insert("packet_len".into(), JsonValue::Int(*packet_len as i64));
                fields.insert("content_len".into(), JsonValue::Int(*content_len as i64));
            }
            CtrlRequest::Hello { data_addr } => {
                tag(&mut fields, "hello");
                fields.insert("data_addr".into(), JsonValue::Str(data_addr.render()));
            }
            CtrlRequest::Goodbye { node } => {
                tag(&mut fields, "goodbye");
                fields.insert("node".into(), JsonValue::Int(node.0 as i64));
            }
            CtrlRequest::Complaint { child, failed_parent, thread, ctx } => {
                tag(&mut fields, "complaint");
                fields.insert("child".into(), JsonValue::Int(child.0 as i64));
                fields.insert(
                    "failed_parent".into(),
                    match failed_parent {
                        Some(n) => JsonValue::Int(n.0 as i64),
                        None => JsonValue::Null,
                    },
                );
                fields.insert("thread".into(), JsonValue::Int(i64::from(*thread)));
                insert_ctx(&mut fields, *ctx);
            }
            CtrlRequest::Completed { node } => {
                tag(&mut fields, "completed");
                fields.insert("node".into(), JsonValue::Int(node.0 as i64));
            }
            CtrlRequest::Resync { node, data_addr, parents, ctx } => {
                tag(&mut fields, "resync");
                insert_ctx(&mut fields, *ctx);
                fields.insert("node".into(), JsonValue::Int(node.0 as i64));
                fields.insert("data_addr".into(), JsonValue::Str(data_addr.render()));
                fields.insert(
                    "parents".into(),
                    JsonValue::Array(
                        parents
                            .iter()
                            .map(|(t, p)| {
                                JsonValue::Array(vec![
                                    JsonValue::Int(i64::from(*t)),
                                    match p {
                                        Some(n) => JsonValue::Int(n.0 as i64),
                                        None => JsonValue::Null,
                                    },
                                ])
                            })
                            .collect(),
                    ),
                );
            }
            CtrlRequest::Stats => tag(&mut fields, "stats"),
            CtrlRequest::SnapshotFetch => tag(&mut fields, "snapshot_fetch"),
            CtrlRequest::WalTail { after } => {
                tag(&mut fields, "wal_tail");
                fields.insert("after".into(), JsonValue::Int(*after as i64));
            }
        }
        JsonValue::Object(fields).render()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed lines.
    pub fn parse_json_line(line: &str) -> Result<Self, String> {
        let v = json::parse_document(line.trim())?;
        let req = match v.get("req").and_then(JsonValue::as_str) {
            Some(t) => t,
            None => return Err("missing \"req\" tag".into()),
        };
        match req {
            "register_source" => Ok(CtrlRequest::RegisterSource {
                data_addr: parse_addr_field(&v, "data_addr")?,
                generations: field_usize(&v, "generations")?,
                generation_size: field_usize(&v, "generation_size")?,
                packet_len: field_usize(&v, "packet_len")?,
                content_len: field_usize(&v, "content_len")?,
            }),
            "hello" => {
                Ok(CtrlRequest::Hello { data_addr: parse_addr_field(&v, "data_addr")? })
            }
            "goodbye" => Ok(CtrlRequest::Goodbye { node: NodeId(field_u64(&v, "node")?) }),
            "complaint" => Ok(CtrlRequest::Complaint {
                child: NodeId(field_u64(&v, "child")?),
                failed_parent: match v.get("failed_parent") {
                    Some(JsonValue::Null) | None => None,
                    Some(x) => Some(NodeId(
                        x.as_u64().ok_or("bad failed_parent")?,
                    )),
                },
                thread: field_thread(&v)?,
                ctx: parse_ctx(&v),
            }),
            "completed" => Ok(CtrlRequest::Completed { node: NodeId(field_u64(&v, "node")?) }),
            "resync" => {
                let parents_json = v
                    .get("parents")
                    .and_then(JsonValue::as_array)
                    .ok_or("missing parents array")?;
                let mut parents = Vec::with_capacity(parents_json.len());
                for pair in parents_json {
                    let [t, p] = pair.as_array().ok_or("bad parent pair")? else {
                        return Err("parent pair is not 2-element".into());
                    };
                    let thread = t
                        .as_u64()
                        .and_then(|x| ThreadId::try_from(x).ok())
                        .ok_or("bad thread id")?;
                    let parent = match p {
                        JsonValue::Null => None,
                        x => Some(NodeId(x.as_u64().ok_or("bad parent id")?)),
                    };
                    parents.push((thread, parent));
                }
                Ok(CtrlRequest::Resync {
                    node: NodeId(field_u64(&v, "node")?),
                    data_addr: parse_addr_field(&v, "data_addr")?,
                    parents,
                    ctx: parse_ctx(&v),
                })
            }
            "stats" => Ok(CtrlRequest::Stats),
            "snapshot_fetch" => Ok(CtrlRequest::SnapshotFetch),
            "wal_tail" => Ok(CtrlRequest::WalTail { after: field_u64(&v, "after")? }),
            other => Err(format!("unknown request {other:?}")),
        }
    }
}

/// Responses from the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlResponse<A> {
    /// Join granted.
    Welcome {
        /// Assigned node id.
        node: NodeId,
        /// Number of generations.
        generations: usize,
        /// Packets per generation.
        generation_size: usize,
        /// Bytes per packet.
        packet_len: usize,
        /// Original (unpadded) object length.
        content_len: usize,
        /// One parent per assigned thread.
        parents: Vec<(ThreadId, CtrlParent<A>)>,
    },
    /// Where to resubscribe after a complaint.
    Redirect {
        /// The thread in question.
        thread: ThreadId,
        /// The child's current parent for that thread.
        new_parent: CtrlParent<A>,
    },
    /// Progress counters.
    Stats {
        /// Current members.
        members: usize,
        /// Members that reported completion.
        completed: usize,
        /// Failures repaired so far.
        repairs: u64,
    },
    /// Generic acknowledgement.
    Ok,
    /// A strict-mode coordinator refuses to mutate while its WAL is
    /// degraded (the mutation would not be durable).
    Unavailable {
        /// Human-readable reason.
        reason: String,
    },
    /// A full-state snapshot for a bootstrapping standby.
    Snapshot {
        /// The commit sequence number the snapshot covers: tailing
        /// `WalTail { after: seq }` streams everything after it.
        seq: u64,
        /// A `WalRecord::Checkpoint` payload (opaque JSON at this layer).
        record: String,
    },
    /// A batch of committed WAL records for a tailing standby.
    WalSegment {
        /// The sequence number of the last record shipped (equals the
        /// request's `after` when `records` is empty).
        last: u64,
        /// `WalRecord` payloads in commit order (opaque JSON here).
        records: Vec<String>,
    },
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

impl<A: WireAddr> CtrlResponse<A> {
    /// The single-line JSON wire form (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut fields = BTreeMap::new();
        let tag = |fields: &mut BTreeMap<String, JsonValue>, t: &str| {
            fields.insert("resp".into(), JsonValue::Str(t.into()));
        };
        match self {
            CtrlResponse::Welcome {
                node,
                generations,
                generation_size,
                packet_len,
                content_len,
                parents,
            } => {
                tag(&mut fields, "welcome");
                fields.insert("node".into(), JsonValue::Int(node.0 as i64));
                fields.insert("generations".into(), JsonValue::Int(*generations as i64));
                fields
                    .insert("generation_size".into(), JsonValue::Int(*generation_size as i64));
                fields.insert("packet_len".into(), JsonValue::Int(*packet_len as i64));
                fields.insert("content_len".into(), JsonValue::Int(*content_len as i64));
                fields.insert(
                    "parents".into(),
                    JsonValue::Array(
                        parents
                            .iter()
                            .map(|(t, p)| {
                                JsonValue::Array(vec![
                                    JsonValue::Int(i64::from(*t)),
                                    p.to_json(),
                                ])
                            })
                            .collect(),
                    ),
                );
            }
            CtrlResponse::Redirect { thread, new_parent } => {
                tag(&mut fields, "redirect");
                fields.insert("thread".into(), JsonValue::Int(i64::from(*thread)));
                fields.insert("new_parent".into(), new_parent.to_json());
            }
            CtrlResponse::Stats { members, completed, repairs } => {
                tag(&mut fields, "stats");
                fields.insert("members".into(), JsonValue::Int(*members as i64));
                fields.insert("completed".into(), JsonValue::Int(*completed as i64));
                fields.insert("repairs".into(), JsonValue::Int(*repairs as i64));
            }
            CtrlResponse::Ok => tag(&mut fields, "ok"),
            CtrlResponse::Unavailable { reason } => {
                tag(&mut fields, "unavailable");
                fields.insert("reason".into(), JsonValue::Str(reason.clone()));
            }
            CtrlResponse::Snapshot { seq, record } => {
                tag(&mut fields, "snapshot");
                fields.insert("seq".into(), JsonValue::Int(*seq as i64));
                fields.insert("record".into(), JsonValue::Str(record.clone()));
            }
            CtrlResponse::WalSegment { last, records } => {
                tag(&mut fields, "wal_segment");
                fields.insert("last".into(), JsonValue::Int(*last as i64));
                fields.insert(
                    "records".into(),
                    JsonValue::Array(
                        records.iter().map(|r| JsonValue::Str(r.clone())).collect(),
                    ),
                );
            }
            CtrlResponse::Error { reason } => {
                tag(&mut fields, "error");
                fields.insert("reason".into(), JsonValue::Str(reason.clone()));
            }
        }
        JsonValue::Object(fields).render()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed lines.
    pub fn parse_json_line(line: &str) -> Result<Self, String> {
        let v = json::parse_document(line.trim())?;
        let resp = match v.get("resp").and_then(JsonValue::as_str) {
            Some(t) => t,
            None => return Err("missing \"resp\" tag".into()),
        };
        match resp {
            "welcome" => {
                let parents_json = v
                    .get("parents")
                    .and_then(JsonValue::as_array)
                    .ok_or("missing parents array")?;
                let mut parents = Vec::with_capacity(parents_json.len());
                for pair in parents_json {
                    let items = pair.as_array().ok_or("bad parent pair")?;
                    let [t, p] = items else {
                        return Err("parent pair is not 2-element".into());
                    };
                    let thread = t
                        .as_u64()
                        .and_then(|x| ThreadId::try_from(x).ok())
                        .ok_or("bad thread id")?;
                    parents.push((thread, CtrlParent::from_json(p)?));
                }
                Ok(CtrlResponse::Welcome {
                    node: NodeId(field_u64(&v, "node")?),
                    generations: field_usize(&v, "generations")?,
                    generation_size: field_usize(&v, "generation_size")?,
                    packet_len: field_usize(&v, "packet_len")?,
                    content_len: field_usize(&v, "content_len")?,
                    parents,
                })
            }
            "redirect" => Ok(CtrlResponse::Redirect {
                thread: field_thread(&v)?,
                new_parent: CtrlParent::from_json(
                    v.get("new_parent").ok_or("missing new_parent")?,
                )?,
            }),
            "stats" => Ok(CtrlResponse::Stats {
                members: field_usize(&v, "members")?,
                completed: field_usize(&v, "completed")?,
                repairs: field_u64(&v, "repairs")?,
            }),
            "ok" => Ok(CtrlResponse::Ok),
            "unavailable" => Ok(CtrlResponse::Unavailable {
                reason: v
                    .get("reason")
                    .and_then(JsonValue::as_str)
                    .ok_or("missing reason")?
                    .to_string(),
            }),
            "snapshot" => Ok(CtrlResponse::Snapshot {
                seq: field_u64(&v, "seq")?,
                record: v
                    .get("record")
                    .and_then(JsonValue::as_str)
                    .ok_or("missing record")?
                    .to_string(),
            }),
            "wal_segment" => Ok(CtrlResponse::WalSegment {
                last: field_u64(&v, "last")?,
                records: v
                    .get("records")
                    .and_then(JsonValue::as_array)
                    .ok_or("missing records array")?
                    .iter()
                    .map(|r| r.as_str().map(str::to_string).ok_or("bad record payload"))
                    .collect::<Result<_, _>>()?,
            }),
            "error" => Ok(CtrlResponse::Error {
                reason: v
                    .get("reason")
                    .and_then(JsonValue::as_str)
                    .ok_or("missing reason")?
                    .to_string(),
            }),
            other => Err(format!("unknown response {other:?}")),
        }
    }
}

/// A complaint's outcome as the repair episode
/// ([`crate::core::repair::Episode`]) reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<A> {
    /// The coordinator named the child's current parent on the thread.
    Redirect(CtrlParent<A>),
    /// The coordinator has no row for the child — it lost its matrix (a
    /// crash-restart without the WAL) and must be resynced before a
    /// complaint can be answered.
    UnknownChild,
    /// No answer, a call error, or any other response: retry.
    Unanswered,
}

impl<A: WireAddr> Reply<A> {
    /// Classifies a complaint's response. Amnesia has no wire variant: it
    /// is the `Error` reason [`super::coordinator::ControlCore::current_parent`]
    /// formats, matched here and nowhere else.
    #[must_use]
    pub fn of(response: &CtrlResponse<A>) -> Self {
        match response {
            CtrlResponse::Redirect { new_parent, .. } => Reply::Redirect(*new_parent),
            CtrlResponse::Error { reason } if reason.contains("unknown child") => {
                Reply::UnknownChild
            }
            _ => Reply::Unanswered,
        }
    }
}

/// Adds the optional `"trace"`/`"span"` fields carrying a causal context.
fn insert_ctx(fields: &mut BTreeMap<String, JsonValue>, ctx: Option<TraceContext>) {
    if let Some(ctx) = ctx {
        fields.insert("trace".into(), JsonValue::Int(ctx.trace as i64));
        fields.insert("span".into(), JsonValue::Int(ctx.span as i64));
    }
}

/// Reads the optional `"trace"`/`"span"` context fields. Absent or
/// malformed fields read as "no context" — a request from an untraced
/// (or older) sender must keep parsing.
fn parse_ctx(v: &JsonValue) -> Option<TraceContext> {
    let trace = v.get("trace").and_then(JsonValue::as_u64)?;
    let span = v.get("span").and_then(JsonValue::as_u64)?;
    Some(TraceContext { trace, span })
}

pub(super) fn field_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

pub(super) fn field_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(field_u64(v, key)?).map_err(|_| format!("field {key:?} overflows usize"))
}

fn field_thread(v: &JsonValue) -> Result<ThreadId, String> {
    ThreadId::try_from(field_u64(v, "thread")?).map_err(|_| "thread overflows u16".to_string())
}

pub(super) fn parse_addr_field<A: WireAddr>(v: &JsonValue, key: &str) -> Result<A, String> {
    A::parse(
        v.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing addr field {key:?}"))?,
    )
    .map_err(|e| format!("bad address in {key:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::record::{Record, SourceInfo};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A toy address type: proves the codec is address-agnostic.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Slot(u64);

    impl WireAddr for Slot {
        fn render(&self) -> String {
            format!("slot:{}", self.0)
        }
        fn parse(s: &str) -> Result<Self, String> {
            s.strip_prefix("slot:")
                .and_then(|n| n.parse().ok())
                .map(Slot)
                .ok_or_else(|| format!("bad slot address {s:?}"))
        }
    }

    /// One message per variant of the three JSON vocabularies a network
    /// peer can reach: requests, responses, and the record payloads a
    /// standby parses out of a `WalSegment`.
    type Samples = (Vec<CtrlRequest<Slot>>, Vec<CtrlResponse<Slot>>, Vec<Record<Slot>>);

    fn one_of_each_variant() -> Samples {
        let ctx = Some(TraceContext { trace: 7, span: 9 });
        let source = SourceInfo {
            addr: Slot(0),
            generations: 3,
            generation_size: 16,
            packet_len: 1024,
            content_len: 40_000,
        };
        let node_parent = CtrlParent::Node(NodeId(8), Slot(11));
        let requests = vec![
            CtrlRequest::RegisterSource {
                data_addr: Slot(0),
                generations: 3,
                generation_size: 16,
                packet_len: 1024,
                content_len: 40_000,
            },
            CtrlRequest::Hello { data_addr: Slot(4) },
            CtrlRequest::Goodbye { node: NodeId(3) },
            CtrlRequest::Complaint {
                child: NodeId(4),
                failed_parent: Some(NodeId(1)),
                thread: 7,
                ctx,
            },
            CtrlRequest::Completed { node: NodeId(9) },
            CtrlRequest::Resync {
                node: NodeId(17),
                data_addr: Slot(9),
                parents: vec![(0, Some(NodeId(2))), (3, None)],
                ctx,
            },
            CtrlRequest::Stats,
            CtrlRequest::SnapshotFetch,
            CtrlRequest::WalTail { after: 12 },
        ];
        let records = vec![
            Record::Checkpoint {
                server: r#"{"k":4}"#.into(),
                addrs: vec![(7, Slot(7))],
                source: Some(source),
                completed: vec![1],
                epoch: 1_700_000_000_000,
            },
            Record::RegisterSource(source),
            Record::Hello { node: 1, position: 1, threads: vec![0, 2], data_addr: Slot(2) },
            Record::Resync { node: 7, threads: vec![0, 1], data_addr: Slot(7) },
            Record::Goodbye { node: 1 },
            Record::Splice { node: 0 },
            Record::Completed { node: 1 },
        ];
        let responses = vec![
            CtrlResponse::Welcome {
                node: NodeId(1),
                generations: 3,
                generation_size: 16,
                packet_len: 1024,
                content_len: 40_000,
                parents: vec![(0, CtrlParent::Source(Slot(1))), (5, node_parent)],
            },
            CtrlResponse::Redirect { thread: 7, new_parent: node_parent },
            CtrlResponse::Stats { members: 3, completed: 1, repairs: 2 },
            CtrlResponse::Ok,
            CtrlResponse::Unavailable { reason: "wal degraded".into() },
            CtrlResponse::Snapshot { seq: 5, record: records[0].to_json() },
            CtrlResponse::WalSegment { last: 6, records: vec![records[2].to_json()] },
            CtrlResponse::Error { reason: "unknown child 4".into() },
        ];
        (requests, responses, records)
    }

    #[test]
    fn generic_messages_round_trip_over_a_synthetic_address_type() {
        let (requests, responses, records) = one_of_each_variant();
        for r in requests {
            let s = r.to_json_line();
            assert_eq!(CtrlRequest::<Slot>::parse_json_line(&s).expect(&s), r, "line: {s}");
        }
        for r in responses {
            let s = r.to_json_line();
            assert_eq!(CtrlResponse::<Slot>::parse_json_line(&s).expect(&s), r, "line: {s}");
        }
        for r in records {
            let s = r.to_json();
            assert_eq!(Record::<Slot>::parse_json(&s).expect(&s), r, "payload: {s}");
        }
    }

    /// The `wire.rs` `untrusted_bytes_never_panic_a_decoder` pattern for
    /// the JSON decoders: each call must come back `Ok` or `Err`.
    #[test]
    fn untrusted_lines_never_panic_a_json_decoder() {
        fn feed(bytes: &[u8]) {
            let text = String::from_utf8_lossy(bytes);
            let _ = CtrlRequest::<Slot>::parse_json_line(&text);
            let _ = CtrlResponse::<Slot>::parse_json_line(&text);
            let _ = Record::<Slot>::parse_json(&text);
        }
        let mut rng = StdRng::seed_from_u64(0xF023);

        // (i) Arbitrary strings; half drawn from JSON's own alphabet so
        // some get past the tokenizer.
        const JSONISH: &[u8] = br#"{}[]":,-0123456789.eE\ntrufalsq"#;
        for round in 0..4000 {
            let len = rng.random_range(0..=96);
            let bytes: Vec<u8> = (0..len)
                .map(|_| match round % 2 {
                    0 => rng.random(),
                    _ => JSONISH[rng.random_range(0..JSONISH.len())],
                })
                .collect();
            feed(&bytes);
        }

        let (requests, responses, records) = one_of_each_variant();
        let lines = requests
            .iter()
            .map(CtrlRequest::to_json_line)
            .chain(responses.iter().map(CtrlResponse::to_json_line))
            .chain(records.iter().map(Record::to_json));
        for line in lines {
            let line = line.into_bytes();
            // (ii) Each valid line with one to three bytes flipped.
            for _ in 0..200 {
                let mut bent = line.clone();
                for _ in 0..rng.random_range(1..=3) {
                    let at = rng.random_range(0..bent.len());
                    bent[at] ^= rng.random_range(1..=255u8);
                }
                feed(&bent);
            }
            // (iii) The same line truncated at every length.
            for cut in 0..line.len() {
                feed(&line[..cut]);
            }
        }
    }

    #[test]
    fn a_bad_address_is_reported_not_panicked() {
        let line = r#"{"req":"hello","data_addr":"127.0.0.1:80"}"#;
        assert!(CtrlRequest::<Slot>::parse_json_line(line).is_err());
    }
}

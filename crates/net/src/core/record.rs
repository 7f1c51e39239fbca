//! The one record of a change to the matrix `M`, and its JSON form.
//!
//! [`ControlCore::dispatch`](super::coordinator::ControlCore::dispatch)
//! emits these as its effects, the write-ahead log frames them onto disk
//! as they are, a standby receives them over the control port, and
//! [`ControlCore::replay`](super::coordinator::ControlCore::replay) folds
//! them back into a core. Hello/Resync records carry the *outcome* of the
//! mutation (the assigned id, position, and thread set), not the request —
//! replay is pure data manipulation, independent of the RNG and insert
//! policy that produced the grant.
//!
//! The payload is a single JSON object via [`curtain_telemetry::json`] —
//! the same dependency-free layer the wire protocol uses — with addresses
//! rendered through [`WireAddr`], so this module never names `std::net`.

use std::collections::BTreeMap;

use curtain_overlay::ThreadId;
use curtain_telemetry::json::{self, JsonValue};

use crate::core::ctrl::{field_u64, field_usize, parse_addr_field, WireAddr};

/// The registered source: its data listener and the content shape, at
/// whatever address type the transport speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceInfo<A> {
    /// Source data-plane listener (as advertised to peers).
    pub addr: A,
    /// Number of generations.
    pub generations: usize,
    /// Packets per generation.
    pub generation_size: usize,
    /// Bytes per packet.
    pub packet_len: usize,
    /// Original (unpadded) object length.
    pub content_len: usize,
}

impl<A: WireAddr> SourceInfo<A> {
    fn to_json(self) -> JsonValue {
        let mut f = BTreeMap::new();
        f.insert("addr".into(), JsonValue::Str(self.addr.render()));
        f.insert("generations".into(), JsonValue::Int(self.generations as i64));
        f.insert("generation_size".into(), JsonValue::Int(self.generation_size as i64));
        f.insert("packet_len".into(), JsonValue::Int(self.packet_len as i64));
        f.insert("content_len".into(), JsonValue::Int(self.content_len as i64));
        JsonValue::Object(f)
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(SourceInfo {
            addr: parse_addr_field(v, "addr")?,
            generations: field_usize(v, "generations")?,
            generation_size: field_usize(v, "generation_size")?,
            packet_len: field_usize(v, "packet_len")?,
            content_len: field_usize(v, "content_len")?,
        })
    }
}

/// One matrix mutation (or a full-state checkpoint) the driver must make
/// durable before the response leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<A> {
    /// A full-state snapshot; every record before it is superseded.
    Checkpoint {
        /// The overlay state (`CurtainServer::to_json` JSON, opaque here).
        server: String,
        /// Data-plane address per member node.
        addrs: Vec<(u64, A)>,
        /// The registered source, if any.
        source: Option<SourceInfo<A>>,
        /// Nodes that reported full decode.
        completed: Vec<u64>,
        /// The id-allocation high-water mark (`next_id`) at checkpoint
        /// time. Recovery fences fresh grants above this even when the
        /// wall clock steps backwards. Logs written before this field
        /// existed parse as `0` (no fence floor).
        epoch: u64,
    },
    /// The source registered (or re-registered at the same address).
    RegisterSource(SourceInfo<A>),
    /// A hello was granted: the row as inserted.
    Hello {
        /// Assigned node id.
        node: u64,
        /// Matrix position the row was inserted at.
        position: u64,
        /// The row's thread set.
        threads: Vec<ThreadId>,
        /// The peer's data-plane listener.
        data_addr: A,
    },
    /// An amnesiac coordinator re-admitted a row from a peer's resync
    /// report (appended at the bottom of `M`; the peer keeps its old id).
    Resync {
        /// The reclaimed node id.
        node: u64,
        /// The row's thread set (sorted).
        threads: Vec<ThreadId>,
        /// The peer's data-plane listener.
        data_addr: A,
    },
    /// A graceful leave removed the row.
    Goodbye {
        /// The departed node.
        node: u64,
    },
    /// A complaint-driven repair spliced the row out.
    Splice {
        /// The failed node.
        node: u64,
    },
    /// A peer reported full decode.
    Completed {
        /// The peer.
        node: u64,
    },
}

impl<A: WireAddr> Record<A> {
    /// The JSON payload (single line, no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut f = BTreeMap::new();
        let tag = |f: &mut BTreeMap<String, JsonValue>, t: &str| {
            f.insert("rec".into(), JsonValue::Str(t.into()));
        };
        match self {
            Record::Checkpoint { server, addrs, source, completed, epoch } => {
                tag(&mut f, "checkpoint");
                f.insert("epoch".into(), JsonValue::Int(*epoch as i64));
                f.insert("server".into(), JsonValue::Str(server.clone()));
                f.insert(
                    "addrs".into(),
                    JsonValue::Array(
                        addrs
                            .iter()
                            .map(|(n, a)| {
                                JsonValue::Array(vec![
                                    JsonValue::Int(*n as i64),
                                    JsonValue::Str(a.render()),
                                ])
                            })
                            .collect(),
                    ),
                );
                f.insert("source".into(), source.map_or(JsonValue::Null, SourceInfo::to_json));
                f.insert(
                    "completed".into(),
                    JsonValue::Array(
                        completed.iter().map(|n| JsonValue::Int(*n as i64)).collect(),
                    ),
                );
            }
            Record::RegisterSource(info) => {
                tag(&mut f, "register_source");
                f.insert("source".into(), info.to_json());
            }
            Record::Hello { node, position, threads, data_addr } => {
                tag(&mut f, "hello");
                f.insert("node".into(), JsonValue::Int(*node as i64));
                f.insert("position".into(), JsonValue::Int(*position as i64));
                f.insert("threads".into(), threads_json(threads));
                f.insert("data_addr".into(), JsonValue::Str(data_addr.render()));
            }
            Record::Resync { node, threads, data_addr } => {
                tag(&mut f, "resync");
                f.insert("node".into(), JsonValue::Int(*node as i64));
                f.insert("threads".into(), threads_json(threads));
                f.insert("data_addr".into(), JsonValue::Str(data_addr.render()));
            }
            Record::Goodbye { node } => {
                tag(&mut f, "goodbye");
                f.insert("node".into(), JsonValue::Int(*node as i64));
            }
            Record::Splice { node } => {
                tag(&mut f, "splice");
                f.insert("node".into(), JsonValue::Int(*node as i64));
            }
            Record::Completed { node } => {
                tag(&mut f, "completed");
                f.insert("node".into(), JsonValue::Int(*node as i64));
            }
        }
        JsonValue::Object(f).render()
    }

    /// Parses one payload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed payloads.
    pub fn parse_json(payload: &str) -> Result<Self, String> {
        let v = json::parse_document(payload.trim())?;
        let rec = v
            .get("rec")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"rec\" tag")?;
        match rec {
            "checkpoint" => {
                let addrs_json = v
                    .get("addrs")
                    .and_then(JsonValue::as_array)
                    .ok_or("missing addrs array")?;
                let mut addrs = Vec::with_capacity(addrs_json.len());
                for pair in addrs_json {
                    let [n, a] = pair.as_array().ok_or("bad addr pair")? else {
                        return Err("addr pair is not 2-element".into());
                    };
                    addrs.push((
                        n.as_u64().ok_or("bad addr pair node")?,
                        A::parse(a.as_str().ok_or("bad addr pair address")?)
                            .map_err(|e| format!("bad address: {e}"))?,
                    ));
                }
                let source = match v.get("source") {
                    Some(JsonValue::Null) | None => None,
                    Some(s) => Some(SourceInfo::from_json(s)?),
                };
                let completed = v
                    .get("completed")
                    .and_then(JsonValue::as_array)
                    .ok_or("missing completed array")?
                    .iter()
                    .map(|n| n.as_u64().ok_or("bad completed id"))
                    .collect::<Result<_, _>>()?;
                Ok(Record::Checkpoint {
                    server: v
                        .get("server")
                        .and_then(JsonValue::as_str)
                        .ok_or("missing server snapshot")?
                        .to_string(),
                    addrs,
                    source,
                    completed,
                    // Absent in pre-epoch logs: replay as "no fence floor".
                    epoch: v.get("epoch").and_then(JsonValue::as_u64).unwrap_or(0),
                })
            }
            "register_source" => Ok(Record::RegisterSource(SourceInfo::from_json(
                v.get("source").ok_or("missing source")?,
            )?)),
            "hello" => Ok(Record::Hello {
                node: field_u64(&v, "node")?,
                position: field_u64(&v, "position")?,
                threads: parse_threads(&v)?,
                data_addr: parse_addr_field(&v, "data_addr")?,
            }),
            "resync" => Ok(Record::Resync {
                node: field_u64(&v, "node")?,
                threads: parse_threads(&v)?,
                data_addr: parse_addr_field(&v, "data_addr")?,
            }),
            "goodbye" => Ok(Record::Goodbye { node: field_u64(&v, "node")? }),
            "splice" => Ok(Record::Splice { node: field_u64(&v, "node")? }),
            "completed" => Ok(Record::Completed { node: field_u64(&v, "node")? }),
            other => Err(format!("unknown record {other:?}")),
        }
    }
}

fn threads_json(threads: &[ThreadId]) -> JsonValue {
    JsonValue::Array(threads.iter().map(|t| JsonValue::Int(i64::from(*t))).collect())
}

fn parse_threads(v: &JsonValue) -> Result<Vec<ThreadId>, String> {
    v.get("threads")
        .and_then(JsonValue::as_array)
        .ok_or("missing threads array")?
        .iter()
        .map(|t| {
            t.as_u64()
                .and_then(|x| ThreadId::try_from(x).ok())
                .ok_or_else(|| "bad thread id".to_string())
        })
        .collect()
}

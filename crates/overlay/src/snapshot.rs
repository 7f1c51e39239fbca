//! Checkpoint / restore of the coordinator state.
//!
//! A production coordinator must survive restarts: the matrix `M` *is* the
//! network (losing it strands every stream). Snapshots are plain value
//! types convertible to/from the live structures, and
//! [`ServerSnapshot::to_json`] / [`ServerSnapshot::from_json`] give them a
//! portable form over `curtain_telemetry::json`. That JSON document is the
//! `server` payload of `curtain-net`'s WAL checkpoint record and what a
//! standby bootstraps from, so its shape is a compatibility surface — logs
//! written by earlier builds must keep replaying:
//!
//! ```text
//! {"config":{"k":8,"d":2,"insert_policy":"Append"},
//!  "matrix":{"k":8,"rows":[{"node":0,"threads":[0,6],"status":"Working"}, …]},
//!  "next_id":3,
//!  "metrics":{"joins":3,"graceful_leaves":0,"failures_reported":0,"repairs":0,
//!             "thread_drops":0,"thread_restores":0,"messages_in":3,"messages_out":9}}
//! ```
//!
//! `insert_policy` is `"Append"` or `"RandomPosition"`, `status` is
//! `"Working"` or `"Failed"`, rows are in matrix order, and every number is
//! a non-negative integer. The writer emits exactly these keys in this
//! order with no whitespace; the reader takes them in any order, ignores
//! keys it does not know, and treats an absent `metrics` as all zeroes.
//! The document arrives from disk and over the control port, so decoding
//! and [`CurtainServer::restore`] return an error on any input and never
//! panic.

use std::fmt::Write as _;

use curtain_telemetry::json::{self, JsonValue};

use crate::matrix::ThreadMatrix;
use crate::server::{CurtainServer, ServerMetrics};
use crate::types::{InsertPolicy, NodeId, NodeStatus, OverlayConfig, ThreadId};
use crate::OverlayError;

/// Value form of one matrix row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSnapshot {
    /// The node id.
    pub node: NodeId,
    /// Its threads (sorted).
    pub threads: Vec<ThreadId>,
    /// Working/failed tag.
    pub status: NodeStatus,
}

/// Value form of the matrix `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixSnapshot {
    /// Number of threads (columns).
    pub k: usize,
    /// Rows in matrix order.
    pub rows: Vec<RowSnapshot>,
}

impl From<&ThreadMatrix> for MatrixSnapshot {
    fn from(m: &ThreadMatrix) -> Self {
        MatrixSnapshot {
            k: m.k(),
            rows: m
                .rows()
                .iter()
                .map(|r| RowSnapshot {
                    node: r.node(),
                    threads: r.threads().to_vec(),
                    status: r.status(),
                })
                .collect(),
        }
    }
}

impl TryFrom<MatrixSnapshot> for ThreadMatrix {
    type Error = OverlayError;

    /// Rebuilds `M`, checking everything [`ThreadMatrix::insert`] asserts.
    ///
    /// # Errors
    ///
    /// * [`OverlayError::InvalidConfig`] if `k` is zero or exceeds the
    ///   `ThreadId` range.
    /// * [`OverlayError::AlreadyMember`] if two rows carry the same id.
    /// * [`OverlayError::InvalidThreads`] if a row's thread set is empty,
    ///   has duplicates, or references a thread `>= k`.
    fn try_from(s: MatrixSnapshot) -> Result<Self, Self::Error> {
        if s.k == 0 || s.k > ThreadId::MAX as usize {
            return Err(OverlayError::InvalidConfig { k: s.k, d: 0 });
        }
        let mut m = ThreadMatrix::new(s.k);
        for RowSnapshot { node, mut threads, status } in s.rows {
            if m.position_of(node).is_some() {
                return Err(OverlayError::AlreadyMember(node));
            }
            threads.sort_unstable();
            let valid = threads.windows(2).all(|w| w[0] != w[1])
                && threads.last().is_some_and(|&t| (t as usize) < s.k);
            if !valid {
                return Err(OverlayError::InvalidThreads(node));
            }
            m.append(node, threads, status);
        }
        Ok(m)
    }
}

/// Value form of the whole coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSnapshot {
    /// The static configuration.
    pub config: OverlayConfig,
    /// The matrix state.
    pub matrix: MatrixSnapshot,
    /// Next node id to assign (monotone across restarts, so ids never
    /// repeat).
    pub next_id: u64,
    /// Accumulated metrics (optional to restore; kept for continuity).
    pub metrics: MetricsSnapshot,
}

impl ServerSnapshot {
    /// Renders the JSON document described in the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::IdOutOfRange`] if an id or counter exceeds
    /// `i64::MAX`, the largest integer the JSON layer reads back — the
    /// document is refused rather than written unreadable.
    pub fn to_json(&self) -> Result<String, OverlayError> {
        let m = &self.metrics;
        let counters = [
            ("joins", m.joins),
            ("graceful_leaves", m.graceful_leaves),
            ("failures_reported", m.failures_reported),
            ("repairs", m.repairs),
            ("thread_drops", m.thread_drops),
            ("thread_restores", m.thread_restores),
            ("messages_in", m.messages_in),
            ("messages_out", m.messages_out),
        ];
        let (k, d, columns) = (self.config.k as u64, self.config.d as u64, self.matrix.k as u64);
        let mut numbers = [k, d, columns, self.next_id]
            .into_iter()
            .chain(counters.iter().map(|&(_, v)| v))
            .chain(self.matrix.rows.iter().map(|r| r.node.0));
        if let Some(v) = numbers.find(|&v| i64::try_from(v).is_err()) {
            return Err(OverlayError::IdOutOfRange(v));
        }

        // Writing into a `String` cannot fail.
        let mut out = String::with_capacity(512 + 64 * self.matrix.rows.len());
        let _ = write!(
            out,
            r#"{{"config":{{"k":{k},"d":{d},"insert_policy":"{}"}},"matrix":{{"k":{columns},"rows":["#,
            match self.config.insert_policy {
                InsertPolicy::Append => "Append",
                InsertPolicy::RandomPosition => "RandomPosition",
            },
        );
        for (i, row) in self.matrix.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, r#"{sep}{{"node":{},"threads":["#, row.node.0);
            for (j, thread) in row.threads.iter().enumerate() {
                let _ = write!(out, "{}{thread}", if j == 0 { "" } else { "," });
            }
            let _ = write!(
                out,
                r#"],"status":"{}"}}"#,
                match row.status {
                    NodeStatus::Working => "Working",
                    NodeStatus::Failed => "Failed",
                },
            );
        }
        let _ = write!(out, r#"]}},"next_id":{},"metrics":{{"#, self.next_id);
        for (i, (key, value)) in counters.iter().enumerate() {
            let _ = write!(out, r#"{}"{key}":{value}"#, if i == 0 { "" } else { "," });
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Parses the JSON document described in the [module docs](self). Only
    /// the document's shape is checked here; whether the values form a
    /// coordinator is [`CurtainServer::restore`]'s question.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON, a missing
    /// field, or a field of the wrong type or range.
    pub fn from_json(text: &str) -> Result<Self, String> {
        fn uint<T: TryFrom<u64>>(obj: Option<&JsonValue>, key: &str) -> Result<T, String> {
            obj.and_then(|o| o.get(key))
                .and_then(JsonValue::as_u64)
                .and_then(|n| T::try_from(n).ok())
                .ok_or_else(|| format!("snapshot: `{key}` missing or not an integer in range"))
        }
        fn named<T: Copy>(
            obj: Option<&JsonValue>,
            key: &str,
            names: &[(&str, T)],
        ) -> Result<T, String> {
            let name = obj.and_then(|o| o.get(key)).and_then(JsonValue::as_str);
            names
                .iter()
                .find(|&&(n, _)| Some(n) == name)
                .map(|&(_, value)| value)
                .ok_or_else(|| format!("snapshot: `{key}` missing or not a known name"))
        }

        let doc = json::parse_document(text)?;
        let (config, matrix) = (doc.get("config"), doc.get("matrix"));
        let rows = matrix
            .and_then(|m| m.get("rows"))
            .and_then(JsonValue::as_array)
            .ok_or("snapshot: `rows` missing or not an array")?
            .iter()
            .map(|row| {
                let threads = row
                    .get("threads")
                    .and_then(JsonValue::as_array)
                    .ok_or("snapshot: `threads` missing or not an array")?
                    .iter()
                    .map(|t| t.as_u64().and_then(|t| ThreadId::try_from(t).ok()))
                    .collect::<Option<Vec<ThreadId>>>()
                    .ok_or("snapshot: a thread is not an integer in range")?;
                Ok(RowSnapshot {
                    node: NodeId(uint(Some(row), "node")?),
                    threads,
                    status: named(
                        Some(row),
                        "status",
                        &[("Working", NodeStatus::Working), ("Failed", NodeStatus::Failed)],
                    )?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = match doc.get("metrics") {
            None => MetricsSnapshot::default(),
            m => MetricsSnapshot {
                joins: uint(m, "joins")?,
                graceful_leaves: uint(m, "graceful_leaves")?,
                failures_reported: uint(m, "failures_reported")?,
                repairs: uint(m, "repairs")?,
                thread_drops: uint(m, "thread_drops")?,
                thread_restores: uint(m, "thread_restores")?,
                messages_in: uint(m, "messages_in")?,
                messages_out: uint(m, "messages_out")?,
            },
        };
        Ok(ServerSnapshot {
            config: OverlayConfig {
                k: uint(config, "k")?,
                d: uint(config, "d")?,
                insert_policy: named(
                    config,
                    "insert_policy",
                    &[
                        ("Append", InsertPolicy::Append),
                        ("RandomPosition", InsertPolicy::RandomPosition),
                    ],
                )?,
            },
            matrix: MatrixSnapshot { k: uint(matrix, "k")?, rows },
            next_id: uint(Some(&doc), "next_id")?,
            metrics,
        })
    }
}

/// Value form of the metrics (mirrors [`ServerMetrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`ServerMetrics::joins`].
    pub joins: u64,
    /// See [`ServerMetrics::graceful_leaves`].
    pub graceful_leaves: u64,
    /// See [`ServerMetrics::failures_reported`].
    pub failures_reported: u64,
    /// See [`ServerMetrics::repairs`].
    pub repairs: u64,
    /// See [`ServerMetrics::thread_drops`].
    pub thread_drops: u64,
    /// See [`ServerMetrics::thread_restores`].
    pub thread_restores: u64,
    /// See [`ServerMetrics::messages_in`].
    pub messages_in: u64,
    /// See [`ServerMetrics::messages_out`].
    pub messages_out: u64,
}

impl From<ServerMetrics> for MetricsSnapshot {
    fn from(m: ServerMetrics) -> Self {
        MetricsSnapshot {
            joins: m.joins,
            graceful_leaves: m.graceful_leaves,
            failures_reported: m.failures_reported,
            repairs: m.repairs,
            thread_drops: m.thread_drops,
            thread_restores: m.thread_restores,
            messages_in: m.messages_in,
            messages_out: m.messages_out,
        }
    }
}

impl From<MetricsSnapshot> for ServerMetrics {
    fn from(m: MetricsSnapshot) -> Self {
        ServerMetrics {
            joins: m.joins,
            graceful_leaves: m.graceful_leaves,
            failures_reported: m.failures_reported,
            repairs: m.repairs,
            thread_drops: m.thread_drops,
            thread_restores: m.thread_restores,
            messages_in: m.messages_in,
            messages_out: m.messages_out,
        }
    }
}

impl CurtainServer {
    /// Captures a snapshot of the coordinator.
    #[must_use]
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            config: self.config(),
            matrix: MatrixSnapshot::from(self.matrix()),
            next_id: self.next_node_id(),
            metrics: self.metrics().into(),
        }
    }

    /// Restores a coordinator from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidConfig`] if the snapshot's
    /// configuration or matrix shape is invalid, and the row errors of
    /// `ThreadMatrix::try_from` if a row cannot be in `M`.
    pub fn restore(snapshot: ServerSnapshot) -> Result<Self, OverlayError> {
        snapshot.config.validate()?;
        let matrix = ThreadMatrix::try_from(snapshot.matrix)?;
        if matrix.k() != snapshot.config.k {
            return Err(OverlayError::InvalidConfig {
                k: matrix.k(),
                d: snapshot.config.d,
            });
        }
        Ok(CurtainServer::from_parts(
            snapshot.config,
            matrix,
            snapshot.next_id,
            snapshot.metrics.into(),
        ))
    }

    /// Serializes the snapshot to JSON ([`ServerSnapshot::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::IdOutOfRange`] if an id or counter does
    /// not fit a JSON integer.
    pub fn to_json(&self) -> Result<String, OverlayError> {
        self.snapshot().to_json()
    }

    /// Restores a coordinator from JSON.
    ///
    /// # Errors
    ///
    /// Returns a boxed error on malformed JSON or invalid state.
    pub fn from_json(json: &str) -> Result<Self, Box<dyn std::error::Error + Send + Sync>> {
        Ok(CurtainServer::restore(ServerSnapshot::from_json(json)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn busy_server() -> CurtainServer {
        let mut s = CurtainServer::new(OverlayConfig::new(12, 3)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ids: Vec<NodeId> = (0..30).map(|_| s.hello(&mut rng).node).collect();
        s.goodbye(ids[3]).unwrap();
        s.report_failure(ids[7]).unwrap();
        s.drop_thread(ids[10], &mut rng).unwrap();
        s
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let s = busy_server();
        let restored = CurtainServer::restore(s.snapshot()).unwrap();
        assert_eq!(restored.matrix(), s.matrix());
        assert_eq!(restored.config(), s.config());
        assert_eq!(restored.metrics(), s.metrics());
        assert_eq!(restored.next_node_id(), s.next_node_id());
    }

    #[test]
    fn json_round_trip() {
        let s = busy_server();
        let json = s.to_json().unwrap();
        let restored = CurtainServer::from_json(&json).unwrap();
        assert_eq!(restored.matrix(), s.matrix());
        // Ids keep increasing after restore — no reuse.
        let mut rng = StdRng::seed_from_u64(2);
        let mut restored = restored;
        let new = restored.hello(&mut rng).node;
        assert!(s.matrix().position_of(new).is_none());
        assert_eq!(new.0, s.next_node_id());
    }

    #[test]
    fn restored_server_keeps_protocol_invariants() {
        let s = busy_server();
        let mut restored = CurtainServer::from_json(&s.to_json().unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Pending failure can still be repaired after restore.
        let failed = restored.matrix().failed_nodes();
        assert_eq!(failed.len(), 1);
        restored.repair(failed[0]).unwrap();
        for _ in 0..10 {
            restored.hello(&mut rng);
        }
        restored.matrix().assert_invariants();
    }

    /// Recovery-parity check: the JSON checkpoint a `curtain-net`
    /// coordinator writes must rebuild a matrix *identical* to the
    /// original — same rows in the same order, the same parent holder for
    /// every (position, thread), and the same exact defect — because
    /// `Coordinator::recover` trusts this round trip to resurrect `M`.
    #[test]
    fn checkpoint_round_trip_preserves_rows_holders_and_defect() {
        let s = busy_server();
        let restored = CurtainServer::from_json(&s.to_json().unwrap()).unwrap();

        let (m0, m1) = (s.matrix(), restored.matrix());
        assert_eq!(m0.rows().len(), m1.rows().len());
        for (a, b) in m0.rows().iter().zip(m1.rows()) {
            assert_eq!(a.node(), b.node());
            assert_eq!(a.threads(), b.threads());
            assert_eq!(a.status(), b.status());
        }
        for pos in 0..m0.len() {
            assert_eq!(
                m0.parents_of_position(pos),
                m1.parents_of_position(pos),
                "holder mismatch at position {pos}"
            );
        }
        let d = s.config().d;
        let (d0, d1) = (crate::defect::exact(m0, d), crate::defect::exact(m1, d));
        assert_eq!(d0.total_defect(), d1.total_defect());
        assert_eq!(d0.defective_fraction(), d1.defective_fraction());
        m1.assert_invariants();
    }

    /// A checkpoint written through serde by an earlier build: three
    /// hellos at `k = 8, d = 2`.
    const SERDE_ERA: &str = concat!(
        r#"{"config":{"k":8,"d":2,"insert_policy":"Append"},"#,
        r#""matrix":{"k":8,"rows":[{"node":0,"threads":[0,6],"status":"Working"},"#,
        r#"{"node":1,"threads":[0,6],"status":"Working"},"#,
        r#"{"node":2,"threads":[1,5],"status":"Working"}]},"#,
        r#""next_id":3,"#,
        r#""metrics":{"joins":3,"graceful_leaves":0,"failures_reported":0,"repairs":0,"#,
        r#""thread_drops":0,"thread_restores":0,"messages_in":3,"messages_out":9}}"#,
    );

    /// WALs written before this codec existed must keep replaying: the
    /// literal document yields the server that wrote it, and writing that
    /// server yields the literal document.
    #[test]
    fn serde_era_document_parses_to_the_server_that_wrote_it() {
        let s = CurtainServer::from_json(SERDE_ERA).unwrap();
        assert_eq!(s.config(), OverlayConfig::new(8, 2));
        let rows: Vec<_> =
            s.matrix().rows().iter().map(|r| (r.node().0, r.threads(), r.status())).collect();
        let w = NodeStatus::Working;
        assert_eq!(rows, [(0, &[0, 6][..], w), (1, &[0, 6][..], w), (2, &[1, 5][..], w)]);
        assert_eq!(s.next_node_id(), 3);
        let m = s.metrics();
        assert_eq!((m.joins, m.messages_in, m.messages_out), (3, 3, 9));
        assert_eq!(s.to_json().unwrap(), SERDE_ERA);

        // `metrics` was `#[serde(default)]`.
        let (head, _) = SERDE_ERA.split_once(r#","metrics""#).unwrap();
        let bare = CurtainServer::from_json(&format!("{head}}}")).unwrap();
        assert_eq!(bare.matrix(), s.matrix());
        assert_eq!(bare.metrics(), ServerMetrics::default());

        let failed = SERDE_ERA.replacen("Working", "Failed", 1);
        let failed = CurtainServer::from_json(&failed).unwrap();
        assert_eq!(failed.matrix().failed_nodes(), vec![NodeId(0)]);

        let random = SERDE_ERA.replace("Append", "RandomPosition");
        let random = CurtainServer::from_json(&random).unwrap();
        assert_eq!(random.config().insert_policy, InsertPolicy::RandomPosition);
        assert_eq!(random.to_json().unwrap(), SERDE_ERA.replace("Append", "RandomPosition"));
    }

    /// Well-formed documents that cannot be a coordinator are typed
    /// errors; `ThreadMatrix::insert`'s assertions are never reached.
    #[test]
    fn structurally_invalid_snapshots_are_errors_not_panics() {
        let restore = |doc: &str| {
            CurtainServer::restore(ServerSnapshot::from_json(doc).expect("well-formed"))
                .expect_err("structurally invalid")
        };
        let row0 = r#""threads":[0,6]"#;
        for (threads, node) in [("[]", 0), ("[200,1]", 0), ("[6,6]", 0), ("[0,8]", 0)] {
            let doc = SERDE_ERA.replacen(row0, &format!(r#""threads":{threads}"#), 1);
            assert_eq!(restore(&doc), OverlayError::InvalidThreads(NodeId(node)), "{threads}");
        }
        let twice = SERDE_ERA.replacen(r#""node":1"#, r#""node":0"#, 1);
        assert_eq!(restore(&twice), OverlayError::AlreadyMember(NodeId(0)));
        let no_columns = SERDE_ERA.replace(r#""k":8"#, r#""k":0"#);
        assert!(matches!(restore(&no_columns), OverlayError::InvalidConfig { k: 0, .. }));
        let wide = SERDE_ERA.replacen(r#"{"k":8,"rows""#, r#"{"k":70000,"rows""#, 1);
        assert!(matches!(restore(&wide), OverlayError::InvalidConfig { k: 70000, .. }));

        // An id the JSON layer could not read back is refused at the writer.
        let mut snap = ServerSnapshot::from_json(SERDE_ERA).unwrap();
        snap.next_id = u64::MAX;
        assert_eq!(snap.to_json(), Err(OverlayError::IdOutOfRange(u64::MAX)));
        snap.next_id = i64::MAX as u64;
        assert_eq!(ServerSnapshot::from_json(&snap.to_json().unwrap()).unwrap(), snap);
        // ... and is a syntax error, not a wrapped value, at the reader.
        assert!(CurtainServer::from_json(&SERDE_ERA.replace(":3,", ":9223372036854775808,")).is_err());
    }

    /// The `core/ctrl.rs` `untrusted_lines_never_panic_a_json_decoder`
    /// pattern for the checkpoint payload: every call comes back `Ok` or
    /// `Err`, and whatever comes back `Ok` is a coordinator that holds its
    /// invariants.
    #[test]
    fn untrusted_documents_never_panic_the_snapshot_decoder() {
        use rand::RngExt as _;

        fn feed(text: &str) {
            if let Ok(server) = CurtainServer::from_json(text) {
                server.matrix().assert_invariants();
            }
        }
        /// Walks to a random node of the tree and bends it: swaps two
        /// fields of an object, or replaces a value with a hostile one.
        fn bend(v: &mut JsonValue, rng: &mut StdRng, hostile: &[JsonValue]) {
            match v {
                JsonValue::Object(fields) if fields.len() > 1 && rng.random_bool(0.2) => {
                    let (a, b) = (rng.random_range(0..fields.len()), rng.random_range(0..fields.len()));
                    let va = fields.values().nth(a).unwrap().clone();
                    let vb = std::mem::replace(fields.values_mut().nth(b).unwrap(), va);
                    *fields.values_mut().nth(a).unwrap() = vb;
                }
                JsonValue::Object(fields) if !fields.is_empty() && rng.random_bool(0.9) => {
                    let at = rng.random_range(0..fields.len());
                    bend(fields.values_mut().nth(at).unwrap(), rng, hostile);
                }
                JsonValue::Array(items) if !items.is_empty() && rng.random_bool(0.9) => {
                    let at = rng.random_range(0..items.len());
                    bend(&mut items[at], rng, hostile);
                }
                _ => *v = hostile[rng.random_range(0..hostile.len())].clone(),
            }
        }

        let mut rng = StdRng::seed_from_u64(0x5A9);
        let mut s = CurtainServer::new(OverlayConfig::new(8, 2)).unwrap();
        let ids: Vec<NodeId> = (0..6).map(|_| s.hello(&mut rng).node).collect();
        s.report_failure(ids[2]).unwrap();
        let valid = s.to_json().unwrap();
        feed(&valid);

        // (i) Truncated at every length.
        for cut in 0..valid.len() {
            feed(&valid[..cut]);
        }
        // (ii) One to three bytes flipped.
        for _ in 0..2000 {
            let mut bent = valid.clone().into_bytes();
            for _ in 0..rng.random_range(1..=3) {
                let at = rng.random_range(0..bent.len());
                bent[at] ^= rng.random_range(1..=255u8);
            }
            feed(&String::from_utf8_lossy(&bent));
        }
        // (iii) Fields swapped and values replaced, so the document stays
        // well-formed JSON and reaches the structural checks.
        let hostile = [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Int(-1),
            JsonValue::Int(0),
            JsonValue::Int(7),
            JsonValue::Int(200),
            JsonValue::Int(70_000),
            JsonValue::Int(i64::MAX),
            JsonValue::Float(1.5),
            JsonValue::Str("Failed".into()),
            JsonValue::Str("RandomPosition".into()),
            JsonValue::Str(String::new()),
            JsonValue::Array(vec![]),
            JsonValue::Array(vec![JsonValue::Int(3), JsonValue::Int(3)]),
            JsonValue::Object(Default::default()),
        ];
        let tree = json::parse_document(&valid).unwrap();
        for _ in 0..4000 {
            let mut bent = tree.clone();
            for _ in 0..rng.random_range(1..=2) {
                bend(&mut bent, &mut rng, &hostile);
            }
            feed(&bent.render());
        }
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(CurtainServer::from_json("{not json").is_err());
        assert!(CurtainServer::from_json("{}").is_err());
    }

    #[test]
    fn invalid_snapshot_rejected() {
        let s = busy_server();
        let mut snap = s.snapshot();
        snap.config.k = 6; // matrix has k = 12
        assert!(CurtainServer::restore(snap).is_err());
    }

    #[test]
    fn matrix_snapshot_rejects_bad_k() {
        let snap = MatrixSnapshot { k: 0, rows: vec![] };
        assert!(ThreadMatrix::try_from(snap).is_err());
    }
}

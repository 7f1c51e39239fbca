//! Error type for overlay operations.

use std::fmt;

use crate::types::NodeId;

/// Errors produced by overlay protocol operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayError {
    /// Configuration violates structural constraints.
    InvalidConfig {
        /// Offending `k`.
        k: usize,
        /// Offending `d`.
        d: usize,
    },
    /// The node is not (or no longer) a member of the network.
    UnknownNode(NodeId),
    /// The operation requires a working node but the node has failed
    /// (e.g. a failed node cannot say good-bye gracefully).
    NodeFailed(NodeId),
    /// The operation requires a failed node (e.g. `repair`) but the node is
    /// working.
    NodeNotFailed(NodeId),
    /// A congestion drop was requested but the node has only one thread
    /// left.
    NoThreadToDrop(NodeId),
    /// A congestion restore was requested but the node already holds all
    /// `k` threads.
    NoThreadToRestore(NodeId),
    /// A row (a resync re-admission, a snapshot row) was offered for a node
    /// that is already a member.
    AlreadyMember(NodeId),
    /// A row (a resync re-admission, a snapshot row) carried an unusable
    /// thread set (empty, duplicated, or out of range).
    InvalidThreads(NodeId),
    /// An id or counter is too large for the JSON integers a snapshot
    /// document carries (`i64::MAX`).
    IdOutOfRange(u64),
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::InvalidConfig { k, d } => {
                write!(f, "invalid overlay config: k={k}, d={d}")
            }
            OverlayError::UnknownNode(n) => write!(f, "unknown node {n}"),
            OverlayError::NodeFailed(n) => write!(f, "node {n} has failed"),
            OverlayError::NodeNotFailed(n) => write!(f, "node {n} is not failed"),
            OverlayError::NoThreadToDrop(n) => write!(f, "node {n} has no thread to drop"),
            OverlayError::NoThreadToRestore(n) => {
                write!(f, "node {n} already holds every thread")
            }
            OverlayError::AlreadyMember(n) => write!(f, "node {n} is already a member"),
            OverlayError::InvalidThreads(n) => {
                write!(f, "node {n} reported an unusable thread set")
            }
            OverlayError::IdOutOfRange(v) => {
                write!(f, "{v} does not fit a snapshot's JSON integer")
            }
        }
    }
}

impl std::error::Error for OverlayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            OverlayError::InvalidConfig { k: 2, d: 5 }.to_string(),
            "invalid overlay config: k=2, d=5"
        );
        assert_eq!(OverlayError::UnknownNode(NodeId(4)).to_string(), "unknown node n4");
    }
}

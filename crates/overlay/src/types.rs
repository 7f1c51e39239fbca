//! Identifiers, configuration and small value types for the overlay.

use std::fmt;

/// Identifies a client node. Never reused within one network's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies one of the server's `k` threads (columns of the matrix `M`).
pub type ThreadId = u16;

/// Who currently holds the upper end of an edge: the server (curtain rod) or
/// a client node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Holder {
    /// The server itself (the thread has no holder above this point).
    Server,
    /// A client node.
    Node(NodeId),
}

impl Holder {
    /// The node id if this is a client, `None` for the server.
    #[must_use]
    pub fn node(self) -> Option<NodeId> {
        match self {
            Holder::Server => None,
            Holder::Node(n) => Some(n),
        }
    }
}

impl fmt::Display for Holder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Holder::Server => write!(f, "server"),
            Holder::Node(n) => write!(f, "{n}"),
        }
    }
}

/// Whether a row in `M` corresponds to a live or a failed node.
///
/// The paper's analysis (§4) tags each row: a node "joins as a failed node
/// with probability p" — the tag models a node that fails within the repair
/// interval. Failed nodes absorb their incoming streams and forward nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeStatus {
    /// The node relays streams normally.
    #[default]
    Working,
    /// The node has failed (non-ergodically) and is awaiting repair.
    Failed,
}

/// Where a new row is placed in `M` when a node joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InsertPolicy {
    /// Append at the bottom — the basic §3 protocol ("newly arriving nodes
    /// clip the threads at the bottom").
    #[default]
    Append,
    /// Insert at a uniformly random position — the §5 hardening that makes
    /// coordinated adversarial arrivals equivalent to random failures.
    RandomPosition,
}

/// Static parameters of a curtain overlay.
///
/// `k` is the server bandwidth in thread units; `d` is the per-node
/// in/out-degree. The paper's theorems assume `d ≥ 2` and `k ≥ c·d²`;
/// the constructor enforces only the structural requirement `1 ≤ d ≤ k`
/// so that degenerate baselines (chains, `d = 1`) can be built for the
/// comparison experiments — theory experiments choose their own parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OverlayConfig {
    /// Number of server threads (columns of `M`).
    pub k: usize,
    /// Threads per node (ones per row of `M`).
    pub d: usize,
    /// Row placement policy.
    pub insert_policy: InsertPolicy,
}

impl OverlayConfig {
    /// Creates a configuration with the default [`InsertPolicy::Append`].
    #[must_use]
    pub fn new(k: usize, d: usize) -> Self {
        OverlayConfig { k, d, insert_policy: InsertPolicy::Append }
    }

    /// Selects the row placement policy.
    #[must_use]
    pub fn with_insert_policy(mut self, policy: InsertPolicy) -> Self {
        self.insert_policy = policy;
        self
    }

    /// Validates the structural constraints.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OverlayError::InvalidConfig`] if `d == 0`, `k == 0`,
    /// `d > k`, or `k` exceeds the `ThreadId` range.
    pub fn validate(&self) -> Result<(), crate::OverlayError> {
        if self.d == 0 || self.k == 0 || self.d > self.k || self.k > ThreadId::MAX as usize {
            return Err(crate::OverlayError::InvalidConfig { k: self.k, d: self.d });
        }
        Ok(())
    }

    /// True iff the parameters satisfy the paper's analytical assumptions
    /// (`d ≥ 2`; `k ≥ d²`).
    #[must_use]
    pub fn satisfies_theory_assumptions(&self) -> bool {
        self.d >= 2 && self.k >= self.d * self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(OverlayConfig::new(8, 2).validate().is_ok());
        assert!(OverlayConfig::new(8, 8).validate().is_ok());
        assert!(OverlayConfig::new(8, 9).validate().is_err());
        assert!(OverlayConfig::new(0, 0).validate().is_err());
        assert!(OverlayConfig::new(8, 0).validate().is_err());
    }

    #[test]
    fn theory_assumptions() {
        assert!(OverlayConfig::new(16, 4).satisfies_theory_assumptions());
        assert!(!OverlayConfig::new(15, 4).satisfies_theory_assumptions());
        assert!(!OverlayConfig::new(16, 1).satisfies_theory_assumptions());
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(Holder::Server.to_string(), "server");
        assert_eq!(Holder::Node(NodeId(1)).to_string(), "n1");
    }

    #[test]
    fn holder_node_accessor() {
        assert_eq!(Holder::Server.node(), None);
        assert_eq!(Holder::Node(NodeId(9)).node(), Some(NodeId(9)));
    }
}

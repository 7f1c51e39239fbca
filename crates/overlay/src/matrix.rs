//! The server-side matrix `M`: the paper's central data structure.
//!
//! Each row corresponds to a node and lists the threads (columns) it holds;
//! the server is a virtual row of all `k` ones above the matrix. *"There is
//! an edge from node i to node j if row i appears before row j in the matrix
//! and there is a column containing a one in row i, a one in row j, and
//! zeroes in all the intervening rows."* (§3)
//!
//! Rows are tagged [`NodeStatus`] per §4's analysis device: a node may join
//! already marked as failed, modelling a failure within the repair interval.

use std::collections::HashMap;

use rand::Rng;

use crate::types::{Holder, NodeId, NodeStatus, ThreadId};

/// One row of `M`: a node, the (sorted, distinct) threads it holds, and its
/// working/failed tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    node: NodeId,
    threads: Vec<ThreadId>,
    status: NodeStatus,
}

impl Row {
    /// The node this row belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The threads (columns with a one), sorted ascending.
    #[must_use]
    pub fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// The working/failed tag.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        self.status
    }

    /// True iff the row holds the given thread.
    #[must_use]
    pub fn holds(&self, thread: ThreadId) -> bool {
        self.threads.binary_search(&thread).is_ok()
    }
}

/// The matrix `M` of §3: an ordered list of rows over `k` columns.
///
/// Mutations mirror the protocols: [`ThreadMatrix::insert`] (hello),
/// [`ThreadMatrix::remove`] (good-bye / repair), [`ThreadMatrix::set_status`]
/// (failure tagging), [`ThreadMatrix::remove_thread`] /
/// [`ThreadMatrix::add_thread`] (§5 congestion handling).
///
/// # Example
///
/// ```
/// use curtain_overlay::{NodeId, NodeStatus, ThreadMatrix};
///
/// let mut m = ThreadMatrix::new(8);
/// m.append(NodeId(0), vec![0, 3, 5], NodeStatus::Working);
/// m.append(NodeId(1), vec![3, 4, 7], NodeStatus::Working);
/// // Node 1's parent on thread 3 is node 0; on threads 4 and 7 the server.
/// let parents = m.parents_of_position(1);
/// assert_eq!(parents.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadMatrix {
    k: usize,
    rows: Vec<Row>,
    positions: HashMap<NodeId, usize>,
}

impl ThreadMatrix {
    /// Creates an empty matrix over `k` threads.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k` exceeds the [`ThreadId`] range.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(k <= ThreadId::MAX as usize, "k exceeds ThreadId range");
        ThreadMatrix { k, rows: Vec::new(), positions: HashMap::new() }
    }

    /// Number of threads (columns).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of rows (current members, working and failed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no node has joined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows in matrix order (top to bottom).
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row at a position.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn row(&self, position: usize) -> &Row {
        &self.rows[position]
    }

    /// Position of a node's row, if the node is a member.
    #[must_use]
    pub fn position_of(&self, node: NodeId) -> Option<usize> {
        self.positions.get(&node).copied()
    }

    /// Status of a node, if a member.
    #[must_use]
    pub fn status_of(&self, node: NodeId) -> Option<NodeStatus> {
        self.position_of(node).map(|p| self.rows[p].status)
    }

    /// Number of working rows.
    #[must_use]
    pub fn working_len(&self) -> usize {
        self.rows.iter().filter(|r| r.status == NodeStatus::Working).count()
    }

    /// Ids of all failed nodes, in matrix order.
    #[must_use]
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.rows
            .iter()
            .filter(|r| r.status == NodeStatus::Failed)
            .map(Row::node)
            .collect()
    }

    /// Samples `d` distinct threads uniformly at random — the "picks d
    /// threads at random" of the hello protocol.
    ///
    /// # Panics
    ///
    /// Panics if `d > k`.
    #[must_use]
    pub fn sample_threads<R: Rng + ?Sized>(&self, d: usize, rng: &mut R) -> Vec<ThreadId> {
        assert!(d <= self.k, "cannot sample {d} threads out of {}", self.k);
        let idx = rand::seq::index::sample(rng, self.k, d);
        let mut threads: Vec<ThreadId> = idx.into_iter().map(|i| i as ThreadId).collect();
        threads.sort_unstable();
        threads
    }

    /// Inserts a row at `position` (0 = top).
    ///
    /// # Panics
    ///
    /// Panics if the node is already a member, `position > len()`, or
    /// `threads` is empty / out of range / contains duplicates.
    pub fn insert(
        &mut self,
        position: usize,
        node: NodeId,
        mut threads: Vec<ThreadId>,
        status: NodeStatus,
    ) {
        assert!(position <= self.rows.len(), "insert position out of range");
        assert!(!self.positions.contains_key(&node), "node {node} already a member");
        assert!(!threads.is_empty(), "a row needs at least one thread");
        threads.sort_unstable();
        assert!(threads.windows(2).all(|w| w[0] != w[1]), "duplicate threads in row");
        assert!((threads[threads.len() - 1] as usize) < self.k, "thread out of range");
        self.rows.insert(position, Row { node, threads, status });
        self.reindex_from(position);
    }

    /// Appends a row at the bottom (the [`crate::InsertPolicy::Append`] case).
    ///
    /// # Panics
    ///
    /// Same as [`ThreadMatrix::insert`].
    pub fn append(&mut self, node: NodeId, threads: Vec<ThreadId>, status: NodeStatus) {
        self.insert(self.rows.len(), node, threads, status);
    }

    /// Removes a node's row (good-bye splice / post-repair deletion) and
    /// returns it.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a member.
    pub fn remove(&mut self, node: NodeId) -> Row {
        let pos = self.positions.remove(&node).expect("node is a member");
        let row = self.rows.remove(pos);
        self.reindex_from(pos);
        row
    }

    /// Sets a node's working/failed tag.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a member.
    pub fn set_status(&mut self, node: NodeId, status: NodeStatus) {
        let pos = self.positions[&node];
        self.rows[pos].status = status;
    }

    /// Removes one thread from a node's row (§5 congestion drop: the node
    /// "picks a child and a parent and joins them directly").
    ///
    /// # Panics
    ///
    /// Panics if the node is not a member, does not hold the thread, or
    /// holds only one thread.
    pub fn remove_thread(&mut self, node: NodeId, thread: ThreadId) {
        let pos = self.positions[&node];
        let row = &mut self.rows[pos];
        assert!(row.threads.len() > 1, "cannot drop the last thread");
        let i = row.threads.binary_search(&thread).expect("node holds the thread");
        row.threads.remove(i);
    }

    /// Adds one thread to a node's row (§5 congestion recovery: the server
    /// "makes one of the zeroes … into a one at random").
    ///
    /// # Panics
    ///
    /// Panics if the node is not a member or already holds the thread.
    pub fn add_thread(&mut self, node: NodeId, thread: ThreadId) {
        assert!((thread as usize) < self.k, "thread out of range");
        let pos = self.positions[&node];
        let row = &mut self.rows[pos];
        let i = row.threads.binary_search(&thread).expect_err("node already holds the thread");
        row.threads.insert(i, thread);
    }

    /// The holder of the lower end of each thread — the "pool of slots, or
    /// unserved streams, to which a new node can connect" (§3). `Holder::Server`
    /// where no row holds the column.
    #[must_use]
    pub fn bottom_holders(&self) -> Vec<Holder> {
        let mut bottoms = vec![Holder::Server; self.k];
        for row in &self.rows {
            for &t in &row.threads {
                bottoms[t as usize] = Holder::Node(row.node);
            }
        }
        bottoms
    }

    /// Parents of the row at `position`: for each of its threads, the
    /// nearest holder above (the server if none).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[must_use]
    pub fn parents_of_position(&self, position: usize) -> Vec<(ThreadId, Holder)> {
        let row = &self.rows[position];
        row.threads
            .iter()
            .map(|&t| {
                let parent = self.rows[..position]
                    .iter()
                    .rev()
                    .find(|r| r.holds(t))
                    .map_or(Holder::Server, |r| Holder::Node(r.node));
                (t, parent)
            })
            .collect()
    }

    /// Children of the row at `position`: for each of its threads, the
    /// nearest holder below (`None` if the thread hangs free below it).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[must_use]
    pub fn children_of_position(&self, position: usize) -> Vec<(ThreadId, Option<NodeId>)> {
        let row = &self.rows[position];
        row.threads
            .iter()
            .map(|&t| {
                let child = self.rows[position + 1..]
                    .iter()
                    .find(|r| r.holds(t))
                    .map(Row::node);
                (t, child)
            })
            .collect()
    }

    /// Checks the structural invariants; used by tests and assertions.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any violation.
    pub fn assert_invariants(&self) {
        assert_eq!(self.positions.len(), self.rows.len(), "index size mismatch");
        for (i, row) in self.rows.iter().enumerate() {
            assert_eq!(self.positions.get(&row.node), Some(&i), "index out of date for {}", row.node);
            assert!(!row.threads.is_empty(), "empty row");
            assert!(row.threads.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicate threads");
            assert!((*row.threads.last().unwrap() as usize) < self.k, "thread out of range");
        }
    }

    fn reindex_from(&mut self, position: usize) {
        for (i, row) in self.rows.iter().enumerate().skip(position) {
            self.positions.insert(row.node, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn w() -> NodeStatus {
        NodeStatus::Working
    }

    #[test]
    fn append_and_positions() {
        let mut m = ThreadMatrix::new(4);
        m.append(NodeId(10), vec![0, 1], w());
        m.append(NodeId(20), vec![1, 2], w());
        assert_eq!(m.len(), 2);
        assert_eq!(m.position_of(NodeId(10)), Some(0));
        assert_eq!(m.position_of(NodeId(20)), Some(1));
        assert_eq!(m.position_of(NodeId(99)), None);
        m.assert_invariants();
    }

    #[test]
    fn insert_in_middle_reindexes() {
        let mut m = ThreadMatrix::new(4);
        m.append(NodeId(1), vec![0], w());
        m.append(NodeId(2), vec![1], w());
        m.insert(1, NodeId(3), vec![2], w());
        assert_eq!(m.position_of(NodeId(1)), Some(0));
        assert_eq!(m.position_of(NodeId(3)), Some(1));
        assert_eq!(m.position_of(NodeId(2)), Some(2));
        m.assert_invariants();
    }

    #[test]
    fn remove_reindexes() {
        let mut m = ThreadMatrix::new(4);
        for i in 0..5 {
            m.append(NodeId(i), vec![(i % 4) as ThreadId], w());
        }
        let row = m.remove(NodeId(2));
        assert_eq!(row.node(), NodeId(2));
        assert_eq!(m.len(), 4);
        assert_eq!(m.position_of(NodeId(3)), Some(2));
        assert_eq!(m.position_of(NodeId(4)), Some(3));
        m.assert_invariants();
    }

    #[test]
    fn parents_and_children() {
        let mut m = ThreadMatrix::new(8);
        m.append(NodeId(0), vec![0, 3, 5], w());
        m.append(NodeId(1), vec![3, 4, 7], w());
        m.append(NodeId(2), vec![0, 3, 4], w());
        // Node 2: thread 0 -> node 0, thread 3 -> node 1, thread 4 -> node 1.
        let parents = m.parents_of_position(2);
        assert_eq!(
            parents,
            vec![
                (0, Holder::Node(NodeId(0))),
                (3, Holder::Node(NodeId(1))),
                (4, Holder::Node(NodeId(1))),
            ]
        );
        // Node 0: children on 0 -> node 2, 3 -> node 1, 5 -> none.
        let children = m.children_of_position(0);
        assert_eq!(
            children,
            vec![(0, Some(NodeId(2))), (3, Some(NodeId(1))), (5, None)]
        );
        // Node 1's parents: 3 -> node 0; 4, 7 -> server.
        assert_eq!(
            m.parents_of_position(1),
            vec![
                (3, Holder::Node(NodeId(0))),
                (4, Holder::Server),
                (7, Holder::Server),
            ]
        );
    }

    #[test]
    fn bottom_holders_track_last_rows() {
        let mut m = ThreadMatrix::new(4);
        assert_eq!(m.bottom_holders(), vec![Holder::Server; 4]);
        m.append(NodeId(0), vec![0, 1], w());
        m.append(NodeId(1), vec![1, 2], w());
        assert_eq!(
            m.bottom_holders(),
            vec![
                Holder::Node(NodeId(0)),
                Holder::Node(NodeId(1)),
                Holder::Node(NodeId(1)),
                Holder::Server,
            ]
        );
    }

    #[test]
    fn thread_add_remove() {
        let mut m = ThreadMatrix::new(4);
        m.append(NodeId(0), vec![0, 2], w());
        m.remove_thread(NodeId(0), 2);
        assert_eq!(m.row(0).threads(), &[0]);
        m.add_thread(NodeId(0), 3);
        assert_eq!(m.row(0).threads(), &[0, 3]);
        m.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "cannot drop the last thread")]
    fn cannot_drop_last_thread() {
        let mut m = ThreadMatrix::new(4);
        m.append(NodeId(0), vec![1], w());
        m.remove_thread(NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "already a member")]
    fn duplicate_node_rejected() {
        let mut m = ThreadMatrix::new(4);
        m.append(NodeId(0), vec![0], w());
        m.append(NodeId(0), vec![1], w());
    }

    #[test]
    #[should_panic(expected = "duplicate threads")]
    fn duplicate_threads_rejected() {
        let mut m = ThreadMatrix::new(4);
        m.append(NodeId(0), vec![1, 1], w());
    }

    #[test]
    #[should_panic(expected = "thread out of range")]
    fn out_of_range_thread_rejected() {
        let mut m = ThreadMatrix::new(4);
        m.append(NodeId(0), vec![4], w());
    }

    #[test]
    fn sample_threads_distinct_and_in_range() {
        let m = ThreadMatrix::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let t = m.sample_threads(4, &mut rng);
            assert_eq!(t.len(), 4);
            assert!(t.windows(2).all(|w| w[0] < w[1]));
            assert!(t.iter().all(|&x| (x as usize) < 10));
        }
    }

    #[test]
    fn sample_threads_uniform_marginals() {
        // Each thread should be picked with probability d/k.
        let m = ThreadMatrix::new(8);
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 20_000;
        let mut counts = [0u32; 8];
        for _ in 0..trials {
            for t in m.sample_threads(2, &mut rng) {
                counts[t as usize] += 1;
            }
        }
        let expect = trials as f64 * 2.0 / 8.0;
        for (t, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.1, "thread {t} count {c} deviates {dev:.3} from {expect}");
        }
    }

    #[test]
    fn status_updates() {
        let mut m = ThreadMatrix::new(4);
        m.append(NodeId(0), vec![0], w());
        assert_eq!(m.status_of(NodeId(0)), Some(NodeStatus::Working));
        m.set_status(NodeId(0), NodeStatus::Failed);
        assert_eq!(m.status_of(NodeId(0)), Some(NodeStatus::Failed));
        assert_eq!(m.failed_nodes(), vec![NodeId(0)]);
        assert_eq!(m.working_len(), 0);
    }

    /// Random interleavings of insert/remove keep the index consistent.
    #[test]
    fn random_ops_preserve_invariants() {
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..64 {
            let mut m = ThreadMatrix::new(6);
            let mut next = 0u64;
            let mut members: Vec<NodeId> = Vec::new();
            for _ in 0..rng.random_range(1usize..60) {
                let roll: f64 = rng.random();
                if members.is_empty() || roll < 0.6 {
                    let node = NodeId(next);
                    next += 1;
                    let threads = m.sample_threads(2, &mut rng);
                    let pos = rng.random_range(0..=m.len());
                    m.insert(pos, node, threads, NodeStatus::Working);
                    members.push(node);
                } else {
                    let i = rng.random_range(0..members.len());
                    let node = members.swap_remove(i);
                    m.remove(node);
                }
                m.assert_invariants();
            }
            assert_eq!(m.len(), members.len());
        }
    }
}

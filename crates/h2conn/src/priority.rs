//! The stream priority dependency tree (RFC 7540 §5.3) and the weighted
//! scheduler servers use to pick which stream sends DATA next.
//!
//! This module implements everything the paper's Algorithm 1 exercises:
//! dependency insertion (exclusive and non-exclusive), reprioritization
//! with the §5.3.3 descendant-move rule, self-dependency detection, and a
//! parent-before-children weighted-round-robin scheduler.
//!
//! Unknown stream ids arriving in PRIORITY frames are attached to the
//! tree before use, so every map lookup below operates on a key the
//! tree itself inserted.

#![allow(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "tree-membership invariant: attach()/reprioritize() insert every id before it is dereferenced"
)]

use std::collections::BTreeMap;

use h2wire::{PrioritySpec, StreamId};

/// Error returned when a PRIORITY operation names the stream itself as its
/// parent (RFC 7540 §5.3.1: "a stream cannot depend on itself").
///
/// How to *react* (RST_STREAM, GOAWAY, or silently ignore) is a server
/// policy the paper measures; the tree only reports the condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfDependencyError {
    /// The self-dependent stream.
    pub stream: StreamId,
}

impl std::fmt::Display for SelfDependencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream {} depends on itself", self.stream)
    }
}

impl std::error::Error for SelfDependencyError {}

#[derive(Debug, Clone)]
struct Node {
    parent: u32,
    weight: u16,
    children: Vec<u32>,
    /// Smooth weighted-round-robin credit used by the scheduler.
    wrr_credit: i64,
}

impl Node {
    fn new(parent: u32, weight: u16) -> Node {
        Node {
            parent,
            weight,
            children: Vec::new(),
            wrr_credit: 0,
        }
    }
}

/// The dependency tree. Stream 0 is the implicit root.
#[derive(Debug, Clone)]
pub struct PriorityTree {
    nodes: BTreeMap<u32, Node>,
    /// Scratch for [`PriorityTree::next_stream`], kept so a pick does not
    /// allocate.
    edges: Vec<(u32, u32)>,
}

impl Default for PriorityTree {
    fn default() -> PriorityTree {
        PriorityTree::new()
    }
}

impl PriorityTree {
    /// Creates a tree containing only the root (stream 0).
    pub fn new() -> PriorityTree {
        let mut nodes = BTreeMap::new();
        nodes.insert(0, Node::new(0, 0));
        PriorityTree {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Number of streams in the tree, excluding the root.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// `true` when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// `true` when `stream` is present (the root always is).
    pub fn contains(&self, stream: StreamId) -> bool {
        self.nodes.contains_key(&stream.value())
    }

    /// The parent of `stream`, or `None` if the stream is unknown.
    pub fn parent_of(&self, stream: StreamId) -> Option<StreamId> {
        self.nodes
            .get(&stream.value())
            .map(|n| StreamId::new(n.parent))
    }

    /// The weight of `stream` (1..=256), or `None` if unknown.
    pub fn weight_of(&self, stream: StreamId) -> Option<u16> {
        self.nodes.get(&stream.value()).map(|n| n.weight)
    }

    /// The children of `stream` in insertion order.
    pub fn children_of(&self, stream: StreamId) -> Vec<StreamId> {
        self.nodes
            .get(&stream.value())
            .map(|n| n.children.iter().map(|&c| StreamId::new(c)).collect())
            .unwrap_or_default()
    }

    /// `true` when `descendant` sits below `ancestor`.
    pub fn is_descendant(&self, descendant: StreamId, ancestor: StreamId) -> bool {
        let target = ancestor.value();
        let mut cursor = descendant.value();
        while let Some(node) = self.nodes.get(&cursor) {
            if cursor == 0 {
                return false;
            }
            if node.parent == target {
                return true;
            }
            cursor = node.parent;
        }
        false
    }

    /// Declares or re-declares the priority of `stream` per `spec`,
    /// creating the stream (and, per RFC 7540 §5.3.1, an absent parent at
    /// default priority) as needed. Handles both initial prioritization
    /// from HEADERS and reprioritization from PRIORITY frames, including
    /// the §5.3.3 rule: when the new parent is currently a descendant of
    /// `stream`, the parent is first moved to depend on `stream`'s old
    /// parent, retaining its weight.
    ///
    /// # Errors
    ///
    /// [`SelfDependencyError`] when `spec.dependency == stream`; the tree
    /// is left unchanged so callers can apply their chosen quirk.
    pub fn declare(
        &mut self,
        stream: StreamId,
        spec: PrioritySpec,
    ) -> Result<(), SelfDependencyError> {
        if spec.dependency == stream {
            return Err(SelfDependencyError { stream });
        }
        let id = stream.value();
        let new_parent = spec.dependency.value();

        // Materialize the parent at default priority if it is unknown.
        if !self.nodes.contains_key(&new_parent) {
            self.attach(new_parent, 0, PrioritySpec::default_spec().weight);
        }
        if !self.nodes.contains_key(&id) {
            self.attach(id, 0, PrioritySpec::default_spec().weight);
        }

        // §5.3.3: if the new parent is a descendant of `stream`, move it up
        // to `stream`'s current parent first, retaining its weight.
        if self.is_descendant(spec.dependency, stream) {
            let old_parent = self.nodes[&id].parent;
            self.move_subtree(new_parent, old_parent);
        }

        self.move_subtree(id, new_parent);
        if spec.exclusive {
            // Adopt every other child of the new parent.
            let siblings: Vec<u32> = self.nodes[&new_parent]
                .children
                .iter()
                .copied()
                .filter(|&c| c != id)
                .collect();
            for sibling in siblings {
                self.move_subtree(sibling, id);
            }
        }
        self.nodes.get_mut(&id).expect("stream exists").weight = spec.weight;
        Ok(())
    }

    /// Removes a closed stream. Its children are reparented to its parent
    /// with weights scaled proportionally to the closed stream's weight
    /// (RFC 7540 §5.3.4).
    pub fn remove(&mut self, stream: StreamId) {
        let id = stream.value();
        if id == 0 {
            return;
        }
        let Some(node) = self.nodes.remove(&id) else {
            return;
        };
        if let Some(parent) = self.nodes.get_mut(&node.parent) {
            parent.children.retain(|&c| c != id);
        }
        let total: u32 = node
            .children
            .iter()
            .map(|c| u32::from(self.nodes[c].weight))
            .sum();
        for child in node.children {
            let child_node = self.nodes.get_mut(&child).expect("child exists");
            child_node.parent = node.parent;
            if let Some(scaled) =
                (u32::from(node.weight) * u32::from(child_node.weight)).checked_div(total)
            {
                child_node.weight = scaled.clamp(1, 256) as u16;
            }
            self.nodes
                .get_mut(&node.parent)
                .expect("parent exists")
                .children
                .push(child);
        }
    }

    /// Drops `stream` when it is a childless leaf under the root at the
    /// default weight with no scheduling credit — exactly the node
    /// [`PriorityTree::declare`] would re-create if the id came up again,
    /// so forgetting it changes no schedule. Closed streams go this way,
    /// so a long-lived connection's tree holds only the streams that can
    /// still shape one (RFC 7540 §5.3.4 lets closed-stream state go).
    pub fn forget_if_default(&mut self, stream: StreamId) {
        let default = PrioritySpec::default_spec().weight;
        let recreatable = self.nodes.get(&stream.value()).is_some_and(|n| {
            n.parent == 0 && n.weight == default && n.children.is_empty() && n.wrr_credit == 0
        });
        if recreatable {
            self.remove(stream);
        }
    }

    /// Picks the next stream allowed to transmit among `ready` (the
    /// streams with queued data and window, in any order; ids absent from
    /// the tree are ignored).
    ///
    /// The discipline matches what the paper's Algorithm 1 verifies on
    /// priority-aware servers: a ready stream is always served before any
    /// of its descendants, and sibling subtrees share service in
    /// proportion to their weights (smooth weighted round-robin).
    ///
    /// Only the ready streams and their ancestors are visited, so a pick
    /// costs the same on a connection that has carried a thousand streams
    /// as on a fresh one.
    pub fn next_stream(&mut self, ready: &[StreamId]) -> Option<StreamId> {
        // Every (parent, child) edge on a path from a ready stream up to
        // the root, sorted: the children of `node` with a ready stream in
        // their subtree are then the run of edges starting at `node`.
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        for stream in ready {
            let mut cursor = stream.value();
            while cursor != 0 {
                let Some(node) = self.nodes.get(&cursor) else {
                    break;
                };
                edges.push((node.parent, cursor));
                cursor = node.parent;
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut node = 0;
        let winner = loop {
            if node != 0 && ready.iter().any(|s| s.value() == node) {
                break Some(StreamId::new(node));
            }
            let first = edges.partition_point(|&(parent, _)| parent < node);
            let eligible = edges[first..]
                .iter()
                .take_while(|&&(parent, _)| parent == node);
            // Smooth WRR: credit += weight; winner = max credit; winner's
            // credit -= total weight. Ties break toward the lower stream id
            // so the schedule is deterministic (and independent of the
            // order the candidates are visited in).
            let mut total = 0i64;
            let mut lead: Option<(i64, u32)> = None;
            for &(_, c) in eligible {
                let n = self.nodes.get_mut(&c).expect("eligible child exists");
                total += i64::from(n.weight);
                n.wrr_credit += i64::from(n.weight);
                let credit = n.wrr_credit;
                if lead.is_none_or(|(best, id)| credit > best || (credit == best && c < id)) {
                    lead = Some((credit, c));
                }
            }
            let Some((_, winner)) = lead else {
                break None;
            };
            self.nodes
                .get_mut(&winner)
                .expect("winner exists")
                .wrr_credit -= total;
            node = winner;
        };
        self.edges = edges;
        winner
    }

    fn attach(&mut self, id: u32, parent: u32, weight: u16) {
        self.nodes.insert(id, Node::new(parent, weight));
        self.nodes
            .get_mut(&parent)
            .expect("parent exists")
            .children
            .push(id);
    }

    fn move_subtree(&mut self, id: u32, new_parent: u32) {
        let old_parent = self.nodes[&id].parent;
        if old_parent == new_parent && self.nodes[&new_parent].children.contains(&id) {
            return;
        }
        if let Some(op) = self.nodes.get_mut(&old_parent) {
            op.children.retain(|&c| c != id);
        }
        self.nodes.get_mut(&id).expect("stream exists").parent = new_parent;
        self.nodes
            .get_mut(&new_parent)
            .expect("new parent exists")
            .children
            .push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(v: u32) -> StreamId {
        StreamId::new(v)
    }

    fn spec(dep: u32, weight: u16, exclusive: bool) -> PrioritySpec {
        PrioritySpec {
            exclusive,
            dependency: sid(dep),
            weight,
        }
    }

    /// Builds the paper's Figure 1(1) tree: A(1)-{B(3),C(5),D(7)};
    /// E(9) under B, F(11) under D. Stream letters map to odd ids.
    fn paper_tree() -> PriorityTree {
        let mut t = PriorityTree::new();
        t.declare(sid(1), spec(0, 1, false)).unwrap(); // A
        t.declare(sid(3), spec(1, 1, false)).unwrap(); // B
        t.declare(sid(5), spec(1, 1, false)).unwrap(); // C
        t.declare(sid(7), spec(1, 1, false)).unwrap(); // D
        t.declare(sid(9), spec(3, 1, false)).unwrap(); // E under B
        t.declare(sid(11), spec(7, 1, false)).unwrap(); // F under D
        t
    }

    #[test]
    fn figure1_initial_tree_shape() {
        let t = paper_tree();
        assert_eq!(t.parent_of(sid(1)), Some(sid(0)));
        assert_eq!(t.children_of(sid(1)), vec![sid(3), sid(5), sid(7)]);
        assert_eq!(t.children_of(sid(3)), vec![sid(9)]);
        assert_eq!(t.children_of(sid(7)), vec![sid(11)]);
        assert_eq!(t.len(), 6);
    }

    /// Figure 1(2): PRIORITY making A depend on B *exclusively* — B moves
    /// under A's old parent, A becomes B's sole child, and B's previous
    /// children (E) become children of A.
    #[test]
    fn figure1_exclusive_reprioritization() {
        let mut t = paper_tree();
        t.declare(sid(1), spec(3, 1, true)).unwrap(); // A -> B, exclusive
        assert_eq!(t.parent_of(sid(3)), Some(sid(0)), "B moved up to root");
        assert_eq!(t.children_of(sid(3)), vec![sid(1)], "A is B's only child");
        let mut a_children = t.children_of(sid(1));
        a_children.sort_by_key(|s| s.value());
        assert_eq!(
            a_children,
            vec![sid(5), sid(7), sid(9)],
            "C, D and E under A"
        );
        assert_eq!(t.children_of(sid(7)), vec![sid(11)], "F stays under D");
    }

    /// Figure 1(3): the same PRIORITY without the exclusive flag — E stays
    /// with B, and A keeps C and D.
    #[test]
    fn figure1_non_exclusive_reprioritization() {
        let mut t = paper_tree();
        t.declare(sid(1), spec(3, 1, false)).unwrap(); // A -> B
        assert_eq!(t.parent_of(sid(3)), Some(sid(0)));
        let mut b_children = t.children_of(sid(3));
        b_children.sort_by_key(|s| s.value());
        assert_eq!(b_children, vec![sid(1), sid(9)], "A and E under B");
        let mut a_children = t.children_of(sid(1));
        a_children.sort_by_key(|s| s.value());
        assert_eq!(a_children, vec![sid(5), sid(7)], "C and D remain under A");
    }

    #[test]
    fn self_dependency_is_reported_and_tree_unchanged() {
        let mut t = paper_tree();
        let before = t.children_of(sid(1));
        let err = t.declare(sid(1), spec(1, 7, false)).unwrap_err();
        assert_eq!(err, SelfDependencyError { stream: sid(1) });
        assert_eq!(t.children_of(sid(1)), before);
        assert_eq!(t.weight_of(sid(1)), Some(1), "weight untouched");
    }

    #[test]
    fn dependency_on_unknown_parent_materializes_it_at_default_priority() {
        let mut t = PriorityTree::new();
        t.declare(sid(3), spec(99, 8, false)).unwrap();
        assert_eq!(t.parent_of(sid(99)), Some(sid(0)));
        assert_eq!(t.weight_of(sid(99)), Some(16), "default weight");
        assert_eq!(t.parent_of(sid(3)), Some(sid(99)));
    }

    #[test]
    fn removal_reparents_children_with_scaled_weights() {
        let mut t = PriorityTree::new();
        t.declare(sid(1), spec(0, 8, false)).unwrap();
        t.declare(sid(3), spec(1, 6, false)).unwrap();
        t.declare(sid(5), spec(1, 2, false)).unwrap();
        t.remove(sid(1));
        assert_eq!(t.parent_of(sid(3)), Some(sid(0)));
        assert_eq!(t.parent_of(sid(5)), Some(sid(0)));
        // Weights scale by 8 * w / 8: stream 3 gets 6, stream 5 gets 2.
        assert_eq!(t.weight_of(sid(3)), Some(6));
        assert_eq!(t.weight_of(sid(5)), Some(2));
        assert!(!t.contains(sid(1)));
    }

    #[test]
    fn scheduler_serves_parent_before_children() {
        let mut t = paper_tree();
        let ready = [1, 3, 5, 7, 9, 11].map(sid);
        let next = t.next_stream(&ready).unwrap();
        assert_eq!(next, sid(1), "A is served before all descendants");
    }

    #[test]
    fn scheduler_descends_through_inactive_nodes() {
        let mut t = paper_tree();
        // A finished; only E (under B) and F (under D) are ready.
        let ready = [sid(9), sid(11)];
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(t.next_stream(&ready).unwrap().value());
        }
        assert!(
            seen.contains(&9) && seen.contains(&11),
            "both leaves get service: {seen:?}"
        );
    }

    #[test]
    fn scheduler_shares_by_weight() {
        let mut t = PriorityTree::new();
        t.declare(sid(1), spec(0, 30, false)).unwrap();
        t.declare(sid(3), spec(0, 10, false)).unwrap();
        let mut count1 = 0;
        let mut count3 = 0;
        for _ in 0..400 {
            match t.next_stream(&[sid(1), sid(3)]).unwrap().value() {
                1 => count1 += 1,
                3 => count3 += 1,
                other => panic!("unexpected stream {other}"),
            }
        }
        assert_eq!(count1, 300, "weight-30 stream gets 3/4 of service");
        assert_eq!(count3, 100);
    }

    #[test]
    fn scheduler_returns_none_when_nothing_ready() {
        let mut t = paper_tree();
        assert_eq!(t.next_stream(&[]), None);
        assert_eq!(t.next_stream(&[sid(99)]), None, "not in the tree");
    }

    #[test]
    fn rfc_5_3_3_example_moves_new_parent_up() {
        // RFC 7540 §5.3.3 figure: A with children B and C; C has D; D has
        // E and F. Reprioritize A to depend on D (non-exclusive): D moves
        // under A's old parent (root), A becomes a child of D.
        let mut t = PriorityTree::new();
        t.declare(sid(1), spec(0, 16, false)).unwrap(); // A
        t.declare(sid(3), spec(1, 16, false)).unwrap(); // B
        t.declare(sid(5), spec(1, 16, false)).unwrap(); // C
        t.declare(sid(7), spec(5, 16, false)).unwrap(); // D under C
        t.declare(sid(9), spec(7, 16, false)).unwrap(); // E under D
        t.declare(sid(11), spec(7, 16, false)).unwrap(); // F under D

        t.declare(sid(1), spec(7, 16, false)).unwrap(); // A -> D
        assert_eq!(t.parent_of(sid(7)), Some(sid(0)), "D moved to root");
        assert_eq!(t.parent_of(sid(1)), Some(sid(7)), "A under D");
        let mut a_children = t.children_of(sid(1));
        a_children.sort_by_key(|s| s.value());
        assert_eq!(a_children, vec![sid(3), sid(5)], "B and C stay under A");
        let mut d_children = t.children_of(sid(7));
        d_children.sort_by_key(|s| s.value());
        assert_eq!(
            d_children,
            vec![sid(1), sid(9), sid(11)],
            "A joins E and F under D"
        );
    }

    #[test]
    fn rfc_5_3_3_exclusive_variant() {
        // Same example with the exclusive flag: A becomes D's sole child
        // and adopts E and F.
        let mut t = PriorityTree::new();
        t.declare(sid(1), spec(0, 16, false)).unwrap();
        t.declare(sid(3), spec(1, 16, false)).unwrap();
        t.declare(sid(5), spec(1, 16, false)).unwrap();
        t.declare(sid(7), spec(5, 16, false)).unwrap();
        t.declare(sid(9), spec(7, 16, false)).unwrap();
        t.declare(sid(11), spec(7, 16, false)).unwrap();

        t.declare(sid(1), spec(7, 16, true)).unwrap();
        assert_eq!(t.children_of(sid(7)), vec![sid(1)]);
        let mut a_children = t.children_of(sid(1));
        a_children.sort_by_key(|s| s.value());
        assert_eq!(a_children, vec![sid(3), sid(5), sid(9), sid(11)]);
    }

    #[test]
    fn only_a_node_declare_would_recreate_is_forgotten() {
        let mut t = PriorityTree::new();
        let default = PrioritySpec::default_spec();
        t.declare(sid(1), default).unwrap(); // default leaf
        t.declare(sid(3), spec(0, 99, false)).unwrap(); // other weight
        t.declare(sid(5), default).unwrap();
        t.declare(sid(7), spec(5, 16, false)).unwrap(); // 5 has a child
        t.declare(sid(9), default).unwrap();
        t.declare(sid(11), default).unwrap();
        // Two ready siblings: the loser keeps a nonzero credit.
        assert_eq!(t.next_stream(&[sid(9), sid(11)]), Some(sid(9)));
        for id in [1, 3, 5, 7, 9, 11] {
            t.forget_if_default(sid(id));
        }
        assert!(!t.contains(sid(1)));
        assert!([3, 5, 7, 9, 11].into_iter().all(|id| t.contains(sid(id))));
        // A forgotten id comes back exactly as it was.
        t.declare(sid(13), spec(1, 16, false)).unwrap();
        assert_eq!(t.parent_of(sid(1)), Some(sid(0)));
        assert_eq!(t.weight_of(sid(1)), Some(16));
    }
}

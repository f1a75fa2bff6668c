//! Property-based invariants for the priority dependency tree and the
//! flow-control windows.

use std::collections::BTreeMap;

use h2conn::{FlowWindow, PriorityTree, MAX_WINDOW};
use h2wire::{PrioritySpec, StreamId};
use proptest::prelude::*;

/// One random priority operation.
#[derive(Debug, Clone)]
enum Op {
    Declare {
        stream: u32,
        dep: u32,
        weight: u16,
        exclusive: bool,
    },
    Remove {
        stream: u32,
    },
}

fn arb_op(max_stream: u32) -> impl Strategy<Value = Op> {
    let ids = 0..max_stream;
    prop_oneof![
        4 => (1..max_stream, ids, 1u16..=256, any::<bool>()).prop_map(
            |(stream, dep, weight, exclusive)| Op::Declare {
                stream: stream * 2 + 1,
                dep: dep * 2 + 1,
                weight,
                exclusive,
            }
        ),
        1 => (1..max_stream).prop_map(|stream| Op::Remove { stream: stream * 2 + 1 }),
    ]
}

/// Walks the tree from every node to the root; a cycle would loop forever,
/// so bound the walk by the node count.
fn assert_tree_invariants(tree: &PriorityTree, streams: &[u32]) {
    for &s in streams {
        let sid = StreamId::new(s);
        if !tree.contains(sid) {
            continue;
        }
        // Acyclic: the parent chain reaches the root within len() hops.
        let mut cursor = sid;
        let mut hops = 0;
        while cursor != StreamId::CONNECTION {
            cursor = tree.parent_of(cursor).expect("parent exists");
            hops += 1;
            assert!(hops <= tree.len() + 1, "cycle detected via stream {s}");
        }
        // Parent/child link symmetry.
        let parent = tree.parent_of(sid).unwrap();
        assert!(
            tree.children_of(parent).contains(&sid),
            "stream {s} missing from its parent's child list"
        );
        // Weight bounds.
        let w = tree.weight_of(sid).unwrap();
        assert!((1..=256).contains(&w), "weight {w} out of range");
    }
}

/// The scheduler this crate shipped before the O(ready) one: a recursive
/// descent that looks at every stream in the tree. Structure and weights
/// are read from the tree under test; the smooth-WRR credits are the
/// oracle's own ledger, so a credit the library books differently shows
/// up as a diverging pick a few rounds later.
#[derive(Default)]
struct Oracle {
    credits: BTreeMap<u32, i64>,
}

impl Oracle {
    fn next_stream(&mut self, tree: &PriorityTree, ready: &[StreamId]) -> Option<StreamId> {
        self.pick(tree, StreamId::CONNECTION, ready)
    }

    fn pick(
        &mut self,
        tree: &PriorityTree,
        node: StreamId,
        ready: &[StreamId],
    ) -> Option<StreamId> {
        if node != StreamId::CONNECTION && ready.contains(&node) {
            return Some(node);
        }
        let eligible: Vec<StreamId> = tree
            .children_of(node)
            .into_iter()
            .filter(|&c| subtree_has_ready(tree, c, ready))
            .collect();
        let weight = |c: StreamId| i64::from(tree.weight_of(c).expect("child is in the tree"));
        let total: i64 = eligible.iter().map(|&c| weight(c)).sum();
        let mut winner = *eligible.first()?;
        let mut best = i64::MIN;
        for &c in &eligible {
            let credit = self.credits.entry(c.value()).or_insert(0);
            *credit += weight(c);
            if *credit > best || (*credit == best && c < winner) {
                best = *credit;
                winner = c;
            }
        }
        *self.credits.get_mut(&winner.value()).unwrap() -= total;
        self.pick(tree, winner, ready)
    }
}

fn subtree_has_ready(tree: &PriorityTree, node: StreamId, ready: &[StreamId]) -> bool {
    ready.contains(&node)
        || tree
            .children_of(node)
            .into_iter()
            .any(|c| subtree_has_ready(tree, c, ready))
}

/// Streams a differential case may call ready: every id `arb_op(16)` can
/// declare, plus four it never does (a pushed stream, ids past the range).
const CANDIDATES: [u32; 20] = [
    1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 2, 64, 99, 4_001,
];

fn ready_set(mask: u32) -> Vec<StreamId> {
    CANDIDATES
        .iter()
        .enumerate()
        .filter(|(bit, _)| (mask >> bit) & 1 == 1)
        .map(|(_, &id)| StreamId::new(id))
        .collect()
}

/// One step of a differential case: mutate the tree, or schedule once.
#[derive(Debug, Clone)]
enum Step {
    Mutate(Op),
    Pick { mask: u32 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => arb_op(16).prop_map(Step::Mutate),
        // Depending on the root itself, which `arb_op` never draws.
        1 => (1u32..16, 1u16..=256, any::<bool>()).prop_map(|(stream, weight, exclusive)| {
            Step::Mutate(Op::Declare { stream: stream * 2 + 1, dep: 0, weight, exclusive })
        }),
        2 => any::<u32>().prop_map(|mask| Step::Pick { mask }),
    ]
}

proptest! {
    /// Arbitrary interleavings of declare/remove never produce cycles,
    /// broken parent links, or out-of-range weights.
    #[test]
    fn priority_tree_stays_consistent(ops in prop::collection::vec(arb_op(24), 1..60)) {
        let mut tree = PriorityTree::new();
        let mut touched = Vec::new();
        for op in ops {
            match op {
                Op::Declare { stream, dep, weight, exclusive } => {
                    let spec = PrioritySpec {
                        exclusive,
                        dependency: StreamId::new(dep),
                        weight,
                    };
                    let result = tree.declare(StreamId::new(stream), spec);
                    if stream == dep {
                        prop_assert!(result.is_err(), "self-dependency must be reported");
                    } else {
                        prop_assert!(result.is_ok());
                    }
                    touched.push(stream);
                    touched.push(dep);
                }
                Op::Remove { stream } => {
                    tree.remove(StreamId::new(stream));
                }
            }
            assert_tree_invariants(&tree, &touched);
        }
    }

    /// The scheduler always returns a ready stream when one exists, and
    /// never returns a stream that is not ready.
    #[test]
    fn scheduler_soundness(
        ops in prop::collection::vec(arb_op(16), 1..40),
        ready_mask in any::<u32>(),
    ) {
        let mut tree = PriorityTree::new();
        for op in ops {
            if let Op::Declare { stream, dep, weight, exclusive } = op {
                let _ = tree.declare(
                    StreamId::new(stream),
                    PrioritySpec { exclusive, dependency: StreamId::new(dep), weight },
                );
            }
        }
        let ready: Vec<StreamId> = (1..64)
            .step_by(2)
            .filter(|&v| (ready_mask >> (v % 32)) & 1 == 1)
            .map(StreamId::new)
            .filter(|&s| tree.contains(s))
            .collect();
        match tree.next_stream(&ready) {
            Some(s) => prop_assert!(
                ready.contains(&s),
                "scheduler returned a non-ready stream"
            ),
            None => prop_assert!(ready.is_empty(), "scheduler starved a ready stream"),
        }
    }

    /// A ready ancestor is always scheduled before its ready descendants.
    #[test]
    fn parent_precedes_descendants(depth in 2usize..10) {
        let mut tree = PriorityTree::new();
        // A chain 1 <- 3 <- 5 <- ...
        let ids: Vec<u32> = (0..depth as u32).map(|i| i * 2 + 1).collect();
        for w in ids.windows(2) {
            tree.declare(
                StreamId::new(w[1]),
                PrioritySpec { exclusive: false, dependency: StreamId::new(w[0]), weight: 16 },
            ).unwrap();
        }
        let ready: Vec<StreamId> = ids.iter().copied().map(StreamId::new).collect();
        let first = tree.next_stream(&ready).unwrap();
        prop_assert_eq!(first.value(), ids[0], "chain head served first");
    }

    /// The O(ready) scheduler and the recursive one it replaced pick the
    /// same stream every time: over random declare/exclusive/remove
    /// sequences with picks in between, then 40 consecutive picks on one
    /// ready set (so the WRR credits, not just the first pick, agree) —
    /// ready ids absent from the tree included, with and without 1,000
    /// closed streams left hanging off the root.
    #[test]
    fn scheduler_matches_the_recursive_oracle(
        steps in prop::collection::vec(arb_step(), 1..60),
        crowded in any::<bool>(),
        final_mask in any::<u32>(),
    ) {
        let mut tree = PriorityTree::new();
        if crowded {
            for closed in 0..1_000u32 {
                tree.declare(StreamId::new(1_001 + 2 * closed), PrioritySpec::default_spec()).unwrap();
            }
        }
        let mut oracle = Oracle::default();
        let picks = std::iter::repeat_n(Step::Pick { mask: final_mask }, 40);
        for step in steps.into_iter().chain(picks) {
            match step {
                Step::Mutate(Op::Declare { stream, dep, weight, exclusive }) => {
                    let _ = tree.declare(
                        StreamId::new(stream),
                        PrioritySpec { exclusive, dependency: StreamId::new(dep), weight },
                    );
                }
                Step::Mutate(Op::Remove { stream }) => {
                    tree.remove(StreamId::new(stream));
                    oracle.credits.remove(&stream);
                }
                Step::Pick { mask } => {
                    let ready = ready_set(mask);
                    let expected = oracle.next_stream(&tree, &ready);
                    prop_assert_eq!(tree.next_stream(&ready), expected, "ready {:?}", ready);
                }
            }
        }
    }

    /// Window consume/expand never exceeds MAX_WINDOW or loses octets.
    #[test]
    fn window_accounting_is_exact(
        initial in 0u32..=0x7fff_ffff,
        ops in prop::collection::vec((any::<bool>(), 0u32..100_000), 0..100),
    ) {
        let mut w = FlowWindow::new(initial);
        let mut model = i64::from(initial);
        for (grow, n) in ops {
            if grow {
                if model + i64::from(n) <= MAX_WINDOW {
                    w.expand(n).unwrap();
                    model += i64::from(n);
                } else {
                    prop_assert!(w.expand(n).is_err());
                }
            } else if i64::from(n) <= model {
                w.consume(n).unwrap();
                model -= i64::from(n);
            } else {
                prop_assert!(w.consume(n).is_err());
            }
            prop_assert_eq!(w.available(), model);
        }
    }
}

//! Lock acquisition-order lint (Layer 2c).
//!
//! A deadlock needs two locks acquired in opposite orders on two
//! threads; this lint extracts a conservative acquisition graph from the
//! token stream of every crate (a list of "the modules that lock" goes
//! stale; a file that holds no lock costs one pass over its tokens) and
//! fails on any cycle.
//!
//! Model (heuristic, token-level — documented limits):
//!
//! - An acquisition is `<chain>.lock(...)` or `<chain>.try_lock(...)`;
//!   the lock's identity is the last *field or variable* name in the
//!   chain (methods in between are skipped), so `self.traces.lock()`
//!   and `shared.traces.lock()` are the same lock `traces`.
//! - A guard bound with `let g = <chain>.lock()...;` is held until
//!   `drop(g)` or the end of its enclosing block; a chained use
//!   (`x.lock().unwrap().push(...)`) is transient and holds nothing.
//! - While any lock is held, each further acquisition adds a
//!   `held -> acquired` edge. Edges merge across functions and files by
//!   lock name; a cycle in the merged graph is an error.

#![allow(
    clippy::indexing_slicing,
    reason = "token indices come from enumerate/loop bounds over `sf.tokens`; `in_test` has the same length by construction"
)]

use crate::lexer::{SourceFile, Tok};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One `held -> acquired` observation with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub held: String,
    /// Lock acquired while `held` was held.
    pub acquired: String,
    /// File of the acquisition.
    pub file: String,
    /// Line of the acquisition.
    pub line: usize,
}

struct Held {
    name: String,
    depth: i32,
    guard: Option<String>,
}

/// Extracts acquisition-order edges from one file (non-test code).
pub fn collect(file: &str, sf: &SourceFile) -> Vec<LockEdge> {
    let mut edges = Vec::new();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    for i in 0..sf.tokens.len() {
        if sf.in_test[i] {
            continue;
        }
        match &sf.tokens[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            Tok::Ident(name) if name == "fn" => held.clear(),
            Tok::Ident(name)
                if (name == "lock" || name == "try_lock")
                    && i > 0
                    && sf.punct_at(i - 1, '.')
                    && sf.punct_at(i + 1, '(') =>
            {
                let Some(target) = chain_target(sf, i - 2) else {
                    continue;
                };
                for h in &held {
                    if h.name != target {
                        edges.push(LockEdge {
                            held: h.name.clone(),
                            acquired: target.clone(),
                            file: file.to_string(),
                            line: sf.tokens[i].line,
                        });
                    }
                }
                if let Some(guard) = binding_guard(sf, i) {
                    held.push(Held {
                        name: target,
                        depth,
                        guard: Some(guard),
                    });
                }
            }
            Tok::Ident(name) if name == "drop" && sf.punct_at(i + 1, '(') => {
                if let Some(g) = sf.ident_at(i + 2) {
                    if sf.punct_at(i + 3, ')') {
                        held.retain(|h| h.guard.as_deref() != Some(g));
                    }
                }
            }
            _ => {}
        }
    }
    edges
}

/// The last field/variable name of the method chain ending at token
/// index `j` (the token just before the `.` of `.lock`).
fn chain_target(sf: &SourceFile, mut j: usize) -> Option<String> {
    loop {
        match sf.tokens.get(j).map(|t| &t.tok) {
            Some(Tok::Punct(')')) => {
                // Skip back over a call's argument list to its `(`.
                let mut depth = 0i32;
                loop {
                    match sf.tokens.get(j).map(|t| &t.tok) {
                        Some(Tok::Punct(')')) => depth += 1,
                        Some(Tok::Punct('(')) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        None => return None,
                        _ => {}
                    }
                    j = j.checked_sub(1)?;
                }
                j = j.checked_sub(1)?;
            }
            Some(Tok::Ident(name)) => {
                if sf.punct_at(j + 1, '(') {
                    // A method name: skip it and the `.` before it.
                    if j < 2 || !sf.punct_at(j - 1, '.') {
                        return Some(name.clone());
                    }
                    j -= 2;
                } else {
                    return Some(name.clone());
                }
            }
            _ => return None,
        }
    }
}

/// The `let` binding receiving the expression containing token
/// `lock_idx`, if the statement has the shape `let [mut] g = ...`.
fn binding_guard(sf: &SourceFile, lock_idx: usize) -> Option<String> {
    let mut j = lock_idx;
    while j > 0 {
        match &sf.tokens[j - 1].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            _ => j -= 1,
        }
    }
    if sf.ident_at(j) != Some("let") {
        return None;
    }
    let mut k = j + 1;
    if sf.ident_at(k) == Some("mut") {
        k += 1;
    }
    let name = sf.ident_at(k)?;
    if sf.punct_at(k + 1, '=') {
        Some(name.to_string())
    } else {
        None
    }
}

/// Detects cycles in the merged acquisition graph; one finding per
/// distinct back edge.
pub fn cycles(edges: &[LockEdge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut provenance: BTreeMap<(&str, &str), (&str, usize)> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
        adj.entry(&e.acquired).or_default();
        provenance
            .entry((&e.held, &e.acquired))
            .or_insert((&e.file, e.line));
    }
    let mut findings = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for root in nodes {
        if done.contains(root) {
            continue;
        }
        // Iterative DFS with an explicit path for cycle reconstruction.
        let mut path: Vec<&str> = vec![root];
        let mut iters = vec![adj[root].iter()];
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        on_path.insert(root);
        while let Some(it) = iters.last_mut() {
            match it.next() {
                Some(&next) => {
                    if on_path.contains(next) {
                        let start = path.iter().position(|n| *n == next).unwrap_or(0);
                        let mut cycle: Vec<&str> = path[start..].to_vec();
                        cycle.push(next);
                        let closing = (*path.last().unwrap_or(&root), next);
                        let (file, line) = provenance
                            .get(&closing)
                            .copied()
                            .unwrap_or(("<unknown>", 0));
                        findings.push(Finding {
                            kind: "lockorder",
                            file: file.to_string(),
                            line,
                            message: format!("lock acquisition cycle: {}", cycle.join(" -> ")),
                        });
                    } else if !done.contains(next) {
                        path.push(next);
                        on_path.insert(next);
                        iters.push(adj[next].iter());
                    }
                }
                None => {
                    let finished = path.pop().unwrap_or(root);
                    on_path.remove(finished);
                    done.insert(finished);
                    iters.pop();
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn edges_of(src: &str) -> Vec<(String, String)> {
        collect("x.rs", &lex(src))
            .into_iter()
            .map(|e| (e.held, e.acquired))
            .collect()
    }

    #[test]
    fn nested_bound_guards_produce_an_edge() {
        let src = "fn f(&self) { let a = self.traces.lock().unwrap(); let b = self.ring.lock().unwrap(); }";
        assert_eq!(
            edges_of(src),
            vec![("traces".to_string(), "ring".to_string())]
        );
    }

    #[test]
    fn chained_transient_lock_holds_nothing() {
        let src =
            "fn f(&self) { self.traces.lock().unwrap().push(1); self.ring.lock().unwrap().pop(); }";
        assert!(edges_of(src).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(&self) { let a = self.x.lock().unwrap(); drop(a); let b = self.y.lock().unwrap(); }";
        assert!(edges_of(src).is_empty());
    }

    #[test]
    fn block_end_releases_the_guard() {
        let src =
            "fn f(&self) { { let a = self.x.lock().unwrap(); } let b = self.y.lock().unwrap(); }";
        assert!(edges_of(src).is_empty());
    }

    #[test]
    fn chain_through_as_ref_finds_the_field() {
        let src = "fn f(&self) { let a = self.x.lock().unwrap(); let b = self.ring.as_ref().expect(\"set\").lock().unwrap(); }";
        assert_eq!(edges_of(src), vec![("x".to_string(), "ring".to_string())]);
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let src =
            "fn a(&self) { let g = self.x.lock().unwrap(); let h = self.y.lock().unwrap(); }\n\
                   fn b(&self) { let h = self.y.lock().unwrap(); let g = self.x.lock().unwrap(); }";
        let edges = collect("x.rs", &lex(src));
        let findings = cycles(&edges);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("x -> y -> x")
                || findings[0].message.contains("y -> x -> y")
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src =
            "fn a(&self) { let g = self.x.lock().unwrap(); let h = self.y.lock().unwrap(); }\n\
                   fn b(&self) { let g = self.x.lock().unwrap(); let h = self.y.lock().unwrap(); }";
        let edges = collect("x.rs", &lex(src));
        assert!(cycles(&edges).is_empty());
    }
}

//! Deterministic-iteration lint (kind `detiter`).
//!
//! `HashMap`/`HashSet` iteration order depends on the hasher's seed and
//! the insertion history, so anything that *emits* in iteration order
//! (report rows, record lines, response bytes) silently breaks the
//! byte-identical determinism the scan/resume/serve suites pin. This
//! lint tracks every binding in a file whose type or initializer is a
//! hash container and errors on iterating it:
//!
//! - `.iter()` / `.iter_mut()` / `.keys()` / `.values()` /
//!   `.values_mut()` / `.drain()` / `.into_iter()` / `.into_keys()` /
//!   `.into_values()`
//! - `for … in &map` / `for … in map`
//!
//! unless the same statement consumes the iterator with an
//! order-insensitive terminal (`sum`, `count`, `min`, `max`, `all`,
//! `any` — folds whose result does not depend on visit order).
//! Point lookups (`get`, `contains_key`, `insert`, …) are not
//! iteration and are never flagged.
//!
//! The tracker is file-local and name-based — deliberately heuristic,
//! like every lint in this suite: a hash container iterated in a
//! different file from its declaration is out of reach, but every
//! container in this workspace is iterated where it lives.

use crate::lexer::{SourceFile, Tok};
use crate::report::Finding;

use super::chain_receiver;

/// Hash-ordered container type names.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that yield the container's elements in hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain terminals whose result is independent of visit order (`min`/
/// `max` rely on set/key uniqueness making the extremum unique).
const ORDER_FREE: &[&str] = &["sum", "count", "min", "max", "all", "any"];

/// `true` when a path starting at token `j` names a hash container
/// (`HashMap`, `std::collections::HashSet`, …), looking through leading
/// `&`, `mut` and lifetimes. The container must be the *outermost*
/// type: `Vec<HashSet<u32>>` does not bind.
fn path_is_hash_type(sf: &SourceFile, mut j: usize) -> bool {
    loop {
        if sf.punct_at(j, '&')
            || sf.ident_at(j) == Some("mut")
            || matches!(sf.tokens.get(j).map(|t| &t.tok), Some(Tok::Lifetime))
        {
            j += 1;
        } else {
            break;
        }
    }
    while let Some(seg) = sf.ident_at(j) {
        if HASH_TYPES.contains(&seg) {
            return true;
        }
        if sf.punct_at(j + 1, ':') && sf.punct_at(j + 2, ':') {
            j += 3;
        } else {
            return false;
        }
    }
    false
}

/// Every name bound to a hash container in this file, via a type
/// annotation / struct field (`name: HashMap<…>`), a struct-literal
/// field (`name: HashMap::new()`), or a `let` initializer
/// (`let mut name = HashSet::with_capacity(…)`).
fn hash_bindings(sf: &SourceFile) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..sf.tokens.len() {
        if let Some(name) = sf.ident_at(i) {
            let colon = sf.punct_at(i + 1, ':')
                && !sf.punct_at(i + 2, ':')
                && !(i > 0 && sf.punct_at(i - 1, ':'));
            if colon && path_is_hash_type(sf, i + 2) && !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
        if sf.ident_at(i) == Some("let") {
            let mut j = i + 1;
            if sf.ident_at(j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = sf.ident_at(j) {
                if sf.punct_at(j + 1, '=')
                    && path_is_hash_type(sf, j + 2)
                    && !names.iter().any(|n| n == name)
                {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

/// `true` when the method chain continuing after the call opened at
/// token `open` (the `(` of the flagged method) ends in an order-free
/// consumer within the same statement.
fn chain_is_order_free(sf: &SourceFile, open: usize) -> bool {
    let mut j = skip_balanced(sf, open);
    loop {
        if !sf.punct_at(j, '.') {
            return false;
        }
        let Some(method) = sf.ident_at(j + 1) else {
            return false;
        };
        if ORDER_FREE.contains(&method) {
            return true;
        }
        let mut k = j + 2;
        // Allow a turbofish: `.collect::<Vec<_>>(…)`.
        if sf.punct_at(k, ':') && sf.punct_at(k + 1, ':') && sf.punct_at(k + 2, '<') {
            let mut depth = 0i32;
            while k < sf.tokens.len() {
                if sf.punct_at(k, '<') {
                    depth += 1;
                } else if sf.punct_at(k, '>') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        if !sf.punct_at(k, '(') {
            return false;
        }
        j = skip_balanced(sf, k);
    }
}

/// Index just past the `(…)` group opening at `open`.
fn skip_balanced(sf: &SourceFile, open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < sf.tokens.len() {
        if sf.punct_at(j, '(') {
            depth += 1;
        } else if sf.punct_at(j, ')') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Runs the lint over one file.
pub fn check(file: &str, sf: &SourceFile, findings: &mut Vec<Finding>) {
    let mut emit = |line: usize, message: String| {
        findings.push(Finding {
            kind: "detiter",
            file: file.to_string(),
            line,
            message,
        });
    };
    let names = hash_bindings(sf);
    if names.is_empty() {
        return;
    }
    for i in 0..sf.tokens.len() {
        if sf.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        // receiver.iter_method(…)
        if let Some(method) = sf.ident_at(i) {
            if ITER_METHODS.contains(&method)
                && i >= 2
                && sf.punct_at(i - 1, '.')
                && sf.punct_at(i + 1, '(')
            {
                if let Some(recv) = chain_receiver(sf, i - 2) {
                    if names.contains(&recv) && !chain_is_order_free(sf, i + 1) {
                        let line = sf.tokens.get(i).map_or(1, |t| t.line);
                        emit(
                            line,
                            format!(
                                "`{recv}.{method}()` iterates in hash order; use a \
                                 BTreeMap/BTreeSet or sort the output"
                            ),
                        );
                    }
                }
            }
        }
        // for pat in [&][mut] name { … }
        if sf.ident_at(i) == Some("for") {
            let mut j = i + 1;
            let stop = (i + 24).min(sf.tokens.len());
            while j < stop && sf.ident_at(j) != Some("in") && !sf.punct_at(j, '{') {
                j += 1;
            }
            if sf.ident_at(j) != Some("in") {
                continue;
            }
            let mut k = j + 1;
            while sf.punct_at(k, '&') || sf.ident_at(k) == Some("mut") {
                k += 1;
            }
            // Walk a field path (`s.counts`), keeping the last segment.
            let mut name_at = k;
            while sf.ident_at(name_at).is_some()
                && sf.punct_at(name_at + 1, '.')
                && sf.ident_at(name_at + 2).is_some()
            {
                name_at += 2;
            }
            k = name_at;
            if let Some(name) = sf.ident_at(k) {
                if sf.punct_at(k + 1, '{') && names.iter().any(|n| n == name) {
                    let line = sf.tokens.get(k).map_or(1, |t| t.line);
                    emit(
                        line,
                        format!(
                            "`for … in {name}` visits a hash container in hash order; \
                             use a BTreeMap/BTreeSet or sort first"
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        check("t.rs", &lex(src), &mut findings);
        findings
    }

    #[test]
    fn flags_iteration_over_annotated_map() {
        let src = "struct S { counts: HashMap<String, u32> }\n\
                   fn f(s: &S) { for (k, v) in &s.counts { emit(k, v); } }\n\
                   fn g(s: &S) { let v: Vec<_> = s.counts.iter().collect(); }";
        let findings = run(src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.kind == "detiter"));
    }

    #[test]
    fn flags_let_bound_set_drain() {
        let src = "fn f() { let mut seen = HashSet::new(); seen.drain().for_each(drop); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn order_free_consumers_pass() {
        let src = "fn f(m: &HashMap<u32, u64>) -> u64 { m.values().map(|&v| v).sum() }\n\
                   fn g(s: &HashSet<u32>) -> Option<&u32> { s.iter().min() }\n\
                   fn h(m: &HashMap<u32, u64>) -> bool { m.keys().all(|k| *k > 0) }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn lookups_and_btreemaps_pass() {
        let src = "fn f(m: &HashMap<u32, u64>, b: &BTreeMap<u32, u64>) -> Option<u64> {\n\
                   let _ = b.iter().count(); for (k, v) in b { emit(k, v); }\n\
                   m.get(&1).copied() }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn vec_of_sets_does_not_bind_the_vec() {
        let src = "fn f(pending: &Vec<HashSet<u32>>) { for set in pending { use_(set); } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)] mod t { fn f(m: &HashMap<u32, u64>) { for x in m { use_(x); } } }";
        assert!(run(src).is_empty());
    }
}

//! Atomic-ordering registry scanner (kind `atomics`).
//!
//! Collects, from every workspace source file, (a) each declaration
//! whose type mentions an `Atomic*` (struct fields, `let` bindings,
//! parameters) and (b) each `Ordering::<X>` passed to an atomic
//! operation, attributed to the receiving field/binding by a
//! bracket-aware method-chain walk (`self.buckets[i].fetch_add(…)`
//! attributes to `buckets`). [`check_registry`] then compares both sets
//! against [`crate::spec::atomics::ATOMIC_REGISTRY`]:
//!
//! - a declaration or use with no registry row is an error (every
//!   atomic must state its invariant);
//! - an ordering outside the row's allowed set is an error;
//! - a registry row matching no declaration and no use is stale.
//!
//! Test code is exempt (tests may improvise counters); `compat/` never
//! enters the scan because the workspace walker only visits
//! `crates/*/src`.

use std::collections::BTreeSet;

use crate::lexer::SourceFile;
use crate::report::Finding;
use crate::spec::atomics::{atomic_decl, ATOMIC_REGISTRY};

use super::chain_receiver;

/// The memory orderings of `std::sync::atomic::Ordering`; anything
/// else after `Ordering::` (e.g. `cmp::Ordering::Less`) is not an
/// atomic use.
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One collected site.
pub struct AtomicSite {
    /// Crate the site lives in.
    pub krate: String,
    /// Attributed field/binding name.
    pub name: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// `Some(ordering)` for an `Ordering::<X>` use, `None` for a
    /// declaration.
    pub ordering: Option<String>,
}

/// The `std::sync::atomic` type names; matching these exactly keeps
/// workspace types that merely start with `Atomic` (e.g. this lint's
/// own `AtomicSite`) from binding declarations.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// `true` when the token run from `j` up to the next top-level
/// terminator mentions a std atomic type (depth-aware, so the `;` in
/// `[AtomicU64; 65]` does not terminate). A `{` at any depth ends the
/// scan: type annotations never contain braces, and crossing one would
/// walk into a nested struct-literal body
/// (`site: Arc::new(SiteCtx { probe: AtomicU8::new(0), … })` must not
/// bind `site`).
fn mentions_atomic_type(sf: &SourceFile, j: usize) -> bool {
    let mut depth = 0i32;
    for k in j..(j + 24).min(sf.tokens.len()) {
        if sf.punct_at(k, '<') || sf.punct_at(k, '[') || sf.punct_at(k, '(') {
            depth += 1;
        } else if sf.punct_at(k, '>') || sf.punct_at(k, ']') || sf.punct_at(k, ')') {
            if depth == 0 {
                return false;
            }
            depth -= 1;
        } else if sf.punct_at(k, '{')
            || (depth == 0 && (sf.punct_at(k, ',') || sf.punct_at(k, ';')))
        {
            return false;
        } else if sf.ident_at(k).is_some_and(|id| ATOMIC_TYPES.contains(&id)) {
            return true;
        }
    }
    false
}

/// Collects every atomic declaration and ordering-use site in `sf`.
pub fn collect(krate: &str, rel: &str, sf: &SourceFile) -> Vec<AtomicSite> {
    let mut sites = Vec::new();
    for i in 0..sf.tokens.len() {
        if sf.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        // Declarations: `name: …Atomic…` (fields, params, struct
        // literals) and `let [mut] name = …Atomic…`.
        if let Some(name) = sf.ident_at(i) {
            if sf.punct_at(i + 1, ':')
                && !sf.punct_at(i + 2, ':')
                && !(i > 0 && sf.punct_at(i - 1, ':'))
                && mentions_atomic_type(sf, i + 2)
            {
                sites.push(AtomicSite {
                    krate: krate.to_string(),
                    name: name.to_string(),
                    file: rel.to_string(),
                    line: sf.tokens.get(i).map_or(1, |t| t.line),
                    ordering: None,
                });
            }
        }
        if sf.ident_at(i) == Some("let") {
            let mut j = i + 1;
            if sf.ident_at(j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = sf.ident_at(j) {
                if sf.punct_at(j + 1, '=') && mentions_atomic_type(sf, j + 2) {
                    sites.push(AtomicSite {
                        krate: krate.to_string(),
                        name: name.to_string(),
                        file: rel.to_string(),
                        line: sf.tokens.get(j).map_or(1, |t| t.line),
                        ordering: None,
                    });
                }
            }
        }
        // Uses: `Ordering::<memory ordering>` inside a method call.
        if sf.ident_at(i) == Some("Ordering") && sf.punct_at(i + 1, ':') && sf.punct_at(i + 2, ':')
        {
            let Some(ordering) = sf.ident_at(i + 3) else {
                continue;
            };
            if !MEMORY_ORDERINGS.contains(&ordering) {
                continue;
            }
            let line = sf.tokens.get(i).map_or(1, |t| t.line);
            let name = receiver_of_call(sf, i).unwrap_or_else(|| "<unattributed>".to_string());
            sites.push(AtomicSite {
                krate: krate.to_string(),
                name,
                file: rel.to_string(),
                line,
                ordering: Some(ordering.to_string()),
            });
        }
    }
    sites
}

/// The receiver of the method call enclosing token `i`: walk back to
/// the unmatched `(`, expect `.method` before it, then resolve the
/// chain target (skipping index `[…]` groups and call `(…)` groups).
fn receiver_of_call(sf: &SourceFile, i: usize) -> Option<String> {
    let mut parens = 0i32;
    let mut brackets = 0i32;
    let mut k = i;
    let open = loop {
        k = k.checked_sub(1)?;
        if sf.punct_at(k, ')') {
            parens += 1;
        } else if sf.punct_at(k, '(') {
            if parens == 0 {
                break k;
            }
            parens -= 1;
        } else if sf.punct_at(k, ']') {
            brackets += 1;
        } else if sf.punct_at(k, '[') {
            if brackets == 0 {
                return None;
            }
            brackets -= 1;
        } else if sf.punct_at(k, ';') || sf.punct_at(k, '{') {
            return None;
        }
    };
    let method = sf.ident_at(open.checked_sub(1)?)?;
    if open >= 2 && sf.punct_at(open - 2, '.') {
        chain_receiver(sf, open.checked_sub(3)?)
    } else {
        // A free/associated call taking an ordering; attribute to the
        // callee name so an unregistered use still surfaces.
        Some(method.to_string())
    }
}

/// Compares collected sites against the registry. Appends one finding
/// per violation; returns
/// `(uses_ok, uses_total, decls_ok, decls_total, stale_rows)`.
/// `workspace` enables the stale-row check (meaningless for a single
/// fixture file).
pub fn check_registry(
    sites: &[AtomicSite],
    workspace: bool,
    findings: &mut Vec<Finding>,
) -> (usize, usize, usize, usize, usize) {
    let mut uses_ok = 0;
    let mut uses_total = 0;
    for site in sites {
        let Some(ordering) = &site.ordering else {
            continue;
        };
        uses_total += 1;
        match atomic_decl(&site.krate, &site.name) {
            Some(decl) if decl.orderings.contains(&ordering.as_str()) => uses_ok += 1,
            Some(decl) => findings.push(Finding {
                kind: "atomics",
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "`{}::{}` uses Ordering::{ordering}, but the registry only sanctions \
                     [{}]; update ATOMIC_REGISTRY with a justifying invariant",
                    site.krate,
                    site.name,
                    decl.orderings.join(", ")
                ),
            }),
            None => findings.push(Finding {
                kind: "atomics",
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "atomic operation on undeclared `{}::{}`; add it to \
                     h2check::spec::atomics::ATOMIC_REGISTRY with its invariant",
                    site.krate, site.name
                ),
            }),
        }
    }
    let mut decls: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut decl_site: Vec<(&str, &str, &str, usize)> = Vec::new();
    for site in sites {
        if site.ordering.is_none() && decls.insert((&site.krate, &site.name)) {
            decl_site.push((&site.krate, &site.name, &site.file, site.line));
        }
    }
    let mut decls_ok = 0;
    for (krate, name, file, line) in &decl_site {
        if atomic_decl(krate, name).is_some() {
            decls_ok += 1;
        } else {
            findings.push(Finding {
                kind: "atomics",
                file: (*file).to_string(),
                line: *line,
                message: format!(
                    "atomic `{krate}::{name}` is declared but missing from \
                     h2check::spec::atomics::ATOMIC_REGISTRY"
                ),
            });
        }
    }
    let mut stale = 0;
    if workspace {
        for row in ATOMIC_REGISTRY {
            let live = sites
                .iter()
                .any(|s| s.krate == row.krate && s.name == row.name);
            if !live {
                stale += 1;
                findings.push(Finding {
                    kind: "atomics",
                    file: "crates/h2check/src/spec/atomics.rs".to_string(),
                    line: 1,
                    message: format!(
                        "stale registry row `{}::{}`: no declaration or use in the workspace",
                        row.krate, row.name
                    ),
                });
            }
        }
    }
    (uses_ok, uses_total, decls_ok, decls.len(), stale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sites_of(krate: &str, src: &str) -> Vec<AtomicSite> {
        collect(krate, "t.rs", &lex(src))
    }

    #[test]
    fn declarations_are_collected() {
        let src = "struct Q { next: AtomicU64, buckets: [AtomicU64; 65] }\n\
                   fn f(killed: &AtomicBool) { let flag = Arc::new(AtomicBool::new(false)); }";
        let sites = sites_of("bench", src);
        let decls: Vec<&str> = sites
            .iter()
            .filter(|s| s.ordering.is_none())
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(decls, ["next", "buckets", "killed", "flag"]);
    }

    #[test]
    fn uses_attribute_through_indexing_and_calls() {
        let src = "fn f(&self) {\n\
                   self.buckets[bucket].fetch_add(1, Ordering::Relaxed);\n\
                   self.slots[frame_slot(kind)].fetch_add(1, Ordering::Relaxed);\n\
                   self.next.compare_exchange_weak(a, b, Ordering::Relaxed, Ordering::Relaxed);\n\
                   }";
        let sites = sites_of("h2obs", src);
        let uses: Vec<(&str, &str)> = sites
            .iter()
            .filter_map(|s| s.ordering.as_deref().map(|o| (s.name.as_str(), o)))
            .collect();
        assert_eq!(
            uses,
            [
                ("buckets", "Relaxed"),
                ("slots", "Relaxed"),
                ("next", "Relaxed"),
                ("next", "Relaxed"),
            ]
        );
    }

    #[test]
    fn workspace_types_and_struct_literals_do_not_bind() {
        // `AtomicSite` is not a std atomic; a struct literal whose
        // fields hold atomics does not make the outer binding atomic.
        let src = "fn f(sites: &[AtomicSite]) {\n\
                   let ctx = Arc::new(SiteCtx { probe: AtomicU8::new(0) });\n\
                   }";
        let decls: Vec<String> = sites_of("h2check", src)
            .into_iter()
            .filter(|s| s.ordering.is_none())
            .map(|s| s.name)
            .collect();
        assert_eq!(decls, ["probe"]);
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let src = "fn f(a: &u32, b: &u32) -> cmp::Ordering { a.cmp(b).then(cmp::Ordering::Less) }";
        assert!(sites_of("bench", src).iter().all(|s| s.ordering.is_none()));
    }

    #[test]
    fn undeclared_use_is_an_error() {
        let sites = sites_of(
            "h2wire",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }",
        );
        let mut findings = Vec::new();
        let (uses_ok, uses, decls_ok, decls, _) = check_registry(&sites, false, &mut findings);
        assert_eq!((uses_ok, uses, decls_ok, decls), (0, 1, 0, 1));
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.kind == "atomics"));
    }

    #[test]
    fn sanctioned_use_passes() {
        let sites = sites_of(
            "bench",
            "struct Q { next: AtomicU64 }\n\
             fn f(q: &Q) { q.next.load(Ordering::Relaxed); }",
        );
        let mut findings = Vec::new();
        let (uses_ok, uses, decls_ok, decls, _) = check_registry(&sites, false, &mut findings);
        assert_eq!((uses_ok, uses, decls_ok, decls), (1, 1, 1, 1));
        assert!(findings.is_empty());
    }

    #[test]
    fn unsanctioned_ordering_is_an_error() {
        let sites = sites_of(
            "bench",
            "struct Q { next: AtomicU64 }\n\
             fn f(q: &Q) { q.next.load(Ordering::SeqCst); }",
        );
        let mut findings = Vec::new();
        check_registry(&sites, false, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SeqCst"));
    }
}

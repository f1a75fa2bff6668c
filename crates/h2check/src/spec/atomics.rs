//! Layer 3, part B2: the atomic-ordering registry.
//!
//! Every atomic in the workspace must be declared here with the memory
//! orderings it is allowed to use and a one-line invariant saying *why*
//! those orderings suffice. The [`crate::lints::atomics`] scanner
//! collects every `Atomic*` field declaration and every `Ordering::*`
//! use site and fails on anything this table does not sanction — an
//! undeclared atomic, an ordering outside the allowed set, or a stale
//! row whose atomic no longer exists. This turns the fold-at-snapshot
//! commutativity argument the scan and serve engines rely on (shard
//! counters are only ever `fetch_add`-ed by their owning worker and are
//! read after workers quiesce, so `Relaxed` is enough and totals are
//! thread-count-independent) into a checked artifact instead of a
//! comment.

/// One sanctioned atomic: where it lives, what orderings it may use,
/// and the invariant that justifies them.
pub struct AtomicDecl {
    /// Crate the atomic is declared in.
    pub krate: &'static str,
    /// Field or binding name (scanner attribution key within the crate).
    pub name: &'static str,
    /// Memory orderings its operations may pass.
    pub orderings: &'static [&'static str],
    /// Why those orderings are sufficient.
    pub invariant: &'static str,
}

/// Shorthand: the workspace's only sanctioned ordering today. Every
/// cross-thread protocol here is either a commutative fold read after
/// quiescence or a monotonic latch, none of which need acquire/release
/// edges (the `std::thread::join` barrier publishes everything).
const RELAXED: &[&str] = &["Relaxed"];

/// The registry. Keyed `(krate, name)`; a use site anywhere in the
/// crate's non-test code must resolve to a row here.
pub const ATOMIC_REGISTRY: &[AtomicDecl] = &[
    // -- bench: sweep's claim cursor and the scan's kill latch -------------
    AtomicDecl {
        krate: "bench",
        name: "next",
        orderings: RELAXED,
        invariant: "sweep's claim cursor, advanced only by fetch_add(1): each value is \
                    handed to exactly one worker, and results travel through the join",
    },
    AtomicDecl {
        krate: "bench",
        name: "killed",
        orderings: RELAXED,
        invariant: "monotonic false->true kill latch; workers only poll it for early exit",
    },
    // -- h2obs: campaign counters (MetricsRegistry) ------------------------
    AtomicDecl {
        krate: "h2obs",
        name: "bytes_to_server",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "bytes_to_client",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "hpack_evictions",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "conns_opened",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "retries",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "timeouts",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "resets",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "malformed",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "sites_finished",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "sites_resumed",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "lookups",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "cache_hits",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "cache_misses",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "bytes_served",
        orderings: RELAXED,
        invariant: "per-shard monotonic counter; fetch_add commutes, folded after quiesce",
    },
    // -- h2obs: per-site context (SiteCtx) ---------------------------------
    AtomicDecl {
        krate: "h2obs",
        name: "probe",
        orderings: RELAXED,
        invariant: "phase tag written and read only by the site's owning worker",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "nanos",
        orderings: RELAXED,
        invariant: "per-site latency accumulator touched only by the owning worker, \
                    folded into the histogram at finish_site",
    },
    // -- h2obs: histogram cells and frame counters -------------------------
    AtomicDecl {
        krate: "h2obs",
        name: "buckets",
        orderings: RELAXED,
        invariant: "histogram cells; fetch_add commutes, snapshot reads after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "count",
        orderings: RELAXED,
        invariant: "histogram sample count; fetch_add commutes, snapshot after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "sum",
        orderings: RELAXED,
        invariant: "histogram sample sum; fetch_add commutes, snapshot after quiesce",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "min",
        orderings: RELAXED,
        invariant: "lattice join via fetch_min: commutative and idempotent",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "max",
        orderings: RELAXED,
        invariant: "lattice join via fetch_max: commutative and idempotent",
    },
    AtomicDecl {
        krate: "h2obs",
        name: "slots",
        orderings: RELAXED,
        invariant: "per-frame-kind counters; fetch_add commutes, snapshot after quiesce",
    },
];

/// Looks up a registry row.
pub fn atomic_decl(krate: &str, name: &str) -> Option<&'static AtomicDecl> {
    ATOMIC_REGISTRY
        .iter()
        .find(|d| d.krate == krate && d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rows_are_unique_and_justified() {
        for (i, a) in ATOMIC_REGISTRY.iter().enumerate() {
            assert!(!a.invariant.is_empty(), "{}::{}", a.krate, a.name);
            assert!(!a.orderings.is_empty(), "{}::{}", a.krate, a.name);
            for b in &ATOMIC_REGISTRY[..i] {
                assert!(
                    !(a.krate == b.krate && a.name == b.name),
                    "duplicate row {}::{}",
                    a.krate,
                    a.name
                );
            }
        }
    }

    #[test]
    fn lookup_finds_rows() {
        assert!(atomic_decl("bench", "next").is_some());
        assert!(atomic_decl("h2obs", "min").is_some());
        assert!(atomic_decl("h2wire", "next").is_none());
    }
}

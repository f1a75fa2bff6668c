//! # h2campaign — persistent campaign store, crash resume, longitudinal diff
//!
//! The paper's wild-scan result is *longitudinal*: the same top-1M
//! population scanned in Jul 2016 and again in Jan 2017, compared
//! site-by-site. That only works if per-site scan records outlive the
//! scanning process. This crate is that durability layer:
//!
//! * [`record`] — the versioned (`h2campaign-v3`), append-only on-disk
//!   record: a schema header carrying the campaign seed, fault config
//!   and population hash, one compact line per scanned site with the
//!   full feature vector and [`h2scope::ProbeOutcome`] accounting, and a
//!   checksummed `end|` trailer written only on completion. Scan workers
//!   append and flush each row as it finishes, so a killed process loses
//!   at most its in-flight sites.
//! * Crash resume — a partial record (no trailer) identifies exactly
//!   which sites are already done; the scanner re-scans only the missing
//!   ones and [`finalize`] rewrites the canonical file. Because every
//!   row is a pure function of `(population, index)` and the final bytes
//!   are a pure function of `(meta, row set)`, a resumed campaign is
//!   **byte-identical** to an uninterrupted one, at any thread count.
//! * [`diff`] — the Jul→Jan comparison recomputed from two persisted
//!   records: adoption deltas, appeared/disappeared sites, per-site
//!   behavior transitions, server-family churn.
//!
//! Everything here is deterministic and wall-clock-free; the only
//! side effects are the record files themselves.

pub mod diff;
pub mod load;
pub mod record;

pub use diff::{
    diff_records, feature_counts, feature_names, fmt_count, render_diff, upscale, AdoptionDelta,
    CampaignDiff, Transition,
};
pub use load::{load_finalized, LoadError};
pub use record::{
    finalize, fnv1a, read, CampaignMeta, CampaignRow, RecordError, RecordWriter, StoredRecord,
    FNV_OFFSET, SCHEMA,
};

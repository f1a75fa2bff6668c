//! The one validated path from disk to in-memory reports.
//!
//! Every consumer of finalized campaign records — `repro diff`, the
//! `repro serve` query daemon's index loader, future analysis passes —
//! goes through [`load_finalized`]. It wraps [`crate::record::read`]
//! with the completeness check (a record must carry a verified `end|`
//! trailer before anything downstream may trust it) and classifies
//! failures into [`LoadError`], whose [`LoadError::exit_code`] gives
//! each corruption class its own process exit status:
//!
//! | code | class |
//! |------|-------|
//! | 2    | I/O failure or generally malformed content |
//! | 4    | record is unfinalized (no `end|` trailer) |
//! | 5    | torn tail: trailer present but rows were cut short |
//! | 6    | checksum mismatch: silent content corruption |
//!
//! The [`std::fmt::Display`] form is a single line, ready for stderr.

use std::path::Path;

use crate::record::{read, RecordError, StoredRecord};

/// Why a record could not be loaded for analysis or serving.
#[derive(Debug)]
pub enum LoadError {
    /// The record parses but has no verified `end|` trailer: the
    /// campaign that wrote it never completed (crash or kill). Finish
    /// it with `--resume` before analyzing or serving it.
    Unfinalized {
        /// The offending record path.
        path: String,
        /// Rows recovered from the partial record.
        rows: u64,
    },
    /// The record claims completion but its rows were cut short
    /// ([`RecordError::Torn`]).
    Torn {
        /// The offending record path.
        path: String,
        /// The underlying record error (always [`RecordError::Torn`]).
        source: RecordError,
    },
    /// The trailer checksum does not cover the rows on disk
    /// ([`RecordError::Checksum`]).
    Checksum {
        /// The offending record path.
        path: String,
        /// The underlying record error (always [`RecordError::Checksum`]).
        source: RecordError,
    },
    /// Anything else: filesystem failure or generally malformed content.
    Unreadable {
        /// The offending record path.
        path: String,
        /// The underlying record error.
        source: RecordError,
    },
}

impl LoadError {
    /// The process exit status this failure class maps to. Distinct per
    /// class so scripts (and the CI fixtures job) can tell a truncated
    /// record from a corrupted one without parsing stderr.
    pub fn exit_code(&self) -> i32 {
        match self {
            LoadError::Unreadable { .. } => 2,
            LoadError::Unfinalized { .. } => 4,
            LoadError::Torn { .. } => 5,
            LoadError::Checksum { .. } => 6,
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Unfinalized { path, rows } => write!(
                f,
                "{path}: unfinalized record ({rows} rows, no end| trailer); \
                 finish the campaign with --resume first"
            ),
            // An Io source already leads with the path; don't prefix it twice.
            LoadError::Unreadable { path: _, source }
                if matches!(source, RecordError::Io { .. }) =>
            {
                write!(f, "{source}")
            }
            LoadError::Torn { path, source }
            | LoadError::Checksum { path, source }
            | LoadError::Unreadable { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Loads a record and requires it to be finalized: the only approved
/// way to get a [`StoredRecord`] for analysis or serving.
///
/// # Errors
///
/// [`LoadError`], classified per corruption class (see module docs).
pub fn load_finalized(path: &Path) -> Result<StoredRecord, LoadError> {
    let shown = path.display().to_string();
    match read(path) {
        Ok(record) if record.finalized => Ok(record),
        Ok(partial) => Err(LoadError::Unfinalized {
            path: shown,
            rows: partial.rows.len() as u64,
        }),
        Err(source @ RecordError::Torn { .. }) => Err(LoadError::Torn {
            path: shown,
            source,
        }),
        Err(source @ RecordError::Checksum { .. }) => Err(LoadError::Checksum {
            path: shown,
            source,
        }),
        Err(source) => Err(LoadError::Unreadable {
            path: shown,
            source,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{finalize, CampaignMeta, CampaignRow, RecordWriter};
    use webpop::{ExperimentSpec, Population};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("h2campaign-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn fixture_rows() -> (CampaignMeta, Vec<CampaignRow>) {
        let population = Population::new(ExperimentSpec::first(), 0.0002);
        let scope = h2scope::H2Scope::new();
        let rows: Vec<CampaignRow> = (0..population.h2_count().min(3))
            .map(|i| {
                let site = population.site(i);
                CampaignRow {
                    index: i,
                    family: site.family,
                    report: scope.survey(&site.target()),
                }
            })
            .collect();
        let mut meta = CampaignMeta::describe(&population, "none", 0);
        meta.sites = rows.len() as u64;
        (meta, rows)
    }

    #[test]
    fn loads_a_finalized_record() {
        let (meta, rows) = fixture_rows();
        let path = temp_path("good.h2c");
        finalize(&path, &meta, &rows).expect("finalize");
        let stored = load_finalized(&path).expect("loads");
        assert!(stored.finalized);
        assert_eq!(stored.rows.len(), rows.len());
    }

    #[test]
    fn unfinalized_record_is_exit_code_4() {
        let (meta, rows) = fixture_rows();
        let path = temp_path("partial.h2c");
        let writer = RecordWriter::create(&path, &meta).expect("create");
        for row in &rows {
            writer.append(row).expect("append");
        }
        let err = load_finalized(&path).expect_err("partial must not serve");
        assert!(matches!(err, LoadError::Unfinalized { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("unfinalized"), "{err}");
        assert_eq!(err.to_string().lines().count(), 1, "one-line diagnosis");
    }

    #[test]
    fn torn_tail_is_exit_code_5() {
        let (meta, rows) = fixture_rows();
        let path = temp_path("torn.h2c");
        finalize(&path, &meta, &rows).expect("finalize");
        let good = std::fs::read_to_string(&path).expect("read");
        // Drop a row line: the trailer now over-promises.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.remove(2);
        let mut bad = lines.join("\n");
        bad.push('\n');
        std::fs::write(&path, bad).expect("write");
        let err = load_finalized(&path).expect_err("torn must not serve");
        assert!(matches!(err, LoadError::Torn { .. }), "{err}");
        assert_eq!(err.exit_code(), 5);
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(err.to_string().lines().count(), 1, "one-line diagnosis");
    }

    #[test]
    fn checksum_mismatch_is_exit_code_6() {
        let (meta, rows) = fixture_rows();
        let path = temp_path("corrupt.h2c");
        finalize(&path, &meta, &rows).expect("finalize");
        let good = std::fs::read_to_string(&path).expect("read");
        let bad = good.replacen("alpn=1", "alpn=0", 1);
        assert_ne!(good, bad, "fixture must actually change");
        std::fs::write(&path, bad).expect("write");
        let err = load_finalized(&path).expect_err("corruption must not serve");
        assert!(matches!(err, LoadError::Checksum { .. }), "{err}");
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(err.to_string().lines().count(), 1, "one-line diagnosis");
    }

    #[test]
    fn unreadable_record_is_exit_code_2() {
        let path = temp_path("does-not-exist.h2c");
        let _ = std::fs::remove_file(&path);
        let err = load_finalized(&path).expect_err("missing file");
        assert!(matches!(err, LoadError::Unreadable { .. }), "{err}");
        assert_eq!(err.exit_code(), 2);

        let garbled = temp_path("garbled.h2c");
        std::fs::write(&garbled, "not a record\n").expect("write");
        let err = load_finalized(&garbled).expect_err("garbled file");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("schema"), "{err}");
    }
}

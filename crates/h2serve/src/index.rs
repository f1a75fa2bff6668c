//! Read-only in-memory indexes over finalized campaign records, and the
//! site-rank hash that assigns queries to worker shards.
//!
//! Everything here is built once at startup and never mutated: workers
//! share the index behind an `Arc` and answer queries with refcount
//! bumps. The per-site response body (the row's canonical record line)
//! is precomputed at build time, so the hot lookup path allocates
//! nothing.

use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

use h2campaign::{fnv1a, load_finalized, LoadError, StoredRecord, FNV_OFFSET};

/// The home shard of `key` among `shards` workers. Pure and stable, so
/// the same query lands on the same shard for the lifetime of a run —
/// which keeps every per-shard cache's eviction order deterministic.
pub fn shard_of(key: &str, shards: usize) -> usize {
    let shards = shards.max(1);
    (fnv1a(FNV_OFFSET, key.as_bytes()) % shards as u64) as usize
}

/// One finalized campaign record, indexed for serving.
#[derive(Debug)]
pub struct LoadedCampaign {
    /// The record's human label (`meta.label`).
    pub label: String,
    /// The full record, shared with diff queries.
    pub record: Arc<StoredRecord>,
    /// Site authority → row position in `record.rows`.
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only, probed once per site query on the serve path, never iterated"
    )]
    by_site: std::collections::HashMap<String, usize>,
    /// Canonical response body per row (the row's record line),
    /// precomputed so a site lookup is a map probe + refcount bump.
    site_lines: Vec<Bytes>,
}

impl LoadedCampaign {
    fn build(record: StoredRecord) -> LoadedCampaign {
        let by_site = record
            .rows
            .iter()
            .enumerate()
            .map(|(pos, row)| (row.report.authority.clone(), pos))
            .collect();
        let site_lines = record
            .rows
            .iter()
            .map(|row| Bytes::from(row.encode().into_bytes()))
            .collect();
        LoadedCampaign {
            label: record.meta.label.clone(),
            record: Arc::new(record),
            by_site,
            site_lines,
        }
    }

    /// The canonical response line for `authority`, if the campaign
    /// scanned that site.
    pub fn site_line(&self, authority: &str) -> Option<Bytes> {
        self.by_site
            .get(authority)
            .and_then(|pos| self.site_lines.get(*pos))
            .cloned()
    }

    /// Number of sites in this campaign.
    pub fn sites(&self) -> usize {
        self.site_lines.len()
    }

    /// The authority of the row at `pos` (trace generation picks real
    /// sites by position).
    pub fn authority_at(&self, pos: usize) -> Option<&str> {
        self.record
            .rows
            .get(pos)
            .map(|row| row.report.authority.as_str())
    }
}

/// The full set of campaigns a serve run answers queries over.
#[derive(Debug, Default)]
pub struct ServeIndex {
    campaigns: Vec<LoadedCampaign>,
}

impl ServeIndex {
    /// Loads and indexes every record through the validated
    /// [`load_finalized`] path. The first bad record aborts the load —
    /// a daemon must not serve half its campaigns silently.
    ///
    /// # Errors
    ///
    /// The first [`LoadError`] encountered, with its per-class exit code.
    pub fn load<P: AsRef<Path>>(paths: &[P]) -> Result<ServeIndex, LoadError> {
        let mut campaigns = Vec::with_capacity(paths.len());
        for path in paths {
            campaigns.push(LoadedCampaign::build(load_finalized(path.as_ref())?));
        }
        Ok(ServeIndex { campaigns })
    }

    /// Builds an index from records already in memory (tests, benches).
    pub fn from_records(records: Vec<StoredRecord>) -> ServeIndex {
        ServeIndex {
            campaigns: records.into_iter().map(LoadedCampaign::build).collect(),
        }
    }

    /// Number of loaded campaigns.
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// `true` when no campaign is loaded.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }

    /// The campaign at position `i` (load order).
    pub fn campaign(&self, i: usize) -> Option<&LoadedCampaign> {
        self.campaigns.get(i)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use h2campaign::{CampaignMeta, CampaignRow};
    use webpop::{ExperimentSpec, Population};

    pub(crate) fn sample_record(label: &str) -> StoredRecord {
        let population = Population::new(ExperimentSpec::first(), 0.0003);
        let scope = h2scope::H2Scope::new();
        let rows: Vec<CampaignRow> = (0..population.h2_count().min(5))
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
        meta.label = label.to_string();
        meta.sites = rows.len() as u64;
        StoredRecord {
            meta,
            rows,
            finalized: true,
        }
    }

    #[test]
    fn site_lines_are_canonical_row_encodings() {
        let record = sample_record("jul-2016");
        let expected: Vec<String> = record.rows.iter().map(|r| r.encode()).collect();
        let index = ServeIndex::from_records(vec![record]);
        let campaign = index.campaign(0).expect("one campaign");
        assert!(campaign.sites() > 0);
        for (pos, line) in expected.iter().enumerate() {
            let authority = campaign.authority_at(pos).expect("row").to_string();
            let body = campaign.site_line(&authority).expect("indexed");
            assert_eq!(&body[..], line.as_bytes());
        }
        assert!(campaign.site_line("site-999999.top1m").is_none());
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for rank in 0..64u64 {
                let key = format!("site-{rank}.top1m");
                let s = shard_of(&key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&key, shards), "stable");
            }
        }
        // Degenerate shard count clamps instead of dividing by zero.
        assert_eq!(shard_of("site-0.top1m", 0), 0);
        // The hash actually spreads: 64 ranks over 8 shards should not
        // all collapse onto one shard.
        let mut seen = std::collections::BTreeSet::new();
        for rank in 0..64u64 {
            seen.insert(shard_of(&format!("site-{rank}.top1m"), 8));
        }
        assert!(seen.len() >= 4, "hash spreads ranks: {seen:?}");
    }
}

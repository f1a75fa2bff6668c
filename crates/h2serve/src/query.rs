//! The query alphabet, its canonical path encoding, and the seeded
//! trace generator the load driver replays.
//!
//! A query's path **is** its cache key: `/q/table/0` names (campaign 0,
//! table regeneration, no params) and `/q/diff/0/1` names (campaigns
//! 0→1, longitudinal diff). Keeping key == path means the wire request,
//! the dispatch, and the cache all agree on identity by construction.

use rand::StdRng;

use crate::index::{shard_of, ServeIndex};

/// One query against the loaded campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// One site's stored report line from one campaign.
    Site {
        /// Campaign position (load order).
        campaign: usize,
        /// The site's stable rank hostname (`site-<rank>.top1m`).
        authority: String,
    },
    /// The regenerated adoption table of one campaign.
    Table {
        /// Campaign position (load order).
        campaign: usize,
    },
    /// The longitudinal diff between two loaded campaigns.
    Diff {
        /// Older campaign position.
        a: usize,
        /// Newer campaign position.
        b: usize,
    },
}

impl Query {
    /// The canonical request path (also the cache key).
    pub fn path(&self) -> String {
        match self {
            Query::Site {
                campaign,
                authority,
            } => format!("/q/site/{campaign}/{authority}"),
            Query::Table { campaign } => format!("/q/table/{campaign}"),
            Query::Diff { a, b } => format!("/q/diff/{a}/{b}"),
        }
    }

    /// Parses a request path back into a query. `None` means the path is
    /// not in the query namespace at all (static-site fallthrough);
    /// malformed `/q/…` paths also parse to `None` and are answered 404
    /// by the handler.
    pub fn parse(path: &str) -> Option<Query> {
        let rest = path.strip_prefix("/q/")?;
        let mut parts = rest.split('/');
        match parts.next()? {
            "site" => {
                let campaign = parts.next()?.parse().ok()?;
                let authority = parts.next()?.to_string();
                match (parts.next(), authority.is_empty()) {
                    (None, false) => Some(Query::Site {
                        campaign,
                        authority,
                    }),
                    _ => None,
                }
            }
            "table" => {
                let campaign = parts.next()?.parse().ok()?;
                parts.next().is_none().then_some(Query::Table { campaign })
            }
            "diff" => {
                let a = parts.next()?.parse().ok()?;
                let b = parts.next()?.parse().ok()?;
                parts.next().is_none().then_some(Query::Diff { a, b })
            }
            _ => None,
        }
    }

    /// The worker shard that owns this query (site-rank hash for site
    /// lookups, campaign identity for regenerated artifacts).
    pub fn shard(&self, shards: usize) -> usize {
        match self {
            Query::Site { authority, .. } => shard_of(authority, shards),
            Query::Table { campaign } => shard_of(&format!("table/{campaign}"), shards),
            Query::Diff { a, b } => shard_of(&format!("diff/{a}/{b}"), shards),
        }
    }
}

/// Generates the seeded query trace: `count` queries over the loaded
/// campaigns, weighted toward the hot path (site lookups) with a steady
/// trickle of table regenerations, diffs, and misses (absent sites), so
/// a replay exercises every dispatch arm and both cache outcomes.
///
/// The trace is a pure function of `(index contents, seed, count)` —
/// worker count plays no part — which is the root of the daemon's
/// byte-identical-responses guarantee.
pub fn generate_trace(index: &ServeIndex, seed: u64, count: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let campaigns = index.len().max(1);
    let mut trace = Vec::with_capacity(count as usize);
    for k in 0..count {
        let campaign = rng.gen_range(0..campaigns);
        let roll: u32 = rng.gen_range(0..100);
        let query = if roll < 88 {
            let authority = match index.campaign(campaign) {
                // 1 in 16 site lookups asks for a site the campaign never
                // scanned, keeping the 404 path warm.
                Some(c) if c.sites() > 0 && roll % 16 != 3 => {
                    let pos = rng.gen_range(0..c.sites());
                    c.authority_at(pos)
                        .map_or_else(|| format!("site-missing-{k}.top1m"), str::to_string)
                }
                _ => format!("site-missing-{k}.top1m"),
            };
            Query::Site {
                campaign,
                authority,
            }
        } else if roll < 94 {
            Query::Table { campaign }
        } else {
            Query::Diff {
                a: rng.gen_range(0..campaigns),
                b: rng.gen_range(0..campaigns),
            }
        };
        trace.push(query);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_round_trip() {
        let queries = [
            Query::Site {
                campaign: 3,
                authority: "site-17.top1m".to_string(),
            },
            Query::Table { campaign: 0 },
            Query::Diff { a: 0, b: 1 },
        ];
        for q in queries {
            assert_eq!(Query::parse(&q.path()), Some(q));
        }
    }

    #[test]
    fn malformed_paths_do_not_parse() {
        for path in [
            "/",
            "/big/3",
            "/q/",
            "/q/site/0",
            "/q/site/0/",
            "/q/site/x/site-1.top1m",
            "/q/site/0/site-1.top1m/extra",
            "/q/table/",
            "/q/table/0/9",
            "/q/diff/0",
            "/q/diff/0/1/2",
            "/q/unknown/1",
        ] {
            assert_eq!(Query::parse(path), None, "{path}");
        }
    }

    #[test]
    fn trace_is_seeded_and_mixed() {
        let index = ServeIndex::from_records(vec![]);
        let a = generate_trace(&index, 7, 200);
        let b = generate_trace(&index, 7, 200);
        assert_eq!(a, b, "same seed, same trace");
        let c = generate_trace(&index, 8, 200);
        assert_ne!(a, c, "different seed, different trace");
        assert!(a.iter().any(|q| matches!(q, Query::Site { .. })));
        assert!(a.iter().any(|q| matches!(q, Query::Table { .. })));
        assert!(a.iter().any(|q| matches!(q, Query::Diff { .. })));
    }

    #[test]
    fn shards_partition_the_trace() {
        let index = ServeIndex::from_records(vec![]);
        let trace = generate_trace(&index, 11, 100);
        for q in &trace {
            assert!(q.shard(4) < 4);
            // Same query, same shard — every time.
            assert_eq!(q.shard(4), q.shard(4));
        }
    }
}

//! The [`RequestHandler`] that answers campaign queries.
//!
//! Installed per connection via [`h2server::H2Server::set_handler`]
//! (through `h2scope`'s handler hook), so every query genuinely rides
//! the h2wire→h2conn→h2server path: the handler only sees a `:path`
//! the engine already decoded from real HEADERS frames, and its body
//! goes back out as real DATA frames under flow control.
//!
//! Every response is a pure function of `(loaded records, query)`:
//! site lookups clone the body precomputed at index build, tables and
//! diffs are deterministic renders over immutable rows (LRU-cached per
//! shard — and since the cache stores exactly what the render produces,
//! hits and misses are byte-identical). Paths outside `/q/` return
//! `None`, falling through to the static site (which is how hostile
//! slow-read clients fetching `/big/…` coexist with query traffic on
//! the same daemon).

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use h2campaign::{diff_records, feature_counts, feature_names, render_diff};
use h2server::{HandlerResponse, RequestHandler};

use crate::cache::QueryCache;
use crate::index::{LoadedCampaign, ServeIndex};
use crate::query::Query;

/// Dispatches parsed queries against the shared read-only index.
#[derive(Debug)]
pub struct QueryHandler {
    index: Arc<ServeIndex>,
    /// The owning shard's render cache. Shared between the handler and
    /// the load driver (for hit accounting); uncontended in steady state
    /// because a shard's queries are answered serially by one worker.
    cache: Arc<Mutex<QueryCache>>,
}

impl QueryHandler {
    /// A handler over `index`, caching regenerated bodies in `cache`.
    pub fn new(index: Arc<ServeIndex>, cache: Arc<Mutex<QueryCache>>) -> QueryHandler {
        QueryHandler { index, cache }
    }

    fn ok(body: Bytes) -> HandlerResponse {
        HandlerResponse {
            status: "200",
            content_type: "text/plain".to_string(),
            body,
        }
    }

    fn not_found(body: Bytes) -> HandlerResponse {
        HandlerResponse {
            status: "404",
            content_type: "text/plain".to_string(),
            body,
        }
    }

    /// Probes the shard cache; a poisoned lock (only possible after a
    /// panic elsewhere) degrades to rendering fresh — which produces the
    /// same bytes, renders being pure.
    fn cached(&self, key: &str) -> Option<Bytes> {
        self.cache.lock().ok().and_then(|mut c| c.get(key))
    }

    fn store(&self, key: &str, body: &Bytes) {
        if let Ok(mut c) = self.cache.lock() {
            c.put(key.to_string(), body.clone());
        }
    }

    /// Regenerates the adoption table for one campaign.
    fn render_table(campaign: &LoadedCampaign) -> Bytes {
        use std::io::Write as _;
        let mut buf = Vec::new();
        let _ = writeln!(
            buf,
            "ADOPTION TABLE — {} (scale {}, {} sites)",
            campaign.label,
            campaign.record.meta.scale,
            campaign.sites()
        );
        let counts = feature_counts(&campaign.record.rows);
        for (name, count) in feature_names().iter().zip(counts) {
            let _ = writeln!(buf, "{name:<24} {count}");
        }
        Bytes::from(buf)
    }

    fn respond(&self, key: &str, query: &Query) -> HandlerResponse {
        match query {
            Query::Site {
                campaign,
                authority,
            } => match self.index.campaign(*campaign) {
                Some(c) => match c.site_line(authority) {
                    Some(line) => Self::ok(line),
                    None => Self::not_found(Bytes::from_static(b"no such site\n")),
                },
                None => Self::not_found(Bytes::from_static(b"no such campaign\n")),
            },
            Query::Table { campaign } => match self.index.campaign(*campaign) {
                Some(c) => {
                    if let Some(body) = self.cached(key) {
                        return Self::ok(body);
                    }
                    let body = Self::render_table(c);
                    self.store(key, &body);
                    Self::ok(body)
                }
                None => Self::not_found(Bytes::from_static(b"no such campaign\n")),
            },
            Query::Diff { a, b } => match (self.index.campaign(*a), self.index.campaign(*b)) {
                (Some(ca), Some(cb)) => {
                    if let Some(body) = self.cached(key) {
                        return Self::ok(body);
                    }
                    let diff = diff_records(&ca.record, &cb.record);
                    let body = Bytes::from(render_diff(&diff));
                    self.store(key, &body);
                    Self::ok(body)
                }
                _ => Self::not_found(Bytes::from_static(b"no such campaign\n")),
            },
        }
    }
}

impl RequestHandler for QueryHandler {
    fn handle(&mut self, path: &str) -> Option<HandlerResponse> {
        if !path.starts_with("/q/") {
            return None;
        }
        match Query::parse(path) {
            Some(query) => Some(self.respond(path, &query)),
            None => Some(Self::not_found(Bytes::from_static(b"unrecognized query\n"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::sample_record;

    fn handler(cache_enabled: bool) -> (QueryHandler, Arc<Mutex<QueryCache>>) {
        let index = Arc::new(ServeIndex::from_records(vec![
            sample_record("jul-2016"),
            sample_record("jan-2017"),
        ]));
        let cache = Arc::new(Mutex::new(QueryCache::new(64, cache_enabled)));
        (QueryHandler::new(index, Arc::clone(&cache)), cache)
    }

    fn body_of(resp: HandlerResponse) -> Vec<u8> {
        resp.body.to_vec()
    }

    #[test]
    fn non_query_paths_fall_through() {
        let (mut h, _) = handler(true);
        assert!(h.handle("/").is_none());
        assert!(h.handle("/big/3").is_none());
        assert!(h.handle("/style.css").is_none());
    }

    #[test]
    fn malformed_query_paths_are_404_not_fallthrough() {
        let (mut h, _) = handler(true);
        let resp = h.handle("/q/bogus/path").expect("handled");
        assert_eq!(resp.status, "404");
    }

    #[test]
    fn site_lookup_serves_the_canonical_row_line() {
        let (mut h, _) = handler(true);
        let authority = h
            .index
            .campaign(0)
            .and_then(|c| c.authority_at(0))
            .expect("row 0")
            .to_string();
        let expected = h
            .index
            .campaign(0)
            .and_then(|c| c.site_line(&authority))
            .expect("line");
        let resp = h
            .handle(&format!("/q/site/0/{authority}"))
            .expect("handled");
        assert_eq!(resp.status, "200");
        assert_eq!(&resp.body[..], &expected[..]);

        let missing = h.handle("/q/site/0/site-999999.top1m").expect("handled");
        assert_eq!(missing.status, "404");
        let bad_campaign = h.handle("/q/site/9/site-0.top1m").expect("handled");
        assert_eq!(bad_campaign.status, "404");
    }

    #[test]
    fn table_and_diff_hit_cache_with_identical_bytes() {
        let (mut h, cache) = handler(true);
        let first = body_of(h.handle("/q/table/0").expect("handled"));
        let second = body_of(h.handle("/q/table/0").expect("handled"));
        assert_eq!(first, second, "hit == miss bytes");
        let diff1 = body_of(h.handle("/q/diff/0/1").expect("handled"));
        let diff2 = body_of(h.handle("/q/diff/0/1").expect("handled"));
        assert_eq!(diff1, diff2);
        let c = cache.lock().expect("cache");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);

        // Cache off: same bytes, all misses.
        let (mut cold, cold_cache) = handler(false);
        assert_eq!(body_of(cold.handle("/q/table/0").expect("handled")), first);
        assert_eq!(body_of(cold.handle("/q/diff/0/1").expect("handled")), diff1);
        assert_eq!(cold_cache.lock().expect("cache").hits(), 0);
    }

    #[test]
    fn table_body_lists_every_feature() {
        let (mut h, _) = handler(true);
        let body = body_of(h.handle("/q/table/1").expect("handled"));
        let text = String::from_utf8(body).expect("utf8");
        assert!(text.starts_with("ADOPTION TABLE — jan-2017"));
        for name in feature_names() {
            assert!(text.contains(name), "missing feature {name}");
        }
    }
}

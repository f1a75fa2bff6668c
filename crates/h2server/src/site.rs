//! Site content: the resources a simulated web site serves and its
//! object dependency graph, which is also what a server pushes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use bytes::Bytes;

use crate::behavior::PushPolicy;

/// One web object.
///
/// A synthetic body is a `(seed, len)` recipe filled in on first
/// request: a scan asks each wild site for `/` and one shared large
/// object, so the rest of its object graph never costs more than its
/// path. Equality is by content either way.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Request path, e.g. `"/index.html"`.
    pub path: String,
    /// `content-type` response header.
    pub content_type: String,
    /// Body length, known without the body.
    len: usize,
    /// First octet of a synthetic body (unused when the body was given).
    seed: u8,
    body: OnceLock<Bytes>,
}

/// Period of the synthetic body pattern.
const PERIOD: usize = 251;

impl Resource {
    /// Creates a resource with a synthetic body of `size` octets:
    /// deterministic, mildly compressible content keyed by the path
    /// (octet `i` is `seed + i % 251`, wrapping).
    pub fn synthetic(
        path: impl Into<String>,
        content_type: impl Into<String>,
        size: usize,
    ) -> Resource {
        let path = path.into();
        let seed = path.bytes().fold(0u8, u8::wrapping_add);
        Resource {
            path,
            content_type: content_type.into(),
            len: size,
            seed,
            body: OnceLock::new(),
        }
    }

    /// Creates a resource serving `body` (cheap to share between
    /// resources: `Bytes` clones bump a reference count).
    pub fn with_body(
        path: impl Into<String>,
        content_type: impl Into<String>,
        body: Bytes,
    ) -> Resource {
        Resource {
            path: path.into(),
            content_type: content_type.into(),
            len: body.len(),
            seed: 0,
            body: OnceLock::from(body),
        }
    }

    /// Object body length — what `content-length` announces — without
    /// filling a synthetic body in.
    pub fn body_len(&self) -> usize {
        self.len
    }

    /// Object body.
    pub fn body(&self) -> &Bytes {
        self.body.get_or_init(|| {
            // One period written out, then doubled by block copies.
            let mut body = Vec::with_capacity(self.len);
            body.extend((0..self.len.min(PERIOD)).map(|i| self.seed.wrapping_add(i as u8)));
            while body.len() < self.len {
                let n = body.len().min(self.len - body.len());
                body.extend_from_within(..n);
            }
            Bytes::from(body)
        })
    }
}

impl PartialEq for Resource {
    fn eq(&self, other: &Resource) -> bool {
        self.path == other.path
            && self.content_type == other.content_type
            && self.len == other.len
            && self.body() == other.body()
    }
}

impl Eq for Resource {}

/// The content model for one simulated site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SiteSpec {
    /// The `:authority` this site answers as.
    pub authority: String,
    /// Resources by path.
    pub resources: BTreeMap<String, Resource>,
    /// `parent path -> child objects` the parent references (HTML →
    /// CSS/JS/images, CSS → fonts, …). A client only learns about a
    /// child once the parent has finished loading — unless the server
    /// pushed it first.
    pub deps: BTreeMap<String, Vec<String>>,
}

impl SiteSpec {
    /// An empty site for `authority`.
    pub fn new(authority: impl Into<String>) -> SiteSpec {
        SiteSpec {
            authority: authority.into(),
            ..SiteSpec::default()
        }
    }

    /// Adds a resource, replacing any previous one at the same path.
    pub fn add(&mut self, resource: Resource) -> &mut SiteSpec {
        self.resources.insert(resource.path.clone(), resource);
        self
    }

    /// Builder-style [`SiteSpec::add`].
    pub fn with(mut self, resource: Resource) -> SiteSpec {
        self.add(resource);
        self
    }

    /// Declares that `parent` references `children` (discovered only
    /// once `parent` completes, unless pushed).
    pub fn depend(mut self, parent: impl Into<String>, children: Vec<String>) -> SiteSpec {
        self.deps.insert(parent.into(), children);
        self
    }

    /// Looks up a resource.
    pub fn resource(&self, path: &str) -> Option<&Resource> {
        self.resources.get(path)
    }

    /// The objects discovered when `path` finishes loading: its
    /// dependency-graph edges.
    pub fn children(&self, path: &str) -> &[String] {
        self.deps.get(path).map_or(&[], Vec::as_slice)
    }

    /// `true` when the resource at `path` is render-blocking (CSS or
    /// JavaScript) — the critical request chain of the push study.
    fn render_blocking(&self, path: &str) -> bool {
        self.resource(path).is_some_and(|r| {
            r.content_type.starts_with("text/css")
                || r.content_type.starts_with("application/javascript")
        })
    }

    /// The paths a server following `policy` promises when `page` is
    /// requested, in deterministic discovery order.
    pub fn push_set(&self, page: &str, policy: PushPolicy) -> Vec<String> {
        match policy {
            PushPolicy::None => Vec::new(),
            // The page's direct children: the first dependency level.
            PushPolicy::All => self.children(page).to_vec(),
            // Walk the graph, descending only through render-blocking
            // objects (CSS/JS chains; images are never critical).
            PushPolicy::CriticalPath => {
                let mut seen: BTreeSet<&str> = BTreeSet::new();
                let mut out = Vec::new();
                let mut frontier: Vec<&str> = vec![page];
                while let Some(parent) = frontier.pop() {
                    for child in self.children(parent) {
                        if self.render_blocking(child) && seen.insert(child) {
                            out.push(child.clone());
                            frontier.push(child);
                        }
                    }
                }
                out
            }
            // Everything the site serves except the page itself,
            // referenced by this page or not.
            PushPolicy::OverPush => self
                .resources
                .keys()
                .filter(|p| p.as_str() != page)
                .cloned()
                .collect(),
        }
    }

    /// The testbed site used for server characterization (Table III):
    /// a front page plus several *large* objects, which the paper needs
    /// because the multiplexing and priority probes only discriminate when
    /// responses span many DATA frames (§III-A1).
    pub fn benchmark() -> SiteSpec {
        let mut site = SiteSpec::new("testbed.example");
        site.add(Resource::synthetic("/", "text/html", 4_096));
        for i in 0..8 {
            site.add(Resource::synthetic(
                format!("/big/{i}"),
                "application/octet-stream",
                256 * 1024,
            ));
        }
        site.add(Resource::synthetic("/style.css", "text/css", 8_192));
        site.add(Resource::synthetic(
            "/app.js",
            "application/javascript",
            16_384,
        ));
        site.add(Resource::synthetic("/logo.png", "image/png", 32_768));
        site
    }

    /// The [`benchmark`](SiteSpec::benchmark) site with its front page
    /// referencing three assets, so one site answers every H2Scope probe:
    /// large objects for the flow-control, multiplexing and priority
    /// probes, pushable assets for the push probe. Table III surveys it.
    pub fn testbed() -> SiteSpec {
        let assets = ["/style.css", "/app.js", "/logo.png"];
        SiteSpec::benchmark().depend("/", assets.map(String::from).to_vec())
    }

    /// A front page referencing `assets` subresources of `asset_size`
    /// octets each — the page-load experiment site (Figure 3).
    pub fn page_with_assets(assets: usize, asset_size: usize) -> SiteSpec {
        let mut site = SiteSpec::new("pageload.example");
        site.add(Resource::synthetic("/", "text/html", 16_384));
        let mut pushed = Vec::new();
        for i in 0..assets {
            let path = format!("/asset/{i}");
            site.add(Resource::synthetic(&path, asset_kind(i), asset_size));
            pushed.push(path);
        }
        site.depend("/", pushed)
    }

    /// A three-level dependency site for the push-study tests:
    /// HTML → {CSS, JS, hero image}, CSS → background image, JS →
    /// follow-on script.
    pub fn page_with_tree() -> SiteSpec {
        SiteSpec::new("tree.example")
            .with(Resource::synthetic("/", "text/html", 16_384))
            .with(Resource::synthetic("/style.css", "text/css", 4_096))
            .with(Resource::synthetic(
                "/app.js",
                "application/javascript",
                12_288,
            ))
            .with(Resource::synthetic("/hero.png", "image/png", 30_000))
            .with(Resource::synthetic("/bg.png", "image/png", 8_192))
            .with(Resource::synthetic(
                "/lazy.js",
                "application/javascript",
                6_144,
            ))
            .depend(
                "/",
                vec!["/style.css".into(), "/app.js".into(), "/hero.png".into()],
            )
            .depend("/style.css", vec!["/bg.png".into()])
            .depend("/app.js", vec!["/lazy.js".into()])
    }
}

fn asset_kind(i: usize) -> &'static str {
    match i % 3 {
        0 => "application/javascript",
        1 => "text/css",
        _ => "image/png",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_resources_are_deterministic() {
        let a = Resource::synthetic("/x", "text/plain", 100);
        let b = Resource::synthetic("/x", "text/plain", 100);
        assert_eq!(a, b);
        assert_eq!(a.body().len(), 100);
    }

    #[test]
    fn synthetic_bodies_match_the_closed_form() {
        let paths = [
            "/",
            "/x",
            "/big/0",
            "/css/3.bg.png",
            "/js/1.chunk.js",
            "/img/12",
            "/asset/7",
            "/index.html?q=\u{fffd}",
        ];
        for path in paths {
            let seed = path.bytes().fold(0u8, u8::wrapping_add);
            for n in [0, 1, 250, 251, 252, 502, 503, 65_536, 96 * 1024] {
                let expected: Vec<u8> =
                    (0..n).map(|i| seed.wrapping_add((i % 251) as u8)).collect();
                let resource = Resource::synthetic(path, "text/plain", n);
                assert_eq!(resource.body_len(), n);
                assert!(resource.body.get().is_none(), "the length fills nothing in");
                assert!(resource.body()[..] == expected[..], "{path} at {n} octets");
            }
        }
    }

    #[test]
    fn equality_is_by_content_whether_filled_in_or_not() {
        let lazy = Resource::synthetic("/x", "text/plain", 1_000);
        let filled = lazy.clone();
        filled.body();
        assert!(lazy.body.get().is_none() && filled.body.get().is_some());
        assert_eq!(lazy, filled);
        let given = Resource::with_body("/x", "text/plain", filled.body().clone());
        assert_eq!(given, Resource::synthetic("/x", "text/plain", 1_000));
        assert_ne!(
            given,
            Resource::with_body("/x", "text/plain", Bytes::from(vec![0; 1_000]))
        );
        assert_ne!(given, Resource::synthetic("/x", "text/plain", 999));

        let served = SiteSpec::page_with_tree();
        for resource in served.resources.values() {
            resource.body();
        }
        assert_eq!(served, SiteSpec::page_with_tree());
    }

    #[test]
    fn benchmark_site_has_large_objects() {
        let site = SiteSpec::benchmark();
        assert!(site.resource("/").is_some());
        let big = site.resource("/big/0").unwrap();
        assert!(
            big.body_len() >= 4 * 65_535,
            "must span multiple flow-control windows"
        );
    }

    #[test]
    fn front_page_references_all_assets() {
        let site = SiteSpec::page_with_assets(5, 1_000);
        assert_eq!(site.children("/").len(), 5);
        for path in site.children("/") {
            assert!(site.resource(path).is_some(), "asset {path} exists");
        }
        assert!(site.children("/asset/0").is_empty());
    }

    #[test]
    fn lookup_miss_returns_none() {
        assert_eq!(SiteSpec::benchmark().resource("/nope"), None);
    }

    #[test]
    fn push_sets_follow_the_policy() {
        use crate::behavior::PushPolicy;
        let site = SiteSpec::page_with_tree();
        assert!(site.push_set("/", PushPolicy::None).is_empty());
        assert_eq!(
            site.push_set("/", PushPolicy::All),
            ["/style.css", "/app.js", "/hero.png"]
        );
        // Critical path: CSS/JS transitively, never images.
        assert_eq!(
            site.push_set("/", PushPolicy::CriticalPath),
            ["/style.css", "/app.js", "/lazy.js"]
        );
        // Over-push: every resource but the page, the unreferenced
        // included.
        let over = site.push_set("/", PushPolicy::OverPush);
        assert_eq!(over.len(), 5);
        assert!(over.contains(&"/bg.png".to_string()));
        assert!(!over.contains(&"/".to_string()));
    }
}

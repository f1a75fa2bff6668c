//! Deterministic generation of the synthetic top-1M population.
//!
//! Each site is generated independently from `(campaign seed, index)`, so
//! populations of any scale replay bit-identically and sites can be
//! generated lazily during a scan (no multi-gigabyte site list in
//! memory).
//!
//! Calibration uses two mechanisms:
//!
//! * **Quota permutations** — for every published aggregate (Table IV
//!   families, §V-D reaction counts, §V-E priority groups, push sites), a
//!   per-dimension pseudorandom permutation of the index space is cut
//!   into exact scaled quotas. This reproduces even tiny populations (the
//!   31-site GOAWAY group, the 6 push sites) at full scale, and
//!   proportionally at reduced scale.
//! * **Marginal draws** — SETTINGS values are drawn per-site from the
//!   Table V/VI/VII marginals (independently of family, a documented
//!   simplification: the paper does not publish the joint distribution).

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use h2fault::splitmix64;
use h2server::behavior::PriorityMode;
use h2server::{QuirkAction, Resource, ServerProfile, SiteSpec};
use h2wire::{SettingId, Settings};
use netsim::time::SimDuration;
use netsim::{LinkSpec, TlsConfig};

use crate::marginals::{
    draw_non_null, Family, FAMILIES, INITIAL_WINDOW_SIZE, MAX_CONCURRENT_STREAMS, MAX_FRAME_SIZE,
    MAX_HEADER_LIST_SIZE, SERVER_KINDS, UNLIMITED,
};
use crate::spec::ExperimentSpec;

/// One generated site, ready to be probed.
#[derive(Debug, Clone)]
pub struct SiteSample {
    /// Index within the campaign's h2 population.
    pub index: u64,
    /// Server family (Table IV row).
    pub family: Family,
    /// The fully customized server profile, behind an `Arc` so building a
    /// probe [`h2scope::Target`] (and each connection it opens) shares one
    /// immutable copy instead of deep-cloning the behavior spec.
    pub profile: Arc<ServerProfile>,
    /// Content served (shared immutably, like `profile`).
    pub site: Arc<SiteSpec>,
    /// Network path from the scan vantage point.
    pub link: LinkSpec,
}

impl SiteSample {
    /// Builds an `h2scope` probe target for this site.
    pub fn target(&self) -> h2scope::Target {
        h2scope::Target {
            profile: Arc::clone(&self.profile),
            site: Arc::clone(&self.site),
            link: self.link,
            seed: 0xbeef ^ self.index,
            pipe_faults: netsim::PipeFaults::none(),
            patience: None,
            fault_log: h2scope::FaultLog::default(),
            obs: h2scope::Obs::off(),
            handler: None,
        }
    }
}

/// The synthetic population for one campaign at a given scale.
#[derive(Debug, Clone)]
pub struct Population {
    spec: ExperimentSpec,
    scale: f64,
}

/// Dimension tags for the quota permutations.
mod dim {
    pub const FAMILY: u64 = 1;
    pub const SMALL_WINDOW: u64 = 2;
    pub const HEADERS_ZERO: u64 = 3;
    pub const ZWU_STREAM: u64 = 4;
    pub const ZWU_CONN: u64 = 5;
    pub const LWU_STREAM: u64 = 6;
    pub const LWU_CONN: u64 = 7;
    pub const PRIORITY: u64 = 8;
    pub const SELF_DEP: u64 = 9;
    pub const PUSH: u64 = 10;
    pub const SETTINGS_NULL: u64 = 11;
    pub const NEGOTIATION: u64 = 13;
}

/// Per-family page-composition mixture for the dependency graphs of
/// the push QoE study: level-1 object counts and per-object size
/// ranges (octets). The families keep their deployment character —
/// GSE fronts lean Google properties, LiteSpeed/IdeaWeb skew toward
/// image-heavy shared hosting, Tengine toward commerce pages with
/// many small images — while staying small enough that a
/// population-scale sweep stays cheap.
struct PageMixture {
    css: (u32, u32),
    js: (u32, u32),
    img: (u32, u32),
    css_bytes: (usize, usize),
    js_bytes: (usize, usize),
    img_bytes: (usize, usize),
}

fn page_mixture(family: Family) -> PageMixture {
    match family {
        Family::Gse => PageMixture {
            css: (1, 2),
            js: (2, 4),
            img: (2, 6),
            css_bytes: (2_000, 12_000),
            js_bytes: (8_000, 40_000),
            img_bytes: (3_000, 20_000),
        },
        Family::Litespeed | Family::IdeaWeb => PageMixture {
            css: (2, 4),
            js: (2, 5),
            img: (6, 16),
            css_bytes: (4_000, 20_000),
            js_bytes: (10_000, 60_000),
            img_bytes: (8_000, 60_000),
        },
        Family::Tengine | Family::TengineAserver => PageMixture {
            css: (2, 4),
            js: (3, 8),
            img: (8, 18),
            css_bytes: (4_000, 24_000),
            js_bytes: (6_000, 30_000),
            img_bytes: (2_000, 16_000),
        },
        Family::Nginx | Family::CloudflareNginx | Family::Tail => PageMixture {
            css: (1, 3),
            js: (2, 6),
            img: (4, 12),
            css_bytes: (3_000, 18_000),
            js_bytes: (8_000, 50_000),
            img_bytes: (4_000, 40_000),
        },
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Maps index `i` to its position in a pseudorandom permutation of
/// `0..n`, keyed by `(seed, dimension)`.
///
/// Both the multiplier and the offset of the affine map derive from the
/// dimension: permutations for different dimensions must not be mere
/// shifts of each other, or quota ranges across dimensions would overlap
/// in structured (biased) ways.
fn permuted_position(i: u64, n: u64, dimension: u64, seed: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let key = splitmix64(seed ^ dimension.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut a = (key % n).max(2) | 1;
    while gcd(a, n) != 1 {
        a = (a + 2) % n.max(3);
        if a < 2 {
            a = 3;
        }
    }
    let b = splitmix64(key ^ 0x5bd1_e995) % n;
    ((u128::from(i) * u128::from(a) + u128::from(b)) % u128::from(n)) as u64
}

/// The shared large-object body (96 KiB — comfortably above the 65,535
/// connection window so Algorithm 1's drain works on any wild site).
///
/// Cached per *thread*, not per process: every site references this body
/// 7 times, and `Bytes` clones bump a reference count, so a process-wide
/// body would have every scan worker hammering one shared cache line.
/// A per-worker copy costs 96 KiB of memory per thread and removes the
/// cross-core refcount traffic entirely; the bytes are identical on
/// every thread, so generated sites don't change.
fn big_body() -> Bytes {
    thread_local! {
        static BODY: Bytes = {
            let body: Vec<u8> = (0..96 * 1024).map(|i| (i % 251) as u8).collect();
            Bytes::from(body)
        };
    }
    BODY.with(Bytes::clone)
}

impl Population {
    /// A population for `spec` at `scale` (1.0 = the full million sites;
    /// 0.1 = a 100k-site campaign with all quotas scaled).
    pub fn new(spec: ExperimentSpec, scale: f64) -> Population {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Population { spec, scale }
    }

    /// The experiment specification.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Scales a paper count to this population.
    pub fn scaled(&self, count: u64) -> u64 {
        (count as f64 * self.scale).round() as u64
    }

    /// Scaled total Alexa list size.
    pub fn total_sites(&self) -> u64 {
        self.scaled(self.spec.total_sites)
    }

    /// Scaled number of h2-negotiating sites.
    pub fn h2_count(&self) -> u64 {
        self.scaled(self.spec.h2_sites)
    }

    /// Scaled number of HEADERS-returning sites.
    pub fn headers_count(&self) -> u64 {
        self.scaled(self.spec.headers_sites)
    }

    /// Iterates every h2 site (headers-returning sites first, then the
    /// mute population).
    pub fn iter_h2_sites(&self) -> impl Iterator<Item = SiteSample> + '_ {
        (0..self.h2_count()).map(move |i| self.site(i))
    }

    /// Iterates only the HEADERS-returning sites.
    pub fn iter_headers_sites(&self) -> impl Iterator<Item = SiteSample> + '_ {
        (0..self.headers_count()).map(move |i| self.site(i))
    }

    /// Cuts the index space by quota: returns the category index for site
    /// `i` given per-category (unscaled) counts over the headers
    /// population; the last category absorbs rounding remainder.
    fn quota_category(&self, i: u64, dimension: u64, counts: &[u64]) -> usize {
        let n = self.headers_count();
        let position = permuted_position(i, n, dimension, self.spec.seed);
        let mut boundary = 0f64;
        for (k, &count) in counts.iter().enumerate() {
            boundary += count as f64 * self.scale;
            if (position as f64) < boundary.round() {
                return k;
            }
        }
        counts.len()
    }

    /// Generates site `i` of the h2 population.
    ///
    /// # Panics
    ///
    /// Panics when `i` is outside the h2 population.
    pub fn site(&self, i: u64) -> SiteSample {
        assert!(i < self.h2_count(), "site index out of range");
        let mut rng = StdRng::seed_from_u64(splitmix64(self.spec.seed ^ (i << 1) ^ 0x5173));
        let mute = i >= self.headers_count();
        let family = if mute {
            Family::Tail
        } else {
            self.family_of(i)
        };
        let mut profile = self.base_profile(family, i);
        profile.behavior.mute = mute;

        if !mute {
            self.apply_settings(i, &mut profile, &mut rng);
            self.apply_quirks(i, family, &mut profile, &mut rng);
        }
        self.apply_negotiation(i, &mut profile);

        // Site-specific response headers: natural HPACK-ratio dispersion.
        let extras = rng.gen_range(0..=8);
        for j in 0..extras {
            let len = rng.gen_range(4..=40);
            let value: String = (0..len)
                .map(|k| (b'a' + ((k * 7 + j) % 26) as u8) as char)
                .collect();
            profile
                .behavior
                .extra_response_headers
                .push((format!("x-h{j}"), value));
        }
        profile.behavior.processing_delay = SimDuration::from_micros(rng.gen_range(200..5_000));

        // The push population is tiny (6 / 15 sites at full scale); keep
        // at least one per campaign so Figure 3 is runnable at any scale.
        let push_quota = ((self.spec.push_sites as f64 * self.scale).round() as u64).max(1);
        let push_position = permuted_position(i, self.headers_count(), dim::PUSH, self.spec.seed);
        let push_site = !mute && push_position < push_quota;
        if push_site {
            // The paper's push sites are the handful that demonstrably
            // work (Figure 3 measures them in a real browser); a push
            // site therefore sheds the pathological flow-control quirks.
            profile.behavior.push = true;
            profile.behavior.fc_on_headers = false;
            profile.behavior.headers_gated_at_zero_window = false;
            profile.behavior.zero_len_data_when_blocked = false;
            profile.behavior.mute = false;
        } else {
            // §V-F adoption is governed by the quota alone: now that
            // every site carries a dependency graph (and the engine
            // will push it under the default policy), families whose
            // testbed preset enables push must not push in the wild.
            profile.behavior.push = false;
        }
        let site = self.site_spec(i, family, push_site, &mut rng);
        let link = self.link(&mut rng);
        SiteSample {
            index: i,
            family,
            profile: Arc::new(profile),
            site: Arc::new(site),
            link,
        }
    }

    fn family_of(&self, i: u64) -> Family {
        let counts: Vec<u64> = FAMILIES
            .iter()
            .map(|(_, a, b)| if self.spec.second { *b } else { *a })
            .collect();
        let k = self.quota_category(i, dim::FAMILY, &counts);
        FAMILIES.get(k).map_or(Family::Tail, |(f, _, _)| *f)
    }

    fn base_profile(&self, family: Family, i: u64) -> ServerProfile {
        match family {
            Family::Litespeed => ServerProfile::litespeed(),
            Family::Nginx => ServerProfile::nginx(),
            Family::Gse => ServerProfile::gse(),
            Family::Tengine => ServerProfile::tengine(),
            Family::CloudflareNginx => ServerProfile::cloudflare_nginx(),
            Family::IdeaWeb => ServerProfile::ideaweb(),
            Family::TengineAserver => ServerProfile::tengine_aserver(),
            Family::Tail => {
                let kinds = if self.spec.second {
                    SERVER_KINDS.1
                } else {
                    SERVER_KINDS.0
                };
                let kind = splitmix64(self.spec.seed ^ i ^ 0x7a11) % kinds.max(1);
                let mut profile = match kind % 3 {
                    0 => ServerProfile::rfc7540(),
                    1 => ServerProfile::nghttpd(),
                    _ => ServerProfile::h2o(),
                };
                profile.name = format!("tail-{kind}");
                // The name must depend on the *kind* only, so the number
                // of distinct server strings the scanner sees tracks the
                // paper's 223/345 counts.
                profile.behavior.server_name = format!("srv-{kind}/{}.{}", kind % 4, kind % 10);
                profile
            }
        }
    }

    fn apply_settings(&self, i: u64, profile: &mut ServerProfile, rng: &mut StdRng) {
        // The NULL rows of Tables V–VII all count the same 1,050 / 1,015
        // sites: those whose SETTINGS frame announces nothing.
        let null_count = if self.spec.second { 1_015 } else { 1_050 };
        let announces_nothing = self.quota_category(i, dim::SETTINGS_NULL, &[null_count]) == 0;
        if announces_nothing {
            profile.behavior.announced = Settings::new();
            profile.behavior.zero_window_then_update = None;
            return;
        }
        let second = self.spec.second;
        let mut settings = Settings::new()
            .with(SettingId::HeaderTableSize, 4_096)
            .with(
                SettingId::MaxConcurrentStreams,
                draw_non_null(MAX_CONCURRENT_STREAMS, second, rng.gen()),
            );
        let iws = draw_non_null(INITIAL_WINDOW_SIZE, second, rng.gen());
        settings.push(SettingId::InitialWindowSize, iws);
        settings.push(
            SettingId::MaxFrameSize,
            draw_non_null(MAX_FRAME_SIZE, second, rng.gen()),
        );
        let mhl = draw_non_null(MAX_HEADER_LIST_SIZE, second, rng.gen());
        settings.push(
            SettingId::MaxHeaderListSize,
            if mhl == UNLIMITED { u32::MAX } else { mhl },
        );
        profile.behavior.zero_window_then_update = if iws == 0 { Some(65_535) } else { None };
        profile.behavior.announced = settings;
    }

    fn apply_quirks(&self, i: u64, family: Family, profile: &mut ServerProfile, rng: &mut StdRng) {
        let spec = &self.spec;
        let b = &mut profile.behavior;

        // §V-D1 small-window outcomes. LiteSpeed contributes most of the
        // no-response population via flow control on HEADERS.
        let litespeed_fc = spec.no_response_litespeed;
        let other_fc = spec.small_window_no_response - litespeed_fc;
        let litespeed_total = FAMILIES
            .iter()
            .find(|(f, _, _)| *f == Family::Litespeed)
            .map(|(_, a, b)| if spec.second { *b } else { *a })
            .expect("litespeed row exists");
        b.fc_on_headers = if family == Family::Litespeed {
            // Local quota within the LiteSpeed slice.
            let p = litespeed_fc as f64 / litespeed_total as f64;
            rng.gen_bool(p.min(1.0))
        } else {
            let others_total = spec.headers_sites - litespeed_total;
            rng.gen_bool((other_fc as f64 / others_total as f64).min(1.0))
        };
        if !b.fc_on_headers {
            let zero_len_pool = spec.headers_sites - spec.small_window_no_response;
            b.zero_len_data_when_blocked = self.quota_category(
                i,
                dim::SMALL_WINDOW,
                &[
                    spec.small_window_zero_len,
                    zero_len_pool - spec.small_window_zero_len,
                ],
            ) == 0;
            // §V-D2: sites that gate HEADERS on a non-zero window. The
            // quota permutation covers *all* headers sites but only
            // applies to non-fc sites, so inflate the target by the fc
            // share to land on the paper's count among the eligible.
            let gated =
                spec.headers_sites - spec.small_window_no_response - spec.headers_at_zero_window;
            let fc_share = spec.small_window_no_response as f64 / spec.headers_sites as f64;
            let inflated = (gated as f64 / (1.0 - fc_share)).round() as u64;
            b.headers_gated_at_zero_window =
                self.quota_category(i, dim::HEADERS_ZERO, &[inflated]) == 0;
        }

        // §V-D3: zero WINDOW_UPDATE reactions.
        let z = &spec.zero_update_stream;
        b.zero_window_update_stream =
            match self.quota_category(i, dim::ZWU_STREAM, &[z.rst, z.goaway, z.goaway_debug]) {
                0 => QuirkAction::RstStream,
                1 => QuirkAction::Goaway,
                2 => {
                    b.zero_window_debug = Some("the window update shouldn't be zero".to_string());
                    QuirkAction::Goaway
                }
                _ => QuirkAction::Ignore,
            };
        b.zero_window_update_conn =
            if self.quota_category(i, dim::ZWU_CONN, &[spec.zero_update_conn_goaway]) == 0 {
                QuirkAction::Goaway
            } else {
                QuirkAction::Ignore
            };

        // §V-D4: window-overflow reactions.
        b.large_window_update_stream =
            if self.quota_category(i, dim::LWU_STREAM, &[spec.large_update_stream_rst]) == 0 {
                QuirkAction::RstStream
            } else {
                QuirkAction::Ignore
            };
        b.large_window_update_conn =
            if self.quota_category(i, dim::LWU_CONN, &[spec.large_update_conn_goaway]) == 0 {
                QuirkAction::Goaway
            } else {
                QuirkAction::Ignore
            };

        // §V-E1: the four priority populations.
        b.priority_mode = match self.quota_category(
            i,
            dim::PRIORITY,
            &[
                spec.priority_by_both,
                spec.priority_by_first - spec.priority_by_both,
                spec.priority_by_last - spec.priority_by_both,
            ],
        ) {
            0 => PriorityMode::Strict,
            1 => PriorityMode::FirstFrameOnly,
            2 => PriorityMode::CompletionOrder,
            _ => PriorityMode::None,
        };

        // §V-E2: self-dependency reactions.
        let s = &spec.self_dependency;
        b.self_dependency = match self.quota_category(i, dim::SELF_DEP, &[s.rst, s.goaway]) {
            0 => QuirkAction::RstStream,
            1 => QuirkAction::Goaway,
            _ => QuirkAction::Ignore,
        };

        // Figures 4/5: family-conditioned HPACK variation.
        match family {
            Family::Nginx => {
                // 6.5% of Nginx sites compress properly (the non-1 tail of
                // the Figure 4 CDF).
                b.hpack_index_responses = rng.gen_bool(0.065);
            }
            Family::Litespeed
                // ~20% of LiteSpeed sites land at ratios above 0.3
                // through per-response cookies.
                if rng.gen_bool(0.2) => {
                    b.cookie_injection = true;
                }
            Family::Tail => {
                b.hpack_index_responses = rng.gen_bool(0.5);
            }
            _ => {}
        }
    }

    fn apply_negotiation(&self, i: u64, profile: &mut ServerProfile) {
        let spec = &self.spec;
        let npn_only = spec.h2_sites - spec.alpn_sites;
        let alpn_only = spec.h2_sites - spec.npn_sites;
        // Quota over the h2 population (not just headers sites).
        let n = self.h2_count();
        let position = permuted_position(i, n, dim::NEGOTIATION, spec.seed);
        let npn_boundary = (npn_only as f64 * self.scale).round() as u64;
        let alpn_boundary = npn_boundary + (alpn_only as f64 * self.scale).round() as u64;
        profile.behavior.tls = if position < npn_boundary {
            TlsConfig::h2_npn_only()
        } else if position < alpn_boundary {
            TlsConfig::h2_alpn_only()
        } else {
            TlsConfig::h2_full()
        };
    }

    /// The site's stable, campaign-independent identity. Hostnames derive
    /// from the site's rank in the (shared) top-1M list — not from the
    /// campaign generation — so persisted records from different
    /// campaigns can be joined site-by-site, which is what the paper's
    /// Jul-2016 → Jan-2017 longitudinal comparison does.
    pub fn authority(i: u64) -> String {
        format!("site-{i}.top1m")
    }

    fn site_spec(&self, i: u64, family: Family, push_site: bool, rng: &mut StdRng) -> SiteSpec {
        let mut site = SiteSpec::new(Population::authority(i));
        let page_size = rng.gen_range(8_192..=30_000);
        site.add(Resource::synthetic("/", "text/html", page_size));
        let body = big_body();
        for k in 1..=7 {
            site.add(Resource::with_body(
                format!("/big/{k}"),
                "application/octet-stream",
                body.clone(),
            ));
        }
        if push_site {
            let assets = rng.gen_range(5..=15);
            let mut pushed = Vec::new();
            for a in 0..assets {
                let path = format!("/asset/{a}");
                let size = rng.gen_range(10_000..=40_000);
                site.add(Resource::synthetic(&path, "application/javascript", size));
                pushed.push(path);
            }
            site = site.push_on("/", pushed);
        }
        self.attach_object_tree(&mut site, i, family);
        site
    }

    /// Attaches the page's object dependency graph (HTML → CSS/JS/
    /// images, CSS → background images, JS → follow-on chunks), with
    /// counts and sizes drawn from the family's [`PageMixture`].
    ///
    /// The draws come from a *separate* RNG keyed by `(campaign seed,
    /// site rank)` — not from the main generation stream — so adding
    /// the graph perturbs none of the pre-existing per-site draws
    /// (page size, push assets, link RTT) and older campaign outputs
    /// replay unchanged.
    fn attach_object_tree(&self, site: &mut SiteSpec, i: u64, family: Family) {
        let mut rng = StdRng::seed_from_u64(splitmix64(
            self.spec.seed ^ i.wrapping_mul(0x9e37_79b9) ^ 0xdeb5,
        ));
        let m = page_mixture(family);
        let mut level1: Vec<String> = Vec::new();
        let css = rng.gen_range(m.css.0..=m.css.1);
        for c in 0..css {
            let path = format!("/css/{c}");
            let size = rng.gen_range(m.css_bytes.0..=m.css_bytes.1);
            site.add(Resource::synthetic(&path, "text/css", size));
            // Every other stylesheet pulls a background image — the
            // second dependency level a flat manifest cannot express.
            if rng.gen_bool(0.5) {
                let sub = format!("/css/{c}.bg.png");
                let sub_size = rng.gen_range(m.img_bytes.0..=m.img_bytes.1);
                site.add(Resource::synthetic(&sub, "image/png", sub_size));
                site.deps.insert(path.clone(), vec![sub]);
            }
            level1.push(path);
        }
        let js = rng.gen_range(m.js.0..=m.js.1);
        for j in 0..js {
            let path = format!("/js/{j}");
            let size = rng.gen_range(m.js_bytes.0..=m.js_bytes.1);
            site.add(Resource::synthetic(&path, "application/javascript", size));
            // Some scripts lazy-load a follow-on chunk.
            if rng.gen_bool(0.3) {
                let sub = format!("/js/{j}.chunk.js");
                let sub_size = rng.gen_range(m.js_bytes.0..=m.js_bytes.1);
                site.add(Resource::synthetic(
                    &sub,
                    "application/javascript",
                    sub_size,
                ));
                site.deps.insert(path.clone(), vec![sub]);
            }
            level1.push(path);
        }
        let img = rng.gen_range(m.img.0..=m.img.1);
        for k in 0..img {
            let path = format!("/img/{k}");
            let size = rng.gen_range(m.img_bytes.0..=m.img_bytes.1);
            site.add(Resource::synthetic(&path, "image/png", size));
            level1.push(path);
        }
        // Push sites keep their legacy manifest objects as additional
        // level-1 children, so the wild push probe's promised set is
        // untouched by the graph.
        if let Some(manifest) = site.push_manifest.get("/") {
            level1.extend(manifest.iter().cloned());
        }
        site.deps.insert("/".to_string(), level1);
    }

    fn link(&self, rng: &mut StdRng) -> LinkSpec {
        // Log-normal-ish RTT distribution: median ~30 ms one-way,
        // clamped to [2, 400] ms (Box-Muller from two uniforms).
        let u1: f64 = rng.gen_range(1e-9..1.0);
        let u2: f64 = rng.gen();
        let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let delay_ms = (3.4 + 0.8 * normal).exp().clamp(2.0, 400.0);
        LinkSpec {
            delay: SimDuration::from_micros((delay_ms * 1_000.0) as u64),
            jitter: SimDuration::from_micros((delay_ms * 20.0) as u64),
            bandwidth_bps: Some(100_000_000),
            loss: 0.0,
            retransmit_penalty: SimDuration::from_millis(200),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_population() -> Population {
        Population::new(ExperimentSpec::first(), 0.01)
    }

    #[test]
    fn generation_is_deterministic() {
        let pop = small_population();
        let a = pop.site(7);
        let b = pop.site(7);
        assert_eq!(a.profile.behavior, b.profile.behavior);
        assert_eq!(a.site, b.site);
        assert_eq!(a.link, b.link);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let n = 997;
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let p = permuted_position(i, n, 3, 42);
            assert!(!seen[p as usize], "collision at {p}");
            seen[p as usize] = true;
        }
    }

    #[test]
    fn family_quotas_scale() {
        let pop = small_population();
        let mut litespeed = 0u64;
        let mut nginx = 0u64;
        for site in pop.iter_headers_sites() {
            match site.family {
                Family::Litespeed => litespeed += 1,
                Family::Nginx => nginx += 1,
                _ => {}
            }
        }
        // 1% scale: expect ~126 LiteSpeed, ~113 Nginx.
        assert!((120..=133).contains(&litespeed), "litespeed {litespeed}");
        assert!((107..=119).contains(&nginx), "nginx {nginx}");
    }

    #[test]
    fn priority_quotas_produce_tiny_populations() {
        // At full scale the paper has 38 strict sites; at 10% we expect
        // close to 4, and crucially not zero.
        let pop = Population::new(ExperimentSpec::first(), 0.1);
        let strict = pop
            .iter_headers_sites()
            .filter(|s| s.profile.behavior.priority_mode == PriorityMode::Strict)
            .count();
        assert!((2..=6).contains(&strict), "strict {strict}");
    }

    #[test]
    fn push_sites_exist_even_at_reduced_scale() {
        let pop = Population::new(ExperimentSpec::second(), 0.1);
        let push_sites: Vec<SiteSample> = pop
            .iter_headers_sites()
            .filter(|s| !s.site.push_manifest.is_empty())
            .collect();
        // 15 sites at 10% → expect ~2.
        assert!(!push_sites.is_empty());
        for site in &push_sites {
            assert!(site.profile.behavior.push);
        }
    }

    #[test]
    fn mute_sites_negotiate_but_do_not_answer() {
        let pop = small_population();
        let mute_index = pop.headers_count();
        assert!(mute_index < pop.h2_count());
        let site = pop.site(mute_index);
        assert!(site.profile.behavior.mute);
    }

    #[test]
    fn settings_draws_respect_validation() {
        let pop = small_population();
        for site in pop.iter_headers_sites().take(200) {
            site.profile
                .behavior
                .announced
                .validate()
                .expect("announced settings valid");
        }
    }

    #[test]
    fn zero_iws_sites_window_update_after_settings() {
        let pop = Population::new(ExperimentSpec::first(), 0.05);
        let mut checked = 0;
        for site in pop.iter_headers_sites() {
            if site
                .profile
                .behavior
                .announced
                .get(SettingId::InitialWindowSize)
                == Some(0)
            {
                assert!(site.profile.behavior.zero_window_then_update.is_some());
                checked += 1;
            }
        }
        assert!(checked > 0, "some zero-IWS sites exist");
    }

    #[test]
    fn big_objects_cover_the_connection_window() {
        let pop = small_population();
        let site = pop.site(0);
        assert!(site.site.resource("/big/7").unwrap().body_len() > 65_535);
    }

    #[test]
    fn every_site_has_an_object_dependency_graph() {
        let pop = small_population();
        for sample in pop.iter_headers_sites().take(100) {
            let children = sample.site.children("/");
            assert!(
                !children.is_empty(),
                "site {} has no level-1 objects",
                sample.index
            );
            let mix = page_mixture(sample.family);
            let floor = (mix.css.0 + mix.js.0 + mix.img.0) as usize;
            assert!(
                children.len() >= floor,
                "site {} ({:?}): {} < {floor}",
                sample.index,
                sample.family,
                children.len()
            );
            // Every child resolves to a real resource, and second-level
            // children hang off level-1 parents only.
            for child in children {
                assert!(sample.site.resource(child).is_some(), "{child}");
                for sub in sample.site.children(child) {
                    assert!(sample.site.resource(sub).is_some(), "{sub}");
                    assert!(sample.site.children(sub).is_empty(), "graph is 2 levels");
                }
            }
        }
    }

    #[test]
    fn dependency_graphs_are_rank_seeded_and_deterministic() {
        let pop = small_population();
        let a = pop.site(11);
        let b = pop.site(11);
        assert_eq!(a.site.deps, b.site.deps);
        // Different ranks draw different trees (overwhelmingly likely
        // across a run of sites).
        assert!(
            (0..20).any(|i| pop.site(i).site.deps != a.site.deps),
            "trees never vary by rank"
        );
    }

    #[test]
    fn push_site_manifests_survive_the_graph() {
        // The legacy promise set rides along as extra level-1 children;
        // the wild push probe's output must not change.
        let pop = Population::new(ExperimentSpec::second(), 0.1);
        let sample = pop
            .iter_headers_sites()
            .find(|s| !s.site.push_manifest.is_empty())
            .expect("a push site");
        let manifest = &sample.site.push_manifest["/"];
        assert!(manifest.iter().all(|p| p.starts_with("/asset/")));
        let children = sample.site.children("/");
        for promised in manifest {
            assert!(children.contains(promised), "{promised} dropped");
        }
        assert!(
            children.len() > manifest.len(),
            "graph adds non-promised objects"
        );
    }
}

//! Behavior profiles for the servers the paper examines.
//!
//! The six testbed profiles are filled in cell-for-cell from the paper's
//! Table III and §V-A; the four extra profiles cover server families that
//! only appear in the wild-scan population (Table IV, Figures 4/5). The
//! profiles are *inputs* to the reproduction — Table III itself is then
//! **re-measured** by running H2Scope against engines configured with
//! these profiles, which exercises the full probe pipeline.

use h2wire::{SettingId, Settings};
use netsim::time::SimDuration;
use netsim::TlsConfig;

use crate::behavior::{HeadersFlowControl, PriorityMode, QuirkAction, ServerBehavior};

/// A named server profile: behavior matrix plus display metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProfile {
    /// Family name as it appears in the paper ("Nginx", "LiteSpeed", ...).
    pub name: String,
    /// Version string the paper tested.
    pub version: String,
    /// The behavior matrix.
    pub behavior: ServerBehavior,
}

impl ServerProfile {
    /// Every profile the engine can impersonate, as `(command-line name,
    /// constructor)`: the six testbed servers in the paper's column
    /// order, the RFC reference, then the four wild-scan families. The
    /// one list `repro probe`, the robustness proptest and the DESIGN.md
    /// inventory are read from.
    #[allow(
        clippy::type_complexity,
        reason = "a name/constructor pair; an alias would only add a public name"
    )]
    pub fn all() -> [(&'static str, fn() -> ServerProfile); 11] {
        [
            ("nginx", ServerProfile::nginx),
            ("litespeed", ServerProfile::litespeed),
            ("h2o", ServerProfile::h2o),
            ("nghttpd", ServerProfile::nghttpd),
            ("tengine", ServerProfile::tengine),
            ("apache", ServerProfile::apache),
            ("rfc7540", ServerProfile::rfc7540),
            ("gse", ServerProfile::gse),
            ("cloudflare-nginx", ServerProfile::cloudflare_nginx),
            ("ideaweb", ServerProfile::ideaweb),
            ("tengine-aserver", ServerProfile::tengine_aserver),
        ]
    }

    /// The profile whose [`all`](Self::all) name is exactly `name`.
    pub fn by_name(name: &str) -> Option<ServerProfile> {
        Self::all()
            .iter()
            .find(|(cli_name, _)| *cli_name == name)
            .map(|(_, make)| make())
    }

    /// All six testbed profiles in the paper's column order.
    pub fn testbed() -> Vec<ServerProfile> {
        Self::all().iter().take(6).map(|(_, make)| make()).collect()
    }

    /// The six testbed profiles followed by the RFC 7540 reference: the
    /// seven columns the robustness and attack matrices and the
    /// conformance tests run over.
    pub fn testbed_and_reference() -> Vec<ServerProfile> {
        Self::all().iter().take(7).map(|(_, make)| make()).collect()
    }

    /// Nginx v1.9.15 (Table III column 1).
    pub fn nginx() -> ServerProfile {
        let mut b = ServerBehavior::rfc7540();
        b.server_name = "nginx/1.9.15".into();
        b.tls = TlsConfig::h2_full();
        b.zero_window_update_stream = QuirkAction::Ignore;
        b.zero_window_update_conn = QuirkAction::Ignore;
        b.push = false;
        b.priority_mode = PriorityMode::None;
        b.self_dependency = QuirkAction::RstStream;
        b.hpack_index_responses = false; // "support*" — partial HPACK
        b.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 128)
            .with(SettingId::InitialWindowSize, 0)
            .with(SettingId::MaxFrameSize, 16_384);
        // Robustness row: nginx bounds header growth and reaps stalled
        // connections (http2_recv_timeout-style), but has no RST or
        // SETTINGS budget — the rapid-reset exposure.
        b.continuation_cap = Some(32_768);
        b.stall_timeout = Some(SimDuration::from_secs(60));
        b.header_list_limit = Some((8_192, QuirkAction::Goaway));
        ServerProfile {
            name: "Nginx".into(),
            version: "1.9.15".into(),
            behavior: b,
        }
    }

    /// LiteSpeed v5.0.11 (column 2).
    pub fn litespeed() -> ServerProfile {
        let mut b = ServerBehavior::rfc7540();
        b.server_name = "LiteSpeed".into();
        b.tls = TlsConfig::h2_full();
        b.headers_flow_control = HeadersFlowControl::Full; // the paper's headline LiteSpeed deviation
        b.zero_window_update_stream = QuirkAction::RstStream;
        b.zero_window_update_conn = QuirkAction::Goaway;
        b.push = false;
        b.priority_mode = PriorityMode::None;
        b.self_dependency = QuirkAction::Ignore;
        b.hpack_index_responses = true;
        b.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 100)
            .with(SettingId::InitialWindowSize, 65_536)
            .with(SettingId::MaxFrameSize, 16_384);
        // Robustness row: LiteSpeed only reaps stalled connections;
        // everything else is unbounded.
        b.stall_timeout = Some(SimDuration::from_secs(45));
        ServerProfile {
            name: "LiteSpeed".into(),
            version: "5.0.11".into(),
            behavior: b,
        }
    }

    /// H2O v1.6.2 (column 3).
    pub fn h2o() -> ServerProfile {
        let mut b = ServerBehavior::rfc7540();
        b.server_name = "h2o/1.6.2".into();
        b.tls = TlsConfig::h2_full();
        b.zero_window_update_stream = QuirkAction::RstStream;
        b.zero_window_update_conn = QuirkAction::Goaway;
        b.push = true;
        b.priority_mode = PriorityMode::Strict;
        b.self_dependency = QuirkAction::Goaway;
        b.hpack_index_responses = true;
        b.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 100)
            .with(SettingId::InitialWindowSize, 16_777_216)
            .with(SettingId::MaxFrameSize, 16_384);
        // Robustness row: H2O budgets client resets and bounds request
        // header lists per stream, but never reaps stalled windows.
        b.rst_rate_limit = Some(400);
        b.header_list_limit = Some((10_240, QuirkAction::RstStream));
        ServerProfile {
            name: "H2O".into(),
            version: "1.6.2".into(),
            behavior: b,
        }
    }

    /// nghttpd v1.12.0 (column 4).
    pub fn nghttpd() -> ServerProfile {
        let mut b = ServerBehavior::rfc7540();
        b.server_name = "nghttpd nghttp2/1.12.0".into();
        b.tls = TlsConfig::h2_full();
        b.zero_window_update_stream = QuirkAction::Goaway; // stricter than RFC
        b.zero_window_update_conn = QuirkAction::Goaway;
        b.push = true;
        b.priority_mode = PriorityMode::Strict;
        b.self_dependency = QuirkAction::Goaway;
        b.hpack_index_responses = true;
        b.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 100)
            .with(SettingId::InitialWindowSize, 65_535)
            .with(SettingId::MaxFrameSize, 16_384);
        // Robustness row: nghttpd is the most hardened testbed server —
        // generous but real budgets on resets, SETTINGS churn, header
        // block growth and list size (nghttp2's rate-limit lineage).
        b.rst_rate_limit = Some(1_000);
        b.settings_rate_limit = Some(1_000);
        b.continuation_cap = Some(65_536);
        b.header_list_limit = Some((10_240, QuirkAction::Goaway));
        ServerProfile {
            name: "nghttpd".into(),
            version: "1.12.0".into(),
            behavior: b,
        }
    }

    /// Tengine v2.1.2 (column 5) — an Nginx derivative and it shows.
    pub fn tengine() -> ServerProfile {
        let mut profile = ServerProfile::nginx();
        profile.name = "Tengine".into();
        profile.version = "2.1.2".into();
        profile.behavior.server_name = "Tengine/2.1.2".into();
        // Robustness row: the fork predates nginx's CONTINUATION bound,
        // so Tengine differs from its parent on exactly that cell.
        profile.behavior.continuation_cap = None;
        ServerProfile { ..profile }
    }

    /// Apache httpd v2.4.23 with mod_http2 (column 6).
    pub fn apache() -> ServerProfile {
        let mut b = ServerBehavior::rfc7540();
        b.server_name = "Apache/2.4.23".into();
        b.tls = TlsConfig::h2_alpn_only(); // "Apache doesn't support NPN over TLS"
        b.zero_window_update_stream = QuirkAction::Goaway;
        b.zero_window_update_conn = QuirkAction::Goaway;
        b.push = true;
        b.priority_mode = PriorityMode::Strict;
        b.self_dependency = QuirkAction::Goaway;
        b.hpack_index_responses = true;
        b.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 100)
            .with(SettingId::InitialWindowSize, 65_535)
            .with(SettingId::MaxFrameSize, 16_384);
        // Robustness row: Apache hardens everything except RST churn —
        // tight header caps, a SETTINGS budget and the shortest stalled-
        // connection timeout in the testbed.
        b.settings_rate_limit = Some(100);
        b.continuation_cap = Some(16_384);
        b.stall_timeout = Some(SimDuration::from_secs(30));
        b.header_list_limit = Some((8_192, QuirkAction::RstStream));
        ServerProfile {
            name: "Apache".into(),
            version: "2.4.23".into(),
            behavior: b,
        }
    }

    /// The RFC 7540 reference endpoint — Table III's final column.
    pub fn rfc7540() -> ServerProfile {
        ServerProfile {
            name: "RFC 7540".into(),
            version: "reference".into(),
            behavior: ServerBehavior::rfc7540(),
        }
    }

    // ----- wild-scan-only families --------------------------------------

    /// GSE, Google's proprietary server: best HPACK ratios in Figures 4/5
    /// (all below 0.3).
    pub fn gse() -> ServerProfile {
        let mut b = ServerBehavior::rfc7540();
        b.server_name = "GSE".into();
        b.tls = TlsConfig::h2_full();
        b.push = false;
        b.priority_mode = PriorityMode::Strict;
        b.hpack_index_responses = true;
        b.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 100)
            .with(SettingId::InitialWindowSize, 1_048_576)
            .with(SettingId::MaxFrameSize, 16_777_215)
            .with(SettingId::MaxHeaderListSize, 16_384);
        // GSE actually enforces the header-list bound it announces.
        b.header_list_limit = Some((16_384, QuirkAction::RstStream));
        ServerProfile {
            name: "GSE".into(),
            version: "-".into(),
            behavior: b,
        }
    }

    /// cloudflare-nginx: an Nginx derivative with Cloudflare patches
    /// (notably server push support, which stock Nginx 1.9 lacked).
    pub fn cloudflare_nginx() -> ServerProfile {
        let mut profile = ServerProfile::nginx();
        profile.name = "cloudflare-nginx".into();
        profile.version = "-".into();
        profile.behavior.server_name = "cloudflare-nginx".into();
        profile.behavior.push = true;
        profile.behavior.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 256)
            .with(SettingId::InitialWindowSize, 2_147_483_647)
            .with(SettingId::MaxFrameSize, 16_777_215);
        profile
    }

    /// IdeaWebServer v0.80 (a Polish hosting platform): worst HPACK
    /// ratios alongside Nginx in Figures 4/5.
    pub fn ideaweb() -> ServerProfile {
        let mut b = ServerBehavior::rfc7540();
        b.server_name = "IdeaWebServer/v0.80".into();
        b.tls = TlsConfig::h2_npn_only();
        b.push = false;
        b.priority_mode = PriorityMode::None;
        b.hpack_index_responses = false;
        b.zero_window_update_stream = QuirkAction::Ignore;
        b.zero_window_update_conn = QuirkAction::Ignore;
        b.announced = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 100)
            .with(SettingId::InitialWindowSize, 65_535)
            .with(SettingId::MaxFrameSize, 16_384)
            .with(SettingId::MaxHeaderListSize, 16_384);
        ServerProfile {
            name: "IdeaWebServer".into(),
            version: "0.80".into(),
            behavior: b,
        }
    }

    /// Tengine/Aserver — the tmall.com fleet that renamed itself between
    /// the paper's two experiments.
    pub fn tengine_aserver() -> ServerProfile {
        let mut profile = ServerProfile::tengine();
        profile.name = "Tengine/Aserver".into();
        profile.behavior.server_name = "Tengine/Aserver".into();
        profile.behavior.cookie_injection = true; // tmall sets per-response cookies
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_has_six_profiles_in_paper_order() {
        let names: Vec<String> = ServerProfile::testbed()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(
            names,
            ["Nginx", "LiteSpeed", "H2O", "nghttpd", "Tengine", "Apache"]
        );
    }

    #[test]
    fn all_lists_eleven_profiles_under_unique_names() {
        let all = ServerProfile::all();
        for (i, (name, make)) in all.iter().enumerate() {
            assert!(
                all.iter().skip(i + 1).all(|(other, _)| other != name),
                "{name} listed twice"
            );
            assert_eq!(ServerProfile::by_name(name), Some(make()), "{name}");
        }
        let display: std::collections::BTreeSet<String> =
            all.iter().map(|(_, make)| make().name).collect();
        assert_eq!(display.len(), 11, "eleven distinct profiles: {display:?}");
        assert_eq!(ServerProfile::by_name("iis"), None);
    }

    #[test]
    fn every_profile_announces_settings_within_the_section_6_5_2_bounds() {
        for (name, make) in ServerProfile::all() {
            assert_eq!(make().behavior.announced.validate(), Ok(()), "{name}");
        }
    }

    #[test]
    fn robustness_rows_genuinely_differ() {
        // The abuse-hardening matrix must discriminate: every testbed
        // profile has a distinct (rst, settings, continuation, stall,
        // header-list) row, and the RFC reference has none at all.
        let mut rows = Vec::new();
        for profile in ServerProfile::testbed() {
            let b = &profile.behavior;
            rows.push((
                b.rst_rate_limit,
                b.settings_rate_limit,
                b.continuation_cap,
                b.stall_timeout,
                b.header_list_limit,
            ));
        }
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                if i < j {
                    assert_ne!(a, b, "rows {i} and {j} are identical");
                }
            }
        }
        let rfc = ServerProfile::rfc7540().behavior;
        assert!(
            rfc.rst_rate_limit.is_none()
                && rfc.settings_rate_limit.is_none()
                && rfc.continuation_cap.is_none()
                && rfc.stall_timeout.is_none()
                && rfc.header_list_limit.is_none(),
            "the reference column is all-no"
        );
    }

    #[test]
    fn nginx_family_announces_a_zero_initial_window() {
        // The greeting's WINDOW_UPDATE follows from a zero initial window.
        let iws = |p: ServerProfile| p.behavior.announced.get(SettingId::InitialWindowSize);
        assert_eq!(iws(ServerProfile::nginx()), Some(0));
        assert_eq!(iws(ServerProfile::tengine()), Some(0));
        assert_eq!(iws(ServerProfile::apache()), Some(65_535));
    }
}

//! The per-site survey record (the paper's measurement "database"), for
//! a testbed server (Table III) and a scanned site (§V) alike.

use h2wire::{Frame, Settings};

use crate::client::ProbeConn;
use crate::probes::flow_control::FlowControlReport;
use crate::probes::hpack::HpackReport;
use crate::probes::negotiation::NegotiationReport;
use crate::probes::priority::PriorityReport;
use crate::probes::push::PushReport;
use crate::probes::settings::SettingsReport;
use crate::resilient::ProbeStats;
use crate::target::Target;

/// One surveyed site's record — a testbed server's Table III column, or
/// what H2Scope stores per site during the top-1M campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteReport {
    /// The site's authority (synthetic rank-derived hostname in scans).
    pub authority: String,
    /// ALPN / NPN support.
    pub negotiation: NegotiationReport,
    /// `server` response header, when a HEADERS frame came back.
    pub server_name: Option<String>,
    /// `true` when a HEADERS frame was received at all (the paper's
    /// 44,390 / 64,299 counts).
    pub headers_received: bool,
    /// Announced SETTINGS.
    pub settings: SettingsReport,
    /// Flow-control probes (only run when the site returned HEADERS).
    pub flow_control: Option<FlowControlReport>,
    /// Priority probes.
    pub priority: Option<PriorityReport>,
    /// Push probe.
    pub push: Option<PushReport>,
    /// HPACK probe.
    pub hpack: Option<HpackReport>,
    /// Resilience accounting: how the survey resolved, attempts spent,
    /// total backoff. Default (`Ok`/1/zero) outside fault campaigns.
    pub probe: ProbeStats,
}

/// Result of the HEADERS-returning probe: whether any HEADERS frame came
/// back for a front-page request, and the `server` field if present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadersProbe {
    /// At least one HEADERS frame was received.
    pub headers_received: bool,
    /// The `server` response header.
    pub server: Option<String>,
}

/// Fetches `/` once, recording whether HEADERS came back at all (the
/// paper's 44,390 / 64,299 funnel) and the `server` header, mirroring how
/// the paper identifies server families (§V-B2, with the caveat that the
/// field can be spoofed).
pub fn headers_probe(target: &Target) -> HeadersProbe {
    target.obs.enter_probe(h2obs::ProbeKind::Headers);
    let mut conn = ProbeConn::establish(target, Settings::new(), 0x5eb0);
    conn.exchange();
    let (frames, _) = conn.fetch(1, "/");
    for tf in &frames {
        if matches!(tf.frame, Frame::Headers(_)) {
            let server = tf
                .headers
                .as_ref()
                .and_then(|hs| hs.iter().find(|h| h.name == "server"))
                .map(|h| h.value.clone());
            return HeadersProbe {
                headers_received: true,
                server,
            };
        }
    }
    HeadersProbe {
        headers_received: false,
        server: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    #[test]
    fn server_name_comes_from_response_headers() {
        let target = Target::testbed(ServerProfile::nginx(), SiteSpec::benchmark());
        assert_eq!(
            headers_probe(&target).server.as_deref(),
            Some("nginx/1.9.15")
        );
        let target = Target::testbed(ServerProfile::gse(), SiteSpec::benchmark());
        assert_eq!(headers_probe(&target).server.as_deref(), Some("GSE"));
    }
}

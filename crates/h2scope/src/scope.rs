//! The top-level H2Scope tool: one survey per site, for the testbed
//! (Table III) and the wild scans (§V) alike.

use crate::probes::{flow_control, hpack, negotiation, priority, push, settings};
use crate::report::SiteReport;
use crate::target::Target;

/// Configuration for a probe campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeConfig {
    /// Identical requests in the HPACK probe (the paper's H).
    pub hpack_requests: usize,
}

impl Default for ScopeConfig {
    fn default() -> ScopeConfig {
        ScopeConfig { hpack_requests: 8 }
    }
}

/// The measurement tool the paper contributes.
#[derive(Debug, Clone, Default)]
pub struct H2Scope {
    config: ScopeConfig,
}

impl H2Scope {
    /// A scope with default configuration.
    pub fn new() -> H2Scope {
        H2Scope::default()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ScopeConfig {
        &self.config
    }

    /// Surveys one site as the scan campaigns do: negotiation first, then
    /// the follow-up probes only where HTTP/2 and HEADERS responses are
    /// available (matching the paper's funnel: 1M sites → h2 sites →
    /// HEADERS-returning sites → per-feature tests).
    pub fn survey(&self, target: &Target) -> SiteReport {
        let negotiation = negotiation::probe(target);
        let h2 = negotiation.h2();
        let mut report = SiteReport {
            authority: target.site.authority.clone(),
            negotiation,
            server_name: None,
            headers_received: false,
            settings: Default::default(),
            flow_control: None,
            priority: None,
            push: None,
            hpack: None,
            probe: Default::default(),
        };
        if !h2 {
            return report;
        }
        report.settings = settings::probe(target);
        let probe = crate::report::headers_probe(target);
        report.server_name = probe.server;
        report.headers_received = probe.headers_received;
        if !report.headers_received {
            return report;
        }
        report.flow_control = Some(flow_control::probe(target));
        report.priority = Some(priority::algorithm1(target));
        report.push = Some(push::probe(target, &["/"]));
        // A probe that saw no response HEADERS measured no ratio: its
        // verdict is unknown, not "does not index".
        let hpack = hpack::probe(target, self.config.hpack_requests);
        report.hpack = (!hpack.sizes.is_empty()).then_some(hpack);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    #[test]
    fn survey_funnels_non_h2_sites_out_early() {
        let mut profile = ServerProfile::nginx();
        profile.behavior.tls = netsim::TlsConfig::http1_only();
        let target = Target::testbed(profile, SiteSpec::benchmark());
        let report = H2Scope::new().survey(&target);
        assert!(!report.negotiation.h2());
        assert!(!report.headers_received);
        assert!(report.flow_control.is_none());
        assert!(report.hpack.is_none());
    }

    #[test]
    fn survey_of_h2_site_runs_all_follow_ups() {
        let target = Target::testbed(ServerProfile::gse(), SiteSpec::benchmark());
        let report = H2Scope::new().survey(&target);
        assert!(report.headers_received);
        assert_eq!(report.server_name.as_deref(), Some("GSE"));
        assert!(report.flow_control.is_some());
        assert!(report.priority.is_some());
        assert!(report.hpack.is_some());
        assert!(report.hpack.unwrap().ratio() < 0.3);
    }
}
